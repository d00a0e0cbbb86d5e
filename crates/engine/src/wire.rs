//! Wire-serializable forms of the engine's request and outcome types.
//!
//! The remote transport (`spidermine-transport`) moves three things over a
//! socket: a [`MineRequest`] travelling client → server, accepted
//! [`StreamedPattern`]s travelling server → client as the run produces them,
//! and the run's [`MineOutcome`] metadata once it finishes. This module
//! defines the byte-level encodings for all three: every integer is
//! little-endian, every variable-length section is length- or
//! count-prefixed, and the decoder is a bounds-checked cursor that reports
//! malformed input as a typed [`WireError`] — hostile bytes can never panic
//! or over-allocate.
//!
//! Determinism matters here: the transport's contract is that a remote run's
//! reconstructed outcome is *byte-identical* (under
//! [`encode_outcome_semantic`]) to an in-process run. Patterns ride in a
//! compact canonical form (labels, the edge list as strictly ascending
//! `u < v` pairs, support, one flat embedding block; see [`encode_pattern`])
//! that the decoder accepts only in that canonical shape, so
//! `encode(decode(b)) == b` holds for every byte string that decodes.
//! Integrity is the frame checksum's job, not this layer's.

use crate::error::MineError;
use crate::miner::MineOutcome;
use crate::request::{Algorithm, MineRequest};
use spidermine_graph::{Label, LabeledGraph, VertexId};
use spidermine_mining::context::{StageTiming, StreamedPattern};
use spidermine_mining::support::SupportMeasure;
use std::fmt;
use std::sync::Mutex;
use std::time::Duration;

/// Version tag carried by every encoded form in this module. Bumped on any
/// incompatible layout change; decoders reject other versions instead of
/// misreading bytes.
pub const WIRE_VERSION: u16 = 2;

/// Hard ceiling on any single length- or count-prefixed section (strings,
/// a pattern's labels, edges and embedding block). A hostile peer can
/// declare arbitrary lengths; the decoder refuses anything beyond this
/// before allocating.
const MAX_SECTION: usize = 64 << 20;

/// Cap on the count of distinct stage names the decoder will intern (stage
/// names must be `&'static str`, so each distinct name is leaked exactly
/// once). A hostile peer sending unbounded distinct names hits the cap and
/// gets a generic label instead of unbounded leaks.
const MAX_INTERNED_STAGES: usize = 256;

/// Cap on stage-name length and stage count per outcome; real runs have a
/// handful of short names.
const MAX_STAGE_NAME: usize = 128;
const MAX_STAGES: usize = 1024;

/// Errors produced while decoding wire bytes. Malformed input is always one
/// of these — never a panic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before a declared field/section.
    Truncated {
        /// Bytes the decoder needed.
        expected: usize,
        /// Bytes remaining.
        actual: usize,
    },
    /// A field held a value that cannot be represented (unknown enum name,
    /// invalid UTF-8, non-canonical pattern, length over the cap, …).
    Corrupt(String),
    /// The encoded form declared an unsupported wire version.
    UnsupportedVersion(u16),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated wire data: needed {expected} bytes, {actual} remain"
                )
            }
            WireError::Corrupt(msg) => write!(f, "corrupt wire data: {msg}"),
            WireError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "unsupported wire version {v} (supported: {WIRE_VERSION})"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only little-endian writer. The encoding side never fails.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// The bytes written so far.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix followed by the raw bytes.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u32(bytes.len() as u32);
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }

    /// Appends an optional `u64` as a presence byte plus the value.
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            Some(v) => {
                self.put_u8(1);
                self.put_u64(v);
            }
            None => self.put_u8(0),
        }
    }
}

/// Bounds-checked little-endian cursor over untrusted bytes.
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Errors unless every byte has been consumed — trailing garbage is
    /// treated as corruption, not silently ignored.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::Corrupt(format!(
                "{} trailing bytes after the last field",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated {
                expected: n,
                actual: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Reads a `u32`-length-prefixed byte section, enforcing the section cap
    /// *before* touching the declared length.
    pub fn get_bytes(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_SECTION {
            return Err(WireError::Corrupt(format!(
                "declared section length {len} exceeds the {MAX_SECTION}-byte cap"
            )));
        }
        self.take(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        std::str::from_utf8(self.get_bytes()?)
            .map_err(|_| WireError::Corrupt("string section is not valid UTF-8".into()))
    }

    /// Reads an optional `u64` written by [`WireWriter::put_opt_u64`].
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        match self.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.get_u64()?)),
            other => Err(WireError::Corrupt(format!(
                "invalid option tag {other} (expected 0 or 1)"
            ))),
        }
    }
}

fn duration_to_nanos(d: Duration) -> u64 {
    // u64 nanoseconds covers ~584 years; a budget beyond that saturates.
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

// ---------------------------------------------------------------------------
// MineRequest
// ---------------------------------------------------------------------------

/// Encodes a request for the wire. Everything [`MineRequest::canonical_key`]
/// covers rides along, plus the result-neutral `threads` knob, so the server
/// rebuilds a request with the *same* canonical key (and therefore the same
/// cache slot) as the client's original.
pub fn encode_request(request: &MineRequest) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u16(WIRE_VERSION);
    w.put_str(request.algorithm.name());
    w.put_u64(request.support_threshold as u64);
    w.put_u64(request.k as u64);
    w.put_u64(request.epsilon.to_bits());
    w.put_u32(request.d_max);
    w.put_u32(request.r);
    w.put_u64(request.seed);
    match request.support_measure {
        Some(m) => {
            w.put_u8(1);
            w.put_str(m.name());
        }
        None => w.put_u8(0),
    }
    w.put_opt_u64(request.time_budget.map(duration_to_nanos));
    w.put_opt_u64(request.max_pattern_edges.map(|v| v as u64));
    w.put_opt_u64(request.max_embeddings.map(|v| v as u64));
    w.put_opt_u64(request.threads.map(|v| v as u64));
    w.put_opt_u64(request.deadline_ms);
    w.into_bytes()
}

fn usize_field(v: u64, field: &str) -> Result<usize, WireError> {
    usize::try_from(v).map_err(|_| WireError::Corrupt(format!("{field} {v} overflows usize")))
}

fn opt_usize_field(v: Option<u64>, field: &str) -> Result<Option<usize>, WireError> {
    v.map(|v| usize_field(v, field)).transpose()
}

/// Decodes a request encoded by [`encode_request`]. The result is *decoded*,
/// not yet *admitted*: the caller still runs [`MineRequest::validate`] (the
/// service does this on submission), so out-of-range field values are a
/// validation error, while structurally unreadable bytes are a [`WireError`].
pub fn decode_request(bytes: &[u8]) -> Result<MineRequest, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.get_u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let algorithm: Algorithm = r
        .get_str()?
        .parse()
        .map_err(|e: MineError| WireError::Corrupt(e.to_string()))?;
    let support_threshold = usize_field(r.get_u64()?, "support_threshold")?;
    let k = usize_field(r.get_u64()?, "k")?;
    let epsilon = f64::from_bits(r.get_u64()?);
    let d_max = r.get_u32()?;
    let radius = r.get_u32()?;
    let seed = r.get_u64()?;
    let support_measure = match r.get_u8()? {
        0 => None,
        1 => Some(
            r.get_str()?
                .parse::<SupportMeasure>()
                .map_err(|e| WireError::Corrupt(e.to_string()))?,
        ),
        other => {
            return Err(WireError::Corrupt(format!(
                "invalid support-measure tag {other}"
            )))
        }
    };
    let time_budget = r.get_opt_u64()?.map(Duration::from_nanos);
    let max_pattern_edges = opt_usize_field(r.get_opt_u64()?, "max_pattern_edges")?;
    let max_embeddings = opt_usize_field(r.get_opt_u64()?, "max_embeddings")?;
    let threads = opt_usize_field(r.get_opt_u64()?, "threads")?;
    let deadline_ms = r.get_opt_u64()?;
    r.finish()?;
    Ok(MineRequest {
        algorithm,
        support_threshold,
        k,
        epsilon,
        d_max,
        r: radius,
        seed,
        support_measure,
        time_budget,
        max_pattern_edges,
        max_embeddings,
        threads,
        deadline_ms,
    })
}

// ---------------------------------------------------------------------------
// StreamedPattern
// ---------------------------------------------------------------------------

/// Encodes one accepted pattern in the compact layout:
///
/// ```text
/// u16            WIRE_VERSION
/// u32 n, n×u32   vertex labels, by vertex id
/// u32 m, m×2×u32 edges as (u, v) pairs, u < v, strictly ascending
/// u64            support
/// u32 rows       embedding count, then rows × n u32 host vertex ids
/// ```
///
/// The embedding block is flat: every row holds exactly one host vertex per
/// pattern vertex, so no per-row length is sent. A pattern whose rows do not
/// all have `n` entries encodes bytes that [`decode_pattern`] rejects.
pub fn encode_pattern(pattern: &StreamedPattern) -> Vec<u8> {
    let graph = &pattern.pattern;
    let n = graph.vertex_count();
    let cells: usize = pattern.embeddings.iter().map(Vec::len).sum();
    let mut w = WireWriter::with_capacity(26 + 4 * n + 8 * graph.edge_count() + 4 * cells);
    w.put_u16(WIRE_VERSION);
    w.put_u32(n as u32);
    for label in graph.labels() {
        w.put_u32(label.0);
    }
    w.put_u32(graph.edge_count() as u32);
    // `edges` yields `u < v` pairs in ascending (u, v) order: the canonical
    // order the decoder insists on.
    for (u, v) in graph.edges() {
        w.put_u32(u.0);
        w.put_u32(v.0);
    }
    w.put_u64(pattern.support as u64);
    w.put_u32(pattern.embeddings.len() as u32);
    for embedding in &pattern.embeddings {
        for &v in embedding {
            w.put_u32(v.0);
        }
    }
    w.into_bytes()
}

/// Reads a `u32` count of `width`-byte items and returns the items' bytes.
/// The declared size is checked against the section cap and the bytes
/// actually present *before* anything is allocated.
fn get_counted<'a>(
    r: &mut WireReader<'a>,
    width: usize,
    what: &str,
) -> Result<(usize, &'a [u8]), WireError> {
    let count = r.get_u32()? as usize;
    let len = count
        .checked_mul(width)
        .filter(|&len| len <= MAX_SECTION)
        .ok_or_else(|| {
            WireError::Corrupt(format!(
                "declared {what} count {count} exceeds the {MAX_SECTION}-byte section cap"
            ))
        })?;
    Ok((count, r.take(len)?))
}

fn le_u32s(bytes: &[u8]) -> impl Iterator<Item = u32> + '_ {
    bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().expect("chunks_exact yields 4-byte chunks")))
}

/// Decodes a pattern encoded by [`encode_pattern`], accepting only the
/// canonical form: every edge endpoint in range, no self-loops, each pair
/// `u < v`, pairs strictly ascending (so no duplicates), and an embedding
/// block of exactly `rows × n` entries. Anything else is a typed
/// [`WireError`]; nothing is allocated beyond the bytes actually present.
pub fn decode_pattern(bytes: &[u8]) -> Result<StreamedPattern, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.get_u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let (n, label_bytes) = get_counted(&mut r, 4, "vertex")?;
    let (_, edge_bytes) = get_counted(&mut r, 8, "edge")?;
    let mut graph = LabeledGraph::with_capacity(n);
    for label in le_u32s(label_bytes) {
        graph.add_vertex(Label(label));
    }
    let mut previous: Option<(u32, u32)> = None;
    let mut endpoints = le_u32s(edge_bytes);
    while let (Some(u), Some(v)) = (endpoints.next(), endpoints.next()) {
        if v as usize >= n {
            return Err(WireError::Corrupt(format!(
                "edge ({u}, {v}) names a vertex outside the {n}-vertex pattern"
            )));
        }
        if u >= v {
            return Err(WireError::Corrupt(if u == v {
                format!("self-loop on vertex {u}")
            } else {
                format!("edge ({u}, {v}) is not written as u < v")
            }));
        }
        if previous.is_some_and(|p| p >= (u, v)) {
            return Err(WireError::Corrupt(format!(
                "edge ({u}, {v}) breaks the strictly ascending edge order"
            )));
        }
        previous = Some((u, v));
        graph.add_edge(VertexId(u), VertexId(v));
    }
    let support = usize_field(r.get_u64()?, "support")?;
    let rows = r.get_u32()? as usize;
    if n == 0 && rows > 0 {
        return Err(WireError::Corrupt(format!(
            "{rows} embedding rows for a pattern with no vertices"
        )));
    }
    // The block is the last section, so its size must be exactly the rest
    // of the buffer: a short or long row shows up here as a size mismatch.
    let block = r.take(r.remaining())?;
    if rows.checked_mul(4 * n) != Some(block.len()) {
        return Err(WireError::Corrupt(format!(
            "embedding block of {} bytes for {rows} rows of a {n}-vertex pattern",
            block.len()
        )));
    }
    let embeddings = block
        .chunks_exact(4 * n.max(1))
        .map(|row| le_u32s(row).map(VertexId).collect())
        .collect();
    Ok(StreamedPattern {
        pattern: graph,
        support,
        embeddings,
    })
}

// ---------------------------------------------------------------------------
// MineOutcome
// ---------------------------------------------------------------------------

static INTERNED_STAGES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());

/// Maps a decoded stage name back onto a `&'static str` (the type
/// [`StageTiming::stage`] requires). Each distinct name is leaked exactly
/// once; past [`MAX_INTERNED_STAGES`] distinct names a generic label is
/// returned instead, bounding the leak a hostile peer can cause.
fn intern_stage_name(name: &str) -> &'static str {
    let mut interned = INTERNED_STAGES.lock().unwrap();
    if let Some(&existing) = interned.iter().find(|&&s| s == name) {
        return existing;
    }
    if interned.len() >= MAX_INTERNED_STAGES {
        return "(stage)";
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    interned.push(leaked);
    leaked
}

/// Encodes everything in a [`MineOutcome`] *except* its pattern list: the
/// algorithm, cancellation/timeout flags, stage timings, total wall-clock,
/// thread width and drop counter. The transport streams patterns separately
/// (incrementally, as frames) and sends this header with the final `Done`
/// frame.
pub fn encode_outcome_meta(outcome: &MineOutcome) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u16(WIRE_VERSION);
    w.put_str(outcome.algorithm.name());
    w.put_u8(outcome.cancelled as u8);
    w.put_u8(outcome.timed_out as u8);
    w.put_u64(duration_to_nanos(outcome.total_time));
    w.put_u64(outcome.threads as u64);
    w.put_u64(outcome.dropped_embeddings as u64);
    w.put_u32(outcome.stages.len().min(MAX_STAGES) as u32);
    for stage in outcome.stages.iter().take(MAX_STAGES) {
        let name = &stage.stage[..stage.stage.len().min(MAX_STAGE_NAME)];
        w.put_str(name);
        w.put_u64(duration_to_nanos(stage.elapsed));
    }
    w.into_bytes()
}

/// Decodes an outcome header encoded by [`encode_outcome_meta`]. The
/// returned outcome has an empty `patterns` list; the transport client fills
/// it in from the streamed pattern frames.
pub fn decode_outcome_meta(bytes: &[u8]) -> Result<MineOutcome, WireError> {
    let mut r = WireReader::new(bytes);
    let version = r.get_u16()?;
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let algorithm: Algorithm = r
        .get_str()?
        .parse()
        .map_err(|e: MineError| WireError::Corrupt(e.to_string()))?;
    let cancelled = match r.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(WireError::Corrupt(format!("invalid bool byte {other}"))),
    };
    let timed_out = match r.get_u8()? {
        0 => false,
        1 => true,
        other => return Err(WireError::Corrupt(format!("invalid bool byte {other}"))),
    };
    let total_time = Duration::from_nanos(r.get_u64()?);
    let threads = usize_field(r.get_u64()?, "threads")?;
    let dropped_embeddings = usize_field(r.get_u64()?, "dropped_embeddings")?;
    let stage_count = r.get_u32()? as usize;
    if stage_count > MAX_STAGES {
        return Err(WireError::Corrupt(format!(
            "declared stage count {stage_count} exceeds the cap of {MAX_STAGES}"
        )));
    }
    let mut stages = Vec::with_capacity(stage_count.min(64));
    for _ in 0..stage_count {
        let name = r.get_str()?;
        if name.len() > MAX_STAGE_NAME {
            return Err(WireError::Corrupt(format!(
                "stage name of {} bytes exceeds the cap of {MAX_STAGE_NAME}",
                name.len()
            )));
        }
        let elapsed = Duration::from_nanos(r.get_u64()?);
        stages.push(StageTiming {
            stage: intern_stage_name(name),
            elapsed,
        });
    }
    r.finish()?;
    Ok(MineOutcome {
        algorithm,
        patterns: Vec::new(),
        stream_order: Vec::new(),
        cancelled,
        timed_out,
        stages,
        total_time,
        threads,
        dropped_embeddings,
    })
}

/// Canonical encoding of everything *result-determined* in an outcome: the
/// algorithm, the cancellation/timeout flags, the drop counter, and the full
/// pattern list (each pattern via [`encode_pattern`]) in result order.
/// Wall-clock fields (`total_time`, `stages`, `threads`) are deliberately
/// excluded — they differ run to run even for identical results.
///
/// Two outcomes are "byte-identical" in the sense the service and transport
/// tests assert exactly when their semantic encodings are equal; this is the
/// function those assertions call.
pub fn encode_outcome_semantic(outcome: &MineOutcome) -> Vec<u8> {
    let mut w = WireWriter::new();
    w.put_u16(WIRE_VERSION);
    w.put_str(outcome.algorithm.name());
    w.put_u8(outcome.cancelled as u8);
    w.put_u8(outcome.timed_out as u8);
    w.put_u64(outcome.dropped_embeddings as u64);
    w.put_u32(outcome.patterns.len() as u32);
    for pattern in &outcome.patterns {
        w.put_bytes(&encode_pattern(pattern));
    }
    w.into_bytes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::{Label, LabeledGraph, VertexId};

    fn sample_request() -> MineRequest {
        MineRequest::new(Algorithm::SpiderMine)
            .support_threshold(3)
            .k(7)
            .epsilon(0.05)
            .d_max(6)
            .radius(2)
            .seed(0xfeed)
            .support_measure(SupportMeasure::GreedyDisjoint)
            .time_budget(Duration::from_millis(1500))
            .max_pattern_edges(12)
            .max_embeddings(64)
            .threads(2)
            .deadline_ms(2500)
    }

    fn sample_pattern() -> StreamedPattern {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex(Label(1));
        let b = g.add_vertex(Label(2));
        let c = g.add_vertex(Label(1));
        g.add_edge(a, b);
        g.add_edge(b, c);
        StreamedPattern {
            pattern: g,
            support: 4,
            embeddings: vec![
                vec![VertexId(10), VertexId(11), VertexId(12)],
                vec![VertexId(20), VertexId(21), VertexId(22)],
            ],
        }
    }

    #[test]
    fn request_round_trips_with_equal_canonical_key() {
        let request = sample_request();
        let decoded = decode_request(&encode_request(&request)).unwrap();
        assert_eq!(request.canonical_key(), decoded.canonical_key());
        assert_eq!(decoded.requested_threads(), Some(2));
        assert_eq!(
            decoded.requested_deadline(),
            Some(Duration::from_millis(2500))
        );
        // Defaults (all optionals unset) round-trip too.
        let bare = MineRequest::new(Algorithm::Moss);
        let decoded = decode_request(&encode_request(&bare)).unwrap();
        assert_eq!(bare.canonical_key(), decoded.canonical_key());
        assert_eq!(decoded.requested_threads(), None);
    }

    #[test]
    fn request_decoding_rejects_malformed_bytes() {
        let good = encode_request(&sample_request());
        // Every truncation point yields Truncated or Corrupt, never a panic.
        for len in 0..good.len() {
            let err = decode_request(&good[..len]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated { .. } | WireError::Corrupt(_)),
                "truncation at {len} gave {err:?}"
            );
        }
        // Trailing garbage is rejected.
        let mut long = good.clone();
        long.push(0);
        assert!(matches!(
            decode_request(&long).unwrap_err(),
            WireError::Corrupt(_)
        ));
        // An unknown algorithm name is rejected.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_VERSION);
        w.put_str("frobnicate");
        let bytes = w.into_bytes();
        assert!(matches!(
            decode_request(&bytes).unwrap_err(),
            WireError::Truncated { .. } | WireError::Corrupt(_)
        ));
        // A bad version is named.
        let mut w = WireWriter::new();
        w.put_u16(99);
        assert_eq!(
            decode_request(&w.into_bytes()).unwrap_err(),
            WireError::UnsupportedVersion(99)
        );
    }

    #[test]
    fn pattern_round_trips_byte_identically() {
        let pattern = sample_pattern();
        let bytes = encode_pattern(&pattern);
        let decoded = decode_pattern(&bytes).unwrap();
        assert_eq!(decoded.support, pattern.support);
        assert_eq!(decoded.embeddings, pattern.embeddings);
        // Deterministic: re-encoding the decoded pattern reproduces the bytes.
        assert_eq!(encode_pattern(&decoded), bytes);
    }

    #[test]
    fn pattern_decoding_survives_truncation_and_bitflips() {
        let bytes = encode_pattern(&sample_pattern());
        for len in 0..bytes.len() {
            assert!(
                decode_pattern(&bytes[..len]).is_err(),
                "truncation at {len} accepted"
            );
        }
        // A flipped bit lands in a count (truncation/corruption), an edge
        // (broken canonical order, or a different valid edge list), a label,
        // the support or an embedding cell (a different valid value): always
        // a typed error or a value that re-encodes to exactly the flipped
        // bytes, never a panic.
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(decoded) = decode_pattern(&flipped) {
                assert_eq!(encode_pattern(&decoded), flipped, "bit {bit}");
            }
        }
        // Embedding rows must match the pattern's vertex count, short or long.
        for row in [vec![VertexId(1)], vec![VertexId(1); 4]] {
            let mut pattern = sample_pattern();
            pattern.embeddings.push(row);
            let err = decode_pattern(&encode_pattern(&pattern)).unwrap_err();
            assert!(matches!(err, WireError::Corrupt(_)), "{err:?}");
        }
    }

    /// Hand-assembles a compact pattern: labels, raw edge pairs, support 1,
    /// no embeddings.
    fn raw_pattern(labels: &[u32], edges: &[(u32, u32)]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_u16(WIRE_VERSION);
        w.put_u32(labels.len() as u32);
        for &l in labels {
            w.put_u32(l);
        }
        w.put_u32(edges.len() as u32);
        for &(u, v) in edges {
            w.put_u32(u);
            w.put_u32(v);
        }
        w.put_u64(1);
        w.put_u32(0);
        w.into_bytes()
    }

    #[test]
    fn non_canonical_edge_lists_are_rejected() {
        let labels = [1, 2, 3];
        let ok = raw_pattern(&labels, &[(0, 1), (0, 2), (1, 2)]);
        let decoded = decode_pattern(&ok).expect("canonical edges decode");
        assert_eq!(decoded.pattern.edge_count(), 3);
        assert_eq!(encode_pattern(&decoded), ok);
        for (what, edges) in [
            ("unsorted", vec![(0, 2), (0, 1)]),
            ("duplicate", vec![(0, 1), (0, 1)]),
            ("reversed pair", vec![(1, 0)]),
            ("self-loop", vec![(1, 1)]),
            ("out of range", vec![(0, 3)]),
            ("far out of range", vec![(0, u32::MAX)]),
        ] {
            let err = decode_pattern(&raw_pattern(&labels, &edges)).unwrap_err();
            assert!(matches!(err, WireError::Corrupt(_)), "{what}: {err:?}");
        }
    }

    #[test]
    fn over_cap_counts_are_rejected_before_allocation() {
        // Each declared count would need gigabytes; the decoder must refuse
        // from the count alone, on a buffer of a few bytes.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_VERSION);
        w.put_u32(u32::MAX);
        assert!(matches!(
            decode_pattern(&w.into_bytes()).unwrap_err(),
            WireError::Corrupt(_)
        ));
        let mut w = WireWriter::new();
        w.put_u16(WIRE_VERSION);
        w.put_u32(0);
        w.put_u32(u32::MAX);
        assert!(matches!(
            decode_pattern(&w.into_bytes()).unwrap_err(),
            WireError::Corrupt(_)
        ));
        // Under the cap but beyond the bytes present: truncated, not
        // allocated.
        let mut w = WireWriter::new();
        w.put_u16(WIRE_VERSION);
        w.put_u32(1 << 20);
        assert!(matches!(
            decode_pattern(&w.into_bytes()).unwrap_err(),
            WireError::Truncated { .. }
        ));
        // A huge row count: rejected for a vertex-less pattern, and as a
        // block-size mismatch otherwise.
        for labels in [&[][..], &[7][..]] {
            let mut bytes = raw_pattern(labels, &[]);
            let rows_at = bytes.len() - 4;
            bytes[rows_at..].copy_from_slice(&u32::MAX.to_le_bytes());
            assert!(matches!(
                decode_pattern(&bytes).unwrap_err(),
                WireError::Corrupt(_)
            ));
        }
    }

    #[test]
    fn outcome_meta_round_trips() {
        let outcome = MineOutcome {
            algorithm: Algorithm::Seus,
            patterns: Vec::new(),
            stream_order: Vec::new(),
            cancelled: true,
            timed_out: true,
            stages: vec![
                StageTiming {
                    stage: "spiders",
                    elapsed: Duration::from_millis(3),
                },
                StageTiming {
                    stage: "growth",
                    elapsed: Duration::from_micros(421),
                },
            ],
            total_time: Duration::from_millis(17),
            threads: 4,
            dropped_embeddings: 2,
        };
        let decoded = decode_outcome_meta(&encode_outcome_meta(&outcome)).unwrap();
        assert_eq!(decoded.algorithm, Algorithm::Seus);
        assert!(decoded.cancelled && decoded.timed_out);
        assert_eq!(decoded.total_time, Duration::from_millis(17));
        assert_eq!(decoded.threads, 4);
        assert_eq!(decoded.dropped_embeddings, 2);
        assert_eq!(decoded.stages.len(), 2);
        assert_eq!(decoded.stages[0].stage, "spiders");
        assert_eq!(decoded.stages[1].elapsed, Duration::from_micros(421));
        // Interning is stable: decoding twice yields pointer-equal names.
        let again = decode_outcome_meta(&encode_outcome_meta(&outcome)).unwrap();
        assert!(std::ptr::eq(
            decoded.stages[0].stage.as_ptr(),
            again.stages[0].stage.as_ptr()
        ));
    }

    #[test]
    fn semantic_encoding_ignores_wall_clock_but_not_results() {
        let mut a = MineOutcome {
            algorithm: Algorithm::Moss,
            patterns: vec![sample_pattern()],
            stream_order: Vec::new(),
            cancelled: false,
            timed_out: false,
            stages: Vec::new(),
            total_time: Duration::from_millis(5),
            threads: 1,
            dropped_embeddings: 0,
        };
        let mut b = a.clone();
        b.total_time = Duration::from_secs(9);
        b.threads = 8;
        b.stages.push(StageTiming {
            stage: "noise",
            elapsed: Duration::from_millis(1),
        });
        assert_eq!(encode_outcome_semantic(&a), encode_outcome_semantic(&b));
        a.patterns[0].support += 1;
        assert_ne!(encode_outcome_semantic(&a), encode_outcome_semantic(&b));
    }
}
