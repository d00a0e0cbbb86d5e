//! Graph persistence: a line-oriented text format and a versioned binary
//! snapshot format.
//!
//! # Text format
//!
//! One record per line:
//!
//! ```text
//! # comment
//! t <graph-index>          -- starts a new graph (only needed for databases)
//! v <vertex-id> <label>    -- vertex ids must be dense and in order
//! e <src> <dst>            -- undirected edge
//! ```
//!
//! This mirrors the de-facto standard format used by gSpan-family tools, which
//! makes it easy to feed externally generated data into the miners.
//!
//! # Binary snapshot format (zero-copy, lazy)
//!
//! [`snapshot_bytes`] / [`graph_from_snapshot`] (and the file-level
//! [`save_snapshot`] / [`load_snapshot`]) persist a [`LabeledGraph`] in its
//! frozen CSR shape, laid out for *zero-copy* loading: each section is
//! page-aligned, independently checksummed via a section table, and stored
//! as fixed-width little-endian `u32` arrays, so the on-disk bytes *are* the
//! in-memory representation. A memory-mapped file (see `mmap-lite`) backs the
//! graph directly; loading touches only the header until a section is used.
//!
//! ```text
//! offset  size  field
//!      0     8  magic "SPDRSNAP"
//!      8     4  format version (2)
//!     12     4  section count (4)
//!     16     8  graph fingerprint (signature::graph_fingerprint)
//!     24     4  vertex count n
//!     28     4  edge count e
//!     32   128  section table: 4 × { id u32, reserved u32,
//!                                    offset u64, len u64, checksum u64 }
//!    160     8  FNV-1a checksum over bytes 0..160 (header + table)
//!   4096     …  sections, each at the next 4096-aligned offset, in id order:
//!               1 labels      n × u32
//!               2 csr-offsets (n+1) × u32
//!               3 neighbors   2e × u32
//!               4 label-index d, labels[d], starts[d+1], vertices[n] (u32s)
//! ```
//!
//! The writer is deterministic, so save → load → re-save round-trips
//! byte-identically. Version 1 (a single checksummed payload decoded
//! eagerly) is no longer read: such files are rejected with
//! [`SnapshotError::UnsupportedVersion`], like any other unknown version.
//!
//! The label-index section is *redundant* (derivable from the labels
//! section), which is what allows it to be validated lazily: a mapped load
//! leaves it untouched until a label-index-using algorithm runs, checksums it
//! at that point, and falls back to rebuilding from the labels section if it
//! is corrupt. The three core sections are checksummed and structurally
//! validated (monotone offsets, sorted symmetric rows, no self-loops) at
//! materialization time, and the fingerprint is recomputed from the decoded
//! graph; any violation is a typed [`SnapshotError`] — a truncated or
//! bit-flipped file never panics. [`probe_snapshot`] validates header +
//! section table only — O(header) no matter how large the graph — and is
//! what the service catalog uses to register snapshots without loading them.
//! See `DESIGN.md` § "Snapshot format".

use crate::csr::PackedLabelIndex;
use crate::graph::{LabeledGraph, VertexId};
use crate::label::Label;
use crate::shared::{ArcSlice, SharedBytes};
use crate::signature::{graph_fingerprint, StableHasher};
use crate::transaction::GraphDatabase;
use mmap_lite::{AlignedBuf, Mmap};
use spidermine_faultline as faultline;
use spidermine_telemetry as telemetry;
use std::fmt::Write as _;
use std::io::{Read as _, Write as _};
use std::path::Path;

/// Errors produced while parsing the text format.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// A line did not match any known record type.
    UnknownRecord(String),
    /// A numeric field failed to parse.
    BadNumber(String),
    /// A vertex id was out of order or referenced before definition.
    BadVertex(String),
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::UnknownRecord(l) => write!(f, "unknown record: {l}"),
            ParseError::BadNumber(l) => write!(f, "bad number in: {l}"),
            ParseError::BadVertex(l) => write!(f, "bad vertex reference in: {l}"),
        }
    }
}

impl std::error::Error for ParseError {}

/// Serializes a single graph.
pub fn write_graph(graph: &LabeledGraph) -> String {
    let mut out = String::new();
    for v in graph.vertices() {
        writeln!(out, "v {} {}", v.0, graph.label(v).0).expect("write to string");
    }
    for (u, v) in graph.edges() {
        writeln!(out, "e {} {}", u.0, v.0).expect("write to string");
    }
    out
}

/// Serializes a transaction database (multiple graphs).
pub fn write_database(db: &GraphDatabase) -> String {
    let mut out = String::new();
    for (i, g) in db.graphs().iter().enumerate() {
        writeln!(out, "t {i}").expect("write to string");
        out.push_str(&write_graph(g));
    }
    out
}

/// Parses a single graph. `t` records are rejected here; use
/// [`read_database`] for multi-graph input.
pub fn read_graph(text: &str) -> Result<LabeledGraph, ParseError> {
    let mut g = LabeledGraph::new();
    for line in text.lines() {
        parse_line(line, &mut g, false)?;
    }
    Ok(g)
}

/// Parses a transaction database.
pub fn read_database(text: &str) -> Result<GraphDatabase, ParseError> {
    let mut graphs: Vec<LabeledGraph> = Vec::new();
    let mut current: Option<LabeledGraph> = None;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        if trimmed.starts_with('t') {
            if let Some(g) = current.take() {
                graphs.push(g);
            }
            current = Some(LabeledGraph::new());
            continue;
        }
        let g = current.get_or_insert_with(LabeledGraph::new);
        parse_line(trimmed, g, true)?;
    }
    if let Some(g) = current.take() {
        graphs.push(g);
    }
    Ok(GraphDatabase::new(graphs))
}

fn parse_line(line: &str, g: &mut LabeledGraph, _in_db: bool) -> Result<(), ParseError> {
    let trimmed = line.trim();
    if trimmed.is_empty() || trimmed.starts_with('#') {
        return Ok(());
    }
    let mut parts = trimmed.split_whitespace();
    match parts.next() {
        Some("v") => {
            let id: u32 = parse_num(parts.next(), trimmed)?;
            let label: u32 = parse_num(parts.next(), trimmed)?;
            if id as usize != g.vertex_count() {
                return Err(ParseError::BadVertex(trimmed.to_owned()));
            }
            g.add_vertex(Label(label));
            Ok(())
        }
        Some("e") => {
            let u: u32 = parse_num(parts.next(), trimmed)?;
            let v: u32 = parse_num(parts.next(), trimmed)?;
            if u as usize >= g.vertex_count() || v as usize >= g.vertex_count() {
                return Err(ParseError::BadVertex(trimmed.to_owned()));
            }
            g.add_edge(VertexId(u), VertexId(v));
            Ok(())
        }
        _ => Err(ParseError::UnknownRecord(trimmed.to_owned())),
    }
}

fn parse_num(field: Option<&str>, line: &str) -> Result<u32, ParseError> {
    field
        .ok_or_else(|| ParseError::BadNumber(line.to_owned()))?
        .parse()
        .map_err(|_| ParseError::BadNumber(line.to_owned()))
}

// ---------------------------------------------------------------------------
// Binary snapshot format
// ---------------------------------------------------------------------------

/// Magic bytes opening every snapshot file.
pub const SNAPSHOT_MAGIC: [u8; 8] = *b"SPDRSNAP";

/// The snapshot format version this reader and writer understand:
/// page-aligned sections, zero-copy mmap loading.
pub const SNAPSHOT_VERSION: u32 = 2;

/// Section alignment: one page, so a memory mapping hands every section out
/// 4-byte (in fact page-) aligned for in-place reinterpretation as `u32`
/// arrays.
pub const SNAPSHOT_PAGE: usize = 4096;

/// Number of sections in a snapshot.
const SECTION_COUNT: usize = 4;

/// Fixed part of the header before the section table.
const FIXED_LEN: usize = 8 + 4 + 4 + 8 + 4 + 4;

/// One section-table entry: id + reserved + offset + len + checksum.
const TABLE_ENTRY_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// Full header: fixed part, section table, header checksum. Every byte of it
/// is covered by the header checksum; the sections start at the next page.
pub const SNAPSHOT_HEADER_LEN: usize = FIXED_LEN + SECTION_COUNT * TABLE_ENTRY_LEN + 8;

/// Section ids (and table order).
const SECTION_LABELS: u32 = 1;
const SECTION_OFFSETS: u32 = 2;
const SECTION_NEIGHBORS: u32 = 3;
const SECTION_LABEL_INDEX: u32 = 4;

/// Human-readable section name for error messages.
fn section_name(id: u32) -> &'static str {
    match id {
        SECTION_LABELS => "labels",
        SECTION_OFFSETS => "csr-offsets",
        SECTION_NEIGHBORS => "neighbors",
        SECTION_LABEL_INDEX => "label-index",
        _ => "unknown",
    }
}

/// Everything that can go wrong reading (or persisting) a binary snapshot.
///
/// Corruption is always reported as a typed error, never a panic: a truncated
/// file surfaces as [`SnapshotError::Truncated`], a bit flip as
/// [`SnapshotError::ChecksumMismatch`] or
/// [`SnapshotError::SectionChecksumMismatch`] (or, for flips that survive the
/// checksum probability, as a structural [`SnapshotError::Corrupt`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`SNAPSHOT_MAGIC`].
    BadMagic,
    /// The format version is not [`SNAPSHOT_VERSION`] (an older version-1
    /// file, or a newer format).
    UnsupportedVersion(u32),
    /// The byte stream ended before the structure it promised.
    Truncated {
        /// How many bytes the current section needed.
        expected: usize,
        /// How many were available.
        actual: usize,
    },
    /// The header checksum does not match the header and section table.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the header and section table.
        computed: u64,
    },
    /// A section's bytes do not hash to the checksum in the section table.
    SectionChecksumMismatch {
        /// Which section ("labels", "csr-offsets", "neighbors",
        /// "label-index").
        section: &'static str,
        /// Checksum stored in the section table.
        stored: u64,
        /// Checksum computed over the section bytes.
        computed: u64,
    },
    /// A section-table entry points at an offset that is not page-aligned,
    /// which would break in-place `u32` reinterpretation of a mapping.
    MisalignedSection {
        /// Which section.
        section: &'static str,
        /// The offending file offset.
        offset: u64,
    },
    /// The sections decode but violate a structural invariant; the message
    /// names the first violation found.
    Corrupt(String),
    /// An underlying filesystem error (save/load only).
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a graph snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot version {v} (this reader understands version {SNAPSHOT_VERSION})")
            }
            SnapshotError::Truncated { expected, actual } => {
                write!(f, "snapshot truncated: needed {expected} bytes, had {actual}")
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot header checksum mismatch: header says {stored:#018x}, header hashes to {computed:#018x}"
            ),
            SnapshotError::SectionChecksumMismatch {
                section,
                stored,
                computed,
            } => write!(
                f,
                "snapshot {section} section checksum mismatch: table says {stored:#018x}, section hashes to {computed:#018x}"
            ),
            SnapshotError::MisalignedSection { section, offset } => write!(
                f,
                "snapshot {section} section offset {offset} is not {SNAPSHOT_PAGE}-byte aligned"
            ),
            SnapshotError::Corrupt(message) => write!(f, "snapshot corrupt: {message}"),
            SnapshotError::Io(message) => write!(f, "snapshot i/o error: {message}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl SnapshotError {
    /// Whether the failure is *transient* — worth retrying against the same
    /// file — as opposed to permanent corruption that will fail identically
    /// on every read.
    ///
    /// Only [`SnapshotError::Io`] qualifies: filesystem errors (EINTR under
    /// load, NFS hiccups, a file mid-replacement) can heal on the next
    /// attempt, while bad magic, checksum mismatches and structural
    /// corruption are properties of the bytes themselves. Retry policies and
    /// the catalog's materialization cache branch on this: transient errors
    /// are retried / re-probed, permanent ones are sticky typed errors.
    pub fn is_transient(&self) -> bool {
        matches!(self, SnapshotError::Io(_))
    }
}

/// Applies an injected read fault to a freshly read snapshot buffer:
/// `Error` becomes a transient [`SnapshotError::Io`], corruption kinds
/// damage the buffer in place and let the loader's own validation classify
/// the result (checksum mismatch, truncation, structural corruption).
fn apply_injected_read_fault(
    bytes: &mut Vec<u8>,
    kind: faultline::FaultKind,
    path: &Path,
) -> Result<(), SnapshotError> {
    if kind == faultline::FaultKind::Error {
        return Err(SnapshotError::Io(format!(
            "{}: injected transient read fault",
            path.display()
        )));
    }
    faultline::corrupt_buffer(bytes, kind);
    Ok(())
}

/// CSR well-formedness: monotone offsets that span exactly `2e` arcs, rows strictly ascending, in range, self-loop-free,
/// and symmetric.
fn validate_csr_structure(
    n: usize,
    e: usize,
    offsets: &[u32],
    neighbors: &[VertexId],
) -> Result<(), SnapshotError> {
    if offsets.first() != Some(&0) {
        return Err(SnapshotError::Corrupt("first CSR offset is not 0".into()));
    }
    if offsets.windows(2).any(|w| w[0] > w[1]) {
        return Err(SnapshotError::Corrupt("CSR offsets not monotone".into()));
    }
    if offsets.last().copied().unwrap_or(0) as usize != 2 * e {
        return Err(SnapshotError::Corrupt(format!(
            "CSR offsets end at {} but the edge count promises {}",
            offsets.last().copied().unwrap_or(0),
            2 * e
        )));
    }
    // Per-row invariants: in-range, strictly ascending (sorted, no
    // duplicates), no self-loops.
    for v in 0..n {
        let row = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
        for (i, &u) in row.iter().enumerate() {
            if u.index() >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "vertex {v} lists out-of-range neighbor {u}"
                )));
            }
            if u.0 == v as u32 {
                return Err(SnapshotError::Corrupt(format!(
                    "vertex {v} has a self-loop"
                )));
            }
            if i > 0 && row[i - 1] >= u {
                return Err(SnapshotError::Corrupt(format!(
                    "adjacency row of vertex {v} is not strictly ascending"
                )));
            }
        }
    }
    // Symmetry: every directed arc needs its reverse.
    for v in 0..n {
        let row = &neighbors[offsets[v] as usize..offsets[v + 1] as usize];
        for &u in row {
            let back = &neighbors[offsets[u.index()] as usize..offsets[u.index() + 1] as usize];
            if back.binary_search(&VertexId(v as u32)).is_err() {
                return Err(SnapshotError::Corrupt(format!(
                    "edge ({v}, {u}) has no reverse entry"
                )));
            }
        }
    }
    Ok(())
}

/// Writes `bytes` to `path` atomically: a unique temporary file in the same
/// directory is written, fsync'd, and renamed into place, so concurrent
/// readers (and post-crash restores) see either the old content or the new —
/// never a partial write. The temporary name starts with `.` so directory
/// scans skip it.
pub fn atomic_write(path: impl AsRef<Path>, bytes: &[u8]) -> std::io::Result<()> {
    let path = path.as_ref();
    let io = io_metrics();
    io.writes.inc();
    io.write_bytes.add(bytes.len() as u64);
    let started = std::time::Instant::now();
    if faultline::check(faultline::FaultSite::DiskWrite).is_some() {
        // Injected before the temp file exists, so the atomic-write
        // invariant (old content or new, never partial) holds trivially.
        return Err(std::io::Error::other(format!(
            "{}: injected transient write fault",
            path.display()
        )));
    }
    let file_name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("snapshot");
    // Unique per call, not just per process: two threads saving the same
    // path must not share (and rename away) one temporary file.
    static NEXT_TMP: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let tmp = path.with_file_name(format!(
        ".{file_name}.tmp.{}.{}",
        std::process::id(),
        NEXT_TMP.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    ));
    let result = (|| {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        std::fs::rename(&tmp, path)
    })();
    if result.is_err() {
        std::fs::remove_file(&tmp).ok();
    }
    io.write_nanos.observe_duration(started.elapsed());
    result
}

/// Process-global snapshot I/O metrics: registry handles resolved once, so
/// the I/O paths never take the registry lock.
struct IoMetrics {
    writes: telemetry::Counter,
    write_bytes: telemetry::Counter,
    write_nanos: telemetry::Histogram,
    loads: telemetry::Counter,
    load_errors: telemetry::Counter,
    load_nanos: telemetry::Histogram,
}

fn io_metrics() -> &'static IoMetrics {
    static METRICS: std::sync::OnceLock<IoMetrics> = std::sync::OnceLock::new();
    METRICS.get_or_init(|| {
        let reg = telemetry::global();
        IoMetrics {
            writes: reg.counter("snapshot_writes_total"),
            write_bytes: reg.counter("snapshot_write_bytes_total"),
            write_nanos: reg.histogram("snapshot_write_nanos"),
            loads: reg.counter("snapshot_loads_total"),
            load_errors: reg.counter("snapshot_load_errors_total"),
            load_nanos: reg.histogram("snapshot_load_nanos"),
        }
    })
}

/// Counts and times one snapshot load attempt around `f`.
fn observe_load<T>(f: impl FnOnce() -> Result<T, SnapshotError>) -> Result<T, SnapshotError> {
    let io = io_metrics();
    io.loads.inc();
    let started = std::time::Instant::now();
    let result = f();
    io.load_nanos.observe_duration(started.elapsed());
    if result.is_err() {
        io.load_errors.inc();
    }
    result
}

#[inline]
fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// One entry of a snapshot's section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionInfo {
    /// Section id (1 = labels, 2 = csr-offsets, 3 = neighbors,
    /// 4 = label-index).
    pub id: u32,
    /// File offset of the section; always [`SNAPSHOT_PAGE`]-aligned.
    pub offset: u64,
    /// Section length in bytes.
    pub len: u64,
    /// FNV-1a checksum over the section bytes.
    pub checksum: u64,
}

impl SectionInfo {
    /// Human-readable section name ("labels", "csr-offsets", …).
    pub fn name(&self) -> &'static str {
        section_name(self.id)
    }
}

/// Everything a header-only probe learns about a snapshot file: enough to
/// register it in a catalog (identity, version, size) without reading any
/// data pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// The graph's content fingerprint ([`graph_fingerprint`]).
    pub fingerprint: u64,
    /// Number of vertices.
    pub vertex_count: u32,
    /// Number of undirected edges.
    pub edge_count: u32,
    /// Total file length in bytes.
    pub file_len: u64,
    /// The validated section table.
    pub sections: Vec<SectionInfo>,
}

impl SnapshotInfo {
    /// The table entry for section `id`, if present.
    pub fn section(&self, id: u32) -> Option<&SectionInfo> {
        self.sections.iter().find(|s| s.id == id)
    }
}

/// Parses and validates a snapshot header from the file's first bytes.
/// `prefix` holds at least the first `min(file_len, 168)` bytes; `file_len`
/// is the total file length, used to bounds-check the section table without
/// reading the sections. The version is checked before the length, so a
/// short file of another version is reported as
/// [`SnapshotError::UnsupportedVersion`] rather than as truncated.
fn parse_snapshot_header(prefix: &[u8], file_len: u64) -> Result<SnapshotInfo, SnapshotError> {
    if prefix.len() < 12 {
        return Err(SnapshotError::Truncated {
            expected: 12,
            actual: prefix.len(),
        });
    }
    if prefix[..8] != SNAPSHOT_MAGIC {
        return Err(SnapshotError::BadMagic);
    }
    let version = u32::from_le_bytes(prefix[8..12].try_into().expect("4 bytes"));
    if version != SNAPSHOT_VERSION {
        return Err(SnapshotError::UnsupportedVersion(version));
    }
    if prefix.len() < SNAPSHOT_HEADER_LEN {
        return Err(SnapshotError::Truncated {
            expected: SNAPSHOT_HEADER_LEN,
            actual: prefix.len(),
        });
    }
    let stored = u64::from_le_bytes(
        prefix[SNAPSHOT_HEADER_LEN - 8..SNAPSHOT_HEADER_LEN]
            .try_into()
            .expect("8 bytes"),
    );
    let mut h = StableHasher::new();
    h.write_bytes(&prefix[..SNAPSHOT_HEADER_LEN - 8]);
    let computed = h.finish();
    if computed != stored {
        return Err(SnapshotError::ChecksumMismatch { stored, computed });
    }
    let section_count = u32::from_le_bytes(prefix[12..16].try_into().expect("4 bytes"));
    if section_count as usize != SECTION_COUNT {
        return Err(SnapshotError::Corrupt(format!(
            "snapshot lists {section_count} sections, expected {SECTION_COUNT}"
        )));
    }
    let fingerprint = u64::from_le_bytes(prefix[16..24].try_into().expect("8 bytes"));
    let n = u32::from_le_bytes(prefix[24..28].try_into().expect("4 bytes"));
    let e = u32::from_le_bytes(prefix[28..32].try_into().expect("4 bytes"));

    let mut sections = Vec::with_capacity(SECTION_COUNT);
    for i in 0..SECTION_COUNT {
        let at = FIXED_LEN + i * TABLE_ENTRY_LEN;
        let entry = &prefix[at..at + TABLE_ENTRY_LEN];
        let id = u32::from_le_bytes(entry[0..4].try_into().expect("4 bytes"));
        let offset = u64::from_le_bytes(entry[8..16].try_into().expect("8 bytes"));
        let len = u64::from_le_bytes(entry[16..24].try_into().expect("8 bytes"));
        let checksum = u64::from_le_bytes(entry[24..32].try_into().expect("8 bytes"));
        if id != i as u32 + 1 {
            return Err(SnapshotError::Corrupt(format!(
                "section table entry {i} has id {id}, expected {}",
                i + 1
            )));
        }
        if offset % SNAPSHOT_PAGE as u64 != 0 {
            return Err(SnapshotError::MisalignedSection {
                section: section_name(id),
                offset,
            });
        }
        let end = offset
            .checked_add(len)
            .ok_or_else(|| SnapshotError::Corrupt("section range overflows".into()))?;
        if end > file_len {
            return Err(SnapshotError::Truncated {
                expected: end as usize,
                actual: file_len as usize,
            });
        }
        // Fixed-width sections must match the advertised graph shape; the
        // label-index section's inner layout is validated when it is decoded.
        let expected_len: Option<u64> = match id {
            SECTION_LABELS => Some(4 * n as u64),
            SECTION_OFFSETS => Some(4 * (n as u64 + 1)),
            SECTION_NEIGHBORS => Some(8 * e as u64),
            _ => (len % 4 == 0).then_some(len),
        };
        if expected_len != Some(len) {
            return Err(SnapshotError::Corrupt(format!(
                "{} section is {len} bytes, expected {expected_len:?} for n={n}, e={e}",
                section_name(id)
            )));
        }
        sections.push(SectionInfo {
            id,
            offset,
            len,
            checksum,
        });
    }
    Ok(SnapshotInfo {
        fingerprint,
        vertex_count: n,
        edge_count: e,
        file_len,
        sections,
    })
}

/// Validates a snapshot file's header and section table without reading any data pages: O(header) regardless of graph size.
///
/// This is how the service catalog registers snapshots — identity comes from
/// the stored fingerprint, integrity of the data sections is deferred to
/// materialization. Truncated headers, bad magic, unknown versions,
/// misaligned or out-of-bounds sections all surface as typed
/// [`SnapshotError`]s.
pub fn probe_snapshot(path: impl AsRef<Path>) -> Result<SnapshotInfo, SnapshotError> {
    let path = path.as_ref();
    let io_err = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
    if faultline::check(faultline::FaultSite::DiskProbe).is_some() {
        return Err(SnapshotError::Io(format!(
            "{}: injected transient probe fault",
            path.display()
        )));
    }
    let mut file = std::fs::File::open(path).map_err(io_err)?;
    let file_len = file.metadata().map_err(io_err)?.len();
    let mut prefix = [0u8; SNAPSHOT_HEADER_LEN];
    let mut read = 0;
    while read < prefix.len() {
        match file.read(&mut prefix[read..]) {
            Ok(0) => break,
            Ok(k) => read += k,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(io_err(e)),
        }
    }
    parse_snapshot_header(&prefix[..read], file_len)
}

/// Serializes `graph` into the snapshot format described in the module docs.
/// Deterministic: equal graphs produce identical bytes.
pub fn snapshot_bytes(graph: &LabeledGraph) -> Vec<u8> {
    let n = graph.vertex_count();
    let csr = graph.csr();
    let fingerprint = graph_fingerprint(graph);

    // Section payloads, in table order.
    let mut labels = Vec::with_capacity(4 * n);
    for l in graph.labels() {
        push_u32(&mut labels, l.0);
    }
    let mut offsets = Vec::with_capacity(4 * (n + 1));
    let mut total = 0u32;
    push_u32(&mut offsets, 0);
    for v in graph.vertices() {
        total += csr.neighbors(v).len() as u32;
        push_u32(&mut offsets, total);
    }
    let mut neighbors = Vec::with_capacity(8 * graph.edge_count());
    for v in graph.vertices() {
        for &u in csr.neighbors(v) {
            push_u32(&mut neighbors, u.0);
        }
    }
    // Packed label index: directly loadable as the grouped-by-label vertex
    // lists.
    let classes: Vec<(Label, &[VertexId])> = csr.labels_with_vertices().collect();
    let mut index = Vec::with_capacity(4 * (2 + 2 * classes.len() + n));
    push_u32(&mut index, classes.len() as u32);
    for (l, _) in &classes {
        push_u32(&mut index, l.0);
    }
    let mut start = 0u32;
    push_u32(&mut index, 0);
    for (_, vs) in &classes {
        start += vs.len() as u32;
        push_u32(&mut index, start);
    }
    for (_, vs) in &classes {
        for v in *vs {
            push_u32(&mut index, v.0);
        }
    }

    // Lay the sections out at page-aligned offsets and fill the table.
    let align_up = |x: usize| x.div_ceil(SNAPSHOT_PAGE) * SNAPSHOT_PAGE;
    let payloads = [&labels, &offsets, &neighbors, &index];
    let mut entries: Vec<SectionInfo> = Vec::with_capacity(SECTION_COUNT);
    let mut pos = align_up(SNAPSHOT_HEADER_LEN);
    for (i, payload) in payloads.iter().enumerate() {
        let mut h = StableHasher::new();
        h.write_bytes(payload);
        entries.push(SectionInfo {
            id: i as u32 + 1,
            offset: pos as u64,
            len: payload.len() as u64,
            checksum: h.finish(),
        });
        pos = align_up(pos + payload.len());
    }
    let file_len = entries
        .last()
        .map(|s| (s.offset + s.len) as usize)
        .expect("four sections");

    let mut out = vec![0u8; file_len];
    out[0..8].copy_from_slice(&SNAPSHOT_MAGIC);
    out[8..12].copy_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out[16..24].copy_from_slice(&fingerprint.to_le_bytes());
    out[24..28].copy_from_slice(&(n as u32).to_le_bytes());
    out[28..32].copy_from_slice(&(graph.edge_count() as u32).to_le_bytes());
    for (i, entry) in entries.iter().enumerate() {
        let at = FIXED_LEN + i * TABLE_ENTRY_LEN;
        out[at..at + 4].copy_from_slice(&entry.id.to_le_bytes());
        // 4 reserved (zero) bytes keep the u64 fields 8-aligned.
        out[at + 8..at + 16].copy_from_slice(&entry.offset.to_le_bytes());
        out[at + 16..at + 24].copy_from_slice(&entry.len.to_le_bytes());
        out[at + 24..at + 32].copy_from_slice(&entry.checksum.to_le_bytes());
    }
    let mut h = StableHasher::new();
    h.write_bytes(&out[..SNAPSHOT_HEADER_LEN - 8]);
    let header_checksum = h.finish();
    out[SNAPSHOT_HEADER_LEN - 8..SNAPSHOT_HEADER_LEN]
        .copy_from_slice(&header_checksum.to_le_bytes());
    for (entry, payload) in entries.iter().zip(payloads) {
        out[entry.offset as usize..(entry.offset + entry.len) as usize].copy_from_slice(payload);
    }
    out
}

/// Writes `graph` to `path` in the snapshot format, atomically (temp file +
/// fsync + rename; see [`atomic_write`]).
pub fn save_snapshot(path: impl AsRef<Path>, graph: &LabeledGraph) -> Result<(), SnapshotError> {
    let path = path.as_ref();
    atomic_write(path, &snapshot_bytes(graph))
        .map_err(|e| SnapshotError::Io(format!("{}: {e}", path.display())))
}

/// How [`load_snapshot`] backs the loaded graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Memory-map the file read-only and reinterpret sections in place: pages
    /// fault in on first access, nothing is copied, and the label-index
    /// section stays untouched until used. Falls back to [`LoadMode::Buffered`]
    /// on platforms without `mmap` support.
    #[default]
    Mapped,
    /// Read the whole file into one aligned buffer and reinterpret sections
    /// in place. Same zero-decode layout, but paid for upfront.
    Buffered,
    /// [`LoadMode::Buffered`], plus eager validation of the label-index
    /// section (checksum + structure) with typed errors — the mode that makes
    /// every byte of the file accountable, used by the corruption tests and
    /// anywhere fail-fast beats lazy.
    Eager,
}

/// Decodes a snapshot held in shared storage (a mapping or a buffer) into
/// a frozen, zero-copy [`LabeledGraph`].
fn graph_from_shared(bytes: SharedBytes, eager_index: bool) -> Result<LabeledGraph, SnapshotError> {
    let prefix = &bytes.as_slice()[..bytes.len().min(SNAPSHOT_HEADER_LEN)];
    let info = parse_snapshot_header(prefix, bytes.len() as u64)?;
    let n = info.vertex_count as usize;
    let e = info.edge_count as usize;

    // Core sections: checksum, reinterpret in place, validate structure.
    let verify = |s: &SectionInfo| -> Result<(), SnapshotError> {
        let mut h = StableHasher::new();
        h.write_bytes(bytes.slice(s.offset as usize, s.len as usize).as_slice());
        let computed = h.finish();
        if computed != s.checksum {
            return Err(SnapshotError::SectionChecksumMismatch {
                section: s.name(),
                stored: s.checksum,
                computed,
            });
        }
        Ok(())
    };
    let [lab, off, nbr, idx] = [
        *info.section(SECTION_LABELS).expect("validated table"),
        *info.section(SECTION_OFFSETS).expect("validated table"),
        *info.section(SECTION_NEIGHBORS).expect("validated table"),
        *info.section(SECTION_LABEL_INDEX).expect("validated table"),
    ];
    verify(&lab)?;
    verify(&off)?;
    verify(&nbr)?;
    let labels: ArcSlice<Label> = bytes
        .typed(lab.offset as usize, n)
        .expect("bounds checked by the section table");
    let offsets: ArcSlice<u32> = bytes
        .typed(off.offset as usize, n + 1)
        .expect("bounds checked by the section table");
    let neighbors: ArcSlice<VertexId> = bytes
        .typed(nbr.offset as usize, 2 * e)
        .expect("bounds checked by the section table");
    validate_csr_structure(n, e, &offsets, &neighbors)?;

    // The label-index section is redundant, so it can stay lazy: hand the
    // undecoded bytes to the CSR index, which checksums + validates them on
    // first use (falling back to a rebuild if they turn out corrupt). Eager
    // mode validates here instead, with typed errors.
    let packed = PackedLabelIndex::new(
        bytes.slice(idx.offset as usize, idx.len as usize),
        idx.checksum,
        info.vertex_count,
    );
    if eager_index {
        verify(&idx)?;
        packed
            .decode(&labels)
            .map_err(SnapshotError::Corrupt)
            .map(|_| ())?;
    }

    let graph = LabeledGraph::from_shared_parts(labels, offsets, neighbors, Some(packed));
    if graph_fingerprint(&graph) != info.fingerprint {
        return Err(SnapshotError::Corrupt(
            "stored fingerprint disagrees with the decoded graph".into(),
        ));
    }
    Ok(graph)
}

/// Decodes a snapshot byte stream (eagerly, from an owned copy). The
/// in-memory counterpart of [`load_snapshot`].
pub fn graph_from_snapshot(bytes: &[u8]) -> Result<LabeledGraph, SnapshotError> {
    graph_from_shared(SharedBytes::new(AlignedBuf::from_bytes(bytes)), true)
}

/// Loads a snapshot file, backed according to `mode`. Files of any other
/// version (including version 1) are rejected with
/// [`SnapshotError::UnsupportedVersion`].
pub fn load_snapshot(
    path: impl AsRef<Path>,
    mode: LoadMode,
) -> Result<LabeledGraph, SnapshotError> {
    let path = path.as_ref();
    observe_load(|| {
        let io_err = |e: std::io::Error| SnapshotError::Io(format!("{}: {e}", path.display()));
        if let Some(kind) = faultline::check(faultline::FaultSite::DiskRead) {
            // A mapped file is read-only, so corruption faults fall back to a
            // buffered read where the injected damage can actually land; the
            // normal section-checksum validation then classifies it.
            let mut bytes = std::fs::read(path).map_err(io_err)?;
            apply_injected_read_fault(&mut bytes, kind, path)?;
            let eager = matches!(mode, LoadMode::Eager);
            return graph_from_shared(SharedBytes::new(AlignedBuf::from_bytes(&bytes)), eager);
        }
        let mut file = std::fs::File::open(path).map_err(io_err)?;
        match mode {
            LoadMode::Mapped if Mmap::supported() => {
                let map = Mmap::map(&file).map_err(io_err)?;
                graph_from_shared(SharedBytes::new(map), false)
            }
            LoadMode::Mapped | LoadMode::Buffered => {
                let buf = AlignedBuf::read(&mut file).map_err(io_err)?;
                graph_from_shared(SharedBytes::new(buf), false)
            }
            LoadMode::Eager => {
                let buf = AlignedBuf::read(&mut file).map_err(io_err)?;
                graph_from_shared(SharedBytes::new(buf), true)
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_roundtrip() {
        let g = LabeledGraph::from_parts(&[Label(3), Label(4), Label(3)], &[(0, 1), (1, 2)]);
        let text = write_graph(&g);
        let back = read_graph(&text).expect("parse");
        assert_eq!(back.vertex_count(), 3);
        assert_eq!(back.edge_count(), 2);
        assert_eq!(back.label(VertexId(0)), Label(3));
        assert!(back.has_edge(VertexId(1), VertexId(2)));
    }

    #[test]
    fn database_roundtrip() {
        let g1 = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let g2 = LabeledGraph::from_parts(&[Label(2)], &[]);
        let db = GraphDatabase::new(vec![g1, g2]);
        let text = write_database(&db);
        let back = read_database(&text).expect("parse");
        assert_eq!(back.len(), 2);
        assert_eq!(back.graphs()[0].edge_count(), 1);
        assert_eq!(back.graphs()[1].vertex_count(), 1);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# hello\n\nv 0 7\nv 1 8\ne 0 1\n";
        let g = read_graph(text).expect("parse");
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn unknown_record_is_an_error() {
        assert!(matches!(
            read_graph("x 1 2"),
            Err(ParseError::UnknownRecord(_))
        ));
    }

    #[test]
    fn out_of_order_vertex_is_an_error() {
        assert!(matches!(read_graph("v 5 0"), Err(ParseError::BadVertex(_))));
    }

    #[test]
    fn edge_to_unknown_vertex_is_an_error() {
        assert!(matches!(
            read_graph("v 0 1\ne 0 9"),
            Err(ParseError::BadVertex(_))
        ));
    }

    #[test]
    fn bad_number_is_an_error() {
        assert!(matches!(
            read_graph("v zero 1"),
            Err(ParseError::BadNumber(_))
        ));
        assert!(matches!(read_graph("v 0"), Err(ParseError::BadNumber(_))));
    }

    fn snapshot_sample() -> LabeledGraph {
        LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(1), Label(0), Label(7)],
            &[(0, 1), (0, 2), (2, 3), (1, 3)],
        )
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("spidermine-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    fn graphs_equal(a: &LabeledGraph, b: &LabeledGraph) {
        assert_eq!(a.vertex_count(), b.vertex_count());
        assert_eq!(a.edge_count(), b.edge_count());
        assert_eq!(a.labels(), b.labels());
        for v in a.vertices() {
            assert_eq!(a.neighbors(v), b.neighbors(v));
        }
        assert_eq!(graph_fingerprint(a), graph_fingerprint(b));
    }

    fn header(bytes: &[u8]) -> SnapshotInfo {
        parse_snapshot_header(&bytes[..SNAPSHOT_HEADER_LEN], bytes.len() as u64)
            .expect("valid header")
    }

    /// Re-signs a forged header so only section-level validation can catch
    /// the forgery.
    fn resign_header(bytes: &mut [u8]) {
        let mut h = StableHasher::new();
        h.write_bytes(&bytes[..SNAPSHOT_HEADER_LEN - 8]);
        bytes[SNAPSHOT_HEADER_LEN - 8..SNAPSHOT_HEADER_LEN]
            .copy_from_slice(&h.finish().to_le_bytes());
    }

    #[test]
    fn snapshot_roundtrip_is_byte_identical() {
        let g = snapshot_sample();
        let bytes = snapshot_bytes(&g);
        let back = graph_from_snapshot(&bytes).expect("decode");
        graphs_equal(&g, &back);
        // Deterministic writer: save → load → re-save produces identical
        // bytes, and the stored fingerprint survives the trip.
        assert_eq!(snapshot_bytes(&back), bytes);
        assert_eq!(header(&bytes).fingerprint, graph_fingerprint(&back));
        // The label index decoded from the packed section answers queries.
        assert_eq!(
            back.vertices_with_label(Label(1)),
            g.vertices_with_label(Label(1))
        );
        assert_eq!(
            back.neighbor_label_histogram(VertexId(0)),
            g.neighbor_label_histogram(VertexId(0))
        );
    }

    #[test]
    fn empty_graph_snapshots() {
        let g = LabeledGraph::new();
        let bytes = snapshot_bytes(&g);
        let back = graph_from_snapshot(&bytes).expect("decode");
        assert_eq!(back.vertex_count(), 0);
        assert_eq!(back.edge_count(), 0);
        assert_eq!(snapshot_bytes(&back), bytes);
    }

    #[test]
    fn snapshot_rejects_bad_magic_and_version() {
        let mut bytes = snapshot_bytes(&snapshot_sample());
        bytes[0] = b'X';
        assert!(matches!(
            graph_from_snapshot(&bytes),
            Err(SnapshotError::BadMagic)
        ));
        for version in [1u32, 99] {
            let mut bytes = snapshot_bytes(&snapshot_sample());
            bytes[8..12].copy_from_slice(&version.to_le_bytes());
            assert_eq!(
                graph_from_snapshot(&bytes).err(),
                Some(SnapshotError::UnsupportedVersion(version))
            );
            // The version is read before the header length is checked, so a
            // short file of another version is not misreported as truncated.
            assert_eq!(
                graph_from_snapshot(&bytes[..40]).err(),
                Some(SnapshotError::UnsupportedVersion(version))
            );
        }
    }

    #[test]
    fn sections_are_page_aligned() {
        let bytes = snapshot_bytes(&snapshot_sample());
        let info = header(&bytes);
        assert_eq!(info.sections.len(), 4);
        for s in &info.sections {
            assert_eq!(
                s.offset as usize % SNAPSHOT_PAGE,
                0,
                "{} misaligned",
                s.name()
            );
        }
        let names: Vec<_> = info.sections.iter().map(SectionInfo::name).collect();
        assert_eq!(names, ["labels", "csr-offsets", "neighbors", "label-index"]);
    }

    #[test]
    fn truncated_snapshot_is_a_typed_error() {
        let bytes = snapshot_bytes(&snapshot_sample());
        // Every truncation point — header, table, padding, sections — must
        // produce an error, never a panic.
        for len in 0..bytes.len() {
            assert!(
                graph_from_snapshot(&bytes[..len]).is_err(),
                "prefix of {len} bytes decoded"
            );
        }
    }

    #[test]
    fn bit_flipped_snapshot_is_a_typed_error() {
        let bytes = snapshot_bytes(&snapshot_sample());
        let info = header(&bytes);
        // Every byte the format accounts for: the header with its table, and
        // each section (an eager decode checks all four). The zero padding
        // between sections carries no information.
        let mut covered: Vec<usize> = (0..SNAPSHOT_HEADER_LEN).collect();
        for s in &info.sections {
            covered.extend(s.offset as usize..(s.offset + s.len) as usize);
        }
        for i in covered {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x20;
            assert!(
                graph_from_snapshot(&corrupt).is_err(),
                "flip at byte {i} decoded"
            );
        }
    }

    #[test]
    fn structural_corruption_is_reported_after_a_checksum_fixup() {
        // Forge a neighbors section with an asymmetric edge and matching
        // section and header checksums: the structural validator, not just
        // the checksums, must catch it.
        let mut bytes = snapshot_bytes(&snapshot_sample());
        let nbr = *header(&bytes).section(SECTION_NEIGHBORS).expect("section");
        let at = nbr.offset as usize;
        bytes[at..at + 4].copy_from_slice(&3u32.to_le_bytes());
        let mut h = StableHasher::new();
        h.write_bytes(&bytes[at..at + nbr.len as usize]);
        let entry_at = FIXED_LEN + 2 * TABLE_ENTRY_LEN;
        bytes[entry_at + 24..entry_at + 32].copy_from_slice(&h.finish().to_le_bytes());
        resign_header(&mut bytes);
        match graph_from_snapshot(&bytes) {
            Err(SnapshotError::Corrupt(_)) => {}
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn snapshot_file_helpers_roundtrip() {
        let g = snapshot_sample();
        let dir = temp_dir("snap");
        let path = dir.join("sample.snap");
        save_snapshot(&path, &g).expect("save");
        for mode in [LoadMode::Mapped, LoadMode::Buffered, LoadMode::Eager] {
            let back = load_snapshot(&path, mode).expect("load");
            graphs_equal(&g, &back);
            assert_eq!(
                back.vertices_with_label(Label(0)),
                g.vertices_with_label(Label(0)),
                "label index under {mode:?}"
            );
            // The loaded graph re-snapshots identically.
            assert_eq!(snapshot_bytes(&back), snapshot_bytes(&g));
            assert!(matches!(
                load_snapshot(dir.join("missing.snap"), mode),
                Err(SnapshotError::Io(_))
            ));
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_reads_the_header_without_decoding() {
        let g = snapshot_sample();
        let dir = temp_dir("probe");
        let path = dir.join("g.snap");
        save_snapshot(&path, &g).expect("save");
        let info = probe_snapshot(&path).expect("probe");
        assert_eq!(info.fingerprint, graph_fingerprint(&g));
        assert_eq!(info.vertex_count, 5);
        assert_eq!(info.edge_count, 4);
        assert_eq!(info.sections.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn probe_rejects_truncated_headers() {
        let g = snapshot_sample();
        let dir = temp_dir("probe-trunc");
        let bytes = snapshot_bytes(&g);
        // Cut the file inside the section table.
        for cut in [0, 4, 11, 40, SNAPSHOT_HEADER_LEN - 1] {
            let path = dir.join(format!("cut-{cut}.snap"));
            std::fs::write(&path, &bytes[..cut]).expect("write");
            assert!(
                matches!(probe_snapshot(&path), Err(SnapshotError::Truncated { .. })),
                "cut at {cut} probed"
            );
        }
        // Header intact but a section cut off: the table bounds-check fails.
        let path = dir.join("short-section.snap");
        std::fs::write(&path, &bytes[..bytes.len() - 1]).expect("write");
        assert!(matches!(
            probe_snapshot(&path),
            Err(SnapshotError::Truncated { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_in_each_section_names_that_section() {
        let bytes = snapshot_bytes(&snapshot_sample());
        for s in &header(&bytes).sections {
            if s.len == 0 {
                continue;
            }
            let mut corrupt = bytes.clone();
            corrupt[s.offset as usize] ^= 0x10;
            match graph_from_snapshot(&corrupt) {
                Err(SnapshotError::SectionChecksumMismatch { section, .. }) => {
                    assert_eq!(section, s.name(), "wrong section blamed");
                }
                other => panic!("flip in {} gave {other:?}", s.name()),
            }
        }
    }

    #[test]
    fn header_bit_flip_is_caught_by_header_checksum() {
        let bytes = snapshot_bytes(&snapshot_sample());
        for at in [13usize, 17, 25, 40, 100, 159] {
            let mut corrupt = bytes.clone();
            corrupt[at] ^= 0x01;
            assert!(
                matches!(
                    graph_from_snapshot(&corrupt),
                    Err(SnapshotError::ChecksumMismatch { .. })
                ),
                "header flip at {at}"
            );
        }
    }

    #[test]
    fn misaligned_section_offset_is_typed() {
        let mut bytes = snapshot_bytes(&snapshot_sample());
        // Nudge the neighbors section offset off the page boundary and
        // re-sign the header so only the alignment check can object.
        let entry_at = FIXED_LEN + 2 * TABLE_ENTRY_LEN;
        let offset = u64::from_le_bytes(bytes[entry_at + 8..entry_at + 16].try_into().expect("8"));
        bytes[entry_at + 8..entry_at + 16].copy_from_slice(&(offset + 4).to_le_bytes());
        resign_header(&mut bytes);
        match graph_from_snapshot(&bytes) {
            Err(SnapshotError::MisalignedSection { section, offset: o }) => {
                assert_eq!(section, "neighbors");
                assert_eq!(o, offset + 4);
            }
            other => panic!("expected MisalignedSection, got {other:?}"),
        }
    }

    #[test]
    fn forged_fingerprint_is_caught() {
        let mut bytes = snapshot_bytes(&snapshot_sample());
        bytes[16..24].copy_from_slice(&0xdead_beefu64.to_le_bytes());
        resign_header(&mut bytes);
        match graph_from_snapshot(&bytes) {
            Err(SnapshotError::Corrupt(m)) => assert!(m.contains("fingerprint"), "{m}"),
            other => panic!("expected Corrupt(fingerprint), got {other:?}"),
        }
    }

    #[test]
    fn mapped_load_with_corrupt_label_index_falls_back_to_rebuild() {
        let g = snapshot_sample();
        let mut bytes = snapshot_bytes(&g);
        let idx = *header(&bytes)
            .section(SECTION_LABEL_INDEX)
            .expect("section");
        bytes[idx.offset as usize + 5] ^= 0xff;
        let dir = temp_dir("lazy-fallback");
        let path = dir.join("g.snap");
        std::fs::write(&path, &bytes).expect("write");
        // Eager load objects with a typed error…
        assert!(matches!(
            load_snapshot(&path, LoadMode::Eager),
            Err(SnapshotError::SectionChecksumMismatch {
                section: "label-index",
                ..
            })
        ));
        // …but the lazy modes self-heal: the section is redundant, so the
        // index is rebuilt from the (validated) labels section on first use.
        for mode in [LoadMode::Mapped, LoadMode::Buffered] {
            let back = load_snapshot(&path, mode).expect("lazy load");
            assert_eq!(
                back.vertices_with_label(Label(1)),
                g.vertices_with_label(Label(1))
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_temp_files() {
        let dir = temp_dir("atomic");
        let path = dir.join("file.bin");
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read"), b"second");
        let names: Vec<String> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, ["file.bin"], "temp residue left: {names:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
