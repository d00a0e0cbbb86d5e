//! The frame protocol: length-prefixed, checksummed binary frames over a
//! byte stream.
//!
//! Every frame is a fixed 20-byte header followed by a payload:
//!
//! ```text
//! offset  size  field
//!      0     4  magic "SPWF"
//!      4     2  protocol version (currently 2)
//!      6     2  frame type
//!      8     4  payload length (≤ 64 MiB; larger declarations are rejected
//!               before any allocation)
//!     12     8  word-wise checksum over the version/type/length fields and
//!               the payload (see `checksum`)
//!     20     …  payload (per-frame-type encoding, see [`Frame`])
//! ```
//!
//! All integers are little-endian. The reader validates magic, version,
//! frame type, declared length and checksum *in that order*, each failure a
//! distinct [`TransportError`] — a hostile or truncated stream can never
//! panic the peer. Each streamed frame carries its own checksum (rather
//! than one end-of-stream digest) because patterns are consumed
//! incrementally: the client may act on pattern N while N+1 is still being
//! mined, so corruption must be detected per frame, before the payload is
//! handed to the application, not after the stream ends.

use crate::error::{TransportError, WireRejection};
use spidermine_engine::wire::{WireReader, WireWriter};
use spidermine_faultline::{self as faultline, FaultKind, FaultSite};
use spidermine_service::{CacheStats, ClientStats, ServiceMetrics};
use std::io::{self, Read};
use std::time::Duration;

/// Frame magic: "SPiderWire Frame".
pub const MAGIC: [u8; 4] = *b"SPWF";
/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 2;
/// Fixed header size in bytes.
pub const HEADER_LEN: usize = 20;
/// Hard cap on a single frame's payload. A header declaring more is
/// rejected with [`TransportError::Oversized`] before any allocation.
pub const MAX_PAYLOAD: usize = 64 << 20;

mod frame_type {
    pub const HELLO: u16 = 1;
    pub const HELLO_ACK: u16 = 2;
    pub const REQUEST: u16 = 3;
    pub const CANCEL: u16 = 4;
    pub const STATS_REQUEST: u16 = 5;
    pub const HEARTBEAT: u16 = 6;
    pub const METRICS_REQUEST: u16 = 7;
    pub const TRACE_REQUEST: u16 = 8;
    pub const ACCEPTED: u16 = 16;
    pub const REJECTED: u16 = 17;
    pub const PATTERN: u16 = 18;
    pub const DONE: u16 = 19;
    pub const FAILED: u16 = 20;
    pub const STATS: u16 = 21;
    pub const GOODBYE: u16 = 22;
    pub const DRAINING: u16 = 23;
    pub const METRICS: u16 = 24;
    pub const TRACE: u16 = 25;
}

/// One entry of a `Done` frame's outcome-order table: which streamed frame
/// carries outcome pattern *i*.
///
/// Every job streams its outcome's patterns exactly once (the
/// `PatternObserver` contract). Cache replays and most algorithms stream in
/// outcome order, so their table is the identity `0..n`; SpiderMine streams
/// patterns as it accepts them and ranks afterwards, and the server copies
/// the run's own record of that (`MineOutcome::stream_order`). No pattern
/// is re-encoded or matched to build the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternRef {
    /// Outcome pattern *i* is byte-identical to streamed frame `seq`.
    Streamed(u64),
}

/// Every frame the protocol speaks. Client → server: `Hello`, `Request`,
/// `Cancel`, `StatsRequest`. Server → client: the rest.
#[derive(Debug, Clone)]
pub enum Frame {
    /// Opens a connection: the client names itself for per-client
    /// attribution and quotas.
    Hello {
        /// Client name (≤ 256 bytes).
        client: String,
    },
    /// Handshake answer.
    HelloAck {
        /// The server's per-client in-flight quota, so clients can pace.
        max_inflight: u64,
        /// The server's idle-connection timeout in milliseconds (0 = none).
        /// A client must send *something* — a [`Frame::Heartbeat`] suffices —
        /// within each window or the server reaps the connection as
        /// half-open.
        idle_timeout_ms: u64,
    },
    /// Submit a mining request against a named catalog graph.
    Request {
        /// Client-chosen id, echoed on every response frame for this job.
        id: u64,
        /// Catalog graph name.
        graph: String,
        /// [`spidermine_engine::wire::encode_request`] bytes.
        request: Vec<u8>,
        /// Telemetry trace id minted by the client (0 = untraced). The
        /// server adopts it for the job's spans, so client- and server-side
        /// events of one job line up under one trace.
        trace: u64,
    },
    /// Fire the cancel token of an in-flight request.
    Cancel {
        /// The request to cancel.
        id: u64,
    },
    /// Ask for service metrics (including per-client counters).
    StatsRequest {
        /// Client-chosen id echoed on the `Stats` answer.
        id: u64,
    },
    /// Ask for the server's telemetry registry in Prometheus text format.
    MetricsRequest {
        /// Client-chosen id echoed on the `Metrics` answer.
        id: u64,
    },
    /// Ask for the server's captured trace events as Chrome trace-event
    /// JSON (empty unless the server runs with tracing armed).
    TraceRequest {
        /// Client-chosen id echoed on the `Trace` answer.
        id: u64,
    },
    /// Connection keep-alive: no payload, no answer. Sent by idle clients so
    /// the server's idle-timeout reaper can tell "quiet but alive" from
    /// "half-open".
    Heartbeat,
    /// The request was admitted to the scheduler.
    Accepted {
        /// Echo of the request id.
        id: u64,
        /// The server-side job id.
        job: u64,
    },
    /// The request was refused; the connection stays usable.
    Rejected {
        /// Echo of the request id.
        id: u64,
        /// Why.
        rejection: WireRejection,
    },
    /// One accepted pattern, streamed while the job is still running.
    Pattern {
        /// Echo of the request id.
        id: u64,
        /// Position in this request's streamed sequence (0-based).
        seq: u64,
        /// [`spidermine_engine::wire::encode_pattern`] bytes.
        pattern: Vec<u8>,
    },
    /// The job reached a terminal non-error state (done or cancelled).
    Done {
        /// Echo of the request id.
        id: u64,
        /// True if the outcome was served from the result cache.
        from_cache: bool,
        /// [`spidermine_engine::wire::encode_outcome_meta`] bytes.
        meta: Vec<u8>,
        /// Outcome-order table; see [`PatternRef`].
        order: Vec<PatternRef>,
        /// Telemetry trace id the server ran the job under (echo of the
        /// request's `trace`, or a server-minted id when that was 0).
        trace: u64,
    },
    /// The job ran and failed (engine error or caught panic).
    Failed {
        /// Echo of the request id.
        id: u64,
        /// The server-side error rendering.
        message: String,
    },
    /// Answer to `StatsRequest`.
    Stats {
        /// Echo of the request id.
        id: u64,
        /// Service-wide counters at answer time.
        metrics: ServiceMetrics,
    },
    /// Answer to `MetricsRequest`.
    Metrics {
        /// Echo of the request id.
        id: u64,
        /// Prometheus text exposition of the server's telemetry registries
        /// (per-service + process-global).
        text: String,
    },
    /// Answer to `TraceRequest`.
    Trace {
        /// Echo of the request id.
        id: u64,
        /// Chrome trace-event JSON of the server's captured span/instant
        /// events (load in `chrome://tracing` or Perfetto).
        json: String,
    },
    /// The peer is closing this connection deliberately.
    Goodbye {
        /// A connection-level rejection (e.g. the connection cap), if any.
        rejection: Option<WireRejection>,
        /// Human-readable reason.
        message: String,
    },
    /// The server has begun a graceful drain: new requests will be rejected
    /// with [`WireRejection::ShuttingDown`], in-flight jobs get until the
    /// deadline to finish, then the connection closes. Unlike `Goodbye`,
    /// the connection stays open so in-flight results can still stream.
    Draining {
        /// How long in-flight work has to finish, in milliseconds.
        deadline_ms: u64,
    },
}

impl Frame {
    fn frame_type(&self) -> u16 {
        match self {
            Frame::Hello { .. } => frame_type::HELLO,
            Frame::HelloAck { .. } => frame_type::HELLO_ACK,
            Frame::Request { .. } => frame_type::REQUEST,
            Frame::Cancel { .. } => frame_type::CANCEL,
            Frame::StatsRequest { .. } => frame_type::STATS_REQUEST,
            Frame::MetricsRequest { .. } => frame_type::METRICS_REQUEST,
            Frame::TraceRequest { .. } => frame_type::TRACE_REQUEST,
            Frame::Heartbeat => frame_type::HEARTBEAT,
            Frame::Accepted { .. } => frame_type::ACCEPTED,
            Frame::Rejected { .. } => frame_type::REJECTED,
            Frame::Pattern { .. } => frame_type::PATTERN,
            Frame::Done { .. } => frame_type::DONE,
            Frame::Failed { .. } => frame_type::FAILED,
            Frame::Stats { .. } => frame_type::STATS,
            Frame::Metrics { .. } => frame_type::METRICS,
            Frame::Trace { .. } => frame_type::TRACE,
            Frame::Goodbye { .. } => frame_type::GOODBYE,
            Frame::Draining { .. } => frame_type::DRAINING,
        }
    }

    fn payload(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        match self {
            Frame::Hello { client } => w.put_str(client),
            Frame::HelloAck {
                max_inflight,
                idle_timeout_ms,
            } => {
                w.put_u64(*max_inflight);
                w.put_u64(*idle_timeout_ms);
            }
            Frame::Heartbeat => {}
            Frame::Request {
                id,
                graph,
                request,
                trace,
            } => {
                w.put_u64(*id);
                w.put_str(graph);
                w.put_bytes(request);
                w.put_u64(*trace);
            }
            Frame::Cancel { id }
            | Frame::StatsRequest { id }
            | Frame::MetricsRequest { id }
            | Frame::TraceRequest { id } => w.put_u64(*id),
            Frame::Accepted { id, job } => {
                w.put_u64(*id);
                w.put_u64(*job);
            }
            Frame::Rejected { id, rejection } => {
                w.put_u64(*id);
                put_rejection(&mut w, rejection);
            }
            Frame::Pattern { id, seq, pattern } => {
                w.put_u64(*id);
                w.put_u64(*seq);
                w.put_bytes(pattern);
            }
            Frame::Done {
                id,
                from_cache,
                meta,
                order,
                trace,
            } => {
                w.put_u64(*id);
                w.put_u64(*trace);
                w.put_u8(*from_cache as u8);
                w.put_bytes(meta);
                w.put_u32(order.len() as u32);
                for PatternRef::Streamed(seq) in order {
                    w.put_u64(*seq);
                }
            }
            Frame::Failed { id, message } => {
                w.put_u64(*id);
                w.put_str(message);
            }
            Frame::Stats { id, metrics } => {
                w.put_u64(*id);
                put_metrics(&mut w, metrics);
            }
            Frame::Metrics { id, text } => {
                w.put_u64(*id);
                w.put_str(text);
            }
            Frame::Trace { id, json } => {
                w.put_u64(*id);
                w.put_str(json);
            }
            Frame::Goodbye { rejection, message } => {
                match rejection {
                    Some(rejection) => {
                        w.put_u8(1);
                        put_rejection(&mut w, rejection);
                    }
                    None => w.put_u8(0),
                }
                w.put_str(message);
            }
            Frame::Draining { deadline_ms } => w.put_u64(*deadline_ms),
        }
        w.into_bytes()
    }

    fn decode(frame_type: u16, payload: &[u8]) -> Result<Frame, TransportError> {
        let mut r = WireReader::new(payload);
        let frame = match frame_type {
            frame_type::HELLO => Frame::Hello {
                client: r.get_str()?.to_owned(),
            },
            frame_type::HELLO_ACK => Frame::HelloAck {
                max_inflight: r.get_u64()?,
                idle_timeout_ms: r.get_u64()?,
            },
            frame_type::HEARTBEAT => Frame::Heartbeat,
            frame_type::REQUEST => Frame::Request {
                id: r.get_u64()?,
                graph: r.get_str()?.to_owned(),
                request: r.get_bytes()?.to_vec(),
                trace: r.get_u64()?,
            },
            frame_type::CANCEL => Frame::Cancel { id: r.get_u64()? },
            frame_type::STATS_REQUEST => Frame::StatsRequest { id: r.get_u64()? },
            frame_type::METRICS_REQUEST => Frame::MetricsRequest { id: r.get_u64()? },
            frame_type::TRACE_REQUEST => Frame::TraceRequest { id: r.get_u64()? },
            frame_type::ACCEPTED => Frame::Accepted {
                id: r.get_u64()?,
                job: r.get_u64()?,
            },
            frame_type::REJECTED => Frame::Rejected {
                id: r.get_u64()?,
                rejection: get_rejection(&mut r)?,
            },
            frame_type::PATTERN => Frame::Pattern {
                id: r.get_u64()?,
                seq: r.get_u64()?,
                pattern: r.get_bytes()?.to_vec(),
            },
            frame_type::DONE => {
                let id = r.get_u64()?;
                let trace = r.get_u64()?;
                let from_cache = match r.get_u8()? {
                    0 => false,
                    1 => true,
                    other => {
                        return Err(TransportError::Corrupt(format!(
                            "invalid from_cache byte {other}"
                        )))
                    }
                };
                let meta = r.get_bytes()?.to_vec();
                let count = r.get_u32()? as usize;
                let mut order = Vec::with_capacity(count.min(4096));
                for _ in 0..count {
                    order.push(PatternRef::Streamed(r.get_u64()?));
                }
                Frame::Done {
                    id,
                    from_cache,
                    meta,
                    order,
                    trace,
                }
            }
            frame_type::FAILED => Frame::Failed {
                id: r.get_u64()?,
                message: r.get_str()?.to_owned(),
            },
            frame_type::STATS => Frame::Stats {
                id: r.get_u64()?,
                metrics: get_metrics(&mut r)?,
            },
            frame_type::METRICS => Frame::Metrics {
                id: r.get_u64()?,
                text: r.get_str()?.to_owned(),
            },
            frame_type::TRACE => Frame::Trace {
                id: r.get_u64()?,
                json: r.get_str()?.to_owned(),
            },
            frame_type::GOODBYE => {
                let rejection = match r.get_u8()? {
                    0 => None,
                    1 => Some(get_rejection(&mut r)?),
                    other => {
                        return Err(TransportError::Corrupt(format!(
                            "invalid rejection-presence byte {other}"
                        )))
                    }
                };
                Frame::Goodbye {
                    rejection,
                    message: r.get_str()?.to_owned(),
                }
            }
            frame_type::DRAINING => Frame::Draining {
                deadline_ms: r.get_u64()?,
            },
            other => return Err(TransportError::UnknownFrameType(other)),
        };
        r.finish()?;
        Ok(frame)
    }
}

fn put_rejection(w: &mut WireWriter, rejection: &WireRejection) {
    match rejection {
        WireRejection::QueueFull { depth, limit } => {
            w.put_u16(1);
            w.put_u64(*depth);
            w.put_u64(*limit);
        }
        WireRejection::QuotaExceeded { in_flight, limit } => {
            w.put_u16(2);
            w.put_u64(*in_flight);
            w.put_u64(*limit);
        }
        WireRejection::UnknownGraph(name) => {
            w.put_u16(3);
            w.put_str(name);
        }
        WireRejection::InvalidRequest(message) => {
            w.put_u16(4);
            w.put_str(message);
        }
        WireRejection::ShuttingDown => w.put_u16(5),
        WireRejection::TooManyConnections { limit } => {
            w.put_u16(6);
            w.put_u64(*limit);
        }
    }
}

fn get_rejection(r: &mut WireReader<'_>) -> Result<WireRejection, TransportError> {
    Ok(match r.get_u16()? {
        1 => WireRejection::QueueFull {
            depth: r.get_u64()?,
            limit: r.get_u64()?,
        },
        2 => WireRejection::QuotaExceeded {
            in_flight: r.get_u64()?,
            limit: r.get_u64()?,
        },
        3 => WireRejection::UnknownGraph(r.get_str()?.to_owned()),
        4 => WireRejection::InvalidRequest(r.get_str()?.to_owned()),
        5 => WireRejection::ShuttingDown,
        6 => WireRejection::TooManyConnections {
            limit: r.get_u64()?,
        },
        other => {
            return Err(TransportError::Corrupt(format!(
                "unknown rejection code {other}"
            )))
        }
    })
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn put_metrics(w: &mut WireWriter, m: &ServiceMetrics) {
    w.put_u64(m.submitted);
    w.put_u64(m.rejected);
    w.put_u64(m.completed);
    w.put_u64(m.cancelled);
    w.put_u64(m.failed);
    w.put_u64(m.retries);
    w.put_u64(duration_ns(m.queue_wait_total));
    w.put_u64(duration_ns(m.run_time_total));
    w.put_u64(m.patterns_emitted);
    w.put_u64(m.embeddings_dropped);
    w.put_u64(m.cache.hits);
    w.put_u64(m.cache.misses);
    w.put_u64(m.cache.evictions);
    w.put_u64(m.cache.entries as u64);
    w.put_u64(m.queue_depth as u64);
    w.put_u32(m.clients.len() as u32);
    for (client, stats) in &m.clients {
        w.put_str(client);
        w.put_u64(stats.accepted);
        w.put_u64(stats.rejected);
        w.put_u64(stats.patterns_streamed);
        w.put_u64(stats.bytes_streamed);
    }
}

fn get_metrics(r: &mut WireReader<'_>) -> Result<ServiceMetrics, TransportError> {
    let mut m = ServiceMetrics {
        submitted: r.get_u64()?,
        rejected: r.get_u64()?,
        completed: r.get_u64()?,
        cancelled: r.get_u64()?,
        failed: r.get_u64()?,
        retries: r.get_u64()?,
        queue_wait_total: Duration::from_nanos(r.get_u64()?),
        run_time_total: Duration::from_nanos(r.get_u64()?),
        patterns_emitted: r.get_u64()?,
        embeddings_dropped: r.get_u64()?,
        cache: CacheStats::default(),
        queue_depth: 0,
        clients: Vec::new(),
    };
    m.cache.hits = r.get_u64()?;
    m.cache.misses = r.get_u64()?;
    m.cache.evictions = r.get_u64()?;
    m.cache.entries = r.get_u64()? as usize;
    m.queue_depth = r.get_u64()? as usize;
    let count = r.get_u32()? as usize;
    let mut clients = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let name = r.get_str()?.to_owned();
        let stats = ClientStats {
            accepted: r.get_u64()?,
            rejected: r.get_u64()?,
            patterns_streamed: r.get_u64()?,
            bytes_streamed: r.get_u64()?,
        };
        clients.push((name, stats));
    }
    m.clients = clients;
    Ok(m)
}

/// One checksum step: xor the word in, multiply by an odd constant, then an
/// xorshift. For a fixed word each of the three operations is a bijection of
/// the state, and for a fixed state the step is a bijection of the word. So
/// two inputs that differ in exactly one word reach different states after
/// that word, and stay different through every later step: any corruption
/// confined to one 8-byte word — every single-bit flip in particular — is
/// always detected.
#[inline(always)]
fn checksum_step(state: u64, word: u64) -> u64 {
    let x = (state ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^ (x >> 29)
}

/// The frame checksum, over the header's version/type/length fields *and*
/// the payload. It consumes the payload as little-endian `u64` words (one
/// multiply per 8 bytes), then folds in the zero-padded tail and the payload
/// length, and finishes with a bijective avalanche. Covering the semantic header fields means a
/// bit-flip anywhere in a frame (except the magic, caught by direct
/// comparison, and the checksum field itself, caught by mismatch) is always
/// detectable.
///
/// This is a frame-integrity code only. Persisted digests (snapshot
/// fingerprints, catalog names, cache keys) use the graph crate's
/// `StableHasher`, which this does not replace.
fn checksum(version: u16, frame_type: u16, declared: u32, payload: &[u8]) -> u64 {
    let header = u64::from(version) | (u64::from(frame_type) << 16) | (u64::from(declared) << 32);
    let mut state = checksum_step(0xcbf2_9ce4_8422_2325, header);
    let mut words = payload.chunks_exact(8);
    for word in &mut words {
        let word = word.try_into().expect("chunks_exact yields 8-byte chunks");
        state = checksum_step(state, u64::from_le_bytes(word));
    }
    let mut tail = [0u8; 8];
    tail[..words.remainder().len()].copy_from_slice(words.remainder());
    state = checksum_step(state, u64::from_le_bytes(tail));
    state = checksum_step(state, payload.len() as u64);
    // Final avalanche (murmur3's fmix64), so the last words' bits spread
    // over the whole stored value.
    state ^= state >> 33;
    state = state.wrapping_mul(0xff51_afd7_ed55_8ccd);
    state ^= state >> 33;
    state = state.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    state ^ (state >> 33)
}

/// Encodes one frame: header (magic, version, type, length, checksum) plus
/// payload, ready to write to a socket in a single call.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let payload = frame.payload();
    debug_assert!(payload.len() <= MAX_PAYLOAD, "oversized frame produced");
    let frame_type = frame.frame_type();
    let declared = payload.len() as u32;
    let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len());
    bytes.extend_from_slice(&MAGIC);
    bytes.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    bytes.extend_from_slice(&frame_type.to_le_bytes());
    bytes.extend_from_slice(&declared.to_le_bytes());
    bytes.extend_from_slice(
        &checksum(PROTOCOL_VERSION, frame_type, declared, &payload).to_le_bytes(),
    );
    bytes.extend_from_slice(&payload);
    bytes
}

/// Reads exactly `buf.len()` bytes. Distinguishes the peer closing at a
/// frame boundary (`Closed`, only when `at_boundary`) from mid-frame
/// truncation.
fn read_exact_or(
    reader: &mut impl Read,
    buf: &mut [u8],
    frame_bytes_owed: usize,
    at_boundary: bool,
) -> Result<(), TransportError> {
    let mut filled = 0;
    while filled < buf.len() {
        match reader.read(&mut buf[filled..]) {
            Ok(0) => {
                if at_boundary && filled == 0 {
                    return Err(TransportError::Closed);
                }
                return Err(TransportError::Truncated {
                    expected: frame_bytes_owed,
                    actual: frame_bytes_owed - (buf.len() - filled),
                });
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            // A read timeout (from `set_read_timeout`) gets its own variant:
            // the server's idle reaper treats it as "peer possibly half-open",
            // which is a different decision than an OS-level socket error.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                return Err(TransportError::TimedOut)
            }
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads and validates one frame from `reader`.
///
/// Validation order: magic, version, frame type, declared length (capped at
/// [`MAX_PAYLOAD`] *before* allocating), payload checksum, then the
/// per-frame payload decoding — each failure its own [`TransportError`]
/// variant. A clean close at a frame boundary is [`TransportError::Closed`];
/// an EOF anywhere inside a frame is [`TransportError::Truncated`].
pub fn read_frame(reader: &mut impl Read) -> Result<Frame, TransportError> {
    // Deterministic fault injection (no-op single atomic load when
    // disarmed). Error/Disconnect short-circuit before touching the stream
    // — both tear the connection down, exactly as the real failures would;
    // corruption kinds are applied to the payload after it is read, below.
    let injected = faultline::check(FaultSite::WireRead);
    match injected {
        Some(FaultKind::Error) => {
            return Err(TransportError::Io("injected transient read fault".into()))
        }
        Some(FaultKind::Disconnect) => return Err(TransportError::Closed),
        _ => {}
    }
    let mut header = [0u8; HEADER_LEN];
    read_exact_or(reader, &mut header, HEADER_LEN, true)?;
    let magic: [u8; 4] = header[0..4].try_into().unwrap();
    if magic != MAGIC {
        return Err(TransportError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if version != PROTOCOL_VERSION {
        return Err(TransportError::UnsupportedVersion(version));
    }
    let frame_type = u16::from_le_bytes(header[6..8].try_into().unwrap());
    if !matches!(frame_type, 1..=8 | 16..=25) {
        return Err(TransportError::UnknownFrameType(frame_type));
    }
    let declared = u32::from_le_bytes(header[8..12].try_into().unwrap()) as usize;
    if declared > MAX_PAYLOAD {
        return Err(TransportError::Oversized {
            declared,
            limit: MAX_PAYLOAD,
        });
    }
    let stored = u64::from_le_bytes(header[12..20].try_into().unwrap());
    let mut payload = vec![0u8; declared];
    read_exact_or(reader, &mut payload, HEADER_LEN + declared, false)?;
    if let Some(kind @ (FaultKind::BitFlip { .. } | FaultKind::Truncate { .. })) = injected {
        faultline::corrupt_buffer(&mut payload, kind);
        if matches!(kind, FaultKind::Truncate { .. }) {
            // A short payload is exactly what mid-frame EOF produces.
            return Err(TransportError::Truncated {
                expected: HEADER_LEN + declared,
                actual: HEADER_LEN + payload.len(),
            });
        }
        // A bit-flip falls through to the checksum, which must catch it.
    }
    let computed = checksum(version, frame_type, declared as u32, &payload);
    if stored != computed {
        return Err(TransportError::ChecksumMismatch { stored, computed });
    }
    Frame::decode(frame_type, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                client: "tester".into(),
            },
            Frame::HelloAck {
                max_inflight: 8,
                idle_timeout_ms: 30_000,
            },
            Frame::Heartbeat,
            Frame::Request {
                id: 7,
                graph: "web".into(),
                request: vec![1, 2, 3],
                trace: 0xABCD,
            },
            Frame::Cancel { id: 7 },
            Frame::StatsRequest { id: 9 },
            Frame::MetricsRequest { id: 10 },
            Frame::TraceRequest { id: 11 },
            Frame::Accepted { id: 7, job: 41 },
            Frame::Rejected {
                id: 7,
                rejection: WireRejection::QuotaExceeded {
                    in_flight: 4,
                    limit: 4,
                },
            },
            Frame::Pattern {
                id: 7,
                seq: 2,
                pattern: vec![9, 9, 9],
            },
            Frame::Done {
                id: 7,
                from_cache: true,
                meta: vec![5, 5],
                order: vec![PatternRef::Streamed(0), PatternRef::Streamed(1)],
                trace: 0xABCD,
            },
            Frame::Failed {
                id: 7,
                message: "boom".into(),
            },
            Frame::Stats {
                id: 9,
                metrics: ServiceMetrics {
                    submitted: 10,
                    completed: 9,
                    clients: vec![(
                        "tester".into(),
                        ClientStats {
                            accepted: 10,
                            rejected: 1,
                            patterns_streamed: 40,
                            bytes_streamed: 9000,
                        },
                    )],
                    ..ServiceMetrics::default()
                },
            },
            Frame::Goodbye {
                rejection: Some(WireRejection::TooManyConnections { limit: 2 }),
                message: "at capacity".into(),
            },
            Frame::Draining { deadline_ms: 1500 },
            Frame::Metrics {
                id: 10,
                text: "jobs_completed_total 9\n".into(),
            },
            Frame::Trace {
                id: 11,
                json: "{\"traceEvents\":[]}".into(),
            },
        ]
    }

    #[test]
    fn every_frame_round_trips() {
        for frame in sample_frames() {
            let bytes = encode_frame(&frame);
            let decoded = read_frame(&mut bytes.as_slice()).expect("round trip");
            // Frame doesn't implement PartialEq (ServiceMetrics doesn't);
            // compare re-encodings, which are deterministic.
            assert_eq!(encode_frame(&decoded), bytes, "{frame:?}");
        }
    }

    #[test]
    fn close_at_boundary_vs_truncation_mid_frame() {
        assert_eq!(
            read_frame(&mut [].as_slice()).unwrap_err(),
            TransportError::Closed
        );
        let bytes = encode_frame(&Frame::Cancel { id: 3 });
        for len in 1..bytes.len() {
            let err = read_frame(&mut &bytes[..len]).unwrap_err();
            assert!(
                matches!(err, TransportError::Truncated { .. }),
                "cut at {len} gave {err:?}"
            );
        }
    }

    #[test]
    fn header_corruption_yields_the_specific_error() {
        let good = encode_frame(&Frame::Cancel { id: 3 });

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::BadMagic(_)
        ));

        let mut bad = good.clone();
        bad[4] = 0xff;
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::UnsupportedVersion(_)
        ));

        let mut bad = good.clone();
        bad[6] = 0xee;
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::UnknownFrameType(_)
        ));

        // An absurd declared length is rejected before allocation.
        let mut bad = good.clone();
        bad[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::Oversized { .. }
        ));

        // A flipped payload bit fails the checksum.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0x40;
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::ChecksumMismatch { .. }
        ));

        // A flipped stored-checksum bit too.
        let mut bad = good;
        bad[12] ^= 0x01;
        assert!(matches!(
            read_frame(&mut bad.as_slice()).unwrap_err(),
            TransportError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn every_single_bitflip_is_detected_or_harmless() {
        // Sweep: flip each bit of an encoded frame; the reader must either
        // return a typed error or decode *some* frame — never panic. Flips
        // in the payload must always be caught by the checksum.
        let bytes = encode_frame(&Frame::Request {
            id: 1,
            graph: "g".into(),
            request: vec![7; 32],
            trace: 3,
        });
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            let result = read_frame(&mut flipped.as_slice());
            if bit / 8 >= HEADER_LEN {
                assert!(
                    matches!(
                        result,
                        Err(TransportError::ChecksumMismatch { .. })
                            | Err(TransportError::Truncated { .. })
                    ),
                    "payload flip at bit {bit} gave {result:?}"
                );
            } else {
                assert!(result.is_err(), "header flip at bit {bit} decoded");
            }
        }
    }

    /// A `Pattern` frame the size a served SpiderMine pattern has: a
    /// 12-vertex pattern with 260 embeddings, about 12.8 KB encoded.
    fn large_pattern_frame() -> Vec<u8> {
        use spidermine_engine::StreamedPattern;
        use spidermine_graph::{Label, LabeledGraph, VertexId};
        let labels: Vec<Label> = (0..12).map(|i| Label(i % 5)).collect();
        let edges: Vec<(u32, u32)> = (1..12).map(|v| (v / 2, v)).chain([(0, 11)]).collect();
        let pattern = StreamedPattern {
            pattern: LabeledGraph::from_parts(&labels, &edges),
            support: 260,
            embeddings: (0..260u32)
                .map(|row| (0..12).map(|i| VertexId(row * 12 + i)).collect())
                .collect(),
        };
        encode_frame(&Frame::Pattern {
            id: 4,
            seq: 0,
            pattern: spidermine_engine::wire::encode_pattern(&pattern),
        })
    }

    #[test]
    fn every_single_bitflip_in_a_pattern_frame_is_detected() {
        let bytes = large_pattern_frame();
        assert!(bytes.len() > 12_000, "{} bytes", bytes.len());
        let mut flipped = bytes.clone();
        for bit in 0..bytes.len() * 8 {
            flipped[bit / 8] ^= 1 << (bit % 8);
            let result = read_frame(&mut flipped.as_slice());
            flipped[bit / 8] ^= 1 << (bit % 8);
            if bit / 8 >= HEADER_LEN {
                assert!(
                    matches!(result, Err(TransportError::ChecksumMismatch { .. })),
                    "payload flip at bit {bit} gave {result:?}"
                );
            } else {
                assert!(result.is_err(), "header flip at bit {bit} decoded");
            }
        }
    }

    #[test]
    fn checksum_catches_every_single_word_difference() {
        // The step is a bijection in the word for a fixed state, so any
        // change confined to one 8-byte word — not only single bits — must
        // move the checksum. Sweep a few multi-bit patterns over every word
        // position of a payload with a ragged tail.
        let payload: Vec<u8> = (0..61u8).map(|b| b.wrapping_mul(37)).collect();
        let base = checksum(PROTOCOL_VERSION, 18, payload.len() as u32, &payload);
        for start in (0..payload.len()).step_by(8) {
            for mask in [0xffu8, 0x81, 0x5a] {
                let mut changed = payload.clone();
                for byte in changed.iter_mut().skip(start).take(8) {
                    *byte ^= mask;
                }
                let sum = checksum(PROTOCOL_VERSION, 18, changed.len() as u32, &changed);
                assert_ne!(sum, base, "word at {start}, mask {mask:#x}");
            }
        }
        // Trailing zero bytes are not free: the length is folded in.
        let mut padded = payload.clone();
        padded.push(0);
        assert_ne!(
            checksum(PROTOCOL_VERSION, 18, payload.len() as u32, &padded),
            base
        );
    }

    #[test]
    fn rejections_round_trip_with_their_fields() {
        let rejections = [
            WireRejection::QueueFull {
                depth: 64,
                limit: 64,
            },
            WireRejection::QuotaExceeded {
                in_flight: 8,
                limit: 8,
            },
            WireRejection::UnknownGraph("ghost".into()),
            WireRejection::InvalidRequest("k must be at least 1".into()),
            WireRejection::ShuttingDown,
            WireRejection::TooManyConnections { limit: 100 },
        ];
        for rejection in rejections {
            let frame = Frame::Rejected {
                id: 5,
                rejection: rejection.clone(),
            };
            match read_frame(&mut encode_frame(&frame).as_slice()).unwrap() {
                Frame::Rejected {
                    id: 5,
                    rejection: decoded,
                } => assert_eq!(decoded, rejection),
                other => panic!("decoded {other:?}"),
            }
        }
    }
}
