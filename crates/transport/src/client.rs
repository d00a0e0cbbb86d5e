//! The blocking client: connect, submit, iterate streamed patterns, cancel.
//!
//! [`MiningClient`] mirrors the in-process `MiningService` surface over a
//! socket: `submit` returns a [`RemoteJob`] that plays the role of a
//! `JobHandle` — iterate it for patterns as the server streams them, then
//! call [`RemoteJob::outcome`] for the reconstructed [`MineOutcome`], which
//! is byte-identical (under the engine's semantic encoding) to what an
//! in-process run of the same request produces.
//!
//! One background reader thread demultiplexes incoming frames to
//! per-request channels by request id, so one connection carries any number
//! of concurrent requests (submitted from any number of threads — the
//! client is `Clone` and all methods take `&self`). Losing the connection
//! broadcasts the error to every pending request rather than hanging them.

use crate::error::TransportError;
use crate::frame::{encode_frame, read_frame, Frame, PatternRef};
use spidermine_engine::wire::{decode_outcome_meta, decode_pattern};
use spidermine_engine::{MineOutcome, MineRequest, StreamedPattern};
use spidermine_faultline::{self as faultline, FaultKind, FaultSite, RetryPolicy};
use spidermine_graph::signature::StableHasher;
use spidermine_service::ServiceMetrics;
use spidermine_telemetry as telemetry;
use std::collections::{HashMap, VecDeque};
use std::io::Write;
use std::net::{Shutdown, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, Weak};
use std::time::Duration;

/// One demultiplexed server frame, routed to the request that owns it.
enum Event {
    Accepted {
        job: u64,
    },
    Rejected(TransportError),
    Pattern {
        seq: u64,
        bytes: Vec<u8>,
    },
    Done {
        from_cache: bool,
        meta: Vec<u8>,
        order: Vec<PatternRef>,
        trace: u64,
    },
    Failed(String),
    Stats(Box<ServiceMetrics>),
    /// Prometheus text answer to a `MetricsRequest`.
    Metrics(String),
    /// Chrome trace-event JSON answer to a `TraceRequest`.
    Trace(String),
    /// The connection died; carries the reason. Broadcast to all pending.
    Lost(TransportError),
}

struct ClientInner {
    /// Kept for `shutdown` on drop (unblocks the reader thread).
    stream: TcpStream,
    /// All frame writes go through this clone, serialized by the lock so
    /// concurrent submitters never interleave partial frames.
    writer: Mutex<TcpStream>,
    pending: Mutex<HashMap<u64, mpsc::Sender<Event>>>,
    next_id: AtomicU64,
    /// Set once the connection is lost; later submissions fail fast.
    dead: Mutex<Option<TransportError>>,
    /// Set when the server announces a graceful drain: in-flight results
    /// keep streaming, but new submissions will be rejected.
    draining: AtomicBool,
    max_inflight: u64,
    /// The server's idle timeout from the handshake (0 = none); the
    /// heartbeat thread beats at a third of it.
    idle_timeout_ms: u64,
}

impl ClientInner {
    fn send_frame(&self, frame: &Frame) -> Result<(), TransportError> {
        if let Some(error) = self.dead.lock().expect("dead lock").clone() {
            return Err(error);
        }
        // Deterministic fault injection: an injected disconnect severs the
        // real socket (so the reader thread observes the loss exactly as it
        // would a peer reset), an injected error reports a failed write.
        match faultline::check(FaultSite::WireWrite) {
            Some(FaultKind::Error) => {
                return Err(TransportError::Io("injected transient write fault".into()))
            }
            Some(FaultKind::Disconnect) => {
                let _ = self.stream.shutdown(Shutdown::Both);
                return Err(TransportError::Closed);
            }
            _ => {}
        }
        let bytes = encode_frame(frame);
        let mut writer = self.writer.lock().expect("writer lock");
        writer.write_all(&bytes)?;
        writer.flush()?;
        Ok(())
    }

    /// Registers a fresh request id with its event channel.
    fn register(&self) -> (u64, mpsc::Receiver<Event>) {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let (tx, rx) = mpsc::channel();
        self.pending.lock().expect("pending lock").insert(id, tx);
        (id, rx)
    }

    fn unregister(&self, id: u64) {
        self.pending.lock().expect("pending lock").remove(&id);
    }
}

impl Drop for ClientInner {
    fn drop(&mut self) {
        // Unblocks the reader thread; it observes Closed/Io and exits.
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}

/// Routes incoming frames to pending requests until the connection dies,
/// then broadcasts the loss so nobody blocks forever.
///
/// Holds only a [`Weak`] reference: when the last user handle drops,
/// `ClientInner::drop` shuts the socket down, this loop's blocking read
/// fails, the upgrade fails, and the thread exits — instead of the reader
/// keeping the connection alive forever.
fn reader_loop(mut stream: TcpStream, inner: &Weak<ClientInner>) {
    let loss = loop {
        let frame = match read_frame(&mut stream) {
            Ok(frame) => frame,
            Err(error) => break error,
        };
        let (id, event) = match frame {
            Frame::Heartbeat => continue,
            Frame::Draining { .. } => {
                // Not terminal: in-flight results keep streaming until the
                // server's deadline. Flag it so new submissions can avoid a
                // doomed round-trip (and resilient callers reconnect).
                let Some(inner) = inner.upgrade() else {
                    return;
                };
                inner.draining.store(true, Ordering::Release);
                continue;
            }
            Frame::Accepted { id, job } => (id, Event::Accepted { job }),
            Frame::Rejected { id, rejection } => {
                (id, Event::Rejected(TransportError::Rejected(rejection)))
            }
            Frame::Pattern { id, seq, pattern } => (
                id,
                Event::Pattern {
                    seq,
                    bytes: pattern,
                },
            ),
            Frame::Done {
                id,
                from_cache,
                meta,
                order,
                trace,
            } => (
                id,
                Event::Done {
                    from_cache,
                    meta,
                    order,
                    trace,
                },
            ),
            Frame::Failed { id, message } => (id, Event::Failed(message)),
            Frame::Stats { id, metrics } => (id, Event::Stats(Box::new(metrics))),
            Frame::Metrics { id, text } => (id, Event::Metrics(text)),
            Frame::Trace { id, json } => (id, Event::Trace(json)),
            Frame::Goodbye { rejection, message } => {
                break match rejection {
                    Some(rejection) => TransportError::Rejected(rejection),
                    None => TransportError::Protocol(format!("server said goodbye: {message}")),
                };
            }
            // Client-to-server frames arriving at the client are a protocol
            // violation severe enough to drop the connection.
            Frame::Hello { .. }
            | Frame::HelloAck { .. }
            | Frame::Request { .. }
            | Frame::Cancel { .. }
            | Frame::StatsRequest { .. }
            | Frame::MetricsRequest { .. }
            | Frame::TraceRequest { .. } => {
                break TransportError::Protocol("received a client-side frame".into());
            }
        };
        let Some(inner) = inner.upgrade() else {
            return;
        };
        let pending = inner.pending.lock().expect("pending lock");
        if let Some(tx) = pending.get(&id) {
            // A dropped RemoteJob leaves a dead receiver; ignore.
            let _ = tx.send(event);
        }
    };
    let Some(inner) = inner.upgrade() else {
        return;
    };
    *inner.dead.lock().expect("dead lock") = Some(loss.clone());
    let pending = inner.pending.lock().expect("pending lock");
    for tx in pending.values() {
        let _ = tx.send(Event::Lost(loss.clone()));
    }
}

/// A blocking, thread-safe (`Clone` + `&self`) client for one server
/// connection.
#[derive(Clone)]
pub struct MiningClient {
    inner: Arc<ClientInner>,
}

impl MiningClient {
    /// Connects, performs the `Hello`/`HelloAck` handshake as `client_name`
    /// (the identity the server keys quotas and per-client stats by), and
    /// starts the background reader.
    pub fn connect(addr: impl ToSocketAddrs, client_name: &str) -> Result<Self, TransportError> {
        let stream = TcpStream::connect(addr)?;
        // Small latency-sensitive frames: keep Nagle from batching them
        // against delayed ACKs.
        let _ = stream.set_nodelay(true);
        let mut handshake = stream.try_clone()?;
        handshake.write_all(&encode_frame(&Frame::Hello {
            client: client_name.to_owned(),
        }))?;
        handshake.flush()?;
        // Handshake happens synchronously, before the reader thread exists,
        // so a rejection (e.g. connection cap) surfaces from `connect`.
        let (max_inflight, idle_timeout_ms) = match read_frame(&mut handshake)? {
            Frame::HelloAck {
                max_inflight,
                idle_timeout_ms,
            } => (max_inflight, idle_timeout_ms),
            Frame::Goodbye {
                rejection: Some(rejection),
                ..
            } => return Err(TransportError::Rejected(rejection)),
            Frame::Goodbye { message, .. } => {
                return Err(TransportError::Protocol(format!(
                    "server refused handshake: {message}"
                )))
            }
            other => {
                return Err(TransportError::Protocol(format!(
                    "expected HelloAck, got {other:?}"
                )))
            }
        };
        let read_half = stream.try_clone()?;
        let inner = Arc::new(ClientInner {
            writer: Mutex::new(stream.try_clone()?),
            stream,
            pending: Mutex::new(HashMap::new()),
            next_id: AtomicU64::new(0),
            dead: Mutex::new(None),
            draining: AtomicBool::new(false),
            max_inflight,
            idle_timeout_ms,
        });
        let reader_inner = Arc::downgrade(&inner);
        std::thread::Builder::new()
            .name(format!("mine-client-{client_name}"))
            .spawn(move || reader_loop(read_half, &reader_inner))
            .expect("spawn client reader thread");
        if idle_timeout_ms > 0 {
            // Heartbeat at a third of the announced window: one lost beat
            // still leaves two chances before the server reaps us. The
            // thread holds only a Weak handle, so it dies with the client.
            let beat_inner = Arc::downgrade(&inner);
            let interval = Duration::from_millis((idle_timeout_ms / 3).max(1));
            std::thread::Builder::new()
                .name(format!("mine-heartbeat-{client_name}"))
                .spawn(move || loop {
                    std::thread::sleep(interval);
                    let Some(inner) = beat_inner.upgrade() else {
                        return;
                    };
                    if inner.send_frame(&Frame::Heartbeat).is_err() {
                        return;
                    }
                })
                .expect("spawn heartbeat thread");
        }
        Ok(Self { inner })
    }

    /// [`connect`](Self::connect) under an explicit [`RetryPolicy`]. On
    /// success also returns how many attempts it took (1 = first try), so
    /// callers can surface flakiness instead of silently absorbing it.
    /// Backoff delays are jittered (seeded by the client name, so a fleet
    /// of distinctly-named clients never reconnects in lockstep) and capped
    /// at the policy's `max_delay`.
    pub fn connect_with_policy(
        addr: impl ToSocketAddrs + Clone,
        client_name: &str,
        policy: &RetryPolicy,
    ) -> Result<(Self, u32), TransportError> {
        let mut hasher = StableHasher::new();
        hasher.write_bytes(client_name.as_bytes());
        let seed = hasher.finish();
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match Self::connect(addr.clone(), client_name) {
                Ok(client) => return Ok((client, attempts)),
                Err(error) => {
                    if !error.is_transient() || !policy.should_retry(attempts) {
                        return Err(error);
                    }
                }
            }
            std::thread::sleep(policy.delay_for(attempts, seed));
        }
    }

    /// The per-client in-flight quota the server announced at handshake.
    pub fn max_inflight(&self) -> u64 {
        self.inner.max_inflight
    }

    /// The server's idle timeout from the handshake (`None` = the server
    /// never reaps idle connections). When set, this client heartbeats
    /// automatically at a third of the window.
    pub fn idle_timeout(&self) -> Option<Duration> {
        (self.inner.idle_timeout_ms > 0).then(|| Duration::from_millis(self.inner.idle_timeout_ms))
    }

    /// True once the server has announced a graceful drain on this
    /// connection: in-flight jobs keep streaming to completion, but new
    /// submissions will be rejected — reconnect elsewhere or bail out.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Submits `request` against the server-side graph named `graph`.
    /// Blocks until the server accepts (returning the streaming
    /// [`RemoteJob`]) or rejects (returning
    /// [`TransportError::Rejected`] with the typed reason).
    pub fn submit(&self, graph: &str, request: &MineRequest) -> Result<RemoteJob, TransportError> {
        let (id, events) = self.inner.register();
        // Mint the telemetry trace id on the client and carry it in the
        // Request frame: the server adopts it for the job's spans, so both
        // ends of the wire log under one trace. The client-side `remote_job`
        // span brackets submit → settle.
        let trace = telemetry::next_trace_id();
        let span = telemetry::span_start("remote_job", trace, 0);
        let frame = Frame::Request {
            id,
            graph: graph.to_owned(),
            request: spidermine_engine::wire::encode_request(request),
            trace,
        };
        if let Err(error) = self.inner.send_frame(&frame) {
            telemetry::span_end("remote_job", trace, span);
            self.inner.unregister(id);
            return Err(error);
        }
        // The Accepted frame (sent by the connection's reader thread) and
        // the first streamed frames (sent by the dispatcher's observer —
        // immediately, for a cache hit) can interleave. Stash data frames
        // that outrun the acceptance; the job replays them first.
        let mut stash = VecDeque::new();
        loop {
            match events.recv() {
                Ok(Event::Accepted { job }) => {
                    telemetry::instant("remote_accepted", trace, job);
                    return Ok(RemoteJob {
                        client: self.inner.clone(),
                        id,
                        job,
                        trace,
                        span,
                        events,
                        stash,
                        streamed: Vec::new(),
                        delivered: 0,
                        done: None,
                        failed: None,
                    });
                }
                Ok(Event::Rejected(error)) | Ok(Event::Lost(error)) => {
                    telemetry::span_end("remote_job", trace, span);
                    self.inner.unregister(id);
                    return Err(error);
                }
                Ok(event @ (Event::Pattern { .. } | Event::Done { .. } | Event::Failed(_))) => {
                    stash.push_back(event);
                }
                Ok(Event::Stats(_) | Event::Metrics(_) | Event::Trace(_)) => {
                    telemetry::span_end("remote_job", trace, span);
                    self.inner.unregister(id);
                    return Err(TransportError::Protocol(
                        "expected Accepted or Rejected, got an answer frame".into(),
                    ));
                }
                Err(_) => {
                    telemetry::span_end("remote_job", trace, span);
                    self.inner.unregister(id);
                    return Err(TransportError::Closed);
                }
            }
        }
    }

    /// Fetches the server's [`ServiceMetrics`], including per-client
    /// accepted/rejected/streamed counters.
    pub fn stats(&self) -> Result<ServiceMetrics, TransportError> {
        let (id, events) = self.inner.register();
        let result = (|| {
            self.inner.send_frame(&Frame::StatsRequest { id })?;
            match events.recv() {
                Ok(Event::Stats(metrics)) => Ok(*metrics),
                Ok(Event::Lost(error)) => Err(error),
                Ok(_) => Err(TransportError::Protocol("expected a Stats response".into())),
                Err(_) => Err(TransportError::Closed),
            }
        })();
        self.inner.unregister(id);
        result
    }

    /// Fetches the server's telemetry registries as Prometheus text
    /// exposition: jobs, cache, per-client, latency histograms with
    /// p50/p95/p99 quantiles and graph I/O aggregates.
    pub fn metrics_text(&self) -> Result<String, TransportError> {
        let (id, events) = self.inner.register();
        let result = (|| {
            self.inner.send_frame(&Frame::MetricsRequest { id })?;
            match events.recv() {
                Ok(Event::Metrics(text)) => Ok(text),
                Ok(Event::Lost(error)) => Err(error),
                Ok(_) => Err(TransportError::Protocol(
                    "expected a Metrics response".into(),
                )),
                Err(_) => Err(TransportError::Closed),
            }
        })();
        self.inner.unregister(id);
        result
    }

    /// Fetches the server's captured span/instant events as Chrome
    /// trace-event JSON (load in `chrome://tracing` or Perfetto). Empty
    /// `{"traceEvents":[]}` unless the server runs with tracing armed
    /// (`--trace-out` / `spidermine_telemetry::arm`).
    pub fn trace_json(&self) -> Result<String, TransportError> {
        let (id, events) = self.inner.register();
        let result = (|| {
            self.inner.send_frame(&Frame::TraceRequest { id })?;
            match events.recv() {
                Ok(Event::Trace(json)) => Ok(json),
                Ok(Event::Lost(error)) => Err(error),
                Ok(_) => Err(TransportError::Protocol("expected a Trace response".into())),
                Err(_) => Err(TransportError::Closed),
            }
        })();
        self.inner.unregister(id);
        result
    }
}

/// The reconstructed result of a remote run: the outcome (byte-identical to
/// an in-process run under the engine's semantic encoding) plus
/// transport-level facts.
#[derive(Debug, Clone)]
pub struct RemoteOutcome {
    /// The mining outcome. `patterns` is rebuilt from the streamed frames
    /// (re-ordered per the server's order table); wall-clock stage timings
    /// are the server's.
    pub outcome: MineOutcome,
    /// Whether the server served this run from its result cache.
    pub from_cache: bool,
    /// The server-side job id.
    pub job: u64,
    /// The telemetry trace id the job ran under on both ends of the wire
    /// (client-minted, server-adopted, echoed on the `Done` frame).
    pub trace: u64,
}

/// An accepted remote request. Iterate it to receive accepted patterns as
/// the server streams them (mid-run, not buffered until completion), then
/// call [`outcome`](Self::outcome) to finish. Mirrors the in-process
/// `JobHandle`: [`cancel`](Self::cancel) is its `cancel()`, iteration plus
/// `outcome()` is its pattern stream plus `wait()`.
pub struct RemoteJob {
    client: Arc<ClientInner>,
    id: u64,
    job: u64,
    /// Client-minted telemetry trace id carried on the Request frame.
    trace: u64,
    /// The open `remote_job` span; 0 once closed (at settle or drop).
    span: u64,
    events: mpsc::Receiver<Event>,
    /// Data events that arrived before the Accepted frame (possible on
    /// cache hits, whose replay races the acceptance); drained first.
    stash: VecDeque<Event>,
    /// Raw encoded pattern payloads, indexed by stream sequence number.
    /// Retained so `outcome` can rebuild the outcome-order pattern list
    /// from `PatternRef::Streamed` references without re-transfer.
    streamed: Vec<Vec<u8>>,
    /// How many of `streamed` the iterator has handed out.
    delivered: usize,
    done: Option<(bool, Vec<u8>, Vec<PatternRef>, u64)>,
    failed: Option<TransportError>,
}

impl std::fmt::Debug for RemoteJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteJob")
            .field("id", &self.id)
            .field("job", &self.job)
            .field("streamed", &self.streamed.len())
            .field("delivered", &self.delivered)
            .field("settled", &(self.done.is_some() || self.failed.is_some()))
            .finish_non_exhaustive()
    }
}

impl RemoteJob {
    /// The server-side job id (stable across cache hits of the same
    /// request? No — each submission gets a fresh id; cache hits are
    /// visible via [`RemoteOutcome::from_cache`] instead).
    pub fn job_id(&self) -> u64 {
        self.job
    }

    /// The telemetry trace id this job runs under (client-minted, carried
    /// on the Request frame, adopted by the server's scheduler).
    pub fn trace(&self) -> u64 {
        self.trace
    }

    /// Closes the client-side `remote_job` span exactly once.
    fn close_span(&mut self) {
        if self.span != 0 {
            telemetry::span_end("remote_job", self.trace, self.span);
            self.span = 0;
        }
    }

    /// Asks the server to fire the job's cancel token. The job still
    /// settles (with its partial outcome) — keep iterating / call
    /// [`outcome`](Self::outcome) to observe the cancelled result.
    pub fn cancel(&self) -> Result<(), TransportError> {
        self.client.send_frame(&Frame::Cancel { id: self.id })
    }

    /// Receives events until the next pattern, Done, or failure.
    fn pump(&mut self) {
        while self.done.is_none() && self.failed.is_none() && self.delivered >= self.streamed.len()
        {
            let event = match self.stash.pop_front() {
                Some(event) => Ok(event),
                None => self.events.recv(),
            };
            match event {
                Ok(Event::Pattern { seq, bytes }) => {
                    if seq as usize != self.streamed.len() {
                        self.failed = Some(TransportError::Protocol(format!(
                            "pattern sequence jumped: expected {}, got {seq}",
                            self.streamed.len()
                        )));
                        return;
                    }
                    self.streamed.push(bytes);
                }
                Ok(Event::Done {
                    from_cache,
                    meta,
                    order,
                    trace,
                }) => {
                    self.done = Some((from_cache, meta, order, trace));
                    self.close_span();
                }
                Ok(Event::Failed(message)) => {
                    self.failed = Some(TransportError::Job(message));
                    self.close_span();
                }
                Ok(Event::Lost(error)) => {
                    self.failed = Some(error);
                    self.close_span();
                }
                Ok(
                    Event::Accepted { .. }
                    | Event::Rejected(_)
                    | Event::Stats(_)
                    | Event::Metrics(_)
                    | Event::Trace(_),
                ) => {
                    self.failed = Some(TransportError::Protocol(
                        "unexpected frame mid-stream".into(),
                    ));
                    self.close_span();
                }
                Err(_) => {
                    self.failed = Some(TransportError::Closed);
                    self.close_span();
                }
            }
        }
    }

    /// Drains the stream and reconstructs the final [`MineOutcome`]. The
    /// pattern list follows the server's outcome order (which for some
    /// algorithms differs from emission order); each pattern decodes from
    /// the exact bytes the server streamed, so the result is byte-identical
    /// to the server's under `encode_outcome_semantic`.
    pub fn outcome(mut self) -> Result<RemoteOutcome, TransportError> {
        loop {
            self.pump();
            if self.done.is_some() || self.failed.is_some() {
                break;
            }
            // Unconsumed streamed patterns: skip them, keep pumping.
            self.delivered = self.streamed.len();
        }
        if let Some(error) = self.failed.take() {
            return Err(error);
        }
        let (from_cache, meta, order, trace) = self.done.take().expect("loop exits settled");
        let mut outcome = decode_outcome_meta(&meta)?;
        let mut patterns = Vec::with_capacity(order.len());
        for PatternRef::Streamed(seq) in &order {
            let bytes = self.streamed.get(*seq as usize).ok_or_else(|| {
                TransportError::Protocol(format!(
                    "order table references unstreamed sequence {seq}"
                ))
            })?;
            patterns.push(decode_pattern(bytes)?);
        }
        outcome.patterns = patterns;
        // Prefer the server's echoed trace id; it equals ours unless the
        // server overrode a zero (never minted here) or predates the field.
        let trace = if trace != 0 { trace } else { self.trace };
        Ok(RemoteOutcome {
            outcome,
            from_cache,
            job: self.job,
            trace,
        })
    }
}

/// Streams accepted patterns in emission order as the server delivers
/// them. Ends at job completion (then use [`RemoteJob::outcome`]) or on a
/// transport error (surfaced by `outcome`).
impl Iterator for RemoteJob {
    type Item = StreamedPattern;

    fn next(&mut self) -> Option<StreamedPattern> {
        self.pump();
        let bytes = self.streamed.get(self.delivered)?;
        match decode_pattern(bytes) {
            Ok(pattern) => {
                self.delivered += 1;
                Some(pattern)
            }
            Err(error) => {
                self.failed = Some(error.into());
                None
            }
        }
    }
}

impl Drop for RemoteJob {
    fn drop(&mut self) {
        // An abandoned (never settled) job still balances its span.
        self.close_span();
        self.client.unregister(self.id);
    }
}
