//! The TCP server: accept loop, per-connection reader/writer threads, edge
//! admission, and incremental pattern streaming.
//!
//! Admission happens in layers, each with a typed answer, so overload sheds
//! work at the cheapest possible point:
//!
//! 1. **Connection cap** — an accept beyond
//!    [`TransportConfig::max_connections`] is answered with a `Goodbye`
//!    carrying [`WireRejection::TooManyConnections`] and closed.
//! 2. **Per-client quota** — a `Request` from a client already at
//!    [`TransportConfig::max_inflight_per_client`] in-flight jobs is
//!    answered with a `Rejected` frame ([`WireRejection::QuotaExceeded`]);
//!    the connection stays open. Quotas are keyed by the client *name* from
//!    the handshake, so a tenant opening many sockets shares one budget.
//! 3. **Scheduler admission** — everything the in-process scheduler rejects
//!    (unknown graph, full queue, invalid request, shutdown) maps onto the
//!    equivalent [`WireRejection`].
//!
//! Admitted jobs stream: a [`PatternObserver`](spidermine_service::PatternObserver)
//! installed at submission
//! encodes each accepted pattern and queues a `Pattern` frame the moment the
//! engine emits it — a client starts consuming results while the run is
//! still mining, and duplicate requests served by the single-flight cache
//! replay the cached patterns through the same path. A
//! [`CompletionCallback`](spidermine_service::CompletionCallback) installed
//! next to it queues the `Done` (or `Failed`) frame from the thread that
//! settles the job, behind the job's last `Pattern` frame, and releases the
//! request's quota slot — no thread waits on a job. A client disconnect
//! (clean or mid-frame) fires the cancel token of every job the connection
//! still has in flight, so abandoned work stops burning dispatcher time.

use crate::error::{TransportError, WireRejection};
use crate::frame::{encode_frame, read_frame, Frame, PatternRef};
use spidermine_engine::wire::{encode_outcome_meta, encode_pattern};
use spidermine_engine::MineRequest;
use spidermine_faultline::{self as faultline, FaultKind, FaultSite};
use spidermine_service::{JobHandle, MiningService, ServiceError, SubmitOptions};
use spidermine_telemetry as telemetry;
use std::collections::HashMap;
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted length of the client name in a `Hello`.
const MAX_CLIENT_NAME: usize = 256;

/// Tunables of the network edge.
#[derive(Clone, Debug)]
pub struct TransportConfig {
    /// Concurrent connections accepted; excess connections get a `Goodbye`
    /// with [`WireRejection::TooManyConnections`].
    pub max_connections: usize,
    /// In-flight requests one client name may hold across all its
    /// connections; excess requests get [`WireRejection::QuotaExceeded`].
    pub max_inflight_per_client: usize,
    /// Reap a connection that stays silent this long (`None` = never).
    /// Announced to clients in the `HelloAck` (as `idle_timeout_ms`) so
    /// they can heartbeat at a fraction of it; a half-open socket whose
    /// peer died without a FIN then releases its connection slot instead
    /// of holding it forever.
    pub idle_timeout: Option<Duration>,
}

impl Default for TransportConfig {
    fn default() -> Self {
        Self {
            max_connections: 256,
            max_inflight_per_client: 8,
            idle_timeout: None,
        }
    }
}

/// One live connection as the server tracks it: the stream clone (so
/// `shutdown` can unblock the blocked reader) and the writer-loop channel
/// (so a drain can inject a `Draining` frame serialized against the
/// connection's own response traffic).
struct ConnEntry {
    stream: TcpStream,
    frames: mpsc::Sender<Vec<u8>>,
}

struct ServerShared {
    service: Arc<MiningService>,
    config: TransportConfig,
    shutdown: AtomicBool,
    /// Set at the start of a graceful drain: connections stay open so
    /// in-flight results can finish streaming, but new `Request`s are
    /// answered with [`WireRejection::ShuttingDown`].
    draining: AtomicBool,
    /// Live connections, by id.
    connections: Mutex<HashMap<u64, ConnEntry>>,
    next_conn_id: AtomicU64,
    /// In-flight request count per client name (across connections).
    inflight: Mutex<HashMap<String, usize>>,
    /// Joinable per-connection threads. Finished ones are joined and dropped
    /// at each accept, so a long-lived server whose clients reconnect holds
    /// only its live connections' threads; shutdown joins the rest.
    threads: Mutex<Vec<JoinHandle<()>>>,
}

/// Holds one slot of a client's in-flight quota; released on drop (by the
/// completion callback once the job settles, or immediately if submission
/// is rejected).
struct QuotaSlot {
    shared: Arc<ServerShared>,
    client: String,
}

impl Drop for QuotaSlot {
    fn drop(&mut self) {
        let mut inflight = self.shared.inflight.lock().expect("inflight lock");
        if let Some(count) = inflight.get_mut(&self.client) {
            *count = count.saturating_sub(1);
            if *count == 0 {
                inflight.remove(&self.client);
            }
        }
    }
}

/// The listening server. Binding starts the accept loop;
/// [`shutdown`](MiningServer::shutdown) — or drop — closes every connection and joins
/// every thread. The [`MiningService`] is shared, not owned: the caller can
/// keep submitting in-process work beside the network edge.
pub struct MiningServer {
    local_addr: SocketAddr,
    shared: Arc<ServerShared>,
    accept: Option<JoinHandle<()>>,
}

impl MiningServer {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and starts
    /// accepting connections against `service`.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<MiningService>,
        config: TransportConfig,
    ) -> Result<Self, TransportError> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shared = Arc::new(ServerShared {
            service,
            config,
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            connections: Mutex::new(HashMap::new()),
            next_conn_id: AtomicU64::new(0),
            inflight: Mutex::new(HashMap::new()),
            threads: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept = std::thread::Builder::new()
            .name("mine-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .expect("spawn accept thread");
        Ok(Self {
            local_addr,
            shared,
            accept: Some(accept),
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Live connection count.
    pub fn connection_count(&self) -> usize {
        self.shared
            .connections
            .lock()
            .expect("connections lock")
            .len()
    }

    /// Gracefully drains, then shuts down. Idempotent; drop runs it with a
    /// zero deadline (the old immediate-shutdown behavior).
    ///
    /// The drain lifecycle:
    ///
    /// 1. Stop accepting new connections, and flag new `Request`s on live
    ///    connections for rejection with [`WireRejection::ShuttingDown`].
    /// 2. Broadcast a typed [`Frame::Draining`] (carrying the deadline) on
    ///    every live connection, serialized with that connection's response
    ///    stream, so clients learn *before* their next rejection.
    /// 3. Give in-flight requests until `deadline` to finish streaming.
    /// 4. Close every socket. Stragglers' readers unblock, and the existing
    ///    disconnect→cancel path fires their jobs' cancel tokens; the runs
    ///    wind down cooperatively (recorded cancelled, not failed) and any
    ///    parked duplicate waiters resolve.
    /// 5. Join every connection thread.
    ///
    /// Returns `true` if every in-flight request finished inside the
    /// deadline (nothing was cancelled).
    pub fn shutdown(&mut self, deadline: Duration) -> bool {
        if self.shared.shutdown.swap(true, Ordering::AcqRel) {
            return true;
        }
        self.shared.draining.store(true, Ordering::Release);
        // Wake the blocking accept with a throwaway connection; it checks
        // the flag after every accept.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // Announce the drain on every live connection's writer channel —
        // the frame lands between (never inside) response frames.
        let deadline_ms = u64::try_from(deadline.as_millis()).unwrap_or(u64::MAX);
        let draining = encode_frame(&Frame::Draining { deadline_ms });
        {
            let connections = self.shared.connections.lock().expect("connections lock");
            for entry in connections.values() {
                let _ = entry.frames.send(draining.clone());
            }
        }
        // Let in-flight work finish: the quota map empties as completion
        // callbacks release their slots.
        const POLL: Duration = Duration::from_millis(2);
        let start = Instant::now();
        let mut clean = true;
        loop {
            if self
                .shared
                .inflight
                .lock()
                .expect("inflight lock")
                .is_empty()
            {
                break;
            }
            if start.elapsed() >= deadline {
                clean = false;
                break;
            }
            std::thread::sleep(POLL.min(deadline.saturating_sub(start.elapsed())));
        }
        let streams: Vec<TcpStream> = {
            let connections = self.shared.connections.lock().expect("connections lock");
            connections
                .values()
                .filter_map(|entry| entry.stream.try_clone().ok())
                .collect()
        };
        for stream in streams {
            // Read half only: blocked readers unblock (and the straggler
            // path fires disconnect→cancel), while each connection's
            // teardown still drains its writer channel — queued `Done`
            // frames flush to the client instead of being cut mid-send.
            let _ = stream.shutdown(Shutdown::Read);
        }
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.shared.threads.lock().expect("threads lock"));
        for thread in threads {
            let _ = thread.join();
        }
        clean
    }
}

impl Drop for MiningServer {
    fn drop(&mut self) {
        self.shutdown(Duration::ZERO);
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<ServerShared>) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.shutdown.load(Ordering::Acquire) {
                return;
            }
            continue;
        };
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        let at_cap = {
            let connections = shared.connections.lock().expect("connections lock");
            connections.len() >= shared.config.max_connections
        };
        if at_cap {
            // Refuse with a typed Goodbye instead of a silent close.
            let goodbye = encode_frame(&Frame::Goodbye {
                rejection: Some(WireRejection::TooManyConnections {
                    limit: shared.config.max_connections as u64,
                }),
                message: "connection cap reached".into(),
            });
            let mut stream = stream;
            let _ = stream.write_all(&goodbye);
            let _ = stream.shutdown(Shutdown::Both);
            continue;
        }
        // Frames are small and latency-sensitive (an Accepted immediately
        // followed by streamed patterns); Nagle + delayed ACK would add
        // ~40ms stalls between them.
        let _ = stream.set_nodelay(true);
        // The idle reaper: a read that sits this long without a frame (or a
        // heartbeat) returns `TimedOut`, and the connection — presumed
        // half-open — is torn down, releasing its slot and quota.
        let _ = stream.set_read_timeout(shared.config.idle_timeout);
        let conn_id = shared.next_conn_id.fetch_add(1, Ordering::Relaxed);
        // The writer channel is created here (not in `serve_connection`) so
        // the registry entry carries the sender: a graceful drain can then
        // inject its `Draining` frame serialized with response traffic.
        let (frames_tx, frames_rx) = mpsc::channel::<Vec<u8>>();
        if let Ok(clone) = stream.try_clone() {
            shared.connections.lock().expect("connections lock").insert(
                conn_id,
                ConnEntry {
                    stream: clone,
                    frames: frames_tx.clone(),
                },
            );
        }
        let conn_shared = shared.clone();
        let thread = std::thread::Builder::new()
            .name(format!("mine-conn-{conn_id}"))
            .spawn(move || {
                serve_connection(&conn_shared, stream, frames_tx, frames_rx, conn_id);
                conn_shared
                    .connections
                    .lock()
                    .expect("connections lock")
                    .remove(&conn_id);
            })
            .expect("spawn connection thread");
        let mut threads = shared.threads.lock().expect("threads lock");
        let (finished, running): (Vec<_>, Vec<_>) = std::mem::take(&mut *threads)
            .into_iter()
            .partition(JoinHandle::is_finished);
        *threads = running;
        threads.push(thread);
        drop(threads);
        for thread in finished {
            let _ = thread.join();
        }
    }
}

/// Sends encoded frames from a channel to the socket, serializing all
/// producers (reader thread, dispatcher observers and completion callbacks)
/// onto one write stream. A write failure shuts the socket down so the reader
/// unblocks and tears the connection down.
fn writer_loop(mut stream: TcpStream, frames: &mpsc::Receiver<Vec<u8>>) {
    while let Ok(bytes) = frames.recv() {
        // Deterministic fault injection: a disruptive write fault behaves
        // exactly like the write failing — shut the socket so the reader
        // tears the connection down (and the client sees a severed stream).
        let injected = matches!(
            faultline::check(FaultSite::WireWrite),
            Some(FaultKind::Error | FaultKind::Disconnect)
        );
        if injected
            || stream
                .write_all(&bytes)
                .and_then(|()| stream.flush())
                .is_err()
        {
            let _ = stream.shutdown(Shutdown::Both);
            // Keep draining so queued senders' messages are dropped cheaply
            // until the channel closes with the connection.
            while frames.recv().is_ok() {}
            return;
        }
    }
}

/// State of one in-flight request: the job handle, kept so `Cancel` frames
/// and disconnect→cancel can fire its token. `None` from just before the
/// submission until the scheduler returns the handle. The entry is removed
/// by the job's completion callback.
struct LiveRequest {
    handle: Option<JobHandle>,
}

type LiveMap = Arc<Mutex<HashMap<u64, LiveRequest>>>;

fn map_service_error(error: &ServiceError) -> WireRejection {
    match error {
        ServiceError::UnknownGraph(name) => WireRejection::UnknownGraph(name.clone()),
        ServiceError::QueueFull { depth, limit } => WireRejection::QueueFull {
            depth: *depth as u64,
            limit: *limit as u64,
        },
        ServiceError::ShuttingDown => WireRejection::ShuttingDown,
        // InvalidRequest, and the submission-impossible job/snapshot errors.
        other => WireRejection::InvalidRequest(other.to_string()),
    }
}

fn serve_connection(
    shared: &Arc<ServerShared>,
    stream: TcpStream,
    frames_tx: mpsc::Sender<Vec<u8>>,
    frames_rx: mpsc::Receiver<Vec<u8>>,
    conn_id: u64,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let writer = std::thread::Builder::new()
        .name(format!("mine-conn-{conn_id}-writer"))
        .spawn(move || writer_loop(write_half, &frames_rx))
        .expect("spawn writer thread");

    let mut reader = stream;
    let live: LiveMap = Arc::new(Mutex::new(HashMap::new()));
    let mut client: Option<String> = None;

    let send = |frame: &Frame| {
        let _ = frames_tx.send(encode_frame(frame));
    };

    loop {
        let frame = match read_frame(&mut reader) {
            Ok(frame) => frame,
            Err(TransportError::Closed) => break,
            Err(TransportError::Io(_)) => break,
            Err(TransportError::TimedOut) => {
                // The idle reaper: no frame (not even a heartbeat) inside
                // the timeout window — presume the peer is half-open and
                // reclaim the slot. Alive-but-silent peers get a typed
                // explanation first.
                send(&Frame::Goodbye {
                    rejection: None,
                    message: "idle timeout: no frame within the announced window".into(),
                });
                break;
            }
            Err(error) => {
                // A malformed frame poisons only this connection: name the
                // problem, close, and keep serving everyone else.
                send(&Frame::Goodbye {
                    rejection: None,
                    message: format!("protocol error: {error}"),
                });
                break;
            }
        };
        match frame {
            Frame::Hello { client: name } if client.is_none() => {
                if name.is_empty() || name.len() > MAX_CLIENT_NAME {
                    send(&Frame::Goodbye {
                        rejection: None,
                        message: format!("client name must be 1..={MAX_CLIENT_NAME} bytes"),
                    });
                    break;
                }
                client = Some(name);
                send(&Frame::HelloAck {
                    max_inflight: shared.config.max_inflight_per_client as u64,
                    idle_timeout_ms: shared
                        .config
                        .idle_timeout
                        .map_or(0, |t| u64::try_from(t.as_millis()).unwrap_or(u64::MAX)),
                });
            }
            Frame::Hello { .. } => {
                send(&Frame::Goodbye {
                    rejection: None,
                    message: "duplicate Hello".into(),
                });
                break;
            }
            _ if client.is_none() => {
                send(&Frame::Goodbye {
                    rejection: None,
                    message: "first frame must be Hello".into(),
                });
                break;
            }
            Frame::Heartbeat => {
                // Keep-alive: the read itself already reset the idle timer;
                // nothing to answer.
            }
            Frame::Request { id, .. } if shared.draining.load(Ordering::Acquire) => {
                // Mid-drain: in-flight work keeps streaming, new work is
                // turned away with the same typed rejection the scheduler
                // would give after shutdown.
                send(&Frame::Rejected {
                    id,
                    rejection: WireRejection::ShuttingDown,
                });
            }
            Frame::Request {
                id,
                graph,
                request,
                trace,
            } => {
                let client = client.clone().expect("handshake done");
                handle_request(
                    shared, &frames_tx, &live, &client, id, &graph, &request, trace,
                );
            }
            Frame::Cancel { id } => {
                // Unknown ids are ignored: cancelling a request that just
                // settled is a benign race, not a protocol violation.
                if let Some(LiveRequest {
                    handle: Some(handle),
                }) = live.lock().expect("live lock").get(&id)
                {
                    handle.cancel();
                }
            }
            Frame::StatsRequest { id } => {
                send(&Frame::Stats {
                    id,
                    metrics: shared.service.metrics(),
                });
            }
            Frame::MetricsRequest { id } => {
                // Both registries: the service's own cells (jobs, cache,
                // per-client) and the process-global ones (graph I/O).
                let text = telemetry::prometheus_text(&[
                    shared.service.registry().snapshot(),
                    telemetry::global().snapshot(),
                ]);
                send(&Frame::Metrics { id, text });
            }
            Frame::TraceRequest { id } => {
                // Empty `[]` trace when the server runs disarmed — still
                // valid trace-event JSON, so clients need no special case.
                let json = telemetry::chrome_trace_json(&telemetry::capture_snapshot());
                send(&Frame::Trace { id, json });
            }
            // Server-to-client frames arriving at the server are a protocol
            // violation.
            Frame::HelloAck { .. }
            | Frame::Accepted { .. }
            | Frame::Rejected { .. }
            | Frame::Pattern { .. }
            | Frame::Done { .. }
            | Frame::Failed { .. }
            | Frame::Stats { .. }
            | Frame::Metrics { .. }
            | Frame::Trace { .. }
            | Frame::Draining { .. } => {
                send(&Frame::Goodbye {
                    rejection: None,
                    message: "received a server-side frame".into(),
                });
                break;
            }
            Frame::Goodbye { .. } => break,
        }
    }

    // Disconnect → cancel: fire the token of every job this connection
    // still has in flight. The jobs wind down cooperatively and record
    // `cancelled` (not `failed`); their completion callbacks then queue the
    // final frames and release the quota.
    for request in live.lock().expect("live lock").values() {
        if let Some(handle) = &request.handle {
            handle.cancel();
        }
    }
    // Deregister *before* joining the writer: the registry entry holds a
    // sender clone, and the writer only exits once every sender is gone —
    // leaving the entry in place until after the join would deadlock. The
    // other senders are the in-flight jobs' observers and callbacks, so the
    // join also waits for those jobs to settle and their frames to flush.
    shared
        .connections
        .lock()
        .expect("connections lock")
        .remove(&conn_id);
    drop(frames_tx);
    let _ = writer.join();
    let _ = reader.shutdown(Shutdown::Both);
}

/// Admits one `Request` frame: decode, quota, scheduler submission, and —
/// if accepted — the streaming observer and the completion callback that
/// sends the final frame.
#[allow(clippy::too_many_arguments)]
fn handle_request(
    shared: &Arc<ServerShared>,
    frames_tx: &mpsc::Sender<Vec<u8>>,
    live: &LiveMap,
    client: &str,
    id: u64,
    graph: &str,
    request_bytes: &[u8],
    trace: u64,
) {
    let send = |frame: &Frame| {
        let _ = frames_tx.send(encode_frame(frame));
    };
    let reject = |rejection: WireRejection| {
        send(&Frame::Rejected { id, rejection });
    };

    let request: MineRequest = match spidermine_engine::wire::decode_request(request_bytes) {
        Ok(request) => request,
        Err(error) => {
            // The frame itself was intact (checksum passed); the embedded
            // request bytes were not. That's a per-request rejection, not a
            // connection error.
            shared.service.clients().record_rejected(client);
            reject(WireRejection::InvalidRequest(error.to_string()));
            return;
        }
    };

    // Per-client quota, checked-and-claimed atomically.
    let quota = {
        let mut inflight = shared.inflight.lock().expect("inflight lock");
        let count = inflight.entry(client.to_owned()).or_insert(0);
        if *count >= shared.config.max_inflight_per_client {
            let rejection = WireRejection::QuotaExceeded {
                in_flight: *count as u64,
                limit: shared.config.max_inflight_per_client as u64,
            };
            drop(inflight);
            shared.service.clients().record_rejected(client);
            reject(rejection);
            return;
        }
        *count += 1;
        QuotaSlot {
            shared: shared.clone(),
            client: client.to_owned(),
        }
    };

    // The streaming observer: encode (once) and enqueue each pattern the
    // moment the engine (or a cache replay) delivers it.
    let observer = {
        let frames_tx = frames_tx.clone();
        let service = shared.service.clone();
        let client = client.to_owned();
        let next_seq = AtomicU64::new(0);
        move |pattern: &spidermine_engine::StreamedPattern| {
            let bytes = encode_pattern(pattern);
            service
                .clients()
                .record_streamed(&client, 1, bytes.len() as u64);
            let _ = frames_tx.send(encode_frame(&Frame::Pattern {
                id,
                seq: next_seq.fetch_add(1, Ordering::Relaxed),
                pattern: bytes,
            }));
        }
    };

    // The completion callback: runs once, on the thread that settles the
    // job, after the observer's last pattern — so `Done` lands behind every
    // `Pattern` frame of the job. It also retires the live entry and, by
    // dropping `quota`, the request's in-flight slot.
    let on_complete = {
        let frames_tx = frames_tx.clone();
        let live = live.clone();
        move |handle: &JobHandle| {
            let frame = match handle.wait() {
                Ok(outcome) => {
                    let from_cache = handle.metrics().is_some_and(|m| m.from_cache);
                    // A replay streams in outcome order; a mined run says
                    // where its stream put each pattern, if not there.
                    let order = if from_cache || outcome.stream_order.is_empty() {
                        (0..outcome.patterns.len() as u64)
                            .map(PatternRef::Streamed)
                            .collect()
                    } else {
                        outcome
                            .stream_order
                            .iter()
                            .map(|&seq| PatternRef::Streamed(seq as u64))
                            .collect()
                    };
                    Frame::Done {
                        id,
                        from_cache,
                        meta: encode_outcome_meta(&outcome),
                        order,
                        trace: handle.trace(),
                    }
                }
                Err(error) => Frame::Failed {
                    id,
                    message: error.to_string(),
                },
            };
            let _ = frames_tx.send(encode_frame(&frame));
            live.lock().expect("live lock").remove(&id);
            drop(quota);
        }
    };

    // Register before submitting: a cache hit can settle (and its callback
    // remove the entry) before `submit_with_options` even returns. Whoever
    // comes second sees the other's work: the handle is stored only if the
    // entry is still there, so a settled request never leaves a stale one.
    live.lock()
        .expect("live lock")
        .insert(id, LiveRequest { handle: None });
    let options = SubmitOptions {
        observer: Some(Arc::new(observer)),
        on_complete: Some(Box::new(on_complete)),
        client: Some(client.to_owned()),
        // Adopt the client-minted trace id so the server-side span tree of
        // this job lines up with the client's events; 0 means "untraced
        // client", and the scheduler mints its own id.
        trace: (trace != 0).then_some(trace),
        ..SubmitOptions::default()
    };
    match shared.service.submit_with_options(graph, request, options) {
        Ok(handle) => {
            if let Some(entry) = live.lock().expect("live lock").get_mut(&id) {
                entry.handle = Some(handle.clone());
            }
            send(&Frame::Accepted {
                id,
                job: handle.id(),
            });
        }
        Err(error) => {
            // The rejected job's callback was dropped unfired, releasing the
            // quota slot it held. The scheduler already recorded the
            // per-client rejection.
            live.lock().expect("live lock").remove(&id);
            reject(map_service_error(&error));
        }
    }
}
