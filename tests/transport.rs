//! Workspace-level tests of the remote transport (ISSUE 7): the
//! malformed-frame sweep (a hostile connection never takes the server
//! down), typed edge admission (quotas, caps, unknown graphs as wire
//! rejections — not closed sockets), and the acceptance scenario: many
//! concurrent wire clients whose outcomes are byte-identical to fresh
//! in-process engine runs, with duplicates cache-served and a mid-job
//! disconnect observably cancelling its job.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::wire::encode_outcome_semantic;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
use spidermine_graph::{generate, LabeledGraph};
use spidermine_service::{MiningService, ServiceConfig};
use spidermine_transport::frame::{encode_frame, read_frame};
use spidermine_transport::{
    Frame, MiningClient, MiningServer, RetryPolicy, TransportConfig, TransportError, WireRejection,
};
use std::io::Write;
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A host big enough that a SpiderMine job on it has seconds of work left
/// while the admission test provokes quota and queue rejections, and while
/// the disconnect test's client vanishes (the jobs are cancelled, so the
/// size costs little wall-clock).
fn very_slow_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 1500, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

/// A small host for the fast determinism runs.
fn small_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 120, 2.0, 8);
    let pattern = generate::random_connected_pattern(&mut rng, 6, 8, 2);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn request() -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(11)
}

fn serve(service: &Arc<MiningService>, config: TransportConfig) -> (MiningServer, SocketAddr) {
    let server = MiningServer::bind("127.0.0.1:0", service.clone(), config).expect("bind server");
    let addr = server.local_addr();
    (server, addr)
}

/// Sends raw bytes on a fresh connection and returns the server's reaction:
/// `Ok(frame)` if it answered, `Err(true)` for a clean close, `Err(false)`
/// for anything pathological (timeout — the server must never just hang).
fn poke(addr: SocketAddr, bytes: &[u8]) -> Result<Frame, bool> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    // Best-effort write: the server may react to the first bad bytes and
    // close before the rest is even sent (a legitimate reaction).
    let _ = stream.write_all(bytes).and_then(|()| stream.flush());
    // Half-close so a server waiting for the rest of a frame sees EOF.
    let _ = stream.shutdown(Shutdown::Write);
    match read_frame(&mut stream) {
        Ok(frame) => Ok(frame),
        Err(TransportError::Closed) => Err(true),
        Err(TransportError::Io(_)) => Err(true), // reset by peer: also a close
        Err(_) => Err(false),
    }
}

#[test]
fn malformed_frames_get_typed_goodbyes_and_server_keeps_serving() {
    let service = Arc::new(MiningService::new(ServiceConfig::default()));
    service.catalog().register("net", small_graph(1));
    let (_server, addr) = serve(&service, TransportConfig::default());

    let hello = encode_frame(&Frame::Hello {
        client: "sweeper".into(),
    });

    // Bad magic: four bytes that are not `SPWF`.
    let mut bad_magic = hello.clone();
    bad_magic[0] ^= 0xff;
    // Unsupported version (checksum is checked after the version field, so
    // no need to re-hash).
    let mut bad_version = hello.clone();
    bad_version[4] = 0xee;
    bad_version[5] = 0xee;
    // Unknown frame type.
    let mut bad_type = hello.clone();
    bad_type[6] = 0x7f;
    // Oversized declared payload length (beyond the 64 MiB cap) — must be
    // refused before any allocation.
    let mut oversized = hello.clone();
    oversized[8..12].copy_from_slice(&u32::MAX.to_le_bytes());
    // Checksum bit-flip in the payload.
    let mut flipped = hello.clone();
    let last = flipped.len() - 1;
    flipped[last] ^= 0x01;
    // Truncation: half a frame, then close.
    let truncated = hello[..hello.len() - 3].to_vec();
    let mid_header = hello[..9].to_vec();

    for (name, bytes) in [
        ("bad magic", &bad_magic),
        ("bad version", &bad_version),
        ("bad frame type", &bad_type),
        ("oversized length", &oversized),
        ("checksum flip", &flipped),
        ("truncated payload", &truncated),
        ("truncated header", &mid_header),
        ("empty", &Vec::new()),
    ] {
        match poke(addr, bytes) {
            Ok(Frame::Goodbye { message, .. }) => {
                assert!(
                    message.contains("protocol error"),
                    "{name}: unexpected goodbye: {message}"
                );
            }
            Ok(frame) => panic!("{name}: unexpected answer {frame:?}"),
            Err(true) => {} // silent close: acceptable for unparseable bytes
            Err(false) => panic!("{name}: server neither answered nor closed"),
        }
    }

    // Frames that are valid but out of protocol: data before Hello, a
    // server-side frame, an invalid request payload after a handshake.
    let premature = encode_frame(&Frame::Cancel { id: 0 });
    assert!(
        matches!(poke(addr, &premature), Ok(Frame::Goodbye { .. })),
        "pre-handshake frames must be refused"
    );
    let server_side = encode_frame(&Frame::HelloAck {
        max_inflight: 1,
        idle_timeout_ms: 0,
    });
    let mut handshook = hello.clone();
    handshook.extend_from_slice(&server_side);
    assert!(
        matches!(poke(addr, &handshook), Ok(Frame::HelloAck { .. })),
        "handshake must still be answered first"
    );

    // Garbage *request payload* inside a checksummed frame: a per-request
    // rejection, not a connection error.
    let mut with_bad_request = hello.clone();
    with_bad_request.extend_from_slice(&encode_frame(&Frame::Request {
        id: 7,
        graph: "net".into(),
        request: vec![0xde, 0xad, 0xbe, 0xef],
        trace: 0,
    }));
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream.write_all(&with_bad_request).expect("send");
    stream.flush().expect("flush");
    match read_frame(&mut stream).expect("HelloAck") {
        Frame::HelloAck { .. } => {}
        other => panic!("expected HelloAck, got {other:?}"),
    }
    match read_frame(&mut stream).expect("Rejected") {
        Frame::Rejected { id, rejection } => {
            assert_eq!(id, 7);
            assert!(
                matches!(rejection, WireRejection::InvalidRequest(_)),
                "got {rejection:?}"
            );
        }
        other => panic!("expected Rejected, got {other:?}"),
    }

    // After the whole sweep the server still serves a healthy client, and
    // never panicked (a dead accept loop would refuse this connection).
    let client = MiningClient::connect(addr, "survivor").expect("connect after sweep");
    let job = client.submit("net", &request()).expect("submit");
    let result = job.outcome().expect("mine over the wire");
    assert!(!result.outcome.patterns.is_empty(), "patterns expected");
}

#[test]
fn admission_rejections_are_typed_not_closed_sockets() {
    let service = Arc::new(MiningService::new(ServiceConfig {
        dispatchers: 1,
        queue_depth: 1,
        ..ServiceConfig::default()
    }));
    service.catalog().register("slow", very_slow_graph(7));
    let (_server, addr) = serve(
        &service,
        TransportConfig {
            max_connections: 2,
            max_inflight_per_client: 2,
            ..TransportConfig::default()
        },
    );

    let client = MiningClient::connect(addr, "tenant").expect("connect");
    assert_eq!(client.max_inflight(), 2);

    // Unknown graph: typed, and the connection survives it.
    match client.submit("no-such-graph", &request()) {
        Err(TransportError::Rejected(WireRejection::UnknownGraph(name))) => {
            assert_eq!(name, "no-such-graph");
        }
        other => panic!("expected UnknownGraph, got {other:?}"),
    }

    // Fill the per-client quota with two slow jobs (distinct seeds so the
    // second doesn't park behind the first as a duplicate)...
    let job_a = client.submit("slow", &request()).expect("first in-flight");
    // With one dispatcher and a queue of depth 1, `job_b` only fits once the
    // dispatcher has taken `job_a` off the queue: wait for that.
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.metrics().queue_depth != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let job_b = client
        .submit("slow", &request().seed(12))
        .expect("second in-flight");
    // ...then the third is over quota — typed rejection, socket stays open.
    match client.submit("slow", &request().seed(13)) {
        Err(TransportError::Rejected(WireRejection::QuotaExceeded { in_flight, limit })) => {
            assert_eq!((in_flight, limit), (2, 2));
        }
        other => panic!("expected QuotaExceeded, got {other:?}"),
    }
    // Quota is keyed by client name, not socket: a second connection of the
    // same tenant shares the budget.
    let second_socket = MiningClient::connect(addr, "tenant").expect("connect");
    match second_socket.submit("slow", &request().seed(14)) {
        Err(TransportError::Rejected(WireRejection::QuotaExceeded { .. })) => {}
        other => panic!("expected QuotaExceeded across sockets, got {other:?}"),
    }
    drop(second_socket);

    // Queue depth: `tenant` holds one running and one queued job, so the
    // scheduler's queue (depth 1) is full — a *different* client's request
    // passes its quota but bounces off the queue limit. Backoff-connect
    // because the server reaps the just-dropped second socket asynchronously.
    let backoff = RetryPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(25),
        ..RetryPolicy::default()
    };
    let (other, _) = MiningClient::connect_with_policy(addr, "other", &backoff)
        .expect("connect once the dropped socket is reaped");
    match other.submit("slow", &request().seed(15)) {
        Err(TransportError::Rejected(WireRejection::QueueFull { depth, limit })) => {
            assert_eq!((depth, limit), (1, 1));
        }
        other => panic!("expected QueueFull, got {other:?}"),
    }

    // Connection cap: with `tenant` and `other` connected, the third
    // concurrent connection gets a typed Goodbye during its handshake.
    let extra = MiningClient::connect(addr, "overflow");
    match extra {
        Err(TransportError::Rejected(WireRejection::TooManyConnections { limit })) => {
            assert_eq!(limit, 2);
        }
        other => panic!(
            "expected TooManyConnections, got {:?}",
            other.map(|_| "a connection")
        ),
    }
    drop(other);

    // The in-flight jobs still settle: cancel and drain them.
    job_a.cancel().expect("cancel a");
    job_b.cancel().expect("cancel b");
    let a = job_a.outcome().expect("cancelled job still settles");
    let b = job_b.outcome().expect("cancelled job still settles");
    assert!(a.outcome.cancelled || !a.outcome.patterns.is_empty());
    assert!(b.outcome.cancelled || !b.outcome.patterns.is_empty());
}

#[test]
fn concurrent_clients_match_in_process_runs_and_disconnect_cancels() {
    const N: usize = 8;
    let service = Arc::new(MiningService::new(ServiceConfig {
        dispatchers: 2,
        ..ServiceConfig::default()
    }));
    service.catalog().register("gid-a", small_graph(1));
    service.catalog().register("gid-b", small_graph(2));
    service.catalog().register("gid-slow", very_slow_graph(7));
    let (_server, addr) = serve(&service, TransportConfig::default());

    // Ground truth: fresh in-process engine runs, canonically serialized.
    let fresh: Vec<Vec<u8>> = [small_graph(1), small_graph(2)]
        .iter()
        .map(|g| {
            let outcome = request()
                .build()
                .expect("valid request")
                .mine(&GraphSource::Single(g), &mut MineContext::new())
                .expect("fresh mine");
            encode_outcome_semantic(&outcome)
        })
        .collect();

    // One client disconnects mid-job: submit against the slow graph and
    // vanish as soon as the job is accepted, while it has seconds of work
    // left.
    let disco = std::thread::spawn(move || {
        let client = MiningClient::connect(addr, "disco").expect("connect");
        let _job = client.submit("gid-slow", &request()).expect("submit");
        // Dropping the job and client shuts the socket down mid-job; the
        // server must fire the job's cancel token.
    });

    // N wire clients, alternating graphs — every graph is requested N/2
    // times, so at most one run per graph misses the cache.
    let workers: Vec<_> = (0..N)
        .map(|i| {
            std::thread::spawn(move || {
                let client = MiningClient::connect(addr, &format!("client-{i}")).expect("connect");
                let graph = if i % 2 == 0 { "gid-a" } else { "gid-b" };
                let mut job = client.submit(graph, &request()).expect("submit");
                let mut streamed_supports: Vec<usize> = Vec::new();
                for pattern in job.by_ref() {
                    streamed_supports.push(pattern.support);
                }
                let result = job.outcome().expect("remote mine");
                (i % 2, streamed_supports, result)
            })
        })
        .collect();

    let mut cache_hits = [0usize; 2];
    for worker in workers {
        let (gi, streamed_supports, result) = worker.join().expect("worker thread");
        // Byte-identical to a fresh in-process run of the same request.
        assert_eq!(
            encode_outcome_semantic(&result.outcome),
            fresh[gi],
            "remote outcome differs from the in-process run (graph {gi})"
        );
        // The stream delivered every accepted pattern exactly once
        // (emission order may differ from outcome order).
        let mut outcome_supports: Vec<usize> =
            result.outcome.patterns.iter().map(|p| p.support).collect();
        let mut streamed_sorted = streamed_supports;
        streamed_sorted.sort_unstable();
        outcome_supports.sort_unstable();
        assert_eq!(streamed_sorted, outcome_supports);
        if result.from_cache {
            cache_hits[gi] += 1;
        }
    }
    for (gi, hits) in cache_hits.iter().enumerate() {
        assert!(
            *hits >= N / 2 - 1,
            "graph {gi}: only {hits} of {} requests were cache-served",
            N / 2
        );
    }

    // The disconnected client's job lands as cancelled — not failed.
    disco.join().expect("disco thread");
    let deadline = Instant::now() + Duration::from_secs(60);
    while service.metrics().cancelled == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(50));
    }
    let metrics = service.metrics();
    assert!(
        metrics.cancelled >= 1,
        "disconnect did not cancel the in-flight job: {metrics:?}"
    );
    assert_eq!(metrics.failed, 0, "disconnect must not count as a failure");

    // Per-client counters travel the wire in a Stats frame.
    let observer = MiningClient::connect(addr, "observer").expect("connect");
    let stats = observer.stats().expect("stats over the wire");
    let client_names: Vec<&str> = stats.clients.iter().map(|(n, _)| n.as_str()).collect();
    for i in 0..N {
        assert!(
            client_names.contains(&format!("client-{i}").as_str()),
            "client-{i} missing from per-client stats: {client_names:?}"
        );
    }
    let accepted: u64 = stats.clients.iter().map(|(_, s)| s.accepted).sum();
    let streamed: u64 = stats.clients.iter().map(|(_, s)| s.patterns_streamed).sum();
    let bytes: u64 = stats.clients.iter().map(|(_, s)| s.bytes_streamed).sum();
    assert!(accepted > N as u64, "accepted {accepted}");
    assert!(streamed > 0, "no patterns attributed to streaming clients");
    assert!(bytes > 0, "no bytes attributed to streaming clients");
}
