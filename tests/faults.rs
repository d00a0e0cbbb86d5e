//! ISSUE 9 fault-plan sweep suite: the service must survive *every* seeded
//! fault plan — disk, execution, and wire — without a panic or a hang, and
//! every operation must either succeed (byte-identical to a fault-free run,
//! under the engine's semantic encoding), retry to success, or fail with a
//! typed error. 220 seeded plans total (80 disk + 60 exec + 80 wire), plus
//! directed proof scenarios: reconnect-and-resume served byte-identically
//! from the result cache, graceful drain resolving every waiter, and the
//! heartbeat/idle-timeout reaper.
//!
//! The injector is process-global, so every test here starts by taking
//! `SERIAL`: one test's plan must never fire inside another test's I/O.
//! (Other test binaries are separate processes and cannot be affected.)

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::wire::encode_outcome_semantic;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
use spidermine_faultline::{FaultInjector, FaultPlan, FaultSite, RetryPolicy};
use spidermine_graph::io::LoadMode;
use spidermine_graph::{generate, io, LabeledGraph};
use spidermine_service::{GraphCatalog, MiningService, ServiceConfig, SubmitOptions};
use spidermine_transport::{MiningClient, MiningServer, ResilientClient, TransportConfig};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Serializes all tests in this binary around the process-global injector.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A panicking test (its own bug) must not wedge the rest of the suite.
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What a watched scenario is doing: the step it last began and when. A
/// watchdog trip reports it, which tells a hang (one step stuck for most of
/// the budget) from a slow scenario (steps kept finishing until time ran
/// out).
#[derive(Clone)]
struct Progress {
    started: Instant,
    last: Arc<Mutex<Option<(String, Instant)>>>,
}

impl Progress {
    /// Records that the scenario began `step`.
    fn step(&self, step: String) {
        *self.last.lock().unwrap_or_else(PoisonError::into_inner) = Some((step, Instant::now()));
    }

    fn report(&self) -> String {
        match &*self.last.lock().unwrap_or_else(PoisonError::into_inner) {
            Some((step, at)) => format!(
                "last step: {step}, begun {:.1?} into the scenario and running for {:.1?}",
                at.duration_since(self.started),
                at.elapsed()
            ),
            None => "no step recorded".to_owned(),
        }
    }
}

/// Runs `body` under a watchdog: a scenario that outlives `timeout` is a
/// hang, and hangs are failures — the suite must never sit silent in CI.
/// `body` may record its steps in the [`Progress`] it is given; the timeout
/// panic names the last one.
fn with_watchdog<T: Send + 'static>(
    name: &str,
    timeout: Duration,
    body: impl FnOnce(&Progress) -> T + Send + 'static,
) -> T {
    let progress = Progress {
        started: Instant::now(),
        last: Arc::default(),
    };
    let (tx, rx) = mpsc::channel();
    let worker_progress = progress.clone();
    let worker = std::thread::Builder::new()
        .name(format!("watchdog-{name}"))
        .spawn(move || {
            let _ = tx.send(body(&worker_progress));
        })
        .expect("spawn watchdog worker");
    match rx.recv_timeout(timeout) {
        Ok(value) => {
            let _ = worker.join();
            value
        }
        Err(mpsc::RecvTimeoutError::Disconnected) => match worker.join() {
            Err(panic) => std::panic::resume_unwind(panic),
            Ok(_) => unreachable!("worker exited without sending"),
        },
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!(
                "scenario `{name}` hung past {timeout:?}; {}",
                progress.report()
            )
        }
    }
}

/// A watchdog trip names the step the scenario was stuck in.
#[test]
#[should_panic(expected = "last step: the stuck step, begun")]
fn watchdog_trip_reports_the_last_step() {
    with_watchdog("stuck", Duration::from_millis(50), |progress| {
        progress.step("the stuck step".to_owned());
        std::thread::sleep(Duration::from_secs(1));
    });
}

/// A small host that mines in milliseconds.
fn small_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 120, 2.0, 8);
    let pattern = generate::random_connected_pattern(&mut rng, 6, 8, 2);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

/// A host big enough that a drain deadline lands mid-run.
fn slow_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 1200, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn request(seed: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(seed)
}

/// Fault-free ground truth: a fresh engine run, semantically encoded.
fn reference_bytes(host: &LabeledGraph, seed: u64) -> Vec<u8> {
    let outcome = request(seed)
        .build()
        .expect("valid request")
        .mine(&GraphSource::Single(host), &mut MineContext::new())
        .expect("fault-free mine");
    encode_outcome_semantic(&outcome)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spidermine-faults-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

// ---------------------------------------------------------------------------
// Sweep 1: disk faults (probe / read / write), 80 seeded plans.
// ---------------------------------------------------------------------------

#[test]
fn disk_fault_sweep_typed_errors_and_clean_recovery() {
    let _serial = serial();
    with_watchdog("disk-sweep", Duration::from_secs(120), |progress| {
        let dir = temp_dir("disk");
        let host = small_graph(3);
        let vertices = host.vertex_count();
        let snap = dir.join("host.snap");
        io::save_snapshot(&snap, &host).expect("fault-free save");

        const SITES: [FaultSite; 3] = [
            FaultSite::DiskProbe,
            FaultSite::DiskRead,
            FaultSite::DiskWrite,
        ];
        for seed in 0..80u64 {
            let plan = FaultPlan::random_for(seed, &SITES);
            progress.step(format!("plan {seed} of 80 `{plan}`"));
            let injector = FaultInjector::install(&plan);

            // A faulted save must be atomic: either the file lands whole or
            // the target is untouched — never a torn snapshot. (Verified
            // after disarm, below, so the verification probe itself is not
            // under injection.)
            let out = dir.join(format!("out-{seed}.snap"));
            let catalog = GraphCatalog::new();
            catalog.register("host", host.clone());
            let saved = catalog.save("host", &out);

            // A faulted lazy load yields a typed error or the real graph —
            // and nothing it does can poison a later, fault-free load.
            match catalog.register_snapshot_file("lazy", &snap, LoadMode::Buffered) {
                Ok(snapshot) => match snapshot.ensure_loaded() {
                    Ok(graph) => assert_eq!(graph.vertex_count(), vertices, "plan `{plan}`"),
                    Err(error) => {
                        // Typed, and carries a classification the retry
                        // machinery can act on.
                        let _ = error.is_transient();
                    }
                },
                Err(_probe_error) => {}
            }
            drop(injector);

            // Atomicity, checked disarmed: a clean save probes whole; a
            // faulted save left either nothing or a whole file behind.
            match saved {
                Ok(()) => {
                    io::probe_snapshot(&out).expect("saved snapshot must probe clean");
                }
                Err(error) => {
                    assert!(
                        !out.exists() || io::probe_snapshot(&out).is_ok(),
                        "plan `{plan}` left a torn snapshot: {error}"
                    );
                }
            }

            // Disarmed: the same file loads cleanly — no sticky residue from
            // transient faults (satellite 2's contract).
            let clean = GraphCatalog::new();
            let snapshot = clean
                .register_snapshot_file("lazy", &snap, LoadMode::Buffered)
                .expect("disarmed probe");
            assert_eq!(
                snapshot
                    .ensure_loaded()
                    .expect("disarmed load")
                    .vertex_count(),
                vertices,
                "seed {seed}: load after disarm must succeed"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    });
}

// ---------------------------------------------------------------------------
// Sweep 2: execution faults (injected panics / stalls), 60 seeded plans.
// ---------------------------------------------------------------------------

#[test]
fn exec_fault_sweep_retries_to_identical_or_fails_typed() {
    let _serial = serial();
    with_watchdog("exec-sweep", Duration::from_secs(240), |progress| {
        let host = small_graph(4);
        let service = MiningService::new(ServiceConfig {
            dispatchers: 2,
            retry: RetryPolicy::fast(3),
            ..ServiceConfig::default()
        });
        service.catalog().register("net", host.clone());

        for seed in 0..60u64 {
            let plan = FaultPlan::random_for(seed, &[FaultSite::ExecRun]);
            progress.step(format!("plan {seed} of 60 `{plan}`"));
            let injector = FaultInjector::install(&plan);
            // A fresh request seed per plan: cache hits never re-execute, so
            // only fresh runs exercise the execution site.
            let run_seed = 10_000 + seed;
            let result = service
                .submit_with_options("net", request(run_seed), SubmitOptions::default())
                .expect("admission is not under fault here")
                .wait();
            drop(injector);
            match result {
                Ok(outcome) => {
                    // Retried-to-success must be byte-identical to an
                    // uninterrupted run: a retry re-executes from scratch,
                    // never resumes half-done state.
                    assert_eq!(
                        encode_outcome_semantic(&outcome),
                        reference_bytes(&host, run_seed),
                        "plan `{plan}` produced a divergent outcome"
                    );
                }
                Err(error) => {
                    // Retries exhausted: typed, and classified transient
                    // (a panicked run is tail tolerance, not a verdict).
                    assert!(
                        error.is_transient(),
                        "plan `{plan}` gave a non-transient error: {error}"
                    );
                }
            }
        }
        // The sweep's injected panics are visible in the retry counters.
        assert!(
            service.metrics().retries > 0,
            "60 exec plans fired no retries"
        );
        service.shutdown();
    });
}

// ---------------------------------------------------------------------------
// Sweep 3: wire faults (read/write errors, bit-flips, truncations,
// disconnects), 80 seeded plans against a live server.
// ---------------------------------------------------------------------------

#[test]
fn wire_fault_sweep_resilient_client_recovers_or_fails_typed() {
    let _serial = serial();
    with_watchdog("wire-sweep", Duration::from_secs(240), |progress| {
        let host = small_graph(5);
        let reference = reference_bytes(&host, 11);
        let service = Arc::new(MiningService::new(ServiceConfig::default()));
        service.catalog().register("net", host);
        let server = MiningServer::bind("127.0.0.1:0", service, TransportConfig::default())
            .expect("bind server");
        let addr = server.local_addr().to_string();

        // Prime the cache so every sweep iteration is a fast replay.
        let prime = MiningClient::connect(&addr, "primer").expect("connect");
        let primed = prime
            .submit("net", &request(11))
            .expect("submit")
            .outcome()
            .expect("prime mine");
        assert_eq!(encode_outcome_semantic(&primed.outcome), reference);
        drop(prime);

        const SITES: [FaultSite; 2] = [FaultSite::WireRead, FaultSite::WireWrite];
        let mut recovered = 0u32;
        for seed in 0..80u64 {
            let plan = FaultPlan::random_for(seed, &SITES);
            progress.step(format!("plan {seed} of 80 `{plan}`"));
            let injector = FaultInjector::install(&plan);
            let client = match ResilientClient::connect(
                &addr,
                &format!("chaos-{seed}"),
                RetryPolicy::fast(4),
            ) {
                Ok(client) => client,
                // Even the handshake can be under fault; a typed failure
                // after bounded retries is an accepted outcome. (It is not
                // always transient: a bit-flip that corrupts the server's
                // view of the Hello surfaces as a protocol-level Goodbye.)
                Err(error) => {
                    let _ = error.to_string();
                    continue;
                }
            };
            match client.mine("net", &request(11)) {
                Ok(result) => {
                    assert_eq!(
                        encode_outcome_semantic(&result.outcome),
                        reference,
                        "plan `{plan}` delivered divergent bytes"
                    );
                    if client.reconnects() > 0 || client.retries() > 0 {
                        recovered += 1;
                    }
                }
                Err(error) => {
                    // Bounded retries exhausted — the error must be the
                    // transient kind that justified retrying, or a typed
                    // rejection. Never a panic, never a hang.
                    let _ = error.to_string();
                }
            }
            drop(injector);
        }
        // The sweep must actually exercise the recovery path, not just the
        // fault-free fast path.
        assert!(
            recovered > 0,
            "80 wire plans never exercised reconnect-resume"
        );
    });
}

// ---------------------------------------------------------------------------
// Directed proofs.
// ---------------------------------------------------------------------------

/// Reconnect-and-resume, end to end: a mid-replay disconnect severs the
/// stream; the resilient client reconnects, resubmits under the same
/// canonical cache key, and receives byte-identical results from the cache.
#[test]
fn reconnect_resume_is_cache_served_and_byte_identical() {
    let _serial = serial();
    with_watchdog("reconnect-resume", Duration::from_secs(60), |_| {
        let host = small_graph(6);
        let reference = reference_bytes(&host, 11);
        let service = Arc::new(MiningService::new(ServiceConfig::default()));
        service.catalog().register("net", host);
        let server = MiningServer::bind("127.0.0.1:0", service, TransportConfig::default())
            .expect("bind server");
        let addr = server.local_addr().to_string();

        // Prime the cache fault-free.
        let prime = MiningClient::connect(&addr, "primer").expect("connect");
        let primed = prime
            .submit("net", &request(11))
            .expect("submit")
            .outcome()
            .expect("prime mine");
        assert!(
            primed.outcome.patterns.len() >= 2,
            "scenario needs a few streamed patterns to sever mid-replay"
        );
        drop(prime);

        // With a single client and no heartbeats, wire writes are causally
        // ordered: HelloAck(0) < Request(1) < Accepted(2) < Pattern(3) …
        // nth=4 lands mid-replay, after the client has already consumed the
        // first streamed pattern.
        let plan = FaultPlan::parse("wire-write:4:disconnect").expect("valid spec");
        let injector = FaultInjector::install(&plan);
        let client =
            ResilientClient::connect(&addr, "resumer", RetryPolicy::fast(4)).expect("connect");
        let result = client.mine("net", &request(11)).expect("resumed mine");
        assert_eq!(injector.fired_count(), 1, "the disconnect must have fired");
        drop(injector);

        assert_eq!(
            encode_outcome_semantic(&result.outcome),
            reference,
            "resumed outcome must be byte-identical to the fault-free run"
        );
        assert!(result.from_cache, "the resubmission must be cache-served");
        assert!(
            client.reconnects() >= 1,
            "a severed stream must force a reconnect"
        );
    });
}

/// Graceful drain over the wire: in-flight jobs (and their parked
/// duplicates) all resolve — finished or cancelled-partial, never hung —
/// the client hears a typed `Draining` first, and the listener closes.
#[test]
fn server_drain_resolves_every_waiter_and_stops_accepting() {
    let _serial = serial();
    // No injector needed, but hold an empty plan so concurrent sweep tests
    // (which do install plans) cannot fire into this scenario's sockets.
    let _quiesce = FaultInjector::install(&FaultPlan::new());
    with_watchdog("server-drain", Duration::from_secs(60), |_| {
        let service = Arc::new(MiningService::new(ServiceConfig {
            dispatchers: 1,
            ..ServiceConfig::default()
        }));
        service.catalog().register("big", slow_graph(7));
        let mut server =
            MiningServer::bind("127.0.0.1:0", service.clone(), TransportConfig::default())
                .expect("bind server");
        let addr = server.local_addr();

        let client = MiningClient::connect(addr, "drainee").expect("connect");
        // Two identical slow requests: the second parks on the first via
        // single-flight; both waiters must resolve through the drain.
        let job_a = client.submit("big", &request(21)).expect("submit a");
        let job_b = client.submit("big", &request(21)).expect("submit b");
        let waiter_a = std::thread::spawn(move || job_a.outcome());
        let waiter_b = std::thread::spawn(move || job_b.outcome());

        // Let the lead job actually start mining before draining.
        std::thread::sleep(Duration::from_millis(150));
        let drain_client = client.clone();
        let clean = server.shutdown(Duration::from_millis(250));
        assert!(!clean, "a multi-second job cannot finish a 250ms deadline");

        // The drain announcement reached the client before the close.
        assert!(
            drain_client.is_draining(),
            "client never saw the Draining frame"
        );

        // Both waiters resolve: cancelled partial outcomes, not errors, and
        // certainly not hangs (the watchdog enforces that).
        let out_a = waiter_a.join().expect("waiter a");
        let out_b = waiter_b.join().expect("waiter b");
        for out in [out_a, out_b] {
            let out = out.expect("drained job settles with a partial outcome");
            assert!(
                out.outcome.cancelled,
                "a job cut by the drain deadline reports cancelled"
            );
        }

        // The listener is gone: new connections are refused outright.
        assert!(
            TcpStream::connect(addr).is_err() || MiningClient::connect(addr, "late").is_err(),
            "a drained server must not accept new clients"
        );

        // The in-process drain on the shared service is now a no-op (queue
        // empty), and reports clean.
        assert!(service.drain(Duration::from_millis(100)));
    });
}

/// In-process drain: running and queued jobs all settle inside the
/// deadline's cancellation, and every handle resolves.
#[test]
fn service_drain_cancels_stragglers_and_settles_queued_jobs() {
    let _serial = serial();
    let _quiesce = FaultInjector::install(&FaultPlan::new());
    with_watchdog("service-drain", Duration::from_secs(60), |_| {
        let service = MiningService::new(ServiceConfig {
            dispatchers: 1,
            ..ServiceConfig::default()
        });
        service.catalog().register("big", slow_graph(8));
        // One running job, one queued behind it (single dispatcher).
        let running = service.submit("big", request(31)).expect("submit running");
        let queued = service.submit("big", request(32)).expect("submit queued");
        std::thread::sleep(Duration::from_millis(100));

        let start = Instant::now();
        let clean = service.drain(Duration::from_millis(300));
        assert!(!clean, "slow jobs cannot drain clean in 300ms");
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "drain must return promptly after cancelling stragglers"
        );

        // Every handle settles; the cut-off job is cancelled-partial.
        let running = running.wait().expect("running job settles");
        assert!(running.cancelled);
        let queued = queued.wait().expect("queued job settles");
        assert!(queued.cancelled);

        // Post-drain, admission is closed — typed, not hung.
        assert!(service.submit("big", request(33)).is_err());
    });
}

/// The idle reaper: a half-open connection (no frames, no heartbeats) is
/// reaped after the announced window and releases its slot, while a
/// heartbeating client survives arbitrarily long idle spells.
#[test]
fn idle_connections_are_reaped_but_heartbeats_keep_clients_alive() {
    let _serial = serial();
    let _quiesce = FaultInjector::install(&FaultPlan::new());
    with_watchdog("idle-reap", Duration::from_secs(60), |_| {
        let service = Arc::new(MiningService::new(ServiceConfig::default()));
        service.catalog().register("net", small_graph(9));
        let server = MiningServer::bind(
            "127.0.0.1:0",
            service,
            TransportConfig {
                idle_timeout: Some(Duration::from_millis(200)),
                ..TransportConfig::default()
            },
        )
        .expect("bind server");
        let addr = server.local_addr();

        // A real client: handshakes, learns the window, heartbeats at a
        // third of it — and stays usable far past several windows.
        let client = MiningClient::connect(addr, "beater").expect("connect");
        assert_eq!(client.idle_timeout(), Some(Duration::from_millis(200)));

        // A half-open socket: TCP-connected, then silent forever.
        let half_open = TcpStream::connect(addr).expect("raw connect");
        let deadline = Instant::now() + Duration::from_secs(10);
        while server.connection_count() > 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(20));
        }
        assert_eq!(
            server.connection_count(),
            1,
            "the silent connection was never reaped"
        );
        drop(half_open);

        // Several idle windows later, the heartbeating client still works.
        std::thread::sleep(Duration::from_millis(700));
        let outcome = client
            .submit("net", &request(11))
            .expect("idle client must still be accepted")
            .outcome()
            .expect("mine after idling");
        assert!(!outcome.outcome.patterns.is_empty());
    });
}

/// `connect_with_policy` surfaces attempt counts and backs off with jitter
/// until the server appears (satellite 1).
#[test]
fn connect_with_policy_retries_until_server_appears() {
    let _serial = serial();
    let _quiesce = FaultInjector::install(&FaultPlan::new());
    with_watchdog("connect-backoff", Duration::from_secs(60), |_| {
        // Reserve an address, then release it so the first attempts refuse.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
            listener.local_addr().expect("probe addr")
        };
        let service = Arc::new(MiningService::new(ServiceConfig::default()));
        let ready = Arc::new(AtomicBool::new(false));
        let server_thread = {
            let service = service.clone();
            let ready = ready.clone();
            std::thread::spawn(move || {
                // Let a couple of connect attempts fail first.
                std::thread::sleep(Duration::from_millis(120));
                let server =
                    MiningServer::bind(addr, service, TransportConfig::default()).expect("bind");
                ready.store(true, Ordering::Release);
                // Hold the server until the test finishes with it.
                std::thread::sleep(Duration::from_secs(5));
                drop(server);
            })
        };

        let policy = RetryPolicy {
            max_attempts: 50,
            base_delay: Duration::from_millis(20),
            max_delay: Duration::from_millis(100),
            jitter: true,
        };
        let (client, attempts) =
            MiningClient::connect_with_policy(addr, "patient", &policy).expect("eventual connect");
        assert!(
            attempts > 1,
            "the pre-bind refusals must be visible in the attempt count"
        );
        assert!(client.max_inflight() > 0);
        drop(client);
        server_thread.join().expect("server thread");
    });
}
