//! Remote-transport benchmarks (ISSUE 7): loopback request throughput at
//! several client counts, first-pattern latency over the wire vs in
//! process, and the per-pattern streaming overhead. Results land in the
//! JSON summary selected by `$BENCH_JSON` (`BENCH_transport.json` in CI) as:
//!
//! * `transport/requests/<c>` — `c` concurrent clients (1 / 8 / 64), each
//!   submitting one cache-served request and draining its stream; the
//!   derived `transport/requests_per_sec/clients_<c>` is the edge
//!   throughput (admission + framing + streaming, not mining — duplicates
//!   are cache hits by design).
//! * `transport/roundtrip/cached` vs `transport/inprocess/cached` — one
//!   cache-served submit→outcome over loopback against the same through
//!   the in-process `JobHandle`; the derived
//!   `transport/stream_overhead_per_pattern_ns` divides the difference by
//!   the per-run pattern count: the wire cost of streaming one accepted
//!   pattern (encode + frame + checksum + loopback + decode).
//! * `transport/first_pattern/remote_ns` vs
//!   `transport/first_pattern/in_process_ns` — submit→first-accepted-
//!   pattern latency on fresh (uncached) runs, measured directly over a
//!   handful of runs; the derived `transport/first_pattern/overhead_ns` is
//!   what the wire adds to time-to-first-result.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spidermine_bench::bench_ba_graph;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
use spidermine_service::{MiningService, ServiceConfig};
use spidermine_transport::{MiningClient, MiningServer, TransportConfig};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Host size: small enough that fresh mines keep the bench time sane.
const MINE_VERTICES: usize = 150;

/// Concurrent-client counts for the throughput section.
const CLIENTS: [usize; 3] = [1, 8, 64];

/// Fresh runs averaged for the first-pattern latency comparison.
const LATENCY_RUNS: u64 = 8;

fn mine_request(seed: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(3)
        .d_max(6)
        .seed(seed)
}

fn transport(c: &mut Criterion) {
    let service = Arc::new(MiningService::new(ServiceConfig {
        dispatchers: 2,
        queue_depth: 256,
        cache_capacity: 256,
        max_threads_per_job: None,
        ..ServiceConfig::default()
    }));
    service
        .catalog()
        .register("bench", bench_ba_graph(MINE_VERTICES).0);
    let server = MiningServer::bind(
        "127.0.0.1:0",
        service.clone(),
        TransportConfig {
            max_connections: 2 * CLIENTS[2],
            max_inflight_per_client: 8,
            ..TransportConfig::default()
        },
    )
    .expect("bind server");
    let addr = server.local_addr();

    // Warm the cache entry every duplicate request will hit.
    let warm = service
        .submit("bench", mine_request(0))
        .expect("submit")
        .wait()
        .expect("warm mine");
    let patterns_per_run = warm.patterns.len().max(1);

    let mut group = c.benchmark_group("transport");

    // --- Requests/sec at 1 / 8 / 64 concurrent clients --------------------
    // Connections persist across iterations (the protocol's intended use);
    // each iteration is one cache-served request per client, submitted
    // concurrently and drained to the outcome.
    for &count in &CLIENTS {
        let clients: Vec<MiningClient> = (0..count)
            .map(|i| MiningClient::connect(addr, &format!("bench-{i}")).expect("connect"))
            .collect();
        group.sample_size(if count == 1 { 20 } else { 10 });
        group.bench_with_input(BenchmarkId::new("requests", count), &count, |b, _| {
            b.iter(|| {
                let threads: Vec<_> = clients
                    .iter()
                    .map(|client| {
                        let client = client.clone();
                        std::thread::spawn(move || {
                            client
                                .submit("bench", &mine_request(0))
                                .expect("submit")
                                .outcome()
                                .expect("cached mine")
                                .outcome
                                .patterns
                                .len()
                        })
                    })
                    .collect();
                threads
                    .into_iter()
                    .map(|t| t.join().expect("client thread"))
                    .sum::<usize>()
            })
        });
    }

    // --- Cached round trip: wire vs in-process ----------------------------
    let client = MiningClient::connect(addr, "bench-rt").expect("connect");
    group.sample_size(20);
    group.bench_function("roundtrip/cached", |b| {
        b.iter(|| {
            client
                .submit("bench", &mine_request(0))
                .expect("submit")
                .outcome()
                .expect("cached mine")
                .outcome
                .patterns
                .len()
        })
    });
    group.bench_function("inprocess/cached", |b| {
        b.iter(|| {
            service
                .submit("bench", mine_request(0))
                .expect("submit")
                .wait()
                .expect("cached mine")
                .patterns
                .len()
        })
    });
    group.finish();

    // --- First-pattern latency on fresh runs, wire vs in-process ----------
    // Measured directly (not through the harness) because the interesting
    // instant is *inside* an iteration: submit → first accepted pattern.
    // Fresh seeds keep the cache out of the picture; the run is drained
    // after the stopwatch stops so the next run starts on an idle service.
    // The same seed sequence on both sides, so each pair compares identical
    // runs (mining time to the first pattern varies by seed). The remote
    // side never submitted these seeds, so its cache stays out of play; the
    // in-process side bypasses the service entirely.
    let mut remote_total = Duration::ZERO;
    for run in 0..LATENCY_RUNS {
        let seed = 1000 + run;
        let start = Instant::now();
        let mut job = client.submit("bench", &mine_request(seed)).expect("submit");
        let first = job.next();
        remote_total += start.elapsed();
        assert!(first.is_some(), "fresh run streamed no patterns");
        job.outcome().expect("fresh mine");
    }
    let host = bench_ba_graph(MINE_VERTICES).0;
    let mut in_process_total = Duration::ZERO;
    for run in 0..LATENCY_RUNS {
        let seed = 1000 + run;
        let first: Arc<Mutex<Option<Duration>>> = Arc::new(Mutex::new(None));
        let start = Instant::now();
        let mut ctx = MineContext::new().on_pattern({
            let first = first.clone();
            move |_| {
                let mut first = first.lock().expect("first-pattern lock");
                if first.is_none() {
                    *first = Some(start.elapsed());
                }
            }
        });
        mine_request(seed)
            .build()
            .expect("valid request")
            .mine(&GraphSource::Single(&host), &mut ctx)
            .expect("fresh mine");
        let first = first.lock().expect("first-pattern lock").take();
        in_process_total += first.expect("fresh run emitted no patterns");
    }
    let remote_ns = remote_total.as_nanos() as f64 / LATENCY_RUNS as f64;
    let in_process_ns = in_process_total.as_nanos() as f64 / LATENCY_RUNS as f64;
    criterion::record_metric("transport/first_pattern/remote_ns", remote_ns);
    criterion::record_metric("transport/first_pattern/in_process_ns", in_process_ns);
    criterion::record_metric(
        "transport/first_pattern/overhead_ns",
        remote_ns - in_process_ns,
    );

    // --- Derived metrics ---------------------------------------------------
    for &count in &CLIENTS {
        if let Some(ns) = criterion::measurement(&format!("transport/requests/{count}")) {
            criterion::record_metric(
                &format!("transport/requests_per_sec/clients_{count}"),
                count as f64 * 1e9 / ns,
            );
        }
    }
    if let (Some(wire), Some(local)) = (
        criterion::measurement("transport/roundtrip/cached"),
        criterion::measurement("transport/inprocess/cached"),
    ) {
        criterion::record_metric(
            "transport/stream_overhead_per_pattern_ns",
            (wire - local) / patterns_per_run as f64,
        );
    }
    let metrics = service.metrics();
    criterion::record_metric("transport/final_cache_hits", metrics.cache.hits as f64);
    criterion::record_metric("transport/final_completed", metrics.completed as f64);
    let streamed: u64 = metrics
        .clients
        .iter()
        .map(|(_, s)| s.patterns_streamed)
        .sum();
    criterion::record_metric("transport/final_patterns_streamed", streamed as f64);
}

criterion_group!(benches, transport);
criterion_main!(benches);
