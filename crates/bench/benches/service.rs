//! Service-layer benchmarks (ISSUE 5): snapshot loading vs rebuilding,
//! result-cache hit vs miss latency, and scheduler throughput at several
//! queue depths. Results land in the JSON summary selected by `$BENCH_JSON`
//! (`BENCH_service.json` in CI) as:
//!
//! * `service/cold_load/<n>` vs `service/snapshot_load/<n>` — rebuilding the
//!   dataset (the `datasets` crate's scalability builder: generator + pattern
//!   injection, what a catalog registration actually runs) plus freezing its
//!   CSR index, against decoding the binary snapshot plus freezing the same
//!   index (the loader's validation + fingerprint check included); the
//!   derived `service/snapshot_speedup_<n>` ratio is the acceptance bar
//!   ("snapshot load measurably faster than rebuilding").
//! * `service/cache/hit` vs `service/cache/miss` — submit→wait latency of a
//!   cache-served job against one that must mine (fresh seed per
//!   iteration), with the derived `service/cache/speedup`.
//! * `service/jobs/<d>` — draining `d` concurrently submitted distinct
//!   jobs, with the derived `service/jobs_per_sec/depth_<d>`.
//! * `service/cores` — the runner's available parallelism, so the rows can
//!   be compared only with rows from a runner of the same shape.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spidermine_bench::bench_ba_graph;
use spidermine_datasets::synthetic;
use spidermine_engine::{Algorithm, MineRequest};
use spidermine_graph::io;
use spidermine_service::{MiningService, ServiceConfig};
use std::sync::atomic::{AtomicU64, Ordering};

/// Host sizes for the load comparison.
const LOAD_SIZES: [usize; 2] = [2000, 8000];

/// Seed of the scalability dataset the load comparison rebuilds/reloads.
const LOAD_SEED: u64 = 42;

/// Host size for the cache-latency and throughput sections: small enough
/// that a miss (a full mine) keeps the bench time sane.
const MINE_VERTICES: usize = 150;

/// Queue depths for the throughput section.
const DEPTHS: [usize; 3] = [1, 4, 16];

fn mine_request(seed: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(3)
        .d_max(6)
        .seed(seed)
}

fn service_fixture() -> MiningService {
    let service = MiningService::new(ServiceConfig {
        dispatchers: 2,
        queue_depth: 64,
        cache_capacity: 256,
        max_threads_per_job: None,
        ..ServiceConfig::default()
    });
    service
        .catalog()
        .register("bench", bench_ba_graph(MINE_VERTICES).0);
    service
}

fn service(c: &mut Criterion) {
    let mut group = c.benchmark_group("service");

    // --- Cold build vs snapshot load -------------------------------------
    group.sample_size(10);
    for &n in &LOAD_SIZES {
        let bytes = io::snapshot_bytes(&{
            let (g, _) = synthetic::scalability_graph(n, LOAD_SEED);
            g.csr();
            g
        });
        group.bench_with_input(BenchmarkId::new("cold_load", n), &n, |b, &n| {
            b.iter(|| {
                let (g, _) = synthetic::scalability_graph(n, LOAD_SEED);
                g.csr();
                g.vertex_count()
            })
        });
        group.bench_with_input(BenchmarkId::new("snapshot_load", n), &bytes, |b, bytes| {
            b.iter(|| {
                let g = io::graph_from_snapshot(bytes).expect("valid snapshot");
                g.csr();
                g.vertex_count()
            })
        });
    }

    // --- Cache hit vs miss latency ---------------------------------------
    let svc = service_fixture();
    // Warm the entry the hit benchmark will keep finding.
    svc.submit("bench", mine_request(0))
        .expect("submit")
        .wait()
        .expect("warm mine");
    group.sample_size(20);
    group.bench_function("cache/hit", |b| {
        b.iter(|| {
            svc.submit("bench", mine_request(0))
                .expect("submit")
                .wait()
                .expect("cached mine")
                .patterns
                .len()
        })
    });
    let fresh_seed = AtomicU64::new(1);
    group.sample_size(10);
    group.bench_function("cache/miss", |b| {
        b.iter(|| {
            let seed = fresh_seed.fetch_add(1, Ordering::Relaxed);
            svc.submit("bench", mine_request(seed))
                .expect("submit")
                .wait()
                .expect("fresh mine")
                .patterns
                .len()
        })
    });

    // --- Throughput at queue depths 1 / 4 / 16 ---------------------------
    // Distinct seeds per job and per iteration, so every job mines: this
    // measures scheduling + mining throughput, not cache replay.
    group.sample_size(5);
    for &depth in &DEPTHS {
        group.bench_with_input(BenchmarkId::new("jobs", depth), &depth, |b, &depth| {
            b.iter(|| {
                let handles: Vec<_> = (0..depth)
                    .map(|_| {
                        let seed = fresh_seed.fetch_add(1, Ordering::Relaxed);
                        svc.submit("bench", mine_request(seed)).expect("submit")
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.wait().expect("mine").patterns.len())
                    .sum::<usize>()
            })
        });
    }
    group.finish();

    // --- Derived ratios ---------------------------------------------------
    for &n in &LOAD_SIZES {
        if let (Some(cold), Some(snap)) = (
            criterion::measurement(&format!("service/cold_load/{n}")),
            criterion::measurement(&format!("service/snapshot_load/{n}")),
        ) {
            criterion::record_metric(&format!("service/snapshot_speedup_{n}"), cold / snap);
        }
    }
    if let (Some(hit), Some(miss)) = (
        criterion::measurement("service/cache/hit"),
        criterion::measurement("service/cache/miss"),
    ) {
        criterion::record_metric("service/cache/speedup", miss / hit);
    }
    for &depth in &DEPTHS {
        if let Some(ns) = criterion::measurement(&format!("service/jobs/{depth}")) {
            criterion::record_metric(
                &format!("service/jobs_per_sec/depth_{depth}"),
                depth as f64 * 1e9 / ns,
            );
        }
    }
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    criterion::record_metric("service/cores", cores as f64);
    let m = svc.metrics();
    criterion::record_metric("service/final_cache_hits", m.cache.hits as f64);
    criterion::record_metric("service/final_cache_misses", m.cache.misses as f64);
    criterion::record_metric("service/final_cache_evictions", m.cache.evictions as f64);
}

criterion_group!(benches, service);
criterion_main!(benches);
