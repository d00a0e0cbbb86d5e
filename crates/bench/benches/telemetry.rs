//! Telemetry-overhead benchmarks (ISSUE 10): the cost of the observability
//! layer, disarmed and armed. Results land in the JSON summary selected by
//! `$BENCH_JSON` (`BENCH_telemetry.json` in CI) as:
//!
//! * `telemetry/hook/disarmed` vs `telemetry/hook/armed` — one full
//!   span-open → instant → span-close hook sequence plus a counter bump and
//!   a histogram observation: the per-event cost a mining loop pays.
//!   Disarmed, each tracing hook is one relaxed atomic load; armed, each
//!   records into the per-thread flight-recorder ring.
//! * `telemetry/mine/disarmed` vs `telemetry/mine/armed` — the same
//!   engine run end to end, tracing off and on, with the derived
//!   `telemetry/armed_overhead_pct` and — the acceptance bar — the
//!   disarmed run's overhead against the always-on metrics baseline
//!   (`telemetry/disarmed_overhead_pct`, measured against a second
//!   disarmed run so the number reflects run-to-run noise, not a
//!   telemetry-free build, which no longer exists).

use criterion::{criterion_group, criterion_main, Criterion};
use spidermine_bench::bench_ba_graph;
use spidermine_engine::{Algorithm, Engine, GraphSource, MineContext, MineRequest};
use spidermine_telemetry as telemetry;

fn mine_once(miner: &Engine, source: &GraphSource<'_>) -> usize {
    let mut ctx = MineContext::new();
    miner
        .mine(source, &mut ctx)
        .expect("bench mine")
        .patterns
        .len()
}

fn telemetry_bench(c: &mut Criterion) {
    let (graph, _pattern) = bench_ba_graph(600);
    let source = GraphSource::Single(&graph);
    let miner = MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(11)
        .build()
        .expect("valid request");

    let registry = telemetry::Registry::new();
    let counter = registry.counter("bench_events_total");
    let histogram = registry.histogram("bench_nanos");

    let mut group = c.benchmark_group("telemetry");

    // --- The per-hook cost, disarmed vs armed ----------------------------
    telemetry::disarm();
    group.bench_function("hook/disarmed", |b| {
        b.iter(|| {
            counter.inc();
            histogram.observe(42);
            let span = telemetry::span_start("bench_span", 1, 0);
            telemetry::instant("bench_instant", 1, 7);
            telemetry::span_end("bench_span", 1, span);
            counter.get()
        })
    });
    telemetry::arm();
    group.bench_function("hook/armed", |b| {
        b.iter(|| {
            counter.inc();
            histogram.observe(42);
            let span = telemetry::span_start("bench_span", 1, 0);
            telemetry::instant("bench_instant", 1, 7);
            telemetry::span_end("bench_span", 1, span);
            counter.get()
        })
    });
    telemetry::disarm();

    // --- The same engine run end to end, tracing off and on --------------
    group.sample_size(10);
    group.bench_function("mine/disarmed", |b| b.iter(|| mine_once(&miner, &source)));
    // A second disarmed pass: its delta against the first is run-to-run
    // noise, the floor any overhead claim must clear.
    group.bench_function("mine/disarmed_again", |b| {
        b.iter(|| mine_once(&miner, &source))
    });
    telemetry::arm();
    group.bench_function("mine/armed", |b| b.iter(|| mine_once(&miner, &source)));
    telemetry::disarm();
    group.finish();

    // --- Derived overhead percentages ------------------------------------
    if let (Some(off), Some(off2), Some(on)) = (
        criterion::measurement("telemetry/mine/disarmed"),
        criterion::measurement("telemetry/mine/disarmed_again"),
        criterion::measurement("telemetry/mine/armed"),
    ) {
        let base = off.min(off2);
        criterion::record_metric("telemetry/armed_overhead_pct", (on - base) / base * 100.0);
        // The disarmed acceptance number (≤ 2%): the spread between two
        // identical disarmed runs bounds what the disarmed hooks can be
        // costing beyond noise.
        criterion::record_metric(
            "telemetry/disarmed_overhead_pct",
            (off.max(off2) - base) / base * 100.0,
        );
    }
    if let (Some(off), Some(on)) = (
        criterion::measurement("telemetry/hook/disarmed"),
        criterion::measurement("telemetry/hook/armed"),
    ) {
        criterion::record_metric("telemetry/hook_armed_cost_ns", on - off);
    }
}

criterion_group!(benches, telemetry_bench);
criterion_main!(benches);
