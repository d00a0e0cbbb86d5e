//! Snapshot benchmarks: what a service restart actually costs. Results land
//! in the JSON summary selected by `$BENCH_JSON` (`BENCH_snapshot.json` in
//! CI) as:
//!
//! * `snapshot/v2_mmap_open/<n>` — the catalog's open path: the file is
//!   registered header-only (probe + deferred mapping), so opening is
//!   O(header) regardless of graph size.
//! * `snapshot/probe/<n>` — [`io::probe_snapshot`] alone.
//! * `snapshot/v2_mapped_load/<n>`, `snapshot/v2_buffered_load/<n>` — full
//!   materialization (checksums, structure, fingerprint — everything except
//!   the lazily decoded label index), for an honest account of total work,
//!   not just deferral.
//! * `snapshot/first_mine/v2_mmap` — open + first mine end to end: deferral
//!   must not smuggle the cost past the first job.
//! * `snapshot/rss_delta_kb/v2_restore/<k>` — resident-set growth
//!   (`/proc/self/statm`) after a manifest restore of 1 / 4 / 16 graphs: the
//!   restore is header-only, so its footprint stays flat no matter how many
//!   graphs the manifest lists.
//!
//! The `v2` in the keys names the snapshot format version these rows have
//! measured since they were introduced; it is kept so the rows stay
//! comparable across runs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spidermine_bench::bench_ba_graph;
use spidermine_datasets::synthetic;
use spidermine_engine::{Algorithm, MineRequest};
use spidermine_graph::io::{self, LoadMode};
use spidermine_graph::LabeledGraph;
use spidermine_service::{GraphCatalog, MiningService, ServiceConfig};
use std::path::{Path, PathBuf};

/// Host size for the open/probe latency sections (the acceptance bar's
/// 8000-vertex snapshot).
const OPEN_VERTICES: usize = 8000;

/// Seed of the scalability dataset used throughout.
const SEED: u64 = 42;

/// Host size for the first-mine section: small enough that the mine itself
/// keeps the bench time sane.
const MINE_VERTICES: usize = 150;

/// Catalog sizes for the RSS section.
const CATALOG_SIZES: [usize; 3] = [1, 4, 16];

/// Host size per graph in the RSS section.
const RSS_VERTICES: usize = 2000;

fn temp_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("spidermine-bench-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Saves `graph` as `<tag>.snap` in `dir`, returning the path.
fn save(dir: &Path, tag: &str, graph: &LabeledGraph) -> PathBuf {
    let path = dir.join(format!("{tag}.snap"));
    io::save_snapshot(&path, graph).expect("save");
    path
}

/// Resident set size in kilobytes, from `/proc/self/statm` (field 2 is
/// resident pages). Returns `None` off Linux — the RSS section is skipped.
fn resident_kb() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096 / 1024)
}

/// Returns freed heap pages to the OS so an RSS-before reading is not
/// polluted by a reusable free pool left over from bench setup. glibc-only;
/// elsewhere the RSS numbers are best-effort.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn trim_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn trim_heap() {}

fn mine_request() -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(3)
        .d_max(6)
        .seed(11)
}

fn snapshot(c: &mut Criterion) {
    let dir = temp_dir();
    let mut group = c.benchmark_group("snapshot");

    // --- Open latency: header-only registration ---------------------------
    let (big, _) = synthetic::scalability_graph(OPEN_VERTICES, SEED);
    big.csr();
    let big_path = save(&dir, "big", &big);
    let n = OPEN_VERTICES;
    group.sample_size(100);
    group.bench_with_input(BenchmarkId::new("v2_mmap_open", n), &big_path, |b, path| {
        // What the catalog does at registration/restore time: O(header).
        let catalog = GraphCatalog::new();
        b.iter(|| {
            catalog
                .register_snapshot_file("big", path, LoadMode::Mapped)
                .expect("register")
                .fingerprint()
        })
    });
    group.bench_with_input(BenchmarkId::new("probe", n), &big_path, |b, path| {
        b.iter(|| io::probe_snapshot(path).expect("probe").fingerprint)
    });

    // --- Full materialization ----------------------------------------------
    group.sample_size(10);
    for (name, mode) in [
        ("v2_mapped_load", LoadMode::Mapped),
        ("v2_buffered_load", LoadMode::Buffered),
    ] {
        group.bench_with_input(BenchmarkId::new(name, n), &big_path, |b, path| {
            b.iter(|| {
                let g = io::load_snapshot(path, mode).expect("load");
                g.csr();
                g.vertex_count()
            })
        });
    }

    // --- First-mine latency: open + mine, end to end ----------------------
    let (mine_graph, _) = bench_ba_graph(MINE_VERTICES);
    let mine_path = save(&dir, "mine", &mine_graph);
    group.sample_size(10);
    group.bench_function("first_mine/v2_mmap", |b| {
        b.iter(|| {
            let service = MiningService::new(ServiceConfig {
                dispatchers: 1,
                ..ServiceConfig::default()
            });
            service
                .catalog()
                .register_snapshot_file("g", &mine_path, LoadMode::Mapped)
                .expect("register");
            service
                .submit("g", mine_request())
                .expect("submit")
                .wait()
                .expect("mine")
                .patterns
                .len()
        })
    });
    group.finish();

    // --- RSS at 1 / 4 / 16 catalog graphs ---------------------------------
    // Not a timed bench: one shot per configuration, recorded as metrics.
    if resident_kb().is_some() {
        let mut snaps = Vec::new();
        for i in 0..*CATALOG_SIZES.iter().max().expect("non-empty") {
            let (g, _) = synthetic::scalability_graph(RSS_VERTICES, SEED + i as u64);
            g.csr();
            snaps.push(save(&dir, &format!("rss{i}"), &g));
        }
        for &k in &CATALOG_SIZES {
            // A manifest restore of k graphs, header-only.
            let restore_dir = dir.join(format!("catalog-{k}"));
            let persisted = GraphCatalog::new();
            for (i, path) in snaps.iter().take(k).enumerate() {
                persisted
                    .register_snapshot_file(format!("g{i}"), path, LoadMode::Mapped)
                    .expect("register");
            }
            // ensure_loaded materializes before persist; drop it afterwards
            // so only the restored catalog is charged.
            persisted.persist(&restore_dir).expect("persist");
            drop(persisted);
            let catalog = GraphCatalog::new();
            trim_heap();
            let before = resident_kb().expect("statm");
            let names = catalog.restore(&restore_dir).expect("restore");
            assert_eq!(names.len(), k);
            let after = resident_kb().expect("statm");
            criterion::record_metric(
                &format!("snapshot/rss_delta_kb/v2_restore/{k}"),
                after.saturating_sub(before) as f64,
            );
        }
    }

    std::fs::remove_dir_all(&dir).ok();
}

criterion_group!(benches, snapshot);
criterion_main!(benches);
