//! Reduced-scale versions of the paper's figure workloads, so `cargo bench`
//! exercises the same end-to-end paths as the experiment binaries:
//! GID-style mining (Figures 4–8/16), the scalability point (Figures 10–12),
//! the scale-free point (Figures 13/17) and the transaction setting
//! (Figures 14–15).

use criterion::{criterion_group, criterion_main, Criterion};
use spidermine::{SpiderMineConfig, SpiderMiner, TransactionMiner};
use spidermine_baselines::{origami, subdue};
use spidermine_datasets::synthetic::{
    scalability_graph, scalefree_graph, GidConfig, SyntheticDataset,
};
use spidermine_datasets::transactions::{TransactionConfig, TransactionDataset};
use spidermine_engine::MineContext;

fn figure_workloads(c: &mut Criterion) {
    let mut group = c.benchmark_group("figures");
    group.sample_size(10);

    // Figures 4-8 / 16: GID 1 head-to-head (SpiderMine and SUBDUE halves).
    let gid1 = SyntheticDataset::build(GidConfig::table1(1), 7);
    group.bench_function("fig04_gid1_spidermine", |b| {
        b.iter(|| {
            SpiderMiner::new(SpiderMineConfig {
                support_threshold: 2,
                k: 10,
                d_max: 4,
                ..SpiderMineConfig::default()
            })
            .mine_with(&gid1.graph, &mut MineContext::new())
            .patterns
            .len()
        })
    });
    group.bench_function("fig04_gid1_subdue", |b| {
        b.iter(|| {
            subdue::run_with(
                &gid1.graph,
                &subdue::SubdueConfig::default(),
                &mut MineContext::new(),
            )
            .patterns
            .len()
        })
    });

    // Figures 10-12: one scalability point.
    let (scal_graph, _) = scalability_graph(2_000, 7);
    group.bench_function("fig11_scalability_2000", |b| {
        b.iter(|| {
            SpiderMiner::new(SpiderMineConfig {
                support_threshold: 2,
                k: 10,
                d_max: 10,
                ..SpiderMineConfig::default()
            })
            .mine_with(&scal_graph, &mut MineContext::new())
            .largest_vertices()
        })
    });

    // Figures 13/17: one scale-free point.
    let (sf_graph, _) = scalefree_graph(1_500, 7);
    group.bench_function("fig17_scalefree_1500", |b| {
        b.iter(|| {
            SpiderMiner::new(SpiderMineConfig {
                support_threshold: 2,
                k: 10,
                d_max: 10,
                max_spider_leaves: 6,
                ..SpiderMineConfig::default()
            })
            .mine_with(&sf_graph, &mut MineContext::new())
            .largest_edges()
        })
    });

    // Figures 14-15: transaction setting (small scale).
    let tx = TransactionDataset::build(TransactionConfig::figure14(0.12), 7);
    group.bench_function("fig14_transaction_spidermine", |b| {
        b.iter(|| {
            TransactionMiner::new(SpiderMineConfig {
                support_threshold: 3,
                k: 5,
                d_max: 6,
                ..SpiderMineConfig::default()
            })
            .mine_with(&tx.database, &mut MineContext::new())
            .patterns
            .len()
        })
    });
    group.bench_function("fig14_transaction_origami", |b| {
        b.iter(|| {
            origami::run_with(
                &tx.database,
                &origami::OrigamiConfig {
                    support_threshold: 3,
                    samples: 5,
                    ..origami::OrigamiConfig::default()
                },
                &mut MineContext::new(),
            )
            .patterns
            .len()
        })
    });
    group.finish();
}

criterion_group!(benches, figure_workloads);
criterion_main!(benches);
