//! Figures 14 and 15: graph-transaction setting, SpiderMine vs ORIGAMI.
//! Figure 14 injects only five 30-vertex patterns; Figure 15 additionally
//! injects 100 small patterns, which pulls ORIGAMI's output toward small
//! maximal patterns while SpiderMine keeps returning the large ones.

use spidermine::{SpiderMineConfig, TransactionMiner};
use spidermine_baselines::origami;
use spidermine_datasets::transactions::{TransactionConfig, TransactionDataset};
use spidermine_experiments::{header, print_histogram, scale_from_args, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn run_one(name: &str, config: TransactionConfig) {
    let dataset = TransactionDataset::build(config, EXPERIMENT_SEED);
    header(&format!(
        "{name}: {} transactions, {} vertices each, {} labels, {} large / {} small patterns injected",
        dataset.config.transactions,
        dataset.config.vertices_per_transaction,
        dataset.config.labels,
        dataset.config.large_patterns,
        dataset.config.small_patterns
    ));
    let spidermine = TransactionMiner::new(SpiderMineConfig {
        support_threshold: 4,
        k: 10,
        d_max: 8,
        rng_seed: EXPERIMENT_SEED,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.database, &mut MineContext::new());
    print_histogram("SpiderMine", &spidermine.size_histogram_vertices());

    let origami_result = origami::run_with(
        &dataset.database,
        &origami::OrigamiConfig {
            support_threshold: 4,
            samples: 30,
            time_budget: Duration::from_secs(120),
            ..origami::OrigamiConfig::default()
        },
        &mut MineContext::new(),
    );
    print_histogram("ORIGAMI", &origami_result.size_histogram_vertices());
    println!(
        "  summary      SpiderMine largest |V|={}, ORIGAMI largest |V|={}",
        spidermine
            .patterns
            .first()
            .map(|p| p.pattern.vertex_count())
            .unwrap_or(0),
        origami_result
            .patterns
            .first()
            .map(|p| p.pattern.vertex_count())
            .unwrap_or(0)
    );
}

fn main() {
    // Transaction mining verifies candidates with full subgraph-isomorphism
    // per transaction, so the default scale keeps transactions small.
    let scale = scale_from_args(0.3);
    println!("Figures 14-15: transaction setting, SpiderMine vs ORIGAMI (scale {scale})");
    run_one(
        "Figure 14 (fewer small patterns)",
        TransactionConfig::figure14(scale),
    );
    run_one(
        "Figure 15 (more small patterns)",
        TransactionConfig::figure15(scale),
    );
}
