//! Graph-transaction scenario: mine the top-K largest patterns shared across a
//! database of graphs (the setting of the paper's Figures 14–15), and compare
//! with the ORIGAMI representative-pattern baseline.
//!
//! ```text
//! cargo run -p spidermine-examples --example transaction_topk --release
//! ```

use spidermine::{SpiderMineConfig, TransactionMiner};
use spidermine_baselines::origami;
use spidermine_datasets::transactions::{TransactionConfig, TransactionDataset};
use spidermine_engine::MineContext;

fn main() {
    let dataset = TransactionDataset::build(TransactionConfig::figure15(0.2), 5);
    println!(
        "transaction database: {} graphs, {} total vertices, {} total edges",
        dataset.database.len(),
        dataset.database.total_vertices(),
        dataset.database.total_edges()
    );
    println!(
        "injected: {} large patterns ({} vertices each) and {} small distractors",
        dataset.large_patterns.len(),
        dataset.config.large_pattern_vertices,
        dataset.small_patterns.len()
    );

    let result = TransactionMiner::new(SpiderMineConfig {
        support_threshold: 4,
        k: 5,
        d_max: 8,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.database, &mut MineContext::new());
    println!(
        "SpiderMine (transaction setting): top-{} patterns",
        result.patterns.len()
    );
    for (rank, p) in result.patterns.iter().enumerate() {
        println!(
            "  #{rank:<3} |V|={:<4} |E|={:<4} transactions={}",
            p.pattern.vertex_count(),
            p.pattern.edge_count(),
            p.transaction_support
        );
    }

    let origami_result = origami::run_with(
        &dataset.database,
        &origami::OrigamiConfig {
            support_threshold: 4,
            samples: 25,
            ..origami::OrigamiConfig::default()
        },
        &mut MineContext::new(),
    );
    println!(
        "ORIGAMI for comparison: {} representatives, largest has {} vertices (drifts small when many small patterns exist)",
        origami_result.patterns.len(),
        origami_result
            .patterns
            .first()
            .map(|p| p.pattern.vertex_count())
            .unwrap_or(0)
    );
}
