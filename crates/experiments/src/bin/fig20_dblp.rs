//! Figure 20: DBLP co-authorship network — pattern-size distribution of
//! SpiderMine vs SUBDUE (minimum support 4, K = 20 in the paper). Runs on the
//! synthetic DBLP twin described in DESIGN.md; pass `--full` for the
//! paper-sized graph (≈6.5k authors).

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::subdue;
use spidermine_datasets::dblp::{self, DblpConfig};
use spidermine_experiments::{header, print_histogram, scale_from_args, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    let scale = scale_from_args(0.1);
    let dataset = dblp::generate(&DblpConfig::scaled(scale), EXPERIMENT_SEED);
    header(&format!(
        "Figure 20: DBLP-like co-authorship graph (|V|={}, |E|={}, 4 seniority labels, scale {scale})",
        dataset.graph.vertex_count(),
        dataset.graph.edge_count()
    ));
    let spidermine = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 4,
        k: 20,
        d_max: 8,
        // Four labels make embedding lists enormous; cap the per-spider leaf
        // count to keep Stage I tractable.
        max_spider_leaves: 5,
        rng_seed: EXPERIMENT_SEED,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());
    print_histogram("SpiderMine", &spidermine.size_histogram(true));

    let subdue_result = subdue::run_with(
        &dataset.graph,
        &subdue::SubdueConfig {
            report: 20,
            time_budget: Duration::from_secs(60),
            ..subdue::SubdueConfig::default()
        },
        &mut MineContext::new(),
    );
    print_histogram("SUBDUE", &subdue_result.size_histogram_vertices());
    println!(
        "  summary      SpiderMine largest |V|={}, SUBDUE largest |V|={} (paper: 25 vs <=16)",
        spidermine.largest_vertices(),
        subdue_result
            .patterns
            .iter()
            .map(|p| p.pattern.vertex_count())
            .max()
            .unwrap_or(0)
    );
}
