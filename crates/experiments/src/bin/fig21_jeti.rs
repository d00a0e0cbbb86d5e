//! Figure 21: Jeti call graph — pattern-size distribution of SpiderMine vs
//! SUBDUE (minimum support 10 in the paper; MoSS and SEuS did not finish).
//! Runs on the Jeti-like synthetic twin described in DESIGN.md.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::subdue;
use spidermine_datasets::jeti::{self, JetiConfig};
use spidermine_experiments::{header, print_histogram, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    let dataset = jeti::generate(&JetiConfig::default(), EXPERIMENT_SEED);
    header(&format!(
        "Figure 21: Jeti-like call graph (|V|={}, |E|={}, {} class labels)",
        dataset.graph.vertex_count(),
        dataset.graph.edge_count(),
        dataset.graph.distinct_label_count()
    ));
    let spidermine = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 10,
        k: 10,
        d_max: 8,
        rng_seed: EXPERIMENT_SEED,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());
    print_histogram("SpiderMine", &spidermine.size_histogram(true));

    let subdue_result = subdue::run_with(
        &dataset.graph,
        &subdue::SubdueConfig {
            report: 10,
            min_instances: 10,
            time_budget: Duration::from_secs(60),
            ..subdue::SubdueConfig::default()
        },
        &mut MineContext::new(),
    );
    print_histogram("SUBDUE", &subdue_result.size_histogram_vertices());
    println!(
        "  summary      SpiderMine largest |V|={}, SUBDUE largest |V|={} (paper: ~32 vs ~4)",
        spidermine.largest_vertices(),
        subdue_result
            .patterns
            .iter()
            .map(|p| p.pattern.vertex_count())
            .max()
            .unwrap_or(0)
    );
    println!(
        "  planted backbones: {} occurrences each of a {}-method pattern",
        dataset.backbones.len(),
        dataset
            .backbones
            .first()
            .map(|b| b.vertex_count())
            .unwrap_or(0)
    );
}
