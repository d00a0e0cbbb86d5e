//! Figures 4–8: pattern-size distributions mined from GID 1–5 by SpiderMine,
//! SUBDUE and SEuS (Table 1 / Table 2 data settings, σ = 2, K = 10, Dmax = 4).

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::{seus, subdue};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_experiments::{header, print_histogram, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    println!("Figures 4-8: pattern size (|V|) distribution per miner, GID 1-5");
    println!(
        "Paper setting: sigma=2, K=10, Dmax=4; bars at size 30 are the injected large patterns."
    );
    for gid in 1..=5u32 {
        let config = GidConfig::table1(gid);
        let dataset = SyntheticDataset::build(config.clone(), EXPERIMENT_SEED + u64::from(gid));
        header(&format!(
            "GID {gid}: |V|={} f={} d={} (+{} injected large, {} small)",
            config.vertices,
            config.labels,
            config.average_degree,
            config.large_patterns,
            config.small_patterns
        ));

        let spidermine = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 4,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&dataset.graph, &mut MineContext::new());
        print_histogram("SpiderMine", &spidermine.size_histogram(true));

        let subdue_result = subdue::run_with(
            &dataset.graph,
            &subdue::SubdueConfig {
                report: 15,
                time_budget: Duration::from_secs(60),
                ..subdue::SubdueConfig::default()
            },
            &mut MineContext::new(),
        );
        print_histogram("SUBDUE", &subdue_result.size_histogram_vertices());

        let seus_result = seus::run_with(
            &dataset.graph,
            &seus::SeusConfig {
                support_threshold: 2,
                time_budget: Duration::from_secs(60),
                ..seus::SeusConfig::default()
            },
            &mut MineContext::new(),
        );
        print_histogram("SEuS", &seus_result.size_histogram_vertices());

        println!(
            "  summary      SpiderMine largest |V|={}, SUBDUE largest |V|={}, SEuS largest |V|={}",
            spidermine.largest_vertices(),
            subdue_result
                .patterns
                .iter()
                .map(|p| p.pattern.vertex_count())
                .max()
                .unwrap_or(0),
            seus_result
                .patterns
                .iter()
                .map(|p| p.pattern.vertex_count())
                .max()
                .unwrap_or(0),
        );
    }
}
