//! Figure 18 / Table 3: robustness against varied pattern distributions.
//! GID 6–10 increase the number and support of small distractor patterns; the
//! top-5 largest patterns returned by SpiderMine should stay essentially the
//! same (the five injected 50-vertex patterns). Sizes are reported in edges,
//! as in the paper's Figure 18.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_experiments::{scale_from_args, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;

fn main() {
    let scale = scale_from_args(0.15);
    println!("Figure 18: top-5 largest patterns (|E|) per GID 6-10 (Dmax=6, sigma=10, K=5, scale {scale})");
    println!(
        "{:<8} {:>30} {:>24}",
        "GID", "top-5 sizes |E|", "injected pattern |E|"
    );
    for gid in 6..=10u32 {
        let config = GidConfig::table3(gid, scale);
        let dataset = SyntheticDataset::build(config.clone(), EXPERIMENT_SEED + u64::from(gid));
        let result = SpiderMiner::new(SpiderMineConfig {
            support_threshold: config.large_support.min(10),
            k: 5,
            d_max: 6,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&dataset.graph, &mut MineContext::new());
        let sizes: Vec<String> = result
            .patterns
            .iter()
            .take(5)
            .map(|p| p.size_edges().to_string())
            .collect();
        let injected: Vec<String> = dataset
            .large_patterns
            .iter()
            .map(|p| p.edge_count().to_string())
            .collect();
        println!(
            "{:<8} {:>30} {:>24}",
            gid,
            sizes.join(","),
            injected.join(",")
        );
    }
}
