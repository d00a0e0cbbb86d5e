//! Figure 19: effect of the diameter bound Dmax. Using the GID 7 setting, the
//! top-5 largest patterns are reported for d = Dmax/2 ∈ {1, 2, 3, 4}. The
//! paper's observation: results are stable unless Dmax is too small for the
//! seed spiders to grow together and merge.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_experiments::{scale_from_args, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;

fn main() {
    let scale = scale_from_args(0.15);
    let config = GidConfig::table3(7, scale);
    let dataset = SyntheticDataset::build(config.clone(), EXPERIMENT_SEED + 7);
    println!(
        "Figure 19: top-5 largest patterns (|V|) for varied Dmax on the GID 7 setting (scale {scale})"
    );
    println!("{:<12} {:>30}", "d = Dmax/2", "top-5 sizes |V|");
    for d in 1..=4u32 {
        let result = SpiderMiner::new(SpiderMineConfig {
            support_threshold: config.large_support.min(10),
            k: 5,
            d_max: 2 * d,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&dataset.graph, &mut MineContext::new());
        let sizes: Vec<String> = result
            .patterns
            .iter()
            .take(5)
            .map(|p| p.size_vertices().to_string())
            .collect();
        println!("{:<12} {:>30}", d, sizes.join(","));
    }
}
