//! Figures 11 and 12: SpiderMine's own scalability on random graphs — runtime
//! (Figure 11) and the size of the largest pattern discovered (Figure 12) as
//! the input graph grows. The paper sweeps |V| up to 40 000; the default sweep
//! here is smaller, `--full` runs the paper's sizes.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::synthetic::scalability_graph;
use spidermine_experiments::{scale_from_args, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;

fn main() {
    // `--full` runs the paper's sizes; otherwise `--scale X` (default 0.25 of
    // the paper's sweep) shrinks every |V| point, keeping CI smoke runs cheap.
    let scale = scale_from_args(0.25);
    let sizes: Vec<usize> = [
        1_000usize, 5_000, 10_000, 15_000, 20_000, 25_000, 30_000, 35_000, 40_000,
    ]
    .iter()
    .map(|&n| ((n as f64 * scale) as usize).max(200))
    .collect();
    println!("Figures 11-12: SpiderMine runtime and largest pattern vs graph size");
    println!(
        "(ER background, d=3, f=100, sigma=2, K=10, Dmax=10, one planted pattern growing with |V|)"
    );
    println!(
        "{:<10} {:>14} {:>20} {:>20}",
        "|V|", "runtime", "largest |V| found", "planted |V|"
    );
    for &n in &sizes {
        let (graph, planted) = scalability_graph(n, EXPERIMENT_SEED + n as u64);
        let start = std::time::Instant::now();
        let result = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 10,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&graph, &mut MineContext::new());
        let elapsed = start.elapsed();
        println!(
            "{:<10} {:>13.3}s {:>20} {:>20}",
            n,
            elapsed.as_secs_f64(),
            result.largest_vertices(),
            planted.vertex_count()
        );
    }
}
