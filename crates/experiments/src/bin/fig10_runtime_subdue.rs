//! Figure 10: runtime of SpiderMine vs SUBDUE as the graph grows
//! (Erdős–Rényi, average degree 3, 100 labels, σ = 2, K = 10, Dmax = 10).
//! The paper sweeps |V| from 500 to 10 500; the default here stops earlier and
//! `--full` runs the whole sweep.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::subdue;
use spidermine_datasets::synthetic::scalability_graph;
use spidermine_experiments::{format_runtime, is_full_run, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    let sizes: Vec<usize> = if is_full_run() {
        (1..=11).map(|i| 500 + (i - 1) * 1000).collect()
    } else {
        vec![500, 1500, 2500, 3500]
    };
    let budget = if is_full_run() {
        Duration::from_secs(1800)
    } else {
        Duration::from_secs(60)
    };
    println!("Figure 10: runtime vs graph size (ER, d=3, f=100, sigma=2, K=10, Dmax=10)");
    println!("{:<10} {:>14} {:>14}", "|V|", "SpiderMine", "SUBDUE");
    for &n in &sizes {
        let (graph, _) = scalability_graph(n, EXPERIMENT_SEED + n as u64);

        let start = std::time::Instant::now();
        let _ = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 10,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&graph, &mut MineContext::new());
        let sm_time = Some(start.elapsed());

        let subdue_result = subdue::run_with(
            &graph,
            &subdue::SubdueConfig {
                time_budget: budget,
                ..subdue::SubdueConfig::default()
            },
            &mut MineContext::new(),
        );
        let subdue_time = if subdue_result.timed_out {
            None
        } else {
            Some(subdue_result.runtime)
        };
        println!(
            "{:<10} {:>14} {:>14}",
            n,
            format_runtime(sm_time),
            format_runtime(subdue_time)
        );
    }
}
