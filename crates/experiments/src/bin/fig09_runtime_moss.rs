//! Figure 9: runtime of SpiderMine vs the MoSS-style complete miner as the
//! graph grows (Erdős–Rényi, average degree 2, 70 labels — the low-degree
//! setting the paper uses so that MoSS can finish at all).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::moss;
use spidermine_experiments::{format_runtime, is_full_run, EXPERIMENT_SEED};
use spidermine_graph::generate;
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    let sizes: &[usize] = &[100, 200, 300, 400, 500];
    let budget = if is_full_run() {
        Duration::from_secs(300)
    } else {
        Duration::from_secs(30)
    };
    println!("Figure 9: runtime vs graph size (ER, d=2, f=70, sigma=2)");
    println!("{:<10} {:>14} {:>14}", "|V|", "SpiderMine", "MoSS");
    for &n in sizes {
        let mut rng = ChaCha8Rng::seed_from_u64(EXPERIMENT_SEED + n as u64);
        let graph = generate::erdos_renyi_average_degree(&mut rng, n, 2.0, 70);

        let start = std::time::Instant::now();
        let _ = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 4,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&graph, &mut MineContext::new());
        let sm_time = Some(start.elapsed());

        let moss_result = moss::run_with(
            &graph,
            &moss::MossConfig {
                support_threshold: 2,
                time_budget: budget,
                ..moss::MossConfig::default()
            },
            &mut MineContext::new(),
        );
        let moss_time = if moss_result.completed {
            Some(moss_result.runtime)
        } else {
            None
        };
        println!(
            "{:<10} {:>14} {:>14}",
            n,
            format_runtime(sm_time),
            format_runtime(moss_time)
        );
    }
}
