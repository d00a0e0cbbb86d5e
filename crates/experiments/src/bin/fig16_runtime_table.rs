//! Figure 16: runtime comparison of SpiderMine, SUBDUE, SEuS and MoSS on
//! GID 1–5. Runs that exceed the per-miner budget are reported as "-",
//! matching the paper's convention (the paper aborted runs after 10 hours;
//! the default budget here is much smaller — pass `--full` for a longer one).

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::{moss, seus, subdue};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_experiments::{format_runtime, is_full_run, EXPERIMENT_SEED};
use spidermine_mining::context::MineContext;
use std::time::Duration;

fn main() {
    let budget = if is_full_run() {
        Duration::from_secs(600)
    } else {
        Duration::from_secs(20)
    };
    println!(
        "Figure 16: runtime (seconds) per miner on GID 1-5 ('-' = exceeded {budget:?} budget)"
    );
    println!(
        "{:<6} {:>12} {:>12} {:>12} {:>12}",
        "GID", "SpiderMine", "SUBDUE", "SEuS", "MoSS"
    );
    for gid in 1..=5u32 {
        let dataset =
            SyntheticDataset::build(GidConfig::table1(gid), EXPERIMENT_SEED + u64::from(gid));

        let sm_start = std::time::Instant::now();
        let _ = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 4,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&dataset.graph, &mut MineContext::new());
        let sm_time = Some(sm_start.elapsed());

        let subdue_result = subdue::run_with(
            &dataset.graph,
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

        let seus_result = seus::run_with(
            &dataset.graph,
            &seus::SeusConfig {
                support_threshold: 2,
                time_budget: budget,
                ..seus::SeusConfig::default()
            },
            &mut MineContext::new(),
        );
        let seus_time = if seus_result.timed_out {
            None
        } else {
            Some(seus_result.runtime)
        };

        let moss_result = moss::run_with(
            &dataset.graph,
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
            "{:<6} {:>12} {:>12} {:>12} {:>12}",
            gid,
            format_runtime(sm_time),
            format_runtime(subdue_time),
            format_runtime(seus_time),
            format_runtime(moss_time),
        );
    }
}
