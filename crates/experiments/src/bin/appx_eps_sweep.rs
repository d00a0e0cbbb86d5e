//! Appendix C.1(4): effect of the error bound ε. Smaller ε means more seed
//! spiders (larger M from Lemma 2) and therefore more growth work. The paper
//! reports runtimes on the Jeti data at ε = 0.45 / 0.25 / 0.05 with minimum
//! support 10; this binary runs the same sweep on the Jeti-like twin.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::jeti::{self, JetiConfig};
use spidermine_experiments::EXPERIMENT_SEED;
use spidermine_mining::context::MineContext;
use spidermine_mining::support::SupportMeasure;

fn main() {
    let dataset = jeti::generate(&JetiConfig::default(), EXPERIMENT_SEED);
    println!(
        "Appendix epsilon sweep on the Jeti-like call graph (|V|={}, |E|={}, sigma=10)",
        dataset.graph.vertex_count(),
        dataset.graph.edge_count()
    );
    println!(
        "{:<10} {:>10} {:>14} {:>18}",
        "epsilon", "seeds M", "runtime", "largest |V| found"
    );
    for &epsilon in &[0.45f64, 0.25, 0.05] {
        let start = std::time::Instant::now();
        let result = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 10,
            k: 10,
            d_max: 8,
            epsilon,
            support_measure: SupportMeasure::MinimumImage,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&dataset.graph, &mut MineContext::new());
        let elapsed = start.elapsed();
        println!(
            "{:<10} {:>10} {:>13.3}s {:>18}",
            epsilon,
            result.stats.seed_count,
            elapsed.as_secs_f64(),
            result.largest_vertices()
        );
    }
}
