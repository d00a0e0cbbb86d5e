//! Figures 13 and 17: scale-free (Barabási–Albert) networks — the number of
//! r-spiders and the SpiderMine runtime as the graph grows (Figure 17), and
//! the size in edges of the largest pattern discovered (Figure 13).
//! On these graphs SUBDUE/SEuS did not complete in the paper and MoSS returned
//! only small patterns; this binary therefore reports SpiderMine only.

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::synthetic::scalefree_graph;
use spidermine_experiments::EXPERIMENT_SEED;
use spidermine_mining::context::MineContext;
use spidermine_mining::spider::{SpiderCatalog, SpiderMiningConfig};

fn main() {
    let sizes: Vec<usize> = if spidermine_experiments::is_full_run() {
        vec![5_000, 10_000, 15_000, 20_000, 25_000]
    } else {
        vec![1_000, 2_000, 4_000, 6_000]
    };
    println!("Figures 13 & 17: scale-free networks (BA model, m=2, 100 labels, sigma=2)");
    println!(
        "{:<10} {:>10} {:>14} {:>14} {:>20}",
        "|V|", "|E|", "#r-spiders", "runtime", "largest |E| found"
    );
    for &n in &sizes {
        let (graph, _planted) = scalefree_graph(n, EXPERIMENT_SEED + n as u64);
        // Figure 17 reports the number of r-spiders (r = 1) separately.
        let catalog = SpiderCatalog::mine(
            &graph,
            &SpiderMiningConfig {
                support_threshold: 2,
                max_leaves: 6,
                ..SpiderMiningConfig::default()
            },
        );
        let start = std::time::Instant::now();
        let result = SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k: 10,
            d_max: 10,
            max_spider_leaves: 6,
            rng_seed: EXPERIMENT_SEED,
            ..SpiderMineConfig::default()
        })
        .mine_with(&graph, &mut MineContext::new());
        let elapsed = start.elapsed();
        println!(
            "{:<10} {:>10} {:>14} {:>13.3}s {:>20}",
            n,
            graph.edge_count(),
            catalog.len(),
            elapsed.as_secs_f64(),
            result.largest_edges()
        );
    }
}
