//! Quickstart: mine the top-K largest frequent patterns from a small synthetic
//! network with planted structure.
//!
//! ```text
//! cargo run -p spidermine-examples --example quickstart --release
//! ```

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_engine::MineContext;
use spidermine_examples::describe_result;
use spidermine_graph::generate;

fn main() {
    // 1. Build a network: an Erdős–Rényi background of 500 vertices with a
    //    12-vertex pattern planted 3 times.
    let mut rng = ChaCha8Rng::seed_from_u64(42);
    let mut network = generate::erdos_renyi_average_degree(&mut rng, 500, 2.5, 40);
    let planted = generate::random_connected_pattern(&mut rng, 12, 40, 4);
    generate::inject_pattern(&mut rng, &mut network, &planted, 3, 2);
    println!(
        "network: |V|={} |E|={}   planted pattern: |V|={} |E|={} x3 copies",
        network.vertex_count(),
        network.edge_count(),
        planted.vertex_count(),
        planted.edge_count()
    );

    // 2. Configure SpiderMine: support threshold sigma, number of patterns K,
    //    error bound epsilon, and the diameter bound Dmax.
    let config = SpiderMineConfig {
        support_threshold: 2,
        k: 5,
        epsilon: 0.1,
        d_max: 8,
        ..SpiderMineConfig::default()
    };

    // 3. Mine and report.
    let result = SpiderMiner::new(config).mine_with(&network, &mut MineContext::new());
    describe_result("top-5 largest frequent patterns:", &result);
    println!(
        "largest pattern found has {} vertices (planted: {})",
        result.largest_vertices(),
        planted.vertex_count()
    );
}
