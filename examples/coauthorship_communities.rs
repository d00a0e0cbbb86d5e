//! Social-network scenario (the paper's DBLP use case): mine large
//! collaborative patterns from a co-authorship network whose vertices are
//! labeled with author seniority, and contrast them with what SUBDUE finds.
//!
//! ```text
//! cargo run -p spidermine-examples --example coauthorship_communities --release
//! ```

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::subdue;
use spidermine_datasets::dblp::{self, DblpConfig};
use spidermine_engine::MineContext;
use spidermine_examples::describe_result;

fn main() {
    // A DBLP-like co-authorship graph: four seniority labels (Prolific,
    // Senior, Junior, Beginner), research-group community structure and a few
    // collaborative patterns recurring across groups.
    let dataset = dblp::generate(&DblpConfig::scaled(0.08), 7);
    println!(
        "co-authorship network: |V|={} |E|={} labels={}",
        dataset.graph.vertex_count(),
        dataset.graph.edge_count(),
        dataset.graph.distinct_label_count()
    );
    println!(
        "planted collaborative patterns: {} (each ~{} authors)",
        dataset.planted_patterns.len(),
        dataset.planted_patterns[0].vertex_count()
    );

    let result = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 4,
        k: 10,
        d_max: 8,
        max_spider_leaves: 5,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());
    describe_result("SpiderMine: top collaborative patterns", &result);

    // SUBDUE, for contrast, concentrates on tiny high-frequency structures —
    // with only four labels, small co-authorship motifs are ubiquitous and
    // uninformative (the paper's point in Section 1 and Figure 20).
    let subdue_result = subdue::run_with(
        &dataset.graph,
        &subdue::SubdueConfig::default(),
        &mut MineContext::new(),
    );
    let subdue_largest = subdue_result
        .patterns
        .iter()
        .map(|p| p.pattern.vertex_count())
        .max()
        .unwrap_or(0);
    println!(
        "SUBDUE for comparison: {} substructures, largest has {} vertices",
        subdue_result.patterns.len(),
        subdue_largest
    );
}
