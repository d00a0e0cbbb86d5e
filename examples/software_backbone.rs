//! Software-engineering scenario (the paper's Jeti use case): mine the
//! recurring "API-usage backbone" from a method-call graph whose labels are
//! the classes the methods belong to. Large patterns here reveal tightly
//! coupled class communities — useful for program comprehension and design
//! smell detection (Section D of the paper).
//!
//! ```text
//! cargo run -p spidermine-examples --example software_backbone --release
//! ```

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_datasets::jeti::{self, JetiConfig};
use spidermine_engine::MineContext;
use spidermine_examples::describe_result;
use std::collections::BTreeSet;

fn main() {
    let dataset = jeti::generate(&JetiConfig::default(), 11);
    println!(
        "call graph: |V|={} methods, |E|={} calls, {} classes, max degree {}",
        dataset.graph.vertex_count(),
        dataset.graph.edge_count(),
        dataset.graph.distinct_label_count(),
        dataset.graph.max_degree()
    );

    let result = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 8,
        k: 5,
        d_max: 8,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());
    describe_result("SpiderMine: top call-graph backbones", &result);

    // For the largest backbone, report which classes participate — high
    // cohesion among a handful of classes is the design signal the paper
    // discusses (Figure 24).
    if let Some(top) = result.patterns.first() {
        let classes: BTreeSet<u32> = top.pattern.labels().iter().map(|l| l.0).collect();
        println!(
            "largest backbone spans {} methods across {} classes: {:?}",
            top.size_vertices(),
            classes.len(),
            classes
        );
    }
    println!(
        "(ground truth: {} planted backbones of {} methods each)",
        dataset.backbones.len(),
        dataset.backbones[0].vertex_count()
    );
}
