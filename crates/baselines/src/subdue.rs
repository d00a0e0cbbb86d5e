//! SUBDUE: beam search over substructures guided by MDL compression.
//!
//! SUBDUE repeatedly evaluates candidate substructures by how well replacing
//! their (vertex-disjoint) instances with a single super-vertex compresses the
//! description length of the input graph, keeps the best `beam_width`
//! candidates, and extends them by one edge. The heuristic strongly favours
//! small patterns with many instances — which is exactly the behaviour the
//! SpiderMine paper reports in Figures 4–8 (SUBDUE's bars sit at small sizes).

use spidermine_graph::graph::LabeledGraph;
use spidermine_mining::context::{MineContext, StreamedPattern};
use spidermine_mining::eval::{EmbeddingSetId, EmbeddingStore};
use spidermine_mining::extension::{
    frequent_single_edges_in, one_edge_extensions_in, StoredPattern,
};
use spidermine_mining::pattern_index::PatternIndex;
use spidermine_mining::support::SupportMeasure;
use std::time::{Duration, Instant};

/// Configuration of the SUBDUE baseline.
#[derive(Clone, Debug)]
pub struct SubdueConfig {
    /// Beam width (number of candidate substructures kept per level).
    pub beam_width: usize,
    /// Maximum number of edges of a substructure.
    pub max_edges: usize,
    /// Number of best substructures reported.
    pub report: usize,
    /// Minimum number of vertex-disjoint instances for a substructure to be
    /// considered at all.
    pub min_instances: usize,
    /// Cap on embeddings tracked per candidate.
    pub max_embeddings: usize,
    /// Wall-clock budget; the search stops early when exceeded.
    pub time_budget: Duration,
}

impl Default for SubdueConfig {
    fn default() -> Self {
        Self {
            beam_width: 4,
            max_edges: 40,
            report: 20,
            min_instances: 2,
            max_embeddings: 500,
            time_budget: Duration::from_secs(120),
        }
    }
}

/// A substructure reported by SUBDUE.
#[derive(Clone, Debug)]
pub struct SubduePattern {
    /// The substructure graph.
    pub pattern: LabeledGraph,
    /// Number of vertex-disjoint instances found.
    pub instances: usize,
    /// MDL compression value (higher is better).
    pub compression: f64,
}

/// Result of a SUBDUE run.
#[derive(Clone, Debug, Default)]
pub struct SubdueResult {
    /// Best substructures, sorted by decreasing compression value.
    pub patterns: Vec<SubduePattern>,
    /// Wall-clock time of the run.
    pub runtime: Duration,
    /// True if the search stopped because of the time budget.
    pub timed_out: bool,
}

impl SubdueResult {
    /// Histogram of pattern sizes in vertices.
    pub fn size_histogram_vertices(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.pattern.vertex_count()).or_insert(0) += 1;
        }
        hist
    }
}

/// Approximate description length of a labeled graph in bits.
fn description_length(vertices: usize, edges: usize, label_count: usize) -> f64 {
    if vertices == 0 {
        return 0.0;
    }
    let label_bits = (label_count.max(2) as f64).log2();
    let vertex_bits = (vertices.max(2) as f64).log2();
    vertices as f64 * label_bits + edges as f64 * 2.0 * vertex_bits
}

/// MDL compression value of a substructure with `instances` disjoint instances:
/// `DL(G) / (DL(S) + DL(G | S))`.
fn compression_value(
    host_vertices: usize,
    host_edges: usize,
    label_count: usize,
    pattern: &LabeledGraph,
    instances: usize,
) -> f64 {
    let dl_g = description_length(host_vertices, host_edges, label_count);
    let dl_s = description_length(pattern.vertex_count(), pattern.edge_count(), label_count);
    // Each compressed instance removes |Vs|-1 vertices and |Es| edges
    // (the instance collapses into one super-vertex).
    let compressed_vertices =
        host_vertices.saturating_sub(instances * pattern.vertex_count().saturating_sub(1));
    let compressed_edges = host_edges.saturating_sub(instances * pattern.edge_count());
    let dl_rest = description_length(compressed_vertices, compressed_edges, label_count + 1);
    dl_g / (dl_s + dl_rest).max(1e-9)
}

/// Runs the SUBDUE baseline on a single graph under an execution context: the
/// cancel token is polled once per beam level (a fired token ends the search
/// with the substructures collected so far), and the reported substructures
/// stream through the context's sink before returning.
pub fn run_with(host: &LabeledGraph, config: &SubdueConfig, ctx: &mut MineContext) -> SubdueResult {
    let start = Instant::now();
    let label_count = host.distinct_label_count();
    let mut result = SubdueResult::default();
    let mut best: Vec<SubduePattern> = Vec::new();
    let mut seen = PatternIndex::new();
    // Candidate embeddings live in one flat arena; the beam carries
    // `EmbeddingSetId` handles and children are produced by the incremental
    // extension engine instead of per-child embedding clones.
    let mut store = EmbeddingStore::new();

    let evaluate = |sp: &StoredPattern, store: &EmbeddingStore| -> SubduePattern {
        let instances = store.view(sp.set).support(SupportMeasure::GreedyDisjoint);
        SubduePattern {
            pattern: sp.pattern.clone(),
            instances,
            compression: compression_value(
                host.vertex_count(),
                host.edge_count(),
                label_count,
                &sp.pattern,
                instances,
            ),
        }
    };

    let mut beam: Vec<StoredPattern> = frequent_single_edges_in(
        &mut store,
        host,
        config.min_instances,
        SupportMeasure::EmbeddingCount,
        config.max_embeddings,
    );
    while !beam.is_empty() {
        if ctx.is_cancelled() {
            break;
        }
        if start.elapsed() > config.time_budget {
            result.timed_out = true;
            break;
        }
        // Evaluate and record the current beam.
        let mut scored: Vec<(f64, StoredPattern)> = Vec::new();
        for sp in beam.drain(..) {
            let evaluated = evaluate(&sp, &store);
            if evaluated.instances < config.min_instances {
                continue;
            }
            let (_, fresh) = seen.insert(sp.pattern.clone());
            if fresh {
                best.push(evaluated.clone());
            }
            scored.push((evaluated.compression, sp));
        }
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(config.beam_width);

        // Extend the surviving beam members by one edge.
        let mut next: Vec<StoredPattern> = Vec::new();
        for (_, sp) in &scored {
            if sp.pattern.edge_count() >= config.max_edges {
                continue;
            }
            if start.elapsed() > config.time_budget {
                result.timed_out = true;
                break;
            }
            for ext in one_edge_extensions_in(
                &mut store,
                host,
                &sp.pattern,
                sp.set,
                config.min_instances,
                SupportMeasure::EmbeddingCount,
                config.max_embeddings,
            ) {
                next.push(ext.child);
            }
        }
        beam = next;
        // The arena never frees: once the surviving beam owns a minority of
        // the pool, re-intern just its sets.
        let live: Vec<EmbeddingSetId> = beam.iter().map(|sp| sp.set).collect();
        if let Some(remap) = store.maybe_compact(&live, 1 << 18) {
            for sp in &mut beam {
                sp.set = remap[&sp.set];
            }
        }
    }

    best.sort_by(|a, b| {
        b.compression
            .partial_cmp(&a.compression)
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    best.truncate(config.report);
    result.patterns = best;
    for p in &result.patterns {
        ctx.emit_with(|| StreamedPattern {
            pattern: p.pattern.clone(),
            support: p.instances,
            embeddings: Vec::new(),
        });
    }
    result.runtime = start.elapsed();
    ctx.record_stage("beam-search", result.runtime);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spidermine_graph::generate;
    use spidermine_graph::label::Label;

    #[test]
    fn description_length_is_monotone() {
        assert!(description_length(10, 20, 5) > description_length(5, 10, 5));
        assert_eq!(description_length(0, 0, 5), 0.0);
    }

    #[test]
    fn compression_rewards_frequent_substructures() {
        let pattern = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let few = compression_value(100, 200, 10, &pattern, 2);
        let many = compression_value(100, 200, 10, &pattern, 20);
        assert!(many > few);
    }

    #[test]
    fn finds_frequent_small_substructure() {
        // A graph made of many copies of the same labeled edge compresses well.
        let mut host = LabeledGraph::new();
        for _ in 0..10 {
            let a = host.add_vertex(Label(0));
            let b = host.add_vertex(Label(1));
            host.add_edge(a, b);
        }
        let result = run_with(&host, &SubdueConfig::default(), &mut MineContext::new());
        assert!(!result.patterns.is_empty());
        let top = &result.patterns[0];
        assert_eq!(top.pattern.edge_count(), 1);
        assert_eq!(top.instances, 10);
        assert!(!result.timed_out);
    }

    #[test]
    fn prefers_small_frequent_over_large_rare() {
        // Background with an injected large pattern of only 2 copies plus many
        // repeated small edges: SUBDUE's top pattern should be small.
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut host = generate::erdos_renyi_average_degree(&mut rng, 150, 2.0, 4);
        let big = generate::random_connected_pattern(&mut rng, 15, 4, 3);
        generate::inject_pattern(&mut rng, &mut host, &big, 2, 2);
        let result = run_with(
            &host,
            &SubdueConfig {
                max_edges: 20,
                ..SubdueConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(!result.patterns.is_empty());
        assert!(
            result.patterns[0].pattern.vertex_count() < 15,
            "SUBDUE should favour small, frequent substructures"
        );
    }

    #[test]
    fn time_budget_is_respected() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let host = generate::erdos_renyi_average_degree(&mut rng, 400, 4.0, 3);
        let result = run_with(
            &host,
            &SubdueConfig {
                time_budget: Duration::from_millis(50),
                max_edges: 1000,
                ..SubdueConfig::default()
            },
            &mut MineContext::new(),
        );
        // Either it finished quickly or it noticed the timeout; both are fine,
        // but the run must not take unboundedly long.
        assert!(result.runtime < Duration::from_secs(30));
    }

    #[test]
    fn report_limit_is_respected() {
        let mut host = LabeledGraph::new();
        for i in 0..12u32 {
            let a = host.add_vertex(Label(i % 3));
            let b = host.add_vertex(Label((i + 1) % 3));
            host.add_edge(a, b);
        }
        let result = run_with(
            &host,
            &SubdueConfig {
                report: 2,
                ..SubdueConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(result.patterns.len() <= 2);
    }
}
