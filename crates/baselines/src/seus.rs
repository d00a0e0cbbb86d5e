//! SEuS: candidate generation from a label-collapsed summary graph.
//!
//! SEuS collapses all vertices with the same label into a single summary
//! vertex; summary edges carry the number of data edges between the two label
//! classes. Connected summary subgraphs whose minimum edge weight reaches the
//! support threshold are candidate patterns (the weight is an upper bound on
//! the true support), which are then verified against the data graph. Because
//! the summary has one vertex per label, candidates can never use a label
//! twice — which is why SEuS "returns mostly small structures" in the paper's
//! experiments (Figures 4–8) and why it struggles when many low-frequency
//! patterns exist.

use rustc_hash::FxHashMap;
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::label::Label;
use spidermine_mining::context::{MineContext, StreamedPattern};
use spidermine_mining::eval::EmbeddingStore;
use spidermine_mining::support::SupportMeasure;
use std::time::{Duration, Instant};

/// Configuration of the SEuS baseline.
#[derive(Clone, Debug)]
pub struct SeusConfig {
    /// Minimum (verified) support for a pattern to be reported.
    pub support_threshold: usize,
    /// Maximum number of vertices in a candidate pattern.
    pub max_vertices: usize,
    /// Cap on embeddings enumerated during verification.
    pub max_embeddings: usize,
    /// Wall-clock budget.
    pub time_budget: Duration,
}

impl Default for SeusConfig {
    fn default() -> Self {
        Self {
            support_threshold: 2,
            max_vertices: 5,
            max_embeddings: 500,
            time_budget: Duration::from_secs(120),
        }
    }
}

/// A pattern reported by SEuS.
#[derive(Clone, Debug)]
pub struct SeusPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Verified (vertex-disjoint) support in the data graph.
    pub support: usize,
    /// The optimistic support estimate taken from the summary graph.
    pub estimate: usize,
}

/// Result of a SEuS run.
#[derive(Clone, Debug, Default)]
pub struct SeusResult {
    /// Frequent patterns found, sorted by decreasing size then support.
    pub patterns: Vec<SeusPattern>,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// True if the candidate enumeration hit the time budget.
    pub timed_out: bool,
}

impl SeusResult {
    /// Histogram of pattern sizes in vertices.
    pub fn size_histogram_vertices(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.pattern.vertex_count()).or_insert(0) += 1;
        }
        hist
    }
}

/// The label-collapsed summary: vertices are labels, edges carry data-edge counts.
#[derive(Debug, Default)]
struct Summary {
    labels: Vec<Label>,
    /// Edge weights keyed by (smaller label index, larger label index).
    weights: FxHashMap<(usize, usize), usize>,
}

fn build_summary(host: &LabeledGraph) -> Summary {
    let mut labels: Vec<Label> = host.labels().to_vec();
    labels.sort_unstable();
    labels.dedup();
    let index: FxHashMap<Label, usize> = labels.iter().enumerate().map(|(i, &l)| (l, i)).collect();
    let mut weights: FxHashMap<(usize, usize), usize> = FxHashMap::default();
    for (u, v) in host.edges() {
        let (a, b) = (index[&host.label(u)], index[&host.label(v)]);
        let key = (a.min(b), a.max(b));
        *weights.entry(key).or_insert(0) += 1;
    }
    Summary { labels, weights }
}

/// Runs the SEuS baseline on a single graph under an execution context: the
/// cancel token is polled in both the candidate-generation and verification
/// loops (a fired token returns the patterns verified so far), and the
/// verified patterns stream through the context's sink before returning.
pub fn run_with(host: &LabeledGraph, config: &SeusConfig, ctx: &mut MineContext) -> SeusResult {
    let start = Instant::now();
    let mut result = SeusResult::default();
    let summary = build_summary(host);
    let n = summary.labels.len();

    // Enumerate connected label subsets by growing from each label along
    // summary edges whose weight reaches the threshold.
    // Each candidate: (label indices, summary edges used, support estimate).
    type Candidate = (Vec<usize>, Vec<(usize, usize)>, usize);
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut frontier: Vec<Candidate> = (0..n).map(|i| (vec![i], Vec::new(), usize::MAX)).collect();
    while let Some((members, edges, estimate)) = frontier.pop() {
        if ctx.is_cancelled() {
            break;
        }
        if start.elapsed() > config.time_budget {
            result.timed_out = true;
            break;
        }
        if members.len() > 1 {
            candidates.push((members.clone(), edges.clone(), estimate));
        }
        if members.len() >= config.max_vertices {
            continue;
        }
        let last = *members.last().expect("non-empty");
        for next in (last + 1)..n {
            if members.contains(&next) {
                continue;
            }
            // Connect `next` to any existing member with a heavy-enough edge.
            let mut best_connection = None;
            for &m in &members {
                let key = (m.min(next), m.max(next));
                if let Some(&w) = summary.weights.get(&key) {
                    if w >= config.support_threshold {
                        best_connection = Some((key, w));
                        break;
                    }
                }
            }
            if let Some((key, w)) = best_connection {
                let mut new_members = members.clone();
                new_members.push(next);
                let mut new_edges = edges.clone();
                new_edges.push(key);
                frontier.push((new_members, new_edges, estimate.min(w)));
            }
        }
    }

    // Verify candidates against the data graph: each candidate's embeddings
    // are discovered into the shared arena (scratch matcher — summary
    // candidates have no parent set to extend from) and support is computed
    // straight off the flat rows.
    let mut store = EmbeddingStore::new();
    for (members, edges, estimate) in candidates {
        if ctx.is_cancelled() {
            break;
        }
        if start.elapsed() > config.time_budget {
            result.timed_out = true;
            break;
        }
        let mut pattern = LabeledGraph::new();
        let mut position: FxHashMap<usize, u32> = FxHashMap::default();
        for &m in &members {
            let v = pattern.add_vertex(summary.labels[m]);
            position.insert(m, v.0);
        }
        for (a, b) in edges {
            pattern.add_edge(position[&a].into(), position[&b].into());
        }
        let set = store.discover(&pattern, host, config.max_embeddings);
        let support = store.view(set).support(SupportMeasure::GreedyDisjoint);
        if support >= config.support_threshold {
            result.patterns.push(SeusPattern {
                pattern,
                support,
                estimate,
            });
        }
        // A verified candidate's set is dead immediately; start a fresh arena
        // before the dead spans grow past a bound.
        if store.pool_len() > (1 << 18) {
            store = EmbeddingStore::new();
        }
    }
    result
        .patterns
        .sort_by_key(|p| std::cmp::Reverse((p.pattern.vertex_count(), p.support)));
    for p in &result.patterns {
        ctx.emit_with(|| StreamedPattern {
            pattern: p.pattern.clone(),
            support: p.support,
            embeddings: Vec::new(),
        });
    }
    result.runtime = start.elapsed();
    ctx.record_stage("summarize-verify", result.runtime);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten copies of the labeled edge 0-1 plus two copies of the path 2-3-4.
    fn host() -> LabeledGraph {
        let mut g = LabeledGraph::new();
        for _ in 0..10 {
            let a = g.add_vertex(Label(0));
            let b = g.add_vertex(Label(1));
            g.add_edge(a, b);
        }
        for _ in 0..2 {
            let a = g.add_vertex(Label(2));
            let b = g.add_vertex(Label(3));
            let c = g.add_vertex(Label(4));
            g.add_edge(a, b);
            g.add_edge(b, c);
        }
        g
    }

    #[test]
    fn summary_counts_edges_per_label_pair() {
        let s = build_summary(&host());
        assert_eq!(s.labels.len(), 5);
        // label pair (0,1) appears 10 times.
        assert_eq!(s.weights[&(0, 1)], 10);
        assert_eq!(s.weights[&(2, 3)], 2);
    }

    #[test]
    fn finds_frequent_small_patterns() {
        let result = run_with(&host(), &SeusConfig::default(), &mut MineContext::new());
        assert!(!result.patterns.is_empty());
        // The 0-1 edge must be found with support 10.
        let edge01 = result
            .patterns
            .iter()
            .find(|p| p.pattern.vertex_count() == 2 && p.support == 10)
            .expect("0-1 edge pattern");
        assert!(edge01.estimate >= edge01.support);
        // The 2-3-4 path must be found with support 2.
        assert!(result
            .patterns
            .iter()
            .any(|p| p.pattern.vertex_count() == 3 && p.support == 2));
    }

    #[test]
    fn candidates_never_repeat_a_label() {
        let result = run_with(&host(), &SeusConfig::default(), &mut MineContext::new());
        for p in &result.patterns {
            assert_eq!(
                p.pattern.distinct_label_count(),
                p.pattern.vertex_count(),
                "SEuS candidates use each label at most once"
            );
        }
    }

    #[test]
    fn support_threshold_is_enforced() {
        let result = run_with(
            &host(),
            &SeusConfig {
                support_threshold: 3,
                ..SeusConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(result.patterns.iter().all(|p| p.support >= 3));
        assert!(!result
            .patterns
            .iter()
            .any(|p| p.pattern.vertex_count() == 3));
    }

    #[test]
    fn max_vertices_bounds_pattern_size() {
        let result = run_with(
            &host(),
            &SeusConfig {
                max_vertices: 2,
                ..SeusConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(result
            .patterns
            .iter()
            .all(|p| p.pattern.vertex_count() <= 2));
    }
}
