//! A MoSS/gSpan-style complete frequent-subgraph miner for the single-graph
//! setting.
//!
//! The miner follows the classical edge-by-edge pattern-growth paradigm: start
//! from every frequent single edge, repeatedly apply all frequent one-edge
//! extensions, and deduplicate candidates by isomorphism. Support is
//! overlap-aware (greedy vertex-disjoint count), in the spirit of Fiedler &
//! Borgelt's harmful-overlap measure that MoSS implements.
//!
//! Mining the *complete* pattern set is exponential, which is the whole point
//! of the paper's comparison (Figures 9 and 16: MoSS cannot finish on most of
//! the GID datasets within 10 hours). The implementation therefore takes a
//! wall-clock budget and reports whether it completed; the experiment harness
//! prints "-" for runs that exceed the budget, exactly as the paper does.

use spidermine_graph::graph::LabeledGraph;
use spidermine_mining::context::{MineContext, StreamedPattern};
use spidermine_mining::eval::{EmbeddingSetId, EmbeddingStore};
use spidermine_mining::extension::{
    frequent_single_edges_in, one_edge_extensions_in, StoredPattern,
};
use spidermine_mining::pattern_index::PatternIndex;
use spidermine_mining::support::SupportMeasure;
use std::collections::VecDeque;
use std::time::{Duration, Instant};

/// Configuration of the complete miner.
#[derive(Clone, Debug)]
pub struct MossConfig {
    /// Minimum support (greedy vertex-disjoint embeddings).
    pub support_threshold: usize,
    /// Maximum number of edges per pattern (safety bound; the complete set is
    /// usually exhausted or the time budget hit long before).
    pub max_edges: usize,
    /// Cap on embeddings tracked per pattern.
    pub max_embeddings: usize,
    /// Wall-clock budget; mining stops (and is marked incomplete) beyond it.
    pub time_budget: Duration,
    /// Support measure (the paper's setting corresponds to an overlap-aware
    /// count; the default is greedy vertex-disjoint).
    pub support_measure: SupportMeasure,
}

impl Default for MossConfig {
    fn default() -> Self {
        Self {
            support_threshold: 2,
            max_edges: 64,
            max_embeddings: 400,
            time_budget: Duration::from_secs(60),
            support_measure: SupportMeasure::GreedyDisjoint,
        }
    }
}

/// A pattern in the (partial) complete set.
#[derive(Clone, Debug)]
pub struct MossPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Support under the configured measure.
    pub support: usize,
}

/// Result of a complete-mining run.
#[derive(Clone, Debug, Default)]
pub struct MossResult {
    /// All frequent patterns found (complete if `completed` is true).
    pub patterns: Vec<MossPattern>,
    /// Wall-clock runtime.
    pub runtime: Duration,
    /// True if the full pattern space was explored within the budget.
    pub completed: bool,
    /// Number of candidate patterns generated (work measure).
    pub candidates_generated: usize,
}

impl MossResult {
    /// Histogram of pattern sizes in vertices.
    pub fn size_histogram_vertices(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.pattern.vertex_count()).or_insert(0) += 1;
        }
        hist
    }

    /// Size (in vertices) of the largest frequent pattern found.
    pub fn largest_vertices(&self) -> usize {
        self.patterns
            .iter()
            .map(|p| p.pattern.vertex_count())
            .max()
            .unwrap_or(0)
    }
}

/// Runs the complete miner on a single graph under an execution context:
/// every frequent pattern streams through the context's sink the moment it is
/// accepted (this miner's exploration is naturally incremental), and the
/// cancel token is polled once per queue pop — a fired token marks the run
/// incomplete and returns the patterns found so far.
pub fn run_with(host: &LabeledGraph, config: &MossConfig, ctx: &mut MineContext) -> MossResult {
    let start = Instant::now();
    let mut result = MossResult {
        completed: true,
        ..MossResult::default()
    };
    let mut seen = PatternIndex::new();
    // The exploration queue holds embedding-set handles into one flat arena;
    // children come out of the incremental extension engine, so no pattern is
    // ever re-matched from scratch and no embedding list is ever cloned.
    let mut store = EmbeddingStore::new();
    let mut queue: VecDeque<StoredPattern> = VecDeque::new();
    for sp in frequent_single_edges_in(
        &mut store,
        host,
        config.support_threshold,
        config.support_measure,
        config.max_embeddings,
    ) {
        let (_, fresh) = seen.insert(sp.pattern.clone());
        if fresh {
            ctx.emit_with(|| StreamedPattern {
                pattern: sp.pattern.clone(),
                support: sp.support,
                embeddings: Vec::new(),
            });
            result.patterns.push(MossPattern {
                pattern: sp.pattern.clone(),
                support: sp.support,
            });
            queue.push_back(sp);
        }
    }
    while let Some(sp) = queue.pop_front() {
        if ctx.is_cancelled() {
            result.completed = false;
            break;
        }
        if start.elapsed() > config.time_budget {
            result.completed = false;
            break;
        }
        if sp.pattern.edge_count() >= config.max_edges {
            result.completed = false;
            continue;
        }
        for ext in one_edge_extensions_in(
            &mut store,
            host,
            &sp.pattern,
            sp.set,
            config.support_threshold,
            config.support_measure,
            config.max_embeddings,
        ) {
            result.candidates_generated += 1;
            let (_, fresh) = seen.insert(ext.child.pattern.clone());
            if !fresh {
                continue;
            }
            ctx.emit_with(|| StreamedPattern {
                pattern: ext.child.pattern.clone(),
                support: ext.child.support,
                embeddings: Vec::new(),
            });
            result.patterns.push(MossPattern {
                pattern: ext.child.pattern.clone(),
                support: ext.child.support,
            });
            queue.push_back(ext.child);
        }
        // Popped parents and duplicate children leave dead sets behind; once
        // they dominate the pool, re-intern just the queued frontier.
        let live: Vec<EmbeddingSetId> = queue.iter().map(|q| q.set).collect();
        if let Some(remap) = store.maybe_compact(&live, 1 << 18) {
            for q in &mut queue {
                q.set = remap[&q.set];
            }
        }
    }
    result.runtime = start.elapsed();
    ctx.record_stage("explore", result.runtime);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::label::Label;

    /// Two copies of the triangle with labels 0, 1, 2.
    fn two_triangles() -> LabeledGraph {
        LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(2), Label(0), Label(1), Label(2)],
            &[(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)],
        )
    }

    #[test]
    fn finds_the_complete_pattern_set_of_two_triangles() {
        let result = run_with(
            &two_triangles(),
            &MossConfig::default(),
            &mut MineContext::new(),
        );
        assert!(result.completed);
        // Frequent patterns (support 2): 3 single edges, 3 two-edge paths,
        // 1 triangle = 7 patterns.
        assert_eq!(result.patterns.len(), 7);
        assert_eq!(result.largest_vertices(), 3);
        let triangle_count = result
            .patterns
            .iter()
            .filter(|p| p.pattern.edge_count() == 3)
            .count();
        assert_eq!(triangle_count, 1);
        for p in &result.patterns {
            assert!(p.support >= 2);
        }
    }

    #[test]
    fn support_threshold_prunes_everything_when_too_high() {
        let result = run_with(
            &two_triangles(),
            &MossConfig {
                support_threshold: 3,
                ..MossConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(result.patterns.is_empty());
        assert!(result.completed);
    }

    #[test]
    fn time_budget_marks_run_incomplete() {
        // A graph with a single repeated label is a worst case for complete
        // mining; a zero budget must stop immediately and be marked incomplete.
        let mut g = LabeledGraph::new();
        let vs: Vec<_> = (0..30).map(|_| g.add_vertex(Label(0))).collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                if (i + j) % 3 == 0 {
                    g.add_edge(vs[i], vs[j]);
                }
            }
        }
        let result = run_with(
            &g,
            &MossConfig {
                time_budget: Duration::from_millis(0),
                ..MossConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(!result.completed);
    }

    #[test]
    fn max_edges_bounds_pattern_size() {
        let result = run_with(
            &two_triangles(),
            &MossConfig {
                max_edges: 1,
                ..MossConfig::default()
            },
            &mut MineContext::new(),
        );
        assert!(result.patterns.iter().all(|p| p.pattern.edge_count() <= 2));
        assert!(!result.completed, "cut off by max_edges");
    }

    #[test]
    fn histogram_reports_sizes() {
        let result = run_with(
            &two_triangles(),
            &MossConfig::default(),
            &mut MineContext::new(),
        );
        let hist = result.size_histogram_vertices();
        assert_eq!(hist.get(&2), Some(&3));
        assert_eq!(hist.get(&3), Some(&4));
    }
}
