//! Mining results and statistics.

use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::traversal;
use spidermine_mining::embedding::Embedding;
use std::collections::BTreeMap;
use std::time::Duration;

/// One pattern returned by SpiderMine.
#[derive(Clone, Debug)]
pub struct MinedPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Support under the miner's configured measure.
    pub support: usize,
    /// Embeddings retained for the pattern (may be capped).
    pub embeddings: Vec<Embedding>,
    /// Exact diameter of the pattern.
    pub diameter: u32,
    /// Whether the pattern resulted from a Stage II merge (as opposed to the
    /// unmerged fallback).
    pub from_merge: bool,
}

impl MinedPattern {
    /// Pattern size in edges (the paper's definition of size).
    pub fn size_edges(&self) -> usize {
        self.pattern.edge_count()
    }

    /// Pattern size in vertices (what several figures of the paper plot).
    pub fn size_vertices(&self) -> usize {
        self.pattern.vertex_count()
    }
}

/// Per-stage timing and work counters.
#[derive(Clone, Debug, Default)]
pub struct MiningStats {
    /// Number of r-spiders mined in Stage I.
    pub spider_count: usize,
    /// Number of seed spiders drawn (M).
    pub seed_count: usize,
    /// Stage II SpiderGrow iterations executed.
    pub stage_two_iterations: u32,
    /// Total merged patterns produced across Stage II.
    pub merges: usize,
    /// Isomorphism tests skipped thanks to spider-set pruning.
    pub iso_tests_pruned: usize,
    /// Full isomorphism tests run.
    pub iso_tests_run: usize,
    /// Merged-union occurrences that were confirmed isomorphic to an existing
    /// group but could not be re-fetched and were dropped from the group's
    /// support set (see `MergeStats::dropped_embeddings`). Should be 0.
    pub merge_embeddings_dropped: usize,
    /// Wall-clock time of Stage I (spider mining).
    pub stage_one_time: Duration,
    /// Wall-clock time of Stage II (identification).
    pub stage_two_time: Duration,
    /// Wall-clock time of Stage III (recovery).
    pub stage_three_time: Duration,
    /// Total wall-clock time.
    pub total_time: Duration,
    /// True if the run observed a fired `CancelToken` and wound down early;
    /// the returned patterns are a valid partial result.
    pub cancelled: bool,
}

/// The result of a SpiderMine run.
#[derive(Clone, Debug, Default)]
pub struct MiningResult {
    /// Top-K patterns, sorted by decreasing size (edges, then vertices).
    pub patterns: Vec<MinedPattern>,
    /// For each pattern, the position at which the select stage accepted it
    /// — and streamed it through the context's sink — before the final
    /// ranking: `patterns[i]` was streamed `stream_order[i]`-th. Filled by
    /// [`MiningResult::sort_patterns`].
    pub stream_order: Vec<usize>,
    /// Work and timing statistics.
    pub stats: MiningStats,
}

impl MiningResult {
    /// Histogram of pattern sizes: `size -> how many returned patterns have
    /// that size`. `by_vertices` selects |V| (used by Figures 4–8, 20, 21) vs
    /// |E| (used by Figures 13, 18).
    pub fn size_histogram(&self, by_vertices: bool) -> BTreeMap<usize, usize> {
        let mut hist = BTreeMap::new();
        for p in &self.patterns {
            let size = if by_vertices {
                p.size_vertices()
            } else {
                p.size_edges()
            };
            *hist.entry(size).or_insert(0) += 1;
        }
        hist
    }

    /// Size (in vertices) of the largest returned pattern, 0 if none.
    pub fn largest_vertices(&self) -> usize {
        self.patterns
            .iter()
            .map(MinedPattern::size_vertices)
            .max()
            .unwrap_or(0)
    }

    /// Size (in edges) of the largest returned pattern, 0 if none.
    pub fn largest_edges(&self) -> usize {
        self.patterns
            .iter()
            .map(MinedPattern::size_edges)
            .max()
            .unwrap_or(0)
    }

    /// Sorts patterns by decreasing size (stable); called by the miner before
    /// returning. Records where each pattern stood before the sort in
    /// [`MiningResult::stream_order`].
    pub fn sort_patterns(&mut self) {
        let mut ranked: Vec<(usize, MinedPattern)> = std::mem::take(&mut self.patterns)
            .into_iter()
            .enumerate()
            .collect();
        ranked.sort_by_key(|(_, p)| {
            std::cmp::Reverse((p.size_edges(), p.size_vertices(), p.support))
        });
        (self.stream_order, self.patterns) = ranked.into_iter().unzip();
    }
}

/// Helper used by miners to build a [`MinedPattern`] with its diameter filled in.
pub fn mined_pattern(
    pattern: LabeledGraph,
    support: usize,
    embeddings: Vec<Embedding>,
    from_merge: bool,
) -> MinedPattern {
    let diameter = traversal::diameter(&pattern);
    MinedPattern {
        pattern,
        support,
        embeddings,
        diameter,
        from_merge,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::label::Label;

    fn pattern_of_size(n: usize) -> MinedPattern {
        let labels: Vec<Label> = (0..n as u32).map(Label).collect();
        let edges: Vec<(u32, u32)> = (0..n as u32 - 1).map(|i| (i, i + 1)).collect();
        mined_pattern(LabeledGraph::from_parts(&labels, &edges), 2, vec![], true)
    }

    #[test]
    fn histogram_counts_sizes() {
        let result = MiningResult {
            patterns: vec![pattern_of_size(3), pattern_of_size(3), pattern_of_size(5)],
            ..MiningResult::default()
        };
        let by_v = result.size_histogram(true);
        assert_eq!(by_v.get(&3), Some(&2));
        assert_eq!(by_v.get(&5), Some(&1));
        let by_e = result.size_histogram(false);
        assert_eq!(by_e.get(&2), Some(&2));
        assert_eq!(by_e.get(&4), Some(&1));
    }

    #[test]
    fn largest_helpers() {
        let mut result = MiningResult::default();
        assert_eq!(result.largest_vertices(), 0);
        assert_eq!(result.largest_edges(), 0);
        result.patterns = vec![pattern_of_size(3), pattern_of_size(7)];
        assert_eq!(result.largest_vertices(), 7);
        assert_eq!(result.largest_edges(), 6);
    }

    #[test]
    fn sort_orders_by_decreasing_size() {
        let mut result = MiningResult {
            patterns: vec![pattern_of_size(3), pattern_of_size(7), pattern_of_size(5)],
            ..MiningResult::default()
        };
        result.sort_patterns();
        let sizes: Vec<usize> = result.patterns.iter().map(|p| p.size_vertices()).collect();
        assert_eq!(sizes, vec![7, 5, 3]);
        assert_eq!(result.stream_order, vec![1, 2, 0]);
    }

    #[test]
    fn mined_pattern_computes_diameter() {
        let p = pattern_of_size(4);
        assert_eq!(p.diameter, 3);
        assert_eq!(p.size_edges(), 3);
        assert_eq!(p.size_vertices(), 4);
    }
}
