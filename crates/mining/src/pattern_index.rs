//! Isomorphism-aware pattern deduplication.
//!
//! Miners repeatedly generate candidate patterns and must ask "have I seen
//! this pattern (up to isomorphism) before?". Exact canonical codes are
//! expensive for general graphs, so the index follows the paper's philosophy
//! (Section 4.2.2): bucket patterns by a cheap isomorphism-invariant
//! signature, and only run the full VF2 isomorphism test against patterns in
//! the same bucket.
//!
//! The index doubles as a memo keyed on isomorphism class: a caller keeps a
//! `Vec` of values indexed by [`PatternId`], looks a pattern up with
//! [`PatternIndex::find`] and, on a miss, [`PatternIndex::insert`]s it and
//! pushes the freshly computed value.

use rustc_hash::FxHashMap;
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::iso;
use spidermine_graph::signature::{invariant_signature, InvariantSignature};

/// Identifier assigned to each distinct (up to isomorphism) pattern.
pub type PatternId = usize;

/// A deduplicating registry of patterns.
#[derive(Default)]
pub struct PatternIndex {
    patterns: Vec<LabeledGraph>,
    buckets: FxHashMap<InvariantSignature, Vec<PatternId>>,
    /// Number of VF2 isomorphism tests actually executed (for the ablation
    /// bench comparing signature pruning against brute-force checking).
    iso_tests: usize,
}

impl PatternIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts `pattern` unless an isomorphic pattern is already present.
    ///
    /// Returns `(id, inserted)` where `id` identifies the canonical
    /// representative and `inserted` says whether the pattern was new.
    pub fn insert(&mut self, pattern: LabeledGraph) -> (PatternId, bool) {
        let sig = invariant_signature(&pattern);
        if let Some(bucket) = self.buckets.get(&sig) {
            for &id in bucket {
                self.iso_tests += 1;
                if iso::are_isomorphic(&self.patterns[id], &pattern) {
                    return (id, false);
                }
            }
        }
        let id = self.patterns.len();
        self.patterns.push(pattern);
        self.buckets.entry(sig).or_default().push(id);
        (id, true)
    }

    /// The id of the stored pattern isomorphic to `pattern`, if any, without
    /// inserting (and without cloning `pattern`).
    pub fn find(&mut self, pattern: &LabeledGraph) -> Option<PatternId> {
        let sig = invariant_signature(pattern);
        let bucket = self.buckets.get(&sig)?;
        for &id in bucket {
            self.iso_tests += 1;
            if iso::are_isomorphic(&self.patterns[id], pattern) {
                return Some(id);
            }
        }
        None
    }

    /// The representative pattern for `id`.
    pub fn get(&self, id: PatternId) -> &LabeledGraph {
        &self.patterns[id]
    }

    /// Number of distinct patterns stored.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// True if no patterns are stored.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }

    /// Number of VF2 isomorphism tests executed so far.
    pub fn iso_tests_run(&self) -> usize {
        self.iso_tests
    }

    /// Iterates over `(id, pattern)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (PatternId, &LabeledGraph)> {
        self.patterns.iter().enumerate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::label::Label;

    fn path(labels: &[u32]) -> LabeledGraph {
        let labels: Vec<Label> = labels.iter().map(|&l| Label(l)).collect();
        let edges: Vec<(u32, u32)> = (0..labels.len() as u32 - 1).map(|i| (i, i + 1)).collect();
        LabeledGraph::from_parts(&labels, &edges)
    }

    #[test]
    fn duplicate_insertion_returns_same_id() {
        let mut idx = PatternIndex::new();
        let (a, new_a) = idx.insert(path(&[1, 2, 3]));
        let (b, new_b) = idx.insert(path(&[3, 2, 1])); // isomorphic, reversed
        assert!(new_a);
        assert!(!new_b);
        assert_eq!(a, b);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn distinct_patterns_get_distinct_ids() {
        let mut idx = PatternIndex::new();
        let (a, _) = idx.insert(path(&[1, 2, 3]));
        let (b, _) = idx.insert(path(&[1, 2, 4]));
        assert_ne!(a, b);
        assert_eq!(idx.len(), 2);
        assert!(!idx.is_empty());
    }

    #[test]
    fn find_does_not_insert() {
        let mut idx = PatternIndex::new();
        assert_eq!(idx.find(&path(&[1, 2])), None);
        let (id, _) = idx.insert(path(&[1, 2]));
        assert_eq!(idx.find(&path(&[2, 1])), Some(id));
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn ids_key_a_value_table_per_isomorphism_class() {
        // The memo pattern the transaction miners use: values live in a Vec
        // indexed by PatternId, so isomorphic patterns are evaluated once.
        let mut idx = PatternIndex::new();
        let mut values: Vec<usize> = Vec::new();
        let mut evaluations = 0;
        let a = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let b = LabeledGraph::from_parts(&[Label(1), Label(0)], &[(0, 1)]);
        for g in [&a, &b, &a] {
            let value = match idx.find(g) {
                Some(id) => values[id],
                None => {
                    evaluations += 1;
                    idx.insert(g.clone());
                    values.push(42);
                    42
                }
            };
            assert_eq!(value, 42);
        }
        assert_eq!(evaluations, 1);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn signature_buckets_avoid_iso_tests_for_different_shapes() {
        let mut idx = PatternIndex::new();
        idx.insert(path(&[1, 2, 3]));
        idx.insert(path(&[4, 5]));
        idx.insert(path(&[9, 9, 9, 9]));
        // All signatures differ, so no isomorphism tests were needed.
        assert_eq!(idx.iso_tests_run(), 0);
    }

    #[test]
    fn get_and_iter_expose_representatives() {
        let mut idx = PatternIndex::new();
        let (id, _) = idx.insert(path(&[1, 2]));
        assert_eq!(idx.get(id).vertex_count(), 2);
        assert_eq!(idx.iter().count(), 1);
    }
}
