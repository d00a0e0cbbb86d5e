//! CheckMerge: merging grown patterns whose embeddings overlap.
//!
//! Stage II's key observation (Section 4.1): if two seed spiders landed inside
//! the same large pattern, their grown patterns must eventually overlap on
//! some embeddings, and the merged pattern is a subgraph of that large
//! pattern. Merging is what separates "on the way to a large pattern" from
//! "growing toward a small one", so only merged patterns survive the Stage II
//! pruning.
//!
//! This implementation detects overlap through the host vertices covered by
//! each pattern's embeddings (read straight off the flat rows of the shared
//! [`EmbeddingStore`]), merges every overlapping embedding pair into the
//! induced union subgraph, groups the unions by isomorphism (using the
//! spider-set representation to prune isomorphism tests), and keeps each
//! group that is frequent. The expensive per-pair work (coverage sets,
//! overlap detection, union construction, spider-set hashing) runs in
//! parallel over blocks of candidate pairs; only the order-sensitive
//! grouping walk stays on the driver, consuming the scans in pair order so
//! the round is byte-identical to a sequential one. Group support is computed
//! **raw** from the round's witness rows and never memoized per pattern
//! class: it is a per-round quantity (the same union class legitimately
//! collects more witnesses in later Stage II rounds as patterns grow toward
//! each other), so a memo keyed on the pattern class would freeze the first
//! round's count and could reject every later merge of that class.

use crate::config::SpiderMineConfig;
use crate::grow::GrownPattern;
use crate::spider_set::{IsoCheck, PrunedIsoOracle, SpiderSet};
use rayon::prelude::*;
use rustc_hash::{FxHashMap, FxHashSet};
use spidermine_graph::graph::{LabeledGraph, VertexId};
use spidermine_graph::iso;
use spidermine_graph::subgraph;
use spidermine_mining::embedding::Embedding;
use spidermine_mining::eval::{EmbeddingStore, FlatEmbeddings};

/// Upper bound on overlapping embedding pairs examined per pattern pair.
const MAX_PAIRS_PER_PATTERN_PAIR: usize = 32;

/// Upper bound on overlapping embedding pairs examined per merge round.
const MAX_PAIRS_PER_ROUND: usize = 4096;

/// Candidate-pair batch scanned in parallel before the sequential grouping
/// walk consumes it (bounds wasted union construction past the round cap to
/// one batch).
const PAIR_SCAN_BLOCK: usize = 64;

/// Statistics from one merge round.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MergeStats {
    /// Pattern pairs whose covered vertex sets intersected.
    pub candidate_pairs: usize,
    /// Overlapping embedding pairs examined.
    pub embedding_pairs: usize,
    /// Merged patterns that passed the support threshold.
    pub merged_patterns: usize,
    /// Isomorphism tests skipped thanks to spider-set pruning.
    pub iso_tests_pruned: usize,
    /// Full VF2 isomorphism tests run.
    pub iso_tests_run: usize,
    /// Union occurrences confirmed isomorphic to an existing group whose
    /// representative embedding could not be re-fetched, and which were
    /// therefore dropped from the group's support set. Structurally this
    /// should be impossible (an isomorphic pattern always embeds into the
    /// union); a non-zero count flags a matcher/oracle disagreement instead
    /// of hiding it.
    pub dropped_embeddings: usize,
}

/// Detects and performs merges among `patterns`, whose embedding sets live in
/// `store`; merged groups are interned into `store` too.
///
/// Returns the merged patterns (marked `merged = true`) plus statistics. The
/// indices of source patterns that participated in at least one successful
/// merge are also returned so the caller can mark them.
pub fn check_merges(
    host: &LabeledGraph,
    patterns: &[GrownPattern],
    config: &SpiderMineConfig,
    store: &mut EmbeddingStore,
) -> (Vec<GrownPattern>, Vec<usize>, MergeStats) {
    let mut stats = MergeStats::default();
    let sigma = config.support_threshold;
    // Host vertex -> patterns covering it, to find candidate pairs cheaply.
    // Coverage sets are independent per pattern: build them in parallel over
    // a read-only view of the store.
    let store_ref: &EmbeddingStore = store;
    let covered: Vec<FxHashSet<VertexId>> = patterns
        .par_iter()
        .map(|p| {
            store_ref
                .view(p.embeddings)
                .flat()
                .iter()
                .copied()
                .collect::<FxHashSet<VertexId>>()
        })
        .collect();
    let mut candidate_pairs: FxHashSet<(usize, usize)> = FxHashSet::default();
    {
        let mut by_vertex: FxHashMap<VertexId, Vec<usize>> = FxHashMap::default();
        for (i, set) in covered.iter().enumerate() {
            for &v in set {
                by_vertex.entry(v).or_default().push(i);
            }
        }
        for owners in by_vertex.values() {
            for a in 0..owners.len() {
                for b in (a + 1)..owners.len() {
                    let (i, j) = (owners[a].min(owners[b]), owners[a].max(owners[b]));
                    if i != j {
                        candidate_pairs.insert((i, j));
                    }
                }
            }
        }
    }
    stats.candidate_pairs = candidate_pairs.len();

    // Group merged union graphs by isomorphism class. Group embeddings
    // accumulate in owned flat buffers and are interned at the end, once the
    // store's views are no longer being read.
    struct MergedGroup {
        pattern: LabeledGraph,
        spider_set: SpiderSet,
        rows: FlatEmbeddings,
        sources: FxHashSet<usize>,
    }
    /// One union occurrence produced by the parallel pair scan: the induced
    /// union subgraph, its host origin row, and its spider set (the cheap
    /// isomorphism-pruning signature, computed off the driver thread).
    struct UnionOcc {
        graph: LabeledGraph,
        origin: Embedding,
        spider_set: SpiderSet,
    }
    let mut groups: Vec<MergedGroup> = Vec::new();
    let mut iso_oracle = PrunedIsoOracle::new();

    let mut ordered_pairs: Vec<(usize, usize)> = candidate_pairs.into_iter().collect();
    ordered_pairs.sort_unstable();
    // The expensive half of a merge round — overlap detection, union-subgraph
    // construction, spider-set hashing — is independent per candidate pair
    // (each pair examines a deterministic set of up to
    // `MAX_PAIRS_PER_PATTERN_PAIR` embedding pairs, regardless of global
    // state). Scan blocks of pairs in parallel, then walk the scans in pair
    // order on the driver: the grouping, the round cap, and all statistics
    // behave exactly as in the sequential loop.
    'pairs: for block in ordered_pairs.chunks(PAIR_SCAN_BLOCK) {
        if stats.embedding_pairs >= MAX_PAIRS_PER_ROUND {
            break;
        }
        let scans: Vec<Vec<UnionOcc>> = block
            .par_iter()
            .map(|&(i, j)| {
                let rows_i = store_ref.view(patterns[i].embeddings);
                let rows_j = store_ref.view(patterns[j].embeddings);
                let mut unions: Vec<UnionOcc> = Vec::new();
                for e1 in rows_i.rows() {
                    if unions.len() >= MAX_PAIRS_PER_PATTERN_PAIR {
                        break;
                    }
                    let set1: FxHashSet<VertexId> = e1.iter().copied().collect();
                    for e2 in rows_j.rows() {
                        if unions.len() >= MAX_PAIRS_PER_PATTERN_PAIR {
                            break;
                        }
                        if !e2.iter().any(|v| set1.contains(v)) {
                            continue;
                        }
                        // Union of the two embeddings' host edges.
                        let mut host_edges: Vec<(VertexId, VertexId)> = Vec::new();
                        for (u, v) in patterns[i].pattern.edges() {
                            host_edges.push((e1[u.index()], e1[v.index()]));
                        }
                        for (u, v) in patterns[j].pattern.edges() {
                            host_edges.push((e2[u.index()], e2[v.index()]));
                        }
                        let merged = subgraph::edge_subgraph(host, &host_edges);
                        let spider_set = SpiderSet::of(&merged.graph, config.r.max(1));
                        unions.push(UnionOcc {
                            graph: merged.graph,
                            origin: merged.origin,
                            spider_set,
                        });
                    }
                }
                unions
            })
            .collect();
        for (&(i, j), unions) in block.iter().zip(scans) {
            if stats.embedding_pairs >= MAX_PAIRS_PER_ROUND {
                break 'pairs;
            }
            stats.embedding_pairs += unions.len();
            for occ in unions {
                // Find (or create) the isomorphism group.
                let mut placed = false;
                for group in groups.iter_mut() {
                    match iso_oracle.check(
                        &group.pattern,
                        &group.spider_set,
                        &occ.graph,
                        &occ.spider_set,
                    ) {
                        IsoCheck::ConfirmedIsomorphic => {
                            // Map the representative onto this union occurrence.
                            if let Some(m) =
                                iso::find_embeddings(&group.pattern, &occ.graph, 1).pop()
                            {
                                let embedding: Embedding =
                                    m.iter().map(|&x| occ.origin[x.index()]).collect();
                                group.rows.push_row(&embedding);
                            } else {
                                // The confirmed-isomorphic representative must
                                // embed; if the matcher disagrees, count the
                                // dropped occurrence instead of losing it
                                // silently (surfaced in `MiningStats` and
                                // `MineOutcome`).
                                stats.dropped_embeddings += 1;
                            }
                            group.sources.insert(i);
                            group.sources.insert(j);
                            placed = true;
                            break;
                        }
                        _ => continue,
                    }
                }
                if !placed {
                    let mut rows = FlatEmbeddings::new(occ.graph.vertex_count());
                    rows.push_row(&occ.origin);
                    // Union occurrences are witnesses, not the pattern's
                    // complete embedding set.
                    rows.mark_truncated();
                    let mut sources = FxHashSet::default();
                    sources.insert(i);
                    sources.insert(j);
                    groups.push(MergedGroup {
                        pattern: occ.graph,
                        spider_set: occ.spider_set,
                        rows,
                        sources,
                    });
                }
            }
        }
    }
    stats.iso_tests_pruned = iso_oracle.pruned;
    stats.iso_tests_run = iso_oracle.full_tests;

    let mut merged_out = Vec::new();
    let mut participating: FxHashSet<usize> = FxHashSet::default();
    for group in groups {
        let support = group.rows.view().support(config.support_measure);
        if support < sigma {
            continue;
        }
        stats.merged_patterns += 1;
        participating.extend(group.sources.iter().copied());
        let mut seed_ids: Vec<_> = group
            .sources
            .iter()
            .flat_map(|&s| patterns[s].seed_ids.iter().copied())
            .collect();
        seed_ids.sort_unstable();
        seed_ids.dedup();
        let boundary: Vec<VertexId> = group.pattern.vertices().collect();
        merged_out.push(GrownPattern {
            embeddings: store.insert_scratch(&group.rows),
            pattern: group.pattern,
            boundary,
            merged: true,
            seed_ids,
            exhausted: false,
        });
    }
    let mut participating: Vec<usize> = participating.into_iter().collect();
    participating.sort_unstable();
    (merged_out, participating, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::label::Label;
    use spidermine_mining::spider::{SpiderCatalog, SpiderMiningConfig};

    /// Host with two copies of the 5-path 0-1-2-3-4 (labels 0..5).
    fn host() -> LabeledGraph {
        LabeledGraph::from_parts(
            &[
                Label(0),
                Label(1),
                Label(2),
                Label(3),
                Label(4),
                Label(0),
                Label(1),
                Label(2),
                Label(3),
                Label(4),
            ],
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (5, 6),
                (6, 7),
                (7, 8),
                (8, 9),
            ],
        )
    }

    fn config() -> SpiderMineConfig {
        SpiderMineConfig {
            support_threshold: 2,
            ..SpiderMineConfig::default()
        }
    }

    fn run_merges(
        host: &LabeledGraph,
        patterns: &[GrownPattern],
        store: &mut EmbeddingStore,
    ) -> (Vec<GrownPattern>, Vec<usize>, MergeStats) {
        check_merges(host, patterns, &config(), store)
    }

    fn grown_from_spider(
        host: &LabeledGraph,
        head: Label,
        store: &mut EmbeddingStore,
    ) -> GrownPattern {
        let catalog = SpiderCatalog::mine(
            host,
            &SpiderMiningConfig {
                support_threshold: 2,
                ..SpiderMiningConfig::default()
            },
        );
        let spider = catalog
            .spiders()
            .filter(|s| s.head_label == head)
            .max_by_key(|s| s.size())
            .expect("spider with requested head");
        crate::grow::seed_pattern(host, spider, &config(), store)
    }

    #[test]
    fn overlapping_patterns_merge_into_a_larger_one() {
        let host = host();
        let mut store = EmbeddingStore::new();
        // Spider at label 1 covers {0,1,2}; spider at label 2 covers {1,2,3}:
        // they overlap, and their union is the 4-path 0-1-2-3 in both copies.
        let p1 = grown_from_spider(&host, Label(1), &mut store);
        let p2 = grown_from_spider(&host, Label(2), &mut store);
        let (merged, participating, stats) = run_merges(&host, &[p1, p2], &mut store);
        assert_eq!(stats.candidate_pairs, 1);
        assert!(stats.embedding_pairs >= 2);
        assert_eq!(stats.dropped_embeddings, 0);
        assert_eq!(merged.len(), 1, "one isomorphism class of unions");
        let m = &merged[0];
        assert!(m.merged);
        assert_eq!(m.pattern.vertex_count(), 4);
        assert!(m.support(&config(), &store) >= 2);
        assert_eq!(participating, vec![0, 1]);
        // Merged embeddings are valid.
        let ep = spidermine_mining::embedding::EmbeddedPattern::new(
            m.pattern.clone(),
            store.to_embeddings(m.embeddings),
        );
        assert!(ep.validate_against(&host));
    }

    #[test]
    fn disjoint_patterns_do_not_merge() {
        let host = host();
        let mut store = EmbeddingStore::new();
        let p1 = grown_from_spider(&host, Label(1), &mut store);
        let p2 = grown_from_spider(&host, Label(4), &mut store);
        // Label-1 spider covers {0,1,2}; label-4 spider covers {3,4}: they
        // share vertex 3? No: label-4 head has a single label-3 leaf, so it
        // covers {3,4}; label-1 spider covers {0,1,2} — disjoint.
        let (merged, participating, stats) = run_merges(&host, &[p1, p2], &mut store);
        assert!(merged.is_empty());
        assert!(participating.is_empty());
        assert_eq!(stats.merged_patterns, 0);
    }

    #[test]
    fn infrequent_merges_are_rejected() {
        // The two hand-built patterns overlap exactly once, so the merged
        // union has support 1 and sigma = 2 rejects it.
        let single = LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(2), Label(0), Label(1)],
            &[(0, 1), (1, 2), (3, 4)],
        );
        let mut store = EmbeddingStore::new();
        let edge01 = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let edge12 = LabeledGraph::from_parts(&[Label(1), Label(2)], &[(0, 1)]);
        let p1 = GrownPattern {
            embeddings: store.insert_embeddings(
                2,
                &[
                    vec![VertexId(0), VertexId(1)],
                    vec![VertexId(3), VertexId(4)],
                ],
                true,
            ),
            boundary: edge01.vertices().collect(),
            pattern: edge01,
            merged: false,
            seed_ids: vec![0],
            exhausted: false,
        };
        let p2 = GrownPattern {
            embeddings: store.insert_embeddings(2, &[vec![VertexId(1), VertexId(2)]], true),
            boundary: edge12.vertices().collect(),
            pattern: edge12,
            merged: false,
            seed_ids: vec![1],
            exhausted: false,
        };
        let (merged, _, stats) = run_merges(&single, &[p1, p2], &mut store);
        assert!(merged.is_empty());
        assert!(stats.embedding_pairs >= 1, "the overlap was examined");
    }

    #[test]
    fn merge_of_identical_patterns_is_not_produced_from_self() {
        let host = host();
        let mut store = EmbeddingStore::new();
        let p1 = grown_from_spider(&host, Label(1), &mut store);
        let (merged, _, stats) = run_merges(&host, &[p1], &mut store);
        assert!(
            merged.is_empty(),
            "a single pattern has no one to merge with"
        );
        assert_eq!(stats.candidate_pairs, 0);
    }
}
