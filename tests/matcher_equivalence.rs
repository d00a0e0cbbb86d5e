//! ISSUE-1 equivalence properties: the indexed CSR matcher, the bitset
//! support measures and the CSR spider miner must agree exactly with the
//! retained naive reference implementations on random Erdős–Rényi and
//! Barabási–Albert graphs.
//!
//! The matcher checks assert *sequence* equality, not just set equality: the
//! indexed matcher enumerates candidates in the same ascending host-id order
//! as the reference, so its embedding list (and any `limit`-truncated prefix)
//! must be byte-identical — this is what keeps mining results unchanged.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_graph::graph::{LabeledGraph, VertexId};
use spidermine_graph::iso::EdgeExtension;
use spidermine_graph::label::Label;
use spidermine_graph::{generate, iso};
use spidermine_mining::spider::{reference as spider_reference, SpiderCatalog, SpiderMiningConfig};
use spidermine_mining::support;
use std::collections::{BTreeSet, HashSet};

/// Strategy: a random ER or BA host graph plus a small pattern drawn from the
/// same label space (so embeddings actually exist reasonably often).
fn host_and_pattern() -> impl Strategy<Value = (LabeledGraph, LabeledGraph)> {
    (0u64..1_000, 10usize..60, 2u32..8, 0u32..2, 2usize..6).prop_map(
        |(seed, n, labels, family, pattern_vertices)| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed);
            let host = if family == 0 {
                generate::erdos_renyi_average_degree(&mut rng, n, 3.0, labels)
            } else {
                generate::barabasi_albert(&mut rng, n, 2, labels)
            };
            let pattern = generate::random_connected_pattern(&mut rng, pattern_vertices, labels, 2);
            (host, pattern)
        },
    )
}

/// Naive MNI: one hash set per pattern position (the pre-bitset algorithm).
fn naive_minimum_image(pattern_vertices: usize, embeddings: &[Vec<VertexId>]) -> usize {
    if pattern_vertices == 0 || embeddings.is_empty() {
        return 0;
    }
    (0..pattern_vertices)
        .map(|p| {
            embeddings
                .iter()
                .map(|e| e[p])
                .collect::<HashSet<_>>()
                .len()
        })
        .min()
        .unwrap_or(0)
}

/// Naive greedy disjoint selection over a hash set of used vertices.
fn naive_greedy_disjoint(embeddings: &[Vec<VertexId>]) -> usize {
    let mut used: HashSet<VertexId> = HashSet::new();
    let mut count = 0;
    for e in embeddings {
        if e.iter().any(|v| used.contains(v)) {
            continue;
        }
        used.extend(e.iter().copied());
        count += 1;
    }
    count
}

/// Naive distinct-vertex-set count via a hash set of sorted keys.
fn naive_distinct_count(embeddings: &[Vec<VertexId>]) -> usize {
    let mut seen: HashSet<Vec<VertexId>> = HashSet::new();
    for e in embeddings {
        let mut key = e.clone();
        key.sort_unstable();
        seen.insert(key);
    }
    seen.len()
}

/// All one-edge extensions of `pattern` that at least one of `rows` can
/// realize in `host`, enumerated deterministically (forward by (vertex,
/// label), then closing edges by (u, v)).
fn candidate_extensions(
    host: &LabeledGraph,
    pattern: &LabeledGraph,
    rows: &[Vec<VertexId>],
) -> Vec<EdgeExtension> {
    let mut cands: Vec<EdgeExtension> = Vec::new();
    for p in pattern.vertices() {
        let mut labels: BTreeSet<u32> = BTreeSet::new();
        for row in rows {
            for &h in host.neighbors(row[p.index()]) {
                if !row.contains(&h) {
                    labels.insert(host.label(h).0);
                }
            }
        }
        cands.extend(labels.into_iter().map(|l| EdgeExtension::NewVertex {
            anchor: p,
            label: Label(l),
        }));
    }
    for u in pattern.vertices() {
        for v in pattern.vertices() {
            if u >= v || pattern.has_edge(u, v) {
                continue;
            }
            if rows
                .iter()
                .any(|row| host.has_edge(row[u.index()], row[v.index()]))
            {
                cands.push(EdgeExtension::ClosingEdge { u, v });
            }
        }
    }
    cands
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// ISSUE-3 equivalence property: growing a pattern edge by edge while
    /// maintaining its embeddings with `iso::extend_embeddings` yields, at
    /// every step of a random growth chain, exactly the embedding set the
    /// retained scratch matcher finds for the child pattern — the two paths
    /// are byte-identical once both are brought to the canonical sorted
    /// order (the incremental engine enumerates in parent order, the scratch
    /// matcher in its own search order).
    #[test]
    fn incremental_extension_equals_scratch_along_growth_chains(
        seed in 0u64..1_000,
        n in 10usize..45,
        labels in 2u32..7,
        family in 0u32..2,
        steps in 1usize..5,
        choice in 0usize..1_000,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let host = if family == 0 {
            generate::erdos_renyi_average_degree(&mut rng, n, 3.0, labels)
        } else {
            generate::barabasi_albert(&mut rng, n, 2, labels)
        };
        let Some((u, v)) = host.edges().next() else {
            return Ok(());
        };
        // Chain start: the single-edge pattern of the host's first edge, with
        // its complete (uncapped) embedding set from the scratch matcher.
        let mut pattern =
            LabeledGraph::from_parts(&[host.label(u), host.label(v)], &[(0, 1)]);
        let mut rows = iso::find_embeddings(&pattern, &host, usize::MAX);
        for step in 0..steps {
            // Keep the chain tractable on dense same-label neighborhoods.
            if rows.is_empty() || rows.len() > 20_000 {
                break;
            }
            let cands = candidate_extensions(&host, &pattern, &rows);
            if cands.is_empty() {
                break;
            }
            let ext = cands[(choice + step * 7) % cands.len()];
            let child = iso::apply_edge_extension(&pattern, ext);
            let flat: Vec<VertexId> = rows.iter().flatten().copied().collect();
            let mut out = Vec::new();
            let outcome = iso::extend_embeddings(
                &host,
                pattern.vertex_count(),
                &flat,
                ext,
                usize::MAX,
                &mut out,
            );
            prop_assert!(!outcome.truncated, "unlimited extension never truncates");
            let child_arity = child.vertex_count();
            let mut incremental: Vec<Vec<VertexId>> = out
                .chunks_exact(child_arity)
                .map(<[VertexId]>::to_vec)
                .collect();
            incremental.sort_unstable();
            let mut scratch = iso::find_embeddings(&child, &host, usize::MAX);
            scratch.sort_unstable();
            prop_assert_eq!(&incremental, &scratch, "chain step {} diverged", step);
            pattern = child;
            rows = scratch;
        }
    }

    /// The indexed matcher returns exactly the reference's embedding sequence,
    /// induced and non-induced, with and without a limit.
    #[test]
    fn indexed_matcher_equals_reference((host, pattern) in host_and_pattern()) {
        let unlimited = iso::find_embeddings(&pattern, &host, usize::MAX);
        prop_assert_eq!(
            &unlimited,
            &iso::reference::find_embeddings(&pattern, &host, usize::MAX),
            "non-induced, unlimited"
        );
        prop_assert_eq!(
            iso::find_induced_embeddings(&pattern, &host, usize::MAX),
            iso::reference::find_induced_embeddings(&pattern, &host, usize::MAX),
            "induced, unlimited"
        );
        for limit in [1usize, 2, 7] {
            prop_assert_eq!(
                iso::find_embeddings(&pattern, &host, limit),
                iso::reference::find_embeddings(&pattern, &host, limit),
                "non-induced, limit {}", limit
            );
        }
        // Count helpers agree with the enumeration.
        prop_assert_eq!(
            iso::is_subgraph_of(&pattern, &host),
            !unlimited.is_empty()
        );
    }

    /// The bitset support measures agree with their naive hash-set versions on
    /// embeddings produced by the matcher — so supports are unchanged across
    /// the representation change.
    #[test]
    fn support_measures_unchanged((host, pattern) in host_and_pattern()) {
        let embeddings = iso::find_embeddings(&pattern, &host, 500);
        let k = pattern.vertex_count();
        prop_assert_eq!(
            support::minimum_image_support(k, &embeddings),
            naive_minimum_image(k, &embeddings)
        );
        prop_assert_eq!(
            support::greedy_disjoint_support(&embeddings),
            naive_greedy_disjoint(&embeddings)
        );
        prop_assert_eq!(
            support::distinct_embedding_count(&embeddings),
            naive_distinct_count(&embeddings)
        );
    }

    /// The CSR spider miner produces the exact catalog (same spiders, same
    /// order, same head lists) as the original hash-map implementation.
    #[test]
    fn spider_catalog_unchanged(
        seed in 0u64..1_000,
        n in 10usize..80,
        labels in 2u32..10,
        family in 0u32..2,
        sigma in 1usize..4,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let host = if family == 0 {
            generate::erdos_renyi_average_degree(&mut rng, n, 3.0, labels)
        } else {
            generate::barabasi_albert(&mut rng, n, 2, labels)
        };
        let config = SpiderMiningConfig {
            support_threshold: sigma,
            max_leaves: 4,
            ..SpiderMiningConfig::default()
        };
        let fast = SpiderCatalog::mine(&host, &config);
        let slow = spider_reference::mine(&host, &config);
        prop_assert!(
            spider_reference::catalogs_equal(&fast, &slow),
            "catalogs diverge: csr has {} spiders, reference {}",
            fast.len(),
            slow.len()
        );
        // The catalog matches the reference at every pool width, whatever
        // the machine's default width is.
        for width in [1, 2, 4] {
            let pinned = rayon::with_width(width, || SpiderCatalog::mine(&host, &config));
            prop_assert!(
                spider_reference::catalogs_equal(&pinned, &slow),
                "width {} catalog diverges from the reference",
                width
            );
        }
        // Spider-support counting agrees at every vertex.
        for v in host.vertices() {
            prop_assert_eq!(
                fast.matching_at(&host, v),
                spider_reference::matching_at(&fast, &host, v),
                "matching_at diverges at {:?}", v
            );
        }
    }
}
