//! Property-based tests on the core invariants of the workspace:
//! graph construction, isomorphism/signature consistency (Theorem 2),
//! support-measure ordering, spider correctness and IO round-trips.

use proptest::prelude::*;
use spidermine::spider_set::SpiderSet;
use spidermine_graph::graph::{LabeledGraph, VertexId};
use spidermine_graph::label::Label;
use spidermine_graph::{io, iso, signature, traversal};
use spidermine_mining::spider::{SpiderCatalog, SpiderMiningConfig};
use spidermine_mining::support;

/// Strategy: a random small labeled graph given as (labels, edge pairs).
fn arbitrary_graph(max_vertices: usize, max_labels: u32) -> impl Strategy<Value = LabeledGraph> {
    (2..=max_vertices).prop_flat_map(move |n| {
        let labels = proptest::collection::vec(0..max_labels, n);
        let edges = proptest::collection::vec((0..n as u32, 0..n as u32), 0..(2 * n));
        (labels, edges).prop_map(|(labels, edges)| {
            let labels: Vec<Label> = labels.into_iter().map(Label).collect();
            let edges: Vec<(u32, u32)> = edges.into_iter().filter(|(a, b)| a != b).collect();
            LabeledGraph::from_parts(&labels, &edges)
        })
    })
}

/// Relabels vertex ids of `g` by rotating them, producing an isomorphic graph.
fn rotate_vertices(g: &LabeledGraph, shift: usize) -> LabeledGraph {
    let n = g.vertex_count();
    if n == 0 {
        return g.clone();
    }
    let map = |v: VertexId| VertexId(((v.index() + shift) % n) as u32);
    let mut labels = vec![Label(0); n];
    for v in g.vertices() {
        labels[map(v).index()] = g.label(v);
    }
    let edges: Vec<(u32, u32)> = g.edges().map(|(u, v)| (map(u).0, map(v).0)).collect();
    LabeledGraph::from_parts(&labels, &edges)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The graph structure never contains duplicate or self-loop edges, and
    /// degrees sum to twice the edge count.
    #[test]
    fn graph_construction_invariants(g in arbitrary_graph(12, 5)) {
        let degree_sum: usize = g.vertices().map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
        for v in g.vertices() {
            let neighbors = g.neighbors(v);
            prop_assert!(!neighbors.contains(&v), "self loop at {v:?}");
            let mut sorted = neighbors.to_vec();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), neighbors.len(), "duplicate neighbor");
        }
    }

    /// Theorem 2 and its signature analogue: a vertex-id relabeling produces an
    /// isomorphic graph with identical invariant signature and spider-set.
    #[test]
    fn relabeling_preserves_isomorphism_and_signatures(
        g in arbitrary_graph(9, 4),
        shift in 1usize..8,
    ) {
        let h = rotate_vertices(&g, shift);
        prop_assert!(iso::are_isomorphic(&g, &h));
        prop_assert_eq!(
            signature::invariant_signature(&g),
            signature::invariant_signature(&h)
        );
        prop_assert_eq!(SpiderSet::of(&g, 1), SpiderSet::of(&h, 1));
        prop_assert_eq!(SpiderSet::of(&g, 2), SpiderSet::of(&h, 2));
    }

    /// Adding one edge to a graph makes it non-isomorphic to the original
    /// (edge counts differ) and changes nothing about the original's signature.
    #[test]
    fn adding_an_edge_breaks_isomorphism(g in arbitrary_graph(10, 3)) {
        // Find a missing edge, if any.
        let mut extended = g.clone();
        let mut found = None;
        'outer: for u in g.vertices() {
            for v in g.vertices() {
                if u < v && !g.has_edge(u, v) {
                    found = Some((u, v));
                    break 'outer;
                }
            }
        }
        prop_assume!(found.is_some());
        let (u, v) = found.expect("checked above");
        extended.add_edge(u, v);
        prop_assert!(!iso::are_isomorphic(&g, &extended));
        prop_assert_ne!(
            signature::invariant_signature(&g),
            signature::invariant_signature(&extended)
        );
    }

    /// Every embedding returned by the VF2 matcher is injective, label
    /// preserving and maps pattern edges to host edges.
    #[test]
    fn embeddings_are_valid(
        host in arbitrary_graph(12, 3),
        pattern in arbitrary_graph(4, 3),
    ) {
        let embeddings = iso::find_embeddings(&pattern, &host, 50);
        for e in embeddings {
            prop_assert_eq!(e.len(), pattern.vertex_count());
            let mut seen = std::collections::HashSet::new();
            for &hv in &e {
                prop_assert!(seen.insert(hv), "non-injective embedding");
            }
            for p in pattern.vertices() {
                prop_assert_eq!(pattern.label(p), host.label(e[p.index()]));
            }
            for (a, b) in pattern.edges() {
                prop_assert!(host.has_edge(e[a.index()], e[b.index()]));
            }
        }
    }

    /// Support measures are consistently ordered:
    /// greedy-disjoint <= minimum-image <= embedding-count.
    #[test]
    fn support_measures_are_ordered(
        embeddings in proptest::collection::vec(
            proptest::collection::vec(0u32..30, 3),
            0..20,
        )
    ) {
        let embeddings: Vec<Vec<VertexId>> = embeddings
            .into_iter()
            .map(|e| {
                // Make each embedding injective by spreading duplicates.
                let mut seen = std::collections::HashSet::new();
                e.into_iter()
                    .enumerate()
                    .map(|(i, x)| {
                        let mut v = x;
                        while !seen.insert(v) {
                            v += 100 + i as u32;
                        }
                        VertexId(v)
                    })
                    .collect()
            })
            .collect();
        let d = support::greedy_disjoint_support(&embeddings);
        let m = support::minimum_image_support(3, &embeddings);
        let c = support::distinct_embedding_count(&embeddings);
        prop_assert!(d <= m, "disjoint {d} > MNI {m}");
        prop_assert!(m <= c, "MNI {m} > count {c}");
    }

    /// The word-parallel support kernels (single-pass MNI column matrix,
    /// bulk-probe greedy-disjoint) agree exactly with the retained scalar
    /// reference implementations on random embedding sets — including rows
    /// with repeated vertices and ids spanning multiple bitset words.
    #[test]
    fn word_parallel_kernels_match_scalar_reference(
        arity in 1usize..6,
        raw in proptest::collection::vec(proptest::collection::vec(0u32..400, 6), 0..60),
    ) {
        let embeddings: Vec<Vec<VertexId>> = raw
            .into_iter()
            .map(|e| e.into_iter().take(arity).map(VertexId).collect())
            .collect();
        let rows = || embeddings.iter().map(Vec::as_slice);
        prop_assert_eq!(
            support::minimum_image_support_rows(arity, rows(), embeddings.len()),
            support::minimum_image_support_rows_reference(arity, rows(), embeddings.len()),
            "MNI kernel diverged from reference"
        );
        prop_assert_eq!(
            support::greedy_disjoint_support_rows(rows()),
            support::greedy_disjoint_support_rows_reference(rows()),
            "greedy-disjoint kernel diverged from reference"
        );
    }

    /// The dispatched popcount sweep (AVX2 when the host has it, scalar
    /// otherwise) equals the always-compiled scalar reference on arbitrary
    /// word slices — the equivalence witness for both dispatch paths.
    #[test]
    fn popcount_dispatch_matches_scalar(
        words in proptest::collection::vec(0u64..u64::MAX, 0..80),
    ) {
        prop_assert_eq!(
            spidermine_mining::eval::popcount_words(&words),
            spidermine_mining::eval::popcount_words_scalar(&words)
        );
    }

    /// IO round-trip: parsing the serialized form reproduces the graph exactly.
    #[test]
    fn io_roundtrip(g in arbitrary_graph(15, 6)) {
        let text = io::write_graph(&g);
        let back = io::read_graph(&text).expect("parse back");
        prop_assert_eq!(back.vertex_count(), g.vertex_count());
        prop_assert_eq!(back.edge_count(), g.edge_count());
        prop_assert_eq!(back.labels(), g.labels());
        for (u, v) in g.edges() {
            prop_assert!(back.has_edge(u, v));
        }
    }

    /// Every spider mined by Stage I really matches at every head it reports,
    /// and its support equals its head count.
    #[test]
    fn mined_spiders_match_their_heads(g in arbitrary_graph(20, 4)) {
        let catalog = SpiderCatalog::mine(
            &g,
            &SpiderMiningConfig {
                support_threshold: 2,
                max_leaves: 4,
                ..SpiderMiningConfig::default()
            },
        );
        for spider in catalog.spiders() {
            prop_assert!(spider.support() >= 2);
            prop_assert_eq!(spider.support(), spider.heads.len());
            for &head in spider.heads {
                prop_assert!(spider.matches_at(&g, head));
            }
            // The spider pattern is a star: r-bounded from the head with r=1.
            let pattern = spider.to_pattern();
            prop_assert!(traversal::is_r_bounded_from(&pattern, VertexId(0), 1));
        }
    }

    /// BFS distances satisfy the triangle property along edges: adjacent
    /// vertices' distances from any source differ by at most 1.
    #[test]
    fn bfs_distances_are_lipschitz(g in arbitrary_graph(15, 3)) {
        prop_assume!(g.vertex_count() > 0);
        let dist = traversal::bfs_distances(&g, VertexId(0));
        for (u, v) in g.edges() {
            let (du, dv) = (dist[u.index()], dist[v.index()]);
            if du != traversal::UNREACHABLE && dv != traversal::UNREACHABLE {
                prop_assert!(du.abs_diff(dv) <= 1);
            } else {
                prop_assert_eq!(du, dv, "one endpoint reachable, the other not");
            }
        }
    }
}

proptest! {
    // Each case runs six miners over four load paths; keep the case count
    // modest so the suite stays fast.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Loading a graph through any snapshot path — eager from in-memory
    /// bytes, eager from a file, buffered-read, memory-mapped — yields
    /// byte-identical mining outcomes for all six algorithms. This is the
    /// contract that makes the mmap-backed zero-copy path a pure
    /// optimisation.
    #[test]
    fn snapshot_load_paths_are_mining_equivalent(g in arbitrary_graph(14, 4)) {
        use spidermine_engine::wire::encode_outcome_semantic;
        use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
        use spidermine_graph::GraphDatabase;
        use std::sync::atomic::{AtomicUsize, Ordering};

        static CASE: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spidermine-prop-snap-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("g.snap");
        io::save_snapshot(&path, &g).expect("save");

        let loads: Vec<(&str, LabeledGraph)> = vec![
            ("bytes", io::graph_from_snapshot(&io::snapshot_bytes(&g)).expect("decode")),
            ("eager", io::load_snapshot(&path, io::LoadMode::Eager).expect("eager")),
            ("buffered", io::load_snapshot(&path, io::LoadMode::Buffered).expect("buffered")),
            ("mapped", io::load_snapshot(&path, io::LoadMode::Mapped).expect("mapped")),
        ];
        for algo in Algorithm::all() {
            let mut reference: Option<Vec<u8>> = None;
            for (path_name, loaded) in &loads {
                // A fresh engine per run: no state can leak between paths.
                let engine = MineRequest::new(algo)
                    .support_threshold(2)
                    .k(2)
                    .d_max(4)
                    .seed(7)
                    .build()
                    .expect("valid request");
                let db;
                let source = if algo.wants_transactions() {
                    db = GraphDatabase::new(vec![loaded.clone(), loaded.clone()]);
                    GraphSource::Transactions(&db)
                } else {
                    GraphSource::Single(loaded)
                };
                let outcome = engine
                    .mine(&source, &mut MineContext::new())
                    .unwrap_or_else(|e| panic!("{algo} on {path_name}: {e}"));
                let bytes = encode_outcome_semantic(&outcome);
                match &reference {
                    None => reference = Some(bytes),
                    Some(expected) => prop_assert_eq!(
                        &bytes, expected,
                        "{} outcome differs between load paths at {}", algo, path_name
                    ),
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
