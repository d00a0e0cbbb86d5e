//! ORIGAMI: α-orthogonal, β-representative maximal pattern sampling
//! (graph-transaction setting).
//!
//! ORIGAMI avoids enumerating the complete pattern set by sampling random
//! *maximal* frequent patterns (random walks in the pattern lattice that stop
//! when no extension stays frequent) and then greedily selecting a subset of
//! pairwise-dissimilar ("orthogonal") representatives. As its authors note —
//! and the SpiderMine paper stresses in Figures 14–15 — the random walks tend
//! to get absorbed by the many small maximal patterns, so the result leans
//! toward small patterns when the database contains lots of them.

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rustc_hash::FxHashMap;
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::label::Label;
use spidermine_graph::transaction::GraphDatabase;
use spidermine_mining::context::{MineContext, StreamedPattern};
use spidermine_mining::pattern_index::PatternIndex;
use std::time::{Duration, Instant};

/// Configuration of the ORIGAMI baseline.
#[derive(Clone, Debug)]
pub struct OrigamiConfig {
    /// Minimum number of supporting transactions.
    pub support_threshold: usize,
    /// Number of random maximal-pattern walks.
    pub samples: usize,
    /// Maximum pairwise similarity allowed in the representative set (α).
    pub alpha: f64,
    /// RNG seed.
    pub rng_seed: u64,
    /// Wall-clock budget.
    pub time_budget: Duration,
    /// Safety bound on pattern edges during a walk.
    pub max_edges: usize,
}

impl Default for OrigamiConfig {
    fn default() -> Self {
        Self {
            support_threshold: 2,
            samples: 40,
            alpha: 0.6,
            rng_seed: 0x0e1_6a41,
            time_budget: Duration::from_secs(120),
            max_edges: 64,
        }
    }
}

/// A maximal pattern sampled by ORIGAMI.
#[derive(Clone, Debug)]
pub struct OrigamiPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Number of supporting transactions.
    pub support: usize,
}

/// Result of an ORIGAMI run.
#[derive(Clone, Debug, Default)]
pub struct OrigamiResult {
    /// The α-orthogonal representative set, sorted by decreasing size.
    pub patterns: Vec<OrigamiPattern>,
    /// All distinct maximal patterns sampled (before orthogonal selection).
    pub sampled_maximal: usize,
    /// Wall-clock runtime.
    pub runtime: Duration,
}

impl OrigamiResult {
    /// Histogram of pattern sizes in vertices (what Figures 14–15 plot).
    pub fn size_histogram_vertices(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.pattern.vertex_count()).or_insert(0) += 1;
        }
        hist
    }
}

/// Similarity between two patterns: Jaccard similarity of their edge
/// label-pair multisets (a cheap stand-in for maximal-common-subgraph overlap).
fn similarity(a: &LabeledGraph, b: &LabeledGraph) -> f64 {
    let multiset = |g: &LabeledGraph| {
        let mut m: FxHashMap<(Label, Label), usize> = FxHashMap::default();
        for (u, v) in g.edges() {
            let (lu, lv) = (g.label(u), g.label(v));
            let key = if lu <= lv { (lu, lv) } else { (lv, lu) };
            *m.entry(key).or_insert(0) += 1;
        }
        m
    };
    let (ma, mb) = (multiset(a), multiset(b));
    let mut intersection = 0usize;
    let mut union = 0usize;
    let mut keys: Vec<_> = ma.keys().chain(mb.keys()).collect();
    keys.sort_unstable();
    keys.dedup();
    for k in keys {
        let x = ma.get(k).copied().unwrap_or(0);
        let y = mb.get(k).copied().unwrap_or(0);
        intersection += x.min(y);
        union += x.max(y);
    }
    if union == 0 {
        0.0
    } else {
        intersection as f64 / union as f64
    }
}

/// Transaction support memoized per isomorphism class: transaction support
/// is a pure function of the class, so the memo is exact, and the walks
/// re-propose the same children constantly (that absorption into common
/// small maximal patterns is the algorithm's documented weakness; no reason
/// to pay for it twice). `supports[id]` is the support of the class
/// `classes` calls `id`.
#[derive(Default)]
struct SupportMemo {
    classes: PatternIndex,
    supports: Vec<usize>,
}

impl SupportMemo {
    fn support(&mut self, db: &GraphDatabase, pattern: &LabeledGraph) -> usize {
        if let Some(id) = self.classes.find(pattern) {
            return self.supports[id];
        }
        let support = db.support(pattern);
        self.classes.insert(pattern.clone());
        self.supports.push(support);
        support
    }
}

/// One random walk to a maximal frequent pattern: start from a random frequent
/// edge and keep applying random frequent one-edge extensions until none exist.
///
/// `memo` memoizes `db.support` per canonical pattern across *all* walks of a
/// run (see [`SupportMemo`]).
fn random_maximal_walk(
    db: &GraphDatabase,
    config: &OrigamiConfig,
    rng: &mut ChaCha8Rng,
    deadline: Instant,
    memo: &mut SupportMemo,
) -> Option<OrigamiPattern> {
    // Frequent single edges by transaction support.
    let mut edge_kinds: FxHashMap<(Label, Label), usize> = FxHashMap::default();
    for g in db.graphs() {
        let mut local: FxHashMap<(Label, Label), ()> = FxHashMap::default();
        for (u, v) in g.edges() {
            let (lu, lv) = (g.label(u), g.label(v));
            let key = if lu <= lv { (lu, lv) } else { (lv, lu) };
            local.entry(key).or_insert(());
        }
        for key in local.keys() {
            *edge_kinds.entry(*key).or_insert(0) += 1;
        }
    }
    let mut frequent_edges: Vec<(Label, Label)> = edge_kinds
        .iter()
        .filter(|(_, &c)| c >= config.support_threshold)
        .map(|(&k, _)| k)
        .collect();
    frequent_edges.sort_unstable();
    let &(la, lb) = frequent_edges.choose(rng)?;
    let mut pattern = LabeledGraph::from_parts(&[la, lb], &[(0, 1)]);
    let mut support = memo.support(db, &pattern);
    if support < config.support_threshold {
        return None;
    }

    // Labels present anywhere in the database, candidates for new vertices.
    let mut all_labels: Vec<Label> = db
        .graphs()
        .iter()
        .flat_map(|g| g.labels().iter().copied())
        .collect();
    all_labels.sort_unstable();
    all_labels.dedup();

    loop {
        if Instant::now() > deadline || pattern.edge_count() >= config.max_edges {
            break;
        }
        // Candidate extensions: attach a new labeled vertex to any pattern
        // vertex, or close an edge between two pattern vertices.
        let mut candidates: Vec<LabeledGraph> = Vec::new();
        for at in pattern.vertices() {
            for &label in &all_labels {
                let mut child = pattern.clone();
                let nv = child.add_vertex(label);
                child.add_edge(at, nv);
                candidates.push(child);
            }
        }
        for u in pattern.vertices() {
            for v in pattern.vertices() {
                if u < v && !pattern.has_edge(u, v) {
                    let mut child = pattern.clone();
                    child.add_edge(u, v);
                    candidates.push(child);
                }
            }
        }
        candidates.shuffle(rng);
        let mut advanced = false;
        for child in candidates {
            if Instant::now() > deadline {
                break;
            }
            let s = memo.support(db, &child);
            if s >= config.support_threshold {
                pattern = child;
                support = s;
                advanced = true;
                break;
            }
        }
        if !advanced {
            break;
        }
    }
    Some(OrigamiPattern { pattern, support })
}

/// Runs ORIGAMI on a transaction database under an execution context: the
/// cancel token is polled once per random maximal walk (a fired token
/// proceeds straight to representative selection over the patterns sampled so
/// far), and the selected representatives stream through the context's sink
/// before returning.
pub fn run_with(
    db: &GraphDatabase,
    config: &OrigamiConfig,
    ctx: &mut MineContext,
) -> OrigamiResult {
    let start = Instant::now();
    let deadline = start + config.time_budget;
    let mut rng = ChaCha8Rng::seed_from_u64(config.rng_seed);
    let mut result = OrigamiResult::default();
    if db.is_empty() {
        return result;
    }
    let mut maximal: Vec<OrigamiPattern> = Vec::new();
    let mut index = PatternIndex::new();
    let mut memo = SupportMemo::default();
    for _ in 0..config.samples {
        if ctx.is_cancelled() || Instant::now() > deadline {
            break;
        }
        if let Some(p) = random_maximal_walk(db, config, &mut rng, deadline, &mut memo) {
            let (_, fresh) = index.insert(p.pattern.clone());
            if fresh {
                maximal.push(p);
            }
        }
    }
    result.sampled_maximal = maximal.len();
    // Greedy α-orthogonal selection, scanning in random order as the original
    // algorithm does (ORIGAMI favours whatever the walks found, which skews
    // small when small maximal patterns dominate).
    maximal.shuffle(&mut rng);
    let mut selected: Vec<OrigamiPattern> = Vec::new();
    for candidate in maximal {
        if selected
            .iter()
            .all(|s| similarity(&s.pattern, &candidate.pattern) <= config.alpha)
        {
            selected.push(candidate);
        }
    }
    selected.sort_by_key(|p| std::cmp::Reverse((p.pattern.edge_count(), p.support)));
    result.patterns = selected;
    for p in &result.patterns {
        ctx.emit_with(|| StreamedPattern {
            pattern: p.pattern.clone(),
            support: p.support,
            embeddings: Vec::new(),
        });
    }
    result.runtime = start.elapsed();
    ctx.record_stage("sample-select", result.runtime);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Database of 4 transactions, each containing the path 0-1-2 plus noise.
    fn db_with_shared_path() -> GraphDatabase {
        let mut db = GraphDatabase::default();
        for t in 0..4u32 {
            let mut g = LabeledGraph::new();
            let a = g.add_vertex(Label(0));
            let b = g.add_vertex(Label(1));
            let c = g.add_vertex(Label(2));
            g.add_edge(a, b);
            g.add_edge(b, c);
            // transaction-specific noise
            let x = g.add_vertex(Label(10 + t));
            g.add_edge(c, x);
            db.push(g);
        }
        db
    }

    fn config() -> OrigamiConfig {
        OrigamiConfig {
            support_threshold: 3,
            samples: 10,
            rng_seed: 5,
            ..OrigamiConfig::default()
        }
    }

    #[test]
    fn finds_the_shared_maximal_pattern() {
        let db = db_with_shared_path();
        let result = run_with(&db, &config(), &mut MineContext::new());
        assert!(!result.patterns.is_empty());
        // The largest representative is the shared 0-1-2 path (3 vertices):
        // the noise vertices differ per transaction so they are not frequent.
        let top = &result.patterns[0];
        assert_eq!(top.pattern.vertex_count(), 3);
        assert!(top.support >= 3);
    }

    #[test]
    fn walks_stop_at_maximality() {
        let db = db_with_shared_path();
        let result = run_with(&db, &config(), &mut MineContext::new());
        for p in &result.patterns {
            assert!(p.pattern.vertex_count() <= 3, "nothing larger is frequent");
        }
    }

    #[test]
    fn orthogonal_selection_removes_near_duplicates() {
        let db = db_with_shared_path();
        let result = run_with(
            &db,
            &OrigamiConfig {
                alpha: 0.0,
                ..config()
            },
            &mut MineContext::new(),
        );
        // With alpha = 0 every pair of selected patterns must share no edge
        // label pair at all.
        for (i, a) in result.patterns.iter().enumerate() {
            for b in result.patterns.iter().skip(i + 1) {
                assert!(similarity(&a.pattern, &b.pattern) == 0.0);
            }
        }
    }

    #[test]
    fn similarity_is_one_for_identical_and_zero_for_disjoint() {
        let a = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let b = LabeledGraph::from_parts(&[Label(2), Label(3)], &[(0, 1)]);
        assert!((similarity(&a, &a) - 1.0).abs() < 1e-12);
        assert_eq!(similarity(&a, &b), 0.0);
    }

    #[test]
    fn empty_database_returns_empty_result() {
        let result = run_with(
            &GraphDatabase::default(),
            &config(),
            &mut MineContext::new(),
        );
        assert!(result.patterns.is_empty());
        assert_eq!(result.sampled_maximal, 0);
    }

    #[test]
    fn support_threshold_is_respected() {
        let db = db_with_shared_path();
        let result = run_with(&db, &config(), &mut MineContext::new());
        for p in &result.patterns {
            assert!(p.support >= 3);
        }
    }
}
