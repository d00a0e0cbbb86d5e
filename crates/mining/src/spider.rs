//! Stage I of SpiderMine for r = 1: mining all frequent 1-spiders.
//!
//! A 1-spider (Definition 4 with r = 1) is a frequent pattern in which every
//! vertex is adjacent to a designated *head*. Following the paper's own
//! implementation choice ("we focus on the case for r = 1 for simplicity of
//! presentation and implementation", Appendix B) we represent a 1-spider as a
//! labeled star: a head label plus a sorted multiset of leaf labels. Edges
//! between two leaves of the same pattern are recovered later by the closure
//! refinement step in the `spidermine` crate (see DESIGN.md).
//!
//! Support of a spider is its number of *head occurrences*: the count of data
//! vertices `v` whose label matches the head label and whose neighborhood can
//! injectively supply the leaf-label multiset. This is anti-monotone in the
//! leaf multiset, which makes the level-wise enumeration below complete.
//!
//! The enumeration runs on the graph's frozen CSR view: head classes come from
//! the label index, and per-head capacity checks are merge-joins over the
//! precomputed neighbor-label histograms (sorted `(label, count)` rows) rather
//! than hash-map probes.
//!
//! **Storage is an arena.** Catalog construction used to be allocation-bound:
//! every mined spider owned a `Vec` of leaf labels and a `Vec` of heads, so a
//! scale-free graph minted millions of small allocations. The catalog now
//! keeps one flat leaf-label pool and one flat head pool; a spider is a span
//! pair into those pools, read through the borrowed [`SpiderRef`] view, and a
//! child spider is written by `memcpy`ing its parent's leaf span plus one
//! label (copy-on-grow, the same discipline as
//! `spidermine_graph::PatternStore`). Frontier expansion emits every
//! qualifying `(leaf-label, head)` pair in one fused merge pass and groups
//! the pairs with a counting sort over the dense label universe, using
//! per-chunk reusable scratch — no per-child allocation at all. Frontier
//! blocks expand in parallel (rayon) and splice back in frontier order,
//! keeping the catalog byte-identical at every pool width. Stage I has one
//! path: with a single rayon worker the pool runs the same fold inline.

use rayon::prelude::*;
use rustc_hash::FxHashMap;
use spidermine_graph::graph::{LabeledGraph, VertexId};
use spidermine_graph::label::Label;

/// Index of a spider inside a [`SpiderCatalog`].
pub type SpiderId = usize;

/// Configuration of the spider mining stage.
#[derive(Clone, Debug)]
pub struct SpiderMiningConfig {
    /// Minimum number of head occurrences for a spider to be kept.
    pub support_threshold: usize,
    /// Maximum number of leaves per spider. Bounds the level-wise enumeration
    /// on high-degree (scale-free) graphs; the paper's Figure 17 shows the
    /// spider count exploding with graph size for exactly this reason.
    pub max_leaves: usize,
    /// Also emit the zero-leaf (single-vertex) spiders.
    pub include_single_vertex: bool,
    /// Hard cap on the number of spiders mined (a safety valve for scale-free
    /// inputs; `usize::MAX` disables it).
    pub max_spiders: usize,
}

impl Default for SpiderMiningConfig {
    fn default() -> Self {
        Self {
            support_threshold: 2,
            max_leaves: 8,
            include_single_vertex: false,
            max_spiders: usize::MAX,
        }
    }
}

/// Materializes a star pattern: vertex 0 is the head; vertices `1..` are the
/// leaves in sorted label order.
fn star_pattern(head_label: Label, leaf_labels: &[Label]) -> LabeledGraph {
    let mut g = LabeledGraph::with_capacity(1 + leaf_labels.len());
    let head = g.add_vertex(head_label);
    for &leaf in leaf_labels {
        let l = g.add_vertex(leaf);
        g.add_edge(head, l);
    }
    g
}

/// True if `v` (in `graph`) can host the star as its head: label matches and
/// the neighborhood supplies the leaf multiset.
fn star_matches_at(
    graph: &LabeledGraph,
    v: VertexId,
    head_label: Label,
    leaf_labels: &[Label],
) -> bool {
    graph.label(v) == head_label
        && leaf_multiset_fits(leaf_labels, graph.neighbor_label_histogram(v))
}

/// An owned 1-spider: a star pattern with its head occurrences in the data
/// graph. The catalog itself stores spiders in flat pools and hands out
/// borrowed [`SpiderRef`]s; this owned form exists for callers that need to
/// hold a spider beyond the catalog's lifetime (and for tests).
#[derive(Clone, Debug)]
pub struct Spider {
    /// Identifier within the catalog.
    pub id: SpiderId,
    /// Label of the head vertex.
    pub head_label: Label,
    /// Sorted multiset of leaf labels.
    pub leaf_labels: Vec<Label>,
    /// Data vertices that can serve as the head of this spider.
    pub heads: Vec<VertexId>,
}

impl Spider {
    /// Number of head occurrences (the spider's support).
    pub fn support(&self) -> usize {
        self.heads.len()
    }

    /// Number of vertices of the spider pattern (head + leaves).
    pub fn vertex_count(&self) -> usize {
        1 + self.leaf_labels.len()
    }

    /// Number of edges of the spider pattern (= number of leaves).
    pub fn size(&self) -> usize {
        self.leaf_labels.len()
    }

    /// Materializes the spider as a standalone pattern graph.
    /// Vertex 0 is the head; vertices `1..` are the leaves in sorted label order.
    pub fn to_pattern(&self) -> LabeledGraph {
        star_pattern(self.head_label, &self.leaf_labels)
    }

    /// Checks whether `v` (in `graph`) can host this spider as its head:
    /// label matches and the neighborhood supplies the leaf multiset.
    pub fn matches_at(&self, graph: &LabeledGraph, v: VertexId) -> bool {
        star_matches_at(graph, v, self.head_label, &self.leaf_labels)
    }
}

/// Borrowed view of one spider stored in a [`SpiderCatalog`]: spans into the
/// catalog's flat leaf and head pools.
#[derive(Clone, Copy, Debug)]
pub struct SpiderRef<'a> {
    /// Identifier within the catalog.
    pub id: SpiderId,
    /// Label of the head vertex.
    pub head_label: Label,
    /// Sorted multiset of leaf labels.
    pub leaf_labels: &'a [Label],
    /// Data vertices that can serve as the head of this spider.
    pub heads: &'a [VertexId],
}

impl SpiderRef<'_> {
    /// Number of head occurrences (the spider's support).
    pub fn support(&self) -> usize {
        self.heads.len()
    }

    /// Number of vertices of the spider pattern (head + leaves).
    pub fn vertex_count(&self) -> usize {
        1 + self.leaf_labels.len()
    }

    /// Number of edges of the spider pattern (= number of leaves).
    pub fn size(&self) -> usize {
        self.leaf_labels.len()
    }

    /// Materializes the spider as a standalone pattern graph.
    /// Vertex 0 is the head; vertices `1..` are the leaves in sorted label order.
    pub fn to_pattern(&self) -> LabeledGraph {
        star_pattern(self.head_label, self.leaf_labels)
    }

    /// Checks whether `v` (in `graph`) can host this spider as its head.
    pub fn matches_at(&self, graph: &LabeledGraph, v: VertexId) -> bool {
        star_matches_at(graph, v, self.head_label, self.leaf_labels)
    }

    /// Copies the spider out of the catalog pools into an owned [`Spider`].
    pub fn to_owned(&self) -> Spider {
        Spider {
            id: self.id,
            head_label: self.head_label,
            leaf_labels: self.leaf_labels.to_vec(),
            heads: self.heads.to_vec(),
        }
    }
}

/// True if the sorted leaf-label multiset fits inside a neighbor-label
/// histogram row (every label's multiplicity is covered). Both inputs are
/// sorted by label, so this is a single merge scan.
fn leaf_multiset_fits(sorted_leaves: &[Label], histogram: &[(Label, u32)]) -> bool {
    let mut hist_at = 0;
    let mut i = 0;
    while i < sorted_leaves.len() {
        let label = sorted_leaves[i];
        let mut j = i + 1;
        while j < sorted_leaves.len() && sorted_leaves[j] == label {
            j += 1;
        }
        let need = (j - i) as u32;
        while hist_at < histogram.len() && histogram[hist_at].0 < label {
            hist_at += 1;
        }
        if hist_at == histogram.len()
            || histogram[hist_at].0 != label
            || histogram[hist_at].1 < need
        {
            return false;
        }
        i = j;
    }
    true
}

/// Pool spans of one stored spider.
#[derive(Clone, Copy, Debug)]
struct SpiderSpan {
    head_label: Label,
    lstart: u32,
    llen: u32,
    hstart: u32,
    hlen: u32,
}

/// The complete set of frequent 1-spiders of a graph, stored in flat pools
/// (see the module docs).
///
/// The head-label index is built lazily on first use: catalog construction
/// pushes millions of spiders on scale-free graphs, and one hash-map update
/// per push used to be a measurable slice of the construction time.
#[derive(Debug, Default)]
pub struct SpiderCatalog {
    leaf_pool: Vec<Label>,
    head_pool: Vec<VertexId>,
    spans: Vec<SpiderSpan>,
    by_head_label: std::sync::OnceLock<FxHashMap<Label, Vec<SpiderId>>>,
}

impl SpiderCatalog {
    /// Mines all frequent 1-spiders of `graph` under `config`.
    ///
    /// The level-wise frontier is a list of *spider ids*: each level's entries
    /// are read straight out of the catalog pools, expanded in parallel
    /// blocks, and their children spliced back in frontier order — so the
    /// catalog is byte-identical at every pool width while per-spider data is
    /// written into the pools exactly once. There is no separate
    /// single-worker path: at width 1 the pool runs the same fold inline.
    pub fn mine(graph: &LabeledGraph, config: &SpiderMiningConfig) -> Self {
        let sigma = config.support_threshold.max(1);
        let csr = graph.csr();
        let mut catalog = SpiderCatalog::default();
        // Dense label universe bound for the counting-sort scratch (labels
        // are interned, so `max + 1` is tight).
        let universe = graph
            .labels()
            .iter()
            .map(|l| l.0 as usize + 1)
            .max()
            .unwrap_or(0);

        // Parallel fan-out width per splice. Blocks (rather than whole levels)
        // bound peak memory: levels grow into the millions on scale-free
        // graphs. Within a block, the entries fold in parallel under the
        // pool's adaptive splitting — each task expands a contiguous run of
        // entries with one reused scratch and one flat output buffer (so
        // per-entry allocation amortizes away), and runs stuck behind an
        // expensive entry are stolen instead of straggling as they did with
        // fixed-size chunks.
        const PAR_BLOCK: usize = 1024;
        // Minimum frontier entries per fold leaf: each leaf allocates one
        // universe-sized ExpandScratch, so stealing must not split below the
        // run length that amortizes it.
        const SCRATCH_MIN_LEAF: usize = 16;

        if config.max_leaves == 0 || graph.vertex_count() == 0 {
            if config.include_single_vertex {
                for (label, heads) in csr.labels_with_vertices() {
                    if heads.len() >= sigma {
                        catalog.push(label, &[], heads);
                    }
                }
            }
            return catalog;
        }

        // Level 1, from the label index's frequent head classes (ascending by
        // label): single-leaf spiders.
        let classes: Vec<(Label, &[VertexId])> = csr
            .labels_with_vertices()
            .filter(|(_, heads)| heads.len() >= sigma)
            .collect();
        let mut frontier: Vec<SpiderId> = Vec::new();
        for (label, heads) in &classes {
            if config.include_single_vertex {
                catalog.push(*label, &[], heads);
            }
        }

        'seed: for block in classes.chunks(PAR_BLOCK) {
            let (expanded, _) = block.par_iter().fold_reduce_min(
                SCRATCH_MIN_LEAF,
                || {
                    (
                        ChunkExpansion::default(),
                        ExpandScratch::with_universe(universe),
                    )
                },
                |(mut out, mut scratch), &(_, heads)| {
                    expand_entry(csr, &[], heads, sigma, &mut scratch, &mut out);
                    (out, scratch)
                },
                |(mut left, scratch), (right, _)| {
                    left.merge(right);
                    (left, scratch)
                },
            );
            let (mut cand_at, mut head_at) = (0usize, 0usize);
            for (entry, &(label, _)) in block.iter().enumerate() {
                for _ in 0..expanded.entry_child_counts[entry] {
                    if catalog.len() >= config.max_spiders {
                        break 'seed;
                    }
                    let cand = expanded.candidates[cand_at];
                    let hlen = expanded.head_counts[cand_at] as usize;
                    let heads = &expanded.heads[head_at..head_at + hlen];
                    cand_at += 1;
                    head_at += hlen;
                    frontier.push(catalog.push_child(label, None, cand, heads));
                }
            }
        }

        // Levels 2..: expand the previous level's spiders.
        let mut leaves = 1;
        while !frontier.is_empty() && leaves < config.max_leaves {
            leaves += 1;
            if catalog.len() >= config.max_spiders {
                break;
            }
            let mut next: Vec<SpiderId> = Vec::new();
            'level: for block in frontier.chunks(PAR_BLOCK) {
                let (expanded, _) = block.par_iter().fold_reduce_min(
                    SCRATCH_MIN_LEAF,
                    || {
                        (
                            ChunkExpansion::default(),
                            ExpandScratch::with_universe(universe),
                        )
                    },
                    |(mut out, mut scratch), &id| {
                        let spider = catalog.get(id);
                        expand_entry(
                            csr,
                            spider.leaf_labels,
                            spider.heads,
                            sigma,
                            &mut scratch,
                            &mut out,
                        );
                        (out, scratch)
                    },
                    |(mut left, scratch), (right, _)| {
                        left.merge(right);
                        (left, scratch)
                    },
                );
                let (mut cand_at, mut head_at) = (0usize, 0usize);
                for (entry, &parent) in block.iter().enumerate() {
                    let head_label = catalog.spans[parent].head_label;
                    for _ in 0..expanded.entry_child_counts[entry] {
                        if catalog.len() >= config.max_spiders {
                            break 'level;
                        }
                        let cand = expanded.candidates[cand_at];
                        let hlen = expanded.head_counts[cand_at] as usize;
                        let heads = &expanded.heads[head_at..head_at + hlen];
                        cand_at += 1;
                        head_at += hlen;
                        next.push(catalog.push_child(head_label, Some(parent), cand, heads));
                    }
                }
            }
            frontier = next;
        }
        catalog
    }

    /// Appends a spider by copying the given slices into the pools.
    fn push(&mut self, head_label: Label, leaf_labels: &[Label], heads: &[VertexId]) -> SpiderId {
        let lstart = self.leaf_pool.len() as u32;
        self.leaf_pool.extend_from_slice(leaf_labels);
        let hstart = self.head_pool.len() as u32;
        self.head_pool.extend_from_slice(heads);
        self.finish_push(head_label, lstart, hstart)
    }

    /// Copy-on-grow append: the child's leaf multiset is its parent's leaf
    /// span (copied within the pool) plus `cand`, which keeps the multiset
    /// sorted because candidate labels never decrease along a branch.
    fn push_child(
        &mut self,
        head_label: Label,
        parent: Option<SpiderId>,
        cand: Label,
        heads: &[VertexId],
    ) -> SpiderId {
        let lstart = self.leaf_pool.len() as u32;
        if let Some(p) = parent {
            let s = self.spans[p];
            self.leaf_pool
                .extend_from_within(s.lstart as usize..(s.lstart + s.llen) as usize);
        }
        self.leaf_pool.push(cand);
        let hstart = self.head_pool.len() as u32;
        self.head_pool.extend_from_slice(heads);
        self.finish_push(head_label, lstart, hstart)
    }

    fn finish_push(&mut self, head_label: Label, lstart: u32, hstart: u32) -> SpiderId {
        let id = self.spans.len();
        // A push invalidates the lazily built head-label index.
        self.by_head_label.take();
        self.spans.push(SpiderSpan {
            head_label,
            lstart,
            llen: self.leaf_pool.len() as u32 - lstart,
            hstart,
            hlen: self.head_pool.len() as u32 - hstart,
        });
        id
    }

    fn head_label_index(&self) -> &FxHashMap<Label, Vec<SpiderId>> {
        self.by_head_label.get_or_init(|| {
            let mut index: FxHashMap<Label, Vec<SpiderId>> = FxHashMap::default();
            for (id, span) in self.spans.iter().enumerate() {
                index.entry(span.head_label).or_default().push(id);
            }
            index
        })
    }

    /// All spiders, in mining order.
    pub fn spiders(&self) -> impl Iterator<Item = SpiderRef<'_>> + '_ {
        (0..self.spans.len()).map(move |id| self.get(id))
    }

    /// Number of spiders mined.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// True if no spiders were mined.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The spider with the given id.
    pub fn get(&self, id: SpiderId) -> SpiderRef<'_> {
        let s = self.spans[id];
        SpiderRef {
            id,
            head_label: s.head_label,
            leaf_labels: &self.leaf_pool[s.lstart as usize..(s.lstart + s.llen) as usize],
            heads: &self.head_pool[s.hstart as usize..(s.hstart + s.hlen) as usize],
        }
    }

    /// Ids of spiders whose head label is `label`.
    pub fn with_head_label(&self, label: Label) -> &[SpiderId] {
        self.head_label_index()
            .get(&label)
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Ids of spiders that can be planted with their head at `v`
    /// (the paper's `Spider(v)`).
    pub fn matching_at(&self, graph: &LabeledGraph, v: VertexId) -> Vec<SpiderId> {
        let histogram = graph.neighbor_label_histogram(v);
        self.with_head_label(graph.label(v))
            .iter()
            .copied()
            .filter(|&id| leaf_multiset_fits(self.get(id).leaf_labels, histogram))
            .collect()
    }

    /// The largest spider (most leaves); ties broken by lowest id.
    pub fn largest(&self) -> Option<SpiderRef<'_>> {
        self.spiders().max_by_key(|s| (s.size(), usize::MAX - s.id))
    }
}

/// Reusable scratch of one expansion task: qualifying `(label, head)` pairs
/// of the current entry, plus counting-sort arrays sized by the dense label
/// universe. One scratch serves a fold task's whole run of frontier entries
/// (at least `SCRATCH_MIN_LEAF` of them, enforced by `fold_reduce_min`), so
/// the steady state of catalog construction allocates nothing per entry.
struct ExpandScratch {
    /// Qualifying labels of the current entry, head-major.
    pair_labels: Vec<u32>,
    /// The head each qualifying label came from (parallel to `pair_labels`).
    pair_heads: Vec<VertexId>,
    /// Qualifying-head count per label (reset via `touched` after each entry).
    counts: Vec<u32>,
    /// Child slot per accepted label, `u32::MAX` for infrequent ones.
    slots: Vec<u32>,
    /// Labels seen in the current entry.
    touched: Vec<u32>,
    /// Scatter cursor per accepted child.
    cursors: Vec<u32>,
}

impl ExpandScratch {
    fn with_universe(universe: usize) -> Self {
        Self {
            pair_labels: Vec::new(),
            pair_heads: Vec::new(),
            counts: vec![0; universe],
            slots: vec![0; universe],
            touched: Vec::new(),
            cursors: Vec::new(),
        }
    }
}

/// Flattened children of a contiguous run of expanded frontier entries. The
/// splice loop in [`SpiderCatalog::mine`] walks `entry_child_counts` with
/// running cursors into `candidates`/`head_counts`/`heads`.
#[derive(Default)]
struct ChunkExpansion {
    /// Children per entry, in entry order.
    entry_child_counts: Vec<u32>,
    /// Candidate leaf labels, flat across entries (ascending per entry).
    candidates: Vec<Label>,
    /// Surviving-head count per candidate.
    head_counts: Vec<u32>,
    /// Surviving heads, flat, grouped per candidate (ascending per group).
    heads: Vec<VertexId>,
}

impl ChunkExpansion {
    /// Appends `right` after this run's entries — the order-preserving
    /// reduce step of the parallel fold over a frontier block (left range
    /// precedes right, so the merged run reads exactly like a sequential
    /// expansion of the whole block).
    fn merge(&mut self, right: ChunkExpansion) {
        self.entry_child_counts.extend(right.entry_child_counts);
        self.candidates.extend(right.candidates);
        self.head_counts.extend(right.head_counts);
        self.heads.extend(right.heads);
    }
}

/// Expands one frontier entry into `out`: every frequent one-leaf extension
/// whose label keeps the leaf multiset sorted (labels only grow), with its
/// surviving heads.
///
/// Because leaf labels are sorted, a candidate label `l` is already present in
/// the multiset only when `l` equals the current maximum leaf label — its
/// required multiplicity is that label's trailing run length; every larger
/// label requires one. The expansion is a single fused pass: each head's
/// sorted CSR histogram row is merge-scanned once, emitting a flat
/// `(label, head)` pair per spare-capacity match; the pairs are then grouped
/// by label with a counting sort over the dense label universe (pairs arrive
/// head-major, so each group's heads stay in ascending head order — matching
/// what a per-candidate merge-join would emit). Groups below the support
/// threshold are dropped.
fn expand_entry(
    csr: &spidermine_graph::CsrIndex,
    leaf_labels: &[Label],
    heads: &[VertexId],
    sigma: usize,
    scratch: &mut ExpandScratch,
    out: &mut ChunkExpansion,
) {
    let max_leaf = leaf_labels.last().copied();
    let max_leaf_run = max_leaf
        .map(|ml| leaf_labels.iter().rev().take_while(|&&l| l == ml).count() as u32)
        .unwrap_or(0);

    // Fused pass: every qualifying (label, head) pair, stored as one label
    // run per head, with the per-label counts accumulated on the fly.
    // A histogram row entry always has count ≥ 1, so every label *strictly*
    // greater than the current maximum leaf qualifies unconditionally; only
    // the boundary label (== max leaf) must cover the trailing run plus one.
    // The row tail therefore bulk-appends with no per-entry capacity check.
    scratch.pair_labels.clear();
    scratch.pair_heads.clear();
    for &h in heads {
        let row = csr.neighbor_label_histogram(h);
        let run_start = scratch.pair_labels.len();
        let start = match max_leaf {
            Some(ml) => {
                let s = row.partition_point(|&(l, _)| l < ml);
                if s < row.len() && row[s].0 == ml {
                    if row[s].1 > max_leaf_run {
                        scratch.pair_labels.push(ml.0);
                    }
                    s + 1
                } else {
                    s
                }
            }
            None => 0,
        };
        scratch
            .pair_labels
            .extend(row[start..].iter().map(|&(label, _)| label.0));
        // One bulk fill covers this head's whole run (boundary label
        // included, because `run_start` predates the boundary push).
        debug_assert!(scratch.pair_heads.len() <= run_start);
        scratch.pair_heads.resize(scratch.pair_labels.len(), h);
    }
    if scratch.pair_labels.len() < sigma {
        out.entry_child_counts.push(0);
        return;
    }

    // Count qualifying heads per label.
    scratch.touched.clear();
    for &l in &scratch.pair_labels {
        let l = l as usize;
        if scratch.counts[l] == 0 {
            scratch.touched.push(l as u32);
        }
        scratch.counts[l] += 1;
    }
    scratch.touched.sort_unstable();

    // Accept frequent labels as children (ascending), laying out their head
    // groups back-to-back at the tail of `out.heads`.
    scratch.cursors.clear();
    let mut children = 0u32;
    let mut cursor = out.heads.len() as u32;
    for &l in &scratch.touched {
        let count = scratch.counts[l as usize];
        if count as usize >= sigma {
            scratch.slots[l as usize] = children;
            out.candidates.push(Label(l));
            out.head_counts.push(count);
            scratch.cursors.push(cursor);
            cursor += count;
            children += 1;
        } else {
            scratch.slots[l as usize] = u32::MAX;
        }
    }
    if children > 0 {
        out.heads.resize(cursor as usize, VertexId(0));
        for (&l, &h) in scratch.pair_labels.iter().zip(&scratch.pair_heads) {
            let slot = scratch.slots[l as usize];
            if slot != u32::MAX {
                let at = &mut scratch.cursors[slot as usize];
                out.heads[*at as usize] = h;
                *at += 1;
            }
        }
    }
    for &l in &scratch.touched {
        scratch.counts[l as usize] = 0;
    }
    out.entry_child_counts.push(children);
}

/// Histogram of the labels of `v`'s neighbors as a hash map.
///
/// Retained for API compatibility; new code should prefer the allocation-free
/// [`LabeledGraph::neighbor_label_histogram`] slice.
pub fn neighbor_label_counts(graph: &LabeledGraph, v: VertexId) -> FxHashMap<Label, usize> {
    graph
        .neighbor_label_histogram(v)
        .iter()
        .map(|&(label, count)| (label, count as usize))
        .collect()
}

pub mod reference {
    //! The original hash-map-based Stage-I enumeration, retained as the
    //! baseline the spider-mining benchmarks measure speedup against and as a
    //! second implementation for the catalog-equivalence property tests.
    //!
    //! Its cost is dominated by one `FxHashMap` histogram per vertex, hash
    //! probes inside the per-level candidate scan, and one leaf/head `Vec`
    //! pair per frontier entry — replaced in
    //! [`SpiderCatalog::mine`](super::SpiderCatalog::mine) by CSR histogram
    //! rows and the flat catalog pools.

    use super::{SpiderCatalog, SpiderMiningConfig, SpiderRef};
    use rustc_hash::FxHashMap;
    use spidermine_graph::graph::{LabeledGraph, VertexId};
    use spidermine_graph::label::Label;

    /// Mines the catalog with the original algorithm. The resulting spiders
    /// (order, labels, heads) are identical to [`SpiderCatalog::mine`] except
    /// for the `include_single_vertex` emission order, which the original
    /// left to hash-map iteration order.
    pub fn mine(graph: &LabeledGraph, config: &SpiderMiningConfig) -> SpiderCatalog {
        let sigma = config.support_threshold.max(1);
        let neighbor_counts: Vec<FxHashMap<Label, usize>> = graph
            .vertices()
            .map(|v| {
                let mut counts = FxHashMap::default();
                for &u in graph.neighbors(v) {
                    *counts.entry(graph.label(u)).or_insert(0) += 1;
                }
                counts
            })
            .collect();
        let mut heads_by_label: FxHashMap<Label, Vec<VertexId>> = FxHashMap::default();
        for v in graph.vertices() {
            heads_by_label.entry(graph.label(v)).or_default().push(v);
        }

        let mut catalog = SpiderCatalog::default();
        let mut frontier: Vec<(Label, Vec<Label>, Vec<VertexId>)> = Vec::new();
        for (&label, heads) in &heads_by_label {
            if heads.len() >= sigma {
                if config.include_single_vertex {
                    catalog.push(label, &[], heads);
                }
                frontier.push((label, Vec::new(), heads.clone()));
            }
        }
        frontier.sort_by_key(|(l, _, _)| *l);

        let mut leaves = 0;
        while !frontier.is_empty() && leaves < config.max_leaves {
            leaves += 1;
            let mut next: Vec<(Label, Vec<Label>, Vec<VertexId>)> = Vec::new();
            for (head_label, leaf_labels, heads) in &frontier {
                if catalog.len() >= config.max_spiders {
                    break;
                }
                let min_label = leaf_labels.last().copied().unwrap_or(Label(0));
                let mut candidates: Vec<Label> = Vec::new();
                {
                    let mut seen: FxHashMap<Label, ()> = FxHashMap::default();
                    for &h in heads {
                        for (&label, &count) in &neighbor_counts[h.index()] {
                            if label < min_label {
                                continue;
                            }
                            let required = leaf_labels.iter().filter(|&&l| l == label).count();
                            if count > required {
                                seen.entry(label).or_insert(());
                            }
                        }
                    }
                    candidates.extend(seen.keys().copied());
                    candidates.sort_unstable();
                }
                for cand in candidates {
                    if catalog.len() >= config.max_spiders {
                        break;
                    }
                    let required = leaf_labels.iter().filter(|&&l| l == cand).count() + 1;
                    let surviving: Vec<VertexId> = heads
                        .iter()
                        .copied()
                        .filter(|h| {
                            neighbor_counts[h.index()].get(&cand).copied().unwrap_or(0) >= required
                        })
                        .collect();
                    if surviving.len() < sigma {
                        continue;
                    }
                    let mut new_leaves = leaf_labels.clone();
                    new_leaves.push(cand);
                    catalog.push(*head_label, &new_leaves, &surviving);
                    next.push((*head_label, new_leaves, surviving));
                }
            }
            frontier = next;
        }
        catalog
    }

    /// The original `SpiderCatalog::matching_at`: rebuilds the neighbor-label
    /// histogram of `v` as a hash map and one requirement map per candidate
    /// spider — two allocations per check that the CSR version does without.
    pub fn matching_at(
        catalog: &SpiderCatalog,
        graph: &LabeledGraph,
        v: VertexId,
    ) -> Vec<super::SpiderId> {
        let counts = super::neighbor_label_counts(graph, v);
        catalog
            .with_head_label(graph.label(v))
            .iter()
            .copied()
            .filter(|&id| {
                let mut requirements: FxHashMap<Label, usize> = FxHashMap::default();
                for &l in catalog.get(id).leaf_labels {
                    *requirements.entry(l).or_insert(0) += 1;
                }
                requirements
                    .iter()
                    .all(|(label, &need)| counts.get(label).copied().unwrap_or(0) >= need)
            })
            .collect()
    }

    /// Asserts two catalogs describe the same spider set in the same order.
    pub fn catalogs_equal(a: &SpiderCatalog, b: &SpiderCatalog) -> bool {
        a.len() == b.len()
            && a.spiders()
                .zip(b.spiders())
                .all(|(x, y): (SpiderRef<'_>, SpiderRef<'_>)| {
                    x.head_label == y.head_label
                        && x.leaf_labels == y.leaf_labels
                        && x.heads == y.heads
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Graph: two identical stars (head label 0 with leaves 1, 1, 2) plus one
    /// head label 0 with a single leaf label 1.
    fn two_star_graph() -> LabeledGraph {
        LabeledGraph::from_parts(
            &[
                Label(0),
                Label(1),
                Label(1),
                Label(2), // star A: v0 head
                Label(0),
                Label(1),
                Label(1),
                Label(2), // star B: v4 head
                Label(0),
                Label(1), // small star: v8 head
            ],
            &[(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (8, 9)],
        )
    }

    fn default_config(sigma: usize) -> SpiderMiningConfig {
        SpiderMiningConfig {
            support_threshold: sigma,
            ..SpiderMiningConfig::default()
        }
    }

    #[test]
    fn mines_the_full_star_with_support_two() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        // The full star head=0, leaves={1,1,2} must be found with exactly heads {v0, v4}.
        let full = catalog
            .spiders()
            .find(|s| s.leaf_labels == [Label(1), Label(1), Label(2)])
            .expect("full star mined");
        assert_eq!(full.head_label, Label(0));
        assert_eq!(full.support(), 2);
        assert!(full.heads.contains(&VertexId(0)));
        assert!(full.heads.contains(&VertexId(4)));
    }

    #[test]
    fn sub_stars_are_also_mined_with_larger_support() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        let single_leaf = catalog
            .spiders()
            .find(|s| s.head_label == Label(0) && s.leaf_labels == [Label(1)])
            .expect("single-leaf spider mined");
        assert_eq!(single_leaf.support(), 3);
    }

    #[test]
    fn support_threshold_prunes_rare_spiders() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(3));
        // Only spiders supported by all three label-0 heads survive: the
        // {1}-leaf star (and nothing with label-2 leaves or two leaves).
        assert!(catalog.spiders().all(|s| s.support() >= 3));
        assert!(catalog.spiders().any(|s| s.leaf_labels == [Label(1)]));
        assert!(!catalog.spiders().any(|s| s.leaf_labels.contains(&Label(2))));
    }

    #[test]
    fn leaf_multisets_are_sorted_and_unique() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        let mut seen = std::collections::HashSet::new();
        for s in catalog.spiders() {
            let mut sorted = s.leaf_labels.to_vec();
            sorted.sort();
            assert_eq!(sorted, s.leaf_labels, "leaf labels must be sorted");
            assert!(
                seen.insert((s.head_label, s.leaf_labels.to_vec())),
                "duplicate spider {:?}",
                s
            );
        }
    }

    #[test]
    fn max_leaves_bounds_spider_size() {
        let g = two_star_graph();
        let config = SpiderMiningConfig {
            support_threshold: 2,
            max_leaves: 1,
            ..SpiderMiningConfig::default()
        };
        let catalog = SpiderCatalog::mine(&g, &config);
        assert!(catalog.spiders().all(|s| s.size() <= 1));
    }

    #[test]
    fn max_spiders_caps_catalog_size() {
        let g = two_star_graph();
        let config = SpiderMiningConfig {
            support_threshold: 2,
            max_spiders: 3,
            ..SpiderMiningConfig::default()
        };
        let catalog = SpiderCatalog::mine(&g, &config);
        assert!(catalog.len() <= 3);
        // The first spiders of the uncapped run are kept.
        let full = SpiderCatalog::mine(&g, &default_config(2));
        for (a, b) in catalog.spiders().zip(full.spiders()) {
            assert_eq!(a.head_label, b.head_label);
            assert_eq!(a.leaf_labels, b.leaf_labels);
            assert_eq!(a.heads, b.heads);
        }
    }

    #[test]
    fn to_pattern_reconstructs_the_star() {
        let spider = Spider {
            id: 0,
            head_label: Label(7),
            leaf_labels: vec![Label(1), Label(2)],
            heads: vec![],
        };
        let p = spider.to_pattern();
        assert_eq!(p.vertex_count(), 3);
        assert_eq!(p.edge_count(), 2);
        assert_eq!(p.label(VertexId(0)), Label(7));
        assert_eq!(p.degree(VertexId(0)), 2);
    }

    #[test]
    fn matching_at_respects_capacity() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        let at_small_head = catalog.matching_at(&g, VertexId(8));
        // Only spiders needing at most one label-1 leaf match at v8.
        for id in &at_small_head {
            let s = catalog.get(*id);
            assert!(s.leaf_labels.len() <= 1);
        }
        let at_big_head = catalog.matching_at(&g, VertexId(0));
        assert!(at_big_head.len() >= at_small_head.len());
        // Leaf vertices (label 1) host no label-0-headed spiders.
        assert!(catalog
            .matching_at(&g, VertexId(1))
            .iter()
            .all(|&id| catalog.get(id).head_label == Label(1)));
    }

    #[test]
    fn include_single_vertex_emits_zero_leaf_spiders() {
        let g = two_star_graph();
        let config = SpiderMiningConfig {
            support_threshold: 2,
            include_single_vertex: true,
            ..SpiderMiningConfig::default()
        };
        let catalog = SpiderCatalog::mine(&g, &config);
        assert!(catalog.spiders().any(|s| s.leaf_labels.is_empty()));
        let config = SpiderMiningConfig {
            support_threshold: 2,
            include_single_vertex: false,
            ..SpiderMiningConfig::default()
        };
        let catalog = SpiderCatalog::mine(&g, &config);
        assert!(catalog.spiders().all(|s| !s.leaf_labels.is_empty()));
    }

    #[test]
    fn largest_returns_max_leaf_spider() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        assert_eq!(catalog.largest().expect("non-empty").size(), 3);
    }

    #[test]
    fn empty_graph_yields_empty_catalog() {
        let catalog = SpiderCatalog::mine(&LabeledGraph::new(), &SpiderMiningConfig::default());
        assert!(catalog.is_empty());
        assert_eq!(catalog.len(), 0);
        assert!(catalog.largest().is_none());
    }

    #[test]
    fn matches_at_checks_label_and_capacity() {
        let g = two_star_graph();
        let spider = Spider {
            id: 0,
            head_label: Label(0),
            leaf_labels: vec![Label(1), Label(1)],
            heads: vec![],
        };
        assert!(spider.matches_at(&g, VertexId(0)));
        assert!(
            !spider.matches_at(&g, VertexId(8)),
            "only one label-1 neighbor"
        );
        assert!(!spider.matches_at(&g, VertexId(1)), "wrong head label");
    }

    #[test]
    fn spider_ref_round_trips_to_owned() {
        let g = two_star_graph();
        let catalog = SpiderCatalog::mine(&g, &default_config(2));
        for s in catalog.spiders() {
            let owned = s.to_owned();
            assert_eq!(owned.id, s.id);
            assert_eq!(owned.head_label, s.head_label);
            assert_eq!(owned.leaf_labels, s.leaf_labels);
            assert_eq!(owned.heads, s.heads);
            assert_eq!(owned.size(), s.size());
            assert_eq!(owned.vertex_count(), s.vertex_count());
        }
    }

    #[test]
    fn csr_miner_matches_reference_catalog() {
        let g = two_star_graph();
        for sigma in [1, 2, 3] {
            let config = default_config(sigma);
            let fast = SpiderCatalog::mine(&g, &config);
            let slow = reference::mine(&g, &config);
            assert!(
                reference::catalogs_equal(&fast, &slow),
                "catalogs diverge at sigma {sigma}"
            );
        }
    }

    /// A sequential run (width 1, where the pool folds inline) and parallel
    /// runs both produce the reference catalog, with and without the
    /// `max_spiders` cap cutting a level short.
    #[test]
    fn sequential_and_parallel_paths_agree() {
        let g = two_star_graph();
        for sigma in [1, 2, 3] {
            for max_spiders in [usize::MAX, 3] {
                let config = SpiderMiningConfig {
                    support_threshold: sigma,
                    max_spiders,
                    ..SpiderMiningConfig::default()
                };
                let slow = reference::mine(&g, &config);
                for width in [1, 2, 4] {
                    let fast = rayon::with_width(width, || SpiderCatalog::mine(&g, &config));
                    assert!(
                        reference::catalogs_equal(&fast, &slow),
                        "width {width} diverges at sigma {sigma}, cap {max_spiders}"
                    );
                }
            }
        }
    }

    #[test]
    fn neighbor_label_counts_matches_histogram() {
        let g = two_star_graph();
        let counts = neighbor_label_counts(&g, VertexId(0));
        assert_eq!(counts.get(&Label(1)), Some(&2));
        assert_eq!(counts.get(&Label(2)), Some(&1));
        assert_eq!(counts.get(&Label(0)), None);
    }
}
