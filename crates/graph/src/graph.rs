//! The core undirected, simple, vertex-labeled graph.

use crate::csr::{CsrIndex, PackedLabelIndex};
use crate::label::Label;
use crate::shared::ArcSlice;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::OnceLock;

/// Index of a vertex inside a [`LabeledGraph`].
///
/// Vertex ids are dense: a graph with `n` vertices uses ids `0..n`.
/// `#[repr(transparent)]` over `u32` lets the snapshot reader reinterpret
/// on-disk neighbor sections as `&[VertexId]` in place (see
/// [`crate::shared::Word`]).
#[repr(transparent)]
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VertexId(pub u32);

// SAFETY: repr(transparent) over u32 — size 4, align 4, all bit patterns valid.
unsafe impl crate::shared::Word for VertexId {
    #[inline]
    fn from_u32(raw: u32) -> Self {
        VertexId(raw)
    }
}

impl VertexId {
    /// Returns the id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(v: u32) -> Self {
        VertexId(v)
    }
}

/// An undirected, simple, vertex-labeled graph.
///
/// This is both the "single massive network" mined by SpiderMine and the
/// representation of patterns (small frequent subgraphs). Adjacency lists are
/// kept sorted so that `has_edge` is a binary search and neighbor iteration is
/// deterministic — determinism matters because the miners seed their RNGs and
/// the experiment harness must be reproducible.
///
/// The mutable adjacency-list form is the *builder*; read-heavy consumers (the
/// VF2 matcher, spider mining) go through the frozen [`CsrIndex`] returned by
/// [`LabeledGraph::csr`], which is built lazily on first use and invalidated
/// by any mutation.
///
/// # Storage modes
///
/// A graph is backed by one of two storages:
///
/// * **Lists** — one sorted `Vec<VertexId>` per vertex, the mutable builder
///   every generator and pattern-growth path uses.
/// * **Frozen** — flat CSR arrays (`offsets` + `neighbors`) held as
///   reference-counted [`ArcSlice`]s. This is what snapshot loading produces:
///   the slices can point straight into a memory-mapped snapshot file
///   (zero-copy) or into buffers decoded from one. A frozen graph always
///   carries a pre-seeded [`CsrIndex`] sharing the same slices, so
///   registration never re-freezes what the snapshot already froze.
///
/// Mutating a frozen graph (`add_vertex` / `add_edge`) transparently *thaws*
/// it back into list form first — a one-time O(|V| + |E|) copy — so the
/// mutable API keeps working on loaded graphs.
#[derive(Serialize, Deserialize)]
pub struct LabeledGraph {
    labels: Labels,
    adjacency: Adjacency,
    edge_count: usize,
    /// Lazily built frozen view; never serialized, reset on mutation.
    #[serde(skip)]
    csr: OnceLock<CsrIndex>,
}

/// Vertex labels: owned (builder) or shared (snapshot-backed).
enum Labels {
    Owned(Vec<Label>),
    Shared(ArcSlice<Label>),
}

/// Adjacency storage: per-vertex lists (builder) or flat CSR slices (frozen).
enum Adjacency {
    Lists(Vec<Vec<VertexId>>),
    Frozen {
        /// Row offsets into `neighbors`; length `|V| + 1`.
        offsets: ArcSlice<u32>,
        /// Concatenated sorted adjacency rows.
        neighbors: ArcSlice<VertexId>,
    },
}

impl Default for LabeledGraph {
    fn default() -> Self {
        Self {
            labels: Labels::Owned(Vec::new()),
            adjacency: Adjacency::Lists(Vec::new()),
            edge_count: 0,
            csr: OnceLock::new(),
        }
    }
}

impl Clone for LabeledGraph {
    fn clone(&self) -> Self {
        Self {
            labels: match &self.labels {
                Labels::Owned(v) => Labels::Owned(v.clone()),
                Labels::Shared(s) => Labels::Shared(s.clone()),
            },
            adjacency: match &self.adjacency {
                Adjacency::Lists(rows) => Adjacency::Lists(rows.clone()),
                Adjacency::Frozen { offsets, neighbors } => Adjacency::Frozen {
                    offsets: offsets.clone(),
                    neighbors: neighbors.clone(),
                },
            },
            edge_count: self.edge_count,
            // The clone is usually cloned *to be mutated* (pattern growth), so
            // dropping the cached index is the right default; a frozen clone
            // rebuilds its index from the shared slices without copying them.
            csr: OnceLock::new(),
        }
    }
}

impl LabeledGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty graph with room for `n` vertices.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            labels: Labels::Owned(Vec::with_capacity(n)),
            adjacency: Adjacency::Lists(Vec::with_capacity(n)),
            edge_count: 0,
            csr: OnceLock::new(),
        }
    }

    /// Converts frozen (snapshot-backed) storage back into mutable adjacency
    /// lists so the builder API keeps working on loaded graphs. A no-op for
    /// graphs already in list form.
    fn thaw(&mut self) {
        if let Adjacency::Frozen { offsets, neighbors } = &self.adjacency {
            let rows: Vec<Vec<VertexId>> = (0..offsets.len().saturating_sub(1))
                .map(|i| neighbors[offsets[i] as usize..offsets[i + 1] as usize].to_vec())
                .collect();
            self.adjacency = Adjacency::Lists(rows);
        }
        if let Labels::Shared(shared) = &self.labels {
            self.labels = Labels::Owned(shared.to_vec());
        }
    }

    /// The owned label vector; thaws shared storage first.
    fn labels_mut(&mut self) -> &mut Vec<Label> {
        self.thaw();
        match &mut self.labels {
            Labels::Owned(v) => v,
            Labels::Shared(_) => unreachable!("thaw() leaves labels owned"),
        }
    }

    /// The mutable adjacency lists; thaws frozen storage first.
    fn lists_mut(&mut self) -> &mut Vec<Vec<VertexId>> {
        self.thaw();
        match &mut self.adjacency {
            Adjacency::Lists(rows) => rows,
            Adjacency::Frozen { .. } => unreachable!("thaw() leaves adjacency in list form"),
        }
    }

    /// Adds a vertex with the given label and returns its id.
    pub fn add_vertex(&mut self, label: Label) -> VertexId {
        let id = VertexId(self.vertex_count() as u32);
        self.labels_mut().push(label);
        self.lists_mut().push(Vec::new());
        self.csr.take();
        id
    }

    /// Adds an undirected edge between `u` and `v`.
    ///
    /// Returns `true` if the edge was inserted, `false` if it already existed
    /// or is a self-loop (self-loops are not allowed in this model).
    ///
    /// # Panics
    /// Panics if either endpoint is not a vertex of the graph.
    pub fn add_edge(&mut self, u: VertexId, v: VertexId) -> bool {
        let n = self.vertex_count();
        assert!(u.index() < n, "vertex {u:?} out of bounds");
        assert!(v.index() < n, "vertex {v:?} out of bounds");
        if u == v {
            return false;
        }
        let rows = self.lists_mut();
        let pos = match rows[u.index()].binary_search(&v) {
            Ok(_) => return false,
            Err(pos) => pos,
        };
        rows[u.index()].insert(pos, v);
        let pos = rows[v.index()]
            .binary_search(&u)
            .expect_err("adjacency lists out of sync");
        rows[v.index()].insert(pos, u);
        self.edge_count += 1;
        self.csr.take();
        true
    }

    /// The frozen CSR view of this graph (adjacency CSR, label index,
    /// neighbor-label histograms). Built on first call, cached until the next
    /// mutation. See [`CsrIndex`] and `DESIGN.md`.
    #[inline]
    pub fn csr(&self) -> &CsrIndex {
        self.csr.get_or_init(|| CsrIndex::build(self))
    }

    /// All vertices carrying label `l`, ascending by id (via the label index).
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        self.csr().vertices_with_label(l)
    }

    /// The `(label, count)` histogram of `v`'s neighbor labels, sorted by
    /// label (via the CSR index).
    #[inline]
    pub fn neighbor_label_histogram(&self, v: VertexId) -> &[(Label, u32)] {
        self.csr().neighbor_label_histogram(v)
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        match &self.labels {
            Labels::Owned(v) => v.len(),
            Labels::Shared(s) => s.len(),
        }
    }

    /// Number of undirected edges.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The paper defines the *size* of a pattern as its number of edges.
    #[inline]
    pub fn size(&self) -> usize {
        self.edge_count
    }

    /// Label of vertex `v`.
    #[inline]
    pub fn label(&self, v: VertexId) -> Label {
        self.labels()[v.index()]
    }

    /// Sorted neighbors of `v`.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        match &self.adjacency {
            Adjacency::Lists(rows) => &rows[v.index()],
            Adjacency::Frozen { offsets, neighbors } => {
                &neighbors[offsets[v.index()] as usize..offsets[v.index() + 1] as usize]
            }
        }
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        match &self.adjacency {
            Adjacency::Lists(rows) => rows[v.index()].len(),
            Adjacency::Frozen { offsets, .. } => {
                (offsets[v.index() + 1] - offsets[v.index()]) as usize
            }
        }
    }

    /// Whether the undirected edge `(u, v)` exists.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterates over all vertex ids.
    pub fn vertices(&self) -> impl Iterator<Item = VertexId> + '_ {
        (0..self.vertex_count() as u32).map(VertexId)
    }

    /// Iterates over all undirected edges as `(u, v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        self.vertices().flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// All vertex labels, indexed by vertex id.
    pub fn labels(&self) -> &[Label] {
        match &self.labels {
            Labels::Owned(v) => v,
            Labels::Shared(s) => s,
        }
    }

    /// True if the graph has no vertices.
    pub fn is_empty(&self) -> bool {
        self.vertex_count() == 0
    }

    /// Average degree `2|E| / |V|` (0.0 for the empty graph).
    pub fn average_degree(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            2.0 * self.edge_count as f64 / self.vertex_count() as f64
        }
    }

    /// Maximum degree over all vertices (0 for the empty graph).
    pub fn max_degree(&self) -> usize {
        match &self.adjacency {
            Adjacency::Lists(rows) => rows.iter().map(Vec::len).max().unwrap_or(0),
            Adjacency::Frozen { offsets, .. } => offsets
                .windows(2)
                .map(|w| (w[1] - w[0]) as usize)
                .max()
                .unwrap_or(0),
        }
    }

    /// Number of distinct labels used in the graph.
    pub fn distinct_label_count(&self) -> usize {
        let mut labels: Vec<u32> = self.labels().iter().map(|l| l.0).collect();
        labels.sort_unstable();
        labels.dedup();
        labels.len()
    }

    /// The vertex labels as a cheaply clonable shared slice (for the CSR
    /// index, which must outlive borrows of the graph's internals).
    pub(crate) fn shared_labels(&self) -> ArcSlice<Label> {
        match &self.labels {
            Labels::Owned(v) => ArcSlice::from_vec(v.clone()),
            Labels::Shared(s) => s.clone(),
        }
    }

    /// The frozen CSR arrays, if this graph is snapshot-backed. `None` for
    /// graphs in mutable list form.
    pub(crate) fn frozen_parts(&self) -> Option<(ArcSlice<u32>, ArcSlice<VertexId>)> {
        match &self.adjacency {
            Adjacency::Frozen { offsets, neighbors } => Some((offsets.clone(), neighbors.clone())),
            Adjacency::Lists(_) => None,
        }
    }

    /// Builds a frozen graph over shared flat CSR arrays without copying them.
    ///
    /// This is the zero-copy endpoint of snapshot loading: the slices can
    /// point straight into a memory mapping, and the graph's [`CsrIndex`] is
    /// pre-seeded over the *same* slices, so a later [`LabeledGraph::csr`]
    /// call returns it without building (or allocating) anything. `packed`
    /// optionally carries a snapshot's undecoded label-index section for
    /// lazy decoding.
    ///
    /// The caller must pass well-formed data — monotone offsets, each row
    /// strictly ascending with no self-loops, and symmetric adjacency
    /// (`v ∈ row(u) ⇔ u ∈ row(v)`); `io` validates all of that before calling
    /// here. Violations are caught by `debug_assert` only.
    pub fn from_shared_parts(
        labels: ArcSlice<Label>,
        offsets: ArcSlice<u32>,
        neighbors: ArcSlice<VertexId>,
        packed: Option<PackedLabelIndex>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        debug_assert_eq!(offsets.first().copied().unwrap_or(0), 0);
        debug_assert_eq!(
            offsets.last().copied().unwrap_or(0) as usize,
            neighbors.len()
        );
        debug_assert_eq!(neighbors.len() % 2, 0);
        debug_assert!((0..labels.len()).all(|i| {
            neighbors[offsets[i] as usize..offsets[i + 1] as usize]
                .windows(2)
                .all(|w| w[0] < w[1])
        }));
        let csr = OnceLock::new();
        csr.set(CsrIndex::from_arrays(
            labels.clone(),
            offsets.clone(),
            neighbors.clone(),
            packed,
        ))
        .unwrap_or_else(|_| unreachable!("freshly created OnceLock"));
        Self {
            edge_count: neighbors.len() / 2,
            labels: Labels::Shared(labels),
            adjacency: Adjacency::Frozen { offsets, neighbors },
            csr,
        }
    }

    /// Builds a graph directly from a label slice and an edge list.
    ///
    /// Convenience constructor used pervasively in tests and generators.
    pub fn from_parts(labels: &[Label], edges: &[(u32, u32)]) -> Self {
        let mut g = Self::with_capacity(labels.len());
        for &l in labels {
            g.add_vertex(l);
        }
        for &(u, v) in edges {
            g.add_edge(VertexId(u), VertexId(v));
        }
        g
    }
}

impl fmt::Debug for LabeledGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "LabeledGraph(|V|={}, |E|={})",
            self.vertex_count(),
            self.edge_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> LabeledGraph {
        LabeledGraph::from_parts(&[Label(0), Label(1), Label(2)], &[(0, 1), (1, 2), (0, 2)])
    }

    #[test]
    fn add_vertex_and_edge_basics() {
        let mut g = LabeledGraph::new();
        let a = g.add_vertex(Label(5));
        let b = g.add_vertex(Label(6));
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 0);
        assert!(g.add_edge(a, b));
        assert!(!g.add_edge(a, b), "duplicate edge must be rejected");
        assert!(!g.add_edge(b, a), "reverse duplicate must be rejected");
        assert!(!g.add_edge(a, a), "self loop must be rejected");
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(a, b));
        assert!(g.has_edge(b, a));
        assert_eq!(g.label(a), Label(5));
        assert_eq!(g.degree(a), 1);
    }

    #[test]
    fn neighbors_are_sorted() {
        let mut g = LabeledGraph::new();
        let vs: Vec<_> = (0..5).map(|_| g.add_vertex(Label(0))).collect();
        g.add_edge(vs[0], vs[3]);
        g.add_edge(vs[0], vs[1]);
        g.add_edge(vs[0], vs[4]);
        g.add_edge(vs[0], vs[2]);
        let n: Vec<u32> = g.neighbors(vs[0]).iter().map(|v| v.0).collect();
        assert_eq!(n, vec![1, 2, 3, 4]);
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, v) in edges {
            assert!(u < v);
            assert!(g.has_edge(u, v));
        }
    }

    #[test]
    fn stats_helpers() {
        let g = triangle();
        assert_eq!(g.size(), 3);
        assert!((g.average_degree() - 2.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.distinct_label_count(), 3);
        assert!(!g.is_empty());
        assert_eq!(LabeledGraph::new().average_degree(), 0.0);
        assert_eq!(LabeledGraph::new().max_degree(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn add_edge_panics_on_unknown_vertex() {
        let mut g = LabeledGraph::new();
        g.add_vertex(Label(0));
        g.add_edge(VertexId(0), VertexId(7));
    }

    #[test]
    fn from_parts_roundtrip() {
        let g = LabeledGraph::from_parts(&[Label(1), Label(1)], &[(0, 1)]);
        assert_eq!(g.vertex_count(), 2);
        assert_eq!(g.edge_count(), 1);
        assert!(g.has_edge(VertexId(0), VertexId(1)));
    }
}
