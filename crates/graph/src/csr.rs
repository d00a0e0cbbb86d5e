//! Frozen CSR (compressed sparse row) view of a [`LabeledGraph`].
//!
//! The mutable [`LabeledGraph`] builder stores one `Vec<VertexId>` per vertex,
//! which is convenient for incremental construction but poor for the matcher's
//! access pattern: candidate generation walks many adjacency lists and label
//! classes per search node, so pointer-chasing and per-vertex allocations
//! dominate. [`CsrIndex`] freezes the graph into three flat structures:
//!
//! * **Adjacency CSR** — `offsets` / `neighbors`: all adjacency lists in one
//!   contiguous array, each row sorted by vertex id.
//! * **Label index** — all vertices grouped by label
//!   ([`CsrIndex::vertices_with_label`]), the unanchored-candidate source for
//!   the VF2 matcher (replacing a full host scan).
//! * **Neighbor-label histograms** — per vertex, the sorted `(label, count)`
//!   multiset of its neighbors' labels ([`CsrIndex::neighbor_label_histogram`]),
//!   the workhorse of Stage-I spider mining and of the matcher's capacity
//!   pruning.
//!
//! The core arrays are held as [`ArcSlice`]s, so an index built from a
//! memory-mapped snapshot (see `io`) points straight into the
//! mapped file — freezing a loaded graph copies nothing. The label index and
//! the histograms are derived structures and are built lazily on first use:
//! a snapshot-backed graph that only ever runs a histogram-free algorithm
//! never faults the label-index section in at all.
//!
//! The index is built lazily by [`LabeledGraph::csr`] and cached; any mutation
//! of the graph invalidates the cache. See `DESIGN.md` § "CSR graph core" and
//! § "Snapshot format".

use crate::graph::{LabeledGraph, VertexId};
use crate::iso::SearchPlan;
use crate::label::Label;
use crate::shared::{ArcSlice, SharedBytes};
use crate::signature::StableHasher;
use rustc_hash::FxHashMap;
use std::sync::OnceLock;

/// Label ids below this bound get a dense (array-indexed) label index; rarer,
/// sparser id spaces fall back to a hash map. All the paper's workloads use
/// small dense label spaces, so the dense path is the common one.
const DENSE_LABEL_BOUND: u32 = 1 << 20;

/// Vertices grouped by label: dense offsets over label ids, a sparse map, or
/// a zero-copy view into a snapshot's packed label-index section. All three
/// yield sorted vertex-id slices.
#[derive(Debug)]
pub(crate) enum LabelIndex {
    Dense {
        /// `offsets[l] .. offsets[l + 1]` indexes `vertices` for label `l`.
        offsets: Vec<u32>,
        vertices: Vec<VertexId>,
    },
    Sparse {
        by_label: FxHashMap<Label, Vec<VertexId>>,
        /// Distinct labels in ascending order (for deterministic iteration).
        labels: Vec<Label>,
    },
    /// Decoded straight out of a snapshot's label-index section: distinct
    /// labels ascending, group starts, and vertices grouped by label. The
    /// slices borrow the snapshot storage (mapping or read buffer).
    Packed {
        labels: ArcSlice<Label>,
        /// `starts[i] .. starts[i + 1]` indexes `vertices` for `labels[i]`;
        /// length `labels.len() + 1`.
        starts: ArcSlice<u32>,
        vertices: ArcSlice<VertexId>,
    },
}

/// The raw label-index section of a snapshot, deferred for lazy
/// decoding.
///
/// Holding this instead of a decoded index is what makes snapshot loading
/// lazy in the one place it can be: the section's pages are only read (and,
/// for a mapping, only faulted in) when a label-index-using algorithm first
/// asks for them. The crate-private `decode` checksums and structurally
/// validates the section at that point; if the section is corrupt the caller
/// falls back to rebuilding the index from the (already validated) labels
/// section, because the section is redundant by construction.
pub struct PackedLabelIndex {
    /// The section bytes: `d`, `labels[d]`, `starts[d + 1]`, `vertices[n]`,
    /// all little-endian `u32`.
    section: SharedBytes,
    /// Section checksum from the snapshot's section table.
    checksum: u64,
    /// `|V|` from the snapshot header; fixes the expected `vertices` length.
    vertex_count: u32,
}

impl PackedLabelIndex {
    /// Wraps an undecoded label-index section (see the `io` module for the
    /// on-disk layout).
    pub(crate) fn new(section: SharedBytes, checksum: u64, vertex_count: u32) -> Self {
        Self {
            section,
            checksum,
            vertex_count,
        }
    }

    /// Checksums, parses, and structurally validates the section against the
    /// graph's vertex labels. Returns the decoded index, or a description of
    /// the first violation found.
    pub(crate) fn decode(&self, vertex_labels: &[Label]) -> Result<LabelIndex, String> {
        let mut hasher = StableHasher::new();
        hasher.write_bytes(self.section.as_slice());
        let computed = hasher.finish();
        if computed != self.checksum {
            return Err(format!(
                "label-index section checksum mismatch: table says {:#018x}, section hashes to {computed:#018x}",
                self.checksum
            ));
        }
        let n = self.vertex_count as usize;
        let word = |i: usize| -> Option<u32> {
            let bytes = self.section.as_slice().get(i * 4..i * 4 + 4)?;
            Some(u32::from_le_bytes(bytes.try_into().expect("4 bytes")))
        };
        let d = word(0).ok_or("label-index section shorter than its count word")? as usize;
        let want_words = 1 + d + (d + 1) + n;
        if self.section.len() != want_words * 4 {
            return Err(format!(
                "label-index section length {} != expected {} bytes for {d} classes over {n} vertices",
                self.section.len(),
                want_words * 4
            ));
        }
        let labels: ArcSlice<Label> = self.section.typed(4, d).expect("length checked");
        let starts: ArcSlice<u32> = self
            .section
            .typed(4 * (1 + d), d + 1)
            .expect("length checked");
        let vertices: ArcSlice<VertexId> = self
            .section
            .typed(4 * (1 + d + d + 1), n)
            .expect("length checked");

        if !labels.windows(2).all(|w| w[0] < w[1]) {
            return Err("label-index classes not strictly ascending".into());
        }
        if starts.first().copied() != Some(0) || starts.last().copied() != Some(n as u32) {
            return Err("label-index group starts do not span the vertex array".into());
        }
        if !starts.windows(2).all(|w| w[0] <= w[1]) {
            return Err("label-index group starts not monotone".into());
        }
        if vertex_labels.len() != n {
            return Err(format!(
                "label-index built for {n} vertices but graph has {}",
                vertex_labels.len()
            ));
        }
        for g in 0..d {
            let group = &vertices[starts[g] as usize..starts[g + 1] as usize];
            if group.is_empty() {
                return Err(format!("label-index class {:?} is empty", labels[g]));
            }
            if !group.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!(
                    "label-index class {:?} vertices not strictly ascending",
                    labels[g]
                ));
            }
            for &v in group {
                match vertex_labels.get(v.index()) {
                    Some(&l) if l == labels[g] => {}
                    Some(&l) => {
                        return Err(format!(
                            "label-index places {v:?} under {:?} but its label is {l:?}",
                            labels[g]
                        ));
                    }
                    None => return Err(format!("label-index references {v:?} out of bounds")),
                }
            }
        }
        Ok(LabelIndex::Packed {
            labels,
            starts,
            vertices,
        })
    }
}

/// Lazily built neighbor-label histograms: one sorted `(label, count)` row
/// per vertex, CSR-packed.
struct Histograms {
    /// Row offsets into `entries`; length `|V| + 1`.
    offsets: Vec<u32>,
    /// Concatenated per-vertex rows, each sorted by label.
    entries: Vec<(Label, u32)>,
}

/// The frozen, flat, read-optimized form of a [`LabeledGraph`].
pub struct CsrIndex {
    /// Vertex labels, indexed by vertex id (shared with the graph/snapshot).
    labels: ArcSlice<Label>,
    /// Row offsets into `neighbors`; length `|V| + 1`.
    offsets: ArcSlice<u32>,
    /// Concatenated sorted adjacency lists.
    neighbors: ArcSlice<VertexId>,
    /// Undecoded label-index section from a snapshot, if this index was
    /// loaded from one; decoded (checksummed + validated) on first use.
    packed: Option<PackedLabelIndex>,
    /// Vertices grouped by label; built (or decoded from `packed`) on first
    /// use.
    label_index: OnceLock<LabelIndex>,
    /// Per-vertex neighbor-label histograms; built on first use.
    hists: OnceLock<Histograms>,
    /// Cached VF2 search plans when this graph is used as a *pattern*:
    /// `[non-induced, induced]`. Invalidated together with the whole index.
    plans: [OnceLock<SearchPlan>; 2],
}

impl CsrIndex {
    /// Freezes `graph` into CSR form. Called through [`LabeledGraph::csr`].
    ///
    /// A graph already in frozen (snapshot-backed) storage contributes its
    /// existing flat arrays by reference — no copying, no re-freeze.
    pub(crate) fn build(graph: &LabeledGraph) -> Self {
        let labels = graph.shared_labels();
        let (offsets, neighbors) = match graph.frozen_parts() {
            Some(parts) => parts,
            None => {
                let n = graph.vertex_count();
                let mut offsets = Vec::with_capacity(n + 1);
                let mut neighbors = Vec::with_capacity(2 * graph.edge_count());
                offsets.push(0);
                for v in graph.vertices() {
                    neighbors.extend_from_slice(graph.neighbors(v));
                    offsets.push(neighbors.len() as u32);
                }
                (ArcSlice::from_vec(offsets), ArcSlice::from_vec(neighbors))
            }
        };
        Self::from_arrays(labels, offsets, neighbors, None)
    }

    /// Assembles an index directly from flat arrays (the snapshot-load path).
    /// `packed` carries the snapshot's undecoded label-index section, if any.
    pub(crate) fn from_arrays(
        labels: ArcSlice<Label>,
        offsets: ArcSlice<u32>,
        neighbors: ArcSlice<VertexId>,
        packed: Option<PackedLabelIndex>,
    ) -> Self {
        debug_assert_eq!(offsets.len(), labels.len() + 1);
        Self {
            labels,
            offsets,
            neighbors,
            packed,
            label_index: OnceLock::new(),
            hists: OnceLock::new(),
            plans: [OnceLock::new(), OnceLock::new()],
        }
    }

    /// The label index, decoding the snapshot's packed section on first use.
    ///
    /// A corrupt packed section is *not* fatal here: it is redundant with the
    /// labels section (which was validated at load time), so the index is
    /// rebuilt from the labels instead. Eager loads surface the same
    /// corruption as a typed error by calling [`PackedLabelIndex::decode`]
    /// directly — see `io::graph_from_snapshot`.
    fn label_index(&self) -> &LabelIndex {
        self.label_index.get_or_init(|| {
            if let Some(packed) = &self.packed {
                if let Ok(decoded) = packed.decode(&self.labels) {
                    return decoded;
                }
            }
            Self::build_label_index(&self.labels)
        })
    }

    /// Groups vertices by label (counting sort for dense id spaces, hash map
    /// for sparse ones).
    fn build_label_index(labels: &[Label]) -> LabelIndex {
        let n = labels.len();
        let max_label = labels.iter().map(|l| l.0).max().unwrap_or(0);
        if max_label < DENSE_LABEL_BOUND {
            // Counting sort by label; vertex ids stay ascending within a label.
            let classes = max_label as usize + 1;
            let mut counts = vec![0u32; classes + 1];
            for l in labels {
                counts[l.0 as usize + 1] += 1;
            }
            for i in 0..classes {
                counts[i + 1] += counts[i];
            }
            let label_offsets = counts.clone();
            let mut vertices = vec![VertexId(0); n];
            for i in 0..n {
                let slot = &mut counts[labels[i].0 as usize];
                vertices[*slot as usize] = VertexId(i as u32);
                *slot += 1;
            }
            LabelIndex::Dense {
                offsets: label_offsets,
                vertices,
            }
        } else {
            let mut by_label: FxHashMap<Label, Vec<VertexId>> = FxHashMap::default();
            for i in 0..n {
                by_label
                    .entry(labels[i])
                    .or_default()
                    .push(VertexId(i as u32));
            }
            let mut sorted: Vec<Label> = by_label.keys().copied().collect();
            sorted.sort_unstable();
            LabelIndex::Sparse {
                by_label,
                labels: sorted,
            }
        }
    }

    /// The histograms, built on first use.
    fn hists(&self) -> &Histograms {
        self.hists.get_or_init(|| {
            let n = self.vertex_count();
            // Each adjacency row is sorted by vertex id, not label, so sort a
            // scratch row of labels per vertex and run-length encode it.
            let mut offsets = Vec::with_capacity(n + 1);
            let mut entries = Vec::new();
            offsets.push(0);
            let mut scratch: Vec<Label> = Vec::new();
            for v in 0..n {
                scratch.clear();
                scratch.extend(
                    self.neighbors(VertexId(v as u32))
                        .iter()
                        .map(|&u| self.labels[u.index()]),
                );
                scratch.sort_unstable();
                let mut i = 0;
                while i < scratch.len() {
                    let label = scratch[i];
                    let mut j = i + 1;
                    while j < scratch.len() && scratch[j] == label {
                        j += 1;
                    }
                    entries.push((label, (j - i) as u32));
                    i = j;
                }
                offsets.push(entries.len() as u32);
            }
            Histograms { offsets, entries }
        })
    }

    /// Forces the lazy structures (label index, histograms) to materialize.
    /// Benches use this to separate open latency from first-use latency.
    pub fn prewarm(&self) {
        let _ = self.label_index();
        let _ = self.hists();
    }

    /// The cached VF2 search plan for using this graph as a pattern
    /// (`graph` must be the graph this index was built from).
    pub(crate) fn search_plan(&self, graph: &LabeledGraph, induced: bool) -> &SearchPlan {
        self.plans[induced as usize].get_or_init(|| SearchPlan::build(graph, induced))
    }

    /// Number of vertices.
    #[inline]
    pub fn vertex_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Sorted neighbors of `v` as one contiguous slice.
    #[inline]
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v.index()] as usize;
        let hi = self.offsets[v.index() + 1] as usize;
        &self.neighbors[lo..hi]
    }

    /// Degree of `v`.
    #[inline]
    pub fn degree(&self, v: VertexId) -> usize {
        (self.offsets[v.index() + 1] - self.offsets[v.index()]) as usize
    }

    /// Whether the edge `(u, v)` exists; binary search over the smaller of the
    /// two adjacency rows.
    #[inline]
    pub fn has_edge(&self, u: VertexId, v: VertexId) -> bool {
        if self.degree(u) <= self.degree(v) {
            self.neighbors(u).binary_search(&v).is_ok()
        } else {
            self.neighbors(v).binary_search(&u).is_ok()
        }
    }

    /// All vertices with label `l`, ascending by id. Empty slice for labels
    /// absent from the graph.
    #[inline]
    pub fn vertices_with_label(&self, l: Label) -> &[VertexId] {
        match self.label_index() {
            LabelIndex::Dense { offsets, vertices } => {
                let i = l.0 as usize;
                if i + 1 >= offsets.len() {
                    return &[];
                }
                &vertices[offsets[i] as usize..offsets[i + 1] as usize]
            }
            LabelIndex::Sparse { by_label, .. } => {
                by_label.get(&l).map(Vec::as_slice).unwrap_or(&[])
            }
            LabelIndex::Packed {
                labels,
                starts,
                vertices,
            } => match labels.binary_search(&l) {
                Ok(i) => &vertices[starts[i] as usize..starts[i + 1] as usize],
                Err(_) => &[],
            },
        }
    }

    /// Iterates the distinct labels of the graph in ascending order, each with
    /// its (non-empty) sorted vertex slice.
    pub fn labels_with_vertices(&self) -> impl Iterator<Item = (Label, &[VertexId])> + '_ {
        let iter: Box<dyn Iterator<Item = (Label, &[VertexId])>> = match self.label_index() {
            LabelIndex::Dense { offsets, vertices } => {
                Box::new((0..offsets.len().saturating_sub(1)).filter_map(move |i| {
                    let slice = &vertices[offsets[i] as usize..offsets[i + 1] as usize];
                    (!slice.is_empty()).then_some((Label(i as u32), slice))
                }))
            }
            LabelIndex::Sparse { by_label, labels } => {
                Box::new(labels.iter().map(move |&l| (l, by_label[&l].as_slice())))
            }
            LabelIndex::Packed {
                labels,
                starts,
                vertices,
            } => Box::new((0..labels.len()).map(move |i| {
                (
                    labels[i],
                    &vertices[starts[i] as usize..starts[i + 1] as usize],
                )
            })),
        };
        iter
    }

    /// The neighbor-label histogram of `v`: `(label, count)` pairs sorted by
    /// label, one entry per distinct neighbor label.
    #[inline]
    pub fn neighbor_label_histogram(&self, v: VertexId) -> &[(Label, u32)] {
        let hists = self.hists();
        let lo = hists.offsets[v.index()] as usize;
        let hi = hists.offsets[v.index() + 1] as usize;
        &hists.entries[lo..hi]
    }

    /// Number of neighbors of `v` with label `l`.
    #[inline]
    pub fn neighbor_label_count(&self, v: VertexId, l: Label) -> u32 {
        let row = self.neighbor_label_histogram(v);
        match row.binary_search_by_key(&l, |&(label, _)| label) {
            Ok(i) => row[i].1,
            Err(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LabeledGraph {
        // v0(L0) - v1(L1), v0 - v2(L1), v2 - v3(L0), isolated v4(L2)
        LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(1), Label(0), Label(2)],
            &[(0, 1), (0, 2), (2, 3)],
        )
    }

    #[test]
    fn csr_matches_adjacency() {
        let g = sample();
        let csr = g.csr();
        assert_eq!(csr.vertex_count(), 5);
        for v in g.vertices() {
            assert_eq!(csr.neighbors(v), g.neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
        }
        for u in g.vertices() {
            for v in g.vertices() {
                assert_eq!(csr.has_edge(u, v), g.has_edge(u, v), "edge ({u}, {v})");
            }
        }
    }

    #[test]
    fn label_index_groups_and_sorts() {
        let g = sample();
        let csr = g.csr();
        assert_eq!(
            csr.vertices_with_label(Label(0)),
            &[VertexId(0), VertexId(3)]
        );
        assert_eq!(
            csr.vertices_with_label(Label(1)),
            &[VertexId(1), VertexId(2)]
        );
        assert_eq!(csr.vertices_with_label(Label(2)), &[VertexId(4)]);
        assert!(csr.vertices_with_label(Label(9)).is_empty());
        let labels: Vec<u32> = csr.labels_with_vertices().map(|(l, _)| l.0).collect();
        assert_eq!(labels, vec![0, 1, 2]);
    }

    #[test]
    fn histograms_count_neighbor_labels() {
        let g = sample();
        let csr = g.csr();
        assert_eq!(csr.neighbor_label_histogram(VertexId(0)), &[(Label(1), 2)]);
        assert_eq!(csr.neighbor_label_histogram(VertexId(2)), &[(Label(0), 2)],);
        assert!(csr.neighbor_label_histogram(VertexId(4)).is_empty());
        assert_eq!(csr.neighbor_label_count(VertexId(0), Label(1)), 2);
        assert_eq!(csr.neighbor_label_count(VertexId(0), Label(0)), 0);
    }

    #[test]
    fn cache_invalidation_on_mutation() {
        let mut g = sample();
        assert_eq!(g.csr().vertices_with_label(Label(2)).len(), 1);
        let v = g.add_vertex(Label(2));
        g.add_edge(VertexId(0), v);
        let csr = g.csr();
        assert_eq!(csr.vertices_with_label(Label(2)).len(), 2);
        assert_eq!(csr.neighbor_label_count(VertexId(0), Label(2)), 1);
    }

    #[test]
    fn empty_graph_has_empty_index() {
        let g = LabeledGraph::new();
        let csr = g.csr();
        assert_eq!(csr.vertex_count(), 0);
        assert!(csr.vertices_with_label(Label(0)).is_empty());
        assert_eq!(csr.labels_with_vertices().count(), 0);
    }

    #[test]
    fn sparse_label_ids_use_hash_index() {
        let g = LabeledGraph::from_parts(
            &[Label(u32::MAX - 1), Label(5), Label(u32::MAX - 1)],
            &[(0, 1), (1, 2)],
        );
        let csr = g.csr();
        assert_eq!(
            csr.vertices_with_label(Label(u32::MAX - 1)),
            &[VertexId(0), VertexId(2)]
        );
        assert_eq!(csr.vertices_with_label(Label(5)), &[VertexId(1)]);
        let labels: Vec<u32> = csr.labels_with_vertices().map(|(l, _)| l.0).collect();
        assert_eq!(labels, vec![5, u32::MAX - 1]);
        assert_eq!(
            csr.neighbor_label_count(VertexId(1), Label(u32::MAX - 1)),
            2
        );
    }

    /// Builds the packed section bytes the way `io` lays them out, so the
    /// decode path can be exercised without a full snapshot file.
    fn packed_section(labels: &[u32], starts: &[u32], vertices: &[u32]) -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(labels.len() as u32).to_le_bytes());
        for w in labels.iter().chain(starts).chain(vertices) {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
        bytes
    }

    fn section_checksum(bytes: &[u8]) -> u64 {
        let mut h = StableHasher::new();
        h.write_bytes(bytes);
        h.finish()
    }

    #[test]
    fn packed_label_index_decodes_and_serves_queries() {
        // Labels per vertex: v0=L0, v1=L1, v2=L1, v3=L0, v4=L2.
        let vertex_labels = [Label(0), Label(1), Label(1), Label(0), Label(2)];
        let bytes = packed_section(&[0, 1, 2], &[0, 2, 4, 5], &[0, 3, 1, 2, 4]);
        let checksum = section_checksum(&bytes);
        let packed = PackedLabelIndex::new(SharedBytes::new(bytes), checksum, 5);
        let decoded = packed.decode(&vertex_labels).expect("well-formed section");
        match decoded {
            LabelIndex::Packed {
                labels, vertices, ..
            } => {
                assert_eq!(&*labels, &[Label(0), Label(1), Label(2)]);
                assert_eq!(vertices.len(), 5);
            }
            _ => panic!("expected packed variant"),
        }
    }

    #[test]
    fn packed_label_index_rejects_corruption() {
        let vertex_labels = [Label(0), Label(1)];
        let good = packed_section(&[0, 1], &[0, 1, 2], &[0, 1]);
        let checksum = section_checksum(&good);

        // Bit flip → checksum mismatch.
        let mut flipped = good.clone();
        flipped[6] ^= 0x40;
        let err = PackedLabelIndex::new(SharedBytes::new(flipped), checksum, 2)
            .decode(&vertex_labels)
            .expect_err("flip must be caught");
        assert!(err.contains("checksum"), "{err}");

        // Structural lie with a recomputed (valid) checksum: vertex under the
        // wrong class.
        let lying = packed_section(&[0, 1], &[0, 1, 2], &[1, 0]);
        let lying_sum = section_checksum(&lying);
        let err = PackedLabelIndex::new(SharedBytes::new(lying), lying_sum, 2)
            .decode(&vertex_labels)
            .expect_err("mislabeled vertex must be caught");
        assert!(err.contains("label"), "{err}");

        // Wrong length.
        let short = packed_section(&[0, 1], &[0, 1, 2], &[0]);
        let short_sum = section_checksum(&short);
        let err = PackedLabelIndex::new(SharedBytes::new(short), short_sum, 2)
            .decode(&vertex_labels)
            .expect_err("short section must be caught");
        assert!(err.contains("length"), "{err}");
    }
}
