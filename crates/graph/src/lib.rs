//! Labeled-graph substrate for the SpiderMine reproduction.
//!
//! This crate provides everything the miners in the workspace operate on:
//!
//! * [`LabeledGraph`] — an undirected, simple, vertex-labeled graph stored as a
//!   compact adjacency list, the "single massive network" of the paper.
//! * [`csr`] — the frozen CSR view of a graph (flat adjacency, label index,
//!   neighbor-label histograms) that the matcher and the spider miner read.
//! * [`label`] — label interning so that callers can use human-readable label
//!   names while the miners work with dense `u32` label ids.
//! * [`traversal`] — BFS, bounded BFS, shortest distances, eccentricity,
//!   diameter/radius and connected components.
//! * [`subgraph`] — induced and edge-set subgraph extraction with vertex maps.
//! * [`iso`] — label-aware VF2 graph isomorphism and subgraph-isomorphism
//!   (embedding enumeration), the correctness oracle behind every support count.
//! * [`pattern_store`] — the arena of pattern graphs (flat vertex/edge pools,
//!   [`PatternId`] handles, copy-on-grow) behind the engine's pattern storage.
//! * [`signature`] — cheap isomorphism-invariant signatures used to avoid VF2
//!   calls (the paper's spider-set idea lives one level up, in `spidermine`).
//! * [`generate`] — Erdős–Rényi and Barabási–Albert generators plus pattern
//!   injection, reproducing the synthetic data of the paper's evaluation.
//! * [`transaction`] — a graph-transaction database for the Figures 14–15
//!   comparison against ORIGAMI.
//! * [`io`] — a small text format for persisting graphs and patterns, plus
//!   the binary snapshot format (mmap-backed, zero-copy).
//! * [`shared`] — reference-counted byte regions and typed slices
//!   ([`SharedBytes`], [`ArcSlice`]) that let frozen graphs borrow snapshot
//!   storage (a memory mapping or a read buffer) without copying.

pub mod csr;
pub mod generate;
pub mod graph;
pub mod io;
pub mod iso;
pub mod label;
pub mod pattern_store;
pub mod shared;
pub mod signature;
pub mod stats;
pub mod subgraph;
pub mod transaction;
pub mod traversal;

pub use csr::CsrIndex;
pub use graph::{LabeledGraph, VertexId};
pub use label::{Label, LabelInterner};
pub use pattern_store::{PatternId, PatternStore, PatternView};
pub use shared::{ArcSlice, SharedBytes};
pub use stats::GraphStats;
pub use transaction::GraphDatabase;
