//! Frequent-subgraph mining substrate shared by SpiderMine and the baselines.
//!
//! * [`embedding`] — embeddings of a pattern into a host graph and the
//!   [`embedding::EmbeddedPattern`] bundle (pattern + its embedding list) that
//!   every miner in the workspace grows and prunes.
//! * [`support`] — pluggable single-graph support measures: raw embedding
//!   count, minimum node image (MNI), and a greedy maximum-independent-set
//!   overlap-aware measure standing in for the paper's harmful-overlap support.
//! * [`pattern_index`] — isomorphism-aware pattern deduplication (invariant
//!   signature buckets + VF2 confirmation).
//! * [`spider`] — Stage I of SpiderMine for r = 1: mining all frequent
//!   star-shaped 1-spiders with their head-vertex occurrence lists.
//! * [`rspider`] — the general r-spider enumerator (tree-shaped, BFS-bounded
//!   growth) used for the radius sweep of the paper's appendix.
//! * [`extension`] — generic one-edge pattern growth with embedding
//!   maintenance, the workhorse of the MoSS/gSpan-style and SUBDUE baselines.
//! * [`context`] — the execution context of the unified engine API:
//!   cooperative cancellation, progress callbacks, streaming pattern delivery
//!   and per-stage timings, threaded through every miner's `*_with` entry
//!   point.
//! * [`eval`] — the incremental embedding-evaluation layer: the columnar
//!   [`eval::EmbeddingStore`] arena (flat `VertexId` pool,
//!   [`eval::EmbeddingSetId`] handles) with direct support evaluation over
//!   its rows, and the shared [`eval::VertexBitset`].

pub mod context;
pub mod embedding;
pub mod eval;
pub mod extension;
pub mod pattern_index;
pub mod rspider;
pub mod spider;
pub mod support;

pub use context::{CancelToken, MineContext, ProgressEvent, StageTiming, StreamedPattern};
pub use embedding::{EmbeddedPattern, Embedding};
pub use eval::{EmbeddingSetId, EmbeddingSetView, EmbeddingStore, FlatEmbeddings, VertexBitset};
pub use pattern_index::PatternIndex;
pub use spider::{Spider, SpiderCatalog, SpiderId, SpiderMiningConfig};
pub use support::SupportMeasure;
