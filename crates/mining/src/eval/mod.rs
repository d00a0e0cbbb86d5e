//! The incremental embedding-evaluation layer.
//!
//! Support evaluation is the hot path of every miner in the workspace, and
//! before this layer it was dominated by re-matching: child patterns were
//! re-matched from scratch even though they differ from their parent by one
//! edge and the parent's embeddings were in hand. The eval layer removes
//! that, behind two pieces:
//!
//! * [`EmbeddingStore`] — the columnar embedding arena (one flat `VertexId`
//!   pool, [`EmbeddingSetId`] handles), replacing the `Vec<Embedding>` lists
//!   cloned through growth, merging and pooling. Its [`EmbeddingStore::extend`]
//!   runs the incremental engine
//!   ([`iso::extend_embeddings`](spidermine_graph::iso::extend_embeddings));
//!   [`EmbeddingStore::discover`] is the retained scratch-matcher fallback.
//!   Supports are computed directly from a set's rows
//!   ([`EmbeddingSetView::support`]) under the miner's configured
//!   [`SupportMeasure`](crate::support::SupportMeasure).
//! * [`bitset`] — the shared [`VertexBitset`] / vertex-set dedup helpers that
//!   `support` and `embedding` previously each owned a copy of.
//!
//! See `DESIGN.md` § "Incremental evaluation layer" for the invariants.

pub mod bitset;
pub mod store;

pub use bitset::{popcount_words, popcount_words_scalar, VertexBitset};
pub use store::{EmbeddingSetId, EmbeddingSetView, EmbeddingStore, FlatEmbeddings};
