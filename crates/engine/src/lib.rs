//! The unified mining engine API: one way to run each of the six mining
//! algorithms (SpiderMine, its transaction adaptation, SUBDUE, MoSS, ORIGAMI
//! and SEuS).
//!
//! * [`MineRequest`] — a validated builder (σ, K, ε, `Dmax`, r, budgets,
//!   seed). [`MineRequest::build`] rejects bad values with
//!   [`MineError::InvalidConfig`] naming the offending field, and returns an
//!   [`Engine`].
//! * [`Engine::mine`] — `mine(&GraphSource, &mut MineContext) ->
//!   Result<MineOutcome, MineError>` for whichever algorithm the request
//!   names. It calls that algorithm's own `*_with` entry point
//!   (`SpiderMiner::mine_with`, `TransactionMiner::mine_with`, or `run_with`
//!   in each baseline) on the config the request maps onto.
//! * [`MineContext`] — cooperative cancellation ([`CancelToken`]), progress
//!   callbacks ([`ProgressEvent`]), per-stage timings ([`StageTiming`]), and
//!   push-streaming of accepted patterns ([`StreamedPattern`]).
//! * [`PatternStream`] — pull-based streaming: iterate over patterns while
//!   an [`Engine`] runs on a worker thread.
//!
//! ```
//! use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
//! use spidermine_graph::{Label, LabeledGraph};
//!
//! // A toy network: two copies of a 4-vertex pattern plus noise.
//! let mut g = LabeledGraph::new();
//! let labels = [0u32, 1, 2, 3, 0, 1, 2, 3, 5, 6];
//! let vs: Vec<_> = labels.iter().map(|&l| g.add_vertex(Label(l))).collect();
//! for (a, b) in [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 7), (8, 9)] {
//!     g.add_edge(vs[a], vs[b]);
//! }
//!
//! let miner = MineRequest::new(Algorithm::SpiderMine)
//!     .support_threshold(2)
//!     .k(3)
//!     .build()?;
//! let mut ctx = MineContext::new()
//!     .on_pattern(|p| println!("mined |E|={} support={}", p.pattern.edge_count(), p.support));
//! let outcome = miner.mine(&GraphSource::Single(&g), &mut ctx)?;
//! assert!(!outcome.patterns.is_empty());
//! assert!(!outcome.cancelled);
//! # Ok::<(), spidermine_engine::MineError>(())
//! ```

pub mod error;
pub mod miner;
pub mod request;
pub mod stream;
pub mod wire;

pub use error::MineError;
pub use miner::{Engine, GraphSource, MineOutcome};
pub use request::{Algorithm, MineRequest};
pub use stream::{OwnedGraphSource, PatternStream};
pub use wire::WireError;

// The execution-context types live in `spidermine-mining` (they are threaded
// through the algorithm crates) and are re-exported here as part of the
// engine's public surface.
pub use spidermine_mining::context::{
    CancelToken, MineContext, ProgressEvent, StageTiming, StreamedPattern,
};

// The evaluation layer (embedding arena) also lives in `spidermine-mining`;
// re-exported, with the support measures, so engine callers can pick a
// `--support-measure` without depending on the mining crate directly.
pub use spidermine_mining::eval::{EmbeddingSetId, EmbeddingStore};
pub use spidermine_mining::support::SupportMeasure;
