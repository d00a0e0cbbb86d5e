//! SpiderMine — mining the top-K largest frequent structural patterns in a
//! single massive network (reproduction of Zhu et al., VLDB 2011).
//!
//! Services and tools run it through the unified engine API
//! (`spidermine-engine`): build a validated `MineRequest`, get an `Engine`,
//! and run it with a `MineContext` that supports cancellation, progress and
//! streaming. The engine calls [`SpiderMiner::mine_with`] /
//! [`TransactionMiner::mine_with`], which are also the crate's own entry
//! points for callers that need the full [`MiningResult`] (its statistics
//! and stage times).
//!
//! ```
//! use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
//! use spidermine_graph::{LabeledGraph, Label};
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
//!     .build()
//!     .expect("a validated request");
//! let outcome = miner
//!     .mine(&GraphSource::Single(&g), &mut MineContext::new())
//!     .expect("a single graph is what SpiderMine mines");
//! assert!(!outcome.patterns.is_empty());
//! ```
//!
//! The algorithm follows the paper's three stages:
//!
//! 1. **Mining spiders** ([`spidermine_mining::spider`]) — all frequent
//!    r-bounded patterns with their head occurrences.
//! 2. **Large pattern identification** ([`grow`], [`merge`], [`seeding`]) —
//!    draw `M` random seed spiders (`M` from Lemma 2 via
//!    [`seeding::seed_count`]), grow them `Dmax/2r` times by whole spiders,
//!    merge patterns whose embeddings start to overlap, keep only merged
//!    patterns.
//! 3. **Large pattern recovery** ([`miner`]) — keep growing the survivors to
//!    exhaustion and return the K largest, after [`closure`] refinement.
//!
//! The spider-set representation used to skip isomorphism tests
//! (Section 4.2.2 of the paper) lives in [`spider_set`].

pub mod closure;
pub mod config;
pub mod grow;
pub mod merge;
pub mod miner;
pub mod result;
pub mod seeding;
pub mod spider_set;
pub mod transaction;

pub use config::SpiderMineConfig;
pub use miner::SpiderMiner;
pub use result::{MinedPattern, MiningResult, MiningStats};
pub use transaction::{TransactionMiner, TransactionMiningResult};
