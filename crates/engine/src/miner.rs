//! The [`Engine`], the graph sources it mines, and the unified outcome.

use crate::error::MineError;
use crate::request::{Algorithm, MineRequest};
use spidermine::{SpiderMiner, TransactionMiner};
use spidermine_baselines::{moss, origami, seus, subdue};
use spidermine_graph::{GraphDatabase, LabeledGraph};
use spidermine_mining::context::{MineContext, StageTiming, StreamedPattern};
use std::time::{Duration, Instant};

/// What a miner mines: a single massive network, or a graph-transaction
/// database. Algorithms reject the variant they cannot handle with
/// [`MineError::UnsupportedSource`].
#[derive(Clone, Copy, Debug)]
pub enum GraphSource<'a> {
    /// The single-graph setting of the paper's main algorithm.
    Single(&'a LabeledGraph),
    /// The graph-transaction setting of Figures 14–15.
    Transactions(&'a GraphDatabase),
}

impl<'a> GraphSource<'a> {
    fn single(&self, algorithm: Algorithm) -> Result<&'a LabeledGraph, MineError> {
        match self {
            GraphSource::Single(g) => Ok(g),
            GraphSource::Transactions(_) => Err(MineError::UnsupportedSource {
                algorithm,
                expected: "a single labeled graph (GraphSource::Single)",
            }),
        }
    }

    fn transactions(&self, algorithm: Algorithm) -> Result<&'a GraphDatabase, MineError> {
        match self {
            GraphSource::Transactions(db) => Ok(db),
            GraphSource::Single(_) => Err(MineError::UnsupportedSource {
                algorithm,
                expected: "a graph-transaction database (GraphSource::Transactions)",
            }),
        }
    }
}

/// The unified result of a mining run, whichever algorithm produced it.
#[derive(Clone, Debug)]
pub struct MineOutcome {
    /// The algorithm that ran.
    pub algorithm: Algorithm,
    /// The mined patterns, in the producing algorithm's result order (support
    /// semantics are per-algorithm: MNI/disjoint embeddings for SpiderMine,
    /// disjoint instances for SUBDUE, transactions for ORIGAMI, …).
    pub patterns: Vec<StreamedPattern>,
    /// Where each pattern stood in the run's stream: `patterns[i]` went
    /// through the [`MineContext`] sink `stream_order[i]`-th. Empty when the
    /// run streamed its patterns in result order, as every algorithm but
    /// SpiderMine does; SpiderMine streams each pattern the moment its
    /// select stage accepts it and ranks the list afterwards. Wall-clock
    /// free and deterministic, but not part of the semantic encoding (it
    /// describes the stream, not the result), and not carried over the wire.
    pub stream_order: Vec<usize>,
    /// True if a fired [`CancelToken`](crate::CancelToken) wound the run down
    /// early; `patterns` is then a valid partial result.
    pub cancelled: bool,
    /// True if the run's armed deadline
    /// ([`MineRequest::deadline_ms`](crate::MineRequest::deadline_ms), or a
    /// caller-armed [`MineContext`] deadline) expired and fired the token.
    /// Implies `cancelled`; like any cancellation, a timeout yields partial
    /// results, never an error.
    pub timed_out: bool,
    /// Per-stage wall-clock timings recorded during the run.
    pub stages: Vec<StageTiming>,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
    /// Effective thread count of the run: the width the per-stage timings
    /// were measured at ([`MineRequest::threads`](crate::MineRequest::threads)
    /// if set, else the pool default). Results never depend on it — the
    /// runtime's reductions are order-preserving.
    pub threads: usize,
    /// Merged-group occurrences the run had to drop because a
    /// confirmed-isomorphic union's embedding could not be re-fetched
    /// (SpiderMine merge accounting; 0 for the other algorithms, and should
    /// be 0 for SpiderMine too — a non-zero value flags a matcher/oracle
    /// disagreement instead of hiding it).
    pub dropped_embeddings: usize,
}

impl MineOutcome {
    /// Size (in edges) of the largest returned pattern, 0 if none.
    pub fn largest_edges(&self) -> usize {
        self.patterns
            .iter()
            .map(|p| p.pattern.edge_count())
            .max()
            .unwrap_or(0)
    }

    /// Size (in vertices) of the largest returned pattern, 0 if none.
    pub fn largest_vertices(&self) -> usize {
        self.patterns
            .iter()
            .map(|p| p.pattern.vertex_count())
            .max()
            .unwrap_or(0)
    }
}

/// A ready-to-run miner: a validated [`MineRequest`], built by
/// [`MineRequest::build`]. [`Engine::mine`] is the one way to run any of the
/// six algorithms.
#[derive(Clone, Debug)]
pub struct Engine {
    request: MineRequest,
}

impl Engine {
    /// Builds the engine for an already-validated request.
    /// ([`MineRequest::build`] is the public path; it validates first.)
    pub(crate) fn from_validated_request(request: MineRequest) -> Self {
        Self { request }
    }

    /// The algorithm this engine runs.
    pub fn algorithm(&self) -> Algorithm {
        self.request.algorithm()
    }

    /// Mines `host` with the request's algorithm under `ctx` (cancellation,
    /// progress, streaming). Every algorithm polls the cancel token at its
    /// stage and iteration boundaries, streams each accepted pattern through
    /// the context's sink before returning, and records per-stage timings.
    ///
    /// Cancellation is not an error: a fired token yields `Ok` with
    /// `outcome.cancelled == true` and partial patterns.
    pub fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        // Arm the request's deadline on the context; the miners' cancel polls
        // turn its expiry into a cooperative wind-down (partial results, the
        // outcome's `timed_out` flag set). A caller-armed context deadline is
        // left alone when the request has none.
        if let Some(deadline) = self.request.requested_deadline() {
            ctx.set_deadline_in(deadline);
        }
        // One `engine_mine` span per run, under the caller's trace identity
        // (the scheduler's `running` span; (0, 0) for untraced callers), and
        // one end-to-end latency observation per algorithm in the
        // process-wide registry. Both happen once per run — the mining hot
        // path inside stays allocation-free.
        let (trace, parent) = ctx.trace();
        let span = spidermine_telemetry::span_start("engine_mine", trace, parent);
        let started = Instant::now();
        let result = match self.request.requested_threads() {
            // Pin every parallel region of the run to the requested width
            // (the pool grows on demand if the width exceeds it). The
            // outcome's `threads` field reports this effective count.
            Some(threads) => rayon::with_width(threads, || self.run(host, ctx)),
            None => self.run(host, ctx),
        };
        spidermine_telemetry::global()
            .histogram(&format!(
                "engine_mine_nanos{{algorithm=\"{}\"}}",
                self.algorithm().name()
            ))
            .observe_duration(started.elapsed());
        spidermine_telemetry::span_end("engine_mine", trace, span);
        result
    }

    /// Dispatches to the algorithm's own `*_with` entry point on the config
    /// the request maps onto, then builds the outcome.
    fn run(&self, host: &GraphSource<'_>, ctx: &mut MineContext) -> Result<MineOutcome, MineError> {
        let algorithm = self.algorithm();
        let request = &self.request;
        let bare = |pattern, support| StreamedPattern {
            pattern,
            support,
            embeddings: Vec::new(),
        };
        let start = Instant::now();
        let (patterns, stream_order, dropped_embeddings): (Vec<StreamedPattern>, _, _) =
            match algorithm {
                Algorithm::SpiderMine => {
                    let result = SpiderMiner::new(request.spidermine_config())
                        .mine_with(host.single(algorithm)?, ctx);
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| StreamedPattern {
                            pattern: p.pattern,
                            support: p.support,
                            embeddings: p.embeddings,
                        })
                        .collect();
                    (
                        patterns,
                        result.stream_order,
                        result.stats.merge_embeddings_dropped,
                    )
                }
                Algorithm::SpiderMineTransactions => {
                    let result = TransactionMiner::new(request.spidermine_config())
                        .mine_with(host.transactions(algorithm)?, ctx);
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| bare(p.pattern, p.transaction_support))
                        .collect();
                    (patterns, Vec::new(), result.stats.merge_embeddings_dropped)
                }
                Algorithm::Subdue => {
                    let result =
                        subdue::run_with(host.single(algorithm)?, &request.subdue_config(), ctx);
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| bare(p.pattern, p.instances))
                        .collect();
                    (patterns, Vec::new(), 0)
                }
                Algorithm::Moss => {
                    let result =
                        moss::run_with(host.single(algorithm)?, &request.moss_config(), ctx);
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| bare(p.pattern, p.support))
                        .collect();
                    (patterns, Vec::new(), 0)
                }
                Algorithm::Origami => {
                    let result = origami::run_with(
                        host.transactions(algorithm)?,
                        &request.origami_config(),
                        ctx,
                    );
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| bare(p.pattern, p.support))
                        .collect();
                    (patterns, Vec::new(), 0)
                }
                Algorithm::Seus => {
                    let result =
                        seus::run_with(host.single(algorithm)?, &request.seus_config(), ctx);
                    let patterns = result
                        .patterns
                        .into_iter()
                        .map(|p| bare(p.pattern, p.support))
                        .collect();
                    (patterns, Vec::new(), 0)
                }
            };
        Ok(MineOutcome {
            algorithm,
            patterns,
            stream_order,
            cancelled: ctx.was_cancelled(),
            timed_out: ctx.timed_out(),
            stages: ctx.take_timings(),
            total_time: start.elapsed(),
            // Reflects the request's `threads` knob: `mine` wraps the run in
            // the matching width scope.
            threads: rayon::current_num_threads(),
            dropped_embeddings,
        })
    }
}
