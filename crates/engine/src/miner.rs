//! The [`Miner`] trait, the graph sources it mines, and the unified outcome.

use crate::error::MineError;
use crate::request::{Algorithm, MineRequest};
use spidermine::{SpiderMineConfig, SpiderMiner, TransactionMiner};
use spidermine_baselines::{moss, origami, seus, subdue};
use spidermine_baselines::{MossConfig, OrigamiConfig, SeusConfig, SubdueConfig};
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

/// The one trait every mining algorithm in the workspace implements: mine a
/// [`GraphSource`] under a [`MineContext`] (cancellation, progress,
/// streaming), produce a [`MineOutcome`].
///
/// Implementations must honor the context contract: poll the cancel token at
/// stage/iteration boundaries, stream each accepted pattern through the sink
/// before returning, and record per-stage timings.
pub trait Miner {
    /// The algorithm behind this miner.
    fn algorithm(&self) -> Algorithm;

    /// Runs the miner. Cancellation is not an error — a fired token yields
    /// `Ok` with `outcome.cancelled == true` and partial patterns.
    fn mine(&self, host: &GraphSource<'_>, ctx: &mut MineContext)
        -> Result<MineOutcome, MineError>;
}

fn finish_outcome(
    algorithm: Algorithm,
    patterns: Vec<StreamedPattern>,
    ctx: &mut MineContext,
    start: Instant,
) -> MineOutcome {
    MineOutcome {
        algorithm,
        patterns,
        stream_order: Vec::new(),
        cancelled: ctx.was_cancelled(),
        timed_out: ctx.timed_out(),
        stages: ctx.take_timings(),
        total_time: start.elapsed(),
        // Inside an `Engine` run this reflects the request's `threads` knob
        // (the engine wraps the run in the matching width scope).
        threads: rayon::current_num_threads(),
        dropped_embeddings: 0,
    }
}

/// SpiderMine behind the unified API.
#[derive(Clone, Debug)]
pub struct SpiderMineEngine {
    config: SpiderMineConfig,
}

impl SpiderMineEngine {
    /// Wraps a raw config, reporting invalid values as [`MineError`] instead
    /// of the legacy constructor panic.
    pub fn new(config: SpiderMineConfig) -> Result<Self, MineError> {
        config
            .validate()
            .map_err(|message| MineError::InvalidConfig {
                field: "config",
                message,
            })?;
        Ok(Self { config })
    }

    /// The underlying configuration.
    pub fn config(&self) -> &SpiderMineConfig {
        &self.config
    }
}

impl Miner for SpiderMineEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SpiderMine
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let g = host.single(self.algorithm())?;
        let start = Instant::now();
        let result = SpiderMiner::new(self.config.clone()).mine_with(g, ctx);
        let dropped = result.stats.merge_embeddings_dropped;
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.support,
                embeddings: p.embeddings,
            })
            .collect();
        let mut outcome = finish_outcome(self.algorithm(), patterns, ctx, start);
        outcome.dropped_embeddings = dropped;
        outcome.stream_order = result.stream_order;
        Ok(outcome)
    }
}

/// SpiderMine's graph-transaction adaptation behind the unified API.
#[derive(Clone, Debug)]
pub struct TransactionEngine {
    config: SpiderMineConfig,
}

impl TransactionEngine {
    /// Wraps a raw config, reporting invalid values as [`MineError`].
    pub fn new(config: SpiderMineConfig) -> Result<Self, MineError> {
        config
            .validate()
            .map_err(|message| MineError::InvalidConfig {
                field: "config",
                message,
            })?;
        Ok(Self { config })
    }
}

impl Miner for TransactionEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::SpiderMineTransactions
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let db = host.transactions(self.algorithm())?;
        let start = Instant::now();
        let result = TransactionMiner::new(self.config.clone()).mine_with(db, ctx);
        let dropped = result.stats.merge_embeddings_dropped;
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.transaction_support,
                embeddings: Vec::new(),
            })
            .collect();
        let mut outcome = finish_outcome(self.algorithm(), patterns, ctx, start);
        outcome.dropped_embeddings = dropped;
        Ok(outcome)
    }
}

/// SUBDUE behind the unified API. Support is the number of vertex-disjoint
/// instances.
#[derive(Clone, Debug)]
pub struct SubdueEngine {
    config: SubdueConfig,
}

impl SubdueEngine {
    /// Wraps a SUBDUE configuration, rejecting invalid values with
    /// [`MineError::InvalidConfig`] naming the field.
    pub fn new(config: SubdueConfig) -> Result<Self, MineError> {
        if config.min_instances == 0 {
            return Err(MineError::invalid("min_instances", "must be at least 1"));
        }
        if config.report == 0 {
            return Err(MineError::invalid("report", "must be at least 1"));
        }
        if config.beam_width == 0 {
            return Err(MineError::invalid("beam_width", "must be at least 1"));
        }
        if config.max_edges == 0 {
            return Err(MineError::invalid("max_edges", "must be at least 1"));
        }
        if config.max_embeddings == 0 {
            return Err(MineError::invalid("max_embeddings", "must be at least 1"));
        }
        if config.time_budget.is_zero() {
            return Err(MineError::invalid("time_budget", "must be positive"));
        }
        Ok(Self { config })
    }
}

impl Miner for SubdueEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Subdue
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let g = host.single(self.algorithm())?;
        let start = Instant::now();
        let result = subdue::run_with(g, &self.config, ctx);
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.instances,
                embeddings: Vec::new(),
            })
            .collect();
        Ok(finish_outcome(self.algorithm(), patterns, ctx, start))
    }
}

/// The MoSS/gSpan-style complete miner behind the unified API.
#[derive(Clone, Debug)]
pub struct MossEngine {
    config: MossConfig,
}

impl MossEngine {
    /// Wraps a MoSS configuration, rejecting invalid values with
    /// [`MineError::InvalidConfig`] naming the field.
    pub fn new(config: MossConfig) -> Result<Self, MineError> {
        if config.support_threshold == 0 {
            return Err(MineError::invalid(
                "support_threshold",
                "must be at least 1",
            ));
        }
        if config.max_edges == 0 {
            return Err(MineError::invalid("max_edges", "must be at least 1"));
        }
        if config.max_embeddings == 0 {
            return Err(MineError::invalid("max_embeddings", "must be at least 1"));
        }
        if config.time_budget.is_zero() {
            return Err(MineError::invalid("time_budget", "must be positive"));
        }
        Ok(Self { config })
    }
}

impl Miner for MossEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Moss
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let g = host.single(self.algorithm())?;
        let start = Instant::now();
        let result = moss::run_with(g, &self.config, ctx);
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.support,
                embeddings: Vec::new(),
            })
            .collect();
        Ok(finish_outcome(self.algorithm(), patterns, ctx, start))
    }
}

/// ORIGAMI behind the unified API. Requires a transaction database.
#[derive(Clone, Debug)]
pub struct OrigamiEngine {
    config: OrigamiConfig,
}

impl OrigamiEngine {
    /// Wraps an ORIGAMI configuration, rejecting invalid values with
    /// [`MineError::InvalidConfig`] naming the field.
    pub fn new(config: OrigamiConfig) -> Result<Self, MineError> {
        if config.support_threshold == 0 {
            return Err(MineError::invalid(
                "support_threshold",
                "must be at least 1",
            ));
        }
        if config.samples == 0 {
            return Err(MineError::invalid("samples", "must be at least 1"));
        }
        if !(0.0..=1.0).contains(&config.alpha) {
            return Err(MineError::invalid("alpha", "must lie in [0, 1]"));
        }
        if config.max_edges == 0 {
            return Err(MineError::invalid("max_edges", "must be at least 1"));
        }
        if config.time_budget.is_zero() {
            return Err(MineError::invalid("time_budget", "must be positive"));
        }
        Ok(Self { config })
    }
}

impl Miner for OrigamiEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Origami
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let db = host.transactions(self.algorithm())?;
        let start = Instant::now();
        let result = origami::run_with(db, &self.config, ctx);
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.support,
                embeddings: Vec::new(),
            })
            .collect();
        Ok(finish_outcome(self.algorithm(), patterns, ctx, start))
    }
}

/// SEuS behind the unified API.
#[derive(Clone, Debug)]
pub struct SeusEngine {
    config: SeusConfig,
}

impl SeusEngine {
    /// Wraps a SEuS configuration, rejecting invalid values with
    /// [`MineError::InvalidConfig`] naming the field.
    pub fn new(config: SeusConfig) -> Result<Self, MineError> {
        if config.support_threshold == 0 {
            return Err(MineError::invalid(
                "support_threshold",
                "must be at least 1",
            ));
        }
        if config.max_vertices < 2 {
            return Err(MineError::invalid(
                "max_vertices",
                "must be at least 2 (a pattern needs an edge)",
            ));
        }
        if config.max_embeddings == 0 {
            return Err(MineError::invalid("max_embeddings", "must be at least 1"));
        }
        if config.time_budget.is_zero() {
            return Err(MineError::invalid("time_budget", "must be positive"));
        }
        Ok(Self { config })
    }
}

impl Miner for SeusEngine {
    fn algorithm(&self) -> Algorithm {
        Algorithm::Seus
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        let g = host.single(self.algorithm())?;
        let start = Instant::now();
        let result = seus::run_with(g, &self.config, ctx);
        let patterns = result
            .patterns
            .into_iter()
            .map(|p| StreamedPattern {
                pattern: p.pattern,
                support: p.support,
                embeddings: Vec::new(),
            })
            .collect();
        Ok(finish_outcome(self.algorithm(), patterns, ctx, start))
    }
}

/// The concrete per-algorithm engines behind one dispatching type.
#[derive(Clone, Debug)]
pub enum EngineKind {
    /// SpiderMine on a single graph.
    SpiderMine(SpiderMineEngine),
    /// SpiderMine on a transaction database.
    SpiderMineTransactions(TransactionEngine),
    /// SUBDUE beam search.
    Subdue(SubdueEngine),
    /// MoSS/gSpan-style complete mining.
    Moss(MossEngine),
    /// ORIGAMI sampling.
    Origami(OrigamiEngine),
    /// SEuS summary-graph mining.
    Seus(SeusEngine),
}

/// A ready-to-run miner built from a validated [`MineRequest`]: the
/// algorithm engine plus the request's execution knobs (currently the
/// thread-count cap, applied as a width scope around every run).
#[derive(Clone, Debug)]
pub struct Engine {
    kind: EngineKind,
    threads: Option<usize>,
    deadline: Option<Duration>,
}

impl Engine {
    /// Builds the engine for an already-validated request.
    /// ([`MineRequest::build`] is the public path; it validates first.)
    pub(crate) fn from_validated_request(request: &MineRequest) -> Self {
        let kind = match request.algorithm() {
            Algorithm::SpiderMine => EngineKind::SpiderMine(SpiderMineEngine {
                config: request.spidermine_config(),
            }),
            Algorithm::SpiderMineTransactions => {
                EngineKind::SpiderMineTransactions(TransactionEngine {
                    config: request.spidermine_config(),
                })
            }
            // A validated request maps onto valid per-algorithm configs (the
            // per-field checks below are a subset of `MineRequest::validate`
            // plus always-valid defaults), so these cannot fail.
            Algorithm::Subdue => EngineKind::Subdue(
                SubdueEngine::new(request.subdue_config())
                    .expect("validated request maps to a valid SUBDUE config"),
            ),
            Algorithm::Moss => EngineKind::Moss(
                MossEngine::new(request.moss_config())
                    .expect("validated request maps to a valid MoSS config"),
            ),
            Algorithm::Origami => EngineKind::Origami(
                OrigamiEngine::new(request.origami_config())
                    .expect("validated request maps to a valid ORIGAMI config"),
            ),
            Algorithm::Seus => EngineKind::Seus(
                SeusEngine::new(request.seus_config())
                    .expect("validated request maps to a valid SEuS config"),
            ),
        };
        Self {
            kind,
            threads: request.requested_threads(),
            deadline: request.requested_deadline(),
        }
    }

    /// The per-algorithm engine this run dispatches to.
    pub fn kind(&self) -> &EngineKind {
        &self.kind
    }
}

impl Miner for EngineKind {
    fn algorithm(&self) -> Algorithm {
        match self {
            EngineKind::SpiderMine(m) => m.algorithm(),
            EngineKind::SpiderMineTransactions(m) => m.algorithm(),
            EngineKind::Subdue(m) => m.algorithm(),
            EngineKind::Moss(m) => m.algorithm(),
            EngineKind::Origami(m) => m.algorithm(),
            EngineKind::Seus(m) => m.algorithm(),
        }
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        match self {
            EngineKind::SpiderMine(m) => m.mine(host, ctx),
            EngineKind::SpiderMineTransactions(m) => m.mine(host, ctx),
            EngineKind::Subdue(m) => m.mine(host, ctx),
            EngineKind::Moss(m) => m.mine(host, ctx),
            EngineKind::Origami(m) => m.mine(host, ctx),
            EngineKind::Seus(m) => m.mine(host, ctx),
        }
    }
}

impl Miner for Engine {
    fn algorithm(&self) -> Algorithm {
        self.kind.algorithm()
    }

    fn mine(
        &self,
        host: &GraphSource<'_>,
        ctx: &mut MineContext,
    ) -> Result<MineOutcome, MineError> {
        // Arm the request's deadline on the context; the miners' cancel polls
        // turn its expiry into a cooperative wind-down (partial results, the
        // outcome's `timed_out` flag set). A caller-armed context deadline is
        // left alone when the request has none.
        if let Some(deadline) = self.deadline {
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
        let result = match self.threads {
            // Pin every parallel region of the run to the requested width
            // (the pool grows on demand if the width exceeds it). The
            // outcome's `threads` field reports this effective count.
            Some(threads) => rayon::with_width(threads, || self.kind.mine(host, ctx)),
            None => self.kind.mine(host, ctx),
        };
        spidermine_telemetry::global()
            .histogram(&format!(
                "engine_mine_nanos{{algorithm=\"{}\"}}",
                self.kind.algorithm().name()
            ))
            .observe_duration(started.elapsed());
        spidermine_telemetry::span_end("engine_mine", trace, span);
        result
    }
}
