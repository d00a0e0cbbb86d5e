//! Execution context shared by every miner behind the unified engine API:
//! cooperative cancellation, progress reporting, streaming pattern delivery,
//! and per-stage wall-clock accounting.
//!
//! The context lives here (rather than in the `engine` crate) because it is
//! threaded *through* the algorithm crates: `spidermine` checks the
//! [`CancelToken`] inside its stage loops and streams accepted patterns as it
//! selects them, and each baseline does the same in its search loop. The
//! `engine` crate re-exports everything in this module as part of its public
//! surface.

use crate::embedding::Embedding;
use spidermine_graph::graph::LabeledGraph;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation flag, cheap to clone and safe to fire from any
/// thread (or from inside a progress callback).
///
/// Miners poll [`CancelToken::is_cancelled`] at their stage/iteration
/// boundaries; a fired token makes the run wind down and return whatever it
/// has found so far as a partial result — cancellation is not an error.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    fired: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-fired token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation. Idempotent; never blocks.
    pub fn fire(&self) {
        self.fired.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::fire`] has been called.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.fired.load(Ordering::Relaxed)
    }
}

/// A coarse progress event emitted by a miner. Events fire at stage and
/// iteration boundaries — frequent enough to drive a progress bar or a
/// cancellation decision, rare enough to cost nothing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgressEvent {
    /// A named stage began (e.g. `"spiders"`, `"identify"`, `"recover"`).
    StageStarted { stage: &'static str },
    /// One iteration of a stage's main loop finished.
    Iteration {
        stage: &'static str,
        iteration: usize,
    },
    /// A named stage finished.
    StageFinished { stage: &'static str },
}

/// One pattern delivered through the streaming channel (and collected into
/// the final outcome): the pattern graph, its support under the miner's
/// measure, and the embeddings the miner retained for it (possibly empty —
/// not every algorithm tracks embeddings).
#[derive(Clone, Debug)]
pub struct StreamedPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Support under the producing miner's measure.
    pub support: usize,
    /// Retained embeddings (may be empty or capped).
    pub embeddings: Vec<Embedding>,
}

/// Wall-clock time of one named stage of a run.
#[derive(Clone, Debug)]
pub struct StageTiming {
    /// Stage name (stable identifiers, e.g. `"spiders"`).
    pub stage: &'static str,
    /// Elapsed wall-clock time of the stage.
    pub elapsed: Duration,
}

type ProgressFn = Box<dyn FnMut(&ProgressEvent) + Send>;
type SinkFn = Box<dyn FnMut(StreamedPattern) + Send>;

/// Mutable execution context handed to the `mine_with` / `run_with` entry
/// points: carries the cancel token, the optional progress callback, the
/// optional streaming sink, and accumulates per-stage timings.
#[derive(Default)]
pub struct MineContext {
    cancel: CancelToken,
    progress: Option<ProgressFn>,
    sink: Option<SinkFn>,
    timings: Vec<StageTiming>,
    cancelled_observed: bool,
    /// Wall-clock deadline armed by [`MineContext::set_deadline_in`]. Checked
    /// by every [`MineContext::is_cancelled`] poll, so an expired deadline
    /// fires the cancel token cooperatively — the run winds down with partial
    /// results exactly like an explicit cancellation, no timer thread needed.
    deadline: Option<Instant>,
    /// True once a poll observed the deadline expired (distinguishes a
    /// timeout from a caller-fired cancellation).
    deadline_hit: bool,
    /// Telemetry identity of this run: the job's trace id and the span the
    /// run's stage spans parent under (both 0 when untraced). Set by the
    /// scheduler before dispatch, or adopted from the wire for remote jobs.
    trace_id: u64,
    trace_parent: u64,
}

impl std::fmt::Debug for MineContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MineContext")
            .field("cancelled", &self.cancel.is_cancelled())
            .field("has_progress", &self.progress.is_some())
            .field("has_sink", &self.sink.is_some())
            .field("has_deadline", &self.deadline.is_some())
            .field("timed_out", &self.deadline_hit)
            .field("timings", &self.timings)
            .finish()
    }
}

impl MineContext {
    /// A context with no callbacks and a fresh token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A context polling the given (possibly shared) token.
    pub fn with_cancel(token: CancelToken) -> Self {
        Self {
            cancel: token,
            ..Self::default()
        }
    }

    /// Installs a progress callback (builder style).
    pub fn on_progress<F: FnMut(&ProgressEvent) + Send + 'static>(mut self, f: F) -> Self {
        self.progress = Some(Box::new(f));
        self
    }

    /// Installs a streaming pattern sink (builder style). Every pattern a
    /// miner accepts into its result is also pushed through the sink, in
    /// acceptance order, before the run returns.
    pub fn on_pattern<F: FnMut(StreamedPattern) + Send + 'static>(mut self, f: F) -> Self {
        self.sink = Some(Box::new(f));
        self
    }

    /// A clone of the context's cancel token (to fire it from elsewhere).
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.clone()
    }

    /// Adopts a telemetry identity: `trace` is the job's trace id and
    /// `parent` the span id the run's stage spans nest under. With tracing
    /// disarmed (or ids left at 0) the hooks stay single-load no-ops.
    pub fn set_trace(&mut self, trace: u64, parent: u64) {
        self.trace_id = trace;
        self.trace_parent = parent;
    }

    /// Builder-style [`MineContext::set_trace`].
    pub fn with_trace(mut self, trace: u64, parent: u64) -> Self {
        self.set_trace(trace, parent);
        self
    }

    /// The run's `(trace id, parent span id)`, `(0, 0)` when untraced.
    pub fn trace(&self) -> (u64, u64) {
        (self.trace_id, self.trace_parent)
    }

    /// Arms (or re-arms) a wall-clock deadline `budget` from now (builder
    /// style). See [`MineContext::set_deadline_in`].
    pub fn with_deadline_in(mut self, budget: Duration) -> Self {
        self.set_deadline_in(budget);
        self
    }

    /// Arms (or re-arms) a wall-clock deadline `budget` from now. Once the
    /// deadline passes, the next [`MineContext::is_cancelled`] poll fires the
    /// cancel token, so the run winds down cooperatively with partial
    /// results — a timeout is not an error. Re-arming resets the
    /// [`MineContext::timed_out`] flag, so a reused context reports each
    /// run's own timeout.
    pub fn set_deadline_in(&mut self, budget: Duration) {
        // A budget too large to represent as an Instant can never fire;
        // treat it as "no deadline" instead of overflowing.
        self.deadline = Instant::now().checked_add(budget);
        self.deadline_hit = false;
    }

    /// The armed deadline instant, if any.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// True if some poll during the run observed the armed deadline expired
    /// (and therefore fired the cancel token).
    pub fn timed_out(&self) -> bool {
        self.deadline_hit
    }

    /// Polls the cancel token (and the armed deadline, if any); remembers a
    /// positive answer so [`MineContext::was_cancelled`] reports it after the
    /// run.
    pub fn is_cancelled(&mut self) -> bool {
        if !self.deadline_hit {
            if let Some(deadline) = self.deadline {
                if Instant::now() >= deadline {
                    self.deadline_hit = true;
                    self.cancel.fire();
                }
            }
        }
        if self.cancel.is_cancelled() {
            self.cancelled_observed = true;
        }
        self.cancelled_observed
    }

    /// True if some `is_cancelled` poll during the run saw a fired token.
    pub fn was_cancelled(&self) -> bool {
        self.cancelled_observed
    }

    /// Emits a progress event to the callback, if any.
    pub fn progress(&mut self, event: ProgressEvent) {
        if let Some(f) = self.progress.as_mut() {
            f(&event);
        }
    }

    /// True if a streaming sink is installed. Miners use this to skip
    /// building [`StreamedPattern`]s (pattern + embedding clones) that no one
    /// would receive; prefer [`MineContext::emit_with`], which checks it.
    pub fn wants_patterns(&self) -> bool {
        self.sink.is_some()
    }

    /// Streams one accepted pattern to the sink, if any. With tracing armed
    /// the acceptance is also recorded as an instant event on the run's
    /// trace (support as the argument).
    pub fn emit(&mut self, pattern: StreamedPattern) {
        spidermine_telemetry::instant("pattern_accepted", self.trace_id, pattern.support as u64);
        if let Some(f) = self.sink.as_mut() {
            f(pattern);
        }
    }

    /// Streams the pattern produced by `build` to the sink — but only calls
    /// `build` when a sink is installed, so sink-less runs (benches,
    /// experiments) pay nothing for streaming. Acceptance is traced
    /// either way (without a sink the instant's support argument is 0, since
    /// the pattern is never built).
    pub fn emit_with<F: FnOnce() -> StreamedPattern>(&mut self, build: F) {
        match self.sink.as_mut() {
            Some(f) => {
                let pattern = build();
                spidermine_telemetry::instant(
                    "pattern_accepted",
                    self.trace_id,
                    pattern.support as u64,
                );
                f(pattern);
            }
            None => spidermine_telemetry::instant("pattern_accepted", self.trace_id, 0),
        }
    }

    /// Records the elapsed time of a named stage. With tracing armed, also
    /// records the stage as a completed span (back-dated by `elapsed`)
    /// under the context's trace identity — the stage loops call this once
    /// per stage, so the hook is far off the per-candidate hot path.
    pub fn record_stage(&mut self, stage: &'static str, elapsed: Duration) {
        if spidermine_telemetry::armed() {
            let start = spidermine_telemetry::now_nanos()
                .saturating_sub(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
            spidermine_telemetry::span_complete(stage, self.trace_id, self.trace_parent, start);
        }
        self.timings.push(StageTiming { stage, elapsed });
    }

    /// Per-stage timings recorded so far, in execution order.
    pub fn timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Moves the recorded timings out of the context.
    pub fn take_timings(&mut self) -> Vec<StageTiming> {
        std::mem::take(&mut self.timings)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::label::Label;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn token_fires_once_and_stays_fired() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let t2 = t.clone();
        t2.fire();
        assert!(t.is_cancelled());
        t.fire();
        assert!(t.is_cancelled());
    }

    #[test]
    fn context_remembers_observed_cancellation() {
        let mut ctx = MineContext::new();
        assert!(!ctx.is_cancelled());
        assert!(!ctx.was_cancelled());
        ctx.cancel_token().fire();
        assert!(ctx.is_cancelled());
        assert!(ctx.was_cancelled());
    }

    #[test]
    fn progress_and_sink_callbacks_receive_events() {
        let events = Arc::new(AtomicUsize::new(0));
        let patterns = Arc::new(AtomicUsize::new(0));
        let (e, p) = (events.clone(), patterns.clone());
        let mut ctx = MineContext::new()
            .on_progress(move |_| {
                e.fetch_add(1, Ordering::Relaxed);
            })
            .on_pattern(move |_| {
                p.fetch_add(1, Ordering::Relaxed);
            });
        ctx.progress(ProgressEvent::StageStarted { stage: "spiders" });
        ctx.progress(ProgressEvent::Iteration {
            stage: "identify",
            iteration: 1,
        });
        ctx.emit(StreamedPattern {
            pattern: LabeledGraph::from_parts(&[Label(0)], &[]),
            support: 1,
            embeddings: Vec::new(),
        });
        assert_eq!(events.load(Ordering::Relaxed), 2);
        assert_eq!(patterns.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cancellation_from_inside_a_progress_callback() {
        let mut ctx = MineContext::new();
        let token = ctx.cancel_token();
        ctx = ctx.on_progress(move |e| {
            if matches!(e, ProgressEvent::Iteration { iteration: 2, .. }) {
                token.fire();
            }
        });
        for i in 0..5 {
            if ctx.is_cancelled() {
                break;
            }
            ctx.progress(ProgressEvent::Iteration {
                stage: "identify",
                iteration: i,
            });
        }
        assert!(ctx.was_cancelled());
    }

    #[test]
    fn expired_deadline_fires_the_token_and_reports_timeout() {
        let mut ctx = MineContext::new().with_deadline_in(Duration::ZERO);
        assert!(!ctx.timed_out(), "deadline only observed at a poll");
        assert!(ctx.is_cancelled());
        assert!(ctx.timed_out());
        assert!(ctx.was_cancelled());
        assert!(ctx.cancel_token().is_cancelled(), "timeout fires the token");
    }

    #[test]
    fn unexpired_deadline_does_not_cancel() {
        let mut ctx = MineContext::new().with_deadline_in(Duration::from_secs(3600));
        assert!(!ctx.is_cancelled());
        assert!(!ctx.timed_out());
    }

    #[test]
    fn rearming_a_deadline_resets_the_timeout_flag() {
        let mut ctx = MineContext::new().with_deadline_in(Duration::ZERO);
        assert!(ctx.is_cancelled());
        assert!(ctx.timed_out());
        ctx.set_deadline_in(Duration::from_secs(3600));
        assert!(!ctx.timed_out());
        // The token stays fired (cancellation is sticky), but the new
        // deadline itself has not expired.
        assert!(ctx.is_cancelled());
    }

    #[test]
    fn unrepresentably_large_deadline_never_fires_or_panics() {
        let mut ctx = MineContext::new().with_deadline_in(Duration::MAX);
        assert!(!ctx.is_cancelled());
        assert!(!ctx.timed_out());
    }

    #[test]
    fn explicit_cancellation_is_not_a_timeout() {
        let mut ctx = MineContext::new().with_deadline_in(Duration::from_secs(3600));
        ctx.cancel_token().fire();
        assert!(ctx.is_cancelled());
        assert!(!ctx.timed_out());
    }

    #[test]
    fn stage_timings_accumulate_in_order() {
        let mut ctx = MineContext::new();
        ctx.record_stage("spiders", Duration::from_millis(3));
        ctx.record_stage("identify", Duration::from_millis(5));
        let t = ctx.timings();
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].stage, "spiders");
        assert_eq!(t[1].stage, "identify");
        assert_eq!(ctx.take_timings().len(), 2);
        assert!(ctx.timings().is_empty());
    }
}
