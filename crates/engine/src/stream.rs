//! Pull-based streaming: consume mined patterns as an iterator while an
//! [`Engine`] runs on a worker thread.
//!
//! The push side of streaming is the [`MineContext`] sink (`on_pattern`),
//! which every miner feeds as it accepts patterns. [`PatternStream`] turns
//! that push into a pull: it spawns the run on a `std::thread`, forwards each
//! streamed pattern through a channel, and implements `Iterator` over the
//! receiving end. The iterator ends when the run finishes;
//! [`PatternStream::outcome`] then joins the thread and returns the full
//! [`MineOutcome`].

use crate::miner::{Engine, GraphSource, MineOutcome};
use crate::MineError;
use spidermine_graph::{GraphDatabase, LabeledGraph};
use spidermine_mining::context::{CancelToken, MineContext, StreamedPattern};
use std::sync::mpsc;
use std::thread::JoinHandle;

/// An owned graph source, so the mining thread does not borrow from the
/// caller.
// One value exists per stream and it is moved, not copied around — the size
// difference between the variants is irrelevant here.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug)]
pub enum OwnedGraphSource {
    /// A single labeled graph.
    Single(LabeledGraph),
    /// A graph-transaction database.
    Transactions(GraphDatabase),
}

impl OwnedGraphSource {
    /// Borrows this source as the [`GraphSource`] [`Engine::mine`] takes.
    pub fn as_source(&self) -> GraphSource<'_> {
        match self {
            OwnedGraphSource::Single(g) => GraphSource::Single(g),
            OwnedGraphSource::Transactions(db) => GraphSource::Transactions(db),
        }
    }
}

/// Iterator over patterns streamed out of a background mining run.
pub struct PatternStream {
    rx: mpsc::Receiver<StreamedPattern>,
    handle: Option<JoinHandle<Result<MineOutcome, MineError>>>,
}

impl PatternStream {
    /// Starts `engine` on `source` in a background thread, with cancellation
    /// wired to `cancel`. Patterns become available through the iterator as
    /// the engine accepts them.
    pub fn spawn(engine: Engine, source: OwnedGraphSource, cancel: CancelToken) -> Self {
        let (tx, rx) = mpsc::channel();
        let handle = std::thread::spawn(move || {
            let mut ctx = MineContext::with_cancel(cancel).on_pattern(move |p| {
                // A dropped receiver just means the consumer stopped pulling;
                // the run still completes and the outcome stays available.
                let _ = tx.send(p);
            });
            engine.mine(&source.as_source(), &mut ctx)
        });
        Self {
            rx,
            handle: Some(handle),
        }
    }

    /// Waits for the run to finish and returns its outcome (consuming the
    /// stream; any patterns not yet pulled are still in the outcome).
    pub fn outcome(mut self) -> Result<MineOutcome, MineError> {
        // The channel is unbounded, so the worker never blocks on it even if
        // the consumer stops pulling; joining directly is safe.
        let handle = self.handle.take().expect("outcome called once");
        match handle.join() {
            Ok(result) => result,
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
}

impl Iterator for PatternStream {
    type Item = StreamedPattern;

    fn next(&mut self) -> Option<StreamedPattern> {
        self.rx.recv().ok()
    }
}

impl Drop for PatternStream {
    fn drop(&mut self) {
        // Never leak the worker: join it if the stream is dropped unconsumed.
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Algorithm, MineRequest};
    use spidermine_graph::Label;

    fn toy_graph() -> LabeledGraph {
        // Two copies of a labeled path 0-1-2.
        LabeledGraph::from_parts(
            &[Label(0), Label(1), Label(2), Label(0), Label(1), Label(2)],
            &[(0, 1), (1, 2), (3, 4), (4, 5)],
        )
    }

    #[test]
    fn stream_yields_exactly_the_outcome_patterns() {
        let engine = MineRequest::new(Algorithm::Moss)
            .support_threshold(2)
            .build()
            .expect("valid request");
        let stream = PatternStream::spawn(
            engine.clone(),
            OwnedGraphSource::Single(toy_graph()),
            CancelToken::new(),
        );
        let streamed: Vec<StreamedPattern> = stream.collect();
        let mut ctx = MineContext::new();
        let outcome = engine
            .mine(&GraphSource::Single(&toy_graph()), &mut ctx)
            .expect("mine");
        assert_eq!(streamed.len(), outcome.patterns.len());
        let mut a: Vec<(usize, usize)> = streamed
            .iter()
            .map(|p| (p.pattern.edge_count(), p.support))
            .collect();
        let mut b: Vec<(usize, usize)> = outcome
            .patterns
            .iter()
            .map(|p| (p.pattern.edge_count(), p.support))
            .collect();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b);
    }

    #[test]
    fn outcome_is_available_without_pulling() {
        let engine = MineRequest::new(Algorithm::Seus)
            .support_threshold(2)
            .build()
            .expect("valid request");
        let stream = PatternStream::spawn(
            engine,
            OwnedGraphSource::Single(toy_graph()),
            CancelToken::new(),
        );
        let outcome = stream.outcome().expect("mine");
        assert_eq!(outcome.algorithm, Algorithm::Seus);
        assert!(!outcome.cancelled);
    }

    #[test]
    fn dropping_the_stream_joins_the_worker() {
        let engine = MineRequest::new(Algorithm::Subdue)
            .build()
            .expect("valid request");
        let stream = PatternStream::spawn(
            engine,
            OwnedGraphSource::Single(toy_graph()),
            CancelToken::new(),
        );
        drop(stream); // must not hang or leak
    }
}
