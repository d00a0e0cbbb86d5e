//! Workspace-level tests of the unified engine API.
//!
//! The engine's contract: every algorithm reached through
//! [`MineRequest`] → [`Engine::mine`](spidermine_engine::Engine::mine)
//! produces **byte-identical** patterns to the algorithm's own `*_with`
//! entry point run on the config the request maps onto, invalid requests
//! are rejected with the offending field named, and a fired `CancelToken`
//! mid-run yields a partial result instead of a panic.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine::{SpiderMineConfig, SpiderMiner, TransactionMiner};
use spidermine_baselines::{moss, origami, seus, subdue};
use spidermine_baselines::{MossConfig, OrigamiConfig, SeusConfig, SubdueConfig};
use spidermine_engine::wire::encode_pattern;
use spidermine_engine::{
    Algorithm, CancelToken, GraphSource, MineContext, MineError, MineOutcome, MineRequest,
    OwnedGraphSource, PatternStream, ProgressEvent, StreamedPattern,
};
use spidermine_graph::{generate, GraphDatabase, LabeledGraph};
use std::cmp::Reverse;
use std::sync::{Arc, Mutex};

/// SpiderMine seed on `planted_graph(11)` whose ranked result differs from
/// its acceptance order (see
/// `spidermine_stream_order_maps_its_acceptance_stream_onto_the_ranked_list`).
const RERANKED_SEED: u64 = 17;

fn planted_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 250, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn planted_db(seed: u64) -> GraphDatabase {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pattern = generate::random_connected_pattern(&mut rng, 7, 20, 2);
    let mut db = GraphDatabase::default();
    for _ in 0..4 {
        let mut g = generate::erdos_renyi_average_degree(&mut rng, 50, 2.0, 20);
        generate::inject_pattern(&mut rng, &mut g, &pattern, 1, 2);
        db.push(g);
    }
    db
}

/// Structural fingerprint of a pattern graph: labels plus sorted edge list.
fn graph_key(g: &LabeledGraph) -> (Vec<u32>, Vec<(u32, u32)>) {
    (
        g.labels().iter().map(|l| l.0).collect(),
        g.edges().map(|(u, v)| (u.0, v.0)).collect(),
    )
}

/// The config `request(seed)` maps onto.
fn spidermine_config(seed: u64) -> SpiderMineConfig {
    SpiderMineConfig {
        support_threshold: 2,
        k: 5,
        d_max: 8,
        rng_seed: seed,
        ..SpiderMineConfig::default()
    }
}

fn request(algorithm: Algorithm, seed: u64) -> MineRequest {
    MineRequest::new(algorithm)
        .support_threshold(2)
        .k(5)
        .d_max(8)
        .seed(seed)
}

/// Mines `source` through the request path with a fresh context.
fn engine_outcome(request: MineRequest, source: GraphSource<'_>) -> MineOutcome {
    request
        .build()
        .expect("valid request")
        .mine(&source, &mut MineContext::new())
        .expect("source accepted")
}

#[test]
fn spidermine_engine_is_byte_identical_to_legacy_entry_point() {
    let host = planted_graph(11);
    let direct = SpiderMiner::new(spidermine_config(17)).mine_with(&host, &mut MineContext::new());
    let outcome = engine_outcome(
        request(Algorithm::SpiderMine, 17),
        GraphSource::Single(&host),
    );
    assert_eq!(outcome.algorithm, Algorithm::SpiderMine);
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.support);
        assert_eq!(new.embeddings, old.embeddings);
    }
    assert_eq!(outcome.stream_order, direct.stream_order);
    assert_eq!(
        outcome.dropped_embeddings,
        direct.stats.merge_embeddings_dropped
    );
    // The engine records the driver's stage timings.
    let stages: Vec<&str> = outcome.stages.iter().map(|t| t.stage).collect();
    assert_eq!(stages, vec!["spiders", "identify", "recover", "select"]);
}

#[test]
fn transaction_engine_is_byte_identical_to_legacy_entry_point() {
    let db = planted_db(9);
    let config = SpiderMineConfig {
        support_threshold: 3,
        ..spidermine_config(3)
    };
    let direct = TransactionMiner::new(config).mine_with(&db, &mut MineContext::new());
    let outcome = engine_outcome(
        request(Algorithm::SpiderMineTransactions, 3).support_threshold(3),
        GraphSource::Transactions(&db),
    );
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.transaction_support);
    }
}

#[test]
fn subdue_engine_is_byte_identical_to_legacy_entry_point() {
    let host = planted_graph(23);
    // A request's K is SUBDUE's report cap and σ its instance minimum.
    let config = SubdueConfig {
        report: 20,
        min_instances: 2,
        ..SubdueConfig::default()
    };
    let direct = subdue::run_with(&host, &config, &mut MineContext::new());
    let outcome = engine_outcome(
        MineRequest::new(Algorithm::Subdue).k(20),
        GraphSource::Single(&host),
    );
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.instances);
    }
}

#[test]
fn moss_engine_is_byte_identical_to_legacy_entry_point() {
    let host = planted_graph(31);
    let config = MossConfig {
        max_edges: 6,
        ..MossConfig::default()
    };
    let direct = moss::run_with(&host, &config, &mut MineContext::new());
    let outcome = engine_outcome(
        MineRequest::new(Algorithm::Moss).max_pattern_edges(6),
        GraphSource::Single(&host),
    );
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.support);
    }
}

#[test]
fn seus_engine_is_byte_identical_to_legacy_entry_point() {
    let host = planted_graph(41);
    let direct = seus::run_with(&host, &SeusConfig::default(), &mut MineContext::new());
    let outcome = engine_outcome(
        MineRequest::new(Algorithm::Seus),
        GraphSource::Single(&host),
    );
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.support);
    }
}

#[test]
fn origami_engine_is_byte_identical_to_legacy_entry_point() {
    let db = planted_db(47);
    let config = OrigamiConfig::default();
    let direct = origami::run_with(&db, &config, &mut MineContext::new());
    let outcome = engine_outcome(
        MineRequest::new(Algorithm::Origami).seed(config.rng_seed),
        GraphSource::Transactions(&db),
    );
    assert_eq!(outcome.patterns.len(), direct.patterns.len());
    for (new, old) in outcome.patterns.iter().zip(&direct.patterns) {
        assert_eq!(graph_key(&new.pattern), graph_key(&old.pattern));
        assert_eq!(new.support, old.support);
    }
}

#[test]
fn every_algorithm_is_reachable_through_the_request_builder() {
    let host = planted_graph(53);
    let db = planted_db(53);
    for algo in Algorithm::all() {
        let engine = MineRequest::new(algo)
            .support_threshold(2)
            .k(3)
            .d_max(6)
            .seed(5)
            .build()
            .expect("valid request");
        assert_eq!(engine.algorithm(), algo);
        let source = if algo.wants_transactions() {
            GraphSource::Transactions(&db)
        } else {
            GraphSource::Single(&host)
        };
        let outcome = engine
            .mine(&source, &mut MineContext::new())
            .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
        assert_eq!(outcome.algorithm, algo);
        assert!(!outcome.cancelled);
        assert!(!outcome.stages.is_empty(), "{algo} recorded no stages");
    }
}

#[test]
fn invalid_requests_name_the_offending_field() {
    for (field, request) in [
        (
            "support_threshold",
            MineRequest::new(Algorithm::SpiderMine).support_threshold(0),
        ),
        ("k", MineRequest::new(Algorithm::Subdue).k(0)),
        (
            "epsilon",
            MineRequest::new(Algorithm::SpiderMine).epsilon(1.5),
        ),
        ("radius", MineRequest::new(Algorithm::SpiderMine).radius(0)),
        (
            "threads",
            MineRequest::new(Algorithm::SpiderMine).threads(0),
        ),
    ] {
        match request.build() {
            Err(MineError::InvalidConfig { field: named, .. }) => assert_eq!(named, field),
            other => panic!("expected InvalidConfig({field}), got {other:?}"),
        }
    }
}

/// Runs `mine` with a streaming sink installed on its context; returns the
/// streamed patterns' encodings and what `mine` returned.
fn mine_streaming<T>(mine: impl FnOnce(&mut MineContext) -> T) -> (Vec<Vec<u8>>, T) {
    let streamed: Arc<Mutex<Vec<Vec<u8>>>> = Arc::default();
    let sink = streamed.clone();
    let mut ctx =
        MineContext::new().on_pattern(move |p| sink.lock().unwrap().push(encode_pattern(&p)));
    let mined = mine(&mut ctx);
    let streamed = std::mem::take(&mut *streamed.lock().unwrap());
    (streamed, mined)
}

/// `patterns` in the order the run streamed them, per `stream_order` (empty
/// = the given order). Panics unless that order is a permutation of
/// `patterns`.
fn in_stream_order(patterns: &[StreamedPattern], stream_order: &[usize]) -> Vec<Vec<u8>> {
    let returned: Vec<Vec<u8>> = patterns.iter().map(encode_pattern).collect();
    if stream_order.is_empty() {
        return returned;
    }
    let mut by_seq: Vec<Option<Vec<u8>>> = vec![None; returned.len()];
    for (bytes, &seq) in returned.into_iter().zip(stream_order) {
        assert!(by_seq[seq].replace(bytes).is_none(), "seq {seq} used twice");
    }
    by_seq
        .into_iter()
        .map(|b| b.expect("stream_order is a permutation"))
        .collect()
}

/// The observer contract the transport's `Done` order table relies on:
/// every miner streams exactly its outcome's patterns, once each, in the
/// order its `stream_order` states (outcome order when empty).
#[test]
fn every_algorithm_streams_its_outcome_in_the_stated_order() {
    let host = planted_graph(53);
    let db = planted_db(53);
    for algo in Algorithm::all() {
        let engine = MineRequest::new(algo)
            .support_threshold(2)
            .k(5)
            .d_max(6)
            .seed(5)
            .build()
            .expect("valid request");
        let source = if algo.wants_transactions() {
            GraphSource::Transactions(&db)
        } else {
            GraphSource::Single(&host)
        };
        let (streamed, outcome) = mine_streaming(|ctx| engine.mine(&source, ctx).expect("mine"));
        assert!(
            !outcome.patterns.is_empty(),
            "{algo} returned nothing to compare"
        );
        assert_eq!(
            streamed,
            in_stream_order(&outcome.patterns, &outcome.stream_order),
            "{algo}"
        );
        if algo != Algorithm::SpiderMine {
            assert!(
                outcome.stream_order.is_empty(),
                "{algo} streams in outcome order"
            );
        }
    }
}

/// SpiderMine streams each pattern as its select stage accepts it and ranks
/// the list afterwards, so stream and outcome can disagree on order; its
/// `stream_order` must say exactly how. With closure refinement off an
/// accepted pattern is its pool entry unchanged, and the select stage
/// accepts pool entries in descending (edges, embedding count) order, so
/// the stream is sorted by that key. On this host the ranked outcome is
/// not: the permutation is not the identity, and the check is not vacuous.
#[test]
fn spidermine_stream_order_maps_its_acceptance_stream_onto_the_ranked_list() {
    let acceptance_key =
        |p: &StreamedPattern| Reverse((p.pattern.edge_count(), p.embeddings.len()));
    let host = planted_graph(11);
    // Closure refinement is not a request field, so this drives the miner's
    // own entry point.
    let miner = SpiderMiner::new(SpiderMineConfig {
        closure_refinement: false,
        k: 10,
        ..spidermine_config(RERANKED_SEED)
    });
    let (streamed, result) = mine_streaming(|ctx| miner.mine_with(&host, ctx));
    let patterns: Vec<StreamedPattern> = result
        .patterns
        .into_iter()
        .map(|p| StreamedPattern {
            pattern: p.pattern,
            support: p.support,
            embeddings: p.embeddings,
        })
        .collect();
    assert!(
        !patterns
            .windows(2)
            .all(|w| acceptance_key(&w[0]) <= acceptance_key(&w[1])),
        "ranking kept the acceptance order: the check below would be vacuous"
    );
    assert!(result
        .stream_order
        .iter()
        .enumerate()
        .any(|(i, &seq)| i != seq));
    assert_eq!(streamed, in_stream_order(&patterns, &result.stream_order));
    // The record describes the run, not the sink: a sink-less run of the
    // same config reports the same order.
    let quiet = miner.mine_with(&host, &mut MineContext::new());
    assert_eq!(quiet.stream_order, result.stream_order);
}

/// ISSUE-4: the work-stealing runtime's reductions are order-preserving, so
/// mining is **byte-identical at every thread count** — pattern structures,
/// supports, retained embeddings, and the merge accounting all match across
/// widths for all six algorithms. Width 8 oversubscribes small CI runners on
/// purpose: preemption-heavy schedules are where nondeterminism would show.
#[test]
fn outcomes_are_byte_identical_across_thread_counts() {
    let host = planted_graph(83);
    let db = planted_db(83);
    type OutcomeKey = (
        Vec<((Vec<u32>, Vec<(u32, u32)>), usize, Vec<Vec<u32>>)>,
        usize,
    );
    for algo in Algorithm::all() {
        let outcome_at = |threads: usize| -> OutcomeKey {
            let engine = MineRequest::new(algo)
                .support_threshold(2)
                .k(4)
                .d_max(6)
                .seed(19)
                .threads(threads)
                .build()
                .expect("valid request");
            let source = if algo.wants_transactions() {
                GraphSource::Transactions(&db)
            } else {
                GraphSource::Single(&host)
            };
            let outcome = engine
                .mine(&source, &mut MineContext::new())
                .unwrap_or_else(|e| panic!("{algo} failed: {e}"));
            assert_eq!(outcome.threads, threads, "{algo} ran at the wrong width");
            (
                outcome
                    .patterns
                    .iter()
                    .map(|p| {
                        let rows: Vec<Vec<u32>> = p
                            .embeddings
                            .iter()
                            .map(|e| e.iter().map(|v| v.0).collect())
                            .collect();
                        (graph_key(&p.pattern), p.support, rows)
                    })
                    .collect(),
                outcome.dropped_embeddings,
            )
        };
        let sequential = outcome_at(1);
        for threads in [2usize, 8] {
            assert_eq!(
                sequential,
                outcome_at(threads),
                "{algo} diverged at {threads} threads"
            );
        }
    }
}

#[test]
fn mismatched_source_is_a_typed_error() {
    let host = planted_graph(59);
    let db = planted_db(59);
    let origami = MineRequest::new(Algorithm::Origami).build().unwrap();
    let err = origami
        .mine(&GraphSource::Single(&host), &mut MineContext::new())
        .expect_err("origami needs transactions");
    assert!(matches!(err, MineError::UnsupportedSource { .. }));
    let spidermine = MineRequest::new(Algorithm::SpiderMine).build().unwrap();
    let err = spidermine
        .mine(&GraphSource::Transactions(&db), &mut MineContext::new())
        .expect_err("spidermine needs a single graph");
    assert!(matches!(err, MineError::UnsupportedSource { .. }));
}

/// The redesign's cancellation contract: firing the token mid-Stage-II makes
/// the run wind down and return partial results — no panic, no error.
#[test]
fn cancellation_mid_stage_two_yields_partial_outcome() {
    let host = planted_graph(61);
    let engine = MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(8)
        .seed(13)
        .build()
        .expect("valid request");
    let mut ctx = MineContext::new();
    let token = ctx.cancel_token();
    ctx = ctx.on_progress(move |e| {
        if matches!(
            e,
            ProgressEvent::Iteration {
                stage: "identify",
                iteration: 0
            }
        ) {
            token.fire();
        }
    });
    let outcome = engine
        .mine(&GraphSource::Single(&host), &mut ctx)
        .expect("cancellation is not an error");
    assert!(outcome.cancelled, "the outcome reports the cancellation");
    // A full (uncancelled) run finds at least as many patterns.
    let full = engine
        .mine(&GraphSource::Single(&host), &mut MineContext::new())
        .expect("full run");
    assert!(!full.cancelled);
    assert!(outcome.patterns.len() <= full.patterns.len());
}

#[test]
fn streamed_patterns_match_the_outcome() {
    let host = planted_graph(67);
    let engine = MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(4)
        .d_max(6)
        .seed(29)
        .build()
        .expect("valid request");
    let stream = PatternStream::spawn(
        engine.clone(),
        OwnedGraphSource::Single(host.clone()),
        CancelToken::new(),
    );
    let mut streamed: Vec<_> = stream.map(|p| (graph_key(&p.pattern), p.support)).collect();
    let outcome = engine
        .mine(&GraphSource::Single(&host), &mut MineContext::new())
        .expect("mine");
    let mut returned: Vec<_> = outcome
        .patterns
        .iter()
        .map(|p| (graph_key(&p.pattern), p.support))
        .collect();
    // Streaming is in acceptance order, the outcome is ranked: compare as
    // multisets.
    streamed.sort();
    returned.sort();
    assert_eq!(streamed, returned);
}
