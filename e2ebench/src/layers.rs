//! Per-layer measurements of the traced run. Each one calls a layer's
//! public functions from the benchmark's own code, on the workload's host,
//! config and outcomes, or reads what the program already records (registry
//! cells, span capture). Nothing here adds instrumentation to the program.

use crate::stats::{median_of, Samples};
use crate::workload::{self, Window, D_MAX, SIGMA};
use rayon::prelude::*;
use spidermine::grow::{self, GrownPattern};
use spidermine::{merge, seeding, MiningResult, SpiderMineConfig, SpiderMiner};
use spidermine_engine::wire::{decode_pattern, encode_outcome_meta, encode_pattern};
use spidermine_engine::{MineContext, MineOutcome, MineRequest, ProgressEvent};
use spidermine_graph::LabeledGraph;
use spidermine_mining::eval::EmbeddingStore;
use spidermine_mining::{SpiderCatalog, SpiderMiningConfig};
use spidermine_service::MiningService;
use spidermine_telemetry::{Event, EventKind};
use spidermine_transport::frame::{encode_frame, read_frame, Frame, PatternRef};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The engine's SpiderMine configuration for `request`'s K and seed (the
/// request leaves every other knob at its default).
pub fn spidermine_config(k: usize, seed: u64) -> SpiderMineConfig {
    SpiderMineConfig {
        support_threshold: SIGMA,
        k,
        d_max: D_MAX,
        rng_seed: seed,
        ..SpiderMineConfig::default()
    }
}

/// One direct `SpiderMiner::mine_with` run, with the gaps between Stage II
/// iterations taken from its progress events.
pub fn replay_mine(host: &LabeledGraph, config: SpiderMineConfig) -> (MiningResult, Vec<f64>) {
    let marks: Arc<Mutex<Vec<Instant>>> = Arc::default();
    let mut ctx = MineContext::new().on_progress({
        let marks = marks.clone();
        move |event| match event {
            ProgressEvent::StageStarted { stage: "identify" }
            | ProgressEvent::Iteration {
                stage: "identify", ..
            } => marks.lock().expect("marks").push(Instant::now()),
            _ => {}
        }
    });
    let result = SpiderMiner::new(config).mine_with(host, &mut ctx);
    let marks = marks.lock().expect("marks");
    let gaps = marks
        .windows(2)
        .map(|w| (w[1] - w[0]).as_secs_f64() * 1e3)
        .collect();
    (result, gaps)
}

/// Median times of one Stage II round, replayed layer by layer.
pub struct Round {
    pub grow_ms: f64,
    pub merge_ms: f64,
    pub support_ms: f64,
}

/// Replays the first Stage II round of `config` on `host` as the miner runs
/// it: seed patterns from the seeded spiders, one `grow_layer` per pattern
/// on the pool, `check_merges` over the grown set, then the support of every
/// grown pattern. Repeated `reps` times from the same seeds.
pub fn replay_round(host: &LabeledGraph, config: &SpiderMineConfig, reps: usize) -> Round {
    let catalog = SpiderCatalog::mine(
        host,
        &SpiderMiningConfig {
            support_threshold: config.support_threshold,
            max_leaves: config.max_spider_leaves,
            include_single_vertex: false,
            max_spiders: usize::MAX,
        },
    );
    let v_min = ((host.vertex_count() as f64) * config.v_min_fraction).ceil() as usize;
    let m = seeding::seed_count(host.vertex_count(), v_min.max(1), config.k, config.epsilon);
    let seeds = seeding::random_seed_spiders(&catalog, m, config.rng_seed);
    let (mut grow_ms, mut merge_ms, mut support_ms) = (vec![], vec![], vec![]);
    for _ in 0..reps {
        let mut store = EmbeddingStore::new();
        let patterns: Vec<GrownPattern> = seeds
            .iter()
            .filter_map(|&id| {
                let (pattern, rows) = grow::seed_rows(host, catalog.get(id), config);
                (rows.view().support(config.support_measure) >= config.support_threshold).then(
                    || GrownPattern {
                        embeddings: store.insert_scratch(&rows),
                        boundary: pattern.vertices().collect(),
                        pattern,
                        merged: false,
                        seed_ids: vec![id],
                        exhausted: false,
                    },
                )
            })
            .collect();

        let t = Instant::now();
        let growths: Vec<grow::LayerGrowth> = patterns
            .par_iter()
            .map(|p| grow::grow_layer(host, &catalog, p, store.view(p.embeddings), config))
            .collect();
        let mut variants = Vec::with_capacity(growths.len());
        let bases = store.absorb_shards(growths.into_iter().map(|g| {
            variants.push(g.variants);
            g.arena
        }));
        let grown: Vec<GrownPattern> = variants
            .into_iter()
            .zip(bases)
            .flat_map(|(list, base)| {
                list.into_iter().map(move |mut v| {
                    v.embeddings = EmbeddingStore::rebased(v.embeddings, base);
                    v
                })
            })
            .collect();
        grow_ms.push(t.elapsed().as_secs_f64() * 1e3);

        let t = Instant::now();
        let merged = merge::check_merges(host, &grown, config, &mut store);
        merge_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(merged);

        let t = Instant::now();
        let total: usize = grown.iter().map(|p| p.support(config, &store)).sum();
        support_ms.push(t.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(total);
    }
    Round {
        grow_ms: median_of(&grow_ms),
        merge_ms: median_of(&merge_ms),
        support_ms: median_of(&support_ms),
    }
}

/// Codec costs on a run's own outcome.
pub struct Codec {
    pub pattern_encode_us: f64,
    pub pattern_decode_us: f64,
    pub pattern_bytes: f64,
    pub frame_encode_us: f64,
    pub frame_decode_us: f64,
}

/// Mean µs per call of `f` over enough repetitions to fill `budget`.
fn per_call_us(budget: Duration, mut f: impl FnMut() -> usize) -> f64 {
    let started = Instant::now();
    let mut calls = 0usize;
    while started.elapsed() < budget || calls == 0 {
        calls += f();
    }
    started.elapsed().as_secs_f64() * 1e6 / calls as f64
}

/// Times `encode_pattern`/`decode_pattern` on `outcome`'s patterns and
/// `encode_frame`/`read_frame` on the `Pattern` and `Done` frames a server
/// sends for it.
pub fn codec(outcome: &MineOutcome, budget: Duration) -> Codec {
    let encoded: Vec<Vec<u8>> = outcome.patterns.iter().map(encode_pattern).collect();
    let mut frames: Vec<Frame> = encoded
        .iter()
        .enumerate()
        .map(|(seq, bytes)| Frame::Pattern {
            id: 1,
            seq: seq as u64,
            pattern: bytes.clone(),
        })
        .collect();
    frames.push(Frame::Done {
        id: 1,
        from_cache: true,
        meta: encode_outcome_meta(outcome),
        order: (0..encoded.len() as u64)
            .map(PatternRef::Streamed)
            .collect(),
        trace: 1,
    });
    let wire: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let count = |n: usize| n.max(1);
    Codec {
        pattern_encode_us: per_call_us(budget, || {
            for p in &outcome.patterns {
                std::hint::black_box(encode_pattern(p));
            }
            count(outcome.patterns.len())
        }),
        pattern_decode_us: per_call_us(budget, || {
            for bytes in &encoded {
                std::hint::black_box(decode_pattern(bytes).expect("own encoding decodes"));
            }
            count(encoded.len())
        }),
        pattern_bytes: encoded.iter().map(Vec::len).sum::<usize>() as f64
            / count(encoded.len()) as f64,
        frame_encode_us: per_call_us(budget, || {
            for frame in &frames {
                std::hint::black_box(encode_frame(frame));
            }
            frames.len()
        }),
        frame_decode_us: per_call_us(budget, || {
            for bytes in &wire {
                std::hint::black_box(read_frame(&mut bytes.as_slice()).expect("own frame reads"));
            }
            wire.len()
        }),
    }
}

/// Median µs of an in-process submit → wait of a cached key.
pub fn cached_wait_us(service: &MiningService, key: &MineRequest, reps: usize) -> f64 {
    let mut samples = Samples::default();
    for _ in 0..reps {
        let t = Instant::now();
        let outcome = service
            .submit(workload::GRAPH, key.clone())
            .and_then(|h| h.wait())
            .expect("cached key is served");
        samples.push(t.elapsed().as_secs_f64() * 1e6);
        std::hint::black_box(outcome);
    }
    samples.median()
}

/// Drains the span capture on a timer while a traced phase runs, so the
/// bounded capture buffer never evicts an event.
pub struct CaptureDrain {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<(Vec<Event>, usize)>,
}

/// The capture buffer's size: a drain this large may have lost events.
const CAPTURE_CAP: usize = 1 << 16;

impl CaptureDrain {
    /// Arms tracing and starts capturing.
    pub fn start() -> Self {
        spidermine_telemetry::arm();
        spidermine_telemetry::start_capture();
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut events = Vec::new();
                let mut largest = 0;
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(10));
                    let batch = spidermine_telemetry::take_capture();
                    largest = largest.max(batch.len());
                    events.extend(batch);
                }
                (events, largest)
            })
        };
        Self { stop, handle }
    }

    /// Stops capturing and disarms; returns every event, or an error if a
    /// drain came back full (events may have been evicted).
    pub fn finish(self) -> Result<Vec<Event>, String> {
        self.stop.store(true, Ordering::Relaxed);
        let (mut events, largest) = self.handle.join().expect("capture drain");
        spidermine_telemetry::stop_capture();
        spidermine_telemetry::disarm();
        let rest = spidermine_telemetry::take_capture();
        let largest = largest.max(rest.len());
        events.extend(rest);
        if largest >= CAPTURE_CAP {
            return Err(format!(
                "a capture drain returned {largest} events: the buffer may have evicted some"
            ));
        }
        Ok(events)
    }
}

/// Spans whose self time the traced run reports.
pub const SPANS: [&str; 10] = [
    "job",
    "queued",
    "parked",
    "running",
    "engine_mine",
    "spiders",
    "identify",
    "recover",
    "select",
    "remote_job",
];

/// What the span capture of a traced phase says.
pub struct TraceReport {
    pub events: usize,
    pub unbalanced: usize,
    /// Median self time per span instance, ms, for each name in [`SPANS`].
    pub self_ms: BTreeMap<&'static str, f64>,
    /// Instances per span name.
    pub counts: BTreeMap<&'static str, usize>,
    /// Share of client-observed request time no span of the request covers.
    pub unattributed_frac: f64,
}

#[derive(Clone, Copy)]
struct Span {
    name: &'static str,
    trace: u64,
    parent: u64,
    start: u64,
    end: u64,
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Pairs span starts with ends, computes each span's self time (its
/// duration minus the union of its children's intervals), and the share of
/// each request's client-observed window that no span of its trace covers.
pub fn analyze(events: &[Event], windows: &[Window]) -> TraceReport {
    let mut open: HashMap<u64, Event> = HashMap::new();
    let mut spans: HashMap<u64, Span> = HashMap::new();
    let mut unbalanced = 0;
    for e in events {
        match e.kind {
            EventKind::SpanStart => {
                open.insert(e.span, *e);
            }
            EventKind::SpanEnd => match open.remove(&e.span) {
                Some(s) => {
                    spans.insert(
                        e.span,
                        Span {
                            name: s.name,
                            trace: s.trace,
                            parent: s.parent,
                            start: s.t_nanos,
                            end: e.t_nanos.max(s.t_nanos),
                        },
                    );
                }
                None => unbalanced += 1,
            },
            _ => {}
        }
    }
    unbalanced += open.len();

    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    let mut by_trace: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.values() {
        children.entry(s.parent).or_default().push((s.start, s.end));
        by_trace.entry(s.trace).or_default().push((s.start, s.end));
    }
    let mut self_samples: BTreeMap<&'static str, Samples> = BTreeMap::new();
    for (id, s) in &spans {
        let Some(name) = SPANS.iter().find(|&&n| n == s.name) else {
            continue;
        };
        let inner = children
            .get_mut(id)
            .map_or(0, |c| covered(c, s.start, s.end));
        let self_ns = (s.end - s.start).saturating_sub(inner);
        self_samples
            .entry(name)
            .or_default()
            .push(self_ns as f64 / 1e6);
    }

    let (mut observed, mut uncovered) = (0u64, 0u64);
    for w in windows {
        let span = w.end.saturating_sub(w.start);
        let inside = by_trace
            .get_mut(&w.trace)
            .map_or(0, |list| covered(list, w.start, w.end));
        observed += span;
        uncovered += span - inside.min(span);
    }

    TraceReport {
        events: events.len(),
        unbalanced,
        self_ms: SPANS
            .iter()
            .map(|&n| (n, self_samples.get_mut(n).map_or(0.0, Samples::median)))
            .collect(),
        counts: SPANS
            .iter()
            .map(|&n| (n, self_samples.get(n).map_or(0, Samples::len)))
            .collect(),
        unattributed_frac: if observed == 0 {
            0.0
        } else {
            uncovered as f64 / observed as f64
        },
    }
}
