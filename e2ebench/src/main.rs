//! End-to-end benchmark of the SpiderMine service stack.
//!
//! ```text
//! e2ebench --workload <fresh-mine|wire-hit|wire-mixed> --seed <n> --seconds <s>
//!          --trace <0|1> --work-dir <dir> [--commit <id>] [--smoke]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! runs the workload twice for half the time each, untraced then traced,
//! and reports the per-layer metrics. Every output is checked; the last line
//! of standard output is the result object
//! `{"correct", "attempted", "failed", "metrics"}`. Exit status: 0 when every
//! output was correct, 3 when some were not (the result is still printed),
//! 1 when the run could not be made, 2 on bad arguments. `--smoke` shrinks
//! hosts and repetitions so a run takes seconds. Normally started through
//! `e2ebench/run.py`, which builds this binary first.

mod check;
mod layers;
mod stats;
mod sys;
mod workload;

use spidermine_service::MiningService;
use spidermine_telemetry::RegistrySnapshot;
use stats::{median_of, Samples};
use std::path::PathBuf;
use std::time::Duration;
use workload::{Keys, Log, SetupTimes, Stack, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    work_dir: PathBuf,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut work_dir, mut commit) = (false, None, "unknown".to_owned());
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("a workload name"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad("a number"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--commit" => commit = value,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| *s > 0.0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
        smoke,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        commit,
    })
}

/// Named metrics with units, in report order.
#[derive(Default)]
struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    fn note(&mut self, note: impl Into<String>) {
        self.notes.push(note.into());
    }
}

/// Service registry counters the cross-checks read.
#[derive(Clone, Copy, Default)]
struct Counts {
    completed: u64,
    cancelled: u64,
    failed: u64,
    hits: u64,
    misses: u64,
    queue_wait_us: u64,
    bytes_streamed: u64,
}

impl Counts {
    fn read(service: &MiningService) -> Self {
        let snap: RegistrySnapshot = service.registry().snapshot();
        Self {
            completed: snap.counter("jobs_completed_total"),
            cancelled: snap.counter("jobs_cancelled_total"),
            failed: snap.counter("jobs_failed_total"),
            hits: snap.counter("cache_hits_total"),
            misses: snap.counter("cache_misses_total"),
            queue_wait_us: snap.counter("queue_wait_micros_total"),
            bytes_streamed: snap
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("client_bytes_streamed_total"))
                .map(|(_, v)| v)
                .sum(),
        }
    }

    fn since(self, before: Counts) -> Counts {
        Counts {
            completed: self.completed - before.completed,
            cancelled: self.cancelled - before.cancelled,
            failed: self.failed - before.failed,
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            queue_wait_us: self.queue_wait_us - before.queue_wait_us,
            bytes_streamed: self.bytes_streamed - before.bytes_streamed,
        }
    }

    fn jobs(self) -> u64 {
        self.completed + self.cancelled + self.failed
    }
}

/// One measured phase: what the clients saw, the registry and CPU deltas
/// over it, and the process samples taken during it.
struct Phase {
    log: Log,
    delta: Counts,
    cpu_s: f64,
    sampled: sys::Sampled,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.log.completed() as f64 / self.log.elapsed.as_secs_f64()
    }
}

/// Drives the workload for `seconds`, then holds the production counters to
/// what the clients did: every attempted request (and every in-process
/// lookup a check made) is a finished job, and the cache missed exactly once
/// per distinct fresh key.
fn run_phase(stack: &Stack, keys: Keys, phase: u64, seconds: f64, traced: bool) -> Phase {
    let before = Counts::read(&stack.service);
    let cpu = sys::cpu_seconds();
    let sampler = sys::Sampler::start();
    let mut log = workload::drive(stack, keys, phase, Duration::from_secs_f64(seconds), traced);
    let sampled = sampler.finish();
    let cpu_s = sys::cpu_seconds() - cpu;
    let delta = Counts::read(&stack.service).since(before);
    if delta.jobs() != log.attempted + log.lookups {
        log.fail(format!(
            "registry: completed + cancelled + failed = {} but {} requests were attempted \
             and {} checks looked up",
            delta.jobs(),
            log.attempted,
            log.lookups
        ));
    }
    if delta.misses != log.fresh_keys.len() as u64 {
        log.fail(format!(
            "registry: {} cache misses for {} distinct fresh keys",
            delta.misses,
            log.fresh_keys.len()
        ));
    }
    Phase {
        log,
        delta,
        cpu_s,
        sampled,
    }
}

/// Set-up time a run spends before the measured window, and again after
/// it. Splitting it puts the set-ups of one run at both ends of its window,
/// so their median does not hang on the disk's fsync latency of one moment
/// (a persist is two fsyncs, most of a `fresh-mine` set-up, and their
/// latency on the box this was built on drifted by half within 20 s).
const SETUP_HALF: Duration = Duration::from_millis(2500);

/// The set-ups of a run: every set-up's times and warm mines.
#[derive(Default)]
struct Setups {
    times: Vec<SetupTimes>,
    warm: Log,
}

impl Setups {
    /// Builds the stack again and again for [`SETUP_HALF`], and until the
    /// run has set up `min` times in all (once with `--smoke`), keeping the
    /// last one. The time decides
    /// the count, so a workload whose set-up takes a millisecond takes its
    /// median over thousands of set-ups; the cap only bounds the disk and
    /// thread churn.
    fn round(&mut self, args: &Args, min: usize) -> Result<Stack, String> {
        let (min, max) = if args.smoke { (1, 1) } else { (min, 5000) };
        let started = std::time::Instant::now();
        let mut stack: Option<Stack> = None;
        let catalog = |i: usize| args.work_dir.join(format!("catalog-{i}"));
        for _ in 0..max {
            if self.times.len() >= min && started.elapsed() >= SETUP_HALF {
                break;
            }
            let i = self.times.len();
            if let Some(previous) = stack.take() {
                previous.close();
                let _ = std::fs::remove_dir_all(catalog(i - 1));
            }
            let (mut next, t) = workload::setup(args.workload, args.smoke, &catalog(i))?;
            self.times.push(t);
            self.warm.absorb(std::mem::take(&mut next.warm));
            stack = Some(next);
        }
        Ok(stack.expect("at least one set-up"))
    }

    /// Closes the measured stack and sets up again after the window (not
    /// with `--smoke`): at least three set-ups in all.
    fn finish(&mut self, args: &Args, measured: Stack) -> Result<(), String> {
        measured.close();
        if !args.smoke {
            let min = self.times.len() + 1;
            self.round(args, min.max(3))?.close();
        }
        Ok(())
    }

    fn median(&self, f: fn(&SetupTimes) -> f64) -> f64 {
        median_of(&self.times.iter().map(f).collect::<Vec<_>>())
    }
}

/// Reports `<name>_p50_ms` and `<name>_tail_ms` (the tail at percentile
/// `p`), noting the sample count.
fn latency(samples: &mut Samples, p: f64, report: &mut Report, name: &str) {
    let count = samples.len();
    let beyond = (count as f64 * (1.0 - p / 100.0)).floor();
    report.add(format!("{name}_p50_ms"), samples.median(), "ms");
    report.add(format!("{name}_tail_ms"), samples.percentile(p), "ms");
    report.note(format!(
        "{name}: {count} samples, tail = p{p} ({beyond} samples beyond{})",
        if p > 50.0 && beyond < 10.0 {
            "; fewer than 10, run longer"
        } else {
            ""
        }
    ));
}

fn end_to_end(args: &Args, keys: Keys, report: &mut Report) -> Result<(u64, u64), String> {
    let mut setups = Setups::default();
    let stack = setups.round(args, 2)?;
    let mut phase = run_phase(&stack, keys, 0, args.seconds, false);
    setups.finish(args, stack)?;
    report.add("setup_s", setups.median(|t| t.total_s), "s");
    report.add("throughput_rps", phase.throughput(), "1/s");
    let log = &mut phase.log;
    let warm = &mut setups.warm;
    // `wire-hit` sends only cache hits; its mine samples are the mines that
    // warmed its cache in the set-ups, as every end-to-end metric is
    // reported on every workload.
    let (mine_p, hit_p) = args.workload.tail_percentiles();
    let mines = if log.mine.is_empty() {
        &mut warm.mine
    } else {
        &mut log.mine
    };
    latency(mines, mine_p, report, "mine");
    latency(&mut log.hit, hit_p, report, "hit");
    report.add(
        "pattern_edges_mean",
        log.edges_sum as f64 / log.completed().max(1) as f64,
        "edges",
    );
    report.add("rss_mb", phase.sampled.rss_mb, "MiB");
    report.note(format!(
        "peak RSS over the whole run: {} MiB",
        sys::peak_rss_mb()
    ));
    let checked = log.patterns_checked + warm.patterns_checked;
    report.note(format!(
        "{} of {checked} fresh patterns have a diameter above Dmax = {}",
        log.over_d_max + warm.over_d_max,
        workload::D_MAX
    ));
    let (attempted, failed) = (log.attempted + warm.attempted, log.failed + warm.failed);
    report.note(format!(
        "failed_frac = {} ({failed} of {attempted})",
        failed as f64 / attempted.max(1) as f64
    ));
    for e in log.errors.iter().chain(&warm.errors) {
        report.note(format!("failure: {e}"));
    }
    Ok((attempted, failed))
}

fn per_layer(args: &Args, keys: Keys, report: &mut Report) -> Result<(u64, u64), String> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // The traced run sets up before its window only: the set-up layers'
    // medians need no more.
    let mut setups = Setups::default();
    let stack = setups.round(args, 3)?;
    report.add("graph.generate_ms", setups.median(|t| t.generate_ms), "ms");
    report.add("graph.csr_freeze_ms", setups.median(|t| t.csr_ms), "ms");
    report.add(
        "service.catalog_restore_ms",
        setups.median(|t| t.restore_ms),
        "ms",
    );
    report.add("service.cache_warm_ms", setups.median(|t| t.warm_ms), "ms");
    let warm = &setups.warm;

    let half = args.seconds / 2.0;
    let plain = run_phase(&stack, keys, 1, half, false);
    let drain = layers::CaptureDrain::start();
    let mut traced = run_phase(&stack, keys, 2, half, true);
    let events = drain.finish();
    let events = events.unwrap_or_else(|why| {
        traced.log.fail(why);
        Vec::new()
    });

    // Stage timings of every mine of the run, warm mines included.
    let mut stages: std::collections::BTreeMap<&str, Samples> = Default::default();
    for timings in [warm, &plain.log, &traced.log]
        .iter()
        .flat_map(|l| &l.mine_stages)
    {
        for t in timings {
            stages
                .entry(t.stage)
                .or_default()
                .push(t.elapsed.as_secs_f64() * 1e3);
        }
    }
    for stage in ["spiders", "identify", "recover", "select"] {
        let p50 = stages.get_mut(stage).map_or(0.0, Samples::median);
        report.add(format!("spidermine.{stage}_ms"), p50, "ms");
    }

    let (key, k, seed) = keys.mined_key(args.workload);
    let served = workload::lookup(&stack.service, &key)?;
    let config = layers::spidermine_config(k, seed);
    let (replay, gaps) = layers::replay_mine(stack.host(), config.clone());
    let mut failures = Vec::new();
    if replay.patterns.len() != served.patterns.len()
        || replay.largest_edges() != served.largest_edges()
    {
        failures.push("a direct SpiderMiner replay disagrees with the served outcome".to_owned());
    }
    let s = &replay.stats;
    report.add("spidermine.identify_iter_ms", median_of(&gaps), "ms");
    let round = layers::replay_round(stack.host(), &config, if args.smoke { 1 } else { 3 });
    report.add("spidermine.grow_round_ms", round.grow_ms, "ms");
    report.add("spidermine.merge_round_ms", round.merge_ms, "ms");
    report.add("spidermine.spiders", s.spider_count as f64, "count");
    report.add("spidermine.seeds", s.seed_count as f64, "count");
    report.add("spidermine.merges", s.merges as f64, "count");
    report.add(
        "spidermine.iso_pruned_ratio",
        ratio(s.iso_tests_pruned, s.iso_tests_pruned + s.iso_tests_run),
        "ratio",
    );
    report.add(
        "spidermine.embeddings_dropped",
        s.merge_embeddings_dropped as f64,
        "count",
    );
    let logs = [warm, &plain.log, &traced.log];
    let checked: u64 = logs.iter().map(|l| l.patterns_checked).sum();
    let over: u64 = logs.iter().map(|l| l.over_d_max).sum();
    report.add(
        "spidermine.over_dmax_frac",
        ratio(over as usize, checked as usize),
        "ratio",
    );
    report.add("mining.support_ms", round.support_ms, "ms");
    let global = spidermine_telemetry::global().snapshot();
    let (oracle_hits, oracle_misses) = (
        global.counter("oracle_hits_total") as usize,
        global.counter("oracle_misses_total") as usize,
    );
    report.add(
        "mining.oracle_hit_ratio",
        ratio(oracle_hits, oracle_hits + oracle_misses),
        "ratio",
    );
    report.add(
        "rayon.cpu_util",
        plain.cpu_s / (plain.log.elapsed.as_secs_f64() * nproc as f64),
        "ratio",
    );
    report.add(
        "engine.mine_ms",
        global
            .histogram("engine_mine_nanos{algorithm=\"spidermine\"}")
            .p50 as f64
            / 1e6,
        "ms",
    );

    let sample = match args.workload {
        Workload::FreshMine => served.clone(),
        _ => stack.references[workload::HIT_KS.len() - 1].clone(),
    };
    let budget = Duration::from_millis(if args.smoke { 10 } else { 150 });
    let codec = layers::codec(&sample, budget);
    report.add("engine.pattern_encode_us", codec.pattern_encode_us, "us");
    report.add("engine.pattern_decode_us", codec.pattern_decode_us, "us");
    report.add("engine.pattern_bytes", codec.pattern_bytes, "B");

    let warm_key = match args.workload {
        Workload::FreshMine => key.clone(),
        _ => stack.hit_keys[0].clone(),
    };
    let cached_wait_us = layers::cached_wait_us(
        &stack.service,
        &warm_key,
        if args.smoke { 50 } else { 2000 },
    );
    let d = plain.delta;
    // Jobs and hits the clients caused, without the checks' lookups.
    let (jobs, hits) = (d.jobs() - plain.log.lookups, d.hits - plain.log.lookups);
    report.add("service.cached_wait_us", cached_wait_us, "us");
    report.add(
        "service.queue_wait_ms",
        d.queue_wait_us as f64 / 1e3 / jobs.max(1) as f64,
        "ms",
    );
    report.add(
        "service.job_total_ms",
        stack
            .service
            .registry()
            .snapshot()
            .histogram("job_total_nanos")
            .p50 as f64
            / 1e6,
        "ms",
    );
    report.add(
        "service.cache_hit_ratio",
        ratio(hits as usize, (hits + d.misses) as usize),
        "ratio",
    );

    report.add("transport.frame_encode_us", codec.frame_encode_us, "us");
    report.add("transport.frame_decode_us", codec.frame_decode_us, "us");
    // The median remote hit asks for a K = 1 key (one pattern); comparing it
    // with the K = 10 key's hits gives the cost of each further pattern.
    let (overhead_us, unattributed_us, per_pattern_us, bytes) = if args.workload.remote() {
        let (mut one, mut ten) = (Samples::default(), Samples::default());
        for (samples, &k) in plain.log.hit_by_key.iter().zip(&workload::HIT_KS) {
            if k == 1 {
                one.extend(samples);
            } else {
                ten.extend(samples);
            }
        }
        let pattern_count = |i: usize| stack.references[i].patterns.len() as f64;
        let (p1, p10) = (pattern_count(0), pattern_count(workload::HIT_KS.len() - 1));
        let overhead = one.median() * 1e3 - cached_wait_us;
        let codec_us = p1 * (2.0 * codec.pattern_encode_us + codec.pattern_decode_us)
            + (p1 + 1.0) * (codec.frame_encode_us + codec.frame_decode_us);
        let per_pattern = (ten.median() - one.median()) * 1e3 / (p10 - p1).max(1.0);
        let bytes = d.bytes_streamed as f64 / plain.log.attempted.max(1) as f64;
        (overhead, overhead - codec_us, per_pattern, bytes)
    } else {
        (0.0, 0.0, 0.0, 0.0)
    };
    report.add("transport.wire_overhead_us", overhead_us, "us");
    report.add("transport.unattributed_us", unattributed_us, "us");
    report.add("transport.per_pattern_us", per_pattern_us, "us");
    report.add("transport.bytes_per_request", bytes, "B");
    let threads_peak = plain.sampled.peak_threads.max(traced.sampled.peak_threads);
    report.add("transport.threads_peak", threads_peak as f64, "count");

    let trace = layers::analyze(&events, &traced.log.windows);
    for span in layers::SPANS {
        report.add(format!("trace.{span}.self_ms"), trace.self_ms[span], "ms");
        report.note(format!("trace.{span}: {} spans", trace.counts[span]));
    }
    report.add("trace.unattributed_frac", trace.unattributed_frac, "ratio");
    report.add("trace.events", trace.events as f64, "count");
    report.add("trace.unbalanced_spans", trace.unbalanced as f64, "count");
    if trace.unbalanced > 0 {
        failures.push(format!(
            "{} unbalanced spans in the capture",
            trace.unbalanced
        ));
    }
    report.add(
        "telemetry.trace_overhead_frac",
        1.0 - traced.throughput() / plain.throughput(),
        "ratio",
    );
    report.note(format!(
        "throughput untraced {} 1/s, traced {} 1/s",
        plain.throughput(),
        traced.throughput()
    ));

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = logs.iter().map(|l| l.failed).sum();
    for e in logs.iter().flat_map(|l| &l.errors).chain(&failures) {
        report.note(format!("failure: {e}"));
    }
    failed += failures.len() as u64;
    stack.close();
    Ok((attempted.max(1), failed))
}

fn ratio(part: usize, whole: usize) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

fn main() {
    // Any panic is a broken run: abort, so the wrapper reports the workload
    // as failed and no partial numbers are printed.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        default_hook(info);
        std::process::abort();
    }));

    let args = match parse_args() {
        Ok(args) => args,
        Err(why) => {
            eprintln!("e2ebench: {why}");
            std::process::exit(2);
        }
    };
    let keys = Keys { seed: args.seed };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "meta {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"smoke\": {}, \"nproc\": {nproc}, \"pool_width\": {}, \"rayon_num_threads\": {}, \"git_commit\": {}, \"profile\": {}}}",
        json_str(args.workload.name()),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.smoke,
        rayon::current_num_threads(),
        json_str(&std::env::var("RAYON_NUM_THREADS").unwrap_or_else(|_| "unset".into())),
        json_str(&args.commit),
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
    );
    let mut report = Report::default();
    let run = if args.trace {
        per_layer(&args, keys, &mut report)
    } else {
        end_to_end(&args, keys, &mut report)
    };
    let _ = std::fs::remove_dir_all(&args.work_dir);
    let (attempted, failed) = match run {
        Ok(counts) => counts,
        Err(why) => {
            eprintln!("e2ebench: {}: {why}", args.workload.name());
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("note {note}");
    }
    for (name, value, unit) in &report.metrics {
        println!("metric {name} = {value} {unit}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    );
    std::process::exit(if failed == 0 { 0 } else { 3 });
}
