//! `mine` — run any of the six miners through the unified engine API.
//!
//! ```text
//! cargo run -p spidermine-examples --example mine -- \
//!     --algo spidermine --sigma 2 --k 5 --dmax 8
//! ```
//!
//! Flags:
//!
//! * `--algo NAME`   — spidermine | spidermine-transactions | subdue | moss |
//!   origami | seus (default: spidermine)
//! * `--sigma N`     — support threshold σ (default 2)
//! * `--k N`         — number of patterns to report (default 5)
//! * `--dmax N`      — diameter bound `Dmax` (default 8)
//! * `--seed N`      — RNG seed (default 7)
//! * `--threads N`   — worker threads for the run (default: the pool's
//!   `RAYON_NUM_THREADS` / machine parallelism; results are identical at
//!   every thread count)
//! * `--support-measure M` — support definition for the measures-pluggable
//!   algorithms: embeddings | mni | greedy-disjoint (per-algorithm default
//!   when omitted: MNI for SpiderMine, greedy-disjoint for MoSS)
//! * `--deadline-ms N` — wall-clock deadline for the run; an expired
//!   deadline winds the run down cooperatively and reports the partial
//!   result with a `timed out` marker (never an error)
//! * `--edges FILE`  — mine a graph in the gSpan-style `v`/`e` text format
//!   (`t` records make it a transaction database) instead of the synthetic
//!   default
//! * `--load-graph FILE` — mine a binary CSR snapshot (the `io::save_snapshot`
//!   format, memory-mapped on load; files in the retired version-1 format
//!   are rejected as unsupported) instead of the synthetic default; mutually
//!   exclusive with `--edges`, single-graph algorithms only
//! * `--save-graph FILE` — persist the mined host graph as a binary CSR
//!   snapshot before mining (works with `--edges` and the synthetic default)
//! * `--serve-demo`  — run the service-layer batch driver instead of one
//!   mine: registers two graphs in a catalog, submits concurrent jobs
//!   (several of them identical), and prints per-job statuses plus the
//!   scheduler/cache metrics
//! * `--serve ADDR`  — expose the mining service over TCP: registers the
//!   synthetic graphs `gid-a` and `gid-b` in a catalog, binds the streaming
//!   wire protocol on `ADDR` (e.g. `127.0.0.1:7733`, port 0 for ephemeral),
//!   and serves until killed
//! * `--connect ADDR` — submit this invocation's request to a remote
//!   `--serve` instance instead of mining in-process: patterns stream back
//!   over the wire as the server accepts them, and the summary reports
//!   whether the server answered from its result cache
//! * `--graph NAME`  — catalog name to mine in `--connect` mode
//!   (default `gid-a`)
//! * `--catalog-dir DIR` — with `--serve`: restore the catalog from DIR's
//!   manifest when one exists (warm restart, header-only registration), or
//!   persist the freshly registered catalog to DIR for the next restart
//! * `--fault-plan SPEC` — arm deterministic fault injection for this
//!   invocation from an explicit plan (`site:nth:kind[=arg]`, comma
//!   separated — e.g. `wire-write:4:disconnect,disk-read:0:bit-flip=3`);
//!   the rules that actually fired are reported at exit, and the telemetry
//!   flight recorder is armed automatically — its dump (recent spans,
//!   faults and retries per thread) prints alongside the fired-rule report
//! * `--chaos SEED`  — arm fault injection from a seeded random plan
//!   (mutually exclusive with `--fault-plan`); the same seed always
//!   produces the same plan, so a chaotic run is replayable. Arms the
//!   flight recorder like `--fault-plan`
//! * `--metrics`     — print the telemetry registries in Prometheus text
//!   format at exit (counters, gauges, latency histograms with
//!   p50/p95/p99). In `--connect` mode the *server's* registries are
//!   fetched over the wire; in `--serve` mode they print at drain
//! * `--trace-out FILE` — arm structured span tracing and write the
//!   captured events to FILE as Chrome trace-event JSON (open in
//!   `chrome://tracing` or Perfetto). In `--connect` mode the server's
//!   captured trace is fetched over the wire (the server must also run
//!   with `--trace-out` or armed telemetry); in `--serve` mode the
//!   capture is written at drain
//!
//! In `--connect` mode with faults armed, the client runs through the
//! resilient reconnect-and-resume path and prints its retry/reconnect
//! counters. In `--serve` mode, `SIGTERM`/`SIGINT` triggers a graceful
//! drain (in-flight jobs get a grace window, clients get a typed
//! `Draining` notice) instead of an abrupt exit.
//!
//! Patterns stream to stdout as the miner accepts them, followed by the
//! per-stage wall-clock timings of the run — both through the one
//! `MineContext` every engine shares.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::{
    Algorithm, GraphSource, MineContext, MineError, MineRequest, ProgressEvent, SupportMeasure,
};
use spidermine_faultline::{FaultInjector, FaultPlan};
use spidermine_graph::{generate, io, GraphDatabase, LabeledGraph};
use spidermine_service::{MiningService, ServiceConfig};
use spidermine_telemetry as telemetry;
use spidermine_transport::{
    MiningClient, MiningServer, ResilientClient, RetryPolicy, TransportConfig,
};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

/// How long a SIGTERM-triggered drain lets in-flight jobs finish before
/// cancelling the stragglers.
const DRAIN_DEADLINE: Duration = Duration::from_secs(10);

/// SIGTERM/SIGINT → a flag the serve loop polls, so a kill becomes a
/// graceful drain. Registered through the raw C `signal` entry point (no
/// external crates; the only thing the handler does is the async-signal-safe
/// store of one atomic).
#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        let handler = on_term as extern "C" fn(i32) as usize;
        unsafe {
            signal(SIGTERM, handler);
            signal(SIGINT, handler);
        }
    }

    pub fn terminated() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

struct Cli {
    algo: Algorithm,
    sigma: usize,
    k: usize,
    d_max: u32,
    seed: u64,
    threads: Option<usize>,
    support_measure: Option<SupportMeasure>,
    deadline_ms: Option<u64>,
    edges: Option<String>,
    load_graph: Option<String>,
    save_graph: Option<String>,
    serve_demo: bool,
    serve: Option<String>,
    connect: Option<String>,
    graph: String,
    catalog_dir: Option<String>,
    fault_plan: Option<String>,
    chaos: Option<u64>,
    metrics: bool,
    trace_out: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: mine [--algo {}] [--sigma N] [--k N] [--dmax N] [--seed N] [--threads N] [--support-measure {}] [--deadline-ms N] [--edges FILE] [--load-graph FILE] [--save-graph FILE] [--serve-demo] [--serve ADDR] [--connect ADDR] [--graph NAME] [--catalog-dir DIR] [--fault-plan SPEC] [--chaos SEED] [--metrics] [--trace-out FILE]",
        Algorithm::all().map(|a| a.name()).join("|"),
        SupportMeasure::all().map(|m| m.name()).join("|")
    )
}

/// Parses the flags; `Ok(None)` means `--help` was requested (usage already
/// printed to stdout).
fn parse_cli() -> Result<Option<Cli>, String> {
    let mut cli = Cli {
        algo: Algorithm::SpiderMine,
        sigma: 2,
        k: 5,
        d_max: 8,
        seed: 7,
        threads: None,
        support_measure: None,
        deadline_ms: None,
        edges: None,
        load_graph: None,
        save_graph: None,
        serve_demo: false,
        serve: None,
        connect: None,
        graph: "gid-a".into(),
        catalog_dir: None,
        fault_plan: None,
        chaos: None,
        metrics: false,
        trace_out: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--algo" => {
                cli.algo = value("--algo")?
                    .parse::<Algorithm>()
                    .map_err(|e| e.to_string())?;
            }
            "--sigma" => {
                cli.sigma = value("--sigma")?
                    .parse()
                    .map_err(|e| format!("--sigma: {e}"))?;
            }
            "--k" => cli.k = value("--k")?.parse().map_err(|e| format!("--k: {e}"))?,
            "--dmax" => {
                cli.d_max = value("--dmax")?
                    .parse()
                    .map_err(|e| format!("--dmax: {e}"))?;
            }
            "--seed" => {
                cli.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--threads" => {
                cli.threads = Some(
                    value("--threads")?
                        .parse()
                        .map_err(|e| format!("--threads: {e}"))?,
                );
            }
            "--support-measure" => {
                cli.support_measure = Some(
                    value("--support-measure")?
                        .parse::<SupportMeasure>()
                        .map_err(|e| format!("--support-measure: {e}"))?,
                );
            }
            "--deadline-ms" => {
                cli.deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--edges" => cli.edges = Some(value("--edges")?),
            "--load-graph" => cli.load_graph = Some(value("--load-graph")?),
            "--save-graph" => cli.save_graph = Some(value("--save-graph")?),
            "--serve-demo" => cli.serve_demo = true,
            "--serve" => cli.serve = Some(value("--serve")?),
            "--connect" => cli.connect = Some(value("--connect")?),
            "--graph" => cli.graph = value("--graph")?,
            "--catalog-dir" => cli.catalog_dir = Some(value("--catalog-dir")?),
            "--fault-plan" => cli.fault_plan = Some(value("--fault-plan")?),
            "--metrics" => cli.metrics = true,
            "--trace-out" => cli.trace_out = Some(value("--trace-out")?),
            "--chaos" => {
                cli.chaos = Some(
                    value("--chaos")?
                        .parse()
                        .map_err(|e| format!("--chaos: {e}"))?,
                );
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return Ok(None);
            }
            other => return Err(format!("unknown flag {other} (try --help)")),
        }
    }
    Ok(Some(cli))
}

/// A synthetic single graph: Erdős–Rényi noise with two planted copies of a
/// 10-vertex pattern, like the paper's GID workloads at toy scale.
fn synthetic_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 400, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

/// A synthetic transaction database: each transaction carries one copy of a
/// shared pattern plus noise.
fn synthetic_database(seed: u64) -> GraphDatabase {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let pattern = generate::random_connected_pattern(&mut rng, 7, 20, 2);
    let mut db = GraphDatabase::default();
    for _ in 0..6 {
        let mut g = generate::erdos_renyi_average_degree(&mut rng, 50, 2.0, 20);
        generate::inject_pattern(&mut rng, &mut g, &pattern, 1, 2);
        db.push(g);
    }
    db
}

fn build_request(cli: &Cli) -> MineRequest {
    let mut request = MineRequest::new(cli.algo)
        .support_threshold(cli.sigma)
        .k(cli.k)
        .d_max(cli.d_max)
        .seed(cli.seed);
    if let Some(measure) = cli.support_measure {
        request = request.support_measure(measure);
    }
    if let Some(threads) = cli.threads {
        request = request.threads(threads);
    }
    if let Some(ms) = cli.deadline_ms {
        request = request.deadline_ms(ms);
    }
    request
}

/// The `--serve-demo` batch driver: a catalog with two registered graphs, a
/// burst of concurrent jobs (several identical, so the cache and the
/// single-flight gate do real work), then the metrics.
fn serve_demo(cli: &Cli) -> Result<(), String> {
    if cli.algo.wants_transactions() {
        return Err(format!(
            "--serve-demo serves single-graph snapshots; `{}` mines a transaction database",
            cli.algo
        ));
    }
    let service = MiningService::new(ServiceConfig {
        dispatchers: 4,
        ..ServiceConfig::default()
    });
    for (name, seed) in [("gid-a", cli.seed), ("gid-b", cli.seed + 1)] {
        let snapshot = service.catalog().register(name, synthetic_graph(seed));
        println!(
            "registered `{name}`: |V|={} |E|={} fingerprint={:#018x}",
            snapshot.graph().vertex_count(),
            snapshot.graph().edge_count(),
            snapshot.fingerprint()
        );
    }

    // Submit everything up front: per graph, three identical jobs (one mines,
    // two are deduplicated/cache-served) plus one distinct request.
    let mut handles = Vec::new();
    for name in ["gid-a", "gid-b"] {
        for _ in 0..3 {
            handles.push(
                service
                    .submit(name, build_request(cli))
                    .map_err(|e| e.to_string())?,
            );
        }
        handles.push(
            service
                .submit(name, build_request(cli).seed(cli.seed + 100))
                .map_err(|e| e.to_string())?,
        );
    }
    println!("submitted {} concurrent jobs", handles.len());
    for handle in &handles {
        let outcome = handle.wait().map_err(|e| e.to_string())?;
        let metrics = handle.metrics().expect("terminal job");
        let work = if metrics.from_cache {
            format!("cache-served in {:.1?}", metrics.cache_wait)
        } else {
            format!("mined in {:.1?}", metrics.run_time)
        };
        println!(
            "  job #{} on {}: {:?}, {} patterns, queued {:.1?}, {work}",
            handle.id(),
            handle.graph_name(),
            handle.status(),
            outcome.patterns.len(),
            metrics.queue_wait,
        );
    }

    let m = service.metrics();
    println!(
        "\nservice: {} completed / {} cancelled / {} failed / {} retries; queue wait total {:.1?}, run total {:.1?}",
        m.completed, m.cancelled, m.failed, m.retries, m.queue_wait_total, m.run_time_total
    );
    println!(
        "cache: {} hits / {} misses / {} evictions ({} resident)",
        m.cache.hits, m.cache.misses, m.cache.evictions, m.cache.entries
    );
    if cli.metrics {
        println!("\n# --metrics: telemetry registries (Prometheus text)");
        print!(
            "{}",
            telemetry::prometheus_text(&[
                service.registry().snapshot(),
                telemetry::global().snapshot(),
            ])
        );
    }
    Ok(())
}

/// The `--serve ADDR` mode: the service catalog behind the TCP wire
/// protocol, running until killed. With `--catalog-dir DIR`, the catalog is
/// restored from DIR's manifest when one exists (a warm restart: every graph
/// registers header-only and materializes on first use) and persisted to DIR
/// otherwise; without the flag, the synthetic `gid-a`/`gid-b` graphs of
/// `--serve-demo` are registered.
fn serve(cli: &Cli, addr: &str) -> Result<(), String> {
    let service = Arc::new(MiningService::new(ServiceConfig {
        dispatchers: 2,
        ..ServiceConfig::default()
    }));
    let manifest = cli
        .catalog_dir
        .as_ref()
        .map(|dir| std::path::Path::new(dir).join(spidermine_service::MANIFEST_FILE))
        .filter(|m| m.exists());
    if let (Some(dir), Some(_)) = (&cli.catalog_dir, &manifest) {
        let restored = service
            .catalog()
            .restore(dir)
            .map_err(|e| format!("--catalog-dir {dir}: {e}"))?;
        for name in &restored {
            let snapshot = service.catalog().get(name).expect("just restored");
            println!(
                "restored `{name}`: fingerprint={:#018x} (header-only, loads on first use)",
                snapshot.fingerprint()
            );
        }
    } else {
        for (name, seed) in [("gid-a", cli.seed), ("gid-b", cli.seed + 1)] {
            let snapshot = service.catalog().register(name, synthetic_graph(seed));
            println!(
                "registered `{name}`: |V|={} |E|={} fingerprint={:#018x}",
                snapshot.graph().vertex_count(),
                snapshot.graph().edge_count(),
                snapshot.fingerprint()
            );
        }
        if let Some(dir) = &cli.catalog_dir {
            service
                .catalog()
                .persist(dir)
                .map_err(|e| format!("--catalog-dir {dir}: {e}"))?;
            println!("persisted catalog to {dir} (next --serve restarts warm)");
        }
    }
    let mut server = MiningServer::bind(addr, service.clone(), TransportConfig::default())
        .map_err(|e| format!("--serve {addr}: {e}"))?;
    #[cfg(unix)]
    {
        sig::install();
        println!(
            "serving on {} (SIGTERM/SIGINT drains gracefully, {DRAIN_DEADLINE:?} deadline)",
            server.local_addr()
        );
        while !sig::terminated() {
            std::thread::sleep(Duration::from_millis(100));
        }
        println!("signal received: draining ({DRAIN_DEADLINE:?} deadline) ...");
        let server_clean = server.shutdown(DRAIN_DEADLINE);
        let service_clean = service.drain(DRAIN_DEADLINE);
        let m = service.metrics();
        println!(
            "drain complete: clean={} ({} completed, {} cancelled, {} failed, {} retries)",
            server_clean && service_clean,
            m.completed,
            m.cancelled,
            m.failed,
            m.retries
        );
        if cli.metrics {
            println!("\n# --metrics: telemetry registries (Prometheus text)");
            print!(
                "{}",
                telemetry::prometheus_text(&[
                    service.registry().snapshot(),
                    telemetry::global().snapshot(),
                ])
            );
        }
        Ok(())
    }
    #[cfg(not(unix))]
    {
        println!("serving on {}", server.local_addr());
        loop {
            std::thread::park();
        }
    }
}

/// The `--connect ADDR` mode: this invocation's request, mined remotely.
fn connect(cli: &Cli, addr: &str) -> Result<(), String> {
    if cli.algo.wants_transactions() {
        return Err(format!(
            "--connect serves single-graph snapshots; `{}` mines a transaction database",
            cli.algo
        ));
    }
    let policy = RetryPolicy {
        max_attempts: 40,
        base_delay: Duration::from_millis(250),
        ..RetryPolicy::default()
    };
    // With fault injection armed, run through the self-healing client: it
    // reconnects and resubmits across injected disconnects/corruption, and
    // its counters show what the chaos actually cost.
    if spidermine_faultline::armed() {
        let client = ResilientClient::connect(addr, "mine-cli", policy)
            .map_err(|e| format!("--connect {addr}: {e}"))?;
        let result = client
            .mine(&cli.graph, &build_request(cli))
            .map_err(|e| e.to_string())?;
        println!(
            "{}: {} patterns on `{}`{}",
            result.outcome.algorithm,
            result.outcome.patterns.len(),
            cli.graph,
            if result.outcome.timed_out {
                " (timed out, partial)"
            } else if result.outcome.cancelled {
                " (cancelled, partial)"
            } else {
                ""
            }
        );
        println!("cache-served: {}", result.from_cache);
        println!(
            "resilience: {} reconnects, {} resubmissions",
            client.reconnects(),
            client.retries()
        );
        if cli.metrics {
            let text = client.metrics_text().map_err(|e| e.to_string())?;
            println!("\n# --metrics: server telemetry registries (Prometheus text)");
            print!("{text}");
        }
        if let Some(path) = &cli.trace_out {
            let json = client.trace_json().map_err(|e| e.to_string())?;
            std::fs::write(path, &json).map_err(|e| format!("--trace-out {path}: {e}"))?;
            println!("wrote server trace ({} bytes) to {path}", json.len());
        }
        return Ok(());
    }
    let (client, attempts) = MiningClient::connect_with_policy(addr, "mine-cli", &policy)
        .map_err(|e| format!("--connect {addr}: {e}"))?;
    println!(
        "connected to {addr} after {attempts} attempt{} (per-client quota: {} in flight)",
        if attempts == 1 { "" } else { "s" },
        client.max_inflight()
    );
    let mut job = client
        .submit(&cli.graph, &build_request(cli))
        .map_err(|e| e.to_string())?;
    println!("job #{} accepted on `{}`", job.job_id(), cli.graph);
    let mut streamed = 0usize;
    for p in job.by_ref() {
        streamed += 1;
        println!(
            "  pattern #{streamed}: |V|={} |E|={} support={}",
            p.pattern.vertex_count(),
            p.pattern.edge_count(),
            p.support
        );
    }
    let result = job.outcome().map_err(|e| e.to_string())?;
    println!(
        "\n{}: {} patterns ({} streamed mid-run){}",
        result.outcome.algorithm,
        result.outcome.patterns.len(),
        streamed,
        if result.outcome.timed_out {
            " (timed out, partial)"
        } else if result.outcome.cancelled {
            " (cancelled, partial)"
        } else {
            ""
        }
    );
    println!("cache-served: {}", result.from_cache);
    let stats = client.stats().map_err(|e| e.to_string())?;
    println!(
        "server totals: {} completed ({} retries), cache {} hits / {} misses",
        stats.completed, stats.retries, stats.cache.hits, stats.cache.misses
    );
    if let Some((_, s)) = stats.clients.iter().find(|(n, _)| n == "mine-cli") {
        println!(
            "this client: {} accepted / {} rejected, {} patterns ({} bytes) streamed",
            s.accepted, s.rejected, s.patterns_streamed, s.bytes_streamed
        );
    }
    if cli.metrics {
        let text = client.metrics_text().map_err(|e| e.to_string())?;
        println!("\n# --metrics: server telemetry registries (Prometheus text)");
        print!("{text}");
    }
    if let Some(path) = &cli.trace_out {
        // The server's captured span tree for this (and every recent) job —
        // empty `[]` if the server runs with tracing disarmed.
        let json = client.trace_json().map_err(|e| e.to_string())?;
        std::fs::write(path, &json).map_err(|e| format!("--trace-out {path}: {e}"))?;
        println!("wrote server trace ({} bytes) to {path}", json.len());
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let Some(cli) = parse_cli()? else {
        return Ok(()); // --help
    };
    // Arm deterministic fault injection for the whole invocation. The guard
    // lives to the end of `run`, and the exit report shows exactly which of
    // the plan's rules fired — a chaotic run is replayable from its flag.
    let injector = match (&cli.fault_plan, cli.chaos) {
        (Some(_), Some(_)) => {
            return Err("--fault-plan and --chaos are mutually exclusive: pick one".into());
        }
        (Some(spec), None) => {
            let plan = FaultPlan::parse(spec).map_err(|e| format!("--fault-plan: {e}"))?;
            println!("fault injection armed: {plan}");
            Some(FaultInjector::install(&plan))
        }
        (None, Some(seed)) => {
            let plan = FaultPlan::random(seed);
            println!("fault injection armed (chaos seed {seed}): {plan}");
            Some(FaultInjector::install(&plan))
        }
        (None, None) => None,
    };
    // Arm the telemetry hooks when anything wants their events: span
    // capture for --trace-out, the flight recorder for fault-plan runs.
    if cli.trace_out.is_some() || injector.is_some() {
        telemetry::arm();
    }
    if cli.trace_out.is_some() {
        telemetry::start_capture();
    }
    let result = dispatch(&cli);
    if cli.metrics && cli.connect.is_none() && cli.serve.is_none() && !cli.serve_demo {
        // Local mine: only the process-global registry (engine, graph I/O)
        // has cells; service modes print their registry themselves.
        println!("\n# --metrics: telemetry registries (Prometheus text)");
        print!(
            "{}",
            telemetry::prometheus_text(&[telemetry::global().snapshot()])
        );
    }
    if let (Some(path), None) = (&cli.trace_out, &cli.connect) {
        // Connect mode fetched the server's trace instead.
        let json = telemetry::chrome_trace_json(&telemetry::take_capture());
        std::fs::write(path, &json).map_err(|e| format!("--trace-out {path}: {e}"))?;
        println!("wrote trace ({} bytes) to {path}", json.len());
    }
    if let Some(injector) = &injector {
        let fired = injector.fired();
        println!("\nfault injection report: {} rule(s) fired", fired.len());
        for fault in &fired {
            println!("  {fault}");
        }
        // The flight recorder was armed with the plan: its per-thread ring
        // of recent spans/faults/retries is the "what led up to it" record.
        println!("\nflight recorder dump:");
        print!("{}", telemetry::flight_dump());
    }
    result
}

fn dispatch(cli: &Cli) -> Result<(), String> {
    if cli.serve_demo {
        return serve_demo(cli);
    }
    if let Some(addr) = &cli.serve {
        return serve(cli, addr);
    }
    if let Some(addr) = &cli.connect {
        return connect(cli, addr);
    }
    let miner = build_request(cli)
        .build()
        .map_err(|e: MineError| e.to_string())?;

    // Assemble the source: a gSpan-format text file, a binary CSR snapshot,
    // or synthetic data matching what the algorithm mines.
    if cli.edges.is_some() && cli.load_graph.is_some() {
        return Err("--edges and --load-graph are mutually exclusive: pick one input".into());
    }
    let wants_db = cli.algo.wants_transactions();
    if cli.load_graph.is_some() && wants_db {
        return Err(format!(
            "--load-graph provides a single-graph snapshot; `{}` mines a transaction database",
            cli.algo
        ));
    }
    let loaded: Option<String> = match &cli.edges {
        Some(path) => Some(std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    let (single, db): (Option<LabeledGraph>, Option<GraphDatabase>) = match (&loaded, wants_db) {
        (Some(text), false) => (Some(io::read_graph(text).map_err(|e| e.to_string())?), None),
        (Some(text), true) => (
            None,
            Some(io::read_database(text).map_err(|e| e.to_string())?),
        ),
        (None, false) => match &cli.load_graph {
            Some(path) => (
                Some(io::load_snapshot(path, io::LoadMode::Mapped).map_err(|e| e.to_string())?),
                None,
            ),
            None => (Some(synthetic_graph(cli.seed)), None),
        },
        (None, true) => (None, Some(synthetic_database(cli.seed))),
    };

    if let Some(path) = &cli.save_graph {
        match &single {
            Some(g) => {
                io::save_snapshot(path, g).map_err(|e| e.to_string())?;
                let bytes = std::fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                println!(
                    "saved snapshot {path} ({bytes} bytes, fingerprint {:#018x})",
                    spidermine_graph::signature::graph_fingerprint(g)
                );
            }
            None => {
                return Err(format!(
                    "--save-graph persists a single-graph snapshot; `{}` mines a transaction database",
                    cli.algo
                ));
            }
        }
    }
    let source = match (&single, &db) {
        (Some(g), _) => {
            println!(
                "host: |V|={} |E|={} (single graph)",
                g.vertex_count(),
                g.edge_count()
            );
            GraphSource::Single(g)
        }
        (_, Some(d)) => {
            println!("host: {} transactions", d.len());
            GraphSource::Transactions(d)
        }
        _ => unreachable!("one source is always built"),
    };

    // Stream patterns and stage transitions as the run progresses.
    let mut streamed = 0usize;
    let mut ctx = MineContext::new()
        .on_progress(|e: &ProgressEvent| {
            if let ProgressEvent::StageStarted { stage } = e {
                println!("stage {stage} ...");
            }
        })
        .on_pattern(move |p| {
            streamed += 1;
            println!(
                "  pattern #{streamed}: |V|={} |E|={} support={}",
                p.pattern.vertex_count(),
                p.pattern.edge_count(),
                p.support
            );
        });

    let outcome = miner.mine(&source, &mut ctx).map_err(|e| e.to_string())?;

    println!(
        "\n{}: {} patterns, largest |E|={} |V|={}{}",
        outcome.algorithm,
        outcome.patterns.len(),
        outcome.largest_edges(),
        outcome.largest_vertices(),
        if outcome.timed_out {
            " (timed out, partial)"
        } else if outcome.cancelled {
            " (cancelled, partial)"
        } else {
            ""
        }
    );
    println!("per-stage timings ({} worker threads):", outcome.threads);
    for t in &outcome.stages {
        println!("  {:<18} {:>10.3?}", t.stage, t.elapsed);
    }
    println!("total: {:.3?}", outcome.total_time);
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::FAILURE
        }
    }
}
