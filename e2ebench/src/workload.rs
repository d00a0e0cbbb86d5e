//! The three workloads: their host graphs and request sequences, the
//! service stack they run against, and the closed-loop clients that drive
//! it.
//!
//! * `fresh-mine` — one in-process client submits SpiderMine requests with
//!   distinct seeds, so every one misses the cache and mines; after each it
//!   reads its result back [`REREADS`] times (in-process cache hits).
//! * `wire-hit` — one loopback client asks for the [`HIT_KS`] warmed keys:
//!   every request is a cache hit, so mining does no work.
//! * `wire-mixed` — two loopback clients send blocks of
//!   [`MIXED_EVERY`] − 1 hits followed by one fresh mine; every
//!   [`SHARED_EVERY`]-th fresh key is shared by both clients, which meet at a
//!   barrier first so one of them parks behind the other's mine.
//!
//! Host graphs are fixed (Barabási–Albert with one planted pattern, as the
//! criterion benches build them); the workload seed drives the request
//! seeds only, so run-to-run differences come from the request sequence,
//! not from a different graph.

use crate::check::{self, Contract};
use crate::stats::Samples;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::wire::encode_outcome_semantic;
use spidermine_engine::{Algorithm, MineOutcome, MineRequest, StageTiming};
use spidermine_graph::{generate, LabeledGraph};
use spidermine_service::{GraphCatalog, GraphSnapshot, MiningService, ServiceConfig};
use spidermine_transport::{MiningClient, MiningServer, TransportConfig};
use std::collections::HashSet;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Catalog name of the workload's host graph.
pub const GRAPH: &str = "host";
/// Support threshold σ of every request.
pub const SIGMA: usize = 2;
/// Diameter bound Dmax of every request.
pub const D_MAX: u32 = 6;
/// K of every fresh mine.
pub const FRESH_K: usize = 5;
/// K of the warmed keys: three keys show the per-request cost, one the
/// per-pattern cost. Three to one keeps the median inside the K = 1 mode
/// and the tail inside the K = 10 mode.
pub const HIT_KS: [usize; 4] = [1, 1, 1, 10];
/// `fresh-mine`: cache reads of its own result after each fresh mine, so
/// the workload reports `hit_*` as every workload reports every end-to-end
/// metric. The first read after a mine runs on cold caches (about 60 µs),
/// later ones warm (about 20 µs). With one read the hit p75 spread 0.35
/// across five seeds, over its bound of 0.25; with three, the median (in
/// the warm reads) and p75 (in the cold ones) spread 0.16 and 0.22 across
/// ten, and the mines still take all but a fraction of a percent of the
/// time.
const REREADS: usize = 3;
/// `wire-mixed`: one request in this many is a fresh mine.
const MIXED_EVERY: usize = 10;
/// `wire-mixed`: every this-many-th fresh key is shared by both clients.
const SHARED_EVERY: u64 = 3;
/// Requests a client sends on one connection before replacing it. The
/// server keeps one finished waiter thread per request until its
/// connection closes, so one long-lived connection at wire-hit rates runs
/// the process out of memory maps (about 30 000 requests on Linux's default
/// `vm.max_map_count`) and the server panics; the unjoined threads' stacks
/// also make peak memory depend on timing.
const RECONNECT_EVERY: usize = 100;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    FreshMine,
    WireHit,
    WireMixed,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "fresh-mine" => Some(Self::FreshMine),
            "wire-hit" => Some(Self::WireHit),
            "wire-mixed" => Some(Self::WireMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Self::FreshMine => "fresh-mine",
            Self::WireHit => "wire-hit",
            Self::WireMixed => "wire-mixed",
        }
    }

    /// Closed-loop clients. `wire-hit` has one: two saturate both cores
    /// with the wire path's threads, and its run-to-run spread under a
    /// busy host then exceeded every bound; `wire-mixed` keeps two, so mines
    /// and hits compete and shared keys park.
    pub fn clients(self) -> usize {
        match self {
            Self::FreshMine | Self::WireHit => 1,
            Self::WireMixed => 2,
        }
    }

    /// True for the workloads that go through the loopback transport.
    pub fn remote(self) -> bool {
        self != Self::FreshMine
    }

    /// The percentiles `mine_tail_ms` and `hit_tail_ms` report. Fixed per
    /// workload, so every run reports the same statistic, and each leaves
    /// at least ten samples beyond it in a full-length run. Hit tails stop
    /// at p95 (p75 for the microsecond in-process reads of `fresh-mine`):
    /// higher percentiles of such short requests mostly time the host's
    /// scheduling and drift by several times from run to run. `wire-hit`
    /// mines only to warm its cache, four mines per set-up and about twenty
    /// a run, so no percentile above the median leaves ten beyond it and
    /// its mine tail is the median.
    pub fn tail_percentiles(self) -> (f64, f64) {
        match self {
            Self::FreshMine => (75.0, 75.0),
            Self::WireHit => (50.0, 95.0),
            Self::WireMixed => (75.0, 95.0),
        }
    }
}

/// The host graph every workload mines, built as `bench_ba_graph` builds
/// its hosts: a Barabási–Albert graph with one planted pattern. 150
/// vertices (60 with `--smoke`), whose mines take 0.2–0.4 s on a 2-core
/// box, so a run completes enough of them for a steady median and a tail.
pub fn generate_host(smoke: bool) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(12345);
    let vertices = if smoke { 60 } else { 150 };
    let mut graph = generate::barabasi_albert(&mut rng, vertices, 3, 50);
    let pattern = generate::random_connected_pattern(&mut rng, 12, 50, 4);
    generate::inject_pattern(&mut rng, &mut graph, &pattern, 3, 2);
    graph
}

/// A SpiderMine request with the workload parameters. `threads` stays
/// unset, so each mine runs at the pool's width.
pub fn request(k: usize, seed: u64) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(SIGMA)
        .k(k)
        .d_max(D_MAX)
        .seed(seed)
}

/// SplitMix64 finaliser over a pair: the request seeds of a run.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The warmed keys every cache hit asks for. Fixed rather than drawn from
/// the workload seed: the warm mines and the bytes a hit streams then stay
/// the same from run to run, and the seed picks the order of requests.
pub fn hit_keys() -> Vec<MineRequest> {
    HIT_KS
        .iter()
        .enumerate()
        .map(|(i, &k)| request(k, HIT_LANE + i as u64))
        .collect()
}

/// Tags the hit-key choices apart from the fresh-key lanes.
const HIT_LANE: u64 = 0x4849_5400;

/// The request sequences of one workload seed.
#[derive(Clone, Copy, Debug)]
pub struct Keys {
    pub seed: u64,
}

impl Keys {
    /// Which warmed key request `n` of `client` in `phase` asks for.
    pub fn hit_index(self, phase: u64, client: u64, n: u64) -> usize {
        (mix(mix(mix(self.seed ^ HIT_LANE, phase), client), n) % HIT_KS.len() as u64) as usize
    }

    /// Fresh key number `n` of `lane` (a client, or the lane both clients
    /// share) in measurement phase `phase`.
    pub fn fresh(self, phase: u64, lane: u64, n: u64) -> MineRequest {
        request(FRESH_K, self.fresh_seed(phase, lane, n))
    }

    fn fresh_seed(self, phase: u64, lane: u64, n: u64) -> u64 {
        mix(mix(mix(self.seed, phase), lane), n)
    }

    /// A key every run of `workload` mines, with its K and seed: the first
    /// fresh key of phase 1, or the K = 10 warmed key of `wire-hit`.
    pub fn mined_key(self, workload: Workload) -> (MineRequest, usize, u64) {
        let (k, seed) = match workload {
            Workload::WireHit => (HIT_KS[HIT_KS.len() - 1], HIT_LANE + HIT_KS.len() as u64 - 1),
            _ => (FRESH_K, self.fresh_seed(1, 0, 0)),
        };
        (request(k, seed), k, seed)
    }
}

/// What a request returned.
pub struct Reply {
    pub outcome: Arc<MineOutcome>,
    pub trace: u64,
    pub from_cache: bool,
}

/// The in-process outcome of `request`.
pub fn lookup(service: &MiningService, request: &MineRequest) -> Result<Arc<MineOutcome>, String> {
    call_local(service, request).map(|reply| reply.outcome)
}

fn call_local(service: &MiningService, request: &MineRequest) -> Result<Reply, String> {
    let handle = service
        .submit(GRAPH, request.clone())
        .map_err(|e| format!("rejected: {e}"))?;
    let outcome = handle.wait().map_err(|e| format!("failed: {e}"))?;
    Ok(Reply {
        outcome,
        trace: handle.trace(),
        from_cache: handle.metrics().is_some_and(|m| m.from_cache),
    })
}

fn call_remote(client: &MiningClient, request: &MineRequest) -> Result<Reply, String> {
    let job = client
        .submit(GRAPH, request)
        .map_err(|e| format!("rejected: {e}"))?;
    let trace = job.trace();
    let remote = job.outcome().map_err(|e| format!("failed: {e}"))?;
    Ok(Reply {
        outcome: Arc::new(remote.outcome),
        trace,
        from_cache: remote.from_cache,
    })
}

/// One request's client-observed interval on the telemetry clock.
#[derive(Clone, Copy, Debug)]
pub struct Window {
    pub trace: u64,
    pub start: u64,
    pub end: u64,
}

/// Everything the clients of one measurement phase observed.
#[derive(Default)]
pub struct Log {
    /// Fresh-mine latencies, submit → `Done`, ms.
    pub mine: Samples,
    /// Cache-served latencies, ms.
    pub hit: Samples,
    pub attempted: u64,
    /// Requests that failed, were rejected, or returned a wrong output.
    pub failed: u64,
    pub errors: Vec<String>,
    /// Largest returned pattern per completed request, in edges, summed.
    pub edges_sum: u64,
    /// Patterns of checked fresh mines, and how many of them exceed Dmax.
    pub patterns_checked: u64,
    pub over_d_max: u64,
    /// Remote cache-hit latencies per warmed key, ms.
    pub hit_by_key: Vec<Samples>,
    /// Canonical keys of the fresh requests sent.
    pub fresh_keys: HashSet<String>,
    /// Stage timings of the fresh requests that mined (not parked ones).
    pub mine_stages: Vec<Vec<StageTiming>>,
    /// In-process lookups the checks made; the registry counts them as
    /// jobs and cache hits.
    pub lookups: u64,
    /// Per-request intervals, recorded only while tracing.
    pub windows: Vec<Window>,
    pub elapsed: Duration,
}

impl Log {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(why.into());
        }
    }

    pub fn absorb(&mut self, other: Log) {
        self.mine.extend(&other.mine);
        self.hit.extend(&other.hit);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
        self.edges_sum += other.edges_sum;
        self.patterns_checked += other.patterns_checked;
        self.over_d_max += other.over_d_max;
        self.hit_by_key.resize_with(
            self.hit_by_key.len().max(other.hit_by_key.len()),
            Samples::default,
        );
        for (mine, theirs) in self.hit_by_key.iter_mut().zip(&other.hit_by_key) {
            mine.extend(theirs);
        }
        self.fresh_keys.extend(other.fresh_keys);
        self.mine_stages.extend(other.mine_stages);
        self.lookups += other.lookups;
        self.windows.extend(other.windows);
    }

    /// Holds a fresh outcome to `contract`; false (and counted failed) if it
    /// breaks it.
    fn check_mine(
        &mut self,
        host: &LabeledGraph,
        outcome: &MineOutcome,
        contract: Contract,
    ) -> bool {
        match check::validate_mine(host, outcome, contract) {
            Ok(over) => {
                self.patterns_checked += outcome.patterns.len() as u64;
                self.over_d_max += over as u64;
                true
            }
            Err(why) => {
                self.fail(why);
                false
            }
        }
    }

    /// Sends one request, timing it; a failed request is counted and
    /// yields `None`.
    fn timed(
        &mut self,
        traced: bool,
        call: impl FnOnce() -> Result<Reply, String>,
    ) -> Option<(Reply, f64)> {
        self.attempted += 1;
        let start_nanos = if traced {
            spidermine_telemetry::now_nanos()
        } else {
            0
        };
        let started = Instant::now();
        let result = call();
        let ms = started.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(reply) => {
                if traced {
                    self.windows.push(Window {
                        trace: reply.trace,
                        start: start_nanos,
                        end: spidermine_telemetry::now_nanos(),
                    });
                }
                Some((reply, ms))
            }
            Err(why) => {
                self.fail(why);
                None
            }
        }
    }
}

/// Set-up cost, split by layer.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub generate_ms: f64,
    pub csr_ms: f64,
    pub restore_ms: f64,
    pub warm_ms: f64,
    pub total_s: f64,
}

/// A running service stack: catalog restored from disk, scheduler, and for
/// the wire workloads a loopback server with connected clients and a warm
/// cache.
pub struct Stack {
    pub workload: Workload,
    pub service: Arc<MiningService>,
    pub server: Option<MiningServer>,
    pub clients: Vec<MiningClient>,
    pub addr: Option<SocketAddr>,
    pub snapshot: Arc<GraphSnapshot>,
    pub hit_keys: Vec<MineRequest>,
    /// The in-process outcome of each hit key.
    pub references: Vec<Arc<MineOutcome>>,
    /// `encode_outcome_semantic` of each reference.
    pub reference_bytes: Vec<Vec<u8>>,
    /// The mines that warmed the cache.
    pub warm: Log,
}

impl Stack {
    pub fn host(&self) -> &LabeledGraph {
        self.snapshot.graph()
    }

    /// Stops the server and the clients.
    pub fn close(mut self) {
        self.clients.clear();
        if let Some(mut server) = self.server.take() {
            server.shutdown(Duration::from_secs(5));
        }
    }
}

fn fresh_contract() -> Contract {
    Contract {
        k: FRESH_K,
        sigma: SIGMA,
        d_max: D_MAX,
    }
}

/// Builds the workload's stack from nothing: generate the host, freeze its
/// CSR, persist it into `dir` and restore it into a new service's catalog,
/// bind the server and connect the clients, and warm the cache with the hit
/// keys (mined over the wire).
pub fn setup(workload: Workload, smoke: bool, dir: &Path) -> Result<(Stack, SetupTimes), String> {
    let started = Instant::now();
    let ms = |t: Instant| t.elapsed().as_secs_f64() * 1e3;
    let mut times = SetupTimes::default();

    let t = Instant::now();
    let graph = generate_host(smoke);
    times.generate_ms = ms(t);
    let t = Instant::now();
    graph.csr();
    times.csr_ms = ms(t);

    let staging = GraphCatalog::new();
    staging.register(GRAPH, graph);
    staging.persist(dir).map_err(|e| format!("persist: {e}"))?;
    let service = Arc::new(MiningService::new(ServiceConfig {
        queue_depth: 64,
        // One dispatcher per client: each client has one job in flight.
        dispatchers: workload.clients(),
        // Holds every key a run touches, so misses are fixed by the
        // request sequence.
        cache_capacity: 1 << 16,
        ..ServiceConfig::default()
    }));
    let t = Instant::now();
    service
        .catalog()
        .restore(dir)
        .map_err(|e| format!("restore: {e}"))?;
    let snapshot = service
        .catalog()
        .get(GRAPH)
        .ok_or("restored catalog lacks the host")?;
    snapshot.ensure_loaded().map_err(|e| format!("load: {e}"))?;
    times.restore_ms = ms(t);

    let (server, clients, addr) = if workload.remote() {
        let server = MiningServer::bind(
            "127.0.0.1:0",
            service.clone(),
            TransportConfig {
                max_connections: 16,
                max_inflight_per_client: 4,
                idle_timeout: None,
            },
        )
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr();
        let clients = (0..workload.clients())
            .map(|c| MiningClient::connect(addr, &format!("analyst-{c}")))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("connect: {e}"))?;
        (Some(server), clients, Some(addr))
    } else {
        (None, Vec::new(), None)
    };

    let mut stack = Stack {
        workload,
        service,
        server,
        clients,
        addr,
        snapshot,
        hit_keys: Vec::new(),
        references: Vec::new(),
        reference_bytes: Vec::new(),
        warm: Log::default(),
    };
    if workload.remote() {
        let t = Instant::now();
        stack.hit_keys = hit_keys();
        warm(&mut stack)?;
        times.warm_ms = ms(t);
    }
    times.total_s = started.elapsed().as_secs_f64();
    Ok((stack, times))
}

/// Mines the hit keys over the wire, one after another on the first
/// client so each warm mine has the cores to itself. Each key's in-process
/// outcome becomes its reference, and its warm mine is checked against it.
fn warm(stack: &mut Stack) -> Result<(), String> {
    for (key, &k) in stack.hit_keys.iter().zip(&HIT_KS) {
        let log = &mut stack.warm;
        log.fresh_keys.insert(key.canonical_key());
        let mined = log.timed(false, || call_remote(&stack.clients[0], key));
        let local = lookup(&stack.service, key).map_err(|e| format!("warm lookup {e}"))?;
        if let Some((reply, ms)) = mined {
            log.mine.push(ms);
            log.mine_stages.push(reply.outcome.stages.clone());
            let contract = Contract {
                k,
                ..fresh_contract()
            };
            if log.check_mine(stack.snapshot.graph(), &reply.outcome, contract)
                && !check::semantic_eq(&reply.outcome, &local)
            {
                log.fail("warm mine differs from the in-process outcome");
            }
        }
        stack.reference_bytes.push(encode_outcome_semantic(&local));
        stack.references.push(local);
    }
    Ok(())
}

/// A client's connection, replaced every [`RECONNECT_EVERY`] requests.
struct Conn {
    client: MiningClient,
    addr: SocketAddr,
    name: String,
    sent: usize,
}

impl Conn {
    fn new(stack: &Stack, c: usize) -> Self {
        Self {
            client: stack.clients[c].clone(),
            addr: stack.addr.expect("wire workloads have a server"),
            name: format!("analyst-{c}"),
            sent: 0,
        }
    }

    /// Replaces the connection once it has sent [`RECONNECT_EVERY`]
    /// requests. Called before a request's timer starts, so no request's
    /// latency includes a connect and handshake.
    fn refresh(&mut self) -> Result<(), String> {
        if self.sent == RECONNECT_EVERY {
            self.client = MiningClient::connect(self.addr, &self.name)
                .map_err(|e| format!("reconnect: {e}"))?;
            self.sent = 0;
        }
        Ok(())
    }

    fn call(&mut self, request: &MineRequest) -> Result<Reply, String> {
        self.sent += 1;
        call_remote(&self.client, request)
    }
}

/// One cache-served request for hit key `index`, checked byte for byte
/// under `encode_outcome_semantic` against its in-process outcome.
fn hit(stack: &Stack, conn: &mut Conn, index: usize, log: &mut Log, traced: bool) {
    let ready = conn.refresh();
    let Some((reply, ms)) = log.timed(traced, || {
        ready.and_then(|()| conn.call(&stack.hit_keys[index]))
    }) else {
        return;
    };
    let reference = &stack.references[index];
    if !reply.from_cache {
        log.fail("a warmed key was not served from the cache");
    } else if encode_outcome_semantic(&reply.outcome) != stack.reference_bytes[index] {
        log.fail("cache-served outcome differs from the in-process outcome");
    } else {
        log.hit.push(ms);
        log.edges_sum += reference.largest_edges() as u64;
        log.hit_by_key
            .resize_with(stack.hit_keys.len(), Samples::default);
        log.hit_by_key[index].push(ms);
    }
}

/// Runs the workload's clients for `budget` (the last requests may
/// overrun it; `Log::elapsed` is the real span). `phase` keeps fresh keys of
/// separate phases of one run distinct.
pub fn drive(stack: &Stack, keys: Keys, phase: u64, budget: Duration, traced: bool) -> Log {
    let started = Instant::now();
    let mut log = match stack.workload {
        Workload::FreshMine => fresh_mine(stack, keys, phase, budget, traced),
        Workload::WireHit => wire_hit(stack, keys, phase, budget, traced),
        Workload::WireMixed => wire_mixed(stack, keys, phase, budget, traced),
    };
    log.elapsed = started.elapsed();
    log
}

fn fresh_mine(stack: &Stack, keys: Keys, phase: u64, budget: Duration, traced: bool) -> Log {
    let mut log = Log::default();
    let started = Instant::now();
    let mut n = 0;
    while started.elapsed() < budget {
        let key = keys.fresh(phase, 0, n);
        n += 1;
        log.fresh_keys.insert(key.canonical_key());
        let Some((mined, ms)) = log.timed(traced, || call_local(&stack.service, &key)) else {
            continue;
        };
        if mined.from_cache {
            log.fail("a fresh key was served from the cache");
            continue;
        }
        if !log.check_mine(stack.host(), &mined.outcome, fresh_contract()) {
            continue;
        }
        let edges = mined.outcome.largest_edges() as u64;
        log.mine.push(ms);
        log.edges_sum += edges;
        log.mine_stages.push(mined.outcome.stages.clone());
        for _ in 0..REREADS {
            let Some((reread, ms)) = log.timed(traced, || call_local(&stack.service, &key)) else {
                continue;
            };
            if !reread.from_cache || !Arc::ptr_eq(&reread.outcome, &mined.outcome) {
                log.fail("a reread was not the cached outcome of its mine");
                continue;
            }
            log.hit.push(ms);
            log.edges_sum += edges;
        }
    }
    log
}

fn wire_hit(stack: &Stack, keys: Keys, phase: u64, budget: Duration, traced: bool) -> Log {
    let started = Instant::now();
    let mut log = Log::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..stack.clients.len())
            .map(|c| {
                scope.spawn(move || {
                    let mut log = Log::default();
                    let mut conn = Conn::new(stack, c);
                    let mut n = 0;
                    while started.elapsed() < budget {
                        hit(
                            stack,
                            &mut conn,
                            keys.hit_index(phase, c as u64, n),
                            &mut log,
                            traced,
                        );
                        n += 1;
                    }
                    log
                })
            })
            .collect();
        for worker in workers {
            log.absorb(worker.join().expect("wire-hit client"));
        }
    });
    log
}

fn wire_mixed(stack: &Stack, keys: Keys, phase: u64, budget: Duration, traced: bool) -> Log {
    let started = Instant::now();
    let barrier = Barrier::new(stack.clients.len());
    let stop = AtomicBool::new(false);
    let mut log = Log::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..stack.clients.len())
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                scope.spawn(move || {
                    let mut log = Log::default();
                    let mut conn = Conn::new(stack, c);
                    let mut n = 0;
                    let mut block = 0u64;
                    loop {
                        for _ in 1..MIXED_EVERY {
                            hit(
                                stack,
                                &mut conn,
                                keys.hit_index(phase, c as u64, n),
                                &mut log,
                                traced,
                            );
                            n += 1;
                        }
                        let shared = block % SHARED_EVERY == SHARED_EVERY - 1;
                        let lane = if shared { stack.clients.len() } else { c };
                        let key = keys.fresh(phase, lane as u64, block);
                        if shared {
                            barrier.wait();
                        }
                        log.fresh_keys.insert(key.canonical_key());
                        let ready = conn.refresh();
                        let sent = log.timed(traced, || ready.and_then(|()| conn.call(&key)));
                        if let Some((reply, ms)) = sent {
                            if log.check_mine(stack.host(), &reply.outcome, fresh_contract()) {
                                // The in-process outcome of the key: a cache
                                // hit, as the cache holds every key of a run.
                                log.lookups += 1;
                                match lookup(&stack.service, &key) {
                                    Ok(local) if check::semantic_eq(&reply.outcome, &local) => {
                                        log.mine.push(ms);
                                        log.edges_sum += reply.outcome.largest_edges() as u64;
                                        if !reply.from_cache {
                                            log.mine_stages.push(reply.outcome.stages.clone());
                                        }
                                    }
                                    Ok(_) => log.fail(
                                        "remote fresh outcome differs from the in-process outcome",
                                    ),
                                    Err(why) => log.fail(format!("in-process lookup {why}")),
                                }
                            }
                        }
                        block += 1;
                        // Both clients decide to stop at the same block
                        // boundary, so neither waits at a barrier alone.
                        if block.is_multiple_of(SHARED_EVERY) {
                            if barrier.wait().is_leader() {
                                stop.store(started.elapsed() >= budget, Ordering::Relaxed);
                            }
                            barrier.wait();
                            if stop.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        for worker in workers {
            log.absorb(worker.join().expect("wire-mixed client"));
        }
    });
    log
}
