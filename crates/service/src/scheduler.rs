//! The concurrent job scheduler.
//!
//! Jobs — a catalog graph name plus a validated
//! [`MineRequest`] — enter a bounded priority/FIFO queue
//! (admission control rejects submissions beyond the depth limit with a
//! typed [`ServiceError::QueueFull`]) and are executed by a small fixed set
//! of dispatcher threads. Each dispatcher consults the [`ResultCache`]
//! first (single-flight: identical concurrent jobs mine once — duplicates
//! are *parked*, not blocked on, so the dispatcher stays free for other
//! work and the leader serves them when it settles), then runs the engine,
//! which executes on the PR-4 work-stealing pool at the job's own `threads`
//! width and under its own `deadline_ms` budget.
//!
//! Every submission returns a [`JobHandle`] for status polling
//! ([`JobStatus`]), blocking [`JobHandle::wait`], and cancellation; the
//! scheduler accumulates service-wide [`ServiceMetrics`] (queue wait, run
//! time, patterns emitted, drops) alongside per-job [`JobMetrics`].

use crate::cache::{CacheKey, CacheLookup, CacheStats, PendingGuard, ResultCache};
use crate::catalog::{GraphCatalog, GraphSnapshot};
use crate::clients::{ClientRegistry, ClientStats};
use crate::error::ServiceError;
use spidermine_engine::{Engine, GraphSource, MineError, MineOutcome, MineRequest};
use spidermine_faultline::{self as faultline, RetryPolicy};
use spidermine_mining::context::{CancelToken, MineContext, StreamedPattern};
use spidermine_telemetry::{self as telemetry, Counter, Histogram, Registry};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of a [`JobScheduler`] (and of the
/// [`MiningService`](crate::MiningService) facade).
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Admission limit: jobs waiting to execute (queued in the FIFO lanes
    /// *plus* parked behind an in-flight identical run) beyond this bound
    /// are rejected with [`ServiceError::QueueFull`].
    pub queue_depth: usize,
    /// Dispatcher threads executing jobs. Each runs one job at a time; the
    /// job's own parallelism comes from its `threads` knob on the shared
    /// work-stealing pool.
    pub dispatchers: usize,
    /// Completed outcomes the result cache retains (LRU). 0 disables
    /// caching.
    pub cache_capacity: usize,
    /// Per-job width budget: requests asking for more worker threads than
    /// this are rejected at submission. `None` leaves the engine's own cap
    /// (`rayon::MAX_WORKERS`) as the only limit.
    pub max_threads_per_job: Option<usize>,
    /// Default retry policy for *transient* failures: snapshot-load I/O
    /// errors at admission and panicked engine runs at execution. Permanent
    /// failures (validation, unknown graph, engine errors, corruption) are
    /// never retried regardless of this policy. Per-job override via
    /// [`SubmitOptions::retry`]; retry counts land in [`JobMetrics::retries`]
    /// and [`ServiceMetrics::retries`].
    pub retry: RetryPolicy,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        Self {
            queue_depth: 64,
            dispatchers: 2,
            cache_capacity: 128,
            max_threads_per_job: None,
            retry: RetryPolicy::default(),
        }
    }
}

/// Scheduling priority of a job. Within one priority the queue is FIFO;
/// higher priorities dispatch first. (Deliberately not `Ord`: the variant
/// order is a lane index, and a derived ordering would rank `High` as the
/// *smallest* value — match on the variants instead.)
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Priority {
    /// Dispatched before everything else.
    High,
    /// The default.
    #[default]
    Normal,
    /// Dispatched only when nothing else waits.
    Low,
}

/// Callback invoked for every accepted pattern a job delivers, installed via
/// [`SubmitOptions::observer`]. For a freshly mined job it fires from the
/// dispatcher thread as the engine emits each pattern (the same push stream
/// [`MineContext::on_pattern`] carries in-process); for a cache-served job
/// the scheduler *replays* the cached outcome's patterns through it, in
/// outcome order, before the handle turns terminal. Either way the contract
/// is: the observer sees every pattern of the job's final outcome exactly
/// once, all before [`JobHandle::wait`] returns and before the
/// [`CompletionCallback`] fires. The order is the outcome's own for a replay
/// and for every algorithm that streams in result order; a freshly mined
/// outcome whose [`MineOutcome::stream_order`] is non-empty (SpiderMine
/// streams as it accepts, then ranks) says which observer call carried each
/// outcome pattern. This is what lets the remote transport stream patterns
/// incrementally over the wire without buffering the run, and send the
/// `Done` frame's order table without re-encoding a pattern.
pub type PatternObserver = Arc<dyn Fn(&StreamedPattern) + Send + Sync>;

/// One-shot callback installed via [`SubmitOptions::on_complete`]. The
/// scheduler calls it exactly once per admitted job, on the thread that
/// settles the job, right after the job turns terminal and its lock is
/// released — on every path: mined, cache hit, served behind a parked
/// single-flight leader, cancelled (while queued, mid-run, or by a drain or
/// deadline), failed, and after panic retries. It runs after the job's
/// last observer call, so anything the observer queued is ahead of what the
/// callback queues. The handle it receives is terminal: `wait()` returns
/// immediately. A rejected submission never calls it. Keep it short: it
/// runs on a dispatcher thread.
pub type CompletionCallback = Box<dyn FnOnce(&JobHandle) + Send>;

/// Per-submission options beyond the graph name and request.
#[derive(Default)]
pub struct SubmitOptions {
    /// Scheduling priority (lane). Defaults to [`Priority::Normal`].
    pub priority: Priority,
    /// Streaming observer; see [`PatternObserver`].
    pub observer: Option<PatternObserver>,
    /// Completion callback; see [`CompletionCallback`].
    pub on_complete: Option<CompletionCallback>,
    /// Client name this submission is attributed to in the per-client
    /// counters ([`JobScheduler::clients`]). `None` leaves the registry
    /// untouched.
    pub client: Option<String>,
    /// Per-job retry policy for transient failures, overriding
    /// [`ServiceConfig::retry`]. `None` uses the service default.
    pub retry: Option<RetryPolicy>,
    /// Telemetry trace id this job's spans belong to. `None` mints a fresh
    /// id at admission; the remote transport passes the id it received over
    /// the wire so client- and server-side spans land in one trace.
    pub trace: Option<u64>,
}

impl std::fmt::Debug for SubmitOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SubmitOptions")
            .field("priority", &self.priority)
            .field("observer", &self.observer.as_ref().map(|_| "Fn"))
            .field("on_complete", &self.on_complete.as_ref().map(|_| "FnOnce"))
            .field("client", &self.client)
            .field("retry", &self.retry)
            .field("trace", &self.trace)
            .finish()
    }
}

/// Lifecycle of a job.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum JobStatus {
    /// Accepted, waiting for a dispatcher.
    Queued,
    /// A dispatcher is executing it.
    Running,
    /// Finished with a complete outcome.
    Done,
    /// Wound down early — cancelled (or timed out) before or during the run.
    /// [`JobHandle::wait`] still returns the (possibly empty) partial
    /// outcome; cancellation is never an error.
    Cancelled,
    /// The engine returned an error (or panicked; the dispatcher catches the
    /// unwind); [`JobHandle::wait`] surfaces it as
    /// [`ServiceError::JobFailed`] / [`ServiceError::JobPanicked`].
    Failed,
}

impl JobStatus {
    /// True once the job will make no further progress.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

/// Per-job accounting, available once the job reaches a terminal status.
#[derive(Clone, Copy, Debug, Default)]
pub struct JobMetrics {
    /// Time spent queued before a dispatcher picked the job up.
    pub queue_wait: Duration,
    /// Wall-clock this job itself spent mining. Exactly zero for
    /// cache-served jobs — their cost lives in `cache_wait` — so summing
    /// `run_time` across jobs never double-counts a leader's mining time.
    pub run_time: Duration,
    /// Time spent in result-cache lookups (near zero — lookups never block;
    /// a job parked behind an identical in-flight run accrues that wait
    /// under `queue_wait` instead).
    pub cache_wait: Duration,
    /// Patterns in the outcome.
    pub patterns: usize,
    /// True if the outcome was served from the result cache (including
    /// being served by a concurrent identical job's single-flight leader).
    pub from_cache: bool,
    /// Execution retries this job consumed: how many times a transient
    /// failure (a panicked run) was retried under the job's
    /// [`RetryPolicy`] before the recorded terminal status. `0` for jobs
    /// that succeeded (or failed permanently) on the first attempt.
    pub retries: u32,
}

/// Service-wide counter snapshot, from [`JobScheduler::metrics`].
#[derive(Clone, Debug, Default)]
pub struct ServiceMetrics {
    /// Jobs accepted into the queue.
    pub submitted: u64,
    /// Submissions rejected by admission control (full queue, unknown graph,
    /// invalid request, shutdown).
    pub rejected: u64,
    /// Jobs finished with a complete outcome.
    pub completed: u64,
    /// Jobs cancelled or timed out (before or during the run).
    pub cancelled: u64,
    /// Jobs whose engine run errored.
    pub failed: u64,
    /// Total time jobs spent queued.
    pub queue_wait_total: Duration,
    /// Total execution wall-clock (cache hits contribute ~0).
    pub run_time_total: Duration,
    /// Patterns across all finished outcomes.
    pub patterns_emitted: u64,
    /// Merged-group embedding drops across all outcomes
    /// ([`MineOutcome::dropped_embeddings`]).
    pub embeddings_dropped: u64,
    /// Transient-failure retries across the service: snapshot-load retries
    /// at admission plus panicked-run retries at execution. A persistently
    /// climbing value under steady load means some dependency is flapping.
    pub retries: u64,
    /// Result-cache counters.
    pub cache: CacheStats,
    /// Jobs currently waiting to execute (queued + parked).
    pub queue_depth: usize,
    /// Per-client counters, sorted by client name. Populated only for
    /// submissions attributed via [`SubmitOptions::client`] (every remote
    /// transport submission is).
    pub clients: Vec<(String, ClientStats)>,
}

struct JobState {
    status: JobStatus,
    outcome: Option<Arc<MineOutcome>>,
    error: Option<ServiceError>,
    metrics: Option<JobMetrics>,
    /// Taken (and called) by `finish` when the job turns terminal.
    on_complete: Option<CompletionCallback>,
}

struct JobShared {
    id: u64,
    graph: String,
    /// Telemetry trace id every span of this job carries (0 = untraced).
    trace: u64,
    state: Mutex<JobState>,
    finished: Condvar,
    cancel: CancelToken,
}

/// Handle to a submitted job: status polling, blocking wait, cancellation,
/// per-job metrics. Cloneable; all clones observe the same job.
#[derive(Clone)]
pub struct JobHandle {
    shared: Arc<JobShared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.shared.id)
            .field("graph", &self.shared.graph)
            .field("status", &self.status())
            .finish()
    }
}

impl JobHandle {
    /// Service-unique job id (monotone submission order).
    pub fn id(&self) -> u64 {
        self.shared.id
    }

    /// The catalog graph this job mines.
    pub fn graph_name(&self) -> &str {
        &self.shared.graph
    }

    /// Telemetry trace id this job's spans carry. Stable for the job's
    /// lifetime; `0` only if the id was explicitly submitted as 0.
    pub fn trace(&self) -> u64 {
        self.shared.trace
    }

    /// Current lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.shared.state.lock().expect("job lock").status
    }

    /// Requests cooperative cancellation: a queued job is dropped when a
    /// dispatcher reaches it; a running job winds down and keeps its partial
    /// results. Idempotent.
    pub fn cancel(&self) {
        self.shared.cancel.fire();
    }

    /// Blocks until the job reaches a terminal status, then returns its
    /// outcome. `Done` and `Cancelled` both yield `Ok` (a cancelled or
    /// timed-out run's outcome is a valid partial result); only engine
    /// errors surface as `Err`.
    pub fn wait(&self) -> Result<Arc<MineOutcome>, ServiceError> {
        let mut state = self.shared.state.lock().expect("job lock");
        while !state.status.is_terminal() {
            state = self.shared.finished.wait(state).expect("job lock");
        }
        match state.status {
            JobStatus::Failed => Err(state.error.clone().expect("failed job records its error")),
            _ => Ok(state.outcome.clone().expect("terminal job has an outcome")),
        }
    }

    /// Like [`JobHandle::wait`] but gives up after `timeout`, returning
    /// `None` if the job is still in flight.
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<Arc<MineOutcome>, ServiceError>> {
        // A timeout too large to represent is an indefinite wait.
        let Some(deadline) = Instant::now().checked_add(timeout) else {
            return Some(self.wait());
        };
        let mut state = self.shared.state.lock().expect("job lock");
        while !state.status.is_terminal() {
            let left = deadline.checked_duration_since(Instant::now())?;
            let (guard, _) = self
                .shared
                .finished
                .wait_timeout(state, left)
                .expect("job lock");
            state = guard;
        }
        drop(state);
        Some(self.wait())
    }

    /// Per-job metrics; `None` until the job reaches a terminal status.
    pub fn metrics(&self) -> Option<JobMetrics> {
        self.shared.state.lock().expect("job lock").metrics
    }
}

struct QueuedJob {
    shared: Arc<JobShared>,
    snapshot: Arc<GraphSnapshot>,
    engine: Engine,
    key: CacheKey,
    submitted: Instant,
    observer: Option<PatternObserver>,
    retry: RetryPolicy,
    /// Root `job` span opened at admission, closed in `finish` (0 when
    /// tracing was disarmed at admission).
    root_span: u64,
    /// The currently open wait span (`queued` at admission, `parked` while
    /// behind a single-flight leader) and its name; a dispatcher closes it
    /// when it picks the job up.
    wait_span: u64,
    wait_name: &'static str,
}

#[derive(Default)]
struct JobQueues {
    /// One FIFO per [`Priority`], indexed by its discriminant order.
    lanes: [VecDeque<QueuedJob>; 3],
}

impl JobQueues {
    fn depth(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    fn pop(&mut self) -> Option<QueuedJob> {
        self.lanes.iter_mut().find_map(VecDeque::pop_front)
    }
}

/// Service-level metrics: telemetry counter cells, one per cache line
/// (dispatcher threads bump disjoint counters concurrently — submission
/// bumps `submitted` while completions bump `completed`/`run_time_us` — and
/// unpadded neighbors would false-share a line and serialize on
/// cache-coherence traffic). Resolved once from the per-service telemetry
/// [`Registry`] at construction, so [`ServiceMetrics`] snapshots and the
/// registry's Prometheus exposition read the *same* cells — there is no
/// second set of counts to drift.
struct Counters {
    submitted: Counter,
    rejected: Counter,
    completed: Counter,
    cancelled: Counter,
    failed: Counter,
    queue_wait_us: Counter,
    run_time_us: Counter,
    patterns: Counter,
    dropped: Counter,
    retries: Counter,
}

impl Counters {
    fn new(registry: &Registry) -> Self {
        Self {
            submitted: registry.counter("jobs_submitted_total"),
            rejected: registry.counter("jobs_rejected_total"),
            completed: registry.counter("jobs_completed_total"),
            cancelled: registry.counter("jobs_cancelled_total"),
            failed: registry.counter("jobs_failed_total"),
            queue_wait_us: registry.counter("queue_wait_micros_total"),
            run_time_us: registry.counter("run_time_micros_total"),
            patterns: registry.counter("patterns_emitted_total"),
            dropped: registry.counter("embeddings_dropped_total"),
            retries: registry.counter("retries_total"),
        }
    }
}

struct SchedulerCore {
    queues: Mutex<JobQueues>,
    available: Condvar,
    shutdown: AtomicBool,
    cache: ResultCache,
    /// Jobs parked behind an identical in-flight run, per cache key. The
    /// leader drains its key's list when it settles, so a dispatcher never
    /// blocks on single-flight deduplication. Invariant: a parked list only
    /// exists while the cache holds a pending marker for its key (enforced
    /// by re-checking `is_pending` under this lock before parking).
    parked: Mutex<HashMap<CacheKey, Vec<QueuedJob>>>,
    config: ServiceConfig,
    next_id: AtomicU64,
    counters: Counters,
    clients: ClientRegistry,
    /// Every admitted job, weakly: the graceful-drain path walks this to
    /// find what is still in flight (queued, parked, or running) and to
    /// fire cancel tokens at the deadline. Pruned opportunistically.
    live: Mutex<Vec<Weak<JobShared>>>,
    /// Per-service telemetry registry: the single source of truth behind
    /// [`ServiceMetrics`], the cache and per-client counters, and the
    /// Prometheus exposition the transport serves. Per-service (not
    /// process-global) so concurrently running services never aggregate
    /// into each other's snapshots.
    registry: Arc<Registry>,
    /// End-to-end job latency (queue wait + run/cache time), nanoseconds.
    job_total_nanos: Histogram,
}

impl SchedulerCore {
    fn new(config: ServiceConfig) -> Self {
        let registry = Arc::new(Registry::new());
        Self {
            queues: Mutex::new(JobQueues::default()),
            available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: ResultCache::with_registry(config.cache_capacity, &registry),
            parked: Mutex::new(HashMap::new()),
            config,
            next_id: AtomicU64::new(0),
            counters: Counters::new(&registry),
            clients: ClientRegistry::with_registry(registry.clone()),
            live: Mutex::new(Vec::new()),
            job_total_nanos: registry.histogram("job_total_nanos"),
            registry,
        }
    }
}

/// The scheduler: bounded admission, priority dispatch, cache-aware
/// execution. Owns its dispatcher threads; dropping it drains the queue and
/// joins them.
pub struct JobScheduler {
    catalog: Arc<GraphCatalog>,
    core: Arc<SchedulerCore>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for JobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobScheduler")
            .field("dispatchers", &self.workers.len())
            .field("metrics", &self.metrics())
            .finish()
    }
}

impl JobScheduler {
    /// Builds a scheduler over `catalog` and starts its dispatcher threads.
    pub fn new(catalog: Arc<GraphCatalog>, config: ServiceConfig) -> Self {
        let dispatchers = config.dispatchers.max(1);
        let core = Arc::new(SchedulerCore::new(config));
        let workers = (0..dispatchers)
            .map(|i| {
                let core = core.clone();
                std::thread::Builder::new()
                    .name(format!("mine-dispatch-{i}"))
                    .spawn(move || {
                        // A dispatcher dying is a service-level bug (miner
                        // panics are caught in run_job): dump the flight
                        // recorder's recent events before propagating, so the
                        // moments leading up to the crash are not lost.
                        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            dispatch_loop(&core)
                        }));
                        if let Err(panic) = run {
                            eprintln!("dispatcher panicked;\n{}", telemetry::flight_dump());
                            std::panic::resume_unwind(panic);
                        }
                    })
                    .expect("spawn dispatcher")
            })
            .collect();
        Self {
            catalog,
            core,
            workers,
        }
    }

    /// The catalog this scheduler resolves graph names against.
    pub fn catalog(&self) -> &Arc<GraphCatalog> {
        &self.catalog
    }

    /// Submits a job at [`Priority::Normal`].
    pub fn submit(&self, graph: &str, request: MineRequest) -> Result<JobHandle, ServiceError> {
        self.submit_with_priority(graph, request, Priority::Normal)
    }

    /// Submits `(graph name, request)` for execution. Admission control runs
    /// here, synchronously: unknown graph, transaction-database algorithms
    /// (the catalog serves single graphs), a `threads` ask above the service
    /// budget, request validation, shutdown, and the queue-depth limit all
    /// reject with a typed [`ServiceError`] instead of queueing a job that
    /// cannot run.
    pub fn submit_with_priority(
        &self,
        graph: &str,
        request: MineRequest,
        priority: Priority,
    ) -> Result<JobHandle, ServiceError> {
        self.submit_with_options(
            graph,
            request,
            SubmitOptions {
                priority,
                ..SubmitOptions::default()
            },
        )
    }

    /// Submits with full [`SubmitOptions`]: priority, a streaming
    /// [`PatternObserver`], and per-client attribution. This is the entry
    /// point the remote transport uses.
    pub fn submit_with_options(
        &self,
        graph: &str,
        request: MineRequest,
        options: SubmitOptions,
    ) -> Result<JobHandle, ServiceError> {
        let client = options.client.clone();
        let admitted = self.admit(graph, request, options);
        match (&admitted, client.as_deref()) {
            (Err(_), Some(client)) => {
                self.core.counters.rejected.inc();
                self.core.clients.record_rejected(client);
            }
            (Err(_), None) => {
                self.core.counters.rejected.inc();
            }
            (Ok(_), Some(client)) => self.core.clients.record_accepted(client),
            (Ok(_), None) => {}
        }
        admitted
    }

    /// The per-service telemetry registry behind [`JobScheduler::metrics`]:
    /// the same counter cells, plus latency histograms, in exposition-ready
    /// form. The transport serves `Metrics` frames from its snapshot.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.core.registry
    }

    /// Per-client counters (accepted/rejected/streamed). The transport
    /// records its edge-level rejections (quota, connection caps) here too,
    /// so one registry tells the whole per-tenant story.
    pub fn clients(&self) -> &ClientRegistry {
        &self.core.clients
    }

    fn admit(
        &self,
        graph: &str,
        request: MineRequest,
        options: SubmitOptions,
    ) -> Result<JobHandle, ServiceError> {
        if self.core.shutdown.load(Ordering::Acquire) {
            return Err(ServiceError::ShuttingDown);
        }
        let snapshot = self
            .catalog
            .get(graph)
            .ok_or_else(|| ServiceError::UnknownGraph(graph.to_owned()))?;
        if request.algorithm().wants_transactions() {
            return Err(ServiceError::InvalidRequest(MineError::UnsupportedSource {
                algorithm: request.algorithm(),
                expected: "a single labeled graph (the catalog serves single-graph snapshots)",
            }));
        }
        if let (Some(asked), Some(budget)) = (
            request.requested_threads(),
            self.core.config.max_threads_per_job,
        ) {
            if asked > budget {
                return Err(ServiceError::InvalidRequest(MineError::invalid(
                    "threads",
                    format!("must be at most {budget} (the service's per-job width budget)"),
                )));
            }
        }
        // Materialize file-backed snapshots here, so a corrupt or vanished
        // snapshot file surfaces as a typed admission error instead of a
        // dispatcher-side panic. For already-loaded graphs this is a single
        // atomic load. Transient I/O failures (the catalog leaves those
        // retryable, unlike permanent corruption) are retried under the
        // job's policy before the submission is rejected.
        let retry = options.retry.unwrap_or(self.core.config.retry);
        let mut load_attempts = 0u32;
        loop {
            match snapshot.ensure_loaded() {
                Ok(_) => break,
                Err(error) => {
                    load_attempts += 1;
                    if !error.is_transient() || !retry.should_retry(load_attempts) {
                        return Err(error);
                    }
                    self.core.counters.retries.inc();
                    telemetry::retry_event("snapshot_load_retry", 0, u64::from(load_attempts));
                    std::thread::sleep(retry.delay_for(load_attempts, snapshot.fingerprint()));
                }
            }
        }
        let key = CacheKey {
            graph: graph.to_owned(),
            fingerprint: snapshot.fingerprint(),
            request: request.canonical_key(),
        };
        let engine = request.build().map_err(ServiceError::InvalidRequest)?;

        // Mint (or adopt) the job's trace id here, at admission — every span
        // and instant of this job carries it. The id is minted even with
        // tracing disarmed (one relaxed fetch_add) so a job admitted before
        // arming still has a stable identity; the spans themselves are
        // no-ops until armed (`span_start` returns 0).
        let trace = options
            .trace
            .unwrap_or_else(spidermine_telemetry::next_trace_id);
        let shared = Arc::new(JobShared {
            id: self.core.next_id.fetch_add(1, Ordering::Relaxed),
            graph: graph.to_owned(),
            trace,
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                outcome: None,
                error: None,
                metrics: None,
                on_complete: options.on_complete,
            }),
            finished: Condvar::new(),
            cancel: CancelToken::new(),
        });
        let root_span = telemetry::span_start("job", trace, 0);
        let queued_span = telemetry::span_start("queued", trace, root_span);
        let job = QueuedJob {
            shared: shared.clone(),
            snapshot,
            engine,
            key,
            submitted: Instant::now(),
            observer: options.observer,
            retry,
            root_span,
            wait_span: queued_span,
            wait_name: "queued",
        };

        {
            // Parked duplicates count toward the admission bound: they hold
            // the same resources a queued job does, and under duplicate-heavy
            // load the FIFO lanes alone would stay near-empty while the
            // parked map grew without limit. Lock order: queues, then parked.
            let mut queues = self.core.queues.lock().expect("queue lock");
            let depth = queues.depth() + parked_depth(&self.core);
            if depth >= self.core.config.queue_depth {
                // Rejected after the spans opened: close them so the trace
                // stays balanced (a rejected submission is an empty job).
                telemetry::span_end("queued", trace, queued_span);
                telemetry::span_end("job", trace, root_span);
                return Err(ServiceError::QueueFull {
                    depth,
                    limit: self.core.config.queue_depth,
                });
            }
            queues.lanes[options.priority as usize].push_back(job);
        }
        telemetry::instant("admitted", trace, shared.id);
        {
            let mut live = self.core.live.lock().expect("live lock");
            if live.len() >= 256 {
                live.retain(|w| {
                    w.upgrade()
                        .is_some_and(|s| !s.state.lock().expect("job lock").status.is_terminal())
                });
            }
            live.push(Arc::downgrade(&shared));
        }
        self.core.counters.submitted.inc();
        self.core.available.notify_one();
        Ok(JobHandle { shared })
    }

    /// Service-wide counter snapshot, read from the telemetry registry's
    /// cells (the same cells [`JobScheduler::registry`] exposes).
    pub fn metrics(&self) -> ServiceMetrics {
        let c = &self.core.counters;
        ServiceMetrics {
            submitted: c.submitted.get(),
            rejected: c.rejected.get(),
            completed: c.completed.get(),
            cancelled: c.cancelled.get(),
            failed: c.failed.get(),
            queue_wait_total: Duration::from_micros(c.queue_wait_us.get()),
            run_time_total: Duration::from_micros(c.run_time_us.get()),
            patterns_emitted: c.patterns.get(),
            embeddings_dropped: c.dropped.get(),
            retries: c.retries.get(),
            cache: self.core.cache.stats(),
            queue_depth: self.queue_depth(),
            clients: self.core.clients.snapshot(),
        }
    }

    /// Jobs currently waiting to execute: queued in the FIFO lanes plus
    /// parked behind an in-flight identical run. Both count toward the
    /// admission bound.
    pub fn queue_depth(&self) -> usize {
        let queued = self.core.queues.lock().expect("queue lock").depth();
        queued + parked_depth(&self.core)
    }

    /// Drops every completed entry from the result cache.
    pub fn clear_cache(&self) {
        self.core.cache.clear();
    }

    /// Graceful drain: stops accepting submissions, gives in-flight work
    /// (queued, parked, and running jobs) until `deadline` to finish, then
    /// fires the cancel token of everything still live and waits for the
    /// cooperative wind-down to settle. Returns `true` if every job
    /// finished on its own (no forced cancellation).
    ///
    /// Every waiter resolves: running jobs settle `Done`, `Failed`, or —
    /// after a forced cancel — `Cancelled` with a valid partial outcome;
    /// queued jobs whose token fired resolve `Cancelled` when a dispatcher
    /// reaches them; parked duplicates are drained by their leader and,
    /// with their tokens fired, resolve `Cancelled` instead of re-mining.
    /// Takes `&self` so a shared scheduler (e.g. behind the transport
    /// server) can be drained; the dispatcher threads themselves are joined
    /// later by [`JobScheduler::shutdown`] / drop.
    pub fn drain(&self, deadline: Duration) -> bool {
        const POLL: Duration = Duration::from_millis(2);
        self.core.shutdown.store(true, Ordering::Release);
        self.core.available.notify_all();
        let deadline_at = Instant::now() + deadline;
        loop {
            if live_jobs(&self.core).is_empty() {
                return true;
            }
            if Instant::now() >= deadline_at {
                break;
            }
            std::thread::sleep(POLL);
        }
        let stragglers = live_jobs(&self.core);
        let clean = stragglers.is_empty();
        if !clean && telemetry::armed() {
            // A missed drain deadline is exactly when "what was the service
            // doing?" matters: dump the flight recorder before forcing
            // cancellation destroys the evidence.
            eprintln!(
                "drain deadline missed with {} job(s) live;\n{}",
                stragglers.len(),
                telemetry::flight_dump()
            );
        }
        for job in &stragglers {
            job.cancel.fire();
        }
        // Cancellation is cooperative but prompt: queued jobs resolve when a
        // dispatcher pops them, running jobs at their next cancel poll.
        while !live_jobs(&self.core).is_empty() {
            std::thread::sleep(POLL);
        }
        clean
    }

    /// Stops accepting submissions, lets the dispatchers drain the queue,
    /// and joins them. Called automatically on drop.
    pub fn shutdown(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.available.notify_all();
        for worker in self.workers.drain(..) {
            // A dispatcher cannot normally panic (miner panics are caught in
            // run_job), but never turn a stray unwind into a panic-in-drop.
            let _ = worker.join();
        }
    }
}

impl Drop for JobScheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn dispatch_loop(core: &SchedulerCore) {
    loop {
        let job = {
            let mut queues = core.queues.lock().expect("queue lock");
            loop {
                if let Some(job) = queues.pop() {
                    break job;
                }
                if core.shutdown.load(Ordering::Acquire) {
                    return;
                }
                queues = core.available.wait(queues).expect("queue lock");
            }
        };
        run_job(core, job);
    }
}

/// Executes one dequeued (or drained-from-parked) job: cancellation check,
/// cache single-flight, engine run, bookkeeping. A job behind an identical
/// in-flight run is *parked* — the dispatcher moves on instead of blocking —
/// and re-enters here when the leader drains it.
fn run_job(core: &SchedulerCore, mut job: QueuedJob) {
    // Submission-to-execution wait (for a parked job: including the parked
    // period). Recorded once, in `finish`.
    let queue_wait = job.submitted.elapsed();

    // A dispatcher has the job: close whichever wait span is open (`queued`
    // from admission, or `parked` from a single-flight park below).
    telemetry::span_end(job.wait_name, job.shared.trace, job.wait_span);
    job.wait_span = 0;

    // Cancelled while queued/parked: synthesize an empty partial outcome so
    // waiters get `Ok` (cancellation is never an error), skip mining.
    if job.shared.cancel.is_cancelled() {
        let outcome = Arc::new(empty_cancelled_outcome(&job));
        let metrics = JobMetrics {
            queue_wait,
            ..JobMetrics::default()
        };
        finish(
            core,
            &job,
            JobStatus::Cancelled,
            Some(outcome),
            None,
            metrics,
        );
        return;
    }

    set_status(&job.shared, JobStatus::Running);
    let started = Instant::now();
    loop {
        match core.cache.begin(&job.key) {
            CacheLookup::Hit(outcome) => {
                telemetry::instant("cache_hit", job.shared.trace, job.shared.id);
                // A cache-served job never ran, so its observer saw nothing:
                // replay the cached outcome's patterns through it (in outcome
                // order) before the handle turns terminal, upholding the
                // observer contract a freshly mined job satisfies live.
                if let Some(observer) = &job.observer {
                    for pattern in &outcome.patterns {
                        observer(pattern);
                    }
                }
                // `cache_wait`, not `run_time`: the mining wall-clock belongs
                // to the leader that produced the entry, so summing per-job
                // run_time never double-counts it.
                let metrics = JobMetrics {
                    queue_wait: job.submitted.elapsed(),
                    run_time: Duration::ZERO,
                    cache_wait: started.elapsed(),
                    patterns: outcome.patterns.len(),
                    from_cache: true,
                    retries: 0,
                };
                finish(core, &job, JobStatus::Done, Some(outcome), None, metrics);
                return;
            }
            CacheLookup::InFlight => {
                // Park behind the in-flight identical run; the leader drains
                // us when it settles. Re-check the pending marker under the
                // parking lock: if the leader settled between the lookup and
                // here, it has already drained (or will find nothing), so
                // retry the lookup instead of parking forever.
                let mut parked = core.parked.lock().expect("parked lock");
                if core.cache.is_pending(&job.key) {
                    set_status(&job.shared, JobStatus::Queued);
                    job.wait_span =
                        telemetry::span_start("parked", job.shared.trace, job.root_span);
                    job.wait_name = "parked";
                    parked.entry(job.key.clone()).or_default().push(job);
                    return;
                }
                drop(parked);
                continue;
            }
            CacheLookup::Leader => {
                lead_job(core, &job, started);
                // Serve (or promote) everything that parked behind this run.
                drain_parked(core, &job.key);
                return;
            }
        }
    }
}

/// The leader path: mine under a pending-marker guard, file or withdraw the
/// cache entry, finish the job. A panicking miner is caught: the guard frees
/// the key and the job lands Failed instead of stranding `wait()` callers
/// and killing the dispatcher thread — and, because a panic is the one
/// execution failure classified *transient* (a poisoned run, not a wrong
/// request), it is retried under the job's [`RetryPolicy`] before Failed is
/// recorded. Engine errors are permanent and never retried.
fn lead_job(core: &SchedulerCore, job: &QueuedJob, started: Instant) {
    let guard = PendingGuard::new(&core.cache, &job.key);
    let mut retries = 0u32;
    let streamed = Arc::new(AtomicU64::new(0));
    let result = loop {
        // One `running` span per attempt, closed *after* catch_unwind so a
        // panicking run still balances its span tree; the mining stage
        // spans nest under it via the context's trace identity.
        let running_span = telemetry::span_start("running", job.shared.trace, job.root_span);
        let attempt = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if faultline::check(faultline::FaultSite::ExecRun) == Some(faultline::FaultKind::Panic)
            {
                panic!("injected execution fault");
            }
            let mut ctx = MineContext::with_cancel(job.shared.cancel.clone())
                .with_trace(job.shared.trace, running_span);
            if let Some(observer) = job.observer.clone() {
                let streamed = streamed.clone();
                ctx = ctx.on_pattern(move |pattern| {
                    streamed.fetch_add(1, Ordering::Relaxed);
                    observer(&pattern);
                });
            }
            job.engine
                .mine(&GraphSource::Single(job.snapshot.graph()), &mut ctx)
        }));
        telemetry::span_end("running", job.shared.trace, running_span);
        match attempt {
            Err(_)
                if !job.shared.cancel.is_cancelled()
                    && job.retry.should_retry(retries + 1)
                    && streamed.load(Ordering::Relaxed) == 0 =>
            {
                // Retry only while the observer has seen nothing: a run that
                // panicked after streaming patterns cannot be restarted
                // without double-delivering them (the observer contract is
                // exactly-once), so those land Failed on the first panic.
                retries += 1;
                core.counters.retries.inc();
                telemetry::retry_event("exec_panic_retry", job.shared.trace, u64::from(retries));
                std::thread::sleep(job.retry.delay_for(retries, job.shared.id));
            }
            other => break other,
        }
    };
    let run_time = started.elapsed();
    core.counters.run_time_us.add(run_time.as_micros() as u64);
    let metrics = JobMetrics {
        queue_wait: job.submitted.elapsed() - run_time,
        run_time,
        cache_wait: Duration::ZERO,
        patterns: 0,
        from_cache: false,
        retries,
    };
    match result {
        Ok(Ok(outcome)) => {
            let outcome = Arc::new(outcome);
            let status = if outcome.cancelled {
                // Partial results are valid but must not be cached.
                guard.abort();
                JobStatus::Cancelled
            } else {
                guard.complete(outcome.clone());
                JobStatus::Done
            };
            let metrics = JobMetrics {
                patterns: outcome.patterns.len(),
                ..metrics
            };
            finish(core, job, status, Some(outcome), None, metrics);
        }
        Ok(Err(error)) => {
            guard.abort();
            if job.shared.cancel.is_cancelled() {
                // The token fired while the run was winding down (a client
                // disconnect, an expired deadline): the error is a casualty
                // of the cancellation, not a failure of the job. Attribute
                // it as cancelled so disconnect storms don't read as a
                // failing service — waiters get an empty partial outcome.
                let outcome = Arc::new(empty_cancelled_outcome(job));
                finish(
                    core,
                    job,
                    JobStatus::Cancelled,
                    Some(outcome),
                    None,
                    metrics,
                );
            } else {
                let error = ServiceError::JobFailed(error);
                finish(core, job, JobStatus::Failed, None, Some(error), metrics);
            }
        }
        Err(panic) => {
            guard.abort();
            if job.shared.cancel.is_cancelled() {
                // Same attribution rule as the error arm: a panic during a
                // cancelled wind-down records as cancelled, not failed.
                let outcome = Arc::new(empty_cancelled_outcome(job));
                finish(
                    core,
                    job,
                    JobStatus::Cancelled,
                    Some(outcome),
                    None,
                    metrics,
                );
            } else {
                let message = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-string panic payload".to_owned());
                let error = ServiceError::JobPanicked(message);
                finish(core, job, JobStatus::Failed, None, Some(error), metrics);
            }
        }
    }
}

/// Admitted jobs that have not reached a terminal status, pruning dead and
/// settled entries from the registry on the way.
fn live_jobs(core: &SchedulerCore) -> Vec<Arc<JobShared>> {
    let mut live = core.live.lock().expect("live lock");
    live.retain(|w| {
        w.upgrade()
            .is_some_and(|s| !s.state.lock().expect("job lock").status.is_terminal())
    });
    live.iter().filter_map(Weak::upgrade).collect()
}

/// Jobs currently parked behind in-flight runs.
fn parked_depth(core: &SchedulerCore) -> usize {
    core.parked
        .lock()
        .expect("parked lock")
        .values()
        .map(Vec::len)
        .sum()
}

/// Runs every job parked behind `key`, after its leader settled. On a
/// completed leader they all hit the fresh entry; on an aborted one the
/// first becomes the new leader (mining on this dispatcher) and the rest
/// re-park behind it via the normal `run_job` path.
fn drain_parked(core: &SchedulerCore, key: &CacheKey) {
    let drained = core.parked.lock().expect("parked lock").remove(key);
    if let Some(jobs) = drained {
        for parked in jobs {
            run_job(core, parked);
        }
    }
}

fn empty_cancelled_outcome(job: &QueuedJob) -> MineOutcome {
    MineOutcome {
        algorithm: job.engine.algorithm(),
        patterns: Vec::new(),
        stream_order: Vec::new(),
        cancelled: true,
        timed_out: false,
        stages: Vec::new(),
        total_time: Duration::ZERO,
        threads: 1,
        dropped_embeddings: 0,
    }
}

fn set_status(shared: &JobShared, status: JobStatus) {
    shared.state.lock().expect("job lock").status = status;
}

fn finish(
    core: &SchedulerCore,
    job: &QueuedJob,
    status: JobStatus,
    outcome: Option<Arc<MineOutcome>>,
    error: Option<ServiceError>,
    metrics: JobMetrics,
) {
    let (counter, terminal) = match status {
        JobStatus::Done => (&core.counters.completed, "job_done"),
        JobStatus::Cancelled => (&core.counters.cancelled, "job_cancelled"),
        JobStatus::Failed => (&core.counters.failed, "job_failed"),
        JobStatus::Queued | JobStatus::Running => unreachable!("finish takes a terminal status"),
    };
    counter.inc();
    core.counters
        .queue_wait_us
        .add(metrics.queue_wait.as_micros() as u64);
    if let Some(outcome) = &outcome {
        core.counters.patterns.add(outcome.patterns.len() as u64);
        core.counters.dropped.add(outcome.dropped_embeddings as u64);
        // Stage timings → per-stage latency histograms, only for the run
        // that actually mined: cache-served jobs share the leader's outcome,
        // and replaying its stage timings once per hit would inflate the
        // distributions. The name lookup allocates, but `finish` runs once
        // per job, off the mining hot path.
        if !metrics.from_cache {
            for stage in &outcome.stages {
                core.registry
                    .histogram(&format!("stage_nanos{{stage=\"{}\"}}", stage.stage))
                    .observe_duration(stage.elapsed);
            }
        }
    }
    core.job_total_nanos
        .observe_duration(metrics.queue_wait + metrics.run_time + metrics.cache_wait);
    telemetry::instant(terminal, job.shared.trace, job.shared.id);
    telemetry::span_end("job", job.shared.trace, job.root_span);
    let mut state = job.shared.state.lock().expect("job lock");
    state.status = status;
    state.outcome = outcome;
    state.error = error;
    state.metrics = Some(metrics);
    let on_complete = state.on_complete.take();
    drop(state);
    job.shared.finished.notify_all();
    if let Some(on_complete) = on_complete {
        on_complete(&JobHandle {
            shared: job.shared.clone(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_engine::Algorithm;
    use spidermine_graph::{Label, LabeledGraph};

    fn toy_graph() -> LabeledGraph {
        // Two labeled paths 0-1-2 plus noise, small enough to mine instantly.
        LabeledGraph::from_parts(
            &[
                Label(0),
                Label(1),
                Label(2),
                Label(0),
                Label(1),
                Label(2),
                Label(9),
            ],
            &[(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)],
        )
    }

    fn scheduler(config: ServiceConfig) -> JobScheduler {
        let catalog = Arc::new(GraphCatalog::new());
        catalog.register("toy", toy_graph());
        JobScheduler::new(catalog, config)
    }

    fn request() -> MineRequest {
        MineRequest::new(Algorithm::Moss).support_threshold(2)
    }

    #[test]
    fn submit_wait_roundtrip_and_cache_hit() {
        let s = scheduler(ServiceConfig::default());
        let a = s.submit("toy", request()).expect("submit");
        let first = a.wait().expect("mine");
        assert!(!first.patterns.is_empty());
        assert_eq!(a.status(), JobStatus::Done);
        let am = a.metrics().expect("terminal");
        assert!(!am.from_cache, "first job mines");

        let b = s.submit("toy", request()).expect("submit");
        let second = b.wait().expect("mine");
        assert!(Arc::ptr_eq(&first, &second), "served from cache");
        assert!(b.metrics().expect("terminal").from_cache);
        let m = s.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.cache.hits, 1);
        assert_eq!(m.cache.misses, 1);
    }

    #[test]
    fn unknown_graph_and_transaction_algorithms_are_rejected() {
        let s = scheduler(ServiceConfig::default());
        assert!(matches!(
            s.submit("ghost", request()),
            Err(ServiceError::UnknownGraph(_))
        ));
        assert!(matches!(
            s.submit("toy", MineRequest::new(Algorithm::Origami)),
            Err(ServiceError::InvalidRequest(
                MineError::UnsupportedSource { .. }
            ))
        ));
        assert_eq!(s.metrics().rejected, 2);
    }

    #[test]
    fn invalid_request_is_rejected_naming_the_field() {
        let s = scheduler(ServiceConfig::default());
        match s.submit("toy", request().deadline_ms(0)) {
            Err(ServiceError::InvalidRequest(e)) => assert_eq!(e.field(), Some("deadline_ms")),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
    }

    #[test]
    fn width_budget_is_enforced() {
        let s = scheduler(ServiceConfig {
            max_threads_per_job: Some(2),
            ..ServiceConfig::default()
        });
        match s.submit("toy", request().threads(4)) {
            Err(ServiceError::InvalidRequest(e)) => assert_eq!(e.field(), Some("threads")),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        s.submit("toy", request().threads(2))
            .expect("within budget")
            .wait()
            .expect("mine");
    }

    #[test]
    fn queue_full_is_a_typed_rejection() {
        // No dispatchers can drain fast enough to matter: fill the queue
        // while holding the only dispatcher busy with a deliberately slow
        // job... simpler: depth 0 rejects immediately.
        let s = scheduler(ServiceConfig {
            queue_depth: 0,
            ..ServiceConfig::default()
        });
        assert!(matches!(
            s.submit("toy", request()),
            Err(ServiceError::QueueFull { depth: 0, limit: 0 })
        ));
    }

    #[test]
    fn cancelling_a_queued_job_yields_empty_partial_outcome() {
        use rand::SeedableRng;
        let catalog = Arc::new(GraphCatalog::new());
        catalog.register("toy", toy_graph());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(3);
        catalog.register(
            "slow",
            spidermine_graph::generate::erdos_renyi_average_degree(&mut rng, 60, 2.5, 4),
        );
        // One dispatcher, occupied by a slower job: the target job is still
        // queued when we cancel it, so the pre-run check drops it unmined.
        let s = JobScheduler::new(
            catalog,
            ServiceConfig {
                dispatchers: 1,
                ..ServiceConfig::default()
            },
        );
        let blocker = s
            .submit("slow", MineRequest::new(Algorithm::SpiderMine).k(3))
            .expect("submit");
        let h = s.submit("toy", request()).expect("submit");
        h.cancel();
        let outcome = h.wait().expect("cancellation is not an error");
        assert!(outcome.cancelled);
        assert!(outcome.patterns.is_empty());
        assert_eq!(h.status(), JobStatus::Cancelled);
        blocker.wait().expect("blocker unaffected");
        assert_eq!(s.metrics().cancelled, 1);
    }

    #[test]
    fn shutdown_drains_then_rejects() {
        let mut s = scheduler(ServiceConfig::default());
        let h = s.submit("toy", request()).expect("submit");
        s.shutdown();
        assert!(h.status().is_terminal(), "queued work drained");
        assert!(matches!(
            s.submit("toy", request()),
            Err(ServiceError::ShuttingDown)
        ));
    }

    #[test]
    fn wait_timeout_returns_none_while_running() {
        let s = scheduler(ServiceConfig::default());
        let h = s.submit("toy", request()).expect("submit");
        // Either it finished already (Some) or not (None) — both fine; the
        // point is that a terminal job always reports Some immediately.
        let _ = h.wait_timeout(Duration::from_millis(1));
        h.wait().expect("mine");
        assert!(h.wait_timeout(Duration::ZERO).is_some());
    }

    #[test]
    fn duplicate_jobs_park_instead_of_blocking_a_dispatcher() {
        use rand::SeedableRng;
        let catalog = Arc::new(GraphCatalog::new());
        catalog.register("toy", toy_graph());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        catalog.register(
            "slow",
            spidermine_graph::generate::erdos_renyi_average_degree(&mut rng, 80, 2.5, 4),
        );
        let s = JobScheduler::new(
            catalog,
            ServiceConfig {
                dispatchers: 2,
                ..ServiceConfig::default()
            },
        );
        let slow_request = || MineRequest::new(Algorithm::SpiderMine).k(3).seed(1);
        // Two identical slow jobs: one leads on dispatcher 1, the duplicate
        // parks (freeing dispatcher 2) instead of idling behind the leader.
        let leader = s.submit("slow", slow_request()).expect("submit");
        let duplicate = s.submit("slow", slow_request()).expect("submit");
        // A distinct fast job must complete while the slow leader still runs
        // — the whole point of parking. (The leader takes seconds; the toy
        // job takes milliseconds, so this ordering is robust.)
        let fast = s.submit("toy", request()).expect("submit");
        fast.wait().expect("fast job mines immediately");
        assert!(
            !leader.status().is_terminal(),
            "fast job should finish while the slow leader is still mining"
        );
        assert!(!leader.wait().expect("leader mines").cancelled);
        assert!(!duplicate.wait().expect("duplicate served").cancelled);
        // Either of the identical pair may have won the leader role; exactly
        // one mined, the other was drained from its cache entry.
        let cache_served = [&leader, &duplicate]
            .iter()
            .filter(|h| h.metrics().expect("terminal").from_cache)
            .count();
        assert_eq!(cache_served, 1);
        assert_eq!(s.metrics().completed, 3);
    }

    #[test]
    fn parked_jobs_count_toward_the_admission_bound() {
        use rand::SeedableRng;
        let catalog = Arc::new(GraphCatalog::new());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        catalog.register(
            "slow",
            spidermine_graph::generate::erdos_renyi_average_degree(&mut rng, 80, 2.5, 4),
        );
        let s = JobScheduler::new(
            catalog,
            ServiceConfig {
                dispatchers: 2,
                queue_depth: 1,
                ..ServiceConfig::default()
            },
        );
        let slow_request = || MineRequest::new(Algorithm::SpiderMine).k(3).seed(1);
        let leader = s.submit("slow", slow_request()).expect("submit");
        // Give the dispatcher time to pop the leader so it occupies no slot.
        std::thread::sleep(Duration::from_millis(100));
        let duplicate = s.submit("slow", slow_request()).expect("one slot free");
        std::thread::sleep(Duration::from_millis(100));
        // The duplicate is parked (not queued), but still holds the one
        // admission slot: a third submission must be rejected.
        assert_eq!(s.queue_depth(), 1, "parked duplicate counts");
        assert!(matches!(
            s.submit("slow", slow_request()),
            Err(ServiceError::QueueFull { depth: 1, limit: 1 })
        ));
        assert!(!leader.wait().expect("leader mines").cancelled);
        assert!(!duplicate.wait().expect("duplicate served").cancelled);
    }

    #[test]
    fn failed_job_surfaces_its_error_through_wait() {
        // Drive the finish plumbing directly with the two Failed shapes the
        // dispatcher produces (engine error, caught panic): waiters must be
        // released with the typed error, never stranded.
        let catalog = GraphCatalog::new();
        let snap = catalog.register("g", toy_graph());
        let core = SchedulerCore::new(ServiceConfig::default());
        for error in [
            ServiceError::JobFailed(MineError::invalid("k", "must be at least 1")),
            ServiceError::JobPanicked("index out of bounds".into()),
        ] {
            let shared = Arc::new(JobShared {
                id: 0,
                graph: "g".into(),
                trace: 0,
                state: Mutex::new(JobState {
                    status: JobStatus::Running,
                    outcome: None,
                    error: None,
                    metrics: None,
                    on_complete: None,
                }),
                finished: Condvar::new(),
                cancel: CancelToken::new(),
            });
            let job = QueuedJob {
                shared: shared.clone(),
                snapshot: snap.clone(),
                engine: request().build().expect("valid"),
                key: CacheKey {
                    graph: "g".into(),
                    fingerprint: snap.fingerprint(),
                    request: "k".into(),
                },
                submitted: Instant::now(),
                observer: None,
                retry: RetryPolicy::none(),
                root_span: 0,
                wait_span: 0,
                wait_name: "queued",
            };
            finish(
                &core,
                &job,
                JobStatus::Failed,
                None,
                Some(error.clone()),
                JobMetrics::default(),
            );
            let handle = JobHandle { shared };
            assert_eq!(handle.status(), JobStatus::Failed);
            assert_eq!(handle.wait().expect_err("failed job errors"), error);
        }
        assert_eq!(core.counters.failed.get(), 2);
    }

    #[test]
    fn priorities_dispatch_high_first() {
        // Single dispatcher, and the queue is stuffed before it starts by
        // submitting under a held queue lock... we cannot hold the internal
        // lock, so instead verify ordering structurally: fill lanes directly.
        let mut queues = JobQueues::default();
        assert!(queues.pop().is_none());
        let catalog = GraphCatalog::new();
        let snap = catalog.register("g", toy_graph());
        for (i, priority) in [Priority::Low, Priority::Normal, Priority::High]
            .into_iter()
            .enumerate()
        {
            let engine = request().build().expect("valid");
            queues.lanes[priority as usize].push_back(QueuedJob {
                shared: Arc::new(JobShared {
                    id: i as u64,
                    graph: "g".into(),
                    trace: 0,
                    state: Mutex::new(JobState {
                        status: JobStatus::Queued,
                        outcome: None,
                        error: None,
                        metrics: None,
                        on_complete: None,
                    }),
                    finished: Condvar::new(),
                    cancel: CancelToken::new(),
                }),
                snapshot: snap.clone(),
                engine,
                key: CacheKey {
                    graph: "g".into(),
                    fingerprint: snap.fingerprint(),
                    request: format!("{i}"),
                },
                submitted: Instant::now(),
                observer: None,
                retry: RetryPolicy::none(),
                root_span: 0,
                wait_span: 0,
                wait_name: "queued",
            });
        }
        assert_eq!(queues.pop().expect("high").shared.id, 2);
        assert_eq!(queues.pop().expect("normal").shared.id, 1);
        assert_eq!(queues.pop().expect("low").shared.id, 0);
    }

    /// A leader whose engine *errors* while its cancel token is fired (the
    /// disconnect-then-error race) must record `Cancelled`, not `Failed`:
    /// the error is a casualty of the cancellation. Without the fired token
    /// the same error records `Failed` as before.
    #[test]
    fn cancelled_run_that_errors_records_cancelled_not_failed() {
        let catalog = GraphCatalog::new();
        let snap = catalog.register("g", toy_graph());
        let core = SchedulerCore::new(ServiceConfig::default());
        // ORIGAMI demands a transaction database, so mining the catalog's
        // single-graph snapshot errors deterministically mid-run.
        let erroring_job = |key: &str| {
            let shared = Arc::new(JobShared {
                id: 0,
                graph: "g".into(),
                trace: 0,
                state: Mutex::new(JobState {
                    status: JobStatus::Running,
                    outcome: None,
                    error: None,
                    metrics: None,
                    on_complete: None,
                }),
                finished: Condvar::new(),
                cancel: CancelToken::new(),
            });
            QueuedJob {
                shared,
                snapshot: snap.clone(),
                engine: MineRequest::new(Algorithm::Origami).build().expect("valid"),
                key: CacheKey {
                    graph: "g".into(),
                    fingerprint: snap.fingerprint(),
                    request: key.into(),
                },
                submitted: Instant::now(),
                observer: None,
                retry: RetryPolicy::none(),
                root_span: 0,
                wait_span: 0,
                wait_name: "queued",
            }
        };

        let cancelled = erroring_job("cancelled");
        cancelled.shared.cancel.fire();
        lead_job(&core, &cancelled, Instant::now());
        let handle = JobHandle {
            shared: cancelled.shared.clone(),
        };
        assert_eq!(handle.status(), JobStatus::Cancelled);
        let outcome = handle.wait().expect("cancellation is never an error");
        assert!(outcome.cancelled && outcome.patterns.is_empty());

        let failed = erroring_job("failed");
        lead_job(&core, &failed, Instant::now());
        let handle = JobHandle {
            shared: failed.shared.clone(),
        };
        assert_eq!(handle.status(), JobStatus::Failed);
        assert!(matches!(
            handle.wait(),
            Err(ServiceError::JobFailed(MineError::UnsupportedSource { .. }))
        ));

        assert_eq!(core.counters.cancelled.get(), 1);
        assert_eq!(core.counters.failed.get(), 1);
    }

    /// The observer sees every pattern of the final outcome exactly once —
    /// streamed live by the mining leader, and *replayed* in outcome order
    /// for a cache-served duplicate.
    #[test]
    fn observer_streams_live_and_replays_on_cache_hits() {
        let s = scheduler(ServiceConfig::default());
        let observe = || {
            let seen: Arc<Mutex<Vec<usize>>> = Arc::new(Mutex::new(Vec::new()));
            let sink = seen.clone();
            let observer: PatternObserver = Arc::new(move |p: &StreamedPattern| {
                sink.lock().unwrap().push(p.support);
            });
            (seen, observer)
        };

        let (live, observer) = observe();
        let options = SubmitOptions {
            observer: Some(observer),
            client: Some("tester".into()),
            ..SubmitOptions::default()
        };
        let first = s.submit_with_options("toy", request(), options).unwrap();
        let outcome = first.wait().expect("mine");
        let mut live_supports = live.lock().unwrap().clone();
        live_supports.sort_unstable();
        let mut outcome_supports: Vec<_> = outcome.patterns.iter().map(|p| p.support).collect();
        outcome_supports.sort_unstable();
        assert_eq!(live_supports, outcome_supports);
        assert!(!outcome.patterns.is_empty());

        let (replayed, observer) = observe();
        let options = SubmitOptions {
            observer: Some(observer),
            client: Some("tester".into()),
            ..SubmitOptions::default()
        };
        let second = s.submit_with_options("toy", request(), options).unwrap();
        second.wait().expect("cache hit");
        assert!(second.metrics().expect("terminal").from_cache);
        // A replay delivers exactly the outcome's patterns, in outcome order.
        let replayed_supports = replayed.lock().unwrap().clone();
        assert_eq!(
            replayed_supports,
            outcome
                .patterns
                .iter()
                .map(|p| p.support)
                .collect::<Vec<_>>()
        );

        // Both submissions were attributed to the client.
        let stats = s.clients().get("tester").expect("attributed");
        assert_eq!(stats.accepted, 2);
        assert_eq!(stats.rejected, 0);
        let metrics = s.metrics();
        assert_eq!(metrics.clients.len(), 1);
        assert_eq!(metrics.clients[0].0, "tester");

        // Rejections are attributed too.
        let options = SubmitOptions {
            client: Some("tester".into()),
            ..SubmitOptions::default()
        };
        let err = s.submit_with_options("ghost", request(), options);
        assert!(matches!(err, Err(ServiceError::UnknownGraph(_))));
        assert_eq!(s.clients().get("tester").expect("attributed").rejected, 1);
    }
}
