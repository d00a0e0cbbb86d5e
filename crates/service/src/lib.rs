//! The mining service layer: one process serving many mining requests over
//! shared massive networks.
//!
//! PRs 1–4 built a fast single-run engine
//! ([`spidermine_engine`]); this crate is the subsystem that
//! multiplexes it. Three components:
//!
//! * [`GraphCatalog`] — named, immutable graph snapshots. The expensive
//!   inputs (graph + frozen CSR index) are loaded once and shared by every
//!   concurrent job as a cheap [`Arc<GraphSnapshot>`] handle; snapshots
//!   persist to the versioned binary CSR format of
//!   [`spidermine_graph::io`] (magic + version + checksum), so a service
//!   restart reloads flat arrays instead of rebuilding datasets. Each
//!   snapshot carries a stable content **fingerprint**.
//! * [`JobScheduler`] — a bounded FIFO/priority queue with typed admission
//!   control ([`ServiceError::QueueFull`]), a small dispatcher pool executing
//!   jobs on the work-stealing runtime at each job's own `threads` width,
//!   cooperative cancellation and `deadline_ms` timeouts (partial results,
//!   never errors), status-pollable [`JobHandle`]s, and per-job plus
//!   service-wide metrics.
//! * [`ResultCache`] — an LRU keyed by `(graph name, snapshot fingerprint,
//!   canonical request key)` with single-flight deduplication: identical concurrent
//!   jobs mine once and share the outcome. Serving cached outcomes is
//!   legitimate because engine results are byte-identical at every thread
//!   width — a cached outcome is exactly what a fresh run would produce.
//!
//! [`MiningService`] bundles the three behind one facade:
//!
//! ```
//! use spidermine_engine::{Algorithm, MineRequest};
//! use spidermine_graph::{Label, LabeledGraph};
//! use spidermine_service::{MiningService, ServiceConfig};
//!
//! // A toy network: two labeled paths.
//! let graph = LabeledGraph::from_parts(
//!     &[Label(0), Label(1), Label(2), Label(0), Label(1), Label(2)],
//!     &[(0, 1), (1, 2), (3, 4), (4, 5)],
//! );
//!
//! let service = MiningService::new(ServiceConfig::default());
//! service.catalog().register("toy", graph);
//!
//! // Submit the same request twice: the second is served from the cache.
//! let request = MineRequest::new(Algorithm::Moss).support_threshold(2);
//! let first = service.submit("toy", request.clone())?.wait()?;
//! let second = service.submit("toy", request)?.wait()?;
//! assert!(!first.patterns.is_empty());
//! assert!(std::sync::Arc::ptr_eq(&first, &second));
//! assert_eq!(service.metrics().cache.hits, 1);
//! # Ok::<(), spidermine_service::ServiceError>(())
//! ```

pub mod cache;
pub mod catalog;
pub mod clients;
pub mod error;
pub mod scheduler;

pub use cache::{CacheKey, CacheLookup, CacheStats, ResultCache};
pub use catalog::{GraphCatalog, GraphSnapshot, MANIFEST_FILE};
pub use clients::{ClientRegistry, ClientStats};
pub use error::ServiceError;
pub use scheduler::{
    CompletionCallback, JobHandle, JobMetrics, JobScheduler, JobStatus, PatternObserver, Priority,
    ServiceConfig, ServiceMetrics, SubmitOptions,
};
pub use spidermine_faultline::RetryPolicy;

use spidermine_engine::MineRequest;
use std::sync::Arc;

/// The one-stop facade: a [`GraphCatalog`] plus a [`JobScheduler`] (which
/// owns the [`ResultCache`]) wired together.
#[derive(Debug)]
pub struct MiningService {
    scheduler: JobScheduler,
}

impl MiningService {
    /// A service with an empty catalog and running dispatchers.
    pub fn new(config: ServiceConfig) -> Self {
        let catalog = Arc::new(GraphCatalog::new());
        Self {
            scheduler: JobScheduler::new(catalog, config),
        }
    }

    /// The graph catalog: register, load or persist snapshots here.
    pub fn catalog(&self) -> &GraphCatalog {
        self.scheduler.catalog()
    }

    /// Submits `(graph name, request)` at normal priority. See
    /// [`JobScheduler::submit`].
    pub fn submit(&self, graph: &str, request: MineRequest) -> Result<JobHandle, ServiceError> {
        self.scheduler.submit(graph, request)
    }

    /// Submits with an explicit [`Priority`].
    pub fn submit_with_priority(
        &self,
        graph: &str,
        request: MineRequest,
        priority: Priority,
    ) -> Result<JobHandle, ServiceError> {
        self.scheduler
            .submit_with_priority(graph, request, priority)
    }

    /// Submits with full [`SubmitOptions`] (priority, streaming observer,
    /// per-client attribution). See [`JobScheduler::submit_with_options`].
    pub fn submit_with_options(
        &self,
        graph: &str,
        request: MineRequest,
        options: SubmitOptions,
    ) -> Result<JobHandle, ServiceError> {
        self.scheduler.submit_with_options(graph, request, options)
    }

    /// Per-client counters; see [`JobScheduler::clients`].
    pub fn clients(&self) -> &ClientRegistry {
        self.scheduler.clients()
    }

    /// Service-wide counters (jobs, queue wait, run time, cache hit/miss).
    pub fn metrics(&self) -> ServiceMetrics {
        self.scheduler.metrics()
    }

    /// The per-service telemetry registry behind [`MiningService::metrics`]:
    /// the same counter cells plus latency histograms, snapshotable for
    /// Prometheus-style exposition. See [`JobScheduler::registry`].
    pub fn registry(&self) -> &Arc<spidermine_telemetry::Registry> {
        self.scheduler.registry()
    }

    /// The underlying scheduler, for queue inspection or cache clearing.
    pub fn scheduler(&self) -> &JobScheduler {
        &self.scheduler
    }

    /// Graceful drain: stops accepting jobs, gives in-flight work until
    /// `deadline` to finish, then cancels the stragglers and waits for them
    /// to settle. Returns `true` if nothing had to be cancelled. Takes
    /// `&self`, so a shared service (e.g. behind the transport server) can
    /// be drained; see [`JobScheduler::drain`].
    pub fn drain(&self, deadline: std::time::Duration) -> bool {
        self.scheduler.drain(deadline)
    }

    /// Stops accepting jobs, drains the queue, joins the dispatchers.
    pub fn shutdown(mut self) {
        self.scheduler.shutdown();
    }
}
