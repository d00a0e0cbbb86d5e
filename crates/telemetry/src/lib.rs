//! Unified telemetry: a metrics registry, structured span tracing, and a
//! crash/fault flight recorder (ISSUE 10).
//!
//! The crate is deliberately dependency-free so every layer of the workspace
//! — graph I/O, the mining kernels, the scheduler, the wire transport, even
//! the fault injector — can hook into one instrumentation surface without
//! dependency cycles. It provides three cooperating pieces:
//!
//! * **[`registry`]** — named counters, gauges, and log-bucketed latency
//!   histograms (p50/p95/p99/max). Handles are cheap `Arc` clones that
//!   callers resolve once and cache; updates are single relaxed atomic
//!   operations, and a [`Registry::snapshot`](registry::Registry::snapshot)
//!   reads everything without stopping writers. Metrics are *always on*:
//!   they replace the ad-hoc atomics that the service and cache previously
//!   maintained, at identical cost.
//!
//! * **[`trace`]** — structured span events (start/end/parent) keyed by a
//!   per-job trace id minted at admission and propagated through scheduler
//!   lanes, mining stage loops, cache parking, and the wire protocol.
//!   Tracing follows faultline's arming discipline: every hook is a single
//!   relaxed [`AtomicBool`] load when disarmed, and allocates nothing in
//!   either state (enforced by a counting-allocator test).
//!
//! * **[`recorder`]** — per-thread lock-free ring buffers holding the most
//!   recent span/fault/retry events, dumped as a readable report on
//!   dispatcher panic, fault-plan firing, drain timeout, or on demand.
//!
//! Exposition lives in [`export`]: a Prometheus-style text dump of registry
//! snapshots and a Chrome trace-event (`chrome://tracing`) JSON exporter
//! over captured events.

pub mod export;
pub mod recorder;
pub mod registry;
pub mod trace;

pub use export::{chrome_trace_json, prometheus_text};
pub use recorder::{fault_event, flight_dump, recent_events, retry_event};
pub use registry::{Counter, Gauge, Histogram, HistogramSnapshot, Registry, RegistrySnapshot};
pub use trace::{
    capture_snapshot, instant, next_span_id, next_trace_id, span, span_complete, span_end,
    span_start, start_capture, stop_capture, take_capture, Event, EventKind, SpanGuard,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Whether span/flight-recorder hooks record anything. Metrics counters are
/// independent of this flag (they are the system's source of truth and cost
/// exactly what the atomics they replaced did).
static ARMED: AtomicBool = AtomicBool::new(false);

/// True while tracing and the flight recorder are armed. This is the *only*
/// check a disarmed hook performs — one relaxed atomic load.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// Arms span tracing and the flight recorder. Also pins the clock epoch so
/// the first recorded timestamp is near zero.
pub fn arm() {
    epoch();
    ARMED.store(true, Ordering::SeqCst);
}

/// Disarms span tracing and the flight recorder; hooks return to their
/// single-load fast path. Already-recorded events stay readable.
pub fn disarm() {
    ARMED.store(false, Ordering::SeqCst);
}

/// The process-wide monotonic epoch every timestamp is measured from.
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Monotonic nanoseconds since the telemetry epoch (pinned on first use or
/// on [`arm`]). Does not allocate.
#[inline]
pub fn now_nanos() -> u64 {
    u64::try_from(epoch().elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The process-global registry, used for cross-cutting metrics that are not
/// owned by a particular service instance (graph snapshot I/O, wire-level
/// counters). Service-scoped metrics live in the
/// service's own [`Registry`] so concurrent services do not pollute each
/// other's numbers.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arming_round_trips() {
        assert!(!armed());
        arm();
        assert!(armed());
        disarm();
        assert!(!armed());
    }

    #[test]
    fn clock_is_monotone() {
        let a = now_nanos();
        let b = now_nanos();
        assert!(b >= a);
    }
}
