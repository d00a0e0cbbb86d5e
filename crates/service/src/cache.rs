//! The fingerprint-keyed result cache.
//!
//! Completed [`MineOutcome`]s are stored in an LRU map keyed by
//! [`CacheKey`] — the catalog graph name, the graph snapshot's content
//! fingerprint, and the request's canonical key
//! ([`MineRequest::canonical_key`](spidermine_engine::MineRequest::canonical_key)).
//! Fingerprint and request key are stable across processes, so cached
//! identity survives a service restart (the fingerprint is even persisted
//! inside snapshot files); the graph name rides along so two distinct graphs
//! whose 64-bit fingerprints collide can never be served each other's
//! outcomes.
//!
//! What makes serving cached outcomes *legitimate* is the engine's
//! determinism guarantee: results are byte-identical at every thread width
//! (the runtime's reductions are order-preserving), so the `threads` knob is
//! excluded from the canonical key and a cached outcome is exactly what a
//! fresh run would produce. Cancelled or timed-out runs are partial and are
//! therefore never cached.
//!
//! The cache is also the **single-flight** gate: the first lookup to miss on
//! a key becomes the *leader* and inserts a pending marker; identical
//! lookups arriving while it mines see [`CacheLookup::InFlight`] and the
//! scheduler *parks* those jobs instead of blocking a dispatcher on them —
//! the leader drains the parked jobs when it completes (they re-look-up and
//! hit) or aborts (one of them takes over as leader). K identical concurrent
//! jobs therefore cost one mining run and K−1 hits, without ever idling a
//! dispatcher thread.

use spidermine_engine::MineOutcome;
use spidermine_telemetry::{Counter, Registry};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// What a completed mining run is filed under.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Catalog name the job was submitted against. Disambiguates graphs
    /// whose content fingerprints collide (FNV-1a is fast, not
    /// collision-resistant).
    pub graph: String,
    /// [`GraphSnapshot::fingerprint`](crate::GraphSnapshot::fingerprint) of
    /// the mined snapshot — so re-registering a *different* graph under the
    /// same name can never serve the old graph's outcomes.
    pub fingerprint: u64,
    /// [`MineRequest::canonical_key`](spidermine_engine::MineRequest::canonical_key)
    /// of the request.
    pub request: String,
}

/// Counter snapshot of the cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a completed entry (including parked jobs drained
    /// by a single-flight leader).
    pub hits: u64,
    /// Lookups that became leaders and had to mine.
    pub misses: u64,
    /// Completed entries evicted to respect the capacity.
    pub evictions: u64,
    /// Completed entries currently resident.
    pub entries: usize,
}

enum Slot {
    /// A leader is mining this key right now.
    Pending,
    /// A completed outcome, with its LRU clock stamp.
    Ready {
        outcome: Arc<MineOutcome>,
        last_used: u64,
    },
}

struct CacheState {
    slots: HashMap<CacheKey, Slot>,
    /// Monotone LRU clock; bumped on every insert and hit.
    clock: u64,
}

/// Result of [`ResultCache::begin`].
pub enum CacheLookup {
    /// A completed outcome was resident. Counted as a hit.
    Hit(Arc<MineOutcome>),
    /// Nothing resident: the caller is now the leader for this key and must
    /// either [`ResultCache::complete`] or [`ResultCache::abort`] it.
    /// Counted as a miss.
    Leader,
    /// A leader is mining this key right now. Not counted; the caller should
    /// park the work and retry once the in-flight run settles.
    InFlight,
}

/// LRU + single-flight cache of completed [`MineOutcome`]s. See the module
/// docs. Never blocks: an in-flight key is reported, not waited on.
pub struct ResultCache {
    state: Mutex<CacheState>,
    capacity: usize,
    // Telemetry counter cells (cache-line padded apiece: hits and misses are
    // bumped from different dispatcher threads on every lookup and would
    // otherwise false-share). Built via `with_registry` these are the *same*
    // cells the service's telemetry registry exports, so `CacheStats` and
    // the Prometheus dump can never drift apart.
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("ResultCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl ResultCache {
    /// A cache holding at most `capacity` completed outcomes. Capacity 0
    /// disables caching entirely (every lookup is a miss, nothing is stored,
    /// and single-flight deduplication is off).
    pub fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                clock: 0,
            }),
            capacity,
            hits: Counter::default(),
            misses: Counter::default(),
            evictions: Counter::default(),
        }
    }

    /// Like [`ResultCache::new`], but with the counters registered in
    /// `registry` (as `cache_hits_total` / `cache_misses_total` /
    /// `cache_evictions_total`) so the cache shows up in the service's
    /// metrics exposition. The scheduler builds its cache this way.
    pub fn with_registry(capacity: usize, registry: &Registry) -> Self {
        Self {
            hits: registry.counter("cache_hits_total"),
            misses: registry.counter("cache_misses_total"),
            evictions: registry.counter("cache_evictions_total"),
            ..Self::new(capacity)
        }
    }

    /// Looks up `key`, entering the single-flight protocol:
    ///
    /// * completed entry resident → [`CacheLookup::Hit`] (refreshes LRU);
    /// * a leader is mining it → [`CacheLookup::InFlight`], immediately;
    /// * vacant → insert a pending marker, return [`CacheLookup::Leader`].
    pub fn begin(&self, key: &CacheKey) -> CacheLookup {
        if self.capacity == 0 {
            self.misses.inc();
            return CacheLookup::Leader;
        }
        let mut state = self.state.lock().expect("cache lock");
        let s = &mut *state;
        match s.slots.get_mut(key) {
            Some(Slot::Ready { outcome, last_used }) => {
                s.clock += 1;
                *last_used = s.clock;
                let out = outcome.clone();
                self.hits.inc();
                CacheLookup::Hit(out)
            }
            Some(Slot::Pending) => CacheLookup::InFlight,
            None => {
                s.slots.insert(key.clone(), Slot::Pending);
                self.misses.inc();
                CacheLookup::Leader
            }
        }
    }

    /// True while a leader's pending marker is resident for `key`. The
    /// scheduler re-checks this under its parking lock to close the race
    /// between a [`CacheLookup::InFlight`] answer and the leader settling.
    pub fn is_pending(&self, key: &CacheKey) -> bool {
        matches!(
            self.state.lock().expect("cache lock").slots.get(key),
            Some(Slot::Pending)
        )
    }

    /// Files the leader's completed outcome under `key` and evicts
    /// least-recently-used completed entries beyond the capacity (pending
    /// markers are never evicted).
    pub fn complete(&self, key: &CacheKey, outcome: Arc<MineOutcome>) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("cache lock");
        state.clock += 1;
        let now = state.clock;
        state.slots.insert(
            key.clone(),
            Slot::Ready {
                outcome,
                last_used: now,
            },
        );
        while self.ready_count(&state) > self.capacity {
            let victim = state
                .slots
                .iter()
                .filter_map(|(k, slot)| match slot {
                    Slot::Ready { last_used, .. } => Some((*last_used, k.clone())),
                    Slot::Pending => None,
                })
                .min_by_key(|(last_used, _)| *last_used)
                .map(|(_, k)| k)
                .expect("over-capacity cache has a ready entry");
            state.slots.remove(&victim);
            self.evictions.inc();
        }
    }

    /// Withdraws the leader's pending marker without filing an outcome (the
    /// run was cancelled, timed out, or failed — partial results are never
    /// cached). The next lookup on the key becomes the new leader.
    pub fn abort(&self, key: &CacheKey) {
        if self.capacity == 0 {
            return;
        }
        let mut state = self.state.lock().expect("cache lock");
        if matches!(state.slots.get(key), Some(Slot::Pending)) {
            state.slots.remove(key);
        }
    }

    /// Drops every completed entry (pending markers survive; their leaders
    /// will still complete them). Counters are kept.
    pub fn clear(&self) {
        let mut state = self.state.lock().expect("cache lock");
        state.slots.retain(|_, slot| matches!(slot, Slot::Pending));
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        let state = self.state.lock().expect("cache lock");
        CacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            entries: self.ready_count(&state),
        }
    }

    fn ready_count(&self, state: &CacheState) -> usize {
        state
            .slots
            .values()
            .filter(|slot| matches!(slot, Slot::Ready { .. }))
            .count()
    }
}

/// Drop guard a leader holds while mining: if the leader unwinds without
/// completing (a panic in the engine), the pending marker is withdrawn so
/// the key does not stay in-flight forever.
pub(crate) struct PendingGuard<'a> {
    cache: &'a ResultCache,
    key: &'a CacheKey,
    armed: bool,
}

impl<'a> PendingGuard<'a> {
    pub(crate) fn new(cache: &'a ResultCache, key: &'a CacheKey) -> Self {
        Self {
            cache,
            key,
            armed: true,
        }
    }

    /// Files the outcome and disarms the guard.
    pub(crate) fn complete(mut self, outcome: Arc<MineOutcome>) {
        self.cache.complete(self.key, outcome);
        self.armed = false;
    }

    /// Withdraws the marker and disarms the guard.
    pub(crate) fn abort(mut self) {
        self.cache.abort(self.key);
        self.armed = false;
    }
}

impl Drop for PendingGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.cache.abort(self.key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_engine::{Algorithm, MineOutcome};
    use std::time::Duration;

    fn key(fp: u64, req: &str) -> CacheKey {
        CacheKey {
            graph: "g".to_owned(),
            fingerprint: fp,
            request: req.to_owned(),
        }
    }

    fn outcome(n: usize) -> Arc<MineOutcome> {
        Arc::new(MineOutcome {
            algorithm: Algorithm::SpiderMine,
            patterns: Vec::new(),
            stream_order: Vec::new(),
            cancelled: false,
            timed_out: false,
            stages: Vec::new(),
            total_time: Duration::from_millis(n as u64),
            threads: 1,
            dropped_embeddings: 0,
        })
    }

    fn must_lead(cache: &ResultCache, k: &CacheKey) {
        match cache.begin(k) {
            CacheLookup::Leader => {}
            _ => panic!("expected leader"),
        }
    }

    #[test]
    fn miss_then_hit() {
        let cache = ResultCache::new(4);
        let k = key(1, "a");
        must_lead(&cache, &k);
        cache.complete(&k, outcome(1));
        match cache.begin(&k) {
            CacheLookup::Hit(o) => assert_eq!(o.total_time, Duration::from_millis(1)),
            _ => panic!("expected hit"),
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    }

    #[test]
    fn same_fingerprint_under_a_different_graph_name_is_a_distinct_entry() {
        let cache = ResultCache::new(4);
        let a = CacheKey {
            graph: "a".into(),
            ..key(7, "req")
        };
        let b = CacheKey {
            graph: "b".into(),
            ..key(7, "req")
        };
        must_lead(&cache, &a);
        cache.complete(&a, outcome(1));
        // A colliding fingerprint on another graph must not be served a's
        // outcome.
        must_lead(&cache, &b);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache = ResultCache::new(2);
        for (i, name) in ["a", "b", "c"].iter().enumerate() {
            let k = key(i as u64, name);
            must_lead(&cache, &k);
            cache.complete(&k, outcome(i));
            if *name == "b" {
                // Touch `a` so `b` is the coldest when `c` arrives.
                match cache.begin(&key(0, "a")) {
                    CacheLookup::Hit(_) => {}
                    _ => panic!("a resident"),
                }
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.evictions, 1);
        match cache.begin(&key(1, "b")) {
            CacheLookup::Leader => cache.abort(&key(1, "b")),
            _ => panic!("b should have been evicted"),
        }
        match cache.begin(&key(0, "a")) {
            CacheLookup::Hit(_) => {}
            _ => panic!("a should have survived"),
        }
    }

    #[test]
    fn in_flight_key_is_reported_not_awaited() {
        let cache = ResultCache::new(4);
        let k = key(7, "shared");
        must_lead(&cache, &k);
        assert!(cache.is_pending(&k));
        assert!(matches!(cache.begin(&k), CacheLookup::InFlight));
        assert!(matches!(cache.begin(&k), CacheLookup::InFlight));
        cache.complete(&k, outcome(9));
        assert!(!cache.is_pending(&k));
        match cache.begin(&k) {
            CacheLookup::Hit(o) => assert_eq!(o.total_time, Duration::from_millis(9)),
            _ => panic!("expected hit after completion"),
        }
        // InFlight answers counted neither as hits nor misses.
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn abort_lets_the_next_lookup_lead() {
        let cache = ResultCache::new(4);
        let k = key(7, "flaky");
        must_lead(&cache, &k);
        assert!(matches!(cache.begin(&k), CacheLookup::InFlight));
        cache.abort(&k);
        assert!(!cache.is_pending(&k));
        must_lead(&cache, &k);
    }

    #[test]
    fn pending_guard_aborts_on_unwind() {
        let cache = ResultCache::new(4);
        let k = key(1, "panicky");
        must_lead(&cache, &k);
        {
            let _guard = PendingGuard::new(&cache, &k);
            // Dropped without complete(): simulates a leader unwinding.
        }
        must_lead(&cache, &k); // marker was withdrawn, we lead again
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = ResultCache::new(0);
        let k = key(1, "a");
        must_lead(&cache, &k);
        cache.complete(&k, outcome(1));
        must_lead(&cache, &k);
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn clear_drops_ready_entries() {
        let cache = ResultCache::new(4);
        let k = key(1, "a");
        must_lead(&cache, &k);
        cache.complete(&k, outcome(1));
        assert_eq!(cache.stats().entries, 1);
        cache.clear();
        assert_eq!(cache.stats().entries, 0);
        must_lead(&cache, &k);
    }
}
