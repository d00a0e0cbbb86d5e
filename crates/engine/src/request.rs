//! The validated, builder-style mining request.
//!
//! A [`MineRequest`] names an [`Algorithm`] and carries the paper's
//! user-facing knobs (σ, K, ε, `Dmax`, r) plus engine-level budgets (time,
//! pattern-size, embedding caps) and the RNG seed. [`MineRequest::build`]
//! validates every field — rejecting e.g. a `support_threshold = 0`, which
//! the algorithms' own `*_with` entry points would silently accept, with a
//! [`MineError::InvalidConfig`] that names the bad field — and produces an
//! [`Engine`](crate::Engine) ready to [`mine`](crate::Engine::mine).

use crate::error::MineError;
use spidermine::SpiderMineConfig;
use spidermine_baselines::{MossConfig, OrigamiConfig, SeusConfig, SubdueConfig};
use spidermine_mining::support::SupportMeasure;
use std::fmt;
use std::str::FromStr;
use std::time::Duration;

/// The six mining algorithms reachable through the unified API.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// SpiderMine on a single graph (the paper's Algorithm 1).
    SpiderMine,
    /// SpiderMine adapted to the graph-transaction setting (Section 2).
    SpiderMineTransactions,
    /// SUBDUE: MDL-guided beam search.
    Subdue,
    /// MoSS/gSpan-style complete miner.
    Moss,
    /// ORIGAMI: random maximal sampling + α-orthogonal selection.
    Origami,
    /// SEuS: summary-graph candidate generation.
    Seus,
}

impl Algorithm {
    /// Stable lower-case name (also accepted by [`Algorithm::from_str`]).
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::SpiderMine => "spidermine",
            Algorithm::SpiderMineTransactions => "spidermine-transactions",
            Algorithm::Subdue => "subdue",
            Algorithm::Moss => "moss",
            Algorithm::Origami => "origami",
            Algorithm::Seus => "seus",
        }
    }

    /// All algorithms, in a stable order.
    pub fn all() -> [Algorithm; 6] {
        [
            Algorithm::SpiderMine,
            Algorithm::SpiderMineTransactions,
            Algorithm::Subdue,
            Algorithm::Moss,
            Algorithm::Origami,
            Algorithm::Seus,
        ]
    }

    /// True if the algorithm mines a graph-transaction database rather than a
    /// single graph.
    pub fn wants_transactions(&self) -> bool {
        matches!(self, Algorithm::SpiderMineTransactions | Algorithm::Origami)
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for Algorithm {
    type Err = MineError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "spidermine" | "spider-mine" | "spider" => Ok(Algorithm::SpiderMine),
            "spidermine-transactions" | "transactions" | "spidermine-tx" => {
                Ok(Algorithm::SpiderMineTransactions)
            }
            "subdue" => Ok(Algorithm::Subdue),
            "moss" | "gspan" => Ok(Algorithm::Moss),
            "origami" => Ok(Algorithm::Origami),
            "seus" => Ok(Algorithm::Seus),
            other => Err(MineError::invalid(
                "algorithm",
                format!(
                    "unknown algorithm `{other}` (expected one of {})",
                    Algorithm::all().map(|a| a.name()).join(", ")
                ),
            )),
        }
    }
}

/// Builder-style mining request. See the module docs; construct with
/// [`MineRequest::new`], chain setters, finish with [`MineRequest::build`].
#[derive(Clone, Debug)]
pub struct MineRequest {
    // Crate-visible so the wire module (`crate::wire`) can encode and
    // reconstruct requests without widening the public builder surface.
    pub(crate) algorithm: Algorithm,
    pub(crate) support_threshold: usize,
    pub(crate) k: usize,
    pub(crate) epsilon: f64,
    pub(crate) d_max: u32,
    pub(crate) r: u32,
    pub(crate) seed: u64,
    pub(crate) support_measure: Option<SupportMeasure>,
    pub(crate) time_budget: Option<Duration>,
    pub(crate) max_pattern_edges: Option<usize>,
    pub(crate) max_embeddings: Option<usize>,
    pub(crate) threads: Option<usize>,
    pub(crate) deadline_ms: Option<u64>,
}

impl MineRequest {
    /// A request for `algorithm` with the defaults of the paper's
    /// experimental setting (σ = 2, K = 10, ε = 0.1, `Dmax` = 10, r = 1).
    pub fn new(algorithm: Algorithm) -> Self {
        Self {
            algorithm,
            support_threshold: 2,
            k: 10,
            epsilon: 0.1,
            d_max: 10,
            r: 1,
            seed: 0x5eed_5eed,
            support_measure: None,
            time_budget: None,
            max_pattern_edges: None,
            max_embeddings: None,
            threads: None,
            deadline_ms: None,
        }
    }

    /// Support threshold σ (minimum support for a pattern to be frequent).
    pub fn support_threshold(mut self, sigma: usize) -> Self {
        self.support_threshold = sigma;
        self
    }

    /// Number of top patterns to return (K), for the algorithms with a top-K
    /// notion (SpiderMine, its transaction adaptation, SUBDUE's report cap).
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Error bound ε of SpiderMine's probabilistic guarantee.
    pub fn epsilon(mut self, epsilon: f64) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// Diameter upper bound `Dmax` for SpiderMine patterns.
    pub fn d_max(mut self, d_max: u32) -> Self {
        self.d_max = d_max;
        self
    }

    /// Spider radius r.
    pub fn radius(mut self, r: u32) -> Self {
        self.r = r;
        self
    }

    /// RNG seed, for the algorithms that randomize (SpiderMine seeding,
    /// ORIGAMI walks). Runs are deterministic in this seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Support measure used for frequency checks, for the single-graph
    /// algorithms with a pluggable measure (SpiderMine's growth/selection,
    /// MoSS's overlap-aware counting). Per-algorithm defaults apply when
    /// unset (MNI for SpiderMine, greedy-disjoint for MoSS); parse CLI
    /// values via [`SupportMeasure::from_str`] (`embeddings` | `mni` |
    /// `greedy-disjoint`).
    pub fn support_measure(mut self, measure: SupportMeasure) -> Self {
        self.support_measure = Some(measure);
        self
    }

    /// Wall-clock budget for the budgeted algorithms (SUBDUE, MoSS, ORIGAMI,
    /// SEuS); their defaults apply when unset.
    pub fn time_budget(mut self, budget: Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }

    /// Expansion budget: maximum pattern size in edges for the edge-growth
    /// algorithms (SUBDUE, MoSS, ORIGAMI walks).
    pub fn max_pattern_edges(mut self, edges: usize) -> Self {
        self.max_pattern_edges = Some(edges);
        self
    }

    /// Cap on embeddings tracked per pattern.
    pub fn max_embeddings(mut self, cap: usize) -> Self {
        self.max_embeddings = Some(cap);
        self
    }

    /// Number of worker threads the run may use. The run's parallel regions
    /// are capped (or raised — the pool grows on demand) to exactly this
    /// width; `1` pins the run to the calling thread, and values above the
    /// pool's worker cap ([`rayon::MAX_WORKERS`]) are rejected at
    /// validation. Unset: the pool default (`RAYON_NUM_THREADS`, else the
    /// machine's parallelism).
    /// Results are identical at every thread count — the runtime's
    /// reductions are order-preserving — so this knob trades wall-clock
    /// against CPU, never output.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Wall-clock deadline for the whole run, in milliseconds. Works for
    /// *every* algorithm (unlike [`MineRequest::time_budget`], which maps to
    /// the budgeted baselines' own knobs): the engine arms the
    /// [`MineContext`](crate::MineContext) deadline, which fires the cancel
    /// token once expired, so the run winds down cooperatively and returns
    /// its partial results with
    /// [`MineOutcome::timed_out`](crate::MineOutcome::timed_out) set —
    /// a timeout is never an error.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.deadline_ms = Some(ms);
        self
    }

    /// The requested algorithm.
    pub fn algorithm(&self) -> Algorithm {
        self.algorithm
    }

    /// The requested thread width, if any.
    pub fn requested_threads(&self) -> Option<usize> {
        self.threads
    }

    /// The requested wall-clock deadline, if any.
    pub fn requested_deadline(&self) -> Option<Duration> {
        self.deadline_ms.map(Duration::from_millis)
    }

    /// A canonical serialized key identifying everything about this request
    /// that can influence a [`MineOutcome`](crate::MineOutcome)'s mined
    /// patterns: algorithm, all thresholds and budgets, the seed and the
    /// support measure, each rendered in a stable normal form (ε as its exact
    /// IEEE-754 bit pattern, unset optionals as `-`).
    ///
    /// Two requests with equal keys produce identical patterns on the same
    /// graph, which is what lets the service layer's result cache use
    /// `(graph fingerprint, canonical key)` as its lookup key. The `threads`
    /// knob is deliberately **excluded**: the runtime's reductions are
    /// order-preserving, so results are byte-identical at every width and
    /// runs differing only in width must share a cache entry.
    pub fn canonical_key(&self) -> String {
        fn opt<T: fmt::Display>(v: Option<T>) -> String {
            v.map_or_else(|| "-".to_owned(), |v| v.to_string())
        }
        format!(
            "v1;algo={};sigma={};k={};eps={:016x};dmax={};r={};seed={:016x};measure={};budget_ns={};max_edges={};max_emb={};deadline_ms={}",
            self.algorithm.name(),
            self.support_threshold,
            self.k,
            self.epsilon.to_bits(),
            self.d_max,
            self.r,
            self.seed,
            self.support_measure.map_or("-", |m| m.name()),
            opt(self.time_budget.map(|b| b.as_nanos())),
            opt(self.max_pattern_edges),
            opt(self.max_embeddings),
            opt(self.deadline_ms),
        )
    }

    /// Validates every field, naming the offending one on failure.
    pub fn validate(&self) -> Result<(), MineError> {
        if self.support_threshold == 0 {
            return Err(MineError::invalid(
                "support_threshold",
                "must be at least 1 (a support threshold of 0 would make every pattern frequent)",
            ));
        }
        if self.k == 0 {
            return Err(MineError::invalid("k", "must be at least 1"));
        }
        if !(self.epsilon > 0.0 && self.epsilon < 1.0) {
            return Err(MineError::invalid(
                "epsilon",
                format!("must lie in the open interval (0, 1), got {}", self.epsilon),
            ));
        }
        if self.r == 0 {
            return Err(MineError::invalid(
                "radius",
                "spider radius r must be at least 1",
            ));
        }
        if self.d_max == 0 {
            return Err(MineError::invalid("d_max", "must be at least 1"));
        }
        if self.time_budget == Some(Duration::ZERO) {
            return Err(MineError::invalid(
                "time_budget",
                "must be positive when set",
            ));
        }
        if self.max_pattern_edges == Some(0) {
            return Err(MineError::invalid(
                "max_pattern_edges",
                "must be at least 1 when set",
            ));
        }
        if self.max_embeddings == Some(0) {
            return Err(MineError::invalid(
                "max_embeddings",
                "must be at least 1 when set",
            ));
        }
        if self.threads == Some(0) {
            return Err(MineError::invalid(
                "threads",
                "must be at least 1 when set (use 1 to pin the run to the calling thread)",
            ));
        }
        if let Some(threads) = self.threads {
            // Reject instead of silently clamping: the contract is that the
            // run executes at *exactly* the requested width.
            if threads > rayon::MAX_WORKERS {
                return Err(MineError::invalid(
                    "threads",
                    format!(
                        "must be at most {} (the pool's worker cap)",
                        rayon::MAX_WORKERS
                    ),
                ));
            }
        }
        if self.deadline_ms == Some(0) {
            return Err(MineError::invalid(
                "deadline_ms",
                "must be at least 1 millisecond when set (a zero deadline would cancel the run before it starts)",
            ));
        }
        Ok(())
    }

    /// Validates the request and constructs the ready-to-run
    /// [`Engine`](crate::Engine).
    pub fn build(self) -> Result<crate::Engine, MineError> {
        self.validate()?;
        Ok(crate::Engine::from_validated_request(self))
    }

    pub(crate) fn spidermine_config(&self) -> SpiderMineConfig {
        let defaults = SpiderMineConfig::default();
        SpiderMineConfig {
            support_threshold: self.support_threshold,
            k: self.k,
            epsilon: self.epsilon,
            d_max: self.d_max,
            r: self.r,
            rng_seed: self.seed,
            support_measure: self.support_measure.unwrap_or(defaults.support_measure),
            max_embeddings: self.max_embeddings.unwrap_or(defaults.max_embeddings),
            ..defaults
        }
    }

    pub(crate) fn subdue_config(&self) -> SubdueConfig {
        let defaults = SubdueConfig::default();
        SubdueConfig {
            report: self.k,
            min_instances: self.support_threshold,
            max_edges: self.max_pattern_edges.unwrap_or(defaults.max_edges),
            max_embeddings: self.max_embeddings.unwrap_or(defaults.max_embeddings),
            time_budget: self.time_budget.unwrap_or(defaults.time_budget),
            ..defaults
        }
    }

    pub(crate) fn moss_config(&self) -> MossConfig {
        let defaults = MossConfig::default();
        MossConfig {
            support_threshold: self.support_threshold,
            support_measure: self.support_measure.unwrap_or(defaults.support_measure),
            max_edges: self.max_pattern_edges.unwrap_or(defaults.max_edges),
            max_embeddings: self.max_embeddings.unwrap_or(defaults.max_embeddings),
            time_budget: self.time_budget.unwrap_or(defaults.time_budget),
        }
    }

    pub(crate) fn origami_config(&self) -> OrigamiConfig {
        let defaults = OrigamiConfig::default();
        OrigamiConfig {
            support_threshold: self.support_threshold,
            rng_seed: self.seed,
            max_edges: self.max_pattern_edges.unwrap_or(defaults.max_edges),
            time_budget: self.time_budget.unwrap_or(defaults.time_budget),
            ..defaults
        }
    }

    pub(crate) fn seus_config(&self) -> SeusConfig {
        let defaults = SeusConfig::default();
        SeusConfig {
            support_threshold: self.support_threshold,
            max_embeddings: self.max_embeddings.unwrap_or(defaults.max_embeddings),
            time_budget: self.time_budget.unwrap_or(defaults.time_budget),
            ..defaults
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_request_is_valid_for_every_algorithm() {
        for algo in Algorithm::all() {
            assert!(MineRequest::new(algo).validate().is_ok(), "{algo}");
        }
    }

    #[test]
    fn every_bad_field_is_named() {
        let cases: Vec<(&'static str, MineRequest)> = vec![
            (
                "support_threshold",
                MineRequest::new(Algorithm::SpiderMine).support_threshold(0),
            ),
            ("k", MineRequest::new(Algorithm::SpiderMine).k(0)),
            (
                "epsilon",
                MineRequest::new(Algorithm::SpiderMine).epsilon(0.0),
            ),
            (
                "epsilon",
                MineRequest::new(Algorithm::SpiderMine).epsilon(1.0),
            ),
            ("radius", MineRequest::new(Algorithm::SpiderMine).radius(0)),
            ("d_max", MineRequest::new(Algorithm::SpiderMine).d_max(0)),
            (
                "time_budget",
                MineRequest::new(Algorithm::Moss).time_budget(Duration::ZERO),
            ),
            (
                "max_pattern_edges",
                MineRequest::new(Algorithm::Moss).max_pattern_edges(0),
            ),
            (
                "max_embeddings",
                MineRequest::new(Algorithm::Moss).max_embeddings(0),
            ),
            (
                "threads",
                MineRequest::new(Algorithm::SpiderMine).threads(0),
            ),
            (
                "threads",
                MineRequest::new(Algorithm::SpiderMine).threads(rayon::MAX_WORKERS + 1),
            ),
            (
                "deadline_ms",
                MineRequest::new(Algorithm::SpiderMine).deadline_ms(0),
            ),
        ];
        for (field, request) in cases {
            match request.validate() {
                Err(MineError::InvalidConfig { field: f, .. }) => {
                    assert_eq!(f, field, "wrong field named");
                }
                other => panic!("expected InvalidConfig for {field}, got {other:?}"),
            }
        }
    }

    #[test]
    fn canonical_key_covers_every_result_affecting_field() {
        let base = || MineRequest::new(Algorithm::SpiderMine);
        let key = base().canonical_key();
        // Each result-affecting knob moves the key.
        let variants = [
            base().support_threshold(3).canonical_key(),
            base().k(4).canonical_key(),
            base().epsilon(0.2).canonical_key(),
            base().d_max(5).canonical_key(),
            base().radius(2).canonical_key(),
            base().seed(1).canonical_key(),
            base()
                .support_measure(SupportMeasure::GreedyDisjoint)
                .canonical_key(),
            base().time_budget(Duration::from_secs(1)).canonical_key(),
            base().max_pattern_edges(9).canonical_key(),
            base().max_embeddings(9).canonical_key(),
            base().deadline_ms(100).canonical_key(),
            MineRequest::new(Algorithm::Moss).canonical_key(),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(&key, v, "variant {i} did not move the key");
        }
        // Equal requests agree; `threads` is excluded by design (results are
        // width-independent, so runs at different widths share a cache slot).
        assert_eq!(key, base().canonical_key());
        assert_eq!(key, base().threads(4).canonical_key());
    }

    #[test]
    fn algorithm_names_round_trip() {
        for algo in Algorithm::all() {
            assert_eq!(algo.name().parse::<Algorithm>().unwrap(), algo);
        }
        assert!("frobnicate".parse::<Algorithm>().is_err());
    }

    #[test]
    fn request_maps_onto_spidermine_config() {
        let config = MineRequest::new(Algorithm::SpiderMine)
            .support_threshold(3)
            .k(7)
            .epsilon(0.05)
            .d_max(6)
            .seed(42)
            .support_measure(SupportMeasure::GreedyDisjoint)
            .spidermine_config();
        assert_eq!(config.support_threshold, 3);
        assert_eq!(config.k, 7);
        assert_eq!(config.epsilon, 0.05);
        assert_eq!(config.d_max, 6);
        assert_eq!(config.rng_seed, 42);
        assert_eq!(config.support_measure, SupportMeasure::GreedyDisjoint);
        assert!(config.validate().is_ok());
    }

    #[test]
    fn support_measure_flows_into_moss_and_defaults_apply() {
        let request =
            MineRequest::new(Algorithm::Moss).support_measure(SupportMeasure::MinimumImage);
        assert_eq!(
            request.moss_config().support_measure,
            SupportMeasure::MinimumImage
        );
        // Unset: per-algorithm defaults survive.
        let request = MineRequest::new(Algorithm::Moss);
        assert_eq!(
            request.moss_config().support_measure,
            MossConfig::default().support_measure
        );
        assert_eq!(
            MineRequest::new(Algorithm::SpiderMine)
                .spidermine_config()
                .support_measure,
            SpiderMineConfig::default().support_measure
        );
    }
}
