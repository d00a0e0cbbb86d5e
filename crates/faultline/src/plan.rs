//! Fault plans: which fault fires where, and on which operation.
//!
//! A [`FaultPlan`] is a small list of [`FaultRule`]s. Each rule names an
//! instrumented [`FaultSite`], the zero-based index of the operation at
//! that site that should fail (`nth`), and the [`FaultKind`] to inject.
//! Plans are either derived deterministically from a seed
//! ([`FaultPlan::random`] / [`FaultPlan::random_for`]) or written by hand
//! in the compact spec syntax accepted by [`FaultPlan::parse`]:
//!
//! ```text
//! disk-read:0:error, wire-write:2:disconnect, exec:1:panic
//! site:nth:kind[=arg]
//! ```
//!
//! Kinds with an argument: `bitflip=BIT`, `truncate=PERMILLE`,
//! `delay=MS`, `stall=MS`. `Display` prints the same syntax back, so a
//! failing run's plan can be pasted into `--fault-plan` verbatim.

use crate::retry::splitmix64;
use std::fmt;

/// An instrumented I/O or execution boundary that faults can target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Snapshot header probe (`graph::io::probe_snapshot`).
    DiskProbe,
    /// Snapshot read (`graph::io::load_snapshot`).
    DiskRead,
    /// Snapshot persistence (`graph::io::atomic_write`).
    DiskWrite,
    /// Wire reads: socket reads feeding `transport::frame::read_frame`.
    WireRead,
    /// Wire writes: server writer loop and client `send_frame`.
    WireWrite,
    /// Job execution inside the scheduler's leader run.
    ExecRun,
}

impl FaultSite {
    /// All sites, in counter-array order. `as usize` indexes this array.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::DiskProbe,
        FaultSite::DiskRead,
        FaultSite::DiskWrite,
        FaultSite::WireRead,
        FaultSite::WireWrite,
        FaultSite::ExecRun,
    ];

    /// The spec-syntax name (`disk-read`, `wire-write`, `exec`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::DiskProbe => "disk-probe",
            FaultSite::DiskRead => "disk-read",
            FaultSite::DiskWrite => "disk-write",
            FaultSite::WireRead => "wire-read",
            FaultSite::WireWrite => "wire-write",
            FaultSite::ExecRun => "exec",
        }
    }

    fn from_name(name: &str) -> Option<FaultSite> {
        Self::ALL.iter().copied().find(|s| s.name() == name)
    }

    /// Fault kinds that make sense at this site. Random plan generation
    /// draws from this set; `parse` rejects incompatible pairs.
    pub fn supported_kinds(self) -> &'static [&'static str] {
        match self {
            FaultSite::DiskProbe => &["error", "delay"],
            FaultSite::DiskRead => &["error", "bitflip", "truncate", "delay"],
            FaultSite::DiskWrite => &["error", "delay"],
            FaultSite::WireRead => &["error", "bitflip", "truncate", "disconnect", "delay"],
            FaultSite::WireWrite => &["error", "disconnect", "delay"],
            FaultSite::ExecRun => &["panic", "stall"],
        }
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happens when a rule fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The operation fails with a *transient*-class error (an I/O error on
    /// disk, a connection error on the wire). Retry policies may retry it.
    Error,
    /// One bit of the operation's buffer is flipped before validation.
    /// Downstream checksums classify the result as *permanent* corruption.
    BitFlip {
        /// Bit index; reduced modulo the buffer's bit length when applied.
        bit: u64,
    },
    /// The operation's buffer is cut short: only `permille`/1000 of the
    /// bytes survive. Exercises short-read / short-frame handling.
    Truncate {
        /// Surviving fraction of the buffer, in thousandths (0..=999).
        permille: u16,
    },
    /// The operation is delayed by `ms` milliseconds, then proceeds
    /// normally. Exercises timeout and liveness paths.
    Delay {
        /// Injected latency in milliseconds.
        ms: u16,
    },
    /// The connection is severed mid-stream (wire sites only).
    Disconnect,
    /// The job panics mid-run (execution site only); the scheduler's
    /// panic isolation and retry policy take over.
    Panic,
    /// The job stalls for `ms` milliseconds mid-run, then continues.
    /// Exercises deadline/cancellation behaviour without failing.
    Stall {
        /// Injected stall in milliseconds.
        ms: u16,
    },
}

impl FaultKind {
    fn spec_name(self) -> &'static str {
        match self {
            FaultKind::Error => "error",
            FaultKind::BitFlip { .. } => "bitflip",
            FaultKind::Truncate { .. } => "truncate",
            FaultKind::Delay { .. } => "delay",
            FaultKind::Disconnect => "disconnect",
            FaultKind::Panic => "panic",
            FaultKind::Stall { .. } => "stall",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            FaultKind::BitFlip { bit } => write!(f, "bitflip={bit}"),
            FaultKind::Truncate { permille } => write!(f, "truncate={permille}"),
            FaultKind::Delay { ms } => write!(f, "delay={ms}"),
            FaultKind::Stall { ms } => write!(f, "stall={ms}"),
            other => f.write_str(other.spec_name()),
        }
    }
}

/// One scheduled fault: the `nth` operation at `site` suffers `kind`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultRule {
    /// Boundary the fault targets.
    pub site: FaultSite,
    /// Zero-based index of the operation at `site` that fires the rule.
    pub nth: u64,
    /// The fault to inject.
    pub kind: FaultKind,
}

impl fmt::Display for FaultRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}:{}", self.site, self.nth, self.kind)
    }
}

/// A seeded schedule of faults, installable via
/// [`FaultInjector::install`](crate::FaultInjector::install).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The rules, in no particular order; each fires at most once.
    pub rules: Vec<FaultRule>,
}

/// Maximum injected latency/stall in randomly generated plans, so fault
/// sweeps stay fast even at hundreds of plans.
const MAX_RANDOM_MS: u16 = 30;

impl FaultPlan {
    /// An empty plan (installing it arms the injector but fires nothing).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Derive a plan deterministically from `seed`, drawing sites from
    /// the full set.
    pub fn random(seed: u64) -> FaultPlan {
        FaultPlan::random_for(seed, &FaultSite::ALL)
    }

    /// Derive a plan deterministically from `seed`, restricted to
    /// `sites`. Produces 1–3 rules with small `nth` (0..6) and bounded
    /// delays, which is the profile the fault-sweep suite wants: faults
    /// that actually land on the handful of operations a small run does.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn random_for(seed: u64, sites: &[FaultSite]) -> FaultPlan {
        assert!(!sites.is_empty(), "random_for needs at least one site");
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            splitmix64(state)
        };
        let n_rules = 1 + (next() % 3) as usize;
        let mut rules = Vec::with_capacity(n_rules);
        for _ in 0..n_rules {
            let site = sites[(next() % sites.len() as u64) as usize];
            let kinds = site.supported_kinds();
            let kind_name = kinds[(next() % kinds.len() as u64) as usize];
            let arg = next();
            let kind = match kind_name {
                "error" => FaultKind::Error,
                "bitflip" => FaultKind::BitFlip { bit: arg },
                "truncate" => FaultKind::Truncate {
                    permille: (arg % 1000) as u16,
                },
                "delay" => FaultKind::Delay {
                    ms: (arg % MAX_RANDOM_MS as u64) as u16,
                },
                "disconnect" => FaultKind::Disconnect,
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall {
                    ms: (arg % MAX_RANDOM_MS as u64) as u16,
                },
                _ => unreachable!("supported_kinds names are exhaustive"),
            };
            rules.push(FaultRule {
                site,
                nth: next() % 6,
                kind,
            });
        }
        FaultPlan { rules }
    }

    /// Parse the compact spec syntax: comma- or whitespace-separated
    /// `site:nth:kind[=arg]` rules. Returns a human-readable error for
    /// unknown sites/kinds, malformed numbers, or site-incompatible
    /// kinds.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut rules = Vec::new();
        for raw in spec.split([',', ' ', '\t']).filter(|s| !s.is_empty()) {
            let mut parts = raw.splitn(3, ':');
            let (site, nth, kind) = match (parts.next(), parts.next(), parts.next()) {
                (Some(s), Some(n), Some(k)) => (s, n, k),
                _ => return Err(format!("rule `{raw}`: expected site:nth:kind[=arg]")),
            };
            let site = FaultSite::from_name(site).ok_or_else(|| {
                let names: Vec<_> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                format!(
                    "rule `{raw}`: unknown site `{site}` (one of {})",
                    names.join(", ")
                )
            })?;
            let nth: u64 = nth
                .parse()
                .map_err(|_| format!("rule `{raw}`: bad operation index `{nth}`"))?;
            let (kind_name, arg) = match kind.split_once('=') {
                Some((k, a)) => (k, Some(a)),
                None => (kind, None),
            };
            let parse_arg = |what: &str| -> Result<u64, String> {
                arg.ok_or_else(|| format!("rule `{raw}`: `{kind_name}` needs =<{what}>"))?
                    .parse()
                    .map_err(|_| format!("rule `{raw}`: bad {what} argument"))
            };
            let kind = match kind_name {
                "error" => FaultKind::Error,
                "bitflip" => FaultKind::BitFlip {
                    bit: parse_arg("bit")?,
                },
                "truncate" => {
                    let p = parse_arg("permille")?;
                    if p > 999 {
                        return Err(format!("rule `{raw}`: truncate permille must be 0..=999"));
                    }
                    FaultKind::Truncate { permille: p as u16 }
                }
                "delay" => FaultKind::Delay {
                    ms: parse_arg("ms")?.min(u16::MAX as u64) as u16,
                },
                "disconnect" => FaultKind::Disconnect,
                "panic" => FaultKind::Panic,
                "stall" => FaultKind::Stall {
                    ms: parse_arg("ms")?.min(u16::MAX as u64) as u16,
                },
                other => return Err(format!("rule `{raw}`: unknown fault kind `{other}`")),
            };
            if !site.supported_kinds().contains(&kind_name) {
                return Err(format!(
                    "rule `{raw}`: `{kind_name}` is not supported at site `{site}` (supported: {})",
                    site.supported_kinds().join(", ")
                ));
            }
            rules.push(FaultRule { site, nth, kind });
        }
        if rules.is_empty() {
            return Err("empty fault plan spec".to_string());
        }
        Ok(FaultPlan { rules })
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, rule) in self.rules.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{rule}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_plans_are_deterministic_and_site_compatible() {
        for seed in 0..500 {
            let a = FaultPlan::random(seed);
            let b = FaultPlan::random(seed);
            assert_eq!(a, b, "seed {seed} not reproducible");
            assert!(!a.rules.is_empty());
            for rule in &a.rules {
                assert!(
                    rule.site.supported_kinds().contains(&rule.kind.spec_name()),
                    "seed {seed}: {rule} pairs an unsupported kind with its site"
                );
            }
        }
        assert_ne!(FaultPlan::random(1), FaultPlan::random(2));
    }

    #[test]
    fn display_round_trips_through_parse() {
        for seed in 0..200 {
            let plan = FaultPlan::random(seed);
            let spec = plan.to_string();
            let reparsed = FaultPlan::parse(&spec)
                .unwrap_or_else(|e| panic!("seed {seed}: spec `{spec}` failed to re-parse: {e}"));
            assert_eq!(plan, reparsed, "seed {seed}: `{spec}`");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "disk-read",
            "disk-read:0",
            "nowhere:0:error",
            "disk-read:x:error",
            "disk-read:0:frobnicate",
            "disk-read:0:bitflip",       // missing =bit
            "disk-read:0:truncate=1000", // permille out of range
            "exec:0:error",              // kind not supported at site
            "disk-probe:0:panic",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` should not parse");
        }
    }

    #[test]
    fn parse_accepts_mixed_separators() {
        let plan = FaultPlan::parse("disk-read:0:error, wire-write:2:disconnect exec:1:stall=5")
            .expect("valid spec");
        assert_eq!(plan.rules.len(), 3);
        assert_eq!(plan.rules[2].kind, FaultKind::Stall { ms: 5 });
    }
}
