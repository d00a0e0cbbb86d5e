//! Shared plumbing for the per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper's
//! evaluation section (see DESIGN.md for the index). They all follow the same
//! conventions:
//!
//! * deterministic seeds, so two runs print the same rows;
//! * a `--full` flag to run at the paper's original sizes — the default is a
//!   scaled-down configuration that finishes in seconds to a few minutes on a
//!   laptop;
//! * plain text rows on stdout shaped like the paper's tables/series.

use std::collections::BTreeMap;
use std::time::Duration;

/// Scale factor selected on the command line: `--full` means 1.0 (the paper's
/// sizes); otherwise `default_scale` is used. An explicit `--scale X` wins.
pub fn scale_from_args(default_scale: f64) -> f64 {
    let args: Vec<String> = std::env::args().collect();
    if let Some(pos) = args.iter().position(|a| a == "--scale") {
        if let Some(v) = args.get(pos + 1).and_then(|s| s.parse::<f64>().ok()) {
            return v.clamp(0.01, 1.0);
        }
    }
    if args.iter().any(|a| a == "--full") {
        1.0
    } else {
        default_scale
    }
}

/// True when `--full` was passed.
pub fn is_full_run() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Prints a section header.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Prints a histogram as `size -> count` rows, the shape of Figures 4–8,
/// 14–15, 20–21.
pub fn print_histogram(name: &str, histogram: &BTreeMap<usize, usize>) {
    if histogram.is_empty() {
        println!("  {name:<12} (no patterns)");
        return;
    }
    for (size, count) in histogram {
        println!("  {name:<12} size={size:<4} count={count}");
    }
}

/// Formats a runtime like the paper's runtime tables; `None` renders as "-"
/// (the paper's marker for runs that did not finish).
pub fn format_runtime(runtime: Option<Duration>) -> String {
    match runtime {
        Some(d) => format!("{:.3}s", d.as_secs_f64()),
        None => "-".to_owned(),
    }
}

/// A fixed seed shared by the experiment binaries so figures are reproducible.
pub const EXPERIMENT_SEED: u64 = 20110829; // VLDB 2011 started August 29.

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn format_runtime_renders_dash_for_timeouts() {
        assert_eq!(format_runtime(None), "-");
        assert_eq!(format_runtime(Some(Duration::from_millis(1500))), "1.500s");
    }

    #[test]
    fn scale_default_is_used_without_flags() {
        // The test binary's args contain no --full/--scale.
        let s = scale_from_args(0.3);
        assert!((s - 0.3).abs() < 1e-12);
        assert!(!is_full_run());
    }

    #[test]
    fn print_helpers_do_not_panic() {
        header("smoke");
        print_histogram("empty", &BTreeMap::new());
        let mut h = BTreeMap::new();
        h.insert(3, 2);
        print_histogram("demo", &h);
    }
}
