//! Root crate of the SpiderMine reproduction workspace.
//!
//! This crate exists to host the workspace-wide integration tests in
//! `tests/` (end-to-end mining runs, cross-miner comparisons, property-based
//! invariants, matcher equivalence). The actual library code lives in the
//! `crates/` members:
//!
//! * `spidermine-graph` — labeled-graph substrate, CSR index, VF2 matcher.
//! * `spidermine-mining` — embeddings, support measures, spider mining.
//! * `spidermine` — the three-stage SpiderMine algorithm.
//! * `spidermine-baselines` — SUBDUE / SEuS / MoSS / ORIGAMI comparators.
//! * `spidermine-engine` — the unified engine API: validated requests
//!   (`MineRequest` → `Engine`), cancellation, progress, streaming over all
//!   six miners.
//! * `spidermine-datasets` — synthetic + real-shaped dataset builders.
//! * `spidermine-experiments` — per-figure experiment binaries.
//! * `spidermine-bench` — Criterion benchmarks (see `BENCH_embedding.json`
//!   and `BENCH_engine.json`).
//!
//! See `DESIGN.md` for the architecture notes and `ROADMAP.md` for direction.
