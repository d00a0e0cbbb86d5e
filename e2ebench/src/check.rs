//! Output checks: every fresh mine is checked against SpiderMine's output
//! contract, and every served outcome against the in-process outcome of its
//! key.

use spidermine_engine::wire::encode_outcome_semantic;
use spidermine_engine::MineOutcome;
use spidermine_graph::{traversal, LabeledGraph, VertexId};
use std::collections::HashSet;

/// The request parameters a fresh outcome is held to.
#[derive(Clone, Copy, Debug)]
pub struct Contract {
    pub k: usize,
    pub sigma: usize,
    pub d_max: u32,
}

/// Checks a complete fresh mine: at most K patterns, each with support
/// ≥ σ and every embedding a valid injective, label- and edge-preserving map
/// into the host. Returns how many patterns have a diameter above Dmax:
/// Dmax bounds the patterns the paper's guarantee covers, but the miner
/// does not filter its output by it (Stage II growth and closure refinement
/// can overshoot), so an overshoot is counted, not failed.
pub fn validate_mine(
    host: &LabeledGraph,
    outcome: &MineOutcome,
    contract: Contract,
) -> Result<usize, String> {
    if outcome.cancelled || outcome.timed_out {
        return Err("fresh mine did not run to completion".into());
    }
    if outcome.patterns.len() > contract.k {
        return Err(format!(
            "{} patterns returned for K = {}",
            outcome.patterns.len(),
            contract.k
        ));
    }
    let mut over_d_max = 0;
    for (i, p) in outcome.patterns.iter().enumerate() {
        if p.support < contract.sigma {
            return Err(format!("pattern {i}: support {} < σ", p.support));
        }
        if traversal::diameter(&p.pattern) > contract.d_max {
            over_d_max += 1;
        }
        for (j, row) in p.embeddings.iter().enumerate() {
            check_embedding(host, &p.pattern, row)
                .map_err(|why| format!("pattern {i} embedding {j}: {why}"))?;
        }
    }
    Ok(over_d_max)
}

fn check_embedding(
    host: &LabeledGraph,
    pattern: &LabeledGraph,
    row: &[VertexId],
) -> Result<(), String> {
    if row.len() != pattern.vertex_count() {
        return Err(format!(
            "{} images for {} vertices",
            row.len(),
            pattern.vertex_count()
        ));
    }
    if row.iter().any(|v| v.index() >= host.vertex_count()) {
        return Err("image outside the host".into());
    }
    if row.iter().collect::<HashSet<_>>().len() != row.len() {
        return Err("not injective".into());
    }
    for v in pattern.vertices() {
        if pattern.label(v) != host.label(row[v.index()]) {
            return Err(format!("label of vertex {} differs", v.0));
        }
    }
    for (u, v) in pattern.edges() {
        if !host.has_edge(row[u.index()], row[v.index()]) {
            return Err(format!("edge ({}, {}) has no host edge", u.0, v.0));
        }
    }
    Ok(())
}

/// Byte identity under the engine's semantic encoding.
pub fn semantic_eq(a: &MineOutcome, b: &MineOutcome) -> bool {
    encode_outcome_semantic(a) == encode_outcome_semantic(b)
}
