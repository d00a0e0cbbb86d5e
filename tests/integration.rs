//! End-to-end integration tests spanning the whole workspace: datasets →
//! SpiderMine → results, on configurations shaped like the paper's evaluation
//! (scaled down so the suite stays fast).

use spidermine::{SpiderMineConfig, SpiderMiner, TransactionMiner};
use spidermine_datasets::synthetic::{GidConfig, SyntheticDataset};
use spidermine_datasets::transactions::{TransactionConfig, TransactionDataset};
use spidermine_engine::MineContext;
use spidermine_graph::traversal;
use spidermine_mining::embedding::EmbeddedPattern;

/// A GID-1-like dataset scaled down for test speed: same structure
/// (ER background, injected 30-vertex large patterns with 2 embeddings,
/// small distractors), smaller background.
fn small_gid_like() -> SyntheticDataset {
    let config = GidConfig {
        gid: 1,
        vertices: 250,
        labels: 60,
        average_degree: 2.0,
        large_patterns: 2,
        large_pattern_vertices: 20,
        large_support: 2,
        small_patterns: 5,
        small_pattern_vertices: 3,
        small_support: 2,
        large_pattern_diameter: 4,
    };
    SyntheticDataset::build(config, 99)
}

fn default_miner(k: usize, d_max: u32) -> SpiderMiner {
    SpiderMiner::new(SpiderMineConfig {
        support_threshold: 2,
        k,
        d_max,
        rng_seed: 7,
        ..SpiderMineConfig::default()
    })
}

#[test]
fn spidermine_recovers_large_planted_patterns_from_gid_style_data() {
    let dataset = small_gid_like();
    let result = default_miner(10, 6).mine_with(&dataset.graph, &mut MineContext::new());
    assert!(!result.patterns.is_empty(), "mining returned nothing");
    // The largest returned pattern should be in the ballpark of the injected
    // 20-vertex patterns, far larger than the 3-vertex distractors.
    assert!(
        result.largest_vertices() >= 12,
        "largest pattern only has {} vertices",
        result.largest_vertices()
    );
    // Every returned pattern respects the support threshold and carries valid
    // embeddings.
    for p in &result.patterns {
        assert!(p.support >= 2);
        let ep = EmbeddedPattern::new(p.pattern.clone(), p.embeddings.clone());
        assert!(ep.validate_against(&dataset.graph));
        assert!(traversal::is_connected(&p.pattern));
    }
}

#[test]
fn spidermine_beats_the_small_distractors() {
    let dataset = small_gid_like();
    let result = default_miner(5, 6).mine_with(&dataset.graph, &mut MineContext::new());
    let distractor_size = dataset.config.small_pattern_vertices;
    // At least the top pattern must exceed every distractor.
    assert!(result.largest_vertices() > distractor_size);
}

#[test]
fn stats_reflect_the_three_stages() {
    let dataset = small_gid_like();
    let result = default_miner(5, 6).mine_with(&dataset.graph, &mut MineContext::new());
    let stats = &result.stats;
    assert!(stats.spider_count > 0, "Stage I produced no spiders");
    assert!(stats.seed_count >= 2, "Stage II drew fewer than 2 seeds");
    assert_eq!(stats.stage_two_iterations, 3, "Dmax=6, r=1 -> 3 iterations");
    assert!(stats.total_time >= stats.stage_one_time);
}

#[test]
fn diameter_of_returned_patterns_is_controlled() {
    let dataset = small_gid_like();
    let d_max = 6;
    let result = default_miner(5, d_max).mine_with(&dataset.graph, &mut MineContext::new());
    for p in &result.patterns {
        // Growth stops once the bound is reached; a single extra layer may
        // overshoot by at most 2 (see DESIGN.md), never more.
        assert!(
            p.diameter <= d_max + 2,
            "pattern diameter {} far exceeds Dmax {}",
            p.diameter,
            d_max
        );
    }
}

#[test]
fn transaction_setting_end_to_end() {
    let config = TransactionConfig {
        transactions: 5,
        vertices_per_transaction: 70,
        average_degree: 3.0,
        labels: 30,
        large_patterns: 2,
        large_pattern_vertices: 12,
        large_pattern_transactions: 4,
        small_patterns: 5,
        small_pattern_vertices: 4,
        small_pattern_transactions: 3,
    };
    let dataset = TransactionDataset::build(config, 55);
    let result = TransactionMiner::new(SpiderMineConfig {
        support_threshold: 3,
        k: 5,
        d_max: 6,
        rng_seed: 7,
        ..SpiderMineConfig::default()
    })
    .mine_with(&dataset.database, &mut MineContext::new());
    assert!(!result.patterns.is_empty());
    for p in &result.patterns {
        assert!(p.transaction_support >= 3);
        assert!(p.transaction_support <= dataset.database.len());
    }
    // The top pattern should be clearly larger than the small distractors.
    assert!(result.patterns[0].pattern.vertex_count() >= 6);
}

#[test]
fn mining_is_reproducible_across_runs() {
    let dataset = small_gid_like();
    let a = default_miner(5, 6).mine_with(&dataset.graph, &mut MineContext::new());
    let b = default_miner(5, 6).mine_with(&dataset.graph, &mut MineContext::new());
    let key = |r: &spidermine::MiningResult| -> Vec<(usize, usize, usize)> {
        r.patterns
            .iter()
            .map(|p| (p.size_vertices(), p.size_edges(), p.support))
            .collect()
    };
    assert_eq!(key(&a), key(&b));
}
