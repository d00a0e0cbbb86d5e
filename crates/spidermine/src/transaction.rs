//! Adaptation of SpiderMine to the graph-transaction setting.
//!
//! The paper notes (Section 2) that SpiderMine "can be adapted to
//! graph-transaction setting with no difficulty": treat the database as the
//! disjoint union of its transactions, mine with the single-graph machinery,
//! and count support as the number of *transactions* containing the pattern.
//! Figures 14–15 compare this adaptation against ORIGAMI.

use crate::config::SpiderMineConfig;
use crate::miner::SpiderMiner;
use crate::result::{MinedPattern, MiningStats};
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::transaction::GraphDatabase;
use spidermine_mining::context::{MineContext, StreamedPattern};
use spidermine_mining::pattern_index::PatternIndex;

/// One pattern mined from a transaction database.
#[derive(Clone, Debug)]
pub struct TransactionPattern {
    /// The pattern graph.
    pub pattern: LabeledGraph,
    /// Number of transactions containing at least one embedding.
    pub transaction_support: usize,
}

/// Result of mining a transaction database.
#[derive(Clone, Debug, Default)]
pub struct TransactionMiningResult {
    /// Top-K patterns by size whose transaction support meets the threshold.
    pub patterns: Vec<TransactionPattern>,
    /// Statistics of the underlying single-graph run.
    pub stats: MiningStats,
}

impl TransactionMiningResult {
    /// Histogram of pattern sizes in vertices (what Figures 14–15 plot).
    pub fn size_histogram_vertices(&self) -> std::collections::BTreeMap<usize, usize> {
        let mut hist = std::collections::BTreeMap::new();
        for p in &self.patterns {
            *hist.entry(p.pattern.vertex_count()).or_insert(0) += 1;
        }
        hist
    }
}

/// SpiderMine for graph-transaction databases.
#[derive(Clone, Debug)]
pub struct TransactionMiner {
    config: SpiderMineConfig,
}

impl TransactionMiner {
    /// Creates a transaction-setting miner. `config.support_threshold` is the
    /// minimum number of supporting *transactions*.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SpiderMineConfig::validate`]). The engine API
    /// (`spidermine-engine`) reports the same conditions as a recoverable
    /// `MineError::InvalidConfig` instead.
    pub fn new(config: SpiderMineConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid SpiderMine configuration: {msg}");
        }
        Self { config }
    }

    /// Mines the approximate top-K largest patterns of `db` under an
    /// execution context. The inner
    /// single-graph run shares the context's cancel token (so a fired token
    /// also stops the inner stages) and contributes its per-stage timings;
    /// the final re-ranked patterns stream through the context's sink.
    pub fn mine_with(&self, db: &GraphDatabase, ctx: &mut MineContext) -> TransactionMiningResult {
        if db.is_empty() {
            return TransactionMiningResult::default();
        }
        let (union, _owner) = db.to_union_graph();
        // Over-fetch from the single-graph miner, then re-rank by transaction
        // support: a pattern embedded several times inside one transaction
        // must not be over-counted.
        let inner_config = SpiderMineConfig {
            k: (self.config.k * 3).max(self.config.k + 4),
            ..self.config.clone()
        };
        // The inner run gets its own context wired to the same cancel token:
        // its streamed patterns are raw union-graph candidates, not the
        // transaction-ranked result, so they must not reach the outer sink.
        let mut inner_ctx = MineContext::with_cancel(ctx.cancel_token());
        let inner = SpiderMiner::new(inner_config).mine_with(&union, &mut inner_ctx);
        for t in inner_ctx.take_timings() {
            ctx.record_stage(t.stage, t.elapsed);
        }
        let rerank_start = std::time::Instant::now();
        // Transaction support is a pure function of the isomorphism class, so
        // memoizing it per canonical pattern is exact: isomorphic candidates
        // cost one subgraph-isomorphism sweep over the database, not one each.
        // `supports[id]` is the support of the class `classes` calls `id`.
        let mut classes = PatternIndex::new();
        let mut supports: Vec<usize> = Vec::new();
        let mut patterns: Vec<TransactionPattern> = inner
            .patterns
            .iter()
            .map(|p: &MinedPattern| {
                let transaction_support = match classes.find(&p.pattern) {
                    Some(id) => supports[id],
                    None => {
                        let support = db.support(&p.pattern);
                        classes.insert(p.pattern.clone());
                        supports.push(support);
                        support
                    }
                };
                TransactionPattern {
                    pattern: p.pattern.clone(),
                    transaction_support,
                }
            })
            .filter(|p| p.transaction_support >= self.config.support_threshold)
            .collect();
        patterns
            .sort_by_key(|p| std::cmp::Reverse((p.pattern.edge_count(), p.pattern.vertex_count())));
        patterns.truncate(self.config.k);
        ctx.record_stage("rerank", rerank_start.elapsed());
        for p in &patterns {
            ctx.emit_with(|| StreamedPattern {
                pattern: p.pattern.clone(),
                support: p.transaction_support,
                embeddings: Vec::new(),
            });
        }
        // `cancelled` comes from the inner run (which shares the token): a
        // token fired only after the work completed must not mark a complete
        // result as partial.
        TransactionMiningResult {
            patterns,
            stats: inner.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spidermine_graph::generate;

    fn planted_db(transactions: usize, seed: u64) -> (GraphDatabase, LabeledGraph) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let pattern = generate::random_connected_pattern(&mut rng, 8, 30, 2);
        let mut db = GraphDatabase::default();
        for _ in 0..transactions {
            let mut g = generate::erdos_renyi_average_degree(&mut rng, 60, 2.0, 30);
            generate::inject_pattern(&mut rng, &mut g, &pattern, 1, 2);
            db.push(g);
        }
        (db, pattern)
    }

    fn config(k: usize, sigma: usize) -> SpiderMineConfig {
        SpiderMineConfig {
            support_threshold: sigma,
            k,
            d_max: 8,
            rng_seed: 3,
            ..SpiderMineConfig::default()
        }
    }

    #[test]
    fn mines_pattern_shared_across_transactions() {
        let (db, pattern) = planted_db(4, 9);
        let result = TransactionMiner::new(config(5, 3)).mine_with(&db, &mut MineContext::new());
        assert!(!result.patterns.is_empty());
        let largest = &result.patterns[0];
        assert!(largest.transaction_support >= 3);
        assert!(
            largest.pattern.vertex_count() >= pattern.vertex_count() / 2,
            "largest transaction pattern too small: {} vs planted {}",
            largest.pattern.vertex_count(),
            pattern.vertex_count()
        );
    }

    #[test]
    fn transaction_support_is_not_embedding_count() {
        let (db, _) = planted_db(3, 21);
        let result = TransactionMiner::new(config(5, 2)).mine_with(&db, &mut MineContext::new());
        for p in &result.patterns {
            assert!(p.transaction_support <= db.len());
        }
    }

    #[test]
    fn empty_database_returns_nothing() {
        let result = TransactionMiner::new(config(3, 2))
            .mine_with(&GraphDatabase::default(), &mut MineContext::new());
        assert!(result.patterns.is_empty());
    }

    #[test]
    fn k_is_respected() {
        let (db, _) = planted_db(3, 33);
        let result = TransactionMiner::new(config(2, 2)).mine_with(&db, &mut MineContext::new());
        assert!(result.patterns.len() <= 2);
    }
}
