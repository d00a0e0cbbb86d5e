//! The three-stage SpiderMine driver (Algorithm 1 of the paper).

use crate::closure;
use crate::config::SpiderMineConfig;
use crate::grow::{self, GrownPattern};
use crate::merge;
use crate::result::{mined_pattern, MiningResult, MiningStats};
use crate::seeding;
use rayon::prelude::*;
use rustc_hash::FxHashSet;
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::traversal;
use spidermine_mining::context::{MineContext, ProgressEvent, StreamedPattern};
use spidermine_mining::eval::{EmbeddingSetId, EmbeddingStore};
use spidermine_mining::pattern_index::PatternIndex;
use spidermine_mining::spider::{SpiderCatalog, SpiderMiningConfig};
use std::time::Instant;

/// Safety cap on Stage III growth rounds.
const MAX_STAGE_THREE_ROUNDS: usize = 64;

/// Embedding-arena compaction trigger: pool size (in `VertexId`s) above which
/// dead sets are worth reclaiming at an iteration boundary.
const STORE_COMPACT_MIN: usize = 1 << 18;

/// Compacts the run's embedding arena once dead sets dominate, remapping the
/// handles of every live pattern group in place. Called only at sequential
/// iteration boundaries.
fn maybe_compact_store(store: &mut EmbeddingStore, groups: &mut [&mut Vec<GrownPattern>]) {
    let live: Vec<EmbeddingSetId> = groups
        .iter()
        .flat_map(|g| g.iter().map(|p| p.embeddings))
        .collect();
    if let Some(remap) = store.maybe_compact(&live, STORE_COMPACT_MIN) {
        for g in groups.iter_mut() {
            for p in g.iter_mut() {
                p.embeddings = remap[&p.embeddings];
            }
        }
    }
}

/// The SpiderMine miner. Create it with a [`SpiderMineConfig`] and call
/// [`SpiderMiner::mine_with`].
#[derive(Clone, Debug)]
pub struct SpiderMiner {
    config: SpiderMineConfig,
}

impl SpiderMiner {
    /// Creates a miner with the given configuration.
    ///
    /// # Panics
    /// Panics if the configuration is invalid (see
    /// [`SpiderMineConfig::validate`]).
    pub fn new(config: SpiderMineConfig) -> Self {
        if let Err(msg) = config.validate() {
            panic!("invalid SpiderMine configuration: {msg}");
        }
        Self { config }
    }

    /// The configuration this miner runs with.
    pub fn config(&self) -> &SpiderMineConfig {
        &self.config
    }

    /// Mines the approximate top-K largest frequent patterns of `host`
    /// (Definition 3): with probability at least `1 - ε` the result contains
    /// every top-K largest pattern with support ≥ σ and diameter ≤ `Dmax`.
    ///
    /// The run follows `ctx`: its
    /// [`CancelToken`](spidermine_mining::context::CancelToken) is polled at
    /// every stage and iteration boundary (a fired token winds the run down
    /// and returns the patterns selected so far as a partial result), progress
    /// events fire per stage and per Stage II/III iteration, accepted patterns
    /// stream through the context's sink in acceptance order, and per-stage
    /// wall-clock timings are recorded into the context.
    pub fn mine_with(&self, host: &LabeledGraph, ctx: &mut MineContext) -> MiningResult {
        let config = &self.config;
        let total_start = Instant::now();
        let mut stats = MiningStats::default();
        // The run's embedding arena: every grown/merged/pooled pattern holds
        // an `EmbeddingSetId` into this store instead of an owned
        // `Vec<Embedding>`.
        let mut store = EmbeddingStore::new();

        // ---------------------------------------------------------------
        // Stage I: mine all r-spiders.
        // ---------------------------------------------------------------
        ctx.progress(ProgressEvent::StageStarted { stage: "spiders" });
        let stage_one_start = Instant::now();
        let catalog = SpiderCatalog::mine(
            host,
            &SpiderMiningConfig {
                support_threshold: config.support_threshold,
                max_leaves: config.max_spider_leaves,
                include_single_vertex: false,
                max_spiders: usize::MAX,
            },
        );
        stats.spider_count = catalog.len();
        stats.stage_one_time = stage_one_start.elapsed();
        ctx.record_stage("spiders", stats.stage_one_time);
        ctx.progress(ProgressEvent::StageFinished { stage: "spiders" });

        if catalog.is_empty() || host.vertex_count() == 0 || ctx.is_cancelled() {
            stats.cancelled = ctx.was_cancelled();
            stats.total_time = total_start.elapsed();
            return MiningResult {
                stats,
                ..MiningResult::default()
            };
        }

        // ---------------------------------------------------------------
        // Stage II: random seeding, iterative growth, merge detection.
        // ---------------------------------------------------------------
        ctx.progress(ProgressEvent::StageStarted { stage: "identify" });
        let stage_two_start = Instant::now();
        let v_min = ((host.vertex_count() as f64) * config.v_min_fraction).ceil() as usize;
        let m = config.seed_count_override.unwrap_or_else(|| {
            seeding::seed_count(host.vertex_count(), v_min.max(1), config.k, config.epsilon)
        });
        let seed_ids = seeding::random_seed_spiders(&catalog, m, config.rng_seed);
        stats.seed_count = seed_ids.len();

        // Seed-pattern embedding discovery is independent per seed spider:
        // fan it out (each worker fills an owned flat scratch buffer),
        // keeping seed order, then intern the frequent survivors into the
        // arena sequentially — deterministic.
        let mut patterns: Vec<GrownPattern> = seed_ids
            .par_iter()
            .map(|&id| {
                let (pattern, rows) = grow::seed_rows(host, catalog.get(id), config);
                let frequent =
                    rows.view().support(config.support_measure) >= config.support_threshold;
                frequent.then_some((id, pattern, rows))
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .map(|(id, pattern, rows)| GrownPattern {
                embeddings: store.insert_scratch(&rows),
                boundary: pattern.vertices().collect(),
                pattern,
                merged: false,
                seed_ids: vec![id],
                exhausted: false,
            })
            .collect();

        // A pool of everything ever discovered ("all the patterns discovered
        // so far are maintained in a list sorted by their size", Stage III).
        let mut pool: Vec<GrownPattern> = Vec::new();
        let mut pool_index = PatternIndex::new();
        let remember =
            |p: &GrownPattern, pool: &mut Vec<GrownPattern>, index: &mut PatternIndex| {
                let (_, fresh) = index.insert(p.pattern.clone());
                if fresh {
                    pool.push(p.clone());
                }
            };

        let iterations = config.stage_two_iterations();
        stats.stage_two_iterations = iterations;
        for iteration in 0..iterations {
            // A fired token ends identification early: the pool keeps every
            // pattern grown so far, so the final selection still returns a
            // meaningful partial result.
            if ctx.is_cancelled() {
                break;
            }
            // Each working pattern grows independently against a read-only
            // view of the arena (each `grow_layer` call owns its scratch
            // arenas, and its inner extension loops nest through the pool);
            // the per-worker output arenas are then span-stitched onto the
            // run's store in pattern order — `absorb_shards` moves the
            // shards' pool segments without copying a row, so the driver-side
            // merge is no longer the round's serial bottleneck.
            let growths: Vec<Option<grow::LayerGrowth>> = patterns
                .par_iter()
                .map(|p| {
                    (!p.exhausted).then(|| {
                        grow::grow_layer(host, &catalog, p, store.view(p.embeddings), config)
                    })
                })
                .collect();
            let mut shards: Vec<EmbeddingStore> = Vec::new();
            let mut variant_lists: Vec<Option<Vec<GrownPattern>>> =
                Vec::with_capacity(growths.len());
            for growth in growths {
                match growth {
                    None => variant_lists.push(None),
                    Some(g) => {
                        shards.push(g.arena);
                        variant_lists.push(Some(g.variants));
                    }
                }
            }
            let bases = store.absorb_shards(shards);
            let mut grown: Vec<GrownPattern> = Vec::new();
            let mut shard_at = 0usize;
            for (p, variants) in patterns.iter().zip(variant_lists) {
                match variants {
                    None => grown.push(p.clone()),
                    Some(variants) => {
                        let base = bases[shard_at];
                        shard_at += 1;
                        grown.extend(variants.into_iter().map(|mut v| {
                            v.embeddings = EmbeddingStore::rebased(v.embeddings, base);
                            v
                        }));
                    }
                }
            }
            let (merged, participating, merge_stats) =
                merge::check_merges(host, &grown, config, &mut store);
            stats.merges += merge_stats.merged_patterns;
            stats.iso_tests_pruned += merge_stats.iso_tests_pruned;
            stats.iso_tests_run += merge_stats.iso_tests_run;
            stats.merge_embeddings_dropped += merge_stats.dropped_embeddings;
            // Mark growth branches that took part in a merge so the Stage II
            // pruning keeps their lineage.
            let participating: FxHashSet<usize> = participating.into_iter().collect();
            for (idx, g) in grown.iter_mut().enumerate() {
                if participating.contains(&idx) {
                    g.merged = true;
                }
            }
            for g in &grown {
                remember(g, &mut pool, &mut pool_index);
            }
            for m in &merged {
                remember(m, &mut pool, &mut pool_index);
            }
            patterns = grown;
            patterns.extend(merged);
            // Keep the working set bounded: prefer merged, then larger patterns.
            patterns.sort_by_key(|p| {
                std::cmp::Reverse((p.merged as usize, p.size(), p.embedding_count(&store)))
            });
            let cap = (2 * stats.seed_count).max(4 * config.k).max(16);
            patterns.truncate(cap);
            maybe_compact_store(&mut store, &mut [&mut patterns, &mut pool]);
            ctx.progress(ProgressEvent::Iteration {
                stage: "identify",
                iteration: iteration as usize,
            });
        }

        // Prune unmerged patterns (Stage II, line 10 of Algorithm 1).
        let mut survivors: Vec<GrownPattern> =
            patterns.iter().filter(|p| p.merged).cloned().collect();
        if survivors.is_empty() && config.keep_unmerged_fallback {
            // Fallback documented in DESIGN.md: keep the largest grown
            // patterns so the miner still returns something useful when no
            // merge happened (e.g. tiny graphs or K patterns with a single
            // seed hit).
            let mut all = patterns.clone();
            all.sort_by_key(|p| std::cmp::Reverse(p.size()));
            survivors = all.into_iter().take(2 * config.k).collect();
        }
        stats.stage_two_time = stage_two_start.elapsed();
        ctx.record_stage("identify", stats.stage_two_time);
        ctx.progress(ProgressEvent::StageFinished { stage: "identify" });

        // ---------------------------------------------------------------
        // Stage III: grow survivors to exhaustion, return the K largest.
        // ---------------------------------------------------------------
        ctx.progress(ProgressEvent::StageStarted { stage: "recover" });
        let stage_three_start = Instant::now();
        let mut rounds = 0;
        loop {
            rounds += 1;
            if rounds > MAX_STAGE_THREE_ROUNDS || ctx.is_cancelled() {
                break;
            }
            let mut changed = false;
            let mut next: Vec<GrownPattern> = Vec::new();
            // Diameter checks and growth are independent per survivor; the
            // pool bookkeeping below stays sequential, in survivor order.
            let grown_per_survivor: Vec<Option<grow::LayerGrowth>> = survivors
                .par_iter()
                .map(|p| {
                    let stop_for_diameter = traversal::diameter(&p.pattern) >= config.d_max;
                    if p.exhausted || stop_for_diameter {
                        None
                    } else {
                        Some(grow::grow_layer(
                            host,
                            &catalog,
                            p,
                            store.view(p.embeddings),
                            config,
                        ))
                    }
                })
                .collect();
            // Span-stitch the survivors' output arenas in survivor order
            // (same zero-copy absorb as Stage II).
            let mut shards: Vec<EmbeddingStore> = Vec::new();
            let mut variant_lists: Vec<Option<Vec<GrownPattern>>> =
                Vec::with_capacity(grown_per_survivor.len());
            for growth in grown_per_survivor {
                match growth {
                    None => variant_lists.push(None),
                    Some(g) => {
                        shards.push(g.arena);
                        variant_lists.push(Some(g.variants));
                    }
                }
            }
            let bases = store.absorb_shards(shards);
            let mut shard_at = 0usize;
            for (p, variants) in survivors.iter().zip(variant_lists) {
                let Some(variants) = variants else {
                    next.push(p.clone());
                    continue;
                };
                let base = bases[shard_at];
                shard_at += 1;
                for mut g in variants {
                    g.embeddings = EmbeddingStore::rebased(g.embeddings, base);
                    if g.size() > p.size() {
                        changed = true;
                    }
                    remember(&g, &mut pool, &mut pool_index);
                    next.push(g);
                }
            }
            next.sort_by_key(|p| std::cmp::Reverse((p.size(), p.embedding_count(&store))));
            next.truncate((4 * config.k).max(16));
            survivors = next;
            maybe_compact_store(&mut store, &mut [&mut survivors, &mut pool]);
            ctx.progress(ProgressEvent::Iteration {
                stage: "recover",
                iteration: rounds - 1,
            });
            if !changed {
                break;
            }
        }
        for p in &survivors {
            remember(p, &mut pool, &mut pool_index);
        }
        stats.stage_three_time = stage_three_start.elapsed();
        ctx.record_stage("recover", stats.stage_three_time);
        ctx.progress(ProgressEvent::StageFinished { stage: "recover" });

        // Rank the pool, deduplicate by isomorphism (already done via the
        // pattern index) and return the K largest frequent patterns.
        ctx.progress(ProgressEvent::StageStarted { stage: "select" });
        let select_start = Instant::now();
        let mut result = MiningResult {
            stats,
            ..MiningResult::default()
        };
        pool.sort_by_key(|p| std::cmp::Reverse((p.size(), p.embedding_count(&store))));
        // Per-pattern support evaluation is independent, so each block of the
        // pool is evaluated in parallel — but block by block, so the scan
        // stays lazy: once K patterns are accepted the remaining (often much
        // larger) tail of the pool is never evaluated. Each support is a
        // pure function of the entry's own rows, so the parallel map is
        // deterministic.
        let block_size = (4 * config.k).max(16);
        'select: for block in pool.chunks(block_size) {
            let supports: Vec<usize> = block
                .par_iter()
                .map(|p| store.view(p.embeddings).support(config.support_measure))
                .collect();
            for (p, support) in block.iter().zip(supports) {
                if result.patterns.len() >= config.k || ctx.is_cancelled() {
                    break 'select;
                }
                if support < config.support_threshold {
                    continue;
                }
                let (pattern, _) = if config.closure_refinement {
                    closure::close_pattern_rows(
                        host,
                        &p.pattern,
                        store.view(p.embeddings).rows(),
                        config.support_threshold,
                    )
                } else {
                    (p.pattern.clone(), 0)
                };
                // Embeddings materialize out of the arena only here, once per
                // *accepted* pattern — the pool never owns embedding lists.
                let accepted = mined_pattern(
                    pattern,
                    support,
                    store.to_embeddings(p.embeddings),
                    p.merged,
                );
                // Stream the accepted pattern before final ranking: consumers
                // see patterns in acceptance (pool) order, as they are found,
                // while the rest of the select stage still runs. Ranking
                // records each pattern's acceptance position in
                // `stream_order`. (The clones happen only when a sink is
                // installed.)
                ctx.emit_with(|| StreamedPattern {
                    pattern: accepted.pattern.clone(),
                    support: accepted.support,
                    embeddings: accepted.embeddings.clone(),
                });
                result.patterns.push(accepted);
            }
        }
        result.sort_patterns();
        ctx.record_stage("select", select_start.elapsed());
        ctx.progress(ProgressEvent::StageFinished { stage: "select" });
        result.stats.cancelled = ctx.was_cancelled();
        result.stats.total_time = total_start.elapsed();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use spidermine_graph::generate;
    use spidermine_graph::label::Label;

    fn planted_graph(
        copies: usize,
        pattern_vertices: usize,
        seed: u64,
    ) -> (LabeledGraph, LabeledGraph) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut background = generate::erdos_renyi_average_degree(&mut rng, 300, 2.0, 40);
        let pattern = generate::random_connected_pattern(&mut rng, pattern_vertices, 40, 3);
        generate::inject_pattern(&mut rng, &mut background, &pattern, copies, 2);
        (background, pattern)
    }

    fn miner(k: usize) -> SpiderMiner {
        SpiderMiner::new(SpiderMineConfig {
            support_threshold: 2,
            k,
            d_max: 8,
            rng_seed: 17,
            ..SpiderMineConfig::default()
        })
    }

    #[test]
    fn recovers_a_planted_large_pattern() {
        let (host, pattern) = planted_graph(3, 12, 11);
        let result = miner(5).mine_with(&host, &mut MineContext::new());
        assert!(!result.patterns.is_empty());
        // The largest mined pattern should be comparable in size to the
        // planted one (12 vertices, ~14 edges); background noise patterns with
        // support >= 2 are much smaller.
        assert!(
            result.largest_vertices() >= pattern.vertex_count() / 2,
            "largest mined pattern has {} vertices, planted {}",
            result.largest_vertices(),
            pattern.vertex_count()
        );
        // All returned patterns are frequent.
        for p in &result.patterns {
            assert!(p.support >= 2);
        }
        assert!(result.stats.spider_count > 0);
        assert!(result.stats.seed_count >= 2);
    }

    #[test]
    fn patterns_are_sorted_by_decreasing_size() {
        let (host, _) = planted_graph(2, 10, 23);
        let result = miner(8).mine_with(&host, &mut MineContext::new());
        let sizes: Vec<usize> = result.patterns.iter().map(|p| p.size_edges()).collect();
        let mut sorted = sizes.clone();
        sorted.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, sorted);
        assert!(result.patterns.len() <= 8);
    }

    #[test]
    fn returned_embeddings_are_valid() {
        let (host, _) = planted_graph(2, 8, 5);
        let result = miner(4).mine_with(&host, &mut MineContext::new());
        for p in &result.patterns {
            let ep = spidermine_mining::embedding::EmbeddedPattern::new(
                p.pattern.clone(),
                p.embeddings.clone(),
            );
            assert!(
                ep.validate_against(&host),
                "invalid embeddings for {:?}",
                p.pattern
            );
        }
    }

    #[test]
    fn empty_graph_returns_empty_result() {
        let result = miner(3).mine_with(&LabeledGraph::new(), &mut MineContext::new());
        assert!(result.patterns.is_empty());
        assert_eq!(result.stats.spider_count, 0);
    }

    #[test]
    fn k_limits_the_number_of_returned_patterns() {
        let (host, _) = planted_graph(2, 8, 31);
        let result = miner(2).mine_with(&host, &mut MineContext::new());
        assert!(result.patterns.len() <= 2);
    }

    #[test]
    #[should_panic(expected = "invalid SpiderMine configuration")]
    fn invalid_config_panics() {
        let _ = SpiderMiner::new(SpiderMineConfig {
            k: 0,
            ..SpiderMineConfig::default()
        });
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (host, _) = planted_graph(2, 9, 41);
        let a = miner(4).mine_with(&host, &mut MineContext::new());
        let b = miner(4).mine_with(&host, &mut MineContext::new());
        let sizes_a: Vec<_> = a
            .patterns
            .iter()
            .map(|p| (p.size_edges(), p.support))
            .collect();
        let sizes_b: Vec<_> = b
            .patterns
            .iter()
            .map(|p| (p.size_edges(), p.support))
            .collect();
        assert_eq!(sizes_a, sizes_b);
    }

    #[test]
    fn mine_with_streams_every_accepted_pattern_and_times_stages() {
        use std::sync::{Arc, Mutex};
        let (host, _) = planted_graph(2, 9, 41);
        let streamed: Arc<Mutex<Vec<(usize, usize)>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = streamed.clone();
        let mut ctx = MineContext::new().on_pattern(move |p| {
            sink.lock()
                .unwrap()
                .push((p.pattern.edge_count(), p.support));
        });
        let result = miner(4).mine_with(&host, &mut ctx);
        let mut streamed: Vec<(usize, usize)> = streamed.lock().unwrap().clone();
        let mut returned: Vec<(usize, usize)> = result
            .patterns
            .iter()
            .map(|p| (p.size_edges(), p.support))
            .collect();
        // Streaming happens in acceptance order, the result is re-sorted:
        // compare as multisets.
        streamed.sort_unstable();
        returned.sort_unstable();
        assert_eq!(streamed, returned);
        let stages: Vec<&str> = ctx.timings().iter().map(|t| t.stage).collect();
        assert_eq!(stages, vec!["spiders", "identify", "recover", "select"]);
        assert!(!result.stats.cancelled);
    }

    #[test]
    fn cancellation_mid_stage_two_returns_partial_results() {
        use spidermine_mining::context::ProgressEvent;
        let (host, _) = planted_graph(3, 12, 11);
        let mut ctx = MineContext::new();
        let token = ctx.cancel_token();
        ctx = ctx.on_progress(move |e| {
            // Fire as soon as the first identification iteration completes:
            // the remaining Stage II iterations and all of Stage III are
            // skipped, but selection still runs over the partial pool.
            if matches!(
                e,
                ProgressEvent::Iteration {
                    stage: "identify",
                    iteration: 0
                }
            ) {
                token.fire();
            }
        });
        let result = miner(5).mine_with(&host, &mut ctx);
        assert!(result.stats.cancelled);
        assert!(ctx.was_cancelled());
        // The partial result is still well-formed (possibly empty patterns,
        // but valid ones when present).
        for p in &result.patterns {
            assert!(p.support >= 2);
        }
        // Stage III was skipped entirely, so its recorded time is near zero
        // relative to a full run; more importantly, all stages were recorded.
        let stages: Vec<&str> = ctx.timings().iter().map(|t| t.stage).collect();
        assert_eq!(stages, vec!["spiders", "identify", "recover", "select"]);
    }

    #[test]
    fn tiny_graph_without_frequent_patterns() {
        let host = LabeledGraph::from_parts(&[Label(0), Label(1)], &[(0, 1)]);
        let result = miner(3).mine_with(&host, &mut MineContext::new());
        // A single edge with unique labels has no pattern of support >= 2.
        assert!(result.patterns.is_empty());
    }
}
