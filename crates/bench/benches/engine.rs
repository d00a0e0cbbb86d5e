//! Engine-redesign benchmarks: catalog construction before/after the
//! `PatternStore`-style arena (ISSUE 2's headline number), plus an
//! end-to-end run through the unified engine API (`MineRequest` → `Engine`).
//!
//! PR 1 flagged catalog construction as allocation-bound: every mined spider
//! owned a leaf-label `Vec` and a head `Vec`. The `pr1` module below retains
//! that owned-`Vec` implementation verbatim (same CSR merge-joins, same
//! parallel splicing — only the storage and expansion buffers differ) so the
//! before/after ratio is measured in a single run on the same machine.
//! Results land in the JSON summary selected by `$BENCH_JSON`
//! (`BENCH_engine.json` in CI) as `engine_catalog/{arena,pr1,speedup}/<n>`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spidermine_bench::bench_ba_graph;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
use spidermine_mining::spider::{SpiderCatalog, SpiderMiningConfig};

/// The PR 1 catalog implementation: identical enumeration over the CSR
/// histogram rows, but one owned `Vec` pair per spider and one `Vec` pair per
/// candidate during expansion — the allocation pattern the arena removed.
mod pr1 {
    use rayon::prelude::*;
    use rustc_hash::FxHashMap;
    use spidermine_graph::graph::{LabeledGraph, VertexId};
    use spidermine_graph::Label;
    use spidermine_mining::spider::SpiderMiningConfig;

    pub struct Spider {
        pub head_label: Label,
        pub leaf_labels: Vec<Label>,
        pub heads: Vec<VertexId>,
    }

    #[derive(Default)]
    pub struct OwnedCatalog {
        pub spiders: Vec<Spider>,
        by_head_label: FxHashMap<Label, Vec<usize>>,
    }

    type NewSpider = (Label, Vec<Label>, Vec<VertexId>);

    impl OwnedCatalog {
        pub fn mine(graph: &LabeledGraph, config: &SpiderMiningConfig) -> Self {
            let sigma = config.support_threshold.max(1);
            let csr = graph.csr();
            let mut catalog = OwnedCatalog::default();
            const PAR_BLOCK: usize = 1024;

            if config.max_leaves == 0 || graph.vertex_count() == 0 {
                return catalog;
            }
            let classes: Vec<(Label, &[VertexId])> = csr
                .labels_with_vertices()
                .filter(|(_, heads)| heads.len() >= sigma)
                .collect();
            let mut frontier: Vec<usize> = Vec::new();
            'seed: for block in classes.chunks(PAR_BLOCK) {
                let expanded: Vec<Vec<NewSpider>> = block
                    .par_iter()
                    .map(|&(label, heads)| extend_spider(graph, label, &[], heads, sigma))
                    .collect();
                for children in expanded {
                    for (head_label, leaf_labels, heads) in children {
                        if catalog.spiders.len() >= config.max_spiders {
                            break 'seed;
                        }
                        frontier.push(catalog.push(head_label, leaf_labels, heads));
                    }
                }
            }
            let mut leaves = 1;
            while !frontier.is_empty() && leaves < config.max_leaves {
                leaves += 1;
                if catalog.spiders.len() >= config.max_spiders {
                    break;
                }
                let mut next: Vec<usize> = Vec::new();
                'level: for block in frontier.chunks(PAR_BLOCK) {
                    let expanded: Vec<Vec<NewSpider>> = block
                        .par_iter()
                        .map(|&id| {
                            let spider = &catalog.spiders[id];
                            extend_spider(
                                graph,
                                spider.head_label,
                                &spider.leaf_labels,
                                &spider.heads,
                                sigma,
                            )
                        })
                        .collect();
                    for children in expanded {
                        for (head_label, leaf_labels, heads) in children {
                            if catalog.spiders.len() >= config.max_spiders {
                                break 'level;
                            }
                            next.push(catalog.push(head_label, leaf_labels, heads));
                        }
                    }
                }
                frontier = next;
            }
            catalog
        }

        fn push(
            &mut self,
            head_label: Label,
            leaf_labels: Vec<Label>,
            heads: Vec<VertexId>,
        ) -> usize {
            let id = self.spiders.len();
            self.by_head_label.entry(head_label).or_default().push(id);
            self.spiders.push(Spider {
                head_label,
                leaf_labels,
                heads,
            });
            id
        }
    }

    fn extend_spider(
        graph: &LabeledGraph,
        head_label: Label,
        leaf_labels: &[Label],
        heads: &[VertexId],
        sigma: usize,
    ) -> Vec<NewSpider> {
        let csr = graph.csr();
        let max_leaf = leaf_labels.last().copied();
        let max_leaf_run = max_leaf
            .map(|ml| leaf_labels.iter().rev().take_while(|&&l| l == ml).count() as u32)
            .unwrap_or(0);
        let required = |label: Label| {
            if Some(label) == max_leaf {
                max_leaf_run + 1
            } else {
                1
            }
        };

        // Pass 1 — candidate labels.
        let mut candidates: Vec<Label> = Vec::new();
        for &h in heads {
            let row = csr.neighbor_label_histogram(h);
            let start = match max_leaf {
                Some(ml) => row.partition_point(|&(l, _)| l < ml),
                None => 0,
            };
            for &(label, count) in &row[start..] {
                if count >= required(label) {
                    candidates.push(label);
                }
            }
        }
        candidates.sort_unstable();
        candidates.dedup();
        if candidates.is_empty() {
            return Vec::new();
        }

        // Pass 2 — survivors per candidate, one owned Vec each.
        let mut survivors: Vec<Vec<VertexId>> = vec![Vec::new(); candidates.len()];
        for &h in heads {
            let row = csr.neighbor_label_histogram(h);
            let start = row.partition_point(|&(l, _)| l < candidates[0]);
            let mut j = 0;
            for &(label, count) in &row[start..] {
                while j < candidates.len() && candidates[j] < label {
                    j += 1;
                }
                if j == candidates.len() {
                    break;
                }
                if candidates[j] == label && count >= required(label) {
                    survivors[j].push(h);
                }
            }
        }

        let mut children = Vec::new();
        for (cand, surviving) in candidates.into_iter().zip(survivors) {
            if surviving.len() < sigma {
                continue;
            }
            let mut new_leaves = Vec::with_capacity(leaf_labels.len() + 1);
            new_leaves.extend_from_slice(leaf_labels);
            new_leaves.push(cand);
            children.push((head_label, new_leaves, surviving));
        }
        children
    }
}

fn bench_config() -> SpiderMiningConfig {
    SpiderMiningConfig {
        support_threshold: 2,
        max_leaves: 6,
        ..SpiderMiningConfig::default()
    }
}

fn engine_catalog(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_catalog");
    group.sample_size(10);
    let sizes = [500usize, 1000, 2000];
    for &n in &sizes {
        let (graph, _) = bench_ba_graph(n);
        graph.csr();
        // The arena-backed catalog must agree spider-for-spider with the
        // retained PR 1 implementation before it is worth timing.
        let arena = SpiderCatalog::mine(&graph, &bench_config());
        let owned = pr1::OwnedCatalog::mine(&graph, &bench_config());
        assert_eq!(arena.len(), owned.spiders.len(), "catalog size at n = {n}");
        for (a, b) in arena.spiders().zip(&owned.spiders) {
            assert_eq!(a.head_label, b.head_label);
            assert_eq!(a.leaf_labels, b.leaf_labels.as_slice());
            assert_eq!(a.heads, b.heads.as_slice());
        }
        group.bench_with_input(BenchmarkId::new("arena", n), &graph, |b, g| {
            b.iter(|| SpiderCatalog::mine(g, &bench_config()).len())
        });
        group.bench_with_input(BenchmarkId::new("pr1", n), &graph, |b, g| {
            b.iter(|| pr1::OwnedCatalog::mine(g, &bench_config()).spiders.len())
        });
    }
    group.finish();
    let mut ratios: Vec<f64> = Vec::new();
    for &n in &sizes {
        let arena = criterion::measurement(&format!("engine_catalog/arena/{n}"));
        let pr1 = criterion::measurement(&format!("engine_catalog/pr1/{n}"));
        if let (Some(arena), Some(pr1)) = (arena, pr1) {
            criterion::record_metric(&format!("engine_catalog/speedup/{n}"), pr1 / arena);
            ratios.push(pr1 / arena);
        }
    }
    // The headline before/after number: geometric mean across the sizes
    // (robust against the per-size noise of a shared 1-core runner).
    if !ratios.is_empty() {
        let geomean = (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp();
        criterion::record_metric("engine_catalog/speedup/geomean", geomean);
    }
}

fn engine_mine_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_mine");
    // The n = 2000 mine runs ~1.5 min per iteration on a 1-core runner; the
    // minimum sample count keeps the CI bench job's wall-clock sane.
    group.sample_size(3);
    let miner = MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(17)
        .build()
        .expect("valid request");
    // Same sizes as the catalog/eval benches, so the end-to-end series tells
    // the same scaling story (n = 500 is the historical single point).
    for n in [500usize, 1000, 2000] {
        let (graph, _) = bench_ba_graph(n);
        graph.csr();
        group.bench_with_input(BenchmarkId::new("spidermine", n), &graph, |b, g| {
            b.iter(|| {
                miner
                    .mine(&GraphSource::Single(g), &mut MineContext::new())
                    .expect("single graph accepted")
                    .patterns
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, engine_catalog, engine_mine_end_to_end);
criterion_main!(benches);
