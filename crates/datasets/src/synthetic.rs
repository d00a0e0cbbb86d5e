//! Synthetic single-graph datasets (Tables 1–3 of the paper).
//!
//! Each dataset is an Erdős–Rényi background graph into which a number of
//! *large* patterns (the mining targets) and *small* patterns (distractors)
//! are injected with a controlled number of embeddings. GID 1–5 are the small
//! configurations used for the head-to-head comparison with SUBDUE/SEuS/MoSS
//! (Figures 4–8 and 16); GID 6–10 are the larger robustness configurations of
//! Table 3 / Figure 18.

use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_graph::generate;
use spidermine_graph::graph::LabeledGraph;
use spidermine_graph::traversal;

/// Parameters of one synthetic dataset, mirroring the columns of Table 1
/// (`|V|`, `f`, `d`, `m`, `|V_L|`, `Lsup`, `n`, `|V_S|`, `Ssup`).
#[derive(Clone, Debug, PartialEq)]
pub struct GidConfig {
    /// Dataset identifier (1–10, matching the paper's GID column).
    pub gid: u32,
    /// Number of background vertices.
    pub vertices: usize,
    /// Number of distinct vertex labels.
    pub labels: u32,
    /// Average degree of the background graph.
    pub average_degree: f64,
    /// Number of distinct large patterns injected (`m`).
    pub large_patterns: usize,
    /// Vertices per large pattern (`|V_L|`).
    pub large_pattern_vertices: usize,
    /// Embeddings injected per large pattern (`Lsup`).
    pub large_support: usize,
    /// Number of distinct small patterns injected (`n`).
    pub small_patterns: usize,
    /// Vertices per small pattern (`|V_S|`).
    pub small_pattern_vertices: usize,
    /// Embeddings injected per small pattern (`Ssup`).
    pub small_support: usize,
    /// Target diameter bound for the injected large patterns (they are
    /// regenerated until they fit), so the miner's `Dmax` covers them.
    pub large_pattern_diameter: u32,
}

impl GidConfig {
    /// The Table 1 configuration for `gid` ∈ 1..=5.
    pub fn table1(gid: u32) -> Self {
        let (vertices, labels, degree, small_patterns, small_support) = match gid {
            1 => (400, 70, 2.0, 5, 2),
            2 => (400, 70, 4.0, 5, 2),
            3 => (1000, 250, 2.0, 5, 20),
            4 => (1000, 250, 4.0, 5, 20),
            5 => (600, 130, 4.0, 20, 2),
            _ => panic!("Table 1 defines GID 1 through 5, got {gid}"),
        };
        Self {
            gid,
            vertices,
            labels,
            average_degree: degree,
            large_patterns: 5,
            large_pattern_vertices: 30,
            large_support: 2,
            small_patterns,
            small_pattern_vertices: 3,
            small_support,
            large_pattern_diameter: 4,
        }
    }

    /// The Table 3 configuration for `gid` ∈ 6..=10, optionally scaled down by
    /// `scale` (1.0 = the paper's sizes; the experiment harness uses smaller
    /// scales to keep laptop runtimes reasonable).
    pub fn table3(gid: u32, scale: f64) -> Self {
        assert!(scale > 0.0 && scale <= 1.0);
        let (vertices, labels, small_support) = match gid {
            6 => (20_490, 1064, 10),
            7 => (31_110, 1658, 15),
            8 => (37_595, 2062, 20),
            9 => (47_410, 2610, 25),
            10 => (56_740, 3138, 30),
            _ => panic!("Table 3 defines GID 6 through 10, got {gid}"),
        };
        Self {
            gid,
            vertices: ((vertices as f64 * scale) as usize).max(500),
            labels: ((labels as f64 * scale) as u32).max(50),
            // Table 3 graphs have |E| ≈ 1.5 |V|.
            average_degree: 3.0,
            large_patterns: 5,
            large_pattern_vertices: 50,
            large_support: 12,
            small_patterns: 50,
            small_pattern_vertices: 5,
            small_support,
            large_pattern_diameter: 6,
        }
    }
}

/// A generated dataset: the graph plus the injected ground-truth patterns.
#[derive(Clone, Debug)]
pub struct SyntheticDataset {
    /// The configuration that produced it.
    pub config: GidConfig,
    /// The data graph (background + injections).
    pub graph: LabeledGraph,
    /// The distinct large patterns that were injected.
    pub large_patterns: Vec<LabeledGraph>,
    /// The distinct small patterns that were injected.
    pub small_patterns: Vec<LabeledGraph>,
}

/// Generates a random connected pattern whose diameter does not exceed
/// `max_diameter`, densifying and retrying as needed.
pub fn bounded_diameter_pattern<R: Rng>(
    rng: &mut R,
    vertices: usize,
    labels: u32,
    max_diameter: u32,
) -> LabeledGraph {
    let mut extra = vertices / 3;
    for _ in 0..64 {
        let candidate = generate::random_connected_pattern(rng, vertices, labels, extra);
        if traversal::diameter(&candidate) <= max_diameter {
            return candidate;
        }
        extra += vertices / 3 + 1;
    }
    // Fall back to a star-of-paths that trivially satisfies any bound >= 2.
    let mut g = LabeledGraph::with_capacity(vertices);
    let hub = g.add_vertex(spidermine_graph::label::Label(rng.gen_range(0..labels)));
    for _ in 1..vertices {
        let v = g.add_vertex(spidermine_graph::label::Label(rng.gen_range(0..labels)));
        g.add_edge(hub, v);
    }
    g
}

impl SyntheticDataset {
    /// Builds the dataset for `config`, deterministically in `seed`.
    pub fn build(config: GidConfig, seed: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ u64::from(config.gid) << 32);
        let mut graph = generate::erdos_renyi_average_degree(
            &mut rng,
            config.vertices,
            config.average_degree,
            config.labels,
        );
        let mut large_patterns = Vec::with_capacity(config.large_patterns);
        for _ in 0..config.large_patterns {
            let pattern = bounded_diameter_pattern(
                &mut rng,
                config.large_pattern_vertices,
                config.labels,
                config.large_pattern_diameter,
            );
            generate::inject_pattern(&mut rng, &mut graph, &pattern, config.large_support, 2);
            large_patterns.push(pattern);
        }
        let mut small_patterns = Vec::with_capacity(config.small_patterns);
        for _ in 0..config.small_patterns {
            let pattern = generate::random_connected_pattern(
                &mut rng,
                config.small_pattern_vertices,
                config.labels,
                1,
            );
            generate::inject_pattern(&mut rng, &mut graph, &pattern, config.small_support, 1);
            small_patterns.push(pattern);
        }
        Self {
            config,
            graph,
            large_patterns,
            small_patterns,
        }
    }
}

/// A random (Erdős–Rényi) graph with injected large patterns, parameterized by
/// size — the series used for the scalability experiments (Figures 10–12).
pub fn scalability_graph(vertices: usize, seed: u64) -> (LabeledGraph, LabeledGraph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Figure 10–12 setting: average degree 3, 100 labels, sigma = 2, K = 10.
    let mut graph = generate::erdos_renyi_average_degree(&mut rng, vertices, 3.0, 100);
    // Plant one large pattern whose size grows with the graph (the paper's
    // Figure 12 reports the largest discovered pattern growing with |V|).
    let pattern_vertices = (vertices / 175).clamp(8, 240);
    let pattern = bounded_diameter_pattern(&mut rng, pattern_vertices, 100, 8);
    generate::inject_pattern(&mut rng, &mut graph, &pattern, 2, 2);
    (graph, pattern)
}

/// A Barabási–Albert scale-free graph with one injected large pattern — the
/// series used for the scale-free experiments (Figures 13 and 17).
pub fn scalefree_graph(vertices: usize, seed: u64) -> (LabeledGraph, LabeledGraph) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut graph = generate::barabasi_albert(&mut rng, vertices, 2, 100);
    let pattern_vertices = (vertices / 175).clamp(8, 140);
    let pattern = bounded_diameter_pattern(&mut rng, pattern_vertices, 100, 8);
    generate::inject_pattern(&mut rng, &mut graph, &pattern, 2, 2);
    (graph, pattern)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::iso;

    #[test]
    fn table1_configs_match_the_paper() {
        let c1 = GidConfig::table1(1);
        assert_eq!(c1.vertices, 400);
        assert_eq!(c1.labels, 70);
        assert_eq!(c1.average_degree, 2.0);
        assert_eq!(c1.large_patterns, 5);
        assert_eq!(c1.large_pattern_vertices, 30);
        assert_eq!(c1.large_support, 2);
        let c3 = GidConfig::table1(3);
        assert_eq!(c3.vertices, 1000);
        assert_eq!(c3.small_support, 20);
        let c5 = GidConfig::table1(5);
        assert_eq!(c5.small_patterns, 20);
    }

    #[test]
    #[should_panic(expected = "Table 1 defines GID 1 through 5")]
    fn table1_rejects_unknown_gid() {
        GidConfig::table1(6);
    }

    #[test]
    fn table3_scaling_reduces_size() {
        let full = GidConfig::table3(7, 1.0);
        assert_eq!(full.vertices, 31_110);
        let quarter = GidConfig::table3(7, 0.25);
        assert!(quarter.vertices < full.vertices);
        assert!(quarter.labels < full.labels);
        assert_eq!(quarter.large_pattern_vertices, 50);
    }

    #[test]
    fn build_injects_the_configured_patterns() {
        let config = GidConfig::table1(1);
        let ds = SyntheticDataset::build(config.clone(), 7);
        assert_eq!(ds.large_patterns.len(), config.large_patterns);
        assert_eq!(ds.small_patterns.len(), config.small_patterns);
        // Graph contains background + injected copies.
        let expected_extra =
            config.large_patterns * config.large_support * config.large_pattern_vertices
                + config.small_patterns * config.small_support * config.small_pattern_vertices;
        assert_eq!(ds.graph.vertex_count(), config.vertices + expected_extra);
        // Each large pattern has diameter within the configured bound.
        for p in &ds.large_patterns {
            assert!(traversal::diameter(p) <= config.large_pattern_diameter);
            assert_eq!(p.vertex_count(), config.large_pattern_vertices);
        }
    }

    #[test]
    fn injected_large_pattern_is_embedded_at_least_lsup_times() {
        let ds = SyntheticDataset::build(GidConfig::table1(1), 13);
        let pattern = &ds.large_patterns[0];
        let embeddings = iso::find_embeddings(pattern, &ds.graph, 5);
        assert!(
            embeddings.len() >= ds.config.large_support,
            "found {} embeddings, expected at least {}",
            embeddings.len(),
            ds.config.large_support
        );
    }

    #[test]
    fn build_is_deterministic_in_the_seed() {
        let a = SyntheticDataset::build(GidConfig::table1(2), 3);
        let b = SyntheticDataset::build(GidConfig::table1(2), 3);
        assert_eq!(a.graph.vertex_count(), b.graph.vertex_count());
        assert_eq!(a.graph.edge_count(), b.graph.edge_count());
        let c = SyntheticDataset::build(GidConfig::table1(2), 4);
        assert!(
            a.graph.edge_count() != c.graph.edge_count() || a.graph.labels() != c.graph.labels(),
            "different seeds should give different graphs"
        );
    }

    #[test]
    fn bounded_diameter_pattern_respects_the_bound() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        for _ in 0..5 {
            let p = bounded_diameter_pattern(&mut rng, 30, 40, 4);
            assert_eq!(p.vertex_count(), 30);
            assert!(traversal::diameter(&p) <= 4);
            assert!(traversal::is_connected(&p));
        }
    }

    #[test]
    fn scalability_graph_grows_with_requested_size() {
        let (small, _) = scalability_graph(1000, 1);
        let (large, _) = scalability_graph(5000, 1);
        assert!(small.vertex_count() > 1000);
        assert!(large.vertex_count() > small.vertex_count());
    }

    #[test]
    fn scalefree_graph_has_hubs() {
        let (g, _) = scalefree_graph(3000, 9);
        assert!(g.max_degree() as f64 > 4.0 * g.average_degree());
    }
}
