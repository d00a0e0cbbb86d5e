//! Resource bounds of the transport under churn: neither the number of
//! requests served on one connection nor the number of connections a
//! server has accepted may grow its threads or its memory mappings.
//!
//! A thread that has exited but was never joined no longer counts in
//! `Threads:`, but its stack stays mapped until the join; enough of them
//! exhaust `vm.max_map_count`. So the test bounds both `Threads:` and the
//! line count of `/proc/self/maps`, by constants that do not depend on the
//! request or connection counts. Everything runs in one `#[test]` so no
//! other test's threads land in the counts.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::wire::encode_outcome_semantic;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineRequest};
use spidermine_graph::{generate, LabeledGraph};
use spidermine_service::{MiningService, ServiceConfig};
use spidermine_transport::{MiningClient, MiningServer, TransportConfig};
use std::sync::Arc;

const REQUESTS: usize = 5_000;
const RECONNECTS: usize = 300;
/// Allowed growth over the warmed-up baseline: a few transient threads
/// (a connection being torn down while the next is set up).
const THREAD_SLACK: usize = 8;
/// Allowed growth of the mapping count: allocator arenas and the C
/// library's cache of freed thread stacks, both bounded independently of
/// the load.
const MAPS_SLACK: usize = 150;

fn small_graph() -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 120, 2.0, 8);
    let pattern = generate::random_connected_pattern(&mut rng, 6, 8, 2);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn request(k: usize) -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(k)
        .d_max(6)
        .seed(11)
}

fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("Threads: line")
}

fn mappings() -> usize {
    std::fs::read_to_string("/proc/self/maps")
        .expect("read /proc/self/maps")
        .lines()
        .count()
}

#[test]
fn threads_and_mappings_stay_bounded_under_request_and_connection_churn() {
    let graph = small_graph();
    let service = Arc::new(MiningService::new(ServiceConfig::default()));
    service.catalog().register("net", graph.clone());
    let server = MiningServer::bind("127.0.0.1:0", service.clone(), TransportConfig::default())
        .expect("bind server");
    let addr = server.local_addr();

    // The in-process outcome of each key, which every remote answer must
    // match byte for byte.
    let keys = [request(1), request(10)];
    let expected: Vec<Vec<u8>> = keys
        .iter()
        .map(|key| {
            let outcome = key
                .clone()
                .build()
                .expect("valid request")
                .mine(&GraphSource::Single(&graph), &mut MineContext::new())
                .expect("mine");
            assert!(!outcome.patterns.is_empty());
            encode_outcome_semantic(&outcome)
        })
        .collect();
    let ask = |client: &MiningClient, i: usize| {
        let key = i % keys.len();
        let remote = client
            .submit("net", &keys[key])
            .expect("accepted")
            .outcome()
            .expect("outcome");
        assert!(
            remote.from_cache || i < keys.len(),
            "request {i} missed the cache"
        );
        assert_eq!(
            encode_outcome_semantic(&remote.outcome),
            expected[key],
            "request {i}: remote outcome differs from the in-process one"
        );
    };

    // Warm up: mine both keys and let every pool and service thread start.
    let client = MiningClient::connect(addr, "churn").expect("connect");
    for i in 0..20 {
        ask(&client, i);
    }
    let (base_threads, base_maps) = (threads(), mappings());

    let mut peak_threads = base_threads;
    for i in 0..REQUESTS {
        ask(&client, i);
        if i % 50 == 0 {
            peak_threads = peak_threads.max(threads());
        }
    }
    let maps_after_requests = mappings();
    drop(client);
    assert!(
        peak_threads <= base_threads + THREAD_SLACK,
        "{REQUESTS} requests on one connection: {peak_threads} threads, baseline {base_threads}"
    );
    assert!(
        maps_after_requests <= base_maps + MAPS_SLACK,
        "{REQUESTS} requests on one connection: {maps_after_requests} mappings, \
         baseline {base_maps}"
    );

    for i in 0..RECONNECTS {
        let client = MiningClient::connect(addr, "churn").expect("reconnect");
        ask(&client, i);
        drop(client);
        peak_threads = peak_threads.max(threads());
    }
    let maps_after_reconnects = mappings();
    assert!(
        peak_threads <= base_threads + THREAD_SLACK,
        "{RECONNECTS} reconnects: {peak_threads} threads, baseline {base_threads}"
    );
    assert!(
        maps_after_reconnects <= base_maps + MAPS_SLACK,
        "{RECONNECTS} reconnects: {maps_after_reconnects} mappings, baseline {base_maps}"
    );
    drop(server);
}
