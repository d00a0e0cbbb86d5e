//! Workspace-level tests of the service layer (ISSUE 5): snapshot
//! persistence, concurrent-job determinism with cache accounting, and
//! deadline/cancellation semantics.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use spidermine_engine::{Algorithm, GraphSource, MineContext, MineOutcome, MineRequest};
use spidermine_graph::{generate, io, LabeledGraph};
use spidermine_service::{GraphCatalog, JobStatus, MiningService, ServiceConfig, ServiceError};
use std::sync::Arc;
use std::time::Duration;

/// A host with planted structure, big enough that SpiderMine takes real time
/// (so deadlines and cancellations land mid-run) but small enough for CI.
fn host_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 400, 2.0, 30);
    let pattern = generate::random_connected_pattern(&mut rng, 10, 30, 3);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

/// A small host for the fast determinism runs.
fn small_graph(seed: u64) -> LabeledGraph {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut g = generate::erdos_renyi_average_degree(&mut rng, 120, 2.0, 8);
    let pattern = generate::random_connected_pattern(&mut rng, 6, 8, 2);
    generate::inject_pattern(&mut rng, &mut g, &pattern, 3, 2);
    g
}

fn request() -> MineRequest {
    MineRequest::new(Algorithm::SpiderMine)
        .support_threshold(2)
        .k(5)
        .d_max(6)
        .seed(11)
}

/// Canonical byte serialization of everything semantic in an outcome
/// (patterns, supports, embeddings, flags — not wall-clock or width).
fn outcome_bytes(o: &MineOutcome) -> Vec<u8> {
    use std::fmt::Write as _;
    let mut s = String::new();
    writeln!(
        s,
        "algo={};cancelled={};timed_out={};dropped={}",
        o.algorithm, o.cancelled, o.timed_out, o.dropped_embeddings
    )
    .expect("write to string");
    for p in &o.patterns {
        s.push_str(&io::write_graph(&p.pattern));
        writeln!(s, "support={}", p.support).expect("write to string");
        for e in &p.embeddings {
            writeln!(s, "{e:?}").expect("write to string");
        }
    }
    s.into_bytes()
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spidermine-svc-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

const LOAD_MODES: [io::LoadMode; 3] = [
    io::LoadMode::Mapped,
    io::LoadMode::Buffered,
    io::LoadMode::Eager,
];

#[test]
fn snapshot_roundtrip_through_files_is_byte_identical() {
    let g = host_graph(5);
    let bytes = io::snapshot_bytes(&g);
    let dir = temp_dir("roundtrip");
    let path = dir.join("host.snap");
    io::save_snapshot(&path, &g).expect("save");
    assert_eq!(
        io::probe_snapshot(&path).expect("probe").fingerprint,
        spidermine_graph::signature::graph_fingerprint(&g),
    );
    for mode in LOAD_MODES {
        let back = io::load_snapshot(&path, mode).expect("load");
        // Saved → loaded → re-saved: identical bytes, stable fingerprint.
        assert_eq!(io::snapshot_bytes(&back), bytes, "{mode:?}");
        io::save_snapshot(&path, &back).expect("re-save");
        assert_eq!(std::fs::read(&path).expect("read back"), bytes, "{mode:?}");
        assert_eq!(
            spidermine_graph::signature::graph_fingerprint(&back),
            spidermine_graph::signature::graph_fingerprint(&g),
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_snapshots_fail_typed_never_panic() {
    let g = small_graph(9);
    let bytes = io::snapshot_bytes(&g);
    let dir = temp_dir("corrupt");
    let path = dir.join("g.snap");
    std::fs::write(&path, &bytes).expect("write");
    let info = io::probe_snapshot(&path).expect("probe");
    std::fs::remove_dir_all(&dir).ok();
    // Truncations inside the header, at every section boundary and one byte
    // short of the end.
    let mut cuts = vec![0, 4, 8, 12, 20, 27, 28, 40, io::SNAPSHOT_HEADER_LEN - 1];
    for s in &info.sections {
        cuts.extend([s.offset as usize, (s.offset + s.len) as usize - 1]);
    }
    cuts.push(bytes.len() - 1);
    for len in cuts {
        let err = io::graph_from_snapshot(&bytes[..len.min(bytes.len())])
            .expect_err("truncated snapshot decoded");
        assert!(
            matches!(
                err,
                io::SnapshotError::Truncated { .. } | io::SnapshotError::ChecksumMismatch { .. }
            ),
            "unexpected error for prefix {len}: {err:?}"
        );
    }
    // Bit flips across every byte the format accounts for (header, table and
    // sections; the zero padding between sections carries nothing): typed
    // errors, no panics.
    let mut covered: Vec<usize> = (0..io::SNAPSHOT_HEADER_LEN).collect();
    for s in &info.sections {
        covered.extend(s.offset as usize..(s.offset + s.len) as usize);
    }
    for i in covered.into_iter().step_by(7) {
        let mut corrupt = bytes.clone();
        corrupt[i] ^= 0x01;
        assert!(
            io::graph_from_snapshot(&corrupt).is_err(),
            "bit flip at byte {i} decoded"
        );
    }
}

/// Snapshot format version 1 is retired: a file with a valid magic and
/// version 1 is a typed `UnsupportedVersion(1)` on every path that opens a
/// snapshot, whatever follows the version field.
#[test]
fn version_one_snapshots_are_typed_unsupported_everywhere() {
    let dir = temp_dir("v1");
    // A version-1 header (magic, version, payload checksum, fingerprint)
    // followed by an empty graph's payload, and a current-format file with
    // only its version field rewritten: short or long, the version decides.
    let mut short = b"SPDRSNAP".to_vec();
    short.extend(1u32.to_le_bytes());
    short.extend([0u8; 16 + 12]);
    let mut long = io::snapshot_bytes(&small_graph(4));
    long[8..12].copy_from_slice(&1u32.to_le_bytes());
    let unsupported = io::SnapshotError::UnsupportedVersion(1);
    for (tag, bytes) in [("short", short), ("long", long)] {
        let path = dir.join(format!("{tag}.snap"));
        std::fs::write(&path, &bytes).expect("write");
        assert_eq!(
            io::probe_snapshot(&path).err(),
            Some(unsupported.clone()),
            "{tag}"
        );
        assert_eq!(
            io::graph_from_snapshot(&bytes).err(),
            Some(unsupported.clone()),
            "{tag}"
        );
        for mode in LOAD_MODES {
            assert_eq!(
                io::load_snapshot(&path, mode).err(),
                Some(unsupported.clone()),
                "{tag} {mode:?}"
            );
        }
        let catalog = GraphCatalog::new();
        match catalog.register_snapshot_file("g", &path, io::LoadMode::Mapped) {
            Err(ServiceError::Snapshot(e)) => assert_eq!(e, unsupported, "{tag}"),
            other => panic!("{tag}: register_snapshot_file gave {other:?}"),
        }
        assert!(catalog.is_empty(), "{tag}: rejected file left an entry");
        match catalog.load("g", &path) {
            Err(ServiceError::Snapshot(e)) => assert_eq!(e, unsupported, "{tag}"),
            other => panic!("{tag}: load gave {other:?}"),
        }

        // A manifest pointing at the version-1 file.
        let manifest_dir = dir.join(format!("catalog-{tag}"));
        std::fs::create_dir_all(&manifest_dir).expect("catalog dir");
        std::fs::write(manifest_dir.join("g.snap"), &bytes).expect("write");
        std::fs::write(
            manifest_dir.join(spidermine_service::MANIFEST_FILE),
            format!("{:016x} g.snap g\n", 0u64),
        )
        .expect("manifest");
        match catalog.restore(&manifest_dir) {
            Err(ServiceError::Snapshot(e)) => assert_eq!(e, unsupported, "{tag}"),
            other => panic!("{tag}: restore gave {other:?}"),
        }
        assert!(catalog.is_empty(), "{tag}: failed restore left an entry");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn concurrent_identical_jobs_are_deterministic_and_cache_served() {
    const K: usize = 4;
    let service = MiningService::new(ServiceConfig {
        dispatchers: 4,
        ..ServiceConfig::default()
    });
    service.catalog().register("net-a", small_graph(1));
    service.catalog().register("net-b", small_graph(2));

    // Fresh single-run outcomes straight through the engine, as ground truth
    // for "cached == fresh".
    let fresh: Vec<Vec<u8>> = [small_graph(1), small_graph(2)]
        .iter()
        .map(|g| {
            let outcome = request()
                .build()
                .expect("valid request")
                .mine(&GraphSource::Single(g), &mut MineContext::new())
                .expect("fresh mine");
            outcome_bytes(&outcome)
        })
        .collect();

    // K identical jobs per graph, all in flight before any wait.
    let handles: Vec<(usize, spidermine_service::JobHandle)> = (0..K)
        .flat_map(|_| {
            [("net-a", 0usize), ("net-b", 1usize)]
                .map(|(name, gi)| (gi, service.submit(name, request()).expect("submit")))
        })
        .collect();

    let mut from_cache = [0usize; 2];
    for (gi, handle) in &handles {
        let outcome = handle.wait().expect("mine");
        assert_eq!(handle.status(), JobStatus::Done);
        assert!(!outcome.cancelled);
        assert_eq!(
            outcome_bytes(&outcome),
            fresh[*gi],
            "job #{} outcome differs from a fresh single run",
            handle.id()
        );
        if handle.metrics().expect("terminal").from_cache {
            from_cache[*gi] += 1;
        }
    }
    // The cache (plus single-flight dedup) serves all but the first job per
    // graph: ≥ K−1 hits each.
    for (gi, hits) in from_cache.iter().enumerate() {
        assert!(
            *hits >= K - 1,
            "graph {gi}: only {hits} of {K} jobs were cache-served"
        );
    }
    let m = service.metrics();
    assert!(m.cache.hits >= 2 * (K as u64 - 1));
    assert_eq!(m.completed, 2 * K as u64);
    assert_eq!(m.failed, 0);
    assert!(m.patterns_emitted > 0);
}

#[test]
fn deadline_expiry_yields_partial_results_not_an_error() {
    // Direct engine path: the request's deadline_ms arms the context.
    let miner = request().deadline_ms(1).build().expect("valid request");
    let g = host_graph(7);
    let outcome = miner
        .mine(&GraphSource::Single(&g), &mut MineContext::new())
        .expect("timeout is not an error");
    assert!(outcome.timed_out, "1ms deadline must fire mid-run");
    assert!(outcome.cancelled, "a timeout is a cancellation");

    // Service path: the job lands Cancelled with its partial outcome.
    let service = MiningService::new(ServiceConfig::default());
    service.catalog().register("big", host_graph(7));
    let handle = service
        .submit("big", request().deadline_ms(1))
        .expect("submit");
    let outcome = handle.wait().expect("timeout is not an error");
    assert!(outcome.timed_out);
    assert!(outcome.cancelled);
    assert_eq!(handle.status(), JobStatus::Cancelled);
    // Partial results are not cached: an identical follow-up mines afresh.
    assert_eq!(service.metrics().cache.hits, 0);

    // Without a deadline the flag stays clear.
    let outcome = request()
        .build()
        .expect("valid request")
        .mine(
            &GraphSource::Single(&small_graph(3)),
            &mut MineContext::new(),
        )
        .expect("mine");
    assert!(!outcome.timed_out);
}

#[test]
fn mid_run_cancellation_yields_partial_results_not_an_error() {
    let service = MiningService::new(ServiceConfig::default());
    service.catalog().register("big", host_graph(13));
    let handle = service.submit("big", request()).expect("submit");
    // Let the run get going, then cancel it mid-flight.
    std::thread::sleep(Duration::from_millis(50));
    handle.cancel();
    let outcome = handle.wait().expect("cancellation is not an error");
    assert!(outcome.cancelled);
    assert!(!outcome.timed_out);
    assert_eq!(handle.status(), JobStatus::Cancelled);
}

#[test]
fn admission_control_rejections_are_typed() {
    let service = MiningService::new(ServiceConfig {
        queue_depth: 0,
        ..ServiceConfig::default()
    });
    service.catalog().register("g", small_graph(4));
    assert!(matches!(
        service.submit("g", request()),
        Err(ServiceError::QueueFull { .. })
    ));
    assert!(matches!(
        service.submit("ghost", request()),
        Err(ServiceError::UnknownGraph(_))
    ));
    match service.submit("g", request().deadline_ms(0)) {
        Err(ServiceError::InvalidRequest(e)) => assert_eq!(e.field(), Some("deadline_ms")),
        other => panic!("expected InvalidRequest naming deadline_ms, got {other:?}"),
    }
}

#[test]
fn catalog_snapshots_share_one_csr_across_handles() {
    let service = MiningService::new(ServiceConfig::default());
    let registered = service.catalog().register("g", small_graph(4));
    let fetched = service.catalog().get("g").expect("registered");
    assert!(Arc::ptr_eq(&registered, &fetched));
    assert_eq!(
        registered.fingerprint(),
        spidermine_graph::signature::graph_fingerprint(fetched.graph())
    );
}

#[test]
fn catalog_restore_roundtrip_mines_identically_and_serves_cache() {
    let dir = std::env::temp_dir().join(format!("spidermine-svc-restore-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    // First life of the service: register three graphs, persist, record
    // fresh ground-truth outcomes, then drop everything.
    let fresh: Vec<(String, Vec<u8>)> = {
        let service = MiningService::new(ServiceConfig::default());
        for (name, seed) in [("alpha", 1), ("beta", 2), ("gamma", 3)] {
            service.catalog().register(name, small_graph(seed));
        }
        service.catalog().persist(&dir).expect("persist");
        service
            .catalog()
            .names()
            .into_iter()
            .map(|name| {
                let outcome = service
                    .submit(&name, request())
                    .expect("submit")
                    .wait()
                    .expect("mine");
                (name, outcome_bytes(&outcome))
            })
            .collect()
    };

    // Second life: a brand-new service restores the whole catalog in one
    // call, header-only (nothing loaded until a job arrives).
    let service = MiningService::new(ServiceConfig::default());
    let restored = service.catalog().restore(&dir).expect("restore");
    assert_eq!(restored.len(), 3);
    for name in &restored {
        assert!(
            !service.catalog().get(name).expect("restored").is_loaded(),
            "{name} was materialized during restore"
        );
    }

    for (name, expected) in &fresh {
        let first = service
            .submit(name, request())
            .expect("submit")
            .wait()
            .expect("mine restored graph");
        assert_eq!(
            &outcome_bytes(&first),
            expected,
            "{name}: restored outcome differs from the pre-restart run"
        );
        // The same request again must be served from the result cache — the
        // fingerprint survived the persist/restore round-trip.
        let again = service.submit(name, request()).expect("resubmit");
        let second = again.wait().expect("cached mine");
        assert_eq!(&outcome_bytes(&second), expected);
        assert!(
            again.metrics().expect("terminal").from_cache,
            "{name}: second identical run missed the cache"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jobs_against_a_corrupt_restored_snapshot_are_rejected_at_submit() {
    let dir = std::env::temp_dir().join(format!("spidermine-svc-corrupt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    {
        let service = MiningService::new(ServiceConfig::default());
        service.catalog().register("g", small_graph(5));
        service.catalog().persist(&dir).expect("persist");
    }
    let service = MiningService::new(ServiceConfig::default());
    service.catalog().restore(&dir).expect("restore");
    // Corrupt a core section of the (sole) snapshot file after restore but
    // before first use: admission must fail typed, not panic a dispatcher.
    let snap_file = std::fs::read_dir(&dir)
        .expect("dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .find(|p| p.extension().is_some_and(|x| x == "snap"))
        .expect("snapshot file");
    let mut bytes = std::fs::read(&snap_file).expect("read");
    bytes[io::SNAPSHOT_PAGE] ^= 0xff;
    std::fs::write(&snap_file, &bytes).expect("write");
    assert!(matches!(
        service.submit("g", request()),
        Err(ServiceError::Snapshot(_))
    ));
    std::fs::remove_dir_all(&dir).ok();
}
