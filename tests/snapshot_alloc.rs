//! The no-re-freeze contract: a graph loaded from a snapshot ships with its
//! CSR index pre-seeded, so neither `csr()` nor catalog registration may
//! rebuild (re-freeze) the flat arrays. Guarded with a byte-counting
//! allocator: a re-freeze of an N-vertex graph would allocate at least the
//! offsets array (4(N+1) bytes), orders of magnitude above the bookkeeping
//! the registration path is allowed.

use spidermine_datasets::synthetic;
use spidermine_graph::io::{self, LoadMode};
use spidermine_service::GraphCatalog;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAllocator;

static BYTES_ALLOCATED: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES_ALLOCATED.fetch_add(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const VERTICES: usize = 4000;

/// Bytes a CSR re-freeze could not possibly stay under: the offsets array
/// alone is `4 * (VERTICES + 1)` bytes. Registration bookkeeping (a name, an
/// `Arc`, a map entry) is a few hundred bytes.
const REFREEZE_FLOOR: usize = 4 * (VERTICES + 1);

fn snapshot_path() -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("spidermine-alloc-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("host.snap");
    if !path.exists() {
        let (graph, _) = synthetic::scalability_graph(VERTICES, 42);
        io::save_snapshot(&path, &graph).expect("save");
    }
    path
}

/// Measures the bytes `f` allocates, taking the minimum over several
/// attempts: the counter is process-global, so an unrelated harness thread
/// can leak noise into one window, but noise is strictly additive.
fn min_bytes_allocated(mut f: impl FnMut()) -> usize {
    let mut fewest = usize::MAX;
    for _ in 0..5 {
        let before = BYTES_ALLOCATED.load(Ordering::SeqCst);
        f();
        fewest = fewest.min(BYTES_ALLOCATED.load(Ordering::SeqCst) - before);
    }
    fewest
}

#[test]
fn csr_access_on_a_loaded_graph_allocates_nothing() {
    let path = snapshot_path();
    for mode in [LoadMode::Buffered, LoadMode::Mapped] {
        let graph = io::load_snapshot(&path, mode).expect("load");
        // Pattern injection grows the generator's graph slightly past
        // VERTICES; compare against the graph itself.
        let n = graph.vertex_count();
        assert!(n >= VERTICES);
        let bytes = min_bytes_allocated(|| {
            let csr = graph.csr();
            assert_eq!(csr.vertex_count(), n);
        });
        assert_eq!(
            bytes, 0,
            "csr() on a {mode:?}-loaded graph allocated {bytes} bytes (re-freeze?)"
        );
    }
}

#[test]
fn catalog_registration_does_not_refreeze_loaded_graphs() {
    let path = snapshot_path();
    let catalog = GraphCatalog::new();
    // Warm-up: the map's first insert may allocate its table.
    catalog.register(
        "warmup",
        io::load_snapshot(&path, LoadMode::Buffered).expect("load"),
    );
    // Load outside the measured windows (one graph per attempt of
    // `min_bytes_allocated`), so only register() is charged. A re-freeze
    // would allocate at least the floor in every window; the other tests'
    // allocations, which can land in any single window, cannot reach all of
    // them.
    let mut graphs: Vec<_> = (0..5)
        .map(|_| io::load_snapshot(&path, LoadMode::Mapped).expect("load"))
        .collect();
    let mut i = 0;
    let registered = min_bytes_allocated(|| {
        let graph = graphs.pop().expect("one graph per attempt");
        let snapshot = catalog.register(format!("g{i}"), graph);
        assert!(snapshot.is_loaded());
        i += 1;
    });
    assert!(
        registered < REFREEZE_FLOOR,
        "registering a snapshot-loaded graph allocated {registered} bytes \
         (>= the {REFREEZE_FLOOR}-byte re-freeze floor)"
    );
}

#[test]
fn lazy_label_index_is_the_only_deferred_section() {
    // Faulting the label index on a mapped graph is allowed to allocate
    // (decode bookkeeping), but must not re-derive the CSR arrays first:
    // vertices_with_label on the packed index goes straight to the mapping.
    let path = snapshot_path();
    let graph = io::load_snapshot(&path, LoadMode::Mapped).expect("load");
    let csr = graph.csr();
    // First touch decodes the packed section.
    let label = graph.label(spidermine_graph::VertexId(0));
    let first = csr.vertices_with_label(label).len();
    assert!(first > 0);
    // Subsequent touches are allocation-free reads of the decoded index.
    let bytes = min_bytes_allocated(|| {
        assert_eq!(csr.vertices_with_label(label).len(), first);
    });
    assert_eq!(bytes, 0, "warm label-index read allocated {bytes} bytes");
}
