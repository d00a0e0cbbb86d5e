//! The graph catalog: named, immutable, shareable graph snapshots.
//!
//! The expensive inputs of a mining request — the graph and its frozen CSR
//! index — are loaded **once** per graph and handed to every job as a cheap
//! [`Arc<GraphSnapshot>`] handle. A snapshot is immutable by construction
//! (the catalog takes ownership and nothing mutates the graph afterwards),
//! so its lazily built CSR index is shared safely across concurrent jobs.
//!
//! # Snapshot sources and laziness
//!
//! A snapshot is backed either by an in-memory graph
//! ([`GraphCatalog::register`], always loaded) or by a snapshot file
//! ([`GraphCatalog::register_snapshot_file`]). File-backed registration is
//! O(header): only [`io::probe_snapshot`] runs — magic, version, fingerprint,
//! section table — and the data pages stay untouched until the first job
//! against the graph calls [`GraphSnapshot::ensure_loaded`] (the scheduler
//! does this at admission, surfacing corruption as typed errors at submit
//! time). With [`LoadMode::Mapped`] the materialized graph stays zero-copy:
//! its CSR arrays point into the mapped file, and registration never
//! re-freezes what the snapshot already froze.
//!
//! # Persistence
//!
//! [`GraphCatalog::persist`] writes every registered graph as a snapshot
//! (content-addressed by fingerprint, so re-persisting an unchanged graph
//! rewrites nothing) plus a `catalog.manifest` naming them, atomically
//! rewritten via temp-file + rename. [`GraphCatalog::restore`] reads the
//! manifest back and registers every graph header-only — a warm service
//! restart costs a handful of page reads regardless of catalog size. Each
//! snapshot carries the content fingerprint of its graph
//! ([`graph_fingerprint`]): the stable identity the result cache keys on,
//! valid across processes and restarts.

use crate::error::ServiceError;
use spidermine_graph::io::{self, LoadMode, SnapshotError};
use spidermine_graph::signature::graph_fingerprint;
use spidermine_graph::LabeledGraph;
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, OnceLock};

/// File name of the catalog manifest inside a persistence directory.
pub const MANIFEST_FILE: &str = "catalog.manifest";

/// An immutable, named graph with its frozen CSR index and content
/// fingerprint. Handed out as `Arc<GraphSnapshot>`; cloning the handle is
/// O(1) and every concurrent job reads the same index.
#[derive(Debug)]
pub struct GraphSnapshot {
    name: String,
    fingerprint: u64,
    /// File backing for lazily registered snapshots; `None` for in-memory
    /// registrations (which are seeded at construction).
    source: Option<(PathBuf, LoadMode)>,
    /// The materialized graph, set exactly once on a successful load.
    graph: OnceLock<LabeledGraph>,
    /// A *permanent* load failure (corruption, bad fingerprint), which is
    /// sticky: the bytes themselves are wrong, so every future attempt would
    /// fail identically. Transient I/O failures are deliberately **not**
    /// recorded here — the next [`GraphSnapshot::ensure_loaded`] retries the
    /// file. Doubles as the lock that serializes concurrent first loads.
    load_failure: Mutex<Option<SnapshotError>>,
}

impl GraphSnapshot {
    /// Wraps an in-memory graph: fingerprinted (which freezes the CSR index —
    /// a no-op for graphs loaded from snapshots, whose index ships
    /// pre-seeded) and immediately loaded.
    fn new_loaded(name: String, graph: LabeledGraph) -> Self {
        let fingerprint = graph_fingerprint(&graph);
        let cell = OnceLock::new();
        cell.set(graph)
            .unwrap_or_else(|_| unreachable!("freshly created OnceLock"));
        Self {
            name,
            fingerprint,
            source: None,
            graph: cell,
            load_failure: Mutex::new(None),
        }
    }

    /// Wraps a probed-but-unloaded snapshot file.
    fn new_pending(name: String, fingerprint: u64, path: PathBuf, mode: LoadMode) -> Self {
        Self {
            name,
            fingerprint,
            source: Some((path, mode)),
            graph: OnceLock::new(),
            load_failure: Mutex::new(None),
        }
    }

    /// The catalog name this snapshot was registered under.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Stable content fingerprint of the graph
    /// ([`graph_fingerprint`]): equal across processes and across
    /// save/load round-trips, which is what makes it a valid persistent
    /// cache-key component. For file-backed snapshots this comes from the
    /// header probe — available without loading the graph.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// True once the graph is materialized in memory (always true for
    /// in-memory registrations).
    pub fn is_loaded(&self) -> bool {
        self.graph.get().is_some()
    }

    /// Materializes the graph if this snapshot is file-backed and not yet
    /// loaded, validating the file (section checksums, structure,
    /// fingerprint) on the way in.
    ///
    /// Failures are typed, and their retry semantics follow
    /// [`SnapshotError::is_transient`]: a *transient* I/O failure (the file
    /// briefly unreadable) leaves the snapshot pending, so the next call —
    /// e.g. the scheduler's admission retry — attempts the load again; a
    /// *permanent* failure (corruption, fingerprint mismatch) is sticky and
    /// every future call reports the recorded error without touching the
    /// file.
    ///
    /// The scheduler calls this at admission, so a job against a corrupt
    /// snapshot is rejected synchronously at submit time rather than failing
    /// in a dispatcher.
    pub fn ensure_loaded(&self) -> Result<&LabeledGraph, ServiceError> {
        if let Some(graph) = self.graph.get() {
            return Ok(graph);
        }
        // The failure slot doubles as the load lock: concurrent first uses
        // serialize here instead of loading the file N times.
        let mut failure = self.load_failure.lock().expect("snapshot load lock");
        if let Some(graph) = self.graph.get() {
            return Ok(graph); // a concurrent loader won while we waited
        }
        if let Some(error) = failure.as_ref() {
            return Err(ServiceError::Snapshot(error.clone()));
        }
        let (path, mode) = self
            .source
            .as_ref()
            .expect("unloaded snapshot always has a file source");
        // The file may have been swapped since registration (atomic
        // re-persist): re-probe the header so the graph served under
        // this handle is always the one that was registered.
        let result = io::probe_snapshot(path).and_then(|info| {
            if info.fingerprint != self.fingerprint {
                return Err(SnapshotError::Corrupt(format!(
                    "snapshot {} now has fingerprint {:#018x}, registered as {:#018x}",
                    path.display(),
                    info.fingerprint,
                    self.fingerprint
                )));
            }
            io::load_snapshot(path, *mode)
        });
        match result {
            Ok(graph) => {
                self.graph
                    .set(graph)
                    .unwrap_or_else(|_| unreachable!("loads are serialized by the failure lock"));
                Ok(self.graph.get().expect("just set"))
            }
            Err(error) => {
                if !error.is_transient() {
                    *failure = Some(error.clone());
                }
                Err(ServiceError::Snapshot(error))
            }
        }
    }

    /// The graph itself.
    ///
    /// # Panics
    /// Panics if the snapshot is file-backed and its file fails to load.
    /// Jobs never hit this: admission calls [`GraphSnapshot::ensure_loaded`]
    /// first and rejects on error.
    pub fn graph(&self) -> &LabeledGraph {
        self.ensure_loaded()
            .expect("snapshot failed to materialize")
    }
}

/// A registry of named [`GraphSnapshot`]s.
///
/// Thread-safe: `register`/`get` take an internal lock only for the map
/// operation; the snapshots themselves are lock-free to read.
#[derive(Debug, Default)]
pub struct GraphCatalog {
    graphs: Mutex<HashMap<String, Arc<GraphSnapshot>>>,
}

impl GraphCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers `graph` under `name`, freezing its CSR index and computing
    /// its fingerprint. Replaces (and returns the handle of) any snapshot
    /// previously registered under the same name — existing jobs holding the
    /// old handle keep mining the old snapshot; new submissions see the new
    /// one.
    pub fn register(&self, name: impl Into<String>, graph: LabeledGraph) -> Arc<GraphSnapshot> {
        let name = name.into();
        let snapshot = Arc::new(GraphSnapshot::new_loaded(name.clone(), graph));
        self.insert(name, snapshot.clone());
        snapshot
    }

    /// Registers the snapshot file at `path` under `name` **without loading
    /// it**: only the header is probed (O(header) — magic, version,
    /// fingerprint, section table), so registering a multi-gigabyte graph
    /// costs the same as a tiny one. The graph materializes on first use,
    /// backed according to `mode`.
    pub fn register_snapshot_file(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
        mode: LoadMode,
    ) -> Result<Arc<GraphSnapshot>, ServiceError> {
        let name = name.into();
        let path = path.as_ref().to_path_buf();
        let info = io::probe_snapshot(&path)?;
        let snapshot = Arc::new(GraphSnapshot::new_pending(
            name.clone(),
            info.fingerprint,
            path,
            mode,
        ));
        self.insert(name, snapshot.clone());
        Ok(snapshot)
    }

    fn insert(&self, name: String, snapshot: Arc<GraphSnapshot>) {
        self.graphs
            .lock()
            .expect("catalog lock")
            .insert(name, snapshot);
    }

    /// The snapshot registered under `name`, if any.
    pub fn get(&self, name: &str) -> Option<Arc<GraphSnapshot>> {
        self.graphs.lock().expect("catalog lock").get(name).cloned()
    }

    /// Removes the snapshot registered under `name`, returning its handle.
    pub fn remove(&self, name: &str) -> Option<Arc<GraphSnapshot>> {
        self.graphs.lock().expect("catalog lock").remove(name)
    }

    /// All registered names, ascending.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .graphs
            .lock()
            .expect("catalog lock")
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        self.graphs.lock().expect("catalog lock").len()
    }

    /// True if nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Persists the named snapshot to `path` in the binary snapshot format.
    /// Prefer [`GraphCatalog::persist`] for whole-catalog persistence.
    pub fn save(&self, name: &str, path: impl AsRef<Path>) -> Result<(), ServiceError> {
        let snapshot = self
            .get(name)
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_owned()))?;
        io::save_snapshot(path, snapshot.ensure_loaded()?)?;
        Ok(())
    }

    /// Loads a snapshot file eagerly and registers it under
    /// `name`. The decoded graph's fingerprint necessarily equals the one
    /// stored in the file (the loader verifies it), so a reloaded graph hits
    /// the same cache entries as the original. For header-only registration
    /// use [`GraphCatalog::register_snapshot_file`].
    pub fn load(
        &self,
        name: impl Into<String>,
        path: impl AsRef<Path>,
    ) -> Result<Arc<GraphSnapshot>, ServiceError> {
        let graph = io::load_snapshot(path, LoadMode::Eager)?;
        Ok(self.register(name, graph))
    }

    /// Persists the whole catalog into `dir`: one snapshot file per graph,
    /// named by content fingerprint (`<fingerprint>.snap`, so identical
    /// graphs dedupe and unchanged graphs are not rewritten), plus a
    /// [`MANIFEST_FILE`] listing `name → file + fingerprint`. The manifest is
    /// rewritten atomically (temp file + fsync + rename), so a crash
    /// mid-persist leaves the previous manifest intact and a partially
    /// written snapshot file is never referenced.
    pub fn persist(&self, dir: impl AsRef<Path>) -> Result<(), ServiceError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", dir.display())))?;
        let mut lines = String::from("# spidermine catalog manifest v1\n");
        for name in self.names() {
            if name.chars().any(|c| c.is_control()) {
                return Err(ServiceError::Snapshot(SnapshotError::Corrupt(format!(
                    "graph name {name:?} contains control characters and cannot be persisted"
                ))));
            }
            let snapshot = self.get(&name).expect("name just listed");
            let file = format!("{:016x}.snap", snapshot.fingerprint());
            let path = dir.join(&file);
            if !path.exists() {
                io::save_snapshot(&path, snapshot.ensure_loaded()?)?;
            }
            lines.push_str(&format!("{:016x} {file} {name}\n", snapshot.fingerprint()));
        }
        io::atomic_write(dir.join(MANIFEST_FILE), lines.as_bytes())
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", dir.display())))?;
        Ok(())
    }

    /// Restores every graph listed in `dir`'s manifest, registering each one
    /// header-only with [`LoadMode::Mapped`] (see
    /// [`GraphCatalog::restore_with`]). One call rebuilds the whole catalog;
    /// returns the restored names in manifest order.
    pub fn restore(&self, dir: impl AsRef<Path>) -> Result<Vec<String>, ServiceError> {
        self.restore_with(dir, LoadMode::Mapped)
    }

    /// [`GraphCatalog::restore`] with an explicit [`LoadMode`] for the lazy
    /// materialization of each restored graph.
    ///
    /// Restoration is O(header) per graph: each snapshot file's header is
    /// probed (validating magic, version, section table) and its fingerprint
    /// cross-checked against the manifest; no data pages are read until a
    /// job first uses the graph.
    pub fn restore_with(
        &self,
        dir: impl AsRef<Path>,
        mode: LoadMode,
    ) -> Result<Vec<String>, ServiceError> {
        let dir = dir.as_ref();
        let manifest_path = dir.join(MANIFEST_FILE);
        let text = std::fs::read_to_string(&manifest_path)
            .map_err(|e| SnapshotError::Io(format!("{}: {e}", manifest_path.display())))?;
        let corrupt = |line: &str, why: &str| {
            ServiceError::Snapshot(SnapshotError::Corrupt(format!(
                "manifest line {line:?}: {why}"
            )))
        };
        let mut restored = Vec::new();
        for line in text.lines() {
            let trimmed = line.trim();
            if trimmed.is_empty() || trimmed.starts_with('#') {
                continue;
            }
            let mut parts = trimmed.splitn(3, ' ');
            let fingerprint = parts
                .next()
                .and_then(|f| u64::from_str_radix(f, 16).ok())
                .ok_or_else(|| corrupt(trimmed, "bad fingerprint field"))?;
            let file = parts
                .next()
                .filter(|f| !f.contains('/') && !f.contains(".."))
                .ok_or_else(|| corrupt(trimmed, "bad snapshot file field"))?;
            let name = parts
                .next()
                .filter(|n| !n.is_empty())
                .ok_or_else(|| corrupt(trimmed, "missing graph name"))?;
            let snapshot = self.register_snapshot_file(name, dir.join(file), mode)?;
            if snapshot.fingerprint() != fingerprint {
                self.remove(name);
                return Err(corrupt(
                    trimmed,
                    &format!(
                        "snapshot file has fingerprint {:#018x}, manifest says {fingerprint:#018x}",
                        snapshot.fingerprint()
                    ),
                ));
            }
            restored.push(name.to_owned());
        }
        Ok(restored)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spidermine_graph::Label;

    fn toy() -> LabeledGraph {
        LabeledGraph::from_parts(&[Label(0), Label(1), Label(0)], &[(0, 1), (1, 2)])
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("spidermine-catalog-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn register_get_names_remove() {
        let catalog = GraphCatalog::new();
        assert!(catalog.is_empty());
        let snap = catalog.register("toy", toy());
        assert_eq!(snap.name(), "toy");
        assert!(snap.is_loaded());
        assert_eq!(snap.graph().vertex_count(), 3);
        assert_eq!(catalog.names(), vec!["toy".to_owned()]);
        let again = catalog.get("toy").expect("registered");
        assert!(Arc::ptr_eq(&snap, &again), "get hands out the same handle");
        assert!(catalog.get("other").is_none());
        assert!(catalog.remove("toy").is_some());
        assert!(catalog.is_empty());
    }

    #[test]
    fn reregistering_replaces_but_old_handles_survive() {
        let catalog = GraphCatalog::new();
        let old = catalog.register("g", toy());
        let bigger = LabeledGraph::from_parts(&[Label(0); 5], &[(0, 1), (1, 2), (2, 3), (3, 4)]);
        let new = catalog.register("g", bigger);
        assert_eq!(catalog.len(), 1);
        assert!(!Arc::ptr_eq(&old, &new));
        assert_eq!(old.graph().vertex_count(), 3, "old handle still valid");
        assert_eq!(catalog.get("g").expect("g").graph().vertex_count(), 5);
    }

    #[test]
    fn save_load_roundtrip_preserves_fingerprint() {
        let catalog = GraphCatalog::new();
        let original = catalog.register("toy", toy());
        let dir = temp_dir("save");
        let path = dir.join("toy.snap");
        catalog.save("toy", &path).expect("save");
        let restored = GraphCatalog::new();
        let loaded = restored.load("toy", &path).expect("load");
        assert_eq!(loaded.fingerprint(), original.fingerprint());
        assert_eq!(loaded.graph().edge_count(), original.graph().edge_count());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_unknown_graph_is_typed() {
        let catalog = GraphCatalog::new();
        assert!(matches!(
            catalog.save("ghost", "/tmp/never-written.snap"),
            Err(ServiceError::UnknownGraph(_))
        ));
    }

    #[test]
    fn register_snapshot_file_is_lazy_until_first_use() {
        let g = toy();
        let dir = temp_dir("lazy");
        let path = dir.join("toy.snap");
        io::save_snapshot(&path, &g).expect("save");
        let catalog = GraphCatalog::new();
        let snap = catalog
            .register_snapshot_file("toy", &path, LoadMode::Mapped)
            .expect("register");
        assert!(!snap.is_loaded(), "registration must not load the graph");
        assert_eq!(snap.fingerprint(), graph_fingerprint(&g));
        // First use materializes.
        assert_eq!(snap.ensure_loaded().expect("load").vertex_count(), 3);
        assert!(snap.is_loaded());
        assert_eq!(snap.graph().edge_count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lazy_load_errors_are_typed_and_sticky() {
        let g = toy();
        let dir = temp_dir("sticky");
        let path = dir.join("toy.snap");
        io::save_snapshot(&path, &g).expect("save");
        let catalog = GraphCatalog::new();
        let snap = catalog
            .register_snapshot_file("toy", &path, LoadMode::Mapped)
            .expect("register");
        // Corrupt the labels section (first page) after registration but
        // before first use. (The label-index section would not do: it is
        // redundant, and a corrupt one self-heals via rebuild.)
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[io::SNAPSHOT_PAGE] ^= 0xff;
        std::fs::write(&path, &bytes).expect("write");
        let err = snap.ensure_loaded().expect_err("must fail");
        assert!(matches!(err, ServiceError::Snapshot(_)), "{err}");
        assert!(!snap.is_loaded());
        // Sticky: corruption is a property of the bytes, so even repairing
        // the file does not resurrect this handle — the recorded permanent
        // error is reported without re-reading anything.
        bytes[io::SNAPSHOT_PAGE] ^= 0xff;
        std::fs::write(&path, &bytes).expect("repair");
        assert!(snap.ensure_loaded().is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn transient_io_failures_are_retryable_not_sticky() {
        let g = toy();
        let dir = temp_dir("transient");
        let path = dir.join("toy.snap");
        io::save_snapshot(&path, &g).expect("save");
        let catalog = GraphCatalog::new();
        let snap = catalog
            .register_snapshot_file("toy", &path, LoadMode::Mapped)
            .expect("register");
        // A transient outage: the file is briefly gone (mid-replacement, a
        // flaky mount), which surfaces as a transient `SnapshotError::Io`.
        let bytes = std::fs::read(&path).expect("read");
        std::fs::remove_file(&path).expect("remove");
        let err = snap.ensure_loaded().expect_err("missing file must surface");
        match &err {
            ServiceError::Snapshot(e) => assert!(e.is_transient(), "{e}"),
            other => panic!("unexpected error: {other}"),
        }
        assert!(!snap.is_loaded());
        std::fs::write(&path, &bytes).expect("restore");
        // Not sticky: the next attempt reads the (healthy) file and loads.
        assert_eq!(snap.ensure_loaded().expect("retry").vertex_count(), 3);
        assert!(snap.is_loaded());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_restore_roundtrips_a_multi_graph_catalog() {
        let catalog = GraphCatalog::new();
        catalog.register("toy", toy());
        let bigger = LabeledGraph::from_parts(&[Label(2); 4], &[(0, 1), (1, 2), (2, 3)]);
        catalog.register("bigger", bigger);
        let dir = temp_dir("persist");
        catalog.persist(&dir).expect("persist");

        // "Kill" the service: a brand-new catalog restores from disk alone.
        let restored = GraphCatalog::new();
        let names = restored.restore(&dir).expect("restore");
        assert_eq!(names, catalog.names());
        for name in &names {
            let a = catalog.get(name).expect("original");
            let b = restored.get(name).expect("restored");
            assert_eq!(a.fingerprint(), b.fingerprint(), "{name}");
            assert!(!b.is_loaded(), "restore must be header-only");
            assert_eq!(
                a.graph().edge_count(),
                b.ensure_loaded().expect("load").edge_count(),
                "{name}"
            );
        }
        // Re-persisting an unchanged catalog rewrites no snapshot files.
        let before: Vec<(PathBuf, std::time::SystemTime)> = std::fs::read_dir(&dir)
            .expect("dir")
            .map(|e| {
                let e = e.expect("entry");
                (
                    e.path(),
                    e.metadata().expect("meta").modified().expect("mtime"),
                )
            })
            .collect();
        catalog.persist(&dir).expect("re-persist");
        for (path, mtime) in before {
            if path.file_name().is_some_and(|n| n != MANIFEST_FILE) {
                let now = path.metadata().expect("meta").modified().expect("mtime");
                assert_eq!(now, mtime, "{} was rewritten", path.display());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_snapshot_write_is_invisible_to_restore() {
        let catalog = GraphCatalog::new();
        catalog.register("toy", toy());
        let dir = temp_dir("partial");
        catalog.persist(&dir).expect("persist");
        // Simulate a crash mid-write: a temp file the atomic writer did not
        // get to rename. Restore must ignore it entirely.
        std::fs::write(dir.join(".0123.snap.tmp.9999"), b"SPDR").expect("write");
        let restored = GraphCatalog::new();
        let names = restored.restore(&dir).expect("restore");
        assert_eq!(names, vec!["toy".to_owned()]);
        assert_eq!(
            restored
                .get("toy")
                .expect("toy")
                .ensure_loaded()
                .expect("load")
                .vertex_count(),
            3
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restore_rejects_corrupt_manifest_and_fingerprint_lies() {
        let dir = temp_dir("manifest");
        std::fs::write(dir.join(MANIFEST_FILE), "not-hex file.snap name\n").expect("write");
        let catalog = GraphCatalog::new();
        assert!(matches!(
            catalog.restore(&dir),
            Err(ServiceError::Snapshot(SnapshotError::Corrupt(_)))
        ));
        // A manifest whose fingerprint disagrees with the snapshot file.
        let g = toy();
        let file = format!("{:016x}.snap", graph_fingerprint(&g));
        io::save_snapshot(dir.join(&file), &g).expect("save");
        std::fs::write(
            dir.join(MANIFEST_FILE),
            format!("{:016x} {file} toy\n", 0xdead_beefu64),
        )
        .expect("write");
        assert!(matches!(
            catalog.restore(&dir),
            Err(ServiceError::Snapshot(SnapshotError::Corrupt(_)))
        ));
        assert!(catalog.is_empty(), "failed restore must not leave entries");
        // Missing manifest is a typed Io error.
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(
            catalog.restore(&dir),
            Err(ServiceError::Snapshot(SnapshotError::Io(_)))
        ));
    }

    #[test]
    fn persist_rejects_control_characters_in_names() {
        let catalog = GraphCatalog::new();
        catalog.register("evil\nname", toy());
        let dir = temp_dir("evil");
        assert!(catalog.persist(&dir).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn names_with_spaces_survive_the_manifest() {
        let catalog = GraphCatalog::new();
        catalog.register("my favorite graph", toy());
        let dir = temp_dir("spaces");
        catalog.persist(&dir).expect("persist");
        let restored = GraphCatalog::new();
        assert_eq!(
            restored.restore(&dir).expect("restore"),
            vec!["my favorite graph".to_owned()]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
