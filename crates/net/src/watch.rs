//! The `--watch-dir` poller: every `*.set` file in a directory becomes a
//! live [`MutableStore`], kept in sync with the file by diff-based change
//! batches. Extracted from `pbs-syncd` so the failure modes are unit
//! testable.
//!
//! Robustness rules (the reason this is not a ten-line loop):
//!
//! * **Deleted file** → the store receives a *remove-all* change batch and
//!   keeps serving (the empty set) under its epoch sequence; if the file
//!   reappears its contents arrive as a normal diff batch. Delta
//!   subscribers ride through both transitions without a full resync.
//! * **Torn / truncated file** (caught mid-write, producer crashed) → the
//!   longest valid prefix is applied (`setio::load_set_prefix`); the
//!   store never serves stale contents and never panics on garbage. The
//!   next poll after the writer finishes re-diffs to the full contents.
//! * **Change detection** keys on the `(mtime, len)` pair; either field
//!   changing triggers a re-read, and the diff-based apply makes spurious
//!   re-reads harmless — while a plain `mtime >` comparison would silently
//!   drop edits landing inside one mtime granule.
//!
//! Every watched store is opened through [`StoreRegistry::open_store`]:
//! when the registry has a persistence root it is durable, its epoch
//! sequence and changelog survive a daemon restart, and the first scan
//! diffs the file against the *recovered* state — so a restart with an
//! unchanged file is a no-op batch and every client epoch cache stays warm.

use crate::setio;
use crate::store::{MutableStore, StoreRegistry};
use crate::wal::DurableOptions;
use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::SystemTime;

/// The `(mtime, length)` fingerprint change detection keys on.
type FileStamp = (SystemTime, u64);

struct WatchedFile {
    path: PathBuf,
    store: Arc<MutableStore>,
    /// `None` after the file vanished — any reappearance re-diffs.
    stamp: Option<FileStamp>,
}

/// What one [`DirWatcher::scan`] did, for logging and tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScanReport {
    /// Stores registered for files first seen this scan.
    pub registered: usize,
    /// Stores that received an effective change batch.
    pub updated: usize,
    /// Stores emptied because their file vanished.
    pub emptied: usize,
    /// Files whose contents were cut at a torn/invalid tail this scan.
    pub torn: usize,
}

/// Polls one directory of `*.set` files into live stores. Single-threaded:
/// the daemon owns one watcher and calls [`DirWatcher::scan`] from its
/// poll loop.
pub struct DirWatcher {
    dir: PathBuf,
    registry: Arc<StoreRegistry>,
    options: DurableOptions,
    watched: HashMap<String, WatchedFile>,
}

impl DirWatcher {
    /// Watch `dir`, opening a store per file in `registry` with `options`
    /// ([`StoreRegistry::open_store`]: durable under the registry's
    /// persistence root when it has one, in memory otherwise).
    pub fn new(
        dir: impl Into<PathBuf>,
        registry: Arc<StoreRegistry>,
        options: DurableOptions,
    ) -> Self {
        DirWatcher {
            dir: dir.into(),
            registry,
            options,
            watched: HashMap::new(),
        }
    }

    /// One pass: register stores for new `*.set` files, apply edits of
    /// known files as change batches, empty stores whose file vanished.
    /// Never panics on concurrent file mutations; transient I/O errors
    /// leave state untouched until the next scan.
    pub fn scan(&mut self) -> ScanReport {
        let mut report = ScanReport::default();
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            Err(e) => {
                eprintln!("pbs-watch: cannot read {}: {e}", self.dir.display());
                return report;
            }
        };
        let mut seen: HashSet<String> = HashSet::new();
        for entry in entries.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("set") {
                continue;
            }
            let Some(name) = path
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
            else {
                continue;
            };
            if name.len() > crate::frame::MAX_STORE_NAME {
                eprintln!("pbs-watch: skipping {}: name too long", path.display());
                continue;
            }
            let stamp: FileStamp = entry
                .metadata()
                .map(|m| (m.modified().unwrap_or(SystemTime::UNIX_EPOCH), m.len()))
                .unwrap_or((SystemTime::UNIX_EPOCH, 0));
            seen.insert(name.clone());
            match self.watched.get_mut(&name) {
                None => self.register_file(&name, &path, stamp, &mut report),
                Some(file) if file.stamp != Some(stamp) => {
                    file.stamp = Some(stamp);
                    Self::sync_file_to_store(&name, &path, &file.store, &mut report);
                }
                Some(_) => {}
            }
        }
        // Files that vanished since the last scan: empty the store cleanly
        // (a remove-all batch) instead of serving the stale contents.
        for (name, file) in self.watched.iter_mut() {
            if seen.contains(name) || file.stamp.is_none() {
                continue;
            }
            file.stamp = None;
            if let Some(batch) = file.store.converge_to([]) {
                eprintln!(
                    "pbs-watch: {} vanished; store {name:?} emptied ({} removed) at epoch {}",
                    file.path.display(),
                    batch.removed.len(),
                    batch.epoch
                );
            } else {
                eprintln!(
                    "pbs-watch: {} vanished; store {name:?} already empty",
                    file.path.display()
                );
            }
            report.emptied += 1;
        }
        report
    }

    /// First sighting of a file: open and register its store, then diff
    /// the file in. A failed open leaves the file unwatched: the next scan
    /// tries again.
    fn register_file(
        &mut self,
        name: &str,
        path: &Path,
        stamp: FileStamp,
        report: &mut ScanReport,
    ) {
        let store = match self.registry.open_store(name, self.options) {
            Ok((store, _)) => store,
            Err(e) => return eprintln!("pbs-watch: cannot open store {name:?}: {e}"),
        };
        report.registered += 1;
        Self::sync_file_to_store(name, path, &store, report);
        println!(
            "pbs-watch: watching {} as store {name:?} ({} elements, epoch {})",
            path.display(),
            store.len(),
            store.epoch()
        );
        self.watched.insert(
            name.to_string(),
            WatchedFile {
                path: path.to_path_buf(),
                store,
                stamp: Some(stamp),
            },
        );
    }

    /// Converge `store` to the file's current (valid-prefix) contents with
    /// one diff batch.
    fn sync_file_to_store(name: &str, path: &Path, store: &MutableStore, report: &mut ScanReport) {
        let (target, torn) = match setio::load_set_prefix(path) {
            Ok(loaded) => loaded,
            Err(e) => {
                // The file vanished between the directory listing and the
                // read; the vanish pass of a later scan will empty it.
                eprintln!("pbs-watch: cannot read {}: {e}", path.display());
                return;
            }
        };
        if torn {
            report.torn += 1;
            eprintln!(
                "pbs-watch: {} has an invalid tail; applying the {}-element valid prefix",
                path.display(),
                target.len()
            );
        }
        let Some(batch) = store.converge_to(target) else {
            return;
        };
        report.updated += 1;
        println!(
            "pbs-watch: store {name:?} now epoch {} (+{} −{})",
            batch.epoch,
            batch.added.len(),
            batch.removed.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbs_watch_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn deleted_file_empties_the_store_and_reappearance_refills() {
        let dir = tempdir("delete");
        std::fs::write(dir.join("a.set"), "1\n2\n3\n").unwrap();
        let registry = Arc::new(StoreRegistry::new());
        let mut watcher = DirWatcher::new(&dir, Arc::clone(&registry), DurableOptions::default());
        watcher.scan();
        let store = registry.get("a").unwrap().store().clone();
        assert_eq!(store.element_count(), 3);

        std::fs::remove_file(dir.join("a.set")).unwrap();
        let report = watcher.scan();
        assert_eq!(report.emptied, 1);
        assert_eq!(store.element_count(), 0, "remove-all batch, not stale data");
        // A second scan with the file still gone does not re-empty.
        assert_eq!(watcher.scan().emptied, 0);

        // Reappearance refills through the normal diff path, with the
        // epoch sequence intact: 1 (initial) → 2 (empty) → 3 (refill).
        std::fs::write(dir.join("a.set"), "2\n3\n4\n").unwrap();
        watcher.scan();
        assert_eq!(store.element_count(), 3);
        let mutable = registry.get("a").unwrap();
        let (_, epoch) = mutable.store().epoch_snapshot();
        assert_eq!(epoch, Some(3));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn edits_and_vanishes_bump_the_epoch_and_unchanged_scans_do_not() {
        let dir = tempdir("hook");
        std::fs::write(dir.join("a.set"), "1\n2\n").unwrap();
        let registry = Arc::new(StoreRegistry::new());
        let mut watcher = DirWatcher::new(&dir, Arc::clone(&registry), DurableOptions::default());
        let mut epochs = Vec::new();
        let mut scan = |watcher: &mut DirWatcher| {
            watcher.scan();
            let (_, epoch) = registry.get("a").unwrap().store().epoch_snapshot();
            epochs.push(epoch);
        };
        scan(&mut watcher); // initial fill → epoch 1
        scan(&mut watcher); // unchanged → still 1
        std::fs::write(dir.join("a.set"), "1\n2\n3\n").unwrap();
        scan(&mut watcher); // edit → epoch 2
        std::fs::remove_file(dir.join("a.set")).unwrap();
        scan(&mut watcher); // vanish-emptying → epoch 3
        assert_eq!(epochs, [1, 1, 2, 3].map(Some));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_file_serves_the_valid_prefix() {
        let dir = tempdir("torn");
        std::fs::write(dir.join("a.set"), "1\n2\n3\n").unwrap();
        let registry = Arc::new(StoreRegistry::new());
        let mut watcher = DirWatcher::new(&dir, Arc::clone(&registry), DurableOptions::default());
        watcher.scan();
        let store = registry.get("a").unwrap().store().clone();

        // The file is caught torn mid-rewrite: garbage after two elements.
        std::fs::write(dir.join("a.set"), "1\n5\nGARBAGE##\n9\n").unwrap();
        let report = watcher.scan();
        assert_eq!(report.torn, 1);
        let mut now = store.snapshot();
        now.sort_unstable();
        assert_eq!(now, vec![1, 5], "valid prefix applied, stale 2/3 dropped");

        // The writer finishes; the next poll converges to the full file.
        std::fs::write(dir.join("a.set"), "1\n5\n9\n").unwrap();
        watcher.scan();
        let mut now = store.snapshot();
        now.sort_unstable();
        assert_eq!(now, vec![1, 5, 9]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn durable_watch_survives_watcher_restart_with_epoch_continuity() {
        let dir = tempdir("durable_watch");
        let data = tempdir("durable_watch_data");
        std::fs::write(dir.join("a.set"), "1\n2\n").unwrap();
        let epoch_before = {
            let registry = Arc::new(StoreRegistry::new());
            registry.set_persistence_root(&data);
            let mut watcher =
                DirWatcher::new(&dir, Arc::clone(&registry), DurableOptions::default());
            watcher.scan();
            std::fs::write(dir.join("a.set"), "1\n2\n3\n").unwrap();
            watcher.scan();
            let store = registry.get("a").unwrap().store().clone();
            store.epoch_snapshot().1.unwrap()
        };
        assert_eq!(epoch_before, 2);
        // A fresh watcher (daemon restart) over the same data dir recovers
        // the epoch sequence; the unchanged file is a no-op batch.
        let registry = Arc::new(StoreRegistry::new());
        registry.set_persistence_root(&data);
        let mut watcher = DirWatcher::new(&dir, Arc::clone(&registry), DurableOptions::default());
        watcher.scan();
        let store = registry.get("a").unwrap().store().clone();
        let (mut elements, epoch) = store.epoch_snapshot();
        elements.sort_unstable();
        assert_eq!(epoch, Some(epoch_before), "no spurious batch on restart");
        assert_eq!(elements, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&data).unwrap();
    }
}
