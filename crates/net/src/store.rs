//! Element stores and the multi-tenant store registry.
//!
//! A server reconciles clients against one or more named [`SetStore`]s.
//! Every store keeps epochs, and the server serves one kind:
//!
//! * [`MutableStore`] — the store: a set that clients' final transfers and
//!   server-side feeds mutate between sessions ([`MutableStore::apply`]),
//!   with an epoch-stamped changelog ([`MutableStore::changes_since`]) so
//!   readers can follow it as a delta feed instead of re-snapshotting, and
//!   optionally a WAL under it ([`MutableStore::open_durable`]). Every
//!   mutation goes through one commit function.
//! * [`StoreRegistry`] — the name → store map the handshake routes on,
//!   carrying per-store statistics.
//!
//! Mutation safety is snapshot-based: a session takes one look at the set
//! before its estimator exchange — the store's shared per-epoch view
//! ([`SetStore::view`]) or, where the store declines one, a private
//! [`SetStore::snapshot_with_epoch`] — and never looks at the store again
//! until the final transfer, so writers may mutate a [`MutableStore`]
//! *between* (but not observably *during*) the sessions' snapshot points —
//! concurrent sessions simply reconcile against the epoch they read.
//!
//! **Lock poisoning** has one policy here (the private `recover`): take
//! the guard anyway — see there for why that is sound.

use crate::disk::{Disk, Fs};
use crate::server::ServerStats;
use crate::wal::{DurableOptions, RecoveryReport, Wal};
use obs::{Gauge, Histogram};
use pbs_core::SetView;
use std::collections::{BTreeMap, VecDeque};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, LockResult, Mutex, OnceLock, PoisonError, RwLock};
use std::time::{Duration, Instant};
use xhash::derive_seed;

/// The one lock-poison policy of this module: recover the guard. A lock is
/// poisoned when a thread panicked while holding it, and every update made
/// under this module's locks leaves the data valid at every step — the
/// commit function cannot panic between its write-ahead append and the end
/// of its in-memory mutation, `Vec::retain` keeps the notifier list whole
/// when a notifier panics inside it, the registry's maps change by single
/// inserts — so what a poisoned lock guards is still good, and serving it
/// beats panicking every later session on the store.
fn recover<G>(guard: LockResult<G>) -> G {
    guard.unwrap_or_else(PoisonError::into_inner)
}

/// A mutation callback registered with [`SetStore::register_notifier`]:
/// called with the store's new epoch after every effective change batch.
/// Return `false` to unregister (the store drops the notifier). Called
/// *outside* the store's element lock, but must still be fast and
/// non-blocking — a slow notifier delays the mutator, not the sessions.
pub type StoreNotifier = Box<dyn Fn(u64) -> bool + Send + Sync>;

/// What a store can answer when a delta subscriber asks for the changes
/// since an epoch ([`SetStore::delta_since`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaAnswer {
    /// The changelog no longer reaches back to the requested epoch (it was
    /// trimmed past it, the epoch lies in this store's future — e.g. the
    /// server restarted with a fresh store — or the epoch space is
    /// exhausted). The subscriber must re-establish a baseline with a full
    /// reconciliation.
    Trimmed {
        /// The store's current epoch.
        current: u64,
    },
    /// The changes since the requested epoch, oldest first (empty when the
    /// subscriber is already current), plus the epoch they lead to — read
    /// atomically, so replaying `batches` over the subscriber's state
    /// yields exactly the store at `current`.
    Changes {
        /// Change batches after the requested epoch, oldest first.
        batches: Vec<ChangeBatch>,
        /// The store's epoch once every batch is applied.
        current: u64,
    },
}

/// How a full session came by the store's set ([`SetStore::view`]).
#[derive(Debug, Clone)]
pub enum ViewAnswer {
    /// The store's cached view, brought up to the current epoch with the
    /// changelog's net changes since its own (none, when it was current:
    /// every session at one epoch holds the same `Arc`).
    Patched(Arc<SetView>),
    /// A view built from a snapshot for this session, and cached for the
    /// next one to patch.
    Built(Arc<SetView>),
    /// No view: the session takes its own
    /// [`SetStore::snapshot_with_epoch`] and partitions it itself.
    Declined,
}

/// The element store a server reconciles against. Every store keeps
/// epochs: a set stamped with the epoch of its last change batch, and a
/// changelog of those batches for delta catch-ups, pushes and the view.
/// The server serves [`MutableStore`]; a test's wrapper around one
/// delegates through this trait.
///
/// A session reads the set once (estimator and `BobSession` must see the
/// same one) through `view` or, when that declines, `snapshot_with_epoch`;
/// `apply_missing` takes the client's final transfer, `A ∖ B`.
pub trait SetStore: Send + Sync + 'static {
    /// The current element set and the epoch it corresponds to, read
    /// atomically.
    fn snapshot_with_epoch(&self) -> (Vec<u64>, u64);
    /// The current element set.
    fn snapshot(&self) -> Vec<u64> {
        self.snapshot_with_epoch().0
    }
    /// [`SetStore::snapshot_with_epoch`] with the epoch in an `Option` that
    /// is always `Some` — the shape the benchmark's replay reads; it goes
    /// when that call does.
    fn epoch_snapshot(&self) -> (Vec<u64>, Option<u64>) {
        let (elements, epoch) = self.snapshot_with_epoch();
        (elements, Some(epoch))
    }
    /// Ingest elements learned from a client. `false` when the store
    /// refused the batch (a durable store whose write-ahead append failed)
    /// and holds none of it — the caller must not report it as stored.
    fn apply_missing(&self, elements: &[u64]) -> bool;
    /// Number of elements currently held.
    fn element_count(&self) -> usize;
    /// The bit length of the widest element held (0 when empty): the
    /// narrowest universe a session on this store can run in.
    fn universe_bits(&self) -> u32;
    /// The changes since `epoch`, for delta subscribers.
    fn delta_since(&self, epoch: u64) -> DeltaAnswer;
    /// The seed the session a `Hello` opens is to run under — what the
    /// reply names — given the client's `proposal`: the proposal itself
    /// unless the store has a view cached, or is about to build one, under
    /// a seed of its own. Must not wait behind a [`SetStore::view`] call in
    /// progress.
    fn session_seed(&self, proposal: u64) -> u64;
    /// One shared, hash-ordered view of the current set under `seed` — or
    /// [`ViewAnswer::Declined`]. A view handed out has exactly this seed.
    fn view(&self, seed: u64) -> ViewAnswer;
    /// A session under `seed` was seen to give up short of a verified
    /// recovery: a store that holds later sessions to that seed lets go of
    /// it, so that a retry is answered with another.
    fn retire_view(&self, seed: u64);
    /// Register a mutation notifier (the live-subscription wakeup hook).
    fn register_notifier(&self, notifier: StoreNotifier);
    /// Hook called once when the store is registered with a
    /// [`StoreRegistry`]: stores with internal timings publish them into
    /// `metrics` under the given `store` label. The default publishes
    /// nothing.
    fn attach_metrics(&self, _metrics: &obs::Registry, _label: &str) {}
}

/// One epoch's worth of effective changes to a [`MutableStore`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeBatch {
    /// The epoch this batch produced (epochs start at 0 and increase by 1
    /// per effective batch).
    pub epoch: u64,
    /// Elements the batch inserted (that were not present before),
    /// ascending.
    pub added: Vec<u64>,
    /// Elements the batch removed (that were present before), ascending.
    pub removed: Vec<u64>,
}

#[derive(Debug)]
struct MutableInner {
    elements: xhash::Set,
    /// How many of `elements` have each bit length ([`count_widths`]):
    /// kept by `commit`, counted again from the set on every open.
    widths: [u64; 65],
    epoch: u64,
    /// Recent change batches, oldest first; every batch's `epoch` is
    /// `base_epoch + its 1-based position`.
    log: VecDeque<ChangeBatch>,
    /// The epoch the oldest logged batch starts from. A reader at an epoch
    /// older than this can no longer catch up incrementally.
    base_epoch: u64,
    log_capacity: usize,
    /// The persistence backend, when this store is durable: every effective
    /// batch is written ahead to the WAL before memory is mutated, and
    /// snapshots compact the log periodically (see [`crate::wal`]).
    wal: Option<Wal>,
}

impl MutableInner {
    /// Whether the changelog holds every batch after `epoch`. Not for a
    /// reader from this store's future (a cached epoch surviving a server
    /// restart with a fresh store), one older than the retained log, or
    /// once the epoch counter is exhausted.
    fn reaches(&self, epoch: u64) -> bool {
        epoch <= self.epoch && epoch >= self.base_epoch && self.epoch != u64::MAX
    }

    /// Snapshot the full state and truncate the WAL (a no-op without one,
    /// and at the epoch of the snapshot that stands, where the set is not
    /// even copied).
    fn compact(&mut self) -> io::Result<()> {
        let Some(wal) = self.wal.as_mut() else {
            return Ok(());
        };
        let copy = || self.elements.iter().copied().collect::<Vec<u64>>();
        wal.compact(copy, self.epoch, self.log.make_contiguous())
    }
}

/// Add `by` (1, or −1 as it wraps) to `widths`' count of each element's bit
/// length (index: 64 − leading zeros).
fn count_widths<'a>(widths: &mut [u64; 65], elements: impl IntoIterator<Item = &'a u64>, by: u64) {
    for e in elements {
        let n = &mut widths[64 - e.leading_zeros() as usize];
        *n = n.wrapping_add(by);
    }
}

/// What one [`MutableStore::commit`] did.
struct Commit {
    /// The store's epoch when the call returned.
    epoch: u64,
    /// The batch is in the set (trivially, when it changed nothing).
    /// `false` only when the write-ahead append refused it: memory, epoch
    /// and changelog are exactly as before the call, and the feed misses
    /// the batch — degraded, never silently divergent from disk.
    landed: bool,
    /// The I/O error met on the way: the refused append, or the compaction
    /// that should have followed a batch that landed and is in the WAL.
    error: Option<io::Error>,
}

impl Commit {
    fn landed(epoch: u64, error: Option<io::Error>) -> Self {
        Commit {
            epoch,
            landed: true,
            error,
        }
    }

    /// Log the error, for the callers that do not hand it on.
    fn logged(self) -> Self {
        if let Some(e) = &self.error {
            if obs::trace::enabled(obs::trace::Level::Error) {
                obs::trace::event(
                    obs::trace::Level::Error,
                    "store",
                    None,
                    "durable_apply_failed",
                    &[("error", obs::trace::Value::Str(&e.to_string()))],
                );
            } else {
                eprintln!("pbs store: durable apply failed: {e}");
            }
        }
        self
    }
}

#[derive(Default)]
struct Notifiers(Mutex<Vec<StoreNotifier>>);

impl std::fmt::Debug for Notifiers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Notifiers({})", recover(self.0.lock()).len())
    }
}

/// Label under which a store derives the seed of a view it is about to
/// build from its `Hello` history ([`SetStore::session_seed`]).
const VIEW_SEED_SALT: u64 = 0x71E3;

/// The per-epoch view cache behind [`SetStore::view`]. Two locks, so that
/// reading the cached seed for a `Hello` reply never waits behind a patch.
#[derive(Debug, Default)]
struct Views {
    /// Held across a patch or a build: of the sessions that arrive
    /// together one does the work, the rest find its result.
    work: Mutex<()>,
    /// Held only to clone or swap a pointer.
    published: Mutex<Published>,
}

#[derive(Debug, Clone, Default)]
struct Published {
    view: Option<Arc<SetView>>,
    /// The epoch the last full session was served at, by any path.
    last_full: Option<u64>,
    /// Every `Hello`'s proposed seed so far, hashed into one value that
    /// never goes on the wire. A view's seed is derived from it: a pure
    /// function of the sessions served (no clock, no RNG — a replayed
    /// workload replays its bytes), not any one client's to pick by its
    /// proposal, and another one each time it is asked for. (`xxhash64`
    /// is no cryptographic hash: this keeps a seed from being chosen
    /// casually, not from being computed by a peer who inverts it.)
    history: u64,
    /// The seed the last `Hello` answered while a view was due was handed:
    /// the one a view is built under, never a proposal answered before.
    handed: Option<u64>,
}

/// What [`SetStore::view`] and [`SetStore::session_seed`] both go by.
enum Standing {
    /// A view is cached and the changelog still reaches its epoch: the
    /// next full session patches it, and runs under its seed.
    Cached(Arc<SetView>),
    /// No such view, but the previous full session's epoch is still inside
    /// the changelog — full sessions come often enough, against this
    /// store's churn, for a view to pay: the next one builds it.
    Due,
    /// Neither (nothing can bring a view forward once the changelog is
    /// trimmed past it): the next full session is on its own.
    Cold,
}

/// The store: a set mutated between sessions — from the server side and by
/// clients' final transfers — with an epoch-stamped changelog, in memory
/// or over a WAL ([`MutableStore::open_durable`]).
///
/// Every effective mutation batch — [`MutableStore::apply`] from a local
/// feed (e.g. `pbs-syncd --watch-dir`) or [`SetStore::apply_missing`] from
/// a client's final transfer — bumps the store epoch and appends a
/// [`ChangeBatch`] to a bounded changelog. [`MutableStore::changes_since`]
/// turns the store into a delta feed: a reader that remembers the epoch of
/// its last look can fetch exactly the elements that changed since, or
/// learn that the log was truncated and a full re-snapshot is needed.
#[derive(Debug)]
pub struct MutableStore {
    inner: RwLock<MutableInner>,
    /// Live-subscription wakeup hooks, fired (with the new epoch) after
    /// every effective batch, *after* the element lock is released — a
    /// notifier may immediately call back into the store.
    notifiers: Notifiers,
    /// Store-layer telemetry, installed once at registry attach time
    /// ([`SetStore::attach_metrics`]); `None` until then, so unregistered
    /// stores pay nothing.
    metrics: OnceLock<MutableMetrics>,
    /// How long [`crate::wal::recover`] took, for stores opened durably — published
    /// as a gauge when metrics attach.
    recovery_time: Option<Duration>,
    /// The cached per-epoch view. [`MutableStore::commit`] does not know it
    /// exists: the first full session to need the set at a later epoch
    /// brings it forward from the changelog.
    views: Views,
}

/// The [`MutableStore`]-level instruments (WAL append/fsync/compaction
/// timers live inside [`Wal`] itself).
#[derive(Debug)]
struct MutableMetrics {
    /// Latency of one effective `apply` batch, WAL write-through included.
    apply: Arc<Histogram>,
    /// Current element count.
    elements: Gauge,
    /// Current epoch.
    epoch: Gauge,
}

/// Default number of change batches a [`MutableStore`] retains.
pub const DEFAULT_CHANGELOG_CAPACITY: usize = 1024;

impl MutableStore {
    /// Create a store holding the given elements at epoch 0, retaining
    /// [`DEFAULT_CHANGELOG_CAPACITY`] change batches.
    pub fn new(elements: impl IntoIterator<Item = u64>) -> Self {
        Self::with_epoch_origin(elements, 0, DEFAULT_CHANGELOG_CAPACITY)
    }

    /// Create a store whose epoch counter starts at `origin` instead of 0 —
    /// e.g. to resume a persisted store at the epoch it was saved at, so
    /// subscribers holding cached epochs keep working across a restart —
    /// retaining `log_capacity` change batches (0 disables the delta feed:
    /// every [`MutableStore::changes_since`] call from an older epoch
    /// reports truncation). `origin == u64::MAX` constructs the store with
    /// its epoch space already exhausted (see [`MutableStore::apply`]).
    pub(crate) fn with_epoch_origin(
        elements: impl IntoIterator<Item = u64>,
        origin: u64,
        log_capacity: usize,
    ) -> Self {
        // Counted over the input, read in order, not over the table (a pass
        // over several times the memory); again from the set if the input
        // repeats an element.
        let elements: Vec<u64> = elements.into_iter().collect();
        let mut widths = [0; 65];
        count_widths(&mut widths, &elements, 1);
        let given = elements.len();
        let set: xhash::Set = elements.into_iter().collect();
        if set.len() < given {
            widths = [0; 65];
            count_widths(&mut widths, &set, 1);
        }
        MutableStore {
            inner: RwLock::new(MutableInner {
                elements: set,
                widths,
                epoch: origin,
                log: VecDeque::new(),
                base_epoch: origin,
                log_capacity,
                wal: None,
            }),
            notifiers: Notifiers::default(),
            metrics: OnceLock::new(),
            recovery_time: None,
            views: Views::default(),
        }
    }

    /// Open a durable store backed by the directory `dir`: recover the
    /// persisted state (newest valid snapshot + WAL tail, truncating any
    /// torn final record — see [`crate::wal::recover`]) and attach the WAL so
    /// every further effective batch is written through before memory is
    /// mutated. A missing or empty directory opens as the empty store at
    /// epoch 0. Epochs continue exactly where the persisted store left
    /// off, so subscribers' cached epochs stay valid across restarts.
    pub fn open_durable(dir: &Path, options: DurableOptions) -> io::Result<MutableStore> {
        Ok(Self::open_durable_report(dir, options)?.0)
    }

    /// [`MutableStore::open_durable`], additionally returning the recovery
    /// summary (replayed records, truncated bytes, rejected snapshots).
    pub(crate) fn open_durable_report(
        dir: &Path,
        options: DurableOptions,
    ) -> io::Result<(MutableStore, RecoveryReport)> {
        Self::open_on(Box::new(Fs::new(dir)?), options)
    }

    /// [`MutableStore::open_durable_report`] on the store directory `disk`
    /// drives.
    pub(crate) fn open_on(
        disk: Box<dyn Disk>,
        options: DurableOptions,
    ) -> io::Result<(MutableStore, RecoveryReport)> {
        let recovery_start = Instant::now();
        let (wal, recovered) = Wal::recover(disk, options)?;
        let recovery_time = recovery_start.elapsed();
        let report = recovered.report();
        let mut widths = [0; 65];
        count_widths(&mut widths, &recovered.elements, 1);
        let base_epoch = recovered
            .log
            .first()
            .map(|b| b.epoch.saturating_sub(1))
            .unwrap_or(recovered.epoch);
        let store = MutableStore {
            inner: RwLock::new(MutableInner {
                widths,
                elements: recovered.elements,
                epoch: recovered.epoch,
                log: recovered.log.into(),
                base_epoch,
                log_capacity: options.log_capacity,
                wal: Some(wal),
            }),
            notifiers: Notifiers::default(),
            metrics: OnceLock::new(),
            recovery_time: Some(recovery_time),
            views: Views::default(),
        };
        Ok((store, report))
    }

    /// Force a snapshot + log compaction now (durable stores only; a no-op
    /// otherwise). Useful after seeding a store's initial contents so a
    /// restart recovers them from one snapshot instead of a WAL replay.
    pub fn compact_now(&self) -> io::Result<()> {
        recover(self.inner.write()).compact()
    }

    /// The store's current epoch. Epoch 0 is the construction state; every
    /// effective mutation batch increments it by one.
    pub fn epoch(&self) -> u64 {
        recover(self.inner.read()).epoch
    }

    /// Number of elements currently held.
    pub fn len(&self) -> usize {
        recover(self.inner.read()).elements.len()
    }

    /// `true` when the store holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Membership test.
    pub fn contains(&self, element: u64) -> bool {
        recover(self.inner.read()).elements.contains(&element)
    }

    /// Atomically insert `added` and remove `removed`, returning the
    /// resulting epoch. Only *effective* changes are recorded: inserting a
    /// present element or removing an absent one is ignored, and a batch
    /// with no effective change does not bump the epoch. An element in both
    /// lists is treated as an insert (adds win). A durability error is
    /// logged; [`MutableStore::try_apply`] surfaces it instead.
    ///
    /// **Epoch exhaustion.** Epochs increase strictly monotonically, so at
    /// `u64::MAX` (unreachable in practice — one batch per nanosecond for
    /// five centuries) the counter cannot advance without handing two
    /// different states the same stamp. The store then pins the epoch at
    /// `u64::MAX`, drops the changelog and permanently disables the delta
    /// feed: every [`MutableStore::changes_since`] /
    /// [`SetStore::delta_since`] call reports truncation, forcing readers
    /// back to full reconciliation — degraded, never wrong.
    pub fn apply(&self, added: &[u64], removed: &[u64]) -> u64 {
        self.commit(added, removed).logged().epoch
    }

    /// [`MutableStore::apply`] with the durability error surfaced. On a
    /// durable store the effective changes are computed first, written
    /// ahead to the WAL, and only then applied to memory — an `Err` from
    /// the append leaves both memory *and* the store's logical state
    /// exactly as before the call. An `Err` from the post-apply compaction
    /// (snapshotting) means the batch itself *was* applied and is durable
    /// in the WAL; only the snapshot is missing, and the next compaction
    /// retries it. Non-durable stores never return `Err`.
    pub fn try_apply(&self, added: &[u64], removed: &[u64]) -> io::Result<u64> {
        let commit = self.commit(added, removed);
        commit.error.map_or(Ok(commit.epoch), Err)
    }

    /// Converge the store on `target` with one change batch — what `target`
    /// holds and the store lacks goes in, what the store holds and `target`
    /// lacks goes out — and return that batch, stamped with the epoch it
    /// produced. `None` when the store already held exactly `target`. (A
    /// writer racing the call can only make part of the batch ineffective.)
    pub fn converge_to(&self, target: impl IntoIterator<Item = u64>) -> Option<ChangeBatch> {
        let target: xhash::Set = target.into_iter().collect();
        let (mut added, mut removed): (Vec<u64>, Vec<u64>) = {
            let inner = recover(self.inner.read());
            let added = target.difference(&inner.elements).copied().collect();
            (added, inner.elements.difference(&target).copied().collect())
        };
        if added.is_empty() && removed.is_empty() {
            return None;
        }
        added.sort_unstable();
        removed.sort_unstable();
        let epoch = self.apply(&added, &removed);
        Some(ChangeBatch {
            epoch,
            added,
            removed,
        })
    }

    /// The one commit point: every mutation of the set — a local feed's
    /// batch, a client's final transfer, a converged file — is this
    /// function. Under the write lock it computes the effective changes,
    /// writes them ahead to the WAL, and only then edits memory: the set,
    /// the epoch, the changelog. Between the append returning and the end
    /// of that edit nothing can panic (no `expect`, no index, no callback),
    /// which is what makes [`recover`] sound. Metrics and notifiers run
    /// after the lock is released.
    fn commit(&self, added: &[u64], removed: &[u64]) -> Commit {
        let metrics = self.metrics.get();
        let start = metrics.map(|_| Instant::now());
        // Sorted, repeat-free copies, made before the lock is taken: the
        // logged lists come out ascending, an element on both lists is
        // found by binary search (adds win) rather than through a scratch
        // set, and each distinct element probes the set once.
        let [mut added, mut removed] = [added, removed].map(|list| {
            let mut list = list.to_vec();
            list.sort_unstable();
            list.dedup();
            list
        });
        removed.retain(|e| added.binary_search(e).is_err());
        let mut guard = recover(self.inner.write());
        let inner = &mut *guard;
        // Effective changes are computed against the *unmutated* set so the
        // WAL append strictly precedes the state change.
        removed.retain(|e| inner.elements.contains(e));
        added.retain(|e| !inner.elements.contains(e));
        if added.is_empty() && removed.is_empty() {
            return Commit::landed(inner.epoch, None);
        }
        // Write-ahead: the batch must be on disk before memory changes. With
        // the epoch space exhausted (`next` is `None`) the WAL's strict epoch
        // sequencing cannot express the pinned counter; the post-batch state
        // is persisted as a snapshot instead.
        let next = inner.epoch.checked_add(1);
        let mut compaction_due = next.is_none();
        if let (Some(next), Some(wal)) = (next, inner.wal.as_mut()) {
            match wal.append(next, &added, &removed) {
                Ok(due) => compaction_due = due,
                Err(e) => {
                    return Commit {
                        epoch: inner.epoch,
                        landed: false,
                        error: Some(e),
                    }
                }
            }
        }
        for e in &removed {
            inner.elements.remove(e);
        }
        inner.elements.extend(added.iter().copied());
        count_widths(&mut inner.widths, &removed, u64::MAX);
        count_widths(&mut inner.widths, &added, 1);
        if let Some(next) = next {
            inner.epoch = next;
            inner.log.push_back(ChangeBatch {
                epoch: next,
                added,
                removed,
            });
            // (Capacity 0 drops the batch just pushed: the feed is off.)
            while inner.log.len() > inner.log_capacity {
                let Some(dropped) = inner.log.pop_front() else {
                    break;
                };
                inner.base_epoch = dropped.epoch;
            }
        }
        if inner.epoch == u64::MAX {
            // The counter can never advance again; disable the feed now so
            // no reader ever mistakes the pinned epoch for "current".
            inner.log.clear();
            inner.base_epoch = u64::MAX;
        }
        let error = compaction_due
            .then(|| inner.compact())
            .and_then(Result::err);
        let (epoch, len) = (inner.epoch, inner.elements.len());
        drop(guard);
        if let (Some(m), Some(start)) = (metrics, start) {
            m.apply.record_duration(start.elapsed());
            m.elements.set(len as f64);
            m.epoch.set(epoch as f64);
        }
        // Fire the notifiers only after the element lock is released, so a
        // notifier (the event loop's wakeup hook) may call straight back
        // into `delta_since` without deadlocking.
        recover(self.notifiers.0.lock()).retain(|n| n(epoch));
        Commit::landed(epoch, error)
    }

    /// Every change batch after `epoch`, oldest first — empty when the
    /// reader is already current. Returns `None` when the changelog no
    /// longer reaches back to `epoch` (the reader must re-snapshot); see
    /// [`MutableStore::apply`] for the exhausted-epoch case.
    pub fn changes_since(&self, epoch: u64) -> Option<Vec<ChangeBatch>> {
        match self.delta_since(epoch) {
            DeltaAnswer::Changes { batches, .. } => Some(batches),
            _ => None,
        }
    }

    /// The current elements together with the epoch they correspond to —
    /// the starting point of a delta-feed reader.
    pub fn snapshot_with_epoch(&self) -> (Vec<u64>, u64) {
        let inner = recover(self.inner.read());
        (inner.elements.iter().copied().collect(), inner.epoch)
    }

    /// Whether the changelog still holds every batch after `epoch`.
    fn log_reaches(&self, epoch: u64) -> bool {
        recover(self.inner.read()).reaches(epoch)
    }

    /// Where the view cache stands against the changelog. `Views::published`
    /// is let go before the element lock is taken.
    fn standing(&self) -> Standing {
        let Published {
            view, last_full, ..
        } = recover(self.views.published.lock()).clone();
        match view.filter(|view| self.log_reaches(view.epoch())) {
            Some(view) => Standing::Cached(view),
            None if last_full.is_some_and(|epoch| self.log_reaches(epoch)) => Standing::Due,
            None => Standing::Cold,
        }
    }

    /// A view of the set as it is now, from a snapshot. The element lock is
    /// held for the copy only; hashing and sorting run outside it.
    fn build_view(&self, seed: u64) -> ViewAnswer {
        let (elements, epoch) = self.snapshot_with_epoch();
        // The bank is kept at the default sketch count whatever this
        // session negotiated: the view outlives it, and serves a session
        // with another count from its elements.
        let sketches = estimator::DEFAULT_SKETCH_COUNT;
        ViewAnswer::Built(Arc::new(SetView::build(elements, seed, sketches, epoch)))
    }

    /// `view` brought up to the current epoch through every batch the
    /// changelog holds past its own, however many: [`SetView::patched`]
    /// folds them, each element to its last change. The element lock is
    /// held for the changelog read only; the fold and the merge run outside
    /// it.
    fn bring_forward(&self, view: &Arc<SetView>) -> ViewAnswer {
        let DeltaAnswer::Changes { batches, current } = self.delta_since(view.epoch()) else {
            // Trimmed since the caller looked.
            return ViewAnswer::Declined;
        };
        if batches.is_empty() {
            return ViewAnswer::Patched(Arc::clone(view));
        }
        let changes = batches
            .iter()
            .map(|batch| (&batch.added[..], &batch.removed[..]));
        ViewAnswer::Patched(Arc::new(view.patched(changes, current)))
    }
}

impl SetStore for MutableStore {
    /// The inherent [`MutableStore::snapshot_with_epoch`], which callers
    /// without the trait in scope reach.
    fn snapshot_with_epoch(&self) -> (Vec<u64>, u64) {
        MutableStore::snapshot_with_epoch(self)
    }

    fn apply_missing(&self, elements: &[u64]) -> bool {
        self.commit(elements, &[]).logged().landed
    }

    fn element_count(&self) -> usize {
        self.len()
    }

    fn universe_bits(&self) -> u32 {
        let widths = recover(self.inner.read()).widths;
        widths.iter().rposition(|&n| n > 0).unwrap_or(0) as u32
    }

    /// The cached view's seed while the changelog can still bring that
    /// view forward; a seed of the store's own making where the session
    /// this `Hello` opens is the one [`SetStore::view`] would build a view
    /// for, which every later session is then held to; the proposal
    /// otherwise. `Views::work` is never taken.
    fn session_seed(&self, proposal: u64) -> u64 {
        let standing = self.standing();
        let mut published = recover(self.views.published.lock());
        published.history = derive_seed(published.history, proposal);
        let derived = derive_seed(published.history, VIEW_SEED_SALT);
        match standing {
            Standing::Cached(view) => view.seed(),
            Standing::Due => *published.handed.insert(derived),
            Standing::Cold => proposal,
        }
    }

    /// Patch, build or decline, chosen from what the store can see — is a
    /// view cached, and under the asked seed; does the changelog reach its
    /// epoch, or the previous full session's — under no lock but
    /// `Views::work`.
    fn view(&self, seed: u64) -> ViewAnswer {
        let _work = recover(self.views.work.lock());
        let standing = self.standing();
        let handed = recover(self.views.published.lock()).handed;
        let answer = match &standing {
            // The `Hello` was answered before this view was cached: the
            // session runs on its own and leaves the view alone.
            Standing::Cached(view) if view.seed() != seed => ViewAnswer::Declined,
            Standing::Cached(view) => self.bring_forward(view),
            Standing::Due if handed == Some(seed) => self.build_view(seed),
            Standing::Due | Standing::Cold => ViewAnswer::Declined,
        };
        let (view, epoch) = match (&answer, standing) {
            (ViewAnswer::Patched(view) | ViewAnswer::Built(view), _) => {
                (Some(Arc::clone(view)), view.epoch())
            }
            (ViewAnswer::Declined, Standing::Cached(view)) => (Some(view), self.epoch()),
            (ViewAnswer::Declined, _) => (None, self.epoch()),
        };
        let mut published = recover(self.views.published.lock());
        published.view = view;
        published.last_full = Some(epoch);
        answer
    }

    /// Forget the view cached under `seed`. The previous full session's
    /// epoch stays, so the next one builds anew — under the seed its
    /// `Hello` is answered with, which is another one: the history it is
    /// derived from has moved on. (Behind `Views::work`, so that a patch in
    /// progress does not publish the view back.)
    fn retire_view(&self, seed: u64) {
        let _work = recover(self.views.work.lock());
        let mut published = recover(self.views.published.lock());
        if published
            .view
            .as_ref()
            .is_some_and(|view| view.seed() == seed)
        {
            published.view = None;
        }
    }

    fn register_notifier(&self, notifier: StoreNotifier) {
        recover(self.notifiers.0.lock()).push(notifier);
    }

    fn attach_metrics(&self, metrics: &obs::Registry, label: &str) {
        let labels = [("store", label)];
        let m = MutableMetrics {
            apply: metrics.histogram(
                "pbs_store_apply_seconds",
                "Latency of one effective mutation batch, WAL write-through included.",
                &labels,
                1e-9,
            ),
            elements: metrics.gauge("pbs_store_elements", "Current element count.", &labels),
            epoch: metrics.gauge("pbs_store_epoch", "Current store epoch.", &labels),
        };
        {
            let mut inner = recover(self.inner.write());
            m.elements.set(inner.elements.len() as f64);
            m.epoch.set(inner.epoch as f64);
            if let Some(wal) = inner.wal.as_mut() {
                wal.set_timers(
                    metrics.histogram(
                        "pbs_store_wal_append_seconds",
                        "WAL append latency (encode + buffered write, fsync excluded).",
                        &labels,
                        1e-9,
                    ),
                    metrics.histogram(
                        "pbs_store_wal_fsync_seconds",
                        "WAL fsync latency (sync_writes stores only).",
                        &labels,
                        1e-9,
                    ),
                    metrics.histogram(
                        "pbs_store_compaction_seconds",
                        "Snapshot + log compaction duration.",
                        &labels,
                        1e-9,
                    ),
                );
            }
        }
        if let Some(t) = self.recovery_time {
            metrics
                .gauge(
                    "pbs_store_recovery_seconds",
                    "How long crash recovery (snapshot load + WAL replay) took at open.",
                    &labels,
                )
                .set(t.as_secs_f64());
        }
        let _ = self.metrics.set(m);
    }

    fn delta_since(&self, epoch: u64) -> DeltaAnswer {
        let inner = recover(self.inner.read());
        // Such a reader must rebuild its baseline with a full
        // reconciliation.
        if !inner.reaches(epoch) {
            return DeltaAnswer::Trimmed {
                current: inner.epoch,
            };
        }
        // The log is in epoch order: the reader's batches are its tail.
        let first = inner.log.partition_point(|b| b.epoch <= epoch);
        DeltaAnswer::Changes {
            batches: inner.log.range(first..).cloned().collect(),
            current: inner.epoch,
        }
    }
}

/// A named store registered with a server: the store itself and its own
/// statistics counters (sessions are additionally folded into the
/// server-wide stats).
pub struct RegisteredStore {
    name: String,
    store: Arc<dyn SetStore>,
    stats: Arc<ServerStats>,
}

impl RegisteredStore {
    /// The name the handshake routes on (empty = the default store).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The store itself.
    pub fn store(&self) -> &Arc<dyn SetStore> {
        &self.store
    }

    /// This store's own counters.
    pub fn stats(&self) -> &Arc<ServerStats> {
        &self.stats
    }
}

impl std::fmt::Debug for RegisteredStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RegisteredStore")
            .field("name", &self.name)
            .finish_non_exhaustive()
    }
}

/// The name → store map a server serves. The empty name is the default
/// store.
///
/// Stores can be registered while the server is running (`pbs-syncd
/// --watch-dir` does); sessions resolve the name exactly once, at their
/// handshake.
#[derive(Debug, Default)]
pub struct StoreRegistry {
    stores: RwLock<BTreeMap<String, Arc<RegisteredStore>>>,
    /// When set, [`StoreRegistry::open_store`] opens its stores durably,
    /// each rooted in a directory of its own under here.
    persistence_root: RwLock<Option<PathBuf>>,
    /// The metric registry every per-store counter, gauge and histogram
    /// registers into — shared with the server(s) built over this registry,
    /// so one `/metrics` render covers everything.
    metrics: Arc<obs::Registry>,
}

/// The `store` label value a name renders under: the default store (empty
/// name) is labeled `default` so the label is never the empty string.
pub(crate) fn store_label(name: &str) -> &str {
    if name.is_empty() {
        "default"
    } else {
        name
    }
}

/// The directory name a store's persistent state lives under, inside a
/// registry's persistence root. The default store (empty name) maps to
/// `default`; named stores map to `store-<name>` with every byte outside
/// `[A-Za-z0-9._-]` replaced by `_` so any wire-addressable name yields a
/// portable path component.
pub(crate) fn store_dir_name(name: &str) -> String {
    if name.is_empty() {
        return "default".to_string();
    }
    let sanitized: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.') {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("store-{sanitized}")
}

impl StoreRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry holding a single default store — what
    /// [`crate::Server::bind`] wraps a bare store into.
    pub fn single(store: Arc<dyn SetStore>) -> Self {
        let registry = Self::new();
        registry.register("", store);
        registry
    }

    /// Register (or replace) a store under `name`. Returns the registered
    /// entry. Names longer than `MAX_STORE_NAME` (64) bytes
    /// cannot be addressed by any handshake and are rejected with a panic —
    /// a configuration error, not a runtime condition.
    pub fn register(
        &self,
        name: impl Into<String>,
        store: Arc<dyn SetStore>,
    ) -> Arc<RegisteredStore> {
        let name = name.into();
        assert!(
            name.len() <= crate::frame::MAX_STORE_NAME,
            "store name {name:?} exceeds the {}-byte wire limit",
            crate::frame::MAX_STORE_NAME
        );
        // Counters register idempotently by (name, label): replacing a store
        // under the same name resumes its counters instead of zeroing them.
        let stats = Arc::new(ServerStats::registered(
            &self.metrics,
            "pbs_store_",
            &[("store", store_label(&name))],
        ));
        store.attach_metrics(&self.metrics, store_label(&name));
        let entry = Arc::new(RegisteredStore {
            name: name.clone(),
            store,
            stats,
        });
        recover(self.stores.write()).insert(name, Arc::clone(&entry));
        entry
    }

    /// The metric registry behind this store registry (shared with any
    /// server built over it).
    pub fn metrics(&self) -> Arc<obs::Registry> {
        Arc::clone(&self.metrics)
    }

    /// Make every store [`StoreRegistry::open_store`] opens from now on
    /// durable, its persistence directory under `root` (created on first
    /// use).
    pub fn set_persistence_root(&self, root: impl Into<PathBuf>) {
        *recover(self.persistence_root.write()) = Some(root.into());
    }

    /// The persistence directory a store named `name` maps to (`None`
    /// without a persistence root). See [`store_dir_name`].
    pub(crate) fn store_dir(&self, name: &str) -> Option<PathBuf> {
        let root = recover(self.persistence_root.read());
        root.as_ref().map(|r| r.join(store_dir_name(name)))
    }

    /// Open a [`MutableStore`] and register it under `name`: durable, at
    /// `StoreRegistry::store_dir` and recovering whatever that directory
    /// holds, when the registry has a persistence root; in memory and empty
    /// otherwise (`options.log_capacity` sizes the changelog either way).
    /// A recovery that found state says so on stderr. Returns the concrete
    /// store handle, for feeding mutations, with the recovery summary
    /// (all-zero for a store that started empty).
    pub fn open_store(
        &self,
        name: &str,
        options: DurableOptions,
    ) -> io::Result<(Arc<MutableStore>, RecoveryReport)> {
        let (store, report) = match self.store_dir(name) {
            Some(dir) => MutableStore::open_durable_report(&dir, options)?,
            None => {
                let store = MutableStore::with_epoch_origin([], 0, options.log_capacity);
                (store, RecoveryReport::default())
            }
        };
        if report.epoch > 0 || report.truncated_bytes > 0 {
            eprintln!(
                "pbs store: {name:?} recovered at epoch {} ({} elements, {} WAL records \
                 replayed, {} torn bytes dropped)",
                report.epoch, report.elements, report.wal_records, report.truncated_bytes
            );
        }
        let store = Arc::new(store);
        self.register(name, Arc::clone(&store) as Arc<dyn SetStore>);
        Ok((store, report))
    }

    /// Look a store up by name.
    pub fn get(&self, name: &str) -> Option<Arc<RegisteredStore>> {
        recover(self.stores.read()).get(name).cloned()
    }

    /// All registered names, sorted (the default store sorts first as the
    /// empty string).
    pub fn names(&self) -> Vec<String> {
        recover(self.stores.read()).keys().cloned().collect()
    }

    /// Number of registered stores.
    pub fn len(&self) -> usize {
        recover(self.stores.read()).len()
    }

    /// `true` when no store is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Matching, Name, Op, RecordingDisk};
    use crate::machine::DeltaFold;
    use std::collections::{BTreeSet, HashSet};

    /// Whether `store` writes through to a WAL.
    fn is_durable(store: &MutableStore) -> bool {
        recover(store.inner.read()).wal.is_some()
    }

    #[test]
    fn mutable_store_epochs_and_delta_feed() {
        let store = MutableStore::new([1u64, 2, 3]);
        assert_eq!(store.epoch(), 0);
        assert_eq!(store.len(), 3);

        // No-op batches do not bump the epoch.
        assert_eq!(store.apply(&[1], &[99]), 0);

        assert_eq!(store.apply(&[4, 5], &[1]), 1);
        assert_eq!(store.apply(&[6], &[]), 2);
        assert!(store.contains(4) && !store.contains(1));

        // A reader at epoch 0 sees both batches, in order.
        let changes = store.changes_since(0).expect("log intact");
        assert_eq!(changes.len(), 2);
        assert_eq!(changes[0].epoch, 1);
        assert_eq!(changes[0].added, vec![4, 5]);
        assert_eq!(changes[0].removed, vec![1]);
        assert_eq!(changes[1].added, vec![6]);
        // A current reader sees nothing new.
        assert_eq!(store.changes_since(2).unwrap(), vec![]);

        // Replaying the feed over the epoch-0 snapshot reproduces the set.
        let mut replay: HashSet<u64> = [1u64, 2, 3].into_iter().collect();
        for batch in &changes {
            for &e in &batch.removed {
                replay.remove(&e);
            }
            replay.extend(batch.added.iter().copied());
        }
        let mut now = store.snapshot();
        now.sort_unstable();
        let mut replayed: Vec<u64> = replay.into_iter().collect();
        replayed.sort_unstable();
        assert_eq!(now, replayed);
    }

    #[test]
    fn mutable_store_log_truncation_demands_resnapshot() {
        let store = MutableStore::with_epoch_origin([1u64], 0, 2);
        for i in 0..5u64 {
            store.apply(&[100 + i], &[]);
        }
        assert_eq!(store.epoch(), 5);
        // Only the last two batches survive; epoch-2 readers are stale.
        assert!(store.changes_since(2).is_none());
        let tail = store.changes_since(3).expect("within capacity");
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[0].epoch, 4);
        // Capacity 0: any past epoch is immediately stale.
        let no_log = MutableStore::with_epoch_origin([], 0, 0);
        no_log.apply(&[7], &[]);
        assert!(no_log.changes_since(0).is_none());
        assert_eq!(no_log.changes_since(1).unwrap(), vec![]);
    }

    #[test]
    fn apply_missing_is_an_epoch_stamped_batch() {
        let store = MutableStore::new([1u64]);
        SetStore::apply_missing(&store, &[2, 3]);
        assert_eq!(store.epoch(), 1);
        let changes = store.changes_since(0).unwrap();
        assert_eq!(changes.len(), 1);
        assert_eq!(changes[0].added, vec![2, 3]);
        let (snapshot, epoch) = store.snapshot_with_epoch();
        assert_eq!(epoch, 1);
        assert_eq!(snapshot.len(), 3);
    }

    #[test]
    fn epoch_exhaustion_pins_the_counter_and_kills_the_feed() {
        // "Wraparound" must never happen: the counter saturates at
        // u64::MAX and the delta feed turns itself off instead of handing
        // two states the same stamp.
        let store = MutableStore::with_epoch_origin([1u64], u64::MAX - 2, 64);
        assert_eq!(store.epoch(), u64::MAX - 2);
        assert_eq!(store.apply(&[2], &[]), u64::MAX - 1);
        // The feed still works below the ceiling.
        assert_eq!(store.changes_since(u64::MAX - 2).unwrap().len(), 1);
        // This batch lands exactly on u64::MAX: recorded, feed disabled.
        assert_eq!(store.apply(&[3], &[]), u64::MAX);
        assert!(store.changes_since(u64::MAX - 1).is_none());
        assert!(store.changes_since(u64::MAX).is_none());
        assert_eq!(
            store.delta_since(u64::MAX),
            DeltaAnswer::Trimmed { current: u64::MAX }
        );
        // Further effective mutations still apply to the set, with the
        // epoch pinned — monotonicity is never violated.
        assert_eq!(store.apply(&[4], &[1]), u64::MAX);
        assert!(store.contains(4) && !store.contains(1));
        assert_eq!(store.epoch(), u64::MAX);
        // A store constructed already-exhausted behaves the same.
        let dead = MutableStore::with_epoch_origin([9u64], u64::MAX, 8);
        assert_eq!(dead.apply(&[10], &[]), u64::MAX);
        assert!(dead.changes_since(u64::MAX).is_none());
    }

    #[test]
    fn future_epochs_demand_a_resync() {
        // A subscriber whose cached epoch outruns this store (fresh store
        // after a restart) must not be handed an empty delta and believe
        // itself current.
        let store = MutableStore::new([1u64, 2]);
        store.apply(&[3], &[]);
        assert!(store.changes_since(5).is_none());
        assert_eq!(store.delta_since(5), DeltaAnswer::Trimmed { current: 1 });
        assert_eq!(
            store.delta_since(1),
            DeltaAnswer::Changes {
                batches: vec![],
                current: 1
            }
        );
    }

    #[test]
    fn add_then_remove_batches_collapse_under_replay() {
        let store = MutableStore::new([1u64]);
        // Same element added then removed in consecutive batches: a delta
        // reader replaying both must end without it…
        store.apply(&[7], &[]);
        store.apply(&[], &[7]);
        // …and added-then-re-added stays present.
        store.apply(&[8], &[]);
        // Within ONE batch, adds win over removes of the same element.
        let epoch = store.apply(&[9], &[9]);
        assert_eq!(epoch, 4);
        assert!(store.contains(9));
        let changes = store.changes_since(0).unwrap();
        assert_eq!(changes.len(), 4);
        assert_eq!(changes[3].added, vec![9]);
        assert!(changes[3].removed.is_empty());
        let mut replay: HashSet<u64> = [1u64].into_iter().collect();
        for batch in &changes {
            for e in &batch.removed {
                replay.remove(e);
            }
            replay.extend(batch.added.iter().copied());
        }
        let mut replayed: Vec<u64> = replay.into_iter().collect();
        replayed.sort_unstable();
        assert_eq!(replayed, vec![1, 8, 9]);
        assert!(!replayed.contains(&7), "add-then-remove must collapse");
    }

    #[test]
    fn epoch_snapshot_is_atomic_under_concurrent_apply() {
        // Writers always insert/remove elements in pairs (2k, 2k+1) within
        // one batch; every snapshot must observe both-or-neither of each
        // pair, and replaying the changes since the snapshot's epoch must
        // reproduce a later snapshot exactly.
        let store = Arc::new(MutableStore::new(
            (0u64..64).flat_map(|k| [2 * k, 2 * k + 1]),
        ));
        let writers: Vec<_> = (0..2u64)
            .map(|w| {
                let store = Arc::clone(&store);
                std::thread::spawn(move || {
                    for i in 0..200u64 {
                        let k = 1000 + w * 1000 + (i % 97);
                        if i % 3 == 0 {
                            store.apply(&[], &[2 * k, 2 * k + 1]);
                        } else {
                            store.apply(&[2 * k, 2 * k + 1], &[]);
                        }
                    }
                })
            })
            .collect();
        // The same holds of the view — its elements, bank and epoch are one
        // state of the store, whether built from a snapshot or brought
        // forward from the changelog while the writers run.
        let whole = |elements: &[u64], epoch: u64, what: &str| {
            let set: HashSet<u64> = elements.iter().copied().collect();
            for &e in elements {
                let partner = e ^ 1;
                assert!(
                    set.contains(&partner),
                    "{what} at epoch {epoch} tore a pair: {e} without {partner}"
                );
            }
        };
        let mut views: Vec<Arc<SetView>> = Vec::new();
        for i in 0..200 {
            let (snapshot, epoch) = store.snapshot_with_epoch();
            whole(&snapshot, epoch, "snapshot");
            if i % 8 == 0 {
                if let ViewAnswer::Patched(view) | ViewAnswer::Built(view) = look(&store, 5) {
                    whole(view.elements(), view.epoch(), "view");
                    let cold = cold_view(view.elements().to_vec(), view.seed(), view.epoch());
                    assert_eq!(*view, cold, "the bank is the elements' bank");
                    views.push(view);
                }
            }
        }
        for w in writers {
            w.join().unwrap();
        }
        assert!(views.len() >= 24, "all but the first session got a view");
        assert!(views.windows(2).all(|w| w[0].epoch() <= w[1].epoch()));
        // Each view's epoch is the epoch of its elements: replaying what
        // the changelog still holds past it leads to the store as it is.
        for view in views.iter().rev().take(3) {
            let Some(changes) = store.changes_since(view.epoch()) else {
                continue;
            };
            let mut replay: HashSet<u64> = view.elements().iter().copied().collect();
            for batch in changes {
                for e in &batch.removed {
                    replay.remove(e);
                }
                replay.extend(batch.added.iter().copied());
            }
            assert_eq!(
                sorted(replay.into_iter().collect()),
                sorted(store.snapshot())
            );
        }
        // Replay consistency once writers are quiet: old snapshot + the
        // changes since its epoch == current snapshot.
        let (old, old_epoch) = store.snapshot_with_epoch();
        store.apply(&[5_000_001], &[0]);
        store.apply(&[5_000_003], &[1]);
        let mut replay: HashSet<u64> = old.into_iter().collect();
        for batch in store.changes_since(old_epoch).expect("log intact") {
            for e in &batch.removed {
                replay.remove(e);
            }
            replay.extend(batch.added.iter().copied());
        }
        let (mut now, _) = store.snapshot_with_epoch();
        now.sort_unstable();
        let mut replayed: Vec<u64> = replay.into_iter().collect();
        replayed.sort_unstable();
        assert_eq!(now, replayed);
    }

    /// Which of the three a [`SetStore::view`] call did.
    fn path(answer: &ViewAnswer) -> &'static str {
        match answer {
            ViewAnswer::Patched(_) => "patched",
            ViewAnswer::Built(_) => "built",
            ViewAnswer::Declined => "declined",
        }
    }

    fn view_of(answer: ViewAnswer) -> Arc<SetView> {
        match answer {
            ViewAnswer::Patched(view) | ViewAnswer::Built(view) => view,
            ViewAnswer::Declined => panic!("the store declined a view"),
        }
    }

    /// What a full session does: its `Hello` is answered, then its set-up
    /// asks for the view under the seed the answer named.
    fn look(store: &MutableStore, proposal: u64) -> ViewAnswer {
        store.view(store.session_seed(proposal))
    }

    /// What [`SetView::build`] makes of `elements`, the way the store
    /// calls it.
    fn cold_view(elements: Vec<u64>, seed: u64, epoch: u64) -> SetView {
        SetView::build(elements, seed, estimator::DEFAULT_SKETCH_COUNT, epoch)
    }

    /// Patch, build or decline, from what the store can see: whether a
    /// view is cached and under which seed, whether the changelog reaches
    /// its epoch or the previous full session's.
    #[test]
    fn the_view_is_patched_built_or_declined_by_what_the_store_observes() {
        let store = MutableStore::new(1..=400u64);
        // A first full session: nothing says another will follow, the
        // client's proposal stands.
        assert_eq!(store.session_seed(7), 7);
        assert_eq!(path(&store.view(7)), "declined");
        // A second, with the first's epoch still in the changelog: its
        // `Hello` is answered with a seed of the store's own making — not
        // the proposal, and another one each time — the view is built under
        // the seed the session runs under, and advertised from here on. Of
        // two `Hello`s answered so, the later one's seed is the one: the
        // earlier session runs on its own.
        let earlier = store.session_seed(7);
        let seed = store.session_seed(7);
        assert!(earlier != 7 && seed != earlier);
        store.apply(&[1000], &[]);
        assert_eq!(path(&store.view(earlier)), "declined");
        let built = store.view(seed);
        assert_eq!(path(&built), "built");
        let built = view_of(built);
        assert_eq!((built.seed(), built.epoch(), built.len()), (seed, 1, 401));
        assert_eq!((store.session_seed(7), store.session_seed(8)), (seed, seed));
        // At the same epoch: the same allocation.
        let again = store.view(seed);
        assert_eq!(path(&again), "patched");
        assert!(Arc::ptr_eq(&view_of(again), &built));
        // Past it: brought forward — adds, removes, an element out and
        // back in — to exactly the view a cold build of the set gives.
        store.apply(&[1001, 1002], &[1, 2, 1000]);
        store.apply(&[1], &[1001]);
        let patched = store.view(seed);
        assert_eq!(path(&patched), "patched");
        let patched = view_of(patched);
        assert!(!Arc::ptr_eq(&patched, &built));
        assert_eq!(*patched, cold_view(store.snapshot(), seed, 3));
        // A session whose `Hello` was answered with another seed runs on
        // its own, and leaves the view where it is.
        assert_eq!(path(&store.view(8)), "declined");
        assert_eq!(store.session_seed(8), seed);
        // However large the change, a reachable view is patched.
        let flood: Vec<u64> = (2000..3000).collect();
        store.apply(&flood, &(1..=400).collect::<Vec<u64>>());
        let flooded = store.view(seed);
        assert_eq!(path(&flooded), "patched");
        assert_eq!(*view_of(flooded), cold_view(store.snapshot(), seed, 4));

        // An element the view holds or lacks, through every run of batches
        // that takes it out and in again (the changelog records effective
        // changes only, so a run alternates): the view brought forward
        // over the whole run is the cold view of what the store holds.
        for held in [false, true] {
            for batches in 1..=4 {
                let store = MutableStore::new((1..=50u64).chain(held.then_some(99)));
                look(&store, 7);
                let seed = view_of(look(&store, 7)).seed();
                let mut holds = held;
                for _ in 0..batches {
                    let (added, removed) = if holds {
                        ([].as_slice(), [99].as_slice())
                    } else {
                        ([99].as_slice(), [].as_slice())
                    };
                    store.apply(added, removed);
                    holds = !holds;
                }
                let forward = look(&store, 7);
                assert_eq!(path(&forward), "patched", "held {held}, {batches} batches");
                assert_eq!(
                    *view_of(forward),
                    cold_view(store.snapshot(), seed, batches),
                    "held {held}, {batches} batches"
                );
                assert_eq!(store.contains(99), holds);
            }
        }

        // A view retired (a session under its seed gave up unverified): the
        // next `Hello` is answered with a fresh seed and builds under it.
        let store = MutableStore::new(1..=400u64);
        look(&store, 7);
        let seed = store.session_seed(7);
        assert_eq!(path(&store.view(seed)), "built");
        store.retire_view(seed ^ 1);
        assert_eq!(store.session_seed(7), seed, "another seed's failure");
        store.retire_view(seed);
        let fresh = store.session_seed(7);
        assert!(fresh != seed && fresh != 7);
        assert_eq!(path(&store.view(fresh)), "built");
        assert_eq!(store.session_seed(7), fresh);

        // A changelog trimmed past the view — and past the previous full
        // session with it: the view binds nobody any more, the next session
        // is declined under its own seed; the one after finds that one's
        // epoch in the log and builds, under a seed of the store's.
        let store = MutableStore::with_epoch_origin(1..=400u64, 0, 2);
        look(&store, 7);
        assert_eq!(path(&look(&store, 7)), "built");
        for e in 1000..1003 {
            store.apply(&[e], &[]);
        }
        assert_eq!(store.session_seed(8), 8);
        assert_eq!(path(&store.view(8)), "declined");
        let seed = store.session_seed(9);
        let next = store.view(seed);
        assert!(seed != 9 && path(&next) == "built" && view_of(next).seed() == seed);

        // Two `Hello`s answered before either session's set-up ran: both
        // proposals stand. The first set-up leaves the view due; the second
        // declines it rather than build it under the seed its peer chose.
        let store = MutableStore::new(1..=400u64);
        assert_eq!((store.session_seed(7), store.session_seed(8)), (7, 8));
        assert_eq!(path(&store.view(7)), "declined");
        assert_eq!(path(&store.view(8)), "declined");
        assert_eq!(path(&look(&store, 9)), "built");

        // No changelog: a view lives exactly until the next write.
        let store = MutableStore::with_epoch_origin(1..=400u64, 0, 0);
        assert_eq!(path(&look(&store, 7)), "declined");
        assert_eq!(path(&look(&store, 7)), "built");
        assert_eq!(path(&look(&store, 7)), "patched");
        store.apply(&[1000], &[]);
        assert_eq!(store.session_seed(8), 8);
        assert_eq!(path(&store.view(7)), "declined");

        // Epochs exhausted: no epoch stamps one state, no view is kept.
        let store = MutableStore::with_epoch_origin(1..=400u64, u64::MAX, 64);
        for _ in 0..3 {
            assert_eq!(path(&look(&store, 7)), "declined");
            store.apply(&[1000], &[1000]);
        }
        assert_eq!(store.session_seed(8), 8);
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The store-level oracle of the view: through a random sequence of
        /// `apply` batches over a few elements — so that one goes out, in
        /// and out again between two looks, repeats inside a batch, is in
        /// both lists at once — with full sessions looking at random points
        /// and a changelog short enough to be outrun, every view the store
        /// hands out is the cold-built view of what it holds.
        #[test]
        fn a_view_the_store_hands_out_is_the_cold_view_of_its_set(
            initial in proptest::collection::vec(0u64..16, 0usize..16),
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..16, 0usize..4),
                    proptest::collection::vec(0u64..16, 0usize..4),
                    proptest::prelude::any::<bool>(),
                ),
                0usize..40,
            ),
            log_capacity in 0usize..12,
        ) {
            let store = MutableStore::with_epoch_origin(initial, 0, log_capacity);
            let mut looks = 0;
            for (added, removed, looks_now) in steps.iter().chain([&(vec![], vec![], true)]) {
                store.apply(added, removed);
                // (The initial set may repeat an element: counted once.)
                let widest = store.snapshot().iter().map(|e| 64 - e.leading_zeros()).max();
                proptest::prop_assert_eq!(store.universe_bits(), widest.unwrap_or(0));
                if !looks_now {
                    continue;
                }
                if let ViewAnswer::Patched(view) | ViewAnswer::Built(view) = look(&store, 7) {
                    looks += 1;
                    proptest::prop_assert_eq!(&*view, &cold_view(store.snapshot(), view.seed(), store.epoch()));
                }
            }
            // (The closing look finds the one before it, unless a trimmed
            // log came between.)
            proptest::prop_assert!(looks > 0 || log_capacity < 12);
        }

        /// One meaning of "last change wins": over a random change stream —
        /// repeats inside a batch, an element in both lists of one batch,
        /// out and in again across batches, changes of what is not held —
        /// the view brought forward holds exactly the old view's set plus
        /// what the client's `DeltaFold` reports added, minus what it
        /// reports removed.
        #[test]
        fn a_view_brought_forward_is_the_old_view_under_the_clients_fold(
            initial in proptest::collection::vec(0u64..24, 0usize..24),
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..24, 0usize..6),
                    proptest::collection::vec(0u64..24, 0usize..6),
                ),
                0usize..12,
            ),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let view = cold_view(initial.clone(), seed, 0);
            let mut fold = DeltaFold::new();
            for (added, removed) in &batches {
                fold.fold(added.iter().copied(), removed.iter().copied());
            }
            let net = fold.into_report(0, 1);
            let changes = batches.iter().map(|(added, removed)| (&added[..], &removed[..]));
            let brought: BTreeSet<u64> = view.patched(changes, 1).elements().iter().copied().collect();
            let mut expected: BTreeSet<u64> = initial.into_iter().collect();
            for e in &net.removed {
                expected.remove(e);
            }
            expected.extend(net.added);
            proptest::prop_assert_eq!(brought, expected);
        }

        /// `commit` against the `HashSet` model it replaced, on a durable
        /// store: over a few elements with 0 and `u64::MAX` among them —
        /// repeats within and across the two lists, an element on both,
        /// removals of what is absent, adds of what is present — each
        /// batch logs exactly the model's effective lists, ascending, under
        /// the next epoch (or nothing, when they are empty), and what the
        /// WAL replays afterwards is the model's set and the same
        /// changelog. The store's universe is the model's widest element,
        /// after every batch and once the store is opened again.
        #[test]
        fn commit_matches_the_hash_set_model(
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(model_element(), 0usize..10),
                    proptest::collection::vec(model_element(), 0usize..10),
                ),
                1usize..12,
            ),
            snapshot_every in 1usize..6,
        ) {
            static CASE: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
            let case = CASE.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let dir = std::env::temp_dir()
                .join(format!("pbs_store_model_{}_{case}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let options = DurableOptions {
                snapshot_every,
                sync_writes: false,
                ..DurableOptions::default()
            };
            let store = MutableStore::open_durable(&dir, options).unwrap();
            let mut model: HashSet<u64> = HashSet::new();
            let widest = |set: &HashSet<u64>| set.iter().map(|e| 64 - e.leading_zeros()).max();
            for (added, removed) in &batches {
                let (want_added, want_removed) = commit_model(&model, added, removed);
                let before = store.epoch();
                let epoch = store.apply(added, removed);
                let logged = store.changes_since(before).unwrap();
                if want_added.is_empty() && want_removed.is_empty() {
                    proptest::prop_assert_eq!(epoch, before);
                    proptest::prop_assert!(logged.is_empty());
                } else {
                    proptest::prop_assert_eq!(epoch, before + 1);
                    proptest::prop_assert_eq!(logged.len(), 1);
                    let batch = &logged[0];
                    proptest::prop_assert_eq!(batch.epoch, epoch);
                    proptest::prop_assert!(batch.added.windows(2).all(|w| w[0] < w[1]));
                    proptest::prop_assert!(batch.removed.windows(2).all(|w| w[0] < w[1]));
                    proptest::prop_assert_eq!(&batch.added, &sorted(want_added.clone()));
                    proptest::prop_assert_eq!(&batch.removed, &sorted(want_removed.clone()));
                }
                for e in &want_removed {
                    model.remove(e);
                }
                model.extend(want_added);
                let held: HashSet<u64> = store.snapshot().into_iter().collect();
                proptest::prop_assert_eq!(&held, &model);
                proptest::prop_assert_eq!(store.universe_bits(), widest(&model).unwrap_or(0));
            }
            let log = store.changes_since(0).unwrap();
            drop(store);
            let recovered = crate::wal::recover(&dir, options.log_capacity).unwrap();
            let replayed: HashSet<u64> = recovered.elements.iter().copied().collect();
            proptest::prop_assert_eq!(&replayed, &model);
            proptest::prop_assert_eq!(&recovered.log, &log);
            let reopened = MutableStore::open_durable(&dir, options).unwrap();
            proptest::prop_assert_eq!(reopened.universe_bits(), widest(&model).unwrap_or(0));
            drop(reopened);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    /// Few enough values that lists repeat and overlap, and the two ends
    /// of `u64`.
    fn model_element() -> impl proptest::Strategy<Value = u64> {
        proptest::prop_oneof![0u64..12, proptest::Just(0u64), proptest::Just(u64::MAX)]
    }

    /// The `HashSet` model of one commit's effective lists, as the store
    /// computed them before it sorted: a removal counts when the element is
    /// held and not also added (adds win), an add when it is not held;
    /// each distinct element once, in first-occurrence order.
    fn commit_model(held: &HashSet<u64>, added: &[u64], removed: &[u64]) -> (Vec<u64>, Vec<u64>) {
        let add_set: HashSet<u64> = added.iter().copied().collect();
        let mut seen = HashSet::new();
        let removed = removed
            .iter()
            .copied()
            .filter(|e| !add_set.contains(e) && held.contains(e) && seen.insert(*e))
            .collect();
        seen.clear();
        let added = added
            .iter()
            .copied()
            .filter(|&e| !held.contains(&e) && seen.insert(e))
            .collect();
        (added, removed)
    }

    #[test]
    fn notifiers_fire_per_effective_batch_outside_the_lock() {
        let store = MutableStore::new([1u64, 2]);
        let seen: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        SetStore::register_notifier(
            &store,
            Box::new(move |epoch| {
                sink.lock().unwrap().push(epoch);
                epoch < 3 // unregister after epoch 3
            }),
        );
        // A notifier that reads back into the store must not deadlock: it
        // runs after the element lock is released.
        {
            let store2 = Arc::new(MutableStore::new([9u64]));
            let probe: Arc<Mutex<Vec<DeltaAnswer>>> = Arc::new(Mutex::new(Vec::new()));
            let (s2, p) = (Arc::clone(&store2), Arc::clone(&probe));
            SetStore::register_notifier(
                &*store2,
                Box::new(move |epoch| {
                    p.lock()
                        .unwrap()
                        .push(s2.delta_since(epoch.saturating_sub(1)));
                    true
                }),
            );
            store2.apply(&[10], &[]);
            let got = probe.lock().unwrap();
            assert_eq!(got.len(), 1);
            assert!(matches!(&got[0], DeltaAnswer::Changes { current: 1, .. }));
        }
        store.apply(&[3], &[]); // epoch 1
        store.apply(&[1], &[]); // no-op: no notification
        store.apply(&[4], &[1]); // epoch 2
        store.apply(&[5], &[]); // epoch 3, notifier returns false
        store.apply(&[6], &[]); // epoch 4: notifier gone
        assert_eq!(*seen.lock().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn a_notifier_that_panics_once_does_not_fail_the_next_apply() {
        // The panic unwinds out of `apply` with the notifier mutex held and
        // poisons it. The batch had landed before any notifier ran, and the
        // list is whole (`Vec::retain` keeps what it had not judged yet), so
        // the next commit recovers the guard — it used to panic, and on an
        // event-loop worker that took every session of the worker with it.
        let store = Arc::new(MutableStore::new([1u64]));
        let calls = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&calls);
        store.register_notifier(Box::new(move |epoch| {
            sink.lock().unwrap().push(epoch);
            assert!(epoch != 1, "boom");
            true
        }));
        let writer = Arc::clone(&store);
        let first = std::thread::spawn(move || writer.apply(&[2], &[])).join();
        assert!(first.is_err(), "the notifier's panic reaches the mutator");
        assert!(store.contains(2) && store.epoch() == 1, "the batch landed");
        assert_eq!(store.apply(&[3], &[]), 2);
        assert!(SetStore::apply_missing(&*store, &[4]));
        assert_eq!(*calls.lock().unwrap(), [1, 2, 3], "and it is still fed");
        store.register_notifier(Box::new(|_| true));
        assert!(format!("{store:?}").contains("Notifiers(2)"));
    }

    #[test]
    fn converge_to_is_one_diff_batch() {
        let store = MutableStore::new([1u64, 2, 3]);
        assert_eq!(store.converge_to([3, 2, 1, 1]), None, "already there");
        let batch = store.converge_to([2, 3, 4, 5]).expect("a diff");
        assert_eq!(batch.epoch, 1);
        assert_eq!((batch.added, batch.removed), (vec![4, 5], vec![1]));
        assert_eq!(store.changes_since(0).unwrap().len(), 1);
        let emptied = store.converge_to([]).expect("remove-all");
        assert_eq!((emptied.epoch, emptied.removed.len()), (2, 4));
        assert!(store.is_empty());
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    #[test]
    fn registry_routes_by_name() {
        let registry = StoreRegistry::new();
        registry.register("", Arc::new(MutableStore::new([1u64])));
        registry.register("blocks", Arc::new(MutableStore::new([2u64])));
        assert_eq!(registry.len(), 2);
        assert_eq!(registry.names(), vec!["".to_string(), "blocks".to_string()]);
        assert!(registry.get("missing").is_none());
        let blocks = registry.get("blocks").unwrap();
        assert_eq!(blocks.name(), "blocks");
        assert_eq!(blocks.store().snapshot(), vec![2]);
        // Each entry carries its own counters.
        assert_eq!(blocks.stats().snapshot().sessions_started, 0);
    }

    #[test]
    #[should_panic(expected = "wire limit")]
    fn registry_rejects_unaddressable_names() {
        StoreRegistry::new().register("x".repeat(65), Arc::new(MutableStore::new([])));
    }

    #[test]
    fn durable_store_round_trips_across_reopen() {
        let dir = std::env::temp_dir().join(format!("pbs_store_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = DurableOptions {
            log_capacity: 8,
            snapshot_every: 3,
            sync_writes: false,
        };
        let (want_set, want_epoch) = {
            let store = MutableStore::open_durable(&dir, options).unwrap();
            assert!(is_durable(&store) && store.epoch() == 0 && store.is_empty());
            store.apply(&[1, 2, 3], &[]);
            store.apply(&[4], &[1]);
            SetStore::apply_missing(&store, &[5, 6]);
            store.apply(&[], &[2]);
            store.snapshot_with_epoch()
        };
        assert_eq!(want_epoch, 4);
        let (store, report) = MutableStore::open_durable_report(&dir, options).unwrap();
        assert_eq!(store.epoch(), want_epoch, "epoch continuity across reopen");
        assert_eq!(report.truncated_bytes, 0);
        assert!(report.snapshot_epoch >= 3, "snapshot_every=3 compacted");
        let (mut got, _) = store.snapshot_with_epoch();
        let mut want = want_set;
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // The changelog survived too: a subscriber from epoch 1 gets the
        // exact batches 2..=4.
        let changes = store.changes_since(1).expect("covered by recovered log");
        assert_eq!(changes.len(), 3);
        assert_eq!(changes[0].epoch, 2);
        // And the store keeps appending where it left off.
        assert_eq!(store.apply(&[7], &[]), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A repeat `compact_now` at the epoch of the snapshot that stands
    /// decides so before it copies the set: no disk op, and a few hundred
    /// bytes allocated where a copy of 10⁵ elements would take 800 KB.
    #[test]
    fn a_repeat_compaction_performs_no_op_and_copies_nothing() {
        let disk = RecordingDisk::default();
        let options = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let (store, _) = MutableStore::open_on(Box::new(disk.clone()), options).unwrap();
        let seed: Vec<u64> = (1..=100_000u64).collect();
        assert_eq!(store.apply(&seed, &[]), 1);
        store.compact_now().unwrap();
        let ops = disk.ops();
        let before = crate::sim::allocated();
        store.compact_now().unwrap();
        let spent = crate::sim::allocated() - before;
        assert_eq!(disk.ops(), ops, "a repeat compaction performed an op");
        assert!(spent <= 1024, "a repeat compaction allocated {spent} bytes");
        // A batch later, the next compaction writes again.
        assert_eq!(store.apply(&[0], &[]), 2);
        store.compact_now().unwrap();
        assert!(disk.ops() > ops + 1);
    }

    #[test]
    fn every_commit_outcome_reads_the_same_through_all_three_wrappers() {
        let options = DurableOptions {
            snapshot_every: 1, // every append is followed by a compaction
            ..DurableOptions::default()
        };
        let disk = RecordingDisk::default();
        let (store, _) = MutableStore::open_on(Box::new(disk.clone()), options).unwrap();
        let notified = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&notified);
        store.register_notifier(Box::new(move |epoch| {
            sink.lock().unwrap().push(epoch);
            true
        }));
        assert_eq!(store.apply(&[1, 2], &[]), 1);
        fn wal_write(op: &Op) -> bool {
            matches!(op, Op::Write(Name::Wal, _))
        }
        fn snapshot_write(op: &Op) -> bool {
            matches!(op, Op::Write(Name::Tmp, _))
        }
        fn dir_sync(op: &Op) -> bool {
            *op == Op::SyncDir
        }
        let faults: [(&str, Matching); 3] = [
            ("WAL write", wal_write),
            ("snapshot write", snapshot_write),
            ("directory sync", dir_sync),
        ];
        // (the op failed, the process living on; the batch's one element —
        //  new to the store, per wrapper, from 10 up; what must follow: the
        //  batch is in the set, `try_apply` is `Ok`, the epoch moved)
        let rows = [
            (None, 10, true, true, true),
            // The append fails half-way: refused like any other — and cut
            // out of the file, or the batch of the next row, acknowledged,
            // would sit behind a torn record where no recovery finds it.
            (Some(0), 40, false, false, false),
            // The compaction after the append fails: the batch is in memory
            // and in the WAL all the same — it landed, and the error shows.
            (Some(1), 30, true, false, true),
            // So does one whose rename may not be durable: the WAL is left
            // whole for it.
            (Some(2), 20, true, false, true),
            // Nothing effective to write: no refusal, no epoch, no notifier.
            (None, 1, true, true, false),
        ];
        // Each wrapper reads the same commit: `apply` its epoch,
        // `apply_missing` whether it landed, `try_apply` its error.
        for wrapper in 0..3 {
            for (fault, element, landed, ok, moved) in rows {
                let element = if element < 10 {
                    element
                } else {
                    element + wrapper
                };
                let fault = fault.map(|f: usize| faults[f]);
                let case = format!(
                    "wrapper {wrapper}, {:?}, element {element}",
                    fault.map(|f| f.0)
                );
                let (epoch, log) = (store.epoch(), store.changes_since(0).unwrap());
                let calls = notified.lock().unwrap().len();
                let after = epoch + moved as u64;
                if let Some((_, which)) = fault {
                    disk.fail(0, which);
                }
                match wrapper {
                    0 => assert_eq!(store.apply(&[element], &[]), after, "{case}"),
                    1 => assert_eq!(store.apply_missing(&[element]), landed, "{case}"),
                    _ => match store.try_apply(&[element], &[]) {
                        Ok(got) => assert!(ok && got == after, "{case}: Ok({got})"),
                        Err(e) => assert!(!ok, "{case}: {e}"),
                    },
                }
                disk.disarm();
                assert_eq!(store.contains(element), landed, "{case}");
                assert_eq!(store.epoch(), after, "{case}");
                let grown = store.changes_since(0).unwrap();
                assert_eq!(grown.len(), log.len() + moved as usize, "{case}");
                assert_eq!(grown[..log.len()], log[..], "{case}");
                let calls_now = notified.lock().unwrap().len();
                assert_eq!(calls_now, calls + moved as usize, "{case}");
            }
        }
        let (held, epoch) = (sorted(store.snapshot()), store.epoch());
        drop(store);
        // What landed is what a restart recovers; what was refused is not.
        let files = RecordingDisk::new(disk.files());
        let (reopened, _) = MutableStore::open_on(Box::new(files), options).unwrap();
        assert_eq!(
            (sorted(reopened.snapshot()), reopened.epoch()),
            (held, epoch)
        );
        assert!(!reopened.contains(40) && reopened.contains(30) && reopened.contains(20));
        assert!(!reopened.contains(42) && reopened.contains(32) && reopened.contains(22));
    }

    #[test]
    fn open_store_is_durable_under_a_persistence_root_and_recovers() {
        let dir = std::env::temp_dir().join(format!("pbs_registry_durable_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(store_dir_name(""), "default");
        assert_eq!(store_dir_name("blocks"), "store-blocks");
        assert_eq!(store_dir_name("a/b c"), "store-a_b_c");
        let registry = StoreRegistry::new();
        let options = DurableOptions {
            log_capacity: 2,
            ..DurableOptions::default()
        };
        // No persistence root: an in-memory store, the changelog sized the
        // same way.
        let (memory, report) = registry.open_store("x", options).unwrap();
        assert!(!is_durable(&memory) && report == RecoveryReport::default());
        for e in 1..=3 {
            memory.apply(&[e], &[]);
        }
        assert!(memory.changes_since(0).is_none() && memory.changes_since(1).is_some());
        registry.set_persistence_root(&dir);
        let (store, _) = registry.open_store("blocks", options).unwrap();
        assert!(is_durable(&store));
        store.apply(&[10, 11], &[]);
        assert!(registry.get("blocks").is_some());
        assert_eq!(
            registry.store_dir("blocks").unwrap(),
            dir.join("store-blocks")
        );
        // A second registry over the same root recovers the store.
        let registry2 = StoreRegistry::new();
        registry2.set_persistence_root(&dir);
        let (store2, report) = registry2.open_store("blocks", options).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(store2.epoch(), 1);
        assert!(store2.contains(10) && store2.contains(11));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
