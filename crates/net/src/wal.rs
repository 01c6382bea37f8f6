//! Durable persistence for [`crate::store::MutableStore`]: an append-only
//! epoch-stamped write-ahead log plus periodic snapshots, with crash-safe
//! recovery.
//!
//! The on-disk layout of one store directory is
//!
//! ```text
//! <dir>/changes.wal            the WAL: one frame per change-batch chunk
//! <dir>/snapshot-<epoch>.snap  full state at <epoch> (set + changelog)
//! <dir>/snapshot.tmp           in-flight snapshot (ignored by recovery)
//! ```
//!
//! **WAL records reuse the wire discipline of [`crate::frame`] verbatim**:
//! every record is a length-prefixed, CRC-32-checked frame whose body is a
//! [`Frame::DeltaBatch`] — the epoch stamp, the effective add/remove lists,
//! elements packed at the chunk's byte width. A batch larger than
//! [`crate::frame::delta_chunk_capacity`] spans several consecutive records
//! carrying the same epoch, exactly like the delta stream; recovery
//! merges them back into one [`ChangeBatch`]. Reusing the frame codec means
//! the WAL inherits the codec's fuzz coverage, and a WAL tail can be
//! inspected with the same tooling as a wire capture.
//!
//! **Snapshots** are written to a temp file, fsynced, and atomically
//! renamed into place, so a crash can never leave a half-written file under
//! the live name on a POSIX filesystem; a torn file (power loss, copy of a
//! dying disk) is detected by the trailing CRC-32 and recovery falls back
//! to the next older snapshot, or to a full WAL replay. A snapshot carries
//! the element set *and* the retained changelog, so delta subscribers'
//! epoch baselines survive a restart (the acceptance criterion of the
//! durability layer: zero forced full resyncs for epochs the changelog
//! still covers).
//!
//! **Recovery** ([`recover`]) scans the newest valid snapshot plus the WAL:
//! records at or below the snapshot epoch are skipped (they are leftovers
//! of a compaction that crashed before truncating the log), records must
//! advance the epoch by exactly one (chunks of one batch repeat it), and
//! the scan stops at the first torn, corrupt, or out-of-sequence record —
//! the file is truncated back to the last valid prefix, so a torn final
//! append never poisons the log. Everything after the cut is at most one
//! unacknowledged batch.
//!
//! Fault injection for the crash-safety tests is built in:
//! `Wal::inject_crash` arms a `CrashPoint` that makes the next matching
//! operation perform its *partial* work (a torn record, an unrenamed temp
//! snapshot, an untruncated log) and then fail as a crash would.

use crate::frame::{self, delta_batch_frames, delta_chunk_capacity, Frame, DEFAULT_MAX_FRAME};
use crate::store::ChangeBatch;
use obs::Histogram;
use std::fs::{File, OpenOptions};
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// File name of the write-ahead log inside a store directory.
pub(crate) const WAL_FILE: &str = "changes.wal";

/// Magic number opening every snapshot file (`"PBSS"` little-endian).
pub(crate) const SNAPSHOT_MAGIC: u32 = 0x5353_4250;

/// Snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;

/// Injectable crash points for the kill-and-recover tests. Arming one via
/// `Wal::inject_crash` makes the next matching operation do its partial,
/// torn work and then fail with an [`io::ErrorKind::Other`] error — the
/// on-disk state is exactly what a process killed at that instant would
/// leave behind ([`CrashPoint::FailedWalAppend`] excepted: there the
/// process survives the error, and what it then does to the file is under
/// test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CrashPoint {
    /// Die halfway through a WAL append: only a prefix of the record's
    /// bytes reaches the file.
    MidWalAppend,
    /// Not a crash: a WAL append that fails part-way *with the process
    /// living on* — a full disk. Half the record's bytes reach the file,
    /// the write then errors, and [`Wal::append`]'s own error path runs.
    FailedWalAppend,
    /// Die mid-snapshot: a partial temp file exists, the rename never
    /// happened, the previous snapshot and the WAL are untouched.
    MidSnapshotWrite,
    /// Die mid-compaction: the new snapshot is fully in place but the WAL
    /// was not truncated and older snapshots were not removed.
    MidCompaction,
    /// Simulate a non-atomic rename (or a torn disk): a corrupt snapshot
    /// sits under the *live* snapshot name. Recovery must reject it by CRC
    /// and fall back.
    TornSnapshot,
}

fn injected() -> io::Error {
    io::Error::other("injected crash")
}

/// Size-free summary of a recovery, for logging and assertions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// The epoch the recovered state corresponds to.
    pub epoch: u64,
    /// Epoch of the snapshot recovery started from (0 with no snapshot).
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records: u64,
    /// Bytes of torn/corrupt WAL tail that were truncated away.
    pub truncated_bytes: u64,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_rejected: u64,
    /// Elements in the recovered set.
    pub elements: usize,
    /// Change batches in the recovered changelog.
    pub log_batches: usize,
}

/// What [`recover`] reconstructed from a store directory.
#[derive(Debug, Default)]
pub struct Recovered {
    /// The element set at `epoch`.
    pub elements: xhash::Set,
    /// The epoch the recovered state corresponds to.
    pub epoch: u64,
    /// The retained changelog, oldest first — every batch's epoch is
    /// contiguous up to `epoch`.
    pub log: Vec<ChangeBatch>,
    /// Epoch of the snapshot recovery started from (0 with no snapshot).
    pub snapshot_epoch: u64,
    /// WAL records replayed on top of the snapshot.
    pub wal_records: u64,
    /// Bytes of torn/corrupt WAL tail that were truncated away.
    pub truncated_bytes: u64,
    /// Snapshot files that failed validation and were skipped.
    pub snapshots_rejected: u64,
}

impl Recovered {
    /// The size-free summary of this recovery.
    pub fn report(&self) -> RecoveryReport {
        RecoveryReport {
            epoch: self.epoch,
            snapshot_epoch: self.snapshot_epoch,
            wal_records: self.wal_records,
            truncated_bytes: self.truncated_bytes,
            snapshots_rejected: self.snapshots_rejected,
            elements: self.elements.len(),
            log_batches: self.log.len(),
        }
    }
}

/// Persistence options for a durable store.
#[derive(Debug, Clone, Copy)]
pub struct DurableOptions {
    /// Change batches retained in the in-memory changelog *and* in every
    /// snapshot (the `--changelog-cap` knob).
    pub log_capacity: usize,
    /// WAL records between automatic snapshots (compaction period). A
    /// snapshot rewrites the full state and truncates the log, so this
    /// bounds both recovery time and WAL growth. 0 disables automatic
    /// snapshots (the WAL grows until `Wal::compact` is called).
    pub snapshot_every: usize,
    /// `fsync` every WAL append. The WAL is always flushed to the OS per
    /// append (surviving a process crash); syncing additionally survives
    /// power loss, at a large per-batch cost. Snapshots are always synced.
    pub sync_writes: bool,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            log_capacity: crate::store::DEFAULT_CHANGELOG_CAPACITY,
            snapshot_every: DEFAULT_SNAPSHOT_EVERY,
            sync_writes: false,
        }
    }
}

/// Default number of WAL appends between automatic snapshots.
pub const DEFAULT_SNAPSHOT_EVERY: usize = 256;

/// The append handle of a store directory: the open WAL plus the snapshot
/// bookkeeping. All methods assume the caller serializes access (the store
/// holds it inside its write lock, so WAL order always equals epoch order).
#[derive(Debug)]
pub struct Wal {
    dir: PathBuf,
    file: File,
    /// Byte length of the valid prefix (everything we have appended or
    /// recovered; a crash point may leave garbage beyond it).
    len: u64,
    /// A failed append left bytes beyond `len` that could not be cut off
    /// yet; nothing is appended until they are.
    torn: bool,
    records_since_snapshot: usize,
    options: DurableOptions,
    crash: Option<CrashPoint>,
    /// Append / fsync / compaction latency histograms, installed by
    /// [`Wal::set_timers`] when the owning store attaches to a metric
    /// registry. `None` costs nothing.
    timers: Option<WalTimers>,
}

#[derive(Debug)]
struct WalTimers {
    append: Arc<Histogram>,
    fsync: Arc<Histogram>,
    compaction: Arc<Histogram>,
}

fn snapshot_name(epoch: u64) -> String {
    // Zero-padded so lexicographic order equals epoch order.
    format!("snapshot-{epoch:020}.snap")
}

fn parse_snapshot_name(name: &str) -> Option<u64> {
    name.strip_prefix("snapshot-")?
        .strip_suffix(".snap")?
        .parse()
        .ok()
}

fn push_packed(out: &mut Vec<u8>, elements: &[u64]) {
    let width = frame::delta_element_width(elements, &[]) as usize;
    out.push(width as u8);
    out.extend_from_slice(&(elements.len() as u64).to_le_bytes());
    for &e in elements {
        out.extend_from_slice(&e.to_le_bytes()[..width]);
    }
}

fn take_array<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, tail) = buf.split_first_chunk::<N>()?;
    *buf = tail;
    Some(*head)
}

fn take_packed(buf: &mut &[u8]) -> Option<Vec<u64>> {
    let [width] = take_array(buf)?;
    let width = width as usize;
    if !(1..=8).contains(&width) {
        return None;
    }
    let count = u64::from_le_bytes(take_array(buf)?);
    // Clamp against the bytes actually present before any allocation.
    let bytes = usize::try_from(count.checked_mul(width as u64)?).ok()?;
    let (raw, rest) = buf.split_at_checked(bytes)?;
    *buf = rest;
    Some(
        raw.chunks_exact(width)
            .map(|c| {
                let mut bytes = [0u8; 8];
                bytes[..width].copy_from_slice(c);
                u64::from_le_bytes(bytes)
            })
            .collect(),
    )
}

/// Serialize a snapshot: the set at `epoch` plus the retained changelog,
/// with a trailing CRC-32 over everything before it.
fn encode_snapshot(elements: &[u64], epoch: u64, log: &[ChangeBatch]) -> Vec<u8> {
    let mut out = Vec::with_capacity(64 + elements.len() * 8);
    out.extend_from_slice(&SNAPSHOT_MAGIC.to_le_bytes());
    out.extend_from_slice(&SNAPSHOT_VERSION.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    push_packed(&mut out, elements);
    out.extend_from_slice(&(log.len() as u32).to_le_bytes());
    for batch in log {
        out.extend_from_slice(&batch.epoch.to_le_bytes());
        push_packed(&mut out, &batch.added);
        push_packed(&mut out, &batch.removed);
    }
    out.extend_from_slice(&crate::crc::crc32(&out).to_le_bytes());
    out
}

/// Decode and validate a snapshot blob. `None` on any torn or corrupt
/// shape — a snapshot is trusted in full or not at all.
fn decode_snapshot(bytes: &[u8]) -> Option<(xhash::Set, u64, Vec<ChangeBatch>)> {
    let (body, crc) = bytes.split_last_chunk::<4>()?;
    if crate::crc::crc32(body) != u32::from_le_bytes(*crc) {
        return None;
    }
    let mut buf = body;
    if u32::from_le_bytes(take_array(&mut buf)?) != SNAPSHOT_MAGIC {
        return None;
    }
    if u16::from_le_bytes(take_array(&mut buf)?) != SNAPSHOT_VERSION {
        return None;
    }
    let epoch = u64::from_le_bytes(take_array(&mut buf)?);
    let elements: xhash::Set = take_packed(&mut buf)?.into_iter().collect();
    let batch_count = u32::from_le_bytes(take_array(&mut buf)?);
    let mut log = Vec::with_capacity((batch_count as usize).min(1 << 16));
    for _ in 0..batch_count {
        let batch_epoch = u64::from_le_bytes(take_array(&mut buf)?);
        let added = take_packed(&mut buf)?;
        let removed = take_packed(&mut buf)?;
        log.push(ChangeBatch {
            epoch: batch_epoch,
            added,
            removed,
        });
    }
    if !buf.is_empty() {
        return None;
    }
    // The changelog must be contiguous and end exactly at the set's epoch.
    for (i, batch) in log.iter().enumerate() {
        if i > 0 && batch.epoch != log[i - 1].epoch + 1 {
            return None;
        }
    }
    if let Some(last) = log.last() {
        if last.epoch != epoch {
            return None;
        }
    }
    Some((elements, epoch, log))
}

/// Recover a store directory: newest valid snapshot + WAL tail replay,
/// truncating any torn or corrupt tail back to the last valid prefix. A
/// missing or empty directory recovers to the empty state at epoch 0.
/// Never panics on corrupt input; only real I/O failures error.
pub fn recover(dir: &Path, log_capacity: usize) -> io::Result<Recovered> {
    std::fs::create_dir_all(dir)?;
    let mut out = Recovered::default();

    // ---- Newest valid snapshot ----
    let mut snapshots: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name();
            parse_snapshot_name(name.to_str()?).map(|epoch| (epoch, e.path()))
        })
        .collect();
    snapshots.sort_unstable_by_key(|(epoch, _)| std::cmp::Reverse(*epoch));
    for (_, path) in &snapshots {
        match std::fs::read(path).ok().and_then(|b| decode_snapshot(&b)) {
            Some((elements, epoch, log)) => {
                out.elements = elements;
                out.epoch = epoch;
                out.snapshot_epoch = epoch;
                out.log = log;
                break;
            }
            None => out.snapshots_rejected += 1,
        }
    }

    // ---- WAL tail replay ----
    let wal_path = dir.join(WAL_FILE);
    let bytes = match std::fs::read(&wal_path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(e),
    };
    let mut cursor = bytes.as_slice();
    let mut valid_end = 0u64;
    loop {
        let record = match frame::read_frame(&mut cursor, DEFAULT_MAX_FRAME) {
            Ok((
                Frame::DeltaBatch {
                    epoch,
                    added,
                    removed,
                },
                consumed,
            )) => Some((epoch, added, removed, consumed)),
            // Any other well-framed type, or any framing/CRC/decode error,
            // marks the end of the trustworthy prefix.
            _ => None,
        };
        let Some((epoch, added, removed, consumed)) = record else {
            break;
        };
        // Sequencing: a record either continues the current batch (same
        // epoch — a chunk), starts the next one (epoch + 1), or — when at
        // or below the snapshot epoch — is a pre-compaction leftover that
        // the snapshot already reflects. Anything else (a gap, a rewind
        // below a later record) is corruption: stop here.
        if epoch <= out.snapshot_epoch {
            valid_end += consumed;
            continue;
        }
        if epoch == out.epoch.wrapping_add(1) && epoch != 0 {
            out.log.push(ChangeBatch {
                epoch,
                added: Vec::new(),
                removed: Vec::new(),
            });
            out.epoch = epoch;
        } else if epoch != out.epoch || out.epoch <= out.snapshot_epoch {
            break;
        }
        // The record is the first or a further chunk of the newest logged
        // batch. A batch's effective changes are disjoint, so each chunk
        // applies on its own.
        let Some(batch) = out.log.last_mut() else {
            break;
        };
        for e in &removed {
            out.elements.remove(e);
        }
        out.elements.extend(added.iter().copied());
        batch.added.extend(added);
        batch.removed.extend(removed);
        out.wal_records += 1;
        valid_end += consumed;
    }
    if valid_end < bytes.len() as u64 {
        out.truncated_bytes = bytes.len() as u64 - valid_end;
        let file = OpenOptions::new().write(true).open(&wal_path)?;
        file.set_len(valid_end)?;
        file.sync_all()?;
    }
    while out.log.len() > log_capacity {
        out.log.remove(0);
    }
    if log_capacity == 0 {
        out.log.clear();
    }
    Ok(out)
}

impl Wal {
    /// Open (creating if needed) the WAL of `dir` for appending. Call
    /// [`recover`] first — the WAL must already be truncated to its valid
    /// prefix.
    pub fn open(dir: &Path, options: DurableOptions) -> io::Result<Wal> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(WAL_FILE);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let len = file.metadata()?.len();
        Ok(Wal {
            dir: dir.to_path_buf(),
            file,
            len,
            torn: false,
            records_since_snapshot: 0,
            options,
            crash: None,
            timers: None,
        })
    }

    /// Install append / fsync / compaction latency histograms. Called once
    /// by the owning store when it attaches to a metric registry.
    pub(crate) fn set_timers(
        &mut self,
        append: Arc<Histogram>,
        fsync: Arc<Histogram>,
        compaction: Arc<Histogram>,
    ) {
        self.timers = Some(WalTimers {
            append,
            fsync,
            compaction,
        });
    }

    /// Arm (or disarm) a crash point: the next matching operation performs
    /// its partial work and fails. Fault injection for the recovery tests.
    #[cfg(test)]
    pub(crate) fn inject_crash(&mut self, point: Option<CrashPoint>) {
        self.crash = point;
    }

    /// Append one effective change batch, chunked under the frame cap like
    /// the delta stream. On success the batch is on disk (flushed to the
    /// OS; fsynced when [`DurableOptions::sync_writes`]) *before* the
    /// caller mutates memory — the write-ahead contract.
    ///
    /// On an error from the write, the flush or the sync the file is cut
    /// back to its last good length: the caller holds none of the batch, so
    /// the log must not either — a torn record would hide every later,
    /// acknowledged append from recovery (which stops at the first tear),
    /// and a whole one would leave the refused batch's epoch on disk for
    /// the next batch to reuse.
    ///
    /// Returns `true` when a compaction is now due
    /// ([`DurableOptions::snapshot_every`] appends since the last one).
    pub fn append(&mut self, epoch: u64, added: &[u64], removed: &[u64]) -> io::Result<bool> {
        let capacity = delta_chunk_capacity(DEFAULT_MAX_FRAME);
        let mut record = Vec::new();
        for chunk in delta_batch_frames(epoch, added, removed, capacity) {
            frame::encode_frame(&mut record, &chunk, DEFAULT_MAX_FRAME)
                .map_err(|e| io::Error::other(format!("wal encode: {e}")))?;
        }
        if self.crash == Some(CrashPoint::MidWalAppend) {
            // A torn append: exactly half the record's bytes land, and no
            // line of this process runs after it.
            self.file.write_all(&record[..record.len() / 2])?;
            self.file.flush()?;
            return Err(injected());
        }
        if self.torn {
            self.cut_back()?;
        }
        let start = self.timers.as_ref().map(|_| Instant::now());
        let written = match self.write_record(&record, start) {
            Ok(written) => written,
            Err(e) => {
                self.torn = true;
                // A cut that fails too is retried before the next append.
                let _ = self.cut_back();
                return Err(e);
            }
        };
        if let (Some(t), Some((start, written))) = (self.timers.as_ref(), written) {
            t.append.record_duration(written);
            if self.options.sync_writes {
                // The fsync cost alone: total minus the buffered write.
                t.fsync
                    .record_duration(start.elapsed().saturating_sub(written));
            }
        }
        self.len += record.len() as u64;
        self.records_since_snapshot += 1;
        Ok(self.options.snapshot_every > 0
            && self.records_since_snapshot >= self.options.snapshot_every)
    }

    /// The record's bytes handed to the OS — how long that took, on a
    /// timed store's clock — and synced where the store asks for it.
    fn write_record(
        &mut self,
        record: &[u8],
        start: Option<Instant>,
    ) -> io::Result<Option<(Instant, std::time::Duration)>> {
        if self.crash == Some(CrashPoint::FailedWalAppend) {
            self.file.write_all(&record[..record.len() / 2])?;
            return Err(injected());
        }
        self.file.write_all(record)?;
        self.file.flush()?;
        let written = start.map(|s| (s, s.elapsed()));
        if self.options.sync_writes {
            self.file.sync_data()?;
        }
        Ok(written)
    }

    /// Drop whatever a failed append left beyond the last good record.
    fn cut_back(&mut self) -> io::Result<()> {
        self.file.set_len(self.len)?;
        self.file.seek(SeekFrom::Start(self.len))?;
        self.torn = false;
        Ok(())
    }

    /// Write a snapshot of the full state and compact: temp file → fsync →
    /// atomic rename → truncate the WAL → remove older snapshots. Crashing
    /// between any two steps leaves a recoverable directory (the ordering
    /// is the whole point; see the module docs).
    pub(crate) fn compact(
        &mut self,
        elements: &[u64],
        epoch: u64,
        log: &[ChangeBatch],
    ) -> io::Result<()> {
        let start = self.timers.as_ref().map(|_| Instant::now());
        let result = self.compact_untimed(elements, epoch, log);
        if let (Some(t), Some(start), Ok(())) = (self.timers.as_ref(), start, &result) {
            t.compaction.record_duration(start.elapsed());
        }
        result
    }

    fn compact_untimed(
        &mut self,
        elements: &[u64],
        epoch: u64,
        log: &[ChangeBatch],
    ) -> io::Result<()> {
        let final_path = self.dir.join(snapshot_name(epoch));
        // Nothing appended since this epoch's snapshot, the only copy of
        // the state: rewriting it could tear it with nothing to fall back on.
        if self.len == 0 && final_path.exists() {
            return Ok(());
        }
        let blob = encode_snapshot(elements, epoch, log);
        if self.crash == Some(CrashPoint::TornSnapshot) {
            // A non-atomic rename / torn disk: half a snapshot under the
            // live name. The trailing CRC is what catches this.
            std::fs::write(&final_path, &blob[..blob.len() / 2])?;
            return Err(injected());
        }
        let tmp_path = self.dir.join("snapshot.tmp");
        if self.crash == Some(CrashPoint::MidSnapshotWrite) {
            std::fs::write(&tmp_path, &blob[..blob.len() / 2])?;
            return Err(injected());
        }
        {
            let mut tmp = File::create(&tmp_path)?;
            tmp.write_all(&blob)?;
            tmp.sync_all()?;
        }
        std::fs::rename(&tmp_path, &final_path)?;
        // Make the rename itself durable before truncating the WAL.
        if let Ok(d) = File::open(&self.dir) {
            let _ = d.sync_all();
        }
        if self.crash == Some(CrashPoint::MidCompaction) {
            return Err(injected());
        }
        self.truncate_wal()?;
        for entry in std::fs::read_dir(&self.dir)?.flatten() {
            let name = entry.file_name();
            if let Some(e) = name.to_str().and_then(parse_snapshot_name) {
                if e < epoch {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(())
    }

    fn truncate_wal(&mut self) -> io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.file.sync_all()?;
        self.len = 0;
        self.torn = false;
        self.records_since_snapshot = 0;
        Ok(())
    }
}

/// Read the raw WAL bytes of a store directory (empty when absent) — for
/// tests and tooling that want to corrupt or inspect the log.
pub fn read_wal_bytes(dir: &Path) -> io::Result<Vec<u8>> {
    match std::fs::read(dir.join(WAL_FILE)) {
        Ok(bytes) => Ok(bytes),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
        Err(e) => Err(e),
    }
}

/// Overwrite the raw WAL bytes of a store directory — the tests' way of
/// planting torn, bit-flipped, or duplicated tails.
pub fn write_wal_bytes(dir: &Path, bytes: &[u8]) -> io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join(WAL_FILE), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbs_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn snapshot_round_trip_and_crc_rejection() {
        let log = vec![
            ChangeBatch {
                epoch: 4,
                added: vec![10, 11],
                removed: vec![],
            },
            ChangeBatch {
                epoch: 5,
                added: vec![],
                removed: vec![10],
            },
        ];
        let blob = encode_snapshot(&[1, 2, 3, 1 << 40], 5, &log);
        let (set, epoch, got_log) = decode_snapshot(&blob).expect("valid snapshot");
        assert_eq!(epoch, 5);
        assert_eq!(set.len(), 4);
        assert!(set.contains(&(1 << 40)));
        assert_eq!(got_log, log);
        // Every single-byte corruption is caught.
        for i in 0..blob.len() {
            let mut bad = blob.clone();
            bad[i] ^= 0x40;
            assert!(decode_snapshot(&bad).is_none(), "corruption at {i} missed");
        }
        // Truncations are caught.
        for cut in 0..blob.len() {
            assert!(decode_snapshot(&blob[..cut]).is_none());
        }
        // A contiguity violation in the changelog is rejected even with a
        // valid CRC.
        let gap = vec![ChangeBatch {
            epoch: 3,
            added: vec![9],
            removed: vec![],
        }];
        assert!(decode_snapshot(&encode_snapshot(&[9], 5, &gap)).is_none());
    }

    #[test]
    fn wal_append_recover_round_trip() {
        let dir = tempdir("round_trip");
        let mut wal = Wal::open(&dir, DurableOptions::default()).unwrap();
        wal.append(1, &[1, 2, 3], &[]).unwrap();
        wal.append(2, &[4], &[1]).unwrap();
        let rec = recover(&dir, 16).unwrap();
        assert_eq!(rec.epoch, 2);
        assert_eq!(rec.wal_records, 2);
        assert_eq!(rec.truncated_bytes, 0);
        let mut got: Vec<u64> = rec.elements.iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(rec.log.len(), 2);
        assert_eq!(rec.log[0].epoch, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_and_appendable() {
        let dir = tempdir("torn_tail");
        let mut wal = Wal::open(&dir, DurableOptions::default()).unwrap();
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[]).unwrap();
        // Tear the last record.
        let bytes = read_wal_bytes(&dir).unwrap();
        write_wal_bytes(&dir, &bytes[..bytes.len() - 3]).unwrap();
        let rec = recover(&dir, 16).unwrap();
        assert_eq!(rec.epoch, 1, "the torn batch must be rolled back");
        assert!(rec.truncated_bytes > 0);
        // The file was physically truncated to the valid prefix and stays
        // appendable at the next epoch.
        let mut wal = Wal::open(&dir, DurableOptions::default()).unwrap();
        wal.append(2, &[7], &[]).unwrap();
        let rec = recover(&dir, 16).unwrap();
        assert_eq!(rec.epoch, 2);
        assert!(rec.elements.contains(&7) && !rec.elements.contains(&2));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_append_is_cut_back_before_the_next_one_lands() {
        // A write that fails half-way leaves a torn record. It is gone
        // before the next append: recovery finds the acknowledged batches,
        // all of them, and nothing else.
        let fault = CrashPoint::FailedWalAppend;
        for sync_writes in [false, true] {
            let dir = tempdir("failed_append");
            let opts = DurableOptions {
                snapshot_every: 0,
                sync_writes,
                ..DurableOptions::default()
            };
            let mut wal = Wal::open(&dir, opts).unwrap();
            wal.append(1, &[1], &[]).unwrap();
            let good = read_wal_bytes(&dir).unwrap();
            wal.inject_crash(Some(fault));
            assert!(wal.append(2, &[66, 67, 68], &[]).is_err());
            wal.inject_crash(None);
            assert_eq!(read_wal_bytes(&dir).unwrap(), good, "cut back");
            // The refused batch's epoch is free again, and what takes it
            // sits right behind the last good record.
            wal.append(2, &[2], &[]).unwrap();
            wal.append(3, &[3], &[1]).unwrap();
            let rec = recover(&dir, 16).unwrap();
            assert_eq!((rec.epoch, rec.wal_records, rec.truncated_bytes), (3, 3, 0));
            let mut got: Vec<u64> = rec.elements.iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, vec![2, 3]);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn compaction_snapshots_and_prunes() {
        let dir = tempdir("compaction");
        let opts = DurableOptions {
            log_capacity: 2,
            snapshot_every: 2,
            sync_writes: false,
        };
        let mut wal = Wal::open(&dir, opts).unwrap();
        assert!(!wal.append(1, &[1], &[]).unwrap());
        assert!(wal.append(2, &[2], &[]).unwrap(), "second append is due");
        let log = vec![
            ChangeBatch {
                epoch: 1,
                added: vec![1],
                removed: vec![],
            },
            ChangeBatch {
                epoch: 2,
                added: vec![2],
                removed: vec![],
            },
        ];
        wal.compact(&[1, 2], 2, &log).unwrap();
        assert_eq!(read_wal_bytes(&dir).unwrap().len(), 0, "WAL truncated");
        let rec = recover(&dir, 2).unwrap();
        assert_eq!((rec.epoch, rec.snapshot_epoch, rec.wal_records), (2, 2, 0));
        assert_eq!(rec.log, log, "changelog survives through the snapshot");
        // A second compaction prunes the first snapshot file.
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.append(3, &[3], &[]).unwrap();
        wal.compact(&[1, 2, 3], 3, &log[1..]).unwrap();
        let snaps: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .flatten()
            .filter(|e| e.file_name().to_string_lossy().ends_with(".snap"))
            .collect();
        assert_eq!(snaps.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_compaction_with_nothing_new_leaves_the_one_snapshot_alone() {
        // A second compaction at the snapshot's epoch, nothing appended in
        // between: were it to rewrite the file and tear it, neither an older
        // snapshot nor the (truncated) WAL would be left to recover from.
        let dir = tempdir("same_epoch");
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.append(1, &[1], &[]).unwrap();
        let log = vec![ChangeBatch {
            epoch: 1,
            added: vec![1],
            removed: vec![],
        }];
        wal.compact(&[1], 1, &log).unwrap();
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.inject_crash(Some(CrashPoint::TornSnapshot));
        wal.compact(&[1], 1, &log).unwrap();
        let rec = recover(&dir, 8).unwrap();
        assert_eq!((rec.epoch, rec.snapshots_rejected), (1, 0));
        assert!(rec.elements.contains(&1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn big_batches_chunk_and_merge_back() {
        let dir = tempdir("chunking");
        let mut wal = Wal::open(&dir, DurableOptions::default()).unwrap();
        // Above the 2^16-element chunk clamp, so the batch spans records.
        let big: Vec<u64> = (1..=70_000u64).collect();
        wal.append(1, &big, &[]).unwrap();
        wal.append(2, &[1 << 50], &[1]).unwrap();
        let rec = recover(&dir, 8).unwrap();
        assert_eq!(rec.epoch, 2);
        assert_eq!(rec.elements.len(), 70_000);
        assert_eq!(rec.log.len(), 2);
        assert_eq!(
            rec.log[0].added.len(),
            70_000,
            "chunks merged into one batch"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_skips_pre_snapshot_leftovers() {
        // A crash between snapshot rename and WAL truncation leaves records
        // the snapshot already covers; they must be skipped, and records
        // beyond the snapshot applied.
        let dir = tempdir("leftovers");
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[]).unwrap();
        wal.inject_crash(Some(CrashPoint::MidCompaction));
        let log = vec![ChangeBatch {
            epoch: 2,
            added: vec![2],
            removed: vec![],
        }];
        assert!(wal.compact(&[1, 2], 2, &log).is_err());
        // The WAL still holds epochs 1–2; append epoch 3 with a fresh handle
        // (the crashed process is gone).
        let mut wal = Wal::open(&dir, opts).unwrap();
        wal.append(3, &[3], &[]).unwrap();
        let rec = recover(&dir, 8).unwrap();
        assert_eq!((rec.epoch, rec.snapshot_epoch), (3, 2));
        assert_eq!(rec.wal_records, 1, "only the post-snapshot record replays");
        let mut got: Vec<u64> = rec.elements.iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
