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
//! **Every effect on the directory is an `Op`** that the `Disk` the WAL
//! holds performs (`disk.rs`); the tests run this code on a recording disk
//! and recover every state a crash after any op of a trace could leave.

use crate::disk::{Disk, Fs, Name, Op};
use crate::frame::{self, delta_batch_frames, delta_chunk_capacity, Frame, DEFAULT_MAX_FRAME};
use crate::store::ChangeBatch;
use obs::Histogram;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Magic number opening every snapshot file (`"PBSS"` little-endian).
pub(crate) const SNAPSHOT_MAGIC: u32 = 0x5353_4250;

/// Snapshot format version.
pub(crate) const SNAPSHOT_VERSION: u16 = 1;

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
    pub(crate) fn report(&self) -> RecoveryReport {
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
pub(crate) struct Wal {
    disk: Box<dyn Disk>,
    /// Byte length of the valid prefix (everything we have appended or
    /// recovered; a failed append may leave garbage beyond it).
    len: u64,
    /// A failed append left bytes beyond `len` that could not be cut off
    /// yet; nothing is appended until they are.
    torn: bool,
    records_since_snapshot: usize,
    options: DurableOptions,
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
    Ok(recover_on(&mut Fs::new(dir)?, log_capacity)?.0)
}

/// [`recover`] through `disk`, with the length of the WAL's valid prefix
/// (`None` when there is no WAL).
fn recover_on(disk: &mut dyn Disk, log_capacity: usize) -> io::Result<(Recovered, Option<u64>)> {
    let mut out = Recovered::default();

    // ---- Newest valid snapshot ----
    let mut snapshots = disk.snapshots()?;
    snapshots.sort_unstable_by_key(|&epoch| std::cmp::Reverse(epoch));
    for epoch in snapshots {
        let read = disk.read(Name::Snapshot(epoch)).ok().flatten();
        match read.and_then(|b| decode_snapshot(&b)) {
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
    let wal = disk.read(Name::Wal)?;
    let bytes = wal.as_deref().unwrap_or_default();
    let mut cursor = bytes;
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
        disk.perform(Op::Truncate(Name::Wal, valid_end))?;
        disk.perform(Op::Sync(Name::Wal))?;
    }
    while out.log.len() > log_capacity {
        out.log.remove(0);
    }
    if log_capacity == 0 {
        out.log.clear();
    }
    Ok((out, wal.map(|_| valid_end)))
}

impl Wal {
    /// Recover the directory behind `disk` (see [`recover`]) and open its
    /// WAL for appending: the log is cut to its valid prefix before
    /// anything is appended to it.
    pub(crate) fn recover(
        mut disk: Box<dyn Disk>,
        options: DurableOptions,
    ) -> io::Result<(Wal, Recovered)> {
        let (recovered, len) = recover_on(&mut *disk, options.log_capacity)?;
        if len.is_none() {
            disk.perform(Op::Truncate(Name::Wal, 0))?;
        }
        // A synced append is durable only once the file that holds it is.
        // A store that syncs its appends syncs the directory on every open,
        // not just the one that made the WAL: that open may have died
        // before its sync. (Unsynced appends promise nothing against power
        // loss, and a compaction syncs the directory before it promises.)
        if options.sync_writes {
            disk.perform(Op::SyncDir)?;
        }
        let wal = Wal {
            disk,
            len: len.unwrap_or(0),
            torn: false,
            records_since_snapshot: 0,
            options,
            timers: None,
        };
        Ok((wal, recovered))
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

    /// Append one effective change batch, chunked under the frame cap like
    /// the delta stream. On success the batch is on disk (handed to the
    /// OS; fsynced when [`DurableOptions::sync_writes`]) *before* the
    /// caller mutates memory — the write-ahead contract.
    ///
    /// On an error from the write or the sync the file is cut back to its
    /// last good length: the caller holds none of the batch, so the log
    /// must not either — a torn record would hide every later,
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
        if self.torn {
            self.cut_back()?;
        }
        let len = record.len() as u64;
        let start = self.timers.as_ref().map(|_| Instant::now());
        let written = match self.write_record(record, start) {
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
        self.len += len;
        self.records_since_snapshot += 1;
        Ok(self.options.snapshot_every > 0
            && self.records_since_snapshot >= self.options.snapshot_every)
    }

    /// The record's bytes handed to the OS — how long that took, on a
    /// timed store's clock — and synced where the store asks for it.
    fn write_record(
        &mut self,
        record: Vec<u8>,
        start: Option<Instant>,
    ) -> io::Result<Option<(Instant, std::time::Duration)>> {
        self.disk.perform(Op::Write(Name::Wal, record))?;
        let written = start.map(|s| (s, s.elapsed()));
        if self.options.sync_writes {
            self.disk.perform(Op::Sync(Name::Wal))?;
        }
        Ok(written)
    }

    /// Drop whatever a failed append left beyond the last good record —
    /// durably, where appends are synced: a record whose sync failed may
    /// have reached the disk whole, and a power loss must not bring back
    /// the batch its caller was told was refused.
    fn cut_back(&mut self) -> io::Result<()> {
        self.disk.perform(Op::Truncate(Name::Wal, self.len))?;
        if self.options.sync_writes {
            self.disk.perform(Op::Sync(Name::Wal))?;
        }
        self.torn = false;
        Ok(())
    }

    /// Write a snapshot of the full state and compact: temp file → fsync →
    /// atomic rename → directory fsync → truncate the WAL → remove older
    /// snapshots. Crashing between any two steps leaves a recoverable
    /// directory (the ordering is the whole point; see the module docs).
    /// `elements` is called for the set only once the compaction is known
    /// to write: a repeat at the epoch of the standing snapshot copies
    /// nothing and performs no op.
    pub(crate) fn compact<E: AsRef<[u64]>>(
        &mut self,
        elements: impl FnOnce() -> E,
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

    fn compact_untimed<E: AsRef<[u64]>>(
        &mut self,
        elements: impl FnOnce() -> E,
        epoch: u64,
        log: &[ChangeBatch],
    ) -> io::Result<()> {
        let snapshot = Name::Snapshot(epoch);
        let snapshots = self.disk.snapshots()?;
        // Nothing appended since this epoch's snapshot, the only copy of
        // the state: rewriting it could tear it with nothing to fall back on.
        if self.len == 0 && snapshots.contains(&epoch) {
            return Ok(());
        }
        let blob = encode_snapshot(elements().as_ref(), epoch, log);
        self.disk.perform(Op::Truncate(Name::Tmp, 0))?;
        self.disk.perform(Op::Write(Name::Tmp, blob))?;
        self.disk.perform(Op::Sync(Name::Tmp))?;
        self.disk.perform(Op::Rename(Name::Tmp, snapshot))?;
        // The rename is made durable before the WAL is cut. Should that
        // fail, the WAL keeps its records, and recovery skips those at or
        // below the snapshot's epoch.
        self.disk.perform(Op::SyncDir)?;
        self.disk.perform(Op::Truncate(Name::Wal, 0))?;
        self.disk.perform(Op::Sync(Name::Wal))?;
        (self.len, self.torn, self.records_since_snapshot) = (0, false, 0);
        for older in snapshots.into_iter().filter(|&e| e < epoch) {
            let _ = self.disk.perform(Op::Remove(Name::Snapshot(older)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Crash, Files, RecordingDisk};
    use crate::store::MutableStore;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;
    use std::ops::Range;
    use std::path::PathBuf;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("pbs_wal_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// The WAL of `dir`, on the file system.
    fn open(dir: &Path, options: DurableOptions) -> Wal {
        let (wal, _) = Wal::recover(Box::new(Fs::new(dir).unwrap()), options).unwrap();
        wal
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn is_wal_write(op: &Op) -> bool {
        matches!(op, Op::Write(Name::Wal, _))
    }

    /// A WAL on a fresh recording disk.
    fn recorded(options: DurableOptions) -> (RecordingDisk, Wal) {
        let disk = RecordingDisk::default();
        let (wal, _) = Wal::recover(Box::new(disk.clone()), options).unwrap();
        (disk, wal)
    }

    /// What a process crash now would leave: the directory as it stands.
    fn reopen(disk: &RecordingDisk, options: DurableOptions) -> (RecordingDisk, Recovered) {
        let disk = RecordingDisk::new(disk.files());
        let (_, recovered) = Wal::recover(Box::new(disk.clone()), options).unwrap();
        (disk, recovered)
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
    fn the_on_disk_format_is_pinned() {
        // One batch over two WAL records, and one snapshot, byte for byte
        // as the format has always written them.
        let (disk, mut wal) = recorded(DurableOptions::default());
        let added: Vec<u64> = (1..=65_540u64).map(|e| e * 3).collect();
        wal.append(7, &added, &[5, 1 << 33]).unwrap();
        let bytes = &disk.files()[&Name::Wal];
        let first = u32::from_le_bytes(bytes[..4].try_into().unwrap()) as usize + 8;
        assert_eq!(
            (bytes.len(), crate::crc::crc32(bytes), first),
            (196_690, 0xe561_cff2, 196_634)
        );
        assert_eq!(
            hex(&bytes[..40]),
            "12000300ba72ecaf0707000000000000000300000100000000000300000600000900000c00000f00"
        );
        assert_eq!(
            hex(&bytes[first..]),
            "30000000e05788830707000000000000000504000000020000000300030000060003000009000300\
             000c0003000005000000000000000002"
        );
        let log = [
            ChangeBatch {
                epoch: 4,
                added: vec![10, 300],
                removed: vec![],
            },
            ChangeBatch {
                epoch: 5,
                added: vec![],
                removed: vec![10, 1 << 40],
            },
        ];
        assert_eq!(
            hex(&encode_snapshot(&[1, 2, 300, 1 << 40], 5, &log)),
            "50425353010005000000000000000604000000000000000100000000000200000000002c01000000\
             000000000000010200000004000000000000000202000000000000000a002c010100000000000000\
             0005000000000000000100000000000000000602000000000000000a0000000000000000000001ba\
             38b445"
        );
    }

    #[test]
    fn wal_append_recover_round_trip() {
        let dir = tempdir("round_trip");
        let mut wal = open(&dir, DurableOptions::default());
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
        let mut wal = open(&dir, DurableOptions::default());
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[]).unwrap();
        // Tear the last record.
        let path = dir.join("changes.wal");
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let rec = recover(&dir, 16).unwrap();
        assert_eq!(rec.epoch, 1, "the torn batch must be rolled back");
        assert!(rec.truncated_bytes > 0);
        // The file was physically truncated to the valid prefix and stays
        // appendable at the next epoch.
        let mut wal = open(&dir, DurableOptions::default());
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
        for sync_writes in [false, true] {
            let opts = DurableOptions {
                snapshot_every: 0,
                sync_writes,
                ..DurableOptions::default()
            };
            let (disk, mut wal) = recorded(opts);
            wal.append(1, &[1], &[]).unwrap();
            let good = disk.files();
            disk.fail(0, is_wal_write);
            assert!(wal.append(2, &[66, 67, 68], &[]).is_err());
            assert_eq!(disk.files(), good, "cut back");
            // The refused batch's epoch is free again, and what takes it
            // sits right behind the last good record.
            wal.append(2, &[2], &[]).unwrap();
            wal.append(3, &[3], &[1]).unwrap();
            let (_, rec) = reopen(&disk, opts);
            assert_eq!((rec.epoch, rec.wal_records, rec.truncated_bytes), (3, 3, 0));
            let mut got: Vec<u64> = rec.elements.iter().copied().collect();
            got.sort_unstable();
            assert_eq!(got, vec![2, 3]);
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
        let mut wal = open(&dir, opts);
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
        wal.compact(|| [1, 2], 2, &log).unwrap();
        assert_eq!(
            std::fs::read(dir.join("changes.wal")).unwrap().len(),
            0,
            "WAL truncated"
        );
        let rec = recover(&dir, 2).unwrap();
        assert_eq!((rec.epoch, rec.snapshot_epoch, rec.wal_records), (2, 2, 0));
        assert_eq!(rec.log, log, "changelog survives through the snapshot");
        // A second compaction prunes the first snapshot file.
        let mut wal = open(&dir, opts);
        wal.append(3, &[3], &[]).unwrap();
        wal.compact(|| [1, 2, 3], 3, &log[1..]).unwrap();
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
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let (disk, mut wal) = recorded(opts);
        wal.append(1, &[1], &[]).unwrap();
        let log = vec![ChangeBatch {
            epoch: 1,
            added: vec![1],
            removed: vec![],
        }];
        wal.compact(|| [1], 1, &log).unwrap();
        let (disk, rec) = reopen(&disk, opts);
        assert_eq!((rec.epoch, rec.snapshot_epoch), (1, 1));
        let (mut wal, _) = Wal::recover(Box::new(disk.clone()), opts).unwrap();
        let ops = disk.ops();
        wal.compact(|| [1], 1, &log).unwrap();
        assert_eq!(disk.ops(), ops, "not one op");
    }

    #[test]
    fn big_batches_chunk_and_merge_back() {
        let dir = tempdir("chunking");
        let mut wal = open(&dir, DurableOptions::default());
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
        // A compaction whose WAL truncation fails leaves records the
        // snapshot already covers; they must be skipped, and records beyond
        // the snapshot applied.
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let (disk, mut wal) = recorded(opts);
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[]).unwrap();
        disk.fail(0, |op| matches!(op, Op::Truncate(Name::Wal, _)));
        let log = vec![ChangeBatch {
            epoch: 2,
            added: vec![2],
            removed: vec![],
        }];
        assert!(wal.compact(|| [1, 2], 2, &log).is_err());
        // The WAL still holds epochs 1–2; epoch 3 lands behind them.
        wal.append(3, &[3], &[]).unwrap();
        let (_, rec) = reopen(&disk, opts);
        assert_eq!((rec.epoch, rec.snapshot_epoch), (3, 2));
        assert_eq!(rec.wal_records, 1, "only the post-snapshot record replays");
        let mut got: Vec<u64> = rec.elements.iter().copied().collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
    }

    #[test]
    fn a_failed_directory_sync_leaves_the_wal_whole() {
        // The snapshot's rename may not be durable: the WAL keeps every
        // record, and a reopen stands where the store stood.
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let (disk, mut wal) = recorded(opts);
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[1]).unwrap();
        let before = disk.files()[&Name::Wal].clone();
        disk.fail(0, |op| *op == Op::SyncDir);
        assert!(wal.compact(|| [2], 2, &[]).is_err());
        assert_eq!(disk.files()[&Name::Wal], before, "the WAL is untruncated");
        let (_, rec) = reopen(&disk, opts);
        assert_eq!((rec.epoch, rec.elements.len()), (2, 1));
        assert!(rec.elements.contains(&2));
    }

    #[test]
    fn a_torn_newest_snapshot_falls_back_to_the_older_one() {
        // A compaction at epoch 3 stops before it cuts the WAL: snapshot-2,
        // snapshot-3 and a WAL holding epoch 3 remain. With snapshot-3 torn
        // or bit-flipped, recovery passes over it to snapshot-2 and the WAL.
        let opts = DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        };
        let (disk, mut wal) = recorded(opts);
        let batch = |epoch, added: &[u64], removed: &[u64]| ChangeBatch {
            epoch,
            added: added.to_vec(),
            removed: removed.to_vec(),
        };
        wal.append(1, &[1], &[]).unwrap();
        wal.append(2, &[2], &[]).unwrap();
        let log = [batch(1, &[1], &[]), batch(2, &[2], &[])];
        wal.compact(|| [1, 2], 2, &log).unwrap();
        wal.append(3, &[3], &[1]).unwrap();
        disk.fail(0, |op| matches!(op, Op::Truncate(Name::Wal, _)));
        let log = [log[0].clone(), log[1].clone(), batch(3, &[3], &[1])];
        assert!(wal.compact(|| [2, 3], 3, &log).is_err());
        let files = disk.files();
        let whole = files[&Name::Snapshot(3)].clone();
        let mut flipped = whole.clone();
        flipped[whole.len() / 3] ^= 0x10;
        for bad in [whole[..whole.len() / 2].to_vec(), flipped] {
            let mut files = files.clone();
            files.insert(Name::Snapshot(3), bad);
            let (_, rec) = reopen(&RecordingDisk::new(files), opts);
            let report = (rec.epoch, rec.snapshot_epoch, rec.snapshots_rejected);
            assert_eq!((report, rec.wal_records), ((3, 2, 1), 1));
            let mut got: Vec<u64> = rec.elements.iter().copied().collect();
            got.sort_unstable();
            assert_eq!((got, rec.log.as_slice()), (vec![2, 3], &log[..]));
        }
    }

    #[test]
    fn a_synced_append_outlives_an_open_that_failed_to_sync_the_directory() {
        // The open that made the WAL failed its directory sync; the retry
        // must make the file durable, or a power loss takes it, and the
        // synced append in it, away.
        let opts = DurableOptions {
            sync_writes: true,
            ..DurableOptions::default()
        };
        let disk = RecordingDisk::default();
        disk.fail(0, |op| *op == Op::SyncDir);
        assert!(Wal::recover(Box::new(disk.clone()), opts).is_err());
        let (mut wal, _) = Wal::recover(Box::new(disk.clone()), opts).unwrap();
        wal.append(1, &[1], &[]).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for (crash, files) in disk.crash_states(disk.ops(), &mut rng) {
            let (_, rec) = reopen(&RecordingDisk::new(files), opts);
            assert_eq!(rec.epoch, 1, "{crash:?}");
        }
    }

    /// One call on a recorded store: where its ops sit in the trace, and
    /// what it left.
    #[derive(Debug)]
    struct Call {
        ops: Range<usize>,
        /// The store's epoch once the call returned.
        landed: u64,
        /// The newest epoch a power loss may not take back: that of the
        /// last synced append or completed compaction.
        promised: u64,
        /// A commit's batch, landed or not, and the set it leads to.
        batch: Option<(ChangeBatch, BTreeSet<u64>)>,
    }

    /// A store's seeded run on a recording disk, one op of it failed.
    struct Run {
        seed: u64,
        fail: Option<usize>,
        disk: RecordingDisk,
        options: DurableOptions,
        calls: Vec<Call>,
        /// The set at every epoch the store stood at, and the batch that
        /// led to each.
        sets: Vec<BTreeSet<u64>>,
        batches: Vec<ChangeBatch>,
    }

    /// Run a seeded mix of commits and compactions on a durable store,
    /// failing op `fail` of the trace (the process living on).
    fn record(seed: u64, fail: Option<usize>) -> Run {
        let mut rng = StdRng::seed_from_u64(seed);
        let options = DurableOptions {
            log_capacity: [2, 64][rng.random_range(0..2usize)],
            snapshot_every: rng.random_range(2..=3usize),
            sync_writes: seed % 2 == 1,
        };
        let disk = RecordingDisk::default();
        if let Some(fail) = fail {
            disk.fail(fail, |_| true);
        }
        let mut run = Run {
            seed,
            fail,
            disk: disk.clone(),
            options,
            calls: Vec::new(),
            sets: vec![BTreeSet::new()],
            batches: Vec::new(),
        };
        // An open that fails is retried on the directory it left, as an
        // operator would.
        let open = || MutableStore::open_on(Box::new(disk.clone()), options);
        let Ok((store, _)) = open().or_else(|_| open()) else {
            return run;
        };
        let mut fresh = 0u64;
        for _ in 0..10 {
            let (start, before) = (disk.ops(), store.epoch());
            let held = run.sets[before as usize].clone();
            let (result, batch) = if rng.random_bool(0.2) {
                (store.compact_now(), None)
            } else {
                let added: BTreeSet<u64> = (0..rng.random_range(1..=3))
                    .map(|_| {
                        fresh += 1;
                        fresh << [0, 40][rng.random_range(0..2usize)]
                    })
                    .collect();
                let removed: BTreeSet<u64> = held
                    .iter()
                    .copied()
                    .filter(|_| rng.random_bool(0.3))
                    .collect();
                let batch = ChangeBatch {
                    epoch: before + 1,
                    added: added.iter().copied().collect(),
                    removed: removed.iter().copied().collect(),
                };
                let set = held.difference(&removed).chain(&added).copied().collect();
                let result = store.try_apply(&batch.added, &batch.removed);
                (result.map(drop), Some((batch, set)))
            };
            let ops = start..disk.ops();
            let (set, landed) = store.snapshot_with_epoch();
            if landed > before {
                let (batch, set) = batch.clone().expect("only a commit lands");
                run.sets.push(set);
                run.batches.push(batch);
            }
            let set: BTreeSet<u64> = set.into_iter().collect();
            assert_eq!(set, run.sets[landed as usize], "seed {seed}, fail {fail:?}");
            let compacted =
                result.is_ok() && ops.clone().any(|k| matches!(disk.op(k), Op::Rename(..)));
            let synced = options.sync_writes && landed > before;
            let promised = match compacted || synced {
                true => landed,
                false => run.calls.last().map_or(0, |c| c.promised),
            };
            run.calls.push(Call {
                ops,
                landed,
                promised,
                batch,
            });
        }
        run
    }

    /// What [`check`] went through.
    #[derive(Debug, Default)]
    struct Checked {
        process: usize,
        power: usize,
        /// States whose newest snapshot, torn, was passed over for an older
        /// one and the WAL, to the epoch the whole snapshot gave.
        fallbacks: usize,
    }

    /// The newest snapshot of `files` torn in half, and gone.
    fn tear_newest_snapshot(files: &Files) -> Option<(Files, Files)> {
        let newest = files.keys().rfind(|n| matches!(n, Name::Snapshot(_)))?;
        let mut absent = files.clone();
        let bytes = absent.remove(newest)?;
        let mut torn = absent.clone();
        torn.insert(*newest, bytes[..bytes.len() / 2].to_vec());
        Some((torn, absent))
    }

    /// Recover every crash state of `run`'s trace and hold it to the store;
    /// each one that holds a snapshot, also with its newest snapshot torn
    /// (a file system that renames before it writes, a copy of a dying
    /// disk), which recovery must pass over as if it were absent.
    fn check(run: &Run, rng: &mut StdRng, counts: &mut Checked) {
        for k in 0..=run.disk.ops() {
            let done = run.calls.iter().rev().find(|c| c.ops.end <= k);
            let (landed, promised) = done.map_or((0, 0), |c| (c.landed, c.promised));
            let in_flight = run.calls.iter().find(|c| c.ops.contains(&k));
            let writing = in_flight.and_then(|c| c.batch.as_ref());
            for (crash, files) in run.disk.crash_states(k, rng) {
                let (seed, fail, calls) = (run.seed, run.fail, &run.calls);
                let case =
                    || format!("seed {seed}, fail {fail:?}: {crash:?} after op {k} of {calls:?}");
                let open = |disk: &RecordingDisk| {
                    let recovered = Wal::recover(Box::new(disk.clone()), run.options);
                    recovered.unwrap_or_else(|e| panic!("{e}: {}", case()))
                };
                let torn = tear_newest_snapshot(&files);
                let disk = RecordingDisk::new(files);
                let (mut wal, got) = open(&disk);
                if let Some((torn, absent)) = torn {
                    let (_, torn) = open(&RecordingDisk::new(torn));
                    let (_, absent) = open(&RecordingDisk::new(absent));
                    let rejected = (torn.snapshots_rejected, absent.snapshots_rejected + 1);
                    assert_eq!(rejected.0, rejected.1, "torn newest snapshot: {}", case());
                    assert_eq!(
                        (torn.epoch, &torn.elements, &torn.log),
                        (absent.epoch, &absent.elements, &absent.log),
                        "torn newest snapshot: {}",
                        case()
                    );
                    let older = (1..got.snapshot_epoch).contains(&torn.snapshot_epoch);
                    counts.fallbacks += usize::from(older && torn.epoch == got.epoch);
                }
                let e = got.epoch;
                // Where the store stood, or the batch it was writing.
                let (set, written) = match writing {
                    Some((batch, set)) if e == batch.epoch && e > landed => (set, Some(batch)),
                    _ => {
                        let floor = match crash {
                            Crash::Process => landed,
                            Crash::PowerLoss => promised,
                        };
                        assert!((floor..=landed).contains(&e), "epoch {e}: {}", case());
                        (&run.sets[e as usize], None)
                    }
                };
                let elements: BTreeSet<u64> = got.elements.iter().copied().collect();
                assert_eq!(&elements, set, "epoch {e}: {}", case());
                // The changelog runs contiguously up to `e`, each batch the
                // one the store wrote at its epoch.
                assert!(got.log.len() <= run.options.log_capacity, "{}", case());
                for (back, logged) in got.log.iter().rev().enumerate() {
                    let want = match written {
                        Some(batch) if batch.epoch == logged.epoch => batch,
                        _ => &run.batches[logged.epoch as usize - 1],
                    };
                    let at = e - back as u64;
                    assert_eq!((logged.epoch, logged), (at, want), "{}", case());
                }
                // And the directory takes the next batch where it stands.
                let appended = wal.append(e + 1, &[u64::MAX], &[]);
                appended.unwrap_or_else(|e| panic!("{e}: {}", case()));
                let (_, again) = reopen(&disk, run.options);
                assert_eq!(again.epoch, e + 1, "{}", case());
                match crash {
                    Crash::Process => counts.process += 1,
                    Crash::PowerLoss => counts.power += 1,
                }
            }
        }
    }

    #[test]
    fn every_crash_state_of_a_recorded_trace_recovers() {
        // Every prefix of each seed's trace, with each of its ops failed in
        // turn: the process's crash states must recover the epoch the store
        // stood at (or the batch it was writing), a power loss's no earlier
        // than the last promise, and never panic.
        let mut rng = StdRng::seed_from_u64(0x0041_11CE);
        let (mut counts, mut traces) = (Checked::default(), 0);
        for seed in 0..4 {
            let ops = record(seed, None).disk.ops();
            for fail in std::iter::once(None).chain((0..ops).map(Some)) {
                check(&record(seed, fail), &mut rng, &mut counts);
                traces += 1;
            }
        }
        let Checked {
            process,
            power,
            fallbacks,
        } = counts;
        let states = process + power;
        println!(
            "crash states checked: {states} ({process} process, {power} power loss) \
             over {traces} traces; {fallbacks} recovered past a torn newest snapshot"
        );
        assert!(states >= 10_000, "only {states} crash states");
        assert!(fallbacks > 0, "no state fell back past a torn snapshot");
    }
}
