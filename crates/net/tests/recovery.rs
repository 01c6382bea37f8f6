//! Crash recovery at the socket and the file: a client with `--retry`
//! rides out a server restart, and the WAL tail recovers to a batch prefix
//! however it was torn, bit-flipped or duplicated.
//!
//! Every crash state a recorded op trace allows — a process's or a power
//! loss's, after every op — is recovered by `src/wal.rs`'s enumerator
//! test; kill-and-reopen with epoch continuity for the readers and every
//! acked transfer still held is the deterministic simulator's
//! (`src/sim.rs`), over a thousand schedules.

use pbs_net::client::{sync_with_retry, ClientConfig, RetryPolicy};
use pbs_net::store::ChangeBatch;
use pbs_net::wal::{self, DurableOptions};
use pbs_net::{MutableStore, Server, ServerConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

/// The WAL of a store directory, by its documented name (docs/WIRE.md,
/// "Persistence format").
fn wal_path(dir: &Path) -> PathBuf {
    dir.join("changes.wal")
}

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pbs_recovery_{tag}_{}_{}",
        std::process::id(),
        DIR_COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `count` distinct nonzero 32-bit-universe elements.
fn distinct_keys(count: usize, salt: u64) -> Vec<u64> {
    let mut seen = HashSet::with_capacity(count);
    let mut out = Vec::with_capacity(count);
    let mut x = salt | 1;
    while out.len() < count {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let key = (x >> 16 & 0xFFFF_FFFF) | 1;
        if seen.insert(key) {
            out.push(key);
        }
    }
    out
}

/// A client with `--retry` rides out a server that is down when the sync
/// starts (the restart window) and converges once it is back.
#[test]
fn retry_rides_out_a_server_restart() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    drop(listener); // the port is now dead — connects are refused
    let server_thread = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(400));
        let store = Arc::new(MutableStore::new(2..=100u64));
        Server::bind(addr, store, ServerConfig::default()).expect("bind")
    });
    let alice: Vec<u64> = (1..=99).collect();
    let policy = RetryPolicy {
        attempts: 12,
        base_delay: Duration::from_millis(50),
        max_delay: Duration::from_millis(400),
        jitter_seed: 0xD15C_0CAFE,
    };
    let (report, attempts) =
        sync_with_retry(addr, &alice, &ClientConfig::default(), &policy).expect("retry converges");
    assert!(report.verified);
    assert!(
        attempts > 1,
        "the first attempt must have hit the dead port"
    );
    let mut diff = report.recovered.clone();
    diff.sort_unstable();
    assert_eq!(diff, vec![1, 100]);
    server_thread.join().unwrap().shutdown();
}

/// Deterministic replay of a batch sequence: the expected (set, epoch)
/// ladder a recovery may land on.
fn build_states(batches: &[ChangeBatch]) -> Vec<xhash::Set> {
    let mut states = vec![xhash::Set::default()];
    for batch in batches {
        let mut next = states.last().unwrap().clone();
        for e in &batch.removed {
            next.remove(e);
        }
        next.extend(batch.added.iter().copied());
        states.push(next);
    }
    states
}

/// Generate `n` effective batches over a deterministic key stream.
fn generate_batches(n: usize, salt: u64) -> Vec<ChangeBatch> {
    let keys = distinct_keys(n * 8, salt);
    let mut live: Vec<u64> = Vec::new();
    let mut batches = Vec::with_capacity(n);
    let mut cursor = 0usize;
    for i in 0..n {
        let add: Vec<u64> = keys[cursor..cursor + 5].to_vec();
        cursor += 5;
        let removed: Vec<u64> = if i % 3 == 2 && !live.is_empty() {
            vec![live.swap_remove(i % live.len())]
        } else {
            Vec::new()
        };
        live.extend(add.iter().copied());
        batches.push(ChangeBatch {
            epoch: (i + 1) as u64,
            added: add,
            removed,
        });
    }
    batches
}

/// Commit `batches` to a fresh durable store in `dir`, which never
/// compacts: its WAL holds every one of them.
fn write_wal(dir: &std::path::Path, batches: &[ChangeBatch]) {
    let options = DurableOptions {
        snapshot_every: 0,
        ..DurableOptions::default()
    };
    let store = MutableStore::open_durable(dir, options).unwrap();
    for b in batches {
        assert_eq!(store.try_apply(&b.added, &b.removed).unwrap(), b.epoch);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Recovery over a torn (truncated-anywhere) WAL never panics and
    /// lands exactly on a valid batch prefix.
    #[test]
    fn torn_wal_tails_recover_to_a_batch_prefix(
        n in 1usize..8,
        salt in any::<u64>(),
        cut_pos in 0usize..4096,
    ) {
        let dir = tempdir("prop_torn");
        let batches = generate_batches(n, salt | 1);
        let states = build_states(&batches);
        write_wal(&dir, &batches);
        let bytes = std::fs::read(wal_path(&dir)).unwrap();
        let cut = cut_pos % (bytes.len() + 1);
        std::fs::write(wal_path(&dir), &bytes[..cut]).unwrap();

        let rec = wal::recover(&dir, 1024).unwrap();
        let k = rec.epoch as usize;
        prop_assert!(k <= n);
        prop_assert_eq!(&rec.elements, &states[k], "set must match epoch {}", k);
        if let Some(last) = rec.log.last() {
            prop_assert_eq!(last.epoch, rec.epoch);
        }
        // Idempotence: recovering the already-truncated log changes nothing.
        let again = wal::recover(&dir, 1024).unwrap();
        prop_assert_eq!(again.epoch, rec.epoch);
        prop_assert_eq!(again.truncated_bytes, 0);
        prop_assert_eq!(again.elements, rec.elements);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A single flipped bit anywhere in the WAL is caught (by the CRC, the
    /// length prefix validation, or the epoch sequencing) and recovery
    /// still lands on a consistent (set, epoch) prefix pair.
    #[test]
    fn bit_flipped_wal_recovers_to_a_batch_prefix(
        n in 1usize..8,
        salt in any::<u64>(),
        flip_pos in 0usize..4096,
        flip_bit in 0u32..8,
    ) {
        let dir = tempdir("prop_flip");
        let batches = generate_batches(n, salt | 1);
        let states = build_states(&batches);
        write_wal(&dir, &batches);
        let mut bytes = std::fs::read(wal_path(&dir)).unwrap();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        std::fs::write(wal_path(&dir), &bytes).unwrap();

        let rec = wal::recover(&dir, 1024).unwrap();
        let k = rec.epoch as usize;
        prop_assert!(k <= n);
        prop_assert_eq!(&rec.elements, &states[k], "set must match epoch {}", k);
        // The flipped record and everything after it are gone from disk.
        let again = wal::recover(&dir, 1024).unwrap();
        prop_assert_eq!(again.truncated_bytes, 0);
        prop_assert_eq!(again.epoch, rec.epoch);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A duplicated tail record (a replayed append after an unclean kill)
    /// carries the current epoch, so recovery folds it into the last batch
    /// as a continuation chunk: the epoch must not advance and the set must
    /// stay exactly the batch-prefix state — never a double-apply.
    #[test]
    fn duplicated_wal_tail_is_dropped_not_reapplied(
        n in 1usize..8,
        salt in any::<u64>(),
    ) {
        let dir = tempdir("prop_dup");
        let batches = generate_batches(n, salt | 1);
        let states = build_states(&batches);
        write_wal(&dir, &batches);
        let bytes = std::fs::read(wal_path(&dir)).unwrap();
        // Duplicate the last record verbatim (the log of the batches before
        // it gives its byte offset).
        let prefix = tempdir("prop_dup_prefix");
        write_wal(&prefix, &batches[..n - 1]);
        let start = std::fs::read(wal_path(&prefix)).unwrap().len();
        std::fs::remove_dir_all(&prefix).unwrap();
        let record = bytes[start..].to_vec();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&record);
        std::fs::write(wal_path(&dir), &doubled).unwrap();

        let rec = wal::recover(&dir, 1024).unwrap();
        prop_assert_eq!(rec.epoch, n as u64, "the duplicate must not advance the epoch");
        prop_assert_eq!(&rec.elements, &states[n]);
        // Idempotent from here on: a second recovery sees a valid log.
        let again = wal::recover(&dir, 1024).unwrap();
        prop_assert_eq!(again.epoch, rec.epoch);
        prop_assert_eq!(again.elements, rec.elements);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
