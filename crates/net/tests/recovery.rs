//! Crash-recovery soak: kill the durable store at injected crash points,
//! recover, and prove delta-sync convergence with exact epoch continuity.
//!
//! The acceptance bar of the durability layer: after N injected crashes at
//! distinct crash points (torn WAL append, partial snapshot temp file,
//! compaction interrupted between rename and truncate, corrupt snapshot
//! under the live name), a restarted server keeps serving delta
//! subscriptions against client epoch caches established *before* the
//! crashes — zero forced full resyncs for epochs the changelog still
//! covers — and recovery truncates torn WAL tails instead of failing.
//!
//! Deterministic by default; export `FUZZ_SEED` to vary the generated
//! workload (the CI fuzz-soak leg pins it).

use pbs_net::client::{sync, sync_with_retry, ClientConfig, RetryPolicy};
use pbs_net::frame::ErrorCode;
use pbs_net::store::{ChangeBatch, StoreRegistry};
use pbs_net::wal::{self, CrashPoint, DurableOptions};
use pbs_net::{MutableStore, NetError, Server, ServerConfig};
use proptest::prelude::*;
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn seed() -> u64 {
    std::env::var("FUZZ_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xD15C_0CAFE)
}

static DIR_COUNTER: AtomicUsize = AtomicUsize::new(0);

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

fn sorted(set: &HashSet<u64>) -> Vec<u64> {
    let mut v: Vec<u64> = set.iter().copied().collect();
    v.sort_unstable();
    v
}

/// The full kill-and-recover soak. One logical store lives across many
/// server "generations"; each generation ends in an injected crash at a
/// different crash point, and each recovery must hand every surviving
/// client a delta — never a forced full resync.
#[test]
fn kill_and_recover_soak_preserves_delta_continuity() {
    let root = tempdir("soak");
    let durable = DurableOptions {
        log_capacity: 1024,
        snapshot_every: 6,
        sync_writes: false,
    };
    let open = |crash_expected: bool| {
        let registry = Arc::new(StoreRegistry::new());
        registry.set_persistence_root(&root);
        let (store, recovery) = registry
            .open_store("", durable)
            .expect("open durable store");
        if !crash_expected {
            assert_eq!(recovery.truncated_bytes, 0);
        }
        let server = Server::bind_registry(
            "127.0.0.1:0",
            Arc::clone(&registry),
            ServerConfig::default(),
        )
        .expect("bind");
        (store, server, recovery)
    };

    // Generation 0: seed the store, give the client a full-sync baseline.
    let keys = distinct_keys(4000, seed());
    let mut expected: HashSet<u64> = keys[..1000].iter().copied().collect();
    let mut expected_epoch = 0u64;
    let (store, server, _) = open(false);
    store.apply(&keys[..1000], &[]);
    expected_epoch += 1;

    // The client holds a subset and reconciles up to the full set.
    let mut client: HashSet<u64> = keys[..900].iter().copied().collect();
    let client_vec: Vec<u64> = client.iter().copied().collect();
    let report =
        sync(server.local_addr(), &client_vec, &ClientConfig::default()).expect("baseline sync");
    assert!(report.verified);
    for e in &report.recovered {
        client.insert(*e);
    }
    let mut cached_epoch = report.epoch.expect("epoch-capable store");
    assert_eq!(cached_epoch, expected_epoch);
    assert_eq!(sorted(&client), sorted(&expected));
    let stats = server.shutdown();
    assert_eq!(stats.delta_fallbacks, 0);
    drop(store);

    // Crash generations: two full cycles over the four crash points.
    let crash_points = [
        CrashPoint::MidWalAppend,
        CrashPoint::MidSnapshotWrite,
        CrashPoint::MidCompaction,
        CrashPoint::TornSnapshot,
        CrashPoint::MidWalAppend,
        CrashPoint::MidSnapshotWrite,
        CrashPoint::MidCompaction,
        CrashPoint::TornSnapshot,
    ];
    let mut next_key = 1000usize;
    let mut total_truncations = 0u64;
    let mut total_rejected_snapshots = 0u64;
    for (generation, &point) in crash_points.iter().enumerate() {
        let (store, server, recovery) = open(true);
        assert_eq!(
            recovery.epoch, expected_epoch,
            "generation {generation}: exact epoch continuity across restarts"
        );
        total_truncations += recovery.truncated_bytes;
        total_rejected_snapshots += recovery.snapshots_rejected;

        // Normal life: a few effective batches (adds + removes).
        for _ in 0..3 {
            let add = &keys[next_key..next_key + 37];
            let drop_key = *expected.iter().next().unwrap();
            let epoch = store.apply(add, &[drop_key]);
            expected.extend(add.iter().copied());
            expected.remove(&drop_key);
            expected_epoch += 1;
            assert_eq!(epoch, expected_epoch);
            next_key += 37;
        }

        // The crash: arm the point, trigger the matching operation, treat
        // the Err as the process dying mid-syscall.
        store.inject_crash(Some(point));
        match point {
            CrashPoint::MidWalAppend => {
                let doomed = &keys[next_key..next_key + 5];
                next_key += 5;
                let err = store.try_apply(doomed, &[]).unwrap_err();
                assert_eq!(err.to_string(), "injected crash");
                // The write-ahead contract: the rejected batch never
                // reached memory either.
                assert_eq!(store.epoch(), expected_epoch);
                assert!(!store.contains(doomed[0]));
            }
            _ => {
                let err = store.compact_now().unwrap_err();
                assert_eq!(err.to_string(), "injected crash");
            }
        }
        let stats = server.shutdown();
        assert_eq!(
            stats.delta_fallbacks, 0,
            "generation {generation}: no forced resyncs"
        );
        drop(store);

        // Restart; the surviving pre-crash epoch cache must be served a
        // delta, and applying it must converge the client exactly.
        let (store, server, recovery) = open(true);
        assert_eq!(recovery.epoch, expected_epoch);
        if matches!(point, CrashPoint::MidWalAppend) {
            assert!(
                recovery.truncated_bytes > 0,
                "generation {generation}: the torn WAL tail must be truncated, not fatal"
            );
        }
        total_truncations += recovery.truncated_bytes;
        total_rejected_snapshots += recovery.snapshots_rejected;
        let client_vec: Vec<u64> = client.iter().copied().collect();
        let config = ClientConfig {
            delta_epoch: Some(cached_epoch),
            ..ClientConfig::default()
        };
        let report = sync(server.local_addr(), &client_vec, &config).expect("delta sync");
        assert!(
            !report.delta_fallback,
            "generation {generation}: cached epoch {cached_epoch} must still be covered"
        );
        let delta = report.delta.as_ref().expect("delta subscription granted");
        delta.apply_to(&mut client);
        cached_epoch = report.epoch.expect("new baseline");
        assert_eq!(cached_epoch, expected_epoch);
        assert_eq!(
            sorted(&client),
            sorted(&expected),
            "generation {generation}: delta replay converges to the recovered store"
        );
        let stats = server.shutdown();
        assert_eq!(stats.delta_fallbacks, 0);
        drop(store);
    }
    assert!(
        total_truncations > 0,
        "the MidWalAppend generations must have produced (and survived) torn tails"
    );
    assert!(
        total_rejected_snapshots > 0,
        "the TornSnapshot generations must have produced (and survived) corrupt snapshots"
    );
    std::fs::remove_dir_all(&root).unwrap();
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
        jitter_seed: seed(),
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

/// A final transfer the durable store refused (its write-ahead append
/// failed) is not acked as landed: the client sees the sync fail, no
/// counter claims the elements, and the same sync lands once the store is
/// reopened.
#[test]
fn a_transfer_the_store_refused_is_not_acked() {
    let root = tempdir("refused");
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(&root);
    let open = || {
        registry
            .open_store("", DurableOptions::default())
            .unwrap()
            .0
    };
    let store = open();
    store.apply(&(2..=100).collect::<Vec<u64>>(), &[]);
    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();
    let alice: Vec<u64> = (1..=99).collect();
    let config = ClientConfig {
        known_d: Some(4),
        ..ClientConfig::default()
    };

    store.inject_crash(Some(CrashPoint::MidWalAppend));
    match sync(addr, &alice, &config) {
        Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::Internal),
        other => panic!("expected the transfer to be refused, got {other:?}"),
    }
    assert!(!store.contains(1), "the batch was dropped");
    assert_eq!(server.stats().snapshot().elements_received, 0);

    // The crashed process is gone; its successor recovers the torn tail.
    drop(store);
    let store = open();
    let report = sync(addr, &alice, &config).expect("the retry lands");
    assert!(report.verified && report.pushed == [1]);
    assert!(store.contains(1) && store.contains(100));

    let stats = server.shutdown();
    assert_eq!(stats.elements_received, 1);
    assert_eq!((stats.sessions_failed, stats.sessions_completed), (1, 1));
    let per_store = registry.get("").unwrap().stats().snapshot();
    assert_eq!(
        (per_store.sessions_failed, per_store.sessions_completed),
        (1, 1)
    );
    std::fs::remove_dir_all(&root).unwrap();
}

/// Deterministic replay of a batch sequence: the expected (set, epoch)
/// ladder a recovery may land on.
fn build_states(batches: &[ChangeBatch]) -> Vec<HashSet<u64>> {
    let mut states = vec![HashSet::new()];
    for batch in batches {
        let mut next: HashSet<u64> = states.last().unwrap().clone();
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

/// Write `batches` as a fresh WAL in `dir`.
fn write_wal(dir: &std::path::Path, batches: &[ChangeBatch]) {
    let mut w = wal::Wal::open(
        dir,
        DurableOptions {
            snapshot_every: 0,
            ..DurableOptions::default()
        },
    )
    .unwrap();
    for b in batches {
        w.append(b.epoch, &b.added, &b.removed).unwrap();
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
        let bytes = wal::read_wal_bytes(&dir).unwrap();
        let cut = cut_pos % (bytes.len() + 1);
        wal::write_wal_bytes(&dir, &bytes[..cut]).unwrap();

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
        let mut bytes = wal::read_wal_bytes(&dir).unwrap();
        let pos = flip_pos % bytes.len();
        bytes[pos] ^= 1 << flip_bit;
        wal::write_wal_bytes(&dir, &bytes).unwrap();

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
        let bytes = wal::read_wal_bytes(&dir).unwrap();
        // Duplicate the last record verbatim (re-encode it alone to find
        // its byte length).
        let solo = tempdir("prop_dup_solo");
        write_wal(&solo, std::slice::from_ref(&batches[n - 1]));
        let record = wal::read_wal_bytes(&solo).unwrap();
        std::fs::remove_dir_all(&solo).unwrap();
        let mut doubled = bytes.clone();
        doubled.extend_from_slice(&record);
        wal::write_wal_bytes(&dir, &doubled).unwrap();

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
