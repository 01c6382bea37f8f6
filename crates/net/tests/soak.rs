//! Delta-subscription soak and byte-accounting tests.
//!
//! The delta path exists to make a returning client's re-sync cost
//! O(|changes|) instead of O(d) reconciliation rounds over the full set.
//! These tests pin that claim against the transcript ledger (measured
//! frame encodings, never wall time): a delta sync's wire bytes must equal
//! its own frame-by-frame prediction exactly, stay a small fraction of the
//! full reconciliation it replaces, and keep converging under concurrent
//! server-side mutation — with the trimmed-changelog path falling back to
//! a classic session that re-establishes the epoch baseline.

use pbs_core::PbsConfig;
use pbs_net::client::{sync, ClientConfig};
use pbs_net::frame::{
    delta_batch_frames, delta_chunk_capacity, Frame, Hello, DEFAULT_MAX_FRAME, FRAME_OVERHEAD,
};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, SetStore};
use protocol::{Direction, Transcript};
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

/// A store that keeps no epochs: [`SetStore`] with its defaults, what an
/// out-of-tree store is. The tree's own store overrides them all.
struct Epochless(Mutex<Vec<u64>>);

impl SetStore for Epochless {
    fn snapshot(&self) -> Vec<u64> {
        self.0.lock().unwrap().clone()
    }

    fn apply_missing(&self, elements: &[u64]) -> bool {
        self.0.lock().unwrap().extend_from_slice(elements);
        true
    }
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

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Predict the exact wire bytes of a delta sync: both `Hello` frames (the
/// negotiated reply echoes the request byte for byte at depth-1 requests),
/// the chunked `DeltaBatch` stream for the given changelog tail, and the
/// closing `DeltaDone` — each framed at [`FRAME_OVERHEAD`]. Returns the
/// transcript (labels `hello` / `delta-batch` / `delta-done`) and the
/// frame count.
fn predict_delta_sync(
    cfg: &PbsConfig,
    seed: u64,
    since: u64,
    batches: &[pbs_net::store::ChangeBatch],
    to_epoch: u64,
) -> (Transcript, u64) {
    let mut transcript = Transcript::new();
    let mut frames = 0u64;
    let mut record = |t: &mut Transcript, dir, label, frame: &Frame| {
        let body = frame.encode_body().len() as u64;
        t.send_encoded(dir, label, body * 8, body);
        frames += 1;
    };
    let hello = Frame::Hello(Hello::from_config(cfg, seed, 0).with_delta_epoch(since));
    record(&mut transcript, Direction::AliceToBob, "hello", &hello);
    record(&mut transcript, Direction::BobToAlice, "hello", &hello);
    let capacity = delta_chunk_capacity(DEFAULT_MAX_FRAME);
    for batch in batches {
        for frame in delta_batch_frames(batch.epoch, &batch.added, &batch.removed, capacity) {
            record(
                &mut transcript,
                Direction::BobToAlice,
                "delta-batch",
                &frame,
            );
        }
    }
    record(
        &mut transcript,
        Direction::BobToAlice,
        "delta-done",
        &Frame::DeltaDone { epoch: to_epoch },
    );
    (transcript, frames)
}

/// Acceptance: a delta sync of a 100k-element store with 50 changes since
/// the client's epoch ships a small fraction of a full d=50 reconciliation
/// on the same seed, with the wire bytes matching the transcript ledger's
/// frame-by-frame prediction exactly.
///
/// On the ratio: the measured comparator on this seed is 1079 B (the
/// handshake plus ToW estimator bank plus sketch/report rounds plus final
/// transfer — 2835 B before wire v5 packed them); the delta session is
/// 377 B total, of which 243 B is the actual delta stream: 35% and 23%.
/// That is floor territory, not an implementation gap: the 50 changed
/// elements carry 50 × 4 B of raw identity in a 32-bit universe and both
/// protocols pay the same ~150 B handshake, so no encoding of this
/// scenario can reach the issue's nominal "< 5%" against a ~1 KB
/// comparator (the target is met with room to spare as soon as the
/// comparator's d grows: at d = 1000 the same stream is ~2%). The
/// assertions pin the deterministic achievable form: session under 2/5ths,
/// stream under 1/3rd of the comparator — and, because the comparator
/// shrinking is what loosened those from 1/6 and 1/10, the delta session's
/// own bytes absolutely.
#[test]
fn delta_sync_of_100k_store_beats_full_reconciliation_bytes() {
    let changes = 50usize;
    let pool = distinct_keys(100_000 + changes / 2, 0xDE17A5EED);
    let baseline: Vec<u64> = pool[..100_000].to_vec();
    let added: Vec<u64> = pool[100_000..].to_vec();
    let removed: Vec<u64> = baseline[..changes - added.len()].to_vec();
    let seed = 0xDE17Au64;

    // The comparator: the same client state syncing the same 50-element
    // difference the classic way (no epoch cache), same seed.
    let mutated: HashSet<u64> = baseline
        .iter()
        .copied()
        .filter(|e| !removed.contains(e))
        .chain(added.iter().copied())
        .collect();
    let full_store = Arc::new(MutableStore::new(mutated.iter().copied()));
    let full_server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&full_store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let full = sync(
        full_server.local_addr(),
        &baseline,
        &ClientConfig {
            seed,
            ..ClientConfig::default()
        },
    )
    .expect("full reconciliation");
    full_server.shutdown();
    assert!(full.verified);
    assert_eq!(full.recovered.len(), changes, "comparator difference");
    let full_bytes = full.bytes_sent + full.bytes_received;

    // The delta path: a store that mutated by the same 50 elements since
    // the client's epoch-0 baseline.
    let store = Arc::new(MutableStore::new(baseline.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    assert_eq!(store.apply(&added, &removed), 1);

    let config = ClientConfig {
        seed,
        delta_epoch: Some(0),
        ..ClientConfig::default()
    };
    let report = sync(server.local_addr(), &baseline, &config).expect("delta sync");
    assert!(report.verified);
    assert!(!report.delta_fallback);
    assert_eq!(report.epoch, Some(1));
    assert_eq!(report.rounds, 0, "no reconciliation round ran");
    let delta = report.delta.as_ref().expect("delta served");
    assert_eq!(delta.from_epoch, 0);
    assert_eq!(delta.to_epoch, 1);
    assert_eq!(sorted(delta.added.clone()), sorted(added.clone()));
    assert_eq!(sorted(delta.removed.clone()), sorted(removed.clone()));

    // Applying the delta reproduces the server's set exactly.
    let mut local: HashSet<u64> = baseline.iter().copied().collect();
    delta.apply_to(&mut local);
    assert_eq!(local, mutated);

    // Exact byte accounting against the transcript ledger.
    let batches = store.changes_since(0).expect("changelog intact");
    let (predicted, frames) = predict_delta_sync(&config.pbs, seed, 0, &batches, 1);
    let wire_total = report.bytes_sent + report.bytes_received;
    assert_eq!(report.frames_sent + report.frames_received, frames);
    assert_eq!(
        wire_total,
        predicted.wire_bytes_total() + FRAME_OVERHEAD * frames,
        "delta wire bytes diverged from the frame-by-frame prediction"
    );
    // The stream is O(|changes|): one packed chunk plus the DeltaDone.
    let stream_bytes = predicted.wire_bytes_for_label("delta-batch")
        + predicted.wire_bytes_for_label("delta-done");
    assert!(
        stream_bytes <= 64 + 8 * changes as u64,
        "stream of {stream_bytes} B not O(|changes|)"
    );

    // The delta session on its own: two Hellos, one batch, the DeltaDone.
    assert!(wire_total <= 377, "delta session grew to {wire_total} B");
    assert!(
        stream_bytes + 2 * FRAME_OVERHEAD <= 243,
        "delta stream grew to {stream_bytes} B plus framing"
    );
    // The ratios (see the doc comment for why 2/5 and 1/3 are the honest
    // achievable pins of the issue's "small fraction" target here).
    assert!(
        wire_total * 5 < full_bytes * 2,
        "delta session {wire_total} B not under 2/5 of the {full_bytes} B full reconciliation"
    );
    assert!(
        (stream_bytes + 2 * FRAME_OVERHEAD) * 3 < full_bytes,
        "delta stream {stream_bytes} B not under 1/3 of the full reconciliation"
    );

    // Server-side stats agree: one delta session, no reconciliation.
    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.delta_sessions, 1);
    assert_eq!(stats.delta_fallbacks, 0);
    assert_eq!(stats.delta_elements, changes as u64);
    assert_eq!(stats.rounds, 0);
    assert_eq!(stats.estimator_exchanges, 0);
}

/// Acceptance: a session whose epoch the changelog no longer covers falls
/// back to the classic reconciliation, succeeds, and re-establishes a
/// servable epoch baseline.
#[test]
fn trimmed_changelog_falls_back_to_full_reconciliation() {
    let pool = distinct_keys(5_000, 0x721133D);
    let baseline: Vec<u64> = pool[..4_960].to_vec();
    // Capacity 1: only the newest batch survives, so an epoch-0 client is
    // always behind the log.
    let store = Arc::new(MutableStore::with_log_capacity(baseline.iter().copied(), 1));
    store.apply(&pool[4_960..4_980], &[]);
    store.apply(&pool[4_980..], &[]);
    assert!(store.changes_since(0).is_none(), "log must be trimmed");

    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let config = ClientConfig {
        seed: 42,
        delta_epoch: Some(0),
        ..ClientConfig::default()
    };
    let report = sync(server.local_addr(), &baseline, &config).expect("fallback sync");
    assert!(report.verified);
    assert!(report.delta_fallback, "must have fallen back");
    assert!(report.delta.is_none());
    assert_eq!(
        sorted(report.recovered.clone()),
        sorted(pool[4_960..].to_vec())
    );
    // The classic session's ack re-established the baseline: the epoch of
    // the snapshot it reconciled against.
    assert_eq!(report.epoch, Some(2));

    // From that baseline, the next sync is an (empty) delta again.
    let report2 = sync(
        server.local_addr(),
        &pool,
        &ClientConfig {
            seed: 43,
            delta_epoch: Some(report.epoch.expect("baseline epoch")),
            ..ClientConfig::default()
        },
    )
    .expect("resumed delta sync");
    let delta = report2.delta.expect("delta served after re-baseline");
    assert_eq!(delta.batches, 0);
    assert!(delta.added.is_empty() && delta.removed.is_empty());

    let stats = server.shutdown();
    assert_eq!(stats.delta_fallbacks, 1);
    assert_eq!(stats.delta_sessions, 1);
    assert_eq!(stats.sessions_completed, 2);
}

/// A delta request against a store with no changelog at all (an
/// out-of-tree [`SetStore`] on the trait's defaults) is answered with
/// `FullResyncRequired` and completes as a classic session, acked with an
/// empty `Done`: no epoch baseline.
#[test]
fn epochless_stores_demand_full_resync() {
    let pool = distinct_keys(2_000, 0xE9_0C4);
    let store = Arc::new(Epochless(Mutex::new(pool[..1_990].to_vec())));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let report = sync(
        server.local_addr(),
        &pool,
        &ClientConfig {
            seed: 7,
            known_d: Some(10),
            delta_epoch: Some(123),
            ..ClientConfig::default()
        },
    )
    .expect("fallback sync");
    assert!(report.verified);
    assert!(report.delta_fallback);
    assert_eq!(report.epoch, None, "epoch-less stores grant no baseline");
    assert_eq!(store.snapshot().len(), 2_000, "the transfer was ingested");
    let stats = server.shutdown();
    assert_eq!(stats.delta_fallbacks, 1);
    assert_eq!(stats.delta_sessions, 0);
}

/// Soak: repeated delta syncs under concurrent `--watch-dir`-style
/// mutation converge to the live store, every sync's wire bytes matching
/// the ledger prediction for exactly the change batches it was served —
/// transferred delta bytes stay O(|changes|) by construction, asserted
/// against measured encodings rather than wall time.
#[test]
fn repeated_delta_syncs_track_a_concurrently_mutating_store() {
    let pool = distinct_keys(30_000, 0x50AC_50AC);
    let initial: Vec<u64> = pool[..20_000].to_vec();
    let store = Arc::new(MutableStore::new(initial.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let addr = server.local_addr();

    // The mutator: 40 epoch batches, each inserting 16 fresh elements and
    // removing 8 current ones — the shape `pbs-syncd --watch-dir` produces
    // when a watched file keeps changing.
    let mutator = {
        let store = Arc::clone(&store);
        let fresh: Vec<u64> = pool[20_000..].to_vec();
        std::thread::spawn(move || {
            for i in 0..40usize {
                let adds = &fresh[i * 16..(i + 1) * 16];
                let snapshot = store.snapshot();
                let removes: Vec<u64> = snapshot.iter().copied().take(8).collect();
                store.apply(adds, &removes);
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        })
    };

    // The subscriber: bootstrap from a snapshot, then follow by delta.
    let (boot, mut epoch) = store.snapshot_with_epoch();
    let mut local: HashSet<u64> = boot.into_iter().collect();
    let mut syncs = 0u64;
    let mut done_mutating = false;
    loop {
        if mutator.is_finished() {
            // One final sync after the last mutation is in the store.
            done_mutating = true;
        }
        let config = ClientConfig {
            seed: 0x50AC + syncs,
            delta_epoch: Some(epoch),
            ..ClientConfig::default()
        };
        let report = sync(addr, &[1], &config).expect("delta sync");
        let delta = report.delta.expect("changelog capacity is never exceeded");
        assert_eq!(delta.from_epoch, epoch);

        // Byte accounting: this sync must have been served exactly the
        // changelog batches in (from_epoch, to_epoch].
        let served: Vec<pbs_net::store::ChangeBatch> = store
            .changes_since(epoch)
            .expect("log intact")
            .into_iter()
            .filter(|b| b.epoch <= delta.to_epoch)
            .collect();
        let (predicted, frames) =
            predict_delta_sync(&config.pbs, config.seed, epoch, &served, delta.to_epoch);
        assert_eq!(report.frames_sent + report.frames_received, frames);
        assert_eq!(
            report.bytes_sent + report.bytes_received,
            predicted.wire_bytes_total() + FRAME_OVERHEAD * frames,
            "sync {syncs}: wire bytes diverged from the served batches"
        );

        delta.apply_to(&mut local);
        epoch = delta.to_epoch;
        syncs += 1;
        if done_mutating {
            break;
        }
    }
    mutator.join().expect("mutator");

    // The subscriber converged on the live store.
    let (now, now_epoch) = store.snapshot_with_epoch();
    assert_eq!(now_epoch, epoch, "final sync reached the head epoch");
    assert_eq!(sorted(now), sorted(local.into_iter().collect()));
    assert_eq!(store.len(), 20_000 + 40 * 16 - 40 * 8);

    let stats = server.shutdown();
    assert_eq!(stats.delta_sessions, syncs);
    assert_eq!(stats.sessions_completed, syncs);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(stats.rounds, 0, "no reconciliation ever ran");
}
