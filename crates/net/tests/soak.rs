//! The delta path's socket smoke test and byte accounting.
//!
//! The delta path exists to make a returning client's re-sync cost
//! O(|changes|) instead of O(d) reconciliation rounds over the full set.
//! This test pins that claim against the transcript ledger (measured frame
//! encodings, never wall time): a delta sync's wire bytes must equal its
//! own frame-by-frame prediction exactly and stay a small fraction of the
//! full reconciliation it replaces. What the delta path does under
//! concurrent writes, a trimmed changelog or an epoch-less store is the
//! deterministic simulator's (`src/sim.rs`): every delta it serves must lead
//! from the set at its first epoch to the set at its last.

use pbs_core::PbsConfig;
use pbs_net::client::{sync, ClientConfig};
use pbs_net::frame::{
    delta_batch_frames, delta_chunk_capacity, Frame, Hello, DEFAULT_MAX_FRAME, FRAME_OVERHEAD,
};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::MutableStore;
use protocol::{Direction, Transcript};
use std::collections::HashSet;
use std::sync::Arc;

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
