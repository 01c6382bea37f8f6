//! Live push subscriptions over real sockets: what needs the event loop's
//! worker and clock. (What a push carries — every changelog batch, in
//! epoch order, coalesced or not, an eviction past the buffer cap — is
//! the deterministic simulator's, in
//! `src/sim.rs`: a subscriber must hold the store's set at every epoch it
//! is pushed.)
//!
//! * a 256-subscriber fan-out on a two-worker event loop, all receiving
//!   all 20 pushed mutation batches with exact byte accounting — the
//!   worker wake path;
//! * keepalive: an idle subscription outlives multiples of the liveness
//!   window because the loop wakes for the timer and writes the `Ping`, and
//!   the client pongs (the timer policy itself — a busy subscriber pinged
//!   between pushes, the liveness cut only for a silent or stalled one — is
//!   the simulator's, on its virtual clock);
//! * shutdown: `Server::shutdown` wakes and drains parked subscribers —
//!   their iterators end cleanly and no session leaks (the
//!   `started == completed + failed` invariant holds in every test).

use pbs_net::client::{DeltaReport, SyncClient};
use pbs_net::frame::{delta_batch_frames, delta_chunk_capacity, Frame, DEFAULT_MAX_FRAME};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
use pbs_net::NetError;
use std::collections::HashSet;
use std::sync::{Arc, Barrier};
use std::time::Duration;

/// The wire bytes the server must push for the changelog batches since
/// `epoch`: one `DeltaBatch` frame per chunk, computed with the same
/// chunking rule the server uses.
fn expected_push_bytes(store: &MutableStore, epoch: u64) -> (u64, u64) {
    let capacity = delta_chunk_capacity(DEFAULT_MAX_FRAME);
    let mut bytes = 0u64;
    let mut frames = 0u64;
    for batch in store.changes_since(epoch).expect("changelog intact") {
        for frame in delta_batch_frames(batch.epoch, &batch.added, &batch.removed, capacity) {
            bytes += frame.wire_len();
            frames += 1;
        }
    }
    (bytes, frames)
}

fn delta_done_len() -> u64 {
    Frame::DeltaDone { epoch: 0 }.wire_len()
}

#[test]
fn fan_out_256_subscribers_all_receive_every_batch() {
    const SUBSCRIBERS: usize = 256;
    const BATCHES: u64 = 20;
    const PER_BATCH: u64 = 10;

    let store = Arc::new(MutableStore::new(1..=50u64));
    let registry = Arc::new(StoreRegistry::new());
    registry.register("", Arc::clone(&store) as Arc<_>);
    let server = Server::bind_registry(
        "127.0.0.1:0",
        registry,
        ServerConfig {
            workers: 2,
            // Keep keepalive pings out of the byte accounting.
            keepalive: Duration::from_secs(60),
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let barrier = Arc::new(Barrier::new(SUBSCRIBERS + 1));
    let handles: Vec<_> = (0..SUBSCRIBERS)
        .map(|i| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                // Stagger the connect storm a little so the accept backlog
                // never overflows.
                std::thread::sleep(Duration::from_millis(i as u64 % 32));
                let client = SyncClient::connect(addr).expect("resolve");
                let mut sub = client.subscribe(0).expect("subscribe");
                let catch_up = sub.next().expect("catch-up").expect("catch-up ok");
                assert_eq!(catch_up.batches, 0, "subscribed before any mutation");
                let baseline_bytes = sub.bytes_received();
                let baseline_frames = sub.frames_received();
                barrier.wait();

                let mut batches = 0u64;
                let mut reports = 0u64;
                let mut added = HashSet::new();
                while batches < BATCHES {
                    let report = sub.next().expect("live stream").expect("push ok");
                    batches += report.batches;
                    reports += 1;
                    added.extend(report.added.iter().copied());
                }
                (
                    batches,
                    reports,
                    sub.bytes_received() - baseline_bytes,
                    sub.frames_received() - baseline_frames,
                    added,
                )
            })
        })
        .collect();

    barrier.wait();
    let mut expected_added = HashSet::new();
    for b in 0..BATCHES {
        let added: Vec<u64> = (0..PER_BATCH).map(|i| 100_000 + b * 1_000 + i).collect();
        expected_added.extend(added.iter().copied());
        store.apply(&added, &[]);
    }

    let (batch_bytes, batch_frames) = expected_push_bytes(&store, 0);
    assert_eq!(batch_frames, BATCHES, "one frame per small changelog batch");
    for handle in handles {
        let (batches, reports, bytes, frames, added) = handle.join().expect("subscriber thread");
        assert_eq!(batches, BATCHES);
        assert_eq!(added, expected_added);
        // Exact byte accounting per subscriber: the batch frames are
        // byte-identical for everyone; only the number of DeltaDone
        // burst terminators varies with coalescing.
        assert_eq!(frames, batch_frames + reports);
        assert_eq!(bytes, batch_bytes + reports * delta_done_len());
    }

    let stats = server.shutdown();
    assert_eq!(stats.subscriptions, SUBSCRIBERS as u64);
    assert_eq!(stats.push_batches, BATCHES * SUBSCRIBERS as u64);
    assert_eq!(
        stats.push_elements,
        BATCHES * PER_BATCH * SUBSCRIBERS as u64
    );
    assert_eq!(stats.subscribers_evicted, 0);
    assert_eq!(stats.keepalive_pings, 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed,
        "a session vanished — a worker must have leaked"
    );
    assert!(stats.sessions_completed >= SUBSCRIBERS as u64);
}

#[test]
fn idle_subscriptions_survive_on_keepalive() {
    let keepalive = Duration::from_millis(30);
    let store = Arc::new(MutableStore::new(1..=10u64));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            keepalive,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(0).expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");

    // Park the subscriber in next() across many keepalive windows (and
    // well past the 3x liveness cut): the server must ping, the client
    // must pong, and the session must still be alive for the push.
    let reader = std::thread::spawn(move || {
        let report = sub.next().expect("pushed after idle").expect("push ok");
        (report, sub)
    });
    std::thread::sleep(keepalive * 7);
    store.apply(&[777], &[]);
    let (report, sub) = reader.join().expect("reader thread");
    assert_eq!(report.added, vec![777]);
    drop(sub);

    let stats = server.shutdown();
    assert!(
        stats.keepalive_pings >= 2,
        "server pinged {} times across a 7x-keepalive idle window",
        stats.keepalive_pings
    );
    assert_eq!(stats.subscribers_evicted, 0);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
}

#[test]
fn shutdown_wakes_and_drains_streaming_sessions() {
    let store = Arc::new(MutableStore::new(1..=10u64));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");

    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(0).expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");
    // One push read: the session is provably streaming, not still
    // catching up.
    store.apply(&[777], &[]);
    let pushed = sub.next().expect("push").expect("push ok");
    assert_eq!(pushed.added, vec![777]);

    // A reader in next() with nothing more to push; shutdown must cut it
    // loose instead of waiting out a timeout.
    let reader = std::thread::spawn(move || {
        let tail: Vec<Result<DeltaReport, NetError>> = sub.collect();
        tail.len()
    });
    let stats = server.shutdown();

    assert_eq!(
        reader.join().expect("reader thread"),
        0,
        "clean end, no error"
    );
    assert_eq!(stats.sessions_failed, 0, "a drained subscriber completed");
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
}
