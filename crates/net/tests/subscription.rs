//! Live push-subscription integration tests: clients park on the server's
//! streaming state and have store mutations pushed to them as they happen.
//!
//! Covered here:
//! * byte-exact push accounting against the store's changelog ledger
//!   (every pushed `DeltaBatch` is exactly the frame the chunking rule
//!   produces for the corresponding changelog batch);
//! * a 256-subscriber fan-out on a two-worker event loop, all receiving
//!   all 20 pushed mutation batches with exact byte accounting;
//! * backpressure: a push burst that exceeds the per-subscriber buffer
//!   evicts the subscriber with `FullResyncRequired` instead of buffering
//!   without bound;
//! * keepalive: an idle subscription outlives multiples of the liveness
//!   window because the server pings and the client pongs — and so does a
//!   busy one, pinged between its pushes;
//! * shutdown: `Server::shutdown` wakes and drains parked subscribers —
//!   their iterators end cleanly and no session leaks (the
//!   `started == completed + failed` invariant holds in every test).

use pbs_net::client::{DeltaReport, SyncClient};
use pbs_net::frame::{delta_batch_frames, delta_chunk_capacity, Frame, DEFAULT_MAX_FRAME};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, SetStore, StoreRegistry};
use pbs_net::NetError;
use std::collections::HashSet;
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

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
fn pushed_deltas_are_byte_exact_against_the_changelog() {
    let store = Arc::new(MutableStore::new(1..=100u64));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");

    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(store.epoch()).expect("subscribe");
    // The catch-up report on an unmutated store is empty but carries the
    // epoch baseline.
    let catch_up = sub.next().expect("catch-up").expect("catch-up ok");
    assert_eq!(catch_up.batches, 0);
    assert_eq!(catch_up.to_epoch, 0);
    let baseline_bytes = sub.bytes_received();
    let baseline_frames = sub.frames_received();

    // Five known mutation batches, mixing adds and removes.
    for b in 0..5u64 {
        let added: Vec<u64> = (0..10).map(|i| 10_000 + b * 100 + i).collect();
        let removed = vec![b * 7 + 1];
        store.apply(&added, &removed);
    }

    // Drain pushed reports until every batch arrived (the worker may
    // coalesce several changelog batches into one burst).
    let mut batches = 0u64;
    let mut reports = 0u64;
    let mut added = HashSet::new();
    let mut removed = HashSet::new();
    while batches < 5 {
        let report = sub.next().expect("live stream").expect("push ok");
        batches += report.batches;
        reports += 1;
        added.extend(report.added.iter().copied());
        removed.extend(report.removed.iter().copied());
    }
    assert_eq!(batches, 5);
    assert_eq!(sub.epoch(), 5, "epochs advance with the pushes");
    assert_eq!(added.len(), 50);
    assert_eq!(
        removed,
        (0..5u64).map(|b| b * 7 + 1).collect::<HashSet<_>>()
    );

    // Byte-exact accounting: what arrived is precisely the changelog's
    // batches under the wire chunking rule, plus one DeltaDone per burst.
    let (batch_bytes, batch_frames) = expected_push_bytes(&store, 0);
    let frames_delta = sub.frames_received() - baseline_frames;
    assert_eq!(frames_delta, batch_frames + reports);
    assert_eq!(
        sub.bytes_received() - baseline_bytes,
        batch_bytes + reports * delta_done_len(),
        "pushed bytes must match the changelog ledger exactly"
    );

    drop(sub);
    let stats = server.shutdown();
    assert_eq!(stats.subscriptions, 1);
    assert_eq!(stats.push_batches, batch_frames);
    assert_eq!(stats.subscribers_evicted, 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
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
fn slow_subscribers_are_evicted_with_full_resync() {
    let store = Arc::new(MutableStore::new(1..=10u64));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            // A buffer far smaller than one big push burst: the very first
            // oversized push must evict instead of queueing unboundedly.
            subscriber_buffer: 256,
            ..ServerConfig::default()
        },
    )
    .expect("bind");

    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(0).expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");

    // One batch whose frames alone exceed the 256-byte subscriber buffer.
    let big: Vec<u64> = (0..500u64).map(|i| 50_000 + i).collect();
    store.apply(&big, &[]);

    match sub.next() {
        Some(Err(NetError::Protocol(msg))) => {
            assert!(msg.contains("resync"), "unexpected eviction message: {msg}")
        }
        other => panic!("expected eviction error, got {other:?}"),
    }
    assert!(sub.next().is_none(), "the stream ends after the eviction");

    let stats = server.shutdown();
    assert_eq!(stats.subscribers_evicted, 1);
    assert_eq!(stats.push_batches, 0, "the oversized burst was never sent");
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
}

#[test]
fn idle_subscriptions_survive_on_keepalive() {
    let keepalive = Duration::from_millis(100);
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
    std::thread::sleep(keepalive * 8);
    store.apply(&[777], &[]);
    let (report, sub) = reader.join().expect("reader thread");
    assert_eq!(report.added, vec![777]);
    drop(sub);

    let stats = server.shutdown();
    assert!(
        stats.keepalive_pings >= 2,
        "server pinged {} times across an 8x-keepalive idle window",
        stats.keepalive_pings
    );
    assert_eq!(stats.subscribers_evicted, 0);
    assert_eq!(stats.sessions_failed, 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
}

/// The other half of keepalive: a subscriber that is pushed to more often
/// than the interval is still asked (a push says nothing about the peer),
/// so it answers and outlives the 3× liveness cut. (It used to be cut: the
/// ping's idle window restarted on every send.)
#[test]
fn busy_subscriptions_are_pinged_between_pushes() {
    let keepalive = Duration::from_millis(100);
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

    // A push every quarter interval, across six intervals.
    const BATCHES: u64 = 24;
    let writer = {
        let store = Arc::clone(&store);
        std::thread::spawn(move || {
            for i in 0..BATCHES {
                store.apply(&[1_000 + i], &[]);
                std::thread::sleep(keepalive / 4);
            }
        })
    };
    let mut batches = 0;
    while batches < BATCHES {
        let report = sub.next().expect("still live").expect("push ok");
        batches += report.batches;
    }
    writer.join().expect("writer");
    drop(sub);

    let stats = server.shutdown();
    assert!(
        stats.keepalive_pings >= 2,
        "{} pings",
        stats.keepalive_pings
    );
    assert_eq!(stats.subscribers_evicted, 0);
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

    // Block a reader in next() with nothing to push; shutdown must cut it
    // loose instead of waiting out a timeout.
    let reader = std::thread::spawn(move || {
        let tail: Vec<Result<DeltaReport, NetError>> = sub.collect();
        tail.len()
    });
    std::thread::sleep(Duration::from_millis(100));
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

#[test]
fn epoch_less_stores_refuse_subscriptions_cleanly() {
    let store = Arc::new(Epochless(Mutex::new((1..=10).collect())));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");

    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    match client.subscribe(0) {
        Err(NetError::Protocol(msg)) => assert!(msg.contains("full sync"), "{msg}"),
        other => panic!("expected refusal, got {other:?}"),
    }

    let stats = server.shutdown();
    assert_eq!(stats.subscriptions, 0);
    assert_eq!(
        stats.sessions_started,
        stats.sessions_completed + stats.sessions_failed
    );
}
