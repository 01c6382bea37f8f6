//! Loopback integration: what needs the server's worker pool and its
//! store registry over real TCP sockets — concurrent clients sharing the
//! workers, and two named stores served at once.
//!
//! That a socket session is the inline session byte for byte (d ∈ {10,
//! 100, 1000} at |B| = 10⁵, a delta catch-up, a set-up held off the loop)
//! is pinned in `src/event_loop.rs`'s tests, against `Duet`, which is not
//! visible from here; what the protocol refuses, what pipelining buys and
//! what the rounds cost against Formula (1) are tested without a socket
//! (`Duet`, in `src/machine.rs`, `src/server_machine.rs` and
//! `src/conn.rs`).

use pbs_net::client::{sync, ClientConfig, Pipeline};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
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

/// Split a pool into Alice's and Bob's sets with a two-sided difference of
/// `d` elements (`⌈d/2⌉` exclusive to Alice, `⌊d/2⌋` exclusive to Bob).
fn two_sided_pair(pool: &[u64], d: usize) -> (Vec<u64>, Vec<u64>) {
    let only_alice = d.div_ceil(2);
    let only_bob = d / 2;
    let alice = pool[..pool.len() - only_bob].to_vec();
    let bob = pool[only_alice..].to_vec();
    (alice, bob)
}

#[test]
fn concurrent_clients_share_the_worker_pool() {
    let pool = distinct_keys(3_000, 0xCAFE);
    let (alice_set, bob_set) = two_sided_pair(&pool, 20);
    let store = Arc::new(MutableStore::new(bob_set.iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();
    let handles: Vec<_> = (0..4u64)
        .map(|i| {
            let set = alice_set.clone();
            std::thread::spawn(move || {
                let config = ClientConfig {
                    seed: 100 + i,
                    known_d: Some(20),
                    ..ClientConfig::default()
                };
                sync(addr, &set, &config).expect("concurrent sync")
            })
        })
        .collect();
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert!(report.verified);
        // A session that snapshots the store *after* another client's final
        // transfer landed sees only Bob's exclusive elements (A ∪ B is
        // already converging), so the recovered difference is 20 or 10.
        assert!(
            report.recovered.len() == 20 || report.recovered.len() == 10,
            "unexpected |A△B| = {}",
            report.recovered.len()
        );
    }
    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 4);
    assert_eq!(stats.sessions_failed, 0);
    // Every client pushed A \ B; the store holds the full union.
    assert_eq!(store.len(), 3_000);
}

#[test]
fn two_named_stores_sync_concurrently_through_one_server() {
    // One server, two named stores plus a default store; two clients per
    // named store reconcile concurrently. Each store must converge on its
    // own union and count its own sessions.
    let pool_a = distinct_keys(4_000, 0xA11A);
    let pool_b = distinct_keys(4_000, 0xB22B);
    let (alice_a, bob_a) = two_sided_pair(&pool_a, 30);
    let (alice_b, bob_b) = two_sided_pair(&pool_b, 50);

    let registry = Arc::new(StoreRegistry::new());
    registry.register("", Arc::new(MutableStore::new(1..=10u64)));
    let store_a = Arc::new(MutableStore::new(bob_a.iter().copied()));
    let store_b = Arc::new(MutableStore::new(bob_b.iter().copied()));
    registry.register("alpha", Arc::clone(&store_a) as Arc<_>);
    registry.register("beta", Arc::clone(&store_b) as Arc<_>);

    let server = Server::bind_registry(
        "127.0.0.1:0",
        Arc::clone(&registry),
        ServerConfig {
            workers: 3,
            ..ServerConfig::default()
        },
    )
    .expect("bind");
    let addr = server.local_addr();

    let spawn = |store: &str, set: Vec<u64>, d: u64, seed: u64| {
        let store = store.to_string();
        std::thread::spawn(move || {
            let config = ClientConfig {
                store,
                known_d: Some(d),
                seed,
                pipeline: Pipeline::Depth(2),
                ..ClientConfig::default()
            };
            sync(addr, &set, &config).expect("store sync")
        })
    };
    let handles = vec![
        spawn("alpha", alice_a.clone(), 30, 1),
        spawn("beta", alice_b.clone(), 50, 2),
        spawn("alpha", alice_a.clone(), 30, 3),
        spawn("beta", alice_b.clone(), 50, 4),
    ];
    for handle in handles {
        let report = handle.join().expect("client thread");
        assert!(report.verified);
    }

    // Each store converged on its own union; the default store is untouched.
    assert_eq!(store_a.len(), 4_000);
    assert_eq!(store_b.len(), 4_000);
    assert!(pool_a[..15].iter().all(|&e| store_a.contains(e)));
    assert!(pool_b[..25].iter().all(|&e| store_b.contains(e)));

    // Per-store stats add up to the server-wide stats. Shut down first:
    // joining the workers guarantees every session's counters are folded.
    let total = server.shutdown();
    let alpha = registry.get("alpha").unwrap().stats().snapshot();
    let beta = registry.get("beta").unwrap().stats().snapshot();
    let default = registry.get("").unwrap().stats().snapshot();
    assert_eq!(alpha.sessions_started, 2);
    assert_eq!(alpha.sessions_completed, 2);
    assert_eq!(beta.sessions_started, 2);
    assert_eq!(beta.sessions_completed, 2);
    assert_eq!(default.sessions_started, 0);
    assert!(alpha.elements_received >= 15);
    assert!(beta.elements_received >= 25);
    assert_eq!(total.sessions_completed, 4);
    assert_eq!(
        total.rounds,
        alpha.rounds + beta.rounds + default.rounds,
        "global rounds are the sum of the per-store rounds"
    );
    assert_eq!(
        total.bytes_in,
        alpha.bytes_in + beta.bytes_in + default.bytes_in
    );
}
