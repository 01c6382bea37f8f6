//! Anti-entropy mesh soak: a small ring of `pbs-syncd`-shaped nodes —
//! every link routed through a fault-injection proxy — converges to an
//! identical store on every node despite a partition, concurrent writes
//! on both sides of it, and a kill/restart of a durable node mid-soak.
//!
//! The soak drives [`pbs_net::mesh::anti_entropy_round`] synchronously
//! (the same unit the `pbs-syncd --anti-entropy` background driver loops
//! on) so the schedule is deterministic given the seed; the writer thread
//! is the only concurrency, and it stops before the final convergence
//! sweeps. Asserted along the way:
//!
//! * **Convergence**: after the faults heal, every node's `(set, epoch)`
//!   store snapshot is element-identical, and equals exactly the union of
//!   the initial sets and every write the soak made — nothing lost,
//!   nothing invented.
//! * **Durability**: the killed node recovers its pre-kill elements from
//!   its WAL (PR 6) and rejoins the mesh through a repointed proxy.
//! * **Exact byte accounting**: every proxy's relay ledger conserves
//!   bytes (`received == forwarded + discarded`, both directions), and on
//!   the fault-free control link the mesh's own per-peer byte counters
//!   equal what the proxy forwarded, byte for byte.
//! * **Delta continuity**: an epoch a client cached *mid-soak* against a
//!   surviving node still delta-syncs after the soak — no
//!   `FullResyncRequired` fallback — because anti-entropy applies
//!   remote differences as ordinary epoch-advancing batches.
//!
//! `MESH_SOAK_SEED` pins the seed (CI does); default is a fixed constant,
//! so the soak is reproducible either way.

use loadgen::FaultProxy;
use pbs_net::client::{sync, ClientConfig};
use pbs_net::mesh::{anti_entropy_round, MeshStats};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
use pbs_net::wal::DurableOptions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Nodes in the ring. Node `NODES-1` is durable (WAL-backed) and is the
/// one killed and restarted mid-soak.
const NODES: usize = 4;
/// Writer iterations; each writes one element to every in-memory node.
const WRITER_ITERATIONS: usize = 30;

fn soak_seed() -> u64 {
    std::env::var("MESH_SOAK_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0x5EED_50AC)
}

fn bind_node(registry: &Arc<StoreRegistry>) -> Server {
    Server::bind_registry("127.0.0.1:0", Arc::clone(registry), ServerConfig::default())
        .expect("bind mesh node")
}

fn node_snapshot(registry: &StoreRegistry) -> Vec<u64> {
    let entry = registry.get("").expect("default store");
    let (mut set, _epoch) = entry.store().epoch_snapshot();
    set.sort_unstable();
    set
}

/// One full sweep: every node reconciles against its ring successor
/// through that link's proxy. Returns how many pairwise syncs failed.
fn sweep(
    registries: &[Arc<StoreRegistry>],
    peers: &[String],
    stats: &[Arc<MeshStats>],
    config: &ClientConfig,
) -> usize {
    let mut failed = 0;
    for i in 0..registries.len() {
        let peer_stats = stats[i].peer(&peers[i]).expect("peer registered");
        let (outcome, _err) = anti_entropy_round(&registries[i], &peers[i], config, peer_stats);
        failed += outcome.failed;
    }
    failed
}

#[test]
fn mesh_converges_under_partition_churn_and_restart() {
    let seed = soak_seed();
    eprintln!("mesh_soak: seed {seed:#x} ({NODES} nodes)");
    let mut rng = StdRng::seed_from_u64(seed);
    let durable_dir = std::env::temp_dir().join(format!("pbs-mesh-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&durable_dir);
    std::fs::create_dir_all(&durable_dir).expect("create soak dir");

    // Every element the soak ever introduces: the convergence target.
    let expected = Arc::new(Mutex::new(HashSet::new()));

    // ---- Nodes: NODES-1 in-memory stores + one durable tail node ----
    // Shared base plus a unique wedge per node, so the first sweeps have
    // real differences to reconcile in both directions.
    let base: Vec<u64> = (1..=64).collect();
    expected.lock().unwrap().extend(base.iter().copied());
    let mut registries: Vec<Arc<StoreRegistry>> = Vec::new();
    let mut mutable_stores: Vec<Arc<MutableStore>> = Vec::new();
    for i in 0..NODES - 1 {
        let wedge: Vec<u64> = (0..20).map(|k| 1_000 * (i as u64 + 1) + k).collect();
        expected.lock().unwrap().extend(wedge.iter().copied());
        let store = Arc::new(MutableStore::new(base.iter().chain(&wedge).copied()));
        mutable_stores.push(Arc::clone(&store));
        let registry = Arc::new(StoreRegistry::new());
        registry.register("", store as Arc<_>);
        registries.push(registry);
    }
    let durable = NODES - 1;
    let durable_wedge: Vec<u64> = (0..20).map(|k| 1_000 * (durable as u64 + 1) + k).collect();
    expected
        .lock()
        .unwrap()
        .extend(durable_wedge.iter().copied());
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(&durable_dir);
    let (durable_store, _recovery) = registry
        .open_store("", DurableOptions::default())
        .expect("open durable store");
    durable_store.apply(&base, &[]);
    durable_store.apply(&durable_wedge, &[]);
    registries.push(registry);

    let mut servers: Vec<Server> = registries.iter().map(bind_node).collect();

    // ---- Links: a ring, every link through its own fault proxy ----
    // proxies[i] relays node i's syncs to node (i+1) % NODES.
    // proxies[0] (0 → 1) is the fault-free control link: nothing is ever
    // injected on it, so its ledger must match the mesh counters exactly.
    let proxies: Vec<FaultProxy> = (0..NODES)
        .map(|i| FaultProxy::spawn(servers[(i + 1) % NODES].local_addr()).expect("spawn proxy"))
        .collect();
    let peers: Vec<String> = proxies.iter().map(|p| p.addr().to_string()).collect();
    let stats: Vec<Arc<MeshStats>> = peers
        .iter()
        .map(|p| Arc::new(MeshStats::new(std::slice::from_ref(p))))
        .collect();
    let config = ClientConfig::default();

    // ---- Concurrent writer over the in-memory nodes ----
    let stop_writer = Arc::new(AtomicBool::new(false));
    let writer = {
        let stores = mutable_stores.clone();
        let stop = Arc::clone(&stop_writer);
        let expected = Arc::clone(&expected);
        let mut wrng = StdRng::seed_from_u64(rng.random());
        std::thread::spawn(move || {
            for iter in 0..WRITER_ITERATIONS {
                if stop.load(Ordering::SeqCst) {
                    break;
                }
                for (i, store) in stores.iter().enumerate() {
                    let element =
                        10_000_000 * (i as u64 + 1) + iter as u64 * 100 + wrng.random_range(0..100);
                    expected.lock().unwrap().insert(element);
                    store.apply(&[element], &[]);
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        })
    };

    // ---- Phase 1: healthy sweeps, writes in flight ----
    for _ in 0..2 {
        let failed = sweep(&registries, &peers, &stats, &config);
        assert_eq!(failed, 0, "healthy mesh: no pairwise sync may fail");
    }

    // Mid-soak epoch capture against node 0 (a survivor): a client that
    // syncs now and caches the epoch must still be delta-servable after
    // the whole soak.
    let cached_view = node_snapshot(&registries[0]);
    let mid_report =
        sync(servers[0].local_addr(), &cached_view, &config).expect("mid-soak client sync");
    assert!(mid_report.verified);
    let cached_epoch = mid_report.epoch.expect("node 0 keeps epochs");

    // ---- Phase 2: partition {0, 1} | {2, …}, writes on both sides ----
    proxies[1].partition(); // link 1 → 2 crosses the cut
    proxies[NODES - 1].partition(); // link NODES-1 → 0 crosses the cut
    for step in 0..3u64 {
        // Both sides keep writing: the in-memory side via the writer
        // thread, the durable side right here.
        let element = 20_000_000 + step;
        expected.lock().unwrap().insert(element);
        durable_store.apply(&[element], &[]);
        let failed = sweep(&registries, &peers, &stats, &config);
        assert!(failed >= 1, "the severed links cannot sync while cut");
    }

    // ---- Phase 3: heal, then kill and restart the durable node ----
    proxies[1].heal();
    proxies[NODES - 1].heal();
    sweep(&registries, &peers, &stats, &config);

    let pre_kill = node_snapshot(&registries[durable]);
    servers.remove(durable).shutdown();
    drop(durable_store);
    registries.pop();
    // Recovery: reopen the WAL-backed store from disk — the restarted
    // node must come back with exactly the set it held when it died.
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(&durable_dir);
    let (_recovered_store, _recovery) = registry
        .open_store("", DurableOptions::default())
        .expect("recover durable store");
    registries.push(Arc::clone(&registry));
    assert_eq!(
        node_snapshot(&registry),
        pre_kill,
        "the durable node must recover its pre-kill set from the WAL"
    );
    let revived = bind_node(&registry);
    // Repoint the inbound link at the restarted process's new address.
    proxies[durable - 1].set_upstream(revived.local_addr());
    servers.push(revived);

    // ---- Phase 4: quiesce writes, sweep to convergence ----
    stop_writer.store(true, Ordering::SeqCst);
    writer.join().expect("writer thread");
    let expected: Vec<u64> = {
        let mut v: Vec<u64> = expected.lock().unwrap().iter().copied().collect();
        v.sort_unstable();
        v
    };
    let mut converged = false;
    for round in 0..12 {
        sweep(&registries, &peers, &stats, &config);
        let snapshots: Vec<Vec<u64>> = registries.iter().map(|r| node_snapshot(r)).collect();
        if snapshots.iter().all(|s| *s == expected) {
            eprintln!("mesh_soak: converged after {} post-churn sweeps", round + 1);
            converged = true;
            break;
        }
    }
    assert!(converged, "mesh failed to converge within 12 sweeps");

    // ---- Delta continuity on a survivor ----
    let delta_config = ClientConfig {
        delta_epoch: Some(cached_epoch),
        ..ClientConfig::default()
    };
    let resumed = sync(servers[0].local_addr(), &cached_view, &delta_config)
        .expect("post-soak delta sync from the mid-soak epoch");
    assert!(
        !resumed.delta_fallback,
        "the mid-soak epoch must still be delta-servable"
    );
    let delta = resumed.delta.expect("delta path taken");
    assert_eq!(delta.from_epoch, cached_epoch);
    assert!(
        delta.added.len() as u64 >= 1,
        "the soak wrote through node 0 after the capture"
    );

    // ---- Exact byte accounting ----
    // Every relay conserved bytes, and the fault-free control link's
    // forwarded bytes equal the mesh's own wire ledgers exactly. The
    // relay threads count a chunk after writing it, so give the ledgers a
    // moment to settle after the last sync returned.
    let control = stats[0].snapshot().remove(0);
    assert_eq!(control.peer, peers[0]);
    assert_eq!(
        control.syncs_failed, 0,
        "the control link is never faulted: every sync completes"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let ledger = proxies[0].ledger();
        let exact = ledger.conserved()
            && ledger.forwarded_up == control.bytes_sent
            && ledger.forwarded_down == control.bytes_received
            && ledger.discarded_up == 0
            && ledger.discarded_down == 0;
        if exact {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "control-link ledger must match the mesh byte counters exactly: \
             {ledger:?} vs sent {} received {}",
            control.bytes_sent,
            control.bytes_received
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    for (i, proxy) in proxies.iter().enumerate() {
        let ledger = proxy.ledger();
        assert!(
            ledger.conserved(),
            "link {i}: relay bytes must balance, got {ledger:?}"
        );
        proxy.shutdown();
    }

    for server in servers {
        let stats = server.shutdown();
        assert_eq!(
            stats.sessions_started,
            stats.sessions_completed + stats.sessions_failed,
            "a mesh node leaked a session"
        );
    }
    let _ = std::fs::remove_dir_all(&durable_dir);
}
