//! The anti-entropy mesh over real sockets: a ring of four
//! `pbs-syncd`-shaped nodes, the last one durable, converges on the union
//! of every node's set and every write — across the durable node's server
//! going down while both sides of it write, and the node's reopening from
//! its WAL on a new port.
//!
//! The schedule is fixed and runs on this thread: a sweep drives
//! [`anti_entropy_round`] (the unit the `pbs-syncd --anti-entropy` driver
//! loops on) once per node, against its ring successor. Asserted:
//!
//! * **Convergence** to exactly the union: nothing lost, nothing invented.
//! * **Durability**: the reopened node holds what it held when it went down.
//! * **Delta continuity**: an epoch a client cached mid-run against a node
//!   that stayed up is still served as a delta at the end.
//! * **Exact byte accounting**: node 0's mesh counters equal the `bytes_in`
//!   and `bytes_out` of node 1's server — which no one else talks to — read
//!   after `shutdown()`, so that nothing is counted late.
//!
//! Thousands of seeded fault schedules over the same rounds — partitions,
//! connections cut mid-frame, a durable node crashed after any op of its
//! WAL — are the deterministic simulator's (`crates/net/src/sim.rs`).

use pbs_net::client::{sync, ClientConfig};
use pbs_net::mesh::{anti_entropy_round, PeerStats};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, StoreRegistry};
use pbs_net::wal::DurableOptions;
use std::collections::{BTreeSet, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;

const NODES: usize = 4;
const DURABLE: usize = NODES - 1;

fn bind(registry: &Arc<StoreRegistry>) -> Server {
    let config = ServerConfig::default();
    Server::bind_registry("127.0.0.1:0", Arc::clone(registry), config).expect("bind a mesh node")
}

fn open_durable(dir: &Path) -> (Arc<StoreRegistry>, Arc<MutableStore>) {
    let registry = Arc::new(StoreRegistry::new());
    registry.set_persistence_root(dir);
    let (store, _) = registry
        .open_store("", DurableOptions::default())
        .expect("open the durable store");
    (registry, store)
}

fn held(store: &MutableStore) -> BTreeSet<u64> {
    store.snapshot_with_epoch().0.into_iter().collect()
}

/// Every node but `down` runs one round against its ring successor; the
/// pairwise syncs that failed.
fn sweep(
    registries: &[Arc<StoreRegistry>],
    peers: &[String],
    stats: &[PeerStats],
    down: Option<usize>,
) -> usize {
    let config = ClientConfig::default();
    let up = (0..NODES).filter(|&i| Some(i) != down);
    up.map(|i| {
        anti_entropy_round(&registries[i], &peers[i], &config, &stats[i])
            .0
            .failed
    })
    .sum()
}

#[test]
fn mesh_converges_under_partition_churn_and_restart() {
    let dir = std::env::temp_dir().join(format!("pbs-mesh-soak-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // A shared base plus a wedge of each node's own.
    let mut union: BTreeSet<u64> = (1..=64).collect();
    let (mut registries, mut stores) = (Vec::new(), Vec::new());
    for i in 0..NODES {
        let (registry, store) = match i {
            DURABLE => open_durable(&dir),
            _ => {
                let store = Arc::new(MutableStore::new([]));
                let registry = StoreRegistry::single(Arc::clone(&store) as Arc<_>);
                (Arc::new(registry), store)
            }
        };
        let wedge = (0..20).map(|k| 1_000 * (i as u64 + 1) + k);
        let set: Vec<u64> = (1..=64).chain(wedge).collect();
        store.apply(&set, &[]);
        union.extend(set);
        registries.push(registry);
        stores.push(store);
    }
    let mut servers: Vec<Server> = registries.iter().map(bind).collect();
    let mut peers: Vec<String> = (0..NODES)
        .map(|i| servers[(i + 1) % NODES].local_addr().to_string())
        .collect();
    let stats: Vec<PeerStats> = (0..NODES).map(|_| PeerStats::default()).collect();
    let mut write = |store: &MutableStore, element: u64| {
        store.apply(&[element], &[]);
        union.insert(element);
    };

    assert_eq!(
        sweep(&registries, &peers, &stats, None),
        0,
        "a healthy ring"
    );
    // A client caches node 0's epoch mid-run.
    let cached: Vec<u64> = held(&stores[0]).into_iter().collect();
    let mid =
        sync(servers[0].local_addr(), &cached, &ClientConfig::default()).expect("mid-run sync");
    assert!(mid.verified);
    let cached_epoch = mid.epoch.expect("node 0 keeps epochs");

    // The durable node's server goes down; both sides of it write, and
    // the ring syncs around it.
    servers.pop().expect("the durable node's server").shutdown();
    for (i, store) in stores.iter().enumerate() {
        write(store, 10_000_000 * (i as u64 + 1));
    }
    assert!(
        sweep(&registries, &peers, &stats, Some(DURABLE)) >= 1,
        "its peer cannot reach it"
    );
    // It comes back from its WAL, on a new port.
    let before = held(&stores[DURABLE]);
    drop((registries.pop(), stores.pop()));
    let (registry, store) = open_durable(&dir);
    assert_eq!(held(&store), before, "the reopened node holds what it held");
    servers.push(bind(&registry));
    peers[DURABLE - 1] = servers[DURABLE].local_addr().to_string();
    registries.push(registry);
    stores.push(store);
    write(&stores[0], 20_000_000);

    let converged = (0..12).any(|_| {
        sweep(&registries, &peers, &stats, None);
        stores.iter().all(|store| held(store) == union)
    });
    assert!(
        converged,
        "the ring converges on the union within 12 sweeps"
    );

    // Delta continuity from the epoch cached mid-run.
    let since = ClientConfig {
        delta_epoch: Some(cached_epoch),
        ..ClientConfig::default()
    };
    let resumed = sync(servers[0].local_addr(), &cached, &since).expect("a delta sync");
    let delta = resumed
        .delta
        .expect("the cached epoch is still served as a delta");
    assert_eq!(delta.from_epoch, cached_epoch);
    let mut caught_up: HashSet<u64> = cached.into_iter().collect();
    delta.apply_to(&mut caught_up);
    assert_eq!(caught_up, union.iter().copied().collect());

    // Node 1's server saw node 0's mesh sessions and nothing else.
    let control = &stats[0];
    let totals: Vec<_> = servers.into_iter().map(Server::shutdown).collect();
    for node in &totals {
        let ended = node.sessions_completed + node.sessions_failed;
        assert_eq!(node.sessions_started, ended, "a mesh node leaked a session");
    }
    assert_eq!(control.syncs_failed.load(Ordering::Relaxed), 0);
    assert_eq!(
        (
            control.bytes_sent.load(Ordering::Relaxed),
            control.bytes_received.load(Ordering::Relaxed)
        ),
        (totals[1].bytes_in, totals[1].bytes_out),
        "the control link's mesh counters are its peer server's bytes"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
