//! Anti-entropy mesh: the *client role* of a node.
//!
//! A `pbs-syncd` node normally only answers sessions. In a mesh
//! deployment (`pbs-syncd --anti-entropy PEER[,PEER…]`) it also
//! periodically originates them: every tick, each of the node's stores is
//! reconciled pairwise against a peer with the ordinary PBS session
//! ([`crate::client::sync`]), and the recovered difference is applied
//! locally through [`crate::store::SetStore::apply_missing`] — on a
//! [`crate::store::MutableStore`] that lands as a normal `apply` batch,
//! so the epoch advances, the changelog records it, and live subscribers
//! ride along exactly as they would for a local write.
//!
//! Convergence is gossip-style union convergence: one pairwise sync moves
//! both endpoints to `A ∪ B` (the protocol pushes `A \ B` to the peer
//! and this driver applies `B \ A` locally), so any connected mesh
//! converges after enough pairwise rounds regardless of topology, and
//! partitioned halves converge among themselves and re-converge globally
//! once the partition heals. The peer rotation and tick jitter are seeded
//! ([`MeshConfig::seed`]), so a run replays the same schedule.
//!
//! [`anti_entropy_round`] is the synchronous single-(peer × stores) pass —
//! the unit tests and the socket mesh test (`tests/mesh_soak.rs`) drive it
//! directly; [`MeshDriver::spawn`] wraps it in the background thread
//! `pbs-syncd` runs; the simulator's mesh rounds (`sim.rs`) share its
//! handling of one store's result, `settle`.

use crate::client::{sync, ClientConfig, SyncReport};
use crate::store::{RegisteredStore, StoreRegistry};
use crate::NetError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Configuration of a node's anti-entropy driver.
#[derive(Debug, Clone)]
pub struct MeshConfig {
    /// Peer addresses (`host:port`) this node reconciles against.
    pub peers: Vec<String>,
    /// Pause between full peer rotations (each rotation syncs every store
    /// against every peer once, in seeded order).
    pub interval: Duration,
    /// Seed of the rotation order and tick jitter.
    pub seed: u64,
    /// The client configuration each pairwise sync runs with; the store
    /// name is filled in per sync. `delta_epoch` is ignored — anti-entropy
    /// always runs the full reconciliation so each pairwise sync is a
    /// symmetric union step.
    pub client: ClientConfig,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            peers: Vec::new(),
            interval: Duration::from_secs(5),
            seed: 0xA17E_E471,
            client: ClientConfig::default(),
        }
    }
}

obs::counters! {
    /// Per-peer (per-link) counters, updated by every pairwise sync. All
    /// counters are cumulative; byte counters come straight from the
    /// [`crate::client::SyncReport`] wire ledgers, so on a fault-free link
    /// they equal what the peer's server counted in and out. A running
    /// [`MeshDriver`] registers them as `pbs_mesh_*_total{peer}`.
    pub struct PeerStats => PeerSnapshot {
        /// One per store per rotation.
        syncs_attempted: "Pairwise syncs attempted.",
        syncs_completed: "Pairwise syncs that completed verified.",
        /// Connect, transport or protocol failures, and unverified syncs.
        syncs_failed: "Pairwise syncs that failed or came back unverified.",
        bytes_sent: "Wire bytes sent to the peer over verified syncs.",
        bytes_received: "Wire bytes received from the peer over verified syncs.",
        /// `B \ A`.
        elements_pulled: "Elements learned from the peer and applied locally.",
        /// `A \ B`.
        elements_pushed: "Elements pushed to the peer by the final transfer.",
    }
}

/// The per-peer counter set of one driver.
#[derive(Debug)]
pub struct MeshStats {
    peers: Vec<(String, Arc<PeerStats>)>,
}

impl MeshStats {
    /// The counters for `peer`, if it is part of this mesh.
    pub(crate) fn peer(&self, peer: &str) -> Option<&Arc<PeerStats>> {
        self.peers.iter().find(|(p, _)| p == peer).map(|(_, s)| s)
    }

    /// Freeze every peer's counters, beside its address.
    pub fn snapshot(&self) -> Vec<(&str, PeerSnapshot)> {
        self.peers
            .iter()
            .map(|(peer, s)| (peer.as_str(), s.snapshot()))
            .collect()
    }
}

/// What one [`anti_entropy_round`] (one peer, every store) did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundOutcome {
    /// Stores that reconciled verified against the peer.
    pub synced: usize,
    /// Stores whose sync failed (the first error is returned alongside).
    pub failed: usize,
    /// Elements learned from the peer and applied locally.
    pub pulled: u64,
    /// Elements the protocol pushed to the peer.
    pub pushed: u64,
}

/// Reconcile every store of `registry` against `peer` once, applying what
/// the peer had and we lacked. Failures on one store do not stop the
/// others; the outcome counts both, and the first error (if any) rides
/// along so callers can log it.
pub fn anti_entropy_round(
    registry: &StoreRegistry,
    peer: &str,
    config: &ClientConfig,
    stats: &PeerStats,
) -> (RoundOutcome, Option<NetError>) {
    let mut outcome = RoundOutcome::default();
    let mut first_error = None;
    for name in registry.names() {
        let Some(entry) = registry.get(&name) else {
            continue;
        };
        let snapshot = entry.store().snapshot();
        let mut cfg = config.clone();
        cfg.store = name.clone();
        cfg.delta_epoch = None;
        stats.syncs_attempted.inc(1);
        let synced = sync(peer, &snapshot, &cfg);
        if let Err(e) = settle(&entry, synced, stats, &mut outcome) {
            first_error.get_or_insert(e);
        }
    }
    (outcome, first_error)
}

/// One store's pairwise sync, over whatever transport ran it, counted and
/// applied: the peer's half of a verified difference goes into the store.
pub(crate) fn settle(
    entry: &RegisteredStore,
    synced: Result<SyncReport, NetError>,
    stats: &PeerStats,
    outcome: &mut RoundOutcome,
) -> Result<(), NetError> {
    let pulled = synced.and_then(|report| {
        if !report.verified {
            // Capped short of every checksum: a best-effort recovery may hold fakes.
            return Err(NetError::Protocol(
                "anti-entropy sync finished unverified".into(),
            ));
        }
        // The exchange happened either way: its bytes and what the peer
        // ingested (`A \ B`) count. The rest, `B \ A`, is ours to apply — an
        // ordinary epoch-bumping batch on a MutableStore — if it lands.
        let pushed = report.pushed.len() as u64;
        stats.bytes_sent.inc(report.bytes_sent);
        stats.bytes_received.inc(report.bytes_received);
        stats.elements_pushed.inc(pushed);
        outcome.pushed += pushed;
        let pulled = report.pulled();
        match pulled.is_empty() || entry.store().apply_missing(&pulled) {
            true => Ok(pulled.len() as u64),
            false => Err(NetError::Io(std::io::Error::other(format!(
                "store {:?} refused the {} pulled elements",
                entry.name(),
                pulled.len()
            )))),
        }
    });
    let Ok(pulled) = pulled else {
        stats.syncs_failed.inc(1);
        outcome.failed += 1;
        return pulled.map(drop);
    };
    stats.syncs_completed.inc(1);
    stats.elements_pulled.inc(pulled);
    outcome.synced += 1;
    outcome.pulled += pulled;
    Ok(())
}

/// The background anti-entropy loop of one node: seeded peer rotation,
/// jittered ticks, graceful shutdown. `pbs-syncd --anti-entropy` owns one.
#[derive(Debug)]
pub struct MeshDriver {
    shutdown: Arc<AtomicBool>,
    stats: Arc<MeshStats>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MeshDriver {
    /// Spawn the driver thread. Each rotation visits every peer once in a
    /// seeded order (reshuffled per rotation — xorshift over
    /// [`MeshConfig::seed`]), reconciling every store of `registry`
    /// against it, then sleeps [`MeshConfig::interval`] with ±25% seeded
    /// jitter so a fleet of identical nodes de-synchronizes. Each peer's
    /// counters are registered in `registry`'s metrics as
    /// `pbs_mesh_*_total{peer="…"}`.
    pub fn spawn(registry: Arc<StoreRegistry>, config: MeshConfig) -> MeshDriver {
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = registry.metrics();
        let peers = config.peers.iter().map(|peer| {
            let stats = PeerStats::registered(&metrics, "pbs_mesh_", &[("peer", peer)]);
            (peer.clone(), Arc::new(stats))
        });
        let stats = Arc::new(MeshStats {
            peers: peers.collect(),
        });
        let thread_shutdown = Arc::clone(&shutdown);
        let thread_stats = Arc::clone(&stats);
        let handle = std::thread::Builder::new()
            .name("pbs-mesh".into())
            .spawn(move || {
                let mut rng = config.seed | 1;
                let step = move |rng: &mut u64| {
                    *rng ^= *rng << 13;
                    *rng ^= *rng >> 7;
                    *rng ^= *rng << 17;
                    *rng
                };
                let mut order: Vec<usize> = (0..config.peers.len()).collect();
                while !thread_shutdown.load(Ordering::SeqCst) {
                    // Seeded Fisher–Yates reshuffle per rotation.
                    for i in (1..order.len()).rev() {
                        let j = (step(&mut rng) % (i as u64 + 1)) as usize;
                        order.swap(i, j);
                    }
                    for &p in &order {
                        if thread_shutdown.load(Ordering::SeqCst) {
                            return;
                        }
                        let peer = &config.peers[p];
                        if let Some(peer_stats) = thread_stats.peer(peer) {
                            let (_, _err) =
                                anti_entropy_round(&registry, peer, &config.client, peer_stats);
                        }
                    }
                    // Jittered sleep in short slices so shutdown is prompt.
                    let jitter = step(&mut rng) % 501; // 0..=500 → 75%..125%
                    let tick = config.interval.mul_f64(0.75 + jitter as f64 / 2000.0);
                    let until = Instant::now() + tick;
                    while Instant::now() < until && !thread_shutdown.load(Ordering::SeqCst) {
                        std::thread::sleep(Duration::from_millis(20).min(tick));
                    }
                }
            })
            .expect("spawn mesh driver thread");
        MeshDriver {
            shutdown,
            stats,
            handle: Some(handle),
        }
    }

    /// The live per-peer counters.
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }
}

impl Drop for MeshDriver {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Name, Op, RecordingDisk};
    use crate::server::{Server, ServerConfig};
    use crate::store::MutableStore;

    #[test]
    fn one_round_converges_a_pair_of_stores() {
        let local = Arc::new(MutableStore::new([1u64, 2, 3, 10]));
        let remote = Arc::new(MutableStore::new([2u64, 3, 4, 20]));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&remote) as Arc<_>,
            ServerConfig::default(),
        )
        .expect("bind peer");
        let peer = server.local_addr().to_string();

        let registry = StoreRegistry::single(Arc::clone(&local) as Arc<_>);
        let stats = PeerStats::default();
        let (outcome, err) = anti_entropy_round(&registry, &peer, &ClientConfig::default(), &stats);
        assert!(err.is_none(), "round failed: {err:?}");
        assert_eq!(outcome.synced, 1);
        assert_eq!(outcome.failed, 0);
        assert_eq!(outcome.pulled, 2, "learned 4 and 20");
        assert_eq!(outcome.pushed, 2, "shipped 1 and 10");
        server.shutdown();

        let (mut a, _) = local.snapshot_with_epoch();
        let (mut b, _) = remote.snapshot_with_epoch();
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, b, "one pairwise round reaches A ∪ B on both sides");
        assert_eq!(a, vec![1, 2, 3, 4, 10, 20]);
        assert_eq!(stats.syncs_completed.get(), 1);
        assert_eq!(stats.elements_pulled.get(), 2);
    }

    #[test]
    fn the_registered_byte_counter_is_the_syncs_own_ledger() {
        let local = Arc::new(MutableStore::new([1u64, 2, 3, 10]));
        let remote = Arc::new(MutableStore::new([2u64, 3, 4, 20]));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&remote) as Arc<_>,
            ServerConfig::default(),
        )
        .expect("bind peer");
        let peer = server.local_addr().to_string();

        let registry = StoreRegistry::single(Arc::clone(&local) as Arc<_>);
        let metrics = registry.metrics();
        let stats = PeerStats::registered(&metrics, "pbs_mesh_", &[("peer", &peer)]);
        let (held, _) = local.snapshot_with_epoch();
        let report = sync(peer.as_str(), &held, &ClientConfig::default()).expect("sync");
        let entry = registry.get("").expect("the default store");
        let outcome = &mut RoundOutcome::default();
        settle(&entry, Ok(report.clone()), &stats, outcome).expect("a verified sync");
        server.shutdown();

        assert_eq!(outcome.synced, 1);
        let line = format!(
            "pbs_mesh_bytes_sent_total{{peer=\"{peer}\"}} {}",
            report.bytes_sent
        );
        let text = metrics.render_prometheus();
        assert!(text.lines().any(|l| l == line), "{line} not in\n{text}");
    }

    #[test]
    fn elements_the_local_store_refused_are_not_counted_as_pulled() {
        let disk = RecordingDisk::default();
        let (local, _) = MutableStore::open_on(Box::new(disk.clone()), Default::default()).unwrap();
        let local = Arc::new(local);
        local.apply(&[1, 2, 3, 10], &[]);
        let remote = Arc::new(MutableStore::new([2u64, 3, 4, 20]));
        let server = Server::bind(
            "127.0.0.1:0",
            Arc::clone(&remote) as Arc<_>,
            ServerConfig::default(),
        )
        .expect("bind peer");
        let peer = server.local_addr().to_string();

        disk.fail(0, |op| matches!(op, Op::Write(Name::Wal, _)));
        let registry = StoreRegistry::single(Arc::clone(&local) as Arc<_>);
        let stats = PeerStats::default();
        let (outcome, err) = anti_entropy_round(&registry, &peer, &ClientConfig::default(), &stats);
        server.shutdown();
        assert!(matches!(err, Some(NetError::Io(_))), "{err:?}");
        assert_eq!((outcome.synced, outcome.failed), (0, 1));
        assert_eq!(
            (outcome.pulled, outcome.pushed),
            (0, 2),
            "the peer still took 1 and 10"
        );
        assert_eq!(stats.elements_pulled.get(), 0);
        assert_eq!(stats.syncs_failed.get(), 1);
        assert!(!local.contains(4) && remote.contains(10));
    }

    #[test]
    fn failures_are_counted_not_fatal() {
        let local = Arc::new(MutableStore::new([1u64, 2, 3]));
        let registry = StoreRegistry::single(local as Arc<_>);
        let stats = PeerStats::default();
        // Nothing listens on this port (bound then dropped).
        let dead = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let (outcome, err) = anti_entropy_round(&registry, &dead, &ClientConfig::default(), &stats);
        assert_eq!(outcome.synced, 0);
        assert_eq!(outcome.failed, 1);
        assert!(err.is_some());
        assert_eq!(stats.syncs_failed.get(), 1);
    }
}
