//! Anti-entropy mesh: the *client role* of a node.
//!
//! A `pbs-syncd` node normally only answers sessions. In a mesh
//! deployment (`pbs-syncd --anti-entropy PEER[,PEER…]`) it also
//! periodically originates them: each round reconciles every one of the
//! node's stores pairwise against one peer with the ordinary PBS session
//! ([`crate::client::sync`]), and the recovered difference is applied
//! locally through [`crate::store::SetStore::apply_missing`] — on a
//! [`crate::store::MutableStore`] that lands as a normal `apply` batch,
//! so the epoch advances, the changelog records it, and live subscribers
//! ride along exactly as they would for a local write.
//!
//! Convergence is gossip-style union convergence: one pairwise sync moves
//! both endpoints to `A ∪ B` (the protocol pushes `A \ B` to the peer
//! and the round applies `B \ A` locally), so any connected mesh
//! converges after enough pairwise rounds regardless of topology, and
//! partitioned halves converge among themselves and re-converge globally
//! once the partition heals.
//!
//! A round is [`anti_entropy_round`]: one peer, every store, over sockets.
//! When rounds run, and against whom, is a [`MeshSchedule`], which holds no
//! thread and reads no clock: `pbs-syncd`'s main thread drives one, and the
//! simulator (`sim.rs`) one per node on its virtual clock, its legs settled
//! through `settle` as a round settles them.

use crate::client::{sync, ClientConfig, SyncReport};
use crate::store::{RegisteredStore, StoreRegistry};
use crate::NetError;
use std::time::{Duration, Instant};

/// Configuration of a node's anti-entropy mesh.
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
    /// they equal what the peer's server counted in and out.
    /// [`MeshStats::registered`] registers them as `pbs_mesh_*_total{peer}`.
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

/// The per-peer counters of one node's mesh, in [`MeshConfig::peers`]
/// order.
#[derive(Debug)]
pub struct MeshStats {
    peers: Vec<(String, PeerStats)>,
}

impl MeshStats {
    /// Each peer's counters, registered in `metrics` as
    /// `pbs_mesh_*_total{peer="…"}`.
    pub fn registered(metrics: &obs::Registry, peers: &[String]) -> MeshStats {
        let peers = peers.iter().map(|peer| {
            let stats = PeerStats::registered(metrics, "pbs_mesh_", &[("peer", peer)]);
            (peer.clone(), stats)
        });
        MeshStats {
            peers: peers.collect(),
        }
    }

    /// The counters of peer `p`: its index in [`MeshConfig::peers`].
    pub fn peer(&self, p: usize) -> &PeerStats {
        &self.peers[p].1
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

/// When a node's rounds run, and against which peer. Each rotation visits
/// every peer once, back to back, in the last rotation's order reshuffled
/// (Fisher–Yates over xorshift from [`MeshConfig::seed`], so a run
/// replays); the pause after it, counted from the first call once its last
/// round is out, is [`MeshConfig::interval`] ±25 % by a seeded jitter, so a
/// fleet of identical nodes de-synchronizes. The first rotation is due at
/// once. A driver sleeps until [`MeshSchedule::due`], then runs a round for
/// each peer [`MeshSchedule::next`] names until it names none.
#[derive(Debug, Clone)]
pub struct MeshSchedule {
    interval: Duration,
    rng: u64,
    /// The rotation under way, as indices into [`MeshConfig::peers`].
    order: Vec<usize>,
    /// Rounds of the rotation under way handed out.
    ran: usize,
    /// `None`: never — no peers, or a pause past what an `Instant` holds.
    due: Option<Instant>,
}

impl MeshSchedule {
    /// The schedule of `config`, its first rotation due at `now`.
    pub fn new(config: &MeshConfig, now: Instant) -> Self {
        let peers = config.peers.len();
        let mut schedule = MeshSchedule {
            interval: config.interval,
            rng: config.seed | 1,
            order: (0..peers).collect(),
            ran: 0,
            due: (peers > 0).then_some(now),
        };
        schedule.reshuffle();
        schedule
    }

    /// When the next round is due; `None` if never.
    pub fn due(&self) -> Option<Instant> {
        self.due
    }

    /// The peer (its index in [`MeshConfig::peers`]) whose round runs at
    /// `now`, if one is due. Once a rotation's last round is handed out,
    /// the next call starts the pause and names none.
    pub fn next(&mut self, now: Instant) -> Option<usize> {
        if self.due.is_none_or(|due| now < due) {
            return None;
        }
        if self.ran == self.order.len() {
            let jitter = self.draw() % 501; // 0..=500 → 75 %..125 %
            let pause = self.interval.checked_mul(750 + jitter as u32);
            self.due = pause.and_then(|pause| now.checked_add(pause / 1000));
            self.reshuffle();
            return None;
        }
        self.ran += 1;
        Some(self.order[self.ran - 1])
    }

    /// The next rotation's order: the last one, shuffled.
    fn reshuffle(&mut self) {
        for i in (1..self.order.len()).rev() {
            let j = (self.draw() % (i as u64 + 1)) as usize;
            self.order.swap(i, j);
        }
        self.ran = 0;
    }

    fn draw(&mut self) -> u64 {
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::{Name, Op, RecordingDisk};
    use crate::server::{Server, ServerConfig};
    use crate::store::MutableStore;
    use std::sync::Arc;

    /// The rotations and pauses of the default seed over four peers, at
    /// the default 5 s interval: pinned, since every seeded soak replays
    /// from them. The pauses are 5 s × (0.75 + j/1000) for the jitter
    /// draws j = 129, 317 and 357 — ±25 % around the interval.
    #[test]
    fn the_default_seed_replays_its_rotations_and_pauses() {
        let config = MeshConfig {
            peers: (0..4).map(|p| p.to_string()).collect(),
            ..MeshConfig::default()
        };
        let mut now = Instant::now();
        let mut schedule = MeshSchedule::new(&config, now);
        let (mut orders, mut pauses) = (Vec::new(), Vec::new());
        for _ in 0..3 {
            assert_eq!(schedule.due(), Some(now));
            // Back to back; the call after the last round starts the pause.
            orders.push(std::iter::from_fn(|| schedule.next(now)).collect::<Vec<_>>());
            let due = schedule.due().expect("a pause");
            assert_eq!(schedule.next(due - Duration::from_nanos(1)), None);
            pauses.push(due - now);
            now = due;
        }
        assert_eq!(orders, [[0, 2, 3, 1], [2, 0, 1, 3], [1, 2, 3, 0]]);
        assert_eq!(pauses, [4395, 5335, 5535].map(Duration::from_millis));
    }

    #[test]
    fn no_peers_or_an_endless_pause_is_never_due() {
        let now = Instant::now();
        let mut idle = MeshSchedule::new(&MeshConfig::default(), now);
        assert_eq!((idle.due(), idle.next(now)), (None, None));
        let endless = MeshConfig {
            peers: vec!["a".into()],
            interval: Duration::MAX,
            ..MeshConfig::default()
        };
        let mut schedule = MeshSchedule::new(&endless, now);
        assert_eq!(schedule.next(now), Some(0));
        assert_eq!(schedule.next(now), None);
        assert_eq!(schedule.due(), None);
    }

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
