//! A blocking call and the load harness's sessions run one client
//! connection (`pbs_net`'s machine, clocks and phase stamps) on one
//! readiness loop — the first on the caller's thread, the second on a
//! `Dialer`'s; these tests hold the two to the same session.
//!
//! * Same session: the same set, seed, store and pipeline through
//!   `pbs_net::sync` (a loop on the caller's thread) and through the
//!   engine's `Dialer` (a loop thread shared with other sessions) against
//!   one server produce the same report, down to the byte and frame
//!   ledgers.
//! * An unverified session ends the way the real client's does — `Done`
//!   sent, ack read — so the server books it completed and only the
//!   harness calls it failed.

use loadgen::{Arrival, Engine, EngineConfig, Kind, Outcome, SessionResult};
use pbs_net::server::{Server, ServerConfig};
use pbs_net::store::{MutableStore, SetStore, StoreRegistry};
use pbs_net::{sync, ClientConfig, Pipeline, SyncReport};
use std::net::SocketAddr;
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// A store that ingests nothing, so every session meets the same set and
/// the same epoch however many came before it.
struct Frozen(Vec<u64>);

impl SetStore for Frozen {
    fn snapshot(&self) -> Vec<u64> {
        self.0.clone()
    }
    fn apply_missing(&self, _elements: &[u64]) -> bool {
        true
    }
    fn epoch_snapshot(&self) -> (Vec<u64>, Option<u64>) {
        (self.snapshot(), Some(5))
    }
}

fn keys(range: std::ops::Range<u64>) -> Vec<u64> {
    range
        .map(|i| (i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) | 1)
        .collect()
}

/// Run one session on an engine's loop to its result.
fn drive(
    addr: SocketAddr,
    arrival: &Arrival,
    set: Vec<u64>,
    delta_epoch: u64,
    client: ClientConfig,
) -> SessionResult {
    let engine = Engine::start(EngineConfig {
        target: addr,
        workers: 1,
        client,
        base_set: Arc::new(Vec::new()),
        drops: 0,
        delta_epoch,
    })
    .expect("start");
    let (tx, rx) = mpsc::channel();
    engine.dial(arrival, set, delta_epoch, move |result| {
        let _ = tx.send(result);
    });
    let result = rx
        .recv_timeout(Duration::from_secs(60))
        .expect("session hung");
    engine.drain(Duration::ZERO, Duration::ZERO);
    result
}

fn same_report(blocking: &SyncReport, mux: &SyncReport, what: &str) {
    // The recovered set comes out of a `HashSet`: same elements, any order.
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    assert_eq!(
        sorted(&blocking.recovered),
        sorted(&mux.recovered),
        "{what}: recovered"
    );
    assert_eq!(
        sorted(&blocking.pushed),
        sorted(&mux.pushed),
        "{what}: pushed"
    );
    assert_eq!(blocking.epoch, mux.epoch, "{what}: epoch");
    assert_eq!(blocking.delta, mux.delta, "{what}: delta");
    assert_eq!(blocking.verified, mux.verified, "{what}: verified");
    assert_eq!(
        (blocking.rounds, blocking.round_trips, blocking.d_param),
        (mux.rounds, mux.round_trips, mux.d_param),
        "{what}: rounds"
    );
    assert_eq!(blocking.bytes_sent, mux.bytes_sent, "{what}: bytes sent");
    assert_eq!(
        blocking.bytes_received, mux.bytes_received,
        "{what}: bytes received"
    );
    assert_eq!(blocking.frames_sent, mux.frames_sent, "{what}: frames sent");
    assert_eq!(
        blocking.frames_received, mux.frames_received,
        "{what}: frames received"
    );
}

#[test]
fn blocking_and_mux_drivers_produce_the_same_report() {
    // Two-sided difference: 30 elements only the client holds (a non-empty
    // `pushed`), 40 only the server holds.
    let pool = keys(1..5_001);
    let client_set = pool[..4_960].to_vec();
    let server_set = pool[30..].to_vec();

    let live = Arc::new(MutableStore::new(server_set.iter().copied()));
    live.apply(&pool[..10], &pool[4_990..]);
    live.apply(&pool[4_990..4_995], &pool[..5]);
    let registry = Arc::new(StoreRegistry::new());
    registry.register("frozen", Arc::new(Frozen(server_set)));
    registry.register("live", Arc::clone(&live) as Arc<_>);
    let server =
        Server::bind_registry("127.0.0.1:0", registry, ServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let seed = 0xE9_0001;
    let at = Duration::ZERO;

    for (kind, pipeline) in [
        (Kind::Full, Pipeline::Depth(1)),
        (Kind::Pipelined, Pipeline::Auto),
    ] {
        let config = ClientConfig {
            store: "frozen".into(),
            seed,
            pipeline,
            ..ClientConfig::default()
        };
        let blocking = sync(addr, &client_set, &config).expect("blocking sync");
        assert!(blocking.verified && blocking.pushed.len() == 30);
        assert_eq!(blocking.recovered.len(), 70);

        let client = ClientConfig {
            store: "frozen".into(),
            ..ClientConfig::default()
        };
        let arrival = Arrival { at, kind, seed };
        let result = drive(addr, &arrival, client_set.clone(), 0, client);
        assert_eq!(result.outcome, Outcome::Completed, "{:?}", result.error);
        let mux = result
            .ended
            .report
            .expect("a completed sync carries its report");
        same_report(&blocking, &mux, &format!("{kind:?}"));
        assert_eq!(
            (result.ended.bytes_out, result.ended.bytes_in),
            (mux.bytes_sent, mux.bytes_received)
        );
    }

    // A delta catch-up: no set, two changelog batches since epoch 0.
    let config = ClientConfig {
        store: "live".into(),
        seed,
        delta_epoch: Some(0),
        ..ClientConfig::default()
    };
    let blocking = sync(addr, &[], &config).expect("blocking delta sync");
    let delta = blocking.delta.as_ref().expect("served from the changelog");
    assert_eq!((delta.to_epoch, delta.batches), (2, 2));
    let client = ClientConfig {
        store: "live".into(),
        ..ClientConfig::default()
    };
    let kind = Kind::Delta;
    let result = drive(addr, &Arrival { at, kind, seed }, Vec::new(), 0, client);
    assert_eq!(result.outcome, Outcome::Completed, "{:?}", result.error);
    same_report(&blocking, &result.ended.report.expect("report"), "delta");

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 6);
    assert_eq!(stats.sessions_failed, 0);
}

#[test]
fn an_unverified_session_fails_in_the_harness_and_completes_on_the_server() {
    // One round against a 400-element difference cannot verify: the
    // client-side round cap fires. The session must still ship its `Done`
    // and read the ack, exactly like `pbs_net::sync` (which then returns
    // `verified == false`) — hanging up instead would book a failed
    // session on the server that no real client produces.
    let pool = keys(1..3_001);
    let store = Arc::new(MutableStore::new(pool[400..].iter().copied()));
    let server = Server::bind(
        "127.0.0.1:0",
        Arc::clone(&store) as Arc<_>,
        ServerConfig::default(),
    )
    .expect("bind");
    let client = ClientConfig {
        round_cap: 1,
        ..ClientConfig::default()
    };
    let arrival = Arrival {
        at: Duration::ZERO,
        kind: Kind::Full,
        seed: 11,
    };
    let result = drive(server.local_addr(), &arrival, pool.clone(), 0, client);
    assert_eq!(result.outcome, Outcome::Failed);
    let error = result.error.expect("a failed session says why");
    assert!(error.contains("round cap"), "{error}");
    let report = result.ended.report.expect("the sync ran to its ack");
    assert!(!report.verified);
    assert_eq!(report.rounds, 1);
    assert!(report.epoch.is_some(), "the ack was read");

    let stats = server.shutdown();
    assert_eq!(stats.sessions_completed, 1);
    assert_eq!(stats.sessions_failed, 0);
}
