//! The set-up hand-off, over real sockets: a full session's O(|B|) set-up
//! runs on its worker's set-up thread while the event loop keeps serving
//! everyone else on that worker.
//!
//! Every interleaving is forced, none is slept for. The store under test
//! ([`Gated`]) holds a session's `view` call at a gate the test opens, so
//! "while the set-up is out" is a state the test stands in, not a race it
//! hopes to win; the servers run one worker, so "the same worker" is the
//! only worker. (The gate's own time-outs only turn a hang into a failure.)
//!
//! Covered here:
//! * with one session's set-up held: a subscriber is pushed a mutation, a
//!   second connection has its `Hello` answered and a delta catch-up served,
//!   and the held session's next frame — sent before the gate opens — is
//!   taken in order once it does;
//! * two ways a session ends while its machine is out — peer close,
//!   `Server::shutdown` — each leave `started == completed + failed`
//!   server-wide *and* on the store;
//! * a `view` that panics on the set-up thread costs its own session
//!   (`Internal`), not the worker.
//!
//! What the clocks do to a session that is out — refused at its deadline
//! and counted once, the machine coming back to nobody; no read-idle
//! window running while it is out, a fresh one once it is back — is the
//! simulator's (`src/sim.rs`), on a virtual clock; so is a panicking unit
//! beside every other fault. That a session served through the hand-off is
//! byte-identical to one driven inline is pinned next to the inline
//! driver, in `event_loop.rs`'s own tests (`Duet` is not visible from
//! here).

use pbs_net::client::SyncClient;
use pbs_net::frame::ErrorCode;
use pbs_net::server::{Server, ServerConfig, StatsSnapshot};
use pbs_net::store::{
    DeltaAnswer, MutableStore, SetStore, StoreNotifier, StoreRegistry, ViewAnswer,
};
use pbs_net::{ClientConfig, ClientMachine, FramedStream, Mode, NetError, TransportConfig};
use std::net::TcpStream;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// How long a wait on the gate may take before the test fails instead of
/// hanging.
const HANG: Duration = Duration::from_secs(60);

/// What the next `view` call meets.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Gate {
    /// Nothing: every call goes straight through.
    Open,
    /// The next call is held.
    Armed,
    /// A call is being held.
    Holding,
    /// The next call panics.
    Trapped,
}

/// A `MutableStore` whose `view` — the first thing every heavy set-up unit
/// asks of its store — can be held at a gate, or made to panic, once.
struct Gated {
    inner: MutableStore,
    gate: Mutex<Gate>,
    moved: Condvar,
}

impl Gated {
    fn over(elements: impl IntoIterator<Item = u64>) -> Arc<Gated> {
        Arc::new(Gated {
            inner: MutableStore::new(elements),
            gate: Mutex::new(Gate::Open),
            moved: Condvar::new(),
        })
    }

    fn set(&self, to: Gate) {
        *self.gate.lock().unwrap() = to;
        self.moved.notify_all();
    }

    /// Block until the gate reads `want`.
    fn await_gate(&self, want: Gate) {
        let gate = self.gate.lock().unwrap();
        let (gate, timeout) = self
            .moved
            .wait_timeout_while(gate, HANG, |gate| *gate != want)
            .unwrap();
        assert!(
            !timeout.timed_out(),
            "the gate never read {want:?}: {gate:?}"
        );
    }
}

impl SetStore for Gated {
    fn snapshot(&self) -> Vec<u64> {
        self.inner.snapshot()
    }
    fn apply_missing(&self, elements: &[u64]) -> bool {
        self.inner.apply_missing(elements)
    }
    fn epoch_snapshot(&self) -> (Vec<u64>, Option<u64>) {
        self.inner.epoch_snapshot()
    }
    fn delta_since(&self, epoch: u64) -> DeltaAnswer {
        self.inner.delta_since(epoch)
    }
    fn session_seed(&self, proposal: u64) -> u64 {
        self.inner.session_seed(proposal)
    }
    fn view(&self, seed: u64) -> ViewAnswer {
        let mut gate = self.gate.lock().unwrap();
        match *gate {
            Gate::Trapped => {
                *gate = Gate::Open;
                drop(gate);
                panic!("the store's view failed (a test's trap)");
            }
            Gate::Armed => {
                *gate = Gate::Holding;
                self.moved.notify_all();
                let (held, timeout) = self
                    .moved
                    .wait_timeout_while(gate, HANG, |gate| *gate == Gate::Holding)
                    .unwrap();
                assert!(!timeout.timed_out(), "nobody opened the gate");
                drop(held);
            }
            _ => drop(gate),
        }
        self.inner.view(seed)
    }
    fn retire_view(&self, seed: u64) {
        self.inner.retire_view(seed)
    }
    fn register_notifier(&self, notifier: StoreNotifier) -> bool {
        self.inner.register_notifier(notifier)
    }
}

/// A one-worker server over `store`: its every session shares one loop.
fn bind(store: &Arc<Gated>, config: ServerConfig) -> (Server, Arc<StoreRegistry>) {
    let config = ServerConfig {
        workers: 1,
        ..config
    };
    let server = Server::bind("127.0.0.1:0", Arc::clone(store) as Arc<_>, config).expect("bind");
    let registry = server.registry();
    (server, registry)
}

fn store_stats(registry: &StoreRegistry) -> StatsSnapshot {
    registry
        .get("")
        .expect("the default store")
        .stats()
        .snapshot()
}

/// `started == completed + failed`, with these counts, server-wide and on
/// the store.
fn assert_accounts(what: &str, stats: &[StatsSnapshot], started: u64, failed: u64) {
    for (level, s) in ["server", "store"].iter().zip(stats) {
        assert_eq!(
            (s.sessions_started, s.sessions_completed, s.sessions_failed),
            (started, started - failed, failed),
            "{what}: {level} (started, completed, failed)"
        );
    }
}

/// A full session driven by hand, one frame at a time.
struct ByHand {
    framed: FramedStream<TcpStream>,
    machine: ClientMachine<'static>,
}

impl ByHand {
    fn connect(server: &Server, set: Vec<u64>) -> ByHand {
        let config = ClientConfig {
            seed: 0xA11CE,
            ..ClientConfig::default()
        };
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        ByHand {
            framed: FramedStream::from_tcp(stream, &TransportConfig::default()).expect("socket"),
            machine: ClientMachine::new(&config, set, Mode::Full).expect("machine"),
        }
    }

    /// Put the frame the machine owes on the wire.
    fn send(&mut self) {
        let frame = self.machine.poll_send().expect("poll").expect("a frame");
        self.framed.send(&frame).expect("send");
    }

    /// Feed the machine the server's next frame.
    fn recv(&mut self) -> pbs_net::Step {
        let frame = self.framed.recv().expect("recv");
        self.machine.on_frame(frame).expect("accepted")
    }

    /// Drive the session from where it stands to its report.
    fn finish(&mut self) -> pbs_net::SyncReport {
        loop {
            if let Some(frame) = self.machine.poll_send().expect("poll") {
                self.framed.send(&frame).expect("send");
            }
            if let Some(report) = self.recv().report {
                return report;
            }
        }
    }

    /// Send the `Hello` and stand where its set-up is held at `store`'s
    /// gate, the negotiated `Hello` — flushed before the hand-off — read.
    fn park_at(&mut self, store: &Gated) {
        store.set(Gate::Armed);
        self.send();
        store.await_gate(Gate::Holding);
        self.recv();
    }
}

/// The value on `series`' line of the server's Prometheus rendering.
fn metric(server: &Server, series: &str) -> f64 {
    let text = server.metrics().render_prometheus();
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '));
    line.expect(series).parse().expect(series)
}

#[test]
fn a_held_set_up_holds_up_nobody_else_on_its_worker() {
    let store = Gated::over(1..=5_000u64);
    let (server, registry) = bind(&store, ServerConfig::default());
    let addr = server.local_addr();

    // The worker's subscriber, parked before anything is held.
    let mut sub = SyncClient::connect(addr)
        .expect("resolve")
        .subscribe(0)
        .expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");

    // A holds 1..=4 990 and ten of its own; its set-up is held.
    let set: Vec<u64> = (1..=4_990).chain(10_001..=10_010).collect();
    let mut a = ByHand::connect(&server, set);
    a.park_at(&store);
    assert_eq!(metric(&server, "pbs_server_setups_in_flight"), 1.0);
    // A's next frame — its estimator bank — goes out now, ahead of the
    // set-up it is an answer to.
    a.send();

    // A mutation is pushed to the subscriber past the held session…
    store.inner.apply(&[20_001], &[]);
    let pushed = sub.next().expect("live").expect("push ok");
    assert_eq!((pushed.added, pushed.to_epoch), (vec![20_001], 1));
    // …and a new connection is accepted, answered and served its delta.
    let caught_up = SyncClient::connect(addr)
        .expect("resolve")
        .delta_epoch(0)
        .sync(&[])
        .expect("delta sync");
    let delta = caught_up.delta.expect("served from the changelog");
    assert_eq!((delta.added, caught_up.epoch), (vec![20_001], Some(1)));
    let so_far = server.stats().snapshot();
    // (Two catch-ups served — the subscriber's was the first — and the
    // held session has not had its snapshot yet.)
    assert_eq!((so_far.delta_sessions, so_far.views_declined), (2, 0));

    // The gate opens: the bank that was waiting is taken next, in order,
    // and the session runs to its end.
    store.set(Gate::Open);
    let report = a.finish();
    assert!(report.verified);
    let mut recovered = report.recovered.clone();
    recovered.sort_unstable();
    // (The snapshot is the held unit's: it saw the mutation.)
    let expected = (4_991..=5_000).chain(10_001..=10_010).chain([20_001]);
    assert_eq!(recovered, expected.collect::<Vec<u64>>());
    assert_eq!(report.epoch, Some(1));
    assert!(store.inner.contains(10_010), "A ∖ B was ingested");
    assert_eq!(metric(&server, "pbs_server_setups_in_flight"), 0.0);
    // The estimate phase is still stamped, once, when the Bob build is back.
    let estimates = "pbs_server_phase_seconds_count{phase=\"estimate\"}";
    assert_eq!(metric(&server, estimates), 1.0);
    assert!(metric(&server, "pbs_server_loop_busy_seconds_count") > 0.0);

    drop((a, sub));
    let stats = [server.shutdown(), store_stats(&registry)];
    assert_eq!(stats[0].views_declined, 1);
    assert_accounts("all three sessions", &stats, 3, 0);
}

#[test]
fn a_peer_that_leaves_while_out_fails_its_session_once() {
    let store = Gated::over(1..=1_000u64);
    let (server, registry) = bind(&store, ServerConfig::default());

    let mut a = ByHand::connect(&server, (1..=990).collect());
    a.park_at(&store);
    drop(a);
    // Nothing is read from a parked session: the loop meets the close when
    // the machine is back.
    store.set(Gate::Open);
    let stats = [server.shutdown(), store_stats(&registry)];
    assert_accounts("peer closed while out", &stats, 1, 1);
}

#[test]
fn shutdown_cuts_a_session_that_is_out_without_waiting_for_its_machine() {
    let store = Gated::over(1..=1_000u64);
    let (server, registry) = bind(&store, ServerConfig::default());

    let mut a = ByHand::connect(&server, (1..=990).collect());
    a.park_at(&store);
    let shutdown = std::thread::spawn(move || server.shutdown());
    // The worker closes the session while the gate still holds its set-up…
    assert!(a.framed.recv().is_err(), "cut, with nothing more said");
    assert_eq!(*store.gate.lock().unwrap(), Gate::Holding);
    // …and shutdown returns once the set-up thread is let go.
    store.set(Gate::Open);
    let stats = [shutdown.join().expect("shutdown"), store_stats(&registry)];
    assert_accounts("shut down while out", &stats, 1, 1);
}

#[test]
fn a_view_that_panics_fails_its_own_session_and_nothing_else() {
    let store = Gated::over(1..=1_000u64);
    let (server, registry) = bind(&store, ServerConfig::default());
    let client = SyncClient::connect(server.local_addr()).expect("resolve");
    let mut sub = client.subscribe(0).expect("subscribe");
    sub.next().expect("catch-up").expect("catch-up ok");

    let set: Vec<u64> = (1..=990).collect();
    store.set(Gate::Trapped);
    match client.sync(&set) {
        Err(NetError::Remote { code, message }) => {
            assert_eq!(code, ErrorCode::Internal, "{message}")
        }
        other => panic!("expected an Internal refusal, got {other:?}"),
    }

    // The same worker, the same set-up thread: the next session completes
    // and the subscriber is still pushed to.
    let report = client.sync(&set).expect("the next session");
    assert!(report.verified && report.recovered.len() == 10);
    store.inner.apply(&[20_001], &[]);
    let pushed = sub.next().expect("live").expect("push ok");
    assert_eq!(pushed.added, vec![20_001]);

    drop(sub);
    let stats = [server.shutdown(), store_stats(&registry)];
    assert_accounts("one panic, one session", &stats, 3, 1);
}
