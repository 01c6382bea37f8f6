//! The sync client: [`SyncClient`] reconciles a set against a server and
//! returns the reconciled difference with full transport accounting. The
//! protocol itself — every decision about which frame comes next — is
//! [`crate::machine::ClientMachine`], and its clocks and phase stamps are
//! the crate's client connection around it (`conn.rs`). This module is
//! the client's half of the readiness loop the server runs on
//! (`event_loop.rs`), which drives that connection: a blocking call
//! ([`sync`], [`Subscription`]) runs a loop over its one connection on the
//! caller's thread, a [`Dialer`] runs sessions by the thousand on loops of
//! its own. A [`SyncClient`] and its clones keep the connection of a
//! session whose server parked it for the next call.
//!
//! The client can address a named server-side store
//! ([`SyncClient::store`]) and pipeline several protocol rounds into each
//! request-response round trip ([`SyncClient::pipeline`] with a fixed
//! [`Pipeline::Depth`] or the per-trip adaptive [`Pipeline::Auto`]). A
//! client holding the epoch of its previous sync
//! ([`SyncClient::delta_epoch`]) is served the changes since that epoch as
//! a delta stream ([`SyncReport::delta`]) instead of running a
//! reconciliation, falling back transparently when the server's changelog
//! cannot cover the epoch — and can hold the connection open as a live
//! push subscription ([`SyncClient::subscribe`], yielding a
//! [`Subscription`] iterator of [`DeltaReport`]s as the store mutates).
//!
//! ```no_run
//! use pbs_net::{Pipeline, SyncClient};
//!
//! let set: Vec<u64> = (1..=100).collect();
//! let report = SyncClient::connect("127.0.0.1:7777")?
//!     .store("inventory")
//!     .pipeline(Pipeline::Auto)
//!     .sync(&set)?;
//! assert!(report.verified);
//! # Ok::<(), pbs_net::NetError>(())
//! ```

use crate::conn::{ClientConn, ClientOut, Ending};
use crate::event_loop::{nonblocking, Link, Loop, Notice, Role, Session};
pub use crate::machine::{DeltaFold, DeltaReport};
use crate::machine::{Mode, Phase};
use crate::{NetError, TransportConfig};
use pbs_core::PbsConfig;
use std::borrow::Cow;
use std::io;
use std::marker::PhantomData;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How many protocol rounds ride in each sketch/report round trip
/// ([`ClientConfig::pipeline`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pipeline {
    /// Fixed depth per round trip; `Depth(1)` (the default) is the classic
    /// one-round-per-trip protocol, higher depths speculatively ship the
    /// next rounds' sketches in the same frame, trading bytes for round
    /// trips (see [`pbs_core::AliceSession::start_rounds`]). Clamped to
    /// ≥ 1. Negotiated in the handshake: the session uses `min` of this
    /// request and the server's grant (`ServerConfig::max_pipeline_depth`,
    /// default 4).
    Depth(u32),
    /// Adaptive depth: request the server's full grant in the handshake,
    /// then price every trip's speculation before sending it
    /// ([`pbs_core::AliceSession::next_pipeline_depth`]): as many layers,
    /// up to the grant, as cost no more than one TCP segment or an eighth
    /// of the sketch bytes the session has already sent. It optimises
    /// round trips *per byte*: a small difference (d ≲ 200) still ends in
    /// one trip at the full grant; a large one sends its dense first trip
    /// once, as the paper does, and pipelines only the sparse trips after
    /// it — one or two trips fewer than `Depth(1)` for a few percent more
    /// bytes, where a fixed depth k pays k × the bytes and Bob's decode
    /// time to save the same trips. `pbs-sync --pipeline auto`.
    Auto,
}

/// Client-side configuration of one sync.
///
/// Its clocks: [`ClientConfig::session_deadline`] from the connect to the
/// final ack (a live subscription is exempt), and the transport's
/// `read_timeout` of a silent server and `write_timeout` of a stalled
/// write — a subscriber's read window too, so it must exceed the server's
/// keepalive interval.
///
/// Construct with a struct literal over [`ClientConfig::default`]. Most
/// code never touches it directly — [`SyncClient`] carries one internally
/// and exposes the same knobs as fluent methods.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Socket/framing knobs.
    pub transport: TransportConfig,
    /// The session's plan. The `Hello` carries only its `universe_bits`;
    /// the server plans every session with the service plan of that
    /// universe (δ = 5, r = 3, p₀ = 0.99, 128 ToW sketches, the rounds
    /// uncapped), and [`ClientMachine::new`](crate::ClientMachine::new)
    /// refuses a plan whose other fields differ from it.
    pub pbs: PbsConfig,
    /// Difference cardinality known a priori; `None` runs the ToW
    /// estimator exchange.
    pub known_d: Option<u64>,
    /// The seed proposed in the `Hello`. Every hash function of the
    /// session derives from the seed the server's reply names
    /// ([`SyncReport::seed`]): this one, unless the store keeps a view of
    /// its set laid out under a seed of its own making. Two syncs of the
    /// same sets under the same [`SyncReport::seed`] are byte-identical on
    /// the wire.
    pub seed: u64,
    /// Client-side cap on sketch/report *protocol rounds* before giving up
    /// (the server enforces its own cap too; pipelined layers count
    /// individually on both sides). The default comfortably covers the
    /// ≤ 3 rounds the paper's parameterization targets plus splits.
    pub round_cap: u32,
    /// Largest difference parameterization the client will accept —
    /// whether from its own `known_d` or from the server's estimate reply
    /// (a hostile server must not be able to demand per-group state for a
    /// gigantic `d`). Mirrors `ServerConfig::max_d`; see that knob's
    /// documentation for the relationship to the frame-size cap.
    pub max_d: u64,
    /// Name of the server-side store to reconcile against. The empty
    /// string is the default store.
    pub store: String,
    /// Protocol rounds pipelined into each sketch/report round trip: a
    /// fixed depth, or the per-trip adaptive one.
    pub pipeline: Pipeline,
    /// The store epoch this client last synced at. `Some(e)` asks the
    /// server for a delta subscription: when the store's changelog still
    /// covers `e`, the server streams exactly the changes since `e`
    /// ([`SyncReport::delta`]) instead of reconciling — O(|changes|) bytes
    /// — and when it cannot, the sync transparently falls back to a full
    /// reconciliation ([`SyncReport::delta_fallback`]). The epoch to pass
    /// is the [`SyncReport::epoch`] of the previous sync against the same
    /// store.
    pub delta_epoch: Option<u64>,
    /// Wall-clock budget of one sync, from the connect to the final ack;
    /// the client twin of `ServerConfig::session_deadline`. A live
    /// subscription is exempt once its `Subscribe` is out.
    pub session_deadline: Duration,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            transport: TransportConfig::default(),
            pbs: crate::frame::service_plan(32),
            known_d: None,
            seed: 0x9E37_79B9,
            round_cap: 32,
            max_d: 1 << 18,
            store: String::new(),
            pipeline: Pipeline::Depth(1),
            delta_epoch: None,
            session_deadline: Duration::from_secs(120),
        }
    }
}

/// Client-side wall-clock breakdown of one sync, measured around the
/// protocol phases of [`sync`]. The server records its own half of the
/// same phases into `pbs_server_phase_seconds` (see
/// `docs/OBSERVABILITY.md`), so the two views can be laid side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SyncPhases {
    /// TCP connect.
    pub connect: Duration,
    /// `Hello` exchange: request sent to negotiated reply validated.
    pub handshake: Duration,
    /// Estimator exchange; ~zero when `known_d` skipped it.
    pub estimate: Duration,
    /// The sketch/report round loop.
    pub rounds: Duration,
    /// Final element transfer and its ack; zero on delta syncs.
    pub transfer: Duration,
    /// Delta catch-up stream; zero on full reconciliations, and on
    /// fallbacks it covers only the refused catch-up attempt.
    pub delta: Duration,
    /// The whole call, connect included.
    pub total: Duration,
}

impl SyncPhases {
    /// Every phase by name, in presentation order — the one list a
    /// table, a JSON document or a histogram per phase iterates.
    pub fn named(&self) -> [(&'static str, Duration); 7] {
        [
            ("connect", self.connect),
            ("handshake", self.handshake),
            ("estimate", self.estimate),
            ("rounds", self.rounds),
            ("transfer", self.transfer),
            ("delta", self.delta),
            ("total", self.total),
        ]
    }

    /// Record `took` as the duration of the phase a
    /// [`crate::Step`] reported as just ended.
    pub(crate) fn stamp(&mut self, phase: Phase, took: Duration) {
        *match phase {
            Phase::Handshake => &mut self.handshake,
            Phase::Delta => &mut self.delta,
            Phase::Estimate => &mut self.estimate,
            Phase::Rounds => &mut self.rounds,
            Phase::Transfer => &mut self.transfer,
        } = took;
    }
}

/// What a completed (or round-capped) sync observed.
#[derive(Debug, Clone, Default)]
pub struct SyncReport {
    /// The symmetric difference `A△B` as the client recovered it.
    pub recovered: Vec<u64>,
    /// The subset of [`SyncReport::recovered`] the client held and the
    /// server lacked (`A \ B`) — shipped to the server in the final
    /// transfer.
    pub pushed: Vec<u64>,
    /// `true` when every group checksum verified — the recovery is exact.
    pub verified: bool,
    /// Protocol rounds executed (pipelined layers counted individually).
    pub rounds: u32,
    /// Sketch/report round trips spent — equals `rounds` unless rounds
    /// were pipelined.
    pub round_trips: u32,
    /// Group-layers sent beyond each trip's first: what pipelining
    /// speculated, in sketches (zero at [`Pipeline::Depth`]`(1)`).
    pub speculative_layers: u64,
    /// Those of [`SyncReport::speculative_layers`] that came back to a
    /// group an earlier layer of the same trip had already verified — the
    /// speculation that bought nothing. `unused / layers` near 1 with
    /// `round_trips` no lower than an unpipelined run's says the depth is
    /// too high for this workload.
    pub speculative_unused: u64,
    /// The seed the session ran under: the `Hello` reply's — the client's
    /// own proposal ([`ClientConfig::seed`]) unless the store keeps a view
    /// of its set, laid out under a seed it derived itself. Re-deriving the
    /// session in-process takes this seed.
    pub seed: u64,
    /// The difference cardinality the session was parameterized with.
    pub d_param: u64,
    /// The raw ToW estimate, when the estimator exchange ran.
    pub estimated_d: Option<f64>,
    /// The epoch baseline this sync established, always `Some`: after a
    /// delta sync, the epoch the stream ended at; after a full
    /// reconciliation, the epoch of the snapshot it ran against. Feed it
    /// back as [`ClientConfig::delta_epoch`] next time.
    pub epoch: Option<u64>,
    /// The delta stream this sync was served from, when the requested
    /// [`ClientConfig::delta_epoch`] was granted. `None` on full
    /// reconciliations.
    pub delta: Option<DeltaReport>,
    /// `true` when a requested delta subscription could not be served
    /// (the changelog no longer reaches the epoch) and the sync fell back
    /// to a full reconciliation.
    pub delta_fallback: bool,
    /// Wire bytes sent, framing included.
    pub bytes_sent: u64,
    /// Wire bytes received, framing included.
    pub bytes_received: u64,
    /// Frames sent.
    pub frames_sent: u64,
    /// Frames received.
    pub frames_received: u64,
    /// Wall-clock breakdown by protocol phase.
    pub phases: SyncPhases,
}

impl SyncReport {
    /// The session's wire bytes — both directions, framing, handshake and
    /// estimator exchange included — as a multiple of `d·log|U|`, the
    /// information-theoretic minimum for the `d` elements it recovered
    /// over a `universe_bits`-bit universe: the paper's communication
    /// overhead (§8.1.2 reports 2.13–2.87 for PBS, the estimator left
    /// out). `None` when nothing was recovered — identical sets, a delta
    /// sync — and the minimum is zero.
    pub fn overhead_x_min(&self, universe_bits: u32) -> Option<f64> {
        let minimum = protocol::theoretical_minimum_bytes(self.recovered.len(), universe_bits);
        let wire = self.bytes_sent + self.bytes_received;
        (minimum > 0.0).then(|| wire as f64 / minimum)
    }

    /// Fill in the transport half: `(sent, received)` bytes and frames.
    fn ledger(mut self, bytes: (u64, u64), frames: (u64, u64)) -> SyncReport {
        (self.bytes_sent, self.bytes_received) = bytes;
        (self.frames_sent, self.frames_received) = frames;
        self
    }

    /// `recovered \ pushed`: what the server held and the client lacked
    /// (`B \ A`) — the client's to apply. One linear merge; both lists are
    /// ascending.
    pub(crate) fn pulled(&self) -> Vec<u64> {
        let mut pushed = self.pushed.iter().copied().peekable();
        let mut pulled = Vec::with_capacity(self.recovered.len().saturating_sub(self.pushed.len()));
        for &e in &self.recovered {
            while pushed.next_if(|&p| p < e).is_some() {}
            if pushed.peek() != Some(&e) {
                pulled.push(e);
            }
        }
        pulled
    }
}

/// A configured connection target: the primary client entry point.
///
/// Built fluently from an address, then driven with [`SyncClient::sync`]
/// (one reconciliation or delta sync per call) or
/// [`SyncClient::subscribe`] (a live push subscription):
///
/// ```no_run
/// use pbs_net::{Pipeline, SyncClient};
///
/// let set: Vec<u64> = (1..=100).collect();
/// let client = SyncClient::connect("127.0.0.1:7777")?
///     .store("inventory")
///     .pipeline(Pipeline::Auto);
/// let report = client.sync(&set)?;
/// for delta in client.subscribe(report.epoch.unwrap())? {
///     let delta = delta?;
///     println!("+{} -{} @{}", delta.added.len(), delta.removed.len(), delta.to_epoch);
/// }
/// # Ok::<(), pbs_net::NetError>(())
/// ```
///
/// One client can be reused (and shared immutably) across any number of
/// syncs, and a clone family keeps at most one idle connection: a call
/// that ends in a report — the server parks every session it acks —
/// leaves its connection to the family, and the next call of any of them
/// (a [`SyncClient::subscribe`] too) runs its session there instead of
/// connecting. A kept connection that fails before the server answers its
/// `Hello` — closed meanwhile on the server's read-idle window, say — is
/// dropped, and the session runs once more on a fresh one. Each report
/// counts its own session's bytes.
#[derive(Debug, Clone)]
pub struct SyncClient {
    addrs: Vec<SocketAddr>,
    config: ClientConfig,
    idle: Idle,
}

/// The connection a [`SyncClient`] family keeps between calls.
type Idle = Arc<Mutex<Option<TcpStream>>>;

impl SyncClient {
    /// Resolve `addr` and build a client with the default configuration.
    ///
    /// Name resolution happens once, here; a socket is opened by the first
    /// [`SyncClient::sync`] / [`SyncClient::subscribe`] call, and by any
    /// that finds no connection kept.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "address resolved to no socket addresses",
            )));
        }
        Ok(SyncClient {
            addrs,
            config: ClientConfig::default(),
            idle: Idle::default(),
        })
    }

    /// Address a named server-side store ([`ClientConfig::store`]).
    pub fn store(mut self, name: impl Into<String>) -> Self {
        self.config.store = name.into();
        self
    }

    /// Pipeline depth policy ([`Pipeline`]).
    pub fn pipeline(mut self, pipeline: Pipeline) -> Self {
        self.config.pipeline = pipeline;
        self
    }

    /// Session hash seed ([`ClientConfig::seed`]).
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Epoch of the previous sync, requesting a delta stream
    /// ([`ClientConfig::delta_epoch`]).
    pub fn delta_epoch(mut self, epoch: u64) -> Self {
        self.config.delta_epoch = Some(epoch);
        self
    }

    /// Replace the whole configuration — the escape hatch for knobs
    /// without a dedicated builder method (PBS parameters, a
    /// pre-assembled [`ClientConfig`]).
    pub fn config(mut self, config: ClientConfig) -> Self {
        self.config = config;
        self
    }

    /// Run one sync (see the free [`sync`] for the report's semantics).
    pub fn sync(&self, set: &[u64]) -> Result<SyncReport, NetError> {
        let mode = match self.config.delta_epoch {
            Some(since) => Mode::Delta { since },
            None => Mode::Full,
        };
        Call::of(self, set, mode).report()
    }

    /// Open a live push subscription from `epoch`.
    ///
    /// The handshake carries `epoch`; the server's catch-up delta stream
    /// (everything between `epoch` and its current state) becomes the
    /// first item the returned [`Subscription`] yields, and a `Subscribe`
    /// frame then parks the session in the server's streaming state: every
    /// subsequent store mutation is pushed as another [`DeltaReport`]. Pass
    /// the [`SyncReport::epoch`] of a previous sync against the same store
    /// (a fresh client therefore syncs first, then subscribes from the
    /// epoch that sync returned).
    ///
    /// Fails with [`NetError::Remote`]/[`NetError::Protocol`] when the
    /// server cannot serve the epoch (the changelog no longer reaches it)
    /// — run a full [`SyncClient::sync`] and subscribe from its epoch
    /// instead. Retry policies do not apply: a dropped subscription must
    /// not silently skip epochs.
    pub fn subscribe(&self, epoch: u64) -> Result<Subscription, NetError> {
        let mode = Mode::Subscribe { since: epoch };
        let mut call = Call::of(self, &[], mode);
        let mut initial = None;
        // Park before returning: from here the server pushes.
        loop {
            match call.next() {
                Dialed::Push(catch_up) => initial = Some(catch_up),
                Dialed::Parked => break,
                Dialed::Ended(ended) => {
                    return Err(match ended.into_report() {
                        Err(error) => error,
                        Ok(_) => NetError::Protocol("a subscription ended in a report".into()),
                    })
                }
            }
        }
        Ok(Subscription {
            call,
            initial,
            over: None,
        })
    }
}

/// One session on a loop of its own, run on the caller's thread: no
/// thread, no wake pipe, and the connection borrows the caller's set.
/// `poll` sleeps until the socket is ready or the connection's next timer
/// comes due, as on a worker.
struct Call<'a> {
    lp: Loop<Dial<'a>>,
    said: mpsc::Receiver<Dialed>,
    /// A session on a kept connection that the server has not answered
    /// yet: the call that runs it again on a fresh one.
    again: Option<Again<'a>>,
}

/// What a session on a kept connection is run again with, once.
struct Again<'a> {
    client: SyncClient,
    set: &'a [u64],
    mode: Mode,
}

impl<'a> Call<'a> {
    /// A session on `kept`, or on a connection to `addr`; a family's
    /// `idle` slot keeps it if its server parks it.
    fn open(
        addr: impl ToSocketAddrs,
        config: &ClientConfig,
        set: &'a [u64],
        mode: Mode,
        kept: Option<TcpStream>,
        idle: Option<&Idle>,
    ) -> Self {
        let (tx, said) = mpsc::channel();
        let watch: Watch = Box::new(move |dialed| {
            let _ = tx.send(dialed);
        });
        let mut lp = Loop::new();
        let dialed = connect(addr, config, set, mode, watch, kept, idle);
        if let Some((session, out)) = dialed {
            lp.open(&mut Dial(PhantomData), session, out);
        }
        Call {
            lp,
            said,
            again: None,
        }
    }

    /// `client`'s session, on its family's kept connection if there is one.
    fn of(client: &SyncClient, set: &'a [u64], mode: Mode) -> Self {
        let (addrs, config, idle) = (&client.addrs[..], &client.config, &client.idle);
        let kept = idle.lock().unwrap_or_else(PoisonError::into_inner).take();
        let reused = kept.is_some();
        let mut call = Call::open(addrs, config, set, mode, kept, Some(idle));
        call.again = reused.then(|| Again {
            client: client.clone(),
            set,
            mode,
        });
        call
    }

    /// Run the loop until the session has something to say. A session on
    /// a kept connection that ends before the server answered its `Hello`
    /// runs again on a fresh one, once.
    fn next(&mut self) -> Dialed {
        loop {
            match self.said.try_recv() {
                Ok(Dialed::Ended(ended)) if ended.error.is_some() && self.again.is_some() => {
                    let Some(Again { client, set, mode }) = self.again.take() else {
                        return Dialed::Ended(ended);
                    };
                    let (addrs, config) = (&client.addrs[..], &client.config);
                    *self = Call::open(addrs, config, set, mode, None, Some(&client.idle));
                }
                Ok(dialed) => return dialed,
                // A session says `Ended` before its watch goes.
                Err(mpsc::TryRecvError::Disconnected) => return Dialed::Ended(Box::default()),
                Err(mpsc::TryRecvError::Empty) => {
                    self.lp.turn(&mut Dial(PhantomData), None);
                    // (A session is reaped a turn after it ended: what it
                    // was told is read here first.)
                    if self.lp.sessions.first().is_some_and(|s| s.conn.answered()) {
                        self.again = None;
                    }
                }
            }
        }
    }

    /// Run a one-shot session to its report.
    fn report(mut self) -> Result<SyncReport, NetError> {
        loop {
            if let Dialed::Ended(ended) = self.next() {
                return ended.into_report();
            }
        }
    }
}

/// A live push subscription (see [`SyncClient::subscribe`]): a blocking
/// iterator of the delta streams the server pushes as the store mutates.
///
/// The first item is the catch-up delta between the subscribed epoch and
/// the server's state at subscription time (possibly empty — it still
/// carries the epoch baseline). Each subsequent item covers one or more
/// coalesced store mutations. Keepalive `Ping`s are answered internally.
/// What bounds `next()` is the connection's read-idle timer: the
/// transport's `read_timeout` without a frame from the server ends the
/// subscription in a `TimedOut` error (the server pings within its
/// keepalive interval, so a healthy but idle subscription never times out
/// as long as that interval is below the client's read timeout). A write
/// — a `Pong` — is bounded by the write-stall timer, `write_timeout`.
///
/// Iteration ends (`None`) when the server closes the stream — on server
/// shutdown, for instance. A backpressure eviction
/// (`FullResyncRequired`) or any transport/protocol failure yields one
/// final `Err` and then ends; after an error the client's cached state is
/// only valid up to the last [`DeltaReport::to_epoch`] it yielded, so
/// reconcile before resubscribing.
pub struct Subscription {
    call: Call<'static>,
    initial: Option<DeltaReport>,
    /// Bytes and frames received, once the session is over.
    over: Option<(u64, u64)>,
}

// The benchmark moves a subscription into each subscriber thread.
const _: fn() = || {
    fn send<T: Send>() {}
    send::<Subscription>();
};

impl std::fmt::Debug for Subscription {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Subscription")
            .field("initial", &self.initial)
            .field("received", &self.received())
            .finish_non_exhaustive()
    }
}

impl Subscription {
    /// Total wire bytes received on this subscription so far (framing
    /// included; handshake and catch-up included).
    pub fn bytes_received(&self) -> u64 {
        self.received().0
    }

    /// Frames received on this subscription so far (handshake and
    /// catch-up included).
    pub fn frames_received(&self) -> u64 {
        self.received().1
    }

    /// Bytes and frames received: the stream's ledger, or what it read
    /// when the session ended.
    fn received(&self) -> (u64, u64) {
        let live = self.call.lp.sessions.first();
        let live = live.map(|s| (s.nb.bytes_in(), s.nb.frames_in()));
        live.or(self.over).unwrap_or_default()
    }
}

impl Iterator for Subscription {
    type Item = Result<DeltaReport, NetError>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some(initial) = self.initial.take() {
            return Some(Ok(initial));
        }
        while self.over.is_none() {
            match self.call.next() {
                Dialed::Push(push) => return Some(Ok(push)),
                Dialed::Parked => {}
                Dialed::Ended(ended) => {
                    self.over = Some((ended.bytes_in, ended.frames_in));
                    // A clean close between push bursts is the server
                    // shutting the stream down, not a failure.
                    if let Some(error) = ended.error {
                        return Some(Err(error));
                    }
                }
            }
        }
        None
    }
}

/// Reconcile `set` with the server at `addr`.
///
/// The free-function form predating [`SyncClient`]; prefer
/// `SyncClient::connect(addr)?.sync(&set)`, which adds fluent
/// configuration and subscriptions on the same type.
///
/// On success the returned [`SyncReport`] carries `A△B`; the elements of
/// `A \ B` were pushed to the server, so afterwards both parties can hold
/// `A ∪ B` (the client by inserting `recovered ∖ pushed`, the server by
/// ingesting the transfer). `verified == false` means the round cap fired
/// before every group checksum passed — the recovery is best-effort and
/// the caller should retry: under a fresh seed. Where the session ran under
/// its own proposal, that is a fresh [`ClientConfig::seed`]; where the
/// reply named the seed of the store's view ([`SyncReport::seed`] differs
/// from the proposal), the server that saw the session give up has made
/// the store let go of that seed, and answers the retry with another.
pub fn sync(
    addr: impl ToSocketAddrs,
    set: &[u64],
    config: &ClientConfig,
) -> Result<SyncReport, NetError> {
    let mode = match config.delta_epoch {
        Some(since) => Mode::Delta { since },
        None => Mode::Full,
    };
    Call::open(addr, config, set, mode, None, None).report()
}

/// Bounded retry with exponential backoff and deterministic jitter, for
/// riding out transient connect/IO failures — most importantly a server
/// restarting into its recovered state (`pbs-sync --retry`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (1 = no retry). Clamped to ≥ 1.
    pub attempts: u32,
    /// Backoff before the second attempt; doubles per further attempt.
    pub base_delay: Duration,
    /// Backoff ceiling.
    pub max_delay: Duration,
    /// Seed of the deterministic jitter sequence (so tests and reproduced
    /// runs sleep identically). Each delay is drawn uniformly from
    /// `[backoff/2, backoff]` — "equal jitter", which de-synchronizes a
    /// fleet of clients hammering a restarting server while keeping the
    /// exponential envelope.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 5,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(5),
            jitter_seed: 0x5EED_CAFE,
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before attempt `attempt + 1` (`attempt` is
    /// 1-based: pass 1 after the first failure). Advances `rng` (xorshift).
    pub(crate) fn backoff(&self, attempt: u32, rng: &mut u64) -> Duration {
        let exp = attempt.saturating_sub(1).min(20);
        let full = self
            .base_delay
            .saturating_mul(1u32 << exp)
            .min(self.max_delay);
        let mut x = (*rng).max(1);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *rng = x;
        let half = full / 2;
        let span_nanos = full.saturating_sub(half).as_nanos().max(1) as u64;
        half + Duration::from_nanos(x % span_nanos)
    }
}

/// `true` for failures worth retrying: connection-level I/O errors
/// (refused, reset, aborted, timed out, broken pipe, unexpected EOF) — the
/// shapes a restarting or briefly overloaded server produces. Protocol
/// violations, peer-reported errors, and framing corruption are never
/// transient: retrying them would re-run a sync that is wrong, not unlucky.
fn is_transient(err: &NetError) -> bool {
    use std::io::ErrorKind;
    match err {
        NetError::Io(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionRefused
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::NotConnected
                | ErrorKind::BrokenPipe
                | ErrorKind::TimedOut
                | ErrorKind::WouldBlock
                | ErrorKind::UnexpectedEof
                | ErrorKind::Interrupted
        ),
        NetError::Frame(_) | NetError::Remote { .. } | NetError::Protocol(_) => false,
    }
}

/// [`sync`] with bounded retry (`pbs-sync --retry`).
///
/// Transient failures (connection-level I/O errors, `is_transient`)
/// back off exponentially (with jitter) and try again, up to
/// [`RetryPolicy::attempts`]; anything else — and the last transient
/// failure once attempts are exhausted — is returned as-is. On success the
/// report comes back with the 1-based attempt number that succeeded.
pub fn sync_with_retry<A: ToSocketAddrs>(
    addr: A,
    set: &[u64],
    config: &ClientConfig,
    policy: &RetryPolicy,
) -> Result<(SyncReport, u32), NetError> {
    let attempts = policy.attempts.max(1);
    let mut rng = policy.jitter_seed;
    let mut attempt = 1;
    loop {
        match sync(&addr, set, config) {
            Ok(report) => return Ok((report, attempt)),
            Err(e) if attempt < attempts && is_transient(&e) => {
                let delay = policy.backoff(attempt, &mut rng);
                eprintln!(
                    "pbs-sync: transient failure on attempt {attempt}/{attempts}: {e}; \
                     retrying in {delay:?}"
                );
                std::thread::sleep(delay);
                attempt += 1;
            }
            Err(e) => return Err(e),
        }
    }
}

/// What a dialed session says as it runs: each [`Dialed::Push`] of a
/// subscription (the catch-up first), [`Dialed::Parked`] once it is live,
/// then [`Dialed::Ended`] once.
#[derive(Debug)]
pub enum Dialed {
    /// A delta stream: a subscription's catch-up, then each push burst.
    Push(DeltaReport),
    /// The `Subscribe` is out: the session is a live subscription.
    Parked,
    /// The session is over.
    Ended(Box<Ended>),
}

/// A dialed session, over.
#[derive(Debug, Default)]
pub struct Ended {
    /// The sync's report, transport ledger and phases filled in, for a
    /// session that ran to its final ack.
    pub report: Option<SyncReport>,
    /// Why the session failed; `None` after a report, and for a
    /// subscription whose stream ended between bursts (or that
    /// [`Dialer::shutdown`] ended there).
    pub error: Option<NetError>,
    /// It was a live subscription when it ended.
    pub parked: bool,
    /// The phases stamped; a subscriber's `total` runs to its park.
    pub phases: SyncPhases,
    /// Wire bytes received, framing included.
    pub bytes_in: u64,
    /// Wire bytes sent, framing included.
    pub bytes_out: u64,
    /// Frames received.
    pub frames_in: u64,
}

impl Ended {
    /// The report of a one-shot sync, or why it has none.
    fn into_report(self) -> Result<SyncReport, NetError> {
        let eof = || NetError::Io(io::ErrorKind::UnexpectedEof.into());
        self.report.ok_or_else(|| self.error.unwrap_or_else(eof))
    }
}

/// Told what becomes of a dialed session, on the thread that runs it.
type Watch = Box<dyn FnMut(Dialed) + Send>;

/// Stand a session of `set` in `mode` where its `Hello` is owed, on the
/// `kept` connection or else on one to `addr`; `watch` is told what
/// becomes of it, and a family's `idle` slot keeps the connection if the
/// server parks it. A request the client refuses, or a connect that fails,
/// ends at once (and leaves `kept` to close).
fn connect<'a>(
    addr: impl ToSocketAddrs,
    config: &ClientConfig,
    set: impl Into<Cow<'a, [u64]>>,
    mode: Mode,
    mut watch: Watch,
    kept: Option<TcpStream>,
    idle: Option<&Idle>,
) -> Option<(Session<Dial<'a>>, ClientOut)> {
    let opened = ClientConn::new(config, set, mode, Instant::now()).and_then(|conn| {
        let stream = match kept {
            Some(stream) => stream,
            None => {
                let stream = TcpStream::connect(addr)?;
                nonblocking(&stream)?;
                stream
            }
        };
        Ok((conn, stream))
    });
    let (mut conn, stream) = match opened {
        Ok(opened) => opened,
        Err(error) => {
            let error = Some(error);
            watch(Dialed::Ended(Box::new(Ended {
                error,
                ..Ended::default()
            })));
            return None;
        }
    };
    let out = conn.connected(Instant::now());
    let tag = Dialing {
        watch,
        parked: false,
        idle: idle.cloned(),
    };
    let session = Session::new(stream, config.transport.max_frame, conn, tag);
    Some((session, out))
}

/// Outbound sessions by the thousand on a few threads: each of
/// `workers` threads runs the readiness loop the server runs on
/// (`event_loop.rs`), over the client connections dialed to it. [`sync`]
/// and [`Subscription`] run the same loop over their one connection on
/// the caller's thread; a load harness holds its crowd here.
pub struct Dialer {
    links: Vec<Link<Dial<'static>>>,
    joins: Vec<JoinHandle<()>>,
    next: AtomicUsize,
}

impl Dialer {
    /// Spawn `workers` loops (at least one).
    pub fn start(workers: usize) -> io::Result<Dialer> {
        let (mut links, mut joins) = (Vec::new(), Vec::new());
        for i in 0..workers.max(1) {
            let (link, inbox) = Link::new()?;
            let name = format!("pbs-net-dial-{i}");
            joins.push(Loop::spawn(inbox, name, Dial(PhantomData))?);
            links.push(link);
        }
        Ok(Dialer {
            links,
            joins,
            next: AtomicUsize::new(0),
        })
    }

    /// Connect to `addr` on this thread, then hand a session of `set` in
    /// `mode` to a loop, round-robin; `watch` is told what becomes of it
    /// (on the loop's thread). A request the client refuses, or a connect
    /// that fails, ends at once.
    pub fn dial(
        &self,
        addr: SocketAddr,
        config: &ClientConfig,
        set: Vec<u64>,
        mode: Mode,
        watch: impl FnMut(Dialed) + Send + 'static,
    ) {
        let dialed = connect(addr, config, set, mode, Box::new(watch), None, None);
        if let Some((session, out)) = dialed {
            let link = &self.links[self.next.fetch_add(1, Ordering::Relaxed) % self.links.len()];
            link.send(Notice::Open(session, out));
        }
    }

    /// End every session still open and join the loops: a subscription
    /// between bursts ends cleanly, any other session fails.
    pub fn shutdown(self) {
        // With its last link gone, a loop ends every session and exits.
        drop(self.links);
        for join in self.joins {
            let _ = join.join();
        }
    }
}

/// The client's half of a loop — a `Dialer`'s worker, or a blocking call
/// on its caller's thread — over connections borrowing their sets for
/// `'a`: every decision is the connection's.
struct Dial<'a>(PhantomData<&'a [u64]>);

/// What a dialed session's loop keeps beside its connection.
struct Dialing {
    watch: Watch,
    parked: bool,
    /// The slot of the [`SyncClient`] family the session belongs to.
    idle: Option<Idle>,
}

/// Nothing but connections wakes a dialing loop.
enum NoNotice {}

impl<'a> Role for Dial<'a> {
    type Conn = ClientConn<'a>;
    type Tag = Dialing;
    type Notice = NoNotice;

    fn notice(&mut self, _lp: &mut Loop<Self>, notice: NoNotice) {
        match notice {}
    }

    fn carry_out(&mut self, lp: &mut Loop<Self>, i: usize, out: ClientOut) {
        if !lp.queue(i, &out.frames) {
            return;
        }
        let sess = &mut lp.sessions[i];
        if let Some(push) = out.push {
            (sess.tag.watch)(Dialed::Push(push));
        }
        if !sess.tag.parked && sess.conn.parked() {
            sess.tag.parked = true;
            (sess.tag.watch)(Dialed::Parked);
        }
        lp.flush(self, i);
    }

    /// Tell the watch how the session ended. A family's session whose
    /// server parked it leaves the connection, at rest, to the family.
    fn reap(&mut self, mut sess: Session<Self>) {
        let nb = &sess.nb;
        let (report, error) = match sess.conn.take_ending() {
            Some(Ending::Report(report)) => {
                let ledger = (nb.bytes_out(), nb.bytes_in());
                (
                    Some((*report).ledger(ledger, (nb.frames_out(), nb.frames_in()))),
                    None,
                )
            }
            Some(Ending::Failed(error)) => (None, Some(error)),
            Some(Ending::Closed) | None => (None, None),
        };
        let ended = Ended {
            report,
            error,
            parked: sess.tag.parked,
            phases: sess.conn.phases(),
            bytes_in: nb.bytes_in(),
            bytes_out: nb.bytes_out(),
            frames_in: nb.frames_in(),
        };
        // The server parks every session it acks.
        if let Some(idle) = sess.tag.idle.as_ref().filter(|_| ended.report.is_some()) {
            if let Some(stream) = sess.nb.into_idle() {
                *idle.lock().unwrap_or_else(PoisonError::into_inner) = Some(stream);
            }
        }
        (sess.tag.watch)(Dialed::Ended(Box::new(ended)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{Server, ServerConfig};
    use crate::store::MutableStore;
    use crate::TransportConfig;
    use std::net::TcpListener;
    use std::sync::Arc;

    /// `run` on a thread of its own, waited for a bounded time: a loop
    /// that never wakes fails the test instead of hanging it.
    fn bounded<T: Send + 'static>(run: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(run()));
        let waited = rx.recv_timeout(Duration::from_secs(10));
        waited.expect("the caller's loop never woke")
    }

    /// The blocking client's clocks over a real socket: a call sleeps in
    /// `poll` until its connection's next timer, and fires it. A sync
    /// against a server that accepts and never writes fails at its read
    /// window; a subscription to a server that pings less often than that
    /// window yields its catch-up, then the timeout, then ends.
    #[test]
    fn a_blocking_call_times_a_silent_server_out() {
        let read = Duration::from_millis(200);
        let config = ClientConfig {
            transport: TransportConfig {
                read_timeout: Some(read),
                ..TransportConfig::default()
            },
            ..ClientConfig::default()
        };
        let timed_out = |error: &NetError| {
            let NetError::Io(e) = error else { return false };
            let named = e.to_string().contains("no frame from the server in time");
            e.kind() == io::ErrorKind::TimedOut && named
        };

        let silent = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = silent.local_addr().unwrap();
        let accepted = std::thread::spawn(move || silent.accept().map(|(stream, _)| stream));
        let client = config.clone();
        let (result, took) = bounded(move || {
            let start = Instant::now();
            (sync(addr, &[1, 2, 3], &client), start.elapsed())
        });
        assert!(result.as_ref().is_err_and(timed_out), "{result:?}");
        assert!(read <= took && took < Duration::from_secs(2), "{took:?}");
        drop(accepted.join());

        let store = Arc::new(MutableStore::new(1..=100u64));
        let server = ServerConfig {
            keepalive: Duration::from_secs(60),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", store, server).unwrap();
        let client = SyncClient::connect(server.local_addr()).unwrap();
        let client = client.config(config);
        let items = bounded(move || client.subscribe(0).map(Iterator::collect::<Vec<_>>));
        match &items.unwrap()[..] {
            [Ok(catch_up), Err(error)] if timed_out(error) => assert_eq!(catch_up.batches, 0),
            items => panic!("expected the catch-up, then a timeout: {items:?}"),
        }
        server.shutdown();
    }

    #[test]
    fn transient_classification() {
        let io = |kind| NetError::Io(std::io::Error::new(kind, "x"));
        assert!(is_transient(&io(std::io::ErrorKind::ConnectionRefused)));
        assert!(is_transient(&io(std::io::ErrorKind::ConnectionReset)));
        assert!(is_transient(&io(std::io::ErrorKind::UnexpectedEof)));
        assert!(is_transient(&io(std::io::ErrorKind::TimedOut)));
        assert!(!is_transient(&io(std::io::ErrorKind::PermissionDenied)));
        assert!(!is_transient(&NetError::Protocol("bad".into())));
        assert!(!is_transient(&NetError::Frame(crate::FrameError::BadCrc)));
        assert!(!is_transient(&NetError::Remote {
            code: crate::frame::ErrorCode::Internal,
            message: "boom".into(),
        }));
    }

    #[test]
    fn backoff_grows_exponentially_with_bounded_jitter() {
        let policy = RetryPolicy {
            attempts: 8,
            base_delay: Duration::from_millis(100),
            max_delay: Duration::from_secs(2),
            jitter_seed: 42,
        };
        let mut rng = policy.jitter_seed;
        let mut prev_full = Duration::ZERO;
        for attempt in 1..=8u32 {
            let d = policy.backoff(attempt, &mut rng);
            let full = policy
                .base_delay
                .saturating_mul(1u32 << (attempt - 1).min(20))
                .min(policy.max_delay);
            assert!(
                d >= full / 2 && d <= full,
                "attempt {attempt}: {d:?} vs {full:?}"
            );
            assert!(full >= prev_full, "envelope is monotone");
            prev_full = full;
        }
        assert_eq!(prev_full, Duration::from_secs(2), "cap reached");
        // Determinism: the same seed replays the same delays.
        let (mut a, mut b) = (policy.jitter_seed, policy.jitter_seed);
        for attempt in 1..=5 {
            assert_eq!(
                policy.backoff(attempt, &mut a),
                policy.backoff(attempt, &mut b)
            );
        }
    }

    #[test]
    fn overhead_is_wire_bytes_over_d_log_u() {
        let report = SyncReport {
            recovered: (1..=1000).collect(),
            bytes_sent: 4_000,
            bytes_received: 7_000,
            ..SyncReport::default()
        };
        assert_eq!(report.overhead_x_min(32), Some(2.75));
        assert_eq!(report.overhead_x_min(64), Some(1.375));
        assert_eq!(SyncReport::default().overhead_x_min(32), None);
    }

    #[test]
    fn pulled_is_recovered_minus_pushed() {
        let pulled = |recovered: &[u64], pushed: &[u64]| {
            SyncReport {
                recovered: recovered.to_vec(),
                pushed: pushed.to_vec(),
                ..SyncReport::default()
            }
            .pulled()
        };
        assert_eq!(pulled(&[], &[]), Vec::<u64>::new());
        assert_eq!(pulled(&[1, 5, 9], &[]), vec![1, 5, 9], "disjoint");
        assert_eq!(pulled(&[1, 5, 9], &[1, 5, 9]), Vec::<u64>::new());
        assert_eq!(pulled(&[1, 2, 5, 8, 9, 12], &[2, 8, 9]), vec![1, 5, 12]);
        assert_eq!(pulled(&[3, 4, u64::MAX], &[4]), vec![3, u64::MAX]);
    }

    #[test]
    fn a_zero_pipeline_depth_asks_for_one_round_a_trip() {
        let clamped = ClientConfig {
            pipeline: Pipeline::Depth(0),
            ..ClientConfig::default()
        };
        let mut machine = crate::ClientMachine::new(&clamped, Vec::new(), Mode::Full).unwrap();
        match machine.poll_send().unwrap() {
            Some(crate::Frame::Hello(hello)) => assert_eq!(hello.pipeline, 1),
            other => panic!("expected the Hello, got {other:?}"),
        }
    }

    #[test]
    fn sync_client_builder_configures_and_resolves() {
        let client = SyncClient::connect("127.0.0.1:9")
            .expect("literal addr resolves")
            .store("live")
            .pipeline(Pipeline::Auto)
            .seed(0xF00D)
            .delta_epoch(42);
        assert_eq!(client.config.store, "live");
        assert_eq!(client.config.pipeline, Pipeline::Auto);
        assert_eq!(client.config.seed, 0xF00D);
        assert_eq!(client.config.delta_epoch, Some(42));

        // subscribe() fail-fast checks run before any connect.
        let long = SyncClient::connect("127.0.0.1:9")
            .unwrap()
            .store("s".repeat(crate::frame::MAX_STORE_NAME + 1));
        assert!(matches!(long.subscribe(0), Err(NetError::Protocol(_))));
    }

    #[test]
    fn non_transient_errors_do_not_retry() {
        // A request the machine refuses fails immediately even with a
        // generous policy (no sleeping, no attempts burned).
        let config = ClientConfig {
            known_d: Some(u64::MAX),
            ..ClientConfig::default()
        };
        let policy = RetryPolicy {
            attempts: 10,
            base_delay: Duration::from_secs(10),
            ..RetryPolicy::default()
        };
        let start = std::time::Instant::now();
        let err = sync_with_retry("127.0.0.1:1", &[1], &config, &policy).unwrap_err();
        assert!(matches!(err, NetError::Protocol(_)));
        assert!(start.elapsed() < Duration::from_secs(1));
    }
}
