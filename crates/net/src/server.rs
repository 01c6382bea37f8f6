//! The reconciliation session server: a TCP acceptor feeding N
//! event-loop workers (the `event_loop` module), each driving one
//! sans-IO protocol machine per connection (the `server_machine` module)
//! and lending it to a set-up thread of its own for a full session's
//! O(|B|) set-up.
//!
//! The server's half of a worker is here: what a `ServerConn`'s
//! decisions mean beyond their frames — the phase histograms and trace
//! events at the boundaries it crosses, a heavy set-up unit sent down the
//! set-up thread's FIFO (the connection takes no frame until it comes
//! back), a subscriber's catch-up and its pushes when a store it follows
//! changes, and the byte ledger of a session reaped.
//!
//! Each accepted connection runs the `docs/WIRE.md` session: handshake
//! (with store routing through the [`StoreRegistry`]) →
//! optional estimator exchange → sketch/report rounds (possibly pipelined:
//! one `Sketches` frame may carry several consecutive rounds' layers) →
//! final element transfer. A `Hello` carrying the client's last-known
//! store epoch short-circuits all of that when the store's changelog still
//! covers the epoch: the server streams the changes since it (`DeltaBatch*`
//! → `DeltaDone`). A session that holds an epoch baseline (from either
//! path) may then send `Subscribe` to go *live*: the server pushes every
//! subsequent store mutation to it as `DeltaBatch*` → `DeltaDone` bursts
//! until the subscriber disconnects, stalls past its buffer cap
//! (`FullResyncRequired` + close), or stops answering keepalive pings.
//! Outside the delta/push paths the server is the *responder* throughout —
//! it never sends a frame except in reply. Hostile input is bounded at
//! every layer: frame sizes by the transport cap, the universe by
//! `Hello::config` and by the store's widest element, the parameterized
//! difference by [`ServerConfig::max_d`], rounds by
//! [`ServerConfig::round_cap`], pipelining by
//! [`ServerConfig::max_pipeline_depth`], wall clock by
//! [`ServerConfig::session_deadline`], concurrent subscriptions by
//! [`ServerConfig::max_subscribers`], per-subscriber memory by
//! [`ServerConfig::subscriber_buffer`], and sketch shapes are validated
//! against the negotiated codec before they reach the BCH codec's
//! `Sketch::combine` capacity assertion.

use crate::conn::{Connection, Due, Out, Renewed, ServerConn};
use crate::event_loop::{nonblocking, Link, Loop, Notice, Role, Session};
use crate::frame::{ErrorCode, Frame};
use crate::mux::MuxStream;
use crate::server_machine::{refuse, Crossed, Refusal, Resources, ServerMachine, Step};
use crate::store::{RegisteredStore, StoreRegistry};
use crate::TransportConfig;
use obs::trace::{self, Level, Value};
use obs::{Gauge, Histogram};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::store::SetStore;

/// Server-side limits and event-loop sizing.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Socket/framing knobs applied to every accepted connection.
    pub transport: TransportConfig,
    /// Event-loop worker threads, each with a set-up thread beside it (a
    /// server runs `2 × workers` threads and an acceptor). A worker
    /// multiplexes any number of sessions over a readiness loop and hands
    /// the O(|B|) set-up of its full sessions to its set-up thread, which
    /// runs them one at a time in arrival order. So this sizes CPU
    /// parallelism — not the concurrent-session cap: there is none beyond
    /// the OS, on the sessions a loop holds or on the set-up units queued
    /// behind its thread. That cap, and the typed `Busy` refusal past it,
    /// is the half of ROADMAP direction 5 still to come.
    pub workers: usize,
    /// Hard cap on sketch/report rounds per session.
    pub round_cap: u32,
    /// Wall-clock budget per session, measured from its accept — or its
    /// `Hello`, on a connection a client kept — to the final ack. Live
    /// subscriptions are exempt — once a session reaches its ack it may
    /// stay subscribed indefinitely.
    pub session_deadline: Duration,
    /// Largest difference cardinality the server will parameterize a
    /// session for (bounds the group count a hostile `known_d` or a wild
    /// estimate can demand). Keep consistent with the frame cap: a first
    /// round ships one sketch per group in a single `Sketches` frame,
    /// roughly 15 bytes per unit of `d` — the default 2¹⁸ stays a few MiB
    /// under the default 16 MiB `max_frame`.
    pub max_d: u64,
    /// Cap on the element count of the client's final `Done` transfer.
    /// The transfer is a single frame, so `(max_frame − 5) / 8` is an
    /// additional hard ceiling.
    pub max_done_elements: u32,
    /// Most pipelined round layers accepted in one `Sketches` frame. Each
    /// layer costs
    /// one full per-group decode pass, so this bounds per-frame CPU the
    /// same way `round_cap` bounds it per session.
    pub max_pipeline_depth: u32,
    /// Most concurrently live subscriptions (`Streaming` sessions) across
    /// the whole server; a `Subscribe` past the cap is refused.
    pub max_subscribers: usize,
    /// Keepalive interval on live subscriptions: a subscriber the server
    /// has heard nothing from for this long is sent a `Ping` (whatever was
    /// pushed to it meanwhile), and one silent for three intervals is
    /// presumed gone and closed.
    pub keepalive: Duration,
    /// Cap on bytes queued (user-space) toward one subscriber. A push
    /// burst that would overrun it evicts the subscriber with
    /// `FullResyncRequired` instead of buffering without bound.
    pub subscriber_buffer: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            transport: TransportConfig::default(),
            workers: 4,
            round_cap: 64,
            session_deadline: Duration::from_secs(120),
            max_d: 1 << 18,
            max_done_elements: 1 << 20,
            max_pipeline_depth: 4,
            max_subscribers: 1024,
            keepalive: Duration::from_secs(10),
            subscriber_buffer: 1 << 20,
        }
    }
}

obs::counters! {
    /// Monotonic counters exported by a running server, server-wide as
    /// `pbs_server_*_total` and per store as `pbs_store_*_total{store}`.
    /// All loads/stores are relaxed — they are statistics, not
    /// synchronization.
    pub struct ServerStats => StatsSnapshot {
        /// A client that keeps its connection opens its next session with
        /// a `Hello` there.
        sessions_started: "Sessions opened: one per accepted connection, one per Hello on a kept one.",
        /// Final ack delivered, or a live subscription that ended after it.
        sessions_completed: "Sessions that ran to a clean end.",
        /// Peer disconnects mid-protocol included.
        sessions_failed: "Sessions that ended in any error.",
        /// At most `sessions_started`.
        sessions_reused: "Sessions opened on a connection that had already served one.",
        rounds: "Protocol rounds served (pipelined layers counted individually).",
        /// At most `rounds`; lower exactly when clients pipelined.
        round_trips: "Sketch/report request-response round trips served.",
        bytes_in: "Wire bytes received, framing included.",
        bytes_out: "Wire bytes sent, framing included.",
        frames_in: "Frames received.",
        frames_out: "Frames sent.",
        decode_failures: "BCH decode failures (each one split a group).",
        estimator_exchanges: "Estimator exchanges served.",
        elements_received: "Elements ingested from clients' final transfers.",
        /// No reconciliation ran.
        delta_sessions: "Sessions served entirely from the changelog (delta path).",
        /// Changelog trimmed, or an epoch from the future.
        delta_fallbacks: "Delta requests answered with FullResyncRequired.",
        delta_batches: "DeltaBatch frames streamed in delta catch-ups.",
        /// Adds plus removes.
        delta_elements: "Elements streamed in delta catch-ups.",
        /// `Subscribe` frames honored.
        subscriptions: "Live subscriptions accepted.",
        push_batches: "DeltaBatch frames pushed to live subscribers.",
        /// Adds plus removes.
        push_elements: "Elements pushed to live subscribers.",
        /// Buffer cap or write stall.
        subscribers_evicted: "Subscribers evicted for falling behind.",
        keepalive_pings: "Keepalive Ping frames sent to idle subscribers.",
        /// Or found current.
        views_patched: "Full sessions served from the store's cached view, patched from the changelog.",
        views_built: "Full sessions that built the store's view from a snapshot.",
        /// Each took and partitioned a snapshot of its own.
        views_declined: "Full sessions served from a private snapshot (no view).",
    }
}

/// A running reconciliation server. Dropping it without calling
/// [`Server::shutdown`] detaches the threads (they keep serving until the
/// process exits).
pub struct Server {
    local_addr: SocketAddr,
    stats: Arc<ServerStats>,
    registry: Arc<StoreRegistry>,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    worker_links: Vec<Link<Serve>>,
    /// Each worker, then its set-up thread — which exits once its worker has.
    worker_handles: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` and serve a single anonymous store — the PR-3 shape,
    /// kept as the one-store convenience around [`Server::bind_registry`].
    /// `addr` may carry port 0 to let the OS pick; read the effective
    /// address back with [`Server::local_addr`].
    pub fn bind(
        addr: impl ToSocketAddrs,
        store: Arc<dyn SetStore>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        Self::bind_registry(addr, Arc::new(StoreRegistry::single(store)), config)
    }

    /// Bind `addr` and route each session to the [`StoreRegistry`] entry
    /// its `Hello` names. The registry may keep growing while the server
    /// runs.
    pub fn bind_registry(
        addr: impl ToSocketAddrs,
        registry: Arc<StoreRegistry>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        assert!(config.workers > 0, "server needs at least one worker");
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = registry.metrics();
        let stats = Arc::new(ServerStats::registered(&metrics, "pbs_server_", &[]));
        let shutdown = Arc::new(AtomicBool::new(false));

        let shared = Arc::new(Shared {
            res: Arc::new(Resources {
                registry: Arc::clone(&registry),
                config,
                stats: Arc::clone(&stats),
                live_subscribers: AtomicUsize::new(0),
            }),
            session_metrics: SessionMetrics::registered(&metrics),
            next_session_id: AtomicU64::new(1),
        });

        let mut worker_links = Vec::with_capacity(config.workers);
        let mut worker_handles = Vec::with_capacity(2 * config.workers);
        for i in 0..config.workers {
            let (link, handles) = spawn_worker(i, Arc::clone(&shared))?;
            worker_links.push(link);
            worker_handles.extend(handles);
        }

        let links = worker_links.clone();
        let accept_handle = spawn_acceptor(listener, links, shared, Arc::clone(&shutdown))?;

        Ok(Server {
            local_addr,
            stats,
            registry,
            shutdown,
            accept_handle: Some(accept_handle),
            worker_links,
            worker_handles,
        })
    }

    /// The address the listener is bound to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Shared handle to the server-wide counters (every session counts
    /// here *and* in its routed store's own [`crate::store::RegisteredStore::stats`]).
    pub fn stats(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// The store registry this server routes sessions into.
    pub(crate) fn registry(&self) -> Arc<StoreRegistry> {
        Arc::clone(&self.registry)
    }

    /// The metric registry behind this server's counters and histograms —
    /// shared with the store registry, so per-store and store-layer metrics
    /// render alongside the server-wide ones. Feed it to
    /// [`crate::admin::AdminServer`] or render it directly.
    pub fn metrics(&self) -> Arc<obs::Registry> {
        self.registry.metrics()
    }

    /// The flag [`Server::shutdown`] raises before draining. The admin
    /// endpoint's `/healthz` watches it to flip from `ok` to `draining`.
    pub(crate) fn shutdown_signal(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.shutdown)
    }

    /// Stop accepting, wake every worker, and join every thread (a set-up
    /// thread exits with the first unit it finishes once its worker is
    /// gone, whatever is still queued). Sessions still mid-protocol — one
    /// whose set-up is out on that thread included — are cut (counted
    /// failed); sessions past their final ack — parked or live-streaming
    /// subscribers included — are flushed once and closed cleanly (counted
    /// completed), so a server with open subscriptions shuts down promptly
    /// and the `started == completed + failed` invariant holds in the
    /// returned snapshot.
    pub fn shutdown(mut self) -> StatsSnapshot {
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking `accept` with a throwaway connection. A
        // wildcard bind address is not connectable on every platform, so
        // aim at the matching loopback instead.
        let mut wake = self.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                std::net::IpAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                std::net::IpAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect(wake);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
        // The acceptor is joined, so no further Conn notices can follow
        // the Shutdown notice each worker drains next.
        for link in &self.worker_links {
            link.send(Notice::Shutdown);
        }
        for handle in self.worker_handles.drain(..) {
            let _ = handle.join();
        }
        self.stats.snapshot()
    }
}

/// State shared by every worker.
struct Shared {
    /// What the workers lend their sessions' machines.
    res: Arc<Resources>,
    /// Per-phase latency histograms.
    session_metrics: SessionMetrics,
    /// Session-id allocator — ids label trace events, drive the
    /// deterministic trace sampling and bring a set-up unit back.
    next_session_id: AtomicU64,
}

/// The server-side latency histograms and the loops' own health, one
/// registration per server.
struct SessionMetrics {
    /// The session's start → negotiated `Hello` queued.
    handshake: Arc<Histogram>,
    /// Estimator bank awaited + served.
    estimate: Arc<Histogram>,
    /// Sketch/report rounds through the final ack queued.
    rounds: Arc<Histogram>,
    /// changelog catch-up (handshake `delta_epoch` → `DeltaDone`
    /// queued).
    delta_catchup: Arc<Histogram>,
    /// Store-mutation commit → push burst's `DeltaDone` drained to the OS.
    push_dispatch: Arc<Histogram>,
    /// Whole session: its start — the accept, or its `Hello` on a kept
    /// connection — to its close or the next session's `Hello`.
    session: Arc<Histogram>,
    /// One sample per loop iteration of any worker: `poll` returning → the
    /// next `poll`. Nothing on that worker is dispatched in between.
    loop_busy: Arc<Histogram>,
    /// Heavy set-up units handed to a set-up thread and not yet finished:
    /// queued plus running.
    setups_in_flight: Gauge,
}

impl SessionMetrics {
    fn registered(metrics: &obs::Registry) -> SessionMetrics {
        let histogram =
            |name, help, labels: &[(&str, &str)]| metrics.histogram(name, help, labels, 1e-9);
        let phase = |name| {
            let help = "Per-phase session latency.";
            histogram("pbs_server_phase_seconds", help, &[("phase", name)])
        };
        SessionMetrics {
            handshake: phase("handshake"),
            estimate: phase("estimate"),
            rounds: phase("rounds"),
            delta_catchup: phase("delta_catchup"),
            push_dispatch: histogram(
                "pbs_server_push_dispatch_seconds",
                "Store-mutation commit to the push burst's DeltaDone drained to the socket.",
                &[],
            ),
            session: histogram(
                "pbs_server_session_seconds",
                "Whole-session wall clock, accept (or Hello on a kept connection) to close.",
                &[],
            ),
            loop_busy: histogram(
                "pbs_server_loop_busy_seconds",
                "One event-loop iteration, poll return to the next poll.",
                &[],
            ),
            setups_in_flight: metrics.gauge(
                "pbs_server_setups_in_flight",
                "Heavy set-up units queued for or running on a set-up thread.",
                &[],
            ),
        }
    }
}

/// What a server's worker is woken for besides a connection.
enum Wake {
    /// A store mutated; push to its subscribers. `at` is the commit
    /// instant (captured in the notifier, right after the store's element
    /// lock released) — the push-dispatch latency clock starts here.
    StoreChanged { store: String, at: Instant },
    /// The set-up thread ran the unit session `session` handed it: the
    /// machine is back, with the step it took.
    SetUp {
        session: u64,
        machine: ServerMachine,
        step: Result<Step, Refusal>,
    },
}

/// A heavy set-up unit on its way to the set-up thread: the id of the
/// session to bring it back to, and the machine that owes it.
type Job = (u64, ServerMachine);

/// What the worker measures of the session a connection serves.
struct Served {
    /// Server-unique: labels trace events, drives trace sampling, brings a
    /// set-up unit back.
    id: u64,
    /// Trace events fire for this session — decided once as it opens, so a
    /// session traces all-or-nothing.
    traced: bool,
    /// The accept, or the session's `Hello` on a kept connection: base of
    /// the handshake-phase and whole-session timings.
    started: Instant,
    /// When the current protocol phase began.
    phase_start: Instant,
    /// The commit instant of the oldest store mutation whose push burst is
    /// still queued toward this subscriber — cleared (and recorded as
    /// push-dispatch latency) when the write buffer fully drains.
    push_started: Option<Instant>,
    /// The connection's counts where the session began: its own are
    /// counted from here.
    base: Ledger,
}

impl Served {
    /// A session opening at `now`, the connection's counts at `base`.
    fn new(shared: &Shared, now: Instant, base: Ledger) -> Served {
        let id = shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        Served {
            id,
            traced: trace::enabled(Level::Info) && trace::sampled(id),
            started: now,
            phase_start: now,
            push_started: None,
            base,
        }
    }
}

/// A connection's counts: bytes in, bytes out, frames in, frames out.
type Ledger = [u64; 4];

fn ledger(nb: &MuxStream) -> Ledger {
    [
        nb.bytes_in(),
        nb.bytes_out(),
        nb.frames_in(),
        nb.frames_out(),
    ]
}

/// The server's half of one worker.
struct Serve {
    shared: Arc<Shared>,
    /// This worker's own link — cloned into store notifier closures.
    link: Link<Serve>,
    /// The FIFO of this worker's set-up thread.
    set_up: mpsc::Sender<Job>,
    /// Stores with pending pushes, mapped to the *earliest* unserved
    /// mutation-commit instant (the push-dispatch latency baseline).
    dirty_stores: HashMap<String, Instant>,
    /// Stores this worker has already installed a mutation notifier on.
    notified_stores: HashSet<String>,
}

/// Spawn one event-loop worker and its set-up thread. Returns the worker's
/// link plus both join handles.
fn spawn_worker(
    index: usize,
    shared: Arc<Shared>,
) -> io::Result<(Link<Serve>, [JoinHandle<()>; 2])> {
    let (link, inbox) = Link::new()?;
    let (set_up, set_up_join) = spawn_set_up(index, Arc::clone(&shared), link.clone())?;
    let serve = Serve {
        shared,
        link: link.clone(),
        set_up,
        dirty_stores: HashMap::new(),
        notified_stores: HashSet::new(),
    };
    let join = Loop::spawn(inbox, format!("pbs-net-worker-{index}"), serve)?;
    Ok((link, [join, set_up_join]))
}

/// Spawn the acceptor thread: blocking `accept`, each connection made a
/// session (counted started, traced) and dealt round-robin to the
/// workers. The shutdown flag plus a loopback connect breaks it out of
/// `accept`.
fn spawn_acceptor(
    listener: TcpListener,
    links: Vec<Link<Serve>>,
    shared: Arc<Shared>,
    shutdown: Arc<AtomicBool>,
) -> io::Result<JoinHandle<()>> {
    std::thread::Builder::new()
        .name("pbs-net-accept".into())
        .spawn(move || {
            for (n, conn) in listener.incoming().enumerate() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Some(session) = conn.ok().and_then(|stream| accept(&shared, stream)) else {
                    continue;
                };
                if !links[n % links.len()].send(Notice::Open(session, Out::default())) {
                    break;
                }
            }
        })
}

/// A session for an accepted `stream`, counted started (and failed, if
/// the socket cannot be made fit for a loop). Only a traced one asks for
/// its peer's address.
fn accept(shared: &Shared, stream: TcpStream) -> Option<Session<Serve>> {
    let stats = &shared.res.stats;
    stats.sessions_started.inc(1);
    if nonblocking(&stream).is_err() {
        stats.sessions_failed.inc(1);
        return None;
    }
    let now = Instant::now();
    let served = Served::new(shared, now, Ledger::default());
    let peer = served.traced.then(|| stream.peer_addr());
    let conn = ServerConn::new(&shared.res, now);
    let sess = Session::new(stream, shared.res.config.transport.max_frame, conn, served);
    if let Some(peer) = peer {
        let peer = peer.map(|p| p.to_string()).unwrap_or_default();
        trace_session(&sess, Level::Info, "accept", &[("peer", Value::Str(&peer))]);
    }
    Some(sess)
}

/// Spawn a worker's set-up thread: one FIFO of [`Job`]s, each run to its
/// [`Wake::SetUp`] on `link` ([`ServerConn::set_up`]: a unit that panics
/// costs its own session). It exits once its worker has: the FIFO closes,
/// or a notice finds nobody.
fn spawn_set_up(
    index: usize,
    shared: Arc<Shared>,
    link: Link<Serve>,
) -> io::Result<(mpsc::Sender<Job>, JoinHandle<()>)> {
    let (jobs, queue) = mpsc::channel::<Job>();
    let join = std::thread::Builder::new()
        .name(format!("pbs-net-setup-{index}"))
        .spawn(move || {
            for (session, mut machine) in queue {
                let step = ServerConn::set_up(&mut machine, &shared.res);
                shared.session_metrics.setups_in_flight.add(-1.0);
                let back = Wake::SetUp {
                    session,
                    machine,
                    step,
                };
                if !link.send(Notice::Role(back)) {
                    return;
                }
            }
        })?;
    Ok((jobs, join))
}

impl Role for Serve {
    type Conn = ServerConn;
    type Tag = Served;
    type Notice = Wake;

    fn notice(&mut self, lp: &mut Loop<Serve>, notice: Wake) {
        match notice {
            // Keep the *earliest* commit instant while notices coalesce, so
            // the dispatch latency never under-reports.
            Wake::StoreChanged { store, at } => {
                let earliest = self.dirty_stores.entry(store).or_insert(at);
                *earliest = (*earliest).min(at);
            }
            Wake::SetUp {
                session,
                machine,
                step,
            } => self.machine_back(lp, session, machine, step),
        }
    }

    /// Push what the stores that changed hold to their subscribers, once
    /// per store however many notices coalesced.
    fn noticed(&mut self, lp: &mut Loop<Serve>) {
        if self.dirty_stores.is_empty() {
            return;
        }
        let dirty = std::mem::take(&mut self.dirty_stores);
        for i in 0..lp.sessions.len() {
            let conn = &lp.sessions[i].conn;
            if conn.outcome().is_some() || !conn.streaming() {
                continue;
            }
            if let Some(&at) = conn.entry().and_then(|e| dirty.get(e.name())) {
                self.push_deltas(lp, i, Some(at));
            }
        }
    }

    /// Close the session a `Hello` ended, queue the frames (tracing a
    /// refusal), stamp the boundaries crossed, flush, and hand a heavy unit
    /// to the set-up thread.
    fn carry_out(&mut self, lp: &mut Loop<Serve>, i: usize, out: Out) {
        if let Some(renewed) = &out.renewed {
            self.renew(&mut lp.sessions[i], renewed);
        }
        for frame in &out.frames {
            if let Frame::Error { code, message } = frame {
                let code = Value::U64(*code as u64);
                let fields = [("code", code), ("message", Value::Str(message))];
                trace_session(&lp.sessions[i], Level::Warn, "refused", &fields);
            }
        }
        if !lp.queue(i, &out.frames) {
            return;
        }
        for crossed in out.crossed {
            self.stamp(lp, i, crossed);
        }
        lp.flush(self, i);
        if let Some(machine) = out.hand_off {
            self.hand_off(lp, i, machine);
        }
    }

    fn fired(&mut self, lp: &mut Loop<Serve>, i: usize, due: Due, out: Out) {
        if due == Due::WriteStall && lp.sessions[i].conn.streaming() {
            let reason = [("reason", Value::Str("write_stall"))];
            trace_session(&lp.sessions[i], Level::Warn, "evicted", &reason);
        }
        self.carry_out(lp, i, out);
    }

    /// A push burst fully handed to the OS: the dispatch latency clock
    /// (mutation commit → drained) stops.
    fn drained(&mut self, sess: &mut Session<Serve>) {
        if let Some(started) = sess.tag.push_started.take() {
            let push_dispatch = &self.shared.session_metrics.push_dispatch;
            push_dispatch.record_duration(started.elapsed());
        }
    }

    /// Close the connection's last session. (Its outcome was counted when
    /// the connection decided it.)
    fn reap(&mut self, sess: Session<Serve>) {
        let completed = sess.conn.outcome() == Some(true);
        self.close(&sess, sess.conn.entry(), completed, ledger(&sess.nb));
    }

    fn busy(&mut self, busy: Duration) {
        self.shared.session_metrics.loop_busy.record_duration(busy);
    }
}

/// Emit a trace event for `sess`, if it is traced.
fn trace_session(sess: &Session<Serve>, level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
    if sess.tag.traced {
        trace::event(level, "session", Some(sess.tag.id), event, fields);
    }
}

impl Serve {
    /// Fold the byte and frame counts of `sess`'s session — from its base
    /// to `upto` — into the server's counters and `entry`'s, time the
    /// session and trace its close.
    fn close(
        &self,
        sess: &Session<Serve>,
        entry: Option<&RegisteredStore>,
        completed: bool,
        upto: Ledger,
    ) {
        let res = &self.shared.res;
        let own: Ledger = std::array::from_fn(|k| upto[k].saturating_sub(sess.tag.base[k]));
        res.bump(entry, |s| &s.bytes_in, own[0]);
        res.bump(entry, |s| &s.bytes_out, own[1]);
        res.bump(entry, |s| &s.frames_in, own[2]);
        res.bump(entry, |s| &s.frames_out, own[3]);
        let elapsed = sess.tag.started.elapsed();
        self.shared.session_metrics.session.record_duration(elapsed);
        let fields = [
            ("completed", Value::Bool(completed)),
            ("bytes_in", Value::U64(own[0])),
            ("bytes_out", Value::U64(own[1])),
            ("seconds", Value::F64(elapsed.as_secs_f64())),
        ];
        trace_session(sess, Level::Info, "closed", &fields);
    }

    /// The peer's `Hello` ended the parked session on `sess` and opened
    /// the next: the parked one is closed, and the next takes a fresh id,
    /// fresh clocks and its counts from the `Hello` on.
    fn renew(&self, sess: &mut Session<Serve>, renewed: &Renewed) {
        let mut next = ledger(&sess.nb);
        next[0] = next[0].saturating_sub(renewed.hello);
        next[2] = next[2].saturating_sub(1);
        self.close(sess, renewed.entry.as_deref(), true, next);
        let after = Value::U64(sess.tag.id);
        sess.tag = Served::new(&self.shared, Instant::now(), next);
        trace_session(sess, Level::Info, "reused", &[("after", after)]);
    }

    /// Record the elapsed time of the phase ending now for session `i`
    /// into the histogram `pick` selects, and restart the phase clock.
    fn record_phase(
        &self,
        sess: &mut Session<Serve>,
        pick: fn(&SessionMetrics) -> &Arc<Histogram>,
    ) {
        let now = Instant::now();
        pick(&self.shared.session_metrics).record_duration(now - sess.tag.phase_start);
        sess.tag.phase_start = now;
    }

    /// Park session `i`: its machine goes to the set-up thread until
    /// [`Wake::SetUp`] brings it back. A set-up thread that is gone parks
    /// nobody behind it.
    fn hand_off(&mut self, lp: &mut Loop<Serve>, i: usize, machine: ServerMachine) {
        let in_flight = &self.shared.session_metrics.setups_in_flight;
        in_flight.add(1.0);
        let session = lp.sessions[i].tag.id;
        if let Err(mpsc::SendError((_, machine))) = self.set_up.send((session, machine)) {
            in_flight.add(-1.0);
            let gone = refuse(ErrorCode::Internal, "set-up is unavailable");
            self.machine_back(lp, session, machine, Err(gone));
        }
    }

    /// The set-up thread ran the unit session `id` handed it. A session
    /// reaped meanwhile drops the machine; otherwise the connection carries
    /// the step out (or drops it, if it ended or began closing), and the
    /// frames that arrived while the session was parked are taken in order.
    fn machine_back(
        &mut self,
        lp: &mut Loop<Serve>,
        id: u64,
        machine: ServerMachine,
        step: Result<Step, Refusal>,
    ) {
        let Some(i) = lp.sessions.iter().position(|s| s.tag.id == id) else {
            return;
        };
        let out = lp.sessions[i]
            .conn
            .machine_back(machine, step, Instant::now());
        self.carry_out(lp, i, out);
        if lp.sessions[i].conn.outcome().is_none() {
            lp.read(self, i);
        }
    }

    /// Put this loop's clock (phase histogram, trace event) on a boundary
    /// the machine reported.
    fn stamp(&mut self, lp: &mut Loop<Serve>, i: usize, crossed: Crossed) {
        let sess = &mut lp.sessions[i];
        match crossed {
            Crossed::Handshake { known_d, delta } => {
                self.record_phase(sess, |m| &m.handshake);
                let store = sess.conn.entry().map_or("", |e| e.name());
                let fields = [
                    ("store", Value::Str(store)),
                    ("known_d", Value::U64(known_d)),
                    ("delta_epoch", Value::Bool(delta)),
                ];
                trace_session(sess, Level::Info, "hello", &fields);
            }
            Crossed::DeltaCatchup { batches, epoch } => {
                self.record_phase(sess, |m| &m.delta_catchup);
                let fields = [
                    ("batches", Value::U64(batches)),
                    ("epoch", Value::U64(epoch)),
                ];
                trace_session(sess, Level::Info, "delta_catchup", &fields);
            }
            Crossed::Estimated { d_param, view } => {
                self.record_phase(sess, |m| &m.estimate);
                let fields = [("d_param", Value::U64(d_param)), ("view", Value::Str(view))];
                trace_session(sess, Level::Info, "estimated", &fields);
            }
            Crossed::Reconciled { rounds, received } => {
                self.record_phase(sess, |m| &m.rounds);
                let fields = [
                    ("rounds", Value::U64(rounds as u64)),
                    ("received", Value::U64(received)),
                ];
                trace_session(sess, Level::Info, "reconciled", &fields);
            }
            Crossed::Subscribed { epoch } => {
                // Install this worker's mutation notifier on the store
                // *before* the initial catch-up: a mutation landing in
                // between then raises a (harmless, idempotent) extra wakeup
                // instead of being missed.
                if let Some(entry) = sess.conn.entry() {
                    let (name, store) = (entry.name().to_string(), Arc::clone(entry.store()));
                    self.ensure_notifier(name, &store);
                }
                let fields = [("epoch", Value::U64(epoch))];
                trace_session(sess, Level::Info, "subscribed", &fields);
                // Catch up on anything that mutated between the client's
                // baseline and this Subscribe. Not a push dispatch: the
                // latency clock only runs for bursts a mutation triggered.
                self.push_deltas(lp, i, None);
            }
            Crossed::Evicted { burst_bytes } => {
                let fields = [
                    ("reason", Value::Str("buffer_overrun")),
                    ("burst_bytes", Value::U64(burst_bytes)),
                ];
                trace_session(sess, Level::Warn, "evicted", &fields);
            }
        }
    }

    /// Have subscriber `i`'s connection push what the store changed past
    /// its epoch. `origin` is the commit instant of the mutation that
    /// triggered the push (`None` for the initial Subscribe catch-up) — it
    /// seeds the dispatch-latency clock stopped in [`Role::drained`] when
    /// the burst drains.
    fn push_deltas(&mut self, lp: &mut Loop<Serve>, i: usize, origin: Option<Instant>) {
        let sess = &mut lp.sessions[i];
        let out = sess.conn.push(sess.nb.pending_out(), Instant::now());
        // A burst, not an eviction.
        if let (false, true, Some(origin)) = (out.frames.is_empty(), sess.conn.streaming(), origin)
        {
            let started = sess.tag.push_started.map_or(origin, |s| s.min(origin));
            sess.tag.push_started = Some(started);
        }
        self.carry_out(lp, i, out);
    }

    /// Install this worker's wakeup notifier on `store` (once per store
    /// name): mutation → `StoreChanged` notice + wake byte. The notifier
    /// unregisters itself once the worker is gone.
    fn ensure_notifier(&mut self, name: String, store: &Arc<dyn SetStore>) {
        if !self.notified_stores.insert(name.clone()) {
            return;
        }
        let link = self.link.clone();
        store.register_notifier(Box::new(move |_epoch| {
            let at = Instant::now();
            let store = name.clone();
            link.send(Notice::Role(Wake::StoreChanged { store, at }))
        }));
    }
}

#[cfg(test)]
mod tests {
    //! Sessions over real sockets, held to the inline driver.
    //!
    //! * **Byte for byte:** a session served by the event loop — full ones
    //!   at |B| = 10⁵ through the blocking `client::sync`, a delta
    //!   catch-up, and one whose set-up is held on the set-up thread while
    //!   its next frame arrives — puts on the wire, in each direction,
    //!   exactly the bytes `Duet` (`src/sim.rs`) exchanges for the same
    //!   (sets, seed), and every ledger of them (the report's, the
    //!   server's) reads those lengths.
    //! * **The set-up hand-off:** a full session's O(|B|) set-up runs on
    //!   its worker's set-up thread while the loop keeps serving everyone
    //!   else on that worker. Every interleaving is forced, none is slept
    //!   for: the store under test ([`Gated`]) holds a session's `view`
    //!   call at a gate the test opens, and the servers run one worker.
    //!   With a set-up held, a subscriber is pushed to, a second connection
    //!   is served, and the held session's next frame is taken in order
    //!   once the gate opens; a peer close and `Server::shutdown` while the
    //!   machine is out each leave `started == completed + failed`; a
    //!   `view` that panics costs its own session (`Internal`), not the
    //!   worker.
    //!
    //! What the clocks do to a session that is out — the deadline, the
    //! read-idle window — is the simulator's, on a virtual clock.
    use super::*;
    use crate::client::{sync, ClientConfig, SyncClient, SyncReport};
    use crate::frame::read_frame;
    use crate::frame::{decode_frame, write_frame, Decoded, DEFAULT_MAX_FRAME};
    use crate::machine::{ClientMachine, Mode, Step};
    use crate::sim::Duet;
    use crate::store::{DeltaAnswer, MutableStore, StoreNotifier, ViewAnswer};
    use crate::NetError;
    use std::io::{Read, Write};
    use std::net::{Ipv4Addr, Shutdown};
    use std::sync::{Condvar, Mutex};

    /// How long a wait on the gate may take before the test fails instead
    /// of hanging.
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

    /// A `MutableStore` whose `view` — the first thing every heavy set-up
    /// unit asks of its store — can be held at a gate, or made to panic,
    /// once.
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
        fn snapshot_with_epoch(&self) -> (Vec<u64>, u64) {
            self.inner.snapshot_with_epoch()
        }
        fn apply_missing(&self, elements: &[u64]) -> bool {
            self.inner.apply_missing(elements)
        }
        fn element_count(&self) -> usize {
            self.inner.element_count()
        }
        fn universe_bits(&self) -> u32 {
            self.inner.universe_bits()
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
        fn register_notifier(&self, notifier: StoreNotifier) {
            self.inner.register_notifier(notifier)
        }
    }

    /// A one-worker server over `store`: its every session shares one loop.
    fn bind(store: &Arc<Gated>) -> (Server, Arc<StoreRegistry>) {
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(store) as Arc<_>, config).unwrap();
        let registry = server.registry();
        (server, registry)
    }

    fn store_stats(registry: &StoreRegistry) -> StatsSnapshot {
        registry.get("").unwrap().stats().snapshot()
    }

    /// `started == completed + failed`, with these counts, server-wide and
    /// on the store.
    fn assert_accounts(what: &str, stats: &[StatsSnapshot], started: u64, failed: u64) {
        for (level, s) in ["server", "store"].iter().zip(stats) {
            assert_eq!(
                (s.sessions_started, s.sessions_completed, s.sessions_failed),
                (started, started - failed, failed),
                "{what}: {level} (started, completed, failed)"
            );
        }
    }

    /// What every session driven by hand runs under.
    fn by_hand_config() -> ClientConfig {
        ClientConfig {
            seed: 0xA11CE,
            ..ClientConfig::default()
        }
    }

    /// A full session driven by hand, one frame at a time, keeping every
    /// byte it sent (`up`) and received (`down`).
    struct ByHand {
        stream: TcpStream,
        machine: ClientMachine<'static>,
        up: Vec<u8>,
        down: Vec<u8>,
    }

    impl ByHand {
        fn connect(server: &Server, set: Vec<u64>) -> ByHand {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            ByHand {
                stream,
                machine: ClientMachine::new(&by_hand_config(), set, Mode::Full).unwrap(),
                up: Vec::new(),
                down: Vec::new(),
            }
        }

        /// Put the frame the machine owes on the wire.
        fn send(&mut self) {
            let frame = self.machine.poll_send().unwrap().expect("a frame");
            self.put(frame);
        }

        fn put(&mut self, frame: Frame) {
            write_frame(&mut self.up, &frame, DEFAULT_MAX_FRAME).unwrap();
            write_frame(&mut self.stream, &frame, DEFAULT_MAX_FRAME).unwrap();
        }

        /// Feed the machine the server's next frame.
        fn recv(&mut self) -> Step {
            let (frame, _) = read_frame(&mut self.stream, DEFAULT_MAX_FRAME).unwrap();
            write_frame(&mut self.down, &frame, DEFAULT_MAX_FRAME).unwrap();
            self.machine.on_frame(frame).unwrap()
        }

        /// Drive the session from where it stands to its report.
        fn finish(&mut self) -> SyncReport {
            loop {
                if let Some(frame) = self.machine.poll_send().unwrap() {
                    self.put(frame);
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
        let (server, registry) = bind(&store);
        let addr = server.local_addr();

        // The worker's subscriber, parked before anything is held.
        let mut sub = SyncClient::connect(addr).unwrap().subscribe(0).unwrap();
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
            .unwrap()
            .delta_epoch(0)
            .sync(&[])
            .expect("delta sync");
        let delta = caught_up.delta.expect("served from the changelog");
        assert_eq!((delta.added, caught_up.epoch), (vec![20_001], Some(1)));
        let so_far = server.stats().snapshot();
        // (Two catch-ups served — the subscriber's was the first — and the
        // held session has not had its snapshot yet.)
        assert_eq!((so_far.delta_sessions, so_far.views_declined), (2, 0));

        // The gate opens: the bank that was waiting is taken next, in
        // order, and the session runs to its end.
        store.set(Gate::Open);
        let report = a.finish();
        assert!(report.verified);
        // (The snapshot is the held unit's: it saw the mutation.)
        let expected = (4_991..=5_000).chain(10_001..=10_010).chain([20_001]);
        assert_eq!(report.recovered, expected.collect::<Vec<u64>>());
        assert_eq!(report.epoch, Some(1));
        assert!(store.inner.contains(10_010), "A ∖ B was ingested");
        assert_eq!(metric(&server, "pbs_server_setups_in_flight"), 0.0);
        // The estimate phase is still stamped, once, when the Bob build is
        // back.
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
        let (server, registry) = bind(&store);

        let mut a = ByHand::connect(&server, (1..=990).collect());
        a.park_at(&store);
        drop(a);
        // Nothing is read from a parked session: the loop meets the close
        // when the machine is back.
        store.set(Gate::Open);
        let stats = [server.shutdown(), store_stats(&registry)];
        assert_accounts("peer closed while out", &stats, 1, 1);
    }

    #[test]
    fn shutdown_cuts_a_session_that_is_out_without_waiting_for_its_machine() {
        let store = Gated::over(1..=1_000u64);
        let (server, registry) = bind(&store);

        let mut a = ByHand::connect(&server, (1..=990).collect());
        a.park_at(&store);
        let shutdown = std::thread::spawn(move || server.shutdown());
        // The worker closes the session while the gate still holds its
        // set-up…
        let cut = read_frame(&mut a.stream, DEFAULT_MAX_FRAME);
        assert!(cut.is_err(), "cut, with nothing more said");
        assert_eq!(*store.gate.lock().unwrap(), Gate::Holding);
        // …and shutdown returns once the set-up thread is let go.
        store.set(Gate::Open);
        let stats = [shutdown.join().unwrap(), store_stats(&registry)];
        assert_accounts("shut down while out", &stats, 1, 1);
    }

    #[test]
    fn a_view_that_panics_fails_its_own_session_and_nothing_else() {
        let store = Gated::over(1..=1_000u64);
        let (server, registry) = bind(&store);
        let client = SyncClient::connect(server.local_addr()).unwrap();
        let mut sub = client.subscribe(0).unwrap();
        sub.next().expect("catch-up").expect("catch-up ok");

        let set: Vec<u64> = (1..=990).collect();
        store.set(Gate::Trapped);
        match client.sync(&set) {
            Err(NetError::Remote { code, message }) => {
                assert_eq!(code, ErrorCode::Internal, "{message}")
            }
            other => panic!("expected an Internal refusal, got {other:?}"),
        }

        // The same worker, the same set-up thread: the next session
        // completes and the subscriber is still pushed to.
        let report = client.sync(&set).expect("the next session");
        assert!(report.verified && report.recovered.len() == 10);
        store.inner.apply(&[20_001], &[]);
        let pushed = sub.next().expect("live").expect("push ok");
        assert_eq!(pushed.added, vec![20_001]);

        drop(sub);
        let stats = [server.shutdown(), store_stats(&registry)];
        assert_accounts("one panic, one session", &stats, 3, 1);
    }

    /// A relay between one client and `server` that keeps a copy of what
    /// it carried each way: `[client → server, server → client]`, once
    /// both ends have closed.
    fn tap(server: SocketAddr) -> (SocketAddr, JoinHandle<[Vec<u8>; 2]>) {
        fn carry(mut from: TcpStream, mut to: TcpStream) -> Vec<u8> {
            let (mut copy, mut buf) = (Vec::new(), [0u8; 1 << 16]);
            while let Ok(n @ 1..) = from.read(&mut buf) {
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
                copy.extend_from_slice(&buf[..n]);
            }
            let _ = to.shutdown(Shutdown::Write);
            copy
        }
        let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let relay = std::thread::spawn(move || {
            let (client, _) = listener.accept().unwrap();
            let upstream = TcpStream::connect(server).unwrap();
            for end in [&client, &upstream] {
                end.set_nodelay(true).unwrap();
            }
            let (from, to) = (client.try_clone().unwrap(), upstream.try_clone().unwrap());
            let up = std::thread::spawn(move || carry(from, to));
            let down = carry(upstream, client);
            [up.join().unwrap(), down]
        });
        (addr, relay)
    }

    /// How many whole frames `wire` holds.
    fn frame_count(mut wire: &[u8]) -> u64 {
        let mut count = 0;
        while let Ok(Decoded::Whole(_, used)) = decode_frame(wire, DEFAULT_MAX_FRAME) {
            wire = &wire[used..];
            count += 1;
        }
        count
    }

    /// The report's ledger reads the lengths of `up` and `down`, in bytes
    /// and in frames.
    fn assert_ledger(case: &str, report: &SyncReport, up: &[u8], down: &[u8]) {
        let ledger = [
            report.bytes_sent,
            report.bytes_received,
            report.frames_sent,
            report.frames_received,
        ];
        let wire = [up.len() as u64, down.len() as u64];
        let frames = [frame_count(up), frame_count(down)];
        assert_eq!(ledger, [wire[0], wire[1], frames[0], frames[1]], "{case}");
    }

    /// `sync` of `set` in `config`'s mode against a server over `store`,
    /// through a [`tap`], held to `Duet`'s session over `inline` (a store
    /// in the same state): the same bytes each way, the report's and the
    /// server's ledgers of them, the same report. Returns the report.
    fn held_to_duet(
        case: &str,
        store: Arc<MutableStore>,
        inline: MutableStore,
        set: &[u64],
        config: &ClientConfig,
    ) -> SyncReport {
        let mode = match config.delta_epoch {
            Some(since) => Mode::Delta { since },
            None => Mode::Full,
        };
        let (up, down, want) = Duet::over(Arc::new(inline)).transcript(config, set, mode);
        let two_workers = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", store as Arc<_>, two_workers).unwrap();
        let (addr, relay) = tap(server.local_addr());
        let report = sync(addr, set, config).unwrap();
        let [sent, received] = relay.join().unwrap();
        assert!(sent == up, "{case}: client → server");
        assert!(received == down, "{case}: server → client");
        assert_ledger(case, &report, &up, &down);
        let wire = [up.len() as u64, down.len() as u64];
        assert_eq!(report.recovered, want.recovered, "{case}");
        assert_eq!(report.delta, want.delta, "{case}");
        let stats = server.shutdown();
        assert_eq!(
            (stats.sessions_completed, stats.bytes_in, stats.bytes_out),
            (1, wire[0], wire[1]),
            "{case}: the server's ledger"
        );
        let estimated = report.estimated_d.is_some() as u64;
        assert_eq!(
            (
                stats.rounds,
                stats.estimator_exchanges,
                stats.elements_received
            ),
            (report.rounds as u64, estimated, report.pushed.len() as u64),
            "{case}: the server's session"
        );
        report
    }

    /// A socket session is the inline session, byte for byte in both
    /// directions: at |B| = 10⁵ for d ∈ {10, 100, 1000} through the
    /// blocking `sync`, a delta catch-up of 50 changes, a session whose
    /// snapshot unit is held on the set-up thread until the client's bank
    /// is already on the wire (the Bob build handed off after it), and two
    /// calls of one `SyncClient` — a full sync, then the catch-up of a
    /// write after it — on the one connection it keeps.
    #[test]
    fn a_socket_session_is_the_inline_session_byte_for_byte() {
        let held: Vec<u64> = (1..=3_000u64).map(|i| i * 0x9E37 + 1).collect();
        let ours = &held[40..];
        let inline = Arc::new(MutableStore::new(held.iter().copied()));
        let (up, down, want) = Duet::over(inline).transcript(&by_hand_config(), ours, Mode::Full);
        let store = Gated::over(held.iter().copied());
        let (server, _) = bind(&store);
        let mut a = ByHand::connect(&server, ours.to_vec());
        // After the `Hello`: its set-up is held. The bank therefore arrives
        // while the machine is out; then it is let go.
        a.park_at(&store);
        a.send();
        store.set(Gate::Open);
        let report = a.finish();
        assert!(report.verified && report.recovered.len() == 40);
        assert_eq!(report.recovered, want.recovered);
        assert!(a.up == up, "held: client → server");
        assert!(a.down == down, "held: server → client");
        let stats = server.shutdown();
        assert_eq!((stats.views_declined, stats.sessions_completed), (1, 1));

        // A scrambled 32-bit universe: n distinct nonzero elements.
        let keys = |n: u64| (1..=n).map(|i| i.wrapping_mul(0x9E37_79B9) & 0xFFFF_FFFF);
        for d in [10usize, 100, 1000] {
            // B is the first 10⁵ keys; A drops ⌊d/2⌋ of them and adds ⌈d/2⌉.
            let pool: Vec<u64> = keys(100_000 + d.div_ceil(2) as u64).collect();
            let (bob, alice) = (&pool[..100_000], &pool[d / 2..]);
            let mut truth: Vec<u64> = pool[..d / 2]
                .iter()
                .chain(&pool[100_000..])
                .copied()
                .collect();
            truth.sort_unstable();
            let config = ClientConfig {
                seed: 0xAB5_0000 + d as u64,
                ..ClientConfig::default()
            };
            let store = Arc::new(MutableStore::new(bob.iter().copied()));
            let case = format!("d = {d}");
            let inline = MutableStore::new(bob.iter().copied());
            let report = held_to_duet(&case, Arc::clone(&store), inline, alice, &config);
            assert!(report.verified, "{case}");
            assert_eq!(report.recovered, truth, "{case}");
            assert_eq!(store.len(), pool.len(), "{case}: the store holds A ∪ B");
            assert!(pool[100_000..].iter().all(|&e| store.contains(e)), "{case}");
        }

        // A delta catch-up: 25 added and 25 removed since epoch 0.
        let pool: Vec<u64> = keys(100_025).collect();
        let (baseline, added) = (&pool[..100_000], &pool[100_000..]);
        let removed = &baseline[..25];
        let mutated = || {
            let store = MutableStore::new(baseline.iter().copied());
            assert_eq!(store.apply(added, removed), 1);
            store
        };
        let config = ClientConfig {
            seed: 0xDE17A,
            delta_epoch: Some(0),
            ..ClientConfig::default()
        };
        let report = held_to_duet("delta", Arc::new(mutated()), mutated(), baseline, &config);
        let delta = report.delta.expect("served from the changelog");
        let mut want = added.to_vec();
        want.sort_unstable();
        assert_eq!((delta.added, delta.removed.len()), (want, 25));
        assert_eq!((report.rounds, report.epoch), (0, Some(1)));

        // Two calls of one client: d = 50 at |B| = 10⁴, a write, its
        // catch-up. One connection carries both sessions, and `Duet`'s one
        // connection both of its own.
        let pool: Vec<u64> = keys(10_050).collect();
        let (bob, alice) = (&pool[..10_000], &pool[25..10_025]);
        let (added, removed) = (&pool[10_025..], &bob[100..101]);
        let full = ClientConfig {
            seed: 0x2E05E,
            ..ClientConfig::default()
        };
        let inline = Arc::new(MutableStore::new(bob.iter().copied()));
        let mut duet = Duet::over(Arc::clone(&inline) as Arc<_>);
        let (up, down, want) = duet.transcript(&full, alice, Mode::Full);
        inline.apply(added, removed);
        let since = want.epoch.expect("the store keeps epochs");
        let delta = ClientConfig {
            delta_epoch: Some(since),
            ..full.clone()
        };
        let (up2, down2, _) = duet.transcript(&delta, &[], Mode::Delta { since });

        let store = Arc::new(MutableStore::new(bob.iter().copied()));
        let two_workers = ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store) as Arc<_>, two_workers);
        let server = server.unwrap();
        let (addr, relay) = tap(server.local_addr());
        let client = SyncClient::connect(addr).unwrap().config(full);
        let first = client.sync(alice).unwrap();
        assert_eq!(first.recovered, want.recovered, "kept: the full sync");
        store.apply(added, removed);
        let next = client.clone().delta_epoch(since).sync(&[]).unwrap();
        assert!(next.delta.is_some(), "kept: served from the changelog");
        drop(client);
        let [sent, received] = relay.join().unwrap();
        assert!(sent == [&up[..], &up2].concat(), "kept: client → server");
        assert!(
            received == [&down[..], &down2].concat(),
            "kept: server → client"
        );
        assert_ledger("kept: the full sync", &first, &up, &down);
        assert_ledger("kept: the catch-up", &next, &up2, &down2);
        let stats = server.shutdown();
        let sessions = (stats.sessions_started, stats.sessions_reused);
        let ended = (stats.sessions_completed, stats.sessions_failed);
        assert_eq!((sessions, ended), ((2, 1), (2, 0)), "kept: one accept");
        let wire = (up.len() + up2.len(), down.len() + down2.len());
        let wire = (wire.0 as u64, wire.1 as u64);
        assert_eq!(
            (stats.bytes_in, stats.bytes_out),
            wire,
            "kept: the server's ledger"
        );
    }
}
