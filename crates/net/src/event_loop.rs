//! The non-blocking server core: one acceptor thread hands connections to
//! N event-loop workers, each running a [`crate::poll::Poller`] readiness
//! loop over its sessions. No worker thread ever blocks on a session
//! socket — a session is a resumable state machine
//! (`Handshake → Estimate → Rounds → AwaitSubscribe → Streaming → Closing`)
//! driven by readable/writable events over a buffered non-blocking framed
//! stream, with per-session deadlines enforced by the loop's timer pass.
//!
//! This is what turns subscriptions *live*: a session that finished its
//! delta catch-up (or its classic reconciliation, on an epoch-capable
//! store) parks in `AwaitSubscribe`; a [`Frame::Subscribe`] moves it to
//! `Streaming`, where a [`crate::store::SetStore::register_notifier`] hook
//! wakes the worker on every store mutation and the worker pushes the
//! changes (`DeltaBatch*` → `DeltaDone` bursts) to every subscriber of
//! that store. Slow consumers are evicted with `FullResyncRequired`
//! instead of buffering without bound, and idle subscriptions are kept
//! alive (and garbage-collected) with `Ping`/`Pong`.
//!
//! Wakeups use a loopback socket pair per worker (the portable std-only
//! stand-in for a pipe): notifier closures and the acceptor enqueue a
//! [`Notice`] on the worker's channel and write one byte to the wake
//! socket, which the poll loop drains.

use crate::frame::{
    delta_batch_frames, delta_chunk_capacity, ErrorCode, EstimatorMsg, Frame, PROTOCOL_VERSION,
};
use crate::mux::MuxStream;
use crate::poll::{Interest, Poller};
use crate::server::{ServerConfig, ServerStats};
use crate::store::{DeltaAnswer, RegisteredStore, SetStore, StoreRegistry};
use crate::{FrameError, NetError};
use analysis::OptimalParams;
use estimator::{Estimator, TowEstimator};
use obs::trace::{self, Level, Value};
use obs::Histogram;
use pbs_core::{BobSession, Pbs, PbsConfig, ESTIMATOR_SEED_SALT};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on how long a `Closing` session may take to drain its final
/// frames before the socket is dropped anyway.
const CLOSING_GRACE_CAP: Duration = Duration::from_secs(5);

/// State shared by the acceptor and every worker.
pub(crate) struct Shared {
    pub registry: Arc<StoreRegistry>,
    pub config: ServerConfig,
    pub stats: Arc<ServerStats>,
    /// Live `Streaming` sessions across all workers, against
    /// `ServerConfig::max_subscribers`.
    pub live_subscribers: AtomicUsize,
    /// Per-phase latency histograms.
    pub session_metrics: SessionMetrics,
    /// Session-id allocator — ids label trace events and drive the
    /// deterministic trace sampling.
    pub next_session_id: AtomicU64,
}

/// The server-side latency histograms, one registration per server.
pub(crate) struct SessionMetrics {
    /// Accept → negotiated `Hello` flushed.
    pub handshake: Arc<Histogram>,
    /// Estimator bank awaited + served.
    pub estimate: Arc<Histogram>,
    /// Sketch/report rounds through the final ack queued.
    pub rounds: Arc<Histogram>,
    /// changelog catch-up (handshake `delta_epoch` → `DeltaDone`
    /// queued).
    pub delta_catchup: Arc<Histogram>,
    /// Store-mutation commit → push burst's `DeltaDone` drained to the OS.
    pub push_dispatch: Arc<Histogram>,
    /// Whole session, accept → reap.
    pub session: Arc<Histogram>,
}

impl SessionMetrics {
    pub(crate) fn registered(metrics: &obs::Registry) -> SessionMetrics {
        let phase = |name: &str, help: &str| {
            metrics.histogram("pbs_server_phase_seconds", help, &[("phase", name)], 1e-9)
        };
        SessionMetrics {
            handshake: phase("handshake", "Per-phase session latency."),
            estimate: phase("estimate", "Per-phase session latency."),
            rounds: phase("rounds", "Per-phase session latency."),
            delta_catchup: phase("delta_catchup", "Per-phase session latency."),
            push_dispatch: metrics.histogram(
                "pbs_server_push_dispatch_seconds",
                "Store-mutation commit to the push burst's DeltaDone drained to the socket.",
                &[],
                1e-9,
            ),
            session: metrics.histogram(
                "pbs_server_session_seconds",
                "Whole-session wall clock, accept to close.",
                &[],
                1e-9,
            ),
        }
    }
}

/// What a worker can be woken for.
pub(crate) enum Notice {
    /// A freshly accepted connection.
    Conn(TcpStream),
    /// A store mutated; push to its subscribers. `at` is the commit
    /// instant (captured in the notifier, right after the store's element
    /// lock released) — the push-dispatch latency clock starts here.
    StoreChanged { store: String, at: Instant },
    /// Close every session and exit.
    Shutdown,
}

/// The write end of a worker's wake pipe (a loopback socket pair).
/// Cheap to clone; safe to fire from any thread and from inside store
/// notifier callbacks. A full pipe means a wake is already pending, so
/// `WouldBlock` is success.
#[derive(Clone)]
pub(crate) struct WakeSender {
    writer: Arc<TcpStream>,
}

impl WakeSender {
    pub(crate) fn wake(&self) {
        let _ = (&*self.writer).write(&[1u8]);
    }
}

/// The handle the acceptor/server keeps per worker.
pub(crate) struct WorkerLink {
    pub tx: mpsc::Sender<Notice>,
    pub wake: WakeSender,
}

impl Clone for WorkerLink {
    fn clone(&self) -> Self {
        WorkerLink {
            tx: self.tx.clone(),
            wake: self.wake.clone(),
        }
    }
}

/// A connected non-blocking loopback socket pair: the std-only portable
/// stand-in for `pipe(2)`.
fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind((Ipv4Addr::LOCALHOST, 0))?;
    let writer = TcpStream::connect(listener.local_addr()?)?;
    let (reader, _) = listener.accept()?;
    reader.set_nonblocking(true)?;
    writer.set_nonblocking(true)?;
    let _ = writer.set_nodelay(true);
    Ok((reader, writer))
}

/// Spawn one event-loop worker. Returns its link plus the join handle.
pub(crate) fn spawn_worker(
    index: usize,
    shared: Arc<Shared>,
) -> io::Result<(WorkerLink, std::thread::JoinHandle<()>)> {
    let (wake_reader, wake_writer) = wake_pair()?;
    let (tx, rx) = mpsc::channel::<Notice>();
    let link = WorkerLink {
        tx: tx.clone(),
        wake: WakeSender {
            writer: Arc::new(wake_writer),
        },
    };
    let worker_link = link.clone();
    let join = std::thread::Builder::new()
        .name(format!("pbs-net-worker-{index}"))
        .spawn(move || {
            Worker {
                shared,
                rx,
                link: worker_link,
                wake_reader,
                poller: Poller::new(),
                sessions: Vec::new(),
                dirty_stores: HashMap::new(),
                notified_stores: HashSet::new(),
                ping_nonce: 0x5EED_0000,
                shutting_down: false,
            }
            .run()
        })?;
    Ok((link, join))
}

// ---------------------------------------------------------------------------
// Session state machine
// ---------------------------------------------------------------------------

/// Where a session stands. The protocol phases mirror `docs/WIRE.md`; the
/// two tail states are this PR's additions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Awaiting the client's `Hello`.
    Handshake,
    /// Awaiting the client's ToW estimator bank.
    Estimate,
    /// Sketch/report rounds until the final `Done` transfer.
    Rounds,
    /// The session is logically complete (the client holds a `DeltaDone`
    /// epoch baseline); a `Subscribe` turns it live, anything else ends it.
    AwaitSubscribe,
    /// A live subscription: the server pushes delta bursts on mutation.
    Streaming,
    /// Draining the final queued frames, then closing with the recorded
    /// outcome (`true` = completed).
    Closing(bool),
}

/// Protocol context accumulated by the handshake, carried through the
/// classic reconciliation phases.
struct ProtoCtx {
    cfg: PbsConfig,
    seed: u64,
    round_cap: u32,
    max_d: u64,
    max_done_elements: u32,
    /// The one per-session snapshot (estimator and Bob must see the same
    /// set). Dropped once the `BobSession` is built from it.
    snapshot: Vec<u64>,
    snapshot_epoch: Option<u64>,
    /// Whether this session may park in `AwaitSubscribe` after its ack:
    /// the routed store keeps epochs.
    subscribable: bool,
    params: Option<OptimalParams>,
    bob: Option<Box<BobSession>>,
    rounds: u32,
}

struct Session {
    nb: MuxStream,
    fd: RawFd,
    phase: Phase,
    /// Server-unique session id: labels trace events, drives trace
    /// sampling.
    id: u64,
    /// Whether trace events fire for this session (tracer installed, level
    /// admits Info, and the id passed the sample rate) — decided once at
    /// accept so a session traces all-or-nothing.
    traced: bool,
    /// Accept instant: base of the handshake-phase and whole-session
    /// timings.
    accepted: Instant,
    /// When the current protocol phase began (reset at each recorded
    /// phase boundary).
    phase_start: Instant,
    /// The commit instant of the oldest store mutation whose push burst is
    /// still queued toward this subscriber — cleared (and recorded as
    /// push-dispatch latency) when the write buffer fully drains.
    push_started: Option<Instant>,
    /// `Some(completed)` once the session is over; reaped by the worker.
    done: Option<bool>,
    /// Wall-clock budget, accept → final ack (pre-subscription phases).
    deadline: Instant,
    last_recv: Instant,
    /// When this session last became *ready for* the peer's next frame —
    /// reset after each processing pass, so the inactivity window matches
    /// the blocking server's per-`recv` read timeout (the server's own
    /// processing time never counts against the peer).
    wait_since: Instant,
    last_send_progress: Instant,
    last_ping: Instant,
    closing_grace: Option<Instant>,
    /// The epoch baseline a `Streaming` session's pushes start from.
    sub_epoch: u64,
    /// Routed store entry (per-store stats) and the store itself.
    entry: Option<Arc<RegisteredStore>>,
    store: Option<Arc<dyn SetStore>>,
    store_name: String,
    counted_subscriber: bool,
    ctx: Option<ProtoCtx>,
}

impl Session {
    fn new(stream: TcpStream, config: &ServerConfig, now: Instant, id: u64) -> io::Result<Session> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(config.transport.nodelay)?;
        let fd = stream.as_raw_fd();
        Ok(Session {
            nb: MuxStream::new(stream, config.transport.max_frame),
            fd,
            phase: Phase::Handshake,
            id,
            traced: trace::enabled(Level::Info) && trace::sampled(id),
            accepted: now,
            phase_start: now,
            push_started: None,
            done: None,
            deadline: now + config.session_deadline,
            last_recv: now,
            wait_since: now,
            last_send_progress: now,
            last_ping: now,
            closing_grace: None,
            sub_epoch: 0,
            entry: None,
            store: None,
            store_name: String::new(),
            counted_subscriber: false,
            ctx: None,
        })
    }

    fn finish(&mut self, completed: bool) {
        if self.done.is_none() {
            self.done = Some(completed);
        }
    }

    /// The outcome an externally forced close (EOF, I/O error, shutdown)
    /// maps to in this phase: a session past its final ack closed
    /// cleanly; one cut mid-protocol failed.
    fn close_outcome(&self) -> bool {
        match self.phase {
            Phase::Handshake | Phase::Estimate | Phase::Rounds => false,
            Phase::AwaitSubscribe | Phase::Streaming => true,
            Phase::Closing(completed) => completed,
        }
    }
}

// ---------------------------------------------------------------------------
// Worker
// ---------------------------------------------------------------------------

struct Worker {
    shared: Arc<Shared>,
    rx: mpsc::Receiver<Notice>,
    /// This worker's own link — cloned into store notifier closures.
    link: WorkerLink,
    wake_reader: TcpStream,
    poller: Poller,
    sessions: Vec<Session>,
    /// Stores with pending pushes, mapped to the *earliest* unserved
    /// mutation-commit instant (the push-dispatch latency baseline).
    dirty_stores: HashMap<String, Instant>,
    /// Stores this worker has already installed a mutation notifier on.
    notified_stores: HashSet<String>,
    ping_nonce: u64,
    shutting_down: bool,
}

impl Worker {
    fn config(&self) -> &ServerConfig {
        &self.shared.config
    }

    fn bump(
        &self,
        entry: &Option<Arc<RegisteredStore>>,
        f: fn(&ServerStats) -> &AtomicU64,
        n: u64,
    ) {
        f(&self.shared.stats).fetch_add(n, Ordering::Relaxed);
        if let Some(e) = entry {
            f(e.stats()).fetch_add(n, Ordering::Relaxed);
        }
    }

    fn run(mut self) {
        loop {
            self.drain_notices();
            if self.shutting_down {
                self.close_all();
                return;
            }
            if !self.dirty_stores.is_empty() {
                let dirty = std::mem::take(&mut self.dirty_stores);
                for i in 0..self.sessions.len() {
                    if self.sessions[i].done.is_none() && self.sessions[i].phase == Phase::Streaming
                    {
                        if let Some(&at) = dirty.get(&self.sessions[i].store_name) {
                            self.push_deltas(i, Some(at));
                        }
                    }
                }
            }
            self.reap();

            // Build the interest set: the wake pipe plus every session,
            // write interest only while that session has queued bytes.
            let mut interests: Vec<(RawFd, Interest)> =
                vec![(self.wake_reader.as_raw_fd(), Interest::READABLE)];
            for sess in &self.sessions {
                interests.push((
                    sess.fd,
                    Interest {
                        readable: true,
                        writable: sess.nb.pending_out() > 0,
                    },
                ));
            }
            let now = Instant::now();
            let timeout = self
                .next_deadline()
                .map(|due| due.saturating_duration_since(now) + Duration::from_millis(1));
            let events = match self.poller.wait(&interests, timeout) {
                Ok(events) => events,
                Err(_) => {
                    std::thread::sleep(Duration::from_millis(5));
                    Vec::new()
                }
            };
            for event in events {
                if event.fd == self.wake_reader.as_raw_fd() {
                    let mut buf = [0u8; 256];
                    while matches!((&self.wake_reader).read(&mut buf), Ok(n) if n > 0) {}
                    continue;
                }
                let Some(i) = self.sessions.iter().position(|s| s.fd == event.fd) else {
                    continue;
                };
                if self.sessions[i].done.is_some() {
                    continue;
                }
                if event.writable {
                    self.on_writable(i);
                }
                if (event.readable || event.error) && self.sessions[i].done.is_none() {
                    self.on_readable(i);
                }
            }
            self.timer_pass();
            self.reap();
        }
    }

    fn drain_notices(&mut self) {
        loop {
            match self.rx.try_recv() {
                Ok(Notice::Conn(stream)) => self.add_session(stream),
                Ok(Notice::StoreChanged { store, at }) => {
                    // Keep the *earliest* commit instant while notices
                    // coalesce, so the dispatch latency never under-reports.
                    self.dirty_stores
                        .entry(store)
                        .and_modify(|t| *t = (*t).min(at))
                        .or_insert(at);
                }
                Ok(Notice::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => {
                    // Connections are never enqueued after Shutdown (the
                    // acceptor is joined first), so anything still queued
                    // was already drained above.
                    self.shutting_down = true;
                    return;
                }
                Err(mpsc::TryRecvError::Empty) => return,
            }
        }
    }

    fn add_session(&mut self, stream: TcpStream) {
        self.shared
            .stats
            .sessions_started
            .fetch_add(1, Ordering::Relaxed);
        let id = self.shared.next_session_id.fetch_add(1, Ordering::Relaxed);
        let peer = stream.peer_addr().ok();
        match Session::new(stream, self.config(), Instant::now(), id) {
            Ok(sess) => {
                if sess.traced {
                    let peer = peer.map(|p| p.to_string()).unwrap_or_default();
                    trace::event(
                        Level::Info,
                        "session",
                        Some(id),
                        "accept",
                        &[("peer", Value::Str(&peer))],
                    );
                }
                self.sessions.push(sess);
            }
            Err(_) => {
                self.shared
                    .stats
                    .sessions_failed
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Record the elapsed time of the phase ending now for session `i`
    /// into the histogram `pick` selects, and restart the phase clock.
    fn record_phase(&mut self, i: usize, pick: fn(&SessionMetrics) -> &Arc<Histogram>) {
        let now = Instant::now();
        pick(&self.shared.session_metrics).record_duration(now - self.sessions[i].phase_start);
        self.sessions[i].phase_start = now;
    }

    /// Emit an Info-level trace event for session `i`, if it is traced.
    fn trace_session(&self, i: usize, event: &str, fields: &[(&str, Value<'_>)]) {
        if self.sessions[i].traced {
            trace::event(
                Level::Info,
                "session",
                Some(self.sessions[i].id),
                event,
                fields,
            );
        }
    }

    /// Earliest instant any session needs the loop to act without I/O.
    fn next_deadline(&self) -> Option<Instant> {
        let cfg = self.config();
        let mut due: Option<Instant> = None;
        let mut track = |t: Instant| {
            due = Some(match due {
                Some(d) => d.min(t),
                None => t,
            });
        };
        for sess in &self.sessions {
            if sess.done.is_some() {
                continue;
            }
            match sess.phase {
                Phase::Handshake | Phase::Estimate | Phase::Rounds => {
                    track(sess.deadline);
                    if let Some(t) = cfg.transport.read_timeout {
                        track(sess.wait_since + t);
                    }
                }
                Phase::AwaitSubscribe => {
                    if let Some(t) = cfg.transport.read_timeout {
                        track(sess.wait_since + t);
                    }
                }
                Phase::Streaming => {
                    let idle_base = sess
                        .last_recv
                        .max(sess.last_send_progress)
                        .max(sess.last_ping);
                    track(idle_base + cfg.keepalive);
                    track(sess.last_recv + cfg.keepalive * 3);
                }
                Phase::Closing(_) => {
                    if let Some(grace) = sess.closing_grace {
                        track(grace);
                    }
                }
            }
            if sess.nb.pending_out() > 0 {
                if let Some(t) = cfg.transport.write_timeout {
                    track(sess.last_send_progress + t);
                }
            }
        }
        due
    }

    fn timer_pass(&mut self) {
        let cfg = *self.config();
        let now = Instant::now();
        for i in 0..self.sessions.len() {
            if self.sessions[i].done.is_some() {
                continue;
            }
            // Write stall: queued bytes making no progress for the write
            // timeout. A stalled subscriber is a slow consumer.
            if self.sessions[i].nb.pending_out() > 0 {
                if let Some(t) = cfg.transport.write_timeout {
                    if now >= self.sessions[i].last_send_progress + t {
                        if self.sessions[i].phase == Phase::Streaming {
                            let entry = self.sessions[i].entry.clone();
                            self.bump(&entry, |s| &s.subscribers_evicted, 1);
                            if self.sessions[i].traced {
                                trace::event(
                                    Level::Warn,
                                    "session",
                                    Some(self.sessions[i].id),
                                    "evicted",
                                    &[("reason", Value::Str("write_stall"))],
                                );
                            }
                        }
                        let outcome = self.sessions[i].close_outcome();
                        self.sessions[i].finish(outcome);
                        continue;
                    }
                }
            }
            match self.sessions[i].phase {
                Phase::Handshake | Phase::Estimate | Phase::Rounds => {
                    if now >= self.sessions[i].deadline {
                        self.refuse(i, ErrorCode::Internal, "session deadline exceeded");
                        continue;
                    }
                    if let Some(t) = cfg.transport.read_timeout {
                        if now >= self.sessions[i].wait_since + t {
                            self.sessions[i].finish(false);
                        }
                    }
                }
                Phase::AwaitSubscribe => {
                    // The session is logically complete: an inactivity
                    // window with no Subscribe is a clean end.
                    if let Some(t) = cfg.transport.read_timeout {
                        if now >= self.sessions[i].wait_since + t {
                            self.sessions[i].finish(true);
                        }
                    }
                }
                Phase::Streaming => {
                    if now >= self.sessions[i].last_recv + cfg.keepalive * 3 {
                        // The subscriber stopped answering keepalives.
                        self.sessions[i].finish(true);
                        continue;
                    }
                    let idle_base = self.sessions[i]
                        .last_recv
                        .max(self.sessions[i].last_send_progress)
                        .max(self.sessions[i].last_ping);
                    if now >= idle_base + cfg.keepalive && self.sessions[i].nb.pending_out() == 0 {
                        self.ping_nonce = self.ping_nonce.wrapping_add(1);
                        let nonce = self.ping_nonce;
                        if self.sessions[i].nb.queue(&Frame::Ping { nonce }).is_ok() {
                            self.sessions[i].last_ping = now;
                            let entry = self.sessions[i].entry.clone();
                            self.bump(&entry, |s| &s.keepalive_pings, 1);
                            self.on_writable(i);
                        }
                    }
                }
                Phase::Closing(completed) => {
                    let expired = self.sessions[i].closing_grace.is_some_and(|g| now >= g);
                    if expired || self.sessions[i].nb.pending_out() == 0 {
                        self.sessions[i].finish(completed);
                    }
                }
            }
        }
    }

    fn on_writable(&mut self, i: usize) {
        match self.sessions[i].nb.flush() {
            Ok(progress) => {
                if progress {
                    self.sessions[i].last_send_progress = Instant::now();
                }
                if self.sessions[i].nb.pending_out() == 0 {
                    // Push burst fully handed to the OS: the dispatch
                    // latency clock (mutation commit → drained) stops.
                    if let Some(started) = self.sessions[i].push_started.take() {
                        self.shared
                            .session_metrics
                            .push_dispatch
                            .record_duration(started.elapsed());
                    }
                    if let Phase::Closing(completed) = self.sessions[i].phase {
                        self.sessions[i].finish(completed);
                    }
                }
            }
            Err(_) => {
                let outcome = self.sessions[i].close_outcome();
                self.sessions[i].finish(outcome);
            }
        }
    }

    fn on_readable(&mut self, i: usize) {
        if self.sessions[i].nb.fill().is_err() {
            let outcome = self.sessions[i].close_outcome();
            self.sessions[i].finish(outcome);
            return;
        }
        loop {
            if self.sessions[i].done.is_some() {
                return;
            }
            match self.sessions[i].nb.next_frame() {
                Ok(Some(frame)) => {
                    self.sessions[i].last_recv = Instant::now();
                    if !matches!(self.sessions[i].phase, Phase::Closing(_)) {
                        self.handle_frame(i, frame);
                    }
                    // The frame's handling (which can be expensive —
                    // building a Bob session hashes the whole snapshot)
                    // must not count against the peer's next-frame window.
                    if self.sessions[i].done.is_none() {
                        self.sessions[i].wait_since = Instant::now();
                    }
                }
                Ok(None) => break,
                // The one undecodable frame that gets an answer: a peer
                // from another protocol version is told so. (The frame
                // stays at the head of the read buffer; met again while
                // the refusal drains, it just ends the session below.)
                Err(NetError::Frame(FrameError::Version(version)))
                    if !matches!(self.sessions[i].phase, Phase::Closing(_)) =>
                {
                    return self.refuse(
                        i,
                        ErrorCode::Version,
                        format!("protocol version {version} is not v{PROTOCOL_VERSION}"),
                    );
                }
                Err(_) => {
                    // Undecodable bytes end the session exactly like the
                    // blocking server's failed `read_frame` did: drop the
                    // connection, no Error frame for garbage framing.
                    self.sessions[i].finish(false);
                    return;
                }
            }
        }
        if self.sessions[i].nb.peer_closed() {
            let outcome = self.sessions[i].close_outcome();
            if self.sessions[i].nb.pending_out() > 0 {
                // The peer may have only shut its write half; drain our
                // queued replies before closing.
                self.sessions[i].phase = Phase::Closing(outcome);
                self.arm_closing_grace(i);
            } else {
                self.sessions[i].finish(outcome);
            }
        } else if self.sessions[i].done.is_none() && self.sessions[i].nb.pending_out() > 0 {
            // Opportunistic flush: most replies fit the socket buffer and
            // complete without waiting for a writability event.
            self.on_writable(i);
        }
    }

    fn arm_closing_grace(&mut self, i: usize) {
        let grace = self
            .config()
            .transport
            .write_timeout
            .unwrap_or(CLOSING_GRACE_CAP)
            .min(CLOSING_GRACE_CAP);
        self.sessions[i].closing_grace = Some(Instant::now() + grace);
    }

    /// Queue an `Error` frame and move to `Closing` as failed — the
    /// non-blocking counterpart of the blocking server's `refuse`.
    fn refuse(&mut self, i: usize, code: ErrorCode, message: impl Into<String>) {
        let message = message.into();
        if self.sessions[i].traced {
            trace::event(
                Level::Warn,
                "session",
                Some(self.sessions[i].id),
                "refused",
                &[
                    ("code", Value::U64(code as u64)),
                    ("message", Value::Str(&message)),
                ],
            );
        }
        let _ = self.sessions[i].nb.queue(&Frame::Error { code, message });
        self.sessions[i].phase = Phase::Closing(false);
        self.arm_closing_grace(i);
        self.on_writable(i);
    }

    /// Ack sent; either park the session for a `Subscribe` (on an
    /// epoch-capable store) or drain and close as completed.
    fn after_ack(&mut self, i: usize) {
        let subscribable = self.sessions[i]
            .ctx
            .as_ref()
            .is_some_and(|c| c.subscribable);
        if subscribable {
            self.sessions[i].phase = Phase::AwaitSubscribe;
        } else {
            self.sessions[i].phase = Phase::Closing(true);
            self.arm_closing_grace(i);
        }
        self.on_writable(i);
    }

    fn handle_frame(&mut self, i: usize, frame: Frame) {
        // A peer Error frame ends the session in any phase, reply-less —
        // the blocking server surfaced it as `NetError::Remote`.
        if matches!(frame, Frame::Error { .. }) {
            self.sessions[i].finish(false);
            return;
        }
        match self.sessions[i].phase {
            Phase::Handshake => self.handle_hello(i, frame),
            Phase::Estimate => self.handle_estimator(i, frame),
            Phase::Rounds => self.handle_round(i, frame),
            Phase::AwaitSubscribe => self.handle_subscribe(i, frame),
            Phase::Streaming => self.handle_streaming(i, frame),
            Phase::Closing(_) => {}
        }
    }

    fn handle_hello(&mut self, i: usize, frame: Frame) {
        let hello = match frame {
            Frame::Hello(h) => h,
            other => {
                return self.refuse(
                    i,
                    ErrorCode::Protocol,
                    format!("expected Hello, got frame type {}", other.type_byte()),
                )
            }
        };
        let cfg = match hello.config() {
            Ok(cfg) => cfg,
            Err(why) => return self.refuse(i, ErrorCode::BadConfig, why),
        };
        let config = *self.config();

        let Some(entry) = self.shared.registry.get(&hello.store) else {
            return self.refuse(
                i,
                ErrorCode::UnknownStore,
                format!("no store named {:?}", hello.store),
            );
        };
        entry
            .stats()
            .sessions_started
            .fetch_add(1, Ordering::Relaxed);
        let store = Arc::clone(entry.store());
        let options = entry.options();
        let round_cap = options.round_cap.unwrap_or(config.round_cap);
        let max_d = options.max_d.unwrap_or(config.max_d);
        let max_done_elements = options
            .max_done_elements
            .unwrap_or(config.max_done_elements);

        let mut negotiated = hello.clone();
        negotiated.store = entry.name().to_string();
        negotiated.pipeline = hello
            .pipeline
            .max(1)
            .min(config.max_pipeline_depth.clamp(1, u8::MAX as u32) as u8);
        self.sessions[i].store_name = entry.name().to_string();
        self.sessions[i].entry = Some(Arc::clone(&entry));
        self.sessions[i].store = Some(Arc::clone(&store));
        if self.sessions[i]
            .nb
            .queue(&Frame::Hello(negotiated))
            .is_err()
        {
            self.sessions[i].finish(false);
            return;
        }
        // Flush the negotiated Hello *before* the potentially expensive
        // session setup below (snapshot + Bob build): the client starts
        // its own sketch computation on receipt, so the two overlap — the
        // blocking server had the same send-then-build order.
        self.on_writable(i);
        if self.sessions[i].done.is_some() {
            return;
        }
        // The handshake phase ends with the negotiated Hello on the wire;
        // what follows (delta catch-up / snapshot + Bob build) belongs to
        // the next phase's clock.
        self.record_phase(i, |m| &m.handshake);
        self.trace_session(
            i,
            "hello",
            &[
                ("store", Value::Str(entry.name())),
                ("known_d", Value::U64(hello.known_d)),
                ("delta_epoch", Value::Bool(hello.delta_epoch.is_some())),
            ],
        );
        let entry_opt = Some(entry);

        let mut ctx = ProtoCtx {
            cfg,
            seed: hello.seed,
            round_cap,
            max_d,
            max_done_elements,
            snapshot: Vec::new(),
            snapshot_epoch: None,
            subscribable: false,
            params: None,
            bob: None,
            rounds: 0,
        };

        // ---- Delta subscription path ----
        if let Some(since) = hello.delta_epoch {
            match store.delta_since(since) {
                DeltaAnswer::Changes { batches, current } => {
                    self.bump(&entry_opt, |s| &s.delta_sessions, 1);
                    let capacity = delta_chunk_capacity(config.transport.max_frame);
                    for batch in &batches {
                        self.bump(
                            &entry_opt,
                            |s| &s.delta_elements,
                            (batch.added.len() + batch.removed.len()) as u64,
                        );
                        for frame in
                            delta_batch_frames(batch.epoch, &batch.added, &batch.removed, capacity)
                        {
                            self.bump(&entry_opt, |s| &s.delta_batches, 1);
                            if self.sessions[i].nb.queue(&frame).is_err() {
                                self.sessions[i].finish(false);
                                return;
                            }
                        }
                    }
                    if self.sessions[i]
                        .nb
                        .queue(&Frame::DeltaDone { epoch: current })
                        .is_err()
                    {
                        self.sessions[i].finish(false);
                        return;
                    }
                    // Served entirely from the changelog: the session
                    // is complete and may turn into a live
                    // subscription.
                    ctx.subscribable = true;
                    self.sessions[i].ctx = Some(ctx);
                    self.sessions[i].phase = Phase::AwaitSubscribe;
                    self.record_phase(i, |m| &m.delta_catchup);
                    self.trace_session(
                        i,
                        "delta_catchup",
                        &[
                            ("batches", Value::U64(batches.len() as u64)),
                            ("epoch", Value::U64(current)),
                        ],
                    );
                    self.on_writable(i);
                    return;
                }
                DeltaAnswer::Trimmed { current } => {
                    self.bump(&entry_opt, |s| &s.delta_fallbacks, 1);
                    if self.sessions[i]
                        .nb
                        .queue(&Frame::FullResyncRequired { epoch: current })
                        .is_err()
                    {
                        self.sessions[i].finish(false);
                        return;
                    }
                }
                DeltaAnswer::Unsupported => {
                    self.bump(&entry_opt, |s| &s.delta_fallbacks, 1);
                    if self.sessions[i]
                        .nb
                        .queue(&Frame::FullResyncRequired { epoch: 0 })
                        .is_err()
                    {
                        self.sessions[i].finish(false);
                        return;
                    }
                }
            }
        }

        // ---- Classic reconciliation ----
        // One snapshot for the whole session: estimator and Bob must
        // describe the same set; its epoch is the ack's baseline.
        let (snapshot, snapshot_epoch) = store.epoch_snapshot();
        ctx.snapshot = snapshot;
        ctx.snapshot_epoch = snapshot_epoch;
        ctx.subscribable = snapshot_epoch.is_some();

        if hello.known_d > 0 {
            if hello.known_d > max_d {
                self.sessions[i].ctx = Some(ctx);
                return self.refuse(
                    i,
                    ErrorCode::BadConfig,
                    format!("d = {} exceeds the server cap {max_d}", hello.known_d),
                );
            }
            let params = Pbs::new(cfg).plan(hello.known_d as usize);
            ctx.bob = Some(Box::new(BobSession::new(
                cfg,
                params,
                &ctx.snapshot,
                hello.seed,
            )));
            ctx.params = Some(params);
            ctx.snapshot = Vec::new();
            self.sessions[i].ctx = Some(ctx);
            self.sessions[i].phase = Phase::Rounds;
        } else {
            self.sessions[i].ctx = Some(ctx);
            self.sessions[i].phase = Phase::Estimate;
        }
        self.on_writable(i);
    }

    fn handle_estimator(&mut self, i: usize, frame: Frame) {
        let bank_bytes = match frame {
            Frame::EstimatorExchange(EstimatorMsg::TowBank(bytes)) => bytes,
            other => {
                return self.refuse(
                    i,
                    ErrorCode::Protocol,
                    format!(
                        "expected estimator bank, got frame type {}",
                        other.type_byte()
                    ),
                )
            }
        };
        let Some(client_bank) = TowEstimator::from_bytes(&bank_bytes) else {
            return self.refuse(i, ErrorCode::Decode, "malformed estimator bank");
        };
        let (cfg, seed) = {
            let ctx = self.sessions[i].ctx.as_ref().expect("estimate has ctx");
            (ctx.cfg, ctx.seed)
        };
        let est_seed = xhash::derive_seed(seed, ESTIMATOR_SEED_SALT);
        if client_bank.seed() != est_seed || client_bank.sketch_count() != cfg.estimator_sketches {
            return self.refuse(
                i,
                ErrorCode::BadConfig,
                "estimator bank does not match the handshake parameters",
            );
        }
        let entry = self.sessions[i].entry.clone();
        let (d_param, d_hat) = {
            let ctx = self.sessions[i].ctx.as_ref().expect("estimate has ctx");
            let mut own = TowEstimator::new(cfg.estimator_sketches, est_seed);
            own.insert_slice(&ctx.snapshot);
            let d_hat = client_bank.estimate(&own);
            (estimator::inflate_estimate(d_hat) as u64, d_hat)
        };
        self.bump(&entry, |s| &s.estimator_exchanges, 1);
        if self.sessions[i]
            .nb
            .queue(&Frame::EstimatorExchange(EstimatorMsg::Estimate {
                d_param,
                d_hat,
            }))
            .is_err()
        {
            self.sessions[i].finish(false);
            return;
        }
        // Flush the estimate before the Bob build below so the client's
        // sketch computation overlaps it (see `handle_hello`).
        self.on_writable(i);
        if self.sessions[i].done.is_some() {
            return;
        }
        let max_d = self.sessions[i].ctx.as_ref().expect("ctx").max_d;
        if d_param > max_d {
            return self.refuse(
                i,
                ErrorCode::BadConfig,
                format!("d = {d_param} exceeds the server cap {max_d}"),
            );
        }
        {
            let ctx = self.sessions[i].ctx.as_mut().expect("ctx");
            let params = Pbs::new(cfg).plan(d_param as usize);
            ctx.bob = Some(Box::new(BobSession::new(
                cfg,
                params,
                &ctx.snapshot,
                ctx.seed,
            )));
            ctx.params = Some(params);
            ctx.snapshot = Vec::new();
        }
        self.sessions[i].phase = Phase::Rounds;
        self.record_phase(i, |m| &m.estimate);
        self.trace_session(i, "estimated", &[("d_param", Value::U64(d_param))]);
        self.on_writable(i);
    }

    fn handle_round(&mut self, i: usize, frame: Frame) {
        let config = *self.config();
        let entry = self.sessions[i].entry.clone();
        match frame {
            Frame::Sketches { m, batch } => {
                // Pipelining: layers — not frames — are what the round cap
                // meters; each costs a full per-group decode pass.
                let mut layer_rounds: Vec<u32> = batch.iter().map(|s| s.round).collect();
                layer_rounds.sort_unstable();
                layer_rounds.dedup();
                let layers = (layer_rounds.len() as u32).max(1);
                let (round_cap, params) = {
                    let ctx = self.sessions[i].ctx.as_ref().expect("rounds have ctx");
                    (ctx.round_cap, ctx.params.expect("params set"))
                };
                if layers > config.max_pipeline_depth {
                    return self.refuse(
                        i,
                        ErrorCode::BadConfig,
                        format!(
                            "{layers} pipelined layers exceed the server cap {}",
                            config.max_pipeline_depth
                        ),
                    );
                }
                let rounds = {
                    let ctx = self.sessions[i].ctx.as_mut().expect("ctx");
                    ctx.rounds += layers;
                    ctx.rounds
                };
                if rounds > round_cap {
                    return self.refuse(
                        i,
                        ErrorCode::RoundLimit,
                        format!("round cap {round_cap} exceeded"),
                    );
                }
                // Shape-check before the codec's capacity assertion could
                // fire: the batch must be nonempty (a zero-sketch round is a
                // degenerate shape no worker should ever be handed) and every
                // sketch must match the negotiated (m, t).
                if batch.is_empty() {
                    return self.refuse(i, ErrorCode::BadConfig, "empty sketch batch");
                }
                if m != params.m || batch.iter().any(|s| s.sketch.capacity() != params.t) {
                    return self.refuse(
                        i,
                        ErrorCode::BadConfig,
                        format!(
                            "sketch shape mismatch: negotiated m={} t={}",
                            params.m, params.t
                        ),
                    );
                }
                let reports = {
                    let ctx = self.sessions[i].ctx.as_mut().expect("ctx");
                    ctx.bob.as_mut().expect("bob built").handle_sketches(&batch)
                };
                self.bump(&entry, |s| &s.rounds, layers as u64);
                self.bump(&entry, |s| &s.round_trips, 1);
                if self.sessions[i].nb.queue(&Frame::Reports(reports)).is_err() {
                    self.sessions[i].finish(false);
                    return;
                }
                self.on_writable(i);
            }
            Frame::Done(elements) => {
                let (cfg, max_done_elements, snapshot_epoch) = {
                    let ctx = self.sessions[i].ctx.as_ref().expect("ctx");
                    (ctx.cfg, ctx.max_done_elements, ctx.snapshot_epoch)
                };
                if elements.len() as u64 > max_done_elements as u64 {
                    return self.refuse(
                        i,
                        ErrorCode::BadConfig,
                        format!(
                            "final transfer of {} elements exceeds the cap {}",
                            elements.len(),
                            max_done_elements
                        ),
                    );
                }
                // Zero or out-of-universe elements would poison the store.
                let universe_mask = if cfg.universe_bits == 64 {
                    u64::MAX
                } else {
                    (1u64 << cfg.universe_bits) - 1
                };
                if elements.iter().any(|&e| e == 0 || e > universe_mask) {
                    return self.refuse(
                        i,
                        ErrorCode::BadConfig,
                        format!(
                            "final transfer contains elements outside the {}-bit universe",
                            cfg.universe_bits
                        ),
                    );
                }
                let store = self.sessions[i].store.clone().expect("routed store");
                store.apply_missing(&elements);
                self.bump(&entry, |s| &s.elements_received, elements.len() as u64);
                // Against an epoch-capable store the ack carries the *snapshot* epoch — the client's new delta
                // baseline (changes landing after the snapshot were
                // invisible to this session; the next delta sync replays
                // them idempotently).
                let ack = match snapshot_epoch {
                    Some(epoch) => Frame::DeltaDone { epoch },
                    None => Frame::Done(Vec::new()),
                };
                if self.sessions[i].nb.queue(&ack).is_err() {
                    self.sessions[i].finish(false);
                    return;
                }
                self.record_phase(i, |m| &m.rounds);
                let rounds = self.sessions[i].ctx.as_ref().map_or(0, |c| c.rounds);
                self.trace_session(
                    i,
                    "reconciled",
                    &[
                        ("rounds", Value::U64(rounds as u64)),
                        ("received", Value::U64(elements.len() as u64)),
                    ],
                );
                self.after_ack(i);
            }
            other => self.refuse(
                i,
                ErrorCode::Protocol,
                format!(
                    "unexpected frame type {} during the round loop",
                    other.type_byte()
                ),
            ),
        }
    }

    fn handle_subscribe(&mut self, i: usize, frame: Frame) {
        let epoch = match frame {
            Frame::Subscribe { epoch } => epoch,
            other => {
                return self.refuse(
                    i,
                    ErrorCode::Protocol,
                    format!(
                        "unexpected frame type {} while awaiting Subscribe",
                        other.type_byte()
                    ),
                )
            }
        };
        let max = self.config().max_subscribers;
        if self.shared.live_subscribers.load(Ordering::Relaxed) >= max {
            return self.refuse(
                i,
                ErrorCode::Internal,
                format!("subscriber limit {max} reached"),
            );
        }
        self.shared.live_subscribers.fetch_add(1, Ordering::Relaxed);
        self.sessions[i].counted_subscriber = true;
        let entry = self.sessions[i].entry.clone();
        self.bump(&entry, |s| &s.subscriptions, 1);
        // Install this worker's mutation notifier on the store *before*
        // the initial catch-up below: a mutation landing in between then
        // raises a (harmless, idempotent) extra wakeup instead of being
        // missed.
        let store = self.sessions[i].store.clone().expect("routed store");
        let name = self.sessions[i].store_name.clone();
        self.ensure_notifier(&name, &store);
        let now = Instant::now();
        self.sessions[i].sub_epoch = epoch;
        self.sessions[i].phase = Phase::Streaming;
        self.sessions[i].last_ping = now;
        self.sessions[i].last_send_progress = now;
        self.trace_session(i, "subscribed", &[("epoch", Value::U64(epoch))]);
        // Catch up on anything that mutated between the client's baseline
        // and this Subscribe. Not a push dispatch: the latency clock only
        // runs for bursts triggered by a store mutation.
        self.push_deltas(i, None);
    }

    fn handle_streaming(&mut self, i: usize, frame: Frame) {
        match frame {
            Frame::Pong { .. } => {} // liveness credit via last_recv
            Frame::Ping { nonce } => {
                if self.sessions[i].nb.queue(&Frame::Pong { nonce }).is_ok() {
                    self.on_writable(i);
                } else {
                    self.sessions[i].finish(false);
                }
            }
            other => self.refuse(
                i,
                ErrorCode::Protocol,
                format!(
                    "unexpected frame type {} on a live subscription",
                    other.type_byte()
                ),
            ),
        }
    }

    /// Push everything the store changed past this subscriber's epoch as
    /// one `DeltaBatch*`/`DeltaDone` burst, evicting the subscriber if
    /// the burst would overrun its buffer cap. `origin` is the commit
    /// instant of the mutation that triggered the push (`None` for the
    /// initial Subscribe catch-up) — it seeds the dispatch-latency clock
    /// stopped in `on_writable` when the burst drains.
    fn push_deltas(&mut self, i: usize, origin: Option<Instant>) {
        let store = self.sessions[i].store.clone().expect("streaming has store");
        let entry = self.sessions[i].entry.clone();
        let config = *self.config();
        match store.delta_since(self.sessions[i].sub_epoch) {
            DeltaAnswer::Changes { batches, current } => {
                if batches.is_empty() {
                    self.sessions[i].sub_epoch = current;
                    return;
                }
                let capacity = delta_chunk_capacity(config.transport.max_frame);
                let mut frames = Vec::new();
                let mut elements = 0u64;
                for batch in &batches {
                    elements += (batch.added.len() + batch.removed.len()) as u64;
                    frames.extend(delta_batch_frames(
                        batch.epoch,
                        &batch.added,
                        &batch.removed,
                        capacity,
                    ));
                }
                let done = Frame::DeltaDone { epoch: current };
                let burst_bytes: u64 =
                    frames.iter().map(Frame::wire_len).sum::<u64>() + done.wire_len();
                if self.sessions[i].nb.pending_out() as u64 + burst_bytes
                    > config.subscriber_buffer as u64
                {
                    // Slow consumer: cut it loose rather than buffer
                    // without bound. FullResyncRequired tells it to come
                    // back with a fresh reconciliation.
                    self.bump(&entry, |s| &s.subscribers_evicted, 1);
                    if self.sessions[i].traced {
                        trace::event(
                            Level::Warn,
                            "session",
                            Some(self.sessions[i].id),
                            "evicted",
                            &[
                                ("reason", Value::Str("buffer_overrun")),
                                ("burst_bytes", Value::U64(burst_bytes)),
                            ],
                        );
                    }
                    let _ = self.sessions[i]
                        .nb
                        .queue(&Frame::FullResyncRequired { epoch: current });
                    self.sessions[i].phase = Phase::Closing(true);
                    self.arm_closing_grace(i);
                    self.on_writable(i);
                    return;
                }
                for frame in &frames {
                    self.bump(&entry, |s| &s.push_batches, 1);
                    if self.sessions[i].nb.queue(frame).is_err() {
                        self.sessions[i].finish(false);
                        return;
                    }
                }
                self.bump(&entry, |s| &s.push_elements, elements);
                if self.sessions[i].nb.queue(&done).is_err() {
                    self.sessions[i].finish(false);
                    return;
                }
                self.sessions[i].sub_epoch = current;
                if let Some(origin) = origin {
                    let started = self.sessions[i].push_started;
                    self.sessions[i].push_started = Some(started.map_or(origin, |s| s.min(origin)));
                }
                self.on_writable(i);
            }
            DeltaAnswer::Trimmed { current } => {
                // The changelog no longer covers this subscriber (trimmed
                // under it while it idled, or the epoch space exhausted).
                let _ = self.sessions[i]
                    .nb
                    .queue(&Frame::FullResyncRequired { epoch: current });
                self.sessions[i].phase = Phase::Closing(true);
                self.arm_closing_grace(i);
                self.on_writable(i);
            }
            DeltaAnswer::Unsupported => self.sessions[i].finish(false),
        }
    }

    /// Install this worker's wakeup notifier on `store` (once per store
    /// name): mutation → `StoreChanged` notice + wake byte. The notifier
    /// unregisters itself once the worker is gone.
    fn ensure_notifier(&mut self, name: &str, store: &Arc<dyn SetStore>) {
        if !self.notified_stores.insert(name.to_string()) {
            return;
        }
        let tx = Mutex::new(self.link.tx.clone());
        let wake = self.link.wake.clone();
        let store_name = name.to_string();
        store.register_notifier(Box::new(move |_epoch| {
            let sent = tx
                .lock()
                .map(|tx| {
                    tx.send(Notice::StoreChanged {
                        store: store_name.clone(),
                        at: Instant::now(),
                    })
                    .is_ok()
                })
                .unwrap_or(false);
            if sent {
                wake.wake();
            }
            sent
        }));
    }

    /// Fold a finished session's counters and drop it.
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.sessions.len() {
            let Some(completed) = self.sessions[i].done else {
                i += 1;
                continue;
            };
            let sess = self.sessions.remove(i);
            let entry = sess.entry.clone();
            self.bump(&entry, |s| &s.bytes_in, sess.nb.bytes_in());
            self.bump(&entry, |s| &s.bytes_out, sess.nb.bytes_out());
            self.bump(&entry, |s| &s.frames_in, sess.nb.frames_in());
            self.bump(&entry, |s| &s.frames_out, sess.nb.frames_out());
            if let Some(bob) = sess.ctx.as_ref().and_then(|c| c.bob.as_ref()) {
                self.bump(&entry, |s| &s.decode_failures, bob.decode_failures() as u64);
            }
            if sess.counted_subscriber {
                self.shared.live_subscribers.fetch_sub(1, Ordering::Relaxed);
            }
            // `sessions_started` was bumped globally at accept and
            // per-store at routing; mirror that split on the outcome so
            // started == completed + failed holds at both levels.
            let field: fn(&ServerStats) -> &AtomicU64 = if completed {
                |s| &s.sessions_completed
            } else {
                |s| &s.sessions_failed
            };
            self.bump(&entry, field, 1);
            self.shared
                .session_metrics
                .session
                .record_duration(sess.accepted.elapsed());
            if sess.traced {
                trace::event(
                    Level::Info,
                    "session",
                    Some(sess.id),
                    "closed",
                    &[
                        ("completed", Value::Bool(completed)),
                        ("bytes_in", Value::U64(sess.nb.bytes_in())),
                        ("bytes_out", Value::U64(sess.nb.bytes_out())),
                        ("seconds", Value::F64(sess.accepted.elapsed().as_secs_f64())),
                    ],
                );
            }
            // Session drops here; the socket closes with it.
        }
    }

    /// Shutdown: give every session one last flush, then close it with
    /// its state-appropriate outcome. Streaming and parked subscribers
    /// end cleanly; mid-protocol sessions are cut as failed.
    fn close_all(&mut self) {
        for i in 0..self.sessions.len() {
            if self.sessions[i].done.is_some() {
                continue;
            }
            let _ = self.sessions[i].nb.flush();
            let outcome = self.sessions[i].close_outcome();
            self.sessions[i].finish(outcome);
        }
        self.reap();
    }
}

/// Spawn the acceptor thread: blocking `accept`, round-robin handoff to
/// the workers' notice queues. The shutdown flag plus a loopback connect
/// breaks it out of `accept`.
pub(crate) fn spawn_acceptor(
    listener: TcpListener,
    links: Vec<WorkerLink>,
    shutdown: Arc<std::sync::atomic::AtomicBool>,
) -> io::Result<std::thread::JoinHandle<()>> {
    std::thread::Builder::new()
        .name("pbs-net-accept".into())
        .spawn(move || {
            let mut next = 0usize;
            for conn in listener.incoming() {
                if shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = conn else { continue };
                let link = &links[next % links.len()];
                next = next.wrapping_add(1);
                if link.tx.send(Notice::Conn(stream)).is_err() {
                    break;
                }
                link.wake.wake();
            }
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wake_pair_round_trips_a_byte_and_tolerates_flooding() {
        let (reader, writer) = wake_pair().unwrap();
        let wake = WakeSender {
            writer: Arc::new(writer),
        };
        // Flood far past any socket buffer: must never block or panic.
        for _ in 0..100_000 {
            wake.wake();
        }
        let mut buf = [0u8; 4096];
        let mut drained = 0usize;
        while let Ok(n) = (&reader).read(&mut buf) {
            if n == 0 {
                break;
            }
            drained += n;
        }
        assert!(drained > 0, "at least one wake byte must arrive");
    }
}
