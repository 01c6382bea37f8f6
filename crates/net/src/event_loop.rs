//! The non-blocking server core: one acceptor thread hands connections to
//! N event-loop workers, each running a [`crate::poll::Poller`] readiness
//! loop over its sessions. No worker thread ever blocks on a session
//! socket. The protocol of a session — every decision about which frame
//! answers which — is [`crate::server_machine::ServerMachine`]; this module
//! is its driver. It keeps what needs a file descriptor or an `Instant`:
//! accept, the buffered non-blocking framed stream, per-session deadlines
//! enforced by the loop's timer pass, keepalive, write-stall eviction,
//! store-notifier wake-ups and the latency histograms.
//!
//! One kind of work leaves the loop. The O(|B|) units of a full session's
//! set-up (the store's view or a private snapshot, the Bob build — what
//! the machine calls [`SetUp::Heavy`]) run on the worker's **set-up
//! thread**: the loop flushes the replies that precede the unit, sends the
//! machine down the thread's FIFO and parks the session — no frame is taken
//! from its socket, `poll` is asked for no read-readiness on it, its
//! deadline keeps running — until the machine and the step it took come
//! back as a [`Notice::SetUp`]. Pushes, handshakes and delta catch-ups of
//! the worker's other sessions are dispatched meanwhile. What the loop reads
//! of a session that is out (its routed store, its timer class) it keeps on
//! its own side, so a session that ends while out is reaped at once and the
//! returning machine is dropped.
//!
//! This is what turns subscriptions *live*: a session that finished its
//! delta catch-up (or its classic reconciliation, on an epoch-capable
//! store) parks; a [`Frame::Subscribe`] makes it a subscriber, for which a
//! [`crate::store::SetStore::register_notifier`] hook wakes the worker on
//! every store mutation and the worker has the machine push the changes
//! (`DeltaBatch*` → `DeltaDone` bursts) to every subscriber of that
//! store. Slow consumers are evicted with `FullResyncRequired` instead of
//! buffering without bound, and idle subscriptions are kept alive (and
//! garbage-collected) with `Ping`/`Pong`.
//!
//! Wakeups use a loopback socket pair per worker (the portable std-only
//! stand-in for a pipe): notifier closures and the acceptor enqueue a
//! [`Notice`] on the worker's channel and write one byte to the wake
//! socket, which the poll loop drains.

use crate::frame::{ErrorCode, Frame, PROTOCOL_VERSION};
use crate::mux::MuxStream;
use crate::poll::{Interest, Poller};
use crate::server::{ServerConfig, ServerStats};
use crate::server_machine::{Crossed, Refusal, Resources, ServerMachine, SetUp, Step, Waiting};
use crate::store::{RegisteredStore, SetStore};
use crate::{FrameError, NetError};
use obs::trace::{self, Level, Value};
use obs::{Counter, Gauge, Histogram};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Hard cap on how long a `Closing` session may take to drain its final
/// frames before the socket is dropped anyway.
const CLOSING_GRACE_CAP: Duration = Duration::from_secs(5);

/// State shared by every worker.
pub(crate) struct Shared {
    /// What the workers lend their sessions' machines.
    pub res: Resources,
    /// Per-phase latency histograms.
    pub session_metrics: SessionMetrics,
    /// Session-id allocator — ids label trace events and drive the
    /// deterministic trace sampling.
    pub next_session_id: AtomicU64,
}

/// The server-side latency histograms and the loops' own health, one
/// registration per server.
pub(crate) struct SessionMetrics {
    /// Accept → negotiated `Hello` queued.
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
    /// One sample per loop iteration of any worker: `poll` returning → the
    /// next `poll`. Nothing on that worker is dispatched in between.
    pub loop_busy: Arc<Histogram>,
    /// Heavy set-up units handed to a set-up thread and not yet finished:
    /// queued plus running.
    pub setups_in_flight: Gauge,
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
            loop_busy: metrics.histogram(
                "pbs_server_loop_busy_seconds",
                "One event-loop iteration, poll return to the next poll.",
                &[],
                1e-9,
            ),
            setups_in_flight: metrics.gauge(
                "pbs_server_setups_in_flight",
                "Heavy set-up units queued for or running on a set-up thread.",
                &[],
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
    /// The set-up thread ran the unit session `session` handed it: the
    /// machine is back, with the step it took.
    SetUp {
        session: u64,
        machine: ServerMachine,
        step: Result<Step, Refusal>,
    },
    /// Close every session and exit.
    Shutdown,
}

/// A heavy set-up unit on its way to the set-up thread: the machine that
/// owes it, and the id of the session to bring it back to.
struct Job {
    session: u64,
    machine: ServerMachine,
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
#[derive(Clone)]
pub(crate) struct WorkerLink {
    pub tx: mpsc::Sender<Notice>,
    pub wake: WakeSender,
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

/// Spawn one event-loop worker and its set-up thread. Returns the worker's
/// link plus both join handles.
pub(crate) fn spawn_worker(
    index: usize,
    shared: Arc<Shared>,
) -> io::Result<(WorkerLink, [std::thread::JoinHandle<()>; 2])> {
    let (wake_reader, wake_writer) = wake_pair()?;
    let (tx, rx) = mpsc::channel::<Notice>();
    let link = WorkerLink {
        tx,
        wake: WakeSender {
            writer: Arc::new(wake_writer),
        },
    };
    let (set_up, set_up_join) = spawn_set_up(index, Arc::clone(&shared), link.clone())?;
    let worker_link = link.clone();
    let join = std::thread::Builder::new()
        .name(format!("pbs-net-worker-{index}"))
        .spawn(move || {
            Worker {
                shared,
                rx,
                link: worker_link,
                set_up,
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
    Ok((link, [join, set_up_join]))
}

/// Spawn a worker's set-up thread: one FIFO of [`Job`]s, each run to its
/// [`Notice::SetUp`] on `link`. A unit that panics (a store's `view`, a
/// bound asserted under the Bob build) costs its own session — the loop is
/// told to refuse it `Internal` — and the thread serves the next. It exits
/// once its worker has: the FIFO closes, or a notice finds nobody.
fn spawn_set_up(
    index: usize,
    shared: Arc<Shared>,
    link: WorkerLink,
) -> io::Result<(mpsc::Sender<Job>, std::thread::JoinHandle<()>)> {
    let (jobs, queue) = mpsc::channel::<Job>();
    let join = std::thread::Builder::new()
        .name(format!("pbs-net-setup-{index}"))
        .spawn(move || {
            for Job {
                session,
                mut machine,
            } in queue
            {
                // The machine is only dropped after a panic, never resumed.
                let unit = catch_unwind(AssertUnwindSafe(|| machine.set_up(&shared.res)));
                let step = unit.unwrap_or_else(|_| {
                    Err(Refusal::Answer {
                        code: ErrorCode::Internal,
                        message: "the session's set-up failed".into(),
                    })
                });
                shared.session_metrics.setups_in_flight.add(-1.0);
                let back = Notice::SetUp {
                    session,
                    machine,
                    step,
                };
                if link.tx.send(back).is_err() {
                    return;
                }
                link.wake.wake();
            }
        })?;
    Ok((jobs, join))
}

// ---------------------------------------------------------------------------
// Session: one machine, its stream, its clocks
// ---------------------------------------------------------------------------

/// What the timer pass does to a session when one of its timers is due.
#[derive(Clone, Copy)]
enum Due {
    /// Evict a stalled subscriber, cut anyone else, with the outcome of the
    /// phase.
    WriteStall,
    /// Refuse the session: its deadline passed before the final ack.
    Deadline,
    /// End the session with this outcome: out of closing grace, read-idle,
    /// or a subscriber presumed gone.
    Close(bool),
    /// Send a keepalive `Ping`.
    Ping,
}

struct Session {
    nb: MuxStream,
    fd: RawFd,
    /// The protocol. Which of the timer pass's clocks run is its
    /// [`Waiting`] class — until `closing` takes over. `None` while the
    /// set-up thread has it: the session is parked, mid-reconciliation.
    machine: Option<ServerMachine>,
    /// The store the `Hello` routed to, kept on the loop's side so a
    /// session's counters find their store while the machine is out.
    entry: Option<Arc<RegisteredStore>>,
    /// The loop's own tail state, `Some((completed, grace))`: no further
    /// frame is taken; the queued ones drain until `grace`, then the
    /// session closes with the recorded outcome.
    closing: Option<(bool, Instant)>,
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
    /// reset after each processing pass, so the server's own processing
    /// time never counts against the peer's inactivity window.
    wait_since: Instant,
    last_send_progress: Instant,
    last_ping: Instant,
}

impl Session {
    fn new(stream: TcpStream, config: &ServerConfig, now: Instant, id: u64) -> io::Result<Session> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(config.transport.nodelay)?;
        let fd = stream.as_raw_fd();
        Ok(Session {
            nb: MuxStream::new(stream, config.transport.max_frame),
            fd,
            machine: Some(ServerMachine::new()),
            entry: None,
            closing: None,
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
        })
    }

    /// The machine's timer class; set-up is only ever owed mid-reconciliation.
    fn waiting(&self) -> Waiting {
        let here = self.machine.as_ref();
        here.map_or(Waiting::Reconciling, ServerMachine::waiting)
    }

    /// A live subscription the loop still serves.
    fn streaming(&self) -> bool {
        self.closing.is_none() && self.waiting() == Waiting::Streaming
    }

    fn finish(&mut self, completed: bool) {
        if self.done.is_none() {
            self.done = Some(completed);
        }
    }

    /// Every timer running on this session — when it comes due and what the
    /// timer pass then does — in the order the pass gives them precedence.
    /// The loop sleeps to the earliest `when`; the pass fires the first one
    /// due. Stated once, so the loop cannot sleep past a timer the pass
    /// would fire.
    fn timers(&self, cfg: &ServerConfig) -> [Option<(Instant, Due)>; 3] {
        let pending = self.nb.pending_out() > 0;
        // Queued bytes making no progress for the write timeout.
        let stall = cfg.transport.write_timeout.filter(|_| pending);
        let stall = stall.map(|t| (self.last_send_progress + t, Due::WriteStall));
        // Silence while the peer's next frame is awaited — not while the
        // machine is out: that silence is the server's own.
        let here = self.machine.is_some();
        let read_idle = |completed| {
            let t = cfg.transport.read_timeout.filter(|_| here)?;
            Some((self.wait_since + t, Due::Close(completed)))
        };
        let (first, second) = match (self.closing, self.waiting()) {
            // Drained already (`accepted` is always past), or out of grace.
            (Some((completed, grace)), _) => {
                let when = if pending { grace } else { self.accepted };
                (Some((when, Due::Close(completed))), None)
            }
            (None, Waiting::Reconciling) => {
                (Some((self.deadline, Due::Deadline)), read_idle(false))
            }
            // Logically complete: a window with no `Subscribe` is a clean end.
            (None, Waiting::Parked) => (read_idle(true), None),
            (None, Waiting::Streaming) => {
                // A subscriber silent for three intervals stopped answering
                // keepalives; one silent for an interval, with nothing queued
                // toward it, is pinged — however much was pushed to it
                // meanwhile: a push proves nothing about the peer, and a
                // subscriber pushed to more often than the interval would
                // otherwise never be asked, never answer, and be cut.
                let dead = self.last_recv + cfg.keepalive * 3;
                let silent_since = self.last_recv.max(self.last_ping);
                let ping = (!pending).then_some((silent_since + cfg.keepalive, Due::Ping));
                (Some((dead, Due::Close(true))), ping)
            }
        };
        [stall, first, second]
    }

    /// The outcome an externally forced close (EOF, I/O error, shutdown)
    /// maps to in this phase: a session past its final ack closed
    /// cleanly; one cut mid-protocol failed.
    fn close_outcome(&self) -> bool {
        match self.closing {
            Some((completed, _)) => completed,
            None => self.waiting() != Waiting::Reconciling,
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
    /// The FIFO of this worker's set-up thread.
    set_up: mpsc::Sender<Job>,
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
        &self.shared.res.config
    }

    /// Count `n` server-wide and on the store session `i` is routed to.
    fn bump(&self, i: usize, counter: fn(&ServerStats) -> &Counter, n: u64) {
        let entry = self.sessions[i].entry.as_deref();
        self.shared.res.bump(entry, counter, n);
    }

    fn run(mut self) {
        // When `poll` last returned: the start of the iteration in progress.
        let mut woke: Option<Instant> = None;
        loop {
            self.drain_notices();
            if self.shutting_down {
                self.close_all();
                return;
            }
            if !self.dirty_stores.is_empty() {
                let dirty = std::mem::take(&mut self.dirty_stores);
                for i in 0..self.sessions.len() {
                    let sess = &self.sessions[i];
                    if sess.done.is_some() || !sess.streaming() {
                        continue;
                    }
                    let at = sess.entry.as_ref().and_then(|e| dirty.get(e.name()));
                    if let Some(&at) = at {
                        self.push_deltas(i, Some(at));
                    }
                }
            }
            self.reap();

            // Build the interest set: the wake pipe plus every session —
            // read interest while its machine is here to take a frame,
            // write interest while it has queued bytes. (A session with
            // neither is left out: `poll` reports a hang-up unasked.)
            let mut interests: Vec<(RawFd, Interest)> =
                vec![(self.wake_reader.as_raw_fd(), Interest::READABLE)];
            for sess in &self.sessions {
                let interest = Interest {
                    readable: sess.machine.is_some(),
                    writable: sess.nb.pending_out() > 0,
                };
                if interest.readable || interest.writable {
                    interests.push((sess.fd, interest));
                }
            }
            let now = Instant::now();
            if let Some(woke) = woke {
                let busy = &self.shared.session_metrics.loop_busy;
                busy.record_duration(now - woke);
            }
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
            woke = Some(Instant::now());
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
                // An error on a parked session surfaces in its flush.
                let out = self.sessions[i].machine.is_none();
                if event.writable || (out && event.error) {
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
                Ok(Notice::SetUp {
                    session,
                    machine,
                    step,
                }) => self.machine_back(session, machine, step),
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
        let stats = &self.shared.res.stats;
        stats.sessions_started.inc(1);
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
            Err(_) => stats.sessions_failed.inc(1),
        }
    }

    /// Record the elapsed time of the phase ending now for session `i`
    /// into the histogram `pick` selects, and restart the phase clock.
    fn record_phase(&mut self, i: usize, pick: fn(&SessionMetrics) -> &Arc<Histogram>) {
        let now = Instant::now();
        pick(&self.shared.session_metrics).record_duration(now - self.sessions[i].phase_start);
        self.sessions[i].phase_start = now;
    }

    /// Emit a trace event for session `i`, if it is traced.
    fn trace_session(&self, i: usize, level: Level, event: &str, fields: &[(&str, Value<'_>)]) {
        if self.sessions[i].traced {
            trace::event(level, "session", Some(self.sessions[i].id), event, fields);
        }
    }

    /// Earliest instant any session needs the loop to act without I/O.
    fn next_deadline(&self) -> Option<Instant> {
        let cfg = self.config();
        let live = self.sessions.iter().filter(|s| s.done.is_none());
        live.flat_map(|s| s.timers(cfg))
            .flatten()
            .map(|(when, _)| when)
            .min()
    }

    /// Fire, for every session, the first of its [`Session::timers`] that
    /// has come due.
    fn timer_pass(&mut self) {
        let cfg = *self.config();
        let now = Instant::now();
        for i in 0..self.sessions.len() {
            if self.sessions[i].done.is_some() {
                continue;
            }
            let timers = self.sessions[i].timers(&cfg);
            let Some((_, due)) = timers.into_iter().flatten().find(|(when, _)| now >= *when) else {
                continue;
            };
            match due {
                Due::WriteStall => {
                    // A stalled subscriber is a slow consumer.
                    if self.sessions[i].streaming() {
                        self.bump(i, |s| &s.subscribers_evicted, 1);
                        let reason = [("reason", Value::Str("write_stall"))];
                        self.trace_session(i, Level::Warn, "evicted", &reason);
                    }
                    let outcome = self.sessions[i].close_outcome();
                    self.sessions[i].finish(outcome);
                }
                Due::Deadline => self.refuse(i, ErrorCode::Internal, "session deadline exceeded"),
                Due::Close(completed) => self.sessions[i].finish(completed),
                Due::Ping => {
                    self.ping_nonce = self.ping_nonce.wrapping_add(1);
                    let nonce = self.ping_nonce;
                    if self.sessions[i].nb.queue(&Frame::Ping { nonce }).is_ok() {
                        self.sessions[i].last_ping = now;
                        self.bump(i, |s| &s.keepalive_pings, 1);
                        self.on_writable(i);
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
                    if let Some((completed, _)) = self.sessions[i].closing {
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

    /// Read what the socket has and take every whole frame, in order —
    /// nothing at all while the machine is out: what arrives then waits in
    /// the socket for [`Worker::machine_back`].
    fn on_readable(&mut self, i: usize) {
        if self.sessions[i].machine.is_none() {
            return;
        }
        if self.sessions[i].nb.fill().is_err() {
            let outcome = self.sessions[i].close_outcome();
            self.sessions[i].finish(outcome);
            return;
        }
        loop {
            // Over, or parked by the frame just handled: the frames behind
            // it stay buffered.
            if self.sessions[i].done.is_some() || self.sessions[i].machine.is_none() {
                return;
            }
            match self.sessions[i].nb.next_frame() {
                Ok(Some(frame)) => {
                    self.sessions[i].last_recv = Instant::now();
                    if self.sessions[i].closing.is_none() {
                        self.handle_frame(i, frame);
                    }
                    // The frame's handling (which can be expensive — a
                    // decode pass per pipelined layer) must not count
                    // against the peer's next-frame window.
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
                    if self.sessions[i].closing.is_none() =>
                {
                    return self.refuse(
                        i,
                        ErrorCode::Version,
                        format!("protocol version {version} is not v{PROTOCOL_VERSION}"),
                    );
                }
                Err(_) => {
                    // Undecodable bytes end the session: drop the
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
                self.close_after_drain(i, outcome);
            } else {
                self.sessions[i].finish(outcome);
            }
        } else if self.sessions[i].done.is_none() && self.sessions[i].nb.pending_out() > 0 {
            // Opportunistic flush: most replies fit the socket buffer and
            // complete without waiting for a writability event.
            self.on_writable(i);
        }
    }

    /// Take no further frame; close as `completed` once the queued frames
    /// drain, or after the grace period (capped at [`CLOSING_GRACE_CAP`]).
    fn close_after_drain(&mut self, i: usize, completed: bool) {
        let grace = self
            .config()
            .transport
            .write_timeout
            .unwrap_or(CLOSING_GRACE_CAP)
            .min(CLOSING_GRACE_CAP);
        self.sessions[i].closing = Some((completed, Instant::now() + grace));
    }

    /// Answer with an `Error` frame and drain-close the session as failed.
    fn refuse(&mut self, i: usize, code: ErrorCode, message: impl Into<String>) {
        let message = message.into();
        let fields = [
            ("code", Value::U64(code as u64)),
            ("message", Value::Str(&message)),
        ];
        self.trace_session(i, Level::Warn, "refused", &fields);
        let _ = self.sessions[i].nb.queue(&Frame::Error { code, message });
        self.close_after_drain(i, false);
        self.on_writable(i);
    }

    /// Every received frame goes to the machine. Its replies are flushed
    /// *before* the set-up work they precede runs, so the client's own
    /// compute overlaps it.
    fn handle_frame(&mut self, i: usize, frame: Frame) {
        let sess = &mut self.sessions[i];
        let Some(machine) = sess.machine.as_mut() else {
            return;
        };
        let step = machine.on_frame(&self.shared.res, frame);
        if sess.entry.is_none() {
            sess.entry = machine.entry().cloned();
        }
        self.advance(i, step);
        self.settle(i);
    }

    /// Run the set-up the machine owes, its replies flushed: a light unit
    /// here, a heavy one on the set-up thread — the session then parks
    /// (`machine` is `None`) until [`Notice::SetUp`] brings it back.
    fn settle(&mut self, i: usize) {
        loop {
            let sess = &mut self.sessions[i];
            if sess.done.is_some() || sess.closing.is_some() {
                return;
            }
            let Some(machine) = sess.machine.as_mut() else {
                return;
            };
            match machine.owes() {
                None => return,
                Some(SetUp::Light) => {
                    let step = machine.set_up(&self.shared.res);
                    self.advance(i, step);
                }
                Some(SetUp::Heavy) => {
                    let Some(machine) = sess.machine.take() else {
                        return;
                    };
                    let in_flight = &self.shared.session_metrics.setups_in_flight;
                    in_flight.add(1.0);
                    let job = Job {
                        session: sess.id,
                        machine,
                    };
                    // A set-up thread that is gone parks nobody behind it.
                    if let Err(mpsc::SendError(job)) = self.set_up.send(job) {
                        in_flight.add(-1.0);
                        sess.machine = Some(job.machine);
                        self.refuse(i, ErrorCode::Internal, "set-up is unavailable");
                    }
                    return;
                }
            }
        }
    }

    /// The set-up thread ran the unit session `id` handed it. The session
    /// may have ended meanwhile — refused at its deadline, stalled, cut:
    /// then the step is dropped, never queued behind the `Error` frame, and
    /// the machine goes with it or with the session. Otherwise the step is
    /// carried out on this loop's clock, the next unit dispatched, and the
    /// frames that arrived while the session was parked are taken in order.
    fn machine_back(&mut self, id: u64, machine: ServerMachine, step: Result<Step, Refusal>) {
        let Some(i) = self.sessions.iter().position(|s| s.id == id) else {
            return;
        };
        let sess = &mut self.sessions[i];
        sess.machine = Some(machine);
        if sess.done.is_some() || sess.closing.is_some() {
            return;
        }
        // The time out was the server's, not the peer's.
        sess.wait_since = Instant::now();
        self.advance(i, step);
        self.settle(i);
        if self.sessions[i].done.is_none() {
            self.on_readable(i);
        }
    }

    /// Carry out what the machine decided: queue its replies, stamp the
    /// boundary it crossed, start the drain-close it asked for (or the
    /// refusal), flush.
    fn advance(&mut self, i: usize, step: Result<Step, Refusal>) {
        let step = match step {
            Ok(step) => step,
            Err(Refusal::Answer { code, message }) => return self.refuse(i, code, message),
            Err(Refusal::Silent) => return self.sessions[i].finish(false),
        };
        for frame in &step.frames {
            if self.sessions[i].nb.queue(frame).is_err() {
                return self.sessions[i].finish(false);
            }
        }
        if let Some(crossed) = step.crossed {
            self.stamp(i, crossed);
        }
        if let Some(completed) = step.close {
            self.close_after_drain(i, completed);
        }
        self.on_writable(i);
    }

    /// Put this loop's clock (phase histogram, trace event) on a boundary
    /// the machine reported.
    fn stamp(&mut self, i: usize, crossed: Crossed) {
        match crossed {
            Crossed::Handshake { known_d, delta } => {
                self.record_phase(i, |m| &m.handshake);
                let store = self.sessions[i].entry.as_ref().map_or("", |e| e.name());
                let fields = [
                    ("store", Value::Str(store)),
                    ("known_d", Value::U64(known_d)),
                    ("delta_epoch", Value::Bool(delta)),
                ];
                self.trace_session(i, Level::Info, "hello", &fields);
            }
            Crossed::DeltaCatchup { batches, epoch } => {
                self.record_phase(i, |m| &m.delta_catchup);
                let fields = [
                    ("batches", Value::U64(batches)),
                    ("epoch", Value::U64(epoch)),
                ];
                self.trace_session(i, Level::Info, "delta_catchup", &fields);
            }
            Crossed::Estimated { d_param, view } => {
                self.record_phase(i, |m| &m.estimate);
                let fields = [("d_param", Value::U64(d_param)), ("view", Value::Str(view))];
                self.trace_session(i, Level::Info, "estimated", &fields);
            }
            Crossed::Reconciled { rounds, received } => {
                self.record_phase(i, |m| &m.rounds);
                let fields = [
                    ("rounds", Value::U64(rounds as u64)),
                    ("received", Value::U64(received)),
                ];
                self.trace_session(i, Level::Info, "reconciled", &fields);
            }
            Crossed::Subscribed { epoch } => {
                // Install this worker's mutation notifier on the store
                // *before* the initial catch-up: a mutation landing in
                // between then raises a (harmless, idempotent) extra wakeup
                // instead of being missed.
                if let Some(entry) = self.sessions[i].entry.clone() {
                    self.ensure_notifier(entry.name(), entry.store());
                }
                let now = Instant::now();
                self.sessions[i].last_ping = now;
                self.sessions[i].last_send_progress = now;
                let fields = [("epoch", Value::U64(epoch))];
                self.trace_session(i, Level::Info, "subscribed", &fields);
                // Catch up on anything that mutated between the client's
                // baseline and this Subscribe. Not a push dispatch: the
                // latency clock only runs for bursts a mutation triggered.
                self.push_deltas(i, None);
            }
            Crossed::Evicted { burst_bytes } => {
                let fields = [
                    ("reason", Value::Str("buffer_overrun")),
                    ("burst_bytes", Value::U64(burst_bytes)),
                ];
                self.trace_session(i, Level::Warn, "evicted", &fields);
            }
        }
    }

    /// Have the machine push what the store changed past subscriber `i`'s
    /// epoch, within the room its buffer cap leaves. `origin` is the commit
    /// instant of the mutation that triggered the push (`None` for the
    /// initial Subscribe catch-up) — it seeds the dispatch-latency clock
    /// stopped in `on_writable` when the burst drains.
    fn push_deltas(&mut self, i: usize, origin: Option<Instant>) {
        let pending = self.sessions[i].nb.pending_out();
        let room = self.config().subscriber_buffer.saturating_sub(pending) as u64;
        let Some(machine) = self.sessions[i].machine.as_mut() else {
            return;
        };
        let step = machine.push(&self.shared.res, room);
        let burst = matches!(&step, Ok(step) if step.close.is_none() && !step.frames.is_empty());
        if let (true, Some(origin)) = (burst, origin) {
            let started = self.sessions[i].push_started;
            self.sessions[i].push_started = Some(started.map_or(origin, |s| s.min(origin)));
        }
        self.advance(i, step);
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
            let (res, entry) = (&self.shared.res, sess.entry.as_deref());
            res.bump(entry, |s| &s.bytes_in, sess.nb.bytes_in());
            res.bump(entry, |s| &s.bytes_out, sess.nb.bytes_out());
            res.bump(entry, |s| &s.frames_in, sess.nb.frames_in());
            res.bump(entry, |s| &s.frames_out, sess.nb.frames_out());
            // `sessions_started` was bumped globally at accept and
            // per-store at routing; mirror that split on the outcome so
            // started == completed + failed holds at both levels.
            if completed {
                res.bump(entry, |s| &s.sessions_completed, 1);
            } else {
                res.bump(entry, |s| &s.sessions_failed, 1);
            }
            if sess.waiting() == Waiting::Streaming {
                res.live_subscribers.fetch_sub(1, Ordering::Relaxed);
            }
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
    /// end cleanly; mid-protocol sessions — one whose machine is out among
    /// them — are cut as failed.
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
    use crate::client::ClientConfig;
    use crate::frame::{write_frame, DEFAULT_MAX_FRAME};
    use crate::machine::{ClientMachine, Mode};
    use crate::server::Server;
    use crate::sim::Duet;
    use crate::store::{MutableStore, ViewAnswer};
    use crate::{FramedStream, TransportConfig};
    use std::sync::atomic::AtomicBool;
    use std::sync::Barrier;

    /// A store whose first `view` call meets the test at `gate` twice: once
    /// to say it is held, once to be let go.
    struct HeldOnce {
        inner: MutableStore,
        armed: AtomicBool,
        gate: Barrier,
    }

    impl SetStore for HeldOnce {
        fn snapshot(&self) -> Vec<u64> {
            self.inner.snapshot()
        }
        fn apply_missing(&self, elements: &[u64]) -> bool {
            self.inner.apply_missing(elements)
        }
        fn epoch_snapshot(&self) -> (Vec<u64>, Option<u64>) {
            self.inner.epoch_snapshot()
        }
        fn view(&self, seed: u64) -> ViewAnswer {
            if self.armed.swap(false, Ordering::SeqCst) {
                self.gate.wait();
                self.gate.wait();
            }
            self.inner.view(seed)
        }
    }

    /// The same (sets, seed) served by the loop — the snapshot unit held on
    /// the set-up thread until the client's bank is already on the wire,
    /// the Bob build handed off after it — and driven inline by `Duet`:
    /// one session, byte for byte in both directions.
    #[test]
    fn a_session_served_through_the_hand_off_is_the_inline_session_byte_for_byte() {
        let held: Vec<u64> = (1..=3_000u64).map(|i| i * 0x9E37 + 1).collect();
        let ours = &held[40..];
        let config = ClientConfig {
            seed: 0x5EED,
            ..ClientConfig::default()
        };
        let inline_store = Arc::new(MutableStore::new(held.iter().copied()));
        let inline = Duet::over(inline_store).transcript(&config, ours);

        let store = Arc::new(HeldOnce {
            inner: MutableStore::new(held.iter().copied()),
            armed: AtomicBool::new(true),
            gate: Barrier::new(2),
        });
        let one_worker = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", Arc::clone(&store) as Arc<_>, one_worker).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut framed = FramedStream::from_tcp(stream, &TransportConfig::default()).unwrap();
        let mut client = ClientMachine::new(&config, ours, Mode::Full).unwrap();
        let (mut up, mut down, mut sent) = (Vec::new(), Vec::new(), 0);
        let report = loop {
            if let Some(frame) = client.poll_send().unwrap() {
                write_frame(&mut up, &frame, DEFAULT_MAX_FRAME).unwrap();
                framed.send(&frame).unwrap();
                sent += 1;
                // After the `Hello`: its set-up is held. After the bank,
                // which therefore arrives while the machine is out: let go.
                if sent <= 2 {
                    store.gate.wait();
                }
            }
            let reply = framed.recv().unwrap();
            write_frame(&mut down, &reply, DEFAULT_MAX_FRAME).unwrap();
            if let Some(report) = client.on_frame(reply).unwrap().report {
                break report;
            }
        };
        assert!(report.verified && report.recovered.len() == 40);
        assert_eq!(report.recovered, inline.2.recovered);
        assert!(up == inline.0, "client → server");
        assert!(down == inline.1, "server → client");
        let stats = server.shutdown();
        assert_eq!((stats.views_declined, stats.sessions_completed), (1, 1));
    }

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
