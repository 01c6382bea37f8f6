//! The non-blocking server core: one acceptor thread hands connections to
//! N event-loop workers, each running a [`crate::poll::Poller`] readiness
//! loop over its sessions; no worker thread ever blocks on a session
//! socket. A session is a [`ServerConn`] — the protocol machine, its
//! clocks and its outcome, with no I/O inside — and this module is its
//! driver: accept, the buffered non-blocking framed stream, the sleep until
//! the earliest timer of any session (each connection fires its own, handed
//! `Instant::now()`), store-notifier wake-ups, the set-up thread, the
//! latency histograms and the trace events.
//!
//! The O(|B|) units of a full session's set-up (the store's view or a
//! private snapshot, the Bob build) run on the worker's **set-up thread**:
//! the connection hands its machine out ([`Out::hand_off`]) after the
//! replies that precede the unit; the loop flushes those, sends the machine
//! down the thread's FIFO and takes no frame from that socket until it
//! comes back as a [`Notice::SetUp`]. The worker's other sessions are served
//! meanwhile. A session that parks after its catch-up or its ack may
//! `Subscribe`; a [`crate::store::SetStore::register_notifier`] hook then
//! wakes the worker on every store mutation, and the worker has each
//! subscriber's connection push the changes.
//!
//! Wakeups use a loopback socket pair per worker (the portable std-only
//! stand-in for a pipe): notifier closures and the acceptor enqueue a
//! [`Notice`] on the worker's channel and write one byte to the wake
//! socket, which the poll loop drains.

use crate::conn::{Due, Out, ServerConn};
use crate::frame::{ErrorCode, Frame};
use crate::mux::MuxStream;
use crate::poll::{Interest, Poller};
use crate::server::ServerConfig;
use crate::server_machine::{refuse, Crossed, Refusal, Resources, ServerMachine, Step};
use crate::store::SetStore;
use obs::trace::{self, Level, Value};
use obs::{Gauge, Histogram};
use std::collections::{HashMap, HashSet};
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

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

/// A heavy set-up unit on its way to the set-up thread: the id of the
/// session to bring it back to, and the machine that owes it.
type Job = (u64, ServerMachine);

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
/// [`Notice::SetUp`] on `link` ([`ServerConn::set_up`]: a unit that panics
/// costs its own session). It exits once its worker has: the FIFO closes,
/// or a notice finds nobody.
fn spawn_set_up(
    index: usize,
    shared: Arc<Shared>,
    link: WorkerLink,
) -> io::Result<(mpsc::Sender<Job>, std::thread::JoinHandle<()>)> {
    let (jobs, queue) = mpsc::channel::<Job>();
    let join = std::thread::Builder::new()
        .name(format!("pbs-net-setup-{index}"))
        .spawn(move || {
            for (session, mut machine) in queue {
                let step = ServerConn::set_up(&mut machine, &shared.res);
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

/// One connection: its stream, its [`ServerConn`], and what the loop
/// measures of it.
struct Session {
    nb: MuxStream,
    fd: RawFd,
    conn: ServerConn,
    /// Server-unique: labels trace events, drives trace sampling.
    id: u64,
    /// Trace events fire for this session — decided once at accept, so a
    /// session traces all-or-nothing.
    traced: bool,
    /// Accept: base of the handshake-phase and whole-session timings.
    accepted: Instant,
    /// When the current protocol phase began.
    phase_start: Instant,
    /// The commit instant of the oldest store mutation whose push burst is
    /// still queued toward this subscriber — cleared (and recorded as
    /// push-dispatch latency) when the write buffer fully drains.
    push_started: Option<Instant>,
}

impl Session {
    fn new(stream: TcpStream, config: &ServerConfig, now: Instant, id: u64) -> io::Result<Session> {
        stream.set_nonblocking(true)?;
        stream.set_nodelay(true)?;
        let fd = stream.as_raw_fd();
        Ok(Session {
            nb: MuxStream::new(stream, config.transport.max_frame),
            fd,
            conn: ServerConn::new(config, now),
            id,
            traced: trace::enabled(Level::Info) && trace::sampled(id),
            accepted: now,
            phase_start: now,
            push_started: None,
        })
    }
}

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
                    let conn = &self.sessions[i].conn;
                    if conn.outcome().is_some() || !conn.streaming() {
                        continue;
                    }
                    if let Some(&at) = conn.entry().and_then(|e| dirty.get(e.name())) {
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
                    readable: sess.conn.machine().is_some(),
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
            let cfg = self.config();
            let due = self.sessions.iter();
            let due = due.filter_map(|s| s.conn.next_timer(cfg, s.nb.pending_out()));
            let timeout = due
                .min()
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
                if self.sessions[i].conn.outcome().is_some() {
                    continue;
                }
                // An error on a parked session surfaces in its flush.
                let out = self.sessions[i].conn.machine().is_none();
                if event.writable || (out && event.error) {
                    self.on_writable(i);
                }
                let over = self.sessions[i].conn.outcome().is_some();
                if (event.readable || event.error) && !over {
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

    /// Have every session fire the first of its timers that has come due.
    fn timer_pass(&mut self) {
        let now = Instant::now();
        for i in 0..self.sessions.len() {
            let sess = &mut self.sessions[i];
            let (res, pending) = (&self.shared.res, sess.nb.pending_out());
            let fired = sess.conn.on_timer(res, now, pending, &mut self.ping_nonce);
            let Some((due, out)) = fired else {
                continue;
            };
            if due == Due::WriteStall && sess.conn.streaming() {
                let reason = [("reason", Value::Str("write_stall"))];
                self.trace_session(i, Level::Warn, "evicted", &reason);
            }
            self.carry_out(i, out);
        }
    }

    fn on_writable(&mut self, i: usize) {
        let sess = &mut self.sessions[i];
        let res = &self.shared.res;
        match sess.nb.flush() {
            Ok(progress) => {
                let pending = sess.nb.pending_out();
                // Push burst fully handed to the OS: the dispatch latency
                // clock (mutation commit → drained) stops.
                if let (Some(started), 0) = (sess.push_started, pending) {
                    let push_dispatch = &self.shared.session_metrics.push_dispatch;
                    push_dispatch.record_duration(started.elapsed());
                    sess.push_started = None;
                }
                sess.conn.flushed(res, Instant::now(), progress, pending);
            }
            Err(_) => sess.conn.cut(res),
        }
    }

    /// Read what the socket has and take every whole frame, in order —
    /// nothing at all while the machine is out: what arrives then waits in
    /// the socket for [`Worker::machine_back`].
    fn on_readable(&mut self, i: usize) {
        let res = &self.shared.res;
        let sess = &mut self.sessions[i];
        if sess.conn.machine().is_none() {
            return;
        }
        if sess.nb.fill().is_err() {
            return sess.conn.cut(res);
        }
        loop {
            let sess = &mut self.sessions[i];
            // Over, or parked by the frame just handled: the frames behind
            // it stay buffered.
            if sess.conn.outcome().is_some() || sess.conn.machine().is_none() {
                return;
            }
            let out = match sess.nb.next_frame() {
                Ok(Some(frame)) => sess.conn.on_frame(&self.shared.res, frame, Instant::now()),
                Ok(None) => break,
                // A wrong-version peer is told so (the frame stays at the
                // head of the buffer: met again while the refusal drains,
                // it just ends the session); other garbage ends it.
                Err(e) => sess.conn.on_bad_frame(&self.shared.res, e, Instant::now()),
            };
            self.carry_out(i, out);
            self.sessions[i].conn.listen(Instant::now());
        }
        let sess = &mut self.sessions[i];
        let pending = sess.nb.pending_out();
        if sess.nb.peer_closed() {
            // The peer may have only shut its write half: what is queued
            // drains first.
            sess.conn.hang_up(&self.shared.res, Instant::now(), pending);
        } else if sess.conn.outcome().is_none() && pending > 0 {
            // Opportunistic flush: most replies fit the socket buffer and
            // complete without waiting for a writability event.
            self.on_writable(i);
        }
    }

    /// Carry out what the connection decided: queue its frames (tracing a
    /// refusal), stamp the boundaries it crossed, flush, and hand a heavy
    /// unit to the set-up thread.
    fn carry_out(&mut self, i: usize, out: Out) {
        for frame in &out.frames {
            if let Frame::Error { code, message } = frame {
                let code = Value::U64(*code as u64);
                let fields = [("code", code), ("message", Value::Str(message))];
                self.trace_session(i, Level::Warn, "refused", &fields);
            }
            if self.sessions[i].nb.queue(frame).is_err() {
                return self.sessions[i].conn.finish(&self.shared.res, false);
            }
        }
        for crossed in out.crossed {
            self.stamp(i, crossed);
        }
        self.on_writable(i);
        if let Some(machine) = out.hand_off {
            self.hand_off(i, machine);
        }
    }

    /// Park session `i`: its machine goes to the set-up thread until
    /// [`Notice::SetUp`] brings it back. A set-up thread that is gone
    /// parks nobody behind it.
    fn hand_off(&mut self, i: usize, machine: ServerMachine) {
        let in_flight = &self.shared.session_metrics.setups_in_flight;
        in_flight.add(1.0);
        let session = self.sessions[i].id;
        if let Err(mpsc::SendError((_, machine))) = self.set_up.send((session, machine)) {
            in_flight.add(-1.0);
            let gone = refuse(ErrorCode::Internal, "set-up is unavailable");
            self.machine_back(session, machine, Err(gone));
        }
    }

    /// The set-up thread ran the unit session `id` handed it. A session
    /// reaped meanwhile drops the machine; otherwise the connection carries
    /// the step out (or drops it, if it ended or began closing), and the
    /// frames that arrived while the session was parked are taken in order.
    fn machine_back(&mut self, id: u64, machine: ServerMachine, step: Result<Step, Refusal>) {
        let Some(i) = self.sessions.iter().position(|s| s.id == id) else {
            return;
        };
        let conn = &mut self.sessions[i].conn;
        let out = conn.machine_back(&self.shared.res, machine, step, Instant::now());
        self.carry_out(i, out);
        if self.sessions[i].conn.outcome().is_none() {
            self.on_readable(i);
        }
    }

    /// Put this loop's clock (phase histogram, trace event) on a boundary
    /// the machine reported.
    fn stamp(&mut self, i: usize, crossed: Crossed) {
        match crossed {
            Crossed::Handshake { known_d, delta } => {
                self.record_phase(i, |m| &m.handshake);
                let store = self.sessions[i].conn.entry().map_or("", |e| e.name());
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
                if let Some(entry) = self.sessions[i].conn.entry() {
                    let (name, store) = (entry.name().to_string(), Arc::clone(entry.store()));
                    self.ensure_notifier(name, &store);
                }
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

    /// Have subscriber `i`'s connection push what the store changed past
    /// its epoch. `origin` is the commit instant of the mutation that
    /// triggered the push (`None` for the initial Subscribe catch-up) — it
    /// seeds the dispatch-latency clock stopped in `on_writable` when the
    /// burst drains.
    fn push_deltas(&mut self, i: usize, origin: Option<Instant>) {
        let sess = &mut self.sessions[i];
        let pending = sess.nb.pending_out();
        let out = sess.conn.push(&self.shared.res, pending, Instant::now());
        // A burst, not an eviction.
        if let (false, true, Some(origin)) = (out.frames.is_empty(), sess.conn.streaming(), origin)
        {
            sess.push_started = Some(sess.push_started.map_or(origin, |s| s.min(origin)));
        }
        self.carry_out(i, out);
    }

    /// Install this worker's wakeup notifier on `store` (once per store
    /// name): mutation → `StoreChanged` notice + wake byte. The notifier
    /// unregisters itself once the worker is gone.
    fn ensure_notifier(&mut self, name: String, store: &Arc<dyn SetStore>) {
        if !self.notified_stores.insert(name.clone()) {
            return;
        }
        let tx = Mutex::new(self.link.tx.clone());
        let wake = self.link.wake.clone();
        store.register_notifier(Box::new(move |_epoch| {
            let sent = tx
                .lock()
                .map(|tx| {
                    tx.send(Notice::StoreChanged {
                        store: name.clone(),
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

    /// Fold a finished session's byte and frame counts and drop it. (Its
    /// outcome was counted when the connection decided it.)
    fn reap(&mut self) {
        let mut i = 0;
        while i < self.sessions.len() {
            let Some(completed) = self.sessions[i].conn.outcome() else {
                i += 1;
                continue;
            };
            let sess = self.sessions.remove(i);
            let (res, entry) = (&self.shared.res, sess.conn.entry());
            res.bump(entry, |s| &s.bytes_in, sess.nb.bytes_in());
            res.bump(entry, |s| &s.bytes_out, sess.nb.bytes_out());
            res.bump(entry, |s| &s.frames_in, sess.nb.frames_in());
            res.bump(entry, |s| &s.frames_out, sess.nb.frames_out());
            let elapsed = sess.accepted.elapsed();
            self.shared.session_metrics.session.record_duration(elapsed);
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
                        ("seconds", Value::F64(elapsed.as_secs_f64())),
                    ],
                );
            }
            // Session drops here; the socket closes with it.
        }
    }

    /// Shutdown: give every session one last flush, then cut it. Streaming
    /// and parked subscribers end cleanly; mid-protocol sessions — one
    /// whose machine is out among them — fail.
    fn close_all(&mut self) {
        for sess in &mut self.sessions {
            let _ = sess.nb.flush();
            sess.conn.cut(&self.shared.res);
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
    use crate::frame::{decode_frame, write_frame, Decoded, DEFAULT_MAX_FRAME};
    use crate::machine::{ClientMachine, Mode, Step};
    use crate::server::{Server, StatsSnapshot};
    use crate::sim::Duet;
    use crate::store::{DeltaAnswer, MutableStore, StoreNotifier, StoreRegistry, ViewAnswer};
    use crate::{FramedStream, NetError, TransportConfig};
    use std::net::{Shutdown, SocketAddr};
    use std::sync::Condvar;
    use std::thread::JoinHandle;

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
        framed: FramedStream<TcpStream>,
        machine: ClientMachine<'static>,
        up: Vec<u8>,
        down: Vec<u8>,
    }

    impl ByHand {
        fn connect(server: &Server, set: Vec<u64>) -> ByHand {
            let stream = TcpStream::connect(server.local_addr()).unwrap();
            ByHand {
                framed: FramedStream::from_tcp(stream, &TransportConfig::default()).unwrap(),
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
            self.framed.send(&frame).unwrap();
        }

        /// Feed the machine the server's next frame.
        fn recv(&mut self) -> Step {
            let frame = self.framed.recv().unwrap();
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
        assert!(a.framed.recv().is_err(), "cut, with nothing more said");
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
        let ledger = [
            report.bytes_sent,
            report.bytes_received,
            report.frames_sent,
            report.frames_received,
        ];
        let wire = [up.len() as u64, down.len() as u64];
        let frames = [frame_count(&up), frame_count(&down)];
        assert_eq!(ledger, [wire[0], wire[1], frames[0], frames[1]], "{case}");
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
    /// blocking `sync`, a delta catch-up of 50 changes, and a session
    /// whose snapshot unit is held on the set-up thread until the client's
    /// bank is already on the wire (the Bob build handed off after it).
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
