//! One connection of either role with no I/O inside: a protocol machine
//! and the clocks around it, handed the time by their driver —
//! `Instant::now()` on the readiness loop (`event_loop.rs`), a virtual
//! clock in `sim.rs`.
//!
//! Both roles are a [`Connection`]: frame in, frames out, flushed,
//! hang-up or cut, next timer, on timer, outcome. That is all the loop
//! knows of either.
//!
//! [`ServerConn`] turns a frame, a set-up unit's step, a push or a timer
//! that came due into an [`Out`]: frames to queue, boundaries crossed, a
//! machine to hand off, a session ended by the next one's `Hello`. It
//! decides and counts the outcome of every session on the connection: a
//! parked one that a `Hello` follows is completed, and the next one starts
//! its clocks afresh. Its timers, in precedence order ([`Due`]):
//! * a **write stall**: queued bytes making no progress for `write_timeout`;
//! * before the final ack, the **session deadline** from the accept or the
//!   session's `Hello` (running while the machine is out) and
//!   **read-idle**, `read_timeout` of the peer's
//!   silence — not while the machine is out, and afresh once it is back:
//!   that time is the server's; parked, read-idle alone (a clean end);
//! * streaming, the **liveness cut** at 3 × `keepalive` without a frame,
//!   and a **`Ping`** once nothing was received or pinged for an interval
//!   and nothing is queued, whatever was pushed meanwhile;
//! * closing, the **drain grace**: `write_timeout`, at most 5 s.
//!
//! [`ClientConn`] is Alice's end: a [`ClientMachine`], the phase stamps of
//! its [`SyncPhases`], and three timers, in precedence order:
//! * a **write stall**: queued bytes making no progress for `write_timeout`;
//! * until the subscription is live, the **session deadline**,
//!   `ClientConfig::session_deadline` from the connect;
//! * **read-idle**: `read_timeout` without a frame from the server since the
//!   client was last done with what arrived — a parked subscriber's too
//!   (the server's keepalive pings keep a healthy one alive).
//!
//! A timer whose instant does not fit in an `Instant` never comes due.

use crate::client::{ClientConfig, DeltaReport, SyncPhases, SyncReport};
use crate::frame::{ErrorCode, Frame, PROTOCOL_VERSION};
use crate::machine::{ClientMachine, Mode};
use crate::server_machine::Waiting;
use crate::server_machine::{refuse, Crossed, Refusal, Resources, ServerMachine, SetUp, Step};
use crate::store::RegisteredStore;
use crate::{FrameError, NetError};
use std::borrow::Cow;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on how long a closing session may take to drain.
const CLOSING_GRACE_CAP: Duration = Duration::from_secs(5);

/// One connection as its driver sees it. Every method is handed `now`
/// where time matters; `pending` is how many bytes the driver still holds
/// queued toward the peer.
pub(crate) trait Connection {
    /// What a decision asks of the driver beyond its frames.
    type Out;
    /// The machine is here to take a frame (a server's may be out at its
    /// set-up).
    fn here(&self) -> bool;
    /// A whole frame arrived.
    fn on_frame(&mut self, frame: Frame, now: Instant) -> Self::Out;
    /// Bytes arrived that do not decode as a frame.
    fn on_bad_frame(&mut self, error: NetError, now: Instant) -> Self::Out;
    /// The driver is done with what arrived: the peer's window opens now,
    /// so this end's own processing never counts as the peer's silence.
    fn listen(&mut self, now: Instant);
    /// The driver wrote, some bytes if `moved`.
    fn flushed(&mut self, now: Instant, moved: bool, pending: usize);
    /// The peer closed its stream.
    fn hang_up(&mut self, now: Instant, pending: usize);
    /// The connection is gone (an I/O error, shutdown).
    fn cut(&mut self);
    /// When the first of the timers comes due.
    fn next_timer(&self, pending: usize) -> Option<Instant>;
    /// Fire the first timer due at `now`, if any.
    fn on_timer(&mut self, now: Instant, pending: usize) -> Option<(Due, Self::Out)>;
    /// `Some(completed)` once the session is over.
    fn outcome(&self) -> Option<bool>;
}

/// What the driver carries out: close the ledger of a session the next
/// one's `Hello` ended, queue the frames, stamp the boundaries, flush, then
/// hand the machine to whoever runs its heavy set-up unit
/// ([`ServerConn::set_up`], then [`ServerConn::machine_back`]).
#[derive(Default)]
pub(crate) struct Out {
    pub renewed: Option<Renewed>,
    pub frames: Vec<Frame>,
    pub crossed: Vec<Crossed>,
    pub hand_off: Option<ServerMachine>,
}

/// A parked session the peer's next `Hello` ended, counted completed: the
/// store it was routed to, and the `Hello`'s wire bytes — the first the
/// next session read.
pub(crate) struct Renewed {
    pub entry: Option<Arc<RegisteredStore>>,
    pub hello: u64,
}

impl Out {
    fn frames(frames: Vec<Frame>) -> Self {
        Out {
            frames,
            ..Out::default()
        }
    }
}

/// A timer that came due.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Due {
    WriteStall,
    Deadline,
    /// Closing, and drained or out of grace.
    Drain,
    ReadIdle,
    /// A subscriber silent for three keepalive intervals.
    Dead,
    Ping,
}

/// `since + t`, unless there is no `t` or the sum does not fit.
fn after(since: Instant, t: Option<Duration>, due: Due) -> Option<(Instant, Due)> {
    Some((since.checked_add(t?)?, due))
}

/// The server side of one connection (see the [module docs](self)).
pub(crate) struct ServerConn {
    res: Arc<Resources>,
    /// `None` while a heavy set-up unit has it.
    machine: Option<ServerMachine>,
    /// The store the `Hello` routed to, kept while the machine is out.
    entry: Option<Arc<RegisteredStore>>,
    /// `Some((completed, grace))`: no further frame is taken; the queued
    /// ones drain until `grace`, then the session ends as `completed`.
    closing: Option<(bool, Instant)>,
    outcome: Option<bool>,
    deadline: Option<Instant>,
    last_recv: Instant,
    /// When the peer's next frame began to be awaited.
    wait_since: Instant,
    last_send_progress: Instant,
    last_ping: Instant,
    /// The last keepalive `Ping`'s nonce.
    nonce: u64,
}

impl ServerConn {
    pub(crate) fn new(res: &Arc<Resources>, now: Instant) -> Self {
        ServerConn {
            res: Arc::clone(res),
            machine: Some(ServerMachine::new()),
            entry: None,
            closing: None,
            outcome: None,
            deadline: now.checked_add(res.config.session_deadline),
            last_recv: now,
            wait_since: now,
            last_send_progress: now,
            last_ping: now,
            nonce: 0x5EED_0000,
        }
    }

    /// Run the heavy unit `machine` owes. One that panics costs its own
    /// session an `Internal` refusal; the machine is never resumed.
    pub(crate) fn set_up(machine: &mut ServerMachine, res: &Resources) -> Result<Step, Refusal> {
        let unit = catch_unwind(AssertUnwindSafe(|| machine.set_up(res)));
        unit.unwrap_or_else(|_| Err(refuse(ErrorCode::Internal, "the session's set-up failed")))
    }

    pub(crate) fn entry(&self) -> Option<&RegisteredStore> {
        self.entry.as_deref()
    }

    /// The machine, while it is here to take a frame.
    pub(crate) fn machine(&self) -> Option<&ServerMachine> {
        self.machine.as_ref()
    }

    /// The machine's timer class; set-up is only owed mid-reconciliation.
    pub(crate) fn waiting(&self) -> Waiting {
        self.machine()
            .map_or(Waiting::Reconciling, ServerMachine::waiting)
    }

    /// The peer opened its next session with a `Hello` of `hello` wire
    /// bytes: the parked one is counted completed, and the deadline and the
    /// route start over.
    fn next_session(&mut self, hello: u64, now: Instant) -> Renewed {
        self.res.bump(self.entry(), |s| &s.sessions_completed, 1);
        let stats = &self.res.stats;
        stats.sessions_started.inc(1);
        stats.sessions_reused.inc(1);
        self.deadline = now.checked_add(self.res.config.session_deadline);
        let entry = self.entry.take();
        Renewed { entry, hello }
    }

    /// A live subscription still served.
    pub(crate) fn streaming(&self) -> bool {
        self.closing.is_none() && self.waiting() == Waiting::Streaming
    }

    /// The heavy unit ran: carry its step out, unless the session ended or
    /// began closing meanwhile (then the step is dropped).
    pub(crate) fn machine_back(
        &mut self,
        machine: ServerMachine,
        step: Result<Step, Refusal>,
        now: Instant,
    ) -> Out {
        self.machine = Some(machine);
        if !self.open() {
            return Out::default();
        }
        // The time out was the server's: the peer's window opens afresh.
        self.listen(now);
        self.advance(step, now)
    }

    /// The store changed: push a subscriber what it lacks, within the room
    /// `pending` queued bytes leave under `subscriber_buffer`.
    pub(crate) fn push(&mut self, pending: usize, now: Instant) -> Out {
        let open = self.open();
        let Some(machine) = self.machine.as_mut().filter(|_| open) else {
            return Out::default();
        };
        let room = self.res.config.subscriber_buffer.saturating_sub(pending) as u64;
        let step = machine.push(&self.res, room);
        self.advance(step, now)
    }

    /// End the session and count it, once, server-wide and on its store;
    /// a subscriber gives its slot back.
    pub(crate) fn finish(&mut self, completed: bool) {
        if self.outcome.is_some() {
            return;
        }
        self.outcome = Some(completed);
        let res = Arc::clone(&self.res);
        match completed {
            true => res.bump(self.entry(), |s| &s.sessions_completed, 1),
            false => res.bump(self.entry(), |s| &s.sessions_failed, 1),
        }
        if self.waiting() == Waiting::Streaming {
            res.live_subscribers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Every timer running, when it comes due, in precedence order.
    fn timers(&self, pending: bool) -> [Option<(Instant, Due)>; 3] {
        if self.outcome.is_some() {
            return [None; 3];
        }
        let cfg = &self.res.config;
        let stall = cfg.transport.write_timeout.filter(|_| pending);
        let stall = after(self.last_send_progress, stall, Due::WriteStall);
        let (here, idle) = (self.machine.is_some(), cfg.transport.read_timeout);
        let read_idle = after(self.wait_since, idle.filter(|_| here), Due::ReadIdle);
        let deadline = self.deadline.map(|at| (at, Due::Deadline));
        let (first, second) = match (self.closing, self.waiting()) {
            // Drained already (progress is always past), or out of grace.
            (Some((_, grace)), _) => {
                let when = [self.last_send_progress, grace][pending as usize];
                (Some((when, Due::Drain)), None)
            }
            (None, Waiting::Reconciling) => (deadline, read_idle),
            (None, Waiting::Parked) => (read_idle, None),
            (None, Waiting::Streaming) => {
                let dead = after(self.last_recv, cfg.keepalive.checked_mul(3), Due::Dead);
                let silent_since = self.last_recv.max(self.last_ping);
                let ping = Some(cfg.keepalive).filter(|_| !pending);
                (dead, after(silent_since, ping, Due::Ping))
            }
        };
        [stall, first, second]
    }

    /// Carry out what the machine decided, then run the set-up it owes.
    fn advance(&mut self, step: Result<Step, Refusal>, now: Instant) -> Out {
        let (mut out, mut step) = (Out::default(), Some(step));
        while let Some(next) = step.take() {
            match next {
                Ok(next) => {
                    if let Some(Crossed::Subscribed { .. }) = next.crossed {
                        (self.last_ping, self.last_send_progress) = (now, now);
                    }
                    out.frames.extend(next.frames);
                    out.crossed.extend(next.crossed);
                    if next.close {
                        self.close_after_drain(true, now);
                    }
                }
                Err(Refusal::Silent) => self.finish(false),
                Err(Refusal::Answer { code, message }) => {
                    out.frames.push(self.refuse(code, message, now))
                }
            }
            let owed = self.machine.as_ref().filter(|_| self.open());
            match owed.and_then(ServerMachine::owes) {
                Some(SetUp::Light) => step = self.machine.as_mut().map(|m| m.set_up(&self.res)),
                Some(SetUp::Heavy) => out.hand_off = self.machine.take(),
                None => {}
            }
        }
        out
    }

    /// Drain-close the session as failed, after the `Error` frame returned.
    fn refuse(&mut self, code: ErrorCode, message: String, now: Instant) -> Frame {
        self.close_after_drain(false, now);
        Frame::Error { code, message }
    }

    fn close_after_drain(&mut self, completed: bool, now: Instant) {
        let grace = self.res.config.transport.write_timeout;
        let grace = grace.unwrap_or(CLOSING_GRACE_CAP).min(CLOSING_GRACE_CAP);
        self.closing = Some((completed, now + grace));
    }

    /// Neither over nor closing: the machine's calls are carried out.
    fn open(&self) -> bool {
        self.closing.is_none() && self.outcome.is_none()
    }

    fn close_outcome(&self) -> bool {
        match self.closing {
            Some((completed, _)) => completed,
            None => self.waiting() != Waiting::Reconciling,
        }
    }
}

impl Connection for ServerConn {
    type Out = Out;

    fn here(&self) -> bool {
        self.machine.is_some()
    }

    /// The machine's replies, then the set-up work they precede — a light
    /// unit run here, a heavy one handed off. A `Hello` on a parked
    /// connection first ends the session there.
    fn on_frame(&mut self, frame: Frame, now: Instant) -> Out {
        self.last_recv = now;
        let open = self.open();
        let next = open && self.machine.as_ref().is_some_and(|m| m.opens_next(&frame));
        let renewed = next.then(|| self.next_session(frame.wire_len(), now));
        let Some(machine) = self.machine.as_mut().filter(|_| open) else {
            return Out::default();
        };
        let step = machine.on_frame(&self.res, frame);
        self.entry = self.entry.take().or_else(|| machine.entry().cloned());
        if let (Some(entry), Some(_)) = (&self.entry, &renewed) {
            entry.stats().sessions_reused.inc(1);
        }
        Out {
            renewed,
            ..self.advance(step, now)
        }
    }

    /// A peer of another protocol version is told so; anything else ends
    /// the session without a word.
    fn on_bad_frame(&mut self, error: NetError, now: Instant) -> Out {
        match error {
            NetError::Frame(FrameError::Version(v)) if self.closing.is_none() => {
                let message = format!("protocol version {v} is not v{PROTOCOL_VERSION}");
                Out::frames(vec![self.refuse(ErrorCode::Version, message, now)])
            }
            _ => {
                self.finish(false);
                Out::default()
            }
        }
    }

    fn listen(&mut self, now: Instant) {
        self.wait_since = now;
    }

    /// A closing session that drained is over.
    fn flushed(&mut self, now: Instant, moved: bool, pending: usize) {
        if moved {
            self.last_send_progress = now;
        }
        if let (Some((completed, _)), 0) = (self.closing, pending) {
            self.finish(completed);
        }
    }

    /// What is queued drains first.
    fn hang_up(&mut self, now: Instant, pending: usize) {
        match (pending, self.closing) {
            (0, _) => self.cut(),
            (_, None) => self.close_after_drain(self.close_outcome(), now),
            _ => {}
        }
    }

    /// A session past its final ack ends cleanly, one cut mid-protocol
    /// failed.
    fn cut(&mut self) {
        self.finish(self.close_outcome());
    }

    fn next_timer(&self, pending: usize) -> Option<Instant> {
        let timers = self.timers(pending > 0).into_iter().flatten();
        timers.map(|(when, _)| when).min()
    }

    /// A `Ping` takes the next nonce.
    fn on_timer(&mut self, now: Instant, pending: usize) -> Option<(Due, Out)> {
        let mut timers = self.timers(pending > 0).into_iter().flatten();
        let (_, due) = timers.find(|(when, _)| now >= *when)?;
        let res = Arc::clone(&self.res);
        let frames = match due {
            Due::Deadline => {
                let message = "session deadline exceeded".into();
                vec![self.refuse(ErrorCode::Internal, message, now)]
            }
            Due::Ping => {
                self.nonce = self.nonce.wrapping_add(1);
                self.last_ping = now;
                res.bump(self.entry(), |s| &s.keepalive_pings, 1);
                vec![Frame::Ping { nonce: self.nonce }]
            }
            // A stalled subscriber is a slow consumer.
            Due::WriteStall if self.streaming() => {
                res.bump(self.entry(), |s| &s.subscribers_evicted, 1);
                self.cut();
                vec![]
            }
            _ => {
                self.cut();
                vec![]
            }
        };
        Some((due, Out::frames(frames)))
    }

    fn outcome(&self) -> Option<bool> {
        self.outcome
    }
}

/// How a client connection ended.
#[derive(Debug)]
pub(crate) enum Ending {
    /// The sync ran to its report (its transport ledger is the driver's).
    Report(Box<SyncReport>),
    /// A live subscription's stream ended between bursts.
    Closed,
    Failed(NetError),
}

/// What a client connection asks of its driver.
#[derive(Debug, Default)]
pub(crate) struct ClientOut {
    pub frames: Vec<Frame>,
    /// A subscription's delta stream: the catch-up, then each push burst.
    pub push: Option<DeltaReport>,
}

/// The client side of one connection (see the [module docs](self)).
#[derive(Debug)]
pub(crate) struct ClientConn<'a> {
    machine: ClientMachine<'a>,
    outcome: Option<bool>,
    /// How it ended, until the driver takes it.
    ending: Option<Ending>,
    read_idle: Option<Duration>,
    write_stall: Option<Duration>,
    deadline: Option<Instant>,
    /// When the server's next frame began to be awaited.
    wait_since: Instant,
    last_send_progress: Instant,
    /// The connect began; the current phase began.
    started: Instant,
    mark: Instant,
    phases: SyncPhases,
}

impl<'a> ClientConn<'a> {
    /// A session of `set` in `mode`, its connect begun at `now`. A request
    /// the machine refuses fails here, before any socket is opened.
    pub(crate) fn new(
        config: &ClientConfig,
        set: impl Into<Cow<'a, [u64]>>,
        mode: Mode,
        now: Instant,
    ) -> Result<Self, NetError> {
        Ok(ClientConn {
            machine: ClientMachine::new(config, set, mode)?,
            outcome: None,
            ending: None,
            read_idle: config.transport.read_timeout,
            write_stall: config.transport.write_timeout,
            deadline: now.checked_add(config.session_deadline),
            wait_since: now,
            last_send_progress: now,
            started: now,
            mark: now,
            phases: SyncPhases::default(),
        })
    }

    /// The socket is up: the connect phase ends and the `Hello` is owed.
    pub(crate) fn connected(&mut self, now: Instant) -> ClientOut {
        self.phases.connect = now.saturating_duration_since(self.started);
        (self.mark, self.wait_since, self.last_send_progress) = (now, now, now);
        self.owed(ClientOut::default())
    }

    /// How the session ended, once — `None` while it runs.
    pub(crate) fn take_ending(&mut self) -> Option<Ending> {
        self.ending.take()
    }

    /// The server has answered the `Hello`.
    pub(crate) fn answered(&self) -> bool {
        self.machine.answered()
    }

    /// A live subscription, still running.
    pub(crate) fn parked(&self) -> bool {
        self.outcome.is_none() && self.machine.is_parked()
    }

    /// The phases stamped so far (`total`, for a subscriber, up to the park).
    pub(crate) fn phases(&self) -> SyncPhases {
        self.phases
    }

    /// Ask the machine for the frame it owes next.
    fn owed(&mut self, mut out: ClientOut) -> ClientOut {
        match self.machine.poll_send() {
            Ok(frame) => out.frames.extend(frame),
            Err(error) => self.end(Ending::Failed(error)),
        }
        out
    }

    fn end(&mut self, ending: Ending) {
        if self.outcome.is_none() {
            self.outcome = Some(!matches!(ending, Ending::Failed(_)));
            self.ending = Some(ending);
        }
    }

    /// The stream ended: between a subscription's bursts a clean end, else
    /// a failed session.
    fn closed(&mut self, kind: io::ErrorKind) {
        match self.machine.is_parked() && !self.machine.mid_stream() {
            true => self.end(Ending::Closed),
            false => self.end(Ending::Failed(NetError::Io(io::Error::new(
                kind,
                format!("the connection ended while {}", self.machine.state_name()),
            )))),
        }
    }

    /// Every timer running, when it comes due, in precedence order.
    fn timers(&self, pending: bool) -> [Option<(Instant, Due)>; 3] {
        if self.outcome.is_some() {
            return [None; 3];
        }
        let stall = self.write_stall.filter(|_| pending);
        let stall = after(self.last_send_progress, stall, Due::WriteStall);
        let live = self.machine.is_parked();
        let deadline = self
            .deadline
            .filter(|_| !live)
            .map(|at| (at, Due::Deadline));
        let read_idle = after(self.wait_since, self.read_idle, Due::ReadIdle);
        [stall, deadline, read_idle]
    }
}

impl Connection for ClientConn<'_> {
    type Out = ClientOut;

    fn here(&self) -> bool {
        true
    }

    /// Feed the machine, stamp the boundary it reports with `now` — before
    /// the next frame is built, so that compute is charged to the phase it
    /// opens — and ask for what it owes next.
    fn on_frame(&mut self, frame: Frame, now: Instant) -> ClientOut {
        self.wait_since = now;
        if self.outcome.is_some() {
            return ClientOut::default();
        }
        let step = match self.machine.on_frame(frame) {
            Ok(step) => step,
            Err(error) => {
                self.end(Ending::Failed(error));
                return ClientOut::default();
            }
        };
        if let Some(phase) = step.crossed {
            self.phases
                .stamp(phase, now.saturating_duration_since(self.mark));
            self.mark = now;
        }
        let total = now.saturating_duration_since(self.started);
        if let Some(mut report) = step.report {
            self.phases.total = total;
            report.phases = self.phases;
            self.end(Ending::Report(Box::new(report)));
            return ClientOut::default();
        }
        // The catch-up: `total` runs to the park.
        if step.push.is_some() && !self.machine.is_parked() {
            self.phases.total = total;
        }
        self.owed(ClientOut {
            frames: Vec::new(),
            push: step.push,
        })
    }

    fn on_bad_frame(&mut self, error: NetError, _now: Instant) -> ClientOut {
        self.end(Ending::Failed(error));
        ClientOut::default()
    }

    fn listen(&mut self, now: Instant) {
        self.wait_since = now;
    }

    fn flushed(&mut self, now: Instant, moved: bool, _pending: usize) {
        if moved {
            self.last_send_progress = now;
        }
    }

    fn hang_up(&mut self, _now: Instant, _pending: usize) {
        self.closed(io::ErrorKind::UnexpectedEof);
    }

    fn cut(&mut self) {
        self.closed(io::ErrorKind::ConnectionAborted);
    }

    fn next_timer(&self, pending: usize) -> Option<Instant> {
        let timers = self.timers(pending > 0).into_iter().flatten();
        timers.map(|(when, _)| when).min()
    }

    /// Every client timer fails the session, naming itself.
    fn on_timer(&mut self, now: Instant, pending: usize) -> Option<(Due, ClientOut)> {
        let mut timers = self.timers(pending > 0).into_iter().flatten();
        let (_, due) = timers.find(|(when, _)| now >= *when)?;
        let what = match due {
            Due::WriteStall => "the server took none of the queued bytes in time",
            Due::Deadline => "session deadline exceeded",
            _ => "no frame from the server in time",
        };
        let state = self.machine.state_name();
        let error = io::Error::new(io::ErrorKind::TimedOut, format!("{what} while {state}"));
        self.end(Ending::Failed(NetError::Io(error)));
        Some((due, ClientOut::default()))
    }

    fn outcome(&self) -> Option<bool> {
        self.outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crc::crc32;
    use crate::frame::{decode_frame, Hello, DEFAULT_MAX_FRAME};
    use crate::server::ServerConfig;
    use crate::sim::Duet;
    use crate::store::MutableStore;
    use crate::TransportConfig;
    use pbs_core::PbsConfig;

    impl ServerConn {
        pub(crate) fn machine_mut(&mut self) -> Option<&mut ServerMachine> {
            self.machine.as_mut()
        }

        pub(crate) fn closing(&self) -> bool {
            self.closing.is_some()
        }
    }

    /// Every timer at `Duration::MAX`, the natural "never", at either end:
    /// no sum panics, nothing comes due — queued bytes or not, however late
    /// — and a full session and a subscription are served as ever.
    #[test]
    fn a_timer_too_long_to_add_never_comes_due() {
        let never = Duration::MAX;
        let transport = TransportConfig {
            read_timeout: Some(never),
            write_timeout: Some(never),
            ..TransportConfig::default()
        };
        let config = ServerConfig {
            session_deadline: never,
            keepalive: never,
            transport,
            ..ServerConfig::default()
        };
        let client = ClientConfig {
            session_deadline: never,
            transport,
            ..ClientConfig::default()
        };
        let elements = |n: u64| (1..=n).map(|i| i * 0x9E37 + 1).collect::<Vec<u64>>();
        let store = Arc::new(MutableStore::new(elements(500)));
        let mut full = Duet::new(Arc::clone(&store) as Arc<_>, config);
        let fresh = ServerConn::new(&full.res, full.now);
        let (_, _, report) = full.transcript(&client, &elements(490), Mode::Full);
        assert!(report.verified && report.recovered.len() == 10);
        let mut sub = Duet::new(store, config);
        let now = sub.now;
        let fresh_client = ClientConn::new(&client, elements(490), Mode::Full, now).unwrap();
        let follow = Mode::Subscribe { since: 0 };
        let mut follower = ClientConn::new(&client, Vec::new(), follow, now).unwrap();
        let (out, wire) = (follower.connected(now), &mut [Vec::new(), Vec::new()]);
        assert!(sub.pump(&mut follower, out, wire).is_none());
        assert_eq!(sub.conn.waiting(), Waiting::Streaming);
        assert!(follower.parked());
        let late = now + Duration::from_secs(1 << 40);
        let servers = [
            (&fresh, "reconciling"),
            (&full.conn, "parked"),
            (&sub.conn, "streaming"),
        ];
        for pending in [0, 1] {
            for (conn, waiting) in servers {
                assert_eq!(conn.next_timer(pending), None, "{waiting}");
            }
            for (conn, what) in [(&fresh_client, "connecting"), (&follower, "parked")] {
                assert_eq!(conn.next_timer(pending), None, "the client, {what}");
            }
        }
        assert!(sub.conn.on_timer(late, 1).is_none());
        assert!(follower.on_timer(late, 1).is_none());
        assert_eq!((full.closed(), sub.closed()), (None, None));
    }

    /// The time a machine spends out at a heavy set-up unit is the
    /// server's, not the peer's silence: back after twice the read window,
    /// with no frame of the peer's waiting, the connection gives the peer
    /// a whole window from then.
    #[test]
    fn the_time_out_at_a_set_up_is_not_the_peers_silence() {
        let read = Duration::from_secs(2);
        let config = ServerConfig {
            transport: TransportConfig {
                read_timeout: Some(read),
                ..TransportConfig::default()
            },
            ..ServerConfig::default()
        };
        let duet = Duet::new(Arc::new(MutableStore::new(1..=500u64)), config);
        let (res, t0) = (&duet.res, duet.now);
        let mut conn = ServerConn::new(res, t0);
        let hello = Hello::from_config(&PbsConfig::default(), 1, 0);
        let out = conn.on_frame(Frame::Hello(hello), t0);
        conn.listen(t0);
        let mut machine = out.hand_off.expect("the view is a heavy unit");
        assert_eq!(conn.next_timer(0), t0.checked_add(config.session_deadline));
        let back = t0 + 2 * read;
        let step = ServerConn::set_up(&mut machine, res);
        conn.machine_back(machine, step, back);
        assert_eq!(conn.next_timer(0), Some(back + read));
        assert!(conn.on_timer(back, 0).is_none());
    }

    /// A `Hello` on a parked connection opens a fresh session: each way,
    /// the bytes of a full sync and of the delta catch-up after it on one
    /// connection are those of each on a connection of its own, and the
    /// connection counts the parked session completed as the next one
    /// starts — server-wide and on the store — so that `started ==
    /// completed + failed` counts sessions, a refused one included.
    #[test]
    fn a_hello_on_a_parked_connection_is_a_fresh_session() {
        let elements = |range: std::ops::Range<u64>| range.map(|i| i * 0x9E37 + 1);
        let full = ClientConfig {
            seed: 0x5EED,
            ..ClientConfig::default()
        };
        let ours: Vec<u64> = elements(10..510).collect();
        let [kept, own] = [0, 1].map(|_| Arc::new(MutableStore::new(elements(0..500))));
        let mut duet = Duet::over(Arc::clone(&kept) as Arc<_>);
        // The accept is the driver's to count.
        duet.res.stats.sessions_started.inc(1);
        let counts = |duet: &Duet| {
            let server = duet.res.stats.snapshot();
            let store = duet.res.registry.get("").unwrap().stats().snapshot();
            [server, store].map(|s| {
                let ended = (s.sessions_completed, s.sessions_failed);
                (s.sessions_started, ended, s.sessions_reused)
            })
        };

        let first = duet.transcript(&full, &ours, Mode::Full);
        let alone = Duet::over(Arc::clone(&own) as Arc<_>).transcript(&full, &ours, Mode::Full);
        assert!(
            first.0 == alone.0 && first.1 == alone.1,
            "the full sync's bytes"
        );
        assert_eq!(duet.conn.waiting(), Waiting::Parked);
        assert_eq!(counts(&duet), [(1, (0, 0), 0); 2]);

        for store in [&kept, &own] {
            store.apply(&[7, 9], &[ours[0]]);
        }
        let since = first.2.epoch.expect("the store keeps epochs");
        let delta = ClientConfig {
            delta_epoch: Some(since),
            ..full.clone()
        };
        let next = duet.transcript(&delta, &[], Mode::Delta { since });
        let alone = Duet::over(own as Arc<_>).transcript(&delta, &[], Mode::Delta { since });
        assert!(
            next.0 == alone.0 && next.1 == alone.1,
            "the catch-up's bytes"
        );
        assert!(next.2.delta.is_some(), "served from the changelog");
        assert_eq!(counts(&duet), [(2, (1, 0), 1); 2]);

        // A `Hello` the server refuses still ends the parked session well.
        let lost = Hello::from_config(&PbsConfig::default(), 1, 0).with_store("nowhere");
        duet.deliver(Frame::Hello(lost));
        assert!(matches!(
            duet.inbox.pop_back(),
            Some(Frame::Error {
                code: ErrorCode::UnknownStore,
                ..
            })
        ));
        duet.conn.cut();
        assert_eq!(counts(&duet), [(3, (2, 1), 2), (2, (2, 0), 1)]);
    }

    /// A `Hello` of any other protocol version — stale or from the future,
    /// in this version's shape or, as a v1 peer sends it, cut short after
    /// the fields v1 had — does not decode, and the connection answers it
    /// with the typed refusal; met again while that drains, it ends the
    /// session.
    #[test]
    fn every_other_protocol_version_is_refused_by_name() {
        for version in [0u16, 1, 3, 4, 5, 6, 7, u16::MAX] {
            for v1_shaped in [false, true] {
                let mut hello = Hello::from_config(&PbsConfig::default(), 1, 1);
                hello.version = version;
                let mut body = Frame::Hello(hello).encode_body();
                if v1_shaped {
                    body.truncate(body.len() - 3); // store length, pipeline, epoch flag
                }
                let mut wire = (body.len() as u32).to_le_bytes().to_vec();
                wire.extend_from_slice(&crc32(&body).to_le_bytes());
                wire.extend_from_slice(&body);
                let Err(error) = decode_frame(&wire, DEFAULT_MAX_FRAME) else {
                    panic!("a v{version} Hello decoded");
                };
                let mut duet = Duet::over(Arc::new(MutableStore::new(1..=100u64)));
                let refused = NetError::Frame(error.clone());
                let out = duet.conn.on_bad_frame(refused, duet.now);
                match &out.frames[..] {
                    [Frame::Error {
                        code: ErrorCode::Version,
                        message,
                    }] => assert!(
                        message.contains(&format!("version {version} ")),
                        "{message}"
                    ),
                    other => panic!("v{version}: expected a version refusal, got {other:?}"),
                }
                let again = NetError::Frame(error);
                let out = duet.conn.on_bad_frame(again, duet.now);
                assert!(out.frames.is_empty());
                assert_eq!(duet.closed(), Some(false));
            }
        }
    }
}
