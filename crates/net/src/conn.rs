//! One server connection with no I/O inside: a [`ServerMachine`] and the
//! clocks around it, handed the time by their driver — `Instant::now()` in
//! `event_loop.rs`, a virtual clock in `sim.rs`.
//!
//! [`ServerConn`] turns a frame, a set-up unit's step, a push or a timer
//! that came due into an [`Out`]: frames to queue, boundaries crossed, a
//! machine to hand off. It decides and counts the outcome. Its timers, in
//! precedence order ([`Due`]):
//! * a **write stall**: queued bytes making no progress for `write_timeout`;
//! * before the final ack, the **session deadline** (running while the
//!   machine is out) and **read-idle**, `read_timeout` of the peer's
//!   silence — not while the machine is out, and afresh once it is back:
//!   that time is the server's; parked, read-idle alone (a clean end);
//! * streaming, the **liveness cut** at 3 × `keepalive` without a frame,
//!   and a **`Ping`** once nothing was received or pinged for an interval
//!   and nothing is queued, whatever was pushed meanwhile;
//! * closing, the **drain grace**: `write_timeout`, at most 5 s.
//!
//! A timer whose instant does not fit in an `Instant` never comes due.

use crate::frame::{ErrorCode, Frame, PROTOCOL_VERSION};
use crate::server::ServerConfig;
use crate::server_machine::Waiting;
use crate::server_machine::{refuse, Crossed, Refusal, Resources, ServerMachine, SetUp, Step};
use crate::store::RegisteredStore;
use crate::{FrameError, NetError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Hard cap on how long a closing session may take to drain.
const CLOSING_GRACE_CAP: Duration = Duration::from_secs(5);

/// What the driver carries out: queue the frames, stamp the boundaries,
/// flush, then hand the machine to whoever runs its heavy set-up unit
/// ([`ServerConn::set_up`], then [`ServerConn::machine_back`]).
#[derive(Default)]
pub(crate) struct Out {
    pub frames: Vec<Frame>,
    pub crossed: Vec<Crossed>,
    pub hand_off: Option<ServerMachine>,
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

/// The server side of one connection (see the [module docs](self)).
pub(crate) struct ServerConn {
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
}

impl ServerConn {
    pub(crate) fn new(config: &ServerConfig, now: Instant) -> Self {
        ServerConn {
            machine: Some(ServerMachine::new()),
            entry: None,
            closing: None,
            outcome: None,
            deadline: now.checked_add(config.session_deadline),
            last_recv: now,
            wait_since: now,
            last_send_progress: now,
            last_ping: now,
        }
    }

    /// Run the heavy unit `machine` owes. One that panics costs its own
    /// session an `Internal` refusal; the machine is never resumed.
    pub(crate) fn set_up(machine: &mut ServerMachine, res: &Resources) -> Result<Step, Refusal> {
        let unit = catch_unwind(AssertUnwindSafe(|| machine.set_up(res)));
        unit.unwrap_or_else(|_| Err(refuse(ErrorCode::Internal, "the session's set-up failed")))
    }

    /// `Some(completed)` once the session is over.
    pub(crate) fn outcome(&self) -> Option<bool> {
        self.outcome
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

    /// A live subscription still served.
    pub(crate) fn streaming(&self) -> bool {
        self.closing.is_none() && self.waiting() == Waiting::Streaming
    }

    /// A frame arrived at `now`: the machine's replies, then the set-up
    /// work they precede — a light unit run here, a heavy one handed off.
    pub(crate) fn on_frame(&mut self, res: &Resources, frame: Frame, now: Instant) -> Out {
        self.last_recv = now;
        let open = self.open();
        let Some(machine) = self.machine.as_mut().filter(|_| open) else {
            return Out::default();
        };
        let step = machine.on_frame(res, frame);
        self.entry = self.entry.take().or_else(|| machine.entry().cloned());
        self.advance(res, step, now)
    }

    /// The driver is done with what arrived: the peer's window opens now,
    /// so the server's own processing never counts as the peer's silence.
    pub(crate) fn listen(&mut self, now: Instant) {
        self.wait_since = now;
    }

    /// A frame that does not decode: a peer of another protocol version is
    /// told so; anything else ends the session without a word.
    pub(crate) fn on_bad_frame(&mut self, res: &Resources, error: NetError, now: Instant) -> Out {
        match error {
            NetError::Frame(FrameError::Version(v)) if self.closing.is_none() => {
                let message = format!("protocol version {v} is not v{PROTOCOL_VERSION}");
                Out::frames(vec![self.refuse(res, ErrorCode::Version, message, now)])
            }
            _ => {
                self.finish(res, false);
                Out::default()
            }
        }
    }

    /// The heavy unit ran: carry its step out, unless the session ended or
    /// began closing meanwhile (then the step is dropped).
    pub(crate) fn machine_back(
        &mut self,
        res: &Resources,
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
        self.advance(res, step, now)
    }

    /// The store changed: push a subscriber what it lacks, within the room
    /// `pending` queued bytes leave under `subscriber_buffer`.
    pub(crate) fn push(&mut self, res: &Resources, pending: usize, now: Instant) -> Out {
        let open = self.open();
        let Some(machine) = self.machine.as_mut().filter(|_| open) else {
            return Out::default();
        };
        let room = res.config.subscriber_buffer.saturating_sub(pending) as u64;
        let step = machine.push(res, room);
        self.advance(res, step, now)
    }

    /// The driver wrote, some bytes if `moved`; `pending` are still queued.
    /// A closing session that drained is over.
    pub(crate) fn flushed(&mut self, res: &Resources, now: Instant, moved: bool, pending: usize) {
        if moved {
            self.last_send_progress = now;
        }
        if let (Some((completed, _)), 0) = (self.closing, pending) {
            self.finish(res, completed);
        }
    }

    /// The peer closed its stream: what is queued drains first.
    pub(crate) fn hang_up(&mut self, res: &Resources, now: Instant, pending: usize) {
        match (pending, self.closing) {
            (0, _) => self.cut(res),
            (_, None) => self.close_after_drain(&res.config, self.close_outcome(), now),
            _ => {}
        }
    }

    /// The connection is gone (an I/O error, shutdown): a session past its
    /// final ack ends cleanly, one cut mid-protocol failed.
    pub(crate) fn cut(&mut self, res: &Resources) {
        self.finish(res, self.close_outcome());
    }

    /// End the session and count it, once, server-wide and on its store;
    /// a subscriber gives its slot back.
    pub(crate) fn finish(&mut self, res: &Resources, completed: bool) {
        if self.outcome.is_some() {
            return;
        }
        self.outcome = Some(completed);
        match completed {
            true => res.bump(self.entry(), |s| &s.sessions_completed, 1),
            false => res.bump(self.entry(), |s| &s.sessions_failed, 1),
        }
        if self.waiting() == Waiting::Streaming {
            res.live_subscribers.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// When the first of the timers comes due, `pending` bytes queued.
    pub(crate) fn next_timer(&self, cfg: &ServerConfig, pending: usize) -> Option<Instant> {
        let timers = self.timers(cfg, pending > 0).into_iter().flatten();
        timers.map(|(when, _)| when).min()
    }

    /// Fire the first timer due at `now`, if any; a `Ping` takes the next
    /// `nonce`.
    pub(crate) fn on_timer(
        &mut self,
        res: &Resources,
        now: Instant,
        pending: usize,
        nonce: &mut u64,
    ) -> Option<(Due, Out)> {
        let mut timers = self.timers(&res.config, pending > 0).into_iter().flatten();
        let (_, due) = timers.find(|(when, _)| now >= *when)?;
        let frames = match due {
            Due::Deadline => {
                let message = "session deadline exceeded".into();
                vec![self.refuse(res, ErrorCode::Internal, message, now)]
            }
            Due::Ping => {
                *nonce = nonce.wrapping_add(1);
                self.last_ping = now;
                res.bump(self.entry(), |s| &s.keepalive_pings, 1);
                vec![Frame::Ping { nonce: *nonce }]
            }
            // A stalled subscriber is a slow consumer.
            Due::WriteStall if self.streaming() => {
                res.bump(self.entry(), |s| &s.subscribers_evicted, 1);
                self.cut(res);
                vec![]
            }
            _ => {
                self.cut(res);
                vec![]
            }
        };
        Some((due, Out::frames(frames)))
    }

    /// Every timer running, when it comes due, in precedence order.
    fn timers(&self, cfg: &ServerConfig, pending: bool) -> [Option<(Instant, Due)>; 3] {
        if self.outcome.is_some() {
            return [None; 3];
        }
        let after = |since: Instant, t: Option<Duration>, due| Some((since.checked_add(t?)?, due));
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
    fn advance(&mut self, res: &Resources, step: Result<Step, Refusal>, now: Instant) -> Out {
        let (mut out, mut step) = (Out::default(), Some(step));
        while let Some(next) = step.take() {
            match next {
                Ok(next) => {
                    if let Some(Crossed::Subscribed { .. }) = next.crossed {
                        (self.last_ping, self.last_send_progress) = (now, now);
                    }
                    out.frames.extend(next.frames);
                    out.crossed.extend(next.crossed);
                    if let Some(completed) = next.close {
                        self.close_after_drain(&res.config, completed, now);
                    }
                }
                Err(Refusal::Silent) => self.finish(res, false),
                Err(Refusal::Answer { code, message }) => {
                    out.frames.push(self.refuse(res, code, message, now))
                }
            }
            let owed = self.machine.as_ref().filter(|_| self.open());
            match owed.and_then(ServerMachine::owes) {
                Some(SetUp::Light) => step = self.machine.as_mut().map(|m| m.set_up(res)),
                Some(SetUp::Heavy) => out.hand_off = self.machine.take(),
                None => {}
            }
        }
        out
    }

    /// Drain-close the session as failed, after the `Error` frame returned.
    fn refuse(&mut self, res: &Resources, code: ErrorCode, message: String, now: Instant) -> Frame {
        self.close_after_drain(&res.config, false, now);
        Frame::Error { code, message }
    }

    fn close_after_drain(&mut self, cfg: &ServerConfig, completed: bool, now: Instant) {
        let grace = cfg.transport.write_timeout.unwrap_or(CLOSING_GRACE_CAP);
        self.closing = Some((completed, now + grace.min(CLOSING_GRACE_CAP)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConfig;
    use crate::crc::crc32;
    use crate::frame::{decode_frame, Hello, DEFAULT_MAX_FRAME};
    use crate::machine::Mode;
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

    /// Every timer at `Duration::MAX`, the natural "never": no sum panics,
    /// nothing comes due — queued bytes or not, however late — and a full
    /// session and a subscription are served as ever.
    #[test]
    fn a_timer_too_long_to_add_never_comes_due() {
        let never = Duration::MAX;
        let config = ServerConfig {
            session_deadline: never,
            keepalive: never,
            transport: TransportConfig {
                read_timeout: Some(never),
                write_timeout: Some(never),
                ..TransportConfig::default()
            },
            ..ServerConfig::default()
        };
        let elements = |n: u64| (1..=n).map(|i| i * 0x9E37 + 1).collect::<Vec<u64>>();
        let store = Arc::new(MutableStore::new(elements(500)));
        let fresh = ServerConn::new(&config, Instant::now());
        let mut full = Duet::new(Arc::clone(&store) as Arc<_>, config);
        let (_, _, report) = full.transcript(&ClientConfig::default(), &elements(490), Mode::Full);
        assert!(report.verified && report.recovered.len() == 10);
        let mut sub = Duet::new(store, config);
        let hello = Hello::from_config(&PbsConfig::default(), 1, 0).with_delta_epoch(0);
        sub.deliver(Frame::Hello(hello));
        sub.deliver(Frame::Subscribe { epoch: 0 });
        assert_eq!(sub.conn.waiting(), Waiting::Streaming);
        let late = sub.now + Duration::from_secs(1 << 40);
        let conns = [
            (&fresh, "reconciling"),
            (&full.conn, "parked"),
            (&sub.conn, "streaming"),
        ];
        for (conn, waiting) in conns {
            for pending in [0, 1] {
                assert_eq!(conn.next_timer(&config, pending), None, "{waiting}");
            }
        }
        assert!(sub.conn.on_timer(&sub.res, late, 1, &mut 0).is_none());
        assert_eq!((full.closed(), sub.closed()), (None, None));
    }

    /// A `Hello` of any other protocol version — stale or from the future,
    /// in this version's shape or, as a v1 peer sends it, cut short after
    /// the fields v1 had — does not decode, and the connection answers it
    /// with the typed refusal; met again while that drains, it ends the
    /// session.
    #[test]
    fn every_other_protocol_version_is_refused_by_name() {
        for version in [0u16, 1, 3, 4, 5, 7, u16::MAX] {
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
                let out = duet.conn.on_bad_frame(&duet.res, refused, duet.now);
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
                let out = duet.conn.on_bad_frame(&duet.res, again, duet.now);
                assert!(out.frames.is_empty());
                assert_eq!(duet.closed(), Some(false));
            }
        }
    }
}
