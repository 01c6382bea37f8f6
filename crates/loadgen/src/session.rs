//! One in-flight load-generator session: a non-blocking driver of
//! [`pbs_net::ClientMachine`] over [`pbs_net::mux::MuxStream`].
//!
//! [`pbs_net::client::sync`] drives the same machine with blocking I/O —
//! one OS thread per session. A load generator cannot afford that: the
//! acceptance bar is thousands of concurrent sessions (most of them
//! parked subscribers) per worker thread, so this driver is advanced by
//! readiness events and never blocks. Every protocol decision is the
//! machine's, so what the harness measures is what real clients run; what
//! lives here is the socket, the clock (the per-phase marks are stamped at
//! the boundaries the machine reports) and the harness's own bookkeeping:
//! outcome buckets, the deadline, parked-subscriber accounting.

use crate::plan::{Arrival, Kind};
use pbs_core::PbsConfig;
use pbs_net::mux::MuxStream;
use pbs_net::{
    ClientConfig, ClientMachine, Frame, Mode, NetError, Pipeline, SyncPhases, SyncReport,
    TransportConfig,
};
use std::net::TcpStream;
use std::os::fd::{AsRawFd, RawFd};
use std::time::{Duration, Instant};

/// Protocol parameters shared by every session of a run.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// PBS configuration proposed in each handshake.
    pub pbs: PbsConfig,
    /// Client-side protocol-round cap.
    pub round_cap: u32,
    /// Largest accepted difference parameterization.
    pub max_d: u64,
    /// Frame-size cap of the transport.
    pub max_frame: u32,
    /// Server-side store every session addresses.
    pub store: String,
    /// Wall-clock budget per session; the engine fails sessions that
    /// exceed it (an open-loop harness must never wedge on one peer).
    pub deadline: Duration,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            pbs: PbsConfig::default().unlimited_rounds(),
            round_cap: 32,
            max_d: 1 << 18,
            max_frame: 1 << 20,
            store: String::new(),
            deadline: Duration::from_secs(60),
        }
    }
}

/// Where a finished session ended up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Ran its workload to the end (for a subscriber: parked until the
    /// harness drained it).
    Completed,
    /// A parked subscriber terminated by the *server* before the drain —
    /// backpressure eviction or connection loss while parked.
    Evicted,
    /// Anything else: transport error, protocol violation, deadline.
    Failed,
}

/// What one finished session reports back to the engine.
#[derive(Debug, Clone)]
pub struct SessionResult {
    /// The planned workload kind.
    pub kind: Kind,
    /// How it ended.
    pub outcome: Outcome,
    /// The failure, for [`Outcome::Failed`]/[`Outcome::Evicted`].
    pub error: Option<String>,
    /// Per-phase latency marks (`total`, for a subscriber, up to the
    /// park).
    pub phases: SyncPhases,
    /// Reconciliation sessions: every group checksum verified.
    pub verified: bool,
    /// A requested delta catch-up was refused and the session fell back
    /// to a full reconciliation.
    pub delta_fallback: bool,
    /// Push batches a subscriber received while parked.
    pub pushes: u64,
    /// Wire bytes received, framing included.
    pub bytes_in: u64,
    /// Wire bytes sent, framing included.
    pub bytes_out: u64,
    /// What the machine reported for a reconciliation or delta session
    /// that ran to its ack, with this driver's transport ledger filled in
    /// — the same report the blocking client returns.
    pub report: Option<SyncReport>,
}

/// One live session. The engine owns a set of these, polls their fds, and
/// calls [`LoadSession::on_readable`]/[`LoadSession::on_writable`] as the
/// socket becomes ready.
#[derive(Debug)]
pub struct LoadSession {
    mux: MuxStream,
    machine: ClientMachine<'static>,
    kind: Kind,
    deadline: Duration,
    /// Push batches received while parked.
    pushes: u64,
    started: Instant,
    mark: Instant,
    phases: SyncPhases,
    result: Option<SessionResult>,
}

impl LoadSession {
    /// Take over a just-connected stream: put it in non-blocking mode and
    /// queue the `Hello`. The arrival supplies the session kind and seed;
    /// `connect` is the measured connect duration, `started` the instant
    /// the connect began (anchors `total`). `delta_epoch` must be set for
    /// [`Kind::Delta`]/[`Kind::Subscribe`].
    pub fn start(
        stream: TcpStream,
        arrival: &Arrival,
        set: Vec<u64>,
        delta_epoch: Option<u64>,
        connect: Duration,
        started: Instant,
        spec: SessionSpec,
    ) -> Result<Self, NetError> {
        let kind = arrival.kind;
        let since = || delta_epoch.expect("delta/subscribe sessions need an epoch");
        let mode = match kind {
            Kind::Full | Kind::Pipelined => Mode::Full,
            Kind::Delta => Mode::Delta { since: since() },
            Kind::Subscribe => Mode::Subscribe { since: since() },
        };
        let config = ClientConfig {
            pbs: spec.pbs,
            seed: arrival.seed,
            round_cap: spec.round_cap,
            max_d: spec.max_d,
            store: spec.store,
            pipeline: match kind {
                Kind::Pipelined => Pipeline::Auto,
                _ => Pipeline::Depth(1),
            },
            transport: TransportConfig {
                max_frame: spec.max_frame,
                ..TransportConfig::default()
            },
            ..ClientConfig::default()
        };
        let mut session = LoadSession {
            mux: MuxStream::from_tcp(stream, spec.max_frame).map_err(NetError::Io)?,
            machine: ClientMachine::new(&config, set, mode)?,
            kind,
            deadline: spec.deadline,
            pushes: 0,
            started,
            mark: Instant::now(),
            phases: SyncPhases {
                connect,
                ..SyncPhases::default()
            },
            result: None,
        };
        session.queue_owed()?;
        Ok(session)
    }

    /// The raw fd the engine polls.
    pub(crate) fn fd(&self) -> RawFd {
        self.mux.get_ref().as_raw_fd()
    }

    /// Write interest: only while output is queued.
    pub(crate) fn wants_write(&self) -> bool {
        self.mux.pending_out() > 0
    }

    /// `true` once the session has a result to reap.
    pub fn is_finished(&self) -> bool {
        self.result.is_some()
    }

    /// `true` while the session is a parked subscriber.
    pub(crate) fn is_parked(&self) -> bool {
        !self.is_finished() && self.machine.is_parked()
    }

    /// Whether the session is past its deadline. Parked subscribers are
    /// exempt — parking indefinitely is their job.
    pub(crate) fn past_deadline(&self, now: Instant) -> bool {
        !self.is_parked() && now.duration_since(self.started) > self.deadline
    }

    /// Consume the result after [`LoadSession::is_finished`].
    pub fn take_result(&mut self) -> Option<SessionResult> {
        self.result.take()
    }

    /// Socket writable: drain queued output.
    pub fn on_writable(&mut self) {
        if self.is_finished() {
            return;
        }
        if let Err(e) = self.mux.flush() {
            self.fail(format!("write: {e}"));
        }
    }

    /// Socket readable: buffer input and advance the machine over every
    /// complete frame.
    pub fn on_readable(&mut self) {
        if self.is_finished() {
            return;
        }
        if let Err(e) = self.mux.fill() {
            self.fail(format!("read: {e}"));
            return;
        }
        while !self.is_finished() {
            match self.mux.next_frame() {
                Ok(Some(frame)) => {
                    if let Err(e) = self.advance(frame) {
                        self.fail(e.to_string());
                    }
                }
                Ok(None) => break,
                Err(e) => self.fail(format!("frame: {e}")),
            }
        }
        if self.is_finished() {
            return;
        }
        if self.mux.peer_closed() {
            // EOF with no complete frame left. For a parked subscriber
            // that is a server-initiated termination (eviction); for any
            // other state the server hung up mid-protocol.
            self.fail(if self.is_parked() {
                "server closed a parked subscription".into()
            } else {
                "connection closed mid-session".into()
            });
        }
        // The machine's answers are queued; push them toward the socket
        // now rather than waiting for the next writable event.
        let _ = self.mux.flush();
    }

    /// Drain a parked subscriber: the harness is done, the park was the
    /// workload, the session completes.
    pub(crate) fn finish_parked(&mut self) {
        if self.is_parked() {
            let _ = self.mux.get_ref().shutdown(std::net::Shutdown::Both);
            self.finish(Outcome::Completed, None, None);
        }
    }

    /// Fail the session from outside (deadline).
    pub(crate) fn fail_timeout(&mut self) {
        self.fail(format!(
            "deadline of {:?} exceeded while {}",
            self.deadline,
            self.machine.state_name()
        ));
    }

    /// One accepted frame: feed the machine, stamp the boundary it
    /// reports, act on what it yields, queue what it owes next.
    fn advance(&mut self, frame: Frame) -> Result<(), NetError> {
        let step = self.machine.on_frame(frame)?;
        if let Some(phase) = step.crossed {
            let now = Instant::now();
            self.phases.stamp(phase, now.duration_since(self.mark));
            self.mark = now;
        }
        if let Some(mut report) = step.report {
            self.phases.total = self.started.elapsed();
            report.bytes_sent = self.mux.bytes_out();
            report.bytes_received = self.mux.bytes_in();
            report.frames_sent = self.mux.frames_out();
            report.frames_received = self.mux.frames_in();
            report.phases = self.phases;
            // The real client hands an unverified recovery back to its
            // caller; for the harness that is a failed session — after the
            // server has seen the same `Done` and ack it sees from one.
            let (outcome, error) = if report.verified {
                (Outcome::Completed, None)
            } else {
                let error = "round cap exhausted before verification";
                (Outcome::Failed, Some(error.into()))
            };
            self.finish(outcome, error, Some(report));
        } else if step.push.is_some() {
            if self.machine.is_parked() {
                self.pushes += 1;
            } else {
                // The catch-up baseline; park from here. `total` covers up
                // to the park, matching how a real subscriber perceives
                // time-to-live-stream.
                self.phases.total = self.started.elapsed();
            }
        }
        self.queue_owed()
    }

    fn queue_owed(&mut self) -> Result<(), NetError> {
        match self.machine.poll_send()? {
            Some(frame) => self.mux.queue(&frame),
            None => Ok(()),
        }
    }

    fn fail(&mut self, error: String) {
        // A parked subscriber can only die by the server's hand — that is
        // the eviction bucket, not a harness failure.
        let outcome = if self.is_parked() {
            Outcome::Evicted
        } else {
            Outcome::Failed
        };
        self.finish(outcome, Some(error), None);
    }

    fn finish(&mut self, outcome: Outcome, error: Option<String>, report: Option<SyncReport>) {
        if self.is_finished() {
            return;
        }
        if self.phases.total.is_zero() {
            self.phases.total = self.started.elapsed();
        }
        self.result = Some(SessionResult {
            kind: self.kind,
            outcome,
            verified: outcome == Outcome::Completed,
            delta_fallback: report.as_ref().is_some_and(|r| r.delta_fallback),
            error,
            phases: self.phases,
            pushes: self.pushes,
            bytes_in: self.mux.bytes_in(),
            bytes_out: self.mux.bytes_out(),
            report,
        });
    }
}
