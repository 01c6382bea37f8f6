//! The client half of the wire protocol, once, with no I/O inside.
//!
//! [`ClientMachine`] is the paper's §3.2 decision sequence from Alice's
//! side — handshake, optional delta catch-up, estimator exchange,
//! possibly-pipelined sketch/report rounds, final transfer, optional live
//! subscription — as a state machine that never touches a socket or a
//! clock. It alternates between two kinds of states:
//!
//! * it **owes** the peer a frame — [`ClientMachine::poll_send`] builds it
//!   (the ToW bank, the next sketch batch, the final transfer) and moves
//!   on to awaiting the answer;
//! * it **awaits** a frame — [`ClientMachine::on_frame`] validates the
//!   peer's frame against the current state, advances, and returns a
//!   [`Step`]: the phase boundary just crossed, and the finished
//!   [`SyncReport`] or pushed [`DeltaReport`] when there is one.
//!
//! Building a frame is a call of its own because it is where the client's
//! compute lives (hashing the whole set into the estimator bank, the group
//! partition, the sketches): a driver stamps the boundary a [`Step`]
//! reports with its own clock *before* asking for the next frame, so that
//! compute is charged to the phase it opens, not the one that just closed.
//!
//! One driver runs it: the crate's client connection (`conn.rs`), which
//! sends what [`poll_send`] yields, feeds [`on_frame`] what arrives and
//! stamps [`Step::crossed`] on the clock it is handed, beside the client's
//! timers. The readiness loop the server runs on drives that connection:
//! on the caller's thread for the blocking [`crate::client::sync`] and
//! [`crate::client::Subscription`], on worker threads for
//! [`crate::client::Dialer`].
//!
//! [`poll_send`]: ClientMachine::poll_send
//! [`on_frame`]: ClientMachine::on_frame

use crate::client::{ClientConfig, Pipeline, SyncReport};
use crate::frame::{
    delta_element_width, service_plan, EstimatorMsg, Frame, Hello, DONE_HEADER, MAX_STORE_NAME,
};
use crate::NetError;
use estimator::{Estimator, TowEstimator};
use pbs_core::{AliceSession, Pbs, ESTIMATOR_SEED_SALT};
use std::borrow::Cow;
use std::hash::BuildHasher;

/// What one connection is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Reconcile the client set against the store.
    Full,
    /// Catch up from the store's changelog since this epoch; when the
    /// server cannot cover it (`FullResyncRequired`), fall through to a
    /// full reconciliation on the same connection.
    Delta {
        /// The epoch of the client's previous sync.
        since: u64,
    },
    /// Catch up since this epoch, then park as a live subscription. Never
    /// falls back: a subscriber that skipped changes would be wrong, so an
    /// uncoverable epoch is an error.
    Subscribe {
        /// The epoch the client stands at.
        since: u64,
    },
}

/// A protocol phase of [`crate::client::SyncPhases`] that a [`Step`] can
/// report as just ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `Hello` sent → negotiated reply validated.
    Handshake,
    /// Delta catch-up stream (or its refusal).
    Delta,
    /// Estimator exchange.
    Estimate,
    /// The sketch/report round loop.
    Rounds,
    /// Final transfer and its ack.
    Transfer,
}

/// What one accepted frame did to the session.
#[derive(Debug, Default)]
pub struct Step {
    /// The phase this frame ended; the driver stamps it with its own clock.
    pub crossed: Option<Phase>,
    /// Terminal ([`Mode::Full`] / [`Mode::Delta`]): the sync is over. The
    /// transport half of the report (bytes, frames, phases) is the
    /// driver's to fill in.
    pub report: Option<SyncReport>,
    /// [`Mode::Subscribe`]: one complete delta stream — the catch-up
    /// first, then one per push burst.
    pub push: Option<DeltaReport>,
}

impl Step {
    fn end_of(phase: Phase) -> Self {
        Step {
            crossed: Some(phase),
            ..Step::default()
        }
    }
}

/// Outcome of a delta stream ([`SyncReport::delta`], or one item of a
/// subscription): the changes between two epochs, collapsed across batches
/// to each touched element's last one (an element added then removed is
/// listed as removed: a no-op for a reader that never held it).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaReport {
    /// The epoch the stream started from.
    pub from_epoch: u64,
    /// The epoch the stream ended at — the next sync's `delta_epoch`.
    pub to_epoch: u64,
    /// Elements the store holds at `to_epoch` that the stream touched,
    /// sorted: to insert.
    pub added: Vec<u64>,
    /// Elements the stream touched that the store does not hold at
    /// `to_epoch`, sorted: to remove.
    pub removed: Vec<u64>,
    /// `DeltaBatch` frames received.
    pub batches: u64,
}

impl DeltaReport {
    /// Apply the net changes to a local element set (removes, then adds),
    /// whatever the set's hasher.
    pub fn apply_to<S: BuildHasher>(&self, set: &mut std::collections::HashSet<u64, S>) {
        for e in &self.removed {
            set.remove(e);
        }
        set.extend(self.added.iter().copied());
    }
}

/// Accumulator folding a delta stream into net add/remove sets, in arrival
/// order: each element ends up on the list of its *last* change, whatever
/// came before. Applying the result (removes, then adds) therefore leaves
/// every touched element as the store has it at the end of the stream,
/// whatever the reader held at the start — exact for a reader that stood
/// precisely at the stream's first epoch, and still exact for one that
/// was ahead of it (a client acked at its snapshot's epoch already holds
/// the transfer the next batch adds). Cancelling an add against a later
/// remove instead would lose a removal: out, in and out again of a held
/// element is *out*. This is *the* collapse rule: the client's here, and
/// the store's when it brings its cached view forward
/// ([`crate::SetStore::view`]), where [`pbs_core::SetView::patched`] folds
/// the changelog by the same rule in one sort.
///
/// The fold keeps the stream's changes as they came and sorts them once,
/// in [`DeltaFold::into_report`]: a burst costs one sort of what it
/// delivered, and no table per stream.
#[derive(Debug, Default)]
pub struct DeltaFold {
    /// Every change delivered, `(element, added)`, in stream order: within
    /// a batch, its removals before its adds.
    changes: Vec<(u64, bool)>,
    batches: u64,
}

impl DeltaFold {
    /// An empty fold.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one `DeltaBatch` frame's lists, in stream order.
    pub fn fold(
        &mut self,
        added: impl IntoIterator<Item = u64>,
        removed: impl IntoIterator<Item = u64>,
    ) {
        self.batches += 1;
        let removed = removed.into_iter().map(|e| (e, false));
        let added = added.into_iter().map(|e| (e, true));
        self.changes.extend(removed.chain(added));
    }

    /// Distinct elements the stream has touched so far (a sort of a copy
    /// of the stream: for a caller that reports it, not on a hot path).
    pub fn len(&self) -> usize {
        let mut touched: Vec<u64> = self.changes.iter().map(|&(e, _)| e).collect();
        touched.sort_unstable();
        touched.dedup();
        touched.len()
    }

    /// `true` when the folded stream has touched no element.
    pub fn is_empty(&self) -> bool {
        self.changes.is_empty()
    }

    /// Finish into a sorted [`DeltaReport`] spanning the given epochs.
    pub fn into_report(self, from_epoch: u64, to_epoch: u64) -> DeltaReport {
        let mut changes = self.changes;
        // Stable: each element's changes stay in stream order.
        changes.sort_by_key(|&(e, _)| e);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        for run in changes.chunk_by(|a, b| a.0 == b.0) {
            // The element's last change is the one that stands.
            let Some(&(e, add)) = run.last() else {
                continue;
            };
            if add {
                added.push(e);
            } else {
                removed.push(e);
            }
        }
        DeltaReport {
            from_epoch,
            to_epoch,
            added,
            removed,
            batches: self.batches,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    OweHello,
    AwaitHello,
    AwaitDelta,
    OweBank,
    AwaitEstimate,
    OweSketches,
    AwaitReports,
    OweDone,
    AwaitAck,
    OweSubscribe,
    Parked,
    Finished,
}

impl State {
    fn name(self) -> &'static str {
        match self {
            State::OweHello => "about to send the Hello",
            State::AwaitHello => "awaiting the Hello reply",
            State::AwaitDelta => "awaiting the delta stream",
            State::OweBank => "about to send the estimator bank",
            State::AwaitEstimate => "awaiting the estimate reply",
            State::OweSketches => "about to send sketches",
            State::AwaitReports => "awaiting Reports",
            State::OweDone => "about to send the final transfer",
            State::AwaitAck => "awaiting the Done ack",
            State::OweSubscribe => "about to send Subscribe",
            State::Parked => "parked on the subscription stream",
            State::Finished => "finished",
        }
    }
}

/// The client side of one connection (see the [module docs](self)).
///
/// The client set is lent, not copied: a blocking call passes the
/// caller's `&[u64]`, a `Dialer` session, which must own it, a `Vec`.
#[derive(Debug)]
pub struct ClientMachine<'a> {
    config: ClientConfig,
    set: Cow<'a, [u64]>,
    mode: Mode,
    state: State,
    /// Pipeline depth: the request until the handshake, the grant after.
    depth: u32,
    /// Field degree the sketches are packed with, once planned.
    m: u32,
    alice: Option<AliceSession>,
    /// The delta stream being folded (catch-up, or the current push burst).
    fold: DeltaFold,
    /// The epoch the delta stream has advanced to.
    epoch: u64,
    /// Nonce of a keepalive `Ping` not yet answered.
    ping: Option<u64>,
    report: SyncReport,
}

impl<'a> ClientMachine<'a> {
    /// Validate the request and set up the session; nothing is sent yet —
    /// the first [`ClientMachine::poll_send`] yields the opening `Hello`.
    ///
    /// [`ClientConfig::delta_epoch`] is the blocking entry point's way of
    /// choosing `mode`; the machine itself reads only `mode`.
    pub fn new(
        config: &ClientConfig,
        set: impl Into<Cow<'a, [u64]>>,
        mode: Mode,
    ) -> Result<Self, NetError> {
        let set = set.into();
        // Out-of-universe elements can never verify (Alice's sub-universe
        // check rejects them as fakes), so a session would burn its whole
        // round cap discovering a configuration mistake. Fail fast instead.
        let universe_mask = if config.pbs.universe_bits == 64 {
            u64::MAX
        } else {
            (1u64 << config.pbs.universe_bits) - 1
        };
        if let Some(&bad) = set.iter().find(|&&e| e == 0 || e > universe_mask) {
            return Err(NetError::Protocol(format!(
                "element {bad:#x} outside the {}-bit universe",
                config.pbs.universe_bits
            )));
        }

        // The server plans every session with the service plan of the
        // universe the `Hello` names; a client that planned with another
        // would sketch at a shape the server refuses, or verify nothing.
        let (pbs, plan) = (&config.pbs, service_plan(config.pbs.universe_bits));
        let fields = [
            ("delta", pbs.delta == plan.delta),
            ("target_rounds", pbs.target_rounds == plan.target_rounds),
            ("target_success", pbs.target_success == plan.target_success),
            ("max_rounds", pbs.max_rounds == plan.max_rounds),
            (
                "estimator_sketches",
                pbs.estimator_sketches == plan.estimator_sketches,
            ),
        ];
        if let Some((field, _)) = fields.iter().find(|(_, same)| !same) {
            return Err(NetError::Protocol(format!(
                "pbs.{field} differs from the service plan the server runs"
            )));
        }

        let mut config = config.clone();
        // `known_d == 0` means "estimate" on the wire, so a caller's
        // `Some(0)` must not desynchronize the two state machines:
        // normalize it to the same `max(1)` every other `d` path applies.
        config.known_d = config.known_d.map(|d| d.max(1));
        if let Some(d) = config.known_d.filter(|&d| d > config.max_d) {
            return Err(NetError::Protocol(format!(
                "known_d = {d} exceeds the client cap {}",
                config.max_d
            )));
        }
        // The encoder would byte-truncate an over-long name (possibly
        // mid-codepoint), silently addressing a *different* store than the
        // caller asked for — refuse up front instead, mirroring the
        // registry's registration-side check.
        if config.store.len() > MAX_STORE_NAME {
            return Err(NetError::Protocol(format!(
                "store name of {} bytes exceeds the {MAX_STORE_NAME}-byte wire limit",
                config.store.len()
            )));
        }

        // An adaptive-pipeline client asks for the largest representable
        // depth; the grant that comes back is the server's own cap, the
        // ceiling the per-trip controller then works under. A subscriber
        // runs no rounds and asks for none.
        let depth = match (mode, config.pipeline) {
            (Mode::Subscribe { .. }, _) => 1,
            (_, Pipeline::Auto) => u8::MAX as u32,
            (_, Pipeline::Depth(depth)) => depth.max(1),
        };
        let epoch = match mode {
            Mode::Full => 0,
            Mode::Delta { since } | Mode::Subscribe { since } => since,
        };
        Ok(ClientMachine {
            config,
            set,
            mode,
            state: State::OweHello,
            depth,
            m: 0,
            alice: None,
            fold: DeltaFold::new(),
            epoch,
            ping: None,
            report: SyncReport::default(),
        })
    }

    /// The frame the machine owes the peer in its current state, if any.
    /// Call it after construction and after every accepted frame; this is
    /// where the client-side compute of the phase just opened runs.
    pub fn poll_send(&mut self) -> Result<Option<Frame>, NetError> {
        let (frame, next) = match self.state {
            State::OweHello => (self.hello(), State::AwaitHello),
            State::OweBank => (self.bank(), State::AwaitEstimate),
            State::OweSketches => (self.sketches(), State::AwaitReports),
            State::OweDone => (self.transfer()?, State::AwaitAck),
            State::OweSubscribe => (Frame::Subscribe { epoch: self.epoch }, State::Parked),
            // Answering the server's liveness probe is what keeps an idle
            // subscription alive.
            State::Parked => return Ok(self.ping.take().map(|nonce| Frame::Pong { nonce })),
            _ => return Ok(None),
        };
        self.state = next;
        Ok(Some(frame))
    }

    /// Accept the peer's next frame. A frame the current state cannot
    /// accept is a [`NetError::Protocol`] naming the state; a peer
    /// `Error` frame is [`NetError::Remote`]. After an error the machine
    /// is dead.
    pub fn on_frame(&mut self, frame: Frame) -> Result<Step, NetError> {
        match (self.state, frame) {
            (_, Frame::Error { code, message }) => Err(NetError::Remote { code, message }),
            (State::AwaitHello, Frame::Hello(reply)) => {
                // The reply is obeyed from here on, so it is held to what
                // was asked: the server may route, grant a depth and name
                // the seed — the universe is the one this side sent, or the
                // two would plan apart.
                if reply.universe_bits as u32 != self.config.pbs.universe_bits {
                    return Err(NetError::Protocol(format!(
                        "the Hello reply changed the universe it was sent ({} bits)",
                        self.config.pbs.universe_bits
                    )));
                }
                // The seed is the store's to decide: a server that keeps a
                // view of its set laid out under one names it here. Every
                // hash of the session derives from this one.
                self.report.seed = reply.seed;
                // The server grants at most its own per-frame cap and the
                // session uses the granted depth — a deeper request
                // degrades instead of having a mid-session frame refused.
                self.depth = self.depth.min(reply.pipeline.max(1) as u32);
                self.state = match self.mode {
                    Mode::Full => self.parameterize(),
                    Mode::Delta { .. } | Mode::Subscribe { .. } => State::AwaitDelta,
                };
                Ok(Step::end_of(Phase::Handshake))
            }
            (State::AwaitDelta | State::Parked, Frame::DeltaBatch { added, removed, .. }) => {
                self.fold.fold(added, removed);
                Ok(Step::default())
            }
            // A catch-up or a push ends no earlier than it began.
            (State::AwaitDelta | State::Parked, Frame::DeltaDone { epoch })
                if epoch < self.epoch =>
            {
                Err(NetError::Protocol(format!(
                    "delta stream went backwards: epoch {epoch} after {}",
                    self.epoch
                )))
            }
            (State::AwaitDelta, Frame::DeltaDone { epoch }) => {
                let delta = self.end_of_stream(epoch);
                let mut step = Step::end_of(Phase::Delta);
                if matches!(self.mode, Mode::Subscribe { .. }) {
                    // Hold the session open: from here the server pushes.
                    self.state = State::OweSubscribe;
                    step.push = Some(delta);
                } else {
                    // Served entirely from the changelog: the sync is over,
                    // no reconciliation ran.
                    self.report.verified = true;
                    self.report.delta = Some(delta);
                    step.report = Some(self.finish(epoch));
                }
                Ok(step)
            }
            (State::AwaitDelta, Frame::FullResyncRequired { epoch }) => match self.mode {
                // The changelog no longer covers our epoch — subscribing
                // would skip changes, so the caller must reconcile first.
                Mode::Subscribe { since } => Err(NetError::Protocol(format!(
                    "server (at epoch {epoch}) cannot serve deltas since epoch {since}; \
                     run a full sync and subscribe from its epoch"
                ))),
                _ => {
                    self.report.delta_fallback = true;
                    self.state = self.parameterize();
                    Ok(Step::end_of(Phase::Delta))
                }
            },
            (
                State::AwaitEstimate,
                Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, d_hat }),
            ) => {
                let d_param = d_param.max(1);
                // A hostile server must not be able to demand per-group
                // state for a gigantic `d`.
                if d_param > self.config.max_d {
                    return Err(NetError::Protocol(format!(
                        "server demanded d = {d_param}, above the client cap {}",
                        self.config.max_d
                    )));
                }
                self.report.estimated_d = Some(d_hat);
                self.state = self.enter_rounds(d_param);
                Ok(Step::end_of(Phase::Estimate))
            }
            (State::AwaitReports, Frame::Reports(reports)) => {
                // `AwaitReports` is only ever entered by sending sketches,
                // which builds the session.
                let Some(alice) = self.alice.as_mut() else {
                    return Err(NetError::Protocol(
                        "Reports arrived before any sketches were sent".into(),
                    ));
                };
                let status = alice.apply_reports(&reports);
                if !status.all_verified && alice.round() < self.config.round_cap {
                    self.state = State::OweSketches;
                    return Ok(Step::default());
                }
                // `false` here means the round cap fired first: the
                // transfer below is best-effort and the report says so.
                self.report.verified = status.all_verified;
                self.state = State::OweDone;
                Ok(Step::end_of(Phase::Rounds))
            }
            // The ack is a `DeltaDone` carrying the epoch of the snapshot
            // this reconciliation ran against — what the next sync passes
            // as `delta_epoch`.
            (State::AwaitAck, Frame::DeltaDone { epoch }) => Ok(self.acked(epoch)),
            (State::Parked, Frame::DeltaDone { epoch }) => Ok(Step {
                push: Some(self.end_of_stream(epoch)),
                ..Step::default()
            }),
            (State::Parked, Frame::Ping { nonce }) => {
                self.ping = Some(nonce);
                Ok(Step::default())
            }
            (State::Parked, Frame::FullResyncRequired { epoch }) => Err(NetError::Protocol(
                format!("subscription evicted; full resync required (server epoch {epoch})"),
            )),
            (state, other) => Err(NetError::Protocol(format!(
                "unexpected frame type {} while {}",
                other.type_byte(),
                state.name()
            ))),
        }
    }

    /// `true` once the server's `Hello` reply is taken.
    pub(crate) fn answered(&self) -> bool {
        !matches!(self.state, State::OweHello | State::AwaitHello)
    }

    /// `true` while the subscription is live (the `Subscribe` is out).
    pub(crate) fn is_parked(&self) -> bool {
        self.state == State::Parked
    }

    /// `true` when a delta stream is part-way through — a close now would
    /// cut a push burst short rather than end the stream between bursts.
    pub(crate) fn mid_stream(&self) -> bool {
        !self.fold.is_empty()
    }

    /// The current state, in words (for a driver's timeout message).
    pub(crate) fn state_name(&self) -> &'static str {
        self.state.name()
    }

    fn hello(&mut self) -> Frame {
        let known_d = match self.mode {
            Mode::Subscribe { .. } => 0,
            _ => self.config.known_d.unwrap_or(0),
        };
        let mut hello = Hello::from_config(&self.config.pbs, self.config.seed, known_d)
            .with_store(std::mem::take(&mut self.config.store))
            .with_pipeline(self.depth);
        hello.delta_epoch = match self.mode {
            Mode::Full => None,
            Mode::Delta { since } | Mode::Subscribe { since } => Some(since),
        };
        Frame::Hello(hello)
    }

    /// The classic session begins: with `d` known a priori straight into
    /// the rounds, otherwise through the estimator exchange.
    fn parameterize(&mut self) -> State {
        match self.config.known_d {
            Some(d) => self.enter_rounds(d),
            None => State::OweBank,
        }
    }

    fn enter_rounds(&mut self, d_param: u64) -> State {
        self.report.d_param = d_param;
        if self.config.round_cap == 0 {
            State::OweDone
        } else {
            State::OweSketches
        }
    }

    fn bank(&self) -> Frame {
        let est_seed = xhash::derive_seed(self.report.seed, ESTIMATOR_SEED_SALT);
        let mut bank = TowEstimator::new(self.config.pbs.estimator_sketches, est_seed);
        bank.insert_slice(&self.set);
        Frame::EstimatorExchange(EstimatorMsg::TowBank(bank.to_bytes()))
    }

    fn sketches(&mut self) -> Frame {
        let config = &self.config;
        let alice = match &mut self.alice {
            Some(alice) => alice,
            None => {
                let params = Pbs::new(config.pbs).plan(self.report.d_param as usize);
                self.m = params.m;
                let seed = self.report.seed;
                self.alice
                    .insert(AliceSession::new(config.pbs, params, &self.set, seed))
            }
        };
        // Pipelined: one frame speculatively carries the next `layers`
        // rounds' sketches; the server answers every layer in one reply.
        // In auto mode the session prices the speculative layers of every
        // trip against what it has already sent, never above the grant.
        let depth = match config.pipeline {
            Pipeline::Auto => alice.next_pipeline_depth(self.depth),
            Pipeline::Depth(_) => self.depth,
        };
        let layers = depth.min(config.round_cap - alice.round());
        Frame::Sketches {
            m: self.m,
            batch: alice.start_rounds(layers),
        }
    }

    /// The final transfer: ship `A \ B` so the server can converge. The
    /// session says which recovered elements are ours — it took them out
    /// of its working set — so the client set is not consulted again.
    fn transfer(&mut self) -> Result<Frame, NetError> {
        let mut pushed = Vec::new();
        if let Some(alice) = self.alice.take() {
            self.report.rounds = alice.round();
            self.report.round_trips = alice.round_trips();
            self.report.speculative_layers = alice.speculative_layers();
            self.report.speculative_unused = alice.speculative_unused();
            (self.report.recovered, pushed) = alice.into_recovered_and_mine();
        }
        // The transfer is a single frame of packed elements; give an
        // actionable error rather than a bare size failure.
        let max_frame = self.config.transport.max_frame;
        let width = delta_element_width(&pushed, &[]) as u32;
        let capacity = max_frame.saturating_sub(DONE_HEADER) / width;
        if pushed.len() as u64 > capacity as u64 {
            return Err(NetError::Protocol(format!(
                "final transfer of {} elements exceeds the {max_frame}-byte frame cap \
                 (max {capacity} elements); raise transport.max_frame",
                pushed.len()
            )));
        }
        self.report.pushed = pushed.clone();
        Ok(Frame::Done(pushed))
    }

    fn acked(&mut self, epoch: u64) -> Step {
        Step {
            report: Some(self.finish(epoch)),
            ..Step::end_of(Phase::Transfer)
        }
    }

    fn finish(&mut self, epoch: u64) -> SyncReport {
        self.state = State::Finished;
        self.report.epoch = Some(epoch);
        std::mem::take(&mut self.report)
    }

    /// A `DeltaDone` closed the stream being folded: report it and advance.
    fn end_of_stream(&mut self, epoch: u64) -> DeltaReport {
        let report = std::mem::take(&mut self.fold).into_report(self.epoch, epoch);
        self.epoch = epoch;
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::{decode_frame, write_frame, Decoded, DEFAULT_MAX_FRAME, FRAME_OVERHEAD};
    use crate::server::ServerConfig;
    use crate::sim::Duet;
    use crate::store::MutableStore;
    use crate::TransportConfig;
    use std::collections::HashSet;
    use std::sync::Arc;

    const SEED: u64 = 0x0123_4567_89AB_CDEF;

    fn config() -> ClientConfig {
        ClientConfig {
            seed: SEED,
            ..ClientConfig::default()
        }
    }

    /// A scrambled 32-bit universe: `count` distinct nonzero elements.
    fn keys(count: u64, salt: u64) -> Vec<u64> {
        (1..=count)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) ^ salt) & 0xFFFF_FFFF | 1 << 20)
            .collect::<HashSet<u64>>()
            .into_iter()
            .collect()
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    /// The server's half, in memory: a [`crate::server_machine::ServerMachine`]
    /// over an epoch-keeping store that holds `set` at epoch `epoch`.
    fn server(set: Vec<u64>, epoch: u64) -> Duet {
        Duet::over(Arc::new(MutableStore::with_epoch_origin(set, epoch, 1024)))
    }

    fn two_sided(d: usize) -> (Vec<u64>, Vec<u64>) {
        let pool = keys(3_000, 0xA5A5);
        let alice = pool[d / 2..].to_vec();
        let bob = pool[..pool.len() - d.div_ceil(2)].to_vec();
        (alice, bob)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(500))]

        /// The fold against a `HashSet` model, over the streams only a
        /// hostile server sends: up to 20 batches over a dozen elements,
        /// with repeats inside a list, an element on both lists of one
        /// batch, and empty batches. The report is the model's
        /// last-change-wins state — two ascending, repeat-free, disjoint
        /// lists — and `len` counts the distinct elements touched.
        #[test]
        fn a_hostile_stream_folds_to_each_elements_last_change(
            batches in proptest::collection::vec(
                (
                    proptest::collection::vec(0u64..12, 0usize..8),
                    proptest::collection::vec(0u64..12, 0usize..8),
                ),
                0usize..=20,
            ),
        ) {
            let mut fold = DeltaFold::new();
            let (mut added, mut removed) = (HashSet::new(), HashSet::new());
            for (batch_added, batch_removed) in &batches {
                fold.fold(batch_added.iter().copied(), batch_removed.iter().copied());
                for &e in batch_removed {
                    added.remove(&e);
                    removed.insert(e);
                }
                for &e in batch_added {
                    removed.remove(&e);
                    added.insert(e);
                }
            }
            proptest::prop_assert_eq!(fold.len(), added.len() + removed.len());
            let delivered = batches.iter().any(|(a, r)| !a.is_empty() || !r.is_empty());
            proptest::prop_assert_eq!(fold.is_empty(), !delivered);
            let report = fold.into_report(4, 7);
            proptest::prop_assert_eq!(report.added, sorted(added.into_iter().collect()));
            proptest::prop_assert_eq!(report.removed, sorted(removed.into_iter().collect()));
            proptest::prop_assert_eq!(report.batches, batches.len() as u64);
            proptest::prop_assert_eq!((report.from_epoch, report.to_epoch), (4, 7));
        }
    }

    /// Every way one element can go out of and into a store in up to five
    /// effective batches, from held or not: applying the fold to a reader's
    /// set gives what the store holds at the end — for the reader that
    /// stood at the first epoch, and for the one that did not (it was
    /// acked at a snapshot's epoch and already holds what the next batch
    /// adds, or no longer holds what it removes).
    #[test]
    fn the_fold_of_a_stream_leaves_what_the_store_holds() {
        for held in [false, true] {
            for batches in 1..=5 {
                let mut fold = DeltaFold::new();
                let mut holds = held;
                for _ in 0..batches {
                    // Effective changes only: out when held, in when not.
                    let (added, removed) = match holds {
                        true => (vec![], vec![5]),
                        false => (vec![5], vec![]),
                    };
                    fold.fold(added, removed);
                    holds = !holds;
                }
                assert_eq!(fold.len(), 1);
                let report = fold.into_report(0, batches);
                for reader_held in [false, true] {
                    let mut set: HashSet<u64> = reader_held.then_some(5).into_iter().collect();
                    report.apply_to(&mut set);
                    let case = format!("held {held}/{reader_held}, {batches} batches");
                    assert_eq!(set.contains(&5), holds, "{case}");
                }
            }
        }
    }

    #[test]
    fn a_full_sync_runs_to_its_report_without_a_socket() {
        let (alice, bob) = two_sided(40);
        let theirs: HashSet<u64> = bob.iter().copied().collect();
        let ours: HashSet<u64> = alice.iter().copied().collect();
        let truth = sorted(ours.symmetric_difference(&theirs).copied().collect());
        let only_ours = sorted(ours.difference(&theirs).copied().collect());

        for (known_d, pipeline) in [
            (None, Pipeline::Depth(1)),
            (Some(40), Pipeline::Depth(3)),
            (None, Pipeline::Auto),
        ] {
            let mut cfg = ClientConfig {
                pipeline,
                ..config()
            };
            cfg.known_d = known_d;
            let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Full).unwrap();
            let mut peer = server(bob.clone(), 7);
            let (report, crossed) = peer.run(&mut machine).unwrap();
            assert!(report.verified);
            assert_eq!(sorted(report.recovered), truth);
            assert_eq!(sorted(report.pushed), only_ours);
            assert_eq!(report.epoch, Some(7));
            assert_eq!(report.estimated_d.is_some(), known_d.is_none());
            if let Some(d) = known_d {
                // Named, not estimated: no bank went out, none was counted.
                assert_eq!(report.d_param, d);
                assert!(!peer.sent.contains(&2));
                assert_eq!(peer.res.stats.snapshot().estimator_exchanges, 0);
            }
            assert!(!report.delta_fallback && report.delta.is_none());
            assert!(report.round_trips <= report.rounds);
            let mut want = vec![Phase::Handshake, Phase::Rounds, Phase::Transfer];
            if known_d.is_none() {
                want.insert(1, Phase::Estimate);
            }
            assert_eq!(crossed, want);
        }
    }

    #[test]
    fn a_sync_is_a_pure_function_of_its_sets_and_seed() {
        // Same sets, same seed, two runs: every byte either side puts on
        // the wire repeats, the `Done` transfer's element order included
        // (it used to follow a `RandomState` hash set's iteration order).
        let (alice, bob) = two_sided(60);
        let cfg = ClientConfig {
            pipeline: Pipeline::Auto,
            ..config()
        };
        let run = || {
            let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Full).unwrap();
            let mut peer = server(bob.clone(), 7);
            let (mut up, mut down) = (Vec::new(), Vec::new());
            loop {
                if let Some(frame) = machine.poll_send().unwrap() {
                    write_frame(&mut up, &frame, DEFAULT_MAX_FRAME).unwrap();
                    peer.deliver(frame);
                }
                let reply = peer.inbox.pop_front().expect("the server owes a frame");
                write_frame(&mut down, &reply, DEFAULT_MAX_FRAME).unwrap();
                if let Some(report) = machine.on_frame(reply).unwrap().report {
                    assert!(report.verified);
                    assert_eq!(report.pushed.len(), 30);
                    assert!(report.recovered.is_sorted() && report.pushed.is_sorted());
                    return (up, down);
                }
            }
        };
        let (first, second) = (run(), run());
        assert_eq!(first.0, second.0, "client → server bytes");
        assert_eq!(first.1, second.1, "server → client bytes");
    }

    /// The frames of a byte stream, with the wire bytes each took.
    fn frames(mut wire: &[u8]) -> Vec<(Frame, u64)> {
        let mut frames = Vec::new();
        while let Ok(Decoded::Whole(frame, used)) = decode_frame(wire, DEFAULT_MAX_FRAME) {
            frames.push((frame, used as u64));
            wire = &wire[used..];
        }
        frames
    }

    /// One session of a two-sided difference of `d` over 2·10⁴ elements
    /// through `Duet::transcript` under one seed: the report, the wire
    /// bytes both ways, and — over the sketch and report frames — their
    /// wire bytes and the Formula (1) bits of the same messages.
    fn formula_one_session(d: usize, pipeline: Pipeline) -> (SyncReport, u64, u64, u64) {
        let mut pool = keys(20_000, 0xADA_971E);
        pool.sort_unstable();
        let (alice, bob) = (&pool[d / 2..], &pool[..pool.len() - d / 2]);
        let ends = pool[..d / 2].iter().chain(&pool[pool.len() - d / 2..]);
        let truth = sorted(ends.copied().collect());
        let cfg = ClientConfig {
            pipeline,
            ..config()
        };
        let store = Arc::new(MutableStore::new(bob.iter().copied()));
        let (up, down, report) = Duet::over(store).transcript(&cfg, alice, Mode::Full);
        assert!(report.verified, "d = {d}, {pipeline:?}");
        assert_eq!(report.recovered, truth, "d = {d}, {pipeline:?}");
        let (mut m, mut rounds_wire, mut bits) = (0u32, 0u64, 0u64);
        for (frame, used) in frames(&up).into_iter().chain(frames(&down)) {
            bits += match frame {
                Frame::Sketches { m: field, batch } => {
                    m = field;
                    batch.iter().map(|s| s.wire_bits(m)).sum::<u64>()
                }
                Frame::Reports(reports) => reports.iter().map(|r| r.wire_bits(m, 32)).sum(),
                _ => continue,
            };
            rounds_wire += used;
        }
        let wire = (up.len() + down.len()) as u64;
        (report, wire, rounds_wire, bits)
    }

    /// `session`'s sketch and report frames no cheaper than what Formula
    /// (1) charges for the same messages, and within 15 % of it plus what a
    /// trip of `layers` pays outside them: two frames' framing and batch
    /// headers, a section entry a layer.
    fn assert_within_formula_one(case: &str, layers: u64, session: &(SyncReport, u64, u64, u64)) {
        let (report, _, rounds_wire, bits) = session;
        assert!(rounds_wire * 8 >= *bits, "{case}: below Formula (1)");
        let headers = (2 * (FRAME_OVERHEAD + 1 + 8) + 8 * layers) * report.round_trips as u64;
        assert!(
            rounds_wire * 100 <= bits / 8 * 115 + headers * 100,
            "{case}: rounds cost {rounds_wire} B, Formula (1) charges {} B \
             (+ {headers} B of headers)",
            bits / 8
        );
    }

    /// Sessions through [`formula_one_session`]. At d = 10, 100 and 1000,
    /// one layer a trip, and at d = 1000 three, the rounds stay within
    /// [`assert_within_formula_one`]'s envelope. At d = 1000 a fixed
    /// depth 3 verifies in fewer round trips than depth 1; `Auto` verifies
    /// in no more trips than depth 1 and within one of the best fixed depth
    /// in 1..=4, for at most 1.15 × depth 1's wire bytes, speculating under
    /// a quarter of the group-layers depth 4 does.
    #[test]
    fn rounds_stay_within_the_byte_envelope_and_pipelining_cuts_trips() {
        for d in [10, 100] {
            let session = formula_one_session(d, Pipeline::Depth(1));
            assert_within_formula_one(&format!("d = {d}"), 1, &session);
        }
        let run = |pipeline| formula_one_session(1000, pipeline);
        let fixed: Vec<_> = (1..=4).map(|k| run(Pipeline::Depth(k))).collect();
        for layers in [1u64, 3] {
            let case = format!("d = 1000, depth {layers}");
            assert_within_formula_one(&case, layers, &fixed[layers as usize - 1]);
        }
        let trips: Vec<u32> = fixed
            .iter()
            .map(|(report, ..)| report.round_trips)
            .collect();
        assert_eq!(trips[0], fixed[0].0.rounds, "depth 1: a trip a round");
        assert!(trips[2] < trips[0], "depth 3 took {trips:?}[2] trips");
        let (auto, auto_wire, ..) = run(Pipeline::Auto);
        let best = *trips.iter().min().expect("four runs");
        assert!(
            auto.round_trips <= trips[0] && auto.round_trips <= best + 1,
            "auto took {} trips; fixed depths took {trips:?}",
            auto.round_trips
        );
        let serial_wire = fixed[0].1;
        assert!(
            auto_wire * 100 <= serial_wire * 115,
            "auto put {auto_wire} B on the wire, depth 1 {serial_wire} B"
        );
        assert_eq!(fixed[0].0.speculative_layers, 0);
        assert!(auto.speculative_layers > 0 && auto.speculative_unused <= auto.speculative_layers);
        assert!(auto.speculative_layers * 4 < fixed[3].0.speculative_layers);
    }

    /// docs/WIRE.md's worked delta example, through `Duet`: a catch-up of
    /// 50 changes (25 added, 25 removed) to a 10⁵-element store since the
    /// client's epoch 0 is 329 B on the wire, of which the stream — its
    /// `DeltaBatch` frames and the `DeltaDone` — is 243 B, O(|changes|);
    /// under 2/5 of the 923 B the full d = 50 reconciliation of the same
    /// difference costs on the same seed. No round runs and no estimator
    /// is exchanged.
    #[test]
    fn a_delta_catch_up_costs_its_changes_not_a_reconciliation() {
        let changes = 50u64;
        let mut pool = keys(100_025, 0xDE17A);
        pool.sort_unstable();
        let (baseline, added) = pool.split_at(100_000);
        let removed = &baseline[..25];
        let store = MutableStore::new(baseline.iter().copied());
        assert_eq!(store.apply(added, removed), 1);
        let store = Arc::new(store);
        let cfg = ClientConfig {
            seed: 0xDE17A,
            ..ClientConfig::default()
        };

        let mut peer = Duet::over(Arc::clone(&store) as _);
        let (up, down, report) = peer.transcript(&cfg, baseline, Mode::Delta { since: 0 });
        let delta = report.delta.as_ref().expect("served from the changelog");
        assert_eq!((&delta.added[..], &delta.removed[..]), (added, removed));
        let mutated: HashSet<u64> = baseline[25..].iter().chain(added).copied().collect();
        let mut local: HashSet<u64> = baseline.iter().copied().collect();
        delta.apply_to(&mut local);
        assert_eq!(local, mutated, "the catch-up leads to the store's set");
        assert_eq!((report.rounds, report.epoch), (0, Some(1)));
        assert!(report.verified && !report.delta_fallback);
        let session = (up.len() + down.len()) as u64;
        let stream: u64 = frames(&down)
            .into_iter()
            .filter(|(frame, _)| {
                matches!(frame, Frame::DeltaBatch { .. } | Frame::DeltaDone { .. })
            })
            .map(|(_, used)| used)
            .sum();
        assert_eq!((session, stream), (329, 243));
        assert!(stream <= 64 + 8 * changes, "a stream of {stream} B");
        let stats = peer.res.stats.snapshot();
        assert_eq!(
            (
                stats.delta_sessions,
                stats.delta_fallbacks,
                stats.delta_elements
            ),
            (1, 0, changes)
        );
        assert_eq!((stats.rounds, stats.estimator_exchanges), (0, 0));

        // The same difference, reconciled: a fresh store of the same set.
        let fresh = Arc::new(MutableStore::new(mutated));
        let (up, down, full) = Duet::over(fresh).transcript(&cfg, baseline, Mode::Full);
        assert!(full.verified && full.recovered.len() == changes as usize);
        let full_bytes = (up.len() + down.len()) as u64;
        assert_eq!(full_bytes, 923);
        assert!(session * 5 < full_bytes * 2);
    }

    /// A client asking for more layers a trip than the server's cap is
    /// granted the cap in the `Hello` reply and runs at it — never refused
    /// mid-session.
    #[test]
    fn the_pipeline_depth_is_granted_down_to_the_server_cap() {
        let (alice, bob) = two_sided(30);
        let capped = ServerConfig {
            max_pipeline_depth: 2,
            ..ServerConfig::default()
        };
        let mut peer = Duet::new(Arc::new(MutableStore::new(bob)), capped);
        let cfg = ClientConfig {
            known_d: Some(30),
            pipeline: Pipeline::Depth(8),
            ..config()
        };
        let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Full).unwrap();
        let (report, _) = peer.run(&mut machine).unwrap();
        assert!(report.verified);
        assert_eq!(report.rounds, 2 * report.round_trips, "two layers a trip");
    }

    #[test]
    fn a_trimmed_changelog_falls_through_to_the_estimator_exchange() {
        let (alice, bob) = two_sided(20);
        let cfg = config();
        let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Delta { since: 3 }).unwrap();
        // The store's changelog starts at epoch 9: epoch 3 is trimmed away.
        let mut peer = server(bob, 9);
        let (report, crossed) = peer.run(&mut machine).unwrap();
        assert!(report.delta_fallback && report.verified);
        assert_eq!(report.delta, None);
        assert_eq!(report.recovered.len(), 20);
        // Hello, estimator bank, sketches…, Done: the classic session.
        assert_eq!(&peer.sent[..3], &[1, 2, 3]);
        assert_eq!(
            crossed,
            [
                Phase::Handshake,
                Phase::Delta,
                Phase::Estimate,
                Phase::Rounds,
                Phase::Transfer
            ]
        );
    }

    #[test]
    fn a_served_delta_is_the_whole_sync() {
        let cfg = config();
        let mut machine = ClientMachine::new(&cfg, Vec::new(), Mode::Delta { since: 3 }).unwrap();
        let store = Arc::new(MutableStore::with_epoch_origin([5], 3, 1024));
        assert_eq!(store.apply(&[10, 11], &[5]), 4);
        assert_eq!(store.apply(&[5], &[11]), 5);
        let mut peer = Duet::over(store);
        let (report, crossed) = peer.run(&mut machine).unwrap();
        assert_eq!(crossed, [Phase::Handshake, Phase::Delta]);
        assert!(report.verified && !report.delta_fallback);
        assert_eq!(report.epoch, Some(5));
        assert_eq!(
            report.delta,
            Some(DeltaReport {
                from_epoch: 3,
                to_epoch: 5,
                // Each element's last change stands: 5 went out and came
                // back, 11 came in and went out again.
                added: vec![5, 10],
                removed: vec![11],
                batches: 2,
            })
        );
        assert_eq!(peer.sent, [1], "only the Hello was ever sent");
    }

    #[test]
    fn an_unverified_session_still_sends_done_and_reports_it() {
        // Tell the server d = 1 when the sets differ by 200 and cap the
        // client at one round: the cap fires long before verification.
        let (alice, bob) = two_sided(200);
        let cfg = ClientConfig {
            known_d: Some(1),
            round_cap: 1,
            ..config()
        };
        let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Full).unwrap();
        let mut peer = server(bob, 7);
        let (report, crossed) = peer.run(&mut machine).unwrap();
        assert!(!report.verified);
        assert_eq!(report.rounds, 1);
        assert_eq!(peer.sent, [1, 3, 5], "Hello, one Sketches, Done");
        assert_eq!(report.epoch, Some(7), "the ack was read");
        assert_eq!(crossed.last(), Some(&Phase::Transfer));
    }

    fn parked_at(epoch: u64) -> ClientMachine<'static> {
        let mode = Mode::Subscribe { since: 2 };
        let mut machine = ClientMachine::new(&config(), Vec::new(), mode).unwrap();
        let hello = machine.poll_send().unwrap().unwrap();
        machine.on_frame(hello).unwrap();
        let step = machine.on_frame(Frame::DeltaDone { epoch }).unwrap();
        assert_eq!(step.crossed, Some(Phase::Delta));
        let catch_up = step.push.expect("the catch-up is the first item");
        assert_eq!((catch_up.from_epoch, catch_up.to_epoch), (2, epoch));
        assert_eq!(
            machine.poll_send().unwrap(),
            Some(Frame::Subscribe { epoch })
        );
        assert!(machine.is_parked());
        machine
    }

    #[test]
    fn a_parked_subscriber_folds_pushes_and_answers_each_ping_once() {
        let mut machine = parked_at(6);
        assert_eq!(
            machine.poll_send().unwrap(),
            None,
            "nothing owed while idle"
        );

        machine.on_frame(Frame::Ping { nonce: 0xBEEF }).unwrap();
        assert_eq!(
            machine.poll_send().unwrap(),
            Some(Frame::Pong { nonce: 0xBEEF })
        );
        assert_eq!(machine.poll_send().unwrap(), None, "exactly one Pong");

        let batch = Frame::DeltaBatch {
            epoch: 7,
            added: vec![3],
            removed: vec![4],
        };
        assert!(machine.on_frame(batch).unwrap().push.is_none());
        assert!(machine.mid_stream());
        let push = machine
            .on_frame(Frame::DeltaDone { epoch: 7 })
            .unwrap()
            .push;
        let push = push.expect("DeltaDone closes the burst");
        assert_eq!((push.from_epoch, push.to_epoch), (6, 7));
        assert_eq!((push.added, push.removed), (vec![3], vec![4]));
        assert_eq!(machine.epoch, 7);
        assert!(!machine.mid_stream());
    }

    #[test]
    fn a_subscriber_never_falls_back() {
        // Before the park: the epoch cannot be served.
        let mode = Mode::Subscribe { since: 2 };
        let mut machine = ClientMachine::new(&config(), Vec::new(), mode).unwrap();
        let hello = machine.poll_send().unwrap().unwrap();
        machine.on_frame(hello).unwrap();
        match machine.on_frame(Frame::FullResyncRequired { epoch: 9 }) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("full sync"), "{msg}"),
            other => panic!("expected a refusal, got {other:?}"),
        }
        // After it: eviction under backpressure.
        match parked_at(6).on_frame(Frame::FullResyncRequired { epoch: 9 }) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("evicted"), "{msg}"),
            other => panic!("expected an eviction, got {other:?}"),
        }
    }

    #[test]
    fn bad_requests_are_refused_before_anything_is_sent() {
        let refused =
            |cfg: ClientConfig, set: Vec<u64>, mode, needle: &str| match ClientMachine::new(
                &cfg, set, mode,
            ) {
                Err(NetError::Protocol(msg)) => assert!(msg.contains(needle), "{msg}"),
                other => panic!("expected a refusal naming {needle:?}, got {other:?}"),
            };
        refused(config(), vec![1, 0], Mode::Full, "universe");
        refused(config(), vec![1 << 33], Mode::Full, "universe");
        refused(
            ClientConfig {
                known_d: Some(1 << 19),
                ..config()
            },
            vec![1],
            Mode::Full,
            "client cap",
        );
        // A plan of its own: the server would plan apart.
        let mut own_plan = config();
        own_plan.pbs.delta = 8;
        refused(own_plan, vec![1], Mode::Full, "delta");
        let long = "s".repeat(MAX_STORE_NAME + 1);
        for mode in [Mode::Full, Mode::Subscribe { since: 0 }] {
            refused(
                ClientConfig {
                    store: long.clone(),
                    ..config()
                },
                Vec::new(),
                mode,
                "wire limit",
            );
        }
    }

    /// What the explorer's client (`explore.rs`), a few elements in one
    /// frame, never meets: a final transfer that cannot fit one frame is an
    /// actionable error, not a bare size failure from the transport. (A
    /// reply that rewrites the universe, names another seed or an estimate
    /// past the client's cap, and a catch-up that ends before its epoch are
    /// the explorer's letters.)
    #[test]
    fn hostile_replies_are_refused() {
        let alice = keys(500, 0xCA9);
        let transport = TransportConfig {
            max_frame: 64,
            ..TransportConfig::default()
        };
        let cfg = ClientConfig {
            known_d: Some(20),
            transport,
            ..config()
        };
        let mut machine = ClientMachine::new(&cfg, &alice[..], Mode::Full).unwrap();
        let mut peer = server(alice[20..].to_vec(), 7);
        match peer.run(&mut machine) {
            Err(NetError::Protocol(msg)) => assert!(msg.contains("max_frame"), "{msg}"),
            other => panic!("expected the capacity error, got {:?}", other.map(|r| r.0)),
        }
    }

    fn wire_hex(frame: &Frame) -> String {
        let mut wire = Vec::new();
        write_frame(&mut wire, frame, DEFAULT_MAX_FRAME).unwrap();
        wire.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The opening `Hello` of each mode, pinned byte for byte (length prefix
    /// and CRC included). These are the v7 captures with the version field
    /// and the CRC over it re-taken (v7's were v6's less the 24 bytes of
    /// plan after the universe): every other field stays as it was.
    #[test]
    fn the_hello_is_pinned_bit_for_bit() {
        let hello = |cfg: ClientConfig, mode| {
            let mut machine = ClientMachine::new(&cfg, Vec::new(), mode).unwrap();
            wire_hex(&machine.poll_send().unwrap().expect("opens with a Hello"))
        };
        // No store name, no epoch, estimator exchange to follow.
        assert_eq!(
            hello(config(), Mode::Full),
            "1b0000005cf8846e0150425331080020efcdab8967452301\
             0000000000000000000100"
        );
        // Named store, fixed depth, d known, epoch cache.
        let cfg = ClientConfig {
            store: "inventory".into(),
            pipeline: Pipeline::Depth(3),
            known_d: Some(42),
            ..config()
        };
        assert_eq!(
            hello(
                cfg,
                Mode::Delta {
                    since: 0x1122_3344_5566_7788
                }
            ),
            "2c000000035f08050150425331080020efcdab8967452301\
             2a0000000000000009696e76656e746f727903018877665544332211"
        );
        // Adaptive depth asks for the largest representable grant.
        let cfg = ClientConfig {
            seed: 7,
            store: "live".into(),
            pipeline: Pipeline::Auto,
            ..ClientConfig::default()
        };
        assert_eq!(
            hello(cfg, Mode::Full),
            "1f00000023cbe316015042533108002007000000000000000000000000000000\
             046c697665ff00"
        );
        // A subscriber asks for no rounds whatever its config says.
        let cfg = ClientConfig {
            store: "live".into(),
            pipeline: Pipeline::Auto,
            known_d: Some(42),
            ..ClientConfig::default()
        };
        assert_eq!(
            hello(cfg, Mode::Subscribe { since: 9 }),
            "270000003973b2e50150425331080020b979379e000000000000000000000000\
             046c69766501010900000000000000"
        );
    }
}
