//! The server half of the wire protocol, once, with no I/O inside.
//!
//! [`ServerMachine`] is Bob's side of the paper's §2–§3 exchange — route
//! the `Hello` (answering with the seed of the store's view, when it keeps
//! one), serve the changelog or take the store's view of the set,
//! answer the estimator bank, decode sketches into reports, ingest the
//! final transfer, then push to a live subscriber or take the peer's next
//! `Hello` as a fresh session — as a state machine that holds no socket
//! and no clock. The sibling of
//! [`crate::machine::ClientMachine`]: frame in, reply frames out, plus the
//! boundary just crossed ([`Step`]). A frame it cannot accept is an
//! `Err(`[`Refusal`]`)` the driver turns into the `Error` frame.
//!
//! One ordering rule shapes the interface. The negotiated `Hello` and the
//! `Estimate` reply must reach the socket *before* the O(|B|) work they
//! announce (changelog read, store snapshot, group partition), because
//! the client starts its own half on receipt and the two overlap. So
//! [`ServerMachine::on_frame`] hands back the reply first and leaves the
//! machine *owing* that work; the driver flushes, then calls
//! [`ServerMachine::set_up`] while [`ServerMachine::owes`] names a unit.
//! The machine also says where each unit belongs ([`SetUp`]): the changelog
//! read is O(change) and runs where the driver stands, the store's view and
//! the Bob build are O(|B|) and a driver with other sessions to serve runs
//! them elsewhere — the machine is `Send` and reads nothing but the
//! [`Resources`] lent to the call.
//!
//! The registry, the limits and the counters are the server's, lent to
//! every call as [`Resources`]. The clocks around a machine — deadline,
//! keepalive, idle and stall timeouts — and its outcome are
//! `conn.rs`'s `ServerConn`, which the event loop and the simulator drive.

use crate::frame::{delta_batch_frames, delta_chunk_capacity, ErrorCode, EstimatorMsg, Frame};
use crate::server::{ServerConfig, ServerStats};
use crate::store::{ChangeBatch, DeltaAnswer, RegisteredStore, StoreRegistry, ViewAnswer};
use estimator::{Estimator, TowEstimator};
use obs::Counter;
use pbs_core::{BobSession, Pbs, PbsConfig, SetView, ESTIMATOR_SEED_SALT};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// What the sessions of one server share; lent to every machine call.
pub(crate) struct Resources {
    pub registry: Arc<StoreRegistry>,
    pub config: ServerConfig,
    pub stats: Arc<ServerStats>,
    /// Live `Streaming` sessions across all workers, against
    /// `ServerConfig::max_subscribers`. A machine takes its slot on
    /// `Subscribe`; whoever drops a machine that is
    /// [`Waiting::Streaming`] gives it back.
    pub live_subscribers: AtomicUsize,
}

impl Resources {
    /// Count `n` server-wide and, for a routed session, on its store.
    pub(crate) fn bump(
        &self,
        entry: Option<&RegisteredStore>,
        counter: fn(&ServerStats) -> &Counter,
        n: u64,
    ) {
        counter(&self.stats).inc(n);
        if let Some(entry) = entry {
            counter(entry.stats()).inc(n);
        }
    }
}

/// What one call did to the session.
#[derive(Debug, Default)]
pub(crate) struct Step {
    /// The replies, in wire order.
    pub frames: Vec<Frame>,
    /// The boundary this call crossed; the driver stamps it with its clock.
    pub crossed: Option<Crossed>,
    /// The session is over, not failed — drain `frames`, then close.
    pub close: bool,
}

impl Step {
    fn reply(frame: Frame) -> Self {
        Step {
            frames: vec![frame],
            ..Step::default()
        }
    }
}

/// A boundary of the session, with what its trace event reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Crossed {
    /// The `Hello` was routed and answered.
    Handshake { known_d: u64, delta: bool },
    /// The session was served entirely from the changelog.
    DeltaCatchup { batches: u64, epoch: u64 },
    /// The estimate is out and Bob is built, over a view of the store
    /// that was `patched` or `built`, or over his own copy (`none`).
    Estimated { d_param: u64, view: &'static str },
    /// The final transfer landed and is acked.
    Reconciled { rounds: u32, received: u64 },
    /// The session turned into a live subscription from `epoch`.
    Subscribed { epoch: u64 },
    /// A push burst of `burst_bytes` would overrun the subscriber's room.
    Evicted { burst_bytes: u64 },
}

/// Why the machine ended the session as failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Refusal {
    /// Tell the peer why (an `Error` frame), then close.
    Answer { code: ErrorCode, message: String },
    /// Close without a word: the peer itself reported an error.
    Silent,
}

pub(crate) fn refuse(code: ErrorCode, message: impl Into<String>) -> Refusal {
    Refusal::Answer {
        code,
        message: message.into(),
    }
}

/// Which of the driver's clocks governs the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Waiting {
    /// Before the final ack: the session deadline runs, silence fails it.
    Reconciling,
    /// Complete; a `Subscribe` may still turn it live, a `Hello` open the
    /// next session on the connection, silence ends it cleanly.
    Parked,
    /// A live subscription: keepalive instead of a deadline.
    Streaming,
}

/// A unit of deferred work, by what it costs the thread that runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetUp {
    /// The changelog read of a `delta_epoch` session: O(change).
    Light,
    /// The store's view or a private snapshot, the Bob build: O(|B|) unless
    /// the view was current.
    Heavy,
}

/// What the handshake fixed for the rest of the session.
struct Routed {
    entry: Arc<RegisteredStore>,
    cfg: PbsConfig,
    seed: u64,
}

/// The one set of a session: estimator and Bob must see the same one, and
/// its epoch is the ack's baseline.
enum Snapshot {
    /// The store's per-epoch view, shared with every session at that epoch
    /// (`built` for this one, or patched).
    Shared { view: Arc<SetView>, built: bool },
    /// A copy of the session's own: the store declined a view.
    Copied { elements: Vec<u64>, epoch: u64 },
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot::Copied {
            elements: Vec::new(),
            epoch: 0,
        }
    }
}

impl Snapshot {
    /// Take the store's view under the session's seed, or a copy.
    fn of(res: &Resources, routed: &Routed) -> Self {
        let (entry, store) = (Some(&*routed.entry), routed.entry.store());
        match store.view(routed.seed) {
            ViewAnswer::Patched(view) => {
                res.bump(entry, |s| &s.views_patched, 1);
                Snapshot::Shared { view, built: false }
            }
            ViewAnswer::Built(view) => {
                res.bump(entry, |s| &s.views_built, 1);
                Snapshot::Shared { view, built: true }
            }
            ViewAnswer::Declined => {
                res.bump(entry, |s| &s.views_declined, 1);
                let (elements, epoch) = store.snapshot_with_epoch();
                Snapshot::Copied { elements, epoch }
            }
        }
    }

    /// Which path the session took, as the `estimated` trace event says it.
    fn path(&self) -> &'static str {
        match self {
            Snapshot::Shared { built: false, .. } => "patched",
            Snapshot::Shared { built: true, .. } => "built",
            Snapshot::Copied { .. } => "none",
        }
    }

    /// The set's ToW bank: copied off the view in O(ℓ), or hashed from the
    /// private copy in O(|B|) at the count the store keeps with a view.
    fn bank(&self, est_seed: u64) -> TowEstimator {
        match self {
            Snapshot::Shared { view, .. } => view.bank().clone(),
            Snapshot::Copied { elements, .. } => {
                let mut own = TowEstimator::new(estimator::DEFAULT_SKETCH_COUNT, est_seed);
                own.insert_slice(elements);
                own
            }
        }
    }
}

enum Stage {
    /// The negotiated `Hello` is out. Owed: the delta catch-up (`since`),
    /// else the snapshot — and Bob too, when `d` came with the `Hello`.
    OweSetup { since: Option<u64>, known_d: u64 },
    /// The snapshot is taken and its ToW bank read off (or, for a private
    /// copy, hashed — O(|B|), so inside the set-up unit, not when the
    /// peer's bank arrives).
    AwaitBank {
        snapshot: Snapshot,
        bank: TowEstimator,
    },
    /// The `Estimate` is out; Bob is owed.
    OweBob { snapshot: Snapshot, d_param: u64 },
    Rounds {
        bob: Box<BobSession>,
        /// The negotiated sketch shape.
        m: u32,
        t: usize,
        /// The snapshot's epoch: what the ack carries.
        epoch: u64,
        /// Layers served so far, against the round cap.
        rounds: u32,
        /// The last trip ended in a §3.2 split — a group is still open on
        /// both sides: a `Done` now is a client giving up at its round
        /// cap, not one that verified.
        split: bool,
    },
    /// Complete, the connection kept: a `Subscribe` or the next `Hello`.
    Parked,
    /// Terminal: a subscription's close is signalled through
    /// [`Step::close`], so the slot in `live_subscribers` stays attributable.
    Streaming { epoch: u64 },
}

enum State {
    AwaitHello,
    Open(Routed, Stage),
}

/// The server side of one connection (see the [module docs](self)).
pub(crate) struct ServerMachine {
    state: State,
}

impl ServerMachine {
    pub(crate) fn new() -> Self {
        ServerMachine {
            state: State::AwaitHello,
        }
    }

    /// The store the `Hello` routed to, once it has.
    pub(crate) fn entry(&self) -> Option<&Arc<RegisteredStore>> {
        match &self.state {
            State::AwaitHello => None,
            State::Open(routed, _) => Some(&routed.entry),
        }
    }

    pub(crate) fn waiting(&self) -> Waiting {
        match &self.state {
            State::Open(_, Stage::Parked) => Waiting::Parked,
            State::Open(_, Stage::Streaming { .. }) => Waiting::Streaming,
            _ => Waiting::Reconciling,
        }
    }

    /// `frame` opens the peer's next session on this connection: a `Hello`
    /// where the last one parked. (Taken, it is served as a fresh
    /// connection's first frame.)
    pub(crate) fn opens_next(&self, frame: &Frame) -> bool {
        let parked = matches!(&self.state, State::Open(_, Stage::Parked));
        parked && matches!(frame, Frame::Hello(_))
    }

    /// The unit of set-up work the replies just handed back precede, if
    /// any: flush them, then call [`ServerMachine::set_up`].
    pub(crate) fn owes(&self) -> Option<SetUp> {
        match &self.state {
            State::Open(_, Stage::OweSetup { since: Some(_), .. }) => Some(SetUp::Light),
            State::Open(_, Stage::OweSetup { .. } | Stage::OweBob { .. }) => Some(SetUp::Heavy),
            _ => None,
        }
    }

    /// Accept the peer's next frame. After an `Err`, or a [`Step::close`],
    /// the session is over and the machine takes no further frame.
    pub(crate) fn on_frame(&mut self, res: &Resources, frame: Frame) -> Result<Step, Refusal> {
        if matches!(frame, Frame::Error { .. }) {
            return Err(Refusal::Silent);
        }
        if self.opens_next(&frame) {
            self.state = State::AwaitHello;
        }
        let State::Open(routed, stage) = &mut self.state else {
            return self.hello(res, frame);
        };
        let entry = Some(&*routed.entry);
        match (&mut *stage, frame) {
            (
                Stage::AwaitBank { snapshot, bank },
                Frame::EstimatorExchange(EstimatorMsg::TowBank(theirs)),
            ) => {
                let theirs = TowEstimator::from_bytes(&theirs)
                    .ok_or_else(|| refuse(ErrorCode::Decode, "malformed estimator bank"))?;
                if theirs.seed() != bank.seed() || theirs.sketch_count() != bank.sketch_count() {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        "estimator bank does not match the session's seed and sketch count",
                    ));
                }
                let d_hat = theirs.estimate(bank);
                let d_param = estimator::inflate_estimate(d_hat) as u64;
                res.bump(entry, |s| &s.estimator_exchanges, 1);
                *stage = Stage::OweBob {
                    snapshot: std::mem::take(snapshot),
                    d_param,
                };
                let estimate = EstimatorMsg::Estimate { d_param, d_hat };
                Ok(Step::reply(Frame::EstimatorExchange(estimate)))
            }
            (
                Stage::Rounds {
                    bob,
                    m,
                    t,
                    rounds,
                    split,
                    ..
                },
                Frame::Sketches { m: their_m, batch },
            ) => {
                // Pipelining: layers — not frames — are what the round cap
                // meters; each costs a full per-group decode pass.
                let mut layer_rounds: Vec<u32> = batch.iter().map(|s| s.round).collect();
                layer_rounds.sort_unstable();
                layer_rounds.dedup();
                let layers = (layer_rounds.len() as u32).max(1);
                let depth_cap = res.config.max_pipeline_depth;
                if layers > depth_cap {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!("{layers} pipelined layers exceed the server cap {depth_cap}"),
                    ));
                }
                *rounds += layers;
                if *rounds > res.config.round_cap {
                    routed.entry.store().retire_view(routed.seed);
                    return Err(refuse(
                        ErrorCode::RoundLimit,
                        format!("round cap {} exceeded", res.config.round_cap),
                    ));
                }
                // Shape-check before the codec's capacity assertion could
                // fire: the batch must be nonempty (a zero-sketch round is a
                // degenerate shape no worker should ever be handed) and every
                // sketch must match the negotiated (m, t).
                if batch.is_empty() {
                    return Err(refuse(ErrorCode::BadConfig, "empty sketch batch"));
                }
                if their_m != *m || batch.iter().any(|s| s.sketch.capacity() != *t) {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!("sketch shape mismatch: negotiated m={m} t={t}"),
                    ));
                }
                // The layer count above is what the caps charge, but the
                // work is per sketch — a group re-sketch and a decode each.
                // An honest layer holds one sketch per session at most, so
                // hold the frame to that before decoding anything: no more
                // sketches than layers × sessions, no (session, round) twice.
                let sessions = bob.session_count();
                if batch.len() as u64 > layers as u64 * sessions as u64 {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!(
                            "{} sketches exceed {layers} layers of {sessions} sessions",
                            batch.len()
                        ),
                    ));
                }
                let mut pairs: Vec<(u64, u32)> =
                    batch.iter().map(|s| (s.session, s.round)).collect();
                pairs.sort_unstable();
                if let Some(twice) = pairs.windows(2).find(|w| w[0] == w[1]) {
                    let (session, round) = twice[0];
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!("session {session:#x} sketched twice in round {round}"),
                    ));
                }
                let failures = bob.decode_failures();
                let reports = bob.handle_sketches(&batch);
                let failures = (bob.decode_failures() - failures) as u64;
                *split = bob.session_count() > sessions;
                res.bump(entry, |s| &s.decode_failures, failures);
                res.bump(entry, |s| &s.rounds, layers as u64);
                res.bump(entry, |s| &s.round_trips, 1);
                Ok(Step::reply(Frame::Reports(reports)))
            }
            (
                Stage::Rounds {
                    epoch,
                    rounds,
                    split,
                    ..
                },
                Frame::Done(elements),
            ) => {
                // A session that ends short of a verified recovery — here,
                // or refused at the round cap above — may owe that to the
                // seed (a group the hash keeps overfull). Where the seed is
                // the store's, every retry would be answered with it again:
                // have the store let go of it. (A give-up on checksum
                // mismatches alone does not show on this side.)
                if *split {
                    routed.entry.store().retire_view(routed.seed);
                }
                let cap = res.config.max_done_elements;
                if elements.len() as u64 > cap as u64 {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!(
                            "final transfer of {} elements exceeds the cap {cap}",
                            elements.len()
                        ),
                    ));
                }
                // Zero or out-of-universe elements would poison the store.
                // (The handshake admitted `universe_bits` in 8..=64.)
                let bits = routed.cfg.universe_bits;
                if elements
                    .iter()
                    .any(|&e| e == 0 || e > u64::MAX >> (64 - bits))
                {
                    return Err(refuse(
                        ErrorCode::BadConfig,
                        format!("final transfer contains elements outside the {bits}-bit universe"),
                    ));
                }
                // No ack for a transfer the store refused: the client must
                // not believe its `A ∖ B` is held here.
                if !routed.entry.store().apply_missing(&elements) {
                    return Err(refuse(
                        ErrorCode::Internal,
                        "the store refused the final transfer",
                    ));
                }
                let received = elements.len() as u64;
                res.bump(entry, |s| &s.elements_received, received);
                let crossed = Crossed::Reconciled {
                    rounds: *rounds,
                    received,
                };
                // The ack carries the *snapshot* epoch — the client's new
                // delta baseline (changes landing after the snapshot were
                // invisible to this session; the next delta sync replays
                // them idempotently) — and the session may yet subscribe.
                let ack = Frame::DeltaDone { epoch: *epoch };
                *stage = Stage::Parked;
                Ok(Step {
                    crossed: Some(crossed),
                    ..Step::reply(ack)
                })
            }
            (Stage::Parked, Frame::Subscribe { epoch }) => {
                let max = res.config.max_subscribers;
                if res.live_subscribers.load(Ordering::Relaxed) >= max {
                    return Err(refuse(
                        ErrorCode::Internal,
                        format!("subscriber limit {max} reached"),
                    ));
                }
                res.live_subscribers.fetch_add(1, Ordering::Relaxed);
                res.bump(entry, |s| &s.subscriptions, 1);
                *stage = Stage::Streaming { epoch };
                Ok(Step {
                    crossed: Some(Crossed::Subscribed { epoch }),
                    ..Step::default()
                })
            }
            // Liveness credit is the driver's: it saw a frame arrive.
            (Stage::Streaming { .. }, Frame::Pong { .. }) => Ok(Step::default()),
            (Stage::Streaming { .. }, Frame::Ping { nonce }) => {
                Ok(Step::reply(Frame::Pong { nonce }))
            }
            (stage, other) => {
                let ty = other.type_byte();
                let message = match stage {
                    Stage::AwaitBank { .. } => {
                        format!("expected estimator bank, got frame type {ty}")
                    }
                    Stage::Rounds { .. } => {
                        format!("unexpected frame type {ty} during the round loop")
                    }
                    Stage::Parked => {
                        format!("unexpected frame type {ty} while awaiting Subscribe or a Hello")
                    }
                    Stage::Streaming { .. } => {
                        format!("unexpected frame type {ty} on a live subscription")
                    }
                    _ => format!("unexpected frame type {ty}: the session takes none now"),
                };
                Err(refuse(ErrorCode::Protocol, message))
            }
        }
    }

    fn hello(&mut self, res: &Resources, frame: Frame) -> Result<Step, Refusal> {
        let hello = match frame {
            Frame::Hello(hello) => hello,
            other => {
                return Err(refuse(
                    ErrorCode::Protocol,
                    format!("expected Hello, got frame type {}", other.type_byte()),
                ))
            }
        };
        let cfg = hello
            .config()
            .map_err(|why| refuse(ErrorCode::BadConfig, why))?;
        let entry = res.registry.get(&hello.store).ok_or_else(|| {
            refuse(
                ErrorCode::UnknownStore,
                format!("no store named {:?}", hello.store),
            )
        })?;
        // A session sums and sketches elements masked to its universe: one
        // too narrow for an element the store holds would be blind to it.
        let held = entry.store().universe_bits();
        if held > cfg.universe_bits {
            return Err(refuse(
                ErrorCode::BadConfig,
                format!(
                    "the store holds {held}-bit elements, outside the {}-bit universe",
                    cfg.universe_bits
                ),
            ));
        }
        entry.stats().sessions_started.inc(1);
        let crossed = Crossed::Handshake {
            known_d: hello.known_d,
            delta: hello.delta_epoch.is_some(),
        };
        let stage = Stage::OweSetup {
            since: hello.delta_epoch,
            known_d: hello.known_d,
        };
        let mut negotiated = hello;
        negotiated.store = entry.name().to_string();
        // The store's view is laid out under a seed: the session that is
        // to read it — or to build it — runs under that one. Where the
        // store has none cached or due, the client's proposal stands.
        negotiated.seed = entry.store().session_seed(negotiated.seed);
        negotiated.pipeline = negotiated
            .pipeline
            .max(1)
            .min(res.config.max_pipeline_depth.clamp(1, u8::MAX as u32) as u8);
        let routed = Routed {
            entry,
            cfg,
            seed: negotiated.seed,
        };
        self.state = State::Open(routed, stage);
        Ok(Step {
            crossed: Some(crossed),
            ..Step::reply(Frame::Hello(negotiated))
        })
    }

    /// The deferred work, one unit a call: the delta catch-up (or its
    /// refusal), the store's view or a snapshot, the Bob build. The driver
    /// calls it, after flushing, for as long as [`ServerMachine::owes`]
    /// names one.
    pub(crate) fn set_up(&mut self, res: &Resources) -> Result<Step, Refusal> {
        let State::Open(routed, stage) = &mut self.state else {
            return Ok(Step::default());
        };
        let (entry, store) = (Some(&*routed.entry), routed.entry.store());
        let mut step = Step::default();
        let since = match stage {
            Stage::OweSetup { since, .. } => since.take(),
            _ => None,
        };
        if let Some(since) = since {
            let current = match store.delta_since(since) {
                DeltaAnswer::Changes { batches, current } => {
                    // Served entirely from the changelog: the session is
                    // complete and may turn into a live subscription.
                    let (frames, elements) =
                        delta_stream(&batches, current, res.config.transport.max_frame);
                    res.bump(entry, |s| &s.delta_sessions, 1);
                    res.bump(entry, |s| &s.delta_elements, elements);
                    res.bump(entry, |s| &s.delta_batches, frames.len() as u64 - 1);
                    *stage = Stage::Parked;
                    step.frames = frames;
                    step.crossed = Some(Crossed::DeltaCatchup {
                        batches: batches.len() as u64,
                        epoch: current,
                    });
                    return Ok(step);
                }
                DeltaAnswer::Trimmed { current } => current,
            };
            // The classic session follows; its snapshot is still owed.
            res.bump(entry, |s| &s.delta_fallbacks, 1);
            step.frames
                .push(Frame::FullResyncRequired { epoch: current });
            return Ok(step);
        }
        match stage {
            Stage::OweSetup { known_d, .. } => {
                let d = *known_d;
                let snapshot = Snapshot::of(res, routed);
                *stage = match d {
                    0 => {
                        let bank = snapshot.bank(routed.estimator_seed());
                        Stage::AwaitBank { snapshot, bank }
                    }
                    _ => routed.rounds(res.config.max_d, snapshot, d)?,
                };
            }
            Stage::OweBob { snapshot, d_param } => {
                let (d_param, view) = (*d_param, snapshot.path());
                *stage = routed.rounds(res.config.max_d, std::mem::take(snapshot), d_param)?;
                step.crossed = Some(Crossed::Estimated { d_param, view });
            }
            _ => {}
        }
        Ok(step)
    }

    /// Everything the store changed past this subscriber's epoch, as one
    /// `DeltaBatch*`/`DeltaDone` burst — or, when the burst exceeds `room`
    /// (what the driver will still buffer toward this peer), the eviction:
    /// a slow consumer is cut loose with `FullResyncRequired`, never
    /// buffered without bound.
    pub(crate) fn push(&mut self, res: &Resources, room: u64) -> Result<Step, Refusal> {
        let State::Open(routed, Stage::Streaming { epoch }) = &mut self.state else {
            return Ok(Step::default());
        };
        let entry = Some(&*routed.entry);
        let evict = |current, crossed| Step {
            frames: vec![Frame::FullResyncRequired { epoch: current }],
            crossed,
            close: true,
        };
        match routed.entry.store().delta_since(*epoch) {
            DeltaAnswer::Changes { batches, current } => {
                *epoch = current;
                if batches.is_empty() {
                    return Ok(Step::default());
                }
                let (frames, elements) =
                    delta_stream(&batches, current, res.config.transport.max_frame);
                let burst_bytes: u64 = frames.iter().map(Frame::wire_len).sum();
                if burst_bytes > room {
                    res.bump(entry, |s| &s.subscribers_evicted, 1);
                    return Ok(evict(current, Some(Crossed::Evicted { burst_bytes })));
                }
                res.bump(entry, |s| &s.push_batches, frames.len() as u64 - 1);
                res.bump(entry, |s| &s.push_elements, elements);
                Ok(Step {
                    frames,
                    ..Step::default()
                })
            }
            // The changelog no longer covers this subscriber (trimmed
            // under it while it idled, or the epoch space exhausted).
            DeltaAnswer::Trimmed { current } => Ok(evict(current, None)),
        }
    }
}

impl Routed {
    /// The seed both sides' ToW banks are hashed under.
    fn estimator_seed(&self) -> u64 {
        xhash::derive_seed(self.seed, ESTIMATOR_SEED_SALT)
    }

    /// Enter the round loop for difference `d ≤ max_d` over `snapshot`,
    /// which is dropped once Bob is built from it.
    fn rounds(&self, max_d: u64, snapshot: Snapshot, d: u64) -> Result<Stage, Refusal> {
        if d > max_d {
            return Err(refuse(
                ErrorCode::BadConfig,
                format!("d = {d} exceeds the server cap {max_d}"),
            ));
        }
        let params = Pbs::new(self.cfg).plan(d as usize);
        let (bob, epoch) = match snapshot {
            Snapshot::Shared { view, .. } => {
                let epoch = view.epoch();
                (BobSession::from_view(self.cfg, params, view), epoch)
            }
            Snapshot::Copied { elements, epoch } => {
                let bob = BobSession::new(self.cfg, params, &elements, self.seed);
                (bob, epoch)
            }
        };
        Ok(Stage::Rounds {
            bob: Box::new(bob),
            m: params.m,
            t: params.t,
            epoch,
            rounds: 0,
            split: false,
        })
    }
}

/// One delta stream — every batch chunked under the frame cap, then the
/// `DeltaDone` — and the elements (adds plus removes) it carries.
fn delta_stream(batches: &[ChangeBatch], current: u64, max_frame: u32) -> (Vec<Frame>, u64) {
    let capacity = delta_chunk_capacity(max_frame);
    let mut frames = Vec::new();
    let mut elements = 0u64;
    for batch in batches {
        elements += (batch.added.len() + batch.removed.len()) as u64;
        frames.extend(delta_batch_frames(
            batch.epoch,
            &batch.added,
            &batch.removed,
            capacity,
        ));
    }
    frames.push(Frame::DeltaDone { epoch: current });
    (frames, elements)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientConfig, Pipeline};
    use crate::frame::Hello;
    use crate::machine::{ClientMachine, Mode};
    use crate::sim::{one_of_each, Duet};
    use crate::store::{MutableStore, SetStore};
    use crate::NetError;
    use pbs_core::AliceSession;

    const SEED: u64 = 0x5EED;

    fn hello(known_d: u64) -> Hello {
        Hello::from_config(&PbsConfig::default(), SEED, known_d)
    }

    fn elements(range: std::ops::Range<u64>) -> Vec<u64> {
        range.map(|i| i * 0x9E37 + 1).collect()
    }

    fn mutable(range: std::ops::Range<u64>) -> Arc<MutableStore> {
        Arc::new(MutableStore::new(elements(range)))
    }

    /// A `Sketches` frame of `layers` pipelined rounds, shaped for `d`.
    fn sketches(set: &[u64], d: u64, layers: u32) -> Frame {
        let cfg = PbsConfig::default();
        let params = Pbs::new(cfg).plan(d as usize);
        let mut alice = AliceSession::new(cfg, params, set, SEED);
        Frame::Sketches {
            m: params.m,
            batch: alice.start_rounds(layers),
        }
    }

    /// The code of the `Error` frame the session ended with, after
    /// `preface` ordinary replies.
    fn refused_with(duet: &mut Duet, preface: usize) -> ErrorCode {
        assert_eq!(duet.closed(), Some(false), "the session must have failed");
        assert_eq!(duet.inbox.len(), preface + 1, "{:?}", duet.inbox);
        match duet.inbox.pop_back() {
            Some(Frame::Error { code, .. }) => code,
            other => panic!("expected an Error frame, got {other:?}"),
        }
    }

    /// A server scripted into each stage that awaits a frame, with the
    /// frames accepted there (as indices into `one_of_each`).
    fn every_awaiting_stage() -> Vec<(&'static str, Duet, Vec<usize>)> {
        let await_hello = Duet::over(mutable(0..50));

        let mut await_bank = Duet::over(mutable(0..50));
        await_bank.deliver(Frame::Hello(hello(0)));

        let mut rounds = Duet::over(mutable(0..50));
        rounds.deliver(Frame::Hello(hello(5)));

        let mut parked = Duet::over(mutable(0..50));
        parked.deliver(Frame::Hello(hello(0).with_delta_epoch(0)));
        assert_eq!(parked.server().waiting(), Waiting::Parked);

        let mut streaming = Duet::over(mutable(0..50));
        streaming.deliver(Frame::Hello(hello(0).with_delta_epoch(0)));
        streaming.deliver(Frame::Subscribe { epoch: 0 });
        assert_eq!(streaming.server().waiting(), Waiting::Streaming);

        vec![
            ("expected Hello", await_hello, vec![0]),
            ("expected estimator bank", await_bank, vec![1]),
            ("during the round loop", rounds, vec![3, 5]),
            ("while awaiting Subscribe", parked, vec![0, 9]),
            ("on a live subscription", streaming, vec![10, 11]),
        ]
    }

    #[test]
    fn every_stage_refuses_every_wrong_frame_type_by_name() {
        for (name, mut duet, accepted) in every_awaiting_stage() {
            let waiting = duet.server().waiting();
            for (i, frame) in one_of_each().into_iter().enumerate() {
                if accepted.contains(&i) {
                    continue;
                }
                let ty = frame.type_byte();
                match duet.bare(frame) {
                    Err(Refusal::Answer { code, message }) => {
                        assert_eq!(code, ErrorCode::Protocol, "{name}: {message}");
                        assert!(message.contains(name), "{name}: {message}");
                        assert!(message.contains(&format!("type {ty}")), "{name}: {message}");
                    }
                    other => panic!("{name} accepted frame type {ty}: {other:?}"),
                }
                // A refusal changes nothing: a subscriber's slot, for one,
                // is still the machine's to hand back.
                assert_eq!(duet.server().waiting(), waiting);
            }
            // A peer Error frame ends the session in any stage, reply-less.
            let error = Frame::Error {
                code: ErrorCode::Internal,
                message: "boom".into(),
            };
            assert_eq!(duet.bare(error).unwrap_err(), Refusal::Silent);
        }
    }

    /// Hand-built hostile input, one shape per check, met with its
    /// `ErrorCode` after the replies that precede it. (Seeded hostile
    /// bytes, in both directions, are the simulator's.)
    #[test]
    fn hostile_input_is_refused_with_its_error_code() {
        let set = elements(0..200);
        let limits = |config: ServerConfig| Duet::new(mutable(5..205), config);
        let in_rounds = |config: ServerConfig| {
            let mut duet = limits(config);
            duet.deliver(Frame::Hello(hello(10)));
            assert!(matches!(duet.inbox.pop_front(), Some(Frame::Hello(_))));
            duet
        };
        let defaults = ServerConfig::default;

        // Round cap, metered in layers.
        let mut duet = in_rounds(ServerConfig {
            round_cap: 1,
            ..defaults()
        });
        duet.deliver(sketches(&set, 10, 2));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::RoundLimit);

        // More layers in one frame than the server grants.
        let mut duet = in_rounds(defaults());
        duet.deliver(sketches(&set, 10, defaults().max_pipeline_depth + 1));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);

        // An empty batch; a batch shaped for another (m, t).
        let Frame::Sketches { m, batch } = sketches(&set, 10, 1) else {
            unreachable!()
        };
        let mut duet = in_rounds(defaults());
        duet.deliver(Frame::Sketches { m, batch: vec![] });
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let mut duet = in_rounds(defaults());
        duet.deliver(Frame::Sketches { m: m + 1, batch });
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let mut duet = in_rounds(defaults());
        duet.deliver(sketches(&set, 4_000, 1));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);

        // One (session, round) sketched twice — a "one-layer" frame that
        // would buy a second decode of the group; more sketches than the
        // layers it names have sessions, by cycling rounds over one id.
        // Both refused before anything is decoded.
        let Frame::Sketches { m, batch } = sketches(&set, 10, 2) else {
            unreachable!()
        };
        let per_layer = batch.len() / 2;
        let mut duet = in_rounds(defaults());
        let mut twice = batch[..per_layer].to_vec();
        twice.push(batch[0].clone());
        duet.deliver(Frame::Sketches { m, batch: twice });
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let mut duet = in_rounds(defaults());
        let sessions = per_layer as u64;
        let padded = (0..2 * sessions + 1).map(|i| pbs_core::messages::GroupSketch {
            session: 1 + i / 2,
            round: 1 + (i % 2) as u32,
            ..batch[0].clone()
        });
        let mut padded: Vec<_> = padded.collect();
        padded[2 * per_layer].session = u64::MAX; // an id Bob does not hold
        duet.deliver(Frame::Sketches { m, batch: padded });
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let stats = duet.res.stats.snapshot();
        assert_eq!((stats.rounds, stats.round_trips), (0, 0), "nothing ran");
        // The honest two-layer frame they were cut from is served.
        let mut duet = in_rounds(defaults());
        duet.deliver(Frame::Sketches { m, batch });
        assert!(matches!(duet.inbox.pop_front(), Some(Frame::Reports(_))));
        assert_eq!(duet.closed(), None);

        // A final transfer over the cap; one that would poison the store.
        let mut duet = in_rounds(ServerConfig {
            max_done_elements: 2,
            ..defaults()
        });
        duet.deliver(Frame::Done(vec![1, 2, 3]));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let mut duet = in_rounds(defaults());
        duet.deliver(Frame::Done(vec![0x7777, 0, 1u64 << 40]));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let held = duet.res.registry.get("").unwrap().store().snapshot();
        assert!(!held.contains(&0x7777), "the whole batch is refused");
        assert_eq!(duet.res.stats.snapshot().elements_received, 0);

        // An estimator bank that does not decode, or is not the one the
        // handshake parameterized.
        for (bank, code) in [
            (vec![1, 2, 3], ErrorCode::Decode),
            (
                TowEstimator::new(128, 0xBAD).to_bytes(),
                ErrorCode::BadConfig,
            ),
            (
                TowEstimator::new(64, xhash::derive_seed(SEED, ESTIMATOR_SEED_SALT)).to_bytes(),
                ErrorCode::BadConfig,
            ),
        ] {
            let mut duet = limits(defaults());
            duet.deliver(Frame::Hello(hello(0)));
            duet.deliver(Frame::EstimatorExchange(EstimatorMsg::TowBank(bank)));
            assert_eq!(refused_with(&mut duet, 1), code);
        }

        // d above the server's cap: named in the Hello, or estimated. The
        // reply each refusal follows is on the wire first.
        let capped = ServerConfig {
            max_d: 8,
            ..defaults()
        };
        let mut duet = limits(capped);
        duet.deliver(Frame::Hello(hello(9)));
        assert_eq!(refused_with(&mut duet, 1), ErrorCode::BadConfig);
        assert!(matches!(duet.inbox[0], Frame::Hello(_)));
        let mut duet = limits(capped);
        let mut client = ClientMachine::new(
            &ClientConfig {
                seed: SEED,
                ..ClientConfig::default()
            },
            &set[..100],
            Mode::Full,
        )
        .unwrap();
        match duet.run(&mut client) {
            Err(NetError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadConfig),
            other => panic!("expected the estimate to be refused, got {other:?}"),
        }
        assert_eq!(
            duet.sent,
            [1, 2, 3],
            "the Estimate came first: sketches crossed the refusal"
        );

        // Handshake values out of range; a store nobody registered.
        let mut duet = limits(defaults());
        let mut bad = hello(1);
        bad.universe_bits = 7;
        duet.deliver(Frame::Hello(bad));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::BadConfig);
        let mut duet = limits(defaults());
        duet.deliver(Frame::Hello(hello(1).with_store("nope")));
        assert_eq!(refused_with(&mut duet, 0), ErrorCode::UnknownStore);
        let stats = duet.res.stats.snapshot();
        assert_eq!(stats.sessions_started, 0, "accept is the driver's to count");

        // One subscriber too many.
        let mut duet = Duet::new(
            mutable(0..50),
            ServerConfig {
                max_subscribers: 0,
                ..defaults()
            },
        );
        duet.deliver(Frame::Hello(hello(0).with_delta_epoch(0)));
        duet.deliver(Frame::Subscribe { epoch: 0 });
        assert_eq!(refused_with(&mut duet, 2), ErrorCode::Internal);
        assert_eq!(duet.res.live_subscribers.load(Ordering::Relaxed), 0);
    }

    /// The one range `Hello::config` holds a field to — the universe — at
    /// both edges: refused `BadConfig` by the field's name before anything
    /// is planned, and the refusal and the next honest handshake take
    /// under 100 ms together.
    #[test]
    fn every_hello_field_out_of_range_is_refused_by_name() {
        type Rewrite = fn(&mut Hello);
        let rows: [(&str, Rewrite); 2] = [
            ("universe_bits", |h| h.universe_bits = 7),
            ("universe_bits", |h| h.universe_bits = 65),
        ];
        let store = mutable(0..50);
        // The planner's table is built once, before the clock starts.
        Duet::over(store.clone()).deliver(Frame::Hello(hello(1)));
        for (field, rewrite) in rows {
            let started = std::time::Instant::now();
            let mut bad = hello(1);
            rewrite(&mut bad);
            let mut duet = Duet::over(store.clone());
            duet.deliver(Frame::Hello(bad));
            match duet.inbox.pop_back() {
                Some(Frame::Error { code, message }) => {
                    assert_eq!(code, ErrorCode::BadConfig, "{field}: {message}");
                    assert!(message.starts_with(field), "{field}: {message}");
                }
                other => panic!("{field}: expected a refusal, got {other:?}"),
            }
            let mut next = Duet::over(store.clone());
            next.deliver(Frame::Hello(hello(1)));
            assert!(matches!(next.inbox.pop_front(), Some(Frame::Hello(_))));
            let took = started.elapsed();
            assert!(
                took < std::time::Duration::from_millis(100),
                "{field}: the refusal and the next handshake took {took:?}"
            );
        }
    }

    /// The views a server's sessions were served from: (patched, built,
    /// declined).
    fn view_paths(duet: &Duet) -> (u64, u64, u64) {
        let stats = duet.res.stats.snapshot();
        (stats.views_patched, stats.views_built, stats.views_declined)
    }

    /// Serve `store` one full session of a client that holds exactly its
    /// set (so nothing is transferred and the set stays as it is).
    fn serve_its_own_set(store: &Arc<MutableStore>, config: &ClientConfig) -> (u64, u64, u64) {
        let mut duet = Duet::over(Arc::clone(store) as Arc<dyn SetStore>);
        let (_, _, report) = duet.transcript(config, &store.snapshot(), Mode::Full);
        assert!(report.verified && report.recovered.is_empty());
        view_paths(&duet)
    }

    /// The view a session parked before its estimator bank holds.
    fn parked_view(duet: &Duet) -> Option<Arc<SetView>> {
        match &duet.server().state {
            State::Open(
                _,
                Stage::AwaitBank {
                    snapshot: Snapshot::Shared { view, .. },
                    ..
                },
            ) => Some(Arc::clone(view)),
            _ => None,
        }
    }

    /// The same (sets, seed), served three ways — from a private snapshot,
    /// from a view built for the session, from a cached view patched with
    /// the changelog — is the same session, byte for byte in both
    /// directions: through the estimator or with `d` named, one layer a
    /// trip or an adaptive few.
    #[test]
    fn a_view_and_a_private_snapshot_serve_byte_identical_sessions() {
        let client_set = elements(0..3000);
        for (pipeline, known_d) in [
            (Pipeline::Depth(1), None),
            (Pipeline::Auto, None),
            (Pipeline::Depth(2), Some(120)),
        ] {
            let case = format!("{pipeline:?}, known_d {known_d:?}");
            let mut config = ClientConfig {
                seed: SEED,
                pipeline,
                ..ClientConfig::default()
            };
            config.known_d = known_d;

            // Patched: the store's second full session leaves a view
            // cached, the set moves on — among the changes an element of
            // the view out, back in and out again, one out and back, a new
            // one in, out and in again — and the third brings the view
            // forward.
            let kept = mutable(40..3040);
            assert_eq!(serve_its_own_set(&kept, &config), (0, 0, 1), "{case}");
            assert_eq!(serve_its_own_set(&kept, &config), (0, 1, 0), "{case}");
            kept.apply(&elements(5000..5040), &elements(100..130));
            kept.apply(&elements(100..110), &elements(5000..5005));
            kept.apply(&elements(5000..5001), &elements(100..101));
            kept.apply(&elements(5001..5002), &elements(5000..5001));
            kept.apply(&elements(5000..5001), &[]);
            let (held, epoch) = kept.snapshot_with_epoch();
            let mut duet = Duet::over(Arc::clone(&kept) as Arc<dyn SetStore>);
            let patched = duet.transcript(&config, &client_set, Mode::Full);
            assert_eq!(view_paths(&duet), (1, 0, 0), "{case}");

            // Built: a store holding that set at that epoch, asked once
            // before.
            let fresh = || Arc::new(MutableStore::with_epoch_origin(held.clone(), epoch, 1024));
            let store = fresh();
            assert_eq!(serve_its_own_set(&store, &config), (0, 0, 1), "{case}");
            let mut duet = Duet::over(store);
            let built = duet.transcript(&config, &client_set, Mode::Full);
            assert_eq!(view_paths(&duet), (0, 1, 0), "{case}");

            for (path, (up, down, report)) in [("patched", &patched), ("built", &built)] {
                assert!(report.verified && report.epoch == Some(epoch), "{case}");
                assert_ne!(report.seed, SEED, "{case}: the view's seed is the store's");
                assert_eq!(report.recovered.len(), 80 + 21 + 37, "{case}");
                // Declined: such a store never asked before, by a client
                // that proposes the seed the view's session ran under.
                let mut proposing = config.clone();
                proposing.seed = report.seed;
                let mut duet = Duet::over(fresh());
                let (their_up, their_down, _) =
                    duet.transcript(&proposing, &client_set, Mode::Full);
                assert_eq!(view_paths(&duet), (0, 0, 1), "{case}");
                // (The client's `Hello` names its proposal: the one frame
                // that differs, by those eight bytes.)
                let hello = Frame::Hello(Hello::from_config(&config.pbs, 0, 0)).wire_len() as usize;
                assert_ne!(up[..hello], their_up[..hello], "{case}");
                assert_eq!(
                    up[hello..],
                    their_up[hello..],
                    "{case}: client → server, {path}"
                );
                assert_eq!(down, &their_down, "{case}: server → client, {path}");
            }
        }
    }

    /// What a cached view does to the sessions that did not make it: a
    /// second client proposing another seed is answered with the view's
    /// and runs under it, estimating against the bank kept with the one
    /// shared view.
    #[test]
    fn a_cached_view_names_the_seed_to_every_session() {
        let store = mutable(40..3040);
        let other = ClientConfig {
            seed: SEED ^ 0xFFFF,
            ..ClientConfig::default()
        };
        assert_eq!(serve_its_own_set(&store, &other), (0, 0, 1));
        assert_eq!(serve_its_own_set(&store, &other), (0, 1, 0));
        let seed = store.session_seed(SEED);
        assert!(seed != SEED && seed != other.seed, "the store's own");

        let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
        let mut client = ClientMachine::new(&other, elements(0..3000), Mode::Full).unwrap();
        duet.deliver(client.poll_send().unwrap().expect("the Hello"));
        let Some(Frame::Hello(reply)) = duet.inbox.pop_front() else {
            panic!("the Hello is answered")
        };
        assert_eq!(reply.seed, seed);
        client.on_frame(Frame::Hello(reply)).unwrap();
        let State::Open(
            _,
            Stage::AwaitBank {
                snapshot: Snapshot::Shared { view, .. },
                bank,
            },
        ) = &duet.server().state
        else {
            panic!("parked on the shared view")
        };
        assert_eq!(bank, view.bank());
        let (report, _) = duet.run(&mut client).unwrap();
        assert!(report.verified && report.seed == seed);
        assert_eq!(report.recovered.len(), 80);
        assert!(report.estimated_d.is_some_and(|d| d > 20.0 && d < 320.0));
        assert_eq!(view_paths(&duet), (1, 0, 0));
        // (The transfer moved the store on; the view the session read is
        // still the one the next session patches from.)
        assert_eq!(store.session_seed(SEED), seed);
    }

    /// The way off a seed that fails: a session on the store's view that
    /// gives up at its round cap with a group still splitting, or that the
    /// server refuses at its own, makes the store let go of the view — the
    /// retry, proposing what it proposed before, is answered with another
    /// seed and builds under it. A session that verified leaves it be.
    #[test]
    fn a_session_that_gives_up_retires_the_views_seed() {
        let config = ClientConfig {
            seed: SEED,
            ..ClientConfig::default()
        };
        // d = 1 named for a difference of 80, one round allowed: the one
        // group fails to decode and the cap fires, on either side.
        let refused = ClientConfig {
            known_d: Some(1),
            ..config.clone()
        };
        let gives_up = ClientConfig {
            round_cap: 1,
            ..refused.clone()
        };
        let strict = ServerConfig {
            round_cap: 1,
            ..ServerConfig::default()
        };
        for (case, client, server) in [
            ("the client's cap", gives_up, ServerConfig::default()),
            ("the server's cap", refused, strict),
        ] {
            let store = mutable(40..3040);
            serve_its_own_set(&store, &config);
            serve_its_own_set(&store, &config);
            let seed = store.session_seed(SEED);
            assert_eq!(serve_its_own_set(&store, &config), (1, 0, 0), "{case}");
            assert_eq!(store.session_seed(SEED), seed, "{case}: verified, kept");

            let mut duet = Duet::new(Arc::clone(&store) as Arc<dyn SetStore>, server);
            let mut machine = ClientMachine::new(&client, elements(0..3000), Mode::Full).unwrap();
            match duet.run(&mut machine) {
                Ok((report, _)) => assert!(!report.verified && report.seed == seed, "{case}"),
                Err(e) => assert!(matches!(e, NetError::Remote { .. }), "{case}: {e}"),
            }
            assert_eq!(view_paths(&duet), (1, 0, 0), "{case}");
            let fresh = store.session_seed(SEED);
            assert!(fresh != seed && fresh != SEED, "{case}");
            assert_eq!(serve_its_own_set(&store, &config), (0, 1, 0), "{case}");
        }
    }

    /// The server takes the universe from the `Hello`: a session over a
    /// 64-bit universe, with a difference above 2³² both ways, recovers it
    /// exactly and lands the client's half in the store.
    #[test]
    fn a_64_bit_universe_session_verifies() {
        let wide = |range: std::ops::Range<u64>| -> Vec<u64> {
            range
                .map(|i| (i + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .collect()
        };
        let mut config = ClientConfig {
            seed: SEED,
            ..ClientConfig::default()
        };
        config.pbs.universe_bits = 64;
        let store = Arc::new(MutableStore::new(wide(0..2_000)));
        let client_set = wide(40..2_040);
        let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
        let (_, _, report) = duet.transcript(&config, &client_set, Mode::Full);
        assert!(report.verified);
        let mut recovered = report.recovered;
        recovered.sort_unstable();
        let mut expected = [wide(0..40), wide(2_000..2_040)].concat();
        expected.sort_unstable();
        assert_eq!(recovered, expected);
        assert!(report.pushed.iter().all(|&e| e > u32::MAX as u64));
        let mut held = store.snapshot();
        held.sort_unstable();
        let mut union = wide(0..2_040);
        union.sort_unstable();
        assert_eq!(held, union, "the final transfer landed");
    }

    #[test]
    fn sessions_parked_at_one_epoch_hold_one_view() {
        let store = mutable(0..500);
        let config = ClientConfig {
            seed: SEED,
            ..ClientConfig::default()
        };
        serve_its_own_set(&store, &config);
        serve_its_own_set(&store, &config);
        store.apply(&elements(900..910), &elements(0..10));
        let parked: Vec<Duet> = (0..64)
            .map(|i| {
                let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
                duet.deliver(Frame::Hello(Hello::from_config(
                    &PbsConfig::default(),
                    SEED + i,
                    0,
                )));
                duet
            })
            .collect();
        let first = parked_view(&parked[0]).expect("parked on a view");
        assert_eq!((first.epoch(), first.len()), (store.epoch(), 500));
        for duet in &parked {
            let view = parked_view(duet).expect("parked on a view");
            assert!(Arc::ptr_eq(&view, &first), "one allocation for all 64");
            assert_eq!(view_paths(duet), (1, 0, 0));
        }
        // 64 sessions, the store's cache, this test.
        assert_eq!(Arc::strong_count(&first), 64 + 1 + 1);
    }

    #[test]
    fn a_subscriber_is_pushed_every_change_until_it_falls_behind() {
        let store = mutable(0..50);
        store.apply(&[7_000_001], &[]);
        let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
        let config = ClientConfig {
            seed: SEED,
            ..ClientConfig::default()
        };
        let mode = Mode::Subscribe { since: 0 };
        let mut client = ClientMachine::new(&config, Vec::new(), mode).unwrap();

        // Handshake, catch-up (the changelog since epoch 0), Subscribe.
        let mut pushes = Vec::new();
        while !client.is_parked() {
            if let Some(frame) = client.poll_send().unwrap() {
                duet.deliver(frame);
            }
            while let Some(reply) = duet.inbox.pop_front() {
                pushes.extend(client.on_frame(reply).unwrap().push);
            }
        }
        assert_eq!(duet.sent, [1, 10], "Hello, Subscribe");
        assert_eq!(pushes.len(), 1);
        assert_eq!(
            (pushes[0].to_epoch, &pushes[0].added[..]),
            (1, &[7_000_001][..])
        );
        assert_eq!(
            duet.crossed,
            [
                Crossed::Handshake {
                    known_d: 0,
                    delta: true
                },
                Crossed::DeltaCatchup {
                    batches: 1,
                    epoch: 1
                },
                Crossed::Subscribed { epoch: 1 },
            ]
        );
        assert_eq!(duet.res.live_subscribers.load(Ordering::Relaxed), 1);

        // Nothing changed: nothing to say.
        duet.push(0);
        assert!(duet.inbox.is_empty());

        // Two mutations coalesce into one burst the client folds.
        store.apply(&[7_000_002], &[7_000_001]);
        store.apply(&[7_000_003], &[]);
        duet.push(0);
        assert_eq!(
            duet.inbox.len(),
            3,
            "two DeltaBatch frames and the DeltaDone"
        );
        let mut burst = None;
        while let Some(reply) = duet.inbox.pop_front() {
            burst = burst.or(client.on_frame(reply).unwrap().push);
        }
        let burst = burst.expect("the DeltaDone closes the burst");
        assert_eq!((burst.from_epoch, burst.to_epoch), (1, 3));
        assert_eq!(burst.added, [7_000_002, 7_000_003]);
        assert_eq!(burst.removed, [7_000_001]);
        let stats = duet.res.stats.snapshot();
        assert_eq!((stats.push_batches, stats.push_elements), (2, 3));
        assert_eq!((stats.delta_batches, stats.delta_elements), (1, 1));

        // A keepalive probe from the peer is answered in kind.
        duet.deliver(Frame::Ping { nonce: 9 });
        assert_eq!(duet.inbox.pop_front(), Some(Frame::Pong { nonce: 9 }));

        // A burst the subscriber has no room for evicts it — cleanly: it
        // reached Streaming, and is told to come back with a full sync.
        store.apply(&[7_000_004], &[]);
        duet.push((1 << 20) - 8);
        assert_eq!(
            duet.inbox.pop_front(),
            Some(Frame::FullResyncRequired { epoch: 4 })
        );
        assert_eq!(duet.closed(), Some(true));
        assert!(matches!(duet.crossed.last(), Some(Crossed::Evicted { .. })));
        assert_eq!(duet.res.stats.snapshot().subscribers_evicted, 1);
        assert_eq!(
            duet.server().waiting(),
            Waiting::Streaming,
            "the slot is still attributable"
        );
    }

    /// A 64-bit session's final transfer lands an element past 2³² in the
    /// store. A 32-bit session sums and sketches elements masked to 32 bits,
    /// so it would be blind to that one: served, it reports `verified` with
    /// the element missing from `A △ B`. It is refused at its `Hello`
    /// instead, whatever its mode, and so it is by a store built again from
    /// that set; a session of the store's own width runs.
    #[test]
    fn a_universe_too_narrow_for_the_store_is_refused() {
        let store = mutable(0..200);
        let wide = (1u64 << 40) | 5;
        let config = |bits| ClientConfig {
            seed: SEED,
            pbs: ClientConfig::default().pbs.with_universe_bits(bits),
            ..ClientConfig::default()
        };
        let mut set = elements(0..200);
        set.push(wide);
        let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
        let (_, _, report) = duet.transcript(&config(64), &set, Mode::Full);
        assert!(report.verified && report.pushed == [wide]);
        assert_eq!(store.universe_bits(), 41);

        let rebuilt = Arc::new(MutableStore::new(store.snapshot()));
        for store in [store, rebuilt] {
            for mode in [Mode::Full, Mode::Delta { since: 0 }] {
                let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
                let mut client = ClientMachine::new(&config(32), &set[..200], mode).unwrap();
                match duet.run(&mut client) {
                    Err(NetError::Remote { code, message }) => {
                        assert_eq!(code, ErrorCode::BadConfig, "{message}");
                        assert!(message.contains("32-bit universe"), "{message}");
                        assert!(message.contains("41-bit elements"), "{message}");
                    }
                    other => panic!("a 32-bit session on 41-bit elements: {other:?}"),
                }
            }
            // Wide enough, it runs.
            let mut duet = Duet::over(Arc::clone(&store) as Arc<dyn SetStore>);
            let (_, _, report) = duet.transcript(&config(41), &set[..200], Mode::Full);
            assert!(report.verified && report.recovered == [wide]);
        }
    }
}
