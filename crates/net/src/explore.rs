//! Every short schedule of a tiny world, run: one [`ClientConn`] and one
//! [`ServerConn`](crate::conn::ServerConn) over a [`MutableStore`],
//! through [`Duet`] in its linked mode, so that a heavy set-up unit is a
//! move of its own.
//!
//! The simulator (`sim.rs`) samples: a thousand seeded schedules of many
//! nodes, long, with time passing, crashes, timers and mangled bytes. The
//! explorer enumerates: every schedule of one connection up to [`DEPTH`]
//! moves, in worlds small enough that each schedule is cheap — an 8-bit
//! universe, |A| and |B| ≤ 6, a changelog of two batches, and the store's
//! view cache in each of its three standings at the start (cold, due a
//! view, holding one). What a few moves in the wrong order do to the
//! protocol is the explorer's; what time, disks and many peers do is the
//! simulator's.
//!
//! A move is one of:
//! * the honest next frame (or the end of the stream) delivered to the
//!   server, or to the client;
//! * one letter of the hostile [`alphabet`] in place of the next frame
//!   toward either end — at most one a schedule;
//! * the heavy set-up unit the server owes, run;
//! * a local write of a narrow (8-bit) or a wide (9-bit) element;
//! * either end closing its side.
//!
//! Each letter carries what the end it reaches must answer where its stage
//! takes the letter's frame type ([`Draw`]); a type the stage does not take
//! ([`SERVER_TAKES`], [`CLIENT_TAKES`]) is refused `Protocol`, naming the
//! stage and the type. After every move, and once the schedule's honest
//! tail has run to rest:
//! * on an honest link, a full session ends verified with exactly A △ B at
//!   the epoch it was acked at, a catch-up with exactly the store's changes,
//!   or the session in a typed refusal (a narrow universe after a wide
//!   write) — never unverified;
//! * a subscription streams exactly the batches after the epoch its
//!   session proved;
//! * every refusal is the one its letter draws, and changes nothing; a
//!   refusal of a session's size comes from its set-up unit, after the
//!   reply that announced the unit;
//! * no epoch a stream reports goes back;
//! * the client hashes its bank under the seed of the reply it took, and
//!   the first set-up to take the store's set takes it by the path the
//!   standing names;
//! * each session the connection opened ends once, on the server and on
//!   its store, and a subscriber holds its slot exactly while it streams;
//! * nothing panics.
//!
//! Moves of the two ends commute (each reads only its own end and its own
//! queue's head, and appends to the other's tail), so two orders of such
//! moves are run once: the search keeps a sleep set (Godefroid, 1996). A
//! letter commutes with no move — it takes the head of a queue the other
//! end appends to, and is built from both ends' state — so it neither
//! sleeps nor puts a move to sleep. `the_sleep_set_reaches_every_state`
//! holds the reduced search, at a smaller depth, to every state that every
//! order of the moves reaches.
//!
//! `cargo test --release -p pbs_net --lib explore -- --nocapture` prints
//! the depth, the schedules run (asserted ≥ [`AT_LEAST`]: 100 000
//! optimised) and how many took each kind of move, and asserts that every
//! stage each end awaits a frame in met every frame type. A world that
//! fails is searched again, shallowest first, and panics with its
//! shortest failing schedule. A refusal a machine grows is a letter with
//! its draw; a stage, a row of [`SERVER_TAKES`] or [`CLIENT_TAKES`].

use crate::client::{ClientConfig, DeltaReport};
use crate::conn::{ClientConn, Connection, Ending};
use crate::frame::{service_plan, ErrorCode, EstimatorMsg, Frame, Hello};
use crate::machine::Mode;
use crate::server::ServerConfig;
use crate::server_machine::Crossed;
use crate::sim::{one_of_each, Duet};
use crate::store::{MutableStore, SetStore};
use crate::NetError;
use estimator::{Estimator, TowEstimator};
use pbs_core::messages::GroupSketch;
use pbs_core::{AliceSession, Pbs, ESTIMATOR_SEED_SALT};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Moves a schedule runs to: every schedule of this many (fewer where
/// both ends are done sooner). An unoptimised build goes three shallower.
/// Each move deeper costs about half as much time again.
const DEPTH: usize = if cfg!(debug_assertions) { 3 } else { 6 };

/// Schedules the run must reach.
const AT_LEAST: u64 = if cfg!(debug_assertions) {
    1_000
} else {
    100_000
};

/// The universe the client's sessions run in.
const BITS: u32 = 8;

/// The store's first epoch; its own batch ([`BATCH`]) makes the next, so
/// that a catch-up from here streams one.
const ORIGIN: u64 = 1;
const BATCH: u64 = 77;

/// The client's set, and the store's at [`ORIGIN`]: a difference of six
/// once [`BATCH`] landed, and none.
const SETS: [(&[u64], &[u64]); 2] = [
    (&[3, 17, 40, 99, 200, 251], &[3, 17, 40, 120, 201]),
    (&[3, 17, 40, 77, 120, 201], &[3, 17, 40, 120, 201]),
];

/// Writes a schedule commits at most — one past what the changelog
/// holds — of which one wide; the elements they add, in turn: narrow, and
/// past the universe.
const WRITES: usize = 3;
const NARROW: u64 = 130;
const WIDE: u64 = 0x100;

/// What a session of [`BITS`] is refused once a [`WIDE`] element landed:
/// both widths, named.
const TOO_NARROW: &str = "the store holds 9-bit elements, outside the 8-bit universe";
const NARROWED: Draw = Draw::Refused(ErrorCode::BadConfig, TOO_NARROW);

/// What the server is configured with: limits a letter can reach in a
/// tiny world.
fn server_config() -> ServerConfig {
    ServerConfig {
        round_cap: 3,
        max_d: 64,
        max_done_elements: 6,
        ..ServerConfig::default()
    }
}

/// The frame types each stage takes, by the words its refusals name it
/// with; anything else (but an `Error`) is refused `Protocol`, naming the
/// stage and the type.
const SERVER_TAKES: [(&str, &[u8]); 5] = [
    ("expected Hello", &[1]),
    ("expected estimator bank", &[2]),
    ("during the round loop", &[3, 5]),
    ("while awaiting Subscribe or a Hello", &[1, 10]),
    ("on a live subscription", &[11, 12]),
];
const CLIENT_TAKES: [(&str, &[u8]); 6] = [
    ("awaiting the Hello reply", &[1]),
    ("awaiting the delta stream", &[7, 8, 9]),
    ("awaiting the estimate reply", &[2]),
    ("awaiting Reports", &[4]),
    ("awaiting the Done ack", &[8]),
    ("parked on the subscription stream", &[7, 8, 9, 11]),
];

const TYPE_ERROR: u8 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Standing {
    Cold,
    Due,
    Cached,
}

/// One tiny world: where the store's view cache stands, what the client
/// asks, and which sets the two hold.
#[derive(Debug, Clone, Copy)]
struct World {
    standing: Standing,
    mode: Mode,
    known_d: Option<u64>,
    /// Which of [`SETS`].
    sets: usize,
}

impl World {
    fn client_set(&self) -> &'static [u64] {
        SETS[self.sets].0
    }
}

/// Every world: each standing, each pair of sets, each kind of session —
/// but a subscriber's once: it holds no set and takes no view (a full
/// session opened on its connection is a delta world's).
fn worlds() -> Vec<World> {
    let mut worlds = Vec::new();
    for standing in [Standing::Cold, Standing::Due, Standing::Cached] {
        for (sets, (a, b)) in SETS.into_iter().enumerate() {
            let b: BTreeSet<u64> = b.iter().copied().chain([BATCH]).collect();
            let d = a.iter().filter(|e| !b.contains(e)).count() * 2;
            for (mode, known_d) in [
                (Mode::Full, None),
                (Mode::Full, Some(d.max(1) as u64)),
                (Mode::Delta { since: ORIGIN }, None),
                (Mode::Subscribe { since: ORIGIN }, None),
            ] {
                let subscriber = matches!(mode, Mode::Subscribe { .. });
                if !subscriber || (standing, sets) == (Standing::Cold, 0) {
                    let world = World {
                        standing,
                        mode,
                        known_d,
                        sets,
                    };
                    worlds.push(world);
                }
            }
        }
    }
    worlds
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Side {
    Server,
    Client,
}

/// One move of a schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// The next frame toward the server (or the end of the client's
    /// stream), and toward the client.
    Up,
    Down,
    /// Letter `i` of the alphabet in place of the next frame toward its end.
    Lie(usize),
    SetUp,
    Narrow,
    Wide,
    CloseClient,
    CloseServer,
}

impl Move {
    /// Two moves of different ends commute: each reads only its own end
    /// and its own queue's head, and appends to the other's tail. A letter
    /// commutes with nothing: it takes the head of a queue the other end
    /// appends to, is built from both ends' state, and a client that ends
    /// or closes bars the letters toward the server.
    fn commutes(self, other: Move) -> bool {
        let side = |mv| match mv {
            Move::Lie(_) => None,
            Move::Down | Move::CloseClient => Some(Side::Client),
            _ => Some(Side::Server),
        };
        matches!((side(self), side(other)), (Some(a), Some(b)) if a != b)
    }

    /// Its column in the tally.
    fn kind(self) -> usize {
        match self {
            Move::Up | Move::Down => 0,
            Move::Lie(_) => 1,
            Move::SetUp => 2,
            Move::Narrow => 3,
            Move::Wide => 4,
            Move::CloseClient | Move::CloseServer => 5,
        }
    }
}

const KINDS: [&str; 6] = [
    "honest frame",
    "hostile letter",
    "set-up unit",
    "narrow write",
    "wide write",
    "close",
];

/// What the end a letter reaches answers it with, where its stage takes
/// the letter's frame type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Draw {
    /// No refusal.
    Taken,
    /// Refused now with this code (the client's refusals are all
    /// `Protocol`), the message naming the second field.
    Refused(ErrorCode, &'static str),
    /// The reply of the letter's own type sent, no refusal yet, and the
    /// set-up unit the reply announced owed: that unit draws the refusal.
    Owed(ErrorCode, &'static str),
    /// A peer's `Error`: the session ends without a word.
    Ends,
    /// A type this stage does not take: refused `Protocol`, naming the
    /// stage and the type.
    Stray,
    /// Any typed outcome: a frame repeated.
    Typed,
}

/// What a letter is built from: the state of the end it reaches.
struct Ctx<'a> {
    /// That end's stage, in the words its refusals use.
    stage: &'static str,
    /// The epoch that end stands at: what the server's session proved, or
    /// where the client's stream is.
    epoch: u64,
    /// The seed and the d the server's session runs under, once it said,
    /// and the layers it has served.
    seed: u64,
    d: u64,
    rounds: u64,
    mode: Mode,
    /// The store holds an element wider than the session's universe.
    wide: bool,
    /// The last frame delivered to that end.
    last: Option<&'a Frame>,
    /// The client's set: a hostile batch of sketches is sketched over it.
    set: &'a [u64],
}

type Build = Box<dyn Fn(&Ctx) -> Frame>;
type Rule = Box<dyn Fn(&Ctx, &Frame) -> Draw>;

/// One entry of the hostile alphabet.
struct Letter {
    name: &'static str,
    to: Side,
    frame: Build,
    draw: Rule,
}

fn letter(name: &'static str, to: Side, draw: Rule, frame: Build) -> Letter {
    Letter {
        name,
        to,
        frame,
        draw,
    }
}

fn server(name: &'static str, draw: Rule, frame: Build) -> Letter {
    letter(name, Side::Server, draw, frame)
}

fn client(name: &'static str, draw: Rule, frame: Build) -> Letter {
    letter(name, Side::Client, draw, frame)
}

/// A draw that holds wherever the letter's type is taken.
fn is(draw: Draw) -> Rule {
    Box::new(move |_, _| draw)
}

fn just(frame: Frame) -> Build {
    Box::new(move |_| frame.clone())
}

/// The session's sketches, as a fresh Alice under the server's seed and
/// plan sends them: `layers` rounds, for a difference of `d`.
fn sketches(c: &Ctx, d: u64, layers: u32) -> (u32, Vec<GroupSketch>) {
    let cfg = service_plan(BITS);
    let params = Pbs::new(cfg).plan(d.max(1) as usize);
    let mut alice = AliceSession::new(cfg, params, c.set, c.seed);
    (params.m, alice.start_rounds(layers))
}

fn shape(d: u64) -> (u32, usize) {
    let params = Pbs::new(service_plan(BITS)).plan(d.max(1) as usize);
    (params.m, params.t)
}

/// What a `Sketches` frame draws: the caps on its layers first — the
/// pipeline depth, then the rounds the session has left — then `then`.
fn capped(then: Draw) -> Rule {
    Box::new(move |c, frame| {
        let Frame::Sketches { batch, .. } = frame else {
            return then;
        };
        let mut rounds: Vec<u32> = batch.iter().map(|s| s.round).collect();
        rounds.sort_unstable();
        rounds.dedup();
        let (layers, config) = (rounds.len().max(1) as u64, server_config());
        if layers > config.max_pipeline_depth as u64 {
            Draw::Refused(ErrorCode::BadConfig, "pipelined layers exceed")
        } else if c.rounds + layers > config.round_cap as u64 {
            Draw::Refused(ErrorCode::RoundLimit, "round cap")
        } else {
            then
        }
    })
}

fn stream(stage: &str) -> bool {
    matches!(
        stage,
        "awaiting the delta stream" | "parked on the subscription stream"
    )
}

/// What an 8-bit `Hello` draws: `or`, unless the store holds a wider
/// element.
fn narrow(or: Draw) -> Rule {
    Box::new(move |c, _| match c.wide {
        true => NARROWED,
        false => or,
    })
}

/// A `Hello` of the tiny world's universe, addressing the default store.
fn hello(seed: u64, known_d: u64) -> Hello {
    Hello::from_config(&service_plan(BITS), seed, known_d)
}

fn bank(sketches: usize, seed: u64, set: impl IntoIterator<Item = u64>) -> Frame {
    let mut bank = TowEstimator::new(sketches, seed);
    bank.insert_slice(&set.into_iter().collect::<Vec<u64>>());
    Frame::EstimatorExchange(EstimatorMsg::TowBank(bank.to_bytes()))
}

/// The hostile alphabet: every frame type toward each end
/// ([`one_of_each`], and an `Error`), epochs at e − 1, e, e + 1 and
/// `u64::MAX`, a `Hello` of each mode and width, the last frame repeated,
/// and each payload a machine checks.
fn alphabet() -> Vec<Letter> {
    use Draw::*;
    use ErrorCode::{BadConfig, Decode, Protocol, UnknownStore};
    use Side::{Client, Server};
    // What the server and the client draw from `one_of_each`'s frames.
    let each: [(&str, Rule, Rule); 12] = [
        (
            "Hello",
            is(Taken),
            is(Refused(Protocol, "changed the universe")),
        ),
        (
            "TowBank",
            is(Refused(Decode, "malformed estimator bank")),
            is(Stray),
        ),
        ("Estimate", is(Stray), is(Taken)),
        (
            "Sketches",
            capped(Refused(BadConfig, "empty sketch batch")),
            is(Stray),
        ),
        ("Reports", is(Stray), is(Taken)),
        ("Done", is(Taken), is(Stray)),
        ("DeltaBatch", is(Stray), is(Taken)),
        (
            "DeltaDone",
            is(Stray),
            Box::new(|c, _| match stream(c.stage) && 1 < c.epoch {
                true => Refused(Protocol, "went backwards"),
                false => Taken,
            }),
        ),
        (
            "FullResyncRequired",
            is(Stray),
            Box::new(|c, _| match (c.stage, c.mode) {
                ("parked on the subscription stream", _) => Refused(Protocol, "evicted"),
                (_, Mode::Subscribe { .. }) => Refused(Protocol, "run a full sync"),
                _ => Taken,
            }),
        ),
        (
            "Subscribe",
            Box::new(|c, _| match c.epoch {
                1 => Taken,
                _ => Refused(Protocol, "Subscribe from epoch"),
            }),
            is(Stray),
        ),
        ("Ping", is(Taken), is(Taken)),
        ("Pong", is(Taken), is(Stray)),
    ];
    let mut letters = Vec::new();
    for (frame, (name, server, client)) in one_of_each().into_iter().zip(each) {
        letters.push(letter(name, Server, server, just(frame.clone())));
        letters.push(letter(name, Client, client, just(frame)));
    }
    let error = Frame::Error {
        code: ErrorCode::Internal,
        message: "boom".into(),
    };
    for to in [Server, Client] {
        letters.push(letter("an Error", to, is(Ends), just(error.clone())));
        let repeat = |c: &Ctx| c.last.cloned().unwrap_or(Frame::Ping { nonce: 0 });
        letters.push(letter(
            "the last frame again",
            to,
            is(Typed),
            Box::new(repeat),
        ));
    }

    // Toward the server: a Hello of each mode and width.
    let width = |bits| {
        let mut h = hello(7, 0);
        h.universe_bits = bits;
        just(Frame::Hello(h))
    };
    let wide = Hello::from_config(&service_plan(64), 7, 0);
    let over = server_config().max_d + 1;
    letters.extend([
        server(
            "Hello, estimate",
            narrow(Taken),
            just(Frame::Hello(hello(7, 0))),
        ),
        server(
            "Hello, d named",
            narrow(Taken),
            just(Frame::Hello(hello(7, 3))),
        ),
        server(
            "Hello, delta from e",
            narrow(Taken),
            Box::new(|c| Frame::Hello(hello(7, 0).with_delta_epoch(c.epoch))),
        ),
        server("Hello, 64-bit", is(Taken), just(Frame::Hello(wide))),
        server(
            "Hello, 7-bit",
            is(Refused(BadConfig, "universe_bits")),
            width(7),
        ),
        server(
            "Hello, 65-bit",
            is(Refused(BadConfig, "universe_bits")),
            width(65),
        ),
        server(
            "Hello, unknown store",
            is(Refused(UnknownStore, "no store named")),
            just(Frame::Hello(hello(7, 0).with_store("nope"))),
        ),
        server(
            "Hello, d over the cap",
            narrow(Owed(BadConfig, "exceeds the server cap")),
            just(Frame::Hello(hello(7, over))),
        ),
    ]);
    // Estimator banks that are not the session's, and one whose estimate
    // is past the server's cap.
    let mismatch = || is(Refused(BadConfig, "does not match the session"));
    letters.extend([
        server(
            "bank under another seed",
            mismatch(),
            just(bank(estimator::DEFAULT_SKETCH_COUNT, 0xBAD, [])),
        ),
        server(
            "bank of 64 sketches",
            mismatch(),
            Box::new(|c| bank(64, xhash::derive_seed(c.seed, ESTIMATOR_SEED_SALT), [])),
        ),
        server(
            "bank of a large set",
            is(Owed(BadConfig, "exceeds the server cap")),
            Box::new(move |c| {
                let seed = xhash::derive_seed(c.seed, ESTIMATOR_SEED_SALT);
                bank(estimator::DEFAULT_SKETCH_COUNT, seed, 1..=4 * over)
            }),
        ),
    ]);
    // Sketch batches the round loop refuses before it decodes anything.
    letters.extend([
        server(
            "sketches at m + 1",
            capped(Refused(BadConfig, "sketch shape mismatch")),
            Box::new(|c| {
                let (m, batch) = sketches(c, c.d, 1);
                Frame::Sketches { m: m + 1, batch }
            }),
        ),
        server(
            "sketches for another d",
            Box::new(|c, frame| match shape(c.d) == shape(c.d + 40) {
                true => Typed,
                false => capped(Refused(BadConfig, "sketch shape mismatch"))(c, frame),
            }),
            Box::new(|c| {
                let (m, batch) = sketches(c, c.d + 40, 1);
                Frame::Sketches { m, batch }
            }),
        ),
        // (Where a plan has one group, the pair twice is also more
        // sketches than its layers have sessions.)
        server(
            "a (session, round) twice",
            capped(Refused(BadConfig, "sketch")),
            Box::new(|c| {
                let (m, mut batch) = sketches(c, c.d, 2);
                let first = batch[0].clone();
                *batch.last_mut().expect("a sketch a group") = first;
                Frame::Sketches { m, batch }
            }),
        ),
        server(
            "more sketches than sessions",
            capped(Refused(BadConfig, "sketches exceed")),
            Box::new(|c| {
                let (m, batch) = sketches(c, c.d, 1);
                let padded = (1..=64).map(|session| GroupSketch {
                    session,
                    ..batch[0].clone()
                });
                Frame::Sketches {
                    m,
                    batch: padded.collect(),
                }
            }),
        ),
        server(
            "layers past the depth cap",
            capped(Typed),
            Box::new(|c| {
                let (m, batch) = sketches(c, c.d, server_config().max_pipeline_depth + 1);
                Frame::Sketches { m, batch }
            }),
        ),
        server(
            "layers past the round cap",
            capped(Typed),
            Box::new(|c| {
                let (m, batch) = sketches(c, c.d, server_config().round_cap + 1);
                Frame::Sketches { m, batch }
            }),
        ),
    ]);
    // Final transfers the store must not take.
    let outside = || is(Refused(BadConfig, "outside the 8-bit universe"));
    letters.extend([
        server(
            "Done over the cap",
            is(Refused(BadConfig, "exceeds the cap")),
            just(Frame::Done((140..147).collect())),
        ),
        server("Done holding 0", outside(), just(Frame::Done(vec![150, 0]))),
        server(
            "Done holding a wide element",
            outside(),
            just(Frame::Done(vec![150, WIDE | 1])),
        ),
    ]);
    // Subscribe at e − 1, e, e + 1 and u64::MAX, e the epoch proved.
    let other = || is(Refused(Protocol, "Subscribe from epoch"));
    letters.extend([
        server(
            "Subscribe at e - 1",
            other(),
            Box::new(|c| Frame::Subscribe {
                epoch: c.epoch.wrapping_sub(1),
            }),
        ),
        server(
            "Subscribe at e",
            is(Taken),
            Box::new(|c| Frame::Subscribe { epoch: c.epoch }),
        ),
        server(
            "Subscribe at e + 1",
            other(),
            Box::new(|c| Frame::Subscribe {
                epoch: c.epoch.wrapping_add(1),
            }),
        ),
        server(
            "Subscribe at MAX",
            Box::new(|c, _| match c.epoch {
                u64::MAX => Taken,
                _ => Refused(Protocol, "Subscribe from epoch"),
            }),
            just(Frame::Subscribe { epoch: u64::MAX }),
        ),
    ]);

    // Toward the client: a reply that rewrites what it was sent, or names
    // what the server may name; an estimate past the client's cap.
    letters.extend([
        client(
            "reply under another seed, depth 1",
            is(Taken),
            Box::new(|c| Frame::Hello(hello(c.seed ^ 1, 0).with_pipeline(1))),
        ),
        client(
            "reply, 64-bit",
            is(Refused(Protocol, "changed the universe")),
            just(Frame::Hello(Hello::from_config(&service_plan(64), 7, 0))),
        ),
        client(
            "estimate past the client cap",
            is(Refused(Protocol, "client cap")),
            just(Frame::EstimatorExchange(EstimatorMsg::Estimate {
                d_param: client_config(None).max_d + 1,
                d_hat: 1.0,
            })),
        ),
    ]);
    // DeltaDone at e − 1, e, e + 1 and u64::MAX, e the client's epoch: a
    // stream ends no earlier than it began (an ack carries any).
    letters.extend([
        client(
            "DeltaDone at e - 1",
            Box::new(|c, _| match stream(c.stage) && c.epoch > 0 {
                true => Refused(Protocol, "went backwards"),
                false => Taken,
            }),
            Box::new(|c| Frame::DeltaDone {
                epoch: c.epoch.saturating_sub(1),
            }),
        ),
        client(
            "DeltaDone at e",
            is(Taken),
            Box::new(|c| Frame::DeltaDone { epoch: c.epoch }),
        ),
        client(
            "DeltaDone at e + 1",
            is(Taken),
            Box::new(|c| Frame::DeltaDone {
                epoch: c.epoch.saturating_add(1),
            }),
        ),
        client(
            "DeltaDone at MAX",
            is(Taken),
            just(Frame::DeltaDone { epoch: u64::MAX }),
        ),
    ]);
    letters
}

fn client_config(known_d: Option<u64>) -> ClientConfig {
    let mut config = ClientConfig {
        seed: 0x5EED,
        pbs: service_plan(BITS),
        max_d: 1 << 10,
        ..ClientConfig::default()
    };
    config.known_d = known_d;
    config
}

/// One schedule under way: both ends, the link between them as a queue of
/// frames each way, and what the invariants are held to.
struct Run<'a> {
    world: World,
    alphabet: &'a [Letter],
    store: Arc<MutableStore>,
    duet: Duet,
    /// `None` once it ended (its ending in `ending`) or closed.
    client: Option<ClientConn<'static>>,
    ending: Option<Ending>,
    up: VecDeque<Frame>,
    down: VecDeque<Frame>,
    /// The end of each stream is queued behind its frames.
    up_closed: bool,
    down_closed: bool,
    /// The store's set at each epoch it stood at.
    history: BTreeMap<u64, Vec<u64>>,
    lied: bool,
    closed: bool,
    writes: usize,
    wide: bool,
    /// The epoch of the last `DeltaDone` the server sent: what its session
    /// proved, and from a `Subscribe` on, where its stream stands.
    proved: Option<u64>,
    streaming: bool,
    /// Where the client's stream stands.
    client_epoch: u64,
    /// The seed and the d the server's session runs under.
    seed: u64,
    d: u64,
    /// The last frame delivered to the server, and to the client.
    last: [Option<Frame>; 2],
    /// The seed of the last `Hello` reply the client was sent.
    client_seed: u64,
    /// The client's state when it ended.
    left: &'static str,
    /// A view was taken on this connection.
    viewed: bool,
    /// The letter played: its end, that end's stage and the frame type.
    met: Option<(Side, &'static str, u8)>,
    /// A letter's refusal the server owes from its set-up unit, and
    /// whether that unit takes the session's set (after a `Hello`).
    owed: Option<(Draw, bool)>,
}

impl<'a> Run<'a> {
    fn new(world: World, alphabet: &'a [Letter]) -> Self {
        let store = Arc::new(MutableStore::with_epoch_origin(
            SETS[world.sets].1.iter().copied(),
            ORIGIN,
            2,
        ));
        let mut history = BTreeMap::from([(ORIGIN, store.snapshot())]);
        store.apply(&[BATCH], &[]);
        history.insert(ORIGIN + 1, store.snapshot());
        // A full session declined a view; then one built it.
        if world.standing != Standing::Cold {
            store.view(store.session_seed(1));
        }
        if world.standing == Standing::Cached {
            store.view(store.session_seed(2));
        }
        let duet = Duet::linked(Arc::clone(&store) as Arc<dyn SetStore>, server_config());
        let config = client_config(world.known_d);
        let mut client = ClientConn::new(&config, world.client_set(), world.mode, duet.now)
            .expect("the world's request is valid");
        let up = client.connected(duet.now).frames.into();
        let client_epoch = match world.mode {
            Mode::Full => 0,
            Mode::Delta { since } | Mode::Subscribe { since } => since,
        };
        Run {
            world,
            alphabet,
            store,
            duet,
            client: Some(client),
            ending: None,
            up,
            down: VecDeque::new(),
            up_closed: false,
            down_closed: false,
            history,
            lied: false,
            closed: false,
            writes: 0,
            wide: false,
            proved: None,
            streaming: false,
            client_epoch,
            seed: 0,
            d: 0,
            last: [None, None],
            client_seed: 0,
            left: "",
            viewed: false,
            met: None,
            owed: None,
        }
    }

    fn server_open(&self) -> bool {
        self.duet.closed().is_none()
    }

    /// The server takes a frame now: open, and its machine back.
    fn server_here(&self) -> bool {
        self.server_open() && !self.duet.out()
    }

    /// Every move the state allows.
    fn moves(&self) -> Vec<Move> {
        let mut moves = Vec::new();
        let here = self.server_here();
        let client = self.client.is_some();
        if here && (!self.up.is_empty() || self.up_closed) {
            moves.push(Move::Up);
        }
        if client && (!self.down.is_empty() || self.down_closed) {
            moves.push(Move::Down);
        }
        if self.server_open() && self.duet.out() {
            moves.push(Move::SetUp);
        }
        if self.server_open() && self.writes < WRITES {
            moves.push(Move::Narrow);
            if !self.wide {
                moves.push(Move::Wide);
            }
        }
        if self.server_open() {
            moves.push(Move::CloseServer);
        }
        if client {
            moves.push(Move::CloseClient);
        }
        if !self.lied {
            for (i, letter) in self.alphabet.iter().enumerate() {
                let open = match letter.to {
                    Side::Server => here && !self.up_closed,
                    Side::Client => client,
                };
                if open {
                    moves.push(Move::Lie(i));
                }
            }
        }
        moves
    }

    fn play(&mut self, mv: Move) -> Result<(), String> {
        match mv {
            Move::Up => match self.up.pop_front() {
                Some(frame) => {
                    self.last[0] = Some(frame.clone());
                    self.duet.deliver(frame);
                    let refusal = self.drain()?;
                    self.honest(refusal)?;
                }
                None => {
                    self.duet.conn.hang_up(self.duet.now, 0);
                    self.drain()?;
                }
            },
            Move::Down => match self.down.pop_front() {
                Some(frame) => {
                    self.last[1] = Some(frame.clone());
                    self.deliver_to_client(frame)?;
                }
                None => {
                    let client = self.client.as_mut().expect("a move of an open client");
                    client.hang_up(self.duet.now, 0);
                    self.ended()?;
                }
            },
            Move::SetUp => {
                let views = self.views();
                self.duet.set_up();
                let refusal = self.drain()?;
                self.took_view(views)?;
                // (A unit that takes a set holding a wide write refuses
                // that first.)
                let wide = self.store.universe_bits() > BITS;
                match self.owed.take() {
                    Some((draw, takes_set)) => {
                        let draw = if wide && takes_set { NARROWED } else { draw };
                        judge_server(draw, "", 0, refusal.as_ref(), false)?
                    }
                    None => self.honest(refusal)?,
                }
            }
            Move::Narrow | Move::Wide => {
                let element = match mv {
                    Move::Wide => WIDE | self.writes as u64,
                    _ => NARROW + self.writes as u64,
                };
                self.writes += 1;
                self.wide |= mv == Move::Wide;
                self.store.apply(&[element], &[]);
                let refusal = self.drain()?;
                self.honest(refusal)?;
            }
            Move::CloseClient => {
                self.closed = true;
                self.client = None;
                self.up_closed = true;
            }
            Move::CloseServer => {
                self.closed = true;
                self.owed = None;
                self.duet.conn.cut();
                self.drain()?;
            }
            Move::Lie(i) => self.lie(i)?,
        }
        Ok(())
    }

    /// The context letters toward `side` are built in.
    fn ctx(&self, side: Side) -> Ctx<'_> {
        let (stage, epoch, last) = match side {
            Side::Server => {
                let machine = self.duet.conn.machine().expect("a move of a server here");
                (
                    machine.stage_name(),
                    self.proved.unwrap_or(0),
                    &self.last[0],
                )
            }
            Side::Client => {
                let client = self.client.as_ref().expect("a move of an open client");
                (client.state_name(), self.client_epoch, &self.last[1])
            }
        };
        Ctx {
            stage,
            epoch,
            seed: self.seed,
            d: self.d,
            rounds: self.duet.res.stats.snapshot().rounds,
            mode: self.world.mode,
            wide: self.store.universe_bits() > BITS,
            last: last.as_ref(),
            set: self.world.client_set(),
        }
    }

    /// Letter `i` in place of the next frame toward its end, held to what
    /// it must draw.
    fn lie(&mut self, i: usize) -> Result<(), String> {
        self.lied = true;
        let alphabet = self.alphabet;
        let letter = &alphabet[i];
        let (frame, stage, draw) = {
            let ctx = self.ctx(letter.to);
            let frame = (letter.frame)(&ctx);
            let takes = match letter.to {
                Side::Server => &SERVER_TAKES[..],
                Side::Client => &CLIENT_TAKES[..],
            };
            let ty = frame.type_byte();
            let legal = takes
                .iter()
                .any(|(s, types)| *s == ctx.stage && types.contains(&ty));
            let draw = match (ty, legal) {
                (TYPE_ERROR, _) => Draw::Ends,
                (_, false) => Draw::Stray,
                _ => (letter.draw)(&ctx, &frame),
            };
            (frame, ctx.stage, draw)
        };
        let ty = frame.type_byte();
        self.met = Some((letter.to, stage, ty));
        match letter.to {
            Side::Server => {
                self.up.pop_front();
                self.last[0] = Some(frame.clone());
                let waiting = self.duet.conn.waiting();
                let before = self.ledger(stage);
                let replies = self.down.len();
                self.duet.deliver(frame);
                let refusal = self.drain()?;
                if refusal.is_some() || draw == Draw::Ends {
                    // A refusal changes nothing: no element lands, no round
                    // runs; a stray frame leaves the stage (a subscriber's
                    // slot is still the machine's).
                    if self.ledger(stage) != before {
                        return Err(format!(
                            "a refused {} moved the store or ran a round",
                            letter.name
                        ));
                    }
                    let now = self.duet.conn.machine().map(|m| m.waiting());
                    if draw == Draw::Stray && now.is_some_and(|now| now != waiting) {
                        return Err(format!("a refused {} moved the stage", letter.name));
                    }
                }
                match draw {
                    // The reply goes out before the work it announces, and
                    // the refusal with that work.
                    Draw::Owed(code, why) => {
                        let replied = self.down.range(replies..).any(|f| f.type_byte() == ty);
                        if refusal.is_some() || !replied || !self.duet.out() {
                            return Err(format!(
                                "{} drew {refusal:?} where its reply is due, and {draw:?}",
                                letter.name
                            ));
                        }
                        self.owed = Some((Draw::Refused(code, why), ty == 1));
                    }
                    _ => judge_server(draw, stage, ty, refusal.as_ref(), self.server_open())?,
                }
            }
            Side::Client => {
                self.down.pop_front();
                self.last[1] = Some(frame.clone());
                let sent = match &frame {
                    Frame::Error { code, message } => Some((*code, message.clone())),
                    _ => None,
                };
                self.deliver_to_client(frame)?;
                judge_client(draw, stage, ty, sent, self.ending.as_ref())?;
                // A stray frame leaves the state as it stood.
                if draw == Draw::Stray && self.left != stage {
                    return Err(format!(
                        "a stray {} moved the client to {}",
                        letter.name, self.left
                    ));
                }
            }
        }
        Ok(())
    }

    /// What a refusal must leave as it was (sessions are the driver's to
    /// count, bar the next one on a parked connection).
    fn ledger(&self, stage: &str) -> [u64; 5] {
        let stats = self.duet.res.stats.snapshot();
        let started = (stage == "expected Hello") as u64 * stats.sessions_started;
        let moved = [stats.rounds, stats.round_trips, stats.elements_received];
        [self.store.epoch(), moved[0], moved[1], moved[2], started]
    }

    /// What the run stands at, in words: the link, both ends, the store
    /// and the counters.
    fn state(&self) -> String {
        let client = self.client.as_ref().map(|c| (c.state_name(), c.parked()));
        let stage = self.duet.conn.machine().map(|m| m.stage_name());
        let server = (self.duet.closed(), self.duet.out(), stage);
        let store = (
            self.store.epoch(),
            BTreeSet::from_iter(self.store.snapshot()),
        );
        let stats = self.duet.res.stats.snapshot();
        let live = self.duet.res.live_subscribers.load(Ordering::Relaxed);
        let link = (&self.up, &self.down, self.up_closed, self.down_closed);
        let held = (
            self.proved,
            self.streaming,
            self.client_epoch,
            self.seed,
            self.d,
        );
        let seen = (self.client_seed, self.left);
        let flags = (
            self.lied,
            self.closed,
            self.writes,
            self.wide,
            self.viewed,
            self.owed,
        );
        format!(
            "{link:?} {client:?} {:?} {server:?} {store:?} {stats:?} {live} {held:?} {seen:?} {flags:?} {:?}",
            self.ending, self.last
        )
    }

    /// The views the server's sessions took: declined, built, patched.
    fn views(&self) -> [u64; 3] {
        let stats = self.duet.res.stats.snapshot();
        [stats.views_declined, stats.views_built, stats.views_patched]
    }

    /// A set-up unit that took the store's set took it by the path the
    /// world's standing names: a private copy off a cold cache, a view
    /// built where one was due, the cached one patched (one write keeps
    /// each standing as it was).
    fn took_view(&mut self, before: [u64; 3]) -> Result<(), String> {
        let after = self.views();
        if after == before || std::mem::replace(&mut self.viewed, true) || self.writes > 1 {
            return Ok(());
        }
        let path = self.world.standing as usize;
        match (0..3).all(|k| after[k] - before[k] == (k == path) as u64) {
            true => Ok(()),
            false => Err(format!(
                "{:?} took the views {after:?}",
                self.world.standing
            )),
        }
    }

    /// Put what the server answered on the link and hold it to the
    /// invariants; the first refusal among it, if any.
    fn drain(&mut self) -> Result<Option<(ErrorCode, String)>, String> {
        let mut refusal = None;
        loop {
            let frames: Vec<Frame> = self.duet.inbox.drain(..).collect();
            let moved = !frames.is_empty();
            for frame in &frames {
                self.sent(frame, &mut refusal)?;
            }
            self.down.extend(frames);
            self.duet.conn.flushed(self.duet.now, moved, 0);
            for crossed in std::mem::take(&mut self.duet.crossed) {
                if let Crossed::Subscribed { epoch } = crossed {
                    // A subscription streams from the epoch its session
                    // proved, or skips (or repeats) batches.
                    if Some(epoch) != self.proved {
                        return Err(format!(
                            "subscribed from epoch {epoch}; the session proved {:?}",
                            self.proved
                        ));
                    }
                    self.streaming = true;
                }
            }
            let epoch = self.store.epoch();
            if !self.history.contains_key(&epoch) {
                self.history.insert(epoch, self.store.snapshot());
            }
            // The loop pushes on every change, and right after a Subscribe.
            if self.duet.conn.streaming() {
                self.duet.push(0);
                if !self.duet.inbox.is_empty() {
                    continue;
                }
            }
            break;
        }
        if !self.server_open() {
            self.down_closed = true;
        }
        Ok(refusal)
    }

    /// One frame the server sent, as the invariants see it.
    fn sent(
        &mut self,
        frame: &Frame,
        refusal: &mut Option<(ErrorCode, String)>,
    ) -> Result<(), String> {
        match frame {
            Frame::Hello(reply) => {
                self.seed = reply.seed;
                self.d = reply.known_d;
            }
            Frame::EstimatorExchange(EstimatorMsg::Estimate { d_param, .. }) => self.d = *d_param,
            Frame::DeltaBatch { epoch, .. } if self.streaming => {
                // Exactly the batches after where the stream stands.
                let at = self.proved.unwrap_or(0);
                if *epoch != at + 1 {
                    return Err(format!("pushed the batch of epoch {epoch} after {at}"));
                }
                self.proved = Some(*epoch);
            }
            Frame::DeltaDone { epoch } => {
                if self.streaming && Some(*epoch) != self.proved {
                    return Err(format!(
                        "a push ended at {epoch}, its batches at {:?}",
                        self.proved
                    ));
                }
                self.proved = Some(*epoch);
            }
            Frame::Error { code, message } => {
                refusal.get_or_insert((*code, message.clone()));
            }
            _ => {}
        }
        Ok(())
    }

    /// On an honest link the server refuses only a session too narrow for
    /// a wide write.
    fn honest(&self, refusal: Option<(ErrorCode, String)>) -> Result<(), String> {
        match refusal {
            Some((code, message)) if !self.lied => {
                let narrow = code == ErrorCode::BadConfig && message.contains(TOO_NARROW);
                match narrow && self.wide {
                    true => Ok(()),
                    false => Err(format!("an honest link refused {code:?}: {message}")),
                }
            }
            _ => Ok(()),
        }
    }

    /// A frame to the client, and what it answers.
    fn deliver_to_client(&mut self, frame: Frame) -> Result<(), String> {
        let now = self.duet.now;
        let Some(client) = self.client.as_mut() else {
            return Ok(());
        };
        if let Frame::Hello(reply) = &frame {
            self.client_seed = reply.seed;
        }
        let out = client.on_frame(frame, now);
        client.flushed(now, !out.frames.is_empty(), 0);
        client.listen(now);
        // The session runs under the seed the reply named.
        for frame in &out.frames {
            if let Frame::EstimatorExchange(EstimatorMsg::TowBank(bytes)) = frame {
                let seed = TowEstimator::from_bytes(bytes).map(|bank| bank.seed());
                if seed != Some(xhash::derive_seed(self.client_seed, ESTIMATOR_SEED_SALT)) {
                    return Err("a bank under another seed than the reply's".into());
                }
            }
        }
        self.up.extend(out.frames);
        if let Some(push) = out.push {
            self.pushed(&push)?;
        }
        self.ended()
    }

    fn ended(&mut self) -> Result<(), String> {
        let Some(client) = self.client.as_mut() else {
            return Ok(());
        };
        let Some(ending) = client.take_ending() else {
            return Ok(());
        };
        self.left = client.state_name();
        if let Ending::Report(report) = &ending {
            if let Some(delta) = &report.delta {
                self.pushed(delta)?;
            }
        }
        self.client = None;
        self.up_closed = true;
        self.ending = Some(ending);
        Ok(())
    }

    /// A delta stream the client reported: it goes no way but forward
    /// and, on an honest link, is exactly what the store changed.
    fn pushed(&mut self, delta: &DeltaReport) -> Result<(), String> {
        if delta.to_epoch < delta.from_epoch {
            return Err(format!(
                "a stream went back from {} to {}",
                delta.from_epoch, delta.to_epoch
            ));
        }
        self.client_epoch = delta.to_epoch;
        if self.lied {
            return Ok(());
        }
        let at = |epoch| self.history.get(&epoch).ok_or(format!("no epoch {epoch}"));
        let mut held: BTreeSet<u64> = at(delta.from_epoch)?.iter().copied().collect();
        for e in &delta.removed {
            held.remove(e);
        }
        held.extend(&delta.added);
        let to: BTreeSet<u64> = at(delta.to_epoch)?.iter().copied().collect();
        match held == to {
            true => Ok(()),
            false => Err(format!("the stream {delta:?} is not the store's changes")),
        }
    }

    /// Run the honest tail to rest, then hold the ending to the truth.
    fn finish(&mut self) -> Result<(), String> {
        loop {
            let moves = self.moves();
            let next = [Move::SetUp, Move::Up, Move::Down]
                .into_iter()
                .find(|m| moves.contains(m));
            let Some(next) = next else { break };
            self.play(next)?;
        }
        // Every session the connection opened ends once: each `Hello` on
        // a parked one ended the one before, the last ends with it.
        let stats = self.duet.res.stats.snapshot();
        let ended = stats.sessions_completed + stats.sessions_failed;
        let open = self.server_open() as u64;
        if ended + open != 1 + stats.sessions_reused {
            return Err(format!(
                "{ended} sessions ended, {open} open, {} reused",
                stats.sessions_reused
            ));
        }
        // And on the store, each session its Hello routed there.
        let entry = self.duet.res.registry.get("").expect("the default store");
        let at = entry.stats().snapshot();
        let routed = (self.duet.conn.entry().is_some() && self.server_open()) as u64;
        if at.sessions_started != at.sessions_completed + at.sessions_failed + routed {
            return Err(format!("the store's sessions: {at:?}"));
        }
        // A subscriber holds its slot while it streams, and only then.
        let live = self.duet.res.live_subscribers.load(Ordering::Relaxed);
        if live != self.duet.conn.streaming() as usize {
            return Err(format!("{live} subscriber slots taken"));
        }
        if self.lied {
            return Ok(());
        }
        if let Some(client) = &self.client {
            return match client.parked() {
                true => Ok(()),
                false => Err(format!("the client is stuck {}", client.state_name())),
            };
        }
        match &self.ending {
            Some(Ending::Report(report)) if report.delta.is_some() => match report.verified {
                true => Ok(()),
                false => Err("a catch-up that did not verify".into()),
            },
            Some(Ending::Report(report)) => {
                let epoch = report.epoch.ok_or("a report with no epoch")?;
                let held = self
                    .history
                    .get(&epoch)
                    .ok_or(format!("no epoch {epoch}"))?;
                let (a, b): (BTreeSet<u64>, BTreeSet<u64>) = (
                    self.world.client_set().iter().copied().collect(),
                    held.iter().copied().collect(),
                );
                let truth: Vec<u64> = a.symmetric_difference(&b).copied().collect();
                let ours: Vec<u64> = a.difference(&b).copied().collect();
                let mut recovered = report.recovered.clone();
                recovered.sort_unstable();
                let mut pushed = report.pushed.clone();
                pushed.sort_unstable();
                match report.verified && recovered == truth && pushed == ours {
                    true => Ok(()),
                    false => Err(format!(
                        "verified {} with {recovered:?} pushed {pushed:?}; A △ B at epoch {epoch} is {truth:?}",
                        report.verified
                    )),
                }
            }
            Some(Ending::Failed(NetError::Remote { code, message }))
                if *code == ErrorCode::BadConfig && self.wide && message.contains(TOO_NARROW) =>
            {
                Ok(())
            }
            // A subscriber the changelog no longer covers is sent away.
            Some(Ending::Failed(NetError::Protocol(message)))
                if self.store.changes_since(self.client_epoch).is_none()
                    && (message.contains("evicted") || message.contains("run a full sync")) =>
            {
                Ok(())
            }
            Some(_) | None if self.closed => Ok(()),
            other => Err(format!("an honest link ended in {other:?}")),
        }
    }
}

/// The server's answer to a letter, against its draw.
fn judge_server(
    draw: Draw,
    stage: &str,
    ty: u8,
    refusal: Option<&(ErrorCode, String)>,
    open: bool,
) -> Result<(), String> {
    let fits = match (draw, refusal) {
        (Draw::Taken, None) | (Draw::Typed, _) => true,
        (Draw::Ends, None) => !open,
        (Draw::Refused(code, why), Some((got, message))) => *got == code && message.contains(why),
        (Draw::Stray, Some((got, message))) => {
            *got == ErrorCode::Protocol
                && message.contains(stage)
                && message.contains(&format!("type {ty}"))
        }
        _ => false,
    };
    match fits {
        true => Ok(()),
        false => Err(format!(
            "the server answered {refusal:?} where it must draw {draw:?}"
        )),
    }
}

/// The client's answer to a letter, against its draw.
fn judge_client(
    draw: Draw,
    stage: &str,
    ty: u8,
    sent: Option<(ErrorCode, String)>,
    ending: Option<&Ending>,
) -> Result<(), String> {
    let failed = match ending {
        Some(Ending::Failed(e)) => Some(e),
        _ => None,
    };
    let fits = match (draw, failed) {
        (Draw::Taken, None) | (Draw::Typed, _) => true,
        (Draw::Ends, Some(NetError::Remote { code, message })) => {
            sent.is_some_and(|sent| sent == (*code, message.clone()))
        }
        (Draw::Refused(_, why), Some(NetError::Protocol(message))) => message.contains(why),
        (Draw::Stray, Some(NetError::Protocol(message))) => {
            message.contains(stage) && message.contains(&format!("type {ty} "))
        }
        _ => false,
    };
    match fits {
        true => Ok(()),
        false => Err(format!(
            "the client ended {failed:?} where it must draw {draw:?}"
        )),
    }
}

/// How many schedules ran, and how many took each kind of move.
#[derive(Default)]
struct Tally {
    schedules: u64,
    took: [u64; KINDS.len()],
    /// Each (end, stage, frame type) a letter met.
    met: BTreeSet<(Side, &'static str, u8)>,
}

impl Tally {
    fn merge(mut self, other: Tally) -> Tally {
        self.schedules += other.schedules;
        self.took
            .iter_mut()
            .zip(other.took)
            .for_each(|(n, m)| *n += m);
        self.met.extend(other.met);
        self
    }
}

/// A schedule, in words.
fn spell(path: &[Move], alphabet: &[Letter]) -> String {
    let words: Vec<String> = path
        .iter()
        .map(|mv| match mv {
            Move::Lie(i) => {
                let letter = &alphabet[*i];
                format!("lie to the {:?}: {}", letter.to, letter.name)
            }
            other => format!("{other:?}"),
        })
        .collect();
    words.join(" · ")
}

/// Replay `path` in `world`: the run, or why it broke an invariant.
fn replay<'a>(world: World, alphabet: &'a [Letter], path: &[Move]) -> Result<Run<'a>, String> {
    let mut run = Run::new(world, alphabet);
    for &mv in path {
        run.play(mv)?;
    }
    Ok(run)
}

/// The search of one world to a depth.
struct Search<'a> {
    world: World,
    alphabet: &'a [Letter],
    depth: usize,
    /// Run two orders of commuting moves once (a sleep set); off, every
    /// order runs.
    reduce: bool,
    tally: Tally,
    /// Every state reached, with the first schedule that reached it,
    /// where a test compares them.
    states: Option<BTreeMap<String, String>>,
}

impl<'a> Search<'a> {
    fn new(world: World, alphabet: &'a [Letter], depth: usize) -> Self {
        Search {
            world,
            alphabet,
            depth,
            reduce: true,
            tally: Tally::default(),
            states: None,
        }
    }

    /// Every schedule extending `path`, but those a sleeping move makes
    /// a reordering of one already run.
    fn from(&mut self, path: &mut Vec<Move>, asleep: &[Move]) -> Result<(), String> {
        let mut run = replay(self.world, self.alphabet, path)?;
        if let Some(states) = &mut self.states {
            let path = spell(path, self.alphabet);
            states.entry(run.state()).or_insert(path);
        }
        let moves = run.moves();
        let awake: Vec<Move> = moves.into_iter().filter(|m| !asleep.contains(m)).collect();
        // Every move asleep: each schedule on is a reordering of one run.
        if path.len() < self.depth && awake.is_empty() && !asleep.is_empty() {
            return Ok(());
        }
        if path.len() == self.depth || awake.is_empty() {
            run.finish()?;
            let tally = &mut self.tally;
            tally.schedules += 1;
            let mut kinds: Vec<usize> = path.iter().map(|m| m.kind()).collect();
            kinds.sort_unstable();
            kinds.dedup();
            kinds.into_iter().for_each(|k| tally.took[k] += 1);
            tally.met.extend(run.met);
            return Ok(());
        }
        drop(run);
        let mut done: Vec<Move> = Vec::new();
        for mv in awake {
            let sleep: Vec<Move> = asleep
                .iter()
                .chain(&done)
                .filter(|s| self.reduce && s.commutes(mv))
                .copied()
                .collect();
            path.push(mv);
            self.from(path, &sleep)?;
            path.pop();
            done.push(mv);
        }
        Ok(())
    }

    /// The schedule that broke an invariant or panicked, and why.
    fn run(&mut self) -> Option<String> {
        let mut path = Vec::new();
        let outcome = catch_unwind(AssertUnwindSafe(|| self.from(&mut path, &[])));
        let why = match outcome {
            Ok(Ok(())) => return None,
            Ok(Err(why)) => why,
            Err(_) => "panicked".to_string(),
        };
        let world = self.world;
        Some(format!("{world:?}: {}: {why}", spell(&path, self.alphabet)))
    }
}

/// Explore every world of `worlds`, failing with the shortest schedule
/// that broke an invariant or panicked.
fn explore_all(worlds: &[World]) -> Tally {
    let alphabet = alphabet();
    let mut tally = Tally::default();
    for &world in worlds {
        let mut search = Search::new(world, &alphabet, DEPTH);
        if search.run().is_some() {
            let failed = (0..=DEPTH).find_map(|depth| Search::new(world, &alphabet, depth).run());
            panic!("explore: {}", failed.expect("it failed at DEPTH"));
        }
        tally = tally.merge(search.tally);
    }
    tally
}

#[test]
fn every_short_schedule_holds_every_invariant() {
    let worlds = worlds();
    // Two threads, half the worlds each.
    let tally = std::thread::scope(|scope| {
        let (first, second) = worlds.split_at(worlds.len() / 2);
        let first = scope.spawn(|| explore_all(first));
        let second = explore_all(second);
        second.merge(
            first
                .join()
                .unwrap_or_else(|e| std::panic::resume_unwind(e)),
        )
    });
    println!(
        "explore: depth {DEPTH}, {} schedules over {} worlds, an alphabet of {} letters",
        tally.schedules,
        worlds.len(),
        alphabet().len()
    );
    for (kind, took) in KINDS.iter().zip(tally.took) {
        println!("explore: {took} schedules took a {kind}");
    }
    assert!(tally.schedules >= AT_LEAST, "{} schedules", tally.schedules);
    // Every stage each end awaits a frame in met every frame type.
    let stages = SERVER_TAKES.map(|(s, _)| (Side::Server, s)).into_iter();
    let stages = stages.chain(CLIENT_TAKES.map(|(s, _)| (Side::Client, s)));
    let missed: Vec<_> = stages
        .flat_map(|(side, stage)| (1..=12).map(move |ty| (side, stage, ty)))
        .filter(|met| !tally.met.contains(met))
        .collect();
    assert!(DEPTH < 6 || missed.is_empty(), "no letter met {missed:?}");
    assert!(tally.took.iter().all(|&n| n > 0));
}

/// The sleep set loses no state: each state some order of the moves
/// reaches, the reduced search reaches too.
#[test]
fn the_sleep_set_reaches_every_state() {
    let alphabet = alphabet();
    let depth = if cfg!(debug_assertions) { 2 } else { 3 };
    for world in worlds() {
        let search = |reduce| {
            let mut search = Search {
                reduce,
                states: Some(BTreeMap::new()),
                ..Search::new(world, &alphabet, depth)
            };
            assert_eq!(search.run(), None);
            (search.states.expect("kept"), search.tally.schedules)
        };
        let (every, all) = search(false);
        let (reached, run) = search(true);
        let lost: Vec<&String> = every
            .iter()
            .filter(|(state, _)| !reached.contains_key(*state))
            .map(|(_, path)| path)
            .collect();
        assert!(
            lost.is_empty(),
            "{world:?}: lost {} states: {lost:?}",
            lost.len()
        );
        println!(
            "{world:?}: {} states, {run} schedules of {all}",
            every.len()
        );
    }
}
