//! A deterministic simulation of the whole service, with no socket, thread
//! or wall clock: N stores behind [`ServerConn`]s and M [`ClientConn`]s —
//! one-shot, `--since` and `--follow` clients, and the nodes' own mesh
//! rounds — over in-memory byte links and a virtual clock, every choice
//! drawn from one `u64` seed.
//!
//! * **Links** carry `frame::encode_frame` bytes, delivered in seeded chunk
//!   sizes and read back with `decode_frame`, so a cut can land mid-body.
//!   Each direction counts what was sent, delivered and discarded. A link
//!   that flows takes what the server queues at once, as a socket buffer
//!   with room does; a stalled one takes nothing.
//! * **A server connection** is a [`Duet`]: the [`ServerConn`] the event
//!   loop drives, driven the same way. A heavy set-up unit it hands off
//!   becomes an event of its own that runs later, in seeded order; until
//!   then the connection takes no frame. `Duet` on its own is the
//!   one-connection, fault-free case: both machines in one thread, every
//!   unit inline.
//! * **Time** is one `Instant` taken when the world is made plus what the
//!   schedule let pass. It passes as an event loop sleeps: once what flows
//!   has arrived, for a seeded while, never past the earliest timer of
//!   either end; every step ends with each timer due fired. The timer
//!   settings of both roles are seeded too — a few seconds, or too long to
//!   add to an instant. A client's are the session deadline, read-idle
//!   and write stall, drawn longer than the server's, and half the clients
//!   run with none; a subscriber's read window is drawn above the server's
//!   keepalive, or never.
//! * **Kept connections:** a one-shot client whose server parked the
//!   connection keeps it at seeded odds, as a `SyncClient` does, and a
//!   later client of that node may open its session there — where every
//!   fault below can reach it, and where the server may have closed it for
//!   its silence meanwhile: a session that fails there before the `Hello`
//!   reply runs again on a fresh connection. Each session's bytes are
//!   counted from where it began on its links.
//! * **Faults:** a partitioned and healed mesh link, a connection cut
//!   mid-frame, a durable node crashed after any op of a store's call, in
//!   any crash state that op allows, and reopened (its stores keep their
//!   files on a recording disk), one WAL append refused while the process
//!   lives on, a changelog short
//!   enough to be trimmed under a reader, a notifier that panics once, a
//!   store's `view` that panics on a set-up unit, a client that falls
//!   silent, a link stalled either way — and a hostile link: one
//!   direction of a connection that from then on rewrites frames
//!   ([`Mutation`]), so that a server's or a client's peer lies.
//! * **Invariants, after every step:** see [`World::check`]; and, as each
//!   timer fires, that a peer is timed out for silence, or a write for a
//!   stall, only where a fault made it so — or, for a server's read-idle,
//!   the client kept the connection with no session on it
//!   ([`World::fire`]): a client's
//!   read-idle only where a link of it stalled or its server was silent,
//!   its set-up unit withheld; its write stall only where its link to the
//!   server stalled. (A deadline, either end's, is a budget the schedule's
//!   time may use up.) On a hostile
//!   connection neither end panics, the client ends in a report or a typed
//!   error, any timer may fire, the report is not held to the truth (the
//!   link can lie), what the link has a store apply joins the union as
//!   that peer's write, and each step a reader takes from the link stays
//!   under [`bound`]. At the end of a schedule the faults stop, hostile
//!   connections are cut, and mesh sweeps run until every node holds the
//!   union of the initial sets and every write.
//!
//! A failing seed panics with the seed, the step, and the line to add to
//! [`REGRESSIONS`]; `replays_the_regressions` runs that list. The default
//! run prints how many seeds fired each timer and, per direction and
//! [`Mutation`], in how many a rewritten frame reached its target, and
//! holds each count to one seed of twenty.

use crate::client::{ClientConfig, DeltaReport, Pipeline, SyncReport};
use crate::conn::{ClientConn, ClientOut, Connection, Due, Ending, Out, ServerConn};
use crate::crc::crc32;
use crate::disk::{Crash, Name, Op, RecordingDisk};
use crate::frame::{
    decode_frame, encode_frame, write_frame, Decoded, ErrorCode, EstimatorMsg, Frame, Hello,
    DEFAULT_MAX_FRAME, FRAME_OVERHEAD,
};
use crate::machine::{ClientMachine, Mode, Phase};
use crate::mesh::{settle, PeerStats, RoundOutcome};
use crate::server::{ServerConfig, ServerStats};
use crate::server_machine::{Crossed, Refusal, Resources, ServerMachine, Step, Waiting};
use crate::store::{
    DeltaAnswer, MutableStore, RegisteredStore, SetStore, StoreNotifier, StoreRegistry, ViewAnswer,
};
use crate::wal::DurableOptions;
use crate::{FrameError, NetError, TransportConfig};
use pbs_core::{PbsConfig, SetView};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The server half of one connection: a [`ServerConn`] whose frames go
/// straight into `inbox` — a refusal's `Error` frame among them.
pub(crate) struct Duet {
    pub res: Arc<Resources>,
    pub conn: ServerConn,
    /// Type byte of every frame delivered to the server.
    pub sent: Vec<u8>,
    /// What the server has answered and the client has not read yet.
    pub inbox: VecDeque<Frame>,
    /// Every boundary the server crossed.
    pub crossed: Vec<Crossed>,
    /// The connection's clock.
    pub now: Instant,
    /// When the session under way opened: the accept, or its `Hello` on a
    /// parked connection.
    opened: Instant,
    /// A heavy set-up unit handed off: the machine, until [`Duet::set_up`].
    held: Option<ServerMachine>,
    /// One of a [`World`]'s connections: a heavy unit waits for an event of
    /// its own, and the link says when what is queued has drained. Alone,
    /// every unit runs inline and every frame is read at once.
    linked: bool,
}

impl Duet {
    /// A server with `config` whose default store is `store`.
    pub fn new(store: Arc<dyn SetStore>, config: ServerConfig) -> Self {
        let res = Resources {
            registry: Arc::new(StoreRegistry::single(store)),
            config,
            stats: Arc::new(ServerStats::default()),
            live_subscribers: AtomicUsize::new(0),
        };
        Self::accept(&Arc::new(res), Instant::now(), false)
    }

    pub fn over(store: Arc<dyn SetStore>) -> Self {
        Self::new(store, ServerConfig::default())
    }

    /// A fresh connection to the server `res` belongs to, at `now`.
    fn accept(res: &Arc<Resources>, now: Instant, linked: bool) -> Self {
        Duet {
            res: Arc::clone(res),
            conn: ServerConn::new(res, now),
            sent: Vec::new(),
            inbox: VecDeque::new(),
            crossed: Vec::new(),
            now,
            opened: now,
            held: None,
            linked,
        }
    }

    /// `Some(completed)` once the server ended the session.
    pub fn closed(&self) -> Option<bool> {
        self.conn.outcome()
    }

    /// The server's machine (here: nothing is handed off).
    pub fn server(&self) -> &ServerMachine {
        self.conn.machine().expect("the machine is here")
    }

    /// `frame` handed to the machine alone: its answer, carried out by
    /// nobody.
    pub fn bare(&mut self, frame: Frame) -> Result<Step, Refusal> {
        let machine = self.conn.machine_mut().expect("the machine is here");
        machine.on_frame(&self.res, frame)
    }

    /// Carry out what the connection decided.
    fn take(&mut self, out: Out) {
        if out.renewed.is_some() {
            self.opened = self.now;
        }
        self.inbox.extend(out.frames);
        self.crossed.extend(out.crossed);
        self.held = self.held.take().or(out.hand_off);
        if !self.linked {
            self.set_up();
            self.conn.flushed(self.now, true, 0);
        }
    }

    /// `true` while a heavy unit is handed off: the connection takes no
    /// frame until [`Duet::set_up`] has run it.
    fn out(&self) -> bool {
        self.held.is_some()
    }

    /// What an event loop does with a received frame.
    pub fn deliver(&mut self, frame: Frame) {
        self.sent.push(frame.type_byte());
        let out = self.conn.on_frame(frame, self.now);
        self.take(out);
        self.conn.listen(self.now);
    }

    /// What an event loop does with bytes that do not decode as a frame.
    fn bad_frame(&mut self, error: FrameError) {
        let out = self.conn.on_bad_frame(NetError::Frame(error), self.now);
        self.take(out);
    }

    /// The heavy unit handed off, run now, as a set-up thread runs it.
    fn set_up(&mut self) {
        let Some(mut machine) = self.held.take() else {
            return;
        };
        let step = ServerConn::set_up(&mut machine, &self.res);
        let out = self.conn.machine_back(machine, step, self.now);
        self.take(out);
    }

    /// What an event loop does when the store changed, with `pending`
    /// bytes still queued toward the subscriber.
    pub fn push(&mut self, pending: usize) {
        let out = self.conn.push(pending, self.now);
        self.take(out);
    }

    /// Fire the first timer due, with `pending` bytes queued.
    fn on_timer(&mut self, pending: usize) -> Option<Due> {
        let (due, out) = self.conn.on_timer(self.now, pending)?;
        self.take(out);
        Some(due)
    }

    /// Pump `client` against the server until neither owes the other a
    /// frame, starting from what it asked last (`out`), and keep every byte
    /// each way in `wire`: how the client ended, if it did.
    pub fn pump(
        &mut self,
        client: &mut ClientConn<'_>,
        mut out: ClientOut,
        wire: &mut [Vec<u8>; 2],
    ) -> Option<Ending> {
        loop {
            for frame in std::mem::take(&mut out.frames) {
                write_frame(&mut wire[0], &frame, DEFAULT_MAX_FRAME).unwrap();
                self.deliver(frame);
            }
            let reply = self.inbox.pop_front()?;
            write_frame(&mut wire[1], &reply, DEFAULT_MAX_FRAME).unwrap();
            out = client.on_frame(reply, self.now);
            if let Some(ending) = client.take_ending() {
                return Some(ending);
            }
        }
    }

    /// One sync of `set` in `mode` against the server's store, through a
    /// client connection: every byte the client put on the wire, every
    /// byte the server did, and the report.
    pub fn transcript(
        &mut self,
        config: &ClientConfig,
        set: &[u64],
        mode: Mode,
    ) -> (Vec<u8>, Vec<u8>, SyncReport) {
        let mut client = ClientConn::new(config, set, mode, self.now).unwrap();
        let (out, mut wire) = (client.connected(self.now), [Vec::new(), Vec::new()]);
        let Some(Ending::Report(report)) = self.pump(&mut client, out, &mut wire) else {
            panic!("the session ends in a report");
        };
        let [up, down] = wire;
        (up, down, *report)
    }

    /// Drive `client` against the server to its report, collecting the
    /// client-side boundaries crossed on the way.
    pub fn run(
        &mut self,
        client: &mut ClientMachine<'_>,
    ) -> Result<(SyncReport, Vec<Phase>), NetError> {
        let mut crossed = Vec::new();
        loop {
            if let Some(frame) = client.poll_send()? {
                self.deliver(frame);
            }
            let reply = self.inbox.pop_front().expect("the server owes a frame");
            let step = client.on_frame(reply)?;
            crossed.extend(step.crossed);
            if let Some(report) = step.report {
                assert_eq!(client.poll_send()?, None, "a finished machine owes nothing");
                return Ok((report, crossed));
            }
        }
    }
}

/// One frame of every type except `Error`.
pub(crate) fn one_of_each() -> Vec<Frame> {
    vec![
        Frame::Hello(Hello::from_config(&PbsConfig::default(), 1, 0)),
        Frame::EstimatorExchange(EstimatorMsg::TowBank(vec![1, 2, 3])),
        Frame::EstimatorExchange(EstimatorMsg::Estimate {
            d_param: 5,
            d_hat: 4.0,
        }),
        Frame::Sketches {
            m: 8,
            batch: Vec::new(),
        },
        Frame::Reports(Vec::new()),
        Frame::Done(Vec::new()),
        Frame::DeltaBatch {
            epoch: 1,
            added: vec![1],
            removed: vec![],
        },
        Frame::DeltaDone { epoch: 1 },
        Frame::FullResyncRequired { epoch: 1 },
        Frame::Subscribe { epoch: 1 },
        Frame::Ping { nonce: 1 },
        Frame::Pong { nonce: 1 },
    ]
}

/// Seeds that once failed, replayed by `replays_the_regressions`; a failing
/// seed's panic names the line to add here.
const REGRESSIONS: &[u64] = &[124];

/// The default run: seeds `0..SEEDS`.
const SEEDS: u64 = 1000;

/// Steps of a schedule while faults are on.
const STEPS: usize = 160;

/// Every node holds stores of these names; a mesh round syncs each with its
/// namesake on the peer.
const NAMES: [&str; 2] = ["", "b"];

/// The odds that a commit to a durable store is refused, while faults are on.
const REFUSE: f64 = 0.05;

/// The odds that a one-shot client keeps a connection its server parked,
/// and that a client of a node with kept connections opens its session on
/// one of them.
const KEEP: f64 = 0.5;
const REUSE: f64 = 0.5;

/// What a client asks: its configuration, set and mode.
type Request = (ClientConfig, Vec<u64>, Mode);

/// The payload of a panic the schedule plants — in a notifier, in a store's
/// `view` — which the panic hook keeps quiet about.
struct Planted;

/// What a store shows its server: every view it hands out is kept for
/// [`World::check`], and one `view` call can be made to panic.
struct Watched {
    inner: Arc<MutableStore>,
    trap: AtomicBool,
    views: Mutex<Vec<Arc<SetView>>>,
}

impl SetStore for Watched {
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
        if self.trap.swap(false, Ordering::Relaxed) {
            std::panic::panic_any(Planted);
        }
        let answer = self.inner.view(seed);
        if let ViewAnswer::Patched(view) | ViewAnswer::Built(view) = &answer {
            self.views.lock().unwrap().push(Arc::clone(view));
        }
        answer
    }
    fn retire_view(&self, seed: u64) {
        self.inner.retire_view(seed)
    }
    fn register_notifier(&self, notifier: StoreNotifier) {
        self.inner.register_notifier(notifier)
    }
}

/// How a hostile link rewrites one frame. The first three rewrite its body:
/// sealed — the length and CRC made again to fit — the body reaches
/// `Frame::decode_body` and the decoders behind it; unsealed, the envelope
/// check stops it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mutation {
    Truncate,
    Flip,
    Garbage,
    /// A length prefix over the reader's cap.
    Oversize,
    /// The sender's previous frame again, behind this one: a frame a
    /// later one overtook.
    Reorder,
    Duplicate,
}

const MUTATIONS: [Mutation; 6] = [
    Mutation::Truncate,
    Mutation::Flip,
    Mutation::Garbage,
    Mutation::Oversize,
    Mutation::Reorder,
    Mutation::Duplicate,
];

/// The odds that a hostile link rewrites a frame it carries.
const HOSTILE: f64 = 0.5;

/// What a hostile link needs: its own draws, and the last frame it carried.
struct Hostile {
    rng: StdRng,
    last: Option<Vec<u8>>,
}

impl Hostile {
    /// The wire bytes of a frame whose body was cut short, bit-flipped, or
    /// replaced by garbage after its type byte; sealed, under a length and
    /// a CRC made to fit it, else with the envelope mutated with it.
    fn rewrite(&mut self, mut wire: Vec<u8>, kind: Mutation, sealed: bool) -> Vec<u8> {
        let rng = &mut self.rng;
        let mut body = wire.split_off(if sealed { FRAME_OVERHEAD as usize } else { 0 });
        match kind {
            Mutation::Truncate => body.truncate(rng.random_range(1..body.len())),
            Mutation::Flip => {
                for _ in 0..rng.random_range(1..=3) {
                    let at = rng.random_range(0..body.len());
                    body[at] ^= 1 << rng.random_range(0..8u32);
                }
            }
            _ => {
                body.truncate(sealed as usize);
                let garbage = rng.random_range(1..64);
                body.extend((0..garbage).map(|_| rng.random::<u64>() as u8));
            }
        }
        if !sealed {
            return body;
        }
        wire.clear();
        wire.extend_from_slice(&(body.len() as u32).to_le_bytes());
        wire.extend_from_slice(&crc32(&body).to_le_bytes());
        wire.extend_from_slice(&body);
        wire
    }
}

/// What the links of one direction carried, as bits: the frame types sent
/// and rewritten, and the mutations that reached their target.
#[derive(Clone, Copy, Default)]
struct Tally {
    sent: u16,
    mutated: u16,
    reached: u8,
}

impl Tally {
    fn merge(&mut self, other: Tally) {
        self.sent |= other.sent;
        self.mutated |= other.mutated;
        self.reached |= other.reached;
    }
}

/// One direction of a connection.
#[derive(Default)]
struct Pipe {
    /// Sent, not yet delivered.
    wire: VecDeque<u8>,
    /// Delivered, not yet read as a frame.
    rx: Vec<u8>,
    sent: u64,
    delivered: u64,
    discarded: u64,
    /// Wire bytes of the frames read off `rx`.
    read: u64,
    /// The sender is done: what is on the wire is all there will be.
    closed: bool,
    /// Nothing sent arrives (a fault): the sender's writes stall.
    stalled: bool,
    /// Rewrites frames at [`HOSTILE`] odds (a fault).
    hostile: Option<Hostile>,
    /// Where in the stream each frame a counted mutation put on the wire
    /// begins.
    marks: VecDeque<(u64, Mutation)>,
    tally: Tally,
}

impl Pipe {
    fn send(&mut self, frame: &Frame) {
        let mut bytes = Vec::new();
        encode_frame(&mut bytes, frame, DEFAULT_MAX_FRAME).expect("under the cap");
        let ty = 1 << frame.type_byte();
        self.tally.sent |= ty;
        let Some(mut hostile) = self.hostile.take() else {
            return self.put(&bytes, None);
        };
        let rng = &mut hostile.rng;
        let kind = rng
            .random_bool(HOSTILE)
            .then(|| MUTATIONS[rng.random_range(0..6usize)]);
        self.tally.mutated |= ty * kind.is_some() as u16;
        let last = hostile.last.replace(bytes.clone());
        match kind {
            None => self.put(&bytes, None),
            Some(Mutation::Reorder) => {
                self.put(&bytes, None);
                if let Some(last) = last {
                    self.put(&last, kind);
                }
            }
            Some(Mutation::Duplicate) => {
                self.put(&bytes, None);
                self.put(&bytes, kind);
            }
            Some(Mutation::Oversize) => {
                let over = DEFAULT_MAX_FRAME + hostile.rng.random_range(1..1024u32);
                bytes[..4].copy_from_slice(&over.to_le_bytes());
                self.put(&bytes, kind);
            }
            Some(body) => {
                let sealed = hostile.rng.random_bool(0.5);
                let bytes = hostile.rewrite(bytes, body, sealed);
                self.put(&bytes, kind.filter(|_| sealed));
            }
        }
        self.hostile = Some(hostile);
    }

    /// Put `bytes` on the wire — once the sender is done, nowhere — and
    /// mark where they begin if `mark` is to be counted.
    fn put(&mut self, bytes: &[u8], mark: Option<Mutation>) {
        if let (Some(kind), false) = (mark, self.closed) {
            self.marks.push_back((self.sent, kind));
        }
        self.sent += bytes.len() as u64;
        match self.closed {
            true => self.discarded += bytes.len() as u64,
            false => self.wire.extend(bytes),
        }
    }

    fn deliver(&mut self, n: usize) {
        self.rx.extend(self.wire.drain(..n));
        self.delivered += n as u64;
    }

    /// The whole frame at the head of what arrived, if there is one. Bytes
    /// that do not decode stay at the head. A frame a counted mutation put
    /// there is tallied if it reached its target: `Frame::decode_body` for
    /// a sealed body, `decode_frame`'s cap for a length prefix, the
    /// reader's machine for a reordered or duplicated frame.
    fn next_frame(&mut self) -> Result<Option<Frame>, FrameError> {
        while self.marks.front().is_some_and(|&(at, _)| at < self.read) {
            self.marks.pop_front();
        }
        let decoded = decode_frame(&self.rx, DEFAULT_MAX_FRAME);
        if let Some(&(_, kind)) = self.marks.front().filter(|&&(at, _)| at == self.read) {
            let reached = match (&decoded, kind) {
                (Ok(Decoded::Short(_)), _) => false,
                (Err(FrameError::TooLarge { .. }), Mutation::Oversize) => true,
                (Ok(Decoded::Whole(..)), Mutation::Reorder | Mutation::Duplicate) => true,
                (Err(FrameError::BadCrc | FrameError::TooLarge { .. }), _) => false,
                (_, body) => matches!(
                    body,
                    Mutation::Truncate | Mutation::Flip | Mutation::Garbage
                ),
            };
            self.tally.reached |= (reached as u8) << kind as u8;
        }
        match decoded? {
            Decoded::Whole(frame, used) => {
                self.rx.drain(..used);
                self.read += used as u64;
                Ok(Some(frame))
            }
            Decoded::Short(_) => Ok(None),
        }
    }

    /// The reader has come to the end of the stream.
    fn at_eof(&self) -> bool {
        self.closed && self.wire.is_empty()
    }

    /// A prefix of what is in flight arrives, the rest is lost, the stream
    /// ends.
    fn cut(&mut self, keep: usize) {
        self.deliver(keep);
        self.discarded += self.wire.len() as u64;
        self.wire.clear();
        self.closed = true;
    }

    /// What the sender has queued and the link not taken: a link that flows
    /// takes every byte at once, as a socket buffer with room does.
    fn pending(&self) -> usize {
        self.wire.len() * self.stalled as usize
    }

    fn conserved(&self) -> bool {
        self.sent == self.delivered + self.discarded + self.wire.len() as u64
            && self.delivered == self.read + self.rx.len() as u64
    }
}

/// Element `k` of a schedule, scrambled over the 32-bit universe (one
/// element per `k`): sets of small consecutive integers would hand the
/// additive checksum of §2.2.3 collisions no real set has, such as a bin
/// of {1, 16, 44} decoded as the one element 61. Nor may the scramble be
/// linear in `k`: ids in arithmetic progression would still be two pairs
/// of one sum (seed 124 verified a difference four elements short). An odd
/// multiply and a right xorshift are each one-to-one on 31 bits.
fn element(k: u64) -> u64 {
    let mut x = k.wrapping_mul(0x9E37_79B1) & 0x7FFF_FFFF;
    x ^= x >> 16;
    x = x.wrapping_mul(0x045D_9F3B) & 0x7FFF_FFFF;
    (x ^ x >> 15) + 1
}

fn sorted(store: &MutableStore) -> Vec<u64> {
    let mut set = store.snapshot();
    set.sort_unstable();
    set
}

/// One store of a node, and what the simulation knows of it.
struct Slot {
    /// The store, behind the face its server is given.
    watched: Arc<Watched>,
    /// The set at every epoch the store has stood at, as its changelog
    /// replays it.
    history: BTreeMap<u64, HashSet<u64>>,
    /// The last epoch seen.
    epoch: u64,
    /// Elements of every `Done` the server acked, less those a writer has
    /// taken out since.
    acked: HashSet<u64>,
    acked_grew: bool,
    /// Every seed a `Hello` to this store proposed.
    proposed: HashSet<u64>,
    /// Elements a writer took out and owes back.
    flapped: BTreeSet<u64>,
    options: DurableOptions,
    /// The disk of a durable store.
    disk: Option<RecordingDisk>,
}

impl Slot {
    /// A store served through its [`Watched`] face.
    fn watched(store: Arc<MutableStore>, options: DurableOptions) -> Slot {
        let (set, epoch) = store.snapshot_with_epoch();
        Slot {
            watched: Arc::new(Watched {
                inner: store,
                trap: AtomicBool::new(false),
                views: Mutex::default(),
            }),
            history: BTreeMap::from([(epoch, set.into_iter().collect())]),
            epoch,
            acked: HashSet::new(),
            acked_grew: false,
            proposed: HashSet::new(),
            flapped: BTreeSet::new(),
            options,
            disk: None,
        }
    }

    /// A durable store on `disk`.
    fn durable(store: MutableStore, disk: RecordingDisk, options: DurableOptions) -> Slot {
        Slot {
            disk: Some(disk),
            ..Slot::watched(Arc::new(store), options)
        }
    }

    fn store(&self) -> &Arc<MutableStore> {
        &self.watched.inner
    }
}

struct Node {
    res: Arc<Resources>,
    slots: Vec<Slot>,
    /// Set by every store's notifier: the node owes its subscribers a push.
    dirty: Arc<AtomicBool>,
    /// The node's stores are durable.
    durable: bool,
    mesh: PeerStats,
    /// Wire bytes of the node's verified mesh syncs, as its links carried
    /// them: (sent, received).
    mesh_bytes: (u64, u64),
    /// The mesh round under way: the peer, and the stores still to sync.
    round: Option<(usize, Vec<usize>)>,
    /// One store of the round is on a connection.
    leg: bool,
}

impl Node {
    /// The classic fallbacks of this server's sessions: a delta `Hello`
    /// answered `FullResyncRequired` by a store whose changelog holds 2 or
    /// 4 batches, and a snapshot copied where the store declined a view.
    fn classic(&self) -> [u64; 2] {
        let stores = self.slots.iter().zip(NAMES);
        stores.fold([0, 0], |[trimmed, declined], (slot, name)| {
            let entry = self.res.registry.get(name).expect("registered");
            let stats = entry.stats().snapshot();
            let short = (slot.options.log_capacity <= 4) as u64;
            [
                trimmed + short * stats.delta_fallbacks,
                declined + stats.views_declined,
            ]
        })
    }

    /// A node's server over `slots`' stores, each with the notifier that
    /// marks the node dirty.
    fn serve(config: ServerConfig, slots: Vec<Slot>, durable: bool) -> Node {
        let registry = StoreRegistry::new();
        let dirty = Arc::new(AtomicBool::new(false));
        for (slot, name) in slots.iter().zip(NAMES) {
            let flag = Arc::clone(&dirty);
            slot.store().register_notifier(Box::new(move |_| {
                flag.store(true, Ordering::Relaxed);
                true
            }));
            registry.register(name, Arc::clone(&slot.watched) as Arc<dyn SetStore>);
        }
        let res = Resources {
            registry: Arc::new(registry),
            config,
            stats: Arc::new(ServerStats::default()),
            live_subscribers: AtomicUsize::new(0),
        };
        let (mesh, mesh_bytes, round, leg) = (PeerStats::default(), (0, 0), None, false);
        let res = Arc::new(res);
        Node {
            res,
            slots,
            dirty,
            durable,
            mesh,
            mesh_bytes,
            round,
            leg,
        }
    }

    /// Store `s`, as the node's server routes to it.
    fn entry(&self, s: usize) -> Arc<RegisteredStore> {
        self.res.registry.get(NAMES[s]).expect("registered")
    }
}

/// What the client end of a connection is for.
enum Role {
    /// A one-shot sync of `held` — a delta from `since`, or a full session —
    /// or, with `mesh` naming the node, a store of that node's mesh round.
    Sync {
        held: HashSet<u64>,
        since: Option<u64>,
        mesh: Option<usize>,
    },
    /// A live subscriber: what it holds, at the epoch it stands at.
    Follow { held: HashSet<u64>, epoch: u64 },
}

struct Conn {
    /// The server's node, and the store the client names.
    node: usize,
    slot: usize,
    /// `None` once the server end is over: closed and counted, or gone
    /// with its process.
    server: Option<Duet>,
    /// `None` once the client end has hung up.
    client: Option<ClientConn<'static>>,
    role: Role,
    /// Client → server, server → client.
    up: Pipe,
    down: Pipe,
    /// The server's boundaries already looked at.
    seen: usize,
    /// The seed the `Hello` reply named.
    seed: u64,
    /// The client keeps the connection, with no session on it.
    idle: bool,
    /// The server closed it on read-idle while it was kept.
    stale: bool,
    /// Where the client's session began, as its links count: sent up,
    /// read down, delivered up, delivered down.
    base: [u64; 4],
    /// A session on a kept connection the server has not answered yet: its
    /// request, to run again on a fresh connection should this one fail.
    again: Option<Request>,
    /// The client end reads and sends nothing (a fault).
    silent: bool,
    /// A link of it turned hostile (a fault): either end may be lied to.
    hostile: bool,
}

impl Conn {
    fn mesh_of(&self) -> Option<usize> {
        match self.role {
            Role::Sync { mesh, .. } => mesh,
            Role::Follow { .. } => None,
        }
    }
}

/// One schedule: the nodes, the connections between them, and the union
/// every node must hold once the faults stop.
struct World {
    rng: StdRng,
    step: usize,
    /// The virtual clock: the instant the world was made, plus every step
    /// time took since.
    now: Instant,
    /// The clients' timer settings: the session deadline, read-idle and
    /// write stall.
    client_timers: (Duration, Option<Duration>, Option<Duration>),
    /// The timers that have fired, by name.
    fired: BTreeSet<&'static str>,
    nodes: Vec<Node>,
    conns: Vec<Conn>,
    /// Per store name: the initial sets and every write that landed.
    expected: Vec<BTreeSet<u64>>,
    /// Mesh links cut off, as (lower, higher) node index.
    partitioned: BTreeSet<(usize, usize)>,
    /// The id of the last element a writer introduced ([`element`]); the
    /// initial sets' ids sit below.
    fresh: u64,
    faults: bool,
    /// A notifier has panicked on purpose.
    panicked: bool,
    /// Crash states a reopen was held to.
    crash_states: u64,
    /// [`Node::classic`] of the servers a crash replaced.
    classic: [u64; 2],
    /// What the links of the connections gone carried, client → server
    /// and back.
    tally: [Tally; 2],
    /// The next connection opens over a link hostile one way (up if
    /// `true`).
    hostile_next: Option<(bool, Hostile)>,
    /// What became of kept connections: "reused" once a session opened on
    /// one, "retried" once one failed before the `Hello` reply and its
    /// session ran again on a fresh connection — and "retried off a
    /// read-idle close" where the server had closed it for its silence.
    reuse: BTreeSet<&'static str>,
}

impl World {
    fn new(seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let (nodes, stores) = (rng.random_range(2..=4usize), rng.random_range(1..=2usize));
        let durable = rng.random_bool(0.5).then(|| rng.random_range(0..nodes));
        let buffer = if rng.random_bool(0.3) { 256 } else { 1 << 20 };
        // Timers short enough to fire within a schedule, or too long to add
        // to an instant: never due.
        let (secs, never) = (Duration::from_secs, Duration::MAX);
        let mut pick = |options: [Duration; 3]| options[rng.random_range(0..3usize)];
        let (deadline, keepalive) = (
            pick([secs(3), secs(10), never]),
            pick([secs(1), secs(3), never]),
        );
        let (read, write) = (
            pick([secs(2), secs(6), never]),
            pick([secs(1), secs(30), never]),
        );
        // A client's windows are drawn longer than the server's, as a
        // deployment's are against a set-up of milliseconds: one that timed
        // out every set-up the schedule withheld would cut each session
        // before its server came back to it.
        let client_timers = (
            pick([secs(6), secs(30), never]),
            Some(pick([secs(6), secs(20), never])),
            Some(pick([secs(1), secs(30), never])),
        );
        let config = ServerConfig {
            subscriber_buffer: buffer,
            session_deadline: deadline,
            keepalive,
            transport: TransportConfig {
                read_timeout: Some(read),
                write_timeout: Some(write),
                ..TransportConfig::default()
            },
            ..ServerConfig::default()
        };
        let base = (1..=rng.random_range(20..60u64)).map(element);
        let mut expected = vec![base.clone().collect::<BTreeSet<u64>>(); stores];
        let mut built = Vec::new();
        for i in 0..nodes {
            let durable = durable == Some(i);
            let mut slots = Vec::new();
            for (s, expected) in expected.iter_mut().enumerate() {
                let wedge = 10_000 * (i as u64 + 1) + 1000 * s as u64;
                let set: Vec<u64> = base
                    .clone()
                    .chain((wedge..wedge + rng.random_range(0..12)).map(element))
                    .collect();
                expected.extend(&set);
                let options = DurableOptions {
                    log_capacity: [2, 4, 1024][rng.random_range(0..3usize)],
                    snapshot_every: 8,
                    sync_writes: durable && rng.random_bool(0.5),
                };
                let slot = match durable {
                    true => {
                        let disk = RecordingDisk::default();
                        let store = open(&disk, options);
                        store.apply(&set, &[]);
                        Slot::durable(store, disk, options)
                    }
                    false => {
                        let store = MutableStore::with_epoch_origin(set, 0, options.log_capacity);
                        Slot::watched(Arc::new(store), options)
                    }
                };
                slots.push(slot);
            }
            built.push(Node::serve(config, slots, durable));
        }
        World {
            rng,
            step: 0,
            now: Instant::now(),
            client_timers,
            fired: BTreeSet::new(),
            nodes: built,
            conns: Vec::new(),
            expected,
            partitioned: BTreeSet::new(),
            fresh: 1 << 20,
            faults: true,
            panicked: false,
            crash_states: 0,
            classic: [0; 2],
            tally: [Tally::default(); 2],
            hostile_next: None,
            reuse: BTreeSet::new(),
        }
    }

    fn fresh(&mut self) -> u64 {
        self.fresh += 1;
        element(self.fresh)
    }

    fn pick_slot(&mut self) -> (usize, usize) {
        let i = self.rng.random_range(0..self.nodes.len());
        (i, self.rng.random_range(0..self.nodes[i].slots.len()))
    }

    /// Before a commit to a durable store: at [`REFUSE`] odds, have its WAL
    /// append fail while the process lives on. The caller disarms what this
    /// returns once the commit is made.
    fn refusal(&mut self, i: usize, s: usize) -> Option<RecordingDisk> {
        let armed = self.faults && self.nodes[i].durable && self.rng.random_bool(REFUSE);
        let disk = self.nodes[i].slots[s].disk.clone().filter(|_| armed)?;
        disk.fail(0, |op| matches!(op, Op::Write(Name::Wal, _)));
        Some(disk)
    }

    /// A client connects to store `s` of node `i` and puts its `Hello` on
    /// the wire.
    fn connect(&mut self, i: usize, s: usize, mut client: ClientConn<'static>, role: Role) {
        let res = &self.nodes[i].res;
        res.stats.sessions_started.inc(1);
        let (mut up, mut down) = (Pipe::default(), Pipe::default());
        let hostile = self.hostile_next.take().map(|(way, link)| match way {
            true => up.hostile = Some(link),
            false => down.hostile = Some(link),
        });
        let hello = client.connected(self.now).frames;
        assert!(
            matches!(hello[..], [Frame::Hello(_)]),
            "a client opens with a Hello"
        );
        up.send(&hello[0]);
        self.conns.push(Conn {
            node: i,
            slot: s,
            server: Some(Duet::accept(res, self.now, true)),
            client: Some(client),
            role,
            up,
            down,
            seen: 0,
            seed: 0,
            idle: false,
            stale: false,
            base: [0; 4],
            again: None,
            silent: false,
            hostile: hostile.is_some(),
        });
    }

    /// After anything happened to connection `c`: each end takes what has
    /// arrived, and reads end-of-stream once the other is done.
    fn touch(&mut self, c: usize) {
        self.serve(c);
        self.read(c);
        self.serve(c);
    }

    /// The server end takes every whole frame that arrived — none while a
    /// handed-off unit is owed — and ends when its machine closes the
    /// session or the client's stream ends.
    fn serve(&mut self, c: usize) {
        loop {
            let conn = &mut self.conns[c];
            let (i, s) = (conn.node, conn.slot);
            let open = conn
                .server
                .as_ref()
                .is_some_and(|d| d.closed().is_none() && !d.out());
            if !open {
                break;
            }
            let (hostile, wire) = (conn.hostile, conn.up.rx.len());
            let frame = match metered(hostile, wire, || conn.up.next_frame()) {
                Ok(Some(frame)) => frame,
                Ok(None) => break,
                // As an event loop does: a wrong-version peer is told so
                // (the frame stays at the head; met again, it ends the
                // session), other garbage ends the session.
                Err(e) => {
                    assert!(hostile, "an honest link carried bytes that do not decode");
                    conn.server.as_mut().expect("checked above").bad_frame(e);
                    self.flush(c);
                    continue;
                }
            };
            if let Frame::Hello(hello) = &frame {
                self.nodes[i].slots[s].proposed.insert(hello.seed);
            }
            let transfer = match &frame {
                Frame::Done(elements) if !elements.is_empty() => Some(elements.clone()),
                _ => None,
            };
            let refusal = transfer.as_ref().and_then(|_| self.refusal(i, s));
            let duet = self.conns[c].server.as_mut().expect("checked above");
            let before = duet.crossed.len();
            metered(hostile, wire, || duet.deliver(frame));
            let reconciled = |c: &Crossed| matches!(c, Crossed::Reconciled { .. });
            let acked = duet.crossed[before..].iter().any(reconciled);
            if let Some(disk) = refusal {
                disk.disarm();
            }
            if let (Some(elements), true) = (transfer, acked) {
                // What a hostile link had the store take is that peer's write.
                if hostile {
                    self.expected[s].extend(&elements);
                }
                let slot = &mut self.nodes[i].slots[s];
                slot.acked.extend(elements);
                slot.acked_grew = true;
            }
            self.flush(c);
        }
        let conn = &mut self.conns[c];
        let Some(duet) = conn.server.as_mut() else {
            return;
        };
        if conn.up.at_eof() && !duet.out() {
            duet.conn.hang_up(duet.now, conn.down.pending());
        }
        if duet.closed().is_some() {
            self.end_server(c);
        }
    }

    /// Put what the server answered on the wire, and look at the
    /// boundaries it crossed.
    fn flush(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let Some(duet) = conn.server.as_mut() else {
            return;
        };
        let sent = !duet.inbox.is_empty() && !conn.down.stalled;
        for frame in duet.inbox.drain(..) {
            if let Frame::Hello(reply) = &frame {
                conn.seed = reply.seed;
            }
            conn.down.send(&frame);
        }
        duet.conn.flushed(duet.now, sent, conn.down.pending());
        let node = &self.nodes[conn.node];
        for crossed in &duet.crossed[conn.seen..] {
            match crossed {
                // The event loop pushes the catch-up right after a Subscribe.
                Crossed::Subscribed { .. } => node.dirty.store(true, Ordering::Relaxed),
                Crossed::Estimated { view, .. } if *view != "none" => {
                    let peers = node.slots[conn.slot].proposed.contains(&conn.seed);
                    assert!(!peers, "a view under a peer's proposed seed");
                }
                _ => {}
            }
        }
        conn.seen = duet.crossed.len();
    }

    /// The server end is over: what the link took still arrives, what it
    /// left queued is lost.
    fn end_server(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        match (conn.server.take(), conn.down.stalled) {
            (Some(_), true) => conn.down.cut(0),
            (Some(_), false) => conn.down.closed = true,
            (None, _) => {}
        }
    }

    /// The client end takes every whole frame that arrived and answers,
    /// and reads end-of-stream once the server end is done.
    fn read(&mut self, c: usize) {
        loop {
            let (conn, now) = (&mut self.conns[c], self.now);
            let Some(client) = conn.client.as_mut().filter(|_| !conn.silent) else {
                return;
            };
            let (down, up) = (&mut conn.down, &mut conn.up);
            // Bytes that do not decode end the session, as over a socket.
            let out = metered(conn.hostile, down.rx.len(), || {
                let out = match down.next_frame() {
                    Ok(frame) => client.on_frame(frame?, now),
                    Err(e) => client.on_bad_frame(NetError::Frame(e), now),
                };
                out.frames.iter().for_each(|frame| up.send(frame));
                let moved = !out.frames.is_empty() && !up.stalled;
                client.flushed(now, moved, up.pending());
                client.listen(now);
                Some(out)
            });
            let Some(out) = out else {
                break;
            };
            if let Some(push) = out.push {
                self.on_push(c, push);
            }
            if let Some(ending) = self.conns[c]
                .client
                .as_mut()
                .and_then(ClientConn::take_ending)
            {
                return self.end_client(c, ending);
            }
        }
        let conn = &mut self.conns[c];
        if let Some(client) = conn.client.as_mut().filter(|_| conn.down.at_eof()) {
            client.hang_up(self.now, 0);
            let ending = client.take_ending().expect("the end of the stream ends it");
            self.end_client(c, ending);
        }
    }

    fn hang_up(&mut self, c: usize) {
        self.conns[c].client = None;
        self.conns[c].up.closed = true;
    }

    /// A client ended: a subscriber whose stream ended between bursts, or
    /// a one-shot or mesh client with its report, or failed — for a reason
    /// the schedule gave it, and with the bytes its link delivered. A
    /// one-shot client whose server parked the connection may keep it,
    /// with nothing in flight its way; one whose session on a kept
    /// connection failed before the `Hello` reply runs it again on a fresh
    /// one.
    fn end_client(&mut self, c: usize, ending: Ending) {
        let conn = &mut self.conns[c];
        let answered = conn.client.as_ref().is_some_and(ClientConn::answered);
        let parked = matches!(&ending, Ending::Report(report) if report.epoch.is_some());
        let at_rest = conn.up.pending() == 0 && conn.down.rx.is_empty() && !conn.down.at_eof();
        let one_shot = matches!(conn.role, Role::Sync { mesh: None, .. });
        if parked && at_rest && one_shot && self.rng.random_bool(KEEP) {
            (conn.client, conn.idle) = (None, true);
        } else {
            self.hang_up(c);
        }
        let result = match (ending, self.conns[c].again.take()) {
            (Ending::Failed(_), Some(again)) if !answered => return self.redial(c, again),
            (Ending::Closed, _) => return,
            (Ending::Report(report), _) => Ok(*report),
            (Ending::Failed(error), _) => Err(error),
        };
        let conn = &mut self.conns[c];
        let (hostile, base) = (conn.hostile, conn.base);
        let result = result.map(|mut report| {
            let read = (conn.up.sent - base[0], conn.down.read - base[1]);
            (report.bytes_sent, report.bytes_received) = read;
            let link = (conn.up.delivered - base[2], conn.down.delivered - base[3]);
            assert!(
                hostile || read == link,
                "session bytes {read:?}, delivered {link:?}"
            );
            report
        });
        if let Err(e) = &result {
            // On a hostile link, any typed error may be the link's doing.
            let given = hostile
                || match e {
                    NetError::Io(_) => true,
                    NetError::Remote { code, .. } => {
                        matches!(code, ErrorCode::Internal | ErrorCode::RoundLimit)
                    }
                    NetError::Protocol(why) => why.contains("full sync") || why.contains("evicted"),
                    NetError::Frame(_) => false,
                };
            assert!(given, "a session failed for no fault of the schedule: {e}");
        }
        let (i, s) = (conn.node, conn.slot);
        let Role::Sync { held, since, mesh } = &mut conn.role else {
            return;
        };
        let (held, since, mesh) = (std::mem::take(held), *since, *mesh);
        let verified = result.as_ref().ok().filter(|report| report.verified);
        let bytes = verified.map(|report| (report.bytes_sent, report.bytes_received));
        // A hostile link's report is not held to the truth: an
        // unauthenticated link can lie. What it has the node apply is that
        // peer's write.
        let pulled = verified.filter(|_| hostile).map(SyncReport::pulled);
        if let Some(report) = verified.filter(|_| !hostile) {
            let from = report.delta.as_ref().map(|delta| delta.from_epoch);
            assert!(
                from.is_none() || from == since,
                "a delta from another epoch"
            );
            self.check_sync((i, s), &held, report);
        }
        let Some(from) = mesh else {
            return;
        };
        let node = &mut self.nodes[from];
        node.leg = false;
        if let Some((sent, received)) = bytes {
            node.mesh_bytes = (node.mesh_bytes.0 + sent, node.mesh_bytes.1 + received);
        }
        let refusal = self.refusal(from, s);
        let (node, outcome) = (&self.nodes[from], &mut RoundOutcome::default());
        if settle(&node.entry(s), result, &node.mesh, outcome).is_ok() {
            self.expected[s].extend(pulled.unwrap_or_default());
        }
        if let Some(disk) = refusal {
            disk.disarm();
        }
        self.advance_round(from);
    }

    /// A verified session recovered exactly `held △ B`, with `B` the
    /// store's set at the epoch it was acked at; a delta leads from the set
    /// at its first epoch to the set at its last.
    fn check_sync(&mut self, (i, s): (usize, usize), held: &HashSet<u64>, report: &SyncReport) {
        if let Some(delta) = &report.delta {
            let mut set = self.set_at(i, s, delta.from_epoch);
            delta.apply_to(&mut set);
            assert!(set == self.set_at(i, s, delta.to_epoch), "a delta astray");
        } else if let Some(epoch) = report.epoch {
            let theirs = self.set_at(i, s, epoch);
            let mut truth: Vec<u64> = held.symmetric_difference(&theirs).copied().collect();
            truth.sort_unstable();
            assert_eq!(report.recovered, truth, "a verified session's difference");
        }
    }

    /// A push starts where the last one ended, and leaves the subscriber
    /// holding what the store held at its epoch — over an honest link.
    fn on_push(&mut self, c: usize, push: DeltaReport) {
        if self.conns[c].hostile {
            return;
        }
        let (i, s) = (self.conns[c].node, self.conns[c].slot);
        let want = self.set_at(i, s, push.to_epoch);
        let Role::Follow { held, epoch } = &mut self.conns[c].role else {
            panic!("a push reached a one-shot client");
        };
        assert_eq!(push.from_epoch, *epoch, "a push skipped or repeated epochs");
        push.apply_to(held);
        *epoch = push.to_epoch;
        assert!(*held == want, "a subscriber holds another set");
    }

    /// The next store of node `i`'s mesh round goes on a connection.
    fn advance_round(&mut self, i: usize) {
        while !self.nodes[i].leg {
            let Some((peer, rest)) = &mut self.nodes[i].round else {
                return;
            };
            let (peer, next) = (*peer, rest.pop());
            let node = &mut self.nodes[i];
            let Some(s) = next else {
                node.round = None;
                return;
            };
            node.mesh.syncs_attempted.fetch_add(1, Ordering::Relaxed);
            if self.partitioned.contains(&(i.min(peer), i.max(peer))) {
                let refused = NetError::Io(std::io::ErrorKind::ConnectionRefused.into());
                let outcome = &mut RoundOutcome::default();
                let _ = settle(&node.entry(s), Err(refused), &node.mesh, outcome);
                continue;
            }
            let held = sorted(node.slots[s].store());
            let config = ClientConfig {
                store: NAMES[s].into(),
                ..self.client_defaults()
            };
            let client = ClientConn::new(&config, held.clone(), Mode::Full, self.now);
            let client = client.expect("valid");
            let node = &mut self.nodes[i];
            node.leg = true;
            let (held, since, mesh) = (held.into_iter().collect(), None, Some(i));
            self.connect(peer, s, client, Role::Sync { held, since, mesh });
        }
    }

    /// Node `i`'s stores changed: each live subscriber is pushed what it
    /// lacks, within the room its link leaves under the buffer cap.
    fn push(&mut self, i: usize) {
        self.nodes[i].dirty.store(false, Ordering::Relaxed);
        for c in 0..self.conns.len() {
            let conn = &mut self.conns[c];
            let Some(duet) = conn.server.as_mut().filter(|_| conn.node == i) else {
                continue;
            };
            if duet.conn.streaming() {
                duet.push(conn.down.pending());
                self.flush(c);
                self.touch(c);
            }
        }
    }

    /// One event of the network or the servers, if one is due: a chunk of
    /// bytes arrives where the link flows, a handed-off set-up unit runs
    /// (if `hand_offs`), a dirty node pushes.
    fn progress(&mut self, hand_offs: bool) -> bool {
        let mut due = Vec::new();
        for (c, conn) in self.conns.iter().enumerate() {
            let out = hand_offs && conn.server.as_ref().is_some_and(Duet::out);
            let up = !conn.up.wire.is_empty() && !conn.up.stalled;
            let down = !conn.down.wire.is_empty() && !conn.down.stalled;
            let kinds = [up, down, out];
            due.extend((0..3).filter(|&k| kinds[k]).map(|k| (c, k)));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            due.extend(node.dirty.load(Ordering::Relaxed).then_some((i, 3)));
        }
        if due.is_empty() {
            return false;
        }
        match due[self.rng.random_range(0..due.len())] {
            (i, 3) => self.push(i),
            (c, 2) => {
                self.conns[c].server.as_mut().expect("owes a unit").set_up();
                self.flush(c);
                self.touch(c);
            }
            (c, k) => {
                let conn = &mut self.conns[c];
                let pipe = if k == 0 { &mut conn.up } else { &mut conn.down };
                let len = pipe.wire.len();
                let part = self.rng.random_range(1..=len);
                pipe.deliver(if self.rng.random_bool(0.5) { len } else { part });
                if let Some(duet) = conn.server.as_mut().filter(|_| k == 1) {
                    duet.conn.flushed(duet.now, true, conn.down.pending());
                }
                if let Some(client) = conn.client.as_mut().filter(|_| k == 0) {
                    client.flushed(self.now, true, conn.up.pending());
                }
                self.touch(c);
            }
        }
        true
    }

    /// Time passes, as an event loop sleeps: once what flows has arrived
    /// and dirty nodes have pushed, for a seeded while — never past the
    /// earliest timer. (Every step ends with the timers due firing.)
    fn pass_time(&mut self) {
        while self.progress(false) {}
        let timers = self.conns.iter().flat_map(|conn| {
            let server = conn.server.as_ref();
            let server = server.and_then(|duet| duet.conn.next_timer(conn.down.pending()));
            let client = conn.client.as_ref().filter(|_| !conn.silent);
            [server, client.and_then(|c| c.next_timer(conn.up.pending()))]
        });
        let timers = timers.flatten();
        let step = [250, 1000, 8000][self.rng.random_range(0..3usize)];
        let until = self.now + Duration::from_millis(step);
        self.now = timers.fold(until, Instant::min).max(self.now);
        for conn in &mut self.conns {
            conn.server.iter_mut().for_each(|duet| duet.now = self.now);
        }
    }

    /// Connection `c`'s first timer due, at either end, if one is: fired,
    /// recorded, and held to the schedule — a peer is timed out for
    /// silence, and a write stalls, only where a fault made it so.
    fn fire(&mut self, c: usize) -> bool {
        self.fire_client(c) || self.fire_server(c)
    }

    fn fire_server(&mut self, c: usize) -> bool {
        let conn = &mut self.conns[c];
        let Some(duet) = conn.server.as_mut() else {
            return false;
        };
        let (out, pending) = (duet.out(), conn.down.pending());
        let Some(due) = duet.on_timer(pending) else {
            return false;
        };
        // On a hostile connection any timer may come due; a kept
        // connection is silent by the client's choice.
        let stalled = conn.down.stalled || conn.hostile;
        let faulted = conn.silent || conn.idle || conn.up.stalled || stalled;
        conn.stale |= conn.idle && due == Due::ReadIdle;
        let timer = match due {
            Due::Ping => Some("ping"),
            Due::Dead => faulted.then_some("liveness cut"),
            Due::ReadIdle => faulted.then_some("read-idle close"),
            Due::Deadline if out => Some("deadline, machine out"),
            Due::Deadline => Some("deadline, machine here"),
            Due::WriteStall => stalled.then_some("write-stall close"),
            Due::Drain if pending == 0 => Some("drained"),
            Due::Drain => stalled.then_some("drain grace"),
        };
        let Some(timer) = timer else {
            panic!("{due:?} fired where nothing was silent or stalled");
        };
        self.fired.insert(timer);
        self.flush(c);
        self.touch(c);
        true
    }

    /// The client end's: it times out a silent server only where a link of
    /// it stalled or the server's set-up unit is withheld, and a write only
    /// where its link to the server stalled. (A frozen client's clock does
    /// not run.)
    fn fire_client(&mut self, c: usize) -> bool {
        let conn = &mut self.conns[c];
        let Some(client) = conn.client.as_mut().filter(|_| !conn.silent) else {
            return false;
        };
        let Some((due, _)) = client.on_timer(self.now, conn.up.pending()) else {
            return false;
        };
        let ending = client
            .take_ending()
            .expect("a client timer ends the session");
        let up = conn.up.stalled || conn.hostile;
        let withheld = conn.server.as_ref().is_some_and(Duet::out);
        let timer = match due {
            Due::Deadline => Some("client deadline"),
            Due::ReadIdle => (up || conn.down.stalled || withheld).then_some("client read-idle"),
            Due::WriteStall => up.then_some("client write stall"),
            _ => None,
        };
        let Some(timer) = timer else {
            panic!("the client's {due:?} fired where nothing was silent or stalled");
        };
        self.fired.insert(timer);
        self.end_client(c, ending);
        self.touch(c);
        true
    }

    /// A local write: fresh elements in, one element out (owed back) or
    /// one owed element back in.
    fn write(&mut self) {
        let (i, s) = self.pick_slot();
        let refusal = self.refusal(i, s);
        let kind = self.rng.random_range(0..4u32);
        let many = self.rng.random_range(1..=3);
        let fresh: Vec<u64> = (0..many).map(|_| self.fresh()).collect();
        let slot = &mut self.nodes[i].slots[s];
        let store = Arc::clone(slot.store());
        match kind {
            0 => {
                let set = sorted(&store);
                let x = set[self.rng.random_range(0..set.len())];
                let _ = store.try_apply(&[], &[x]);
                if !store.contains(x) {
                    slot.flapped.insert(x);
                    slot.acked.remove(&x);
                }
            }
            1 if !slot.flapped.is_empty() => {
                let nth = self.rng.random_range(0..slot.flapped.len());
                let y = *slot.flapped.iter().nth(nth).expect("in range");
                let _ = store.try_apply(&[y], &[]);
                if store.contains(y) {
                    slot.flapped.remove(&y);
                }
            }
            _ => drop(store.try_apply(&fresh, &[])),
        }
        let held = store.snapshot();
        self.expected[s].extend(held.into_iter().filter(|e| fresh.contains(e)));
        if let Some(disk) = refusal {
            disk.disarm();
        }
    }

    /// What a client runs under: the world's client timers, or — half the
    /// time, so that a server's own timers meet every schedule — none.
    fn client_defaults(&mut self) -> ClientConfig {
        let timed = self.rng.random_bool(0.5);
        let never = (Duration::MAX, None, None);
        let (session_deadline, read_timeout, write_timeout) = match timed {
            true => self.client_timers,
            false => never,
        };
        ClientConfig {
            session_deadline,
            transport: TransportConfig {
                read_timeout,
                write_timeout,
                ..TransportConfig::default()
            },
            ..ClientConfig::default()
        }
    }

    fn client_config(&mut self, s: usize) -> ClientConfig {
        let pipeline = match self.rng.random_bool(0.5) {
            true => Pipeline::Auto,
            false => Pipeline::Depth(self.rng.random_range(1..=3)),
        };
        let (seed, store) = (self.rng.random(), NAMES[s].into());
        ClientConfig {
            seed,
            store,
            pipeline,
            ..self.client_defaults()
        }
    }

    /// An epoch a reader of store `s` of node `i` might stand at — now and
    /// then one this store never reaches — and the set it then holds.
    fn pick_epoch(&mut self, i: usize, s: usize) -> (u64, HashSet<u64>) {
        self.record(i, s);
        let history = &self.nodes[i].slots[s].history;
        let (&last, _) = history.last_key_value().expect("an epoch or zero");
        if self.rng.random_bool(0.1) {
            return (last + 1000, HashSet::new());
        }
        let nth = self.rng.random_range(0..history.len());
        let (&epoch, set) = history.iter().nth(nth).expect("in range");
        (epoch, set.clone())
    }

    /// A one-shot client: a full sync of part of what the mesh knows, or a
    /// delta from an epoch of the store's; or a subscriber from one.
    fn open_client(&mut self, follow: bool) {
        let (i, s) = self.pick_slot();
        let mut config = self.client_config(s);
        // A subscriber's read window must outlast the server's keepalive.
        let keepalive = self.nodes[i].res.config.keepalive;
        let read = &mut config.transport.read_timeout;
        if follow && read.is_some_and(|read| read <= keepalive) {
            *read = None;
        }
        let (mode, since, held) = match self.rng.random_bool(0.4) || follow {
            true => {
                let (since, held) = self.pick_epoch(i, s);
                (Mode::Delta { since }, Some(since), held)
            }
            false => {
                let pick = |_: &u64| self.rng.random_bool(0.9);
                let held = self.expected[s].iter().copied().filter(pick).collect();
                (Mode::Full, None, held)
            }
        };
        let (request, role) = match (follow, since) {
            (true, Some(since)) => {
                let subscribe = Mode::Subscribe { since };
                let role = Role::Follow { held, epoch: since };
                ((config, Vec::new(), subscribe), role)
            }
            _ => {
                let mut set: Vec<u64> = held.iter().copied().collect();
                set.sort_unstable();
                let mesh = None;
                ((config, set, mode), Role::Sync { held, since, mesh })
            }
        };
        self.dial((i, s), request, role);
    }

    /// A client's session of `set` in `mode` on store `s` of node `i`: at
    /// [`REUSE`] odds on a connection to that node an earlier client kept,
    /// if there is one — where it may meet a server that has closed it —
    /// else on a fresh one.
    fn dial(&mut self, (i, s): (usize, usize), request: Request, role: Role) {
        let (config, set, mode) = request;
        let client = ClientConn::new(&config, set.clone(), mode, self.now);
        let mut client = client.expect("a valid request");
        let kept: Vec<usize> = (0..self.conns.len())
            .filter(|&c| self.conns[c].idle && self.conns[c].node == i)
            .collect();
        if kept.is_empty() || !self.rng.random_bool(REUSE) {
            return self.connect(i, s, client, role);
        }
        let c = kept[self.rng.random_range(0..kept.len())];
        self.reuse.insert("reused");
        let conn = &mut self.conns[c];
        let (up, down) = (&mut conn.up, &mut conn.down);
        conn.base = [up.sent, down.read, up.delivered, down.delivered];
        up.send(&client.connected(self.now).frames[0]);
        (conn.slot, conn.idle, conn.role) = (s, false, role);
        (conn.client, conn.again) = (Some(client), Some((config, set, mode)));
        self.touch(c);
    }

    /// Connection `c`'s session failed on a kept connection before the
    /// `Hello` reply: it runs again on a fresh one.
    fn redial(&mut self, c: usize, (config, set, mode): Request) {
        let conn = &mut self.conns[c];
        let (i, s) = (conn.node, conn.slot);
        let gone = Role::Follow {
            held: HashSet::new(),
            epoch: 0,
        };
        let role = std::mem::replace(&mut conn.role, gone);
        let client = ClientConn::new(&config, set, mode, self.now).expect("a valid request");
        self.reuse.insert("retried");
        if conn.stale {
            self.reuse.insert("retried off a read-idle close");
        }
        self.connect(i, s, client, role);
    }

    fn mesh_round(&mut self, i: usize, peer: usize) {
        if self.nodes[i].round.is_none() {
            self.nodes[i].round = Some((peer, (0..self.nodes[i].slots.len()).rev().collect()));
            self.advance_round(i);
        }
    }

    fn fault(&mut self) {
        let nodes = self.nodes.len();
        let a = self.rng.random_range(0..nodes);
        let link = (a, (a + self.rng.random_range(1..nodes)) % nodes);
        let link = (link.0.min(link.1), link.0.max(link.1));
        match self.rng.random_range(0..18usize) {
            // A partition cuts the mesh syncs across it and refuses new ones.
            0 if self.partitioned.insert(link) => {
                for c in 0..self.conns.len() {
                    let (node, from) = (self.conns[c].node, self.conns[c].mesh_of());
                    if from.is_some_and(|from| (from.min(node), from.max(node)) == link) {
                        self.cut(c);
                    }
                }
            }
            1 => drop(self.partitioned.remove(&link)),
            2..=4 if !self.conns.is_empty() => {
                let c = self.rng.random_range(0..self.conns.len());
                self.cut(c);
            }
            5 => {
                if let Some(i) = self.nodes.iter().position(|node| node.durable) {
                    self.crash(i);
                }
            }
            6 | 7 => self.panic_a_notifier(),
            // A client falls silent; a link stops carrying the server's
            // bytes, or the client's.
            kind @ 8..=11 if !self.conns.is_empty() => {
                let c = self.rng.random_range(0..self.conns.len());
                let conn = &mut self.conns[c];
                conn.silent |= kind == 8;
                conn.down.stalled |= kind == 9 || kind == 10;
                conn.up.stalled |= kind == 11;
            }
            // A link turns hostile, one way: from here it rewrites frames
            // (the next connection's, from its `Hello` on).
            kind @ 12..=17 => {
                let rng = StdRng::seed_from_u64(self.rng.random());
                let (up, link) = (kind % 2 == 0, Hostile { rng, last: None });
                let c = self.rng.random_range(0..=self.conns.len());
                let Some(conn) = self.conns.get_mut(c) else {
                    self.hostile_next = Some((up, link));
                    return;
                };
                let pipe = if up { &mut conn.up } else { &mut conn.down };
                pipe.hostile.get_or_insert(link);
                conn.hostile = true;
            }
            _ => {
                // A set-up unit that panics: the next view of a store.
                let (i, s) = self.pick_slot();
                let watched = &self.nodes[i].slots[s].watched;
                watched.trap.store(true, Ordering::Relaxed);
            }
        }
    }

    /// Cut connection `c`: a seeded prefix of what is on the wire arrives,
    /// the rest is lost, and both ends read end-of-stream.
    fn cut(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let (up, down) = (conn.up.wire.len(), conn.down.wire.len());
        conn.up.cut(self.rng.random_range(0..=up));
        conn.down.cut(self.rng.random_range(0..=down));
        self.touch(c);
    }

    /// Kill durable node `i` during one store's last call — a commit or a
    /// compaction — then reopen it: its connections drop, uncounted, and
    /// every reopened store must stand at the epoch it died at, holding
    /// what it held, or, where the crash kept the batch it was writing
    /// whole, at the next epoch with that batch landed. Every crash state
    /// after every op of the call is recovered and held to that; the node
    /// goes on from one of them. (A power loss may take back an unsynced
    /// append the store acknowledged, so on a store that does not sync its
    /// writes only the process's crash states are held to it.)
    fn crash(&mut self, i: usize) {
        let s = self.rng.random_range(0..self.nodes[i].slots.len());
        let doomed = self.fresh();
        let slot = &self.nodes[i].slots[s];
        let (store, disk) = (Arc::clone(slot.store()), slot.disk.clone());
        let disk = disk.expect("a durable store records its disk");
        let start = disk.ops();
        match self.rng.random_bool(0.5) {
            true => drop(store.try_apply(&[doomed], &[])),
            false => drop(store.compact_now()),
        }
        let mut states = Vec::new();
        for k in start..=disk.ops() {
            states.extend(disk.crash_states(k, &mut self.rng));
        }
        if !self.nodes[i].slots[s].options.sync_writes {
            states.retain(|(crash, _)| *crash == Crash::Process);
        }
        let drawn = self.rng.random_range(0..states.len());
        let mut dropped = Vec::new();
        for (c, conn) in self.conns.iter_mut().enumerate() {
            let (served, dialed) = (conn.node == i, conn.mesh_of() == Some(i));
            if served || dialed {
                conn.server = conn.server.take().filter(|_| !served);
                conn.client = conn.client.take().filter(|_| !dialed);
                conn.up.cut(0);
                conn.down.cut(0);
                dropped.push(c);
            }
        }
        let mut slots = std::mem::take(&mut self.nodes[i].slots);
        for (t, slot) in slots.iter_mut().enumerate() {
            // The other stores had no call under way: they stand as they were.
            let (disk, options) = (slot.disk.as_ref().expect("durable"), slot.options);
            let states = match t == s {
                true => std::mem::take(&mut states),
                false => vec![(Crash::Process, disk.files())],
            };
            let mut reopened = None;
            for (n, (_, files)) in states.into_iter().enumerate() {
                let disk = RecordingDisk::new(files);
                let store = open(&disk, options);
                let (set, epoch) = store.snapshot_with_epoch();
                let mut want = slot.history[&slot.epoch].clone();
                if t == s && epoch == slot.epoch + 1 {
                    want.insert(doomed);
                } else {
                    assert_eq!(epoch, slot.epoch, "reopened at another epoch");
                }
                let set: HashSet<u64> = set.into_iter().collect();
                assert!(set == want, "reopened with another set");
                self.crash_states += 1;
                if t != s || n == drawn {
                    reopened = Some((store, disk, epoch, set));
                }
            }
            let (store, disk, epoch, set) = reopened.expect("one state drawn");
            if epoch > slot.epoch {
                // The batch the crash kept is a write like any other.
                self.expected[s].insert(doomed);
                slot.history.insert(epoch, set);
                slot.epoch = epoch;
            }
            let face = Slot::durable(store, disk, options);
            (slot.watched, slot.disk) = (face.watched, face.disk);
        }
        let (config, classic) = (self.nodes[i].res.config, self.nodes[i].classic());
        self.classic = [0, 1].map(|k| self.classic[k] + classic[k]);
        self.nodes[i] = Node::serve(config, slots, true);
        // Their peers read end-of-stream from a node that is up again.
        for c in dropped {
            self.touch(c);
        }
    }

    /// A notifier that panics the first time it is called: the write that
    /// calls it lands all the same, and every later commit goes on.
    fn panic_a_notifier(&mut self) {
        let (i, s) = self.pick_slot();
        if self.panicked {
            return;
        }
        let store = Arc::clone(self.nodes[i].slots[s].store());
        self.panicked = true;
        let armed = AtomicBool::new(true);
        store.register_notifier(Box::new(move |_| {
            if armed.swap(false, Ordering::Relaxed) {
                std::panic::panic_any(Planted);
            }
            true
        }));
        let e = self.fresh();
        let write = catch_unwind(AssertUnwindSafe(|| store.apply(&[e], &[])));
        assert!(write.is_err() && store.contains(e), "lands, then panics");
        self.expected[s].insert(e);
    }

    /// Bring store `s` of node `i`'s history up to its epoch by replaying
    /// the changelog — which must lead to the set the store holds — and
    /// hold the epoch to never going back.
    fn record(&mut self, i: usize, s: usize) {
        let slot = &mut self.nodes[i].slots[s];
        let store = Arc::clone(slot.store());
        let epoch = store.epoch();
        assert!(epoch >= slot.epoch, "an epoch went back");
        if epoch == slot.epoch {
            return;
        }
        let mut set = slot.history[&slot.epoch].clone();
        if let DeltaAnswer::Changes { batches, .. } = store.delta_since(slot.epoch) {
            for batch in batches {
                batch.removed.iter().for_each(|e| _ = set.remove(e));
                set.extend(&batch.added);
                slot.history.insert(batch.epoch, set.clone());
            }
        }
        let (now, at) = store.snapshot_with_epoch();
        let now: HashSet<u64> = now.into_iter().collect();
        let replayed = slot.history.insert(at, now);
        let astray = replayed.is_some_and(|set| set != slot.history[&at]);
        assert!(!astray, "the changelog replays to another set");
        (slot.epoch, slot.acked_grew) = (at, true);
    }

    fn set_at(&mut self, i: usize, s: usize, epoch: u64) -> HashSet<u64> {
        self.record(i, s);
        let history = &self.nodes[i].slots[s].history;
        history
            .get(&epoch)
            .cloned()
            .unwrap_or_else(|| panic!("epoch {epoch} was never seen"))
    }

    /// The invariants, after every step:
    /// * no store's epoch goes back, and its changelog replays to its set;
    /// * every element of a `Done` the server acked is in the store, and
    ///   still is after a crash and reopen (unless a writer took it out);
    /// * every view a store handed out is the cold build of its set at the
    ///   view's epoch, under the view's seed;
    /// * `sessions_started == completed + failed + open`, per node and per
    ///   store, and every live subscriber holds its slot;
    /// * no session stands past its deadline before its final ack without
    ///   having been refused;
    /// * every link conserves its bytes, and a node's mesh byte counters
    ///   are what its links delivered.
    ///
    /// Checked where they happen: a verified session recovers exactly
    /// `A △ B`; a delta and every push lead to the store's set at their
    /// epoch, with no gap; no view is under a seed a peer proposed; a
    /// finished session's bytes are what its link delivered; and a session
    /// fails only for a fault the schedule made.
    fn check(&mut self) {
        for i in 0..self.nodes.len() {
            for s in 0..self.nodes[i].slots.len() {
                self.record(i, s);
                let slot = &mut self.nodes[i].slots[s];
                if std::mem::take(&mut slot.acked_grew) {
                    let held: HashSet<u64> = slot.store().snapshot().into_iter().collect();
                    let lost = slot.acked.difference(&held).next();
                    assert!(
                        lost.is_none(),
                        "the server acked {lost:?}, which it does not hold"
                    );
                }
                let views = std::mem::take(&mut *slot.watched.views.lock().unwrap());
                for view in views {
                    let set = self.set_at(i, s, view.epoch()).into_iter().collect();
                    let sketches = estimator::DEFAULT_SKETCH_COUNT;
                    let cold = SetView::build(set, view.seed(), sketches, view.epoch());
                    assert!(
                        *view == cold,
                        "a view handed out is not its set's cold build"
                    );
                }
            }
        }
        let balanced = |stats: &ServerStats, open: usize| {
            let stats = stats.snapshot();
            stats.sessions_started == stats.sessions_completed + stats.sessions_failed + open as u64
        };
        for (i, node) in self.nodes.iter().enumerate() {
            let open: Vec<&Duet> = self
                .conns
                .iter()
                .filter(|conn| conn.node == i)
                .filter_map(|conn| conn.server.as_ref())
                .filter(|duet| duet.closed().is_none())
                .collect();
            assert!(
                balanced(&node.res.stats, open.len()),
                "node {i}: sessions leaked"
            );
            for s in 0..node.slots.len() {
                let entry = node.entry(s);
                let routed = open
                    .iter()
                    .filter(|d| d.conn.entry().is_some_and(|e| std::ptr::eq(e, &*entry)));
                assert!(
                    balanced(entry.stats(), routed.count()),
                    "store {i}/{s}: sessions leaked"
                );
            }
            let streaming = open
                .iter()
                .filter(|d| d.conn.waiting() == Waiting::Streaming);
            for conn in self.conns.iter().filter(|conn| conn.node == i) {
                let running =
                    |d: &Duet| !d.conn.closing() && d.conn.waiting() == Waiting::Reconciling;
                let Some(duet) = &conn.server else {
                    continue;
                };
                let deadline = duet.opened.checked_add(node.res.config.session_deadline);
                let over = deadline.is_some_and(|at| self.now >= at);
                let outlived = over && running(duet);
                assert!(!outlived, "a session outlived its deadline");
            }
            let slots = node.res.live_subscribers.load(Ordering::Relaxed);
            assert_eq!(slots, streaming.count(), "node {i}: subscriber slots");
            let (sent, received) = (&node.mesh.bytes_sent, &node.mesh.bytes_received);
            let mesh = (
                sent.load(Ordering::Relaxed),
                received.load(Ordering::Relaxed),
            );
            assert_eq!(mesh, node.mesh_bytes, "node {i}: mesh byte counters");
        }
        let conserved = self
            .conns
            .iter()
            .all(|conn| conn.up.conserved() && conn.down.conserved());
        assert!(conserved, "a link lost count of its bytes");
    }

    /// One step over: connections both ends are done with go, then every
    /// invariant is checked.
    fn end_step(&mut self) {
        self.step += 1;
        // What an event loop does before it sleeps: fire what is due.
        while (0..self.conns.len()).filter(|&c| self.fire(c)).count() > 0 {}
        let tally = &mut self.tally;
        self.conns.retain(|conn| {
            let flying = !conn.up.wire.is_empty() || !conn.down.wire.is_empty();
            let keep = conn.server.is_some() || conn.client.is_some() || flying || conn.idle;
            if !keep {
                tally[0].merge(conn.up.tally);
                tally[1].merge(conn.down.tally);
            }
            keep
        });
        self.check();
    }

    fn drain(&mut self) {
        while self.progress(true) {
            self.end_step();
        }
    }

    /// Every node holds the union of its store's initial sets and every
    /// write; else how far off the first that does not is.
    fn converged(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            for (s, slot) in node.slots.iter().enumerate() {
                let held: BTreeSet<u64> = sorted(slot.store()).into_iter().collect();
                let lacks = self.expected[s].difference(&held).count();
                let extra = held.difference(&self.expected[s]).count();
                if lacks + extra > 0 {
                    return Err(format!(
                        "store {i}/{s} lacks {lacks} elements, has {extra} more"
                    ));
                }
            }
        }
        Ok(())
    }

    /// What every link carried, client → server and back.
    /// [`Node::classic`] of every server the schedule ran.
    fn classic(&self) -> [u64; 2] {
        self.nodes.iter().fold(self.classic, |sum, node| {
            let more = node.classic();
            [sum[0] + more[0], sum[1] + more[1]]
        })
    }

    fn carried(&self) -> [Tally; 2] {
        let mut tally = self.tally;
        for conn in &self.conns {
            tally[0].merge(conn.up.tally);
            tally[1].merge(conn.down.tally);
        }
        tally
    }

    /// The schedule: seeded steps with faults on; then the faults stop,
    /// subscribers hang up, hostile connections are cut, every owed element
    /// goes back, and mesh sweeps around the ring run until every node
    /// holds the union — within a bound.
    fn run(&mut self) {
        for _ in 0..STEPS {
            let nodes = self.nodes.len();
            let (i, hop) = (
                self.rng.random_range(0..nodes),
                self.rng.random_range(1..nodes),
            );
            match self.rng.random_range(0..100u32) {
                0..=51 => drop(self.progress(true)),
                52..=61 => self.pass_time(),
                62..=69 => self.write(),
                70..=76 => self.mesh_round(i, (i + hop) % nodes),
                77..=83 => self.open_client(false),
                84..=88 => self.open_client(true),
                _ => self.fault(),
            }
            self.end_step();
        }
        self.faults = false;
        self.partitioned.clear();
        self.hostile_next = None;
        for c in 0..self.conns.len() {
            let conn = &mut self.conns[c];
            (conn.silent, conn.up.stalled, conn.down.stalled) = (false, false, false);
            if let Role::Follow { .. } = conn.role {
                self.hang_up(c);
            }
            // A kept connection is let go.
            if std::mem::take(&mut self.conns[c].idle) {
                self.hang_up(c);
            }
            // A hostile link may have left bytes no end will finish
            // reading (a length prefix cut short): it is cut.
            if self.conns[c].hostile {
                self.cut(c);
            }
            self.touch(c);
        }
        for i in 0..self.nodes.len() {
            for s in 0..self.nodes[i].slots.len() {
                let slot = &mut self.nodes[i].slots[s];
                let (owed, store) = (std::mem::take(&mut slot.flapped), Arc::clone(slot.store()));
                for y in owed {
                    store.apply(&[y], &[]);
                    self.record(i, s);
                }
            }
        }
        // What a stall held back arrives before any clock is read again.
        while self.progress(false) {}
        self.end_step();
        self.drain();
        let nodes = self.nodes.len();
        for _ in 0..2 * nodes + 2 {
            if self.converged().is_ok() {
                return;
            }
            for i in 0..nodes {
                self.mesh_round(i, (i + 1) % nodes);
                self.drain();
            }
        }
        if let Err(off) = self.converged() {
            panic!("the mesh did not converge once the faults stopped: {off}");
        }
    }
}

/// The durable store on the directory `disk` holds.
fn open(disk: &RecordingDisk, options: DurableOptions) -> MutableStore {
    let (store, _) = MutableStore::open_on(Box::new(disk.clone()), options).expect("opens");
    store
}

/// The lib test binary's allocator: the system's, counting on each thread
/// the bytes it hands out, so that [`metered`] can hold a step to a bound.
struct Counting;

#[global_allocator]
static COUNTING: Counting = Counting;

thread_local! {
    /// Bytes handed out on this thread so far.
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    /// During a metered step, the count past which the allocator refuses —
    /// and the process aborts — so that a step far over its bound cannot
    /// take the machine's memory before the check after it fails the seed.
    static CEILING: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Bytes handed out on this thread so far, for a test that holds a call
/// to what it allocates.
pub(crate) fn allocated() -> u64 {
    ALLOCATED.get()
}

/// Count `bytes` handed out on this thread: `false` past the ceiling.
fn hand_out(bytes: usize) -> bool {
    let total = ALLOCATED.try_with(|n| {
        n.set(n.get() + bytes as u64);
        n.get()
    });
    total.unwrap_or(0) <= CEILING.try_with(Cell::get).unwrap_or(u64::MAX)
}

// SAFETY: each call goes to `System` with its arguments unchanged, or
// returns null, which a `GlobalAlloc` may for an allocation that failed;
// the count is a thread-local `Cell`, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        match hand_out(layout.size()) {
            true => System.alloc(layout),
            false => std::ptr::null_mut(),
        }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        match hand_out(layout.size()) {
            true => System.alloc_zeroed(layout),
            false => std::ptr::null_mut(),
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        match hand_out(size.saturating_sub(layout.size())) {
            true => System.realloc(ptr, layout, size),
            false => std::ptr::null_mut(),
        }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Bytes a reader on a hostile link may allocate per byte that arrived: a
/// report bin one wire bit wide decodes to 16 bytes.
const PER_WIRE_BYTE: u64 = 128;

/// Bytes a session may hold per difference it is planned for: its groups
/// and a first trip's sketches, at the deepest pipeline a server grants.
const PER_D: u64 = 256;

/// What scales with the simulation's own sets, of a few hundred elements.
const SLACK: u64 = 4 << 20;

/// The most one step of a reader on a hostile link may allocate, `wire`
/// bytes having arrived: decoding them (a `Done`'s elements, at most
/// `max_done_elements`, are within its bytes), and taking and answering a
/// frame — a session planned for up to `max_d` differences, the cap both
/// ends hold a peer's `d` to. Not metered, so not bounded here: a set-up
/// unit handed off — a store's view, Bob's build, O(|B|) — which runs as
/// an event of its own.
fn bound(wire: usize) -> u64 {
    let max_d = ClientConfig::default()
        .max_d
        .max(ServerConfig::default().max_d);
    PER_WIRE_BYTE * wire as u64 + PER_D * max_d + SLACK
}

/// Run `step` — a reader's decode of what arrived over a hostile link
/// (`wire` bytes), or its taking and answering one frame — and hold what
/// it allocates to [`bound`].
fn metered<T>(hostile: bool, wire: usize, step: impl FnOnce() -> T) -> T {
    /// Lifts the ceiling however the step ends.
    struct Lift;
    impl Drop for Lift {
        fn drop(&mut self) {
            CEILING.set(u64::MAX);
        }
    }
    if !hostile {
        return step();
    }
    let (bound, start) = (bound(wire), ALLOCATED.get());
    CEILING.set(start + 2 * bound);
    let out = {
        let _lift = Lift;
        step()
    };
    let spent = ALLOCATED.get() - start;
    assert!(
        spent <= bound,
        "a step on a hostile link allocated {spent} bytes, over its bound of {bound}"
    );
    out
}

/// What a schedule that held showed: the timers that fired, what became
/// of kept connections, what the links carried, how many crash states a
/// reopen was held to, and its classic fallbacks ([`World::classic`]).
type Shown = (
    BTreeSet<&'static str>,
    BTreeSet<&'static str>,
    [Tally; 2],
    u64,
    [u64; 2],
);

/// Run the schedule of `seed` to its end, or say where it failed. (The
/// panics the schedule plants are kept out of the test output.)
fn run_seed(seed: u64) -> Result<Shown, String> {
    static QUIET: std::sync::Once = std::sync::Once::new();
    QUIET.call_once(|| {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !info.payload().is::<Planted>() {
                hook(info);
            }
        }));
    });
    let mut world = None;
    let run = catch_unwind(AssertUnwindSafe(|| world.insert(World::new(seed)).run()));
    let mut world = world.expect("made before it runs");
    let carried = world.carried();
    let reuse = std::mem::take(&mut world.reuse);
    let (crashes, classic) = (world.crash_states, world.classic());
    let shown = |()| {
        (
            std::mem::take(&mut world.fired),
            reuse,
            carried,
            crashes,
            classic,
        )
    };
    run.map(shown).map_err(|panic| {
        let why = (panic.downcast_ref::<String>().map(String::as_str))
            .or_else(|| panic.downcast_ref::<&str>().copied())
            .unwrap_or("a panic");
        let step = world.step;
        format!("sim seed {seed} failed at step {step}: {why}\n  replay it: add `{seed},` to sim::REGRESSIONS")
    })
}

/// The default run, on two threads. It also holds the schedules to making
/// every timer fire, every mutation reach its target each way, a session
/// open on a kept connection and one run again off a closed one, in one
/// seed of twenty at least, to rewriting every frame type sent, and to
/// holding reopens to two crash states a seed.
#[test]
fn a_thousand_seeded_fault_schedules_hold_every_invariant() {
    let start = std::time::Instant::now();
    let half = |half| {
        move || {
            (half..SEEDS)
                .step_by(2)
                .map(run_seed)
                .collect::<Result<Vec<_>, _>>()
        }
    };
    let halves = std::thread::scope(|scope| {
        [scope.spawn(half(0)), scope.spawn(half(1))].map(|h| h.join().expect("a runner thread"))
    });
    let failures: Vec<&str> = halves
        .iter()
        .filter_map(|h| h.as_ref().err())
        .map(|e| &**e)
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    let mut seeds = BTreeMap::<&str, u64>::new();
    let reuse = ["reused", "retried", "retried off a read-idle close"];
    let mut kept = BTreeMap::from(reuse.map(|what| (what, 0u64)));
    let (mut reached, mut links, mut crashes) = ([[0u64; 6]; 2], [Tally::default(); 2], 0);
    let mut classic = [0u64; 2];
    for (fired, reuse, tally, crash_states, fallbacks) in halves.iter().flatten().flatten() {
        crashes += crash_states;
        for (sum, n) in classic.iter_mut().zip(fallbacks) {
            *sum += (*n > 0) as u64;
        }
        fired
            .iter()
            .for_each(|timer| *seeds.entry(timer).or_default() += 1);
        reuse
            .iter()
            .for_each(|what| *kept.entry(what).or_default() += 1);
        for way in 0..2 {
            links[way].merge(tally[way]);
            for (kind, n) in reached[way].iter_mut().enumerate() {
                *n += (tally[way].reached >> kind & 1) as u64;
            }
        }
    }
    seeds.remove("drained");
    eprintln!(
        "sim: {SEEDS} seeds in {:?}; seeds a timer fired in: {seeds:?}",
        start.elapsed()
    );
    eprintln!("sim: seeds a kept connection was: {kept:?}");
    eprintln!("sim: crash states a reopen was held to: {crashes}");
    let [trimmed, declined] = classic;
    eprintln!(
        "sim: seeds a classic session followed a delta Hello off a changelog of 2 or 4 batches \
         in: {trimmed}; seeds a session copied a declined snapshot in: {declined}"
    );
    for (way, name) in ["client → server", "server → client"]
        .into_iter()
        .enumerate()
    {
        let counts = MUTATIONS.map(|kind| format!("{kind:?} {}", reached[way][kind as usize]));
        eprintln!(
            "sim: seeds a rewritten {name} frame reached its target in: {}",
            counts.join(", ")
        );
    }
    assert!(
        seeds.len() == 10 && seeds.values().all(|&n| n >= SEEDS / 20),
        "{seeds:?}"
    );
    assert!(
        reached.iter().flatten().all(|&n| n >= SEEDS / 20),
        "{reached:?}"
    );
    assert!(kept.values().all(|&n| n >= SEEDS / 20), "{kept:?}");
    assert!(crashes >= 2 * SEEDS, "{crashes} crash states");
    assert!(trimmed > 0 && declined > 0, "{classic:?}");
    for (way, links) in links.iter().enumerate() {
        let never = links.sent & !links.mutated;
        assert_eq!(
            never, 0,
            "way {way}: frame types sent, never rewritten: {never:#b}"
        );
    }
}

#[test]
fn replays_the_regressions() {
    for &seed in REGRESSIONS {
        if let Err(why) = run_seed(seed) {
            panic!("{why}");
        }
    }
}

/// The service is part of the reproduction: `reproduce table2`'s planned
/// point at d = 1 000, run through [`Duet`] — under a seed the store
/// derived, with `Pipeline::Auto`, every frame wire-v7 packed — and held to
/// `analysis`'s prediction by the Wilson intervals `reproduce` holds the
/// in-process scheme to: `P(R ≤ 1)` inside its interval, and `P(R ≤ k)` for
/// k = 2..=r — verified within r layers the last of them — not below it
/// (from round 2 on the model is a floor: it decodes no group over the
/// capacity and counts a split part over it as lost). Each trial runs the
/// session capped at k layers for each k on a fresh copy of the store: the
/// layers up to the cap, and the verification after each, do not depend on
/// the cap. The family is these r intervals at the one family-wise
/// confidence, each from the trials actually run.
#[test]
fn a_duet_session_is_held_to_the_analysis() {
    let trials: u64 = if cfg!(debug_assertions) { 40 } else { 1_000 };
    let (d, held) = (1_000usize, 2_000usize);
    let pbs = crate::frame::service_plan(32);
    let plan = pbs_core::Pbs::new(pbs).plan(d);
    let r = pbs.target_rounds;
    let predicted = analysis::predict(plan.n, plan.t, d, plan.groups, r, pbs.universe_bits);
    let mut verified = vec![0u64; r as usize];
    for trial in 0..trials {
        let mut rng = StdRng::seed_from_u64(0xD0E7_0000 + trial);
        let mut drawn = HashSet::new();
        while drawn.len() < held + d {
            drawn.insert(rng.random_range(1..1u64 << 32));
        }
        let mut pool: Vec<u64> = drawn.into_iter().collect();
        pool.sort_unstable();
        let (b, diff) = pool.split_at(held);
        let a = pool.clone();
        let proposal = rng.random::<u64>();
        for (k, count) in verified.iter_mut().enumerate() {
            // A full session of the store's own set leaves the next one
            // due a view, under a seed of the store's making.
            let store = Arc::new(MutableStore::new(b.iter().copied()));
            let own = ClientConfig {
                seed: proposal,
                known_d: Some(1),
                ..ClientConfig::default()
            };
            Duet::over(Arc::clone(&store) as Arc<dyn SetStore>).transcript(&own, b, Mode::Full);
            let config = ClientConfig {
                seed: proposal,
                known_d: Some(d as u64),
                pipeline: Pipeline::Auto,
                round_cap: k as u32 + 1,
                pbs,
                ..ClientConfig::default()
            };
            let mut duet = Duet::over(store);
            let mut client = ClientMachine::new(&config, &a[..], Mode::Full).unwrap();
            let (report, _) = duet.run(&mut client).unwrap();
            assert_ne!(report.seed, proposal, "trial {trial}: the store's seed");
            assert_eq!(report.round_trips.min(1), 1, "trial {trial}");
            if report.verified {
                assert_eq!(report.recovered, diff, "trial {trial}, cap {}", k + 1);
            }
            *count += report.verified as u64;
        }
    }
    let z = analysis::interval::bonferroni_z(analysis::interval::FAMILY_CONFIDENCE, r as usize);
    for (k, &count) in verified.iter().enumerate() {
        let interval = analysis::interval::wilson(count, trials, z);
        let (within, p) = (k + 1, predicted.done_within[k]);
        let reading = format!("P(R ≤ {within}) = {count}/{trials}, {interval:?}, predicted {p}");
        eprintln!("duet: {reading}");
        match within {
            1 => assert!(interval.contains(p), "{reading}"),
            _ => assert!(interval.hi >= p, "{reading}"),
        }
    }
}
