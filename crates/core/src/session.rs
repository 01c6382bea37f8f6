//! The two-party PBS state machines.
//!
//! [`AliceSession`] and [`BobSession`] hold each party's per-group state and
//! exchange the messages defined in [`crate::messages`]. The [`crate::Pbs`]
//! driver wires them together in-process; callers with a real transport can
//! serialize the messages themselves and drive the same state machines (see
//! the `blockchain_relay` example).
//!
//! The round structure follows §2.2.2 / §2.4 / §3:
//!
//! * `AliceSession::start_round` — re-partitions every unverified group with
//!   a fresh hash function and emits one BCH sketch per group.
//! * `BobSession::handle_sketches` — decodes each sketch against his own
//!   parity bitmap and reports the differing bins (or a decoding failure,
//!   which makes him split the group three ways, §3.2).
//! * `AliceSession::apply_reports` — recovers one element per differing bin
//!   (Procedure 1), rejects fakes with the sub-universe check (Procedure 3),
//!   applies the recovered elements, and verifies the group checksum
//!   (§2.2.3).
//!
//! # Working sets
//!
//! Neither party keeps a hash set over its elements. Both call
//! [`PartitionHasher::partition`] once — one hash per element, a scatter
//! into per-group `Vec`s, duplicates dropped — and again on the three-way
//! split of a failed group (a Bob built [`BobSession::from_view`] skips the
//! first call: his groups are runs of a shared, hash-ordered
//! [`crate::SetView`], read in place); both build a group's sketch with the one
//! `parity_sketch` routine, over the odd bins of its parity bitmap only.
//! What the per-group pass needs besides the group itself — the parity
//! bitset, the per-bin XOR accumulators, the decoder's polynomials — is one
//! `GroupScratch` a session, zeroed bin by bin as it is used, not
//! allocated per group or per trip. A session computes on the thread that
//! calls it; parallelism is across sessions.
//! Each party reads every element once per sketch and nowhere else: the
//! pass that hashes an element into its bin also adds it to the group
//! checksum `c(·)`, and Alice's pass keeps each element's bin as one byte,
//! so that applying the layer's report re-hashes only the elements whose
//! byte names a reported bin.
//! Alice edits her working sets in place: a recovered candidate must hash
//! to the bin it was reported in (Procedure 3), so whether she holds it is
//! decided among that bin's few residents, found by the pass that sums the
//! reported bins. The only lookup structure is her O(d) ledger of toggled
//! elements, which also remembers which of them were hers — `A \ B`, what
//! a transport ships back so Bob converges
//! ([`AliceSession::into_recovered_and_mine`]). Everything a session emits
//! is a pure function of the two sets and the seed.
//!
//! # Pipelined rounds
//!
//! [`AliceSession::start_rounds`] generalizes `start_round`: it emits the
//! sketches of `layers` *consecutive* protocol rounds in one batch, all
//! computed from Alice's current working sets. Because Bob's set never
//! changes, he can decode every layer independently; Alice then applies the
//! reports **in order**, and the later layers self-correct: an element
//! already recovered by an earlier layer sits on both sides of the per-bin
//! XOR, so a stale layer's bin yields `s = 0` (no-op) or the still-missing
//! residual element. A transport can therefore collapse what used to be
//! `layers` request-response round trips into one, at the price of the
//! speculative layers' bytes. With `layers = 1` the behavior (including
//! every split decision and report byte) is identical to the classic
//! one-round-per-trip protocol.
//!
//! The §3.2 split rule under pipelining: a session is split three ways only
//! when **every** layer of the batch reports a BCH decoding failure — one
//! successful layer supersedes the failed ones. Both state machines apply
//! the same rule, so they stay in lockstep without extra communication.

use crate::messages::{
    child_sessions, BinInfo, GroupReport, GroupReportBody, GroupSketch, RoundStatus, SessionId,
};
use crate::{PbsConfig, SetView};
use analysis::OptimalParams;
use bch::{BchCodec, DecodeScratch, Sketch};
use std::ops::Range;
use std::sync::Arc;
use xhash::{derive_seed, PartitionHasher};

/// Salt labels for seed derivation, so the group partition, each round's bin
/// partition and each split partition use mutually independent hash functions.
const GROUP_SALT: u64 = 0x6_1201;
const ROUND_SALT: u64 = 0x2_0550;
const SPLIT_SALT: u64 = 0x3_5711;

/// Number of ways a group is split after a BCH decoding failure (§3.2
/// explains why a three-way split is preferred over a two-way split).
const SPLIT_WAYS: u64 = 3;

/// Largest parity-bitmap length a session runs. Per-bin state is dense (a
/// parity bitset, and `8n` bytes of XOR accumulators where a party needs
/// them); the planner's largest `n` is 2²⁰ − 1.
const MAX_BINS: u64 = 1 << 22;

/// The session's BCH codec; both constructors state the [`MAX_BINS`] bound
/// here.
fn session_codec(params: &OptimalParams) -> BchCodec {
    assert!(
        params.n as u64 <= MAX_BINS,
        "a parity bitmap of {} bins exceeds the {MAX_BINS} a session runs",
        params.n
    );
    BchCodec::new(params.m, params.t)
}

fn bin_seed(base: u64, session: SessionId, round: u32) -> u64 {
    derive_seed(derive_seed(base, session), ROUND_SALT + round as u64)
}

fn split_seed(base: u64, session: SessionId) -> u64 {
    derive_seed(derive_seed(base, session), SPLIT_SALT)
}

/// Seed of the group partition's hash — also the hash a
/// [`crate::SetView`] is ordered by, which is what makes its groups ranges.
pub(crate) fn group_seed(base: u64) -> u64 {
    derive_seed(base, GROUP_SALT)
}

/// The universe's elements, as a mask: the group checksum `c(S)` (§2.2.3)
/// is the sum of `S` modulo `2^universe_bits`, which is the wrapping sum,
/// in any order, masked once.
fn universe_mask(universe_bits: u32) -> u64 {
    u64::MAX >> (64 - universe_bits)
}

/// A session's working storage of the per-group pass — Alice's encode and
/// apply, Bob's re-sketch and decode — allocated once, at construction.
/// Every routine leaves the dense arrays all-zero behind it, at a cost
/// bounded by the bins it touched. (What a pass keeps per element, Alice's
/// bin bytes, lives with her group, whose length it has.)
#[derive(Debug, Default)]
struct GroupScratch {
    /// The parity bitmap, one bit per bin `0..=n`.
    parity: Vec<u64>,
    /// One bit per bin Alice was reported, whose XOR sum she needs.
    wanted: Vec<u64>,
    /// XOR of the elements hashed to each bin (Bob: every bin; Alice: the
    /// wanted ones).
    xor_by_bin: Vec<u64>,
    /// The positions handed to the syndrome kernel.
    positions: Vec<u64>,
    decode: DecodeScratch,
}

impl GroupScratch {
    /// Scratch for `n`-bin parity bitmaps.
    fn new(n: u64) -> Self {
        let bins = n as usize + 1;
        GroupScratch {
            parity: vec![0; bins.div_ceil(64)],
            wanted: vec![0; bins.div_ceil(64)],
            xor_by_bin: vec![0; bins],
            ..GroupScratch::default()
        }
    }
}

/// Elements [`parity_sketch`] hashes to their bins at a time
/// ([`PartitionHasher::bin_slice`]: eight lanes wide where the CPU has
/// AVX-512) before it walks them.
const BIN_CHUNK: usize = 512;

/// The BCH sketch of `elements`' parity bitmap under `hasher` — the one
/// encoder of both parties — calling `each(position, element)` on the way.
///
/// Adding a bin position twice XOR-cancels, so `sketch(positions multiset)
/// = sketch(odd-parity bins)`: for the small bitmaps PBS uses (`n` bins,
/// typically 127–2047, versus thousands of group elements) one pass
/// toggles a dense parity bitset (`parity`, all-zero on entry and on
/// return) and the syndrome kernel then runs over at most
/// `min(n, |elements|)` odd bins — exactly the parity bitmap the scheme is
/// named for (§2.2.1). The kernel is [`BchCodec::sketch_slice`]: the XOR of the
/// bins' precomputed syndrome columns at every `n` PBS plans, a ladder of
/// `t` multiplications per bin on a field too large for a table.
fn parity_sketch(
    codec: &BchCodec,
    hasher: &PartitionHasher,
    elements: &[u64],
    parity: &mut [u64],
    positions: &mut Vec<u64>,
    mut each: impl FnMut(usize, u64),
) -> Sketch {
    positions.clear();
    let mut bins = [0u32; BIN_CHUNK];
    for chunk in elements.chunks(BIN_CHUNK) {
        let bins = &mut bins[..chunk.len()];
        hasher.bin_slice(chunk, bins);
        for (&bin, &e) in bins.iter().zip(chunk) {
            let p = bin as usize + 1;
            each(p, e);
            parity[p / 64] ^= 1u64 << (p % 64);
        }
    }
    for (w, word) in parity.iter_mut().enumerate() {
        let mut bits = std::mem::take(word);
        while bits != 0 {
            positions.push((w * 64) as u64 + bits.trailing_zeros() as u64);
            bits &= bits - 1;
        }
    }
    codec.sketch_slice(positions)
}

/// A membership constraint a recovered element must satisfy: under `hasher`
/// it must map to bin `expected`. The chain of constraints encodes the
/// element's group (and sub-group) path; checking it is the generalized
/// Procedure 3.
#[derive(Debug, Clone, Copy)]
struct Membership {
    hasher: PartitionHasher,
    expected: u64,
}

// ---------------------------------------------------------------------------
// Alice
// ---------------------------------------------------------------------------

/// One of Alice's groups (or sub-groups) and what its pending sketch
/// layers left for applying their reports.
#[derive(Debug)]
struct AliceGroup {
    id: SessionId,
    /// Alice's current working set for this group, duplicate-free:
    /// initially `A_i`, with the estimated differences of previous rounds
    /// applied (§2.4).
    elements: Vec<u64>,
    /// The wrapping sum of `elements`: taken by the sketch passes of each
    /// batch, kept by every edit since. Masked to the universe it is
    /// `c(A_i)`.
    checksum: u64,
    /// `c(B_i)`, once Bob has sent it.
    bob_checksum: Option<u64>,
    /// Group / sub-group membership constraints (generalized Procedure 3).
    membership: Vec<Membership>,
    /// Bin-partition hash seeds of the sketch layers Alice sent in the
    /// current batch, in round order ([`AliceSession::start_rounds`]).
    pending_bin_seeds: Vec<u64>,
    /// How many of [`AliceGroup::pending_bin_seeds`] have been answered.
    /// Bob reports every layer in the order he received it, so the j-th
    /// report for a session answers the j-th pending layer.
    reports_consumed: usize,
    /// Per pending layer, the low byte of each element's bin position
    /// under that layer's hash, aligned with `elements`: recorded by the
    /// layer's sketch pass, and kept aligned through the edits of the
    /// layers answered before it. At `n ≤ 255` the byte is the bin. The
    /// buffers are kept across batches, cleared, not dropped.
    bin_bytes: Vec<Vec<u8>>,
    verified: bool,
}

impl AliceGroup {
    fn new(id: SessionId, elements: Vec<u64>, membership: Vec<Membership>) -> Self {
        AliceGroup {
            id,
            elements,
            checksum: 0,
            bob_checksum: None,
            membership,
            pending_bin_seeds: Vec::new(),
            reports_consumed: 0,
            bin_bytes: Vec::new(),
            verified: false,
        }
    }
}

/// What Alice knows of an element she has toggled.
#[derive(Debug, Clone, Copy)]
struct Toggled {
    /// Its first toggle took it *out* of her working set: it is hers, and
    /// belongs to `A \ B` for as long as it stays toggled.
    mine: bool,
    /// Toggled an odd number of times: currently counted in `A△B`.
    odd: bool,
}

impl Toggled {
    /// Whether the element is in Alice's working set right now.
    fn held(self) -> bool {
        self.mine != self.odd
    }
}

/// A speculative tail this cheap rides along whatever the session has sent
/// so far: 1 448 B, the payload of one TCP segment on an Ethernet path
/// (1 500 B MTU − 40 B of IP and TCP headers − 12 B of timestamps). Sketches
/// that still fit one segment add at most one packet to a trip that costs
/// a round-trip time regardless, so a small session (d ≲ 200 at the default
/// parameters) keeps its whole grant and ends in one trip.
const SPECULATION_FLOOR_BITS: u64 = 8 * 1448;

/// Beyond the floor, one trip's speculative layers may cost at most
/// 1 / this of the sketch bits the session has already sent. An eighth:
/// after a well-parameterized first trip ≈ 3 % of the groups are left
/// (§5.3), so the sparse tail still gets the full default grant of four
/// (3 layers × 3 % = 9 %), while the dense first trip — where a layer
/// costs as much as everything sent so far — gets none.
const SPECULATION_SHARE: u64 = 8;

/// The layer depth of the next trip — [`AliceSession::next_pipeline_depth`]
/// on bare numbers: `active` unverified sessions at `sketch_bits` a sketch,
/// `sent_bits` of sketches sent so far, the last trip's `(decoded, failed)`
/// layer reports, the transport's `grant`.
fn speculation_depth(
    active: u64,
    sketch_bits: u64,
    sent_bits: u64,
    last_trip: Option<(u32, u32)>,
    grant: u32,
) -> u32 {
    let grant = grant.max(1) as u64;
    // A trip of mostly failed decodes was under-parameterized: §3.2 has
    // just tripled those sessions, and every layer of a group that is
    // still overloaded fails alike — speculation there buys nothing.
    if matches!(last_trip, Some((decoded, failed)) if failed > 0 && failed >= decoded) {
        return 1;
    }
    let layer_bits = (active * sketch_bits).max(1);
    let budget = SPECULATION_FLOOR_BITS.max(sent_bits / SPECULATION_SHARE);
    (1 + budget / layer_bits).min(grant) as u32
}

/// Alice's side of the protocol: she wants to learn `A△B`.
#[derive(Debug)]
pub struct AliceSession {
    cfg: PbsConfig,
    params: OptimalParams,
    codec: BchCodec,
    base_seed: u64,
    round: u32,
    round_trips: u32,
    /// Declared wire cost of the sketches sent so far, in bits
    /// ([`GroupSketch::wire_bits`] at the session's `m`).
    sketch_bits_sent: u64,
    /// `(decoded, failed)` per-group layer reports of the last
    /// [`Self::apply_reports`] batch; `None` before the first batch.
    last_layer_stats: Option<(u32, u32)>,
    /// Group-layers sent beyond each trip's first: over the session, and
    /// in the last [`Self::start_rounds`] batch.
    speculative_layers: u64,
    last_speculative_layers: u32,
    /// Those of them that reached a group an earlier layer of their trip
    /// had already verified.
    speculative_unused: u64,
    groups: Vec<AliceGroup>,
    /// Every element whose membership Alice has toggled so far — once every
    /// group verifies, the `odd` ones are exactly `A△B`. O(d), and the only
    /// lookup structure of the session.
    toggled: xhash::Map<Toggled>,
    fakes_rejected: u64,
    scratch: GroupScratch,
}

impl AliceSession {
    /// Create Alice's session state from her set.
    pub fn new(cfg: PbsConfig, params: OptimalParams, elements: &[u64], seed: u64) -> Self {
        let codec = session_codec(&params);
        let group_hasher = PartitionHasher::new(params.groups as u64, group_seed(seed));
        let groups = group_hasher
            .partition(elements)
            .into_iter()
            .enumerate()
            .map(|(i, elems)| {
                AliceGroup::new(
                    (i + 1) as SessionId,
                    elems,
                    vec![Membership {
                        hasher: group_hasher,
                        expected: i as u64,
                    }],
                )
            })
            .collect();
        AliceSession {
            cfg,
            params,
            codec,
            base_seed: seed,
            round: 0,
            round_trips: 0,
            sketch_bits_sent: 0,
            last_layer_stats: None,
            speculative_layers: 0,
            last_speculative_layers: 0,
            speculative_unused: 0,
            groups,
            toggled: xhash::Map::default(),
            fakes_rejected: 0,
            scratch: GroupScratch::new(params.n as u64),
        }
    }

    /// The current protocol round number (0 before the first
    /// [`Self::start_round`]; a pipelined batch advances it by its layer
    /// count).
    pub fn round(&self) -> u32 {
        self.round
    }

    /// Number of sketch batches emitted so far — with a request-response
    /// transport, the number of round trips spent on sketch/report
    /// exchanges. Equal to [`Self::round`] unless rounds were pipelined.
    pub fn round_trips(&self) -> u32 {
        self.round_trips
    }

    /// Number of sessions (groups and sub-groups) that have not verified yet.
    pub(crate) fn active_sessions(&self) -> usize {
        self.groups.iter().filter(|g| !g.verified).count()
    }

    /// `true` once every group pair's checksum has verified.
    pub(crate) fn all_verified(&self) -> bool {
        self.groups.iter().all(|g| g.verified)
    }

    /// Number of recovered elements rejected by the Procedure 3 check so far.
    pub fn fakes_rejected(&self) -> u64 {
        self.fakes_rejected
    }

    /// Group-layers sent beyond each trip's first so far — what pipelining
    /// has speculated ([`RoundStatus::speculative_layers`], summed).
    pub fn speculative_layers(&self) -> u64 {
        self.speculative_layers
    }

    /// How many of [`Self::speculative_layers`] came back to a group an
    /// earlier layer of the same trip had already verified: speculation
    /// that bought nothing ([`RoundStatus::speculative_unused`], summed).
    pub fn speculative_unused(&self) -> u64 {
        self.speculative_unused
    }

    /// The elements Alice currently believes to be in `A△B`, ascending.
    pub fn recovered_so_far(&self) -> Vec<u64> {
        let mut recovered: Vec<u64> = self
            .toggled
            .iter()
            .filter(|(_, t)| t.odd)
            .map(|(&e, _)| e)
            .collect();
        recovered.sort_unstable();
        recovered
    }

    /// Consume the session and return the recovered difference, ascending.
    pub fn into_recovered(self) -> Vec<u64> {
        self.recovered_so_far()
    }

    /// Consume the session and return the recovered difference together
    /// with the part of it that is Alice's own — `(A△B, A \ B)`, both
    /// ascending. The second list is what a transport ships to Bob so he
    /// converges too; the session knows it because every recovered element
    /// either came out of her working set or went into it.
    pub fn into_recovered_and_mine(self) -> (Vec<u64>, Vec<u64>) {
        let recovered = self.recovered_so_far();
        let mine = recovered
            .iter()
            .copied()
            .filter(|e| self.toggled[e].mine)
            .collect();
        (recovered, mine)
    }

    /// Begin a new round: re-partition every unverified group with a fresh
    /// hash function and produce the BCH sketches to send to Bob.
    /// Equivalent to [`Self::start_rounds`]`(1)`.
    pub fn start_round(&mut self) -> Vec<GroupSketch> {
        self.start_rounds(1)
    }

    /// Begin `layers` pipelined protocol rounds at once: for every
    /// unverified group, emit one sketch per round `self.round + 1 ..=
    /// self.round + layers`, each under that round's fresh bin-partition
    /// hash, all computed from the group's *current* working set (see the
    /// module docs on why applying the answers in order is sound). The
    /// batch is layer-major: all of round `r`'s sketches, then all of round
    /// `r+1`'s, and so on — the order Bob's reports must be applied in.
    ///
    /// Every sketch comes out of the session's one scratch, on the calling
    /// thread. The pass that hashes a group's elements for a layer's sketch
    /// also records their bin bytes for [`Self::apply_reports`] and takes
    /// the group's checksum.
    pub fn start_rounds(&mut self, layers: u32) -> Vec<GroupSketch> {
        assert!(layers >= 1, "a sketch batch needs at least one layer");
        let base = self.round;
        self.round += layers;
        self.round_trips += 1;
        for group in self.groups.iter_mut().filter(|g| !g.verified) {
            group.pending_bin_seeds = (1..=layers)
                .map(|layer| bin_seed(self.base_seed, group.id, base + layer))
                .collect();
            group.reports_consumed = 0;
            if let Some(more) = (layers as usize).checked_sub(group.bin_bytes.len()) {
                // Exactly: a first batch gives each of thousands of groups
                // its list, where an amortized one would hold four.
                group.bin_bytes.reserve_exact(more);
                group.bin_bytes.resize_with(layers as usize, Vec::new);
            }
            for bytes in &mut group.bin_bytes {
                bytes.clear();
            }
        }
        let active = self.active_sessions();
        self.last_speculative_layers = (layers - 1) * active as u32;
        self.speculative_layers += self.last_speculative_layers as u64;
        let n = self.params.n as u64;
        let GroupScratch {
            parity, positions, ..
        } = &mut self.scratch;
        let mut batch = Vec::with_capacity(layers as usize * active);
        for layer in 0..layers as usize {
            for group in self.groups.iter_mut().filter(|g| !g.verified) {
                let hasher = PartitionHasher::new(n, group.pending_bin_seeds[layer]);
                let bytes = &mut group.bin_bytes[layer];
                bytes.resize(group.elements.len(), 0);
                let mut slots = bytes.iter_mut();
                // Every layer of the batch sums the same working set.
                let mut group_sum = 0u64;
                let sketch = parity_sketch(
                    &self.codec,
                    &hasher,
                    &group.elements,
                    parity,
                    positions,
                    |p, e| {
                        if let Some(slot) = slots.next() {
                            *slot = p as u8;
                        }
                        group_sum = group_sum.wrapping_add(e);
                    },
                );
                group.checksum = group_sum;
                batch.push(GroupSketch {
                    session: group.id,
                    round: base + 1 + layer as u32,
                    sketch,
                    // Repeated on every layer while c(B_i) is unknown: the
                    // first layer's report may be a decode failure, and the
                    // checksum must not be lost with it. (Bob answers once.)
                    needs_checksum: group.bob_checksum.is_none(),
                });
            }
        }
        let m = self.params.m;
        self.sketch_bits_sent += batch.iter().map(|s| s.wire_bits(m)).sum::<u64>();
        batch
    }

    /// Apply Bob's reports for the current batch: recover elements, reject
    /// fakes, verify checksums and split groups whose decoding failed.
    ///
    /// Reports must be passed in the order Bob produced them — the j-th
    /// report for a session answers the j-th layer of the last
    /// [`Self::start_rounds`] batch. A session is split three ways only
    /// when every one of its reports in the batch is a decoding failure
    /// (with unpipelined batches that is the classic §3.2 rule).
    pub fn apply_reports(&mut self, reports: &[GroupReport]) -> RoundStatus {
        self.apply_reports_with(reports, |_| {})
    }

    /// [`Self::apply_reports`], calling `after(group)` each time a decoded
    /// report has been applied to its group: the state between two layers
    /// of a batch, which the tests hold to their oracles.
    fn apply_reports_with(
        &mut self,
        reports: &[GroupReport],
        mut after: impl FnMut(&AliceGroup),
    ) -> RoundStatus {
        let mut recovered_this_round = 0usize;
        let (mut layers_decoded, mut layers_failed) = (0u32, 0u32);
        let unused_before = self.speculative_unused;
        // `false` until a session shows at least one successfully decoded
        // layer; sessions still `false` at the end of the batch are split.
        let mut any_decoded: xhash::Map<bool> = xhash::Map::default();

        let index: xhash::Map<usize> = self
            .groups
            .iter()
            .enumerate()
            .map(|(i, g)| (g.id, i))
            .collect();

        for report in reports {
            let Some(&gi) = index.get(&report.session) else {
                continue;
            };
            match &report.body {
                GroupReportBody::DecodeFailed => {
                    layers_failed += 1;
                    any_decoded.entry(report.session).or_insert(false);
                    // The failed layer still consumes its pending seed, so
                    // later layers of the session stay aligned.
                    let group = &mut self.groups[gi];
                    if group.reports_consumed < group.pending_bin_seeds.len() {
                        group.reports_consumed += 1;
                    }
                }
                GroupReportBody::Decoded { bins, checksum } => {
                    layers_decoded += 1;
                    any_decoded.insert(report.session, true);
                    recovered_this_round += self.apply_decoded(gi, bins, *checksum);
                    after(&self.groups[gi]);
                }
            }
        }
        self.last_layer_stats = Some((layers_decoded, layers_failed));

        // Perform the three-way splits after the borrow of `self.groups` above.
        // Process from the highest index down so removals do not shift the
        // remaining indices.
        let mut splits: Vec<(usize, SessionId)> = any_decoded
            .iter()
            .filter(|&(_, &decoded)| !decoded)
            .map(|(&session, _)| (index[&session], session))
            .collect();
        splits.sort_by_key(|&(gi, _)| std::cmp::Reverse(gi));
        for (gi, session) in splits {
            self.split_group(gi, session);
        }

        RoundStatus {
            recovered_this_round,
            active_sessions: self.active_sessions(),
            all_verified: self.all_verified(),
            layers_decoded,
            layers_failed,
            speculative_layers: self.last_speculative_layers,
            speculative_unused: (self.speculative_unused - unused_before) as u32,
        }
    }

    /// Pick the layer depth for the *next* pipelined batch, bounded by
    /// `grant` (the depth the transport's handshake granted).
    ///
    /// Speculation is priced before it is sent. A layer beyond the first
    /// re-ships one sketch for every session still unverified, and only
    /// pays off for the few of them the first layer leaves unverified
    /// (≈ 3 % at the paper's parameters, §5.3). The depth is therefore the
    /// deepest `k ≤ grant` whose `k − 1` speculative layers, at the declared
    /// cost of a sketch ([`GroupSketch::wire_bits`]), fit the larger of
    /// `SPECULATION_FLOOR_BITS` — one TCP segment — and one
    /// `SPECULATION_SHARE`-th of the sketch bits already sent:
    ///
    /// * the dense first trip of a large session (d ≳ 700 at the default
    ///   parameters; two or three layers between there and d ≈ 200) goes
    ///   out once — the paper's protocol;
    /// * the sparse trips after it, where a layer is cheap, get layers, so
    ///   the session ends a trip or two earlier than one layer a trip;
    /// * a small session (d ≲ 200), whose three speculative layers are
    ///   under the floor, speculates at the full grant and ends in one trip;
    /// * a trip after mostly-failed decodes, where §3.2 splits have tripled
    ///   the active sessions, gets one layer.
    ///
    /// A pure function of what the session holds — no clock, no history
    /// beyond the last trip's counts.
    pub fn next_pipeline_depth(&self, grant: u32) -> u32 {
        let probe = GroupSketch {
            session: 0,
            round: 0,
            sketch: self.codec.empty_sketch(),
            needs_checksum: false,
        };
        speculation_depth(
            self.active_sessions() as u64,
            probe.wire_bits(self.params.m),
            self.sketch_bits_sent,
            self.last_layer_stats,
            grant,
        )
    }

    /// Handle a successfully decoded report for group index `gi`. Returns the
    /// number of elements applied.
    fn apply_decoded(&mut self, gi: usize, bins: &[BinInfo], checksum: Option<u64>) -> usize {
        let universe_mask = universe_mask(self.cfg.universe_bits);
        let group = &mut self.groups[gi];
        // This report answers the oldest unanswered layer of the last sketch
        // batch; a report beyond the layers actually sent is ignored.
        let layer = group.reports_consumed;
        let Some(&layer_seed) = group.pending_bin_seeds.get(layer) else {
            return 0;
        };
        group.reports_consumed += 1;
        if let Some(c) = checksum {
            group.bob_checksum = Some(c);
        }
        if group.verified {
            // A speculative layer answering a group that an earlier layer
            // already verified: the working set equals B_i, so every bin
            // XOR cancels to zero — nothing to apply.
            self.speculative_unused += 1;
            return 0;
        }

        // One pass over the group's working set: the XOR sum of every
        // reported bin, and each element of a reported bin with its index
        // (`residents`). The layer's sketch pass left each element's bin
        // byte, so the pass reads one byte per element against the reported
        // bins' low bytes and re-hashes only the hits; the exact bin then
        // meets the scratch's reported-bin bitset and dense per-bin XOR
        // accumulator, and reading the sums back is O(bins). (At `n ≤ 255`
        // the byte is the bin, and every hit is a resident.) Bins outside
        // `1..=n` (impossible from an honest decode, reachable through the
        // wire format) accumulate nothing.
        let n = self.params.n as u64;
        let hasher = PartitionHasher::new(n, layer_seed);
        let mut residents: Vec<(u64, usize)> = Vec::new();
        let GroupScratch {
            wanted, xor_by_bin, ..
        } = &mut self.scratch;
        let mut wanted_low = [0u64; 4];
        for b in bins {
            if b.position <= n {
                wanted[b.position as usize / 64] |= 1u64 << (b.position % 64);
                let low = b.position as u8;
                wanted_low[low as usize / 64] |= 1u64 << (low % 64);
            }
        }
        let bytes = &group.bin_bytes[layer];
        debug_assert_eq!(bytes.len(), group.elements.len());
        for (index, &low) in bytes.iter().enumerate() {
            if wanted_low[low as usize / 64] >> (low % 64) & 1 == 0 {
                continue;
            }
            let e = group.elements[index];
            let p = hasher.position(e) as usize;
            if wanted[p / 64] >> (p % 64) & 1 == 1 {
                xor_by_bin[p] ^= e;
                residents.push((e, index));
            }
        }
        // Alice's XOR sum of a reported bin, as it stood before this report.
        let alice_xor = |position: u64| xor_by_bin.get(position as usize).copied().unwrap_or(0);
        // Procedure 3 forces a candidate to hash to the bin it was reported
        // in, so if Alice holds it, it is one of these residents: sorted,
        // they decide membership without a lookup structure over the
        // working set (which is duplicate-free, so the keys are distinct).
        residents.sort_unstable();

        // The working set is edited after the loop, so the indices in
        // `residents` stay valid while candidates are judged. `evicted` are
        // indices to vacate, `admitted` the values toggled in; either list
        // may repeat an entry (a report can name an element many times),
        // and an admitted element may have been toggled back out since —
        // the ledger in `self.toggled` has the final word.
        let mut evicted: Vec<usize> = Vec::new();
        let mut admitted: Vec<u64> = Vec::new();
        let mut applied = 0usize;
        for b in bins {
            let s = alice_xor(b.position) ^ b.xor_sum;
            if s == 0 {
                // Procedure 1, case (I): the bin pair holds no recoverable
                // difference (an exception masked the parity mismatch).
                continue;
            }
            // The recovered value must be a valid universe element…
            if s > universe_mask {
                self.fakes_rejected += 1;
                continue;
            }
            // …must hash back to the reported bin (Procedure 3)…
            if hasher.position(s) != b.position {
                self.fakes_rejected += 1;
                continue;
            }
            // …and must belong to this group / sub-group path.
            if !group
                .membership
                .iter()
                .all(|m| m.hasher.bin(s) == m.expected)
            {
                self.fakes_rejected += 1;
                continue;
            }
            // Apply: toggle membership in the group's working set and in
            // the session's ledger. An element never toggled before is in
            // the working set exactly if it is a resident; one toggled
            // before is where the ledger says.
            let resident = residents.binary_search_by_key(&s, |&(e, _)| e);
            let entry = self.toggled.entry(s).or_insert(Toggled {
                mine: resident.is_ok(),
                odd: false,
            });
            if entry.held() {
                // In the working set: out it goes (an element admitted
                // earlier in this very report has no resident to evict).
                if let Ok(at) = resident {
                    evicted.push(residents[at].1);
                }
                group.checksum = group.checksum.wrapping_sub(s);
            } else {
                admitted.push(s);
                group.checksum = group.checksum.wrapping_add(s);
            }
            entry.odd = !entry.odd;
            applied += 1;
        }
        // Vacate from the back, so a `swap_remove` never moves an element
        // that is itself still to be vacated. Every edit of the working set
        // is mirrored onto the bin bytes of the layers still to be
        // answered, so that they stay aligned with it.
        let later = layer + 1..group.pending_bin_seeds.len();
        evicted.sort_unstable();
        evicted.dedup();
        for &index in evicted.iter().rev() {
            group.elements.swap_remove(index);
            for bytes in &mut group.bin_bytes[later.clone()] {
                bytes.swap_remove(index);
            }
        }
        // Hand the scratch back all-zero: only reported bins were touched.
        for b in bins {
            if let Some(xor) = xor_by_bin.get_mut(b.position as usize) {
                *xor = 0;
                wanted[b.position as usize / 64] = 0;
            }
        }
        admitted.sort_unstable();
        admitted.dedup();
        let toggled = &self.toggled;
        for s in admitted.into_iter().filter(|s| toggled[s].held()) {
            group.elements.push(s);
            let seeds = &group.pending_bin_seeds[later.clone()];
            for (bytes, &seed) in group.bin_bytes[later.clone()].iter_mut().zip(seeds) {
                bytes.push(PartitionHasher::new(n, seed).position(s) as u8);
            }
        }

        // Checksum verification (Line 5 of Procedure 2).
        if let Some(expect) = group.bob_checksum {
            if group.checksum & universe_mask == expect {
                group.verified = true;
            }
        }
        applied
    }

    /// Split group index `gi` into three sub-groups (§3.2).
    fn split_group(&mut self, gi: usize, session: SessionId) {
        let parent = self.groups.swap_remove(gi);
        let children = child_sessions(session);
        let hasher = PartitionHasher::new(SPLIT_WAYS, split_seed(self.base_seed, session));
        let parts = hasher.partition(&parent.elements);
        for (k, part) in parts.into_iter().enumerate() {
            let mut membership = parent.membership.clone();
            membership.push(Membership {
                hasher,
                expected: k as u64,
            });
            self.groups
                .push(AliceGroup::new(children[k], part, membership));
        }
    }
}

// ---------------------------------------------------------------------------
// Bob
// ---------------------------------------------------------------------------

/// Where a group's elements live.
#[derive(Debug)]
enum Members {
    /// The session's own copy: a part of [`BobSession::new`]'s partition,
    /// or a child of a §3.2 split.
    Owned(Vec<u64>),
    /// A run of a shared view's hash order ([`BobSession::from_view`]).
    Shared(Arc<SetView>, Range<usize>),
}

impl Members {
    fn as_slice(&self) -> &[u64] {
        match self {
            Members::Owned(elements) => elements,
            Members::Shared(view, range) => view.elements().get(range.clone()).unwrap_or(&[]),
        }
    }
}

/// Bob's side of the protocol: he answers Alice's sketches.
#[derive(Debug)]
pub struct BobSession {
    cfg: PbsConfig,
    params: OptimalParams,
    codec: BchCodec,
    base_seed: u64,
    groups: xhash::Map<Members>,
    decode_failures: u32,
    scratch: GroupScratch,
}

impl BobSession {
    /// Create Bob's session state from his set: its partition into
    /// groups, and nothing else — a group's checksum is summed by the
    /// sketch pass that answers it.
    ///
    /// Duplicate input elements are dropped (first occurrence wins) by the
    /// same [`PartitionHasher::partition`] call [`AliceSession::new`]
    /// makes. This matters: a duplicated element would cancel out of the
    /// XOR parity bitmap but count twice in the *additive* group checksum,
    /// leaving a group that can never verify no matter how often it splits.
    pub fn new(cfg: PbsConfig, params: OptimalParams, elements: &[u64], seed: u64) -> Self {
        let group_hasher = PartitionHasher::new(params.groups as u64, group_seed(seed));
        let parts = group_hasher.partition(elements);
        Self::over(cfg, params, seed, parts.into_iter().map(Members::Owned))
    }

    /// Create Bob's session state over a shared [`SetView`] of his set,
    /// under the view's seed. Equivalent to [`BobSession::new`] over the
    /// same set and seed — every report is the same — but no element is
    /// read before the first sketch arrives, let alone hashed, scattered
    /// or copied: group `i` is the `i`-th of `SetView::group_ranges`, read
    /// in place for as long as it is not split (the children of a §3.2
    /// split are the session's own copies).
    pub fn from_view(cfg: PbsConfig, params: OptimalParams, view: Arc<SetView>) -> Self {
        let ranges = view.group_ranges(params.groups);
        let members = ranges
            .into_iter()
            .map(|range| Members::Shared(Arc::clone(&view), range));
        Self::over(cfg, params, view.seed(), members)
    }

    /// The session over its initial groups, in group order. A group is
    /// its members: the pass that answers a sketch sums them for
    /// `c(B_i)`.
    fn over(
        cfg: PbsConfig,
        params: OptimalParams,
        seed: u64,
        groups: impl Iterator<Item = Members>,
    ) -> Self {
        BobSession {
            cfg,
            params,
            codec: session_codec(&params),
            base_seed: seed,
            groups: groups
                .enumerate()
                .map(|(i, members)| ((i + 1) as SessionId, members))
                .collect(),
            decode_failures: 0,
            scratch: GroupScratch::new(params.n as u64),
        }
    }

    /// Number of BCH decoding failures Bob has hit (each triggered a §3.2
    /// three-way split).
    pub fn decode_failures(&self) -> u32 {
        self.decode_failures
    }

    /// Number of group (and sub-group) sessions Bob currently tracks.
    pub fn session_count(&self) -> usize {
        self.groups.len()
    }

    /// Process one batch of sketches from Alice and produce the reports.
    ///
    /// Each group's report — Bob's parity-bitmap sketch rebuilt, combined
    /// with Alice's and BCH-decoded — comes out of the session's one
    /// scratch, on the calling thread. The mutations a decoding failure
    /// triggers (failure counter, §3.2 three-way split) are applied in a
    /// pass afterwards; a split only touches the failed session and its
    /// fresh children, never another session in the batch, so deferring it
    /// cannot change any other report. The deferral is also what makes
    /// pipelined batches sound: every layer of a session is decoded against
    /// the *unsplit* group, exactly as Alice built it.
    ///
    /// A session is split only when every one of its sketches in the batch
    /// failed to decode — the same rule [`AliceSession::apply_reports`]
    /// applies, so the two state machines agree on the split set. With one
    /// layer per batch this is the classic split-on-failure of §3.2.
    ///
    /// `c(B_i)` goes out once per session per batch, on the session's first
    /// layer that decodes, however many layers asked for it.
    pub fn handle_sketches(&mut self, sketches: &[GroupSketch]) -> Vec<GroupReport> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let mut reports: Vec<GroupReport> = sketches
            .iter()
            .map(|msg| self.compute_report(msg, &mut scratch))
            .collect();
        self.scratch = scratch;
        // Per session of the batch: has every layer so far failed, and has
        // `c(B_i)` gone out.
        let mut seen: xhash::Map<(bool, bool)> = xhash::Map::default();
        for report in &mut reports {
            let (all_failed, checksum_sent) = seen.entry(report.session).or_insert((true, false));
            match &mut report.body {
                GroupReportBody::DecodeFailed => self.decode_failures += 1,
                GroupReportBody::Decoded { checksum, .. } => {
                    *all_failed = false;
                    // Alice asks on every layer, so that a failed first
                    // layer cannot lose the checksum, and keeps the first
                    // answer: the session's first decoded layer carries it,
                    // the rest would only repeat it.
                    if checksum.is_some() && std::mem::replace(checksum_sent, true) {
                        *checksum = None;
                    }
                }
            }
        }
        // Sessions are independent (fresh child ids per parent), so the
        // split order does not matter.
        for (&session, &(all_failed, _)) in &seen {
            if all_failed {
                self.split_group(session);
            }
        }
        reports
    }

    /// Pure per-group response computation (no session mutation): Bob's
    /// own [`parity_sketch`] of the group, combined with Alice's and
    /// BCH-decoded, all out of `scratch`. The same pass keeps
    /// the scratch's dense XOR accumulator per bin, so the XOR sums of the
    /// differing bins are read back in O(bins), and zeroes it again
    /// afterwards; it also sums the group, for `c(B_i)`.
    fn compute_report(&self, msg: &GroupSketch, scratch: &mut GroupScratch) -> GroupReport {
        // Unknown session: treat as empty (can only happen if Alice has a
        // group Bob's partition left empty — the decode still works).
        let elements = self
            .groups
            .get(&msg.session)
            .map_or(&[][..], Members::as_slice);
        let n = self.params.n as u64;
        let hasher = PartitionHasher::new(n, bin_seed(self.base_seed, msg.session, msg.round));
        let GroupScratch {
            parity,
            xor_by_bin,
            positions,
            decode,
            ..
        } = scratch;

        let mut sum = 0u64;
        let mut sketch =
            parity_sketch(&self.codec, &hasher, elements, parity, positions, |p, e| {
                xor_by_bin[p] ^= e;
                sum = sum.wrapping_add(e);
            });
        // Combine with Alice's sketch: the result is the sketch of the
        // positions where the two parity bitmaps differ.
        sketch.combine(&msg.sketch);
        let body = match self.codec.decode_with(&sketch, decode) {
            Err(_) => GroupReportBody::DecodeFailed,
            Ok(differing) => GroupReportBody::Decoded {
                bins: differing
                    .iter()
                    .map(|&position| BinInfo {
                        position,
                        xor_sum: xor_by_bin.get(position as usize).copied().unwrap_or(0),
                    })
                    .collect(),
                checksum: msg
                    .needs_checksum
                    .then_some(sum & universe_mask(self.cfg.universe_bits)),
            },
        };
        // Leave the accumulators all-zero in O(min(n, |group|)): a sweep for
        // a group that fills its bitmap, bin by bin for one that is lost in
        // it (the planner's n reaches 2²⁰ − 1; a sweep per group would not
        // do there).
        if elements.len() >= xor_by_bin.len() / 8 {
            xor_by_bin.fill(0);
        } else {
            for &e in elements {
                xor_by_bin[hasher.position(e) as usize] = 0;
            }
        }
        GroupReport {
            session: msg.session,
            body,
        }
    }

    /// The seed's serial per-element decode path: one scalar
    /// [`bch::Sketch::add`] per element, hash-map XOR accumulation over
    /// every occupied bin, groups processed strictly in order on the calling
    /// thread, the batch rules (`c(B_i)` once per session, a split only
    /// when every layer failed) applied by a scan of the reports so far.
    /// Produces exactly the same reports and session-state changes as
    /// [`BobSession::handle_sketches`], from state built fresh per group;
    /// the oracle of the transcript tests.
    #[cfg(test)]
    fn handle_sketches_reference(&mut self, sketches: &[GroupSketch]) -> Vec<GroupReport> {
        let mut out: Vec<GroupReport> = Vec::with_capacity(sketches.len());
        for msg in sketches {
            let elements = self
                .groups
                .get(&msg.session)
                .map_or_else(Vec::new, |group| group.as_slice().to_vec());
            let checksum =
                xhash::element_checksum(self.cfg.universe_bits, elements.iter().copied());
            let n = self.params.n as u64;
            let hasher = PartitionHasher::new(n, bin_seed(self.base_seed, msg.session, msg.round));
            let mut sketch = self.codec.empty_sketch();
            let mut xor_by_bin: xhash::Map<u64> = xhash::Map::default();
            for &e in &elements {
                let p = hasher.position(e);
                sketch.add(p, self.codec.field());
                *xor_by_bin.entry(p).or_insert(0) ^= e;
            }
            sketch.combine(&msg.sketch);
            let already_sent = out.iter().any(|r| {
                let sent = matches!(
                    r.body,
                    GroupReportBody::Decoded {
                        checksum: Some(_),
                        ..
                    }
                );
                r.session == msg.session && sent
            });
            let report = match self.codec.decode(&sketch) {
                Ok(positions) => GroupReport {
                    session: msg.session,
                    body: GroupReportBody::Decoded {
                        bins: positions
                            .into_iter()
                            .map(|p| BinInfo {
                                position: p,
                                xor_sum: xor_by_bin.get(&p).copied().unwrap_or(0),
                            })
                            .collect(),
                        checksum: (msg.needs_checksum && !already_sent).then_some(checksum),
                    },
                },
                Err(_) => {
                    self.decode_failures += 1;
                    GroupReport {
                        session: msg.session,
                        body: GroupReportBody::DecodeFailed,
                    }
                }
            };
            out.push(report);
        }
        let mut sessions: Vec<SessionId> = out.iter().map(|r| r.session).collect();
        sessions.sort_unstable();
        sessions.dedup();
        for session in sessions {
            let mut layers = out.iter().filter(|r| r.session == session);
            if layers.all(|r| r.body == GroupReportBody::DecodeFailed) {
                self.split_group(session);
            }
        }
        out
    }

    /// Split a group into three sub-groups after a decoding failure (§3.2).
    fn split_group(&mut self, session: SessionId) {
        let Some(parent) = self.groups.remove(&session) else {
            return;
        };
        let children = child_sessions(session);
        let hasher = PartitionHasher::new(SPLIT_WAYS, split_seed(self.base_seed, session));
        let parts = hasher.partition(parent.as_slice());
        for (k, part) in parts.into_iter().enumerate() {
            self.groups.insert(children[k], Members::Owned(part));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pbs;
    use std::collections::HashMap;

    /// The seed's encoder, and [`parity_sketch`]'s oracle: one scalar
    /// [`Sketch::add`] syndrome ladder per element.
    fn parity_sketch_reference(
        codec: &BchCodec,
        hasher: &PartitionHasher,
        elements: &[u64],
    ) -> Sketch {
        let mut sketch = codec.empty_sketch();
        for &e in elements {
            sketch.add(hasher.position(e), codec.field());
        }
        sketch
    }

    fn params_for(d: usize) -> (PbsConfig, OptimalParams) {
        let cfg = PbsConfig::default();
        let params = Pbs::new(cfg).plan(d);
        (cfg, params)
    }

    /// [`AliceSession::start_rounds`], with every sketch of the batch held
    /// to the per-element oracle, and what the sketch passes recorded —
    /// each group's checksum and bin bytes — to a recount of its working
    /// set.
    fn start_checked(a: &mut AliceSession, layers: u32) -> Vec<GroupSketch> {
        let batch = a.start_rounds(layers);
        let n = a.params.n as u64;
        let active: Vec<&AliceGroup> = a.groups.iter().filter(|g| !g.verified).collect();
        assert_eq!(batch.len(), active.len() * layers as usize);
        let bits = a.cfg.universe_bits;
        for group in &active {
            assert_eq!(
                group.checksum & universe_mask(bits),
                xhash::element_checksum(bits, group.elements.iter().copied()),
                "session {}",
                group.id
            );
            pending_bytes_hold(group, n);
        }
        for (i, msg) in batch.iter().enumerate() {
            let (layer, group) = (i / active.len(), active[i % active.len()]);
            assert_eq!(msg.session, group.id);
            let hasher = PartitionHasher::new(n, group.pending_bin_seeds[layer]);
            assert_eq!(
                msg.sketch,
                parity_sketch_reference(&a.codec, &hasher, &group.elements),
                "session {} layer {layer} (n = {n})",
                group.id
            );
        }
        batch
    }

    /// Every still-pending layer's bin bytes are the low bytes of the
    /// current working set's bin positions under that layer's hash.
    fn pending_bytes_hold(group: &AliceGroup, n: u64) {
        let pending = group.reports_consumed..group.pending_bin_seeds.len();
        for layer in pending {
            let hasher = PartitionHasher::new(n, group.pending_bin_seeds[layer]);
            let expect: Vec<u8> = group
                .elements
                .iter()
                .map(|&e| hasher.position(e) as u8)
                .collect();
            assert_eq!(
                group.bin_bytes[layer], expect,
                "session {} layer {layer}",
                group.id
            );
        }
    }

    /// [`AliceSession::apply_reports`], with [`pending_bytes_hold`] checked
    /// after every report. Also returns how many layers were applied to a
    /// group that an earlier layer of the batch had edited and left
    /// unverified: the reads of bytes mirrored through an edit.
    fn apply_checked(a: &mut AliceSession, reports: &[GroupReport]) -> (RoundStatus, u64) {
        let n = a.params.n as u64;
        // Per unverified group: its working set before the batch, whether
        // it has been edited since, whether it has verified.
        let mut state: HashMap<SessionId, (Vec<u64>, bool, bool)> = a
            .groups
            .iter()
            .filter(|g| !g.verified)
            .map(|g| (g.id, (sorted(g.elements.clone()), false, false)))
            .collect();
        let mut mirrored = 0;
        let status = a.apply_reports_with(reports, |group| {
            pending_bytes_hold(group, n);
            if let Some((before, edited, verified)) = state.get_mut(&group.id) {
                if *edited && !*verified {
                    mirrored += 1;
                }
                *edited |= sorted(group.elements.clone()) != *before;
                *verified = group.verified;
            }
        });
        (status, mirrored)
    }

    #[test]
    fn single_round_happy_path() {
        let (cfg, params) = params_for(7);
        let alice: Vec<u64> = (1..=500).collect();
        let bob: Vec<u64> = (5..=503).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 99);
        let mut b = BobSession::new(cfg, params, &bob, 99);
        let sketches = start_checked(&mut a, 1);
        assert_eq!(sketches.len(), params.groups);
        let reports = b.handle_sketches(&sketches);
        let status = a.apply_reports(&reports);
        assert!(status.all_verified);
        assert_eq!(status.recovered_this_round, 7);
        // Ascending, and Alice's own share told apart without her set.
        assert_eq!(a.recovered_so_far(), [1, 2, 3, 4, 501, 502, 503]);
        let (recovered, mine) = a.into_recovered_and_mine();
        assert_eq!(recovered, [1, 2, 3, 4, 501, 502, 503]);
        assert_eq!(mine, [1, 2, 3, 4]);
    }

    #[test]
    fn bob_reports_decode_failure_when_capacity_exceeded() {
        // Parameterize for d = 5 but create 400 differences concentrated so
        // that some group certainly exceeds t.
        let (cfg, params) = params_for(5);
        let alice: Vec<u64> = (1..=1000).collect();
        let bob: Vec<u64> = (601..=1000).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 7);
        let mut b = BobSession::new(cfg, params, &bob, 7);
        let sketches = a.start_round();
        let reports = b.handle_sketches(&sketches);
        assert!(b.decode_failures() > 0);
        assert!(reports
            .iter()
            .any(|r| matches!(r.body, GroupReportBody::DecodeFailed)));
        // Alice splits the failed sessions; the protocol stays consistent and
        // finishes over subsequent rounds.
        let mut status = a.apply_reports(&reports);
        let mut rounds = 1;
        while !status.all_verified && rounds < 20 {
            let sketches = a.start_round();
            let reports = b.handle_sketches(&sketches);
            status = a.apply_reports(&reports);
            rounds += 1;
        }
        assert!(
            status.all_verified,
            "did not converge after {rounds} rounds"
        );
        let mut rec = a.into_recovered();
        rec.sort_unstable();
        assert_eq!(rec, (1..=600).collect::<Vec<u64>>());
    }

    #[test]
    fn membership_constraints_follow_splits() {
        let (cfg, params) = params_for(5);
        let alice: Vec<u64> = (1..=50).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 5);
        let before: usize = a.groups.len();
        // Force a split of the first session and check the children carry an
        // extra membership constraint.
        let first_id = a.groups[0].id;
        let parent_membership = a.groups[0].membership.len();
        a.split_group(0, first_id);
        assert_eq!(a.groups.len(), before + 2);
        for g in a.groups.iter().filter(|g| g.id > params.groups as u64) {
            assert_eq!(g.membership.len(), parent_membership + 1);
        }
    }

    /// The transcript cases: (|A|, d_planned, d_actual, seed, layers).
    /// Bob's set is Alice's without its first `d_actual` elements.
    const TRANSCRIPT_CASES: [(usize, usize, usize, u64, u32); 15] = [
        (1000, 5, 300, 21, 1),
        (50, 1, 0, 0x01, 1),
        (64, 11, 1, 0xD1CE, 1),
        (97, 3, 40, 0xFEED_FACE, 1),
        (130, 7, 7, 0x1234_5678_9ABC_DEF0, 1),
        (180, 1, 79, u64::MAX, 1),
        (222, 12, 60, 0x0BAD_5EED, 1),
        (260, 2, 25, 42, 1),
        (301, 9, 3, 0x7777, 1),
        (350, 4, 70, 0xA5A5_A5A5, 1),
        (399, 6, 12, 7, 1),
        (399, 1, 50, 8, 1),
        (1000, 5, 300, 21, 3),
        (2000, 60, 60, 0x51, 2),
        (350, 4, 70, 0xA5A5_A5A5, 4),
    ];

    /// Alice's set of a transcript case.
    fn transcript_set(size: usize) -> Vec<u64> {
        (1..=size as u64)
            .map(|x| x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32 | 1)
            .collect()
    }

    #[test]
    fn batched_decode_matches_reference_transcripts() {
        // Drive three Bobs — the batched path over his own
        // partition, the same over a shared view's ranges, and the seed's
        // serial reference — through multi-round runs; every sketch batch
        // (against the per-element encoder), every report batch and the
        // final state must agree. Planning for `d_planned` while the true
        // difference is `d_actual` covers clean decodes (`d_actual` small)
        // and forced decode failures with §3.2 splits (`d_actual` ≫
        // `d_planned`); more than one layer a trip brings in the batch
        // rules — `c(B_i)` once per session, on its first decoded layer.
        let (mut repeats_stripped, mut mirrored) = (0, 0);
        for (size, d_planned, d_actual, seed, layers) in TRANSCRIPT_CASES {
            let case = format!("case ({size}, {d_planned}, {d_actual}, {seed:#x}, {layers})");
            let (cfg, params) = params_for(d_planned);
            let alice = transcript_set(size);
            let bob = &alice[d_actual..];
            let mut a_fast = AliceSession::new(cfg, params, &alice, seed);
            let mut a_ref = AliceSession::new(cfg, params, &alice, seed);
            let mut b_fast = BobSession::new(cfg, params, bob, seed);
            let mut b_ref = BobSession::new(cfg, params, bob, seed);
            let view = Arc::new(SetView::build(bob.to_vec(), seed, 8, 0));
            let mut b_view = BobSession::from_view(cfg, params, view);
            for round in 0..24 {
                let sketches_fast = start_checked(&mut a_fast, layers);
                let sketches_ref = a_ref.start_rounds(layers);
                assert_eq!(sketches_fast, sketches_ref, "{case}: sketches r{round}");
                let reports_fast = b_fast.handle_sketches(&sketches_fast);
                let reports_ref = b_ref.handle_sketches_reference(&sketches_ref);
                assert_eq!(reports_fast, reports_ref, "{case}: reports r{round}");
                let reports_view = b_view.handle_sketches(&sketches_fast);
                assert_eq!(reports_view, reports_ref, "{case}: view reports r{round}");
                for b in [&b_fast, &b_view] {
                    assert_eq!(b.decode_failures(), b_ref.decode_failures());
                    assert_eq!(b.session_count(), b_ref.session_count());
                }
                // One layer a trip answers every request as it always has;
                // deeper batches answer a session's repeated requests once.
                let answered = |r: &GroupReport| {
                    matches!(
                        r.body,
                        GroupReportBody::Decoded {
                            checksum: Some(_),
                            ..
                        }
                    )
                };
                for (asked, report) in sketches_fast.iter().zip(&reports_fast) {
                    let decoded = report.body != GroupReportBody::DecodeFailed;
                    if layers == 1 {
                        assert_eq!(answered(report), asked.needs_checksum && decoded, "{case}");
                    } else if asked.needs_checksum && decoded && !answered(report) {
                        repeats_stripped += 1;
                    }
                }
                let mut answers: Vec<SessionId> = reports_fast
                    .iter()
                    .filter(|r| answered(r))
                    .map(|r| r.session)
                    .collect();
                answers.sort_unstable();
                assert!(answers.windows(2).all(|w| w[0] != w[1]), "{case}: r{round}");
                let (status, reads) = apply_checked(&mut a_fast, &reports_fast);
                mirrored += reads;
                a_ref.apply_reports(&reports_ref);
                if status.all_verified {
                    break;
                }
            }
            assert!(a_fast.all_verified(), "{case}: did not converge");
            let fast = a_fast.into_recovered();
            assert_eq!(fast, sorted(alice[..d_actual].to_vec()), "{case}");
            assert_eq!(fast, a_ref.into_recovered(), "{case}");
        }
        assert!(repeats_stripped > 100, "only {repeats_stripped} repeats");
        println!("{mirrored} layers read bin bytes mirrored through an edit");
        assert!(mirrored > 0);
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    /// Drive a pair to completion, `layers` a trip, folding every sketch
    /// batch, every report batch and the recovered set into `digest`. The
    /// passes are held to their oracles on the way; they read, never
    /// write, what is folded.
    fn digest_run(
        digest: &mut u64,
        (cfg, params): (PbsConfig, OptimalParams),
        alice: &[u64],
        bob: &[u64],
        seed: u64,
        layers: u32,
    ) -> Vec<u64> {
        let mut fold = |bytes: &[u8]| *digest = xhash::xxhash64(bytes, *digest);
        let mut a = AliceSession::new(cfg, params, alice, seed);
        let mut b = BobSession::new(cfg, params, bob, seed);
        for _ in 0..24 {
            let sketches = start_checked(&mut a, layers);
            fold(&crate::wire::encode_sketches(&sketches, params.m));
            let reports = b.handle_sketches(&sketches);
            fold(&crate::wire::encode_reports(&reports));
            if apply_checked(&mut a, &reports).0.all_verified {
                break;
            }
        }
        assert!(a.all_verified(), "did not converge");
        let recovered = a.into_recovered();
        let bytes: Vec<u8> = recovered.iter().flat_map(|e| e.to_le_bytes()).collect();
        fold(&bytes);
        recovered
    }

    #[test]
    fn transcripts_digest_to_their_pinned_value() {
        // No byte moves: what a session emits is a pure function of the
        // two sets and the seed, so the transcripts of a fixed grid fold
        // to one value. The grid: the transcript cases above, and the
        // plans `Pbs::reconcile` picks at d = 10, 10³, 10⁴ (two-sided
        // differences over 2·10⁴ elements), each driven at one and at
        // three layers a trip. A change that moves a byte moves the
        // digest.
        let mut digest = 0u64;
        for (size, d_planned, d_actual, seed, layers) in TRANSCRIPT_CASES {
            let alice = transcript_set(size);
            let recovered = digest_run(
                &mut digest,
                params_for(d_planned),
                &alice,
                &alice[d_actual..],
                seed,
                layers,
            );
            assert_eq!(recovered, sorted(alice[..d_actual].to_vec()));
        }
        let all = transcript_set(30_000);
        for (d, seed) in [(10, 0xD10), (1_000, 0xD1000), (10_000, 0xD10000)] {
            let (alice, bob) = (&all[..20_000], &all[d / 2..20_000 + d / 2]);
            let cfg = PbsConfig::default();
            let report = Pbs::new(cfg).reconcile(alice, bob, seed);
            let bytes: Vec<u8> = report
                .outcome
                .recovered
                .iter()
                .flat_map(|e| e.to_le_bytes())
                .collect();
            digest = xhash::xxhash64(&bytes, digest);
            for layers in [1, 3] {
                let recovered =
                    digest_run(&mut digest, (cfg, report.params), alice, bob, seed, layers);
                assert_eq!(recovered.len(), d, "d = {d}, {layers} layers");
            }
        }
        assert_eq!(digest, 0x8982_ca74_7371_3d08, "{digest:#018x}");
    }

    /// Drive a pair of sessions to completion with `layers` pipelined
    /// rounds per trip; returns (recovered, round_trips, protocol_rounds).
    /// With more than one layer a trip, some layer must have read bin
    /// bytes mirrored through an earlier layer's edit.
    fn run_pipelined(
        cfg: PbsConfig,
        params: OptimalParams,
        alice: &[u64],
        bob: &[u64],
        seed: u64,
        layers: u32,
    ) -> (Vec<u64>, u32, u32) {
        let mut a = AliceSession::new(cfg, params, alice, seed);
        let mut b = BobSession::new(cfg, params, bob, seed);
        let (mut trips, mut mirrored) = (0, 0);
        while !a.all_verified() && trips < 40 {
            let sketches = start_checked(&mut a, layers);
            let reports = b.handle_sketches(&sketches);
            mirrored += apply_checked(&mut a, &reports).1;
            trips += 1;
        }
        assert!(a.all_verified(), "pipelined run did not converge");
        println!("{layers} layers a trip: {mirrored} layers read mirrored bin bytes");
        assert!(layers == 1 || mirrored > 0);
        assert_eq!(a.round_trips(), trips);
        let rounds = a.round();
        (a.into_recovered(), trips, rounds)
    }

    #[test]
    fn pipelined_rounds_recover_exactly_in_fewer_round_trips() {
        // A properly parameterized large run: with ~80 groups, a handful
        // suffer exception bins in round 1 and the serial protocol pays a
        // full round trip for each retry round. Pipelining three layers per
        // trip resolves those retries inside trip 1.
        let (cfg, params) = params_for(400);
        let alice: Vec<u64> = (1..=20_000).collect();
        let bob: Vec<u64> = (401..=20_000).collect();
        let (serial, serial_trips, _) = run_pipelined(cfg, params, &alice, &bob, 77, 1);
        assert_eq!(sorted(serial.clone()), (1..=400).collect::<Vec<u64>>());
        let (pipelined, trips, rounds) = run_pipelined(cfg, params, &alice, &bob, 77, 3);
        assert_eq!(sorted(pipelined), sorted(serial));
        assert!(
            trips < serial_trips,
            "pipelined {trips} trips not fewer than serial {serial_trips}"
        );
        assert_eq!(rounds, trips * 3);
    }

    #[test]
    fn pipelined_rounds_survive_decode_failures_and_splits() {
        // Deliberately under-parameterized (d = 8 against 100 real
        // differences): every trip's layers all fail for the overloaded
        // groups, which must split exactly once per trip on both sides and
        // still converge to the exact difference.
        let (cfg, params) = params_for(8);
        let alice: Vec<u64> = (1..=2_000).collect();
        let bob: Vec<u64> = (101..=2_000).collect();
        let (pipelined, _, _) = run_pipelined(cfg, params, &alice, &bob, 77, 3);
        assert_eq!(sorted(pipelined), (1..=100).collect::<Vec<u64>>());
    }

    #[test]
    fn pipelined_stale_layers_self_correct() {
        // Well-parameterized large run: layer 2 of each batch is computed
        // against Alice's pre-trip state, so every element recovered by
        // layer 1 re-appears in layer 2's reports — and must cancel to
        // s = 0 instead of being toggled back out.
        let (cfg, params) = params_for(60);
        let alice: Vec<u64> = (1..=5_000).collect();
        let bob: Vec<u64> = (61..=5_000).collect();
        let (recovered, trips, _) = run_pipelined(cfg, params, &alice, &bob, 9, 2);
        assert_eq!(sorted(recovered), (1..=60).collect::<Vec<u64>>());
        assert!(trips <= 2, "expected ≤ 2 trips, took {trips}");
    }

    #[test]
    fn single_layer_pipelining_matches_classic_rounds() {
        // start_rounds(1) must be byte-identical to the classic protocol,
        // split decisions included.
        let (cfg, params) = params_for(5);
        let alice: Vec<u64> = (1..=1_500).collect();
        let bob: Vec<u64> = (201..=1_500).collect();
        let mut a1 = AliceSession::new(cfg, params, &alice, 13);
        let mut b1 = BobSession::new(cfg, params, &bob, 13);
        let mut a2 = AliceSession::new(cfg, params, &alice, 13);
        let mut b2 = BobSession::new(cfg, params, &bob, 13);
        for round in 0..25 {
            let s1 = a1.start_round();
            let s2 = a2.start_rounds(1);
            assert_eq!(s1, s2, "sketch divergence round {round}");
            let r1 = b1.handle_sketches(&s1);
            let r2 = b2.handle_sketches(&s2);
            assert_eq!(r1, r2, "report divergence round {round}");
            let st1 = a1.apply_reports(&r1);
            let st2 = a2.apply_reports(&r2);
            assert_eq!(st1, st2);
            if st1.all_verified {
                break;
            }
        }
        assert!(a1.all_verified());
        assert_eq!(sorted(a1.into_recovered()), sorted(a2.into_recovered()));
    }

    #[test]
    fn adaptive_depth_prices_speculation_before_sending_it() {
        // The controller on bare numbers. A sketch of the d = 10⁴ session:
        // t = 12 syndromes of m = 8 bits.
        let bits = 96u64;
        let floor = SPECULATION_FLOOR_BITS;
        // (active sessions, sketch bits sent, last trip (decoded, failed),
        //  grant) → depth
        let table = [
            // The dense first trip of a d = 10⁴ session goes out once…
            (2_730, 0, None, 4, 1),
            // …as does a d = 10³ one (200 groups of 13 × 11 bits below).
            (2_730, 0, None, 255, 1),
            // A first trip under the floor speculates at the grant: 10
            // groups cost 960 bits a layer, a segment holds 12 of them.
            (10, 0, None, 4, 4),
            (10, 0, None, 2, 2),
            (10, 0, None, 255, 13),
            // The sparse tail — 3 % of the groups left — gets the grant…
            (82, 2_730 * bits, Some((2_730, 0)), 4, 4),
            // …a thicker one what an eighth of the bits sent buys…
            (150, 2_730 * bits, Some((2_730, 0)), 4, 3),
            (300, 2_730 * bits, Some((2_730, 0)), 4, 2),
            // …and one as dense as the first trip nothing.
            (2_000, 2_730 * bits, Some((2_730, 0)), 4, 1),
            // Failures ≥ decodes: §3.2 has tripled the sessions, no
            // speculation even under the floor.
            (9, 3 * bits, Some((1, 2)), 4, 1),
            (3, bits, Some((0, 1)), 4, 1),
            // A few failures among many decodes do not stop a cheap tail.
            (90, 2_730 * bits, Some((2_700, 30)), 4, 4),
        ];
        for (active, sent, last, grant, want) in table {
            let depth = speculation_depth(active, bits, sent, last, grant);
            assert_eq!(
                depth, want,
                "{active} active, {sent} sent, {last:?}, {grant}"
            );
            // What it speculates fits the budget it was given.
            let speculative = (depth as u64 - 1) * active * bits;
            assert!(speculative <= floor.max(sent / SPECULATION_SHARE));
        }
        // Over a sweep: never above the grant, never below 1 (a grant of 0
        // is a grant of 1), never shallower under a larger grant, and the
        // next-deeper batch would have broken the budget or the grant.
        for active in [0u64, 1, 7, 40, 121, 500, 3_000] {
            for sent in [0u64, 5_000, 40_000, 262_080, 10_000_000] {
                for last in [None, Some((50, 0)), Some((50, 49)), Some((5, 5))] {
                    let mut previous = 0;
                    for grant in 0..=9u32 {
                        let depth = speculation_depth(active, bits, sent, last, grant);
                        assert!(depth >= 1 && depth <= grant.max(1));
                        assert!(depth >= previous, "shrank as the grant grew");
                        previous = depth;
                        let failed_trip = matches!(last, Some((d, f)) if f > 0 && f >= d);
                        if depth < grant && !failed_trip {
                            let deeper = depth as u64 * active * bits;
                            assert!(deeper > floor.max(sent / SPECULATION_SHARE));
                        }
                    }
                }
            }
        }

        // The same rule read off live sessions. d = 4: the whole first
        // trip is a few hundred bits, so it takes any grant whole.
        let (cfg, params) = params_for(4);
        let alice: Vec<u64> = (1..=500).collect();
        let bob: Vec<u64> = (5..=500).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 99);
        let mut b = BobSession::new(cfg, params, &bob, 99);
        assert_eq!(a.next_pipeline_depth(4), 4);
        assert_eq!(a.next_pipeline_depth(0), 1, "grant is clamped to >= 1");
        let sketches = a.start_rounds(4);
        let status = a.apply_reports(&b.handle_sketches(&sketches));
        assert!(status.all_verified);
        let groups = params.groups as u32;
        assert_eq!(status.speculative_layers, 3 * groups);
        assert_eq!(
            status.speculative_unused,
            3 * groups,
            "layer 1 verified them all"
        );
        assert_eq!(a.speculative_layers(), 3 * groups as u64);
        assert_eq!(a.speculative_unused(), 3 * groups as u64);

        // d = 2 000, planned for the 1.38 × the estimator inflates it to:
        // the dense first trip goes out once, the sparse tail is
        // speculated on at the full grant and ends the session.
        let (cfg, params) = params_for(2_760);
        let alice: Vec<u64> = (1..=60_000).collect();
        let bob: Vec<u64> = (2_001..=60_000).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 5);
        let mut b = BobSession::new(cfg, params, &bob, 5);
        assert_eq!(a.next_pipeline_depth(4), 1);
        let sketches = a.start_rounds(1);
        let first = a.apply_reports(&b.handle_sketches(&sketches));
        assert_eq!((first.speculative_layers, first.speculative_unused), (0, 0));
        assert!(!first.all_verified && first.active_sessions * 20 < params.groups);
        assert_eq!(a.next_pipeline_depth(4), 4);
        let sketches = a.start_rounds(4);
        assert_eq!(sketches.len(), 4 * first.active_sessions);
        let second = a.apply_reports(&b.handle_sketches(&sketches));
        assert!(second.all_verified, "{second:?}");
        assert_eq!(
            second.speculative_layers as usize,
            3 * first.active_sessions
        );
        assert!(second.speculative_unused <= second.speculative_layers);
        assert_eq!(a.speculative_layers(), second.speculative_layers as u64);

        // Under-parameterized (planned for d = 5, 400 apart): every decode
        // fails, the splits triple the sessions, and the controller stays
        // at one layer although three sketches are far under the floor.
        let (cfg, params) = params_for(5);
        let alice: Vec<u64> = (1..=1_000).collect();
        let bob: Vec<u64> = (601..=1_000).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 7);
        let mut b = BobSession::new(cfg, params, &bob, 7);
        assert_eq!(a.next_pipeline_depth(4), 4);
        let mut seen = Vec::new();
        for _ in 0..2 {
            let sketches = a.start_rounds(1);
            let status = a.apply_reports(&b.handle_sketches(&sketches));
            assert!(status.layers_failed >= status.layers_decoded);
            seen.push(a.next_pipeline_depth(4));
        }
        assert_eq!(seen, [1, 1], "mostly-failed trips do not speculate");
    }

    #[test]
    fn hostile_reports_are_counted_and_applied_entry_by_entry() {
        // What a decode can never produce but the wire can carry, against a
        // sub-group two membership constraints deep with two layers pending.
        let (cfg, params) = params_for(5);
        let n = params.n as u64;
        let alice: Vec<u64> = (1..=600).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 11);
        let parent = a.groups[0].id;
        a.split_group(0, parent);
        a.start_rounds(2);
        let child = child_sessions(parent)[0];
        let group = a.groups.iter().find(|g| g.id == child).unwrap();
        let before = sorted(group.elements.to_vec());
        let layer = PartitionHasher::new(n, group.pending_bin_seeds[0]);
        let xor_in = |p: u64| {
            let in_bin = before.iter().filter(|&&e| layer.position(e) == p);
            in_bin.fold(0, |x, e| x ^ e)
        };
        let in_path = |s: u64, depth: usize| {
            let path = &group.membership[..depth];
            path.iter().all(|m| m.hasher.bin(s) == m.expected)
        };
        // Alice holds `mine`; the other three are elements she lacks: two
        // that belong in this sub-group (`shared` in mine's bin), and one
        // of a sibling sub-group.
        let mine = before[0];
        let (p, q) = (layer.position(mine), layer.position(mine) % n + 1);
        let theirs = (1000..).find(|&s| in_path(s, 2) && layer.position(s) == q);
        let shared = (1000..).find(|&s| in_path(s, 2) && layer.position(s) == p);
        let sibling = (1000..).find(|&s| in_path(s, 1) && !in_path(s, 2));
        let (theirs, shared, sibling) = (theirs.unwrap(), shared.unwrap(), sibling.unwrap());
        let r = layer.position(sibling);
        let bin = |position: u64, xor_sum: u64| BinInfo { position, xor_sum };
        let decoded = |bins: Vec<BinInfo>| GroupReport {
            session: child,
            body: GroupReportBody::Decoded {
                bins,
                checksum: None,
            },
        };

        let status = a.apply_reports(&[
            decoded(vec![
                bin(0, 0xABCD),                      // no such bin: fake
                bin(n + 1, 0x1234),                  // beyond the bitmap: fake
                bin(n + 7, 0),                       // beyond it, empty: skipped
                bin(q, xor_in(q) ^ theirs),          // toggled in…
                bin(q, xor_in(q) ^ theirs),          // …and, repeated, back out
                bin(r, xor_in(r) ^ sibling),         // right bin, wrong sub-group: fake
                bin(p, xor_in(p) ^ mine),            // hers: toggled out
                bin(p, xor_in(p) ^ shared),          // same bin, another candidate: in
                bin(p, xor_in(p) ^ mine),            // hers again: back in…
                bin(p, xor_in(p) ^ mine),            // …and out for good
                bin(p, xor_in(p) ^ (1 << 40)),       // outside the universe: fake
                bin(q, xor_in(q) ^ (theirs ^ 0x10)), // hashes to another bin: fake
            ]),
            decoded(Vec::new()),
            // A third report where two layers were sent is not applied.
            decoded(vec![bin(q, xor_in(q) ^ theirs)]),
        ]);
        assert_eq!(status.recovered_this_round, 6);
        assert_eq!((status.layers_decoded, status.layers_failed), (3, 0));
        assert_eq!(a.fakes_rejected(), 5);
        assert_eq!(a.active_sessions(), params.groups + 2);
        let group = a.groups.iter().find(|g| g.id == child).unwrap();
        let mut after = before.clone();
        after.retain(|&e| e != mine);
        after.push(shared);
        assert_eq!(sorted(group.elements.to_vec()), sorted(after.clone()));
        assert_eq!(
            group.checksum & universe_mask(cfg.universe_bits),
            xhash::element_checksum(cfg.universe_bits, after)
        );
        let (recovered, hers) = a.into_recovered_and_mine();
        assert_eq!(recovered, sorted(vec![mine, shared]));
        assert_eq!(hers, [mine]);
    }

    #[test]
    fn every_pass_hands_its_scratch_back_all_zero() {
        // One scratch a session, alive across trips: a pipelined first
        // trip, then one layer a trip to the end. Groups lost in their
        // bitmap (cleared bin by bin) and groups that fill it (cleared by a
        // sweep), decodes that succeed — at d = 34 one that leaves a group
        // unverified, so the trip's later layers read bin bytes mirrored
        // through its edits — and, the last case, groups that fail and
        // split on the first two trips, so a later trip runs on what a
        // failed decode left behind. The oracle builds its state fresh per
        // group.
        // (|A|, d planned, d actual)
        let mut mirrored = 0;
        let cases = [
            (6u64, 1, 2),
            (40, 2, 3),
            (900, 5, 4),
            (3000, 30, 34),
            (900, 2, 80),
        ];
        for (size, d_planned, d_actual) in cases {
            let (cfg, params) = params_for(d_planned);
            let alice: Vec<u64> = (1..=size).map(|x| x * 7919).collect();
            let bob = &alice[d_actual..];
            let mut a = AliceSession::new(cfg, params, &alice, 3);
            let mut b = BobSession::new(cfg, params, bob, 3);
            let mut b_ref = BobSession::new(cfg, params, bob, 3);
            let clean = |s: &GroupScratch| {
                let dense = [&s.parity, &s.wanted, &s.xor_by_bin];
                dense.iter().all(|v| v.iter().all(|&w| w == 0))
            };
            let mut splits_by_trip = Vec::new();
            while !a.all_verified() {
                let trip = splits_by_trip.len();
                let case = format!("|A| = {size}, d = {d_actual}, trip {trip}");
                assert!(trip < 12, "{case}: did not converge");
                let sketches = start_checked(&mut a, if trip == 0 { 3 } else { 1 });
                assert!(clean(&a.scratch), "Alice's encode, {case}");
                let sessions = b.session_count();
                let reports = b.handle_sketches(&sketches);
                assert!(clean(&b.scratch), "Bob, {case}");
                assert_eq!(
                    reports,
                    b_ref.handle_sketches_reference(&sketches),
                    "{case}"
                );
                splits_by_trip.push((b.session_count() - sessions) / 2);
                mirrored += apply_checked(&mut a, &reports).1;
                assert!(clean(&a.scratch), "Alice's apply, {case}");
            }
            assert_eq!(
                sorted(a.into_recovered()),
                &alice[..d_actual],
                "|A| = {size}"
            );
            // Only the overloaded case splits: on its pipelined trip, again
            // on the next, and it runs at least one trip on the children.
            if d_actual == 80 {
                let shape = matches!(splits_by_trip[..], [a, b, _, ..] if a > 0 && b > 0);
                assert!(shape, "splits a trip: {splits_by_trip:?}");
            } else {
                assert!(splits_by_trip.iter().all(|&splits| splits == 0));
            }
        }
        println!("{mirrored} layers read bin bytes mirrored through an edit");
        assert!(mirrored > 0);
    }

    #[test]
    fn a_bitmap_longer_than_the_bound_is_refused_at_construction() {
        // Per-bin state is dense; the planner stops at n = 2²⁰ − 1.
        let (cfg, mut params) = params_for(5);
        (params.m, params.n) = (23, (1 << 23) - 1);
        let alice = std::panic::catch_unwind(|| AliceSession::new(cfg, params, &[1, 2], 1));
        let bob = std::panic::catch_unwind(|| BobSession::new(cfg, params, &[1, 2], 1));
        assert!(alice.is_err() && bob.is_err());
    }

    #[test]
    fn empty_sets_verify_immediately() {
        let (cfg, params) = params_for(1);
        let mut a = AliceSession::new(cfg, params, &[], 3);
        let mut b = BobSession::new(cfg, params, &[], 3);
        let sketches = a.start_round();
        let reports = b.handle_sketches(&sketches);
        let status = a.apply_reports(&reports);
        assert!(status.all_verified);
        assert_eq!(status.recovered_this_round, 0);
    }
}
