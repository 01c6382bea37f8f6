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
use crate::PbsConfig;
use analysis::OptimalParams;
use bch::BchCodec;
use std::collections::{HashMap, HashSet};
use xhash::{derive_seed, PartitionHasher, SetChecksum};

/// Salt labels for seed derivation, so the group partition, each round's bin
/// partition and each split partition use mutually independent hash functions.
const GROUP_SALT: u64 = 0x6_1201;
const ROUND_SALT: u64 = 0x2_0550;
const SPLIT_SALT: u64 = 0x3_5711;

/// Number of ways a group is split after a BCH decoding failure (§3.2
/// explains why a three-way split is preferred over a two-way split).
const SPLIT_WAYS: u64 = 3;

/// Largest parity-bitmap length handled with dense per-bin accumulators on
/// the decode paths of *both* parties (`n/8 + 8n` bytes of scratch); larger
/// `n` falls back to hash-map accumulation.
const DENSE_LIMIT: u64 = 1 << 22;

fn bin_seed(base: u64, session: SessionId, round: u32) -> u64 {
    derive_seed(derive_seed(base, session), ROUND_SALT + round as u64)
}

fn split_seed(base: u64, session: SessionId) -> u64 {
    derive_seed(derive_seed(base, session), SPLIT_SALT)
}

fn group_seed(base: u64) -> u64 {
    derive_seed(base, GROUP_SALT)
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

#[derive(Debug)]
struct AliceGroup {
    id: SessionId,
    /// Alice's current working set for this group: initially `A_i`, with the
    /// estimated differences of previous rounds applied (§2.4).
    elements: HashSet<u64>,
    /// Incrementally maintained checksum of `elements`.
    checksum: SetChecksum,
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
    verified: bool,
}

impl AliceGroup {
    fn new(
        id: SessionId,
        elements: HashSet<u64>,
        membership: Vec<Membership>,
        universe_bits: u32,
    ) -> Self {
        let mut checksum = SetChecksum::new(universe_bits);
        for &e in &elements {
            checksum.add(e);
        }
        AliceGroup {
            id,
            elements,
            checksum,
            bob_checksum: None,
            membership,
            pending_bin_seeds: Vec::new(),
            reports_consumed: 0,
            verified: false,
        }
    }
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
    /// Layer depth of the last [`Self::start_rounds`] batch.
    last_depth: u32,
    /// `(decoded, failed)` per-group layer reports of the last
    /// [`Self::apply_reports`] batch; `None` before the first batch.
    last_layer_stats: Option<(u32, u32)>,
    groups: Vec<AliceGroup>,
    /// Elements whose membership Alice has toggled so far — once every group
    /// verifies, this is exactly `A△B`.
    recovered: HashSet<u64>,
    fakes_rejected: u64,
}

impl AliceSession {
    /// Create Alice's session state from her set.
    pub fn new(cfg: PbsConfig, params: OptimalParams, elements: &[u64], seed: u64) -> Self {
        let codec = BchCodec::new(params.m, params.t);
        let group_hasher = PartitionHasher::new(params.groups as u64, group_seed(seed));
        let mut buckets: Vec<HashSet<u64>> = vec![HashSet::new(); params.groups];
        for &e in elements {
            buckets[group_hasher.bin(e) as usize].insert(e);
        }
        let groups = buckets
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
                    cfg.universe_bits,
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
            last_depth: 1,
            last_layer_stats: None,
            groups,
            recovered: HashSet::new(),
            fakes_rejected: 0,
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
    pub fn active_sessions(&self) -> usize {
        self.groups.iter().filter(|g| !g.verified).count()
    }

    /// `true` once every group pair's checksum has verified.
    pub fn all_verified(&self) -> bool {
        self.groups.iter().all(|g| g.verified)
    }

    /// Number of recovered elements rejected by the Procedure 3 check so far.
    pub fn fakes_rejected(&self) -> u64 {
        self.fakes_rejected
    }

    /// The set of elements Alice currently believes to be in `A△B`.
    pub fn recovered_so_far(&self) -> &HashSet<u64> {
        &self.recovered
    }

    /// Consume the session and return the recovered difference.
    pub fn into_recovered(self) -> Vec<u64> {
        self.recovered.into_iter().collect()
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
    /// Group × layer sketches are independent, so they are computed with
    /// [`protocol::par_map`]: worker threads when the `parallel` feature is
    /// on, a plain serial loop otherwise — identical output either way.
    pub fn start_rounds(&mut self, layers: u32) -> Vec<GroupSketch> {
        assert!(layers >= 1, "a sketch batch needs at least one layer");
        let base = self.round;
        self.round += layers;
        self.round_trips += 1;
        self.last_depth = layers;
        // Assign the batch's bin seeds first (mutates the groups), then
        // sketch over shared references so the map body is pure.
        for group in self.groups.iter_mut().filter(|g| !g.verified) {
            group.pending_bin_seeds = (1..=layers)
                .map(|layer| bin_seed(self.base_seed, group.id, base + layer))
                .collect();
            group.reports_consumed = 0;
        }
        let active: Vec<&AliceGroup> = self.groups.iter().filter(|g| !g.verified).collect();
        let jobs: Vec<(&AliceGroup, usize)> = (0..layers as usize)
            .flat_map(|layer| active.iter().map(move |g| (*g, layer)))
            .collect();
        let codec = &self.codec;
        let n = self.params.n as u64;
        let sketches = protocol::par_map(&jobs, |&(group, layer)| {
            let hasher = PartitionHasher::new(n, group.pending_bin_seeds[layer]);
            let mut sketch = codec.empty_sketch();
            let positions: Vec<u64> = group.elements.iter().map(|&e| hasher.position(e)).collect();
            sketch.add_batch(&positions, codec.field());
            sketch
        });
        jobs.iter()
            .zip(sketches)
            .map(|(&(group, layer), sketch)| GroupSketch {
                session: group.id,
                round: base + 1 + layer as u32,
                sketch,
                // Repeated on every layer while c(B_i) is unknown: the
                // first layer's report may be a decode failure, and the
                // checksum must not be lost with it.
                needs_checksum: group.bob_checksum.is_none(),
            })
            .collect()
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
        let mut recovered_this_round = 0usize;
        let (mut layers_decoded, mut layers_failed) = (0u32, 0u32);
        // `false` until a session shows at least one successfully decoded
        // layer; sessions still `false` at the end of the batch are split.
        let mut any_decoded: HashMap<SessionId, bool> = HashMap::new();

        let mut index: HashMap<SessionId, usize> = HashMap::with_capacity(self.groups.len());
        for (i, g) in self.groups.iter().enumerate() {
            index.insert(g.id, i);
        }

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
        }
    }

    /// Pick the layer depth for the *next* pipelined batch, bounded by
    /// `grant` (the depth the transport's handshake granted).
    ///
    /// Adaptive pipelining per §3.2's economics: a speculative layer is a
    /// cheap win while decodes succeed (it resolves the next round's
    /// retries inside the same trip) and pure waste while they fail (every
    /// layer of an overloaded group fails identically until the group
    /// splits). The controller therefore starts at the granted depth and
    /// resizes per trip from the previous trip's layer-verification rate:
    ///
    /// * every layer decoded → deepen toward the grant (double),
    /// * at least half the layers failed → back off toward 1 (halve),
    /// * mixed outcomes → hold the current depth.
    pub fn next_pipeline_depth(&self, grant: u32) -> u32 {
        let grant = grant.max(1);
        let Some((decoded, failed)) = self.last_layer_stats else {
            return grant;
        };
        let previous = self.last_depth.max(1);
        if failed == 0 {
            previous.saturating_mul(2).min(grant)
        } else if failed >= decoded {
            (previous / 2).max(1)
        } else {
            previous.min(grant)
        }
    }

    /// Handle a successfully decoded report for group index `gi`. Returns the
    /// number of elements applied.
    fn apply_decoded(&mut self, gi: usize, bins: &[BinInfo], checksum: Option<u64>) -> usize {
        let universe_mask = if self.cfg.universe_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.cfg.universe_bits) - 1
        };
        let group = &mut self.groups[gi];
        // This report answers the oldest unanswered layer of the last sketch
        // batch; a report beyond the layers actually sent is ignored.
        let Some(&layer_seed) = group.pending_bin_seeds.get(group.reports_consumed) else {
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
            return 0;
        }

        // One pass over the group's current elements: XOR sum per reported
        // bin. This mirrors the parity-bitset trick of Bob's sketch build
        // (`BobSession::compute_report`): for the bitmap lengths PBS uses, a
        // dense per-bin XOR accumulator plus a reported-bin membership bitset
        // replaces the hash map, so the per-element re-hash pass costs one
        // partition hash and two array probes, and reading the sums back is
        // O(bins). Bins outside `1..=n` (impossible from an honest decode,
        // reachable through the wire format) accumulate nothing, exactly as
        // the map did. Very large `n` keeps the map.
        let n = self.params.n as u64;
        let hasher = PartitionHasher::new(n, layer_seed);
        let alice_xor: Vec<u64> = if n <= DENSE_LIMIT {
            let mut xor_by_bin = vec![0u64; n as usize + 1];
            let mut wanted = vec![0u64; (n as usize + 1).div_ceil(64)];
            for b in bins {
                if b.position <= n {
                    wanted[b.position as usize / 64] |= 1u64 << (b.position % 64);
                }
            }
            for &e in &group.elements {
                let p = hasher.position(e) as usize;
                if wanted[p / 64] >> (p % 64) & 1 == 1 {
                    xor_by_bin[p] ^= e;
                }
            }
            bins.iter()
                .map(|b| xor_by_bin.get(b.position as usize).copied().unwrap_or(0))
                .collect()
        } else {
            let mut by_bin: HashMap<u64, u64> = HashMap::with_capacity(bins.len());
            for b in bins {
                by_bin.insert(b.position, 0);
            }
            for &e in &group.elements {
                let p = hasher.position(e);
                if let Some(slot) = by_bin.get_mut(&p) {
                    *slot ^= e;
                }
            }
            bins.iter()
                .map(|b| by_bin.get(&b.position).copied().unwrap_or(0))
                .collect()
        };

        let mut applied = 0usize;
        for (b, &xor_a) in bins.iter().zip(&alice_xor) {
            let s = xor_a ^ b.xor_sum;
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
            // Apply: toggle membership in the group's working set and in the
            // global recovered set.
            if group.elements.contains(&s) {
                group.elements.remove(&s);
                group.checksum.remove(s);
            } else {
                group.elements.insert(s);
                group.checksum.add(s);
            }
            if !self.recovered.insert(s) {
                self.recovered.remove(&s);
            }
            applied += 1;
        }

        // Checksum verification (Line 5 of Procedure 2).
        if let Some(expect) = group.bob_checksum {
            if group.checksum.value() == expect {
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
        let mut parts: [HashSet<u64>; 3] = [HashSet::new(), HashSet::new(), HashSet::new()];
        for &e in &parent.elements {
            parts[hasher.bin(e) as usize].insert(e);
        }
        for (k, part) in parts.into_iter().enumerate() {
            let mut membership = parent.membership.clone();
            membership.push(Membership {
                hasher,
                expected: k as u64,
            });
            self.groups.push(AliceGroup::new(
                children[k],
                part,
                membership,
                self.cfg.universe_bits,
            ));
        }
    }
}

// ---------------------------------------------------------------------------
// Bob
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct BobGroup {
    elements: Vec<u64>,
    checksum: u64,
}

/// Bob's side of the protocol: he answers Alice's sketches.
#[derive(Debug)]
pub struct BobSession {
    cfg: PbsConfig,
    params: OptimalParams,
    codec: BchCodec,
    base_seed: u64,
    groups: HashMap<SessionId, BobGroup>,
    decode_failures: u32,
}

impl BobSession {
    /// Create Bob's session state from his set.
    ///
    /// Duplicate input elements are dropped (first occurrence wins), exactly
    /// as [`AliceSession::new`] does via its hash sets. This matters: a
    /// duplicated element would cancel out of the XOR parity bitmap but
    /// count twice in the *additive* group checksum, leaving a group that
    /// can never verify no matter how often it splits.
    pub fn new(cfg: PbsConfig, params: OptimalParams, elements: &[u64], seed: u64) -> Self {
        let codec = BchCodec::new(params.m, params.t);
        let group_hasher = PartitionHasher::new(params.groups as u64, group_seed(seed));
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); params.groups];
        let mut seen = HashSet::with_capacity(elements.len());
        for &e in elements {
            if seen.insert(e) {
                buckets[group_hasher.bin(e) as usize].push(e);
            }
        }
        let groups = buckets
            .into_iter()
            .enumerate()
            .map(|(i, elems)| {
                let checksum = xhash::element_checksum(cfg.universe_bits, elems.iter().copied());
                (
                    (i + 1) as SessionId,
                    BobGroup {
                        elements: elems,
                        checksum,
                    },
                )
            })
            .collect();
        BobSession {
            cfg,
            params,
            codec,
            base_seed: seed,
            groups,
            decode_failures: 0,
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
    /// The per-group work — rebuilding Bob's parity-bitmap sketch (through
    /// the batched [`bch::Sketch::add_batch`] kernel), combining with
    /// Alice's, and BCH-decoding the difference — depends only on that
    /// group's elements, so it runs through [`protocol::par_map`]: worker
    /// threads when the `parallel` feature is on, a serial loop otherwise,
    /// with identical reports either way. The mutations a decoding failure
    /// triggers (failure counter, §3.2 three-way split) are applied in a
    /// serial pass afterwards; a split only touches the failed session and
    /// its fresh children, never another session in the batch, so deferring
    /// it cannot change any other report. The deferral is also what makes
    /// pipelined batches sound: every layer of a session is decoded against
    /// the *unsplit* group, exactly as Alice built it.
    ///
    /// A session is split only when every one of its sketches in the batch
    /// failed to decode — the same rule [`AliceSession::apply_reports`]
    /// applies, so the two state machines agree on the split set. With one
    /// layer per batch this is the classic split-on-failure of §3.2.
    pub fn handle_sketches(&mut self, sketches: &[GroupSketch]) -> Vec<GroupReport> {
        let this = &*self;
        let reports = protocol::par_map(sketches, |msg| this.compute_report(msg));
        let mut all_failed: HashMap<SessionId, bool> = HashMap::new();
        for report in &reports {
            let failed = matches!(report.body, GroupReportBody::DecodeFailed);
            if failed {
                self.decode_failures += 1;
            }
            *all_failed.entry(report.session).or_insert(true) &= failed;
        }
        // Sessions are independent (fresh child ids per parent), so the
        // split order does not matter.
        for (&session, &failed) in &all_failed {
            if failed {
                self.split_group(session);
            }
        }
        reports
    }

    /// Pure per-group response computation (no session mutation).
    ///
    /// For the small parity bitmaps PBS uses (`n` bins, typically 2047,
    /// versus thousands of group elements), Bob's sketch is *not* built by
    /// running one syndrome ladder per element: adding a bin position twice
    /// XOR-cancels, so `sketch(positions multiset) = sketch(odd-parity
    /// bins)`. One pass over the elements maintains a dense parity bitset
    /// and per-bin XOR accumulator; the batched syndrome kernel then runs
    /// over at most `min(n, |group|)` odd bins — exactly the parity bitmap
    /// the scheme is named for. Very large `n` falls back to the
    /// positions-vector path.
    fn compute_report(&self, msg: &GroupSketch) -> GroupReport {
        // Unknown session: treat as empty (can only happen if Alice has a
        // group Bob's partition left empty — the decode still works).
        let (elements, checksum) = match self.groups.get(&msg.session) {
            Some(group) => (group.elements.as_slice(), group.checksum),
            None => (&[][..], 0),
        };
        let n = self.params.n as u64;
        let hasher = PartitionHasher::new(n, bin_seed(self.base_seed, msg.session, msg.round));

        let mut sketch = self.codec.empty_sketch();
        let decoded = if n <= DENSE_LIMIT {
            let mut xor_by_bin = vec![0u64; n as usize + 1];
            let mut parity = vec![0u64; (n as usize + 1).div_ceil(64)];
            for &e in elements {
                let p = hasher.position(e) as usize;
                xor_by_bin[p] ^= e;
                parity[p / 64] ^= 1u64 << (p % 64);
            }
            let mut odd_bins = Vec::new();
            for (w, &bits) in parity.iter().enumerate() {
                let mut b = bits;
                while b != 0 {
                    odd_bins.push((w * 64) as u64 + b.trailing_zeros() as u64);
                    b &= b - 1;
                }
            }
            sketch.add_batch(&odd_bins, self.codec.field());
            // Combine with Alice's sketch: the result is the sketch of the
            // positions where the two parity bitmaps differ.
            sketch.combine(&msg.sketch);
            self.codec.decode(&sketch).map(|positions| {
                positions
                    .into_iter()
                    .map(|p| BinInfo {
                        position: p,
                        xor_sum: xor_by_bin.get(p as usize).copied().unwrap_or(0),
                    })
                    .collect::<Vec<BinInfo>>()
            })
        } else {
            let positions: Vec<u64> = elements.iter().map(|&e| hasher.position(e)).collect();
            sketch.add_batch(&positions, self.codec.field());
            sketch.combine(&msg.sketch);
            self.codec.decode(&sketch).map(|decoded| {
                let mut wanted: HashMap<u64, u64> = decoded.iter().map(|&p| (p, 0)).collect();
                for (&e, &p) in elements.iter().zip(&positions) {
                    if let Some(slot) = wanted.get_mut(&p) {
                        *slot ^= e;
                    }
                }
                decoded
                    .into_iter()
                    .map(|p| BinInfo {
                        position: p,
                        xor_sum: wanted.get(&p).copied().unwrap_or(0),
                    })
                    .collect::<Vec<BinInfo>>()
            })
        };
        match decoded {
            Ok(bins) => GroupReport {
                session: msg.session,
                body: GroupReportBody::Decoded {
                    bins,
                    checksum: msg.needs_checksum.then_some(checksum),
                },
            },
            Err(_) => GroupReport {
                session: msg.session,
                body: GroupReportBody::DecodeFailed,
            },
        }
    }

    /// The seed's serial per-element decode path: one scalar
    /// [`bch::Sketch::add`] per element, hash-map XOR accumulation over
    /// every occupied bin, groups processed strictly in order on the calling
    /// thread. Produces exactly the same reports and session-state changes
    /// as [`BobSession::handle_sketches`]; kept as ground truth for the
    /// parallel-vs-serial transcript tests.
    pub fn handle_sketches_reference(&mut self, sketches: &[GroupSketch]) -> Vec<GroupReport> {
        let mut out = Vec::with_capacity(sketches.len());
        for msg in sketches {
            let (elements, checksum) = match self.groups.get(&msg.session) {
                Some(group) => (group.elements.clone(), group.checksum),
                None => (Vec::new(), 0),
            };
            let n = self.params.n as u64;
            let hasher = PartitionHasher::new(n, bin_seed(self.base_seed, msg.session, msg.round));
            let mut sketch = self.codec.empty_sketch();
            let mut xor_by_bin: HashMap<u64, u64> = HashMap::new();
            for &e in &elements {
                let p = hasher.position(e);
                sketch.add(p, self.codec.field());
                *xor_by_bin.entry(p).or_insert(0) ^= e;
            }
            sketch.combine(&msg.sketch);
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
                        checksum: msg.needs_checksum.then_some(checksum),
                    },
                },
                Err(_) => {
                    self.decode_failures += 1;
                    self.split_group(msg.session);
                    GroupReport {
                        session: msg.session,
                        body: GroupReportBody::DecodeFailed,
                    }
                }
            };
            out.push(report);
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
        let mut parts: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
        for &e in &parent.elements {
            parts[hasher.bin(e) as usize].push(e);
        }
        for (k, part) in parts.into_iter().enumerate() {
            let checksum = xhash::element_checksum(self.cfg.universe_bits, part.iter().copied());
            self.groups.insert(
                children[k],
                BobGroup {
                    elements: part,
                    checksum,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Pbs;

    fn params_for(d: usize) -> (PbsConfig, OptimalParams) {
        let cfg = PbsConfig::default();
        let params = Pbs::new(cfg).plan(d);
        (cfg, params)
    }

    #[test]
    fn single_round_happy_path() {
        let (cfg, params) = params_for(4);
        let alice: Vec<u64> = (1..=500).collect();
        let bob: Vec<u64> = (5..=500).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 99);
        let mut b = BobSession::new(cfg, params, &bob, 99);
        let sketches = a.start_round();
        assert_eq!(sketches.len(), params.groups);
        let reports = b.handle_sketches(&sketches);
        let status = a.apply_reports(&reports);
        assert!(status.all_verified);
        assert_eq!(status.recovered_this_round, 4);
        let mut rec: Vec<u64> = a.into_recovered();
        rec.sort_unstable();
        assert_eq!(rec, vec![1, 2, 3, 4]);
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

    #[test]
    fn batched_decode_matches_reference_transcripts() {
        // Drive two Bobs — the batched/parallel path and the seed's serial
        // reference — through a multi-round run with forced decode failures
        // and splits; every report batch and the final state must agree.
        let (cfg, params) = params_for(5);
        let alice: Vec<u64> = (1..=1000).collect();
        let bob: Vec<u64> = (301..=1000).collect();
        let mut a_fast = AliceSession::new(cfg, params, &alice, 21);
        let mut a_ref = AliceSession::new(cfg, params, &alice, 21);
        let mut b_fast = BobSession::new(cfg, params, &bob, 21);
        let mut b_ref = BobSession::new(cfg, params, &bob, 21);
        for round in 0..20 {
            let sketches_fast = a_fast.start_round();
            let sketches_ref = a_ref.start_round();
            assert_eq!(sketches_fast, sketches_ref, "sketch divergence r{round}");
            let reports_fast = b_fast.handle_sketches(&sketches_fast);
            let reports_ref = b_ref.handle_sketches_reference(&sketches_ref);
            assert_eq!(reports_fast, reports_ref, "report divergence r{round}");
            assert_eq!(b_fast.decode_failures(), b_ref.decode_failures());
            assert_eq!(b_fast.session_count(), b_ref.session_count());
            let status = a_fast.apply_reports(&reports_fast);
            a_ref.apply_reports(&reports_ref);
            if status.all_verified {
                break;
            }
        }
        assert!(a_fast.all_verified(), "run did not converge");
        let mut fast = a_fast.into_recovered();
        let mut reference = a_ref.into_recovered();
        fast.sort_unstable();
        reference.sort_unstable();
        assert_eq!(fast, (1..=300).collect::<Vec<u64>>());
        assert_eq!(fast, reference);
    }

    fn sorted(mut v: Vec<u64>) -> Vec<u64> {
        v.sort_unstable();
        v
    }

    /// Drive a pair of sessions to completion with `layers` pipelined
    /// rounds per trip; returns (recovered, round_trips, protocol_rounds).
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
        let mut trips = 0;
        while !a.all_verified() && trips < 40 {
            let sketches = a.start_rounds(layers);
            let reports = b.handle_sketches(&sketches);
            a.apply_reports(&reports);
            trips += 1;
        }
        assert!(a.all_verified(), "pipelined run did not converge");
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
    fn adaptive_depth_follows_the_layer_verification_rate() {
        // Before any trip the controller starts at the negotiated grant.
        let (cfg, params) = params_for(4);
        let alice: Vec<u64> = (1..=500).collect();
        let bob: Vec<u64> = (5..=500).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 99);
        let mut b = BobSession::new(cfg, params, &bob, 99);
        assert_eq!(a.next_pipeline_depth(4), 4);
        assert_eq!(a.next_pipeline_depth(0), 1, "grant is clamped to >= 1");

        // Well-parameterized: every layer decodes, so depth holds at the
        // grant (and would deepen toward a larger one).
        let sketches = a.start_rounds(2);
        let reports = b.handle_sketches(&sketches);
        let status = a.apply_reports(&reports);
        assert!(status.layers_failed == 0 && status.layers_decoded > 0);
        assert_eq!(a.next_pipeline_depth(4), 4);
        assert_eq!(a.next_pipeline_depth(2), 2);

        // Under-parameterized: every layer of every group fails, so the
        // depth halves toward 1 trip after trip.
        let (cfg, params) = params_for(1);
        let alice: Vec<u64> = (1..=2_000).collect();
        let bob: Vec<u64> = (201..=2_000).collect();
        let mut a = AliceSession::new(cfg, params, &alice, 5);
        let mut b = BobSession::new(cfg, params, &bob, 5);
        let mut depth = a.next_pipeline_depth(4);
        assert_eq!(depth, 4);
        let mut seen = vec![depth];
        for _ in 0..2 {
            let sketches = a.start_rounds(depth);
            let reports = b.handle_sketches(&sketches);
            let status = a.apply_reports(&reports);
            assert!(status.layers_failed >= status.layers_decoded);
            depth = a.next_pipeline_depth(4);
            seen.push(depth);
        }
        assert_eq!(seen, vec![4, 2, 1], "mostly-failed trips back off to 1");
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
