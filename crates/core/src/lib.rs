//! Parity Bitmap Sketch (PBS) set reconciliation — the paper's core scheme.
//!
//! PBS lets two hosts, Alice (set `A`) and Bob (set `B`), discover the
//! difference `A△B` with `O(d)` computation and roughly twice the
//! information-theoretic minimum communication (`d·log|U|` bits):
//!
//! 1. both sets are hash-partitioned into `g = ⌈d/δ⌉` *groups* (§3) — each
//!    group pair then has about δ = 5 distinct elements and is reconciled
//!    independently ("piecewise reconciliability"),
//! 2. each group is hash-partitioned into `n` *bins*; the bins' parities form
//!    an `n`-bit parity bitmap, of which Alice sends only a `t·log₂(n+1)`-bit
//!    BCH syndrome sketch (§2),
//! 3. Bob decodes the sketch against his own bitmap, locating the bins whose
//!    parities differ, and returns those positions with per-bin XOR sums and
//!    a group checksum,
//! 4. Alice recovers one distinct element per differing bin (Procedure 1),
//!    discards fake elements with the sub-universe check (Procedure 3), and
//!    verifies the group checksum (§2.2.3); groups that fail verification run
//!    another round with a fresh hash function (§2.4), and groups whose BCH
//!    decoding fails are split three-way (§3.2).
//!
//! The crate exposes two levels of API:
//!
//! * [`Pbs`] — a one-call driver ([`Pbs::reconcile`] /
//!   [`Pbs::reconcile_with_known_d`]) that runs the whole multi-round
//!   protocol in-process, with full communication/timing accounting. It also
//!   implements [`protocol::Reconciler`] so the experiment harness can treat
//!   it like any baseline.
//! * [`AliceSession`] / [`BobSession`] plus the message types in
//!   [`messages`] — an explicit two-party state machine for callers that
//!   want to ship the messages over a real transport (see the
//!   `blockchain_relay` example). A party that serves many sessions from
//!   one changing set keeps a [`SetView`] of it — hash-ordered, with its
//!   ToW bank, patched in O(change) — and builds each Bob from that
//!   ([`BobSession::from_view`]) instead of from the raw elements.
//!
//! # Example
//!
//! ```
//! use pbs_core::{Pbs, PbsConfig};
//!
//! let alice: Vec<u64> = (1..=1000).collect();
//! let bob: Vec<u64> = (6..=1000).collect();
//! let pbs = Pbs::new(PbsConfig::default());
//! let report = pbs.reconcile_with_known_d(&alice, &bob, 5, 42);
//! assert!(report.outcome.claimed_success);
//! let mut diff = report.outcome.recovered.clone();
//! diff.sort_unstable();
//! assert_eq!(diff, vec![1, 2, 3, 4, 5]);
//! ```

#![warn(missing_docs)]

pub mod messages;
mod session;
mod view;
pub mod wire;

pub use messages::RoundStatus;
pub use session::{AliceSession, BobSession};
pub use view::{count_widths, SetView};

use analysis::{optimize_parameters, OptimalParams, DEFAULT_DELTA, DEFAULT_TARGET_ROUNDS};
use estimator::{Estimator, TowEstimator};
use protocol::{CommStats, Direction, ReconcileOutcome, Reconciler, TimingStats, Transcript};
use std::time::Instant;

/// Salt used to derive the cardinality-estimator seed from the protocol
/// seed, so the estimator's hash functions are independent of every
/// partition hash. Shared with the networked client/server (`pbs_net`),
/// which must derive the same estimator from the handshake seed.
pub const ESTIMATOR_SEED_SALT: u64 = 0xE57;

/// Configuration of the PBS scheme.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PbsConfig {
    /// Bit length `log|U|` of an element signature (32 in the paper's main
    /// evaluation).
    pub universe_bits: u32,
    /// Average number of distinct elements per group, δ (the paper fixes 5).
    pub delta: usize,
    /// Target number of rounds `r` used by the parameter optimizer (§5.2
    /// identifies 3 as the sweet spot).
    pub target_rounds: u32,
    /// Target overall success probability `p0` (e.g. 0.99 or 239/240).
    pub target_success: f64,
    /// Hard cap on the number of rounds actually executed. The §8 evaluation
    /// allows PBS at most `target_rounds` rounds; set a larger value (or
    /// [`u32::MAX`]) to let every group run to completion as in §J.1.
    pub max_rounds: u32,
    /// Number of Tug-of-War sketches used when `d` must be estimated.
    pub estimator_sketches: usize,
}

impl Default for PbsConfig {
    fn default() -> Self {
        PbsConfig {
            universe_bits: 32,
            delta: DEFAULT_DELTA,
            target_rounds: DEFAULT_TARGET_ROUNDS,
            target_success: 0.99,
            max_rounds: DEFAULT_TARGET_ROUNDS,
            estimator_sketches: estimator::DEFAULT_SKETCH_COUNT,
        }
    }
}

impl PbsConfig {
    /// The paper's default configuration (32-bit universe, δ = 5, r = 3,
    /// p0 = 0.99, at most 3 rounds).
    pub fn paper_default() -> Self {
        Self::default()
    }

    /// Same configuration but letting every group pair run as many rounds as
    /// it needs (used for the §J.1 round-count experiment).
    pub fn unlimited_rounds(mut self) -> Self {
        self.max_rounds = u32::MAX;
        self
    }

    /// Set the target success probability.
    pub fn with_target_success(mut self, p0: f64) -> Self {
        self.target_success = p0;
        self
    }

    /// Set δ, the average number of distinct elements per group (§J.2 sweeps
    /// this knob).
    pub fn with_delta(mut self, delta: usize) -> Self {
        assert!(delta >= 1, "delta must be at least 1");
        self.delta = delta;
        self
    }

    /// Set the element signature width `log|U|`.
    pub fn with_universe_bits(mut self, bits: u32) -> Self {
        assert!((8..=64).contains(&bits), "universe_bits must be in 8..=64");
        self.universe_bits = bits;
        self
    }
}

/// Detailed result of a PBS reconciliation run.
#[derive(Debug, Clone)]
pub struct PbsReport {
    /// The generic outcome (recovered difference, success flag, comm, timing).
    pub outcome: ReconcileOutcome,
    /// The `(n, t)` parameters the run used.
    pub params: OptimalParams,
    /// The difference cardinality the parameters were derived from (either
    /// the caller-supplied `d` or the γ-inflated ToW estimate).
    pub parameterized_d: usize,
    /// The raw ToW estimate `d̂`, when the estimator was used.
    pub estimated_d: Option<f64>,
    /// Communication spent on the cardinality estimator, in bits. Reported
    /// separately because the paper excludes it from every scheme's
    /// communication overhead (§6.2).
    pub estimator_bits: u64,
    /// Number of group pairs.
    pub groups: usize,
    /// Number of distinct elements recovered in each executed round.
    pub per_round_recovered: Vec<usize>,
    /// Number of BCH decoding failures (groups that had to be split 3-way).
    pub decode_failures: u32,
    /// Number of recovered elements rejected by the Procedure 3 sub-universe
    /// check (detected type (II) fakes).
    pub fakes_rejected: u64,
}

/// The PBS reconciliation driver.
#[derive(Debug, Clone, Default)]
pub struct Pbs {
    config: PbsConfig,
}

impl Pbs {
    /// Create a driver with an explicit configuration.
    pub fn new(config: PbsConfig) -> Self {
        Pbs { config }
    }

    /// Create a driver with the paper's default configuration.
    pub fn paper_default() -> Self {
        Pbs::new(PbsConfig::paper_default())
    }

    /// Derive the optimal `(n, t)` parameters for a difference of `d`
    /// elements under this configuration (§5.1). Falls back to the largest
    /// grid cell if no candidate meets the target (which only happens for
    /// extreme targets).
    pub fn plan(&self, d: usize) -> OptimalParams {
        let cfg = &self.config;
        optimize_parameters(d.max(1), cfg.delta, cfg.target_rounds, cfg.target_success)
            .unwrap_or_else(|| OptimalParams {
                n: 2047,
                m: 11,
                t: 4 * cfg.delta,
                groups: analysis::group_count(d, cfg.delta),
                lower_bound: 0.0,
                objective_bits: (5 * cfg.delta) as f64 * 11.0,
            })
    }

    /// Reconcile when the difference cardinality `d` is known a priori
    /// (the §2/§3 presentation assumes this).
    pub fn reconcile_with_known_d(
        &self,
        alice: &[u64],
        bob: &[u64],
        d: usize,
        seed: u64,
    ) -> PbsReport {
        self.run(alice, bob, d.max(1), self.plan(d.max(1)), None, seed)
    }

    /// [`Pbs::reconcile_with_known_d`] under the plan `params` instead of
    /// [`Pbs::plan`]'s: a cell of the paper's Table 1 other than the one the
    /// optimizer picks.
    pub fn reconcile_with_plan(
        &self,
        alice: &[u64],
        bob: &[u64],
        d: usize,
        params: OptimalParams,
        seed: u64,
    ) -> PbsReport {
        self.run(alice, bob, d.max(1), params, None, seed)
    }

    /// Reconcile with `d` unknown: first run the ToW estimator (§6), inflate
    /// the estimate by γ = 1.38, then run PBS with the derived parameters.
    pub fn reconcile(&self, alice: &[u64], bob: &[u64], seed: u64) -> PbsReport {
        let cfg = &self.config;
        let est_seed = xhash::derive_seed(seed, ESTIMATOR_SEED_SALT);
        let mut ea = TowEstimator::new(cfg.estimator_sketches, est_seed);
        let mut eb = TowEstimator::new(cfg.estimator_sketches, est_seed);
        ea.insert_slice(alice);
        eb.insert_slice(bob);
        let d_hat = ea.estimate(&eb);
        let d_param = estimator::inflate_estimate(d_hat);
        // Alice sends her sketches; Bob returns the estimate (one word).
        let estimator_bits = ea.wire_bits() + u64::from(cfg.universe_bits);
        let params = self.plan(d_param);
        self.run(
            alice,
            bob,
            d_param,
            params,
            Some((d_hat, estimator_bits)),
            seed,
        )
    }

    /// One run under `params`; `estimate` is the raw ToW `d̂` and the bits
    /// its exchange cost, when the estimator ran.
    fn run(
        &self,
        alice: &[u64],
        bob: &[u64],
        d_param: usize,
        params: OptimalParams,
        estimate: Option<(f64, u64)>,
        seed: u64,
    ) -> PbsReport {
        let cfg = self.config;
        let mut transcript = Transcript::new();

        // ---- Encoding phase: both parties group-partition their sets and
        // build the first-round sketches. ----
        let encode_start = Instant::now();
        let mut alice_session = AliceSession::new(cfg, params, alice, seed);
        let mut bob_session = BobSession::new(cfg, params, bob, seed);
        let first_sketches = alice_session.start_round();
        let encode = encode_start.elapsed();

        // ---- Decoding phase: exchange messages round by round. ----
        let decode_start = Instant::now();
        let mut per_round_recovered = Vec::new();
        let mut rounds_executed = 0u32;
        let mut sketches = first_sketches;
        loop {
            rounds_executed += 1;
            for msg in &sketches {
                transcript.send_bits(Direction::AliceToBob, msg.wire_bits(params.m));
            }
            let reports = bob_session.handle_sketches(&sketches);
            for msg in &reports {
                transcript.send_bits(
                    Direction::BobToAlice,
                    msg.wire_bits(params.m, cfg.universe_bits),
                );
            }
            let status = alice_session.apply_reports(&reports);
            per_round_recovered.push(status.recovered_this_round);

            if status.all_verified {
                break;
            }
            if rounds_executed >= cfg.max_rounds {
                break;
            }
            sketches = alice_session.start_round();
        }
        let decode = decode_start.elapsed();

        let claimed_success = alice_session.all_verified();
        let fakes_rejected = alice_session.fakes_rejected();
        let recovered = alice_session.into_recovered();
        let comm: CommStats = transcript.stats();
        PbsReport {
            outcome: ReconcileOutcome {
                recovered,
                claimed_success,
                comm,
                timing: TimingStats { encode, decode },
                rounds: rounds_executed,
            },
            params,
            parameterized_d: d_param,
            estimated_d: estimate.map(|(d_hat, _)| d_hat),
            estimator_bits: estimate.map_or(0, |(_, bits)| bits),
            groups: params.groups,
            per_round_recovered,
            decode_failures: bob_session.decode_failures(),
            fakes_rejected,
        }
    }
}

impl Reconciler for Pbs {
    fn name(&self) -> &'static str {
        "PBS"
    }

    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome {
        Pbs::reconcile(self, a, b, seed).outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use protocol::symmetric_difference;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn random_pair(n: usize, d: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = HashSet::new();
        while set.len() < n {
            set.insert((rng.random::<u64>() & 0xFFFF_FFFF).max(1));
        }
        // Sort before slicing: `HashSet` iteration order is per-process
        // random, and letting it pick *which* elements form the difference
        // makes multi-seed statistical tests flake rarely.
        let mut a: Vec<u64> = set.into_iter().collect();
        a.sort_unstable();
        let b = a[..n - d].to_vec();
        (a, b)
    }

    #[test]
    fn reconciles_small_known_difference() {
        let (a, b) = random_pair(2_000, 5, 1);
        let report = Pbs::paper_default().reconcile_with_known_d(&a, &b, 5, 7);
        assert!(report.outcome.claimed_success);
        assert!(report.outcome.matches(&symmetric_difference(&a, &b)));
        assert!(report.outcome.rounds <= 3);
    }

    /// Duplicate elements in either input (e.g. 32-bit signature collisions
    /// in a large listing) must be treated as set membership on both sides.
    /// Regression test: Bob used to keep duplicates, which cancel out of his
    /// XOR parity bitmap but count twice in the additive group checksum —
    /// leaving a group that could never verify no matter how it split.
    #[test]
    fn duplicate_inputs_reconcile_as_sets() {
        let (a, b) = random_pair(2_000, 40, 15);
        let mut a_dup = a.clone();
        a_dup.extend_from_slice(&a[..25]); // Alice sees 25 duplicates
        let mut b_dup = b.clone();
        b_dup.extend_from_slice(&b[..17]); // Bob sees 17 duplicates
        let cfg = PbsConfig::paper_default().unlimited_rounds();
        // Planned for the true d, then for a tenth of it: the overloaded
        // groups fail to decode and split, and the sub-groups (which go
        // through the same duplicate drop) must still verify.
        for (planned_d, splits) in [(40, false), (4, true)] {
            let report = Pbs::new(cfg).reconcile_with_known_d(&a_dup, &b_dup, planned_d, 7);
            assert_eq!(
                report.decode_failures > 0,
                splits,
                "planned d = {planned_d}"
            );
            assert!(report.outcome.claimed_success);
            assert!(report.outcome.matches(&symmetric_difference(&a, &b)));
        }
    }

    #[test]
    fn reconciles_moderate_difference_with_estimator() {
        let (a, b) = random_pair(5_000, 200, 2);
        let report = Pbs::paper_default().reconcile(&a, &b, 3);
        assert!(report.outcome.claimed_success);
        assert!(report.outcome.matches(&symmetric_difference(&a, &b)));
        assert!(report.estimated_d.is_some());
        assert!(report.estimator_bits > 0);
    }

    #[test]
    fn identical_sets_reconcile_to_empty() {
        let (a, _) = random_pair(1_000, 0, 3);
        let report = Pbs::paper_default().reconcile_with_known_d(&a, &a, 1, 9);
        assert!(report.outcome.claimed_success);
        assert!(report.outcome.recovered.is_empty());
    }

    #[test]
    fn communication_is_near_twice_the_minimum() {
        let d = 500usize;
        let (a, b) = random_pair(20_000, d, 4);
        let report = Pbs::paper_default().reconcile_with_known_d(&a, &b, d, 5);
        assert!(report.outcome.claimed_success);
        let min = protocol::theoretical_minimum_bytes(d, 32);
        let ratio = report.outcome.comm.total_bytes() as f64 / min;
        // §8.1.2: PBS lands between 2.13 and 2.87 times the minimum.
        assert!(
            (1.8..=3.5).contains(&ratio),
            "communication ratio {ratio} outside the expected band"
        );
    }

    #[test]
    fn unlimited_rounds_always_terminates_successfully() {
        let cfg = PbsConfig::paper_default().unlimited_rounds();
        let (a, b) = random_pair(3_000, 100, 6);
        let report = Pbs::new(cfg).reconcile_with_known_d(&a, &b, 100, 11);
        assert!(report.outcome.claimed_success);
        assert!(report.outcome.matches(&symmetric_difference(&a, &b)));
    }

    /// A one-round plan — the in-process scheme's to make; the service
    /// plans the paper's r = 3, at m ≤ 10 — is where `bch`'s paths without
    /// a column table run, sketching by ladder and finding roots by the
    /// trace algorithm: at d = 100 over a field with log tables whose
    /// `n·t` outgrows the column table, at d = 300 over a field without
    /// log tables (Barrett). Both plans hold: the exact difference in one
    /// round, no decode failure.
    #[test]
    fn one_round_plans_reconcile_over_fields_without_column_tables() {
        let cfg = PbsConfig {
            target_rounds: 1,
            ..PbsConfig::paper_default()
        }
        .unlimited_rounds();
        let pbs = Pbs::new(cfg);
        for (d, m, log_tables) in [(100, 16, true), (300, 18, false)] {
            let params = pbs.plan(d);
            assert_eq!(params.m, m, "d = {d}");
            assert!(params.n * params.t > bch::COLUMN_TABLE_ENTRIES, "d = {d}");
            let codec = bch::BchCodec::new(params.m, params.t);
            assert_eq!(codec.field().generator().is_some(), log_tables, "d = {d}");
            let (a, b) = random_pair(10_000, d, 16);
            let report = pbs.reconcile_with_known_d(&a, &b, d, 17);
            assert!(report.outcome.claimed_success, "d = {d}");
            assert!(report.outcome.matches(&symmetric_difference(&a, &b)));
            assert_eq!(
                (report.outcome.rounds, report.decode_failures),
                (1, 0),
                "d = {d}"
            );
        }
    }

    #[test]
    fn two_sided_differences_are_recovered() {
        // Elements exclusive to Bob must also be discovered by Alice.
        let (pool, _) = random_pair(2_020, 0, 8);
        let a: Vec<u64> = pool[..2_010].to_vec();
        let b: Vec<u64> = pool[10..2_020].to_vec();
        let truth = symmetric_difference(&a, &b);
        assert_eq!(truth.len(), 20);
        let report = Pbs::paper_default().reconcile_with_known_d(&a, &b, truth.len(), 13);
        assert!(report.outcome.claimed_success);
        assert!(report.outcome.matches(&truth));
    }

    #[test]
    fn most_elements_recovered_in_first_round() {
        let d = 300usize;
        let (a, b) = random_pair(10_000, d, 10);
        let report = Pbs::paper_default().reconcile_with_known_d(&a, &b, d, 21);
        assert!(
            report.outcome.claimed_success,
            "run did not verify: rounds={}, per_round={:?}, decode_failures={}, recovered={} of {}",
            report.outcome.rounds,
            report.per_round_recovered,
            report.decode_failures,
            report.outcome.recovered.len(),
            d
        );
        // §5.3 predicts ~96% reconciled in round 1 on average; a single run
        // can dip when a group overflows its BCH capacity (that whole group
        // waits for the split), so assert a comfortably lower bound that
        // still demonstrates "the vast majority lands in round 1".
        let first = report.per_round_recovered[0] as f64;
        assert!(
            first / d as f64 > 0.8,
            "only {first} of {d} recovered in round 1"
        );
    }

    #[test]
    fn plan_matches_paper_example() {
        // The paper's running example selects n = 127; the optimal t lands
        // within a notch or two of the paper's 13, because `analysis`
        // follows a group over the capacity through its split instead of
        // counting it failed (docs/REPRODUCTION.md, `table1/optimal-t`).
        let pbs = Pbs::paper_default();
        let p = pbs.plan(1000);
        assert_eq!(p.n, 127);
        assert!((11..=14).contains(&p.t), "t = {}", p.t);
    }

    #[test]
    fn reconciler_trait_object_works() {
        let (a, b) = random_pair(1_000, 20, 14);
        let schemes: Vec<Box<dyn Reconciler>> = vec![Box::new(Pbs::paper_default())];
        for s in &schemes {
            let out = s.reconcile(&a, &b, 5);
            assert_eq!(s.name(), "PBS");
            assert!(out.matches(&symmetric_difference(&a, &b)));
        }
    }

    #[test]
    #[should_panic(expected = "delta must be at least 1")]
    fn zero_delta_rejected() {
        PbsConfig::default().with_delta(0);
    }
}
