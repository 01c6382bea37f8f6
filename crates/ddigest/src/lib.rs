//! The Difference Digest (D.Digest) baseline of Eppstein et al. \[15\].
//!
//! D.Digest is the canonical IBF-based set-reconciliation scheme the paper
//! compares against (§7, §8.1): Bob sends an invertible Bloom filter of his
//! set sized for the (estimated) difference; Alice subtracts her own IBF
//! cell-wise and peels the result. Following the §8.1.1 configuration:
//!
//! * the IBF has `2·d̂` cells (the "roughly 2d cells" of §7 that account for
//!   both the estimator noise and the peeling threshold),
//! * 4 hash functions when `d̂ ≤ 200` and 3 otherwise,
//! * `d̂` comes from the same ToW estimator PBS uses.
//!
//! Each cell carries three `log|U|`-bit words, so the wire cost is about
//! `6·d·log|U|` bits — the ~6× the theoretical minimum reported in §8.1.2.
//!
//! The D.Digest of \[15\] sizes its IBF with the **Strata** estimator: a
//! ladder of small IBFs. It lives here, beside the IBF it is built from,
//! with the **min-wise** estimator; Appendix B compares both against ToW
//! ([`StrataEstimator`], [`MinWiseEstimator`]).

//!
//! # Example
//!
//! ```
//! use ddigest::DifferenceDigest;
//! use protocol::Reconciler;
//!
//! let alice: Vec<u64> = (1..=500).collect();
//! let bob: Vec<u64> = (11..=500).collect();
//! let outcome = DifferenceDigest::default().reconcile(&alice, &bob, 7);
//! assert!(outcome.claimed_success);
//! let mut diff = outcome.recovered.clone();
//! diff.sort_unstable();
//! assert_eq!(diff, (1..=10).collect::<Vec<u64>>());
//! ```

#![warn(missing_docs)]

mod minwise;
mod strata;

pub use minwise::MinWiseEstimator;
pub use strata::StrataEstimator;

use estimator::{Estimator, TowEstimator};
use iblt::Iblt;
use protocol::{Direction, ReconcileOutcome, Reconciler, TimingStats, Transcript};
use std::time::Instant;
use xhash::derive_seed;

/// Configuration of the Difference Digest baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct DdigestConfig {
    /// Element signature width `log|U|` (only used for wire accounting; keys
    /// are stored as `u64` internally).
    universe_bits: u32,
    /// Cells per estimated difference element (2.0 per \[15\]).
    cells_per_diff: f64,
    /// Number of ToW sketches for the estimator round.
    estimator_sketches: usize,
    /// Safety factor applied to the estimate.
    inflation: f64,
}

impl Default for DdigestConfig {
    fn default() -> Self {
        DdigestConfig {
            universe_bits: 32,
            cells_per_diff: 2.0,
            estimator_sketches: estimator::DEFAULT_SKETCH_COUNT,
            // The 2·d̂ cell rule of [15] already includes the slack for
            // estimator noise, so the raw ToW estimate is used as-is; this is
            // what makes D.Digest land at ≈ 6× the theoretical minimum
            // (2 cells × 3 words × log|U| per difference element), matching
            // §8.1.2. PinSketch/PBS inflate by γ = 1.38 instead (§6.2).
            inflation: 1.0,
        }
    }
}

/// The Difference Digest reconciler.
#[derive(Debug, Clone, Default)]
pub struct DifferenceDigest {
    config: DdigestConfig,
}

impl DifferenceDigest {
    /// The §8.1.1 hash-count rule: 4 hash functions for small differences,
    /// 3 for large ones.
    fn hash_count_for(d_estimate: usize) -> u32 {
        if d_estimate > 200 {
            3
        } else {
            4
        }
    }

    /// Reconcile with an externally supplied difference estimate (no
    /// estimator round).
    fn reconcile_with_estimate(
        &self,
        alice: &[u64],
        bob: &[u64],
        d_estimate: usize,
        seed: u64,
    ) -> ReconcileOutcome {
        let cfg = self.config;
        let d_estimate = d_estimate.max(1);
        let cells = ((d_estimate as f64 * cfg.cells_per_diff).ceil() as usize).max(8);
        let hashes = Self::hash_count_for(d_estimate);
        let table_seed = derive_seed(seed, 0x1B17);
        let mut transcript = Transcript::new();

        let encode_start = Instant::now();
        let mut table_a = Iblt::new(cells, hashes, table_seed);
        table_a.insert_batch(alice);
        let mut table_b = Iblt::new(cells, hashes, table_seed);
        table_b.insert_batch(bob);
        let encode = encode_start.elapsed();

        // Bob ships his IBF to Alice.
        transcript.send_bits(Direction::BobToAlice, table_b.wire_bits(cfg.universe_bits));

        let decode_start = Instant::now();
        let mut diff = table_a;
        diff.subtract(&table_b);
        let peel = diff.peel_mut();
        let recovered: Vec<u64> = peel.all().collect();
        let decode = decode_start.elapsed();

        ReconcileOutcome {
            recovered,
            claimed_success: peel.complete,
            comm: transcript.stats(),
            timing: TimingStats { encode, decode },
            rounds: 1,
        }
    }
}

impl Reconciler for DifferenceDigest {
    fn name(&self) -> &'static str {
        "D.Digest"
    }

    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome {
        let cfg = self.config;
        let est_seed = derive_seed(seed, 0xE57);
        let mut ea = TowEstimator::new(cfg.estimator_sketches, est_seed);
        let mut eb = TowEstimator::new(cfg.estimator_sketches, est_seed);
        ea.insert_slice(a);
        eb.insert_slice(b);
        let d_hat = ((ea.estimate(&eb) * cfg.inflation).ceil() as usize).max(1);
        self.reconcile_with_estimate(a, b, d_hat, seed)
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
        // made the statistical multi-seed test below flake rarely.
        let mut a: Vec<u64> = set.into_iter().collect();
        a.sort_unstable();
        let b = a[..n - d].to_vec();
        (a, b)
    }

    #[test]
    fn recovers_difference_with_good_estimate() {
        let (a, b) = random_pair(3_000, 50, 1);
        let out = DifferenceDigest::default().reconcile_with_estimate(&a, &b, 60, 5);
        assert!(out.claimed_success);
        assert!(out.matches(&symmetric_difference(&a, &b)));
    }

    #[test]
    fn estimator_driven_runs_mostly_succeed_and_never_lie() {
        // With the exact 2·d̂ sizing of [15] the peeling decoder fails a small
        // fraction of the time (the paper itself reports D.Digest slightly
        // below its 0.99 target for small d), so this exercises several seeds:
        // most runs must succeed, and a run that claims success must be exact.
        let (a, b) = random_pair(4_000, 120, 2);
        let truth = symmetric_difference(&a, &b);
        let scheme = DifferenceDigest::default();
        let mut successes = 0;
        for seed in 0..8u64 {
            let out = Reconciler::reconcile(&scheme, &a, &b, seed);
            if out.claimed_success {
                assert!(out.matches(&truth), "claimed success but wrong difference");
                successes += 1;
            }
        }
        assert!(
            successes >= 5,
            "only {successes}/8 estimator-driven runs decoded"
        );
    }

    #[test]
    fn severely_undersized_table_fails_cleanly() {
        let (a, b) = random_pair(2_000, 300, 3);
        let out = DifferenceDigest::default().reconcile_with_estimate(&a, &b, 20, 5);
        assert!(!out.claimed_success);
    }

    #[test]
    fn communication_is_about_six_times_minimum() {
        let d = 200usize;
        let (a, b) = random_pair(5_000, d, 4);
        let out = DifferenceDigest::default().reconcile_with_estimate(&a, &b, d, 9);
        let min = protocol::theoretical_minimum_bytes(d, 32);
        let ratio = out.comm.total_bytes() as f64 / min;
        // 2d cells × 3 words = 6× the minimum (§8.1.2 reports "around 6×").
        assert!(
            (5.0..=7.0).contains(&ratio),
            "D.Digest comm ratio {ratio} not ≈ 6"
        );
    }

    #[test]
    fn hash_count_rule_matches_paper() {
        assert_eq!(DifferenceDigest::hash_count_for(100), 4);
        assert_eq!(DifferenceDigest::hash_count_for(200), 4);
        assert_eq!(DifferenceDigest::hash_count_for(201), 3);
        assert_eq!(DifferenceDigest::hash_count_for(10_000), 3);
    }

    #[test]
    fn identical_sets_reconcile_to_empty() {
        let (a, _) = random_pair(1_000, 0, 6);
        let out = DifferenceDigest::default().reconcile_with_estimate(&a, &a, 10, 1);
        assert!(out.claimed_success);
        assert!(out.recovered.is_empty());
    }
}
