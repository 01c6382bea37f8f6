//! The Graphene baseline \[32\] (Protocol I), as evaluated in §8.2.
//!
//! Graphene couples a Bloom filter with an IBLT. In the paper's evaluation
//! setting — `B ⊂ A`, Alice learns `A△B = A\B`, Graphene's best case — Bob
//! sends:
//!
//! * a Bloom filter of `B` with false-positive rate ε, and
//! * an IBLT of `B` sized for the ≈ `ε·d` elements of `A\B` that will slip
//!   through the filter.
//!
//! Alice passes every element of `A` through the filter: elements the filter
//! rejects are certainly in `A\B`; the remaining candidate set is reconciled
//! against Bob's IBLT by subtraction + peeling. Graphene picks ε to minimize
//! `BF(|B|, ε) + IBLT(ε·d)`; when `|B| ≫ d` the optimum is ε → 1, the filter
//! is dropped entirely and the scheme degenerates to an IBLT-only solution
//! (§7) — which is exactly the regime where PBS beats it (Figure 2b), with
//! the break-even appearing only once `d` approaches `|B|`.

//!
//! # Example
//!
//! ```
//! use graphene::Graphene;
//!
//! let alice: Vec<u64> = (1..=2000).collect();
//! let bob: Vec<u64> = (21..=2000).collect(); // Bob misses 1..=20
//! let outcome = Graphene::default().reconcile_with_hint(&alice, &bob, 20, 3);
//! assert!(outcome.claimed_success);
//! let mut diff = outcome.recovered.clone();
//! diff.sort_unstable();
//! assert_eq!(diff, (1..=20).collect::<Vec<u64>>());
//! ```

#![warn(missing_docs)]

mod bloom;

use bloom::BloomFilter;
use iblt::Iblt;
use protocol::{Direction, ReconcileOutcome, Reconciler, TimingStats, Transcript};
use std::time::Instant;
use xhash::derive_seed;

/// Configuration of the Graphene baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
struct GrapheneConfig {
    /// Element signature width `log|U|` used for wire accounting of IBLT cells.
    universe_bits: u32,
    /// Multiplier of IBLT cells per expected difference element (the decoder
    /// needs some slack to peel with the 239/240 target of \[32\]).
    cells_per_diff: f64,
    /// Additive IBLT cell slack (keeps tiny differences decodable).
    extra_cells: usize,
}

impl Default for GrapheneConfig {
    fn default() -> Self {
        GrapheneConfig {
            universe_bits: 32,
            cells_per_diff: 2.0,
            extra_cells: 16,
        }
    }
}

/// The candidate Bloom-filter false-positive rates evaluated by the sizing
/// optimization (1.0 means "no Bloom filter at all").
const FPR_GRID: [f64; 9] = [1.0, 0.5, 0.2, 0.1, 0.05, 0.02, 0.01, 0.005, 0.001];

/// The Graphene (Protocol I) reconciler.
#[derive(Debug, Clone, Default)]
pub struct Graphene {
    config: GrapheneConfig,
}

impl Graphene {
    fn iblt_cells(&self, expected_diff: f64) -> usize {
        ((expected_diff * self.config.cells_per_diff).ceil() as usize + self.config.extra_cells)
            .max(16)
    }

    fn iblt_hashes(expected_diff: f64) -> u32 {
        if expected_diff > 200.0 {
            3
        } else {
            4
        }
    }

    /// The total wire cost (bits) of a candidate (ε, |B|, d) sizing.
    fn candidate_cost(&self, fpr: f64, set_size: usize, d: usize) -> f64 {
        let iblt_diff = if fpr >= 1.0 { d as f64 } else { fpr * d as f64 };
        let iblt_bits =
            (self.iblt_cells(iblt_diff) as u64 * 3 * self.config.universe_bits as u64) as f64;
        let bf_bits = if fpr >= 1.0 {
            0.0
        } else {
            let ln2 = std::f64::consts::LN_2;
            -(set_size as f64) * fpr.ln() / (ln2 * ln2)
        };
        iblt_bits + bf_bits
    }

    /// Pick the false-positive rate minimizing the total transmission for
    /// `|B| = set_size` and difference `d` (the \[32\] optimization; 1.0 means
    /// the Bloom filter is dropped).
    fn optimal_fpr(&self, set_size: usize, d: usize) -> f64 {
        let mut best = (f64::INFINITY, 1.0);
        for &fpr in &FPR_GRID {
            let cost = self.candidate_cost(fpr, set_size, d);
            if cost < best.0 {
                best = (cost, fpr);
            }
        }
        best.1
    }

    /// Run Graphene Protocol I. `d_hint` is the expected difference size
    /// (exactly `|A| − |B|` in the subset setting, so no estimator round is
    /// needed, §6.2).
    pub fn reconcile_with_hint(
        &self,
        alice: &[u64],
        bob: &[u64],
        d_hint: usize,
        seed: u64,
    ) -> ReconcileOutcome {
        let cfg = self.config;
        let d = d_hint.max(1);
        let fpr = self.optimal_fpr(bob.len(), d);
        let mut transcript = Transcript::new();

        // --- Bob's encode: Bloom filter of B (optional) + IBLT of B. ---
        let encode_start = Instant::now();
        let bf = if fpr < 1.0 {
            let mut f = BloomFilter::with_rate(bob.len().max(1), fpr, derive_seed(seed, 0xBF));
            for &e in bob {
                f.insert(e);
            }
            Some(f)
        } else {
            None
        };
        let expected_leftover = if fpr < 1.0 { fpr * d as f64 } else { d as f64 };
        let cells = self.iblt_cells(expected_leftover);
        let hashes = Self::iblt_hashes(expected_leftover);
        let table_seed = derive_seed(seed, 0x1B17);
        let mut iblt_b = Iblt::new(cells, hashes, table_seed);
        iblt_b.insert_batch(bob);
        let encode = encode_start.elapsed();

        if let Some(f) = &bf {
            transcript.send_bits(Direction::BobToAlice, f.wire_bits());
        }
        transcript.send_bits(Direction::BobToAlice, iblt_b.wire_bits(cfg.universe_bits));

        // --- Alice's decode: filter pass + IBLT subtraction + peel. ---
        let decode_start = Instant::now();
        let mut recovered: Vec<u64> = Vec::new();
        let mut candidates: Vec<u64> = Vec::with_capacity(alice.len());
        match &bf {
            Some(f) => {
                for &e in alice {
                    if f.contains(e) {
                        candidates.push(e);
                    } else {
                        // Definitely not in B: part of A\B.
                        recovered.push(e);
                    }
                }
            }
            None => candidates.extend_from_slice(alice),
        }
        // Build the candidate table through the batched insert kernel (the
        // candidate set is already materialized as a slice, so the 64-key
        // staging buffer of `insert_all` is pure overhead), subtract, and
        // peel in place.
        let mut iblt_c = Iblt::new(cells, hashes, table_seed);
        iblt_c.insert_batch(&candidates);
        iblt_c.subtract(&iblt_b);
        let peel = iblt_c.peel_mut();
        recovered.extend(peel.all());
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

impl Reconciler for Graphene {
    fn name(&self) -> &'static str {
        "Graphene"
    }

    fn reconcile(&self, a: &[u64], b: &[u64], seed: u64) -> ReconcileOutcome {
        // In the subset setting the difference size is known exactly from the
        // set sizes; otherwise this is a (crude) hint and the IBLT slack plus
        // peel-failure reporting cover the error.
        let d_hint = a.len().abs_diff(b.len()).max(1);
        self.reconcile_with_hint(a, b, d_hint, seed)
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

    /// IBLT peeling has a small finite-size failure probability even at the
    /// recommended sizing, and failures are honestly reported; assert that a
    /// handful of attempts produces a success and that successes are exact.
    fn assert_reconciles_within_attempts(
        run: impl Fn(u64) -> protocol::ReconcileOutcome,
        truth: &std::collections::HashSet<u64>,
    ) {
        for seed in 0..5u64 {
            let out = run(seed);
            if out.claimed_success {
                assert!(out.matches(truth), "claimed success but wrong difference");
                return;
            }
        }
        panic!("no successful reconciliation in 5 attempts");
    }

    #[test]
    fn subset_case_is_recovered_exactly() {
        let (a, b) = random_pair(3_000, 40, 1);
        let truth = symmetric_difference(&a, &b);
        assert_reconciles_within_attempts(
            |seed| Reconciler::reconcile(&Graphene::default(), &a, &b, seed),
            &truth,
        );
    }

    #[test]
    fn small_difference_drops_the_bloom_filter() {
        // |B| = 100k, d = 100: the BF would cost far more than it saves.
        let g = Graphene::default();
        assert_eq!(g.optimal_fpr(100_000, 100), 1.0);
    }

    #[test]
    fn huge_difference_enables_the_bloom_filter() {
        // |B| = 10k, d = 100k: filtering pays off.
        let g = Graphene::default();
        assert!(g.optimal_fpr(10_000, 100_000) < 1.0);
    }

    #[test]
    fn two_sided_difference_still_recovered() {
        // 10 elements exclusive to Alice and 10 exclusive to Bob.
        let (pool, _) = random_pair(2_020, 0, 3);
        let a: Vec<u64> = pool[..2_010].to_vec();
        let b: Vec<u64> = pool[10..2_020].to_vec();
        let truth = symmetric_difference(&a, &b);
        assert_eq!(truth.len(), 20);
        assert_reconciles_within_attempts(
            |seed| Graphene::default().reconcile_with_hint(&a, &b, truth.len(), 9 + seed),
            &truth,
        );
    }

    #[test]
    fn communication_is_below_ddigest_style_sizing() {
        // Once the Bloom filter becomes worthwhile (d large relative to |B|),
        // Graphene's total stays below the 2d-cell D.Digest layout.
        let d = 500usize;
        let (a, b) = random_pair(5_000, d, 4);
        let truth = symmetric_difference(&a, &b);
        assert_reconciles_within_attempts(
            |seed| Graphene::default().reconcile_with_hint(&a, &b, d, 11 + seed),
            &truth,
        );
        let out = Graphene::default().reconcile_with_hint(&a, &b, d, 11);
        let ddigest_bytes = (2 * d) as u64 * 3 * 32 / 8;
        assert!(out.comm.total_bytes() < ddigest_bytes);
    }

    #[test]
    fn undersized_hint_reports_failure() {
        let (a, b) = random_pair(2_000, 400, 5);
        let out = Graphene::default().reconcile_with_hint(&a, &b, 20, 3);
        assert!(!out.claimed_success);
    }

    #[test]
    fn identical_sets() {
        let (a, _) = random_pair(1_000, 0, 6);
        let out = Reconciler::reconcile(&Graphene::default(), &a, &a, 2);
        assert!(out.claimed_success);
        assert!(out.recovered.is_empty());
    }
}
