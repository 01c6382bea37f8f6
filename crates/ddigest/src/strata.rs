//! The Strata estimator of Difference Digest (Eppstein et al. [15]).
//!
//! The estimator keeps one small IBLT per "stratum"; an element goes into
//! stratum `i` with probability `2^-(i+1)` (determined by the number of
//! trailing zeros of a hash of the element, the Flajolet–Martin idea).
//! To estimate `|A△B|`, the strata are subtracted pairwise and decoded from
//! the deepest stratum downward: as soon as stratum `i` fails to decode, the
//! estimate is `2^(i+1) ×` (number of differences recovered in the strata
//! above it). Appendix B notes this estimator is considerably less
//! space-efficient than ToW — reproduced by its `wire_bits` here.

use estimator::Estimator;
use iblt::Iblt;
use xhash::{derive_seed, xxhash64_u64};

/// Number of strata (enough for differences up to 2^32).
const DEFAULT_STRATA: usize = 32;
/// Cells per stratum IBLT, as in the Difference Digest paper.
const CELLS_PER_STRATUM: usize = 80;
/// Hash functions per stratum IBLT.
const HASHES_PER_STRATUM: u32 = 3;

/// Strata estimator: a ladder of fixed-size IBLTs.
#[derive(Debug, Clone)]
pub struct StrataEstimator {
    strata: Vec<Iblt>,
    seed: u64,
    /// Seed of the stratum-assignment hash, derived once at construction so
    /// the insert paths pay one hash per element instead of two.
    stratum_seed: u64,
    universe_bits: u32,
}

impl StrataEstimator {
    /// Create an estimator with the Difference Digest defaults
    /// (32 strata × 80 cells) for a `universe_bits`-bit element universe.
    pub fn new(universe_bits: u32, seed: u64) -> Self {
        Self::with_shape(DEFAULT_STRATA, CELLS_PER_STRATUM, universe_bits, seed)
    }

    /// Create an estimator with an explicit number of strata and cells.
    fn with_shape(strata: usize, cells: usize, universe_bits: u32, seed: u64) -> Self {
        assert!(strata > 0 && strata <= 64, "strata count must be in 1..=64");
        let tables = (0..strata)
            .map(|i| {
                Iblt::new(
                    cells,
                    HASHES_PER_STRATUM,
                    derive_seed(seed, 0x5712A7A + i as u64),
                )
            })
            .collect();
        StrataEstimator {
            strata: tables,
            seed,
            stratum_seed: derive_seed(seed, 0x57A7),
            universe_bits,
        }
    }

    /// Stratum index of an element: the number of trailing zeros of a hash,
    /// capped at the deepest stratum.
    #[inline]
    fn stratum_of(&self, element: u64) -> usize {
        let h = xxhash64_u64(element, self.stratum_seed);
        (h.trailing_zeros() as usize).min(self.strata.len() - 1)
    }
}

impl Estimator for StrataEstimator {
    fn insert(&mut self, element: u64) {
        let s = self.stratum_of(element);
        self.strata[s].insert(element);
    }

    /// Batched insert: one stratum-hash pass over the slice buckets the
    /// elements per stratum, then each stratum's bucket goes through the
    /// IBLT's 4-wide [`Iblt::insert_batch`] kernel — so the stratum hash is
    /// computed exactly once per element and the per-table hash seeds are
    /// reused across the whole bucket. Summary identical to per-element
    /// [`Estimator::insert`].
    fn insert_slice(&mut self, elements: &[u64]) {
        let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); self.strata.len()];
        for &e in elements {
            buckets[self.stratum_of(e)].push(e);
        }
        for (table, bucket) in self.strata.iter_mut().zip(&buckets) {
            if !bucket.is_empty() {
                table.insert_batch(bucket);
            }
        }
    }

    fn wire_bits(&self) -> u64 {
        self.strata
            .iter()
            .map(|t| t.wire_bits(self.universe_bits))
            .sum()
    }

    /// Estimate `|A△B|` from the two strata ladders.
    ///
    /// Walks from the deepest (sparsest) stratum down to stratum 0,
    /// subtracting and peeling each pair; stops at the first stratum that
    /// fails to decode and scales up.
    fn estimate(&self, other: &Self) -> f64 {
        assert_eq!(
            self.strata.len(),
            other.strata.len(),
            "strata count mismatch"
        );
        assert_eq!(self.seed, other.seed, "estimators must share their seed");
        let mut recovered = 0usize;
        let pairs = self.strata.iter().zip(&other.strata);
        for (i, (a, b)) in pairs.enumerate().rev() {
            let peel = Iblt::diff_and_peel(a, b);
            if peel.complete {
                recovered += peel.len();
            } else {
                return (recovered as f64) * 2f64.powi(i as i32 + 1);
            }
        }
        // Every stratum decoded: the recovered count is exact.
        recovered as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn random_pair(n: usize, d: usize, seed: u64) -> (Vec<u64>, Vec<u64>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut set = HashSet::new();
        while set.len() < n {
            set.insert(rng.random::<u64>() | 1);
        }
        // Sort before slicing: `HashSet` iteration order is per-process
        // random, and letting it pick *which* elements form the difference
        // makes multi-seed statistical tests flake rarely.
        let mut a: Vec<u64> = set.into_iter().collect();
        a.sort_unstable();
        let b = a[..n - d].to_vec();
        (a, b)
    }

    fn build(set: &[u64], seed: u64) -> StrataEstimator {
        let mut e = StrataEstimator::new(32, seed);
        for &x in set {
            e.insert(x);
        }
        e
    }

    #[test]
    fn small_difference_is_recovered_exactly() {
        let (a, b) = random_pair(2_000, 20, 1);
        let ea = build(&a, 5);
        let eb = build(&b, 5);
        let est = ea.estimate(&eb);
        // Small differences decode exactly in every stratum.
        assert!((est - 20.0).abs() <= 8.0, "estimate {est} too far from 20");
    }

    #[test]
    fn large_difference_estimate_is_right_order() {
        let d = 5_000usize;
        let (a, b) = random_pair(20_000, d, 2);
        let ea = build(&a, 9);
        let eb = build(&b, 9);
        let est = ea.estimate(&eb);
        assert!(
            est > 0.3 * d as f64 && est < 3.0 * d as f64,
            "estimate {est} not within 3x of true d={d}"
        );
    }

    #[test]
    fn identical_sets_estimate_zero() {
        let (a, _) = random_pair(1_000, 0, 3);
        let ea = build(&a, 1);
        let eb = build(&a, 1);
        assert_eq!(ea.estimate(&eb), 0.0);
    }

    #[test]
    fn wire_size_is_much_larger_than_tow() {
        // Appendix B: the Strata estimator is far less space-efficient than
        // ToW. 32 strata × 80 cells × 3 words × 32 bits ≈ 30 KB vs 336 bytes.
        let strata = StrataEstimator::new(32, 0);
        let tow_bits = 128u64 * 21;
        assert!(strata.wire_bits() > 10 * tow_bits);
    }

    #[test]
    #[should_panic(expected = "strata count must be in 1..=64")]
    fn invalid_strata_count_panics() {
        StrataEstimator::with_shape(0, 10, 32, 0);
    }
}
