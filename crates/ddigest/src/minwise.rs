//! The min-wise set-difference estimator (Appendix B).
//!
//! `k` independent min-hashes estimate the Jaccard similarity
//! `J = |A∩B| / |A∪B|` as the fraction of hash functions whose minimum
//! agrees between the two sets; with both set sizes known,
//! `|A△B| = (1 − J)/(1 + J) · (|A| + |B|)`.

use estimator::Estimator;
use xhash::{derive_seed, xxhash64_u64};

/// Min-wise estimator state: one running minimum per hash function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinWiseEstimator {
    minima: Vec<u64>,
    /// Per-hash seeds, derived once at construction so the insert paths pay
    /// one hash per (element, function) instead of a seed derivation
    /// (itself a hash) plus a hash.
    hash_seeds: Vec<u64>,
    seed: u64,
    items: u64,
}

impl MinWiseEstimator {
    /// Create an estimator with `hash_count` min-hashes.
    pub fn new(hash_count: usize, seed: u64) -> Self {
        assert!(hash_count > 0, "need at least one hash");
        MinWiseEstimator {
            minima: vec![u64::MAX; hash_count],
            hash_seeds: (0..hash_count as u64)
                .map(|i| derive_seed(seed, i))
                .collect(),
            seed,
            items: 0,
        }
    }

    /// Estimated Jaccard similarity against another summary.
    fn jaccard(&self, other: &Self) -> f64 {
        assert_eq!(self.minima.len(), other.minima.len(), "hash count mismatch");
        assert_eq!(self.seed, other.seed, "estimators must share their seed");
        let agree = self
            .minima
            .iter()
            .zip(&other.minima)
            .filter(|(a, b)| a == b)
            .count();
        agree as f64 / self.minima.len() as f64
    }
}

impl Estimator for MinWiseEstimator {
    fn insert(&mut self, element: u64) {
        for (slot, &seed) in self.minima.iter_mut().zip(&self.hash_seeds) {
            let h = xxhash64_u64(element, seed);
            if h < *slot {
                *slot = h;
            }
        }
        self.items += 1;
    }

    fn wire_bits(&self) -> u64 {
        // Each minimum is a full 64-bit hash value, plus the set size.
        64 * self.minima.len() as u64 + 64
    }

    fn estimate(&self, other: &Self) -> f64 {
        let j = self.jaccard(other);
        let total = (self.items + other.items) as f64;
        // |A△B| = (1-J)/(1+J) * (|A| + |B|)
        (1.0 - j) / (1.0 + j) * total
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

    fn build(set: &[u64], k: usize, seed: u64) -> MinWiseEstimator {
        let mut e = MinWiseEstimator::new(k, seed);
        for &x in set {
            e.insert(x);
        }
        e
    }

    #[test]
    fn identical_sets_have_jaccard_one_and_zero_difference() {
        let (a, _) = random_pair(500, 0, 1);
        let ea = build(&a, 64, 3);
        let eb = build(&a, 64, 3);
        assert_eq!(ea.jaccard(&eb), 1.0);
        assert_eq!(ea.estimate(&eb), 0.0);
    }

    #[test]
    fn disjoint_sets_have_low_jaccard() {
        let (a, _) = random_pair(300, 0, 5);
        let (b, _) = random_pair(300, 0, 6);
        let ea = build(&a, 128, 7);
        let eb = build(&b, 128, 7);
        assert!(ea.jaccard(&eb) < 0.1);
        let est = ea.estimate(&eb);
        assert!(
            est > 400.0,
            "disjoint sets should estimate near 600, got {est}"
        );
    }

    #[test]
    fn moderate_difference_estimate_in_right_range() {
        let d = 400usize;
        let (a, b) = random_pair(2_000, d, 8);
        let ea = build(&a, 256, 11);
        let eb = build(&b, 256, 11);
        let est = ea.estimate(&eb);
        assert!(
            est > 0.4 * d as f64 && est < 2.5 * d as f64,
            "estimate {est} not within range of true d={d}"
        );
    }

    #[test]
    fn wire_size_grows_with_hash_count() {
        assert!(
            MinWiseEstimator::new(256, 0).wire_bits() > MinWiseEstimator::new(64, 0).wire_bits()
        );
    }
}
