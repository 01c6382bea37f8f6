//! Workload generation matching the paper's experiment setup (§8).
//!
//! "Our evaluation uses a key space (universe) U of all 32-bit binary
//! strings. [...] elements in A are drawn from U uniformly at random without
//! replacement. A certain number (|A| − d) of elements in A are then sampled
//! also uniformly at random without replacement to make up set B so that the
//! set difference A△B contains exactly d elements."

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A generated experiment instance: Alice's set, Bob's set, and the exact
/// difference between them.
#[derive(Debug, Clone)]
pub struct SetPair {
    /// Alice's set `A`.
    pub a: Vec<u64>,
    /// Bob's set `B` (a subset of `A` under the paper's setup).
    pub b: Vec<u64>,
    /// Ground-truth symmetric difference `A△B`.
    pub diff: HashSet<u64>,
}

/// Parameters of the workload generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Workload {
    /// Cardinality of Alice's set `|A|` (the paper fixes 10^6).
    pub set_size: usize,
    /// Exact set-difference cardinality `d = |A△B|`.
    pub d: usize,
    /// Bit length of an element signature, `log|U|` (32 in the paper's main
    /// experiments; 64/256 in extensions).
    pub universe_bits: u32,
    /// When `true` (the paper's setup, also Graphene's best case) `B ⊂ A`;
    /// when `false` the difference is split between `A\B` and `B\A`.
    pub subset_mode: bool,
}

impl Default for Workload {
    fn default() -> Self {
        Workload {
            set_size: 1_000_000,
            d: 1_000,
            universe_bits: 32,
            subset_mode: true,
        }
    }
}

impl Workload {
    /// Generate one `(A, B)` instance. All randomness is derived from `seed`,
    /// so the same `(workload, seed)` pair always produces the same instance.
    ///
    /// # Panics
    /// Panics if `d > set_size`, or the universe is too small to hold
    /// `set_size` distinct nonzero elements.
    pub fn generate(&self, seed: u64) -> SetPair {
        assert!(self.d <= self.set_size, "d cannot exceed |A|");
        assert!(
            (1..=64).contains(&self.universe_bits),
            "universe_bits must be in 1..=64"
        );
        let universe = if self.universe_bits == 64 {
            u64::MAX
        } else {
            (1u64 << self.universe_bits) - 1
        };
        assert!(
            (self.set_size as u64) < universe,
            "universe too small for the requested set size"
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // Draw |A| (+ d extra when not in subset mode) distinct nonzero elements.
        let extra = if self.subset_mode { 0 } else { self.d / 2 };
        let mut chosen: HashSet<u64> = HashSet::with_capacity(self.set_size + extra);
        while chosen.len() < self.set_size + extra {
            // The all-zero element is excluded from the universe (§2.1).
            let candidate = (rng.random::<u64>() & universe).max(1);
            chosen.insert(candidate);
        }
        let mut pool: Vec<u64> = chosen.into_iter().collect();
        // HashSet iteration order is not deterministic across instances; sort
        // before shuffling so the same (workload, seed) pair always yields the
        // same instance, as the API promises.
        pool.sort_unstable();
        pool.shuffle(&mut rng);

        if self.subset_mode {
            let a = pool;
            // B = A minus d randomly chosen elements; since `pool` is already
            // shuffled, taking the first |A| - d elements is a uniform choice.
            let b: Vec<u64> = a[..self.set_size - self.d].to_vec();
            let diff: HashSet<u64> = a[self.set_size - self.d..].iter().copied().collect();
            SetPair { a, b, diff }
        } else {
            // Split the difference between A-only and B-only elements.
            let b_only = extra;
            let a_only = self.d - b_only;
            let a: Vec<u64> = pool[..self.set_size].to_vec();
            let shared = &pool[a_only..self.set_size];
            let mut b: Vec<u64> = shared.to_vec();
            b.extend_from_slice(&pool[self.set_size..]);
            let mut diff: HashSet<u64> = pool[..a_only].iter().copied().collect();
            diff.extend(pool[self.set_size..].iter().copied());
            SetPair { a, b, diff }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symmetric_difference;

    #[test]
    fn subset_mode_produces_exact_difference() {
        let w = Workload {
            set_size: 5_000,
            d: 37,
            universe_bits: 32,
            subset_mode: true,
        };
        let pair = w.generate(1);
        assert_eq!(pair.a.len(), 5_000);
        assert_eq!(pair.b.len(), 5_000 - 37);
        assert_eq!(pair.diff.len(), 37);
        assert_eq!(symmetric_difference(&pair.a, &pair.b), pair.diff);
        // B must be a subset of A.
        let sa: HashSet<u64> = pair.a.iter().copied().collect();
        assert!(pair.b.iter().all(|e| sa.contains(e)));
    }

    #[test]
    fn two_sided_mode_produces_exact_difference() {
        let w = Workload {
            set_size: 2_000,
            d: 100,
            universe_bits: 32,
            subset_mode: false,
        };
        let pair = w.generate(9);
        assert_eq!(pair.a.len(), 2_000);
        assert_eq!(pair.diff.len(), 100);
        assert_eq!(symmetric_difference(&pair.a, &pair.b), pair.diff);
        // Both sides should own some exclusive elements.
        let sa: HashSet<u64> = pair.a.iter().copied().collect();
        let sb: HashSet<u64> = pair.b.iter().copied().collect();
        assert!(pair.diff.iter().any(|e| sa.contains(e) && !sb.contains(e)));
        assert!(pair.diff.iter().any(|e| sb.contains(e) && !sa.contains(e)));
    }

    #[test]
    fn generation_is_deterministic_in_seed() {
        let w_small = Workload {
            set_size: 1_000,
            d: 50,
            ..Workload::default()
        };
        let p1 = w_small.generate(77);
        let p2 = w_small.generate(77);
        let p3 = w_small.generate(78);
        assert_eq!(p1.a, p2.a);
        assert_eq!(p1.b, p2.b);
        assert_ne!(p1.a, p3.a);
    }

    #[test]
    fn elements_are_nonzero_and_in_universe() {
        let w = Workload {
            set_size: 3_000,
            d: 10,
            universe_bits: 16,
            subset_mode: true,
        };
        let pair = w.generate(3);
        assert!(pair.a.iter().all(|&e| e > 0 && e < (1 << 16)));
    }

    #[test]
    fn zero_difference_means_equal_sets() {
        let w = Workload {
            set_size: 500,
            d: 0,
            universe_bits: 32,
            subset_mode: true,
        };
        let pair = w.generate(11);
        assert!(pair.diff.is_empty());
        assert_eq!(pair.a.len(), pair.b.len());
    }

    #[test]
    #[should_panic(expected = "d cannot exceed |A|")]
    fn oversized_difference_panics() {
        Workload {
            set_size: 10,
            d: 11,
            universe_bits: 32,
            subset_mode: true,
        }
        .generate(0);
    }
}
