//! A standard Bloom filter, the other half of the Graphene baseline.
//!
//! Graphene (§7, \[32\]) couples an IBLT with a Bloom filter of Bob's set so
//! that Alice can first weed out the elements the filter says Bob already
//! has, and only the (few) remaining ones need to be covered by the IBLT.
//! The filter here is the textbook construction: `k` hash functions over an
//! `m`-bit array, sized for a target false positive rate, with wire-size
//! accounting so the experiment harness can charge its transmission.

use xhash::{derive_seed, xxhash64};

/// A Bloom filter over `u64` keys.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct BloomFilter {
    bits: Vec<u64>,
    bit_count: u64,
    hash_count: u32,
    seed: u64,
}

impl BloomFilter {
    /// Create a filter sized for `expected_items` insertions and a target
    /// false-positive rate `fpr`, using the standard optimal sizing
    /// `m = -n·ln(fpr)/ln(2)²` and `k = (m/n)·ln(2)`.
    pub(crate) fn with_rate(expected_items: usize, fpr: f64, seed: u64) -> Self {
        assert!(
            fpr > 0.0 && fpr < 1.0,
            "false positive rate must be in (0, 1)"
        );
        let n = expected_items.max(1) as f64;
        let ln2 = std::f64::consts::LN_2;
        let bit_count = (-(n * fpr.ln()) / (ln2 * ln2)).ceil().max(8.0) as u64;
        let hash_count = ((bit_count as f64 / n) * ln2).round().max(1.0) as u32;
        BloomFilter {
            bits: vec![0u64; bit_count.div_ceil(64) as usize],
            bit_count,
            hash_count: hash_count.min(16),
            seed,
        }
    }

    /// Wire size in bits (the bit array; parameters are a few bytes and are
    /// accounted separately by the protocols).
    pub(crate) fn wire_bits(&self) -> u64 {
        self.bit_count
    }

    fn positions(&self, key: u64) -> impl Iterator<Item = u64> + '_ {
        let h1 = xxhash64(&key.to_le_bytes(), derive_seed(self.seed, 11));
        let h2 = xxhash64(&key.to_le_bytes(), derive_seed(self.seed, 13)) | 1;
        let m = self.bit_count;
        (0..self.hash_count as u64).map(move |i| h1.wrapping_add(i.wrapping_mul(h2)) % m)
    }

    /// Insert a key.
    pub(crate) fn insert(&mut self, key: u64) {
        let positions: Vec<u64> = self.positions(key).collect();
        for p in positions {
            self.bits[(p / 64) as usize] |= 1u64 << (p % 64);
        }
    }

    /// Query a key: `false` means definitely absent, `true` means probably
    /// present.
    pub(crate) fn contains(&self, key: u64) -> bool {
        self.positions(key)
            .all(|p| self.bits[(p / 64) as usize] & (1u64 << (p % 64)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled(
        expected: usize,
        fpr: f64,
        seed: u64,
        keys: impl Iterator<Item = u64>,
    ) -> BloomFilter {
        let mut bf = BloomFilter::with_rate(expected, fpr, seed);
        for k in keys {
            bf.insert(k);
        }
        bf
    }

    #[test]
    fn no_false_negatives() {
        let keys: Vec<u64> = (0..1000u64).map(|i| i * 7919 + 1).collect();
        let bf = filled(1000, 0.01, 7, keys.iter().copied());
        for &k in &keys {
            assert!(bf.contains(k), "false negative for {k}");
        }
    }

    #[test]
    fn false_positive_rate_near_target() {
        let bf = filled(10_000, 0.01, 3, (0..10_000u64).map(|i| i * 2 + 1));
        // Query keys guaranteed not inserted (even numbers beyond range).
        let trials = 20_000u64;
        let fp = (10_000_000..10_000_000 + trials)
            .filter(|&k| bf.contains(k * 2))
            .count();
        let rate = fp as f64 / trials as f64;
        assert!(
            (0.003..0.03).contains(&rate),
            "observed fpr {rate} not near the 1% target"
        );
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let bf = BloomFilter::with_rate(100, 0.01, 5);
        let hits = (0..1000u64).filter(|&k| bf.contains(k)).count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn sizing_formula_monotonicity() {
        let loose = BloomFilter::with_rate(1000, 0.1, 0);
        let tight = BloomFilter::with_rate(1000, 0.001, 0);
        assert!(tight.bit_count > loose.bit_count);
        assert!(tight.hash_count >= loose.hash_count);
        assert_eq!(loose.wire_bits(), loose.bit_count);
    }

    #[test]
    fn deterministic_across_instances_with_same_seed() {
        let a = filled(100, 0.05, 99, [1234].into_iter());
        let b = filled(100, 0.05, 99, [1234].into_iter());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "false positive rate must be in (0, 1)")]
    fn invalid_rate_panics() {
        BloomFilter::with_rate(10, 1.5, 0);
    }
}
