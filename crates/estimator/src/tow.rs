//! The Tug-of-War (ToW) set-difference cardinality estimator (§6).
//!
//! One ToW sketch of a set `S` under a ±1 hash `f` is `Y_f(S) = Σ_{s∈S} f(s)`.
//! For two sets, `(Y_f(A) − Y_f(B))²` is an unbiased estimator of
//! `d = |A△B|` with variance `2d² − 2d` (Appendix A); averaging ℓ
//! uncorrelated sketches divides the variance by ℓ. The paper uses ℓ = 128
//! sketches (336 bytes) and the inflation factor γ = 1.38, the smallest γ
//! for which `Pr[d ≤ γ·d̂] ≥ 99%` at that ℓ.
//!
//! The ℓ sign functions come 32 to a polynomial: sketch `i` uses lane
//! `i mod 32` of polynomial `⌊i / 32⌋` ([`SignHasher`]), polynomial `j`
//! drawn from `derive_seed(bank seed, j)`. Inserting an element therefore
//! costs `⌈ℓ / 32⌉` polynomial evaluations, not ℓ. A batch
//! ([`Estimator::insert_slice`]) has them evaluated eight elements at a
//! time ([`SignHasher::sign_words`]: eight lanes wide on a CPU with
//! AVX-512), and counts the signs in bit planes.

use crate::Estimator;
use xhash::{derive_seed, SignHasher};

/// Number of sketches the paper settles on (§6.2).
pub const DEFAULT_SKETCH_COUNT: usize = 128;

/// The γ = 1.38 inflation factor applied to the estimate before choosing
/// protocol parameters (§6.2).
pub const RECOMMENDED_INFLATION: f64 = 1.38;

/// The §6.2 parameterization rule: inflate a raw estimate `d̂` by γ and
/// round up to at least 1. Every consumer of a ToW estimate — the
/// in-process `Pbs::reconcile`, [`TowEstimator::conservative_estimate`],
/// and the networked server's estimator exchange — must use this one
/// helper so the client and server always derive the same `d`.
pub fn inflate_estimate(d_hat: f64) -> usize {
    (d_hat * RECOMMENDED_INFLATION).ceil().max(1.0) as usize
}

/// Bytes of a serialized bank before its counters: sketch count, item
/// count, seed, counter width.
const BANK_HEADER: usize = 4 + 8 + 8 + 1;

/// Bit planes of an [`Estimator::insert_slice`] block's per-lane counters of
/// −1 signs: ones, twos, fours, then the planes the weight-8 carry ripples
/// into.
const PLANES: usize = 11;

/// Elements per [`Estimator::insert_slice`] block: the most (in whole groups
/// of eight) a [`PLANES`]-bit counter can hold, and few enough that the
/// block's powers (24 bytes an element, 48 KB, where the sign words are
/// computed one element at a time) stay in L2.
const BLOCK: usize = ((1 << PLANES) - 1) / 8 * 8;

/// Carry-save adder: the bitwise sum of three words as `(carry, sum)`, the
/// carry one weight up.
#[inline]
fn csa(a: u64, b: u64, c: u64) -> (u64, u64) {
    let u = a ^ b;
    (a & b | u & c, u ^ c)
}

/// A bank of ℓ ToW sketches of one set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TowEstimator {
    sketches: Vec<i64>,
    hashers: Vec<SignHasher>,
    seed: u64,
    items: u64,
}

impl TowEstimator {
    /// Create an estimator with `sketch_count` sketches derived from `seed`.
    pub fn new(sketch_count: usize, seed: u64) -> Self {
        assert!(sketch_count > 0, "need at least one sketch");
        let hashers = (0..sketch_count.div_ceil(SignHasher::LANES))
            .map(|j| SignHasher::from_seed(derive_seed(seed, j as u64)))
            .collect();
        TowEstimator {
            sketches: vec![0i64; sketch_count],
            hashers,
            seed,
            items: 0,
        }
    }

    /// The paper's default configuration: 128 sketches.
    pub fn paper_default(seed: u64) -> Self {
        Self::new(DEFAULT_SKETCH_COUNT, seed)
    }

    /// Number of sketches ℓ.
    pub fn sketch_count(&self) -> usize {
        self.sketches.len()
    }

    /// Estimate `d` and apply the γ inflation, returning the value PBS
    /// should be parameterized with (rounded up, at least 1).
    pub fn conservative_estimate(&self, other: &Self) -> usize {
        inflate_estimate(self.estimate(other))
    }

    /// The construction seed. A peer must build its estimator from the same
    /// seed for [`Estimator::estimate`] to combine the two banks.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Take `elements` — each inserted before, once — back out: a sketch
    /// is a sum over the set, so the bank of `S ∖ R` is the bank of `S`
    /// minus the bank of `R`. What lets a holder of a changing set keep
    /// its bank in step in O(ℓ · |change|) instead of rebuilding it.
    pub fn remove_slice(&mut self, elements: &[u64]) {
        let mut gone = TowEstimator::new(self.sketches.len(), self.seed);
        gone.insert_slice(elements);
        for (sketch, gone) in self.sketches.iter_mut().zip(&gone.sketches) {
            *sketch -= gone;
        }
        self.items = self.items.saturating_sub(gone.items);
    }

    /// Serialize the bank for a transport-level estimator exchange (the
    /// `EstimatorExchange` frame of the networked protocol): sketch count
    /// (`u32`), item count (`u64`), seed (`u64`), a counter width in bytes
    /// (`u8`, 1..=8), then the sketch values as little-endian
    /// two's-complement integers of that width — the narrowest that holds
    /// the largest magnitude present, so a bank of a 10⁶-element set ships
    /// 2–3 bytes a counter where [`Estimator::wire_bits`] charges 21 bits.
    /// The deserialized bank re-derives its hashers from the seed, so the
    /// ±1 hash functions are never on the wire.
    pub fn to_bytes(&self) -> Vec<u8> {
        // An i64 `v` needs one sign bit above its magnitude bits.
        let bits = |v: i64| 65 - (v ^ (v >> 63)).leading_zeros();
        let widest = self.sketches.iter().map(|&v| bits(v)).max().unwrap_or(1);
        let width = widest.div_ceil(8) as usize;
        let mut out = Vec::with_capacity(BANK_HEADER + width * self.sketches.len());
        out.extend_from_slice(&(self.sketches.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.items.to_le_bytes());
        out.extend_from_slice(&self.seed.to_le_bytes());
        out.push(width as u8);
        for &v in &self.sketches {
            out.extend_from_slice(&v.to_le_bytes()[..width]);
        }
        out
    }

    /// Deserialize a bank produced by [`TowEstimator::to_bytes`]. Returns
    /// `None` for truncated, oversized or count-inconsistent input (the
    /// declared sketch count and counter width must match the bytes
    /// actually present, so a hostile length field cannot trigger a huge
    /// allocation).
    pub fn from_bytes(buf: &[u8]) -> Option<Self> {
        let (header, counters) = buf.split_at_checked(BANK_HEADER)?;
        let count = u32::from_le_bytes(header[..4].try_into().ok()?) as usize;
        let items = u64::from_le_bytes(header[4..12].try_into().ok()?);
        let seed = u64::from_le_bytes(header[12..20].try_into().ok()?);
        let width = header[20] as usize;
        if count == 0 || !(1..=8).contains(&width) || counters.len() != count.checked_mul(width)? {
            return None;
        }
        let mut bank = TowEstimator::new(count, seed);
        bank.items = items;
        let unused = 64 - 8 * width as u32;
        for (sk, raw) in bank.sketches.iter_mut().zip(counters.chunks_exact(width)) {
            let mut word = [0u8; 8];
            word[..width].copy_from_slice(raw);
            // Shift the counter's sign bit up to the word's and back.
            *sk = i64::from_le_bytes(word) << unused >> unused;
        }
        Some(bank)
    }
}

impl Estimator for TowEstimator {
    fn insert(&mut self, element: u64) {
        let powers = SignHasher::powers(element);
        for (lanes, h) in self
            .sketches
            .chunks_mut(SignHasher::LANES)
            .zip(&self.hashers)
        {
            let bits = h.sign_bits_at(&powers);
            for (i, sk) in lanes.iter_mut().enumerate() {
                *sk += 1 - 2 * i64::from(bits >> i & 1);
            }
        }
        self.items += 1;
    }

    /// Batched insert, in blocks of at most 2 040 elements: the 32-bit
    /// sign words of polynomials `2j` and `2j + 1`, packed into one `u64`
    /// an element ([`SignHasher::sign_words`]: eight lanes wide in 32-bit
    /// limbs on a CPU with AVX-512, in `u128` elsewhere, the same words
    /// either way), are added into eleven *bit planes* per pair — plane `k`
    /// holds bit `k` of 64 per-lane counters of −1 signs. Eight elements'
    /// words go through a carry-save adder tree at a time (a Harley–Seal
    /// counter over sign words): the ones, twos and fours planes carry
    /// over from group to group, and only the tree's one weight-8 carry
    /// ripples into the planes above. The planes are folded into the `i64`
    /// sketches once per block. Summary identical to per-element
    /// [`Estimator::insert`].
    fn insert_slice(&mut self, elements: &[u64]) {
        let mut planes = vec![[0u64; PLANES]; self.hashers.len().div_ceil(2)];
        for block in elements.chunks(BLOCK) {
            // A short block's last group ends in zero words: no −1 signs.
            SignHasher::sign_words(&self.hashers, block, |pair, w| {
                let planes = &mut planes[pair];
                let (twos_a, ones) = csa(planes[0], w[0], w[1]);
                let (twos_b, ones) = csa(ones, w[2], w[3]);
                let (fours_a, twos) = csa(planes[1], twos_a, twos_b);
                let (twos_a, ones) = csa(ones, w[4], w[5]);
                let (twos_b, ones) = csa(ones, w[6], w[7]);
                let (fours_b, twos) = csa(twos, twos_a, twos_b);
                let (mut carry, fours) = csa(planes[2], fours_a, fours_b);
                planes[..3].copy_from_slice(&[ones, twos, fours]);
                for plane in &mut planes[3..] {
                    (*plane, carry) = (*plane ^ carry, *plane & carry);
                }
            });
            for (lanes, planes) in self
                .sketches
                .chunks_mut(2 * SignHasher::LANES)
                .zip(&mut planes)
            {
                for (i, sk) in lanes.iter_mut().enumerate() {
                    let minus: i64 = (0..PLANES)
                        .map(|k| ((planes[k] >> i & 1) << k) as i64)
                        .sum();
                    *sk += block.len() as i64 - 2 * minus;
                }
                *planes = [0; PLANES];
            }
        }
        self.items += elements.len() as u64;
    }

    fn wire_bits(&self) -> u64 {
        // Each sketch is an integer within [-|S|, |S|]: log2(2|S|+1) bits.
        let per_sketch = (2.0 * self.items.max(1) as f64 + 1.0).log2().ceil() as u64;
        per_sketch * self.sketches.len() as u64
    }

    fn estimate(&self, other: &Self) -> f64 {
        assert_eq!(
            self.sketches.len(),
            other.sketches.len(),
            "sketch count mismatch"
        );
        assert_eq!(self.seed, other.seed, "estimators must share their seed");
        let sum: f64 = self
            .sketches
            .iter()
            .zip(&other.sketches)
            .map(|(&a, &b)| {
                let diff = (a - b) as f64;
                diff * diff
            })
            .sum();
        sum / self.sketches.len() as f64
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

    fn build(set: &[u64], sketches: usize, seed: u64) -> TowEstimator {
        let mut e = TowEstimator::new(sketches, seed);
        for &x in set {
            e.insert(x);
        }
        e
    }

    #[test]
    fn exact_for_identical_sets() {
        let (a, _) = random_pair(500, 0, 1);
        let ea = build(&a, 32, 7);
        let eb = build(&a, 32, 7);
        assert_eq!(ea.estimate(&eb), 0.0);
    }

    #[test]
    fn estimate_is_near_true_d() {
        let d = 200usize;
        let (a, b) = random_pair(3000, d, 2);
        let ea = build(&a, 128, 9);
        let eb = build(&b, 128, 9);
        let est = ea.estimate(&eb);
        // With ℓ=128 the standard deviation is about d·sqrt(2/128) ≈ 0.125 d;
        // allow ±50%.
        assert!(
            (est - d as f64).abs() < 0.5 * d as f64,
            "estimate {est} too far from true d={d}"
        );
    }

    #[test]
    fn unbiasedness_over_many_trials() {
        // Average of many single-sketch estimates should approach d.
        let d = 50usize;
        let (a, b) = random_pair(600, d, 3);
        let trials = 400;
        let mut total = 0.0;
        for t in 0..trials {
            let ea = build(&a, 1, 1000 + t);
            let eb = build(&b, 1, 1000 + t);
            total += ea.estimate(&eb);
        }
        let mean = total / trials as f64;
        assert!(
            (mean - d as f64).abs() < 0.25 * d as f64,
            "mean estimate {mean} deviates from d={d}"
        );
    }

    #[test]
    fn conservative_estimate_overshoots_with_high_probability() {
        // Reproduce the §6.2 guarantee Pr[d <= 1.38 d̂] >= 0.99 (roughly,
        // with fewer trials for test speed).
        let d = 300usize;
        let (a, b) = random_pair(2000, d, 4);
        let trials = 100;
        let mut covered = 0;
        for t in 0..trials {
            let ea = build(&a, DEFAULT_SKETCH_COUNT, 5000 + t);
            let eb = build(&b, DEFAULT_SKETCH_COUNT, 5000 + t);
            if ea.conservative_estimate(&eb) >= d {
                covered += 1;
            }
        }
        assert!(
            covered >= 95,
            "γ-inflated estimate covered d in only {covered}/100 trials"
        );
    }

    #[test]
    fn wire_size_matches_paper_figure() {
        // 128 sketches over a 10^6-element set: ceil(log2(2e6+1)) = 21 bits
        // per sketch -> 336 bytes, the figure quoted in §6.1.
        let mut e = TowEstimator::paper_default(0);
        e.items = 1_000_000;
        assert_eq!(e.wire_bits(), 128 * 21);
        assert_eq!(e.wire_bits().div_ceil(8), 336);
    }

    #[test]
    fn wire_round_trip_preserves_estimates() {
        let (a, b) = random_pair(800, 40, 6);
        let ea = build(&a, 64, 11);
        let eb = build(&b, 64, 11);
        let bytes = ea.to_bytes();
        let back = TowEstimator::from_bytes(&bytes).expect("round trip");
        assert_eq!(back, ea);
        assert_eq!(back.seed(), ea.seed());
        assert_eq!(back.items, ea.items);
        assert_eq!(back.estimate(&eb), ea.estimate(&eb));
    }

    #[test]
    fn counters_ship_at_the_width_of_the_largest_magnitude() {
        // A counter of a set S lies in [−|S|, |S|]; the extremes of every
        // byte width round-trip, negative ones sign-extended.
        for (extreme, width) in [
            (0i64, 1),
            (127, 1),
            (-128, 1),
            (128, 2),
            (-129, 2),
            (20_000, 2),
            (-32_768, 2),
            (1_000_000, 3),
            (-1_000_000, 3),
            (-8_388_609, 4),
            (1 << 31, 5),
            (i64::MAX, 8),
            (i64::MIN, 8),
        ] {
            let mut bank = TowEstimator::new(5, 3);
            bank.items = extreme.unsigned_abs();
            bank.sketches = vec![0, extreme, -1, 1, extreme / 2];
            let bytes = bank.to_bytes();
            assert_eq!(bytes.len(), 21 + 5 * width, "extreme {extreme}");
            assert_eq!(bytes[20] as usize, width);
            assert_eq!(TowEstimator::from_bytes(&bytes), Some(bank));
        }
        // A 128-sketch bank of 10⁶ elements: counters are sums of 10⁶ fair
        // signs, a few thousand at most — two bytes each.
        let set: Vec<u64> = (1..=1_000_000u64).map(|x| x * 0x9E37_79B9 + 7).collect();
        let mut bank = TowEstimator::paper_default(9);
        bank.insert_slice(&set);
        assert_eq!(bank.to_bytes().len(), 21 + 128 * 2);
        assert!(bank.to_bytes().len() as u64 <= 21 + bank.wire_bits() / 8);
    }

    /// The serialization, byte for byte: count, items, seed, width, then
    /// two's-complement little-endian counters.
    #[test]
    fn the_bank_layout_is_pinned() {
        let mut bank = TowEstimator::new(3, 0x0102_0304_0506_0708);
        bank.items = 300;
        bank.sketches = vec![-300, 2, 255];
        let hex: String = bank.to_bytes().iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(
            hex,
            "03000000\
             2c01000000000000\
             0807060504030201\
             02\
             d4fe0200ff00"
        );
    }

    #[test]
    fn malformed_estimator_bytes_rejected() {
        let e = build(&[1, 2, 3], 8, 5);
        let bytes = e.to_bytes();
        assert!(TowEstimator::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        assert!(TowEstimator::from_bytes(&[]).is_none());
        assert!(TowEstimator::from_bytes(&bytes[..20]).is_none());
        // A huge declared count with no backing bytes must not allocate.
        let mut hostile = bytes.clone();
        hostile[..4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(TowEstimator::from_bytes(&hostile).is_none());
        // Zero sketches is not a valid bank.
        let mut zero = bytes.clone();
        zero[..4].copy_from_slice(&0u32.to_le_bytes());
        assert!(TowEstimator::from_bytes(&zero[..21]).is_none());
        // A counter width outside 1..=8, or one the bytes do not match.
        for width in [0u8, 9, 2, 255] {
            let mut bad = bytes.clone();
            bad[20] = width;
            assert!(TowEstimator::from_bytes(&bad).is_none(), "width {width}");
        }
    }

    #[test]
    fn removing_a_slice_leaves_the_bank_of_the_rest() {
        // Across a block boundary (2040), a group of eight, lane remainders
        // (40 = 32 + 8) and down to the empty bank.
        let (set, _) = random_pair(2100, 0, 8);
        for cut in [0, 1, 8, BLOCK, BLOCK + 1, 2099, 2100] {
            let (gone, kept) = set.split_at(cut);
            let mut bank = TowEstimator::new(40, 13);
            bank.insert_slice(&set);
            bank.remove_slice(gone);
            assert_eq!(bank, build(kept, 40, 13), "cut at {cut}");
        }
    }

    #[test]
    #[should_panic(expected = "sketch count mismatch")]
    fn mismatched_sketch_counts_panic() {
        let a = TowEstimator::new(8, 1);
        let b = TowEstimator::new(16, 1);
        let _ = a.estimate(&b);
    }
}
