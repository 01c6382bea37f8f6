//! A 4-wise independent ±1 hash family for the Tug-of-War estimator.
//!
//! §6 of the paper requires, per Fact 1 (Appendix A), a family `F` of
//! *four-wise independent* hash functions mapping universe elements to
//! `{+1, -1}` uniformly. We realize it the classical way: a random degree-3
//! polynomial over the prime field GF(p) with p = 2^61 - 1 (a Mersenne
//! prime, so reduction is two shifts and an add), evaluated at the element.
//! Degree-3 polynomial hashing over a prime field is 4-wise independent by
//! the standard Vandermonde argument: the values at any four distinct
//! points are jointly uniform over GF(p)⁴.
//!
//! One polynomial yields [`SignHasher::LANES`] = 32 sign functions, not one:
//! lane `i` is bit `i` of the canonical value in `[0, p)`. The value is
//! uniform over `[0, p)`, so each of its low 32 bits is balanced and the 32
//! bits are mutually independent, to within `2^-61` (of the `2^61` 61-bit
//! patterns only the all-ones one is missing).
//! Every lane is therefore itself a 4-wise independent ±1 function, and —
//! what the variance proof of Appendix A needs when the per-sketch
//! estimates are averaged — any two lanes of one polynomial are independent
//! of each other over any four distinct elements, exactly as two
//! independently drawn polynomials would be.
//!
//! Two evaluations give the same canonical residue, so the same signs:
//! [`SignHasher::sign_bits_at`] one element at a time in `u128` (each of
//! the three products below `2^122`, the sum reduced once), and
//! [`SignHasher::sign_words`], the bank's block kernel, which on a CPU with
//! AVX-512 evaluates eight elements at once in 32-bit limbs — four
//! `u32 × u32 → u64` products a multiplication, `2^64 ≡ 8`, then folds —
//! and elsewhere runs the `u128` code.

/// The Mersenne prime 2^61 - 1 used as the modulus of the hash family.
pub const MERSENNE_P: u64 = (1u64 << 61) - 1;

/// One degree-3 polynomial of the family: 32 ±1 hash functions ("lanes").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignHasher {
    /// Polynomial coefficients a0 + a1 x + a2 x^2 + a3 x^3 over GF(p).
    pub(crate) coeffs: [u64; 4],
}

/// Canonical residue in `[0, p)` of any `x < 2^124`.
#[inline]
fn mod_p(x: u128) -> u64 {
    debug_assert!(x >> 124 == 0);
    // 2^61 ≡ 1 (mod p): fold the high part onto the low 61 bits, twice.
    let r = (x as u64 & MERSENNE_P) + (x >> 61) as u64; // < 2^61 + 2^63
    let r = (r & MERSENNE_P) + (r >> 61); // < 2^61 + 5
    if r >= MERSENNE_P {
        r - MERSENNE_P
    } else {
        r
    }
}

#[inline]
fn mul_mod(a: u64, b: u64) -> u64 {
    mod_p((a as u128) * (b as u128))
}

impl SignHasher {
    /// Sign functions drawn from one polynomial.
    pub const LANES: usize = 32;

    /// Draw a polynomial of the family from a 64-bit seed.
    ///
    /// The four coefficients are derived from the seed with the crate's
    /// xxHash64; drawing fresh seeds yields (for all practical purposes)
    /// independent polynomials, which is how the ToW estimator extends its
    /// bank beyond 32 sketches.
    pub fn from_seed(seed: u64) -> Self {
        let mut coeffs = [0u64; 4];
        for (i, c) in coeffs.iter_mut().enumerate() {
            *c = crate::xx::xxhash64_u64(i as u64, seed ^ 0xA076_1D64_78BD_642F) % MERSENNE_P;
        }
        // The leading coefficient being zero only reduces the degree; it does
        // not break 4-wise independence of the first four coefficients being
        // uniform, so no rejection is needed.
        SignHasher { coeffs }
    }

    /// `[x, x², x³] mod p` for an element — the part of the evaluation every
    /// polynomial of a bank shares.
    #[inline]
    pub fn powers(element: u64) -> [u64; 3] {
        let x = mod_p(element as u128);
        let x2 = mul_mod(x, x);
        [x, x2, mul_mod(x2, x)]
    }

    /// The 32 sign bits of the element whose [`SignHasher::powers`] are
    /// given: bit `i` set means lane `i` hashes it to −1, clear to +1.
    ///
    /// The three products are summed unreduced (each is below `2^122`, so
    /// the sum stays below `2^124`) and reduced once; the sign bits are the
    /// low 32 bits of the *canonical* residue, so they do not depend on how
    /// the evaluation is scheduled.
    #[inline]
    pub fn sign_bits_at(&self, powers: &[u64; 3]) -> u32 {
        let [a0, a1, a2, a3] = self.coeffs;
        let sum = a0 as u128
            + a1 as u128 * powers[0] as u128
            + a2 as u128 * powers[1] as u128
            + a3 as u128 * powers[2] as u128;
        mod_p(sum) as u32
    }

    /// The sign words of `elements` under `hashers`, the way a bank adds
    /// them up: `each(j, words)` once for every pair `j` of polynomials
    /// (`2j` and `2j + 1`) and every group of eight elements, a pair's
    /// groups in order, with one word per element — the low half
    /// [`SignHasher::sign_bits_at`] under polynomial `2j`, the high half
    /// under `2j + 1` (zero if `hashers` ends there). A last group of fewer
    /// than eight elements is padded with zero words.
    ///
    /// On a CPU with AVX-512 the polynomials are evaluated eight lanes wide
    /// in 32-bit limbs, elsewhere one element at a time in `u128`, as
    /// [`SignHasher::sign_bits_at`] does; both reduce to the canonical
    /// residue, so the words are the same.
    pub fn sign_words(
        hashers: &[SignHasher],
        elements: &[u64],
        each: impl FnMut(usize, &[u64; 8]),
    ) {
        crate::lanes::sign_words(hashers, elements, each);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The 32 sign bits of `element`, the way a bank evaluates them.
    fn sign_bits(h: &SignHasher, element: u64) -> u32 {
        h.sign_bits_at(&SignHasher::powers(element))
    }

    /// The ±1 hash value of `element` under lane `lane < 32`.
    fn sign(h: &SignHasher, lane: usize, element: u64) -> i64 {
        1 - 2 * i64::from(sign_bits(h, element) >> lane & 1)
    }

    /// The family as `docs/WIRE.md` states it, in plain `u128` arithmetic:
    /// the oracle of every evaluation, the block kernels' included.
    pub(crate) fn reference_sign(h: &SignHasher, lane: usize, element: u64) -> i64 {
        let p = MERSENNE_P as u128;
        let x = element as u128 % p;
        let mut v = 0u128;
        for &c in h.coeffs.iter().rev() {
            v = (v * x + c as u128) % p;
        }
        if v >> lane & 1 == 0 {
            1
        } else {
            -1
        }
    }

    fn seeded(trial: u64) -> SignHasher {
        SignHasher::from_seed(trial.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// |Σ over 20 000 seeds of a ±1 product| stays under 7 standard
    /// deviations (√20000 ≈ 141) when the product is balanced.
    fn assert_balanced(what: &str, product: impl Fn(&SignHasher) -> i64) {
        let sum: i64 = (0..20_000).map(|s| product(&seeded(s))).sum();
        assert!(sum.abs() < 1_000, "{what}: sum {sum} suggests correlation");
    }

    #[test]
    fn matches_the_reference_evaluation() {
        let edge = [
            0,
            1,
            MERSENNE_P - 1,
            MERSENNE_P,
            MERSENNE_P + 1,
            2 * MERSENNE_P,
            u64::MAX,
        ];
        let mut x = 1u64;
        let random = std::iter::repeat_with(|| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            x
        });
        for (k, e) in edge.into_iter().chain(random.take(300)).enumerate() {
            let extreme = SignHasher {
                coeffs: [MERSENNE_P - 1; 4],
            };
            for h in [seeded(k as u64), extreme] {
                for lane in 0..SignHasher::LANES {
                    assert_eq!(sign(&h, lane, e), reference_sign(&h, lane, e), "{h:?} {e}");
                }
            }
        }
    }

    #[test]
    fn deterministic() {
        let h1 = SignHasher::from_seed(5);
        let h2 = SignHasher::from_seed(5);
        for e in [0u64, 7, 1 << 40, u64::MAX] {
            assert_eq!(sign_bits(&h1, e), sign_bits(&h2, e));
        }
    }

    #[test]
    fn every_lane_is_balanced_over_elements() {
        let h = SignHasher::from_seed(42);
        let n = 100_000u64;
        let mut sums = [0i64; SignHasher::LANES];
        for e in 0..n {
            let bits = sign_bits(&h, e);
            for (lane, sum) in sums.iter_mut().enumerate() {
                *sum += 1 - 2 * i64::from(bits >> lane & 1);
            }
        }
        // Expected |sum| is on the order of sqrt(n) ~ 316; allow a wide margin.
        for (lane, sum) in sums.iter().enumerate() {
            assert!(sum.abs() < 2_000, "lane {lane}: sign sum {sum}");
        }
    }

    #[test]
    fn lanes_are_balanced_over_seeds() {
        let elems = [2u64, 99, 123_456, 987_654_321];
        for lane in [0, 1, 13, 31] {
            assert_balanced("single lane", |h| sign(h, lane, elems[0]));
            assert_balanced("pairwise", |h| {
                sign(h, lane, elems[1]) * sign(h, lane, elems[3])
            });
            assert_balanced("4-wise", |h| {
                elems.iter().map(|&e| sign(h, lane, e)).product()
            });
        }
    }

    #[test]
    fn two_lanes_of_one_polynomial_are_uncorrelated() {
        let (a, b) = (17u64, 3_000_000_007u64);
        for (i, j) in [(0, 1), (0, 31), (7, 8), (30, 31)] {
            assert_balanced("two lanes, one element", |h| sign(h, i, a) * sign(h, j, a));
            assert_balanced("two lanes, two elements", |h| sign(h, i, a) * sign(h, j, b));
            assert_balanced("two lanes, both on two elements", |h| {
                sign(h, i, a) * sign(h, i, b) * sign(h, j, a) * sign(h, j, b)
            });
        }
    }

    #[test]
    fn mersenne_reduction_is_correct() {
        for &(a, b) in &[
            (MERSENNE_P - 1, MERSENNE_P - 1),
            (123456789, 987654321),
            (0, 5),
        ] {
            let expect = ((a as u128 * b as u128) % MERSENNE_P as u128) as u64;
            assert_eq!(mul_mod(a, b), expect);
        }
        assert_eq!(mod_p(MERSENNE_P as u128), 0);
        assert_eq!(mod_p(u64::MAX as u128), (u64::MAX % MERSENNE_P));
        let top = (1u128 << 124) - 1;
        assert_eq!(mod_p(top), (top % MERSENNE_P as u128) as u64);
    }
}
