//! Eight-lane block kernels: the crate's per-element hashes over a slice,
//! eight elements at a time — and the one place the crate picks a CPU path.
//!
//! Each kernel has an `#[inline(always)]` body and two entries: one
//! compiled for AVX-512 (`avx512f`, `avx512dq`, `avx512vl`), where the
//! body's lane loops become 512-bit instructions (`vpmullq` for xxHash's
//! 64-bit products, `vpmuludq` for 32-bit limb products, `vprolq` for the
//! rotations), and a plain one for every other CPU. [`avx512`] detects the
//! features once per process. The two entries give the same bits, so what
//! a caller computes does not depend on which one ran:
//!
//! * [`hash_block`] — [`xxhash64_u64`] of each key, kept whole ([`Whole`])
//!   or reduced to a bin of `0..g` ([`Range`]): the hash pass of
//!   [`crate::PartitionHasher`], of its duplicate drop's table and of
//!   [`crate::xxhash64_u64_slice`]. Both entries run one body; the AVX-512
//!   one takes `(h·g) >> 64` in 32-bit limbs, the plain one in `u128`.
//! * [`sign_words`] — the Tug-of-War bank's sign words
//!   ([`crate::SignHasher::sign_words`]). The AVX-512 entry evaluates the
//!   polynomials over GF(2⁶¹ − 1) eight elements at a time in 32-bit limbs
//!   ([`sign_words_limbs`]); the plain entry stays the `u128` kernel of
//!   [`SignHasher::sign_bits_at`], since the limb body compiled without
//!   AVX-512 runs at half its speed. Both reduce to the canonical residue.
//!
//! There is no AVX2 entry: an AVX2 build of both kernels measured no faster
//! than the plain code (docs/PERF.md).

use crate::sign::{SignHasher, MERSENNE_P};
use crate::xx::xxhash64_u64;

/// Whether this CPU runs the AVX-512 entries: detected on the first call,
/// read from a cache after.
#[cfg(target_arch = "x86_64")]
pub(crate) fn avx512() -> bool {
    static DETECTED: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *DETECTED.get_or_init(|| {
        is_x86_feature_detected!("avx512f")
            && is_x86_feature_detected!("avx512dq")
            && is_x86_feature_detected!("avx512vl")
    })
}

/// Whether this CPU runs the AVX-512 entries: never off x86-64.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn avx512() -> bool {
    false
}

// ---------------------------------------------------------------------------
// xxHash64 of a `u64`, eight keys at a time
// ---------------------------------------------------------------------------

/// What [`hash_block`] keeps of each key's hash, in two forms that give
/// the same value: the one a scalar core computes best, and the one eight
/// 64-bit lanes do.
pub(crate) trait Reduce: Copy {
    type Out;
    fn wide(self, h: u64) -> Self::Out;
    fn limbs(self, h: u64) -> Self::Out;
}

/// The whole 64-bit hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Whole;

impl Reduce for Whole {
    type Out = u64;

    #[inline(always)]
    fn wide(self, h: u64) -> u64 {
        h
    }

    #[inline(always)]
    fn limbs(self, h: u64) -> u64 {
        h
    }
}

/// The bin `(h·g) >> 64` of `0..g`, for a `g` below `2³²`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Range(pub(crate) u32);

impl Reduce for Range {
    type Out = u32;

    /// One `u64 × u64 → u128` product, as [`crate::PartitionHasher::bin`].
    #[inline(always)]
    fn wide(self, h: u64) -> u32 {
        ((u128::from(h) * u128::from(self.0)) >> 64) as u32
    }

    /// With `h = 2³²·hi + lo`, `(hi·g + (lo·g >> 32)) >> 32`: two
    /// `u32 × u32 → u64` products and no overflow, and exact, since the
    /// bits the inner shift drops lie below the outer shift's.
    #[inline(always)]
    fn limbs(self, h: u64) -> u32 {
        let g = u64::from(self.0);
        (((h >> 32) * g + (((h & 0xFFFF_FFFF) * g) >> 32)) >> 32) as u32
    }
}

/// The body of both [`hash_block`] entries: one loop over the keys. The
/// AVX-512 entry (`LIMBS`) runs it eight lanes to an instruction, reducing
/// in limbs; the plain one reduces each hash with one wide product, which
/// a scalar core does faster.
#[inline(always)]
fn hash_body<R: Reduce, const LIMBS: bool>(keys: &[u64], seed: u64, reduce: R, out: &mut [R::Out]) {
    for (out, &key) in out.iter_mut().zip(keys) {
        let h = xxhash64_u64(key, seed);
        *out = if LIMBS {
            reduce.limbs(h)
        } else {
            reduce.wide(h)
        };
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn hash_avx512<R: Reduce>(keys: &[u64], seed: u64, reduce: R, out: &mut [R::Out]) {
    hash_body::<R, true>(keys, seed, reduce, out)
}

fn hash_plain<R: Reduce>(keys: &[u64], seed: u64, reduce: R, out: &mut [R::Out]) {
    hash_body::<R, false>(keys, seed, reduce, out)
}

/// `reduce.wide(xxhash64_u64(keys[i], seed))` into `out[i]`, for every `i`.
///
/// # Panics
/// Panics if `out` is not as long as `keys`.
pub(crate) fn hash_block<R: Reduce>(keys: &[u64], seed: u64, reduce: R, out: &mut [R::Out]) {
    assert_eq!(keys.len(), out.len(), "one output per key");
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        // SAFETY: `avx512()` found every feature the entry is compiled for.
        return unsafe { hash_avx512(keys, seed, reduce, out) };
    }
    hash_plain(keys, seed, reduce, out)
}

// ---------------------------------------------------------------------------
// The ToW bank's sign words, eight elements at a time
// ---------------------------------------------------------------------------

/// The low 32 bits of a word.
const LOW: u64 = 0xFFFF_FFFF;

/// A value `≡ a·b (mod p)` below `2⁶¹ + 3`, for `a, b < 2⁶¹ + 4`, in
/// 32-bit limbs (Thorup, "High Speed Hashing for Integers and Strings",
/// arXiv:1504.06804): four `u32 × u32 → u64` products folded with
/// `2⁶¹ ≡ 1`, so `2⁶⁴ ≡ 8`.
///
/// With `a = 2³²·ah + al`: `a·b = 2⁶⁴·hh + 2³²·mid + ll`, where
/// `hh = ah·bh < 2⁵⁸` folds to `8·hh`, `mid = ah·bl + al·bh < 2⁶²` splits
/// at bit 29 (`2³²·2²⁹ = 2⁶¹ ≡ 1`), and `ll < 2⁶⁴` at bit 61. The five
/// terms sum below `2⁶³`, and one more fold brings that under `2⁶¹ + 3`.
#[inline(always)]
fn mul_limbs(a: u64, b: u64) -> u64 {
    let (ah, al, bh, bl) = (a >> 32, a & LOW, b >> 32, b & LOW);
    let (hh, mid, ll) = (ah * bh, ah * bl + al * bh, al * bl);
    let s = (hh << 3)
        + (mid >> 29)
        + ((mid & (MERSENNE_P >> 32)) << 32)
        + (ll & MERSENNE_P)
        + (ll >> 61);
    (s & MERSENNE_P) + (s >> 61)
}

/// The canonical residue in `[0, p)` of any `x < 2⁶⁴`: one fold leaves
/// `r < 2⁶¹ + 8`, and `r − p` is the residue exactly when it does not wrap.
#[inline(always)]
fn canonical(x: u64) -> u64 {
    let r = (x & MERSENNE_P) + (x >> 61);
    r.min(r.wrapping_sub(MERSENNE_P))
}

/// The sign bits of eight elements under `h`, each in the low half of its
/// lane, given their `x` (canonical) and `x², x³` (below `2⁶¹ + 3`):
/// `a0 + a1·x + a2·x² + a3·x³` sums below `2⁶³ + 9` and is reduced once,
/// to the residue [`SignHasher::sign_bits_at`] takes its bits from.
#[inline(always)]
fn signs8(h: &SignHasher, [x, x2, x3]: &[[u64; 8]; 3]) -> [u64; 8] {
    let [a0, a1, a2, a3] = h.coeffs;
    let mut out = [0; 8];
    for (i, out) in out.iter_mut().enumerate() {
        let v = a0 + mul_limbs(a1, x[i]) + mul_limbs(a2, x2[i]) + mul_limbs(a3, x3[i]);
        *out = canonical(v) & LOW;
    }
    out
}

/// The body of the AVX-512 entry, in 32-bit limbs, one lane per element:
/// for each group of eight elements (the last padded), its powers once,
/// then the words of every pair of polynomials, handed to `each` — the
/// lanes past the end of `keys` set to zero, so that a consumer of whole
/// groups adds no −1 sign for them.
#[inline(always)]
fn sign_words_limbs(hashers: &[SignHasher], keys: &[u64], each: &mut impl FnMut(usize, &[u64; 8])) {
    let (groups, tail) = keys.as_chunks::<8>();
    let mut last = [0u64; 8];
    last[..tail.len()].copy_from_slice(tail);
    let groups = groups.iter().chain((!tail.is_empty()).then_some(&last));
    for (g, group) in groups.enumerate() {
        let x = group.map(canonical);
        let (mut x2, mut x3) = ([0; 8], [0; 8]);
        for ((x2, x3), &x) in x2.iter_mut().zip(&mut x3).zip(&x) {
            *x2 = mul_limbs(x, x);
            *x3 = mul_limbs(*x2, x);
        }
        let powers = [x, x2, x3];
        let live = (keys.len() - 8 * g).min(8);
        for (j, pair) in hashers.chunks(2).enumerate() {
            let mut w = signs8(&pair[0], &powers);
            if let Some(hi) = pair.get(1) {
                for (w, s) in w.iter_mut().zip(signs8(hi, &powers)) {
                    *w |= s << 32;
                }
            }
            w[live..].fill(0);
            each(j, &w);
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512dq,avx512vl")]
fn sign_words_avx512(
    hashers: &[SignHasher],
    keys: &[u64],
    each: &mut impl FnMut(usize, &[u64; 8]),
) {
    sign_words_limbs(hashers, keys, each)
}

/// The plain entry: the `u128` kernel of [`SignHasher::powers`] and
/// [`SignHasher::sign_bits_at`], element by element — the powers of every
/// element first, then pair by pair the words of each group of eight, a
/// short last group's missing lanes zero words. (The limb body compiled
/// without AVX-512, or this one run group by group, is slower.)
fn sign_words_plain(hashers: &[SignHasher], keys: &[u64], each: &mut impl FnMut(usize, &[u64; 8])) {
    let powers: Vec<[u64; 3]> = keys.iter().map(|&key| SignHasher::powers(key)).collect();
    for (j, pair) in hashers.chunks(2).enumerate() {
        let word = |p: &[u64; 3]| match pair {
            [lo, hi] => u64::from(lo.sign_bits_at(p)) | u64::from(hi.sign_bits_at(p)) << 32,
            _ => u64::from(pair[0].sign_bits_at(p)),
        };
        for group in powers.chunks(8) {
            let mut w = [0u64; 8];
            for (w, p) in w.iter_mut().zip(group) {
                *w = word(p);
            }
            each(j, &w);
        }
    }
}

/// The words of [`crate::SignHasher::sign_words`], handed to `each`.
pub(crate) fn sign_words(
    hashers: &[SignHasher],
    keys: &[u64],
    mut each: impl FnMut(usize, &[u64; 8]),
) {
    #[cfg(target_arch = "x86_64")]
    if avx512() {
        // SAFETY: `avx512()` found every feature the entry is compiled for.
        return unsafe { sign_words_avx512(hashers, keys, &mut each) };
    }
    sign_words_plain(hashers, keys, &mut each)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sign::tests::reference_sign;
    use crate::PartitionHasher;

    const P: u64 = MERSENNE_P;

    /// The values the field's folds meet at their edges.
    const EDGE: [u64; 7] = [0, 1, P - 1, P, P + 1, 2 * P, u64::MAX];

    /// The bin counts the range reduction is held at: its two smallest,
    /// an odd one, a PBS bin count and the largest it takes.
    const GS: [u32; 5] = [1, 2, 3, 277, u32::MAX];

    /// `len` keys: every third an [`EDGE`] value (so each lands in every
    /// lane position), the rest drawn from `salt`.
    fn keys(len: usize, salt: u64) -> Vec<u64> {
        let mut x = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if i % 3 == 0 {
                    EDGE[(i / 3 + salt as usize) % EDGE.len()]
                } else {
                    x
                }
            })
            .collect()
    }

    /// Every length 0..=64, the edges of the bank's 2 040-element block,
    /// and lengths that are not multiples of eight beside them.
    fn lengths() -> impl Iterator<Item = usize> {
        (0..=64).chain([2_033, 2_039, 2_040, 2_041, 2_047, 4_083])
    }

    type HashFn<R> = fn(&[u64], u64, R, &mut [<R as Reduce>::Out]);
    type WordsFn = fn(&[SignHasher], &[u64]) -> Vec<Vec<u64>>;

    #[cfg(target_arch = "x86_64")]
    fn hash_avx512_checked<R: Reduce>(keys: &[u64], seed: u64, reduce: R, out: &mut [R::Out]) {
        assert!(avx512());
        // SAFETY: the CPU has every feature the entry is compiled for.
        unsafe { hash_avx512(keys, seed, reduce, out) }
    }

    /// A sign-word entry's output: per pair of polynomials, the words of
    /// every group in order.
    fn runs(
        hashers: &[SignHasher],
        entry: impl FnOnce(&mut dyn FnMut(usize, &[u64; 8])),
    ) -> Vec<Vec<u64>> {
        let mut runs = vec![Vec::new(); hashers.len().div_ceil(2)];
        entry(&mut |pair, words| runs[pair].extend_from_slice(words));
        runs
    }

    #[cfg(target_arch = "x86_64")]
    fn sign_words_avx512_checked(hashers: &[SignHasher], keys: &[u64]) -> Vec<Vec<u64>> {
        assert!(avx512());
        runs(hashers, |mut each| {
            // SAFETY: the CPU has every feature the entry is compiled for.
            unsafe { sign_words_avx512(hashers, keys, &mut each) }
        })
    }

    /// The hash kernel's entries this CPU runs, and its limb reduction
    /// through a plain instantiation, by name (printed: on a CPU without
    /// AVX-512 the list has no "avx512").
    fn hash_entries<R: Reduce>() -> Vec<(&'static str, HashFn<R>)> {
        let mut all = vec![
            ("plain", hash_plain as HashFn<R>),
            ("limbs, plain", hash_body::<R, true>),
        ];
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            all.push(("avx512", hash_avx512_checked));
        }
        println!(
            "hash entries checked: {:?}",
            all.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        all
    }

    /// The bank kernel's entries this CPU runs, and its limb body through
    /// a plain instantiation, so that a CPU without AVX-512 still checks
    /// the source the AVX-512 entry compiles.
    fn words_entries() -> Vec<(&'static str, WordsFn)> {
        let mut all: Vec<(&str, WordsFn)> = vec![
            ("plain", |h, k| {
                runs(h, |mut each| sign_words_plain(h, k, &mut each))
            }),
            ("limbs, plain", |h, k| {
                runs(h, |mut each| sign_words_limbs(h, k, &mut each))
            }),
        ];
        #[cfg(target_arch = "x86_64")]
        if avx512() {
            all.push(("avx512", sign_words_avx512_checked));
        }
        println!(
            "sign-word entries checked: {:?}",
            all.iter().map(|e| e.0).collect::<Vec<_>>()
        );
        all
    }

    #[test]
    fn every_hash_entry_matches_xxhash64_u64_and_bin() {
        for (name, hash) in hash_entries::<Whole>() {
            for len in lengths() {
                let keys = keys(len, len as u64);
                let seed = keys.len() as u64 ^ 0xA5A5;
                let mut out = vec![0; len];
                hash(&keys, seed, Whole, &mut out);
                let expect: Vec<u64> = keys.iter().map(|&k| xxhash64_u64(k, seed)).collect();
                assert_eq!(out, expect, "{name}, whole, len {len}");
            }
        }
        for (name, hash) in hash_entries::<Range>() {
            for len in lengths() {
                let keys = keys(len, len as u64 + 1);
                for g in GS {
                    let seed = u64::from(g) ^ len as u64;
                    let hasher = PartitionHasher::new(g.into(), seed);
                    let mut out = vec![0; len];
                    hash(&keys, seed, Range(g), &mut out);
                    let expect: Vec<u32> = keys.iter().map(|&k| hasher.bin(k) as u32).collect();
                    assert_eq!(out, expect, "{name}, g = {g}, len {len}");
                }
            }
        }
    }

    /// The range reduction on hashes at its edges, not only on xxHash's
    /// outputs: `(h·g) >> 64` for every `h` the limb split can trip over.
    #[test]
    fn the_range_reduction_is_exact_at_its_edges() {
        let hs = [
            0,
            1,
            LOW,
            LOW + 1,
            1 << 63,
            u64::MAX - LOW,
            u64::MAX - 1,
            u64::MAX,
        ];
        for g in GS {
            for h in hs.into_iter().chain(EDGE) {
                let exact = ((u128::from(h) * u128::from(g)) >> 64) as u32;
                assert_eq!(Range(g).limbs(h), exact, "h = {h:#x}, g = {g}");
                assert_eq!(Range(g).wide(h), exact, "h = {h:#x}, g = {g}");
            }
        }
    }

    #[test]
    fn every_sign_word_entry_matches_sign_bits_at() {
        let extreme = SignHasher { coeffs: [P - 1; 4] };
        for (name, words_of) in words_entries() {
            for count in [1, 2, 3, 4] {
                let mut hashers: Vec<SignHasher> = (0..count)
                    .map(|j| SignHasher::from_seed(0x5EED + j as u64))
                    .collect();
                if count == 3 {
                    hashers[2] = extreme;
                }
                for len in lengths() {
                    let keys = keys(len, (len * count) as u64);
                    let runs = words_of(&hashers, &keys);
                    assert_eq!(runs.len(), count.div_ceil(2));
                    for (pair, words) in hashers.chunks(2).zip(runs) {
                        assert_eq!(words.len(), len.next_multiple_of(8), "{name}, len {len}");
                        for (i, &w) in words.iter().enumerate() {
                            let expect = keys.get(i).map_or(0, |&k| {
                                let bits = |h: &SignHasher| {
                                    u64::from(h.sign_bits_at(&SignHasher::powers(k)))
                                };
                                bits(&pair[0]) | pair.get(1).map_or(0, |hi| bits(hi) << 32)
                            });
                            assert_eq!(w, expect, "{name}, {count} hashers, len {len}, lane {i}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn every_sign_word_entry_matches_the_reference_family() {
        let hashers = [SignHasher::from_seed(3), SignHasher { coeffs: [P - 1; 4] }];
        for (name, words_of) in words_entries() {
            for len in 0..=64 {
                let keys = keys(len, 7 * len as u64);
                let words = words_of(&hashers, &keys).concat();
                for (&k, &w) in keys.iter().zip(&words) {
                    for lane in 0..64 {
                        let sign = 1 - 2 * (w >> lane & 1) as i64;
                        let expect = reference_sign(&hashers[lane / 32], lane % 32, k);
                        assert_eq!(sign, expect, "{name}, len {len}, key {k:#x}, lane {lane}");
                    }
                }
            }
        }
    }

    /// The limb product and reduction on their own, at the field's edges
    /// and past them, where their bounds are tightest.
    #[test]
    fn the_limb_product_is_congruent_and_bounded() {
        let big = [P + 2, P + 3, (1 << 61) + 3];
        for a in EDGE.into_iter().filter(|&a| a <= P + 1).chain(big) {
            for b in EDGE.into_iter().filter(|&b| b <= P + 1).chain(big) {
                let r = mul_limbs(a, b);
                assert!(r < (1 << 61) + 3, "{a:#x}·{b:#x} left {r:#x}");
                let p = P as u128;
                assert_eq!(r as u128 % p, a as u128 * b as u128 % p, "{a:#x}·{b:#x}");
            }
        }
        for x in EDGE.into_iter().chain([P - 2, 1 << 61, (1 << 62) + 5]) {
            assert_eq!(canonical(x), x % P, "{x:#x}");
        }
    }
}
