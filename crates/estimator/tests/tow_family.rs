//! The ToW bank against its specification (`docs/WIRE.md`, "The ±1
//! family"): the batched and per-element insert paths against a reference
//! written from the document alone, and the §6.2 accuracy guarantees the
//! family has to deliver.

use estimator::{inflate_estimate, Estimator, TowEstimator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xhash::{derive_seed, xxhash64_u64};

/// The canonical value in `[0, 2^61 − 1)` of polynomial `j` of the bank
/// seeded `seed` at element `x`.
fn reference_value(seed: u64, j: usize, x: u64) -> u128 {
    let p = (1u128 << 61) - 1;
    let poly_seed = derive_seed(seed, j as u64) ^ 0xA076_1D64_78BD_642F;
    let a = |k: u64| xxhash64_u64(k, poly_seed) as u128 % p;
    let x = x as u128 % p;
    (((a(3) * x + a(2)) % p * x + a(1)) % p * x + a(0)) % p
}

/// The bank as the document defines it: sketch `i` sums, over the
/// elements, −1 where bit `i mod 32` of polynomial `⌊i/32⌋`'s value is set
/// and +1 where it is clear.
fn reference_sketches(sketches: usize, seed: u64, elems: &[u64]) -> Vec<i64> {
    let mut bank = vec![0i64; sketches];
    for &x in elems {
        for (j, lanes) in bank.chunks_mut(32).enumerate() {
            let v = reference_value(seed, j, x);
            for (lane, sketch) in lanes.iter_mut().enumerate() {
                *sketch += if v >> lane & 1 == 0 { 1 } else { -1 };
            }
        }
    }
    bank
}

/// The reference bank, handed over in the bank layout the document also
/// defines: count, items, seed, an 8-byte counter width, the counters.
fn reference_bank(sketches: usize, seed: u64, elems: &[u64]) -> TowEstimator {
    let mut bytes = Vec::new();
    bytes.extend_from_slice(&(sketches as u32).to_le_bytes());
    bytes.extend_from_slice(&(elems.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&seed.to_le_bytes());
    bytes.push(8);
    for counter in reference_sketches(sketches, seed, elems) {
        bytes.extend_from_slice(&counter.to_le_bytes());
    }
    TowEstimator::from_bytes(&bytes).expect("a well-formed bank")
}

/// Arbitrary `u64`s, a share of them at or above the field modulus.
fn elements(len: usize, rng: &mut StdRng) -> Vec<u64> {
    const P: u64 = (1 << 61) - 1;
    (0..len)
        .map(|k| match k % 5 {
            0 => P + rng.random_range(0..3u64),
            1 => u64::MAX - rng.random_range(0..3u64),
            _ => rng.random::<u64>(),
        })
        .collect()
}

fn assert_all_paths_agree(sketches: usize, seed: u64, elems: &[u64]) {
    let mut batched = TowEstimator::new(sketches, seed);
    batched.insert_slice(elems);
    let mut scalar = TowEstimator::new(sketches, seed);
    for &x in elems {
        scalar.insert(x);
    }
    assert_eq!(batched, scalar, "ℓ={sketches} len={}", elems.len());
    assert_eq!(
        batched,
        reference_bank(sketches, seed, elems),
        "ℓ={sketches} len={}",
        elems.len()
    );
}

/// Elements per block of the batched kernel (`BLOCK` in `tow.rs`): eight
/// times the 255 groups whose weight-8 carries an 8-bit counter holds.
const BLOCK: usize = 2040;

#[test]
fn insert_paths_match_the_reference_for_every_bank_width() {
    let mut rng = StdRng::seed_from_u64(0x70E);
    // The kernel's seams: a group of eight and its neighbours, then one
    // block and two (the third with a whole group and a remainder) ± 1.
    #[rustfmt::skip]
    let seams = [
        0, 1, 7, 8, 9,
        BLOCK - 1, BLOCK, BLOCK + 1,
        2 * BLOCK - 1, 2 * BLOCK, 2 * BLOCK + 1, 2 * BLOCK + 9,
    ];
    // The widths that see every seam: polynomials are taken two at a time,
    // so a lone first (1, 32), a pair whose second has one lane (33) or all
    // (64), a lone third (65, 80, 96), a second pair (97, 128), a lone fifth.
    let crossing = [1, 32, 33, 64, 65, 80, 96, 97, 128, 129, 1024];
    for sketches in (1..=200usize).chain([1024, 4096]) {
        let mut lens = vec![rng.random_range(0..=1000usize)];
        if crossing.contains(&sketches) {
            lens.extend(seams);
        }
        for len in lens {
            let elems = elements(len, &mut rng);
            assert_all_paths_agree(sketches, rng.random(), &elems);
        }
    }
}

#[test]
fn a_long_slice_crosses_every_flush_boundary() {
    let mut rng = StdRng::seed_from_u64(0x10_000);
    let elems = elements(65_536 + 300, &mut rng);
    // 33 sketches: one full polynomial paired with one of a single live
    // lane; 80: a pair and a lone half-live third.
    assert_all_paths_agree(33, 9, &elems);
    assert_all_paths_agree(80, 9, &elems);
    assert_all_paths_agree(128, 9, &elems);
    // Appending in two calls is the same as one.
    let mut split = TowEstimator::new(128, 9);
    split.insert_slice(&elems[..1000]);
    split.insert_slice(&elems[1000..]);
    let mut whole = TowEstimator::new(128, 9);
    whole.insert_slice(&elems);
    assert_eq!(split, whole);
}

/// §6.2 at ℓ = 128: `Pr[d ≤ ⌈1.38·d̂⌉] ≥ 99%`, and Appendix A's
/// `Var[d̂] = (2d² − 2d)/ℓ`. The bank is linear, so for `B ⊂ A` the
/// difference of the two banks is the bank of `A△B` alone — sketching only
/// those `d` elements is the same experiment at a thousandth of the cost.
#[test]
fn inflated_estimate_covers_d_and_variance_matches_appendix_a() {
    const SKETCHES: usize = 128;
    const TRIALS: u64 = 2_500;
    for d in [100usize, 1000] {
        let mut rng = StdRng::seed_from_u64(0xC0FE + d as u64);
        let mut covered = 0u64;
        let mut estimates = Vec::with_capacity(TRIALS as usize);
        for trial in 0..TRIALS {
            let mut difference: Vec<u64> = (0..d).map(|_| rng.random::<u64>()).collect();
            difference.sort_unstable();
            difference.dedup();
            let seed = derive_seed(0x5EED, trial);
            let mut bank = TowEstimator::new(SKETCHES, seed);
            bank.insert_slice(&difference);
            let d_hat = bank.estimate(&TowEstimator::new(SKETCHES, seed));
            covered += u64::from(inflate_estimate(d_hat) >= difference.len());
            estimates.push(d_hat);
        }
        let share = covered as f64 / TRIALS as f64;
        assert!(
            share >= 0.983,
            "d={d}: covered in only {share:.4} of trials"
        );

        let mean = estimates.iter().sum::<f64>() / TRIALS as f64;
        let variance =
            estimates.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (TRIALS - 1) as f64;
        let theory = (2 * d * d - 2 * d) as f64 / SKETCHES as f64;
        assert!(
            (mean - d as f64).abs() < 0.02 * d as f64,
            "d={d}: mean estimate {mean}"
        );
        assert!(
            (variance / theory - 1.0).abs() < 0.15,
            "d={d}: sample variance {variance:.1} vs (2d²−2d)/ℓ = {theory:.1}"
        );
    }
}
