//! Appendix B comparison: the three difference-cardinality estimators side by
//! side on the same set pairs — accuracy in the same ballpark, wire size
//! strongly favouring the Tug-of-War estimator.

use ddigest::{MinWiseEstimator, StrataEstimator};
use estimator::{Estimator, TowEstimator};
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

fn feed<E: Estimator>(e: &mut E, set: &[u64]) {
    for &x in set {
        e.insert(x);
    }
}

#[test]
fn all_three_estimators_land_in_the_right_ballpark() {
    let d = 500usize;
    let (a, b) = random_pair(8_000, d, 42);

    let mut tow_a = TowEstimator::paper_default(1);
    let mut tow_b = TowEstimator::paper_default(1);
    feed(&mut tow_a, &a);
    feed(&mut tow_b, &b);
    let tow = tow_a.estimate(&tow_b);

    let mut strata_a = StrataEstimator::new(32, 2);
    let mut strata_b = StrataEstimator::new(32, 2);
    feed(&mut strata_a, &a);
    feed(&mut strata_b, &b);
    let strata = strata_a.estimate(&strata_b);

    let mut mw_a = MinWiseEstimator::new(256, 3);
    let mut mw_b = MinWiseEstimator::new(256, 3);
    feed(&mut mw_a, &a);
    feed(&mut mw_b, &b);
    let minwise = mw_a.estimate(&mw_b);

    for (name, est) in [("ToW", tow), ("Strata", strata), ("MinWise", minwise)] {
        assert!(
            est > 0.3 * d as f64 && est < 3.0 * d as f64,
            "{name} estimate {est} is not within 3x of d = {d}"
        );
    }
}

#[test]
fn tow_is_the_most_space_efficient() {
    let (a, _) = random_pair(50_000, 0, 7);
    let mut tow = TowEstimator::paper_default(1);
    let mut strata = StrataEstimator::new(32, 1);
    let mut minwise = MinWiseEstimator::new(128, 1);
    feed(&mut tow, &a);
    feed(&mut strata, &a);
    feed(&mut minwise, &a);
    // §6.1: 128 ToW sketches over a large set stay within a few hundred bytes.
    assert!(tow.wire_bits() <= 128 * 21);
    // Appendix B: ToW is far smaller than the Strata estimator and also
    // smaller than a min-wise summary of comparable accuracy.
    assert!(strata.wire_bits() > 10 * tow.wire_bits());
    assert!(minwise.wire_bits() > tow.wire_bits());
}
