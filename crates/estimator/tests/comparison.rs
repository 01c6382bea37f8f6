//! The ToW half of Appendix B's estimator comparison: an estimate does not
//! depend on which side built its bank first. The Strata and min-wise halves
//! are in the `ddigest` crate, beside those two estimators.

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
fn estimators_are_insensitive_to_which_side_builds_first() {
    let (a, b) = random_pair(3_000, 100, 9);
    let mut ea = TowEstimator::paper_default(5);
    let mut eb = TowEstimator::paper_default(5);
    feed(&mut ea, &a);
    feed(&mut eb, &b);
    assert_eq!(ea.estimate(&eb), eb.estimate(&ea));
}
