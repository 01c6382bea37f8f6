//! Batched-vs-scalar equivalence properties for every estimator insert path.
//!
//! `insert_slice` must build exactly the same summary — sketch values,
//! strata tables, minima, item counts, and therefore estimates — as one
//! `insert` call per element.

use estimator::{Estimator, MinWiseEstimator, StrataEstimator, TowEstimator};
use proptest::prelude::*;

fn scalar<E: Estimator>(mut e: E, elements: &[u64]) -> E {
    for &x in elements {
        e.insert(x);
    }
    e
}

fn batched<E: Estimator>(mut e: E, elements: &[u64]) -> E {
    e.insert_slice(elements);
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Up to five polynomials (two pairs and a lone one) over up to two of
    /// the batched kernel's 2040-element blocks plus a remainder.
    #[test]
    fn tow_insert_slice_matches_insert(
        sketches in 1usize..=130,
        seed in any::<u64>(),
        elements in prop::collection::vec(any::<u64>(), 0..4400),
    ) {
        let a = batched(TowEstimator::new(sketches, seed), &elements);
        let b = scalar(TowEstimator::new(sketches, seed), &elements);
        prop_assert_eq!(a.sketches(), b.sketches());
        prop_assert_eq!(a.items(), b.items());
        prop_assert_eq!(a.wire_bits(), b.wire_bits());
    }

    #[test]
    fn strata_insert_slice_matches_insert(
        seed in any::<u64>(),
        elements in prop::collection::vec(1u64..=u64::MAX, 0..150),
        others in prop::collection::vec(1u64..=u64::MAX, 0..150),
    ) {
        let a = batched(StrataEstimator::with_shape(16, 20, 32, seed), &elements);
        let b = scalar(StrataEstimator::with_shape(16, 20, 32, seed), &elements);
        // StrataEstimator carries no PartialEq; equal summaries must yield
        // identical estimates against any third summary.
        let probe = batched(StrataEstimator::with_shape(16, 20, 32, seed), &others);
        prop_assert_eq!(a.estimate(&probe), b.estimate(&probe));
        prop_assert_eq!(a.wire_bits(), b.wire_bits());
    }

    #[test]
    fn minwise_insert_slice_matches_insert(
        hashes in 1usize..40,
        seed in any::<u64>(),
        elements in prop::collection::vec(any::<u64>(), 0..150),
    ) {
        let a = batched(MinWiseEstimator::new(hashes, seed), &elements);
        let b = scalar(MinWiseEstimator::new(hashes, seed), &elements);
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.items(), b.items());
    }
}
