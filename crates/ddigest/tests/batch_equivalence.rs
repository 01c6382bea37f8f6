//! Batched-vs-scalar equivalence properties for the Strata and min-wise
//! insert paths.
//!
//! `insert_slice` must build exactly the same summary — strata tables,
//! minima, item counts, and therefore estimates — as one `insert` call per
//! element.

use ddigest::{MinWiseEstimator, StrataEstimator};
use estimator::Estimator;
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

    #[test]
    fn strata_insert_slice_matches_insert(
        seed in any::<u64>(),
        elements in prop::collection::vec(1u64..=u64::MAX, 0..150),
        others in prop::collection::vec(1u64..=u64::MAX, 0..150),
    ) {
        let a = batched(StrataEstimator::new(32, seed), &elements);
        let b = scalar(StrataEstimator::new(32, seed), &elements);
        // StrataEstimator carries no PartialEq; equal summaries must yield
        // identical estimates against any third summary.
        let probe = batched(StrataEstimator::new(32, seed), &others);
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
        // Minima, per-hash seeds and the item count.
        prop_assert_eq!(&a, &b);
    }
}
