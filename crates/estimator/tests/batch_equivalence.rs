//! Batched-vs-scalar equivalence of the ToW insert paths.
//!
//! `insert_slice` must build exactly the same bank — sketch values, item
//! count, and therefore estimates — as one `insert` call per element. (The
//! Strata and min-wise halves are in the `ddigest` crate.)

use estimator::{Estimator, TowEstimator};
use proptest::prelude::*;

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
        let mut a = TowEstimator::new(sketches, seed);
        a.insert_slice(&elements);
        let mut b = TowEstimator::new(sketches, seed);
        for &x in &elements {
            b.insert(x);
        }
        // Sketch values, item count, seed and hashers.
        prop_assert_eq!(&a, &b);
        prop_assert_eq!(a.wire_bits(), b.wire_bits());
    }
}
