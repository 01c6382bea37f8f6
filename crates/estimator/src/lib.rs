//! The Tug-of-War set-difference cardinality estimator.
//!
//! PBS (and PinSketch, and Difference Digest) must be parameterized with the
//! difference cardinality `d = |A△B|`, which is not known a priori. §6 of
//! the paper proposes estimating it with a **Tug-of-War (ToW) sketch** and
//! inflating the estimate by γ = 1.38 so that `Pr[d ≤ γ·d̂] ≥ 99%` when
//! ℓ = 128 sketches are used. The [`Estimator`] trait is the shape all
//! difference estimators share; Appendix B's other two, Strata and min-wise,
//! live in the `ddigest` crate beside the IBLT the Strata estimator is built
//! from.

//!
//! # Example
//!
//! ```
//! use estimator::{inflate_estimate, Estimator, TowEstimator};
//!
//! let a: Vec<u64> = (1..=1000).collect();
//! let b: Vec<u64> = (51..=1000).collect(); // true d = 50
//! let mut bank_a = TowEstimator::new(128, 42);
//! bank_a.insert_slice(&a);
//! let mut bank_b = TowEstimator::new(128, 42);
//! bank_b.insert_slice(&b);
//! let d_hat = bank_a.estimate(&bank_b);
//! assert!(d_hat > 10.0 && d_hat < 250.0);
//! // γ-inflate before parameterizing PBS: Pr[d <= γ·d̂] >= 99%.
//! assert!(inflate_estimate(d_hat) >= 1);
//! ```

#![warn(missing_docs)]

mod tow;

pub use tow::{inflate_estimate, TowEstimator, DEFAULT_SKETCH_COUNT, RECOMMENDED_INFLATION};

/// A set-difference cardinality estimator.
///
/// The protocol is always the same shape: Alice builds a summary of `A` and
/// sends it to Bob (costing [`Estimator::wire_bits`]); Bob builds the same
/// kind of summary of `B` and combines the two into an estimate `d̂` of
/// `|A△B|`.
pub trait Estimator {
    /// Insert one element into the summary.
    fn insert(&mut self, element: u64);

    /// Insert a whole slice of elements.
    ///
    /// The default loops over [`Estimator::insert`]; the ToW and Strata
    /// estimators override it with a batched kernel that produces exactly
    /// the same summary — checked by batched-vs-scalar property tests.
    fn insert_slice(&mut self, elements: &[u64]) {
        for &e in elements {
            self.insert(e);
        }
    }

    /// Size of the summary on the wire, in bits.
    fn wire_bits(&self) -> u64;

    /// Combine with the peer's summary and estimate `|A△B|`.
    ///
    /// # Panics
    /// Panics if the two summaries were built with different parameters.
    fn estimate(&self, other: &Self) -> f64;
}
