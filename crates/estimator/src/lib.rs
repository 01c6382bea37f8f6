//! Set-difference cardinality estimators.
//!
//! PBS (and PinSketch, and Difference Digest) must be parameterized with the
//! difference cardinality `d = |A△B|`, which is not known a priori. §6 of
//! the paper proposes estimating it with a **Tug-of-War (ToW) sketch** and
//! inflating the estimate by γ = 1.38 so that `Pr[d ≤ γ·d̂] ≥ 99%` when
//! ℓ = 128 sketches are used. Appendix B compares ToW against the two
//! estimators used by earlier work — the **Strata** estimator of Difference
//! Digest and the **min-wise** estimator — and finds ToW the most
//! space-efficient; all three are implemented here so that comparison can be
//! reproduced.

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

mod minwise;
mod strata;
mod tow;

pub use minwise::MinWiseEstimator;
pub use strata::StrataEstimator;
pub use tow::{inflate_estimate, TowEstimator, DEFAULT_SKETCH_COUNT, RECOMMENDED_INFLATION};

/// A set-difference cardinality estimator.
///
/// The protocol is always the same shape: Alice builds a summary of `A` and
/// sends it to Bob (costing [`Estimator::wire_bits`]); Bob builds the same
/// kind of summary of `B` and combines the two into an estimate `d̂` of
/// `|A△B|`.
pub trait Estimator {
    /// Human-readable name for experiment output.
    fn name(&self) -> &'static str;

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

/// Build an estimator summary over a whole set (through the batched
/// [`Estimator::insert_slice`] path).
pub fn summarize<E: Estimator>(mut estimator: E, set: &[u64]) -> E {
    estimator.insert_slice(set);
    estimator
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_inserts_everything() {
        let est = summarize(TowEstimator::new(16, 1), &[1, 2, 3]);
        let empty = TowEstimator::new(16, 1);
        // Against an empty summary the estimate is |A| in expectation; just
        // check it is positive and finite.
        let d = est.estimate(&empty);
        assert!(d.is_finite() && d > 0.0);
    }
}
