//! The analytical framework of the PBS paper (§4, §5, Appendices D–H).
//!
//! The framework models one group pair's multi-round reconciliation as a
//! Markov chain over the number of still-unreconciled ("bad") distinct
//! elements. It provides, purely analytically (no simulation):
//!
//! * the transition matrix `M` computed with the Appendix E dynamic program
//!   ([`TransitionMatrix`]),
//! * the single-group success probability `Pr[x →r 0] = (M^r)(x, 0)`
//!   (Formula (2)),
//! * the per-group-pair success probability
//!   `α(n, t) = Σ_x Binom(d, 1/g)(x) · Pr[x →r 0]` and the rigorous overall
//!   lower bound `Pr[R ≤ r] ≥ 1 − 2(1 − α^g)` (Appendix F),
//! * the `(n, t)` optimizer that minimizes communication subject to a target
//!   success probability (§5.1, Appendix H / Table 1),
//! * the expected number of distinct elements reconciled per round
//!   (§5.3 / Appendix G), and
//! * the §2 closed-form probabilities (ideal case, type I/II exceptions)
//!   used throughout the paper's examples.

#![warn(missing_docs)]

mod markov;
mod optimize;
mod probability;
mod table;

pub use markov::TransitionMatrix;
pub use optimize::{
    group_count, optimize_parameters, optimize_parameters_with_model, OptimalParams, OptimizeError,
};
pub use probability::{
    binomial_pmf, exception_probabilities, ideal_case_probability, ExceptionProbabilities,
};

/// The δ = 5 average number of distinct elements per group the paper fixes
/// (§3: "Since δ = 5 appears to be a nice tradeoff point, we fix the value of
/// δ at 5 in this paper").
pub const DEFAULT_DELTA: usize = 5;

/// The r = 3 target number of rounds the paper identifies as the sweet spot
/// (§5.2).
pub const DEFAULT_TARGET_ROUNDS: u32 = 3;

/// The candidate parity-bitmap lengths `n = 2^m − 1` used by the paper's
/// optimization examples (§5.1: "The possible n values are hence narrowed
/// down to {63, 127, 255, 511, 1023, 2047} in practice"). Those six suffice
/// whenever `r ≥ 2`.
pub const PAPER_CANDIDATE_N: [usize; 6] = [63, 127, 255, 511, 1023, 2047];

/// The candidate parity-bitmap lengths scanned by the optimizer. This extends
/// the paper's list up to `2^20 − 1` so that very aggressive targets (notably
/// `r = 1`, where a collision can never be repaired and only a huge bitmap
/// keeps the ideal-case probability high enough) still have feasible
/// parameters; for the paper's default `r = 3` the optimum always falls
/// inside [`PAPER_CANDIDATE_N`].
pub(crate) const CANDIDATE_N: [usize; 15] = [
    63, 127, 255, 511, 1023, 2047, 4095, 8191, 16383, 32767, 65535, 131071, 262143, 524287, 1048575,
];

/// How the per-group success probability treats groups whose number of
/// distinct elements exceeds the BCH capacity `t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SuccessModel {
    /// Appendix F's pessimistic simplification: any group that starts with
    /// more than `t` distinct elements is counted as a failure
    /// (`Pr[x →r 0] = 0` for `x > t`).
    PessimisticTruncation,
    /// Model the §3.2 exception handling explicitly: a group with `x > t`
    /// elements suffers a BCH decoding failure in its first round, is split
    /// three ways, and each sub-group must then finish within the remaining
    /// `r − 1` rounds. This tracks the implemented mechanism and is the
    /// default; see EXPERIMENTS.md for how the two models bracket the
    /// paper's Table 1.
    #[default]
    SplitAware,
}

/// Per-group success probability α(n, t) (Appendix F):
/// `α = Σ_x Pr[X = x] · Pr[x →r 0]` where `X ~ Binomial(d, 1/g)`, with
/// over-capacity groups (`x > t`) handled according to `model`.
pub fn group_success_probability(
    n: usize,
    t: usize,
    d: usize,
    g: usize,
    r: u32,
    model: SuccessModel,
) -> f64 {
    table::GroupLoad::new(d, g, t).alpha(t, &table::success_vector(n, t, r, model))
}

/// The rigorous lower bound `1 − 2(1 − α^g)` on the overall success
/// probability `Pr[R ≤ r]` across all `g` group pairs (Appendix F).
pub fn overall_success_lower_bound(alpha: f64, g: usize) -> f64 {
    1.0 - 2.0 * (1.0 - alpha.powi(g as i32))
}

/// Expected fraction of the d distinct elements reconciled in each of the
/// first `rounds` rounds (§5.3 / Appendix G), plus the residual fraction
/// left unreconciled afterwards as the final entry.
///
/// Returns a vector of length `rounds + 1`:
/// `[share_round_1, …, share_round_r, residual]`, each in `[0, 1]`,
/// summing to 1.
pub fn expected_round_shares(n: usize, t: usize, d: usize, g: usize, rounds: u32) -> Vec<f64> {
    let matrix = TransitionMatrix::build(n, t);
    let p = 1.0 / g as f64;
    // E[reconciled within k rounds] for one group with δ1 ~ Binomial(d, 1/g):
    //   Σ_x Pr[δ1=x] Σ_y (x − y)·Pr[x →k y]   (Equation (6))
    let max_x = t;
    let mut expected_within = vec![0.0f64; rounds as usize + 1];
    for k in 1..=rounds {
        let reach = matrix.power(k);
        let mut total = 0.0;
        for x in 1..=max_x.min(d) {
            let w = binomial_pmf(d, x, p);
            let mut inner = 0.0;
            for y in 0..=x {
                inner += (x - y) as f64 * reach[(x, y)];
            }
            total += w * inner;
        }
        expected_within[k as usize] = total;
    }
    // Expected distinct elements per group is d/g; convert to fractions of d
    // by multiplying by g/d (both appear, so the share of round k is simply
    // the per-group expectation divided by d/g).
    let per_group = d as f64 / g as f64;
    let mut shares = Vec::with_capacity(rounds as usize + 1);
    let mut prev = 0.0;
    for &within_abs in expected_within.iter().take(rounds as usize + 1).skip(1) {
        let within = within_abs / per_group;
        shares.push((within - prev).max(0.0));
        prev = within;
    }
    shares.push((1.0 - prev).max(0.0));
    shares
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_example_round_shares() {
        // §5.3: with d = 1000, δ = 5, (n, t) = (127, 13), the expected
        // proportions reconciled in rounds 1..4 are 0.962, 0.0380, 3.61e-4,
        // 2.86e-6.
        let shares = expected_round_shares(127, 13, 1000, 200, 4);
        assert!(
            (shares[0] - 0.962).abs() < 0.01,
            "round-1 share {}",
            shares[0]
        );
        assert!(
            (shares[1] - 0.038).abs() < 0.01,
            "round-2 share {}",
            shares[1]
        );
        assert!(shares[2] < 0.002, "round-3 share {}", shares[2]);
        assert!(shares[3] < 1e-4, "round-4 share {}", shares[3]);
        let total: f64 = shares.iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_increases_with_t_and_n() {
        for model in [
            SuccessModel::PessimisticTruncation,
            SuccessModel::SplitAware,
        ] {
            let a_small = group_success_probability(63, 8, 1000, 200, 3, model);
            let a_big_t = group_success_probability(63, 14, 1000, 200, 3, model);
            let a_big_n = group_success_probability(511, 8, 1000, 200, 3, model);
            assert!(a_big_t > a_small);
            assert!(a_big_n > a_small);
            assert!(a_small > 0.0 && a_big_t <= 1.0);
        }
    }

    #[test]
    fn split_aware_dominates_truncation() {
        for t in [10usize, 13, 16] {
            let pess = group_success_probability(
                127,
                t,
                1000,
                200,
                3,
                SuccessModel::PessimisticTruncation,
            );
            let split = group_success_probability(127, t, 1000, 200, 3, SuccessModel::SplitAware);
            assert!(split >= pess, "split-aware must never be below truncation");
        }
    }

    #[test]
    fn lower_bound_behaviour() {
        assert!((overall_success_lower_bound(1.0, 200) - 1.0).abs() < 1e-12);
        assert!(overall_success_lower_bound(0.999, 200) < 1.0);
        // Degenerate: α small makes the bound negative (vacuous), which the
        // optimizer simply treats as "constraint unsatisfied".
        assert!(overall_success_lower_bound(0.9, 200) < 0.0);
    }

    #[test]
    fn table1_qualitative_shape() {
        // Appendix H, Table 1 (d=1000, δ=5, g=200, r=3). The two success
        // models bracket the paper's numbers (see EXPERIMENTS.md); here we
        // check the qualitative pattern the table exhibits under the
        // split-aware model: the headline cell (127, 13) is feasible at
        // p0 = 0.99, n = 63 never reaches 0.99 even for large t, and tiny t
        // at n = 63 is vacuous (the table's 0% cell).
        let cell = |n, t, model| {
            let a = group_success_probability(n, t, 1000, 200, 3, model);
            overall_success_lower_bound(a, 200)
        };
        let headline = cell(127, 13, SuccessModel::SplitAware);
        assert!(
            headline >= 0.99,
            "n=127,t=13 should be feasible, got {headline}"
        );
        let big = cell(255, 13, SuccessModel::SplitAware);
        assert!(big >= headline - 1e-6, "larger n should not hurt");
        let n63_cap = cell(63, 17, SuccessModel::SplitAware);
        assert!(
            n63_cap < 0.99,
            "n=63 saturates below the 0.99 target (paper: 95.8%), got {n63_cap}"
        );
        let tiny = cell(63, 8, SuccessModel::PessimisticTruncation);
        assert!(
            tiny <= 0.0,
            "n=63,t=8 should be vacuous (table shows 0), got {tiny}"
        );
        // Pessimistic truncation at t = 13 is far below the paper's 99.1%,
        // which is why the split-aware model is the default.
        let pess = cell(127, 13, SuccessModel::PessimisticTruncation);
        assert!(pess < 0.9);
    }
}
