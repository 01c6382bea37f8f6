//! The analytical framework of the PBS paper (§4, §5, Appendices D–H).
//!
//! The framework models one group pair's multi-round reconciliation as a
//! Markov chain over the number of still-unreconciled ("bad") distinct
//! elements. It provides, purely analytically (no simulation):
//!
//! * the transition matrix `M` computed with the Appendix E dynamic program
//!   ([`TransitionMatrix`]),
//! * the single-group success probability `Pr[x →r 0] = (M^r)(x, 0)`
//!   (Formula (2)), with a group over the BCH capacity followed through its
//!   §3.2 three-way split,
//! * the per-group-pair success probability
//!   `α(n, t) = Σ_x Binom(d, 1/g)(x) · Pr[x →r 0]` and the rigorous overall
//!   lower bound `Pr[R ≤ r] ≥ 1 − 2(1 − α^g)` (Appendix F),
//! * the `(n, t)` optimizer that minimizes communication subject to a target
//!   success probability (§5.1, Appendix H / Table 1),
//! * the expected number of distinct elements reconciled per round
//!   (§5.3 / Appendix G),
//! * [`predict`]: what a plan should measure — the round CDF, the round
//!   shares and the mean Formula (1) bits — and [`interval`]'s Wilson and
//!   normal intervals that hold a seeded measurement to it, and
//! * the §2 closed-form probabilities (ideal case, type I/II exceptions)
//!   used throughout the paper's examples.

#![warn(missing_docs)]

pub mod interval;
mod markov;
mod optimize;
mod probability;
mod table;

pub use markov::TransitionMatrix;
pub use optimize::{
    group_count, optimize_parameters, sweep_parameter_grid, GridCell, OptimalParams,
};
pub use probability::{binomial_pmf, exception_probabilities, ExceptionProbabilities};

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
/// summing to 1. As in Appendix G, a group over the capacity `t` counts as
/// never reconciled.
pub fn expected_round_shares(n: usize, t: usize, d: usize, g: usize, rounds: u32) -> Vec<f64> {
    let matrix = TransitionMatrix::build(n, t);
    let p = 1.0 / g as f64;
    // left[x] = E[bad balls left after k rounds | x at the start]
    // = (M^k·y)[x] with y[j] = j; a group of x reconciles x − left[x] of
    // them within k rounds (Equation (6)).
    let mut left: Vec<f64> = (0..=t).map(|j| j as f64).collect();
    let per_group = d as f64 / g as f64;
    let mut shares = Vec::with_capacity(rounds as usize + 1);
    let mut prev = 0.0;
    for _ in 0..rounds {
        left = matrix.step(&left);
        let within = (1..=t.min(d))
            .map(|x| binomial_pmf(d, x, p) * (x as f64 - left[x]))
            .sum::<f64>()
            / per_group;
        shares.push((within - prev).max(0.0));
        prev = within;
    }
    shares.push((1.0 - prev).max(0.0));
    shares
}

/// What the analysis predicts a plan `(n, t)` measures at a difference of
/// `d` spread over `g` groups, round by round.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// `P(R ≤ k)` for `k = 1..=r`: every group is done within `k` rounds,
    /// the group loads one multinomial draw of the `d` differences
    /// (Appendix F's `α_k^g` takes them as independent binomials).
    pub done_within: Vec<f64>,
    /// [`expected_round_shares`]: the share of `d` reconciled in each round
    /// `1..=r`, then the residual (Appendix G).
    pub round_shares: Vec<f64>,
    /// The mean Formula (1) bits of a run that goes on until every group
    /// verified: sketches, reported bins and checksums, a group over the
    /// capacity split three ways after its first decode (the scheme's
    /// two-bit flag for a failed decode, which Formula (1) does not charge,
    /// is left out).
    pub mean_bits: f64,
}

/// The [`Prediction`] for the plan `(n, t)` at a difference of `d` in `g`
/// groups, over the first `r` rounds, with `universe_bits = log|U|`.
pub fn predict(n: usize, t: usize, d: usize, g: usize, r: u32, universe_bits: u32) -> Prediction {
    let load = table::GroupLoad::new(d, g, t);
    let done_within = (1..=r)
        .map(|k| load.all_groups_within(&table::success_vector(n, t, k), g))
        .collect();
    Prediction {
        done_within,
        round_shares: expected_round_shares(n, t, d, g, r),
        mean_bits: g as f64 * load.mean(&table::bits_per_group(n, t, universe_bits)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Per-group success probability α(n, t) (Appendix F) of one cell,
    /// standalone: what each cell of the planner's table must equal.
    fn group_success_probability(n: usize, t: usize, d: usize, g: usize, r: u32) -> f64 {
        table::GroupLoad::new(d, g, t).alpha(t, &table::success_vector(n, t, r))
    }

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
        let a_small = group_success_probability(63, 8, 1000, 200, 3);
        let a_big_t = group_success_probability(63, 14, 1000, 200, 3);
        let a_big_n = group_success_probability(511, 8, 1000, 200, 3);
        assert!(a_big_t > a_small);
        assert!(a_big_n > a_small);
        assert!(a_small > 0.0 && a_big_t <= 1.0);
    }

    #[test]
    fn following_the_split_only_adds_to_alpha() {
        // At r = 1 a group over the capacity fails; from r = 2 on its split
        // may finish in the rounds left.
        for t in [10usize, 13, 16] {
            let chain = TransitionMatrix::build(127, t).success_probabilities(3);
            let truncated = table::GroupLoad::new(1000, 200, t).alpha(t, &chain);
            let split = group_success_probability(127, t, 1000, 200, 3);
            assert!(split > truncated, "t = {t}");
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
        // Appendix H, Table 1 (d=1000, δ=5, g=200, r=3): the headline cell
        // (127, 13) is feasible at p0 = 0.99, a larger n does not hurt, and
        // n = 63 never reaches 0.99 even for large t.
        let cell = |n, t| {
            let a = group_success_probability(n, t, 1000, 200, 3);
            overall_success_lower_bound(a, 200)
        };
        let headline = cell(127, 13);
        assert!(
            headline >= 0.99,
            "n=127,t=13 should be feasible, got {headline}"
        );
        let big = cell(255, 13);
        assert!(big >= headline - 1e-6, "larger n should not hurt");
        let n63_cap = cell(63, 17);
        assert!(
            n63_cap < 0.99,
            "n=63 saturates below the 0.99 target (paper: 95.8%), got {n63_cap}"
        );
    }

    /// The round CDF is the multinomial one: at g = 1 the one group holds
    /// all d; at g = 2 the loads are x and d − x.
    #[test]
    fn done_within_sums_over_the_multinomial_loads() {
        let (n, t) = (63, 8);
        for k in 1..=3u32 {
            let s = table::success_vector(n, t, k);
            let one = predict(n, t, 6, 1, k, 32).done_within[k as usize - 1];
            assert!((one - s[6]).abs() < 1e-12, "g = 1, k = {k}");
            let at = |x: usize| s.get(x).copied().unwrap_or(0.0);
            let exact: f64 = (0..=10)
                .map(|x| binomial_pmf(10, x, 0.5) * at(x) * at(10 - x))
                .sum();
            let two = predict(n, t, 10, 2, k, 32).done_within[k as usize - 1];
            assert!(
                (two - exact).abs() < 1e-12,
                "g = 2, k = {k}: {two} vs {exact}"
            );
        }
    }

    #[test]
    fn a_prediction_is_a_cdf_beside_formula_one() {
        let (n, t, d, g) = (127usize, 11usize, 1000usize, 200usize);
        let p = predict(n, t, d, g, 3, 32);
        assert!(p.done_within.windows(2).all(|w| w[0] < w[1]));
        assert!(p.done_within[2] > 0.99 && p.done_within[2] <= 1.0);
        // Close to Appendix F's α^g, never equal to it.
        let alpha = group_success_probability(n, t, d, g, 3).powi(g as i32);
        assert!((p.done_within[2] - alpha).abs() < 1e-3);
        assert_eq!(p.round_shares, expected_round_shares(n, t, d, g, 3));
        // Formula (1) over the first round alone: g·(t·log n + log|U|) +
        // d·(log n + log|U|); the later rounds' sketches add a few percent.
        let first = (g * (t * 7 + 32) + d * (7 + 32)) as f64;
        assert!(
            p.mean_bits > first && p.mean_bits < 1.1 * first,
            "{}",
            p.mean_bits
        );
    }
}
