//! The Markov chain of §4 with the Appendix E transition-matrix computation.
//!
//! State `i` of the chain is "there are `i` unreconciled (bad) distinct
//! elements at the start of a round". One round throws those `i` balls
//! uniformly into the `n` bins (subset pairs) using a fresh hash function;
//! balls that land alone are reconciled, balls that collide remain bad. The
//! transition probability `M(i, j)` is therefore the probability that
//! throwing `i` balls into `n` bins leaves exactly `j` balls in multi-ball
//! bins.
//!
//! Appendix E computes `M(i, j)` by splitting state `j` into sub-states
//! `(j, k)` — "`j` bad balls occupying exactly `k` bad bins" — and running a
//! dynamic program over the balls thrown one at a time:
//!
//! ```text
//!   M̃(i, j, k) = (i−j+1)/n · M̃(i−1, j−2, k−1)        (ball joins a good bin)
//!              +        k/n · M̃(i−1, j−1, k)          (ball joins a bad bin)
//!              + (1 − (i−1−j+k)/n) · M̃(i−1, j, k)     (ball opens a new bin)
//! ```
//!
//! with `M̃(0, 0, 0) = 1`.

/// The `(t+1) × (t+1)` transition matrix of the PBS Markov chain for a given
/// bitmap length `n` and BCH capacity `t` (states above `t` would trigger a
/// decoding failure and are excluded from the model, per Appendix D).
#[derive(Debug, Clone)]
pub struct TransitionMatrix {
    t: usize,
    /// Row-major `(t+1) × (t+1)` matrix.
    data: Vec<f64>,
}

impl TransitionMatrix {
    /// Build the transition matrix for `n` bins and maximum state `t`.
    ///
    /// Cost is `O(t³)` floating-point operations (Appendix E) and `O(t²)`
    /// memory, independent of `n`. Row `i` depends only on `n` and `i`, so
    /// the matrix for a smaller `t` is the top-left block of this one.
    pub fn build(n: usize, t: usize) -> Self {
        assert!(n >= 1, "need at least one bin");
        assert!(t >= 1, "need at least one state");
        let nf = n as f64;
        let dim = t + 1;

        // prev[j·dim + k] / cur[..]: probability of j bad balls in k bad
        // bins after i − 1 / i throws (j, k <= i <= t). Layer i reads layer
        // i − 1 only, so two layers are all that is ever live.
        let mut prev = vec![0.0f64; dim * dim];
        let mut cur = vec![0.0f64; dim * dim];
        prev[0] = 1.0;
        let mut data = vec![0.0f64; dim * dim];
        data[0] = 1.0;
        for i in 1..=t {
            for j in 0..=i {
                let mut total = 0.0;
                for k in 0..=j {
                    let mut p = 0.0;
                    // Case 1: the i-th ball falls into a previously good bin.
                    // Previous state (i-1, j-2, k-1); good bins there = (i-1)-(j-2) = i-j+1.
                    if j >= 2 && k >= 1 {
                        let good = (i as f64) - (j as f64) + 1.0;
                        if good > 0.0 {
                            p += good / nf * prev[(j - 2) * dim + k - 1];
                        }
                    }
                    // Case 2: the i-th ball falls into one of the k existing bad bins.
                    if j >= 1 {
                        p += (k as f64) / nf * prev[(j - 1) * dim + k];
                    }
                    // Case 3: the i-th ball falls into an empty bin.
                    {
                        let occupied = (i as f64 - 1.0) - (j as f64) + (k as f64);
                        let frac = 1.0 - occupied / nf;
                        if frac > 0.0 {
                            p += frac * prev[j * dim + k];
                        }
                    }
                    cur[j * dim + k] = p;
                    total += p;
                }
                data[i * dim + j] = total;
            }
            std::mem::swap(&mut prev, &mut cur);
        }
        TransitionMatrix { t, data }
    }

    /// Matrix dimension (`t + 1`).
    pub(crate) fn dim(&self) -> usize {
        self.t + 1
    }

    /// Entry `M(i, j)`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.dim() + j]
    }

    /// The single-group success probabilities `Pr[x →r 0]` for every starting
    /// state `x = 0..=t` (Formula (2)): entry `x` of the returned vector is
    /// the probability that `x` bad balls are fully reconciled within `r`
    /// rounds — column 0 of `M^r`, taken as `r` matrix–vector products
    /// (`O(r · t²)`). `M` is lower triangular, so entry `x` does not depend
    /// on the `t` the matrix was built for.
    pub fn success_probabilities(&self, r: u32) -> Vec<f64> {
        let mut reach = vec![0.0f64; self.dim()];
        reach[0] = 1.0;
        for _ in 0..r {
            reach = self.step(&reach);
        }
        reach
    }

    /// One round of the chain applied to a value per state: `(M·v)[x] =
    /// E[v(state after the round) | x]`.
    pub(crate) fn step(&self, v: &[f64]) -> Vec<f64> {
        (0..self.dim())
            .map(|x| (0..=x).map(|j| self.get(x, j) * v[j]).sum())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force M(i, j) by enumerating all n^i throws (tiny cases only).
    fn brute_force(n: usize, i: usize, j: usize) -> f64 {
        let total = (n as u64).pow(i as u32);
        let mut hits = 0u64;
        for code in 0..total {
            let mut c = code;
            let mut bins = vec![0u32; n];
            for _ in 0..i {
                bins[(c % n as u64) as usize] += 1;
                c /= n as u64;
            }
            let bad: u32 = bins.iter().filter(|&&b| b >= 2).sum();
            if bad as usize == j {
                hits += 1;
            }
        }
        hits as f64 / total as f64
    }

    #[test]
    fn matches_brute_force_enumeration() {
        for &(n, t) in &[(4usize, 4usize), (6, 4), (9, 3)] {
            let m = TransitionMatrix::build(n, t);
            for i in 0..=t {
                for j in 0..=t {
                    let expect = brute_force(n, i, j);
                    let got = m.get(i, j);
                    assert!(
                        (expect - got).abs() < 1e-9,
                        "n={n} i={i} j={j}: expected {expect}, got {got}"
                    );
                }
            }
        }
    }

    #[test]
    fn rows_sum_to_one() {
        let m = TransitionMatrix::build(127, 13);
        for i in 0..=13 {
            let sum: f64 = (0..=13).map(|j| m.get(i, j)).sum();
            assert!((sum - 1.0).abs() < 1e-9, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn state_one_always_succeeds_and_state_zero_is_absorbing() {
        let m = TransitionMatrix::build(255, 10);
        assert!((m.get(1, 0) - 1.0).abs() < 1e-12);
        assert!((m.get(0, 0) - 1.0).abs() < 1e-12);
        assert!(m.get(0, 3).abs() < 1e-12);
        // A single bad ball can never remain bad alone.
        assert!(m.get(3, 1).abs() < 1e-12);
    }

    #[test]
    fn ideal_case_matches_closed_form() {
        // M(d, 0) = ∏_{k=1}^{d-1} (1 - k/n): the §2.2.1 ideal-case probability.
        let n = 255usize;
        let d = 5usize;
        let m = TransitionMatrix::build(n, d);
        let closed: f64 = (1..d).map(|k| 1.0 - k as f64 / n as f64).product();
        assert!((m.get(d, 0) - closed).abs() < 1e-12);
        assert!(
            (closed - 0.96).abs() < 0.005,
            "paper quotes ~0.96, got {closed}"
        );
    }

    #[test]
    fn success_probability_increases_with_rounds() {
        let m = TransitionMatrix::build(127, 13);
        let r1 = m.success_probabilities(1);
        let r2 = m.success_probabilities(2);
        let r3 = m.success_probabilities(3);
        for x in 1..=13 {
            assert!(r2[x] >= r1[x]);
            assert!(r3[x] >= r2[x]);
            assert!(r3[x] <= 1.0 + 1e-12);
        }
        // After 3 rounds, success from a handful of bad balls is near-certain.
        assert!(r3[5] > 0.999);
    }
}
