//! Closed-form probability helpers: binomial pmf (in log space, so `d` up to
//! 10^5 is fine) and the §2.2.1 / §2.3 balls-into-bins event probabilities
//! computed by exact enumeration of integer partitions.

use std::sync::OnceLock;

/// Below this `n`, `ln n!` is the exact running sum of logarithms.
const EXACT_LN_FACTORIALS: usize = 256;

/// Natural log of `n!`, exact summation for small `n` and a Stirling series
/// for large `n` (absolute error far below what any probability here needs).
pub(crate) fn ln_factorial(n: usize) -> f64 {
    // The planner takes a few thousand small-`n` pmfs per table; summing
    // up to 255 logarithms for each was most of its cost.
    static EXACT: OnceLock<[f64; EXACT_LN_FACTORIALS]> = OnceLock::new();
    if n < EXACT_LN_FACTORIALS {
        return EXACT.get_or_init(|| {
            let mut table = [0.0; EXACT_LN_FACTORIALS];
            for k in 2..EXACT_LN_FACTORIALS {
                table[k] = table[k - 1] + (k as f64).ln();
            }
            table
        })[n];
    }
    let x = n as f64;
    // Stirling series with the 1/(12n) and 1/(360n^3) correction terms.
    x * x.ln() - x + 0.5 * (2.0 * std::f64::consts::PI * x).ln() + 1.0 / (12.0 * x)
        - 1.0 / (360.0 * x * x * x)
}

/// Binomial probability `Pr[X = k]` for `X ~ Binomial(n, p)`.
pub fn binomial_pmf(n: usize, k: usize, p: f64) -> f64 {
    if k > n {
        return 0.0;
    }
    if p <= 0.0 {
        return if k == 0 { 1.0 } else { 0.0 };
    }
    if p >= 1.0 {
        return if k == n { 1.0 } else { 0.0 };
    }
    let ln_choose = ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k);
    (ln_choose + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// The exception probabilities of §2.3 for `d` distinct elements hashed into
/// `n` subset pairs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExceptionProbabilities {
    /// Probability of the ideal case (every bin holds at most one ball).
    pub ideal: f64,
    /// Probability that at least one bin holds a nonzero *even* number of
    /// balls (a type (I) exception, invisible to the parity bitmap).
    pub type_i: f64,
    /// Probability that at least one bin holds an *odd* number ≥ 3 of balls
    /// (a type (II) exception, producing a fake distinct element).
    pub type_ii: f64,
    /// Probability that a type (II) exception occurs *and* the resulting fake
    /// element passes the sub-universe check of Procedure 3 (an extra factor
    /// of `1/n`).
    pub type_ii_undetected: f64,
}

/// Exactly enumerate the occupancy-profile distribution of `d` balls in `n`
/// bins and classify each profile. Suitable for the small `d` (≤ ~40) the
/// paper's per-group analysis concerns; cost grows with the number of integer
/// partitions of `d`.
pub fn exception_probabilities(d: usize, n: usize) -> ExceptionProbabilities {
    assert!(
        d <= 60,
        "exact partition enumeration is only intended for small d"
    );
    assert!(
        n >= d.max(1),
        "need at least d bins for the enumeration to make sense"
    );

    let mut ideal = 0.0;
    let mut type_i = 0.0;
    let mut type_ii = 0.0;

    // Enumerate integer partitions of d (each partition is an occupancy
    // profile of the non-empty bins, parts in non-increasing order).
    let mut partition: Vec<usize> = Vec::new();
    enumerate_partitions(d, d, &mut partition, &mut |parts| {
        let p = profile_probability(parts, n);
        if parts.iter().all(|&c| c == 1) {
            ideal += p;
        }
        if parts.iter().any(|&c| c >= 2 && c % 2 == 0) {
            type_i += p;
        }
        if parts.iter().any(|&c| c >= 3 && c % 2 == 1) {
            type_ii += p;
        }
    });

    ExceptionProbabilities {
        ideal,
        type_i,
        type_ii,
        type_ii_undetected: type_ii / n as f64,
    }
}

/// Probability that `d = Σ parts` balls thrown uniformly into `n` bins
/// realize exactly the occupancy multiset `parts` (over any choice of bins).
fn profile_probability(parts: &[usize], n: usize) -> f64 {
    let d: usize = parts.iter().sum();
    let k = parts.len();
    // ways to assign balls to the profile: d! / Π c_i!   (ordered bins)
    // ways to choose which bins: n·(n−1)·…·(n−k+1) / Π (multiplicity of equal part sizes)!
    let mut ln_p = ln_factorial(d);
    for &c in parts {
        ln_p -= ln_factorial(c);
    }
    // falling factorial (n)_k
    for i in 0..k {
        ln_p += ((n - i) as f64).ln();
    }
    // divide by multiplicities of repeated part sizes
    let mut i = 0;
    while i < k {
        let mut j = i;
        while j < k && parts[j] == parts[i] {
            j += 1;
        }
        ln_p -= ln_factorial(j - i);
        i = j;
    }
    // divide by n^d
    ln_p -= d as f64 * (n as f64).ln();
    ln_p.exp()
}

/// Enumerate all partitions of `remaining` with parts ≤ `max_part`, calling
/// `visit` with each complete partition (parts in non-increasing order).
fn enumerate_partitions(
    remaining: usize,
    max_part: usize,
    current: &mut Vec<usize>,
    visit: &mut impl FnMut(&[usize]),
) {
    if remaining == 0 {
        visit(current);
        return;
    }
    let upper = remaining.min(max_part);
    for part in (1..=upper).rev() {
        current.push(part);
        enumerate_partitions(remaining - part, part, current, visit);
        current.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binomial_pmf_sums_to_one() {
        for &(n, p) in &[(10usize, 0.3), (1000, 0.005), (100_000, 1.0 / 200.0)] {
            // Sum a window wide enough to capture essentially all the mass.
            let mean = (n as f64 * p).round() as usize;
            let lo = mean.saturating_sub(2000);
            let hi = (mean + 2000).min(n);
            let sum: f64 = (lo..=hi).map(|k| binomial_pmf(n, k, p)).sum();
            assert!((sum - 1.0).abs() < 1e-6, "n={n}, p={p}: sum {sum}");
        }
    }

    #[test]
    fn binomial_pmf_known_values() {
        assert!((binomial_pmf(4, 2, 0.5) - 0.375).abs() < 1e-12);
        assert!((binomial_pmf(10, 0, 0.1) - 0.9f64.powi(10)).abs() < 1e-12);
        assert_eq!(binomial_pmf(5, 6, 0.5), 0.0);
        assert_eq!(binomial_pmf(5, 5, 1.0), 1.0);
        assert_eq!(binomial_pmf(5, 0, 0.0), 1.0);
    }

    #[test]
    fn ln_factorial_stirling_consistency() {
        // The exact and Stirling branches must agree near the switchover.
        let exact: f64 = (2..=300usize).map(|k| (k as f64).ln()).sum();
        assert!((ln_factorial(300) - exact).abs() < 1e-6);
    }

    #[test]
    fn exception_probabilities_match_paper_examples() {
        // §2.3: d = 5, n = 255: type (I) ≈ 0.04, type (II) ≈ 1.52e-4,
        // undetected type (II) ≈ 6e-7.
        let e = exception_probabilities(5, 255);
        assert!((e.ideal - 0.9613).abs() < 0.002, "ideal {}", e.ideal);
        assert!((e.type_i - 0.04).abs() < 0.005, "type I {}", e.type_i);
        assert!((e.type_ii - 1.52e-4).abs() < 2e-5, "type II {}", e.type_ii);
        assert!(
            (e.type_ii_undetected - 6e-7).abs() < 2e-7,
            "undetected {}",
            e.type_ii_undetected
        );
    }

    #[test]
    fn probabilities_partition_the_space() {
        // ideal + P(some collision) = 1; collisions are covered by type I or II.
        let e = exception_probabilities(6, 127);
        assert!(e.ideal < 1.0);
        assert!(e.type_i + e.type_ii >= 1.0 - e.ideal - 1e-9);
        // Union bound sanity: each exception probability below the non-ideal mass.
        assert!(e.type_i <= 1.0 - e.ideal + 1e-12);
        assert!(e.type_ii <= 1.0 - e.ideal + 1e-12);
    }

    #[test]
    fn partition_enumeration_counts() {
        // Number of integer partitions of 7 is 15.
        let mut count = 0;
        let mut buf = Vec::new();
        enumerate_partitions(7, 7, &mut buf, &mut |_| count += 1);
        assert_eq!(count, 15);
    }

    #[test]
    fn profile_probabilities_sum_to_one() {
        let d = 6usize;
        let n = 50usize;
        let mut total = 0.0;
        let mut buf = Vec::new();
        enumerate_partitions(d, d, &mut buf, &mut |parts| {
            total += profile_probability(parts, n);
        });
        assert!((total - 1.0).abs() < 1e-9, "total {total}");
    }
}
