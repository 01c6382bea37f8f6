//! Confidence intervals that hold a seeded measurement to a prediction:
//! Wilson's (1927) score interval on a rate, the normal interval on a mean,
//! and the Bonferroni split of one family-wise confidence over many
//! intervals. A prediction outside its interval is a finding; an interval
//! is never widened to admit one.

/// The one family-wise confidence every interval of this repository is
/// stated at: a family of `k` intervals takes each at [`bonferroni_z`]`(
/// FAMILY_CONFIDENCE, k)`.
pub const FAMILY_CONFIDENCE: f64 = 0.99;

/// A closed interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower end.
    pub lo: f64,
    /// Upper end.
    pub hi: f64,
}

impl Interval {
    /// Whether `v` lies in the interval, ends included.
    pub fn contains(&self, v: f64) -> bool {
        self.lo <= v && v <= self.hi
    }
}

/// The two-sided normal quantile that gives each of `cells` intervals its
/// Bonferroni share of one family-wise `confidence`: every interval is
/// taken at `1 − (1 − confidence) / cells`, so all of them hold together
/// with probability at least `confidence`.
pub fn bonferroni_z(confidence: f64, cells: usize) -> f64 {
    let alpha = (1.0 - confidence) / cells.max(1) as f64;
    normal_quantile(1.0 - alpha / 2.0)
}

/// Wilson's score interval for a rate of `successes` in `trials` at the
/// two-sided quantile `z`. Unlike the Wald interval it stays inside
/// `[0, 1]` and keeps its width at a rate of 0 or 1.
pub fn wilson(successes: u64, trials: u64, z: f64) -> Interval {
    if trials == 0 {
        return Interval { lo: 0.0, hi: 1.0 };
    }
    let (n, z2) = (trials as f64, z * z);
    let p = successes as f64 / n;
    let scale = 1.0 + z2 / n;
    let centre = (p + z2 / (2.0 * n)) / scale;
    let half = z / scale * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    Interval {
        lo: (centre - half).max(0.0),
        hi: (centre + half).min(1.0),
    }
}

/// The normal interval `mean ± z·sd/√trials` for the mean of `trials`
/// samples whose sample standard deviation is `sd`.
pub fn normal_mean(mean: f64, sd: f64, trials: u64, z: f64) -> Interval {
    let half = z * sd / (trials.max(1) as f64).sqrt();
    Interval {
        lo: mean - half,
        hi: mean + half,
    }
}

/// `Φ⁻¹(p)` for `p` in `[½, 1)`, by bisection on the upper tail
/// `1 − Φ(z) = erfc(z/√2)/2`, with Numerical Recipes' Chebyshev fit of
/// `erfc` (relative error below 1.2·10⁻⁷).
fn normal_quantile(p: f64) -> f64 {
    const C: [f64; 10] = [
        -1.265_512_23,
        1.000_023_68,
        0.374_091_96,
        0.096_784_18,
        -0.186_288_06,
        0.278_868_07,
        -1.135_203_98,
        1.488_515_87,
        -0.822_152_23,
        0.170_872_77,
    ];
    let tail = |z: f64| {
        let x = z / std::f64::consts::SQRT_2;
        let t = 1.0 / (1.0 + 0.5 * x);
        0.5 * t * (C.iter().rev().fold(0.0, |acc, c| acc * t + c) - x * x).exp()
    };
    let (mut lo, mut hi) = (0.0, 40.0);
    for _ in 0..64 {
        let mid = (lo + hi) / 2.0;
        (lo, hi) = if tail(mid) > 1.0 - p {
            (mid, hi)
        } else {
            (lo, mid)
        };
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_match_the_table() {
        for (p, z) in [
            (0.5, 0.0),
            (0.975, 1.959_963_985),
            (0.995, 2.575_829_304),
            (0.999_95, 3.890_591_886),
        ] {
            assert!((normal_quantile(p) - z).abs() < 1e-6, "Φ⁻¹({p})");
        }
        assert!((bonferroni_z(0.95, 1) - 1.959_963_985).abs() < 1e-6);
        assert!((bonferroni_z(0.99, 100) - 3.890_591_886).abs() < 1e-6);
    }

    #[test]
    fn wilson_matches_its_closed_form_and_stays_in_the_unit_interval() {
        // 8 of 10 at z = 1.96: the textbook [0.4902, 0.9433].
        let i = wilson(8, 10, 1.959_963_985);
        assert!((i.lo - 0.4902).abs() < 1e-4 && (i.hi - 0.9433).abs() < 1e-4);
        // A rate of 1 keeps a width: 1000 of 1000 at z = 3.89 reads ≥ 0.985.
        let all = wilson(1000, 1000, 3.89);
        assert_eq!(all.hi, 1.0);
        assert!(all.lo > 0.984 && all.lo < 0.986 && all.contains(0.99));
        assert_eq!(wilson(0, 0, 3.0), Interval { lo: 0.0, hi: 1.0 });
        assert_eq!(wilson(0, 50, 3.0).lo, 0.0);
    }

    #[test]
    fn the_normal_interval_shrinks_with_the_square_root_of_the_trials() {
        let wide = normal_mean(10.0, 2.0, 100, 2.0);
        assert_eq!(wide, Interval { lo: 9.6, hi: 10.4 });
        let narrow = normal_mean(10.0, 2.0, 400, 2.0);
        assert!((narrow.hi - narrow.lo - 0.4).abs() < 1e-12);
    }
}
