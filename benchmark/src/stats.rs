//! Order statistics over timing samples, and the set fingerprint the
//! correctness checks compare stores, subscribers and ground truth with.

/// The `q`-quantile (0..=1) of `samples` by linear interpolation between
/// order statistics. Returns NaN for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// computes them (the "exclusive" method) — the definition the benchmark
/// contract measures run-to-run spread with.
pub fn quartiles_exclusive(samples: &[f64]) -> (f64, f64) {
    let mut sorted = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len();
    if n < 2 {
        let only = sorted.first().copied().unwrap_or(f64::NAN);
        return (only, only);
    }
    let cut = |i: usize| {
        // Position i·(n+1)/4 on a 1-based scale, clamped into the sample.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    (cut(1), cut(3))
}

/// An order-independent summary of a set of elements: cardinality, wrapping
/// sum and xor. Two sets with equal fingerprints are equal for the purposes
/// of the benchmark's checks (a 2⁻⁶⁴-ish collision aside), and the summary
/// follows adds and removes incrementally, so a subscriber's replayed state
/// is compared against the store without holding a second copy of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Fingerprint {
    pub count: u64,
    pub sum: u64,
    pub xor: u64,
}

impl Fingerprint {
    pub fn of(elements: impl IntoIterator<Item = u64>) -> Self {
        let mut fp = Fingerprint::default();
        for e in elements {
            fp.add(e);
        }
        fp
    }

    pub fn add(&mut self, e: u64) {
        self.count = self.count.wrapping_add(1);
        self.sum = self.sum.wrapping_add(mix(e));
        self.xor ^= e;
    }

    pub fn remove(&mut self, e: u64) {
        self.count = self.count.wrapping_sub(1);
        self.sum = self.sum.wrapping_sub(mix(e));
        self.xor ^= e;
    }
}

/// splitmix64 finalizer: spreads 32-bit elements over the whole word so the
/// wrapping sum is not a near-linear function of the set.
fn mix(e: u64) -> u64 {
    let mut x = e.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles_exclusive(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles_exclusive(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 4.5));
        assert_eq!(median(&[3.0, 1.0, 4.0, 1.0, 5.0]), 3.0);
        assert_eq!(quantile(&[0.0, 10.0], 0.25), 2.5);
    }

    #[test]
    fn fingerprint_follows_adds_and_removes() {
        let mut fp = Fingerprint::of([5u64, 9, 77]);
        fp.remove(9);
        fp.add(1234);
        assert_eq!(fp, Fingerprint::of([1234u64, 77, 5]));
        assert_ne!(fp, Fingerprint::of([1234u64, 77, 6]));
    }
}
