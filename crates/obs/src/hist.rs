//! Lock-free log-linear latency histogram.
//!
//! The layout follows the HdrHistogram idea: values below [`SUB_BUCKETS`]
//! land in exact unit-width buckets; above that, each power-of-two octave is
//! split into [`SUB_BUCKETS`] linear sub-buckets, bounding the relative
//! quantile error at `1/SUB_BUCKETS` (~3.1%) while covering the full `u64`
//! range in under 2k buckets (~15 KiB of atomics per histogram).

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
/// Linear sub-buckets per octave (values below this are recorded exactly).
pub const SUB_BUCKETS: u64 = 1 << SUB_BITS;
/// Total bucket count: octaves 5..=63 contribute 32 buckets each on top of
/// the 64 exact buckets covering `0..64`.
const NUM_BUCKETS: usize = ((64 - SUB_BITS as usize) + 1) * SUB_BUCKETS as usize;

/// Map a value to its bucket index.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let octave = msb - SUB_BITS + 1;
        let sub = (v >> (msb - SUB_BITS)) & (SUB_BUCKETS - 1);
        (octave as usize) * SUB_BUCKETS as usize + sub as usize
    }
}

/// Largest value that maps into bucket `index` (what [`Histogram::quantile`]
/// reports for any sample landing there).
#[inline]
fn bucket_upper_bound(index: usize) -> u64 {
    let octave = index as u64 >> SUB_BITS;
    let sub = index as u64 & (SUB_BUCKETS - 1);
    if octave == 0 {
        sub
    } else {
        let width = 1u64 << (octave - 1);
        let lower = (SUB_BUCKETS + sub) << (octave - 1);
        lower + (width - 1)
    }
}

/// A fixed-size, lock-free latency histogram.
///
/// `record` is wait-free (one relaxed `fetch_add` per atomic touched) and safe
/// to call from any number of threads; readers (`quantile`) walk
/// the buckets without stopping writers, so a concurrent read sees *some*
/// recent state, never a torn count.
#[derive(Debug)]
pub struct Histogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Create an empty histogram.
    pub fn new() -> Self {
        let buckets = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        Histogram {
            buckets,
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Relaxed);
        self.count.fetch_add(1, Relaxed);
        self.sum.fetch_add(v, Relaxed);
        self.max.fetch_max(v, Relaxed);
    }

    /// Record a [`Duration`] as whole nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count.load(Relaxed)
    }

    /// Sum of all recorded samples (wrapping on overflow).
    pub fn sum(&self) -> u64 {
        self.sum.load(Relaxed)
    }

    /// Largest recorded sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max.load(Relaxed)
    }

    /// The value at quantile `q` (clamped to `0.0..=1.0`).
    ///
    /// Returns the upper bound of the bucket containing the `ceil(q·count)`-th
    /// smallest sample — exact for values below [`SUB_BUCKETS`]`·2`, within
    /// ~3.1% above. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        let counts: Vec<u64> = self.buckets.iter().map(|b| b.load(Relaxed)).collect();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = ((q * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0u64;
        for (i, &n) in counts.iter().enumerate() {
            seen += n;
            if seen >= target {
                return bucket_upper_bound(i);
            }
        }
        bucket_upper_bound(NUM_BUCKETS - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_roundtrip_bounds() {
        // Every value maps to a bucket whose upper bound is >= the value and
        // within the documented relative error.
        for shift in 0..64 {
            for near in [0u64, 1, 2, 3] {
                let v = (1u64 << shift).saturating_add(near);
                let idx = bucket_index(v);
                let ub = bucket_upper_bound(idx);
                assert!(ub >= v, "v={v} idx={idx} ub={ub}");
                // Relative error bound: ub <= v * (1 + 1/32).
                assert!(ub as u128 <= v as u128 + (v as u128 >> SUB_BITS) + 1);
            }
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
        assert_eq!(bucket_upper_bound(NUM_BUCKETS - 1), u64::MAX);
    }

    #[test]
    fn exact_below_two_octaves() {
        // Values 0..64 occupy unit-width buckets: quantiles are exact.
        let h = Histogram::new();
        for v in 0..64u64 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.5), 31);
        assert_eq!(h.quantile(1.0), 63);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.max(), 63);
        assert_eq!(h.sum(), (0..64).sum::<u64>());
    }
}
