//! Histogram correctness suite: quantiles against a sorted reference on
//! deterministic and xorshift-seeded inputs, bucket-boundary edge cases,
//! and lossless concurrent recording.

use obs::{Histogram, SUB_BITS, SUB_BUCKETS};
use std::sync::Arc;

/// Reference quantile: the `ceil(q*n)`-th smallest sample of a sorted slice.
fn reference_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[target - 1]
}

/// Maximum value the histogram may report for a sample `v`: the upper bound
/// of its log-linear bucket, i.e. within one sub-bucket width above `v`.
fn allowed_upper(v: u64) -> u64 {
    if v < 2 * SUB_BUCKETS {
        v
    } else {
        v.saturating_add(v >> SUB_BITS)
    }
}

fn check_against_reference(samples: &[u64]) {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    for q in [0.0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
        let got = h.quantile(q);
        let want = reference_quantile(&sorted, q);
        assert!(
            got >= want && got <= allowed_upper(want),
            "q={q}: got {got}, reference {want} (allowed up to {})",
            allowed_upper(want)
        );
    }
    assert_eq!(h.count(), samples.len() as u64);
    assert_eq!(
        h.sum(),
        samples
            .iter()
            .copied()
            .reduce(|a, b| a.wrapping_add(b))
            .unwrap_or(0)
    );
    assert_eq!(h.max(), sorted.last().copied().unwrap_or(0));
}

#[test]
fn quantiles_match_sorted_reference_deterministic() {
    // Uniform ramp, small exact range.
    check_against_reference(&(0..1000u64).collect::<Vec<_>>());
    // Heavily skewed: many tiny values, a few huge outliers.
    let mut skewed: Vec<u64> = vec![3; 10_000];
    skewed.extend([1_000_000, 2_000_000, u64::MAX / 2]);
    check_against_reference(&skewed);
    // Constant stream.
    check_against_reference(&vec![77u64; 500]);
    // Single sample.
    check_against_reference(&[123_456_789]);
}

#[test]
fn quantiles_match_sorted_reference_xorshift() {
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // A few magnitude regimes: full-range, microsecond-scale, sub-octave.
    for modulus in [u64::MAX, 10_000_000, 1_000, 64] {
        let samples: Vec<u64> = (0..20_000).map(|_| next() % modulus).collect();
        check_against_reference(&samples);
    }
}

#[test]
fn bucket_boundaries_are_tight() {
    // Values below two octaves (0..2*SUB_BUCKETS) are recorded exactly.
    for v in 0..(2 * SUB_BUCKETS) {
        let h = Histogram::new();
        h.record(v);
        assert_eq!(h.quantile(0.5), v, "sub-bucket value {v} must be exact");
    }
    // Powers of two are bucket lower bounds: reported value stays within one
    // sub-bucket width even at the extremes.
    for shift in SUB_BITS + 1..64 {
        for v in [1u64 << shift, (1u64 << shift) - 1, (1u64 << shift) + 1] {
            let h = Histogram::new();
            h.record(v);
            let got = h.quantile(1.0);
            assert!(got >= v && got <= allowed_upper(v), "v={v} got={got}");
        }
    }
    // The top of the range is representable.
    let h = Histogram::new();
    h.record(u64::MAX);
    assert_eq!(h.quantile(1.0), u64::MAX);
    assert_eq!(h.max(), u64::MAX);
}

#[test]
fn concurrent_record_loses_no_counts() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 50_000;
    let h = Arc::new(Histogram::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let h = Arc::clone(&h);
            std::thread::spawn(move || {
                let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ t;
                for _ in 0..PER_THREAD {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    h.record(state % 1_000_000);
                }
            })
        })
        .collect();
    for j in handles {
        j.join().unwrap();
    }
    assert_eq!(h.count(), THREADS * PER_THREAD);
    // The bucket walk must agree with the aggregate count: quantile(1.0)
    // internally sums every bucket, so a mismatch would surface as a panic or
    // an impossible value here.
    assert!(h.quantile(1.0) >= h.quantile(0.5));
    assert!(h.max() < 1_000_000 + (1_000_000 >> SUB_BITS));
}
