//! Property-based tests for the BCH syndrome-sketch codec.

use bch::{BchCodec, Sketch};
use proptest::collection::hash_set;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any difference set of size <= t decodes exactly, for both table-backed
    /// small fields and carry-less large fields.
    #[test]
    fn roundtrip_small_field(diff in hash_set(1u64..=255, 0..=12)) {
        let codec = BchCodec::new(8, 12);
        let sketch = codec.sketch_set(diff.iter().copied());
        let mut out = codec.decode(&sketch).unwrap();
        out.sort_unstable();
        let mut expect: Vec<u64> = diff.into_iter().collect();
        expect.sort_unstable();
        prop_assert_eq!(out, expect);
    }

    /// Sketches of two sets combine into the sketch of their symmetric
    /// difference (the linearity PBS and PinSketch both rely on).
    #[test]
    fn combination_equals_difference_sketch(
        a in hash_set(1u64..=2047, 0..=30),
        b in hash_set(1u64..=2047, 0..=30),
    ) {
        let codec = BchCodec::new(11, 30);
        let sa = codec.sketch_set(a.iter().copied());
        let sb = codec.sketch_set(b.iter().copied());
        let mut combined = sa;
        combined.combine(&sb);
        let direct = codec.sketch_set(a.symmetric_difference(&b).copied());
        prop_assert_eq!(combined, direct);
    }

    /// Over-capacity differences are reported as errors, never as a wrong
    /// but "successful" decode.
    #[test]
    fn over_capacity_never_decodes_silently(extra in 1usize..20, seed in any::<u64>()) {
        let t = 6usize;
        let codec = BchCodec::new(11, t);
        // Build t + extra distinct elements deterministically from the seed.
        let mut elements = std::collections::HashSet::new();
        let mut x = seed;
        while elements.len() < t + extra {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let e = (x % 2047) + 1;
            elements.insert(e);
        }
        let sketch = codec.sketch_set(elements.iter().copied());
        match codec.decode(&sketch) {
            // Decoding may fail (expected)...
            Err(_) => {}
            // ...or succeed only if it returns exactly the sketched set,
            // which is impossible here because |set| > t; catching that
            // would indicate the verification step is broken.
            Ok(out) => prop_assert!(out.len() <= t, "decoder claimed {} elements", out.len()),
        }
    }

    /// A sketch survives being taken apart into its raw syndromes, for
    /// every field width.
    #[test]
    fn syndromes_roundtrip(m in 3u32..=13, t in 1usize..=20, fill in any::<u64>()) {
        let codec = BchCodec::new(m, t);
        let order = 1u64 << m;
        let mut sketch = codec.empty_sketch();
        let mut x = fill;
        for _ in 0..t.min(5) {
            x = x.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
            let e = (x % (order - 1)) + 1;
            sketch.add(e, codec.field());
        }
        let back = Sketch::from_syndromes(sketch.syndromes().to_vec(), m).unwrap();
        prop_assert_eq!(back, sketch);
    }
}

/// Deterministic regression: decoding exactly at capacity for every field
/// degree used by the PBS optimizer (n = 63 .. 2047) and PinSketch (m = 32).
#[test]
fn capacity_roundtrip_across_field_sizes() {
    for m in [6u32, 7, 8, 9, 10, 11, 32] {
        let t = 13;
        let codec = BchCodec::new(m, t);
        let order = 1u64 << m;
        let diff: Vec<u64> = (1..=t as u64)
            .map(|i| (i * 97 % (order - 1)) + 1)
            .collect::<std::collections::HashSet<_>>()
            .into_iter()
            .collect();
        let sketch = codec.sketch_set(diff.iter().copied());
        let mut out = codec.decode(&sketch).unwrap();
        out.sort_unstable();
        let mut expect = diff.clone();
        expect.sort_unstable();
        assert_eq!(out, expect, "round trip failed for m = {m}");
    }
}
