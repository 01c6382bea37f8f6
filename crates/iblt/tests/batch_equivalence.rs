//! Batched-vs-scalar equivalence properties for the IBLT kernels.
//!
//! Every batched path (4-wide insert/remove, fused multi-table subtract,
//! wave peeling) must produce exactly the state or sets the seed's scalar
//! reference path produces, for arbitrary table shapes and key sets.

use iblt::{Cell, Iblt, PeelError};
use proptest::prelude::*;
use std::collections::HashSet;

fn dedup(keys: Vec<u64>) -> Vec<u64> {
    let mut seen = HashSet::new();
    keys.into_iter()
        .filter(|&k| k != 0 && seen.insert(k))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn insert_batch_matches_reference(
        cells in 1usize..300,
        hashes in 1u32..6,
        seed in any::<u64>(),
        keys in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        let keys = dedup(keys);
        let mut batched = Iblt::new(cells, hashes, seed);
        batched.insert_batch(&keys);
        let mut reference = Iblt::new(cells, hashes, seed);
        for &k in &keys {
            reference.insert_reference(k);
        }
        prop_assert_eq!(&batched, &reference);
        // Scalar insert agrees too, and removal round-trips to empty.
        let mut scalar = Iblt::new(cells, hashes, seed);
        for &k in &keys {
            scalar.insert(k);
        }
        prop_assert_eq!(&batched, &scalar);
        batched.remove_batch(&keys);
        prop_assert_eq!(&batched, &Iblt::new(cells, hashes, seed));
    }

    #[test]
    fn subtract_batch_matches_sequential_subtracts(
        cells in 1usize..200,
        hashes in 1u32..5,
        seed in any::<u64>(),
        a in prop::collection::vec(any::<u64>(), 0..120),
        b in prop::collection::vec(any::<u64>(), 0..120),
        c in prop::collection::vec(any::<u64>(), 0..120),
    ) {
        let build = |keys: &[u64]| {
            let mut t = Iblt::new(cells, hashes, seed);
            t.insert_batch(&dedup(keys.to_vec()));
            t
        };
        let (ta, tb, tc) = (build(&a), build(&b), build(&c));
        let mut fused = ta.clone();
        fused.subtract_batch(&[&tb, &tc]);
        let mut serial = ta.clone();
        serial.subtract(&tb);
        serial.subtract(&tc);
        prop_assert_eq!(fused, serial);
    }

    #[test]
    fn wave_peel_matches_reference_peel(
        d in 0usize..120,
        shared in 0usize..200,
        seed in any::<u64>(),
    ) {
        // Difference of exactly d keys, peeled from a table sized by the
        // §8.1.1 rule; compare the wave peeler against the seed's decoder.
        let cells = (2 * d).max(8);
        let a: Vec<u64> = (1..=(shared + d) as u64).map(|x| x.wrapping_mul(0x9E3779B97F4A7C15) | 1).collect();
        let b = &a[d..];
        let mut ta = Iblt::new(cells, 4, seed);
        ta.insert_batch(&a);
        let mut tb = Iblt::new(cells, 4, seed);
        tb.insert_batch(b);
        ta.subtract(&tb);
        let fast = ta.peel();
        let reference = ta.peel_reference();
        prop_assert_eq!(fast.complete, reference.complete);
        let set = |v: &[u64]| v.iter().copied().collect::<HashSet<u64>>();
        prop_assert_eq!(set(&fast.only_in_self), set(&reference.only_in_self));
        prop_assert_eq!(set(&fast.only_in_other), set(&reference.only_in_other));
        // try_peel agrees with the legacy flag and reports stuck cells.
        match ta.try_peel() {
            Ok(r) => {
                prop_assert!(r.complete);
                prop_assert_eq!(r.complete, fast.complete);
            }
            Err(PeelError::Stuck { partial, stuck_cells }) => {
                prop_assert!(!fast.complete);
                prop_assert!(stuck_cells > 0);
                prop_assert_eq!(partial.len(), fast.len());
            }
        }
    }
}

/// One deterministic full-size case beside the proptests, whose tables stay
/// under 300 cells: a 2¹⁶-cell difference table, far past any cache level
/// the small cases fit in, once decodable and once overloaded. The wave
/// peeler must agree with the seed's decoder on both sides' sets, on
/// `complete`, and — when stuck — on the cells left behind.
#[test]
fn large_table_peel_matches_reference() {
    let cells = 1usize << 16;
    let mix = |x: u64| x.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let sorted = |v: &[u64]| {
        let mut v = v.to_vec();
        v.sort_unstable();
        v
    };
    // (only in A, only in B): 0.46 keys per cell decodes, 0.92 cannot.
    for (d_a, d_b, decodable) in [(20_000, 10_000, true), (45_000, 15_000, false)] {
        let shared = 10_000;
        let a: Vec<u64> = (1..=(d_a + shared) as u64).map(mix).collect();
        let b: Vec<u64> = ((d_a + 1) as u64..=(d_a + shared + d_b) as u64)
            .map(mix)
            .collect();
        let mut diff = Iblt::new(cells, 4, 0xA07C);
        diff.insert_batch(&a);
        let mut tb = Iblt::new(cells, 4, 0xA07C);
        tb.insert_batch(&b);
        diff.subtract(&tb);

        let reference = diff.peel_reference();
        assert_eq!(reference.complete, decodable);
        // The reference decoder peels a private copy: replay its
        // extractions to get the table it ended on.
        let mut reference_end = diff.clone();
        for &k in &reference.only_in_self {
            reference_end.remove_reference(k);
        }
        for &k in &reference.only_in_other {
            reference_end.insert_reference(k);
        }

        let (fast, stuck_cells) = match diff.try_peel_mut() {
            Ok(r) => (r, 0),
            Err(PeelError::Stuck {
                partial,
                stuck_cells,
            }) => (partial, stuck_cells),
        };
        assert_eq!(fast.complete, reference.complete);
        assert_eq!(sorted(&fast.only_in_self), sorted(&reference.only_in_self));
        assert_eq!(
            sorted(&fast.only_in_other),
            sorted(&reference.only_in_other)
        );
        if decodable {
            assert_eq!(fast.only_in_self.len(), d_a);
            assert_eq!(fast.only_in_other.len(), d_b);
        }
        // Confluence: the same 2-core survives, cell for cell.
        let survivors = |t: &Iblt| t.cells().iter().filter(|c| **c != Cell::default()).count();
        assert_eq!(stuck_cells, survivors(&reference_end));
        assert_eq!(stuck_cells == 0, decodable);
        assert_eq!(diff, reference_end);
    }
}
