//! Batched-vs-scalar equivalence properties for the IBLT kernels.
//!
//! Every batched path (4-wide insert, wave peeling) must produce exactly the
//! state or sets the seed's scalar path produces, for arbitrary table shapes
//! and key sets. That scalar path is the oracle below, written against the
//! table's cells (`cells()`) and the hash count and seed the table was built
//! with.

use iblt::{Cell, Iblt, PeelResult};
use proptest::prelude::*;
use std::collections::HashSet;
use xhash::{derive_seed, xxhash64};

/// The crate's seed-derivation labels of the check hash and of the index
/// hashes — part of the table's format, pinned here independently.
const CHECK_SALT: u64 = 0xC0FFEE;
const INDEX_SALT: u64 = 0x1D11;

/// The seed's scalar path: per-call seed derivation, per-key index
/// allocation, a final full-table emptiness sweep.
struct Oracle {
    seed: u64,
    hash_count: u64,
    /// Cells per hash-function partition.
    partition: u64,
}

impl Oracle {
    fn of(table: &Iblt, hash_count: u32, seed: u64) -> Self {
        let hash_count = u64::from(hash_count);
        Oracle {
            seed,
            hash_count,
            partition: table.cells().len() as u64 / hash_count,
        }
    }

    fn check(&self, key: u64) -> u64 {
        xxhash64(&key.to_le_bytes(), derive_seed(self.seed, CHECK_SALT))
    }

    fn indices(&self, key: u64) -> Vec<usize> {
        let p = self.partition;
        (0..self.hash_count)
            .map(|i| {
                let h = xxhash64(&key.to_le_bytes(), derive_seed(self.seed, INDEX_SALT + i));
                (i * p + h % p) as usize
            })
            .collect()
    }

    /// Toggle `key` by `delta` into `cells`.
    fn apply(&self, cells: &mut [Cell], key: u64, delta: i64) {
        let check = self.check(key);
        for i in self.indices(key) {
            let cell = &mut cells[i];
            cell.count += delta;
            cell.key_sum ^= key;
            cell.hash_sum ^= check;
        }
    }

    fn pure(&self, c: &Cell) -> bool {
        (c.count == 1 || c.count == -1) && self.check(c.key_sum) == c.hash_sum
    }

    /// Peel a copy of `cells` one key at a time: the result and the cells
    /// the decoder ended on.
    fn peel(&self, cells: &[Cell]) -> (PeelResult, Vec<Cell>) {
        let mut work = cells.to_vec();
        let mut result = PeelResult::default();
        let mut queue: Vec<usize> = (0..work.len()).filter(|&i| self.pure(&work[i])).collect();
        while let Some(i) = queue.pop() {
            if !self.pure(&work[i]) {
                continue;
            }
            let (key, sign) = (work[i].key_sum, work[i].count);
            if sign == 1 {
                result.only_in_self.push(key);
            } else {
                result.only_in_other.push(key);
            }
            self.apply(&mut work, key, -sign);
            for j in self.indices(key) {
                if self.pure(&work[j]) {
                    queue.push(j);
                }
            }
        }
        result.complete = work.iter().all(|c| *c == Cell::default());
        (result, work)
    }
}

fn dedup(keys: Vec<u64>) -> Vec<u64> {
    let mut seen = HashSet::new();
    keys.into_iter()
        .filter(|&k| k != 0 && seen.insert(k))
        .collect()
}

fn set(v: &[u64]) -> HashSet<u64> {
    v.iter().copied().collect()
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
        let oracle = Oracle::of(&batched, hashes, seed);
        let mut reference = vec![Cell::default(); batched.cells().len()];
        for &k in &keys {
            oracle.apply(&mut reference, k, 1);
        }
        prop_assert_eq!(batched.cells(), &reference[..]);
        // Scalar insert agrees too.
        let mut scalar = Iblt::new(cells, hashes, seed);
        for &k in &keys {
            scalar.insert(k);
        }
        prop_assert_eq!(&batched, &scalar);
        // Subtracting a table of a third matches the oracle's scalar
        // removal; subtracting the rest round-trips to empty.
        let (gone, kept) = keys.split_at(keys.len() / 3);
        let table_of = |keys: &[u64]| {
            let mut t = Iblt::new(cells, hashes, seed);
            t.insert_batch(keys);
            t
        };
        batched.subtract(&table_of(gone));
        for &k in gone {
            oracle.apply(&mut reference, k, -1);
        }
        prop_assert_eq!(batched.cells(), &reference[..]);
        batched.subtract(&table_of(kept));
        prop_assert_eq!(&batched, &Iblt::new(cells, hashes, seed));
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
        let (reference, reference_end) = Oracle::of(&ta, 4, seed).peel(ta.cells());
        let fast = ta.peel_mut();
        prop_assert_eq!(fast.complete, reference.complete);
        prop_assert_eq!(set(&fast.only_in_self), set(&reference.only_in_self));
        prop_assert_eq!(set(&fast.only_in_other), set(&reference.only_in_other));
        // Confluence: a stuck decode leaves the same cells behind.
        prop_assert_eq!(ta.cells(), &reference_end[..]);
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

        let (reference, reference_end) = Oracle::of(&diff, 4, 0xA07C).peel(diff.cells());
        assert_eq!(reference.complete, decodable);

        let fast = diff.peel_mut();
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
        let survivors = |cells: &[Cell]| cells.iter().filter(|c| **c != Cell::default()).count();
        let stuck_cells = survivors(diff.cells());
        assert_eq!(stuck_cells, survivors(&reference_end));
        assert_eq!(stuck_cells == 0, decodable);
        assert_eq!(diff.cells(), &reference_end[..]);
    }
}
