//! Consistent hash partitioning of elements into bins.
//!
//! PBS partitions a set three times over:
//!
//! 1. into `g` *groups* (PBS-for-large-d, §3),
//! 2. each group into `n` *subsets* / bins (PBS-for-small-d, §2.2.1), with a
//!    fresh independent hash function per round (§2.4),
//! 3. a failed group into 3 *sub-groups* (§3.2).
//!
//! All three are instances of the same primitive: map a `u64` element to a
//! bin index in `0..n` given a seed, such that (a) Alice and Bob agree, and
//! (b) different seeds give (practically) independent mappings. The
//! [`PartitionHasher`] wraps that primitive, and
//! [`PartitionHasher::partition`] materializes partitions 1 and 3 — the ones
//! whose parts a session keeps — as duplicate-free `Vec`s.

use crate::lanes::{hash_block, Range};
use crate::xx::xxhash64_u64;
use crate::KeyedState;

/// Maps elements of the universe to bins `0..n` under a fixed seed.
///
/// Bin selection uses the high 64 bits of `hash * n` (Lemire's multiply-shift
/// range reduction), which avoids the slight modulo bias and a division.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionHasher {
    seed: u64,
    bins: u64,
}

impl PartitionHasher {
    /// Create a partition hasher over `bins` bins with the given seed.
    ///
    /// # Panics
    /// Panics if `bins == 0`.
    pub fn new(bins: u64, seed: u64) -> Self {
        assert!(bins > 0, "cannot partition into zero bins");
        PartitionHasher { seed, bins }
    }

    /// Bin index in `0..bins` for `element`.
    #[inline]
    pub fn bin(&self, element: u64) -> u64 {
        let h = xxhash64_u64(element, self.seed);
        (((h as u128) * (self.bins as u128)) >> 64) as u64
    }

    /// [`PartitionHasher::bin`] of every element, into `bins`: eight
    /// elements at a time, on a CPU with AVX-512 eight lanes wide. The
    /// lanes take `(h·g) >> 64` as `(hi·g + (lo·g >> 32)) >> 32` over the
    /// 32-bit halves of the hash, which is the same bin for every `g`
    /// below `2³²`.
    ///
    /// # Panics
    /// Panics if the hasher has more than `u32::MAX` bins, or `bins` is not
    /// as long as `elements`.
    pub fn bin_slice(&self, elements: &[u64], bins: &mut [u32]) {
        let Ok(g) = u32::try_from(self.bins) else {
            panic!("cannot hash to {} bins in 32 bits", self.bins);
        };
        hash_block(elements, self.seed, Range(g), bins);
    }

    /// Bin index as 1-based position `1..=bins`, the convention the paper
    /// uses for parity-bitmap bit positions (bit positions 1..n map to
    /// nonzero field elements in the BCH sketch).
    #[inline]
    pub fn position(&self, element: u64) -> u64 {
        self.bin(element) + 1
    }

    /// Split `elements` into `bins` duplicate-free parts: part `i`
    /// holds, in input order, the first occurrence of every distinct element
    /// with `bin(e) == i`.
    ///
    /// This is the set-up step of all three PBS partitions that materialize
    /// their parts (groups, and the sub-groups of a split): one pass that
    /// hashes the elements ([`PartitionHasher::bin_slice`], 1 024 at a
    /// time) and counts each chunk's bins, a counting-sort scatter into
    /// exactly-sized `Vec`s, then an in-place de-duplication of each part
    /// through one scratch table (at most a quarter full: 16–32 bytes per
    /// element of the largest part, freed on return). Dropping duplicates
    /// matters to the scheme: a repeated element cancels out of an XOR parity
    /// bitmap but counts twice in the additive group checksum.
    ///
    /// # Panics
    /// Panics if the hasher has more than `u32::MAX` bins, or one part holds
    /// more than `2^30` elements.
    pub fn partition(&self, elements: &[u64]) -> Vec<Vec<u64>> {
        assert!(
            self.bins <= u32::MAX as u64,
            "cannot materialize {} parts",
            self.bins
        );
        let mut sizes = vec![0usize; self.bins as usize];
        let mut bin_of = vec![0u32; elements.len()];
        for (chunk, bins) in elements.chunks(HOMES).zip(bin_of.chunks_mut(HOMES)) {
            self.bin_slice(chunk, bins);
            for &bin in &*bins {
                sizes[bin as usize] += 1;
            }
        }
        let mut parts: Vec<Vec<u64>> = sizes.into_iter().map(Vec::with_capacity).collect();
        for (&e, &b) in elements.iter().zip(&bin_of) {
            parts[b as usize].push(e);
        }
        drop(bin_of);
        let mut seen = Seen::new();
        for part in &mut parts {
            seen.dedup(part);
        }
        parts
    }
}

/// Elements whose home slots [`Seen::dedup`] hashes ahead of probing them,
/// and whose bins [`PartitionHasher::partition`] counts per chunk.
const HOMES: usize = 1024;

/// The longest part [`Seen::dedup`] takes: with it the table has `2^32`
/// slots, so a slot index and `1 +` a kept index both fit a `u32`.
const MAX_PART: usize = 1 << 30;

/// Open-addressing scratch table behind [`PartitionHasher::partition`]'s
/// duplicate drop, reused from part to part.
///
/// A slot holds `1 +` the index of a kept element (0 = empty) rather than
/// the element, so no `u64` has to be reserved as the empty marker. Slots
/// are picked by the crate's one keyed table hash, [`KeyedState`]: elements
/// arrive from peers, and a fixed slot hash would let a crafted set chain
/// every probe. The key cannot show in the result, which is the input order
/// with repeats removed whatever the slots were.
///
/// Two things keep the probe loop's branches predictable. The table is at
/// most a quarter full — `4 · len` slots rounded up to a power of two, 16 MB
/// for one part of 10⁶ elements — so nearly every probe ends on the first
/// slot it reads. And home slots are hashed [`HOMES`] elements at a time
/// (eight lanes wide where the CPU has AVX-512), ahead of the loop that
/// probes them, so a mispredicted probe does not hold up the next
/// element's hash.
struct Seen {
    hash: KeyedState,
    slots: Vec<u32>,
    homes: [u64; HOMES],
}

impl Seen {
    fn new() -> Self {
        Seen {
            hash: KeyedState::default(),
            slots: Vec::new(),
            homes: [0; HOMES],
        }
    }

    /// Drop every repeat from `part`, keeping first occurrences in order.
    fn dedup(&mut self, part: &mut Vec<u64>) {
        if part.len() < 2 {
            return;
        }
        assert!(part.len() <= MAX_PART, "part too large to index");
        let size = (4 * part.len()).next_power_of_two();
        if self.slots.len() < size {
            self.slots.resize(size, 0);
        }
        let slots = &mut self.slots[..size];
        slots.fill(0);
        let mut kept = 0usize;
        for start in (0..part.len()).step_by(HOMES) {
            let end = part.len().min(start + HOMES);
            self.hash
                .hash_slice(&part[start..end], &mut self.homes[..end - start]);
            for (i, &home) in (start..end).zip(&self.homes) {
                let e = part[i];
                let mut slot = home as usize & (size - 1);
                let repeat = loop {
                    match slots[slot] {
                        0 => break false,
                        j if part[j as usize - 1] == e => break true,
                        _ => slot = (slot + 1) & (size - 1),
                    }
                };
                if !repeat {
                    part[kept] = e;
                    kept += 1;
                    slots[slot] = kept as u32;
                }
            }
        }
        part.truncate(kept);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    /// The `HashSet` model [`PartitionHasher::partition`] replaced: walk
    /// the input once, keep an element the first time it is seen.
    fn partition_model(hasher: &PartitionHasher, elements: &[u64]) -> Vec<Vec<u64>> {
        let mut parts = vec![Vec::new(); hasher.bins as usize];
        let mut seen = HashSet::new();
        for &e in elements {
            if seen.insert(e) {
                parts[hasher.bin(e) as usize].push(e);
            }
        }
        parts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Small values repeat within and across parts; 0 and `u64::MAX`
        /// are ordinary elements; `bins` runs from 1 to well past the
        /// input length; the input may be empty. Each part is then split
        /// three ways, as a failed group is.
        #[test]
        fn partition_matches_the_hash_set_model(
            elements in prop::collection::vec(
                prop_oneof![0u64..48, Just(0u64), Just(u64::MAX), any::<u64>()],
                0usize..300,
            ),
            bins in 1u64..400,
            seed in any::<u64>(),
        ) {
            let hasher = PartitionHasher::new(bins, seed);
            let parts = hasher.partition(&elements);
            prop_assert_eq!(&parts, &partition_model(&hasher, &elements));
            let distinct: HashSet<u64> = elements.iter().copied().collect();
            prop_assert_eq!(parts.iter().map(Vec::len).sum::<usize>(), distinct.len());

            let split = PartitionHasher::new(3, seed ^ 0x5711);
            for part in &parts {
                let thirds = split.partition(part);
                prop_assert_eq!(thirds.len(), 3);
                prop_assert_eq!(&thirds, &partition_model(&split, part));
                prop_assert_eq!(thirds.iter().map(Vec::len).sum::<usize>(), part.len());
            }
        }
    }

    #[test]
    fn partition_edge_cases() {
        let empty: Vec<Vec<u64>> = vec![Vec::new(); 7];
        assert_eq!(PartitionHasher::new(7, 1).partition(&[]), empty);
        // One part: the input with its repeats dropped, order kept.
        assert_eq!(
            PartitionHasher::new(1, 1).partition(&[u64::MAX, 0, 5, 0, u64::MAX, 5, 9]),
            vec![vec![u64::MAX, 0, 5, 9]]
        );
        // Nothing but repeats of one element.
        let parts = PartitionHasher::new(4, 2).partition(&[0; 1000]);
        assert_eq!(parts.concat(), vec![0]);
    }

    /// A value stream with no repeats (an odd multiplier permutes `u64`).
    fn distinct(count: usize, salt: u64) -> impl Iterator<Item = u64> {
        (0..count as u64).map(move |i| (i ^ salt).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// One part (`bins = 1`) of every length around the points where the
    /// table doubles (`4 · len` crossing a power of two) — which takes in
    /// the [`HOMES`] chunk edge — without repeats, with every third element
    /// a repeat, and as nothing but pairs.
    #[test]
    fn one_part_at_every_table_size_boundary() {
        let whole = PartitionHasher::new(1, 7);
        for k in 1..=13 {
            for len in [(1 << k) - 1, 1 << k, (1 << k) + 1] {
                let plain: Vec<u64> = distinct(len, k).collect();
                let thirds: Vec<u64> = (0..len).map(|i| plain[i - i % 3]).collect();
                let pairs: Vec<u64> = (0..len).map(|i| plain[i / 2]).collect();
                for input in [plain, thirds, pairs] {
                    let parts = whole.partition(&input);
                    assert_eq!(parts, partition_model(&whole, &input), "len {len}");
                }
            }
        }
    }

    /// A part longer than a `u16` can index, every element of it twice.
    #[test]
    fn one_part_of_70_000_in_which_every_element_repeats() {
        let hasher = PartitionHasher::new(4, 11);
        let members: Vec<u64> = distinct(200_000, 3)
            .filter(|&e| hasher.bin(e) == 2)
            .take(35_000)
            .collect();
        let input: Vec<u64> = members
            .iter()
            .chain(members.iter().rev())
            .copied()
            .collect();
        assert_eq!(input.len(), 70_000);
        let parts = hasher.partition(&input);
        assert_eq!(parts, partition_model(&hasher, &input));
        assert_eq!(parts[2], members);
    }

    #[test]
    fn one_bin_over_100_000_elements() {
        let whole = PartitionHasher::new(1, 5);
        // Every seventh place repeats an earlier one.
        let mut input: Vec<u64> = distinct(100_000, 9).collect();
        for i in (6..input.len()).step_by(7) {
            input[i] = input[i / 7];
        }
        let parts = whole.partition(&input);
        assert_eq!(parts, partition_model(&whole, &input));
        assert_eq!(parts[0].len(), 100_000 - 100_000 / 7);
    }

    #[test]
    fn bins_are_in_range() {
        let h = PartitionHasher::new(255, 42);
        for e in 0..10_000u64 {
            let b = h.bin(e);
            assert!(b < 255);
            assert_eq!(h.position(e), b + 1);
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let h1 = PartitionHasher::new(127, 7);
        let h2 = PartitionHasher::new(127, 7);
        for e in [0u64, 1, 0xFFFF_FFFF, u64::MAX] {
            assert_eq!(h1.bin(e), h2.bin(e));
        }
    }

    #[test]
    fn different_seeds_give_different_partitions() {
        let h1 = PartitionHasher::new(1024, 1);
        let h2 = PartitionHasher::new(1024, 2);
        let differing = (0..1000u64).filter(|&e| h1.bin(e) != h2.bin(e)).count();
        // With 1024 bins the two mappings should disagree almost everywhere.
        assert!(differing > 950, "only {differing} of 1000 elements moved");
    }

    #[test]
    fn distribution_is_roughly_uniform() {
        let bins = 64u64;
        let h = PartitionHasher::new(bins, 3);
        let n = 64_000u64;
        let mut counts = vec![0u32; bins as usize];
        for e in 0..n {
            counts[h.bin(e) as usize] += 1;
        }
        let expected = (n / bins) as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.15,
                "bin {b} count {c} deviates {dev:.3} from {expected}"
            );
        }
    }

    #[test]
    fn single_bin_maps_everything_to_zero() {
        let h = PartitionHasher::new(1, 99);
        assert_eq!(h.bin(12345), 0);
        assert_eq!(h.bin(u64::MAX), 0);
    }

    #[test]
    #[should_panic(expected = "cannot partition into zero bins")]
    fn zero_bins_panics() {
        PartitionHasher::new(0, 0);
    }
}
