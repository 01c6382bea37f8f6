//! Invertible Bloom Lookup Tables (IBLT / "invertible Bloom filter").
//!
//! The IBF is the substrate of the paper's two IBF-based baselines:
//! Difference Digest \[15\] and Graphene \[32\] (§7). Each cell carries three
//! fields — `count`, `keySum`, `hashSum` — each one machine word of
//! `log|U|` bits, which is why IBF-based reconciliation costs roughly
//! `3 · (#cells) · log|U|` bits on the wire and why, with the ~2d cells the
//! decoder needs, Difference Digest lands at about 6× the theoretical
//! minimum (§7, §8.1).
//!
//! Supported operations:
//!
//! * [`Iblt::insert`] an element, or a whole slice at a time through the
//!   batched kernel [`Iblt::insert_batch`] (four keys hashed per step, no
//!   per-key allocations, per-table-precomputed hash seeds),
//! * [`Iblt::subtract`] another IBLT cell-wise (the "difference" IBF),
//! * [`Iblt::peel_mut`] the difference, in place, into the two one-sided
//!   difference sets using a worklist peeling decoder (find a pure cell,
//!   extract, push newly pure cells — no full-table rescans). A stuck
//!   decoder (no pure cell left but the table is not empty) returns what it
//!   recovered with [`PeelResult::complete`] unset and leaves the
//!   unpeelable cells in the table; [`Iblt::diff_and_peel`] is subtract +
//!   peel over a copy.
//!
//! # The peeler
//!
//! Peeling is memory-latency-bound once a table outgrows the cache: every
//! extraction makes `hash_count` random 24-byte probes. There is one
//! engine, the **wave peeler**: up to 32 currently-pure keys are collected
//! per wave, all their cell indices are hashed and prefetched, and only
//! then are the updates applied, so the wave's misses overlap instead of
//! serializing key by key. Extractions of distinct pure keys commute
//! (every cell update is a `+=`/`^=`), which is what makes batching them
//! sound.
//!
//! Peeling is *confluent* — the unpeelable 2-core of the underlying
//! hypergraph is unique — so the order of extraction never changes the
//! recovered sets, the completeness verdict, or the cells a stuck decode
//! leaves behind; this is why `tests/batch_equivalence.rs` can hold the wave
//! peeler to the seed's one-key-at-a-time decoder, which lives there as the
//! test's oracle.
//! Confluence rests on the partitioned index mapping: hash function *i*
//! maps into its own disjoint `cells / hash_count` slice, so a key's cell
//! indices are always pairwise distinct. Without that, a key whose two
//! index hashes collide would contribute ±2 to one cell, and such a cell
//! plus one opposite-side key could masquerade as pure with the wrong sign
//! — a "ghost" whose extraction corrupts the cascade and makes the decode
//! order-dependent.
//!
//! # Degenerate shapes
//!
//! [`Iblt::new`] clamps a zero cell count or zero hash count to 1 instead
//! of panicking — and rounds `cells` up to at least one cell per hash
//! function so the per-function index partitions are nonempty — so hostile
//! or rounded-to-zero wire parameters can never turn `hash % cells` into a
//! divide-by-zero inside a decode path.
//!
//! # Example
//!
//! ```
//! use iblt::Iblt;
//!
//! let mut a = Iblt::new(64, 4, 7);
//! a.insert_all(1..=100u64);
//! let mut b = Iblt::new(64, 4, 7);
//! b.insert_all(4..=103u64);
//! let diff = Iblt::diff_and_peel(&a, &b);
//! assert!(diff.complete);
//! let mut only_a = diff.only_in_self.clone();
//! only_a.sort_unstable();
//! assert_eq!(only_a, vec![1, 2, 3]);      // A \ B
//! let mut only_b = diff.only_in_other.clone();
//! only_b.sort_unstable();
//! assert_eq!(only_b, vec![101, 102, 103]); // B \ A
//! ```

#![warn(missing_docs)]

use xhash::{derive_seed, xxhash64_u64};

/// Seed-derivation label of the check-hash function.
const CHECK_SALT: u64 = 0xC0FFEE;
/// Seed-derivation label base of the cell-index hash functions.
const INDEX_SALT: u64 = 0x1D11;

/// One IBLT cell: `count`, `keySum`, `hashSum`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cell {
    /// Signed number of elements hashed into this cell (insertions minus
    /// deletions; negative after subtracting a larger table).
    pub count: i64,
    /// XOR of all element keys hashed into this cell.
    pub key_sum: u64,
    /// XOR of the check-hashes of all elements hashed into this cell.
    pub hash_sum: u64,
}

impl Cell {
    fn is_empty(&self) -> bool {
        self.count == 0 && self.key_sum == 0 && self.hash_sum == 0
    }
}

/// Result of peeling a difference IBLT.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PeelResult {
    /// Elements present in the *minuend* (the table `subtract` was called on)
    /// but not in the subtrahend — for `IBLT(A) − IBLT(B)` this is `A\B`.
    pub only_in_self: Vec<u64>,
    /// Elements present in the subtrahend only — `B\A`.
    pub only_in_other: Vec<u64>,
    /// `true` if the peeling process emptied every cell; `false` means the
    /// decode failed (too many differences for the table size).
    pub complete: bool,
}

impl PeelResult {
    /// All recovered difference elements regardless of side.
    pub fn all(&self) -> impl Iterator<Item = u64> + '_ {
        self.only_in_self
            .iter()
            .copied()
            .chain(self.only_in_other.iter().copied())
    }

    /// Total number of recovered elements.
    pub fn len(&self) -> usize {
        self.only_in_self.len() + self.only_in_other.len()
    }

    /// `true` when nothing was recovered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// An invertible Bloom lookup table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Iblt {
    cells: Vec<Cell>,
    hash_count: u32,
    seed: u64,
    /// Per-hash-function index seeds, derived once at construction so the
    /// hot paths pay one hash per (key, function) instead of a seed
    /// derivation (itself a hash) plus a hash. Deterministic in `seed`.
    index_seeds: Vec<u64>,
    /// Check-hash seed, likewise derived once.
    check_seed: u64,
    /// Cells per hash-function partition: hash `i` maps into the disjoint
    /// slice `[i·p, (i+1)·p)`, so a key's `hash_count` cell indices are
    /// always pairwise distinct — what keeps peeling confluent (see the
    /// crate docs).
    partition_cells: u64,
}

/// Hint the cache that `cells[i]` is about to be touched. Used by the
/// peeler to overlap the random-access misses of upcoming probes
/// instead of paying them one dependent load at a time.
#[inline]
fn prefetch_cell(cells: &[Cell], i: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `i` is in bounds (always a `% cells` or `% partition`
    // result); prefetch has no architectural effect beyond the cache.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch(cells.as_ptr().add(i) as *const i8, _MM_HINT_T0);
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = (cells, i);
    }
}

/// Add `key` to every cell it maps to. Free function over the split-out
/// fields so the batched and scalar paths share it without re-borrowing the
/// whole table.
#[inline]
fn insert_one(cells: &mut [Cell], index_seeds: &[u64], check_seed: u64, p: u64, key: u64) {
    let check = xxhash64_u64(key, check_seed);
    for (i, &s) in index_seeds.iter().enumerate() {
        let j = (i as u64 * p + xxhash64_u64(key, s) % p) as usize;
        let cell = &mut cells[j];
        cell.count += 1;
        cell.key_sum ^= key;
        cell.hash_sum ^= check;
    }
}

impl Iblt {
    /// Create an IBLT with `cells` cells and `hash_count` hash functions,
    /// keyed by `seed`. Two tables must share all three parameters to be
    /// subtracted from each other.
    ///
    /// A zero `cells` or `hash_count` is clamped to 1 rather than accepted
    /// (it would make every cell-index computation a divide-by-zero) or
    /// panicked on (hostile wire parameters must not bring down a worker
    /// mid-decode), and `cells` is rounded up to at least one cell per hash
    /// function so the per-function index partitions are nonempty.
    pub fn new(cells: usize, hash_count: u32, seed: u64) -> Self {
        let hash_count = hash_count.max(1);
        let cells = cells.max(hash_count as usize);
        let index_seeds = (0..hash_count as u64)
            .map(|i| derive_seed(seed, INDEX_SALT + i))
            .collect();
        Iblt {
            cells: vec![Cell::default(); cells],
            hash_count,
            seed,
            index_seeds,
            check_seed: derive_seed(seed, CHECK_SALT),
            partition_cells: cells as u64 / hash_count as u64,
        }
    }

    /// Read-only view of the cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Wire size in bits: three `log|U|`-bit words per cell (the paper's
    /// accounting for IBF communication; §7). `universe_bits` is `log|U|`.
    pub fn wire_bits(&self, universe_bits: u32) -> u64 {
        3 * universe_bits as u64 * self.cells.len() as u64
    }

    /// Insert an element.
    pub fn insert(&mut self, key: u64) {
        insert_one(
            &mut self.cells,
            &self.index_seeds,
            self.check_seed,
            self.partition_cells,
            key,
        );
    }

    /// Insert a slice of keys: the 4-wide batched kernel, equivalent to
    /// calling [`Iblt::insert`] per key.
    ///
    /// Four keys advance together — their four check-hashes are computed
    /// up front, then each hash function's four cell indices are resolved
    /// and applied in one step — so the four index hashes per function are
    /// independent and overlap in the pipeline. Cell updates commute
    /// (`+=`/`^=`), so the final table state is identical to inserting the
    /// keys one at a time.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        let p = self.partition_cells;
        let cells = &mut self.cells;
        let index_seeds = &self.index_seeds;
        let check_seed = self.check_seed;
        let mut chunks = keys.chunks_exact(4);
        for quad in &mut chunks {
            let keys4 = [quad[0], quad[1], quad[2], quad[3]];
            let checks = keys4.map(|k| xxhash64_u64(k, check_seed));
            for (i, &s) in index_seeds.iter().enumerate() {
                let base = i as u64 * p;
                let idx = keys4.map(|k| (base + xxhash64_u64(k, s) % p) as usize);
                for k in 0..4 {
                    let cell = &mut cells[idx[k]];
                    cell.count += 1;
                    cell.key_sum ^= keys4[k];
                    cell.hash_sum ^= checks[k];
                }
            }
        }
        for &key in chunks.remainder() {
            insert_one(cells, index_seeds, check_seed, p, key);
        }
    }

    /// Insert a whole set (buffered into the batched kernel).
    pub fn insert_all(&mut self, keys: impl IntoIterator<Item = u64>) {
        let mut buf = [0u64; 64];
        let mut n = 0;
        for k in keys {
            buf[n] = k;
            n += 1;
            if n == buf.len() {
                self.insert_batch(&buf);
                n = 0;
            }
        }
        self.insert_batch(&buf[..n]);
    }

    /// Cell-wise subtraction: after `a.subtract(&b)`, `a` encodes the
    /// symmetric difference of the two original sets.
    ///
    /// # Panics
    /// Panics if the two tables have different sizes, hash counts or seeds.
    pub fn subtract(&mut self, other: &Iblt) {
        assert_eq!(self.cells.len(), other.cells.len(), "cell count mismatch");
        assert_eq!(self.hash_count, other.hash_count, "hash count mismatch");
        assert_eq!(self.seed, other.seed, "seed mismatch");
        for (a, b) in self.cells.iter_mut().zip(&other.cells) {
            a.count -= b.count;
            a.key_sum ^= b.key_sum;
            a.hash_sum ^= b.hash_sum;
        }
    }

    /// Peel this difference IBLT, in place, into its two sides.
    ///
    /// Worklist peeling: seed the worklist with every pure cell, then
    /// repeatedly pop one, report its key on the side given by the count's
    /// sign, remove the key from all its cells and push any cell that just
    /// became pure — no rescans of the full table. Extractions run in
    /// prefetched waves; see the [crate-level docs](crate).
    ///
    /// On success every cell is left empty and [`PeelResult::complete`] is
    /// set. When the worklist drains while nonempty cells remain (the
    /// difference exceeds the peeling threshold, §8.1.1) the result holds
    /// what was recovered before the decoder stalled, `complete` is unset,
    /// and the unpeelable cells stay in the table.
    pub fn peel_mut(&mut self) -> PeelResult {
        /// Keys extracted per wave. Extractions of *distinct* pure keys
        /// commute (every cell update is a `+=`/`^=`), so a whole wave's
        /// index hashes can be computed and its cell lines prefetched before
        /// any update lands — the random-access misses of up to
        /// `WAVE · hash_count` cells overlap instead of serializing key by
        /// key, which is where a peel over a larger-than-L2 table spends
        /// most of its time.
        const WAVE: usize = 32;

        // Lazy candidates, in ascending order: every cell with a ±1 count
        // (full purity, including the check hash, is established when a
        // candidate is popped).
        let mut queue: Vec<usize> = (0..self.cells.len())
            .filter(|&i| matches!(self.cells[i].count, 1 | -1))
            .collect();
        let mut result = PeelResult {
            only_in_self: Vec::with_capacity(queue.len()),
            only_in_other: Vec::new(),
            complete: false,
        };

        let p = self.partition_cells;
        let check_seed = self.check_seed;
        let hash_count = self.index_seeds.len();
        let cells = &mut self.cells;
        let index_seeds = &self.index_seeds;
        let prefetch = prefetch_cell;

        let mut wave: Vec<(u64, i64, u64)> = Vec::with_capacity(WAVE); // (key, sign, check)
        let mut wave_idx: Vec<usize> = Vec::with_capacity(WAVE * hash_count);
        loop {
            // Fill a wave with currently-pure cells. The queue holds lazy
            // candidates (pushed on a count of ±1 alone), so full purity —
            // including the check hash, computed once and reused as the
            // removal mask — is established here. A key pure in two cells at
            // once must not be extracted twice, so a repeat within the wave
            // closes the wave (the duplicate cell goes back on the queue;
            // applying the wave empties it, and the re-check at the next
            // fill skips it).
            wave.clear();
            while wave.len() < WAVE {
                let Some(i) = queue.pop() else { break };
                let c = &cells[i];
                if c.count != 1 && c.count != -1 {
                    continue;
                }
                let check = xxhash64_u64(c.key_sum, check_seed);
                if check != c.hash_sum {
                    continue;
                }
                if wave.iter().any(|&(k, _, _)| k == c.key_sum) {
                    queue.push(i);
                    break;
                }
                wave.push((c.key_sum, c.count, check));
            }
            if wave.is_empty() {
                break;
            }
            // Start pulling the next wave's fill candidates in now: the
            // whole apply phase below overlaps their (random, usually cold)
            // loads, which a prefetch issued right before the fill loop
            // could not.
            for &i in queue.iter().rev().take(WAVE) {
                prefetch(cells, i);
            }

            // Hash every wave key's cell indices (independent chains), then
            // one prefetch sweep so the random cell lines are pulled in
            // concurrently instead of one miss at a time.
            wave_idx.clear();
            for &(key, _, _) in &wave {
                for (h, &s) in index_seeds.iter().enumerate() {
                    wave_idx.push((h as u64 * p + xxhash64_u64(key, s) % p) as usize);
                }
            }
            for &j in &wave_idx {
                prefetch(cells, j);
            }

            // Apply the wave: toggle each key out of its cells; any cell
            // left with a ±1 count is a new lazy candidate.
            for (w, &(key, sign, check)) in wave.iter().enumerate() {
                if sign == 1 {
                    result.only_in_self.push(key);
                } else {
                    result.only_in_other.push(key);
                }
                for &j in &wave_idx[w * hash_count..(w + 1) * hash_count] {
                    let cell = &mut cells[j];
                    cell.count -= sign;
                    cell.key_sum ^= key;
                    cell.hash_sum ^= check;
                    if cell.count == 1 || cell.count == -1 {
                        queue.push(j);
                    }
                }
            }
        }

        // One sequential sweep decides the outcome (the hardware prefetcher
        // makes this far cheaper than tracking emptiness on every random
        // update).
        result.complete = cells.iter().all(Cell::is_empty);
        result
    }

    /// Convenience for the reconciliation protocols: build the difference of
    /// two sets' IBLTs and peel it.
    pub fn diff_and_peel(a: &Iblt, b: &Iblt) -> PeelResult {
        let mut d = a.clone();
        d.subtract(b);
        d.peel_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn build(keys: &[u64], cells: usize, hashes: u32, seed: u64) -> Iblt {
        let mut t = Iblt::new(cells, hashes, seed);
        t.insert_all(keys.iter().copied());
        t
    }

    #[test]
    fn subtracting_the_same_keys_leaves_the_table_empty() {
        let mut t = Iblt::new(64, 3, 1);
        let mut same = Iblt::new(64, 3, 1);
        for k in 0..100u64 {
            t.insert(k + 1);
            same.insert(k + 1);
        }
        t.subtract(&same);
        assert!(t.cells.iter().all(Cell::is_empty));
    }

    #[test]
    fn peel_recovers_small_difference() {
        let a: Vec<u64> = (1..=1000).collect();
        let b: Vec<u64> = (6..=1003).collect();
        let ta = build(&a, 60, 3, 42);
        let tb = build(&b, 60, 3, 42);
        let peel = Iblt::diff_and_peel(&ta, &tb);
        assert!(peel.complete);
        let only_a: HashSet<u64> = peel.only_in_self.iter().copied().collect();
        let only_b: HashSet<u64> = peel.only_in_other.iter().copied().collect();
        assert_eq!(only_a, (1..=5).collect::<HashSet<u64>>());
        assert_eq!(only_b, (1001..=1003).collect::<HashSet<u64>>());
    }

    #[test]
    fn identical_sets_peel_to_nothing() {
        let a: Vec<u64> = (1..=500).collect();
        let ta = build(&a, 30, 4, 7);
        let tb = build(&a, 30, 4, 7);
        let peel = Iblt::diff_and_peel(&ta, &tb);
        assert!(peel.complete);
        assert!(peel.is_empty());
    }

    #[test]
    fn undersized_table_reports_incomplete() {
        // 200 differences into 12 cells cannot decode.
        let a: Vec<u64> = (1..=200).collect();
        let ta = build(&a, 12, 3, 3);
        let tb = Iblt::new(12, 3, 3);
        let peel = Iblt::diff_and_peel(&ta, &tb);
        assert!(!peel.complete);
    }

    #[test]
    fn stuck_peel_reports_partial_decode_and_keeps_the_core() {
        let a: Vec<u64> = (1..=200).collect();
        let mut ta = build(&a, 12, 3, 3);
        let partial = ta.peel_mut();
        assert!(!partial.complete, "200 keys in 12 cells must not decode");
        // Whatever was peeled must be genuine keys.
        for k in partial.all() {
            assert!((1..=200).contains(&k), "fake key {k} peeled");
        }
        // The unpeelable cells stay in the table.
        let stuck_cells = ta.cells().iter().filter(|c| !c.is_empty()).count();
        assert!(stuck_cells > 0 && stuck_cells <= 12);
    }

    #[test]
    fn peel_drains_a_decodable_table() {
        let a: Vec<u64> = (1..=10).collect();
        let mut ta = build(&a, 40, 3, 9);
        let result = ta.peel_mut();
        assert!(result.complete, "10 keys in 40 cells decode");
        assert_eq!(result.len(), 10);
        assert!(ta.cells().iter().all(Cell::is_empty));
    }

    #[test]
    fn decode_rate_with_recommended_sizing() {
        // With ~2d cells and 4 hash functions (the §8.1.1 D.Digest
        // parameterization for d ≤ 200), the decoder succeeds in the vast
        // majority of trials. The threshold leaves room for the small
        // finite-size failure probability peeling has at this scale.
        let d = 100usize;
        let mut successes = 0;
        for trial in 0..50u64 {
            let a: Vec<u64> = (1..=(d as u64)).map(|x| x + trial * 100_000).collect();
            let ta = build(&a, 2 * d, 4, trial);
            let tb = Iblt::new(2 * d, 4, trial);
            let peel = Iblt::diff_and_peel(&ta, &tb);
            if peel.complete && peel.len() == d {
                successes += 1;
            }
        }
        assert!(successes >= 44, "only {successes}/50 decodes succeeded");
    }

    #[test]
    fn wire_size_accounting() {
        let t = Iblt::new(100, 3, 0);
        assert_eq!(t.wire_bits(32), 3 * 32 * 100);
        assert_eq!(t.wire_bits(64), 3 * 64 * 100);
    }

    #[test]
    fn subtraction_is_antisymmetric() {
        let a: Vec<u64> = vec![1, 2, 3, 10];
        let b: Vec<u64> = vec![3, 10, 77];
        let ta = build(&a, 40, 3, 9);
        let tb = build(&b, 40, 3, 9);
        let ab = Iblt::diff_and_peel(&ta, &tb);
        let ba = Iblt::diff_and_peel(&tb, &ta);
        let ab_self: HashSet<u64> = ab.only_in_self.iter().copied().collect();
        let ba_other: HashSet<u64> = ba.only_in_other.iter().copied().collect();
        assert_eq!(ab_self, ba_other);
        assert_eq!(ab_self, HashSet::from([1, 2]));
    }

    #[test]
    #[should_panic(expected = "seed mismatch")]
    fn subtract_with_different_seeds_panics() {
        let mut a = Iblt::new(8, 3, 1);
        let b = Iblt::new(8, 3, 2);
        a.subtract(&b);
    }

    #[test]
    fn zero_shapes_clamp_instead_of_panicking() {
        // A rounded-to-zero cell count (or hash count) from hostile or
        // degenerate wire parameters must not divide-by-zero in the hash
        // mapping; `new` clamps both to 1 and the table stays usable.
        let mut t = Iblt::new(0, 0, 7);
        assert_eq!(t.cells().len(), 1);
        assert_eq!(t.hash_count, 1);
        t.insert(9);
        let r = t.peel_mut();
        assert!(r.complete, "one key in one cell decodes");
        assert_eq!(r.only_in_self, vec![9]);
    }

    #[test]
    fn doubly_pure_key_is_extracted_once() {
        // Regression: a key pure in two cells simultaneously must be
        // extracted exactly once — a second extraction would double-XOR it
        // back into its cells and corrupt the cascade. The partitioned
        // index mapping puts a lone key of a 2-hash table in two distinct
        // cells, both pure.
        let mut t = Iblt::new(32, 2, 5);
        t.insert(77);
        assert_eq!(t.cells().iter().filter(|c| c.count == 1).count(), 2);
        let r = t.peel_mut();
        assert!(r.complete, "a single key decodes");
        assert_eq!(r.only_in_self, vec![77], "the key was duplicated");
        assert!(r.only_in_other.is_empty());
    }
}
