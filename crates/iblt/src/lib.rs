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
//! * [`Iblt::insert`] / [`Iblt::remove`] an element, or a whole slice at a
//!   time through the batched kernels [`Iblt::insert_batch`] /
//!   [`Iblt::remove_batch`] (four keys hashed per step, no per-key
//!   allocations, per-table-precomputed hash seeds),
//! * [`Iblt::subtract`] another IBLT cell-wise (the "difference" IBF), or
//!   several at once in one fused pass with [`Iblt::subtract_batch`],
//! * [`Iblt::peel`] / [`Iblt::try_peel`] the difference into the two
//!   one-sided difference sets using a worklist peeling decoder (find a pure
//!   cell, extract, push newly pure cells — no full-table rescans).
//!   [`Iblt::try_peel`] reports a stuck decoder (no pure cell left but the
//!   table is not empty) as an explicit [`PeelError::Stuck`] carrying the
//!   partial result, instead of silently truncating.
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
//! leaves behind; this is why the wave peeler can be held to the seed's
//! one-key-at-a-time [`Iblt::peel_reference`] by `tests/batch_equivalence.rs`.
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
//! divide-by-zero inside a decode path; [`Iblt::try_new`] reports the same
//! conditions as a typed [`ShapeError`] for callers that want to refuse
//! rather than clamp.
//!
//! The seed's per-element scalar path (per-call seed derivation, per-key
//! index allocation, final full-table emptiness rescan) is kept verbatim as
//! [`Iblt::insert_reference`] / [`Iblt::peel_reference`]: it is the ground
//! truth for the batched-vs-scalar property tests.
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

use xhash::{derive_seed, xxhash64, xxhash64_u64};

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

/// Why [`Iblt::try_peel`] could not fully decode a difference table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PeelError {
    /// The decoder got stuck: no pure cell remains but the table is not
    /// empty (the difference exceeds the peeling threshold for this table
    /// size, or a hash collision produced an unpeelable 2-core). The
    /// elements recovered before the decoder stalled are returned so callers
    /// can still use the partial decode — but they must treat it as such.
    Stuck {
        /// Everything peeled before the decoder stalled (`complete == false`).
        partial: PeelResult,
        /// Number of nonempty cells left un-decoded.
        stuck_cells: usize,
    },
}

impl std::fmt::Display for PeelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PeelError::Stuck {
                partial,
                stuck_cells,
            } => write!(
                f,
                "IBLT peeling stuck: {} cells undecodable after recovering {} elements",
                stuck_cells,
                partial.len()
            ),
        }
    }
}

impl std::error::Error for PeelError {}

/// Why [`Iblt::try_new`] rejected a table shape.
///
/// Both conditions would otherwise surface as a divide-by-zero (every cell
/// index is `hash % cells`) or an unusable table deep inside a decode path,
/// which is exactly where hostile wire parameters end up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShapeError {
    /// `cells == 0`: every `hash % cells` would divide by zero.
    ZeroCells,
    /// `hash_count == 0`: no element could ever be stored or peeled.
    ZeroHashes,
}

impl std::fmt::Display for ShapeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeError::ZeroCells => write!(f, "IBLT needs at least one cell"),
            ShapeError::ZeroHashes => write!(f, "IBLT needs at least one hash function"),
        }
    }
}

impl std::error::Error for ShapeError {}

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

/// Apply `(key, delta)` to every cell the key maps to. Free function over
/// the split-out fields so the batched and scalar paths share it without
/// re-borrowing the whole table.
#[inline]
fn apply_one(
    cells: &mut [Cell],
    index_seeds: &[u64],
    check_seed: u64,
    p: u64,
    key: u64,
    delta: i64,
) {
    let check = xxhash64_u64(key, check_seed);
    for (i, &s) in index_seeds.iter().enumerate() {
        let j = (i as u64 * p + xxhash64_u64(key, s) % p) as usize;
        let cell = &mut cells[j];
        cell.count += delta;
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
    /// function so the per-function index partitions are nonempty. Use
    /// [`Iblt::try_new`] to refuse degenerate shapes instead.
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

    /// Checked counterpart of [`Iblt::new`]: refuses degenerate shapes with
    /// a typed [`ShapeError`] instead of clamping them. This is the entry
    /// point for wire-facing callers that must reject a peer's zero-cell or
    /// zero-hash sketch parameters outright.
    pub fn try_new(cells: usize, hash_count: u32, seed: u64) -> Result<Self, ShapeError> {
        if cells == 0 {
            return Err(ShapeError::ZeroCells);
        }
        if hash_count == 0 {
            return Err(ShapeError::ZeroHashes);
        }
        Ok(Iblt::new(cells, hash_count, seed))
    }

    /// Number of cells.
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of hash functions.
    pub fn hash_count(&self) -> u32 {
        self.hash_count
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
        apply_one(
            &mut self.cells,
            &self.index_seeds,
            self.check_seed,
            self.partition_cells,
            key,
            1,
        );
    }

    /// Remove an element (the table tolerates removals of absent elements;
    /// the cell counts simply go negative, as required for difference IBLTs).
    pub fn remove(&mut self, key: u64) {
        apply_one(
            &mut self.cells,
            &self.index_seeds,
            self.check_seed,
            self.partition_cells,
            key,
            -1,
        );
    }

    /// Toggle a whole slice of keys by `delta`: the 4-wide batched kernel.
    ///
    /// Four keys advance together — their four check-hashes are computed
    /// up front, then each hash function's four cell indices are resolved
    /// and applied in one step — so the four index hashes per function are
    /// independent and overlap in the pipeline. Cell updates commute
    /// (`+=`/`^=`), so the final table state is identical to applying the
    /// keys one at a time.
    fn apply_batch(&mut self, keys: &[u64], delta: i64) {
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
                    cell.count += delta;
                    cell.key_sum ^= keys4[k];
                    cell.hash_sum ^= checks[k];
                }
            }
        }
        for &key in chunks.remainder() {
            apply_one(cells, index_seeds, check_seed, p, key, delta);
        }
    }

    /// Insert a slice of keys through the batched kernel. Equivalent to
    /// calling [`Iblt::insert`] per key.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        self.apply_batch(keys, 1);
    }

    /// Remove a slice of keys through the batched kernel. Equivalent to
    /// calling [`Iblt::remove`] per key.
    pub fn remove_batch(&mut self, keys: &[u64]) {
        self.apply_batch(keys, -1);
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
        self.subtract_batch(&[other]);
    }

    /// Subtract several tables in one fused pass over the cells: each cell
    /// of `self` is loaded once and every subtrahend's matching cell is
    /// applied to it, instead of streaming the whole table through the cache
    /// once per subtrahend.
    ///
    /// # Panics
    /// Panics if any table has a different size, hash count or seed.
    pub fn subtract_batch(&mut self, others: &[&Iblt]) {
        for other in others {
            assert_eq!(self.cells.len(), other.cells.len(), "cell count mismatch");
            assert_eq!(self.hash_count, other.hash_count, "hash count mismatch");
            assert_eq!(self.seed, other.seed, "seed mismatch");
        }
        for (i, a) in self.cells.iter_mut().enumerate() {
            for other in others {
                let b = &other.cells[i];
                a.count -= b.count;
                a.key_sum ^= b.key_sum;
                a.hash_sum ^= b.hash_sum;
            }
        }
    }

    /// Peel a difference IBLT into its two sides, reporting a stuck decoder
    /// as an error.
    ///
    /// Worklist peeling: seed the worklist with every pure cell, then
    /// repeatedly pop one, report its key on the side given by the count's
    /// sign, remove the key from all its cells and push any cell that just
    /// became pure — no rescans of the full table. Extractions run in
    /// prefetched waves; see the [crate-level docs](crate).
    ///
    /// Returns [`PeelError::Stuck`] — carrying the partial decode — when the
    /// worklist drains while nonempty cells remain (the difference exceeds
    /// the peeling threshold, §8.1.1).
    pub fn try_peel(&self) -> Result<PeelResult, PeelError> {
        self.clone().try_peel_mut()
    }

    /// Destructive counterpart of [`Iblt::try_peel`]: peels *this* table
    /// in place instead of cloning it first. On success every cell is left
    /// empty; on [`PeelError::Stuck`] the unpeelable cells remain. Callers
    /// that already own a scratch difference table (see
    /// [`Iblt::diff_and_peel_batch`]) use this to skip the extra full-table
    /// copy [`Iblt::try_peel`] pays.
    pub fn try_peel_mut(&mut self) -> Result<PeelResult, PeelError> {
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
        let stuck_cells = cells.iter().filter(|c| !c.is_empty()).count();
        if stuck_cells == 0 {
            result.complete = true;
            Ok(result)
        } else {
            Err(PeelError::Stuck {
                partial: result,
                stuck_cells,
            })
        }
    }

    /// Peel a difference IBLT into its two sides.
    ///
    /// Convenience wrapper over [`Iblt::try_peel`] for callers that fold the
    /// stuck state into the [`PeelResult::complete`] flag.
    pub fn peel(&self) -> PeelResult {
        match self.try_peel() {
            Ok(result) => result,
            Err(PeelError::Stuck { partial, .. }) => partial,
        }
    }

    /// Destructive counterpart of [`Iblt::peel`]; see [`Iblt::try_peel_mut`].
    pub fn peel_mut(&mut self) -> PeelResult {
        match self.try_peel_mut() {
            Ok(result) => result,
            Err(PeelError::Stuck { partial, .. }) => partial,
        }
    }

    /// Convenience for the reconciliation protocols: build the difference of
    /// two sets' IBLTs and peel it.
    pub fn diff_and_peel(a: &Iblt, b: &Iblt) -> PeelResult {
        let mut d = a.clone();
        d.subtract_batch(&[b]);
        d.peel_mut()
    }

    /// Decode several independent `(minuend, subtrahend)` pairs in one call:
    /// for each pair the difference table is built through the fused
    /// [`Iblt::subtract_batch`] kernel directly into the scratch copy that
    /// the in-place peeler ([`Iblt::peel_mut`]) then consumes, so every pair
    /// costs exactly one table copy instead of the two that `clone` +
    /// `subtract` + borrowing [`Iblt::peel`] used to pay. Results are
    /// positionally identical to calling [`Iblt::diff_and_peel`] per pair.
    ///
    /// This is the decode path of the Strata estimator, whose 32 strata are
    /// subtracted and peeled pairwise in a single batch.
    pub fn diff_and_peel_batch(pairs: &[(&Iblt, &Iblt)]) -> Vec<PeelResult> {
        pairs
            .iter()
            .map(|&(a, b)| {
                let mut d = a.clone();
                d.subtract_batch(&[b]);
                d.peel_mut()
            })
            .collect()
    }

    // -----------------------------------------------------------------------
    // Reference path (the seed's per-element scalar implementation)
    // -----------------------------------------------------------------------

    /// The seed's scalar insert: per-call seed derivation and a per-key
    /// index allocation. Kept as ground truth for the batched-vs-scalar
    /// property tests. Produces exactly the same table state as
    /// [`Iblt::insert`].
    pub fn insert_reference(&mut self, key: u64) {
        self.apply_reference(key, 1);
    }

    /// Reference counterpart of [`Iblt::remove`]; see
    /// [`Iblt::insert_reference`].
    pub fn remove_reference(&mut self, key: u64) {
        self.apply_reference(key, -1);
    }

    fn apply_reference(&mut self, key: u64, delta: i64) {
        let p = self.partition_cells;
        let check = xxhash64(&key.to_le_bytes(), derive_seed(self.seed, CHECK_SALT));
        let idx: Vec<usize> = (0..self.hash_count as u64)
            .map(|i| {
                (i * p + xxhash64(&key.to_le_bytes(), derive_seed(self.seed, INDEX_SALT + i)) % p)
                    as usize
            })
            .collect();
        for i in idx {
            let cell = &mut self.cells[i];
            cell.count += delta;
            cell.key_sum ^= key;
            cell.hash_sum ^= check;
        }
    }

    /// The seed's peeling decoder: per-key index allocations, per-call seed
    /// derivations and a final full-table emptiness sweep. Same recovered
    /// sets and `complete` flag as [`Iblt::peel`]; kept as the oracle the
    /// wave peeler is tested against.
    pub fn peel_reference(&self) -> PeelResult {
        let reference_check =
            |t: &Iblt, key: u64| xxhash64(&key.to_le_bytes(), derive_seed(t.seed, CHECK_SALT));
        let reference_indices = |t: &Iblt, key: u64| -> Vec<usize> {
            let p = t.partition_cells;
            (0..t.hash_count as u64)
                .map(|i| {
                    (i * p + xxhash64(&key.to_le_bytes(), derive_seed(t.seed, INDEX_SALT + i)) % p)
                        as usize
                })
                .collect()
        };
        let reference_pure = |t: &Iblt, i: usize| {
            let c = &t.cells[i];
            (c.count == 1 || c.count == -1) && reference_check(t, c.key_sum) == c.hash_sum
        };

        let mut work = self.clone();
        let mut result = PeelResult::default();
        let mut queue: Vec<usize> = (0..work.cells.len())
            .filter(|&i| reference_pure(&work, i))
            .collect();

        while let Some(i) = queue.pop() {
            if !reference_pure(&work, i) {
                continue;
            }
            let key = work.cells[i].key_sum;
            let sign = work.cells[i].count;
            if sign == 1 {
                result.only_in_self.push(key);
            } else {
                result.only_in_other.push(key);
            }
            let check = reference_check(&work, key);
            let idx = reference_indices(&work, key);
            for j in idx {
                let cell = &mut work.cells[j];
                cell.count -= sign;
                cell.key_sum ^= key;
                cell.hash_sum ^= check;
                if reference_pure(&work, j) {
                    queue.push(j);
                }
            }
        }

        result.complete = work.cells.iter().all(Cell::is_empty);
        result
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
    fn insert_remove_round_trip_is_empty() {
        let mut t = Iblt::new(64, 3, 1);
        for k in 0..100u64 {
            t.insert(k + 1);
        }
        for k in 0..100u64 {
            t.remove(k + 1);
        }
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
    fn try_peel_reports_stuck_state_with_partial_decode() {
        let a: Vec<u64> = (1..=200).collect();
        let ta = build(&a, 12, 3, 3);
        match ta.try_peel() {
            Ok(r) => panic!("200 keys in 12 cells must not decode, got {} keys", r.len()),
            Err(PeelError::Stuck {
                partial,
                stuck_cells,
            }) => {
                assert!(stuck_cells > 0 && stuck_cells <= 12);
                assert!(!partial.complete);
                // Whatever was peeled must be genuine keys.
                for k in partial.all() {
                    assert!((1..=200).contains(&k), "fake key {k} peeled");
                }
                // The error folds into the legacy `complete` flag.
                assert_eq!(ta.peel(), partial);
            }
        }
    }

    #[test]
    fn try_peel_succeeds_on_decodable_table() {
        let a: Vec<u64> = (1..=10).collect();
        let ta = build(&a, 40, 3, 9);
        let result = ta.try_peel().expect("10 keys in 40 cells decode");
        assert!(result.complete);
        assert_eq!(result.len(), 10);
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
    fn batched_kernels_match_reference_path() {
        let keys: Vec<u64> = (0..137u64)
            .map(|i| i.wrapping_mul(0x9E3779B9) | 1)
            .collect();
        let mut batched = Iblt::new(97, 4, 11);
        batched.insert_batch(&keys);
        let mut scalar = Iblt::new(97, 4, 11);
        for &k in &keys {
            scalar.insert_reference(k);
        }
        assert_eq!(batched, scalar);
        batched.remove_batch(&keys[..40]);
        for &k in &keys[..40] {
            scalar.remove_reference(k);
        }
        assert_eq!(batched, scalar);
        // The wave peeler extracts in a different order than the seed's
        // peeler, but peeling is confluent: same sets, same completeness.
        let fast = batched.peel();
        let reference = batched.peel_reference();
        assert_eq!(fast.complete, reference.complete);
        let set = |v: &[u64]| v.iter().copied().collect::<HashSet<u64>>();
        assert_eq!(set(&fast.only_in_self), set(&reference.only_in_self));
        assert_eq!(set(&fast.only_in_other), set(&reference.only_in_other));
    }

    #[test]
    fn diff_and_peel_batch_matches_pairwise_calls() {
        let shapes: Vec<(Iblt, Iblt)> = (0..8u64)
            .map(|i| {
                let a: Vec<u64> = (1..=40 + 5 * i).collect();
                let b: Vec<u64> = (3 * i + 1..=60).collect();
                (build(&a, 50, 3, 100 + i), build(&b, 50, 3, 100 + i))
            })
            .collect();
        let pairs: Vec<(&Iblt, &Iblt)> = shapes.iter().map(|(a, b)| (a, b)).collect();
        let batch = Iblt::diff_and_peel_batch(&pairs);
        for (k, &(a, b)) in pairs.iter().enumerate() {
            assert_eq!(batch[k], Iblt::diff_and_peel(a, b), "pair {k} diverged");
        }
        // The in-place peeler drains the table it decodes.
        let mut d = pairs[0].0.clone();
        d.subtract(pairs[0].1);
        let direct = d.peel_mut();
        assert_eq!(direct, batch[0]);
        if direct.complete {
            assert!(d.cells().iter().all(|c| c.is_empty()));
        }
    }

    #[test]
    fn subtract_batch_matches_repeated_subtract() {
        let ta = build(&(1..=50).collect::<Vec<u64>>(), 40, 3, 5);
        let tb = build(&(20..=60).collect::<Vec<u64>>(), 40, 3, 5);
        let tc = build(&(55..=70).collect::<Vec<u64>>(), 40, 3, 5);
        let mut fused = ta.clone();
        fused.subtract_batch(&[&tb, &tc]);
        let mut serial = ta.clone();
        serial.subtract(&tb);
        serial.subtract(&tc);
        assert_eq!(fused, serial);
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
        assert_eq!(t.cell_count(), 1);
        assert_eq!(t.hash_count(), 1);
        t.insert(9);
        let r = t.try_peel().expect("one key in one cell decodes");
        assert_eq!(r.only_in_self, vec![9]);
    }

    #[test]
    fn try_new_reports_degenerate_shapes() {
        assert_eq!(Iblt::try_new(0, 3, 1).unwrap_err(), ShapeError::ZeroCells);
        assert_eq!(Iblt::try_new(8, 0, 1).unwrap_err(), ShapeError::ZeroHashes);
        let t = Iblt::try_new(8, 3, 1).expect("valid shape accepted");
        assert_eq!(t.cell_count(), 8);
        assert_eq!(t.hash_count(), 3);
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
        let r = t.try_peel().expect("a single key decodes");
        assert_eq!(r.only_in_self, vec![77], "the key was duplicated");
        assert!(r.only_in_other.is_empty());
    }
}
