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
//! # Peeling engines
//!
//! Peeling is memory-latency-bound on large tables: every extraction makes
//! `hash_count` random 24-byte probes, and once the table outgrows the L2
//! cache each probe is a DRAM round trip. Two engines share the same cell
//! layout (tables are bit-identical however they are peeled, so either side
//! of a reconciliation may use either engine):
//!
//! * the **wave peeler** ([`PeelStrategy::Wave`]) — 32 extractions hashed
//!   and prefetched per wave so their misses overlap; the right shape for
//!   tables that already fit in cache, and the PR-2 baseline the sub-table
//!   engine is gated against, and
//! * the **sub-table peeler** ([`PeelStrategy::SubTable`]) — the cell index
//!   space is partitioned into L2-sized shards; each shard's peel cascade
//!   runs entirely inside its cache-resident cell range, and an extraction
//!   whose other cell indices land in a different shard buffers those
//!   updates into that shard's *spill queue* (a sequential append) instead
//!   of taking the random DRAM miss. A shard drains its spill inbox before
//!   judging its own candidates — the discipline that keeps a key that goes
//!   pure in two shards at once from being extracted twice — and the passes
//!   repeat until no shard holds work. One final sequential sweep decides
//!   completeness. With the `parallel` feature, shards peel as independent
//!   units within a round (`protocol::par_map`), with the spill exchange
//!   and a duplicate-extraction fix-up at the round barrier.
//!
//! [`PeelStrategy::Auto`] (what [`Iblt::peel`]/[`Iblt::try_peel`] use)
//! dispatches by table size. Because peeling is confluent — the unpeelable
//! 2-core of the underlying hypergraph is unique — both engines recover
//! exactly the same element sets, report the same completeness, and leave a
//! stuck table in the same final state; `tests/subtable_equivalence.rs`
//! pins this for complete, stuck-partial and cross-shard-spill cases.
//! Confluence rests on the partitioned index mapping: hash function *i*
//! maps into its own disjoint `cells / hash_count` slice, so a key's cell
//! indices are always pairwise distinct and no cell can masquerade as pure
//! with the wrong sign.
//!
//! A third form moves the sharding into the *construction*:
//! [`SubtableIblt`] routes each key by a top-level hash to one of several
//! independent shard-sized mini-IBLTs — PBS's own element-grouping idea
//! applied to the table layout. There are no cross-shard edges at all, so
//! every probe of a shard's peel is cache-resident with zero spill
//! traffic, and the shards decode as fully independent units
//! (`SubtableIblt::try_peel_parallel` under the `parallel` feature). The
//! trade: it is a different layout — not cell-compatible with a flat
//! [`Iblt`] — and the binomial key split means a shard can run
//! proportionally hotter than the table average, so size it with slight
//! headroom over the flat ~2d rule. `BENCH_decode_path.json`'s gated
//! `iblt_peel_subtable` ratio measures this layout against the flat wave
//! peel at a deliberately TLB-hostile table size.
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
//! truth for the batched-vs-scalar property tests and the baseline the
//! `BENCH_decode_path.json` speedups are measured against.
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

/// Table size (in cells) at which [`PeelStrategy::Auto`] switches from the
/// wave peeler to the sub-table engine: below this the whole table
/// (24 bytes/cell) fits in a typical L2 and sharding only adds bookkeeping.
const SUBTABLE_MIN_CELLS: usize = 1 << 16;

/// Default sub-table shard size: 8192 cells × 24 B = 192 KiB of cells,
/// sized to sit in a typical L2 alongside the shard's candidate stack and
/// the spill queues being appended to.
pub const DEFAULT_SHARD_CELLS: usize = 1 << 13;

/// Which peeling engine [`Iblt::try_peel_mut_with`] runs.
///
/// Peeling is confluent (the unpeelable 2-core of the underlying hypergraph
/// is unique), so every strategy recovers the same element sets, reports
/// the same completeness and leaves a stuck table in the same final state —
/// the choice is purely a performance matter. See the
/// [crate-level docs](crate) for how the engines differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PeelStrategy {
    /// Choose by table size: tables of at least 2¹⁶ cells peel through
    /// cache-resident sub-tables (shards peeled concurrently when the
    /// `parallel` feature is on), smaller ones through the wave peeler.
    /// This is what [`Iblt::peel`] / [`Iblt::try_peel`] and their `_mut`
    /// forms use.
    Auto,
    /// The flat wave peeler: 32 extractions hashed and prefetched per wave
    /// over the unpartitioned table.
    Wave,
    /// Cache-resident sub-tables with cross-shard spill queues.
    SubTable {
        /// Cells per shard; rounded up to a power of two and clamped to at
        /// least 16. [`DEFAULT_SHARD_CELLS`] suits common L2 sizes. Tables
        /// that fit in a single shard fall back to the wave peeler.
        shard_cells: usize,
        /// Peel each round's ready shards as independent units over worker
        /// threads. Only meaningful with the `parallel` feature; without it
        /// the serial visit-pass engine runs.
        parallel: bool,
    },
}

/// A buffered cross-shard cell update: `key` (with `check`, its cached
/// check-hash) is toggled out of cell `cell` with sign `sign` when the
/// owning shard next drains its inbox. 24 bytes, so spill queues stream
/// densely instead of costing the random probe they replace.
#[derive(Debug, Clone, Copy)]
struct Spill {
    key: u64,
    check: u64,
    cell: u32,
    sign: i8,
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
    /// always pairwise distinct. Without this, a key whose two index hashes
    /// collide contributes ±2 to one cell, and such a cell plus one
    /// opposite-side key can masquerade as pure with the *wrong sign* — a
    /// "ghost" whose extraction corrupts the cascade and makes the decode
    /// order-dependent. Distinct indices eliminate ghosts, which is what
    /// makes peeling confluent and every peel engine exactly equivalent.
    partition_cells: u64,
}

/// Hint the cache that `cells[i]` is about to be touched. Used by the
/// peel engines to overlap the random-access misses of upcoming probes
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

    /// Indices of every cell with a ±1 count — the peeler's initial
    /// candidate list (full purity, including the check hash, is
    /// established when a candidate is popped), in ascending order. With the
    /// `parallel` feature the per-cell scan fans out over worker threads
    /// through [`protocol::par_map`]; output order is identical.
    fn candidate_cells(&self) -> Vec<usize> {
        let candidate = |i: &usize| matches!(self.cells[*i].count, 1 | -1);
        #[cfg(feature = "parallel")]
        {
            const CHUNK: usize = 8192;
            if self.cells.len() >= 2 * CHUNK {
                let ranges: Vec<(usize, usize)> = (0..self.cells.len())
                    .step_by(CHUNK)
                    .map(|s| (s, (s + CHUNK).min(self.cells.len())))
                    .collect();
                let lists = protocol::par_map(&ranges, |&(s, e)| {
                    (s..e).filter(candidate).collect::<Vec<usize>>()
                });
                return lists.concat();
            }
        }
        (0..self.cells.len()).filter(candidate).collect()
    }

    /// Peel a difference IBLT into its two sides, reporting a stuck decoder
    /// as an error.
    ///
    /// Worklist peeling: seed the worklist with every pure cell, then
    /// repeatedly pop one, report its key on the side given by the count's
    /// sign, remove the key from all its cells and push any cell that just
    /// became pure — no rescans of the full table. Runs the
    /// [`PeelStrategy::Auto`] engine choice; use [`Iblt::try_peel_with`] to
    /// pick one explicitly.
    ///
    /// Returns [`PeelError::Stuck`] — carrying the partial decode — when the
    /// worklist drains while nonempty cells remain (the difference exceeds
    /// the peeling threshold, §8.1.1).
    pub fn try_peel(&self) -> Result<PeelResult, PeelError> {
        self.clone().try_peel_mut()
    }

    /// [`Iblt::try_peel`] with an explicit engine choice.
    pub fn try_peel_with(&self, strategy: PeelStrategy) -> Result<PeelResult, PeelError> {
        self.clone().try_peel_mut_with(strategy)
    }

    /// Destructive counterpart of [`Iblt::try_peel`]: peels *this* table
    /// in place instead of cloning it first. On success every cell is left
    /// empty; on [`PeelError::Stuck`] the unpeelable cells remain. Callers
    /// that already own a scratch difference table (see
    /// [`Iblt::diff_and_peel_batch`]) use this to skip the extra full-table
    /// copy [`Iblt::try_peel`] pays.
    pub fn try_peel_mut(&mut self) -> Result<PeelResult, PeelError> {
        self.try_peel_mut_with(PeelStrategy::Auto)
    }

    /// [`Iblt::try_peel_mut`] with an explicit engine choice. Peeling is
    /// confluent, so every strategy produces the same result and final
    /// table state; see [`PeelStrategy`].
    pub fn try_peel_mut_with(&mut self, strategy: PeelStrategy) -> Result<PeelResult, PeelError> {
        match strategy {
            PeelStrategy::Auto => {
                if self.cells.len() >= SUBTABLE_MIN_CELLS {
                    self.peel_subtable_mut(DEFAULT_SHARD_CELLS, true)
                } else {
                    self.peel_wave_mut()
                }
            }
            PeelStrategy::Wave => self.peel_wave_mut(),
            PeelStrategy::SubTable {
                shard_cells,
                parallel,
            } => self.peel_subtable_mut(shard_cells, parallel),
        }
    }

    /// The flat wave peeling engine ([`PeelStrategy::Wave`]).
    fn peel_wave_mut(&mut self) -> Result<PeelResult, PeelError> {
        /// Keys extracted per wave. Extractions of *distinct* pure keys
        /// commute (every cell update is a `+=`/`^=`), so a whole wave's
        /// index hashes can be computed and its cell lines prefetched before
        /// any update lands — the random-access misses of up to
        /// `WAVE · hash_count` cells overlap instead of serializing key by
        /// key, which is where a peel over a larger-than-L2 table spends
        /// most of its time.
        const WAVE: usize = 32;

        let mut queue = self.candidate_cells();
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

    /// Sub-table peel entry point ([`PeelStrategy::SubTable`]): normalizes
    /// the shard size and falls back to the wave peeler when sharding
    /// cannot help (the table fits in one shard, or its cell indices do not
    /// fit the `u32`s the spill queues carry).
    fn peel_subtable_mut(
        &mut self,
        shard_cells: usize,
        parallel: bool,
    ) -> Result<PeelResult, PeelError> {
        let shard_cells = shard_cells.clamp(16, 1 << 30).next_power_of_two();
        let shard_shift = shard_cells.trailing_zeros();
        let shards = self.cells.len().div_ceil(shard_cells);
        if shards <= 1 || self.cells.len() > u32::MAX as usize {
            return self.peel_wave_mut();
        }
        #[cfg(feature = "parallel")]
        if parallel {
            return self.peel_subtable_rounds(shard_shift, shards);
        }
        let _ = parallel;
        self.peel_subtable_serial(shard_shift, shards)
    }

    /// The serial visit-pass sub-table engine.
    ///
    /// Shard `s` owns the contiguous cell range
    /// `[s << shard_shift, (s + 1) << shard_shift)`. Each pass visits the
    /// shards in order; a visit first drains the shard's spill inbox (the
    /// cross-shard updates buffered by earlier extractions), then runs the
    /// local peel cascade to exhaustion. Every random probe in the cascade
    /// lands inside the shard's cache-resident cell range; an update whose
    /// cell belongs to another shard is appended to that shard's inbox — a
    /// sequential write — instead of taking the random DRAM miss the flat
    /// peeler pays. Passes repeat until no shard holds work, then one
    /// sequential sweep decides completeness.
    ///
    /// Draining before peeling is what makes duplicate extraction
    /// impossible here without any dedupe: when a key goes pure in two
    /// cells at once, whichever cell's shard is visited first extracts it,
    /// and the resulting update reaches the second cell — directly if
    /// local, via the inbox drain if remote — before the second cell's now
    /// stale candidacy is re-examined.
    fn peel_subtable_serial(
        &mut self,
        shard_shift: u32,
        shards: usize,
    ) -> Result<PeelResult, PeelError> {
        let p = self.partition_cells;
        let check_seed = self.check_seed;
        let cells = &mut self.cells[..];
        let index_seeds = &self.index_seeds[..];

        // Per-shard candidate stacks: cells whose count sits at ±1. As in
        // the wave peeler, candidates are lazy — full purity (including the
        // check hash) is established when one is popped.
        let mut cand: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for (j, c) in cells.iter().enumerate() {
            if c.count == 1 || c.count == -1 {
                cand[j >> shard_shift].push(j as u32);
            }
        }
        let mut inbox: Vec<Vec<Spill>> = vec![Vec::new(); shards];
        let mut result = PeelResult {
            only_in_self: Vec::new(),
            only_in_other: Vec::new(),
            complete: false,
        };

        let mut draining: Vec<Spill> = Vec::new();
        loop {
            let mut did_work = false;
            for s in 0..shards {
                if inbox[s].is_empty() && cand[s].is_empty() {
                    continue;
                }
                did_work = true;
                // Drain the inbox first (see above). Swapped out through a
                // reused scratch vector so the cascade below can append new
                // spills to any shard, including a later visit of this one.
                std::mem::swap(&mut draining, &mut inbox[s]);
                // The first drains of a visit hit a still-cold shard;
                // pulling a few entries ahead overlaps those misses instead
                // of paying them one dependent load at a time.
                for (d, e) in draining.iter().enumerate() {
                    if let Some(ahead) = draining.get(d + 8) {
                        prefetch_cell(cells, ahead.cell as usize);
                    }
                    let cell = &mut cells[e.cell as usize];
                    cell.count -= e.sign as i64;
                    cell.key_sum ^= e.key;
                    cell.hash_sum ^= e.check;
                    if cell.count == 1 || cell.count == -1 {
                        cand[s].push(e.cell);
                    }
                }
                draining.clear();
                // Local cascade.
                while let Some(j) = cand[s].pop() {
                    let c = &cells[j as usize];
                    if c.count != 1 && c.count != -1 {
                        continue;
                    }
                    let key = c.key_sum;
                    let sign = c.count;
                    let check = xxhash64_u64(key, check_seed);
                    if check != c.hash_sum {
                        continue;
                    }
                    if sign == 1 {
                        result.only_in_self.push(key);
                    } else {
                        result.only_in_other.push(key);
                    }
                    for (h, &hs) in index_seeds.iter().enumerate() {
                        let t = (h as u64 * p + xxhash64_u64(key, hs) % p) as usize;
                        if t >> shard_shift == s {
                            let cell = &mut cells[t];
                            cell.count -= sign;
                            cell.key_sum ^= key;
                            cell.hash_sum ^= check;
                            if cell.count == 1 || cell.count == -1 {
                                cand[s].push(t as u32);
                            }
                        } else {
                            inbox[t >> shard_shift].push(Spill {
                                key,
                                check,
                                cell: t as u32,
                                sign: sign as i8,
                            });
                        }
                    }
                }
            }
            if !did_work {
                break;
            }
        }

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

    /// The round-parallel sub-table engine (`parallel` feature).
    ///
    /// Shards own the same disjoint cell ranges as in
    /// [`Iblt::peel_subtable_serial`], but within a round every shard with
    /// pending work peels independently on a worker thread
    /// (`protocol::par_map`): it drains the inbox snapshot it was handed,
    /// runs its local cascade, and returns its extractions plus outgoing
    /// spills. The spill exchange happens at the round barrier.
    ///
    /// Unlike the serial engine's visit discipline, two shards *can*
    /// extract the same key in the same round (a key pure in cells of two
    /// concurrently peeled shards). The barrier fixes that up: a key
    /// extracted `m` times was toggled out of each of its cells `m` times,
    /// so `m − 1` surplus applications are undone per cell — the updates
    /// commute, so ordering against still-queued spills is irrelevant — and
    /// one occurrence is kept in the result. Confluence then yields the
    /// same sets and final state as every other engine.
    #[cfg(feature = "parallel")]
    fn peel_subtable_rounds(
        &mut self,
        shard_shift: u32,
        shards: usize,
    ) -> Result<PeelResult, PeelError> {
        use std::collections::{HashMap, HashSet};

        /// What one shard produced in one round.
        struct ShardOut {
            /// `(key, sign, check)` of every extraction.
            extracted: Vec<(u64, i64, u64)>,
            /// Updates owed to cells of other shards.
            outgoing: Vec<Spill>,
        }
        /// Base pointer of the cell array, smuggled across the `par_map`
        /// closure boundary; each task touches only its own shard's range.
        /// Accessed through a method so the closure captures the Sync
        /// wrapper itself, not the bare pointer field.
        struct CellsPtr(*mut Cell);
        unsafe impl Sync for CellsPtr {}
        impl CellsPtr {
            fn base(&self) -> *mut Cell {
                self.0
            }
        }

        let p = self.partition_cells;
        let total = self.cells.len();
        let check_seed = self.check_seed;
        let index_seeds: Vec<u64> = self.index_seeds.clone();

        let mut cand: Vec<Vec<u32>> = vec![Vec::new(); shards];
        for (j, c) in self.cells.iter().enumerate() {
            if c.count == 1 || c.count == -1 {
                cand[j >> shard_shift].push(j as u32);
            }
        }
        let mut inbox: Vec<Vec<Spill>> = vec![Vec::new(); shards];
        let mut result = PeelResult {
            only_in_self: Vec::new(),
            only_in_other: Vec::new(),
            complete: false,
        };

        loop {
            let mut active: Vec<(usize, Vec<u32>, Vec<Spill>)> = Vec::new();
            for s in 0..shards {
                if !cand[s].is_empty() || !inbox[s].is_empty() {
                    active.push((
                        s,
                        std::mem::take(&mut cand[s]),
                        std::mem::take(&mut inbox[s]),
                    ));
                }
            }
            if active.is_empty() {
                break;
            }
            let ptr = CellsPtr(self.cells.as_mut_ptr());
            let seeds = &index_seeds;
            let outs: Vec<ShardOut> = protocol::par_map(&active, |(s, cand0, inbox0)| {
                let s = *s;
                let lo = s << shard_shift;
                let hi = ((s + 1) << shard_shift).min(total);
                // SAFETY: each active shard appears exactly once per round
                // and this task writes only cells in `[lo, hi)`; shard
                // ranges are disjoint and no other reference to the cell
                // array is live while the round runs.
                let shard: &mut [Cell] =
                    unsafe { std::slice::from_raw_parts_mut(ptr.base().add(lo), hi - lo) };
                let mut out = ShardOut {
                    extracted: Vec::new(),
                    outgoing: Vec::new(),
                };
                let mut work: Vec<u32> = cand0.clone();
                for &e in inbox0 {
                    let cell = &mut shard[e.cell as usize - lo];
                    cell.count -= e.sign as i64;
                    cell.key_sum ^= e.key;
                    cell.hash_sum ^= e.check;
                    if cell.count == 1 || cell.count == -1 {
                        work.push(e.cell);
                    }
                }
                while let Some(j) = work.pop() {
                    let c = &shard[j as usize - lo];
                    if c.count != 1 && c.count != -1 {
                        continue;
                    }
                    let key = c.key_sum;
                    let sign = c.count;
                    let check = xxhash64_u64(key, check_seed);
                    if check != c.hash_sum {
                        continue;
                    }
                    out.extracted.push((key, sign, check));
                    for (h, &hs) in seeds.iter().enumerate() {
                        let t = (h as u64 * p + xxhash64_u64(key, hs) % p) as usize;
                        if t >> shard_shift as usize == s {
                            let cell = &mut shard[t - lo];
                            cell.count -= sign;
                            cell.key_sum ^= key;
                            cell.hash_sum ^= check;
                            if cell.count == 1 || cell.count == -1 {
                                work.push(t as u32);
                            }
                        } else {
                            out.outgoing.push(Spill {
                                key,
                                check,
                                cell: t as u32,
                                sign: sign as i8,
                            });
                        }
                    }
                }
                out
            });

            // Round barrier: count how many shards extracted each key, keep
            // one occurrence, undo the surplus applications.
            let mut times: HashMap<u64, u32> = HashMap::new();
            let mut any_dup = false;
            for out in &outs {
                for &(key, _, _) in &out.extracted {
                    let t = times.entry(key).or_insert(0);
                    *t += 1;
                    any_dup |= *t > 1;
                }
            }
            let mut emitted: HashSet<u64> = HashSet::new();
            for out in outs {
                for (key, sign, check) in out.extracted {
                    if any_dup && times[&key] > 1 && !emitted.insert(key) {
                        // Surplus extraction of a key already reported this
                        // round: undo one application to each of its cells.
                        for (h, &hs) in index_seeds.iter().enumerate() {
                            let t = (h as u64 * p + xxhash64_u64(key, hs) % p) as usize;
                            let cell = &mut self.cells[t];
                            cell.count += sign;
                            cell.key_sum ^= key;
                            cell.hash_sum ^= check;
                            if cell.count == 1 || cell.count == -1 {
                                cand[t >> shard_shift].push(t as u32);
                            }
                        }
                        continue;
                    }
                    if sign == 1 {
                        result.only_in_self.push(key);
                    } else {
                        result.only_in_other.push(key);
                    }
                }
                for e in out.outgoing {
                    inbox[(e.cell as usize) >> shard_shift].push(e);
                }
            }
        }

        let stuck_cells = self.cells.iter().filter(|c| !c.is_empty()).count();
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
    /// index allocation. Kept as the baseline the `BENCH_decode_path.json`
    /// speedups are measured against and as ground truth for the
    /// batched-vs-scalar property tests. Produces exactly the same table
    /// state as [`Iblt::insert`].
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
    /// sets and `complete` flag as [`Iblt::peel`]; kept as the
    /// `BENCH_decode_path.json` baseline.
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

/// Seed-derivation label of [`SubtableIblt`]'s top-level routing hash.
const SHARD_SALT: u64 = 0x5AB7AB1E;

/// An IBLT *built* as cache-resident sub-tables: elements are grouped by a
/// top-level hash into fixed-size shards — independent mini-IBLTs over
/// disjoint cell ranges — so no peel cascade ever leaves its shard.
///
/// [`PeelStrategy::SubTable`] accelerates peeling a *flat* table by
/// buffering its cross-shard updates in spill queues; this type removes
/// those updates at construction instead. All `hash_count` cells of a key
/// live in the key's home shard, so every probe of a peel is L2-resident
/// no matter how large the whole table grows, and the shards are
/// independently peelable — serially in any order, or in parallel with
/// zero coordination (`SubtableIblt::try_peel_parallel`, `parallel`
/// feature).
///
/// The layout is part of the code, not of the decoder: two parties must
/// agree on `(cells, hash_count, seed, shard_cells)` for
/// [`SubtableIblt::subtract`] to be meaningful — exactly as they already
/// must agree on a flat table's shape — and a sharded table is *not*
/// cell-compatible with a flat [`Iblt`]. Routing is binomial, so per-shard
/// occupancy fluctuates around the mean; sharded decoding therefore wants
/// a few percent more cell headroom than one flat table of the same total
/// size (see `docs/PERF.md`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtableIblt {
    shards: Vec<Iblt>,
    shard_cells: usize,
    shard_seed: u64,
}

impl SubtableIblt {
    /// Build an empty sharded table of at least `cells` total cells, split
    /// into shards of `shard_cells` (clamped to at least 16; the total is
    /// rounded up to a whole number of shards). Each shard is a flat
    /// [`Iblt`] under a seed derived from `seed` and its position, so two
    /// tables built with equal parameters are cell-compatible.
    pub fn new(cells: usize, hash_count: u32, seed: u64, shard_cells: usize) -> Self {
        let shard_cells = shard_cells
            .clamp(16, 1 << 30)
            .max(hash_count.max(1) as usize);
        let shards = cells.div_ceil(shard_cells).max(1);
        Self {
            shards: (0..shards)
                .map(|i| {
                    Iblt::new(
                        shard_cells,
                        hash_count,
                        derive_seed(seed, SHARD_SALT ^ i as u64),
                    )
                })
                .collect(),
            shard_cells,
            shard_seed: derive_seed(seed, SHARD_SALT),
        }
    }

    /// Total number of cells across all shards.
    pub fn cell_count(&self) -> usize {
        self.shards.len() * self.shard_cells
    }

    /// Number of shards (independent mini-IBLTs).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Cells per shard.
    pub fn shard_cells(&self) -> usize {
        self.shard_cells
    }

    /// The shard `key` routes to.
    fn route(&self, key: u64) -> usize {
        (xxhash64_u64(key, self.shard_seed) % self.shards.len() as u64) as usize
    }

    /// Insert one key into its home shard.
    pub fn insert(&mut self, key: u64) {
        let s = self.route(key);
        self.shards[s].insert(key);
    }

    /// Remove one key from its home shard.
    pub fn remove(&mut self, key: u64) {
        let s = self.route(key);
        self.shards[s].remove(key);
    }

    /// Insert a slice of keys.
    pub fn insert_batch(&mut self, keys: &[u64]) {
        for &k in keys {
            self.insert(k);
        }
    }

    /// Remove a slice of keys.
    pub fn remove_batch(&mut self, keys: &[u64]) {
        for &k in keys {
            self.remove(k);
        }
    }

    /// Shard-wise subtraction: afterwards `self` encodes the symmetric
    /// difference of the two original sets.
    ///
    /// # Panics
    /// Panics if the tables disagree on shard count or any shard shape
    /// (cells, hash count, seed) — differently-shaped sharded tables do
    /// not encode comparable layouts.
    pub fn subtract(&mut self, other: &SubtableIblt) {
        assert_eq!(
            self.shards.len(),
            other.shards.len(),
            "shard count mismatch"
        );
        for (a, b) in self.shards.iter_mut().zip(&other.shards) {
            a.subtract(b);
        }
    }

    /// Peel every shard in place and aggregate: the recovered sets are the
    /// concatenation of the per-shard decodes in shard order, `Ok` iff
    /// every shard decoded completely. On `Err`, the partial result holds
    /// everything every shard recovered and `stuck_cells` sums the
    /// leftovers.
    pub fn try_peel_mut(&mut self) -> Result<PeelResult, PeelError> {
        let mut agg = PeelResult {
            only_in_self: Vec::new(),
            only_in_other: Vec::new(),
            complete: true,
        };
        let mut stuck = 0usize;
        for shard in &mut self.shards {
            let partial = match shard.try_peel_mut() {
                Ok(r) => r,
                Err(PeelError::Stuck {
                    partial,
                    stuck_cells,
                }) => {
                    stuck += stuck_cells;
                    partial
                }
            };
            agg.only_in_self.extend(partial.only_in_self);
            agg.only_in_other.extend(partial.only_in_other);
        }
        if stuck == 0 {
            Ok(agg)
        } else {
            agg.complete = false;
            Err(PeelError::Stuck {
                partial: agg,
                stuck_cells: stuck,
            })
        }
    }

    /// Non-destructive [`SubtableIblt::try_peel_mut`] (peels a clone).
    pub fn try_peel(&self) -> Result<PeelResult, PeelError> {
        self.clone().try_peel_mut()
    }

    /// Peel all shards concurrently over worker threads and aggregate in
    /// shard order. Bit-for-bit the same result as
    /// [`SubtableIblt::try_peel`]: shards share no cells, so their decodes
    /// compose without any cross-shard coordination — this is the layout's
    /// whole point.
    #[cfg(feature = "parallel")]
    pub fn try_peel_parallel(&self) -> Result<PeelResult, PeelError> {
        let per_shard = protocol::par_map(&self.shards, |shard| shard.try_peel());
        let mut agg = PeelResult {
            only_in_self: Vec::new(),
            only_in_other: Vec::new(),
            complete: true,
        };
        let mut stuck = 0usize;
        for r in per_shard {
            let partial = match r {
                Ok(r) => r,
                Err(PeelError::Stuck {
                    partial,
                    stuck_cells,
                }) => {
                    stuck += stuck_cells;
                    partial
                }
            };
            agg.only_in_self.extend(partial.only_in_self);
            agg.only_in_other.extend(partial.only_in_other);
        }
        if stuck == 0 {
            Ok(agg)
        } else {
            agg.complete = false;
            Err(PeelError::Stuck {
                partial: agg,
                stuck_cells: stuck,
            })
        }
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

    /// Find `(seed, key)` such that the key's cells in a `cells`-cell,
    /// 2-hash table are two *distinct* indices for which `pred` holds —
    /// i.e. inserting just that key leaves it pure in two cells at once,
    /// the layout that would corrupt the table if extracted twice.
    fn doubly_pure_layout(cells: usize, pred: impl Fn(usize, usize) -> bool) -> (u64, u64) {
        for seed in 0..1000u64 {
            for key in 1..200u64 {
                let mut t = Iblt::new(cells, 2, seed);
                t.insert(key);
                let pure: Vec<usize> = (0..t.cell_count())
                    .filter(|&i| t.cells()[i].count == 1)
                    .collect();
                if pure.len() == 2 && pred(pure[0], pure[1]) {
                    return (seed, key);
                }
            }
        }
        panic!("no doubly-pure layout found");
    }

    #[test]
    fn doubly_pure_key_is_extracted_once() {
        // Regression: a key pure in two cells simultaneously must be
        // extracted exactly once — a second extraction would double-XOR it
        // back into its cells and corrupt the cascade. Pin the behavior on
        // every engine.
        let (seed, key) = doubly_pure_layout(32, |_, _| true);
        let strategies = [
            PeelStrategy::Wave,
            PeelStrategy::SubTable {
                shard_cells: 16,
                parallel: false,
            },
            PeelStrategy::SubTable {
                shard_cells: 16,
                parallel: true,
            },
        ];
        for strat in strategies {
            let mut t = Iblt::new(32, 2, seed);
            t.insert(key);
            let r = t
                .try_peel_with(strat)
                .unwrap_or_else(|e| panic!("{strat:?} stuck on doubly-pure key: {e}"));
            assert_eq!(r.only_in_self, vec![key], "{strat:?} duplicated the key");
            assert!(r.only_in_other.is_empty());
        }
    }

    #[test]
    fn doubly_pure_key_across_shards_is_extracted_once() {
        // Same regression with the two pure cells in *different* shards
        // (shard size 16, cells 32 → shard boundary at index 16), so the
        // second cell's update travels through the cross-shard spill queue.
        let (seed, key) = doubly_pure_layout(32, |a, b| (a < 16) != (b < 16));
        for parallel in [false, true] {
            let mut t = Iblt::new(32, 2, seed);
            t.insert(key);
            let r = t
                .try_peel_with(PeelStrategy::SubTable {
                    shard_cells: 16,
                    parallel,
                })
                .expect("cross-shard doubly-pure key decodes");
            assert_eq!(r.only_in_self, vec![key]);
            assert!(r.only_in_other.is_empty());
        }
    }

    #[test]
    fn sharded_layout_decodes_a_difference() {
        let a: Vec<u64> = (1..=2000).collect();
        let b: Vec<u64> = (101..=2100).collect();
        let mut ta = SubtableIblt::new(600, 3, 42, 64);
        let mut tb = SubtableIblt::new(600, 3, 42, 64);
        ta.insert_batch(&a);
        tb.insert_batch(&b);
        ta.subtract(&tb);
        let peel = ta.try_peel_mut().expect("difference decodes");
        assert!(peel.complete);
        let only_a: HashSet<u64> = peel.only_in_self.iter().copied().collect();
        let only_b: HashSet<u64> = peel.only_in_other.iter().copied().collect();
        assert_eq!(only_a, (1..=100).collect::<HashSet<u64>>());
        assert_eq!(only_b, (2001..=2100).collect::<HashSet<u64>>());
    }

    #[test]
    fn sharded_layout_insert_remove_round_trip_is_empty() {
        let mut t = SubtableIblt::new(512, 4, 9, 64);
        let ks: Vec<u64> = (1..=300).collect();
        t.insert_batch(&ks);
        t.remove_batch(&ks);
        assert_eq!(t, SubtableIblt::new(512, 4, 9, 64));
    }

    #[test]
    fn sharded_layout_equal_params_are_cell_compatible() {
        // Two independently built tables with equal parameters must cancel
        // exactly under subtraction — the layout (routing + per-shard
        // seeds) is fully determined by the constructor arguments.
        let ks: Vec<u64> = (1..=500).collect();
        let mut ta = SubtableIblt::new(2048, 4, 1234, 128);
        let mut tb = SubtableIblt::new(2048, 4, 1234, 128);
        ta.insert_batch(&ks);
        tb.insert_batch(&ks);
        ta.subtract(&tb);
        assert_eq!(ta, SubtableIblt::new(2048, 4, 1234, 128));
    }

    #[test]
    #[should_panic(expected = "shard count mismatch")]
    fn sharded_layout_shape_mismatch_panics() {
        let mut a = SubtableIblt::new(512, 4, 9, 64);
        let b = SubtableIblt::new(1024, 4, 9, 64);
        a.subtract(&b);
    }

    #[test]
    fn sharded_layout_degenerate_params_are_clamped() {
        // Zero-ish shapes must clamp instead of dividing by zero, like
        // `Iblt::new`.
        let mut t = SubtableIblt::new(0, 0, 7, 0);
        assert!(t.shard_count() >= 1);
        t.insert(9);
        let r = t.try_peel_mut().expect("single key decodes");
        assert_eq!(r.only_in_self, vec![9]);
    }
}
