//! BCH syndrome sketches for set reconciliation.
//!
//! Both PBS (the paper's contribution) and PinSketch (its strongest
//! ECC-based baseline) boil down to the same primitive: a *syndrome sketch*
//! of a set of nonzero elements of GF(2^m). The sketch of a set
//! `S ⊆ GF(2^m)\{0}` is the vector of odd power sums
//!
//! ```text
//!   sketch(S) = ( Σ_{x∈S} x,  Σ_{x∈S} x^3,  …,  Σ_{x∈S} x^(2t−1) )
//! ```
//!
//! which is `t` field elements, i.e. `t·m` bits — exactly the BCH codeword
//! ξ_A of §2.5 ("to correct up to t bit errors, ξ_A only needs to be
//! t⌈log2(n+1)⌉ bits long"). Because addition is XOR, the sketch is linear:
//! `sketch(A) ⊕ sketch(B) = sketch(A△B)`, so Bob can combine Alice's sketch
//! with his own and decode the *difference* directly.
//!
//! Decoding uses the classical BCH pipeline:
//!
//! 1. Berlekamp–Massey on the `t` odd syndromes to find the error-locator
//!    polynomial (O(t²) field operations — this is the O(d²)/O(δ²) decoding
//!    cost the paper analyses; the Toeplitz/Levinson solver it cites has the
//!    same quadratic cost). The even syndromes follow from the
//!    characteristic-2 identity `S_{2k} = S_k²`, which also makes every
//!    second step of the algorithm a no-op,
//! 2. find the locator's roots. A codec that holds syndrome columns (below:
//!    every plan the service makes) evaluates the locator at every
//!    candidate `g^0, g^1, …, g^(n−1)` in one bit-sliced pass
//!    ([`gf::Field::roots_in_planes`]) and takes the roots in that order,
//!    the order of a Chien search. Any other codec (PinSketch's m = 32, a
//!    one-round PBS plan whose `n·t` outgrows the column bound) runs the
//!    Berlekamp trace algorithm. Either way a locator that does not split
//!    into distinct roots is refused,
//! 3. validate the result by re-computing the syndromes of the recovered
//!    difference; any mismatch is reported as a [`DecodeError`], which is the
//!    "BCH decoding failure" exception of §3.2.
//!
//! # Syndrome columns
//!
//! Over a table-backed field whose `n·t` fits [`COLUMN_TABLE_ENTRIES`] — every
//! parity-bitmap size PBS plans at r ≥ 2, `n = 63 … 2047` — a [`BchCodec`]
//! builds once, at construction, the column `H[p] = (p, p³, …, p^(2t−1))` of
//! every position `p`, and sketching a set is the XOR of its columns
//! ([`BchCodec::sketch_slice`]). The same codec builds the bit-sliced
//! powers `g^(js)`, `j ≤ t`, of every candidate its locators are evaluated
//! at ([`gf::PowerPlanes`]). Any other codec (PinSketch's GF(2³²), a
//! one-round PBS plan whose `n·t` outgrows the bound) steps the odd-power
//! ladder per element instead, four elements at a time; the ladder, one
//! element at a time ([`Sketch::add`]), is also the column table's oracle.
//!
//! # Example
//!
//! ```
//! use bch::BchCodec;
//!
//! let codec = BchCodec::new(8, 5); // n = 255 bins, correct up to 5 differences
//! let mut alice = codec.empty_sketch();
//! let mut bob = codec.empty_sketch();
//! for p in [1u64, 17, 200, 93] {
//!     alice.add(p, codec.field());
//! }
//! for p in [17u64, 200] {
//!     bob.add(p, codec.field());
//! }
//! let mut diff = alice.clone();
//! diff.combine(&bob);
//! let mut positions = codec.decode(&diff).unwrap();
//! positions.sort_unstable();
//! assert_eq!(positions, vec![1, 93]);
//! ```

#![warn(missing_docs)]

mod berlekamp;
mod roots;

use berlekamp::{berlekamp_massey, BmScratch};
use gf::{Field, Poly, PowerPlanes};
use roots::find_roots;
use std::sync::Arc;

/// Reasons a syndrome sketch can fail to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// The number of differences exceeds the sketch capacity `t`, or the
    /// syndrome sequence is otherwise inconsistent with any difference set of
    /// size ≤ t (the §3.2 "BCH decoding failure" exception).
    TooManyDifferences,
    /// The locator polynomial did not split into distinct roots in the field;
    /// also indicates an over-capacity or corrupted sketch.
    LocatorNotSplitting,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::TooManyDifferences => {
                write!(f, "sketch does not decode: difference exceeds capacity t")
            }
            DecodeError::LocatorNotSplitting => {
                write!(
                    f,
                    "sketch does not decode: locator polynomial has no full root set"
                )
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// A syndrome sketch: `t` odd power sums over GF(2^m).
///
/// The sketch is a plain value; all arithmetic goes through the owning
/// [`BchCodec`] (or an explicit [`Field`]) so sketches can be freely
/// serialized, stored, and XOR-combined.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Sketch {
    syndromes: Vec<u64>,
}

impl Sketch {
    /// Create an all-zero sketch with capacity `t`.
    pub fn zero(t: usize) -> Self {
        Sketch {
            syndromes: vec![0u64; t],
        }
    }

    /// Sketch capacity `t` (maximum number of decodable differences).
    pub fn capacity(&self) -> usize {
        self.syndromes.len()
    }

    /// Raw odd syndromes `S_1, S_3, …, S_{2t−1}`.
    pub fn syndromes(&self) -> &[u64] {
        &self.syndromes
    }

    /// `true` if every syndrome is zero (an empty difference — note a
    /// *nonempty* difference can also produce an all-zero sketch only if it
    /// exceeds the capacity, which the checksum layer above PBS catches).
    pub(crate) fn is_zero(&self) -> bool {
        self.syndromes.iter().all(|&s| s == 0)
    }

    /// Toggle `element` in the sketched set. Adding the same element twice
    /// cancels out, which is exactly the behaviour set reconciliation needs.
    ///
    /// `element` must be a nonzero field element (the all-zero element is
    /// excluded from the universe, §2.1).
    pub fn add(&mut self, element: u64, field: &Field) {
        ladder(&mut self.syndromes, element, field);
    }

    /// XOR-combine with another sketch of the same capacity: the result is
    /// the sketch of the symmetric difference of the two sketched sets.
    pub fn combine(&mut self, other: &Sketch) {
        assert_eq!(
            self.syndromes.len(),
            other.syndromes.len(),
            "cannot combine sketches with different capacities"
        );
        for (a, b) in self.syndromes.iter_mut().zip(&other.syndromes) {
            *a ^= *b;
        }
    }

    /// A sketch of the given raw syndromes over GF(2^m) — what a transport
    /// hands back after unpacking them ([`Sketch::syndromes`] is the other
    /// direction). `None` if `m` is outside `1..=64` or any value has bits
    /// at or above `m` set (an out-of-field element a peer could otherwise
    /// smuggle into the decoder).
    pub fn from_syndromes(syndromes: Vec<u64>, m: u32) -> Option<Self> {
        if m == 0 || m > 64 {
            return None;
        }
        let in_field = |&s: &u64| m == 64 || s >> m == 0;
        syndromes
            .iter()
            .all(in_field)
            .then_some(Sketch { syndromes })
    }

    /// Exact wire size of the sketch in bits: `t · m`.
    pub fn wire_bits(&self, m: u32) -> u64 {
        self.syndromes.len() as u64 * m as u64
    }
}

/// One element's odd-power ladder, XORed into `syndromes`.
fn ladder(syndromes: &mut [u64], element: u64, field: &Field) {
    debug_assert!(element != 0, "cannot sketch the zero element");
    debug_assert!(field.contains(element));
    let sq = field.square(element);
    let mut power = element; // element^(2i+1), starting at i = 0
    for s in syndromes {
        *s ^= power;
        power = field.mul(power, sq);
    }
}

/// The batched syndrome ladder: four elements advance through their
/// odd-power ladders together (`x, x^3, x^5, …` each stepping by `x^2`), so
/// the four field multiplications per syndrome row are independent and the
/// backend dispatch in [`Field::mul_slice`] is paid once per row instead of
/// once per multiplication. Equivalent to one [`ladder`] per element; what
/// [`BchCodec::sketch_slice`] runs on a field too large for a column table.
fn ladder_batch(syndromes: &mut [u64], elements: &[u64], field: &Field) {
    let t = syndromes.len();
    let mut chunks = elements.chunks_exact(4);
    for chunk in &mut chunks {
        debug_assert!(chunk.iter().all(|&e| e != 0 && field.contains(e)));
        let mut powers = [chunk[0], chunk[1], chunk[2], chunk[3]];
        let mut squares = powers;
        field.square_slice(&mut squares);
        for (i, s) in syndromes.iter_mut().enumerate() {
            *s ^= powers[0] ^ powers[1] ^ powers[2] ^ powers[3];
            if i + 1 < t {
                field.mul_slice(&mut powers, &squares);
            }
        }
    }
    for &e in chunks.remainder() {
        ladder(syndromes, e, field);
    }
}

/// Most entries (`n·t`, two bytes each) a codec's syndrome-column table may
/// hold: 256 KiB. Every parity-bitmap size PBS plans fits (`n = 2047` up to
/// `t = 64`); a field that does not — or has no log tables — sketches by
/// ladder.
pub const COLUMN_TABLE_ENTRIES: usize = 1 << 17;

/// The syndrome columns of a codec over a table-backed field whose `n·t`
/// fits [`COLUMN_TABLE_ENTRIES`]: row `p` (`t` entries from `p·t`) is
/// `H[p] = (p, p³, …, p^(2t−1))`, at the field's own width (`m ≤ 16`); row 0
/// is zero.
fn column_table(field: &Field, t: usize) -> Option<Arc<Vec<u16>>> {
    let order = field.order() as usize;
    if field.generator().is_none() || (order - 1) * t > COLUMN_TABLE_ENTRIES {
        return None;
    }
    let mut columns = vec![0u16; order * t];
    for (p, column) in columns.chunks_exact_mut(t).enumerate().skip(1) {
        let sq = field.square(p as u64);
        let mut power = p as u64;
        for entry in column {
            *entry = power as u16;
            power = field.mul(power, sq);
        }
    }
    Some(Arc::new(columns))
}

/// Working storage of [`BchCodec::decode_with`]: the syndrome expansion and
/// Berlekamp–Massey's polynomials (the locator among them), the recovered
/// elements and the verifying sketch. One per worker; it grows to the
/// largest decode it has served and is reused as is.
#[derive(Debug, Default)]
pub struct DecodeScratch {
    bm: BmScratch,
    elements: Vec<u64>,
    check: Vec<u64>,
}

/// Encoder/decoder for syndrome sketches over GF(2^m) with capacity `t`.
#[derive(Debug, Clone)]
pub struct BchCodec {
    field: Arc<Field>,
    t: usize,
    /// See [`column_table`]; `None` sketches by ladder.
    columns: Option<Arc<Vec<u16>>>,
    /// The powers locators are evaluated over, present iff `columns` is;
    /// `None` finds roots by trace.
    planes: Option<Arc<PowerPlanes>>,
}

impl BchCodec {
    /// Create a codec over GF(2^m) with capacity `t`.
    ///
    /// For PBS, `m = log2(n+1)` where `n = 2^m − 1` is the parity-bitmap
    /// length; for PinSketch, `m = log|U|`.
    pub fn new(m: u32, t: usize) -> Self {
        Self::with_field(Arc::new(Field::new(m)), t)
    }

    /// Create a codec sharing an existing field (avoids rebuilding log tables).
    pub(crate) fn with_field(field: Arc<Field>, t: usize) -> Self {
        assert!(t > 0, "sketch capacity t must be positive");
        let columns = column_table(&field, t);
        BchCodec {
            planes: columns
                .as_ref()
                .and_then(|_| field.power_planes(t))
                .map(Arc::new),
            columns,
            field,
            t,
        }
    }

    /// The underlying field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// An all-zero sketch.
    pub fn empty_sketch(&self) -> Sketch {
        Sketch::zero(self.t)
    }

    /// Toggle every element of `elements` (nonzero field elements) in
    /// `syndromes`: the XOR of their syndrome columns where the codec holds
    /// a column table (see the [crate docs](crate#syndrome-columns)), the
    /// batched ladder where the field is too large for one. Same sketch
    /// either way.
    fn toggle(&self, syndromes: &mut [u64], elements: &[u64]) {
        let Some(columns) = &self.columns else {
            return ladder_batch(syndromes, elements, &self.field);
        };
        let t = self.t;
        for &e in elements {
            debug_assert!(e != 0, "cannot sketch the zero element");
            let column = &columns[e as usize * t..][..t];
            for (s, &power) in syndromes.iter_mut().zip(column) {
                *s ^= power as u64;
            }
        }
    }

    /// Sketch a whole set of nonzero field elements.
    pub fn sketch_set(&self, elements: impl IntoIterator<Item = u64>) -> Sketch {
        let mut s = self.empty_sketch();
        let mut buf = [0u64; 64];
        let mut n = 0;
        for e in elements {
            buf[n] = e;
            n += 1;
            if n == buf.len() {
                self.toggle(&mut s.syndromes, &buf);
                n = 0;
            }
        }
        self.toggle(&mut s.syndromes, &buf[..n]);
        s
    }

    /// Sketch a slice of nonzero field elements (no iterator buffering).
    pub fn sketch_slice(&self, elements: &[u64]) -> Sketch {
        let mut s = self.empty_sketch();
        self.toggle(&mut s.syndromes, elements);
        s
    }

    /// Decode a (difference) sketch into the set of sketched elements.
    ///
    /// Returns the elements in unspecified order, or a [`DecodeError`] if the
    /// difference does not fit in the capacity (or the sketch is otherwise
    /// undecodable). A successful return is *verified*: the syndromes of the
    /// returned set are recomputed and compared against the input sketch.
    ///
    /// Allocates its working storage; a caller decoding many sketches keeps
    /// a [`DecodeScratch`] and calls [`BchCodec::decode_with`].
    pub fn decode(&self, sketch: &Sketch) -> Result<Vec<u64>, DecodeError> {
        let mut scratch = DecodeScratch::default();
        self.decode_with(sketch, &mut scratch).map(<[u64]>::to_vec)
    }

    /// [`BchCodec::decode`] out of a caller-owned scratch: the same result,
    /// element for element, borrowed from `scratch` until its next use.
    pub fn decode_with<'s>(
        &self,
        sketch: &Sketch,
        scratch: &'s mut DecodeScratch,
    ) -> Result<&'s [u64], DecodeError> {
        assert_eq!(sketch.capacity(), self.t, "sketch capacity mismatch");
        let f = &*self.field;
        let DecodeScratch {
            bm,
            elements,
            check,
        } = scratch;
        elements.clear();
        if sketch.is_zero() {
            return Ok(elements);
        }

        // Berlekamp–Massey on S_1..S_2t; the locator's degree is that of
        // its highest nonzero coefficient (Λ_0 = 1).
        let length = berlekamp_massey(&sketch.syndromes, f, bm);
        let degree = bm.c[..=length].iter().rposition(|&c| c != 0).unwrap_or(0);
        if degree == 0 || degree > self.t {
            return Err(DecodeError::TooManyDifferences);
        }
        self.locate(&bm.c[..=degree], elements)?;

        // Verify: the recovered set must reproduce the sketch exactly —
        // whatever path found it, and whoever made the syndromes up.
        check.clear();
        check.resize(self.t, 0);
        self.toggle(check, elements);
        if *check != sketch.syndromes {
            return Err(DecodeError::TooManyDifferences);
        }
        Ok(elements)
    }

    /// The elements whose inverses are the roots of `locator` (ascending
    /// coefficients, `Λ_0 = 1`, leading coefficient nonzero), pushed onto
    /// the empty `elements` in the order a Chien search meets the roots;
    /// an error unless it splits into distinct nonzero roots.
    fn locate(&self, locator: &[u64], elements: &mut Vec<u64>) -> Result<(), DecodeError> {
        let f = &*self.field;
        match &self.planes {
            Some(planes) => f.roots_in_planes(planes, locator, elements),
            None => elements.extend(
                find_roots(&Poly::from_coeffs(locator.to_vec()), f)
                    .map_err(|_| DecodeError::LocatorNotSplitting)?,
            ),
        }
        // A locator of degree d has at most d roots: fewer is a repeated
        // root or a factor without one.
        if elements.len() != locator.len() - 1 {
            return Err(DecodeError::LocatorNotSplitting);
        }
        for root in elements.iter_mut() {
            *root = f.inv(*root);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// What a peer does with its own sketch and the other side's: combine,
    /// then decode.
    fn decode_difference(
        codec: &BchCodec,
        a: &Sketch,
        b: &Sketch,
    ) -> Result<Vec<u64>, DecodeError> {
        let mut d = a.clone();
        d.combine(b);
        codec.decode(&d)
    }

    #[test]
    fn empty_difference_decodes_to_empty() {
        let codec = BchCodec::new(8, 4);
        let a = codec.sketch_set([5u64, 9, 200]);
        let b = codec.sketch_set([200u64, 9, 5]);
        assert_eq!(
            decode_difference(&codec, &a, &b).unwrap(),
            Vec::<u64>::new()
        );
    }

    #[test]
    fn single_difference() {
        let codec = BchCodec::new(8, 3);
        let a = codec.sketch_set([1u64, 2, 3]);
        let b = codec.sketch_set([1u64, 2]);
        assert_eq!(decode_difference(&codec, &a, &b).unwrap(), vec![3]);
    }

    #[test]
    fn difference_up_to_capacity_decodes_exactly() {
        let codec = BchCodec::new(11, 8);
        let alice: Vec<u64> = (1..=300).collect();
        let bob: Vec<u64> = (9..=300).collect(); // 8 differences: 1..=8
        let sa = codec.sketch_set(alice.iter().copied());
        let sb = codec.sketch_set(bob.iter().copied());
        let mut d = decode_difference(&codec, &sa, &sb).unwrap();
        d.sort_unstable();
        assert_eq!(d, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn over_capacity_is_detected() {
        let codec = BchCodec::new(10, 4);
        // 6 differences but capacity 4.
        let sa = codec.sketch_set([1u64, 2, 3, 4, 5, 6]);
        let sb = codec.empty_sketch();
        assert!(decode_difference(&codec, &sa, &sb).is_err());
    }

    #[test]
    fn large_field_decoding_gf32() {
        let codec = BchCodec::new(32, 10);
        let diff: Vec<u64> = vec![
            0xDEADBEEF,
            0x12345678,
            0xCAFEBABE,
            0x0BADF00D,
            1,
            0xFFFF_FFFE,
            0x8000_0001,
        ];
        let s = codec.sketch_set(diff.iter().copied());
        let mut out = codec.decode(&s).unwrap();
        out.sort_unstable();
        let mut expect = diff.clone();
        expect.sort_unstable();
        assert_eq!(out, expect);
    }

    #[test]
    fn combine_is_symmetric_difference() {
        let codec = BchCodec::new(9, 6);
        let a = codec.sketch_set([10u64, 20, 30, 40]);
        let b = codec.sketch_set([30u64, 40, 50]);
        let mut d = a.clone();
        d.combine(&b);
        let mut out = codec.decode(&d).unwrap();
        out.sort_unstable();
        assert_eq!(out, vec![10, 20, 50]);
    }

    #[test]
    fn from_syndromes_round_trips_and_rejects_out_of_field_values() {
        let codec = BchCodec::new(11, 13);
        let s = codec.sketch_set([100u64, 2000, 5]);
        assert_eq!(
            Sketch::from_syndromes(s.syndromes().to_vec(), 11),
            Some(s.clone())
        );
        assert_eq!(s.wire_bits(11), 13 * 11);
        // m = 11: only values < 2048 are field elements.
        assert!(Sketch::from_syndromes(vec![0x0FFF], 11).is_none());
        assert_eq!(
            Sketch::from_syndromes(vec![2047], 11).unwrap().syndromes(),
            &[2047]
        );
        // m = 64 uses the full word: everything is in field.
        assert!(Sketch::from_syndromes(vec![u64::MAX], 64).is_some());
        // Degenerate widths are rejected outright.
        assert!(Sketch::from_syndromes(vec![1], 0).is_none());
        assert!(Sketch::from_syndromes(vec![1], 65).is_none());
    }

    #[test]
    fn sketch_slice_matches_sequential_adds() {
        for m in [8u32, 11, 32] {
            let codec = BchCodec::new(m, 9);
            let order = codec.field().order();
            for n in [0usize, 1, 3, 4, 5, 64, 130] {
                let elements: Vec<u64> = (0..n as u64)
                    .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) % (order - 1)) + 1)
                    .collect();
                // m = 32 has no column table: the batched ladder, whose
                // four-wide steps and remainder these sizes straddle.
                let mut sequential = codec.empty_sketch();
                for &e in &elements {
                    sequential.add(e, codec.field());
                }
                assert_eq!(codec.sketch_slice(&elements), sequential, "m={m} n={n}");
                assert_eq!(codec.sketch_set(elements.iter().copied()), sequential);
            }
        }
    }

    /// The ladder, one scalar [`Sketch::add`] at a time: the oracle.
    fn ladder_sketch(codec: &BchCodec, elements: &[u64]) -> Sketch {
        let mut sketch = codec.empty_sketch();
        for &e in elements {
            sketch.add(e, codec.field());
        }
        sketch
    }

    #[test]
    fn column_sketch_matches_the_ladder_at_every_position() {
        // Every position of every table-backed field at every capacity the
        // planner can pick; past m = 12 only the capacities either side of
        // the table bound.
        for m in 3..=16 {
            let field = Arc::new(Field::new(m));
            let n = field.nonzero_count();
            let fit = COLUMN_TABLE_ENTRIES / n as usize;
            let capacities: Vec<usize> = if m <= 12 {
                (1..=40).collect()
            } else {
                vec![1, fit, fit + 1, 40]
            };
            for t in capacities.into_iter().filter(|&t| t > 0) {
                let codec = BchCodec::with_field(Arc::clone(&field), t);
                assert_eq!(codec.columns.is_some(), t <= fit, "m={m} t={t}");
                assert_eq!(codec.planes.is_some(), t <= fit, "m={m} t={t}");
                // Past the bound every position runs the same ladder;
                // sample it rather than walk 65 535 × 40.
                let stride = if codec.columns.is_some() { 1 } else { 251 };
                for p in (1..=n).step_by(stride) {
                    assert_eq!(
                        codec.sketch_slice(&[p]),
                        ladder_sketch(&codec, &[p]),
                        "m={m} t={t} p={p}"
                    );
                }
            }
        }
        // All six paper sizes hold a table at any planned capacity.
        for m in 6..=11 {
            assert!(BchCodec::new(m, 40).columns.is_some());
        }
    }

    #[test]
    fn fields_without_log_tables_sketch_and_decode_by_ladder() {
        // What a one-round PBS plan reaches: m = 16 past the column bound
        // (t = 3 is the first capacity without a column table) and m ≥ 17
        // (no log tables) — and PinSketch's m = 32. Each sketches by
        // ladder and finds roots by trace.
        for (m, t) in [(16, 3), (16, 9), (17, 9), (20, 9), (32, 9)] {
            let codec = BchCodec::new(m, t);
            assert!(codec.columns.is_none(), "m={m} t={t}");
            assert!(codec.planes.is_none(), "m={m} t={t}");
            assert_eq!(codec.field().generator().is_some(), m <= 16);
            let top = codec.field().nonzero_count();
            let elements = [3u64, 77, top, 200, 13, 1 << (m - 1), 1];
            let sketch = codec.sketch_slice(&elements);
            assert_eq!(sketch, ladder_sketch(&codec, &elements));
            assert_eq!(codec.sketch_set(elements), sketch);
            // Degrees on either side of the trace's linear and quadratic
            // factors.
            for size in [1, 2, 3, 4, 7].into_iter().filter(|&size| size <= t) {
                let mut sketched = elements[..size].to_vec();
                let mut decoded = codec.decode(&codec.sketch_slice(&sketched)).unwrap();
                sketched.sort_unstable();
                decoded.sort_unstable();
                assert_eq!(decoded, sketched, "m={m} t={t} size {size}");
            }
        }
    }

    /// The candidates `g^0, g^1, …` in the order a Chien search visits them.
    fn scan_order(f: &Field) -> Vec<u64> {
        let g = f.generator().expect("a table-backed field");
        std::iter::successors(Some(1), |&x| Some(f.mul(x, g)))
            .take(f.nonzero_count() as usize)
            .collect()
    }

    /// `codec` once for each entry of the root kernel this CPU runs, by
    /// name; the plain entry is the kernel's body compiled plainly. On a
    /// CPU without AVX-512 the list has no "avx512".
    fn plane_entries(codec: &BchCodec) -> Vec<(&'static str, BchCodec)> {
        let planes = codec.planes.as_ref().expect("a codec with columns");
        planes
            .entries()
            .into_iter()
            .map(|(name, planes)| {
                let planes = Some(Arc::new(planes));
                (
                    name,
                    BchCodec {
                        planes,
                        ..codec.clone()
                    },
                )
            })
            .collect()
    }

    fn print_entries(entries: &[(&str, BchCodec)]) {
        println!(
            "plane entries checked: {:?}",
            entries.iter().map(|e| e.0).collect::<Vec<_>>()
        );
    }

    /// `locate` through every entry against the oracle — `Poly::eval` of
    /// the locator at every candidate in scan order, whose elements are
    /// the inverses of the roots in that order and which refuses a locator
    /// with fewer distinct roots than its degree: same elements, same
    /// order, same refusals. Returns the roots the oracle found.
    fn check_locate(entries: &[(&str, BchCodec)], candidates: &[u64], locator: &[u64]) -> Vec<u64> {
        let f = entries[0].1.field();
        let p = Poly::from_coeffs(locator.to_vec());
        let roots: Vec<u64> = candidates
            .iter()
            .copied()
            .filter(|&x| p.eval(x, f) == 0)
            .collect();
        let expect = if roots.len() == locator.len() - 1 {
            Ok(roots.iter().map(|&r| f.inv(r)).collect())
        } else {
            Err(DecodeError::LocatorNotSplitting)
        };
        for (name, codec) in entries {
            let mut elements = Vec::new();
            let found = codec.locate(locator, &mut elements).map(|()| elements);
            assert_eq!(found, expect, "{name} m={} {locator:?}", f.m());
        }
        roots
    }

    /// Every locator `1 + c_1x + … + c_dx^d` with `c_d ≠ 0` over `f`.
    fn every_locator(f: &Field, degree: u32) -> impl Iterator<Item = Vec<u64>> {
        let q = f.order();
        (0..q.pow(degree - 1) * (q - 1)).map(move |mut i| {
            let mut locator = vec![1];
            for _ in 1..degree {
                locator.push(i % q);
                i /= q;
            }
            locator.push(i + 1);
            locator
        })
    }

    fn choose(n: usize, k: usize) -> usize {
        (0..k).fold(1, |acc, i| acc * (n - i) / (i + 1))
    }

    #[test]
    fn every_locator_of_degree_1_and_2_matches_the_oracle() {
        // Every locator of degree 1 and 2 from GF(2^3), one plane word
        // with lanes past the last candidate, to GF(2^8): irreducible
        // quadratics (no root) and repeated roots (one where two are
        // needed) refused.
        for m in 3..=8 {
            let codec = BchCodec::new(m, 4);
            let entries = plane_entries(&codec);
            print_entries(&entries);
            let candidates = scan_order(codec.field());
            let (mut split, mut irreducible, mut repeated) = (0, 0, 0);
            for degree in [1, 2] {
                for locator in every_locator(codec.field(), degree) {
                    match check_locate(&entries, &candidates, &locator).len() {
                        found if found == degree as usize => split += 1,
                        0 => irreducible += 1,
                        _ => repeated += 1,
                    }
                }
            }
            // n linear locators and C(n, 2) split quadratics; n squares
            // (x + r)²; the rest of the n(n + 1) quadratics are irreducible.
            let n = candidates.len();
            assert_eq!(split, n + choose(n, 2), "m={m}");
            assert_eq!(repeated, n, "m={m}");
            assert_eq!(irreducible, n * (n + 1) - choose(n, 2) - n, "m={m}");
        }
    }

    #[test]
    fn every_cubic_locator_matches_the_oracle() {
        for m in 3..=6 {
            let codec = BchCodec::new(m, 4);
            let entries = plane_entries(&codec);
            print_entries(&entries);
            let candidates = scan_order(codec.field());
            let mut by_roots = [0usize; 4];
            for locator in every_locator(codec.field(), 3) {
                by_roots[check_locate(&entries, &candidates, &locator).len()] += 1;
            }
            // An irreducible cubic; a triple root, or a root beside an
            // irreducible quadratic; a double and a single; three roots.
            let (n, q) = (candidates.len(), candidates.len() + 1);
            let expect = [
                (q * q * q - q) / 3,
                n + n * (q * q - q) / 2,
                n * (n - 1),
                choose(n, 3),
            ];
            assert_eq!(by_roots, expect, "m={m}");
        }
    }

    #[test]
    fn every_quartic_locator_matches_the_oracle() {
        for m in 3..=5 {
            let codec = BchCodec::new(m, 4);
            let entries = plane_entries(&codec);
            print_entries(&entries);
            let f = codec.field();
            let candidates = scan_order(f);
            let (mut split, mut one_repeated) = (0, 0);
            for locator in every_locator(f, 4) {
                let roots = check_locate(&entries, &candidates, &locator);
                // Λ' = Λ₁ + Λ₃x²: zero at a root iff the root is repeated.
                let repeated = |r: u64| locator[1] ^ f.mul(locator[3], f.square(r)) == 0;
                match roots.len() {
                    4 => split += 1,
                    3 if roots.iter().any(|&r| repeated(r)) => one_repeated += 1,
                    _ => {}
                }
            }
            // Four roots; three, one of them double.
            let n = candidates.len();
            assert_eq!(split, choose(n, 4), "m={m}");
            assert_eq!(one_repeated, 3 * choose(n, 3), "m={m}");
        }
    }

    /// `count` distinct nonzero elements of `f`.
    fn distinct(f: &Field, next: &mut impl FnMut() -> u64, count: usize) -> Vec<u64> {
        let mut elements = Vec::new();
        while elements.len() < count {
            let e = next() % f.nonzero_count() + 1;
            if !elements.contains(&e) {
                elements.push(e);
            }
        }
        elements
    }

    /// `Π (1 + Xx)` over `elements`: the locator whose roots are their
    /// inverses.
    fn locator_of(f: &Field, elements: &[u64]) -> Vec<u64> {
        let product = elements.iter().fold(Poly::one(), |p, &e| {
            p.mul(&Poly::from_coeffs(vec![1, e]), f)
        });
        product.coeffs().to_vec()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Locators of degree 5..=t over every m the service plans and
        /// m = 11 that split (with roots at the first and last candidates,
        /// the edges of the plane words, or anywhere), that hold a repeated
        /// root or an irreducible quadratic factor, or are arbitrary.
        #[test]
        fn locators_of_degree_5_to_t_match_the_oracle(
            m in 3u32..=11,
            degree in 5usize..=12,
            shape in 0u32..5,
            seed in any::<u64>(),
        ) {
            static PRINTED: std::sync::Once = std::sync::Once::new();
            let codec = BchCodec::new(m, 12);
            let entries = plane_entries(&codec);
            PRINTED.call_once(|| print_entries(&entries));
            let f = codec.field();
            // GF(2^3) has only 7 candidates: room for degree − 2 distinct
            // roots beside an irreducible quadratic.
            let degree = degree.min(f.nonzero_count() as usize - 2);
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                state >> 16
            };
            let locator = match shape {
                0 => locator_of(f, &distinct(f, &mut next, degree)),
                1 => {
                    // The roots g^0 and g^(n−1), the elements 1 and g.
                    let g = f.generator().expect("a table-backed field");
                    let mut elements = vec![1, g];
                    while elements.len() < degree {
                        let e = next() % f.nonzero_count() + 1;
                        if !elements.contains(&e) {
                            elements.push(e);
                        }
                    }
                    locator_of(f, &elements)
                }
                2 => {
                    let mut elements = distinct(f, &mut next, degree - 1);
                    elements.push(elements[next() as usize % (degree - 1)]);
                    locator_of(f, &elements)
                }
                3 => {
                    // 1 + x + cx² is irreducible iff Tr(c) = 1.
                    let c = std::iter::repeat_with(&mut next)
                        .map(|r| r % f.order())
                        .find(|&c| f.trace(c) == 1)
                        .unwrap();
                    let split = locator_of(f, &distinct(f, &mut next, degree - 2));
                    Poly::from_coeffs(split).mul(&Poly::from_coeffs(vec![1, 1, c]), f).coeffs().to_vec()
                }
                _ => {
                    let mut locator = vec![1];
                    locator.extend((1..degree).map(|_| next() % f.order()));
                    locator.push(next() % f.nonzero_count() + 1);
                    locator
                }
            };
            prop_assert_eq!(locator.len(), degree + 1);
            let roots = check_locate(&entries, &scan_order(f), &locator);
            prop_assert!(shape > 1 || roots.len() == degree);
            prop_assert!(shape <= 1 || shape == 4 || roots.len() < degree);
        }
    }

    #[test]
    fn scratch_decode_matches_allocating_decode_after_a_larger_and_a_failed_one() {
        let mut scratch = DecodeScratch::default();
        let big = BchCodec::new(11, 24);
        let full: Vec<u64> = (1..=24).map(|i| i * 83).collect();
        let sketch = big.sketch_slice(&full);
        assert_eq!(
            big.decode_with(&sketch, &mut scratch).unwrap(),
            big.decode(&sketch).unwrap()
        );
        let over: Vec<u64> = (1..=30).map(|i| i * 61).collect();
        let sketch = big.sketch_slice(&over);
        assert_eq!(
            big.decode_with(&sketch, &mut scratch).map(<[u64]>::to_vec),
            big.decode(&sketch)
        );
        assert!(big.decode(&sketch).is_err());
        // A smaller codec over another field, out of the same scratch:
        // every size from empty to one over capacity, then hostile
        // syndromes no set produces.
        let small = BchCodec::new(8, 5);
        for size in 0..=6u64 {
            let elements: Vec<u64> = (1..=size).map(|i| i * 37 % 255 + 1).collect();
            let sketch = small.sketch_slice(&elements);
            let fresh = small.decode(&sketch);
            assert_eq!(fresh.is_ok(), size <= 5);
            assert_eq!(
                small
                    .decode_with(&sketch, &mut scratch)
                    .map(<[u64]>::to_vec),
                fresh,
                "size {size}"
            );
        }
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..2_000 {
            let syndromes: Vec<u64> = (0..5)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (x >> 33) % 256
                })
                .collect();
            let sketch = Sketch::from_syndromes(syndromes, 8).unwrap();
            let fresh = small.decode(&sketch);
            if let Ok(elements) = &fresh {
                assert_eq!(
                    small.sketch_slice(elements),
                    sketch,
                    "verified on every path"
                );
            }
            assert_eq!(
                small
                    .decode_with(&sketch, &mut scratch)
                    .map(<[u64]>::to_vec),
                fresh
            );
        }
    }

    #[test]
    fn add_twice_cancels() {
        let codec = BchCodec::new(8, 5);
        let mut s = codec.empty_sketch();
        s.add(42, codec.field());
        s.add(42, codec.field());
        assert!(s.is_zero());
    }

    #[test]
    #[should_panic(expected = "different capacities")]
    fn combine_capacity_mismatch_panics() {
        let mut a = Sketch::zero(3);
        let b = Sketch::zero(4);
        a.combine(&b);
    }
}
