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
//! 1. expand the odd syndromes to all `2t` syndromes via the characteristic-2
//!    identity `S_{2k} = S_k²`,
//! 2. Berlekamp–Massey to find the error-locator polynomial (O(t²) field
//!    operations — this is the O(d²)/O(δ²) decoding cost the paper analyses;
//!    the Toeplitz/Levinson solver it cites has the same quadratic cost),
//! 3. find the locator's roots: a Chien search (exhaustive evaluation) for
//!    the small fields PBS uses (n ≤ 2047), or the Berlekamp trace algorithm
//!    for the large fields PinSketch needs (m = 32 and beyond),
//! 4. validate the result by re-computing the syndromes of the recovered
//!    difference; any mismatch is reported as a [`DecodeError`], which is the
//!    "BCH decoding failure" exception of §3.2.
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

pub use berlekamp::berlekamp_massey;
pub use roots::{find_roots, RootFindError};

use gf::Field;
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
    pub fn is_zero(&self) -> bool {
        self.syndromes.iter().all(|&s| s == 0)
    }

    /// Toggle `element` in the sketched set. Adding the same element twice
    /// cancels out, which is exactly the behaviour set reconciliation needs.
    ///
    /// `element` must be a nonzero field element (the all-zero element is
    /// excluded from the universe, §2.1).
    pub fn add(&mut self, element: u64, field: &Field) {
        debug_assert!(element != 0, "cannot sketch the zero element");
        debug_assert!(field.contains(element));
        let sq = field.square(element);
        let mut power = element; // element^(2i+1), starting at i = 0
        for s in &mut self.syndromes {
            *s ^= power;
            power = field.mul(power, sq);
        }
    }

    /// Toggle a whole slice of elements in the sketched set.
    ///
    /// This is the batched syndrome kernel: four elements advance through
    /// their odd-power ladders together (`x, x^3, x^5, …` each stepping by
    /// `x^2`), so the four field multiplications per syndrome row are
    /// independent and the backend dispatch in [`Field::mul_slice`] is paid
    /// once per row instead of once per multiplication. Equivalent to
    /// calling [`Sketch::add`] per element, measurably faster for the bulk
    /// sketching PinSketch and PBS do.
    pub fn add_batch(&mut self, elements: &[u64], field: &Field) {
        let t = self.syndromes.len();
        let mut chunks = elements.chunks_exact(4);
        for chunk in &mut chunks {
            debug_assert!(chunk.iter().all(|&e| e != 0 && field.contains(e)));
            let mut powers = [chunk[0], chunk[1], chunk[2], chunk[3]];
            let mut squares = powers;
            field.square_slice(&mut squares);
            for (i, s) in self.syndromes.iter_mut().enumerate() {
                *s ^= powers[0] ^ powers[1] ^ powers[2] ^ powers[3];
                if i + 1 < t {
                    field.mul_slice(&mut powers, &squares);
                }
            }
        }
        for &e in chunks.remainder() {
            self.add(e, field);
        }
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

/// Encoder/decoder for syndrome sketches over GF(2^m) with capacity `t`.
#[derive(Debug, Clone)]
pub struct BchCodec {
    field: Arc<Field>,
    t: usize,
}

impl BchCodec {
    /// Create a codec over GF(2^m) with capacity `t`.
    ///
    /// For PBS, `m = log2(n+1)` where `n = 2^m − 1` is the parity-bitmap
    /// length; for PinSketch, `m = log|U|`.
    pub fn new(m: u32, t: usize) -> Self {
        assert!(t > 0, "sketch capacity t must be positive");
        BchCodec {
            field: Arc::new(Field::new(m)),
            t,
        }
    }

    /// Create a codec sharing an existing field (avoids rebuilding log tables).
    pub fn with_field(field: Arc<Field>, t: usize) -> Self {
        assert!(t > 0, "sketch capacity t must be positive");
        BchCodec { field, t }
    }

    /// The underlying field.
    pub fn field(&self) -> &Field {
        &self.field
    }

    /// A clone of the shared field handle.
    pub fn field_arc(&self) -> Arc<Field> {
        Arc::clone(&self.field)
    }

    /// Extension degree `m`.
    pub fn m(&self) -> u32 {
        self.field.m()
    }

    /// Capacity `t`.
    pub fn t(&self) -> usize {
        self.t
    }

    /// Wire size of one sketch in bits (`t · m`).
    pub fn sketch_bits(&self) -> u64 {
        self.t as u64 * self.field.m() as u64
    }

    /// An all-zero sketch.
    pub fn empty_sketch(&self) -> Sketch {
        Sketch::zero(self.t)
    }

    /// Sketch a whole set of nonzero field elements through the batched
    /// kernel ([`Sketch::add_batch`]).
    pub fn sketch_set(&self, elements: impl IntoIterator<Item = u64>) -> Sketch {
        let mut s = self.empty_sketch();
        let mut buf = [0u64; 64];
        let mut n = 0;
        for e in elements {
            buf[n] = e;
            n += 1;
            if n == buf.len() {
                s.add_batch(&buf, &self.field);
                n = 0;
            }
        }
        s.add_batch(&buf[..n], &self.field);
        s
    }

    /// Sketch a slice of nonzero field elements (no iterator buffering).
    pub fn sketch_slice(&self, elements: &[u64]) -> Sketch {
        let mut s = self.empty_sketch();
        s.add_batch(elements, &self.field);
        s
    }

    /// Decode a (difference) sketch into the set of sketched elements.
    ///
    /// Returns the elements in unspecified order, or a [`DecodeError`] if the
    /// difference does not fit in the capacity (or the sketch is otherwise
    /// undecodable). A successful return is *verified*: the syndromes of the
    /// returned set are recomputed and compared against the input sketch.
    pub fn decode(&self, sketch: &Sketch) -> Result<Vec<u64>, DecodeError> {
        assert_eq!(sketch.capacity(), self.t, "sketch capacity mismatch");
        let f = &*self.field;
        if sketch.is_zero() {
            return Ok(Vec::new());
        }

        // Expand to the full syndrome sequence S_1 .. S_{2t}.
        let t = self.t;
        let mut s = vec![0u64; 2 * t + 1]; // 1-based
        for (i, &odd) in sketch.syndromes.iter().enumerate() {
            s[2 * i + 1] = odd;
        }
        for k in 1..=t {
            s[2 * k] = f.square(s[k]);
        }

        // Berlekamp–Massey on S_1..S_2t.
        let locator = berlekamp_massey(&s[1..], f);
        let degree = match locator.degree() {
            Some(d) if d > 0 => d,
            _ => return Err(DecodeError::TooManyDifferences),
        };
        if degree > t {
            return Err(DecodeError::TooManyDifferences);
        }

        // Roots of the locator are the inverses of the difference elements.
        let roots = find_roots(&locator, f).map_err(|_| DecodeError::LocatorNotSplitting)?;
        if roots.len() != degree || roots.contains(&0) {
            return Err(DecodeError::LocatorNotSplitting);
        }
        let elements: Vec<u64> = roots.iter().map(|&r| f.inv(r)).collect();

        // Verify: the recovered set must reproduce the sketch exactly.
        let check = self.sketch_set(elements.iter().copied());
        if check != *sketch {
            return Err(DecodeError::TooManyDifferences);
        }
        Ok(elements)
    }

    /// Decode the difference between two sketches directly.
    pub fn decode_difference(&self, a: &Sketch, b: &Sketch) -> Result<Vec<u64>, DecodeError> {
        let mut d = a.clone();
        d.combine(b);
        self.decode(&d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_difference_decodes_to_empty() {
        let codec = BchCodec::new(8, 4);
        let a = codec.sketch_set([5u64, 9, 200]);
        let b = codec.sketch_set([200u64, 9, 5]);
        assert_eq!(codec.decode_difference(&a, &b).unwrap(), Vec::<u64>::new());
    }

    #[test]
    fn single_difference() {
        let codec = BchCodec::new(8, 3);
        let a = codec.sketch_set([1u64, 2, 3]);
        let b = codec.sketch_set([1u64, 2]);
        assert_eq!(codec.decode_difference(&a, &b).unwrap(), vec![3]);
    }

    #[test]
    fn difference_up_to_capacity_decodes_exactly() {
        let codec = BchCodec::new(11, 8);
        let alice: Vec<u64> = (1..=300).collect();
        let bob: Vec<u64> = (9..=300).collect(); // 8 differences: 1..=8
        let sa = codec.sketch_set(alice.iter().copied());
        let sb = codec.sketch_set(bob.iter().copied());
        let mut d = codec.decode_difference(&sa, &sb).unwrap();
        d.sort_unstable();
        assert_eq!(d, (1..=8).collect::<Vec<u64>>());
    }

    #[test]
    fn over_capacity_is_detected() {
        let codec = BchCodec::new(10, 4);
        // 6 differences but capacity 4.
        let sa = codec.sketch_set([1u64, 2, 3, 4, 5, 6]);
        let sb = codec.empty_sketch();
        assert!(codec.decode_difference(&sa, &sb).is_err());
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
    fn add_batch_matches_sequential_adds() {
        for m in [8u32, 11, 32] {
            let codec = BchCodec::new(m, 9);
            let order = codec.field().order();
            for n in [0usize, 1, 3, 4, 5, 64, 130] {
                let elements: Vec<u64> = (0..n as u64)
                    .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) % (order - 1)) + 1)
                    .collect();
                let mut batched = codec.empty_sketch();
                batched.add_batch(&elements, codec.field());
                let mut sequential = codec.empty_sketch();
                for &e in &elements {
                    sequential.add(e, codec.field());
                }
                assert_eq!(batched, sequential, "batch mismatch m={m} n={n}");
                assert_eq!(codec.sketch_slice(&elements), sequential);
                assert_eq!(codec.sketch_set(elements.iter().copied()), sequential);
            }
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
