//! Berlekamp–Massey synthesis of the error-locator polynomial.

use gf::Field;

/// Berlekamp–Massey's working storage, owned by the caller so a batch of
/// decodes allocates once ([`crate::DecodeScratch`] holds one).
#[derive(Debug, Default)]
pub(crate) struct BmScratch {
    /// The full syndrome sequence `S_1 … S_2t` (0-based: `S_j` at `j − 1`).
    syndromes: Vec<u64>,
    /// `C(x)`, the current connection polynomial — the locator on return.
    pub(crate) c: Vec<u64>,
    /// `B(x)`, the copy of `C` from before the last length change.
    b: Vec<u64>,
    /// Receives the old `C` on a length change, then trades places with `b`.
    spare: Vec<u64>,
}

/// Run the Berlekamp–Massey algorithm over GF(2^m) on the odd syndromes
/// `S_1, S_3, …, S_{2t−1}` of a binary BCH sketch.
///
/// Leaves in `scratch.c[..=L]` the minimal connection polynomial
/// `Λ(x) = 1 + Λ_1 x + … + Λ_L x^L` of the full sequence `S_1 … S_2t`
/// (even syndromes by the characteristic-2 identity `S_2k = S_k²`), i.e.
///
/// ```text
///   S_j = Σ_{i=1}^{L} Λ_i · S_{j−i}      for j = L+1 … 2t
/// ```
///
/// and returns `L` (`Λ_L` may be zero for sequences no difference set
/// produces). When the syndromes are the power sums of a difference set `D`
/// with `|D| ≤ t`, `Λ(x) = Π_{X∈D} (1 − X·x)`, whose roots are the inverses
/// of the elements of `D`.
///
/// This is the t-step form for binary BCH codes (Berlekamp 1968, Massey
/// 1969): `S_2k = S_k²` makes the discrepancy of every even step vanish —
/// for any odd syndromes, realizable or not, since the even ones are
/// *defined* by the identity — so only the `t` odd steps compute one; an
/// even step just ages `B(x)` by one more shift. `O(t²)` scalar field
/// multiplications in place, no allocation once the scratch has grown.
pub(crate) fn berlekamp_massey(odd: &[u64], field: &Field, scratch: &mut BmScratch) -> usize {
    let n = 2 * odd.len();
    let BmScratch {
        syndromes: s,
        c,
        b,
        spare,
    } = scratch;
    s.clear();
    s.resize(n, 0);
    for (i, &syndrome) in odd.iter().enumerate() {
        s[2 * i] = syndrome;
    }
    for k in 1..=odd.len() {
        s[2 * k - 1] = field.square(s[k - 1]);
    }
    for poly in [&mut *c, &mut *b, &mut *spare] {
        poly.clear();
        poly.resize(n + 1, 0);
    }
    c[0] = 1;
    b[0] = 1;
    let mut l = 0usize; // current LFSR length
    let mut b_deg = 0usize; // degree bound of B(x)
    let mut m = 1usize; // steps since the last length change
    let mut b_disc = 1u64; // discrepancy at the last length change

    for i in (0..n).step_by(2) {
        // Discrepancy d = S_i + Σ_{j=1..L} C_j S_{i-j}.
        let mut d = s[i];
        for j in 1..=l {
            d ^= field.mul(c[j], s[i - j]);
        }
        if d != 0 {
            // C(x) <- C(x) - (d/b) x^m B(x); deg(x^m B) never exceeds the
            // new length, which never exceeds the step count. On a length
            // change (L <- i + 1 - L) the old C becomes the next B.
            let coef = field.div(d, b_disc);
            debug_assert!(b_deg + m <= n);
            let grows = 2 * l <= i;
            if grows {
                spare[..=l].copy_from_slice(&c[..=l]);
            }
            for j in 0..=b_deg {
                c[j + m] ^= field.mul(coef, b[j]);
            }
            if grows {
                std::mem::swap(b, spare);
                b_deg = l;
                l = i + 1 - l;
                b_disc = d;
                m = 0;
            }
        }
        // This step, and the even step after it whose discrepancy is zero.
        m += 2;
    }
    l
}

#[cfg(test)]
mod tests {
    use super::*;
    use gf::Poly;

    /// The seed's per-coefficient implementation over the full sequence
    /// `S_1 … S_2t`, all `2t` steps, kept verbatim: the one oracle.
    fn berlekamp_massey_reference(syndromes: &[u64], field: &Field) -> Poly {
        let n = syndromes.len();
        let mut c = vec![0u64; n + 1];
        let mut b = vec![0u64; n + 1];
        c[0] = 1;
        b[0] = 1;
        let mut l: usize = 0;
        let mut m: usize = 1;
        let mut b_disc: u64 = 1;
        for i in 0..n {
            let mut d = syndromes[i];
            for j in 1..=l {
                if c[j] != 0 && syndromes[i - j] != 0 {
                    d ^= field.mul(c[j], syndromes[i - j]);
                }
            }
            if d == 0 {
                m += 1;
            } else if 2 * l <= i {
                let t_prev = c.clone();
                let coef = field.div(d, b_disc);
                for j in 0..=(n - m) {
                    if b[j] != 0 {
                        c[j + m] ^= field.mul(coef, b[j]);
                    }
                }
                l = i + 1 - l;
                b = t_prev;
                b_disc = d;
                m = 1;
            } else {
                let coef = field.div(d, b_disc);
                for j in 0..=(n - m) {
                    if b[j] != 0 {
                        c[j + m] ^= field.mul(coef, b[j]);
                    }
                }
                m += 1;
            }
        }
        c.truncate(l + 1);
        Poly::from_coeffs(c)
    }

    /// `S_1 … S_2t` from the odd syndromes, by `S_2k = S_k²`.
    fn full_sequence(odd: &[u64], field: &Field) -> Vec<u64> {
        let mut s = vec![0u64; 2 * odd.len()];
        for (i, &syndrome) in odd.iter().enumerate() {
            s[2 * i] = syndrome;
        }
        for k in 1..=odd.len() {
            s[2 * k - 1] = field.square(s[k - 1]);
        }
        s
    }

    fn locator(odd: &[u64], field: &Field, scratch: &mut BmScratch) -> Poly {
        let length = berlekamp_massey(odd, field, scratch);
        Poly::from_coeffs(scratch.c[..=length].to_vec())
    }

    /// The odd power sums `S_1, S_3, …, S_{2t−1}` of `elements`.
    fn odd_power_sums(elements: &[u64], t: usize, field: &Field) -> Vec<u64> {
        let mut odd = vec![0u64; t];
        for &e in elements {
            let (mut power, square) = (e, field.square(e));
            for slot in odd.iter_mut() {
                *slot ^= power;
                power = field.mul(power, square);
            }
        }
        odd
    }

    #[test]
    fn t_step_form_matches_the_reference_on_realizable_and_arbitrary_syndromes() {
        // One scratch serves every case, larger and smaller in turn.
        let mut scratch = BmScratch::default();
        let mut x = 0x0123_4567_89AB_CDEFu64;
        let mut next = move || {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(7);
            x >> 16
        };
        for m in [7u32, 8, 11, 32] {
            let f = Field::new(m);
            for t in (1..=24usize).rev() {
                for trial in 0..40 {
                    let odd: Vec<u64> = if trial % 2 == 0 {
                        // Arbitrary odd syndromes, zeros mixed in so steps
                        // with no discrepancy are hit: no difference set
                        // need produce them, S_2k = S_k² holds regardless.
                        (0..t)
                            .map(|_| match next() {
                                r if r & 3 == 0 => 0,
                                r => r % f.order(),
                            })
                            .collect()
                    } else {
                        // Realizable: up to t + 3 elements (the last few
                        // sizes are over capacity).
                        let size = next() as usize % (t + 4);
                        let elements: Vec<u64> =
                            (0..size).map(|_| next() % f.nonzero_count() + 1).collect();
                        odd_power_sums(&elements, t, &f)
                    };
                    assert_eq!(
                        locator(&odd, &f, &mut scratch),
                        berlekamp_massey_reference(&full_sequence(&odd, &f), &f),
                        "BM divergence at m={m} t={t} on {odd:?}"
                    );
                }
            }
        }
    }

    /// Check BM recovers the locator polynomial of a difference set, with
    /// the set's inverses as roots.
    fn check_roundtrip(m: u32, t: usize, elements: &[u64]) {
        let f = Field::new(m);
        let odd = odd_power_sums(elements, t, &f);
        let lambda = locator(&odd, &f, &mut BmScratch::default());
        assert_eq!(lambda.degree(), Some(elements.len()), "locator degree");
        // Each element's inverse must be a root.
        for &e in elements {
            assert_eq!(lambda.eval(f.inv(e), &f), 0, "inverse of {e} is not a root");
        }
        // Λ(0) must be 1.
        assert_eq!(lambda.coeff(0), 1);
    }

    #[test]
    fn locator_for_small_sets() {
        check_roundtrip(8, 5, &[3]);
        check_roundtrip(8, 5, &[3, 77]);
        check_roundtrip(8, 5, &[3, 77, 200, 13, 255]);
        check_roundtrip(11, 8, &[1, 2, 4, 8, 16, 32, 64, 128]);
        check_roundtrip(32, 6, &[0xDEADBEEF, 0xCAFEBABE, 0x1234, 7, 0xFFFFFFF1]);
    }

    #[test]
    fn zero_syndromes_give_constant_one() {
        let f = Field::new(8);
        let lambda = locator(&[0, 0, 0], &f, &mut BmScratch::default());
        assert_eq!(lambda, Poly::one());
    }

    #[test]
    fn a_late_first_syndrome_fills_the_whole_buffer() {
        // S_1 = … = S_{2t−3} = 0, S_{2t−1} ≠ 0: the length jumps to 2t − 1
        // in the last odd step, the longest locator the buffers must hold.
        let f = Field::new(10);
        let t = 7;
        let mut odd = vec![0u64; t];
        odd[t - 1] = 0x155;
        let lambda = locator(&odd, &f, &mut BmScratch::default());
        assert_eq!(lambda.degree(), Some(2 * t - 1));
        assert_eq!(
            lambda,
            berlekamp_massey_reference(&full_sequence(&odd, &f), &f)
        );
    }
}
