//! Root finding for error-locator polynomials of a codec without syndrome
//! columns (PinSketch's GF(2^32), a one-round PBS plan whose `n·t` outgrows
//! the column bound): the **Berlekamp trace algorithm**, over a field with
//! or without log tables. A codec with columns never comes here —
//! `BchCodec::locate` evaluates its locator at every candidate at once
//! ([`gf::Field::roots_in_planes`]).
//!
//! The polynomial is recursively split with `gcd(f, Tr(βx) mod f)` for
//! successively chosen β. The Frobenius ladder `x^(2^i) mod f` is computed
//! **once per factor** and reused for the full-splitting check and for every
//! β trial (each trial is then only a scalar Frobenius ladder on β plus
//! scaled polynomial adds), instead of re-running `m` modular squarings per
//! trial.

use gf::{Field, Poly};

/// Error returned when a polynomial does not split into distinct roots over
/// the field — for a locator polynomial this signals an undecodable sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RootFindError;

impl std::fmt::Display for RootFindError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "polynomial does not split into distinct roots over GF(2^m)"
        )
    }
}

impl std::error::Error for RootFindError {}

/// Find all roots of `poly` in GF(2^m) by the trace algorithm, requiring
/// that `poly` splits into `deg(poly)` *distinct* roots (which is exactly the
/// property a valid error-locator polynomial has). Returns an error otherwise.
pub(crate) fn find_roots(poly: &Poly, field: &Field) -> Result<Vec<u64>, RootFindError> {
    match poly.degree() {
        None => return Err(RootFindError), // zero polynomial
        Some(0) => return Ok(Vec::new()),
        Some(_) => {}
    }
    // A locator polynomial never has 0 as a root (its constant term is 1),
    // but be defensive: a zero constant term means x | poly, i.e. root 0,
    // which is outside the set of valid positions.
    if poly.coeff(0) == 0 {
        return Err(RootFindError);
    }
    trace_split(poly, field)
}

/// The Frobenius ladder `x^(2^i) mod modulus` for `i = 0 .. m-1`.
fn frobenius_ladder(modulus: &Poly, field: &Field) -> Vec<Poly> {
    let mut ladder = Vec::with_capacity(field.m() as usize);
    ladder.push(Poly::x().rem(modulus, field));
    for i in 1..field.m() as usize {
        ladder.push(ladder[i - 1].square_mod(modulus, field));
    }
    ladder
}

/// `Tr(βx) mod modulus = Σ_{i=0}^{m-1} β^(2^i) · (x^(2^i) mod modulus)`,
/// assembled from a precomputed ladder: one scalar Frobenius orbit on β and
/// `m` scaled polynomial additions — no modular squarings per β trial.
fn trace_poly_from_ladder(ladder: &[Poly], beta: u64, field: &Field) -> Poly {
    let mut acc = Poly::zero();
    let mut beta_pow = beta;
    for step in ladder {
        acc = acc.add(&step.scale(beta_pow, field), field);
        beta_pow = field.square(beta_pow);
    }
    acc
}

/// Berlekamp trace algorithm for large fields.
fn trace_split(poly: &Poly, field: &Field) -> Result<Vec<u64>, RootFindError> {
    let monic = poly.clone().into_monic(field);
    let Some(degree) = monic.degree() else {
        return Err(RootFindError);
    };

    // Check that the polynomial splits completely with distinct roots:
    // poly | x^(2^m) − x  ⇔  x^(2^m) ≡ x (mod poly). The ladder gives
    // x^(2^(m-1)); one more squaring yields x^(2^m), and the same ladder is
    // then reused for every β trial on this factor.
    let root_ladder = frobenius_ladder(&monic, field);
    let frob_m = root_ladder[root_ladder.len() - 1].square_mod(&monic, field);
    if frob_m != root_ladder[0] {
        return Err(RootFindError);
    }

    let mut roots = Vec::with_capacity(degree);
    // Deterministic pseudo-random β sequence (splitmix64) so decoding is
    // reproducible; the specific constants only affect how quickly the
    // recursion splits, never correctness.
    let mut beta_state: u64 = 0x243F_6A88_85A3_08D3;
    let mut next_beta = move || {
        beta_state = beta_state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = beta_state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };

    // Each work item carries its Frobenius ladder; children inherit the
    // parent's ladder reduced modulo the new (smaller) factor, which is far
    // cheaper than re-deriving it by repeated modular squaring.
    let mut stack = vec![(monic, root_ladder)];
    while let Some((current, ladder)) = stack.pop() {
        let deg = current.degree().unwrap_or(0);
        match deg {
            0 => {}
            1 => {
                // monic linear factor x + c: root is c.
                roots.push(current.coeff(0));
            }
            _ => {
                // Try trace-based splits until the factor breaks apart.
                let mut split = None;
                for _ in 0..64 {
                    let beta = {
                        let mut b = next_beta() % field.order();
                        if b == 0 {
                            b = 1;
                        }
                        b
                    };
                    let acc = trace_poly_from_ladder(&ladder, beta, field);
                    if acc.is_zero() {
                        continue;
                    }
                    let g = current.gcd(&acc, field);
                    let gd = g.degree_or_zero();
                    if gd > 0 && gd < deg {
                        let (q, r) = current.div_rem(&g, field);
                        debug_assert!(r.is_zero(), "gcd must divide the polynomial");
                        split = Some((g, q));
                        break;
                    }
                }
                match split {
                    Some((g, q)) => {
                        // Terminal children (degree <= 1) never consult their
                        // ladder — don't pay m reductions to build one.
                        let child_ladder = |child: &Poly| -> Vec<Poly> {
                            if child.degree_or_zero() < 2 {
                                Vec::new()
                            } else {
                                ladder.iter().map(|p| p.rem(child, field)).collect()
                            }
                        };
                        let g_ladder = child_ladder(&g);
                        let q_ladder = child_ladder(&q);
                        stack.push((g, g_ladder));
                        stack.push((q, q_ladder));
                    }
                    // Statistically unreachable for a fully-splitting
                    // polynomial; report failure rather than looping forever.
                    None => return Err(RootFindError),
                }
            }
        }
    }

    if roots.len() == degree {
        Ok(roots)
    } else {
        Err(RootFindError)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn poly_with_roots(roots: &[u64], f: &Field) -> Poly {
        let mut p = Poly::one();
        for &r in roots {
            p = p.mul(&Poly::from_coeffs(vec![r, 1]), f);
        }
        p
    }

    #[test]
    fn trace_algorithm_finds_roots_in_gf32() {
        let f = Field::new(32);
        let roots = [
            0xDEADBEEFu64,
            0x1234_5678,
            3,
            0xFFFF_FFFE,
            0x0BAD_F00D,
            0x8000_0000,
        ];
        let p = poly_with_roots(&roots, &f);
        let mut found = find_roots(&p, &f).unwrap();
        found.sort_unstable();
        let mut expect = roots.to_vec();
        expect.sort_unstable();
        assert_eq!(found, expect);
    }

    #[test]
    fn trace_algorithm_handles_many_roots() {
        let f = Field::new(24);
        let roots: Vec<u64> = (1..=40u64).map(|i| i * 0x1_2345 % f.order()).collect();
        let p = poly_with_roots(&roots, &f);
        let mut found = find_roots(&p, &f).unwrap();
        found.sort_unstable();
        let mut expect = roots.clone();
        expect.sort_unstable();
        expect.dedup();
        assert_eq!(found, expect);
    }

    /// An element of trace 1: the quadratic x² + x + c is then irreducible.
    /// Scanning the basis monomials 1, x, x², … always terminates within m
    /// steps because the trace map is nonzero.
    fn trace_one_element(f: &Field) -> u64 {
        (0..f.m())
            .map(|i| 1u64 << i)
            .find(|&c| f.trace(c) == 1)
            .expect("the trace map is not identically zero")
    }

    #[test]
    fn non_splitting_polynomial_is_rejected_large_field() {
        let f = Field::new(32);
        let c = trace_one_element(&f);
        let p = Poly::from_coeffs(vec![c, 1, 1]); // irreducible quadratic
        assert!(find_roots(&p, &f).is_err());
    }

    #[test]
    fn repeated_roots_are_rejected_large_field() {
        let f = Field::new(32);
        let p = poly_with_roots(&[0xABCDu64, 0xABCD, 99], &f);
        assert!(find_roots(&p, &f).is_err());
    }

    #[test]
    fn constant_polynomial_has_no_roots() {
        let f = Field::new(17);
        assert_eq!(
            find_roots(&Poly::constant(5), &f).unwrap(),
            Vec::<u64>::new()
        );
        assert!(find_roots(&Poly::zero(), &f).is_err());
    }

    #[test]
    fn zero_constant_term_rejected() {
        let f = Field::new(17);
        // x * (x + 3): has root 0, which is not a valid locator root.
        let p = Poly::from_coeffs(vec![0, 3, 1]);
        assert!(find_roots(&p, &f).is_err());
    }
}
