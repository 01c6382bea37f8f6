//! Dense polynomials over GF(2^m).
//!
//! The representation is a coefficient vector in *ascending* degree order
//! (`coeffs[i]` is the coefficient of `x^i`), normalized so the leading
//! coefficient is nonzero (the zero polynomial is the empty vector).

use crate::Field;

/// Operand length below which [`Poly::mul`] stays on the row-batched
/// schoolbook kernel; Karatsuba's extra passes only pay off above it.
const KARATSUBA_CUTOFF: usize = 32;

/// Row-batched schoolbook product of two non-empty coefficient slices:
/// `scratch = b · a_i` via one `Field::scalar_mul_slice` per nonzero row,
/// XORed into the output at offset `i`.
fn schoolbook_coeffs(a: &[u64], b: &[u64], f: &Field) -> Vec<u64> {
    debug_assert!(!a.is_empty() && !b.is_empty());
    // Keep the shorter operand as the row index so the slice kernel runs
    // over the longer one.
    let (rows, cols) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = vec![0u64; a.len() + b.len() - 1];
    let mut scratch = vec![0u64; cols.len()];
    for (i, &r) in rows.iter().enumerate() {
        if r == 0 {
            continue;
        }
        scratch.copy_from_slice(cols);
        f.scalar_mul_slice(&mut scratch, r);
        for (o, &s) in out[i..].iter_mut().zip(&scratch) {
            *o ^= s;
        }
    }
    out
}

/// Size-dispatched product of two non-empty coefficient slices (ascending
/// degree order). The result has length `a.len() + b.len() - 1` and may
/// carry high zero coefficients; callers normalize.
fn mul_coeffs(a: &[u64], b: &[u64], f: &Field) -> Vec<u64> {
    if a.len().min(b.len()) <= KARATSUBA_CUTOFF {
        return schoolbook_coeffs(a, b, f);
    }
    // Split both operands at half the longer length: a = a0 + x^h·a1,
    // b = b0 + x^h·b1. In characteristic 2,
    //   a·b = z0 + x^h·(z1 − z0 − z2) + x^2h·z2
    // with z0 = a0·b0, z2 = a1·b1, z1 = (a0+a1)(b0+b1) and every ± an XOR.
    let h = a.len().max(b.len()).div_ceil(2);
    let (a0, a1) = a.split_at(a.len().min(h));
    let (b0, b1) = b.split_at(b.len().min(h));

    let z0 = mul_coeffs(a0, b0, f);
    let z2 = if a1.is_empty() || b1.is_empty() {
        Vec::new()
    } else {
        mul_coeffs(a1, b1, f)
    };

    let xor_halves = |lo: &[u64], hi: &[u64]| -> Vec<u64> {
        let mut s = vec![0u64; lo.len().max(hi.len())];
        s[..lo.len()].copy_from_slice(lo);
        for (d, &v) in s.iter_mut().zip(hi) {
            *d ^= v;
        }
        s
    };
    let asum = xor_halves(a0, a1);
    let bsum = xor_halves(b0, b1);
    let mut z1 = mul_coeffs(&asum, &bsum, f);
    for (d, &v) in z1.iter_mut().zip(&z0) {
        *d ^= v;
    }
    for (d, &v) in z1.iter_mut().zip(&z2) {
        *d ^= v;
    }

    let mut out = vec![0u64; a.len() + b.len() - 1];
    for (d, &v) in out.iter_mut().zip(&z0) {
        *d ^= v;
    }
    for (d, &v) in out[h..].iter_mut().zip(&z1) {
        *d ^= v;
    }
    if !z2.is_empty() {
        for (d, &v) in out[2 * h..].iter_mut().zip(&z2) {
            *d ^= v;
        }
    }
    out
}

/// A polynomial over a [`Field`].
///
/// All operations take the field explicitly so a `Poly` stays a plain value
/// type; mixing polynomials built for different fields is a logic error that
/// debug assertions catch (coefficients out of range).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Poly {
    coeffs: Vec<u64>,
}

impl Poly {
    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly { coeffs: vec![1] }
    }

    /// The monomial `x`.
    pub fn x() -> Self {
        Poly { coeffs: vec![0, 1] }
    }

    /// Build a polynomial from ascending-degree coefficients, trimming
    /// leading zeros.
    pub fn from_coeffs(coeffs: Vec<u64>) -> Self {
        let mut p = Poly { coeffs };
        p.normalize();
        p
    }

    /// The constant polynomial `c`.
    pub fn constant(c: u64) -> Self {
        if c == 0 {
            Self::zero()
        } else {
            Poly { coeffs: vec![c] }
        }
    }

    fn normalize(&mut self) {
        while self.coeffs.last() == Some(&0) {
            self.coeffs.pop();
        }
    }

    /// `true` iff this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Degree of the polynomial; `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        if self.coeffs.is_empty() {
            None
        } else {
            Some(self.coeffs.len() - 1)
        }
    }

    /// Degree as an `usize`, treating the zero polynomial as degree 0.
    pub fn degree_or_zero(&self) -> usize {
        self.degree().unwrap_or(0)
    }

    /// Coefficient of `x^i` (0 if beyond the stored degree).
    pub fn coeff(&self, i: usize) -> u64 {
        self.coeffs.get(i).copied().unwrap_or(0)
    }

    /// Leading coefficient (0 for the zero polynomial).
    fn leading(&self) -> u64 {
        self.coeffs.last().copied().unwrap_or(0)
    }

    /// Ascending-degree coefficient slice.
    pub fn coeffs(&self) -> &[u64] {
        &self.coeffs
    }

    /// Polynomial addition (XOR of coefficients in characteristic 2).
    pub fn add(&self, other: &Poly, f: &Field) -> Poly {
        let n = self.coeffs.len().max(other.coeffs.len());
        let mut out = Vec::with_capacity(n);
        for i in 0..n {
            out.push(f.add(self.coeff(i), other.coeff(i)));
        }
        Poly::from_coeffs(out)
    }

    /// Scale every coefficient by `c`, through the batched
    /// `Field::scalar_mul_slice` kernel (one backend dispatch per call).
    pub fn scale(&self, c: u64, f: &Field) -> Poly {
        if c == 0 {
            return Poly::zero();
        }
        let mut coeffs = self.coeffs.clone();
        f.scalar_mul_slice(&mut coeffs, c);
        Poly::from_coeffs(coeffs)
    }

    /// Polynomial multiplication.
    ///
    /// Dispatches on size: operands below `KARATSUBA_CUTOFF` (32) use the
    /// row-batched schoolbook kernel (each row is one
    /// `Field::scalar_mul_slice` call, so the backend dispatch is paid per
    /// row, not per coefficient pair); larger operands recurse through
    /// Karatsuba, which in characteristic 2 needs only XORs besides its
    /// three half-size products — O(n^1.585) instead of O(n²).
    pub fn mul(&self, other: &Poly, f: &Field) -> Poly {
        if self.is_zero() || other.is_zero() {
            return Poly::zero();
        }
        Poly::from_coeffs(mul_coeffs(&self.coeffs, &other.coeffs, f))
    }

    /// Quotient and remainder of `self / divisor`.
    ///
    /// # Panics
    /// Panics if `divisor` is the zero polynomial.
    pub fn div_rem(&self, divisor: &Poly, f: &Field) -> (Poly, Poly) {
        assert!(!divisor.is_zero(), "polynomial division by zero");
        let dd = divisor.degree().unwrap();
        if self.is_zero() || self.degree().unwrap() < dd {
            return (Poly::zero(), self.clone());
        }
        let lead_inv = f.inv(divisor.leading());
        let mut rem = self.coeffs.clone();
        let mut quot = vec![0u64; rem.len() - dd];
        // One reusable row buffer: each elimination step is `divisor · q`
        // through the batched scalar kernel, XORed into the remainder window.
        let mut scratch = vec![0u64; divisor.coeffs.len()];
        for i in (dd..rem.len()).rev() {
            let c = rem[i];
            if c == 0 {
                continue;
            }
            let q = f.mul(c, lead_inv);
            quot[i - dd] = q;
            scratch.copy_from_slice(&divisor.coeffs);
            f.scalar_mul_slice(&mut scratch, q);
            for (r, &s) in rem[i - dd..].iter_mut().zip(&scratch) {
                *r ^= s;
            }
        }
        (Poly::from_coeffs(quot), Poly::from_coeffs(rem))
    }

    /// Remainder of `self mod divisor`.
    pub fn rem(&self, divisor: &Poly, f: &Field) -> Poly {
        self.div_rem(divisor, f).1
    }

    /// Monic greatest common divisor.
    pub fn gcd(&self, other: &Poly, f: &Field) -> Poly {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.rem(&b, f);
            a = b;
            b = r;
        }
        a.into_monic(f)
    }

    /// Divide by the leading coefficient so the polynomial is monic.
    pub fn into_monic(self, f: &Field) -> Poly {
        if self.is_zero() {
            return self;
        }
        let lead = self.leading();
        if lead == 1 {
            return self;
        }
        self.scale(f.inv(lead), f)
    }

    /// Evaluate the polynomial at `x` by Horner's rule.
    pub fn eval(&self, x: u64, f: &Field) -> u64 {
        let mut acc = 0u64;
        for &c in self.coeffs.iter().rev() {
            acc = f.add(f.mul(acc, x), c);
        }
        acc
    }

    /// `self^2 mod modulus`. Squaring in characteristic 2 is the Frobenius
    /// map applied to each coefficient with degrees doubled, which is much
    /// cheaper than a general multiplication.
    pub fn square_mod(&self, modulus: &Poly, f: &Field) -> Poly {
        if self.is_zero() {
            return Poly::zero();
        }
        let mut out = vec![0u64; 2 * self.coeffs.len() - 1];
        for (i, &c) in self.coeffs.iter().enumerate() {
            if c != 0 {
                out[2 * i] = f.square(c);
            }
        }
        Poly::from_coeffs(out).rem(modulus, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f8() -> Field {
        Field::new(8)
    }

    #[test]
    fn construction_normalizes_leading_zeros() {
        let p = Poly::from_coeffs(vec![1, 2, 0, 0]);
        assert_eq!(p.degree(), Some(1));
        assert_eq!(p.coeffs(), &[1, 2]);
        assert!(Poly::from_coeffs(vec![0, 0]).is_zero());
        assert_eq!(Poly::zero().degree(), None);
    }

    #[test]
    fn add_is_involutive() {
        let f = f8();
        let a = Poly::from_coeffs(vec![3, 7, 11]);
        let b = Poly::from_coeffs(vec![5, 7]);
        let s = a.add(&b, &f);
        assert_eq!(s.add(&b, &f), a);
        assert_eq!(a.add(&a, &f), Poly::zero());
    }

    #[test]
    fn mul_matches_known_product() {
        let f = f8();
        // (x + 1)(x + 1) = x^2 + 1 in characteristic 2
        let p = Poly::from_coeffs(vec![1, 1]);
        let sq = p.mul(&p, &f);
        assert_eq!(sq, Poly::from_coeffs(vec![1, 0, 1]));
    }

    #[test]
    fn div_rem_reconstructs() {
        let f = f8();
        let a = Poly::from_coeffs(vec![7, 2, 0, 5, 9, 1]);
        let b = Poly::from_coeffs(vec![3, 0, 1]);
        let (q, r) = a.div_rem(&b, &f);
        let back = q.mul(&b, &f).add(&r, &f);
        assert_eq!(back, a);
        assert!(r.degree_or_zero() < b.degree().unwrap());
    }

    #[test]
    fn gcd_of_product_with_common_factor() {
        let f = f8();
        let common = Poly::from_coeffs(vec![5, 1]); // x + 5
        let a = common.mul(&Poly::from_coeffs(vec![9, 0, 1]), &f);
        let b = common.mul(&Poly::from_coeffs(vec![1, 1]), &f);
        let g = a.gcd(&b, &f);
        // gcd should be divisible by (x + 5) and vice versa: compare monic forms.
        assert_eq!(g, common.clone().into_monic(&f));
    }

    #[test]
    fn eval_and_roots_of_linear_product() {
        let f = f8();
        // Build (x - 3)(x - 17)(x - 200); in char 2, -a == a.
        let roots = [3u64, 17, 200];
        let mut p = Poly::one();
        for &r in &roots {
            p = p.mul(&Poly::from_coeffs(vec![r, 1]), &f);
        }
        for &r in &roots {
            assert_eq!(p.eval(r, &f), 0);
        }
        assert_ne!(p.eval(5, &f), 0);
        let found: Vec<u64> = (1..f.order()).filter(|&x| p.eval(x, &f) == 0).collect();
        assert_eq!(found, vec![3, 17, 200]);
    }

    #[test]
    fn square_mod_matches_mul_then_rem() {
        let f = Field::new(11);
        let modulus = Poly::from_coeffs(vec![3, 0, 1, 0, 0, 1]); // degree 5
        let p = Poly::from_coeffs(vec![100, 2000, 5, 1]);
        assert_eq!(p.square_mod(&modulus, &f), p.mul(&p, &f).rem(&modulus, &f));
    }

    #[test]
    #[should_panic(expected = "polynomial division by zero")]
    fn division_by_zero_panics() {
        let f = f8();
        let a = Poly::one();
        let _ = a.div_rem(&Poly::zero(), &f);
    }
}
