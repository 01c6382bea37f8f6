//! Property-based tests for GF(2^m) field and polynomial arithmetic.

use gf::{Field, Poly};
use proptest::prelude::*;

fn field_strategy() -> impl Strategy<Value = Field> {
    prop_oneof![
        Just(Field::new(3)),
        Just(Field::new(7)),
        Just(Field::new(8)),
        Just(Field::new(11)),
        Just(Field::new(13)),
        Just(Field::new(17)),
        Just(Field::new(24)),
        Just(Field::new(32)),
    ]
}

/// The seed's per-coefficient-pair product, O(deg_a · deg_b): the oracle
/// Karatsuba is held to.
fn schoolbook(a: &Poly, b: &Poly, f: &Field) -> Poly {
    if a.is_zero() || b.is_zero() {
        return Poly::zero();
    }
    let mut out = vec![0u64; a.coeffs().len() + b.coeffs().len() - 1];
    for (i, &x) in a.coeffs().iter().enumerate() {
        for (j, &y) in b.coeffs().iter().enumerate() {
            out[i + j] ^= f.mul(x, y);
        }
    }
    Poly::from_coeffs(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn field_axioms(f in field_strategy(), a_raw in any::<u64>(), b_raw in any::<u64>(), c_raw in any::<u64>()) {
        let a = a_raw % f.order();
        let b = b_raw % f.order();
        let c = c_raw % f.order();
        // commutativity
        prop_assert_eq!(f.add(a, b), f.add(b, a));
        prop_assert_eq!(f.mul(a, b), f.mul(b, a));
        // associativity
        prop_assert_eq!(f.mul(f.mul(a, b), c), f.mul(a, f.mul(b, c)));
        prop_assert_eq!(f.add(f.add(a, b), c), f.add(a, f.add(b, c)));
        // distributivity
        prop_assert_eq!(f.mul(a, f.add(b, c)), f.add(f.mul(a, b), f.mul(a, c)));
        // identities
        prop_assert_eq!(f.mul(a, 1), a);
        prop_assert_eq!(f.add(a, 0), a);
        prop_assert_eq!(f.add(a, a), 0);
    }

    #[test]
    fn inverse_round_trip(f in field_strategy(), a_raw in any::<u64>()) {
        let a = a_raw % f.order();
        prop_assume!(a != 0);
        let inv = f.inv(a);
        prop_assert_eq!(f.mul(a, inv), 1);
        prop_assert_eq!(f.div(f.mul(a, 0x3) % f.order().max(1), a), f.mul(f.mul(a, 0x3) % f.order().max(1), inv));
    }

    #[test]
    fn frobenius_is_field_automorphism(f in field_strategy(), a_raw in any::<u64>(), b_raw in any::<u64>()) {
        let a = a_raw % f.order();
        let b = b_raw % f.order();
        prop_assert_eq!(f.square(f.mul(a, b)), f.mul(f.square(a), f.square(b)));
        prop_assert_eq!(f.square(f.add(a, b)), f.add(f.square(a), f.square(b)));
    }

    #[test]
    fn poly_mul_distributes_over_add(
        f in field_strategy(),
        a in prop::collection::vec(any::<u64>(), 0..8),
        b in prop::collection::vec(any::<u64>(), 0..8),
        c in prop::collection::vec(any::<u64>(), 0..8),
    ) {
        let reduce = |v: Vec<u64>| Poly::from_coeffs(v.into_iter().map(|x| x % f.order()).collect());
        let (a, b, c) = (reduce(a), reduce(b), reduce(c));
        let lhs = a.mul(&b.add(&c, &f), &f);
        let rhs = a.mul(&b, &f).add(&a.mul(&c, &f), &f);
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn karatsuba_mul_matches_schoolbook(
        f in field_strategy(),
        a in prop::collection::vec(any::<u64>(), 0..200),
        b in prop::collection::vec(any::<u64>(), 0..200),
    ) {
        // Degrees straddle the Karatsuba cutoff from both sides, so the
        // dispatch, the recursion, and the unbalanced-split paths are all
        // exercised against the seed's schoolbook product.
        let reduce = |v: Vec<u64>| Poly::from_coeffs(v.into_iter().map(|x| x % f.order()).collect());
        let (a, b) = (reduce(a), reduce(b));
        prop_assert_eq!(a.mul(&b, &f), schoolbook(&a, &b, &f));
    }

    #[test]
    fn poly_div_rem_reconstruction(
        f in field_strategy(),
        a in prop::collection::vec(any::<u64>(), 0..12),
        b in prop::collection::vec(any::<u64>(), 1..6),
    ) {
        let reduce = |v: Vec<u64>| Poly::from_coeffs(v.into_iter().map(|x| x % f.order()).collect());
        let a = reduce(a);
        let b = reduce(b);
        prop_assume!(!b.is_zero());
        let (q, r) = a.div_rem(&b, &f);
        prop_assert_eq!(q.mul(&b, &f).add(&r, &f), a);
        if !r.is_zero() {
            prop_assert!(r.degree().unwrap() < b.degree().unwrap());
        }
    }

    #[test]
    fn poly_eval_is_ring_homomorphism(
        f in field_strategy(),
        a in prop::collection::vec(any::<u64>(), 0..8),
        b in prop::collection::vec(any::<u64>(), 0..8),
        x_raw in any::<u64>(),
    ) {
        let reduce = |v: Vec<u64>| Poly::from_coeffs(v.into_iter().map(|y| y % f.order()).collect());
        let a = reduce(a);
        let b = reduce(b);
        let x = x_raw % f.order();
        prop_assert_eq!(a.add(&b, &f).eval(x, &f), f.add(a.eval(x, &f), b.eval(x, &f)));
        prop_assert_eq!(a.mul(&b, &f).eval(x, &f), f.mul(a.eval(x, &f), b.eval(x, &f)));
    }

    #[test]
    fn gcd_divides_both(
        f in field_strategy(),
        a in prop::collection::vec(any::<u64>(), 1..8),
        b in prop::collection::vec(any::<u64>(), 1..8),
    ) {
        let reduce = |v: Vec<u64>| Poly::from_coeffs(v.into_iter().map(|y| y % f.order()).collect());
        let a = reduce(a);
        let b = reduce(b);
        prop_assume!(!a.is_zero() && !b.is_zero());
        let g = a.gcd(&b, &f);
        prop_assert!(!g.is_zero());
        prop_assert!(a.rem(&g, &f).is_zero());
        prop_assert!(b.rem(&g, &f).is_zero());
    }
}

/// Backend-equivalence properties: every fast path (table mul for
/// `m <= 16`, Barrett mul above, batched mul/square, the root kernel) must
/// agree with `Field::mul_reference` (portable carry-less multiply +
/// shift-loop reduction) for every supported degree, each field built the
/// one way there is, `Field::new(m)`.
mod backend_equivalence {
    use gf::{Field, Poly};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn barrett_mul_matches_reference_for_every_untabled_m(
            m in 17u32..=32,
            a_raw in any::<u64>(),
            b_raw in any::<u64>(),
        ) {
            let f = Field::new(m);
            prop_assert!(f.generator().is_none(), "no log tables above m = 16");
            let a = a_raw % f.order();
            let b = b_raw % f.order();
            prop_assert_eq!(f.mul(a, b), f.mul_reference(a, b));
            prop_assert_eq!(f.square(a), f.mul_reference(a, a));
        }

        #[test]
        fn table_mul_matches_reference_for_every_tabled_m(
            m in 3u32..=16,
            a_raw in any::<u64>(),
            b_raw in any::<u64>(),
        ) {
            let f = Field::new(m);
            prop_assert!(f.generator().is_some(), "log tables up to m = 16");
            let a = a_raw % f.order();
            let b = b_raw % f.order();
            prop_assert_eq!(f.mul(a, b), f.mul_reference(a, b));
            prop_assert_eq!(f.square(a), f.mul_reference(a, a));
        }
        #[test]
        fn batched_ops_match_reference(
            m in 3u32..=32,
            xs_raw in prop::collection::vec(any::<u64>(), 0..24),
            ys_raw in prop::collection::vec(any::<u64>(), 0..24),
            c_raw in any::<u64>(),
        ) {
            let f = Field::new(m);
            let n = xs_raw.len().min(ys_raw.len());
            let xs: Vec<u64> = xs_raw[..n].iter().map(|x| x % f.order()).collect();
            let ys: Vec<u64> = ys_raw[..n].iter().map(|y| y % f.order()).collect();
            let c = c_raw % f.order();

            let mut prod = xs.clone();
            f.mul_slice(&mut prod, &ys);
            for i in 0..n {
                prop_assert_eq!(prod[i], f.mul_reference(xs[i], ys[i]));
            }

            let mut sq = xs.clone();
            f.square_slice(&mut sq);
            for i in 0..n {
                prop_assert_eq!(sq[i], f.mul_reference(xs[i], xs[i]));
            }

            // `Poly::scale` is the slice kernel's caller: one
            // `scalar_mul_slice` over the coefficients.
            let scaled = Poly::from_coeffs(xs.clone()).scale(c, &f);
            for (i, &x) in xs.iter().enumerate() {
                prop_assert_eq!(scaled.coeff(i), f.mul_reference(x, c));
            }
        }

        /// The root kernel, through every entry this CPU runs, against
        /// naive evaluation at `g^0, g^1, …`: products of distinct linear
        /// factors (each root once, in that order), with a factor repeated,
        /// and arbitrary polynomials — a zero constant term (no root among
        /// the candidates) included.
        #[test]
        fn the_plane_kernel_matches_naive_evaluation(
            m in 3u32..=16,
            roots_raw in prop::collection::hash_set(any::<u64>(), 0..=12),
            arbitrary in prop::collection::vec(any::<u64>(), 1..=13),
            repeat in any::<bool>(),
        ) {
            let f = Field::new(m);
            let t = if m <= 11 { 12 } else { 2 };
            let mut p = Poly::one();
            for r in roots_raw.iter().map(|r| (r % (f.order() - 1)) + 1) {
                for _ in 0..1 + repeat as usize {
                    if p.degree_or_zero() < t {
                        p = p.mul(&Poly::from_coeffs(vec![r, 1]), &f);
                    }
                }
            }
            let arbitrary: Vec<u64> = arbitrary.iter().take(t + 1).map(|c| c % f.order()).collect();
            let g = f.generator().expect("small fields are table-backed");
            let candidates: Vec<u64> = std::iter::successors(Some(1u64), |&x| Some(f.mul(x, g)))
                .take(f.nonzero_count() as usize)
                .collect();
            let planes = f.power_planes(t).expect("small fields are table-backed");
            for poly in [p.coeffs().to_vec(), arbitrary] {
                let q = Poly::from_coeffs(poly.clone());
                let naive: Vec<u64> = candidates.iter().copied().filter(|&x| q.eval(x, &f) == 0).collect();
                for (name, planes) in planes.entries() {
                    let mut roots = Vec::new();
                    f.roots_in_planes(&planes, &poly, &mut roots);
                    prop_assert_eq!(&roots, &naive, "{} m={}", name, m);
                }
            }
        }
    }

    /// Deterministic sweep across every degree — both backends — so a
    /// backend bug cannot hide behind proptest sampling.
    #[test]
    fn all_degrees_all_backends_sample_grid() {
        for m in 3u32..=32 {
            let f = Field::new(m);
            let samples: Vec<u64> = (0..64u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % f.order())
                .collect();
            for (k, &a) in samples.iter().enumerate() {
                let b = samples[(k * 7 + 3) % samples.len()];
                assert_eq!(f.mul(a, b), f.mul_reference(a, b), "m={m} {a:#x}*{b:#x}");
                if a != 0 {
                    assert_eq!(f.mul(a, f.inv(a)), 1, "inv m={m} a={a:#x}");
                }
            }
        }
    }
}
