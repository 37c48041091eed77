//! Property-based tests for field, polynomial, and matrix invariants.

use csm_algebra::{
    dot, fast_eval_many, fast_interpolate, Field, Fp61, Gf2_16, Gf2_8, Matrix, Poly, SubproductTree,
};
use proptest::prelude::*;

fn fp61() -> impl Strategy<Value = Fp61> {
    any::<u64>().prop_map(Fp61::from_u64)
}

/// The Mersenne prime `Fp61` reduces modulo.
const P: u64 = (1 << 61) - 1;

/// Canonical `Fp61` values, weighted towards the edges of its one-fold
/// multiplication.
fn fp61_canonical() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(P - 1),
        Just(1u64 << 60),
        any::<u64>().prop_map(|v| v % P),
    ]
}

fn gf16() -> impl Strategy<Value = Gf2_16> {
    any::<u64>().prop_map(Gf2_16::from_u64)
}

fn poly_fp(max_len: usize) -> impl Strategy<Value = Poly<Fp61>> {
    prop::collection::vec(fp61(), 0..max_len).prop_map(Poly::new)
}

fn poly_gf(max_len: usize) -> impl Strategy<Value = Poly<Gf2_16>> {
    prop::collection::vec(gf16(), 0..max_len).prop_map(Poly::new)
}

proptest! {
    // ---------- field axioms ----------

    #[test]
    fn fp61_add_mul_distribute(a in fp61(), b in fp61(), c in fp61()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!((a + b) + c, a + (b + c));
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn fp61_mul_matches_u128_reference(a in fp61_canonical(), b in fp61_canonical()) {
        let want = (a as u128 * b as u128 % P as u128) as u64;
        prop_assert_eq!((Fp61::from_u64(a) * Fp61::from_u64(b)).value(), want);
    }

    #[test]
    fn fp61_sub_is_add_inverse(a in fp61(), b in fp61()) {
        prop_assert_eq!(a - b + b, a);
        prop_assert_eq!(a + (-a), Fp61::ZERO);
    }

    #[test]
    fn fp61_inverse_roundtrip(a in fp61()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Fp61::ONE);
        }
    }

    #[test]
    fn gf2_16_distributes(a in gf16(), b in gf16(), c in gf16()) {
        prop_assert_eq!(a * (b + c), a * b + a * c);
        prop_assert_eq!((a * b) * c, a * (b * c));
    }

    #[test]
    fn gf2_16_frobenius_endomorphism(a in gf16(), b in gf16()) {
        prop_assert_eq!((a + b).square(), a.square() + b.square());
        prop_assert_eq!((a * b).square(), a.square() * b.square());
    }

    #[test]
    fn gf2_16_inverse_roundtrip(a in gf16()) {
        if !a.is_zero() {
            prop_assert_eq!(a * a.inverse().unwrap(), Gf2_16::ONE);
        }
    }

    #[test]
    fn gf2_8_pow_respects_group_order(v in 1u64..256) {
        let x = Gf2_8::from_u64(v);
        prop_assert_eq!(x.pow(255), Gf2_8::ONE);
        prop_assert_eq!(x.pow(256), x);
    }

    #[test]
    fn batch_inverse_matches(xs in prop::collection::vec(1u64..u64::MAX, 1..40)) {
        let elems: Vec<Fp61> = xs.iter().map(|&v| Fp61::from_u64(v)).collect();
        if elems.iter().all(|x| !x.is_zero()) {
            let batch = Fp61::batch_inverse(&elems).unwrap();
            for (x, inv) in elems.iter().zip(&batch) {
                prop_assert_eq!(x.inverse().unwrap(), *inv);
            }
        }
    }

    // ---------- polynomial ring axioms ----------

    #[test]
    fn poly_mul_commutes(a in poly_fp(20), b in poly_fp(20)) {
        prop_assert_eq!(a.clone() * b.clone(), b * a);
    }

    #[test]
    fn poly_mul_degree_adds(a in poly_fp(20), b in poly_fp(20)) {
        let prod = a.clone() * b.clone();
        match (a.degree(), b.degree()) {
            (Some(da), Some(db)) => prop_assert_eq!(prod.degree(), Some(da + db)),
            _ => prop_assert!(prod.is_zero()),
        }
    }

    #[test]
    fn poly_div_rem_reconstructs(a in poly_fp(30), b in poly_fp(12)) {
        if !b.is_zero() {
            let (q, r) = a.div_rem(&b);
            prop_assert!(r.degree().is_none_or(|dr| dr < b.degree().unwrap()));
            prop_assert_eq!(q * b + r, a);
        }
    }

    #[test]
    fn poly_eval_is_ring_hom(a in poly_fp(15), b in poly_fp(15), x in fp61()) {
        prop_assert_eq!((a.clone() + b.clone()).eval(x), a.eval(x) + b.eval(x));
        prop_assert_eq!((a.clone() * b.clone()).eval(x), a.eval(x) * b.eval(x));
    }

    #[test]
    fn poly_gf2m_mul_karatsuba_consistency(a in poly_gf(80), b in poly_gf(80)) {
        // exercised across the Karatsuba threshold
        let p = a.clone() * b.clone();
        let x = Gf2_16::from_u64(0xABC);
        prop_assert_eq!(p.eval(x), a.eval(x) * b.eval(x));
    }

    // ---------- interpolation ----------

    #[test]
    fn interpolation_recovers_poly(coeffs in prop::collection::vec(fp61(), 1..24)) {
        let p = Poly::new(coeffs);
        let n = p.coeffs().len().max(1);
        let xs: Vec<Fp61> = (0..n as u64).map(Fp61::from_u64).collect();
        let ys = p.eval_many(&xs);
        prop_assert_eq!(Poly::interpolate(&xs, &ys), p.clone());
        prop_assert_eq!(fast_interpolate(&xs, &ys), p);
    }

    #[test]
    fn fast_eval_matches_naive(coeffs in prop::collection::vec(fp61(), 1..40),
                               npts in 1usize..40) {
        let p = Poly::new(coeffs);
        let xs: Vec<Fp61> = (0..npts as u64).map(|i| Fp61::from_u64(i * 17 + 1)).collect();
        prop_assert_eq!(fast_eval_many(&p, &xs), p.eval_many(&xs));
    }

    #[test]
    fn subproduct_tree_roundtrip_gf2m(vals in prop::collection::vec(gf16(), 1..48)) {
        let pts: Vec<Gf2_16> = (0..vals.len() as u64).map(|i| Gf2_16::from_u64(i + 1)).collect();
        let tree = SubproductTree::new(&pts);
        let p = tree.interpolate(&vals);
        prop_assert!(p.degree().is_none_or(|d| d < vals.len()));
        prop_assert_eq!(tree.eval(&p), vals);
    }

    // ---------- linear algebra ----------

    #[test]
    fn solve_recovers_solution(
        xs in prop::collection::vec(fp61(), 3..6),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let n = xs.len();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<Fp61> = (0..n * n).map(|_| Fp61::from_u64(rng.gen())).collect();
        let a = Matrix::from_rows(n, n, data);
        let b = a.mul_vec(&xs);
        if let Some(x) = a.solve(&b) {
            prop_assert_eq!(a.mul_vec(&x), b);
        }
    }

    #[test]
    fn matvec_is_linear(
        x in prop::collection::vec(fp61(), 4),
        y in prop::collection::vec(fp61(), 4),
        seed in any::<u64>(),
    ) {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let data: Vec<Fp61> = (0..12).map(|_| Fp61::from_u64(rng.gen())).collect();
        let a = Matrix::from_rows(3, 4, data);
        let sum: Vec<Fp61> = x.iter().zip(&y).map(|(&p, &q)| p + q).collect();
        let lhs = a.mul_vec(&sum);
        let rhs: Vec<Fp61> = a.mul_vec(&x).iter().zip(a.mul_vec(&y)).map(|(&p, q)| p + q).collect();
        prop_assert_eq!(lhs, rhs);
    }

    #[test]
    fn dot_symmetry(a in prop::collection::vec(fp61(), 8), b in prop::collection::vec(fp61(), 8)) {
        prop_assert_eq!(dot(&a, &b), dot(&b, &a));
    }

    #[test]
    fn vandermonde_solve_is_interpolation(ys in prop::collection::vec(fp61(), 2..10)) {
        let n = ys.len();
        let pts: Vec<Fp61> = (0..n as u64).map(|i| Fp61::from_u64(i + 1)).collect();
        let v = Matrix::vandermonde(&pts, n);
        let coeffs = v.solve(&ys).unwrap();
        let p = Poly::interpolate(&pts, &ys);
        let mut expect = p.coeffs().to_vec();
        expect.resize(n, Fp61::ZERO);
        prop_assert_eq!(coeffs, expect);
    }
}
