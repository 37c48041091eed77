//! Dense univariate polynomials over a [`Field`].
//!
//! This module supplies the machinery behind the paper's coding layer:
//! Lagrange interpolation builds `u_t(z)` from the states (§5.1) and `v_t(z)`
//! from the commands (§5.2); evaluation at the node points `α_i` produces
//! coded states/commands; and the Reed–Solomon decoders in
//! `csm-reed-solomon` are built from division and extended Euclidean
//! algorithms defined here.

use crate::field::Field;

/// Multiplications below this size use the schoolbook algorithm; above it,
/// Karatsuba. Chosen empirically; correctness does not depend on it.
const KARATSUBA_THRESHOLD: usize = 32;

/// A dense univariate polynomial with coefficients in low-to-high order.
///
/// The representation is normalized: the leading coefficient is nonzero, and
/// the zero polynomial has an empty coefficient vector.
///
/// # Examples
///
/// ```
/// use csm_algebra::{Field, Fp61, Poly};
///
/// // p(z) = 3 + 2z + z^2
/// let p = Poly::new(vec![Fp61::from_u64(3), Fp61::from_u64(2), Fp61::ONE]);
/// assert_eq!(p.degree(), Some(2));
/// assert_eq!(p.eval(Fp61::from_u64(2)), Fp61::from_u64(11));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Poly<F> {
    coeffs: Vec<F>,
}

impl<F: Field> Poly<F> {
    /// Creates a polynomial from coefficients (low-to-high), trimming
    /// trailing zeros.
    pub fn new(mut coeffs: Vec<F>) -> Self {
        while coeffs.last().is_some_and(|c| c.is_zero()) {
            coeffs.pop();
        }
        Poly { coeffs }
    }

    /// The zero polynomial.
    pub fn zero() -> Self {
        Poly { coeffs: Vec::new() }
    }

    /// The constant polynomial `1`.
    pub fn one() -> Self {
        Poly {
            coeffs: vec![F::ONE],
        }
    }

    /// The constant polynomial `c`.
    pub fn constant(c: F) -> Self {
        Self::new(vec![c])
    }

    /// The monomial `c · z^degree`.
    pub fn monomial(c: F, degree: usize) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![F::ZERO; degree + 1];
        coeffs[degree] = c;
        Poly { coeffs }
    }

    /// `Π_i (z - roots[i])`, one root at a time, in place.
    pub fn from_roots(roots: &[F]) -> Self {
        let mut coeffs = vec![F::ZERO; roots.len() + 1];
        coeffs[0] = F::ONE;
        for (deg, &r) in roots.iter().enumerate() {
            coeffs[deg + 1] = coeffs[deg];
            for j in (1..=deg).rev() {
                coeffs[j] = coeffs[j - 1] - r * coeffs[j];
            }
            coeffs[0] = -(r * coeffs[0]);
        }
        Poly { coeffs }
    }

    /// Degree, or `None` for the zero polynomial.
    pub fn degree(&self) -> Option<usize> {
        self.coeffs.len().checked_sub(1)
    }

    /// Whether this is the zero polynomial.
    pub fn is_zero(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Coefficients in low-to-high order (no trailing zeros).
    pub fn coeffs(&self) -> &[F] {
        &self.coeffs
    }

    /// Consumes the polynomial, returning its coefficient vector.
    pub fn into_coeffs(self) -> Vec<F> {
        self.coeffs
    }

    /// The coefficient of `z^i` (zero beyond the degree).
    pub fn coeff(&self, i: usize) -> F {
        self.coeffs.get(i).copied().unwrap_or(F::ZERO)
    }

    /// The leading coefficient, or zero for the zero polynomial.
    pub fn leading_coeff(&self) -> F {
        self.coeffs.last().copied().unwrap_or(F::ZERO)
    }

    /// Evaluation by Horner's rule: `deg` multiplications and additions.
    pub fn eval(&self, x: F) -> F {
        let mut acc = F::ZERO;
        for &c in self.coeffs.iter().rev() {
            acc = acc * x + c;
        }
        acc
    }

    /// Evaluates at many points naively (`O(n·m)`); see
    /// [`crate::fastpoly::SubproductTree::eval`] for the quasi-linear
    /// algorithm used by the centralized worker (§6.2).
    pub fn eval_many(&self, xs: &[F]) -> Vec<F> {
        xs.iter().map(|&x| self.eval(x)).collect()
    }

    /// Multiplies by the scalar `c`.
    pub fn scale(&self, c: F) -> Self {
        if c.is_zero() {
            return Self::zero();
        }
        Poly::new(self.coeffs.iter().map(|&a| a * c).collect())
    }

    /// Multiplies by `z^k` (shifts coefficients up).
    pub fn shift_up(&self, k: usize) -> Self {
        if self.is_zero() {
            return Self::zero();
        }
        let mut coeffs = vec![F::ZERO; k + self.coeffs.len()];
        coeffs[k..].copy_from_slice(&self.coeffs);
        Poly { coeffs }
    }

    /// Formal derivative.
    pub fn derivative(&self) -> Self {
        if self.coeffs.len() <= 1 {
            return Self::zero();
        }
        let coeffs = self
            .coeffs
            .iter()
            .enumerate()
            .skip(1)
            .map(|(i, &c)| {
                // i·c in the prime field sense: add c to itself i times via
                // the field's characteristic.
                let reps = (i as u64) % F::characteristic();
                let mut acc = F::ZERO;
                let mut base = c;
                let mut k = reps;
                // double-and-add to keep this O(log i)
                while k > 0 {
                    if k & 1 == 1 {
                        acc += base;
                    }
                    base += base;
                    k >>= 1;
                }
                acc
            })
            .collect();
        Poly::new(coeffs)
    }

    /// Quotient and remainder of division by `divisor`.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero; use [`Poly::checked_div_rem`] when the
    /// divisor may be zero.
    pub fn div_rem(&self, divisor: &Self) -> (Self, Self) {
        self.checked_div_rem(divisor)
            .expect("polynomial division by zero")
    }

    /// Quotient and remainder, or `None` if `divisor` is zero.
    pub fn checked_div_rem(&self, divisor: &Self) -> Option<(Self, Self)> {
        if divisor.is_zero() {
            return None;
        }
        let d = divisor.degree().expect("nonzero");
        if self.is_zero() || self.degree().unwrap() < d {
            return Some((Self::zero(), self.clone()));
        }
        let lead_inv = divisor
            .leading_coeff()
            .inverse()
            .expect("leading coefficient nonzero");
        let mut rem = self.coeffs.clone();
        let n = rem.len();
        let mut quot = vec![F::ZERO; n - d];
        for i in (d..n).rev() {
            let q = rem[i] * lead_inv;
            if q.is_zero() {
                continue;
            }
            quot[i - d] = q;
            for j in 0..=d {
                let delta = q * divisor.coeffs[j];
                rem[i - d + j] -= delta;
            }
        }
        Some((Poly::new(quot), Poly::new(rem)))
    }

    /// Whether `divisor` divides `self` exactly.
    pub fn is_divisible_by(&self, divisor: &Self) -> bool {
        !divisor.is_zero() && self.div_rem(divisor).1.is_zero()
    }

    /// Greatest common divisor (monic).
    pub fn gcd(&self, other: &Self) -> Self {
        let mut a = self.clone();
        let mut b = other.clone();
        while !b.is_zero() {
            let r = a.div_rem(&b).1;
            a = b;
            b = r;
        }
        a.into_monic()
    }

    /// Scales so the leading coefficient is 1 (zero polynomial unchanged).
    pub fn into_monic(self) -> Self {
        match self.leading_coeff().inverse() {
            Some(inv) => self.scale(inv),
            None => self,
        }
    }

    /// Partial extended Euclidean algorithm: runs Euclid on `(self, other)`
    /// and stops at the first remainder of degree `< stop_degree`.
    ///
    /// Returns `(r, u, v)` with `r = u·self + v·other` and
    /// `deg r < stop_degree`. This is the core of Gao's Reed–Solomon decoder
    /// (used for the paper's noisy interpolation step, §5.2).
    pub fn partial_xgcd(&self, other: &Self, stop_degree: usize) -> (Self, Self, Self) {
        let mut r0 = self.clone();
        let mut r1 = other.clone();
        let mut u0 = Self::one();
        let mut u1 = Self::zero();
        let mut v0 = Self::zero();
        let mut v1 = Self::one();
        while r0.degree().is_some_and(|d| d >= stop_degree) {
            if r1.is_zero() {
                // The Euclidean remainder sequence continues ..., r0, 0; the
                // zero remainder is the first with degree < stop_degree.
                r0 = Self::zero();
                u0 = u1;
                v0 = v1;
                break;
            }
            let (q, r) = r0.div_rem(&r1);
            let u = u0 - q.clone() * u1.clone();
            let v = v0 - q * v1.clone();
            r0 = r1;
            r1 = r;
            u0 = u1;
            u1 = u;
            v0 = v1;
            v1 = v;
        }
        (r0, u0, v0)
    }

    /// Lagrange interpolation through `(xs[i], ys[i])`: the unique polynomial
    /// of degree `< xs.len()` passing through all points. `O(n²)`.
    ///
    /// This is exactly the paper's `u_t(z) = Σ_k S_k(t) Π_{ℓ≠k}
    /// (z-ω_ℓ)/(ω_k-ω_ℓ)` (§5.1).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length or `xs` contains duplicates.
    pub fn interpolate(xs: &[F], ys: &[F]) -> Self {
        Lagrange::new(xs).interpolate(ys)
    }

    /// Karatsuba/schoolbook product; the public API is the `*` operator.
    fn mul_impl(a: &[F], b: &[F]) -> Vec<F> {
        if a.is_empty() || b.is_empty() {
            return Vec::new();
        }
        if a.len().min(b.len()) <= KARATSUBA_THRESHOLD {
            let mut out = vec![F::ZERO; a.len() + b.len() - 1];
            for (i, &ai) in a.iter().enumerate() {
                if ai.is_zero() {
                    continue;
                }
                for (j, &bj) in b.iter().enumerate() {
                    out[i + j] += ai * bj;
                }
            }
            return out;
        }
        // Karatsuba: split at m.
        let m = a.len().max(b.len()) / 2;
        let (a0, a1) = a.split_at(m.min(a.len()));
        let (b0, b1) = b.split_at(m.min(b.len()));
        let z0 = Self::mul_impl(a0, b0);
        let z2 = Self::mul_impl(a1, b1);
        let a01: Vec<F> = add_slices(a0, a1);
        let b01: Vec<F> = add_slices(b0, b1);
        let mut z1 = Self::mul_impl(&a01, &b01);
        for (i, &c) in z0.iter().enumerate() {
            if i < z1.len() {
                z1[i] -= c;
            }
        }
        for (i, &c) in z2.iter().enumerate() {
            if i < z1.len() {
                z1[i] -= c;
            }
        }
        let mut out = vec![F::ZERO; a.len() + b.len() - 1];
        for (i, &c) in z0.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in z1.iter().enumerate() {
            if !c.is_zero() {
                out[i + m] += c;
            }
        }
        for (i, &c) in z2.iter().enumerate() {
            if !c.is_zero() {
                out[i + 2 * m] += c;
            }
        }
        out
    }
}

fn add_slices<F: Field>(a: &[F], b: &[F]) -> Vec<F> {
    let mut out = vec![F::ZERO; a.len().max(b.len())];
    for (i, &c) in a.iter().enumerate() {
        out[i] += c;
    }
    for (i, &c) in b.iter().enumerate() {
        out[i] += c;
    }
    out
}

/// The half of Lagrange interpolation that depends only on the points: the
/// basis numerators `m(z)/(z − x_k)` and the weights `1/m′(x_k)`, built in
/// `O(n²)` with a single field inversion. Every [`Lagrange::interpolate`]
/// through the same points then costs `n²` multiplications, so the
/// coordinates of a Reed–Solomon word that share an erasure pattern pay for
/// the basis once.
#[derive(Debug, Clone)]
pub struct Lagrange<F> {
    xs: Vec<F>,
    /// Row `k` holds the `n` coefficients of `Π_{l≠k} (z − x_l)`.
    numerators: Vec<F>,
    /// `1 / Π_{l≠k} (x_k − x_l)`.
    weights: Vec<F>,
}

impl<F: Field> Lagrange<F> {
    /// Builds the basis for interpolation through `xs`.
    ///
    /// # Panics
    ///
    /// Panics if `xs` contains duplicates.
    pub fn new(xs: &[F]) -> Self {
        let n = xs.len();
        let master = Poly::from_roots(xs).into_coeffs(); // m(z) = Π (z − x_i)
                                                         // synthetic division of m by every (z − x_k), one coefficient of all
                                                         // n quotients at a time (the n chains are independent), evaluating
                                                         // each quotient at its x_k on the way down: that value is m′(x_k)
        let mut numerators = vec![F::ZERO; n * n];
        let mut denominators = vec![F::ZERO; n];
        let mut carry = vec![master[n]; n];
        for j in (0..n).rev() {
            for (k, &x) in xs.iter().enumerate() {
                numerators[k * n + j] = carry[k];
                denominators[k] = denominators[k] * x + carry[k];
                carry[k] = master[j] + x * carry[k];
            }
        }
        debug_assert!(carry.iter().all(F::is_zero), "every x_k is a root of m");
        // m′ vanishes at a repeated root
        let weights = F::batch_inverse(&denominators).expect("duplicate interpolation point");
        Lagrange {
            xs: xs.to_vec(),
            numerators,
            weights,
        }
    }

    /// The interpolation points, in the order given to [`Lagrange::new`].
    pub fn points(&self) -> &[F] {
        &self.xs
    }

    /// The unique polynomial of degree `< n` with `p(xs[i]) = ys[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `ys.len()` differs from the number of points.
    pub fn interpolate(&self, ys: &[F]) -> Poly<F> {
        assert_eq!(self.xs.len(), ys.len(), "point/value length mismatch");
        let n = ys.len();
        let mut coeffs = vec![F::ZERO; n];
        let rows = self.numerators.chunks_exact(n.max(1));
        for ((row, &w), &y) in rows.zip(&self.weights).zip(ys) {
            let scale = y * w;
            for (c, &b) in coeffs.iter_mut().zip(row) {
                *c += scale * b;
            }
        }
        Poly::new(coeffs)
    }
}

impl<F: Field> Default for Poly<F> {
    fn default() -> Self {
        Self::zero()
    }
}

impl<F: Field> std::fmt::Display for Poly<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_zero() {
            return write!(f, "0");
        }
        let mut first = true;
        for (i, c) in self.coeffs.iter().enumerate() {
            if c.is_zero() {
                continue;
            }
            if !first {
                write!(f, " + ")?;
            }
            first = false;
            match i {
                0 => write!(f, "{c}")?,
                1 => write!(f, "{c}·z")?,
                _ => write!(f, "{c}·z^{i}")?,
            }
        }
        Ok(())
    }
}

impl<F: Field> std::ops::Add for Poly<F> {
    type Output = Poly<F>;
    fn add(self, rhs: Poly<F>) -> Poly<F> {
        Poly::new(add_slices(&self.coeffs, &rhs.coeffs))
    }
}

impl<F: Field> std::ops::Sub for Poly<F> {
    type Output = Poly<F>;
    fn sub(self, rhs: Poly<F>) -> Poly<F> {
        let mut out = vec![F::ZERO; self.coeffs.len().max(rhs.coeffs.len())];
        for (i, &c) in self.coeffs.iter().enumerate() {
            out[i] += c;
        }
        for (i, &c) in rhs.coeffs.iter().enumerate() {
            out[i] -= c;
        }
        Poly::new(out)
    }
}

impl<F: Field> std::ops::Neg for Poly<F> {
    type Output = Poly<F>;
    fn neg(self) -> Poly<F> {
        Poly {
            coeffs: self.coeffs.into_iter().map(|c| -c).collect(),
        }
    }
}

impl<F: Field> std::ops::Mul for Poly<F> {
    type Output = Poly<F>;
    fn mul(self, rhs: Poly<F>) -> Poly<F> {
        Poly::new(Poly::mul_impl(&self.coeffs, &rhs.coeffs))
    }
}

impl<'a, F: Field> std::ops::Mul<&'a Poly<F>> for &'a Poly<F> {
    type Output = Poly<F>;
    fn mul(self, rhs: &'a Poly<F>) -> Poly<F> {
        Poly::new(Poly::mul_impl(&self.coeffs, &rhs.coeffs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp61, Gf2_16};

    fn p(cs: &[u64]) -> Poly<Fp61> {
        Poly::new(cs.iter().map(|&c| Fp61::from_u64(c)).collect())
    }

    #[test]
    fn normalization_trims_zeros() {
        let q = p(&[1, 2, 0, 0]);
        assert_eq!(q.degree(), Some(1));
        assert_eq!(p(&[0, 0]).degree(), None);
        assert!(p(&[]).is_zero());
    }

    #[test]
    fn add_sub_mul_smoke() {
        let a = p(&[1, 2, 3]);
        let b = p(&[4, 5]);
        assert_eq!(a.clone() + b.clone(), p(&[5, 7, 3]));
        assert_eq!(a.clone() - a.clone(), Poly::zero());
        assert_eq!(a.clone() * b.clone(), p(&[4, 13, 22, 15]));
        assert_eq!(a * Poly::zero(), Poly::zero());
    }

    #[test]
    fn karatsuba_matches_schoolbook() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for &(la, lb) in &[(100usize, 100usize), (200, 77), (65, 300)] {
            let a: Vec<Fp61> = (0..la).map(|_| Fp61::from_u64(rng.gen())).collect();
            let b: Vec<Fp61> = (0..lb).map(|_| Fp61::from_u64(rng.gen())).collect();
            let fast = Poly::new(Poly::mul_impl(&a, &b));
            // schoolbook reference
            let mut slow = vec![Fp61::ZERO; la + lb - 1];
            for i in 0..la {
                for j in 0..lb {
                    slow[i + j] += a[i] * b[j];
                }
            }
            assert_eq!(fast, Poly::new(slow));
        }
    }

    #[test]
    fn div_rem_reconstructs() {
        let a = p(&[7, 0, 3, 1, 9]);
        let b = p(&[2, 1, 1]);
        let (q, r) = a.div_rem(&b);
        assert!(r.degree() < b.degree());
        assert_eq!(q * b + r, a);
    }

    #[test]
    fn div_by_zero_is_checked() {
        assert!(p(&[1]).checked_div_rem(&Poly::zero()).is_none());
    }

    #[test]
    fn interpolation_roundtrip() {
        let xs: Vec<Fp61> = (0..8).map(Fp61::from_u64).collect();
        let q = p(&[3, 1, 4, 1, 5, 9, 2, 6]);
        let ys = q.eval_many(&xs);
        assert_eq!(Poly::interpolate(&xs, &ys), q);
    }

    #[test]
    fn interpolation_gf2m() {
        let xs: Vec<Gf2_16> = (1..10).map(Gf2_16::from_u64).collect();
        let ys: Vec<Gf2_16> = (0..9).map(|i| Gf2_16::from_u64(i * 37 + 5)).collect();
        let q = Poly::interpolate(&xs, &ys);
        assert!(q.degree().unwrap_or(0) < 9);
        for (x, y) in xs.iter().zip(&ys) {
            assert_eq!(q.eval(*x), *y);
        }
    }

    #[test]
    fn lagrange_basis_serves_many_value_vectors() {
        let xs: Vec<Fp61> = (3..9).map(Fp61::from_u64).collect();
        let basis = Lagrange::new(&xs);
        assert_eq!(basis.points(), &xs[..]);
        for q in [p(&[3, 1, 4, 1, 5, 9]), p(&[2, 7]), Poly::zero()] {
            assert_eq!(basis.interpolate(&q.eval_many(&xs)), q);
        }
        assert!(Lagrange::<Fp61>::new(&[]).interpolate(&[]).is_zero());
    }

    #[test]
    #[should_panic(expected = "duplicate interpolation point")]
    fn interpolation_rejects_duplicates() {
        let xs = vec![Fp61::ONE, Fp61::ONE];
        let ys = vec![Fp61::ZERO, Fp61::ONE];
        let _ = Poly::interpolate(&xs, &ys);
    }

    #[test]
    fn from_roots_vanishes() {
        let roots: Vec<Fp61> = (3..9).map(Fp61::from_u64).collect();
        let m = Poly::from_roots(&roots);
        assert_eq!(m.degree(), Some(6));
        for r in roots {
            assert_eq!(m.eval(r), Fp61::ZERO);
        }
        assert_ne!(m.eval(Fp61::from_u64(100)), Fp61::ZERO);
    }

    #[test]
    fn derivative_product_rule() {
        let a = p(&[1, 2, 3, 4]);
        let b = p(&[5, 6, 7]);
        let lhs = (a.clone() * b.clone()).derivative();
        let rhs = a.derivative() * b.clone() + a * b.derivative();
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn derivative_char2() {
        // over GF(2^m), d/dz z^2 = 0
        let q: Poly<Gf2_16> = Poly::monomial(Gf2_16::ONE, 2);
        assert!(q.derivative().is_zero());
        let lin: Poly<Gf2_16> = Poly::new(vec![Gf2_16::from_u64(3), Gf2_16::from_u64(5)]);
        assert_eq!(lin.derivative(), Poly::constant(Gf2_16::from_u64(5)));
    }

    #[test]
    fn gcd_of_products() {
        let a = p(&[1, 1]); // z + 1
        let b = p(&[2, 1]); // z + 2
        let c = p(&[3, 1]); // z + 3
        let g = (a.clone() * b.clone()).gcd(&(a.clone() * c));
        assert_eq!(g, a.into_monic());
        assert_eq!(b.gcd(&Poly::zero()), b.into_monic());
    }

    #[test]
    fn partial_xgcd_invariant() {
        let a = p(&[1, 2, 3, 4, 5, 6, 7]);
        let b = p(&[7, 5, 3, 1, 8]);
        let (r, u, v) = a.partial_xgcd(&b, 3);
        assert!(r.degree().is_none_or(|d| d < 3));
        assert_eq!(u * a + v * b, r);
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", Poly::<Fp61>::zero()), "0");
        assert_eq!(format!("{}", p(&[1, 0, 2])), "1 + 2·z^2");
    }

    #[test]
    fn shift_up_and_monomial() {
        assert_eq!(p(&[1, 2]).shift_up(2), p(&[0, 0, 1, 2]));
        assert_eq!(Poly::monomial(Fp61::from_u64(5), 3), p(&[0, 0, 0, 5]));
        assert_eq!(Poly::<Fp61>::monomial(Fp61::ZERO, 3), Poly::zero());
    }
}
