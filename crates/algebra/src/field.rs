//! The [`Field`] trait abstracting the finite field `F` over which every CSM
//! object (states, commands, codewords) lives.
//!
//! The paper (§2) only requires a field large enough to host `N` distinct
//! evaluation points (`|F| ≥ N`, §5.1); this crate provides binary extension
//! fields [`crate::Gf2_8`], [`crate::Gf2_16`], [`crate::Gf2_32`] (used for the
//! Appendix-A Boolean embedding) and the Mersenne prime field
//! [`crate::Fp61`].

use std::fmt::{Debug, Display};
use std::hash::Hash;
use std::iter::{Product, Sum};
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

use rand::Rng;

/// A finite field element.
///
/// Implementors are small `Copy` value types. All operations are total except
/// division by zero, which panics; use [`Field::inverse`] for a checked
/// reciprocal.
///
/// # Examples
///
/// ```
/// use csm_algebra::{Field, Gf2_16};
///
/// let a = Gf2_16::from_u64(7);
/// let b = Gf2_16::from_u64(13);
/// assert_eq!(a * b * b.inverse().unwrap(), a);
/// assert_eq!(a + a, Gf2_16::ZERO); // characteristic 2
/// ```
pub trait Field:
    Copy
    + Clone
    + Debug
    + Display
    + Default
    + PartialEq
    + Eq
    + Hash
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
    + AddAssign
    + SubAssign
    + MulAssign
    + DivAssign
    + Sum
    + Product
{
    /// Additive identity.
    const ZERO: Self;
    /// Multiplicative identity.
    const ONE: Self;

    /// Number of elements in the field.
    fn order() -> u128;

    /// Characteristic of the field (2 for binary extension fields, `p` for
    /// prime fields).
    fn characteristic() -> u64;

    /// Multiplicative inverse, or `None` for zero.
    fn inverse(&self) -> Option<Self>;

    /// Canonical embedding of small integers: for prime fields `v mod p`, for
    /// `GF(2^m)` the low `m` bits of `v` interpreted as polynomial
    /// coefficients.
    ///
    /// For all `v < Self::order()`, `from_u64(v)` yields pairwise-distinct
    /// elements; this is how the paper's evaluation points `ω_1..ω_K` and
    /// `α_1..α_N` are chosen.
    fn from_u64(v: u64) -> Self;

    /// Inverse of [`Field::from_u64`] on canonical representatives.
    fn to_canonical_u64(&self) -> u64;

    /// Uniformly random field element.
    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self;

    /// `self^exp` by square-and-multiply.
    fn pow(&self, mut exp: u64) -> Self {
        let mut base = *self;
        let mut acc = Self::ONE;
        while exp > 0 {
            if exp & 1 == 1 {
                acc *= base;
            }
            base = base * base;
            exp >>= 1;
        }
        acc
    }

    /// Whether this is the additive identity.
    fn is_zero(&self) -> bool {
        *self == Self::ZERO
    }

    /// Whether this is the multiplicative identity.
    fn is_one(&self) -> bool {
        *self == Self::ONE
    }

    /// `self * self`.
    fn square(&self) -> Self {
        *self * *self
    }

    /// The `idx`-th element of a fixed enumeration of distinct field
    /// elements.
    ///
    /// # Panics
    ///
    /// Panics if `idx as u128 >= Self::order()`, since distinctness can no
    /// longer be guaranteed.
    fn element(idx: u64) -> Self {
        assert!(
            (idx as u128) < Self::order(),
            "element index {idx} out of range for field of order {}",
            Self::order()
        );
        Self::from_u64(idx)
    }

    /// A uniformly random *nonzero* element.
    fn random_nonzero<R: Rng + ?Sized>(rng: &mut R) -> Self {
        loop {
            let x = Self::random(rng);
            if !x.is_zero() {
                return x;
            }
        }
    }

    /// The dot product `Σ a_i·b_i`: `n` multiplications and `n` additions.
    /// A field may override it with an equal but cheaper evaluation, such as
    /// one that reduces once per many products.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    fn dot(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        a.iter()
            .zip(b)
            .fold(Self::ZERO, |acc, (&x, &y)| acc + x * y)
    }

    /// Batch-inverts a slice of elements in 3(n-1) multiplications plus one
    /// inversion (Montgomery's trick). Returns `None` if any element is zero.
    fn batch_inverse(xs: &[Self]) -> Option<Vec<Self>> {
        if xs.is_empty() {
            return Some(Vec::new());
        }
        let mut prefix = Vec::with_capacity(xs.len());
        let mut acc = Self::ONE;
        for &x in xs {
            if x.is_zero() {
                return None;
            }
            prefix.push(acc);
            acc *= x;
        }
        let mut inv = acc.inverse()?;
        let mut out = vec![Self::ZERO; xs.len()];
        for i in (0..xs.len()).rev() {
            out[i] = prefix[i] * inv;
            inv *= xs[i];
        }
        Some(out)
    }
}

/// Returns `n` pairwise-distinct field elements starting at enumeration index
/// `start`, i.e. `element(start), ..., element(start + n - 1)`.
///
/// This is the helper used to pick the paper's `ω` and `α` point sets
/// (§5.1: "pick K arbitrarily distinct elements ... then pick N arbitrarily
/// distinct elements").
///
/// # Panics
///
/// Panics if `start + n` exceeds the field order.
pub fn distinct_elements<F: Field>(start: u64, n: usize) -> Vec<F> {
    (0..n as u64).map(|i| F::element(start + i)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp61, Gf2_16, Gf2_8};

    #[allow(clippy::eq_op)] // `a - a` / `a / a` are the axioms under test
    fn field_axioms<F: Field>(elems: &[F]) {
        for &a in elems {
            assert_eq!(a + F::ZERO, a);
            assert_eq!(a * F::ONE, a);
            assert_eq!(a - a, F::ZERO);
            assert_eq!(a + (-a), F::ZERO);
            if !a.is_zero() {
                let inv = a.inverse().unwrap();
                assert_eq!(a * inv, F::ONE);
                assert_eq!(a / a, F::ONE);
            }
            for &b in elems {
                assert_eq!(a + b, b + a);
                assert_eq!(a * b, b * a);
                for &c in elems {
                    assert_eq!((a + b) + c, a + (b + c));
                    assert_eq!((a * b) * c, a * (b * c));
                    assert_eq!(a * (b + c), a * b + a * c);
                }
            }
        }
    }

    #[test]
    fn axioms_gf2_8() {
        let elems: Vec<Gf2_8> = (0..16).map(Gf2_8::from_u64).collect();
        field_axioms(&elems);
    }

    #[test]
    fn axioms_gf2_16() {
        let elems: Vec<Gf2_16> = (0..12).map(|i| Gf2_16::from_u64(i * 7919 + 1)).collect();
        field_axioms(&elems);
    }

    #[test]
    fn axioms_fp61() {
        let elems: Vec<Fp61> = (0..12)
            .map(|i| Fp61::from_u64(i * 0x9E3779B9 + 3))
            .collect();
        field_axioms(&elems);
    }

    #[test]
    fn distinct_elements_are_distinct() {
        let pts = distinct_elements::<Gf2_16>(0, 300);
        let set: std::collections::HashSet<_> = pts.iter().collect();
        assert_eq!(set.len(), 300);
    }

    #[test]
    fn batch_inverse_matches_individual() {
        let xs: Vec<Fp61> = (1..50).map(Fp61::from_u64).collect();
        let invs = Fp61::batch_inverse(&xs).unwrap();
        for (x, inv) in xs.iter().zip(&invs) {
            assert_eq!(x.inverse().unwrap(), *inv);
        }
    }

    #[test]
    fn batch_inverse_rejects_zero() {
        let xs = vec![Fp61::ONE, Fp61::ZERO];
        assert!(Fp61::batch_inverse(&xs).is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn element_out_of_range_panics() {
        let _ = Gf2_8::element(256);
    }

    #[test]
    fn pow_matches_repeated_multiplication() {
        let x = Fp61::from_u64(12345);
        let mut acc = Fp61::ONE;
        for e in 0..20u64 {
            assert_eq!(x.pow(e), acc);
            acc *= x;
        }
    }
}
