//! [`Counting<F>`] — a transparent field wrapper that records every
//! operation in the thread-local counters of [`crate::count`].
//!
//! Run any generic algorithm with `F = Counting<Gf2_16>` (say) inside
//! [`crate::count::measure`] to obtain its exact field-operation cost, which
//! is the complexity measure `c(·)` the paper uses to define throughput
//! (§2.2).

use crate::count;
use crate::field::Field;
use rand::Rng;

/// A field element that counts its own operations.
///
/// # Examples
///
/// ```
/// use csm_algebra::{count, Counting, Field, Gf2_16};
///
/// let a = Counting::<Gf2_16>::from_u64(3);
/// let b = Counting::<Gf2_16>::from_u64(5);
/// let (_, ops) = count::measure(|| a * b + a);
/// assert_eq!(ops.muls, 1);
/// assert_eq!(ops.adds, 1);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Counting<F>(pub F);

impl<F: Field> Counting<F> {
    /// The wrapped base-field element.
    pub fn into_inner(self) -> F {
        self.0
    }

    /// Wraps a slice of base-field elements.
    pub fn wrap_slice(xs: &[F]) -> Vec<Counting<F>> {
        xs.iter().map(|&x| Counting(x)).collect()
    }

    /// Unwraps a slice of counting elements.
    pub fn unwrap_slice(xs: &[Counting<F>]) -> Vec<F> {
        xs.iter().map(|x| x.0).collect()
    }
}

impl<F: Field> From<F> for Counting<F> {
    fn from(x: F) -> Self {
        Counting(x)
    }
}

impl<F: Field> std::fmt::Display for Counting<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl<F: Field> std::ops::Add for Counting<F> {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        count::record_add();
        Counting(self.0 + rhs.0)
    }
}

impl<F: Field> std::ops::Sub for Counting<F> {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        count::record_add();
        Counting(self.0 - rhs.0)
    }
}

impl<F: Field> std::ops::Neg for Counting<F> {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        Counting(-self.0)
    }
}

impl<F: Field> std::ops::Mul for Counting<F> {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        count::record_mul();
        Counting(self.0 * rhs.0)
    }
}

impl<F: Field> std::ops::Div for Counting<F> {
    type Output = Self;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    fn div(self, rhs: Self) -> Self {
        count::record_inv();
        Counting(self.0 / rhs.0)
    }
}

impl<F: Field> std::ops::AddAssign for Counting<F> {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl<F: Field> std::ops::SubAssign for Counting<F> {
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl<F: Field> std::ops::MulAssign for Counting<F> {
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl<F: Field> std::ops::DivAssign for Counting<F> {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl<F: Field> std::iter::Sum for Counting<F> {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl<F: Field> std::iter::Product for Counting<F> {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl<F: Field> Field for Counting<F> {
    const ZERO: Self = Counting(F::ZERO);
    const ONE: Self = Counting(F::ONE);

    fn order() -> u128 {
        F::order()
    }

    fn characteristic() -> u64 {
        F::characteristic()
    }

    fn inverse(&self) -> Option<Self> {
        count::record_inv();
        self.0.inverse().map(Counting)
    }

    fn from_u64(v: u64) -> Self {
        Counting(F::from_u64(v))
    }

    fn to_canonical_u64(&self) -> u64 {
        self.0.to_canonical_u64()
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Counting(F::random(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{count, Fp61};

    type C = Counting<Fp61>;

    #[test]
    fn operations_are_counted() {
        let a = C::from_u64(2);
        let b = C::from_u64(3);
        let ((), ops) = count::measure(|| {
            let _ = a + b;
            let _ = a - b;
            let _ = a * b;
            let _ = a / b;
            let _ = a.inverse();
        });
        assert_eq!(ops.adds, 2);
        assert_eq!(ops.muls, 1);
        assert_eq!(ops.invs, 2);
    }

    #[test]
    fn arithmetic_matches_base_field() {
        let a = C::from_u64(123456);
        let b = C::from_u64(654321);
        assert_eq!(
            (a * b).into_inner(),
            Fp61::from_u64(123456) * Fp61::from_u64(654321)
        );
        assert_eq!(
            (a + b).into_inner(),
            Fp61::from_u64(123456) + Fp61::from_u64(654321)
        );
        assert_eq!(a.pow(17).into_inner(), Fp61::from_u64(123456).pow(17));
    }

    #[test]
    fn dot_counts_every_product_and_sum() {
        let xs: Vec<Fp61> = (1..=70).map(Fp61::from_u64).collect();
        let wrapped = C::wrap_slice(&xs);
        let (got, ops) = count::measure(|| C::dot(&wrapped, &wrapped));
        assert_eq!(got.into_inner(), Fp61::dot(&xs, &xs));
        assert_eq!((ops.muls, ops.adds, ops.invs), (70, 70, 0));
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let xs = vec![Fp61::from_u64(1), Fp61::from_u64(2)];
        assert_eq!(C::unwrap_slice(&C::wrap_slice(&xs)), xs);
    }
}
