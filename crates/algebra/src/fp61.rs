//! The prime field `F_p` with `p = 2^61 - 1` (a Mersenne prime).
//!
//! Mersenne reduction makes multiplication one fold (a shift, a mask and an
//! add) and one conditional subtraction, and the field is comfortably large
//! enough for any network size the CSM harness simulates. Prime fields
//! model the paper's arithmetic examples directly ("updating the balance of
//! a bank account is a linear function", §4).

use crate::field::Field;
use rand::Rng;

/// The Mersenne prime `2^61 - 1`.
pub const P: u64 = (1 << 61) - 1;

/// An element of `F_p`, `p = 2^61 - 1`, stored in canonical form `< p`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord, serde::Serialize)]
pub struct Fp61(u64);

/// Reads the transparent `u64` back through [`Fp61::new`]: the text may
/// hold any `u64`, and every operation assumes canonical form.
impl<'de> serde::Deserialize<'de> for Fp61 {
    fn deserialize_json(p: &mut serde::json::Parser<'_>) -> Result<Self, serde::json::Error> {
        u64::deserialize_json(p).map(Self::new)
    }
}

impl Fp61 {
    /// Constructs an element, reducing `v` modulo `p`.
    pub fn new(v: u64) -> Self {
        Self(reduce64(v))
    }

    /// The canonical representative in `[0, p)`.
    pub fn value(&self) -> u64 {
        self.0
    }
}

/// Reduces a `u64` modulo `p = 2^61 - 1`.
#[inline]
fn reduce64(x: u64) -> u64 {
    let r = (x & P) + (x >> 61);
    if r >= P {
        r - P
    } else {
        r
    }
}

/// Reduces a full 128-bit product modulo `p = 2^61 - 1`.
#[inline]
fn reduce128(x: u128) -> u64 {
    // x = hi * 2^61 + lo, and 2^61 ≡ 1 (mod p).
    let lo = (x as u64) & P;
    let mid = ((x >> 61) as u64) & P;
    let hi = (x >> 122) as u64;
    reduce64(reduce64(lo + mid) + hi)
}

impl std::fmt::Display for Fp61 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::ops::Add for Fp61 {
    type Output = Self;
    #[inline]
    fn add(self, rhs: Self) -> Self {
        let s = self.0 + rhs.0; // < 2^62, no overflow
        Self(if s >= P { s - P } else { s })
    }
}

impl std::ops::Sub for Fp61 {
    type Output = Self;
    #[inline]
    fn sub(self, rhs: Self) -> Self {
        let (d, borrow) = self.0.overflowing_sub(rhs.0);
        Self(if borrow { d.wrapping_add(P) } else { d })
    }
}

impl std::ops::Neg for Fp61 {
    type Output = Self;
    #[inline]
    fn neg(self) -> Self {
        if self.0 == 0 {
            self
        } else {
            Self(P - self.0)
        }
    }
}

impl std::ops::Mul for Fp61 {
    type Output = Self;
    #[inline]
    fn mul(self, rhs: Self) -> Self {
        // both factors are canonical, so x ≤ (p − 1)² < 2^122: x >> 61 < p
        // and the one fold (2^61 ≡ 1) is below 2p
        let x = self.0 as u128 * rhs.0 as u128;
        let s = (x as u64 & P) + (x >> 61) as u64;
        Self(if s >= P { s - P } else { s })
    }
}

impl std::ops::Div for Fp61 {
    type Output = Self;
    /// # Panics
    ///
    /// Panics if `rhs` is zero.
    #[allow(clippy::suspicious_arithmetic_impl)] // field division = mul by inverse
    fn div(self, rhs: Self) -> Self {
        self * rhs.inverse().expect("division by zero field element")
    }
}

impl std::ops::AddAssign for Fp61 {
    #[inline]
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}
impl std::ops::SubAssign for Fp61 {
    #[inline]
    fn sub_assign(&mut self, rhs: Self) {
        *self = *self - rhs;
    }
}
impl std::ops::MulAssign for Fp61 {
    #[inline]
    fn mul_assign(&mut self, rhs: Self) {
        *self = *self * rhs;
    }
}
impl std::ops::DivAssign for Fp61 {
    fn div_assign(&mut self, rhs: Self) {
        *self = *self / rhs;
    }
}

impl std::iter::Sum for Fp61 {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ZERO, |a, b| a + b)
    }
}

impl std::iter::Product for Fp61 {
    fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::ONE, |a, b| a * b)
    }
}

impl From<u64> for Fp61 {
    fn from(v: u64) -> Self {
        Self::new(v)
    }
}

impl Field for Fp61 {
    const ZERO: Self = Self(0);
    const ONE: Self = Self(1);

    fn order() -> u128 {
        P as u128
    }

    fn characteristic() -> u64 {
        P
    }

    /// Fermat, `x^(p−2)`, by an addition chain: `p − 2 = 4·(2^59 − 1) + 1`,
    /// and `x^(2^59 − 1)` is built from `x^(2^a − 1)` by
    /// `x^(2^(a+b) − 1) = (x^(2^a − 1))^(2^b) · x^(2^b − 1)`. 60 squarings
    /// and 10 multiplications, where square-and-multiply takes about 120
    /// operations.
    fn inverse(&self) -> Option<Self> {
        if self.0 == 0 {
            return None;
        }
        let x = *self;
        let sq = |mut y: Self, times: u32| {
            for _ in 0..times {
                y = y * y;
            }
            y
        };
        // t_a = x^(2^a − 1)
        let t2 = sq(x, 1) * x;
        let t3 = sq(t2, 1) * x;
        let t6 = sq(t3, 3) * t3;
        let t12 = sq(t6, 6) * t6;
        let t24 = sq(t12, 12) * t12;
        let t48 = sq(t24, 24) * t24;
        let t54 = sq(t48, 6) * t6;
        let t57 = sq(t54, 3) * t3;
        let t59 = sq(t57, 2) * t2;
        Some(sq(t59, 2) * x)
    }

    /// Sums up to 64 unreduced products in a `u128` before one reduction:
    /// a product of canonical elements is below `2^122`, so 64 of them stay
    /// below `2^128`. A product of at most 64 terms (every row a decode
    /// reads) is one plain loop.
    #[inline]
    fn dot(a: &[Self], b: &[Self]) -> Self {
        assert_eq!(a.len(), b.len(), "dot product length mismatch");
        if a.len() <= 64 {
            let mut wide = 0u128;
            for (x, y) in a.iter().zip(b) {
                wide += x.0 as u128 * y.0 as u128;
            }
            return Self(reduce128(wide));
        }
        a.chunks(64)
            .zip(b.chunks(64))
            .map(|(a, b)| {
                let wide = a.iter().zip(b).map(|(x, y)| x.0 as u128 * y.0 as u128);
                Self(reduce128(wide.sum()))
            })
            .sum()
    }

    fn from_u64(v: u64) -> Self {
        Self::new(v)
    }

    fn to_canonical_u64(&self) -> u64 {
        self.0
    }

    fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        // Rejection sampling on 61-bit values for uniformity.
        loop {
            let v = rng.gen::<u64>() >> 3;
            if v < P {
                return Self(v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_at_boundaries() {
        assert_eq!(Fp61::new(P).value(), 0);
        assert_eq!(Fp61::new(P + 1).value(), 1);
        assert_eq!(Fp61::new(u64::MAX).value(), u64::MAX % P);
    }

    #[test]
    fn add_sub_roundtrip() {
        let a = Fp61::new(P - 1);
        let b = Fp61::new(12345);
        assert_eq!(a + b - b, a);
        assert_eq!(a - b + b, a);
    }

    #[test]
    fn neg_of_zero_is_zero() {
        assert_eq!(-Fp61::ZERO, Fp61::ZERO);
    }

    #[test]
    fn mul_matches_u128_reference() {
        let cases = [
            (0u64, 0u64),
            (1, P - 1),
            (P - 1, P - 1),
            (1 << 60, 1 << 60),
            (0xDEADBEEF, 0xCAFEBABE),
        ];
        for (a, b) in cases {
            let expect = ((a as u128 % P as u128) * (b as u128 % P as u128) % P as u128) as u64;
            assert_eq!((Fp61::new(a) * Fp61::new(b)).value(), expect);
        }
    }

    #[test]
    fn fermat_inverse() {
        for v in [1u64, 2, 3, 7, P - 1, 0x123456789] {
            let x = Fp61::new(v);
            assert_eq!(x * x.inverse().unwrap(), Fp61::ONE);
        }
        assert!(Fp61::ZERO.inverse().is_none());
    }

    #[test]
    fn addition_chain_inverse_matches_square_and_multiply() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(61);
        let random = (0..200).map(|_| Fp61::random_nonzero(&mut rng));
        for x in [1, 2, P - 1].map(Fp61::new).into_iter().chain(random) {
            assert_eq!(x.inverse(), Some(x.pow(P - 2)), "x = {x}");
        }
    }

    #[test]
    fn dot_reduces_every_64_products_at_the_u128_edge() {
        let top = Fp61::new(P - 1);
        for len in [0, 1, 63, 64, 65, 257] {
            let a = vec![top; len];
            let folded = a.iter().fold(Fp61::ZERO, |acc, &x| acc + x * x);
            assert_eq!(Fp61::dot(&a, &a), folded, "length {len}");
        }
    }

    #[test]
    fn random_is_canonical() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for _ in 0..100 {
            assert!(Fp61::random(&mut rng).value() < P);
        }
    }
}
