//! Binary extension fields `GF(2^m)`.
//!
//! These are the fields of Appendix A: a Boolean state machine over
//! `GF(2)` is embedded into `GF(2^m)` with `2^m ≥ N` so that the Lagrange
//! state encoding of §5.1 has enough distinct evaluation points.
//!
//! Elements are bit vectors of length `m` interpreted as polynomials over
//! `GF(2)` modulo a fixed irreducible polynomial. The moduli are taken from
//! Seroussi's table of low-weight binary irreducible polynomials and are
//! verified irreducible by Rabin's test in this module's test suite:
//!
//! | Field | Modulus |
//! |-------|---------|
//! | [`Gf2_8`]  | `x^8 + x^4 + x^3 + x + 1` |
//! | [`Gf2_16`] | `x^16 + x^5 + x^3 + x + 1` |
//! | [`Gf2_32`] | `x^32 + x^7 + x^3 + x^2 + 1` |
//!
//! Multiplication is carry-less (shift/xor) followed by modular reduction;
//! inversion is `x^(2^m - 2)` by square-and-multiply. No discrete-log tables
//! are used, so construction is allocation-free and `const`-friendly.

use crate::field::Field;
use rand::Rng;

/// Carry-less multiplication of two ≤ 32-bit polynomials over GF(2).
#[inline]
fn clmul(a: u64, b: u64) -> u64 {
    let mut acc = 0u64;
    let mut a = a;
    let mut i = 0;
    while a != 0 {
        if a & 1 == 1 {
            acc ^= b << i;
        }
        a >>= 1;
        i += 1;
    }
    acc
}

/// Reduces a polynomial of degree < 2m modulo the field polynomial.
///
/// `modulus` includes the leading `x^m` term; `m` is the extension degree.
#[inline]
fn reduce(mut x: u64, modulus: u64, m: u32) -> u64 {
    // Highest possible degree of x is 2m - 2 (< 63 for m ≤ 32).
    while x >> m != 0 {
        let deg = 63 - x.leading_zeros();
        x ^= modulus << (deg - m);
    }
    x
}

macro_rules! gf2m_field {
    ($(#[$doc:meta])* $name:ident, $m:expr, $modulus:expr) => {
        $(#[$doc])*
        #[derive(
            Debug,
            Clone,
            Copy,
            Default,
            PartialEq,
            Eq,
            Hash,
            PartialOrd,
            Ord,
            serde::Serialize,
        )]
        pub struct $name(u64);

        /// Reads the transparent `u64` back through
        /// [`Field::from_u64`]: the text may hold any `u64`, and every
        /// operation assumes the bits above `m` are clear.
        impl<'de> serde::Deserialize<'de> for $name {
            fn deserialize_json(
                p: &mut serde::json::Parser<'_>,
            ) -> Result<Self, serde::json::Error> {
                u64::deserialize_json(p).map(<Self as Field>::from_u64)
            }
        }

        impl $name {
            /// Extension degree `m` of this field over `GF(2)`.
            pub const EXTENSION_DEGREE: u32 = $m;

            /// The irreducible modulus polynomial, including the leading
            /// `x^m` term, as a bit vector.
            pub const MODULUS: u64 = $modulus;

            /// Constructs an element from its bit representation.
            ///
            /// # Panics
            ///
            /// Panics if `bits` has a set bit at position `m` or above.
            pub fn new(bits: u64) -> Self {
                assert!(
                    bits >> $m == 0,
                    "bit pattern {bits:#x} out of range for GF(2^{})",
                    $m
                );
                Self(bits)
            }

            /// The raw bit representation.
            pub fn bits(&self) -> u64 {
                self.0
            }
        }

        impl std::fmt::Display for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl std::ops::Add for $name {
            type Output = Self;
            #[inline]
            #[allow(clippy::suspicious_arithmetic_impl)] // char-2 addition IS xor
            fn add(self, rhs: Self) -> Self {
                Self(self.0 ^ rhs.0)
            }
        }

        impl std::ops::Sub for $name {
            type Output = Self;
            #[inline]
            #[allow(clippy::suspicious_arithmetic_impl)] // char 2: subtraction is addition
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 ^ rhs.0)
            }
        }

        impl std::ops::Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                self
            }
        }

        impl std::ops::Mul for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: Self) -> Self {
                Self(reduce(clmul(self.0, rhs.0), $modulus, $m))
            }
        }

        impl std::ops::Div for $name {
            type Output = Self;
            /// # Panics
            ///
            /// Panics if `rhs` is zero.
            #[allow(clippy::suspicious_arithmetic_impl)] // field division = mul by inverse
            fn div(self, rhs: Self) -> Self {
                self * rhs.inverse().expect("division by zero field element")
            }
        }

        impl std::ops::AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                *self = *self + rhs;
            }
        }
        impl std::ops::SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                *self = *self - rhs;
            }
        }
        impl std::ops::MulAssign for $name {
            #[inline]
            fn mul_assign(&mut self, rhs: Self) {
                *self = *self * rhs;
            }
        }
        impl std::ops::DivAssign for $name {
            fn div_assign(&mut self, rhs: Self) {
                *self = *self / rhs;
            }
        }

        impl std::iter::Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, |a, b| a + b)
            }
        }

        impl std::iter::Product for $name {
            fn product<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ONE, |a, b| a * b)
            }
        }

        impl From<u8> for $name {
            fn from(v: u8) -> Self {
                Self::from_u64(v as u64)
            }
        }

        impl Field for $name {
            const ZERO: Self = Self(0);
            const ONE: Self = Self(1);

            fn order() -> u128 {
                1u128 << $m
            }

            fn characteristic() -> u64 {
                2
            }

            fn inverse(&self) -> Option<Self> {
                if self.0 == 0 {
                    return None;
                }
                // x^(2^m - 2) = x^-1 in GF(2^m)*.
                Some(self.pow((1u64 << $m) - 2))
            }

            fn from_u64(v: u64) -> Self {
                Self(v & ((1u64 << $m) - 1))
            }

            fn to_canonical_u64(&self) -> u64 {
                self.0
            }

            fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
                Self(rng.gen::<u64>() & ((1u64 << $m) - 1))
            }
        }
    };
}

gf2m_field!(
    /// `GF(2^8)`: 256 elements; large enough for networks of up to 256 nodes.
    Gf2_8,
    8,
    0x11B
);

gf2m_field!(
    /// `GF(2^16)`: 65536 elements; the default field for CSM experiments.
    Gf2_16,
    16,
    0x1_002B
);

gf2m_field!(
    /// `GF(2^32)`: for very large networks or wide Boolean embeddings.
    Gf2_32,
    32,
    0x1_0000_008D
);

#[cfg(test)]
mod tests {
    use super::*;

    /// GF(2)[x] multiplication without reduction (for irreducibility tests).
    fn poly_mul_mod(a: u64, b: u64, modulus: u64, m: u32) -> u64 {
        reduce(clmul(a, b), modulus, m)
    }

    /// Rabin's irreducibility test for a degree-m binary polynomial:
    /// f is irreducible iff x^(2^m) ≡ x (mod f) and
    /// gcd(x^(2^(m/p)) - x, f) = 1 for every prime p | m.
    fn is_irreducible(modulus: u64, m: u32) -> bool {
        // x^(2^j) mod f by repeated squaring of x.
        let frob = |j: u32| -> u64 {
            let mut t = 0b10u64; // x
            for _ in 0..j {
                t = poly_mul_mod(t, t, modulus, m);
            }
            t
        };
        if frob(m) != 0b10 {
            return false;
        }
        let prime_divisors: Vec<u32> = (2..=m)
            .filter(|p| m.is_multiple_of(*p) && is_prime(*p))
            .collect();
        for p in prime_divisors {
            let h = frob(m / p) ^ 0b10; // x^(2^(m/p)) - x
            if binary_poly_gcd(h, modulus) != 1 {
                return false;
            }
        }
        true
    }

    fn is_prime(n: u32) -> bool {
        n >= 2
            && (2..n)
                .take_while(|d| d * d <= n)
                .all(|d| !n.is_multiple_of(d))
    }

    fn binary_poly_gcd(mut a: u64, mut b: u64) -> u64 {
        while b != 0 {
            let r = binary_poly_rem(a, b);
            a = b;
            b = r;
        }
        a
    }

    fn binary_poly_rem(mut a: u64, b: u64) -> u64 {
        let db = 63 - b.leading_zeros();
        while a != 0 {
            let da = 63 - a.leading_zeros();
            if da < db {
                break;
            }
            a ^= b << (da - db);
        }
        a
    }

    #[test]
    fn moduli_are_irreducible() {
        assert!(is_irreducible(Gf2_8::MODULUS, 8));
        assert!(is_irreducible(Gf2_16::MODULUS, 16));
        assert!(is_irreducible(Gf2_32::MODULUS, 32));
        // Sanity: reducible polynomials are rejected.
        assert!(!is_irreducible(0x100, 8)); // x^8 = (x)^8
        assert!(!is_irreducible(0x102, 8)); // divisible by x
    }

    #[test]
    fn exhaustive_inverse_gf2_8() {
        for v in 1..256u64 {
            let x = Gf2_8::from_u64(v);
            let inv = x.inverse().unwrap();
            assert_eq!(x * inv, Gf2_8::ONE, "inverse failed for {v:#x}");
        }
        assert!(Gf2_8::ZERO.inverse().is_none());
    }

    #[test]
    fn frobenius_is_additive_gf2_16() {
        // (a + b)^2 = a^2 + b^2 in characteristic 2.
        for i in 0..100u64 {
            let a = Gf2_16::from_u64(i * 641 + 3);
            let b = Gf2_16::from_u64(i * 257 + 11);
            assert_eq!((a + b).square(), a.square() + b.square());
        }
    }

    #[test]
    fn multiplicative_order_divides_group_order() {
        // x^(2^m - 1) = 1 for all nonzero x.
        for v in [1u64, 2, 3, 0xFF, 0xABCD, 0x1234] {
            let x = Gf2_16::from_u64(v);
            assert_eq!(x.pow((1 << 16) - 1), Gf2_16::ONE);
        }
    }

    #[test]
    fn new_rejects_out_of_range() {
        assert!(std::panic::catch_unwind(|| Gf2_8::new(256)).is_err());
        assert_eq!(Gf2_8::new(255).bits(), 255);
    }

    #[test]
    fn from_u64_masks() {
        assert_eq!(Gf2_8::from_u64(0x1FF).to_canonical_u64(), 0xFF);
    }

    #[test]
    fn char_two_negation_is_identity() {
        let x = Gf2_32::from_u64(0xDEADBEEF);
        assert_eq!(-x, x);
        assert_eq!(x + x, Gf2_32::ZERO);
    }

    #[test]
    fn mul_agrees_with_known_aes_style_vectors() {
        // In GF(2^8) mod x^8+x^4+x^3+x+1: 0x53 * 0xCA = 0x01 is the classic
        // AES inverse pair.
        let a = Gf2_8::new(0x53);
        let b = Gf2_8::new(0xCA);
        assert_eq!(a * b, Gf2_8::ONE);
        assert_eq!(a.inverse().unwrap(), b);
    }
}
