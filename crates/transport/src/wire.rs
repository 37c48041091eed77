//! The binary wire codec — a compact little-endian serialization in the
//! spirit of `bincode` (fixed-width integers, `u32`-length-prefixed
//! sequences). Hand-rolled because this build environment has no registry
//! access; the format is versioned in [`crate::frame`] so a future switch
//! to real `bincode` can bump the frame version.
//!
//! Decoding is defensive: every length is validated against the remaining
//! input before allocation, so a malformed or adversarial frame cannot
//! force a large allocation or a panic.

use std::fmt;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag byte named an unknown variant.
    UnknownTag(u8),
    /// A declared length exceeds the remaining input.
    LengthOverrun {
        /// Elements declared.
        declared: usize,
        /// Bytes actually remaining.
        remaining: usize,
    },
    /// A string was not valid UTF-8.
    InvalidUtf8,
    /// Trailing bytes after the value.
    TrailingBytes,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::UnknownTag(t) => write!(f, "unknown variant tag {t}"),
            WireError::LengthOverrun {
                declared,
                remaining,
            } => write!(
                f,
                "declared length {declared} exceeds remaining {remaining} bytes"
            ),
            WireError::InvalidUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A cursor over encoded bytes.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Reads from `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Fails unless the input is fully consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }
}

/// Values with a binary wire encoding.
pub trait Wire: Sized {
    /// The smallest number of bytes any value of this type encodes to.
    /// Length-prefix validation multiplies a declared element count by
    /// this, so a malformed prefix cannot amplify a small input into a
    /// large allocation (e.g. claiming 67M `u64`s inside a 64 MiB frame).
    const MIN_ENCODED_SIZE: usize = 1;

    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// The exact number of bytes [`encode`](Self::encode) appends, so an
    /// encoding buffer is sized once.
    fn encoded_len(&self) -> usize;

    /// Decodes one value.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// Convenience: encodes into a fresh buffer of exactly the encoded
    /// length.
    fn to_bytes(&self) -> Vec<u8> {
        let len = self.encoded_len();
        let mut out = Vec::with_capacity(len);
        self.encode(&mut out);
        debug_assert_eq!(out.len(), len, "encoded_len disagrees with encode");
        out
    }

    /// Convenience: decodes a complete buffer, rejecting trailing bytes.
    fn from_bytes(bytes: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

macro_rules! wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            const MIN_ENCODED_SIZE: usize = std::mem::size_of::<$t>();

            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn encoded_len(&self) -> usize {
                Self::MIN_ENCODED_SIZE
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact size")))
            }
        }
    )*};
}
wire_int!(u8, u16, u32, u64, i64);

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn encoded_len(&self) -> usize {
        1
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

/// Encodes a `u32` length prefix.
fn encode_len(len: usize, out: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("sequence length fits u32")
        .encode(out);
}

/// Decodes a length prefix and checks `declared * min_elem_size` fits the
/// remaining input, so malformed input cannot trigger huge allocations.
fn decode_len(r: &mut WireReader<'_>, min_elem_size: usize) -> Result<usize, WireError> {
    let declared = u32::decode(r)? as usize;
    let need = declared.saturating_mul(min_elem_size.max(1));
    if need > r.remaining() {
        return Err(WireError::LengthOverrun {
            declared,
            remaining: r.remaining(),
        });
    }
    Ok(declared)
}

impl<T: Wire> Wire for Vec<T> {
    /// The 4-byte length prefix of an empty sequence.
    const MIN_ENCODED_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        for v in self {
            v.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        4 + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r, T::MIN_ENCODED_SIZE)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl Wire for String {
    /// The 4-byte length prefix of the empty string.
    const MIN_ENCODED_SIZE: usize = 4;

    fn encode(&self, out: &mut Vec<u8>) {
        encode_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        4 + self.len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = decode_len(r, 1)?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::InvalidUtf8)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    const MIN_ENCODED_SIZE: usize = A::MIN_ENCODED_SIZE + B::MIN_ENCODED_SIZE;

    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Wire::encoded_len)
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(WireError::UnknownTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            assert_eq!(u64::from_bytes(&v.to_bytes()).unwrap(), v);
        }
        assert_eq!(i64::from_bytes(&(-42i64).to_bytes()).unwrap(), -42);
    }

    #[test]
    fn vec_roundtrip_and_overrun_guard() {
        let v = vec![1u64, 2, 3];
        assert_eq!(Vec::<u64>::from_bytes(&v.to_bytes()).unwrap(), v);
        // declared length 2^31 with 4 bytes of payload must be rejected
        let mut evil = Vec::new();
        0x8000_0000u32.encode(&mut evil);
        evil.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            Vec::<u64>::from_bytes(&evil),
            Err(WireError::LengthOverrun { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 7u64.to_bytes();
        bytes.push(0);
        assert_eq!(u64::from_bytes(&bytes), Err(WireError::TrailingBytes));
    }

    #[test]
    fn truncation_rejected() {
        let bytes = 7u64.to_bytes();
        assert_eq!(u64::from_bytes(&bytes[..5]), Err(WireError::Truncated));
    }

    #[test]
    fn string_and_option_roundtrip() {
        let s = "hello Δ-deadline".to_string();
        assert_eq!(String::from_bytes(&s.to_bytes()).unwrap(), s);
        let o: Option<u64> = Some(9);
        assert_eq!(Option::<u64>::from_bytes(&o.to_bytes()).unwrap(), o);
        assert_eq!(
            Option::<u64>::from_bytes(&None::<u64>.to_bytes()).unwrap(),
            None
        );
    }
}
