//! Simulated message authentication.
//!
//! The paper assumes "all messages between nodes are cryptographically
//! signed, and hence impersonating others' messages is easily detectable"
//! (§2.1). We simulate this with a keyed 64-bit MAC: every node holds a
//! secret key known (in the simulation) only to the [`KeyRegistry`];
//! Byzantine node *logic* never reads other nodes' keys, so forging a tag
//! for another signer requires guessing 64 bits.
//!
//! What is MACed is a byte string: the wire MACs a frame's encoded
//! payload bytes through [`KeyRegistry::sign_bytes`] /
//! [`KeyRegistry::verify_bytes`]. The keyed state absorbs the string's
//! length first (as a `u64`), then 8 bytes per mix (each word read
//! little-endian), then a zero-padded tail word tagged with the tail's
//! length in its top byte. Receivers MAC the payload bytes they received
//! rather than a re-encoding of what they decoded. The `Hash`-generic
//! [`KeyRegistry::sign`] / [`KeyRegistry::verify`] feed the same absorber
//! through [`Hasher`]; the consensus layer signs its domain-separated
//! values with them.
//!
//! This is a **simulation substitute, not cryptography**: the mixer is a
//! SplitMix64-style permutation, fine for modeling unforgeability in a
//! reproduction, unsuitable for real adversaries.

use crate::NodeId;
use std::hash::{Hash, Hasher};

/// A keyed 64-bit MAC tag naming its claimed signer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    /// The node that (claims to have) produced the tag.
    pub signer: NodeId,
    /// The MAC tag.
    pub tag: u64,
}

/// SplitMix64 finalizer — a full-avalanche 64-bit permutation.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The keyed MAC state: the one absorber every tag goes through.
#[derive(Debug, Clone)]
struct MacHasher {
    state: u64,
}

impl MacHasher {
    fn with_key(key: u64) -> Self {
        MacHasher { state: mix(key) }
    }
}

impl Hasher for MacHasher {
    fn finish(&self) -> u64 {
        mix(self.state)
    }

    /// Absorbs `bytes`: the length first, then 8 bytes per mix, then the
    /// zero-padded tail with its length in the top byte (a tail holds at
    /// most 7 bytes, so that byte is otherwise zero).
    fn write(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.write_u64(u64::from_le_bytes(word.try_into().expect("8-byte chunk")));
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0u8; 8];
            word[..tail.len()].copy_from_slice(tail);
            self.write_u64(u64::from_le_bytes(word) | ((tail.len() as u64) << 56));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state ^ v);
    }

    /// Lengths and indices mix as `u64`, so a tag does not depend on the
    /// platform's pointer width or byte order.
    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// Holds every node's signing key; the reproduction's stand-in for a PKI.
///
/// # Examples
///
/// ```
/// use csm_network::auth::KeyRegistry;
/// use csm_network::NodeId;
///
/// let reg = KeyRegistry::new(4, 42);
/// let sig = reg.sign(NodeId(1), &"transfer 10");
/// assert!(reg.verify(&"transfer 10", &sig));
/// assert!(!reg.verify(&"transfer 99", &sig));          // tampered payload
/// let forged = csm_network::auth::Signature { signer: NodeId(2), ..sig };
/// assert!(!reg.verify(&"transfer 10", &forged));        // impersonation
/// ```
#[derive(Debug, Clone)]
pub struct KeyRegistry {
    keys: Vec<u64>,
}

impl KeyRegistry {
    /// Creates keys for `n` nodes from a seed.
    pub fn new(n: usize, seed: u64) -> Self {
        let keys = (0..n as u64).map(|i| mix(seed ^ mix(i))).collect();
        KeyRegistry { keys }
    }

    /// Number of registered nodes.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The MAC tag of `msg` under `key`.
    fn tag<M: Hash + ?Sized>(key: u64, msg: &M) -> u64 {
        let mut h = MacHasher::with_key(key);
        msg.hash(&mut h);
        h.finish()
    }

    /// The MAC tag of the byte string `bytes` under `key`.
    fn tag_bytes(key: u64, bytes: &[u8]) -> u64 {
        let mut h = MacHasher::with_key(key);
        h.write(bytes);
        h.finish()
    }

    /// Signs a message as `signer`.
    ///
    /// # Panics
    ///
    /// Panics if `signer` is not registered.
    pub fn sign<M: Hash>(&self, signer: NodeId, msg: &M) -> Signature {
        Signature {
            signer,
            tag: Self::tag(self.keys[signer.0], msg),
        }
    }

    /// Verifies a signature against a message.
    ///
    /// Returns `false` (rather than panicking) for unknown signers, so a
    /// Byzantine node cannot crash verifiers with a bogus id.
    pub fn verify<M: Hash>(&self, msg: &M, sig: &Signature) -> bool {
        self.keys
            .get(sig.signer.0)
            .is_some_and(|&key| Self::tag(key, msg) == sig.tag)
    }

    /// Signs the byte string `bytes` as `signer`: the MAC the wire puts
    /// on a frame's encoded payload. Unlike [`sign`](Self::sign), the tag
    /// is a function of the bytes alone, not of how `Hash` walks a slice.
    ///
    /// # Panics
    ///
    /// Panics if `signer` is not registered.
    pub fn sign_bytes(&self, signer: NodeId, bytes: &[u8]) -> Signature {
        Signature {
            signer,
            tag: Self::tag_bytes(self.keys[signer.0], bytes),
        }
    }

    /// Verifies a [`sign_bytes`](Self::sign_bytes) signature; `false` for
    /// unknown signers, as [`verify`](Self::verify).
    pub fn verify_bytes(&self, bytes: &[u8], sig: &Signature) -> bool {
        self.keys
            .get(sig.signer.0)
            .is_some_and(|&key| Self::tag_bytes(key, bytes) == sig.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_roundtrip() {
        let reg = KeyRegistry::new(5, 7);
        for i in 0..5 {
            let sig = reg.sign(NodeId(i), &(i as u64 * 31));
            assert!(reg.verify(&(i as u64 * 31), &sig));
        }
    }

    #[test]
    fn tamper_detection() {
        let reg = KeyRegistry::new(3, 7);
        let sig = reg.sign(NodeId(0), &"hello");
        assert!(!reg.verify(&"hellp", &sig));
    }

    #[test]
    fn impersonation_detection() {
        let reg = KeyRegistry::new(3, 7);
        let sig = reg.sign(NodeId(0), &123u64);
        let forged = Signature {
            signer: NodeId(1),
            tag: sig.tag,
        };
        assert!(!reg.verify(&123u64, &forged));
    }

    #[test]
    fn unknown_signer_rejected_not_panicking() {
        let reg = KeyRegistry::new(2, 7);
        let bogus = Signature {
            signer: NodeId(99),
            tag: 0,
        };
        assert!(!reg.verify(&0u8, &bogus));
    }

    #[test]
    fn different_seeds_different_keys() {
        let a = KeyRegistry::new(2, 1);
        let b = KeyRegistry::new(2, 2);
        let sig_a = a.sign(NodeId(0), &42u64);
        assert!(!b.verify(&42u64, &sig_a));
    }

    #[test]
    fn tags_depend_on_message_structure() {
        let reg = KeyRegistry::new(1, 3);
        let s1 = reg.sign(NodeId(0), &(1u64, 2u64));
        let s2 = reg.sign(NodeId(0), &(2u64, 1u64));
        assert_ne!(s1.tag, s2.tag);
    }
}
