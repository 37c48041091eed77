//! Simulated message authentication.
//!
//! The paper assumes "all messages between nodes are cryptographically
//! signed, and hence impersonating others' messages is easily detectable"
//! (§2.1). We simulate this with a keyed 64-bit MAC: every node holds a
//! secret key known (in the simulation) only to the [`KeyRegistry`];
//! Byzantine node *logic* never reads other nodes' keys, so forging a tag
//! for another signer requires guessing 64 bits.
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

/// A keyed [`Hasher`] used to MAC `Hash`-able messages.
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

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = mix(self.state ^ b as u64);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.state = mix(self.state ^ v);
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

    /// Signs a message as `signer`.
    ///
    /// # Panics
    ///
    /// Panics if `signer` is not registered.
    pub fn sign<M: Hash>(&self, signer: NodeId, msg: &M) -> Signature {
        let key = self.keys[signer.0];
        let mut h = MacHasher::with_key(key);
        msg.hash(&mut h);
        Signature {
            signer,
            tag: h.finish(),
        }
    }

    /// Verifies a signature against a message.
    ///
    /// Returns `false` (rather than panicking) for unknown signers, so a
    /// Byzantine node cannot crash verifiers with a bogus id.
    pub fn verify<M: Hash>(&self, msg: &M, sig: &Signature) -> bool {
        let Some(&key) = self.keys.get(sig.signer.0) else {
            return false;
        };
        let mut h = MacHasher::with_key(key);
        msg.hash(&mut h);
        h.finish() == sig.tag
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
