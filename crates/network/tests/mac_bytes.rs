//! The byte-string MAC the wire puts on every frame: pinned tags, so a
//! change to the mixer or the length binding fails here instead of
//! splitting a cluster that runs two builds, and the tamper properties
//! over every short length.

use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use proptest::prelude::*;

/// The encoded payload of `Result { round: 3, sender: 1, values: [5, 6,
/// 7] }`: tag byte 0, two `u64` fields, a `u32` length, three `u64`s, all
/// little-endian.
fn result_payload() -> Vec<u8> {
    let mut bytes = vec![0u8];
    bytes.extend(3u64.to_le_bytes());
    bytes.extend(1u64.to_le_bytes());
    bytes.extend(3u32.to_le_bytes());
    for v in [5u64, 6, 7] {
        bytes.extend(v.to_le_bytes());
    }
    bytes
}

#[test]
fn golden_tags() {
    let reg = KeyRegistry::new(4, 42);
    let msg: Vec<u8> = (1..=9).collect();
    let tag = |bytes: &[u8]| reg.sign_bytes(NodeId(1), bytes).tag;
    // empty, a lone tail, exactly one word, one word and a 1-byte tail
    assert_eq!(tag(&msg[..0]), 0xC020_4BBF_1A5C_0CCF);
    assert_eq!(tag(&msg[..7]), 0x393B_15FA_8220_EAA6);
    assert_eq!(tag(&msg[..8]), 0x2AD0_AEE6_5622_6D36);
    assert_eq!(tag(&msg[..9]), 0x8C35_3FA5_C5F6_EC55);
    // the signed Result frame of `csm_transport`'s golden frame test
    let payload = result_payload();
    assert_eq!(payload.len(), 45);
    assert_eq!(tag(&payload), 0x33C9_C397_0877_18CD);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For every length 0..=40 (every prefix of a 40-byte draw): the tag
    /// verifies, and any single-bit flip, dropping the last byte,
    /// appending a `0` byte, or verifying under another signer fails.
    /// `m` and `m ‖ 0` always get different tags.
    #[test]
    fn tamper_fails_at_every_length(
        bytes in prop::collection::vec(any::<u8>(), 40),
        n in 2usize..8,
        signer in 0usize..8,
        seed in any::<u64>(),
    ) {
        let (reg, signer) = (KeyRegistry::new(n, seed), NodeId(signer % n));
        for len in 0..=bytes.len() {
            let msg = &bytes[..len];
            let sig = reg.sign_bytes(signer, msg);
            prop_assert!(reg.verify_bytes(msg, &sig));
            let mut flipped = msg.to_vec();
            for bit in 0..8 * len {
                flipped[bit / 8] ^= 1 << (bit % 8);
                prop_assert!(!reg.verify_bytes(&flipped, &sig), "len {} bit {}", len, bit);
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            if let Some((_, shorter)) = msg.split_last() {
                prop_assert!(!reg.verify_bytes(shorter, &sig), "len {} dropped", len);
            }
            let padded = [msg, &[0]].concat();
            prop_assert!(!reg.verify_bytes(&padded, &sig), "len {} appended", len);
            prop_assert_ne!(reg.sign_bytes(signer, &padded).tag, sig.tag);
            let other = Signature { signer: NodeId((signer.0 + 1) % n), ..sig };
            prop_assert!(!reg.verify_bytes(msg, &other), "len {} other signer", len);
        }
    }
}
