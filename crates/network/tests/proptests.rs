//! Property test for the MAC unforgeability model.

use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// MAC unforgeability model: tampering with any part of a signed
    /// message invalidates it; honest verification always succeeds.
    #[test]
    fn mac_soundness(
        n in 1usize..8,
        signer in 0usize..8,
        payload in any::<(u64, u32, bool)>(),
        tamper_bit in 0u32..64,
        seed in any::<u64>(),
    ) {
        let signer = signer % n;
        let reg = KeyRegistry::new(n, seed);
        let sig = reg.sign(NodeId(signer), &payload);
        prop_assert!(reg.verify(&payload, &sig));
        // flipped-tag forgery
        let forged = Signature { tag: sig.tag ^ (1u64 << tamper_bit), ..sig };
        prop_assert!(!reg.verify(&payload, &forged));
        // altered payload
        let altered = (payload.0.wrapping_add(1), payload.1, payload.2);
        prop_assert!(!reg.verify(&altered, &sig));
        // cross-signer replay
        if n > 1 {
            let other = Signature { signer: NodeId((signer + 1) % n), ..sig };
            prop_assert!(!reg.verify(&payload, &other));
        }
    }
}
