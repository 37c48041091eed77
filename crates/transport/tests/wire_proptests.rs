//! Property tests for the wire format (C-WIRE): every frame type
//! round-trips through the full `[len][body]` framing, MAC verification
//! accepts exactly the untampered frames, and arbitrary byte mutations
//! are either rejected by the codec or fail authentication — never
//! accepted as a different valid authenticated frame. The codec is
//! canonical, so receivers may MAC the payload bytes they received.

use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_transport::{Frame, Payload, PreparedCertWire, ViewChangeWire, Wire, WIRE_VERSION};
use proptest::prelude::*;

const N: usize = 8;

fn registry() -> KeyRegistry {
    KeyRegistry::new(N, 0xFEED)
}

fn rows_strategy() -> impl Strategy<Value = Vec<Vec<u64>>> {
    prop::collection::vec(prop::collection::vec(any::<u64>(), 0..6), 0..4)
}

fn sigs_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    prop::collection::vec((0u64..N as u64, any::<u64>()), 0..5)
}

fn prepared_strategy() -> impl Strategy<Value = Option<PreparedCertWire>> {
    (0u8..2, any::<u64>(), rows_strategy(), sigs_strategy()).prop_map(|(some, view, rows, sigs)| {
        (some == 1).then_some(PreparedCertWire { view, rows, sigs })
    })
}

fn view_change_strategy() -> impl Strategy<Value = ViewChangeWire> {
    (
        any::<u64>(),
        0u64..N as u64,
        any::<u64>(),
        prepared_strategy(),
    )
        .prop_map(|(new_view, signer, tag, prepared)| ViewChangeWire {
            new_view,
            signer,
            tag,
            prepared,
        })
}

/// Text with multi-byte UTF-8 characters.
fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u32>(), 0..8).prop_map(|cs| {
        cs.into_iter()
            .filter_map(|c| char::from_u32(c % 0x11_0000))
            .collect()
    })
}

fn payload() -> impl Strategy<Value = Payload> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..4)
        )
            .prop_map(|(shard, client, seq, command)| Payload::Submit {
                shard,
                client,
                seq,
                command
            }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..4)
        )
            .prop_map(|(shard, round, client, seq, output)| Payload::Reply {
                shard,
                round,
                client,
                seq,
                output
            }),
        any::<u64>().prop_map(|nonce| Payload::TelemetryRequest { nonce }),
        (any::<u64>(), any::<u64>(), any::<u64>(), text_strategy()).prop_map(
            |(nonce, node, round, snapshot)| Payload::TelemetryReply {
                nonce,
                node,
                round,
                snapshot
            }
        ),
        (
            any::<u64>(),
            0u64..N as u64,
            prop::collection::vec(any::<u64>(), 0..12)
        )
            .prop_map(|(round, sender, values)| Payload::Result {
                round,
                sender,
                values
            }),
        (any::<u64>(), 0u64..N as u64, any::<u64>()).prop_map(|(round, sender, digest)| {
            Payload::Commit {
                round,
                sender,
                digest,
            }
        }),
        any::<u64>().prop_map(|nonce| Payload::Ping { nonce }),
        (
            any::<u64>(),
            0u64..N as u64,
            prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 0..5)
        )
            .prop_map(|(round, sender, commands)| Payload::Stage {
                round,
                sender,
                commands
            }),
        any::<u64>().prop_map(|from_round| Payload::StateRequest { from_round }),
        (any::<u64>(), rows_strategy(), sigs_strategy())
            .prop_map(|(round, rows, chain)| Payload::BatchRelay { round, rows, chain }),
        (
            any::<u64>(),
            any::<u64>(),
            0u8..3,
            rows_strategy(),
            any::<u64>()
        )
            .prop_map(|(round, view, phase, rows, tag)| Payload::BatchVote {
                round,
                view,
                phase,
                rows,
                tag
            }),
        (any::<u64>(), view_change_strategy())
            .prop_map(|(round, vote)| Payload::BatchViewChange { round, vote }),
        (
            any::<u64>(),
            any::<u64>(),
            rows_strategy(),
            prop::collection::vec(view_change_strategy(), 0..3)
        )
            .prop_map(|(round, view, rows, justification)| Payload::BatchNewView {
                round,
                view,
                rows,
                justification
            }),
        (
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(prop::collection::vec(any::<u64>(), 0..4), 0..5)
        )
            .prop_map(|(round, digest, results)| Payload::StateChunk {
                round,
                digest,
                results
            }),
        (any::<u64>(), any::<u64>(), any::<u64>())
            .prop_map(|(shard, client, qid)| { Payload::Query { shard, client, qid } }),
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(any::<u64>(), 0..6)
        )
            .prop_map(|(shard, round, client, qid, value)| Payload::QueryReply {
                shard,
                round,
                client,
                qid,
                value
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn payload_roundtrips(p in payload()) {
        let bytes = p.to_bytes();
        prop_assert_eq!(bytes.len(), p.encoded_len());
        prop_assert_eq!(Payload::from_bytes(&bytes).expect("decodes"), p);
    }

    /// Any body `decode_body` accepts re-encodes byte for byte to itself,
    /// and the payload bytes `decode_signed` hands a receiver to MAC are
    /// the payload's encoding: MACing the received bytes accepts exactly
    /// the frames that MACing a re-encoding accepted.
    #[test]
    fn accepted_bodies_reencode_to_themselves(
        p in payload(),
        signer in 0usize..N,
        flips in prop::collection::vec((any::<u64>(), any::<u8>()), 1..4),
        raw in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let frame = Frame::sign(p, &registry(), NodeId(signer));
        let mut body = frame.to_wire_bytes().split_off(4);
        for (pos, x) in flips {
            let at = pos as usize % body.len();
            body[at] ^= x;
        }
        for candidate in [body, [&[WIRE_VERSION][..], &raw].concat()] {
            if let Ok((back, signed)) = Frame::decode_signed(&candidate) {
                prop_assert_eq!(&back.to_wire_bytes()[4..], &candidate[..]);
                prop_assert_eq!(&back.payload.to_bytes()[..], signed);
                prop_assert_eq!(Frame::decode_body(&candidate), Ok(back));
            }
        }
    }

    #[test]
    fn signed_frame_roundtrips_and_verifies(p in payload(), signer in 0usize..N) {
        let reg = registry();
        let frame = Frame::sign(p, &reg, NodeId(signer));
        let bytes = frame.to_wire_bytes();
        let back = Frame::read_from(&mut &bytes[..]).expect("reads back");
        prop_assert_eq!(&back, &frame);
        prop_assert!(back.verify(&reg), "genuine frame must verify");
        // a receiver MACs exactly the payload's encoding
        let (_, signed) = Frame::decode_signed(&bytes[4..]).expect("decodes");
        prop_assert_eq!(signed, &frame.payload.to_bytes()[..]);
        prop_assert!(reg.verify_bytes(signed, &frame.sig));
    }

    #[test]
    fn byte_flips_never_yield_a_different_valid_frame(
        p in payload(),
        signer in 0usize..N,
        flip_byte in any::<u8>(),
        pos_pick in any::<u64>(),
    ) {
        prop_assume!(flip_byte != 0); // xor 0 is the identity
        let reg = registry();
        let frame = Frame::sign(p, &reg, NodeId(signer));
        let mut bytes = frame.to_wire_bytes();
        // flip within the body (skip the 4-byte length prefix so the
        // frame stays readable at all; truncation is covered separately)
        let body_len = bytes.len() - 4;
        let pos = 4 + (pos_pick as usize % body_len);
        bytes[pos] ^= flip_byte;
        match Frame::read_from(&mut &bytes[..]) {
            Err(_) => {} // codec rejected the mutation
            Ok(mutated) => {
                // decodable mutations must fail authentication unless the
                // mutation landed outside the authenticated content and
                // reconstructed the identical frame
                if mutated != frame {
                    prop_assert!(
                        !mutated.verify(&reg),
                        "tampered frame verified: flipped byte {} with {:#x}",
                        pos,
                        flip_byte
                    );
                }
            }
        }
    }

    #[test]
    fn truncated_frames_rejected(p in payload(), signer in 0usize..N, cut in any::<u64>()) {
        let reg = registry();
        let frame = Frame::sign(p, &reg, NodeId(signer));
        let bytes = frame.to_wire_bytes();
        let keep = cut as usize % bytes.len(); // strictly shorter
        prop_assert!(Frame::read_from(&mut &bytes[..keep]).is_err());
    }

    #[test]
    fn impersonation_always_fails_verification(
        p in payload(),
        real in 0usize..N,
        claimed in 0usize..N,
    ) {
        prop_assume!(real != claimed);
        let reg = registry();
        let forged = Frame::forge(p, &reg, NodeId(real), NodeId(claimed));
        prop_assert!(!forged.verify(&reg));
    }
}
