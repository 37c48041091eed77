//! Serde round-trips for the data-structure types (C-SERDE): field
//! elements and operation counters survive serialization, preserving
//! canonical form.

use csm_algebra::{Field, Fp61, Gf2_16, Gf2_32, Gf2_8, OpCounts};
use proptest::prelude::*;

fn roundtrip<
    T: serde::Serialize + for<'de> serde::Deserialize<'de> + PartialEq + std::fmt::Debug,
>(
    value: &T,
) {
    let json = serde_json::to_string(value).expect("serialize");
    let back: T = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(&back, value);
}

#[test]
fn deserialising_reduces_to_canonical_form() {
    let fp: Fp61 = serde_json::from_str("18446744073709551615").expect("deserialize");
    assert_eq!(fp, Fp61::from_u64(u64::MAX));
    assert_eq!(fp.value(), u64::MAX % ((1 << 61) - 1));
    let gf: Gf2_16 = serde_json::from_str("4294967295").expect("deserialize");
    assert_eq!(gf, Gf2_16::from_u64(4294967295));
    assert_eq!(gf.bits(), 0xFFFF);
}

proptest! {
    #[test]
    fn fp61_roundtrip(v in any::<u64>()) {
        roundtrip(&Fp61::from_u64(v));
    }

    #[test]
    fn gf2m_roundtrip(v in any::<u64>()) {
        roundtrip(&Gf2_8::from_u64(v));
        roundtrip(&Gf2_16::from_u64(v));
        roundtrip(&Gf2_32::from_u64(v));
    }

    #[test]
    fn opcounts_roundtrip(adds in any::<u64>(), muls in any::<u64>(), invs in any::<u64>()) {
        roundtrip(&OpCounts { adds, muls, invs });
    }

    #[test]
    fn vectors_of_elements_roundtrip(vs in prop::collection::vec(any::<u64>(), 0..20)) {
        let xs: Vec<Fp61> = vs.iter().map(|&v| Fp61::from_u64(v)).collect();
        roundtrip(&xs);
    }
}
