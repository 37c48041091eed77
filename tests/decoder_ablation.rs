//! Decoder ablation at the cluster level: the default syndrome decoder
//! (Berlekamp–Massey) and its independent reference, Gao, must produce
//! bit-identical round reports in every configuration (asserted rather than
//! eyeballed).

use coded_state_machine::algebra::{Field, Fp61, Gf2_16};
use coded_state_machine::csm::{
    CodingMode, CsmClusterBuilder, DecoderKind, FaultSpec, SynchronyMode,
};
use coded_state_machine::statemachine::machines::{bank_machine, interest_machine};

fn f(v: u64) -> Fp61 {
    Fp61::from_u64(v)
}

fn build<FF: Field>(
    decoder: DecoderKind,
    sync: SynchronyMode,
    coding: CodingMode,
) -> coded_state_machine::csm::CsmCluster<FF> {
    let k = 3;
    let mut builder = CsmClusterBuilder::<FF>::new(14, k)
        .transition(bank_machine::<FF>())
        .initial_states(
            (0..k as u64)
                .map(|i| vec![FF::from_u64(50 * (i + 1))])
                .collect(),
        )
        .decoder(decoder)
        .synchrony(sync)
        .coding(coding)
        .assumed_faults(2)
        .seed(77);
    builder = builder.fault(0, FaultSpec::CorruptResult);
    builder = builder.fault(1, FaultSpec::Withhold);
    builder.build().unwrap()
}

/// Steps one cluster per decoder — the default first — through the same
/// rounds and asserts that their reports never differ.
fn assert_identical_reports(sync: SynchronyMode, coding: CodingMode) {
    assert_eq!(DecoderKind::default(), DecoderKind::BerlekampMassey);
    let mut clusters = [DecoderKind::default(), DecoderKind::Gao]
        .map(|decoder| build::<Fp61>(decoder, sync, coding));
    for r in 0..3u64 {
        let cmds: Vec<Vec<Fp61>> = (0..3).map(|i| vec![f(i + r + 1)]).collect();
        let reports: Vec<_> = clusters
            .iter_mut()
            .map(|cluster| cluster.step(cmds.clone()).unwrap())
            .collect();
        for report in &reports {
            assert!(report.correct);
            assert_eq!(report.outputs, reports[0].outputs, "round {r} {coding:?}");
            assert_eq!(report.new_states, reports[0].new_states);
            assert_eq!(report.detected_error_nodes, reports[0].detected_error_nodes);
            assert_eq!(report.digest, reports[0].digest);
        }
    }
}

#[test]
fn bm_and_gao_identical_reports_synchronous() {
    for coding in [
        CodingMode::Distributed,
        CodingMode::Centralized {
            epsilon: 1e-3,
            mu: 0.25,
        },
    ] {
        assert_identical_reports(SynchronyMode::Synchronous, coding);
    }
}

#[test]
fn bm_and_gao_identical_reports_partial_synchrony() {
    assert_identical_reports(SynchronyMode::PartiallySynchronous, CodingMode::Distributed);
}

#[test]
fn gao_over_gf2m_degree_two() {
    let k = 2;
    let mut cluster = CsmClusterBuilder::<Gf2_16>::new(12, k)
        .transition(interest_machine::<Gf2_16>())
        .initial_states(
            (0..k as u64)
                .map(|i| vec![Gf2_16::from_u64(0xA0 + i)])
                .collect(),
        )
        .decoder(DecoderKind::Gao)
        .fault(11, FaultSpec::OffsetResult)
        .assumed_faults(2)
        .build()
        .unwrap();
    for _ in 0..3 {
        let cmds: Vec<Vec<Gf2_16>> = (0..k as u64)
            .map(|i| vec![Gf2_16::from_u64(i + 1)])
            .collect();
        let report = cluster.step(cmds).unwrap();
        assert!(report.correct);
        assert_eq!(report.detected_error_nodes, vec![11]);
    }
}
