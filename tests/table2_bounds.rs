//! Empirical validation of **Table 2**: the upper bounds on the number of
//! malicious nodes `b` for (i) consensus on input commands, (ii) successful
//! decoding, and (iii) secure delivery of output results — each probed at
//! the boundary (`b` succeeds, `b + 1` fails).

use coded_state_machine::algebra::{Field, Fp61};
use coded_state_machine::consensus::batch::{
    run_ds_lockstep, run_pbft_lockstep, BatchRows, Conduct, PbftBatchConfig,
};
use coded_state_machine::csm::client::accept_replies;
use coded_state_machine::csm::metrics::Table2Bounds;
use coded_state_machine::csm::{CsmClusterBuilder, CsmError, FaultSpec, SynchronyMode};
use coded_state_machine::network::auth::KeyRegistry;
use coded_state_machine::statemachine::machines::bank_machine;
use std::sync::Arc;
use std::time::Duration;

fn decode_succeeds(n: usize, k: usize, b_inject: usize, sync: SynchronyMode) -> bool {
    let mut builder = CsmClusterBuilder::<Fp61>::new(n, k)
        .transition(bank_machine::<Fp61>())
        .initial_states((0..k as u64).map(|i| vec![Fp61::from_u64(i + 1)]).collect())
        .synchrony(sync)
        .assumed_faults(b_inject)
        .seed(1000 + b_inject as u64);
    for i in 0..b_inject {
        builder = builder.fault(i, FaultSpec::CorruptResult);
    }
    let mut cluster = match builder.build() {
        Ok(c) => c,
        Err(_) => return false,
    };
    let cmds: Vec<Vec<Fp61>> = (0..k as u64).map(|i| vec![Fp61::from_u64(i)]).collect();
    match cluster.step(cmds) {
        Ok(report) => report.correct,
        Err(CsmError::Decoding(_)) => false,
        Err(e) => panic!("unexpected error: {e}"),
    }
}

#[test]
fn decoding_bound_synchronous_is_tight() {
    // N=16, K=3, d=1: 2b+1 ≤ 16−2 → b ≤ 6
    let t = Table2Bounds { n: 16, k: 3, d: 1 };
    let b_max = (0..16)
        .take_while(|&b| t.decoding_ok(b, SynchronyMode::Synchronous))
        .last()
        .unwrap();
    assert_eq!(b_max, 6);
    assert!(decode_succeeds(16, 3, b_max, SynchronyMode::Synchronous));
    assert!(!decode_succeeds(
        16,
        3,
        b_max + 1,
        SynchronyMode::Synchronous
    ));
}

#[test]
fn decoding_bound_partially_synchronous_is_tight() {
    // N=16, K=3, d=1: 3b+1 ≤ 14 → b ≤ 4
    let t = Table2Bounds { n: 16, k: 3, d: 1 };
    let b_max = (0..16)
        .take_while(|&b| t.decoding_ok(b, SynchronyMode::PartiallySynchronous))
        .last()
        .unwrap();
    assert_eq!(b_max, 4);
    assert!(decode_succeeds(
        16,
        3,
        b_max,
        SynchronyMode::PartiallySynchronous
    ));
    assert!(!decode_succeeds(
        16,
        3,
        b_max + 1,
        SynchronyMode::PartiallySynchronous
    ));
}

#[test]
fn decoding_bound_scales_with_degree() {
    // higher degree shrinks the bound: N=16, K=3, d=2 → 2b+1 ≤ 12 → b ≤ 5
    for (d, expect) in [(1u32, 6usize), (2, 5), (3, 4)] {
        let t = Table2Bounds { n: 16, k: 3, d };
        let b_max = (0..16)
            .take_while(|&b| t.decoding_ok(b, SynchronyMode::Synchronous))
            .last()
            .unwrap();
        assert_eq!(b_max, expect, "d={d}");
    }
}

#[test]
fn output_delivery_bound_is_tight() {
    // 2b+1 ≤ N: with b corrupt replies out of n, the client needs b+1
    // matching — succeeds iff honest replies ≥ b+1.
    let n = 9;
    let good = vec![Fp61::from_u64(7)];
    for b in 0..n {
        let replies: Vec<Option<Vec<Fp61>>> = (0..n)
            .map(|i| {
                if i < b {
                    Some(vec![Fp61::from_u64(1000 + i as u64)]) // corrupt
                } else {
                    Some(good.clone())
                }
            })
            .collect();
        let status = accept_replies(&replies, b + 1);
        let bound_holds = 2 * b < n;
        assert_eq!(
            status.is_accepted(),
            bound_holds,
            "b={b}: acceptance must match 2b+1 <= N"
        );
        if let Some(v) = status.value() {
            assert_eq!(*v, good, "accepted value must be the honest one");
        }
    }
}

fn registry(n: usize, seed: u64) -> Arc<KeyRegistry> {
    Arc::new(KeyRegistry::new(n, seed))
}

#[test]
fn consensus_bound_dolev_strong_any_b_below_n() {
    // b + 1 ≤ N: with 4 of 6 nodes Byzantine-silent, broadcast still
    // reaches agreement among the honest (leader honest here).
    let n = 6;
    let mut conduct = vec![Conduct::Honest; 2];
    conduct.resize(n, Conduct::Silent);
    let batch: BatchRows = vec![vec![55]];
    let decisions = run_ds_lockstep(0, 4, 0, &batch, &conduct, &registry(n, 3));
    assert_eq!(decisions[..2], [Some(batch.clone()), Some(batch)]);
}

#[test]
fn consensus_bound_pbft_needs_3b_plus_1() {
    let n = 7;
    let cfg = PbftBatchConfig {
        n,
        f: 2,
        round: 0,
        leader: 0,
        base_timeout: Duration::from_millis(16),
    };
    let proposals: Vec<BatchRows> = (0..n as u64).map(|i| vec![vec![10 + i]]).collect();
    let run = |silent: usize| {
        let mut conduct = vec![Conduct::Honest; n - silent];
        conduct.resize(n, Conduct::Silent);
        let decisions = run_pbft_lockstep(&cfg, &proposals, &conduct, &registry(n, 5), &|_| true);
        (decisions, n - silent)
    };
    // at n = 3b+1 = 7, b = 2 silent nodes: every honest node decides, alike
    let (decisions, honest) = run(2);
    assert!(decisions[..honest].iter().all(|d| *d == decisions[0]));
    assert!(decisions[0].is_some(), "must decide within the bound");

    // with b+1 = 3 silent nodes (exceeding f), the quorum ⌈(n+f+1)/2⌉ = 5
    // of 7 can't be reached: the protocol never splits and cannot decide
    let (decisions, _) = run(3);
    assert!(
        decisions.iter().all(Option::is_none),
        "must not decide without quorum"
    );
}

#[test]
fn full_table2_grid_synchronous() {
    // exhaustive small grid: empirical decode success equals the predicate
    for k in [2usize, 3] {
        for b in 0..=5 {
            let t = Table2Bounds { n: 12, k, d: 1 };
            let predicted = t.decoding_ok(b, SynchronyMode::Synchronous);
            let actual = decode_succeeds(12, k, b, SynchronyMode::Synchronous);
            assert_eq!(predicted, actual, "n=12 k={k} b={b}");
        }
    }
}
