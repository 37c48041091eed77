//! The §5.2 exchange invariants over **real loopback TCP**: the exchange
//! runs through `csm-transport` sockets driven by `csm-node`'s
//! `NodeRuntime` and the shared sans-I/O `RoundEngine`, under
//! equivocation, withholding, and impersonation, in both synchrony models
//! — and all honest receivers decode identical, correct words.

use coded_state_machine::algebra::Fp61;
use csm_node::{
    bank_spec, cluster_registry, run_node, BehaviorKind, EngineSpec, ExchangeTiming, NodeReport,
};
use csm_transport::tcp::TcpMesh;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn run_tcp_cluster(
    n: usize,
    k: usize,
    rounds: u64,
    timing: ExchangeTiming,
    behavior_of: impl Fn(usize) -> BehaviorKind,
) -> Vec<NodeReport<Fp61>> {
    let registry = cluster_registry(n, 1234);
    let mesh = TcpMesh::launch_loopback(Arc::clone(&registry)).expect("bind loopback mesh");
    let handles: Vec<_> = mesh
        .into_iter()
        .enumerate()
        .map(|(i, transport)| {
            let registry = Arc::clone(&registry);
            let timing = timing.clone();
            let spec = bank_spec(n, k, 1234, rounds, behavior_of(i)).expect("valid bank spec");
            thread::spawn(move || run_node(transport, registry, timing, &spec))
        })
        .collect();
    let mut reports: Vec<_> = handles
        .into_iter()
        .map(|h| h.join().expect("node thread panicked"))
        .collect();
    reports.sort_by_key(|r| r.id);
    reports
}

/// Asserts every honest node committed every round and all honest
/// commits agree, returning the per-round digests.
fn assert_agreement(
    reports: &[NodeReport<Fp61>],
    byzantine: &[usize],
    rounds: u64,
) -> BTreeMap<u64, u64> {
    let mut agreed = BTreeMap::new();
    for report in reports {
        if byzantine.contains(&report.id) {
            continue;
        }
        let digests = report.digests();
        assert_eq!(
            digests.len(),
            rounds as usize,
            "honest node {} must commit every round",
            report.id
        );
        for (round, digest) in digests {
            match agreed.get(&round) {
                None => {
                    agreed.insert(round, digest);
                }
                Some(&d) => assert_eq!(
                    d, digest,
                    "round {round}: node {} disagrees with the cluster",
                    report.id
                ),
            }
        }
    }
    agreed
}

#[test]
fn tcp_synchronous_equivocator_and_withholder() {
    let n = 10;
    let byzantine = [0usize, 1];
    let timing = ExchangeTiming::synchronous(2, Duration::from_millis(300));
    let reports = run_tcp_cluster(n, 2, 3, timing, |i| match i {
        0 => BehaviorKind::Equivocate,
        1 => BehaviorKind::Withhold,
        _ => BehaviorKind::Honest,
    });
    let agreed = assert_agreement(&reports, &byzantine, 3);
    assert_eq!(agreed.len(), 3);
    // the withheld sender appears as an erasure: honest receivers hold at
    // most n - 1 results, and still decode
    for report in &reports {
        if byzantine.contains(&report.id) {
            continue;
        }
        for commit in report.commits.iter().flatten() {
            assert!(commit.results_held < n, "withheld slot is an erasure");
            assert!(commit.results_held >= n - 2, "everyone else delivered");
        }
    }
}

#[test]
fn tcp_partial_synchrony_cuts_off_and_decodes() {
    let n = 9;
    let b = 2;
    // a withholder; then two equivocators, whose lies reach the N − b word
    // (3b + 1 = 7 ≤ N − d(K−1) = 8, so it still decodes)
    let withholder = |i: usize| match i {
        4 => BehaviorKind::Withhold,
        _ => BehaviorKind::Honest,
    };
    let equivocators = |i: usize| match i {
        0 | 1 => BehaviorKind::Equivocate,
        _ => BehaviorKind::Honest,
    };
    let casts: [(&dyn Fn(usize) -> BehaviorKind, &[usize]); 2] =
        [(&withholder, &[4]), (&equivocators, &[0, 1])];
    for (behavior_of, byzantine) in casts {
        let timing = ExchangeTiming::partially_synchronous(b, Duration::from_secs(8));
        let reports = run_tcp_cluster(n, 2, 3, timing, behavior_of);
        assert_agreement(&reports, byzantine, 3);
        // each honest receiver froze its word at (or just past) the N − b
        // cutoff rather than waiting for the full deadline
        for report in &reports {
            for commit in report.commits.iter().flatten() {
                assert!(
                    commit.results_held >= n - b,
                    "node {} finalized below the N - b cutoff",
                    report.id
                );
            }
        }
    }
}

#[test]
fn tcp_impersonator_is_harmless() {
    let n = 8;
    let timing = ExchangeTiming::synchronous(1, Duration::from_millis(300));
    let reports = run_tcp_cluster(n, 2, 2, timing, |i| {
        if i == 7 {
            BehaviorKind::Impersonate
        } else {
            BehaviorKind::Honest
        }
    });
    let agreed = assert_agreement(&reports, &[7], 2);
    assert_eq!(agreed.len(), 2);
    // the forged frames claimed to come from node 0; node 0's genuine
    // result must have survived everywhere (slot 0 present, so words hold
    // all n-1 real results)
    for report in &reports {
        if report.id == 7 {
            continue;
        }
        for commit in report.commits.iter().flatten() {
            assert_eq!(
                commit.results_held,
                n - 1,
                "only the impersonator's own slot may be empty"
            );
        }
    }
}

#[test]
fn tcp_decoded_outputs_match_reference_execution() {
    let n = 8;
    let k = 2;
    let rounds = 3;
    let timing = ExchangeTiming::synchronous(1, Duration::from_millis(300));
    let reports = run_tcp_cluster(n, k, rounds, timing, |i| {
        if i == 0 {
            BehaviorKind::Equivocate
        } else {
            BehaviorKind::Honest
        }
    });
    assert_agreement(&reports, &[0], rounds);
    // plaintext reference execution from the shared spec
    let spec: EngineSpec<Fp61> = bank_spec(n, k, 1234, rounds, BehaviorKind::Honest).unwrap();
    let mut states = spec.initial_states.clone();
    let sd = spec.machine.transition().state_dim();
    for round in 0..rounds {
        let cmds = spec.commands(round);
        let expected: Vec<Vec<Fp61>> = states
            .iter()
            .zip(&cmds)
            .map(|(s, x)| spec.machine.transition().apply_flat(s, x).unwrap())
            .collect();
        for report in &reports[1..] {
            let got = &report.commits[round as usize]
                .as_ref()
                .expect("honest commit")
                .results;
            assert_eq!(
                got, &expected,
                "node {} round {round} decoded the true results",
                report.id
            );
        }
        states = expected.iter().map(|r| r[..sd].to_vec()).collect();
    }
}
