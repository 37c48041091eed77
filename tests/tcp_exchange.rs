//! The §5.2 exchange invariants over **real loopback TCP**: a client-fed
//! gateway cluster (`csm_node::run_gateway` on `csm-transport` sockets)
//! under equivocation, withholding and impersonation. Every accepted
//! output sits on the reference balance chain, honest nodes agree on
//! every commit digest, decoding names the equivocator and never an
//! honest node, and every exchange ends on a decoding certificate rather
//! than waiting out Δ.

use csm_node::workload::{
    one_equivocator_one_withholder, run_tcp_workload_with_faults, verify_bank_outcome,
    WorkloadConfig, WorkloadOutcome,
};
use csm_node::{BehaviorKind, ConsensusKind, StagingFault};
use std::time::Duration;

fn config(cluster: usize, b: usize) -> WorkloadConfig {
    WorkloadConfig {
        cluster,
        shards: 2,
        assumed_faults: b,
        clients: 4,
        commands_per_client: 3,
        delta: Duration::from_millis(100),
        partial_sync: false,
        batch_cap: 1,
        seed: 1234,
        consensus: ConsensusKind::LeaderEcho,
        scrape: true,
        flight_dir: None,
    }
}

/// Runs `cfg` over loopback TCP with the per-node wire behaviors of
/// `behavior_of`, checks the outcome against the reference execution,
/// and checks what every honest node's commit records say about the
/// exchange: no honest node is ever named, no word is full (each cast
/// silences one slot), and no exchange fell back to the Δ deadline.
///
/// Fallbacks are read from the scrape, which the harness takes while
/// the cluster still runs: once it is stopped, a node that had just
/// entered a round its peers never join waits that round out alone.
fn run_cast(
    cfg: &WorkloadConfig,
    byzantine: &[usize],
    behavior_of: impl Fn(usize) -> BehaviorKind,
) -> WorkloadOutcome {
    let outcome = run_tcp_workload_with_faults(cfg, behavior_of, |_| StagingFault::None);
    verify_bank_outcome(cfg, &outcome, byzantine).expect("outcome verifies");
    for node in outcome.nodes.iter().filter(|r| !byzantine.contains(&r.id)) {
        assert!(!node.digests().is_empty(), "node {} committed", node.id);
        for commit in node.commits.iter().flatten() {
            assert!(
                commit
                    .detected_error_nodes
                    .iter()
                    .all(|peer| byzantine.contains(peer)),
                "node {} round {} named an honest node: {:?}",
                node.id,
                commit.round,
                commit.detected_error_nodes
            );
            assert!(
                commit.results_held < cfg.cluster,
                "node {} round {}: the silenced slot is an erasure",
                node.id,
                commit.round
            );
        }
        let scraped = outcome
            .telemetry
            .iter()
            .find(|(id, _)| *id == node.id)
            .unwrap_or_else(|| panic!("node {} answered the scrape", node.id));
        assert_eq!(
            scraped.1.counter("exchange_fallbacks"),
            0,
            "node {} waited out Δ",
            node.id
        );
    }
    outcome
}

#[test]
fn tcp_synchronous_equivocator_and_withholder() {
    // N = 10, b = 2: node 0 equivocates, node 1 withholds
    let cfg = config(10, 2);
    let outcome = run_cast(&cfg, &[0, 1], one_equivocator_one_withholder);
    for node in outcome.nodes.iter().filter(|r| r.id > 1) {
        assert!(
            node.commits
                .iter()
                .flatten()
                .any(|c| c.detected_error_nodes.contains(&0)),
            "node {} never named the equivocator",
            node.id
        );
    }
}

#[test]
fn tcp_impersonator_is_harmless() {
    // N = 8, b = 1: node 7 forges its frames in node 0's name; every
    // receiver's MAC check drops them, so node 0's genuine result
    // survives everywhere and only node 7's own slot is empty
    let cfg = config(8, 1);
    run_cast(&cfg, &[7], |id| {
        if id == 7 {
            BehaviorKind::Impersonate
        } else {
            BehaviorKind::Honest
        }
    });
}
