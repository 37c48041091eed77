//! End-to-end tests of pluggable batch consensus under the gateway: the
//! exact Byzantine scenario the leader-echo quorum can miss — a *leader*
//! that equivocates on the batch, proposing different (individually
//! valid!) batches to different honest nodes — must never split-commit
//! under Dolev–Strong or PBFT, on mem-mesh and on real TCP. A leader
//! that withholds its proposal must cost at most empty rounds, never a
//! stall.
//!
//! The staging faults here ([`csm_node::StagingFault`]) are orthogonal to
//! the execution-phase faults the earlier client-gateway tests inject;
//! `verify_bank_outcome` proves the strongest end-to-end property either
//! way: every accepted output sits on the reference balance chain and
//! honest nodes agree on every commit digest.

use csm_algebra::{Field, Fp61};
use csm_network::NodeId;
use csm_node::core::{Effect, Event, GatewayCore, TimerKind};
use csm_node::gateway::{encode_batch, BatchEntry};
use csm_node::workload::{
    run_mem_workload_with_faults, run_tcp_workload_with_faults, verify_bank_outcome, WorkloadConfig,
};
use csm_node::{
    BehaviorKind, CodedMachine, ConsensusKind, ExchangeTiming, GatewayConfig, GatewaySpec,
    RoundEngine, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_transport::{Frame, Payload};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

fn config(cluster: usize, b: usize, clients: usize, consensus: ConsensusKind) -> WorkloadConfig {
    WorkloadConfig {
        cluster,
        shards: 2,
        assumed_faults: b,
        clients,
        commands_per_client: 2,
        delta: Duration::from_millis(40),
        partial_sync: false,
        batch_cap: 1,
        seed: 29,
        consensus,
        scrape: false,
        flight_dir: None,
    }
}

/// Node 0 equivocates on the batch whenever it leads a round; everyone
/// executes honestly — isolating the staging-phase fault.
fn equivocating_leader(id: usize) -> StagingFault {
    if id == 0 {
        StagingFault::EquivocateBatch
    } else {
        StagingFault::None
    }
}

/// Node 0 withholds its proposal whenever it leads a round.
fn withholding_leader(id: usize) -> StagingFault {
    if id == 0 {
        StagingFault::WithholdBatch
    } else {
        StagingFault::None
    }
}

/// Node 0 proposes an over-cap / ill-formed per-shard program (a row
/// replayed past the batch-validity rules) whenever it leads a round.
fn overcap_leader(id: usize) -> StagingFault {
    if id == 0 {
        StagingFault::OverCapBatch
    } else {
        StagingFault::None
    }
}

/// Shared assertions: the run verifies end to end (every command
/// committed exactly once on the reference balance chain, honest digests
/// agree round by round) and no honest node fail-stopped on divergence.
fn assert_no_split(cfg: &WorkloadConfig, outcome: &csm_node::workload::WorkloadOutcome) {
    verify_bank_outcome(cfg, outcome, &[]).expect("outcome verifies");
    for node in &outcome.nodes {
        assert!(
            !node.stats.desynced,
            "node {} fail-stopped on divergence: the backend split-committed",
            node.id
        );
    }
}

#[test]
fn dolev_strong_contains_equivocating_leader_on_mem_mesh() {
    let cfg = config(6, 1, 4, ConsensusKind::DolevStrong);
    let outcome = run_mem_workload_with_faults(&cfg, |_| BehaviorKind::Honest, equivocating_leader);
    assert_no_split(&cfg, &outcome);
    assert_eq!(outcome.committed(), 8, "every command commits");
}

#[test]
fn pbft_contains_equivocating_leader_on_mem_mesh() {
    // N = 6 ≥ 3b + 1 for b = 1
    let cfg = config(6, 1, 4, ConsensusKind::Pbft);
    let outcome = run_mem_workload_with_faults(&cfg, |_| BehaviorKind::Honest, equivocating_leader);
    assert_no_split(&cfg, &outcome);
    assert_eq!(outcome.committed(), 8);
}

#[test]
fn dolev_strong_contains_equivocating_leader_on_tcp() {
    let mut cfg = config(6, 1, 3, ConsensusKind::DolevStrong);
    cfg.commands_per_client = 1;
    let outcome = run_tcp_workload_with_faults(&cfg, |_| BehaviorKind::Honest, equivocating_leader);
    assert_no_split(&cfg, &outcome);
    assert_eq!(outcome.committed(), 3);
}

#[test]
fn pbft_contains_equivocating_leader_on_tcp() {
    let mut cfg = config(6, 1, 3, ConsensusKind::Pbft);
    cfg.commands_per_client = 1;
    let outcome = run_tcp_workload_with_faults(&cfg, |_| BehaviorKind::Honest, equivocating_leader);
    assert_no_split(&cfg, &outcome);
    assert_eq!(outcome.committed(), 3);
}

#[test]
fn consensus_backends_survive_execution_phase_byzantines_too() {
    // the new backends compose with the old fault model: node 0
    // equivocates on *results and replies* while node 1 equivocates on
    // the *batch* when leading — both bounded by b = 2
    let mut cfg = config(8, 2, 4, ConsensusKind::DolevStrong);
    cfg.shards = 4;
    let outcome = run_mem_workload_with_faults(
        &cfg,
        |id| {
            if id == 0 {
                BehaviorKind::Equivocate
            } else {
                BehaviorKind::Honest
            }
        },
        |id| {
            if id == 1 {
                StagingFault::EquivocateBatch
            } else {
                StagingFault::None
            }
        },
    );
    verify_bank_outcome(&cfg, &outcome, &[0]).expect("outcome verifies");
    assert_eq!(outcome.committed(), 8);
}

/// The deterministic empty-batch fallback under a withholding leader
/// (previously untested): a silent leader must yield empty *committed*
/// rounds — the loop keeps executing and committing, commands just wait
/// for the next leader — never a stall or a split among the *honest*
/// nodes. (The withholder itself may fall out: under leader-echo its
/// skipped proposal wait skews it a full stage-timeout ahead of the
/// cluster, its lone exchange fails to decode, and the desync check
/// fail-stops it — the fault stays contained to the faulty node.)
#[test]
fn withholding_leader_yields_empty_committed_rounds_not_a_stall() {
    for consensus in [ConsensusKind::LeaderEcho, ConsensusKind::DolevStrong] {
        let cfg = config(5, 1, 2, consensus);
        let outcome =
            run_mem_workload_with_faults(&cfg, |_| BehaviorKind::Honest, withholding_leader);
        // node 0 is the staging-faulty node: exclude it from the honest
        // agreement checks, exactly like an execution-phase Byzantine
        verify_bank_outcome(&cfg, &outcome, &[0]).expect("outcome verifies");
        assert_eq!(outcome.committed(), 4, "{consensus}: every command commits");
        // every honest node fell back to the empty batch on a round node
        // 0 led — and *committed* it (the round appears in the report
        // with a digest, proving the cluster executed the empty round
        // rather than wedging)
        for node in outcome.nodes.iter().filter(|n| n.id != 0) {
            assert!(
                !node.stats.desynced,
                "{consensus}: honest node {} fail-stopped",
                node.id
            );
            assert!(
                node.stats.stage_fallbacks >= 1,
                "{consensus}: node {} saw no fallback round",
                node.id
            );
            assert!(
                node.stats.empty_rounds >= 1,
                "{consensus}: node {} committed no empty round",
                node.id
            );
            let committed_rounds = node.commits.iter().flatten().count();
            assert!(
                committed_rounds > 0,
                "{consensus}: node {} committed nothing",
                node.id
            );
        }
    }
}

/// A Byzantine leader proposing an over-cap / ill-formed per-shard
/// program — a genuine client row replayed past the `(client, seq)`
/// uniqueness rule and (at cap 1) the per-shard program cap — costs at
/// most its own round under every backend: honest nodes reject the
/// proposal *wholesale* (nobody trims it to a valid prefix, which would
/// split the cluster on which prefix) and fall back to the same empty
/// batch, so the backlog commits under the next honest leader and no
/// honest node diverges.
#[test]
fn overcap_leader_falls_back_to_empty_batch_without_splitting() {
    for consensus in [
        ConsensusKind::LeaderEcho,
        ConsensusKind::DolevStrong,
        ConsensusKind::Pbft,
    ] {
        let mut cfg = config(6, 1, 4, consensus);
        // an aggregated workload, so real multi-command programs are in
        // flight when the faulty proposal lands
        cfg.batch_cap = 4;
        let outcome = run_mem_workload_with_faults(&cfg, |_| BehaviorKind::Honest, overcap_leader);
        verify_bank_outcome(&cfg, &outcome, &[0]).unwrap_or_else(|e| panic!("{consensus}: {e}"));
        assert_eq!(outcome.committed(), 8, "{consensus}: every command commits");
        for node in outcome.nodes.iter().filter(|n| n.id != 0) {
            assert!(
                !node.stats.desynced,
                "{consensus}: honest node {} fail-stopped — the ill-formed \
                 program split the cluster",
                node.id
            );
        }
    }
}

/// Under PBFT a withheld proposal does not even cost the round: the view
/// change rotates to an honest primary, whose own pending batch commits.
#[test]
fn pbft_withholding_leader_commits_via_view_change() {
    let cfg = config(6, 1, 2, ConsensusKind::Pbft);
    let outcome = run_mem_workload_with_faults(&cfg, |_| BehaviorKind::Honest, withholding_leader);
    assert_no_split(&cfg, &outcome);
    assert_eq!(outcome.committed(), 4);
}

/// A genuine one-command batch row: client `client`'s signed `Submit`
/// of `amount` to `shard`, as a leader would stage it.
fn signed_row(
    registry: &csm_network::auth::KeyRegistry,
    client: usize,
    shard: usize,
    amount: u64,
) -> BatchEntry {
    let submit = Payload::Submit {
        shard: shard as u64,
        client: client as u64,
        seq: 0,
        command: vec![amount],
    };
    BatchEntry {
        client: client as u64,
        seq: 0,
        shard,
        sig_tag: Frame::sign(submit, registry, NodeId(client)).sig.tag,
        command: vec![amount],
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Leader-echo's never-split property (completing the trio with the
    /// Dolev–Strong/PBFT adapter proptests in `csm-consensus`), checked
    /// through the gateway core: given any vote multiset with at most `b`
    /// Byzantine votes, arriving in any order, the `N − b` adoption
    /// quorum can only ever form on the batch the honest majority echoed
    /// — `b` colluders alone can never push a batch of their own
    /// through, because `N − b > b` whenever `N > 2b`. The adopted batch
    /// is read off the wire: the follower's `Result` broadcast must be
    /// the coded execution of the honest batch. (Leader-echo's remaining
    /// weakness is *timing* — honest nodes observing different vote
    /// multisets — which is exactly what the real backends close.)
    #[test]
    fn leader_echo_quorum_never_adopts_a_byzantine_only_batch(
        n in 4usize..9,
        b_pick in 1usize..4,
        honest_amounts in prop::collection::vec(1u64..500, 0..3),
        byz_amounts in prop::collection::vec(501u64..999, 1..3),
        seed in any::<u64>(),
    ) {
        let b = b_pick.min((n - 1) / 2);
        let (k, clients) = (2, 2);
        let registry = csm_node::mesh_registry(n, clients, seed);
        let batch = |amounts: &[u64]| -> Vec<BatchEntry> {
            amounts
                .iter()
                .enumerate()
                .map(|(shard, &amount)| signed_row(&registry, n + shard, shard, amount))
                .collect()
        };
        let (honest, byz) = (batch(&honest_amounts), batch(&byz_amounts));
        let machine = Arc::new(
            CodedMachine::<Fp61>::new(n, k, bank_machine(), csm_core::DecoderKind::default())
                .expect("cluster shape"),
        );
        let spec = GatewaySpec {
            machine: Arc::clone(&machine),
            initial_states: vec![vec![Fp61::from_u64(100)]; k],
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        };
        let timing = ExchangeTiming::synchronous(b, Duration::from_millis(20));
        let cfg = GatewayConfig::new(n, b, &timing);
        // the follower under test is the last node; node 0 leads round 0
        let me = n - 1;
        let mut core = GatewayCore::new(me, Arc::clone(&registry), timing, &spec, &cfg, None);
        let started = core.start(0);
        let Some(Effect::SetTimer { at_us, id }) = started.first().cloned() else {
            panic!("a fresh core arms its first round: {started:?}");
        };
        prop_assert_eq!(id.kind, TimerKind::Next);
        core.step(at_us, Event::Timer(id));

        // the honest majority (leader included) votes the honest batch,
        // the b Byzantine nodes 1..=b all vote their own; seeded order
        let mut voters: Vec<usize> = (0..me).collect();
        for i in (1..voters.len()).rev() {
            voters.swap(i, (seed.rotate_left(i as u32) % (i as u64 + 1)) as usize);
        }
        let mut sent = Vec::new();
        for voter in voters {
            let rows = if (1..=b).contains(&voter) { &byz } else { &honest };
            let vote = Payload::Stage {
                round: 0,
                sender: voter as u64,
                commands: encode_batch(rows),
            };
            let frame = Frame::sign(vote, &registry, NodeId(voter));
            sent.extend(core.step(at_us + 1, Event::Frame(frame)));
        }
        let result = sent.iter().find_map(|e| match e {
            Effect::Broadcast(Frame { payload: Payload::Result { values, .. }, .. }) => {
                Some(values.clone())
            }
            _ => None,
        });
        let mut programs = vec![Vec::new(); k];
        for entry in &honest {
            programs[entry.shard].push(vec![Fp61::from_u64(entry.command[0])]);
        }
        let expected: Vec<u64> = RoundEngine::new(machine, me, &spec.initial_states)
            .expect("engine")
            .execute_batched(&programs)
            .expect("well-shaped")
            .iter()
            .map(|x| x.to_canonical_u64())
            .collect();
        prop_assert_eq!(
            result,
            Some(expected),
            "the N - b quorum must land on the honestly-echoed batch"
        );
        prop_assert_eq!(core.stats().stage_fallbacks, 0);
    }
}
