//! The chaos corpus as regression tests: every scenario must pass its
//! safety audit (no unflagged digest split, no lost acked command, no
//! recovery-horizon breach) and its liveness-on-heal probe, and the
//! whole harness must replay bit-for-bit from its seed.
//!
//! The property-based half (random bounded schedules across all three
//! consensus backends) lives at the bottom: with the code dimension
//! sized above `b` — the regime `docs/CHAOS.md` derives — no random
//! fault program may ever produce an honest digest split.

use csm_chaos::{
    random_schedule, random_schedule_sync, replay_check, run_schedule, run_schedule_with_telemetry,
    scenarios, ChaosConfig, ChaosRun, ConsensusKind, Event, Violation,
};
use proptest::prelude::*;

/// Runs a corpus scenario and asserts its audit is clean, with context.
fn run_clean(scenario: scenarios::Scenario) -> ChaosRun {
    let run = run_schedule(&scenario.config, &scenario.schedule);
    assert!(
        run.clean(),
        "{}: violations {:?}",
        scenario.name,
        run.violations
    );
    run
}

#[test]
fn replay_is_bit_identical() {
    // the replay contract on a fault-heavy scenario: double-run, compare
    // telemetry traces, digests, ledgers, and acks bit-for-bit
    let s = scenarios::partition_heal();
    let run = replay_check(&s.config, &s.schedule).expect("replay contract");
    assert!(run.clean(), "violations: {:?}", run.violations);
}

#[test]
fn replay_is_bit_identical_durable() {
    // same contract through the WAL/snapshot/restart paths
    let s = scenarios::churn_during_resync();
    replay_check(&s.config, &s.schedule).expect("durable replay contract");
}

#[test]
fn partition_heal_commits_and_reconverges() {
    let run = run_clean(scenarios::partition_heal());
    assert!(run.total_committed() > 0, "load must commit");
    assert!(!run.acked.is_empty(), "clients must see acks");
}

#[test]
fn partition_view_change_rotates_past_isolated_primary() {
    let run = run_clean(scenarios::partition_view_change());
    assert!(
        run.events
            .iter()
            .any(|(_, _, _, e)| matches!(e, Event::ViewChange { .. })),
        "isolating the primary must force view changes"
    );
    assert!(run.total_committed() > 0);
}

#[test]
fn churn_during_resync_rejoins_losslessly() {
    let run = run_clean(scenarios::churn_during_resync());
    for node in [2usize, 3] {
        assert!(run.nodes[node].alive, "node {node} must be back up");
    }
    let resyncs: u64 = run.nodes.iter().map(|n| n.resyncs).sum();
    assert!(resyncs >= 1, "restart-through-recovery must resync");
}

#[test]
fn asymmetric_delay_forks_then_repairs() {
    // the dim ≤ b regime: the delayed minority genuinely commits
    // different digests for shared wire rounds (visible in the
    // digest_history witness), then the behind-trigger transfer repairs
    // it — so the final vouched-digest audit is still clean
    let run = run_clean(scenarios::asymmetric_delay_leader());
    let split = run.nodes.iter().take(6).any(|majority| {
        run.nodes[6..].iter().any(|minority| {
            majority.digest_history.iter().any(|(round, md)| {
                minority
                    .digest_history
                    .get(round)
                    .is_some_and(|nd| nd != md)
            })
        })
    });
    assert!(split, "the delayed minority must fork its commit digests");
    let minority_resyncs: u64 = run.nodes[6..].iter().map(|n| n.resyncs).sum();
    assert!(minority_resyncs >= 1, "the fork must be repaired by resync");
}

#[test]
fn overload_with_byzantine_cast_is_absorbed() {
    let run = run_clean(scenarios::overload_byzantine());
    assert!(
        run.events
            .iter()
            .any(|(_, _, peer, e)| *e == Event::EquivocationDetected && *peer == Some(5)),
        "the decode must attribute the equivocator"
    );
    assert!(run.total_committed() > 0);
}

#[test]
fn leader_echo_equivocation_fail_stops_one_honest_victim() {
    // PROTOCOL.md §5.1, downgraded to a documented fail-stop: the
    // equivocating leader plus one cut link starves node 3's word; its
    // decode fails while everyone else corrects and commits, and the
    // b + 1 opposing commit votes fail-stop it. Safety holds throughout
    // (no unflagged split, no lost ack) and the surviving quorum keeps
    // the cluster live.
    let scenario = scenarios::leader_echo_desync();
    let run = run_clean(scenario);
    assert!(
        run.nodes[3].desynced,
        "the starved honest node must fail-stop via the desync check"
    );
    assert!(
        run.events
            .iter()
            .any(|(node, _, _, e)| *node == 3 && *e == Event::Desync),
        "the fail-stop must be reported"
    );
    for honest in [0usize, 2] {
        assert!(!run.nodes[honest].desynced, "node {honest} must survive");
    }
}

#[test]
fn dolev_strong_contains_the_same_equivocation() {
    // the backend trade-off: under Dolev–Strong the identical fault
    // yields ⊥ everywhere — wasted rounds, no victim
    let run = run_clean(scenarios::leader_equivocation_ds());
    assert!(
        run.nodes.iter().all(|n| !n.desynced),
        "no node may fail-stop under Dolev–Strong containment"
    );
    assert!(
        run.total_committed() > 0,
        "the cluster must still make progress"
    );
}

#[test]
fn dolev_strong_splits_under_partition() {
    // the boundary of DS's fault model, characterized: DS tolerates any
    // b < N Byzantine nodes but *assumes synchrony*. A partition
    // violates Δ, so the leader's side decides its batch while the cut
    // side times out to the shared ⊥ fallback — both commit, and their
    // per-round digests genuinely split. The states later reconverge
    // silently (each side commits the retried commands of the other, and
    // the coded machine is linear), so no post-heal desync evidence ever
    // forms — which is exactly why the audit must and does flag the
    // standing split. This is why `random_schedule_sync` (no partitions,
    // no drops) is the generator the DS safety property quantifies over.
    use csm_chaos::{ChaosEvent, Schedule};
    let mut config = ChaosConfig::new(4, 2, 1);
    config.consensus = ConsensusKind::DolevStrong;
    config.durable = true;
    config.clients = 4;
    let schedule = Schedule::quiet(0xD5, 300_000)
        .at(
            10_000,
            ChaosEvent::Partition {
                a: vec![0, 1],
                b: vec![2, 3],
            },
        )
        .at(
            20_000,
            ChaosEvent::Burst {
                first_client: 0,
                clients: 2,
                commands: 2,
                probe: false,
            },
        )
        .at(200_000, ChaosEvent::Heal);
    let run = run_schedule(&config, &schedule);
    assert!(
        run.violations
            .iter()
            .any(|v| matches!(v, Violation::DigestSplit { .. })),
        "a 2|2 partition must split Dolev–Strong commit digests, got {:?}",
        run.violations
    );
}

#[test]
fn torn_snapshot_write_recovers_from_wal() {
    let run = run_clean(scenarios::torn_snapshot());
    assert!(run.nodes[3].alive, "the torn node must rejoin");
    assert!(
        run.events
            .iter()
            .any(|(node, _, _, e)| *node == 3 && *e == Event::Resync),
        "the rejoin must go through the state transfer"
    );
}

#[test]
fn crash_mid_state_transfer_restarts_cleanly() {
    let run = run_clean(scenarios::mid_transfer_crash());
    assert!(run.nodes[3].alive, "the twice-crashed node must rejoin");
    assert!(
        run.nodes[3].resync_interrupted,
        "the second crash must land while the transfer is in flight"
    );
    assert!(
        run.nodes[3].resyncs >= 1,
        "the transfer must eventually complete"
    );
}

#[test]
fn kv_machine_survives_partition_chaos() {
    let run = run_clean(scenarios::kv_chaos());
    assert!(run.total_committed() > 0);
}

#[test]
fn scale_n32_with_1k_clients_runs_in_seconds() {
    let started = std::time::Instant::now();
    let run = run_clean(scenarios::scale());
    let elapsed = started.elapsed();
    assert!(
        elapsed < std::time::Duration::from_secs(60),
        "N=32/1k-client run took {elapsed:?}"
    );
    assert!(
        run.acked.len() >= 100,
        "only {} acks at N=32",
        run.acked.len()
    );
}

#[test]
fn spoofed_submit_costs_no_liveness() {
    // a registered client submits in another client's name under its own
    // MAC: queued, the row would poison every proposal its holder leads
    // (no validator accepts it, so it never commits and is never purged
    // — the livelock the pre-core sim actor reproduced); the core drops
    // it at intake, so not one round falls back and the probe acks
    let run = run_clean(scenarios::spoofed_submit());
    assert!(
        !run.events
            .iter()
            .any(|(_, _, _, e)| *e == Event::StageFallback),
        "no proposal may be poisoned by the spoofed row"
    );
    assert!(run.unacked_probes.is_empty());
    assert_eq!(run.acked.len(), 45, "every submitted command commits");
}

#[test]
fn a_crashed_node_does_nothing_until_restarted() {
    // a plain crash drops the node's core: nothing is stepped, so nothing
    // is sent, armed, committed, or traced on its behalf afterwards
    use csm_chaos::{ChaosEvent, Schedule};
    let config = ChaosConfig::new(4, 2, 1);
    let burst = ChaosEvent::Burst {
        first_client: 0,
        clients: 3,
        commands: 1,
        probe: false,
    };
    let schedule = Schedule::quiet(0xdead, 120_000)
        .at(1_000, burst.clone())
        .at(30_000, ChaosEvent::Crash { node: 3 })
        .at(60_000, burst);
    let run = run_schedule(&config, &schedule);
    assert!(run.clean(), "{:?}", run.violations);
    let (dead, live) = (&run.nodes[3], &run.nodes[0]);
    assert!(!dead.alive);
    assert!(dead.final_round + 10 < live.final_round, "it stopped early");
    assert!(dead.digest_history.keys().all(|&r| r < dead.final_round));
    assert!(
        run.events
            .iter()
            .all(|(node, round, _, _)| *node != 3 || *round <= dead.final_round),
        "no event is attributed to the dead node after its last round"
    );
    // the survivors are N − b: they keep committing the later load
    assert_eq!(run.acked.len(), 6);
}

#[test]
fn sim_nodes_report_the_telemetry_a_live_gateway_does() {
    // the sim drives the production core, so a durable scenario's nodes
    // carry the same artefacts a scrape of a live durable gateway does:
    // the round's phase partition and the gateway counters
    let s = scenarios::churn_during_resync();
    let (run, telemetry) = run_schedule_with_telemetry(&s.config, &s.schedule);
    assert!(run.clean(), "{:?}", run.violations);
    assert_eq!(telemetry.len(), 4, "every node is up at the horizon");
    for (node, snap) in &telemetry {
        assert_eq!(snap.node, *node as u64);
        for phase in [
            "consensus",
            "consensus.propose",
            "consensus.commit",
            "execute",
            "exchange",
            "decode",
            "wal-fsync",
            "reply",
            "round",
        ] {
            let stat = snap.phase(phase);
            assert!(
                stat.is_some_and(|p| p.count > 0),
                "node {node}: phase {phase} missing from {:?}",
                snap.phases
            );
        }
        // waiting phases run on the virtual clock: a synchronous
        // exchange is exactly Δ = 2 000 ticks (µs) here
        assert_eq!(snap.phase("exchange").map(|p| p.p50_us / 100), Some(20));
        for counter in [
            "admitted",
            "commands_committed",
            "replies_sent",
            "wal_appends",
            "snapshots",
            "empty_rounds",
        ] {
            assert!(snap.counter(counter) > 0, "node {node}: {counter} is zero");
        }
        assert!(snap.value("slack.exchange").is_some());
        assert!(snap.value("batch_size").is_some_and(|v| v.max >= 1));
    }
    // the restarted nodes went through the state transfer, and say so
    let resynced: u64 = telemetry.iter().map(|(_, s)| s.counter("resyncs")).sum();
    assert!(resynced >= 2, "both restarted nodes resynced");
}

#[test]
fn batching_commits_ten_times_the_commands_per_round() {
    // the aggregation claim as counts on the virtual clock: one burst of
    // 128 clients × 4 commands against an all-honest N = 8, K = 4
    // cluster, drained at batch_cap 1 and at 32. A round carries at most
    // batch_cap commands per shard. (The swarm derives a command's shard
    // from stream-id bits a client index never reaches, so one burst
    // loads one shard: cap 1 commits one command per round, cap 32
    // thirty-two.)
    use csm_chaos::{run_schedule_with_telemetry, ChaosEvent, Schedule};
    let (clients, commands) = (128usize, 4usize);
    let mean_batch = |batch_cap: usize| {
        let mut config = ChaosConfig::new(8, 4, 2);
        config.clients = clients;
        config.batch_cap = batch_cap;
        let schedule = Schedule::quiet(0xBA7C, 3_000_000).at(
            1_000,
            ChaosEvent::Burst {
                first_client: 0,
                clients,
                commands,
                probe: true,
            },
        );
        let (run, telemetry) = run_schedule_with_telemetry(&config, &schedule);
        assert!(run.clean(), "cap {batch_cap}: {:?}", run.violations);
        assert_eq!(run.acked.len(), clients * commands, "cap {batch_cap}");
        // commands per non-empty round, at a node that saw every round
        let (_, snap) = &telemetry[0];
        let rounds = snap.value("batch_size").map_or(0, |v| v.count);
        snap.counter("commands_committed") as f64 / rounds.max(1) as f64
    };
    let (one, aggregated) = (mean_batch(1), mean_batch(32));
    assert!(one <= 4.0, "cap 1 commits at most one command per shard");
    assert!(
        aggregated >= 10.0 * one,
        "cap 32 averages {aggregated:.1} commands per round vs {one:.1} at cap 1"
    );
}

#[test]
fn shrink_minimizes_a_failing_schedule() {
    // seed a schedule that "fails" by construction — liveness is checked
    // but the probe burst never fires because a partition outlives the
    // horizon — and check the shrinker returns a smaller reproducer that
    // still fails
    use csm_chaos::{ChaosEvent, Schedule};
    let mut config = ChaosConfig::new(4, 2, 1);
    config.check_liveness = true;
    let schedule = Schedule::quiet(99, 60_000)
        .at(
            1_000,
            ChaosEvent::Partition {
                a: vec![0, 1],
                b: vec![2, 3],
            },
        )
        .at(
            2_000,
            ChaosEvent::Burst {
                first_client: 0,
                clients: 2,
                commands: 1,
                probe: false,
            },
        )
        .at(
            5_000,
            ChaosEvent::Burst {
                first_client: 0,
                clients: 2,
                commands: 1,
                probe: true,
            },
        );
    assert!(!run_schedule(&config, &schedule).clean(), "setup must fail");
    let (min, steps, run) = csm_chaos::shrink::shrink_report(&config, &schedule);
    assert!(!run.clean(), "minimized schedule must still fail");
    assert!(
        steps >= 1,
        "at least the non-probe burst should shrink away"
    );
    assert!(min.events.len() <= schedule.events.len());
}

// -- satellite 2: random bounded schedules never split honest digests ----

/// The audit violations that constitute a *safety* breach for the
/// property (liveness is not asserted for random schedules: a random
/// program may keep a minority partitioned for most of its runtime).
fn safety_violations(run: &ChaosRun) -> Vec<&Violation> {
    run.violations
        .iter()
        .filter(|v| !matches!(v, Violation::ProbeUnacked { .. }))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any bounded random schedule *within the backend's fault
    /// model* and with the code dimension sized above `b` (the
    /// `docs/CHAOS.md` sizing rule), honest nodes never split commit
    /// digests and no acknowledged command is lost — including through
    /// crash/restart on the durable backends. The quorum-gated backends
    /// (leader-echo, PBFT) take the full fault alphabet; Dolev–Strong
    /// assumes synchrony, so its schedules draw from the
    /// partition-free, loss-free generator — see
    /// `dolev_strong_splits_under_partition` below for what happens
    /// outside that envelope.
    #[test]
    fn random_schedules_never_split_honest_digests(seed in any::<u64>()) {
        for (consensus, durable) in [
            (ConsensusKind::LeaderEcho, false),
            (ConsensusKind::DolevStrong, true),
            (ConsensusKind::Pbft, true),
        ] {
            let mut config = ChaosConfig::new(4, 2, 1);
            config.consensus = consensus;
            config.durable = durable;
            config.clients = 6;
            let schedule = match consensus {
                ConsensusKind::DolevStrong => random_schedule_sync(seed, 4, 6, durable),
                _ => random_schedule(seed, 4, 6, durable),
            };
            let run = run_schedule(&config, &schedule);
            let safety = safety_violations(&run);
            prop_assert!(
                safety.is_empty(),
                "seed {} under {:?}: {:?}",
                seed,
                consensus,
                safety
            );
        }
    }
}
