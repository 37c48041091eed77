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
fn s2_flags_an_ack_of_an_output_no_honest_node_replied() {
    // one equivocator beyond the model: nodes 0 and 1 add 77 to every
    // reply, and the honest nodes' replies reach the clients six hops
    // late, so each client's first b + 1 = 2 matching replies are the
    // liars'. The cluster commits honestly; the clients accept the lie.
    // S2 must see it: the command is in honest ledgers, its output in
    // no honest reply.
    use csm_chaos::{BehaviorKind, ChaosEvent, LinkState, Schedule};
    let (nodes, clients) = (8, 4);
    let mut config = ChaosConfig::new(nodes, 2, 1);
    config.clients = clients;
    config.behaviors = vec![(0, BehaviorKind::Equivocate), (1, BehaviorKind::Equivocate)];
    config.command_gen = csm_node::chaos::client::shard_deposits;
    let slow = LinkState {
        latency: 3_000,
        ..LinkState::default()
    };
    let mut schedule = Schedule::quiet(0x77, 150_000);
    for from in 2..nodes {
        for to in nodes..nodes + clients {
            let link = ChaosEvent::SetLink {
                from,
                to,
                link: slow,
            };
            schedule = schedule.at(0, link);
        }
    }
    for i in 0..6 {
        let burst = ChaosEvent::Burst {
            first_client: 0,
            clients,
            commands: 1,
            probe: false,
        };
        schedule = schedule.at(1_000 + 16_000 * i, burst);
    }
    let run = run_schedule(&config, &schedule);
    assert_eq!(run.acked.len(), 6 * clients, "every command is acked");
    // shard s's balances stay ≡ 1 + s (mod 1000) on the honest chain
    let wrong: Vec<(u64, u64)> = run
        .acked
        .iter()
        .filter(|(_, output)| output[0] % 1000 > 2)
        .map(|(&key, _)| key)
        .collect();
    assert!(!wrong.is_empty(), "the liars' replies must win some acks");
    let flagged: Vec<(u64, u64)> = run
        .violations
        .iter()
        .map(|v| match v {
            Violation::WrongAck { client, seq } => (*client, *seq),
            other => panic!("only wrong acks expected, got {other:?}"),
        })
        .collect();
    assert_eq!(flagged, wrong, "S2 flags exactly the wrong acks");
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
    let schedule = Schedule::quiet(0xdead, 180_000)
        .at(1_000, burst.clone())
        .at(30_000, ChaosEvent::Crash { node: 3 })
        .at(60_000, burst);
    let run = run_schedule(&config, &schedule);
    assert!(run.clean(), "{:?}", run.violations);
    // the same run cut off at the crash: whatever the dead node did, it
    // did by then
    let cut = run_schedule(
        &config,
        &Schedule {
            horizon: 30_000,
            ..schedule.clone()
        },
    );
    let dead = &run.nodes[3];
    assert!(!dead.alive && !cut.nodes[3].alive);
    assert_eq!(dead, &cut.nodes[3], "stepped or sent after the crash");
    let traced = |run: &ChaosRun| {
        let dead = run.events.iter().filter(|(node, ..)| *node == 3);
        dead.cloned().collect::<Vec<_>>()
    };
    assert_eq!(traced(&run), traced(&cut), "traced after the crash");
    assert!(dead.digest_history.keys().all(|&r| r < dead.final_round));
    // the survivors are N − b: they commit the burst after the crash too
    assert_eq!(cut.acked.len(), 3);
    assert_eq!(run.acked.len(), 6);
    for survivor in &run.nodes[..3] {
        assert_eq!(survivor.commands_committed, 6, "node {}", survivor.node);
    }
}

#[test]
fn a_durable_node_restarted_into_a_quiet_cluster_resyncs_and_commits() {
    // node 3 misses a burst while down and restarts into a cluster with
    // no work, whose nodes therefore run no rounds. Its peers answer its
    // state request at once, not at a round start that never comes: it
    // has caught up within one transfer attempt (8Δ), and it commits the
    // next burst with them.
    use csm_chaos::{ChaosEvent, Schedule};
    let mut config = ChaosConfig::new(4, 2, 1);
    config.durable = true;
    config.check_liveness = true;
    let burst = |probe| ChaosEvent::Burst {
        first_client: 0,
        clients: 3,
        commands: 1,
        probe,
    };
    let (restart, transfer_timeout) = (80_000, 8 * 2_000);
    let schedule = Schedule::quiet(0x5E5E, 200_000)
        .at(1_000, burst(false))
        .at(20_000, ChaosEvent::Crash { node: 3 })
        .at(30_000, burst(false))
        .at(restart, ChaosEvent::Restart { node: 3 })
        .at(120_000, burst(true));
    let caught_up = run_schedule(
        &config,
        &Schedule {
            horizon: restart + transfer_timeout,
            ..schedule.clone()
        },
    );
    assert!(caught_up.clean(), "{:?}", caught_up.violations);
    let rejoined = &caught_up.nodes[3];
    assert_eq!(rejoined.resyncs, 1, "caught up within one attempt");
    assert_eq!(rejoined.final_round, caught_up.nodes[0].final_round);
    let run = run_schedule(&config, &schedule);
    assert!(run.clean(), "{:?}", run.violations);
    assert_eq!(run.acked.len(), 9);
    assert_eq!(run.nodes[3].resyncs, 1);
    assert_eq!(
        run.nodes[3].commands_committed,
        rejoined.commands_committed + 3,
        "node 3 commits the burst after its restart"
    );
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
        // exchange ends on its certificate once the peers' results land,
        // one 500-tick hop after it began, not at Δ = 2 000 ticks (µs)
        assert_eq!(snap.phase("exchange").map(|p| p.p50_us / 100), Some(5));
        for counter in [
            "admitted",
            "commands_committed",
            "replies_sent",
            "wal_appends",
            "snapshots",
        ] {
            assert!(snap.counter(counter) > 0, "node {node}: {counter} is zero");
        }
        // reported like any gateway counter; a node that restarted into a
        // cluster with no work to do may not have run an empty round since
        assert!(
            snap.counters.iter().any(|c| c.name == "empty_rounds"),
            "node {node}: empty_rounds is not reported"
        );
        assert!(snap.value("slack.exchange").is_some());
        assert!(snap.value("batch_size").is_some_and(|v| v.max >= 1));
    }
    // the restarted nodes went through the state transfer, and say so
    let resynced: u64 = telemetry.iter().map(|(_, s)| s.counter("resyncs")).sum();
    assert!(resynced >= 2, "both restarted nodes resynced");
}

#[test]
fn only_missing_results_make_an_exchange_wait_out_delta() {
    use csm_chaos::{BehaviorKind, ChaosEvent, Schedule};
    // every node's count of exchanges the Exchange timer ended
    let fallbacks = |config: &ChaosConfig, schedule: &Schedule| -> Vec<u64> {
        let (run, telemetry) = run_schedule_with_telemetry(config, schedule);
        assert!(run.clean(), "{:?}", run.violations);
        assert!(run.total_committed() > 0);
        let counts = telemetry
            .iter()
            .map(|(_, s)| s.counter("exchange_fallbacks"));
        counts.collect()
    };
    let load = |seed| {
        (0..6).fold(Schedule::quiet(seed, 120_000), |s, i| {
            let burst = ChaosEvent::Burst {
                first_client: 0,
                clients: 3,
                commands: 1,
                probe: i == 5,
            };
            s.at(1_000 + 15_000 * i, burst)
        })
    };
    // all honest: every word certifies (or fills) before Δ
    let honest = fallbacks(&ChaosConfig::new(4, 2, 1), &load(0x0FA1));
    assert_eq!(honest, vec![0; 4]);
    // an equivocator and a withholder: no word is ever full, and each
    // still certifies on the six honest results
    let mut byzantine = ChaosConfig::new(8, 4, 2);
    byzantine.behaviors = vec![(0, BehaviorKind::Equivocate), (1, BehaviorKind::Withhold)];
    assert_eq!(fallbacks(&byzantine, &load(0x0FA2)), vec![0; 8]);
    // a node cut off from its peers has nothing to certify: it waits Δ
    let s = scenarios::partition_heal();
    let cut_off = fallbacks(&s.config, &s.schedule);
    assert!(cut_off.iter().sum::<u64>() > 0, "{cut_off:?}");
}

#[test]
fn a_cluster_with_no_work_runs_no_rounds() {
    // the benchmark's `sim_faults` shape at 20 bursts: N = 8, K = 4,
    // b = 2, durable, node 0 equivocating, 16 clients submitting one
    // command each every 16Δ, node 7 partitioned from ¼ to ⅜ of the span,
    // node 5 down from ½ to ⅝, a closing probe. Rounds run for commands
    // (the swarm puts a burst on one shard: four rounds of four). The
    // ceilings are this run's exact counts; nodes that paced a round
    // after every round, work or none, would run 887 empty rounds and
    // 1 501 node-rounds here
    use csm_chaos::{BehaviorKind, ChaosEvent, Schedule};
    let mut config = ChaosConfig::new(8, 4, 2);
    config.batch_cap = 4;
    config.clients = 16;
    config.durable = true;
    config.behaviors = vec![(0, BehaviorKind::Equivocate)];
    config.check_liveness = true;
    let (bursts, every) = (20u64, 32_000u64);
    let span = bursts * every;
    let burst = |clients, probe| ChaosEvent::Burst {
        first_client: 0,
        clients,
        commands: 1,
        probe,
    };
    let mut schedule = (0..bursts).fold(Schedule::quiet(7, span + 8 * every), |s, i| {
        s.at(1_000 + i * every, burst(16, false))
    });
    schedule = schedule
        .at(
            span / 4,
            ChaosEvent::Partition {
                a: vec![7],
                b: (0..7).collect(),
            },
        )
        .at(span * 3 / 8, ChaosEvent::Heal)
        .at(span / 2, ChaosEvent::Crash { node: 5 })
        .at(span * 5 / 8, ChaosEvent::Restart { node: 5 })
        .at(span + every, burst(3, true));
    schedule.events.sort_by_key(|(tick, _)| *tick);
    let counts = || {
        let run = run_schedule(&config, &schedule);
        assert!(run.clean(), "{:?}", run.violations);
        assert_eq!(run.acked.len() as u64, bursts * 16 + 3);
        let empty = run
            .events
            .iter()
            .filter(|(_, _, _, e)| *e == Event::EmptyRound)
            .count();
        // every round a node ended: committed, or failed to decode
        let node_rounds: u64 = run
            .nodes
            .iter()
            .map(|n| {
                let committed: u64 = n.digest_history.values().map(|d| d.len() as u64).sum();
                committed + n.decode_failures
            })
            .sum();
        (empty, node_rounds)
    };
    let (empty, node_rounds) = counts();
    assert_eq!(counts(), (empty, node_rounds), "the counts repeat");
    assert!(empty <= 48, "{empty} empty rounds");
    let committed = bursts * 16 + 3;
    assert!(
        node_rounds <= 674,
        "{node_rounds} node-rounds for {committed} commands ({:.2} each)",
        node_rounds as f64 / committed as f64
    );
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
