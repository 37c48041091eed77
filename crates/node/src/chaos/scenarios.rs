//! The curated chaos corpus: named `(config, schedule)` pairs, each
//! reproducing one documented fault regime with fixed seeds.
//!
//! Every scenario's schedule ends healed with a probe burst, so tests
//! assert both safety (no unflagged digest split, no lost acked command)
//! and liveness-on-heal (the probe fully acknowledges). The scenarios
//! marked as *desync regressions* pin down the leader-echo staging holes
//! documented in `docs/PROTOCOL.md` §5.1: which configurations fail-stop
//! a victim, and which contain the fault to a wasted round.

use crate::chaos::client::shard_deposits;
use crate::chaos::runner::{ChaosConfig, MachineSpec};
use crate::chaos::schedule::{ChaosEvent, Schedule};
use crate::consensus::{ConsensusKind, StagingFault};
use crate::BehaviorKind;
use csm_transport::sim::LinkState;

/// A named, fixed-seed chaos reproduction.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name (CLI `--scenario` key and CI matrix entry).
    pub name: &'static str,
    /// One-line description of the regime and the expected outcome.
    pub summary: &'static str,
    /// The cluster under test.
    pub config: ChaosConfig,
    /// The fault program.
    pub schedule: Schedule,
}

/// A directed link override that only flips reachability.
fn link_down() -> LinkState {
    LinkState {
        up: false,
        ..LinkState::default()
    }
}

/// A slow (but up) link override.
fn link_slow(latency: u64) -> LinkState {
    LinkState {
        latency,
        ..LinkState::default()
    }
}

/// Steady background load: `count` bursts of `clients` clients every
/// `every` ticks starting at `from`.
fn load(mut s: Schedule, from: u64, every: u64, count: u64, clients: usize) -> Schedule {
    for i in 0..count {
        s = s.at(
            from + i * every,
            ChaosEvent::Burst {
                first_client: 0,
                clients,
                commands: 1,
                probe: false,
            },
        );
    }
    s
}

/// The closing liveness probe.
fn probe(s: Schedule, at: u64, clients: usize) -> Schedule {
    s.at(
        at,
        ChaosEvent::Burst {
            first_client: 0,
            clients,
            commands: 1,
            probe: true,
        },
    )
}

/// Majority/minority partition through a heal, under load: the baseline
/// safety-and-recovery scenario. The minority (below the code dimension)
/// cannot decode alone, so it commits nothing while cut off and the
/// cluster reconverges on heal.
pub fn partition_heal() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x9a17_7e51, 260_000);
    s = load(s, 1_000, 4_000, 8, 3);
    s = s.at(
        30_000,
        ChaosEvent::Partition {
            a: vec![0],
            b: vec![1, 2, 3],
        },
    );
    s = load(s, 40_000, 6_000, 6, 3);
    s = s.at(110_000, ChaosEvent::Heal);
    s = probe(s, 150_000, 3);
    Scenario {
        name: "partition_heal",
        summary: "minority partition under load; no split, probe acks after heal",
        config,
        schedule: s,
    }
}

/// A partition that isolates the PBFT primary mid-rounds: the remaining
/// quorum view-changes past it and keeps committing; the isolated node
/// stalls safely (it is below the code dimension) until the heal.
pub fn partition_view_change() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.consensus = ConsensusKind::Pbft;
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x71e3_c4a9, 300_000);
    s = load(s, 1_000, 4_000, 10, 3);
    s = s.at(
        25_000,
        ChaosEvent::Partition {
            a: vec![0],
            b: vec![1, 2, 3],
        },
    );
    s = load(s, 40_000, 8_000, 6, 3);
    s = s.at(120_000, ChaosEvent::Heal);
    s = probe(s, 170_000, 3);
    Scenario {
        name: "partition_view_change",
        summary: "primary isolated mid-round; quorum view-changes past it and stays live",
        config,
        schedule: s,
    }
}

/// Crash/restart churn overlapping a state transfer: node 3 restarts
/// and, while it is resyncing, node 2 crashes too. Both recover through
/// the WAL + transfer path with zero lost acknowledged commands.
pub fn churn_during_resync() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.durable = true;
    config.check_liveness = true;
    let mut s = Schedule::quiet(0xc0de_5afe, 340_000);
    s = load(s, 1_000, 4_000, 10, 3);
    s = s.at(30_000, ChaosEvent::Crash { node: 3 });
    s = load(s, 40_000, 6_000, 5, 3);
    s = s.at(70_000, ChaosEvent::Restart { node: 3 });
    // node 3 is replaying/behind around here; take node 2 down on top
    s = s.at(75_000, ChaosEvent::Crash { node: 2 });
    s = s.at(130_000, ChaosEvent::Restart { node: 2 });
    s = s.at(180_000, ChaosEvent::Heal);
    s = probe(s, 210_000, 3);
    Scenario {
        name: "churn_during_resync",
        summary: "second crash lands during a state transfer; both nodes rejoin losslessly",
        config,
        schedule: s,
    }
}

/// Kill and rejoin under a Byzantine cast: in a durable `N = 8`, `K = 2`,
/// `b = 2` cluster with node 0 equivocating (on results, replies and
/// served state chunks), honest node 5 crashes under load, restarts from
/// `snapshot + WAL` while the load goes on, catches up through the
/// `b + 1`-verified state transfer, and commits with the cluster. One
/// command per shard per round and [`shard_deposits`] make every
/// acknowledged output a checkable step of its shard's balance chain.
/// Bursts are `8Δ` apart, longer than a round whose leader is down
/// takes, so each client has one command in flight at a time, like a
/// closed-loop client: a client with commands in flight on both shards
/// can see a later one commit first, which strands the earlier one below
/// its dedup horizon.
pub fn kill_rejoin() -> Scenario {
    let mut config = ChaosConfig::new(8, 2, 2);
    config.durable = true;
    config.check_liveness = true;
    config.batch_cap = 1;
    config.behaviors = vec![(0, BehaviorKind::Equivocate)];
    config.command_gen = shard_deposits;
    let mut s = Schedule::quiet(0xd15c, 150_000);
    s = load(s, 1_000, 16_000, 6, 4);
    s = s.at(20_000, ChaosEvent::Crash { node: 5 });
    s = s.at(44_000, ChaosEvent::Restart { node: 5 });
    s = probe(s, 110_000, 4);
    Scenario {
        name: "kill_rejoin",
        summary: "honest node killed under load beside an equivocator; rejoins on its shard chains",
        config,
        schedule: s,
    }
}

/// The genuine split regime (`dim ≤ b`): N = 8 over a dimension-2 code
/// with `b = 3`. Asymmetric 30 ms latency strands nodes {6, 7} behind
/// the staging deadline: they decode their own two results erasure-only
/// and commit *empty* rounds while the six-node majority commits real
/// batches — two honest digests for one wire round. Durable mode then
/// repairs the minority via the behind-trigger transfer on heal. The
/// recorded `digest_history` keeps the split as the audit witness; the
/// S1 *vouched* check stays clean precisely because the protocol
/// detected and resynced past it.
pub fn asymmetric_delay_leader() -> Scenario {
    let mut config = ChaosConfig::new(8, 2, 3);
    config.durable = true;
    config.check_liveness = true;
    let mut s = Schedule::quiet(0xa5e7_11fe, 300_000);
    s = load(s, 1_000, 3_000, 12, 4);
    for minority in [6usize, 7] {
        for majority in 0..6usize {
            s = s.at(
                20_000,
                ChaosEvent::SetLink {
                    from: minority,
                    to: majority,
                    link: link_slow(30_000),
                },
            );
            s = s.at(
                20_000,
                ChaosEvent::SetLink {
                    from: majority,
                    to: minority,
                    link: link_slow(30_000),
                },
            );
        }
    }
    s = load(s, 25_000, 4_000, 10, 4);
    // heal: restore every override to the default link
    for minority in [6usize, 7] {
        for majority in 0..6usize {
            s = s.at(
                120_000,
                ChaosEvent::SetLink {
                    from: minority,
                    to: majority,
                    link: LinkState::default(),
                },
            );
            s = s.at(
                120_000,
                ChaosEvent::SetLink {
                    from: majority,
                    to: minority,
                    link: LinkState::default(),
                },
            );
        }
    }
    s = probe(s, 170_000, 3);
    Scenario {
        name: "asymmetric_delay_leader",
        summary: "dim ≤ b: delayed minority forks empty commits, resyncs clean on heal",
        config,
        schedule: s,
    }
}

/// Quota-exceeding load with a wire-equivocating Byzantine node: node 5
/// perturbs its broadcast results per receiver while a burst larger than
/// the admission quotas floods the cluster. The decode corrects (and
/// attributes) the equivocation every round; admission sheds overload
/// without losing any acknowledged command.
pub fn overload_byzantine() -> Scenario {
    let mut config = ChaosConfig::new(6, 2, 1);
    config.clients = 24;
    config.behaviors = vec![(5, BehaviorKind::Equivocate)];
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x0bad_cafe, 320_000);
    // overload: every client fires 6 commands at once, far past the
    // per-round batch capacity (retries drain the backlog)
    s = s.at(
        2_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: 24,
            commands: 6,
            probe: false,
        },
    );
    s = s.at(
        60_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: 12,
            commands: 3,
            probe: false,
        },
    );
    s = s.at(200_000, ChaosEvent::Heal);
    s = probe(s, 210_000, 3);
    Scenario {
        name: "overload_byzantine",
        summary: "cast-equivocating node under overload; decode corrects, admission sheds",
        config,
        schedule: s,
    }
}

/// **Desync regression (PROTOCOL.md §5.1).** Leader-echo with a
/// batch-equivocating leader *plus* one cut link (`1 → 3`): nodes 0 and
/// 2 adopt the full proposal via the echo quorum, node 3 never hears the
/// leader and falls back to the empty batch. The decode at 0/1/2
/// corrects node 3's divergent result (one error is within `b`), but
/// node 3's own word — two opposing results against its one — fails to
/// decode, and the `b + 1` opposing commit votes fail-stop it. The
/// documented downgrade: under leader-echo this equivocation costs one
/// *honest* victim, which the desync check converts from silent
/// divergence into a fail-stop.
pub fn leader_echo_desync() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.staging_faults = vec![(1, StagingFault::EquivocateBatch)];
    config.check_liveness = true;
    let mut s = Schedule::quiet(0xde57_0001, 300_000);
    s = s.at(
        500,
        ChaosEvent::SetLink {
            from: 1,
            to: 3,
            link: link_down(),
        },
    );
    // steady load so rounds led by the equivocator carry fresh commands
    s = load(s, 1_000, 2_500, 24, 4);
    s = probe(s, 180_000, 2);
    Scenario {
        name: "leader_echo_desync",
        summary: "equivocating leader + cut link fail-stops one honest node (documented)",
        config,
        schedule: s,
    }
}

/// The same equivocating leader under Dolev–Strong: honest nodes relay
/// both proposals, extract two values, and *all* decide ⊥ — the round is
/// wasted but nobody diverges and nobody fail-stops. Paired with
/// [`leader_echo_desync`], this pins the documented backend trade-off.
pub fn leader_equivocation_ds() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.consensus = ConsensusKind::DolevStrong;
    config.staging_faults = vec![(1, StagingFault::EquivocateBatch)];
    config.check_liveness = true;
    // lighter load than the leader-echo twin: Dolev–Strong decides at a
    // fixed `(b + 2)·Δc` deadline, so every round costs ~12.5k ticks and
    // every fourth (the equivocator's) is wasted — the probe must not
    // queue behind a backlog the backend cannot drain by the horizon
    let mut s = Schedule::quiet(0xde57_0002, 300_000);
    s = load(s, 1_000, 4_000, 8, 3);
    s = probe(s, 180_000, 2);
    Scenario {
        name: "leader_equivocation_ds",
        summary: "same equivocation under Dolev–Strong: contained to wasted rounds, no victim",
        config,
        schedule: s,
    }
}

/// Kill a durable node exactly mid-snapshot-write: the WAL has already
/// appended the committed round when the crash lands, the snapshot
/// rename never does. Recovery replays `old snapshot + full log` and the
/// node rejoins with every acknowledged command intact.
pub fn torn_snapshot() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.durable = true;
    config.snapshot_interval = 2;
    config.torn_snapshot = Some((3, 2));
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x70a2_5a9d, 320_000);
    s = load(s, 1_000, 3_000, 14, 3);
    // the crash fires organically at node 3's second snapshot install;
    // by 140k the load above has long since triggered it
    s = s.at(140_000, ChaosEvent::Restart { node: 3 });
    s = s.at(180_000, ChaosEvent::Heal);
    s = probe(s, 200_000, 3);
    Scenario {
        name: "torn_snapshot",
        summary: "crash mid-snapshot-write; WAL replay recovers every acked command",
        config,
        schedule: s,
    }
}

/// Kill a recovering node for the *second* time while its state transfer
/// is in flight (slow inbound links widen the window), then let it
/// recover for real. Asserts the transfer is restartable and the
/// exactly-once horizon survives both crashes.
pub fn mid_transfer_crash() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.durable = true;
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x5bad_c417, 380_000);
    s = load(s, 1_000, 3_000, 12, 3);
    s = s.at(40_000, ChaosEvent::Crash { node: 3 });
    s = load(s, 50_000, 5_000, 6, 3);
    // slow every inbound link to node 3 so its post-restart state
    // transfer stays in flight long enough to be interrupted: a restart
    // opens with the transfer, and no chunk can land before 84.5k
    for peer in 0..3usize {
        s = s.at(
            79_000,
            ChaosEvent::SetLink {
                from: peer,
                to: 3,
                link: link_slow(4_000),
            },
        );
    }
    s = s.at(80_000, ChaosEvent::Restart { node: 3 });
    s = s.at(83_000, ChaosEvent::Crash { node: 3 });
    for peer in 0..3usize {
        s = s.at(
            140_000,
            ChaosEvent::SetLink {
                from: peer,
                to: 3,
                link: LinkState::default(),
            },
        );
    }
    s = s.at(150_000, ChaosEvent::Restart { node: 3 });
    s = s.at(220_000, ChaosEvent::Heal);
    s = probe(s, 250_000, 3);
    Scenario {
        name: "mid_transfer_crash",
        summary: "crash lands mid-StateChunk transfer; recovery restarts and completes",
        config,
        schedule: s,
    }
}

/// The keyed KV machine under partition chaos: per-key writes commit
/// exactly once across a partition/heal cycle on the degree-2 keyed
/// machine (the hardest shipped shape for the coded path).
pub fn kv_chaos() -> Scenario {
    let mut config = ChaosConfig::new(6, 2, 1);
    config.machine = MachineSpec::Kv(2);
    config.batch_cap = 1;
    // durable: with N = 6, b = 1 a 2|4 split leaves *neither* side at
    // echo quorum 5, and the post-heal desync must repair via state
    // transfer — a plain-mode fail-stop of the 2-side would wedge the
    // cluster below quorum forever
    config.durable = true;
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x6b5a_11ce, 300_000);
    s = load(s, 1_000, 4_000, 10, 4);
    s = s.at(
        30_000,
        ChaosEvent::Partition {
            a: vec![0, 1],
            b: vec![2, 3, 4, 5],
        },
    );
    s = load(s, 40_000, 6_000, 6, 4);
    s = s.at(120_000, ChaosEvent::Heal);
    s = probe(s, 160_000, 3);
    Scenario {
        name: "kv_chaos",
        summary: "keyed KV machine through partition/heal; exactly-once per key",
        config,
        schedule: s,
    }
}

/// The scale scenario: N = 32, K = 8, 1 000 virtual clients, a partition
/// through the middle, heal, probe. Exists to keep the harness honest
/// about wall-clock: the virtual-time run must finish in seconds.
pub fn scale() -> Scenario {
    let mut config = ChaosConfig::new(32, 8, 3);
    config.clients = 1_000;
    config.check_liveness = true;
    // a loaded round is three hops, ~1.5k ticks (its exchange ends on a
    // certificate, not at Δ): the horizon leaves the 1k-command backlog
    // about a hundred post-heal rounds to drain
    let mut s = Schedule::quiet(0x5ca1_e000, 240_000);
    s = s.at(
        1_000,
        ChaosEvent::Burst {
            first_client: 0,
            clients: 1_000,
            commands: 1,
            probe: false,
        },
    );
    s = s.at(
        30_000,
        ChaosEvent::Partition {
            a: (0..8).collect(),
            b: (8..32).collect(),
        },
    );
    s = s.at(70_000, ChaosEvent::Heal);
    s = probe(s, 100_000, 3);
    Scenario {
        name: "scale",
        summary: "N=32, 1k clients, partition/heal; virtual time keeps it to seconds",
        config,
        schedule: s,
    }
}

/// A registered client submits in *another* client's name, under its
/// own MAC, mid-load. The frame authenticates (the spoofer's key is
/// genuine), so only the intake's identity binding stops it: queued, it
/// would ride into every proposal its holder leads, every validator
/// would reject those batches wholesale (the row's client MAC cannot
/// verify), and — never committing — it would never be purged: a
/// permanent staging-fallback livelock. Dropped at intake, it costs
/// nothing: the victim's own command at that sequence number commits and
/// the probe acknowledges.
pub fn spoofed_submit() -> Scenario {
    let mut config = ChaosConfig::new(4, 2, 1);
    config.check_liveness = true;
    let mut s = Schedule::quiet(0x5900_f5ed, 260_000);
    s = load(s, 1_000, 5_000, 6, 3);
    s = s.at(
        20_000,
        ChaosEvent::SpoofedSubmit {
            client: 3,
            victim: 0,
        },
    );
    s = load(s, 40_000, 5_000, 8, 3);
    s = probe(s, 150_000, 3);
    Scenario {
        name: "spoofed_submit",
        summary: "a client submits in another's name; dropped at intake, liveness unharmed",
        config,
        schedule: s,
    }
}

/// The whole corpus, in documentation order.
pub fn all() -> Vec<Scenario> {
    vec![
        partition_heal(),
        partition_view_change(),
        churn_during_resync(),
        kill_rejoin(),
        asymmetric_delay_leader(),
        overload_byzantine(),
        leader_echo_desync(),
        leader_equivocation_ds(),
        torn_snapshot(),
        mid_transfer_crash(),
        kv_chaos(),
        scale(),
        spoofed_submit(),
    ]
}

/// Looks a scenario up by its stable name.
pub fn by_name(name: &str) -> Option<Scenario> {
    all().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        let corpus = all();
        let names: std::collections::BTreeSet<&str> = corpus.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), corpus.len());
        for s in &corpus {
            assert!(by_name(s.name).is_some());
            assert!(
                !s.schedule.probe_load().is_empty(),
                "{} needs a probe",
                s.name
            );
        }
        assert!(by_name("nope").is_none());
    }
}
