//! Unit and property tests of the gateway core, driven through `step`
//! alone: a tiny deterministic in-test driver (fixed-latency queue, no
//! fabric, no threads) runs whole clusters of cores.

use super::*;
use crate::cluster_registry;
use csm_algebra::Fp61;
use csm_core::DecoderKind;
use csm_statemachine::machines::bank_machine;
use csm_storage::store::WAL_FILE;
use csm_storage::WriteAheadLog;
use csm_transport::{PreparedCertWire, PHASE_PREPARE};
use std::path::{Path, PathBuf};

const N: usize = 4;
const B: usize = 1;
const CLIENTS: usize = 2;
const LATENCY: u64 = 500;

/// Everything needed to build cores of one `N = 4`, `K = 2`, `b = 1`
/// bank cluster with two client identities (ids 4 and 5).
struct Rig {
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: GatewaySpec<Fp61>,
    cfg: GatewayConfig,
}

fn rig(consensus: ConsensusKind) -> Rig {
    let machine = CodedMachine::new(N, 2, bank_machine(), DecoderKind::default()).unwrap();
    let timing = ExchangeTiming::synchronous(B, Duration::from_micros(2_000));
    let mut cfg = GatewayConfig::new(N, B, &timing).with_consensus(consensus);
    cfg.stage_timeout = Duration::from_micros(8_000);
    cfg.consensus_delta = Duration::from_micros(4_000);
    cfg.flight_dir = None;
    Rig {
        registry: cluster_registry(N + CLIENTS, 11),
        timing,
        spec: GatewaySpec {
            machine: Arc::new(machine),
            initial_states: vec![vec![Fp61::from_u64(100)], vec![Fp61::from_u64(200)]],
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        },
        cfg,
    }
}

impl Rig {
    fn core(&self, id: usize, dir: Option<&Path>) -> GatewayCore<Fp61> {
        let durability = dir.map(|d| {
            let mut durability = DurabilityConfig::new(d.join(format!("node{id}")));
            durability.snapshot_interval = 1_000; // keep every round in the log
            durability.transfer_timeout = Duration::from_micros(16_000);
            durability
        });
        GatewayCore::new(
            id,
            Arc::clone(&self.registry),
            self.timing.clone(),
            &self.spec,
            &self.cfg,
            durability.as_ref(),
        )
    }

    fn sign(&self, signer: usize, payload: Payload) -> Frame {
        Frame::sign(payload, &self.registry, NodeId(signer))
    }

    fn submit(&self, client: usize, seq: u64, amount: u64) -> Frame {
        let payload = Payload::Submit {
            shard: (client % 2) as u64,
            client: client as u64,
            seq,
            command: vec![amount],
        };
        self.sign(client, payload)
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csm-core-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything a core holds on behalf of frames it has not consumed yet.
fn buffered(core: &GatewayCore<Fp61>) -> usize {
    let nested = |m: &BTreeMap<u64, BTreeMap<usize, _>>| m.values().map(BTreeMap::len).sum();
    let stages: usize = nested(&core.stages);
    let commit_votes: usize = core.commit_votes.values().map(BTreeMap::len).sum();
    let results: usize = core.results.values().map(BTreeMap::len).sum();
    let chunks = match &core.phase {
        PhaseState::Resyncing { chunks, .. } => chunks.len(),
        _ => 0,
    };
    stages
        + commit_votes
        + results
        + chunks
        + core.consensus.values().map(Vec::len).sum::<usize>()
        + core.submit_inbox.len()
        + core.query_inbox.len()
        + core.state_requests.len()
        + core.telemetry_requests.len()
}

/// The one-shot timer of `kind` among `effects`.
fn timer(effects: &[Effect], kind: TimerKind) -> (u64, TimerId) {
    effects
        .iter()
        .find_map(|e| match e {
            Effect::SetTimer { at_us, id } if id.kind == kind => Some((*at_us, *id)),
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {kind:?} timer in {effects:?}"))
}

/// A follower (node 1) waiting in round 0's staging under `consensus`.
fn staging_follower(r: &Rig) -> GatewayCore<Fp61> {
    let mut core = r.core(1, None);
    let (at, next) = timer(&core.start(0), TimerKind::Next);
    let effects = core.step(at, Event::Timer(next));
    assert!(matches!(core.phase, PhaseState::Staging(_)), "{effects:?}");
    core
}

#[test]
fn hostile_frames_cause_no_effect_and_no_growth() {
    let r = rig(ConsensusKind::LeaderEcho);
    let big = vec![7u64; PENDING_MAX_VALUES + 1];
    let far = ROUND_LOOKAHEAD + 1;
    let stage = |round, sender, commands| Payload::Stage {
        round,
        sender,
        commands,
    };
    let result = |round, sender, values| Payload::Result {
        round,
        sender,
        values,
    };
    let commit = |round, sender| Payload::Commit {
        round,
        sender,
        digest: 9,
    };
    let vote = |round, rows| Payload::BatchVote {
        round,
        view: 0,
        phase: PHASE_PREPARE,
        rows,
        tag: 1,
    };
    let overweight_vc = Payload::BatchViewChange {
        round: 0,
        vote: ViewChangeWire {
            new_view: 1,
            signer: 2,
            tag: 1,
            prepared: Some(PreparedCertWire {
                view: 0,
                rows: vec![big.clone()],
                sigs: Vec::new(),
            }),
        },
    };
    let submit = |client, command| Payload::Submit {
        shard: 0,
        client,
        seq: 0,
        command,
    };
    let query = |client| Payload::Query {
        shard: 0,
        client,
        qid: 1,
    };
    let chunk = Payload::StateChunk {
        round: 3,
        digest: 1,
        results: vec![vec![1, 1]; 2],
    };
    // (signer, payload, why it must bounce)
    let table: Vec<(usize, Payload, &str)> = vec![
        (5, submit(4, vec![1]), "Submit naming another client"),
        (2, submit(2, vec![1]), "Submit signed by a cluster node"),
        (2, submit(4, vec![1]), "node posing as a client"),
        (4, submit(4, big.clone()), "oversized command"),
        (5, query(4), "Query naming another client"),
        (2, query(2), "Query signed by a cluster node"),
        (2, stage(0, 3, vec![]), "Stage claiming another sender"),
        (4, stage(0, 4, vec![]), "Stage signed by a client"),
        (2, stage(far, 2, vec![]), "Stage beyond the lookahead"),
        (2, stage(0, 2, vec![big.clone()]), "oversized Stage"),
        (
            2,
            stage(0, 2, vec![vec![]; 5_000]),
            "Stage of many empty rows",
        ),
        (
            2,
            result(0, 3, vec![1, 1]),
            "Result claiming another sender",
        ),
        (5, result(0, 5, vec![1, 1]), "Result signed by a client"),
        (2, result(far, 2, vec![1, 1]), "Result beyond the lookahead"),
        (2, result(0, 2, big.clone()), "oversized Result"),
        (2, commit(0, 3), "Commit claiming another sender"),
        (4, commit(0, 4), "Commit signed by a client"),
        (2, commit(far, 2), "Commit beyond the lookahead"),
        (4, vote(0, vec![]), "consensus frame signed by a client"),
        (2, vote(far, vec![]), "consensus frame beyond the lookahead"),
        (2, vote(0, vec![big.clone()]), "overweight consensus frame"),
        (2, overweight_vc, "overweight view-change certificate"),
        (2, chunk.clone(), "StateChunk nobody asked for"),
        (4, chunk, "StateChunk signed by a client"),
        (
            4,
            Payload::StateRequest { from_round: 0 },
            "client StateRequest",
        ),
        (
            1,
            Payload::StateRequest { from_round: 0 },
            "own StateRequest",
        ),
        (1, Payload::TelemetryRequest { nonce: 1 }, "own scrape"),
        (2, Payload::Ping { nonce: 1 }, "Ping"),
        (
            2,
            Payload::Reply {
                shard: 0,
                round: 0,
                client: 4,
                seq: 0,
                output: vec![1],
            },
            "Reply sent to a node",
        ),
    ];
    let mut core = staging_follower(&r);
    let before = (buffered(&core), *core.stats());
    for (signer, payload, why) in table {
        let effects = core.step(100, Event::Frame(r.sign(signer, payload)));
        assert!(effects.is_empty(), "{why}: {effects:?}");
        assert_eq!((buffered(&core), *core.stats()), before, "{why}");
    }
}

#[test]
fn buffers_keep_one_frame_per_signer_and_inboxes_are_capped() {
    let r = rig(ConsensusKind::LeaderEcho);
    let mut core = staging_follower(&r);
    let step = |core: &mut GatewayCore<Fp61>, signer, payload| {
        core.step(100, Event::Frame(r.sign(signer, payload)))
    };
    // an equivocating voter: its first vote per round is the one kept
    for rows in [vec![vec![1u64]], vec![vec![2u64]]] {
        let vote = Payload::Stage {
            round: 5,
            sender: 2,
            commands: rows,
        };
        step(&mut core, 2, vote);
    }
    assert_eq!(core.stages[&5][&2], vec![vec![1]]);
    for digest in [7, 8] {
        let commit = Payload::Commit {
            round: 5,
            sender: 2,
            digest,
        };
        step(&mut core, 2, commit);
    }
    assert_eq!(core.commit_votes[&5][&2], 7);
    for values in [vec![1, 1], vec![2, 2]] {
        let result = Payload::Result {
            round: 5,
            sender: 2,
            values,
        };
        step(&mut core, 2, result);
    }
    assert_eq!(core.results[&5][&2][0], Fp61::from_u64(1));
    // request slots: one per peer, however often it asks
    for nonce in 0..100 {
        step(&mut core, 4, Payload::TelemetryRequest { nonce });
        step(&mut core, 2, Payload::StateRequest { from_round: nonce });
    }
    assert_eq!(
        (core.telemetry_requests.len(), core.state_requests.len()),
        (1, 1)
    );
    assert_eq!(buffered(&core), 5);
    // a flood past the submit inbox is dropped and counted, not queued
    for seq in 0..(CLIENT_INBOX_CAP as u64 + 10) {
        core.step(100, Event::Frame(r.submit(4, seq, 1)));
    }
    assert_eq!(core.submit_inbox.len(), CLIENT_INBOX_CAP);
    assert_eq!(core.stats().inbox_dropped, 10);
    // consensus frames: capped per round
    let relay = r.sign(
        2,
        Payload::BatchRelay {
            round: 9,
            rows: vec![],
            chain: vec![],
        },
    );
    for _ in 0..CONSENSUS_ROUND_CAP + 10 {
        core.step(100, Event::Frame(relay.clone()));
    }
    assert_eq!(core.consensus[&9].len(), CONSENSUS_ROUND_CAP);
}

/// The in-test driver: a cluster of cores over a fixed-latency queue.
struct Cluster {
    cores: Vec<GatewayCore<Fp61>>,
    queue: BTreeMap<(u64, u64), (usize, Event)>,
    seq: u64,
    /// `(node, now, event)` for every step taken, and what it returned.
    log: Vec<(usize, u64, Event, Vec<Effect>)>,
    /// Frames sent to client endpoints.
    replies: Vec<Frame>,
}

impl Cluster {
    fn new(r: &Rig, dir: Option<&Path>) -> Self {
        let mut cluster = Cluster {
            cores: (0..N).map(|id| r.core(id, dir)).collect(),
            queue: BTreeMap::new(),
            seq: 0,
            log: Vec::new(),
            replies: Vec::new(),
        };
        for id in 0..N {
            let effects = cluster.cores[id].start(0);
            cluster.perform(id, 0, effects);
        }
        cluster
    }

    fn push(&mut self, at: u64, to: usize, event: Event) {
        self.queue.insert((at, self.seq), (to, event));
        self.seq += 1;
    }

    fn perform(&mut self, from: usize, now: u64, effects: Vec<Effect>) {
        for effect in effects {
            match effect {
                Effect::Send { to, frame } if to < N => {
                    self.push(now + LATENCY, to, Event::Frame(frame));
                }
                Effect::Send { frame, .. } => self.replies.push(frame),
                Effect::Broadcast(frame) => {
                    for to in (0..N).filter(|&to| to != from) {
                        self.push(now + LATENCY, to, Event::Frame(frame.clone()));
                    }
                }
                Effect::SetTimer { at_us, id } => self.push(at_us, from, Event::Timer(id)),
                Effect::Halt(_) => {}
            }
        }
    }

    /// Every node receives `frame` (a client broadcast) at `at`.
    fn client_broadcast(&mut self, at: u64, frame: &Frame) {
        for to in 0..N {
            self.push(at, to, Event::Frame(frame.clone()));
        }
    }

    /// Steps until the clock passes `until`; `check` sees every step's
    /// effects *before* they are performed.
    fn run(&mut self, until: u64, mut check: impl FnMut(usize, &[Effect])) {
        while let Some((&(now, _), _)) = self.queue.first_key_value() {
            if now > until {
                break;
            }
            let (_, (to, event)) = self.queue.pop_first().expect("peeked");
            let effects = self.cores[to].step(now, event.clone());
            check(to, &effects);
            self.log.push((to, now, event, effects.clone()));
            self.perform(to, now, effects);
        }
    }
}

/// The `(round, digest)` of every `Commit` broadcast among `effects`.
fn committed(effects: &[Effect]) -> Vec<(u64, u64)> {
    effects
        .iter()
        .filter_map(|e| match e {
            Effect::Broadcast(Frame {
                payload: Payload::Commit { round, digest, .. },
                ..
            }) => Some((*round, *digest)),
            _ => None,
        })
        .collect()
}

#[test]
fn same_event_sequence_yields_identical_effects_stats_and_digests() {
    for consensus in [
        ConsensusKind::LeaderEcho,
        ConsensusKind::DolevStrong,
        ConsensusKind::Pbft,
    ] {
        let r = rig(consensus);
        let mut cluster = Cluster::new(&r, None);
        for seq in 0..6 {
            for client in N..N + CLIENTS {
                let at = 1_000 + 7_000 * seq + client as u64;
                cluster.client_broadcast(at, &r.submit(client, seq, 10 + seq));
            }
        }
        cluster.run(400_000, |_, _| {});
        let acked = cluster.cores[2].stats().commands_committed;
        assert_eq!(acked, 12, "{consensus}: the workload commits");

        // replay node 2's recorded inputs into a fresh core
        let mut replayed = r.core(2, None);
        let mut digests = Vec::new();
        assert!(!replayed.start(0).is_empty());
        for (_, now, event, effects) in cluster.log.iter().filter(|(to, ..)| *to == 2) {
            let again = replayed.step(*now, event.clone());
            assert_eq!(format!("{again:?}"), format!("{effects:?}"), "{consensus}");
            digests.extend(committed(&again));
        }
        assert_eq!(replayed.stats(), cluster.cores[2].stats(), "{consensus}");
        let original: Vec<(u64, u64)> = cluster
            .log
            .iter()
            .filter(|(to, ..)| *to == 2)
            .flat_map(|(.., effects)| committed(effects))
            .collect();
        assert!(!digests.is_empty() && digests == original, "{consensus}");
        // and honest nodes agree on every round's digest
        let all: BTreeMap<u64, BTreeSet<u64>> = cluster
            .log
            .iter()
            .flat_map(|(.., effects)| committed(effects))
            .fold(BTreeMap::new(), |mut acc, (round, digest)| {
                acc.entry(round).or_default().insert(digest);
                acc
            });
        assert!(all.values().all(|d| d.len() == 1), "{consensus}: {all:?}");
    }
}

#[test]
fn a_halted_core_produces_no_effects() {
    let mut r = rig(ConsensusKind::LeaderEcho);
    r.cfg.max_rounds = 0;
    let mut core = r.core(1, None);
    let (at, next) = timer(&core.start(0), TimerKind::Next);
    let effects = core.step(at, Event::Timer(next));
    assert!(matches!(effects[..], [Effect::Halt(HaltReason::MaxRounds)]));
    assert!(core.halted());
    let before = buffered(&core);
    for event in [
        Event::Timer(next),
        Event::Frame(r.submit(4, 0, 1)),
        Event::Frame(r.sign(2, Payload::TelemetryRequest { nonce: 1 })),
        Event::Frame(r.sign(2, Payload::StateRequest { from_round: 0 })),
    ] {
        assert!(core.step(at + 1, event).is_empty());
    }
    assert_eq!(buffered(&core), before);
    assert_eq!(core.into_report().rounds, 0);
}

#[test]
fn the_log_holds_a_round_before_any_effect_acknowledges_it() {
    let r = rig(ConsensusKind::LeaderEcho);
    let dir = scratch("wal-before-ack");
    let mut cluster = Cluster::new(&r, Some(&dir));
    for seq in 0..4 {
        for client in N..N + CLIENTS {
            cluster.client_broadcast(1_000 + 9_000 * seq, &r.submit(client, seq, 5));
        }
    }
    let mut acknowledged = 0;
    cluster.run(200_000, |node, effects| {
        // what the step is about to tell the world it committed: the
        // digests it announces and the engine rounds it replies for
        let digests = committed(effects);
        let replied: Vec<u64> = effects
            .iter()
            .filter_map(|e| match e {
                Effect::Send {
                    frame:
                        Frame {
                            payload: Payload::Reply { round, .. },
                            ..
                        },
                    ..
                } => Some(*round),
                _ => None,
            })
            .collect();
        if digests.is_empty() && replied.is_empty() {
            return;
        }
        // ... must already be on disk, read back through a second handle
        let wal = dir.join(format!("node{node}")).join(WAL_FILE);
        let (_, on_disk) = WriteAheadLog::recover(&wal).expect("log readable");
        for (_, digest) in digests {
            assert!(on_disk.records.iter().any(|rec| rec.digest == digest));
        }
        for round in replied {
            assert!(on_disk.records.iter().any(|rec| rec.round == round));
            acknowledged += 1;
        }
    });
    assert_eq!(acknowledged, 8 * N, "every node replied to every command");
    assert_eq!(cluster.replies.len(), 8 * N);
    drop(cluster);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_and_state_requests_are_served_at_the_next_round_start() {
    let r = rig(ConsensusKind::LeaderEcho);
    let mut cluster = Cluster::new(&r, None);
    cluster.client_broadcast(1_000, &r.submit(4, 0, 5));
    cluster.run(20_000, |_, _| {});
    let scrape = r.sign(5, Payload::TelemetryRequest { nonce: 42 });
    let request = r.sign(2, Payload::StateRequest { from_round: 0 });
    let query = r.sign(
        4,
        Payload::Query {
            shard: 0,
            client: 4,
            qid: 3,
        },
    );
    for frame in [scrape, request, query] {
        cluster.push(20_001, 1, Event::Frame(frame));
    }
    cluster.run(40_000, |_, _| {});
    let node1 = cluster.log.iter().filter(|(to, ..)| *to == 1);
    let sent: Vec<&Payload> = node1
        .flat_map(|(.., effects)| effects)
        .filter_map(|e| match e {
            Effect::Send { frame, .. } => Some(&frame.payload),
            _ => None,
        })
        .collect();
    let snapshot = sent
        .iter()
        .find_map(|p| match p {
            Payload::TelemetryReply {
                nonce: 42,
                snapshot,
                ..
            } => Some(TelemetrySnapshot::from_json(snapshot).expect("snapshot parses")),
            _ => None,
        })
        .expect("the scrape was answered");
    assert_eq!(snapshot.counter("commands_committed"), 1);
    assert!(snapshot.phase("exchange").is_some());
    assert!(sent
        .iter()
        .any(|p| matches!(p, Payload::StateChunk { results, .. } if results.len() == 2)));
    assert!(sent
        .iter()
        .any(|p| matches!(p, Payload::QueryReply { qid: 3, value, .. } if value[..] == [105])));
}
