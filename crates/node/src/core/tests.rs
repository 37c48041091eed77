//! Unit and property tests of the gateway core, driven through `step`
//! alone: a tiny deterministic in-test driver (fixed-latency queue, no
//! fabric, no threads) runs whole clusters of cores.

use super::*;
use crate::cluster_registry;
use crate::gateway::decode_batch;
use crate::recovery::{open_store, persist};
use csm_algebra::{Fp61, Gf2_16};
use csm_core::digest::splitmix64;
use csm_core::exchange::Word;
use csm_core::DecoderKind;
use csm_statemachine::boolean::counter_machine;
use csm_statemachine::machines::bank_machine;
use csm_storage::store::{SNAPSHOT_FILE, WAL_FILE};
use csm_telemetry::ReplaySink;
use csm_transport::{PreparedCertWire, Wire, PHASE_PREPARE};
use std::path::Path;

const N: usize = 4;
const B: usize = 1;
const CLIENTS: usize = 2;
const LATENCY: u64 = 500;

/// Everything needed to build cores of one `K = 2` bank cluster with two
/// client identities (ids `N` and `N + 1`).
struct Rig {
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: GatewaySpec<Fp61>,
    cfg: GatewayConfig,
}

/// The `N = 4`, `b = 1` rig.
fn rig(consensus: ConsensusKind) -> Rig {
    sized_rig(N, B, consensus)
}

fn sized_rig(n: usize, b: usize, consensus: ConsensusKind) -> Rig {
    let machine = CodedMachine::new(n, 2, bank_machine(), DecoderKind::default()).unwrap();
    let timing = ExchangeTiming::synchronous(b, Duration::from_micros(2_000));
    let mut cfg = GatewayConfig::new(n, b, &timing).with_consensus(consensus);
    cfg.stage_timeout = Duration::from_micros(8_000);
    cfg.consensus_delta = Duration::from_micros(4_000);
    Rig {
        registry: cluster_registry(n + CLIENTS, 11),
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

/// The durability knobs of the rig's durable cores, whose store lives in
/// `dir` (the core itself never opens it).
fn durability(dir: &Path) -> DurabilityConfig {
    let mut durability = DurabilityConfig::new(dir);
    durability.snapshot_interval = 1_000; // keep every round in the log
    durability.transfer_timeout = Duration::from_micros(16_000);
    durability
}

/// What opening an empty store recovers.
fn fresh() -> Recovered {
    Recovered {
        snapshot: None,
        records: Vec::new(),
        torn_tail: false,
    }
}

impl Rig {
    /// Node `id`; durable when given what its store recovered.
    fn core(&self, id: usize, recovered: Option<&Recovered>) -> GatewayCore<Fp61> {
        let durability = durability(Path::new("unopened"));
        GatewayCore::new(
            id,
            Arc::clone(&self.registry),
            self.timing.clone(),
            &self.spec,
            &self.cfg,
            recovered.map(|recovered| (&durability, recovered)),
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

/// Everything a core holds on behalf of frames it has not consumed yet.
fn buffered(core: &GatewayCore<Fp61>) -> usize {
    let nested = |m: &BTreeMap<u64, BTreeMap<usize, _>>| m.values().map(BTreeMap::len).sum();
    let stages: usize = nested(&core.stages);
    let commit_votes: usize = core.peers.commits().values().map(BTreeMap::len).sum();
    let results: usize = core.exchange.early.values().map(BTreeMap::len).sum();
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

/// Whether `effects` arm a timer of `kind`.
fn arms(effects: &[Effect], kind: TimerKind) -> bool {
    effects
        .iter()
        .any(|e| matches!(e, Effect::SetTimer { id, .. } if id.kind == kind))
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
    assert_eq!(core.peers.commits()[&5][&2], 7);
    for values in [vec![1, 1], vec![2, 2]] {
        let result = Payload::Result {
            round: 5,
            sender: 2,
            values,
        };
        step(&mut core, 2, result);
    }
    assert_eq!(core.exchange.early[&5][&2][0], Fp61::from_u64(1));
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
/// Like a transport, it drops any frame whose MAC does not verify.
struct Cluster<F: Field = Fp61> {
    cores: Vec<GatewayCore<F>>,
    registry: Arc<KeyRegistry>,
    queue: BTreeMap<(u64, u64), (usize, Event)>,
    seq: u64,
    /// `(node, now, event)` for every step taken, and what it returned.
    log: Vec<(usize, u64, Event, Vec<Effect>)>,
    /// Frames sent to client endpoints.
    replies: Vec<Frame>,
}

impl Cluster {
    /// `r`'s nodes, durable ones starting from empty stores.
    fn new(r: &Rig, durable: bool) -> Self {
        let recovered = durable.then(fresh);
        let cores = (0..N).map(|id| r.core(id, recovered.as_ref())).collect();
        Cluster::of(cores, Arc::clone(&r.registry))
    }
}

impl<F: Field> Cluster<F> {
    /// Starts `cores` (node `i` at index `i`) at time 0.
    fn of(cores: Vec<GatewayCore<F>>, registry: Arc<KeyRegistry>) -> Self {
        let mut cluster = Cluster {
            cores,
            registry,
            queue: BTreeMap::new(),
            seq: 0,
            log: Vec::new(),
            replies: Vec::new(),
        };
        for id in 0..cluster.cores.len() {
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
        let n = self.cores.len();
        for effect in effects {
            match effect {
                Effect::Send { to, frame } if to < n => {
                    self.push(now + LATENCY, to, Event::Frame(frame));
                }
                Effect::Send { frame, .. } => self.replies.push(frame),
                Effect::Broadcast(frame) => {
                    for to in (0..n).filter(|&to| to != from) {
                        self.push(now + LATENCY, to, Event::Frame(frame.clone()));
                    }
                }
                Effect::SetTimer { at_us, id } => self.push(at_us, from, Event::Timer(id)),
                Effect::Persist(_) | Effect::Halt(_) | Effect::FlightDump { .. } => {}
            }
        }
    }

    /// Every node receives `frame` (a client broadcast) at `at`.
    fn client_broadcast(&mut self, at: u64, frame: &Frame) {
        for to in 0..self.cores.len() {
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
            if matches!(&event, Event::Frame(frame) if !frame.verify(&self.registry)) {
                continue;
            }
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
        let mut cluster = Cluster::new(&r, false);
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
    // node 1 commits round 0 on its peers' results, then b + 1 = 2 peers
    // announce another digest for round 0: a plain node fail-stops at
    // its next round start
    let r = rig(ConsensusKind::LeaderEcho);
    let empty = vec![Vec::new(); 2];
    let mut core = exchanging(&r, 1);
    for peer in [2, 3] {
        deliver_result(&r, &mut core, 600, 0, peer, honest_result(&r, peer, &empty));
    }
    assert_eq!(core.round(), 1, "round 0 committed");
    for peer in [2, 3] {
        let commit = Payload::Commit {
            round: 0,
            sender: peer as u64,
            digest: 0xD1FF,
        };
        core.step(700, Event::Frame(r.sign(peer, commit)));
    }
    // a command wakes the idle leader of round 1
    let (at, next) = timer(
        &core.step(800, Event::Frame(r.submit(4, 0, 1))),
        TimerKind::Next,
    );
    let effects = core.step(at, Event::Timer(next));
    assert!(
        matches!(
            effects[..],
            [Effect::Halt(HaltReason::Desync { witness_round: 0 })]
        ),
        "{effects:?}"
    );
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
    assert_eq!(core.into_report().rounds, 1);
}

#[test]
fn the_log_holds_a_round_before_any_effect_acknowledges_it() {
    let r = rig(ConsensusKind::LeaderEcho);
    let mut cluster = Cluster::new(&r, true);
    for seq in 0..4 {
        for client in N..N + CLIENTS {
            cluster.client_broadcast(1_000 + 9_000 * seq, &r.submit(client, seq, 5));
        }
    }
    // `(node, round) → digest` of every commit record persisted so far,
    // in effect order
    let mut logged: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    let mut acknowledged = 0;
    cluster.run(200_000, |node, effects| {
        for effect in effects {
            match effect {
                Effect::Persist(Record::Commit(record)) => {
                    logged.insert((node, record.round), record.digest);
                }
                // the digest a step announces, and the round it replies
                // for, must be logged earlier in the same effects
                Effect::Broadcast(Frame {
                    payload: Payload::Commit { round, digest, .. },
                    ..
                }) => assert_eq!(logged.get(&(node, *round)), Some(digest)),
                Effect::Send {
                    frame:
                        Frame {
                            payload: Payload::Reply { round, .. },
                            ..
                        },
                    ..
                } => {
                    assert!(logged.contains_key(&(node, *round)), "round {round}");
                    acknowledged += 1;
                }
                _ => {}
            }
        }
    });
    assert_eq!(acknowledged, 8 * N, "every node replied to every command");
    assert_eq!(cluster.replies.len(), 8 * N);
}

#[test]
fn every_cut_of_the_log_recovers_a_prefix_of_its_rounds() {
    // three rounds on a durable cluster (the startup round, then one per
    // command); node 1's `Persist` effects go through `persist` into a
    // real store
    let r = rig(ConsensusKind::LeaderEcho);
    let mut cluster = Cluster::new(&r, true);
    for seq in 0..2 {
        cluster.client_broadcast(1_000 + 20_000 * seq, &r.submit(4, seq, 5 + seq));
    }
    cluster.run(40_000, |_, _| {});
    let dir = std::env::temp_dir().join(format!("csm-core-{}-cut", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (logged_dir, cut_dir) = (
        durability(&dir.join("logged")),
        durability(&dir.join("cut")),
    );
    let (mut store, _) = open_store(&logged_dir, &r.spec, 1).expect("scratch store");
    // a twin fed node 1's inputs (the core is deterministic) exposes the
    // coded state after each round it logs: `states[j]` is the state
    // before round `j`
    let mut twin = r.core(1, Some(&fresh()));
    twin.start(0);
    let mut states = vec![twin.engine.coded_state_canonical()];
    let mut records = Vec::new();
    for (_, now, event, effects) in cluster.log.iter().filter(|(to, ..)| *to == 1) {
        twin.step(*now, event.clone());
        for effect in effects {
            if let Effect::Persist(record) = effect {
                persist(&mut store, record).expect("scratch store");
                if let Record::Commit(commit) = record {
                    records.push(commit.clone());
                    states.push(twin.engine.coded_state_canonical());
                }
            }
        }
    }
    drop(store);
    let rounds: Vec<u64> = records.iter().map(|rec| rec.round).collect();
    assert_eq!(rounds, [0, 1, 2]);
    // where each frame ends: an 8-byte header, then the record's body
    let ends: Vec<usize> = records
        .iter()
        .scan(0, |end, rec| {
            *end += 8 + rec.to_bytes().len();
            Some(*end)
        })
        .collect();
    let wal = std::fs::read(logged_dir.dir.join(WAL_FILE)).expect("log readable");
    assert_eq!(ends.last(), Some(&wal.len()));
    let snapshot = std::fs::read(logged_dir.dir.join(SNAPSHOT_FILE)).expect("genesis checkpoint");

    for cut in 0..=wal.len() {
        let _ = std::fs::remove_dir_all(&cut_dir.dir);
        std::fs::create_dir_all(&cut_dir.dir).expect("cut dir");
        std::fs::write(cut_dir.dir.join(SNAPSHOT_FILE), &snapshot).expect("copy snapshot");
        std::fs::write(cut_dir.dir.join(WAL_FILE), &wal[..cut]).expect("cut log");
        let (_, recovered) = open_store(&cut_dir, &r.spec, 1).expect("a cut log reopens");
        let j = ends.iter().filter(|&&end| end <= cut).count();
        assert_eq!(recovered.records, records[..j], "cut at byte {cut}");
        let mid_frame = cut > 0 && !ends.contains(&cut);
        assert_eq!(recovered.torn_tail, mid_frame, "cut at byte {cut}");
        let core = GatewayCore::new(
            1,
            Arc::clone(&r.registry),
            r.timing.clone(),
            &r.spec,
            &r.cfg,
            Some((&cut_dir, &recovered)),
        );
        assert_eq!(core.round(), j as u64, "cut at byte {cut}");
        assert_eq!(
            core.engine.coded_state_canonical(),
            states[j],
            "cut at byte {cut}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn telemetry_and_state_requests_are_served_while_idle() {
    // once its command commits the cluster holds no work and runs no
    // round; node 1 answers each read-only request, and a retry of the
    // committed command, in the step that delivers it, with no round
    // started for it
    let r = rig(ConsensusKind::LeaderEcho);
    let mut cluster = Cluster::new(&r, false);
    cluster.client_broadcast(1_000, &r.submit(4, 0, 5));
    cluster.run(20_000, |_, _| {});
    let round = cluster.cores[1].round();
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
    let retry = r.submit(4, 0, 5);
    let mut sent = Vec::new();
    for frame in [scrape, request, query, retry] {
        let effects = cluster.cores[1].step(20_001, Event::Frame(frame));
        let [Effect::Send { frame, .. }] = &effects[..] else {
            panic!("one answer and nothing else: {effects:?}");
        };
        sent.push(frame.payload.clone());
    }
    assert_eq!(cluster.cores[1].round(), round, "no round started");
    let snapshot = match &sent[0] {
        Payload::TelemetryReply {
            nonce: 42,
            snapshot,
            ..
        } => TelemetrySnapshot::from_json(snapshot).expect("snapshot parses"),
        other => panic!("the scrape was not answered: {other:?}"),
    };
    assert_eq!(snapshot.counter("commands_committed"), 1);
    assert!(snapshot.phase("exchange").is_some());
    assert!(matches!(&sent[1], Payload::StateChunk { results, .. } if results.len() == 2));
    assert!(matches!(&sent[2], Payload::QueryReply { qid: 3, value, .. } if value[..] == [105]));
    assert!(matches!(
        &sent[3],
        Payload::Reply {
            client: 4,
            seq: 0,
            ..
        }
    ));
    assert_eq!(cluster.cores[1].stats().replayed, 1);
}

// -- the exchange: certificates, late evidence, the round counter ----------

/// Node `me` of `r`'s leader-echo cluster, past round 0's staging on the
/// empty batch and collecting the word.
fn exchanging(r: &Rig, me: usize) -> GatewayCore<Fp61> {
    let mut core = r.core(me, None);
    let (at, next) = timer(&core.start(0), TimerKind::Next);
    core.step(at, Event::Timer(next));
    for voter in (0..r.cfg.cluster).filter(|&v| v != me) {
        let vote = Payload::Stage {
            round: 0,
            sender: voter as u64,
            commands: Vec::new(),
        };
        core.step(at, Event::Frame(r.sign(voter, vote)));
        if matches!(core.phase, PhaseState::Exchanging { .. }) {
            return core;
        }
    }
    panic!("the echo quorum never formed");
}

/// `node`'s honest coded result for `programs` on the genesis states.
fn honest_result(r: &Rig, node: usize, programs: &[Vec<Vec<Fp61>>]) -> Vec<u64> {
    RoundEngine::new(Arc::clone(&r.spec.machine), node, &r.spec.initial_states)
        .unwrap()
        .execute_batched(programs)
        .unwrap()
        .iter()
        .map(|x| x.to_canonical_u64())
        .collect()
}

/// `values` shifted by `by` in every coordinate: a lie.
fn shifted(values: &[u64], by: u64) -> Vec<u64> {
    let by = Fp61::from_u64(by);
    values
        .iter()
        .map(|&v| (Fp61::from_u64(v) + by).to_canonical_u64())
        .collect()
}

/// Delivers `sender`'s round-`round` result at `at` and then, like a
/// driver with nothing else due, the `Decode` timer it may arm.
fn deliver_result(
    r: &Rig,
    core: &mut GatewayCore<Fp61>,
    at: u64,
    round: u64,
    sender: usize,
    values: Vec<u64>,
) -> Vec<Effect> {
    let result = Payload::Result {
        round,
        sender: sender as u64,
        values,
    };
    let mut effects = core.step(at, Event::Frame(r.sign(sender, result)));
    let decode = effects.iter().find_map(|e| match e {
        Effect::SetTimer { at_us, id } if id.kind == TimerKind::Decode => Some((*at_us, *id)),
        _ => None,
    });
    if let Some((due, id)) = decode {
        effects.extend(core.step(due, Event::Timer(id)));
    }
    effects
}

/// How often `sink` saw `peer` exposed.
fn exposures(sink: &ReplaySink, peer: usize) -> usize {
    sink.event_log()
        .iter()
        .filter(|(_, _, p, e)| *p == Some(peer) && *e == Incident::EquivocationDetected)
        .count()
}

#[test]
fn an_exposure_hands_its_flight_dump_to_the_driver() {
    // N = 8, K = 2 (dim 2), b = 2: the liar is exposed by the decode that
    // certifies, on the fifth result
    let mut r = sized_rig(8, 2, ConsensusKind::LeaderEcho);
    let dir = std::env::temp_dir().join(format!("csm-core-flight-{}", std::process::id()));
    r.cfg = r.cfg.clone().with_flight_dir(dir.clone());
    let (me, liar) = (7, 0);
    let empty = vec![Vec::new(); 2];
    let mut core = exchanging(&r, me);
    let lie = shifted(&honest_result(&r, liar, &empty), 1);
    let mut effects = deliver_result(&r, &mut core, 600, 0, liar, lie);
    for peer in 2..5 {
        let values = honest_result(&r, peer, &empty);
        effects.extend(deliver_result(&r, &mut core, 600, 0, peer, values));
    }
    assert_eq!(committed(&effects).len(), 1);
    let dumps: Vec<_> = effects
        .iter()
        .filter_map(|e| match e {
            Effect::FlightDump { dir, dump } => {
                Some((dir.clone(), dump.reason.clone(), dump.implicated_peers()))
            }
            _ => None,
        })
        .collect();
    let reason = "byzantine-detected".to_string();
    assert_eq!(dumps, vec![(dir.clone(), reason, vec![liar as u64])]);
    assert!(!dir.exists(), "the core writes no file");
}

#[test]
fn a_result_after_a_certified_commit_still_exposes_its_sender() {
    // N = 8, K = 2 (dim 2), b = 2: four results certify
    let mut r = sized_rig(8, 2, ConsensusKind::LeaderEcho);
    let sink = Arc::new(ReplaySink::new());
    r.cfg = r.cfg.clone().with_sink(Arc::clone(&sink) as SharedSink);
    let (me, equivocator) = (7, 0);
    let empty = vec![Vec::new(); 2];
    let mut core = exchanging(&r, me);
    let mut commits = Vec::new();
    for peer in [2, 3, 4] {
        let effects = deliver_result(&r, &mut core, 600, 0, peer, honest_result(&r, peer, &empty));
        commits.extend(committed(&effects));
    }
    assert_eq!(commits.len(), 1, "four results certify the word");
    assert_eq!(exposures(&sink, equivocator), 0);

    // the equivocator's result lands after the commit: exposed once
    let lie = shifted(&honest_result(&r, equivocator, &empty), 1);
    let effects = deliver_result(&r, &mut core, 700, 0, equivocator, lie);
    assert!(committed(&effects).is_empty(), "the commit stands");
    assert_eq!(exposures(&sink, equivocator), 1);
    // an honest late result exposes nobody
    let effects = deliver_result(&r, &mut core, 800, 0, 5, honest_result(&r, 5, &empty));
    assert!(committed(&effects).is_empty());
    assert_eq!(
        sink.event_log()
            .iter()
            .filter(|(_, _, _, e)| *e == Incident::EquivocationDetected)
            .count(),
        1
    );
    // the round's record holds the word as it finally stood
    let record = core
        .commits
        .back()
        .cloned()
        .flatten()
        .expect("round 0 committed");
    assert_eq!(record.digest, commits[0].1);
    assert_eq!(record.detected_error_nodes, vec![equivocator]);
    assert_eq!(record.results_held, 6);
    assert_eq!(core.stats().exchange_fallbacks, 0);
}

#[test]
fn a_failed_round_leaves_one_round_counter() {
    // node 1 hears no result in round 0, so its word fails to decode at
    // the deadline; then it leads round 1 and commits a command there.
    // The reply must name the round its commit gossip names.
    let r = rig(ConsensusKind::LeaderEcho);
    let mut core = exchanging(&r, 1);
    let deadline = TimerId {
        kind: TimerKind::Exchange,
        round: 0,
        epoch: 0,
    };
    let effects = core.step(10_000, Event::Timer(deadline));
    assert!(committed(&effects).is_empty(), "round 0 does not decode");
    assert_eq!(core.round(), 1);

    // a command wakes the idle leader of round 1
    let effects = core.step(10_000, Event::Frame(r.submit(4, 0, 7)));
    let (at, next) = timer(&effects, TimerKind::Next);
    let effects = core.step(at, Event::Timer(next));
    let rows = effects
        .iter()
        .find_map(|e| match e {
            Effect::Broadcast(Frame {
                payload: Payload::Stage { commands, .. },
                ..
            }) => Some(commands.clone()),
            _ => None,
        })
        .expect("the leader proposes");
    for voter in [2, 3] {
        let echo = Payload::Stage {
            round: 1,
            sender: voter as u64,
            commands: rows.clone(),
        };
        core.step(at, Event::Frame(r.sign(voter, echo)));
    }
    let programs = vec![vec![vec![Fp61::from_u64(7)]], Vec::new()];
    let mut effects = Vec::new();
    for peer in [2, 3] {
        let values = honest_result(&r, peer, &programs);
        effects.extend(deliver_result(&r, &mut core, at + 500, 1, peer, values));
    }
    let reply_rounds: Vec<u64> = effects
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
    let commits = committed(&effects);
    assert_eq!(commits.len(), 1, "round 1 commits");
    assert_eq!(reply_rounds, vec![commits[0].0]);
    assert_eq!(commits[0].0, 1);
    assert_eq!(core.round(), 2);
}

#[test]
fn an_idle_leader_waits_a_window_for_a_round_of_commands() {
    // node 1, idle after round 0 failed at 10 000 µs, leads round 1. It
    // holds no commands, so it arms no round at all; the batch window is
    // Δ/5 = 400 µs (Δ = 2 000 µs), and a round's worth is K · batch_cap
    // = 2 commands.
    let r = rig(ConsensusKind::LeaderEcho);
    let idle_leader = || {
        let mut core = exchanging(&r, 1);
        let deadline = TimerId {
            kind: TimerKind::Exchange,
            round: 0,
            epoch: 0,
        };
        let effects = core.step(10_000, Event::Timer(deadline));
        assert_eq!(core.round(), 1);
        assert!(!arms(&effects, TimerKind::Next), "{effects:?}");
        core
    };
    // one command: the round starts a window after it arrived
    let mut core = idle_leader();
    let effects = core.step(10_100, Event::Frame(r.submit(4, 0, 7)));
    assert_eq!(timer(&effects, TimerKind::Next).0, 10_500);
    // a second fills the round: it starts at once
    let effects = core.step(10_200, Event::Frame(r.submit(5, 0, 3)));
    let (at, next) = timer(&effects, TimerKind::Next);
    assert_eq!(at, 10_200);

    // the round commits both; node 1 does not lead round 2 and holds
    // nothing, so it runs no round after the one that carried commands
    let effects = core.step(at, Event::Timer(next));
    let rows = effects
        .iter()
        .find_map(|e| match e {
            Effect::Broadcast(Frame {
                payload: Payload::Stage { commands, .. },
                ..
            }) => Some(commands.clone()),
            _ => None,
        })
        .expect("the leader proposes");
    for voter in [2, 3] {
        let echo = Payload::Stage {
            round: 1,
            sender: voter as u64,
            commands: rows.clone(),
        };
        core.step(at, Event::Frame(r.sign(voter, echo)));
    }
    let programs = vec![vec![vec![Fp61::from_u64(7)]], vec![vec![Fp61::from_u64(3)]]];
    let mut effects = Vec::new();
    for peer in [2, 3] {
        let values = honest_result(&r, peer, &programs);
        effects.extend(deliver_result(&r, &mut core, at + 500, 1, peer, values));
    }
    assert_eq!(committed(&effects).len(), 1, "round 1 commits");
    assert_eq!(core.stats().commands_committed, 2);
    assert!(!arms(&effects, TimerKind::Next), "{effects:?}");
    // a command for round 2, which node 1 does not lead, starts it after
    // the longest pause a round leaves (Δ + idle pause 3 000 µs) unless
    // the leader pulls it in first
    let effects = core.step(at + 600, Event::Frame(r.submit(4, 1, 9)));
    assert_eq!(timer(&effects, TimerKind::Next).0, at + 600 + 2_000 + 3_000);
}

#[test]
fn an_idle_cluster_is_silent() {
    // once its one command has committed the cluster holds no work: for
    // 200Δ no node advances a round, sends a frame or arms a timer
    let r = rig(ConsensusKind::LeaderEcho);
    let mut cluster = Cluster::new(&r, false);
    cluster.client_broadcast(1_000, &r.submit(4, 0, 5));
    cluster.run(20_000, |_, _| {});
    assert!(cluster
        .cores
        .iter()
        .all(|c| c.stats().commands_committed == 1));
    let rounds =
        |cluster: &Cluster| -> Vec<u64> { cluster.cores.iter().map(GatewayCore::round).collect() };
    let before = rounds(&cluster);
    let quiet_until = 20_000 + 200 * micros(r.timing.delta);
    cluster.run(quiet_until, |node, effects| {
        let loud = effects.iter().any(|e| {
            matches!(
                e,
                Effect::Send { .. } | Effect::Broadcast(_) | Effect::SetTimer { .. }
            )
        });
        assert!(!loud, "node {node}: {effects:?}");
    });
    assert_eq!(rounds(&cluster), before);
}

#[test]
fn a_silent_leader_does_not_strand_work() {
    // the quiet cluster rests in round 1, whose leader (node 1) withholds
    // its proposals. A command reaches every node: the followers, which
    // do not lead, start the round after the longest pause a round
    // leaves, and get past the leader in the time their backend's
    // staging takes — PBFT's view-0 timeout (`stage_timeout`), after
    // which the next primary commits the command in that round; the
    // leader-echo proposal and echo waits (2 · `stage_timeout`), after
    // which the next round's leader proposes it at once; two Dolev–Strong
    // windows of (b + 2) relay rounds, as every round runs its whole one
    for consensus in [
        ConsensusKind::Pbft,
        ConsensusKind::LeaderEcho,
        ConsensusKind::DolevStrong,
    ] {
        let r = rig(consensus);
        let stage_timeout = micros(r.cfg.stage_timeout);
        let staging = match consensus {
            ConsensusKind::Pbft => stage_timeout,
            ConsensusKind::LeaderEcho => 2 * stage_timeout,
            ConsensusKind::DolevStrong => 2 * micros(r.cfg.consensus_delta) * (B as u64 + 2),
        };
        let cores = (0..N)
            .map(|id| {
                let spec = GatewaySpec {
                    staging_fault: if id == 1 {
                        StagingFault::WithholdBatch
                    } else {
                        StagingFault::None
                    },
                    ..r.spec.clone()
                };
                let timing = r.timing.clone();
                GatewayCore::new(id, Arc::clone(&r.registry), timing, &spec, &r.cfg, None)
            })
            .collect();
        let mut cluster = Cluster::of(cores, Arc::clone(&r.registry));
        let submitted = 40_000;
        cluster.run(submitted, |_, _| {});
        assert!(cluster.cores.iter().all(|c| c.round() == 1), "{consensus}");
        cluster.client_broadcast(submitted, &r.submit(4, 0, 5));
        cluster.run(200_000, |_, _| {});
        // when the client holds b + 1 replies
        let acked = cluster
            .log
            .iter()
            .filter(|(.., effects)| {
                effects.iter().any(|e| {
                    matches!(
                        e,
                        Effect::Send {
                            frame: Frame {
                                payload: Payload::Reply { client: 4, .. },
                                ..
                            },
                            ..
                        }
                    )
                })
            })
            .nth(B)
            .map(|(_, now, ..)| *now)
            .unwrap_or_else(|| panic!("{consensus}: the command never committed"));
        let pause = micros(r.timing.delta) + micros(r.timing.idle_pause());
        assert!(
            acked - submitted <= 2 * pause + staging,
            "{consensus}: acked {} µs after submission",
            acked - submitted
        );
    }
}

#[test]
fn a_command_sent_to_one_follower_commits_without_a_halt() {
    // client 5 sends one command to node 3 alone, which leads neither the
    // round the quiet cluster rests in (1) nor the next: once while the
    // cluster is quiet, once while it runs a round for client 4's
    // broadcast. Started on node 3's clock alone, a round would find no
    // peer in it, fail, and later meet `b + 1` commits for a round the
    // node does not hold: a plain node halts. Handed to the round's
    // leader as node 3 starts, the command brings the leader, and the
    // others after it, into the round: every node commits both commands
    for consensus in [
        ConsensusKind::LeaderEcho,
        ConsensusKind::DolevStrong,
        ConsensusKind::Pbft,
    ] {
        for busy in [false, true] {
            let r = rig(consensus);
            let mut cluster = Cluster::new(&r, false);
            let quiet = 40_000;
            cluster.run(quiet, |_, _| {});
            assert!(cluster.cores.iter().all(|c| c.round() == 1), "{consensus}");
            if busy {
                cluster.client_broadcast(quiet, &r.submit(4, 0, 5));
                cluster.push(quiet + 1_000, 3, Event::Frame(r.submit(5, 0, 7)));
            } else {
                cluster.push(quiet, 3, Event::Frame(r.submit(5, 0, 7)));
                cluster.client_broadcast(quiet + 60_000, &r.submit(4, 0, 5));
            }
            let mut halted = Vec::new();
            cluster.run(400_000, |node, effects| {
                if effects.iter().any(|e| matches!(e, Effect::Halt(_))) {
                    halted.push(node);
                }
            });
            let case = format!("{consensus}, busy: {busy}");
            assert!(halted.is_empty(), "{case}: nodes {halted:?} halted");
            let committed: Vec<u64> = cluster
                .cores
                .iter()
                .map(|c| c.stats().commands_committed)
                .collect();
            assert_eq!(committed, vec![2; N], "{case}");
        }
    }
}

/// The next draw below `bound` from the splitmix64 stream at `seed`.
fn draw(seed: &mut u64, bound: u64) -> u64 {
    *seed = splitmix64(*seed);
    *seed % bound
}

/// `nodes` in a random order drawn from `seed`.
fn shuffled(seed: &mut u64, mut nodes: Vec<usize>) -> Vec<usize> {
    for i in (1..nodes.len()).rev() {
        nodes.swap(i, draw(seed, i as u64 + 1) as usize);
    }
    nodes
}

#[test]
fn certified_commits_are_the_commits_at_the_deadline() {
    // N = 8, dim 2, b = 2, node 7 observing: up to b liars, silent or
    // colluding on one wrong polynomial that also passes through one
    // honest result (the most a wrong decode can be made to agree with),
    // and the rest honest, arriving one at a time in a random order. The
    // commit must be the decode of the word as it stands at Δ, it must
    // come before Δ, and it takes at most N − dim − b + 1 decodes.
    let (n, b, me) = (8, 2, 7);
    let r = sized_rig(n, b, ConsensusKind::LeaderEcho);
    let machine = Arc::clone(&r.spec.machine);
    let alphas = machine.codebook().alphas().to_vec();
    let empty = vec![Vec::new(); 2];
    let seed = &mut 0x5EED_u64;
    for case in 0..200 {
        let peers = shuffled(seed, (0..n).filter(|&p| p != me).collect());
        let (liars, honest) = peers.split_at(draw(seed, b as u64 + 1) as usize);
        // W = truth + c·(z − α_h): wrong everywhere but at honest node h
        let (c, h) = (Fp61::from_u64(1 + draw(seed, 1_000)), honest[0]);
        let silent = draw(seed, 2) == 0;
        let mut word: Word<Fp61> = vec![None; n];
        let field = |values: &[u64]| values.iter().map(|&v| Fp61::from_u64(v)).collect();
        word[me] = Some(field(&honest_result(&r, me, &empty)));
        let mut core = exchanging(&r, me);
        let mut commits = Vec::new();
        for (i, peer) in shuffled(seed, peers.clone()).into_iter().enumerate() {
            let mut values = honest_result(&r, peer, &empty);
            if liars.contains(&peer) {
                if silent {
                    continue;
                }
                let lie = c * (alphas[peer] - alphas[h]);
                values = shifted(&values, lie.to_canonical_u64());
            }
            word[peer] = Some(field(&values));
            let at = 600 + i as u64;
            commits.extend(committed(&deliver_result(
                &r, &mut core, at, 0, peer, values,
            )));
        }
        let at_delta = machine.decode_word(&word, &[]).expect("≤ b liars decode");
        assert_eq!(commits, vec![(0, at_delta.digest())], "case {case}");
        assert_eq!(core.stats().exchange_fallbacks, 0, "case {case}");
        let decodes = core.exchange.decodes;
        assert!(
            decodes <= (n - 2 - b + 1) as u64,
            "case {case}: {decodes} decodes"
        );
    }
}

#[test]
fn one_peer_spraying_future_rounds_does_not_speed_up_an_idle_cluster() {
    // an idle cluster; in the sprayed run one peer also sends every other
    // node a Stage for each of the next few rounds past the receiver's,
    // every 500 µs. Were any peer's frame enough to wake an idle node,
    // that alone would run empty rounds at network speed. As it is, one
    // peer is evidence only for the rounds it leads, so the sprayer is
    // the leader of the round the quiet cluster rests in.
    const HORIZON: u64 = 200_000;
    let r = rig(ConsensusKind::LeaderEcho);
    let rounds = |sprayer: Option<usize>| {
        let mut cluster = Cluster::new(&r, false);
        for now in (500..=HORIZON).step_by(500) {
            cluster.run(now, |_, _| {});
            let Some(sprayer) = sprayer else { continue };
            for to in (0..N).filter(|&to| to != sprayer) {
                let current = cluster.cores[to].round();
                for round in current + 1..=current + 4 {
                    let stage = Payload::Stage {
                        round,
                        sender: sprayer as u64,
                        commands: Vec::new(),
                    };
                    cluster.push(now, to, Event::Frame(r.sign(sprayer, stage)));
                }
            }
        }
        let rounds: Vec<u64> = cluster.cores.iter().map(GatewayCore::round).collect();
        assert!(rounds.iter().all(|&round| round == rounds[0]), "{rounds:?}");
        rounds[0]
    };
    // the quiet cluster runs its boot round, then rests in the next
    let quiet = rounds(None);
    assert_eq!(quiet, 1, "a quiet cluster stays at its round");
    let sprayer = (quiet % N as u64) as usize;
    let sprayed = rounds(Some(sprayer));
    let led = (quiet..sprayed)
        .filter(|&round| round % N as u64 == sprayer as u64)
        .count() as u64;
    assert!(
        sprayed - quiet <= led,
        "{quiet} rounds quiet, {sprayed} sprayed by node {sprayer}"
    );
}

#[test]
#[ignore = "known hole: a deadline decode of exactly dim results commits unchecked"]
fn a_deadline_word_of_dim_results_commits_no_lie() {
    // N = 8, K = 2 (dim 2), b = 2: node 7 hears only the equivocator
    // before Δ, so its word is its own result and one lie. That word
    // interpolates to a wrong polynomial with nothing to check it
    // against; the deadline must not commit it. A cluster stopped while
    // some nodes are mid-round leaves them exactly here.
    let r = sized_rig(8, 2, ConsensusKind::LeaderEcho);
    let (me, equivocator) = (7, 0);
    let empty = vec![Vec::new(); 2];
    let mut core = exchanging(&r, me);
    let lie = shifted(&honest_result(&r, equivocator, &empty), 1);
    let mut effects = deliver_result(&r, &mut core, 600, 0, equivocator, lie);
    let deadline = TimerId {
        kind: TimerKind::Exchange,
        round: 0,
        epoch: 0,
    };
    effects.extend(core.step(10_000, Event::Timer(deadline)));
    let honest: Word<Fp61> = (0..8)
        .map(|node| {
            let values = honest_result(&r, node, &empty);
            Some(values.iter().map(|&v| Fp61::from_u64(v)).collect())
        })
        .collect();
    let truth = r.spec.machine.decode_word(&honest, &[]).unwrap().digest();
    for (round, digest) in committed(&effects) {
        assert_eq!((round, digest), (0, truth), "a lie was committed");
    }
}

#[test]
fn partial_synchrony_certifies_before_the_cutoff_and_exposes_both_liars() {
    // N = 9, K = 2 (dim 2), b = 2, partially synchronous: the word
    // freezes at N − b = 7 results, and max_wait is only the fallback.
    // Nodes 0 and 1 lie, the rest are honest; the liars' results land
    // first. Four agreeing results certify, which takes three honest
    // results beside node 8's own: the fifth delivery.
    let (n, b, me) = (9, 2, 8);
    let max_wait = Duration::from_micros(20_000);
    let mut r = sized_rig(n, b, ConsensusKind::LeaderEcho);
    r.timing = ExchangeTiming::partially_synchronous(b, max_wait);
    let mut cfg = GatewayConfig::new(n, b, &r.timing).with_consensus(ConsensusKind::LeaderEcho);
    cfg.stage_timeout = r.cfg.stage_timeout;
    cfg.consensus_delta = r.cfg.consensus_delta;
    r.cfg = cfg;
    let empty = vec![Vec::new(); 2];
    let mut core = exchanging(&r, me);
    // a command for a later round: the node holds work to pace
    core.step(500, Event::Frame(r.submit(n, 0, 5)));
    // peer p's result lands at 600 + 100·p, the liars' first
    let (committed_at, effects) = (0..n)
        .filter(|&p| p != me)
        .find_map(|peer| {
            let mut values = honest_result(&r, peer, &empty);
            if peer < 2 {
                values = shifted(&values, 1 + peer as u64);
            }
            let at = 600 + 100 * peer as u64;
            let effects = deliver_result(&r, &mut core, at, 0, peer, values);
            (!committed(&effects).is_empty()).then_some((at, effects))
        })
        .expect("the word certifies");
    let honest: Word<Fp61> = (0..n)
        .map(|node| {
            let values = honest_result(&r, node, &empty);
            Some(values.iter().map(|&v| Fp61::from_u64(v)).collect())
        })
        .collect();
    let truth = r.spec.machine.decode_word(&honest, &[]).unwrap().digest();
    assert_eq!(committed(&effects), vec![(0, truth)], "the true digest");
    assert_eq!(committed_at, 1_000, "certified on the fifth delivery");
    let record = core.commits.back().cloned().flatten().expect("round 0");
    assert_eq!(record.detected_error_nodes, vec![0, 1], "both liars");
    assert_eq!(core.stats().exchange_fallbacks, 0);
    // committed before max_wait, and a node holding work paces its next
    // round from the commit: a partially synchronous node has no Δ to
    // wait out
    assert!(committed_at < micros(max_wait));
    let pause = micros(r.timing.idle_pause());
    assert_eq!(timer(&effects, TimerKind::Next).0, committed_at + pause);
}

#[test]
fn a_degree_three_machine_over_gf2_16_commits_the_uncoded_results() {
    // the Appendix-A 2-bit counter compiled to GF(2¹⁶): degree 3, so
    // the code dimension is 4 at K = 2. N = 10, b = 2, node 3 withholds
    // and node 6 forges its results in node 7's name. Two clients (ids
    // 10 and 11, one per shard) each submit five increment bits; every
    // round an honest node commits must equal the uncoded execution of
    // the commands its replies place in that round.
    let (n, b, byzantine) = (10, 2, [3usize, 6]);
    let machine = Arc::new(
        CodedMachine::new(
            n,
            2,
            counter_machine(2).compile::<Gf2_16>(),
            DecoderKind::default(),
        )
        .unwrap(),
    );
    assert_eq!(machine.code().dim(), 4);
    let registry = cluster_registry(n + CLIENTS, 11);
    let timing = ExchangeTiming::synchronous(b, Duration::from_micros(2_000));
    let mut cfg = GatewayConfig::new(n, b, &timing);
    cfg.stage_timeout = Duration::from_micros(8_000);
    cfg.consensus_delta = Duration::from_micros(4_000);
    let initial_states = vec![vec![Gf2_16::ZERO; 2]; 2];
    let cores = (0..n)
        .map(|id| {
            let spec = GatewaySpec {
                machine: Arc::clone(&machine),
                initial_states: initial_states.clone(),
                behavior: match id {
                    3 => BehaviorKind::Withhold,
                    6 => BehaviorKind::Impersonate,
                    _ => BehaviorKind::Honest,
                },
                staging_fault: StagingFault::None,
            };
            GatewayCore::new(id, Arc::clone(&registry), timing.clone(), &spec, &cfg, None)
        })
        .collect();
    let mut cluster = Cluster::of(cores, Arc::clone(&registry));
    let command = |client: usize, seq: u64| u64::from(!(seq + client as u64).is_multiple_of(3));
    for seq in 0..5 {
        for client in n..n + CLIENTS {
            let submit = Payload::Submit {
                shard: (client % 2) as u64,
                client: client as u64,
                seq,
                command: vec![command(client, seq)],
            };
            let frame = Frame::sign(submit, &registry, NodeId(client));
            cluster.client_broadcast(1_000 + 7_000 * seq + client as u64, &frame);
        }
    }
    cluster.run(300_000, |_, _| {});

    // the round each command committed in, from the honest replies
    let mut placed: BTreeMap<u64, BTreeMap<usize, u64>> = BTreeMap::new();
    for frame in cluster
        .replies
        .iter()
        .filter(|f| !byzantine.contains(&f.sig.signer.0))
    {
        if let Payload::Reply {
            shard,
            round,
            client,
            seq,
            ..
        } = frame.payload
        {
            let bit = command(client as usize, seq);
            let prior = placed.entry(round).or_default().insert(shard as usize, bit);
            assert!(
                prior.is_none_or(|p| p == bit),
                "one command per shard and round"
            );
        }
    }
    let placed_count: usize = placed.values().map(BTreeMap::len).sum();
    assert_eq!(placed_count, 5 * CLIENTS, "every command was answered");

    // the uncoded reference, round by round
    let transition = machine.transition();
    let sd = transition.state_dim();
    let last = cluster.cores.iter().map(GatewayCore::round).max().unwrap();
    let mut states = initial_states;
    let mut reference = BTreeMap::new();
    for round in 0..last {
        let results: Vec<Vec<Gf2_16>> = (0..2)
            .map(|shard| {
                let bit = placed.get(&round).and_then(|p| p.get(&shard)).copied();
                let x = vec![Gf2_16::from_u64(bit.unwrap_or(0))];
                transition.apply_flat(&states[shard], &x).unwrap()
            })
            .collect();
        states = results.iter().map(|r| r[..sd].to_vec()).collect();
        reference.insert(round, results);
    }
    for core in cluster.cores.iter().filter(|c| !byzantine.contains(&c.id)) {
        assert_eq!(core.stats().commands_committed, 5 * CLIENTS as u64);
        assert!(core.commits.len() > 5, "node {} ran rounds", core.id);
        for commit in &core.commits {
            let commit = commit.as_ref().expect("every round decodes");
            assert_eq!(
                Some(&commit.results),
                reference.get(&commit.round),
                "node {} round {}",
                core.id,
                commit.round
            );
        }
    }
}

#[test]
fn a_follower_executes_the_rows_it_adopts_not_the_rows_it_validated() {
    // N = 7, b = 2: an echo quorum is 5 votes, so a follower can be
    // outvoted on the variant an equivocating leader showed it
    let r = sized_rig(7, 2, ConsensusKind::LeaderEcho);
    let spec = GatewaySpec {
        staging_fault: StagingFault::EquivocateBatch,
        ..r.spec.clone()
    };
    let mut leader = GatewayCore::new(
        0,
        Arc::clone(&r.registry),
        r.timing.clone(),
        &spec,
        &r.cfg,
        None,
    );
    let (at, next) = timer(&leader.start(0), TimerKind::Next);
    leader.step(at, Event::Frame(r.submit(7, 0, 5)));
    leader.step(at, Event::Frame(r.submit(8, 0, 9)));
    // the Byzantine leader shows the full batch to even peers and its
    // truncation to odd ones
    let effects = leader.step(at, Event::Timer(next));
    let shown_to = |peer: usize| {
        effects
            .iter()
            .find_map(|e| match e {
                Effect::Send {
                    to,
                    frame:
                        Frame {
                            payload: Payload::Stage { commands, .. },
                            ..
                        },
                } if *to == peer => Some(commands.clone()),
                _ => None,
            })
            .expect("the leader proposes to every peer")
    };
    let (full, truncated) = (shown_to(2), shown_to(1));
    assert_eq!((full.len(), truncated.len()), (2, 1));
    let mut forged = truncated.clone();
    forged[0][3] ^= 1; // the client's tag, altered

    let stage = |voter: usize, commands: &BatchRows| {
        let vote = Payload::Stage {
            round: 0,
            sender: voter as u64,
            commands: commands.clone(),
        };
        Event::Frame(r.sign(voter, vote))
    };
    // follower 1 validates and echoes the leader's truncated variant, then
    // five votes carry `adopted`: the batch it executes
    let executed = |adopted: &BatchRows| {
        let mut follower = staging_follower(&r);
        let effects = follower.step(100, stage(0, &truncated));
        assert!(
            effects.iter().any(|e| matches!(
                e,
                Effect::Broadcast(Frame {
                    payload: Payload::Stage { .. },
                    ..
                })
            )),
            "the follower validates and echoes: {effects:?}"
        );
        for voter in 2..7 {
            follower.step(200, stage(voter, adopted));
        }
        match &follower.phase {
            PhaseState::Exchanging { batch, .. } => (batch.clone(), follower.stats().empty_rounds),
            _ => panic!("the follower adopted a batch"),
        }
    };
    let decoded = |rows: &BatchRows| decode_batch(rows, 2, 1, 1, 7, &r.registry);
    // the other variant: decoded and verified afresh
    assert_eq!(executed(&full), (decoded(&full).unwrap(), 0));
    // the validated variant itself: the batch its check kept
    assert_eq!(executed(&truncated), (decoded(&truncated).unwrap(), 0));
    // the validated rows with a tag altered: refused, the empty batch
    assert_eq!(decoded(&forged), None);
    assert_eq!(executed(&forged), (Vec::new(), 1));
}
