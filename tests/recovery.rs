//! End-to-end crash-recovery tests: a durable gateway cluster survives a
//! hard kill + restart of an honest node under a live Byzantine workload
//! (zero lost committed commands), and the `b + 1`-verified state
//! transfer resists corrupted chunks from Byzantine peers.

use csm_algebra::{Field, Fp61};
use csm_auditor::{AuditConfig, ClusterAudit};
use csm_bench::recovery::{
    one_equivocator, run_mem_rejoin, scratch_dir, verify_rejoin_outcome, RejoinConfig,
};
use csm_core::digest::digest_results;
use csm_core::DecoderKind;
use csm_network::NodeId;
use csm_node::core::{Effect, Event, GatewayCore, TimerKind};
use csm_node::{
    cluster_registry, store_fingerprint, BehaviorKind, CodedMachine, DurabilityConfig,
    ExchangeTiming, GatewayConfig, GatewaySpec, RoundEngine, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_storage::NodeStore;
use csm_transport::{Frame, Payload};
use std::sync::Arc;
use std::time::Duration;

#[test]
fn mem_cluster_survives_kill_and_rejoin() {
    // N = 8, K = 2, b = 2, node 0 equivocating on results, replies, and
    // state chunks; honest node 5 is hard-killed mid-workload, restarts
    // from its store, catches up, and the cluster commits ≥ 3 further
    // rounds with every accepted output on the reference balance chain.
    let dir = scratch_dir("mem-test");
    let cfg = RejoinConfig::small(0xD15C);
    let outcome = run_mem_rejoin(&dir, &cfg, one_equivocator);
    verify_rejoin_outcome(&cfg, &outcome, &[0]).expect("rejoin outcome verifies");
    let recovery = outcome
        .post_report
        .recovery
        .as_ref()
        .expect("recovery info");
    // the victim held durable state and resumed from it (not genesis)
    assert!(
        recovery.recovered_round > 0,
        "local replay should recover past genesis: {recovery:?}"
    );
    assert!(
        outcome.final_round >= outcome.restart_round + cfg.post_rounds,
        "cluster must keep committing after the rejoin"
    );
    // the snapshot cadence bounds the log a restart replays
    assert!(
        recovery.wal_records_replayed < cfg.snapshot_interval,
        "replayed {} WAL records past a snapshot every {}",
        recovery.wal_records_replayed,
        cfg.snapshot_interval
    );
    // the pre-wind-down scrape convicts the equivocator, and only it, on
    // cryptographically attributed evidence from > b distinct reporters
    let audit = ClusterAudit::build(
        AuditConfig {
            cluster: cfg.cluster,
            assumed_faults: cfg.assumed_faults,
        },
        &outcome.telemetry,
    );
    assert_eq!(audit.scorecard.sound_convicted(), vec![0]);
    let reporters = audit.scorecard.score(0).expect("convicted").reporters();
    assert!(reporters.len() > cfg.assumed_faults, "{reporters:?}");
    // the equivocator forges in node 1's name: the victim may carry
    // claimed-signer (mac_rejected) evidence, nobody else any
    for peer in audit.scorecard.peers.iter().filter(|p| p.peer != 0) {
        assert!(
            peer.peer == 1 && peer.is_mac_only(),
            "node {} accused beyond the forge-victim artifact: {:?}",
            peer.peer,
            peer.kinds()
        );
    }
    assert!(
        audit.timeline.slack_p50_us("exchange").is_some(),
        "no exchange Δ-slack samples"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Advances an all-honest coded bank cluster through `rounds` rounds,
/// returning the machine, every node's engine, the last round's decoded
/// results, and their digest.
fn advanced_cluster(
    n: usize,
    k: usize,
    rounds: u64,
) -> (
    Arc<CodedMachine<Fp61>>,
    Vec<RoundEngine<Fp61>>,
    Vec<Vec<Fp61>>,
    u64,
) {
    let machine =
        Arc::new(CodedMachine::<Fp61>::new(n, k, bank_machine(), DecoderKind::default()).unwrap());
    let states: Vec<Vec<Fp61>> = (0..k as u64)
        .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
        .collect();
    let mut engines: Vec<RoundEngine<Fp61>> = (0..n)
        .map(|i| RoundEngine::new(Arc::clone(&machine), i, &states).unwrap())
        .collect();
    let mut last_results = Vec::new();
    for round in 0..rounds {
        let commands: Vec<Vec<Fp61>> = (0..k as u64)
            .map(|m| vec![Fp61::from_u64(round + m + 1)])
            .collect();
        let word: Vec<Option<Vec<Fp61>>> = engines
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        for e in &mut engines {
            let commit = e.commit_word(&word).unwrap();
            last_results = commit.results;
        }
    }
    let digest = digest_results(&last_results);
    (machine, engines, last_results, digest)
}

/// A durable gateway core for node 0 whose store already has history, so
/// `start` opens with the startup state transfer: the effects are the
/// `StateRequest` broadcast and the attempt's deadline timer.
fn rejoining_core(
    name: &str,
    machine: &Arc<CodedMachine<Fp61>>,
    n: usize,
    b: usize,
    seed: u64,
) -> (GatewayCore<Fp61>, Vec<Effect>, std::path::PathBuf) {
    let dir = scratch_dir(name);
    let spec = GatewaySpec {
        machine: Arc::clone(machine),
        initial_states: (0..machine.k() as u64)
            .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
            .collect(),
        behavior: BehaviorKind::Honest,
        staging_fault: StagingFault::None,
    };
    let timing = ExchangeTiming::synchronous(b, Duration::from_millis(50));
    let cfg = GatewayConfig::new(n, b, &timing);
    let durability = DurabilityConfig::new(&dir);
    let build = || {
        GatewayCore::new(
            0,
            cluster_registry(n, seed),
            timing.clone(),
            &spec,
            &cfg,
            Some(&durability),
        )
    };
    drop(build()); // first life: writes the genesis checkpoint
    let mut core = build();
    let effects = core.start(0);
    assert!(
        core.resyncing(),
        "a store with history starts by catching up"
    );
    assert!(matches!(
        effects[..],
        [
            Effect::Broadcast(Frame {
                payload: Payload::StateRequest { from_round: 0 },
                ..
            }),
            Effect::SetTimer { .. }
        ]
    ));
    (core, effects, dir)
}

#[test]
fn byzantine_state_chunks_cannot_poison_a_rejoiner() {
    // A rejoining node (0) collects state chunks for the last committed
    // round from 4 answering peers. Byzantine answers: peer 1 serves
    // corrupted results under the honest digest (fails the digest check),
    // peer 2 serves a self-consistent forgery with its own digest (can
    // never reach b + 1 agreement). The two honest chunks (peers 3, 4)
    // satisfy need = b + 1 = 2 and the installed state matches the honest
    // cluster exactly.
    let n = 6;
    let b = 1;
    let rounds = 3;
    let (machine, engines, results, digest) = advanced_cluster(n, 2, rounds);
    let committed_round = rounds - 1;
    let registry = cluster_registry(n, 99);
    let (mut core, _, dir) = rejoining_core("chunk-poison", &machine, n, b, 99);

    let canonical: Vec<Vec<u64>> = results
        .iter()
        .map(|row| row.iter().map(|x| x.to_canonical_u64()).collect())
        .collect();
    let mut corrupted = canonical.clone();
    corrupted[0][0] ^= 0x7777;
    let chunk = |round: u64, digest: u64, results: Vec<Vec<u64>>| Payload::StateChunk {
        round,
        digest,
        results,
    };
    let sends = [
        (1usize, chunk(committed_round, digest, corrupted)),
        (
            2,
            chunk(committed_round, 0xBAD_F00D, vec![vec![1, 1], vec![2, 2]]),
        ),
        (3, chunk(committed_round, digest, canonical.clone())),
        (4, chunk(committed_round, digest, canonical.clone())),
        // peer 5 withholds
    ];
    for (at, (peer, payload)) in sends.into_iter().enumerate() {
        let frame = Frame::sign(payload, &registry, NodeId(peer));
        let effects = core.step(at as u64 + 1, Event::Frame(frame));
        // acceptance fires the moment b + 1 = 2 peers vouch for one
        // digest *and* a chunk hashing to it is held: the corrupt-bytes
        // peer's vote counts, its bytes do not — peer 3's are installed
        let installed = core.stats().resyncs == 1;
        assert_eq!(installed, peer >= 3, "after peer {peer}'s chunk");
        if peer == 3 {
            assert!(
                matches!(effects[..], [Effect::SetTimer { id, .. }] if id.kind == TimerKind::Next),
                "the rejoiner resumes its rounds: {effects:?}"
            );
        }
    }
    assert!(!core.resyncing());
    assert_eq!(
        core.round(),
        committed_round + 1,
        "rejoined after the transfer"
    );
    // the corrupt-bytes chunk is attributed to its server the moment
    // acceptance fires; the self-consistent forger (peer 2) sits in a
    // different digest group and must never draw a rejection event
    let snap = core.telemetry();
    let rejected = |peer: usize| snap.counter(&format!("state_chunk_rejected.peer{peer}"));
    assert_eq!(rejected(1), 1, "corrupt chunk attributed to its server");
    for peer in [0, 2, 3, 4, 5] {
        assert_eq!(rejected(peer), 0, "peer {peer} served no corrupt chunk");
    }
    let recovery = core.into_report().recovery.expect("durable core");
    assert_eq!(recovery.startup_transfer, Some(committed_round));

    // the verified states were re-encoded at the rejoiner's own
    // evaluation point and checkpointed before it acted on them: the
    // store now holds exactly the coded state the honest engines hold
    let initial: Vec<Vec<Fp61>> = (0..2u64)
        .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
        .collect();
    let (_, recovered) =
        NodeStore::open(&dir, store_fingerprint(&machine, 0, &initial)).expect("store reopens");
    let snapshot = recovered.snapshot.expect("transfer checkpoint");
    assert_eq!(snapshot.round, committed_round + 1);
    assert_eq!(snapshot.coded_state, engines[0].coded_state_canonical());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forged_quorum_below_b_plus_one_never_verifies() {
    // b = 2 colluding peers agreeing on a forged (round, digest) stay
    // below need = 3; the rejoiner keeps waiting instead of installing
    // the forgery — even though the forgery is internally consistent (its
    // results hash to its claimed digest) — and when the attempt's
    // window closes it joins the rounds from its own state.
    let n = 6;
    let registry = cluster_registry(n, 7);
    let (machine, ..) = advanced_cluster(n, 2, 0);
    let (mut core, started, dir) = rejoining_core("chunk-forged", &machine, n, 2, 7);
    let forged_results = vec![vec![Fp61::from_u64(5), Fp61::from_u64(5)]; 2];
    let forged = Payload::StateChunk {
        round: 9,
        digest: digest_results(&forged_results),
        results: vec![vec![5, 5]; 2],
    };
    for peer in [1usize, 2] {
        let frame = Frame::sign(forged.clone(), &registry, NodeId(peer));
        assert!(core.step(peer as u64, Event::Frame(frame)).is_empty());
    }
    assert!(core.resyncing() && core.stats().resyncs == 0);
    let Some(Effect::SetTimer { at_us, id }) = started.last().cloned() else {
        panic!("the attempt has a deadline");
    };
    let effects = core.step(at_us, Event::Timer(id));
    assert!(
        matches!(effects[..], [Effect::SetTimer { id, .. }] if id.kind == TimerKind::Next),
        "no quorum to transfer from: join the rounds ({effects:?})"
    );
    assert_eq!((core.resyncing(), core.round()), (false, 0));
    let _ = std::fs::remove_dir_all(&dir);
}
