//! End-to-end tests of the client path: external `csm-client` endpoints
//! submitting over a real transport to a gateway cluster
//! (`csm_node::run_gateway`), with outputs accepted only at `b + 1`
//! matching replies (§3).
//!
//! Covers the honest path, the Byzantine path (equivocator + withholder
//! corrupting both results and replies), submission idempotence under
//! aggressive client retries, and admission backpressure under a flood.

use csm_auditor::{AuditConfig, ClusterAudit};
use csm_bench::workload::{
    one_equivocator_one_withholder, run_mem_workload, verify_bank_outcome, WorkloadConfig,
};
use csm_node::{mesh_registry, BehaviorKind, GatewayStats};
use csm_transport::mem::MemMesh;
use csm_transport::{Frame, Payload, RecvError, Transport};
use std::time::Duration;

fn config(cluster: usize, shards: usize, b: usize, clients: usize, cmds: usize) -> WorkloadConfig {
    WorkloadConfig {
        cluster,
        shards,
        assumed_faults: b,
        clients,
        commands_per_client: cmds,
        delta: Duration::from_millis(40),
        queue_cap: 4096,
        batch_cap: 1,
        seed: 23,
        consensus: csm_node::ConsensusKind::LeaderEcho,
        scrape: false,
        flight_dir: None,
    }
}

fn total_stats(outcome: &csm_bench::workload::WorkloadOutcome) -> GatewayStats {
    let mut total = GatewayStats::default();
    for n in &outcome.nodes {
        total.admitted += n.stats.admitted;
        total.rejected_full += n.stats.rejected_full;
        total.rejected_invalid += n.stats.rejected_invalid;
        total.duplicates += n.stats.duplicates;
        total.replayed += n.stats.replayed;
        total.replies_sent += n.stats.replies_sent;
    }
    total
}

#[test]
fn honest_cluster_serves_clients_end_to_end() {
    let cfg = config(6, 2, 1, 4, 2);
    let outcome = run_mem_workload(&cfg, |_| BehaviorKind::Honest);
    verify_bank_outcome(&cfg, &outcome, &[]).expect("honest outcome verifies");
    assert_eq!(outcome.committed(), 8);
    // every commit produced a reply from every node
    let stats = total_stats(&outcome);
    assert_eq!(stats.replies_sent, 8 * 6);
}

#[test]
fn byzantine_cluster_commits_all_and_no_wrong_output_is_accepted() {
    // N = 8, K = 4, b = 2: the Theorem-1 synchronous edge
    // (2b + 1 = N − d(K−1)), with node 0 equivocating on results *and*
    // replies and node 1 withholding both. verify_bank_outcome proves
    // every accepted output sits on the reference balance chain — the
    // equivocator's corrupted replies never reach b + 1 matches.
    let byzantine = [0, 1];
    let cfg = WorkloadConfig {
        scrape: true,
        ..config(8, 4, 2, 10, 2)
    };
    let outcome = run_mem_workload(&cfg, one_equivocator_one_withholder);
    verify_bank_outcome(&cfg, &outcome, &byzantine).expect("byzantine outcome verifies");
    assert_eq!(outcome.committed(), 20);
    // the withholder sent no replies: 7 nodes replied per commit at most
    let stats = total_stats(&outcome);
    assert!(stats.replies_sent <= 20 * 7);

    // the scrape convicts exactly the cast, each member by > b honest
    // reporters, and accuses no honest node
    let audit = ClusterAudit::build(
        AuditConfig {
            cluster: cfg.cluster,
            assumed_faults: cfg.assumed_faults,
        },
        &outcome.telemetry,
    );
    assert_eq!(audit.convicted_peers(), byzantine);
    for peer in byzantine {
        let reporters = audit.scorecard.score(peer).expect("convicted").reporters();
        let honest = reporters.iter().filter(|r| !byzantine.contains(r)).count();
        assert!(honest > cfg.assumed_faults, "peer {peer}: {reporters:?}");
    }
    for peer in audit.scorecard.accused() {
        assert!(byzantine.contains(&peer), "honest node {peer} accused");
    }
    // the withholder makes every honest node wait out the exchange Δ
    let slack = audit.timeline.slack_p50_us("exchange");
    assert!(slack.is_some_and(|us| us > 0), "exchange slack {slack:?}");
    // an honest probe attributes both kinds of evidence to the cast
    let (_, probe) = outcome
        .telemetry
        .iter()
        .find(|(node, _)| *node == 2)
        .expect("honest node 2 answered the scrape");
    for counter in ["equivocation_detected", "mac_rejected"] {
        let attributed: u64 = probe
            .counter_by_peer(counter)
            .into_iter()
            .filter(|(peer, _)| byzantine.contains(peer))
            .map(|(_, n)| n)
            .sum();
        assert!(
            attributed >= 1,
            "node 2 attributes no {counter} to the cast"
        );
    }
}

#[test]
fn aggressive_retries_stay_idempotent() {
    // re-send one client's command verbatim, before and after it commits:
    // (client, seq) dedup keeps execution exactly-once and retries of the
    // committed command are answered from the reply cache
    let cfg2 = config(6, 2, 1, 1, 1);
    let registry = mesh_registry(cfg2.cluster, 1, cfg2.seed);
    let mut mesh = MemMesh::build(std::sync::Arc::clone(&registry));
    let client_tx = mesh.split_off(cfg2.cluster).remove(0);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for transport in mesh {
        let registry = std::sync::Arc::clone(&registry);
        let stop = std::sync::Arc::clone(&stop);
        let machine = std::sync::Arc::new(
            csm_node::CodedMachine::<coded_state_machine::algebra::Fp61>::new(
                cfg2.cluster,
                cfg2.shards,
                coded_state_machine::statemachine::machines::bank_machine(),
                coded_state_machine::csm::DecoderKind::default(),
            )
            .unwrap(),
        );
        let spec = csm_node::GatewaySpec {
            machine,
            initial_states: (0..cfg2.shards)
                .map(|s| {
                    vec![coded_state_machine::algebra::Field::from_u64(
                        WorkloadConfig::initial_balance(s),
                    )]
                })
                .collect(),
            behavior: BehaviorKind::Honest,
            staging_fault: csm_node::StagingFault::None,
        };
        let timing = csm_node::ExchangeTiming::synchronous(cfg2.assumed_faults, cfg2.delta)
            .with_full_finalize();
        let gw = csm_node::GatewayConfig::new(cfg2.cluster, cfg2.assumed_faults, &timing);
        handles.push(std::thread::spawn(move || {
            csm_node::run_gateway(transport, registry, timing, &spec, &gw, &stop)
        }));
    }
    let me = client_tx.local_id();
    let submit = Frame::sign(
        Payload::Submit {
            shard: 0,
            client: me.0 as u64,
            seq: 0,
            command: vec![50],
        },
        &registry,
        me,
    );
    // send the same command 5 times before and after the commit
    for _ in 0..3 {
        client_tx.broadcast_upto(cfg2.cluster, &submit).unwrap();
    }
    let first = wait_reply(&client_tx, cfg2.cluster, cfg2.assumed_faults + 1);
    for _ in 0..2 {
        client_tx.broadcast_upto(cfg2.cluster, &submit).unwrap();
    }
    let second = wait_reply(&client_tx, cfg2.cluster, cfg2.assumed_faults + 1);
    // both quorums report the same single execution: balance 100 + 50
    assert_eq!(first, vec![150, 150]);
    assert_eq!(second, vec![150, 150]);
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    // at least one duplicate or cache replay was observed somewhere
    let dups: u64 = reports
        .iter()
        .map(|r| r.stats.duplicates + r.stats.replayed)
        .sum();
    assert!(dups > 0, "duplicates must hit the dedup/replay path");
}

/// Collects replies until `need` distinct nodes agree on an output.
fn wait_reply<T: Transport>(client: &T, cluster: usize, need: usize) -> Vec<u64> {
    let mut by_node: Vec<Option<Vec<u64>>> = vec![None; cluster];
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    loop {
        if let coded_state_machine::csm::client::DeliveryStatus::Accepted { value, .. } =
            coded_state_machine::csm::client::accept_replies(&by_node, need)
        {
            return value;
        }
        let now = std::time::Instant::now();
        assert!(now < deadline, "no reply quorum within 10s");
        match client.recv_timeout(deadline - now) {
            Ok(Frame {
                payload: Payload::Reply { output, .. },
                sig,
            }) if sig.signer.0 < cluster => {
                if by_node[sig.signer.0].is_none() {
                    by_node[sig.signer.0] = Some(output);
                }
            }
            Ok(_) => {}
            Err(RecvError::Timeout) | Err(RecvError::Disconnected) => {
                panic!("transport died before quorum")
            }
        }
    }
}

#[test]
fn read_only_queries_observe_only_committed_state() {
    // a client deposits, then reads: the b + 1-matching query must return
    // the committed balance at a committed round — with node 0 corrupting
    // its query replies, the quorum still only ever accepts the honest
    // value. Reads consume no rounds and need no sequence numbers.
    let cluster = 6;
    let b = 1;
    let shards = 2;
    let registry = mesh_registry(cluster, 1, 31);
    let mut mesh = MemMesh::build(std::sync::Arc::clone(&registry));
    let client_tx = mesh.split_off(cluster).remove(0);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for (id, transport) in mesh.into_iter().enumerate() {
        let registry = std::sync::Arc::clone(&registry);
        let stop = std::sync::Arc::clone(&stop);
        let machine = std::sync::Arc::new(
            csm_node::CodedMachine::<coded_state_machine::algebra::Fp61>::new(
                cluster,
                shards,
                coded_state_machine::statemachine::machines::bank_machine(),
                coded_state_machine::csm::DecoderKind::default(),
            )
            .unwrap(),
        );
        let spec = csm_node::GatewaySpec {
            machine,
            initial_states: (0..shards)
                .map(|s| {
                    vec![coded_state_machine::algebra::Field::from_u64(
                        WorkloadConfig::initial_balance(s),
                    )]
                })
                .collect(),
            behavior: if id == 0 {
                BehaviorKind::Equivocate
            } else {
                BehaviorKind::Honest
            },
            staging_fault: csm_node::StagingFault::None,
        };
        let timing = csm_node::ExchangeTiming::synchronous(b, Duration::from_millis(40))
            .with_full_finalize();
        let gw = csm_node::GatewayConfig::new(cluster, b, &timing);
        handles.push(std::thread::spawn(move || {
            csm_node::run_gateway(transport, registry, timing, &spec, &gw, &stop)
        }));
    }
    let client_cfg = csm_client::ClientConfig::new(cluster, b, Duration::from_millis(800));
    let mut client =
        csm_client::CsmClient::new(client_tx, std::sync::Arc::clone(&registry), client_cfg);

    // deposit 40 into shard 1, then read both shards. A first-to-threshold
    // quorum of lagging-but-honest nodes may legitimately answer with the
    // pre-deposit round, so read-your-write is obtained the documented
    // way: re-query until the read round reaches the write's round.
    let receipt = client.submit(1, vec![40]).expect("deposit commits");
    assert_eq!(receipt.output, vec![240, 240]);
    let read1 = loop {
        let read = client.query(1).expect("read quorum");
        assert!(read.matching > b);
        if read.round >= receipt.round {
            break read;
        }
        // a stale read is still a committed state, never a fabricated one
        assert_eq!(read.value, vec![200], "stale read off the commit chain");
    };
    assert_eq!(
        read1.value,
        vec![240],
        "read observes the committed deposit"
    );
    let read0 = client.query(0).expect("read quorum");
    assert_eq!(read0.value, vec![100], "untouched shard reads its genesis");
    assert!(read0.matching > b);

    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let answered: u64 = reports.iter().map(|r| r.stats.queries_answered).sum();
    assert!(answered >= 2, "nodes answered the queries");
}

#[test]
fn flood_is_rejected_without_losing_the_admitted_commands() {
    // one client floods 40 submissions at a gateway capped at 4 pending;
    // the overflow is dropped (backpressure), the admitted ones commit,
    // and nothing panics or wedges
    let cluster = 6;
    let b = 1;
    let registry = mesh_registry(cluster, 1, 7);
    let mut mesh = MemMesh::build(std::sync::Arc::clone(&registry));
    let client_tx = mesh.split_off(cluster).remove(0);
    let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let mut handles = Vec::new();
    for transport in mesh {
        let registry = std::sync::Arc::clone(&registry);
        let stop = std::sync::Arc::clone(&stop);
        let machine = std::sync::Arc::new(
            csm_node::CodedMachine::<coded_state_machine::algebra::Fp61>::new(
                cluster,
                1,
                coded_state_machine::statemachine::machines::bank_machine(),
                coded_state_machine::csm::DecoderKind::default(),
            )
            .unwrap(),
        );
        let spec = csm_node::GatewaySpec {
            machine,
            initial_states: vec![vec![coded_state_machine::algebra::Field::from_u64(100)]],
            behavior: BehaviorKind::Honest,
            staging_fault: csm_node::StagingFault::None,
        };
        let timing = csm_node::ExchangeTiming::synchronous(b, Duration::from_millis(30))
            .with_full_finalize();
        let mut gw = csm_node::GatewayConfig::new(cluster, b, &timing);
        gw.queue_cap = 4;
        handles.push(std::thread::spawn(move || {
            csm_node::run_gateway(transport, registry, timing, &spec, &gw, &stop)
        }));
    }
    let me = client_tx.local_id();
    for seq in 0..40u64 {
        let frame = Frame::sign(
            Payload::Submit {
                shard: 0,
                client: me.0 as u64,
                seq,
                command: vec![1],
            },
            &registry,
            me,
        );
        client_tx.broadcast_upto(cluster, &frame).unwrap();
    }
    // let a few rounds commit, then scrape telemetry off the live
    // cluster: the flood's drops must be visible as counters, not just in
    // the post-mortem GatewayStats
    std::thread::sleep(Duration::from_millis(600));
    let scrape = Frame::sign(Payload::TelemetryRequest { nonce: 7 }, &registry, me);
    client_tx.broadcast_upto(cluster, &scrape).unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    let snap = loop {
        let now = std::time::Instant::now();
        assert!(now < deadline, "no telemetry reply within 10s");
        match client_tx.recv_timeout(deadline - now) {
            Ok(Frame {
                payload:
                    Payload::TelemetryReply {
                        nonce: 7, snapshot, ..
                    },
                sig,
            }) if sig.signer.0 < cluster => {
                break csm_telemetry::TelemetrySnapshot::from_json(&snapshot)
                    .expect("scraped snapshot parses");
            }
            Ok(_) => {}
            Err(RecvError::Timeout) | Err(RecvError::Disconnected) => {
                panic!("transport died before the telemetry reply")
            }
        }
    };
    assert!(
        snap.counter("rejected_full") > 0,
        "snapshot must count the flood's queue-cap drops"
    );
    assert!(
        snap.counter("admission_drop") > 0,
        "the admission-drop event counter must fire on the drops"
    );
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reports: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    let rejected: u64 = reports.iter().map(|r| r.stats.rejected_full).sum();
    let admitted: u64 = reports.iter().map(|r| r.stats.admitted).sum();
    assert!(rejected > 0, "the flood must hit the queue cap");
    assert!(admitted > 0, "admitted commands still flow");
    // honest digests agree on the rounds everyone ran
    let min_rounds = reports.iter().map(|r| r.commits.len()).min().unwrap();
    for round in 0..min_rounds {
        let digests: Vec<_> = reports
            .iter()
            .filter_map(|r| r.commits[round].as_ref().map(|c| c.digest))
            .collect();
        assert!(digests.windows(2).all(|w| w[0] == w[1]), "round {round}");
    }
}
