//! End-to-end tests of the telemetry layer (`docs/OBSERVABILITY.md`):
//! the flight recorder must leave a parseable post-mortem naming the
//! Byzantine peer after a real incident, scrapes taken mid-view-change
//! and mid-resync must be well formed, and live and simulated gateways
//! must emit the same event alphabet. (Trace determinism is the chaos
//! harness's replay contract: `tests/chaos_scenarios.rs`.)

use csm_algebra::Fp61;
use csm_chaos::{
    run_schedule, run_schedule_with_telemetry, scenarios, ChaosConfig, ChaosEvent, Schedule,
};
use csm_client::{ClientConfig, CsmClient};
use csm_node::workload::{run_mem_workload, verify_bank_outcome, WorkloadConfig};
use csm_node::{
    mesh_registry, run_gateway, BehaviorKind, CodedMachine, ConsensusKind, ExchangeTiming,
    GatewayConfig, GatewaySpec, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_telemetry::{Event, FlightDump, Phase, ReplaySink, SharedSink, TelemetrySnapshot};
use csm_transport::mem::MemMesh;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

type EventLog = Vec<(usize, u64, Option<usize>, Event)>;

#[test]
fn gateway_incident_leaves_a_flight_dump_naming_the_equivocator() {
    let flight_dir =
        std::env::temp_dir().join(format!("csm-telemetry-test-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&flight_dir);
    let cfg = WorkloadConfig {
        cluster: 6,
        shards: 2,
        assumed_faults: 1,
        clients: 2,
        commands_per_client: 2,
        delta: Duration::from_millis(40),
        partial_sync: false,
        batch_cap: 1,
        seed: 13,
        consensus: csm_node::ConsensusKind::LeaderEcho,
        scrape: false,
        flight_dir: Some(flight_dir.clone()),
    };
    let outcome = run_mem_workload(&cfg, |id| {
        if id == 0 {
            BehaviorKind::Equivocate
        } else {
            BehaviorKind::Honest
        }
    });
    verify_bank_outcome(&cfg, &outcome, &[0]).expect("outcome verifies");

    let mut named_equivocator = 0usize;
    for entry in std::fs::read_dir(&flight_dir).expect("flight dir written") {
        let path = entry.expect("dir entry").path();
        let dump = FlightDump::from_json(&std::fs::read_to_string(&path).expect("readable dump"))
            .expect("dump parses");
        assert!(!dump.reason.is_empty());
        if dump.reason == "byzantine-detected" && dump.implicated_peers().contains(&0) {
            named_equivocator += 1;
        }
    }
    assert!(
        named_equivocator > 0,
        "no byzantine-detected dump names node 0"
    );
    std::fs::remove_dir_all(&flight_dir).expect("cleanup");
}

/// A snapshot scraped at *any* moment — steady state or mid-churn — must
/// be internally coherent: every phase name parses, no phase appears
/// twice (a torn partition would show as a duplicate or unknown entry),
/// quantiles are ordered, and the top-level phase partition accounts for
/// the rounds exactly (each top-level phase fires once per round and
/// closes before the round span, so its count can lead the round count
/// by at most the one in-flight round) with a p50 sum bounded by the
/// slowest whole round. A tight drift bound is checked on the sum of the
/// phases' means, which add up to the mean round whenever every phase
/// covers the same rounds; medians do not add, since the phases of fast
/// rounds vary with thread scheduling. It is checked here only on calm,
/// consistently-cut windows; returns whether this snapshot was one.
fn assert_snapshot_well_formed(origin: usize, snap: &TelemetrySnapshot) -> bool {
    assert_eq!(
        snap.node, origin as u64,
        "snapshot must name its own reporter"
    );
    let mut seen = std::collections::BTreeSet::new();
    for p in &snap.phases {
        assert!(
            Phase::from_str_opt(&p.phase).is_some(),
            "node {origin}: unknown phase {:?} in scraped snapshot",
            p.phase
        );
        assert!(
            seen.insert(p.phase.clone()),
            "node {origin}: phase {:?} reported twice (torn partition)",
            p.phase
        );
        assert!(p.count > 0, "node {origin}: empty phase {:?}", p.phase);
        assert!(
            p.p50_us <= p.p99_us && p.p99_us <= p.max_us,
            "node {origin}: unordered quantiles in {:?} ({} / {} / {})",
            p.phase,
            p.p50_us,
            p.p99_us,
            p.max_us
        );
    }
    for v in &snap.values {
        assert!(
            v.p50 <= v.p99 && v.p99 <= v.max,
            "node {origin}: unordered quantiles in value {:?}",
            v.name
        );
    }
    let Some(round) = snap.phase("round") else {
        return false;
    };
    let top_level: Vec<_> = snap
        .phases
        .iter()
        .filter(|p| Phase::from_str_opt(&p.phase).is_some_and(|ph| ph.is_top_level()))
        .collect();
    for p in &top_level {
        assert!(
            p.count <= round.count + 1,
            "node {origin}: phase {:?} has {} samples vs {} rounds (torn partition)",
            p.phase,
            p.count,
            round.count
        );
    }
    // the phases partition each round, so their medians can never sum
    // past the slowest whole round (2x: per-phase bucket granularity)
    let sum_us = snap.top_level_p50_sum().as_micros() as u64;
    assert!(
        sum_us <= round.max_us.saturating_mul(2),
        "node {origin}: top-level p50 sum {sum_us}us exceeds 2x the slowest round ({}us)",
        round.max_us
    );
    // tight drift bound only on calm, consistently-cut windows: "calm"
    // means the slowest round is within 25% of the median one
    let calm = round.max_us <= round.p50_us.saturating_mul(5) / 4;
    let consistent = top_level.iter().all(|p| p.count == round.count);
    if calm && consistent {
        let mean_sum: u64 = top_level.iter().map(|p| p.mean_us).sum();
        let round_us = round.mean_us as f64;
        let drift = (mean_sum as f64 - round_us).abs() / round_us.max(1e-9);
        assert!(
            drift <= 0.30,
            "node {origin}: top-level mean sum {mean_sum}us vs round mean {round_us}us \
             ({:.1}% drift on a calm consistent cut)",
            drift * 100.0
        );
    }
    calm && consistent
}

#[test]
fn scrape_mid_view_change_is_well_formed() {
    // a PBFT cluster whose node 0 withholds the batch whenever it leads
    // (round 0 to begin with), forcing a view timeout and a view change —
    // while a dedicated scraper polls telemetry *concurrently* with the
    // workload, so scrapes land inside view-change rounds, not after them
    let (cluster, shards, b, clients, commands) = (6usize, 2usize, 1usize, 3usize, 3usize);
    let delta = Duration::from_millis(40);
    let registry = mesh_registry(cluster, clients + 1, 31);
    let mut transports = MemMesh::build(Arc::clone(&registry));
    let machine = Arc::new(
        CodedMachine::<Fp61>::new(
            cluster,
            shards,
            bank_machine(),
            csm_core::DecoderKind::default(),
        )
        .expect("cluster shape"),
    );
    let timing = ExchangeTiming::synchronous(b, delta);
    let gw_cfg = GatewayConfig::new(cluster, b, &timing).with_consensus(ConsensusKind::Pbft);
    let stop = Arc::new(AtomicBool::new(false));

    let mut client_transports = transports.split_off(cluster);
    let scraper_transport = client_transports.pop().expect("scraper endpoint");
    let mut node_handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let timing = timing.clone();
        let gw_cfg = gw_cfg.clone();
        let stop = Arc::clone(&stop);
        let spec = GatewaySpec {
            machine: Arc::clone(&machine),
            initial_states: (0..shards)
                .map(|s| vec![csm_algebra::Field::from_u64(100 * (s as u64 + 1))])
                .collect(),
            behavior: BehaviorKind::Honest,
            staging_fault: if id == 0 {
                StagingFault::WithholdBatch
            } else {
                StagingFault::None
            },
        };
        node_handles.push(thread::spawn(move || {
            run_gateway(transport, registry, timing, &spec, &gw_cfg, &stop)
        }));
    }

    let client_cfg = ClientConfig {
        cluster,
        assumed_faults: b,
        reply_timeout: delta * 8 + Duration::from_millis(500),
        max_attempts: 20,
    };
    let clients_done = Arc::new(AtomicBool::new(false));
    let scraper = {
        let registry = Arc::clone(&registry);
        let client_cfg = client_cfg.clone();
        let clients_done = Arc::clone(&clients_done);
        thread::spawn(move || {
            let mut scraper = CsmClient::new(scraper_transport, registry, client_cfg);
            let mut batches: Vec<Vec<(usize, TelemetrySnapshot)>> = Vec::new();
            while !clients_done.load(Ordering::Relaxed) {
                batches.push(scraper.scrape(delta * 8 + Duration::from_millis(500)));
            }
            batches
        })
    };
    let mut client_handles = Vec::new();
    for (index, transport) in client_transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let client_cfg = client_cfg.clone();
        client_handles.push(thread::spawn(move || {
            let mut client = CsmClient::new(transport, registry, client_cfg);
            let mut ok = 0usize;
            for i in 0..commands {
                if client
                    .submit((index % shards) as u64, vec![1 + (index + i) as u64])
                    .is_ok()
                {
                    ok += 1;
                }
            }
            ok
        }));
    }
    let committed: usize = client_handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .sum();
    clients_done.store(true, Ordering::Relaxed);
    let batches = scraper.join().expect("scraper thread");
    stop.store(true, Ordering::Relaxed);
    for h in node_handles {
        h.join().expect("gateway thread");
    }

    assert_eq!(committed, clients * commands, "workload must commit");
    let mut snapshots = 0usize;
    let mut saw_view_change = false;
    for batch in &batches {
        for (node, snap) in batch {
            assert_snapshot_well_formed(*node, snap);
            snapshots += 1;
            if snap.phase("consensus.view-change").is_some() {
                saw_view_change = true;
            }
        }
    }
    assert!(snapshots > 0, "the concurrent scraper never heard a node");
    assert!(
        saw_view_change,
        "no scrape observed the view-change churn it was aimed at"
    );
}

#[test]
fn scrape_mid_resync_is_well_formed() {
    // the kill-and-rejoin scenario scraped twice: with the horizon just
    // after node 5's restart — it has asked for state chunks, and none
    // can land before a 500-tick hop each way — and at the end of the
    // schedule, in steady state; both scrapes must be coherent
    let s = scenarios::kill_rejoin();
    let victim = 5;
    let restart = s
        .schedule
        .events
        .iter()
        .find_map(|(tick, e)| (*e == ChaosEvent::Restart { node: victim }).then_some(*tick))
        .expect("the scenario restarts node 5");
    let (run, telemetry) = run_schedule_with_telemetry(&s.config, &s.schedule);
    assert!(run.clean(), "{:?}", run.violations);
    let cut = Schedule {
        horizon: restart + 500,
        ..s.schedule.clone()
    };
    let (mid, mid_resync_telemetry) = run_schedule_with_telemetry(&s.config, &cut);
    assert!(mid.clean(), "{:?}", mid.violations);
    assert!(
        mid.nodes[victim].alive && mid.nodes[victim].resyncs < run.nodes[victim].resyncs,
        "the cut lands inside node {victim}'s state transfer"
    );
    assert!(
        !mid_resync_telemetry.is_empty(),
        "nobody answered the mid-resync scrape"
    );
    for (node, snap) in &mid_resync_telemetry {
        assert_snapshot_well_formed(*node, snap);
    }
    for (node, snap) in &telemetry {
        assert_snapshot_well_formed(*node, snap);
    }
    // at most one snapshot per node per scrape (duplicates would mean a
    // torn multi-reply merge)
    let mut ids: Vec<usize> = mid_resync_telemetry.iter().map(|(id, _)| *id).collect();
    ids.dedup();
    assert_eq!(ids.len(), mid_resync_telemetry.len());
}

/// The per-committed-round event alphabet: for every `(node, round)` the
/// node committed, the sorted names of the telemetry events it emitted in
/// that round — collected into the set of distinct shapes.
fn committed_round_alphabet(
    events: &EventLog,
    committed: impl Iterator<Item = (usize, u64)>,
) -> std::collections::BTreeSet<Vec<&'static str>> {
    committed
        .map(|(node, round)| {
            let mut names: Vec<&'static str> = events
                .iter()
                .filter(|(n, r, _, _)| (*n, *r) == (node, round))
                .map(|(_, _, _, e)| e.name())
                .collect();
            names.sort_unstable();
            names
        })
        .collect()
}

#[test]
fn live_and_simulated_gateways_emit_the_same_event_alphabet() {
    // the same honest 4-node workload (two clients, two commands each,
    // one at a time) through both drivers of the one gateway core: real
    // threads over a MemMesh, and the chaos harness on its virtual
    // clock. Every committed round must look the same to a ReplaySink in
    // both — nothing at all on a round that carried commands, exactly
    // one `empty_round` on an idle one.
    let (cluster, shards, b, clients, commands) = (4usize, 2usize, 1usize, 2usize, 2usize);

    // -- live ------------------------------------------------------------
    let delta = Duration::from_millis(40);
    let registry = mesh_registry(cluster, clients, 17);
    let mut transports = MemMesh::build(Arc::clone(&registry));
    let client_transports = transports.split_off(cluster);
    let machine = Arc::new(
        CodedMachine::<Fp61>::with_program_cap(
            cluster,
            shards,
            bank_machine(),
            csm_core::DecoderKind::default(),
            2,
        )
        .expect("cluster shape"),
    );
    let timing = ExchangeTiming::synchronous(b, delta);
    let replay = Arc::new(ReplaySink::new());
    let gw_cfg = GatewayConfig::new(cluster, b, &timing)
        .with_batch_cap(2)
        .with_sink(Arc::clone(&replay) as SharedSink);
    let stop = Arc::new(AtomicBool::new(false));
    let spec = GatewaySpec {
        machine,
        initial_states: (0..shards)
            .map(|s| vec![csm_algebra::Field::from_u64(100 * (s as u64 + 1))])
            .collect(),
        behavior: BehaviorKind::Honest,
        staging_fault: StagingFault::None,
    };
    let nodes: Vec<_> = transports
        .into_iter()
        .map(|transport| {
            let (registry, timing, gw_cfg) =
                (Arc::clone(&registry), timing.clone(), gw_cfg.clone());
            let (spec, stop) = (spec.clone(), Arc::clone(&stop));
            thread::spawn(move || run_gateway(transport, registry, timing, &spec, &gw_cfg, &stop))
        })
        .collect();
    let client_cfg = ClientConfig::new(cluster, b, delta * 8 + Duration::from_millis(500));
    let submitters: Vec<_> = client_transports
        .into_iter()
        .enumerate()
        .map(|(index, transport)| {
            let (registry, client_cfg) = (Arc::clone(&registry), client_cfg.clone());
            thread::spawn(move || {
                let mut client = CsmClient::new(transport, registry, client_cfg);
                for i in 0..commands {
                    let receipt = client.submit((index % shards) as u64, vec![1 + i as u64]);
                    assert_eq!(receipt.expect("committed").attempts, 1, "no retries");
                }
            })
        })
        .collect();
    for h in submitters {
        h.join().expect("client thread");
    }
    stop.store(true, Ordering::Relaxed);
    let reports: Vec<_> = nodes
        .into_iter()
        .map(|h| h.join().expect("gateway thread"))
        .collect();
    // only rounds every node ran: while the cluster is being stopped
    // nodes leave one by one, and the stragglers' last round times out
    let common = reports.iter().map(|r| r.rounds).min().unwrap_or(0);
    let live_committed = reports.iter().flat_map(|r| {
        let rounds = r.first_recorded_round..common;
        rounds
            .zip(&r.commits)
            .filter(|(_, c)| c.is_some())
            .map(|(round, _)| (r.id, round))
    });
    let live = committed_round_alphabet(&replay.event_log(), live_committed);

    // -- simulated -------------------------------------------------------
    let mut config = ChaosConfig::new(cluster, shards, b);
    config.clients = clients;
    let burst = ChaosEvent::Burst {
        first_client: 0,
        clients,
        commands: 1,
        probe: true,
    };
    let schedule = Schedule::quiet(17, 60_000)
        .at(1_000, burst.clone())
        .at(20_000, burst);
    let run = run_schedule(&config, &schedule);
    assert!(run.clean() && run.acked.len() == clients * commands);
    let sim_committed = run
        .nodes
        .iter()
        .flat_map(|n| n.digest_history.keys().map(move |&round| (n.node, round)));
    let sim = committed_round_alphabet(&run.events, sim_committed);

    let expected: std::collections::BTreeSet<Vec<&str>> =
        [vec![], vec!["empty_round"]].into_iter().collect();
    assert_eq!(live, expected, "live gateway rounds");
    assert_eq!(sim, expected, "simulated gateway rounds");
}
