//! Shared kill-and-rejoin harness: spawns a *durable* gateway cluster
//! (`csm_node::run_durable_gateway`) under a live client workload,
//! hard-kills one honest node mid-run, restarts it against the same
//! storage directory, and watches it replay `snapshot + WAL`, catch up
//! via `b + 1`-verified state transfer, and commit further rounds — with
//! zero lost committed commands.
//!
//! Used by the `kill_rejoin` example and the recovery and telemetry
//! integration tests.

use crate::workload::{digests_agree, ClientOutcome, WorkloadConfig};
use csm_algebra::{Field, Fp61};
use csm_client::{ClientConfig, CsmClient};
use csm_core::metrics::LatencyHistogram;
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_node::{
    mesh_registry, run_durable_gateway, BehaviorKind, CodedMachine, DurabilityConfig,
    ExchangeTiming, GatewayConfig, GatewayReport, GatewaySpec,
};
use csm_statemachine::machines::bank_machine;
use csm_telemetry::TelemetrySnapshot;
use csm_transport::mem::MemMesh;
use csm_transport::tcp::{TcpMesh, TcpTransport};
use csm_transport::Transport;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Shape of one kill-and-rejoin run (bank workload, like the client
/// workload harness — amounts/shards/balances reuse [`WorkloadConfig`]'s
/// derivations so verification is shared).
#[derive(Debug, Clone)]
pub struct RejoinConfig {
    /// Cluster size `N`.
    pub cluster: usize,
    /// Number of bank shards `K`.
    pub shards: usize,
    /// Provisioned fault bound `b`.
    pub assumed_faults: usize,
    /// Concurrent closed-loop clients (each also rides through the kill).
    pub clients: usize,
    /// Deposits each client submits.
    pub commands_per_client: usize,
    /// The exchange Δ.
    pub delta: Duration,
    /// Commits between the victim's coded-state snapshots.
    pub snapshot_interval: u64,
    /// The honest node that gets hard-killed and restarted.
    pub victim: usize,
    /// Accepted client commands before the kill fires.
    pub kill_after: u64,
    /// Cluster rounds that must commit after the restart before the run
    /// winds down (the acceptance bar is ≥ 3).
    pub post_rounds: u64,
    /// Key/registry seed.
    pub seed: u64,
}

impl RejoinConfig {
    /// A small, CI-friendly default: `N = 8`, `K = 2`, `b = 2`, node 0
    /// equivocating, killing honest node 5 after 4 accepted commands.
    pub fn small(seed: u64) -> Self {
        RejoinConfig {
            cluster: 8,
            shards: 2,
            assumed_faults: 2,
            clients: 4,
            commands_per_client: 4,
            delta: Duration::from_millis(40),
            snapshot_interval: 4,
            victim: 5,
            kill_after: 4,
            post_rounds: 3,
            seed,
        }
    }

    fn workload_view(&self) -> WorkloadConfig {
        WorkloadConfig {
            cluster: self.cluster,
            shards: self.shards,
            assumed_faults: self.assumed_faults,
            clients: self.clients,
            commands_per_client: self.commands_per_client,
            delta: self.delta,
            queue_cap: 4096,
            batch_cap: 1,
            seed: self.seed,
            consensus: csm_node::ConsensusKind::LeaderEcho,
            scrape: false,
            flight_dir: None,
        }
    }
}

/// The run's outcome: every client's receipts plus all three lives of the
/// cluster (the victim's pre-kill life, its post-restart life, and the
/// survivors).
#[derive(Debug)]
pub struct RejoinOutcome {
    /// Per-client results, by client index.
    pub clients: Vec<ClientOutcome>,
    /// The victim's report from its first life (up to the kill).
    pub pre_report: GatewayReport<Fp61>,
    /// The victim's report after the restart — `recovery` carries the
    /// replay/transfer/latency details.
    pub post_report: GatewayReport<Fp61>,
    /// The surviving nodes' reports, by node id (victim excluded).
    pub others: Vec<GatewayReport<Fp61>>,
    /// Cluster round observed (via read query) right after the restart.
    pub restart_round: u64,
    /// Cluster round observed when the run wound down.
    pub final_round: u64,
    /// Telemetry snapshots the prober scraped from the live cluster
    /// (revived victim included) just before the wind-down, for
    /// client-side auditing.
    pub telemetry: Vec<(usize, TelemetrySnapshot)>,
    /// Telemetry scraped immediately after the victim's restart, while
    /// it is (typically) still replaying its WAL and pulling state
    /// chunks — churn coverage: these snapshots must be as well-formed
    /// as steady-state ones.
    pub mid_resync_telemetry: Vec<(usize, TelemetrySnapshot)>,
    /// Wall clock of the whole run.
    pub elapsed: Duration,
}

impl RejoinOutcome {
    /// Rounds the victim committed in its second life.
    pub fn victim_commits_after_restart(&self) -> usize {
        self.post_report.commits.iter().flatten().count()
    }
}

/// The standard cast for recovery runs: node 0 equivocates (results,
/// replies, *and* served state chunks), everyone else honest — the victim
/// must be honest for the run to mean anything.
pub fn one_equivocator(id: usize) -> BehaviorKind {
    if id == 0 {
        BehaviorKind::Equivocate
    } else {
        BehaviorKind::Honest
    }
}

fn bank_spec_for(cfg: &RejoinConfig, behavior: BehaviorKind) -> GatewaySpec<Fp61> {
    let machine = Arc::new(
        CodedMachine::<Fp61>::new(
            cfg.cluster,
            cfg.shards,
            bank_machine(),
            DecoderKind::default(),
        )
        .expect("rejoin shape within Theorem-1 bounds"),
    );
    GatewaySpec {
        machine,
        initial_states: (0..cfg.shards)
            .map(|s| vec![Fp61::from_u64(WorkloadConfig::initial_balance(s))])
            .collect(),
        behavior,
        staging_fault: csm_node::StagingFault::None,
    }
}

fn timing_for(cfg: &RejoinConfig) -> ExchangeTiming {
    ExchangeTiming::synchronous(cfg.assumed_faults, cfg.delta)
}

fn durability_for(cfg: &RejoinConfig, dir: &Path, id: usize) -> DurabilityConfig {
    let timing = timing_for(cfg);
    let gw = GatewayConfig::new(cfg.cluster, cfg.assumed_faults, &timing);
    let mut d = DurabilityConfig::new(dir.join(format!("node-{id}")));
    d.snapshot_interval = cfg.snapshot_interval;
    // a transfer needs peers to reach their loop top: cover two full
    // worst-case rounds
    d.transfer_timeout = (gw.stage_timeout + cfg.delta) * 2 + Duration::from_millis(500);
    d
}

/// Runs the kill-and-rejoin scenario over an in-process channel mesh. The
/// victim's endpoint survives the "kill" (channels cannot re-bind), but
/// its entire in-RAM protocol state — engine, admission, runtime buffers
/// — is discarded; only the storage directory carries over.
pub fn run_mem_rejoin(
    dir: &Path,
    cfg: &RejoinConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
) -> RejoinOutcome {
    // + 1 endpoint: the harness's own read-query prober
    let registry = mesh_registry(cfg.cluster, cfg.clients + 1, cfg.seed);
    let transports = MemMesh::build(Arc::clone(&registry));
    run_rejoin(transports, registry, dir, cfg, behavior_of, |old| old)
}

/// Runs the kill-and-rejoin scenario over loopback TCP: the victim's
/// socket endpoint is fully torn down with its first life and re-bound on
/// a fresh port for the restart; survivors learn the new address and
/// redial (their broken outbound connections to the dead endpoint heal on
/// the next send).
pub fn run_tcp_rejoin(
    dir: &Path,
    cfg: &RejoinConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
) -> RejoinOutcome {
    let registry = mesh_registry(cfg.cluster, cfg.clients + 1, cfg.seed);
    let raw = TcpMesh::launch_loopback(Arc::clone(&registry)).expect("bind loopback mesh");
    let transports: Vec<Arc<TcpTransport>> = raw.into_iter().map(Arc::new).collect();
    // keep handles to every survivor/client endpoint so the restarted
    // victim's new address can be installed mid-run
    let handles: Vec<Arc<TcpTransport>> = transports.clone();
    let victim = cfg.victim;
    let registry_for_bind = Arc::clone(&registry);
    run_rejoin(transports, registry, dir, cfg, behavior_of, move |old| {
        let addrs: Vec<std::net::SocketAddr> = handles.iter().map(|t| t.local_addr()).collect();
        drop(old); // tear the endpoint down: sockets close, readers exit
        let fresh = TcpTransport::bind(
            NodeId(victim),
            registry_for_bind,
            "127.0.0.1:0".parse().expect("loopback addr"),
        )
        .expect("rebind victim");
        let mut new_addrs = addrs;
        new_addrs[victim] = fresh.local_addr();
        fresh.set_peer_addrs(&new_addrs);
        for (id, peer) in handles.iter().enumerate() {
            if id != victim {
                peer.set_peer_addr(NodeId(victim), fresh.local_addr());
            }
        }
        Arc::new(fresh)
    })
}

fn run_rejoin<T: Transport + 'static>(
    transports: Vec<T>,
    registry: Arc<KeyRegistry>,
    dir: &Path,
    cfg: &RejoinConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
    restart: impl FnOnce(T) -> T,
) -> RejoinOutcome {
    assert_eq!(
        transports.len(),
        cfg.cluster + cfg.clients + 1,
        "mesh must host the cluster, every client, and the prober"
    );
    assert!(cfg.victim < cfg.cluster, "victim must be a cluster node");
    assert!(
        behavior_of(cfg.victim) == BehaviorKind::Honest,
        "the victim must be honest (a Byzantine victim proves nothing)"
    );
    let spec_of = |id: usize| bank_spec_for(cfg, behavior_of(id));
    let timing = timing_for(cfg);
    let gw_cfg = GatewayConfig::new(cfg.cluster, cfg.assumed_faults, &timing);
    let stop = Arc::new(AtomicBool::new(false));
    let kill = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let mut transports = transports;
    let prober_transport = transports.pop().expect("prober endpoint");
    let client_transports = transports.split_off(cfg.cluster);

    // cluster: every node durable; the victim watches its own kill flag
    let mut node_handles = Vec::new();
    let mut victim_handle = None;
    for (id, transport) in transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let timing = timing.clone();
        let gw_cfg = gw_cfg.clone();
        let durability = durability_for(cfg, dir, id);
        let spec = spec_of(id);
        let flag = if id == cfg.victim {
            Arc::clone(&kill)
        } else {
            Arc::clone(&stop)
        };
        let handle = thread::Builder::new()
            .name(format!("csm-dgw-{id}"))
            .spawn(move || {
                run_durable_gateway(
                    transport,
                    registry,
                    timing,
                    &spec,
                    &gw_cfg,
                    &durability,
                    &flag,
                )
            })
            .expect("spawn durable gateway thread");
        if id == cfg.victim {
            victim_handle = Some(handle);
        } else {
            node_handles.push(handle);
        }
    }

    // clients: closed-loop submitters that ride through the kill window
    let client_cfg = ClientConfig {
        cluster: cfg.cluster,
        assumed_faults: cfg.assumed_faults,
        reply_timeout: cfg.delta * 8 + Duration::from_millis(500),
        max_attempts: 60,
    };
    let accepted = Arc::new(AtomicU64::new(0));
    let mut client_handles = Vec::new();
    for (index, transport) in client_transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let client_cfg = client_cfg.clone();
        let cfg = cfg.clone();
        let accepted = Arc::clone(&accepted);
        client_handles.push(
            thread::Builder::new()
                .name(format!("csm-rc-{index}"))
                .spawn(move || {
                    let mut client = CsmClient::new(transport, registry, client_cfg);
                    let shard = cfg.workload_view().shard_of(index) as u64;
                    let mut outcome = ClientOutcome {
                        index,
                        receipts: Vec::with_capacity(cfg.commands_per_client),
                        failures: 0,
                        latencies: LatencyHistogram::new(),
                    };
                    for i in 0..cfg.commands_per_client {
                        match client.submit(shard, vec![WorkloadConfig::amount(index, i)]) {
                            Ok(receipt) => {
                                accepted.fetch_add(1, Ordering::Relaxed);
                                outcome.latencies.record(receipt.latency);
                                outcome.receipts.push(receipt);
                            }
                            Err(_) => outcome.failures += 1,
                        }
                    }
                    outcome
                })
                .expect("spawn client thread"),
        );
    }

    // phase 1: serve until enough commands committed, then hard-kill
    let deadline = Instant::now() + Duration::from_secs(120);
    while accepted.load(Ordering::Relaxed) < cfg.kill_after {
        assert!(
            Instant::now() < deadline,
            "workload never reached the kill point"
        );
        thread::sleep(Duration::from_millis(10));
    }
    kill.store(true, Ordering::Relaxed);
    let (pre_report, dead_transport) = victim_handle
        .take()
        .expect("victim spawned")
        .join()
        .expect("victim thread");

    // phase 2: restart against the same store; the transport is rebuilt
    // per backend (mem: same channels; tcp: fresh socket, peers redial)
    let revived_transport = restart(dead_transport);
    let durability = durability_for(cfg, dir, cfg.victim);
    let spec = spec_of(cfg.victim);
    let registry2 = Arc::clone(&registry);
    let timing2 = timing.clone();
    let gw_cfg2 = gw_cfg.clone();
    let stop2 = Arc::clone(&stop);
    let victim_handle = thread::Builder::new()
        .name(format!("csm-dgw-{}-revived", cfg.victim))
        .spawn(move || {
            run_durable_gateway(
                revived_transport,
                registry2,
                timing2,
                &spec,
                &gw_cfg2,
                &durability,
                &stop2,
            )
        })
        .expect("spawn revived gateway thread");

    // the harness's prober reads the cluster's committed round via the
    // b + 1 query path, both to time the rejoin and to hold the
    // acceptance bar: ≥ post_rounds further commits after the restart
    let mut prober = CsmClient::new(prober_transport, Arc::clone(&registry), client_cfg.clone());
    // scrape right away, while the revived victim is still resyncing:
    // whoever answers mid-churn must hand back a coherent snapshot. A node
    // between rounds with no work answers at once; one mid-round answers
    // at its next round start, and a round the victim was to lead first
    // waits out the staging timeout (twice `stage_timeout`)
    let worst_round = gw_cfg.stage_timeout * 2 + cfg.delta;
    let mid_resync_telemetry =
        prober.scrape(worst_round + cfg.delta * 4 + Duration::from_millis(500));
    let restart_round = probe_round(&mut prober);
    let target = restart_round + cfg.post_rounds;
    let deadline = Instant::now() + Duration::from_secs(120);
    let mut final_round = restart_round;
    while final_round < target {
        assert!(
            Instant::now() < deadline,
            "cluster stopped committing after the restart ({final_round}/{target})"
        );
        thread::sleep(Duration::from_millis(25));
        // a cluster with no commands runs no rounds: once the clients are
        // done the prober supplies the work, zero deposits that leave
        // every balance where the clients' receipts put it
        let _ = prober.submit(0, vec![0]);
        final_round = probe_round(&mut prober);
    }

    // wind down: clients finish, give the revived node a beat to pass the
    // committed frontier, then stop everyone
    let mut clients: Vec<ClientOutcome> = client_handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    clients.sort_by_key(|c| c.index);
    thread::sleep(cfg.delta * 8);
    // scrape every gateway (the revived victim answers from its second
    // life, resync evidence included) while the cluster still loops
    let telemetry = prober.scrape(cfg.delta * 16 + Duration::from_secs(2));
    stop.store(true, Ordering::Relaxed);
    let (post_report, _transport) = victim_handle.join().expect("revived victim thread");
    let mut others: Vec<GatewayReport<Fp61>> = node_handles
        .into_iter()
        .map(|h| h.join().expect("gateway thread").0)
        .collect();
    others.sort_by_key(|r| r.id);

    RejoinOutcome {
        clients,
        pre_report,
        post_report,
        others,
        restart_round,
        final_round,
        telemetry,
        mid_resync_telemetry,
        elapsed: started.elapsed(),
    }
}

/// One `b + 1`-verified read of shard 0's committed round (retrying until
/// a quorum forms — during node churn a quorum can take a few rounds).
fn probe_round<T: Transport>(prober: &mut CsmClient<T>) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        match prober.query(0) {
            Ok(receipt) => return receipt.round,
            Err(_) => assert!(Instant::now() < deadline, "query quorum never formed"),
        }
    }
}

/// Verifies a kill-and-rejoin outcome end to end:
///
/// * **zero lost committed commands** — every client command was accepted
///   and, per shard, replaying the accepted receipts in commit-round
///   order reproduces the exact reference balance chain (an output that
///   survived the kill with wrong state would break the chain);
/// * honest nodes (victim's both lives included) agree on every commit
///   digest for every overlapping round;
/// * the victim actually recovered: its post-restart report carries
///   recovery info and ≥ `post_rounds` new commits.
pub fn verify_rejoin_outcome(
    cfg: &RejoinConfig,
    outcome: &RejoinOutcome,
    byzantine: &[usize],
) -> Result<(), String> {
    let view = cfg.workload_view();
    for c in &outcome.clients {
        if c.failures > 0 || c.receipts.len() != cfg.commands_per_client {
            return Err(format!(
                "client {} committed {}/{} commands ({} failures)",
                c.index,
                c.receipts.len(),
                cfg.commands_per_client,
                c.failures
            ));
        }
    }
    // balance-chain check per shard (same reference execution as the
    // workload harness)
    for shard in 0..cfg.shards {
        let mut ledger: Vec<(u64, u64, u64)> = Vec::new();
        for c in &outcome.clients {
            if view.shard_of(c.index) != shard {
                continue;
            }
            for (i, r) in c.receipts.iter().enumerate() {
                if r.output.len() != 2 || r.output[0] != r.output[1] {
                    return Err(format!(
                        "client {} receipt {i}: malformed bank output {:?}",
                        c.index, r.output
                    ));
                }
                ledger.push((r.round, WorkloadConfig::amount(c.index, i), r.output[0]));
            }
        }
        ledger.sort_unstable();
        let mut balance = WorkloadConfig::initial_balance(shard);
        for (round, amount, accepted) in &ledger {
            balance += amount;
            if *accepted != balance {
                return Err(format!(
                    "shard {shard} round {round}: accepted balance {accepted} != reference {balance} — a committed command was lost or replayed"
                ));
            }
        }
        if balance != WorkloadConfig::initial_balance(shard) + view.total_deposited(shard) {
            return Err(format!(
                "shard {shard}: final balance {balance} mismatches the total deposited"
            ));
        }
    }
    // honest digest agreement across every life of every honest node
    digests_agree(
        outcome
            .others
            .iter()
            .filter(|r| !byzantine.contains(&r.id))
            .chain([&outcome.pre_report, &outcome.post_report]),
    )?;
    // the victim really recovered
    let recovery = outcome
        .post_report
        .recovery
        .as_ref()
        .ok_or("revived victim carries no recovery info")?;
    if outcome.victim_commits_after_restart() < cfg.post_rounds as usize {
        return Err(format!(
            "victim committed only {} rounds after restart (recovery: {recovery:?})",
            outcome.victim_commits_after_restart()
        ));
    }
    Ok(())
}

/// A unique scratch directory for one recovery run.
pub fn scratch_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "csm-rejoin-{}-{}-{tag}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}
