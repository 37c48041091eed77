//! Shared closed-loop client-workload harness: spawns a gateway cluster
//! (`csm_node::run_gateway`) plus `M` concurrent `csm_client` endpoints on
//! one transport mesh, drives a bank workload to completion, and verifies
//! end-to-end correctness (every accepted output matches the reference
//! bank execution, honest nodes agree on every committed digest).
//!
//! Used by the `client_cluster` and `cluster_audit` examples and the
//! client, consensus and telemetry integration tests.

use csm_algebra::{Field, Fp61};
use csm_client::{ClientConfig, CsmClient, Receipt};
use csm_core::metrics::LatencyHistogram;
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_node::{
    mesh_registry, run_gateway, BehaviorKind, CodedMachine, ConsensusKind, ExchangeTiming,
    GatewayConfig, GatewayReport, GatewaySpec, StagingFault,
};
use csm_statemachine::machines::bank_machine;
use csm_telemetry::TelemetrySnapshot;
use csm_transport::mem::MemMesh;
use csm_transport::tcp::TcpMesh;
use csm_transport::Transport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Shape of one closed-loop bank workload run.
#[derive(Debug, Clone)]
pub struct WorkloadConfig {
    /// Cluster size `N`.
    pub cluster: usize,
    /// Number of bank shards `K`.
    pub shards: usize,
    /// Provisioned fault bound `b` (echo quorum `N − b`, client accept
    /// threshold `b + 1`).
    pub assumed_faults: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Deposits each client submits (sequentially — closed loop).
    pub commands_per_client: usize,
    /// The exchange Δ.
    pub delta: Duration,
    /// Gateway admission cap.
    pub queue_cap: usize,
    /// Commands the leader aggregates per shard per round (the gateway's
    /// [`GatewayConfig::batch_cap`]); `1` is the classic
    /// one-command-per-shard round.
    pub batch_cap: usize,
    /// Key/registry seed.
    pub seed: u64,
    /// Which batch-consensus backend the gateways run.
    pub consensus: ConsensusKind,
    /// When `true`, a dedicated scraper endpoint (registry id
    /// `cluster + clients`) collects a [`TelemetrySnapshot`] from every
    /// gateway after the clients finish, before the cluster is stopped.
    pub scrape: bool,
    /// When set, gateways dump their flight recorder here on incidents
    /// (Byzantine detection, desync, resync, decode failure).
    pub flight_dir: Option<PathBuf>,
}

impl WorkloadConfig {
    /// The number of transport endpoints this run needs: the cluster,
    /// every client, plus the scraper when telemetry is collected.
    pub fn endpoints(&self) -> usize {
        self.cluster + self.clients + usize::from(self.scrape)
    }

    /// Shard a client submits to (fixed per client).
    pub fn shard_of(&self, client_idx: usize) -> usize {
        client_idx % self.shards
    }

    /// The deterministic deposit amount for a client's `i`-th command.
    pub fn amount(client_idx: usize, i: usize) -> u64 {
        1 + ((client_idx as u64 * 31 + i as u64 * 7) % 97)
    }

    /// Initial balance of a shard.
    pub fn initial_balance(shard: usize) -> u64 {
        100 * (shard as u64 + 1)
    }

    /// Total deposits this run will submit to `shard`.
    pub fn total_deposited(&self, shard: usize) -> u64 {
        (0..self.clients)
            .filter(|&c| self.shard_of(c) == shard)
            .map(|c| {
                (0..self.commands_per_client)
                    .map(|i| Self::amount(c, i))
                    .sum::<u64>()
            })
            .sum()
    }
}

/// One client's view of the run.
#[derive(Debug)]
pub struct ClientOutcome {
    /// Client index (0-based; registry id is `cluster + index`).
    pub index: usize,
    /// Accepted commands, in submission order.
    pub receipts: Vec<Receipt>,
    /// Commands that never reached the reply quorum.
    pub failures: u64,
    /// Commit latencies of the accepted commands.
    pub latencies: LatencyHistogram,
}

/// The whole run's outcome.
#[derive(Debug)]
pub struct WorkloadOutcome {
    /// Per-client results, by client index.
    pub clients: Vec<ClientOutcome>,
    /// Per-node gateway reports, by node id.
    pub nodes: Vec<GatewayReport<Fp61>>,
    /// Wall clock from first submission to last node joined.
    pub elapsed: Duration,
    /// Wall clock until the last *client* finished (the throughput
    /// denominator — node shutdown drains are excluded).
    pub client_elapsed: Duration,
    /// Telemetry snapshots scraped from the live cluster (one per
    /// answering node, by node id). Empty unless
    /// [`WorkloadConfig::scrape`] is set.
    pub telemetry: Vec<(usize, TelemetrySnapshot)>,
}

impl WorkloadOutcome {
    /// All clients' commit latencies merged.
    pub fn merged_latencies(&self) -> LatencyHistogram {
        let mut all = LatencyHistogram::new();
        for c in &self.clients {
            all.merge(&c.latencies);
        }
        all
    }

    /// Total accepted commands.
    pub fn committed(&self) -> u64 {
        self.clients.iter().map(|c| c.receipts.len() as u64).sum()
    }

    /// Accepted commands per second of client wall-clock.
    pub fn commands_per_sec(&self) -> f64 {
        self.committed() as f64 / self.client_elapsed.as_secs_f64().max(1e-9)
    }
}

/// The standard Byzantine cast: node 0 equivocates (results *and*
/// replies), node 1 withholds both. Within `b = 2`.
pub fn one_equivocator_one_withholder(id: usize) -> BehaviorKind {
    match id {
        0 => BehaviorKind::Equivocate,
        1 => BehaviorKind::Withhold,
        _ => BehaviorKind::Honest,
    }
}

/// Runs the workload over prebuilt transports (`cluster` node endpoints
/// followed by `clients` client endpoints, as `MemMesh::build` /
/// `TcpMesh::launch_loopback` lay them out), with per-node wire
/// behaviors and *staging* faults: how the consensus-backend tests inject
/// a leader that equivocates on (or withholds) the batch itself.
///
/// # Panics
///
/// Panics if the transport count is not `cluster + clients` or a thread
/// dies.
pub fn run_bank_workload_with_faults<T: Transport + 'static>(
    transports: Vec<T>,
    registry: Arc<KeyRegistry>,
    cfg: &WorkloadConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
    staging_fault_of: impl Fn(usize) -> StagingFault,
) -> WorkloadOutcome {
    assert_eq!(
        transports.len(),
        cfg.endpoints(),
        "mesh must host the cluster, every client, and the scraper"
    );
    let machine = Arc::new(
        CodedMachine::<Fp61>::new(
            cfg.cluster,
            cfg.shards,
            bank_machine(),
            DecoderKind::default(),
        )
        .expect("workload shape within Theorem-1 bounds"),
    );
    let initial_states: Vec<Vec<Fp61>> = (0..cfg.shards)
        .map(|s| vec![Fp61::from_u64(WorkloadConfig::initial_balance(s))])
        .collect();
    let timing = ExchangeTiming::synchronous(cfg.assumed_faults, cfg.delta).with_full_finalize();
    let gw_cfg = {
        let mut c = GatewayConfig::new(cfg.cluster, cfg.assumed_faults, &timing)
            .with_consensus(cfg.consensus);
        c.queue_cap = cfg.queue_cap;
        c.batch_cap = cfg.batch_cap.max(1);
        if let Some(dir) = &cfg.flight_dir {
            c = c.with_flight_dir(dir.clone());
        }
        c
    };
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();

    let mut transports = transports;
    let mut client_transports = transports.split_off(cfg.cluster);
    let scraper_transport = if cfg.scrape {
        client_transports.pop()
    } else {
        None
    };
    let mut node_handles = Vec::new();
    for (id, transport) in transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let timing = timing.clone();
        let gw_cfg = gw_cfg.clone();
        let stop = Arc::clone(&stop);
        let spec = GatewaySpec {
            machine: Arc::clone(&machine),
            initial_states: initial_states.clone(),
            behavior: behavior_of(id),
            staging_fault: staging_fault_of(id),
        };
        node_handles.push(
            thread::Builder::new()
                .name(format!("csm-gw-{id}"))
                .spawn(move || run_gateway(transport, registry, timing, &spec, &gw_cfg, &stop))
                .expect("spawn gateway thread"),
        );
    }

    let client_cfg = ClientConfig {
        cluster: cfg.cluster,
        assumed_faults: cfg.assumed_faults,
        reply_timeout: cfg.delta * 8 + Duration::from_millis(500),
        max_attempts: 20,
    };
    let mut client_handles = Vec::new();
    for (index, transport) in client_transports.into_iter().enumerate() {
        let registry = Arc::clone(&registry);
        let client_cfg = client_cfg.clone();
        let cfg = cfg.clone();
        client_handles.push(
            thread::Builder::new()
                .name(format!("csm-client-{index}"))
                .spawn(move || {
                    let mut client = CsmClient::new(transport, registry, client_cfg);
                    let shard = cfg.shard_of(index) as u64;
                    let mut outcome = ClientOutcome {
                        index,
                        receipts: Vec::with_capacity(cfg.commands_per_client),
                        failures: 0,
                        latencies: LatencyHistogram::new(),
                    };
                    for i in 0..cfg.commands_per_client {
                        match client.submit(shard, vec![WorkloadConfig::amount(index, i)]) {
                            Ok(receipt) => {
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

    let mut clients: Vec<ClientOutcome> = client_handles
        .into_iter()
        .map(|h| h.join().expect("client thread"))
        .collect();
    clients.sort_by_key(|c| c.index);
    let client_elapsed = started.elapsed();
    // scrape while the gateways are still looping (they answer telemetry
    // requests once per round iteration), then stop the cluster
    let telemetry = match scraper_transport {
        Some(transport) => {
            let mut scraper = CsmClient::new(transport, Arc::clone(&registry), client_cfg);
            scraper.scrape(cfg.delta * 16 + Duration::from_secs(2))
        }
        None => Vec::new(),
    };
    stop.store(true, Ordering::Relaxed);
    let mut nodes: Vec<GatewayReport<Fp61>> = node_handles
        .into_iter()
        .map(|h| h.join().expect("gateway thread"))
        .collect();
    nodes.sort_by_key(|r| r.id);
    WorkloadOutcome {
        clients,
        nodes,
        elapsed: started.elapsed(),
        client_elapsed,
        telemetry,
    }
}

/// Runs the workload on an in-process channel mesh.
pub fn run_mem_workload(
    cfg: &WorkloadConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
) -> WorkloadOutcome {
    run_mem_workload_with_faults(cfg, behavior_of, |_| StagingFault::None)
}

/// [`run_mem_workload`] with per-node staging faults.
pub fn run_mem_workload_with_faults(
    cfg: &WorkloadConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
    staging_fault_of: impl Fn(usize) -> StagingFault,
) -> WorkloadOutcome {
    let registry = mesh_registry(cfg.cluster, cfg.endpoints() - cfg.cluster, cfg.seed);
    let transports = MemMesh::build(Arc::clone(&registry));
    run_bank_workload_with_faults(transports, registry, cfg, behavior_of, staging_fault_of)
}

/// Runs the workload on a loopback TCP mesh (real sockets end to end),
/// with per-node staging faults.
pub fn run_tcp_workload_with_faults(
    cfg: &WorkloadConfig,
    behavior_of: impl Fn(usize) -> BehaviorKind,
    staging_fault_of: impl Fn(usize) -> StagingFault,
) -> WorkloadOutcome {
    let registry = mesh_registry(cfg.cluster, cfg.endpoints() - cfg.cluster, cfg.seed);
    let transports = TcpMesh::launch_loopback(Arc::clone(&registry)).expect("bind loopback mesh");
    run_bank_workload_with_faults(transports, registry, cfg, behavior_of, staging_fault_of)
}

/// Verifies the outcome against the reference bank execution:
///
/// * every client command was accepted (no quorum failures);
/// * per shard, replaying the accepted receipts in commit-round order
///   reproduces the exact balance chain `initial + running deposits`.
///   An aggregated round folds every one of its deposits into the shard
///   before replying, so all receipts from one round must report the
///   same *post-round* balance — no accepted output can deviate from
///   the honest state machine, and no command can be lost or applied
///   twice without the chain breaking;
/// * honest nodes' commit digests agree round by round.
///
/// Returns a human-readable error on the first violation.
pub fn verify_bank_outcome(
    cfg: &WorkloadConfig,
    outcome: &WorkloadOutcome,
    byzantine: &[usize],
) -> Result<(), String> {
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
    // balance-chain check per shard, grouped by commit round: each
    // round's deposits land together, and every receipt of that round
    // reports the shard's post-round balance
    for shard in 0..cfg.shards {
        // round -> (sum of that round's deposits, [(client, accepted)])
        let mut rounds: BTreeMap<u64, (u64, Vec<(usize, u64)>)> = BTreeMap::new();
        for c in &outcome.clients {
            if cfg.shard_of(c.index) != shard {
                continue;
            }
            for (i, r) in c.receipts.iter().enumerate() {
                // bank result is the flat (S', Y) pair, both = new balance
                if r.output.len() != 2 || r.output[0] != r.output[1] {
                    return Err(format!(
                        "client {} receipt {i}: malformed bank output {:?}",
                        c.index, r.output
                    ));
                }
                let slot = rounds.entry(r.round).or_default();
                slot.0 += WorkloadConfig::amount(c.index, i);
                slot.1.push((c.index, r.output[0]));
            }
        }
        let mut balance = WorkloadConfig::initial_balance(shard);
        for (round, (deposited, accepted)) in &rounds {
            balance += deposited;
            for (client, got) in accepted {
                if *got != balance {
                    return Err(format!(
                        "shard {shard} round {round}: client {client} accepted balance {got} \
                         != reference {balance}"
                    ));
                }
            }
        }
        if balance != WorkloadConfig::initial_balance(shard) + cfg.total_deposited(shard) {
            return Err(format!(
                "shard {shard}: final balance {balance} mismatches total"
            ));
        }
    }
    digests_agree(outcome.nodes.iter().filter(|r| !byzantine.contains(&r.id)))
}

/// Checks that `reports` agree on the digest of every round any two of
/// them committed, keyed by absolute round (reports only retain a trailing
/// window, and nodes may stop on different rounds). A round's reference
/// is the first report that committed it, so two nodes that disagree on a
/// round a third never reached still fail.
pub(crate) fn digests_agree<'a>(
    reports: impl IntoIterator<Item = &'a GatewayReport<Fp61>>,
) -> Result<(), String> {
    let mut reference: BTreeMap<u64, (usize, u64)> = BTreeMap::new();
    for report in reports {
        for (round, digest) in report.digests() {
            let (holder, expected) = *reference.entry(round).or_insert((report.id, digest));
            if expected != digest {
                return Err(format!(
                    "round {round}: node {} commits digest {digest:#x}, node {holder} {expected:#x}",
                    report.id
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mem_workload_commits_and_verifies() {
        let cfg = WorkloadConfig {
            cluster: 6,
            shards: 2,
            assumed_faults: 1,
            clients: 4,
            commands_per_client: 2,
            delta: Duration::from_millis(40),
            queue_cap: 64,
            batch_cap: 1,
            seed: 11,
            consensus: ConsensusKind::LeaderEcho,
            scrape: true,
            flight_dir: None,
        };
        let outcome = run_mem_workload(&cfg, |id| {
            if id == 0 {
                BehaviorKind::Equivocate
            } else {
                BehaviorKind::Honest
            }
        });
        verify_bank_outcome(&cfg, &outcome, &[0]).expect("outcome verifies");
        assert_eq!(outcome.committed(), 8);
        assert!(outcome.merged_latencies().p99() > Duration::ZERO);
        // the scraper heard from every node, and each snapshot accounts
        // for the committed rounds
        assert_eq!(outcome.telemetry.len(), cfg.cluster);
        for (node, snap) in &outcome.telemetry {
            assert_eq!(snap.node, *node as u64);
            assert!(snap.phase("round").is_some(), "node {node} timed rounds");
            assert!(snap.counter("admitted") > 0, "node {node} admitted");
        }
    }

    #[test]
    fn aggregated_mem_workload_commits_and_verifies() {
        // three closed-loop clients share each shard: with a batch cap
        // above 1 their waves land in the same round as one per-shard
        // program, and the round-grouped verifier still reproduces the
        // reference balance chain command by command
        let cfg = WorkloadConfig {
            cluster: 6,
            shards: 2,
            assumed_faults: 1,
            clients: 6,
            commands_per_client: 3,
            delta: Duration::from_millis(40),
            queue_cap: 64,
            batch_cap: 8,
            seed: 12,
            consensus: ConsensusKind::LeaderEcho,
            scrape: true,
            flight_dir: None,
        };
        let outcome = run_mem_workload(&cfg, |id| {
            if id == 0 {
                BehaviorKind::Equivocate
            } else {
                BehaviorKind::Honest
            }
        });
        verify_bank_outcome(&cfg, &outcome, &[0]).expect("outcome verifies");
        assert_eq!(outcome.committed(), 18);
        // aggregation really happened (some round carried a multi-command
        // program) and the telemetry accounts for every command
        let mut saw_aggregated = false;
        for (node, snap) in &outcome.telemetry {
            if snap.value("batch_size").is_some_and(|v| v.max > 1) {
                saw_aggregated = true;
            }
            if *node != 0 {
                assert!(
                    snap.counter("commands_committed") >= 18,
                    "node {node} committed {} commands",
                    snap.counter("commands_committed")
                );
            }
        }
        assert!(saw_aggregated, "no round aggregated more than one command");
    }

    /// A gateway report whose retained commits carry exactly `digests`.
    fn report(id: usize, digests: &[(u64, u64)]) -> GatewayReport<Fp61> {
        GatewayReport {
            id,
            commits: digests
                .iter()
                .map(|&(round, digest)| {
                    Some(csm_core::RoundCommit {
                        round,
                        results: Vec::new(),
                        digest,
                        results_held: 0,
                        detected_error_nodes: Vec::new(),
                    })
                })
                .collect(),
            first_recorded_round: 0,
            rounds: digests.len() as u64,
            stats: csm_node::GatewayStats::default(),
            recovery: None,
        }
    }

    #[test]
    fn honest_split_on_a_round_the_first_node_lacks_fails_verification() {
        // node 2 stopped after round 0; honest nodes 3 and 4 both reached
        // round 1 and committed different digests for it
        let cfg = WorkloadConfig {
            cluster: 5,
            shards: 2,
            assumed_faults: 1,
            clients: 0,
            commands_per_client: 0,
            delta: Duration::from_millis(40),
            queue_cap: 64,
            batch_cap: 1,
            seed: 0,
            consensus: ConsensusKind::LeaderEcho,
            scrape: false,
            flight_dir: None,
        };
        let mut outcome = WorkloadOutcome {
            clients: Vec::new(),
            nodes: vec![
                report(0, &[(0, 0xBAD), (1, 0xBAD)]),
                report(2, &[(0, 7)]),
                report(3, &[(0, 7), (1, 8)]),
                report(4, &[(0, 7), (1, 9)]),
            ],
            elapsed: Duration::ZERO,
            client_elapsed: Duration::ZERO,
            telemetry: Vec::new(),
        };
        let err = verify_bank_outcome(&cfg, &outcome, &[0]).expect_err("nodes 3 and 4 split");
        assert!(err.contains("round 1"), "{err}");
        // the Byzantine node's digests are not held against the others
        outcome.nodes.pop();
        verify_bank_outcome(&cfg, &outcome, &[0]).expect("the remaining honest nodes agree");
    }
}
