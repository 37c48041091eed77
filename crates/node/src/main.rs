//! The `csm-node` binary: hosts a client-serving CSM cluster over
//! loopback TCP, audits one, or runs the deterministic chaos harness.
//!
//! ```text
//! # a client-serving gateway cluster on loopback TCP, with a
//! # selectable batch-consensus backend:
//! csm-node gateway --n 8 --k 4 --faults 2 --clients 8 --commands 2 \
//!                  --consensus pbft [--staging-fault 0:equivocate] \
//!                  [--partial-sync]
//!
//! # the same loopback cluster under the client-side auditor: runs a
//! # Byzantine workload, scrapes every gateway's telemetry, and prints
//! # the merged cluster audit (scorecard / timeline / health):
//! csm-node audit --n 8 --k 4 --faults 2 --clients 8 --commands 2 \
//!                [--byzantine 0:equivocate --byzantine 1:withhold] \
//!                [--format text|json|prometheus]
//! ```
//!
//! `gateway` hosts a whole client-serving bank cluster over loopback TCP
//! (gateway node threads plus closed-loop `csm-client` endpoints),
//! agreeing each round's batch with the backend selected by
//! `--consensus` (`leader-echo` | `dolev-strong` | `pbft`), and exits
//! non-zero unless every client command commits and every pair of honest
//! nodes agrees on every commit digest — including under an injected
//! `--staging-fault` (a leader equivocating on or withholding the batch).
//!
//! `audit` reuses the same loopback cluster shape but hands the scraped
//! telemetry to `csm-auditor`: the default cast (node 0 equivocating,
//! node 1 withholding) must end convicted by ≥ `b + 1` distinct
//! reporters with no honest node accused, or the process exits non-zero.
//! `--format json` emits the full audit document (evidence records
//! included); `--format prometheus` emits the text exposition.
//! Both write flight-recorder dumps into `CSM_FLIGHT_DIR` when it is
//! set: the binary reads the environment, the library never does.
//!
//! ```text
//! # the deterministic chaos harness (virtual clock, no sockets): run
//! # the curated scenario corpus, one scenario, or seeded random fault
//! # schedules — failing random seeds are shrunk to a minimal reproducer
//! csm-node chaos                      # whole corpus, replay-checked
//! csm-node chaos --scenario kv_chaos  # one scenario (--list to see all)
//! csm-node chaos --seed 7 --random 25 # 25 random schedules from seed 7
//! ```

use csm_node::workload::{run_tcp_workload_with_faults, verify_bank_outcome, WorkloadConfig};
use csm_node::{BehaviorKind, ConsensusKind, StagingFault};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

/// The loopback cluster's shape, shared by `gateway` and `audit`.
#[derive(Debug, Clone)]
struct CommonArgs {
    n: usize,
    k: usize,
    faults: usize,
    seed: u64,
    partial_sync: bool,
    delta_ms: u64,
    clients: usize,
    commands: usize,
    consensus: ConsensusKind,
}

impl Default for CommonArgs {
    fn default() -> Self {
        CommonArgs {
            n: 8,
            k: 4,
            faults: 2,
            seed: 42,
            partial_sync: false,
            delta_ms: 250,
            clients: 8,
            commands: 2,
            consensus: ConsensusKind::LeaderEcho,
        }
    }
}

impl CommonArgs {
    /// The workload these flags describe; exits 2 on a shape the code or
    /// the consensus backend cannot host.
    fn workload(&self, scrape: bool) -> WorkloadConfig {
        let cfg = WorkloadConfig {
            cluster: self.n,
            shards: self.k,
            assumed_faults: self.faults,
            clients: self.clients,
            commands_per_client: self.commands,
            delta: Duration::from_millis(self.delta_ms.max(1)),
            partial_sync: self.partial_sync,
            batch_cap: 1,
            seed: self.seed,
            consensus: self.consensus,
            scrape,
            flight_dir: std::env::var_os("CSM_FLIGHT_DIR").map(PathBuf::from),
        };
        if let Err(e) = cfg.machine() {
            csm_telemetry::error!("invalid cluster shape: {e}");
            std::process::exit(2);
        }
        let min = self.consensus.min_cluster(self.faults);
        if self.n < min {
            csm_telemetry::error!(
                "--consensus {} needs a cluster of at least {min} for --faults {} (got --n {})",
                self.consensus,
                self.faults,
                self.n
            );
            std::process::exit(2);
        }
        cfg
    }
}

fn usage() -> ! {
    csm_telemetry::error!(
        "usage:\n  csm-node gateway [--n N --k K --faults B --seed S --delta-ms D \
         --partial-sync --clients M --commands C --consensus leader-echo|dolev-strong|pbft \
         --staging-fault ID:equivocate|withhold]\n  csm-node audit [--n N --k K --faults B \
         --seed S --delta-ms D --partial-sync --clients M --commands C --consensus KIND \
         --byzantine ID:KIND --format text|json|prometheus]\n  csm-node chaos [--scenario \
         NAME|all | --list | --seed S --random COUNT --n N --clients M --durable \
         --consensus KIND]\n  (all subcommands: --log-level \
         error|warn|info|debug|trace, default from CSM_LOG)\n  (gateway, audit: flight-recorder \
         dumps go to CSM_FLIGHT_DIR when it is set)"
    );
    std::process::exit(2)
}

fn parse_common(args: &mut CommonArgs, flag: &str, value: &str) -> bool {
    match flag {
        "--n" => args.n = value.parse().expect("--n"),
        "--k" => args.k = value.parse().expect("--k"),
        "--faults" => args.faults = value.parse().expect("--faults"),
        "--seed" => args.seed = value.parse().expect("--seed"),
        "--delta-ms" => args.delta_ms = value.parse().expect("--delta-ms"),
        "--clients" => args.clients = value.parse().expect("--clients"),
        "--commands" => args.commands = value.parse().expect("--commands"),
        "--consensus" => {
            args.consensus = value.parse().unwrap_or_else(|e| {
                csm_telemetry::error!("--consensus: {e}");
                std::process::exit(2);
            })
        }
        "--log-level" => match csm_telemetry::LogLevel::from_str_opt(value) {
            Some(level) => csm_telemetry::logger::set_level(level),
            None => {
                csm_telemetry::error!(
                    "--log-level: unknown level {value:?} (want error|warn|info|debug|trace)"
                );
                std::process::exit(2);
            }
        },
        _ => return false,
    }
    true
}

fn main() {
    // stderr diagnostics run through the leveled logger: `CSM_LOG` sets
    // the default, `--log-level` (any subcommand) overrides it. Stable
    // stdout lines (per-client commits, cluster verdicts) are unaffected.
    csm_telemetry::logger::init_from_env();
    let argv: Vec<String> = std::env::args().collect();
    match argv.get(1).map(String::as_str) {
        Some("gateway") => cmd_gateway(&argv[2..]),
        Some("audit") => cmd_audit(&argv[2..]),
        Some("chaos") => cmd_chaos(&argv[2..]),
        _ => usage(),
    }
}

/// Runs the deterministic chaos harness: the curated scenario corpus
/// (each run twice and compared bit-for-bit — the replay contract), one
/// named scenario, or seeded random fault schedules. A failing random
/// seed is shrunk to a minimal reproducer before it is printed. Exits
/// non-zero on any safety/liveness violation or replay divergence.
fn cmd_chaos(rest: &[String]) {
    use csm_node::chaos::{
        random_schedule, random_schedule_sync, replay_check, run_schedule, scenarios, ChaosConfig,
    };
    use csm_node::consensus::ConsensusKind;

    let mut scenario: Option<String> = None;
    let mut seed: Option<u64> = None;
    let mut random_count = 1usize;
    let mut cluster = 4usize;
    let mut clients = 6usize;
    let mut durable = false;
    let mut consensus = ConsensusKind::LeaderEcho;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--list" => {
                for s in scenarios::all() {
                    println!("{:28} {}", s.name, s.summary);
                }
                return;
            }
            "--durable" => {
                durable = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--scenario" => scenario = Some(value.clone()),
            "--seed" => seed = Some(value.parse().expect("--seed")),
            "--random" => random_count = value.parse().expect("--random"),
            "--n" => cluster = value.parse().expect("--n"),
            "--clients" => clients = value.parse().expect("--clients"),
            "--consensus" => {
                consensus = value.parse().unwrap_or_else(|e| {
                    csm_telemetry::error!("--consensus: {e}");
                    std::process::exit(2);
                })
            }
            "--log-level" => match csm_telemetry::LogLevel::from_str_opt(value) {
                Some(level) => csm_telemetry::logger::set_level(level),
                None => usage(),
            },
            _ => usage(),
        }
    }

    // seeded random schedules: the CI randomized job's entry point
    if let Some(seed) = seed {
        let mut config = ChaosConfig::new(cluster, 2, 1);
        config.consensus = consensus;
        config.durable = durable;
        config.clients = clients;
        let mut failed = false;
        for s in seed..seed + random_count as u64 {
            // Dolev–Strong assumes synchrony: draw its schedules from
            // the partition-free, loss-free generator (docs/CHAOS.md)
            let schedule = match consensus {
                ConsensusKind::DolevStrong => random_schedule_sync(s, cluster, clients, durable),
                _ => random_schedule(s, cluster, clients, durable),
            };
            let run = run_schedule(&config, &schedule);
            if run.clean() {
                println!(
                    "seed {s:#018x}: OK ({} acks, {} events)",
                    run.acked.len(),
                    run.events.len()
                );
                continue;
            }
            failed = true;
            println!("seed {s:#018x}: FAILED: {:?}", run.violations);
            let (min, steps, min_run) = csm_node::chaos::shrink::shrink_report(&config, &schedule);
            println!(
                "  shrunk in {steps} steps to {} events over {} ticks \
                 (violations: {:?}):",
                min.events.len(),
                min.horizon,
                min_run.violations
            );
            for (at, event) in &min.events {
                println!("    t={at}: {event:?}");
            }
        }
        if failed {
            std::process::exit(1);
        }
        return;
    }

    // the curated corpus (default), or one scenario by name
    let corpus: Vec<scenarios::Scenario> = match scenario.as_deref() {
        None | Some("all") => scenarios::all(),
        Some(name) => match scenarios::by_name(name) {
            Some(s) => vec![s],
            None => {
                csm_telemetry::error!(
                    "unknown scenario {name:?}; `csm-node chaos --list` names the corpus"
                );
                std::process::exit(2);
            }
        },
    };
    let mut failed = false;
    for s in corpus {
        match replay_check(&s.config, &s.schedule) {
            Ok(run) if run.clean() => {
                println!(
                    "{:28} OK ({} acks, {} commands committed, replayed bit-identically)",
                    s.name,
                    run.acked.len(),
                    run.total_committed()
                );
            }
            Ok(run) => {
                failed = true;
                println!("{:28} FAILED: {:?}", s.name, run.violations);
            }
            Err(diff) => {
                failed = true;
                println!("{:28} REPLAY DIVERGED: {diff}", s.name);
            }
        }
    }
    if failed {
        std::process::exit(1);
    }
}

/// Hosts a whole client-serving gateway cluster over loopback TCP in one
/// process: `n` gateway node threads plus `clients` closed-loop
/// `csm-client` endpoints driving a bank workload, with the round-batch
/// agreement backend selected by `--consensus`. Exits non-zero unless
/// every command commits on the reference balance chain and honest
/// commit digests agree.
fn cmd_gateway(rest: &[String]) {
    let mut common = CommonArgs::default();
    let mut staging: BTreeMap<usize, StagingFault> = BTreeMap::new();
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--partial-sync" {
            common.partial_sync = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        if parse_common(&mut common, flag, value) {
            continue;
        }
        match flag.as_str() {
            "--staging-fault" => {
                let (id, kind) = value.split_once(':').unwrap_or_else(|| usage());
                let fault = match kind {
                    "equivocate" => StagingFault::EquivocateBatch,
                    "withhold" => StagingFault::WithholdBatch,
                    other => {
                        csm_telemetry::error!("--staging-fault: unknown kind {other:?}");
                        std::process::exit(2);
                    }
                };
                staging.insert(id.parse().expect("--staging-fault id"), fault);
            }
            _ => usage(),
        }
    }
    let cfg = common.workload(false);
    println!(
        "gateway cluster: N = {}, K = {}, b = {}, {} clients x {} commands, consensus = {}, \
         staging faults: {staging:?}",
        common.n, common.k, common.faults, common.clients, common.commands, common.consensus
    );

    let outcome = run_tcp_workload_with_faults(
        &cfg,
        |_| BehaviorKind::Honest,
        |id| staging.get(&id).copied().unwrap_or(StagingFault::None),
    );
    for c in &outcome.clients {
        for receipt in &c.receipts {
            println!(
                "client {}: seq {} committed in round {} ({} matching replies)",
                c.index, receipt.seq, receipt.round, receipt.matching
            );
        }
    }
    let faulty: Vec<usize> = staging.keys().copied().collect();
    match verify_bank_outcome(&cfg, &outcome, &faulty) {
        Ok(rounds) => println!(
            "gateway cluster OK: {} commands committed under {}, honest digests agree \
             on {rounds} rounds",
            outcome.committed(),
            common.consensus
        ),
        Err(e) => {
            csm_telemetry::error!("{e}");
            println!("gateway cluster FAILED");
            std::process::exit(1);
        }
    }
}

/// Runs a loopback gateway cluster under a Byzantine cast (default:
/// node 0 equivocating, node 1 withholding), scrapes every node's
/// telemetry through a dedicated client endpoint, and prints the merged
/// `csm-auditor` cluster audit in the selected `--format`. Exits
/// non-zero unless every command commits on the reference balance
/// chain, honest digests agree, every equivocator ends convicted by
/// `b + 1` distinct reporters on cryptographically attributed evidence,
/// and no node outside the cast is accused (bar the documented mac-only
/// forge-victim artifact).
fn cmd_audit(rest: &[String]) {
    use csm_auditor::{AuditConfig, ClusterAudit};

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Format {
        Text,
        Json,
        Prometheus,
    }

    let mut common = CommonArgs::default();
    let mut byzantine: BTreeMap<usize, BehaviorKind> = BTreeMap::new();
    let mut format = Format::Text;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--partial-sync" {
            common.partial_sync = true;
            continue;
        }
        let value = it.next().unwrap_or_else(|| usage());
        if parse_common(&mut common, flag, value) {
            continue;
        }
        match flag.as_str() {
            "--byzantine" => {
                let (id, kind) = value.split_once(':').unwrap_or_else(|| usage());
                byzantine.insert(
                    id.parse().expect("--byzantine id"),
                    kind.parse().unwrap_or_else(|e| {
                        csm_telemetry::error!("--byzantine: {e}");
                        std::process::exit(2);
                    }),
                );
            }
            "--format" => {
                format = match value.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "prometheus" => Format::Prometheus,
                    other => {
                        csm_telemetry::error!(
                            "--format: unknown format {other:?} (want text|json|prometheus)"
                        );
                        std::process::exit(2);
                    }
                }
            }
            _ => usage(),
        }
    }
    if byzantine.is_empty() {
        byzantine.insert(0, BehaviorKind::Equivocate);
        byzantine.insert(1, BehaviorKind::Withhold);
    }
    if byzantine.len() > common.faults {
        csm_telemetry::error!(
            "{} Byzantine nodes exceed the provisioned fault bound b = {} (raise --faults)",
            byzantine.len(),
            common.faults
        );
        std::process::exit(2);
    }
    if byzantine.keys().any(|id| *id >= common.n) {
        csm_telemetry::error!("--byzantine id must be < --n {}", common.n);
        std::process::exit(2);
    }
    // the scraper is one extra endpoint past the clients
    let cfg = common.workload(true);
    csm_telemetry::info!(
        "audit run: N = {}, K = {}, b = {}, {} clients x {} commands, consensus = {}, \
         byzantine cast: {byzantine:?}",
        common.n,
        common.k,
        common.faults,
        common.clients,
        common.commands,
        common.consensus
    );

    let outcome = run_tcp_workload_with_faults(
        &cfg,
        |id| byzantine.get(&id).copied().unwrap_or(BehaviorKind::Honest),
        |_| StagingFault::None,
    );
    let snapshots = &outcome.telemetry;
    let audit = ClusterAudit::build(
        AuditConfig {
            cluster: common.n,
            assumed_faults: common.faults,
        },
        snapshots,
    );
    match format {
        Format::Text => print!("{}", audit.render_text()),
        Format::Json => println!("{}", audit.to_json()),
        Format::Prometheus => print!("{}", audit.render_prometheus()),
    }

    // verdict: workload committed on the reference chain, honest digests
    // agree, and the scorecard names exactly the cast (plus at most the
    // mac-only forge-victim artifact an equivocator's impersonation
    // creates)
    let cast: Vec<usize> = byzantine.keys().copied().collect();
    let mut ok = true;
    if let Err(e) = verify_bank_outcome(&cfg, &outcome, &cast) {
        csm_telemetry::error!("{e}");
        ok = false;
    }
    if snapshots.len() < common.n {
        csm_telemetry::error!("scrape heard {}/{} nodes", snapshots.len(), common.n);
        ok = false;
    }
    let equivocators: Vec<usize> = byzantine
        .iter()
        .filter(|(_, kind)| matches!(kind, BehaviorKind::Equivocate))
        .map(|(id, _)| *id)
        .collect();
    // an equivocator also forges frames in its successor's name, so that
    // honest successor may legitimately show up with mac-only evidence
    let forge_victims: Vec<usize> = equivocators.iter().map(|e| (e + 1) % common.n).collect();
    let sound = audit.scorecard.sound_convicted();
    for e in &equivocators {
        if !sound.contains(e) {
            csm_telemetry::error!("equivocator {e} was not soundly convicted (got {sound:?})");
            ok = false;
            continue;
        }
        let honest_reporters = audit
            .scorecard
            .score(*e)
            .map(|s| s.reporters().iter().filter(|r| !cast.contains(r)).count())
            .unwrap_or(0);
        if honest_reporters <= common.faults {
            csm_telemetry::error!(
                "equivocator {e}: only {honest_reporters} honest reporters (need > b = {})",
                common.faults
            );
            ok = false;
        }
    }
    for score in &audit.scorecard.peers {
        if cast.contains(&score.peer) {
            continue;
        }
        if forge_victims.contains(&score.peer) && score.is_mac_only() {
            csm_telemetry::warn!(
                "node {} carries mac-only evidence — forge-victim artifact, not a conviction",
                score.peer
            );
            continue;
        }
        csm_telemetry::error!("honest node {} was accused", score.peer);
        ok = false;
    }
    // the verdict shares stdout only with the text rendering — the json
    // and prometheus formats keep stdout a single machine-parseable
    // document and take their verdict via stderr + the exit status
    if ok {
        let verdict = format!(
            "cluster audit OK: {} commands committed, convicted peers {:?} \
             (cast {byzantine:?})",
            outcome.committed(),
            audit.convicted_peers()
        );
        match format {
            Format::Text => println!("{verdict}"),
            Format::Json | Format::Prometheus => csm_telemetry::info!("{verdict}"),
        }
    } else {
        match format {
            Format::Text => println!("cluster audit FAILED"),
            Format::Json | Format::Prometheus => csm_telemetry::error!("cluster audit FAILED"),
        }
        std::process::exit(1);
    }
}
