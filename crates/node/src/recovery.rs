//! Crash recovery and rejoin: the durable gateway.
//!
//! [`run_durable_gateway`] runs the gateway core
//! ([`crate::core::GatewayCore`]) with the `csm-storage` persistence
//! subsystem so a node survives a hard kill. The core decides what to
//! make durable and emits it as `Effect::Persist`; this module owns the
//! store. Both drivers (the wall-clock one here, the chaos harness's
//! virtual-clock one) open it with [`open_store`] and write it with
//! [`persist`]. The module also holds the durability knobs, the store
//! fingerprint and the local replay fold:
//!
//! 1. **Log before acknowledging.** Every committed round's agreed batch,
//!    commit digest, and coded-state delta is a log record the core emits
//!    *ahead of* the round's commit announcement and client replies; the
//!    driver appends (and fsyncs) it before performing them — an
//!    acknowledged round is always recoverable.
//! 2. **Snapshot periodically.** Every
//!    [`DurabilityConfig::snapshot_interval`] commits, the full coded
//!    state (one machine-state-wide word — the coded representation is
//!    what keeps checkpoints this small) is written atomically with the
//!    machine fingerprint, and the log it covers is truncated.
//! 3. **Recover on startup.** `snapshot + log` replays to the last
//!    durable round (a torn log tail is detected by CRC and truncated
//!    away). If the cluster moved on meanwhile, the node catches up via
//!    state transfer: it broadcasts [`csm_transport::Payload::StateRequest`],
//!    peers serve MAC-authenticated [`csm_transport::Payload::StateChunk`]s
//!    from their latest commit, and the rejoiner installs a round's state
//!    only once **`b + 1` distinct peers agree on the commit digest and
//!    the carried results hash to it** (the core's `PeerView` counts the
//!    peers, as it counts every `b + 1` rule) — a Byzantine peer can neither
//!    forge that quorum nor slip corrupted bytes past the digest check.
//!    The verified plaintext states are re-encoded at the node's own
//!    evaluation point (the coded-repair trick: recovery needs peers'
//!    words, not a trusted copy of its own).
//! 4. **Resync instead of fail-stop.** Where a plain gateway fail-stops
//!    on divergence (`b + 1` peers agreeing on a digest it does not
//!    hold), a durable gateway runs the same state transfer mid-run and
//!    rejoins at the cluster's round.

use crate::core::{GatewayCore, Record};
use crate::gateway::{drive, ExchangeTiming, GatewayConfig, GatewayReport, GatewaySpec};
use crate::CodedMachine;
use csm_algebra::Field;
use csm_core::digest::splitmix64;
use csm_network::auth::KeyRegistry;
use csm_storage::{NodeStore, Recovered};
use csm_transport::Transport;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Where and how often a durable gateway persists.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// The node's storage directory (snapshot + write-ahead log).
    pub dir: PathBuf,
    /// Commits between coded-state snapshots (the log is truncated after
    /// each). Smaller intervals mean shorter replay on restart at the
    /// cost of a snapshot fsync per interval.
    pub snapshot_interval: u64,
    /// How long one state-transfer attempt waits for `b + 1` agreeing
    /// peer chunks before giving up (peers answer from their round loop,
    /// so this should cover at least one full round).
    pub transfer_timeout: Duration,
}

impl DurabilityConfig {
    /// Defaults: snapshot every 32 commits, 2 s transfer attempts.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        DurabilityConfig {
            dir: dir.into(),
            snapshot_interval: 32,
            transfer_timeout: Duration::from_secs(2),
        }
    }
}

/// What a durable gateway's recovery path did, reported on
/// [`GatewayReport::recovery`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryInfo {
    /// The next round after replaying the local snapshot + log (0 on a
    /// fresh store).
    pub recovered_round: u64,
    /// Write-ahead-log records replayed onto the snapshot.
    pub wal_records_replayed: u64,
    /// Whether a torn/corrupt log tail was detected and truncated.
    pub torn_tail: bool,
    /// The committed round installed from peers' `b + 1`-verified state
    /// transfer at startup, if the cluster was ahead of the local store.
    pub startup_transfer: Option<u64>,
}

/// The fingerprint a node's durable store is bound to: the coded-machine
/// geometry, the node's identity (each node stores a *different* coded
/// word), and the genesis states. Replaying a store under anything else
/// is refused at open.
pub fn store_fingerprint<F: Field>(
    machine: &CodedMachine<F>,
    node: usize,
    initial_states: &[Vec<F>],
) -> u64 {
    let mut acc = splitmix64(machine.fingerprint() ^ node as u64);
    for state in initial_states {
        for v in state {
            acc = splitmix64(acc ^ v.to_canonical_u64());
        }
        acc = splitmix64(acc ^ 0x5EED);
    }
    acc
}

/// Opens node `id`'s store, bound to the [`store_fingerprint`] of `spec`,
/// with what it held. A fresh store first gets the genesis checkpoint, so
/// the very first crash already recovers through the snapshot path.
///
/// # Errors
///
/// What [`NodeStore::open`] and the checkpoint write return.
pub fn open_store<F: Field>(
    durability: &DurabilityConfig,
    spec: &GatewaySpec<F>,
    id: usize,
) -> io::Result<(NodeStore, Recovered)> {
    let fingerprint = store_fingerprint(&spec.machine, id, &spec.initial_states);
    let (mut store, recovered) = NodeStore::open(&durability.dir, fingerprint)?;
    if recovered.is_fresh() {
        let genesis = spec.machine.encode_state_at(id, &spec.initial_states);
        let genesis = genesis.iter().map(|v| v.to_canonical_u64()).collect();
        store.install_snapshot(0, genesis, Vec::new())?;
    }
    Ok((store, recovered))
}

/// Performs one `Effect::Persist`: appends (and fsyncs) a commit record,
/// or installs a snapshot and truncates the log it covers.
///
/// # Errors
///
/// The store's write and fsync failures.
pub fn persist(store: &mut NodeStore, record: &Record) -> io::Result<()> {
    match record {
        Record::Commit(commit) => store.append_commit(commit),
        Record::Snapshot {
            round,
            coded_state,
            horizons,
        } => store.install_snapshot(*round, coded_state.clone(), horizons.clone()),
    }
}

/// What [`replay_local`] reconstructed from `snapshot + log`.
pub(crate) struct Replayed<F> {
    /// The coded state at the last durable round.
    pub(crate) coded_state: Vec<F>,
    /// The next round to execute.
    pub(crate) next_round: u64,
    /// Log records folded onto the snapshot.
    pub(crate) records: u64,
    /// Per-client dedup horizons — snapshot horizons advanced by every
    /// replayed round's logged batch, so a client command that committed
    /// before the crash is still deduplicated after it (the exactly-once
    /// guarantee must survive restarts, not just the balances).
    pub(crate) horizons: BTreeMap<u64, u64>,
}

/// Replays `snapshot + log`: starts from the snapshot (or the genesis
/// encoding), applies each later record's coded-state delta and folds its
/// batch into the dedup horizons, and stops at the first malformed delta.
/// A gap in the record rounds is a round the node could not decode: it
/// committed nothing and its coded state did not move, so the next
/// record's delta applies on top of the previous one's.
pub(crate) fn replay_local<F: Field>(
    machine: &CodedMachine<F>,
    recovered: &Recovered,
    genesis: Vec<F>,
) -> Replayed<F> {
    let sd = machine.transition().state_dim();
    let (mut state, mut next, mut horizons): (Vec<F>, u64, BTreeMap<u64, u64>) =
        match &recovered.snapshot {
            Some(s) => (
                s.coded_state.iter().map(|&v| F::from_u64(v)).collect(),
                s.round,
                s.horizons.iter().copied().collect(),
            ),
            None => (genesis, 0, BTreeMap::new()),
        };
    let mut records = 0;
    for rec in &recovered.records {
        if rec.round < next {
            // stale pre-snapshot record (crash between snapshot install
            // and log truncation): already folded into the snapshot
            continue;
        }
        if rec.state_delta.len() != sd {
            break; // malformed delta: stop at the last valid round
        }
        for (x, &d) in state.iter_mut().zip(&rec.state_delta) {
            *x += F::from_u64(d);
        }
        for row in &rec.batch {
            // Stage-row layout: [client, seq, shard, sig_tag, command...]
            if let [client, seq, ..] = row[..] {
                let h = horizons.entry(client).or_insert(seq);
                *h = (*h).max(seq);
            }
        }
        next = rec.round + 1;
        records += 1;
    }
    Replayed {
        coded_state: state,
        next_round: next,
        records,
        horizons,
    }
}

/// Runs one node of a client-serving CSM cluster with durable state:
/// recovers `snapshot + log` on startup, catches up from peers if the
/// cluster moved on, then runs the gateway rounds with write-ahead
/// logging before every acknowledgement and periodic snapshots. Returns
/// the report *and* the transport endpoint, so a supervisor can restart
/// the node (same store, same endpoint) after a simulated hard kill.
///
/// # Panics
///
/// Panics on spec/config mismatches (like [`crate::run_gateway`]) and on
/// storage I/O failures — a node that cannot persist must not serve.
pub fn run_durable_gateway<F: Field, T: Transport>(
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: &GatewaySpec<F>,
    cfg: &GatewayConfig,
    durability: &DurabilityConfig,
    stop: &AtomicBool,
) -> (GatewayReport<F>, T) {
    let id = transport.local_id().0;
    let (store, recovered) = open_store(durability, spec, id).expect("open durable store");
    let durable = Some((durability, &recovered));
    let core = GatewayCore::new(id, registry, timing, spec, cfg, durable);
    (drive(core, &transport, stop, Some(store)), transport)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;
    use csm_core::DecoderKind;
    use csm_statemachine::machines::bank_machine;
    use csm_storage::{CommitRecord, NodeStore};

    fn machine() -> CodedMachine<Fp61> {
        CodedMachine::new(8, 2, bank_machine(), DecoderKind::default()).unwrap()
    }

    fn scratch(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("csm-recovery-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// Exactly-once must survive a full restart: dedup horizons replayed
    /// from snapshot + WAL cover both the checkpointed prefix and the
    /// logged tail, so a committed client command can never re-execute
    /// after a crash.
    #[test]
    fn replay_recovers_state_and_dedup_horizons() {
        let m = machine();
        let dir = scratch("horizons");
        let genesis: Vec<Fp61> = vec![Fp61::from_u64(7)];
        let fingerprint = 0xF00D;
        {
            let (mut store, _) = NodeStore::open(&dir, fingerprint).unwrap();
            // snapshot at round 2 carrying client 8's horizon
            store.install_snapshot(2, vec![100], vec![(8, 1)]).unwrap();
            // rounds 2 and 3 in the log: client 9 commits seq 0, client 8
            // advances to seq 2; deltas +5 and +6
            store
                .append_commit(&CommitRecord {
                    round: 2,
                    digest: 0xA,
                    batch: vec![vec![9, 0, 0, 0x51, 40]],
                    state_delta: vec![5],
                    protocol: 0,
                    batch_cap: 1,
                })
                .unwrap();
            // round 3 is an aggregated round: client 8 committed seqs 1
            // and 2 in one program — the horizon folds to the max
            store
                .append_commit(&CommitRecord {
                    round: 3,
                    digest: 0xB,
                    batch: vec![vec![8, 1, 1, 0x53, 17], vec![8, 2, 1, 0x52, 41]],
                    state_delta: vec![6],
                    protocol: 0,
                    batch_cap: 2,
                })
                .unwrap();
        }
        let (_, recovered) = NodeStore::open(&dir, fingerprint).unwrap();
        let replayed = replay_local::<Fp61>(&m, &recovered, genesis.clone());
        assert_eq!(replayed.next_round, 4);
        assert_eq!(replayed.records, 2);
        assert_eq!(replayed.coded_state, vec![Fp61::from_u64(111)]);
        let horizons: Vec<(u64, u64)> = replayed.horizons.iter().map(|(&c, &s)| (c, s)).collect();
        assert_eq!(horizons, vec![(8, 2), (9, 0)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The wall-clock durable driver end to end: a command committed by a
    /// `run_durable_gateway` cluster is on every committer's store, and a
    /// node started again on its store resumes past genesis.
    #[test]
    fn durable_driver_persists_a_commit_across_a_restart() {
        use crate::{mesh_registry, BehaviorKind, StagingFault};
        use csm_client::{ClientConfig, CsmClient};
        use csm_transport::mem::MemMesh;
        use std::sync::atomic::Ordering;

        let (n, b) = (8, 2);
        let registry = mesh_registry(n, 1, 3);
        let mut transports = MemMesh::build(Arc::clone(&registry));
        let client = transports.pop().expect("client endpoint");
        let timing = ExchangeTiming::synchronous(b, Duration::from_millis(20));
        let cfg = GatewayConfig::new(n, b, &timing);
        let spec = GatewaySpec {
            machine: Arc::new(machine()),
            initial_states: vec![vec![Fp61::from_u64(100)], vec![Fp61::from_u64(200)]],
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        };
        let root = scratch("durable-driver");
        let durability = |id: usize| DurabilityConfig::new(root.join(format!("node-{id}")));
        let stop = Arc::new(AtomicBool::new(false));
        let nodes: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(id, transport)| {
                let (registry, timing) = (Arc::clone(&registry), timing.clone());
                let (spec, cfg, stop) = (spec.clone(), cfg.clone(), Arc::clone(&stop));
                let durability = durability(id);
                std::thread::spawn(move || {
                    run_durable_gateway(
                        transport,
                        registry,
                        timing,
                        &spec,
                        &cfg,
                        &durability,
                        &stop,
                    )
                })
            })
            .collect();
        let mut client = CsmClient::new(
            client,
            Arc::clone(&registry),
            ClientConfig::new(n, b, Duration::from_secs(2)),
        );
        let receipt = client.submit(1, vec![5]).expect("the command commits");
        assert_eq!(receipt.output, vec![205, 205]);
        stop.store(true, Ordering::Relaxed);
        let lives: Vec<_> = nodes
            .into_iter()
            .map(|h| h.join().expect("gateway thread"))
            .collect();
        // the stop is already raised: each restart recovers its store and
        // returns before running a round
        let mut resumed = 0;
        for (id, (report, transport)) in lives.into_iter().enumerate() {
            if report.digests().is_empty() {
                continue; // stopped before it committed the round
            }
            let registry = Arc::clone(&registry);
            let (again, _) = run_durable_gateway(
                transport,
                registry,
                timing.clone(),
                &spec,
                &cfg,
                &durability(id),
                &stop,
            );
            let recovery = again.recovery.expect("durable report");
            assert!(recovery.recovered_round > 0, "node {id}: {recovery:?}");
            resumed += 1;
        }
        assert!(resumed > b, "the reply quorum's nodes committed");
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A gap in the record rounds is a round the node skipped (its word
    /// did not decode): replay steps over it, and stops only at a record
    /// it cannot apply.
    #[test]
    fn replay_steps_over_skipped_rounds() {
        let m = machine();
        let dir = scratch("gap");
        let genesis: Vec<Fp61> = vec![Fp61::from_u64(0)];
        {
            let (mut store, _) = NodeStore::open(&dir, 1).unwrap();
            // round 2 was skipped; round 4's delta is malformed
            for (round, delta) in [(0u64, vec![1u64]), (1, vec![2]), (3, vec![4]), (4, vec![])] {
                store
                    .append_commit(&CommitRecord {
                        round,
                        digest: round,
                        batch: vec![vec![8, round, 0, 0, 1]],
                        state_delta: delta,
                        protocol: 0,
                        batch_cap: 1,
                    })
                    .unwrap();
            }
        }
        let (_, recovered) = NodeStore::open(&dir, 1).unwrap();
        let replayed = replay_local::<Fp61>(&m, &recovered, genesis);
        assert_eq!(replayed.next_round, 4, "round 3 follows the skipped round");
        assert_eq!(replayed.records, 3);
        assert_eq!(replayed.coded_state, vec![Fp61::from_u64(7)]);
        assert_eq!(replayed.horizons.get(&8), Some(&3));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
