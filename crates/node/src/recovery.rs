//! Crash recovery and rejoin: the durable gateway.
//!
//! [`run_durable_gateway`] runs the gateway core
//! ([`crate::core::GatewayCore`]) with the `csm-storage` persistence
//! subsystem so a node survives a hard kill. The core owns the store and
//! every step below happens inside it; this module holds the durability
//! knobs, the store fingerprint and the local replay fold:
//!
//! 1. **Log before acknowledging.** Every committed round's agreed batch,
//!    commit digest, and coded-state delta is appended (and fsynced) to
//!    the write-ahead commit log *before* the node announces the commit
//!    or replies to a client — an acknowledged round is always
//!    recoverable.
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
//!    the carried results hash to it** — a Byzantine peer can neither
//!    forge that quorum nor slip corrupted bytes past the digest check.
//!    The verified plaintext states are re-encoded at the node's own
//!    evaluation point (the coded-repair trick: recovery needs peers'
//!    words, not a trusted copy of its own).
//! 4. **Resync instead of fail-stop.** Where a plain gateway fail-stops
//!    on divergence (`b + 1` peers agreeing on a digest it does not
//!    hold), a durable gateway runs the same state transfer mid-run and
//!    rejoins at the cluster's round.

use crate::core::GatewayCore;
use crate::gateway::{drive, GatewayConfig, GatewayReport, GatewaySpec};
use crate::runtime::ExchangeTiming;
use crate::CodedMachine;
use csm_algebra::Field;
use csm_core::digest::splitmix64;
use csm_network::auth::KeyRegistry;
use csm_storage::Recovered;
use csm_transport::Transport;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    /// Wall clock of the whole startup recovery (open + replay + catch-up
    /// transfer), before the first round began.
    pub startup: Duration,
    /// Wall clock from runner start to the first *new* durable commit —
    /// the end-to-end recovery latency a restarted node observes.
    pub first_commit_after: Option<Duration>,
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
/// encoding), applies each consecutive record's coded-state delta and
/// folds its batch into the dedup horizons, and stops at the first gap
/// or malformed delta.
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
        if rec.round != next || rec.state_delta.len() != sd {
            break; // chain gap or malformed delta: stop at the last valid round
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
    let began = Instant::now();
    let id = transport.local_id().0;
    let core = GatewayCore::new(id, registry, timing, spec, cfg, Some(durability));
    let opened = began.elapsed();
    let mut report = drive(core, &transport, stop);
    // the core times its recovery from `start`; the open + replay before
    // it is part of what a restarted node waits for
    if let Some(info) = report.recovery.as_mut() {
        info.startup += opened;
        info.first_commit_after = info.first_commit_after.map(|d| d + opened);
    }
    (report, transport)
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

    /// A chain gap (missing round) stops replay at the last valid round
    /// — later records must not be folded into state or horizons.
    #[test]
    fn replay_stops_at_a_chain_gap() {
        let m = machine();
        let dir = scratch("gap");
        let genesis: Vec<Fp61> = vec![Fp61::from_u64(0)];
        {
            let (mut store, _) = NodeStore::open(&dir, 1).unwrap();
            for (round, delta) in [(0u64, 1u64), (1, 2), (3, 4)] {
                store
                    .append_commit(&CommitRecord {
                        round,
                        digest: round,
                        batch: vec![vec![8, round, 0, 0, 1]],
                        state_delta: vec![delta],
                        protocol: 0,
                        batch_cap: 1,
                    })
                    .unwrap();
            }
        }
        let (_, recovered) = NodeStore::open(&dir, 1).unwrap();
        let replayed = replay_local::<Fp61>(&m, &recovered, genesis);
        assert_eq!(
            replayed.next_round, 2,
            "round 3 is unreachable past the gap"
        );
        assert_eq!(replayed.coded_state, vec![Fp61::from_u64(3)]);
        assert_eq!(replayed.horizons.get(&8), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
