//! The sans-I/O gateway round machine: the one implementation of
//! admit → agree → execute → exchange → decode → log → reply.
//!
//! [`GatewayCore::step`] takes the driver's clock reading and one
//! [`Event`] — an *authenticated* frame or a timer the core armed
//! earlier — and returns the [`Effect`]s to perform, in order. The core
//! never sees a transport, a thread or a wall clock: the wall-clock
//! driver behind [`crate::run_gateway`] / [`crate::run_durable_gateway`]
//! and the virtual-clock driver of the chaos harness both just deliver
//! events and perform effects, so the round the chaos corpus verifies is
//! the round that ships. The contract is in `docs/PROTOCOL.md` ("Core
//! contract").
//!
//! The core does own its durable store: the write-ahead append happens
//! inside the step that commits, *before* the `Commit` broadcast and the
//! client replies are pushed as effects — WAL-before-ack is program
//! order here, not a driver obligation.
//!
//! Every frame passes the intake bounds (`GatewayCore::intake`) before
//! it can touch state: identity binding (a claimed `sender`/`client`
//! must be the MAC signer), protocol frames only from cluster ids, the
//! `ROUND_LOOKAHEAD` window, first frame per `(round, signer)`, size
//! and inbox caps, one request slot per peer — a validly keyed Byzantine
//! peer or client can neither grow memory without bound nor park a
//! poisoned command in the queue.

use crate::consensus::{
    equivocation_variant, overcap_variant, pbft_from_wire, pbft_to_wire, relay_payload,
    ConsensusKind, StagingFault,
};
use crate::gateway::{
    batch_valid, chunk_after_fault, decode_batch, encode_batch, reply_after_fault, reply_payload,
    Admission, BatchEntry, EventScope, GatewayConfig, GatewayReport, GatewaySpec, GatewayStats,
};
use crate::recovery::{replay_local, store_fingerprint, DurabilityConfig, RecoveryInfo};
use crate::runtime::{result_payload, ExchangeTiming};
use crate::{wire_behavior, BehaviorKind};
use csm_algebra::Field;
use csm_consensus::batch::{BatchRows, DsBatch, DsRelay, PbftBatch, PbftBatchConfig, PbftBatchMsg};
use csm_core::digest::digest_results;
use csm_core::engine::{CodedMachine, RoundCommit, RoundEngine};
use csm_core::exchange::{equivocation_noise, ReceiverCore, ResultBehavior};
use csm_core::SynchronyMode;
use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use csm_storage::{CommitRecord, NodeStore};
use csm_telemetry::{
    Event as Incident, Phase, RecordingSink, RoundSpan, SharedSink, TeeSink, TelemetrySnapshot,
};
use csm_transport::{Frame, Payload, TransportStats, ViewChangeWire};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::sync::Arc;
use std::time::Duration;

/// How many rounds ahead of the current one staging, consensus, result
/// and commit frames are buffered; anything further out is dropped
/// (equivalent to the sender withholding, which the protocol tolerates).
const ROUND_LOOKAHEAD: u64 = 64;

/// Largest `u64` count one buffered frame may carry (result vector,
/// batch rows, consensus certificate, state chunk, client command).
const PENDING_MAX_VALUES: usize = 4096;

/// Cap on `Submit` frames awaiting the next admission pass. A flood past
/// it is dropped and counted (`inbox_dropped`); clients time out and
/// retry.
const CLIENT_INBOX_CAP: usize = 8192;

/// Cap on `Query` frames awaiting the next read pass.
const QUERY_INBOX_CAP: usize = 8192;

/// Cap on buffered batch-consensus frames per round: an honest round
/// needs a few per peer, so this bounds what `b` validly keyed Byzantine
/// peers can park in a future round.
const CONSENSUS_ROUND_CAP: usize = 4096;

/// How many trailing rounds the desync check inspects (commit gossip for
/// a round keeps arriving during the following rounds).
const DESYNC_WINDOW: u64 = 4;

/// Which of the core's one-shot timers fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TimerKind {
    /// Start the next round (pacing after the previous one).
    Next,
    /// Leader-echo / Dolev–Strong staging deadline.
    Stage,
    /// Exchange finalization deadline (Δ, or `max_wait` under partial
    /// synchrony).
    Exchange,
    /// PBFT view timeout (`epoch` = the view).
    Pbft,
    /// State-transfer attempt deadline (`epoch` = the attempt).
    Resync,
}

impl TimerKind {
    /// Number of timer kinds — at most one timer per kind is ever live,
    /// so a driver may keep one slot per kind.
    pub const COUNT: usize = 5;
}

/// Identity of a one-shot timer: the core ignores a fired timer whose id
/// no longer matches what it is waiting for, so drivers never cancel —
/// they may drop a timer superseded by a later one of the same kind, or
/// deliver it late.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct TimerId {
    /// What the timer is for.
    pub kind: TimerKind,
    /// The wire round it was armed in.
    pub round: u64,
    /// Distinguishes re-armed timers of one kind within a round: the PBFT
    /// view, the resync attempt, `0` otherwise.
    pub epoch: u64,
}

/// One input to [`GatewayCore::step`].
#[derive(Debug, Clone)]
pub enum Event {
    /// A frame whose MAC the driver (its transport) already verified
    /// against the claimed signer.
    Frame(Frame),
    /// A timer armed by an earlier [`Effect::SetTimer`] is due.
    Timer(TimerId),
}

/// Why the core stopped for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HaltReason {
    /// `b + 1` peers agree on a commit digest this (plain) node does not
    /// hold for `witness_round`: everything it committed from there on
    /// was computed on divergent state.
    Desync {
        /// The earliest round with the opposing quorum.
        witness_round: u64,
    },
    /// [`GatewayConfig::max_rounds`] reached.
    MaxRounds,
    /// The injected snapshot-install fault fired
    /// ([`GatewayCore::fail_snapshot_at`]): the round is in the log, the
    /// snapshot is not, nothing was acknowledged — treat as a crash.
    StoreFault,
}

/// One output of [`GatewayCore::step`]; perform them in order.
#[derive(Debug, Clone)]
pub enum Effect {
    /// Send a signed frame to one mesh endpoint.
    Send {
        /// The destination endpoint id.
        to: usize,
        /// The frame, already signed.
        frame: Frame,
    },
    /// Send a signed frame to every cluster node but this one.
    Broadcast(Frame),
    /// Deliver `Event::Timer(id)` once the clock reaches `at_us`.
    SetTimer {
        /// Absolute due time on the driver's clock.
        at_us: u64,
        /// The timer's identity.
        id: TimerId,
    },
    /// Stop delivering events: the core is finished.
    Halt(HaltReason),
}

/// Per-round staging state, one variant per consensus backend.
enum Staging {
    /// Leader-echo: when this node echoed (or proposed), if it did.
    Echo { echoed_at: Option<u64> },
    /// Dolev–Strong broadcast state and when a relay last advanced it.
    Ds { ds: DsBatch, last_needed: u64 },
    /// PBFT instance and when its current view began.
    Pbft {
        pbft: Box<PbftBatch>,
        view_started: u64,
    },
}

/// A peer's answer to a state-transfer request: one slot per peer, so
/// `b` Byzantine peers occupy at most `b` slots and never evict honest
/// answers.
struct ChunkEntry {
    round: u64,
    digest: u64,
    results: Vec<Vec<u64>>,
}

/// What the core is doing between events.
enum PhaseState<F: Field> {
    /// Waiting for the next-round pacing timer.
    Idle,
    /// Agreeing on the round's batch.
    Staging(Staging),
    /// Result sent; collecting the word.
    Exchanging {
        receiver: ReceiverCore<F>,
        batch: Vec<BatchEntry>,
        /// When the result went out, and when a result last arrived.
        started: u64,
        last_progress: u64,
    },
    /// Durable state transfer in flight. `sticky` triggers (behind or
    /// diverged) re-arm on timeout; a fail-streak or startup trigger
    /// gives up after one window and rejoins the rounds.
    Resyncing {
        chunks: BTreeMap<usize, ChunkEntry>,
        sticky: bool,
        attempt: u64,
    },
    /// Stopped for good.
    Halted,
}

/// The durable half of a core: the store plus snapshot cadence.
struct Durable {
    store: NodeStore,
    snapshot_interval: u64,
    transfer_timeout: u64,
    commits_since_snapshot: u64,
    /// Still in the startup catch-up (the first transfer attempt of a
    /// node whose store had history).
    starting: bool,
    /// Halt instead of installing the snapshot with this 1-based ordinal.
    fail_snapshot_at: Option<u64>,
    info: RecoveryInfo,
}

/// One CSM gateway node as a pure round machine.
pub struct GatewayCore<F: Field> {
    id: usize,
    cluster: usize,
    faults: usize,
    batch_cap: usize,
    machine: Arc<CodedMachine<F>>,
    registry: Arc<KeyRegistry>,
    behavior: BehaviorKind,
    staging_fault: StagingFault,
    timing: ExchangeTiming,
    cfg: GatewayConfig,
    /// Always-on aggregation (scrapes, flight dumps), teed into `sink`
    /// with the config's extra sink when one is injected.
    recording: Arc<RecordingSink>,
    sink: SharedSink,

    engine: RoundEngine<F>,
    admission: Admission,
    /// The wire round counter — advances every round *attempt*, commit
    /// or not.
    round: u64,
    round_entered: u64,
    phase: PhaseState<F>,
    commits: VecDeque<Option<RoundCommit<F>>>,
    first_recorded_round: u64,
    fail_streak: u32,
    durable: Option<Durable>,
    started_us: u64,

    // bounded intake buffers, pruned at every round start
    stages: BTreeMap<u64, BTreeMap<usize, BatchRows>>,
    consensus: BTreeMap<u64, Vec<Frame>>,
    results: BTreeMap<u64, BTreeMap<usize, Vec<F>>>,
    commit_votes: BTreeMap<u64, BTreeMap<usize, u64>>,
    submit_inbox: Vec<Frame>,
    query_inbox: Vec<Frame>,
    state_requests: BTreeMap<usize, u64>,
    telemetry_requests: BTreeMap<usize, u64>,

    // incident bookkeeping
    dumped_peers: BTreeSet<usize>,
    dumped_decode_failure: bool,
    seen_bad_mac: BTreeMap<usize, u64>,
    transport_counters: Vec<(String, u64)>,

    now: u64,
    out: Vec<Effect>,
}

impl<F: Field> std::fmt::Debug for GatewayCore<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GatewayCore")
            .field("id", &self.id)
            .field("round", &self.round)
            .field("stats", &self.admission.stats)
            .finish_non_exhaustive()
    }
}

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// Rows plus their nesting: a batch of millions of *empty* rows is as
/// hostile as one of millions of values.
fn rows_weight(rows: &[Vec<u64>]) -> usize {
    rows.len() + rows.iter().map(Vec::len).sum::<usize>()
}

/// The buffering weight of a consensus payload: every `u64` its batch
/// rows carry, including rows nested inside view-change certificates.
fn consensus_weight(payload: &Payload) -> usize {
    fn vc_weight(vc: &ViewChangeWire) -> usize {
        vc.prepared
            .as_ref()
            .map_or(1, |cert| 1 + rows_weight(&cert.rows) + cert.sigs.len())
    }
    match payload {
        Payload::BatchRelay { rows, chain, .. } => rows_weight(rows) + chain.len(),
        Payload::BatchVote { rows, .. } => rows_weight(rows),
        Payload::BatchViewChange { vote, .. } => vc_weight(vote),
        Payload::BatchNewView {
            rows,
            justification,
            ..
        } => rows_weight(rows) + justification.iter().map(vc_weight).sum::<usize>(),
        _ => 0,
    }
}

/// Tallies `votes` by digest, ignoring `me`'s own.
fn digest_tallies(votes: &BTreeMap<usize, u64>, me: usize) -> BTreeMap<u64, usize> {
    let mut tallies = BTreeMap::new();
    for (&node, &digest) in votes {
        if node != me {
            *tallies.entry(digest).or_insert(0) += 1;
        }
    }
    tallies
}

impl<F: Field> GatewayCore<F> {
    /// Builds node `id` of the cluster `cfg` describes. With `durability`
    /// the store is opened (and created, with a genesis checkpoint, if
    /// fresh) and `snapshot + log` replayed: the core resumes at its last
    /// durable round with the recovered dedup horizons.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not match `cfg` (cluster size, program
    /// cap, backend minimum), the initial states are malformed, or the
    /// store cannot be opened — a node that cannot persist must not
    /// serve.
    pub fn new(
        id: usize,
        registry: Arc<KeyRegistry>,
        timing: ExchangeTiming,
        spec: &GatewaySpec<F>,
        cfg: &GatewayConfig,
        durability: Option<&DurabilityConfig>,
    ) -> Self {
        let cluster = cfg.cluster;
        assert_eq!(
            spec.machine.n(),
            cluster,
            "machine sized for a different cluster"
        );
        assert!(id < cluster, "gateway runs on cluster nodes only");
        let batch_cap = cfg.batch_cap.max(1);
        assert!(
            batch_cap <= spec.machine.max_program_len(),
            "batch_cap {batch_cap} exceeds the machine's program cap {} — \
             size the code dimension with CodedMachine::with_program_cap",
            spec.machine.program_cap()
        );
        assert!(
            cluster >= cfg.consensus.min_cluster(cfg.assumed_faults),
            "{} needs a cluster of at least {} for b = {}",
            cfg.consensus,
            cfg.consensus.min_cluster(cfg.assumed_faults),
            cfg.assumed_faults
        );
        let mut engine = RoundEngine::new(Arc::clone(&spec.machine), id, &spec.initial_states)
            .expect("spec states match the machine");
        let mut admission = Admission::default();
        let durable = durability.map(|d| {
            let fingerprint = store_fingerprint(&spec.machine, id, &spec.initial_states);
            let (mut store, recovered) =
                NodeStore::open(&d.dir, fingerprint).expect("open durable store");
            let replayed = replay_local(&spec.machine, &recovered, engine.coded_state().to_vec());
            engine
                .restore(replayed.coded_state, replayed.next_round)
                .expect("replayed state is state-dim wide");
            if recovered.is_fresh() {
                // genesis checkpoint: anchors the log so the very first
                // crash already recovers through the snapshot path
                store
                    .install_snapshot(0, engine.coded_state_canonical(), Vec::new())
                    .expect("snapshot install failed");
            }
            // exactly-once must survive restarts: the replayed dedup
            // horizons are part of the recovered state
            admission.horizon = replayed.horizons;
            Durable {
                store,
                snapshot_interval: d.snapshot_interval.max(1),
                transfer_timeout: micros(d.transfer_timeout),
                commits_since_snapshot: replayed.records,
                // a store with history means this node lived before: the
                // cluster may have committed past its durable frontier
                starting: !recovered.is_fresh(),
                fail_snapshot_at: None,
                info: RecoveryInfo {
                    recovered_round: replayed.next_round,
                    wal_records_replayed: replayed.records,
                    torn_tail: recovered.torn_tail,
                    ..RecoveryInfo::default()
                },
            }
        });
        let recording = Arc::new(RecordingSink::with_capacity(cfg.flight_ring));
        let sink: SharedSink = match &cfg.sink {
            Some(extra) => Arc::new(TeeSink::new(vec![
                Arc::clone(&recording) as SharedSink,
                Arc::clone(extra),
            ])),
            None => Arc::clone(&recording) as SharedSink,
        };
        let round = engine.round();
        GatewayCore {
            id,
            cluster,
            faults: cfg.assumed_faults,
            batch_cap,
            machine: Arc::clone(&spec.machine),
            registry,
            behavior: spec.behavior,
            staging_fault: spec.staging_fault,
            timing,
            cfg: cfg.clone(),
            recording,
            sink,
            engine,
            admission,
            round,
            round_entered: 0,
            phase: PhaseState::Idle,
            commits: VecDeque::new(),
            first_recorded_round: round,
            fail_streak: 0,
            durable,
            started_us: 0,
            stages: BTreeMap::new(),
            consensus: BTreeMap::new(),
            results: BTreeMap::new(),
            commit_votes: BTreeMap::new(),
            submit_inbox: Vec::new(),
            query_inbox: Vec::new(),
            state_requests: BTreeMap::new(),
            telemetry_requests: BTreeMap::new(),
            dumped_peers: BTreeSet::new(),
            dumped_decode_failure: false,
            seen_bad_mac: BTreeMap::new(),
            transport_counters: Vec::new(),
            now: 0,
            out: Vec::new(),
        }
    }

    // -- driver-facing accessors -----------------------------------------

    /// Protocol mesh size `N` (the reach of [`Effect::Broadcast`]).
    pub fn cluster(&self) -> usize {
        self.cluster
    }

    /// The wire round in progress (or about to start).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The admission/reply counters so far.
    pub fn stats(&self) -> &GatewayStats {
        &self.admission.stats
    }

    /// Whether the core has stopped for good.
    pub fn halted(&self) -> bool {
        matches!(self.phase, PhaseState::Halted)
    }

    /// Whether the core is inside a round's bounded waits (a deadline
    /// staging or the exchange): a driver asked to stop lets those run
    /// out, so a round peers are counting on is finished and answered —
    /// only PBFT staging, which has no deadline, is abandoned.
    pub fn mid_round(&self) -> bool {
        matches!(
            self.phase,
            PhaseState::Exchanging { .. }
                | PhaseState::Staging(Staging::Echo { .. } | Staging::Ds { .. })
        )
    }

    /// Whether a state transfer is in flight.
    pub fn resyncing(&self) -> bool {
        matches!(self.phase, PhaseState::Resyncing { .. })
    }

    /// The telemetry sink the core reports into (drivers attribute what
    /// only they can see — e.g. a rejected MAC — through it).
    pub fn sink(&self) -> &SharedSink {
        &self.sink
    }

    /// The highest committed sequence number per client (the dedup
    /// horizon — after a durable restart, what `snapshot + log` proved).
    pub fn horizons(&self) -> &BTreeMap<u64, u64> {
        &self.admission.horizon
    }

    /// Arms the snapshot-install failpoint: instead of installing its
    /// `ordinal`-th (1-based) interval snapshot the core halts with
    /// [`HaltReason::StoreFault`] — the log already holds the round, the
    /// snapshot rename "never happened". Chaos-harness only.
    pub fn fail_snapshot_at(&mut self, ordinal: u64) {
        if let Some(d) = self.durable.as_mut() {
            d.fail_snapshot_at = Some(ordinal);
        }
    }

    /// Folds the driver's transport counters in: fresh per-peer MAC
    /// rejections surface as [`Incident::MacRejected`] events, and the
    /// exact totals ride along in the next telemetry reply.
    pub fn observe_transport(&mut self, stats: &TransportStats) {
        let (delivered, bad_mac, malformed) = stats.snapshot();
        let mut counters = vec![
            ("transport_delivered".to_string(), delivered),
            ("transport_malformed".to_string(), malformed),
            // exact transport totals override the sink's event counts
            ("mac_rejected".to_string(), bad_mac),
        ];
        if bad_mac > 0 {
            for (peer, total) in stats.bad_mac_by_peer() {
                let seen = self.seen_bad_mac.entry(peer).or_insert(0);
                if total > *seen {
                    *seen = total;
                    self.sink
                        .event(self.id, self.round, Some(peer), Incident::MacRejected);
                }
                counters.push((format!("mac_rejected.peer{peer}"), total));
            }
        }
        self.transport_counters = counters;
    }

    /// The node's telemetry so far — what a scrape reply carries: the
    /// recording sink's phase histograms and event counters folded with
    /// the admission counters and the transport counters last observed.
    /// Self-reported and MAC-bound but **not** quorum-validated: a
    /// Byzantine node can lie in its snapshot, so observers must treat
    /// per-node telemetry as claims, not protocol facts.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        let mut extra = gateway_counters(&self.admission.stats);
        extra.extend(self.transport_counters.iter().cloned());
        self.recording.snapshot(self.id, self.round, &extra)
    }

    /// Consumes the core into the run's report.
    pub fn into_report(self) -> GatewayReport<F> {
        GatewayReport {
            id: self.id,
            commits: self.commits.into(),
            first_recorded_round: self.first_recorded_round,
            rounds: self.round,
            stats: self.admission.stats,
            recovery: self.durable.map(|d| d.info),
        }
    }

    // -- the entry points ------------------------------------------------

    /// Starts the machine at `now_us`: a node whose store had history
    /// first tries to catch up from its peers, everyone else starts its
    /// first round.
    pub fn start(&mut self, now_us: u64) -> Vec<Effect> {
        self.now = now_us;
        self.started_us = now_us;
        if self.durable.as_ref().is_some_and(|d| d.starting) {
            self.enter_resync(false);
        } else {
            self.set_timer(TimerKind::Next, now_us, 0);
        }
        std::mem::take(&mut self.out)
    }

    /// Advances the machine by one event at driver time `now_us`
    /// (monotonic microseconds) and returns what to do about it.
    pub fn step(&mut self, now_us: u64, event: Event) -> Vec<Effect> {
        if self.halted() {
            return Vec::new();
        }
        self.now = now_us;
        match event {
            Event::Frame(frame) => self.intake(frame),
            Event::Timer(id) => self.on_timer(id),
        }
        std::mem::take(&mut self.out)
    }

    // -- effect and telemetry helpers ------------------------------------

    fn send(&mut self, to: usize, payload: Payload) {
        let frame = Frame::sign(payload, &self.registry, NodeId(self.id));
        self.out.push(Effect::Send { to, frame });
    }

    fn broadcast(&mut self, payload: Payload) {
        let frame = Frame::sign(payload, &self.registry, NodeId(self.id));
        self.out.push(Effect::Broadcast(frame));
    }

    fn set_timer(&mut self, kind: TimerKind, at_us: u64, epoch: u64) {
        let id = TimerId {
            kind,
            round: self.round,
            epoch,
        };
        self.out.push(Effect::SetTimer { at_us, id });
    }

    fn halt(&mut self, reason: HaltReason) {
        self.phase = PhaseState::Halted;
        self.out.push(Effect::Halt(reason));
    }

    fn incident(&self, peer: Option<usize>, incident: Incident) {
        self.sink.event(self.id, self.round, peer, incident);
    }

    fn lap(&self, phase: Phase, from: u64, to: u64) {
        self.sink.phase(
            self.id,
            self.round,
            phase,
            Duration::from_micros(to.saturating_sub(from)),
        );
    }

    fn value(&self, name: &str, value: u64) {
        self.sink.value(self.id, self.round, name, value);
    }

    fn flight_dump(&self, reason: &str) {
        if let Some(dir) = &self.cfg.flight_dir {
            if let Err(e) = self.recording.dump(dir, self.id, self.round, reason) {
                csm_telemetry::warn!("node {}: flight dump ({reason}) failed: {e}", self.id);
            }
        }
    }

    fn leader(&self) -> usize {
        (self.round % self.cluster as u64) as usize
    }

    /// Whether `round` is the current one or within the lookahead.
    fn in_window(&self, round: u64) -> bool {
        round >= self.round && round - self.round <= ROUND_LOOKAHEAD
    }

    /// The shared batch-validity predicate (client MACs, shape, dedup
    /// horizon) against this node's current admission state.
    fn valid(&self, rows: &[Vec<u64>]) -> bool {
        batch_valid(
            rows,
            &self.machine,
            self.batch_cap,
            &self.registry,
            &self.admission.horizon,
        )
    }

    // -- frame intake: every bound a hostile frame meets -----------------

    /// Routes one authenticated frame: current-round protocol traffic is
    /// consumed at once, the rest is buffered within the bounds above or
    /// dropped.
    fn intake(&mut self, frame: Frame) {
        let from = frame.sig.signer.0;
        let from_cluster = from < self.cluster;
        match frame.payload {
            Payload::Stage {
                round,
                sender,
                commands,
            } => {
                if !from_cluster
                    || sender != from as u64
                    || !self.in_window(round)
                    || rows_weight(&commands) > PENDING_MAX_VALUES
                {
                    return;
                }
                let votes = self.stages.entry(round).or_default();
                if votes.contains_key(&from) {
                    return; // first vote per (round, signer) wins
                }
                votes.insert(from, commands);
                if round == self.round
                    && matches!(self.phase, PhaseState::Staging(Staging::Echo { .. }))
                {
                    self.on_stage_vote(from);
                }
            }
            Payload::BatchRelay { round, .. }
            | Payload::BatchVote { round, .. }
            | Payload::BatchViewChange { round, .. }
            | Payload::BatchNewView { round, .. } => {
                if !from_cluster
                    || !self.in_window(round)
                    || consensus_weight(&frame.payload) > PENDING_MAX_VALUES
                {
                    return;
                }
                if round == self.round
                    && matches!(
                        self.phase,
                        PhaseState::Staging(Staging::Ds { .. } | Staging::Pbft { .. })
                    )
                {
                    self.on_consensus_frame(frame);
                } else {
                    let slot = self.consensus.entry(round).or_default();
                    if slot.len() < CONSENSUS_ROUND_CAP {
                        slot.push(frame);
                    }
                }
            }
            Payload::Result {
                round,
                sender,
                values,
            } => {
                if !from_cluster
                    || sender != from as u64
                    || !self.in_window(round)
                    || values.len() > PENDING_MAX_VALUES
                {
                    return;
                }
                let vector: Vec<F> = values.iter().map(|&v| F::from_u64(v)).collect();
                if round == self.round {
                    if let PhaseState::Exchanging {
                        receiver,
                        last_progress,
                        ..
                    } = &mut self.phase
                    {
                        let held = receiver.results_held();
                        receiver.record(from, vector);
                        if receiver.results_held() > held {
                            *last_progress = self.now;
                            self.check_exchange_done();
                        }
                        return;
                    }
                }
                self.results
                    .entry(round)
                    .or_default()
                    .entry(from)
                    .or_insert(vector);
            }
            Payload::Commit {
                round,
                sender,
                digest,
            } => {
                // commit gossip trails its round: keep a window behind
                // the current round as well as ahead of it
                let near = round <= self.round.saturating_add(ROUND_LOOKAHEAD)
                    && round.saturating_add(ROUND_LOOKAHEAD) >= self.round;
                if from_cluster && sender == from as u64 && near {
                    self.commit_votes
                        .entry(round)
                        .or_default()
                        .entry(from)
                        .or_insert(digest);
                }
            }
            Payload::Submit {
                client,
                ref command,
                ..
            } => {
                // the claimed client must be the MAC signer and a
                // *client* id — nodes cannot pose as clients, and one
                // client cannot queue a command in another's name
                if client != from as u64 || from_cluster || command.len() > PENDING_MAX_VALUES {
                    return;
                }
                if self.submit_inbox.len() >= CLIENT_INBOX_CAP {
                    self.admission.stats.inbox_dropped += 1;
                    return;
                }
                self.submit_inbox.push(frame);
            }
            Payload::Query { client, .. } => {
                if client != from as u64 || from_cluster {
                    return;
                }
                if self.query_inbox.len() < QUERY_INBOX_CAP {
                    self.query_inbox.push(frame);
                }
            }
            Payload::StateRequest { from_round } => {
                // one slot per requesting peer, last request wins
                if from_cluster && from != self.id {
                    self.state_requests.insert(from, from_round);
                }
            }
            Payload::StateChunk {
                round,
                digest,
                results,
            } => {
                if !from_cluster || rows_weight(&results) > PENDING_MAX_VALUES {
                    return;
                }
                if let PhaseState::Resyncing { chunks, .. } = &mut self.phase {
                    chunks.insert(
                        from,
                        ChunkEntry {
                            round,
                            digest,
                            results,
                        },
                    );
                    self.try_install_transfer();
                }
            }
            Payload::TelemetryRequest { nonce } => {
                // any registered identity may scrape (telemetry is
                // read-only and self-reported); one slot per requester
                if from != self.id {
                    self.telemetry_requests.insert(from, nonce);
                }
            }
            // replies are client-bound; pings carry nothing
            Payload::Reply { .. }
            | Payload::QueryReply { .. }
            | Payload::TelemetryReply { .. }
            | Payload::Ping { .. } => {}
        }
    }

    fn on_timer(&mut self, id: TimerId) {
        if id.round != self.round {
            return; // armed in a round this node has left
        }
        match (id.kind, &self.phase) {
            (TimerKind::Next, PhaseState::Idle) => self.start_round(),
            (TimerKind::Stage, PhaseState::Staging(Staging::Echo { .. })) => {
                self.finish_staging(None)
            }
            (TimerKind::Stage, PhaseState::Staging(Staging::Ds { ds, last_needed })) => {
                // Dolev–Strong agrees on *bytes*, not validity: the
                // predicate is deterministic and identical on every
                // honest node, so filtering here keeps agreement — all
                // adopt the batch or fall back together
                let decided = ds.decide().filter(|rows| self.valid(rows));
                self.lap(Phase::ConsensusRelay, self.round_entered, self.now);
                self.value("slack.consensus", self.now.saturating_sub(*last_needed));
                self.finish_staging(decided);
            }
            (TimerKind::Pbft, PhaseState::Staging(Staging::Pbft { pbft, .. }))
                if pbft.view() == id.epoch && pbft.decided().is_none() =>
            {
                // no view-change quorum yet re-votes after another timeout
                self.drive_pbft(true, |pbft, valid| pbft.on_timeout(valid));
            }
            (TimerKind::Exchange, PhaseState::Exchanging { .. }) => self.finish_exchange(true),
            (
                TimerKind::Resync,
                PhaseState::Resyncing {
                    sticky, attempt, ..
                },
            ) if *attempt == id.epoch => {
                if *sticky {
                    // the peers that committed ahead will answer a retry
                    self.serve_requests();
                    self.enter_resync(true);
                } else {
                    // no quorum to transfer from (fresh cluster-wide
                    // boot, or cluster-wide trouble): join the rounds
                    self.end_startup(None);
                    self.phase = PhaseState::Idle;
                    self.set_timer(TimerKind::Next, self.now, 0);
                }
            }
            _ => {}
        }
    }

    // -- round lifecycle -------------------------------------------------

    /// Begins the next round: prune buffers, serve read-only requests,
    /// run the divergence check, admit clients, then stage the batch.
    fn start_round(&mut self) {
        if self.round >= self.cfg.max_rounds {
            return self.halt(HaltReason::MaxRounds);
        }
        self.round_entered = self.now;
        let round = self.round;
        self.stages.retain(|&r, _| r >= round);
        self.consensus.retain(|&r, _| r >= round);
        self.results.retain(|&r, _| r >= round);
        self.commit_votes
            .retain(|&r, _| r.saturating_add(ROUND_LOOKAHEAD) >= round);
        self.serve_requests();

        // `b + 1` peers agreeing on a commit this node does not hold
        // proves an honest majority moved on without it (at most `b`
        // collude). A plain node fail-stops — on strictly-past rounds
        // only: a lagging node must not kill itself over a round it is
        // about to commit from its buffers. A durable node recovers via
        // state transfer, and also treats "peers committed my current
        // round or later" and a decode-failure streak as triggers.
        let diverged = self.check_desynced();
        if self.durable.is_some() {
            let behind = self.commit_quorum_frontier().is_some_and(|r| r >= round);
            if behind || diverged.is_some() || self.fail_streak >= 2 {
                self.fail_streak = 0;
                return self.enter_resync(behind || diverged.is_some());
            }
        } else if let Some(witness_round) = diverged {
            self.admission.stats.desynced = true;
            self.incident(None, Incident::Desync);
            self.flight_dump("desync");
            return self.halt(HaltReason::Desync { witness_round });
        }

        let frames = std::mem::take(&mut self.submit_inbox);
        let scope = EventScope {
            sink: self.sink.as_ref(),
            node: self.id,
            round,
        };
        let replays = self.admission.admit(
            frames,
            self.machine.k(),
            self.machine.transition().input_dim(),
            &self.cfg,
            &scope,
        );
        for (client, payload) in replays {
            // cache replays go through the same Byzantine reply filter as
            // first-time replies: a withholder stays silent on retries too
            if let Some(payload) = reply_after_fault(payload, self.behavior) {
                self.send(client as usize, payload);
            }
        }
        if self.behavior == BehaviorKind::Equivocate {
            // wire-level misbehavior to go with the result equivocation:
            // each round, forge one frame in the next peer's name. Honest
            // receivers drop it on MAC failure and attribute the
            // rejection to the *claimed* signer.
            let victim = NodeId((self.id + 1) % self.cluster);
            let ping = Payload::Ping { nonce: round };
            let forged = Frame::forge(ping, &self.registry, NodeId(self.id), victim);
            self.out.push(Effect::Broadcast(forged));
        }
        let proposal = encode_batch(&self.admission.build_batch(self.machine.k(), self.batch_cap));
        self.enter_staging(proposal);
    }

    /// The equivocating-leader fan-out every backend shares: the honest
    /// `proposal` to even-id peers, its truncated (still valid) variant
    /// to odd-id peers, each wrapped by `payload_for`.
    fn send_equivocation(
        &mut self,
        proposal: &BatchRows,
        mut payload_for: impl FnMut(BatchRows) -> Payload,
    ) {
        let (alt, me) = (equivocation_variant(proposal), self.id);
        for peer in (0..self.cluster).filter(|&p| p != me) {
            let rows = if peer % 2 == 0 { proposal } else { &alt };
            let payload = payload_for(rows.clone());
            self.send(peer, payload);
        }
    }

    /// Starts the round's batch agreement — this node's `proposal` is
    /// used when it leads (or, under PBFT view changes, becomes primary)
    /// — and replays staging traffic that arrived early.
    fn enter_staging(&mut self, proposal: BatchRows) {
        let (round, me, leader) = (self.round, self.id, self.leader());
        let leading = me == leader;
        match self.cfg.consensus {
            ConsensusKind::LeaderEcho => {
                let stage = |commands| Payload::Stage {
                    round,
                    sender: me as u64,
                    commands,
                };
                let mut own = None;
                if leading {
                    match self.staging_fault {
                        StagingFault::None => own = Some(proposal),
                        StagingFault::WithholdBatch => {}
                        StagingFault::EquivocateBatch => {
                            // the Byzantine leader executes the full
                            // batch itself: it knows its own proposal,
                            // waiting for an echo quorum would only
                            // blunt the attack
                            self.send_equivocation(&proposal, stage);
                            self.phase = PhaseState::Staging(Staging::Echo { echoed_at: None });
                            return self.finish_staging(Some(proposal));
                        }
                        // followers refuse to echo the ill-formed
                        // program, so everyone falls back together
                        StagingFault::OverCapBatch => own = Some(overcap_variant(&proposal)),
                    }
                }
                let echoed_at = own.is_some().then_some(self.now);
                if let Some(rows) = own {
                    self.broadcast(stage(rows.clone()));
                    self.stages.entry(round).or_default().insert(me, rows);
                    self.lap(Phase::ConsensusPropose, self.now, self.now);
                }
                self.phase = PhaseState::Staging(Staging::Echo { echoed_at });
                let deadline = self.now + 2 * micros(self.cfg.stage_timeout);
                self.set_timer(TimerKind::Stage, deadline, 0);
                self.on_stage_vote(leader);
            }
            ConsensusKind::DolevStrong => {
                let mut ds = DsBatch::new(
                    round,
                    self.cluster,
                    self.faults,
                    leader,
                    me,
                    Arc::clone(&self.registry),
                );
                if leading {
                    match self.staging_fault {
                        StagingFault::None => {
                            self.broadcast(relay_payload(round, &ds.propose(proposal)))
                        }
                        StagingFault::WithholdBatch => {}
                        StagingFault::EquivocateBatch => {
                            self.send_equivocation(&proposal, |rows| {
                                let chain = vec![ds.sign_value(&rows)];
                                relay_payload(round, &DsRelay { rows, chain })
                            });
                        }
                        // DS agrees on the bytes; the post-decision
                        // validity filter rejects them everywhere alike
                        StagingFault::OverCapBatch => {
                            let relay = ds.propose(overcap_variant(&proposal));
                            self.broadcast(relay_payload(round, &relay));
                        }
                    }
                }
                self.lap(Phase::ConsensusPropose, self.now, self.now);
                self.phase = PhaseState::Staging(Staging::Ds {
                    ds,
                    last_needed: self.now,
                });
                // relay rounds 1..=b+1 plus one of grace: a value the
                // latest-entering honest node extracts at the edge of its
                // round b + 1 must still reach the earliest-entering one
                let window = micros(self.cfg.consensus_delta) * (self.faults as u64 + 2);
                self.set_timer(TimerKind::Stage, self.now + window, 0);
                self.replay_consensus_buffer();
            }
            ConsensusKind::Pbft => {
                let cfg = PbftBatchConfig {
                    n: self.cluster,
                    f: self.faults,
                    round,
                    leader,
                    base_timeout: self.cfg.stage_timeout,
                };
                let overcap = leading && self.staging_fault == StagingFault::OverCapBatch;
                // honest replicas refuse to prepare an ill-formed
                // program; the view change rotates past its proposer
                let own = if overcap {
                    overcap_variant(&proposal)
                } else {
                    proposal.clone()
                };
                let pbft = PbftBatch::new(cfg, me, Arc::clone(&self.registry), own);
                let view_timeout = micros(pbft.config().timeout_of(0));
                let silent = leading
                    && match self.staging_fault {
                        StagingFault::WithholdBatch => true,
                        StagingFault::EquivocateBatch => {
                            self.send_equivocation(&proposal, |rows| {
                                pbft_to_wire(round, &pbft.sign_pre_prepare(0, rows))
                            });
                            true
                        }
                        _ => false,
                    };
                self.phase = PhaseState::Staging(Staging::Pbft {
                    pbft: Box::new(pbft),
                    view_started: self.now,
                });
                self.set_timer(TimerKind::Pbft, self.now + view_timeout, 0);
                if !silent {
                    self.drive_pbft(false, |pbft, valid| pbft.start(valid));
                }
                self.replay_consensus_buffer();
            }
        }
    }

    fn replay_consensus_buffer(&mut self) {
        for frame in self.consensus.remove(&self.round).unwrap_or_default() {
            self.on_consensus_frame(frame);
        }
    }

    /// A leader-echo vote from `voter` just landed in `stages`: echo the
    /// leader's proposal once if valid, and adopt any value `N − b`
    /// distinct voters agree on (Byzantine votes differ and simply count
    /// toward no quorum).
    fn on_stage_vote(&mut self, voter: usize) {
        let (round, me, entered) = (self.round, self.id, self.round_entered);
        let PhaseState::Staging(Staging::Echo { echoed_at }) = &self.phase else {
            return;
        };
        let proposal = self.stages.get(&round).and_then(|v| v.get(&voter));
        if let Some(rows) = proposal.filter(|_| echoed_at.is_none() && voter == self.leader()) {
            let rows = rows.clone();
            // stage-window slack: how much of the proposal timeout the
            // leader left unused
            let waited = self.now - entered;
            self.lap(Phase::ConsensusPropose, entered, self.now);
            self.value(
                "slack.stage",
                micros(self.cfg.stage_timeout).saturating_sub(waited),
            );
            self.phase = PhaseState::Staging(Staging::Echo {
                echoed_at: Some(self.now),
            });
            if self.valid(&rows) {
                self.stages
                    .entry(round)
                    .or_default()
                    .insert(me, rows.clone());
                self.broadcast(Payload::Stage {
                    round,
                    sender: me as u64,
                    commands: rows,
                });
            }
        }
        let mut counts: BTreeMap<&BatchRows, usize> = BTreeMap::new();
        let adopted = self.stages.get(&round).and_then(|votes| {
            votes.values().find(|&rows| {
                let count = counts.entry(rows).or_insert(0);
                *count += 1;
                *count >= self.cfg.quorum()
            })
        });
        if let Some(rows) = adopted.cloned() {
            self.finish_staging(Some(rows));
        }
    }

    /// One Dolev–Strong / PBFT frame for the current round.
    fn on_consensus_frame(&mut self, frame: Frame) {
        let from = frame.sig.signer.0;
        match &mut self.phase {
            PhaseState::Staging(Staging::Ds { ds, last_needed }) => {
                let Payload::BatchRelay { rows, chain, .. } = frame.payload else {
                    return; // a PBFT frame under a DS cluster
                };
                let chain = chain
                    .into_iter()
                    .map(|(signer, tag)| Signature {
                        signer: NodeId(signer as usize),
                        tag,
                    })
                    .collect();
                // relay rounds run off this node's own clock from the
                // moment it entered the round
                let elapsed = self.now - self.round_entered;
                let ds_round = (elapsed / micros(self.cfg.consensus_delta).max(1)) as usize;
                if let Some(fwd) = ds.on_relay(DsRelay { rows, chain }, ds_round) {
                    *last_needed = self.now;
                    let payload = relay_payload(self.round, &fwd);
                    self.broadcast(payload);
                }
            }
            PhaseState::Staging(Staging::Pbft { .. }) => {
                if let Some(msg) = pbft_from_wire(frame.payload, from) {
                    self.drive_pbft(false, |pbft, valid| pbft.on_message(from, msg, valid));
                }
            }
            _ => {}
        }
    }

    /// Runs one PBFT transition, broadcasts what it emits, re-arms the
    /// view timer on a view change, and finishes staging on a decision.
    /// No unilateral deadline: a node that gave up while peers decide
    /// would execute a divergent (empty) batch on a merely slow network —
    /// view changes with growing timeouts bound the wait instead.
    fn drive_pbft(
        &mut self,
        timed_out: bool,
        transition: impl FnOnce(&mut PbftBatch, &dyn Fn(&[Vec<u64>]) -> bool) -> Vec<PbftBatchMsg>,
    ) {
        let (machine, registry) = (&self.machine, &self.registry);
        let (cap, horizon) = (self.batch_cap, &self.admission.horizon);
        let valid = |rows: &[Vec<u64>]| batch_valid(rows, machine, cap, registry, horizon);
        let PhaseState::Staging(Staging::Pbft { pbft, view_started }) = &mut self.phase else {
            return;
        };
        let view_before = pbft.view();
        let out = transition(pbft, &valid);
        let view = pbft.view();
        let decided = pbft.decided().cloned();
        let (abandoned, timeout) = (*view_started, micros(pbft.config().timeout_of(view)));
        if view != view_before {
            *view_started = self.now;
        }
        for msg in &out {
            self.broadcast(pbft_to_wire(self.round, msg));
        }
        if view != view_before {
            // the abandoned view's wait is view-change cost
            self.lap(Phase::ConsensusViewChange, abandoned, self.now);
            self.incident(None, Incident::ViewChange { view });
        }
        if view != view_before || timed_out {
            self.set_timer(TimerKind::Pbft, self.now + timeout, view);
        }
        if let Some(rows) = decided {
            let view_started = if view != view_before {
                self.now
            } else {
                abandoned
            };
            self.lap(Phase::ConsensusCommit, view_started, self.now);
            // how much of the current view's timeout provision the
            // decision left unused
            self.value(
                "slack.consensus",
                (view_started + timeout).saturating_sub(self.now),
            );
            self.finish_staging(Some(rows));
        }
    }

    /// Batch agreed (or fallen back to the shared empty batch): execute
    /// it, send this node's coded result per its behavior, and start
    /// collecting the word.
    fn finish_staging(&mut self, agreed: Option<BatchRows>) {
        if let PhaseState::Staging(Staging::Echo { echoed_at }) = &self.phase {
            // echo quorum formed with this much of the vote timeout left
            let timeout = micros(self.cfg.stage_timeout);
            let proposed = echoed_at.unwrap_or_else(|| {
                self.lap(
                    Phase::ConsensusPropose,
                    self.round_entered,
                    self.round_entered + timeout,
                );
                self.value("slack.stage", 0);
                (self.round_entered + timeout).min(self.now)
            });
            self.lap(Phase::ConsensusCommit, proposed, self.now);
            let slack = agreed
                .as_ref()
                .map_or(0, |_| timeout.saturating_sub(self.now - proposed));
            self.value("slack.consensus", slack);
        }
        self.lap(Phase::Consensus, self.round_entered, self.now);
        if agreed.is_none() {
            self.admission.stats.stage_fallbacks += 1;
            self.incident(None, Incident::StageFallback);
        }
        let batch = agreed
            .as_deref()
            .and_then(|rows| {
                decode_batch(
                    rows,
                    self.machine.k(),
                    self.batch_cap,
                    self.machine.transition().input_dim(),
                    self.cluster,
                    &self.registry,
                )
            })
            .unwrap_or_default();
        if batch.is_empty() {
            self.admission.stats.empty_rounds += 1;
            self.incident(None, Incident::EmptyRound);
        } else {
            self.value("batch_size", batch.len() as u64);
        }

        let sink = Arc::clone(&self.sink);
        let mut span = RoundSpan::start(sink.as_ref(), self.id, self.round);
        // group the agreed rows into per-shard command programs, in row
        // order; idle shards run the empty program (a no-op)
        let mut programs: Vec<Vec<Vec<F>>> = vec![Vec::new(); self.machine.k()];
        for entry in &batch {
            programs[entry.shard].push(entry.command.iter().map(|&v| F::from_u64(v)).collect());
        }
        let g = self
            .engine
            .execute_batched(&programs)
            .expect("validated batch shape");
        let behavior = wire_behavior(
            self.id,
            self.cluster,
            self.machine.result_dim(),
            self.behavior,
            g,
        );
        span.mark(Phase::Execute);

        let (round, me) = (self.round, self.id);
        let mut receiver = ReceiverCore::new(self.cluster, self.timing.synchrony, self.faults);
        match behavior {
            ResultBehavior::Honest(g) => {
                self.broadcast(result_payload(round, me, &g));
                // a node trivially "receives" its own result
                receiver.record(me, g);
            }
            ResultBehavior::Equivocate(base) => {
                for peer in (0..self.cluster).filter(|&p| p != me) {
                    let noise = F::from_u64(equivocation_noise(peer));
                    let noisy: Vec<F> = base.iter().map(|&x| x + noise).collect();
                    self.send(peer, result_payload(round, me, &noisy));
                }
            }
            ResultBehavior::Withhold => {}
            ResultBehavior::Impersonate { spoof, forged } => {
                // signed with our key but claiming `spoof`: every
                // receiver's MAC check must drop it
                let payload = result_payload(round, spoof, &forged);
                let frame = Frame::forge(payload, &self.registry, NodeId(me), NodeId(spoof));
                self.out.push(Effect::Broadcast(frame));
            }
        }
        // results that raced ahead of this node's round
        for (sender, vector) in self.results.remove(&round).unwrap_or_default() {
            receiver.record(sender, vector);
        }
        self.phase = PhaseState::Exchanging {
            receiver,
            batch,
            started: self.now,
            last_progress: self.now,
        };
        let wait = match self.timing.synchrony {
            SynchronyMode::Synchronous => self.timing.delta,
            // the N − b cutoff ends the wait; this is the fallback so a
            // dead network cannot wedge the node
            SynchronyMode::PartiallySynchronous => self.timing.max_wait,
        };
        self.set_timer(TimerKind::Exchange, self.now + micros(wait), 0);
        self.check_exchange_done();
    }

    /// Ends the exchange early when the word can no longer change: the
    /// partial-synchrony cutoff fired, or (opted in) all `N` results are
    /// held.
    fn check_exchange_done(&mut self) {
        let PhaseState::Exchanging { receiver, .. } = &self.phase else {
            return;
        };
        let full = self.timing.finalize_on_full && receiver.results_held() == self.cluster;
        if receiver.is_finalized() || full {
            self.finish_exchange(false);
        }
    }

    /// Word final: decode-and-commit, or count the failure — with the
    /// log append before anything that acknowledges the round.
    fn finish_exchange(&mut self, waited_out: bool) {
        let PhaseState::Exchanging {
            mut receiver,
            batch,
            started,
            last_progress,
        } = std::mem::replace(&mut self.phase, PhaseState::Idle)
        else {
            return;
        };
        receiver.on_deadline();
        self.lap(Phase::Exchange, started, self.now);
        // Δ-slack: how long the window kept waiting after the last result
        // it accepted; a window that ended early has none to reclaim
        let slack = if waited_out {
            self.now - last_progress
        } else {
            0
        };
        self.value("slack.exchange", slack);

        let sink = Arc::clone(&self.sink);
        let mut span = RoundSpan::start(sink.as_ref(), self.id, self.round);
        let word = receiver.into_word();
        // the pre-commit coded state, for the log's state delta
        let prev_state = self
            .durable
            .as_ref()
            .map(|_| self.engine.coded_state().to_vec());
        let commit = self.engine.commit_word(&word);
        span.mark(Phase::Decode);
        if let Some(c) = &commit {
            for &peer in &c.detected_error_nodes {
                // Byzantine detection fell out of the decode (§5.2):
                // attribute it, and keep the evidence ring on the first
                // sighting of each peer
                self.incident(Some(peer), Incident::EquivocationDetected);
                if self.dumped_peers.insert(peer) {
                    self.flight_dump("byzantine-detected");
                }
            }
            // local bookkeeping first, so a snapshot taken with the
            // append already reflects this round's batch (the truncated
            // log cannot rebuild it)
            let mut replies = Vec::with_capacity(batch.len());
            for entry in &batch {
                let reply = reply_payload(entry, c);
                let evicted = self.admission.record_done(
                    entry,
                    reply.clone(),
                    self.batch_cap,
                    self.cfg.reply_cache_cap,
                );
                for client in evicted {
                    self.incident(None, Incident::ReplyCacheEviction { client });
                }
                replies.push((entry.client, reply));
            }
            self.admission.stats.commands_committed += batch.len() as u64;
            if let Some(prev) = prev_state {
                let delta = self
                    .engine
                    .coded_state()
                    .iter()
                    .zip(&prev)
                    .map(|(new, old)| (*new - *old).to_canonical_u64())
                    .collect();
                if !self.log_commit(c, encode_batch(&batch), delta) {
                    return self.halt(HaltReason::StoreFault);
                }
                span.mark(Phase::WalFsync);
            }
            self.broadcast(Payload::Commit {
                round: self.round,
                sender: self.id as u64,
                digest: c.digest,
            });
            for (client, reply) in replies {
                if let Some(reply) = reply_after_fault(reply, self.behavior) {
                    self.send(client as usize, reply);
                    self.admission.stats.replies_sent += 1;
                }
            }
            span.mark(Phase::Reply);
            self.fail_streak = 0;
        } else {
            self.fail_streak += 1;
            self.incident(None, Incident::DecodeFailure);
            if !self.dumped_decode_failure {
                self.dumped_decode_failure = true;
                self.flight_dump("decode-failure");
            }
        }
        span.finish_after(Duration::from_micros(self.now - self.round_entered));
        self.commits.push_back(commit);
        // a long-lived gateway keeps a trailing window of history only
        if self.commits.len() > self.cfg.commit_history {
            self.commits.pop_front();
            self.first_recorded_round += 1;
        }
        self.round += 1;
        // an empty round over a fast mesh would otherwise spin the
        // staging/exchange machinery at network speed; a round that
        // carried commands starts the next one at once
        let pause = if batch.is_empty() {
            micros(self.cfg.idle_pause)
        } else {
            0
        };
        self.set_timer(TimerKind::Next, self.now + pause, 0);
    }

    /// Appends the committed round to the fsynced log, then installs the
    /// interval snapshot when due. Returns `false` if the snapshot
    /// failpoint fired instead (the caller halts without acknowledging).
    ///
    /// # Panics
    ///
    /// Panics on storage I/O failure: a node that cannot persist must
    /// not acknowledge, and there is no protocol answer to a dead disk.
    fn log_commit(&mut self, commit: &RoundCommit<F>, batch: BatchRows, delta: Vec<u64>) -> bool {
        let d = self.durable.as_mut().expect("durable core");
        d.store
            .append_commit(&CommitRecord {
                round: commit.round,
                digest: commit.digest,
                batch,
                state_delta: delta,
                protocol: self.cfg.consensus.wal_protocol(),
                batch_cap: self.batch_cap as u32,
            })
            .expect("WAL append failed: cannot acknowledge an unlogged round");
        self.admission.stats.wal_appends += 1;
        if d.info.first_commit_after.is_none() {
            d.info.first_commit_after = Some(Duration::from_micros(self.now - self.started_us));
        }
        d.commits_since_snapshot += 1;
        if d.commits_since_snapshot >= d.snapshot_interval {
            if d.fail_snapshot_at == Some(self.admission.stats.snapshots + 1) {
                return false;
            }
            self.checkpoint(commit.round + 1);
            self.admission.stats.snapshots += 1;
        }
        true
    }

    /// Installs a snapshot at `next_round` (atomically; the covered log
    /// is truncated afterwards). The horizons must already reflect every
    /// round it covers.
    fn checkpoint(&mut self, next_round: u64) {
        let d = self.durable.as_mut().expect("durable core");
        let horizons = self.admission.horizon.iter().map(|(&c, &s)| (c, s));
        d.store
            .install_snapshot(
                next_round,
                self.engine.coded_state_canonical(),
                horizons.collect(),
            )
            .expect("snapshot install failed");
        d.commits_since_snapshot = 0;
    }

    // -- divergence / recovery -------------------------------------------

    /// The earliest strictly-past round in the window for which `b + 1`
    /// peers announced a common digest this node does not hold.
    fn check_desynced(&self) -> Option<u64> {
        (self.round.saturating_sub(DESYNC_WINDOW)..self.round)
            .filter(|&past| past >= self.first_recorded_round)
            .find(|&past| {
                let own = self
                    .commits
                    .get((past - self.first_recorded_round) as usize)
                    .and_then(|c| c.as_ref().map(|c| c.digest));
                self.commit_votes.get(&past).is_some_and(|votes| {
                    digest_tallies(votes, self.id)
                        .iter()
                        .any(|(&digest, &count)| count > self.faults && own != Some(digest))
                })
            })
    }

    /// The highest round where `b + 1` peers announced a common digest
    /// (the "cluster moved on without me" detector).
    fn commit_quorum_frontier(&self) -> Option<u64> {
        self.commit_votes
            .iter()
            .rev()
            .find(|(_, votes)| {
                digest_tallies(votes, self.id)
                    .values()
                    .any(|&count| count > self.faults)
            })
            .map(|(&round, _)| round)
    }

    /// Starts a state-transfer attempt: ask every peer for its latest
    /// committed state and collect answers until the window closes.
    fn enter_resync(&mut self, sticky: bool) {
        let attempt = match &self.phase {
            PhaseState::Resyncing { attempt, .. } => attempt + 1,
            _ => 0,
        };
        // anything at or past the last commit helps: that round repairs
        // divergence in place, anything later also catches up
        self.broadcast(Payload::StateRequest {
            from_round: self.engine.round().saturating_sub(1),
        });
        self.phase = PhaseState::Resyncing {
            chunks: BTreeMap::new(),
            sticky,
            attempt,
        };
        let window = self.durable.as_ref().map_or(0, |d| d.transfer_timeout);
        self.set_timer(TimerKind::Resync, self.now + window, attempt);
    }

    /// The Byzantine acceptance rule over the chunk slots: the *highest*
    /// round for which `b + 1` distinct peers vouch for one `(round,
    /// digest)` **and** some vouched chunk's results hash to that digest
    /// (a Byzantine peer may vote for the honest digest while shipping
    /// garbage — its chunk is skipped and attributed, an honest
    /// voucher's is installed).
    fn try_install_transfer(&mut self) {
        let PhaseState::Resyncing { chunks, .. } = &self.phase else {
            return;
        };
        let min_round = self.engine.round().saturating_sub(1);
        let mut tally: BTreeMap<(u64, u64), Vec<usize>> = BTreeMap::new();
        for (&peer, chunk) in chunks {
            if chunk.round >= min_round {
                tally
                    .entry((chunk.round, chunk.digest))
                    .or_default()
                    .push(peer);
            }
        }
        let hashes_to = |peer: &usize, digest: u64| {
            let rows: Vec<Vec<F>> = chunks[peer]
                .results
                .iter()
                .map(|row| row.iter().map(|&v| F::from_u64(v)).collect())
                .collect();
            digest_results(&rows) == digest
        };
        let verified = tally
            .iter()
            .rev()
            .filter(|(_, peers)| peers.len() > self.faults)
            .find_map(|(&(round, digest), peers)| {
                let (good, corrupt): (Vec<usize>, Vec<usize>) =
                    peers.iter().partition(|p| hashes_to(p, digest));
                let rows = chunks[good.first()?].results.clone();
                Some((round, rows, corrupt))
            });
        let Some((round, rows, corrupt)) = verified else {
            return;
        };
        for peer in corrupt {
            self.sink
                .event(self.id, round, Some(peer), Incident::StateChunkRejected);
        }
        self.install_transfer(round, rows);
    }

    /// Re-encodes the verified plaintext states at this node's own
    /// evaluation point (recovery needs peers' words, not a trusted copy
    /// of its own), checkpoints them, and rejoins at the cluster's round.
    ///
    /// The transfer carries state but not the skipped rounds' batches,
    /// so the checkpointed horizons may lag for clients that committed
    /// meanwhile. That cannot re-execute a command cluster-wide: this
    /// node alone may echo a replayed proposal, but the quorum still
    /// needs honest nodes whose horizons are current, and they refuse.
    fn install_transfer(&mut self, round: u64, rows: Vec<Vec<u64>>) {
        let sd = self.machine.transition().state_dim();
        if rows.len() != self.machine.k() {
            return; // shape nonsense cannot have come from an honest round
        }
        let states: Vec<Vec<F>> = rows
            .iter()
            .map(|row| row.iter().take(sd).map(|&v| F::from_u64(v)).collect())
            .collect();
        if self.machine.check_states(&states).is_err() {
            return;
        }
        let coded = self.machine.encode_state_at(self.id, &states);
        let next = round + 1;
        self.engine
            .restore(coded, next)
            .expect("re-encoded state is state-dim wide");
        // the transferred state is durable before the node acts on it
        self.checkpoint(next);
        self.admission.stats.resyncs += 1;
        self.incident(None, Incident::Resync);
        self.flight_dump("resync");
        self.end_startup(Some(round));
        // history before the transfer is no longer this node's to vouch
        self.commits.clear();
        self.first_recorded_round = next;
        self.round = next;
        self.fail_streak = 0;
        self.phase = PhaseState::Idle;
        self.set_timer(TimerKind::Next, self.now, 0);
    }

    /// Closes the startup catch-up (if this was it), recording how long
    /// it took and what it transferred.
    fn end_startup(&mut self, transferred: Option<u64>) {
        if let Some(d) = self.durable.as_mut().filter(|d| d.starting) {
            d.starting = false;
            d.info.startup = Duration::from_micros(self.now - self.started_us);
            d.info.startup_transfer = transferred;
        }
    }

    // -- read-only serving (once per round, one answer per slot) ---------

    /// Seeds rejoining peers and answers read-only queries from the
    /// latest *committed* round — in durable mode already in the fsynced
    /// log, so neither can observe an unlogged state. Every gateway can
    /// seed a rejoiner; its `b + 1` rule makes a corrupt answer harmless
    /// (an equivocator serves perturbed values, a withholder nothing).
    fn serve_requests(&mut self) {
        let requests = std::mem::take(&mut self.state_requests);
        let queries = std::mem::take(&mut self.query_inbox);
        let stats = &mut self.admission.stats;
        let mut answers = Vec::new();
        // nothing committed yet (e.g. freshly recovered): stay silent,
        // requesters retry
        if let Some(latest) = self.commits.iter().rev().flatten().next() {
            let canonical = |row: &[F]| row.iter().map(|x| x.to_canonical_u64()).collect();
            // a requester past `latest` already holds everything we do
            for (peer, _) in requests
                .into_iter()
                .filter(|&(_, from)| latest.round >= from)
            {
                let chunk = Payload::StateChunk {
                    round: latest.round,
                    digest: latest.digest,
                    results: latest.results.iter().map(|row| canonical(row)).collect(),
                };
                if let Some(chunk) = chunk_after_fault(chunk, self.behavior) {
                    stats.state_chunks_served += 1;
                    answers.push((peer, chunk));
                }
            }
            let sd = self.machine.transition().state_dim();
            for frame in queries {
                let Payload::Query { shard, client, qid } = frame.payload else {
                    continue;
                };
                let Some(row) = latest.results.get(shard as usize) else {
                    continue;
                };
                let reply = Payload::QueryReply {
                    shard,
                    round: latest.round,
                    client,
                    qid,
                    value: canonical(&row[..sd]),
                };
                if let Some(reply) = reply_after_fault(reply, self.behavior) {
                    stats.queries_answered += 1;
                    answers.push((client as usize, reply));
                }
            }
        }
        for (to, payload) in answers {
            self.send(to, payload);
        }
        self.serve_telemetry();
    }

    /// Answers telemetry scrapes, one reply per requester slot, with the
    /// snapshot shed to fit the configured frame bound.
    fn serve_telemetry(&mut self) {
        let requests = std::mem::take(&mut self.telemetry_requests);
        if requests.is_empty() {
            return;
        }
        let snapshot = self
            .telemetry()
            .to_bounded_json(self.cfg.telemetry_reply_max_bytes);
        for (peer, nonce) in requests {
            self.send(
                peer,
                Payload::TelemetryReply {
                    nonce,
                    node: self.id as u64,
                    round: self.round,
                    snapshot: snapshot.clone(),
                },
            );
        }
    }
}

/// The admission/reply counters exported into a snapshot, named after
/// the [`GatewayStats`] fields.
fn gateway_counters(stats: &GatewayStats) -> Vec<(String, u64)> {
    [
        ("admitted", stats.admitted),
        ("rejected_full", stats.rejected_full),
        ("rejected_invalid", stats.rejected_invalid),
        ("duplicates", stats.duplicates),
        ("replayed", stats.replayed),
        ("replies_sent", stats.replies_sent),
        ("commands_committed", stats.commands_committed),
        ("stage_fallbacks", stats.stage_fallbacks),
        ("empty_rounds", stats.empty_rounds),
        ("rejected_quota", stats.rejected_quota),
        ("inbox_dropped", stats.inbox_dropped),
        ("replay_misses", stats.replay_misses),
        ("queries_answered", stats.queries_answered),
        ("state_chunks_served", stats.state_chunks_served),
        ("resyncs", stats.resyncs),
        ("wal_appends", stats.wal_appends),
        ("snapshots", stats.snapshots),
        ("reply_cache_evictions", stats.reply_cache_evictions),
        ("desynced", stats.desynced as u64),
    ]
    .into_iter()
    .map(|(name, value)| (name.to_string(), value))
    .collect()
}

#[cfg(test)]
mod tests;
