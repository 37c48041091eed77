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
//! Persistence is an effect too. The core opens no store: it is built
//! from what its driver recovered (`crate::recovery::open_store`), and a
//! durable core emits [`Effect::Persist`] for each committed round's log
//! record and each checkpoint, *before* the step's `Commit` broadcast and
//! client replies. WAL-before-ack is the order of the effect vector, and
//! a driver performs effects in order (`crate::recovery::persist`).
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
    chunk_after_fault, encode_batch, reply_after_fault, reply_payload, Admission, BatchCheck,
    BatchEntry, EventScope, ExchangeTiming, GatewayConfig, GatewayReport, GatewaySpec,
    GatewayStats, REPLY_CACHE_CAP, TELEMETRY_REPLY_MAX_BYTES,
};
use crate::recovery::{replay_local, DurabilityConfig, RecoveryInfo};
use crate::BehaviorKind;
use csm_algebra::Field;
use csm_consensus::batch::{BatchRows, DsBatch, DsRelay, PbftBatch, PbftBatchConfig, PbftBatchMsg};
use csm_core::digest::digest_results;
use csm_core::engine::{CodedMachine, RoundCommit, RoundEngine};
use csm_core::SynchronyMode;
use csm_network::auth::{KeyRegistry, Signature};
use csm_network::NodeId;
use csm_storage::{CommitRecord, Recovered};
use csm_telemetry::{
    Event as Incident, FlightDump, Phase, RecordingSink, RoundSpan, SharedSink, TeeSink,
    TelemetrySnapshot,
};
use csm_transport::{Frame, Payload, TransportStats, ViewChangeWire};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

mod exchange;
mod peers;
use exchange::{Due, Exchange, Verdict};
use peers::PeerView;

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
    /// Decode the exchange's word once the events due at this instant are
    /// absorbed, where the driver orders them first (`docs/PROTOCOL.md`
    /// §10).
    Decode,
}

impl TimerKind {
    /// Number of timer kinds — at most one timer per kind is ever live,
    /// so a driver may keep one slot per kind.
    pub const COUNT: usize = 6;
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
}

/// What a durable core asks its driver to make durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// Append (and fsync) a committed round to the write-ahead log.
    Commit(CommitRecord),
    /// Install a checkpoint atomically and truncate the log it covers.
    Snapshot {
        /// The next round to run.
        round: u64,
        /// The coded state, canonical.
        coded_state: Vec<u64>,
        /// Per-client committed-seq dedup horizons.
        horizons: Vec<(u64, u64)>,
    },
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
    /// Make a record durable; the effects after it may acknowledge it.
    Persist(Record),
    /// Write a flight-recorder dump into `dir` (only when the config
    /// names a `flight_dir`).
    FlightDump {
        /// The configured dump directory.
        dir: PathBuf,
        /// The recent-event ring at the incident.
        dump: FlightDump,
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
enum PhaseState {
    /// Between rounds: waiting for the `Next` timer or, with none armed,
    /// quiescent until work or peers wake it.
    Idle,
    /// Agreeing on the round's batch.
    Staging(Staging),
    /// Result sent; collecting the word (`exchange`).
    Exchanging { batch: Vec<BatchEntry> },
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

/// The durable half of a core: snapshot cadence and recovery state.
struct Durable {
    snapshot_interval: u64,
    transfer_timeout: u64,
    commits_since_snapshot: u64,
    /// Still in the startup catch-up (the first transfer attempt of a
    /// node whose store had history).
    starting: bool,
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

    /// Also the one round counter: it advances on every round, committed
    /// or skipped.
    engine: RoundEngine<F>,
    admission: Admission,
    batch_check: BatchCheck,
    round_entered: u64,
    phase: PhaseState,
    /// The round's word, its decode pacing, and the last certified word.
    exchange: Exchange<F>,
    commits: VecDeque<Option<RoundCommit<F>>>,
    first_recorded_round: u64,
    fail_streak: u32,
    durable: Option<Durable>,

    // bounded intake buffers, pruned at every round start
    stages: BTreeMap<u64, BTreeMap<usize, BatchRows>>,
    consensus: BTreeMap<u64, Vec<Frame>>,
    submit_inbox: Vec<Frame>,
    query_inbox: Vec<Frame>,
    state_requests: BTreeMap<usize, u64>,
    telemetry_requests: BTreeMap<usize, u64>,
    /// Peers' rounds and commit announcements, and every `b + 1` count
    /// over them.
    peers: PeerView,
    /// `Submit`s in the inbox above their client's dedup horizon and not
    /// queued, and when the first of them arrived: what a leader batches
    /// before it starts its round (`work_start`).
    new_submits: usize,
    work_since: Option<u64>,
    /// When the `Next` timer armed last is due; `None` once an idle node
    /// holding no work arms none: it is quiescent.
    next_at: Option<u64>,

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
            .field("round", &self.round())
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

impl<F: Field> GatewayCore<F> {
    /// Builds node `id` of the cluster `cfg` describes. A durable core
    /// gets what its driver recovered from the store
    /// (`crate::recovery::open_store`) and replays `snapshot + log`: it
    /// resumes at its last durable round with the recovered dedup
    /// horizons.
    ///
    /// # Panics
    ///
    /// Panics if the spec does not match `cfg` (cluster size, program
    /// cap, backend minimum) or the initial states are malformed.
    pub fn new(
        id: usize,
        registry: Arc<KeyRegistry>,
        timing: ExchangeTiming,
        spec: &GatewaySpec<F>,
        cfg: &GatewayConfig,
        durable: Option<(&DurabilityConfig, &Recovered)>,
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
        let durable = durable.map(|(d, recovered)| {
            let replayed = replay_local(&spec.machine, recovered, engine.coded_state().to_vec());
            engine
                .restore(replayed.coded_state, replayed.next_round)
                .expect("replayed state is state-dim wide");
            // exactly-once must survive restarts: the replayed dedup
            // horizons are part of the recovered state
            admission.horizon = replayed.horizons;
            Durable {
                snapshot_interval: d.snapshot_interval.max(1),
                transfer_timeout: micros(d.transfer_timeout),
                commits_since_snapshot: replayed.records,
                // a store with history means this node lived before: the
                // cluster may have committed past its durable frontier
                starting: !recovered.is_fresh(),
                info: RecoveryInfo {
                    recovered_round: replayed.next_round,
                    wal_records_replayed: replayed.records,
                    torn_tail: recovered.torn_tail,
                    ..RecoveryInfo::default()
                },
            }
        });
        let recording = Arc::new(RecordingSink::new());
        let sink: SharedSink = match &cfg.sink {
            Some(extra) => Arc::new(TeeSink::new(vec![
                Arc::clone(&recording) as SharedSink,
                Arc::clone(extra),
            ])),
            None => Arc::clone(&recording) as SharedSink,
        };
        let round = engine.round();
        let exchange = Exchange::new(&spec.machine, cfg.assumed_faults, &timing);
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
            batch_check: BatchCheck::default(),
            round_entered: 0,
            phase: PhaseState::Idle,
            exchange,
            commits: VecDeque::new(),
            first_recorded_round: round,
            fail_streak: 0,
            durable,
            stages: BTreeMap::new(),
            consensus: BTreeMap::new(),
            submit_inbox: Vec::new(),
            query_inbox: Vec::new(),
            state_requests: BTreeMap::new(),
            telemetry_requests: BTreeMap::new(),
            peers: PeerView::new(id, cluster, cfg.assumed_faults),
            new_submits: 0,
            work_since: None,
            next_at: None,
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
        self.engine.round()
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

    /// What the recovery path did (durable cores only).
    pub fn recovery(&self) -> Option<&RecoveryInfo> {
        self.durable.as_ref().map(|d| &d.info)
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
                        .event(self.id, self.round(), Some(peer), Incident::MacRejected);
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
        self.recording.snapshot(self.id, self.round(), &extra)
    }

    /// Consumes the core into the run's report.
    pub fn into_report(self) -> GatewayReport<F> {
        GatewayReport {
            id: self.id,
            commits: self.commits.into(),
            first_recorded_round: self.first_recorded_round,
            rounds: self.engine.round(),
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
            Event::Frame(frame) => {
                // work may end an idle pause early, or wake a quiescent
                // node (see `intake`)
                if self.intake(frame) && matches!(self.phase, PhaseState::Idle) {
                    match self.next_at {
                        Some(next) => {
                            if let Some(at) = self.idle_start().filter(|&at| at < next) {
                                self.set_timer(TimerKind::Next, at, 0);
                            }
                        }
                        // no pause to cut short: a node that does not
                        // lead waits out the longest one a round leaves
                        // (Δ, then the idle pause), in case its leader
                        // is silent
                        None => {
                            let pause =
                                micros(self.timing.delta) + micros(self.timing.idle_pause());
                            self.pace(self.now + pause);
                        }
                    }
                }
                // a quiescent node has no round start to serve at
                self.serve_if_quiescent();
            }
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
        if kind == TimerKind::Next {
            self.next_at = Some(at_us);
        }
        let id = TimerId {
            kind,
            round: self.round(),
            epoch,
        };
        self.out.push(Effect::SetTimer { at_us, id });
    }

    fn incident(&self, peer: Option<usize>, incident: Incident) {
        self.sink.event(self.id, self.round(), peer, incident);
    }

    fn lap(&self, phase: Phase, from: u64, to: u64) {
        self.sink.phase(
            self.id,
            self.round(),
            phase,
            Duration::from_micros(to.saturating_sub(from)),
        );
    }

    fn value(&self, name: &str, value: u64) {
        self.sink.value(self.id, self.round(), name, value);
    }

    fn flight_dump(&mut self, reason: &str) {
        if let Some(dir) = self.cfg.flight_dir.clone() {
            let dump = self.recording.dump(self.id, self.round(), reason);
            self.out.push(Effect::FlightDump { dir, dump });
        }
    }

    fn leader(&self) -> usize {
        (self.round() % self.cluster as u64) as usize
    }

    /// Whether `round` is the current one or within the lookahead.
    fn in_window(&self, round: u64) -> bool {
        round >= self.round() && round - self.round() <= ROUND_LOOKAHEAD
    }

    /// The shared batch-validity predicate (client MACs, shape, dedup
    /// horizon) against this node's current admission state.
    fn valid(&self, rows: &[Vec<u64>]) -> bool {
        self.batch_check.valid(
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
    /// dropped. Returns whether the frame is work that may end an idle
    /// pause or wake a quiescent node (`step`): a new command, or a
    /// peer's protocol frame that completes the evidence of
    /// `woken_by_peers`.
    fn intake(&mut self, frame: Frame) -> bool {
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
                    return false;
                }
                let votes = self.stages.entry(round).or_default();
                if votes.contains_key(&from) {
                    return false; // first vote per (round, signer) wins
                }
                votes.insert(from, commands);
                if round == self.round()
                    && matches!(self.phase, PhaseState::Staging(Staging::Echo { .. }))
                {
                    self.on_stage_vote(from);
                }
                self.peers.saw(from, round);
                self.woken_by_peers()
            }
            Payload::BatchRelay { round, .. }
            | Payload::BatchVote { round, .. }
            | Payload::BatchViewChange { round, .. }
            | Payload::BatchNewView { round, .. } => {
                if !from_cluster
                    || !self.in_window(round)
                    || consensus_weight(&frame.payload) > PENDING_MAX_VALUES
                {
                    return false;
                }
                if round == self.round()
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
                self.peers.saw(from, round);
                self.woken_by_peers()
            }
            Payload::Result {
                round,
                sender,
                values,
            } => {
                if !from_cluster || sender != from as u64 || values.len() > PENDING_MAX_VALUES {
                    return false;
                }
                let vector: Vec<F> = values.iter().map(|&v| F::from_u64(v)).collect();
                if self.exchange.late_round() == Some(round) {
                    // the round's record describes the word as it finally stood
                    let record = self.commits.back_mut().and_then(Option::as_mut);
                    let exposed = self.exchange.recheck(from, vector, &self.machine, record);
                    for peer in exposed {
                        self.expose(round, peer);
                    }
                    return false;
                }
                if !self.in_window(round) {
                    return false;
                }
                if round == self.round() && matches!(self.phase, PhaseState::Exchanging { .. }) {
                    let due = self.exchange.record(from, vector, self.now);
                    self.decode_when(due);
                    return false;
                }
                self.exchange.early(round, from, vector);
                self.peers.saw(from, round);
                self.woken_by_peers()
            }
            Payload::Commit {
                round,
                sender,
                digest,
            } => {
                // commit gossip trails its round: keep a window behind
                // the current round as well as ahead of it
                let near = round <= self.round().saturating_add(ROUND_LOOKAHEAD)
                    && round.saturating_add(ROUND_LOOKAHEAD) >= self.round();
                if !from_cluster || sender != from as u64 || !near {
                    return false;
                }
                self.peers.commit(from, round, digest);
                self.woken_by_peers()
            }
            Payload::Submit {
                client,
                seq,
                ref command,
                ..
            } => {
                // the claimed client must be the MAC signer and a
                // *client* id — nodes cannot pose as clients, and one
                // client cannot queue a command in another's name
                if client != from as u64 || from_cluster || command.len() > PENDING_MAX_VALUES {
                    return false;
                }
                if self.submit_inbox.len() >= CLIENT_INBOX_CAP {
                    self.admission.stats.inbox_dropped += 1;
                    return false;
                }
                self.submit_inbox.push(frame);
                if !self.admission.is_new(client, seq) {
                    return false;
                }
                self.new_submits += 1;
                self.work_since.get_or_insert(self.now);
                true
            }
            Payload::Query { client, .. } => {
                if client == from as u64
                    && !from_cluster
                    && self.query_inbox.len() < QUERY_INBOX_CAP
                {
                    self.query_inbox.push(frame);
                }
                false
            }
            Payload::StateRequest { from_round } => {
                // one slot per requesting peer, last request wins
                if from_cluster && from != self.id {
                    self.state_requests.insert(from, from_round);
                }
                false
            }
            Payload::StateChunk {
                round,
                digest,
                results,
            } => {
                if !from_cluster || rows_weight(&results) > PENDING_MAX_VALUES {
                    return false;
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
                false
            }
            Payload::TelemetryRequest { nonce } => {
                // any registered identity may scrape (telemetry is
                // read-only and self-reported); one slot per requester
                if from != self.id {
                    self.telemetry_requests.insert(from, nonce);
                }
                false
            }
            // replies are client-bound; pings carry nothing
            Payload::Reply { .. }
            | Payload::QueryReply { .. }
            | Payload::TelemetryReply { .. }
            | Payload::Ping { .. } => false,
        }
    }

    fn on_timer(&mut self, id: TimerId) {
        if id.round != self.round() {
            return; // armed in a round this node has left
        }
        match (id.kind, &self.phase) {
            // a quiescent node armed none: whatever fires is stale
            (TimerKind::Next, PhaseState::Idle)
                if self.next_at.is_some_and(|at| at <= self.now) =>
            {
                self.start_or_hand_off()
            }
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
            (TimerKind::Decode, PhaseState::Exchanging { .. }) => self.finish_exchange(false),
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
        self.round_entered = self.now;
        let round = self.round();
        self.stages.retain(|&r, _| r >= round);
        self.consensus.retain(|&r, _| r >= round);
        self.exchange.prune(round);
        self.peers.prune(round, ROUND_LOOKAHEAD);
        self.serve_requests();

        // `b + 1` peers agreeing on a commit this node does not hold
        // proves an honest majority moved on without it (at most `b`
        // collude). A plain node fail-stops — on strictly-past rounds
        // only: a lagging node must not kill itself over a round it is
        // about to commit from its buffers. A durable node recovers via
        // state transfer, and also treats "peers committed my current
        // round or later" and a decode-failure streak as triggers.
        let first = self.first_recorded_round;
        let own = |past: u64| Some(self.commits.get((past - first) as usize)?.as_ref()?.digest);
        let diverged = self.peers.diverged(round, first, own);
        if self.durable.is_some() {
            let behind = self.peers.commit_frontier().is_some_and(|r| r >= round);
            if behind || diverged.is_some() || self.fail_streak >= 2 {
                self.fail_streak = 0;
                return self.enter_resync(behind || diverged.is_some());
            }
        } else if let Some(witness_round) = diverged {
            self.admission.stats.desynced = true;
            self.incident(None, Incident::Desync);
            self.flight_dump("desync");
            self.phase = PhaseState::Halted;
            self.out
                .push(Effect::Halt(HaltReason::Desync { witness_round }));
            return;
        }

        self.admit_inbox();
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

    /// Starts the round the `Next` timer was armed for. A node that starts
    /// it on its own clock (it does not lead the round, and no peer has
    /// moved on) holding commands first sends them to the round's leader:
    /// its peers may have fallen quiet without them (a client sent them
    /// to this node alone, or they came as its peers finished their last
    /// round). Left alone in the round, the node would fail it and later
    /// meet commits for a round it does not hold; with the commands, the
    /// leader starts the round within the node's staging wait, and its
    /// peers follow the leader.
    fn start_or_hand_off(&mut self) {
        let work = self.admission.has_pending() || self.new_submits > 0;
        if work && self.idle_start().is_none() {
            self.hand_off();
        }
        self.start_round()
    }

    /// Sends every new command this node holds, as its client signed it,
    /// to the round's leader, which holds it as if the client had sent it.
    fn hand_off(&mut self) {
        let leader = self.leader();
        let fresh = self.submit_inbox.iter().filter(|f| self.new_submit(f));
        let queued = self.admission.pending().map(BatchEntry::submit_frame);
        let frames: Vec<Frame> = fresh.cloned().chain(queued).collect();
        for frame in frames {
            self.out.push(Effect::Send { to: leader, frame });
        }
    }

    /// Runs the admission pass over the `Submit` inbox: new commands are
    /// queued, retries of committed ones answered from the reply cache.
    fn admit_inbox(&mut self) {
        let frames = std::mem::take(&mut self.submit_inbox);
        (self.new_submits, self.work_since) = (0, None);
        let scope = EventScope {
            sink: self.sink.as_ref(),
            node: self.id,
            round: self.round(),
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
        let (round, me, leader) = (self.round(), self.id, self.leader());
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
        for frame in self.consensus.remove(&self.round()).unwrap_or_default() {
            self.on_consensus_frame(frame);
        }
    }

    /// A leader-echo vote from `voter` just landed in `stages`: echo the
    /// leader's proposal once if valid, and adopt any value `N − b`
    /// distinct voters agree on (Byzantine votes differ and simply count
    /// toward no quorum).
    fn on_stage_vote(&mut self, voter: usize) {
        let (round, me, entered) = (self.round(), self.id, self.round_entered);
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
                    let payload = relay_payload(self.round(), &fwd);
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
        let (machine, registry, check) = (&self.machine, &self.registry, &self.batch_check);
        let (cap, horizon) = (self.batch_cap, &self.admission.horizon);
        let valid = |rows: &[Vec<u64>]| check.valid(rows, machine, cap, registry, horizon);
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
            self.broadcast(pbft_to_wire(self.round(), msg));
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
        // every row's client MAC is checked before it executes: here, or
        // by the `valid` call that kept exactly these rows' batch
        let batch = agreed
            .as_deref()
            .and_then(|rows| {
                self.batch_check
                    .take_decoded(rows, &self.machine, self.batch_cap, &self.registry)
            })
            .unwrap_or_default();
        if batch.is_empty() {
            self.admission.stats.empty_rounds += 1;
            self.incident(None, Incident::EmptyRound);
        } else {
            self.value("batch_size", batch.len() as u64);
        }

        let sink = Arc::clone(&self.sink);
        let mut span = RoundSpan::start(sink.as_ref(), self.id, self.round());
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
        span.mark(Phase::Execute);

        let (round, me) = (self.round(), self.id);
        for (to, sender, values) in exchange::outgoing(self.behavior, me, self.cluster, &g) {
            let payload = Payload::Result {
                round,
                sender: sender as u64,
                values,
            };
            // forged only by an impersonator, claiming another sender
            let frame = Frame::forge(payload, &self.registry, NodeId(me), NodeId(sender));
            self.out.push(match to {
                Some(to) => Effect::Send { to, frame },
                None => Effect::Broadcast(frame),
            });
        }
        // a node trivially "receives" its own result
        let own = (self.behavior == BehaviorKind::Honest).then_some((me, g));
        let due = self.exchange.open(round, self.now, own);
        self.phase = PhaseState::Exchanging { batch };
        self.set_timer(TimerKind::Exchange, self.exchange.deadline(), 0);
        self.decode_when(due);
    }

    /// Decodes the word when the exchange says it is due: at once, or by a
    /// `Decode` timer armed for now.
    fn decode_when(&mut self, due: Due) {
        match due {
            Due::Now => self.finish_exchange(false),
            Due::Soon => self.set_timer(TimerKind::Decode, self.now, 0),
            Due::Later => {}
        }
    }

    /// Decodes the word (`deadline`: the Exchange timer fired) and, unless
    /// the exchange waits on, ends it on the verdict: commit the decode, or
    /// count the failure — with the log append before anything that
    /// acknowledges the round — then pace the next round.
    fn finish_exchange(&mut self, deadline: bool) {
        let sink = Arc::clone(&self.sink);
        let mut span = RoundSpan::start(sink.as_ref(), self.id, self.engine.round());
        let (decoded, certified) = match self.exchange.decode(&mut self.engine, deadline) {
            Verdict::Wait => return,
            Verdict::Certified(decoded) => (Some(decoded), true),
            // the open hole (ROADMAP `cert`): committed all the same
            Verdict::Uncertified(decoded) => (Some(decoded), false),
            Verdict::Failed => (None, false),
        };
        span.mark(Phase::Decode);
        let PhaseState::Exchanging { batch } = std::mem::replace(&mut self.phase, PhaseState::Idle)
        else {
            return;
        };
        let round = self.round();
        self.lap(Phase::Exchange, self.exchange.started, self.now);
        // Δ-slack: how long the window kept waiting after the last result
        // it accepted; one that ended early (a certificate, or a word
        // decoded as it froze) has none to reclaim
        let slack = if deadline && !certified {
            self.admission.stats.exchange_fallbacks += 1;
            self.now - self.exchange.last_progress
        } else {
            0
        };
        self.value("slack.exchange", slack);

        let commit = if let Some(decoded) = decoded {
            for &peer in &decoded.detected_error_nodes {
                self.expose(round, peer);
            }
            // the pre-commit coded state, for the log's state delta
            let prev_state = self
                .durable
                .is_some()
                .then(|| self.engine.coded_state().to_vec());
            let c = self.engine.commit(&decoded);
            // local bookkeeping first, so a snapshot taken with the
            // append already reflects this round's batch (the truncated
            // log cannot rebuild it)
            let mut replies = Vec::with_capacity(batch.len());
            for entry in &batch {
                let reply = reply_payload(entry, &c);
                let evicted = self.admission.record_done(
                    entry,
                    reply.clone(),
                    self.batch_cap,
                    REPLY_CACHE_CAP,
                );
                for client in evicted {
                    let incident = Incident::ReplyCacheEviction { client };
                    self.sink.event(self.id, round, None, incident);
                }
                replies.push((entry.client, reply));
            }
            self.admission.stats.commands_committed += batch.len() as u64;
            // a copy of a command this round committed that reached the
            // inbox after the round began (a peer's frame pulled this node
            // in first) is answered by the replies below; left there, the
            // next admission pass would answer it again as a retry
            let done: BTreeSet<(u64, u64)> = batch.iter().map(|e| (e.client, e.seq)).collect();
            self.submit_inbox.retain(|frame| match frame.payload {
                Payload::Submit { client, seq, .. } => !done.contains(&(client, seq)),
                _ => true,
            });
            // and the horizons moved: count again what is still new
            let new_submits = self
                .submit_inbox
                .iter()
                .filter(|f| self.new_submit(f))
                .count();
            self.new_submits = new_submits;
            if new_submits == 0 {
                self.work_since = None;
            }
            if let Some(prev) = prev_state {
                self.log_commit(&c, encode_batch(&batch), &prev);
            }
            self.broadcast(Payload::Commit {
                round,
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
            Some(c)
        } else {
            self.fail_streak += 1;
            self.incident(None, Incident::DecodeFailure);
            if !self.dumped_decode_failure {
                self.dumped_decode_failure = true;
                self.flight_dump("decode-failure");
            }
            self.engine.skip_round();
            None
        };
        span.finish_after(Duration::from_micros(self.now - self.round_entered));
        self.commits.push_back(commit);
        // a long-lived gateway keeps a trailing window of history only
        if self.commits.len() > self.cfg.commit_history {
            self.commits.pop_front();
            self.first_recorded_round += 1;
        }
        // a node holding work paces its next round as if this exchange
        // had waited out the deadline; commands for this node to lead, or
        // peers that have moved on, start it sooner. A node holding none
        // runs no round until such work arrives (`step`): an empty round
        // would only cost a whole exchange and a commit wave
        let waited = self.exchange.waited(self.now);
        self.pace(waited + micros(self.timing.idle_pause()));
    }

    /// Byzantine detection fell out of a decode (§5.2): attribute it to
    /// `round`, and keep the evidence ring on the first sighting of each
    /// peer.
    fn expose(&mut self, round: u64, peer: usize) {
        self.sink
            .event(self.id, round, Some(peer), Incident::EquivocationDetected);
        if self.dumped_peers.insert(peer) {
            self.flight_dump("byzantine-detected");
        }
    }

    /// Whether `frame` is a `Submit` above its client's dedup horizon and
    /// not queued.
    fn new_submit(&self, frame: &Frame) -> bool {
        match frame.payload {
            Payload::Submit { client, seq, .. } => self.admission.is_new(client, seq),
            _ => false,
        }
    }

    /// Arms the `Next` timer for `paced`, or sooner (`idle_start`). A node
    /// with no work whose peers have not moved on arms none: it stays
    /// quiescent until a frame wakes it (`step`), and serves what waits
    /// for a round start now, and later arrivals at once.
    fn pace(&mut self, paced: u64) {
        if let Some(at) = self.idle_start() {
            return self.set_timer(TimerKind::Next, at.min(paced), 0);
        }
        // work: commands queued at an earlier round start, or new ones
        if self.admission.has_pending() || self.new_submits > 0 {
            return self.set_timer(TimerKind::Next, paced, 0);
        }
        self.next_at = None;
        self.serve_if_quiescent();
    }

    /// A quiescent node has no round start coming to serve at: it
    /// answers retried commands from the reply cache (all its inbox holds,
    /// as a new command would be work) and read-only requests at once.
    fn serve_if_quiescent(&mut self) {
        if matches!(self.phase, PhaseState::Idle) && self.next_at.is_none() {
            self.admit_inbox();
            self.serve_requests();
        }
    }

    /// When an idle node starts its round ahead of its pacing: at once if
    /// its peers have moved on, else when its own commands say
    /// (`work_start`).
    fn idle_start(&self) -> Option<u64> {
        if self.peers.moved_on(self.round(), self.leader()) {
            Some(self.now)
        } else {
            self.work_start()
        }
    }

    /// When this node, if it leads the current round, starts it for the
    /// commands it holds. Commands queued at an earlier round start, or a
    /// round's worth of new ones (`K · batch_cap`), start it at once.
    /// Fewer new ones start it `batch_window` after the first of them
    /// arrived: commands that clients sent on the same replies share one
    /// round, and a command's latency is the window plus the round rather
    /// than the outcome of a race between its `Submit` and the leader's
    /// previous commit.
    fn work_start(&self) -> Option<u64> {
        if self.leader() != self.id {
            return None;
        }
        if self.admission.has_pending() || self.new_submits >= self.machine.k() * self.batch_cap {
            return Some(self.now);
        }
        self.work_since
            .map(|since| self.now.max(since + self.batch_window()))
    }

    /// How long a leader holding less than a round's worth of new
    /// commands waits for more: `Δ/5` under synchrony; nothing under
    /// partial synchrony, where `Δ` is only the fallback deadline.
    ///
    /// Starting at once instead made a closed loop's throughput the sum of
    /// its rounds' CPU work and thread wake-ups: on the benchmark's
    /// `live_byz` cluster (2-vCPU VM) 0.6 ms per command, varying by up
    /// to a quarter from run to run. With the window a command takes
    /// `Δ/5 + 0.6 ms` and runs differ by under 1 %.
    fn batch_window(&self) -> u64 {
        match self.timing.synchrony {
            SynchronyMode::Synchronous => micros(self.timing.delta) / 5,
            SynchronyMode::PartiallySynchronous => 0,
        }
    }

    /// Whether this node is idle and an honest node is evidently in its
    /// round or past it (`PeerView::moved_on`).
    fn woken_by_peers(&self) -> bool {
        matches!(self.phase, PhaseState::Idle) && self.peers.moved_on(self.round(), self.leader())
    }

    /// Logs the committed round (its coded-state delta from `prev`), then
    /// the interval snapshot when one is due, as `Persist` effects ahead
    /// of everything that acknowledges the round.
    fn log_commit(&mut self, commit: &RoundCommit<F>, batch: BatchRows, prev: &[F]) {
        let delta = |(new, old): (&F, &F)| (*new - *old).to_canonical_u64();
        let state_delta = self.engine.coded_state().iter().zip(prev).map(delta);
        let d = self.durable.as_mut().expect("durable core");
        self.out.push(Effect::Persist(Record::Commit(CommitRecord {
            round: commit.round,
            digest: commit.digest,
            batch,
            state_delta: state_delta.collect(),
            protocol: self.cfg.consensus.wal_protocol(),
            batch_cap: self.batch_cap as u32,
        })));
        self.admission.stats.wal_appends += 1;
        d.commits_since_snapshot += 1;
        if d.commits_since_snapshot >= d.snapshot_interval {
            self.checkpoint(commit.round + 1);
            self.admission.stats.snapshots += 1;
        }
    }

    /// Checkpoints the state at `next_round` (the driver installs it
    /// atomically and truncates the log it covers). The horizons must
    /// already reflect every round it covers.
    fn checkpoint(&mut self, next_round: u64) {
        let d = self.durable.as_mut().expect("durable core");
        d.commits_since_snapshot = 0;
        let horizons = self.admission.horizon.iter().map(|(&c, &s)| (c, s));
        self.out.push(Effect::Persist(Record::Snapshot {
            round: next_round,
            coded_state: self.engine.coded_state_canonical(),
            horizons: horizons.collect(),
        }));
    }

    // -- divergence / recovery -------------------------------------------

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
        let fresh = chunks.iter().filter(|(_, chunk)| chunk.round >= min_round);
        let tally = self
            .peers
            .vouched(fresh.map(|(&peer, chunk)| (peer, (chunk.round, chunk.digest))));
        let hashes_to = |peer: &usize, digest: u64| {
            let rows: Vec<Vec<F>> = chunks[peer]
                .results
                .iter()
                .map(|row| row.iter().map(|&v| F::from_u64(v)).collect())
                .collect();
            digest_results(&rows) == digest
        };
        let verified = tally.iter().rev().find_map(|(&(round, digest), peers)| {
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
    /// of its own), checkpoints them, and rejoins at the cluster's round:
    /// at once if it holds work or its peers are already in that round,
    /// else quiescent like them, so it does not run a round alone.
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
        self.exchange.forget_late();
        self.first_recorded_round = next;
        self.fail_streak = 0;
        self.phase = PhaseState::Idle;
        self.pace(self.now);
    }

    /// Closes the startup catch-up (if this was it), recording what it
    /// transferred.
    fn end_startup(&mut self, transferred: Option<u64>) {
        if let Some(d) = self.durable.as_mut().filter(|d| d.starting) {
            d.starting = false;
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
        let snapshot = self.telemetry().to_bounded_json(TELEMETRY_REPLY_MAX_BYTES);
        for (peer, nonce) in requests {
            self.send(
                peer,
                Payload::TelemetryReply {
                    nonce,
                    node: self.id as u64,
                    round: self.round(),
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
        ("exchange_fallbacks", stats.exchange_fallbacks),
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
