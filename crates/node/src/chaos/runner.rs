//! The virtual-clock driver: runs a cluster of production
//! [`GatewayCore`]s and a `ClientSwarm` over a [`SimNet`] fabric
//! according to a [`Schedule`], then audits the run for safety and
//! (optionally) liveness.
//!
//! Like the wall-clock driver behind `run_gateway`, this one only
//! delivers events and performs effects. What it fakes is the world
//! around the core: links (the fabric), the clock (one tick = 1 µs), the
//! transport's MAC check (verified here, before delivery), and the
//! process — a crash drops a node's core (the store keeps what was
//! fsynced), a restart builds a fresh one over the same directory, a
//! pause buffers its events. Stores are real `csm-storage` files written
//! by [`crate::recovery::persist`]. The audit's witnesses are derived
//! from the effects each node was seen to perform, never from core
//! internals.

use crate::chaos::client::{small_commands, ClientSwarm, CommandGen};
use crate::chaos::schedule::{ChaosEvent, Schedule};
use crate::chaos::token;
use crate::consensus::{ConsensusKind, StagingFault};
use crate::core::{Effect, Event as CoreEvent, GatewayCore, HaltReason, Record};
use crate::gateway::{ExchangeTiming, GatewayConfig, GatewaySpec};
use crate::recovery::{open_store, persist, DurabilityConfig, RecoveryInfo};
use crate::BehaviorKind;
use csm_algebra::{Field, Fp61};
use csm_core::engine::CodedMachine;
use csm_core::DecoderKind;
use csm_network::auth::KeyRegistry;
use csm_statemachine::machines::{
    auction_machine, bank_machine, interest_machine, kv_machine, power_machine,
};
use csm_statemachine::PolyTransition;
use csm_storage::NodeStore;
use csm_telemetry::{Event, Phase, SharedSink, Sink, TelemetrySnapshot};
use csm_transport::sim::{LinkState, SimEvent, SimNet};
use csm_transport::{Frame, Payload};
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Distinguishes chaos store directories across runs in one process.
static RUN_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Which state machine the chaos cluster executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineSpec {
    /// `S′ = S + X` (degree 1) — the paper's bank-account workload.
    Bank,
    /// `S′ = S·(1 + X)` (degree 2) — compound interest.
    Interest,
    /// `S′ = S^d + X` — the degree-sweep machine.
    Power(u32),
    /// The 2-dimensional quadratic auction-pool machine.
    Auction,
    /// The keyed KV machine on this many slots (degree 2).
    Kv(usize),
}

impl MachineSpec {
    fn transition(self) -> PolyTransition<Fp61> {
        match self {
            MachineSpec::Bank => bank_machine(),
            MachineSpec::Interest => interest_machine(),
            MachineSpec::Power(d) => power_machine(d),
            MachineSpec::Auction => auction_machine(),
            MachineSpec::Kv(slots) => kv_machine(slots),
        }
    }
}

/// Full description of the cluster a schedule runs against. A run is a
/// pure function of `(ChaosConfig, Schedule)`.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Cluster size `N`.
    pub cluster: usize,
    /// Shard count `K`.
    pub shards: usize,
    /// Provisioned fault bound `b`.
    pub faults: usize,
    /// The batch-agreement backend.
    pub consensus: ConsensusKind,
    /// Per-shard per-round aggregation cap.
    pub batch_cap: usize,
    /// Virtual client count (transport endpoints `N..N + clients`).
    pub clients: usize,
    /// Whether nodes run the durable (WAL + snapshot + resync) paths.
    pub durable: bool,
    /// Committed rounds between snapshots (durable mode).
    pub snapshot_interval: u64,
    /// Inject the torn-snapshot fault: `(node, ordinal)` crashes that
    /// node instead of performing its `ordinal`-th (1-based, across
    /// lives) interval snapshot, after the WAL append.
    pub torn_snapshot: Option<(usize, u64)>,
    /// Per-node wire behavior overrides (default honest).
    pub behaviors: Vec<(usize, BehaviorKind)>,
    /// Per-node staging-fault overrides (default none).
    pub staging_faults: Vec<(usize, StagingFault)>,
    /// Which state machine the cluster executes.
    pub machine: MachineSpec,
    /// Command generator for the client swarm.
    pub command_gen: CommandGen,
    /// The fabric's default link. Its latency also scales the protocol
    /// timeouts: Δ = 4·latency absorbs round-entry skew plus one hop,
    /// staging gets `4Δ`, Dolev–Strong relays `2Δ`, a transfer attempt
    /// `8Δ`, and the rest follows [`GatewayConfig::new`].
    pub default_link: LinkState,
    /// Whether the audit also asserts S3 (probe fully acked): scenarios
    /// set this; the random-schedule property sticks to safety, since a
    /// random schedule may legitimately keep a minority partitioned for
    /// most of its runtime.
    pub check_liveness: bool,
}

impl ChaosConfig {
    /// A small honest durability-off cluster; scenario builders override
    /// fields from here.
    pub fn new(cluster: usize, shards: usize, faults: usize) -> Self {
        ChaosConfig {
            cluster,
            shards,
            faults,
            consensus: ConsensusKind::LeaderEcho,
            batch_cap: 2,
            clients: 4,
            durable: false,
            snapshot_interval: 4,
            torn_snapshot: None,
            behaviors: Vec::new(),
            staging_faults: Vec::new(),
            machine: MachineSpec::Bank,
            command_gen: small_commands,
            default_link: LinkState::default(),
            check_liveness: false,
        }
    }

    fn behavior_of(&self, node: usize) -> BehaviorKind {
        self.behaviors
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(BehaviorKind::Honest, |(_, b)| *b)
    }

    fn staging_fault_of(&self, node: usize) -> StagingFault {
        self.staging_faults
            .iter()
            .find(|(n, _)| *n == node)
            .map_or(StagingFault::None, |(_, f)| *f)
    }

    /// Whether `node` is configured fully honest (the safety checks
    /// quantify over honest nodes only).
    pub fn is_honest(&self, node: usize) -> bool {
        self.behavior_of(node) == BehaviorKind::Honest
            && self.staging_fault_of(node) == StagingFault::None
    }

    fn build_machine(&self) -> Arc<CodedMachine<Fp61>> {
        Arc::new(
            CodedMachine::with_program_cap(
                self.cluster,
                self.shards,
                self.machine.transition(),
                DecoderKind::default(),
                self.batch_cap,
            )
            .expect("chaos config machine dimensions fit the cluster"),
        )
    }

    fn initial_states(&self, machine: &CodedMachine<Fp61>) -> Vec<Vec<Fp61>> {
        let sd = machine.transition().state_dim();
        (0..self.shards)
            .map(|j| {
                (0..sd)
                    .map(|c| Fp61::from_u64((1 + j + c) as u64))
                    .collect()
            })
            .collect()
    }
}

/// One safety/liveness breach found by the post-run audit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Two honest nodes vouch for different digests of one wire round —
    /// an *undetected* split (S1).
    DigestSplit {
        /// The split wire round.
        round: u64,
        /// `(node, digest)` of every honest voucher.
        digests: Vec<(usize, u64)>,
    },
    /// An acknowledged command is in no honest node's committed ledger
    /// (S2): the ack quorum lied or the command was lost.
    LostAck {
        /// The acked client (transport endpoint id).
        client: u64,
        /// The acked sequence number.
        seq: u64,
    },
    /// An acknowledged command's output is one no honest node replied
    /// (S2): its `b + 1` quorum had no honest member, so more than `b`
    /// nodes lied alike.
    WrongAck {
        /// The acked client (transport endpoint id).
        client: u64,
        /// The acked sequence number.
        seq: u64,
    },
    /// A restarted node's replayed dedup horizons did not cover a reply
    /// it sent before crashing (the WAL-before-ack contract).
    RecoveryHorizon {
        /// Human-readable description from the restart assertion.
        detail: String,
    },
    /// Probe commands left unacknowledged at the horizon (S3; only
    /// checked when [`ChaosConfig::check_liveness`] is set).
    ProbeUnacked {
        /// The unacked `(client, seq)` pairs.
        missing: Vec<(u64, u64)>,
    },
}

/// Per-node summary of a finished run (comparable across replays).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeOutcome {
    /// The node id.
    pub node: usize,
    /// Still running at the horizon.
    pub alive: bool,
    /// Fail-stopped on the desync check (plain mode).
    pub desynced: bool,
    /// Completed state transfers.
    pub resyncs: u64,
    /// A crash landed while a state transfer was in flight.
    pub resync_interrupted: bool,
    /// Rounds that ended in decode failure.
    pub decode_failures: u64,
    /// Client commands this node committed.
    pub commands_committed: u64,
    /// The node's wire round at the horizon.
    pub final_round: u64,
    /// Every digest the node ever committed, per wire round (survives
    /// resyncs — the audit's split witness).
    pub digest_history: BTreeMap<u64, Vec<u64>>,
    /// What the current life's recovery path did (durable nodes that are
    /// up at the horizon); its durations are virtual.
    pub recovery: Option<RecoveryInfo>,
}

/// Everything a finished run exposes to tests and the CLI. Two runs of
/// the same `(config, schedule)` must compare equal — that *is* the
/// replay contract ([`replay_check`] asserts it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosRun {
    /// Audit findings, empty on a clean run.
    pub violations: Vec<Violation>,
    /// Per-node summaries.
    pub nodes: Vec<NodeOutcome>,
    /// Acked `(client, seq) → output` across the swarm.
    pub acked: BTreeMap<(u64, u64), Vec<u64>>,
    /// Probe pairs still unacked at the horizon (informational when
    /// liveness is not asserted).
    pub unacked_probes: Vec<(u64, u64)>,
    /// The deterministic telemetry event trace (the replay witness).
    pub events: Vec<(usize, u64, Option<usize>, Event)>,
    /// The virtual tick the run stopped at.
    pub horizon: u64,
}

impl ChaosRun {
    /// Whether the audit passed.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Total commands committed across the cluster.
    pub fn total_committed(&self) -> u64 {
        self.nodes.iter().map(|n| n.commands_committed).sum()
    }
}

/// One entry of the replay witness: `(node, round, peer, event)`.
type TraceEntry = (usize, u64, Option<usize>, Event);

/// The sink every simulated node tees into: the cluster's telemetry
/// *events* in arrival order, without timestamps — the replay witness.
/// Phase timings stay in each node's own recording sink.
#[derive(Debug, Default)]
struct Trace(Mutex<Vec<TraceEntry>>);

impl Sink for Trace {
    fn phase(&self, _: usize, _: u64, _: Phase, _: Duration) {}

    fn event(&self, node: usize, round: u64, peer: Option<usize>, event: Event) {
        let mut log = self.0.lock().expect("trace poisoned");
        log.push((node, round, peer, event));
    }
}

/// Items buffered while their node is paused (clock-stopped).
enum PausedItem {
    Frame(Frame),
    Timer(u64),
}

/// One simulated process: the production core while it is up, plus what
/// the harness saw it do (never consumed by protocol logic).
#[derive(Default)]
struct SimNode {
    /// `None` while crashed.
    core: Option<GatewayCore<Fp61>>,
    /// The open store of a durable node's current life.
    store: Option<NodeStore>,
    /// Restart count; timers armed by an earlier life are dead.
    life: u64,
    paused: bool,
    pause_buffer: Vec<PausedItem>,
    /// Fail-stopped on the desync check (plain mode).
    desynced: bool,
    /// A crash landed while a state transfer was in flight.
    resync_interrupted: bool,
    /// Resyncs seen in the current life (to notice the next one).
    seen_resyncs: u64,
    /// Digest this node still vouches for, per wire round — its `Commit`
    /// broadcasts, retracted when it resyncs, restarts, crashes, or
    /// fail-stops on divergence.
    vouched: BTreeMap<u64, u64>,
    /// Every digest it ever broadcast, per wire round (survives resyncs:
    /// the witness of contained splits).
    digest_history: BTreeMap<u64, Vec<u64>>,
    /// Max seq replied per client: WAL-before-ack means the horizons a
    /// restart recovers must cover this.
    replied: BTreeMap<u64, u64>,
    /// Recovery-contract breaches detected on restart (should be empty).
    recovery_violations: Vec<String>,
    /// Interval snapshots performed, across lives.
    snapshots: u64,
    /// Totals carried over from earlier lives.
    committed: u64,
    last_round: u64,
}

/// The whole simulated world of one run.
struct Sim<'a> {
    config: &'a ChaosConfig,
    registry: Arc<KeyRegistry>,
    spec: GatewaySpec<Fp61>,
    timing: ExchangeTiming,
    gateway: GatewayConfig,
    store_root: PathBuf,
    net: SimNet,
    nodes: Vec<SimNode>,
    swarm: ClientSwarm,
    /// Every output an honest node replied, per `(client, seq)` — an
    /// honest node replies exactly to what it committed, with what it
    /// computed (the S2 witness).
    honest_replies: BTreeMap<(u64, u64), Vec<Vec<u64>>>,
    /// The frame whose MAC was verified last. The fabric delivers a
    /// broadcast's copies back to back, and a copy equal to a verified
    /// frame needs no second MAC.
    verified: Option<Frame>,
}

impl Sim<'_> {
    /// Brings node `id` up: a fresh core over its (possibly pre-existing)
    /// store directory, started at the current virtual time.
    fn boot(&mut self, id: usize) {
        let spec = GatewaySpec {
            behavior: self.config.behavior_of(id),
            staging_fault: self.config.staging_fault_of(id),
            ..self.spec.clone()
        };
        let durable = self.config.durable.then(|| {
            let durability = DurabilityConfig {
                dir: self.store_root.join(format!("node{id}")),
                snapshot_interval: self.config.snapshot_interval,
                transfer_timeout: self.timing.delta * 8,
            };
            let opened = open_store(&durability, &spec, id).expect("open chaos store");
            (durability, opened)
        });
        let mut core = GatewayCore::new(
            id,
            Arc::clone(&self.registry),
            self.timing.clone(),
            &spec,
            &self.gateway,
            durable.as_ref().map(|(d, (_, recovered))| (d, recovered)),
        );
        let node = &mut self.nodes[id];
        node.store = durable.map(|(_, (store, _))| store);
        // WAL-before-ack, recovered: everything this node ever replied
        // to must be covered by the replayed dedup horizons
        for (&client, &seq) in &node.replied {
            let recovered = core.horizons().get(&client);
            if recovered.is_none_or(|&h| h < seq) {
                node.recovery_violations.push(format!(
                    "node {id}: replied to client {client} seq {seq} but recovered horizon {recovered:?}"
                ));
            }
        }
        node.seen_resyncs = 0;
        node.desynced = false;
        let effects = core.start(self.net.now());
        node.core = Some(core);
        self.perform(id, effects);
    }

    /// Hard-kills node `id`: the core (all volatile state) is gone; the
    /// store keeps whatever was already fsynced.
    fn crash(&mut self, id: usize) {
        let node = &mut self.nodes[id];
        let Some(core) = node.core.take() else {
            return;
        };
        node.store = None;
        node.resync_interrupted |= core.resyncing();
        node.committed += core.stats().commands_committed;
        node.last_round = core.round();
        node.vouched.clear();
        node.paused = false;
        node.pause_buffer.clear();
    }

    /// Performs one step's effects for node `id`, in order, recording
    /// the audit's witnesses and the `wal-fsync` phase on the way.
    fn perform(&mut self, id: usize, effects: Vec<Effect>) {
        let cluster = self.config.cluster;
        let (mut logged, mut fsync) = (None, Duration::ZERO);
        for effect in effects {
            let node = &mut self.nodes[id];
            match effect {
                Effect::Send { to, frame } => {
                    if let Payload::Reply {
                        client,
                        seq,
                        ref output,
                        ..
                    } = frame.payload
                    {
                        if self.config.is_honest(id) {
                            let outputs = self.honest_replies.entry((client, seq)).or_default();
                            if !outputs.contains(output) {
                                outputs.push(output.clone());
                            }
                        }
                        let h = node.replied.entry(client).or_insert(0);
                        *h = (*h).max(seq);
                    }
                    self.net.send(id, to, frame);
                }
                Effect::Broadcast(frame) => {
                    if let Payload::Commit { round, digest, .. } = frame.payload {
                        node.vouched.insert(round, digest);
                        let history = node.digest_history.entry(round).or_default();
                        if !history.contains(&digest) {
                            history.push(digest);
                        }
                    }
                    self.net.broadcast_upto(id, cluster, &frame);
                }
                Effect::SetTimer { at_us, id: timer } => {
                    self.net
                        .set_timer(id, at_us, token::pack_timer(timer, node.life));
                }
                Effect::Halt(HaltReason::Desync { witness_round }) => {
                    // the fail-stop *is* the detection the protocol
                    // documents: every vouch from the witness round on
                    // was committed on divergent state, so retract them —
                    // S1 audits *standing* vouches for undetected splits,
                    // and these are flagged, not undetected
                    node.vouched.split_off(&witness_round);
                    node.desynced = true;
                }
                // the harness's cores get no flight directory
                Effect::FlightDump { .. } => {}
                Effect::Persist(record) => {
                    // an interval snapshot follows its round's log record;
                    // the torn one is a death mid-write: the log holds the
                    // round, and nothing after it is acknowledged
                    if logged.is_some() && matches!(record, Record::Snapshot { .. }) {
                        node.snapshots += 1;
                        if self.config.torn_snapshot == Some((id, node.snapshots)) {
                            return self.crash(id);
                        }
                    }
                    let began = Instant::now();
                    let store = node.store.as_mut().expect("only a durable node persists");
                    persist(store, &record).expect("write chaos store");
                    fsync += began.elapsed();
                    if let Record::Commit(commit) = record {
                        logged = Some(commit.round);
                    }
                }
            }
        }
        let node = &mut self.nodes[id];
        if let Some(core) = &node.core {
            if let Some(round) = logged {
                core.sink().phase(id, round, Phase::WalFsync, fsync);
            }
            if core.stats().resyncs != node.seen_resyncs {
                // history before a transfer is no longer this node's to
                // vouch for
                node.seen_resyncs = core.stats().resyncs;
                node.vouched.clear();
            }
        }
    }

    /// Delivers one fabric item to node `id` — unless it is down (lost)
    /// or paused (buffered).
    fn deliver(&mut self, id: usize, item: PausedItem) {
        let now = self.net.now();
        let node = &mut self.nodes[id];
        if node.paused {
            return node.pause_buffer.push(item);
        }
        let Some(core) = node.core.as_mut() else {
            return;
        };
        let effects = match item {
            // the transport's job on a real wire: only authenticated
            // frames reach the core, rejections are attributed to the
            // *claimed* signer
            PausedItem::Frame(frame) => {
                if self.verified.as_ref() != Some(&frame) {
                    if !frame.verify(&self.registry) {
                        let claimed = Some(frame.sig.signer.0);
                        core.sink()
                            .event(id, core.round(), claimed, Event::MacRejected);
                        return;
                    }
                    self.verified = Some(frame.clone());
                }
                core.step(now, CoreEvent::Frame(frame))
            }
            PausedItem::Timer(tok) => match token::unpack_timer(tok, node.life) {
                Some(timer) => core.step(now, CoreEvent::Timer(timer)),
                None => return,
            },
        };
        self.perform(id, effects);
    }

    fn apply(&mut self, event: &ChaosEvent) {
        use ChaosEvent::{Crash, Pause, Restart, Resume};
        if let Crash { node } | Restart { node } | Pause { node } | Resume { node } = event {
            if *node >= self.nodes.len() {
                return;
            }
        }
        match event {
            ChaosEvent::Partition { a, b } => self.net.partition(a, b),
            ChaosEvent::Heal => self.net.heal_all(),
            ChaosEvent::SetLink { from, to, link } => self.net.set_link(*from, *to, *link),
            Crash { node } => self.crash(*node),
            // plain nodes stay down — a plain crash is final, as documented
            Restart { node } => {
                if self.config.durable && self.nodes[*node].core.is_none() {
                    self.nodes[*node].life += 1;
                    self.boot(*node);
                }
            }
            Pause { node } => self.nodes[*node].paused = true,
            Resume { node } => {
                let buffered = std::mem::take(&mut self.nodes[*node].pause_buffer);
                self.nodes[*node].paused = false;
                for item in buffered {
                    self.deliver(*node, item);
                }
            }
            ChaosEvent::Burst {
                first_client,
                clients,
                commands,
                probe,
            } => self
                .swarm
                .burst(&mut self.net, *first_client, *clients, *commands, *probe),
            ChaosEvent::SpoofedSubmit { client, victim } => {
                self.swarm.spoof(&mut self.net, *client, *victim);
            }
        }
    }
}

/// Runs `schedule` against `config` and audits the result.
///
/// # Panics
///
/// Panics on configuration errors (machine does not fit the cluster,
/// store directory not creatable) — never on protocol behavior; protocol
/// misbehavior is reported as [`Violation`]s.
pub fn run_schedule(config: &ChaosConfig, schedule: &Schedule) -> ChaosRun {
    run(config, schedule, false).0
}

/// [`run_schedule`], also returning each live node's telemetry snapshot
/// at the horizon — the same artefact a scrape of a live gateway
/// returns. (Kept out of [`ChaosRun`]: CPU-phase durations are real time
/// and would break the replay contract's equality.)
pub fn run_schedule_with_telemetry(
    config: &ChaosConfig,
    schedule: &Schedule,
) -> (ChaosRun, Vec<(usize, TelemetrySnapshot)>) {
    run(config, schedule, true)
}

fn run(
    config: &ChaosConfig,
    schedule: &Schedule,
    scrape: bool,
) -> (ChaosRun, Vec<(usize, TelemetrySnapshot)>) {
    let machine = config.build_machine();
    let registry = Arc::new(KeyRegistry::new(
        config.cluster + config.clients,
        schedule.seed ^ 0x5EED,
    ));
    let trace = Arc::new(Trace::default());
    // one tick is one microsecond, so the core's timing is just a
    // gateway configuration scaled to the fabric's latency
    let delta = Duration::from_micros(4 * config.default_link.latency.max(1));
    let timing = ExchangeTiming::synchronous(config.faults, delta);
    let mut gateway = GatewayConfig::new(config.cluster, config.faults, &timing)
        .with_batch_cap(config.batch_cap)
        .with_consensus(config.consensus)
        .with_sink(Arc::clone(&trace) as SharedSink);
    gateway.stage_timeout = delta * 4;
    gateway.consensus_delta = delta * 2;
    gateway.commit_history = 64; // nothing here reads a node's history
    let run_id = RUN_COUNTER.fetch_add(1, Ordering::Relaxed);
    let store_root =
        std::env::temp_dir().join(format!("csm-chaos-{}-{run_id}", std::process::id()));

    let control = config.cluster + config.clients;
    let mut net = SimNet::new(control + 1, schedule.seed, config.default_link);
    for (i, (tick, _)) in schedule.events.iter().enumerate() {
        net.set_timer(
            control,
            *tick,
            token::pack(token::K_CONTROL, 0, i as u64, 0),
        );
    }
    let swarm = ClientSwarm::new(
        config,
        machine.transition().input_dim(),
        schedule.seed,
        Arc::clone(&registry),
        (delta * 8).as_micros() as u64,
    );
    let mut sim = Sim {
        config,
        registry,
        spec: GatewaySpec {
            initial_states: config.initial_states(&machine),
            machine,
            behavior: BehaviorKind::Honest,
            staging_fault: StagingFault::None,
        },
        timing,
        gateway,
        store_root,
        net,
        nodes: (0..config.cluster).map(|_| SimNode::default()).collect(),
        swarm,
        honest_replies: BTreeMap::new(),
        verified: None,
    };
    for id in 0..config.cluster {
        sim.boot(id);
    }

    while let Some((now, event)) = sim.net.pop() {
        if now > schedule.horizon {
            break;
        }
        match event {
            SimEvent::Timer { owner, token: tok } if owner == control => {
                if let Some((_, ev)) = schedule.events.get(token::a(tok) as usize) {
                    sim.apply(ev);
                }
            }
            SimEvent::Timer { owner, token: tok } if owner < config.cluster => {
                sim.deliver(owner, PausedItem::Timer(tok));
            }
            SimEvent::Timer { owner, token: tok } => sim.swarm.on_timer(&mut sim.net, owner, tok),
            SimEvent::Deliver { to, frame, .. } if to < config.cluster => {
                sim.deliver(to, PausedItem::Frame(frame));
            }
            SimEvent::Deliver { to, frame, .. } => sim.swarm.on_frame(to, frame),
        }
    }

    let events = std::mem::take(&mut *trace.0.lock().expect("trace poisoned"));
    let run = audit(&mut sim, schedule, events);
    let telemetry = sim
        .nodes
        .iter()
        .enumerate()
        .filter(|_| scrape)
        .filter_map(|(id, node)| Some((id, node.core.as_ref()?.telemetry())))
        .collect();
    drop(sim.nodes); // close stores before removing their directories
    if config.durable {
        let _ = std::fs::remove_dir_all(&sim.store_root);
    }
    (run, telemetry)
}

/// The post-run audit: S1 over vouched digests, S2 over the ack set and
/// its outputs, recovery-horizon assertions, and S3 when the config asks
/// for it. The run takes each node's digest history and the swarm's ack
/// map out of `sim` (nothing reads them afterwards), so the run's
/// high-water mark never holds them twice.
fn audit(sim: &mut Sim<'_>, schedule: &Schedule, events: Vec<TraceEntry>) -> ChaosRun {
    let (config, nodes, swarm) = (sim.config, &mut sim.nodes, &mut sim.swarm);
    let mut violations = Vec::new();
    let honest: Vec<usize> = (0..config.cluster)
        .filter(|&n| config.is_honest(n))
        .collect();

    // S1: per wire round, honest nodes still vouching agree on one digest
    let mut rounds: BTreeSet<u64> = BTreeSet::new();
    for &n in &honest {
        rounds.extend(nodes[n].vouched.keys().copied());
    }
    for round in rounds {
        let digests: Vec<(usize, u64)> = honest
            .iter()
            .filter_map(|&n| nodes[n].vouched.get(&round).map(|&d| (n, d)))
            .collect();
        let distinct: BTreeSet<u64> = digests.iter().map(|&(_, d)| d).collect();
        if distinct.len() > 1 {
            violations.push(Violation::DigestSplit { round, digests });
        }
    }

    // S2: every acked (client, seq) is in some honest node's ledger, and
    // some honest node replied the acked output
    for (&(client, seq), acked) in &swarm.acked {
        match sim.honest_replies.get(&(client, seq)) {
            None => violations.push(Violation::LostAck { client, seq }),
            Some(outputs) if !outputs.contains(acked) => {
                violations.push(Violation::WrongAck { client, seq });
            }
            Some(_) => {}
        }
    }
    for node in nodes.iter() {
        for detail in &node.recovery_violations {
            violations.push(Violation::RecoveryHorizon {
                detail: detail.clone(),
            });
        }
    }

    let unacked_probes = swarm.unacked_probes();
    if config.check_liveness && !unacked_probes.is_empty() {
        violations.push(Violation::ProbeUnacked {
            missing: unacked_probes.clone(),
        });
    }

    // resyncs and decode failures span a node's lives: count them off
    // the trace, which does too
    let count = |id: usize, what: Event| {
        events
            .iter()
            .filter(|(node, _, _, e)| *node == id && *e == what)
            .count() as u64
    };
    let nodes = nodes
        .iter_mut()
        .enumerate()
        .map(|(id, n)| NodeOutcome {
            node: id,
            alive: n.core.is_some(),
            desynced: n.desynced,
            resyncs: count(id, Event::Resync),
            resync_interrupted: n.resync_interrupted,
            decode_failures: count(id, Event::DecodeFailure),
            commands_committed: n.committed
                + n.core.as_ref().map_or(0, |c| c.stats().commands_committed),
            final_round: n.core.as_ref().map_or(n.last_round, GatewayCore::round),
            digest_history: std::mem::take(&mut n.digest_history),
            recovery: n.core.as_ref().and_then(|c| c.recovery().cloned()),
        })
        .collect();

    ChaosRun {
        violations,
        nodes,
        acked: std::mem::take(&mut swarm.acked),
        unacked_probes,
        events,
        horizon: schedule.horizon,
    }
}

/// Runs `schedule` twice and verifies the replay contract: traces,
/// digests, ledgers, and acks must be bit-for-bit identical.
///
/// # Errors
///
/// Returns the first observed divergence as a description (this is a
/// determinism bug in the harness or the protocol code, not a scheduled
/// fault).
pub fn replay_check(config: &ChaosConfig, schedule: &Schedule) -> Result<ChaosRun, String> {
    let first = run_schedule(config, schedule);
    let second = run_schedule(config, schedule);
    if first.events != second.events {
        let at = first
            .events
            .iter()
            .zip(&second.events)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| first.events.len().min(second.events.len()));
        return Err(format!(
            "replay divergence: event traces differ at index {at} \
             ({} vs {} events)",
            first.events.len(),
            second.events.len()
        ));
    }
    if first != second {
        return Err("replay divergence: runs differ outside the event trace".to_string());
    }
    Ok(first)
}
