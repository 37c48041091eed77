//! The node-side client gateway: the batch codec, admission and reply
//! cache the round machine ([`crate::core::GatewayCore`]) is built from,
//! its configuration and report types, and its wall-clock driver
//! ([`run_gateway`]): a `recv_timeout(next timer)` loop over any
//! [`Transport`] that delivers frames and due timers to the core and
//! performs the effects it returns.
//!
//! This is the layer that turns a CSM cluster from a script-driven
//! protocol exercise into a request-serving system (§1/§3 deployment
//! model): external clients broadcast signed [`Payload::Submit`] frames to
//! the nodes, the per-round leader batches pending commands into
//! per-shard command *programs* (up to [`GatewayConfig::batch_cap`]
//! commands per shard, slots filled round-robin across clients), the
//! batch is agreed via the existing staged-vote machinery, every shard
//! evaluates its whole program inside the one coded round
//! ([`crate::RoundEngine::execute_batched`]), and after the round commits every
//! node fans [`Payload::Reply`] frames back to the submitting clients —
//! one reply per command — who accept an output only after `b + 1`
//! bit-identical replies (`csm-client`).
//!
//! # Batch agreement
//!
//! Unlike the script-driven loops ([`crate::run_node`],
//! [`crate::run_pipelined`]), client-fed batches differ between nodes (a
//! submission may not have reached everyone when a round starts), so the
//! batch must be *agreed*, not derived. Agreement is **pluggable**
//! ([`GatewayConfig::consensus`], driven by the staging phase of
//! [`crate::core::GatewayCore`]):
//!
//! * [`ConsensusKind::LeaderEcho`] — the round's rotating leader
//!   (`round mod N`) proposes its pending batch as its [`Payload::Stage`]
//!   vote, followers echo a *valid* proposal bit-for-bit, and a node
//!   adopts at `N − b` identical votes. Cheapest, but a leader that
//!   equivocates on the batch is only caught probabilistically (see
//!   [`crate::consensus`]).
//! * [`ConsensusKind::DolevStrong`] — the leader's proposal runs through
//!   `b + 1` signature-chained relay rounds: an equivocating leader is
//!   reduced to ⊥ at **every** honest node, never a split. Synchronous,
//!   tolerates any `b < N`.
//! * [`ConsensusKind::Pbft`] — three-phase PBFT with view changes:
//!   drops the synchrony assumption entirely (`N ≥ 3b + 1`), and a
//!   withheld round usually still commits the next primary's batch.
//!
//! Whatever the backend decides, an undecidable round falls back to the
//! **empty batch** — a deterministic fallback every honest node shares
//! (falling back to one's *own* pending batch, as the script-driven
//! pipeline does, would diverge). Execution-phase Byzantine behaviors
//! ([`BehaviorKind`]) are orthogonal to staging-phase faults
//! ([`crate::consensus::StagingFault`]); the full protocol stack is
//! specified in `docs/PROTOCOL.md`.
//!
//! # Admission control
//!
//! Submissions are deduplicated by `(client, seq)` and admission is
//! bounded ([`GatewayConfig::queue_cap`] pending commands plus the
//! runtime's fixed-size inbox), so a flooding client cannot grow a node's
//! memory: beyond the caps, submissions are dropped and the client's
//! timeout/retry path provides backpressure. Retries of an
//! already-committed command are answered from a per-client reply cache
//! instead of re-executing — the gateway is idempotent per `(client,
//! seq)`.

use crate::consensus::{ConsensusKind, StagingFault};
use crate::core::{Effect, Event as CoreEvent, GatewayCore, TimerId, TimerKind};
use crate::runtime::ExchangeTiming;
use crate::{BehaviorKind, CodedMachine, RoundCommit};
use csm_algebra::Field;
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_telemetry::{Event, RecordingSink, SharedSink, Sink};
use csm_transport::{Frame, Payload, RecvError, Transport};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One admitted client command: the unit the leader batches. Carries the
/// client's own `Submit` MAC tag so validators can re-verify authorship —
/// a Byzantine *leader* cannot fabricate a command in a client's name
/// (the paper's Validity property, §2.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchEntry {
    /// Submitting client's registry id.
    pub client: u64,
    /// Client sequence number (the dedup key, with `client`).
    pub seq: u64,
    /// Target shard (machine index).
    pub shard: usize,
    /// The client's MAC tag over its `Submit` payload (proof the client
    /// authorized exactly this `(shard, seq, command)`).
    pub sig_tag: u64,
    /// Canonical field-element encoding of the command vector.
    pub command: Vec<u64>,
}

impl BatchEntry {
    /// The `Submit` payload this entry claims the client signed.
    fn submit_payload(&self) -> Payload {
        Payload::Submit {
            shard: self.shard as u64,
            client: self.client,
            seq: self.seq,
            command: self.command.clone(),
        }
    }

    /// Verifies the client's MAC over the claimed submission.
    pub fn verify(&self, registry: &KeyRegistry) -> bool {
        use csm_transport::Wire;
        registry.verify(
            &self.submit_payload().to_bytes(),
            &csm_network::auth::Signature {
                signer: NodeId(self.client as usize),
                tag: self.sig_tag,
            },
        )
    }
}

/// Encodes a batch as `Stage` rows: `[client, seq, shard, sig_tag,
/// command...]`.
pub fn encode_batch(batch: &[BatchEntry]) -> Vec<Vec<u64>> {
    batch
        .iter()
        .map(|e| {
            let mut row = Vec::with_capacity(4 + e.command.len());
            row.extend([e.client, e.seq, e.shard as u64, e.sig_tag]);
            row.extend(&e.command);
            row
        })
        .collect()
}

/// Decodes and validates `Stage` rows back into a batch: every row must
/// be well-shaped for the machine, name a client id outside the cluster
/// range, and carry a valid client MAC over the claimed submission (so
/// a Byzantine leader cannot forge commands). A shard may be targeted
/// by up to `batch_cap` rows — its per-round command *program*, applied
/// in row order — and `(client, seq)` pairs must be unique across the
/// batch (a duplicated row would apply a command its client authorized
/// once twice). Returns `None` on any violation (followers refuse to
/// echo an invalid proposal; adopters fall back to the empty batch —
/// honest nodes reject an over-cap or ill-formed program wholesale, a
/// Byzantine leader cannot make them split on it).
pub fn decode_batch(
    rows: &[Vec<u64>],
    shards: usize,
    batch_cap: usize,
    input_dim: usize,
    cluster: usize,
    registry: &KeyRegistry,
) -> Option<Vec<BatchEntry>> {
    let cap = batch_cap.max(1);
    if rows.len() > shards.saturating_mul(cap) {
        return None;
    }
    let mut per_shard = vec![0usize; shards];
    let mut seen = BTreeSet::new();
    let mut batch = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 4 + input_dim {
            return None;
        }
        let (client, seq, shard, sig_tag) = (row[0], row[1], row[2] as usize, row[3]);
        if shard >= shards || (client as usize) < cluster || !seen.insert((client, seq)) {
            return None;
        }
        per_shard[shard] += 1;
        if per_shard[shard] > cap {
            return None;
        }
        let entry = BatchEntry {
            client,
            seq,
            shard,
            sig_tag,
            command: row[4..].to_vec(),
        };
        if !entry.verify(registry) {
            return None;
        }
        batch.push(entry);
    }
    Some(batch)
}

/// The batch-validity predicate every backend shares: `rows` decode for
/// `machine` under `batch_cap` (shape, client MACs, uniqueness) and no
/// row replays a command at or below its client's committed `horizon` —
/// commits advance the horizon on every honest node alike, so they all
/// judge a proposal the same way.
pub(crate) fn batch_valid<F: Field>(
    rows: &[Vec<u64>],
    machine: &CodedMachine<F>,
    batch_cap: usize,
    registry: &KeyRegistry,
    horizon: &BTreeMap<u64, u64>,
) -> bool {
    let input_dim = machine.transition().input_dim();
    decode_batch(
        rows,
        machine.k(),
        batch_cap,
        input_dim,
        machine.n(),
        registry,
    )
    .is_some_and(|batch| {
        batch
            .iter()
            .all(|e| horizon.get(&e.client).is_none_or(|&s| s < e.seq))
    })
}

/// Gateway tuning knobs.
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Protocol mesh size `N` (ids `0..cluster` are nodes; the rest of
    /// the transport mesh is clients).
    pub cluster: usize,
    /// Provisioned fault bound `b`: the echo quorum is `N − b` and
    /// clients accept at `b + 1` matching replies.
    pub assumed_faults: usize,
    /// Maximum pending admitted commands; submissions beyond this are
    /// rejected (dropped — the client retries) so a flood cannot OOM a
    /// node.
    pub queue_cap: usize,
    /// Maximum commands the leader aggregates per shard per round — the
    /// length cap on each shard's per-round command *program*. `1`
    /// reproduces the classic one-command-per-shard round; raising it
    /// multiplies round throughput without touching the agreement
    /// protocols (they agree on opaque batch bytes). Must not exceed
    /// the machine's `max_program_len` (asserted at gateway startup):
    /// fold-aggregatable machines like the bank accept any cap, while
    /// general machines need their code dimension sized for the cap
    /// (`CodedMachine::with_program_cap`).
    pub batch_cap: usize,
    /// How long to wait for the leader's proposal, and again for the echo
    /// quorum, before falling back to the empty batch.
    pub stage_timeout: Duration,
    /// Hard cap on rounds (a backstop for driver bugs; the stop flag is
    /// the normal shutdown path).
    pub max_rounds: u64,
    /// How many trailing rounds of commit records the report retains — a
    /// long-lived gateway must not grow history without bound.
    pub commit_history: usize,
    /// Pause after a round whose batch was empty (inbound frames are
    /// still absorbed), so an idle cluster does not spin the staging and
    /// exchange machinery at network speed.
    pub idle_pause: Duration,
    /// Maximum *pending* commands per client: a single flooding client
    /// fills its own quota, not the shared queue, so it cannot starve
    /// other clients' admission.
    pub client_quota: usize,
    /// Maximum cached reply payloads across all clients. A cached reply
    /// is dropped as soon as its client implicitly acknowledges it (by
    /// submitting a higher sequence number); this cap bounds the
    /// never-acknowledging worst case. Eviction order tracks the agreed
    /// batches, which are identical on honest nodes — so past the cap,
    /// an evicted client's retry is deduplicated (never re-executed) but
    /// may be answered by *no* node and fail with `NoQuorum`: the cap
    /// trades that client's retry availability for bounded memory. Size
    /// it above the expected number of concurrently-unacknowledged
    /// clients.
    pub reply_cache_cap: usize,
    /// Which batch-consensus backend agrees each round's batch. Every
    /// honest node of a cluster must configure the same backend.
    pub consensus: ConsensusKind,
    /// The Dolev–Strong relay-round length (the synchrony bound Δ of the
    /// batch broadcast); one agreement takes `(b + 1)` such rounds.
    /// Unused by the other backends.
    ///
    /// Must exceed **one-hop network latency plus honest round-entry
    /// skew**: relay rounds are indexed off each node's own clock from
    /// the moment it enters the round, and honest nodes can enter up to
    /// an exchange Δ apart (one may finalize its previous word early on
    /// a full result set while another waits out the deadline). The
    /// default is `2·Δ_exchange + 20 ms` so a full skew plus a delivery
    /// still lands inside one relay round.
    pub consensus_delta: Duration,
    /// Extra telemetry sink teed with the gateway's internal recording
    /// sink (e.g. a `ReplaySink` for determinism tests). The gateway
    /// always aggregates into its own [`RecordingSink`] regardless —
    /// this only adds a second consumer of the same stream.
    pub sink: Option<SharedSink>,
    /// Directory for Byzantine flight-recorder dumps. When set, the
    /// gateway writes its recent-event ring to a timestamped JSON file
    /// on desync fail-stop, resync, the first undecodable word, and the
    /// first decoder-identified Byzantine peer. Defaults from the
    /// `CSM_FLIGHT_DIR` environment variable; `None` disables dumps.
    pub flight_dir: Option<PathBuf>,
    /// Capacity of the flight-recorder event ring the gateway's internal
    /// [`RecordingSink`] keeps (clamped to at least 1). The ring bounds
    /// incident-history memory; counters and histograms are unaffected.
    pub flight_ring: usize,
    /// Hard cap on the serialized `TelemetrySnapshot` a scrape reply may
    /// carry. A long-lived gateway accretes counters without bound, so
    /// the snapshot is shed deterministically to fit
    /// ([`TelemetrySnapshot::to_bounded_json`]) — a scrape can never
    /// produce an unbounded frame.
    ///
    /// [`TelemetrySnapshot::to_bounded_json`]: csm_telemetry::TelemetrySnapshot::to_bounded_json
    pub telemetry_reply_max_bytes: usize,
}

impl GatewayConfig {
    /// Defaults scaled from the exchange timing: the staging timeout
    /// tracks the exchange Δ so one slow round cannot cascade.
    pub fn new(cluster: usize, assumed_faults: usize, timing: &ExchangeTiming) -> Self {
        assert!(assumed_faults < cluster, "need b < N");
        GatewayConfig {
            cluster,
            assumed_faults,
            queue_cap: 4096,
            batch_cap: 1,
            stage_timeout: timing.delta * 4 + Duration::from_millis(500),
            max_rounds: u64::MAX,
            commit_history: 1 << 16,
            idle_pause: timing.delta / 4,
            client_quota: 64,
            reply_cache_cap: 4096,
            consensus: ConsensusKind::default(),
            consensus_delta: timing.delta * 2 + Duration::from_millis(20),
            sink: None,
            flight_dir: std::env::var_os("CSM_FLIGHT_DIR").map(PathBuf::from),
            flight_ring: RecordingSink::RING_CAPACITY,
            telemetry_reply_max_bytes: 256 << 10,
        }
    }

    /// Sets the per-shard per-round aggregation cap (builder-style).
    pub fn with_batch_cap(mut self, batch_cap: usize) -> Self {
        self.batch_cap = batch_cap;
        self
    }

    /// Selects the batch-consensus backend (builder-style).
    pub fn with_consensus(mut self, consensus: ConsensusKind) -> Self {
        self.consensus = consensus;
        self
    }

    /// Tees an extra telemetry sink into the gateway (builder-style).
    pub fn with_sink(mut self, sink: SharedSink) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Sets the flight-recorder dump directory (builder-style).
    pub fn with_flight_dir(mut self, dir: PathBuf) -> Self {
        self.flight_dir = Some(dir);
        self
    }

    /// Sets the flight-recorder ring capacity (builder-style).
    pub fn with_flight_ring(mut self, capacity: usize) -> Self {
        self.flight_ring = capacity;
        self
    }

    /// Caps the serialized snapshot size of scrape replies
    /// (builder-style).
    pub fn with_telemetry_reply_max_bytes(mut self, max_bytes: usize) -> Self {
        self.telemetry_reply_max_bytes = max_bytes;
        self
    }

    /// The echo quorum `N − b`.
    pub fn quorum(&self) -> usize {
        self.cluster - self.assumed_faults
    }
}

/// What the gateway executes: the coded machine plus this node's
/// execution-phase behavior.
#[derive(Debug, Clone)]
pub struct GatewaySpec<F: Field> {
    /// The coded machine shared by the cluster.
    pub machine: Arc<CodedMachine<F>>,
    /// Plaintext initial states, one per shard.
    pub initial_states: Vec<Vec<F>>,
    /// This node's behavior — Byzantine nodes also corrupt or withhold
    /// their *replies*, which is exactly what the client-side `b + 1`
    /// acceptance rule defends against.
    pub behavior: BehaviorKind,
    /// How this node misbehaves in the *staging* phase when it leads a
    /// round (orthogonal to the execution-phase `behavior`) — the fault
    /// the real consensus backends contain.
    pub staging_fault: StagingFault,
}

/// Monotonic admission/reply counters for one gateway node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GatewayStats {
    /// Submissions admitted into the pending queue.
    pub admitted: u64,
    /// Submissions dropped because the queue was at capacity.
    pub rejected_full: u64,
    /// Submissions dropped as malformed (bad shard or command shape).
    pub rejected_invalid: u64,
    /// Submissions ignored as duplicates of a queued command.
    pub duplicates: u64,
    /// Retries of an already-committed command answered from the reply
    /// cache (no re-execution).
    pub replayed: u64,
    /// Replies sent after commits (cache replays not included).
    pub replies_sent: u64,
    /// Client commands applied by committed rounds (every row of every
    /// agreed batch; with aggregation this outpaces the round count).
    pub commands_committed: u64,
    /// Rounds that executed the empty batch because no quorum formed.
    pub stage_fallbacks: u64,
    /// Rounds whose agreed batch was empty (idle or fallback).
    pub empty_rounds: u64,
    /// Submissions dropped at the per-client pending quota.
    pub rejected_quota: u64,
    /// `Submit` frames dropped at the runtime inbox cap.
    pub inbox_dropped: u64,
    /// Retries of a committed command whose cached reply was already
    /// evicted (acknowledged or over the cache cap) — not re-executed,
    /// just not answered by this node.
    pub replay_misses: u64,
    /// Read-only queries answered from the committed state.
    pub queries_answered: u64,
    /// State-transfer chunks served to recovering peers.
    pub state_chunks_served: u64,
    /// Times this node installed a `b + 1`-verified state transfer after
    /// detecting it had fallen behind or diverged (durable mode only).
    pub resyncs: u64,
    /// Committed rounds appended to the write-ahead log (durable mode).
    pub wal_appends: u64,
    /// Coded-state snapshots installed (durable mode).
    pub snapshots: u64,
    /// Cached replies evicted by the global [`GatewayConfig::reply_cache_cap`]
    /// (never-acknowledging clients past the cap lose retry availability).
    pub reply_cache_evictions: u64,
    /// The node detected (via `b + 1` peers agreeing on a commit digest
    /// it does not hold) that its state diverged, and fail-stopped
    /// instead of contributing wrong results.
    pub desynced: bool,
}

/// The bounded reply-payload cache: up to `per_client` cached `Reply`s
/// per client — an aggregated round commits up to
/// [`GatewayConfig::batch_cap`] of one client's commands at once, and
/// each needs its reply retryable until acknowledged (the old
/// one-slot-per-client cache silently dropped retries of any committed
/// command below the latest). Entries are dropped the moment the client
/// implicitly acknowledges them — a `Submit` with a higher sequence
/// number proves the client accepted everything below — and capped
/// globally with oldest-first eviction. The *dedup horizon* lives
/// outside this cache (in [`Admission::horizon`]), so eviction can
/// never cause a committed command to re-execute; an evicted retry is
/// merely unanswered (and since honest nodes evict in the same
/// batch-derived order, unanswered by all of them — see
/// [`GatewayConfig::reply_cache_cap`]).
#[derive(Debug, Default)]
struct ReplyCache {
    by_client: BTreeMap<u64, BTreeMap<u64, Payload>>,
    /// Live payloads across all clients (what the global cap measures).
    live: usize,
    /// Insertion order as `(client, seq)` markers; stale markers (the
    /// entry was acknowledged or evicted since) are skipped at eviction
    /// time.
    order: VecDeque<(u64, u64)>,
}

impl ReplyCache {
    fn get(&self, client: u64, seq: u64) -> Option<Payload> {
        self.by_client.get(&client)?.get(&seq).cloned()
    }

    /// Removes one cached entry, reporting whether it was live.
    fn remove(&mut self, client: u64, seq: u64) -> bool {
        let Some(seqs) = self.by_client.get_mut(&client) else {
            return false;
        };
        if seqs.remove(&seq).is_none() {
            return false;
        }
        self.live -= 1;
        if seqs.is_empty() {
            self.by_client.remove(&client);
        }
        true
    }

    /// Drops the client's cached replies below `seq` (the client has
    /// acknowledged them by moving on).
    fn ack_below(&mut self, client: u64, seq: u64) {
        if let Some(seqs) = self.by_client.get_mut(&client) {
            let keep = seqs.split_off(&seq);
            self.live -= seqs.len();
            *seqs = keep;
            if seqs.is_empty() {
                self.by_client.remove(&client);
            }
        }
    }

    /// Caches a committed reply, keeping at most `per_client` payloads
    /// per client (lowest seq dropped first — more unacknowledged
    /// commands than one aggregated round can commit means the client
    /// broke the acknowledgement protocol) and at most `cap` globally.
    /// Returns the clients whose cached reply the global cap evicted.
    fn insert(
        &mut self,
        client: u64,
        seq: u64,
        payload: Payload,
        per_client: usize,
        cap: usize,
    ) -> Vec<u64> {
        let mut evicted = Vec::new();
        if self
            .by_client
            .entry(client)
            .or_default()
            .insert(seq, payload)
            .is_none()
        {
            self.live += 1;
        }
        self.order.push_back((client, seq));
        while self
            .by_client
            .get(&client)
            .is_some_and(|seqs| seqs.len() > per_client.max(1))
        {
            let oldest = *self.by_client[&client].keys().next().expect("nonempty");
            self.remove(client, oldest);
        }
        while self.live > cap.max(1) {
            let Some((c, s)) = self.order.pop_front() else {
                break;
            };
            // only evict if the marker still names a live entry
            if self.remove(c, s) {
                evicted.push(c);
            }
        }
        // stale markers must not accumulate past the live entries either
        while self.order.len() > 2 * cap.max(1) {
            let Some((c, s)) = self.order.pop_front() else {
                break;
            };
            if self.by_client.get(&c).is_some_and(|m| m.contains_key(&s)) {
                // live entry whose marker we just popped: re-mark it
                self.order.push_back((c, s));
            }
        }
        evicted
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.live
    }
}

/// Where admission incidents are reported and which `(node, round)`
/// they are attributed to.
pub(crate) struct EventScope<'a> {
    pub(crate) sink: &'a dyn Sink,
    pub(crate) node: usize,
    pub(crate) round: u64,
}

impl EventScope<'_> {
    pub(crate) fn event(&self, event: Event) {
        self.sink.event(self.node, self.round, None, event);
    }
}

/// The admission state: pending queue, dedup index, and reply cache.
#[derive(Debug, Default)]
pub(crate) struct Admission {
    queue: VecDeque<BatchEntry>,
    queued: BTreeSet<(u64, u64)>,
    /// Pending-command count per client (the fairness quota); entries are
    /// removed when they reach zero.
    pending_per_client: BTreeMap<u64, usize>,
    /// Per client: highest committed seq — the dedup/replay horizon. This
    /// is the only per-client state kept for a client's whole lifetime,
    /// and it is one `u64`, not a payload.
    pub(crate) horizon: BTreeMap<u64, u64>,
    /// Cached reply payloads for not-yet-acknowledged committed commands.
    replies: ReplyCache,
    pub(crate) stats: GatewayStats,
}

impl Admission {
    /// Runs the admission pass over freshly drained `Submit` frames,
    /// reporting per-client drop/dedup/replay incidents into `scope`.
    /// Returns cache replays to send (`(client, payload)` pairs).
    pub(crate) fn admit(
        &mut self,
        frames: Vec<Frame>,
        shards: usize,
        input_dim: usize,
        cfg: &GatewayConfig,
        scope: &EventScope<'_>,
    ) -> Vec<(u64, Payload)> {
        let mut replays = Vec::new();
        for frame in frames {
            let sig_tag = frame.sig.tag;
            let Payload::Submit {
                shard,
                client,
                seq,
                command,
            } = frame.payload
            else {
                continue;
            };
            match self.horizon.get(&client) {
                Some(&done_seq) if done_seq >= seq => {
                    // a retry of a committed command — the latest, or an
                    // earlier one from the same aggregated round whose
                    // reply the client never saw: answer from the cache
                    // (if still held), never re-execute
                    match self.replies.get(client, seq) {
                        Some(payload) => {
                            self.stats.replayed += 1;
                            scope.event(Event::ReplyCacheHit { client });
                            replays.push((client, payload));
                        }
                        None => self.stats.replay_misses += 1,
                    }
                    continue;
                }
                Some(_) => {
                    // seq advanced past the horizon: everything below it
                    // is implicitly acknowledged — free the cached payload
                    self.replies.ack_below(client, seq);
                }
                None => {}
            }
            if self.queued.contains(&(client, seq)) {
                self.stats.duplicates += 1;
                scope.event(Event::DedupHit { client });
                continue;
            }
            if shard as usize >= shards || command.len() != input_dim {
                self.stats.rejected_invalid += 1;
                continue;
            }
            if *self.pending_per_client.get(&client).unwrap_or(&0) >= cfg.client_quota {
                // one client flooding fills its own quota, not the queue
                self.stats.rejected_quota += 1;
                scope.event(Event::AdmissionDrop { client });
                continue;
            }
            if self.queue.len() >= cfg.queue_cap {
                self.stats.rejected_full += 1;
                scope.event(Event::AdmissionDrop { client });
                continue;
            }
            self.queued.insert((client, seq));
            *self.pending_per_client.entry(client).or_insert(0) += 1;
            self.queue.push_back(BatchEntry {
                client,
                seq,
                shard: shard as usize,
                sig_tag,
                command,
            });
            self.stats.admitted += 1;
        }
        replays
    }

    /// The leader's proposal: up to `batch_cap` pending commands per
    /// shard — the shard's per-round command *program*, applied in row
    /// order. Slots are filled round-robin across clients (each pass
    /// takes each client's oldest pending command for the shard), so a
    /// flooding client cannot monopolize a shard's program: with `c`
    /// clients pending on a shard, every one of them is guaranteed
    /// `⌈batch_cap / c⌉` slots per round. Entries stay queued until
    /// they appear in a *committed* batch.
    pub(crate) fn build_batch(&self, shards: usize, batch_cap: usize) -> Vec<BatchEntry> {
        let cap = batch_cap.max(1);
        // per shard: each client's pending commands, in arrival order
        let mut per_shard: Vec<BTreeMap<u64, VecDeque<&BatchEntry>>> =
            vec![BTreeMap::new(); shards];
        for entry in &self.queue {
            if entry.shard < shards {
                per_shard[entry.shard]
                    .entry(entry.client)
                    .or_default()
                    .push_back(entry);
            }
        }
        let mut batch = Vec::new();
        for clients in &mut per_shard {
            let mut taken = 0;
            while taken < cap {
                let mut progressed = false;
                for pending in clients.values_mut() {
                    if taken == cap {
                        break;
                    }
                    if let Some(entry) = pending.pop_front() {
                        batch.push(entry.clone());
                        taken += 1;
                        progressed = true;
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
        batch
    }

    /// Records a committed entry: caches its reply, drops it from the
    /// queue, and advances the client's dedup horizon. An aggregated
    /// round may commit several of one client's commands — the horizon
    /// tracks the highest seq, while the cache keeps every reply (bounded
    /// by `batch_cap` per client) until acknowledged. Returns the clients
    /// whose cached replies the global cache cap evicted.
    pub(crate) fn record_done(
        &mut self,
        entry: &BatchEntry,
        reply: Payload,
        batch_cap: usize,
        cache_cap: usize,
    ) -> Vec<u64> {
        if self
            .horizon
            .get(&entry.client)
            .is_none_or(|&s| s < entry.seq)
        {
            self.horizon.insert(entry.client, entry.seq);
            // per-shard queues are independent, so a commit on one shard
            // can leapfrog the horizon past the client's still-pending
            // commands on another shard. Those entries can never commit
            // (every honest validity predicate now rejects them as
            // replays), and one left in the queue poisons every batch the
            // leader aggregates it into — a permanent staging livelock.
            // Purge them the moment the horizon moves.
            let stale: Vec<(u64, u64)> = self
                .queued
                .iter()
                .filter(|&&(c, s)| c == entry.client && s < entry.seq)
                .copied()
                .collect();
            for key in stale {
                self.queued.remove(&key);
                self.queue.retain(|e| (e.client, e.seq) != key);
                if let Some(n) = self.pending_per_client.get_mut(&entry.client) {
                    *n = n.saturating_sub(1);
                    if *n == 0 {
                        self.pending_per_client.remove(&entry.client);
                    }
                }
            }
        }
        // cache unconditionally: batch validity already guaranteed every
        // committed (client, seq) is unique and above the pre-round
        // horizon, whatever order the batch rows land here in
        let evicted = self
            .replies
            .insert(entry.client, entry.seq, reply, batch_cap, cache_cap);
        self.stats.reply_cache_evictions += evicted.len() as u64;
        if self.queued.remove(&(entry.client, entry.seq)) {
            self.queue
                .retain(|e| (e.client, e.seq) != (entry.client, entry.seq));
            if let Some(n) = self.pending_per_client.get_mut(&entry.client) {
                *n = n.saturating_sub(1);
                if *n == 0 {
                    self.pending_per_client.remove(&entry.client);
                }
            }
        }
        evicted
    }
}

/// What one gateway node observed over its run.
#[derive(Debug, Clone)]
pub struct GatewayReport<F> {
    /// The node id.
    pub id: usize,
    /// Trailing-window commit records (`None` where the word failed to
    /// decode); index `i` is round `first_recorded_round + i`.
    pub commits: Vec<Option<RoundCommit<F>>>,
    /// The round `commits[0]` corresponds to (non-zero once the
    /// [`GatewayConfig::commit_history`] window has slid, after a durable
    /// restart, or after a resync).
    pub first_recorded_round: u64,
    /// Rounds run before the stop flag (or `max_rounds`) ended the loop.
    pub rounds: u64,
    /// Admission/reply counters.
    pub stats: GatewayStats,
    /// Crash-recovery details (durable gateways only — see
    /// [`crate::recovery::run_durable_gateway`]).
    pub recovery: Option<crate::recovery::RecoveryInfo>,
}

impl<F> GatewayReport<F> {
    /// The digests of the successfully committed (retained) rounds.
    pub fn digests(&self) -> Vec<(u64, u64)> {
        self.commits
            .iter()
            .flatten()
            .map(|c| (c.round, c.digest))
            .collect()
    }
}

/// Runs one node of a client-serving CSM cluster until `stop` is raised:
/// admit submissions, agree each round's batch behind the rotating
/// leader, execute/exchange/decode it, and fan replies back to clients.
/// The round itself is [`GatewayCore`]; this is its wall-clock driver.
///
/// # Panics
///
/// Panics if the spec's machine does not match `cfg.cluster` or the
/// initial states are malformed.
pub fn run_gateway<F: Field, T: Transport>(
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: &GatewaySpec<F>,
    cfg: &GatewayConfig,
    stop: &AtomicBool,
) -> GatewayReport<F> {
    let id = transport.local_id().0;
    let core = GatewayCore::new(id, registry, timing, spec, cfg, None);
    drive(core, &transport, stop)
}

/// How often a gateway blocked on a quiet transport wakes to check its
/// stop flag (PBFT has no safe unilateral timeout, so a round can wait
/// on the network indefinitely).
const STOP_POLL_INTERVAL: Duration = Duration::from_millis(200);

/// The wall-clock driver: delivers authenticated frames and due timers
/// to the core and performs its effects, in order, until the core halts
/// or `stop` is raised (a round already inside its bounded waits is
/// finished first). The core arms at most one live timer per kind, so
/// the timer table is one slot per kind and a re-armed kind supersedes
/// its stale predecessor; a due timer fires before the inbox is read, so
/// the exchange deadline is honoured with whatever was absorbed by Δ.
pub(crate) fn drive<F: Field, T: Transport>(
    mut core: GatewayCore<F>,
    transport: &T,
    stop: &AtomicBool,
) -> GatewayReport<F> {
    let cluster = core.cluster();
    let epoch = Instant::now();
    let now_us = || epoch.elapsed().as_micros() as u64;
    let mut timers: [Option<(u64, TimerId)>; TimerKind::COUNT] = [None; TimerKind::COUNT];
    let mut effects = core.start(now_us());
    loop {
        for effect in effects {
            match effect {
                Effect::Send { to, frame } => {
                    let _ = transport.send(NodeId(to), frame);
                }
                Effect::Broadcast(frame) => {
                    let _ = transport.broadcast_upto(cluster, &frame);
                }
                Effect::SetTimer { at_us, id } => timers[id.kind as usize] = Some((at_us, id)),
                Effect::Halt(_) => return core.into_report(),
            }
        }
        if stop.load(Ordering::Relaxed) && !core.mid_round() {
            return core.into_report();
        }
        let now = now_us();
        let next = timers.iter().flatten().copied().min();
        effects = match next {
            Some((at_us, id)) if at_us <= now => {
                timers[id.kind as usize] = None;
                core.observe_transport(transport.stats());
                core.step(now, CoreEvent::Timer(id))
            }
            _ => {
                let wait = next.map_or(STOP_POLL_INTERVAL, |(at_us, _)| {
                    Duration::from_micros(at_us - now).min(STOP_POLL_INTERVAL)
                });
                match transport.recv_timeout(wait) {
                    Ok(frame) => core.step(now_us(), CoreEvent::Frame(frame)),
                    Err(RecvError::Timeout) => Vec::new(),
                    Err(RecvError::Disconnected) => {
                        // nothing can arrive any more; timers still run
                        std::thread::sleep(wait);
                        Vec::new()
                    }
                }
            }
        };
    }
}

/// Applies the node's Byzantine behavior to a served state chunk: an
/// equivocator perturbs the results (leaving the claimed digest — the
/// rejoiner's digest check must catch it), a withholder serves nothing.
pub(crate) fn chunk_after_fault(chunk: Payload, behavior: BehaviorKind) -> Option<Payload> {
    match behavior {
        BehaviorKind::Withhold => None,
        BehaviorKind::Equivocate => {
            let Payload::StateChunk {
                round,
                digest,
                results,
            } = chunk
            else {
                return Some(chunk);
            };
            Some(Payload::StateChunk {
                round,
                digest,
                results: results
                    .into_iter()
                    .map(|row| row.into_iter().map(|v| v.wrapping_add(77)).collect())
                    .collect(),
            })
        }
        BehaviorKind::Honest | BehaviorKind::Impersonate => Some(chunk),
    }
}

/// The honest reply for a committed entry. Every command of a shard's
/// per-round program is answered with the shard's *post-program* result
/// — deterministic across honest nodes, so the client's `b + 1` matching
/// rule is unaffected by aggregation.
pub(crate) fn reply_payload<F: Field>(entry: &BatchEntry, commit: &RoundCommit<F>) -> Payload {
    Payload::Reply {
        shard: entry.shard as u64,
        round: commit.round,
        client: entry.client,
        seq: entry.seq,
        output: commit.results[entry.shard]
            .iter()
            .map(|x| x.to_canonical_u64())
            .collect(),
    }
}

/// Applies the node's Byzantine behavior to the reply path (write replies
/// and read-query replies alike): equivocators send a corrupted output
/// (each client must survive `b` wrong replies), withholders send
/// nothing. This is what the client-side `b + 1` rule is tested against.
pub(crate) fn reply_after_fault(reply: Payload, behavior: BehaviorKind) -> Option<Payload> {
    match behavior {
        BehaviorKind::Withhold => None,
        BehaviorKind::Equivocate => match reply {
            Payload::Reply {
                shard,
                round,
                client,
                seq,
                output,
            } => Some(Payload::Reply {
                shard,
                round,
                client,
                seq,
                output: output.into_iter().map(|v| v.wrapping_add(77)).collect(),
            }),
            Payload::QueryReply {
                shard,
                round,
                client,
                qid,
                value,
            } => Some(Payload::QueryReply {
                shard,
                round,
                client,
                qid,
                value: value.into_iter().map(|v| v.wrapping_add(77)).collect(),
            }),
            other => Some(other),
        },
        BehaviorKind::Honest | BehaviorKind::Impersonate => Some(reply),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_telemetry::NullSink;

    fn registry() -> KeyRegistry {
        KeyRegistry::new(10, 5)
    }

    fn test_scope() -> EventScope<'static> {
        EventScope {
            sink: &NullSink,
            node: 0,
            round: 0,
        }
    }

    /// A batch entry carrying the genuine client MAC for its submission.
    fn entry(
        reg: &KeyRegistry,
        client: u64,
        seq: u64,
        shard: usize,
        command: Vec<u64>,
    ) -> BatchEntry {
        let mut e = BatchEntry {
            client,
            seq,
            shard,
            sig_tag: 0,
            command,
        };
        use csm_transport::Wire;
        e.sig_tag = reg
            .sign(NodeId(client as usize), &e.submit_payload().to_bytes())
            .tag;
        e
    }

    fn test_cfg(queue_cap: usize) -> GatewayConfig {
        let timing = ExchangeTiming::synchronous(1, Duration::from_millis(50));
        let mut cfg = GatewayConfig::new(8, 1, &timing);
        cfg.queue_cap = queue_cap;
        cfg
    }

    #[test]
    fn batch_roundtrip() {
        let reg = registry();
        let batch = vec![
            entry(&reg, 8, 3, 0, vec![10]),
            entry(&reg, 9, 0, 1, vec![20]),
        ];
        let rows = encode_batch(&batch);
        assert_eq!(decode_batch(&rows, 2, 1, 1, 8, &reg), Some(batch));
    }

    #[test]
    fn decode_rejects_malformed_batches() {
        let reg = registry();
        let good = encode_batch(&[entry(&reg, 8, 0, 0, vec![1])]);
        assert!(decode_batch(&good, 2, 1, 1, 8, &reg).is_some());
        // two rows on one shard with a cap of 1
        let dup = encode_batch(&[entry(&reg, 8, 0, 0, vec![1]), entry(&reg, 9, 0, 0, vec![2])]);
        assert!(decode_batch(&dup, 2, 1, 1, 8, &reg).is_none());
        // shard out of range
        let far = encode_batch(&[entry(&reg, 8, 0, 5, vec![1])]);
        assert!(decode_batch(&far, 2, 1, 1, 8, &reg).is_none());
        // wrong command width
        let wide = encode_batch(&[entry(&reg, 8, 0, 0, vec![1, 2])]);
        assert!(decode_batch(&wide, 2, 1, 1, 8, &reg).is_none());
        // client id inside the cluster range
        let node_client = encode_batch(&[entry(&reg, 3, 0, 0, vec![1])]);
        assert!(decode_batch(&node_client, 2, 1, 1, 8, &reg).is_none());
        // more rows than shards * batch_cap
        let over = encode_batch(&[entry(&reg, 8, 0, 0, vec![1]), entry(&reg, 9, 0, 1, vec![2])]);
        assert!(decode_batch(&over, 1, 1, 1, 8, &reg).is_none());
    }

    #[test]
    fn decode_accepts_per_shard_programs_up_to_the_cap() {
        let reg = registry();
        // two commands on shard 0 (a program), one on shard 1
        let batch = vec![
            entry(&reg, 8, 0, 0, vec![1]),
            entry(&reg, 9, 4, 0, vec![2]),
            entry(&reg, 8, 1, 1, vec![3]),
        ];
        let rows = encode_batch(&batch);
        assert_eq!(decode_batch(&rows, 2, 2, 1, 8, &reg), Some(batch.clone()));
        // the same rows are rejected wholesale at cap 1: honest nodes
        // never split an over-cap program, they fall back together
        assert!(decode_batch(&rows, 2, 1, 1, 8, &reg).is_none());
        // a third row on shard 0 exceeds the cap of 2
        let mut over = batch.clone();
        over.push(entry(&reg, 9, 5, 0, vec![4]));
        assert!(decode_batch(&encode_batch(&over), 2, 2, 1, 8, &reg).is_none());
        // a Byzantine leader replaying one authorized command twice in a
        // round is caught by the (client, seq) uniqueness rule even
        // though both rows carry valid MACs
        let replayed = vec![entry(&reg, 8, 0, 0, vec![1]), entry(&reg, 8, 0, 1, vec![1])];
        assert!(decode_batch(&encode_batch(&replayed), 2, 2, 1, 8, &reg).is_none());
    }

    #[test]
    fn decode_rejects_forged_client_commands() {
        // a Byzantine leader fabricating a command in client 8's name
        // cannot produce the client's MAC: validators refuse the batch
        let reg = registry();
        let mut forged = entry(&reg, 8, 0, 0, vec![1]);
        forged.command = vec![7_000_000]; // the "fake deposit" attack
        assert!(!forged.verify(&reg));
        let rows = encode_batch(&[forged]);
        assert!(decode_batch(&rows, 2, 1, 1, 8, &reg).is_none());
        // signing with the *leader's* key (node 3) instead doesn't help
        let mut wrong_key = entry(&reg, 8, 0, 0, vec![1]);
        use csm_transport::Wire;
        wrong_key.sig_tag = reg
            .sign(NodeId(3), &wrong_key.submit_payload().to_bytes())
            .tag;
        assert!(decode_batch(&encode_batch(&[wrong_key]), 2, 1, 1, 8, &reg).is_none());
    }

    #[test]
    fn admission_dedups_and_bounds() {
        let reg = registry();
        let submit = |client: u64, seq: u64, shard: u64, v: u64| {
            Frame::sign(
                Payload::Submit {
                    shard,
                    client,
                    seq,
                    command: vec![v],
                },
                &reg,
                NodeId(client as usize),
            )
        };
        let mut adm = Admission::default();
        let cfg = test_cfg(2);
        let replays = adm.admit(
            vec![
                submit(8, 0, 0, 10),
                submit(8, 0, 0, 10), // duplicate of a queued command
                submit(9, 0, 1, 20),
                submit(9, 1, 9, 30), // bad shard
                submit(9, 2, 0, 40), // over the cap of 2
            ],
            2,
            1,
            &cfg,
            &test_scope(),
        );
        assert!(replays.is_empty());
        assert_eq!(adm.stats.admitted, 2);
        assert_eq!(adm.stats.duplicates, 1);
        assert_eq!(adm.stats.rejected_invalid, 1);
        assert_eq!(adm.stats.rejected_full, 1);

        // the leader batches one command per shard at cap 1, entries
        // carry the client's submit MAC
        let batch = adm.build_batch(2, 1);
        assert_eq!(batch.len(), 2);
        assert!(batch.iter().all(|e| e.verify(&reg)));

        // commit entry (8, 0): retrying it replays the cached reply
        let reply = Payload::Reply {
            shard: 0,
            round: 0,
            client: 8,
            seq: 0,
            output: vec![110, 110],
        };
        adm.record_done(&entry(&reg, 8, 0, 0, vec![10]), reply.clone(), 1, 64);
        assert_eq!(adm.queue.len(), 1);
        let replays = adm.admit(vec![submit(8, 0, 0, 10)], 2, 1, &cfg, &test_scope());
        assert_eq!(replays, vec![(8, reply)]);
        assert_eq!(adm.stats.replayed, 1);
    }

    #[test]
    fn long_lived_client_cannot_grow_the_reply_cache() {
        // one client retires 500 sequential commands, retrying each once:
        // the dedup horizon stays a single u64 and the payload cache never
        // holds more than the one unacknowledged reply
        let reg = registry();
        let submit = |seq: u64| {
            Frame::sign(
                Payload::Submit {
                    shard: 0,
                    client: 8,
                    seq,
                    command: vec![1],
                },
                &reg,
                NodeId(8),
            )
        };
        let cfg = test_cfg(64);
        let mut adm = Admission::default();
        for seq in 0..500u64 {
            adm.admit(vec![submit(seq)], 1, 1, &cfg, &test_scope());
            let reply = Payload::Reply {
                shard: 0,
                round: seq,
                client: 8,
                seq,
                output: vec![seq, seq],
            };
            adm.record_done(
                &entry(&reg, 8, seq, 0, vec![1]),
                reply,
                1,
                cfg.reply_cache_cap,
            );
            // retry of the just-committed command is answered from cache
            let replays = adm.admit(vec![submit(seq)], 1, 1, &cfg, &test_scope());
            assert_eq!(replays.len(), 1, "seq {seq} replay");
            // lifetime-bounded state: one horizon entry, at most one
            // cached payload, no pending-count residue
            assert_eq!(adm.horizon.len(), 1);
            assert!(adm.replies.len() <= 1, "cache grew at seq {seq}");
            assert!(adm.pending_per_client.len() <= 1);
        }
        assert!(adm.pending_per_client.is_empty(), "no residue at rest");
        // the next submission implicitly acks seq 499: the payload goes too
        adm.admit(vec![submit(500)], 1, 1, &cfg, &test_scope());
        assert_eq!(adm.replies.len(), 0);
        assert_eq!(adm.horizon.get(&8), Some(&499));

        // aggregated rounds: four of the client's commands commit in one
        // round. Every reply stays cached (bounded by the round's
        // batch_cap) until the client moves on, and a retry of *any* of
        // them — including seqs now below the horizon, which the old
        // one-slot cache silently dropped — is answered.
        let cap = 4u64;
        for round in 0..50u64 {
            let base = 501 + round * cap;
            for i in 0..cap {
                adm.admit(vec![submit(base + i)], 1, 1, &cfg, &test_scope());
            }
            for i in 0..cap {
                let seq = base + i;
                let reply = Payload::Reply {
                    shard: 0,
                    round: 500 + round,
                    client: 8,
                    seq,
                    output: vec![seq, seq],
                };
                adm.record_done(
                    &entry(&reg, 8, seq, 0, vec![1]),
                    reply,
                    cap as usize,
                    cfg.reply_cache_cap,
                );
            }
            for i in 0..cap {
                let replays = adm.admit(vec![submit(base + i)], 1, 1, &cfg, &test_scope());
                assert_eq!(replays.len(), 1, "seq {} replay", base + i);
            }
            assert!(adm.replies.len() <= cap as usize, "round {round}");
            assert_eq!(adm.horizon.len(), 1);
        }
        // the next round's first submission acks the whole last program
        adm.admit(vec![submit(501 + 50 * cap)], 1, 1, &cfg, &test_scope());
        assert_eq!(adm.replies.len(), 0);
    }

    #[test]
    fn horizon_advance_purges_leapfrogged_queue_entries() {
        // per-shard queues are independent: a client's seq 1 (shard 1)
        // can commit in a round that never picked up its still-pending
        // seq 0 (shard 0). Seq 0 is then permanently below the dedup
        // horizon — every honest validity predicate rejects any batch
        // containing it as a replay — so leaving it queued poisons every
        // program the leader aggregates it into (a staging livelock the
        // chaos harness reproduces from seed). The horizon advance must
        // purge it.
        let reg = registry();
        let submit = |seq: u64, shard: u64| {
            Frame::sign(
                Payload::Submit {
                    shard,
                    client: 8,
                    seq,
                    command: vec![1],
                },
                &reg,
                NodeId(8),
            )
        };
        let cfg = test_cfg(100);
        let mut adm = Admission::default();
        adm.admit(vec![submit(0, 0), submit(1, 1)], 2, 1, &cfg, &test_scope());
        assert_eq!(adm.queue.len(), 2);

        // a round led elsewhere commits only seq 1
        let reply = Payload::Reply {
            shard: 1,
            round: 0,
            client: 8,
            seq: 1,
            output: vec![1],
        };
        adm.record_done(
            &entry(&reg, 8, 1, 1, vec![1]),
            reply,
            1,
            cfg.reply_cache_cap,
        );
        assert_eq!(adm.horizon.get(&8), Some(&1));

        // the leapfrogged seq 0 is gone root and branch: not in the
        // queue, not in the dedup set, no pending-count residue — and
        // the next program this node would lead with is valid again
        assert!(adm.queue.is_empty());
        assert!(adm.queued.is_empty());
        assert!(adm.pending_per_client.is_empty());
        assert!(adm.build_batch(2, 1).is_empty());

        // a retry of the purged command is below the horizon: treated as
        // a replay (no cached reply — it never committed), never
        // re-queued
        adm.admit(vec![submit(0, 0)], 2, 1, &cfg, &test_scope());
        assert!(adm.queue.is_empty());
        assert_eq!(adm.stats.replay_misses, 1);
    }

    #[test]
    fn batch_slots_round_robin_across_clients() {
        // one greedy client floods a shard; nine polite clients submit
        // one command each. Round-robin slot filling guarantees every
        // polite command makes the very next program — the greedy
        // backlog drains through the leftover slots, never by starving
        // anyone.
        let reg = KeyRegistry::new(20, 5);
        let submit = |client: u64, seq: u64| {
            Frame::sign(
                Payload::Submit {
                    shard: 0,
                    client,
                    seq,
                    command: vec![1],
                },
                &reg,
                NodeId(client as usize),
            )
        };
        let cfg = test_cfg(100);
        let mut adm = Admission::default();
        // the greedy client's flood lands first, ahead of everyone
        let mut frames: Vec<Frame> = (0..10).map(|s| submit(10, s)).collect();
        frames.extend((11..20).map(|c| submit(c, 0)));
        adm.admit(frames, 1, 1, &cfg, &test_scope());

        let batch = adm.build_batch(1, 10);
        assert_eq!(batch.len(), 10);
        for c in 11..20u64 {
            assert!(batch.iter().any(|e| e.client == c), "client {c} starved");
        }
        assert_eq!(batch.iter().filter(|e| e.client == 10).count(), 1);
        // a smaller cap still admits one command per client per pass:
        // the greedy client gets exactly its fair share of the slots
        let tight = adm.build_batch(1, 4);
        assert_eq!(tight.len(), 4);
        assert_eq!(tight.iter().filter(|e| e.client == 10).count(), 1);
        // with the polite clients drained, the flood gets the whole cap
        // in seq order
        for c in 11..20u64 {
            let reply = Payload::Reply {
                shard: 0,
                round: 0,
                client: c,
                seq: 0,
                output: vec![1],
            };
            adm.record_done(&entry(&reg, c, 0, 0, vec![1]), reply, 4, 64);
        }
        let alone = adm.build_batch(1, 4);
        assert_eq!(alone.len(), 4);
        assert!(alone.iter().all(|e| e.client == 10));
        assert_eq!(
            alone.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2, 3],
            "a client's program stays in its submission order"
        );
    }

    #[test]
    fn reply_cache_cap_evicts_oldest_clients() {
        let mut cache = ReplyCache::default();
        let reply = |client: u64| Payload::Reply {
            shard: 0,
            round: 0,
            client,
            seq: 0,
            output: vec![1],
        };
        for client in 0..100u64 {
            cache.insert(client, 0, reply(client), 1, 16);
            assert!(cache.len() <= 16, "cap violated at client {client}");
        }
        // the newest entries survive, the oldest were evicted
        assert!(cache.get(99, 0).is_some());
        assert!(cache.get(0, 0).is_none());
        // order markers are bounded too (stale markers are pruned)
        assert!(cache.order.len() <= 32);
    }

    #[test]
    fn per_client_quota_preserves_fairness() {
        let reg = registry();
        let submit = |client: u64, seq: u64| {
            Frame::sign(
                Payload::Submit {
                    shard: 0,
                    client,
                    seq,
                    command: vec![1],
                },
                &reg,
                NodeId(client as usize),
            )
        };
        let mut cfg = test_cfg(100);
        cfg.client_quota = 3;
        let mut adm = Admission::default();
        // client 8 floods 10 distinct seqs; client 9 submits one command
        let mut frames: Vec<Frame> = (0..10).map(|s| submit(8, s)).collect();
        frames.push(submit(9, 0));
        adm.admit(frames, 1, 1, &cfg, &test_scope());
        assert_eq!(adm.stats.rejected_quota, 7, "flood capped at the quota");
        // the flooder holds 3 slots, the other client still got in
        assert_eq!(adm.stats.admitted, 4);
        assert!(adm.queued.contains(&(9, 0)));
    }
}
