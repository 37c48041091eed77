//! The node-side §5.2 result-exchange protocol over a real [`Transport`].
//!
//! This is the runtime twin of `csm_core::exchange::exchange_results`:
//! both drive the same [`ReceiverCore`] finalization state machine, but
//! here messages cross an actual transport (channels or TCP) and the
//! synchronous Δ-deadline is wall-clock time instead of simulated ticks:
//!
//! * **Synchronous** — the word freezes `Δ` after the send phase starts
//!   (the model's known latency bound, §2.1).
//! * **Partially synchronous** — the word freezes upon holding `N − b`
//!   results (§5.2 liveness cutoff), with a hard fallback deadline so a
//!   silent network cannot wedge the node.
//!
//! Byzantine behaviors ([`ResultBehavior`]) are the simulator's:
//! honest broadcast, per-receiver equivocation (same noise schedule, so
//! sim-based tests predict runtime behavior exactly), withholding, and
//! impersonation — which transport-level MAC verification drops before it
//! ever reaches this module.

use csm_algebra::Field;
use csm_core::exchange::{canonical, equivocation_noise, ReceiverCore, ResultBehavior, Word};
use csm_core::SynchronyMode;
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_telemetry::{NullSink, SharedSink};
use csm_transport::{Frame, Payload, RecvError, Transport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many rounds ahead of the last finished round result frames are
/// buffered; anything further out is dropped (equivalent to the sender
/// withholding for that round, which the protocol already tolerates).
const ROUND_LOOKAHEAD: u64 = 64;

/// Largest result vector worth buffering for a future round; real results
/// are `state_dim + output_dim` elements, so this is generous while
/// keeping the pending buffer's worst case small.
const PENDING_MAX_VALUES: usize = 4096;

/// Timing and synchrony parameters of the exchange.
#[derive(Debug, Clone)]
pub struct ExchangeTiming {
    /// Network model.
    pub synchrony: SynchronyMode,
    /// Provisioned fault bound `b` (partial-synchrony cutoff `N − b`).
    pub assumed_faults: usize,
    /// The latency bound Δ as wall-clock time (synchronous finalization
    /// deadline).
    pub delta: Duration,
    /// Hard upper bound on any wait (partial-synchrony fallback so a dead
    /// network cannot wedge the node).
    pub max_wait: Duration,
    /// Freeze the word as soon as results from *all* `N` senders are held:
    /// a full word cannot change, so waiting out the Δ-deadline adds
    /// latency and no information. Off by default — with it on, rounds
    /// complete at network speed when every node is live, which changes
    /// the staging-overlap economics pipelining benchmarks measure.
    pub finalize_on_full: bool,
}

impl ExchangeTiming {
    /// Synchronous timing with latency bound `delta`.
    pub fn synchronous(assumed_faults: usize, delta: Duration) -> Self {
        ExchangeTiming {
            synchrony: SynchronyMode::Synchronous,
            assumed_faults,
            delta,
            max_wait: delta * 4 + Duration::from_secs(2),
            finalize_on_full: false,
        }
    }

    /// Partially synchronous timing cutting off at `N − assumed_faults`.
    pub fn partially_synchronous(assumed_faults: usize, max_wait: Duration) -> Self {
        ExchangeTiming {
            synchrony: SynchronyMode::PartiallySynchronous,
            assumed_faults,
            delta: max_wait,
            max_wait,
            finalize_on_full: false,
        }
    }

    /// Enables full-word early finalization (see
    /// [`ExchangeTiming::finalize_on_full`]).
    pub fn with_full_finalize(mut self) -> Self {
        self.finalize_on_full = true;
        self
    }
}

/// Runs exchange rounds for one node on top of any [`Transport`].
#[derive(Debug)]
pub struct NodeRuntime<T: Transport> {
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    /// Result frames that arrived for rounds we have not started yet
    /// (real networks have no round barrier — fast peers run ahead).
    pending: BTreeMap<u64, Vec<Frame>>,
    /// Commit announcements seen, per round and announcing node.
    commits: BTreeMap<u64, BTreeMap<usize, u64>>,
    /// Staged command-batch votes seen, per round and voting node (the
    /// §2.2 pipelining carrier: votes for round `t + 1` arrive while
    /// round `t`'s exchange is in flight).
    stages: BTreeMap<u64, BTreeMap<usize, Vec<Vec<u64>>>>,
    /// Highest round already run; results at or below it are stale.
    finished_round: Option<u64>,
    /// Where phase timings and incident events go ([`NullSink`] unless a
    /// driver injects one) — the engines stay sans-I/O; telemetry is a
    /// runtime-layer concern.
    sink: SharedSink,
}

impl<T: Transport> NodeRuntime<T> {
    /// Wraps a transport endpoint; the whole mesh is the cluster.
    pub fn new(transport: T, registry: Arc<KeyRegistry>, timing: ExchangeTiming) -> Self {
        NodeRuntime {
            transport,
            registry,
            timing,
            pending: BTreeMap::new(),
            commits: BTreeMap::new(),
            stages: BTreeMap::new(),
            finished_round: None,
            sink: Arc::new(NullSink),
        }
    }

    /// Replaces the telemetry sink (the default is a [`NullSink`]).
    pub fn set_sink(&mut self, sink: SharedSink) {
        self.sink = sink;
    }

    /// This node's id.
    pub fn id(&self) -> NodeId {
        self.transport.local_id()
    }

    /// Protocol mesh size `N`.
    pub fn n(&self) -> usize {
        self.transport.n()
    }

    /// Runs one §5.2 exchange round: sends this node's result per
    /// `behavior`, then collects authenticated results until finalization.
    /// Returns the finalized word.
    pub fn run_exchange_round<F: Field>(
        &mut self,
        round: u64,
        behavior: &ResultBehavior<F>,
    ) -> Word<F> {
        let n = self.n();
        let mut core: ReceiverCore<F> =
            ReceiverCore::new(n, self.timing.synchrony, self.timing.assumed_faults);

        self.send_phase(round, behavior, &mut core);

        // results that raced ahead of our round start
        for frame in self.pending.remove(&round).unwrap_or_default() {
            self.accept_result(&mut core, round, &frame);
        }

        let started = Instant::now();
        let soft_deadline = started + self.timing.delta;
        let hard_deadline = started + self.timing.max_wait;
        // Δ-slack measurement: how long the window kept waiting after the
        // last result was accepted — the headroom an optimistic fast path
        // could reclaim (ROADMAP item 3). Only tracked when a sink is
        // listening, so the NullSink path stays clock-read free.
        let slack_enabled = self.sink.enabled();
        let mut last_progress = started;
        let mut waited_out = false;
        loop {
            if core.is_finalized() {
                // partial synchrony: the N − b cutoff fired in record()
                break;
            }
            if self.timing.finalize_on_full && core.results_held() == n {
                // a full word is immutable; no point waiting out Δ
                break;
            }
            let stop_at = match self.timing.synchrony {
                SynchronyMode::Synchronous => soft_deadline,
                SynchronyMode::PartiallySynchronous => hard_deadline,
            };
            let now = Instant::now();
            if now >= stop_at {
                core.on_deadline();
                waited_out = true;
                break;
            }
            match self.transport.recv_timeout(stop_at - now) {
                Ok(frame) => {
                    let held = core.results_held();
                    self.dispatch(&mut core, round, frame);
                    if slack_enabled && core.results_held() > held {
                        last_progress = Instant::now();
                    }
                }
                Err(RecvError::Timeout) | Err(RecvError::Disconnected) => {
                    core.on_deadline();
                    waited_out = true;
                    break;
                }
            }
        }
        if slack_enabled {
            // a window that exited early (finalized / full word) has no
            // reclaimable wait — its slack sample is 0
            let slack = if waited_out {
                let stop_at = match self.timing.synchrony {
                    SynchronyMode::Synchronous => soft_deadline,
                    SynchronyMode::PartiallySynchronous => hard_deadline,
                };
                stop_at.saturating_duration_since(last_progress)
            } else {
                Duration::ZERO
            };
            self.sink.value(
                self.id().0,
                round,
                "slack.exchange",
                slack.as_micros() as u64,
            );
        }
        let finished = self.finished_round.map_or(round, |r| r.max(round));
        self.finished_round = Some(finished);
        // buffered results at or below the finished round can never be
        // used; commit digests are kept for a trailing window only (long
        // multi-round runs must not accumulate history without bound)
        self.pending = self.pending.split_off(&(finished + 1));
        self.stages = self.stages.split_off(&(finished + 1));
        self.commits = self
            .commits
            .split_off(&finished.saturating_sub(ROUND_LOOKAHEAD));
        core.into_word()
    }

    fn send_phase<F: Field>(
        &mut self,
        round: u64,
        behavior: &ResultBehavior<F>,
        core: &mut ReceiverCore<F>,
    ) {
        let n = self.n();
        let me = self.id();
        match behavior {
            ResultBehavior::Honest(g) => {
                let frame = Frame::sign(result_payload(round, me.0, g), &self.registry, me);
                // a node trivially "receives" its own result
                core.record(me.0, g.clone());
                let _ = self.transport.broadcast_upto(self.n(), &frame);
            }
            ResultBehavior::Equivocate(base) => {
                for j in 0..n {
                    if j == me.0 {
                        continue;
                    }
                    let mut v = base.clone();
                    let noise = F::from_u64(equivocation_noise(j));
                    for x in v.iter_mut() {
                        *x += noise;
                    }
                    let frame = Frame::sign(result_payload(round, me.0, &v), &self.registry, me);
                    let _ = self.transport.send(NodeId(j), frame);
                }
            }
            ResultBehavior::Withhold => {}
            ResultBehavior::Impersonate { spoof, forged } => {
                // signed with our key but claiming `spoof`: every
                // receiver's transport MAC check must drop it
                let frame = Frame::forge(
                    result_payload(round, *spoof, forged),
                    &self.registry,
                    me,
                    NodeId(*spoof),
                );
                let _ = self.transport.broadcast_upto(self.n(), &frame);
            }
        }
    }

    fn dispatch<F: Field>(&mut self, core: &mut ReceiverCore<F>, round: u64, frame: Frame) {
        if let Payload::Result { round: r, .. } = &frame.payload {
            if *r == round {
                self.accept_result(core, round, &frame);
            } else {
                self.absorb(frame);
            }
        } else {
            self.absorb(frame);
        }
    }

    /// Handles a frame outside the context of an active exchange round:
    /// commits and stage votes are recorded, results for not-yet-run
    /// rounds are buffered, everything else (stale results, client and
    /// gateway traffic the script-driven loops never serve) is dropped.
    ///
    /// Buffering is bounded so a validly-keyed Byzantine peer cannot grow
    /// memory without limit: only rounds within [`ROUND_LOOKAHEAD`] of the
    /// last finished round are kept, at most one frame per (round, signer)
    /// (first wins, like [`ReceiverCore::record`]), and oversized vectors
    /// are not retained.
    fn absorb(&mut self, frame: Frame) {
        let done = self.finished_round;
        let horizon = done.map_or(ROUND_LOOKAHEAD, |d| d.saturating_add(ROUND_LOOKAHEAD));
        let in_window = |r: u64| done.is_none_or(|d| r > d) && r <= horizon;
        // identity is the MAC's signer, not the claimed field
        let signer = frame.sig.signer;
        match &frame.payload {
            Payload::Result {
                round: r, values, ..
            } => {
                if !in_window(*r) || values.len() > PENDING_MAX_VALUES {
                    return;
                }
                let slot = self.pending.entry(*r).or_default();
                if !slot.iter().any(|f| f.sig.signer == signer) {
                    slot.push(frame);
                }
            }
            Payload::Commit {
                round: r,
                sender,
                digest,
            } if *sender == signer.0 as u64 && *r <= horizon => {
                self.commits
                    .entry(*r)
                    .or_default()
                    .insert(signer.0, *digest);
            }
            Payload::Stage {
                round: r,
                sender,
                commands,
            } => {
                // count the outer vectors too: a batch of millions of
                // *empty* rows is as hostile as one of millions of values
                let size: usize = commands.len() + commands.iter().map(Vec::len).sum::<usize>();
                if *sender != signer.0 as u64 || !in_window(*r) || size > PENDING_MAX_VALUES {
                    return;
                }
                self.stages
                    .entry(*r)
                    .or_default()
                    .entry(signer.0)
                    .or_insert_with(|| commands.clone());
            }
            _ => {}
        }
    }

    fn accept_result<F: Field>(&self, core: &mut ReceiverCore<F>, round: u64, frame: &Frame) {
        let Payload::Result {
            round: r,
            sender,
            values,
        } = &frame.payload
        else {
            return;
        };
        debug_assert_eq!(*r, round);
        let sender = *sender as usize;
        // authenticated Byzantine model: the transport verified the MAC
        // against the claimed signer; here we bind wire identity to the
        // protocol-level sender field, exactly like the simulator path
        if sender >= self.n() || frame.sig.signer != NodeId(sender) {
            return;
        }
        let vector: Vec<F> = values.iter().map(|&v| F::from_u64(v)).collect();
        core.record(sender, vector);
    }

    /// Broadcasts a commit announcement for `round`.
    pub fn announce_commit(&mut self, round: u64, digest: u64) {
        let me = self.id();
        let frame = Frame::sign(
            Payload::Commit {
                round,
                sender: me.0 as u64,
                digest,
            },
            &self.registry,
            me,
        );
        let _ = self.transport.broadcast_upto(self.n(), &frame);
        self.commits.entry(round).or_default().insert(me.0, digest);
    }

    /// Broadcasts this node's staged command-batch vote for a (typically
    /// future) `round` and records its own vote. The §2.2 pipelining
    /// primitive: drivers announce round `t + 1`'s batch before running
    /// round `t`'s exchange, so the staging latency overlaps execution.
    pub fn announce_stage(&mut self, round: u64, commands: Vec<Vec<u64>>) {
        let me = self.id();
        let frame = Frame::sign(
            Payload::Stage {
                round,
                sender: me.0 as u64,
                commands: commands.clone(),
            },
            &self.registry,
            me,
        );
        let _ = self.transport.broadcast_upto(self.n(), &frame);
        self.stages.entry(round).or_default().insert(me.0, commands);
    }

    /// The staged batch for `round` if at least `quorum` recorded votes
    /// agree on it bit-for-bit (Byzantine votes differ and simply don't
    /// count toward any quorum).
    pub fn staged_batch(&self, round: u64, quorum: usize) -> Option<Vec<Vec<u64>>> {
        let votes = self.stages.get(&round)?;
        let mut counts: BTreeMap<&Vec<Vec<u64>>, usize> = BTreeMap::new();
        for batch in votes.values() {
            let c = counts.entry(batch).or_insert(0);
            *c += 1;
            if *c >= quorum {
                return Some(batch.clone());
            }
        }
        None
    }

    /// Number of staged votes held for `round`.
    pub fn stage_votes(&self, round: u64) -> usize {
        self.stages.get(&round).map_or(0, BTreeMap::len)
    }

    /// Absorbs inbound frames (results for future rounds, commits, stage
    /// votes) until `deadline`. Returns how long it actually blocked —
    /// zero when the deadline already passed, which is exactly the
    /// pipelined case: the staging window elapsed during the previous
    /// round's exchange.
    pub fn pump_until(&mut self, deadline: Instant) -> Duration {
        let started = Instant::now();
        loop {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.transport.recv_timeout(deadline - now) {
                Ok(frame) => self.absorb(frame),
                Err(RecvError::Timeout) => break,
                Err(RecvError::Disconnected) => break,
            }
        }
        started.elapsed()
    }

    /// Waits until a `quorum`-matching staged batch for `round` is held
    /// (or `timeout` passes). Returns the agreed batch, or `None` when the
    /// quorum never formed — callers fall back to their own derivation.
    pub fn wait_for_stage(
        &mut self,
        round: u64,
        quorum: usize,
        timeout: Duration,
    ) -> Option<Vec<Vec<u64>>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(batch) = self.staged_batch(round, quorum) {
                return Some(batch);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            match self.transport.recv_timeout(deadline - now) {
                Ok(frame) => self.absorb(frame),
                Err(_) => return None,
            }
        }
    }

    /// Waits until at least `quorum` commit digests for `round` are held
    /// (or `timeout` passes), buffering any result frames that arrive for
    /// future rounds. Returns the digests by node id.
    pub fn wait_for_commits(
        &mut self,
        round: u64,
        quorum: usize,
        timeout: Duration,
    ) -> BTreeMap<usize, u64> {
        let deadline = Instant::now() + timeout;
        while self.commits.get(&round).map_or(0, BTreeMap::len) < quorum {
            let now = Instant::now();
            if now >= deadline {
                break;
            }
            match self.transport.recv_timeout(deadline - now) {
                Ok(frame) => self.absorb(frame),
                Err(_) => break,
            }
        }
        self.commits.get(&round).cloned().unwrap_or_default()
    }
}

/// Encodes a result vector for the wire in canonical `u64` form.
pub(crate) fn result_payload<F: Field>(round: u64, sender: usize, values: &[F]) -> Payload {
    let (_, canon) = canonical(sender, values);
    Payload::Result {
        round,
        sender: sender as u64,
        values: canon,
    }
}
