//! # csm-node
//!
//! Hosts one CSM node end-to-end over real I/O: **encode → execute →
//! exchange → decode**, with the §5.2 result exchange running on a
//! [`csm_transport::Transport`] (in-process channels or loopback/LAN TCP)
//! instead of the discrete-event simulator.
//!
//! * [`csm_core::engine::RoundEngine`] — the sans-I/O coded-execution
//!   lifecycle (shared with the simulator; *any*
//!   [`csm_statemachine::PolyTransition`] machine runs here unchanged).
//! * [`NodeRuntime`] — the blocking exchange protocol driver of the
//!   script-driven loops (Δ-deadline and `N − b` cutoff finalization over
//!   [`csm_core::exchange::ReceiverCore`]), plus staged-batch gossip for
//!   pipelining.
//! * [`run_node`] — the sequential multi-round node loop.
//! * [`pipeline::run_pipelined`] — the same loop with round `t + 1`'s
//!   staging overlapped with round `t`'s execution (§2.2).
//! * [`core::GatewayCore`] — the client-serving round as one sans-I/O
//!   machine (`step(now, event) -> effects`): admit external `Submit`
//!   frames, agree each round's batch behind a rotating leader, execute,
//!   exchange, decode, log before acknowledging, answer read-only `Query`
//!   frames from committed state, fan `Reply` frames back to clients, and
//!   resync via `b + 1`-verified state transfer (the §1/§3 deployment
//!   model; the client side is the `csm-client` crate).
//! * [`gateway::run_gateway`] / [`recovery::run_durable_gateway`] — the
//!   core's wall-clock driver over any [`csm_transport::Transport`],
//!   plain or with durable coded state (`csm-storage`: write-ahead log,
//!   periodic coded-state snapshots, crash recovery).
//! * [`chaos`] — the core's virtual-clock driver: whole-cluster fault
//!   schedules over a seeded fabric, replayable bit-for-bit.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod chaos;
pub mod consensus;
pub mod core;
pub mod gateway;
pub mod pipeline;
pub mod recovery;
pub mod runtime;

pub use consensus::{ConsensusKind, StagingFault};
pub use core::GatewayCore;
pub use csm_core::digest::digest_results;
pub use csm_core::engine::{CodedMachine, DecodedRound, RoundCommit, RoundEngine};
pub use gateway::{run_gateway, GatewayConfig, GatewayReport, GatewaySpec, GatewayStats};
pub use pipeline::{run_pipelined, PipelineConfig, PipelineReport};
pub use recovery::{run_durable_gateway, store_fingerprint, DurabilityConfig, RecoveryInfo};
pub use runtime::{ExchangeTiming, NodeRuntime};

use csm_algebra::{Field, Fp61, Gf2_16};
use csm_core::digest::splitmix64;
use csm_core::exchange::ResultBehavior;
use csm_core::{CsmError, DecoderKind};
use csm_network::auth::KeyRegistry;
use csm_statemachine::boolean::counter_machine;
use csm_statemachine::machines::{auction_machine, bank_machine};
use csm_telemetry::{Event, NullSink, Phase, RoundSpan, SharedSink};
use csm_transport::Transport;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

/// How a node behaves in every round's exchange.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BehaviorKind {
    /// Broadcast the true coded result.
    Honest,
    /// Send a differently-perturbed result to each receiver.
    Equivocate,
    /// Send nothing.
    Withhold,
    /// Forge frames claiming the next node produced them.
    Impersonate,
}

impl FromStr for BehaviorKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "honest" => Ok(BehaviorKind::Honest),
            "equivocate" => Ok(BehaviorKind::Equivocate),
            "withhold" => Ok(BehaviorKind::Withhold),
            "impersonate" => Ok(BehaviorKind::Impersonate),
            other => Err(format!(
                "unknown behavior {other:?} (want honest|equivocate|withhold|impersonate)"
            )),
        }
    }
}

/// Shape and schedule of a node run: which coded machine, from which
/// states, for how many rounds, behaving how. One spec is shared by every
/// node of a cluster (cheap to clone — the machine is behind an [`Arc`]).
#[derive(Debug, Clone)]
pub struct EngineSpec<F: Field> {
    /// The coded machine (codebook + transition + decoder), shared by all
    /// nodes.
    pub machine: Arc<CodedMachine<F>>,
    /// Plaintext initial states, one per machine.
    pub initial_states: Vec<Vec<F>>,
    /// Shared seed for command derivation (and, by convention, keys).
    pub seed: u64,
    /// Rounds to run.
    pub rounds: u64,
    /// This node's behavior.
    pub behavior: BehaviorKind,
    /// Commands are drawn uniformly in `[0, command_modulus)` — `1000`
    /// for numeric machines, `2` for Boolean ones so inputs stay bits.
    pub command_modulus: u64,
}

impl<F: Field> EngineSpec<F> {
    /// The deterministic command batch all nodes derive for `round`
    /// (stand-in for an ordered client stream; staging/consensus carries
    /// agreement latency, this carries the payload).
    pub fn commands(&self, round: u64) -> Vec<Vec<F>> {
        derive_commands(&self.machine, self.seed, round, self.command_modulus)
    }

    /// The same batch in canonical wire form (what `Stage` frames carry).
    pub fn wire_commands(&self, round: u64) -> Vec<Vec<u64>> {
        self.commands(round)
            .iter()
            .map(|c| c.iter().map(|x| x.to_canonical_u64()).collect())
            .collect()
    }

    /// Decodes a wire batch back into field elements, validating its
    /// shape against the machine.
    pub fn commands_from_wire(&self, batch: &[Vec<u64>]) -> Option<Vec<Vec<F>>> {
        let decoded: Vec<Vec<F>> = batch
            .iter()
            .map(|c| c.iter().map(|&v| F::from_u64(v)).collect())
            .collect();
        self.machine.check_commands(&decoded).ok()?;
        Some(decoded)
    }
}

/// The deterministic command batch for `round`: one `input_dim`-vector
/// per machine, each coordinate drawn from `(seed, round, position)` via
/// SplitMix64 — all nodes derive identical batches with no coordination.
pub fn derive_commands<F: Field>(
    machine: &CodedMachine<F>,
    seed: u64,
    round: u64,
    modulus: u64,
) -> Vec<Vec<F>> {
    let dim = machine.transition().input_dim();
    (0..machine.k() as u64)
        .map(|m| {
            (0..dim as u64)
                .map(|j| {
                    F::from_u64(
                        splitmix64(seed ^ splitmix64(round) ^ splitmix64(m * dim as u64 + j))
                            % modulus.max(1),
                    )
                })
                .collect()
        })
        .collect()
}

/// A bank-account workload over `Fp61` (`k` machines with initial
/// balances `100, 200, …`), the repo's classic demo.
///
/// # Errors
///
/// Propagates [`CodedMachine::new`] shape errors (e.g. `k` too large for
/// `n`).
pub fn bank_spec(
    n: usize,
    k: usize,
    seed: u64,
    rounds: u64,
    behavior: BehaviorKind,
) -> Result<EngineSpec<Fp61>, CsmError> {
    let machine = Arc::new(CodedMachine::new(
        n,
        k,
        bank_machine::<Fp61>(),
        DecoderKind::default(),
    )?);
    Ok(EngineSpec {
        machine,
        initial_states: (0..k as u64)
            .map(|i| vec![Fp61::from_u64(100 * (i + 1))])
            .collect(),
        seed,
        rounds,
        behavior,
        command_modulus: 1000,
    })
}

/// A compiled Boolean-circuit workload over `GF(2¹⁶)`: `k` copies of the
/// Appendix-A `bits`-bit binary counter (degree `bits + 1`), inputs
/// restricted to bits. The non-bank machine the TCP pipelining demo runs.
///
/// # Errors
///
/// Propagates [`CodedMachine::new`] shape errors — higher-degree machines
/// support fewer copies (`d(K−1) + 1 ≤ N`).
pub fn counter_spec(
    n: usize,
    k: usize,
    bits: usize,
    seed: u64,
    rounds: u64,
    behavior: BehaviorKind,
) -> Result<EngineSpec<Gf2_16>, CsmError> {
    let machine = Arc::new(CodedMachine::new(
        n,
        k,
        counter_machine(bits).compile::<Gf2_16>(),
        DecoderKind::default(),
    )?);
    Ok(EngineSpec {
        machine,
        initial_states: vec![vec![Gf2_16::ZERO; bits]; k],
        seed,
        rounds,
        behavior,
        command_modulus: 2,
    })
}

/// The quadratic auction-pool workload over `Fp61` (2-dimensional states
/// with cross-terms — the hardest shape for the coded path).
///
/// # Errors
///
/// Propagates [`CodedMachine::new`] shape errors.
pub fn auction_spec(
    n: usize,
    k: usize,
    seed: u64,
    rounds: u64,
    behavior: BehaviorKind,
) -> Result<EngineSpec<Fp61>, CsmError> {
    let machine = Arc::new(CodedMachine::new(
        n,
        k,
        auction_machine::<Fp61>(),
        DecoderKind::default(),
    )?);
    Ok(EngineSpec {
        machine,
        initial_states: (0..k as u64)
            .map(|i| vec![Fp61::from_u64(3 + i), Fp61::from_u64(4 + i)])
            .collect(),
        seed,
        rounds,
        behavior,
        command_modulus: 1000,
    })
}

/// What one node observed over its run.
#[derive(Debug, Clone)]
pub struct NodeReport<F> {
    /// The node id.
    pub id: usize,
    /// Per-round commits; `None` where the word failed to decode.
    pub commits: Vec<Option<RoundCommit<F>>>,
}

impl<F> NodeReport<F> {
    /// The digests of the successfully committed rounds.
    pub fn digests(&self) -> Vec<(u64, u64)> {
        self.commits
            .iter()
            .flatten()
            .map(|c| (c.round, c.digest))
            .collect()
    }
}

/// Maps a node's behavior to its exchange-round broadcast instruction for
/// the honest coded result `g`.
pub(crate) fn wire_behavior<F: Field>(
    id: usize,
    n: usize,
    result_dim: usize,
    behavior: BehaviorKind,
    g: Vec<F>,
) -> ResultBehavior<F> {
    match behavior {
        BehaviorKind::Honest => ResultBehavior::Honest(g),
        BehaviorKind::Equivocate => {
            ResultBehavior::Equivocate(g.into_iter().map(|x| x + F::from_u64(77)).collect())
        }
        BehaviorKind::Withhold => ResultBehavior::Withhold,
        BehaviorKind::Impersonate => ResultBehavior::Impersonate {
            spoof: (id + 1) % n,
            forged: vec![F::from_u64(0xBAD); result_dim],
        },
    }
}

/// Runs the full sequential multi-round node loop: per round, derive the
/// batch, encode+execute the coded result ([`RoundEngine::execute`]),
/// exchange it per the node's behavior, decode the finalized word, advance
/// state, and gossip the commit digest.
///
/// Byzantine nodes still decode and advance their own state (they receive
/// everyone else's honest results), so they stay resynchronized with the
/// cluster — matching the paper's model where Byzantine nodes are faulty
/// toward *others*, not necessarily internally broken.
///
/// # Panics
///
/// Panics if the spec's machine does not match the transport's mesh size
/// or the initial states are malformed.
pub fn run_node<F: Field, T: Transport>(
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: &EngineSpec<F>,
) -> NodeReport<F> {
    run_node_with_sink(transport, registry, timing, spec, Arc::new(NullSink))
}

/// [`run_node`] with an injected telemetry sink: per-round
/// execute/exchange/decode phase timings and decoder-identified
/// Byzantine peers ([`csm_telemetry::Event::EquivocationDetected`]) are
/// reported into `sink`. `run_node` is this with a
/// [`csm_telemetry::NullSink`] (zero-cost: the round span never reads
/// the clock).
///
/// # Panics
///
/// Panics if the spec's machine does not match the transport's mesh size
/// or the initial states are malformed.
pub fn run_node_with_sink<F: Field, T: Transport>(
    transport: T,
    registry: Arc<KeyRegistry>,
    timing: ExchangeTiming,
    spec: &EngineSpec<F>,
    sink: SharedSink,
) -> NodeReport<F> {
    let n = transport.n();
    let id = transport.local_id().0;
    assert_eq!(spec.machine.n(), n, "machine sized for a different mesh");
    let mut rt = NodeRuntime::new(transport, registry, timing);
    rt.set_sink(Arc::clone(&sink));
    let mut engine = RoundEngine::new(Arc::clone(&spec.machine), id, &spec.initial_states)
        .expect("spec states match the machine");
    let mut commits = Vec::with_capacity(spec.rounds as usize);
    for round in 0..spec.rounds {
        let mut span = RoundSpan::start(sink.as_ref(), id, round);
        let g = engine
            .execute(&spec.commands(round))
            .expect("derived commands are well-shaped");
        let behavior = wire_behavior(id, n, spec.machine.result_dim(), spec.behavior, g);
        span.mark(Phase::Execute);
        let word = rt.run_exchange_round(round, &behavior);
        span.mark(Phase::Exchange);
        let commit = engine.commit_word(&word);
        span.mark(Phase::Decode);
        match &commit {
            Some(c) => {
                for &peer in &c.detected_error_nodes {
                    sink.event(id, round, Some(peer), Event::EquivocationDetected);
                }
                rt.announce_commit(round, c.digest);
            }
            None => sink.event(id, round, None, Event::DecodeFailure),
        }
        span.finish();
        commits.push(commit);
    }
    NodeReport { id, commits }
}

/// Builds the key registry every node of a cluster derives from the
/// shared seed (stand-in for PKI setup; see `csm_network::auth`).
pub fn cluster_registry(n: usize, seed: u64) -> Arc<KeyRegistry> {
    Arc::new(KeyRegistry::new(n, seed ^ 0xC5_11))
}

/// Builds the key registry for a client-serving deployment: ids
/// `0..cluster` are the CSM nodes, ids `cluster..cluster + clients` are
/// client endpoints on the same mesh. Key derivation matches
/// [`cluster_registry`], so node identities are unchanged by adding
/// clients.
pub fn mesh_registry(cluster: usize, clients: usize, seed: u64) -> Arc<KeyRegistry> {
    Arc::new(KeyRegistry::new(cluster + clients, seed ^ 0xC5_11))
}

/// Default Δ for loopback meshes: comfortably above loopback RTT while
/// keeping multi-round runs fast.
pub fn loopback_delta() -> Duration {
    Duration::from_millis(250)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_core::SynchronyMode;
    use csm_transport::mem::MemMesh;
    use std::collections::BTreeMap;
    use std::thread;

    fn run_cluster(
        n: usize,
        k: usize,
        rounds: u64,
        timing: ExchangeTiming,
        behavior_of: impl Fn(usize) -> BehaviorKind,
    ) -> Vec<NodeReport<Fp61>> {
        let registry = cluster_registry(n, 77);
        let base = bank_spec(n, k, 77, rounds, BehaviorKind::Honest).unwrap();
        let mesh = MemMesh::build(Arc::clone(&registry));
        let mut handles = Vec::new();
        for (i, transport) in mesh.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let timing = timing.clone();
            let mut spec = base.clone();
            spec.behavior = behavior_of(i);
            handles.push(thread::spawn(move || {
                run_node(transport, registry, timing, &spec)
            }));
        }
        let mut reports: Vec<NodeReport<Fp61>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread panicked"))
            .collect();
        reports.sort_by_key(|r| r.id);
        reports
    }

    fn assert_honest_agreement<F>(reports: &[NodeReport<F>], byzantine: &[usize], rounds: u64) {
        let mut per_round: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        for report in reports {
            if byzantine.contains(&report.id) {
                continue;
            }
            assert_eq!(
                report.digests().len(),
                rounds as usize,
                "honest node {} committed every round",
                report.id
            );
            for (round, digest) in report.digests() {
                per_round.entry(round).or_default().push(digest);
            }
        }
        for (round, digests) in per_round {
            assert!(
                digests.windows(2).all(|w| w[0] == w[1]),
                "round {round}: honest digests diverge: {digests:?}"
            );
        }
    }

    #[test]
    fn mem_cluster_all_honest_synchronous() {
        let timing = ExchangeTiming::synchronous(1, Duration::from_millis(150));
        let reports = run_cluster(5, 2, 3, timing, |_| BehaviorKind::Honest);
        assert_honest_agreement(&reports, &[], 3);
    }

    #[test]
    fn mem_cluster_survives_equivocator_partial_sync() {
        let n = 8;
        let timing = ExchangeTiming::partially_synchronous(1, Duration::from_secs(5));
        let reports = run_cluster(n, 2, 4, timing, |i| {
            if i == 0 {
                BehaviorKind::Equivocate
            } else {
                BehaviorKind::Honest
            }
        });
        assert_honest_agreement(&reports, &[0], 4);
    }

    #[test]
    fn mem_cluster_survives_withholder_synchronous() {
        let n = 8;
        let timing = ExchangeTiming::synchronous(1, Duration::from_millis(250));
        let reports = run_cluster(n, 2, 3, timing, |i| {
            if i == 3 {
                BehaviorKind::Withhold
            } else {
                BehaviorKind::Honest
            }
        });
        assert_honest_agreement(&reports, &[3], 3);
        // withheld slots are erasures at every honest receiver — but the
        // withholder itself still commits from others' results
        assert_eq!(reports[3].digests().len(), 3);
    }

    #[test]
    fn mem_cluster_drops_impersonator_frames() {
        let n = 8;
        let timing = ExchangeTiming::synchronous(1, Duration::from_millis(250));
        let reports = run_cluster(n, 2, 2, timing, |i| {
            if i == 5 {
                BehaviorKind::Impersonate
            } else {
                BehaviorKind::Honest
            }
        });
        assert_honest_agreement(&reports, &[5], 2);
    }

    #[test]
    fn mem_cluster_runs_boolean_counter_machine() {
        // a non-bank machine over the same runtime: 2-bit counters on
        // GF(2^16), one withholder
        let n = 8;
        let k = 2;
        let rounds = 4;
        let registry = cluster_registry(n, 31);
        let mesh = MemMesh::build(Arc::clone(&registry));
        let mut handles = Vec::new();
        for (i, transport) in mesh.into_iter().enumerate() {
            let registry = Arc::clone(&registry);
            let behavior = if i == 2 {
                BehaviorKind::Withhold
            } else {
                BehaviorKind::Honest
            };
            let spec = counter_spec(n, k, 2, 31, rounds, behavior).unwrap();
            let timing = ExchangeTiming::synchronous(1, Duration::from_millis(200));
            handles.push(thread::spawn(move || {
                run_node(transport, registry, timing, &spec)
            }));
        }
        let mut reports: Vec<NodeReport<Gf2_16>> = handles
            .into_iter()
            .map(|h| h.join().expect("node thread"))
            .collect();
        reports.sort_by_key(|r| r.id);
        assert_honest_agreement(&reports, &[2], rounds);
        // cross-check against the uncoded reference execution
        let spec = counter_spec(n, k, 2, 31, rounds, BehaviorKind::Honest).unwrap();
        let mut states = spec.initial_states.clone();
        for round in 0..rounds {
            let cmds = spec.commands(round);
            let expected: Vec<Vec<Gf2_16>> = states
                .iter()
                .zip(&cmds)
                .map(|(s, x)| spec.machine.transition().apply_flat(s, x).unwrap())
                .collect();
            let got = &reports[0].commits[round as usize].as_ref().unwrap().results;
            assert_eq!(got, &expected, "round {round}");
            let sd = spec.machine.transition().state_dim();
            states = expected.iter().map(|r| r[..sd].to_vec()).collect();
        }
    }

    #[test]
    fn derived_commands_are_deterministic_and_shaped() {
        let spec = bank_spec(8, 3, 5, 1, BehaviorKind::Honest).unwrap();
        assert_eq!(spec.commands(9), spec.commands(9));
        assert_eq!(spec.commands(9).len(), 3);
        let bits = counter_spec(8, 2, 2, 5, 1, BehaviorKind::Honest).unwrap();
        for c in bits.commands(4) {
            for x in c {
                assert!(x.is_zero() || x.is_one(), "Boolean inputs stay bits");
            }
        }
    }

    #[test]
    fn wire_commands_roundtrip() {
        let spec = auction_spec(9, 2, 12, 1, BehaviorKind::Honest).unwrap();
        let wire = spec.wire_commands(3);
        assert_eq!(spec.commands_from_wire(&wire), Some(spec.commands(3)));
        // malformed shapes are rejected
        assert_eq!(spec.commands_from_wire(&[vec![1]]), None);
    }

    #[test]
    fn timing_constructors() {
        let s = ExchangeTiming::synchronous(2, Duration::from_millis(100));
        assert_eq!(s.synchrony, SynchronyMode::Synchronous);
        let p = ExchangeTiming::partially_synchronous(2, Duration::from_secs(1));
        assert_eq!(p.synchrony, SynchronyMode::PartiallySynchronous);
        assert_eq!(p.delta, p.max_wait);
    }
}
