//! The Coded State Machine cluster: the discrete-event-style driver for
//! the full round pipeline of §5 (distributed coding) and §6 (centralized
//! coding with INTERMIX verification).
//!
//! Since the [`crate::engine`] extraction, this module owns only what is
//! simulator-specific: the consensus phase, the *logical* exchange
//! ([`crate::engine::sim_receiver_word`]), operation accounting, client
//! delivery, and the plaintext reference oracle. The per-round coded
//! lifecycle itself — encode → execute → decode → update — lives in
//! [`RoundEngine`], one per node, exactly the engines `csm-node` drives
//! over real sockets.

use crate::client::{accept_replies, DeliveryStatus};
use crate::config::{CodingMode, ConsensusMode, CsmConfig, DecoderKind, FaultSpec, SynchronyMode};
use crate::engine::{sim_receiver_word, CodedMachine, DecodedRound, RoundEngine};
use crate::error::CsmError;
use csm_algebra::{count, Field, OpCounts};
use csm_consensus::batch::{
    run_ds_lockstep, run_pbft_lockstep, BatchRows, Conduct, PbftBatchConfig,
};
use csm_intermix::{
    committee_size, run_session, AuditorBehavior, DecodingClaim, DecodingVerdict, SessionConfig,
    WorkerBehavior,
};
use csm_network::auth::KeyRegistry;
use csm_network::NodeId;
use csm_statemachine::PolyTransition;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

/// Per-node operation counts for one round, split by execution-phase step
/// (the `ρ`, `ψ`, `χ` functions of §2.2).
#[derive(Debug, Clone, Default)]
pub struct RoundOps {
    /// Per-node total operations this round.
    pub per_node: Vec<OpCounts>,
    /// Aggregate encoding cost (`ρ`: coded-command generation).
    pub encoding: OpCounts,
    /// Aggregate state-transition cost (part of `ρ`).
    pub transition: OpCounts,
    /// Aggregate decoding cost (`ψ`).
    pub decoding: OpCounts,
    /// Aggregate state-update cost (`χ`).
    pub state_update: OpCounts,
}

impl RoundOps {
    /// Mean per-node operations — the denominator of the paper's
    /// throughput definition (§2.2).
    pub fn mean_per_node(&self) -> f64 {
        if self.per_node.is_empty() {
            return 0.0;
        }
        let total: u64 = self.per_node.iter().map(OpCounts::total).sum();
        total as f64 / self.per_node.len() as f64
    }
}

/// Everything that happened in one round.
#[derive(Debug, Clone)]
pub struct RoundReport<F> {
    /// Round index (starting at 0).
    pub round: u64,
    /// The commands actually agreed in the consensus phase.
    pub decided_commands: Vec<Vec<F>>,
    /// Decoded outputs `Y_k(t)`, one per machine.
    pub outputs: Vec<Vec<F>>,
    /// Decoded next states `S_k(t+1)`, one per machine.
    pub new_states: Vec<Vec<F>>,
    /// Nodes whose broadcast results were identified as erroneous by the
    /// decoder (Byzantine detection as a side effect of decoding).
    pub detected_error_nodes: Vec<usize>,
    /// Client-side delivery status per machine (`b + 1` matching rule).
    pub delivery: Vec<DeliveryStatus<Vec<F>>>,
    /// Operation counts.
    pub ops: RoundOps,
    /// Whether the decoded results match the plaintext reference oracle —
    /// the paper's Correctness property, checked every round.
    pub correct: bool,
    /// Order-sensitive digest of the decoded flat results — the *same*
    /// digest a `csm-node` runtime gossips in its `Commit` frame for this
    /// round ([`crate::digest::digest_results`]), so simulated and real
    /// runs of one scenario can be cross-checked.
    pub digest: u64,
}

/// Builder for [`CsmCluster`].
///
/// # Examples
///
/// ```
/// use csm_core::{CsmClusterBuilder, FaultSpec};
/// use csm_statemachine::machines::bank_machine;
/// use csm_algebra::{Field, Fp61};
///
/// let mut cluster = CsmClusterBuilder::new(8, 2)
///     .transition(bank_machine::<Fp61>())
///     .initial_states(vec![vec![Fp61::from_u64(100)], vec![Fp61::from_u64(200)]])
///     .fault(7, FaultSpec::CorruptResult)
///     .build()
///     .unwrap();
/// let report = cluster
///     .step(vec![vec![Fp61::from_u64(10)], vec![Fp61::from_u64(20)]])
///     .unwrap();
/// assert!(report.correct);
/// assert_eq!(report.outputs[0][0], Fp61::from_u64(110));
/// ```
#[derive(Debug, Clone)]
pub struct CsmClusterBuilder<F> {
    config: CsmConfig,
    transition: Option<PolyTransition<F>>,
    initial_states: Option<Vec<Vec<F>>>,
}

impl<F: Field> CsmClusterBuilder<F> {
    /// Starts a builder for `n` nodes and `k` machines.
    pub fn new(n: usize, k: usize) -> Self {
        CsmClusterBuilder {
            config: CsmConfig::new(n, k),
            transition: None,
            initial_states: None,
        }
    }

    /// Sets the state transition function (required).
    pub fn transition(mut self, t: PolyTransition<F>) -> Self {
        self.transition = Some(t);
        self
    }

    /// Sets the `K` initial states (required), each of the transition's
    /// state dimension.
    pub fn initial_states(mut self, s: Vec<Vec<F>>) -> Self {
        self.initial_states = Some(s);
        self
    }

    /// Injects a fault at a node.
    pub fn fault(mut self, node: usize, fault: FaultSpec) -> Self {
        self.config.faults.push((NodeId(node), fault));
        self
    }

    /// Sets the synchrony model.
    pub fn synchrony(mut self, s: SynchronyMode) -> Self {
        self.config.synchrony = s;
        self
    }

    /// Sets the coding mode.
    pub fn coding(mut self, c: CodingMode) -> Self {
        self.config.coding = c;
        self
    }

    /// Selects the Reed–Solomon decoder.
    pub fn decoder(mut self, d: DecoderKind) -> Self {
        self.config.decoder = d;
        self
    }

    /// Selects the consensus mode.
    pub fn consensus(mut self, c: ConsensusMode) -> Self {
        self.config.consensus = c;
        self
    }

    /// Sets the provisioned fault bound `b` (defaults to `⌊n/3⌋`).
    pub fn assumed_faults(mut self, b: usize) -> Self {
        self.config.assumed_faults = b;
        self
    }

    /// Sets the RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Builds the cluster.
    ///
    /// # Errors
    ///
    /// * [`CsmError::InvalidConfig`] — missing transition/states, `k = 0`,
    ///   `n = 0`, fault node out of range, or PBFT consensus with
    ///   `n < 3b + 1`;
    /// * [`CsmError::TooManyMachines`] — `d(K−1) + 1 > N`;
    /// * [`CsmError::FieldTooSmall`] — fewer than `N + K` field elements;
    /// * [`CsmError::ShapeMismatch`] — initial state dimensions don't match
    ///   the transition function.
    pub fn build(self) -> Result<CsmCluster<F>, CsmError> {
        let cfg = self.config;
        let transition = self
            .transition
            .ok_or_else(|| CsmError::InvalidConfig("transition function is required".into()))?;
        let initial_states = self
            .initial_states
            .ok_or_else(|| CsmError::InvalidConfig("initial states are required".into()))?;
        for (id, _) in &cfg.faults {
            if id.0 >= cfg.n {
                return Err(CsmError::InvalidConfig(format!(
                    "fault injected at nonexistent node {id}"
                )));
            }
        }
        if cfg.consensus == ConsensusMode::Pbft && cfg.n < 3 * cfg.assumed_faults + 1 {
            return Err(CsmError::InvalidConfig(format!(
                "PBFT consensus needs n >= 3b+1 (n={}, b={})",
                cfg.n, cfg.assumed_faults
            )));
        }
        let machine = Arc::new(CodedMachine::new(cfg.n, cfg.k, transition, cfg.decoder)?);
        let engines = (0..cfg.n)
            .map(|i| {
                RoundEngine::new(Arc::clone(&machine), i, &initial_states)
                    .map(|e| e.with_fault(cfg.fault_of(NodeId(i))))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let rng = StdRng::seed_from_u64(cfg.seed);
        Ok(CsmCluster {
            machine,
            engines,
            total_ops: vec![OpCounts::default(); cfg.n],
            reference_states: initial_states,
            round: 0,
            rng,
            config: cfg,
        })
    }
}

/// A running Coded State Machine cluster.
///
/// Holds `N` [`RoundEngine`]s each storing one coded state vector (the
/// same size as a single machine's state — storage efficiency `γ = K`,
/// §5.1), and steps them through consensus → coded execution → decoding →
/// delivery → state update each round.
#[derive(Debug)]
pub struct CsmCluster<F: Field> {
    config: CsmConfig,
    machine: Arc<CodedMachine<F>>,
    engines: Vec<RoundEngine<F>>,
    total_ops: Vec<OpCounts>,
    /// Plaintext mirror of the `K` true states — the test oracle for the
    /// Correctness property; no protocol step reads it.
    reference_states: Vec<Vec<F>>,
    round: u64,
    rng: StdRng,
}

impl<F: Field> CsmCluster<F> {
    /// Number of nodes `N`.
    pub fn n(&self) -> usize {
        self.config.n
    }

    /// Number of machines `K`.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The cluster configuration.
    pub fn config(&self) -> &CsmConfig {
        &self.config
    }

    /// The shared coded machine (codebook, transition, code, decoder).
    pub fn machine(&self) -> &Arc<CodedMachine<F>> {
        &self.machine
    }

    /// The codebook (points and coefficients).
    pub fn codebook(&self) -> &crate::codebook::Codebook<F> {
        self.machine.codebook()
    }

    /// The transition function.
    pub fn transition(&self) -> &PolyTransition<F> {
        self.machine.transition()
    }

    /// Current round index.
    pub fn round(&self) -> u64 {
        self.round
    }

    /// Node `i`'s stored coded state (size = one machine state — the
    /// storage-efficiency invariant).
    ///
    /// # Panics
    ///
    /// Panics if `i >= n`.
    pub fn coded_state(&self, i: usize) -> &[F] {
        self.engines[i].coded_state()
    }

    /// The plaintext reference states (test oracle).
    pub fn reference_states(&self) -> &[Vec<F>] {
        &self.reference_states
    }

    /// Cumulative operation counts per node.
    pub fn total_ops(&self) -> Vec<OpCounts> {
        self.total_ops.clone()
    }

    /// Maximum number of Byzantine nodes the current configuration's
    /// decoding step tolerates (Table 2): synchronous
    /// `⌊(N − d(K−1) − 1)/2⌋`, partially synchronous
    /// `⌊(N − d(K−1) − 1)/3⌋`.
    pub fn max_tolerable_faults(&self) -> usize {
        self.machine.max_tolerable_faults(self.config.synchrony)
    }

    fn fault(&self, i: usize) -> FaultSpec {
        self.engines[i].fault()
    }

    fn faults(&self) -> Vec<FaultSpec> {
        self.engines.iter().map(RoundEngine::fault).collect()
    }

    /// Executes one round on the given commands (one command vector per
    /// machine).
    ///
    /// # Errors
    ///
    /// * [`CsmError::ShapeMismatch`] — wrong command shape;
    /// * [`CsmError::ConsensusFailed`] — the consensus phase did not decide;
    /// * [`CsmError::Decoding`] — more corrupted results than the code
    ///   corrects (security bound exceeded);
    /// * [`CsmError::VerificationFailed`] — centralized mode only: the
    ///   worker's claim failed INTERMIX verification.
    pub fn step(&mut self, commands: Vec<Vec<F>>) -> Result<RoundReport<F>, CsmError> {
        self.machine.check_commands(&commands)?;
        let mut ops = RoundOps {
            per_node: vec![OpCounts::default(); self.config.n],
            ..RoundOps::default()
        };

        // ---- consensus phase (§3) ----
        let decided = self.consensus_phase(commands)?;

        // ---- encoding: coded commands (ρ, first half) ----
        let coded_cmds = self.encode_commands(&decided, &mut ops)?;

        // ---- local state transition (ρ, second half) ----
        let results = self.run_transitions(&coded_cmds, &mut ops)?;

        // ---- exchange + decode (ψ) ----
        let decoded = self.decode_phase(&results, &mut ops)?;

        // ---- client delivery (b + 1 matching) ----
        let delivery = self.deliver_outputs(&decoded.outputs);

        // ---- state update (χ) ----
        self.update_states(&decoded.new_states, &mut ops)?;

        // ---- reference oracle + correctness ----
        let mut ref_outputs = Vec::with_capacity(self.config.k);
        let mut ref_next = Vec::with_capacity(self.config.k);
        for k in 0..self.config.k {
            let (s, y) = self
                .machine
                .transition()
                .apply(&self.reference_states[k], &decided[k])
                .map_err(|e| CsmError::Transition(e.to_string()))?;
            ref_next.push(s);
            ref_outputs.push(y);
        }
        let correct = ref_next == decoded.new_states && ref_outputs == decoded.outputs;
        self.reference_states = ref_next;

        let report = RoundReport {
            round: self.round,
            decided_commands: decided,
            digest: decoded.digest(),
            outputs: decoded.outputs,
            new_states: decoded.new_states,
            detected_error_nodes: decoded.detected_error_nodes,
            delivery,
            ops,
            correct,
        };
        for (total, per) in self.total_ops.iter_mut().zip(&report.ops.per_node) {
            *total += *per;
        }
        self.round += 1;
        Ok(report)
    }

    // ---------------------------------------------------------------- consensus

    /// Agrees on the round's commands through the `csm_consensus::batch`
    /// machines the gateway ships, run by their lock-step drivers; the
    /// batch travels as canonical `u64` rows.
    fn consensus_phase(&self, commands: Vec<Vec<F>>) -> Result<Vec<Vec<F>>, CsmError> {
        let rows: BatchRows = commands
            .iter()
            .map(|c| c.iter().map(|x| x.to_canonical_u64()).collect())
            .collect();
        let decided = match self.config.consensus {
            ConsensusMode::Trusted => return Ok(commands),
            ConsensusMode::DolevStrong => self.consensus_dolev_strong(&rows),
            ConsensusMode::Pbft => self.consensus_pbft(rows),
        };
        decided
            .map(|rows| rows_to_commands(&rows))
            .ok_or(CsmError::ConsensusFailed { round: self.round })
    }

    fn consensus_registry(&self) -> Arc<KeyRegistry> {
        Arc::new(KeyRegistry::new(self.config.n, self.config.seed))
    }

    /// Dolev–Strong with a rotating leader. A Byzantine leader equivocates
    /// (its second batch bumps the first coordinate), Byzantine relayers
    /// stay silent, and a ⊥ decision moves the batch to the next leader.
    fn consensus_dolev_strong(&self, rows: &BatchRows) -> Option<BatchRows> {
        let (n, f) = (self.config.n, self.config.assumed_faults);
        let registry = self.consensus_registry();
        let mut alt = rows.clone();
        if let Some(first) = alt.first_mut().and_then(|c| c.first_mut()) {
            *first = first.wrapping_add(1);
        }
        let honest = (0..n).position(|i| !self.fault(i).is_byzantine())?;
        for attempt in 0..n {
            let leader = (self.round as usize + attempt) % n;
            let conduct: Vec<Conduct> = (0..n)
                .map(|i| match (self.fault(i).is_byzantine(), i == leader) {
                    (false, _) => Conduct::Honest,
                    (true, true) => Conduct::Equivocate(alt.clone()),
                    (true, false) => Conduct::Silent,
                })
                .collect();
            let decisions = run_ds_lockstep(self.round, f, leader, rows, &conduct, &registry);
            // every honest node lands on the same decision
            if let Some(batch) = decisions[honest].clone() {
                return Some(batch);
            }
        }
        None
    }

    /// PBFT with primary `round % n`. Byzantine replicas stay silent and
    /// [`CodedMachine::check_commands`] is the validity predicate.
    fn consensus_pbft(&self, rows: BatchRows) -> Option<BatchRows> {
        let n = self.config.n;
        let cfg = PbftBatchConfig {
            n,
            f: self.config.assumed_faults,
            round: self.round,
            leader: self.round as usize % n,
            // lock step: a view times out when the network goes quiet
            base_timeout: Duration::ZERO,
        };
        let conduct: Vec<Conduct> = (0..n)
            .map(|i| {
                if self.fault(i).is_byzantine() {
                    Conduct::Silent
                } else {
                    Conduct::Honest
                }
            })
            .collect();
        let valid =
            |rows: &[Vec<u64>]| self.machine.check_commands(&rows_to_commands(rows)).is_ok();
        let decisions = run_pbft_lockstep(
            &cfg,
            &vec![rows; n],
            &conduct,
            &self.consensus_registry(),
            &valid,
        );
        // honest nodes never split; a split would be a protocol bug, so fail
        let mut decided = decisions.into_iter().flatten();
        let batch = decided.next()?;
        decided.all(|d| d == batch).then_some(batch)
    }

    // ---------------------------------------------------------------- encoding

    fn encode_commands(
        &mut self,
        commands: &[Vec<F>],
        ops: &mut RoundOps,
    ) -> Result<Vec<Vec<F>>, CsmError> {
        match self.config.coding {
            CodingMode::Distributed => {
                // each node computes its own coded command: O(K) per node
                let mut coded = Vec::with_capacity(self.config.n);
                for i in 0..self.config.n {
                    let (c, o) = count::measure(|| self.engines[i].encode_commands(commands));
                    ops.per_node[i] += o;
                    ops.encoding += o;
                    coded.push(c);
                }
                Ok(coded)
            }
            CodingMode::Centralized { epsilon, mu } => {
                // worker encodes everything with fast polynomial arithmetic
                let worker = self.worker_id();
                let (coded, wops) =
                    count::measure(|| self.machine.codebook().encode_all_vectors_fast(commands));
                ops.per_node[worker] += wops;
                ops.encoding += wops;
                // INTERMIX verification of X̃ = C·X per coordinate
                let auditors = self.audit_committee(epsilon, mu);
                let dim = self.machine.transition().input_dim();
                for j in 0..dim {
                    let coords: Vec<F> = commands.iter().map(|c| c[j]).collect();
                    let (outcome, aops) = count::measure(|| {
                        run_session(
                            self.machine.codebook().coefficients(),
                            &coords,
                            &WorkerBehavior::Honest,
                            &vec![AuditorBehavior::Honest; auditors.len()],
                            &SessionConfig::default(),
                        )
                    });
                    if !outcome.accepted {
                        return Err(CsmError::VerificationFailed(
                            "command encoding rejected by INTERMIX".into(),
                        ));
                    }
                    self.spread_ops(&auditors, aops, ops);
                }
                Ok(coded)
            }
        }
    }

    fn worker_id(&self) -> usize {
        // deterministic rotation; a real deployment would elect it
        (self.round as usize) % self.config.n
    }

    fn audit_committee(&mut self, epsilon: f64, mu: f64) -> Vec<usize> {
        let j = committee_size(epsilon, mu);
        let committee = csm_intermix::elect_committee(
            self.config.n,
            j,
            self.config.seed ^ self.round.wrapping_mul(0xA11D),
        );
        committee.auditors
    }

    fn spread_ops(&self, auditors: &[usize], total: OpCounts, ops: &mut RoundOps) {
        // attribute audit work evenly across the committee
        if auditors.is_empty() {
            return;
        }
        let share = OpCounts {
            adds: total.adds / auditors.len() as u64,
            muls: total.muls / auditors.len() as u64,
            invs: total.invs / auditors.len() as u64,
        };
        for &a in auditors {
            ops.per_node[a] += share;
        }
    }

    // ---------------------------------------------------------------- transition

    /// Per-sender broadcast results. `results[i] = None` means node `i`
    /// withheld its result.
    fn run_transitions(
        &mut self,
        coded_cmds: &[Vec<F>],
        ops: &mut RoundOps,
    ) -> Result<Vec<Option<Vec<F>>>, CsmError> {
        let mut results = Vec::with_capacity(self.config.n);
        for i in 0..self.config.n {
            let (g, o) = count::measure(|| self.engines[i].execute_coded(&coded_cmds[i]));
            let g = g?;
            ops.per_node[i] += o;
            ops.transition += o;
            results.push(self.engines[i].apply_result_fault(g, &mut self.rng));
        }
        Ok(results)
    }

    // ---------------------------------------------------------------- decoding

    fn decode_phase(
        &mut self,
        results: &[Option<Vec<F>>],
        ops: &mut RoundOps,
    ) -> Result<DecodedRound<F>, CsmError> {
        match self.config.coding {
            CodingMode::Distributed => self.decode_distributed(results, ops),
            CodingMode::Centralized { epsilon, mu } => {
                self.decode_centralized(results, ops, epsilon, mu)
            }
        }
    }

    /// Receiver `j`'s logical-exchange word ([`sim_receiver_word`]).
    /// `faults` is [`Self::faults`], computed once per decode phase —
    /// this runs up to twice per receiver per round.
    fn receiver_word(
        &self,
        j: usize,
        results: &[Option<Vec<F>>],
        faults: &[FaultSpec],
    ) -> Vec<Option<Vec<F>>> {
        sim_receiver_word(
            results,
            j,
            faults,
            self.config.synchrony,
            self.config.assumed_faults,
            self.round,
        )
    }

    /// Every honest node decodes its own received word. Nodes whose words
    /// are bit-identical share one measured decode (the work is identical);
    /// the cost is attributed to each of them.
    fn decode_distributed(
        &mut self,
        results: &[Option<Vec<F>>],
        ops: &mut RoundOps,
    ) -> Result<DecodedRound<F>, CsmError> {
        let faults = self.faults();
        let mut groups: HashMap<Vec<Option<Vec<u64>>>, Vec<usize>> = HashMap::new();
        for j in 0..self.config.n {
            if faults[j].is_byzantine() {
                continue; // Byzantine nodes' decodes don't matter
            }
            let word = self.receiver_word(j, results, &faults);
            let key: Vec<Option<Vec<u64>>> = word
                .iter()
                .map(|w| {
                    w.as_ref()
                        .map(|g| g.iter().map(|x| x.to_canonical_u64()).collect())
                })
                .collect();
            groups.entry(key).or_default().push(j);
        }
        let mut canonical: Option<DecodedRound<F>> = None;
        let mut all_detected: Vec<usize> = Vec::new();
        for (_, members) in groups {
            let word = self.receiver_word(members[0], results, &faults);
            let (decoded, dops) = count::measure(|| self.machine.decode_word(&word, &[]));
            let decoded = decoded?;
            for &m in &members {
                ops.per_node[m] += dops;
            }
            ops.decoding += dops;
            for &e in &decoded.detected_error_nodes {
                if !all_detected.contains(&e) {
                    all_detected.push(e);
                }
            }
            match &canonical {
                None => canonical = Some(decoded),
                Some(c) => {
                    // §5.2 remark: reconstructed polynomials at all honest
                    // nodes are identical even under equivocation.
                    if c.new_states != decoded.new_states || c.outputs != decoded.outputs {
                        return Err(CsmError::VerificationFailed(
                            "honest nodes decoded different results".into(),
                        ));
                    }
                }
            }
        }
        all_detected.sort_unstable();
        let mut decoded =
            canonical.ok_or_else(|| CsmError::InvalidConfig("no honest nodes".into()))?;
        decoded.detected_error_nodes = all_detected;
        Ok(decoded)
    }

    /// §6.2: a single worker decodes and broadcasts coefficients + τ-set;
    /// auditors verify the claim via INTERMIX; commoners check in O(1).
    fn decode_centralized(
        &mut self,
        results: &[Option<Vec<F>>],
        ops: &mut RoundOps,
        epsilon: f64,
        mu: f64,
    ) -> Result<DecodedRound<F>, CsmError> {
        let worker = self.worker_id();
        let word = self.receiver_word(worker, results, &self.faults());
        let ((decoded, claims), wops) = count::measure(|| {
            let d = self.machine.decode_word(&word, &[]);
            let claims = d.as_ref().ok().map(|_| {
                // per-coordinate claims: coefficients + τ
                let out_dim = self.machine.result_dim();
                (0..out_dim)
                    .map(|jcoord| {
                        let coord_word: Vec<Option<F>> =
                            word.iter().map(|w| w.as_ref().map(|g| g[jcoord])).collect();
                        let dec = self
                            .machine
                            .decode_coordinate(&coord_word)
                            .expect("already decoded once");
                        let tau = self.machine.code().consistency_set(dec.poly(), &coord_word);
                        (
                            DecodingClaim {
                                coefficients: dec.message().to_vec(),
                                tau,
                            },
                            coord_word,
                        )
                    })
                    .collect::<Vec<_>>()
            });
            (d, claims)
        });
        ops.per_node[worker] += wops;
        ops.decoding += wops;
        let decoded = decoded?;
        let claims = claims.expect("claims exist when decode succeeded");

        // auditors verify each coordinate's claim
        let auditors = self.audit_committee(epsilon, mu);
        for (claim, coord_word) in &claims {
            // present positions only (erasures carry no claim)
            let mut pts = Vec::new();
            let mut vals = Vec::new();
            for (i, w) in coord_word.iter().enumerate() {
                if let Some(v) = w {
                    pts.push(self.machine.code().points()[i]);
                    vals.push(*v);
                }
            }
            // τ was computed against word indices; remap to present-only
            let present_idx: Vec<usize> = coord_word
                .iter()
                .enumerate()
                .filter(|(_, w)| w.is_some())
                .map(|(i, _)| i)
                .collect();
            let remapped_tau: Vec<usize> = claim
                .tau
                .iter()
                .map(|t| present_idx.binary_search(t).expect("τ ⊆ present"))
                .collect();
            let remapped = DecodingClaim {
                coefficients: claim.coefficients.clone(),
                tau: remapped_tau,
            };
            let (verdict, session) = {
                let audit_behaviors = vec![AuditorBehavior::Honest; auditors.len().max(1)];
                let (r, aops) = count::measure(|| {
                    csm_intermix::verify_decoding_claim(&pts, &vals, &remapped, &audit_behaviors)
                });
                self.spread_ops(&auditors, aops, ops);
                r
            };
            drop(session);
            if verdict != DecodingVerdict::Valid {
                return Err(CsmError::VerificationFailed(format!(
                    "decoding claim rejected: {verdict:?}"
                )));
            }
        }
        Ok(decoded)
    }

    // ---------------------------------------------------------------- delivery

    fn deliver_outputs(&mut self, outputs: &[Vec<F>]) -> Vec<DeliveryStatus<Vec<F>>> {
        let need = self.config.assumed_faults + 1;
        (0..self.config.k)
            .map(|k| {
                let replies: Vec<Option<Vec<F>>> = (0..self.config.n)
                    .map(|i| match self.fault(i) {
                        FaultSpec::Honest | FaultSpec::CorruptStateUpdate => {
                            Some(outputs[k].clone())
                        }
                        FaultSpec::Withhold => None,
                        // corrupt nodes reply with garbage to the client
                        _ => Some(
                            (0..outputs[k].len())
                                .map(|_| F::random(&mut self.rng))
                                .collect(),
                        ),
                    })
                    .collect();
                accept_replies(&replies, need)
            })
            .collect()
    }

    // ---------------------------------------------------------------- state update

    fn update_states(&mut self, new_states: &[Vec<F>], ops: &mut RoundOps) -> Result<(), CsmError> {
        match self.config.coding {
            CodingMode::Distributed => {
                for i in 0..self.config.n {
                    let (coded, o) = count::measure(|| self.machine.encode_state_at(i, new_states));
                    ops.per_node[i] += o;
                    ops.state_update += o;
                    self.engines[i].install_state(coded);
                }
            }
            CodingMode::Centralized { epsilon, mu } => {
                let worker = self.worker_id();
                let (all, wops) =
                    count::measure(|| self.machine.codebook().encode_all_vectors_fast(new_states));
                ops.per_node[worker] += wops;
                ops.state_update += wops;
                // INTERMIX verification of S̃(t+1) = C·S(t+1) per coordinate
                let auditors = self.audit_committee(epsilon, mu);
                for j in 0..self.machine.transition().state_dim() {
                    let coords: Vec<F> = new_states.iter().map(|s| s[j]).collect();
                    let (outcome, aops) = count::measure(|| {
                        run_session(
                            self.machine.codebook().coefficients(),
                            &coords,
                            &WorkerBehavior::Honest,
                            &vec![AuditorBehavior::Honest; auditors.len()],
                            &SessionConfig::default(),
                        )
                    });
                    if !outcome.accepted {
                        return Err(CsmError::VerificationFailed(
                            "state update rejected by INTERMIX".into(),
                        ));
                    }
                    self.spread_ops(&auditors, aops, ops);
                }
                for (i, coded) in all.into_iter().enumerate() {
                    self.engines[i].install_state(coded);
                }
            }
        }
        Ok(())
    }
}

/// The commands a batch of canonical `u64` rows carries.
fn rows_to_commands<F: Field>(rows: &[Vec<u64>]) -> Vec<Vec<F>> {
    rows.iter()
        .map(|c| c.iter().copied().map(F::from_u64).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;
    use csm_statemachine::machines::bank_machine;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    fn small_cluster(n: usize, k: usize) -> CsmCluster<Fp61> {
        CsmClusterBuilder::new(n, k)
            .transition(bank_machine::<Fp61>())
            .initial_states((0..k as u64).map(|i| vec![f(100 * (i + 1))]).collect())
            .assumed_faults(1)
            .build()
            .unwrap()
    }

    #[test]
    fn builder_validates() {
        // missing transition
        assert!(matches!(
            CsmClusterBuilder::<Fp61>::new(4, 2)
                .initial_states(vec![vec![f(1)], vec![f(2)]])
                .build(),
            Err(CsmError::InvalidConfig(_))
        ));
        // wrong state count
        assert!(matches!(
            CsmClusterBuilder::new(4, 2)
                .transition(bank_machine::<Fp61>())
                .initial_states(vec![vec![f(1)]])
                .build(),
            Err(CsmError::ShapeMismatch(_))
        ));
        // too many machines: d=1, K=9 needs dim 9 > n=8
        assert!(matches!(
            CsmClusterBuilder::new(8, 9)
                .transition(bank_machine::<Fp61>())
                .initial_states((0..9).map(|i| vec![f(i)]).collect())
                .build(),
            Err(CsmError::TooManyMachines { .. })
        ));
        // fault out of range
        assert!(matches!(
            CsmClusterBuilder::new(4, 2)
                .transition(bank_machine::<Fp61>())
                .initial_states(vec![vec![f(1)], vec![f(2)]])
                .fault(4, FaultSpec::CorruptResult)
                .build(),
            Err(CsmError::InvalidConfig(_))
        ));
    }

    #[test]
    fn pbft_below_3b_plus_1_is_refused_at_build() {
        let pbft = |n: usize, b: usize| {
            CsmClusterBuilder::new(n, 2)
                .transition(bank_machine::<Fp61>())
                .initial_states(vec![vec![f(1)], vec![f(2)]])
                .consensus(ConsensusMode::Pbft)
                .assumed_faults(b)
                .build()
        };
        assert!(matches!(pbft(6, 2), Err(CsmError::InvalidConfig(_))));
        assert!(pbft(7, 2).is_ok());
    }

    #[test]
    fn honest_round_is_correct() {
        let mut cluster = small_cluster(6, 2);
        let report = cluster.step(vec![vec![f(10)], vec![f(20)]]).unwrap();
        assert!(report.correct);
        assert_eq!(report.outputs[0], vec![f(110)]);
        assert_eq!(report.outputs[1], vec![f(220)]);
        assert_eq!(report.new_states[0], vec![f(110)]);
        assert!(report.detected_error_nodes.is_empty());
        assert!(report.delivery.iter().all(DeliveryStatus::is_accepted));
    }

    #[test]
    fn step_rejects_bad_shapes() {
        let mut cluster = small_cluster(6, 2);
        assert!(matches!(
            cluster.step(vec![vec![f(1)]]),
            Err(CsmError::ShapeMismatch(_))
        ));
        assert!(matches!(
            cluster.step(vec![vec![f(1), f(2)], vec![f(3)]]),
            Err(CsmError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn corrupt_result_detected_and_corrected() {
        let mut cluster = CsmClusterBuilder::new(8, 2)
            .transition(bank_machine::<Fp61>())
            .initial_states(vec![vec![f(100)], vec![f(200)]])
            .fault(3, FaultSpec::CorruptResult)
            .assumed_faults(1)
            .build()
            .unwrap();
        let report = cluster.step(vec![vec![f(5)], vec![f(6)]]).unwrap();
        assert!(report.correct);
        assert_eq!(report.detected_error_nodes, vec![3]);
    }

    #[test]
    fn multi_round_state_evolution() {
        let mut cluster = small_cluster(6, 2);
        for r in 1..=5u64 {
            let report = cluster.step(vec![vec![f(1)], vec![f(2)]]).unwrap();
            assert!(report.correct, "round {r}");
            assert_eq!(report.new_states[0][0], f(100 + r));
            assert_eq!(report.new_states[1][0], f(200 + 2 * r));
        }
        assert_eq!(cluster.round(), 5);
    }

    #[test]
    fn coded_states_differ_from_plaintext() {
        // no node stores a plaintext state (ω and α sets are disjoint)
        let cluster = small_cluster(6, 3);
        for i in 0..6 {
            let coded = cluster.coded_state(i)[0];
            for s in cluster.reference_states() {
                assert_ne!(coded, s[0], "node {i} holds a plaintext state");
            }
        }
    }

    #[test]
    fn max_tolerable_faults_matches_table2() {
        // N=16, K=3, d=1: slack = 16 - 3 = 13 -> sync 6, psync 4
        let c = CsmClusterBuilder::new(16, 3)
            .transition(bank_machine::<Fp61>())
            .initial_states((0..3).map(|i| vec![f(i)]).collect())
            .build()
            .unwrap();
        assert_eq!(c.max_tolerable_faults(), 6);
        let c2 = CsmClusterBuilder::new(16, 3)
            .transition(bank_machine::<Fp61>())
            .initial_states((0..3).map(|i| vec![f(i)]).collect())
            .synchrony(SynchronyMode::PartiallySynchronous)
            .build()
            .unwrap();
        assert_eq!(c2.max_tolerable_faults(), 4);
    }

    #[test]
    fn report_digest_matches_shared_digest_of_results() {
        let mut cluster = small_cluster(6, 2);
        let report = cluster.step(vec![vec![f(10)], vec![f(20)]]).unwrap();
        let flat: Vec<Vec<Fp61>> = report
            .new_states
            .iter()
            .zip(&report.outputs)
            .map(|(s, y)| s.iter().chain(y).copied().collect())
            .collect();
        assert_eq!(report.digest, crate::digest::digest_results(&flat));
    }
}
