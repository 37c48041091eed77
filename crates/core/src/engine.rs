//! The sans-I/O per-round coded-execution engine — the shared execution
//! spine between the discrete-event simulator ([`crate::CsmCluster`]) and
//! the real transport runtime (`csm-node`).
//!
//! # The event contract
//!
//! The engine performs *no* I/O and owns *no* clock. Each §2.2 round is a
//! fixed sequence of pure calls, and everything between them — how the
//! coded results cross the network, when the receiver's word freezes, who
//! runs consensus — belongs to the driver:
//!
//! 1. **ρ (encode + execute)** — [`RoundEngine::execute`]: Lagrange-encode
//!    the round's agreed command batch at this node's evaluation point and
//!    apply the transition polynomial to the stored coded state, yielding
//!    the coded result `g_i` to broadcast. Drivers that account encoding
//!    and transition cost separately use [`RoundEngine::encode_commands`]
//!    and [`RoundEngine::execute_coded`] instead.
//! 2. **exchange** — *driver-owned*. The simulator constructs every
//!    receiver's word logically ([`sim_receiver_word`]); the runtime runs
//!    the §5.2 protocol over real sockets
//!    (`csm_core::exchange::ReceiverCore`). The engine only defines *what*
//!    a Byzantine node injects, via [`RoundEngine::result_action`].
//! 3. **ψ (decode)** — [`RoundEngine::decode`]: Reed–Solomon-recover every
//!    machine's plaintext `(S_k(t+1), Y_k(t))` from a finalized word,
//!    identifying erroneous broadcasters as a side effect.
//! 4. **χ (state update)** — [`RoundEngine::commit`]: re-encode the decoded
//!    next states into this node's coded state (storage stays one
//!    machine-state wide — the γ = K invariant) and advance the round
//!    counter, returning the [`RoundCommit`] record whose digest honest
//!    nodes gossip.
//!
//! Because the same [`CodedMachine`] (codebook + transition + decoder) and
//! the same [`RoundEngine`] steps run under both drivers, any
//! [`csm_statemachine::PolyTransition`] — bank accounts, compiled Boolean
//! circuits, arbitrary multivariate-polynomial machines — behaves
//! identically in simulation and over MemMesh / TCP. The
//! `engine_equivalence` integration tests assert exactly that.

use crate::codebook::Codebook;
use crate::config::{DecoderKind, FaultSpec, SynchronyMode};
use crate::digest::digest_results;
use crate::error::CsmError;
use crate::exchange::Word;
use csm_algebra::Field;
use csm_reed_solomon::{DecodePlan, Decoded, RsCode, RsError};
use csm_statemachine::{Aggregation, PolyTransition};
use rand::Rng;
use std::sync::Arc;

/// The immutable, node-independent half of the engine: the coded machine
/// itself. One instance is shared (via [`Arc`]) by every node of a
/// cluster — the codebook coefficients are universal (Remark 4), so there
/// is nothing per-node about them.
#[derive(Debug)]
pub struct CodedMachine<F: Field> {
    codebook: Codebook<F>,
    transition: PolyTransition<F>,
    code: RsCode<F>,
    decoder: DecoderKind,
    aggregation: Aggregation,
    zero_noop: bool,
    program_cap: usize,
}

impl<F: Field> CodedMachine<F> {
    /// Builds the coded machine for `k` copies of `transition` spread over
    /// `n` nodes, sized for single-command rounds (`program_cap = 1`).
    ///
    /// # Errors
    ///
    /// * [`CsmError::InvalidConfig`] — `n = 0` or `k = 0`;
    /// * [`CsmError::TooManyMachines`] — `d(K−1) + 1 > N`;
    /// * [`CsmError::FieldTooSmall`] — fewer than `N + K` field elements.
    pub fn new(
        n: usize,
        k: usize,
        transition: PolyTransition<F>,
        decoder: DecoderKind,
    ) -> Result<Self, CsmError> {
        Self::with_program_cap(n, k, transition, decoder, 1)
    }

    /// Builds the coded machine sized for per-round command *programs* of
    /// up to `program_cap` chained transition applications per shard.
    ///
    /// Chaining compounds the composite degree: after `m` steps the
    /// broadcast result interpolates a polynomial of degree at most
    /// `d^m(K−1)`, so the Reed–Solomon dimension is sized to
    /// `d^cap(K−1) + 1`. [`Aggregation::Fold`] machines have `d = 1` and
    /// keep dimension `K` (full fault slack) at *any* cap — their batches
    /// fold into one application and are effectively unbounded
    /// ([`Self::max_program_len`]).
    ///
    /// # Errors
    ///
    /// * [`CsmError::InvalidConfig`] — `n = 0`, `k = 0`, or
    ///   `program_cap = 0`;
    /// * [`CsmError::TooManyMachines`] — `d^cap(K−1) + 1 > N`;
    /// * [`CsmError::FieldTooSmall`] — fewer than `N + K` field elements.
    pub fn with_program_cap(
        n: usize,
        k: usize,
        transition: PolyTransition<F>,
        decoder: DecoderKind,
        program_cap: usize,
    ) -> Result<Self, CsmError> {
        if n == 0 || k == 0 {
            return Err(CsmError::InvalidConfig(
                "need at least one node and one machine".into(),
            ));
        }
        if program_cap == 0 {
            return Err(CsmError::InvalidConfig(
                "program cap must allow at least one command per round".into(),
            ));
        }
        let degree = transition.degree();
        // effective composite degree multiplier after `program_cap`
        // chained applications; overflow means dim > n for any real n
        let eff: Option<usize> = u32::try_from(program_cap)
            .ok()
            .and_then(|cap| (degree as usize).checked_pow(cap));
        let dim = eff
            .and_then(|d| d.checked_mul(k.saturating_sub(1)))
            .and_then(|x| x.checked_add(1));
        let dim = match dim {
            Some(dim) if dim <= n => dim,
            _ => {
                let max_k = (n - 1) / eff.unwrap_or(usize::MAX).max(1) + 1;
                return Err(CsmError::TooManyMachines {
                    k,
                    n,
                    degree,
                    max_k,
                });
            }
        };
        let aggregation = transition.aggregation();
        let zero_noop = transition.zero_command_is_noop();
        let codebook = Codebook::new(n, k)?;
        let code =
            RsCode::new(codebook.alphas().to_vec(), dim).expect("alphas are distinct and dim <= n");
        Ok(CodedMachine {
            codebook,
            transition,
            code,
            decoder,
            aggregation,
            zero_noop,
            program_cap,
        })
    }

    /// How this machine's transition aggregates a per-round batch
    /// (classified once at construction).
    pub fn aggregation(&self) -> Aggregation {
        self.aggregation
    }

    /// The per-shard program cap this machine's code dimension was sized
    /// for (1 when built with [`Self::new`]).
    pub fn program_cap(&self) -> usize {
        self.program_cap
    }

    /// The longest per-shard command program one round may evaluate:
    /// unbounded for [`Aggregation::Fold`] machines (the batch folds into
    /// a single application), the configured [`Self::program_cap`] for
    /// [`Aggregation::Program`] machines.
    pub fn max_program_len(&self) -> usize {
        match self.aggregation {
            Aggregation::Fold => usize::MAX,
            Aggregation::Program => self.program_cap,
        }
    }

    /// Number of nodes `N`.
    pub fn n(&self) -> usize {
        self.codebook.n()
    }

    /// Number of machines `K`.
    pub fn k(&self) -> usize {
        self.codebook.k()
    }

    /// The transition function.
    pub fn transition(&self) -> &PolyTransition<F> {
        &self.transition
    }

    /// The codebook (points and coefficients).
    pub fn codebook(&self) -> &Codebook<F> {
        &self.codebook
    }

    /// The Reed–Solomon code over the `α` points.
    pub fn code(&self) -> &RsCode<F> {
        &self.code
    }

    /// Which decoder [`Self::decode_coordinate`] runs.
    pub fn decoder(&self) -> DecoderKind {
        self.decoder
    }

    /// Width of one flat result vector `g_i = (S'(α_i), Y(α_i))`.
    pub fn result_dim(&self) -> usize {
        self.transition.state_dim() + self.transition.output_dim()
    }

    /// Validates a command batch (one vector per machine, each of the
    /// transition's input dimension).
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::ShapeMismatch`] describing the first offender.
    pub fn check_commands(&self, commands: &[Vec<F>]) -> Result<(), CsmError> {
        if commands.len() != self.k() {
            return Err(CsmError::ShapeMismatch(format!(
                "{} commands for {} machines",
                commands.len(),
                self.k()
            )));
        }
        for (i, c) in commands.iter().enumerate() {
            if c.len() != self.transition.input_dim() {
                return Err(CsmError::ShapeMismatch(format!(
                    "command {i} has dimension {}, transition expects {}",
                    c.len(),
                    self.transition.input_dim()
                )));
            }
        }
        Ok(())
    }

    /// Validates a state set (one vector per machine, each of the
    /// transition's state dimension).
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::ShapeMismatch`] describing the first offender.
    pub fn check_states(&self, states: &[Vec<F>]) -> Result<(), CsmError> {
        if states.len() != self.k() {
            return Err(CsmError::ShapeMismatch(format!(
                "{} initial states for {} machines",
                states.len(),
                self.k()
            )));
        }
        for (i, s) in states.iter().enumerate() {
            if s.len() != self.transition.state_dim() {
                return Err(CsmError::ShapeMismatch(format!(
                    "state {i} has dimension {}, transition expects {}",
                    s.len(),
                    self.transition.state_dim()
                )));
            }
        }
        Ok(())
    }

    /// Node `node`'s coded command vector `X̃_i = v(α_i)` — the O(K)
    /// per-node encoding (ρ, first half).
    ///
    /// # Panics
    ///
    /// Panics if the batch shape is wrong (use [`Self::check_commands`]
    /// first on untrusted input).
    pub fn encode_command_at(&self, node: usize, commands: &[Vec<F>]) -> Vec<F> {
        self.codebook.encode_vector_at(node, commands)
    }

    /// Node `node`'s coded state `S̃_i = u(α_i)` from plaintext states
    /// (used at initialization and for the χ update).
    ///
    /// # Panics
    ///
    /// Panics if the state shape is wrong (use [`Self::check_states`]
    /// first on untrusted input).
    pub fn encode_state_at(&self, node: usize, states: &[Vec<F>]) -> Vec<F> {
        self.codebook.encode_vector_at(node, states)
    }

    /// Decodes one coordinate's word with the configured decoder,
    /// verify-first ([`RsCode::decode_hinted`] with no hint).
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::Decoding`] if the word holds more corrupted
    /// results than the code corrects.
    pub fn decode_coordinate(&self, coord_word: &[Option<F>]) -> Result<Decoded<F>, CsmError> {
        Ok(self.code.decode_with(&self.decoder, coord_word)?)
    }

    /// **ψ**: decodes a finalized word into every machine's next state and
    /// output, plus the nodes whose broadcasts were identified as
    /// erroneous. Present slots whose vectors have the wrong width (a
    /// validly-MAC'd but malformed Byzantine result) count as erasures.
    ///
    /// Byzantine *nodes* are the same for every coordinate, so they are
    /// located once per word: each coordinate is decoded verify-first
    /// ([`RsCode::decode_hinted`]) around a suspect set that starts as
    /// `hint` (typically last round's `detected_error_nodes`) and grows by
    /// every error position a coordinate reveals. The hint steers which
    /// symbols the guess reads; the result does not depend on it.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::Decoding`] if any coordinate's word holds more
    /// corrupted results than the code corrects (security bound exceeded).
    pub fn decode_word(&self, word: &Word<F>, hint: &[usize]) -> Result<DecodedRound<F>, CsmError> {
        self.decode_word_in(word, hint, None)
    }

    /// [`Self::decode_word`], through `slot`'s [`DecodePlan`] whenever a
    /// coordinate's guess would read exactly the symbols it reads. The plan
    /// accepts iff that guess verifies and then yields the same errors and
    /// the same values at `ω_k`, so the slot never changes a result, only
    /// what a verified guess costs.
    fn decode_word_in(
        &self,
        word: &Word<F>,
        hint: &[usize],
        mut slot: Option<&mut PlanSlot<F>>,
    ) -> Result<DecodedRound<F>, CsmError> {
        let sd = self.transition.state_dim();
        let out_dim = self.result_dim();
        let (n, k) = (self.n(), self.k());
        if word.len() != n {
            return Err(CsmError::Decoding(RsError::LengthMismatch {
                got: word.len(),
                expected: n,
            }));
        }
        let usable = |i: usize| word[i].as_deref().filter(|g| g.len() == out_dim);
        let omegas = self.codebook.omegas();
        let mut suspects = hint.to_vec();
        let mut erroneous = vec![false; n];
        let mut note = |errors: &[usize], suspects: &mut Vec<usize>| {
            for &e in errors {
                if !std::mem::replace(&mut erroneous[e], true) {
                    suspects.push(e);
                }
            }
        };
        let (mut basis, mut plan, mut ys, mut read) = (None, None, Vec::new(), Vec::new());
        // coordinate-major: values[j·K + k] = coordinate j of (S_k(t+1), Y_k(t))
        let mut values = Vec::with_capacity(out_dim * k);
        for jcoord in 0..out_dim {
            let symbol = |i: usize| usable(i).map(|g| g[jcoord]);
            // a verified guess reveals no error among the symbols it read,
            // so a plan in force still reads what the next guess would
            read.clear();
            if let (None, Some(slot)) = (&plan, slot.as_deref_mut()) {
                read.extend(self.code.read_set(symbol, &suspects).map(|(i, _)| i));
                plan = slot.plan.take_if(|p| p.read() == read);
            }
            if let Some(plan) = &plan {
                if let Some(errors) = plan.check(symbol, &mut ys) {
                    values.extend(plan.evaluate(&ys));
                    note(&errors, &mut suspects);
                    continue;
                }
            }
            // a refuted plan is dropped, and its guess not interpolated again
            let decoded = match plan.take() {
                Some(_) => self.code.solve(&self.decoder, symbol)?,
                None => self
                    .code
                    .decode_hinted(&self.decoder, symbol, &suspects, &mut basis)?,
            };
            values.extend(omegas.iter().map(|&w| decoded.poly().eval(w)));
            let errors = decoded.error_positions();
            note(errors, &mut suspects);
            // the guess verified iff none of the symbols it read was wrong;
            // the second in a row through the same symbols is worth a plan
            if read.len() == self.code.dim() && !read.iter().any(|i| errors.contains(i)) {
                let slot = slot.as_deref_mut().expect("a read set was collected");
                if slot.verified == read {
                    let built = self.code.plan(&read, omegas);
                    plan = Some(built.expect("a read set is dim distinct positions"));
                } else {
                    std::mem::swap(&mut slot.verified, &mut read);
                }
            }
        }
        if let (Some(slot), Some(plan)) = (slot, plan) {
            slot.plan = Some(plan);
        }
        let column = |coords: std::ops::Range<usize>, m: usize| -> Vec<F> {
            coords.map(|j| values[j * k + m]).collect()
        };
        Ok(DecodedRound {
            new_states: (0..k).map(|m| column(0..sd, m)).collect(),
            outputs: (0..k).map(|m| column(sd..out_dim, m)).collect(),
            detected_error_nodes: (0..n).filter(|&i| erroneous[i]).collect(),
            results_held: (0..n).filter(|&i| usable(i).is_some()).count(),
        })
    }

    /// A stable fingerprint of the coded-machine geometry: sizes,
    /// transition shape, and the evaluation point sets. Two machines with
    /// equal fingerprints encode states identically, so a durable store
    /// (snapshot + commit log) written under one can be replayed under
    /// the other; `csm-storage` binds every store to this value and
    /// refuses to open under a different machine.
    pub fn fingerprint(&self) -> u64 {
        use crate::digest::splitmix64;
        let t = self.transition();
        let mut acc = splitmix64(0xC0DE_D57A7E ^ self.n() as u64);
        for v in [
            self.k() as u64,
            t.state_dim() as u64,
            t.input_dim() as u64,
            t.output_dim() as u64,
            u64::from(t.degree()),
            // the RS dimension folds in the program cap where it matters:
            // Fold machines keep dim = K at any cap (stores stay
            // compatible across cap changes), Program machines do not
            self.code.dim() as u64,
        ] {
            acc = splitmix64(acc ^ v);
        }
        for &w in self.codebook.omegas() {
            acc = splitmix64(acc ^ w.to_canonical_u64());
        }
        for &a in self.codebook.alphas() {
            acc = splitmix64(acc ^ a.to_canonical_u64());
        }
        acc
    }

    /// Maximum number of Byzantine nodes decoding tolerates (Table 2):
    /// synchronous `⌊(N − d(K−1) − 1)/2⌋`, partially synchronous
    /// `⌊(N − d(K−1) − 1)/3⌋`.
    pub fn max_tolerable_faults(&self, synchrony: SynchronyMode) -> usize {
        let slack = self.n().saturating_sub(self.code.dim());
        match synchrony {
            SynchronyMode::Synchronous => slack / 2,
            SynchronyMode::PartiallySynchronous => slack / 3,
        }
    }
}

/// What [`RoundEngine::decode`] carries from word to word: the read set of
/// the last guess that verified off-plan, and the plan built once two in a
/// row read the same symbols. The plan is dropped when a word refutes it.
#[derive(Debug, Clone, Default)]
struct PlanSlot<F> {
    verified: Vec<usize>,
    plan: Option<DecodePlan<F>>,
}

/// The plaintext recovery of one round at one receiver — what ψ yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedRound<F> {
    /// Decoded next states `S_k(t+1)`, one per machine.
    pub new_states: Vec<Vec<F>>,
    /// Decoded outputs `Y_k(t)`, one per machine.
    pub outputs: Vec<Vec<F>>,
    /// Nodes whose broadcast results were identified as erroneous by the
    /// decoder (Byzantine detection as a side effect of decoding).
    pub detected_error_nodes: Vec<usize>,
    /// How many usable word slots held results when decoding.
    pub results_held: usize,
}

impl<F: Field> DecodedRound<F> {
    /// Per-machine flat result vectors `(S_k(t+1), Y_k(t))` — the layout
    /// the digest covers, identical between simulator and runtime.
    pub fn results(&self) -> Vec<Vec<F>> {
        self.new_states
            .iter()
            .zip(&self.outputs)
            .map(|(s, y)| s.iter().chain(y).copied().collect())
            .collect()
    }

    /// Order-sensitive digest of [`Self::results`]
    /// ([`crate::digest::digest_results`]).
    pub fn digest(&self) -> u64 {
        digest_results(&self.results())
    }
}

/// Outcome of one committed round at one node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundCommit<F> {
    /// Round number.
    pub round: u64,
    /// Decoded per-machine flat results `(S_k(t+1), Y_k(t))`.
    pub results: Vec<Vec<F>>,
    /// Order-sensitive digest of `results` (what nodes gossip in `Commit`
    /// frames).
    pub digest: u64,
    /// How many word slots held usable results when decoding.
    pub results_held: usize,
    /// Nodes whose broadcast results the decoder identified as erroneous
    /// this round (Byzantine detection as a side effect of decoding).
    pub detected_error_nodes: Vec<usize>,
}

/// What a node hands its exchange driver for broadcasting: the sans-I/O
/// expression of the execution-phase fault model. Per-receiver
/// perturbation (equivocation noise schedules) and wire-level attacks
/// (impersonation) are the driver's business.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ResultAction<F> {
    /// Broadcast this vector to everyone (honest, or an already-corrupted
    /// variant for [`FaultSpec::CorruptResult`] / [`FaultSpec::OffsetResult`]).
    Broadcast(Vec<F>),
    /// Send a differently-perturbed copy of this base vector to each
    /// receiver.
    Equivocate(Vec<F>),
    /// Send nothing.
    Withhold,
}

/// One node's stateful view of the coded cluster: its coded state, its
/// fault behavior, and its round counter, over a shared [`CodedMachine`].
#[derive(Debug, Clone)]
pub struct RoundEngine<F: Field> {
    machine: Arc<CodedMachine<F>>,
    node: usize,
    fault: FaultSpec,
    coded_state: Vec<F>,
    round: u64,
    /// The last commit's `detected_error_nodes`: where the next round's
    /// decode does not look for its guess.
    suspects: Vec<usize>,
    plans: PlanSlot<F>,
}

impl<F: Field> RoundEngine<F> {
    /// Sets up node `node`'s engine with the cluster's plaintext initial
    /// states (immediately encoded — only the coded state is stored).
    ///
    /// # Errors
    ///
    /// * [`CsmError::InvalidConfig`] — `node >= N`;
    /// * [`CsmError::ShapeMismatch`] — wrong state shapes.
    pub fn new(
        machine: Arc<CodedMachine<F>>,
        node: usize,
        initial_states: &[Vec<F>],
    ) -> Result<Self, CsmError> {
        if node >= machine.n() {
            return Err(CsmError::InvalidConfig(format!(
                "node {node} out of range for {} nodes",
                machine.n()
            )));
        }
        machine.check_states(initial_states)?;
        let coded_state = machine.encode_state_at(node, initial_states);
        Ok(RoundEngine {
            machine,
            node,
            fault: FaultSpec::Honest,
            coded_state,
            round: 0,
            suspects: Vec::new(),
            plans: PlanSlot::default(),
        })
    }

    /// Assigns the node's execution-phase fault behavior.
    pub fn with_fault(mut self, fault: FaultSpec) -> Self {
        self.fault = fault;
        self
    }

    /// This node's id.
    pub fn node(&self) -> usize {
        self.node
    }

    /// The shared coded machine.
    pub fn machine(&self) -> &Arc<CodedMachine<F>> {
        &self.machine
    }

    /// This node's fault behavior.
    pub fn fault(&self) -> FaultSpec {
        self.fault
    }

    /// Next round to execute (commits so far).
    pub fn round(&self) -> u64 {
        self.round
    }

    /// The stored coded state (one machine-state wide — the
    /// storage-efficiency invariant).
    pub fn coded_state(&self) -> &[F] {
        &self.coded_state
    }

    /// The stored coded state in canonical `u64` form — what snapshots
    /// and state-transfer frames carry.
    pub fn coded_state_canonical(&self) -> Vec<u64> {
        self.coded_state
            .iter()
            .map(|x| x.to_canonical_u64())
            .collect()
    }

    /// Installs an externally-recovered coded state and round counter —
    /// the crash-recovery import path (replayed from a durable snapshot +
    /// commit log, or re-encoded from a `b + 1`-verified state transfer).
    /// Unlike [`Self::install_state`] this does not apply self-poisoning
    /// or advance the round: it *sets* the engine to exactly the durable
    /// point.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::ShapeMismatch`] when `coded_state` is not one
    /// machine-state wide.
    pub fn restore(&mut self, coded_state: Vec<F>, next_round: u64) -> Result<(), CsmError> {
        let sd = self.machine.transition().state_dim();
        if coded_state.len() != sd {
            return Err(CsmError::ShapeMismatch(format!(
                "restored coded state has dimension {}, machine expects {sd}",
                coded_state.len()
            )));
        }
        self.coded_state = coded_state;
        self.round = next_round;
        self.suspects.clear();
        Ok(())
    }

    /// ρ, first half: this node's coded command vector for an agreed
    /// batch.
    ///
    /// # Panics
    ///
    /// Panics on a malformed batch (drivers validate via
    /// [`CodedMachine::check_commands`]).
    pub fn encode_commands(&self, commands: &[Vec<F>]) -> Vec<F> {
        self.machine.encode_command_at(self.node, commands)
    }

    /// ρ, second half: applies the transition polynomial to the stored
    /// coded state and an already-encoded command, yielding the honest
    /// coded result `g_i`.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::Transition`] on arity mismatch.
    pub fn execute_coded(&self, coded_cmd: &[F]) -> Result<Vec<F>, CsmError> {
        self.machine
            .transition()
            .apply_flat(&self.coded_state, coded_cmd)
            .map_err(|e| CsmError::Transition(e.to_string()))
    }

    /// The whole ρ step: encode the batch at this node's point and run the
    /// transition. Equivalent to `execute_coded(&encode_commands(..))`.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::ShapeMismatch`] on a malformed batch or
    /// [`CsmError::Transition`] on arity mismatch.
    pub fn execute(&self, commands: &[Vec<F>]) -> Result<Vec<F>, CsmError> {
        self.machine.check_commands(commands)?;
        self.execute_coded(&self.encode_commands(commands))
    }

    /// ρ over a per-round command *program*: `programs[k]` is machine
    /// `k`'s ordered command list for this round (possibly empty — idle
    /// shards run no-ops). Exactly equivalent to applying every shard's
    /// commands sequentially, but in one coded round:
    ///
    /// * [`Aggregation::Fold`] machines fold each shard's batch in-field
    ///   into one command and run the ordinary single-application ρ —
    ///   unlimited batch size, composite degree unchanged;
    /// * [`Aggregation::Program`] machines chain up to
    ///   [`CodedMachine::program_cap`] coded transition steps (short
    ///   shards padded with the zero no-op command), keeping only the
    ///   next-state half between steps; the final step's flat `(S', Y)`
    ///   is the broadcast `g_i`, with degree `≤ d^m(K−1)` covered by the
    ///   machine's code dimension.
    ///
    /// # Errors
    ///
    /// * [`CsmError::ShapeMismatch`] — wrong shard count, a malformed
    ///   command, or a program longer than
    ///   [`CodedMachine::max_program_len`];
    /// * [`CsmError::InvalidConfig`] — ragged programs on a machine whose
    ///   zero command is not a state no-op (padding would mutate idle
    ///   shards);
    /// * [`CsmError::Transition`] — arity mismatch.
    pub fn execute_batched(&self, programs: &[Vec<Vec<F>>]) -> Result<Vec<F>, CsmError> {
        let m = self.machine.as_ref();
        let t = m.transition();
        if programs.len() != m.k() {
            return Err(CsmError::ShapeMismatch(format!(
                "{} shard programs for {} machines",
                programs.len(),
                m.k()
            )));
        }
        if let Aggregation::Fold = m.aggregation() {
            let commands: Vec<Vec<F>> = programs
                .iter()
                .map(|p| t.fold_commands(p))
                .collect::<Result<_, _>>()
                .map_err(|e| CsmError::Transition(e.to_string()))?;
            return self.execute(&commands);
        }
        let steps = programs.iter().map(Vec::len).max().unwrap_or(0);
        if steps > m.max_program_len() {
            return Err(CsmError::ShapeMismatch(format!(
                "per-shard program of {steps} commands exceeds the machine's cap of {}",
                m.max_program_len()
            )));
        }
        let ragged = programs.iter().any(|p| p.len() < steps.max(1));
        if ragged && !m.zero_noop {
            return Err(CsmError::InvalidConfig(
                "transition's zero command is not a no-op: uneven per-shard programs \
                 cannot be padded"
                    .into(),
            ));
        }
        let zero = vec![F::ZERO; t.input_dim()];
        let sd = t.state_dim();
        let mut state = self.coded_state.clone();
        let mut flat = Vec::new();
        for step in 0..steps.max(1) {
            let commands: Vec<Vec<F>> = programs
                .iter()
                .map(|p| p.get(step).cloned().unwrap_or_else(|| zero.clone()))
                .collect();
            m.check_commands(&commands)?;
            let coded_cmd = m.encode_command_at(self.node, &commands);
            flat = t
                .apply_flat(&state, &coded_cmd)
                .map_err(|e| CsmError::Transition(e.to_string()))?;
            // intermediate steps carry only the state half forward; the
            // outputs of non-final steps are not part of the round result
            state = flat[..sd].to_vec();
        }
        Ok(flat)
    }

    /// Applies this node's result fault to an honest coded result, in the
    /// simulator's semantics: `None` means withheld, equivocators return
    /// the honest base (per-receiver noise is the exchange layer's job).
    pub fn apply_result_fault<R: Rng + ?Sized>(&self, g: Vec<F>, rng: &mut R) -> Option<Vec<F>> {
        match self.fault {
            FaultSpec::Honest | FaultSpec::CorruptStateUpdate | FaultSpec::Equivocate => Some(g),
            FaultSpec::CorruptResult => Some((0..g.len()).map(|_| F::random(rng)).collect()),
            FaultSpec::OffsetResult => {
                Some(g.into_iter().map(|x| x + F::from_u64(0xBAD)).collect())
            }
            FaultSpec::Withhold => None,
        }
    }

    /// Applies this node's result fault as a broadcast instruction for an
    /// exchange driver.
    pub fn result_action<R: Rng + ?Sized>(&self, g: Vec<F>, rng: &mut R) -> ResultAction<F> {
        match self.fault {
            FaultSpec::Equivocate => ResultAction::Equivocate(g),
            FaultSpec::Withhold => ResultAction::Withhold,
            _ => match self.apply_result_fault(g, rng) {
                Some(v) => ResultAction::Broadcast(v),
                None => ResultAction::Withhold,
            },
        }
    }

    /// ψ: decodes a finalized word — [`CodedMachine::decode_word`]'s answer,
    /// hinted with the nodes the last commit found erroneous, so a
    /// persistent Byzantine node is located once, not once per round, and
    /// through a [`DecodePlan`] once the same symbols have been read twice
    /// running, so a cluster whose faults stay put pays two matrix–vector
    /// products per coordinate.
    ///
    /// # Errors
    ///
    /// Returns [`CsmError::Decoding`] when the security bound is exceeded.
    pub fn decode(&mut self, word: &Word<F>) -> Result<DecodedRound<F>, CsmError> {
        self.machine
            .decode_word_in(word, &self.suspects, Some(&mut self.plans))
    }

    /// Installs an externally-encoded next coded state (the simulator's
    /// centralized χ path), applying [`FaultSpec::CorruptStateUpdate`]
    /// self-poisoning, and advances the round counter.
    pub fn install_state(&mut self, coded: Vec<F>) {
        self.coded_state = if self.fault == FaultSpec::CorruptStateUpdate {
            // self-poisoning: the node stores garbage, so its future
            // results are erroneous and get corrected by decoding
            coded.into_iter().map(|x| x + F::from_u64(0xDEAD)).collect()
        } else {
            coded
        };
        self.round += 1;
    }

    /// χ: re-encodes the decoded next states into this node's coded state
    /// and returns the commit record for the round just finished.
    pub fn commit(&mut self, decoded: &DecodedRound<F>) -> RoundCommit<F> {
        let results = decoded.results();
        let commit = RoundCommit {
            round: self.round,
            digest: digest_results(&results),
            results,
            results_held: decoded.results_held,
            detected_error_nodes: decoded.detected_error_nodes.clone(),
        };
        self.suspects.clone_from(&decoded.detected_error_nodes);
        let coded = self.machine.encode_state_at(self.node, &decoded.new_states);
        self.install_state(coded);
        commit
    }

    /// Decode-then-commit convenience for runtime drivers: `None` if the
    /// word is undecodable (the driver skips the round's commit
    /// announcement, matching the protocol's "too many faults" outcome).
    pub fn commit_word(&mut self, word: &Word<F>) -> Option<RoundCommit<F>> {
        let decoded = self.decode(word).ok()?;
        Some(self.commit(&decoded))
    }
}

/// The simulator's logical §5.2 exchange: receiver `j`'s view of the
/// broadcast results, with equivocation noise and (in partial synchrony)
/// worst-case adversarial slowness applied. `results[i] = None` means node
/// `i` withheld.
///
/// Exact under the paper's network models; the runtime path exercises the
/// real mechanics instead ([`crate::exchange`], `csm-node`). Shared here
/// so `CsmCluster` and the engine-equivalence tests apply one definition.
pub fn sim_receiver_word<F: Field>(
    results: &[Option<Vec<F>>],
    receiver: usize,
    faults: &[FaultSpec],
    synchrony: SynchronyMode,
    assumed_faults: usize,
    round: u64,
) -> Word<F> {
    let n = results.len();
    let mut word: Word<F> = results.to_vec();
    // equivocating senders give each receiver a different wrong value
    for (i, fault) in faults.iter().enumerate() {
        if *fault == FaultSpec::Equivocate {
            if let Some(g) = &mut word[i] {
                let noise = F::from_u64(
                    1 + ((i as u64 + 1)
                        .wrapping_mul(receiver as u64 + 0x1234)
                        .wrapping_mul(round + 7))
                        % 65_521,
                );
                for x in g.iter_mut() {
                    *x += noise;
                }
            }
        }
    }
    // partial synchrony: the adversary delays up to b results past the
    // decode point; the worst case drops honest ones
    if synchrony == SynchronyMode::PartiallySynchronous {
        let withheld = word.iter().filter(|w| w.is_none()).count();
        let mut to_drop = assumed_faults.saturating_sub(withheld);
        for i in (0..n).rev() {
            if to_drop == 0 {
                break;
            }
            if word[i].is_some() && !faults[i].is_byzantine() && i != receiver {
                word[i] = None;
                to_drop -= 1;
            }
        }
    }
    word
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::Fp61;
    use csm_statemachine::machines::{auction_machine, bank_machine};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn f(v: u64) -> Fp61 {
        Fp61::from_u64(v)
    }

    fn machine(n: usize, k: usize) -> Arc<CodedMachine<Fp61>> {
        Arc::new(CodedMachine::new(n, k, bank_machine(), DecoderKind::default()).unwrap())
    }

    fn engines(m: &Arc<CodedMachine<Fp61>>, states: &[Vec<Fp61>]) -> Vec<RoundEngine<Fp61>> {
        (0..m.n())
            .map(|i| RoundEngine::new(Arc::clone(m), i, states).unwrap())
            .collect()
    }

    #[test]
    fn machine_validates_shape() {
        assert!(matches!(
            CodedMachine::<Fp61>::new(0, 1, bank_machine(), DecoderKind::default()),
            Err(CsmError::InvalidConfig(_))
        ));
        assert!(matches!(
            CodedMachine::<Fp61>::new(8, 9, bank_machine(), DecoderKind::default()),
            Err(CsmError::TooManyMachines { .. })
        ));
        let m = machine(8, 2);
        assert!(m.check_commands(&[vec![f(1)]]).is_err());
        assert!(m.check_commands(&[vec![f(1)], vec![f(2), f(3)]]).is_err());
        assert!(m.check_commands(&[vec![f(1)], vec![f(2)]]).is_ok());
    }

    #[test]
    fn full_round_recovers_reference_execution() {
        let m = machine(8, 2);
        let states = vec![vec![f(100)], vec![f(200)]];
        let mut nodes = engines(&m, &states);
        let commands = vec![vec![f(10)], vec![f(20)]];
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        let mut digests = Vec::new();
        for e in &mut nodes {
            let decoded = e.decode(&word).unwrap();
            assert_eq!(decoded.new_states, vec![vec![f(110)], vec![f(220)]]);
            assert_eq!(decoded.outputs, vec![vec![f(110)], vec![f(220)]]);
            assert!(decoded.detected_error_nodes.is_empty());
            let commit = e.commit(&decoded);
            assert_eq!(commit.round, 0);
            assert_eq!(e.round(), 1);
            digests.push(commit.digest);
        }
        digests.dedup();
        assert_eq!(digests.len(), 1, "all nodes agree on the digest");
    }

    #[test]
    fn corrupt_and_malformed_results_are_handled() {
        let m = machine(10, 2);
        let states = vec![vec![f(5)], vec![f(6)]];
        let mut nodes = engines(&m, &states);
        let commands = vec![vec![f(1)], vec![f(2)]];
        let mut word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        word[3] = Some(vec![f(666), f(667)]); // corrupted (right width)
        word[5] = Some(vec![f(1)]); // malformed width -> erasure
        word[7] = None; // withheld
        let decoded = nodes[0].decode(&word).unwrap();
        assert_eq!(decoded.new_states, vec![vec![f(6)], vec![f(8)]]);
        assert_eq!(decoded.detected_error_nodes, vec![3]);
        assert_eq!(decoded.results_held, 8);
    }

    /// One honest round of the bank machine on `nodes`, as the word every
    /// receiver would hold.
    fn honest_word(nodes: &[RoundEngine<Fp61>], commands: &[Vec<Fp61>]) -> Word<Fp61> {
        nodes
            .iter()
            .map(|e| Some(e.execute(commands).unwrap()))
            .collect()
    }

    #[test]
    fn errors_confined_to_different_coordinates_are_all_detected() {
        let m = machine(10, 2);
        let states = vec![vec![f(5)], vec![f(6)]];
        let nodes = engines(&m, &states);
        let commands = vec![vec![f(1)], vec![f(2)]];
        let mut word = honest_word(&nodes, &commands);
        // node 2 lies about the state coordinate only, node 6 about the
        // output only: neither coordinate alone sees both
        word[2].as_mut().unwrap()[0] += f(9);
        word[6].as_mut().unwrap()[1] += f(9);
        for hint in [&[][..], &[2], &[6], &[2, 6], &[0, 1, 3]] {
            let decoded = m.decode_word(&word, hint).unwrap();
            assert_eq!(decoded.detected_error_nodes, vec![2, 6], "hint {hint:?}");
            assert_eq!(decoded.new_states, vec![vec![f(6)], vec![f(8)]]);
            assert_eq!(decoded.outputs, vec![vec![f(6)], vec![f(8)]]);
        }
    }

    #[test]
    fn stale_hints_never_change_what_commits() {
        // the Byzantine pair moves every round, so the hint each engine
        // carries from its last commit is always wrong
        let m = machine(10, 2);
        let states = vec![vec![f(100)], vec![f(200)]];
        let mut nodes = engines(&m, &states);
        for r in 0..20u64 {
            let commands = vec![vec![f(r + 1)], vec![f(2 * r + 1)]];
            let mut word = honest_word(&nodes, &commands);
            let liars = [(3 * r as usize) % 10, (3 * r as usize + 1) % 10];
            for &liar in &liars {
                for x in word[liar].as_mut().unwrap() {
                    *x += f(0xBAD);
                }
            }
            for e in &mut nodes {
                // the same node with no memory of earlier rounds
                let mut fresh = RoundEngine::new(Arc::clone(&m), e.node(), &states).unwrap();
                fresh.restore(e.coded_state().to_vec(), e.round()).unwrap();
                let commit = e.commit_word(&word).unwrap();
                assert_eq!(
                    Some(&commit),
                    fresh.commit_word(&word).as_ref(),
                    "round {r}"
                );
                let mut sorted = liars;
                sorted.sort_unstable();
                assert_eq!(commit.detected_error_nodes, sorted);
                assert_eq!(e.suspects, sorted);
            }
        }
    }

    #[test]
    fn restore_forgets_the_hint() {
        let m = machine(8, 2);
        let states = vec![vec![f(1)], vec![f(2)]];
        let mut nodes = engines(&m, &states);
        let mut word = honest_word(&nodes, &[vec![f(3)], vec![f(4)]]);
        word[5] = Some(vec![f(666), f(667)]);
        let e = &mut nodes[0];
        e.commit_word(&word).unwrap();
        assert_eq!(e.suspects, vec![5]);
        // what was learnt about peers belongs to the timeline being left
        e.restore(vec![f(7)], 9).unwrap();
        assert!(e.suspects.is_empty());
    }

    #[test]
    fn result_faults_follow_spec() {
        let m = machine(6, 2);
        let states = vec![vec![f(1)], vec![f(2)]];
        let mut rng = StdRng::seed_from_u64(7);
        let g = vec![f(10), f(20)];
        let honest = RoundEngine::new(Arc::clone(&m), 0, &states).unwrap();
        assert_eq!(
            honest.apply_result_fault(g.clone(), &mut rng),
            Some(g.clone())
        );
        let withhold = RoundEngine::new(Arc::clone(&m), 1, &states)
            .unwrap()
            .with_fault(FaultSpec::Withhold);
        assert_eq!(withhold.apply_result_fault(g.clone(), &mut rng), None);
        assert_eq!(
            withhold.result_action(g.clone(), &mut rng),
            ResultAction::Withhold
        );
        let offset = RoundEngine::new(Arc::clone(&m), 2, &states)
            .unwrap()
            .with_fault(FaultSpec::OffsetResult);
        assert_eq!(
            offset.apply_result_fault(g.clone(), &mut rng),
            Some(vec![f(10) + f(0xBAD), f(20) + f(0xBAD)])
        );
        let equiv = RoundEngine::new(Arc::clone(&m), 3, &states)
            .unwrap()
            .with_fault(FaultSpec::Equivocate);
        assert_eq!(
            equiv.result_action(g.clone(), &mut rng),
            ResultAction::Equivocate(g)
        );
    }

    #[test]
    fn multi_coordinate_machine_roundtrips() {
        let m =
            Arc::new(CodedMachine::<Fp61>::new(9, 2, auction_machine(), DecoderKind::Gao).unwrap());
        let states = vec![vec![f(3), f(4)], vec![f(5), f(6)]];
        let mut nodes: Vec<RoundEngine<Fp61>> = (0..9)
            .map(|i| RoundEngine::new(Arc::clone(&m), i, &states).unwrap())
            .collect();
        let commands = vec![vec![f(1), f(2)], vec![f(3), f(4)]];
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        let decoded = nodes[0].decode(&word).unwrap();
        // reference execution
        for k in 0..2 {
            let (s, y) = m.transition().apply(&states[k], &commands[k]).unwrap();
            assert_eq!(decoded.new_states[k], s);
            assert_eq!(decoded.outputs[k], y);
        }
        // committing re-encodes: the next round's honest results still decode
        for e in &mut nodes {
            e.commit(&decoded);
        }
        let word2: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        assert!(nodes[0].decode(&word2).is_ok());
    }

    #[test]
    fn restore_roundtrips_canonical_export() {
        let m = machine(8, 2);
        let states = vec![vec![f(100)], vec![f(200)]];
        let mut nodes = engines(&m, &states);
        let commands = vec![vec![f(10)], vec![f(20)]];
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute(&commands).unwrap()))
            .collect();
        for e in &mut nodes {
            e.commit_word(&word).unwrap();
        }
        // export node 3's state, wipe it, restore from canonical form
        let exported = nodes[3].coded_state_canonical();
        let round = nodes[3].round();
        let mut fresh = RoundEngine::new(Arc::clone(&m), 3, &states).unwrap();
        fresh
            .restore(exported.iter().map(|&v| f(v)).collect(), round)
            .unwrap();
        assert_eq!(fresh.coded_state(), nodes[3].coded_state());
        assert_eq!(fresh.round(), round);
        // the restored engine produces the same next-round result
        assert_eq!(
            fresh.execute(&commands).unwrap(),
            nodes[3].execute(&commands).unwrap()
        );
        // shape violations are rejected
        assert!(matches!(
            fresh.restore(vec![f(1), f(2)], 0),
            Err(CsmError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn fingerprint_separates_machine_geometries() {
        let a = machine(8, 2).fingerprint();
        assert_eq!(a, machine(8, 2).fingerprint(), "deterministic");
        assert_ne!(a, machine(8, 3).fingerprint(), "k differs");
        assert_ne!(a, machine(9, 2).fingerprint(), "n differs");
        let auction =
            CodedMachine::<Fp61>::new(8, 2, auction_machine(), DecoderKind::default()).unwrap();
        assert_ne!(a, auction.fingerprint(), "transition shape differs");
    }

    /// Sequential reference: apply each shard's program in order on
    /// plaintext states, returning the final states and the last
    /// command's outputs.
    fn reference_program(
        m: &CodedMachine<Fp61>,
        states: &[Vec<Fp61>],
        programs: &[Vec<Vec<Fp61>>],
    ) -> (Vec<Vec<Fp61>>, Vec<Vec<Fp61>>) {
        let t = m.transition();
        let mut out_states = states.to_vec();
        let mut outputs = vec![Vec::new(); states.len()];
        let steps = programs.iter().map(Vec::len).max().unwrap_or(0).max(1);
        for step in 0..steps {
            for k in 0..states.len() {
                let zero = vec![f(0); t.input_dim()];
                let cmd = programs[k].get(step).cloned().unwrap_or(zero);
                let (s, y) = t.apply(&out_states[k], &cmd).unwrap();
                out_states[k] = s;
                outputs[k] = y;
            }
        }
        (out_states, outputs)
    }

    #[test]
    fn folded_batch_matches_sequential_application() {
        let m = machine(8, 2); // bank: Aggregation::Fold, dim stays K
        assert_eq!(m.aggregation(), csm_statemachine::Aggregation::Fold);
        assert_eq!(m.max_program_len(), usize::MAX);
        let states = vec![vec![f(100)], vec![f(200)]];
        let mut nodes = engines(&m, &states);
        // ragged programs: shard 0 gets three deposits, shard 1 one
        let programs = vec![vec![vec![f(10)], vec![f(5)], vec![f(7)]], vec![vec![f(3)]]];
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute_batched(&programs).unwrap()))
            .collect();
        let (ref_states, ref_outputs) = reference_program(&m, &states, &programs);
        let mut digests = Vec::new();
        for e in &mut nodes {
            let decoded = e.decode(&word).unwrap();
            assert_eq!(decoded.new_states, ref_states);
            assert_eq!(decoded.outputs, ref_outputs);
            digests.push(e.commit(&decoded).digest);
        }
        digests.dedup();
        assert_eq!(digests.len(), 1, "all nodes agree on the batched digest");
    }

    #[test]
    fn program_machine_chains_up_to_the_cap() {
        let m = Arc::new(
            CodedMachine::<Fp61>::with_program_cap(8, 2, auction_machine(), DecoderKind::Gao, 2)
                .unwrap(),
        );
        assert_eq!(m.aggregation(), csm_statemachine::Aggregation::Program);
        assert_eq!(m.max_program_len(), 2);
        // degree 2, cap 2: dim = 2²(K−1) + 1 = 5
        assert_eq!(m.code().dim(), 5);
        let states = vec![vec![f(3), f(4)], vec![f(5), f(6)]];
        let mut nodes: Vec<RoundEngine<Fp61>> = (0..8)
            .map(|i| RoundEngine::new(Arc::clone(&m), i, &states).unwrap())
            .collect();
        // ragged: shard 0 runs two bids, shard 1 one (padded with no-op)
        let programs = vec![
            vec![vec![f(1), f(2)], vec![f(3), f(1)]],
            vec![vec![f(2), f(5)]],
        ];
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute_batched(&programs).unwrap()))
            .collect();
        let decoded = nodes[0].decode(&word).unwrap();
        let (ref_states, ref_outputs) = reference_program(&m, &states, &programs);
        assert_eq!(decoded.new_states, ref_states);
        assert_eq!(decoded.outputs, ref_outputs);
        // over-cap programs are refused before execution
        let over = vec![
            vec![vec![f(1), f(1)], vec![f(1), f(1)], vec![f(1), f(1)]],
            vec![],
        ];
        assert!(matches!(
            nodes[0].execute_batched(&over),
            Err(CsmError::ShapeMismatch(_))
        ));
    }

    #[test]
    fn program_cap_sizes_the_code_dimension() {
        // auction is degree 2: on N = 8, K = 2 a cap of 3 needs dim 9 > N
        assert!(matches!(
            CodedMachine::<Fp61>::with_program_cap(8, 2, auction_machine(), DecoderKind::Gao, 3),
            Err(CsmError::TooManyMachines { .. })
        ));
        assert!(matches!(
            CodedMachine::<Fp61>::with_program_cap(8, 2, bank_machine(), DecoderKind::Gao, 0),
            Err(CsmError::InvalidConfig(_))
        ));
        // Fold machines (d = 1) keep dim = K — and their fingerprint — at
        // any cap, so durable stores survive a batch-cap change
        let a = CodedMachine::<Fp61>::with_program_cap(
            8,
            2,
            bank_machine(),
            DecoderKind::default(),
            32,
        )
        .unwrap();
        assert_eq!(a.code().dim(), 2);
        assert_eq!(a.fingerprint(), machine(8, 2).fingerprint());
        // Program machines do not: the dimension (fault budget) changed
        let p1 =
            CodedMachine::<Fp61>::new(8, 2, auction_machine(), DecoderKind::default()).unwrap();
        let p2 = CodedMachine::<Fp61>::with_program_cap(
            8,
            2,
            auction_machine(),
            DecoderKind::default(),
            2,
        )
        .unwrap();
        assert_ne!(p1.fingerprint(), p2.fingerprint());
        assert!(
            p1.max_tolerable_faults(SynchronyMode::Synchronous)
                > p2.max_tolerable_faults(SynchronyMode::Synchronous)
        );
    }

    #[test]
    fn sim_receiver_word_perturbs_equivocators_per_receiver() {
        let results = vec![Some(vec![f(9)]), Some(vec![f(1)]), Some(vec![f(2)])];
        let faults = [FaultSpec::Equivocate, FaultSpec::Honest, FaultSpec::Honest];
        let w1 = sim_receiver_word(&results, 1, &faults, SynchronyMode::Synchronous, 1, 0);
        let w2 = sim_receiver_word(&results, 2, &faults, SynchronyMode::Synchronous, 1, 0);
        assert_ne!(w1[0], w2[0], "equivocation differs per receiver");
        assert_eq!(w1[1], results[1]);
    }
}
