//! Property tests for the aggregated batching path: one coded round over
//! per-shard command *programs* ([`RoundEngine::execute_batched`]) must
//! be observationally identical to applying the same commands
//! sequentially — both against a plaintext reference chain and against
//! the coded engine run one command per round. "Identical" means the
//! decoded next states, the decoded outputs, and the commit digest all
//! agree, for random machines (linear fold-aggregated and nonlinear
//! program-aggregated), random ragged batches, and random initial
//! states.

use csm_algebra::{Field, Fp61};
use csm_core::exchange::Word;
use csm_core::{CodedMachine, DecoderKind, RoundEngine};
use csm_statemachine::machines::{auction_machine, bank_machine, interest_machine, power_machine};
use proptest::prelude::*;
use std::sync::Arc;

const N: usize = 8;
const K: usize = 2;
/// Program cap for the nonlinear machines: degree 2 on N = 8, K = 2
/// supports `2²(K−1) + 1 = 5 ≤ 8` evaluation points.
const PROGRAM_CAP: usize = 2;

fn f(v: u64) -> Fp61 {
    Fp61::from_u64(v)
}

/// The machine zoo, spanning both aggregation classes: bank is
/// fold-aggregated (linear, unbounded batches), the rest chain through
/// the transition polynomial under the program cap.
#[derive(Clone, Copy, Debug)]
enum MachineKind {
    Bank,
    Power1,
    Interest,
    Auction,
}

impl MachineKind {
    fn build(self) -> Arc<CodedMachine<Fp61>> {
        let t = match self {
            MachineKind::Bank => bank_machine(),
            MachineKind::Power1 => power_machine(1),
            MachineKind::Interest => interest_machine(),
            MachineKind::Auction => auction_machine(),
        };
        Arc::new(CodedMachine::with_program_cap(N, K, t, DecoderKind::Gao, PROGRAM_CAP).unwrap())
    }
}

fn machine_kind() -> impl Strategy<Value = MachineKind> {
    prop_oneof![
        Just(MachineKind::Bank),
        Just(MachineKind::Power1),
        Just(MachineKind::Interest),
        Just(MachineKind::Auction),
    ]
}

/// Plaintext sequential reference: apply each shard's program in row
/// order, padding ragged shards with the zero no-op command step by
/// step, exactly as the coded path defines the round. Returns the final
/// states and the final step's outputs.
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

fn engines(m: &Arc<CodedMachine<Fp61>>, states: &[Vec<Fp61>]) -> Vec<RoundEngine<Fp61>> {
    (0..m.n())
        .map(|i| RoundEngine::new(Arc::clone(m), i, states).unwrap())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The tentpole equivalence: for a random machine, random initial
    /// states, and random ragged per-shard programs, one aggregated
    /// coded round decodes to exactly the states, outputs, and digest
    /// of (a) the plaintext sequential reference and (b) the coded
    /// engine executing the same commands one round per step — at every
    /// node, with all nodes agreeing.
    #[test]
    fn aggregated_round_matches_sequential_application(
        kind in machine_kind(),
        raw in prop::collection::vec(0u64..(1u64 << 60), 12..32),
        lens in prop::collection::vec(0usize..=6, K),
    ) {
        let m = kind.build();
        let t = m.transition();
        let mut vals = raw.iter().cycle();
        let mut next = || f(*vals.next().unwrap());
        let states: Vec<Vec<Fp61>> = (0..K)
            .map(|_| (0..t.state_dim()).map(|_| next()).collect())
            .collect();
        let cap = m.max_program_len().min(6);
        let programs: Vec<Vec<Vec<Fp61>>> = lens
            .iter()
            .map(|&len| {
                (0..len.min(cap))
                    .map(|_| (0..t.input_dim()).map(|_| next()).collect())
                    .collect()
            })
            .collect();

        // the aggregated path: one coded round over the whole program
        let mut agg_nodes = engines(&m, &states);
        let agg_word: Word<Fp61> = agg_nodes
            .iter()
            .map(|e| Some(e.execute_batched(&programs).unwrap()))
            .collect();
        let (ref_states, ref_outputs) = reference_program(&m, &states, &programs);
        let mut agg_digests = Vec::new();
        for e in &mut agg_nodes {
            let decoded = e.decode(&agg_word).unwrap();
            prop_assert_eq!(&decoded.new_states, &ref_states);
            prop_assert_eq!(&decoded.outputs, &ref_outputs);
            prop_assert!(decoded.detected_error_nodes.is_empty());
            agg_digests.push(e.commit(&decoded).digest);
        }
        agg_digests.dedup();
        prop_assert_eq!(agg_digests.len(), 1, "nodes split on the aggregated digest");

        // the sequential coded path: the same commands, one round each,
        // ragged shards padded with the zero no-op
        let mut seq_nodes = engines(&m, &states);
        let steps = programs.iter().map(Vec::len).max().unwrap_or(0).max(1);
        let mut last_digest = 0u64;
        let mut last_states = Vec::new();
        for step in 0..steps {
            let commands: Vec<Vec<Fp61>> = (0..K)
                .map(|k| {
                    programs[k]
                        .get(step)
                        .cloned()
                        .unwrap_or_else(|| vec![f(0); t.input_dim()])
                })
                .collect();
            let word: Word<Fp61> = seq_nodes
                .iter()
                .map(|e| Some(e.execute(&commands).unwrap()))
                .collect();
            let decoded = seq_nodes[0].decode(&word).unwrap();
            last_states = decoded.new_states.clone();
            for e in &mut seq_nodes {
                last_digest = e.commit_word(&word).unwrap().digest;
            }
        }
        prop_assert_eq!(&last_states, &ref_states, "sequential states diverge");
        prop_assert_eq!(
            last_digest, agg_digests[0],
            "aggregated digest differs from the final sequential round"
        );
    }

    /// Fold-aggregated machines accept arbitrarily long programs — the
    /// batch folds in-field, so the code dimension never grows — and
    /// still match the reference chain.
    #[test]
    fn fold_machines_take_unbounded_programs(
        deposits in prop::collection::vec(0u64..(1u64 << 60), 0..40),
        start in 0u64..(1u64 << 60),
    ) {
        let m = Arc::new(
            CodedMachine::<Fp61>::new(N, K, bank_machine(), DecoderKind::Gao).unwrap(),
        );
        prop_assert_eq!(m.max_program_len(), usize::MAX);
        let states = vec![vec![f(start)], vec![f(0)]];
        let programs = vec![
            deposits.iter().map(|&d| vec![f(d)]).collect::<Vec<_>>(),
            Vec::new(),
        ];
        let mut nodes = engines(&m, &states);
        let word: Word<Fp61> = nodes
            .iter()
            .map(|e| Some(e.execute_batched(&programs).unwrap()))
            .collect();
        let (ref_states, ref_outputs) = reference_program(&m, &states, &programs);
        let decoded = nodes[0].decode(&word).unwrap();
        prop_assert_eq!(&decoded.new_states, &ref_states);
        prop_assert_eq!(&decoded.outputs, &ref_outputs);
    }
}
