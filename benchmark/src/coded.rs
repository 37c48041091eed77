//! `coded_clean` / `coded_byz`: the sans-I/O coded round at scale.
//!
//! N = 32 nodes, K = 8 bank shards over Fp61, 4 commands per shard per
//! round through `execute_batched`; every node executes, decodes the full
//! word and commits. One thread, no transport, storage or node loop:
//! `algebra`, `reed-solomon` and `core` do all the work. `coded_byz`
//! corrupts the results of b = 8 nodes (a seeded, rotating set) every
//! round, so the decoder's error-locating path runs at full load.

use crate::block::Block;
use crate::spans::Tracer;
use crate::stats::{process_cpu_ns, Rng};
use csm_algebra::{Field, Fp61};
use csm_core::replication::FullReplicationCluster;
use csm_core::{digest_results, DecoderKind};
use csm_node::{CodedMachine, RoundEngine};
use csm_statemachine::machines::bank_machine;
use std::sync::Arc;
use std::time::Instant;

/// Shape of the coded workloads. N, K and b are workload parameters; the
/// decoder is the program's default.
#[derive(Debug, Clone)]
pub struct Params {
    pub nodes: usize,
    pub shards: usize,
    /// Nodes whose results are corrupted each round (0 or b).
    pub corrupt: usize,
    pub cmds_per_shard: usize,
    pub rounds: usize,
}

impl Params {
    pub fn new(corrupt: usize, rounds: usize) -> Self {
        Params {
            nodes: 32,
            shards: 8,
            corrupt,
            cmds_per_shard: 4,
            rounds,
        }
    }

    pub fn cmds_per_round(&self) -> usize {
        self.shards * self.cmds_per_shard
    }
}

fn initial_states(p: &Params) -> Vec<Vec<Fp61>> {
    (0..p.shards as u64)
        .map(|s| vec![Fp61::from_u64(100 * (s + 1))])
        .collect()
}

/// Builds the coded machine and every node's engine — what `setup_s`
/// times on these workloads.
pub fn build(p: &Params) -> Vec<RoundEngine<Fp61>> {
    let machine = Arc::new(
        CodedMachine::new(p.nodes, p.shards, bank_machine(), DecoderKind::default())
            .expect("workload shape fits Theorem 1"),
    );
    let states = initial_states(p);
    (0..p.nodes)
        .map(|i| RoundEngine::new(Arc::clone(&machine), i, &states).expect("states fit"))
        .collect()
}

/// One round's generated inputs and its uncoded reference.
struct RoundPlan {
    programs: Vec<Vec<Vec<Fp61>>>,
    /// Per-shard flat `(S′, Y)` after applying the shard's commands in
    /// order with `apply_flat`.
    expected: Vec<Vec<Fp61>>,
    expected_digest: u64,
    /// Sorted ids of the nodes whose results are corrupted this round.
    corrupted: Vec<usize>,
}

fn plan(p: &Params, seed: u64) -> Vec<RoundPlan> {
    let transition = bank_machine::<Fp61>();
    let mut rng = Rng(seed ^ 0xC0DE_D000);
    let mut states = initial_states(p);
    (0..p.rounds)
        .map(|_| {
            let programs: Vec<Vec<Vec<Fp61>>> = (0..p.shards)
                .map(|_| {
                    (0..p.cmds_per_shard)
                        .map(|_| vec![Fp61::from_u64(1 + rng.below(1000))])
                        .collect()
                })
                .collect();
            let expected: Vec<Vec<Fp61>> = programs
                .iter()
                .zip(states.iter_mut())
                .map(|(program, state)| {
                    let mut flat = Vec::new();
                    for cmd in program {
                        flat = transition.apply_flat(state, cmd).expect("bank arity");
                        *state = flat[..state.len()].to_vec();
                    }
                    flat
                })
                .collect();
            let first = rng.below(p.nodes as u64) as usize;
            let stride = 1 + 2 * rng.below(p.nodes as u64 / 2) as usize; // odd: coprime to 32
            let mut corrupted: Vec<usize> = (0..p.corrupt)
                .map(|j| (first + j * stride) % p.nodes)
                .collect();
            corrupted.sort_unstable();
            RoundPlan {
                expected_digest: digest_results(&expected),
                programs,
                expected,
                corrupted,
            }
        })
        .collect()
}

/// Runs one block: `p.rounds` full rounds from fresh engines. Every
/// round's decoded `(S′, Y)` is compared with the uncoded reference at
/// every node (by commit digest, and value by value at node 0), and the
/// detected error nodes with the corrupted set.
pub fn run_block(p: &Params, seed: u64, tracer: &mut Tracer) -> Block {
    let rounds = plan(p, seed);
    let mut engines = build(p);
    let mut block = Block {
        attempted: (p.rounds * p.cmds_per_round()) as u64,
        ..Block::default()
    };
    let mut fingerprint = 0u64;
    let mut detected = 0u64;
    let mut first_bad_round = None;
    let started = Instant::now();
    let cpu_started = process_cpu_ns();
    for (r, round) in rounds.iter().enumerate() {
        let id = r as u64;
        let span = tracer.begin("round", id, None);
        let mut word: Vec<Option<Vec<Fp61>>> = Vec::with_capacity(p.nodes);
        for engine in &engines {
            let s = tracer.begin("core.execute_batched", id, Some(span));
            let g = engine.execute_batched(&round.programs);
            tracer.end(s);
            word.push(Some(g.expect("generated programs are well-formed")));
        }
        for &node in &round.corrupted {
            for x in word[node].iter_mut().flatten() {
                *x += Fp61::from_u64(0xBAD + node as u64);
            }
        }
        let mut round_ok = true;
        for (i, engine) in engines.iter_mut().enumerate() {
            let s = tracer.begin("core.decode_word", id, Some(span));
            let decoded = engine.decode(&word);
            tracer.end(s);
            let Ok(decoded) = decoded else {
                round_ok = false;
                continue;
            };
            let s = tracer.begin("core.commit", id, Some(span));
            let commit = engine.commit(&decoded);
            tracer.end(s);
            detected += commit.detected_error_nodes.len() as u64;
            round_ok &= commit.digest == round.expected_digest
                && commit.detected_error_nodes == round.corrupted
                && (i != 0 || commit.results == round.expected);
        }
        tracer.end(span);
        fingerprint = csm_core::digest::splitmix64(fingerprint ^ round.expected_digest);
        if !round_ok {
            first_bad_round.get_or_insert(r);
        }
    }
    block.cpu_s = (process_cpu_ns() - cpu_started) as f64 / 1e9;
    block.wall_s = started.elapsed().as_secs_f64();
    // no client waits here and every round does the same work, so a block
    // is one sample: its wall time per round of 32 commands
    block.latencies_ms = vec![block.wall_s * 1e3 / p.rounds as f64];
    block.fingerprint = Some(fingerprint ^ detected);
    if let Some(r) = first_bad_round {
        block.fail(format!("round {r}: decoded (S', Y) or error set is wrong"));
    }
    if tracer.is_on() {
        trace_metrics(p, &rounds, &mut block, tracer, detected);
    }
    block
}

/// The `core.*` rows of a traced block, from the spans just recorded plus
/// timed direct calls for what `execute_batched` and `commit` hide.
fn trace_metrics(
    p: &Params,
    rounds: &[RoundPlan],
    block: &mut Block,
    tracer: &Tracer,
    detected: u64,
) {
    let selfs = tracer.self_times_ns();
    let counts = tracer.counts();
    let total_ns = tracer.root_ns() as f64;
    let mean_us = |name: &str| {
        selfs.get(name).copied().unwrap_or(0) as f64
            / counts.get(name).copied().unwrap_or(1) as f64
            / 1e3
    };
    let decodes = counts.get("core.decode_word").copied().unwrap_or(0) as f64;
    let layer_ns: u64 = ["core.execute_batched", "core.decode_word", "core.commit"]
        .iter()
        .map(|n| selfs.get(n).copied().unwrap_or(0))
        .sum();
    let l = &mut block.layer;
    l.insert("core.execute_batched_us", mean_us("core.execute_batched"));
    l.insert("core.decode_word_us", mean_us("core.decode_word"));
    l.insert("core.commit_us", mean_us("core.commit"));
    l.insert(
        "core.decode_share",
        selfs.get("core.decode_word").copied().unwrap_or(0) as f64 / total_ns,
    );
    l.insert("core.decodes_per_cmd", decodes / block.attempted as f64);
    l.insert(
        "core.detected_errors_per_round",
        detected as f64 / decodes.max(1.0),
    );
    // the spans the bench wraps, over the block's wall clock
    l.insert(
        "ledger.coverage_pct",
        100.0 * layer_ns as f64 / (block.wall_s * 1e9),
    );

    // what the wrapped calls hide, timed directly at the same shapes
    let engines = build(p);
    let folded: Vec<Vec<Fp61>> = rounds[0]
        .programs
        .iter()
        .map(|prog| vec![prog.iter().fold(Fp61::ZERO, |a, c| a + c[0])])
        .collect();
    l.insert(
        "core.encode_commands_us",
        crate::layers::time_ns(2_000, || engines[5].encode_commands(&folded)) / 1e3,
    );
    l.insert(
        "core.digest_ns",
        crate::layers::time_ns(20_000, || digest_results(&rounds[0].expected)),
    );

    // the paper's comparison: the same commands through full replication
    let mut replicas = FullReplicationCluster::new(
        p.nodes,
        bank_machine::<Fp61>(),
        initial_states(p),
        Vec::new(),
        p.corrupt,
        0,
    )
    .expect("replication shape");
    let cpu0 = process_cpu_ns();
    let mut correct = true;
    for round in rounds {
        for step in 0..p.cmds_per_shard {
            let commands: Vec<Vec<Fp61>> = round
                .programs
                .iter()
                .map(|prog| prog[step].clone())
                .collect();
            correct &= replicas.step(&commands).expect("shapes").correct;
        }
    }
    let replication_us = (process_cpu_ns() - cpu0) as f64 / 1e3 / block.attempted as f64;
    assert!(
        correct,
        "replication baseline disagreed with its own reference"
    );
    l.insert("core.replication_us_per_cmd", replication_us);
    l.insert(
        "core.coded_over_replication",
        block.cpu_s * 1e6 / block.attempted as f64 / replication_us,
    );
}
