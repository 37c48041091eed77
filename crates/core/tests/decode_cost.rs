//! The cost of ψ in exact field operations (`csm_algebra::count`), with no
//! timer anywhere: a clean word is *checked* in O(N·dim) per coordinate
//! with no inversion, a word with errors pays for one decoder solve however
//! many coordinates it has, and that solve is O(N²); an engine that reads
//! the same symbols round after round builds one decode plan and from then
//! on pays two matrix–vector products per coordinate, and one whose liars
//! keep moving locates them once per word through the machine's error
//! plan, never rebuilding the dual weights, and inverts once. This is the
//! CI guard behind the `coded_clean` / `coded_byz` numbers of the repo
//! benchmark, at that benchmark's shape.

use csm_algebra::count::OpCounts;
use csm_algebra::{count, Counting, Field, Fp61, Poly};
use csm_core::exchange::Word;
use csm_core::{CodedMachine, DecoderKind, RoundEngine};
use csm_reed_solomon::Decoder;
use csm_statemachine::machines::bank_machine;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

type C = Counting<Fp61>;

const N: usize = 32;
const K: usize = 8;

fn c(v: u64) -> C {
    C::from_u64(v)
}

/// The bank machine on N = 32, K = 8.
fn bank() -> Arc<CodedMachine<C>> {
    Arc::new(CodedMachine::new(N, K, bank_machine(), DecoderKind::default()).unwrap())
}

/// [`bank`] and one honest round's word.
fn machine_and_word() -> (Arc<CodedMachine<C>>, Word<C>) {
    let machine = bank();
    // random balances and deposits, so the result polynomials have full
    // degree K − 1
    let mut rng = StdRng::seed_from_u64(16);
    let mut column = || -> Vec<Vec<C>> { (0..K).map(|_| vec![C::random(&mut rng)]).collect() };
    let (states, commands) = (column(), column());
    let word = (0..N)
        .map(|i| {
            let engine = RoundEngine::new(Arc::clone(&machine), i, &states).unwrap();
            Some(engine.execute(&commands).unwrap())
        })
        .collect();
    (machine, word)
}

/// What checking every coordinate of a word may cost when nothing has to be
/// solved: 4·N·dim·out_dim.
fn check_budget(machine: &CodedMachine<C>) -> u64 {
    (4 * N * machine.code().dim() * machine.result_dim()) as u64
}

#[test]
fn clean_word_is_checked_not_solved() {
    let (machine, word) = machine_and_word();
    let (decoded, ops) = count::measure(|| machine.decode_word(&word, &[]).unwrap());
    assert!(decoded.detected_error_nodes.is_empty());
    let budget = check_budget(&machine);
    assert!(
        ops.total() <= budget,
        "clean decode_word cost {ops} = {} field operations, budget 4·N·dim·out_dim = {budget}",
        ops.total()
    );
    // the guess's weights are products from the code's table
    assert_eq!(ops.invs, 0);
}

/// Ten rounds of the bank machine on fresh engines, round `r`'s results
/// corrupted at `liars(r)`: what node 0's `RoundEngine::decode` cost each
/// round, beside the cost of the plan-less `decode_word` under the same hint.
fn engine_rounds(liars: impl Fn(usize) -> Vec<usize>) -> Vec<(OpCounts, OpCounts)> {
    let machine = bank();
    let states: Vec<Vec<C>> = (0..K as u64).map(|m| vec![c(100 * m)]).collect();
    let mut engines: Vec<RoundEngine<C>> = (0..N)
        .map(|i| RoundEngine::new(Arc::clone(&machine), i, &states).unwrap())
        .collect();
    let mut rng = StdRng::seed_from_u64(18);
    let mut hint = Vec::new();
    (0..10)
        .map(|round| {
            let commands: Vec<Vec<C>> = (0..K).map(|_| vec![C::random(&mut rng)]).collect();
            let mut word: Word<C> = engines
                .iter()
                .map(|e| Some(e.execute(&commands).unwrap()))
                .collect();
            let mut liars = liars(round);
            liars.sort_unstable();
            for &liar in &liars {
                for x in word[liar].as_mut().unwrap() {
                    *x += c(0xBAD + liar as u64);
                }
            }
            let (want, one_shot) = count::measure(|| machine.decode_word(&word, &hint).unwrap());
            let (got, ops) = count::measure(|| engines[0].decode(&word).unwrap());
            assert_eq!(got, want, "round {round}");
            assert_eq!(got.detected_error_nodes, liars, "round {round}");
            for engine in &mut engines {
                engine.commit(&got);
            }
            hint = liars;
            (ops, one_shot)
        })
        .collect()
}

/// What a coordinate decoded through a plan may cost: a dot product of
/// length dim per code position and per shard, 2·(N + K)·dim·out_dim a word
/// (the read positions are skipped, so it is really 2·(N − dim + K)·…).
fn assert_planned(machine: &CodedMachine<C>, round: usize, ops: OpCounts) {
    let budget = (2 * (N + K) * machine.code().dim() * machine.result_dim()) as u64;
    assert!(
        ops.total() <= budget && ops.invs == 0,
        "round {round}: a planned decode cost {ops}, budget 2·(N+K)·dim·out_dim = {budget} \
         and no inversion"
    );
}

#[test]
fn clean_rounds_build_one_plan_and_then_cost_two_products() {
    let machine = bank();
    let rounds = engine_rounds(|_| Vec::new());
    // round 1: two guesses verified the slow way (one basis between them),
    // the second of which pays for the plan; neither inverts
    assert_eq!(rounds[0].0.invs, 0, "round 1 cost {}", rounds[0].0);
    for (round, &(ops, _)) in rounds.iter().enumerate().skip(1) {
        assert_planned(&machine, round + 1, ops);
    }
}

#[test]
fn moving_liars_never_pay_for_a_plan() {
    // 8 liars on every fourth node, shifted by one each round: each round's
    // first guess reads a new liar, and the one guess that verifies reads
    // what no earlier one did
    let rounds = engine_rounds(|round| (0..8).map(|j| round % 4 + 4 * j).collect());
    for (round, (ops, one_shot)) in rounds.iter().enumerate() {
        assert_eq!(ops, one_shot, "round {}", round + 1);
    }
}

/// What a word with errors may cost once the dual weights and parity checks
/// are tabulated: 5·N² field operations. Rebuilding the weights alone costs
/// N(N−1) products and as many differences.
fn locate_budget() -> u64 {
    (5 * N * N) as u64
}

fn assert_no_weights_rebuilt(what: &str, ops: OpCounts, invs: u64) {
    let (budget, weights) = (locate_budget(), (2 * N * (N - 1)) as u64);
    assert!(
        ops.total() <= budget && ops.invs <= invs,
        "{what} cost {ops} = {} field operations, budget 5·N² = {budget} and {invs} inversions",
        ops.total()
    );
    assert!(
        ops.total() + weights > budget,
        "the budget no longer notices rebuilt weights"
    );
}

#[test]
fn moving_liars_are_located_through_the_machines_error_plan() {
    // one coordinate word: a refuted guess, the error plan's locator, and a
    // guess around the liars it found, none of which inverts
    let (machine, mut word) = machine_and_word();
    for liar in (0..8).map(|j| 3 + 4 * j) {
        for x in word[liar].as_mut().unwrap() {
            *x += c(0xBAD + liar as u64);
        }
    }
    for coordinate in 0..machine.result_dim() {
        let symbols: Vec<Option<C>> = word
            .iter()
            .map(|g| g.as_ref().map(|g| g[coordinate]))
            .collect();
        let (decoded, ops) = count::measure(|| machine.decode_coordinate(&symbols).unwrap());
        assert_eq!(decoded.error_positions().len(), 8);
        assert_no_weights_rebuilt(&format!("coordinate {coordinate}"), ops, 0);
    }
    // a whole result word under liars that move every round: the first
    // coordinate's solve inverts once for the error values among the
    // symbols the reference plan reads, and the next coordinate is decoded
    // through what it located, with no guess and no inversion
    let rounds = engine_rounds(|round| (0..8).map(|j| round % 4 + 4 * j).collect());
    for (round, &(ops, _)) in rounds.iter().enumerate() {
        assert_no_weights_rebuilt(&format!("round {}", round + 1), ops, 1);
    }
}

#[test]
fn persistent_liars_are_planned_around_by_round_three() {
    let machine = bank();
    let rounds = engine_rounds(|_| (0..8).map(|j| 1 + 4 * j).collect());
    // round 1 locates them (one solve), round 2's first guess avoids them
    // and is the second to read those symbols
    for (round, &(ops, _)) in rounds.iter().enumerate().skip(2) {
        assert_planned(&machine, round + 1, ops);
    }
}

#[test]
fn errors_cost_at_most_one_solve_per_word() {
    let (machine, mut word) = machine_and_word();
    let liars: Vec<usize> = (0..8).map(|j| 1 + 4 * j).collect();
    for &liar in &liars {
        for x in word[liar].as_mut().unwrap() {
            *x += c(0xBAD + liar as u64);
        }
    }
    let (decoded, unhinted) = count::measure(|| machine.decode_word(&word, &[]).unwrap());
    assert_eq!(decoded.detected_error_nodes, liars);
    // one failed guess, one syndrome solve, then every coordinate checked
    // against the positions that solve found
    let budget = (16 * N * (N - machine.code().dim())) as u64;
    assert!(
        unhinted.total() <= budget,
        "decode_word with 8 errors cost {unhinted} = {} field operations, budget 16·N·(N−dim) = {budget}",
        unhinted.total()
    );

    // and once the liars are known (the next round's hint) none at all
    let (again, known) = count::measure(|| machine.decode_word(&word, &liars).unwrap());
    assert_eq!(again, decoded);
    assert!(known.total() <= check_budget(&machine));
}

/// Field operations of one raw solve by the default decoder, on a word of
/// the (n, k) bank machine's code carrying every error it can correct.
fn full_radius_solve(n: usize, k: usize) -> u64 {
    let machine = CodedMachine::<C>::new(n, k, bank_machine(), DecoderKind::default()).unwrap();
    let code = machine.code();
    let mut rng = StdRng::seed_from_u64(17);
    let message: Vec<C> = (0..code.dim()).map(|_| C::random(&mut rng)).collect();
    let mut ys = code.encode(&message).unwrap();
    let radius = code.correctable_errors(0);
    for y in ys.iter_mut().skip(1).step_by(2).take(radius) {
        *y += c(0xBAD);
    }
    let (poly, ops) = count::measure(|| {
        machine
            .decoder()
            .decode(code.points(), &ys, code.dim())
            .unwrap()
    });
    assert_eq!(poly, Poly::new(message));
    ops.total()
}

#[test]
fn a_solve_is_quadratic_in_the_cluster_size() {
    let small = full_radius_solve(N, K);
    assert!(
        small <= (8 * N * N) as u64,
        "one solve at N = {N} cost {small} field operations, budget 8·N² = {}",
        8 * N * N
    );
    // twice the nodes, machines and errors: 4× for a quadratic decoder, 8×
    // for a cubic one
    let large = full_radius_solve(2 * N, 2 * K);
    assert!(
        large <= 5 * small,
        "a solve at N = {} cost {large} field operations, {small} at N = {N}",
        2 * N
    );
}
