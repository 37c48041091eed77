//! The cost of ψ in exact field operations (`csm_algebra::count`), with no
//! timer anywhere: a clean word is *checked* in O(N·dim) per coordinate, a
//! word with errors pays for one decoder solve however many coordinates it
//! has, and that solve is O(N²). This is the CI guard behind the
//! `coded_clean` / `coded_byz` numbers of the repo benchmark, at that
//! benchmark's shape.

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

/// The bank machine on N = 32, K = 8 and one honest round's word.
fn machine_and_word() -> (Arc<CodedMachine<C>>, Word<C>) {
    let machine =
        Arc::new(CodedMachine::new(N, K, bank_machine(), DecoderKind::default()).unwrap());
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
