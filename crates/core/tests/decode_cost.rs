//! The cost of ψ in exact field operations (`csm_algebra::count`), with no
//! timer anywhere: a clean word is *checked* in O(N·dim) per coordinate, and
//! a word with errors pays for at most one full decoder solve however many
//! coordinates it has. This is the CI guard behind the `coded_clean` /
//! `coded_byz` numbers of the repo benchmark, at that benchmark's shape.

use csm_algebra::{count, Counting, Field, Fp61};
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

#[test]
fn clean_word_is_checked_not_solved() {
    let (machine, word) = machine_and_word();
    let (decoded, ops) = count::measure(|| machine.decode_word(&word, &[]).unwrap());
    assert!(decoded.detected_error_nodes.is_empty());
    let budget = (4 * N * machine.code().dim() * machine.result_dim()) as u64;
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
    let (decoded, hinted) = count::measure(|| machine.decode_word(&word, &[]).unwrap());
    assert_eq!(decoded.detected_error_nodes, liars);

    // what it used to cost: the configured decoder run on every coordinate
    let xs = machine.code().points();
    let ((), solves) = count::measure(|| {
        for j in 0..machine.result_dim() {
            let ys: Vec<C> = word.iter().map(|g| g.as_ref().unwrap()[j]).collect();
            machine
                .decoder()
                .decode(xs, &ys, machine.code().dim())
                .unwrap();
        }
    });
    assert!(
        hinted.total() * 10 <= solves.total() * 6,
        "decode_word with 8 errors cost {} operations, two raw solves {}",
        hinted.total(),
        solves.total()
    );

    // and once the liars are known (the next round's hint) none at all
    let (again, known) = count::measure(|| machine.decode_word(&word, &liars).unwrap());
    assert_eq!(again, decoded);
    assert!(known.total() * 10 <= solves.total());
}
