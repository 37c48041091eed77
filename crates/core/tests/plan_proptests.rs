//! A [`RoundEngine`] decodes through a plan it builds, keeps and drops as
//! words go by; [`CodedMachine::decode_word`] holds nothing. Over any
//! sequence of words — erasures and malformed results that come and go,
//! liars that stay, move, vanish, lie about one coordinate only or outnumber
//! the radius — the two must return the same [`csm_core::DecodedRound`] or
//! the same error, every round, over both fields.

use csm_algebra::{Field, Fp61, Gf2_16};
use csm_core::exchange::Word;
use csm_core::{CodedMachine, DecoderKind, RoundEngine};
use csm_statemachine::machines::{auction_machine, bank_machine};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// `count` distinct positions below `n`.
fn pick(rng: &mut StdRng, n: usize, count: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    all.shuffle(rng);
    all.truncate(count);
    all
}

/// With probability 1/2 last round's set, otherwise a fresh one (empty one
/// time in three).
fn evolve(rng: &mut StdRng, last: &mut Vec<usize>, n: usize, most: usize) {
    if rng.gen_bool(0.5) {
        return;
    }
    let count = rng.gen_range(0..=most) * usize::from(rng.gen_range(0..3) > 0);
    *last = pick(rng, n, count);
}

fn engine_equals_one_shot<F: Field>(n: usize, k: usize, wide: bool, rounds: usize, seed: u64) {
    let transition = if wide {
        auction_machine()
    } else {
        bank_machine()
    };
    let machine =
        Arc::new(CodedMachine::<F>::new(n, k, transition, DecoderKind::default()).unwrap());
    let (code, width) = (machine.code(), machine.result_dim());
    let states = vec![vec![F::ONE; machine.transition().state_dim()]; k];
    let mut engine = RoundEngine::new(Arc::clone(&machine), 0, &states).unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut missing, mut liars, mut hint) = (Vec::new(), Vec::new(), Vec::new());
    for round in 0..rounds {
        // one codeword per coordinate, transposed into per-node results
        let columns: Vec<Vec<F>> = (0..width)
            .map(|_| {
                let message: Vec<F> = (0..code.dim()).map(|_| F::random(&mut rng)).collect();
                code.encode(&message).unwrap()
            })
            .collect();
        let mut word: Word<F> = (0..n)
            .map(|i| Some(columns.iter().map(|column| column[i]).collect()))
            .collect();
        evolve(&mut rng, &mut missing, n, 2);
        // up to one liar more than what is left of the radius
        let beyond = usize::from(rng.gen_range(0..8) == 0);
        let radius = code.correctable_errors(missing.len());
        evolve(&mut rng, &mut liars, n, radius + beyond);
        let one_coordinate = rng.gen_bool(0.25).then(|| rng.gen_range(0..width));
        for &liar in &liars {
            for (j, x) in word[liar].iter_mut().flatten().enumerate() {
                if one_coordinate.is_none_or(|only| only == j) {
                    *x += F::from_u64(0xBAD + liar as u64);
                }
            }
        }
        for (m, &gone) in missing.iter().enumerate() {
            // withheld, or present with the wrong width
            word[gone] = (m % 2 == 0).then(|| vec![F::ONE; width + 1]);
        }
        let want = machine.decode_word(&word, &hint);
        let got = engine.decode(&word);
        assert_eq!(got, want, "round {round} of seed {seed}");
        if let Ok(decoded) = got {
            hint.clone_from(&decoded.detected_error_nodes);
            engine.commit(&decoded);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn engine_decode_equals_decode_word_fp61(
        n in 8usize..16, k in 2usize..4, wide in any::<bool>(),
        rounds in 4usize..14, seed in any::<u64>(),
    ) {
        engine_equals_one_shot::<Fp61>(n, k, wide, rounds, seed);
    }

    #[test]
    fn engine_decode_equals_decode_word_gf2m(
        n in 8usize..16, k in 2usize..4, wide in any::<bool>(),
        rounds in 4usize..14, seed in any::<u64>(),
    ) {
        engine_equals_one_shot::<Gf2_16>(n, k, wide, rounds, seed);
    }
}
