//! Reed–Solomon decoder ablation: Berlekamp–Massey (O(n²) on the syndromes,
//! the default) vs Gao (extended Euclid + fast interpolation) at the
//! worst-case error load `⌊(n−k)/2⌋`; on clean words against the
//! verify-first check that normally runs instead of either; and a clean CSM
//! result word decoded one-shot against the same word through a warmed
//! engine's decode plan.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use csm_algebra::{distinct_elements, Field, Fp61};
use csm_core::exchange::Word;
use csm_core::{CodedMachine, DecoderKind, RoundEngine};
use csm_reed_solomon::{BerlekampMassey, Decoder, Gao, RsCode};
use csm_statemachine::machines::bank_machine;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn make_word(n: usize, k: usize, errs: usize, seed: u64) -> (RsCode<Fp61>, Vec<Option<Fp61>>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let code = RsCode::new(distinct_elements::<Fp61>(0, n), k).unwrap();
    let msg: Vec<Fp61> = (0..k).map(|_| Fp61::from_u64(rng.gen())).collect();
    let cw = code.encode(&msg).unwrap();
    let mut word: Vec<Option<Fp61>> = cw.into_iter().map(Some).collect();
    for e in 0..errs {
        let idx = (e * 2) % n;
        word[idx] = Some(word[idx].unwrap() + Fp61::from_u64(rng.gen_range(1..9999)));
    }
    (code, word)
}

fn benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("rs_decode_full_radius");
    for n in [16usize, 32, 64, 128] {
        let k = n / 4;
        let errs = (n - k) / 2;
        let (code, word) = make_word(n, k, errs, 3);
        let ys: Vec<Fp61> = word.iter().flatten().copied().collect();
        group.bench_with_input(BenchmarkId::new("berlekamp_massey", n), &n, |b, _| {
            b.iter(|| BerlekampMassey.decode(code.points(), &ys, k).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("gao", n), &n, |b, _| {
            b.iter(|| Gao.decode(code.points(), &ys, k).unwrap())
        });
    }
    group.finish();

    // clean words: `decode_with` never reaches a decoder here (which is why
    // every decoder-vs-decoder row calls `Decoder::decode` itself)
    let mut clean = c.benchmark_group("rs_decode_clean");
    for n in [32usize, 128] {
        let k = n / 4;
        let (code, word) = make_word(n, k, 0, 5);
        let ys: Vec<Fp61> = word.iter().flatten().copied().collect();
        clean.bench_with_input(BenchmarkId::new("berlekamp_massey", n), &n, |b, _| {
            b.iter(|| BerlekampMassey.decode(code.points(), &ys, k).unwrap())
        });
        clean.bench_with_input(BenchmarkId::new("gao", n), &n, |b, _| {
            b.iter(|| Gao.decode(code.points(), &ys, k).unwrap())
        });
        clean.bench_with_input(BenchmarkId::new("verify_first", n), &n, |b, _| {
            b.iter(|| code.decode_with(&BerlekampMassey, &word).unwrap())
        });
    }
    clean.finish();

    // one honest round's word of the bank machine on K = N/4 shards:
    // one-shot, and through the plan an engine holds from its second
    // clean coordinate on
    let mut words = c.benchmark_group("decode_word_clean");
    for n in [16usize, 32, 64, 128] {
        let k = n / 4;
        let machine = Arc::new(
            CodedMachine::<Fp61>::new(n, k, bank_machine(), DecoderKind::default()).unwrap(),
        );
        let column = |seed: u64| -> Vec<Vec<Fp61>> {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            (0..k).map(|_| vec![Fp61::random(&mut rng)]).collect()
        };
        let (states, commands) = (column(7), column(8));
        let engine = |i| RoundEngine::new(Arc::clone(&machine), i, &states).unwrap();
        let word: Word<Fp61> = (0..n)
            .map(|i| Some(engine(i).execute(&commands).unwrap()))
            .collect();
        words.bench_with_input(BenchmarkId::new("decode_word", n), &n, |b, _| {
            b.iter(|| machine.decode_word(&word, &[]).unwrap())
        });
        let mut planned = engine(0);
        let reference = machine.decode_word(&word, &[]).unwrap();
        assert_eq!(planned.decode(&word).unwrap(), reference);
        words.bench_with_input(BenchmarkId::new("decode_word_planned", n), &n, |b, _| {
            b.iter(|| planned.decode(&word).unwrap())
        });
        assert_eq!(planned.decode(&word).unwrap(), reference);
    }
    words.finish();
}

criterion_group! {
    name = group;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(3)).warm_up_time(std::time::Duration::from_millis(500));
    targets = benches
}
criterion_main!(group);
