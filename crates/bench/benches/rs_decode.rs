//! Reed–Solomon decoder ablation: Berlekamp–Massey (O(n²) on the syndromes,
//! the default) vs Gao (extended Euclid + fast interpolation) at the
//! worst-case error load `⌊(n−k)/2⌋`, and at N = 32 the same solve through
//! an error plan (tables built once, as a coded machine holds them, the
//! decoding wanted at `k` points); on clean words against the
//! verify-first check that normally runs instead of either; at N = 32 the
//! error path's pieces: a guess refuted by a liar among the symbols it
//! reads, and a whole CSM result word whose liars moved (one refuted guess,
//! one solve through the machine's error plan, and the next coordinate
//! decoded through what that solve located); and a clean CSM result word
//! decoded one-shot against the same word through a warmed engine's decode
//! plan.

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
        if n == 32 {
            let every: Vec<usize> = (0..n).collect();
            let targets: Vec<Fp61> = distinct_elements(n as u64, k);
            let plan = code.error_plan(&every, &targets).unwrap();
            let poly = BerlekampMassey.decode(code.points(), &ys, k).unwrap();
            assert_eq!(plan.decode(&ys).unwrap().1, poly.eval_many(&targets));
            group.bench_with_input(BenchmarkId::new("error_plan", n), &n, |b, _| {
                b.iter(|| plan.decode(&ys).unwrap())
            });
        }
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

    // the error path at N = 32, K = 8, with 8 liars: the guess every
    // moving-liar word starts with (refuted by the liars among the first
    // dim symbols), and a bank-machine word decoded as an engine whose
    // hint is stale decodes it
    let mut errors = c.benchmark_group("error_path");
    let (n, k) = (32usize, 8usize);
    let (code, word) = make_word(n, k, k, 9);
    assert!(code.guess(|i| word[i], &[], &mut None).unwrap().is_none());
    errors.bench_with_input(BenchmarkId::new("refuted_guess", n), &n, |b, _| {
        b.iter(|| code.guess(|i| word[i], &[], &mut None).unwrap())
    });
    let machine =
        Arc::new(CodedMachine::<Fp61>::new(n, k, bank_machine(), DecoderKind::default()).unwrap());
    let mut rng = rand::rngs::StdRng::seed_from_u64(10);
    let mut column =
        || -> Vec<Vec<Fp61>> { (0..k).map(|_| vec![Fp61::random(&mut rng)]).collect() };
    let (states, commands) = (column(), column());
    let liars: Vec<usize> = (0..k).map(|j| 1 + 4 * j).collect();
    let word: Word<Fp61> = (0..n)
        .map(|i| {
            let engine = RoundEngine::new(Arc::clone(&machine), i, &states).unwrap();
            let mut g = engine.execute(&commands).unwrap();
            if liars.contains(&i) {
                g.iter_mut().for_each(|x| *x += Fp61::from_u64(0xBAD));
            }
            Some(g)
        })
        .collect();
    let decoded = machine.decode_word(&word, &[]).unwrap();
    assert_eq!(decoded.detected_error_nodes, liars);
    errors.bench_with_input(
        BenchmarkId::new("decode_word_moving_liars", n),
        &n,
        |b, _| b.iter(|| machine.decode_word(&word, &[]).unwrap()),
    );
    errors.finish();

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
