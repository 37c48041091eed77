//! `RsCode::guess` checks its candidate barycentrically, through the code's
//! table of inverted differences, and stops early: it must still be the
//! guess written out plainly — `Poly::interpolate` through the first `dim`
//! present symbols outside the hint, then every mismatch counted against
//! the radius — with the same `Some`/`None` and the same `Decoded`, over
//! prime and binary fields, at the radius and one beyond it, with an error
//! at the point 0, with erasures after the last error, and through a basis
//! shared between words.

use csm_algebra::{distinct_elements, Field, Fp61, Gf2_16, Poly};
use csm_reed_solomon::{GuessBasis, RsCode, RsError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Where a word's errors and erasures sit.
#[derive(Debug, Clone, Copy)]
enum Shape {
    /// Any number of errors up to the radius, anywhere.
    Within,
    /// Exactly as many errors as the radius corrects.
    AtRadius,
    /// One error more than the radius corrects.
    Beyond,
    /// Up to the radius, one of them at the point 0.
    AtZero,
    /// Up to the radius among the lowest positions, every erasure above
    /// the last of them.
    ErasuresLast,
}

/// What the guess is told to skip.
#[derive(Debug, Clone, Copy)]
enum Hint {
    None,
    /// The word's error positions.
    Exact,
    /// The error positions moved one place on, as after a round in which
    /// the liars moved.
    Stale,
    /// Arbitrary positions, some of them out of range.
    Noise,
}

/// The guess written out plainly: the interpolant through the read set and
/// its mismatches, if there are at most as many as the radius allows.
fn reference<F: Field>(
    code: &RsCode<F>,
    word: &[Option<F>],
    hint: &[usize],
) -> Option<(Poly<F>, Vec<usize>)> {
    let n = code.len();
    let read: Vec<usize> = (0..n)
        .filter(|i| !hint.contains(i) && word[*i].is_some())
        .take(code.dim())
        .collect();
    if read.len() < code.dim() {
        return None;
    }
    let xs: Vec<F> = read.iter().map(|&i| code.points()[i]).collect();
    let ys: Vec<F> = read.iter().map(|&i| word[i].unwrap()).collect();
    let poly = Poly::interpolate(&xs, &ys);
    let errors: Vec<usize> = (0..n)
        .filter(|&i| word[i].is_some_and(|y| y != poly.eval(code.points()[i])))
        .collect();
    let erasures = word.iter().filter(|w| w.is_none()).count();
    (errors.len() <= code.correctable_errors(erasures)).then_some((poly, errors))
}

fn assert_guess_is_reference<F: Field>(
    code: &RsCode<F>,
    word: &[Option<F>],
    hint: &[usize],
    basis: &mut Option<GuessBasis<F>>,
    context: &str,
) {
    let got = code
        .guess(|i| word[i], hint, basis)
        .expect("dim symbols present");
    match (got, reference(code, word, hint)) {
        (Some(d), Some((poly, errors))) => {
            assert_eq!(d.poly(), &poly, "{context}");
            assert_eq!(d.error_positions(), &errors[..], "{context}");
            assert_eq!(
                d.codeword(),
                &poly.eval_many(code.points())[..],
                "{context}"
            );
            let mut message = poly.coeffs().to_vec();
            message.resize(code.dim(), F::ZERO);
            assert_eq!(d.message(), &message[..], "{context}");
        }
        (None, None) => {}
        (got, want) => panic!("guess {got:?}, reference {want:?}, {context}"),
    }
}

/// A received word of `code` shaped by `shape`, its error positions, and a
/// second word with the same errors and erasures under another message (the
/// next coordinate of a CSM result word).
fn words<F: Field>(
    code: &RsCode<F>,
    shape: Shape,
    rng: &mut StdRng,
) -> (Vec<Option<F>>, Vec<Option<F>>, Vec<usize>) {
    let (n, dim) = (code.len(), code.dim());
    let r = rng.gen_range(0..=n - dim);
    let radius = (n - r - dim) / 2;
    let wrong = match shape {
        Shape::Within | Shape::ErasuresLast => rng.gen_range(0..=radius),
        Shape::AtRadius => radius,
        Shape::Beyond => (radius + 1).min(n - r),
        Shape::AtZero => rng.gen_range(0..=radius).max(1).min(n - r),
    };
    let mut order: Vec<usize> = (0..n).collect();
    match shape {
        // errors first in position order, erasures at the top
        Shape::ErasuresLast => order.reverse(),
        _ => order.shuffle(rng),
    }
    let erased: Vec<usize> = order[..r].to_vec();
    let mut errors: Vec<usize> = match shape {
        Shape::ErasuresLast => (0..wrong).collect(),
        _ => order[r..r + wrong].to_vec(),
    };
    if matches!(shape, Shape::AtZero) && !errors.contains(&0) {
        // position 0 is the point 0: move it from wherever it was
        if let Some(e) = errors.iter_mut().next() {
            *e = 0;
        }
    }
    let mut erased: Vec<usize> = erased.into_iter().filter(|i| !errors.contains(i)).collect();
    erased.truncate(r);
    errors.sort_unstable();
    let mut word = || {
        let message: Vec<F> = (0..dim).map(|_| F::random(&mut *rng)).collect();
        let codeword = code.encode(&message).unwrap();
        let mut word: Vec<Option<F>> = codeword.into_iter().map(Some).collect();
        for &i in &erased {
            word[i] = None;
        }
        for &i in &errors {
            word[i] = word[i].map(|y| y + F::random_nonzero(&mut *rng));
        }
        word
    };
    let (first, second) = (word(), word());
    (first, second, errors)
}

fn guess_equals_reference<F: Field>(n: usize, shape: Shape, hint: Hint, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // distinct_elements starts at 0, so position 0 is the point 0
    let points: Vec<F> = distinct_elements(0, n);
    assert!(points[0].is_zero());
    for dim in 1..=n {
        let code = RsCode::new(points.clone(), dim).unwrap();
        let (word, sibling, errors) = words(&code, shape, &mut rng);
        let hint: Vec<usize> = match hint {
            Hint::None => Vec::new(),
            Hint::Exact => errors.clone(),
            Hint::Stale => errors.iter().map(|e| (e + 1) % n).collect(),
            Hint::Noise => (0..4).map(|_| rng.gen_range(0..n + 4)).collect(),
        };
        let mut basis = None;
        // the basis is built, shared by the sibling, and rebuilt when the
        // hint no longer selects the same read set
        for (w, h, which) in [
            (&word, &hint[..], "word"),
            (&sibling, &hint[..], "sibling"),
            (&word, &[][..], "unhinted"),
        ] {
            let context = format!("n={n} dim={dim} errors={errors:?} hint={h:?} {which}");
            assert_guess_is_reference(&code, w, h, &mut basis, &context);
        }
    }
}

#[test]
fn too_few_present_symbols_is_an_error_and_too_few_unsuspected_is_no_guess() {
    let code = RsCode::new(distinct_elements::<Fp61>(0, 6), 3).unwrap();
    let word = [Some(Fp61::ONE), None, Some(Fp61::ONE), None, None, None];
    assert_eq!(
        code.guess(|i| word[i], &[], &mut None).unwrap_err(),
        RsError::TooManyErasures { present: 2, dim: 3 }
    );
    let word = [Some(Fp61::ONE); 6];
    let guess = code.guess(|i| word[i], &[0, 1, 2, 3], &mut None).unwrap();
    assert!(guess.is_none());
}

fn case() -> impl Strategy<Value = (usize, Shape, Hint, u64)> {
    let shape = prop_oneof![
        Just(Shape::Within),
        Just(Shape::AtRadius),
        Just(Shape::Beyond),
        Just(Shape::AtZero),
        Just(Shape::ErasuresLast),
    ];
    let hint = prop_oneof![
        Just(Hint::None),
        Just(Hint::Exact),
        Just(Hint::Stale),
        Just(Hint::Noise),
    ];
    (1usize..=32, shape, hint, any::<u64>())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn guess_equals_interpolate_and_count_fp61((n, shape, hint, seed) in case()) {
        guess_equals_reference::<Fp61>(n, shape, hint, seed);
    }

    #[test]
    fn guess_equals_interpolate_and_count_gf2m((n, shape, hint, seed) in case()) {
        guess_equals_reference::<Gf2_16>(n, shape, hint, seed);
    }
}
