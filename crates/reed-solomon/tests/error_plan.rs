//! `ErrorPlan::decode` is a Berlekamp–Massey solve through tables: on any
//! present set and any word over it — within the decoding radius, one error
//! beyond it, or with an error at the point 0 — it finds the error positions
//! and target values `RsCode::solve` finds with either decoder, and fails
//! exactly when they fail. And `ErrorPlan::decode_located`, the next word
//! decoded through where `decode_keeping` found the last one's errors,
//! gives that same answer or declines, never another.

use csm_algebra::{distinct_elements, Field, Fp61, Gf2_16};
use csm_reed_solomon::{BerlekampMassey, Decoder, Gao, RsCode, RsError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// How many of a word's present symbols are wrong.
#[derive(Debug, Clone, Copy)]
enum Errors {
    /// Any number up to the radius.
    Within,
    /// One more than the radius corrects.
    Beyond,
    /// Up to the radius, one of them at the point 0.
    AtZero,
}

/// `solve` with `decoder`, as the error positions and the values at
/// `targets` a plan reports.
fn solved<F: Field, D: Decoder>(
    code: &RsCode<F>,
    decoder: &D,
    word: &[Option<F>],
    targets: &[F],
) -> Result<(Vec<usize>, Vec<F>), RsError> {
    let decoded = code.solve(decoder, |i| word[i])?;
    let values = decoded.poly().eval_many(targets);
    Ok((decoded.error_positions().to_vec(), values))
}

/// Every dimension of a length-`n` code over `F`, each with its own random
/// present set and word.
fn plan_equals_solve<F: Field>(n: usize, errors: Errors, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    // distinct_elements starts at 0, so position 0 is the point 0
    let points: Vec<F> = distinct_elements(0, n);
    assert!(points[0].is_zero());
    let targets: Vec<F> = distinct_elements(n as u64, 3);
    for dim in 1..=n {
        let code = RsCode::new(points.clone(), dim).unwrap();
        let mut present: Vec<usize> = (0..n).collect();
        present.shuffle(&mut rng);
        present.truncate(rng.gen_range(dim..=n));
        let radius = (present.len() - dim) / 2;
        let wrong = match errors {
            Errors::Within => rng.gen_range(0..=radius),
            Errors::Beyond => radius + 1,
            Errors::AtZero => rng.gen_range(0..=radius).max(1),
        };
        if matches!(errors, Errors::AtZero) {
            match present.iter().position(|&i| i == 0) {
                Some(j) => present.swap(0, j),
                None => present[0] = 0,
            }
        }
        let message: Vec<F> = (0..dim).map(|_| F::random(&mut rng)).collect();
        let codeword = code.encode(&message).unwrap();
        let mut word = vec![None; n];
        for &i in &present {
            word[i] = Some(codeword[i]);
        }
        // present is in random order, with position 0 first under AtZero
        for &i in &present[..wrong] {
            word[i] = Some(codeword[i] + F::random_nonzero(&mut rng));
        }
        let plan = code.error_plan(&present, &targets).unwrap();
        let received: Vec<F> = plan.present().iter().map(|&i| word[i].unwrap()).collect();
        let got = plan.decode(&received);
        assert_eq!(
            plan.locate(&received),
            got.clone().map(|(errors, _)| errors)
        );
        let bm = solved(&code, &BerlekampMassey, &word, &targets);
        let gao = solved(&code, &Gao, &word, &targets);
        let context = format!("n={n} dim={dim} present={present:?} wrong={wrong}");
        assert_eq!(got, bm, "against Berlekamp–Massey, {context}");
        assert_eq!(got, gao, "against Gao, {context}");
        if wrong <= radius {
            let (located, _) = got.expect("within the radius");
            assert_eq!(located.len(), wrong, "{context}");
        }
    }
}

fn case() -> impl Strategy<Value = (usize, Errors, u64)> {
    let errors = prop_oneof![
        Just(Errors::Within),
        Just(Errors::Beyond),
        Just(Errors::AtZero)
    ];
    (0usize..4, errors, any::<u64>()).prop_map(|(log, errors, seed)| (4 << log, errors, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn error_plan_equals_solve_fp61((n, errors, seed) in case()) {
        plan_equals_solve::<Fp61>(n, errors, seed);
    }

    #[test]
    fn error_plan_equals_solve_gf2m((n, errors, seed) in case()) {
        plan_equals_solve::<Gf2_16>(n, errors, seed);
    }
}

/// Where the second word's errors are, against the first word's.
#[derive(Debug, Clone, Copy)]
enum Relation {
    Subset,
    Same,
    /// The first word's errors and one or two more, possibly beyond the
    /// radius.
    Superset,
    Disjoint,
}

/// Two words over one random present set, as two coordinates of a CSM
/// result word: the first decoded by `decode_keeping`, the second through
/// what that located.
fn located_reuse_equals_solve<F: Field>(n: usize, relation: Relation, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<F> = distinct_elements(0, n);
    let targets: Vec<F> = distinct_elements(n as u64, 3);
    for dim in 1..=n {
        let code = RsCode::new(points.clone(), dim).unwrap();
        let mut present: Vec<usize> = (0..n).collect();
        present.shuffle(&mut rng);
        present.truncate(rng.gen_range(dim..=n));
        let radius = (present.len() - dim) / 2;
        // present is in random order, so any prefix is a random subset, the
        // point 0 among them as often as not
        let first_errors = present[..rng.gen_range(0..=radius)].to_vec();
        let second_errors: Vec<usize> = match relation {
            Relation::Subset => first_errors
                .iter()
                .copied()
                .filter(|_| rng.gen_bool(0.5))
                .collect(),
            Relation::Same => first_errors.clone(),
            Relation::Superset => {
                let more = rng
                    .gen_range(1..=2usize)
                    .min(present.len() - first_errors.len());
                present[..first_errors.len() + more].to_vec()
            }
            Relation::Disjoint => {
                let rest = &present[first_errors.len()..];
                rest[..rng.gen_range(0..=radius.min(rest.len()))].to_vec()
            }
        };
        let mut word = |errors: &[usize]| -> Vec<Option<F>> {
            let message: Vec<F> = (0..dim).map(|_| F::random(&mut rng)).collect();
            let codeword = code.encode(&message).unwrap();
            let mut word = vec![None; n];
            for &i in &present {
                word[i] = Some(codeword[i]);
            }
            for &i in errors {
                word[i] = Some(codeword[i] + F::random_nonzero(&mut rng));
            }
            word
        };
        let (first, second) = (word(&first_errors), word(&second_errors));
        let plan = code.error_plan(&present, &targets).unwrap();
        let received = |word: &[Option<F>]| -> Vec<F> {
            plan.present().iter().map(|&i| word[i].unwrap()).collect()
        };
        let (errors, values, located) = plan.decode_keeping(&received(&first)).unwrap();
        assert_eq!(Ok((errors, values)), plan.decode(&received(&first)));
        let got = plan.decode_located(&located, &received(&second));
        let want = solved(&code, &BerlekampMassey, &second, &targets);
        let context = format!(
            "n={n} dim={dim} present={present:?} first={first_errors:?} second={second_errors:?}"
        );
        if let Some(got) = got {
            assert_eq!(Ok(got), want, "{context}");
        } else {
            // errors where the first word's were, within the radius, are
            // never declined
            assert!(
                !matches!(relation, Relation::Subset | Relation::Same),
                "declined, {context}"
            );
        }
    }
}

fn reuse_case() -> impl Strategy<Value = (usize, Relation, u64)> {
    let relation = prop_oneof![
        Just(Relation::Subset),
        Just(Relation::Same),
        Just(Relation::Superset),
        Just(Relation::Disjoint)
    ];
    (0usize..4, relation, any::<u64>()).prop_map(|(log, relation, seed)| (4 << log, relation, seed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn located_reuse_equals_solve_or_declines_fp61((n, relation, seed) in reuse_case()) {
        located_reuse_equals_solve::<Fp61>(n, relation, seed);
    }

    #[test]
    fn located_reuse_equals_solve_or_declines_gf2m((n, relation, seed) in reuse_case()) {
        located_reuse_equals_solve::<Gf2_16>(n, relation, seed);
    }
}

#[test]
fn error_plan_rejects_bad_present_sets() {
    let code = RsCode::new(distinct_elements::<Fp61>(0, 8), 3).unwrap();
    assert!(matches!(
        code.error_plan(&[0, 1, 1, 2], &[]),
        Err(RsError::InvalidParameters(_))
    ));
    assert!(matches!(
        code.error_plan(&[0, 1, 8], &[]),
        Err(RsError::InvalidParameters(_))
    ));
    assert_eq!(
        code.error_plan(&[5, 2], &[]).unwrap_err(),
        RsError::TooManyErasures { present: 2, dim: 3 }
    );
    // any order, planned ascending
    let plan = code.error_plan(&[7, 0, 3, 5], &[]).unwrap();
    assert_eq!(plan.present(), &[0, 3, 5, 7]);
}
