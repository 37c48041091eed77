//! Property-based tests: for any message and any error pattern within the
//! decoding radius, every decoder recovers the message exactly — this is the
//! correctness guarantee CSM's execution phase rests on (§5.2) — and
//! verify-first decoding returns what the decoder alone would have, whatever
//! it is hinted and whether or not it goes through a decode plan.

use csm_algebra::{distinct_elements, Field, Fp61, Gf2_16, Lagrange, Poly};
use csm_reed_solomon::{BerlekampMassey, Decoded, Decoder, Gao, RsCode, RsError};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Scenario {
    n: usize,
    k: usize,
    message: Vec<u64>,
    error_positions: Vec<usize>,
    erasure_positions: Vec<usize>,
    error_deltas: Vec<u64>,
}

fn scenario() -> impl Strategy<Value = Scenario> {
    (4usize..24)
        .prop_flat_map(|n| (Just(n), 1usize..=n.min(8)))
        .prop_flat_map(|(n, k)| {
            let budget = n - k; // errors*2 + erasures <= budget
            (
                Just(n),
                Just(k),
                prop::collection::vec(any::<u64>(), k),
                prop::collection::vec(0usize..n, 0..=(budget / 2)),
                prop::collection::vec(0usize..n, 0..=budget),
                prop::collection::vec(1u64..u64::MAX, n),
            )
        })
        .prop_map(|(n, k, message, errs, erases, deltas)| {
            // dedupe and make errors/erasures disjoint, then trim to budget
            let mut erasure_positions: Vec<usize> = erases;
            erasure_positions.sort_unstable();
            erasure_positions.dedup();
            let mut error_positions: Vec<usize> = errs
                .into_iter()
                .filter(|p| !erasure_positions.contains(p))
                .collect();
            error_positions.sort_unstable();
            error_positions.dedup();
            // enforce 2e + r <= n - k by trimming
            while 2 * error_positions.len() + erasure_positions.len() > n - k {
                if !error_positions.is_empty() {
                    error_positions.pop();
                } else {
                    erasure_positions.pop();
                }
            }
            Scenario {
                n,
                k,
                message,
                error_positions,
                erasure_positions,
                error_deltas: deltas,
            }
        })
}

/// The scenario's code, message and received word over `F`.
fn received<F: Field>(
    s: &Scenario,
    embed: impl Fn(u64) -> F,
) -> (RsCode<F>, Vec<F>, Vec<Option<F>>) {
    let code = RsCode::new(distinct_elements::<F>(0, s.n), s.k).unwrap();
    let msg: Vec<F> = s.message.iter().map(|&m| embed(m)).collect();
    let cw = code.encode(&msg).unwrap();
    let mut word: Vec<Option<F>> = cw.iter().copied().map(Some).collect();
    for &p in &s.erasure_positions {
        word[p] = None;
    }
    for &p in &s.error_positions {
        word[p] = Some(cw[p] + embed(s.error_deltas[p]) + F::ONE);
    }
    (code, msg, word)
}

fn run<F: Field, D: Decoder>(s: &Scenario, decoder: &D, embed: impl Fn(u64) -> F) {
    let (code, msg, word) = received(s, embed);
    let decoded = code.decode_with(decoder, &word).unwrap();
    assert_eq!(decoded.message(), &msg[..]);
    // every reported error position was actually corrupted
    for &p in decoded.error_positions() {
        assert!(s.error_positions.contains(&p));
    }
}

/// A scenario with up to three further errors (which may take it beyond
/// the radius) and an arbitrary suspect hint: none, exact, wrong (and
/// possibly out of range), stale (the error set rotated by one, as after a
/// round in which the Byzantine set moved), or every position.
fn hinted() -> impl Strategy<Value = (Scenario, Vec<usize>)> {
    let noise = prop::collection::vec(0usize..32, 0..8);
    (scenario(), 0usize..5, noise, 0usize..4).prop_map(|(mut s, kind, noise, extra)| {
        let clean: Vec<usize> = (0..s.n)
            .filter(|p| !s.error_positions.contains(p) && !s.erasure_positions.contains(p))
            .take(extra)
            .collect();
        s.error_positions.extend(clean);
        let hint = match kind {
            0 => Vec::new(),
            1 => s.error_positions.clone(),
            2 => noise,
            3 => s.error_positions.iter().map(|p| (p + 1) % s.n).collect(),
            _ => (0..s.n).collect(),
        };
        (s, hint)
    })
}

/// `Decoder::decode` on the present symbols followed by the eq. (9) check,
/// written out independently of `RsCode`: the path every decode took before
/// verify-first, and the reference it must still equal.
fn raw<F: Field, D: Decoder>(
    code: &RsCode<F>,
    decoder: &D,
    word: &[Option<F>],
) -> Result<(Poly<F>, Vec<usize>), RsError> {
    let present = |i: &usize| word[*i].is_some();
    let xs: Vec<F> = (0..code.len())
        .filter(present)
        .map(|i| code.points()[i])
        .collect();
    let ys: Vec<F> = word.iter().flatten().copied().collect();
    let poly = decoder.decode(&xs, &ys, code.dim())?;
    let errors: Vec<usize> = (0..code.len())
        .filter(|&i| word[i].is_some_and(|y| y != poly.eval(code.points()[i])))
        .collect();
    let radius = code.correctable_errors(code.len() - xs.len());
    if poly.degree().is_some_and(|d| d >= code.dim()) || errors.len() > radius {
        return Err(RsError::DecodingFailure);
    }
    Ok((poly, errors))
}

fn assert_same<F: Field>(
    code: &RsCode<F>,
    got: Result<Decoded<F>, RsError>,
    want: Result<(Poly<F>, Vec<usize>), RsError>,
) {
    match (got, want) {
        (Ok(d), Ok((poly, errors))) => {
            assert_eq!(d.poly(), &poly);
            assert_eq!(d.error_positions(), &errors[..]);
            assert_eq!(d.codeword(), &poly.eval_many(code.points())[..]);
            assert_eq!(d.message().len(), code.dim());
            assert_eq!(Poly::new(d.message().to_vec()), poly);
        }
        (Err(got), Err(want)) => assert_eq!(got, want),
        (got, want) => panic!("verify-first gave {got:?}, the decoder alone {want:?}"),
    }
}

fn verify_first_equals_raw<F: Field, D: Decoder>(
    s: &Scenario,
    hint: &[usize],
    decoder: &D,
    embed: impl Fn(u64) -> F,
) {
    let (code, _, word) = received(s, &embed);
    // a second word with the same erasures and error positions, as the
    // next coordinate of a CSM result word would be
    let mut sibling = s.clone();
    sibling.message.reverse();
    let (_, _, word2) = received(&sibling, &embed);
    let mut basis = None;
    for (word, hint) in [(&word, hint), (&word2, hint), (&word, &[][..])] {
        let got = code.decode_hinted(decoder, |i| word[i], hint, &mut basis);
        planned_equals(&code, word, hint, &got);
        assert_same(&code, got, raw(&code, decoder, word));
    }
}

/// The plan for the read set `hint` selects accepts `word` iff the word
/// decodes to a polynomial that agrees with every symbol read — an error on
/// a read position refutes it — and then reports `want`'s error positions
/// and values. Its rows are the read set's Lagrange basis.
fn planned_equals<F: Field>(
    code: &RsCode<F>,
    word: &[Option<F>],
    hint: &[usize],
    want: &Result<Decoded<F>, RsError>,
) {
    let read: Vec<usize> = code.read_set(|i| word[i], hint).map(|(i, _)| i).collect();
    let targets: Vec<F> = distinct_elements(code.len() as u64, 3);
    if read.len() < code.dim() {
        return assert!(code.plan(&read, &targets).is_err());
    }
    let plan = code.plan(&read, &targets).unwrap();
    let values = |ys: &[F]| plan.evaluate(ys).collect::<Vec<F>>();
    let mut ys = Vec::new();
    let got = plan.check(|i| word[i], &mut ys);
    match want {
        Ok(d) if !read.iter().any(|i| d.error_positions().contains(i)) => {
            assert_eq!(got.as_deref(), Some(d.error_positions()));
            assert_eq!(values(&ys), d.poly().eval_many(&targets));
        }
        _ => assert_eq!(got, None, "read {read:?}"),
    }
    let xs: Vec<F> = read.iter().map(|&i| code.points()[i]).collect();
    let lagrange = Lagrange::new(&xs);
    for j in 0..code.dim() {
        let mut unit = vec![F::ZERO; code.dim()];
        unit[j] = F::ONE;
        let basis_j = lagrange.interpolate(&unit);
        let at_points = |i: usize| Some(basis_j.eval(code.points()[i]));
        assert_eq!(plan.check(at_points, &mut ys), Some(Vec::new()));
        assert_eq!(values(&unit), basis_j.eval_many(&targets));
    }
}

/// A codeword of a random code with at most `b` liars among its senders,
/// of which a receiver holds an arbitrary subset: `(n, dim, b, message,
/// liars, held, shift)`.
fn partial_word(
) -> impl Strategy<Value = (usize, usize, usize, Vec<u64>, Vec<usize>, Vec<bool>, u64)> {
    (4usize..20)
        .prop_flat_map(|n| (Just(n), 1usize..n))
        .prop_flat_map(|(n, dim)| (Just(n), Just(dim), 0..=n - dim))
        .prop_flat_map(|(n, dim, b)| {
            (
                Just(n),
                Just(dim),
                Just(b),
                prop::collection::vec(any::<u64>(), dim),
                prop::collection::vec(0usize..n, 0..=b),
                prop::collection::vec(any::<bool>(), n),
                1u64..1 << 60,
            )
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whatever subset of the word has arrived, a decode that agrees with
    /// `dim + b` of the held symbols is the true message — even when the
    /// liars collude on one wrong polynomial that also passes through
    /// `dim − 1` honest symbols.
    #[test]
    fn a_certified_decode_is_the_true_message(
        (n, dim, b, message, liars, held, shift) in partial_word(),
    ) {
        let points: Vec<Fp61> = distinct_elements(0, n);
        let code = RsCode::new(points.clone(), dim).unwrap();
        let msg: Vec<Fp61> = message.iter().map(|&m| Fp61::from_u64(m)).collect();
        let truth = Poly::new(msg.clone());
        let honest: Vec<Fp61> = (0..n)
            .filter(|i| !liars.contains(i))
            .take(dim - 1)
            .map(|i| points[i])
            .collect();
        let wrong = truth.clone() + Poly::from_roots(&honest).scale(Fp61::from_u64(shift));
        let word: Vec<Option<Fp61>> = (0..n)
            .map(|i| {
                let poly = if liars.contains(&i) { &wrong } else { &truth };
                held[i].then(|| poly.eval(points[i]))
            })
            .collect();
        if let Ok(decoded) = code.decode(&word) {
            let present = word.iter().flatten().count();
            let agreeing = present - decoded.error_positions().len();
            if code.certifies(agreeing, b) {
                prop_assert_eq!(decoded.message(), &msg[..]);
            }
        }
    }

    /// One symbol short of the threshold is not enough: `b` liars and
    /// `dim − 1` honest symbols all lie on a wrong polynomial, which the
    /// decoder returns with `dim + b − 1` agreeing symbols.
    #[test]
    fn certificates_are_tight((n, dim, b, message, _, _, shift) in partial_word()) {
        prop_assume!(b >= 1);
        let points: Vec<Fp61> = distinct_elements(0, n);
        let code = RsCode::new(points.clone(), dim).unwrap();
        let truth = Poly::new(message.iter().map(|&m| Fp61::from_u64(m)).collect());
        // the wrong polynomial agrees with the truth at the first dim − 1
        // points and nowhere else
        let bump = Poly::from_roots(&points[..dim - 1]).scale(Fp61::from_u64(shift));
        let wrong = truth.clone() + bump;
        let word: Vec<Option<Fp61>> = (0..n)
            .map(|i| (i < dim - 1 + b).then(|| wrong.eval(points[i])))
            .collect();
        let decoded = code.decode(&word).unwrap();
        prop_assert!(decoded.error_positions().is_empty());
        prop_assert_ne!(decoded.poly(), &truth);
        prop_assert!(!code.certifies(dim + b - 1, b));
    }

    #[test]
    fn bm_decodes_within_radius_fp61(s in scenario()) {
        run::<Fp61, _>(&s, &BerlekampMassey, Fp61::from_u64);
    }

    #[test]
    fn bm_decodes_within_radius_gf2m(s in scenario()) {
        run::<Gf2_16, _>(&s, &BerlekampMassey, Gf2_16::from_u64);
    }

    #[test]
    fn gao_decodes_within_radius_fp61(s in scenario()) {
        run::<Fp61, _>(&s, &Gao, Fp61::from_u64);
    }

    #[test]
    fn gao_decodes_within_radius_gf2m(s in scenario()) {
        run::<Gf2_16, _>(&s, &Gao, Gf2_16::from_u64);
    }

    #[test]
    fn verify_first_equals_bm_fp61((s, hint) in hinted()) {
        verify_first_equals_raw::<Fp61, _>(&s, &hint, &BerlekampMassey, Fp61::from_u64);
    }

    #[test]
    fn verify_first_equals_bm_gf2m((s, hint) in hinted()) {
        verify_first_equals_raw::<Gf2_16, _>(&s, &hint, &BerlekampMassey, Gf2_16::from_u64);
    }

    #[test]
    fn verify_first_equals_gao_fp61((s, hint) in hinted()) {
        verify_first_equals_raw::<Fp61, _>(&s, &hint, &Gao, Fp61::from_u64);
    }

    #[test]
    fn verify_first_equals_gao_gf2m((s, hint) in hinted()) {
        verify_first_equals_raw::<Gf2_16, _>(&s, &hint, &Gao, Gf2_16::from_u64);
    }

    #[test]
    fn decoders_agree(s in scenario()) {
        let (code, _, word) = received(&s, Fp61::from_u64);
        let bm = code.decode_with(&BerlekampMassey, &word).unwrap();
        let gao = code.decode_with(&Gao, &word).unwrap();
        prop_assert_eq!(&bm, &gao);
    }

    #[test]
    fn tau_set_meets_threshold_within_radius(s in scenario()) {
        // §6.2: a correct decoding always has |τ| ≥ (N + K' + 1)/2.
        let code = RsCode::new(distinct_elements::<Fp61>(0, s.n), s.k).unwrap();
        let msg: Vec<Fp61> = s.message.iter().map(|&m| Fp61::from_u64(m)).collect();
        let cw = code.encode(&msg).unwrap();
        let mut word: Vec<Option<Fp61>> = cw.iter().copied().map(Some).collect();
        for &p in &s.error_positions {
            word[p] = Some(cw[p] + Fp61::ONE);
        }
        if s.erasure_positions.is_empty() {
            let d = code.decode(&word).unwrap();
            let tau = code.consistency_set(d.poly(), &word);
            prop_assert!(tau.len() >= code.tau_threshold());
        }
    }
}
