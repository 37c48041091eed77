//! Decoding algorithms: [`BerlekampMassey`] and [`Gao`].
//!
//! Both decode a Reed–Solomon word given as point/value pairs
//! `(x_i, y_i)` (erasures already stripped by
//! [`crate::RsCode::decode_hinted`], which calls a decoder only once its
//! own guess has failed the check) and the code dimension `k`, returning
//! the unique message polynomial of degree `< k` within distance
//! `⌊(n−k)/2⌋` of the received word.

use crate::code::RsError;
use csm_algebra::{Field, Poly};

/// A Reed–Solomon decoding algorithm.
///
/// The trait is object-safe at the field level via monomorphization of
/// [`Decoder::decode`]; implementors are stateless strategy types.
pub trait Decoder {
    /// Decodes from `n = xs.len()` received values, at most
    /// `⌊(n−k)/2⌋` of which are wrong, the message polynomial of degree
    /// `< k`.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::DecodingFailure`] if no polynomial of degree `< k`
    /// lies within the unique decoding radius of the received values.
    fn decode<F: Field>(&self, xs: &[F], ys: &[F], k: usize) -> Result<Poly<F>, RsError>;
}

/// The syndrome decoder: Berlekamp–Massey error location, `O(n²)`.
///
/// With the dual weights `u_i = 1/Π_{j≠i}(x_i − x_j)`, `Σ_i u_i f(x_i) = 0`
/// for every `f` of degree `< n−1`, so the `n−k` syndromes
/// `S_j = Σ_i u_i y_i x_i^j` see only the errors: `S_j = Σ_l (u_l e_l) x_l^j`
/// over the wrong positions `l`. That sequence obeys the linear recurrence
/// whose characteristic polynomial is the error locator `σ(z) = Π_l (z − x_l)`,
/// and with at most `⌊(n−k)/2⌋` errors it is the shortest one, which
/// Berlekamp–Massey finds (inversion-free: `σ` is only needed up to a
/// scalar). The message polynomial is then the interpolant through `k`
/// points that are not roots of `σ`.
///
/// Conversely, a recurrence of length `L ≤ ⌊(n−k)/2⌋` whose `σ` has `L` roots
/// among the points fixes error values at those roots that reproduce every
/// syndrome, so the word minus those errors is a codeword: an answer is
/// always within the decoding radius and everything else is a
/// [`RsError::DecodingFailure`].
#[derive(Debug, Clone, Copy, Default)]
pub struct BerlekampMassey;

impl Decoder for BerlekampMassey {
    fn decode<F: Field>(&self, xs: &[F], ys: &[F], k: usize) -> Result<Poly<F>, RsError> {
        assert_eq!(xs.len(), ys.len(), "point/value length mismatch");
        let n = xs.len();
        if k > n {
            return Err(RsError::TooManyErasures { present: n, dim: k });
        }
        let weights = dual_weights(xs)?;
        let mut terms: Vec<F> = weights.iter().zip(ys).map(|(&u, &y)| u * y).collect();
        let mut syndromes = vec![F::ZERO; n - k];
        for s in &mut syndromes {
            for (t, &x) in terms.iter_mut().zip(xs) {
                *s += *t;
                *t *= x;
            }
        }

        let (_, errors) = locate(&syndromes, xs, (n - k) / 2)?;
        let (good_xs, good_ys): (Vec<F>, Vec<F>) = (0..n)
            .filter(|i| errors.binary_search(i).is_err())
            .map(|i| (xs[i], ys[i]))
            .unzip();
        // at most (n−k)/2 errors leave at least k points that σ does not flag
        Ok(Poly::interpolate(&good_xs[..k], &good_ys[..k]))
    }
}

/// The dual weights `u_i = 1/Π_{j≠i}(x_i − x_j)` of the points `xs`:
/// `n(n−1)` products and one batch inversion.
///
/// # Errors
///
/// [`RsError::InvalidParameters`] if a point repeats.
fn dual_weights<F: Field>(xs: &[F]) -> Result<Vec<F>, RsError> {
    let mut denominators = vec![F::ONE; xs.len()];
    for (j, &xj) in xs.iter().enumerate() {
        for (i, (d, &xi)) in denominators.iter_mut().zip(xs).enumerate() {
            if i != j {
                *d *= xi - xj;
            }
        }
    }
    F::batch_inverse(&denominators)
        .ok_or_else(|| RsError::InvalidParameters("duplicate evaluation point".into()))
}

/// The error-locating half of [`BerlekampMassey`], shared with
/// [`crate::ErrorPlan`]: from the syndromes `S_j = Σ_i u_i y_i x_i^j` of a
/// word over the points `xs`, the error locator `σ` (coefficients from the
/// highest degree down) and the indices into `xs` of its roots, ascending.
///
/// # Errors
///
/// [`RsError::DecodingFailure`] unless the shortest recurrence has length
/// `L ≤ radius` and `σ` has `L` roots among `xs`.
pub(crate) fn locate<F: Field>(
    syndromes: &[F],
    xs: &[F],
    radius: usize,
) -> Result<(Vec<F>, Vec<usize>), RsError> {
    let sigma = locator(syndromes, radius)?;
    let roots = roots(&sigma, xs);
    if roots.len() != sigma.len() - 1 {
        return Err(RsError::DecodingFailure);
    }
    Ok((sigma, roots))
}

/// The error locator `σ` of [`locate`], coefficients from the highest
/// degree down, `L + 1` of them for a recurrence of length `L`.
///
/// # Errors
///
/// [`RsError::DecodingFailure`] unless the shortest recurrence has length
/// `L ≤ radius`.
pub(crate) fn locator<F: Field>(syndromes: &[F], radius: usize) -> Result<Vec<F>, RsError> {
    // reversed[m−1−j+i] = S_{j−i}: each discrepancy is one dot product
    let m = syndromes.len();
    let reversed: Vec<F> = syndromes.iter().rev().copied().collect();
    // sized once (no register outgrows m + 1 coefficients), so that no
    // update reallocates
    let register = || Vec::with_capacity(m + 1);
    let (mut conn, mut prev, mut next) = (register(), register(), register());
    conn.push(F::ONE);
    prev.push(F::ONE);
    // Berlekamp–Massey without division: `conn` is the connection
    // polynomial C of a register of length `len` generating the syndromes
    // seen so far (Σ_i C_i S_{j−i} = 0 for j ≥ len), `prev` is C before
    // the last length change, `prev_d` its discrepancy then and `gap` the
    // steps since. Each update C ← prev_d·C − d·z^gap·prev only scales C,
    // and C_0 (a product of nonzero discrepancies) never vanishes.
    let (mut len, mut prev_d, mut gap) = (0, F::ONE, 1);
    for j in 0..m {
        let t = conn.len().min(j + 1);
        let d = F::dot(&conn[..t], &reversed[m - 1 - j..][..t]);
        if d.is_zero() {
            gap += 1;
            continue;
        }
        next.clear();
        next.extend(conn.iter().map(|&c| prev_d * c));
        next.resize(conn.len().max(gap + prev.len()), F::ZERO);
        for (t, &b) in next[gap..].iter_mut().zip(&prev) {
            *t -= d * b;
        }
        if 2 * len <= j {
            len = j + 1 - len;
            std::mem::swap(&mut prev, &mut conn);
            prev_d = d;
            gap = 1;
        } else {
            gap += 1;
        }
        // conn ← next, and the buffer it leaves is the next one's
        std::mem::swap(&mut conn, &mut next);
    }
    if len > radius {
        return Err(RsError::DecodingFailure);
    }

    // σ(z) = Σ_{i≤len} C_i z^{len−i}: C reversed *at the register length*,
    // not at its degree. 0 is a legal evaluation point, and an error
    // there is a root of σ at 0, i.e. C_len = 0.
    debug_assert!(conn.len() <= len + 1, "deg C ≤ register length");
    conn.resize(len + 1, F::ZERO);
    Ok(conn)
}

/// The indices into `xs` of the roots of `sigma` (coefficients from the
/// highest degree down), ascending: Horner at every point, one
/// coefficient at a time from the top.
pub(crate) fn roots<F: Field>(sigma: &[F], xs: &[F]) -> Vec<usize> {
    let mut values = vec![F::ZERO; xs.len()];
    for &c in sigma {
        for (v, &x) in values.iter_mut().zip(xs) {
            *v = *v * x + c;
        }
    }
    let mut roots = Vec::with_capacity(sigma.len());
    roots.extend((0..xs.len()).filter(|&i| values[i].is_zero()));
    roots
}

/// Gao's extended-Euclidean decoder.
///
/// Interpolates `g_1` through all received points, then runs the partial
/// extended Euclidean algorithm on `(g_0 = Π(z−x_i), g_1)` down to degree
/// `< (n+k)/2`; the quotient `g/v` is the message polynomial. With fast
/// interpolation this is the asymptotically efficient decoder suited to the
/// §6.2 centralized worker.
#[derive(Debug, Clone, Copy, Default)]
pub struct Gao;

impl Decoder for Gao {
    fn decode<F: Field>(&self, xs: &[F], ys: &[F], k: usize) -> Result<Poly<F>, RsError> {
        assert_eq!(xs.len(), ys.len(), "point/value length mismatch");
        let n = xs.len();
        if k > n {
            return Err(RsError::TooManyErasures { present: n, dim: k });
        }
        let g0 = Poly::from_roots(xs);
        let g1 = csm_algebra::fast_interpolate(xs, ys);
        // stop when deg r < (n + k) / 2
        let stop = (n + k).div_ceil(2);
        let (g, _u, v) = g0.partial_xgcd(&g1, stop);
        if v.is_zero() {
            return Err(RsError::DecodingFailure);
        }
        let (p, rem) = g.div_rem(&v);
        if !rem.is_zero() || p.degree().is_some_and(|d| d >= k) {
            return Err(RsError::DecodingFailure);
        }
        Ok(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::{distinct_elements, Fp61, Gf2_16};
    use rand::{Rng, SeedableRng};

    fn roundtrip_with<D: Decoder>(dec: &D, n: usize, k: usize, errs: usize, seed: u64) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let xs: Vec<Fp61> = distinct_elements(0, n);
        let msg = Poly::new((0..k).map(|_| Fp61::from_u64(rng.gen())).collect());
        let mut ys = msg.eval_many(&xs);
        // corrupt `errs` random distinct positions
        let mut positions: Vec<usize> = (0..n).collect();
        for i in 0..errs {
            let j = rng.gen_range(i..n);
            positions.swap(i, j);
        }
        for &p in &positions[..errs] {
            ys[p] += Fp61::from_u64(rng.gen_range(1..1000));
        }
        let got = dec.decode(&xs, &ys, k).unwrap();
        assert_eq!(got, msg, "n={n} k={k} errs={errs}");
    }

    #[test]
    fn both_correct_random_errors_up_to_the_radius() {
        // from none (a trivial recurrence for BM, an immediate stop for
        // Gao's Euclid) to every error the code corrects
        for seed in 0..5 {
            for (n, k, errs) in [(15, 5, 5), (15, 5, 0), (16, 4, 6), (13, 5, seed as usize)] {
                roundtrip_with(&BerlekampMassey, n, k, errs, seed);
                roundtrip_with(&Gao, n, k, errs, seed);
            }
        }
    }

    #[test]
    fn bm_and_gao_agree_on_gf2m() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let xs: Vec<Gf2_16> = distinct_elements(1, 20);
        let msg = Poly::new((0..6).map(|_| Gf2_16::random(&mut rng)).collect::<Vec<_>>());
        let mut ys = msg.eval_many(&xs);
        for j in [2usize, 9, 13, 17, 5, 0, 19] {
            ys[j] += Gf2_16::from_u64(0xBEEF);
        }
        let bm = BerlekampMassey.decode(&xs, &ys, 6).unwrap();
        let gao = Gao.decode(&xs, &ys, 6).unwrap();
        assert_eq!(bm, msg);
        assert_eq!(gao, msg);
    }

    #[test]
    fn error_on_the_zero_point_is_located() {
        // an error at x = 0 is a root of the locator at 0: every decoder
        // that builds a reciprocal locator must not lose it
        fn check<F: Field, D: Decoder>(dec: &D) {
            let (n, k) = (15, 5);
            let xs: Vec<F> = distinct_elements(0, n);
            assert!(xs[0].is_zero());
            let msg = Poly::new((1..=k as u64).map(F::from_u64).collect());
            for others in [0, (n - k) / 2 - 1] {
                let mut ys = msg.eval_many(&xs);
                for j in (0..=others).map(|e| 3 * e) {
                    ys[j] += F::from_u64(0xBAD + j as u64);
                }
                assert_eq!(dec.decode(&xs, &ys, k).unwrap(), msg, "others={others}");
            }
        }
        check::<Fp61, _>(&BerlekampMassey);
        check::<Gf2_16, _>(&BerlekampMassey);
        check::<Fp61, _>(&Gao);
        check::<Gf2_16, _>(&Gao);
    }

    #[test]
    fn bm_rejects_a_repeated_point() {
        let xs = [1, 2, 1, 3].map(Fp61::from_u64);
        assert!(matches!(
            BerlekampMassey.decode(&xs, &xs, 2),
            Err(RsError::InvalidParameters(_))
        ));
    }

    #[test]
    fn no_error_capacity_interpolates_or_fails() {
        // n − k < 2: the decoders themselves must interpolate and check,
        // with no special case in front of them
        fn check<D: Decoder>(dec: &D) {
            let msg = Poly::new((1..=4).map(Fp61::from_u64).collect::<Vec<_>>());
            for n in [4, 5] {
                let xs: Vec<Fp61> = distinct_elements(0, n);
                let mut ys = msg.eval_many(&xs);
                assert_eq!(dec.decode(&xs, &ys, 4).unwrap(), msg, "n={n}");
                ys[1] += Fp61::ONE;
                match dec.decode(&xs, &ys, 4) {
                    // four points: every word is a codeword, just not this one
                    Ok(p) => assert!(n == 4 && p != msg && p.eval_many(&xs) == ys),
                    Err(e) => assert!(n == 5 && e == RsError::DecodingFailure),
                }
            }
        }
        check(&BerlekampMassey);
        check(&Gao);
    }

    #[test]
    fn zero_message_decodes() {
        let xs: Vec<Fp61> = distinct_elements(0, 9);
        let mut ys = vec![Fp61::ZERO; 9];
        ys[4] = Fp61::from_u64(7); // one error on the zero codeword
        let p = BerlekampMassey.decode(&xs, &ys, 3).unwrap();
        assert!(p.is_zero());
        let p = Gao.decode(&xs, &ys, 3).unwrap();
        assert!(p.is_zero());
    }

    #[test]
    fn beyond_radius_is_error_or_wrong() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let xs: Vec<Fp61> = distinct_elements(0, 10);
        let msg = Poly::new(
            (0..4)
                .map(|_| Fp61::from_u64(rng.gen()))
                .collect::<Vec<_>>(),
        );
        let mut ys = msg.eval_many(&xs);
        for j in 0..4 {
            // radius is 3
            ys[j] += Fp61::from_u64(rng.gen_range(1..999));
        }
        for out in [BerlekampMassey.decode(&xs, &ys, 4), Gao.decode(&xs, &ys, 4)] {
            match out {
                Err(RsError::DecodingFailure) => {}
                Ok(p) => assert_ne!(p, msg),
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }
}
