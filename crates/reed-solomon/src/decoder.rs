//! Decoding algorithms: [`BerlekampWelch`] and [`Gao`].
//!
//! Both decode a Reed–Solomon word given as point/value pairs
//! `(x_i, y_i)` (erasures already stripped by
//! [`crate::RsCode::decode_hinted`], which calls a decoder only once its
//! own guess has failed the check) and the code dimension `k`, returning
//! the unique message polynomial of degree `< k` within distance
//! `⌊(n−k)/2⌋` of the received word.

use crate::code::RsError;
use csm_algebra::{Field, Matrix, Poly};

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

/// The Berlekamp–Welch decoder.
///
/// Solves the homogeneous linear system `Q(x_i) = y_i · E(x_i)` for the
/// error-locator `E` (degree ≤ e) and `Q = P·E` (degree ≤ k−1+e), where
/// `e = ⌊(n−k)/2⌋`, then recovers `P = Q/E`. Cost is `O(n³)` via Gaussian
/// elimination — the textbook algorithm the paper cites alongside the bound
/// `2b + 1 ≤ N − d(K−1)` (Table 2).
#[derive(Debug, Clone, Copy, Default)]
pub struct BerlekampWelch;

impl Decoder for BerlekampWelch {
    fn decode<F: Field>(&self, xs: &[F], ys: &[F], k: usize) -> Result<Poly<F>, RsError> {
        assert_eq!(xs.len(), ys.len(), "point/value length mismatch");
        let n = xs.len();
        if k > n {
            return Err(RsError::TooManyErasures { present: n, dim: k });
        }
        let e = (n - k) / 2;
        // Unknowns: q_0..q_{k+e-1} (k+e of them), e_0..e_e (e+1 of them).
        // Equations: Q(x_i) - y_i E(x_i) = 0 for each i. The system is
        // homogeneous and always has the nontrivial solution (P·E_true,
        // E_true); any nonzero solution yields P = Q/E when the word is
        // within radius e.
        let q_terms = k + e;
        let e_terms = e + 1;
        let mut m = Matrix::zero(n, q_terms + e_terms);
        for i in 0..n {
            let mut pw = F::ONE;
            for j in 0..q_terms {
                m[(i, j)] = pw;
                pw *= xs[i];
            }
            let mut pw = F::ONE;
            for j in 0..e_terms {
                m[(i, q_terms + j)] = -(ys[i] * pw);
                pw *= xs[i];
            }
        }
        let sol = m.nullspace_vector().ok_or(RsError::DecodingFailure)?;
        let q_poly = Poly::new(sol[..q_terms].to_vec());
        let e_poly = Poly::new(sol[q_terms..].to_vec());
        if e_poly.is_zero() {
            return Err(RsError::DecodingFailure);
        }
        let (p, rem) = q_poly.div_rem(&e_poly);
        if !rem.is_zero() || p.degree().is_some_and(|d| d >= k) {
            return Err(RsError::DecodingFailure);
        }
        Ok(p)
    }
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
    fn bw_corrects_random_errors() {
        for seed in 0..5 {
            roundtrip_with(&BerlekampWelch, 15, 5, 5, seed);
            roundtrip_with(&BerlekampWelch, 15, 5, 0, seed);
            roundtrip_with(&BerlekampWelch, 16, 4, 6, seed);
        }
    }

    #[test]
    fn gao_corrects_random_errors() {
        for seed in 0..5 {
            roundtrip_with(&Gao, 15, 5, 5, seed);
            roundtrip_with(&Gao, 15, 5, 0, seed);
            roundtrip_with(&Gao, 16, 4, 6, seed);
        }
    }

    #[test]
    fn bw_and_gao_agree_on_gf2m() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(99);
        let xs: Vec<Gf2_16> = distinct_elements(1, 20);
        let msg = Poly::new((0..6).map(|_| Gf2_16::random(&mut rng)).collect::<Vec<_>>());
        let mut ys = msg.eval_many(&xs);
        for j in [2usize, 9, 13, 17, 5, 0, 19] {
            ys[j] += Gf2_16::from_u64(0xBEEF);
        }
        let bw = BerlekampWelch.decode(&xs, &ys, 6).unwrap();
        let gao = Gao.decode(&xs, &ys, 6).unwrap();
        assert_eq!(bw, msg);
        assert_eq!(gao, msg);
    }

    #[test]
    fn fewer_errors_than_capacity() {
        // The BW system is degenerate when the true error count is below e;
        // the nullspace approach must still succeed.
        for errs in 0..=4 {
            roundtrip_with(&BerlekampWelch, 13, 5, errs, 7 + errs as u64);
            roundtrip_with(&Gao, 13, 5, errs, 7 + errs as u64);
        }
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
        check(&BerlekampWelch);
        check(&Gao);
    }

    #[test]
    fn zero_message_decodes() {
        let xs: Vec<Fp61> = distinct_elements(0, 9);
        let mut ys = vec![Fp61::ZERO; 9];
        ys[4] = Fp61::from_u64(7); // one error on the zero codeword
        let p = BerlekampWelch.decode(&xs, &ys, 3).unwrap();
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
        for out in [BerlekampWelch.decode(&xs, &ys, 4), Gao.decode(&xs, &ys, 4)] {
            match out {
                Err(RsError::DecodingFailure) => {}
                Ok(p) => assert_ne!(p, msg),
                Err(e) => panic!("unexpected {e}"),
            }
        }
    }
}
