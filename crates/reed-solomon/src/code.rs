//! The [`RsCode`] type: encoding, decoding entry points, and the
//! consistency-set (`τ`) machinery of §6.2.

use crate::decoder::{BerlekampMassey, Decoder};
use csm_algebra::{Field, Lagrange, Poly};

/// Errors returned by Reed–Solomon operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsError {
    /// Code parameters are invalid (dimension zero or exceeding length,
    /// duplicate points).
    InvalidParameters(String),
    /// The message is longer than the code dimension.
    MessageTooLong {
        /// Provided message length.
        got: usize,
        /// Code dimension.
        dim: usize,
    },
    /// The received word has the wrong length.
    LengthMismatch {
        /// Provided word length.
        got: usize,
        /// Code length.
        expected: usize,
    },
    /// Too few unerased symbols to decode even without errors.
    TooManyErasures {
        /// Unerased symbol count.
        present: usize,
        /// Code dimension.
        dim: usize,
    },
    /// No codeword within the guaranteed decoding radius is consistent with
    /// the received word — more than `⌊(n−k)/2⌋` errors.
    DecodingFailure,
}

impl std::fmt::Display for RsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RsError::InvalidParameters(msg) => write!(f, "invalid code parameters: {msg}"),
            RsError::MessageTooLong { got, dim } => {
                write!(f, "message length {got} exceeds code dimension {dim}")
            }
            RsError::LengthMismatch { got, expected } => {
                write!(f, "received word length {got}, code length {expected}")
            }
            RsError::TooManyErasures { present, dim } => {
                write!(f, "only {present} symbols present, need at least {dim}")
            }
            RsError::DecodingFailure => write!(f, "received word is beyond the decoding radius"),
        }
    }
}

impl std::error::Error for RsError {}

/// A successfully decoded word.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decoded<F> {
    poly: Poly<F>,
    message: Vec<F>,
    codeword: Vec<F>,
    error_positions: Vec<usize>,
}

impl<F: Field> Decoded<F> {
    /// The decoded message polynomial `P(z)` of degree `< dim`.
    pub fn poly(&self) -> &Poly<F> {
        &self.poly
    }

    /// The decoded message: the coefficients of `P`, padded to the code
    /// dimension.
    pub fn message(&self) -> &[F] {
        &self.message
    }

    /// The corrected codeword (evaluations of `P` at all code points).
    pub fn codeword(&self) -> &[F] {
        &self.codeword
    }

    /// Indices of received symbols that were present but wrong — in CSM
    /// these identify Byzantine nodes that sent corrupted results.
    pub fn error_positions(&self) -> &[usize] {
        &self.error_positions
    }
}

/// A Reed–Solomon code of length `points.len()` and dimension `dim`, defined
/// by evaluation at arbitrary pairwise-distinct points.
///
/// In CSM the points are the node points `α_1..α_N` and the dimension is
/// `d(K−1) + 1`, the number of coefficients of the composite polynomial
/// `h_t` (§5.2).
#[derive(Debug, Clone)]
pub struct RsCode<F> {
    points: Vec<F>,
    dim: usize,
}

impl<F: Field> RsCode<F> {
    /// Creates a code from distinct evaluation points and dimension.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::InvalidParameters`] if `dim` is zero or exceeds
    /// the number of points, or if points are duplicated.
    pub fn new(points: Vec<F>, dim: usize) -> Result<Self, RsError> {
        if dim == 0 {
            return Err(RsError::InvalidParameters("dimension must be ≥ 1".into()));
        }
        if dim > points.len() {
            return Err(RsError::InvalidParameters(format!(
                "dimension {dim} exceeds length {}",
                points.len()
            )));
        }
        let mut seen = std::collections::HashSet::with_capacity(points.len());
        for p in &points {
            if !seen.insert(*p) {
                return Err(RsError::InvalidParameters(format!(
                    "duplicate evaluation point {p}"
                )));
            }
        }
        Ok(RsCode { points, dim })
    }

    /// Code length `n`.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the code is empty (never true for a constructed code).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Code dimension `k`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The evaluation points.
    pub fn points(&self) -> &[F] {
        &self.points
    }

    /// Unique decoding radius with `erasures` erasures:
    /// `⌊(n − erasures − k) / 2⌋` errors.
    pub fn correctable_errors(&self, erasures: usize) -> usize {
        (self.len() - erasures).saturating_sub(self.dim) / 2
    }

    /// Encodes a message of length `≤ dim` (interpreted as polynomial
    /// coefficients, low-to-high) into `n` evaluations.
    ///
    /// # Errors
    ///
    /// Returns [`RsError::MessageTooLong`] if the message exceeds the code
    /// dimension.
    pub fn encode(&self, message: &[F]) -> Result<Vec<F>, RsError> {
        if message.len() > self.dim {
            return Err(RsError::MessageTooLong {
                got: message.len(),
                dim: self.dim,
            });
        }
        let p = Poly::new(message.to_vec());
        Ok(p.eval_many(&self.points))
    }

    /// Decodes a received word (with `None` marking erasures) using
    /// [`BerlekampMassey`]. See [`RsCode::decode_with`] to choose a decoder.
    ///
    /// # Errors
    ///
    /// Propagates the decoder errors; see [`RsCode::decode_with`].
    pub fn decode(&self, word: &[Option<F>]) -> Result<Decoded<F>, RsError> {
        self.decode_with(&BerlekampMassey, word)
    }

    /// Decodes a received word with an explicit [`Decoder`] implementation,
    /// verify-first and without a hint: see [`RsCode::decode_hinted`].
    ///
    /// # Errors
    ///
    /// [`RsError::LengthMismatch`] if `word.len() != n`, otherwise those of
    /// [`RsCode::decode_hinted`].
    pub fn decode_with<D: Decoder>(
        &self,
        decoder: &D,
        word: &[Option<F>],
    ) -> Result<Decoded<F>, RsError> {
        if word.len() != self.len() {
            return Err(RsError::LengthMismatch {
                got: word.len(),
                expected: self.len(),
            });
        }
        self.decode_hinted(decoder, |i| word[i], &[], &mut None)
    }

    /// Decodes by verification. `symbol(i)` is the received symbol at
    /// position `i < n` (`None` for an erasure).
    ///
    /// The candidate is the interpolant through the first `dim` present
    /// symbols outside `suspects`. If it passes the eq. (9) check it is
    /// *the* codeword within the decoding radius (crate docs, "Verify
    /// first"): exactly what `decoder` would have produced, for `O(n·dim)`
    /// instead of a solve. Only a failed check runs `decoder` on the whole
    /// word. `suspects` is therefore a pure hint — positions worth skipping
    /// (last round's error positions, an earlier coordinate's); a wrong,
    /// stale or out-of-range entry costs one failed check, never
    /// correctness.
    ///
    /// `basis` carries the interpolation basis between calls: words that
    /// share an erasure pattern and a hint (the coordinates of one CSM
    /// result word) reuse it, any other call rebuilds it in place. Pass
    /// `&mut None` when there is nothing to share.
    ///
    /// # Errors
    ///
    /// * [`RsError::TooManyErasures`] if fewer than `dim` symbols are
    ///   present;
    /// * [`RsError::DecodingFailure`] if the word lies beyond the unique
    ///   decoding radius.
    pub fn decode_hinted<D: Decoder>(
        &self,
        decoder: &D,
        symbol: impl Fn(usize) -> Option<F>,
        suspects: &[usize],
        basis: &mut Option<Lagrange<F>>,
    ) -> Result<Decoded<F>, RsError> {
        let present = (0..self.len()).filter(|&i| symbol(i).is_some()).count();
        if present < self.dim {
            return Err(RsError::TooManyErasures {
                present,
                dim: self.dim,
            });
        }
        let (xs, ys): (Vec<F>, Vec<F>) = self
            .read_set(&symbol, suspects)
            .map(|(i, y)| (self.points[i], y))
            .unzip();
        if xs.len() == self.dim {
            let lagrange = match basis {
                Some(shared) if shared.points() == xs => shared,
                _ => basis.insert(Lagrange::new(&xs)),
            };
            if let Ok(decoded) = self.finish(lagrange.interpolate(&ys), &symbol) {
                return Ok(decoded);
            }
        }
        self.solve(decoder, symbol)
    }

    /// What a verify-first guess reads: the first `dim` present symbols
    /// outside `suspects`, with their positions (fewer if the word does not
    /// hold that many).
    pub fn read_set<'a, T>(
        &'a self,
        symbol: impl Fn(usize) -> Option<T> + 'a,
        suspects: &'a [usize],
    ) -> impl Iterator<Item = (usize, T)> + 'a {
        (0..self.len())
            .filter(move |i| !suspects.contains(i))
            .filter_map(move |i| Some((i, symbol(i)?)))
            .take(self.dim)
    }

    /// Decodes without a guess: `decoder` on every present symbol, its
    /// answer put to the eq. (9) check. What [`RsCode::decode_hinted`] falls
    /// through to, and where a caller whose own guess has just failed (a
    /// refuted [`crate::DecodePlan`]) starts.
    ///
    /// # Errors
    ///
    /// Those of [`RsCode::decode_hinted`].
    pub fn solve<D: Decoder>(
        &self,
        decoder: &D,
        symbol: impl Fn(usize) -> Option<F>,
    ) -> Result<Decoded<F>, RsError> {
        let (xs, ys): (Vec<F>, Vec<F>) = (0..self.len())
            .filter_map(|i| Some((self.points[i], symbol(i)?)))
            .unzip();
        let poly = decoder.decode(&xs, &ys, self.dim)?;
        self.finish(poly, &symbol)
    }

    /// The check of paper eq. (9): accepts `poly` only if it has degree
    /// `< dim` and disagrees with at most `⌊(present − dim)/2⌋` present
    /// symbols, and packages it with the corrected codeword and the error
    /// positions.
    fn finish(
        &self,
        poly: Poly<F>,
        symbol: &impl Fn(usize) -> Option<F>,
    ) -> Result<Decoded<F>, RsError> {
        if poly.degree().is_some_and(|d| d >= self.dim) {
            return Err(RsError::DecodingFailure);
        }
        let codeword = poly.eval_many(&self.points);
        let mut erasures = 0;
        let error_positions: Vec<usize> = (0..self.len())
            .filter(|&i| match symbol(i) {
                Some(y) => y != codeword[i],
                None => {
                    erasures += 1;
                    false
                }
            })
            .collect();
        if error_positions.len() > self.correctable_errors(erasures) {
            return Err(RsError::DecodingFailure);
        }
        let mut message = poly.coeffs().to_vec();
        message.resize(self.dim, F::ZERO);
        Ok(Decoded {
            poly,
            message,
            codeword,
            error_positions,
        })
    }

    /// The consistency set `τ` of §6.2: the positions where the received
    /// word agrees with the evaluations of `poly`.
    ///
    /// The paper's verifiable-decoding step requires
    /// `|τ| ≥ (N + K′ + 1) / 2` where `K′ = dim − 1`; use
    /// [`RsCode::tau_threshold`] for that bound.
    pub fn consistency_set(&self, poly: &Poly<F>, word: &[Option<F>]) -> Vec<usize> {
        word.iter()
            .enumerate()
            .filter_map(|(i, w)| match w {
                Some(y) if *y == poly.eval(self.points[i]) => Some(i),
                _ => None,
            })
            .collect()
    }

    /// Minimum consistency-set size certifying a correct decoding:
    /// `⌈(n + (dim−1) + 1) / 2⌉ = ⌈(n + dim) / 2⌉`.
    pub fn tau_threshold(&self) -> usize {
        (self.len() + self.dim).div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csm_algebra::{distinct_elements, Fp61, Gf2_16};

    fn code_fp(n: usize, k: usize) -> RsCode<Fp61> {
        RsCode::new(distinct_elements(0, n), k).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(RsCode::<Fp61>::new(distinct_elements(0, 4), 0).is_err());
        assert!(RsCode::<Fp61>::new(distinct_elements(0, 4), 5).is_err());
        let dup = vec![Fp61::ONE, Fp61::ONE];
        assert!(matches!(
            RsCode::new(dup, 1),
            Err(RsError::InvalidParameters(_))
        ));
        assert!(RsCode::<Fp61>::new(distinct_elements(0, 4), 4).is_ok());
    }

    #[test]
    fn encode_rejects_long_message() {
        let c = code_fp(6, 3);
        let msg: Vec<Fp61> = distinct_elements(0, 4);
        assert_eq!(
            c.encode(&msg),
            Err(RsError::MessageTooLong { got: 4, dim: 3 })
        );
    }

    #[test]
    fn encode_short_message_pads() {
        let c = code_fp(6, 3);
        let cw = c.encode(&[Fp61::from_u64(5)]).unwrap();
        // constant polynomial
        assert!(cw.iter().all(|&y| y == Fp61::from_u64(5)));
    }

    #[test]
    fn clean_roundtrip() {
        let c = code_fp(8, 4);
        let msg: Vec<Fp61> = (10..14).map(Fp61::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        let word: Vec<Option<Fp61>> = cw.into_iter().map(Some).collect();
        let d = c.decode(&word).unwrap();
        assert_eq!(d.message(), &msg[..]);
        assert!(d.error_positions().is_empty());
    }

    #[test]
    fn corrects_up_to_radius() {
        let c = code_fp(12, 4); // corrects 4
        let msg: Vec<Fp61> = (1..=4).map(Fp61::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        for e in 0..=4usize {
            let mut word: Vec<Option<Fp61>> = cw.iter().copied().map(Some).collect();
            for j in 0..e {
                word[j * 2] = Some(cw[j * 2] + Fp61::from_u64(7 + j as u64));
            }
            let d = c.decode(&word).unwrap();
            assert_eq!(d.message(), &msg[..], "e={e}");
            assert_eq!(d.error_positions().len(), e);
        }
    }

    #[test]
    fn fails_beyond_radius() {
        let c = code_fp(8, 4); // corrects 2
        let msg: Vec<Fp61> = (1..=4).map(Fp61::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        let mut word: Vec<Option<Fp61>> = cw.iter().copied().map(Some).collect();
        for j in 0..3 {
            word[j] = Some(cw[j] + Fp61::from_u64(997));
        }
        // With 3 errors the decoder either fails or returns a different
        // codeword — it must never silently return the original message
        // while reporting ≤ radius errors from a wrong polynomial.
        match c.decode(&word) {
            Err(RsError::DecodingFailure) => {}
            Ok(d) => assert_ne!(d.message(), &msg[..]),
            Err(e) => panic!("unexpected error {e}"),
        }
    }

    #[test]
    fn erasures_and_errors_together() {
        let c = code_fp(12, 4);
        let msg: Vec<Fp61> = (5..9).map(Fp61::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        let mut word: Vec<Option<Fp61>> = cw.iter().copied().map(Some).collect();
        word[0] = None;
        word[5] = None; // 2 erasures => radius (12-2-4)/2 = 3
        word[1] = Some(cw[1] + Fp61::ONE);
        word[7] = Some(cw[7] + Fp61::from_u64(3));
        word[9] = Some(cw[9] + Fp61::from_u64(9));
        let d = c.decode(&word).unwrap();
        assert_eq!(d.message(), &msg[..]);
        assert_eq!(d.error_positions(), &[1, 7, 9]);
    }

    #[test]
    fn too_many_erasures_detected() {
        let c = code_fp(6, 4);
        let word: Vec<Option<Fp61>> =
            vec![Some(Fp61::ONE), Some(Fp61::ONE), None, None, None, None];
        assert_eq!(
            c.decode(&word),
            Err(RsError::TooManyErasures { present: 2, dim: 4 })
        );
    }

    #[test]
    fn length_mismatch_detected() {
        let c = code_fp(6, 3);
        let word: Vec<Option<Fp61>> = vec![Some(Fp61::ONE); 5];
        assert!(matches!(
            c.decode(&word),
            Err(RsError::LengthMismatch {
                got: 5,
                expected: 6
            })
        ));
    }

    #[test]
    fn consistency_set_and_tau() {
        let c = code_fp(10, 3);
        let msg: Vec<Fp61> = (1..=3).map(Fp61::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        let mut word: Vec<Option<Fp61>> = cw.iter().copied().map(Some).collect();
        word[2] = Some(cw[2] + Fp61::ONE);
        word[6] = None;
        let d = c.decode(&word).unwrap();
        let tau = c.consistency_set(d.poly(), &word);
        assert_eq!(tau.len(), 8); // 10 - 1 error - 1 erasure
        assert!(!tau.contains(&2));
        assert!(!tau.contains(&6));
        // τ threshold: ceil((10 + 3)/2) = 7
        assert_eq!(c.tau_threshold(), 7);
        assert!(tau.len() >= c.tau_threshold());
    }

    #[test]
    fn works_over_gf2m() {
        let pts: Vec<Gf2_16> = distinct_elements(1, 14);
        let c = RsCode::new(pts, 5).unwrap();
        let msg: Vec<Gf2_16> = (20..25).map(Gf2_16::from_u64).collect();
        let cw = c.encode(&msg).unwrap();
        let mut word: Vec<Option<Gf2_16>> = cw.iter().copied().map(Some).collect();
        for j in [0usize, 3, 8, 11] {
            word[j] = Some(cw[j] + Gf2_16::from_u64(0xFF));
        }
        let d = c.decode(&word).unwrap();
        assert_eq!(d.message(), &msg[..]);
        assert_eq!(d.error_positions(), &[0, 3, 8, 11]);
    }

    #[test]
    fn paper_bound_dimension() {
        // CSM: N=16 nodes, K=3 machines, d=2 => dim = d(K-1)+1 = 5,
        // tolerating b with 2b+1 <= N - d(K-1) => b <= 5 (paper Table 2).
        let c = code_fp(16, 5);
        assert_eq!(c.correctable_errors(0), 5);
    }
}
