//! [`DecodePlan`]: the half of a verify-first decode that depends only on
//! *which* symbols are read, computed once and applied word after word; and
//! [`ErrorPlan`]: the same for a Berlekamp–Massey solve, which depends only
//! on which symbols are present.

use crate::code::{RsCode, RsError};
use crate::decoder::{locate, locator, roots};
use csm_algebra::{dot, Field};

/// The Lagrange basis `L_j` of a read set of `dim` code positions,
/// tabulated at every code point and at every target — see the crate docs,
/// "Decode plans". Built by [`RsCode::plan`].
#[derive(Debug, Clone)]
pub struct DecodePlan<F> {
    read: Vec<usize>,
    is_read: Vec<bool>,
    /// Row-major, `dim` wide: row `i < n` is `L_·(α_i)`, row `n + k` is
    /// `L_·(ω_k)`.
    basis: Vec<F>,
}

impl<F: Field> DecodePlan<F> {
    /// `L_·(α_i)`: the interpolant's value at code position `i` is this row
    /// dotted with the read symbols.
    fn row(&self, i: usize) -> &[F] {
        let dim = self.read.len();
        &self.basis[i * dim..(i + 1) * dim]
    }

    /// The code positions whose symbols the plan interpolates through.
    pub fn read(&self) -> &[usize] {
        &self.read
    }

    /// The eq. (9) check on the interpolant through the symbols at
    /// [`Self::read`], which are left in `ys`: its error positions if it
    /// disagrees with at most `⌊(present − dim)/2⌋` of the present symbols
    /// (it is then the decoding), `None` once it disagrees with more or if
    /// a read position is erased.
    pub fn check(
        &self,
        symbol: impl Fn(usize) -> Option<F>,
        ys: &mut Vec<F>,
    ) -> Option<Vec<usize>> {
        ys.clear();
        for &i in &self.read {
            ys.push(symbol(i)?);
        }
        let (n, dim) = (self.is_read.len(), self.read.len());
        let (mut erasures, mut errors) = (0, Vec::new());
        for (i, row) in self.basis.chunks_exact(dim).take(n).enumerate() {
            match symbol(i) {
                None => erasures += 1,
                Some(y) if self.is_read[i] || dot(row, ys) == y => {}
                Some(_) => errors.push(i),
            }
            // erasures only grow, so the radius only shrinks
            if errors.len() > (n - erasures).saturating_sub(dim) / 2 {
                return None;
            }
        }
        Some(errors)
    }

    /// The interpolant through `ys` (as [`Self::check`] left them) at each
    /// target, in order.
    pub fn evaluate<'a>(&'a self, ys: &'a [F]) -> impl Iterator<Item = F> + 'a {
        let rows = self.basis.chunks_exact(self.read.len());
        rows.skip(self.is_read.len()).map(move |row| dot(row, ys))
    }
}

/// A Berlekamp–Massey solve with everything that depends only on the
/// present positions tabulated — see the crate docs, "Error plans". Built
/// by [`RsCode::error_plan`].
#[derive(Debug, Clone)]
pub struct ErrorPlan<F> {
    present: Vec<usize>,
    /// The code points at `present`.
    xs: Vec<F>,
    /// The dual weights `u_i` of `xs`.
    weights: Vec<F>,
    /// Row-major, `present.len()` wide: row `j < present − dim` is the
    /// parity check `u_i·x_i^j`.
    checks: Vec<F>,
    /// Through the first `dim` present positions, at the targets.
    reference: DecodePlan<F>,
}

/// Where [`ErrorPlan::decode_keeping`] found a word's errors, kept for
/// [`ErrorPlan::decode_located`]: how many roots the error locator `σ` has,
/// and for each root among the reference plan's read positions the
/// quotient `q_l = σ/(z − x_l)` and the inverted denominator
/// `1/(u_l·σ′(x_l))` of its closed-form error value.
#[derive(Debug, Clone)]
pub struct Located<F> {
    /// `|E|`, the syndromes the closed form reads.
    len: usize,
    /// The roots the reference plan reads, as indices into the plan's
    /// present positions, ascending.
    read_errors: Vec<usize>,
    /// Row-major, `len` wide: `q_l`'s coefficients, highest first.
    quotients: Vec<F>,
    inverses: Vec<F>,
}

impl<F: Field> ErrorPlan<F> {
    /// The code positions the plan was built for, ascending.
    pub fn present(&self) -> &[usize] {
        &self.present
    }

    /// The error positions of the word whose symbols at [`Self::present`]
    /// are `received`, in that order, and whose other symbols are erased:
    /// the first two steps of [`Self::decode`], for a caller that wants the
    /// decoding in another form.
    ///
    /// # Errors
    ///
    /// Those of [`Self::decode`].
    ///
    /// # Panics
    ///
    /// Those of [`Self::decode`].
    pub fn locate(&self, received: &[F]) -> Result<Vec<usize>, RsError> {
        let (_, located) = locate(&self.syndromes(received), &self.xs, self.radius())?;
        Ok(located.iter().map(|&l| self.present[l]).collect())
    }

    /// Decodes the word whose symbols at [`Self::present`] are `received`,
    /// in that order, and whose other symbols are erased: its error
    /// positions and the decoded polynomial's value at each target. These
    /// are what [`RsCode::solve`] with [`crate::BerlekampMassey`] finds,
    /// and it fails exactly when that does.
    ///
    /// # Errors
    ///
    /// [`RsError::DecodingFailure`] if the word lies beyond the unique
    /// decoding radius.
    ///
    /// # Panics
    ///
    /// Panics unless `received` holds one symbol per present position.
    pub fn decode(&self, received: &[F]) -> Result<(Vec<usize>, Vec<F>), RsError> {
        let (errors, values, _) = self.decode_keeping(received)?;
        Ok((errors, values))
    }

    /// [`Self::decode`], keeping what it located for
    /// [`Self::decode_located`] on the next word over the same present
    /// positions (the next coordinate of a CSM result word).
    ///
    /// # Errors
    ///
    /// Those of [`Self::decode`].
    ///
    /// # Panics
    ///
    /// Those of [`Self::decode`].
    pub fn decode_keeping(
        &self,
        received: &[F],
    ) -> Result<(Vec<usize>, Vec<F>, Located<F>), RsError> {
        let syndromes = self.syndromes(received);
        let sigma = locator(&syndromes, self.radius())?;
        let (dim, len) = (self.reference.read.len(), sigma.len() - 1);
        // The reference plan reads the first dim present symbols, so only
        // the errors among them need values, and σ's roots are looked for
        // there alone: the eq. (9) check finds every other error, and fails
        // the word — beyond the radius, where a solve fails too — if σ is
        // not its locator. S_j = Σ_l u_l·v_l·x_l^j, and q_l = σ/(z − x_l)
        // vanishes at every root but x_l, where it is σ′(x_l), so
        // v_l = Σ_j q_l[j]·S_j / (u_l·σ′(x_l)).
        let read_errors = roots(&sigma, &self.xs[..dim]);
        let mut quotients = Vec::with_capacity(read_errors.len() * len);
        let mut sums = Vec::with_capacity(read_errors.len());
        let mut denominators = Vec::with_capacity(read_errors.len());
        for &l in &read_errors {
            let x = self.xs[l];
            // q_l by synthetic division from the top, its coefficients
            // highest first against S_{len−1} down, and Horner for q_l(x_l)
            let (mut q, mut sum, mut at) = (F::ZERO, F::ZERO, F::ZERO);
            for (&c, &s) in sigma[..len].iter().zip(syndromes[..len].iter().rev()) {
                q = q * x + c;
                quotients.push(q);
                sum += q * s;
                at = at * x + q;
            }
            sums.push(sum);
            denominators.push(self.weights[l] * at);
        }
        // σ′(x_l) = 0 only at a repeated root, which the locator of a word
        // within the radius never has
        let inverses = F::batch_inverse(&denominators).ok_or(RsError::DecodingFailure)?;
        let mut ys = received[..dim].to_vec();
        let mut errors = Vec::with_capacity(self.radius() + 1);
        for ((&l, &sum), &inverse) in read_errors.iter().zip(&sums).zip(&inverses) {
            ys[l] -= sum * inverse;
            errors.push(self.present[l]);
        }
        let (errors, values) = self.check(received, &ys, errors)?;
        let located = Located {
            len,
            read_errors,
            quotients,
            inverses,
        };
        Ok((errors, values, located))
    }

    /// Decodes the word whose symbols at [`Self::present`] are `received`
    /// through what an earlier [`Self::decode_keeping`] of this plan
    /// located, with no recurrence, no root search and no inversion: the
    /// first `|located|` syndromes, the kept closed form for the value at
    /// each located read error (a value of 0 is no error), and the eq. (9)
    /// check of the corrected interpolant. It returns exactly what
    /// [`Self::decode`] would, or `None` — the word's errors are not where
    /// the earlier word's were, or it lies beyond the radius — and the
    /// caller decodes it some other way.
    ///
    /// # Panics
    ///
    /// Panics unless `received` holds one symbol per present position.
    pub fn decode_located(
        &self,
        located: &Located<F>,
        received: &[F],
    ) -> Option<(Vec<usize>, Vec<F>)> {
        let m = self.present.len();
        assert_eq!(received.len(), m, "one symbol per present position");
        let len = located.len;
        // S_{len−1} down to S_0, against the quotients' highest coefficient
        // first
        let rows = self.checks.chunks_exact(m).take(len).rev();
        let reversed: Vec<F> = rows.map(|row| dot(row, received)).collect();
        let mut ys = received[..self.reference.read.len()].to_vec();
        let mut errors = Vec::with_capacity(self.radius() + 1);
        // with nothing located there is no read error and no row to read
        let quotients = located.quotients.chunks_exact(len.max(1));
        let read_errors = located.read_errors.iter().zip(quotients);
        for ((&l, q), &inverse) in read_errors.zip(&located.inverses) {
            let value = dot(q, &reversed) * inverse;
            if !value.is_zero() {
                ys[l] -= value;
                errors.push(self.present[l]);
            }
        }
        self.check(received, &ys, errors).ok()
    }

    /// The eq. (9) check of the interpolant through the corrected read
    /// symbols `ys`, whose `errors` are already listed, against every other
    /// present symbol; then its values at the targets.
    fn check(
        &self,
        received: &[F],
        ys: &[F],
        mut errors: Vec<usize>,
    ) -> Result<(Vec<usize>, Vec<F>), RsError> {
        let (dim, radius) = (self.reference.read.len(), self.radius());
        for (&i, &y) in self.present[dim..].iter().zip(&received[dim..]) {
            if dot(self.reference.row(i), ys) != y {
                errors.push(i);
                if errors.len() > radius {
                    return Err(RsError::DecodingFailure);
                }
            }
        }
        Ok((errors, self.reference.evaluate(ys).collect()))
    }

    fn radius(&self) -> usize {
        (self.present.len() - self.reference.read.len()) / 2
    }

    /// The syndromes as dot products with the parity checks.
    fn syndromes(&self, received: &[F]) -> Vec<F> {
        let m = self.present.len();
        assert_eq!(received.len(), m, "one symbol per present position");
        let rows = self.checks.chunks_exact(m);
        rows.map(|row| dot(row, received)).collect()
    }
}

impl<F: Field> RsCode<F> {
    /// Plans decoding through the symbols at `read` — exactly `dim`
    /// distinct code positions — with the decoded polynomial wanted at
    /// `targets`. `O((n + targets)·dim)` products and no inversion: the
    /// weights are the code table's.
    ///
    /// # Errors
    ///
    /// [`RsError::InvalidParameters`] if `read` is not `dim` distinct
    /// positions below `n`.
    pub fn plan(&self, read: &[usize], targets: &[F]) -> Result<DecodePlan<F>, RsError> {
        let (n, dim) = (self.len(), self.dim());
        let mut is_read = vec![false; n];
        let distinct = |&i: &usize| i < n && !std::mem::replace(&mut is_read[i], true);
        if read.len() != dim || !read.iter().all(distinct) {
            return Err(RsError::InvalidParameters(format!(
                "a decode plan reads {dim} distinct positions below {n}, not {read:?}"
            )));
        }
        let xs: Vec<F> = read.iter().map(|&i| self.points()[i]).collect();
        let weights = self.weights(read);
        // L_j(t) = w_j · Π_{l<j} (t − x_l) · Π_{l>j} (t − x_l), each running
        // product advanced one factor at a time at every site, so that
        // consecutive multiplications belong to independent chains
        let sites: Vec<F> = self.points().iter().chain(targets).copied().collect();
        let mut basis = vec![F::ZERO; sites.len() * dim];
        let mut running = vec![F::ONE; sites.len()];
        for (j, &x) in xs.iter().enumerate() {
            for ((row, run), &t) in basis.chunks_exact_mut(dim).zip(&mut running).zip(&sites) {
                row[j] = *run;
                *run *= t - x;
            }
        }
        running.fill(F::ONE);
        for (j, (&x, &w)) in xs.iter().zip(&weights).enumerate().rev() {
            for ((row, run), &t) in basis.chunks_exact_mut(dim).zip(&mut running).zip(&sites) {
                row[j] *= *run * w;
                *run *= t - x;
            }
        }
        Ok(DecodePlan {
            read: read.to_vec(),
            is_read,
            basis,
        })
    }

    /// Plans Berlekamp–Massey solves of words whose present symbols sit at
    /// `present` (distinct positions, any order), with the decoded
    /// polynomial wanted at `targets`: the dual weights and the parity
    /// checks of the present points, and a [`DecodePlan`] through the first
    /// `dim` of them. `O(n²)` products and no inversion: the weights are
    /// the code table's.
    ///
    /// # Errors
    ///
    /// * [`RsError::InvalidParameters`] if `present` repeats a position or
    ///   holds one `≥ n`;
    /// * [`RsError::TooManyErasures`] if it holds fewer than `dim`.
    pub fn error_plan(&self, present: &[usize], targets: &[F]) -> Result<ErrorPlan<F>, RsError> {
        let (n, dim) = (self.len(), self.dim());
        let mut is_present = vec![false; n];
        let distinct = |&i: &usize| i < n && !std::mem::replace(&mut is_present[i], true);
        if !present.iter().all(distinct) {
            return Err(RsError::InvalidParameters(format!(
                "an error plan needs distinct positions below {n}, not {present:?}"
            )));
        }
        let present: Vec<usize> = (0..n).filter(|&i| is_present[i]).collect();
        if present.len() < dim {
            return Err(RsError::TooManyErasures {
                present: present.len(),
                dim,
            });
        }
        let xs: Vec<F> = present.iter().map(|&i| self.points()[i]).collect();
        let weights = self.weights(&present);
        let mut checks = Vec::with_capacity((xs.len() - dim) * xs.len());
        let mut row = weights.clone();
        for _ in dim..xs.len() {
            checks.extend_from_slice(&row);
            for (u, &x) in row.iter_mut().zip(&xs) {
                *u *= x;
            }
        }
        let reference = self.plan(&present[..dim], targets)?;
        Ok(ErrorPlan {
            present,
            xs,
            weights,
            checks,
            reference,
        })
    }
}
