//! [`DecodePlan`]: the half of a verify-first decode that depends only on
//! *which* symbols are read, computed once and applied word after word.

use crate::code::{RsCode, RsError};
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

impl<F: Field> RsCode<F> {
    /// Plans decoding through the symbols at `read` — exactly `dim`
    /// distinct code positions — with the decoded polynomial wanted at
    /// `targets`. One field inversion and `O((n + targets)·dim)` products.
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
        let others = |j: usize| xs.iter().enumerate().filter(move |&(l, _)| l != j);
        let denominators: Vec<F> = (0..dim)
            .map(|j| others(j).map(|(_, &x)| xs[j] - x).product())
            .collect();
        let weights = F::batch_inverse(&denominators).expect("code points are distinct");
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
}
