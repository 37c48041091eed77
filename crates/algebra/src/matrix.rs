//! Dense matrices and linear solving over a [`Field`].
//!
//! Used for: the coefficient matrix `C = [c_ik]` mapping states to coded
//! states (§5.1, eq. (7)); the Vandermonde matrices of §6.2; and INTERMIX's
//! `A·X` products.

use crate::field::Field;

/// A dense row-major matrix.
///
/// # Examples
///
/// ```
/// use csm_algebra::{Field, Fp61, Matrix};
///
/// let m = Matrix::identity(3);
/// let x = vec![Fp61::from_u64(1), Fp61::from_u64(2), Fp61::from_u64(3)];
/// assert_eq!(m.mul_vec(&x), x);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Matrix<F> {
    rows: usize,
    cols: usize,
    data: Vec<F>,
}

impl<F: Field> Matrix<F> {
    /// Creates a matrix from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_rows(rows: usize, cols: usize, data: Vec<F>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix data size mismatch");
        Matrix { rows, cols, data }
    }

    /// The all-zero matrix.
    pub fn zero(rows: usize, cols: usize) -> Self {
        Matrix {
            rows,
            cols,
            data: vec![F::ZERO; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zero(n, n);
        for i in 0..n {
            m[(i, i)] = F::ONE;
        }
        m
    }

    /// The Vandermonde matrix `[points[i]^j]` with `cols` columns — the
    /// matrix of §6.2's multi-point evaluation step.
    pub fn vandermonde(points: &[F], cols: usize) -> Self {
        let mut data = Vec::with_capacity(points.len() * cols);
        for &x in points {
            let mut pw = F::ONE;
            for _ in 0..cols {
                data.push(pw);
                pw *= x;
            }
        }
        Matrix {
            rows: points.len(),
            cols,
            data,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow of row `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= rows`.
    pub fn row(&self, i: usize) -> &[F] {
        assert!(i < self.rows, "row index out of range");
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Matrix–vector product `A·x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != cols`.
    pub fn mul_vec(&self, x: &[F]) -> Vec<F> {
        assert_eq!(x.len(), self.cols, "vector length must equal column count");
        (0..self.rows).map(|i| dot(self.row(i), x)).collect()
    }

    /// Matrix–matrix product `A·B`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols != rhs.rows`.
    pub fn mul_mat(&self, rhs: &Matrix<F>) -> Matrix<F> {
        assert_eq!(self.cols, rhs.rows, "inner dimension mismatch");
        let mut out = Matrix::zero(self.rows, rhs.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a.is_zero() {
                    continue;
                }
                for j in 0..rhs.cols {
                    let delta = a * rhs[(k, j)];
                    out[(i, j)] += delta;
                }
            }
        }
        out
    }

    /// The transpose.
    pub fn transpose(&self) -> Matrix<F> {
        let mut out = Matrix::zero(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Solves `A·x = b` by Gaussian elimination, returning one solution if
    /// the system is consistent (free variables are set to zero).
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != rows`.
    pub fn solve(&self, b: &[F]) -> Option<Vec<F>> {
        assert_eq!(b.len(), self.rows, "rhs length must equal row count");
        let mut aug = self.clone();
        let mut rhs = b.to_vec();
        let mut pivot_cols = Vec::new();
        let mut r = 0;
        for c in 0..self.cols {
            // find pivot
            let Some(p) = (r..self.rows).find(|&i| !aug[(i, c)].is_zero()) else {
                continue;
            };
            aug.swap_rows(r, p);
            rhs.swap(r, p);
            let inv = aug[(r, c)].inverse().expect("pivot nonzero");
            for j in c..self.cols {
                aug[(r, j)] *= inv;
            }
            rhs[r] *= inv;
            for i in 0..self.rows {
                if i != r && !aug[(i, c)].is_zero() {
                    let f = aug[(i, c)];
                    for j in c..self.cols {
                        let delta = f * aug[(r, j)];
                        aug[(i, j)] -= delta;
                    }
                    let delta = f * rhs[r];
                    rhs[i] -= delta;
                }
            }
            pivot_cols.push(c);
            r += 1;
            if r == self.rows {
                break;
            }
        }
        // inconsistency: zero row with nonzero rhs
        for i in r..self.rows {
            if !rhs[i].is_zero() {
                return None;
            }
        }
        let mut x = vec![F::ZERO; self.cols];
        for (row, &c) in pivot_cols.iter().enumerate() {
            x[c] = rhs[row];
        }
        Some(x)
    }

    fn swap_rows(&mut self, a: usize, b: usize) {
        if a == b {
            return;
        }
        for j in 0..self.cols {
            self.data.swap(a * self.cols + j, b * self.cols + j);
        }
    }
}

/// Inner product of two equal-length slices, by [`Field::dot`].
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot<F: Field>(a: &[F], b: &[F]) -> F {
    F::dot(a, b)
}

impl<F: Field> std::ops::Index<(usize, usize)> for Matrix<F> {
    type Output = F;
    fn index(&self, (i, j): (usize, usize)) -> &F {
        &self.data[i * self.cols + j]
    }
}

impl<F: Field> std::ops::IndexMut<(usize, usize)> for Matrix<F> {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut F {
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fp61, Gf2_16};

    fn m(rows: usize, cols: usize, vs: &[u64]) -> Matrix<Fp61> {
        Matrix::from_rows(rows, cols, vs.iter().map(|&v| Fp61::from_u64(v)).collect())
    }

    #[test]
    fn mul_vec_identity() {
        let id = Matrix::<Fp61>::identity(4);
        let x: Vec<Fp61> = (1..=4).map(Fp61::from_u64).collect();
        assert_eq!(id.mul_vec(&x), x);
    }

    #[test]
    fn mul_mat_associates_with_vec() {
        let a = m(2, 3, &[1, 2, 3, 4, 5, 6]);
        let b = m(3, 2, &[7, 8, 9, 10, 11, 12]);
        let x: Vec<Fp61> = vec![Fp61::from_u64(1), Fp61::from_u64(2)];
        assert_eq!(a.mul_mat(&b).mul_vec(&x), a.mul_vec(&b.mul_vec(&x)));
    }

    #[test]
    fn transpose_involution() {
        let a = m(2, 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose().rows(), 3);
    }

    #[test]
    fn solve_full_rank() {
        let a = m(3, 3, &[2, 1, 1, 1, 3, 2, 1, 0, 0]);
        let x_true: Vec<Fp61> = vec![Fp61::from_u64(5), Fp61::from_u64(7), Fp61::from_u64(11)];
        let b = a.mul_vec(&x_true);
        let x = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&x), b);
        assert_eq!(x, x_true);
    }

    #[test]
    fn solve_inconsistent_returns_none() {
        // rows identical but different rhs
        let a = m(2, 2, &[1, 1, 1, 1]);
        let b = vec![Fp61::from_u64(1), Fp61::from_u64(2)];
        assert!(a.solve(&b).is_none());
    }

    #[test]
    fn solve_underdetermined_returns_some_solution() {
        let a = m(1, 3, &[1, 2, 3]);
        let b = vec![Fp61::from_u64(10)];
        let x = a.solve(&b).unwrap();
        assert_eq!(a.mul_vec(&x), b);
    }

    #[test]
    fn vandermonde_shape() {
        let pts: Vec<Fp61> = (1..=5).map(Fp61::from_u64).collect();
        let v = Matrix::vandermonde(&pts, 4);
        assert_eq!((v.rows(), v.cols()), (5, 4));
        assert_eq!(v[(2, 3)], Fp61::from_u64(27)); // 3^3
    }

    #[test]
    fn vandermonde_matches_poly_eval_gf2m() {
        let pts: Vec<Gf2_16> = (1..=6).map(Gf2_16::from_u64).collect();
        let v = Matrix::vandermonde(&pts, 3);
        let coeffs = vec![
            Gf2_16::from_u64(3),
            Gf2_16::from_u64(1),
            Gf2_16::from_u64(4),
        ];
        let p = crate::Poly::new(coeffs.clone());
        assert_eq!(v.mul_vec(&coeffs), p.eval_many(&pts));
    }

    #[test]
    fn dot_product() {
        let a: Vec<Fp61> = vec![Fp61::from_u64(1), Fp61::from_u64(2)];
        let b: Vec<Fp61> = vec![Fp61::from_u64(3), Fp61::from_u64(4)];
        assert_eq!(dot(&a, &b), Fp61::from_u64(11));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        let a = vec![Fp61::ONE];
        let b = vec![Fp61::ONE, Fp61::ONE];
        let _ = dot(&a, &b);
    }
}
