//! Minimal dense linear algebra: just enough to sample correlated Gaussian
//! fields (a symmetric matrix store and a Cholesky factorization with
//! diagonal jitter for near-PSD inputs).

use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Creates a zero-filled matrix.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
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

    /// Borrow the underlying row-major data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols);
        &mut self.data[r * self.cols + c]
    }
}

/// Error returned when a Cholesky factorization fails even after jitter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CholeskyError {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
}

impl fmt::Display for CholeskyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "matrix is not positive definite (breakdown at pivot {})",
            self.pivot
        )
    }
}

impl std::error::Error for CholeskyError {}

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerTriangular {
    n: usize,
    /// Packed rows: row i holds i+1 entries.
    data: Vec<f64>,
}

impl LowerTriangular {
    /// Factors the symmetric matrix `a`.
    ///
    /// Correlation matrices built from valid variogram models are PSD but can
    /// be numerically semi-definite; a small diagonal jitter (growing by 10x
    /// up to `1e-6`) is added automatically on breakdown.
    ///
    /// # Errors
    ///
    /// Returns [`CholeskyError`] if the matrix is not positive definite even
    /// with the maximum jitter.
    ///
    /// # Panics
    ///
    /// Panics if `a` is not square.
    pub fn cholesky(a: &Matrix) -> Result<Self, CholeskyError> {
        assert_eq!(a.rows(), a.cols(), "cholesky requires a square matrix");
        let mut jitter = 0.0;
        loop {
            match Self::try_factor(a, jitter) {
                Ok(l) => return Ok(l),
                Err(e) => {
                    if jitter >= 1e-6 {
                        return Err(e);
                    }
                    jitter = if jitter == 0.0 { 1e-12 } else { jitter * 10.0 };
                }
            }
        }
    }

    fn try_factor(a: &Matrix, jitter: f64) -> Result<Self, CholeskyError> {
        let n = a.rows();
        let mut l = vec![0.0; n * (n + 1) / 2];
        let row_start = |i: usize| i * (i + 1) / 2;
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                if i == j {
                    sum += jitter;
                }
                // Same products in the same order as indexing `k` in
                // `0..j`. Written over two slices because the indexed
                // form's speed depended on where the linker placed the
                // loop: after an unrelated change elsewhere, chip set-up
                // (mostly this factorization) ran up to a third slower.
                // The slice form measured no slower than the indexed one
                // at its best, but code layout can still move it:
                // re-measure set-up time after unrelated changes before
                // blaming the code that changed.
                let (ri, rj) = (row_start(i), row_start(j));
                for (a, b) in l[ri..ri + j].iter().zip(&l[rj..rj + j]) {
                    sum -= a * b;
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(CholeskyError { pivot: i });
                    }
                    l[row_start(i) + j] = sum.sqrt();
                } else {
                    l[row_start(i) + j] = sum / l[row_start(j) + j];
                }
            }
        }
        Ok(Self { n, data: l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Computes `L * z` for a vector `z` of i.i.d. standard normals, turning
    /// it into a sample of the correlated field.
    ///
    /// # Panics
    ///
    /// Panics if `z.len() != self.dim()`.
    pub fn mul_vec(&self, z: &[f64]) -> Vec<f64> {
        assert_eq!(z.len(), self.n, "vector length must match dimension");
        let mut out = vec![0.0; self.n];
        let mut start = 0;
        for (i, o) in out.iter_mut().enumerate() {
            let row = &self.data[start..start + i + 1];
            let mut acc = 0.0;
            for (lk, zk) in row.iter().zip(z.iter()) {
                acc += lk * zk;
            }
            *o = acc;
            start += i + 1;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd_3x3() -> Matrix {
        // A = M^T M + I for a simple M, guaranteed SPD.
        let mut a = Matrix::zeros(3, 3);
        let vals = [
            [4.0, 2.0, 0.6],
            [2.0, 5.0, 1.0],
            [0.6, 1.0, 3.0],
        ];
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = vals[i][j];
            }
        }
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        let a = spd_3x3();
        let l = LowerTriangular::cholesky(&a).unwrap();
        // Check A = L L^T by multiplying basis vectors.
        for j in 0..3 {
            // L L^T e_j: compute L^T e_j first via full reconstruction check
            // A[i][j] = sum_k L[i][k] L[j][k]
            let li = |r: usize, c: usize| {
                if c > r {
                    0.0
                } else {
                    l.mul_vec(&{
                        let mut v = vec![0.0; 3];
                        v[c] = 1.0;
                        v
                    })[r]
                }
            };
            for i in 0..3 {
                let mut s = 0.0;
                for k in 0..3 {
                    s += li(i, k) * li(j, k);
                }
                assert!((s - a[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(1, 1)] = -1.0;
        assert!(LowerTriangular::cholesky(&a).is_err());
    }

    #[test]
    fn jitter_rescues_semidefinite() {
        // Rank-1 matrix: PSD but singular.
        let mut a = Matrix::zeros(2, 2);
        a[(0, 0)] = 1.0;
        a[(0, 1)] = 1.0;
        a[(1, 0)] = 1.0;
        a[(1, 1)] = 1.0;
        let l = LowerTriangular::cholesky(&a).unwrap();
        assert_eq!(l.dim(), 2);
    }

    #[test]
    fn mul_vec_identity_factor_is_identity() {
        let mut a = Matrix::zeros(4, 4);
        for i in 0..4 {
            a[(i, i)] = 1.0;
        }
        let l = LowerTriangular::cholesky(&a).unwrap();
        let z = vec![1.0, -2.0, 3.0, -4.0];
        let out = l.mul_vec(&z);
        for (o, zi) in out.iter().zip(z.iter()) {
            assert!((o - zi).abs() < 1e-9);
        }
    }
}
