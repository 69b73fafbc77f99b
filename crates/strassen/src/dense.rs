//! Dense matrices and classical multiplication kernels.
//!
//! The distributed experiments only need a *model* of the computation, but a
//! real local kernel serves two purposes: it validates the Strassen-Winograd
//! recursion against classical multiplication, and it calibrates the
//! per-core compute rate used to predict the computation times reported in
//! Figures 5 and 6.

use rand::Rng;
use rayon::prelude::*;

/// A dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// The identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// A matrix with entries drawn uniformly from `[-1, 1)`.
    pub fn random<R: Rng>(rows: usize, cols: usize, rng: &mut R) -> Self {
        Self {
            rows,
            cols,
            data: (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect(),
        }
    }

    /// Build from a closure over `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Raw data in row-major order.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Maximum absolute difference from another matrix.
    ///
    /// # Panics
    /// Panics if shapes differ.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max)
    }

    /// Element-wise sum.
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a + b)
                .collect(),
        }
    }

    /// Element-wise difference.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows);
        assert_eq!(self.cols, other.cols);
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }

    /// The `(top-left, top-right, bottom-left, bottom-right)` quadrants of a
    /// square matrix with even dimension.
    ///
    /// # Panics
    /// Panics unless the matrix is square with even dimension.
    pub fn split_quadrants(&self) -> (Matrix, Matrix, Matrix, Matrix) {
        assert_eq!(self.rows, self.cols, "quadrant split needs a square matrix");
        assert!(
            self.rows.is_multiple_of(2),
            "quadrant split needs an even dimension"
        );
        let h = self.rows / 2;
        let quad =
            |ri: usize, ci: usize| Matrix::from_fn(h, h, |i, j| self[(ri * h + i, ci * h + j)]);
        (quad(0, 0), quad(0, 1), quad(1, 0), quad(1, 1))
    }

    /// Assemble a square matrix from four equally-sized quadrants.
    pub fn from_quadrants(c11: &Matrix, c12: &Matrix, c21: &Matrix, c22: &Matrix) -> Matrix {
        let h = c11.rows;
        assert!(
            [c12, c21, c22].iter().all(|m| m.rows == h && m.cols == h) && c11.cols == h,
            "quadrants must be square and equally sized"
        );
        Matrix::from_fn(2 * h, 2 * h, |i, j| match (i < h, j < h) {
            (true, true) => c11[(i, j)],
            (true, false) => c12[(i, j - h)],
            (false, true) => c21[(i - h, j)],
            (false, false) => c22[(i - h, j - h)],
        })
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        &mut self.data[i * self.cols + j]
    }
}

/// Classical triple-loop multiplication (ikj order for cache friendliness).
///
/// # Panics
/// Panics if the inner dimensions disagree.
pub fn matmul_classical(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let mut c = Matrix::zeros(a.rows, b.cols);
    for i in 0..a.rows {
        for k in 0..a.cols {
            let aik = a[(i, k)];
            for j in 0..b.cols {
                c[(i, j)] += aik * b[(k, j)];
            }
        }
    }
    c
}

/// Row-parallel classical multiplication using rayon.
pub fn matmul_parallel(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols, b.rows, "inner dimensions must agree");
    let cols = b.cols;
    let data: Vec<f64> = (0..a.rows)
        .into_par_iter()
        .flat_map_iter(|i| {
            let mut row = vec![0.0f64; cols];
            for k in 0..a.cols {
                let aik = a[(i, k)];
                let brow = &b.data[k * cols..(k + 1) * cols];
                for (rj, bv) in row.iter_mut().zip(brow) {
                    *rj += aik * bv;
                }
            }
            row.into_iter()
        })
        .collect();
    Matrix {
        rows: a.rows,
        cols,
        data,
    }
}

/// Floating-point operation count of a classical `n x n` multiplication.
pub fn classical_flops(n: u64) -> u64 {
    2 * n * n * n
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn identity_is_neutral() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Matrix::random(8, 8, &mut rng);
        let i = Matrix::identity(8);
        assert!(matmul_classical(&a, &i).max_abs_diff(&a) < 1e-12);
        assert!(matmul_classical(&i, &a).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn classical_matches_manual_small_case() {
        let a = Matrix::from_fn(2, 3, |i, j| (i * 3 + j) as f64);
        let b = Matrix::from_fn(3, 2, |i, j| (i * 2 + j) as f64 + 1.0);
        let c = matmul_classical(&a, &b);
        // a = [[0,1,2],[3,4,5]], b = [[1,2],[3,4],[5,6]]
        assert_eq!(c[(0, 0)], 13.0);
        assert_eq!(c[(0, 1)], 16.0);
        assert_eq!(c[(1, 0)], 40.0);
        assert_eq!(c[(1, 1)], 52.0);
    }

    #[test]
    fn parallel_matches_classical() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::random(33, 17, &mut rng);
        let b = Matrix::random(17, 29, &mut rng);
        let diff = matmul_parallel(&a, &b).max_abs_diff(&matmul_classical(&a, &b));
        assert!(diff < 1e-10, "parallel and classical differ by {diff}");
    }

    #[test]
    fn quadrant_roundtrip() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::random(16, 16, &mut rng);
        let (q11, q12, q21, q22) = a.split_quadrants();
        let back = Matrix::from_quadrants(&q11, &q12, &q21, &q22);
        assert!(back.max_abs_diff(&a) < 1e-15);
    }

    #[test]
    fn add_sub_roundtrip() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = Matrix::random(10, 10, &mut rng);
        let b = Matrix::random(10, 10, &mut rng);
        assert!(a.add(&b).sub(&b).max_abs_diff(&a) < 1e-12);
    }

    #[test]
    fn flops_formula() {
        assert_eq!(classical_flops(10), 2000);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_shapes_panic() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let _ = matmul_classical(&a, &b);
    }
}
