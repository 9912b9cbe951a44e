//! Cholesky factorization and solve for symmetric positive definite systems.
//!
//! The ridge-regularized normal equations inside censored ALS (Algorithm 2,
//! lines 6 and 11) are of the form `(HᵀH + λI) X = B` with λ > 0, which is
//! symmetric positive definite by construction — Cholesky is the right tool.

use crate::error::{LinalgError, Result};
use crate::matrix::Mat;

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Mat,
}

/// Factor a symmetric positive definite matrix `A = L Lᵀ`.
///
/// Only the lower triangle of `a` is read; symmetry is assumed, not checked.
pub fn cholesky(a: &Mat) -> Result<CholeskyFactor> {
    let (n, m) = a.shape();
    if n != m {
        return Err(LinalgError::NotSquare { rows: n, cols: m });
    }
    let mut l = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite { pivot: i });
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(CholeskyFactor { l })
}

impl CholeskyFactor {
    /// The lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Solve `A x = b` for a single right-hand side.
    pub fn solve_vec(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut x = b.to_vec();
        self.solve_panel(&mut x, 1);
        Ok(x)
    }

    /// Solve `A X = B` column-by-column for a matrix right-hand side.
    pub fn solve(&self, b: &Mat) -> Result<Mat> {
        let n = self.l.rows();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky solve",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut x = b.clone();
        self.solve_panel(x.as_mut_slice(), b.cols());
        Ok(x)
    }

    /// Solve `A X = B` in place for a row-major `n × width` panel `x`
    /// holding `B` (overwritten with `X`).
    ///
    /// The substitutions run across the whole panel row at once, but each
    /// column sees exactly the single-right-hand-side sequence — forward
    /// `y[i] -= L[i][k]·y[k]` for k ascending then `y[i] /= L[i][i]`, back
    /// `x[i] -= L[k][i]·x[k]` for k ascending then `x[i] /= L[i][i]` — so a
    /// column's result never depends on the panel width it was solved in.
    ///
    /// # Panics
    /// If `x.len() != n * width`.
    pub(crate) fn solve_panel(&self, x: &mut [f64], width: usize) {
        let n = self.l.rows();
        assert_eq!(x.len(), n * width, "cholesky panel must be {n} rows of {width}");
        // Forward substitution: L Y = B.
        for i in 0..n {
            let (done, rest) = x.split_at_mut(i * width);
            let xi = &mut rest[..width];
            for k in 0..i {
                let lik = self.l[(i, k)];
                for (y, &yk) in xi.iter_mut().zip(&done[k * width..(k + 1) * width]) {
                    *y -= lik * yk;
                }
            }
            let d = self.l[(i, i)];
            for y in xi.iter_mut() {
                *y /= d;
            }
        }
        // Back substitution: Lᵀ X = Y.
        for i in (0..n).rev() {
            let (head, tail) = x.split_at_mut((i + 1) * width);
            let xi = &mut head[i * width..];
            for k in i + 1..n {
                let lki = self.l[(k, i)];
                let xk = &tail[(k - i - 1) * width..(k - i) * width];
                for (v, &vk) in xi.iter_mut().zip(xk) {
                    *v -= lki * vk;
                }
            }
            let d = self.l[(i, i)];
            for v in xi.iter_mut() {
                *v /= d;
            }
        }
    }
}

/// One-shot `A x = B` solve for SPD `A`.
pub fn cholesky_solve(a: &Mat, b: &Mat) -> Result<Mat> {
    cholesky(a)?.solve(b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::norms::max_abs_diff;

    #[test]
    fn factor_hand_computed() {
        // A = [[4, 2], [2, 3]] => L = [[2, 0], [1, sqrt(2)]]
        let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
        let f = cholesky(&a).unwrap();
        assert!((f.l()[(0, 0)] - 2.0).abs() < 1e-12);
        assert!((f.l()[(1, 0)] - 1.0).abs() < 1e-12);
        assert!((f.l()[(1, 1)] - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn reconstructs_a() {
        let a = Mat::from_rows(&[&[6.0, 2.0, 1.0], &[2.0, 5.0, 2.0], &[1.0, 2.0, 4.0]]);
        let f = cholesky(&a).unwrap();
        let rebuilt = f.l().matmul(&f.l().transpose()).unwrap();
        assert!(max_abs_diff(&a, &rebuilt) < 1e-12);
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = Mat::from_rows(&[&[6.0, 2.0], &[2.0, 5.0]]);
        let x_true = vec![1.5, -2.0];
        let b = a.matvec(&x_true).unwrap();
        let x = cholesky(&a).unwrap().solve_vec(&b).unwrap();
        for (xi, ti) in x.iter().zip(x_true.iter()) {
            assert!((xi - ti).abs() < 1e-12);
        }
    }

    #[test]
    fn solve_matrix_rhs() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let x_true = Mat::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]);
        let b = a.matmul(&x_true).unwrap();
        let x = cholesky_solve(&a, &b).unwrap();
        assert!(max_abs_diff(&x, &x_true) < 1e-12);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert!(matches!(cholesky(&a), Err(LinalgError::NotPositiveDefinite { .. })));
    }

    #[test]
    fn rejects_rectangular() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(cholesky(&a), Err(LinalgError::NotSquare { .. })));
    }
}
