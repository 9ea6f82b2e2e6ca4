//! Householder QR decomposition and least-squares solving.
//!
//! Solving least squares through QR avoids forming `AᵀA` (which squares the
//! condition number). Table 2's exact `R²` is checked through both the
//! paper's normal equations and QR, so the QR route is a first-class citizen
//! here.

use crate::{LinalgError, Matrix, Result};

/// Compact Householder QR factorization of an `m x n` matrix with `m >= n`.
#[derive(Debug, Clone)]
pub struct QrDecomposition {
    /// Upper triangle holds `R`; the lower part stores the Householder
    /// vectors' tails (v[0] implied to be 1 after normalization).
    qr: Matrix,
    /// Scaling coefficient of each Householder reflector.
    betas: Vec<f64>,
}

impl QrDecomposition {
    /// Factors `a` (requires `rows >= cols`).
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(LinalgError::ShapeMismatch {
                rows_a: m,
                cols_a: n,
                rows_b: n,
                cols_b: n,
            });
        }
        let mut qr = a.clone();
        let mut betas = vec![0.0; n];

        for k in 0..n {
            // Build reflector annihilating column k below the diagonal.
            let mut norm = 0.0;
            for i in k..m {
                norm += qr[(i, k)] * qr[(i, k)];
            }
            let norm = norm.sqrt();
            if norm < 1e-300 {
                betas[k] = 0.0;
                continue;
            }
            let alpha = if qr[(k, k)] >= 0.0 { -norm } else { norm };
            let v0 = qr[(k, k)] - alpha;
            // beta = 2 / (vᵀv) with v = (v0, tail...)
            let mut vtv = v0 * v0;
            for i in (k + 1)..m {
                vtv += qr[(i, k)] * qr[(i, k)];
            }
            if vtv < 1e-300 {
                betas[k] = 0.0;
                qr[(k, k)] = alpha;
                continue;
            }
            let beta = 2.0 / vtv;
            betas[k] = beta;

            // Apply H = I - beta v vᵀ to the trailing columns.
            for j in (k + 1)..n {
                let mut dot = v0 * qr[(k, j)];
                for i in (k + 1)..m {
                    dot += qr[(i, k)] * qr[(i, j)];
                }
                let dot = beta * dot;
                qr[(k, j)] -= dot * v0;
                for i in (k + 1)..m {
                    let sub = dot * qr[(i, k)];
                    qr[(i, j)] -= sub;
                }
            }
            // Store R's diagonal and the v tail (v0 kept separately via alpha).
            qr[(k, k)] = alpha;
            // Normalize tail by v0 so v = (1, tail/v0); fold v0 into beta.
            for i in (k + 1)..m {
                qr[(i, k)] /= v0;
            }
            betas[k] = beta * v0 * v0;
        }

        Ok(QrDecomposition { qr, betas })
    }

    /// Solves the least-squares problem `min ||A·x - b||₂`.
    ///
    /// Fails with [`LinalgError::Singular`] when `R` has a (near-)zero
    /// diagonal, i.e. the design matrix is rank deficient.
    pub fn solve_least_squares(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.qr.rows();
        let n = self.qr.cols();
        if b.len() != m {
            return Err(LinalgError::ShapeMismatch {
                rows_a: m,
                cols_a: n,
                rows_b: b.len(),
                cols_b: 1,
            });
        }
        // Apply the stored reflectors to b: Qᵀb.
        let mut y = b.to_vec();
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            // v = (1, qr[k+1..m, k])
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.qr[(i, k)] * y[i];
            }
            let dot = beta * dot;
            y[k] -= dot;
            for i in (k + 1)..m {
                let sub = dot * self.qr[(i, k)];
                y[i] -= sub;
            }
        }
        // Back substitution through R.
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let d = self.qr[(i, i)];
            if d.abs() < 1e-12 {
                return Err(LinalgError::Singular { pivot: i });
            }
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qr[(i, j)] * x[j];
            }
            x[i] = acc / d;
        }
        Ok(x)
    }

    /// The upper-triangular factor `R` (n x n).
    pub fn r(&self) -> Matrix {
        let n = self.qr.cols();
        let mut r = Matrix::zeros(n, n);
        for i in 0..n {
            for j in i..n {
                r[(i, j)] = self.qr[(i, j)];
            }
        }
        r
    }
}

/// Convenience wrapper: least-squares solve of `min ||A·x - b||` via QR.
pub fn least_squares(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    QrDecomposition::decompose(a)?.solve_least_squares(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_square_system() {
        let a = Matrix::from_vec(2, 2, vec![2., 1., 1., 3.]).unwrap();
        let x = least_squares(&a, &[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-10);
        assert!((x[1] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn overdetermined_matches_normal_equations() {
        // y = 1 + 2x fitted through 5 noisy-free points must be exact.
        let xs = [0.0, 1.0, 2.0, 3.0, 4.0];
        let mut rows = Vec::new();
        let mut b = Vec::new();
        for &x in &xs {
            rows.push(vec![1.0, x]);
            b.push(1.0 + 2.0 * x);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let a = Matrix::from_rows(&refs).unwrap();
        let beta = least_squares(&a, &b).unwrap();
        assert!((beta[0] - 1.0).abs() < 1e-10);
        assert!((beta[1] - 2.0).abs() < 1e-10);
    }

    #[test]
    fn residual_is_orthogonal_to_columns() {
        let a = Matrix::from_vec(4, 2, vec![1., 0.5, 1., 1.5, 1., 2.5, 1., 3.0]).unwrap();
        let b = [2.0, 1.0, 4.0, 3.5];
        let x = least_squares(&a, &b).unwrap();
        let fitted = a.matvec(&x).unwrap();
        let resid: Vec<f64> = b.iter().zip(fitted.iter()).map(|(u, v)| u - v).collect();
        let atr = a.transpose_matvec(&resid).unwrap();
        for v in atr {
            assert!(v.abs() < 1e-9, "residual not orthogonal: {v}");
        }
    }

    #[test]
    fn r_is_upper_triangular_with_correct_gram() {
        let a = Matrix::from_vec(4, 2, vec![1., 2., 3., 4., 5., 6., 7., 8.]).unwrap();
        let qr = QrDecomposition::decompose(&a).unwrap();
        let r = qr.r();
        // RᵀR must equal AᵀA.
        let rtr = r.transpose().matmul(&r).unwrap();
        assert!(rtr.approx_eq(&a.gram(), 1e-8));
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(QrDecomposition::decompose(&a).is_err());
    }

    #[test]
    fn rank_deficient_reported() {
        // Second column is 2x the first.
        let a = Matrix::from_vec(3, 2, vec![1., 2., 2., 4., 3., 6.]).unwrap();
        let qr = QrDecomposition::decompose(&a).unwrap();
        assert!(matches!(
            qr.solve_least_squares(&[1.0, 2.0, 3.0]),
            Err(LinalgError::Singular { .. })
        ));
    }
}
