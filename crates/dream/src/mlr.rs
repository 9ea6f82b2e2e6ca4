//! Multiple Linear Regression — the model family of paper Section 2.5.
//!
//! The fitted equation is `ĉ = β̂₀ + β̂₁x₁ + … + β̂_Lx_L` (Eq. 6). The paper
//! solves the normal equations `B = (AᵀA)⁻¹AᵀC` (Eq. 12); we factor `AᵀA`
//! with Cholesky (it is SPD for full-rank designs), fall back to a tiny ridge
//! regularizer when the design is rank-deficient, and also expose a
//! Householder-QR path; Table 2's exact `R²` is checked through both. DREAM
//! fits every window by [`SolveMethod::Ridge`].

use crate::estimator::EstimationError;
use midas_linalg::{qr::QrDecomposition, stats, Cholesky, Matrix};
use serde::{Deserialize, Serialize};

/// Which numeric route computes the least-squares coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum SolveMethod {
    /// The paper's Eq. 12: Cholesky on the Gram matrix, with a `1e-8` ridge
    /// retry when the design matrix is rank-deficient.
    #[default]
    NormalEquations,
    /// Householder QR on the design matrix itself — numerically safer for
    /// ill-conditioned designs, ~2x the flops.
    Qr,
    /// Ridge regression on *standardized* features with penalty `λ·m`.
    ///
    /// Execution histories in a slowly-evolving federation are locally
    /// collinear (all table sizes grow together within a short window), so
    /// unregularized slopes can explode and extrapolate to absurd costs at
    /// volume cliffs. Standardized ridge shrinks exactly the ill-determined
    /// directions while biasing well-determined ones by `O(λ)`. The
    /// intercept is never penalized. DREAM's small windows use
    /// [`crate::RIDGE_LAMBDA`].
    Ridge(f64),
}

/// A fitted MLR model for one cost metric.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MlrModel {
    /// `β̂₀, β̂₁, …, β̂_L` — intercept first.
    pub coefficients: Vec<f64>,
    /// Coefficient of determination `R² = 1 − SSE/SST` (Eq. 14) on the
    /// training window.
    pub r_squared: f64,
    /// Sum of squared errors on the training window (Eq. 11).
    pub sse: f64,
    /// Total sum of squares of the training targets.
    pub sst: f64,
    /// Number of training observations `M`.
    pub n_samples: usize,
}

impl MlrModel {
    /// Number of regressors `L` (excludes the intercept).
    pub fn n_features(&self) -> usize {
        self.coefficients.len() - 1
    }

    /// Evaluates `ĉ(x)` for a feature vector of length `L`.
    pub fn predict(&self, features: &[f64]) -> Result<f64, EstimationError> {
        if features.len() != self.n_features() {
            return Err(EstimationError::FeatureArity {
                expected: self.n_features(),
                got: features.len(),
            });
        }
        Ok(self.coefficients[0]
            + self.coefficients[1..]
                .iter()
                .zip(features.iter())
                .map(|(b, x)| b * x)
                .sum::<f64>())
    }
}

/// Builds the design matrix `A` of Eq. 8: a leading column of ones followed
/// by the feature columns, one row per observation.
fn design_matrix(features: &[&[f64]]) -> Matrix {
    let m = features.len();
    let l = features.first().map_or(0, |f| f.len());
    let mut data = Vec::with_capacity(m * (l + 1));
    for row in features {
        data.push(1.0);
        data.extend_from_slice(row);
    }
    Matrix::from_vec(m, l + 1, data).expect("design dimensions are consistent by construction")
}

/// Solves for the coefficient vector with the requested method.
fn solve_coefficients(
    a: &Matrix,
    targets: &[f64],
    method: SolveMethod,
) -> Result<Vec<f64>, EstimationError> {
    match method {
        SolveMethod::NormalEquations => {
            let gram = a.gram();
            let aty = a
                .transpose_matvec(targets)
                .map_err(|e| EstimationError::Numeric(e.to_string()))?;
            match Cholesky::decompose(&gram).and_then(|ch| ch.solve(&aty)) {
                Ok(b) => Ok(b),
                Err(_) => {
                    // Rank-deficient design: retry with a tiny ridge so DREAM
                    // can keep growing the window instead of aborting. The
                    // penalty is scaled to the Gram matrix's own magnitude —
                    // an absolute epsilon would vanish against features like
                    // row counts in the millions.
                    let mut ridged = gram;
                    let p = ridged.rows();
                    let trace: f64 = (0..p).map(|i| ridged[(i, i)]).sum();
                    let epsilon = (trace / p as f64).max(1.0) * 1e-8;
                    for i in 0..p {
                        ridged[(i, i)] += epsilon;
                    }
                    Cholesky::decompose(&ridged)
                        .and_then(|ch| ch.solve(&aty))
                        .map_err(|e| EstimationError::Numeric(e.to_string()))
                }
            }
        }
        SolveMethod::Qr => QrDecomposition::decompose(a)
            .and_then(|qr| qr.solve_least_squares(targets))
            .map_err(|e| EstimationError::Numeric(e.to_string())),
        SolveMethod::Ridge(lambda) => ridge_coefficients(a, targets, lambda),
    }
}

/// Standardized ridge: center/scale the feature columns (skipping the
/// leading intercept column of ones), solve `(ZᵀZ + λ·m·I)w = Zᵀy_c`, and
/// map the coefficients back to the raw scale.
///
/// Each column is first shifted by its first row, so a constant column
/// centres to exactly zero (its mean cannot round) and gets a zero slope.
fn ridge_coefficients(
    a: &Matrix,
    targets: &[f64],
    lambda: f64,
) -> Result<Vec<f64>, EstimationError> {
    let m = a.rows();
    let p = a.cols(); // 1 + L
    let l = p - 1;
    let mf = m as f64;
    // Feature `j` of row `r`, shifted by the first row (col 0 is the intercept).
    let shifted = |r: usize, j: usize| a[(r, j + 1)] - a[(0, j + 1)];

    // Means and stds of the shifted feature columns.
    let mut means = vec![0.0; l];
    let mut stds = vec![0.0; l];
    for j in 0..l {
        means[j] = (0..m).map(|r| shifted(r, j)).sum::<f64>() / mf;
        let ss: f64 = (0..m).map(|r| (shifted(r, j) - means[j]).powi(2)).sum();
        stds[j] = (ss / mf).sqrt().max(1e-12);
    }
    let y_mean = targets.iter().sum::<f64>() / mf;

    // Standardized Gram and right-hand side.
    let mut g = Matrix::zeros(l, l);
    let mut rhs = vec![0.0; l];
    for (r, y) in targets.iter().enumerate() {
        let yc = y - y_mean;
        for i in 0..l {
            let zi = (shifted(r, i) - means[i]) / stds[i];
            rhs[i] += zi * yc;
            for j in i..l {
                let zj = (shifted(r, j) - means[j]) / stds[j];
                g[(i, j)] += zi * zj;
            }
        }
    }
    for i in 0..l {
        for j in (i + 1)..l {
            g[(j, i)] = g[(i, j)];
        }
        g[(i, i)] += lambda.max(0.0) * mf;
    }

    let w = Cholesky::decompose(&g)
        .and_then(|ch| ch.solve(&rhs))
        .map_err(|e| EstimationError::Numeric(e.to_string()))?;

    // Back to raw coefficients; the raw mean of column `j` is its first row
    // plus the shifted mean.
    let mut beta = vec![0.0; p];
    for j in 0..l {
        beta[j + 1] = w[j] / stds[j];
    }
    beta[0] = y_mean
        - (0..l)
            .map(|j| beta[j + 1] * (a[(0, j + 1)] + means[j]))
            .sum::<f64>();
    Ok(beta)
}

/// `R² = 1 − SSE/SST` over `m` samples, defined as 1 for an exact fit of
/// (near-)constant targets and 0 for an inexact one.
pub(crate) fn r_squared(sse: f64, sst: f64, m: usize) -> f64 {
    if sst <= f64::EPSILON * m as f64 {
        if sse <= 1e-10 {
            1.0
        } else {
            0.0
        }
    } else {
        1.0 - sse / sst
    }
}

/// Fits an MLR model on `(features[i], targets[i])` pairs.
///
/// Requires `targets.len() >= L + 2` — the paper's smallest meaningful
/// dataset (Section 3, citing Soong) — and equal-length rows.
///
/// Degenerate targets (all identical, `SST ≈ 0`) yield `R² = 1` when the fit
/// is exact and `R² = 0` otherwise, so Algorithm 1's `R²` test remains
/// well-defined instead of dividing by zero.
pub fn fit(
    features: &[&[f64]],
    targets: &[f64],
    method: SolveMethod,
) -> Result<MlrModel, EstimationError> {
    let m = targets.len();
    if features.len() != m {
        return Err(EstimationError::Numeric(format!(
            "features ({}) and targets ({}) disagree",
            features.len(),
            m
        )));
    }
    let l = features.first().map_or(0, |f| f.len());
    if m < l + 2 {
        return Err(EstimationError::NotEnoughData {
            required: l + 2,
            available: m,
        });
    }
    if features.iter().any(|f| f.len() != l) {
        return Err(EstimationError::Numeric(
            "ragged feature rows".to_string(),
        ));
    }

    let a = design_matrix(features);
    let coefficients = solve_coefficients(&a, targets, method)?;

    let fitted = a
        .matvec(&coefficients)
        .map_err(|e| EstimationError::Numeric(e.to_string()))?;
    let sse: f64 = targets
        .iter()
        .zip(fitted.iter())
        .map(|(c, f)| (c - f) * (c - f))
        .sum();
    let mean = stats::mean(targets).expect("m >= L+2 >= 2 guarantees non-empty");
    let sst: f64 = targets.iter().map(|c| (c - mean) * (c - mean)).sum();

    Ok(MlrModel {
        coefficients,
        r_squared: r_squared(sse, sst, m),
        sse,
        sst,
        n_samples: m,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(v: &[Vec<f64>]) -> Vec<&[f64]> {
        v.iter().map(|r| r.as_slice()).collect()
    }

    #[test]
    fn exact_linear_data_gives_r2_one() {
        // c = 2 + 3x1 - x2, noise-free.
        let feats: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, (i * i) as f64 * 0.1])
            .collect();
        let targets: Vec<f64> = feats.iter().map(|f| 2.0 + 3.0 * f[0] - f[1]).collect();
        for method in [SolveMethod::NormalEquations, SolveMethod::Qr] {
            let m = fit(&rows(&feats), &targets, method).unwrap();
            assert!((m.r_squared - 1.0).abs() < 1e-9, "{method:?}");
            assert!((m.coefficients[0] - 2.0).abs() < 1e-8);
            assert!((m.coefficients[1] - 3.0).abs() < 1e-8);
            assert!((m.coefficients[2] + 1.0).abs() < 1e-8);
            assert!(m.sse < 1e-12);
        }
    }

    #[test]
    fn predict_checks_arity() {
        let feats: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let targets: Vec<f64> = (0..5).map(|i| i as f64).collect();
        let m = fit(&rows(&feats), &targets, SolveMethod::default()).unwrap();
        assert!(m.predict(&[1.0, 2.0]).is_err());
        assert!((m.predict(&[3.0]).unwrap() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn minimum_window_enforced() {
        // L = 2 requires at least 4 observations.
        let feats: Vec<Vec<f64>> = (0..3).map(|i| vec![i as f64, 1.0]).collect();
        let targets = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            fit(&rows(&feats), &targets, SolveMethod::default()),
            Err(EstimationError::NotEnoughData {
                required: 4,
                available: 3
            })
        ));
    }

    #[test]
    fn constant_target_handled() {
        let feats: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let targets = vec![5.0; 6];
        let m = fit(&rows(&feats), &targets, SolveMethod::default()).unwrap();
        // Exact fit of a constant: slope 0, intercept 5, R² defined as 1.
        assert!((m.r_squared - 1.0).abs() < 1e-9);
        assert!((m.predict(&[100.0]).unwrap() - 5.0).abs() < 1e-6);
    }

    #[test]
    fn collinear_features_survive_via_ridge() {
        // x2 = 2*x1 makes AᵀA singular; the ridge retry must still fit.
        let feats: Vec<Vec<f64>> = (0..8)
            .map(|i| vec![i as f64, 2.0 * i as f64])
            .collect();
        let targets: Vec<f64> = (0..8).map(|i| 1.0 + 4.0 * i as f64).collect();
        let m = fit(&rows(&feats), &targets, SolveMethod::NormalEquations).unwrap();
        assert!(m.r_squared > 0.999);
        // Prediction along the collinear manifold is still accurate.
        assert!((m.predict(&[3.0, 6.0]).unwrap() - 13.0).abs() < 1e-3);
    }

    #[test]
    fn qr_and_normal_equations_agree() {
        let feats: Vec<Vec<f64>> = (0..10)
            .map(|i| vec![(i as f64).sin() + 2.0, (i as f64) * 0.37])
            .collect();
        let targets: Vec<f64> = feats
            .iter()
            .enumerate()
            .map(|(i, f)| 1.0 + 2.0 * f[0] - 0.5 * f[1] + (i % 3) as f64 * 0.01)
            .collect();
        let ne = fit(&rows(&feats), &targets, SolveMethod::NormalEquations).unwrap();
        let qr = fit(&rows(&feats), &targets, SolveMethod::Qr).unwrap();
        for (a, b) in ne.coefficients.iter().zip(qr.coefficients.iter()) {
            assert!((a - b).abs() < 1e-7);
        }
        assert!((ne.r_squared - qr.r_squared).abs() < 1e-9);
    }

    #[test]
    fn ridge_matches_ols_on_well_conditioned_data() {
        let feats: Vec<Vec<f64>> = (0..12)
            .map(|i| vec![(i as f64 * 1.3).sin() * 5.0, (i % 4) as f64])
            .collect();
        let targets: Vec<f64> = feats.iter().map(|f| 3.0 + 2.0 * f[0] - f[1]).collect();
        let ols = fit(&rows(&feats), &targets, SolveMethod::NormalEquations).unwrap();
        let ridge = fit(&rows(&feats), &targets, SolveMethod::Ridge(1e-6)).unwrap();
        let probe = [2.0, 1.0];
        let po = ols.predict(&probe).unwrap();
        let pr = ridge.predict(&probe).unwrap();
        assert!((po - pr).abs() < 1e-3 * (1.0 + po.abs()), "{po} vs {pr}");
    }

    #[test]
    fn ridge_tames_collinear_extrapolation() {
        // Two near-collinear features over a narrow range, with noise, then
        // predict far below the training range — the archive-cliff case.
        let feats: Vec<Vec<f64>> = (0..6)
            .map(|i| {
                let f = 0.8 + 0.04 * i as f64;
                vec![1000.0 * f, 50_000.0 * f + if i % 2 == 0 { 300.0 } else { -300.0 }]
            })
            .collect();
        let targets: Vec<f64> = feats
            .iter()
            .enumerate()
            .map(|(i, f)| 10.0 + 0.0002 * f[1] + if i % 2 == 0 { 0.4 } else { -0.4 })
            .collect();
        let probe = [400.0, 20_000.0]; // far outside the window
        let ols = fit(&rows(&feats), &targets, SolveMethod::NormalEquations).unwrap();
        let ridge = fit(&rows(&feats), &targets, SolveMethod::Ridge(0.05)).unwrap();
        let truth = 10.0 + 0.0002 * probe[1];
        let ols_err = (ols.predict(&probe).unwrap() - truth).abs();
        let ridge_err = (ridge.predict(&probe).unwrap() - truth).abs();
        assert!(
            ridge_err < ols_err * 0.9 + 1.0,
            "ridge {ridge_err} should beat OLS {ols_err} out of range"
        );
        assert!(ridge.predict(&probe).unwrap() > 0.0, "cost stays positive");
    }

    #[test]
    fn ridge_gives_a_constant_non_integer_column_no_slope() {
        // A column fixed at 123 456.789 has no variance: ridge must give it
        // slope 0 and put its level into the intercept, not fit the
        // rounding error of its mean.
        let feats: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64 * 1.5, 123_456.789]).collect();
        let targets: Vec<f64> = (0..5)
            .map(|i| 2.0 + 0.8 * i as f64 + (i % 3) as f64 * 0.1)
            .collect();
        let ridge = fit(&rows(&feats), &targets, SolveMethod::Ridge(0.05)).unwrap();
        let without: Vec<Vec<f64>> = feats.iter().map(|f| vec![f[0]]).collect();
        let reduced = fit(&rows(&without), &targets, SolveMethod::Ridge(0.05)).unwrap();
        assert_eq!(ridge.coefficients[2], 0.0);
        assert_eq!(ridge.coefficients[1], reduced.coefficients[1]);
        assert!((ridge.coefficients[0] - reduced.coefficients[0]).abs() < 1e-12);
    }

    #[test]
    fn ragged_rows_rejected() {
        let r1 = vec![1.0, 2.0];
        let r2 = vec![1.0];
        let rows_bad: Vec<&[f64]> = vec![&r1, &r2, &r1, &r1];
        assert!(fit(&rows_bad, &[1.0, 2.0, 3.0, 4.0], SolveMethod::default()).is_err());
    }
}
