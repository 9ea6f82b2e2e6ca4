//! The single-target regressor abstraction shared by all baseline families.

use midas_dream::EstimationError;

/// A single-output regression model.
///
/// The IReS Modelling module treats the database system as a black box: any
/// model family mapping a feature vector to a scalar cost qualifies. Models
/// are fitted per cost metric; [`crate::selection::BmlEstimator`] assembles
/// them into the multi-metric [`midas_dream::CostEstimator`] interface.
pub trait Regressor: Send + Sync {
    /// Family name for reports ("ols", "bagging", "mlp", "knn").
    fn family(&self) -> &'static str;

    /// Fits on parallel `(xs[i], ys[i])` rows. `xs` rows share one length.
    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<(), EstimationError>;

    /// Predicts the target for a feature vector.
    fn predict(&self, x: &[f64]) -> Result<f64, EstimationError>;

    /// Minimum number of training rows the family needs for `l` features.
    fn min_samples(&self, l: usize) -> usize {
        l + 2
    }
}

/// Mean squared error between `predicted` and `actual`.
pub fn mse(predicted: &[f64], actual: &[f64]) -> f64 {
    if predicted.is_empty() {
        return f64::INFINITY;
    }
    predicted
        .iter()
        .zip(actual.iter())
        .map(|(p, a)| (p - a) * (p - a))
        .sum::<f64>()
        / predicted.len() as f64
}

/// Standardization (z-score) parameters learned on training data.
///
/// The MLP is scale-sensitive, and table sizes span orders of magnitude, so
/// features and targets are standardized before training and predictions are
/// mapped back.
#[derive(Debug, Clone)]
pub struct Standardizer {
    means: Vec<f64>,
    /// Standard deviations clamped away from zero so constant features don't
    /// produce NaNs.
    stds: Vec<f64>,
}

impl Standardizer {
    /// Learns per-column mean and standard deviation from rows.
    pub fn fit(xs: &[&[f64]]) -> Self {
        let l = xs.first().map_or(0, |r| r.len());
        let n = xs.len().max(1) as f64;
        let mut means = vec![0.0; l];
        for row in xs {
            for (m, v) in means.iter_mut().zip(row.iter()) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0; l];
        for row in xs {
            for ((s, v), m) in stds.iter_mut().zip(row.iter()).zip(means.iter()) {
                *s += (v - m) * (v - m);
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        Standardizer { means, stds }
    }

    /// Transforms one row into z-scores.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        x.iter()
            .zip(self.means.iter().zip(self.stds.iter()))
            .map(|(v, (m, s))| (v - m) / s)
            .collect()
    }

    /// The z-score of value `v` in column `col`: one entry of
    /// [`Standardizer::transform`], for a caller that lays rows out itself.
    pub(crate) fn z(&self, col: usize, v: f64) -> f64 {
        (v - self.means[col]) / self.stds[col]
    }

    /// Number of columns this standardizer was fitted on.
    pub fn width(&self) -> usize {
        self.means.len()
    }
}

/// Scalar standardizer for targets.
#[derive(Debug, Clone, Copy)]
pub struct ScalarScaler {
    mean: f64,
    std: f64,
}

impl ScalarScaler {
    /// Learns mean/std of a target vector.
    pub fn fit(ys: &[f64]) -> Self {
        let n = ys.len().max(1) as f64;
        let mean = ys.iter().sum::<f64>() / n;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / n;
        let std = var.sqrt().max(1e-12);
        ScalarScaler { mean, std }
    }

    /// To z-score.
    pub fn transform(&self, y: f64) -> f64 {
        (y - self.mean) / self.std
    }

    /// From z-score back to the original scale.
    pub fn inverse(&self, z: f64) -> f64 {
        z * self.std + self.mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_basics() {
        assert_eq!(mse(&[], &[]), f64::INFINITY);
        assert_eq!(mse(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!((mse(&[0.0, 0.0], &[1.0, -1.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_roundtrip() {
        let rows: Vec<Vec<f64>> = vec![vec![1.0, 100.0], vec![3.0, 300.0], vec![5.0, 500.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let st = Standardizer::fit(&refs);
        let z = st.transform(&[3.0, 300.0]);
        assert!(z[0].abs() < 1e-12 && z[1].abs() < 1e-12);
        let z = st.transform(&[5.0, 500.0]);
        assert!(z[0] > 0.0 && z[1] > 0.0);
    }

    #[test]
    fn standardizer_constant_column_is_safe() {
        let rows: Vec<Vec<f64>> = vec![vec![7.0], vec![7.0], vec![7.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let st = Standardizer::fit(&refs);
        let z = st.transform(&[7.0]);
        assert!(z[0].is_finite());
    }

    #[test]
    fn scalar_scaler_roundtrip() {
        let sc = ScalarScaler::fit(&[10.0, 20.0, 30.0]);
        let z = sc.transform(25.0);
        assert!((sc.inverse(z) - 25.0).abs() < 1e-12);
    }
}
