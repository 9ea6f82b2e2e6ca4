//! Ordinary least squares — the "Least squared regression" family of the
//! IReS Modelling module, fitted on whatever window it is handed (the window
//! policy lives in [`crate::selection`]).

use crate::regressor::Regressor;
use midas_dream::mlr::{self, MlrModel, SolveMethod};
use midas_dream::EstimationError;

/// Least-squares regression over the full training window.
#[derive(Debug, Clone, Default)]
pub struct OlsRegressor {
    model: Option<MlrModel>,
}

impl OlsRegressor {
    /// OLS with the default (normal-equation) solver.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fitted model, if any.
    pub fn model(&self) -> Option<&MlrModel> {
        self.model.as_ref()
    }
}

impl Regressor for OlsRegressor {
    fn family(&self) -> &'static str {
        "ols"
    }

    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<(), EstimationError> {
        self.model = Some(mlr::fit(xs, ys, SolveMethod::default())?);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, EstimationError> {
        self.model
            .as_ref()
            .ok_or(EstimationError::NotFitted)?
            .predict(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fits_linear_data() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = (0..6).map(|i| 1.0 + 2.0 * i as f64).collect();
        let mut ols = OlsRegressor::new();
        ols.fit(&refs, &ys).unwrap();
        assert!((ols.predict(&[10.0]).unwrap() - 21.0).abs() < 1e-8);
        assert_eq!(ols.family(), "ols");
        assert!(ols.model().unwrap().r_squared > 0.999);
    }

    #[test]
    fn predict_before_fit_fails() {
        let ols = OlsRegressor::new();
        assert!(matches!(
            ols.predict(&[1.0]),
            Err(EstimationError::NotFitted)
        ));
    }
}
