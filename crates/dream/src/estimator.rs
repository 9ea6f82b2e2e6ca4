//! The `CostEstimator` abstraction shared by DREAM and the IReS baselines.
//!
//! The IReS Modelling module (paper Section 2.4) is pluggable: it trains one
//! or more predictors on execution history and serves multi-metric cost
//! estimates to the multi-objective optimizer. Everything downstream —
//! plan enumeration, Pareto search, plan selection — only sees this trait.

use crate::history::History;
use std::fmt;

/// Errors produced while fitting or predicting.
#[derive(Debug, Clone, PartialEq)]
pub enum EstimationError {
    /// An observation didn't match the history schema.
    ArityMismatch {
        /// Features the history expects.
        expected_features: usize,
        /// Features the observation carried.
        got_features: usize,
        /// Metrics the history expects.
        expected_metrics: usize,
        /// Metrics the observation carried.
        got_metrics: usize,
    },
    /// Not enough observations to fit: need at least `required`, got `available`.
    NotEnoughData {
        /// Minimum observations the model needs.
        required: usize,
        /// Observations actually available.
        available: usize,
    },
    /// The underlying numeric routine failed (singular design matrix, …).
    Numeric(String),
    /// Predict was called before a successful fit.
    NotFitted,
    /// A feature vector of the wrong length was passed to predict.
    FeatureArity {
        /// Expected length.
        expected: usize,
        /// Received length.
        got: usize,
    },
}

impl fmt::Display for EstimationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EstimationError::ArityMismatch {
                expected_features,
                got_features,
                expected_metrics,
                got_metrics,
            } => write!(
                f,
                "observation arity mismatch: features {got_features} (expected \
                 {expected_features}), metrics {got_metrics} (expected {expected_metrics})"
            ),
            EstimationError::NotEnoughData {
                required,
                available,
            } => write!(
                f,
                "not enough history: need {required} observations, have {available}"
            ),
            EstimationError::Numeric(msg) => write!(f, "numeric failure: {msg}"),
            EstimationError::NotFitted => write!(f, "predict called before fit"),
            EstimationError::FeatureArity { expected, got } => {
                write!(f, "feature vector length {got}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for EstimationError {}

/// Outcome summary of a fit, used for logging and the experiment harness.
#[derive(Debug, Clone, PartialEq)]
pub struct FitReport {
    /// How many of the latest observations the model actually trained on.
    pub window_used: usize,
    /// Per-metric coefficient of determination of the fitted models, when the
    /// model family defines one (MLR does; the BML baselines report `None`).
    pub r_squared: Vec<Option<f64>>,
    /// True when every metric reached the estimator's internal quality bar
    /// (always true for estimators without one).
    pub satisfied: bool,
}

/// A multi-metric cost model: train on history, predict a cost vector.
///
/// Implementations must be deterministic given the same history (stochastic
/// learners seed from fixed state) so experiments are reproducible.
///
/// The `Send + Sync` supertraits let a boxed estimator live inside the
/// lock-guarded per-query-class Modelling modules that concurrent federation
/// workers share; estimators are plain data (no interior mutability), so
/// every implementor satisfies the bounds structurally.
pub trait CostEstimator: Send + Sync {
    /// Short human-readable name ("DREAM", "BML-2N", …) used in reports.
    fn name(&self) -> String;

    /// Trains on the supplied history. Returns a [`FitReport`] describing the
    /// fit, or an error when the history cannot support one.
    fn fit(&mut self, history: &History) -> Result<FitReport, EstimationError>;

    /// Predicts the cost vector (one entry per metric) for a feature vector.
    fn predict(&self, features: &[f64]) -> Result<Vec<f64>, EstimationError>;

    /// Number of cost metrics the estimator produces once fitted.
    fn n_metrics(&self) -> usize;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render() {
        let e = EstimationError::NotEnoughData {
            required: 6,
            available: 2,
        };
        assert!(e.to_string().contains("need 6"));
        let e = EstimationError::NotFitted;
        assert!(e.to_string().contains("before fit"));
        let e = EstimationError::FeatureArity {
            expected: 3,
            got: 1,
        };
        assert!(e.to_string().contains("expected 3"));
    }
}
