//! # midas-dream
//!
//! The paper's primary contribution: **DREAM** (Dynamic REgression AlgorithM).
//!
//! DREAM estimates the cost vector of a query execution plan (QEP) in a cloud
//! federation — execution time, monetary cost, intermediate-data volume, … —
//! from a *dynamically sized window* of the most recent execution history.
//! The model is Multiple Linear Regression (paper Section 2.5, Eq. 5–12):
//!
//! ```text
//! ĉ = β̂₀ + β̂₁·x₁ + … + β̂_L·x_L          (Eq. 6)
//! B = (AᵀA)⁻¹ AᵀC                        (Eq. 12, normal equations)
//! R² = 1 − SSE/SST                       (Eq. 14)
//! ```
//!
//! Rather than training on *all* history (which in a drifting federation mixes
//! in expired observations) or on a fixed window (which may be too small for a
//! reliable fit), Algorithm 1 starts from the statistical minimum window
//! `m = L + 2` and grows it until every cost metric's `R²` reaches the
//! user-required threshold (default 0.8) or a cap `Mmax` is hit. See
//! [`dream::estimate_cost_value`] and [`dream::DreamEstimator`].
//!
//! Crate layout:
//!
//! * [`history`] — `(feature vector, cost vector)` observations kept in
//!   arrival order, with cheap recency windows.
//! * [`mlr`] — the MLR fit itself, through the paper's normal equations
//!   (Cholesky on the Gram matrix with ridge fallback) or Householder QR.
//! * [`estimator`] — the [`estimator::CostEstimator`] trait shared with the
//!   baseline learners in `midas-mlearn` and consumed by the IReS Modelling
//!   module.
//! * [`dream`] — Algorithm 1 and its configuration.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dream;
pub mod estimator;
pub mod history;
pub mod incremental;
pub mod mlr;

pub use crate::dream::{
    estimate_cost_value, DreamConfig, DreamEstimator, DreamOutcome, GrowthPolicy, QualityMetric,
};
pub use estimator::{CostEstimator, EstimationError, FitReport};
pub use incremental::estimate_cost_value_incremental;
pub use history::{History, Observation};
pub use mlr::{MlrModel, SolveMethod};
