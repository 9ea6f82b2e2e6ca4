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
//! R² = 1 − SSE/SST                       (Eq. 14)
//! ```
//!
//! Rather than training on *all* history (which in a drifting federation mixes
//! in expired observations) or on a fixed window (which may be too small for a
//! reliable fit), Algorithm 1 starts from the statistical minimum window
//! `m = L + 2` and grows it until every cost metric's `R²` reaches the
//! user-required threshold (default 0.8) or a cap `Mmax` (default 30) is hit.
//! Each window is fitted by standardized ridge regression with penalty
//! [`dream::RIDGE_LAMBDA`] rather than the paper's normal equations
//! (Eq. 12): windows are small and their sizes grow together, and ridge
//! keeps such locally collinear fits from extrapolating absurd costs. One
//! configuration serves everywhere, [`DreamEstimator::paper_defaults`].
//!
//! Crate layout:
//!
//! * [`history`] — `(feature vector, cost vector)` observations kept in
//!   arrival order, with cheap recency windows.
//! * [`mlr`] — the MLR fit itself: standardized ridge, and the paper's
//!   normal equations (Cholesky on the Gram matrix with ridge fallback) or
//!   Householder QR, which Table 2's exact `R²` needs.
//! * [`estimator`] — the [`estimator::CostEstimator`] trait shared with the
//!   baseline learners in `midas-mlearn` and consumed by the IReS Modelling
//!   module.
//! * [`dream`] — Algorithm 1, its configuration and
//!   [`dream::estimate_cost_value`], the reference that refits every window.
//! * [`incremental`] — the online path [`DreamEstimator`] runs: the same
//!   walk from running sums, one rank-1 update per window.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dream;
pub mod estimator;
pub mod history;
pub mod incremental;
pub mod mlr;

pub use crate::dream::{
    estimate_cost_value, DreamConfig, DreamEstimator, DreamOutcome, RIDGE_LAMBDA,
};
pub use estimator::{CostEstimator, EstimationError, FitReport};
pub use incremental::estimate_cost_value_incremental;
pub use history::{History, Observation};
pub use mlr::{MlrModel, SolveMethod};
