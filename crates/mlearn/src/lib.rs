//! # midas-mlearn
//!
//! The machine-learning baselines of the IReS Modelling module (paper
//! Section 2.4 and Section 4.3). IReS trains *several* predictors — least
//! squares regression, bagging predictors, a multilayer perceptron (the
//! WEKA trio the paper cites) — and keeps whichever has the smallest error:
//! the paper calls that winner **BML** ("Best Machine Learning model").
//!
//! The experiments of Tables 3 and 4 compare DREAM against BML trained on
//! fixed observation windows `N`, `2N`, `3N` and on the whole history; this
//! crate provides exactly those baselines:
//!
//! * [`ols`] — ordinary least squares on the full window,
//! * [`tree`] + [`bagging`] — CART-style regression trees and Breiman
//!   bagging over bootstrap resamples,
//! * [`mlp`] — a from-scratch multilayer perceptron with backprop,
//! * [`selection`] — the [`selection::BmlEstimator`]: per cost metric, train
//!   every family, score it on the training window (or, under
//!   `SelectionPolicy::HoldoutValidation`, on a held-out suffix), keep the
//!   best — behind the same [`midas_dream::CostEstimator`] trait DREAM
//!   implements.
//!
//! All stochastic learners draw from seeded [`rand::rngs::StdRng`] state, so
//! every experiment in the workspace is reproducible bit-for-bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Backprop loops index weights/activations explicitly to mirror the math.
#![allow(clippy::needless_range_loop)]

pub mod bagging;
pub mod mlp;
pub mod ols;
pub mod regressor;
pub mod selection;
pub mod tree;

pub use bagging::BaggingRegressor;
pub use mlp::MlpRegressor;
pub use ols::OlsRegressor;
pub use regressor::Regressor;
pub use selection::{BmlEstimator, RegressorFamily, SelectionPolicy, WindowSpec};
