//! Algorithm 1 — the Dynamic REgression AlgorithM itself.
//!
//! ```text
//! function ESTIMATECOSTVALUE(R²_require, X, Mmax)
//!     for n = 1..N: R²_n ← ∅
//!     m = L + 2                          // the smallest meaningful window
//!     while (any R²_n < R²_require,n) and m < Mmax:
//!         for each cost function ĉ_n:
//!             fit MLR on the latest m observations
//!             R²_n = 1 − SSE/SST
//!         m = m + 1
//!     return ĉ_N
//! ```
//!
//! The window only ever contains the *most recent* observations, so growing
//! `m` trades recency for statistical support; stopping at the first window
//! that satisfies `R²` keeps the training set small (the paper measures it
//! staying near `N = L + 2`) and excludes expired measurements.
//!
//! Every window is fitted by standardized ridge regression with penalty
//! [`RIDGE_LAMBDA`] ([`SolveMethod::Ridge`]): the sizes in a short window
//! grow together, and unpenalized slopes on such locally collinear designs
//! extrapolate absurd costs at data-volume cliffs. [`DreamEstimator`] runs
//! the online path, [`crate::incremental`]; [`estimate_cost_value`] refits
//! every window from scratch and is its reference.

use crate::estimator::{CostEstimator, EstimationError, FitReport};
use crate::history::{History, Observation};
use crate::mlr::{self, MlrModel, SolveMethod};
use serde::{Deserialize, Serialize};

/// DREAM's ridge penalty `λ`: each window solves `(ZᵀZ + λ·m·I)w = Zᵀy_c`
/// on its standardized features.
pub const RIDGE_LAMBDA: f64 = 0.05;

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DreamConfig {
    /// Required `R²` per cost metric (`R²_require`). The paper recommends
    /// 0.8 for "a sufficient quality of service level".
    ///
    /// The ridge penalty caps the in-sample `R²` below 1 even on exact
    /// linear data (one feature: `1 − (λ/(1+λ))² ≈ 0.9977`), so a
    /// requirement close to 1 may never be met; the walk then returns the
    /// smallest window with `satisfied = false`.
    pub r2_required: Vec<f64>,
    /// Upper bound on the window size (`Mmax`).
    pub m_max: usize,
}

impl DreamConfig {
    /// Config with the same `R²` requirement for every one of `n_metrics`.
    pub fn uniform(r2_required: f64, n_metrics: usize, m_max: usize) -> Self {
        DreamConfig {
            r2_required: vec![r2_required; n_metrics],
            m_max,
        }
    }
}

/// Result of one run of Algorithm 1.
#[derive(Debug, Clone)]
pub struct DreamOutcome {
    /// One fitted MLR model per cost metric, trained on the final window.
    pub models: Vec<MlrModel>,
    /// Size of the final training window (the paper's `m`).
    pub window: usize,
    /// True when every metric met its `R²` requirement before `Mmax`.
    pub satisfied: bool,
    /// Number of windows tried (fit rounds), for the computational-cost
    /// accounting of Section 3.
    pub rounds: usize,
}

impl DreamOutcome {
    /// Predicts the full cost vector for a feature vector.
    pub fn predict(&self, features: &[f64]) -> Result<Vec<f64>, EstimationError> {
        self.models.iter().map(|m| m.predict(features)).collect()
    }

    /// Per-metric `R²` of the final fit.
    pub fn r_squared(&self) -> Vec<f64> {
        self.models.iter().map(|m| m.r_squared).collect()
    }
}

fn fit_window(window: &[Observation], n_metrics: usize) -> Result<Vec<MlrModel>, EstimationError> {
    let feats: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
    (0..n_metrics)
        .map(|k| {
            let targets = History::targets_of(window, k);
            mlr::fit(&feats, &targets, SolveMethod::Ridge(RIDGE_LAMBDA))
        })
        .collect()
}

/// Algorithm 1's walk over windows `m = L + 2, L + 3, …, min(Mmax, M)`,
/// shared by both implementations: `fit(m)` returns every metric's model on
/// the latest `m` observations, and is called with increasing `m`.
pub(crate) fn walk_windows(
    history: &History,
    config: &DreamConfig,
    mut fit: impl FnMut(usize) -> Result<Vec<MlrModel>, EstimationError>,
) -> Result<DreamOutcome, EstimationError> {
    if config.r2_required.len() != history.n_metrics() {
        return Err(EstimationError::ArityMismatch {
            expected_features: history.n_features(),
            got_features: history.n_features(),
            expected_metrics: history.n_metrics(),
            got_metrics: config.r2_required.len(),
        });
    }
    let minimum = history.minimum_window();
    if history.len() < minimum {
        return Err(EstimationError::NotEnoughData {
            required: minimum,
            available: history.len(),
        });
    }

    let limit = config.m_max.min(history.len()).max(minimum);
    let mut best: Option<(Vec<MlrModel>, usize)> = None;
    for m in minimum..=limit {
        match fit(m) {
            Ok(models) => {
                let ok = models
                    .iter()
                    .zip(config.r2_required.iter())
                    .all(|(model, req)| model.r_squared >= *req);
                if ok {
                    return Ok(DreamOutcome {
                        models,
                        window: m,
                        satisfied: true,
                        rounds: m - minimum + 1,
                    });
                }
                // Fallback when no window ever satisfies the requirement
                // (e.g. right after a load-regime shift the Modelling module
                // still needs *some* estimate): keep the *smallest* fittable
                // window. Failure usually means the recent history mixes
                // regimes, and the most recent observations are the least
                // expired — a larger window can score a higher in-sample R²
                // merely because the old regime dominates it, which is the
                // trap DREAM exists to avoid (Figure 2's recency principle).
                if best.is_none() {
                    best = Some((models, m));
                }
            }
            Err(EstimationError::Numeric(_)) => {
                // Singular window (e.g. non-finite sums): grow past it.
            }
            Err(e) => return Err(e),
        }
    }

    match best {
        Some((models, window)) => Ok(DreamOutcome {
            models,
            window,
            satisfied: false,
            rounds: limit - minimum + 1,
        }),
        None => Err(EstimationError::Numeric(
            "every candidate window was numerically singular".to_string(),
        )),
    }
}

/// Algorithm 1: fits per-metric MLR models on the smallest recent window
/// whose `R²` satisfies the configuration.
///
/// Needs at least `L + 2` observations in the history. When even the full
/// history (capped at `Mmax`) cannot satisfy the requirement, the models of
/// the smallest window are returned with `satisfied = false` — the paper's
/// Modelling module still needs *some* estimate to hand the optimizer.
///
/// This is the reference implementation: it refits every window from
/// scratch through [`mlr::fit`]. [`DreamEstimator`] runs
/// [`crate::incremental::estimate_cost_value_incremental`], which gives the
/// same windows and models from running sums.
pub fn estimate_cost_value(
    history: &History,
    config: &DreamConfig,
) -> Result<DreamOutcome, EstimationError> {
    walk_windows(history, config, |m| {
        fit_window(history.latest(m), history.n_metrics())
    })
}

/// [`CostEstimator`] adapter: DREAM as a drop-in Modelling-module predictor.
#[derive(Debug, Clone)]
pub struct DreamEstimator {
    config: DreamConfig,
    outcome: Option<DreamOutcome>,
    n_metrics: usize,
}

impl DreamEstimator {
    /// Builds an unfitted estimator from an Algorithm 1 configuration.
    pub fn new(config: DreamConfig) -> Self {
        let n_metrics = config.r2_required.len();
        DreamEstimator {
            config,
            outcome: None,
            n_metrics,
        }
    }

    /// The estimator serving and the experiments run: `R² ≥ 0.8` for every
    /// metric, `Mmax = 30`.
    pub fn paper_defaults(n_metrics: usize) -> Self {
        Self::new(DreamConfig::uniform(0.8, n_metrics, 30))
    }

    /// The outcome of the most recent fit, if any.
    pub fn last_outcome(&self) -> Option<&DreamOutcome> {
        self.outcome.as_ref()
    }

    /// The configuration in use.
    pub fn config(&self) -> &DreamConfig {
        &self.config
    }
}

impl CostEstimator for DreamEstimator {
    fn name(&self) -> String {
        "DREAM".to_string()
    }

    fn fit(&mut self, history: &History) -> Result<FitReport, EstimationError> {
        let outcome = crate::incremental::estimate_cost_value_incremental(history, &self.config)?;
        let report = FitReport {
            window_used: outcome.window,
            r_squared: outcome.r_squared().into_iter().map(Some).collect(),
            satisfied: outcome.satisfied,
        };
        self.outcome = Some(outcome);
        Ok(report)
    }

    fn predict(&self, features: &[f64]) -> Result<Vec<f64>, EstimationError> {
        self.outcome
            .as_ref()
            .ok_or(EstimationError::NotFitted)?
            .predict(features)
    }

    fn n_metrics(&self) -> usize {
        self.n_metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// History whose most recent `k` points follow one linear regime and the
    /// earlier points another — the drift scenario DREAM is built for.
    fn drifting_history(old: usize, new: usize) -> History {
        let mut h = History::new(2, 2);
        for i in 0..old {
            let x = [i as f64, (i % 5) as f64];
            // Old regime: time = 100 + x0, money = 50 + x1.
            h.record(&x, &[100.0 + x[0], 50.0 + x[1]]).unwrap();
        }
        for i in 0..new {
            let x = [(old + i) as f64, (i % 7) as f64];
            // New regime: time = 5 + 2*x0 + x1, money = 1 + 0.5*x0.
            h.record(&x, &[5.0 + 2.0 * x[0] + x[1], 1.0 + 0.5 * x[0]])
                .unwrap();
        }
        h
    }

    /// The reference ridge fit of every metric on the latest `m`
    /// observations, the models Algorithm 1 must return for window `m`.
    fn ridge_oracle(h: &History, m: usize) -> Vec<MlrModel> {
        fit_window(h.latest(m), h.n_metrics()).unwrap()
    }

    #[test]
    fn stops_at_minimum_window_on_clean_data() {
        let h = drifting_history(0, 30);
        let cfg = DreamConfig::uniform(0.8, 2, 100);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.window, h.minimum_window());
        assert_eq!(out.rounds, 1);
        // The fitted models are the ridge fits of the minimum window.
        assert_eq!(out.models, ridge_oracle(&h, h.minimum_window()));
    }

    #[test]
    fn window_stays_small_under_drift() {
        let h = drifting_history(50, 12);
        let cfg = DreamConfig::uniform(0.8, 2, 100);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(out.satisfied);
        // DREAM must not need more than the fresh-regime points.
        assert!(out.window <= 12, "window {} exceeds fresh regime", out.window);
    }

    #[test]
    fn unsatisfiable_requirement_returns_best_effort() {
        // Pure noise: R² ~ 0 at any window size.
        let mut h = History::new(1, 1);
        let mut state = 1234u64;
        for i in 0..40 {
            // Cheap deterministic pseudo-noise (xorshift).
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let noise = (state % 1000) as f64 / 1000.0;
            h.record(&[(i % 4) as f64], &[noise]).unwrap();
        }
        let cfg = DreamConfig::uniform(0.99, 1, 30);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(!out.satisfied);
        assert!(out.window <= 30);
        assert!(out.rounds > 1);
    }

    #[test]
    fn not_enough_data_is_reported() {
        let mut h = History::new(2, 1);
        h.record(&[1.0, 2.0], &[3.0]).unwrap();
        let cfg = DreamConfig::uniform(0.8, 1, 10);
        assert!(matches!(
            estimate_cost_value(&h, &cfg),
            Err(EstimationError::NotEnoughData { required: 4, .. })
        ));
    }

    #[test]
    fn config_metric_mismatch_rejected() {
        let h = drifting_history(0, 10);
        let cfg = DreamConfig::uniform(0.8, 3, 10); // history has 2 metrics
        assert!(estimate_cost_value(&h, &cfg).is_err());
    }

    #[test]
    fn estimator_trait_roundtrip() {
        let h = drifting_history(0, 20);
        let mut est = DreamEstimator::paper_defaults(2);
        assert!(matches!(
            est.predict(&[1.0, 2.0]),
            Err(EstimationError::NotFitted)
        ));
        let report = est.fit(&h).unwrap();
        assert!(report.satisfied);
        assert_eq!(report.r_squared.len(), 2);
        assert_eq!(est.n_metrics(), 2);
        assert_eq!(est.name(), "DREAM");
        let pred = est.predict(&[10.0, 1.0]).unwrap();
        assert_eq!(pred.len(), 2);
        assert!(est.last_outcome().is_some());
    }

    #[test]
    fn estimator_default_online_path_is_incremental() {
        // The estimator takes the incremental path, which agrees with the
        // reference Algorithm 1 to floating-point associativity: same
        // window, the reference's ridge predictions.
        let h = drifting_history(30, 25);
        let mut auto = DreamEstimator::paper_defaults(2);
        let ra = auto.fit(&h).unwrap();
        let reference = estimate_cost_value(&h, auto.config()).unwrap();
        assert_eq!(ra.window_used, reference.window);
        assert_eq!(ra.satisfied, reference.satisfied);
        let oracle = ridge_oracle(&h, ra.window_used);
        let pa = auto.predict(&[60.0, 2.0]).unwrap();
        for (a, model) in pa.iter().zip(&oracle) {
            let b = model.predict(&[60.0, 2.0]).unwrap();
            let scale = 1.0 + a.abs().max(b.abs());
            assert!((a - b).abs() / scale < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn m_max_caps_the_window() {
        let h = drifting_history(50, 4); // fresh regime too small to fit alone
        let cfg = DreamConfig::uniform(0.999, 2, 8);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(out.window <= 8);
    }
}
