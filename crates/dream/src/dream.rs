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

use crate::estimator::{CostEstimator, EstimationError, FitReport};
use crate::history::{History, Observation};
use crate::mlr::{self, MlrModel, SolveMethod};
use serde::{Deserialize, Serialize};

/// How Algorithm 1 enlarges the candidate window between quality tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum GrowthPolicy {
    /// The paper's `m = m + 1`.
    #[default]
    Increment,
    /// Geometric growth `m = ⌈m·2⌉` — the ablation variant; fewer refits at
    /// the price of possibly overshooting the smallest satisfying window.
    Doubling,
}

impl GrowthPolicy {
    fn next(self, m: usize) -> usize {
        match self {
            GrowthPolicy::Increment => m + 1,
            GrowthPolicy::Doubling => m.saturating_mul(2),
        }
    }
}

/// Which fit-quality statistic gates the window test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum QualityMetric {
    /// The paper's plain coefficient of determination (Eq. 14).
    #[default]
    R2,
    /// Adjusted `R²`: `1 − (1 − R²)·(m − 1)/(m − L − 1)`.
    ///
    /// At the minimum window `m = L + 2` a plain `R²` has a single residual
    /// degree of freedom and is spuriously close to 1 on almost any data,
    /// which would freeze Algorithm 1 at the smallest (highest-variance)
    /// window. The adjustment penalizes exactly that; it degenerates to the
    /// plain `R²` as `m` grows. The `ablation` bench quantifies the
    /// difference.
    AdjustedR2,
}

impl QualityMetric {
    /// Evaluates the statistic for a fit of `m` samples over `l` features.
    pub fn evaluate(&self, r_squared: f64, m: usize, l: usize) -> f64 {
        match self {
            QualityMetric::R2 => r_squared,
            QualityMetric::AdjustedR2 => {
                if m > l + 1 {
                    1.0 - (1.0 - r_squared) * (m as f64 - 1.0) / (m as f64 - l as f64 - 1.0)
                } else {
                    // No residual degrees of freedom: treat as uninformative.
                    f64::NEG_INFINITY
                }
            }
        }
    }
}

/// Configuration of Algorithm 1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DreamConfig {
    /// Required `R²` per cost metric (`R²_require`). The paper recommends
    /// 0.8 for "a sufficient quality of service level".
    pub r2_required: Vec<f64>,
    /// Upper bound on the window size (`Mmax`).
    pub m_max: usize,
    /// Window enlargement policy; the paper uses [`GrowthPolicy::Increment`].
    pub growth: GrowthPolicy,
    /// Least-squares solver; the paper's normal equations by default.
    pub solver: SolveMethod,
    /// Quality statistic compared against `r2_required`; plain `R²` by
    /// default (paper-faithful).
    #[serde(default)]
    pub quality: QualityMetric,
}

impl DreamConfig {
    /// Config with the same `R²` requirement for every one of `n_metrics`.
    pub fn uniform(r2_required: f64, n_metrics: usize, m_max: usize) -> Self {
        DreamConfig {
            r2_required: vec![r2_required; n_metrics],
            m_max,
            growth: GrowthPolicy::default(),
            solver: SolveMethod::default(),
            quality: QualityMetric::default(),
        }
    }

    /// The paper's defaults: `R² ≥ 0.8` for every metric, `Mmax = 100`.
    pub fn paper_defaults(n_metrics: usize) -> Self {
        Self::uniform(0.8, n_metrics, 100)
    }

    /// Switches the window test to adjusted `R²` (builder style).
    pub fn with_adjusted_r2(mut self) -> Self {
        self.quality = QualityMetric::AdjustedR2;
        self
    }

    /// Next window size under the configured growth policy (used by the
    /// incremental implementation to stay in lockstep with Algorithm 1).
    pub fn growth_next(&self, m: usize) -> usize {
        self.growth.next(m)
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

fn fit_window(
    window: &[Observation],
    n_metrics: usize,
    solver: SolveMethod,
) -> Result<Vec<MlrModel>, EstimationError> {
    let feats: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
    (0..n_metrics)
        .map(|k| {
            let targets = History::targets_of(window, k);
            mlr::fit(&feats, &targets, solver)
        })
        .collect()
}

/// Algorithm 1: fits per-metric MLR models on the smallest recent window
/// whose `R²` satisfies the configuration.
///
/// Needs at least `L + 2` observations in the history. When even the full
/// history (capped at `Mmax`) cannot satisfy the requirement, the models of
/// the largest tried window are returned with `satisfied = false` — the
/// paper's Modelling module still needs *some* estimate to hand the
/// optimizer.
pub fn estimate_cost_value(
    history: &History,
    config: &DreamConfig,
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
    let mut m = minimum;
    let mut rounds = 0usize;
    let mut best: Option<(Vec<MlrModel>, usize)> = None;

    let l = history.n_features();
    loop {
        rounds += 1;
        let window = history.latest(m);
        match fit_window(window, history.n_metrics(), config.solver) {
            Ok(models) => {
                let ok = models
                    .iter()
                    .zip(config.r2_required.iter())
                    .all(|(model, req)| {
                        config.quality.evaluate(model.r_squared, m, l) >= *req
                    });
                if ok {
                    return Ok(DreamOutcome {
                        models,
                        window: m,
                        satisfied: true,
                        rounds,
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
                // Singular window (e.g. duplicated feature rows): grow past it.
            }
            Err(e) => return Err(e),
        }

        if m >= limit {
            break;
        }
        m = config.growth.next(m).min(limit);
    }

    match best {
        Some((models, window)) => Ok(DreamOutcome {
            models,
            window,
            satisfied: false,
            rounds,
        }),
        None => Err(EstimationError::Numeric(
            "every candidate window was numerically singular".to_string(),
        )),
    }
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

    /// The paper-default estimator (`R² ≥ 0.8`, `Mmax = 100`).
    pub fn paper_defaults(n_metrics: usize) -> Self {
        Self::new(DreamConfig::paper_defaults(n_metrics))
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
        // Online path: rank-1 Gram updates instead of per-window refits.
        // Only the normal-equation solver shares sums across windows; other
        // solvers (ridge, QR) take the reference path.
        let outcome = if self.config.solver == SolveMethod::NormalEquations {
            crate::incremental::estimate_cost_value_incremental(history, &self.config)?
        } else {
            estimate_cost_value(history, &self.config)?
        };
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

    #[test]
    fn stops_at_minimum_window_on_clean_data() {
        let h = drifting_history(0, 30);
        let cfg = DreamConfig::uniform(0.8, 2, 100);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(out.satisfied);
        assert_eq!(out.window, h.minimum_window());
        assert_eq!(out.rounds, 1);
        // The fitted model recovers the new regime exactly.
        let pred = out.predict(&[40.0, 3.0]).unwrap();
        assert!((pred[0] - (5.0 + 80.0 + 3.0)).abs() < 1e-6);
        assert!((pred[1] - (1.0 + 20.0)).abs() < 1e-6);
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
    fn doubling_growth_reaches_satisfaction_with_fewer_rounds() {
        // Noisy-but-linear data where the minimum window fails but a larger
        // one succeeds.
        let mut h = History::new(1, 1);
        for i in 0..64 {
            let x = i as f64;
            let wiggle = if i % 2 == 0 { 3.0 } else { -3.0 };
            h.record(&[x], &[10.0 + 2.0 * x + wiggle]).unwrap();
        }
        let mut inc = DreamConfig::uniform(0.97, 1, 64);
        inc.growth = GrowthPolicy::Increment;
        let mut dbl = inc.clone();
        dbl.growth = GrowthPolicy::Doubling;
        let out_inc = estimate_cost_value(&h, &inc).unwrap();
        let out_dbl = estimate_cost_value(&h, &dbl).unwrap();
        assert!(out_inc.satisfied && out_dbl.satisfied);
        assert!(out_dbl.rounds <= out_inc.rounds);
        assert!(out_inc.window <= out_dbl.window);
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
        // Under the default normal-equation solver the estimator takes the
        // incremental path, which agrees with the reference Algorithm 1 to
        // floating-point associativity: same window, near-identical
        // predictions.
        let h = drifting_history(30, 25);
        let cfg = DreamConfig::paper_defaults(2);
        assert_eq!(cfg.solver, SolveMethod::NormalEquations);
        let mut auto = DreamEstimator::new(cfg.clone());
        let ra = auto.fit(&h).unwrap();
        let reference = estimate_cost_value(&h, &cfg).unwrap();
        assert_eq!(ra.window_used, reference.window);
        assert_eq!(ra.satisfied, reference.satisfied);
        let pa = auto.predict(&[60.0, 2.0]).unwrap();
        let pr = reference.predict(&[60.0, 2.0]).unwrap();
        for (a, b) in pa.iter().zip(pr.iter()) {
            let scale = 1.0 + a.abs().max(b.abs());
            assert!((a - b).abs() / scale < 1e-7, "{a} vs {b}");
        }
        // A non-normal-equation solver silently falls back to the reference
        // implementation rather than erroring.
        let mut ridge = DreamEstimator::new(DreamConfig {
            solver: SolveMethod::Ridge(0.05),
            ..DreamConfig::paper_defaults(2)
        });
        ridge.fit(&h).unwrap();
    }

    #[test]
    fn adjusted_r2_penalizes_the_minimum_window() {
        // Plain R² at m = L + 2 is spuriously high; adjusted R² grows the
        // window on noisy-but-linear data.
        let mut h = History::new(1, 1);
        let mut s = 77u64;
        for i in 0..40 {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = ((s % 2000) as f64 / 1000.0 - 1.0) * 4.0;
            h.record(&[i as f64], &[50.0 + 2.0 * i as f64 + noise]).unwrap();
        }
        let plain = DreamConfig::uniform(0.8, 1, 40);
        let adjusted = plain.clone().with_adjusted_r2();
        let out_plain = estimate_cost_value(&h, &plain).unwrap();
        let out_adj = estimate_cost_value(&h, &adjusted).unwrap();
        assert!(out_adj.window >= out_plain.window);
    }

    #[test]
    fn quality_metric_math() {
        // Adjusted R² equals plain R² asymptotically and is harsher at
        // small m.
        let q = QualityMetric::AdjustedR2;
        assert!(q.evaluate(0.9, 4, 2) < 0.9);
        assert!((q.evaluate(0.9, 1000, 2) - 0.9).abs() < 1e-2);
        assert_eq!(q.evaluate(0.5, 3, 2), f64::NEG_INFINITY);
        assert_eq!(QualityMetric::R2.evaluate(0.73, 4, 2), 0.73);
    }

    #[test]
    fn m_max_caps_the_window() {
        let h = drifting_history(50, 4); // fresh regime too small to fit alone
        let cfg = DreamConfig::uniform(0.999, 2, 8);
        let out = estimate_cost_value(&h, &cfg).unwrap();
        assert!(out.window <= 8);
    }
}
