//! The Modelling module: history + a pluggable estimator (paper Figure 2).
//!
//! IReS records each executed plan's features and measured costs, then
//! trains a predictor on demand. DREAM plugs in here exactly as the paper
//! describes: the training set is handed to the algorithm, which derives its
//! own (smaller) "new training set" before fitting.

use midas_dream::{CostEstimator, DreamEstimator, EstimationError, FitReport, History};
use midas_engines::lock_recover;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A history-backed, estimator-agnostic cost model for one query class.
///
/// `CostEstimator` is `Send + Sync`, so a `Modelling` can sit behind an
/// `Arc<Mutex<…>>` and be fed by many runtime workers; see
/// [`ModellingRegistry`].
pub struct Modelling {
    history: History,
    estimator: Box<dyn CostEstimator>,
    last_fit: Option<FitReport>,
}

impl Modelling {
    /// A Modelling module over `n_features` regressors and `n_metrics` cost
    /// metrics, using the supplied estimator.
    pub fn new(n_features: usize, n_metrics: usize, estimator: Box<dyn CostEstimator>) -> Self {
        Modelling {
            history: History::new(n_features, n_metrics),
            estimator,
            last_fit: None,
        }
    }

    /// Records one executed plan.
    pub fn record(&mut self, features: &[f64], costs: &[f64]) -> Result<(), EstimationError> {
        self.history.record(features, costs)
    }

    /// Refits the estimator on the current history.
    pub fn refit(&mut self) -> Result<FitReport, EstimationError> {
        let report = self.estimator.fit(&self.history)?;
        self.last_fit = Some(report.clone());
        Ok(report)
    }

    /// Predicts the cost vector for a feature vector (requires a prior
    /// successful [`Modelling::refit`]).
    pub fn estimate(&self, features: &[f64]) -> Result<Vec<f64>, EstimationError> {
        self.estimator.predict(features)
    }

    /// The estimator's display name.
    pub fn estimator_name(&self) -> String {
        self.estimator.name()
    }

    /// The recorded history.
    pub fn history(&self) -> &History {
        &self.history
    }

    /// The report of the most recent fit, if any.
    pub fn last_fit(&self) -> Option<&FitReport> {
        self.last_fit.as_ref()
    }
}

/// The concurrent Modelling store: one lock-guarded [`Modelling`] per query
/// class, shared by every worker of a federation runtime.
///
/// Workers executing queries of *different* classes learn fully in parallel
/// (each class has its own mutex); workers of the *same* class serialize
/// only for the record + refit critical section. Classes are created on
/// first observation, each with [`DreamEstimator::paper_defaults`] — the
/// one DREAM the experiments also run (standardized ridge, `R² ≥ 0.8`,
/// `Mmax = 30`) — whose online path walks its windows from running sums,
/// one rank-1 update per window: a concurrent learner never refits a window
/// from scratch.
pub struct ModellingRegistry {
    n_metrics: usize,
    classes: Mutex<HashMap<String, Arc<Mutex<Modelling>>>>,
}

impl ModellingRegistry {
    /// A registry of DREAM estimators over `n_metrics` cost metrics.
    pub fn dream_defaults(n_metrics: usize) -> Self {
        ModellingRegistry {
            n_metrics,
            classes: Mutex::new(HashMap::new()),
        }
    }

    /// The shared Modelling module of `class`, created on first use with
    /// `n_features` regressors.
    pub fn class(&self, class: &str, n_features: usize) -> Arc<Mutex<Modelling>> {
        let mut classes = lock_recover(&self.classes);
        classes
            .entry(class.to_string())
            .or_insert_with(|| {
                Arc::new(Mutex::new(Modelling::new(
                    n_features,
                    self.n_metrics,
                    Box::new(DreamEstimator::paper_defaults(self.n_metrics)),
                )))
            })
            .clone()
    }

    /// The shared Modelling module of `class` if it already exists.
    pub fn get(&self, class: &str) -> Option<Arc<Mutex<Modelling>>> {
        lock_recover(&self.classes).get(class).cloned()
    }

    /// Records one executed plan into its class and refits online.
    ///
    /// Returns the fit report, or `None` while the class's history is still
    /// too shallow to fit (the estimator keeps collecting). Any *other*
    /// refit failure — singular designs, NaN costs — is a real estimation
    /// problem and propagates.
    pub fn observe(
        &self,
        class: &str,
        features: &[f64],
        costs: &[f64],
    ) -> Result<Option<FitReport>, EstimationError> {
        let modelling = self.class(class, features.len());
        let mut modelling = lock_recover(&modelling);
        modelling.record(features, costs)?;
        match modelling.refit() {
            Ok(report) => Ok(Some(report)),
            Err(EstimationError::NotEnoughData { .. }) => Ok(None), // keep collecting
            Err(e) => Err(e),
        }
    }

    /// Class labels seen so far, sorted.
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock_recover(&self.classes).keys().cloned().collect();
        names.sort();
        names
    }

    /// Recorded observations per class, sorted by class label.
    pub fn history_lens(&self) -> Vec<(String, usize)> {
        let classes = lock_recover(&self.classes);
        let mut out: Vec<(String, usize)> = classes
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    lock_recover(m).history().len(),
                )
            })
            .collect();
        out.sort();
        out
    }

    /// Total observations across every class.
    pub fn total_observations(&self) -> usize {
        self.history_lens().iter().map(|(_, n)| n).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_dream::{estimate_cost_value, DreamConfig};
    use midas_mlearn::{BmlEstimator, WindowSpec};

    fn feed(m: &mut Modelling, n: usize) {
        for i in 0..n {
            let x = [i as f64, (i % 3) as f64];
            m.record(&x, &[10.0 + 2.0 * x[0] + x[1], 1.0 + 0.1 * x[0]])
                .unwrap();
        }
    }

    #[test]
    fn dream_behind_the_facade() {
        let mut m = Modelling::new(2, 2, Box::new(DreamEstimator::paper_defaults(2)));
        feed(&mut m, 20);
        let report = m.refit().unwrap();
        assert!(report.satisfied);
        assert_eq!(m.estimator_name(), "DREAM");
        // The estimate is the reference Algorithm 1's ridge prediction.
        let reference = estimate_cost_value(m.history(), &DreamConfig::uniform(0.8, 2, 30))
            .unwrap()
            .predict(&[30.0, 1.0])
            .unwrap();
        let est = m.estimate(&[30.0, 1.0]).unwrap();
        for (a, b) in est.iter().zip(&reference) {
            assert!((a - b).abs() <= 1e-9 * b.abs(), "{a} vs {b}");
        }
        assert!(m.last_fit().is_some());
        assert_eq!(m.history().len(), 20);
    }

    #[test]
    fn bml_behind_the_facade() {
        let mut m = Modelling::new(
            2,
            2,
            Box::new(BmlEstimator::new(WindowSpec::LatestMultiple(2), 2)),
        );
        feed(&mut m, 30);
        m.refit().unwrap();
        assert_eq!(m.estimator_name(), "BML-2N");
        let est = m.estimate(&[29.0, 2.0]).unwrap();
        assert!((est[0] - 70.0).abs() < 5.0);
    }

    #[test]
    fn registry_learns_per_class_concurrently() {
        let registry = ModellingRegistry::dream_defaults(2);
        std::thread::scope(|scope| {
            for worker in 0..4u64 {
                let registry = &registry;
                scope.spawn(move || {
                    for i in 0..10u64 {
                        let class = if (worker + i) % 2 == 0 { "Q12" } else { "Q13" };
                        let x = [(worker * 10 + i) as f64, (i % 3) as f64];
                        registry
                            .observe(class, &x, &[10.0 + 2.0 * x[0] + x[1], 1.0 + 0.1 * x[0]])
                            .expect("observation recorded");
                    }
                });
            }
        });
        // 4 workers x 10 observations, none lost.
        assert_eq!(registry.total_observations(), 40);
        assert_eq!(registry.class_names(), vec!["Q12", "Q13"]);
        let lens = registry.history_lens();
        assert_eq!(lens.iter().map(|(_, n)| n).sum::<usize>(), 40);
        // Both classes are deep enough to fit (m >= L + 2 = 4).
        for class in ["Q12", "Q13"] {
            let m = registry.get(class).expect("class exists");
            let m = m.lock().unwrap();
            assert!(m.last_fit().is_some(), "{class} fitted online");
            assert_eq!(m.estimator_name(), "DREAM");
        }
        assert!(registry.get("Q99").is_none());
    }

    #[test]
    fn registry_surfaces_arity_errors() {
        let registry = ModellingRegistry::dream_defaults(1);
        registry.observe("Q12", &[1.0, 2.0], &[3.0]).unwrap();
        // Same class, different feature arity: the history rejects it.
        assert!(registry.observe("Q12", &[1.0], &[3.0]).is_err());
    }

    #[test]
    fn estimate_before_fit_fails() {
        let m = Modelling::new(1, 1, Box::new(DreamEstimator::paper_defaults(1)));
        assert!(m.estimate(&[1.0]).is_err());
    }

    #[test]
    fn refit_with_no_history_fails() {
        let mut m = Modelling::new(1, 1, Box::new(DreamEstimator::paper_defaults(1)));
        assert!(m.refit().is_err());
    }
}
