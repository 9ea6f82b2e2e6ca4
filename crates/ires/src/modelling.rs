//! The Modelling module: history + a pluggable estimator (paper Figure 2).
//!
//! IReS records each executed plan's features and measured costs, then
//! trains a predictor on demand. DREAM plugs in here exactly as the paper
//! describes: the training set is handed to the algorithm, which derives its
//! own (smaller) "new training set" before fitting. Recording only appends;
//! the fit runs when someone reads it ([`Modelling::fit`],
//! [`Modelling::estimate`], [`ModellingRegistry::learning`]) and only if an
//! observation arrived since the last one.

use midas_dream::{CostEstimator, DreamEstimator, EstimationError, FitReport, History};
use midas_engines::lock_recover;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex};

/// A history-backed, estimator-agnostic cost model for one query class.
///
/// `CostEstimator` is `Send + Sync`, so a `Modelling` can sit behind an
/// `Arc<Mutex<…>>` and be fed by many runtime workers; see
/// [`ModellingRegistry`].
pub struct Modelling {
    history: History,
    estimator: Box<dyn CostEstimator>,
    /// The fit of the current history; `None` while the class is dirty (an
    /// observation arrived since the last fit, or none ran yet).
    fitted: Option<Result<FitReport, EstimationError>>,
    /// Observations ever recorded, including any a bounded history evicted.
    observations: usize,
    /// Estimator fits run so far.
    fits: usize,
}

impl Modelling {
    /// A Modelling module over `n_features` regressors and `n_metrics` cost
    /// metrics, keeping every observation, using the supplied estimator.
    pub fn new(n_features: usize, n_metrics: usize, estimator: Box<dyn CostEstimator>) -> Self {
        Self::with_history(History::new(n_features, n_metrics), estimator)
    }

    /// A Modelling module recording into `history` (empty, possibly
    /// bounded), using the supplied estimator.
    pub fn with_history(history: History, estimator: Box<dyn CostEstimator>) -> Self {
        Modelling {
            history,
            estimator,
            fitted: None,
            observations: 0,
            fits: 0,
        }
    }

    /// Records one executed plan and marks the class dirty; fits nothing.
    /// Fails, recording nothing, on an arity mismatch.
    pub fn record(&mut self, features: &[f64], costs: &[f64]) -> Result<(), EstimationError> {
        self.history.record(features, costs)?;
        self.observations += 1;
        self.fitted = None;
        Ok(())
    }

    /// The estimator's fit of the current history. It runs only when the
    /// class is dirty; otherwise the cached result is returned as it was.
    pub fn fit(&mut self) -> &Result<FitReport, EstimationError> {
        self.fitted.get_or_insert_with(|| {
            self.fits += 1;
            self.estimator.fit(&self.history)
        })
    }

    /// Predicts the cost vector for a feature vector from the fit of the
    /// current history, fitting first when the class is dirty; a failed
    /// fit is returned as the error.
    pub fn estimate(&mut self, features: &[f64]) -> Result<Vec<f64>, EstimationError> {
        self.fit().as_ref().map_err(Clone::clone)?;
        self.estimator.predict(features)
    }

    /// The estimator's display name.
    pub fn estimator_name(&self) -> String {
        self.estimator.name()
    }

    /// The recorded history (its retained suffix when bounded).
    pub fn history(&self) -> &History {
        &self.history
    }

    /// Observations ever recorded, including any the history evicted.
    pub fn observations(&self) -> usize {
        self.observations
    }

    /// Estimator fits run so far: a read of a clean class adds none.
    pub fn fits(&self) -> usize {
        self.fits
    }

    /// The report of the last fit if it succeeded and no observation has
    /// arrived since.
    pub fn last_fit(&self) -> Option<&FitReport> {
        self.fitted.as_ref()?.as_ref().ok()
    }
}

/// One query class's learning state, as a read of the registry found it.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassLearning {
    /// The query class label.
    pub class: String,
    /// Observations recorded into the class, evicted ones included.
    pub observations: usize,
    /// DREAM's fit of the class's history: `None` while the history is too
    /// shallow to fit, an error when the fit failed numerically.
    pub fit: Result<Option<FitReport>, EstimationError>,
}

impl fmt::Display for ClassLearning {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} observations, ", self.class, self.observations)?;
        match &self.fit {
            Ok(Some(fit)) => {
                write!(f, "window {}, R²", fit.window_used)?;
                for r2 in &fit.r_squared {
                    match r2 {
                        Some(r2) => write!(f, " {r2:.3}")?,
                        None => write!(f, " -")?,
                    }
                }
                if !fit.satisfied {
                    write!(f, " (requirement unmet: smallest window)")?;
                }
                Ok(())
            }
            Ok(None) => write!(f, "too few to fit"),
            Err(e) => write!(f, "fit failed: {e}"),
        }
    }
}

/// The concurrent Modelling store: one lock-guarded [`Modelling`] per query
/// class, shared by every worker of a federation runtime.
///
/// Workers executing queries of *different* classes record fully in
/// parallel (each class has its own mutex); workers of the *same* class
/// serialize only for the append of [`ModellingRegistry::record`]. The fit
/// runs when the class is read — [`ModellingRegistry::learning`],
/// [`Modelling::estimate`] — once per batch of new observations, or at once
/// through [`ModellingRegistry::observe`]. Classes are created on first
/// observation, each with [`DreamEstimator::paper_defaults`] — the one DREAM
/// the experiments also run (standardized ridge, `R² ≥ 0.8`, `Mmax = 30`) —
/// whose online path walks its windows from running sums, one rank-1
/// update per window. A class's history keeps the latest `max(Mmax, L + 2)`
/// observations: Algorithm 1 never reads further back, so the bound changes
/// no fit and serving's memory stays flat however long it runs.
pub struct ModellingRegistry {
    n_metrics: usize,
    classes: Mutex<HashMap<String, Arc<Mutex<Modelling>>>>,
}

/// A fit as the registry reports it: too shallow a history is not an error
/// (the estimator keeps collecting), any other failure is.
fn online(fit: &Result<FitReport, EstimationError>) -> Result<Option<FitReport>, EstimationError> {
    match fit {
        Ok(report) => Ok(Some(report.clone())),
        Err(EstimationError::NotEnoughData { .. }) => Ok(None),
        Err(e) => Err(e.clone()),
    }
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
        if let Some(modelling) = classes.get(class) {
            return Arc::clone(modelling);
        }
        let estimator = DreamEstimator::paper_defaults(self.n_metrics);
        let bound = estimator.config().m_max.max(n_features + 2);
        let history = History::with_capacity_bound(n_features, self.n_metrics, bound);
        let modelling = Arc::new(Mutex::new(Modelling::with_history(
            history,
            Box::new(estimator),
        )));
        classes.insert(class.to_string(), Arc::clone(&modelling));
        modelling
    }

    /// The shared Modelling module of `class` if it already exists.
    pub fn get(&self, class: &str) -> Option<Arc<Mutex<Modelling>>> {
        lock_recover(&self.classes).get(class).cloned()
    }

    /// Records one executed plan into its class and marks the class dirty;
    /// fits nothing. Fails on a feature or metric arity the class's history
    /// does not have.
    pub fn record(
        &self,
        class: &str,
        features: &[f64],
        costs: &[f64],
    ) -> Result<(), EstimationError> {
        let modelling = self.class(class, features.len());
        let mut modelling = lock_recover(&modelling);
        modelling.record(features, costs)
    }

    /// Records one executed plan into its class and fits at once.
    ///
    /// Returns the fit report, or `None` while the class's history is still
    /// too shallow to fit (the estimator keeps collecting). Any *other*
    /// failure — an arity mismatch, singular designs, NaN costs — is a real
    /// estimation problem and propagates.
    pub fn observe(
        &self,
        class: &str,
        features: &[f64],
        costs: &[f64],
    ) -> Result<Option<FitReport>, EstimationError> {
        let modelling = self.class(class, features.len());
        let mut modelling = lock_recover(&modelling);
        modelling.record(features, costs)?;
        online(modelling.fit())
    }

    /// Every class's learning state, sorted by class label. A class dirty
    /// since its last fit is fitted once here; a clean one reports its
    /// cached fit.
    pub fn learning(&self) -> Vec<ClassLearning> {
        let mut classes: Vec<(String, Arc<Mutex<Modelling>>)> = lock_recover(&self.classes)
            .iter()
            .map(|(name, m)| (name.clone(), Arc::clone(m)))
            .collect();
        classes.sort_by(|a, b| a.0.cmp(&b.0));
        classes
            .into_iter()
            .map(|(class, modelling)| {
                let mut modelling = lock_recover(&modelling);
                ClassLearning {
                    class,
                    observations: modelling.observations(),
                    fit: online(modelling.fit()),
                }
            })
            .collect()
    }

    /// Class labels seen so far, sorted.
    pub fn class_names(&self) -> Vec<String> {
        let mut names: Vec<String> = lock_recover(&self.classes).keys().cloned().collect();
        names.sort();
        names
    }

    /// Recorded observations per class, evicted ones included, sorted by
    /// class label.
    pub fn history_lens(&self) -> Vec<(String, usize)> {
        let classes = lock_recover(&self.classes);
        let mut out: Vec<(String, usize)> = classes
            .iter()
            .map(|(name, m)| (name.clone(), lock_recover(m).observations()))
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
        let report = m.fit().clone().unwrap();
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
        m.fit().as_ref().unwrap();
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
        let mut m = Modelling::new(1, 1, Box::new(DreamEstimator::paper_defaults(1)));
        assert!(m.estimate(&[1.0]).is_err());
    }

    #[test]
    fn refit_with_no_history_fails() {
        let mut m = Modelling::new(1, 1, Box::new(DreamEstimator::paper_defaults(1)));
        assert!(m.fit().is_err());
    }

    #[test]
    fn a_record_marks_the_class_dirty_and_a_read_fits_once() {
        let mut m = Modelling::new(2, 2, Box::new(DreamEstimator::paper_defaults(2)));
        feed(&mut m, 12);
        assert_eq!(
            (m.fits(), m.observations()),
            (0, 12),
            "recording fits nothing"
        );
        assert!(m.last_fit().is_none());
        let first = m.fit().clone();
        let estimate = m.estimate(&[3.0, 1.0]).unwrap();
        assert_eq!(m.fit(), &first);
        assert_eq!(m.fits(), 1, "reads of a clean class reuse the fit");
        m.record(&[12.0, 0.0], &[50.0, 3.0]).unwrap();
        assert!(
            m.last_fit().is_none(),
            "a record invalidates the cached fit"
        );
        assert_ne!(m.estimate(&[3.0, 1.0]).unwrap(), estimate);
        assert_eq!(m.fits(), 2);
    }

    #[test]
    fn registry_histories_keep_the_latest_mmax_and_count_every_observation() {
        let registry = ModellingRegistry::dream_defaults(2);
        for i in 0..45 {
            let x = [i as f64, (i % 3) as f64];
            registry
                .record("Q12", &x, &[10.0 + 2.0 * x[0] + x[1], 1.0 + 0.1 * x[0]])
                .unwrap();
        }
        assert_eq!(registry.history_lens(), vec![("Q12".to_string(), 45)]);
        let m = registry.get("Q12").unwrap();
        let m = m.lock().unwrap();
        assert_eq!(m.history().len(), 30);
        assert_eq!(
            m.history().all()[0].features[0],
            15.0,
            "the oldest went first"
        );
        assert_eq!(m.fits(), 0);
        drop(m);
        let learning = registry.learning();
        assert_eq!(learning.len(), 1);
        assert_eq!(learning[0].observations, 45);
        assert!(learning[0].fit.as_ref().unwrap().is_some());
        assert!(learning[0]
            .to_string()
            .starts_with("Q12: 45 observations, window "));
    }
}
