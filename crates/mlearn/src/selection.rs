//! Best-ML-model selection — the paper's **BML** baseline.
//!
//! "In IReS model building process, IReS tests many algorithms and the best
//! model with the smallest error is selected." (Section 4.3.) We mirror that
//! with a tournament per cost metric, under one of two [`SelectionPolicy`]s:
//!
//! * `TrainingError` (the default, the paper's literal reading): every
//!   candidate family is trained on the whole observation window and scored
//!   on those same rows; the family with the smallest MSE wins and the model
//!   the tournament trained *is* the fitted model — nothing is trained twice.
//! * `HoldoutValidation`: every family is trained on the head of the window
//!   and scored on a held-out suffix (the most recent quarter); the winner
//!   is then refitted on the whole window. Only here can a refit fail where
//!   the tournament's fit succeeded, and only here is the tournament's
//!   prefix-trained model kept as the fallback.
//!
//! The observation window itself is the experimental knob of Tables 3/4:
//! `N` (= L+2, DREAM's minimum), `2N`, `3N`, or everything (`BML` column).
//!
//! The metrics' tournaments are independent, so [`BmlEstimator`] runs them
//! side by side: the calling thread fits metric 0 and scoped helpers fit
//! the rest, over at most as many threads as the process has CPUs (none
//! with one CPU or one metric). The result is bit for bit the serial
//! loop's: every family seeds its own RNG (bagging 17, MLP 23), nothing is
//! shared between metrics but the read-only window, and the models are
//! collected, and the first error returned, in metric order.

use crate::bagging::{BaggingConfig, BaggingRegressor};
use crate::mlp::{MlpConfig, MlpRegressor};
use crate::ols::OlsRegressor;
use crate::regressor::{mse, Regressor};
use crate::tree::TreeConfig;
use midas_dream::{CostEstimator, EstimationError, FitReport, History};
use std::sync::OnceLock;
use std::{panic, thread};

/// Which slice of history a BML estimator trains on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowSpec {
    /// The latest `multiplier * N` observations, with `N = L + 2`.
    LatestMultiple(usize),
    /// The latest exactly-`m` observations.
    Latest(usize),
    /// The entire history (the paper's unbounded "BML" column).
    All,
}

impl WindowSpec {
    /// Resolves the window length for a history with `l` features.
    pub fn resolve(&self, history_len: usize, l: usize) -> usize {
        match *self {
            WindowSpec::LatestMultiple(k) => (k * (l + 2)).min(history_len),
            WindowSpec::Latest(m) => m.min(history_len),
            WindowSpec::All => history_len,
        }
    }

    fn label(&self) -> String {
        match *self {
            WindowSpec::LatestMultiple(1) => "BML-N".to_string(),
            WindowSpec::LatestMultiple(k) => format!("BML-{k}N"),
            WindowSpec::Latest(m) => format!("BML-m{m}"),
            WindowSpec::All => "BML".to_string(),
        }
    }
}

/// How the "best" family is chosen — the crux of the BML baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionPolicy {
    /// Pick the family with the smallest error *on the training window*
    /// itself — the literal reading of the paper's "IReS tests many
    /// algorithms and the best model with the smallest error is selected".
    /// Flexible families (trees, MLP) can win by memorizing tiny windows,
    /// which is precisely the instability the paper's BML columns exhibit.
    #[default]
    TrainingError,
    /// Pick by error on a held-out recent quarter of the window — the
    /// modern, stronger variant (compared in the `ablation` bench).
    HoldoutValidation,
}

/// A constructible model family for the selection tournament.
#[derive(Debug, Clone)]
pub enum RegressorFamily {
    /// Ordinary least squares.
    Ols,
    /// Bagged regression trees.
    Bagging(BaggingConfig),
    /// Multilayer perceptron.
    Mlp(MlpConfig),
}

impl RegressorFamily {
    /// Instantiates an unfitted regressor of this family.
    pub fn build(&self) -> Box<dyn Regressor> {
        match self {
            RegressorFamily::Ols => Box::new(OlsRegressor::new()),
            RegressorFamily::Bagging(cfg) => Box::new(BaggingRegressor::new(*cfg)),
            RegressorFamily::Mlp(cfg) => Box::new(MlpRegressor::new(*cfg)),
        }
    }

    /// The WEKA trio the paper cites: least squares, bagging, MLP.
    pub fn paper_families() -> Vec<RegressorFamily> {
        vec![
            RegressorFamily::Ols,
            RegressorFamily::Bagging(BaggingConfig {
                n_estimators: 15,
                tree: TreeConfig {
                    max_depth: 4,
                    min_split: 4,
                },
                seed: 17,
            }),
            RegressorFamily::Mlp(MlpConfig {
                hidden: 6,
                epochs: 250,
                learning_rate: 0.05,
                weight_decay: 1e-4,
                seed: 23,
            }),
        ]
    }
}

/// The IReS "Best Machine Learning model" estimator over a fixed window.
pub struct BmlEstimator {
    window: WindowSpec,
    families: Vec<RegressorFamily>,
    n_metrics: usize,
    policy: SelectionPolicy,
    fitted: Vec<Box<dyn Regressor>>,
    chosen: Vec<&'static str>,
}

impl BmlEstimator {
    /// BML over `window` with the paper's three families and the
    /// paper-faithful training-error selection.
    pub fn new(window: WindowSpec, n_metrics: usize) -> Self {
        Self::with_families(window, n_metrics, RegressorFamily::paper_families())
    }

    /// BML with a custom candidate set.
    pub fn with_families(
        window: WindowSpec,
        n_metrics: usize,
        families: Vec<RegressorFamily>,
    ) -> Self {
        BmlEstimator {
            window,
            families,
            n_metrics,
            policy: SelectionPolicy::default(),
            fitted: Vec::new(),
            chosen: Vec::new(),
        }
    }

    /// Overrides the selection policy (builder style).
    pub fn with_policy(mut self, policy: SelectionPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Families chosen for each metric in the last fit.
    pub fn chosen_families(&self) -> &[&'static str] {
        &self.chosen
    }

    /// The window specification in use.
    pub fn window(&self) -> WindowSpec {
        self.window
    }

    /// Runs the tournament on one metric and returns the model to keep.
    ///
    /// The one place the policy is read: it decides how many leading rows
    /// the families train on, and from that everything else follows — with
    /// nothing held out the families are scored on their own training rows
    /// and the winner, already trained on the whole window, is the result;
    /// with a held-out suffix the winner is refitted on the whole window.
    fn fit_best(&self, xs: &[&[f64]], ys: &[f64]) -> Result<Box<dyn Regressor>, EstimationError> {
        let n = xs.len();
        let l = xs[0].len();
        let n_train = match self.policy {
            SelectionPolicy::TrainingError => n,
            // The most recent quarter (at least 1, at most n-2) validates.
            SelectionPolicy::HoldoutValidation => n - (n / 4).clamp(1, n.saturating_sub(2).max(1)),
        };
        let scored = if n_train == n { 0..n } else { n_train..n };

        let mut best: Option<(f64, usize, Box<dyn Regressor>)> = None;
        let mut fewest_rows: Option<usize> = None;
        for (idx, family) in self.families.iter().enumerate() {
            let mut model = family.build();
            let min_rows = model.min_samples(l);
            fewest_rows = Some(fewest_rows.map_or(min_rows, |f| f.min(min_rows)));
            if n_train < min_rows || model.fit(&xs[..n_train], &ys[..n_train]).is_err() {
                continue;
            }
            let preds: Result<Vec<f64>, _> = scored.clone().map(|r| model.predict(xs[r])).collect();
            let Ok(preds) = preds else { continue };
            let err = mse(&preds, &ys[scored.clone()]);
            if best.as_ref().is_none_or(|(b, ..)| err < *b) {
                best = Some((err, idx, model));
            }
        }
        let Some((_, idx, trained)) = best else {
            return Err(EstimationError::NotEnoughData {
                required: fewest_rows.unwrap_or(2) + 1,
                available: n,
            });
        };
        if n_train == n {
            return Ok(trained);
        }
        // Holdout only. The whole-window refit can fail where the fit on
        // the training prefix succeeded (e.g. the extra rows make the
        // design singular); the tournament's own model is kept then — a
        // usable model beats an error.
        let mut refitted = self.families[idx].build();
        Ok(if refitted.fit(xs, ys).is_ok() {
            refitted
        } else {
            trained
        })
    }

    /// [`CostEstimator::fit`] with the metrics' tournaments spread over at
    /// most `threads` threads, the calling one included.
    fn fit_with_threads(
        &mut self,
        history: &History,
        threads: usize,
    ) -> Result<FitReport, EstimationError> {
        if history.is_empty() {
            return Err(EstimationError::NotEnoughData {
                required: history.minimum_window(),
                available: 0,
            });
        }
        let l = history.n_features();
        let window_len = self.window.resolve(history.len(), l);
        let window = history.latest(window_len);
        let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
        // Every metric's targets in one buffer, metric after metric.
        let mut ys = Vec::with_capacity(self.n_metrics * window_len);
        for metric in 0..self.n_metrics {
            ys.extend(window.iter().map(|o| o.costs[metric]));
        }

        // The first error in metric order is the one a serial loop returns.
        let fitted = per_metric(self.n_metrics, threads, |metric| {
            self.fit_best(&xs, &ys[metric * window_len..][..window_len])
        })
        .into_iter()
        .collect::<Result<Vec<_>, _>>()?;
        self.chosen = fitted.iter().map(|model| model.family()).collect();
        self.fitted = fitted;
        Ok(FitReport {
            window_used: window_len,
            r_squared: vec![None; self.n_metrics],
            satisfied: true,
        })
    }
}

impl CostEstimator for BmlEstimator {
    fn name(&self) -> String {
        self.window.label()
    }

    fn fit(&mut self, history: &History) -> Result<FitReport, EstimationError> {
        self.fit_with_threads(history, cpus())
    }

    fn predict(&self, features: &[f64]) -> Result<Vec<f64>, EstimationError> {
        if self.fitted.is_empty() {
            return Err(EstimationError::NotFitted);
        }
        self.fitted.iter().map(|m| m.predict(features)).collect()
    }

    fn n_metrics(&self) -> usize {
        self.n_metrics
    }
}

/// CPUs this process may run on, read once: std reads cgroup files to
/// answer.
fn cpus() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS.get_or_init(|| thread::available_parallelism().map_or(1, usize::from))
}

/// `fit(metric)` for every metric in `0..n`, in metric order, over at most
/// `threads` threads. Each thread takes a contiguous block of metrics; the
/// calling thread takes the first, so metric 0 is fitted here and one
/// thread or one metric spawns nothing. A helper's panic is re-raised with
/// its own payload.
fn per_metric<T: Send>(n: usize, threads: usize, fit: impl Fn(usize) -> T + Sync) -> Vec<T> {
    if n <= 1 || threads <= 1 {
        return (0..n).map(fit).collect();
    }
    let block = n.div_ceil(threads.min(n));
    let fit = &fit;
    let fit_block = move |first: usize| (first..n.min(first + block)).map(fit).collect::<Vec<T>>();
    // A BML fit is an estimator's, never a served job's: the runtime's
    // registry is DREAM. Fitting the two cost metrics side by side took
    // `estimation_replay` from 120 to 169 arrivals/s on 2 vCPUs.
    // LINT: thread-ok — see above; no helper outlives this scope.
    thread::scope(|scope| {
        let helpers: Vec<_> = (block..n)
            .step_by(block)
            .map(|first| scope.spawn(move || fit_block(first)))
            .collect();
        let mut all = Vec::with_capacity(n);
        all.extend((0..block).map(fit));
        for helper in helpers {
            all.extend(
                helper
                    .join()
                    .unwrap_or_else(|payload| panic::resume_unwind(payload)),
            );
        }
        all
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_history(n: usize) -> History {
        let mut h = History::new(2, 2);
        for i in 0..n {
            let x = [i as f64, (i % 5) as f64];
            h.record(&x, &[1.0 + 2.0 * x[0] + x[1], 10.0 + x[0]]).unwrap();
        }
        h
    }

    #[test]
    fn window_resolution() {
        // L = 2 => N = 4.
        assert_eq!(WindowSpec::LatestMultiple(1).resolve(100, 2), 4);
        assert_eq!(WindowSpec::LatestMultiple(3).resolve(100, 2), 12);
        assert_eq!(WindowSpec::LatestMultiple(3).resolve(10, 2), 10);
        assert_eq!(WindowSpec::All.resolve(57, 2), 57);
        assert_eq!(WindowSpec::Latest(9).resolve(57, 2), 9);
    }

    #[test]
    fn labels() {
        assert_eq!(WindowSpec::LatestMultiple(1).label(), "BML-N");
        assert_eq!(WindowSpec::LatestMultiple(2).label(), "BML-2N");
        assert_eq!(WindowSpec::All.label(), "BML");
    }

    #[test]
    fn picks_ols_on_linear_data() {
        let h = linear_history(40);
        let mut bml = BmlEstimator::new(WindowSpec::All, 2);
        let report = bml.fit(&h).unwrap();
        assert_eq!(report.window_used, 40);
        // OLS is exact on linear data, so it must win both metrics.
        assert_eq!(bml.chosen_families(), &["ols", "ols"]);
        let pred = bml.predict(&[50.0, 3.0]).unwrap();
        assert!((pred[0] - (1.0 + 100.0 + 3.0)).abs() < 1e-6);
        assert!((pred[1] - 60.0).abs() < 1e-6);
    }

    #[test]
    fn nonlinear_data_prefers_a_nonlinear_family() {
        // Step-shaped cost: OLS cannot represent it, trees can.
        let mut h = History::new(1, 1);
        for i in 0..60 {
            let x = i as f64;
            let c = if i % 60 < 30 { 5.0 } else { 50.0 };
            h.record(&[x], &[c]).unwrap();
        }
        let mut bml = BmlEstimator::new(WindowSpec::All, 1);
        bml.fit(&h).unwrap();
        assert_ne!(bml.chosen_families()[0], "ols");
    }

    #[test]
    fn windowed_fit_uses_only_recent_data() {
        // Old regime wildly different; BML-N must fit the new regime well.
        let mut h = History::new(1, 1);
        for i in 0..50 {
            h.record(&[i as f64], &[1000.0 - i as f64]).unwrap();
        }
        for i in 50..80 {
            h.record(&[i as f64], &[2.0 * i as f64]).unwrap();
        }
        let mut bml_n = BmlEstimator::new(WindowSpec::LatestMultiple(2), 1);
        let report = bml_n.fit(&h).unwrap();
        assert_eq!(report.window_used, 6); // 2 * (1 + 2)
        let pred = bml_n.predict(&[79.0]).unwrap()[0];
        assert!((pred - 158.0).abs() < 10.0, "windowed prediction {pred}");
    }

    #[test]
    fn not_fitted_and_empty_history() {
        let bml = BmlEstimator::new(WindowSpec::All, 1);
        assert!(matches!(
            bml.predict(&[1.0]),
            Err(EstimationError::NotFitted)
        ));
        let h = History::new(1, 1);
        let mut bml = BmlEstimator::new(WindowSpec::All, 1);
        assert!(bml.fit(&h).is_err());
    }

    #[test]
    fn custom_family_set() {
        let h = linear_history(30);
        // Least squares fits this history exactly and wins among the paper
        // families; a set of bagging alone must choose bagging.
        let bagging = RegressorFamily::Bagging(BaggingConfig {
            n_estimators: 5,
            tree: TreeConfig::default(),
            seed: 3,
        });
        let mut bml = BmlEstimator::with_families(WindowSpec::All, 2, vec![bagging]);
        bml.fit(&h).unwrap();
        assert_eq!(bml.chosen_families(), &["bagging", "bagging"]);
        assert_eq!(bml.n_metrics(), 2);
    }

    /// 60 arrivals of a drifting, non-linear two-metric cost: which family
    /// wins depends on the window and on the metric.
    fn drifting_history() -> History {
        let mut h = History::new(2, 2);
        for i in 0..60 {
            let t = i as f64;
            let x = [
                1e4 * (1.0 + (t * 0.37).sin().abs()),
                200.0 + 40.0 * (t * 0.9).cos(),
            ];
            let load = if i % 20 < 10 { 1.0 } else { 1.6 };
            let time = load * (3.0 + x[0] * 2e-4) + (t * 1.7).sin();
            let money = 0.5 + x[1] * 1e-3 * load + if i % 7 == 0 { 0.4 } else { 0.0 };
            h.record(&x, &[time, money]).unwrap();
        }
        h
    }

    #[test]
    fn fit_equals_a_fresh_full_window_fit_of_the_chosen_families_bit_for_bit() {
        // What `fit` did before the tournament kept its winner: build the
        // chosen family anew and fit it on the whole window.
        let h = drifting_history();
        let family_named = |name: &str| {
            RegressorFamily::paper_families()
                .into_iter()
                .find(|f| f.build().family() == name)
                .expect("a paper family")
        };
        let mut winners = std::collections::BTreeSet::new();
        for policy in [
            SelectionPolicy::TrainingError,
            SelectionPolicy::HoldoutValidation,
        ] {
            for spec in [
                WindowSpec::LatestMultiple(1),
                WindowSpec::LatestMultiple(2),
                WindowSpec::LatestMultiple(3),
                WindowSpec::All,
            ] {
                let mut bml = BmlEstimator::new(spec, 2).with_policy(policy);
                let report = bml.fit(&h).unwrap();
                let window = h.latest(report.window_used);
                let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
                for metric in 0..2 {
                    let name = bml.chosen_families()[metric];
                    winners.insert(name);
                    let mut fresh = family_named(name).build();
                    fresh
                        .fit(&xs, &History::targets_of(window, metric))
                        .unwrap();
                    for probe in [[1.2e4, 210.0], [2.0e4, 160.0], [0.0, 0.0]] {
                        assert_eq!(
                            bml.predict(&probe).unwrap()[metric].to_bits(),
                            fresh.predict(&probe).unwrap().to_bits(),
                            "{policy:?} {spec:?} metric {metric} ({name})"
                        );
                    }
                }
            }
        }
        assert!(winners.len() > 1, "one family won everywhere: {winners:?}");
    }

    #[test]
    fn a_nan_feature_costs_the_bagging_family_its_place_not_the_fit() {
        let mut h = History::new(2, 1);
        for i in 0..20 {
            let x = [i as f64, if i == 11 { f64::NAN } else { (i % 4) as f64 }];
            h.record(&x, &[1.0 + x[0] * x[0]]).unwrap();
        }
        let window = h.latest(20);
        let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
        let ys = History::targets_of(window, 0);
        let bagging = &RegressorFamily::paper_families()[1];
        assert!(matches!(
            bagging.build().fit(&xs, &ys),
            Err(EstimationError::Numeric(_))
        ));
        // The tournament goes on without the family.
        let mut bml = BmlEstimator::new(WindowSpec::All, 1);
        assert!(bml.fit(&h).is_ok());
        assert_ne!(bml.chosen_families(), &["bagging"]);
    }

    /// What `fit` did before its metrics ran side by side: one tournament
    /// after another on the calling thread, stopping at the first error.
    fn fit_serially(
        bml: &mut BmlEstimator,
        history: &History,
    ) -> Result<FitReport, EstimationError> {
        if history.is_empty() {
            return Err(EstimationError::NotEnoughData {
                required: history.minimum_window(),
                available: 0,
            });
        }
        let window_len = bml.window.resolve(history.len(), history.n_features());
        let window = history.latest(window_len);
        let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
        let mut fitted = Vec::new();
        for metric in 0..bml.n_metrics {
            fitted.push(bml.fit_best(&xs, &History::targets_of(window, metric))?);
        }
        bml.chosen = fitted.iter().map(|model| model.family()).collect();
        bml.fitted = fitted;
        Ok(FitReport {
            window_used: window_len,
            r_squared: vec![None; bml.n_metrics],
            satisfied: true,
        })
    }

    /// `history` with its cost vector widened (or cut) to `n_metrics`
    /// metrics: metric `k` beyond the recorded ones is metric `k % 2`
    /// scaled and bent, so no two metrics share a target.
    fn with_metrics(history: &History, n_metrics: usize) -> History {
        let recorded = history.n_metrics();
        let mut out = History::new(history.n_features(), n_metrics);
        for o in history.latest(history.len()) {
            let costs: Vec<f64> = (0..n_metrics)
                .map(|k| {
                    let c = o.costs[k % recorded];
                    if k < recorded {
                        c
                    } else {
                        c * (1.0 + k as f64) + (c * 0.3).sin()
                    }
                })
                .collect();
            out.record(&o.features, &costs).unwrap();
        }
        out
    }

    /// Fits `make()` serially and on 1, 2 and 3 threads; every outcome, every
    /// chosen family and every prediction must match the serial one bit
    /// for bit.
    fn assert_threads_match_serial(history: &History, make: impl Fn() -> BmlEstimator) {
        let mut serial = make();
        let expected = fit_serially(&mut serial, history);
        for threads in 1..=3 {
            let mut bml = make();
            let got = bml.fit_with_threads(history, threads);
            let label = format!("{:?} {:?} threads {threads}", bml.window, bml.policy);
            assert_eq!(got, expected, "{label}");
            assert_eq!(bml.chosen_families(), serial.chosen_families(), "{label}");
            let l = history.n_features();
            for probe in [vec![1.2e4; l], vec![0.0; l], vec![-3.5; l]] {
                let (got, expected) = (bml.predict(&probe), serial.predict(&probe));
                match (got, expected) {
                    (Ok(got), Ok(expected)) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        assert_eq!(bits(&got), bits(&expected), "{label} {probe:?}");
                    }
                    (got, expected) => assert_eq!(got, expected, "{label} {probe:?}"),
                }
            }
        }
    }

    #[test]
    fn metrics_fitted_side_by_side_match_the_serial_loop_bit_for_bit() {
        let drifting = drifting_history();
        for n_metrics in 1..=3 {
            let h = with_metrics(&drifting, n_metrics);
            for policy in [
                SelectionPolicy::TrainingError,
                SelectionPolicy::HoldoutValidation,
            ] {
                for spec in [
                    WindowSpec::LatestMultiple(1),
                    WindowSpec::LatestMultiple(2),
                    WindowSpec::LatestMultiple(3),
                    WindowSpec::Latest(9),
                    WindowSpec::All,
                ] {
                    assert_threads_match_serial(&h, || {
                        BmlEstimator::new(spec, n_metrics).with_policy(policy)
                    });
                }
            }
        }
    }

    #[test]
    fn metrics_fitted_side_by_side_fail_as_the_serial_loop_does() {
        // Two rows: every family needs more, so every metric fails.
        let h = with_metrics(&drifting_history(), 3);
        let mut two_rows = History::new(2, 3);
        for o in h.latest(2) {
            two_rows.record(&o.features, &o.costs).unwrap();
        }
        let mut serial = BmlEstimator::new(WindowSpec::All, 3);
        assert!(matches!(
            fit_serially(&mut serial, &two_rows),
            Err(EstimationError::NotEnoughData { available: 2, .. })
        ));
        assert_threads_match_serial(&two_rows, || BmlEstimator::new(WindowSpec::All, 3));
        assert_threads_match_serial(&History::new(2, 3), || {
            BmlEstimator::new(WindowSpec::All, 3)
        });
    }

    #[test]
    fn metrics_fitted_side_by_side_drop_a_nan_failing_family_as_the_serial_loop_does() {
        let mut h = History::new(2, 3);
        for i in 0..20 {
            let x = [i as f64, if i == 11 { f64::NAN } else { (i % 4) as f64 }];
            let t = 1.0 + x[0] * x[0];
            h.record(&x, &[t, 2.0 * t + x[0], (x[0] * 0.7).sin()])
                .unwrap();
        }
        for n_metrics in 1..=3 {
            let h = with_metrics(&h, n_metrics);
            assert_threads_match_serial(&h, || BmlEstimator::new(WindowSpec::All, n_metrics));
            let mut bml = BmlEstimator::new(WindowSpec::All, n_metrics);
            bml.fit_with_threads(&h, 2).unwrap();
            assert!(bml.chosen_families().iter().all(|f| *f != "bagging"));
        }
    }

    #[test]
    fn per_metric_keeps_metric_order_on_any_thread_count() {
        for n in 0..=5 {
            for threads in [0, 1, 2, 3, 8] {
                let got = per_metric(n, threads, |m| m * 10);
                assert_eq!(
                    got,
                    (0..n).map(|m| m * 10).collect::<Vec<_>>(),
                    "{n} {threads}"
                );
            }
        }
    }

    #[test]
    fn per_metric_re_raises_a_helpers_panic_with_its_own_payload() {
        let caught = panic::catch_unwind(|| {
            per_metric(3, 3, |m| {
                if m == 2 {
                    panic::panic_any(("metric", m));
                }
                m
            })
        })
        .unwrap_err();
        assert_eq!(caught.downcast_ref::<(&str, usize)>(), Some(&("metric", 2)));
    }
}
