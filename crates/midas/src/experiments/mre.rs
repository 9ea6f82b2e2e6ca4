//! Tables 3 & 4 — Mean Relative Error of execution-time estimation.
//!
//! Protocol (mirroring Section 4):
//!
//! 1. Generate a TPC-H database (100 MiB → SF 0.1, 1 GiB → SF 1.0).
//! 2. For each query class (Q12, Q13, Q14, Q17), execute a stream of
//!    parameterized instances on the drifting two-cloud federation with a
//!    fixed join configuration, recording `(features, observed costs)` —
//!    the *trace*. Every estimator sees the *same* trace (prequential
//!    evaluation), so differences are purely model differences.
//! 3. For each estimator (BML over windows N/2N/3N/∞ and DREAM), walk the
//!    test suffix: fit on everything before instance `i`, predict instance
//!    `i`, accumulate `|ĉ − c| / c` on the execution-time metric (Eq. 15).
//!
//! The absolute numbers depend on the simulator calibration; the *shape*
//! to reproduce is DREAM having the column-minimum MRE for most cells while
//! the unbounded-history BML degrades under drift.

use midas_dream::{CostEstimator, DreamConfig, DreamEstimator, History};
use midas_engines::sim::DriftIntensity;
use midas_engines::{EngineKind, Placement};
use midas_ires::scheduler::{Scheduler, SchedulerConfig};
use midas_ires::CandidateConfig;
use midas_linalg::stats::mean_relative_error;
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::QueryId;
use midas_tpch::workload::WorkloadGenerator;

/// The estimator columns of Tables 3 and 4.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// IReS best-ML model over the last `N = L + 2` observations.
    BmlN,
    /// … over the last `2N`.
    Bml2N,
    /// … over the last `3N`.
    Bml3N,
    /// … over all history (the paper's plain "BML" column).
    BmlAll,
    /// The paper's contribution.
    Dream,
}

impl EstimatorKind {
    /// The paper's column order.
    pub const PAPER_ORDER: [EstimatorKind; 5] = [
        EstimatorKind::BmlN,
        EstimatorKind::Bml2N,
        EstimatorKind::Bml3N,
        EstimatorKind::BmlAll,
        EstimatorKind::Dream,
    ];

    /// The paper's column header.
    pub fn label(&self) -> &'static str {
        match self {
            EstimatorKind::BmlN => "BMLN",
            EstimatorKind::Bml2N => "BML2N",
            EstimatorKind::Bml3N => "BML3N",
            EstimatorKind::BmlAll => "BML",
            EstimatorKind::Dream => "DREAM",
        }
    }

    /// Instantiates the estimator for `n_metrics` cost metrics.
    pub fn build(&self, n_metrics: usize, m_max: usize, r2: f64) -> Box<dyn CostEstimator> {
        use midas_mlearn::{BmlEstimator, WindowSpec};
        match self {
            EstimatorKind::BmlN => {
                Box::new(BmlEstimator::new(WindowSpec::LatestMultiple(1), n_metrics))
            }
            EstimatorKind::Bml2N => {
                Box::new(BmlEstimator::new(WindowSpec::LatestMultiple(2), n_metrics))
            }
            EstimatorKind::Bml3N => {
                Box::new(BmlEstimator::new(WindowSpec::LatestMultiple(3), n_metrics))
            }
            EstimatorKind::BmlAll => Box::new(BmlEstimator::new(WindowSpec::All, n_metrics)),
            // The one DREAM serving runs too (`DreamEstimator::paper_defaults`
            // is this at R² 0.8, Mmax 30): the paper's plain R² gates the
            // window, and standardized ridge keeps locally-collinear windows
            // from extrapolating absurd costs at data-volume cliffs.
            EstimatorKind::Dream => Box::new(DreamEstimator::new(DreamConfig::uniform(
                r2, n_metrics, m_max,
            ))),
        }
    }
}

/// Experiment configuration.
#[derive(Debug, Clone, Copy)]
pub struct MreConfig {
    /// Dataset generation.
    pub gen: GenConfig,
    /// Environment drift.
    pub drift: DriftIntensity,
    /// Executions whose observations are available before the first
    /// prediction.
    pub warmup_runs: usize,
    /// Predicted-then-observed executions (the `M` of Eq. 15).
    pub test_runs: usize,
    /// Simulation seed.
    pub seed: u64,
    /// DREAM's `R²` requirement.
    pub r2_required: f64,
    /// DREAM's `Mmax`.
    pub m_max: usize,
}

impl MreConfig {
    /// The 100 MiB setup of Table 3.
    ///
    /// Physical rows are capped (uniform rescale); the executor's
    /// `work_scale` restores nominal SF 0.1 volumes in the simulated costs,
    /// so the run finishes in tens of seconds without changing the shape.
    pub fn table3(seed: u64) -> Self {
        MreConfig {
            gen: GenConfig {
                max_lineitem_rows: Some(200_000),
                ..GenConfig::new(0.1, seed)
            },
            drift: DriftIntensity::Strong,
            warmup_runs: 40,
            test_runs: 25,
            seed,
            r2_required: 0.8,
            m_max: 30,
        }
    }

    /// The 1 GiB setup of Table 4 (capped at 400 k physical lineitems).
    pub fn table4(seed: u64) -> Self {
        MreConfig {
            gen: GenConfig {
                max_lineitem_rows: Some(400_000),
                ..GenConfig::new(1.0, seed)
            },
            ..Self::table3(seed)
        }
    }

    /// Uncapped Table 3 (full SF 0.1) for full-fidelity runs.
    pub fn table3_full(seed: u64) -> Self {
        MreConfig {
            gen: GenConfig::sf_100mib(seed),
            ..Self::table3(seed)
        }
    }

    /// Table 4 at the generator's default 1 GiB cap (1.2 M lineitems).
    pub fn table4_full(seed: u64) -> Self {
        MreConfig {
            gen: GenConfig::sf_1gib(seed),
            ..Self::table3(seed)
        }
    }

    /// A fast, tiny variant for tests.
    pub fn smoke(seed: u64) -> Self {
        MreConfig {
            gen: GenConfig::new(0.002, seed),
            drift: DriftIntensity::Strong,
            warmup_runs: 16,
            test_runs: 8,
            seed,
            r2_required: 0.8,
            m_max: 20,
        }
    }
}

/// One cell row of the table: a query and the per-estimator MREs.
#[derive(Debug, Clone)]
pub struct MreRow {
    /// The query (12, 13, 14, 17).
    pub query: QueryId,
    /// `(estimator label, time-MRE)` in paper column order.
    pub mre: Vec<(&'static str, f64)>,
    /// DREAM's mean training-window size across test fits.
    pub dream_mean_window: f64,
}

/// A full table.
#[derive(Debug, Clone)]
pub struct MreReport {
    /// One row per query, in paper order.
    pub rows: Vec<MreRow>,
    /// Effective (possibly rescaled) database size in bytes.
    pub db_bytes: u64,
}

/// The execution trace one query class produces.
struct Trace {
    features: Vec<Vec<f64>>,
    costs: Vec<Vec<f64>>,
}

fn record_trace(
    db: &TpchDb,
    query_id: QueryId,
    cfg: &MreConfig,
) -> Result<Trace, Box<dyn std::error::Error>> {
    let (fed, a, b) = midas_cloud::federation::example_federation();
    let mut placement = Placement::new();
    // Left tables on cloud A under Hive, right tables on cloud B under
    // PostgreSQL — the paper's Hive+PostgreSQL multi-engine environment.
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("customer", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    placement.place("part", b, EngineKind::PostgreSql);
    let mut scheduler = Scheduler::new(
        &fed,
        placement,
        SchedulerConfig {
            seed: cfg.seed,
            drift: cfg.drift,
            // Row-capped databases simulate at their nominal volume.
            work_scale: 1.0 / db.rescale,
        },
    );
    // Fixed join configuration, as on the paper's static cluster.
    let exec_config = CandidateConfig {
        join_site: a,
        join_engine: EngineKind::Hive,
        instance_idx: 2,
        vm_count: 2,
    };

    let n = cfg.warmup_runs + cfg.test_runs;
    let workload = WorkloadGenerator::new(cfg.seed).instances(query_id, n);
    let mut features = Vec::with_capacity(n);
    let mut costs = Vec::with_capacity(n);
    for instance in &workload {
        // The data stores grow and are progressively archived over time,
        // each table at its own rate — each run therefore sees different
        // data volumes, so the size regressors carry real signal (the
        // premise of the paper's size-based cost functions) and stay
        // linearly independent across tables. The volume follows a triangle
        // wave (grow, then shrink step by step), i.e. volumes change
        // smoothly rather than through bulk purges.
        let i = instance.index;
        let grow = |period: usize, phase: usize| {
            let half = period - 1;
            let pos = (i + phase) % (2 * half);
            let tri = half - (pos as i64 - half as i64).unsigned_abs() as usize;
            0.4 + 0.6 * tri as f64 / half as f64
        };
        let snapshot = db.snapshot_per_table(|table| match table {
            "lineitem" => grow(20, 0),
            "orders" => grow(13, 5),
            "customer" => grow(17, 3),
            "part" => grow(11, 7),
            _ => 1.0,
        });
        let run = scheduler.execute_with_config(&instance.query, &exec_config, &snapshot)?;
        features.push(run.features);
        costs.push(run.costs);
        // Arrival gap lets the environment drift between queries.
        scheduler.idle(3, 40.0);
    }
    Ok(Trace { features, costs })
}

/// Prequentially evaluates one estimator over a trace's test suffix.
/// Returns `(time MRE, mean window)`.
fn evaluate(
    kind: EstimatorKind,
    trace: &Trace,
    cfg: &MreConfig,
) -> (f64, f64) {
    let n_features = trace.features[0].len();
    let n_metrics = trace.costs[0].len();
    let mut predictions = Vec::with_capacity(cfg.test_runs);
    let mut actuals = Vec::with_capacity(cfg.test_runs);
    let mut windows = Vec::new();
    // If a fit or prediction fails, the scheduler still needs an estimate:
    // reuse the previous model, or fall back to persistence (the last
    // observed cost). Every estimator is scored on every test point — no
    // silent skipping of the hard cases.
    let mut last_fitted: Option<Box<dyn CostEstimator>> = None;

    for i in cfg.warmup_runs..(cfg.warmup_runs + cfg.test_runs) {
        let mut history = History::new(n_features, n_metrics);
        for j in 0..i {
            history
                .record(&trace.features[j], &trace.costs[j])
                .expect("trace arity is fixed");
        }
        let mut estimator = kind.build(n_metrics, cfg.m_max, cfg.r2_required);
        if let Ok(report) = estimator.fit(&history) {
            windows.push(report.window_used as f64);
            last_fitted = Some(estimator);
        }
        let persistence = trace.costs[i - 1][0];
        let pred = last_fitted
            .as_ref()
            .and_then(|model| model.predict(&trace.features[i]).ok())
            .map_or(persistence, |p| p[0]);
        // Costs are non-negative by definition; clamp every estimator's raw
        // prediction identically.
        predictions.push(pred.max(0.0));
        actuals.push(trace.costs[i][0]);
    }

    let mre = mean_relative_error(&predictions, &actuals).unwrap_or(f64::NAN);
    let mean_window = if windows.is_empty() {
        f64::NAN
    } else {
        windows.iter().sum::<f64>() / windows.len() as f64
    };
    (mre, mean_window)
}

/// Runs the full table: every paper query × every estimator column.
pub fn run_mre(cfg: &MreConfig) -> Result<MreReport, Box<dyn std::error::Error>> {
    let db = TpchDb::generate(cfg.gen);
    let mut rows = Vec::new();
    for query_id in QueryId::PAPER_SET {
        let trace = record_trace(&db, query_id, cfg)?;
        let mut mre = Vec::new();
        let mut dream_window = f64::NAN;
        for kind in EstimatorKind::PAPER_ORDER {
            let (err, window) = evaluate(kind, &trace, cfg);
            if kind == EstimatorKind::Dream {
                dream_window = window;
            }
            mre.push((kind.label(), err));
        }
        rows.push(MreRow {
            query: query_id,
            mre,
            dream_mean_window: dream_window,
        });
    }
    Ok(MreReport {
        rows,
        // Nominal (pre-cap) volume: what the scale factor implies.
        db_bytes: (db.total_bytes() as f64 / db.rescale) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimator_labels_match_the_paper() {
        let labels: Vec<&str> = EstimatorKind::PAPER_ORDER.iter().map(|k| k.label()).collect();
        assert_eq!(labels, vec!["BMLN", "BML2N", "BML3N", "BML", "DREAM"]);
    }

    #[test]
    fn smoke_experiment_produces_finite_mres() {
        let cfg = MreConfig::smoke(11);
        let db = TpchDb::generate(cfg.gen);
        let trace = record_trace(&db, QueryId::Q12, &cfg).unwrap();
        assert_eq!(trace.features.len(), cfg.warmup_runs + cfg.test_runs);
        for kind in EstimatorKind::PAPER_ORDER {
            let (mre, _) = evaluate(kind, &trace, &cfg);
            assert!(mre.is_finite(), "{} produced NaN", kind.label());
            assert!(mre >= 0.0);
        }
    }

    #[test]
    fn serving_and_the_experiments_run_one_dream() {
        // Serving's registry and the Tables 3/4 estimator are one DREAM: on a
        // recorded trace they report bit-identical fits and predict
        // bit-identical costs at every step.
        let cfg = MreConfig::smoke(17);
        let db = TpchDb::generate(cfg.gen);
        let trace = record_trace(&db, QueryId::Q12, &cfg).unwrap();
        let registry = midas_ires::ModellingRegistry::dream_defaults(2);
        let mut history = History::new(trace.features[0].len(), 2);
        let mut fitted = 0;
        for (x, c) in trace.features.iter().zip(&trace.costs) {
            let served = registry.observe("Q12", x, c).unwrap();
            history.record(x, c).unwrap();
            let mut experiment = EstimatorKind::Dream.build(2, 30, 0.8);
            let Ok(report) = experiment.fit(&history) else {
                assert!(
                    served.is_none(),
                    "serving fitted where the experiment could not"
                );
                continue;
            };
            assert_eq!(served.as_ref(), Some(&report));
            let modelling = registry.get("Q12").unwrap();
            let served = modelling.lock().unwrap().estimate(x).unwrap();
            let expected = experiment.predict(x).unwrap();
            let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&served), bits(&expected));
            fitted += 1;
        }
        assert_eq!(fitted, trace.features.len() + 1 - history.minimum_window());
    }

    #[test]
    fn dream_window_stays_small() {
        let cfg = MreConfig::smoke(13);
        let db = TpchDb::generate(cfg.gen);
        let trace = record_trace(&db, QueryId::Q14, &cfg).unwrap();
        let (_, window) = evaluate(EstimatorKind::Dream, &trace, &cfg);
        // Paper Section 4.3: "the size of historical data, which DREAM
        // uses, are very small, around N" (N = 4 here).
        assert!(window < 14.0, "DREAM mean window {window}");
    }

    #[test]
    fn features_vary_across_the_workload() {
        let cfg = MreConfig::smoke(17);
        let db = TpchDb::generate(cfg.gen);
        let trace = record_trace(&db, QueryId::Q12, &cfg).unwrap();
        let first = &trace.features[0];
        assert!(
            trace.features.iter().any(|f| f[0] != first[0]),
            "left-side sizes never vary — features are degenerate"
        );
    }
}
