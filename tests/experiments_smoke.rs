//! Smoke tests of the paper-experiment drivers at miniature scale — the
//! structure checks only. The full-size shapes are printed by the `repro_*`
//! binaries (JSON under `target/repro/`) and recorded nowhere in the
//! repository; the `[goldens]` item decides whether a generated record
//! returns.

use midas_repro::midas::experiments::{
    run_example31, run_fig3, run_mre, EstimatorKind, MreConfig,
};

#[test]
fn mre_experiment_produces_a_complete_table() {
    let report = run_mre(&MreConfig::smoke(5)).expect("experiment runs");
    assert_eq!(report.rows.len(), 4, "one row per paper query");
    for row in &report.rows {
        assert_eq!(row.mre.len(), 5, "five estimator columns");
        let labels: Vec<&str> = row.mre.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, vec!["BMLN", "BML2N", "BML3N", "BML", "DREAM"]);
        for (label, mre) in &row.mre {
            assert!(mre.is_finite(), "{label} produced a NaN MRE");
            assert!(*mre >= 0.0, "{label} produced a negative MRE");
        }
        assert!(row.dream_mean_window >= 4.0);
    }
    assert!(report.db_bytes > 0);
}

#[test]
fn estimator_column_order_matches_the_paper() {
    let labels: Vec<&str> = EstimatorKind::PAPER_ORDER
        .iter()
        .map(|k| k.label())
        .collect();
    assert_eq!(labels, vec!["BMLN", "BML2N", "BML3N", "BML", "DREAM"]);
}

#[test]
fn fig3_ga_pipeline_amortizes_weight_changes() {
    let report = run_fig3(0.002, 3).expect("experiment runs");
    assert_eq!(report.rows.len(), 5);
    let first = &report.rows[0];
    let last = report.rows.last().expect("non-empty sweep");
    // GA evaluations stay flat across the sweep; WSM grows linearly.
    assert_eq!(first.ga_cumulative_evals, last.ga_cumulative_evals);
    assert_eq!(
        last.wsm_cumulative_evals,
        first.wsm_cumulative_evals * report.rows.len()
    );
    // Every row has a sane optimum.
    for row in &report.rows {
        assert!(row.optimal_costs[0] > 0.0);
        assert!(row.ga_costs[0] > 0.0);
        assert!(row.wsm_costs[0] > 0.0);
    }
}

#[test]
fn example31_counts_the_pool_exactly() {
    let report = run_example31(0.002, 60, 1).expect("experiment runs");
    assert_eq!(report.pool_configurations, 18_200, "70 vCPU x 260 GiB");
    assert!(report.configs_per_second > 1_000.0);
    assert!(report.dream_window <= 60);
}
