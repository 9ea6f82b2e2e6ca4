//! End-to-end integration: the full MIDAS pipeline over the umbrella crate,
//! each job served by a one-worker runtime in submission order.

use midas_repro::engines::catalog::Catalog;
use midas_repro::engines::sim::DriftIntensity;
use midas_repro::midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas_repro::midas::{Midas, MidasReport, QueryPolicy};
use midas_repro::tpch::gen::{GenConfig, TpchDb};
use midas_repro::tpch::medical::{generate_medical, medical_query};
use midas_repro::tpch::queries::{q12, q13, q14, q17};
use midas_repro::tpch::TwoTableQuery;

fn db() -> TpchDb {
    TpchDb::generate(GenConfig::new(0.003, 99))
}

/// A one-worker runtime over `midas`'s deployment with `drift` and `seed`
/// in place of the default configuration's.
fn runtime_with<'a>(
    midas: &'a Midas,
    catalog: &Catalog,
    drift: DriftIntensity,
    seed: u64,
) -> FederationRuntime<'a> {
    let config = RuntimeConfig {
        workers: 1,
        drift,
        seed,
        ..RuntimeConfig::default()
    };
    FederationRuntime::new(midas.federation(), midas.placement(), catalog.clone(), config)
}

/// Serves `queries` under `policy` on `runtime` and returns their reports
/// in submission order; any failed job fails the test.
fn serve(
    runtime: &FederationRuntime<'_>,
    queries: impl IntoIterator<Item = TwoTableQuery>,
    policy: &QueryPolicy,
) -> Vec<MidasReport> {
    let jobs = queries
        .into_iter()
        .map(|query| RuntimeJob::new("clinic", query, policy.clone()))
        .collect();
    let report = runtime.run(jobs);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    report.completed.into_iter().map(|r| r.report).collect()
}

#[test]
fn all_four_paper_queries_run_end_to_end() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = db();
    let queries = [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 9),
        q17("Brand#23", "MED BOX"),
    ];
    let runtime = midas.runtime(db.catalog(), 1);
    let reports = serve(&runtime, queries, &QueryPolicy::balanced());
    assert_eq!(reports.len(), 4);
    for report in &reports {
        assert!(report.space_size > 0, "{}", report.label);
        assert!(report.pareto_size > 0, "{}", report.label);
        assert!(report.predicted_costs[0] > 0.0, "{}", report.label);
        assert!(report.actual_costs[0] > 0.0, "{}", report.label);
        assert!(report.result_rows > 0, "{}", report.label);
    }
}

#[test]
fn dream_learns_across_a_session_and_windows_stay_bounded() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
    let db = db();
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );
    let queries = (1993..=1997).chain(1993..=1997).enumerate().map(|(i, year)| {
        let modes = if i % 2 == 0 { ("MAIL", "SHIP") } else { ("AIR", "RAIL") };
        q12(modes.0, modes.1, year)
    });
    // One call per query: each report's per-class entry is DREAM's fit
    // after that run.
    let windows: Vec<usize> = queries
        .filter_map(|query| {
            let job = RuntimeJob::new("clinic", query, QueryPolicy::fastest());
            let report = runtime.run(vec![job]);
            assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
            let q12 = report.learning.iter().find(|c| c.class == "Q12").expect("learned");
            q12.fit.clone().expect("no numeric failure").map(|f| f.window_used)
        })
        .collect();
    // With L = 4 features DREAM needs 6 runs; 10 runs leave >= 4 fits.
    assert!(windows.len() >= 4, "DREAM fits recorded: {windows:?}");
    // Windows stay near the minimum (the paper's observation).
    assert!(windows.iter().all(|&w| (6..=10).contains(&w)), "{windows:?}");
    let modelling = runtime.registry().get("Q12").expect("class recorded");
    let modelling = modelling.lock().expect("modelling lock");
    assert_eq!(modelling.history().len(), 10);
    assert_eq!(modelling.estimator_name(), "DREAM");
}

#[test]
fn policies_steer_the_choice() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 9));
    let q = q12("AIR", "TRUCK", 1995);
    let runtime = || runtime_with(&midas, db.catalog(), DriftIntensity::None, 42);
    let first = |policy| serve(&runtime(), [q.clone()], &policy).remove(0);
    let fast = first(QueryPolicy::fastest());
    let cheap = first(QueryPolicy::cheapest());
    // The time-first plan must not be slower than the money-first plan
    // in prediction; the money-first plan must not cost more.
    assert!(fast.predicted_costs[0] <= cheap.predicted_costs[0] + 1e-9);
    assert!(cheap.predicted_costs[1] <= fast.predicted_costs[1] + 1e-9);
}

#[test]
fn budget_constraints_are_respected_when_feasible() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let tables = generate_medical(800, 0.5, 3);
    let runtime = || runtime_with(&midas, &tables, DriftIntensity::None, 42);
    let first = |policy| serve(&runtime(), [medical_query(None)], &policy).remove(0);
    // First find the unconstrained cheapest plan's money cost.
    let floor = first(QueryPolicy::cheapest()).predicted_costs[1];
    // A budget above the floor must produce a plan within budget.
    let budget = floor * 2.0 + 1e-6;
    let report = first(QueryPolicy::fastest().with_money_budget(budget));
    assert!(
        report.predicted_costs[1] <= budget + 1e-9,
        "predicted ${} exceeds budget ${budget}",
        report.predicted_costs[1]
    );
    assert!(report.label.contains("Medical"), "{}", report.label);
    assert!(report.result_rows > 0);
}

#[test]
fn distinct_seeds_produce_distinct_observations() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem"], &["orders"]);
    let db = db();
    let q = q12("MAIL", "SHIP", 1995);
    let first = |seed: u64| {
        let runtime = runtime_with(&midas, db.catalog(), DriftIntensity::Strong, seed);
        serve(&runtime, [q.clone()], &QueryPolicy::balanced()).remove(0)
    };
    let ra = first(42);
    let rb = first(777);
    assert_ne!(ra.actual_costs[0], rb.actual_costs[0]);
    // Same seed twice: identical.
    let rc = first(42);
    assert_eq!(ra.actual_costs, rc.actual_costs);
}
