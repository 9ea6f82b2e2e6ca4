//! Admission-time plan validation in the [`FederationRuntime`]:
//!
//! * a malformed job is rejected with a typed
//!   [`RuntimeError::InvalidPlan`] carrying the analyzer's structured
//!   diagnostics — it never takes a site slot, never executes, and never
//!   touches either cache tier;
//! * valid jobs in the same batch are unaffected and still complete;
//! * every rejection still lands in the report (`completed + failed`
//!   covers the whole batch — rejection is an outcome, not a lost job);
//! * the analyzer runs once per distinct plan and sharing scope: later
//!   admissions of the plan take the memoised verdict
//!   (`RuntimeReport::verdicts`), across publishes too, with the same
//!   diagnostics a fresh analysis gives and their own tenant's name.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeError, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_engines::cache::{CacheScope, CacheStats};
use midas_engines::{
    analyze_fragment_plans, DiagnosticKind, Expr, PhysicalPlan, PlanDiagnostic, SchemaCatalog,
};
use midas_tpch::medical::{generate_medical, medical_delta, medical_query};
use midas_tpch::queries::TwoTableQuery;

fn deployment() -> (Midas, midas_engines::Catalog) {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    (midas, generate_medical(400, 0.4, 7))
}

/// The medical query with its combine fragment scanning a ghost table.
fn ghost_combine() -> TwoTableQuery {
    let mut q = medical_query(None);
    q.combine = PhysicalPlan::Scan {
        table: "no_such_table".to_string(),
    };
    q.label = "Medical(ghost-combine)".to_string();
    q
}

/// The medical query probing a column past its left input's width.
fn misnumbered_left() -> TwoTableQuery {
    let mut q = medical_query(None);
    q.left_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Scan {
            table: "patient".to_string(),
        }),
        exprs: vec![("x".to_string(), Expr::col(99))],
    };
    q.label = "Medical(col-99)".to_string();
    q
}

#[test]
fn malformed_jobs_are_rejected_before_any_slot_or_cache() {
    let (midas, tables) = deployment();
    let runtime = midas.runtime(&tables, 2);
    let jobs = vec![
        RuntimeJob::new("clinic-bad", ghost_combine(), QueryPolicy::balanced()),
        RuntimeJob::new("clinic-bad", misnumbered_left(), QueryPolicy::balanced()),
        RuntimeJob::new("clinic-bad", ghost_combine(), QueryPolicy::fastest()),
    ];
    let report = runtime.run(jobs);

    assert!(report.completed.is_empty());
    assert_eq!(report.failed.len(), 3, "every rejection must be reported");
    for failed in &report.failed {
        assert_eq!(failed.tenant, "clinic-bad");
        match &failed.error {
            RuntimeError::InvalidPlan { tenant, diagnostics } => {
                assert_eq!(tenant, "clinic-bad");
                assert!(!diagnostics.is_empty());
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }

    // The first job's diagnostics name the ghost table.
    match &report.failed[0].error {
        RuntimeError::InvalidPlan { diagnostics, .. } => {
            assert!(diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::UnknownTable
                    && d.message.contains("no_such_table")));
        }
        _ => unreachable!(),
    }
    match &report.failed[1].error {
        RuntimeError::InvalidPlan { diagnostics, .. } => {
            assert!(diagnostics
                .iter()
                .any(|d| d.kind == DiagnosticKind::ColumnOutOfBounds));
        }
        _ => unreachable!(),
    }

    // No simulated execution happened and neither cache tier was probed:
    // rejection precedes slot admission, planning and execution.
    assert_eq!(report.sim_clock_s, 0.0);
    assert_eq!(report.cache.fragment.hits + report.cache.fragment.misses, 0);
    assert_eq!(report.cache.fragment.insertions, 0);
    assert_eq!(report.cache.plan.hits + report.cache.plan.misses, 0);
    assert_eq!(report.cache.plan.insertions, 0);
}

#[test]
fn valid_jobs_complete_alongside_rejections() {
    let (midas, tables) = deployment();
    let runtime = midas.runtime(&tables, 1);
    let jobs = vec![
        RuntimeJob::new("clinic-ok", medical_query(None), QueryPolicy::balanced()),
        RuntimeJob::new("clinic-bad", ghost_combine(), QueryPolicy::balanced()),
        RuntimeJob::new("clinic-ok", medical_query(Some("CT")), QueryPolicy::balanced()),
        RuntimeJob::new("clinic-bad", misnumbered_left(), QueryPolicy::balanced()),
    ];
    let report = runtime.run(jobs);

    assert_eq!(report.completed.len(), 2);
    assert_eq!(report.failed.len(), 2);
    for completed in &report.completed {
        assert_eq!(completed.tenant, "clinic-ok");
        assert!(completed.report.result_rows > 0, "{}", completed.report.label);
    }
    // Rejections carry their admission sequence: the malformed jobs were
    // submitted second and fourth.
    let mut rejected: Vec<usize> = report.failed.iter().map(|f| f.sequence).collect();
    rejected.sort_unstable();
    assert_eq!(rejected, vec![1, 3]);
    for failed in &report.failed {
        assert!(matches!(failed.error, RuntimeError::InvalidPlan { .. }));
    }
}

#[test]
fn rejections_do_not_poison_later_valid_runs() {
    // Rejections must not count toward failure streaks (quarantine) or
    // perturb the learned cost models: a runtime that first served a
    // rejection-only batch must then serve a valid batch bit-identically
    // to a fresh runtime that never saw the malformed jobs.
    let (midas, tables) = deployment();

    let poisoned = midas.runtime(&tables, 1);
    let rejected = poisoned.run(vec![
        RuntimeJob::new("clinic-ok", ghost_combine(), QueryPolicy::balanced());
        6
    ]);
    assert_eq!(rejected.failed.len(), 6);
    let after = poisoned.run(vec![RuntimeJob::new(
        "clinic-ok",
        medical_query(None),
        QueryPolicy::balanced(),
    )]);

    let fresh = midas.runtime(&tables, 1);
    let baseline = fresh.run(vec![RuntimeJob::new(
        "clinic-ok",
        medical_query(None),
        QueryPolicy::balanced(),
    )]);

    assert_eq!(after.completed.len(), 1);
    assert_eq!(baseline.completed.len(), 1);
    let (a, b) = (&after.completed[0].report, &baseline.completed[0].report);
    assert_eq!(a.chosen, b.chosen, "rejections changed the chosen plan");
    assert_eq!(a.predicted_costs, b.predicted_costs);
    assert_eq!(a.actual_costs, b.actual_costs);
    assert_eq!(a.result_fingerprint, b.result_fingerprint);
}

/// A one-worker runtime over `tables` with the given plan budget and scope.
fn runtime_with<'a>(
    midas: &'a Midas,
    tables: &midas_engines::Catalog,
    plan_cache_bytes: u64,
    cache_scope: CacheScope,
) -> FederationRuntime<'a> {
    FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        tables.clone(),
        RuntimeConfig {
            workers: 1,
            plan_cache_bytes,
            cache_scope,
            ..RuntimeConfig::default()
        },
    )
}

/// The five distinct valid medical queries.
fn five_queries() -> Vec<TwoTableQuery> {
    let mut queries = vec![medical_query(None)];
    queries.extend(["CT", "MR", "US", "XR"].map(|m| medical_query(Some(m))));
    queries
}

#[test]
fn a_repeated_malformed_plan_is_rejected_every_time_with_a_fresh_analysis() {
    let (midas, tables) = deployment();
    let runtime = midas.runtime(&tables, 2);
    let mut jobs = Vec::new();
    for _ in 0..3 {
        for tenant in ["clinic-a", "clinic-b"] {
            jobs.push(RuntimeJob::new(tenant, ghost_combine(), QueryPolicy::balanced()));
        }
    }
    let report = runtime.run(jobs);

    let q = ghost_combine();
    let fresh: Vec<PlanDiagnostic> = analyze_fragment_plans(
        &[&q.left_prepare, &q.right_prepare, &q.combine],
        &SchemaCatalog::from_catalog(&tables),
    )
    .iter()
    .flat_map(|a| a.errors().cloned())
    .collect();
    assert!(!fresh.is_empty());

    assert!(report.completed.is_empty());
    assert_eq!(report.failed.len(), 6);
    for failed in &report.failed {
        match &failed.error {
            RuntimeError::InvalidPlan { tenant, diagnostics } => {
                assert_eq!(tenant, &failed.tenant, "the error names its own job's tenant");
                assert_eq!(diagnostics, &fresh);
            }
            other => panic!("expected InvalidPlan, got {other:?}"),
        }
    }
    let tenants: Vec<&str> = report.failed.iter().map(|f| f.tenant.as_str()).collect();
    assert_eq!(tenants.iter().filter(|&&t| t == "clinic-a").count(), 3);
    assert_eq!(tenants.iter().filter(|&&t| t == "clinic-b").count(), 3);
    // Shared scope: one analysis, five memoised verdicts.
    let memo = report.verdicts;
    assert_eq!((memo.misses, memo.hits, memo.insertions), (1, 5, 1), "{memo:?}");
}

#[test]
fn repeated_valid_plans_are_analysed_once_and_survive_a_publish() {
    let (midas, tables) = deployment();
    let runtime = midas.runtime(&tables, 1);
    // Eight tenants, each submitting the five queries.
    let jobs = || -> Vec<RuntimeJob> {
        (0..8)
            .flat_map(|t| {
                five_queries().into_iter().map(move |q| {
                    RuntimeJob::new(&format!("clinic-{t}"), q, QueryPolicy::balanced())
                })
            })
            .collect()
    };
    let report = runtime.run(jobs());
    assert_eq!(report.completed.len(), 40, "{:?}", report.failed);
    let memo = report.verdicts;
    assert_eq!((memo.misses, memo.hits), (5, 35), "{memo:?}");
    assert_eq!(memo.resident_entries, 5);

    let patient = medical_delta(40, 0.5, 17, 400)
        .into_iter()
        .find(|(name, _)| name == "patient")
        .map(|(_, delta)| delta)
        .expect("a patient delta");
    let ((), after) = runtime.serve(|ingress| {
        ingress.ingest("patient", patient).expect("ingest");
        for job in jobs() {
            ingress.submit(job);
        }
    });
    assert_eq!(after.completed.len(), 40, "{:?}", after.failed);
    assert!(after.completed.iter().all(|r| r.pinned_version == 1));
    // The publish superseded the plans' table but not their verdicts.
    let memo = after.verdicts;
    assert_eq!((memo.misses, memo.hits), (5, 75), "{memo:?}");
    assert_eq!(memo.invalidations, 0);
    assert!(after.cache.plan.invalidations > 0, "{:?}", after.cache.plan);
}

#[test]
fn a_zero_plan_budget_analyses_every_admission() {
    let (midas, tables) = deployment();
    let runtime = runtime_with(&midas, &tables, 0, CacheScope::FederationGlobal);
    let mut jobs: Vec<RuntimeJob> = (0..6)
        .map(|_| RuntimeJob::new("clinic-ok", medical_query(None), QueryPolicy::balanced()))
        .collect();
    jobs.push(RuntimeJob::new("clinic-bad", ghost_combine(), QueryPolicy::balanced()));
    jobs.push(RuntimeJob::new("clinic-bad", ghost_combine(), QueryPolicy::balanced()));
    let report = runtime.run(jobs);
    assert_eq!(report.completed.len(), 6);
    assert_eq!(report.failed.len(), 2);
    for failed in &report.failed {
        assert!(matches!(failed.error, RuntimeError::InvalidPlan { .. }));
    }
    // No memo: nothing is looked up or kept, so each admission analysed.
    assert_eq!(report.verdicts, CacheStats::default());
}

#[test]
fn per_tenant_scope_keeps_verdicts_private() {
    let (midas, tables) = deployment();
    let job = |tenant: &str| RuntimeJob::new(tenant, medical_query(None), QueryPolicy::balanced());
    let private = runtime_with(&midas, &tables, 8 << 20, CacheScope::PerTenant);
    let report = private.run(vec![job("clinic-a"), job("clinic-a"), job("clinic-b")]);
    assert_eq!(report.completed.len(), 3);
    let memo = report.verdicts;
    // B's first submission of A's plan analyses afresh.
    assert_eq!((memo.misses, memo.hits), (2, 1), "{memo:?}");

    // The same jobs under the shared scope: B takes A's verdict.
    let shared = runtime_with(&midas, &tables, 8 << 20, CacheScope::FederationGlobal);
    let report = shared.run(vec![job("clinic-a"), job("clinic-a"), job("clinic-b")]);
    let memo = report.verdicts;
    assert_eq!((memo.misses, memo.hits), (1, 2), "{memo:?}");
}
