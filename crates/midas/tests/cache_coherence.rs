//! Coherence harness for the multi-tenant caching layer:
//!
//! 1. **Differential bit-identity** — a runtime with the fragment + plan
//!    caches enabled must reproduce, bit-for-bit, the reports of a
//!    cache-disabled runtime over the same workload: identical plans,
//!    predicted/observed costs, result fingerprints, learned fits and
//!    attempt counts — at 1 and 4 workers, under randomized ingest
//!    interleavings, and across fault-injected retries. A cache may only
//!    ever change *how much work ran*, never *what came out*.
//! 2. **Freshness** — an ingest publish between admissions invalidates
//!    exactly the affected tables' entries; no query is ever served a
//!    stale snapshot's result (every result matches a standalone
//!    re-execution against its own pinned version).
//! 3. **Tenancy policy** — `CacheScope::PerTenant` never shares across
//!    tenants; a rogue tenant can neither evict a healthy tenant's hot
//!    entries (fair-share eviction) nor touch the caches at all while
//!    quarantined.

use midas::runtime::{
    FederationRuntime, RuntimeConfig, RuntimeError, RuntimeJob, RuntimeReport,
};
use midas::{Midas, QueryPolicy};
use midas_engines::cache::CacheScope;
use midas_engines::sim::FaultPlan;
use midas_moo::select::Constraints;
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_delta, medical_query};
use midas_tpch::queries::q12;
use proptest::prelude::*;

/// Field-wise bit-identity between two runtime reports. With
/// `compare_sim`, the simulated cost vectors and learned fits are
/// pinned too — valid only when both runtimes served jobs in the same
/// order (same worker count), because the shared drifting environment
/// advances with service order. Plans, predicted costs, and result
/// tables are order-insensitive and always compared.
fn assert_reports_identical(
    warm: &RuntimeReport,
    cold: &RuntimeReport,
    compare_sim: bool,
    ctx: &str,
) {
    assert_eq!(warm.completed.len(), cold.completed.len(), "{ctx}: completed");
    assert_eq!(warm.failed.len(), cold.failed.len(), "{ctx}: failed");
    for (w, c) in warm.failed.iter().zip(cold.failed.iter()) {
        assert_eq!(w.sequence, c.sequence, "{ctx}");
        assert_eq!(w.error, c.error, "{ctx}");
    }
    for (w, c) in warm.completed.iter().zip(cold.completed.iter()) {
        let label = &w.report.label;
        assert_eq!(w.sequence, c.sequence, "{ctx}/{label}");
        assert_eq!(w.tenant, c.tenant, "{ctx}/{label}");
        assert_eq!(w.attempts, c.attempts, "{ctx}/{label}: attempts drifted");
        assert_eq!(w.pinned_version, c.pinned_version, "{ctx}/{label}");
        let (a, b) = (&w.report, &c.report);
        assert_eq!(a.label, b.label, "{ctx}");
        assert_eq!(a.chosen, b.chosen, "{ctx}/{label}: plan drifted");
        assert_eq!(a.space_size, b.space_size, "{ctx}/{label}");
        assert_eq!(a.pareto_size, b.pareto_size, "{ctx}/{label}");
        assert_eq!(a.predicted_costs, b.predicted_costs, "{ctx}/{label}");
        if compare_sim {
            assert_eq!(a.actual_costs, b.actual_costs, "{ctx}/{label}: costs drifted");
        }
        assert_eq!(a.result_rows, b.result_rows, "{ctx}/{label}");
        assert_eq!(
            a.result_fingerprint, b.result_fingerprint,
            "{ctx}/{label}: result drifted"
        );
    }
    if compare_sim {
        assert_eq!(warm.learning, cold.learning, "{ctx}: learned fits drifted");
    }
}

fn assert_reports_bit_identical(warm: &RuntimeReport, cold: &RuntimeReport, ctx: &str) {
    assert_reports_identical(warm, cold, true, ctx);
}

fn no_cache(config: RuntimeConfig) -> RuntimeConfig {
    RuntimeConfig {
        fragment_cache_bytes: 0,
        plan_cache_bytes: 0,
        ..config
    }
}

/// Four tenants re-issuing the same two prepare shapes — the repeated
/// medical workload the fragment cache exists for.
fn repeated_jobs() -> Vec<RuntimeJob> {
    let mut jobs = Vec::new();
    for tenant in ["hospital-A", "hospital-B", "hospital-C", "hospital-D"] {
        for _ in 0..2 {
            for modality in ["CT", "MR"] {
                jobs.push(RuntimeJob::new(
                    tenant,
                    medical_query(Some(modality)),
                    QueryPolicy::balanced(),
                ));
            }
        }
    }
    jobs
}

#[test]
fn cached_runs_are_bit_identical_to_cold_at_one_and_four_workers() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    };

    let build = |config: RuntimeConfig| {
        FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 7),
            config,
        )
    };
    let run = |rt: &FederationRuntime| {
        let report = rt.run(repeated_jobs());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };

    let cold = run(&build(no_cache(config)));
    let warm1 = run(&build(config));
    let rt4 = build(RuntimeConfig {
        workers: 4,
        ..config
    });
    let warm4 = run(&rt4);

    assert_reports_bit_identical(&warm1, &cold, "warm1");
    // Four racing workers serve in a different order, so the shared
    // drifting environment (and with it the simulated cost vectors)
    // advances differently — but plans, predictions, and every result
    // byte must still match the cold run.
    assert_reports_identical(&warm4, &cold, false, "warm4");

    // A disabled cache records nothing at all.
    assert_eq!(cold.cache, Default::default());

    // With one worker the hit pattern is exact: 16 jobs over 2 distinct
    // queries sharing one FederationGlobal scope. CT and MR differ only
    // in the patient-side filter, so they share the modality-free
    // generalinfo prepare — 5 distinct fragments ever compute (CT and MR
    // patient prepares and combines, plus one shared generalinfo
    // prepare); the other 43 fragment services all hit.
    let f = warm1.cache.fragment;
    assert_eq!(f.misses, 5, "fragment misses: {f:?}");
    assert_eq!(f.insertions, 5);
    assert_eq!(f.hits, 43, "fragment hits: {f:?}");
    assert_eq!(f.evictions, 0);
    let p = warm1.cache.plan;
    assert_eq!(p.misses, 2, "plan misses: {p:?}");
    assert_eq!(p.hits, 14, "plan hits: {p:?}");
    // First CT job is fully cold; the first MR job already hits the
    // shared generalinfo prepare; every later job hits all 3 fragments.
    let split = |hits: u32| warm1.completed.iter().filter(|r| r.cache_hits == hits).count();
    assert_eq!((split(0), split(1), split(3)), (1, 1, 14), "per-job hit split");

    // With four workers identical jobs race, so the hit *count* is timing
    // dependent — but sharing must still have happened, and the totals
    // must account for every fragment.
    let f4 = warm4.cache.fragment;
    assert!(f4.hits > 0, "4-worker run never shared: {f4:?}");
    assert_eq!(f4.hits + f4.misses, 3 * 16);

    // A second pass over the now primed runtime has nothing left to
    // compute, so racing workers cannot make it miss: all 48 fragment
    // services and all 16 plans hit, and the results are still the cold
    // run's.
    let primed4 = run(&rt4);
    assert_reports_identical(&primed4, &cold, false, "primed4");
    let again = primed4.cache;
    assert_eq!(again.fragment.misses, f4.misses, "primed pass missed: {again:?}");
    assert_eq!(again.fragment.hits, f4.hits + 3 * 16);
    assert_eq!(again.plan.misses, warm4.cache.plan.misses, "primed pass re-planned: {again:?}");
}

#[test]
fn retries_under_injected_faults_stay_bit_identical_with_caching_on() {
    let (midas, patient_site, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    // A one-position outage at the pinned patient-scan site: job 0 fails
    // its first attempt and retries; later re-issues of the same query
    // are served warm. The fault schedule is positional (sequence +
    // attempt), and the outage check runs *before* the cache lookup, so
    // the warm run must replay the exact same failures and attempt counts.
    let run = |config: RuntimeConfig| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 11),
            config,
        )
        .with_fault_plan(FaultPlan::none().outage(patient_site, 0, 1));
        let jobs: Vec<RuntimeJob> = ["CT", "CT", "MR", "CT"]
            .iter()
            .map(|m| RuntimeJob::new("clinic", medical_query(Some(*m)), QueryPolicy::balanced()))
            .collect();
        rt.run(jobs)
    };
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    };
    let cold = run(no_cache(config));
    let warm = run(config);

    assert!(cold.failed.is_empty(), "failures: {:?}", cold.failed);
    assert_eq!(cold.completed[0].attempts, 2, "job 0 retried past the outage");
    assert_reports_bit_identical(&warm, &cold, "faulted");
    assert!(
        warm.cache.fragment.hits > 0,
        "re-issued queries should be served warm: {:?}",
        warm.cache.fragment
    );
}

/// With pressure feedback on, every attempt selects afresh under its
/// admission-time pressure sample instead of taking a point of the cached
/// costed space, and runs with the plan entry's fragment keys. The cached
/// run must hit exactly where a cached-point run does — the keys name no
/// configuration — and leave the cache-free run's ledger.
#[test]
fn pressured_fresh_selections_hit_the_cache_and_stay_bit_identical() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let run = |config: RuntimeConfig| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 7),
            config,
        );
        let report = rt.run(repeated_jobs());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        pressure_penalty: 4.0,
        ..RuntimeConfig::default()
    };
    let cold = run(no_cache(config));
    let warm = run(config);

    assert_reports_bit_identical(&warm, &cold, "pressured");
    // Every job sampled pressure, so none selected a cached point.
    assert!(warm.completed.iter().all(|r| !r.pressure.is_empty()), "a job sampled no pressure");
    // The hit split of the cached-point run: the first CT job is cold, the
    // first MR job hits the shared generalinfo prepare, the rest hit all 3.
    let split = |hits: u32| warm.completed.iter().filter(|r| r.cache_hits == hits).count();
    assert_eq!((split(0), split(1), split(3)), (1, 1, 14), "per-job hit split");
}

/// A retry after an outage selects afresh with the failed site hot and
/// runs with the plan entry's fragment keys. The outage hits a re-issued
/// query, so the retry finds its fragments cached: it must hit all three
/// and leave the cache-free run's ledger.
#[test]
fn a_retry_around_a_hot_site_hits_the_cache_and_stays_bit_identical() {
    let (midas, patient_site, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    // Position 1 is job 1's first attempt: the second CT job.
    let run = |config: RuntimeConfig| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 11),
            config,
        )
        .with_fault_plan(FaultPlan::none().outage(patient_site, 1, 2));
        let jobs: Vec<RuntimeJob> = ["CT", "CT", "MR", "CT"]
            .iter()
            .map(|m| RuntimeJob::new("clinic", medical_query(Some(*m)), QueryPolicy::balanced()))
            .collect();
        let report = rt.run(jobs);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    };
    let cold = run(no_cache(config));
    let warm = run(config);

    let attempts: Vec<usize> = cold.completed.iter().map(|r| r.attempts).collect();
    assert_eq!(attempts, [1, 2, 1, 1], "job 1 retried past the outage");
    assert_reports_bit_identical(&warm, &cold, "hot-site retry");
    let hits: Vec<u32> = warm.completed.iter().map(|r| r.cache_hits).collect();
    assert_eq!(hits, [0, 3, 1, 3], "the retry hit every fragment");
}

#[test]
fn ingest_publish_invalidates_exactly_the_affected_tables_entries() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(150, 0.5, 13),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );
    let job = || RuntimeJob::new("clinic", medical_query(Some("CT")), QueryPolicy::balanced());

    // Warm: 3 fragment entries (patient prepare, generalinfo prepare,
    // combine) and 1 plan entry.
    let report = runtime.run(vec![job()]);
    assert!(report.failed.is_empty());
    let warm = runtime.cache_stats();
    assert_eq!(warm.fragment.resident_entries, 3, "{:?}", warm.fragment);
    assert_eq!(warm.plan.resident_entries, 1, "{:?}", warm.plan);

    // Publish a delta touching ONLY generalinfo. The patient prepare
    // fragment reads a table the publish did not supersede — it must
    // survive; the generalinfo prepare and the combine (whose closure
    // reads both bases) must go, as must the plan entry (its key pins
    // both base tables).
    let delta: Vec<_> = medical_delta(40, 0.5, 17, 150)
        .into_iter()
        .filter(|(name, _)| name == "generalinfo")
        .collect();
    assert_eq!(delta.len(), 1);
    let ((), _serve_report) = runtime.serve(|ingress| {
        ingress.ingest_batch(delta).expect("ingest");
    });
    let after = runtime.cache_stats();
    assert_eq!(after.fragment.invalidations, 2, "{:?}", after.fragment);
    assert_eq!(after.fragment.resident_entries, 1, "{:?}", after.fragment);
    assert_eq!(after.plan.invalidations, 1, "{:?}", after.plan);
    assert_eq!(after.plan.resident_entries, 0, "{:?}", after.plan);

    // Re-running the query hits only the surviving patient fragment and
    // recomputes the rest against the new version.
    let report = runtime.run(vec![job()]);
    assert!(report.failed.is_empty());
    assert_eq!(report.completed[0].cache_hits, 1, "only the patient prepare survives");
    let rewarmed = runtime.cache_stats();
    assert_eq!(rewarmed.fragment.hits, warm.fragment.hits + 1);
    assert_eq!(rewarmed.fragment.misses, warm.fragment.misses + 2);
}

/// A plan-cache entry is a function of every table its plans scan, not
/// only of the two its query names. Q12 with `part` named as its right
/// table still scans `orders` in its right prepare: each `orders`-only
/// publish must retire the cached plan, so every window plans over the
/// orders it pins and the cached run's ledger stays the cache-free one's.
#[test]
fn a_publish_to_a_scanned_table_the_query_does_not_name_retires_its_plan() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let mut query = q12("MAIL", "SHIP", 1994);
    query.right_table = "part".to_string();
    let mut stream = DeltaStream::new(&db, 43);
    let publishes: Vec<Vec<_>> = (0..3)
        .map(|_| {
            let batch = stream.next_batch(200).into_batch();
            batch.into_iter().filter(|(name, _)| name == "orders").collect()
        })
        .collect();
    let run = |config: RuntimeConfig| {
        let catalog = db.catalog().clone();
        let runtime =
            FederationRuntime::new(midas.federation(), midas.placement(), catalog, config);
        // Four windows of two jobs, an orders-only publish between windows.
        let ((), report) = runtime.serve(|ingress| {
            for window in 0..=publishes.len() {
                if window > 0 {
                    ingress.ingest_batch(publishes[window - 1].clone()).expect("ingest");
                }
                for _ in 0..2 {
                    let job = RuntimeJob::new("clinic", query.clone(), QueryPolicy::balanced());
                    ingress.submit(job);
                    ingress.drain();
                }
            }
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    };
    let cold = run(no_cache(config));
    let warm = run(config);
    assert_eq!(
        warm.completed.iter().map(|r| r.pinned_version).collect::<Vec<_>>(),
        [0, 0, 1, 1, 2, 2, 3, 3]
    );
    assert_reports_bit_identical(&warm, &cold, "orders-only publishes");
    // Each publish retired the plan; the window's second job hit the one
    // its first job built.
    let p = warm.cache.plan;
    assert_eq!((p.misses, p.hits, p.invalidations), (4, 4, 3), "{p:?}");
}

/// Where a query's fragments are placed follows the two tables it names,
/// left and right in that order, not only the set of tables its plans
/// scan. Q12's plans scan `lineitem` and `orders`; naming
/// (`lineitem`, `part`), (`orders`, `part`), (`lineitem`, `orders`) or
/// (`orders`, `lineitem`) gives the same plans and the same set of tables
/// read, but four different plans to cache. Each must plan as it would
/// with no cache.
#[test]
fn queries_that_name_different_tables_over_the_same_plans_never_share_a_plan() {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 5));
    let named = [
        ("lineitem", "part"),
        ("orders", "part"),
        ("lineitem", "orders"),
        ("orders", "lineitem"),
    ];
    let jobs = || -> Vec<RuntimeJob> {
        (0..2)
            .flat_map(|_| named)
            .map(|(left, right)| {
                let mut query = q12("MAIL", "SHIP", 1994);
                query.left_table = left.to_string();
                query.right_table = right.to_string();
                RuntimeJob::new("clinic", query, QueryPolicy::balanced())
            })
            .collect()
    };
    let run = |config: RuntimeConfig| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config,
        );
        let report = runtime.run(jobs());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let config = RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    };
    let cold = run(no_cache(config));
    let warm = run(config);
    assert_reports_bit_identical(&warm, &cold, "same plans, other named tables");
    // One plan per naming, each reused by its second job.
    let p = warm.cache.plan;
    assert_eq!((p.misses, p.hits), (4, 4), "{p:?}");
}

#[test]
fn an_empty_ingest_retires_no_cache_entry() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(150, 0.5, 13),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );
    let job = || RuntimeJob::new("clinic", medical_query(Some("CT")), QueryPolicy::balanced());
    assert!(runtime.run(vec![job()]).failed.is_empty());
    let warm = runtime.cache_stats();

    // A delta of no rows over both tables: a version is published, and it
    // holds the very tables the first job's entries were keyed on.
    let delta = medical_delta(0, 0.5, 17, 150);
    assert_eq!(delta.len(), 2);
    let (receipt, _) = runtime.serve(|ingress| ingress.ingest_batch(delta).expect("ingest"));
    assert_eq!((receipt.version, receipt.stats.delta_rows), (1, 0));
    let after = runtime.cache_stats();
    assert_eq!(after.fragment.invalidations, 0, "{:?}", after.fragment);
    assert_eq!(after.plan.invalidations, 0, "{:?}", after.plan);

    let report = runtime.run(vec![job()]);
    assert!(report.failed.is_empty());
    assert_eq!(report.completed[0].pinned_version, 1);
    assert_eq!(report.completed[0].cache_hits, 3, "every fragment still hits");
    let again = runtime.cache_stats();
    assert_eq!(again.plan.hits, warm.plan.hits + 1, "{:?}", again.plan);
    assert_eq!(again.plan.misses, warm.plan.misses);
}

#[test]
fn per_tenant_scope_never_shares_across_tenants() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let run_with_scope = |scope: CacheScope| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(150, 0.5, 19),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                cache_scope: scope,
                ..RuntimeConfig::default()
            },
        );
        // Two tenants issue the *identical* query twice each.
        let mut jobs = Vec::new();
        for _ in 0..2 {
            for tenant in ["hospital-A", "hospital-B"] {
                jobs.push(RuntimeJob::new(
                    tenant,
                    medical_query(Some("CT")),
                    QueryPolicy::balanced(),
                ));
            }
        }
        let report = rt.run(jobs);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };

    // PerTenant: each tenant's first service is cold even though the
    // other tenant already computed the identical fragments — zero
    // cross-tenant hits, ever.
    let private = run_with_scope(CacheScope::PerTenant);
    for tenant in ["hospital-A", "hospital-B"] {
        let mut served: Vec<_> = private
            .completed
            .iter()
            .filter(|r| r.tenant == tenant)
            .collect();
        served.sort_by_key(|r| r.completion);
        assert_eq!(
            served[0].cache_hits, 0,
            "{tenant}: first job hit a foreign tenant's entry"
        );
        assert_eq!(served[1].cache_hits, 3, "{tenant}: own re-issue should hit");
    }
    assert_eq!(private.cache.fragment.hits, 6);
    assert_eq!(private.cache.fragment.misses, 6);
    assert_eq!(private.cache.plan.misses, 2, "plan cache is tenant-private too");

    // FederationGlobal over the same workload: the second tenant's first
    // job is served entirely from the first tenant's computation.
    let shared = run_with_scope(CacheScope::FederationGlobal);
    let cold_jobs = shared.completed.iter().filter(|r| r.cache_hits == 0).count();
    assert_eq!(cold_jobs, 1, "only the very first service is cold when sharing");
    assert_eq!(shared.cache.fragment.misses, 3);
    assert_eq!(shared.cache.plan.misses, 1);

    // Both scopes produce bit-identical results — scope only governs
    // *sharing*, never *content*.
    assert_reports_bit_identical(&private, &shared, "scopes");
}

#[test]
fn rogue_tenant_cannot_evict_a_healthy_tenants_hot_entries() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = || generate_medical(150, 0.5, 23);
    let healthy_job =
        || RuntimeJob::new("healthy", medical_query(Some("CT")), QueryPolicy::balanced());
    let rogue_job =
        |m: &str| RuntimeJob::new("rogue", medical_query(Some(m)), QueryPolicy::balanced());
    // The rogue leads with one query, which makes it the owner of the
    // big shared (modality-free) generalinfo prepare; the healthy tenant
    // then owns only its small CT-specific patient prepare and combine.
    // The rest of the flood computes fresh same-sized entries per
    // modality, dwarfing the healthy footprint with no single insert
    // ever bigger than the rogue's own accumulated share.
    let run_phases = |runtime: &FederationRuntime, after: &mut dyn FnMut(usize, u64)| {
        for (phase, jobs) in [
            vec![rogue_job("MR")],
            vec![healthy_job()],
            vec![rogue_job("US"), rogue_job("XR"), rogue_job("PET")],
        ]
        .into_iter()
        .enumerate()
        {
            let report = runtime.run(jobs);
            assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
            after(phase, runtime.cache_stats().fragment.resident_bytes);
        }
    };

    // Measure the two tenants' resident footprints with an effectively
    // unbounded cache, so the bounded run below can pick a budget that
    // *must* evict — sized in real bytes, not guesses.
    let probe = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );
    let mut resident = [0u64; 3];
    run_phases(&probe, &mut |phase, bytes| resident[phase] = bytes);
    let healthy_bytes = resident[1] - resident[0];
    let rogue_bytes = resident[2] - healthy_bytes;
    assert!(
        rogue_bytes > 2 * healthy_bytes,
        "flood too small to dominate: healthy={healthy_bytes} rogue={rogue_bytes}"
    );

    // Budget a quarter of the final flood wave short of everything: the
    // overflow lands while the rogue holds several times the healthy
    // tenant's bytes, so fair-share eviction must reclaim the rogue's
    // *own* cold entries and leave the healthy tenant's alone.
    let budget = resident[2] - (resident[2] - resident[1]) / 4;
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            fragment_cache_bytes: budget,
            ..RuntimeConfig::default()
        },
    );
    run_phases(&runtime, &mut |phase, bytes| {
        assert!(bytes <= budget, "phase {phase}: {bytes} resident bytes over the {budget} budget");
    });
    let stats = runtime.cache_stats().fragment;
    assert!(stats.evictions > 0, "budget never bit: {stats:?}");

    let report = runtime.run(vec![healthy_job()]);
    assert!(report.failed.is_empty());
    assert_eq!(
        report.completed[0].cache_hits, 3,
        "the rogue flood evicted the healthy tenant's hot entries: {:?}",
        runtime.cache_stats().fragment
    );
}

#[test]
fn quarantined_tenant_never_touches_the_caches() {
    // The rogue's zero weight vector panics inside selection — after
    // planning, so the plan cache sees the first few jobs, but execution
    // (and the fragment cache) is never reached. Silence just those
    // panics' backtraces.
    let default = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let injected = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|m| m.contains("weights must be non-empty"))
            || info
                .payload()
                .downcast_ref::<&str>()
                .is_some_and(|m| m.contains("weights must be non-empty"));
        if !injected {
            default(info);
        }
    }));

    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(150, 0.5, 29),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            quarantine_threshold: 2,
            quarantine_cooloff: 4,
            ..RuntimeConfig::default()
        },
    );
    let poison = || {
        RuntimeJob::new(
            "rogue",
            medical_query(Some("CT")),
            QueryPolicy {
                weights: vec![0.0, 0.0],
                constraints: Constraints::none(2),
            },
        )
    };

    // Jobs 0 and 1 panic (and trip the quarantine); jobs 2 and 3 are
    // rejected at the gate, before process() — no cache interaction.
    let report = runtime.run((0..4).map(|_| poison()).collect());
    assert_eq!(report.completed.len(), 0);
    assert_eq!(report.failed.len(), 4);
    assert!(matches!(
        report.failed[2].error,
        RuntimeError::Quarantined { .. }
    ));
    let tripped = runtime.cache_stats();
    assert_eq!(tripped.fragment, Default::default(), "execution never ran");
    assert!(tripped.plan.insertions <= 1, "{:?}", tripped.plan);

    // Still in cool-off: two more rogue jobs are rejected at the gate and
    // the cache statistics do not move at all.
    let report = runtime.run((0..2).map(|_| poison()).collect());
    assert_eq!(report.completed.len(), 0);
    for failed in &report.failed {
        assert!(matches!(failed.error, RuntimeError::Quarantined { .. }));
    }
    assert_eq!(runtime.cache_stats(), tripped, "a quarantined tenant moved the caches");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The differential property from the ISSUE: under randomized
    /// interleavings of ingest publishes and queries, a cached runtime is
    /// bit-identical to a cold one (same drained 1-worker tape), and a
    /// raced 4-worker cached runtime never serves any query a stale
    /// snapshot's result (every result re-derives standalone from its own
    /// pinned version).
    #[test]
    fn random_ingest_interleavings_stay_bit_identical_and_never_stale(
        seed in 0u64..1000,
        ops in proptest::collection::vec((0usize..5, 10usize..50), 4..9),
    ) {
        let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
        let base_patients = 120usize;
        let modalities = ["CT", "MR", "US", "XR", "PET"];

        // One deterministic tape: drain after each query pins the
        // admission/ingest interleaving, so warm and cold runtimes see
        // the exact same sequence of versions.
        let drained = |config: RuntimeConfig| {
            let runtime = FederationRuntime::new(
                midas.federation(),
                midas.placement(),
                generate_medical(base_patients, 0.5, seed),
                config,
            );
            let ((), report) = runtime.serve(|ingress| {
                let mut next_uid = base_patients as i64;
                for (i, &(kind, size)) in ops.iter().enumerate() {
                    if kind == 0 {
                        let delta =
                            medical_delta(size, 0.5, seed ^ (i as u64) << 13, next_uid);
                        next_uid += size as i64;
                        ingress.ingest_batch(delta).expect("ingest");
                    } else {
                        // Re-issued modalities within one version are the
                        // cache's hits; publishes in between force misses.
                        let tenant = if kind % 2 == 0 { "clinic-A" } else { "clinic-B" };
                        ingress.submit(RuntimeJob::new(
                            tenant,
                            medical_query(Some(modalities[kind % modalities.len()])),
                            QueryPolicy::balanced(),
                        ));
                        ingress.drain();
                    }
                }
            });
            report
        };
        let config = RuntimeConfig {
            workers: 1,
            max_vms: 2,
            seed,
            ..RuntimeConfig::default()
        };
        let cold = drained(no_cache(config));
        let warm = drained(config);
        prop_assert!(cold.failed.is_empty(), "failures: {:?}", cold.failed);
        assert_reports_bit_identical(&warm, &cold, "drained tape");

        // Raced replay: 4 workers, no drain barriers — publishes land
        // between admissions and mid-flight. Whatever the cache served,
        // every result must equal its pinned version's standalone
        // execution: a stale hit would fingerprint-mismatch here.
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(base_patients, 0.5, seed),
            RuntimeConfig {
                workers: 4,
                max_vms: 2,
                seed,
                ..RuntimeConfig::default()
            },
        );
        let mut queries = Vec::new();
        // Every version a job can pin, indexed by number: the producer is
        // the only publisher, so the version current after each publish is
        // the one later admissions pin.
        let (versions, raced) = runtime.serve(|ingress| {
            let mut versions = vec![runtime.versioned_catalog().current()];
            let mut next_uid = base_patients as i64;
            for (i, &(kind, size)) in ops.iter().enumerate() {
                if kind == 0 {
                    let delta = medical_delta(size, 0.5, seed ^ (i as u64) << 13, next_uid);
                    next_uid += size as i64;
                    ingress.ingest_batch(delta).expect("ingest");
                    versions.push(runtime.versioned_catalog().current());
                } else {
                    let tenant = if kind % 2 == 0 { "clinic-A" } else { "clinic-B" };
                    let query = medical_query(Some(modalities[kind % modalities.len()]));
                    ingress.submit(RuntimeJob::new(tenant, query.clone(), QueryPolicy::balanced()));
                    queries.push(query);
                }
            }
            versions
        });
        prop_assert!(raced.failed.is_empty(), "failures: {:?}", raced.failed);
        prop_assert_eq!(raced.completed.len(), queries.len());
        for r in &raced.completed {
            let pinned = &versions[r.pinned_version as usize];
            prop_assert_eq!(pinned.version(), r.pinned_version);
            let expected = queries[r.sequence]
                .standalone_fingerprint(&pinned.pin())
                .expect("standalone oracle executes");
            prop_assert_eq!(
                r.report.result_fingerprint,
                expected,
                "{} served a stale result (pinned v{}, {} cached fragments)",
                r.report.label,
                r.pinned_version,
                r.cache_hits
            );
        }
    }
}
