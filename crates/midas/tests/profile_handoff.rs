//! Differential harness for the planning → execution hand-off.
//!
//! On a plan-cache miss the runtime profiles the query's three fragments
//! once (`PlanCostModel::profile`) and hands their outputs to execution,
//! which takes them in place of running the fragments a second time. The
//! flow it replaced — `PlanCostModel::build`, outputs thrown away, then a
//! `SharedExecutor` that executes everything — is still reachable through
//! the public API, and the sequential `Reference` in `common/` is exactly
//! that flow, job after job on one thread. The two must agree bit for bit:
//! chosen plans, predicted and simulated cost vectors, DREAM windows,
//! result fingerprints, base-table bytes read, fragment-cache hits,
//! per-site admissions, the simulated clock and the learned histories —
//! under every combination of fragment cache, plan cache and worker count,
//! and across a fault-injected retry.
//!
//! The reference also costs the space afresh (`moqp_exhaustive`) for every
//! attempt of every job, where the runtime selects from the Pareto set its
//! plan-cache entry keeps — except when admission pressure was sampled or
//! a site failed, where it too costs a per-attempt model. Both routes are
//! pinned against the reference here.

mod common;

use common::{ledgers, Ledger, Reference};
use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::{Midas, QueryPolicy};
use midas_cloud::SiteId;
use midas_engines::exec::{ExecutionOutcome, ProfiledFragment, SharedExecutor};
use midas_engines::sim::{FaultPlan, SimulationEnv, SiteAdmission};
use midas_engines::{execute_fused, Catalog, EngineKind};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::SchedulerConfig;
use midas_ires::{assemble, CandidateConfig, EnumerationSpace, PlanCostModel};
use midas_moo::WeightedSumModel;
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17};
use std::sync::Mutex;

/// The fields that do not depend on the order workers served the jobs in.
fn order_free(ledger: &Ledger) -> Ledger {
    Ledger {
        actual: Vec::new(),
        cache_hits: 0,
        ..ledger.clone()
    }
}

/// One job per tenant per round, so a single worker's round-robin serves
/// them in submission order. Q13 and Q17 repeat unchanged every round (a
/// plan-cache hit from round 1 on, nothing handed over); Q12 and Q14
/// change instance every round (a miss, three fragments handed over).
fn mixed_jobs(rounds: usize) -> Vec<RuntimeJob> {
    let modes = [("MAIL", "SHIP"), ("AIR", "RAIL"), ("TRUCK", "FOB"), ("REG AIR", "SHIP")];
    let mut jobs = Vec::new();
    for round in 0..rounds {
        let (m1, m2) = modes[round % modes.len()];
        let year = 1993 + (round % 5) as i32;
        jobs.push(RuntimeJob::new("hospital-A", q12(m1, m2, year), QueryPolicy::balanced()));
        jobs.push(RuntimeJob::new(
            "hospital-B",
            q13("special", "requests"),
            QueryPolicy::fastest(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-C",
            q14(year, 1 + (round % 12) as u32),
            QueryPolicy::cheapest(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-D",
            q17("Brand#23", "MED BOX"),
            QueryPolicy::balanced().with_money_budget(50.0),
        ));
    }
    jobs
}

fn deployment() -> (Midas, TpchDb) {
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    (midas, TpchDb::generate(GenConfig::new(0.002, 5)))
}

fn runtime<'a>(midas: &'a Midas, db: &TpchDb, config: RuntimeConfig) -> FederationRuntime<'a> {
    FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        config,
    )
}

/// Runs `jobs` through a one-worker runtime (hand-off) and through the
/// reference (no hand-off) and pins every ledger, the clock, the per-site
/// admission counts and the learned histories. Returns the runtime's
/// report and the reference's ledgers. With pressure
/// feedback on, the jobs are streamed through `serve`, each drained before
/// the next is submitted — what the reference's arrival-time pressure
/// sample models.
fn assert_one_worker_matches_reference(
    midas: &Midas,
    db: &TpchDb,
    config: RuntimeConfig,
    faults: Option<FaultPlan>,
    jobs: &[RuntimeJob],
    ctx: &str,
) -> (RuntimeReport, Vec<Ledger>) {
    let reference = Reference::new(midas, db.catalog(), config, faults.clone());
    let expected: Vec<Ledger> = jobs
        .iter()
        .enumerate()
        .map(|(sequence, job)| reference.job(sequence, job, db.catalog()))
        .collect();
    let mut rt = runtime(midas, db, RuntimeConfig { workers: 1, ..config });
    if let Some(plan) = faults {
        rt = rt.with_fault_plan(plan);
    }
    let report = if config.pressure_penalty > 0.0 {
        let ((), report) = rt.serve(|ingress| {
            for job in jobs {
                ingress.submit(job.clone());
                ingress.drain();
            }
        });
        report
    } else {
        rt.run(jobs.to_vec())
    };
    assert!(report.failed.is_empty(), "{ctx}: failures {:?}", report.failed);
    assert_eq!(ledgers(&report), expected, "{ctx}");
    reference.assert_end_state(&rt, &report, ctx);
    (report, expected)
}

#[test]
fn hand_off_matches_build_then_execute_across_the_config_matrix() {
    let (midas, db) = deployment();
    let jobs = mixed_jobs(3);
    for fragment_cache_bytes in [0, 64 << 20] {
        for plan_cache_bytes in [0, 8 << 20] {
            let config = RuntimeConfig {
                max_vms: 2,
                fragment_cache_bytes,
                plan_cache_bytes,
                ..RuntimeConfig::default()
            };
            let ctx = format!("frag={fragment_cache_bytes} plan={plan_cache_bytes}");
            let (one, expected) =
                assert_one_worker_matches_reference(&midas, &db, config, None, &jobs, &ctx);
            // Misses hand over all three fragments, hits none
            // (a fragment cache would serve some of them first).
            let misses = if plan_cache_bytes == 0 { 12 } else { 8 };
            let handed: Vec<u32> =
                one.completed.iter().map(|r| r.reused_fragments).collect();
            if fragment_cache_bytes == 0 {
                assert_eq!(one.reused_fragments, 3 * misses, "{ctx}: {handed:?}");
                assert!(handed.iter().all(|&h| h == 0 || h == 3), "{ctx}: {handed:?}");
            }

            // Four racing workers serve in another order, so the
            // drifting env differs; everything else may not.
            let four = runtime(&midas, &db, RuntimeConfig { workers: 4, ..config })
                .run(jobs.clone());
            assert!(four.failed.is_empty(), "{ctx}: failures {:?}", four.failed);
            let four: Vec<Ledger> = ledgers(&four).iter().map(order_free).collect();
            let expected: Vec<Ledger> = expected.iter().map(order_free).collect();
            assert_eq!(four, expected, "{ctx} at 4 workers");
        }
    }
}

#[test]
fn dream_windows_are_unchanged_once_the_history_is_deep_enough_to_fit() {
    // Eight observations per class: DREAM fits from the sixth on, so the
    // learned fits the reference pins are real reports, not `None == None`.
    let (midas, db) = deployment();
    let config = RuntimeConfig {
        max_vms: 2,
        ..RuntimeConfig::default()
    };
    let (report, _) =
        assert_one_worker_matches_reference(&midas, &db, config, None, &mixed_jobs(8), "deep");
    assert!(report.learning.iter().all(|c| matches!(c.fit, Ok(Some(_)))));
}

#[test]
fn an_outage_fails_before_the_hand_off_and_the_retry_reuses_it() {
    let (midas, db) = deployment();
    let orders_site = midas.placement().locate("orders").expect("placed").site;
    // Position 0 only: job 0 (Q12, lineitem ⋈ orders) runs its lineitem
    // fragment, is refused at the orders site, and retries at position 1.
    let faults = FaultPlan::none().outage(orders_site, 0, 1);
    for (fragment_cache_bytes, plan_cache_bytes) in [(0, 0), (64 << 20, 8 << 20)] {
        let config = RuntimeConfig {
            max_vms: 2,
            fragment_cache_bytes,
            plan_cache_bytes,
            ..RuntimeConfig::default()
        };
        let ctx = format!("outage frag={fragment_cache_bytes} plan={plan_cache_bytes}");
        let (report, _) = assert_one_worker_matches_reference(
            &midas,
            &db,
            config,
            Some(faults.clone()),
            &mixed_jobs(2),
            &ctx,
        );
        let retried = &report.completed[0];
        assert_eq!(retried.attempts, 2, "{ctx}: the outage still raised SiteUnavailable");
        // With the fragment cache on, the failed attempt's lineitem
        // fragment was cached on its way through and now hits; the other
        // two still come from the same hand-off.
        let (reused, hits) = if fragment_cache_bytes == 0 { (3, 0) } else { (2, 1) };
        assert_eq!((retried.reused_fragments, retried.cache_hits), (reused, hits), "{ctx}");
    }
}

#[test]
fn pressure_feedback_costs_a_per_attempt_model_and_the_ledger_is_unchanged() {
    let (midas, db) = deployment();
    for plan_cache_bytes in [0, 8 << 20] {
        let config = RuntimeConfig {
            max_vms: 2,
            plan_cache_bytes,
            pressure_penalty: 4.0,
            ..RuntimeConfig::default()
        };
        let ctx = format!("pressure feedback on, plan={plan_cache_bytes}");
        let (report, _) =
            assert_one_worker_matches_reference(&midas, &db, config, None, &mixed_jobs(3), &ctx);
        // Every job carried a pressure sample into planning, so none of
        // them selected from its plan entry's Pareto set — plan-cache hits
        // (rounds 2 and 3 of Q13 / Q17) included.
        for r in &report.completed {
            assert!(!r.pressure.is_empty(), "{ctx}: {} sampled nothing", r.report.label);
        }
        if plan_cache_bytes > 0 {
            assert_eq!(report.cache.plan.hits, 4, "{ctx}");
        }
        // Nothing waited, so the reference's missing re-plan block never ran.
        assert_eq!(report.replans, 0, "{ctx}");
    }
}

#[test]
fn a_hot_site_retry_costs_the_space_again_instead_of_reusing_the_front() {
    let (midas, db) = deployment();
    let (federation, placement) = (midas.federation(), midas.placement());
    // Where job 0 (Q12, balanced) joins when nothing is wrong — what its
    // plan entry's Pareto set selects, on the first attempt and on any
    // attempt that wrongly selected from it again.
    let jobs = mixed_jobs(2);
    let (query, policy) = (&jobs[0].query, &jobs[0].policy);
    let space = EnumerationSpace::for_query(federation, placement, query, 2).unwrap();
    let model = PlanCostModel::build(placement, query, db.catalog()).unwrap();
    let home = moqp_exhaustive(
        &space,
        &model,
        federation,
        &WeightedSumModel::new(&policy.weights),
        &policy.constraints,
    )
    .chosen;
    // That site is down at position 0 only: the first attempt is refused
    // there, the retry at position 1 plans with it marked hot.
    let faults = FaultPlan::none().outage(home.join_site, 0, 1);
    for plan_cache_bytes in [0, 8 << 20] {
        let config = RuntimeConfig {
            max_vms: 2,
            plan_cache_bytes,
            ..RuntimeConfig::default()
        };
        let ctx = format!("hot-site retry, plan={plan_cache_bytes}");
        let (report, _) = assert_one_worker_matches_reference(
            &midas,
            &db,
            config,
            Some(faults.clone()),
            &jobs,
            &ctx,
        );
        let retried = &report.completed[0];
        assert_eq!(retried.attempts, 2, "{ctx}");
        assert!(retried.pressure.is_empty(), "{ctx}: feedback is off");
        // The penalty moved the join: the retry's plan is not one the
        // pressure-free Pareto set would have selected, and it is the one
        // the reference's freshly costed hot model selects (ledger above).
        assert_ne!(retried.report.chosen.join_site, home.join_site, "{ctx}");
        // Later jobs are back on the pressure-free route, same ledger.
        assert!(report.completed[1..].iter().all(|r| r.attempts == 1), "{ctx}");
    }
}

#[test]
fn reused_fragments_says_which_jobs_executed_nothing_twice() {
    let (midas, db) = deployment();
    let job = |tenant: &str| {
        RuntimeJob::new(tenant, q12("MAIL", "SHIP", 1994), QueryPolicy::balanced())
    };
    let run = |fragment_cache_bytes: u64, plan_cache_bytes: u64| {
        let config = RuntimeConfig {
            workers: 1,
            max_vms: 2,
            fragment_cache_bytes,
            plan_cache_bytes,
            ..RuntimeConfig::default()
        };
        let report = runtime(&midas, &db, config).run(vec![job("hospital-A"), job("hospital-B")]);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        let per_job: Vec<(u32, u32)> = report
            .completed
            .iter()
            .map(|r| (r.reused_fragments, r.cache_hits))
            .collect();
        (per_job, report.reused_fragments)
    };
    // Plan-cache miss: all three fragments come from planning. Plan-cache
    // hit: nothing was profiled, so nothing is handed over — the fragment
    // cache serves the repeat, or (when off) the fragments execute.
    assert_eq!(run(64 << 20, 8 << 20), (vec![(3, 0), (0, 3)], 3));
    assert_eq!(run(0, 8 << 20), (vec![(3, 0), (0, 0)], 3));
    // No plan cache: every job is a miss. The second job's fragments are
    // in the fragment cache, which is consulted first.
    assert_eq!(run(0, 0), (vec![(3, 0), (3, 0)], 6));
    assert_eq!(run(64 << 20, 0), (vec![(3, 0), (0, 3)], 3));
}

#[test]
fn a_cold_job_scans_what_one_standalone_execution_scans() {
    let (midas, db) = deployment();
    let query = q12("MAIL", "SHIP", 1994);
    let tables = db.catalog();
    // Standalone: each fragment once.
    let (left, work_left) = execute_fused(&query.left_prepare, tables).unwrap();
    let (right, work_right) = execute_fused(&query.right_prepare, tables).unwrap();
    let mut prepared = Catalog::new();
    prepared.insert("@frag0", left);
    prepared.insert("@frag1", right);
    let (result, work_combine) = execute_fused(&query.combine, &prepared).unwrap();
    let standalone_rows: u64 = [&work_left, &work_right, &work_combine]
        .iter()
        .map(|w| w.scanned_rows())
        .sum();

    // The job: profile (the only executions), then a run that is handed
    // all three outputs and so executes nothing.
    let (_, profiled) = PlanCostModel::profile(midas.placement(), &query, tables, None).unwrap();
    let executed_rows: u64 = profiled.iter().map(|p| p.work.scanned_rows()).sum();
    assert_eq!(executed_rows, standalone_rows);
    // One federated plan, executed from the same seed twice: once handed
    // all three profiled outputs, once executing everything.
    let config = CandidateConfig {
        join_site: SiteId(0),
        join_engine: EngineKind::Spark,
        instance_idx: 1,
        vm_count: 2,
    };
    let federated = assemble(midas.federation(), midas.placement(), &query, &config).unwrap();
    let seeded = SchedulerConfig::default();
    let execute = |handed: &[ProfiledFragment]| {
        let mut env = SimulationEnv::new();
        for site in midas.federation().site_ids() {
            env.register_site(site, seeded.seed, seeded.drift);
        }
        let env = Mutex::new(env);
        let admission = SiteAdmission::unmetered();
        let outcome = SharedExecutor::new(midas.federation(), &env, &admission)
            .with_profiled_fragments(handed)
            .run(&federated, tables)
            .unwrap();
        let clock = env.lock().unwrap().clock_s;
        (outcome, clock)
    };
    let (run, clock) = execute(&profiled);
    assert_eq!(run.reused_fragments, 3);
    assert_eq!(run.result.fingerprint(), result.fingerprint());
    // The ledger attributes one execution's work to the job.
    let attributed: u64 = run.fragments.iter().map(|f| f.work.scanned_rows()).sum();
    assert_eq!(attributed, standalone_rows);

    // Same signals as executing without the hand-off.
    let (cold, cold_clock) = execute(&[]);
    assert_eq!(cold.reused_fragments, 0);
    let bits = |costs: Vec<f64>| costs.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(run.cost_vector()), bits(cold.cost_vector()));
    let work = |outcome: &ExecutionOutcome| {
        outcome.fragments.iter().map(|f| f.work.clone()).collect::<Vec<_>>()
    };
    assert_eq!(work(&run), work(&cold));
    assert_eq!(clock.to_bits(), cold_clock.to_bits());
}
