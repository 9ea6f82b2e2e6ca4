//! Backpressure-aware adaptive planning: the differential and directed
//! harness for congestion-driven fragment routing.
//!
//! 1. **Blind-planner bit-identity** — with pressure feedback disabled
//!    (`pressure_penalty == 0`, the default), every outcome is
//!    bit-identical to the pre-adaptive planner: same plans, predicted and
//!    simulated costs, result fingerprints and learned fits, at 1 and 4
//!    workers, under random ingest interleavings and injected faults.
//!    `replan_threshold` must be completely inert while feedback is off.
//! 2. **Zero pressure is a no-op** — feedback *enabled* but with nothing
//!    congested must also reproduce the blind planner bit-for-bit: a
//!    pressure score of zero composes the identity factor, and a
//!    speculative re-plan against an idle federation never switches.
//! 3. **Migrate and return** — a congested site's join fragments move to
//!    the uncongested site, and move back once the pressure drains.
//! 4. **Accounting** — per-tenant queue depth/wait counters and the
//!    sim-clock tail-latency ledger are internally consistent.
//! 5. **Cache hygiene** — cached plans are pressure-free by construction:
//!    a pressured run with the plan cache on is bit-identical to the same
//!    run with it off.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::{Midas, QueryPolicy};
use midas_engines::sim::{DriftIntensity, FaultPlan};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::{EnumerationSpace, PlanCostModel};
use midas_moo::WeightedSumModel;
use midas_tpch::medical::{generate_medical, medical_delta, medical_query};
use proptest::prelude::*;

/// Field-wise bit-identity between two runtime reports, including the
/// adaptive-planning additions (`queued_s`, sampled pressure). With
/// `compare_sim`, the simulated cost vectors, learned fits and
/// admission/completion clocks are pinned too — valid only when both
/// runtimes served jobs in the same order (same worker count).
fn assert_reports_identical(a: &RuntimeReport, b: &RuntimeReport, compare_sim: bool, ctx: &str) {
    assert_eq!(a.completed.len(), b.completed.len(), "{ctx}: completed");
    assert_eq!(a.failed.len(), b.failed.len(), "{ctx}: failed");
    for (x, y) in a.failed.iter().zip(b.failed.iter()) {
        assert_eq!(x.sequence, y.sequence, "{ctx}");
        assert_eq!(x.error, y.error, "{ctx}");
    }
    for (x, y) in a.completed.iter().zip(b.completed.iter()) {
        let label = &x.report.label;
        assert_eq!(x.sequence, y.sequence, "{ctx}/{label}");
        assert_eq!(x.tenant, y.tenant, "{ctx}/{label}");
        assert_eq!(x.attempts, y.attempts, "{ctx}/{label}: attempts drifted");
        assert_eq!(x.pinned_version, y.pinned_version, "{ctx}/{label}");
        let (r, s) = (&x.report, &y.report);
        assert_eq!(r.label, s.label, "{ctx}");
        assert_eq!(r.chosen, s.chosen, "{ctx}/{label}: plan drifted");
        assert_eq!(r.space_size, s.space_size, "{ctx}/{label}");
        assert_eq!(r.pareto_size, s.pareto_size, "{ctx}/{label}");
        assert_eq!(r.predicted_costs, s.predicted_costs, "{ctx}/{label}");
        if compare_sim {
            assert_eq!(x.queued_s, y.queued_s, "{ctx}/{label}: queued clock drifted");
            assert_eq!(x.admitted_s, y.admitted_s, "{ctx}/{label}: admitted clock drifted");
            assert_eq!(x.completed_s, y.completed_s, "{ctx}/{label}: completed clock drifted");
            assert_eq!(r.actual_costs, s.actual_costs, "{ctx}/{label}: costs drifted");
        }
        assert_eq!(r.result_rows, s.result_rows, "{ctx}/{label}");
        assert_eq!(
            r.result_fingerprint, s.result_fingerprint,
            "{ctx}/{label}: result drifted"
        );
    }
    if compare_sim {
        assert_eq!(a.learning, b.learning, "{ctx}: learned fits drifted");
    }
}

/// Interleaving-independent terminal outcomes (the fault-resilience
/// suite's canonicalization, plus the plan): what must match across worker
/// counts. With pressure feedback off, planning is a pure function of the
/// pinned catalog version, so the chosen configuration is part of it.
fn canonical_outcomes(report: &RuntimeReport) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = report
        .completed
        .iter()
        .map(|r| {
            (
                r.sequence,
                format!(
                    "ok tenant={} attempts={} fingerprint={} pinned=v{} chosen={:?} \
                     replans={} switched={}",
                    r.tenant,
                    r.attempts,
                    r.report.result_fingerprint,
                    r.pinned_version,
                    r.report.chosen,
                    r.replans,
                    r.plan_switched,
                ),
            )
        })
        .chain(
            report
                .failed
                .iter()
                .map(|f| (f.sequence, format!("err tenant={} {:?}", f.tenant, f.error))),
        )
        .collect();
    out.sort_by_key(|(sequence, _)| *sequence);
    out
}

/// A small skewed multi-tenant workload over the medical schema.
fn workload() -> Vec<RuntimeJob> {
    let mut jobs = Vec::new();
    for (tenant, modalities) in [
        ("hospital-A", &["CT", "MR", "CT"][..]),
        ("hospital-B", &["US", "CT"][..]),
        ("clinic-C", &["MR"][..]),
    ] {
        for modality in modalities {
            jobs.push(RuntimeJob::new(
                tenant,
                medical_query(Some(modality)),
                QueryPolicy::balanced(),
            ));
        }
    }
    jobs
}

#[test]
fn zero_pressure_feedback_reproduces_the_blind_planner_bit_for_bit() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let run = |config: RuntimeConfig| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 7),
            config,
        );
        let report = rt.run(workload());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let blind = run(RuntimeConfig {
        workers: 1,
        max_vms: 2,
        ..RuntimeConfig::default()
    });
    // `replan_threshold` must be inert while feedback is off…
    let off = run(RuntimeConfig {
        workers: 1,
        max_vms: 2,
        pressure_penalty: 0.0,
        replan_threshold: 0.0,
        ..RuntimeConfig::default()
    });
    assert_reports_identical(&off, &blind, true, "feedback off");
    assert_eq!(off.replans, 0, "feedback off must never re-plan");
    assert_eq!(off.plan_switches, 0);

    // …and feedback *on* over an idle federation is equally a no-op: at 1
    // worker nothing ever holds a slot while another job plans, so every
    // observed score is 0, every composed factor is the identity, and a
    // triggered re-plan re-selects the same configuration. threshold 0
    // makes every job past the first re-plan, so this exercises the whole
    // speculative path, not just its gate.
    let on_idle = run(RuntimeConfig {
        workers: 1,
        max_vms: 2,
        pressure_penalty: 4.0,
        replan_threshold: 0.0,
        ..RuntimeConfig::default()
    });
    assert_reports_identical(&on_idle, &blind, true, "feedback on, idle");
    assert!(on_idle.replans > 0, "threshold 0 must trigger speculative re-plans");
    assert_eq!(on_idle.plan_switches, 0, "an idle federation never flips a plan");
    for r in &on_idle.completed {
        // Feedback on records a sample — and at 1 worker nothing can hold
        // a slot at admission time, so every recorded score is zero.
        assert!(!r.pressure.is_empty());
        assert!(r.pressure.iter().all(|(_, score)| *score == 0.0), "{:?}", r.pressure);
    }
}

#[test]
fn congested_sites_fragments_migrate_and_return_when_pressure_drains() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(200, 0.5, 7);
    let query = medical_query(Some("CT"));
    let policy = QueryPolicy::balanced();
    let space =
        EnumerationSpace::for_query(midas.federation(), midas.placement(), &query, 2).unwrap();
    let model = PlanCostModel::build(midas.placement(), &query, &catalog).unwrap();
    let weights = WeightedSumModel::new(&policy.weights);
    let pick = |m: &PlanCostModel| {
        moqp_exhaustive(&space, m, midas.federation(), &weights, &policy.constraints).chosen
    };

    let home = pick(&model);
    // Congest the chosen join site: a backlog of 4× capacity at an 8×
    // penalty makes every plan joining there 33× more expensive on both
    // axes, so the selection must route the join to the other site.
    let congested = model
        .clone()
        .with_site_pressure(&[(home.join_site, 4.0)], 8.0)
        .unwrap();
    let away = pick(&congested);
    assert_ne!(
        away.join_site, home.join_site,
        "a 33x-penalized join site was not routed around"
    );

    // Drain: a zero score composes the identity factor, so the model —
    // and with it the chosen configuration — returns exactly to baseline.
    let drained = model
        .clone()
        .with_site_pressure(&[(home.join_site, 0.0)], 8.0)
        .unwrap();
    assert_eq!(pick(&drained), home, "drained pressure must restore the plan");
}

#[test]
fn queue_and_tail_latency_accounting_is_internally_consistent() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(150, 0.5, 13),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    );
    let report = rt.run(workload());
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);

    // Per-job ledger: queued → admitted → completed, monotone on the
    // simulated clock, with a non-negative wall queue wait.
    for r in &report.completed {
        assert!(r.queued_s <= r.admitted_s, "{}: admitted before queued", r.report.label);
        assert!(r.admitted_s <= r.completed_s, "{}: completed before admitted", r.report.label);
        assert!(r.queue_wait_s >= 0.0);
        assert!(r.pressure.is_empty(), "no pressure is sampled while feedback is off");
    }

    // Per-tenant queue counters: batch admission enqueues everything
    // before any worker runs, so the peak depth is each tenant's job
    // count and everything submitted was served.
    let expected = [("clinic-C", 1usize), ("hospital-A", 3), ("hospital-B", 2)];
    assert_eq!(report.tenants.len(), expected.len());
    for ((name, stats), (expected_name, jobs)) in report.tenants.iter().zip(expected) {
        assert_eq!(name, expected_name);
        assert_eq!(stats.queue.submitted, jobs, "{name}");
        assert_eq!(stats.queue.served, jobs, "{name}");
        assert_eq!(stats.queue.peak_depth, jobs, "{name}");
        assert!(stats.queue.total_wait_s >= 0.0);
        // Tail ledger: ordered percentiles over exactly the tenant's jobs.
        let l = stats.latency;
        assert_eq!(l.count, jobs, "{name}");
        assert!(l.p50_s > 0.0, "{name}: zero-latency completion");
        assert!(l.p50_s <= l.p95_s && l.p95_s <= l.p99_s && l.p99_s <= l.max_s, "{name}: {l:?}");
    }
    let federation_wide = report.latency;
    assert_eq!(federation_wide.count, report.completed.len());
    let worst_tenant = report
        .tenants
        .iter()
        .map(|(_, s)| s.latency.max_s)
        .fold(0.0f64, f64::max);
    assert_eq!(federation_wide.max_s, worst_tenant);
}

#[test]
fn pressured_planning_never_poisons_the_plan_cache() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    // Feedback on with threshold 0: every job past the first re-plans, and
    // every planning result flows through the plan cache when enabled. If
    // a pressured model ever got cached, the warm run would diverge from
    // the cold one (or from the blind planner) on plans or predictions.
    let run = |plan_cache_bytes: u64| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(200, 0.5, 19),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                fragment_cache_bytes: 0,
                plan_cache_bytes,
                pressure_penalty: 4.0,
                replan_threshold: 0.0,
                ..RuntimeConfig::default()
            },
        );
        let report = rt.run(workload());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        report
    };
    let cold = run(0);
    let warm = run(1 << 20);
    assert_reports_identical(&warm, &cold, true, "pressured warm vs cold");
    assert!(warm.cache.plan.hits > 0, "plan cache never hit: {:?}", warm.cache.plan);
}

/// The whole loop through a serving runtime. Four tenants each have a job
/// in flight on four workers while their favourite join site is congested
/// (an admission flap pins its gate to one slot, a 20x slowdown stretches
/// whatever lands there, and `pacing` holds each fragment in its slot);
/// once a queue has formed at that gate, each tenant submits a second job.
/// The pressure-aware planner samples the queue, plans those joins at the
/// other site and re-plans them once they have waited — a re-plan may
/// bring a join back when the queue has drained by then. The blind planner
/// does none of it.
#[test]
fn a_congested_join_site_is_routed_around_only_when_pressure_is_on() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let tenants = ["hospital-A", "hospital-B", "hospital-C", "clinic-D"];
    let wave = |modality: &'static str| {
        tenants.map(|t| RuntimeJob::new(t, medical_query(Some(modality)), QueryPolicy::balanced()))
    };
    let runtime = |config: RuntimeConfig, faults: FaultPlan| {
        FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            generate_medical(1_500, 0.5, 42),
            config,
        )
        .with_fault_plan(faults)
    };
    // Every fragment executes and holds its slot: no cache tier.
    let config = RuntimeConfig {
        workers: 4,
        max_vms: 2,
        replan_threshold: 0.25,
        drift: DriftIntensity::None,
        fragment_cache_bytes: 0,
        plan_cache_bytes: 0,
        ..RuntimeConfig::default()
    };
    // The blind planner's join site on a healthy federation is the one
    // worth congesting.
    let probe = runtime(config, FaultPlan::none()).run(wave("CT").to_vec());
    let hot = probe.completed[0].report.chosen.join_site;
    let hot_name = &midas.federation().site(hot).name;
    let n_jobs = 2 * tenants.len();
    let faults = FaultPlan::none()
        .flap(hot, 0, n_jobs as u64)
        .slowdown(hot, 0, n_jobs as u64, 20.0);

    let serve = |pressure_penalty: f64| {
        let rt = runtime(
            RuntimeConfig {
                pacing: 0.05,
                pressure_penalty,
                ..config
            },
            faults.clone(),
        );
        let ((), report) = rt.serve(|ingress| {
            for job in wave("CT") {
                ingress.submit(job);
            }
            // Not a sleep: the second wave is submitted on the observed
            // condition its pressure samples are about, a queue at the
            // hot gate.
            let queued_at_hot = || {
                let stats = rt.admission_stats();
                let (_, gate) = stats.iter().find(|(site, _)| site == hot_name).expect("metered");
                gate.in_use + gate.waiting
            };
            let started = std::time::Instant::now();
            while queued_at_hot() < 2 {
                assert!(started.elapsed().as_secs() < 60, "no queue formed at the hot gate");
                std::thread::yield_now();
            }
            for job in wave("MR") {
                ingress.submit(job);
            }
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.completed.len(), n_jobs);
        report
    };

    let blind = serve(0.0);
    assert_eq!((blind.replans, blind.plan_switches), (0, 0), "the blind planner re-planned");
    for r in &blind.completed {
        assert_eq!(r.report.chosen.join_site, hot, "a blind join moved with no signal");
    }

    let aware = serve(4.0);
    assert!(aware.replans > 0, "the congested aware run never re-planned");
    // Two of the four in-flight jobs at the hot gate (0.5 of its four
    // slots) outweigh whatever the other two hold elsewhere, so a job that
    // sampled them planned its join at the other site — and either stayed
    // there or was re-planned back.
    let mut routed = 0;
    for r in &aware.completed[tenants.len()..] {
        if r.pressure.iter().any(|&(site, score)| site == hot && score >= 0.5) {
            routed += 1;
            assert!(
                r.report.chosen.join_site != hot || r.plan_switched,
                "job {} sampled {:?} and still planned its join at the hot site",
                r.sequence,
                r.pressure
            );
        }
    }
    assert!(routed > 0, "no second-wave job sampled the queue at the hot gate");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The ISSUE's differential property: with pressure feedback disabled,
    /// the planner is the pre-adaptive planner — bit-for-bit on a drained
    /// 1-worker tape of random ingest/query interleavings (arbitrary
    /// `replan_threshold`), and outcome-identical between 1 and 4 workers
    /// under an injected outage.
    #[test]
    fn pressure_off_matches_the_blind_planner_under_random_interleavings(
        seed in 0u64..1000,
        threshold_idx in 0usize..3,
        ops in proptest::collection::vec((0usize..5, 10usize..40), 3..7),
    ) {
        let threshold = [0.0f64, 0.5, 4.0][threshold_idx];
        let (midas, patient_site, _) =
            Midas::example_deployment(&["patient"], &["generalinfo"]);
        let base_patients = 100usize;
        let modalities = ["CT", "MR", "US", "XR", "PET"];
        let drained = |config: RuntimeConfig| {
            let runtime = FederationRuntime::new(
                midas.federation(),
                midas.placement(),
                generate_medical(base_patients, 0.5, seed),
                config,
            )
            .with_fault_plan(FaultPlan::none().outage(patient_site, 1, 2));
            let ((), report) = runtime.serve(|ingress| {
                let mut next_uid = base_patients as i64;
                for (i, &(kind, size)) in ops.iter().enumerate() {
                    if kind == 0 {
                        let delta =
                            medical_delta(size, 0.5, seed ^ (i as u64) << 13, next_uid);
                        next_uid += size as i64;
                        ingress.ingest_batch(delta).expect("ingest");
                    } else {
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
        let blind = drained(config);
        let off = drained(RuntimeConfig {
            pressure_penalty: 0.0,
            replan_threshold: threshold,
            ..config
        });
        assert_reports_identical(&off, &blind, true, "pressure off, drained tape");
        prop_assert_eq!(off.replans, 0);

        // Raced replay at 4 workers: terminal outcomes (not sim costs,
        // which legitimately depend on service order) must match.
        let raced = drained(RuntimeConfig {
            workers: 4,
            ..config
        });
        prop_assert_eq!(canonical_outcomes(&raced), canonical_outcomes(&blind));
    }
}
