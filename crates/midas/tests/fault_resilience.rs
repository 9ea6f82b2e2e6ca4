//! The fault-injection contract of the resilient runtime:
//!
//! 1. **Replayable chaos** — a fixed [`FaultPlan`] seed produces
//!    bit-identical per-job outcomes (success/failure kind, retry counts,
//!    result fingerprints, pinned versions, per-tenant completion order)
//!    at 1 worker and at 4 workers, because faults key on admission
//!    positions, not wall-clock or thread interleaving.
//! 2. **Typed exhaustion and quarantine** — a site outage outliving every
//!    retry surfaces as `RuntimeError::SiteUnavailable` with tenant/site/
//!    attempt context; enough consecutive failures trip a quarantine whose
//!    cool-off rejections are themselves typed, and whose expiry lets the
//!    tenant probe its way back to service.
//! 3. **Blast-radius isolation** — a quarantined tenant's neighbors keep
//!    completing, and deadline overruns neither retry nor count toward
//!    quarantine.

use midas::runtime::{
    FederationRuntime, RuntimeConfig, RuntimeError, RuntimeJob, RuntimeReport,
};
use midas::{Midas, QueryPolicy};
use midas_engines::sim::{FaultPlan, FaultSpec};
use midas_moo::select::Constraints;
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_query};
use midas_tpch::queries::{q12, q13};
use proptest::prelude::*;
use std::collections::HashMap;

/// One job's terminal outcome, canonicalized to exactly the fields the
/// fault-position model promises are interleaving-independent. Simulated
/// costs and wall latencies are deliberately absent: the drifting
/// environment's noise draws *do* depend on how workers interleave.
fn canonical_outcomes(report: &RuntimeReport) -> Vec<(usize, String)> {
    let mut out: Vec<(usize, String)> = report
        .completed
        .iter()
        .map(|r| {
            (
                r.sequence,
                format!(
                    "ok tenant={} attempts={} fingerprint={} pinned=v{}",
                    r.tenant,
                    r.attempts,
                    r.report.result_fingerprint,
                    r.pinned_version
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

/// Per-tenant sequences in completion order — the serialization invariant
/// (at most one in-flight job per tenant) makes these ascending at any
/// worker count.
fn per_tenant_completion_order(report: &RuntimeReport) -> HashMap<String, Vec<usize>> {
    let mut by_completion: Vec<_> = report.completed.iter().collect();
    by_completion.sort_by_key(|r| r.completion);
    let mut orders: HashMap<String, Vec<usize>> = HashMap::new();
    for r in by_completion {
        orders.entry(r.tenant.clone()).or_default().push(r.sequence);
    }
    orders
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The ISSUE's determinism property: for a fixed fault seed, the full
    /// outcome ledger — who failed, how, after how many attempts, with
    /// what result — replays bit-for-bit whether 1 worker or 4 race over
    /// the queue, weighted tenants and all.
    #[test]
    fn fixed_fault_seed_replays_bit_identically_across_worker_counts(
        fault_seed in 0u64..400,
    ) {
        let (midas, site_a, site_b) =
            Midas::example_deployment(&["patient"], &["generalinfo"]);
        let catalog = generate_medical(200, 0.5, 17);
        let tenants = ["clinic-A", "clinic-B", "clinic-C"];
        let modalities = ["CT", "MR", "US", "XR"];
        let jobs: Vec<RuntimeJob> = (0..12)
            .map(|i| {
                RuntimeJob::new(
                    tenants[i % tenants.len()],
                    medical_query(Some(modalities[i % modalities.len()])),
                    QueryPolicy::balanced(),
                )
            })
            .collect();
        // Aggressive spec so most seeds actually inject something; outage
        // windows stay shorter than max_attempts so retries can escape.
        let spec = FaultSpec {
            outage_prob: 0.2,
            max_outage_len: 2,
            slowdown_prob: 0.25,
            slowdown_range: (1.5, 3.0),
            flap_prob: 0.2,
            max_fault_len: 3,
        };
        let positions = jobs.len() as u64 + 3;
        let plan = FaultPlan::generate(fault_seed, [site_a, site_b], positions, &spec);

        let run = |workers: usize| {
            let rt = FederationRuntime::new(
                midas.federation(),
                midas.placement(),
                catalog.clone(),
                RuntimeConfig {
                    workers,
                    max_vms: 2,
                    quarantine_threshold: 2,
                    quarantine_cooloff: 2,
                    ..RuntimeConfig::default()
                },
            )
            .with_fault_plan(plan.clone());
            rt.set_tenant_weight("clinic-A", 2);
            rt.run(jobs.clone())
        };
        let serial = run(1);
        let concurrent = run(4);

        // Every submitted job terminated with a definite outcome…
        prop_assert_eq!(serial.completed.len() + serial.failed.len(), jobs.len());
        // …and the ledgers are bit-identical across worker counts.
        prop_assert_eq!(canonical_outcomes(&serial), canonical_outcomes(&concurrent));
        let serial_order = per_tenant_completion_order(&serial);
        let concurrent_order = per_tenant_completion_order(&concurrent);
        prop_assert_eq!(&serial_order, &concurrent_order);
        // Per-tenant service is serialized in submission order everywhere.
        for sequences in serial_order.values() {
            let mut sorted = sequences.clone();
            sorted.sort_unstable();
            prop_assert_eq!(sequences, &sorted);
        }
    }
}

#[test]
fn outage_exhausts_retries_trips_quarantine_and_cooloff_expires() {
    let (midas, patient_site, _) =
        Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(200, 0.5, 11);
    // Scan sites are pinned by placement, so no re-plan can dodge an
    // outage at the patient table's site: positions 0..3 are dark there.
    // max_attempts = 2 means job 0 burns positions {0,1} and job 1
    // positions {1,2} — both exhaust. Two consecutive exhaustions hit the
    // threshold, quarantining the tenant for 3 cool-off rejections.
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 2,
            max_vms: 2,
            max_attempts: 2,
            quarantine_threshold: 2,
            quarantine_cooloff: 3,
            ..RuntimeConfig::default()
        },
    )
    .with_fault_plan(FaultPlan::none().outage(patient_site, 0, 3));

    let jobs: Vec<RuntimeJob> = (0..6)
        .map(|_| RuntimeJob::new("sick", medical_query(Some("CT")), QueryPolicy::balanced()))
        .collect();
    let report = rt.run(jobs);

    // The exact outcome sequence, typed end to end.
    assert_eq!(report.failed.len(), 5, "failed: {:?}", report.failed);
    for (i, attempts_exhausted) in [(0usize, 2usize), (1, 2)] {
        assert_eq!(
            report.failed[i].error,
            RuntimeError::SiteUnavailable {
                tenant: "sick".into(),
                site: patient_site,
                attempts: attempts_exhausted,
            },
            "job {i}"
        );
    }
    for (i, remaining) in [(2usize, 2usize), (3, 1), (4, 0)] {
        assert_eq!(
            report.failed[i].error,
            RuntimeError::Quarantined {
                tenant: "sick".into(),
                failures: 2,
                remaining_cooloff: remaining,
            },
            "job {i}"
        );
    }
    // Cool-off expired: job 5 probes positions {5,6}, past the outage,
    // and completes on its first attempt.
    assert_eq!(report.completed.len(), 1);
    let recovered = &report.completed[0];
    assert_eq!(recovered.sequence, 5);
    assert_eq!(recovered.attempts, 1);
    assert!(recovered.report.result_rows > 0);
}

#[test]
fn a_short_outage_is_retried_around_with_replanning() {
    let (midas, patient_site, _) =
        Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(200, 0.5, 11);
    // One-position outage: attempt 0 of job 0 fails, attempt 1 lands at
    // position 1 — healthy — so the job completes with attempts == 2 and
    // no failure surfaces anywhere.
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            ..RuntimeConfig::default()
        },
    )
    .with_fault_plan(FaultPlan::none().outage(patient_site, 0, 1));
    let report = rt.run(vec![
        RuntimeJob::new("clinic", medical_query(Some("CT")), QueryPolicy::balanced()),
        RuntimeJob::new("clinic", medical_query(Some("MR")), QueryPolicy::balanced()),
    ]);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed[0].attempts, 2, "job 0 retried past the outage");
    assert_eq!(report.completed[1].attempts, 1, "job 1 never saw a fault");
}

#[test]
fn out_of_range_fault_windows_leave_runs_bit_identical_to_no_plan() {
    let (midas, patient_site, _) =
        Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(150, 0.5, 23);
    let jobs: Vec<RuntimeJob> = (0..4)
        .map(|i| {
            RuntimeJob::new(
                if i % 2 == 0 { "clinic-A" } else { "clinic-B" },
                medical_query(Some(["CT", "MR"][i % 2])),
                QueryPolicy::balanced(),
            )
        })
        .collect();
    let run = |plan: Option<FaultPlan>| {
        let mut rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            catalog.clone(),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        );
        if let Some(plan) = plan {
            rt = rt.with_fault_plan(plan);
        }
        rt.run(jobs.clone())
    };
    // A non-empty plan whose windows no position ever reaches: the fault
    // path is armed, but a 1.0 slowdown multiplies load by exactly 1.0 and
    // consumes no RNG draws, so even the simulated costs match bit-for-bit.
    let unreachable_faults = run(Some(
        FaultPlan::none()
            .outage(patient_site, 1_000, 1_002)
            .slowdown(patient_site, 1_000, 1_002, 3.0)
            .flap(patient_site, 1_000, 1_002),
    ));
    let healthy = run(None);
    assert!(unreachable_faults.failed.is_empty() && healthy.failed.is_empty());
    assert_eq!(canonical_outcomes(&unreachable_faults), canonical_outcomes(&healthy));
    for (faulted, clean) in unreachable_faults
        .completed
        .iter()
        .zip(healthy.completed.iter())
    {
        assert_eq!(faulted.report.actual_costs, clean.report.actual_costs);
        assert_eq!(faulted.report.predicted_costs, clean.report.predicted_costs);
    }
    assert_eq!(unreachable_faults.sim_clock_s, healthy.sim_clock_s);
}

/// A policy whose zero weight vector panics inside planning — the same
/// deterministic mid-pipeline panic `panic_containment.rs` injects.
fn poison_policy() -> QueryPolicy {
    QueryPolicy {
        weights: vec![0.0, 0.0],
        constraints: Constraints::none(2),
    }
}

/// Silences the default panic-hook backtrace for the *injected* panic only.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
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
    });
}

#[test]
fn quarantine_contains_a_sick_tenant_without_touching_neighbors() {
    quiet_injected_panics();
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders"]);
    let db = TpchDb::generate(GenConfig::new(0.002, 7));
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            quarantine_threshold: 2,
            quarantine_cooloff: 2,
            ..RuntimeConfig::default()
        },
    );
    // Alternating submissions; round-robin serves them alternately too,
    // so the sick tenant's panics and the healthy tenant's successes
    // interleave — the healthy streak must never be reset or rejected.
    let mut jobs = Vec::new();
    for i in 0..5 {
        jobs.push(RuntimeJob::new("sick", q12("MAIL", "SHIP", 1994), poison_policy()));
        jobs.push(RuntimeJob::new(
            "steady",
            if i % 2 == 0 {
                q12("AIR", "RAIL", 1995)
            } else {
                q13("special", "requests")
            },
            QueryPolicy::balanced(),
        ));
    }
    let report = rt.run(jobs);

    // Every healthy job completed with a real result.
    let steady: Vec<_> = report
        .completed
        .iter()
        .filter(|r| r.tenant == "steady")
        .collect();
    assert_eq!(steady.len(), 5);
    assert!(steady.iter().all(|r| r.report.result_rows > 0));

    // The sick tenant cycled: panic, panic → quarantine, two cool-off
    // rejections, then a probe that panics again (streak restarts at 1).
    let sick_errors: Vec<&RuntimeError> = report
        .failed
        .iter()
        .filter(|f| f.tenant == "sick")
        .map(|f| &f.error)
        .collect();
    assert_eq!(sick_errors.len(), 5);
    assert!(matches!(sick_errors[0], RuntimeError::WorkerPanicked(_)));
    assert!(matches!(sick_errors[1], RuntimeError::WorkerPanicked(_)));
    assert_eq!(
        *sick_errors[2],
        RuntimeError::Quarantined { tenant: "sick".into(), failures: 2, remaining_cooloff: 1 }
    );
    assert_eq!(
        *sick_errors[3],
        RuntimeError::Quarantined { tenant: "sick".into(), failures: 2, remaining_cooloff: 0 }
    );
    assert!(matches!(sick_errors[4], RuntimeError::WorkerPanicked(_)));

    // Nothing was lost: 10 submitted, 10 accounted for.
    assert_eq!(report.completed.len() + report.failed.len(), 10);
}

#[test]
fn deadlines_are_terminal_and_do_not_count_toward_quarantine() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(200, 0.5, 31);
    // Threshold 1: if a deadline overrun counted as a quarantinable
    // failure, the tenant's second job would be rejected outright.
    let rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog,
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            quarantine_threshold: 1,
            quarantine_cooloff: 4,
            ..RuntimeConfig::default()
        },
    );
    let report = rt.run(vec![
        RuntimeJob::new("clinic", medical_query(Some("CT")), QueryPolicy::balanced())
            .with_deadline(0.0),
        RuntimeJob::new("clinic", medical_query(Some("MR")), QueryPolicy::balanced())
            .with_deadline(f64::INFINITY),
    ]);

    assert_eq!(report.failed.len(), 1, "failed: {:?}", report.failed);
    match &report.failed[0].error {
        RuntimeError::DeadlineExceeded {
            tenant,
            deadline_s,
            elapsed_s,
            attempts,
        } => {
            assert_eq!(tenant, "clinic");
            assert_eq!(*deadline_s, 0.0);
            assert!(*elapsed_s > 0.0);
            assert_eq!(*attempts, 1);
        }
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    // The follow-up job was served (no quarantine) and met its deadline.
    assert_eq!(report.completed.len(), 1);
    assert_eq!(report.completed[0].sequence, 1);
    assert!(report.completed[0].report.result_rows > 0);
}

/// Every contract above at once. A rogue tenant submits 32 poison jobs
/// *first* — the worst order for FIFO service — ahead of one weight-2
/// clinic and 14 quiet clinics, while the patient scan site (the one no
/// re-plan can route around) cycles through a two-position outage
/// (escapable within the default 3 attempts), a slowdown and an admission
/// flap every 9 positions for the whole run.
#[test]
fn a_rogue_flood_over_a_flapping_site_loses_no_job_and_starves_no_clinic() {
    quiet_injected_panics();
    let (midas, patient_site, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(250, 0.5, 42);
    let clinic_job = |tenant: &str, i: usize| {
        let modalities = ["CT", "MR", "US", "XR", "PET"];
        RuntimeJob::new(
            tenant,
            medical_query(Some(modalities[i % modalities.len()])),
            QueryPolicy::balanced(),
        )
    };
    const ROGUE_JOBS: usize = 32;
    let mut jobs: Vec<RuntimeJob> = (0..ROGUE_JOBS)
        .map(|_| RuntimeJob::new("rogue", medical_query(Some("CT")), poison_policy()))
        .collect();
    jobs.extend((0..4).map(|i| clinic_job("priority-clinic", i)));
    for t in 0..14 {
        jobs.extend((0..2).map(|j| clinic_job(&format!("clinic-{t:02}"), t + j)));
    }
    let positions = jobs.len() as u64 + 3;
    let plan = (5..positions - 2).step_by(9).fold(FaultPlan::none(), |plan, p| {
        plan.outage(patient_site, p, p + 2)
            .slowdown(patient_site, p + 3, p + 6, 2.5)
            .flap(patient_site, p + 4, p + 8)
    });

    let run = |workers: usize| {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            catalog.clone(),
            RuntimeConfig {
                workers,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        )
        .with_fault_plan(plan.clone());
        rt.set_tenant_weight("priority-clinic", 2);
        rt.run(jobs.clone())
    };
    let serial = run(1);
    let concurrent = run(4);

    // Zero lost jobs, and the same ledger whoever raced.
    for report in [&serial, &concurrent] {
        assert_eq!(report.completed.len() + report.failed.len(), jobs.len());
    }
    assert_eq!(canonical_outcomes(&serial), canonical_outcomes(&concurrent));

    // Every clinic job completed — the outages absorbed by retry — and
    // only the rogue failed: panics up to the quarantine threshold, typed
    // rejections while it cooled off, nothing else.
    assert_eq!(serial.completed.len(), jobs.len() - ROGUE_JOBS);
    assert!(serial.failed.iter().all(|f| f.tenant == "rogue"), "{:?}", serial.failed);
    let retries = serial.completed.iter().map(|r| r.attempts - 1).sum::<usize>();
    assert!(retries > 0, "no clinic job needed a retry: the plan injected nothing");
    let errors = || serial.failed.iter().map(|f| &f.error);
    let panics = errors().filter(|e| matches!(e, RuntimeError::WorkerPanicked(_))).count();
    let quarantined = errors().filter(|e| matches!(e, RuntimeError::Quarantined { .. })).count();
    assert_eq!(panics + quarantined, ROGUE_JOBS, "{:?}", serial.failed);
    assert!(panics >= RuntimeConfig::default().quarantine_threshold);
    assert!(quarantined > 0, "the rogue was never quarantined");

    // Weighted deficit round-robin at 1 worker: a service cycle is 16
    // tenants and 17 outcomes (the weight-2 clinic draws two), so the first
    // clinic outcome lands inside the first cycle and the last inside the
    // second. FIFO would have held every clinic behind the 32-job flood.
    let clinic_completions = || serial.completed.iter().map(|r| r.completion);
    assert!(clinic_completions().min() < Some(16), "first cycle served no clinic");
    assert!(clinic_completions().max() < Some(34), "a clinic waited past two cycles");
}
