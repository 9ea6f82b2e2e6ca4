//! Backpressure-aware adaptive planning, driven through the public API.
//!
//! A federation serving a skewed multi-tenant medical workload develops a
//! hot spot: the site every plan wants to join at gets hit by an
//! admission flap (its gate drops to one slot) and a 20x slowdown window.
//! The example streams the same congested workload twice through
//! [`FederationRuntime::serve`]:
//!
//! 1. **blind** — `pressure_penalty = 0`: the planner keeps costing the
//!    congested site as if it were idle and keeps routing joins into the
//!    backlog;
//! 2. **aware** — `pressure_penalty > 0`: admission-time pressure samples
//!    (queue depth + slot occupancy per gate) inflate the congested
//!    site's costs, joins migrate to the uncongested site, and jobs whose
//!    admission wait outgrew their predicted runtime speculatively
//!    re-plan against *live* pressure.
//!
//! Both runs print total simulated work, the completion-latency tail
//! (p50/p95/p99 on the simulated clock), the re-plan/switch counters, and
//! where each run put its joins — the aware run's migration is visible in
//! the join-site split and in the drop in total work. The pressure
//! samples are taken from live gate occupancy, so the exact split varies
//! a little from run to run; the blind run is fully deterministic.
//!
//! ```text
//! cargo run --release --example adaptive_planning
//! ```

use midas_repro::engines::sim::{DriftIntensity, FaultPlan};
use midas_repro::midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas_repro::midas::{Midas, QueryPolicy};
use midas_repro::tpch::medical::{generate_medical, medical_query};
use std::collections::BTreeMap;

const PATIENTS: usize = 1_500;
const ROUNDS: usize = 6;
const JOBS_PER_ROUND: usize = 9;

/// One burst of the skewed tenant mix: a heavy hospital, two medium
/// hospitals, one light clinic.
fn burst() -> Vec<RuntimeJob> {
    let mut jobs = Vec::new();
    for (tenant, modalities) in [
        ("hospital-A", &["CT", "MR", "CT", "US"][..]),
        ("hospital-B", &["CT", "XR"][..]),
        ("hospital-C", &["MR", "CT"][..]),
        ("clinic-D", &["PET"][..]),
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

fn config(pressure_penalty: f64) -> RuntimeConfig {
    RuntimeConfig {
        workers: 4,
        max_vms: 2,
        // Dilate simulated site work into real wall time so in-flight
        // fragments occupy their admission slots while later bursts are
        // planned — that occupancy is the pressure signal.
        pacing: 0.02,
        pressure_penalty,
        replan_threshold: 0.25,
        // Keep ambient load flat so the tails isolate the injected
        // congestion instead of background regime shifts.
        drift: DriftIntensity::None,
        ..RuntimeConfig::default()
    }
}

/// Stream `ROUNDS` bursts through a serving runtime, pausing between
/// bursts so earlier jobs are mid-execution when later ones are admitted.
fn serve(midas: &Midas, faults: &FaultPlan, pressure_penalty: f64) -> RuntimeReport {
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        generate_medical(PATIENTS, 0.5, 42),
        config(pressure_penalty),
    )
    .with_fault_plan(faults.clone());
    let ((), report) = runtime.serve(|ingress| {
        for _ in 0..ROUNDS {
            for job in burst() {
                ingress.submit(job);
            }
            std::thread::sleep(std::time::Duration::from_millis(120));
        }
    });
    report
}

fn describe(midas: &Midas, label: &str, report: &RuntimeReport) {
    let mut joins: BTreeMap<String, usize> = BTreeMap::new();
    for r in &report.completed {
        let site = midas.federation().site(r.report.chosen.join_site).name.clone();
        *joins.entry(site).or_default() += 1;
    }
    let joins: Vec<String> = joins.into_iter().map(|(s, n)| format!("{s}:{n}")).collect();
    let work: f64 = report
        .completed
        .iter()
        .map(|c| c.report.actual_costs[0])
        .sum();
    let l = report.latency;
    println!(
        "{label:>5}  work {work:>6.1}s  p50 {:>6.1}s  p95 {:>6.1}s  p99 {:>6.1}s  \
         replans {:>3}  switches {:>3}  joins [{}]",
        l.p50_s,
        l.p95_s,
        l.p99_s,
        report.replans,
        report.plan_switches,
        joins.join(", ")
    );
    for (tenant, stats) in &report.tenants {
        println!(
            "         {tenant:<12} {:>2} jobs  peak queue depth {:>2}  \
             queue wait {:>6.3}s wall  p99 {:>6.1}s sim",
            stats.queries, stats.queue.peak_depth, stats.queue.total_wait_s, stats.latency.p99_s
        );
    }
}

fn main() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);

    // Probe: where does the *blind* planner put its joins on a healthy
    // federation? That site is the hot spot worth congesting.
    let probe = serve(&midas, &FaultPlan::none(), 0.0);
    assert!(probe.failed.is_empty(), "probe failed: {:?}", probe.failed);
    let hot = probe.completed[0].report.chosen.join_site;
    let positions = (ROUNDS * JOBS_PER_ROUND) as u64;
    println!(
        "probe: blind planner joins at {}; flapping + slowing that site for \
         the whole run\n",
        midas.federation().site(hot).name
    );

    // The hot site's gate flaps down to one slot and its work runs 20x
    // slow for the entire position range — a degraded-but-alive site.
    let faults = FaultPlan::none()
        .flap(hot, 0, positions)
        .slowdown(hot, 0, positions, 20.0);

    let blind = serve(&midas, &faults, 0.0);
    let aware = serve(&midas, &faults, 4.0);
    assert!(blind.failed.is_empty(), "blind run failed: {:?}", blind.failed);
    assert!(aware.failed.is_empty(), "aware run failed: {:?}", aware.failed);

    describe(&midas, "blind", &blind);
    println!();
    describe(&midas, "aware", &aware);

    let blind_work: f64 = blind.completed.iter().map(|c| c.report.actual_costs[0]).sum();
    let aware_work: f64 = aware.completed.iter().map(|c| c.report.actual_costs[0]).sum();
    println!(
        "\naware/blind total simulated work: {:.3}x  (smaller is better)",
        aware_work / blind_work.max(1e-9)
    );
}
