//! Concurrency harness for the [`FederationRuntime`]:
//!
//! 1. **Determinism** — a fixed-seed single-worker runtime must reproduce
//!    the sequential `Reference` of `common/` decision-for-decision:
//!    identical chosen plans, identical predicted and observed cost vectors
//!    (bit-for-bit `f64` equality, not tolerances), identical cache hits
//!    and site admissions, and an identical learned per-class history. The
//!    two inert parallelism hints `RuntimeConfig` still accepts change none
//!    of it.
//! 2. **Stress** — N workers × M tenants must lose no observations and grow
//!    every query class's shared history monotonically across batches; the
//!    learned *feature* history stays deterministic run to run (features
//!    are pure relational sizes).

mod common;

use common::{ledgers, Ledger, Reference};
use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17};

/// A mixed Q12/Q13/Q14/Q17 workload across four "hospital" tenants, with
/// per-tenant policies (some time-first, some money-first, one budgeted).
fn mixed_jobs(rounds: usize) -> Vec<RuntimeJob> {
    let modes = [
        ("MAIL", "SHIP"),
        ("AIR", "RAIL"),
        ("TRUCK", "FOB"),
        ("REG AIR", "SHIP"),
    ];
    let mut jobs = Vec::new();
    for round in 0..rounds {
        let (m1, m2) = modes[round % modes.len()];
        let year = 1993 + (round % 5) as i32;
        jobs.push(RuntimeJob::new(
            "hospital-A",
            q12(m1, m2, year),
            QueryPolicy::balanced(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-B",
            q13("special", "requests"),
            QueryPolicy::fastest(),
        ));
        jobs.push(RuntimeJob::new(
            "hospital-C",
            q14(1993 + (round % 5) as i32, 1 + (round % 12) as u32),
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

#[test]
fn single_worker_runtime_reproduces_the_sequential_scheduler() {
    let (midas, db) = deployment();
    let jobs = mixed_jobs(2);

    // Concurrent path, one worker, the deployment's seed and drift.
    let runtime = midas.runtime(db.catalog(), 1);
    let report = runtime.run(jobs.clone());
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);

    // The reference under the same configuration, submission order.
    let reference = Reference::new(&midas, db.catalog(), *runtime.config(), None);
    let expected: Vec<Ledger> = jobs
        .iter()
        .enumerate()
        .map(|(sequence, job)| reference.job(sequence, job, db.catalog()))
        .collect();

    // Bit-for-bit, not approximate: both paths must take the exact same
    // arithmetic through costing, selection, simulation and learning.
    assert_eq!(ledgers(&report), expected);
    // A closed batch admits everything at version 0.
    assert!(report.completed.iter().all(|r| r.pinned_version == 0));

    // The simulated world ended in the same state, and the learned
    // histories are identical, observation for observation.
    reference.assert_end_state(&runtime, &report, "one worker");
}

#[test]
fn inert_parallelism_hints_leave_every_runtime_signal_bit_identical() {
    // `RuntimeConfig::{partition_degree, parallel_fragments}` are accepted
    // and ignored (their last reader is the benchmark's replay): the same
    // closed batch through a default runtime and through one built with
    // both set must agree bit-for-bit on plans, costs, fingerprints,
    // learned history and the simulated clock. The only test that may
    // name the two fields.
    let jobs = mixed_jobs(2);

    // Each run gets a fresh (deterministic, identically seeded) deployment
    // so the simulated environment starts from the same state.
    let run = |config: RuntimeConfig| {
        let (midas, db) = deployment();
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            config,
        );
        let report = runtime.run(jobs.clone());
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        let clock = runtime.clock_s();
        (report, clock)
    };

    let one_worker = RuntimeConfig {
        workers: 1,
        ..RuntimeConfig::default()
    };
    let (serial, serial_clock) = run(one_worker);
    let (hinted, clock) = run(RuntimeConfig {
        partition_degree: 8,
        parallel_fragments: true,
        ..one_worker
    });
    assert_eq!(clock.to_bits(), serial_clock.to_bits());
    assert_eq!(hinted.completed.len(), serial.completed.len());
    for (p, s) in hinted.completed.iter().zip(serial.completed.iter()) {
        assert_eq!(p.report.chosen, s.report.chosen, "{}", s.report.label);
        assert_eq!(p.report.predicted_costs, s.report.predicted_costs);
        assert_eq!(p.report.actual_costs, s.report.actual_costs);
        assert_eq!(p.report.result_rows, s.report.result_rows);
        assert_eq!(
            p.report.result_fingerprint, s.report.result_fingerprint,
            "{}: result drifted under the hints",
            s.report.label
        );
    }
    assert_eq!(hinted.learning, serial.learning, "learned fits drifted under the hints");
}

#[test]
fn stressed_multi_worker_runtime_loses_no_observations() {
    let (midas, db) = deployment();
    let runtime = midas.runtime(db.catalog(), 4);

    let first = mixed_jobs(3); // 12 jobs across 4 tenants
    let n_first = first.len();
    let report = runtime.run(first);
    assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
    assert_eq!(report.completed.len(), n_first);
    assert!(report.throughput_qps > 0.0);
    assert!(report.sim_clock_s > 0.0);

    // Completion order may interleave, but the report is in admission order.
    let sequences: Vec<usize> = report.completed.iter().map(|r| r.sequence).collect();
    assert_eq!(sequences, (0..n_first).collect::<Vec<_>>());

    // No lost observations: every executed query landed in the shared
    // learning state, under the right class.
    assert_eq!(runtime.registry().total_observations(), n_first);
    let lens: std::collections::HashMap<String, usize> =
        runtime.registry().history_lens().into_iter().collect();
    assert_eq!(lens["Q12"], 3);
    assert_eq!(lens["Q13"], 3);
    assert_eq!(lens["Q14"], 3);
    assert_eq!(lens["Q17"], 3);

    // All four tenants were served and billed.
    assert_eq!(report.tenants.len(), 4);
    for (tenant, stats) in &report.tenants {
        assert_eq!(stats.queries, 3, "{tenant}");
        assert!(stats.sim_time_s > 0.0 && stats.money > 0.0, "{tenant}");
    }

    // Every fragment either passed through a metered admission gate
    // (3 fragments per two-table query) or was served from the shared
    // result cache — cache hits skip the permit along with the work.
    let admitted: u64 = report.admission.iter().map(|(_, s)| s.admitted).sum();
    let cached: u64 = report.completed.iter().map(|r| u64::from(r.cache_hits)).sum();
    assert_eq!((admitted + cached) as usize, 3 * n_first);
    assert!(cached > 0, "repeated queries in one batch should share results");

    // Second batch into the same runtime: per-class history grows
    // monotonically — shared state persists and keeps accumulating.
    let before = runtime.registry().history_lens();
    let second = mixed_jobs(2);
    let n_second = second.len();
    let report = runtime.run(second);
    assert!(report.failed.is_empty());
    assert_eq!(report.completed.len(), n_second);
    let after: std::collections::HashMap<String, usize> =
        runtime.registry().history_lens().into_iter().collect();
    for (class, len_before) in before {
        assert!(
            after[&class] > len_before,
            "{class}: history shrank or stalled ({} -> {})",
            len_before,
            after[&class]
        );
    }
    assert_eq!(
        runtime.registry().total_observations(),
        n_first + n_second
    );
}

#[test]
fn many_workers_lose_nothing_and_learn_deterministic_features() {
    // Two independent 4-worker runs over the same jobs: every observation
    // must land, and the learned *feature* history — pure relational sizes, independent of
    // scheduling — must be identical run to run, class by class, sorted
    // into a canonical order (completion order may differ).
    let collect = |rounds: usize| {
        let (midas, db) = deployment();
        let runtime = midas.runtime(db.catalog(), 4);
        let jobs = mixed_jobs(rounds);
        let n_jobs = jobs.len();
        let report = runtime.run(jobs);
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.completed.len(), n_jobs);
        assert_eq!(runtime.registry().total_observations(), n_jobs);

        let mut per_class: Vec<(String, Vec<Vec<u64>>)> = Vec::new();
        for class in runtime.registry().class_names() {
            let modelling = runtime.registry().get(&class).expect("class exists");
            let modelling = modelling.lock().expect("modelling lock");
            let mut features: Vec<Vec<u64>> = modelling
                .history()
                .all()
                .iter()
                .map(|obs| obs.features.iter().map(|f| f.to_bits()).collect())
                .collect();
            features.sort_unstable();
            per_class.push((class.clone(), features));
        }
        per_class.sort_by(|a, b| a.0.cmp(&b.0));
        per_class
    };

    let first = collect(3);
    let second = collect(3);
    assert_eq!(
        first, second,
        "two runs learned different feature histories"
    );
    // Every class saw exactly one observation per round.
    for (class, features) in &first {
        assert_eq!(features.len(), 3, "{class} lost observations");
    }
}
