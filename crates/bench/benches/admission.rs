//! Admission benchmarks: what the runtime pays per job before and around
//! planning on the warm path, and what one static analysis costs.
//!
//! * `warm_medical_run` — one `run` of 160 medical jobs (sixteen tenants,
//!   five queries, four policies) on a primed one-worker runtime, where
//!   every plan and fragment is a cache hit and every admission a
//!   verdict-memo hit: admission, queue, plan-cache probe, selection, the
//!   hit path of execution, the learning record and the report;
//! * `warm_medical_run_2w` — the same run on a runtime primed the same way
//!   at `workers: 2`, the benchmark's shape: two workers share the
//!   caches, the queue and the learning registry;
//! * `analyze_medical_miss` — `analyze_fragment_plans` over the medical
//!   query's three plans, what an admission runs on a verdict-memo miss
//!   (a sample times 1 000 analyses and records the time per analysis).

use criterion::{criterion_group, criterion_main, Criterion};
use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_engines::{analyze_fragment_plans, SchemaCatalog};
use midas_tpch::medical::{generate_medical, medical_query};
use std::hint::black_box;
use std::time::Instant;

const MODALITIES: [&str; 5] = ["CT", "MR", "US", "XR", "PET"];

/// `rounds` jobs for each of sixteen tenants; every round touches all five
/// queries.
fn jobs(rounds: usize) -> Vec<RuntimeJob> {
    let policies = [
        QueryPolicy::balanced(),
        QueryPolicy::fastest(),
        QueryPolicy::cheapest(),
        QueryPolicy::balanced().with_money_budget(100.0),
    ];
    (0..rounds)
        .flat_map(|round| (0..16).map(move |tenant| (round, tenant)))
        .map(|(round, tenant)| {
            RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(MODALITIES[(tenant + round) % MODALITIES.len()])),
                policies[tenant % policies.len()].clone(),
            )
        })
        .collect()
}

fn bench_admission(c: &mut Criterion) {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let tables = generate_medical(2_000, 0.5, 42);
    let schemas = SchemaCatalog::from_catalog(&tables);
    // A runtime of `workers` over the medical tables, primed by one round.
    let primed = |workers: usize| {
        let runtime = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            tables.clone(),
            RuntimeConfig {
                workers,
                pacing: 0.0,
                ..RuntimeConfig::default()
            },
        );
        let priming = runtime.run(jobs(1));
        assert!(priming.failed.is_empty(), "{:?}", priming.failed);
        runtime
    };
    let batch = jobs(10);

    let mut group = c.benchmark_group("admission");
    for (name, workers) in [("warm_medical_run", 1), ("warm_medical_run_2w", 2)] {
        let runtime = primed(workers);
        group.bench_function(name, |b| {
            b.iter_custom(|iters| {
                let batches: Vec<_> = (0..iters).map(|_| batch.clone()).collect();
                let started = Instant::now();
                for jobs in batches {
                    black_box(runtime.run(jobs));
                }
                started.elapsed()
            })
        });
    }

    const ANALYSES: u32 = 1_000;
    let q = medical_query(Some("CT"));
    let plans = [&q.left_prepare, &q.right_prepare, &q.combine];
    group.bench_function("analyze_medical_miss", |b| {
        b.iter_custom(|iters| {
            let started = Instant::now();
            for _ in 0..iters * u64::from(ANALYSES) {
                black_box(analyze_fragment_plans(black_box(&plans), &schemas));
            }
            started.elapsed() / ANALYSES
        })
    });
    group.finish();
}

criterion_group!(benches, bench_admission);
criterion_main!(benches);
