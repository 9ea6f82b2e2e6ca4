//! Multi-tenant cache benchmark: repeated medical queries across 16
//! hospital tenants, cold vs warm, recorded as `BENCH_cache_hit.json`.
//!
//! Protocol: two identically seeded runtimes — one with the fragment +
//! plan caches disabled, one with them on — each serve the same workload
//! twice. The first pass aligns both runtimes' simulated clocks (and
//! fills the caches on the caching side); the second pass is the
//! measured one: the cold runtime recomputes every fragment, the warm
//! runtime serves them from the shared result cache.
//!
//! Gates:
//! * warm qps >= 2.5x cold qps at 1 worker (the measured passes start
//!   from bit-identical runtime states, so this is a pure hit-path-vs-
//!   cold-path comparison) **and** cold qps >= 0.9x the cold qps committed
//!   before the cold path stopped executing every fragment twice. The
//!   pair keeps the floor under the warm path where the old single
//!   `>= 5x` gate put it (5 x 215 = 2.5 x 430 qps): a cold path twice as
//!   fast halves the ratio for the right reason, and the second condition
//!   is what stops a slower cold path from passing the first;
//! * warm outcomes bit-identical to cold outcomes at 1 worker (including
//!   simulated cost vectors) and at 4 workers (plans, rows,
//!   fingerprints — racing workers reorder the drifting simulation, so
//!   simulated wall-clock is not comparable across runs there);
//! * a budget-bounded run stays within its byte budget while evicting.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::{Midas, QueryPolicy};
use midas_bench::{print_table, write_json};
use midas_tpch::medical::{generate_medical, medical_query};

const TENANTS: usize = 16;
const ROUNDS: usize = 6;
const PATIENTS: usize = 10_000;
const MIN_SPEEDUP: f64 = 2.5;
/// 1-worker `cold_qps` of the `BENCH_cache_hit.json` committed by PRs 8–12,
/// when a cold job built its cost model unfused and then executed the same
/// fragments again.
const COMMITTED_COLD_QPS: f64 = 215.0;
const MIN_COLD_SHARE: f64 = 0.9;

fn workload() -> Vec<RuntimeJob> {
    let modalities = ["CT", "MR", "US", "XR", "PET"];
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        for tenant in 0..TENANTS {
            jobs.push(RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(modalities[(tenant + round) % modalities.len()])),
                QueryPolicy::balanced(),
            ));
        }
    }
    jobs
}

/// Per-job outcomes canonicalized to the service-order-independent
/// fields; with `with_costs` the simulated cost vectors are pinned too
/// (valid only between equal-worker-count, equal-clock runs).
fn canonical_outcomes(report: &RuntimeReport, with_costs: bool) -> Vec<String> {
    let mut out: Vec<(usize, String)> = report
        .completed
        .iter()
        .map(|r| {
            let mut line = format!(
                "seq={} tenant={} label={} rows={} fingerprint={} pinned=v{} chosen={:?}",
                r.sequence,
                r.tenant,
                r.report.label,
                r.report.result_rows,
                r.report.result_fingerprint,
                r.pinned_version(),
                r.report.chosen,
            );
            if with_costs {
                line.push_str(&format!(
                    " predicted={:?} actual={:?}",
                    r.report.predicted_costs, r.report.actual_costs
                ));
            }
            (r.sequence, line)
        })
        .collect();
    out.sort_by_key(|(sequence, _)| *sequence);
    out.into_iter().map(|(_, line)| line).collect()
}

struct Measured {
    cold_qps: f64,
    warm_qps: f64,
    speedup: f64,
    /// Mean worker-side wall time of one warm job (dequeue to report), so
    /// the hit path's absolute cost is on record beside the ratio.
    warm_job_us: f64,
    fragment_hit_rate: f64,
    plan_hit_rate: f64,
}

fn main() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let catalog = generate_medical(PATIENTS, 0.5, 42);
    let jobs = workload();
    let n_jobs = jobs.len();

    let mut sweep = Vec::new();
    for workers in [1usize, 4] {
        let build = |cached: bool| {
            FederationRuntime::new(
                midas.federation(),
                midas.placement(),
                catalog.clone(),
                RuntimeConfig {
                    workers,
                    parallel_fragments: workers > 1,
                    max_vms: 2,
                    fragment_cache_bytes: if cached { 64 << 20 } else { 0 },
                    plan_cache_bytes: if cached { 8 << 20 } else { 0 },
                    ..RuntimeConfig::default()
                },
            )
        };
        let cold_rt = build(false);
        let warm_rt = build(true);

        // Pass 1 aligns the simulated clocks and fills the caches.
        let cold_prime = cold_rt.run(jobs.clone());
        let warm_prime = warm_rt.run(jobs.clone());
        for (label, report) in [("cold prime", &cold_prime), ("warm prime", &warm_prime)] {
            assert!(
                report.failed.is_empty(),
                "{workers}w {label}: failures {:?}",
                report.failed
            );
        }
        let primed = warm_rt.cache_stats();

        // Pass 2 is the measurement: pure cold path vs pure hit path.
        let cold = cold_rt.run(jobs.clone());
        let warm = warm_rt.run(jobs.clone());
        assert!(cold.failed.is_empty() && warm.failed.is_empty());

        // Gate: hit-path outcomes bit-identical to the cold path. At one
        // worker the two runtimes served identical sequences from
        // identical simulated clocks, so even the cost vectors must
        // match bit-for-bit.
        let with_costs = workers == 1;
        assert_eq!(
            canonical_outcomes(&warm, with_costs),
            canonical_outcomes(&cold, with_costs),
            "{workers} workers: warm outcomes drifted from cold"
        );

        // Gate: the measured pass really was all hits (every fragment
        // and plan was primed; nothing invalidated in between).
        let stats = warm_rt.cache_stats();
        let pass_hits = stats.fragment.hits - primed.fragment.hits;
        let pass_misses = stats.fragment.misses - primed.fragment.misses;
        assert_eq!(
            pass_misses, 0,
            "{workers} workers: measured pass missed {pass_misses} fragments"
        );
        assert_eq!(pass_hits, 3 * n_jobs as u64);
        let fragment_hit_rate =
            stats.fragment.hits as f64 / (stats.fragment.hits + stats.fragment.misses) as f64;
        let plan_hit_rate =
            stats.plan.hits as f64 / (stats.plan.hits + stats.plan.misses) as f64;

        let speedup = warm.throughput_qps / cold.throughput_qps;
        sweep.push((
            workers,
            Measured {
                cold_qps: cold.throughput_qps,
                warm_qps: warm.throughput_qps,
                speedup,
                warm_job_us: warm.completed.iter().map(|r| r.wall_latency_s).sum::<f64>()
                    / n_jobs as f64
                    * 1e6,
                fragment_hit_rate,
                plan_hit_rate,
            },
        ));
    }

    // Gate: the warm pass clears the speedup bar at 1 worker (wall-clock
    // parallelism noise is kept out of the enforced gate; the 4-worker
    // numbers are recorded alongside).
    let serial = &sweep[0].1;
    assert!(
        serial.speedup >= MIN_SPEEDUP,
        "warm/cold speedup {:.2}x below the {MIN_SPEEDUP}x gate \
         (cold {:.1} qps, warm {:.1} qps)",
        serial.speedup,
        serial.cold_qps,
        serial.warm_qps
    );
    assert!(
        serial.cold_qps >= MIN_COLD_SHARE * COMMITTED_COLD_QPS,
        "cold path at {:.1} qps fell below {MIN_COLD_SHARE} x the committed \
         {COMMITTED_COLD_QPS} qps",
        serial.cold_qps
    );

    // Budget-bounded run: a cache two orders smaller than the resident
    // set must keep evicting yet never exceed its byte budget, and the
    // workload must still complete correctly.
    let unbounded_resident = {
        let rt = FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            catalog.clone(),
            RuntimeConfig {
                workers: 1,
                max_vms: 2,
                ..RuntimeConfig::default()
            },
        );
        assert!(rt.run(jobs.clone()).failed.is_empty());
        rt.cache_stats().fragment.resident_bytes
    };
    let budget = (unbounded_resident / 2).max(1);
    let bounded_rt = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        catalog.clone(),
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            fragment_cache_bytes: budget,
            ..RuntimeConfig::default()
        },
    );
    let bounded = bounded_rt.run(jobs.clone());
    assert!(bounded.failed.is_empty());
    let bounded_stats = bounded_rt.cache_stats().fragment;
    assert!(
        bounded_stats.resident_bytes <= budget,
        "cache exceeded its byte budget: {} > {budget}",
        bounded_stats.resident_bytes
    );
    assert!(
        bounded_stats.evictions > 0,
        "halved budget never evicted: {bounded_stats:?}"
    );

    print_table(
        &["workers", "cold qps", "warm qps", "speedup", "warm us/job", "frag hit rate", "plan hit rate"],
        &sweep
            .iter()
            .map(|(workers, m)| {
                vec![
                    workers.to_string(),
                    format!("{:.1}", m.cold_qps),
                    format!("{:.1}", m.warm_qps),
                    format!("{:.2}x", m.speedup),
                    format!("{:.1}", m.warm_job_us),
                    format!("{:.1}%", m.fragment_hit_rate * 100.0),
                    format!("{:.1}%", m.plan_hit_rate * 100.0),
                ]
            })
            .collect::<Vec<_>>(),
    );
    println!(
        "\ncache: {n_jobs} jobs x 2 passes over {TENANTS} tenants, warm pass all-hits \
         and bit-identical to cold, {:.2}x serial speedup (gate {MIN_SPEEDUP}x), \
         cold {:.1} qps (gate {:.1}), \
         bounded run respected {budget} bytes with {} evictions",
        serial.speedup,
        serial.cold_qps,
        MIN_COLD_SHARE * COMMITTED_COLD_QPS,
        bounded_stats.evictions
    );

    write_json(
        "BENCH_cache_hit",
        &serde_json::json!({
            "jobs_per_pass": n_jobs,
            "tenants": TENANTS,
            "rounds": ROUNDS,
            "patients": PATIENTS,
            "scope": "federation-global",
            "sweep": sweep
                .iter()
                .map(|(workers, m)| {
                    serde_json::json!({
                        "workers": workers,
                        "cold_qps": m.cold_qps,
                        "warm_qps": m.warm_qps,
                        "speedup": m.speedup,
                        "warm_job_us": m.warm_job_us,
                        "fragment_hit_rate": m.fragment_hit_rate,
                        "plan_hit_rate": m.plan_hit_rate,
                    })
                })
                .collect::<Vec<_>>(),
            "bounded": serde_json::json!({
                "budget_bytes": budget,
                "resident_bytes": bounded_stats.resident_bytes,
                "evictions": bounded_stats.evictions,
                "budget_respected": true,
            }),
            "gates": serde_json::json!({
                "speedup": serde_json::json!({
                    "min": MIN_SPEEDUP,
                    "workers": 1,
                    "enforced": true,
                }),
                "cold_qps": serde_json::json!({
                    "min": MIN_COLD_SHARE * COMMITTED_COLD_QPS,
                    "committed": COMMITTED_COLD_QPS,
                    "workers": 1,
                    "enforced": true,
                }),
                "bit_identical_outcomes": "1 worker incl. simulated costs; 4 workers plans/rows/fingerprints",
                "all_hits_measured_pass": true,
                "byte_budget": "enforced",
            }),
        }),
    );
    let root_copy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_cache_hit.json");
    if let Err(e) = std::fs::copy("target/repro/BENCH_cache_hit.json", &root_copy) {
        eprintln!("warning: could not copy BENCH_cache_hit.json to repo root: {e}");
    }
}
