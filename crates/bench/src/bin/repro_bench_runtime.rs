//! Multi-worker throughput of the concurrent [`FederationRuntime`] on a
//! mixed Q12/Q13/Q14/Q17 multi-tenant workload, recorded as
//! `target/repro/BENCH_runtime_throughput.json` (and copied to the repo
//! root) so the runtime's scaling trajectory is tracked across PRs.
//!
//! Methodology: the same fixed-seed workload — four hospital tenants, each
//! with its own split-seed parameter stream — is pushed through fresh
//! runtimes at 1, 2 and 4 workers. *Nominal site occupancy* (each
//! fragment's work profile at unit load, a pure function of plan and data)
//! is dilated into wall-clock (`pacing` wall seconds per nominal simulated
//! second, calibrated from a probe run so the one-worker batch takes a few
//! seconds): while a fragment "runs" on a site it holds one of that site's
//! admission slots and the submitting worker waits, exactly as a
//! federation broker waits on a remote engine. Because the nominal base is
//! deterministic, every worker count pays the same total paced wall-clock,
//! so throughput measures what the runtime architecture actually controls
//! — how well independent tenants' queries overlap across sites under
//! per-site capacity limits — rather than raw single-core arithmetic
//! (which no worker count can multiply) or luck in how thread interleaving
//! assigns the drifting environment's noise draws (which *does* make the
//! multi-worker simulated cost totals differ run to run).
//!
//! On top of the worker sweep, the bench gates the zero-copy data plane:
//!
//! * **Catalog bytes cloned per query** must be exactly zero — catalog
//!   seeding is `Arc::clone` only (`MidasReport::catalog_cloned_bytes`).
//! * **Fragment parallelism** (independent scan fragments of one query
//!   overlapping under their site permits) must deliver a measurable qps
//!   gain at a fixed worker count, while a one-worker run stays
//!   *bit-for-bit* identical to the serial-fragment run — parallel
//!   fragments overlap wall-clock, never simulation.
//!
//! The default Hive↔PostgreSQL placement is engine-asymmetric (the
//! PostgreSQL scan is nearly free next to Hive's startup), so the overlap
//! window there is small by construction; its speedup is recorded but the
//! gate runs on a *balanced* placement (Hive on both sites), where the two
//! scan fragments have comparable occupancy and overlapping them is worth
//! tens of percent.
//!
//! A second record, `target/repro/BENCH_ingest_throughput.json` (also
//! copied to the repo root), measures the *streaming* half: the same
//! tenant mix submitted through the live `Ingress` while hospital delta
//! batches publish new copy-on-write catalog versions mid-flight. Its
//! gates: every append carries the prior chunks forward as shared `Arc`
//! bytes, the runtime compacts **zero bytes** of any version it serves
//! (it scans chunks in place; only this bench's flat oracle pins), and —
//! with 4 workers and parallel fragments on — every query's result is
//! **bit-identical** to executing it alone against the catalog version it
//! pinned at admission (snapshot isolation), with catalog bytes cloned
//! still 0.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::{Midas, QueryPolicy};
use midas_bench::{print_table, write_json};
use midas_cloud::Federation;
use midas_engines::sim::split_seed;
use midas_engines::{EngineKind, Placement};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::QueryId;
use midas_tpch::stream::{streaming_workload, StreamEvent, StreamSpec};
use midas_tpch::WorkloadGenerator;

const SEED: u64 = 42;
const ROUNDS: usize = 8; // per tenant
const TARGET_ONE_WORKER_WALL_S: f64 = 6.0;

/// Four tenants, each cycling through the paper's four query classes with
/// its own deterministic parameter stream (split seeds keep the streams
/// independent of tenant count and worker interleaving).
fn workload() -> Vec<RuntimeJob> {
    let tenants = ["hospital-A", "hospital-B", "hospital-C", "hospital-D"];
    let classes = QueryId::PAPER_SET;
    let policies = [
        QueryPolicy::balanced(),
        QueryPolicy::fastest(),
        QueryPolicy::cheapest(),
        QueryPolicy::balanced().with_money_budget(100.0),
    ];
    let mut jobs = Vec::new();
    for round in 0..ROUNDS {
        for (t, tenant) in tenants.iter().enumerate() {
            let stream = WorkloadGenerator::new(split_seed(SEED, t as u64));
            let class = classes[(round + t) % classes.len()];
            let instance = stream
                .instances(class, round + 1)
                .pop()
                .expect("non-empty stream");
            jobs.push(RuntimeJob::new(
                tenant,
                instance.query,
                policies[t % policies.len()].clone(),
            ));
        }
    }
    jobs
}

fn runtime<'a>(
    midas: &'a Midas,
    db: &TpchDb,
    workers: usize,
    pacing: f64,
    parallel_fragments: bool,
    partition_degree: usize,
) -> FederationRuntime<'a> {
    FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        db.catalog().clone(),
        RuntimeConfig {
            workers,
            seed: SEED,
            pacing,
            parallel_fragments,
            partition_degree,
            // This bench measures execution-path scaling: repeated queries
            // must recompute, not hit the result cache (repro_bench_cache
            // covers the cached path).
            fragment_cache_bytes: 0,
            plan_cache_bytes: 0,
            ..Default::default()
        },
    )
}

/// Total base-table bytes deep-copied into per-query catalogs across the
/// batch — the zero-copy gate.
fn cloned_bytes(report: &RuntimeReport) -> u64 {
    report
        .completed
        .iter()
        .map(|r| r.report.catalog_cloned_bytes)
        .sum()
}

/// Fragment-parallel speedup on a *balanced* placement (Hive everywhere):
/// one worker, serial vs parallel fragments, with its own pacing probe
/// targeting `target_wall_s` for the serial run. Returns
/// `(serial qps, parallel qps)`.
fn balanced_fragment_runs(
    federation: &Federation,
    db: &TpchDb,
    jobs: &[RuntimeJob],
    target_wall_s: f64,
) -> (f64, f64) {
    let mut placement = Placement::new();
    let sites: Vec<_> = federation.site_ids().collect();
    let (a, b) = (sites[0], sites[1]);
    for table in ["lineitem", "customer"] {
        placement.place(table, a, EngineKind::Hive);
    }
    for table in ["orders", "part"] {
        placement.place(table, b, EngineKind::Hive);
    }
    let runtime = |pacing: f64, parallel: bool| {
        FederationRuntime::new(
            federation,
            &placement,
            db.catalog().clone(),
            RuntimeConfig {
                workers: 1,
                seed: SEED,
                pacing,
                parallel_fragments: parallel,
                // Overlap gate: every fragment must actually execute.
                fragment_cache_bytes: 0,
                plan_cache_bytes: 0,
                ..Default::default()
            },
        )
    };
    let probe = runtime(0.0, false).run(jobs.to_vec());
    assert!(probe.failed.is_empty(), "balanced probe: {:?}", probe.failed);
    let sim_total_s: f64 = probe
        .completed
        .iter()
        .map(|r| r.report.actual_costs[0])
        .sum();
    let pacing = target_wall_s / sim_total_s.max(1e-9);
    let serial = runtime(pacing, false).run(jobs.to_vec());
    let parallel = runtime(pacing, true).run(jobs.to_vec());
    assert!(serial.failed.is_empty() && parallel.failed.is_empty());
    assert_eq!(cloned_bytes(&serial) + cloned_bytes(&parallel), 0);
    (serial.throughput_qps, parallel.throughput_qps)
}

/// The streaming-ingest bench: the four-hospital Q12–Q17 tape with delta
/// batches spliced in every third query, consumed by a 4-worker
/// fragment-parallel runtime through the live [`Ingress`] while the
/// producer keeps submitting. Gates:
///
/// * **appends share, pins compact once** — appending a delta chunk
///   `Arc`-shares every prior chunk's bytes, and the chunk-merge cost of
///   pinning a multi-chunk version is paid at most once per version
///   (repeated pins of the same version return the cached snapshot);
/// * **snapshot isolation, bit-for-bit** — with ≥ 2 workers and parallel
///   fragments, every completed query's result fingerprint equals its
///   standalone execution against the exact catalog version it pinned at
///   admission;
/// * **catalog bytes cloned per query == 0** — version pinning keeps the
///   zero-copy seeding path intact.
///
/// Returns the JSON blob recorded as `BENCH_ingest_throughput.json`.
///
/// [`Ingress`]: midas::runtime::Ingress
fn ingest_bench(midas: &Midas, db: &TpchDb, target_wall_s: f64) -> serde_json::Value {
    let spec = StreamSpec::hospitals(SEED, 6);
    let tape = streaming_workload(db, &spec);
    let policies = [
        QueryPolicy::balanced(),
        QueryPolicy::fastest(),
        QueryPolicy::cheapest(),
        QueryPolicy::balanced().with_money_budget(100.0),
    ];
    let policy_of = |tenant: &str| {
        let t = spec
            .tenants
            .iter()
            .position(|name| name == tenant)
            .expect("tape tenant is in the spec");
        policies[t % policies.len()].clone()
    };
    let runtime = |workers: usize, pacing: f64| {
        FederationRuntime::new(
            midas.federation(),
            midas.placement(),
            db.catalog().clone(),
            RuntimeConfig {
                workers,
                seed: SEED,
                pacing,
                parallel_fragments: true,
                // The snapshot-isolation gate replays each query against the
                // exact `CatalogVersion` it pinned, so keep the handles.
                retain_pinned_snapshots: true,
                // Ingest qps with every query recomputing (the cached path
                // has its own bench + gates in repro_bench_cache).
                fragment_cache_bytes: 0,
                plan_cache_bytes: 0,
                ..Default::default()
            },
        )
    };
    let drive = |rt: &FederationRuntime<'_>, with_ingest: bool| {
        let mut queries = Vec::new();
        let ((), report) = rt.serve(|ingress| {
            for event in &tape {
                match event {
                    StreamEvent::Query { tenant, query, .. } => {
                        queries.push((**query).clone());
                        ingress.submit(RuntimeJob::new(
                            tenant,
                            (**query).clone(),
                            policy_of(tenant),
                        ));
                    }
                    StreamEvent::Ingest { deltas, .. } if with_ingest => {
                        let receipt = ingress
                            .ingest_batch(deltas.clone())
                            .expect("delta batches share the base schema");
                        assert!(
                            receipt.stats.shared_bytes > 0,
                            "append failed to Arc-share prior-chunk bytes"
                        );
                    }
                    StreamEvent::Ingest { .. } => {}
                }
            }
        });
        assert!(report.failed.is_empty(), "failures: {:?}", report.failed);
        assert_eq!(report.completed.len(), queries.len());
        (queries, report)
    };

    // Probe (unpaced, 1 worker, no ingest) calibrates pacing so the
    // streaming runs take a few wall seconds, as in the worker sweep.
    let probe = drive(&runtime(1, 0.0), false).1;
    let sim_total_s: f64 = probe
        .completed
        .iter()
        .map(|r| r.report.actual_costs[0])
        .sum();
    let pacing = target_wall_s / sim_total_s.max(1e-9);

    let baseline = drive(&runtime(4, pacing), false).1;
    let rt = runtime(4, pacing);
    let (queries, streamed) = drive(&rt, true);

    // Gate: the copy-on-write claim, measured across every append.
    let ingest = streamed.ingest;
    assert!(ingest.appends > 0 && ingest.rows_ingested > 0);
    assert!(
        ingest.bytes_shared > 0,
        "copy-on-write appends carried no prior-chunk bytes forward"
    );

    // Gate: the serving path compacts nothing. Every version the runtime
    // served must still report zero compaction bytes — read for all of
    // them before the oracle below pins (and so compacts) any.
    let pinned_of = |r: &midas::runtime::TenantReport| {
        r.pinned
            .clone()
            .expect("retain_pinned_snapshots is on for this runtime")
    };
    let compaction_bytes_max_version = streamed
        .completed
        .iter()
        .map(|r| pinned_of(r).compaction_bytes())
        .max()
        .unwrap_or(0);
    assert_eq!(
        compaction_bytes_max_version, 0,
        "the runtime compacted a catalog version it served"
    );

    // Gate: snapshot isolation under real concurrency — every result is
    // bit-identical to standalone execution on its pinned version.
    let mut max_version = 0;
    for r in &streamed.completed {
        let expected = queries[r.sequence]
            .standalone_fingerprint(&pinned_of(r).pin())
            .expect("standalone oracle executes");
        assert_eq!(
            r.report.result_fingerprint,
            expected,
            "{}: snapshot isolation violated at pinned v{}",
            r.report.label,
            r.pinned_version()
        );
        assert_eq!(r.report.catalog_cloned_bytes, 0, "{}", r.report.label);
        max_version = max_version.max(r.pinned_version());
    }
    assert!(
        max_version > 0,
        "no job admitted after an ingest — the tape did not interleave"
    );

    println!(
        "\ningest stream: {} queries + {} delta batches ({} rows), \
         {:.2} qps under ingest vs {:.2} qps frozen, {} versions, \
         no served version compacted",
        streamed.completed.len(),
        ingest.versions_published,
        ingest.rows_ingested,
        streamed.throughput_qps,
        baseline.throughput_qps,
        streamed.catalog_version,
    );

    serde_json::json!({
        "workers": 4,
        "parallel_fragments": true,
        "jobs": streamed.completed.len(),
        "ingest_batches": ingest.versions_published,
        "rows_ingested": ingest.rows_ingested,
        "bytes_ingested": ingest.bytes_ingested,
        "bytes_shared_per_append": ingest.bytes_shared.checked_div(ingest.appends).unwrap_or(0),
        "compaction_bytes_max_version": compaction_bytes_max_version,
        "pacing_wall_s_per_sim_s": pacing,
        "throughput_qps_under_ingest": streamed.throughput_qps,
        "throughput_qps_frozen_catalog": baseline.throughput_qps,
        "catalog_versions_published": streamed.catalog_version,
        "max_pinned_version": max_version,
        "snapshot_isolation": "bit-for-bit",
        "unit": "completed queries per wall-clock second",
    })
}

fn main() {
    let sf = 0.005;
    let db = TpchDb::generate(GenConfig::new(sf, 2));
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let jobs = workload();
    let n_jobs = jobs.len();

    // Probe: one un-paced single-worker run estimates the batch's site
    // time (observed costs ≈ nominal occupancy up to load/noise factors),
    // so pacing lands the one-worker batch near TARGET_ONE_WORKER_WALL_S
    // of wall-clock. Calibration precision is irrelevant to the speedup
    // ratio — every worker count sleeps the same nominal total.
    let probe = runtime(&midas, &db, 1, 0.0, false, 1).run(jobs.clone());
    assert!(probe.failed.is_empty(), "probe failures: {:?}", probe.failed);
    let sim_total_s: f64 = probe
        .completed
        .iter()
        .map(|r| r.report.actual_costs[0])
        .sum();
    let pacing = TARGET_ONE_WORKER_WALL_S / sim_total_s.max(1e-9);

    println!(
        "Runtime throughput over TPC-H sf={sf}: {n_jobs} jobs, 4 tenants, \
         {} simulated seconds of site work, pacing {pacing:.6} wall-s per sim-s\n",
        sim_total_s.round(),
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut json_runs: Vec<serde_json::Value> = Vec::new();
    let mut qps: Vec<(usize, bool, usize, f64)> = Vec::new();
    // Every 1-worker variant (serial fragments, parallel fragments,
    // partitioned operators) must report bit-identical simulated costs.
    let mut one_worker_costs: Vec<Vec<Vec<f64>>> = Vec::new();
    let mut total_cloned = 0u64;
    let sweep = [
        (1, false, 1),
        (2, false, 1),
        (4, false, 1),
        (1, true, 1),
        (4, true, 1),
        // Intra-fragment partitioned join/aggregation, alone and composed
        // with wave parallelism at full worker count.
        (1, false, 4),
        (4, true, 4),
    ];
    for (workers, parallel, degree) in sweep {
        let report = runtime(&midas, &db, workers, pacing, parallel, degree).run(jobs.clone());
        assert!(
            report.failed.is_empty(),
            "failures at {workers} workers (parallel={parallel}, degree={degree}): {:?}",
            report.failed
        );
        assert_eq!(report.completed.len(), n_jobs);
        let mean_latency_s = report
            .completed
            .iter()
            .map(|r| r.wall_latency_s)
            .sum::<f64>()
            / n_jobs as f64;
        let queue_wait_s: f64 = report
            .admission
            .iter()
            .map(|(_, s)| s.total_wait_s)
            .sum();
        let run_cloned = cloned_bytes(&report);
        total_cloned += run_cloned;
        if workers == 1 {
            one_worker_costs.push(
                report
                    .completed
                    .iter()
                    .map(|r| r.report.actual_costs.clone())
                    .collect(),
            );
        }
        qps.push((workers, parallel, degree, report.throughput_qps));
        rows.push(vec![
            workers.to_string(),
            if parallel { "yes" } else { "no" }.to_string(),
            degree.to_string(),
            format!("{:.2}", report.wall_s),
            format!("{:.2}", report.throughput_qps),
            format!("{:.3}", mean_latency_s),
            format!("{:.2}", queue_wait_s),
            run_cloned.to_string(),
        ]);
        json_runs.push(serde_json::json!({
            "workers": workers,
            "parallel_fragments": parallel,
            "partition_degree": degree,
            "wall_s": report.wall_s,
            "throughput_qps": report.throughput_qps,
            "mean_latency_s": mean_latency_s,
            "admission_queue_wait_s": queue_wait_s,
            "sim_clock_s": report.sim_clock_s,
            "catalog_cloned_bytes": run_cloned,
        }));
    }
    print_table(
        &[
            "workers",
            "frag-par",
            "part-deg",
            "wall (s)",
            "qps",
            "mean latency (s)",
            "queue wait (s)",
            "bytes cloned",
        ],
        &rows,
    );

    // Zero-copy gate: catalog seeding must never deep-copy a base table.
    assert_eq!(
        total_cloned, 0,
        "base tables were deep-copied into per-query catalogs"
    );

    // One-worker parity gate: neither fragment parallelism nor partitioned
    // operators may perturb a single-worker run's simulated outcomes by a
    // single bit.
    assert_eq!(one_worker_costs.len(), 3);
    assert_eq!(
        one_worker_costs[0], one_worker_costs[1],
        "parallel fragments changed 1-worker simulated costs"
    );
    assert_eq!(
        one_worker_costs[0], one_worker_costs[2],
        "partitioned join/aggregation changed 1-worker simulated costs"
    );

    let find = |w: usize, p: bool, d: usize| {
        qps.iter()
            .find(|&&(workers, parallel, degree, _)| {
                workers == w && parallel == p && degree == d
            })
            .expect("run recorded")
            .3
    };
    let speedup = find(4, false, 1) / find(1, false, 1);
    println!("\n4-worker speedup over 1 worker: {speedup:.2}x");
    // The acceptance gate of the concurrent runtime: scripts/verify.sh runs
    // this binary, so a change that serializes the worker pool fails loudly
    // instead of silently recording a regression.
    assert!(
        speedup >= 2.0,
        "4-worker throughput regressed below the 2x gate: {speedup:.2}x"
    );

    // Intra-query parallelism on the default (engine-asymmetric)
    // placement: recorded for the trajectory; the overlap window is small
    // because the PostgreSQL scan is nearly free next to Hive's startup.
    let frag_speedup_1w = find(1, true, 1) / find(1, false, 1);
    let frag_speedup_4w = find(4, true, 1) / find(4, false, 1);
    println!(
        "fragment-parallel speedup (asymmetric placement): {frag_speedup_1w:.2}x \
         at 1 worker, {frag_speedup_4w:.2}x at 4 workers"
    );

    // The gated measurement: with comparable scan occupancies (Hive on
    // both sites), overlapping a query's independent fragments must be
    // worth a solid double-digit percentage.
    let (balanced_serial_qps, balanced_parallel_qps) =
        balanced_fragment_runs(midas.federation(), &db, &jobs, 4.0);
    let frag_speedup_balanced = balanced_parallel_qps / balanced_serial_qps;
    println!("fragment-parallel speedup (balanced placement): {frag_speedup_balanced:.2}x");
    assert!(
        frag_speedup_balanced >= 1.15,
        "parallel fragments regressed below the 1.15x balanced gate: \
         {frag_speedup_balanced:.2}x"
    );

    // Streaming ingest: the live-data half of the runtime, recorded (and
    // gated) separately as BENCH_ingest_throughput.json.
    let ingest_json = ingest_bench(&midas, &db, 3.0);
    write_json("BENCH_ingest_throughput", &ingest_json);

    write_json(
        "BENCH_runtime_throughput",
        &serde_json::json!({
            "scale_factor": sf,
            "jobs": n_jobs,
            "tenants": 4,
            "query_mix": ["Q12", "Q13", "Q14", "Q17"],
            "pacing_wall_s_per_sim_s": pacing,
            "unit": "completed queries per wall-clock second",
            "runs": json_runs,
            "speedup_4_workers_vs_1": speedup,
            "fragment_parallel_speedup_1_worker": frag_speedup_1w,
            "fragment_parallel_speedup_4_workers": frag_speedup_4w,
            "partition_degree_4_qps_1_worker": find(1, false, 4),
            "partition_degree_4_qps_4_workers_parallel": find(4, true, 4),
            "one_worker_partition_parity": "bit-for-bit",
            "fragment_parallel_speedup_balanced_placement": frag_speedup_balanced,
            "catalog_cloned_bytes_per_query": total_cloned as f64 / (sweep.len() * n_jobs) as f64,
            "one_worker_parallel_parity": "bit-for-bit",
        }),
    );
    // Keep copies at the workspace root so the perf trajectories are
    // visible in the tree across PRs.
    for name in ["BENCH_runtime_throughput", "BENCH_ingest_throughput"] {
        let root_copy = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .join(format!("{name}.json"));
        if let Err(e) = std::fs::copy(format!("target/repro/{name}.json"), &root_copy) {
            eprintln!("warning: could not copy {name}.json to repo root: {e}");
        }
    }
}
