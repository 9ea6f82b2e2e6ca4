//! `ingest_mixed`: a hot set of TPC-H queries read again and again while
//! delta batches publish new catalog versions between the reads.
//!
//! Reads beside writes on the layers `medical_warm` uses read-only: each
//! publish retires the `orders` / `lineitem` identities, so the first pass
//! of every window re-plans and recomputes (and its first job pays
//! `CatalogVersion::pin` compaction) while the next two passes hit. A
//! cache change that speeds hits but slows invalidation, or a version-store
//! change that speeds appends but slows pins, shows here and nowhere else.

use super::{
    count_replay_mismatches, count_wrong, oracle_fingerprints, policies, runtime_config,
    runtime_layers, setup_again, shares_info, timed_setups, write_trace, CacheTotals, RoundClock,
    RunArgs, Traced, Untraced, HOSPITALS,
};
use crate::metrics::Report;
use crate::replay::Replica;
use crate::stats::percentile;
use midas::runtime::{FederationRuntime, RuntimeJob};
use midas::Midas;
use midas_tpch::gen::{DeltaStream, GenConfig, TpchDb};
use midas_tpch::queries::QueryId;
use midas_tpch::{TwoTableQuery, WorkloadGenerator};
use std::time::Instant;

/// Passes over the hot set per window: one that misses, two that hit.
const PASSES: usize = 3;
/// New orders per published delta batch (plus their 1–7 lineitems each).
const ORDERS_PER_BATCH: usize = 60;

struct Sizes {
    scale_factor: f64,
    /// Instances per class in the hot set (× 4 classes).
    hot_per_class: usize,
    /// Windows per round; a round is one `serve()` on a fresh runtime, so
    /// the chunk count of `orders` / `lineitem` grows to this.
    windows: usize,
    /// Rounds of the `--trace 1` run.
    trace_rounds: usize,
    /// Set-ups timed for `setup_s` before the first round; one more is
    /// timed between every two rounds.
    setups: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Self {
        if args.smoke {
            Sizes {
                scale_factor: 0.004,
                hot_per_class: 1,
                windows: 3,
                trace_rounds: 1,
                setups: 2,
            }
        } else {
            Sizes {
                scale_factor: 0.05,
                hot_per_class: 2,
                windows: 16,
                trace_rounds: 1,
                setups: 15,
            }
        }
    }
}

/// The hot set: the first `per_class` instances of each class.
pub fn hot_set(seed: u64, per_class: usize) -> Vec<TwoTableQuery> {
    let generator = WorkloadGenerator::new(seed);
    QueryId::PAPER_SET
        .iter()
        .flat_map(|&class| generator.instances(class, per_class))
        .map(|instance| instance.query)
        .collect()
}

/// One window's jobs: the hot set [`PASSES`] times over, tenant = position
/// mod 4.
fn window_jobs(hot: &[TwoTableQuery]) -> Vec<RuntimeJob> {
    let policies = policies();
    (0..PASSES * hot.len())
        .map(|position| {
            let tenant = position % HOSPITALS.len();
            RuntimeJob::new(
                HOSPITALS[tenant],
                hot[position % hot.len()].clone(),
                policies[tenant].clone(),
            )
        })
        .collect()
}

struct State {
    db: TpchDb,
    midas: Midas,
    hot: Vec<TwoTableQuery>,
    generate_s: f64,
}

fn setup(args: &RunArgs, sizes: &Sizes) -> State {
    let started = Instant::now();
    let db = TpchDb::generate(GenConfig::new(sizes.scale_factor, args.seed));
    let generate_s = started.elapsed().as_secs_f64();
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    State {
        db,
        midas,
        hot: hot_set(args.seed, sizes.hot_per_class),
        generate_s,
    }
}

/// What one round through the runtime measured besides its report.
struct RoundExtras {
    publish_ms: Vec<f64>,
    chunks_at_end: usize,
}

fn serve_round(
    state: &State,
    args: &RunArgs,
    sizes: &Sizes,
    untraced: &mut Untraced,
    cache: &mut CacheTotals,
    problems: &mut Vec<String>,
) -> RoundExtras {
    let runtime = FederationRuntime::new(
        state.midas.federation(),
        state.midas.placement(),
        state.db.catalog().clone(),
        runtime_config(args.seed),
    );
    let jobs = window_jobs(&state.hot);
    let mut deltas = DeltaStream::new(&state.db, args.seed);
    let mut publish_ms = Vec::with_capacity(sizes.windows);
    let mut window_s = Vec::with_capacity(sizes.windows);
    let mut misses_per_window = Vec::with_capacity(sizes.windows);
    let ((), report) = runtime.serve(|ingress| {
        for _ in 0..sizes.windows {
            // The generator's own work stays outside the window's time.
            let batch = deltas.next_batch(ORDERS_PER_BATCH).into_batch();
            let misses_before = runtime.cache_stats().plan.misses;
            let window = Instant::now();
            for job in &jobs {
                ingress.submit(job.clone());
            }
            ingress.drain();
            misses_per_window.push(runtime.cache_stats().plan.misses - misses_before);
            let publish = Instant::now();
            let receipt = ingress.ingest_batch(batch);
            publish_ms.push(publish.elapsed().as_secs_f64() * 1e3);
            window_s.push(window.elapsed().as_secs_f64());
            if let Err(e) = receipt {
                problems.push(format!("publish failed: {e}"));
            }
        }
    });
    untraced.absorb(0, sizes.windows * jobs.len(), &window_s, &report, problems);
    cache.add_fresh(&report);
    if let Some(window) = misses_per_window
        .iter()
        .position(|m| *m != state.hot.len() as u64)
    {
        problems.push(format!(
            "window {window}: {} plan misses, expected {}",
            misses_per_window[window],
            state.hot.len()
        ));
    }
    let chunks_at_end = runtime
        .versioned_catalog()
        .current()
        .table("lineitem")
        .map_or(0, |t| t.chunk_count());
    RoundExtras {
        publish_ms,
        chunks_at_end,
    }
}

/// Expected fingerprint of hot query `q` at catalog version `w`, for every
/// window of a round: `expected[w][q]`. Versions are rebuilt by appending
/// the same delta stream to a bench-side versioned catalog, which is how
/// snapshot isolation is checked without keeping pinned snapshots alive in
/// the measured run.
fn expected_per_window(
    state: &State,
    args: &RunArgs,
    windows: usize,
    problems: &mut Vec<String>,
) -> Vec<Vec<Option<u64>>> {
    let catalog = state.db.versioned_catalog();
    let mut deltas = DeltaStream::new(&state.db, args.seed);
    let mut expected = Vec::with_capacity(windows);
    for _ in 0..windows {
        let pinned = catalog.current().pin();
        let tasks: Vec<_> = state.hot.iter().map(|q| (q, &pinned)).collect();
        let row: Vec<Option<u64>> = oracle_fingerprints(&tasks)
            .into_iter()
            .map(|r| r.map_err(|e| problems.push(e)).ok())
            .collect();
        expected.push(row);
        if let Err(e) = catalog.append_batch(deltas.next_batch(ORDERS_PER_BATCH).into_batch()) {
            problems.push(format!("oracle publish failed: {e}"));
        }
    }
    expected
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let mut problems = Vec::new();
    let reps = if args.trace { 1 } else { sizes.setups };
    let (mut state, mut setup_s) = timed_setups(reps, || setup(args, &sizes));
    let per_window = PASSES * state.hot.len();

    let mut untraced = Untraced::default();
    let mut cache = CacheTotals::default();
    let mut publish_ms = Vec::new();
    let mut chunks_at_end;
    let mut clock = RoundClock::start(args.seconds);
    loop {
        let extras = serve_round(
            &state,
            args,
            &sizes,
            &mut untraced,
            &mut cache,
            &mut problems,
        );
        publish_ms.extend(extras.publish_ms);
        chunks_at_end = extras.chunks_at_end;
        let more = if args.trace {
            untraced.round_rates.len() < sizes.trace_rounds
        } else {
            clock.another()
        };
        if !more {
            break;
        }
        state = setup_again(Some(state), &mut setup_s, || setup(args, &sizes));
    }

    let expected = expected_per_window(&state, args, sizes.windows, &mut problems);
    let expected_of =
        |job: usize| -> Option<u64> { expected[job / per_window][job % state.hot.len()] };
    let mut wrong = 0;
    for outputs in &untraced.outputs {
        wrong += count_wrong("ingest_mixed", outputs, expected_of, &mut problems);
        for (job, output) in outputs.iter().enumerate() {
            if output.is_some_and(|o| o.pinned_version != (job / per_window) as u64) {
                wrong += 1;
                problems.push(format!("job {job} pinned the wrong catalog version"));
            }
        }
    }

    let mut info = vec![
        ("scale_factor".to_string(), sizes.scale_factor.to_string()),
        ("hot_set".to_string(), state.hot.len().to_string()),
        ("jobs_per_window".to_string(), per_window.to_string()),
        ("windows_per_round".to_string(), sizes.windows.to_string()),
        (
            "orders_per_publish".to_string(),
            ORDERS_PER_BATCH.to_string(),
        ),
        ("publish_samples".to_string(), publish_ms.len().to_string()),
    ];
    info.extend(untraced.info());

    let metrics = if args.trace {
        let mut traced = Traced::new();
        let jobs = window_jobs(&state.hot);
        for _ in 0..untraced.outputs.len() {
            let replica = Replica::new(
                state.midas.federation(),
                state.midas.placement(),
                state.db.catalog().clone(),
                runtime_config(args.seed),
            );
            let mut deltas = DeltaStream::new(&state.db, args.seed);
            for _ in 0..sizes.windows {
                for job in &jobs {
                    traced.job(&replica, job, &mut problems);
                }
                let id = traced.publishes as u64;
                let batch = traced.tracer.span("tpch.delta_batch", id, |_| {
                    deltas.next_batch(ORDERS_PER_BATCH).into_batch()
                });
                if let Err(e) = replica.publish(&mut traced.tracer, id, batch) {
                    problems.push(format!("replay publish: {e}"));
                }
                traced.publishes += 1;
            }
        }
        let replayed = traced.records.chunks(sizes.windows * per_window);
        for (outputs, records) in untraced.outputs.iter().zip(replayed) {
            wrong += count_replay_mismatches(
                "ingest_mixed",
                outputs,
                records,
                expected_of,
                &mut problems,
            );
        }
        write_trace(&traced.tracer, "ingest_mixed", &mut problems);
        let mut layers = runtime_layers(&traced, &untraced, &cache);
        layers.set("tpch.generate_s", state.generate_s);
        layers.set("version.chunks_at_end", chunks_at_end as f64);
        layers.set("ingest.publish_p50_ms", percentile(&publish_ms, 50.0));
        info.push(shares_info(&traced.tracer, "job"));
        layers.into_metrics()
    } else {
        untraced.end_to_end(setup_s).into_metrics()
    };

    Report {
        attempted: untraced.submitted,
        failed: untraced.failed + wrong,
        problems,
        metrics,
        info,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_window_is_the_hot_set_three_times_over_dealt_to_four_tenants() {
        let hot = hot_set(42, 2);
        assert_eq!(hot.len(), 8);
        let jobs = window_jobs(&hot);
        assert_eq!(jobs.len(), 24);
        assert_eq!(jobs[9].query.label, hot[1].label);
        assert_eq!(jobs[9].tenant, HOSPITALS[1]);
        let labels =
            |seed| -> Vec<String> { hot_set(seed, 2).into_iter().map(|q| q.label).collect() };
        assert_eq!(labels(42), labels(42));
        assert_ne!(labels(42), labels(7));
    }
}
