//! `estimation_replay`: the paper's own algorithms — plan enumeration,
//! multi-objective selection, DREAM and the BML baselines — replayed over
//! a recorded execution trace, with the executor out of the measured phase.
//!
//! `ires::optimizer`, `moo`, `dream`, `mlearn` and `linalg` do all the
//! work and `engines` none. It is the only workload where a planner or
//! estimator change can show, and the one that reports the paper's quality
//! number (DREAM's MRE), so a speed-up that breaks DREAM is caught.

use super::{
    overhead_ratio, policies, shares_info, timed_setups, write_trace, RoundClock, RunArgs,
};
use crate::host;
use crate::metrics::{MetricSet, Report};
use crate::stats::{mean, mean_relative_error, percentile};
use crate::trace::{Summary, Tracer};
use midas::experiments::EstimatorKind;
use midas::Midas;
use midas_dream::{CostEstimator, History};
use midas_engines::sim::DriftIntensity;
use midas_engines::EngineKind;
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::{Scheduler, SchedulerConfig};
use midas_ires::{moqp_ga, CandidateConfig, EnumerationSpace, ModellingRegistry, PlanCostModel};
use midas_moo::{Nsga2Config, WeightedSumModel};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::QueryId;
use midas_tpch::{TwoTableQuery, WorkloadGenerator};
use std::time::Instant;

/// The 70-vCPU pool of the paper's Example 3.1: 2 310 candidate plans on
/// the example federation.
const MAX_VMS: u32 = 70;
/// DREAM's `R²` requirement and `Mmax`, as in the Table 3 experiment.
const R2_REQUIRED: f64 = 0.8;
const M_MAX: usize = 30;
const COLUMNS: usize = EstimatorKind::PAPER_ORDER.len();
/// Span name of each Table 3 column's fit + predict, in paper order.
const COLUMN_SPANS: [&str; COLUMNS] = [
    "mlearn.bml_n",
    "mlearn.bml_2n",
    "mlearn.bml_3n",
    "mlearn.bml_all",
    "dream.fit",
];
const DREAM: usize = COLUMNS - 1;

struct Sizes {
    scale_factor: f64,
    /// Physical lineitem cap; simulated costs run at nominal volume.
    max_lineitems: usize,
    /// Arrivals per class observed before the first prediction.
    warmup: usize,
    /// Predicted-then-observed arrivals per class; a round is one pass
    /// over all of them, class by class in turn.
    test: usize,
    /// Set-ups timed for `setup_s`.
    setups: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Self {
        if args.smoke {
            Sizes {
                scale_factor: 0.002,
                max_lineitems: 30_000,
                warmup: 16,
                test: 3,
                setups: 2,
            }
        } else {
            Sizes {
                scale_factor: 0.1,
                max_lineitems: 30_000,
                warmup: 40,
                test: 20,
                setups: 5,
            }
        }
    }
}

/// One query class's recorded executions and its cost model.
struct ClassTrace {
    name: String,
    queries: Vec<TwoTableQuery>,
    features: Vec<Vec<f64>>,
    costs: Vec<Vec<f64>>,
    model: PlanCostModel,
}

struct State {
    midas: Midas,
    classes: Vec<ClassTrace>,
    generate_s: f64,
}

/// Records one class's trace the way `midas::experiments::mre` does (its
/// `record_trace` is private): a fixed join configuration on the drifting
/// two-cloud federation, each run against a per-table triangle-wave
/// snapshot of the database, with idle drift between arrivals.
fn record_class(
    db: &TpchDb,
    midas: &Midas,
    join_site: midas_cloud::SiteId,
    class: QueryId,
    seed: u64,
    arrivals: usize,
) -> Result<ClassTrace, String> {
    let mut scheduler = Scheduler::new(
        midas.federation(),
        midas.placement().clone(),
        SchedulerConfig {
            seed,
            drift: DriftIntensity::Strong,
            work_scale: 1.0 / db.rescale,
            ..SchedulerConfig::default()
        },
    );
    let fixed = CandidateConfig {
        join_site,
        join_engine: EngineKind::Hive,
        instance_idx: 2,
        vm_count: 2,
    };
    let instances = WorkloadGenerator::new(seed).instances(class, arrivals);
    let mut features = Vec::with_capacity(arrivals);
    let mut costs = Vec::with_capacity(arrivals);
    for instance in &instances {
        let i = instance.index;
        let grow = |period: usize, phase: usize| {
            let half = period - 1;
            let pos = (i + phase) % (2 * half);
            let tri = half - (pos as i64 - half as i64).unsigned_abs() as usize;
            0.4 + 0.6 * tri as f64 / half as f64
        };
        let snapshot = db.snapshot_per_table(|table| match table {
            "lineitem" => grow(20, 0),
            "orders" => grow(13, 5),
            "customer" => grow(17, 3),
            "part" => grow(11, 7),
            _ => 1.0,
        });
        let run = scheduler
            .execute_with_config(&instance.query, &fixed, &snapshot)
            .map_err(|e| format!("{}: {e}", instance.query.label))?;
        features.push(run.features);
        costs.push(run.costs);
        scheduler.idle(3, 40.0);
    }
    let model = PlanCostModel::build(midas.placement(), &instances[0].query, db.catalog())
        .map_err(|e| e.to_string())?;
    let queries: Vec<TwoTableQuery> = instances.into_iter().map(|i| i.query).collect();
    Ok(ClassTrace {
        name: queries[0].class().to_string(),
        queries,
        features,
        costs,
        model,
    })
}

fn setup(args: &RunArgs, sizes: &Sizes) -> Result<State, String> {
    let started = Instant::now();
    let db = TpchDb::generate(GenConfig {
        scale_factor: sizes.scale_factor,
        seed: args.seed,
        max_lineitem_rows: Some(sizes.max_lineitems),
        encoding: Default::default(),
    });
    let generate_s = started.elapsed().as_secs_f64();
    let (midas, a, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    let classes = QueryId::PAPER_SET
        .iter()
        .map(|&class| record_class(&db, &midas, a, class, args.seed, sizes.warmup + sizes.test))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(State {
        midas,
        classes,
        generate_s,
    })
}

/// What one arrival decided and predicted — everything a second pass over
/// the same arrival must reproduce exactly.
#[derive(Debug, Clone, PartialEq)]
struct ArrivalOutcome {
    exhaustive: CandidateConfig,
    ga: CandidateConfig,
    space_size: usize,
    pareto_size: usize,
    evaluations: usize,
    /// Execution-time prediction of each Table 3 column, clamped at 0.
    predictions: [f64; COLUMNS],
    dream_window: Option<usize>,
    /// DREAM's fit or the registry's refit returned an error.
    failed: bool,
}

/// Per-class learning state of one pass.
struct Learner {
    history: History,
    last_fitted: [Option<Box<dyn CostEstimator>>; COLUMNS],
}

fn arrival(
    t: &mut Tracer,
    id: u64,
    midas: &Midas,
    class: &ClassTrace,
    i: usize,
    learner: &mut Learner,
    registry: &ModellingRegistry,
) -> Result<ArrivalOutcome, String> {
    let policy = &policies()[id as usize % 4];
    let federation = midas.federation();
    t.span("arrival", id, |t| {
        let space = t
            .span("enumerate.for_query", id, |_| {
                EnumerationSpace::for_query(
                    federation,
                    midas.placement(),
                    &class.queries[i],
                    MAX_VMS,
                )
            })
            .map_err(|e| e.to_string())?;
        let weights = WeightedSumModel::new(&policy.weights);
        let exhaustive = t.span("optimizer.select", id, |_| {
            moqp_exhaustive(
                &space,
                &class.model,
                federation,
                &weights,
                &policy.constraints,
            )
        });
        let ga = t.span("optimizer.ga", id, |_| {
            moqp_ga(
                &space,
                &class.model,
                federation,
                &weights,
                &policy.constraints,
                Nsga2Config::default(),
            )
        });

        // Prequential: fit on everything before arrival `i`, predict it.
        // A column whose fit fails predicts with its previous model, or
        // with the last observed cost — as the Table 3 experiment does.
        let mut predictions = [0.0; COLUMNS];
        let mut dream_window = None;
        let mut failed = false;
        let n_metrics = class.costs[i].len();
        for (column, kind) in EstimatorKind::PAPER_ORDER.iter().enumerate() {
            predictions[column] = t.span(COLUMN_SPANS[column], id, |_| {
                let mut estimator = kind.build(n_metrics, M_MAX, R2_REQUIRED);
                match estimator.fit(&learner.history) {
                    Ok(report) => {
                        if column == DREAM {
                            dream_window = Some(report.window_used);
                        }
                        learner.last_fitted[column] = Some(estimator);
                    }
                    Err(_) if column == DREAM => failed = true,
                    Err(_) => {}
                }
                learner.last_fitted[column]
                    .as_ref()
                    .and_then(|model| model.predict(&class.features[i]).ok())
                    .map_or(class.costs[i - 1][0], |p| p[0])
                    .max(0.0)
            });
        }
        let observed = t.span("learn.observe", id, |_| {
            registry.observe(&class.name, &class.features[i], &class.costs[i])
        });
        failed |= observed.is_err();
        learner
            .history
            .record(&class.features[i], &class.costs[i])
            .map_err(|e| e.to_string())?;
        Ok(ArrivalOutcome {
            exhaustive: exhaustive.chosen,
            ga: ga.chosen,
            space_size: space.len(),
            pareto_size: exhaustive.pareto.len(),
            evaluations: exhaustive.evaluations + ga.evaluations,
            predictions,
            dream_window,
            failed,
        })
    })
}

/// One pass over every class's test arrivals, in turn. Returns each
/// arrival's outcome and wall time.
fn pass(
    t: &mut Tracer,
    state: &State,
    sizes: &Sizes,
) -> Result<(Vec<ArrivalOutcome>, Vec<f64>), String> {
    let registry = ModellingRegistry::dream_defaults(2);
    let mut learners = Vec::with_capacity(state.classes.len());
    for class in &state.classes {
        let mut history = History::new(class.features[0].len(), class.costs[0].len());
        for j in 0..sizes.warmup {
            history
                .record(&class.features[j], &class.costs[j])
                .map_err(|e| e.to_string())?;
            registry
                .observe(&class.name, &class.features[j], &class.costs[j])
                .map_err(|e| e.to_string())?;
        }
        learners.push(Learner {
            history,
            last_fitted: Default::default(),
        });
    }
    let mut outcomes = Vec::with_capacity(sizes.test * state.classes.len());
    let mut seconds = Vec::with_capacity(outcomes.capacity());
    for i in sizes.warmup..sizes.warmup + sizes.test {
        for (class, learner) in state.classes.iter().zip(&mut learners) {
            let id = outcomes.len() as u64;
            let started = Instant::now();
            outcomes.push(arrival(t, id, &state.midas, class, i, learner, &registry)?);
            seconds.push(started.elapsed().as_secs_f64());
        }
    }
    Ok((outcomes, seconds))
}

/// Execution-time MRE (Eq. 15) of one column, per class, over one pass.
fn column_mre(
    state: &State,
    sizes: &Sizes,
    outcomes: &[ArrivalOutcome],
    column: usize,
) -> Vec<f64> {
    let n_classes = state.classes.len();
    state
        .classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let pairs: Vec<(f64, f64)> = (0..sizes.test)
                .map(|k| {
                    (
                        outcomes[k * n_classes + c].predictions[column],
                        class.costs[sizes.warmup + k][0],
                    )
                })
                .collect();
            mean_relative_error(&pairs)
        })
        .collect()
}

/// DREAM's predictions recomputed the slow way — a fresh history rebuilt
/// from the trace and a fresh estimator for every arrival — must equal the
/// measured path's bit for bit.
fn check_dream_against_reference(
    state: &State,
    sizes: &Sizes,
    outcomes: &[ArrivalOutcome],
    problems: &mut Vec<String>,
) -> u64 {
    let n_classes = state.classes.len();
    let mut wrong = 0;
    for (c, class) in state.classes.iter().enumerate() {
        let mut last_fitted: Option<Box<dyn CostEstimator>> = None;
        for k in 0..sizes.test {
            let i = sizes.warmup + k;
            let mut history = History::new(class.features[0].len(), class.costs[0].len());
            for j in 0..i {
                history
                    .record(&class.features[j], &class.costs[j])
                    .expect("the trace has one arity");
            }
            let mut estimator =
                EstimatorKind::Dream.build(class.costs[i].len(), M_MAX, R2_REQUIRED);
            if estimator.fit(&history).is_ok() {
                last_fitted = Some(estimator);
            }
            let reference = last_fitted
                .as_ref()
                .and_then(|model| model.predict(&class.features[i]).ok())
                .map_or(class.costs[i - 1][0], |p| p[0])
                .max(0.0);
            if reference.to_bits() != outcomes[k * n_classes + c].predictions[DREAM].to_bits() {
                wrong += 1;
                if problems.len() < 8 {
                    problems.push(format!(
                        "{} arrival {k}: DREAM prediction differs from the reference",
                        class.name
                    ));
                }
            }
        }
    }
    wrong
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let mut problems = Vec::new();
    let reps = if args.trace { 1 } else { sizes.setups };
    let (state, setup_s) = timed_setups(reps, || setup(args, &sizes));
    let state = match state {
        Ok(state) => state,
        Err(e) => {
            return Report {
                attempted: 1,
                failed: 1,
                problems: vec![format!("set-up failed: {e}")],
                metrics: Vec::new(),
                info: Vec::new(),
            }
        }
    };

    // Untraced passes; with `--trace 1` a single one, followed by the
    // traced pass over the same arrivals.
    let mut passes: Vec<Vec<ArrivalOutcome>> = Vec::new();
    // Wall time of each arrival: the fastest of its replays over the
    // passes. The passes are identical single-threaded computations (checked
    // below), so a replay can only be slower than the program makes it —
    // by whatever else the host is running — never faster.
    let mut fastest_ms: Vec<f64> = Vec::new();
    let mut peak_rss_mib = 0.0;
    let mut clock = RoundClock::start(args.seconds);
    let mut off = Tracer::off();
    loop {
        match pass(&mut off, &state, &sizes) {
            Ok((outcomes, seconds)) => {
                if passes.is_empty() {
                    peak_rss_mib = host::peak_rss_mib();
                    fastest_ms = vec![f64::INFINITY; seconds.len()];
                }
                for (fastest, s) in fastest_ms.iter_mut().zip(&seconds) {
                    *fastest = fastest.min(s * 1e3);
                }
                passes.push(outcomes);
            }
            Err(e) => {
                problems.push(format!("pass failed: {e}"));
                break;
            }
        }
        if args.trace || !clock.another() {
            break;
        }
    }
    let mut tracer = Tracer::on();
    if args.trace {
        match pass(&mut tracer, &state, &sizes) {
            Ok((outcomes, _)) => passes.push(outcomes),
            Err(e) => problems.push(format!("traced pass failed: {e}")),
        }
    }

    let per_pass = sizes.test * state.classes.len();
    let attempted = (passes.len() * per_pass).max(1) as u64;
    let mut failed = 0;
    let Some(first) = passes.first() else {
        return Report {
            attempted,
            failed: attempted,
            problems,
            metrics: Vec::new(),
            info: Vec::new(),
        };
    };
    for (p, outcomes) in passes.iter().enumerate() {
        failed += outcomes.iter().filter(|o| o.failed).count() as u64;
        let differing = outcomes.iter().zip(first).filter(|(a, b)| a != b).count();
        if differing > 0 {
            failed += differing as u64;
            problems.push(format!(
                "pass {p}: {differing} arrivals decided or predicted differently from pass 0"
            ));
        }
    }
    failed += check_dream_against_reference(&state, &sizes, first, &mut problems);
    for o in first {
        if o.evaluations <= o.space_size || o.pareto_size == 0 {
            problems.push("selection evaluated less than the whole space".to_string());
            break;
        }
    }
    let mre: Vec<Vec<f64>> = (0..COLUMNS)
        .map(|column| column_mre(&state, &sizes, first, column))
        .collect();
    let dream_mre = mean(&mre[DREAM]);
    let best_bml_mre = mre[..DREAM]
        .iter()
        .map(|per_class| mean(per_class))
        .fold(f64::INFINITY, f64::min);
    if !(dream_mre.is_finite() && dream_mre > 0.0) {
        problems.push(format!(
            "DREAM MRE {dream_mre} is not a positive finite number"
        ));
    }

    let mut info = vec![
        ("scale_factor".to_string(), sizes.scale_factor.to_string()),
        ("lineitem_cap".to_string(), sizes.max_lineitems.to_string()),
        (
            "warmup_arrivals_per_class".to_string(),
            sizes.warmup.to_string(),
        ),
        (
            "test_arrivals_per_class".to_string(),
            sizes.test.to_string(),
        ),
        (
            "candidate_plans".to_string(),
            first[0].space_size.to_string(),
        ),
        ("rounds".to_string(), passes.len().to_string()),
        ("latency_samples".to_string(), fastest_ms.len().to_string()),
        (
            "samples_beyond_p95".to_string(),
            (fastest_ms.len() / 20).to_string(),
        ),
        ("dream_mre".to_string(), dream_mre.to_string()),
    ];
    for (column, kind) in EstimatorKind::PAPER_ORDER.iter().enumerate() {
        let cells: Vec<String> = mre[column].iter().map(|v| format!("{v:.4}")).collect();
        info.push((
            format!("mre_{}_q12_q13_q14_q17", kind.label()),
            cells.join(" "),
        ));
    }

    let metrics = if args.trace {
        write_trace(&tracer, "estimation_replay", &mut problems);
        let summary = Summary::of(tracer.spans());
        if tracer
            .spans()
            .iter()
            .any(|s| s.name.starts_with("exec.") || s.name.starts_with("fragment."))
        {
            problems.push("an executor span inside the measured phase".to_string());
        }
        let arrivals = per_pass as f64;
        let us = |name: &str| summary.self_ns(name) as f64 / 1e3 / arrivals;
        let mut set = MetricSet::per_layer();
        set.set("tpch.generate_s", state.generate_s);
        set.set("enumerate.for_query_us", us("enumerate.for_query"));
        set.set(
            "enumerate.space_size",
            mean(
                &first
                    .iter()
                    .map(|o| o.space_size as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        set.set("optimizer.select_us", us("optimizer.select"));
        set.set("optimizer.ga_ms", us("optimizer.ga") / 1e3);
        set.set(
            "optimizer.evaluations",
            mean(
                &first
                    .iter()
                    .map(|o| o.evaluations as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        set.set(
            "optimizer.pareto_size",
            mean(
                &first
                    .iter()
                    .map(|o| o.pareto_size as f64)
                    .collect::<Vec<_>>(),
            ),
        );
        set.set("learn.observe_us", us("learn.observe"));
        set.set("dream.fit_us", us("dream.fit"));
        let windows: Vec<f64> = first
            .iter()
            .filter_map(|o| o.dream_window)
            .map(|w| w as f64)
            .collect();
        set.set("dream.window_mean", mean(&windows));
        set.set("dream.mre", dream_mre);
        set.set("dream.mre_vs_best_bml", dream_mre / best_bml_mre);
        let bml_ms: Vec<f64> = COLUMN_SPANS[..DREAM]
            .iter()
            .map(|name| us(name) / 1e3)
            .collect();
        set.set("mlearn.bml_fit_ms", mean(&bml_ms));
        set.set("mlearn.bml_all_fit_ms", bml_ms[DREAM - 1]);
        let total_ns = summary.total_ns("arrival") as f64;
        set.set("trace.job_us", total_ns / 1e3 / arrivals);
        set.set(
            "trace.unattributed_ratio",
            summary.self_ns("arrival") as f64 / total_ns.max(1.0),
        );
        set.set("trace.overhead_ratio", overhead_ratio(&tracer));
        info.push(shares_info(&tracer, "arrival"));
        set.into_metrics()
    } else {
        let mut set = MetricSet::end_to_end();
        set.set(
            "jobs_per_s",
            fastest_ms.len() as f64 / (fastest_ms.iter().sum::<f64>() / 1e3),
        );
        set.set("job_p50_ms", percentile(&fastest_ms, 50.0));
        set.set("job_p95_ms", percentile(&fastest_ms, 95.0));
        set.set("peak_rss_mib", peak_rss_mib);
        set.set("setup_s", setup_s);
        set.into_metrics()
    };

    Report {
        attempted,
        failed,
        problems,
        metrics,
        info,
    }
}
