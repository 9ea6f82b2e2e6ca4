//! The four workloads and what the three runtime-backed ones share.
//!
//! Load model: **closed loop**. The runtime serves at most one job per
//! tenant at a time, so each tenant is a caller waiting for its reply. The
//! only load generator is this process: the runtime's worker threads do
//! the work while the submitting thread is blocked in `run` / `drain`.

pub mod estimation_replay;
pub mod ingest_mixed;
pub mod medical_warm;
pub mod tpch_cold;

use crate::host;
use crate::metrics::{MetricSet, Report};
use crate::replay::{JobRecord, Replica};
use crate::stats::{mean, mean_relative_error, median, percentile};
use crate::trace::{Summary, Tracer};
use midas::runtime::{RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::QueryPolicy;
use midas_engines::Catalog;
use midas_tpch::TwoTableQuery;
use std::collections::{BTreeMap, HashSet};
use std::time::Instant;

/// Workload names, in the order the all-workloads mode runs them.
pub const NAMES: [&str; 4] = [
    "tpch_cold",
    "medical_warm",
    "ingest_mixed",
    "estimation_replay",
];

/// What the command line asks of one workload process.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Seed of every generated input.
    pub seed: u64,
    /// Target length of the measured phase.
    pub seconds: f64,
    /// `false`: untraced run, end-to-end metrics. `true`: a short untraced
    /// run plus the traced single-thread replay, per-layer metrics.
    pub trace: bool,
    /// Tiny inputs (every workload under three seconds), for the tests.
    pub smoke: bool,
}

/// Runs the named workload; `None` for an unknown name.
pub fn run(name: &str, args: &RunArgs) -> Option<Report> {
    match name {
        "tpch_cold" => Some(tpch_cold::run(args)),
        "medical_warm" => Some(medical_warm::run(args)),
        "ingest_mixed" => Some(ingest_mixed::run(args)),
        "estimation_replay" => Some(estimation_replay::run(args)),
        _ => None,
    }
}

/// The four hospital tenants of the TPC-H workloads.
pub const HOSPITALS: [&str; 4] = ["hospital-A", "hospital-B", "hospital-C", "hospital-D"];

/// The four tenant policies of `repro_bench_runtime`, by tenant index.
pub fn policies() -> [QueryPolicy; 4] {
    [
        QueryPolicy::balanced(),
        QueryPolicy::fastest(),
        QueryPolicy::cheapest(),
        QueryPolicy::balanced().with_money_budget(100.0),
    ]
}

/// `workers = min(2, nproc)`, `pacing = 0`, the run's seed; every other
/// field at its default.
pub fn runtime_config(seed: u64) -> RuntimeConfig {
    RuntimeConfig {
        workers: host::workers(),
        seed,
        pacing: 0.0,
        ..RuntimeConfig::default()
    }
}

/// Runs `setup` `reps` times, dropping each state before building the
/// next; returns the last state and the wall time of the fastest set-up.
///
/// The set-ups are identical computations, so one can only be slower than
/// the program makes it — by page faults the first few pay and the later
/// ones do not (the allocator keeps the freed states' memory) and by
/// whatever else the host is running — never faster.
pub fn timed_setups<S>(reps: usize, mut setup: impl FnMut() -> S) -> (S, f64) {
    let mut fastest_s = f64::INFINITY;
    let mut state = setup_again(None, &mut fastest_s, &mut setup);
    for _ in 1..reps {
        state = setup_again(Some(state), &mut fastest_s, &mut setup);
    }
    (state, fastest_s)
}

/// Drops `old`, sets up afresh and lowers `fastest_s` to this set-up's wall
/// time if it was faster. The workloads call it between rounds as well, so
/// that set-ups are timed throughout the run, like the jobs, and not only
/// in its first second.
pub fn setup_again<S>(old: Option<S>, fastest_s: &mut f64, setup: impl FnOnce() -> S) -> S {
    drop(old);
    let started = Instant::now();
    let state = setup();
    *fastest_s = fastest_s.min(started.elapsed().as_secs_f64());
    state
}

/// Decides when the measured phase has run for the requested time. Rounds
/// are indivisible, so the phase ends at the round boundary nearest to the
/// target: another round starts only if at least half of it fits.
pub struct RoundClock {
    started: Instant,
    seconds: f64,
    rounds: usize,
}

impl RoundClock {
    /// Starts the clock.
    pub fn start(seconds: f64) -> Self {
        RoundClock {
            started: Instant::now(),
            seconds,
            rounds: 0,
        }
    }

    /// Call after each round; `true` when another one should run.
    pub fn another(&mut self) -> bool {
        self.rounds += 1;
        let elapsed = self.started.elapsed().as_secs_f64();
        elapsed + 0.5 * elapsed / self.rounds as f64 <= self.seconds
    }
}

/// What one job returned through the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobOutput {
    /// `MidasReport::result_fingerprint`.
    pub fingerprint: u64,
    /// `MidasReport::result_rows`.
    pub rows: usize,
    /// The catalog version the job pinned.
    pub pinned_version: u64,
}

/// The fastest replay of one job list (a round): element-wise minima over
/// the rounds that ran it.
#[derive(Debug, Default)]
struct Fastest {
    /// Wall time of each timed unit of the round (the whole `run()`, or
    /// each window of a `serve()`), in seconds.
    unit_wall_s: Vec<f64>,
    /// `TenantReport::wall_latency_s` by admission sequence, in ms;
    /// infinite for a job that never completed.
    latency_ms: Vec<f64>,
    /// Rounds folded in.
    replays: usize,
}

/// Everything the untraced runs through the public runtime produced,
/// accumulated over rounds.
///
/// A run replays each job list several times, every time on fresh state,
/// and the end-to-end timings are those of the **fastest replay** of each
/// unit: of each job for the latency percentiles, of each timed call for
/// the rate. The replays are identical work, so one can only be slower
/// than the program makes it, by whatever else this shared host is running,
/// never faster. Medians and pooled percentiles over the same samples
/// spread 10–33 % between runs of the same code; the fastest replays
/// spread 1–7 % (README, *Repeatability*). `estimation_replay` times its
/// arrivals the same way.
#[derive(Debug, Default)]
pub struct Untraced {
    /// `TenantReport::wall_latency_s` of every completed job, in ms.
    pub latencies_ms: Vec<f64>,
    /// `TenantReport::queue_wait_s` of every completed job, in ms.
    pub queue_wait_ms: Vec<f64>,
    /// Completed jobs ÷ bench-side wall time, one per round.
    pub round_rates: Vec<f64>,
    /// `VmHWM` when the first round ended, in MiB.
    pub peak_rss_mib: f64,
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs the runtime failed or never reported.
    pub failed: u64,
    /// Per round, per admission sequence: what the job returned.
    pub outputs: Vec<Vec<Option<JobOutput>>>,
    /// Per distinct job list: its fastest replay.
    fastest: Vec<Fastest>,
}

impl Untraced {
    /// Folds in one `run` / `serve` call of `submitted` jobs — a replay of
    /// job list `list` — whose timed units (the call itself, or each of its
    /// windows) took `unit_wall_s` as timed by the benchmark.
    pub fn absorb(
        &mut self,
        list: usize,
        submitted: usize,
        unit_wall_s: &[f64],
        report: &RuntimeReport,
        problems: &mut Vec<String>,
    ) {
        if report.completed.len() + report.failed.len() != submitted {
            problems.push(format!(
                "completed {} + failed {} != submitted {submitted}",
                report.completed.len(),
                report.failed.len()
            ));
        }
        for failure in report.failed.iter().take(3) {
            problems.push(format!(
                "job {} failed: {}",
                failure.sequence, failure.error
            ));
        }
        if self.round_rates.is_empty() {
            self.peak_rss_mib = host::peak_rss_mib();
        }
        if self.fastest.len() <= list {
            self.fastest.resize_with(list + 1, Fastest::default);
        }
        let fastest = &mut self.fastest[list];
        fastest.unit_wall_s.resize(unit_wall_s.len(), f64::INFINITY);
        fastest.latency_ms.resize(submitted, f64::INFINITY);
        fastest.replays += 1;
        for (best, wall_s) in fastest.unit_wall_s.iter_mut().zip(unit_wall_s) {
            *best = best.min(*wall_s);
        }
        let mut outputs = vec![None; submitted];
        for r in &report.completed {
            self.latencies_ms.push(r.wall_latency_s * 1e3);
            self.queue_wait_ms.push(r.queue_wait_s * 1e3);
            if let Some(best) = fastest.latency_ms.get_mut(r.sequence) {
                *best = best.min(r.wall_latency_s * 1e3);
            }
            if let Some(slot) = outputs.get_mut(r.sequence) {
                *slot = Some(JobOutput {
                    fingerprint: r.report.result_fingerprint,
                    rows: r.report.result_rows,
                    pinned_version: r.pinned_version,
                });
            }
        }
        self.submitted += submitted as u64;
        self.failed += (submitted - report.completed.len().min(submitted)) as u64;
        self.round_rates
            .push(report.completed.len() as f64 / unit_wall_s.iter().sum::<f64>());
        self.outputs.push(outputs);
    }

    /// Each distinct job's latency in its fastest replay, in ms.
    fn fastest_latencies_ms(&self) -> Vec<f64> {
        self.fastest
            .iter()
            .flat_map(|f| &f.latency_ms)
            .copied()
            .filter(|ms| ms.is_finite())
            .collect()
    }

    /// The end-to-end metrics of a runtime-backed workload.
    pub fn end_to_end(&self, setup_s: f64) -> MetricSet {
        let latencies_ms = self.fastest_latencies_ms();
        let wall_s: f64 = self.fastest.iter().flat_map(|f| &f.unit_wall_s).sum();
        let mut set = MetricSet::end_to_end();
        set.set("jobs_per_s", latencies_ms.len() as f64 / wall_s);
        set.set("job_p50_ms", percentile(&latencies_ms, 50.0));
        set.set("job_p95_ms", percentile(&latencies_ms, 95.0));
        set.set("peak_rss_mib", self.peak_rss_mib);
        set.set("setup_s", setup_s);
        set
    }

    /// Sample counts behind the percentiles.
    pub fn info(&self) -> Vec<(String, String)> {
        let samples = self.fastest_latencies_ms().len();
        let replays: Vec<String> = self.fastest.iter().map(|f| f.replays.to_string()).collect();
        vec![
            ("rounds".to_string(), self.round_rates.len().to_string()),
            ("replays_per_job_list".to_string(), replays.join(" ")),
            ("latency_samples".to_string(), samples.to_string()),
            ("samples_beyond_p95".to_string(), (samples / 20).to_string()),
        ]
    }
}

/// `TwoTableQuery::standalone_fingerprint` of every `(query, catalog)`
/// task, computed on as many threads as the runtime has workers. The
/// oracle is a pure function of its task, so the split is invisible.
pub fn oracle_fingerprints(tasks: &[(&TwoTableQuery, &Catalog)]) -> Vec<Result<u64, String>> {
    let threads = host::workers().min(tasks.len()).max(1);
    let mut out: Vec<Result<u64, String>> = vec![Err("not computed".to_string()); tasks.len()];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    tasks
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, (query, catalog))| {
                            let expected = query
                                .standalone_fingerprint(catalog)
                                .map_err(|e| format!("{}: oracle failed: {e}", query.label));
                            (i, expected)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (i, expected) in handle.join().expect("oracle thread panicked") {
                out[i] = expected;
            }
        }
    });
    out
}

/// Counts jobs whose output is missing or differs from `expected`, noting
/// the first few in `problems`.
pub fn count_wrong(
    what: &str,
    outputs: &[Option<JobOutput>],
    expected: impl Fn(usize) -> Option<u64>,
    problems: &mut Vec<String>,
) -> u64 {
    let mut wrong = 0;
    for (i, output) in outputs.iter().enumerate() {
        let ok = match (output, expected(i)) {
            (Some(got), Some(want)) => got.fingerprint == want,
            // A job the runtime failed is already counted as failed.
            (None, _) => true,
            (Some(_), None) => false,
        };
        if !ok {
            wrong += 1;
            if problems.len() < 8 {
                problems.push(format!("{what}: job {i} returned a wrong result"));
            }
        }
    }
    wrong
}

/// Compares one round of the replay with the untraced outputs and with the
/// oracle (`expected`, by job index within the round), job for job.
pub fn count_replay_mismatches(
    what: &str,
    outputs: &[Option<JobOutput>],
    records: &[JobRecord],
    expected: impl Fn(usize) -> Option<u64>,
    problems: &mut Vec<String>,
) -> u64 {
    if outputs.len() != records.len() {
        problems.push(format!(
            "{what}: replay ran {} jobs, the runtime {}",
            records.len(),
            outputs.len()
        ));
        return outputs.len().abs_diff(records.len()) as u64;
    }
    let mut wrong = 0;
    for (i, (output, record)) in outputs.iter().zip(records).enumerate() {
        let same_as_runtime = output.is_some_and(|o| {
            o.fingerprint == record.result_fingerprint
                && o.rows == record.result_rows
                && o.pinned_version == record.pinned_version
        });
        let same_as_oracle = expected(i) == Some(record.result_fingerprint);
        for (same, other) in [
            (same_as_runtime, "the runtime"),
            (same_as_oracle, "the oracle"),
        ] {
            if !same {
                wrong += 1;
                if problems.len() < 8 {
                    problems.push(format!("{what}: replay job {i} differs from {other}"));
                }
            }
        }
    }
    wrong
}

/// Cache counters of the untraced run, summed by the workload over
/// whatever runtimes it used.
#[derive(Debug, Default, Clone, Copy)]
pub struct CacheTotals {
    /// Plan-cache hits.
    pub plan_hits: u64,
    /// Plan-cache misses.
    pub plan_misses: u64,
    /// Fragment-cache hits.
    pub fragment_hits: u64,
    /// Fragment-cache misses.
    pub fragment_misses: u64,
    /// Evictions, both tiers.
    pub evictions: u64,
    /// Resident bytes of both tiers when the last runtime finished.
    pub resident_bytes: u64,
    /// Seconds jobs waited for a site slot, all sites.
    pub admission_wait_s: f64,
}

impl CacheTotals {
    /// Adds the counters of a runtime that served exactly this report
    /// (a fresh runtime per round).
    pub fn add_fresh(&mut self, report: &RuntimeReport) {
        let (plan, fragment) = (report.cache.plan, report.cache.fragment);
        self.plan_hits += plan.hits;
        self.plan_misses += plan.misses;
        self.fragment_hits += fragment.hits;
        self.fragment_misses += fragment.misses;
        self.evictions += plan.evictions + fragment.evictions;
        self.resident_bytes = plan.resident_bytes + fragment.resident_bytes;
        self.admission_wait_s += report
            .admission
            .iter()
            .map(|(_, s)| s.total_wait_s)
            .sum::<f64>();
    }

    /// `hits ÷ (hits + misses)`, 0 when nothing was looked up.
    pub fn ratio(hits: u64, misses: u64) -> f64 {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

/// The traced replay of a runtime-backed workload, as it accumulates.
pub struct Traced {
    /// The recorded spans.
    pub tracer: Tracer,
    /// One record per replayed job; job `i` carries span job id `i`.
    pub records: Vec<JobRecord>,
    /// Query class of job `i` (`"Q12"`, `"Medical"`, …).
    pub classes: Vec<String>,
    /// Publishes replayed.
    pub publishes: usize,
}

impl Traced {
    /// An empty replay with a recording tracer.
    pub fn new() -> Self {
        Traced {
            tracer: Tracer::on(),
            records: Vec::new(),
            classes: Vec::new(),
            publishes: 0,
        }
    }

    /// Replays `job` on `replica` under the next job id.
    pub fn job(&mut self, replica: &Replica<'_>, job: &RuntimeJob, problems: &mut Vec<String>) {
        match replica.job(&mut self.tracer, self.records.len() as u64, job) {
            Ok(record) => {
                self.records.push(record);
                self.classes.push(job.query.class().to_string());
            }
            Err(e) => problems.push(format!("replay: {e}")),
        }
    }
}

/// The per-layer metrics a runtime-backed workload derives from its traced
/// replay, its (short) untraced run and that run's cache counters. Layer
/// numbers are self times, averaged per job — or per publish for the
/// ingest spans.
pub fn runtime_layers(traced: &Traced, untraced: &Untraced, cache: &CacheTotals) -> MetricSet {
    let mut set = MetricSet::per_layer();
    let spans = traced.tracer.spans();
    let summary = Summary::of(spans);
    let jobs = traced.records.len().max(1) as f64;
    let publishes = traced.publishes.max(1) as f64;
    let per_job_us = |name: &str| summary.self_ns(name) as f64 / 1e3 / jobs;
    let per_job_ms = |name: &str| summary.self_ns(name) as f64 / 1e6 / jobs;
    let per_publish_us = |name: &str| summary.self_ns(name) as f64 / 1e3 / publishes;

    for (metric, span) in [
        ("analyze.validate_us", "analyze.validate"),
        ("version.pin_us", "version.pin"),
        ("cache.fingerprint_us", "cache.fingerprint"),
        ("cache.plan_probe_us", "cache.plan_probe"),
        ("enumerate.for_query_us", "enumerate.for_query"),
        ("enumerate.assemble_us", "enumerate.assemble"),
        ("costmodel.apply_pressure_us", "costmodel.apply_pressure"),
        ("optimizer.select_us", "optimizer.select"),
        ("learn.observe_us", "learn.observe"),
        ("report.fingerprint_us", "report.fingerprint"),
        ("report.release_us", "report.release"),
    ] {
        set.set(metric, per_job_us(span));
    }
    for (metric, span) in [
        ("costmodel.build_ms", "costmodel.build"),
        ("exec.run_ms", "exec.run"),
    ] {
        set.set(metric, per_job_ms(span));
    }
    // The fragment spans exist only for the jobs whose `exec.run` executed
    // all three fragments, so they and the overhead average over those.
    let executed_all: HashSet<u64> = spans
        .iter()
        .filter(|s| s.name == "fragment.combine")
        .map(|s| s.job)
        .collect();
    let n = executed_all.len().max(1) as f64;
    let mut overhead_ms =
        summary.self_ns_where("exec.run", |job| executed_all.contains(&job)) as f64 / 1e6 / n;
    for (metric, span) in [
        ("fragment.left_prepare_ms", "fragment.left_prepare"),
        ("fragment.right_prepare_ms", "fragment.right_prepare"),
        ("fragment.combine_ms", "fragment.combine"),
    ] {
        let fragment_ms = summary.self_ns(span) as f64 / 1e6 / n;
        set.set(metric, fragment_ms);
        overhead_ms -= fragment_ms;
    }
    set.set("exec.overhead_ms", overhead_ms);
    for (metric, class) in [
        ("exec.q12_ms", "Q12"),
        ("exec.q13_ms", "Q13"),
        ("exec.q14_ms", "Q14"),
        ("exec.q17_ms", "Q17"),
    ] {
        let of_class = |job: u64| traced.classes.get(job as usize).is_some_and(|c| c == class);
        let n = traced.classes.iter().filter(|c| *c == class).count();
        if n > 0 {
            let ns = summary.self_ns_where("exec.run", of_class);
            set.set(metric, ns as f64 / 1e6 / n as f64);
        }
    }
    if traced.publishes > 0 {
        set.set("tpch.delta_batch_us", per_publish_us("tpch.delta_batch"));
        set.set(
            "version.append_batch_us",
            per_publish_us("version.append_batch"),
        );
        set.set("cache.invalidate_us", per_publish_us("cache.invalidate"));
        // Compaction is paid once per version, by the first job that pins it.
        let mut per_version: BTreeMap<u64, u64> = BTreeMap::new();
        for r in &traced.records {
            let bytes = per_version.entry(r.pinned_version).or_default();
            *bytes = (*bytes).max(r.compaction_bytes);
        }
        let compacted: u64 = per_version.values().sum();
        set.set(
            "version.compaction_bytes_per_publish",
            compacted as f64 / publishes,
        );
    }

    let records = &traced.records;
    let mean_of = |f: &dyn Fn(&JobRecord) -> f64| mean(&records.iter().map(f).collect::<Vec<_>>());
    set.set("enumerate.space_size", mean_of(&|r| r.space_size as f64));
    set.set("optimizer.evaluations", mean_of(&|r| r.space_size as f64));
    set.set("optimizer.pareto_size", mean_of(&|r| r.pareto_size as f64));
    set.set("exec.rows_in_per_job", mean_of(&|r| r.rows_in as f64));
    set.set("exec.bytes_in_per_job", mean_of(&|r| r.bytes_in as f64));
    let predictions: Vec<(f64, f64)> = records
        .iter()
        .map(|r| (r.predicted_s, r.simulated_s))
        .collect();
    set.set("costmodel.predict_mre", mean_relative_error(&predictions));
    let windows: Vec<f64> = records
        .iter()
        .filter_map(|r| r.dream_window)
        .map(|w| w as f64)
        .collect();
    set.set("dream.window_mean", mean(&windows));

    set.set(
        "cache.plan_hit_ratio",
        CacheTotals::ratio(cache.plan_hits, cache.plan_misses),
    );
    set.set(
        "cache.fragment_hit_ratio",
        CacheTotals::ratio(cache.fragment_hits, cache.fragment_misses),
    );
    set.set("cache.evictions", cache.evictions as f64);
    set.set("cache.resident_bytes", cache.resident_bytes as f64);
    let untraced_jobs = untraced.latencies_ms.len().max(1) as f64;
    set.set(
        "sim.admission_wait_ms",
        cache.admission_wait_s * 1e3 / untraced_jobs,
    );
    set.set("runtime.queue_wait_ms", mean(&untraced.queue_wait_ms));
    set.set(
        "runtime.job_p99_ms",
        percentile(&untraced.latencies_ms, 99.0),
    );

    let job_total_ns = summary.total_ns("job") as f64;
    let job_self_ns = summary.self_ns("job") as f64;
    set.set("trace.job_us", job_total_ns / 1e3 / jobs);
    set.set(
        "trace.unattributed_ratio",
        job_self_ns / job_total_ns.max(1.0),
    );
    set.set(
        "runtime.overhead_us",
        mean(&untraced.latencies_ms) * 1e3 - job_total_ns / 1e3 / jobs,
    );
    let one_thread_jobs_per_s = jobs / (job_total_ns / 1e9).max(1e-9);
    set.set(
        "runtime.scaling_2w",
        median(&untraced.round_rates) / one_thread_jobs_per_s,
    );
    set.set("trace.overhead_ratio", overhead_ratio(&traced.tracer));
    set
}

/// Share of the traced time spent recording: the measured cost of an empty
/// span times the spans recorded, over the time the root spans cover. (The
/// direct difference between a traced and an untraced replay is far below
/// this host's run-to-run noise, so it is computed, not subtracted.)
pub fn overhead_ratio(tracer: &Tracer) -> f64 {
    let spans = tracer.spans();
    let covered_ns: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.duration_ns())
        .sum();
    Tracer::empty_span_cost_ns() * spans.len() as f64 / (covered_ns as f64).max(1.0)
}

/// Writes a workload's trace to `benchmark/out/trace-<name>.json`.
pub fn write_trace(tracer: &Tracer, workload: &str, problems: &mut Vec<String>) {
    let path = host::out_dir().join(format!("trace-{workload}.json"));
    if let Err(e) = tracer.write_json(&path) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
}

/// Share of the traced job time each named layer span accounts for, plus
/// `unattributed`, as `(span name, share)` sorted by share — the "where
/// the time goes" table.
pub fn job_time_shares(tracer: &Tracer, root: &str) -> Vec<(String, f64)> {
    let spans = tracer.spans();
    let summary = Summary::of(spans);
    let total = summary.total_ns(root).max(1) as f64;
    let roots: HashSet<u32> = spans
        .iter()
        .filter(|s| s.name == root)
        .map(|s| s.id)
        .collect();
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        if s.parent.is_some_and(|p| roots.contains(&p)) {
            *by_name.entry(s.name).or_default() += s.duration_ns();
        }
    }
    let mut shares: Vec<(String, f64)> = by_name
        .into_iter()
        .map(|(name, ns)| (name.to_string(), ns as f64 / total))
        .collect();
    shares.push((
        "unattributed".to_string(),
        summary.self_ns(root) as f64 / total,
    ));
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    shares
}

/// Renders [`job_time_shares`] as one info line.
pub fn shares_info(tracer: &Tracer, root: &str) -> (String, String) {
    let text = job_time_shares(tracer, root)
        .iter()
        .map(|(name, share)| format!("{name} {:.1}%", share * 100.0))
        .collect::<Vec<_>>()
        .join(", ");
    (format!("share_of_traced_{root}_time"), text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;

    /// A state that counts how many of its kind are alive.
    struct Live<'a>(&'a Cell<usize>);

    impl Drop for Live<'_> {
        fn drop(&mut self) {
            self.0.set(self.0.get() - 1);
        }
    }

    #[test]
    fn a_set_up_starts_only_after_the_previous_state_is_dropped() {
        let live = Cell::new(0);
        let mut most = 0;
        let mut setup = || {
            live.set(live.get() + 1);
            most = most.max(live.get());
            Live(&live)
        };
        let (state, mut fastest_s) = timed_setups(3, &mut setup);
        let state = setup_again(Some(state), &mut fastest_s, &mut setup);
        assert!(fastest_s.is_finite());
        drop(state);
        assert_eq!((most, live.get()), (1, 0));
    }
}
