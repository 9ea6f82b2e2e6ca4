//! The MIDAS benchmark (see `README.md` beside `Cargo.toml`).
//!
//! `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload in this process and prints, last, one JSON result line.
//! Without `--workload` every workload runs, each in a child process of
//! its own, one at a time: untraced for the end-to-end metrics, then
//! traced for the per-layer metrics.

mod host;
mod metrics;
mod replay;
mod stats;
mod trace;
mod workloads;

use metrics::{Report, BOUNDS};
use std::process::{Command, ExitCode};
use workloads::RunArgs;

struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    sets: usize,
}

const USAGE: &str =
    "usage: midas-benchmark [--workload tpch_cold|medical_warm|ingest_mixed|estimation_replay] \
[--seed N] [--seconds S] [--trace 0|1] [--sets K] [--smoke]";

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: 10.0,
        trace: false,
        smoke: false,
        sets: 1,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--sets" => {
                cli.sets = value()?.parse().map_err(|e| format!("--sets: {e}"))?;
                if !(1..=10).contains(&cli.sets) {
                    return Err("--sets must be 1 to 10".to_string());
                }
            }
            "--smoke" => cli.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if let Some(name) = &cli.workload {
        if !workloads::NAMES.contains(&name.as_str()) {
            return Err(format!("unknown workload {name}"));
        }
    }
    Ok(cli)
}

/// The one-line JSON result the driver reads: the pretty form of the stub
/// serializer with its structural line breaks removed (string contents are
/// escaped, so they hold none).
fn result_line(report: &Report) -> String {
    let metrics = serde_json::Value::Object(
        report
            .metrics
            .iter()
            .map(|m| {
                let value = serde_json::json!({ "value": m.value, "unit": m.unit });
                (m.name.to_string(), value)
            })
            .collect(),
    );
    let result = serde_json::json!({
        "correct": report.problems.is_empty() && report.failed == 0,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    });
    let pretty = serde_json::to_string_pretty(&result).expect("the stub serializer cannot fail");
    pretty
        .lines()
        .map(str::trim_start)
        .collect::<Vec<_>>()
        .join(" ")
}

fn run_one(name: &str, cli: &Cli) -> ExitCode {
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        smoke: cli.smoke,
    };
    println!(
        "# workload={name} seed={} seconds={} trace={} smoke={} {}",
        cli.seed,
        cli.seconds,
        u8::from(cli.trace),
        cli.smoke,
        host::describe(),
    );
    let mut report = workloads::run(name, &args).expect("workload name was validated");
    for m in &mut report.metrics {
        if !m.value.is_finite() {
            report
                .problems
                .push(format!("{} is not a finite number", m.name));
            m.value = 0.0;
        }
    }
    if report.attempted == 0 {
        report.problems.push("nothing was attempted".to_string());
        report.attempted = 1;
        report.failed = 1;
    }
    for (what, value) in &report.info {
        println!("# {what}: {value}");
    }
    for m in &report.metrics {
        println!("{} {} {}", m.name, m.unit, m.value);
    }
    println!(
        "failed_share ratio {}",
        report.failed as f64 / report.attempted as f64
    );
    for problem in &report.problems {
        println!("# PROBLEM: {problem}");
    }
    println!("{}", result_line(&report));
    ExitCode::SUCCESS
}

/// One child run's metrics, parsed from its `name unit value` lines.
struct ChildRun {
    metrics: Vec<(String, String, f64)>,
    correct: bool,
}

fn run_child(name: &str, cli: &Cli, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", name])
        .args(["--seed", &cli.seed.to_string()])
        .args(["--seconds", &cli.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if cli.smoke {
        command.arg("--smoke");
    }
    let output = command.output().map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&output.stdout);
    let mut run = ChildRun {
        metrics: Vec::new(),
        correct: output.status.success(),
    };
    for line in text.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            [name, unit, value] if !name.starts_with('#') => {
                if let Ok(value) = value.parse::<f64>() {
                    run.metrics
                        .push((name.to_string(), unit.to_string(), value));
                }
            }
            _ if line.starts_with("# PROBLEM") => {
                run.correct = false;
                println!("  {line}");
            }
            _ if line.starts_with("# share_of") => println!("  {line}"),
            _ => {}
        }
    }
    if run.metrics.is_empty() {
        return Err(format!(
            "{name}: no metrics (exit {:?}): {}",
            output.status.code(),
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(run)
}

/// Runs one child and prints its metrics; `None` (after reporting why) when
/// it produced none. Clears `ok` when the child failed an output check.
fn run_and_print(name: &str, cli: &Cli, trace: bool, ok: &mut bool) -> Option<ChildRun> {
    match run_child(name, cli, trace) {
        Ok(run) => {
            for (metric, unit, value) in &run.metrics {
                println!("{metric} {unit} {value}");
            }
            *ok &= run.correct;
            Some(run)
        }
        Err(e) => {
            eprintln!("{e}");
            *ok = false;
            None
        }
    }
}

fn metrics_json(run: &ChildRun) -> Vec<serde_json::Value> {
    run.metrics
        .iter()
        .map(|(n, u, v)| serde_json::json!({ "name": n, "unit": u, "value": *v }))
        .collect()
}

fn run_all(cli: &Cli) -> ExitCode {
    println!(
        "# midas-benchmark seed={} seconds={} sets={} {}",
        cli.seed,
        cli.seconds,
        cli.sets,
        host::describe(),
    );
    let mut ok = true;
    let mut results: Vec<serde_json::Value> = Vec::new();
    for name in workloads::NAMES {
        let mut sets: Vec<ChildRun> = Vec::new();
        for set in 0..cli.sets {
            println!("== {name} (untraced, set {})", set + 1);
            sets.extend(run_and_print(name, cli, false, &mut ok));
        }
        let mut gaps: Vec<serde_json::Value> = Vec::new();
        if let [first, second, ..] = sets.as_slice() {
            println!("== {name} (repeatability: set 1, set 2, relative gap, bound)");
            for (metric, _, bound) in BOUNDS {
                let of = |run: &ChildRun| {
                    run.metrics
                        .iter()
                        .find(|(n, _, _)| n == metric)
                        .map_or(0.0, |m| m.2)
                };
                let (a, b) = (of(first), of(second));
                let gap = (a - b).abs() / a.abs().max(f64::MIN_POSITIVE);
                let within = gap <= *bound;
                println!(
                    "{metric} {a} {b} {gap:.4} {bound}{}",
                    if within { "" } else { "  EXCEEDED" }
                );
                ok &= within;
                gaps.push(serde_json::json!({ "name": *metric, "gap": gap, "bound": *bound }));
            }
        }
        println!("== {name} (traced)");
        let layers = run_and_print(name, cli, true, &mut ok);
        results.push(serde_json::json!({
            "workload": name,
            "end_to_end": sets.iter().map(metrics_json).collect::<Vec<_>>(),
            "repeatability": gaps,
            "per_layer": layers.as_ref().map(metrics_json).unwrap_or_default(),
        }));
    }
    let record = serde_json::json!({
        "seed": cli.seed,
        "seconds": cli.seconds,
        "host": host::describe(),
        "workloads": results,
    });
    let path = host::out_dir().join("results.json");
    let written = std::fs::create_dir_all(host::out_dir()).and_then(|()| {
        std::fs::write(
            &path,
            serde_json::to_string_pretty(&record).expect("the stub serializer cannot fail"),
        )
    });
    match written {
        Ok(()) => println!("# wrote {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cfg!(debug_assertions) && !cli.smoke {
        eprintln!("built with debug_assertions: refusing to measure (build with --release, or pass --smoke)");
        return ExitCode::from(2);
    }
    match &cli.workload {
        Some(name) => run_one(name, &cli),
        None => run_all(&cli),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    #[test]
    fn every_workload_runs_end_to_end_at_smoke_size() {
        for name in workloads::NAMES {
            for trace in [false, true] {
                let args = RunArgs {
                    seed: 42,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                };
                let started = std::time::Instant::now();
                let report = workloads::run(name, &args).expect("a listed workload");
                assert_eq!(
                    report.problems,
                    Vec::<String>::new(),
                    "{name} trace={trace}"
                );
                assert_eq!(report.failed, 0, "{name} trace={trace}");
                assert!(report.attempted > 0, "{name} trace={trace}");
                let table = if trace { PER_LAYER } else { END_TO_END };
                let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
                assert_eq!(names, table.iter().map(|(n, _)| *n).collect::<Vec<_>>());
                if !trace {
                    for m in &report.metrics {
                        assert!(m.value > 0.0, "{name}: {} is {}", m.name, m.value);
                    }
                }
                if !cfg!(debug_assertions) {
                    let took = started.elapsed().as_secs_f64();
                    assert!(
                        took < 3.0,
                        "{name} trace={trace} took {took} s at smoke size"
                    );
                }
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |args: &[&str]| parse(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>());
        let cli = parse(&[
            "--workload",
            "tpch_cold",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .expect("valid");
        assert_eq!(
            (cli.workload.as_deref(), cli.seed, cli.seconds, cli.trace),
            (Some("tpch_cold"), 7, 3.0, true)
        );
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--sets", "0"]).is_err());
    }
}
