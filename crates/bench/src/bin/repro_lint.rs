//! Workspace determinism lint + static-analysis counters, recorded as
//! `target/repro/BENCH_static_analysis.json` in the workspace (the run
//! fails if it cannot be written). Nothing is written outside `target/`,
//! so a run leaves the tree as it found it.
//!
//! Two halves, both registry-free:
//!
//! **1. Source lint.** Walks every non-stub crate's `src/` tree and flags
//! the six constructs that undermine the workspace's determinism,
//! containment and serving-cost guarantees:
//!
//! * **wall-clock** — `Instant::now` / `SystemTime` in code that is
//!   supposed to run on the simulated clock. Legitimate wall-clock use
//!   (bench timing, latency gauges that never feed deterministic state)
//!   carries a `// LINT: wall-clock` justification within the preceding
//!   lines;
//! * **lock-unwrap** — `.lock().unwrap()` / `.lock().expect(...)` outside
//!   the sanctioned poison-recovery pattern
//!   (`.lock().unwrap_or_else(PoisonError::into_inner)` or the
//!   `lock_recover` helpers): one panicking job must never cascade into a
//!   runtime-wide abort through a poisoned mutex;
//! * **panic** — `panic!` / `unreachable!` / `todo!` / `unimplemented!`
//!   in execution paths. Surviving sites are guarded internal invariants
//!   (often the ones the `engines::analyze` pre-execution analyzer
//!   discharges) and carry a `// LINT: panic-ok` justification naming the
//!   guard;
//! * **serving-pin** — `CatalogVersion::pin` on the serving path
//!   (`midas/src/runtime/`, `ires/src`, `engines/src/{exec,fused}.rs`):
//!   it compacts every multi-chunk table of the version, once per publish,
//!   where the fused executor scans the chunks in place. Flat oracles
//!   (tests, benches) pin; the code that serves jobs must
//!   not, short of a `// LINT: pin-ok` justification;
//! * **job-thread** — `thread::scope` / `thread::spawn` / `.spawn(` inside
//!   one job's execution (`engines/src/{ops,fused,exec}.rs`, `ires/src`).
//!   Parallelism in this system is workers over jobs, in
//!   `midas/src/runtime/`: sharding a join or overlapping a job's
//!   fragments measured 0.33–1.02× of running them in order on the hosts
//!   this serves, so a thread launched below the runtime needs a
//!   `// LINT: thread-ok` justification;
//! * **shared-mutation** — `Arc::make_mut` / `Arc::get_mut` /
//!   `Arc::try_unwrap` in `engines/src`, `ires/src` and
//!   `midas/src/runtime/`. Tables, columns and cached fragments are
//!   shared behind `Arc`s across jobs, tenants and versions, so a site that
//!   mutates through one must say why no other holder can see it: a
//!   `// LINT: unique-ok` justification (this rule accepts no other tag).
//!
//! Test code is exempt: `#[cfg(test)]` modules (brace-tracked) and
//! comment-only lines are skipped. The gate is **zero findings** —
//! verify.sh stage 5 fails on any unjustified site — and it fails as well
//! when a pattern of the three scoped rules matches no collected file, so
//! a file that moves cannot leave its rule without a finding.
//!
//! **2. Analyzer counters + admission overhead.** Validates the paper's
//! query set (Q12/Q13/Q14/Q17) and the medical federated workload through
//! `engines::analyze` (all must be diagnostic-clean), counts the
//! rejection corpus of deliberately malformed plans (all must be
//! rejected), and measures admission-time validation cost against the
//! mean service time of a job that plans and executes — the overhead
//! workload runs with both cache tiers off, so every job is the cold job
//! validation stands guard in front of (a fully cached job is two orders
//! of magnitude cheaper and says nothing about what a rejection saves) —
//! gated at **< 1%**, so static checking stays effectively free. The
//! timed loop is one full analysis per admission, what the runtime runs
//! on a verdict-memo miss: with the plan tier off (the overhead
//! workload's setting) the runtime keeps no memo and every admission
//! takes that path; with it on, a repeated plan takes a recorded verdict
//! instead.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_bench::{print_table, write_json};
use midas_engines::{analyze_fragment_plans, Expr, PhysicalPlan, SchemaCatalog};
use midas_tpch::medical::{generate_medical, medical_query};
use midas_tpch::queries::{q12, q13, q14, q17};
use midas_tpch::TwoTableQuery;
use std::fs;
use std::path::{Path, PathBuf};
// LINT: wall-clock — this binary measures real validation/service time.
use std::time::Instant;

/// One lint finding: where and what.
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    excerpt: String,
}

/// How many preceding lines a `// LINT:` justification may sit above its
/// site (multi-line justification comments).
const JUSTIFICATION_WINDOW: usize = 4;

fn main() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");

    // ---- half 1: the source lint --------------------------------------
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0usize;
    let mut justified = 0usize;
    let mut serving_path_files = 0usize;
    let mut rels = Vec::with_capacity(files.len());
    for file in &files {
        scanned += 1;
        let rel = file
            .strip_prefix(&root)
            .unwrap_or(file)
            .display()
            .to_string();
        rels.push(rel.clone());
        let Ok(text) = fs::read_to_string(file) else {
            continue;
        };
        serving_path_files += in_scope(&rel, SERVING_PATH) as usize;
        justified += lint_file(&rel, &text, &mut findings);
    }
    for (rule, scope) in SCOPES {
        for pattern in scope {
            assert!(
                rels.iter().any(|rel| in_scope(rel, &[*pattern])),
                "the {rule} rule's scope pattern {pattern:?} matches no source file"
            );
        }
    }

    // ---- half 2: analyzer counters ------------------------------------
    let db = midas_tpch::gen::TpchDb::generate(midas_tpch::gen::GenConfig::new(0.002, 7));
    let tpch_schemas = SchemaCatalog::from_catalog(db.catalog());
    let medical_catalog = generate_medical(2_000, 0.4, 7);
    let medical_schemas = SchemaCatalog::from_catalog(&medical_catalog);
    let clean_queries: Vec<(&SchemaCatalog, TwoTableQuery)> = vec![
        (&tpch_schemas, q12("MAIL", "SHIP", 1994)),
        (&tpch_schemas, q13("special", "requests")),
        (&tpch_schemas, q14(1995, 3)),
        (&tpch_schemas, q17("Brand#23", "MED BOX")),
        (&medical_schemas, medical_query(Some("CT"))),
        (&medical_schemas, medical_query(None)),
    ];
    let mut clean_rows = Vec::new();
    let mut clean_failures = 0usize;
    let mut total_warnings = 0usize;
    for (schemas, q) in &clean_queries {
        let analyses = analyze_fragment_plans(
            &[&q.left_prepare, &q.right_prepare, &q.combine],
            schemas,
        );
        let errors: usize = analyses.iter().map(|a| a.errors().count()).sum();
        let warnings: usize = analyses
            .iter()
            .map(|a| a.diagnostics.len() - a.errors().count())
            .sum();
        total_warnings += warnings;
        if errors > 0 {
            clean_failures += 1;
        }
        clean_rows.push(vec![
            q.label.clone(),
            errors.to_string(),
            warnings.to_string(),
        ]);
    }

    // The rejection corpus: every malformed plan must produce >= 1 error.
    let corpus = rejection_corpus();
    let mut rejected = 0usize;
    for (name, plans) in &corpus {
        let refs: Vec<&PhysicalPlan> = plans.iter().collect();
        let analyses = analyze_fragment_plans(&refs, &tpch_schemas);
        let errors: usize = analyses.iter().map(|a| a.errors().count()).sum();
        if errors > 0 {
            rejected += 1;
        } else {
            eprintln!("corpus plan {name:?} was NOT rejected");
        }
    }

    // ---- half 2b: admission-validation overhead -----------------------
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let overhead_catalog = generate_medical(12_000, 0.4, 11);
    let modalities = ["CT", "MR", "US", "XR"];
    let jobs: Vec<RuntimeJob> = (0..64)
        .map(|i| {
            RuntimeJob::new(
                &format!("hospital-{:02}", i % 8),
                medical_query(Some(modalities[i % modalities.len()])),
                QueryPolicy::balanced(),
            )
        })
        .collect();
    let n_jobs = jobs.len();
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        overhead_catalog.clone(),
        // Both cache tiers off: every one of the 64 jobs plans and
        // executes, whichever of the four queries it repeats.
        RuntimeConfig {
            workers: 1,
            max_vms: 2,
            fragment_cache_bytes: 0,
            plan_cache_bytes: 0,
            ..RuntimeConfig::default()
        },
    );
    // LINT: wall-clock — measuring real service time is the point here.
    let t0 = Instant::now();
    let report = runtime.run(jobs);
    let wall_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        report.completed.len(),
        n_jobs,
        "overhead workload must complete cleanly"
    );
    let mean_job_s = wall_s / n_jobs as f64;

    // Time the admission-validation miss path (three-plan analysis; the
    // runtime reads its schemas once, at construction) over many
    // repetitions.
    let overhead_schemas = SchemaCatalog::from_catalog(&overhead_catalog);
    let probe = medical_query(Some("CT"));
    const VALIDATIONS: usize = 2_000;
    // The fastest of five loops: on a shared host the neighbours only ever
    // add time.
    const LOOPS: usize = 5;
    let mut mean_validation_s = f64::INFINITY;
    let mut error_acc = 0usize;
    for _ in 0..LOOPS {
        // LINT: wall-clock — measuring real validation time is the point here.
        let t0 = Instant::now();
        for _ in 0..VALIDATIONS {
            let analyses = analyze_fragment_plans(
                &[&probe.left_prepare, &probe.right_prepare, &probe.combine],
                &overhead_schemas,
            );
            error_acc += analyses.iter().map(|a| a.errors().count()).sum::<usize>();
        }
        mean_validation_s =
            mean_validation_s.min(t0.elapsed().as_secs_f64() / VALIDATIONS as f64);
    }
    assert_eq!(error_acc, 0, "the probe query must validate cleanly");
    let overhead_ratio = mean_validation_s / mean_job_s;

    // ---- report -------------------------------------------------------
    println!("== repro_lint: workspace determinism lint ==\n");
    println!(
        "scanned {scanned} source files, {justified} justified sites, {} findings",
        findings.len()
    );
    for f in &findings {
        println!("  {}:{} [{}] {}", f.file, f.line, f.rule, f.excerpt);
    }
    println!();
    print_table(
        &["query", "errors", "warnings"],
        &clean_rows,
    );
    println!(
        "\nrejection corpus: {rejected}/{} malformed plans rejected",
        corpus.len()
    );
    println!(
        "admission validation: {:.2} us/plan vs {:.2} ms/cold job -> {:.4}% of service time",
        mean_validation_s * 1e6,
        mean_job_s * 1e3,
        overhead_ratio * 100.0
    );

    // The record. Failing to write it fails the run: a stale
    // `BENCH_static_analysis.json` must not read as fresh.
    let written = write_json(
        "BENCH_static_analysis",
        &serde_json::json!({
            "lint": serde_json::json!({
                "scanned_files": scanned,
                "justified_sites": justified,
                "serving_path_files": serving_path_files,
                "findings": findings.len(),
            }),
            "analyzer": serde_json::json!({
                "clean_queries": clean_queries.len(),
                "clean_query_error_failures": clean_failures,
                "clean_query_warnings": total_warnings,
                "rejection_corpus_size": corpus.len(),
                "rejection_corpus_rejected": rejected,
            }),
            "admission_overhead": serde_json::json!({
                "mean_validation_us": mean_validation_s * 1e6,
                "mean_job_ms": mean_job_s * 1e3,
                "overhead_ratio": overhead_ratio,
                "gate_max_ratio": 0.01,
            }),
        }),
    );
    // `write_json` has already said why when there is no file.
    if written.is_none() {
        std::process::exit(1);
    }

    // ---- gates --------------------------------------------------------
    assert!(
        findings.is_empty(),
        "lint gate: {} unjustified finding(s)",
        findings.len()
    );
    assert_eq!(clean_failures, 0, "paper queries must validate cleanly");
    assert_eq!(rejected, corpus.len(), "every malformed plan must be rejected");
    assert!(
        overhead_ratio < 0.01,
        "admission validation must cost < 1% of mean cold-job time \
         (measured {:.4}%)",
        overhead_ratio * 100.0
    );
    println!("\nrepro_lint: OK (0 findings, corpus rejected, overhead < 1%)");
}

/// Recursively collects `.rs` files under non-stub `crates/*/src` trees.
fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Stub crates mirror external APIs — out of scope. Integration
            // `tests/` trees are test code by definition.
            if name == "stubs" || name == "tests" || name == "target" {
                continue;
            }
            collect_sources(&path, out);
        } else if name.ends_with(".rs") && path.to_string_lossy().contains("/src/") {
            out.push(path);
        }
    }
}

/// Code a runtime job runs through — the scope of the `serving-pin` rule.
const SERVING_PATH: &[&str] = &[
    "crates/midas/src/runtime/",
    "crates/ires/src/",
    "crates/engines/src/exec.rs",
    "crates/engines/src/fused.rs",
];

/// Code that runs inside one job — the scope of the `job-thread` rule.
const INSIDE_A_JOB: &[&str] = &[
    "crates/ires/src/",
    "crates/engines/src/ops.rs",
    "crates/engines/src/fused.rs",
    "crates/engines/src/exec.rs",
];

/// Code whose `Arc`s other jobs share — the scope of the `shared-mutation`
/// rule.
const SHARES_ARCS: &[&str] = &[
    "crates/engines/src/",
    "crates/ires/src/",
    "crates/midas/src/runtime/",
];

/// The scoped rules, each with its scope. `main` fails when a scope's
/// pattern matches no collected file: a file or directory that moved would
/// otherwise drop out of its rule without a finding.
const SCOPES: [(&str, &[&str]); 3] = [
    ("serving-pin", SERVING_PATH),
    ("job-thread", INSIDE_A_JOB),
    ("shared-mutation", SHARES_ARCS),
];

/// Whether `rel` is in `scope`: a pattern ending in `/` matches every file
/// beneath that directory, any other pattern the one file it names.
fn in_scope(rel: &str, scope: &[&str]) -> bool {
    scope.iter().any(|pattern| {
        if pattern.ends_with('/') {
            rel.contains(pattern)
        } else {
            rel.ends_with(pattern)
        }
    })
}

/// Lints one file; pushes findings, returns the justified-site count.
fn lint_file(rel: &str, text: &str, findings: &mut Vec<Finding>) -> usize {
    // Patterns are assembled at runtime so this file never contains its
    // own needles verbatim (the lint must not flag itself).
    let bang = ["panic", "unreachable", "todo", "unimplemented"]
        .map(|m| format!("{m}{}", "!("));
    let wall = [format!("Instant{}now", "::"), format!("System{}", "Time")];
    let lock_bad = [
        format!(".lock(){}", ".unwrap()"),
        format!(".lock(){}", ".expect("),
    ];
    let pin = format!(".pin{}", "()");
    let serving = in_scope(rel, SERVING_PATH);
    let spawn = [
        format!("thread::{}", "scope"),
        format!("thread::{}", "spawn"),
        format!(".spawn{}", "("),
    ];
    let in_job = in_scope(rel, INSIDE_A_JOB);
    let mutate = ["make_mut(", "get_mut(", "try_unwrap("].map(|m| format!("Arc::{m}"));
    let shared = in_scope(rel, SHARES_ARCS);
    let lines: Vec<&str> = text.lines().collect();
    let mut justified = 0usize;
    // `#[cfg(test)]` module tracking: once the attribute is seen, skip
    // until the brace depth opened by the following item closes.
    let mut in_test = false;
    let mut pending_test_attr = false;
    let mut depth = 0i64;
    for (i, raw) in lines.iter().enumerate() {
        let trimmed = raw.trim_start();
        if !in_test && trimmed.starts_with("#[cfg(test)]") {
            pending_test_attr = true;
            continue;
        }
        if pending_test_attr {
            depth += brace_delta(raw);
            if depth > 0 {
                in_test = true;
                pending_test_attr = false;
            }
            continue;
        }
        if in_test {
            depth += brace_delta(raw);
            if depth <= 0 {
                in_test = false;
                depth = 0;
            }
            continue;
        }
        if trimmed.starts_with("//") {
            continue; // comment-only line (incl. docs naming the macros)
        }
        // Match against the code part only; a trailing comment may hold
        // the justification.
        let code = raw.split("//").next().unwrap_or(raw);
        let rule = if bang.iter().any(|p| code.contains(p.as_str())) {
            Some("panic")
        } else if wall.iter().any(|p| code.contains(p.as_str())) {
            Some("wall-clock")
        } else if lock_bad.iter().any(|p| code.contains(p.as_str())) {
            // Always a finding: the sanctioned form is unwrap_or_else.
            findings.push(Finding {
                file: rel.to_string(),
                line: i + 1,
                rule: "lock-unwrap",
                excerpt: trimmed.to_string(),
            });
            None
        } else if serving && code.contains(pin.as_str()) {
            Some("serving-pin")
        } else if in_job && spawn.iter().any(|p| code.contains(p.as_str())) {
            Some("job-thread")
        } else if shared && mutate.iter().any(|p| code.contains(p.as_str())) {
            Some("shared-mutation")
        } else {
            None
        };
        if let Some(rule) = rule {
            let lo = i.saturating_sub(JUSTIFICATION_WINDOW);
            let tag = if rule == "shared-mutation" { "LINT: unique-ok" } else { "LINT:" };
            let has_justification = (lo..=i).any(|j| lines[j].contains(tag));
            if has_justification {
                justified += 1;
            } else {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    rule,
                    excerpt: trimmed.to_string(),
                });
            }
        }
    }
    justified
}

/// Net brace depth change of one line (string-literal braces can skew
/// this, but test modules in this workspace close at their real end —
/// the tracker only needs "eventually returns to zero").
fn brace_delta(line: &str) -> i64 {
    let opens = line.matches('{').count() as i64;
    let closes = line.matches('}').count() as i64;
    opens - closes
}

/// Deliberately malformed fragment pipelines, each rejected by at least
/// one analyzer diagnostic (counted into the JSON so coverage regressions
/// show up as a number, not silence).
fn rejection_corpus() -> Vec<(&'static str, Vec<PhysicalPlan>)> {
    let scan = |t: &str| PhysicalPlan::Scan {
        table: t.to_string(),
    };
    vec![
        ("ghost-table", vec![scan("no_such_table")]),
        (
            "forward-frag-ref",
            vec![scan("@frag1"), scan("lineitem")],
        ),
        ("malformed-frag-ref", vec![scan("@fragX")]),
        (
            "column-out-of-bounds",
            vec![PhysicalPlan::Filter {
                input: Box::new(scan("lineitem")),
                predicate: Expr::col(999).eq(Expr::int(1)),
            }],
        ),
        (
            "type-mismatch-compare",
            vec![PhysicalPlan::Filter {
                input: Box::new(scan("lineitem")),
                // l_orderkey (Int64) vs a string literal: mixed families.
                predicate: Expr::col(0).eq(Expr::str("AIR")),
            }],
        ),
        (
            "join-key-arity",
            vec![PhysicalPlan::HashJoin {
                left: Box::new(scan("lineitem")),
                right: Box::new(scan("orders")),
                left_keys: vec![0, 1],
                right_keys: vec![0],
                join_type: midas_engines::JoinType::Inner,
            }],
        ),
        (
            "division-by-zero-literal",
            vec![PhysicalPlan::Project {
                input: Box::new(scan("lineitem")),
                exprs: vec![("d".to_string(), Expr::col(0).div(Expr::int(0)))],
            }],
        ),
        (
            "group-by-out-of-bounds",
            vec![PhysicalPlan::Aggregate {
                input: Box::new(scan("orders")),
                group_by: vec![999],
                aggs: vec![("n".to_string(), midas_engines::AggExpr::Count)],
            }],
        ),
        (
            "sort-key-out-of-bounds",
            vec![PhysicalPlan::Sort {
                input: Box::new(scan("orders")),
                by: vec![(999, false)],
            }],
        ),
    ]
}
