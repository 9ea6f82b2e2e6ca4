#!/usr/bin/env bash
# Tier-1 verification for the MIDAS reproduction workspace.
#
# Correctness is gated here, by `cargo test`; speed is judged elsewhere, by
# the one benchmark (`benchmark/`, bounds in `BENCHMARK.json`). No stage
# asserts a wall-clock value or records a timing.
#
# Stages (each prints its wall seconds, the script prints the total):
#   1. release build of every crate;
#   2. the full test suite (unit, golden, property and differential tests);
#   3. clippy on every workspace crate and target with warnings denied;
#   4. a smoke run of the engine_exec, moqp and mlr_fit criterion benches
#      (--test mode; moqp includes the exact front over 18 200 candidates,
#      which takes seconds instead of milliseconds if it is ever quadratic
#      again; mlr_fit runs DREAM's reference and online Algorithm 1 side by
#      side, and its bml_tournament group a BML fit per window — N, 2N,
#      3N, all — plus the MLP and bagging fits alone at 18 and 50 rows);
#   5. the static-analysis run, which records BENCH_static_analysis.json
#      (the workspace target/repro/ and the repo root; the run fails if it
#      cannot write either): the workspace determinism lint (repro_lint)
#      walks every non-stub crate's sources and gates at **zero findings**
#      — no wall-clock (`Instant::now`/`SystemTime`), `.lock().unwrap()`,
#      `panic!`/`unreachable!` or serving-path `.pin()` site survives in
#      execution code without a `// LINT:` justification naming the guard
#      that discharges it. The same binary validates the Q12/Q13/Q14/Q17
#      and medical plans through the engines::analyze pre-execution
#      analyzer (all must be diagnostic-clean), checks a corpus of
#      malformed plans is fully rejected, and gates admission-time
#      validation cost at < 1% of the mean service time of a job that
#      plans and executes: a 64-job medical workload served with both
#      cache tiers off (a cached job costs two orders of magnitude less
#      and is not what validation guards);
#   6. the benchmark package's own tests. benchmark/ is a workspace of its
#      own with path dependencies on crates/*, so stages 1-3 neither build
#      nor test it: this is the stage that notices when a crates/* API
#      change stops it compiling, and it runs every workload end to end at
#      --smoke size (replay == runtime job for job);
#   7. rustdoc over the workspace with warnings denied: a doc comment that
#      links a name a PR deleted, or a private one from public docs, fails
#      here instead of dangling.
#   8. every example under examples/ and every paper reproduction binary
#      (repro_table1..4, repro_fig3, repro_example31), built in release and
#      run with their output discarded: one that stops compiling or exits
#      non-zero fails here. The examples take a few seconds
#      (adaptive_planning's pacing sleeps are ~2 s of it); the reproductions
#      ~16 s on two vCPUs, mostly table3 and table4, which regenerate their
#      TPC-H databases through GenConfig. Each reproduction also writes
#      target/repro/<name>.json.
set -euo pipefail
cd "$(dirname "$0")/.."

stage() {
    local name=$1 start=$SECONDS
    shift
    echo "==> $name"
    "$@"
    echo "    $name: $((SECONDS - start)) s"
}

stage "build (release)" cargo build --release --offline
stage "tests" cargo test -q --offline
stage "clippy (workspace, -D warnings)" \
    cargo clippy --offline --workspace --all-targets -- -D warnings
stage "bench smoke (engine_exec, moqp, mlr_fit --test)" \
    cargo bench --offline -p midas-bench --bench engine_exec --bench moqp --bench mlr_fit -- --test
stage "static analysis + determinism lint (BENCH_static_analysis.json)" \
    cargo run -q --release --offline -p midas-bench --bin repro_lint
stage "benchmark package tests (benchmark/ is its own workspace)" \
    cargo test --release --offline --manifest-path benchmark/Cargo.toml
stage "rustdoc (workspace, -D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace

run_examples_and_repros() {
    cargo build --release --offline --examples --bins
    local release=${CARGO_TARGET_DIR:-target}/release example repro
    for example in examples/*.rs; do
        example=$(basename "$example" .rs)
        echo "    example $example"
        "$release/examples/$example" > /dev/null
    done
    for repro in repro_table1 repro_table2 repro_table3 repro_table4 repro_fig3 repro_example31; do
        echo "    $repro"
        "$release/$repro" > /dev/null
    done
}
stage "examples and paper reproductions (build, run each)" run_examples_and_repros

echo "verify: OK ($SECONDS s)"
