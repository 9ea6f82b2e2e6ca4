#!/usr/bin/env bash
# Tier-1 verification for the MIDAS reproduction workspace.
#
# Stages:
#   1. release build of every crate;
#   2. the full test suite (unit, golden, property and differential tests);
#   3. clippy on every workspace crate with warnings denied;
#   4. a smoke run of the engine_exec criterion benches (--test mode);
#   5. the scalar-vs-vectorized timing run, which records
#      BENCH_engine_exec.json (target/repro/ and repo root) so the
#      executor's perf trajectory is tracked across PRs. The same binary
#      sweeps the partitioned parallel join/aggregation over the Q13/Q17
#      (and Q12/Q14) combine fragments at partition degrees 1/2/4/8 and
#      gates: serial-vs-partitioned results bit-for-bit identical (table,
#      WorkProfile, fingerprint) at every degree, and — on hardware with
#      >= 4 CPUs, where OS threads can physically overlap — a >= 1.4x
#      Q13/Q17 combine-fragment speedup at 4 partitions (on fewer cores
#      the sweep numbers are recorded and the wall-clock gate is reported
#      as skipped);
#   6. the concurrent-runtime throughput run, which records
#      BENCH_runtime_throughput.json (target/repro/ and repo root) —
#      the multi-worker scaling trajectory of the FederationRuntime, plus
#      the zero-copy data-plane gates: catalog bytes cloned per query must
#      be exactly 0 (base tables are Arc-shared, never deep-copied),
#      fragment-parallel mode must keep a 1-worker run's simulated costs
#      bit-for-bit identical to serial-fragment mode (and so must
#      partition_degree=4 intra-fragment parallelism), and overlapping a
#      query's independent scan fragments must clear a 1.15x qps gate on
#      the balanced placement (recorded alongside the asymmetric numbers
#      and the partition-degree qps sweep).
#      The same binary also records BENCH_ingest_throughput.json — qps of
#      the streaming Ingress while hospital delta batches publish new
#      copy-on-write catalog versions mid-flight — and gates the live-data
#      plane: every append must Arc-share the prior chunks' bytes, the
#      serving path compacts nothing (every catalog version the runtime
#      served reports zero compaction bytes before the bench's flat oracle
#      pins it), and with 4 workers + parallel fragments every query result
#      must be bit-identical to standalone execution against the catalog
#      version it pinned at admission (snapshot isolation);
#   7. the fault-resilience run, which records BENCH_fault_resilience.json
#      (target/repro/ and repo root): a skewed 16-tenant workload — one
#      rogue tenant flooding panicking jobs, weighted and quiet clinics —
#      under an injected FaultPlan (site outages, slowdowns, admission
#      flaps). Gates: zero lost jobs (every submission terminates with a
#      completed report or a typed RuntimeError), every non-rogue job
#      completes (short outages absorbed by retry, quarantine contains the
#      rogue), weighted deficit round-robin bounds quiet-tenant completion
#      despite the flood, and the per-job outcome ledger is bit-identical
#      at 1 and 4 workers;
#   8. the SF 1 scale smoke, which records BENCH_engine_sf1.json
#      (target/repro/ and repo root): the paper's 1 GiB configuration
#      (SF 1.0, lineitems capped at 1.2 M rows) generated once
#      materialized and once streamed chunk-at-a-time, then Q12/Q13/Q14/
#      Q17 timed unfused (whole-column vectorized) vs fused (morsel-driven
#      chunk-native) with interleaved sampling. Gates: streamed == flat
#      bit-for-bit; fused == unfused results, fingerprints and work
#      profiles at partition degrees 1/3/8; zero snapshot-compaction bytes
#      (the fused path never pins); fused serial total wall-clock no worse
#      than unfused; and — on >= 4 CPUs — >= 1.5x fused speedup on at
#      least two of the four queries (skipped with the measured numbers
#      recorded on smaller hosts). A 10-minute timeout bounds the stage.
#   9. the multi-tenant cache run, which records BENCH_cache_hit.json
#      (target/repro/ and repo root): a 16-tenant repeated medical
#      workload served twice by a cache-disabled and a cache-enabled
#      runtime from identically seeded states. Gates: the warm
#      (all-hits) pass is bit-identical to the cold pass — including the
#      simulated cost vectors at 1 worker, plans/rows/fingerprints at 4
#      workers — and clears a >= 2.5x warm/cold qps speedup at 1 worker
#      while the cold side stays >= 0.9x the 215 qps committed before a
#      cold job stopped executing its fragments twice (the pair holds the
#      warm path to the floor the old >= 5x gate did; the faster cold
#      path halves the ratio for the right reason); a budget-halved run
#      keeps evicting without ever exceeding its byte budget.
#  10. the adaptive-planning tail run, which records
#      BENCH_adaptive_tail.json (target/repro/ and repo root): a skewed
#      four-tenant workload streamed in bursts while the blind planner's
#      favorite join site is congested (admission flap + 20x slowdown),
#      served blind (pressure_penalty = 0) and congestion-aware. Gates:
#      the aware run re-plans (replans > 0) and routes joins away from
#      the hot site while the blind run never re-plans, and the
#      pressure_penalty = 0 per-job outcome ledger is bit-identical at
#      1 and 4 workers (pressure feedback off changes nothing). On
#      >= 4 CPUs the aware run must also strictly improve wall-clock
#      p95/p99 completion latency with a >= 1.3x p99 speedup; on smaller
#      hosts those ratios are recorded in the JSON but not asserted.
#  11. the static-analysis run, which records BENCH_static_analysis.json
#      (target/repro/ and repo root): the workspace determinism lint
#      (repro_lint) walks every non-stub crate's sources and gates at
#      **zero findings** — no wall-clock (`Instant::now`/`SystemTime`),
#      `.lock().unwrap()`, or `panic!`/`unreachable!` site survives in
#      execution code without a `// LINT:` justification naming the guard
#      that discharges it. The same binary validates the Q12/Q13/Q14/Q17
#      and medical plans through the engines::analyze pre-execution
#      analyzer (all must be diagnostic-clean), checks a corpus of
#      malformed plans is fully rejected, and gates admission-time
#      validation cost at < 1% of the mean service time of a job that
#      plans and executes: a 64-job medical workload served with both
#      cache tiers off (a cached job costs two orders of magnitude less
#      and is not what validation guards).
#  12. the benchmark package's own tests. benchmark/ is a workspace of its
#      own with path dependencies on crates/*, so stages 1-3 neither build
#      nor test it: this is the stage that notices when a crates/* API
#      change stops it compiling, and it runs every workload end to end at
#      --smoke size (replay == runtime job for job).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> build (release)"
cargo build --release --offline

echo "==> tests"
cargo test -q --offline

echo "==> clippy (workspace, -D warnings)"
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "==> bench smoke (engine_exec --test)"
cargo bench --offline -p midas-bench --bench engine_exec -- --test

echo "==> perf trajectory (BENCH_engine_exec.json)"
cargo run -q --release --offline -p midas-bench --bin repro_bench_engine_exec

echo "==> runtime + ingest throughput (BENCH_runtime_throughput.json, BENCH_ingest_throughput.json)"
cargo run -q --release --offline -p midas-bench --bin repro_bench_runtime

echo "==> fault resilience (BENCH_fault_resilience.json)"
cargo run -q --release --offline -p midas-bench --bin repro_bench_fault_resilience

echo "==> SF 1 scale smoke (BENCH_engine_sf1.json)"
timeout 600 cargo run -q --release --offline -p midas-bench --bin repro_bench_engine_sf1

echo "==> multi-tenant cache (BENCH_cache_hit.json)"
cargo run -q --release --offline -p midas-bench --bin repro_bench_cache

echo "==> adaptive planning tails (BENCH_adaptive_tail.json)"
cargo run -q --release --offline -p midas-bench --bin repro_bench_adaptive

echo "==> static analysis + determinism lint (BENCH_static_analysis.json)"
cargo run -q --release --offline -p midas-bench --bin repro_lint

echo "==> benchmark package tests (benchmark/ is its own workspace)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "verify: OK"
