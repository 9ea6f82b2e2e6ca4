//! `tpch_cold`: distinct TPC-H queries on a fresh runtime — every job
//! misses the plan cache.
//!
//! `PlanCostModel::build` and the executor do nearly all the work (the
//! build runs all three fragments through unfused `execute`, then
//! `run_with_scale` runs them again fused); caches, DREAM and selection do
//! little. Executor, cost-model and worker-scaling changes must show here.

use super::{
    count_replay_mismatches, count_wrong, oracle_fingerprints, policies, runtime_config,
    runtime_layers, setup_again, shares_info, timed_setups, write_trace, CacheTotals, RoundClock,
    RunArgs, Traced, Untraced, HOSPITALS,
};
use crate::metrics::Report;
use crate::replay::Replica;
use midas::runtime::{FederationRuntime, RuntimeJob};
use midas::Midas;
use midas_engines::cache::PlanFingerprint;
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::QueryId;
use midas_tpch::WorkloadGenerator;
use std::collections::HashSet;
use std::time::Instant;

/// Classes of one "row" of jobs. Q12 appears twice: with the four classes
/// in equal parts the nearest-rank median falls on the boundary between
/// the Q13 / Q14 latency mode (≈ 50 ms) and the Q17 mode (≈ 150 ms) and
/// jumps from run to run; with Q12 doubled it lies in the middle of the Q17
/// mode, and p95 inside the Q12 mode (230–390 ms).
const ROW: [QueryId; 5] = [
    QueryId::Q12,
    QueryId::Q13,
    QueryId::Q14,
    QueryId::Q17,
    QueryId::Q12,
];

/// Sizes of one run.
struct Sizes {
    /// TPC-H scale factor (0.1 = 600 k lineitems, the paper's 100 MiB).
    scale_factor: f64,
    /// Rows of [`ROW`] per round; a round is one `run()` on a fresh runtime.
    rows_per_round: usize,
    /// Distinct rounds generated; the measured phase cycles through them
    /// (each on a fresh runtime, so a repeated round misses again). Few,
    /// because the oracle re-executes every distinct job after the run.
    rounds: usize,
    /// Rounds of the `--trace 1` run (untraced, then replayed).
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
                rows_per_round: 2,
                rounds: 2,
                trace_rounds: 1,
                setups: 2,
            }
        } else {
            Sizes {
                scale_factor: 0.1,
                rows_per_round: 4,
                rounds: 3,
                trace_rounds: 2,
                setups: 15,
            }
        }
    }
}

struct State {
    db: TpchDb,
    midas: Midas,
    rounds: Vec<Vec<RuntimeJob>>,
    generate_s: f64,
}

/// The job list of every round: consecutive instances of each class's
/// `WorkloadGenerator::new(seed)` stream, so no two jobs of a round — nor
/// of different rounds, until a stream wraps — share a plan.
pub fn job_rounds(seed: u64, rows_per_round: usize, rounds: usize) -> Vec<Vec<RuntimeJob>> {
    let generator = WorkloadGenerator::new(seed);
    let rows = rows_per_round * rounds;
    let mut streams: Vec<(QueryId, std::vec::IntoIter<_>)> = QueryId::PAPER_SET
        .iter()
        .map(|&class| {
            let per_row = ROW.iter().filter(|c| **c == class).count();
            (
                class,
                generator.instances(class, rows * per_row).into_iter(),
            )
        })
        .collect();
    let policies = policies();
    (0..rounds)
        .map(|_| {
            let mut jobs = Vec::with_capacity(rows_per_round * ROW.len());
            for _ in 0..rows_per_round {
                for class in ROW {
                    let stream = &mut streams
                        .iter_mut()
                        .find(|(c, _)| *c == class)
                        .expect("every class of ROW is in the paper set")
                        .1;
                    let instance = stream.next().expect("stream sized for every row");
                    let tenant = jobs.len() % HOSPITALS.len();
                    jobs.push(RuntimeJob::new(
                        HOSPITALS[tenant],
                        instance.query,
                        policies[tenant].clone(),
                    ));
                }
            }
            jobs
        })
        .collect()
}

fn setup(args: &RunArgs, sizes: &Sizes) -> State {
    let started = Instant::now();
    let db = TpchDb::generate(GenConfig::new(sizes.scale_factor, args.seed));
    let generate_s = started.elapsed().as_secs_f64();
    let (midas, _, _) = Midas::example_deployment(&["lineitem", "customer"], &["orders", "part"]);
    State {
        db,
        midas,
        rounds: job_rounds(args.seed, sizes.rows_per_round, sizes.rounds),
        generate_s,
    }
}

/// Runs rounds through the public runtime until `keep_going` says stop,
/// setting up afresh (and timing it into `setup_s`) between rounds.
fn run_untraced(
    mut state: State,
    setup_s: &mut f64,
    args: &RunArgs,
    sizes: &Sizes,
    mut keep_going: impl FnMut(usize) -> bool,
    problems: &mut Vec<String>,
) -> (State, Untraced, CacheTotals, Vec<usize>) {
    let mut untraced = Untraced::default();
    let mut cache = CacheTotals::default();
    let mut order = Vec::new();
    loop {
        let round = order.len() % state.rounds.len();
        let jobs = state.rounds[round].clone();
        let runtime = FederationRuntime::new(
            state.midas.federation(),
            state.midas.placement(),
            state.db.catalog().clone(),
            runtime_config(args.seed),
        );
        let started = Instant::now();
        let report = runtime.run(jobs);
        let wall_s = started.elapsed().as_secs_f64();
        drop(runtime);
        untraced.absorb(
            round,
            state.rounds[round].len(),
            &[wall_s],
            &report,
            problems,
        );
        cache.add_fresh(&report);
        if report.cache.plan.hits != 0 {
            problems.push(format!(
                "round {round}: {} plan-cache hits on a cold runtime",
                report.cache.plan.hits
            ));
        }
        order.push(round);
        if !keep_going(order.len()) {
            return (state, untraced, cache, order);
        }
        state = setup_again(Some(state), setup_s, || setup(args, sizes));
    }
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let mut problems = Vec::new();
    let reps = if args.trace { 1 } else { sizes.setups };
    let (state, mut setup_s) = timed_setups(reps, || setup(args, &sizes));
    let (state, untraced, cache, order) = if args.trace {
        run_untraced(
            state,
            &mut setup_s,
            args,
            &sizes,
            |done| done < sizes.trace_rounds,
            &mut problems,
        )
    } else {
        let mut clock = RoundClock::start(args.seconds);
        run_untraced(
            state,
            &mut setup_s,
            args,
            &sizes,
            |_| clock.another(),
            &mut problems,
        )
    };

    for (i, jobs) in state.rounds.iter().enumerate() {
        let distinct: HashSet<u64> = jobs
            .iter()
            .map(|j| {
                PlanFingerprint::of_plans([
                    &j.query.left_prepare,
                    &j.query.right_prepare,
                    &j.query.combine,
                ])
                .hash64()
            })
            .collect();
        if distinct.len() != jobs.len() {
            problems.push(format!(
                "round {i}: {} distinct plans for {} jobs",
                distinct.len(),
                jobs.len()
            ));
        }
    }

    // The oracle: every distinct job alone on the catalog it pinned.
    let used: Vec<usize> = (0..state.rounds.len())
        .filter(|r| order.contains(r))
        .collect();
    let tasks: Vec<_> = used
        .iter()
        .flat_map(|&r| {
            state.rounds[r]
                .iter()
                .map(|j| (&j.query, state.db.catalog()))
        })
        .collect();
    let expected = oracle_fingerprints(&tasks);
    let per_round = sizes.rows_per_round * ROW.len();
    let expected_of = |round: usize, job: usize| -> Option<u64> {
        let slot = used.iter().position(|r| *r == round)?;
        expected[slot * per_round + job].as_ref().ok().copied()
    };
    for e in expected.iter().filter_map(|e| e.as_ref().err()).take(3) {
        problems.push(e.clone());
    }
    let mut wrong = 0;
    for (outputs, &round) in untraced.outputs.iter().zip(&order) {
        wrong += count_wrong(
            "tpch_cold",
            outputs,
            |job| expected_of(round, job),
            &mut problems,
        );
    }

    let mut info = vec![
        ("scale_factor".to_string(), sizes.scale_factor.to_string()),
        (
            "lineitems".to_string(),
            state
                .db
                .table("lineitem")
                .map_or(0, |t| t.n_rows())
                .to_string(),
        ),
        ("jobs_per_round".to_string(), per_round.to_string()),
        ("class_mix".to_string(), "Q12 x2, Q13, Q14, Q17".to_string()),
    ];
    info.extend(untraced.info());

    let metrics = if args.trace {
        let mut traced = Traced::new();
        for &round in &order {
            let replica = Replica::new(
                state.midas.federation(),
                state.midas.placement(),
                state.db.catalog().clone(),
                runtime_config(args.seed),
            );
            for job in &state.rounds[round] {
                traced.job(&replica, job, &mut problems);
            }
        }
        let replayed = traced.records.chunks(per_round);
        for ((outputs, records), &round) in untraced.outputs.iter().zip(replayed).zip(&order) {
            let expected = |job| expected_of(round, job);
            wrong +=
                count_replay_mismatches("tpch_cold", outputs, records, expected, &mut problems);
        }
        write_trace(&traced.tracer, "tpch_cold", &mut problems);
        let mut layers = runtime_layers(&traced, &untraced, &cache);
        layers.set("tpch.generate_s", state.generate_s);
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

    fn list_fingerprint(rounds: &[Vec<RuntimeJob>]) -> Vec<(String, String)> {
        rounds
            .iter()
            .flatten()
            .map(|j| (j.tenant.clone(), j.query.label.clone()))
            .collect()
    }

    #[test]
    fn job_list_is_a_function_of_the_seed() {
        let a = list_fingerprint(&job_rounds(42, 5, 6));
        assert_eq!(a, list_fingerprint(&job_rounds(42, 5, 6)));
        assert_ne!(a, list_fingerprint(&job_rounds(7, 5, 6)));
    }

    #[test]
    fn no_two_jobs_of_the_full_size_list_share_a_plan() {
        let rounds = job_rounds(42, 5, 6);
        assert_eq!(rounds.len(), 6);
        let plans: HashSet<PlanFingerprint> = rounds
            .iter()
            .flatten()
            .map(|j| {
                PlanFingerprint::of_plans([
                    &j.query.left_prepare,
                    &j.query.right_prepare,
                    &j.query.combine,
                ])
            })
            .collect();
        assert_eq!(plans.len(), 6 * 5 * ROW.len());
        // Jobs are dealt to the four tenants in turn.
        assert_eq!(rounds[0][5].tenant, HOSPITALS[1]);
    }
}
