//! `medical_warm`: sixteen hospitals repeating five medical queries on a
//! primed runtime — every fragment and plan is a cache hit.
//!
//! The relational operators do nothing, so what remains is the runtime's
//! own per-job path: fingerprinting, plan-cache probe, `moqp_exhaustive`,
//! `assemble`, the hit path of `run_federated`, `ModellingRegistry::observe`,
//! `result.fingerprint()`, report assembly, queue and locks. An executor
//! change must not move this workload; a cache or runtime-overhead change
//! must.

use super::{
    count_replay_mismatches, count_wrong, oracle_fingerprints, policies, runtime_config,
    runtime_layers, setup_again, shares_info, timed_setups, write_trace, CacheTotals, RoundClock,
    RunArgs, Traced, Untraced,
};
use crate::metrics::Report;
use crate::replay::Replica;
use crate::trace::Tracer;
use midas::runtime::{FederationRuntime, RuntimeCacheStats, RuntimeJob};
use midas::Midas;
use midas_engines::Catalog;
use midas_tpch::medical::{generate_medical, medical_query};
use std::time::Instant;

const MODALITIES: [&str; 5] = ["CT", "MR", "US", "XR", "PET"];
const TENANTS: usize = 16;

struct Sizes {
    /// Rows of `patient`; half of them have `generalinfo` records.
    patients: usize,
    /// Jobs per tenant in one measured `run()`.
    rounds_per_run: usize,
    /// `run()` calls of the `--trace 1` run.
    trace_runs: usize,
    /// Set-ups timed for `setup_s` before the first round; one more is
    /// timed between every two rounds.
    setups: usize,
}

impl Sizes {
    fn of(args: &RunArgs) -> Self {
        if args.smoke {
            Sizes {
                patients: 2_000,
                rounds_per_run: 5,
                trace_runs: 1,
                setups: 2,
            }
        } else {
            Sizes {
                patients: 100_000,
                rounds_per_run: 50,
                trace_runs: 2,
                setups: 15,
            }
        }
    }
}

/// `rounds` jobs for each of the sixteen tenants, round by round; tenant
/// `t` asks for modality `(t + round + seed) mod 5`, so one round already
/// touches all five queries.
pub fn jobs(seed: u64, rounds: usize) -> Vec<RuntimeJob> {
    let policies = policies();
    let mut jobs = Vec::with_capacity(rounds * TENANTS);
    for round in 0..rounds {
        for tenant in 0..TENANTS {
            let modality =
                MODALITIES[(tenant + round + seed as usize % MODALITIES.len()) % MODALITIES.len()];
            jobs.push(RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(modality)),
                policies[tenant % policies.len()].clone(),
            ));
        }
    }
    jobs
}

struct State {
    tables: Catalog,
    midas: &'static Midas,
    runtime: FederationRuntime<'static>,
    /// Cache and admission counters after the priming round.
    primed: (RuntimeCacheStats, f64),
}

fn admission_wait_s(runtime: &FederationRuntime<'_>) -> f64 {
    runtime
        .admission_stats()
        .iter()
        .map(|(_, s)| s.total_wait_s)
        .sum()
}

fn setup(args: &RunArgs, sizes: &Sizes, problems: &mut Vec<String>) -> State {
    let tables = generate_medical(sizes.patients, 0.5, args.seed);
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    // The runtime borrows the deployment; leaking the few hundred bytes
    // lets a state own both.
    let midas: &'static Midas = Box::leak(Box::new(midas));
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        tables.clone(),
        runtime_config(args.seed),
    );
    // Priming round: one job per tenant fills both cache tiers.
    let priming = runtime.run(jobs(args.seed, 1));
    if !priming.failed.is_empty() || priming.completed.len() != TENANTS {
        problems.push(format!("priming round: {} failed", priming.failed.len()));
    }
    let primed = (runtime.cache_stats(), admission_wait_s(&runtime));
    State {
        tables,
        midas,
        runtime,
        primed,
    }
}

pub fn run(args: &RunArgs) -> Report {
    let sizes = Sizes::of(args);
    let mut problems = Vec::new();
    let reps = if args.trace { 1 } else { sizes.setups };
    let (mut state, mut setup_s) = timed_setups(reps, || setup(args, &sizes, &mut problems));
    let list = jobs(args.seed, sizes.rounds_per_run);

    let mut untraced = Untraced::default();
    let mut cache = CacheTotals::default();
    let mut clock = RoundClock::start(args.seconds);
    loop {
        let batch = list.clone();
        let started = Instant::now();
        let report = state.runtime.run(batch);
        let wall_s = started.elapsed().as_secs_f64();
        untraced.absorb(0, list.len(), &[wall_s], &report, &mut problems);
        let after = state.runtime.cache_stats();
        let (before, wait_before) = state.primed;
        cache.plan_hits += after.plan.hits - before.plan.hits;
        cache.plan_misses += after.plan.misses - before.plan.misses;
        cache.fragment_hits += after.fragment.hits - before.fragment.hits;
        cache.fragment_misses += after.fragment.misses - before.fragment.misses;
        cache.evictions += after.plan.evictions + after.fragment.evictions
            - before.plan.evictions
            - before.fragment.evictions;
        cache.resident_bytes = after.plan.resident_bytes + after.fragment.resident_bytes;
        cache.admission_wait_s += admission_wait_s(&state.runtime) - wait_before;
        let more = if args.trace {
            untraced.round_rates.len() < sizes.trace_runs
        } else {
            clock.another()
        };
        if !more {
            break;
        }
        state = setup_again(Some(state), &mut setup_s, || {
            setup(args, &sizes, &mut problems)
        });
    }

    let fragment_hit_ratio = CacheTotals::ratio(cache.fragment_hits, cache.fragment_misses);
    if fragment_hit_ratio < 0.99 {
        problems.push(format!(
            "measured pass: fragment hit ratio {fragment_hit_ratio} < 0.99"
        ));
    }
    if cache.plan_misses != 0 {
        problems.push(format!(
            "measured pass: {} plan-cache misses on a primed runtime",
            cache.plan_misses
        ));
    }

    // The oracle: each of the five queries alone on the catalog.
    let queries: Vec<_> = MODALITIES.iter().map(|m| medical_query(Some(m))).collect();
    let tasks: Vec<_> = queries.iter().map(|q| (q, &state.tables)).collect();
    let expected = oracle_fingerprints(&tasks);
    for e in expected.iter().filter_map(|e| e.as_ref().err()) {
        problems.push(e.clone());
    }
    let expected_of = |job: usize| -> Option<u64> {
        let slot = queries
            .iter()
            .position(|q| q.label == list[job].query.label)?;
        expected[slot].as_ref().ok().copied()
    };
    let mut wrong = 0;
    for outputs in &untraced.outputs {
        wrong += count_wrong("medical_warm", outputs, expected_of, &mut problems);
    }

    let mut info = vec![
        ("patients".to_string(), sizes.patients.to_string()),
        ("tenants".to_string(), TENANTS.to_string()),
        ("jobs_per_run".to_string(), list.len().to_string()),
        ("priming_jobs".to_string(), TENANTS.to_string()),
    ];
    info.extend(untraced.info());

    let metrics = if args.trace {
        let replica = Replica::new(
            state.midas.federation(),
            state.midas.placement(),
            state.tables.clone(),
            runtime_config(args.seed),
        );
        let mut untimed = Tracer::off();
        for job in jobs(args.seed, 1) {
            if let Err(e) = replica.job(&mut untimed, 0, &job) {
                problems.push(format!("replay priming: {e}"));
            }
        }
        let mut traced = Traced::new();
        for _ in 0..untraced.outputs.len() {
            for job in &list {
                traced.job(&replica, job, &mut problems);
            }
        }
        let replayed = traced.records.chunks(list.len());
        for (outputs, records) in untraced.outputs.iter().zip(replayed) {
            wrong += count_replay_mismatches(
                "medical_warm",
                outputs,
                records,
                expected_of,
                &mut problems,
            );
        }
        write_trace(&traced.tracer, "medical_warm", &mut problems);
        info.push(shares_info(&traced.tracer, "job"));
        runtime_layers(&traced, &untraced, &cache).into_metrics()
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
    fn one_round_touches_every_modality_and_the_seed_rotates_them() {
        let labels = |seed| -> Vec<String> {
            jobs(seed, 1)
                .iter()
                .map(|j| j.query.label.clone())
                .collect()
        };
        let round = labels(42);
        assert_eq!(round.len(), TENANTS);
        for modality in MODALITIES {
            assert!(round.iter().any(|l| l.contains(&format!("={modality})"))));
        }
        assert_eq!(round, labels(42));
        assert_ne!(round, labels(43));
        assert_eq!(jobs(42, 3)[TENANTS].tenant, "hospital-00");
    }
}
