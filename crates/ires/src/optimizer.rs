//! The Multi-Objective Optimizer — both pipelines of Figure 3.
//!
//! * **GA pipeline** (right branch): NSGA-II evolves the QEP configuration
//!   space into a Pareto plan set; Algorithm 2 (`best_in_pareto`) then
//!   applies the user's weights and budget. A weight change only re-runs
//!   Algorithm 2 — the Pareto set is reused.
//! * **WSM pipeline** (left branch): a single-objective GA minimizes the
//!   weighted sum directly. Every weight change restarts the whole GA.
//!
//! An exhaustive evaluator provides ground truth for the small spaces used
//! in tests and the Figure 3 experiment, and is what the serving path
//! runs. It is split where the paper splits it: [`cost_space`] is the
//! policy-independent half (cost every candidate, keep the exact Pareto
//! set) and [`select_costed`] is Algorithm 2 over that set. The runtime
//! keeps the [`CostedSpace`] of a query's pressure-free model beside its
//! cached plan, so repeated queries — whatever each tenant's weights and
//! budget — pay only Algorithm 2 ([`CostedSpace::select`], an index into
//! the kept front), exactly the reuse the GA pipeline is built for.

use crate::costmodel::PlanCostModel;
use crate::enumerate::{CandidateConfig, EnumerationSpace};
use midas_cloud::Federation;
use midas_moo::select::Constraints;
use midas_moo::wsm::optimize_scalarized;
use midas_moo::{best_in_pareto, IntBoxProblem, Nsga2, Nsga2Config, WeightedSumModel};
use std::cell::RefCell;

/// What a MOQP run produced.
#[derive(Debug, Clone)]
pub struct MoqpOutcome {
    /// The selected configuration.
    pub chosen: CandidateConfig,
    /// Its expected cost vector `(time, money)`.
    pub chosen_costs: Vec<f64>,
    /// The Pareto set the selection came from (singleton for WSM).
    pub pareto: Vec<(CandidateConfig, Vec<f64>)>,
    /// Objective evaluations the search requested: the size of the space
    /// for the exhaustive evaluator, one per population member met for a
    /// GA — which costs each distinct genome once ([`moqp_ga`]).
    pub evaluations: usize,
}

/// The GA search problem over `space`: genomes range over
/// `space.cardinalities()` and cost as their decoded configuration under
/// `model`. Each distinct genome is costed once and then read back from a
/// dense table indexed by the genome's mixed-radix value — as many slots
/// as the cardinalities' product, at most `sites ×` the space's size. A
/// GA meets the same genome many times (on the benchmark's Q12 space at
/// seed 42, NSGA-II's 3 060 requests name 547 genomes); the model is a pure
/// function of the configuration, so every cost vector is the one a
/// fresh evaluation returns.
fn ga_problem<'a>(
    space: &'a EnumerationSpace,
    model: &'a PlanCostModel,
    federation: &'a Federation,
) -> IntBoxProblem<impl Fn(&[usize]) -> Vec<f64> + 'a> {
    let cardinalities = space.cardinalities();
    let radices = cardinalities.clone();
    let memo = RefCell::new(vec![None; cardinalities.iter().product()]);
    let prepares = model.prepare_costs(federation);
    IntBoxProblem::new(cardinalities, 2, move |genome: &[usize]| {
        let slot = genome
            .iter()
            .zip(&radices)
            .fold(0, |slot, (&g, &radix)| slot * radix + g);
        memo.borrow_mut()[slot]
            .get_or_insert_with(|| model.cost_with(federation, &prepares, &space.decode(genome)))
            .clone()
    })
}

/// GA pipeline: NSGA-II → Pareto set → Algorithm 2.
pub fn moqp_ga(
    space: &EnumerationSpace,
    model: &PlanCostModel,
    federation: &Federation,
    weights: &WeightedSumModel,
    constraints: &Constraints,
    ga: Nsga2Config,
) -> MoqpOutcome {
    let problem = ga_problem(space, model, federation);
    let (population, evaluations) = Nsga2::new(&problem, ga).run();
    let front: Vec<_> = population.into_iter().filter(|i| i.rank == 0).collect();
    let pareto: Vec<(CandidateConfig, Vec<f64>)> = front
        .iter()
        .map(|ind| (space.decode(&ind.genome), ind.costs.clone()))
        .collect();
    let pick = pick(&pareto, weights, constraints).expect("front is non-empty");
    MoqpOutcome {
        chosen: pareto[pick].0.clone(),
        chosen_costs: pareto[pick].1.clone(),
        pareto,
        evaluations,
    }
}

/// Algorithm 2 over `pareto`: the index of the point `weights` and
/// `constraints` select, `None` only when `pareto` is empty.
fn pick(
    pareto: &[(CandidateConfig, Vec<f64>)],
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> Option<usize> {
    let costs: Vec<&[f64]> = pareto.iter().map(|(_, c)| c.as_slice()).collect();
    best_in_pareto(&costs, weights, constraints)
}

/// Re-selection from an existing Pareto set under new weights/constraints —
/// the cheap path the GA pipeline enjoys when the user policy changes.
pub fn reselect(
    pareto: &[(CandidateConfig, Vec<f64>)],
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> Option<(CandidateConfig, Vec<f64>)> {
    pick(pareto, weights, constraints).map(|i| pareto[i].clone())
}

/// WSM pipeline: scalarized GA over the same space.
pub fn moqp_wsm(
    space: &EnumerationSpace,
    model: &PlanCostModel,
    federation: &Federation,
    weights: &WeightedSumModel,
    ga: Nsga2Config,
) -> MoqpOutcome {
    let problem = ga_problem(space, model, federation);
    let out = optimize_scalarized(&problem, weights.weights(), ga);
    let chosen = space.decode(&out.genome);
    MoqpOutcome {
        chosen: chosen.clone(),
        chosen_costs: out.costs.clone(),
        pareto: vec![(chosen, out.costs)],
        evaluations: out.evaluations,
    }
}

/// A configuration space costed under one model: everything the exhaustive
/// evaluator computes before the user policy enters. A pure function of
/// `(space, model, federation)`, so it may be kept for as long as those
/// three are — any number of [`select_costed`] calls then share it.
#[derive(Debug, Clone)]
pub struct CostedSpace {
    /// The exact Pareto set of the space, in enumeration order.
    pub pareto: Vec<(CandidateConfig, Vec<f64>)>,
    /// Cost-model evaluations spent building it (the size of the space).
    pub evaluations: usize,
}

impl CostedSpace {
    /// Algorithm 2 over this space: the index into [`CostedSpace::pareto`]
    /// of the plan `weights` and `constraints` select (`None` only for an
    /// empty space). No cost-model call, and no copy of the front: a
    /// caller that keeps the space reads the choice where it lies.
    pub fn select(&self, weights: &WeightedSumModel, constraints: &Constraints) -> Option<usize> {
        pick(&self.pareto, weights, constraints)
    }
}

/// The policy-independent half of [`moqp_exhaustive`]: costs every
/// configuration of `space` under `model` — the prepares' terms once — and
/// keeps the exact Pareto set.
pub fn cost_space(
    space: &EnumerationSpace,
    model: &PlanCostModel,
    federation: &Federation,
) -> CostedSpace {
    let configs = space.all();
    let prepares = model.prepare_costs(federation);
    let costs: Vec<Vec<f64>> = configs
        .iter()
        .map(|c| model.cost_with(federation, &prepares, c))
        .collect();
    let pareto = midas_moo::pareto_front_indices(&costs)
        .into_iter()
        .map(|i| (configs[i].clone(), costs[i].clone()))
        .collect();
    CostedSpace {
        pareto,
        evaluations: configs.len(),
    }
}

/// Algorithm 2 over an already costed space: the plan `weights` and
/// `constraints` select from its Pareto set, as an outcome that owns a copy
/// of the front. No cost-model call. Cloning the front is for callers that
/// keep the outcome (the experiments, a replay); one that keeps `costed`
/// itself reads the choice by [`CostedSpace::select`], as the runtime does
/// on a plan-cache hit.
pub fn select_costed(
    costed: &CostedSpace,
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> MoqpOutcome {
    let pick = costed.select(weights, constraints).expect("non-empty space");
    let (chosen, chosen_costs) = costed.pareto[pick].clone();
    MoqpOutcome {
        chosen,
        chosen_costs,
        pareto: costed.pareto.clone(),
        evaluations: costed.evaluations,
    }
}

/// Exhaustive ground truth: evaluates the whole space, exact Pareto set,
/// Algorithm 2 selection — [`cost_space`] then [`select_costed`].
pub fn moqp_exhaustive(
    space: &EnumerationSpace,
    model: &PlanCostModel,
    federation: &Federation,
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> MoqpOutcome {
    select_costed(&cost_space(space, model, federation), weights, constraints)
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cloud::federation::example_federation;
    use midas_engines::{EngineKind, Placement};
    use midas_tpch::gen::{GenConfig, TpchDb};
    use midas_tpch::queries::q14;

    struct Fixture {
        fed: Federation,
        space: EnumerationSpace,
        model: PlanCostModel,
    }

    fn fixture() -> Fixture {
        let (fed, a, b) = example_federation();
        let mut placement = Placement::new();
        placement.place("lineitem", a, EngineKind::Hive);
        placement.place("part", b, EngineKind::PostgreSql);
        let query = q14(1995, 6);
        let db = TpchDb::generate(GenConfig::new(0.002, 5));
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 6).unwrap();
        let model = PlanCostModel::build(&placement, &query, db.catalog()).unwrap();
        Fixture { fed, space, model }
    }

    fn ga_config() -> Nsga2Config {
        Nsga2Config {
            population: 40,
            generations: 30,
            seed: 3,
            ..Nsga2Config::default()
        }
    }

    #[test]
    fn ga_pipeline_approaches_exhaustive_truth() {
        let f = fixture();
        let weights = WeightedSumModel::new(&[0.5, 0.5]);
        let none = Constraints::none(2);
        let truth = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights, &none);
        let ga = moqp_ga(&f.space, &f.model, &f.fed, &weights, &none, ga_config());
        // The GA pick should be within 25% of the exhaustive optimum on the
        // weighted-sum scale (small space, generous budget).
        let score = |c: &[f64]| weights.scores(&[c.to_vec(), truth.chosen_costs.clone()])[0];
        assert!(
            score(&ga.chosen_costs) <= score(&truth.chosen_costs) + 0.25,
            "GA {:?} vs truth {:?}",
            ga.chosen_costs,
            truth.chosen_costs
        );
        assert!(!ga.pareto.is_empty());
    }

    #[test]
    fn wsm_pipeline_finds_a_reasonable_plan() {
        let f = fixture();
        let weights = WeightedSumModel::new(&[0.8, 0.2]);
        let wsm = moqp_wsm(&f.space, &f.model, &f.fed, &weights, ga_config());
        let truth = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights, &Constraints::none(2));
        // Raw weighted comparison: WSM result within 2x of optimum time.
        assert!(wsm.chosen_costs[0] <= truth.chosen_costs[0] * 2.0 + 5.0);
        assert_eq!(wsm.pareto.len(), 1);
        assert!(wsm.evaluations > 0);
    }

    #[test]
    fn reselect_reuses_the_front_without_evaluations() {
        let f = fixture();
        let weights_time = WeightedSumModel::new(&[1.0, 0.0]);
        let weights_money = WeightedSumModel::new(&[0.0, 1.0]);
        let none = Constraints::none(2);
        let truth = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights_time, &none);
        // Re-picking under money-weights touches zero cost-model calls.
        let (cfg_money, costs_money) = reselect(&truth.pareto, &weights_money, &none).unwrap();
        let (cfg_time, costs_time) = reselect(&truth.pareto, &weights_time, &none).unwrap();
        assert!(costs_money[1] <= costs_time[1]);
        assert!(costs_time[0] <= costs_money[0]);
        // Different preferences generally pick different plans.
        if truth.pareto.len() > 1 {
            assert!(cfg_money != cfg_time || costs_money == costs_time);
        }
    }

    #[test]
    fn one_costed_space_serves_every_policy_like_a_fresh_exhaustive_run() {
        let f = fixture();
        // Costed once, before any policy is known.
        let costed = cost_space(&f.space, &f.model, &f.fed);
        assert_eq!(costed.evaluations, f.space.len());
        let none = Constraints::none(2);
        // A money cap that binds: below what the time-optimal plan costs.
        let fastest =
            select_costed(&costed, &WeightedSumModel::new(&[1.0, 0.0]), &none);
        let binding = Constraints::none(2).with_bound(1, fastest.chosen_costs[1] * 0.9);
        // The benchmark's four tenant policies, then the cap.
        let policies = [
            ([0.5, 0.5], none.clone()),
            ([1.0, 0.0], none.clone()),
            ([0.0, 1.0], none.clone()),
            ([0.5, 0.5], Constraints::none(2).with_bound(1, 100.0)),
            ([1.0, 0.0], binding.clone()),
        ];
        for (w, constraints) in &policies {
            let weights = WeightedSumModel::new(w);
            let reused = select_costed(&costed, &weights, constraints);
            let fresh = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights, constraints);
            assert_eq!(reused.chosen, fresh.chosen, "{w:?}");
            assert_eq!(reused.chosen_costs, fresh.chosen_costs, "{w:?}");
            assert_eq!(reused.pareto, fresh.pareto, "{w:?}");
            assert_eq!(reused.evaluations, fresh.evaluations, "{w:?}");
            let (cfg, costs) = reselect(&costed.pareto, &weights, constraints).unwrap();
            let pick = costed.select(&weights, constraints).unwrap();
            assert_eq!(costed.pareto[pick], (cfg.clone(), costs.clone()), "{w:?}");
            assert_eq!((cfg, costs), (reused.chosen, reused.chosen_costs), "{w:?}");
        }
        // The cap moved the time-first choice whenever the front offers a
        // cheaper plan.
        let capped = select_costed(&costed, &WeightedSumModel::new(&[1.0, 0.0]), &binding);
        if costed.pareto.iter().any(|(_, c)| binding.satisfied_by(c)) {
            assert_ne!(capped.chosen, fastest.chosen);
            assert!(binding.satisfied_by(&capped.chosen_costs));
        }
    }

    #[test]
    fn constraints_flow_through_algorithm2() {
        let f = fixture();
        let weights = WeightedSumModel::new(&[1.0, 0.0]);
        let none = Constraints::none(2);
        let truth = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights, &none);
        // Cap money below the time-optimal plan's cost: selection must move
        // to a cheaper plan if one exists on the front.
        let cap = truth.chosen_costs[1] * 0.9;
        let constrained = Constraints::none(2).with_bound(1, cap);
        let picked = moqp_exhaustive(&f.space, &f.model, &f.fed, &weights, &constrained);
        let any_feasible = truth.pareto.iter().any(|(_, c)| c[1] <= cap);
        if any_feasible {
            assert!(picked.chosen_costs[1] <= cap + 1e-9);
        }
    }

    #[test]
    fn exhaustive_front_is_mutually_non_dominated() {
        let f = fixture();
        let truth = moqp_exhaustive(
            &f.space,
            &f.model,
            &f.fed,
            &WeightedSumModel::new(&[0.5, 0.5]),
            &Constraints::none(2),
        );
        for (_, a) in &truth.pareto {
            for (_, b) in &truth.pareto {
                assert!(!midas_moo::dominance::pareto_dominates(a, b));
            }
        }
    }
}
