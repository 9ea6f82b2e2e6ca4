//! IReS-layer integration: enumeration × assembly × cost model coherence.

use midas_cloud::federation::example_federation;
use midas_cloud::Federation;
use midas_engines::{EngineKind, Placement};
use midas_ires::optimizer::{cost_space, moqp_wsm, MoqpOutcome};
use midas_ires::{assemble, moqp_ga, CandidateConfig, EnumerationSpace, PlanCostModel};
use midas_moo::select::Constraints;
use midas_moo::wsm::optimize_scalarized;
use midas_moo::{best_in_pareto, IntBoxProblem, Nsga2, Nsga2Config, WeightedSumModel};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17};
use std::cell::{Cell, RefCell};
use std::collections::HashSet;

fn setup() -> (Federation, Placement, TpchDb) {
    let (fed, a, b) = example_federation();
    let mut placement = Placement::new();
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("customer", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    placement.place("part", b, EngineKind::PostgreSql);
    (fed, placement, TpchDb::generate(GenConfig::new(0.002, 31)))
}

#[test]
fn every_enumerated_config_assembles_for_every_query() {
    let (fed, placement, _) = setup();
    for query in [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 2),
        q17("Brand#11", "SM CASE"),
    ] {
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 3)
            .expect("tables placed");
        for config in space.all() {
            let fq = assemble(&fed, &placement, &query, &config)
                .unwrap_or_else(|e| panic!("{}: {e} for {config:?}", query.label));
            assert_eq!(fq.fragments.len(), 3);
            assert_eq!(fq.fragments[2].site, config.join_site);
            assert_eq!(fq.fragments[2].engine, config.join_engine);
        }
    }
}

#[test]
fn genome_decoding_covers_the_whole_space() {
    let (fed, placement, _) = setup();
    let query = q12("AIR", "FOB", 1996);
    let space = EnumerationSpace::for_query(&fed, &placement, &query, 4).expect("placed");
    let cards = space.cardinalities();
    // Exhaustively decode every genome in the cardinality box and check the
    // set of decoded configs covers all() exactly.
    let mut decoded = std::collections::HashSet::new();
    let mut genome = vec![0usize; cards.len()];
    loop {
        let cfg = space.decode(&genome);
        decoded.insert(format!(
            "{:?}|{:?}|{}|{}",
            cfg.join_site, cfg.join_engine, cfg.instance_idx, cfg.vm_count
        ));
        // Odometer increment.
        let mut k = 0;
        loop {
            genome[k] += 1;
            if genome[k] < cards[k] {
                break;
            }
            genome[k] = 0;
            k += 1;
            if k == cards.len() {
                break;
            }
        }
        if k == cards.len() {
            break;
        }
    }
    let all: std::collections::HashSet<String> = space
        .all()
        .into_iter()
        .map(|cfg| {
            format!(
                "{:?}|{:?}|{}|{}",
                cfg.join_site, cfg.join_engine, cfg.instance_idx, cfg.vm_count
            )
        })
        .collect();
    assert!(decoded.is_superset(&all), "decoding misses configurations");
}

#[test]
fn cost_model_orders_engines_sensibly_on_small_inputs() {
    // On a small input the join cost is dominated by startup: PostgreSQL
    // (0.08 s) must be predicted cheaper in time than Hive (4 s) at the
    // same site/instance/VM count.
    let (fed, placement, db) = setup();
    let query = q14(1995, 7);
    let model = PlanCostModel::build(&placement, &query, db.catalog()).expect("buildable");
    let site = placement.locate("lineitem").expect("placed").site;
    let mk = |engine| CandidateConfig {
        join_site: site,
        join_engine: engine,
        instance_idx: 1,
        vm_count: 2,
    };
    let pg = model.cost(&fed, &mk(EngineKind::PostgreSql));
    let hive = model.cost(&fed, &mk(EngineKind::Hive));
    let spark = model.cost(&fed, &mk(EngineKind::Spark));
    assert!(pg[0] < hive[0], "PostgreSQL {} vs Hive {}", pg[0], hive[0]);
    assert!(spark[0] < hive[0], "Spark {} vs Hive {}", spark[0], hive[0]);
}

#[test]
fn bigger_instances_cost_more_money_per_time_saved() {
    let (fed, placement, db) = setup();
    let query = q12("MAIL", "RAIL", 1995);
    let model = PlanCostModel::build(&placement, &query, db.catalog()).expect("buildable");
    let site = placement.locate("lineitem").expect("placed").site;
    let mk = |idx| CandidateConfig {
        join_site: site,
        join_engine: EngineKind::Spark,
        instance_idx: idx,
        vm_count: 1,
    };
    let small = model.cost(&fed, &mk(0)); // a1.medium
    let large = model.cost(&fed, &mk(4)); // a1.4xlarge
    assert!(large[0] <= small[0], "bigger instance is never slower");
    assert!(large[1] >= small[1] * 0.9, "and is not much cheaper");
}

#[test]
fn prepared_rows_track_query_selectivity() {
    let (fed, placement, db) = setup();
    let narrow = PlanCostModel::build(&placement, &q14(1995, 7), db.catalog()).expect("builds");
    let wide = PlanCostModel::build(&placement, &q17("Brand#11", "SM CASE"), db.catalog())
        .expect("builds");
    // Q14 filters lineitem to one month; Q17 projects all of it.
    assert!(narrow.prepared_rows().0 < wide.prepared_rows().0);
    let _ = fed;
}

#[test]
fn costed_space_keeps_the_front_of_the_definition_in_enumeration_order() {
    // The benchmark's space (`max_vms = 70`: 2 310 candidates), where
    // whole runs of candidates tie on time or on money.
    let (fed, placement, db) = setup();
    for query in [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 2),
        q17("Brand#11", "SM CASE"),
    ] {
        let space = EnumerationSpace::for_query(&fed, &placement, &query, 70).expect("placed");
        let model = PlanCostModel::build(&placement, &query, db.catalog()).expect("buildable");
        let configs = space.all();
        assert_eq!(configs.len(), 2310);
        let costs: Vec<Vec<f64>> = configs.iter().map(|c| model.cost(&fed, c)).collect();
        // The quadratic scan `cost_space` used to run.
        let want: Vec<(CandidateConfig, Vec<f64>)> = (0..costs.len())
            .filter(|&i| {
                !costs
                    .iter()
                    .enumerate()
                    .any(|(j, c)| j != i && midas_moo::dominance::pareto_dominates(c, &costs[i]))
            })
            .map(|i| (configs[i].clone(), costs[i].clone()))
            .collect();
        let costed = cost_space(&space, &model, &fed);
        assert_eq!(costed.evaluations, configs.len(), "{}", query.label);
        assert!(want.len() > 1, "{}: a front worth sweeping", query.label);
        assert_eq!(costed.pareto, want, "{}", query.label);
    }
}

/// `moqp_ga` / `moqp_wsm` as they were before their evaluator kept a
/// table: the same searches over a problem that runs the cost model at
/// every request. Also returns how many of NSGA-II's requests named a
/// genome it had met before.
fn unmemoized(
    space: &EnumerationSpace,
    model: &PlanCostModel,
    fed: &Federation,
    weights: &WeightedSumModel,
    constraints: &Constraints,
    ga: Nsga2Config,
) -> (MoqpOutcome, MoqpOutcome, usize) {
    let seen = RefCell::new(HashSet::new());
    let repeats = Cell::new(0);
    let problem = IntBoxProblem::new(space.cardinalities(), 2, |genome: &[usize]| {
        if !seen.borrow_mut().insert(genome.to_vec()) {
            repeats.set(repeats.get() + 1);
        }
        model.cost(fed, &space.decode(genome))
    });
    let (population, evaluations) = Nsga2::new(&problem, ga).run();
    let nsga2_repeats = repeats.get();
    let pareto: Vec<(CandidateConfig, Vec<f64>)> = population
        .into_iter()
        .filter(|i| i.rank == 0)
        .map(|ind| (space.decode(&ind.genome), ind.costs))
        .collect();
    let costs: Vec<&[f64]> = pareto.iter().map(|(_, c)| c.as_slice()).collect();
    let pick = best_in_pareto(&costs, weights, constraints).expect("front is non-empty");
    let nsga2 = MoqpOutcome {
        chosen: pareto[pick].0.clone(),
        chosen_costs: pareto[pick].1.clone(),
        pareto,
        evaluations,
    };
    let out = optimize_scalarized(&problem, weights.weights(), ga);
    let chosen = space.decode(&out.genome);
    let wsm = MoqpOutcome {
        chosen: chosen.clone(),
        chosen_costs: out.costs.clone(),
        pareto: vec![(chosen, out.costs)],
        evaluations: out.evaluations,
    };
    (nsga2, wsm, nsga2_repeats)
}

fn assert_same_outcome(got: &MoqpOutcome, want: &MoqpOutcome, what: &str) {
    let bits = |c: &[f64]| c.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(got.chosen, want.chosen, "{what}");
    assert_eq!(bits(&got.chosen_costs), bits(&want.chosen_costs), "{what}");
    assert_eq!(got.pareto.len(), want.pareto.len(), "{what}");
    for ((gc, gv), (wc, wv)) in got.pareto.iter().zip(&want.pareto) {
        assert_eq!(gc, wc, "{what}");
        assert_eq!(bits(gv), bits(wv), "{what}");
    }
    assert_eq!(got.evaluations, want.evaluations, "{what}");
}

#[test]
fn memoized_ga_pipelines_equal_a_cost_model_call_per_request() {
    let (fed, placement, db) = setup();
    let policies = [
        ([0.5, 0.5], Constraints::none(2)),
        ([1.0, 0.0], Constraints::none(2)),
        ([0.0, 1.0], Constraints::none(2)),
        ([0.5, 0.5], Constraints::none(2).with_bound(1, 100.0)),
    ];
    let ga = Nsga2Config::default();
    for query in [
        q12("MAIL", "SHIP", 1994),
        q13("special", "requests"),
        q14(1995, 2),
        q17("Brand#11", "SM CASE"),
    ] {
        let model = PlanCostModel::build(&placement, &query, db.catalog()).expect("placed");
        for max_vms in [8, 70] {
            let space =
                EnumerationSpace::for_query(&fed, &placement, &query, max_vms).expect("placed");
            for (w, constraints) in &policies {
                let what = format!("{} max_vms {max_vms} weights {w:?}", query.label);
                let weights = WeightedSumModel::new(w);
                let (nsga2, wsm, repeats) =
                    unmemoized(&space, &model, &fed, &weights, constraints, ga);
                let got = moqp_ga(&space, &model, &fed, &weights, constraints, ga);
                assert_same_outcome(&got, &nsga2, &format!("NSGA-II {what}"));
                let got = moqp_wsm(&space, &model, &fed, &weights, ga);
                assert_same_outcome(&got, &wsm, &format!("WSM {what}"));
                // Most requests name a genome met before: what the table saves.
                let requests = nsga2.evaluations;
                assert!(
                    2 * repeats > requests,
                    "{what}: {repeats} of {requests} repeat"
                );
            }
        }
    }
}
