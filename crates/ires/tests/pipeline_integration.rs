//! IReS-layer integration: enumeration × assembly × cost model coherence.

use midas_cloud::federation::example_federation;
use midas_cloud::Federation;
use midas_engines::{EngineKind, Placement};
use midas_ires::optimizer::cost_space;
use midas_ires::{assemble, CandidateConfig, EnumerationSpace, PlanCostModel};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::queries::{q12, q13, q14, q17};

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
