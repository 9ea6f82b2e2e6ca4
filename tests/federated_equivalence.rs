//! Fragmentation must not change query semantics: executing a two-table
//! query through the federated three-fragment path has to produce exactly
//! the table a single-process execution produces.

use midas_repro::cloud::federation::example_federation;
use midas_repro::engines::ops::execute;
use midas_repro::engines::sim::DriftIntensity;
use midas_repro::engines::{EngineKind, Placement};
use midas_repro::ires::scheduler::{Scheduler, SchedulerConfig};
use midas_repro::ires::CandidateConfig;
use midas_repro::tpch::gen::{GenConfig, TpchDb};
use midas_repro::tpch::queries::{q12, q13, q14, q17, TwoTableQuery};

fn run_locally(
    q: &TwoTableQuery,
    tables: &midas_repro::engines::Catalog,
) -> midas_repro::engines::Table {
    let mut catalog = tables.clone();
    let (left, _) = execute(&q.left_prepare, &catalog).expect("left prepare runs");
    let (right, _) = execute(&q.right_prepare, &catalog).expect("right prepare runs");
    catalog.insert("@frag0".to_string(), left);
    catalog.insert("@frag1".to_string(), right);
    let (out, _) = execute(&q.combine, &catalog).expect("combine runs");
    out
}

#[test]
fn federated_execution_matches_local_execution_for_every_query() {
    let (fed, a, b) = example_federation();
    let mut placement = Placement::new();
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("customer", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    placement.place("part", b, EngineKind::PostgreSql);
    let db = TpchDb::generate(GenConfig::new(0.003, 17));

    let config = CandidateConfig {
        join_site: b,
        join_engine: EngineKind::Spark,
        instance_idx: 1,
        vm_count: 3,
    };

    for query in [
        q12("RAIL", "FOB", 1995),
        q13("pending", "deposits"),
        q14(1996, 4),
        q17("Brand#12", "SM CASE"),
    ] {
        let mut scheduler = Scheduler::new(
            &fed,
            placement.clone(),
            SchedulerConfig {
                seed: 4,
                drift: DriftIntensity::Strong,
                work_scale: 3.0, // must not affect results, only costs
            },
        );
        let run = scheduler
            .execute_with_config(&query, &config, db.catalog())
            .unwrap_or_else(|e| panic!("{} failed: {e}", query.label));
        let local = run_locally(&query, db.catalog());
        assert_eq!(
            *run.outcome.result, local,
            "{}: federated result differs from local",
            query.label
        );
    }
}

#[test]
fn join_site_choice_does_not_change_results() {
    let (fed, a, b) = example_federation();
    let mut placement = Placement::new();
    placement.place("lineitem", a, EngineKind::Hive);
    placement.place("orders", b, EngineKind::PostgreSql);
    let db = TpchDb::generate(GenConfig::new(0.003, 21));
    let query = q12("AIR", "TRUCK", 1996);

    let mut results = Vec::new();
    for (site, engine) in [(a, EngineKind::Hive), (b, EngineKind::PostgreSql), (a, EngineKind::Spark)]
    {
        let mut scheduler = Scheduler::new(
            &fed,
            placement.clone(),
            SchedulerConfig {
                seed: 9,
                drift: DriftIntensity::Mild,
                work_scale: 1.0,
            },
        );
        let config = CandidateConfig {
            join_site: site,
            join_engine: engine,
            instance_idx: 0,
            vm_count: 1,
        };
        let run = scheduler
            .execute_with_config(&query, &config, db.catalog())
            .expect("plan executes");
        results.push(run.outcome.result);
    }
    assert_eq!(results[0], results[1]);
    assert_eq!(results[1], results[2]);
}
