//! The paper queries and the medical queries must produce identical results
//! and identical work profiles under the fused executor and the scalar
//! reference executor, end to end over generated data — and the
//! snapshot-isolation oracle (`TwoTableQuery::standalone_fingerprint`,
//! which the benchmark checks every job against) must read the scalar
//! reference's fingerprint.

use midas_engines::ops::execute_scalar;
use midas_engines::{execute_fused, Catalog, PhysicalPlan};
use midas_tpch::gen::{GenConfig, TpchDb};
use midas_tpch::medical::{generate_medical, medical_query};
use midas_tpch::queries::{q12, q13, q14, q17, TwoTableQuery};

fn paper_queries() -> Vec<(&'static str, TwoTableQuery)> {
    vec![
        ("q12", q12("MAIL", "SHIP", 1994)),
        ("q13", q13("special", "requests")),
        ("q14", q14(1995, 9)),
        ("q17", q17("Brand#23", "MED BOX")),
    ]
}

/// Runs `q` over `catalog` through both executors and the oracle, and
/// asserts tables, profiles and fingerprints agree.
fn assert_fused_matches_scalar(name: &str, q: &TwoTableQuery, catalog: &Catalog) {
    let (out_f, prof_f) = q
        .execute_local(&mut catalog.clone(), |plan, c| execute_fused(plan, c))
        .unwrap_or_else(|e| panic!("{name} fused: {e}"));
    let (out_s, prof_s) = q
        .execute_local(&mut catalog.clone(), execute_scalar)
        .unwrap_or_else(|e| panic!("{name} scalar: {e}"));
    assert_eq!(out_f, out_s, "{name}: result tables differ");
    assert_eq!(prof_f, prof_s, "{name}: work profiles differ");
    assert!(out_s.n_rows() > 0, "{name}: degenerate empty result");
    let oracle = q
        .standalone_fingerprint(catalog)
        .unwrap_or_else(|e| panic!("{name} oracle: {e}"));
    assert_eq!(
        oracle,
        out_s.fingerprint(),
        "{name}: oracle differs from scalar"
    );
}

#[test]
fn fused_matches_scalar_on_paper_queries() {
    let db = TpchDb::generate(GenConfig::new(0.002, 7));
    for (name, q) in paper_queries() {
        assert_fused_matches_scalar(name, &q, db.catalog());
    }
    let medical = generate_medical(300, 0.5, 3);
    for (name, modality) in [("medical CT", Some("CT")), ("medical", None)] {
        assert_fused_matches_scalar(name, &medical_query(modality), &medical);
    }
}

#[test]
fn fragment_catalog_entries_are_reinserted() {
    let db = TpchDb::generate(GenConfig::new(0.001, 3));
    let q = q12("MAIL", "SHIP", 1994);
    let mut cat = db.catalog().clone();
    let fused = |plan: &PhysicalPlan, c: &Catalog| execute_fused(plan, c);
    let (first, _) = q.execute_local(&mut cat, fused).expect("runs");
    assert!(cat.contains("@frag0") && cat.contains("@frag1"));
    // Second run over the same catalog overwrites the fragments and
    // reproduces the result — the benchmark loop relies on this.
    let (second, _) = q.execute_local(&mut cat, fused).expect("runs again");
    assert_eq!(first, second);
}
