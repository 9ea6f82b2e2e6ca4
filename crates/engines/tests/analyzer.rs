//! Directed and property tests for the pre-execution plan analyzer.
//!
//! The directed tests pin one diagnostic kind each — the exact kind,
//! severity, and node path the analyzer must report for a canonical
//! malformed plan. The property tests pin the two halves of the
//! soundness contract documented in `engines::analyze`:
//!
//! * **Soundness** — if the analyzer accepts a plan (no `Error`-severity
//!   diagnostic), then no executor path may fail with a schema-class
//!   error (`UnknownTable` / `UnknownColumn` / `ColumnIndex` /
//!   `TypeMismatch` / `RaggedTable`). Checked across the scalar and
//!   fused executors on randomized plans over randomized tables. Plans avoid division and
//!   unbounded floats because `DivisionByZero`/NaN behavior is
//!   data-dependent — the analyzer only flags *constant*-zero divisors.
//! * **Completeness (for guaranteed defects)** — for defect classes the
//!   executor reports unconditionally (ghost scan table, join key arity,
//!   out-of-bounds sort key, out-of-bounds group key, out-of-bounds
//!   filter column on a non-empty input), injecting the defect into a
//!   valid plan makes the analyzer reject with the predicted kind AND
//!   every executor path fail with the matching `EngineError`.

use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::exec::{FederatedQuery, Fragment};
use midas_engines::fused::execute_fused;
use midas_engines::ops::execute_scalar;
use midas_engines::{
    analyze_federated, analyze_fragment_plans, analyze_plan, AggExpr, Catalog, DiagnosticKind,
    EngineError, EngineKind, Expr, JoinType, PhysicalPlan, SchemaCatalog, Severity,
};
use midas_cloud::federation::example_federation;
use midas_cloud::SiteId;
use proptest::prelude::*;

/// `t`: Int64 `a`, Float64 `b`, Utf8 `c`, Bool `d`.
fn table_t(rows: &[(i64, i64, usize, u8)]) -> Table {
    let strings = ["CT", "MR", "US"];
    Table::new(
        "t",
        vec![
            Column::new("a", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
            Column::new(
                "b",
                // Halves of small ints: exact in f64, never NaN/inf.
                ColumnData::Float64(rows.iter().map(|r| r.1 as f64 / 2.0).collect()),
            ),
            Column::new(
                "c",
                ColumnData::Utf8(rows.iter().map(|r| strings[r.2 % 3].to_string()).collect()),
            ),
            Column::new("d", ColumnData::Bool(rows.iter().map(|r| r.3 == 1).collect())),
        ],
    )
    .expect("aligned columns")
}

/// `u`: Int64 `k`, Int64 `v`.
fn table_u(rows: &[(i64, i64)]) -> Table {
    Table::new(
        "u",
        vec![
            Column::new("k", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
            Column::new("v", ColumnData::Int64(rows.iter().map(|r| r.1).collect())),
        ],
    )
    .expect("aligned columns")
}

fn fixture() -> (Catalog, SchemaCatalog) {
    let mut cat = Catalog::new();
    cat.insert("t", table_t(&[(1, 2, 0, 1), (3, -4, 1, 0), (5, 6, 2, 1)]));
    cat.insert("u", table_u(&[(1, 10), (3, 30)]));
    let schemas = SchemaCatalog::from_catalog(&cat);
    (cat, schemas)
}

fn scan(name: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: name.to_string(),
    })
}

fn kinds(analysis: &midas_engines::PlanAnalysis) -> Vec<DiagnosticKind> {
    analysis.diagnostics.iter().map(|d| d.kind).collect()
}

// ---------------------------------------------------------------- directed

#[test]
fn unknown_table_is_an_error() {
    let (_, schemas) = fixture();
    let a = analyze_plan(&scan("ghost"), &schemas);
    assert!(!a.is_valid());
    assert_eq!(kinds(&a), vec![DiagnosticKind::UnknownTable]);
    assert_eq!(a.diagnostics[0].severity, Severity::Error);
    assert!(a.diagnostics[0].message.contains("ghost"));
}

#[test]
fn malformed_fragment_ref_is_an_error() {
    let (_, schemas) = fixture();
    let plans = [PhysicalPlan::Scan {
        table: "@fragX".to_string(),
    }];
    let refs: Vec<&PhysicalPlan> = plans.iter().collect();
    let analyses = analyze_fragment_plans(&refs, &schemas);
    assert_eq!(kinds(&analyses[0]), vec![DiagnosticKind::MalformedFragmentRef]);
}

#[test]
fn forward_fragment_ref_is_an_error() {
    let (_, schemas) = fixture();
    let plans = [
        PhysicalPlan::Scan {
            table: "@frag1".to_string(),
        },
        PhysicalPlan::Scan {
            table: "t".to_string(),
        },
    ];
    let refs: Vec<&PhysicalPlan> = plans.iter().collect();
    let analyses = analyze_fragment_plans(&refs, &schemas);
    assert_eq!(kinds(&analyses[0]), vec![DiagnosticKind::ForwardFragmentRef]);
    assert!(analyses[1].is_valid());
}

#[test]
fn column_out_of_bounds_carries_the_node_path() {
    let (_, schemas) = fixture();
    let plan = PhysicalPlan::Project {
        input: scan("t"),
        exprs: vec![("x".to_string(), Expr::col(9))],
    };
    let a = analyze_plan(&plan, &schemas);
    assert_eq!(kinds(&a), vec![DiagnosticKind::ColumnOutOfBounds]);
    assert!(
        a.diagnostics[0].path.contains("Project"),
        "path was {:?}",
        a.diagnostics[0].path
    );
}

#[test]
fn type_mismatch_flavors_are_errors() {
    let (_, schemas) = fixture();
    // Comparing Int64 against Utf8; arithmetic on Utf8; AND over Int64;
    // a non-boolean filter predicate.
    let cases = vec![
        Expr::col(0).eq(Expr::str("AIR")),
        Expr::col(2).add(Expr::int(1)).eq(Expr::int(0)),
        Expr::col(0).and(Expr::col(3)).eq(Expr::col(3)),
    ];
    for pred in cases {
        let plan = PhysicalPlan::Filter {
            input: scan("t"),
            predicate: pred,
        };
        let a = analyze_plan(&plan, &schemas);
        assert!(kinds(&a).contains(&DiagnosticKind::TypeMismatch), "{:?}", a.diagnostics);
    }
    let non_bool = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::col(0),
    };
    let a = analyze_plan(&non_bool, &schemas);
    assert!(kinds(&a).contains(&DiagnosticKind::TypeMismatch));
}

#[test]
fn join_key_arity_is_an_error() {
    let (_, schemas) = fixture();
    let plan = PhysicalPlan::HashJoin {
        left: scan("t"),
        right: scan("u"),
        left_keys: vec![0, 1],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    let a = analyze_plan(&plan, &schemas);
    assert_eq!(kinds(&a), vec![DiagnosticKind::JoinKeyArity]);
}

#[test]
fn join_key_family_mismatch_is_a_warning() {
    let (_, schemas) = fixture();
    // t.c (Utf8) against u.k (Int64): legal but silently empty.
    let plan = PhysicalPlan::HashJoin {
        left: scan("t"),
        right: scan("u"),
        left_keys: vec![2],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    let a = analyze_plan(&plan, &schemas);
    assert!(a.is_valid(), "warnings must not invalidate: {:?}", a.diagnostics);
    assert_eq!(kinds(&a), vec![DiagnosticKind::JoinKeyTypeMismatch]);
    // The join output schema is left ++ right.
    assert_eq!(a.schema.as_ref().map(|s| s.width()), Some(6));
}

#[test]
fn division_by_constant_zero_is_an_error() {
    let (_, schemas) = fixture();
    let plan = PhysicalPlan::Project {
        input: scan("t"),
        exprs: vec![("x".to_string(), Expr::col(0).div(Expr::int(0)))],
    };
    let a = analyze_plan(&plan, &schemas);
    assert_eq!(kinds(&a), vec![DiagnosticKind::DivisionByConstantZero]);
}

#[test]
fn always_false_predicates_are_warnings() {
    let (_, schemas) = fixture();
    let contradiction = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::col(0).gt(Expr::int(5)).and(Expr::col(0).lt(Expr::int(3))),
    };
    let folded = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::int(1).eq(Expr::int(2)),
    };
    for plan in [contradiction, folded] {
        let a = analyze_plan(&plan, &schemas);
        assert!(a.is_valid(), "{:?}", a.diagnostics);
        assert_eq!(kinds(&a), vec![DiagnosticKind::AlwaysFalsePredicate]);
    }
}

#[test]
fn aggregate_over_text_is_a_warning() {
    let (_, schemas) = fixture();
    let plan = PhysicalPlan::Aggregate {
        input: scan("t"),
        group_by: vec![],
        aggs: vec![("s".to_string(), AggExpr::Sum(Expr::col(2)))],
    };
    let a = analyze_plan(&plan, &schemas);
    assert!(a.is_valid());
    assert_eq!(kinds(&a), vec![DiagnosticKind::AggregateNonNumeric]);
}

#[test]
fn federated_site_and_instance_are_validated() {
    let (_, schemas) = fixture();
    let (federation, site_a, _) = example_federation();
    let frag = |site: SiteId, instance: &str| Fragment {
        plan: PhysicalPlan::Scan {
            table: "t".to_string(),
        },
        site,
        engine: EngineKind::Hive,
        instance: instance.to_string(),
        vm_count: 1,
    };

    let bad_site = FederatedQuery {
        fragments: vec![frag(SiteId(99), "a1.medium")],
    };
    let a = analyze_federated(&bad_site, &schemas, &federation);
    assert!(!a.is_valid());
    assert!(a.errors().iter().any(|d| d.kind == DiagnosticKind::UnknownSite));

    let bad_instance = FederatedQuery {
        fragments: vec![frag(site_a, "z9.mega")],
    };
    let a = analyze_federated(&bad_instance, &schemas, &federation);
    assert!(!a.is_valid());
    assert!(a.errors().iter().any(|d| d.kind == DiagnosticKind::UnknownInstance));

    let good = FederatedQuery {
        fragments: vec![frag(site_a, "a1.medium")],
    };
    assert!(analyze_federated(&good, &schemas, &federation).is_valid());
}

#[test]
fn inferred_schema_tracks_the_executor_output() {
    let (cat, schemas) = fixture();
    let plan = PhysicalPlan::Aggregate {
        input: scan("t"),
        group_by: vec![2],
        aggs: vec![
            ("n".to_string(), AggExpr::Count),
            ("total".to_string(), AggExpr::Sum(Expr::col(0))),
        ],
    };
    let a = analyze_plan(&plan, &schemas);
    assert!(a.is_valid());
    let schema = a.schema.expect("derivable");
    let (out, _) = execute_fused(&plan, &cat).unwrap();
    assert_eq!(schema.width(), out.n_columns());
    for (i, (name, _)) in schema.columns.iter().enumerate() {
        assert_eq!(name, &out.columns()[i].name);
    }
}

// ---------------------------------------------------------------- property

/// One op in the random plan tape; indices intentionally range past the
/// base table's width so the generator produces both valid and invalid
/// plans.
type TapeOp = (u8, usize, usize, u8);

fn literal(sel: usize) -> Expr {
    match sel % 3 {
        0 => Expr::int(7),
        1 => Expr::float(1.5),
        _ => Expr::str("MR"),
    }
}

fn predicate(x: usize, y: usize, ordered: u8) -> Expr {
    let lhs = Expr::col(x);
    let lit = literal(y);
    // Ordering comparisons only against numeric literals; equality for
    // the rest. Keeps the generator off data-dependent edge cases while
    // still mixing families (the analyzer's TypeMismatch territory).
    if ordered == 1 && y % 3 < 2 {
        lhs.lt(lit)
    } else {
        lhs.eq(lit)
    }
}

/// Deterministically grows a plan from the tape. No Div, no unbounded
/// floats: every runtime type/bounds error this can produce is one the
/// analyzer claims to catch statically.
fn tape_plan(tape: &[TapeOp], ghost: bool) -> PhysicalPlan {
    let mut plan = PhysicalPlan::Scan {
        table: if ghost { "ghost" } else { "t" }.to_string(),
    };
    for &(op, x, y, flag) in tape {
        plan = match op % 4 {
            0 => PhysicalPlan::Filter {
                input: Box::new(plan),
                predicate: predicate(x, y, flag),
            },
            1 => PhysicalPlan::Project {
                input: Box::new(plan),
                exprs: vec![
                    ("p0".to_string(), Expr::col(x)),
                    (
                        "p1".to_string(),
                        if flag == 1 {
                            Expr::col(y).add(Expr::int(1))
                        } else {
                            Expr::col(y)
                        },
                    ),
                ],
            },
            2 => PhysicalPlan::Aggregate {
                input: Box::new(plan),
                group_by: vec![x],
                aggs: vec![
                    ("n".to_string(), AggExpr::Count),
                    ("s".to_string(), AggExpr::Sum(Expr::col(y))),
                ],
            },
            _ => PhysicalPlan::Sort {
                input: Box::new(plan),
                by: vec![(x, flag == 1)],
            },
        };
    }
    plan
}

/// The [`EngineError`] kinds the analyzer's soundness guarantee covers:
/// errors an analyzer-accepted plan can never produce.
fn is_schema_error(e: &EngineError) -> bool {
    matches!(
        e,
        EngineError::UnknownColumn(_)
            | EngineError::UnknownTable(_)
            | EngineError::TypeMismatch { .. }
            | EngineError::ColumnIndex { .. }
            | EngineError::RaggedTable { .. }
    )
}

fn all_paths(plan: &PhysicalPlan, cat: &Catalog) -> Vec<Result<Table, EngineError>> {
    vec![
        execute_scalar(plan, cat).map(|(t, _)| t),
        execute_fused(plan, cat).map(|(t, _)| t),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Soundness: analyzer acceptance means no executor path returns a
    /// schema-class error, and the inferred schema matches the actual
    /// output's width and column names.
    #[test]
    fn accepted_plans_never_hit_schema_errors(
        rows in proptest::collection::vec(
            (-20i64..20, -20i64..20, 0usize..3, 0u8..2), 0..25),
        tape in proptest::collection::vec(
            (0u8..5, 0usize..6, 0usize..6, 0u8..2), 0..4),
    ) {
        let mut cat = Catalog::new();
        cat.insert("t", table_t(&rows));
        let schemas = SchemaCatalog::from_catalog(&cat);
        let plan = tape_plan(&tape, false);
        let analysis = analyze_plan(&plan, &schemas);
        if analysis.is_valid() {
            for result in all_paths(&plan, &cat) {
                match result {
                    Ok(out) => {
                        if let Some(schema) = &analysis.schema {
                            prop_assert_eq!(schema.width(), out.n_columns());
                            for (i, (name, _)) in schema.columns.iter().enumerate() {
                                prop_assert_eq!(name, &out.columns()[i].name);
                            }
                        }
                    }
                    Err(e) => prop_assert!(
                        !is_schema_error(&e),
                        "analyzer accepted a plan the executor rejected with {e}: {plan:?}"
                    ),
                }
            }
        }
    }

    /// Completeness for guaranteed defects: injecting a defect the
    /// executor reports unconditionally makes the analyzer reject with
    /// the predicted kind AND every path fail with the matching error.
    #[test]
    fn guaranteed_defects_are_rejected_with_matching_kinds(
        rows in proptest::collection::vec(
            (-20i64..20, -20i64..20, 0usize..3, 0u8..2), 1..25),
        tape in proptest::collection::vec(
            (0u8..2, 0usize..4, 0usize..4, 0u8..2), 0..3),
        injector in 0u8..5,
    ) {
        let mut cat = Catalog::new();
        cat.insert("t", table_t(&rows));
        cat.insert("u", table_u(&[(1, 10), (2, 20)]));
        let schemas = SchemaCatalog::from_catalog(&cat);

        // Valid base: Filter (column self-equality) and Sort over the
        // fixed width-4 schema — row-preserving, always well-typed.
        let mut plan = PhysicalPlan::Scan { table: "t".to_string() };
        for &(op, x, _, flag) in &tape {
            plan = match op % 2 {
                0 => PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: Expr::col(x).eq(Expr::col(x)),
                },
                _ => PhysicalPlan::Sort {
                    input: Box::new(plan),
                    by: vec![(x, flag == 1)],
                },
            };
        }

        let (plan, predicted) = match injector {
            0 => (tape_plan(&[], true), DiagnosticKind::UnknownTable),
            1 => (
                PhysicalPlan::HashJoin {
                    left: Box::new(plan),
                    right: Box::new(PhysicalPlan::Scan { table: "u".to_string() }),
                    left_keys: vec![0, 1],
                    right_keys: vec![0],
                    join_type: JoinType::Inner,
                },
                DiagnosticKind::JoinKeyArity,
            ),
            2 => (
                PhysicalPlan::Sort { input: Box::new(plan), by: vec![(99, false)] },
                DiagnosticKind::ColumnOutOfBounds,
            ),
            3 => (
                PhysicalPlan::Aggregate {
                    input: Box::new(plan),
                    group_by: vec![99],
                    aggs: vec![("n".to_string(), AggExpr::Count)],
                },
                DiagnosticKind::ColumnOutOfBounds,
            ),
            _ => (
                PhysicalPlan::Filter {
                    input: Box::new(plan),
                    predicate: Expr::col(99).eq(Expr::int(0)),
                },
                DiagnosticKind::ColumnOutOfBounds,
            ),
        };

        let analysis = analyze_plan(&plan, &schemas);
        prop_assert!(!analysis.is_valid());
        prop_assert!(
            analysis.errors().any(|d| d.kind == predicted),
            "expected {predicted:?} in {:?}",
            analysis.diagnostics
        );
        for result in all_paths(&plan, &cat) {
            match result {
                Ok(_) => prop_assert!(false, "executor accepted an injected defect: {plan:?}"),
                Err(e) => {
                    let matches = match predicted {
                        DiagnosticKind::UnknownTable =>
                            matches!(e, EngineError::UnknownTable(_)),
                        DiagnosticKind::JoinKeyArity =>
                            matches!(e, EngineError::TypeMismatch { .. }),
                        _ => matches!(e, EngineError::ColumnIndex { .. }),
                    };
                    prop_assert!(matches, "predicted {predicted:?}, executor said {e}");
                }
            }
        }
    }
}
