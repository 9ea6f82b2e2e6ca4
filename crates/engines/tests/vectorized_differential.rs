//! Differential property tests: the vectorized executor (`execute`) must
//! agree with the reference scalar executor (`execute_scalar`) on random
//! tables — including NULLs in data, keys and predicates — producing
//! identical result tables *and* identical `WorkProfile`s.

use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::Catalog;
use midas_engines::expr::Expr;
use midas_engines::ops::{execute, execute_scalar, AggExpr, JoinType, PhysicalPlan, WorkProfile};
use proptest::prelude::*;

const WORDS: [&str; 5] = ["alpha", "beta", "gamma", "delta", ""];

/// One generated row: (int, int_null, float, word_idx, word_null, date,
/// bool, bool_null). A "null" flag of 0 marks the value NULL.
type Row = (
    (i64, i64, f64),
    (usize, i64, i64),
    (i64, i64),
);

fn rows_strategy(max: usize) -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec(
        (
            (-20i64..20, 0i64..5, -10.0..10.0f64),
            (0usize..5, 0i64..5, -100i64..100),
            (0i64..2, 0i64..5),
        ),
        0..max,
    )
}

/// Builds the five-column test table: a Int64 (nullable), b Float64,
/// s Utf8 (nullable), d Date, c Bool (nullable).
fn table_of(name: &str, rows: &[Row]) -> Table {
    let a_data: Vec<i64> = rows.iter().map(|r| r.0 .0).collect();
    let a_valid: Vec<bool> = rows.iter().map(|r| r.0 .1 != 0).collect();
    let b_data: Vec<f64> = rows.iter().map(|r| r.0 .2).collect();
    let s_data: Vec<String> = rows.iter().map(|r| WORDS[r.1 .0].to_string()).collect();
    let s_valid: Vec<bool> = rows.iter().map(|r| r.1 .1 != 0).collect();
    let d_data: Vec<i32> = rows.iter().map(|r| r.1 .2 as i32).collect();
    let c_data: Vec<bool> = rows.iter().map(|r| r.2 .0 != 0).collect();
    let c_valid: Vec<bool> = rows.iter().map(|r| r.2 .1 != 0).collect();
    Table::new(
        name,
        vec![
            Column::with_validity("a", ColumnData::Int64(a_data), a_valid),
            Column::new("b", ColumnData::Float64(b_data)),
            Column::with_validity("s", ColumnData::Utf8(s_data), s_valid),
            Column::new("d", ColumnData::Date(d_data)),
            Column::with_validity("c", ColumnData::Bool(c_data), c_valid),
        ],
    )
    .expect("aligned")
}

/// A predicate over the test table assembled from generated knobs; rich
/// enough to cover comparisons, IN lists, CONTAINS, arithmetic, IS NULL
/// and three-valued AND/OR/NOT.
fn pred_of(t1: i64, f1: f64, w: usize, d1: i64, bits: i64) -> Expr {
    let num = match bits % 3 {
        0 => Expr::col(0).ge(Expr::int(t1)),
        1 => Expr::col(0).add(Expr::col(1)).lt(Expr::float(f1)),
        _ => Expr::col(0).mul(Expr::int(2)).ne(Expr::col(3)),
    };
    let strp = match (bits / 3) % 3 {
        0 => Expr::col(2).eq(Expr::str(WORDS[w])),
        1 => Expr::col(2).in_list(vec![
            Value::Utf8(WORDS[w].to_string()),
            Value::Utf8("beta".to_string()),
        ]),
        _ => Expr::col(2).contains("a"),
    };
    let datep = Expr::col(3).ge(Expr::date(d1 as i32));
    let boolp = match (bits / 9) % 3 {
        0 => Expr::col(4).eq(Expr::Lit(Value::Bool(true))),
        1 => Expr::col(4).is_null(),
        _ => Expr::col(0).is_null().negate(),
    };
    let lhs = if (bits / 27) % 2 == 0 {
        num.and(strp)
    } else {
        num.or(strp.negate())
    };
    let rhs = if (bits / 54) % 2 == 0 {
        datep.or(boolp)
    } else {
        datep.and(boolp)
    };
    if (bits / 108) % 2 == 0 {
        lhs.and(rhs)
    } else {
        lhs.or(rhs)
    }
}

fn scan(t: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: t.to_string(),
    })
}

type Executed = (Table, WorkProfile);

/// Runs both executors and asserts tables and profiles match.
fn both(
    plan: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<(Executed, Executed), proptest::test_runner::TestCaseError> {
    let vec_out = execute(plan, catalog);
    let sca_out = execute_scalar(plan, catalog);
    prop_assert_eq!(
        vec_out.is_ok(),
        sca_out.is_ok(),
        "error disagreement: vectorized {:?} vs scalar {:?}",
        vec_out.as_ref().err(),
        sca_out.as_ref().err()
    );
    let v = vec_out.expect("both agree");
    let s = sca_out.expect("both agree");
    prop_assert_eq!(&v.0, &s.0, "result tables differ");
    prop_assert_eq!(&v.1, &s.1, "work profiles differ");
    Ok((v, s))
}

/// Regression: over zero selected rows the scalar path never evaluates
/// anything, so a constant division by zero in the predicate must not
/// error on the vectorized path either.
#[test]
fn constant_division_by_zero_over_empty_input_matches_scalar() {
    let mut catalog = Catalog::new();
    catalog.insert("t".to_string(), table_of("t", &[]));
    let plan = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::int(1).div(Expr::int(0)).gt(Expr::int(5)),
    };
    let v = execute(&plan, &catalog);
    let s = execute_scalar(&plan, &catalog);
    assert_eq!(v.is_ok(), s.is_ok(), "{v:?} vs {s:?}");
    let (vt, vp) = v.unwrap();
    let (st, sp) = s.unwrap();
    assert_eq!(vt, st);
    assert_eq!(vp, sp);
    // On a non-empty input both paths must raise the error.
    catalog.insert(
        "t".to_string(),
        table_of("t", &[((1, 1, 0.5), (0, 1, 0), (0, 1))]),
    );
    let plan = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::int(1).div(Expr::int(0)).gt(Expr::int(5)),
    };
    assert!(execute(&plan, &catalog).is_err());
    assert!(execute_scalar(&plan, &catalog).is_err());
}

/// Regression: Int64 literals beyond 2^53 must project exactly, not
/// through the batch evaluator's f64-widened constants.
#[test]
fn huge_int_literal_projects_exactly() {
    let big = (1i64 << 53) + 1; // not representable in f64
    let mut catalog = Catalog::new();
    catalog.insert(
        "t".to_string(),
        table_of("t", &[((1, 1, 0.5), (0, 1, 0), (0, 1))]),
    );
    let plan = PhysicalPlan::Project {
        input: scan("t"),
        exprs: vec![("k".to_string(), Expr::int(big))],
    };
    let (v, _) = execute(&plan, &catalog).expect("runs");
    let (s, _) = execute_scalar(&plan, &catalog).expect("runs");
    assert_eq!(v, s);
    assert_eq!(v.row(0)[0], Value::Int64(big));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Filter and PrunedScan agree with the scalar path on random
    /// predicates over random NULL-bearing tables, bit-for-bit including
    /// the work profile.
    #[test]
    fn filter_and_pruned_scan_differential(
        rows in rows_strategy(40),
        t1 in -20i64..20,
        f1 in -10.0..10.0f64,
        w in 0usize..5,
        d1 in -100i64..100,
        bits in 0i64..216,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let pred = pred_of(t1, f1, w, d1, bits);
        both(
            &PhysicalPlan::Filter { input: scan("t"), predicate: pred.clone() },
            &catalog,
        )?;
        both(
            &PhysicalPlan::PrunedScan { table: "t".to_string(), predicate: pred },
            &catalog,
        )?;
    }

    /// Projection of direct columns, string columns and arithmetic —
    /// including NULL propagation into typed output columns.
    #[test]
    fn projection_differential(
        rows in rows_strategy(40),
        k in -5i64..5,
        t1 in -20i64..20,
        bits in 0i64..216,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: scan("t"),
                predicate: pred_of(t1, 0.5, 1, -50, bits),
            }),
            exprs: vec![
                ("a".to_string(), Expr::col(0)),
                ("s".to_string(), Expr::col(2)),
                ("c".to_string(), Expr::col(4)),
                ("sum_ab".to_string(), Expr::col(0).add(Expr::col(1))),
                ("scaled".to_string(), Expr::col(0).mul(Expr::int(k))),
                ("shifted_d".to_string(), Expr::col(3).sub(Expr::int(t1))),
                ("a_null".to_string(), Expr::col(0).is_null()),
                ("flag".to_string(), Expr::col(2).eq(Expr::str("beta"))),
            ],
        };
        both(&plan, &catalog)?;
    }

    /// Hash joins (inner and left-outer) on a nullable int key and on a
    /// composite (int, string) key match the scalar build/probe exactly —
    /// same rows in the same order, same profile.
    #[test]
    fn join_differential(
        left in rows_strategy(30),
        right in rows_strategy(30),
        outer in 0i64..2,
        composite in 0i64..2,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let join_type = if outer == 0 { JoinType::Inner } else { JoinType::LeftOuter };
        let (lk, rk) = if composite == 0 {
            (vec![0], vec![0])
        } else {
            (vec![0, 2], vec![0, 2])
        };
        let plan = PhysicalPlan::HashJoin {
            left: scan("l"),
            right: scan("r"),
            left_keys: lk,
            right_keys: rk,
            join_type,
        };
        both(&plan, &catalog)?;
    }

    /// Grouped and global aggregation over every aggregate kind, with
    /// NULL group keys and NULL inputs.
    #[test]
    fn aggregate_differential(
        rows in rows_strategy(50),
        t1 in -20i64..20,
        global in 0i64..2,
        bits in 0i64..216,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let group_by = if global == 0 { vec![0usize, 2] } else { Vec::new() };
        let plan = PhysicalPlan::Aggregate {
            input: scan("t"),
            group_by,
            aggs: vec![
                ("n".to_string(), AggExpr::Count),
                ("hits".to_string(), AggExpr::CountIf(pred_of(t1, 0.5, 2, -50, bits))),
                ("total".to_string(), AggExpr::Sum(Expr::col(1))),
                ("total_a".to_string(), AggExpr::Sum(Expr::col(0))),
                ("mean".to_string(), AggExpr::Avg(Expr::col(1))),
                ("lo".to_string(), AggExpr::Min(Expr::col(0))),
                ("hi".to_string(), AggExpr::Max(Expr::col(3))),
                (
                    "cond_total".to_string(),
                    AggExpr::SumIf {
                        value: Expr::col(1),
                        predicate: Expr::col(0).ge(Expr::int(t1)),
                    },
                ),
            ],
        };
        both(&plan, &catalog)?;
    }

    /// Sort + limit over batches: identical (stable) permutation, identical
    /// per-operator accounting.
    #[test]
    fn sort_limit_differential(
        rows in rows_strategy(40),
        limit in 0usize..20,
        desc in 0i64..2,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: scan("t"),
                by: vec![(0, desc == 1), (2, false), (1, desc == 0)],
            }),
            n: limit,
        };
        both(&plan, &catalog)?;
    }

    /// A full pipeline — filter, join, aggregate, sort, limit — matches
    /// end-to-end, profile included.
    #[test]
    fn full_pipeline_differential(
        left in rows_strategy(30),
        right in rows_strategy(30),
        t1 in -20i64..20,
        bits in 0i64..216,
        limit in 1usize..10,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let plan = PhysicalPlan::Limit {
            input: Box::new(PhysicalPlan::Sort {
                input: Box::new(PhysicalPlan::Aggregate {
                    input: Box::new(PhysicalPlan::HashJoin {
                        left: Box::new(PhysicalPlan::Filter {
                            input: scan("l"),
                            predicate: pred_of(t1, 1.5, 3, -50, bits),
                        }),
                        right: scan("r"),
                        left_keys: vec![0],
                        right_keys: vec![0],
                        join_type: JoinType::LeftOuter,
                    }),
                    group_by: vec![2],
                    aggs: vec![
                        ("n".to_string(), AggExpr::Count),
                        ("total".to_string(), AggExpr::Sum(Expr::col(6))),
                    ],
                }),
                by: vec![(1, true), (0, false)],
            }),
            n: limit,
        };
        both(&plan, &catalog)?;
    }
}
