//! Golden-result tests: multi-operator plans over a small fixed dataset
//! with hand-computed expected outputs, plus work-profile invariants.

use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::{execute_fused, Catalog};
use midas_engines::expr::Expr;
use midas_engines::ops::{AggExpr, JoinType, PhysicalPlan};

/// Sales: (region, product, qty, price)
fn sales() -> Table {
    Table::new(
        "sales",
        vec![
            Column::new(
                "region",
                ColumnData::Utf8(
                    ["n", "n", "s", "s", "s", "e"].iter().map(|s| s.to_string()).collect(),
                ),
            ),
            Column::new("product", ColumnData::Int64(vec![1, 2, 1, 2, 2, 1])),
            Column::new("qty", ColumnData::Int64(vec![10, 5, 3, 8, 2, 7])),
            Column::new(
                "price",
                ColumnData::Float64(vec![2.0, 4.0, 2.0, 4.0, 4.0, 2.0]),
            ),
        ],
    )
    .expect("aligned")
}

/// Products: (id, name)
fn products() -> Table {
    Table::new(
        "products",
        vec![
            Column::new("id", ColumnData::Int64(vec![1, 2, 3])),
            Column::new(
                "name",
                ColumnData::Utf8(vec!["widget".into(), "gadget".into(), "sprocket".into()]),
            ),
        ],
    )
    .expect("aligned")
}

fn catalog() -> Catalog {
    let mut m = Catalog::new();
    m.insert("sales".to_string(), sales());
    m.insert("products".to_string(), products());
    m
}

#[test]
fn revenue_per_region_golden() {
    // SELECT region, SUM(qty*price) FROM sales GROUP BY region ORDER BY 2 DESC
    let plan = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Scan {
                table: "sales".to_string(),
            }),
            group_by: vec![0],
            aggs: vec![(
                "revenue".to_string(),
                AggExpr::Sum(Expr::col(2).mul(Expr::col(3))),
            )],
        }),
        by: vec![(1, true)],
    };
    let (out, profile) = execute_fused(&plan, &catalog()).expect("plan runs");
    // Hand-computed: n = 10*2 + 5*4 = 40; s = 3*2 + 8*4 + 2*4 = 46; e = 14.
    assert_eq!(out.n_rows(), 3);
    assert_eq!(out.row(0), vec![Value::Utf8("s".into()), Value::Float64(46.0)]);
    assert_eq!(out.row(1), vec![Value::Utf8("n".into()), Value::Float64(40.0)]);
    assert_eq!(out.row(2), vec![Value::Utf8("e".into()), Value::Float64(14.0)]);
    assert_eq!(profile.scanned_rows(), 6);
    assert_eq!(profile.agg_input_rows(), 6);
}

#[test]
fn named_join_with_conditional_aggregates_golden() {
    // Per product name: total qty and the count of big (qty >= 7) sales.
    let plan = PhysicalPlan::Aggregate {
        // join output: 0 region 1 product 2 qty 3 price 4 id 5 name
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan {
                table: "sales".to_string(),
            }),
            right: Box::new(PhysicalPlan::Scan {
                table: "products".to_string(),
            }),
            left_keys: vec![1],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        }),
        group_by: vec![5],
        aggs: vec![
            ("total_qty".to_string(), AggExpr::Sum(Expr::col(2))),
            (
                "big_sales".to_string(),
                AggExpr::CountIf(Expr::col(2).ge(Expr::int(7))),
            ),
        ],
    };
    let (out, _) = execute_fused(&plan, &catalog()).expect("plan runs");
    assert_eq!(out.n_rows(), 2); // sprocket never sold
    let mut rows: Vec<(String, f64, i64)> = (0..out.n_rows())
        .map(|i| match (&out.row(i)[0], &out.row(i)[1], &out.row(i)[2]) {
            (Value::Utf8(n), Value::Float64(q), Value::Int64(b)) => (n.clone(), *q, *b),
            other => panic!("{other:?}"),
        })
        .collect();
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    // widget: qty 10+3+7 = 20, big sales: 10 and 7 -> 2.
    // gadget: qty 5+8+2 = 15, big sales: 8 -> 1.
    assert_eq!(rows[0], ("gadget".to_string(), 15.0, 1));
    assert_eq!(rows[1], ("widget".to_string(), 20.0, 2));
}

#[test]
fn left_outer_preserves_products_without_sales() {
    let plan = PhysicalPlan::Aggregate {
        // products ⟕ sales on id = product
        input: Box::new(PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan {
                table: "products".to_string(),
            }),
            right: Box::new(PhysicalPlan::Scan {
                table: "sales".to_string(),
            }),
            left_keys: vec![0],
            right_keys: vec![1],
            join_type: JoinType::LeftOuter,
        }),
        group_by: vec![1],
        aggs: vec![(
            "n_sales".to_string(),
            AggExpr::CountIf(Expr::col(2).is_null().negate()),
        )],
    };
    let (out, _) = execute_fused(&plan, &catalog()).expect("plan runs");
    let mut rows: Vec<(String, i64)> = (0..out.n_rows())
        .map(|i| match (&out.row(i)[0], &out.row(i)[1]) {
            (Value::Utf8(n), Value::Int64(c)) => (n.clone(), *c),
            other => panic!("{other:?}"),
        })
        .collect();
    rows.sort();
    assert_eq!(
        rows,
        vec![
            ("gadget".to_string(), 3),
            ("sprocket".to_string(), 0),
            ("widget".to_string(), 3),
        ]
    );
}

#[test]
fn limit_after_sort_is_top_k() {
    let plan = PhysicalPlan::Limit {
        input: Box::new(PhysicalPlan::Sort {
            input: Box::new(PhysicalPlan::Scan {
                table: "sales".to_string(),
            }),
            by: vec![(2, true)],
        }),
        n: 2,
    };
    let (out, profile) = execute_fused(&plan, &catalog()).expect("plan runs");
    assert_eq!(out.n_rows(), 2);
    assert_eq!(out.row(0)[2], Value::Int64(10));
    assert_eq!(out.row(1)[2], Value::Int64(8));
    // Work profile: sort saw 6 rows, limit emitted 2.
    let last = profile.ops.last().expect("ops recorded");
    assert_eq!(last.rows_out, 2);
    assert_eq!(profile.output_rows(), 2);
}

#[test]
fn intermediate_bytes_accounting_is_additive() {
    let plan = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "sales".to_string(),
            }),
            predicate: Expr::col(2).ge(Expr::int(5)),
        }),
        exprs: vec![("qty".to_string(), Expr::col(2))],
    };
    let (_, profile) = execute_fused(&plan, &catalog()).expect("plan runs");
    let sum: u64 = profile.ops.iter().map(|o| o.bytes_out).sum();
    assert_eq!(profile.total_intermediate_bytes(), sum);
    assert!(profile.peak_intermediate_bytes() <= sum);
    assert!(profile.output_bytes() > 0);
}
