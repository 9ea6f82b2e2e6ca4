//! Property-based tests of the relational executor's algebraic laws.

use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::{execute_fused, Catalog};
use midas_engines::expr::Expr;
use midas_engines::ops::{AggExpr, JoinType, PhysicalPlan};
use proptest::prelude::*;

fn table_of(name: &str, rows: &[(i64, i64)]) -> Table {
    Table::new(
        name,
        vec![
            Column::new("k", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
            Column::new("v", ColumnData::Int64(rows.iter().map(|r| r.1).collect())),
        ],
    )
    .expect("aligned")
}

fn scan(t: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: t.to_string(),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Sum of per-group sums equals the global sum (aggregation is a
    /// partition of the input).
    #[test]
    fn group_sums_partition_the_total(
        rows in proptest::collection::vec((0i64..8, -100i64..100), 1..60),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let grouped = PhysicalPlan::Aggregate {
            input: scan("t"),
            group_by: vec![0],
            aggs: vec![("s".to_string(), AggExpr::Sum(Expr::col(1)))],
        };
        let (out, _) = execute_fused(&grouped, &catalog).expect("agg runs");
        let mut grouped_total = 0.0;
        for i in 0..out.n_rows() {
            if let Value::Float64(s) = out.row(i)[1] {
                grouped_total += s;
            }
        }
        let direct: i64 = rows.iter().map(|r| r.1).sum();
        prop_assert!((grouped_total - direct as f64).abs() < 1e-9);
        // One group per distinct key.
        let distinct: std::collections::HashSet<i64> = rows.iter().map(|r| r.0).collect();
        prop_assert_eq!(out.n_rows(), distinct.len());
    }

    /// Filter is commutative with projection when the predicate only uses
    /// surviving columns.
    #[test]
    fn filter_project_commute(
        rows in proptest::collection::vec((0i64..20, -50i64..50), 0..40),
        threshold in -50i64..50,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let pred = Expr::col(0).ge(Expr::int(threshold));
        let filter_then_project = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter {
                input: scan("t"),
                predicate: pred.clone(),
            }),
            exprs: vec![("k".to_string(), Expr::col(0))],
        };
        let project_then_filter = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Project {
                input: scan("t"),
                exprs: vec![("k".to_string(), Expr::col(0))],
            }),
            predicate: pred,
        };
        let (a, _) = execute_fused(&filter_then_project, &catalog).expect("runs");
        let (b, _) = execute_fused(&project_then_filter, &catalog).expect("runs");
        prop_assert_eq!(a.columns(), b.columns());
    }

    /// Inner-join row count equals the sum over keys of |L_k| * |R_k|.
    #[test]
    fn join_cardinality_formula(
        left in proptest::collection::vec((0i64..6, 0i64..5), 0..30),
        right in proptest::collection::vec((0i64..6, 0i64..5), 0..30),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let plan = PhysicalPlan::HashJoin {
            left: scan("l"),
            right: scan("r"),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        let (out, _) = execute_fused(&plan, &catalog).expect("join runs");
        let mut expected = 0usize;
        for k in 0..6 {
            let l = left.iter().filter(|r| r.0 == k).count();
            let r = right.iter().filter(|r| r.0 == k).count();
            expected += l * r;
        }
        prop_assert_eq!(out.n_rows(), expected);
    }

    /// Left-outer join preserves exactly the left row count plus the extra
    /// fan-out of multi-matches.
    #[test]
    fn left_outer_preserves_left_rows(
        left in proptest::collection::vec((0i64..6, 0i64..5), 0..30),
        right in proptest::collection::vec((0i64..6, 0i64..5), 0..30),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let plan = PhysicalPlan::HashJoin {
            left: scan("l"),
            right: scan("r"),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::LeftOuter,
        };
        let (out, _) = execute_fused(&plan, &catalog).expect("join runs");
        let mut expected = 0usize;
        for lrow in &left {
            let matches = right.iter().filter(|r| r.0 == lrow.0).count();
            expected += matches.max(1);
        }
        prop_assert_eq!(out.n_rows(), expected);
    }

    /// Sort is a permutation: same multiset of rows, ordered keys.
    #[test]
    fn sort_is_an_ordered_permutation(
        rows in proptest::collection::vec((-20i64..20, -50i64..50), 0..40),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let plan = PhysicalPlan::Sort {
            input: scan("t"),
            by: vec![(0, false)],
        };
        let (out, _) = execute_fused(&plan, &catalog).expect("sort runs");
        prop_assert_eq!(out.n_rows(), rows.len());
        let mut got: Vec<(i64, i64)> = (0..out.n_rows())
            .map(|i| match (&out.row(i)[0], &out.row(i)[1]) {
                (Value::Int64(k), Value::Int64(v)) => (*k, *v),
                other => panic!("{other:?}"),
            })
            .collect();
        // Keys are non-decreasing.
        prop_assert!(got.windows(2).all(|w| w[0].0 <= w[1].0));
        // Multisets agree.
        let mut want = rows.clone();
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }
}
