//! Cross-crate property-based tests.

use midas_repro::cloud::{Money, PricingModel};
use midas_repro::engines::data::{Column, ColumnData, Table};
use midas_repro::engines::{execute_fused, Catalog};
use midas_repro::engines::expr::Expr;
use midas_repro::engines::ops::{JoinType, PhysicalPlan};
use midas_repro::moo::{fast_non_dominated_sort, pareto_front_indices};
use midas_repro::tpch::gen::{GenConfig, TpchDb};
use proptest::prelude::*;


/// Reference nested-loop inner join for equivalence checking.
fn nested_loop_join(
    left: &[(i64, i64)],
    right: &[(i64, i64)],
) -> Vec<(i64, i64, i64, i64)> {
    let mut out = Vec::new();
    for &(lk, lv) in left {
        for &(rk, rv) in right {
            if lk == rk {
                out.push((lk, lv, rk, rv));
            }
        }
    }
    out
}

fn table_of(name: &str, rows: &[(i64, i64)]) -> Table {
    Table::new(
        name,
        vec![
            Column::new("k", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
            Column::new("v", ColumnData::Int64(rows.iter().map(|r| r.1).collect())),
        ],
    )
    .expect("columns aligned")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The hash join agrees with a nested-loop join on any input (modulo
    /// row order, which we normalize by sorting).
    #[test]
    fn hash_join_equals_nested_loop(
        left in proptest::collection::vec((0i64..20, -100i64..100), 0..40),
        right in proptest::collection::vec((0i64..20, -100i64..100), 0..40),
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(PhysicalPlan::Scan { table: "l".to_string() }),
            right: Box::new(PhysicalPlan::Scan { table: "r".to_string() }),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        let (out, _) = execute_fused(&plan, &catalog).expect("join runs");
        let mut got: Vec<(i64, i64, i64, i64)> = (0..out.n_rows())
            .map(|i| {
                let row = out.row(i);
                match (&row[0], &row[1], &row[2], &row[3]) {
                    (
                        midas_repro::engines::Value::Int64(a),
                        midas_repro::engines::Value::Int64(b),
                        midas_repro::engines::Value::Int64(c),
                        midas_repro::engines::Value::Int64(d),
                    ) => (*a, *b, *c, *d),
                    other => panic!("unexpected row {other:?}"),
                }
            })
            .collect();
        let mut want = nested_loop_join(&left, &right);
        got.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Filter then count == count of rows satisfying the predicate.
    #[test]
    fn filter_selectivity_is_exact(
        rows in proptest::collection::vec((0i64..50, -50i64..50), 1..60),
        threshold in -50i64..50,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("t".to_string(), table_of("t", &rows));
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan { table: "t".to_string() }),
            predicate: Expr::col(1).ge(Expr::int(threshold)),
        };
        let (out, profile) = execute_fused(&plan, &catalog).expect("filter runs");
        let want = rows.iter().filter(|r| r.1 >= threshold).count();
        prop_assert_eq!(out.n_rows(), want);
        prop_assert_eq!(profile.ops.last().expect("ops recorded").rows_out as usize, want);
    }

    /// Pareto front members are mutually non-dominated and every
    /// non-member is dominated by some member.
    #[test]
    fn pareto_front_is_sound_and_complete(
        costs in proptest::collection::vec(
            proptest::collection::vec(0.0f64..100.0, 2..4usize), 1..30),
    ) {
        // Normalize inner length (proptest generates ragged).
        let dims = costs[0].len();
        let costs: Vec<Vec<f64>> = costs.into_iter().map(|mut c| {
            c.resize(dims, 1.0);
            c
        }).collect();
        let front = pareto_front_indices(&costs);
        prop_assert!(!front.is_empty());
        for &i in &front {
            for &j in &front {
                prop_assert!(!midas_repro::moo::dominance::pareto_dominates(&costs[i], &costs[j]));
            }
        }
        for k in 0..costs.len() {
            if !front.contains(&k) {
                prop_assert!(front.iter().any(|&i| {
                    midas_repro::moo::dominance::pareto_dominates(&costs[i], &costs[k])
                }), "non-member {} dominated by nobody", k);
            }
        }
        // Fronts from the full sort agree with the direct extraction.
        let fronts = fast_non_dominated_sort(&costs);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        prop_assert_eq!(f0, front);
    }

    /// Billing is monotone in duration and in instance count.
    #[test]
    fn billing_is_monotone(
        secs_a in 1.0f64..10_000.0,
        secs_b in 1.0f64..10_000.0,
        count in 1u32..20,
    ) {
        let pm = PricingModel::per_second(Money::from_dollars(0.09));
        let shape = midas_repro::cloud::amazon_a1_catalog().instances()[1].clone();
        let (lo, hi) = if secs_a <= secs_b { (secs_a, secs_b) } else { (secs_b, secs_a) };
        prop_assert!(pm.instance_cost(&shape, count, lo) <= pm.instance_cost(&shape, count, hi));
        prop_assert!(
            pm.instance_cost(&shape, count, lo) <= pm.instance_cost(&shape, count + 1, lo)
        );
    }

    /// TPC-H snapshots are monotone: a bigger fraction never yields fewer
    /// rows, and fraction 1.0 is the identity.
    #[test]
    fn snapshots_are_monotone(fa in 0.0f64..1.0, fb in 0.0f64..1.0) {
        let db = TpchDb::generate(GenConfig::new(0.001, 5));
        let (lo, hi) = if fa <= fb { (fa, fb) } else { (fb, fa) };
        let sa = db.snapshot(lo);
        let sb = db.snapshot(hi);
        for name in ["lineitem", "orders", "customer", "part"] {
            prop_assert!(sa.try_get(name).expect("snapshot").n_rows() <= sb.try_get(name).expect("snapshot").n_rows());
        }
        let full = db.snapshot(1.0);
        prop_assert_eq!(full.try_get("orders").expect("snapshot").n_rows(), db.table("orders").expect("generated").n_rows());
    }
}
