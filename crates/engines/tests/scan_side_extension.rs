//! A join side that is a bare scan of a base table is read where it lies
//! when a delta state extends: its one chunk as it is, its chunks
//! concatenated when it has several. The extension must equal one full run
//! over the final version: table, fingerprint and work.

use std::ops::Range;
use std::sync::Arc;

use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::expr::Expr;
use midas_engines::ops::{AggExpr, PhysicalPlan};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{execute_fused, DeltaState, JoinType};

/// Rows `keys` as (k = key mod 7, s = "w<key>"), named `name`.
fn chunk(name: &str, keys: Range<i64>) -> Arc<Table> {
    let k = ColumnData::Int64(keys.clone().map(|k| k % 7).collect());
    let s: Vec<String> = keys.map(|k| format!("w{k}")).collect();
    let s = ColumnData::Utf8(s.iter().map(String::as_str).collect());
    Arc::new(Table::new(name, vec![Column::new("k", k), Column::new("s", s)]).expect("aligned"))
}

fn scan(table: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: table.to_string(),
    })
}

fn join(left: Box<PhysicalPlan>, right: Box<PhysicalPlan>, join_type: JoinType) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left,
        right,
        left_keys: vec![0],
        right_keys: vec![0],
        join_type,
    }
}

#[test]
fn a_join_over_a_bare_base_scan_extends_as_one_full_run() {
    let t = [chunk("t", 0..10), chunk("t", 10..20), chunk("t", 20..25), chunk("t", 25..31)];
    let filtered = || {
        Box::new(PhysicalPlan::Filter {
            input: scan("t"),
            predicate: Expr::col(0).lt(Expr::int(5)),
        })
    };
    let counts = Box::new(PhysicalPlan::Aggregate {
        input: scan("t"),
        group_by: vec![0],
        aggs: vec![("n".to_string(), AggExpr::Count)],
    });
    let plans = [
        // The right side is unchanged: `u` is read whole (R1, R3).
        join(filtered(), scan("u"), JoinType::Inner),
        join(filtered(), scan("u"), JoinType::LeftOuter),
        // The right side changed: the join runs again over `u` whole (R4).
        join(scan("u"), counts, JoinType::Inner),
    ];
    let u = [chunk("u", 0..5), chunk("u", 5..9), chunk("u", 9..12)];
    for u_chunks in 1..=u.len() {
        let at = |n: usize| {
            let t = ChunkedTable::from_chunks("t", t[..n].to_vec()).expect("one schema");
            let u = ChunkedTable::from_chunks("u", u[..u_chunks].to_vec()).expect("one schema");
            CatalogVersion::from_chunked(vec![t, u])
        };
        for plan in &plans {
            let mut state = DeltaState::compute(plan, &[], &at(1)).expect("runs");
            for n in 2..=t.len() {
                let ctx = format!("{plan:?} at {n} chunks of t, {u_chunks} of u");
                assert!(state.extend(plan, &[], &at(n)).is_some_and(|rows| rows > 0), "{ctx}");
                let (table, work) = execute_fused(plan, &at(n)).expect("runs");
                assert_eq!((&**state.table(), state.work()), (&table, work), "{ctx}");
                assert_eq!(state.table().fingerprint(), table.fingerprint(), "{ctx}");
            }
        }
    }
}
