//! The paper's four two-table TPC-H queries as federated plan templates.
//!
//! Section 4.2: "In TPC-H benchmark, the queries related to two tables are
//! 12, 13, 14 and 17. These queries with two tables in two different
//! databases, such as Hive and PostgreSQL, are studied."
//!
//! Each query is factored into three plans:
//!
//! * `left_prepare` — scan + pushed-down filters + projection over the left
//!   base table, executed where that table lives;
//! * `right_prepare` — likewise for the right table;
//! * `combine` — the join and everything above it, executed at the chosen
//!   join site, reading the prepared sides as `@frag0` / `@frag1`.
//!
//! One deviation is documented inline: Q13's `o_comment NOT LIKE
//! '%special%requests%'` (ordered wildcards) is approximated with
//! `NOT (contains 'special' AND contains 'requests')`, which has comparable
//! selectivity under our comment generator.

use crate::dates::{add_months, ymd};
use midas_engines::data::Table;
use midas_engines::error::EngineError;
use midas_engines::expr::Expr;
use midas_engines::ops::{AggExpr, JoinType, PhysicalPlan, WorkProfile};
use midas_engines::{execute_fused, Catalog, Value};

/// Which of the paper's queries a template instantiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QueryId {
    /// Q12 — shipping modes and order priority.
    Q12,
    /// Q13 — customer order-count distribution.
    Q13,
    /// Q14 — promotion effect.
    Q14,
    /// Q17 — small-quantity-order revenue.
    Q17,
}

impl QueryId {
    /// The four queries of the paper's evaluation, in paper order.
    pub const PAPER_SET: [QueryId; 4] = [QueryId::Q12, QueryId::Q13, QueryId::Q14, QueryId::Q17];

    /// Display number ("12", "13", …).
    pub fn number(&self) -> u32 {
        match self {
            QueryId::Q12 => 12,
            QueryId::Q13 => 13,
            QueryId::Q14 => 14,
            QueryId::Q17 => 17,
        }
    }
}

/// A parameterized two-table federated query.
#[derive(Debug, Clone)]
pub struct TwoTableQuery {
    /// Which TPC-H query this is.
    pub id: QueryId,
    /// Human-readable label including the parameter binding.
    pub label: String,
    /// Left base table name.
    pub left_table: String,
    /// Right base table name.
    pub right_table: String,
    /// Site-local plan over the left table.
    pub left_prepare: PhysicalPlan,
    /// Site-local plan over the right table.
    pub right_prepare: PhysicalPlan,
    /// Join-site plan over `@frag0` (prepared left) and `@frag1` (right).
    pub combine: PhysicalPlan,
}

impl TwoTableQuery {
    /// The query class ("Q12", "Medical", …) under which executions are
    /// recorded and learned: the label up to its parameter binding. The
    /// runtime and the trace recorders all key their Modelling state by
    /// this, so it must have exactly one definition.
    pub fn class(&self) -> &str {
        self.label.split('(').next().unwrap_or(&self.label)
    }

    /// Runs the whole three-plan pipeline locally through `exec` (the
    /// fused executor, [`midas_engines::execute_fused`] over the catalog,
    /// or [`midas_engines::ops::execute_scalar`]), wiring the prepared
    /// sides into the catalog as `@frag0` / `@frag1`.
    ///
    /// `catalog` must hold the query's base tables; the fragment entries
    /// are (re)inserted in place, so repeated calls — as in the
    /// scalar-vs-fused benchmarks — don't re-clone the base data.
    /// Returns the final table plus the three work profiles in execution
    /// order (left prepare, right prepare, combine).
    pub fn execute_local<E>(
        &self,
        catalog: &mut Catalog,
        exec: E,
    ) -> Result<(Table, [WorkProfile; 3]), EngineError>
    where
        E: Fn(&PhysicalPlan, &Catalog) -> Result<(Table, WorkProfile), EngineError>,
    {
        let (left, left_profile) = exec(&self.left_prepare, catalog)?;
        let (right, right_profile) = exec(&self.right_prepare, catalog)?;
        catalog.insert("@frag0".to_string(), left);
        catalog.insert("@frag1".to_string(), right);
        let (out, combine_profile) = exec(&self.combine, catalog)?;
        Ok((out, [left_profile, right_profile, combine_profile]))
    }

    /// Fingerprint of the query's result executed *standalone* against
    /// `catalog` — no federation, simulation or scheduling involved. The
    /// relational result is a pure function of `(query, catalog)`, which
    /// makes this the **snapshot-isolation oracle**: a runtime's
    /// `result_fingerprint` for a job must equal this, evaluated on the
    /// catalog version the job pinned at admission. Defined once here so
    /// the benchmark and the integration tests can never assert against
    /// diverging oracles. It runs the fused executor over the flat catalog;
    /// `tests/executor_equivalence.rs` pins it to the scalar reference on
    /// the paper and medical queries.
    pub fn standalone_fingerprint(&self, catalog: &Catalog) -> Result<u64, EngineError> {
        let mut catalog = catalog.clone();
        let (out, _) = self.execute_local(&mut catalog, |plan, c| execute_fused(plan, c))?;
        Ok(out.fingerprint())
    }
}

fn scan(t: &str) -> Box<PhysicalPlan> {
    Box::new(PhysicalPlan::Scan {
        table: t.to_string(),
    })
}

/// TPC-H Q12: for lineitems shipped by two given modes and received within a
/// year, count lines from high-priority vs other orders, per ship mode.
pub fn q12(mode1: &str, mode2: &str, year: i32) -> TwoTableQuery {
    // lineitem columns: 0 okey 1 pkey 2 skey 3 qty 4 extprice 5 disc
    //                   6 shipdate 7 commitdate 8 receiptdate 9 shipmode
    let left_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("lineitem"),
            predicate: Expr::col(9)
                .in_list(vec![
                    Value::Utf8(mode1.to_string()),
                    Value::Utf8(mode2.to_string()),
                ])
                .and(Expr::col(7).lt(Expr::col(8)))
                .and(Expr::col(6).lt(Expr::col(7)))
                .and(Expr::col(8).ge(Expr::date(ymd(year, 1, 1))))
                .and(Expr::col(8).lt(Expr::date(ymd(year + 1, 1, 1)))),
        }),
        exprs: vec![
            ("l_orderkey".to_string(), Expr::col(0)),
            ("l_shipmode".to_string(), Expr::col(9)),
        ],
    };
    // orders columns: 0 okey 1 custkey 2 odate 3 priority 4 comment
    let right_prepare = PhysicalPlan::Project {
        input: scan("orders"),
        exprs: vec![
            ("o_orderkey".to_string(), Expr::col(0)),
            ("o_orderpriority".to_string(), Expr::col(3)),
        ],
    };
    let high = Expr::col(3).in_list(vec![
        Value::Utf8("1-URGENT".to_string()),
        Value::Utf8("2-HIGH".to_string()),
    ]);
    let combine = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Aggregate {
            // join output: 0 l_orderkey 1 l_shipmode 2 o_orderkey 3 o_orderpriority
            input: Box::new(PhysicalPlan::HashJoin {
                left: scan("@frag0"),
                right: scan("@frag1"),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }),
            group_by: vec![1],
            aggs: vec![
                ("high_line_count".to_string(), AggExpr::CountIf(high.clone())),
                ("low_line_count".to_string(), AggExpr::CountIf(high.negate())),
            ],
        }),
        by: vec![(0, false)],
    };
    TwoTableQuery {
        id: QueryId::Q12,
        label: format!("Q12(mode1={mode1}, mode2={mode2}, year={year})"),
        left_table: "lineitem".to_string(),
        right_table: "orders".to_string(),
        left_prepare,
        right_prepare,
        combine,
    }
}

/// TPC-H Q13: distribution of customers by order count, excluding orders
/// whose comment mentions both `word1` and `word2`.
pub fn q13(word1: &str, word2: &str) -> TwoTableQuery {
    // customer: 0 custkey 1 name 2 nationkey 3 mktsegment 4 acctbal
    let left_prepare = PhysicalPlan::Project {
        input: scan("customer"),
        exprs: vec![("c_custkey".to_string(), Expr::col(0))],
    };
    // orders: filter the comment, keep custkey. Deviation: the spec pattern
    // '%special%requests%' is ordered; we test conjunctive containment.
    let right_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("orders"),
            predicate: Expr::col(4)
                .contains(word1)
                .and(Expr::col(4).contains(word2))
                .negate(),
        }),
        exprs: vec![("o_custkey".to_string(), Expr::col(1))],
    };
    let combine = PhysicalPlan::Sort {
        input: Box::new(PhysicalPlan::Aggregate {
            // inner agg output: 0 c_custkey 1 c_count
            input: Box::new(PhysicalPlan::Aggregate {
                // join output: 0 c_custkey 1 o_custkey (NULL when no orders)
                input: Box::new(PhysicalPlan::HashJoin {
                    left: scan("@frag0"),
                    right: scan("@frag1"),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    join_type: JoinType::LeftOuter,
                }),
                group_by: vec![0],
                aggs: vec![(
                    "c_count".to_string(),
                    AggExpr::CountIf(Expr::col(1).is_null().negate()),
                )],
            }),
            group_by: vec![1],
            aggs: vec![("custdist".to_string(), AggExpr::Count)],
        }),
        // custdist desc, c_count desc — agg output: 0 c_count 1 custdist.
        by: vec![(1, true), (0, true)],
    };
    TwoTableQuery {
        id: QueryId::Q13,
        label: format!("Q13(word1={word1}, word2={word2})"),
        left_table: "customer".to_string(),
        right_table: "orders".to_string(),
        left_prepare,
        right_prepare,
        combine,
    }
}

/// TPC-H Q14: percentage of revenue from promotional parts in one month.
pub fn q14(year: i32, month: u32) -> TwoTableQuery {
    let start = ymd(year, month, 1);
    let end = add_months(start, 1);
    let left_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("lineitem"),
            predicate: Expr::col(6)
                .ge(Expr::date(start))
                .and(Expr::col(6).lt(Expr::date(end))),
        }),
        exprs: vec![
            ("l_partkey".to_string(), Expr::col(1)),
            (
                "revenue".to_string(),
                Expr::col(4).mul(Expr::float(1.0).sub(Expr::col(5))),
            ),
        ],
    };
    // part: 0 partkey 1 brand 2 type 3 container 4 retailprice
    let right_prepare = PhysicalPlan::Project {
        input: scan("part"),
        exprs: vec![
            ("p_partkey".to_string(), Expr::col(0)),
            ("p_type".to_string(), Expr::col(2)),
        ],
    };
    let combine = PhysicalPlan::Project {
        // agg output: 0 promo 1 total
        input: Box::new(PhysicalPlan::Aggregate {
            // join output: 0 l_partkey 1 revenue 2 p_partkey 3 p_type
            input: Box::new(PhysicalPlan::HashJoin {
                left: scan("@frag0"),
                right: scan("@frag1"),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type: JoinType::Inner,
            }),
            group_by: vec![],
            aggs: vec![
                (
                    "promo".to_string(),
                    AggExpr::SumIf {
                        value: Expr::col(1),
                        predicate: Expr::col(3).contains("PROMO"),
                    },
                ),
                ("total".to_string(), AggExpr::Sum(Expr::col(1))),
            ],
        }),
        exprs: vec![(
            "promo_revenue".to_string(),
            Expr::float(100.0).mul(Expr::col(0)).div(Expr::col(1)),
        )],
    };
    TwoTableQuery {
        id: QueryId::Q14,
        label: format!("Q14(year={year}, month={month})"),
        left_table: "lineitem".to_string(),
        right_table: "part".to_string(),
        left_prepare,
        right_prepare,
        combine,
    }
}

/// TPC-H Q17: average yearly revenue lost if small-quantity orders for one
/// brand/container were no longer taken.
pub fn q17(brand: &str, container: &str) -> TwoTableQuery {
    let left_prepare = PhysicalPlan::Project {
        input: scan("lineitem"),
        exprs: vec![
            ("l_partkey".to_string(), Expr::col(1)),
            ("l_quantity".to_string(), Expr::col(3)),
            ("l_extendedprice".to_string(), Expr::col(4)),
        ],
    };
    let right_prepare = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Filter {
            input: scan("part"),
            predicate: Expr::col(1)
                .eq(Expr::str(brand))
                .and(Expr::col(3).eq(Expr::str(container))),
        }),
        exprs: vec![("p_partkey".to_string(), Expr::col(0))],
    };
    // j1: 0 l_partkey 1 l_quantity 2 l_extendedprice 3 p_partkey
    let j1 = PhysicalPlan::HashJoin {
        left: scan("@frag0"),
        right: scan("@frag1"),
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: JoinType::Inner,
    };
    // Correlated subquery: avg quantity per partkey over all lineitems.
    let avg_q = PhysicalPlan::Aggregate {
        input: scan("@frag0"),
        group_by: vec![0],
        aggs: vec![("avg_qty".to_string(), AggExpr::Avg(Expr::col(1)))],
    };
    // j2: 0..3 from j1, 4 r.l_partkey, 5 avg_qty
    let combine = PhysicalPlan::Project {
        input: Box::new(PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::HashJoin {
                    left: Box::new(j1),
                    right: Box::new(avg_q),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    join_type: JoinType::Inner,
                }),
                predicate: Expr::col(1).lt(Expr::float(0.2).mul(Expr::col(5))),
            }),
            group_by: vec![],
            aggs: vec![("total".to_string(), AggExpr::Sum(Expr::col(2)))],
        }),
        exprs: vec![(
            "avg_yearly".to_string(),
            Expr::col(0).div(Expr::float(7.0)),
        )],
    };
    TwoTableQuery {
        id: QueryId::Q17,
        label: format!("Q17(brand={brand}, container={container})"),
        left_table: "lineitem".to_string(),
        right_table: "part".to_string(),
        left_prepare,
        right_prepare,
        combine,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{GenConfig, TpchDb};
    use midas_engines::{fused_paths, FusedPath, Value};

    /// Runs the three plans of a template locally (no federation), as the
    /// combine plan would see them.
    fn run_locally(q: &TwoTableQuery, db: &TpchDb) -> midas_engines::Table {
        let mut catalog = db.catalog().clone();
        q.execute_local(&mut catalog, |plan, c| execute_fused(plan, c))
            .unwrap()
            .0
    }

    fn db() -> TpchDb {
        TpchDb::generate(GenConfig::new(0.005, 42))
    }

    /// Whether the fused executor binds `predicate` over `table` as a
    /// selection program rather than as its single register program.
    fn selects(predicate: &Expr, table: &midas_engines::Table) -> bool {
        use midas_engines::expr::KernelCols;
        predicate
            .compile()
            .bind_filter(&KernelCols::Table(table))
            .is_selection_program()
    }

    /// The predicate of a prepare that projects its filter's output.
    fn filter_of(prepare: &PhysicalPlan) -> &Expr {
        let PhysicalPlan::Project { input, .. } = prepare else {
            panic!("a prepare projects its filter's output");
        };
        let PhysicalPlan::Filter { predicate, .. } = &**input else {
            panic!("a filtering prepare");
        };
        predicate
    }

    /// The paper queries' filters are what selection programs exist for:
    /// Q12's four date conjuncts keep ~1 lineitem in 50 and `l_shipmode IN
    /// (…)` runs on those (a numeric `IN` too), Q14's date range
    /// reads the date slice itself, and Q13's `NOT (CONTAINS w1 AND
    /// CONTAINS w2)` tests `w2` only where `w1` hit. An edit to the totality
    /// rule that moves any of them back to the single program fails here,
    /// not on a benchmark. One opaque conjunct — a division that may raise
    /// — keeps the single program.
    #[test]
    fn paper_filters_bind_as_selection_programs_an_opaque_one_does_not() {
        let db = db();
        let lineitem = db.catalog().get("lineitem").unwrap();
        let orders = db.catalog().get("orders").unwrap();
        let q12_filter = filter_of(&q12("MAIL", "SHIP", 1994).left_prepare).clone();
        assert!(selects(&q12_filter, lineitem));
        assert!(selects(filter_of(&q14(1995, 9).left_prepare), lineitem));
        assert!(selects(filter_of(&q13("special", "requests").right_prepare), orders));
        // Q12's chain with a numeric `IN` in place of the ship modes.
        let numeric_in = Expr::col(2)
            .in_list(vec![Value::Int64(7), Value::Int64(11)])
            .and(Expr::col(7).lt(Expr::col(8)))
            .and(Expr::col(6).lt(Expr::col(7)))
            .and(Expr::col(8).ge(Expr::date(ymd(1980, 1, 1))))
            .and(Expr::col(8).lt(Expr::date(ymd(1981, 1, 1))));
        assert!(selects(&numeric_in, lineitem));
        // `l_quantity / l_discount > 1`: a division may raise.
        let opaque = q12_filter.and(Expr::col(3).div(Expr::col(5)).gt(Expr::int(1)));
        assert!(!selects(&opaque, lineitem));
    }

    /// The key columns of `plan`'s join of `@frag0` with `@frag1`.
    fn frag_join_keys(plan: &PhysicalPlan) -> Option<(&[usize], &[usize])> {
        if let PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } = plan
        {
            if let (PhysicalPlan::Scan { table: l }, PhysicalPlan::Scan { table: r }) =
                (&**left, &**right)
            {
                if (l.as_str(), r.as_str()) == ("@frag0", "@frag1") {
                    return Some((left_keys, right_keys));
                }
            }
        }
        plan.children().find_map(frag_join_keys)
    }

    /// Whether `q`'s combine join over its prepared sides — with the first
    /// column of both multiplied by `stretch` — addresses its build side
    /// directly.
    fn combine_join_is_direct(q: &TwoTableQuery, db: &TpchDb, stretch: i64) -> bool {
        use midas_engines::{Column, ColumnData};
        let side = |prepare: &PhysicalPlan| {
            let (t, _) = execute_fused(prepare, db.catalog()).unwrap();
            let mut columns = t.columns().to_vec();
            let ColumnData::Int64(keys) = &*columns[0].data else {
                panic!("an Int64 join key");
            };
            let keys = keys.iter().map(|k| k * stretch).collect();
            columns[0] = Column::new(&columns[0].name, ColumnData::Int64(keys));
            Table::new(&t.name, columns).unwrap()
        };
        let (left_keys, right_keys) = frag_join_keys(&q.combine).expect("a join of the two sides");
        let (left, right) = (side(&q.left_prepare), side(&q.right_prepare));
        midas_engines::ops::join_is_direct(&left, &right, left_keys, right_keys).unwrap()
    }

    /// Q17's `@frag0 ⋈ @frag1` probes every lineitem against the few parts
    /// of one brand and container, and Q13's combine joins every customer
    /// to its orders: both build on a side whose keys span fewer integers
    /// than the join reads rows, so their chain heads are addressed by key.
    /// The same lineitems and parts under keys × 1 009 (`engine_exec`'s
    /// `sparse` table) hash. A change to the rule that moves either fails
    /// here, not on a benchmark. (The brand and container select two parts
    /// at this scale; with none, the build side is empty and nothing is
    /// addressed either way.)
    #[test]
    fn q17_and_q13_joins_address_directly_a_sparse_key_does_not() {
        let db = db();
        let q17 = q17("Brand#21", "LG BOX");
        assert!(combine_join_is_direct(&q17, &db, 1));
        assert!(combine_join_is_direct(&q13("special", "requests"), &db, 1));
        assert!(!combine_join_is_direct(&q17, &db, 1009));
    }

    /// The §6 paths of the fused executor (`fused_paths`) that `q`'s
    /// combine takes over its prepared sides.
    fn combine_paths(q: &TwoTableQuery, db: &TpchDb) -> Vec<FusedPath> {
        let mut frags = Catalog::new();
        for (name, prepare) in [("@frag0", &q.left_prepare), ("@frag1", &q.right_prepare)] {
            let (t, _) = execute_fused(prepare, db.catalog()).unwrap();
            frags.insert(name.to_string(), t);
        }
        fused_paths(&q.combine, &frags).unwrap()
    }

    /// Q13's combine counts each customer's orders straight into the
    /// customer's group (a groupjoin: `c_custkey` is unique and the count
    /// reads only `orders`' side), and Q17's `avg_q` averages only the
    /// parts `j1` kept (a key-set aggregate). Q12 groups on a right-side
    /// column and Q14 globally, so both keep the general paths. A plan
    /// edit that loses either fast path fails here, not on a benchmark.
    #[test]
    fn q13_and_q17_combines_take_the_groupjoin_paths_q12_and_q14_do_not() {
        let db = db();
        let paths = |q: &TwoTableQuery| combine_paths(q, &db);
        assert_eq!(paths(&q13("special", "requests")), [FusedPath::Groupjoin]);
        assert_eq!(paths(&q17("Brand#21", "LG BOX")), [FusedPath::KeySetAggregate]);
        assert_eq!(paths(&q12("MAIL", "SHIP", 1994)), []);
        assert_eq!(paths(&q14(1995, 9)), []);
    }

    #[test]
    fn q12_produces_per_mode_counts() {
        let db = db();
        let out = run_locally(&q12("MAIL", "SHIP", 1994), &db);
        assert!(out.n_rows() <= 2, "at most the two ship modes");
        assert!(out.n_rows() >= 1, "1994 receipts by MAIL/SHIP must exist");
        for i in 0..out.n_rows() {
            let row = out.row(i);
            let mode = match &row[0] {
                Value::Utf8(s) => s.clone(),
                other => panic!("mode column wrong: {other:?}"),
            };
            assert!(mode == "MAIL" || mode == "SHIP");
            let (high, low) = (&row[1], &row[2]);
            assert!(matches!(high, Value::Int64(_)));
            assert!(matches!(low, Value::Int64(_)));
        }
        // Sorted ascending by mode.
        if out.n_rows() == 2 {
            assert_eq!(out.row(0)[0], Value::Utf8("MAIL".into()));
            assert_eq!(out.row(1)[0], Value::Utf8("SHIP".into()));
        }
    }

    #[test]
    fn q12_priority_counts_sum_to_join_size() {
        let db = db();
        let out = run_locally(&q12("AIR", "TRUCK", 1995), &db);
        let mut total = 0i64;
        for i in 0..out.n_rows() {
            if let (Value::Int64(h), Value::Int64(l)) = (&out.row(i)[1], &out.row(i)[2]) {
                total += h + l;
            }
        }
        assert!(total > 0);
    }

    /// Every customer lands in exactly one bucket, the buckets are sorted
    /// by `custdist` descending, and the zero bucket counts the customers
    /// no surviving order names — counted here from the two prepares
    /// alone. Almost every comment holds an `e` and an `s`, so the second
    /// binding leaves many customers with no order.
    #[test]
    fn q13_customers_with_zero_orders_appear() {
        let db = db();
        for (q, some_without) in [(q13("special", "requests"), false), (q13("e", "s"), true)] {
            let out = run_locally(&q, &db);
            // Output: (c_count, custdist).
            let mut customers = 0i64;
            let mut zero_bucket = None;
            for i in 0..out.n_rows() {
                if let (Value::Int64(count), Value::Int64(dist)) = (&out.row(i)[0], &out.row(i)[1])
                {
                    customers += dist;
                    if *count == 0 {
                        zero_bucket = Some(*dist);
                    }
                }
            }
            assert_eq!(customers as usize, db.table("customer").unwrap().n_rows());
            let keys = |prepare: &PhysicalPlan| {
                let (t, _) = execute_fused(prepare, db.catalog()).unwrap();
                let key = |i: usize| match t.row(i)[0] {
                    Value::Int64(k) => k,
                    ref other => panic!("an Int64 key, not {other:?}"),
                };
                (0..t.n_rows()).map(key).collect::<std::collections::HashSet<i64>>()
            };
            let ordering = keys(&q.right_prepare);
            let without = keys(&q.left_prepare).difference(&ordering).count() as i64;
            assert!(without > 0 || !some_without, "{}: every customer ordered", q.label);
            assert_eq!(zero_bucket.unwrap_or(0), without, "{}: the zero bucket", q.label);
            assert_eq!(zero_bucket.is_some(), without > 0, "{}: the zero bucket", q.label);
            let dists: Vec<i64> = (0..out.n_rows())
                .map(|i| match out.row(i)[1] {
                    Value::Int64(d) => d,
                    _ => panic!(),
                })
                .collect();
            let mut sorted = dists.clone();
            sorted.sort_unstable_by(|a, b| b.cmp(a));
            assert_eq!(dists, sorted);
        }
    }

    #[test]
    fn q13_comment_filter_reduces_orders() {
        let db = db();
        let orders = db.table("orders").unwrap().n_rows();
        let mut catalog = db.catalog().clone();
        let q = q13("special", "requests");
        let (right, _) = execute_fused(&q.right_prepare, &catalog).unwrap();
        assert!(right.n_rows() < orders, "filter must drop some orders");
        assert!(right.n_rows() > orders / 2, "but only a small fraction");
        catalog.clear();
    }

    #[test]
    fn q14_returns_a_percentage() {
        let db = db();
        let out = run_locally(&q14(1995, 9), &db);
        assert_eq!(out.n_rows(), 1);
        match out.row(0)[0] {
            Value::Float64(pct) => {
                assert!((0.0..=100.0).contains(&pct), "promo share {pct}");
                // PROMO is 1 of 6 type prefixes: expect roughly 1/6.
                assert!((5.0..35.0).contains(&pct), "promo share {pct} implausible");
            }
            ref other => panic!("expected float, got {other:?}"),
        }
    }

    #[test]
    fn q17_small_quantity_revenue() {
        let db = db();
        let out = run_locally(&q17("Brand#23", "MED BOX"), &db);
        assert_eq!(out.n_rows(), 1);
        match out.row(0)[0] {
            // A sparse brand/container pair can legitimately yield NULL
            // (no qualifying rows) at tiny scale; accept both.
            Value::Float64(v) => assert!(v >= 0.0),
            Value::Null => {}
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn paper_set_is_the_documented_four() {
        let numbers: Vec<u32> = QueryId::PAPER_SET.iter().map(|q| q.number()).collect();
        assert_eq!(numbers, vec![12, 13, 14, 17]);
    }

    #[test]
    fn labels_carry_parameters() {
        assert!(q12("MAIL", "SHIP", 1994).label.contains("1994"));
        assert!(q17("Brand#12", "SM CASE").label.contains("Brand#12"));
    }
}
