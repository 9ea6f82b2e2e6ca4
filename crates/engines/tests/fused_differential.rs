//! Differential property tests for the morsel-driven fused executor:
//! [`execute_fused`] must agree with the row-at-a-time reference executor
//! (`execute_scalar`) — identical result tables, identical fingerprints,
//! identical `WorkProfile`s, byte accounting included — on random
//! NULL-bearing tables, over a flat catalog and chunk-native over a
//! `CatalogVersion` cut at **randomized chunk boundaries** (including
//! empty chunks, interior ones too). That pins the claim that morsel and
//! chunk boundaries are invisible: scans that never compact a snapshot
//! produce bit-for-bit the plans' flat results. The serving path's entry
//! point, [`profile_fragments`], is swept the same way over a whole
//! prepare/prepare/combine query.

use std::sync::Arc;

use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::expr::Expr;
use midas_engines::ops::{execute_scalar, AggExpr, JoinType, PhysicalPlan};
use midas_engines::version::{CatalogVersion, ChunkedTable};
use midas_engines::{execute_fused, fused_paths, profile_fragments, Catalog, FusedPath};
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

/// Random chunk boundary knobs — resolved against the row count at build
/// time so empty and single-row chunks both occur.
fn cuts_strategy() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..64, 0..4)
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
            Column::with_validity("s", ColumnData::Utf8(s_data.into()), s_valid),
            Column::new("d", ColumnData::Date(d_data)),
            Column::with_validity("c", ColumnData::Bool(c_data), c_valid),
        ],
    )
    .expect("aligned")
}

/// Splits `rows` into chunks at the (modulo-resolved) cut points. A cut at
/// 0, at the row count or at an earlier cut makes an empty chunk — leading,
/// trailing or interior, which is what a zero-row slab between populated
/// ones looks like to every operator; every chunk carries the table's own
/// name so flattening and snapshots are name-identical to the logical
/// table.
fn chunked_of(name: &str, rows: &[Row], cuts: &[usize]) -> ChunkedTable {
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (rows.len() + 1)).collect();
    bounds.sort_unstable();
    let mut chunks: Vec<Arc<Table>> = Vec::new();
    let mut start = 0usize;
    for &b in &bounds {
        chunks.push(Arc::new(table_of(name, &rows[start..b])));
        start = b;
    }
    chunks.push(Arc::new(table_of(name, &rows[start..])));
    ChunkedTable::from_chunks(name, chunks).expect("chunks share the schema")
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

/// Runs the scalar executor as the oracle, then the fused morsel executor
/// over the flat catalog AND over the chunk-native version — asserting
/// identical tables, fingerprints and work profiles everywhere (Ok/Err
/// always agrees; when a failing plan admits several valid first errors
/// the variants may differ, so errors are compared on presence only).
fn fused_matches(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    version: &CatalogVersion,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let oracle = execute_scalar(plan, catalog);
    let flat = execute_fused(plan, catalog);
    prop_assert_eq!(
        flat.is_ok(),
        oracle.is_ok(),
        "flat fused error disagreement: {:?} vs oracle {:?}",
        flat.as_ref().err(),
        oracle.as_ref().err()
    );
    let chunked = execute_fused(plan, version);
    prop_assert_eq!(
        chunked.is_ok(),
        oracle.is_ok(),
        "chunk-native fused error disagreement: {:?} vs oracle {:?}",
        chunked.as_ref().err(),
        oracle.as_ref().err()
    );
    if let Ok(o) = &oracle {
        let f = flat.expect("agrees with oracle");
        prop_assert_eq!(&f.0, &o.0, "flat fused table differs");
        prop_assert_eq!(f.0.fingerprint(), o.0.fingerprint());
        prop_assert_eq!(&f.1, &o.1, "flat fused profile differs");
        let c = chunked.expect("agrees with oracle");
        prop_assert_eq!(&c.0, &o.0, "chunk-native table differs");
        prop_assert_eq!(c.0.fingerprint(), o.0.fingerprint());
        prop_assert_eq!(&c.1, &o.1, "chunk-native profile differs");
    }
    Ok(())
}

/// Builds the single-table fixture: a flat catalog and a chunked version
/// over the same logical rows.
fn fixture(rows: &[Row], cuts: &[usize]) -> (Catalog, CatalogVersion) {
    let mut catalog = Catalog::new();
    catalog.insert("t".to_string(), table_of("t", rows));
    let version = CatalogVersion::from_chunked(vec![chunked_of("t", rows, cuts)]);
    (catalog, version)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Scan and Filter: morselized predicate evaluation over
    /// flat and chunk-native inputs matches row-at-a-time evaluation
    /// bit-for-bit, including byte accounting of never-flattened chunked
    /// views.
    #[test]
    fn filter_and_stacked_filters_fused(
        rows in rows_strategy(40),
        cuts in cuts_strategy(),
        t1 in -20i64..20,
        f1 in -10.0..10.0f64,
        w in 0usize..5,
        d1 in -100i64..100,
        bits in 0i64..216,
    ) {
        let (catalog, version) = fixture(&rows, &cuts);
        let pred = pred_of(t1, f1, w, d1, bits);
        fused_matches(
            &PhysicalPlan::Filter { input: scan("t"), predicate: pred.clone() },
            &catalog,
            &version,
        )?;
        // Stacked filters keep the pipeline chunk-native end to end.
        fused_matches(
            &PhysicalPlan::Filter {
                input: Box::new(PhysicalPlan::Filter {
                    input: scan("t"),
                    predicate: pred,
                }),
                predicate: Expr::col(0).ge(Expr::int(t1)),
            },
            &catalog,
            &version,
        )?;
    }

    /// Projection — direct columns, literals (incl. NULL), kernels with
    /// NULL propagation — bare and over a filter's selection, with morsel
    /// parts merged across random chunk boundaries.
    #[test]
    fn projection_fused(
        rows in rows_strategy(40),
        cuts in cuts_strategy(),
        k in -5i64..5,
        t1 in -20i64..20,
        bits in 0i64..216,
    ) {
        let (catalog, version) = fixture(&rows, &cuts);
        let exprs = vec![
            ("a".to_string(), Expr::col(0)),
            ("s".to_string(), Expr::col(2)),
            ("c".to_string(), Expr::col(4)),
            ("nil".to_string(), Expr::Lit(Value::Null)),
            ("sum_ab".to_string(), Expr::col(0).add(Expr::col(1))),
            ("scaled".to_string(), Expr::col(0).mul(Expr::int(k))),
            ("shifted_d".to_string(), Expr::col(3).sub(Expr::int(t1))),
            ("a_null".to_string(), Expr::col(0).is_null()),
            ("flag".to_string(), Expr::col(2).eq(Expr::str("beta"))),
        ];
        // Bare projection (no filter to fuse with).
        fused_matches(
            &PhysicalPlan::Project { input: scan("t"), exprs: exprs.clone() },
            &catalog,
            &version,
        )?;
        // Filter directly under Project: two steps, the projection over the
        // filter's selection.
        fused_matches(
            &PhysicalPlan::Project {
                input: Box::new(PhysicalPlan::Filter {
                    input: scan("t"),
                    predicate: pred_of(t1, 0.5, 1, -50, bits),
                }),
                exprs,
            },
            &catalog,
            &version,
        )?;
    }

    /// Hash joins (inner and left-outer, single and composite keys) over
    /// chunk-native scan inputs flattened at the join boundary.
    #[test]
    fn join_fused(
        left in rows_strategy(30),
        right in rows_strategy(30),
        lcuts in cuts_strategy(),
        rcuts in cuts_strategy(),
        outer in 0i64..2,
        composite in 0i64..2,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let version = CatalogVersion::from_chunked(vec![
            chunked_of("l", &left, &lcuts),
            chunked_of("r", &right, &rcuts),
        ]);
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
        fused_matches(&plan, &catalog, &version)?;
    }

    /// Grouped and global aggregation over every aggregate kind directly
    /// above a scan — the generic (non-deferred) fused aggregate path.
    #[test]
    fn aggregate_fused(
        rows in rows_strategy(50),
        cuts in cuts_strategy(),
        t1 in -20i64..20,
        global in 0i64..2,
        bits in 0i64..216,
    ) {
        let (catalog, version) = fixture(&rows, &cuts);
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
        fused_matches(&plan, &catalog, &version)?;
    }

    /// The deferred-gather path: `Aggregate ∘ [Filter*] ∘ HashJoin`
    /// consumes the join as index triples and gathers only referenced
    /// columns, yet must reproduce the materializing path's tables AND
    /// profiles (virtual join bytes included) exactly — with zero, one
    /// and two peeled filters, grouped and global, inner and outer.
    #[test]
    fn aggregate_over_join_fused(
        left in rows_strategy(30),
        right in rows_strategy(30),
        lcuts in cuts_strategy(),
        rcuts in cuts_strategy(),
        t1 in -20i64..20,
        bits in 0i64..216,
        outer in 0i64..2,
        global in 0i64..2,
        nfilters in 0usize..3,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let version = CatalogVersion::from_chunked(vec![
            chunked_of("l", &left, &lcuts),
            chunked_of("r", &right, &rcuts),
        ]);
        let join_type = if outer == 0 { JoinType::Inner } else { JoinType::LeftOuter };
        let mut input = Box::new(PhysicalPlan::HashJoin {
            left: scan("l"),
            right: scan("r"),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type,
        });
        // Filters over the join's 10-column output (right side at 5..10).
        let join_preds = [
            pred_of(t1, 1.5, 3, -50, bits),
            Expr::col(5).ge(Expr::int(t1)).or(Expr::col(7).contains("a")),
        ];
        for predicate in join_preds.iter().take(nfilters) {
            input = Box::new(PhysicalPlan::Filter {
                input,
                predicate: predicate.clone(),
            });
        }
        let group_by = if global == 0 { vec![2usize, 5] } else { Vec::new() };
        let plan = PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs: vec![
                ("n".to_string(), AggExpr::Count),
                ("total".to_string(), AggExpr::Sum(Expr::col(6))),
                ("mean".to_string(), AggExpr::Avg(Expr::col(1))),
                ("lo".to_string(), AggExpr::Min(Expr::col(5))),
                (
                    "cond".to_string(),
                    AggExpr::SumIf {
                        value: Expr::col(1).add(Expr::col(6)),
                        predicate: Expr::col(0).ge(Expr::int(t1)),
                    },
                ),
            ],
        };
        fused_matches(&plan, &catalog, &version)?;
    }

    /// Sort over chunk-native pipelines: a sort flattens its chunks, and
    /// the flattened order must equal the flat one.
    #[test]
    fn filter_and_sort_fused(
        rows in rows_strategy(40),
        cuts in cuts_strategy(),
        desc in 0i64..2,
    ) {
        let (catalog, version) = fixture(&rows, &cuts);
        // A (possibly filtered) chunk-native scan.
        fused_matches(
            &PhysicalPlan::Filter {
                input: scan("t"),
                predicate: Expr::col(0).ge(Expr::int(0)),
            },
            &catalog,
            &version,
        )?;
        fused_matches(
            &PhysicalPlan::Sort {
                input: scan("t"),
                by: vec![(0, desc == 1), (2, false), (1, desc == 0)],
            },
            &catalog,
            &version,
        )?;
    }

    /// A full pipeline — filter, join, aggregate (deferred), sort —
    /// matches end-to-end, profile included, at every chunking.
    #[test]
    fn full_pipeline_fused(
        left in rows_strategy(30),
        right in rows_strategy(30),
        lcuts in cuts_strategy(),
        rcuts in cuts_strategy(),
        t1 in -20i64..20,
        bits in 0i64..216,
    ) {
        let mut catalog = Catalog::new();
        catalog.insert("l".to_string(), table_of("l", &left));
        catalog.insert("r".to_string(), table_of("r", &right));
        let version = CatalogVersion::from_chunked(vec![
            chunked_of("l", &left, &lcuts),
            chunked_of("r", &right, &rcuts),
        ]);
        let plan = PhysicalPlan::Sort {
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
        };
        fused_matches(&plan, &catalog, &version)?;
    }

    /// A whole query the way the serving path runs it: two filter+project
    /// prepares over chunked base tables and a join+aggregate combine over
    /// their `@frag` outputs, through `profile_fragments`. Over the version
    /// it compacts nothing, and equals the same call over the version's
    /// `pin()` — tables, fingerprints and work profiles.
    #[test]
    fn profiled_query_over_version_matches_pin(
        left in rows_strategy(40),
        right in rows_strategy(40),
        lcuts in cuts_strategy(),
        rcuts in cuts_strategy(),
        t1 in -20i64..20,
        bits in 0i64..216,
    ) {
        let version = CatalogVersion::from_chunked(vec![
            chunked_of("l", &left, &lcuts),
            chunked_of("r", &right, &rcuts),
        ]);
        let prepare = |table: &str, predicate: Expr| PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Filter { input: scan(table), predicate }),
            exprs: vec![
                ("a".to_string(), Expr::col(0)),
                ("s".to_string(), Expr::col(2)),
                ("ab".to_string(), Expr::col(0).add(Expr::col(1))),
            ],
        };
        let plans = [
            prepare("l", pred_of(t1, 1.5, 3, -50, bits)),
            prepare("r", Expr::col(0).ge(Expr::int(t1)).or(Expr::col(2).contains("a"))),
            PhysicalPlan::Aggregate {
                input: Box::new(PhysicalPlan::HashJoin {
                    left: scan("@frag0"),
                    right: scan("@frag1"),
                    left_keys: vec![0],
                    right_keys: vec![0],
                    join_type: JoinType::LeftOuter,
                }),
                group_by: vec![1],
                aggs: vec![
                    ("n".to_string(), AggExpr::Count),
                    ("total".to_string(), AggExpr::Sum(Expr::col(5))),
                ],
            },
        ];
        let plans: Vec<&PhysicalPlan> = plans.iter().collect();
        let chunked = profile_fragments(&plans, &version).expect("runs");
        prop_assert_eq!(version.compaction_bytes(), 0);
        let pinned = version.pin();
        let flat = profile_fragments(&plans, &pinned).expect("runs");
        prop_assert_eq!(chunked.len(), 3);
        for (c, f) in chunked.iter().zip(flat.iter()) {
            prop_assert_eq!(&c.table, &f.table, "table differs");
            prop_assert_eq!(c.table.fingerprint(), f.table.fingerprint());
            prop_assert_eq!(&c.work, &f.work, "profile differs");
        }
    }
}

/// One row of a keyed table: (key, b, word index, a, a's null knob).
type KeyedRow = (i64, f64, usize, i64, i64);

fn keyed_rows(max: usize) -> impl Strategy<Value = Vec<KeyedRow>> {
    proptest::collection::vec((0i64..12, -10.0..10.0f64, 0usize..5, -5i64..5, 0i64..4), 0..max)
}

/// The keyed table: k Int64 (`key(row, position)`, NULL at the positions
/// `null_at` marks), b Float64, s Utf8 and a Int64 (NULL where the knob is
/// 0), none of the last three masked but `a`.
fn keyed_of(
    name: &str,
    rows: &[KeyedRow],
    key: impl Fn(&KeyedRow, usize) -> i64,
    null_at: impl Fn(usize) -> bool,
) -> Table {
    let k = ColumnData::Int64(rows.iter().enumerate().map(|(i, r)| key(r, i)).collect());
    let k = if (0..rows.len()).any(&null_at) {
        Column::with_validity("k", k, (0..rows.len()).map(|i| !null_at(i)).collect())
    } else {
        Column::new("k", k)
    };
    let a = ColumnData::Int64(rows.iter().map(|r| r.3).collect());
    Table::new(
        name,
        vec![
            k,
            Column::new("b", ColumnData::Float64(rows.iter().map(|r| r.1).collect())),
            Column::new("s", ColumnData::Utf8(rows.iter().map(|r| WORDS[r.2]).collect())),
            Column::with_validity("a", a, rows.iter().map(|r| r.4 != 0).collect()),
        ],
    )
    .expect("aligned")
}

/// `t` as one flat catalog entry and as a version cut at `cuts`.
fn cut(t: &Table, cuts: &[usize]) -> ChunkedTable {
    let n = t.n_rows();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % (n + 1)).collect();
    bounds.sort_unstable();
    bounds.push(n);
    let mut start = 0;
    let chunks = bounds.into_iter().map(|end| {
        let chunk = Arc::new(t.take_ids(&(start as u32..end as u32).collect::<Vec<_>>()));
        start = end;
        chunk
    });
    ChunkedTable::from_chunks(&t.name, chunks.collect()).expect("one schema")
}

/// `l` and `r` over a flat catalog and chunked at `lcuts` / `rcuts`.
fn two_tables(l: Table, r: Table, lcuts: &[usize], rcuts: &[usize]) -> (Catalog, CatalogVersion) {
    let version = CatalogVersion::from_chunked(vec![cut(&l, lcuts), cut(&r, rcuts)]);
    let mut catalog = Catalog::new();
    catalog.insert("l".to_string(), l);
    catalog.insert("r".to_string(), r);
    (catalog, version)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// (G) An aggregate grouped on the left key of `l ⋈ r` runs as a
    /// groupjoin when that key is one non-NULL, unique `Int64` column and
    /// every aggregate reads only `r`'s side — dense or sparse keys, inner
    /// or left-outer, a nullable value column, strings on both sides — and
    /// falls back to the deferred join on a duplicate or NULL left key or
    /// an aggregate that reads a left column. Either way it is scalar's
    /// table, fingerprint and profile, over flat and chunked inputs.
    #[test]
    fn groupjoin_fused(
        (left, right) in (keyed_rows(16), keyed_rows(30)),
        (lcuts, rcuts) in (cuts_strategy(), cuts_strategy()),
        (outer, spread, offset) in (0i64..2, 0i64..2, -6i64..6),
        (duplicate, null_key, reads_left) in (0usize..4, 0usize..4, 0i64..4),
    ) {
        let spread = if spread == 0 { 1 } else { 1009 };
        let n = left.len();
        // Left keys are unique (position-derived) unless one repeats the
        // first, or one is NULL.
        let dup = n.checked_sub(1).filter(|&last| duplicate == 0 && last > 0);
        let l = keyed_of(
            "l",
            &left,
            |_, i| (if Some(i) == dup { 0 } else { i as i64 } + offset) * spread,
            |i| null_key == 0 && i == n / 2 && n > 0,
        );
        let r = keyed_of("r", &right, |row, _| (row.0 + offset) * spread, |_| false);
        let clean = dup.is_none() && !(null_key == 0 && n > 0) && reads_left != 0;
        let (catalog, version) = two_tables(l, r, &lcuts, &rcuts);
        // Join output: l 0 k 1 b 2 s 3 a, r 4 k 5 b 6 s 7 a.
        let mut aggs = vec![
            ("n".to_string(), AggExpr::Count),
            ("has_a".to_string(), AggExpr::CountIf(Expr::col(7).is_null().negate())),
            ("sum_b".to_string(), AggExpr::Sum(Expr::col(5))),
            ("avg_a".to_string(), AggExpr::Avg(Expr::col(7))),
            ("lo".to_string(), AggExpr::Min(Expr::col(5))),
            ("hi_a".to_string(), AggExpr::Max(Expr::col(7))),
            (
                "b_if_a".to_string(),
                AggExpr::SumIf { value: Expr::col(5), predicate: Expr::col(6).contains("a") },
            ),
        ];
        if reads_left == 0 {
            aggs.push(("left_b".to_string(), AggExpr::Sum(Expr::col(1).add(Expr::col(5)))));
        }
        let join_type = if outer == 0 { JoinType::Inner } else { JoinType::LeftOuter };
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: scan("l"),
                right: scan("r"),
                left_keys: vec![0],
                right_keys: vec![0],
                join_type,
            }),
            group_by: vec![0],
            aggs,
        };
        fused_matches(&plan, &catalog, &version)?;
        let took = fused_paths(&plan, &catalog).expect("runs");
        prop_assert_eq!(took.contains(&FusedPath::Groupjoin), clean, "{:?}", took);
    }

    /// (S) A join whose right input aggregates on the right join key folds
    /// only the groups whose key the left side holds — `Int64` keys dense
    /// or sparse, NULL group keys, string keys on both sides, inner or
    /// left-outer, materialized at the root or consumed by a filter and an
    /// aggregate as in Q17 — and falls back to the whole aggregate when an
    /// aggregate reads a nullable column. The aggregate's rows and bytes
    /// stay the unreduced ones: scalar's table, fingerprint and profile,
    /// over flat and chunked inputs.
    #[test]
    fn key_set_aggregate_fused(
        (left, right) in (keyed_rows(20), keyed_rows(40)),
        (lcuts, rcuts) in (cuts_strategy(), cuts_strategy()),
        (outer, spread, strings) in (0i64..2, 0i64..2, 0i64..3),
        (null_group, nullable_value, above) in (0i64..4, 0i64..4, 0i64..2),
    ) {
        let spread = if spread == 0 { 1 } else { 1009 };
        let l = keyed_of("l", &left, |row, _| row.0 * spread, |i| i % 5 == 3);
        let null_at = |i: usize| null_group == 0 && i % 4 == 1;
        let r = keyed_of("r", &right, |row, _| row.0 / 2 * spread, null_at);
        let (catalog, version) = two_tables(l, r, &lcuts, &rcuts);
        // The join key: k, or s (strings on both sides).
        let key = if strings == 0 { 2 } else { 0 };
        let mut aggs = vec![
            ("n".to_string(), AggExpr::Count),
            ("avg_b".to_string(), AggExpr::Avg(Expr::col(1))),
            ("sum_b".to_string(), AggExpr::Sum(Expr::col(1))),
            ("lo".to_string(), AggExpr::Min(Expr::col(1))),
            ("hi".to_string(), AggExpr::Max(Expr::col(1))),
        ];
        if nullable_value == 0 {
            aggs.push(("avg_a".to_string(), AggExpr::Avg(Expr::col(3))));
        }
        let aggregate = PhysicalPlan::Aggregate { input: scan("r"), group_by: vec![key], aggs };
        let join_type = if outer == 0 { JoinType::Inner } else { JoinType::LeftOuter };
        let join = PhysicalPlan::HashJoin {
            left: scan("l"),
            right: Box::new(aggregate),
            left_keys: vec![key],
            right_keys: vec![0],
            join_type,
        };
        // Join output: l 0 k 1 b 2 s 3 a, then the group key (4), n (5),
        // avg_b (6), ….
        let plan = if above == 0 {
            join
        } else {
            PhysicalPlan::Aggregate {
                input: Box::new(PhysicalPlan::Filter {
                    input: Box::new(join),
                    predicate: Expr::col(1).lt(Expr::float(0.5).mul(Expr::col(6))),
                }),
                group_by: vec![],
                aggs: vec![("total".to_string(), AggExpr::Sum(Expr::col(1)))],
            }
        };
        fused_matches(&plan, &catalog, &version)?;
        let took = fused_paths(&plan, &catalog).expect("runs");
        let reduced = took.contains(&FusedPath::KeySetAggregate);
        prop_assert_eq!(reduced, nullable_value != 0, "{:?}", took);
    }
}

/// Regression: over zero rows the scalar path evaluates nothing, so a
/// constant division by zero over an empty input must not error on the
/// fused path either (the empty morsel raises nothing) — and both paths
/// must raise it on a non-empty input.
#[test]
fn constant_division_by_zero_over_empty_input() {
    let (catalog, version) = fixture(&[], &[]);
    let plan = PhysicalPlan::Filter {
        input: scan("t"),
        predicate: Expr::int(1).div(Expr::int(0)).gt(Expr::int(5)),
    };
    let o = execute_scalar(&plan, &catalog).expect("oracle tolerates empty");
    let f = execute_fused(&plan, &catalog).expect("fused tolerates empty");
    let c = execute_fused(&plan, &version).expect("chunked tolerates empty");
    assert_eq!(f, o);
    assert_eq!(c, o);
    let rows: Vec<Row> = vec![((1, 1, 0.5), (0, 1, 0), (0, 1))];
    let (catalog, version) = fixture(&rows, &[]);
    assert!(execute_scalar(&plan, &catalog).is_err());
    assert!(execute_fused(&plan, &catalog).is_err());
    assert!(execute_fused(&plan, &version).is_err());
}

/// Regression: Int64 literals beyond 2^53 project exactly through the
/// morsel path (direct literal broadcast, not f64-widened kernels).
#[test]
fn huge_int_literal_projects_exactly() {
    let big = (1i64 << 53) + 1;
    let rows: Vec<Row> = vec![((1, 1, 0.5), (0, 1, 0), (0, 1)); 3];
    let (catalog, version) = fixture(&rows, &[1, 2]);
    let plan = PhysicalPlan::Project {
        input: scan("t"),
        exprs: vec![("k".to_string(), Expr::int(big))],
    };
    let (o, _) = execute_scalar(&plan, &catalog).expect("runs");
    let (f, _) = execute_fused(&plan, &catalog).expect("runs");
    let (c, _) = execute_fused(&plan, &version).expect("runs");
    assert_eq!(f, o);
    assert_eq!(c, o);
    assert_eq!(f.row(0)[0], Value::Int64(big));
}

/// Out-of-range column references fail identically through the deferred
/// join-aggregate path (group key and aggregate expression both).
#[test]
fn deferred_join_aggregate_bad_columns_error() {
    let rows: Vec<Row> = (0..5)
        .map(|i| ((i, 1, 0.5), (0usize, 1, i), (0, 1)))
        .collect();
    let mut catalog = Catalog::new();
    catalog.insert("l".to_string(), table_of("l", &rows));
    catalog.insert("r".to_string(), table_of("r", &rows));
    let version = CatalogVersion::from_chunked(vec![
        chunked_of("l", &rows, &[2]),
        chunked_of("r", &rows, &[3]),
    ]);
    let join = || {
        Box::new(PhysicalPlan::HashJoin {
            left: scan("l"),
            right: scan("r"),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        })
    };
    // Group key out of the join's 10-column width.
    let bad_group = PhysicalPlan::Aggregate {
        input: join(),
        group_by: vec![12],
        aggs: vec![("n".to_string(), AggExpr::Count)],
    };
    assert!(execute_scalar(&bad_group, &catalog).is_err());
    assert!(execute_fused(&bad_group, &catalog).is_err());
    assert!(execute_fused(&bad_group, &version).is_err());
    // Aggregate expression out of range.
    let bad_agg = PhysicalPlan::Aggregate {
        input: join(),
        group_by: vec![2],
        aggs: vec![("t".to_string(), AggExpr::Sum(Expr::col(11)))],
    };
    assert!(execute_scalar(&bad_agg, &catalog).is_err());
    assert!(execute_fused(&bad_agg, &catalog).is_err());
    assert!(execute_fused(&bad_agg, &version).is_err());
}
