//! Differential tests for extending combines over their prepares' appended
//! rows.
//!
//! A combine over prepares that only grew by appends keeps a delta state
//! ([`DeltaState`]): per-group aggregate states, the preserved rows a
//! left-outer join matched, a join side an operator produced. Extending it
//! over the appended rows must return exactly what one [`execute_fused`] of
//! the combine over the final prepare outputs returns: the same table (name
//! included), fingerprint, work profile, and `Ok`/`Err`. A count over an
//! inner join whose two sides grow extends too, its groups in first-seen
//! order, and so does a count over a left-outer join grouped on its
//! growing preserved side. Where it declines — a float aggregate or another
//! operator over a join whose two sides grow, an outer count grouped on
//! the side that grows beside it, a mask, a prepare of an older version —
//! the state is left as it was and a full computation stands in.
//!
//! The last tests drive the planner's entry point,
//! [`midas_engines::profile_fragments_cached`], through publishes: a
//! poisoned state is skipped, not advanced, and a late job's older version
//! computes in full and leaves the state alone.

mod common;

use std::sync::Arc;

use common::{chunks_of, computed, plan_and_run, rows_of, same_as, scan, Run};
use midas_engines::cache::{CacheKey, FragmentResultCache, PlanFingerprint, PlanningStats};
use midas_engines::data::{Column, ColumnData, Table};
use midas_engines::expr::Expr;
use midas_engines::ops::{AggExpr, JoinType, PhysicalPlan};
use midas_engines::version::{CatalogVersion, VersionedCatalog};
use midas_engines::{execute_fused, Catalog, DeltaState};
use proptest::prelude::*;

/// Multi-byte text next to ASCII, the empty string and the word the Q14
/// shape's predicate looks for.
const WORDS: [&str; 6] = ["PROMO tin", "żółw", "日本語", "", "PROMO ü", "beta"];

/// The key the opaque filter divides by zero at.
const POISON: i64 = 7;

/// One appended row: (k, q, p, word index, null knob).
type Row = (i64, i64, f64, usize, i64);

fn row() -> impl Strategy<Value = Row> {
    (0i64..8, -4i64..4, -10.0..10.0f64, 0usize..6, 0i64..4)
}

/// The growing table `l`: k Int64, q Float64 (a few repeated values, so
/// float groups collide; NULL where the knob is 0, when `nulls`), p
/// Float64, s Utf8.
fn l_table(name: &str, rows: &[Row], nulls: bool) -> Table {
    let q = ColumnData::Float64(rows.iter().map(|r| r.1 as f64 * 0.5).collect());
    let q = if nulls {
        Column::with_validity("q", q, rows.iter().map(|r| r.4 != 0).collect())
    } else {
        Column::new("q", q)
    };
    Table::new(
        name,
        vec![
            Column::new("k", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
            q,
            Column::new("p", ColumnData::Float64(rows.iter().map(|r| r.2).collect())),
            Column::new("s", ColumnData::Utf8(rows.iter().map(|r| WORDS[r.3]).collect())),
        ],
    )
    .expect("aligned")
}

/// The table `r`: k Int64, with `nulls` NULL on every row whose knob is 0
/// (an outer join's preserved rows that never match), t Utf8.
fn r_table(name: &str, rows: &[Row], nulls: bool) -> Table {
    let k = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    let k = if nulls {
        Column::with_validity("k", k, rows.iter().map(|r| r.4 != 0).collect())
    } else {
        Column::new("k", k)
    };
    Table::new(
        name,
        vec![
            k,
            Column::new(
                "t",
                ColumnData::Utf8(rows.iter().map(|r| WORDS[r.3]).collect()),
            ),
        ],
    )
    .expect("aligned")
}

/// A version holding the first `nl` chunks of `l` and `nr` of `r`.
fn version_of(l: &[Arc<Table>], nl: usize, r: &[Arc<Table>], nr: usize) -> CatalogVersion {
    common::version_of(&[("l", l, nl), ("r", r, nr)])
}

fn project(input: Box<PhysicalPlan>, exprs: Vec<(&str, Expr)>) -> PhysicalPlan {
    PhysicalPlan::Project {
        input,
        exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
    }
}

fn join(left: PhysicalPlan, right: PhysicalPlan, join_type: JoinType) -> PhysicalPlan {
    PhysicalPlan::HashJoin {
        left: Box::new(left),
        right: Box::new(right),
        left_keys: vec![0],
        right_keys: vec![0],
        join_type,
    }
}

fn aggregate(
    input: PhysicalPlan,
    group_by: Vec<usize>,
    aggs: Vec<(&str, AggExpr)>,
) -> PhysicalPlan {
    PhysicalPlan::Aggregate {
        input: Box::new(input),
        group_by,
        aggs: aggs.into_iter().map(|(n, a)| (n.to_string(), a)).collect(),
    }
}

/// `@frag0`: the growing side, a kernel projection over `l` (k, q, p, s).
fn left_prepare() -> PhysicalPlan {
    project(
        scan("l"),
        vec![
            ("k", Expr::col(0)),
            ("q", Expr::col(1)),
            ("p", Expr::col(2).mul(Expr::float(1.5))),
            ("s", Expr::col(3)),
        ],
    )
}

/// `@frag1`: `r`'s whole columns (k, t).
fn right_prepare() -> PhysicalPlan {
    project(scan("r"), vec![("k", Expr::col(0)), ("t", Expr::col(1))])
}

/// Shape 5 grows `r` too: both sides of its join append, under a count
/// grouped on a left column (R3).
const BOTH_GROW: usize = 5;

/// Shape 7 is Q17's with `l` sorted by key: a key's first `l` row, the
/// first of its `avg_q` group, arrives in a later chunk.
const FIRST_ARRIVALS: usize = 7;

/// Shape 8 is Q17's with `r` growing: the rows `@frag0 ⋈ @frag1` adds
/// would interleave, so every extension after `r` grew declines.
const PART_GROWS: usize = 8;

/// Shape 9 joins `@frag0`'s rows with `q > 1` (one in eight) to `@frag0`'s per-key
/// averages: a key whose earlier rows were all filtered out left its group
/// unfolded, so a delta row that reaches it may only decline.
const STAND_INS: usize = 9;

/// Shape 10 is shape 5 with a float `Sum` beside the count: over a join
/// whose right side grew, it declines.
const FLOAT_SUM: usize = 10;

/// Shape 11 counts over the join of shape 5 grouped on a right column: a
/// new `r` row opens a group or reaches one at an earlier `l` row than its
/// first, and the groups keep their first-seen order (R3).
const RIGHT_GROUPS: usize = 11;

/// Shape 12 counts over a filter over the join of shape 5: the join is read
/// by an operator that is not the count, so when `r` grew it declines.
const FILTERED: usize = 12;

/// Shape 13 is Q13's, shape 2, with its preserved side `@frag1` growing
/// beside `@frag0`: its new rows open groups after the old ones, and an old
/// one matched for the first time withdraws its stand-in (R3).
const OUTER_GROWS: usize = 13;

/// Shape 14 filters a left-outer join whose preserved side `@frag0` alone
/// grows: its new rows, a miss among them, append (R1).
const OUTER_APPENDS: usize = 14;

/// Shape 15 counts over `@frag1 ⟕ @frag0` grouped on a column of `@frag0`,
/// the side that grows: a first match moves a row out of the NULL group,
/// so it declines.
const OUTER_RIGHT_GROUPS: usize = 15;

/// The shapes whose join's two sides grow: `r` grows beside `l`.
const GROWS_R: [usize; 6] = [BOTH_GROW, PART_GROWS, FLOAT_SUM, RIGHT_GROUPS, FILTERED, OUTER_GROWS];

/// The shapes that extend over a growth of `r`: a count directly over a
/// join whose two sides grow (R3).
const COUNTS_PAIRS: [usize; 3] = [BOTH_GROW, RIGHT_GROUPS, OUTER_GROWS];

/// The combine shapes under test, over `@frag0` (k, q, p, s) and `@frag1`
/// (k, t).
fn combine_of(shape: usize) -> PhysicalPlan {
    let f = |n: usize| *scan(&format!("@frag{n}"));
    match shape {
        // Q17's: `@frag0 ⋈ @frag1` (R1), a per-key average of `@frag0`
        // (R2) that folds only the keys `j1` holds, their join, a filter
        // and a sum over both (R4).
        0 | FIRST_ARRIVALS | PART_GROWS => {
            // j1: 0 k 1 q 2 p 3 s 4 r.k 5 t; avg: 0 k 1 avg_q.
            let j1 = join(f(0), f(1), JoinType::Inner);
            let avg = aggregate(f(0), vec![0], vec![("avg_q", AggExpr::Avg(Expr::col(1)))]);
            // j2: 0..5 j1, 6 r.k, 7 avg_q.
            let filtered = PhysicalPlan::Filter {
                input: Box::new(join(j1, avg, JoinType::Inner)),
                predicate: Expr::col(1).lt(Expr::float(0.5).mul(Expr::col(7))),
            };
            let total = aggregate(filtered, vec![], vec![("total", AggExpr::Sum(Expr::col(2)))]);
            project(Box::new(total), vec![("avg", Expr::col(0).div(Expr::float(7.0)))])
        }
        // Q14's: a global fold over `@frag0 ⋈ @frag1` (R1, R2).
        1 => {
            let promo = AggExpr::SumIf {
                value: Expr::col(2),
                predicate: Expr::col(5).contains("PROMO"),
            };
            let total = AggExpr::Sum(Expr::col(2));
            let folded = aggregate(join(f(0), f(1), JoinType::Inner), vec![], vec![
                ("promo", promo),
                ("total", total),
            ]);
            project(
                Box::new(folded),
                vec![("share", Expr::float(100.0).mul(Expr::col(0)).div(Expr::col(1)))],
            )
        }
        // Q13's: counts per preserved row of `@frag1 ⟕ @frag0` (R3), a
        // count of counts and a sort (R4). `@frag1`'s NULL keys never match.
        2 | OUTER_GROWS => {
            // 0 k 1 t 2 r.k 3 q 4 p 5 s
            let outer = join(f(1), f(0), JoinType::LeftOuter);
            let counts = aggregate(outer, vec![0], vec![
                ("c", AggExpr::CountIf(Expr::col(2).is_null().negate())),
                ("positive", AggExpr::CountIf(Expr::col(4).gt(Expr::float(0.0)))),
                ("n", AggExpr::Count),
            ]);
            let dist = aggregate(counts, vec![1, 3], vec![("dist", AggExpr::Count)]);
            PhysicalPlan::Sort {
                input: Box::new(dist),
                by: vec![(2, true), (0, true), (1, false)],
            }
        }
        // Float groups (R2): -0.0 and 0.0 are distinct keys.
        3 => aggregate(f(0), vec![1], vec![
            ("n", AggExpr::Count),
            ("sk", AggExpr::Sum(Expr::col(0))),
            ("ap", AggExpr::Avg(Expr::col(2))),
            ("lo", AggExpr::Min(Expr::col(2))),
            ("hi", AggExpr::Max(Expr::col(1))),
        ]),
        // String groups (R2), then a sort and a projection of the sorted
        // groups (R4, twice in a row).
        4 => {
            let groups = aggregate(f(0), vec![3], vec![
                ("sq", AggExpr::Sum(Expr::col(1))),
                ("c", AggExpr::Count),
            ]);
            let sorted = PhysicalPlan::Sort {
                input: Box::new(groups),
                by: vec![(2, true), (0, false)],
            };
            project(Box::new(sorted), vec![
                ("k", Expr::col(0)),
                ("c2", Expr::col(2).mul(Expr::int(2))),
            ])
        }
        // A per-key average folded only for the keys of `@frag0`'s rows
        // with `q > 1`, joined to those rows (R1, R2, R4).
        STAND_INS => {
            let positive = PhysicalPlan::Filter {
                input: scan("@frag0"),
                predicate: Expr::col(1).gt(Expr::float(1.0)),
            };
            // A projection's output is its own, so the join keeps it.
            let kept = vec![("k", Expr::col(0)), ("q", Expr::col(1))];
            let positive = project(Box::new(positive), kept);
            let avg = aggregate(f(0), vec![0], vec![("avg_p", AggExpr::Avg(Expr::col(2)))]);
            join(positive, avg, JoinType::Inner)
        }
        // Both sides of the join grow (R3, or a decline): 0 k 1 q 2 p 3 s
        // 4 r.k 5 t.
        BOTH_GROW => {
            aggregate(join(f(0), f(1), JoinType::Inner), vec![3], vec![("c", AggExpr::Count)])
        }
        FLOAT_SUM => aggregate(join(f(0), f(1), JoinType::Inner), vec![3], vec![
            ("c", AggExpr::Count),
            ("sp", AggExpr::Sum(Expr::col(2))),
        ]),
        RIGHT_GROUPS => aggregate(join(f(0), f(1), JoinType::Inner), vec![5], vec![
            ("c", AggExpr::Count),
            ("positive", AggExpr::CountIf(Expr::col(1).gt(Expr::float(0.0)))),
        ]),
        FILTERED => {
            let positive = PhysicalPlan::Filter {
                input: Box::new(join(f(0), f(1), JoinType::Inner)),
                predicate: Expr::col(1).gt(Expr::float(0.0)),
            };
            aggregate(positive, vec![3], vec![("c", AggExpr::Count)])
        }
        // 0 k 1 q 2 p 3 s 4 r.k 5 t, NULL on the right of a miss.
        OUTER_APPENDS => PhysicalPlan::Filter {
            input: Box::new(join(f(0), f(1), JoinType::LeftOuter)),
            predicate: Expr::col(2).gt(Expr::float(0.0)),
        },
        // 0 k 1 t 2 r.k 3 q 4 p 5 s
        OUTER_RIGHT_GROUPS => aggregate(join(f(1), f(0), JoinType::LeftOuter), vec![5], vec![
            ("c", AggExpr::Count),
            ("matched", AggExpr::CountIf(Expr::col(2).is_null().negate())),
        ]),
        // An appending output (R1 to the root) under an opaque filter that
        // raises on `k == POISON`.
        _ => PhysicalPlan::Filter {
            input: Box::new(join(f(0), f(1), JoinType::Inner)),
            predicate: Expr::int(100).div(Expr::col(0).sub(Expr::int(POISON))).gt(Expr::float(0.0)),
        },
    }
}

/// The combine run in full over the prepare outputs.
fn full_run(combine: &PhysicalPlan, inputs: &[&DeltaState]) -> Run {
    let mut frags = Catalog::new();
    for (n, input) in inputs.iter().enumerate() {
        frags.insert_shared(format!("@frag{n}"), Arc::clone(input.table()));
    }
    execute_fused(combine, &frags)
}

/// The prepare advanced to `version`: extended when it can be, else
/// computed in full.
fn advance(prepare: &PhysicalPlan, out: &mut DeltaState, version: &CatalogVersion) {
    if out.extend(prepare, &[], version).is_none() {
        *out = DeltaState::compute(prepare, &[], version).expect("runs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Extending k times equals one full run over the final prepares, at
    /// every step, whatever the chunking, the append sizes (empty ones
    /// included) and the shape; shapes and inputs that must decline do,
    /// and leave the state as it was.
    #[test]
    fn extending_k_times_equals_one_full_run(
        (rows, cuts, steps) in (
            rows_of(row()),
            proptest::collection::vec(0usize..64, 1..7),
            proptest::collection::vec(0usize..3, 1..6),
        ),
        (r_rows, r_cuts) in (rows_of(row()), proptest::collection::vec(0usize..64, 0..3)),
        (shape, masks, initial, older) in (0usize..16, 0usize..4, 1usize..3, 0usize..2),
    ) {
        let combine = combine_of(shape);
        let (lp, rp) = (left_prepare(), right_prepare());
        // A mask on every chunk of `l` in a quarter of the cases.
        let masked = masks == 0;
        let mut rows = rows;
        if shape == FIRST_ARRIVALS {
            rows.sort_by_key(|row| row.0);
        }
        let l = chunks_of(&rows, &cuts, |i, r| l_table(&format!("l.c{i}"), r, masked));
        // `r` is one chunk with NULL keys, or grows beside `l` in the shapes
        // that grow it, with NULL keys in half of those cases.
        let grows_r = GROWS_R.contains(&shape);
        let r_nulls = !grows_r || masks >= 2;
        let r_cuts = if grows_r { r_cuts } else { Vec::new() };
        let r = chunks_of(&r_rows, &r_cuts, |i, r| r_table(&format!("r.c{i}"), r, r_nulls));
        let (n_l, n_r) = (l.len(), r.len());
        let mut covered = (initial.min(n_l), 1);
        let v0 = version_of(&l, covered.0, &r, covered.1);
        let mut p0 = DeltaState::compute(&lp, &[], &v0).expect("runs");
        let mut p1 = DeltaState::compute(&rp, &[], &v0).expect("runs");
        let full = full_run(&combine, &[&p0, &p1]);
        let computed_at_v0 = DeltaState::compute(&combine, &[&p0, &p1], &v0);
        let mut state = computed(computed_at_v0, &full, "compute")?;
        let mut counts = steps.clone();
        counts.push(n_l); // the last step appends whatever is left
        for (step, add) in counts.into_iter().enumerate() {
            let next = ((covered.0 + add).min(n_l), (covered.1 + add).min(n_r));
            let ctx = format!("step {step}: {covered:?} -> {next:?} chunks, shape {shape}");
            // A late job's older version: its prepares are not this state's
            // grown by appends, so the state declines and stays as it is.
            if let (true, Some(state)) = (older == 1 && covered.0 > 1, &mut state) {
                let old = version_of(&l, covered.0 - 1, &r, covered.1);
                let o0 = DeltaState::compute(&lp, &[], &old).expect("runs");
                let o1 = DeltaState::compute(&rp, &[], &old).expect("runs");
                let before = (Arc::clone(state.table()), state.work());
                if o0.table().n_rows() < p0.table().n_rows() {
                    let older = state.extend(&combine, &[&o0, &o1], &old);
                    prop_assert_eq!(older, None, "{}: older", ctx);
                }
                prop_assert!(Arc::ptr_eq(state.table(), &before.0), "{}: moved", ctx);
                prop_assert_eq!(state.work(), before.1, "{}: moved", ctx);
            }
            // The input types a full run could normalize differently: an
            // empty projection collapsed to `Int64`, `@frag0`'s before the
            // step or `@frag1`'s when `r` gains its first rows in it.
            let l_empty = p0.table().n_rows() == 0;
            let r_empty = grows_r && p1.table().n_rows() == 0;
            let before = p0.table().n_rows() + p1.table().n_rows();
            let version = version_of(&l, next.0, &r, next.1);
            advance(&lp, &mut p0, &version);
            advance(&rp, &mut p1, &version);
            let collapsed = l_empty || (r_empty && p1.table().n_rows() > 0);
            let full = full_run(&combine, &[&p0, &p1]);
            // New `r` rows interleave with the join's output: only a count
            // directly over the join extends over them (R3). New `l` rows
            // reach the other side of shape 15's join.
            let right_grew = grows_r && next.1 > covered.1;
            let counts_pairs = COUNTS_PAIRS.contains(&shape);
            let l_grew = next.0 > covered.0;
            let extended = match &mut state {
                Some(state) => {
                    // A growth of `r` may decline: a shape that is no count
                    // over the join, or a mask on its new rows (as on `l`'s).
                    let declines = (right_grew && !counts_pairs)
                        || (l_grew && shape == OUTER_RIGHT_GROUPS);
                    let r_declines = right_grew && r_nulls;
                    let must = full.is_ok() && !masked && !collapsed && !r_declines
                        && !declines && shape != STAND_INS;
                    let extended = state.extend(&combine, &[&p0, &p1], &version);
                    prop_assert!(extended.is_some() || !must, "{}: declined", ctx);
                    prop_assert!(extended.is_none() || !declines, "{}: `r` grew", ctx);
                    prop_assert!(extended.is_none() || full.is_ok(), "{}: extended an error", ctx);
                    if let Some(rows) = extended {
                        let after = p0.table().n_rows() + p1.table().n_rows();
                        prop_assert_eq!(rows, after - before, "{}: appended rows", ctx);
                    }
                    extended.is_some()
                }
                None => false,
            };
            if extended {
                same_as(state.as_ref().expect("extended"), &full, &ctx)?;
            } else {
                // Declined or nothing to extend: compute in full.
                let fresh = DeltaState::compute(&combine, &[&p0, &p1], &version);
                state = computed(fresh, &full, &ctx)?;
            }
            covered = next;
        }
    }
}

/// A catalog of `l` and `r`, the prepares and a combine over them as a
/// federated query, and a cache: what the planner-level tests below share.
struct Planner {
    versioned: VersionedCatalog,
    lp: PhysicalPlan,
    rp: PhysicalPlan,
    combine: PhysicalPlan,
    cache: FragmentResultCache,
}

impl Planner {
    fn new(shape: usize) -> Planner {
        let row = |i: i64| (i % 8, i % 7 - 3, i as f64, (i % 6) as usize, 1);
        let rows: Vec<Row> = (0..40).map(row).collect();
        let r_rows: Vec<Row> = (0..9).map(|i| (i, 0, 0.0, (i % 6) as usize, i % 4)).collect();
        let mut base = Catalog::new();
        base.insert("l", l_table("l", &rows, false));
        base.insert("r", r_table("r", &r_rows, true));
        Planner {
            versioned: VersionedCatalog::new(base),
            lp: left_prepare(),
            rp: right_prepare(),
            combine: combine_of(shape),
            cache: FragmentResultCache::new(16 << 20),
        }
    }

    /// Appends `n` rows to `l` and publishes them: the superseded entries
    /// become predecessors.
    fn publish(&self, n: i64) {
        let row = |i: i64| (i % 8, i % 5 - 2, i as f64 * 2.0, (i % 6) as usize, 1);
        let rows: Vec<Row> = (0..n).map(row).collect();
        let (_, superseded) = self
            .versioned
            .append_batch_traced(vec![("l".to_string(), l_table("l", &rows, false))])
            .unwrap();
        self.cache.invalidate_tables(&superseded);
    }

    /// Plans the query at `version` for `tenant`, checks every output
    /// against `profile_fragments`, and runs it with the hand-off (filling
    /// the cache).
    fn plan_and_run(&self, version: &CatalogVersion, tenant: &str) {
        let plans = [
            (&self.lp, Some(0)),
            (&self.rp, Some(1)),
            (&self.combine, None),
        ];
        plan_and_run(&self.cache, &plans, version, tenant);
    }

    /// The combine's predecessor: its slot is its closure's plans over `l`
    /// and `r`, in the shared scope.
    fn combine_predecessor(&self) -> Option<Arc<std::sync::Mutex<DeltaState>>> {
        let plans = PlanFingerprint::of_plans([&self.lp, &self.rp, &self.combine]);
        let tables = vec![("l".to_string(), 0), ("r".to_string(), 0)];
        self.cache
            .predecessor(&CacheKey::new(String::new(), plans, tables))
    }

    /// The combine counters, as `(extended, computed, declined)`.
    fn combines(&self) -> (u64, u64, u64) {
        let PlanningStats {
            combines_extended,
            combines_computed,
            combines_declined,
            ..
        } = self.cache.planning_stats();
        (combines_extended, combines_computed, combines_declined)
    }
}

/// A state whose lock a panic poisoned may be half advanced: planning
/// computes the combine in full beside it and leaves it as it found it.
#[test]
fn a_poisoned_state_is_skipped_not_advanced() {
    let planner = Planner::new(0);
    planner.plan_and_run(&planner.versioned.current(), "h-A");
    planner.publish(6);
    let state = &planner
        .combine_predecessor()
        .expect("the combine's state kept");
    let kept = state.lock().unwrap().table().fingerprint();
    let holder = Arc::clone(state);
    let poisoner = std::thread::spawn(move || {
        let _guard = holder.lock().unwrap();
        panic!("a planner panics while advancing the state");
    });
    assert!(poisoner.join().is_err());
    assert!(state.is_poisoned());
    planner.plan_and_run(&planner.versioned.current(), "h-A");
    assert_eq!(planner.combines(), (0, 2, 0), "the poisoned state was advanced");
    let untouched = state.lock().unwrap_err().into_inner().table().fingerprint();
    assert_eq!(untouched, kept, "the poisoned state moved");
}

/// A job pinned to an older version is planned after a newer job advanced
/// the state: its prepares are not the state's grown by appends, so it
/// computes the combine in full and leaves the state where the newer job
/// put it; the newer version's next plan takes the state as it is.
#[test]
fn a_late_job_computes_its_combine_and_leaves_the_state() {
    let planner = Planner::new(2);
    planner.plan_and_run(&planner.versioned.current(), "h-A");
    planner.publish(6);
    let late = planner.versioned.current();
    // An out-of-band append: a newer version that retires nothing.
    let rows: Vec<Row> = (0..5).map(|i| (i, 1, 1.0, 1, 1)).collect();
    planner.versioned.append_batch(vec![("l".to_string(), l_table("l", &rows, false))]).unwrap();
    let newer = planner.versioned.current();
    planner.plan_and_run(&newer, "h-A");
    assert_eq!(planner.combines(), (1, 1, 0));
    planner.plan_and_run(&late, "h-B");
    assert_eq!(planner.combines(), (1, 2, 1), "the late job extended the newer state");
    planner.plan_and_run(&newer, "h-A");
    assert_eq!(planner.combines(), (2, 2, 1), "the late job moved the state");
}
