//! Differential tests for extending prepares over appended chunks.
//!
//! A row-wise plan (a scan under filters and projections) over a table
//! that only grew by appends is its previous output followed by its output
//! over the new chunks. [`DeltaState::extend`] computes it that way, and
//! must return exactly what one [`execute_fused`] over the final version
//! returns: the same table (name included), fingerprint, work profile, and
//! `Ok`/`Err`. Where it declines (validity masks, disagreeing types, a
//! delta that fails), a full computation stands in.
//!
//! The last test drives the planner's entry point,
//! [`midas_engines::profile_fragments_cached`], through publishes: exact
//! cached outputs, predecessors kept by
//! [`FragmentResultCache::invalidate_tables`] and full computations all
//! hand execution the outputs [`midas_engines::profile_fragments`]
//! computes.

mod common;

use std::sync::Arc;

use common::{chunks_of, computed, plan_and_run, rows_of, same_as};
use midas_engines::cache::{FragmentResultCache, PlanningStats};
use midas_engines::data::{Column, ColumnData, Table, Value};
use midas_engines::expr::Expr;
use midas_engines::ops::{OpKind, PhysicalPlan, WorkProfile};
use midas_engines::version::{CatalogVersion, VersionedCatalog};
use midas_engines::{execute_fused, Catalog, DeltaState, EngineError};
use proptest::prelude::*;

/// Multi-byte text next to ASCII and the empty string.
const WORDS: [&str; 6] = ["alpha", "żółw", "日本語", "naïve", "", "beta"];

/// The divisor the opaque filter subtracts from `a`: a row with `a == 13`
/// raises `DivisionByZero` when the filter reaches it.
const POISON: i64 = 13;

/// One generated row: (a, b, word index, d, null knob).
type Row = (i64, f64, usize, i64, i64);

/// Columns a Int64 (NULL where the knob is 0, when `nulls`), b Float64,
/// s Utf8, d Date.
fn table_of(rows: &[Row], nulls: bool) -> Table {
    named("t", rows, nulls)
}

fn named(name: &str, rows: &[Row], nulls: bool) -> Table {
    let a = ColumnData::Int64(rows.iter().map(|r| r.0).collect());
    let a = if nulls {
        Column::with_validity("a", a, rows.iter().map(|r| r.4 != 0).collect())
    } else {
        Column::new("a", a)
    };
    Table::new(
        name,
        vec![
            a,
            Column::new("b", ColumnData::Float64(rows.iter().map(|r| r.1).collect())),
            Column::new("s", ColumnData::Utf8(rows.iter().map(|r| WORDS[r.2]).collect())),
            Column::new("d", ColumnData::Date(rows.iter().map(|r| r.3 as i32).collect())),
        ],
    )
    .expect("aligned")
}

/// Chunk `i` of `rows`, named `c<i>` (a run over one chunk is named after
/// it, over several after the table), with a validity mask when `masks(i)`.
fn chunks(rows: &[Row], cuts: &[usize], masks: impl Fn(usize) -> bool) -> Vec<Arc<Table>> {
    chunks_of(rows, cuts, |i, rows| {
        named(&format!("c{i}"), rows, masks(i))
    })
}

/// A version holding table `t` as the first `n` of `chunks`.
fn version_of(chunks: &[Arc<Table>], n: usize) -> CatalogVersion {
    common::version_of(&[("t", chunks, n)])
}

fn scan() -> Box<PhysicalPlan> {
    common::scan("t")
}

/// The state of `plan` over `version`, computed in full.
fn compute(plan: &PhysicalPlan, version: &CatalogVersion) -> Result<DeltaState, EngineError> {
    DeltaState::compute(plan, &[], version)
}

/// A total predicate: comparisons and an IN list over multi-byte strings.
fn total(d1: i64, t1: i64, w: usize) -> Expr {
    let words = vec![Value::Utf8(WORDS[w].to_string()), Value::Utf8("żółw".to_string())];
    Expr::col(3)
        .ge(Expr::date(d1 as i32))
        .and(Expr::col(2).in_list(words).or(Expr::col(0).lt(Expr::int(t1))))
}

/// The row-wise plan shapes under test.
fn plan_of(shape: usize, d1: i64, t1: i64, w: usize) -> PhysicalPlan {
    let project = |input: Box<PhysicalPlan>, exprs: Vec<(&str, Expr)>| PhysicalPlan::Project {
        input,
        exprs: exprs.into_iter().map(|(n, e)| (n.to_string(), e)).collect(),
    };
    let filter = |input: Box<PhysicalPlan>, predicate: Expr| PhysicalPlan::Filter { input, predicate };
    match shape {
        0 => filter(scan(), total(d1, t1, w)),
        // Kernel projections and literals over a total filter.
        1 => project(
            Box::new(filter(scan(), total(d1, t1, w))),
            vec![
                ("a", Expr::col(0)),
                ("s", Expr::col(2)),
                ("k", Expr::col(0).mul(Expr::int(3)).add(Expr::col(1))),
                ("lit", Expr::str("ü")),
            ],
        ),
        // Whole columns: zero-copy over one chunk.
        2 => project(scan(), vec![("s", Expr::col(2)), ("d", Expr::col(3))]),
        // A filter over a projection's output.
        3 => filter(
            Box::new(project(
                scan(),
                vec![("x", Expr::col(1).sub(Expr::col(0))), ("s", Expr::col(2))],
            )),
            Expr::col(0).gt(Expr::float(t1 as f64 / 4.0)),
        ),
        // An opaque filter: raises on a row with `a == POISON`.
        4 => project(
            Box::new(filter(
                scan(),
                Expr::int(100).div(Expr::col(0).sub(Expr::int(POISON))).gt(Expr::float(0.0)),
            )),
            vec![("s", Expr::col(2)), ("b", Expr::col(1))],
        ),
        _ => *scan(),
    }
}

/// Whether a full result could differ from an extension only by a global
/// normalization: a projection that selected no row collapses its columns
/// to `Int64`.
fn empty_projection(work: &WorkProfile) -> bool {
    work.ops.iter().any(|op| op.kind == OpKind::Project && op.rows_out == 0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Extending k times equals one full run over the final version, at
    /// every version on the way, whatever the chunking and append sizes.
    #[test]
    fn extending_k_times_equals_one_full_run(
        (mut rows, cuts, steps) in (
            rows_of((-20i64..20, -10.0..10.0f64, 0usize..6, -50i64..50, 0i64..4)),
            proptest::collection::vec(0usize..64, 1..7),
            proptest::collection::vec(0usize..3, 1..6),
        ),
        (shape, d1, t1, w) in (0usize..6, -50i64..50, -20i64..20, 0usize..6),
        (masks, poison, initial) in (0usize..6, 0usize..3, 1usize..3),
    ) {
        // No masks (half the cases), every chunk's, or every other one's.
        let masked = |i: usize| masks == 3 || (masks > 3 && (masks + i).is_multiple_of(2));
        let plan = plan_of(shape, d1, t1, w);
        let n_chunks = cuts.len() + 1;
        let initial = initial.min(n_chunks);
        // The first version's rows never raise; with `poison == 0` one
        // appended row does.
        let first_rows = chunks(&rows, &cuts, masked)[..initial]
            .iter()
            .map(|c| c.n_rows())
            .sum::<usize>();
        for (i, row) in rows.iter_mut().enumerate() {
            if row.0 == POISON && (i < first_rows || poison != 0) {
                row.0 = POISON - 1;
            }
        }
        if poison == 0 && first_rows < rows.len() {
            rows[first_rows].0 = POISON;
        }
        let chunks = chunks(&rows, &cuts, masked);

        let mut covered = initial;
        let v0 = version_of(&chunks, covered);
        let full = execute_fused(&plan, &v0);
        let mut out = computed(compute(&plan, &v0), &full, "compute")?;
        let mut counts = steps.clone();
        counts.push(n_chunks); // the last step appends whatever is left
        for (step, add) in counts.into_iter().enumerate() {
            let next = (covered + add).min(n_chunks);
            let version = version_of(&chunks, next);
            let full = execute_fused(&plan, &version);
            let ctx = format!("step {step}: {covered} -> {next} chunks, shape {shape}");
            let appended: usize = chunks[covered..next].iter().map(|c| c.n_rows()).sum();
            let extended = match &mut out {
                Some(out) => {
                    let must = masks < 3 && full.is_ok() && !empty_projection(&out.work());
                    let rows = out.extend(&plan, &[], &version);
                    prop_assert!(rows.is_some() || !must, "{}: declined to extend", ctx);
                    // A mask on a chunk read or appended declines.
                    let masks_read = (0..next).any(&masked) && next > covered;
                    prop_assert!(rows.is_none() || !masks_read, "{}: extended a mask", ctx);
                    rows
                }
                None => None,
            };
            match extended {
                Some(rows) => {
                    prop_assert_eq!(rows, appended, "{}: appended rows", ctx);
                    same_as(out.as_ref().expect("extended"), &full, &ctx)?;
                }
                // Declined or nothing to extend: compute in full.
                None => out = computed(compute(&plan, &version), &full, &ctx)?,
            }
            covered = next;
        }
    }
}

/// `Table::append` is `Table::concat` of the two, in place where the
/// buffers are the table's own, with the fingerprint memo emptied.
#[test]
fn append_is_concat_in_place() {
    let rows: Vec<Row> = (0..3).map(|i| (i, i as f64, i as usize, i, 1)).collect();
    let (head, tail) = (table_of(&rows[..2], false), table_of(&rows[2..], false));
    let mut grown = head.clone();
    assert_eq!(grown.fingerprint(), head.fingerprint());
    grown.append(&tail).unwrap();
    // The clone's buffers were shared with `head`: they were copied, and
    // `head` kept its rows.
    assert_eq!(head.n_rows(), 2);
    assert_eq!(grown, Table::concat("t", &[&head, &tail]).unwrap());
    assert_eq!(grown.fingerprint(), table_of(&rows, false).fingerprint(), "a stale memo");
    // A buffer of its own grows where it lies.
    let before = Arc::as_ptr(&grown.columns()[2].data);
    grown.append(&tail).unwrap();
    assert_eq!(Arc::as_ptr(&grown.columns()[2].data), before);
    assert_eq!(grown.n_rows(), 4);
    // Masks merge as `concat` merges them.
    let (plain, masked) = (table_of(&rows, false), table_of(&rows, true));
    let mut merged = plain.clone();
    merged.append(&masked).unwrap();
    assert_eq!(merged, Table::concat("t", &[&plain, &masked]).unwrap());
    let other = Table::new("t", vec![Column::new("a", ColumnData::Int64(vec![1]))]).unwrap();
    assert!(matches!(merged.append(&other), Err(EngineError::TypeMismatch { .. })));
}

/// A version that is not the covered one grown by appends is declined; an
/// unchanged version extends by 0. A plan that is not row-wise keeps a
/// state too; a join of the table with itself declines, both sides grown.
#[test]
fn only_a_grown_table_extends() {
    let rows: Vec<Row> = (0..30).map(|i| (i, i as f64, (i % 6) as usize, i, 1)).collect();
    let chunks = chunks(&rows, &[10, 20], |_| false);
    let plan = plan_of(1, -50, 5, 1);
    let mut out = compute(&plan, &version_of(&chunks, 2)).unwrap();
    // Same rows, other chunk handles: not this table grown.
    let copies: Vec<Arc<Table>> = chunks.iter().map(|c| Arc::new((**c).clone())).collect();
    assert_eq!(out.extend(&plan, &[], &version_of(&copies, 3)), None);
    // Fewer chunks than covered: an older version.
    assert_eq!(out.extend(&plan, &[], &version_of(&chunks, 1)), None);
    assert_eq!(out.extend(&plan, &[], &version_of(&chunks, 2)), Some(0));
    assert_eq!(out.extend(&plan, &[], &version_of(&chunks, 3)), Some(10));
    let join = PhysicalPlan::HashJoin {
        left: scan(),
        right: scan(),
        left_keys: vec![0],
        right_keys: vec![0],
        join_type: midas_engines::JoinType::Inner,
    };
    let mut joined = compute(&join, &version_of(&chunks, 1)).unwrap();
    // Both sides of the join grow: declined.
    assert_eq!(joined.extend(&join, &[], &version_of(&chunks, 2)), None);
    assert_eq!(midas_engines::fused::row_wise_table(&plan), Some("t"));
    assert_eq!(midas_engines::fused::row_wise_table(&join), None);
}

/// A projection that selected nothing has collapsed its columns to `Int64`:
/// when the delta projects rows of other types, even rows a later filter
/// drops, the output is not extended over the collapsed types.
#[test]
fn an_empty_projection_lends_no_types() {
    let rows: Vec<Row> = (0..10).map(|i| (i, i as f64, 1, i, 1)).collect();
    // An empty first chunk; `b - a` is 0 on every row, never above 19.75.
    let chunks = chunks(&rows, &[0], |_| false);
    let plan = plan_of(3, 0, 79, 0);
    let mut out = compute(&plan, &version_of(&chunks, 1)).unwrap();
    assert_eq!(out.extend(&plan, &[], &version_of(&chunks, 2)), None);
    let full = execute_fused(&plan, &version_of(&chunks, 2)).unwrap();
    let fresh = compute(&plan, &version_of(&chunks, 2)).unwrap();
    assert_eq!((&**fresh.table(), &fresh.work()), (&full.0, &full.1));
}

/// The sole holder appends in place; a shared table or a column buffer
/// shared with a base chunk is copied first, and its other holders keep
/// their rows.
#[test]
fn extension_appends_in_place_only_where_nothing_else_holds_the_buffers() {
    let rows: Vec<Row> = (0..30).map(|i| (i, i as f64, (i % 6) as usize, i, 1)).collect();
    let chunks = chunks(&rows, &[10, 20], |_| false);
    let whole_columns = plan_of(2, 0, 0, 0);
    let extend = |out: &mut DeltaState, n| out.extend(&whole_columns, &[], &version_of(&chunks, n));
    // Over one chunk the projection shares the chunk's column buffers.
    let mut out = compute(&whole_columns, &version_of(&chunks, 1)).unwrap();
    let chunk_strings = &chunks[0].columns()[2].data;
    assert!(Arc::ptr_eq(&out.table().columns()[0].data, chunk_strings));
    assert_eq!(extend(&mut out, 2), Some(10));
    assert!(!Arc::ptr_eq(&out.table().columns()[0].data, chunk_strings));
    assert_eq!(chunks[0].n_rows(), 10, "the base chunk kept its rows");
    // Now the output owns its buffers: the next extension keeps them.
    let buffer = Arc::as_ptr(&out.table().columns()[0].data);
    let table = Arc::as_ptr(out.table());
    assert_eq!(extend(&mut out, 3), Some(10));
    assert_eq!(Arc::as_ptr(out.table()), table, "the table moved");
    assert_eq!(Arc::as_ptr(&out.table().columns()[0].data), buffer, "the buffer moved");
    // A shared output is copied; the other holder keeps the old rows.
    let mut out = compute(&whole_columns, &version_of(&chunks, 2)).unwrap();
    let held = Arc::clone(out.table());
    assert_eq!(extend(&mut out, 3), Some(10));
    assert_eq!((held.n_rows(), out.table().n_rows()), (20, 30));
    assert_eq!(**out.table(), execute_fused(&whole_columns, &version_of(&chunks, 3)).unwrap().0);
}

/// Planning through the fragment cache across publishes: the first plan
/// computes, a plan at the same version reuses the cached output, and a
/// plan after a publish extends the predecessor the publish kept. Every
/// output is what `profile_fragments` computes, and execution's own hit
/// and miss counts are the ones a cache without predecessors records.
#[test]
fn planning_extends_what_a_publish_retired() {
    let rows: Vec<Row> = (0..40).map(|i| (i, i as f64, (i % 6) as usize, i, 1)).collect();
    let mut base = Catalog::new();
    base.insert("t", table_of(&rows[..25], false));
    let versioned = VersionedCatalog::new(base);
    let prepare = plan_of(1, -50, 5, 1);
    let combine = PhysicalPlan::Filter {
        input: common::scan("@frag0"),
        predicate: Expr::col(0).ge(Expr::int(3)),
    };
    let cache = FragmentResultCache::new(16 << 20);
    let plan_and_run = |version: &CatalogVersion| {
        let run = plan_and_run(
            &cache,
            &[(&prepare, Some(0)), (&combine, None)],
            version,
            "h-A",
        );
        (run.cache_hits, run.reused_fragments)
    };
    // The combine, a filter over the prepare, is computed at version 0 by
    // each plan (no publish has kept its state yet), then extended.
    let stats = |reused, extended, extended_rows, computed, combines: (u64, u64)| PlanningStats {
        reused,
        extended,
        extended_rows,
        computed,
        computed_rows: 25,
        combines_extended: combines.0,
        combines_computed: combines.1,
        combines_declined: 0,
    };

    let v0 = versioned.current();
    assert_eq!(plan_and_run(&v0), (0, 2));
    assert_eq!(cache.planning_stats(), stats(0, 0, 0, 1, (0, 1)));
    assert_eq!(plan_and_run(&v0), (2, 0), "execution hits what it cached");
    assert_eq!(cache.planning_stats(), stats(1, 0, 0, 1, (0, 2)), "planning reused the output");
    let execution = cache.stats();

    for (step, add) in [(1, 10u64), (2, 5)] {
        let (_, superseded) = versioned
            .append_batch_traced(vec![("t".to_string(), table_of(&rows[25..][..add as usize], false))])
            .unwrap();
        let dropped = cache.invalidate_tables(&superseded);
        assert_eq!(dropped, 2, "the prepare and the combine read the table");
        let version = versioned.current();
        assert_eq!(plan_and_run(&version), (0, 2), "step {step}");
        let extended_rows = if step == 1 { 10 } else { 15 };
        let planned = stats(1, step, extended_rows, 1, (step, 2));
        assert_eq!(cache.planning_stats(), planned, "step {step}");
    }
    // Execution counted a miss per fragment after each publish, as a cache
    // without predecessors would.
    let after = cache.stats();
    assert_eq!(after.misses, execution.misses + 4);
    assert_eq!(after.hits, execution.hits);
    assert_eq!(after.invalidations, 4);
}
