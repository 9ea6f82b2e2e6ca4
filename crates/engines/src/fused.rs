//! Morsel-driven fused pipeline executor over **slabs**: one batch shape,
//! whether a table is one contiguous allocation or the chunks of a version
//! that grew by appends.
//!
//! This is the executor that serves; [`crate::ops::execute_scalar`] is its
//! row-at-a-time reference. Four coordinated changes make SF ≥ 1 data
//! survivable, a fifth and a sixth make a table that grows cheap to plan
//! over, and a seventh folds only the groups a join keeps:
//!
//! 1. **Morsels.** Filters, projections and aggregate inputs run over
//!    cache-resident row ranges of [`MORSEL_ROWS`] rows of one slab at a
//!    time ([`SelView::range`] / [`SelView::over`] slices) instead of
//!    whole-column passes, drawing every temporary from one
//!    [`EvalScratch`] pool that is reused across all morsels of a query —
//!    the hot loop stops allocating after the first few morsels and its
//!    working set stays in cache. An aggregate consumes each morsel's
//!    typed kernel result straight into its per-group states
//!    (`ops::aggregate_vec`, over a table or a deferred join), so no
//!    operator holds an input-length temporary: what a fused run
//!    allocates follows what its operators *produce*
//!    (`tests/alloc_census.rs` counts it).
//! 2. **Compiled expression kernels.** Every operator resolves its `Expr`
//!    tree into a [`KernelPlan`] (register steps + deduplicated column
//!    loads) **once**, then replays the plan per morsel — no per-batch
//!    tree walk.
//! 3. **Slab scans + deferred join gather.** Scans resolve through one
//!    [`TableSource`] into a list of slabs — (table, selection) pairs in
//!    row order: a flat catalog's table, a fragment output and a version's
//!    never-appended table are one slab; a multi-chunk `ChunkedTable` is
//!    one slab per chunk, borrowed where it lies. Scan, filter, project
//!    and limit are each one loop over the slabs, so a flat table runs
//!    that loop once and a version that grew by appends never pays `pin()`
//!    compaction (asserted via [`CatalogVersion::compaction_bytes`]
//!    staying 0). This is what the runtime serves from: planning and
//!    execution hand the job's pinned version straight down
//!    ([`crate::exec`]). An operator that needs one contiguous input (a
//!    join side, a sort, a non-deferred aggregate) gathers several slabs
//!    once, per use — the query shapes served here put filter+project
//!    between every base scan and such an operator. Gathering and
//!    concatenating are buffer copies for every type: a string column is
//!    offsets into one byte buffer ([`crate::data::Utf8Column`]), so a
//!    projection over the 17 chunks of an ingested table copies bytes, not
//!    one `String` per row. An `Aggregate`
//!    whose input peels to `[Filter*] → HashJoin` consumes the join as
//!    `(left row, right row, hit)` index triples and gathers **only the
//!    columns its filters, group keys and aggregates actually reference**
//!    — each at most once, full-length, into a sparse side cache
//!    ([`KernelCols::Cols`]) — instead of gathering every column of the
//!    join output. Byte accounting for rows that are never gathered —
//!    a selection, several slabs, the join output — is *virtual*, and
//!    written once (`data::virtual_bytes`): exact integer string totals,
//!    then the float expression `Table::estimated_bytes` applies.
//! 4. **Selection programs.** A filter binds its compiled predicate to
//!    each slab it scans — a table, a chunk, a deferred join's gathered
//!    columns — once ([`KernelPlan::bind_filter`]). When the predicate is
//!    *total* over that slab (can raise nothing: the definition is on
//!    `Expr::total_family`), it binds as a selection program: each morsel
//!    maps its selection to the rows where the predicate is TRUE, without
//!    computing a boolean per row. `Int64`/`Date` comparisons read the
//!    column slices and write row ids branch-free; each `AND` operand runs
//!    on the survivors of the earlier ones, string readers last, so Q12's
//!    `l_shipmode IN (…)` chases ~1 string pointer in 50; `NOT` swaps a
//!    node's TRUE and FALSE rows, so Q13's `NOT (CONTAINS w1 AND CONTAINS
//!    w2)` tests `w2` only where `w1` hit. Same selected rows by
//!    construction; a predicate that is not total runs its single program.
//! 5. **Row-wise outputs extend.** A scan under filters and projections
//!    ([`row_wise_table`]) over a table grown by appends outputs its
//!    previous output followed by its output over the new chunks.
//!    [`RowWiseOutput`] runs the one executor over the appended chunks,
//!    appends in place, and composes the work profile from exact totals;
//!    where a full run's global normalization could differ (validity
//!    masks, disagreeing types) it declines.
//! 6. **Combines extend.** A combine's first full run keeps a delta state
//!    ([`CombineState`]): every operator's exact totals, each aggregate's
//!    per-group states, the preserved rows a left-outer join matched, and a
//!    join side that is an operator's own output. When its prepares only
//!    appended rows, the state advances over those rows, operator by
//!    operator in the full run's post-order, by four rules that follow from
//!    the plan shape and from a join's output order, (left position, right
//!    position):
//!    - **R1, appends.** A scan of an extended prepare, a filter or
//!      projection over appended rows, and an inner join whose left input
//!      only appends and whose right input is unchanged output their old
//!      rows followed by the delta's: the operator runs over the delta
//!      alone (the join with the whole right side).
//!    - **R2, grouped fold.** An aggregate over appended rows keeps its
//!      per-group states: each group continues its fold in row order, so a
//!      float `sum` or `avg` is bit-identical, and new groups follow in
//!      first-seen order (a dense `Int64` key numbers only the new rows,
//!      against a slot table of the old groups' keys).
//!    - **R3, outer join.** An aggregate grouped on the preserved side of a
//!      left-outer join whose preserved side is unchanged and whose other
//!      side only appends keeps integer `Count` / `CountIf` states: the
//!      delta's matches add to them, and a preserved row matched for the
//!      first time withdraws its NULL-extended stand-in.
//!    - **R4, the rest.** An operator above an input that did not only
//!      append runs again over its inputs' whole outputs, which are small
//!      here: Q17's `j1 ⋈ avg_q` → filter → sum, Q13's count of counts →
//!      sort.
//!
//!    Everything else declines to the full run: a mask or a type change on
//!    an appended prepare (as in 5), a prepare of an older version or one
//!    grown by another writer, a join whose two sides grow (Q12's) or whose
//!    right side alone does, a sort or limit over appended rows, a delta
//!    that fails to evaluate. Work profiles compose from exact per-operator
//!    totals, as in 5, so costs, ledgers and fingerprints are what a full
//!    run produces.
//! 7. **Groupjoins.** Two shapes fold in one keyed pass what a join and an
//!    aggregate would otherwise build and discard ([`fused_paths`] says
//!    which a run took):
//!    - **(G) An aggregate grouped on a join's unique left key** (Q13's
//!      counts per customer): `Aggregate ∘ HashJoin` with no filter
//!      between, grouped on exactly the left key, which is one non-NULL
//!      `Int64` column that proves unique once the join's own chains are
//!      built over its positions, every aggregate reading only right
//!      columns (or counting). The groups are the left rows (left-outer)
//!      or the matched left rows (inner), in left order: the first-seen
//!      order of a join output ordered by (left position, right position).
//!      Each matching right row folds straight into its left row's state,
//!      in ascending right order — the order in which a deferred join
//!      hands the same state its rows — so a float `sum` or `avg` is
//!      bit-identical. An unmatched left-outer row holds the fold of one
//!      NULL-extended right row, evaluated once. The Join entry of the
//!      profile comes from the match counts and each column's string
//!      total through `width_bytes`; no index triple, gathered column or
//!      group discovery is built, and R3's `matched` falls out of the
//!      counts.
//!    - **(S) A join over an aggregate grouped on the join key** (Q17's
//!      `j1 ⋈ avg_q`): the left side runs first, as post-order has it, and
//!      its key set decides what the aggregate folds. Every key is still
//!      discovered, in first-seen order, so the aggregate's rows and bytes
//!      and the join's input rows are the unreduced ones; only the rows
//!      of a group whose key the left side holds are folded. Every other
//!      group holds a stand-in, the state of one row of value 0. It applies
//!      when each aggregate is `COUNT(*)` or a `SUM` / `AVG` / `MIN` /
//!      `MAX` of an `Int64` or `Float64` column without a validity mask:
//!      reading one raises nothing on a row that is not folded, and every
//!      group of the full aggregate has a valid value, as the stand-in
//!      does, so the output's types and masks are the full one's. Group
//!      keys are distinct, so a left row matches at most one group and
//!      only groups whose key it holds: the join output reads folded groups
//!      alone, whatever order they are in. A combine's state (§6) keeps
//!      which groups are stand-ins; a group the delta opens has no earlier
//!      rows and folds whole, and an extension declines when a key its
//!      left side gains reaches a stand-in.
//!
//!    Anything else takes the general paths: for (G) a peeled filter,
//!    another group key, an aggregate that reads a left column, a
//!    repeated or NULL left key, a key that is not `Int64`; for (S) a
//!    `COUNT IF` / `SUM IF`, a value that may be NULL or is not a number,
//!    a column the run would fail to find.
//!
//! **Bit-for-bit parity.** For every plan, [`execute_fused`] — over a
//! catalog or over a version — produces the same result [`Table`]
//! (including [`Table::fingerprint`]) and the same [`WorkProfile`] as
//! [`crate::ops::execute_scalar`] over the equivalent flat catalog — the
//! `fused_differential` suite pins flat and chunk-native fused runs
//! against scalar across randomized chunk boundaries.
//! Morsel and slab boundaries are invisible because every
//! normalization (all-NULL collapse, mask dropping, type selection) is
//! applied **globally** after the morsel loop, never per morsel. The one
//! tolerated divergence: when a plan would fail with *multiple distinct
//! errors*, the fused path may surface a different (equally valid) error
//! variant than the row-at-a-time scalar path — `Ok`/`Err` always
//! agrees.
//!
//! **One thread per run.** Joins and group discovery are the single-pass
//! kernels of [`crate::ops`], shared unchanged, and a fragment never
//! spawns: parallelism in this system is workers over jobs (the runtime),
//! which scales 2.1× on two vCPUs where sharding a join or a grouping
//! inside one job measured 0.33–0.76× of the single pass.

use crate::catalog::Catalog;
use crate::data::{
    virtual_bytes, width_bytes, Column, ColumnData, DataType, Table, Utf8Column, Value,
};
use crate::error::EngineError;
use crate::exec::referenced_fragments;
use crate::expr::{BatchVals, EvalScratch, Expr, KernelCols, KernelPlan, NumTy, SelView};
use crate::ops::{
    accumulate_aggs, agg_output_columns, aggregate_vec, dense_group_ids_after, gather_join,
    hash_join_vec, join_key_columns, key_set_groups, serial_group_ids, serial_join_indices,
    sort_sel, AggAcc, AggExpr, AggInput, Batch, JoinType, OpKind, OpWork, PhysicalPlan, TableSlot,
    UniqueKeys, WorkProfile,
};
use crate::version::{CatalogVersion, ChunkedTable};
use std::sync::Arc;

/// Rows per morsel: 16 Ki rows keeps a handful of `f64`/sel temporaries
/// comfortably inside a per-core L2 slice while amortizing per-morsel
/// dispatch to noise.
pub const MORSEL_ROWS: usize = 16 * 1024;

/// Executes `plan` with the morsel-driven fused pipelines over `tables` —
/// a flat [`Catalog`], or one published [`CatalogVersion`] whose
/// [`ChunkedTable`]s are scanned chunk by chunk where they lie, so a hot
/// multi-chunk version is queried without
/// ever materializing a compacted snapshot (`version.compaction_bytes()`
/// stays 0). Result table and [`WorkProfile`] are bit-identical to
/// [`crate::ops::execute_scalar`] over the equivalent flat catalog.
pub fn execute_fused<'a>(
    plan: &PhysicalPlan,
    tables: impl Into<TableSource<'a>>,
) -> Result<(Table, WorkProfile), EngineError> {
    execute_fused_over(plan, &Catalog::new(), tables.into())
}

/// The fused entry point behind [`execute_fused`] and [`crate::exec`]: a
/// scan resolves in `frags` first — a run's per-query catalog of
/// `@frag<N>` outputs — then in `base` (see [`resolve`]).
pub(crate) fn execute_fused_over(
    plan: &PhysicalPlan,
    frags: &Catalog,
    base: TableSource<'_>,
) -> Result<(Table, WorkProfile), EngineError> {
    let mut recorder = Recorder::default();
    let table = run_to_table(plan, frags, base, &mut recorder)?;
    Ok((table, recorder.work))
}

/// A fast path of the fused executor (module docs, §7) that an operator
/// took in place of the general one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedPath {
    /// (G) An aggregate grouped on a join's unique left key folded each
    /// left row's matches in one keyed pass: no join output, not even as
    /// indices.
    Groupjoin,
    /// (S) An aggregate on a join's right, grouped on the join key, folded
    /// only the groups whose key the join's left side holds.
    KeySetAggregate,
}

/// The §7 paths (module docs) that a run of `plan` over `tables` takes, in
/// the order its operators take them; the run is [`execute_fused`]'s. For
/// tests that pin which plans take which path.
pub fn fused_paths<'a>(
    plan: &PhysicalPlan,
    tables: impl Into<TableSource<'a>>,
) -> Result<Vec<FusedPath>, EngineError> {
    let mut recorder = Recorder {
        paths: Some(Vec::new()),
        ..Recorder::default()
    };
    run_to_table(plan, &Catalog::new(), tables.into(), &mut recorder)?;
    Ok(recorder.paths.unwrap_or_default())
}

/// One fused run of `plan` to its materialized output, recording into
/// `recorder`.
fn run_to_table(
    plan: &PhysicalPlan,
    frags: &Catalog,
    base: TableSource<'_>,
    recorder: &mut Recorder,
) -> Result<Table, EngineError> {
    let mut scratch = EvalScratch::new();
    let src = Tables { frags, base };
    let fb = run_fused(plan, &src, recorder, &mut scratch)?;
    Ok(fb.into_flat(&mut scratch).materialize())
}

/// What one fused run records: its work profile and, when its output is to
/// be extended later ([`RowWiseOutput`], [`CombineState`]), every
/// operator's [`OpTotals`] and what a combine's operators keep.
#[derive(Default)]
struct Recorder {
    work: WorkProfile,
    totals: Option<Vec<OpTotals>>,
    kept: Option<Vec<(usize, Kept)>>,
    paths: Option<Vec<FusedPath>>,
}

impl Recorder {
    /// A recorder of every operator's totals, and, with `keep`, of what a
    /// combine's operators keep.
    fn with_totals(keep: bool) -> Recorder {
        Recorder {
            totals: Some(Vec::new()),
            kept: keep.then(Vec::new),
            ..Recorder::default()
        }
    }

    /// Notes that an operator took `path`, when the run records paths.
    fn took(&mut self, path: FusedPath) {
        if let Some(paths) = &mut self.paths {
            paths.push(path);
        }
    }

    /// Records one operator's work; `widths` (its output columns' types and
    /// string totals) is read only when totals are recorded.
    fn op(
        &mut self,
        kind: OpKind,
        rows_in: u64,
        rows_out: u64,
        bytes_out: u64,
        widths: impl FnOnce() -> Vec<(DataType, usize)>,
    ) {
        if let Some(totals) = &mut self.totals {
            let columns = widths();
            debug_assert_eq!(width_bytes(columns.iter().copied(), rows_out as usize), bytes_out);
            totals.push(OpTotals {
                kind,
                rows_in,
                rows_out,
                columns,
            });
        }
        self.work.ops.push(OpWork {
            kind,
            rows_in,
            rows_out,
            bytes_out,
        });
    }

    /// The index the next recorded operator takes.
    fn next_op(&self) -> usize {
        self.work.ops.len()
    }

    /// Whether the run builds a combine's state.
    fn keeps(&self) -> bool {
        self.kept.is_some()
    }

    /// Keeps `kept` for operator `at`, when the run builds a combine's state.
    fn keep(&mut self, at: usize, kept: impl FnOnce() -> Option<Kept>) {
        if let Some(all) = &mut self.kept {
            all.extend(kept().map(|k| (at, k)));
        }
    }

    /// Keeps the join side `side` (operator `at`, computed by `plan`)
    /// whole: a later re-run of the join over a changed other side needs
    /// it ([`CombineState`]). A scan is read again where it lies, and an
    /// aggregate rebuilds its output from its own state; only an
    /// operator's own table, unselected, is kept, and it is moved, not
    /// copied.
    fn keep_side(&mut self, plan: &PhysicalPlan, at: usize, side: Batch<'_>) {
        let rebuilt = matches!(
            plan,
            PhysicalPlan::Scan { .. }
                | PhysicalPlan::PrunedScan { .. }
                | PhysicalPlan::Aggregate { .. }
        );
        if let (false, TableSlot::Owned(t), None) = (rebuilt, side.slot, side.sel) {
            self.keep(at, || Some(Kept::Table(Arc::new(t))));
        }
    }
}

/// Where base-table scans resolve: a flat [`Catalog`] or one published
/// [`CatalogVersion`] read chunk by chunk. Every layer that executes plans
/// over base data — [`crate::exec`], the cost model, the scheduler, the
/// runtime — takes `impl Into<TableSource>`, so a `&Catalog` and a
/// `&CatalogVersion` go down one code path and a version is never
/// compacted on the way.
#[derive(Clone, Copy)]
pub enum TableSource<'a> {
    /// Contiguous tables.
    Flat(&'a Catalog),
    /// Chunked tables of one immutable version.
    Versioned(&'a CatalogVersion),
}

impl<'a> From<&'a Catalog> for TableSource<'a> {
    fn from(catalog: &'a Catalog) -> Self {
        TableSource::Flat(catalog)
    }
}

impl<'a> From<&'a CatalogVersion> for TableSource<'a> {
    fn from(version: &'a CatalogVersion) -> Self {
        TableSource::Versioned(version)
    }
}

impl<'a> From<&'a Arc<CatalogVersion>> for TableSource<'a> {
    fn from(version: &'a Arc<CatalogVersion>) -> Self {
        TableSource::Versioned(version)
    }
}

impl<'a> TableSource<'a> {
    /// Row count of the table registered under `name`.
    pub fn table_rows(&self, name: &str) -> Option<usize> {
        match self {
            TableSource::Flat(c) => c.get(name).map(Table::n_rows),
            TableSource::Versioned(v) => v.table_rows(name),
        }
    }

    /// [`Table::estimated_bytes`] of the table registered under `name` —
    /// for a multi-chunk table, of the contiguous table compaction would
    /// build, to the bit, without building it: what a scan of it records.
    pub fn table_bytes(&self, name: &str) -> Option<u64> {
        self.scan(name).map(|fb| fb.bytes())
    }

    /// The table registered under `name` as the batch a scan of it starts
    /// from, and the one place the slab count is decided: a flat catalog's
    /// table is one slab, a version's table one slab per chunk. A table
    /// that was never appended to *is* its one chunk, name included (that
    /// chunk is what `pin()` hands a flat oracle); one that grew is named
    /// as its compaction would be.
    fn scan(self, name: &str) -> Option<FBatch<'a>> {
        match self {
            TableSource::Flat(c) => c.get(name).map(borrowed),
            TableSource::Versioned(v) => v.table(name).map(|ct| match ct.chunks() {
                [one] => borrowed(one),
                chunks => FBatch {
                    name: ct.name().to_string(),
                    slabs: chunks
                        .iter()
                        .map(|c| Batch::all(TableSlot::Borrowed(c)))
                        .collect(),
                },
            }),
        }
    }
}

/// What one fused run scans (see [`execute_fused_over`]).
struct Tables<'a> {
    frags: &'a Catalog,
    base: TableSource<'a>,
}

/// The one place a scanned name becomes a batch: a fragment output (one
/// slab) shadows the base source's table ([`TableSource::scan`]).
fn resolve<'a>(src: &Tables<'a>, name: &str) -> Result<FBatch<'a>, EngineError> {
    let found = src.frags.get(name).map(borrowed).or_else(|| src.base.scan(name));
    found.ok_or_else(|| EngineError::UnknownTable(name.to_string()))
}

/// A batch flowing between fused operators: a non-empty, row-ordered list
/// of slabs — each a (table, optional selection of slab-local row ids)
/// pair, a [`Batch`] — beside the logical name of the table they are the
/// rows of. A fragment output, an operator's output, a flat catalog's table
/// and a never-appended version table are one slab; a table that grew by
/// appends is one slab per chunk, scanned where the chunks lie. Every
/// operator is one loop over the slabs, so a flat table runs that loop
/// once and chunk boundaries have no code of their own.
struct FBatch<'a> {
    name: String,
    slabs: Vec<Batch<'a>>,
}

/// One slab, named after its table.
fn one_slab(slab: Batch<'_>) -> FBatch<'_> {
    FBatch {
        name: slab.table().name.clone(),
        slabs: vec![slab],
    }
}

fn borrowed(t: &Table) -> FBatch<'_> {
    one_slab(Batch::all(TableSlot::Borrowed(t)))
}

fn owned<'a>(t: Table) -> FBatch<'a> {
    one_slab(Batch::all(TableSlot::Owned(t)))
}

impl<'a> FBatch<'a> {
    /// Logical row count.
    fn len(&self) -> usize {
        self.slabs.iter().map(Batch::len).sum()
    }

    /// [`Table::estimated_bytes`] of the selected rows gathered into one
    /// table, without gathering them: each string column's selected
    /// lengths summed across slabs as exact integers, and the float
    /// expression applied once over the totals — summing per-slab `f64`
    /// subtotals would not reproduce the compacted table's bit pattern.
    fn bytes(&self) -> u64 {
        width_bytes(self.widths(), self.len())
    }

    /// Per column of the slabs' one schema (slabs of one table share it by
    /// construction): its type and the total length of its selected string
    /// values.
    fn widths(&self) -> impl Iterator<Item = (DataType, usize)> + '_ {
        let columns = self.slabs[0].table().columns().iter().enumerate();
        columns.map(move |(ci, c)| {
            let utf8 = self.slabs.iter().map(|b| b.table().utf8_bytes_sel(ci, b.sel_ref())).sum();
            (c.data.data_type(), utf8)
        })
    }

    /// Records one operator's work from its output batch; byte accounting
    /// is identical to measuring the materialized table.
    fn record(&self, profile: &mut Recorder, kind: OpKind, rows_in: u64) {
        let rows_out = self.len() as u64;
        match profile.totals {
            // The widths are summed once and serve both records.
            Some(_) => {
                let columns: Vec<_> = self.widths().collect();
                let bytes_out = width_bytes(columns.iter().copied(), self.len());
                profile.op(kind, rows_in, rows_out, bytes_out, || columns);
            }
            None => profile.op(kind, rows_in, rows_out, self.bytes(), Vec::new),
        }
    }

    /// Returns a consumed batch's selection vectors to the scratch pool.
    fn recycle(self, scratch: &mut EvalScratch) {
        for sel in self.slabs.into_iter().filter_map(|b| b.sel) {
            scratch.put_sel(sel);
        }
    }

    /// The batch as one slab, for an operator that needs one contiguous
    /// input (a join side, a sort, an aggregate) and for the final result.
    /// One slab is returned as it is. Several are gathered into one owned
    /// table, bit-identical to gathering the same selection from the
    /// compacted (pinned) table: per-slab gathers preserve each chunk's
    /// validity-mask presence and [`Table::concat`] forces a combined mask
    /// exactly when any part has one — the rule compaction itself applies.
    /// Every slab contributes a part (even an empty one), so mask presence
    /// never depends on which slabs a selection happens to touch.
    fn into_flat(mut self, scratch: &mut EvalScratch) -> Batch<'a> {
        if self.slabs.len() == 1 {
            return self.slabs.pop().expect("one slab");
        }
        let slabs = self.slabs.iter();
        let gathered: Vec<Option<Table>> =
            slabs.clone().map(|b| b.sel_ref().map(|s| b.table().take_ids(s))).collect();
        let parts: Vec<&Table> =
            slabs.zip(&gathered).map(|(b, g)| g.as_ref().unwrap_or_else(|| b.table())).collect();
        let t = Table::concat(&self.name, &parts).expect("slabs of one table share a schema");
        self.recycle(scratch);
        Batch::all(TableSlot::Owned(t))
    }
}

/// Narrows a slab to `sel`; the selection it replaces returns to the pool.
fn narrow(slab: &mut Batch<'_>, sel: Vec<u32>, scratch: &mut EvalScratch) {
    if let Some(old) = slab.sel.replace(sel) {
        scratch.put_sel(old);
    }
}

/// Drives `f` over the morsels of an `n`-row view (`sel` slices when
/// present, dense `base..` ranges otherwise). An empty view still runs
/// one empty morsel so column validation fires over an empty input too.
pub(crate) fn for_each_morsel<'s>(
    n: usize,
    sel: Option<&'s [u32]>,
    mut f: impl FnMut(SelView<'s>) -> Result<(), EngineError>,
) -> Result<(), EngineError> {
    let mut base = 0usize;
    loop {
        let len = MORSEL_ROWS.min(n - base);
        let sv = match sel {
            Some(s) => SelView::over(len, Some(&s[base..base + len])),
            None => SelView::range(base, len),
        };
        f(sv)?;
        base += len;
        if base >= n {
            break;
        }
    }
    Ok(())
}

/// Runs a compiled predicate morsel-wise over an `n_all`-row binding,
/// returning the selected original row ids (ascending — the rows
/// [`Expr::eval_mask`] marks true, whatever the morsel size).
fn filter_morsels(
    kp: &KernelPlan<'_>,
    cols: &KernelCols<'_>,
    n_all: usize,
    sel: Option<&[u32]>,
    scratch: &mut EvalScratch,
) -> Result<Vec<u32>, EngineError> {
    let n = sel.map_or(n_all, <[u32]>::len);
    let filter = kp.bind_filter(cols);
    let mut acc = scratch.take_sel();
    let mut tmp = scratch.take_sel();
    let res = for_each_morsel(n, sel, |sv| {
        filter.eval_sel_into(&sv, scratch, &mut tmp)?;
        acc.extend_from_slice(&tmp);
        Ok(())
    });
    scratch.put_sel(tmp);
    match res {
        Ok(()) => Ok(acc),
        Err(e) => {
            scratch.put_sel(acc);
            Err(e)
        }
    }
}

// ----- morsel projection -----

/// One projected expression, pre-compiled once per operator.
enum ExprKind<'e> {
    /// Direct column reference — typed gather, exact for the full i64
    /// range (kernels widen integers to `f64`).
    Col(usize),
    /// Literal broadcast, exact for the same reason.
    Lit(&'e Value),
    /// Anything else runs through its compiled kernel plan.
    Kernel(KernelPlan<'e>),
}

/// A projected output column being accumulated morsel by morsel.
struct ExprRun<'e> {
    name: &'e str,
    kind: ExprKind<'e>,
    parts: Vec<Part>,
}

/// One morsel's slice of a projected column, **before** the global
/// normalization (all-NULL collapse, mask dropping) that
/// `column_from_values` semantics require. Normalizing per morsel would
/// let morsel boundaries leak into types and masks; parts stay raw and
/// [`merge_parts`] applies every rule once, globally.
enum Part {
    /// `n` all-NULL rows of undetermined type (a NULL literal morsel).
    Null(usize),
    /// Typed values (defaults in NULL slots) plus an optional mask. The
    /// values are the source column's own buffer when the part is the
    /// whole of a mask-free column ([`part_from_col`]).
    Data {
        data: Arc<ColumnData>,
        validity: Option<Vec<bool>>,
    },
}

impl Part {
    /// A part over freshly built values.
    fn new(data: ColumnData, validity: Option<Vec<bool>>) -> Part {
        Part::Data {
            data: Arc::new(data),
            validity,
        }
    }

    fn len(&self) -> usize {
        match self {
            Part::Null(k) => *k,
            Part::Data { data, .. } => data.len(),
        }
    }

    fn utf8_bytes(&self) -> usize {
        match self {
            Part::Null(_) => 0,
            Part::Data { data, .. } => data.utf8_bytes(),
        }
    }
}

fn compile_projection(exprs: &[(String, Expr)]) -> Vec<ExprRun<'_>> {
    exprs
        .iter()
        .map(|(name, e)| ExprRun {
            name,
            kind: match e {
                Expr::Col(i) => ExprKind::Col(*i),
                Expr::Lit(v) => ExprKind::Lit(v),
                _ => ExprKind::Kernel(e.compile()),
            },
            parts: Vec::new(),
        })
        .collect()
}

/// Evaluates every projected expression over one morsel of `t`, pushing
/// one part per expression.
fn apply_project_morsel(
    runs: &mut [ExprRun<'_>],
    t: &Table,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<(), EngineError> {
    for run in runs.iter_mut() {
        let part = match &run.kind {
            ExprKind::Col(i) => part_from_col(t.column(*i)?, sv),
            ExprKind::Lit(v) => part_from_value(v, sv.len()),
            ExprKind::Kernel(kp) => {
                let bv = kp.eval(&KernelCols::Table(t), sv, scratch)?;
                let part = part_from_bv(&bv, sv);
                scratch.recycle(bv);
                part
            }
        };
        run.parts.push(part);
    }
    Ok(())
}

/// Typed gather of one morsel of a source column; [`merge_parts`]
/// normalizes.
fn part_from_col(col: &Column, sv: &SelView<'_>) -> Part {
    // Every row of an all-valid column, in order: the column's own buffer,
    // shared. (The only dense view a caller passes is a whole slab.)
    if col.validity.is_none() && sv.dense_range() == Some(0..col.len()) {
        return Part::Data {
            data: Arc::clone(&col.data),
            validity: None,
        };
    }
    // A NULL row gathers its type's default, not what its slot holds.
    let rows = (0..sv.len()).map(|pos| {
        let row = sv.row(pos);
        col.is_valid(row).then_some(row)
    });
    let (data, validity) = col.gather_rows(rows, false);
    Part::new(data, validity)
}

/// One morsel of a literal broadcast; [`merge_parts`] normalizes.
fn part_from_value(v: &Value, n: usize) -> Part {
    let data = match v {
        Value::Null => return Part::Null(n),
        Value::Int64(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float64(x) => ColumnData::Float64(vec![*x; n]),
        Value::Utf8(s) => ColumnData::Utf8(Utf8Column::repeat(s, n)),
        Value::Date(d) => ColumnData::Date(vec![*d; n]),
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
    };
    Part::new(data, None)
}

/// One morsel of a kernel result; [`merge_parts`] normalizes.
fn part_from_bv(bv: &BatchVals<'_>, sv: &SelView<'_>) -> Part {
    let n = sv.len();
    match bv {
        BatchVals::ConstNull => Part::Null(n),
        BatchVals::ConstNum { val, ty } => {
            let data = match ty {
                NumTy::Int => ColumnData::Int64(vec![*val as i64; n]),
                NumTy::Float => ColumnData::Float64(vec![*val; n]),
                NumTy::Date => ColumnData::Date(vec![*val as i32; n]),
            };
            Part::new(data, None)
        }
        BatchVals::ConstBool(b) => Part::new(ColumnData::Bool(vec![*b; n]), None),
        BatchVals::ConstStr(s) => Part::new(ColumnData::Utf8(Utf8Column::repeat(s, n)), None),
        BatchVals::Num { vals, valid, ty } => {
            let ok = |p: usize| valid.as_ref().is_none_or(|v| v[p]);
            let data = match ty {
                NumTy::Int => ColumnData::Int64(
                    (0..n).map(|p| if ok(p) { vals[p] as i64 } else { 0 }).collect(),
                ),
                NumTy::Float => ColumnData::Float64(
                    (0..n).map(|p| if ok(p) { vals[p] } else { 0.0 }).collect(),
                ),
                NumTy::Date => ColumnData::Date(
                    (0..n).map(|p| if ok(p) { vals[p] as i32 } else { 0 }).collect(),
                ),
            };
            Part::new(data, valid.clone())
        }
        BatchVals::Bools { vals, valid } => {
            let ok = |p: usize| valid.as_ref().is_none_or(|v| v[p]);
            let data =
                ColumnData::Bool((0..n).map(|p| if ok(p) { vals[p] } else { false }).collect());
            Part::new(data, valid.clone())
        }
        BatchVals::Str { vals, valid } => {
            let validity: Vec<bool> = (0..n)
                .map(|pos| valid.is_none_or(|v| v[sv.row(pos)]))
                .collect();
            let data = vals.gather((0..n).map(|pos| validity[pos].then(|| sv.row(pos))));
            Part::new(ColumnData::Utf8(data), Some(validity))
        }
    }
}

/// Merges one expression's morsel parts into the final output column,
/// applying `column_from_values`'s normalization **globally**: zero total
/// rows collapse to an empty `Int64`, a column with no valid slot
/// anywhere collapses to `Int64` zeros under an all-false mask, and an
/// everywhere-valid mask is dropped. Identical to the scalar projection's
/// column, at every morsel decomposition.
fn merge_parts(name: &str, parts: Vec<Part>) -> Result<Column, EngineError> {
    let n: usize = parts.iter().map(Part::len).sum();
    if n == 0 {
        return Ok(Column::new(name, ColumnData::Int64(Vec::new())));
    }
    let any_valid = parts.iter().any(|p| match p {
        Part::Null(_) => false,
        Part::Data { validity: None, data } => !data.is_empty(),
        Part::Data { validity: Some(v), .. } => v.iter().any(|&ok| ok),
    });
    if !any_valid {
        return Ok(Column::with_validity(
            name,
            ColumnData::Int64(vec![0; n]),
            vec![false; n],
        ));
    }
    // One part covering everything: adopt its buffers outright instead of
    // re-copying them (the common case for single-chunk slabs and pure
    // column projections, which emit one part per slab) — a part that is a
    // whole source column stays shared with it.
    if parts.len() == 1 {
        if let Some(Part::Data { data, validity }) = parts.into_iter().next() {
            return Ok(Column {
                name: name.to_string(),
                data,
                validity: validity.filter(|v| !v.iter().all(|&ok| ok)),
            });
        }
        // LINT: panic-ok — the any_valid check above guarantees at least
        // one typed data part when exactly one part exists.
        unreachable!("any_valid implies the sole part is typed data");
    }
    // A fixed (expr, input schema) pair always yields the same part type
    // in every morsel, so the first typed part decides; a stray drift
    // would be a bug, caught here rather than papered over.
    let ty = parts
        .iter()
        .find_map(|p| match p {
            Part::Data { data, .. } => Some(data.data_type()),
            Part::Null(_) => None,
        })
        .expect("any_valid implies a typed part");
    // A mask is built only when some part has one, or is a NULL morsel.
    let mut validity: Option<Vec<bool>> = parts
        .iter()
        .any(|p| !matches!(p, Part::Data { validity: None, .. }))
        .then(|| Vec::with_capacity(n));
    let drift = || EngineError::TypeMismatch {
        context: "fused projection: morsel part type drift".to_string(),
    };
    // Every part's values are copied once, from where they lie — a shared
    // source column's buffer or a gathered part — string bytes included.
    macro_rules! build {
        ($variant:ident, $default:expr) => {
            build!($variant, Vec::with_capacity(n), $default, extend_from_slice)
        };
        ($variant:ident, $vals:expr, $default:expr, $extend:ident) => {{
            let mut vals = $vals;
            for part in parts {
                match part {
                    Part::Null(k) => {
                        (0..k).for_each(|_| vals.push($default));
                        if let Some(v) = &mut validity {
                            v.extend(std::iter::repeat(false).take(k));
                        }
                    }
                    Part::Data { data, validity: pv } => {
                        match &*data {
                            ColumnData::$variant(v) => vals.$extend(v),
                            _ => return Err(drift()),
                        }
                        match (&mut validity, pv) {
                            (Some(v), Some(pvv)) => v.extend(pvv),
                            (Some(v), None) => v.extend(std::iter::repeat(true).take(data.len())),
                            (None, _) => {}
                        }
                    }
                }
            }
            ColumnData::$variant(vals)
        }};
    }
    let data = match ty {
        DataType::Int64 => build!(Int64, 0i64),
        DataType::Float64 => build!(Float64, 0.0f64),
        DataType::Utf8 => {
            let bytes = parts.iter().map(Part::utf8_bytes).sum();
            build!(Utf8, Utf8Column::with_capacity(n, bytes), "", extend_from)
        }
        DataType::Date => build!(Date, 0i32),
        DataType::Bool => build!(Bool, false),
    };
    Ok(match validity {
        Some(v) if !v.iter().all(|&ok| ok) => Column::with_validity(name, data, v),
        _ => Column::new(name, data),
    })
}

/// Finishes a morsel projection into its output table (named after the
/// input, like the scalar projection's).
fn finish_projection(out_name: &str, runs: Vec<ExprRun<'_>>) -> Result<Table, EngineError> {
    let columns = runs
        .into_iter()
        .map(|r| merge_parts(r.name, r.parts))
        .collect::<Result<Vec<_>, _>>()?;
    Table::new(out_name, columns)
}

/// Projects one (table, selection) slab: kernel expressions run
/// morsel-wise (scratch reuse, cache-resident temporaries); bare column
/// references and literals gain nothing from morselization — they are
/// pure copies — so they emit one part for the whole slab in a single
/// pass: a mask-free column of a selection-free slab is shared, not copied
/// ([`part_from_col`]).
fn project_slab_morsels(
    runs: &mut [ExprRun<'_>],
    t: &Table,
    sel: Option<&[u32]>,
    scratch: &mut EvalScratch,
) -> Result<(), EngineError> {
    let sv_all = SelView::over(t.n_rows(), sel);
    let mut kernel_runs: Vec<&mut ExprRun<'_>> = Vec::new();
    for run in runs.iter_mut() {
        match &run.kind {
            ExprKind::Col(i) => run.parts.push(part_from_col(t.column(*i)?, &sv_all)),
            ExprKind::Lit(v) => run.parts.push(part_from_value(v, sv_all.len())),
            ExprKind::Kernel(_) => kernel_runs.push(run),
        }
    }
    if kernel_runs.is_empty() {
        return Ok(());
    }
    for_each_morsel(sv_all.len(), sel, |sv| {
        for run in kernel_runs.iter_mut() {
            let part = match &run.kind {
                ExprKind::Kernel(kp) => {
                    let bv = kp.eval(&KernelCols::Table(t), &sv, scratch)?;
                    let part = part_from_bv(&bv, &sv);
                    scratch.recycle(bv);
                    part
                }
                // LINT: panic-ok — the run list is built by this module
                // with kernel runs only; other run kinds never enqueue.
                _ => unreachable!("only kernel runs are morselized"),
            };
            run.parts.push(part);
        }
        Ok(())
    })
}

/// The fused filter→project pass over one (table, selection) slab: each
/// morsel evaluates the predicate, extends the accumulated selection (the
/// filter's work accounting needs it), and immediately projects the
/// surviving rows while they are cache-hot — one pass over the data, no
/// intermediate gather of the full selection.
fn filter_project_slab_morsels(
    kp: &KernelPlan<'_>,
    runs: &mut [ExprRun<'_>],
    t: &Table,
    sel: Option<&[u32]>,
    scratch: &mut EvalScratch,
) -> Result<Vec<u32>, EngineError> {
    let cols = KernelCols::Table(t);
    let filter = kp.bind_filter(&cols);
    let n = sel.map_or_else(|| t.n_rows(), <[u32]>::len);
    let mut acc = scratch.take_sel();
    let mut tmp = scratch.take_sel();
    let res = for_each_morsel(n, sel, |sv| {
        filter.eval_sel_into(&sv, scratch, &mut tmp)?;
        acc.extend_from_slice(&tmp);
        let msv = SelView::over(tmp.len(), Some(&tmp));
        apply_project_morsel(runs, t, &msv, scratch)
    });
    scratch.put_sel(tmp);
    match res {
        Ok(()) => Ok(acc),
        Err(e) => {
            scratch.put_sel(acc);
            Err(e)
        }
    }
}

// ----- the fused executor -----

fn run_fused<'a>(
    plan: &PhysicalPlan,
    src: &Tables<'a>,
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    match plan {
        PhysicalPlan::Scan { table } => {
            let fb = resolve(src, table)?;
            fb.record(profile, OpKind::Scan, fb.len() as u64);
            Ok(fb)
        }
        PhysicalPlan::PrunedScan { table, predicate } => {
            let fb = filter_fbatch(resolve(src, table)?, &predicate.compile(), scratch)?;
            // Storage-side pruning: only the surviving rows are charged.
            fb.record(profile, OpKind::Scan, fb.len() as u64);
            Ok(fb)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let nb = filter_fbatch(fb, &predicate.compile(), scratch)?;
            nb.record(profile, OpKind::Filter, rows_in);
            Ok(nb)
        }
        PhysicalPlan::Project { input, exprs } => {
            let mut runs = compile_projection(exprs);
            // Fuse a directly-nested filter into the projection's morsel
            // loop: one pass evaluates the predicate and projects the
            // survivors while they are cache-resident. Work accounting is
            // unchanged — Filter then Project entries, identical numbers.
            let fb = if let PhysicalPlan::Filter {
                input: finner,
                predicate,
            } = &**input
            {
                let mut fb = run_fused(finner, src, profile, scratch)?;
                let rows_in = fb.len() as u64;
                let kp = predicate.compile();
                for b in &mut fb.slabs {
                    let sel = filter_project_slab_morsels(
                        &kp,
                        &mut runs,
                        b.table(),
                        b.sel_ref(),
                        scratch,
                    )?;
                    narrow(b, sel, scratch);
                }
                // The filter's selection serves its work accounting only;
                // the projected parts already hold the rows.
                fb.record(profile, OpKind::Filter, rows_in);
                fb
            } else {
                let fb = run_fused(input, src, profile, scratch)?;
                for b in &fb.slabs {
                    project_slab_morsels(&mut runs, b.table(), b.sel_ref(), scratch)?;
                }
                fb
            };
            let rows_in = fb.len() as u64;
            let out = finish_projection(&fb.name, runs)?;
            fb.recycle(scratch);
            let nb = owned(out);
            nb.record(profile, OpKind::Project, rows_in);
            Ok(nb)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let [(lb, left_at), (rb, right_at)] =
                join_inputs(src, left, right, left_keys, right_keys, profile, scratch)?;
            let rows_in = (lb.len() + rb.len()) as u64;
            let nb = owned(hash_join_vec(&lb, &rb, left_keys, right_keys, *join_type)?);
            nb.record(profile, OpKind::Join, rows_in);
            profile.keep_side(left, left_at, lb);
            profile.keep_side(right, right_at, rb);
            Ok(nb)
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            // Peel directly-nested filters to expose a join core: that
            // shape takes the deferred-gather path (the join output is
            // never materialized — only referenced columns are gathered).
            let mut filters: Vec<&Expr> = Vec::new();
            let mut core: &PhysicalPlan = input;
            while let PhysicalPlan::Filter {
                input: fin,
                predicate,
            } = core
            {
                filters.push(predicate);
                core = fin;
            }
            if let PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                join_type,
            } = core
            {
                filters.reverse(); // innermost (first-executed) first
                return agg_over_join(
                    src, left, right, left_keys, right_keys, *join_type, &filters, group_by,
                    aggs, profile, scratch,
                );
            }
            let b = run_fused(input, src, profile, scratch)?.into_flat(scratch);
            aggregate_batch(b, group_by, aggs, None, profile, scratch)
        }
        PhysicalPlan::Sort { input, by } => {
            let mut b = run_fused(input, src, profile, scratch)?.into_flat(scratch);
            let rows_in = b.len() as u64;
            let sel = sort_sel(&b, by)?;
            narrow(&mut b, sel, scratch);
            let nb = one_slab(b);
            nb.record(profile, OpKind::Sort, rows_in);
            Ok(nb)
        }
        PhysicalPlan::Limit { input, n } => {
            let mut fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let mut remaining = *n;
            for b in &mut fb.slabs {
                let keep = remaining.min(b.len());
                remaining -= keep;
                b.sel = Some(match b.sel.take() {
                    Some(mut s) => {
                        s.truncate(keep);
                        s
                    }
                    None => (0..keep as u32).collect(),
                });
            }
            fb.record(profile, OpKind::Limit, rows_in);
            Ok(fb)
        }
    }
}

/// Narrows every slab of a batch to the rows passing `kp`, morsel-wise.
fn filter_fbatch<'a>(
    mut fb: FBatch<'a>,
    kp: &KernelPlan<'_>,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    for b in &mut fb.slabs {
        let t = b.table();
        let sel = filter_morsels(kp, &KernelCols::Table(t), t.n_rows(), b.sel_ref(), scratch)?;
        narrow(b, sel, scratch);
    }
    Ok(fb)
}

// ----- aggregate over a deferred join -----

/// The selection-aware join output: gather index triples plus a sparse
/// cache of the join columns that downstream expressions actually
/// reference — each gathered at most once, full-length, by the exact
/// `take_ids`/`take_opt_ids` calls materialization would have used (so
/// cached columns are bit-identical to the materialized join's).
struct DeferredJoin<'t> {
    lt: &'t Table,
    rt: &'t Table,
    left_out: Vec<u32>,
    right_out: Vec<u32>,
    right_hit: Vec<bool>,
    lc: usize,
    w: usize,
    /// Index-aligned over the join's `w` output columns; `None` slots were
    /// never referenced (or are out of range — the kernel reports those).
    cache: Vec<Option<Column>>,
    /// Left column names, for `finish_join_output`'s `r.` renaming rule.
    left_names: Vec<String>,
}

impl<'t> DeferredJoin<'t> {
    fn new(
        lt: &'t Table,
        rt: &'t Table,
        left_out: Vec<u32>,
        right_out: Vec<u32>,
        right_hit: Vec<bool>,
    ) -> Self {
        let lc = lt.n_columns();
        let w = lc + rt.n_columns();
        let left_names = lt.columns().iter().map(|c| c.name.clone()).collect();
        DeferredJoin {
            lt,
            rt,
            left_out,
            right_out,
            right_hit,
            lc,
            w,
            cache: (0..w).map(|_| None).collect(),
            left_names,
        }
    }

    /// Output row count.
    fn n(&self) -> usize {
        self.left_out.len()
    }

    /// Gathers join output column `i` into the cache (idempotent).
    /// Out-of-range indices are left for the kernel/column lookup to
    /// report with the join's width, matching the materialized path.
    fn ensure(&mut self, i: usize) {
        if i >= self.w || self.cache[i].is_some() {
            return;
        }
        let col = if i < self.lc {
            self.lt
                .column(i)
                .expect("i < left column count")
                .take_ids(&self.left_out)
        } else {
            let mut c = self
                .rt
                .column(i - self.lc)
                .expect("i < join width")
                .take_opt_ids(&self.right_out, &self.right_hit);
            if self.left_names.contains(&c.name) {
                c.name = format!("r.{}", c.name);
            }
            c
        };
        self.cache[i] = Some(col);
    }

    fn ensure_refs(&mut self, cols: &[usize]) {
        for &c in cols {
            self.ensure(c);
        }
    }

    /// [`Table::estimated_bytes`] of the materialized join output
    /// restricted to the positions `sel` (`None` = all rows), computed from
    /// the gather indices without materializing: left strings contribute
    /// their gathered lengths (including the type-default slots `take_ids`
    /// clones under NULLs), right strings contribute 0 for outer-join
    /// misses (`take_opt_ids` emits empty strings there).
    fn bytes_sel(&self, sel: Option<&[u32]>) -> u64 {
        let n = sel.map_or_else(|| self.n(), <[u32]>::len);
        let columns = self.lt.columns().iter().chain(self.rt.columns());
        virtual_bytes(columns, n, |ci, v| self.utf8_total(ci, v, sel))
    }

    /// What [`DeferredJoin::bytes_sel`] measures, per column: its type and
    /// the total length of its strings at the positions `sel`.
    fn widths_sel(&self, sel: Option<&[u32]>) -> Vec<(DataType, usize)> {
        let n = sel.map_or_else(|| self.n(), <[u32]>::len);
        let columns = self.lt.columns().iter().chain(self.rt.columns());
        let width = |(ci, c): (usize, &Column)| match &*c.data {
            ColumnData::Utf8(v) if n > 0 => (DataType::Utf8, self.utf8_total(ci, v, sel)),
            data => (data.data_type(), 0),
        };
        columns.enumerate().map(width).collect()
    }

    /// The total length of output column `ci`'s strings (`v` its source
    /// column's) at the positions `sel` (`None` = all rows).
    fn utf8_total(&self, ci: usize, v: &Utf8Column, sel: Option<&[u32]>) -> usize {
        /// Sums `len_at` over the positions `sel` (`None` = all `n`).
        fn total(n: usize, sel: Option<&[u32]>, len_at: impl Fn(usize) -> usize) -> usize {
            match sel {
                None => (0..n).map(len_at).sum(),
                Some(s) => s.iter().map(|&p| len_at(p as usize)).sum(),
            }
        }
        if ci < self.lc {
            total(self.n(), sel, |p| v.value_len(self.left_out[p] as usize))
        } else {
            let hit = |p: usize| {
                if self.right_hit[p] { v.value_len(self.right_out[p] as usize) } else { 0 }
            };
            total(self.n(), sel, hit)
        }
    }
}

/// [`AggInput`] over a deferred join: group keys and the aggregates'
/// compiled expressions resolve in the sparse gathered-column cache — the
/// same values, at the same live join positions, as the materialized-join
/// batch, so the shared aggregate's float additions are bit-identical.
impl AggInput for DeferredJoin<'_> {
    fn cols(&mut self, kp: &KernelPlan<'_>) -> KernelCols<'_> {
        self.ensure_refs(kp.referenced_cols());
        KernelCols::Cols(&self.cache)
    }

    fn key_columns(&mut self, keys: &[usize]) -> Result<Vec<&Column>, EngineError> {
        if let Some(&index) = keys.iter().find(|&&g| g >= self.w) {
            return Err(EngineError::ColumnIndex { index, width: self.w });
        }
        self.ensure_refs(keys);
        Ok(keys.iter().map(|&g| self.cache[g].as_ref().expect("ensured above")).collect())
    }
}

/// `Aggregate ∘ [Filter*] ∘ HashJoin` with the join output deferred: the
/// probe emits `(left row, right row, hit)` index triples, peeled filters
/// and aggregates evaluate against lazily-gathered referenced columns
/// only, and the full-width join table is never built. An aggregate
/// grouped on a unique left key skips even the triples (§7, (G)). Profile
/// entries (Join, one Filter per peeled predicate, Aggregate) carry the
/// identical rows/bytes the materializing path records.
#[allow(clippy::too_many_arguments)]
fn agg_over_join<'a>(
    src: &Tables<'a>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    filters: &[&Expr],
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    let [(lb, left_at), (rb, right_at)] =
        join_inputs(src, left, right, left_keys, right_keys, profile, scratch)?;
    let rows_in_join = (lb.len() + rb.len()) as u64;
    // An outer-join fold also keeps which preserved rows have a match: a
    // later match must withdraw the row's NULL-extended stand-in.
    let outer = profile.keeps()
        && filters.is_empty()
        && lb.sel.is_none()
        && outer_fold_shape(join_type, group_by, aggs, lb.table().n_columns());
    let grouped = match filters {
        [] => groupjoin(&lb, &rb, left_keys, right_keys, join_type, group_by, aggs, scratch),
        _ => None,
    };
    let (out, accs, n_live, matched) = match grouped {
        Some(run) => {
            let gj = run?;
            profile.took(FusedPath::Groupjoin);
            let (rows, widths) = (gj.join_rows, gj.join_widths);
            let bytes = width_bytes(widths.iter().copied(), rows);
            profile.op(OpKind::Join, rows_in_join, rows as u64, bytes, || widths);
            let matched = outer.then(|| gj.matches.iter().map(|&m| m > 0).collect());
            (gj.out, gj.accs, rows, matched)
        }
        None => {
            let (lcols, rcols) = join_key_columns(&lb, &rb, left_keys, right_keys)?;
            let (left_out, right_out, right_hit) =
                serial_join_indices(&lb, &rb, &lcols, &rcols, join_type);
            let mut dj = DeferredJoin::new(lb.table(), rb.table(), left_out, right_out, right_hit);
            let n_join = dj.n();
            let bytes = dj.bytes_sel(None);
            profile.op(OpKind::Join, rows_in_join, n_join as u64, bytes, || dj.widths_sel(None));

            // Peeled filters: each evaluates morsel-wise over the live join
            // positions against the sparse cache, never touching
            // unreferenced columns.
            let mut positions: Option<Vec<u32>> = None;
            for predicate in filters {
                let rows_in = positions.as_ref().map_or(n_join, Vec::len) as u64;
                let kp = predicate.compile();
                dj.ensure_refs(kp.referenced_cols());
                let sel = filter_morsels(
                    &kp,
                    &KernelCols::Cols(&dj.cache),
                    n_join,
                    positions.as_deref(),
                    scratch,
                )?;
                let (rows_out, bytes) = (sel.len() as u64, dj.bytes_sel(Some(&sel)));
                profile.op(OpKind::Filter, rows_in, rows_out, bytes, || dj.widths_sel(Some(&sel)));
                if let Some(old) = positions.replace(sel) {
                    scratch.put_sel(old);
                }
            }

            let n_live = positions.as_ref().map_or(n_join, Vec::len);
            let (out, accs) =
                aggregate_vec(&mut dj, positions.as_deref(), n_live, group_by, aggs, scratch)?;
            if let Some(old) = positions {
                scratch.put_sel(old);
            }
            let matched = outer.then(|| {
                let mut matched = vec![false; dj.lt.n_rows()];
                for (&l, &hit) in dj.left_out.iter().zip(&dj.right_hit) {
                    matched[l as usize] |= hit;
                }
                matched
            });
            (out, accs, n_live, matched)
        }
    };
    profile.keep(profile.next_op(), || {
        Some(Kept::Fold(Fold::of(&out, group_by, accs, matched)))
    });
    let nb = owned(out);
    nb.record(profile, OpKind::Aggregate, n_live as u64);
    profile.keep_side(left, left_at, lb);
    profile.keep_side(right, right_at, rb);
    Ok(nb)
}

/// A join's two inputs, each as one slab beside the index of the operator
/// that produced it, run left first (the post-order every profile
/// records). A right input that aggregates on the right join key folds
/// only the groups the left side's keys can keep (§7, (S)).
fn join_inputs<'a>(
    src: &Tables<'a>,
    left: &PhysicalPlan,
    right: &PhysicalPlan,
    left_keys: &[usize],
    right_keys: &[usize],
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<[(Batch<'a>, usize); 2], EngineError> {
    let lb = run_fused(left, src, profile, scratch)?.into_flat(scratch);
    let left_at = profile.next_op() - 1;
    let rb = match (right, left_keys, right_keys) {
        (PhysicalPlan::Aggregate { input, group_by, aggs }, [lk], [0]) if group_by.len() == 1 => {
            let b = run_fused(input, src, profile, scratch)?.into_flat(scratch);
            aggregate_batch(b, group_by, aggs, Some((&lb, *lk)), profile, scratch)?
        }
        _ => run_fused(right, src, profile, scratch)?,
    };
    let rb = rb.into_flat(scratch);
    let right_at = profile.next_op() - 1;
    Ok([(lb, left_at), (rb, right_at)])
}

/// An aggregate over its flattened input `b`, recorded, with its
/// per-group state kept for a combine. With `keys` — the left side and key
/// column of the join whose right input this aggregate is, grouped on the
/// join key — only the groups whose key the left side holds are folded
/// (§7, (S)), when the aggregates allow it.
fn aggregate_batch<'a>(
    b: Batch<'_>,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    keys: Option<(&Batch<'_>, usize)>,
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    let reduced = keys.and_then(|(lb, lk)| key_set_aggregate(&b, group_by, aggs, lb, lk, scratch));
    let (out, accs, folded) = match reduced {
        Some(run) => {
            profile.took(FusedPath::KeySetAggregate);
            run?
        }
        None => {
            let (out, accs) =
                aggregate_vec(&mut b.table(), b.sel_ref(), b.len(), group_by, aggs, scratch)?;
            (out, accs, None)
        }
    };
    profile.keep(profile.next_op(), || {
        let fold = Fold::of(&out, group_by, accs, None);
        Some(Kept::Fold(Fold { folded, ..fold }))
    });
    let nb = owned(out);
    nb.record(profile, OpKind::Aggregate, b.len() as u64);
    if let Some(old) = b.sel {
        scratch.put_sel(old);
    }
    Ok(nb)
}

/// An aggregate's output, its per-group states and, when it folded only
/// some groups (§7, (S)), which.
type Folded = (Table, Vec<AggAcc>, Option<Vec<bool>>);

/// (S): `b` aggregated on its one group column, folding only the groups
/// whose key column `lk` of `lb` holds, under join semantics; every other
/// group is discovered and holds a stand-in ([`AggAcc::stand_in`]).
/// Returns the output, the per-group states and which groups were folded.
/// `None` when the aggregates do not allow it — each must be `COUNT(*)` or
/// a `SUM` / `AVG` / `MIN` / `MAX` of an `Int64` or `Float64` column
/// without a validity mask, whose every group has a valid value the
/// stand-in imitates, and whose reads cannot raise on a row that is not
/// folded — or when a column is missing, for the general path to report.
fn key_set_aggregate(
    b: &Batch<'_>,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    lb: &Batch<'_>,
    lk: usize,
    scratch: &mut EvalScratch,
) -> Option<Result<Folded, EngineError>> {
    let t = b.table();
    let gcol = t.column(*group_by.first()?).ok()?;
    let probe_key = match lb.len() {
        0 => None,
        _ => Some(lb.table().column(lk).ok()?),
    };
    let plain = |e: &Expr| match e {
        Expr::Col(c) => t.column(*c).is_ok_and(|col| {
            col.validity.is_none()
                && matches!(&*col.data, ColumnData::Int64(_) | ColumnData::Float64(_))
        }),
        _ => false,
    };
    let allowed = aggs.iter().all(|(_, agg)| match agg {
        AggExpr::Count => true,
        AggExpr::Sum(e) | AggExpr::Avg(e) | AggExpr::Min(e) | AggExpr::Max(e) => plain(e),
        AggExpr::CountIf(_) | AggExpr::SumIf { .. } => false,
    });
    if !allowed {
        return None;
    }
    let groups = key_set_groups(b.sel_ref(), gcol, b.len(), lb, probe_key);
    let n_groups = groups.reps.len();
    let mut accs: Vec<AggAcc> = aggs.iter().map(|(_, agg)| AggAcc::new(agg, n_groups)).collect();
    let (mut input, n) = (t, groups.rows.len());
    let rows = Some(groups.rows.as_slice());
    let ids = &groups.ids;
    let folded = accumulate_aggs(&mut input, rows, aggs, ids, n_groups, n, &mut accs, scratch);
    if let Err(e) = folded {
        return Some(Err(e));
    }
    for (g, _) in groups.folded.iter().enumerate().filter(|(_, &folded)| !folded) {
        accs.iter_mut().for_each(|acc| acc.stand_in(g));
    }
    let mut columns = vec![gcol.take_ids(&groups.reps)];
    columns.extend(agg_output_columns(aggs, &accs));
    Some(Table::new("agg", columns).map(|out| (out, accs, Some(groups.folded))))
}

/// The expressions an aggregate evaluates.
fn agg_exprs(agg: &AggExpr) -> impl Iterator<Item = &Expr> {
    let exprs = match agg {
        AggExpr::Count => [None, None],
        AggExpr::Sum(e)
        | AggExpr::Avg(e)
        | AggExpr::Min(e)
        | AggExpr::Max(e)
        | AggExpr::CountIf(e) => [Some(e), None],
        AggExpr::SumIf { value, predicate } => [Some(value), Some(predicate)],
    };
    exprs.into_iter().flatten()
}

/// Join-output columns bound by index where only some are present: what a
/// groupjoin's aggregates read (§7, (G)).
struct SparseCols(Vec<Option<Column>>);

impl AggInput for SparseCols {
    fn cols(&mut self, _kp: &KernelPlan<'_>) -> KernelCols<'_> {
        KernelCols::Cols(&self.0)
    }

    fn key_columns(&mut self, keys: &[usize]) -> Result<Vec<&Column>, EngineError> {
        let width = self.0.len();
        let column = |&index: &usize| {
            let found = self.0.get(index).and_then(Option::as_ref);
            found.ok_or(EngineError::ColumnIndex { index, width })
        };
        keys.iter().map(column).collect()
    }
}

/// What a groupjoin (§7, (G)) hands its caller to record: the aggregate's
/// output and per-group states, and the join it stands for — its rows, its
/// output columns' types and string totals, and the matches of each left
/// position.
struct Groupjoin {
    out: Table,
    accs: Vec<AggAcc>,
    join_rows: usize,
    join_widths: Vec<(DataType, usize)>,
    matches: Vec<u32>,
}

/// (G): `Aggregate(group by the left key) ∘ (lb ⋈ rb)` as one keyed pass
/// over the right rows. The left key proves unique once the join's own
/// chains are built over its positions ([`UniqueKeys`]), so each matching
/// right row folds straight into its left position's state, in ascending
/// right order — the order a deferred join's positions hand them to the
/// same state. A left-outer position without a match holds the fold of one
/// NULL-extended right row, evaluated once; an inner join keeps the
/// matched positions, in order.
/// `None` when the shape or the data does not allow it: a group key other
/// than the one left key, an aggregate that reads a left column (or one
/// past the join's width), a left key that is not one non-NULL `Int64`
/// column with unique values, a right key that is not `Int64`.
#[allow(clippy::too_many_arguments)]
fn groupjoin(
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    scratch: &mut EvalScratch,
) -> Option<Result<Groupjoin, EngineError>> {
    let (&[lk], &[rk]) = (left_keys, right_keys) else {
        return None;
    };
    if group_by != [lk] {
        return None;
    }
    let (lt, rt) = (lb.table(), rb.table());
    let (lc, w) = (lt.n_columns(), lt.n_columns() + rt.n_columns());
    // The right columns the aggregates read, where the join output's would be.
    let mut bound: Vec<Option<Column>> = vec![None; w];
    for e in aggs.iter().flat_map(|(_, agg)| agg_exprs(agg)) {
        for &c in e.compile().referenced_cols() {
            if c < lc || c >= w {
                return None;
            }
            if bound[c].is_none() {
                bound[c] = Some(rt.column(c - lc).ok()?.clone());
            }
        }
    }
    let lkey = lt.column(lk).ok()?;
    let (ColumnData::Int64(lkeys), None) = (&*lkey.data, &lkey.validity) else {
        return None;
    };
    let rkey = rt.column(rk).ok()?;
    let ColumnData::Int64(rkeys) = &*rkey.data else {
        return None;
    };
    let (n_left, n_right) = (lb.len(), rb.len());
    let index = UniqueKeys::build(lb, lkeys, n_left + n_right)?;

    let mut input = SparseCols(bound);
    let mut accs: Vec<AggAcc> = aggs.iter().map(|(_, agg)| AggAcc::new(agg, n_left)).collect();
    let mut matches = vec![0u32; n_left];
    let mut right_utf8 = vec![0usize; rt.n_columns()];
    let (mut rows, mut groups) = (scratch.take_sel(), scratch.take_sel());
    rows.reserve(n_right.min(MORSEL_ROWS));
    groups.reserve(n_right.min(MORSEL_ROWS));
    let folded = for_each_morsel(n_right, rb.sel_ref(), |sv| {
        rows.clear();
        groups.clear();
        for p in 0..sv.len() {
            let r = sv.row(p);
            if !rkey.is_valid(r) {
                continue;
            }
            if let Some(l) = index.position(rkeys[r]) {
                rows.push(r as u32);
                groups.push(l as u32);
                matches[l] += 1;
            }
        }
        for (total, c) in right_utf8.iter_mut().zip(rt.columns()) {
            if let ColumnData::Utf8(v) = &*c.data {
                *total += rows.iter().map(|&r| v.value_len(r as usize)).sum::<usize>();
            }
        }
        let n = rows.len();
        accumulate_aggs(&mut input, Some(&rows), aggs, &groups, n_left, n, &mut accs, scratch)
    });
    scratch.put_sel(rows);
    scratch.put_sel(groups);
    if let Err(e) = folded {
        return Some(Err(e));
    }

    let outer = join_type == JoinType::LeftOuter;
    if outer && matches.contains(&0) {
        // What every unmatched position folds: one NULL-extended right row.
        let miss = |c: &Option<Column>| c.as_ref().map(|c| c.take_opt_ids(&[0], &[false]));
        let mut null_row = SparseCols(input.0.iter().map(miss).collect());
        let mut one: Vec<AggAcc> = aggs.iter().map(|(_, agg)| AggAcc::new(agg, 1)).collect();
        if let Err(e) = accumulate_aggs(&mut null_row, None, aggs, &[0], 1, 1, &mut one, scratch) {
            return Some(Err(e));
        }
        for (l, _) in matches.iter().enumerate().filter(|(_, &m)| m == 0) {
            accs.iter_mut().zip(&one).for_each(|(acc, one)| acc.copy_group(l, one, 0));
        }
    }
    let kept: Vec<bool> = matches.iter().map(|&m| outer || m > 0).collect();
    if !outer {
        accs.iter_mut().for_each(|acc| acc.retain_groups(&kept));
    }
    let group_rows: Vec<u32> =
        (0..n_left).filter(|&p| kept[p]).map(|p| lb.row_id(p) as u32).collect();

    // The join the groups stand for: each left position once per match (a
    // left-outer miss once), each matched right row once.
    let times = |m: u32| if outer { m.max(1) } else { m } as usize;
    let join_rows: usize = matches.iter().map(|&m| times(m)).sum();
    let left_widths = lt.columns().iter().map(|c| match &*c.data {
        ColumnData::Utf8(v) if join_rows > 0 => {
            let at = |(p, &m): (usize, &u32)| times(m) * v.value_len(lb.row_id(p));
            (DataType::Utf8, matches.iter().enumerate().map(at).sum())
        }
        data => (data.data_type(), 0),
    });
    let right_widths = rt.columns().iter().zip(&right_utf8).map(|(c, &total)| match &*c.data {
        ColumnData::Utf8(_) if join_rows > 0 => (DataType::Utf8, total),
        data => (data.data_type(), 0),
    });
    let join_widths = left_widths.chain(right_widths).collect();

    let mut columns = vec![lkey.take_ids(&group_rows)];
    columns.extend(agg_output_columns(aggs, &accs));
    Some(Table::new("agg", columns).map(|out| Groupjoin {
        out,
        accs,
        join_rows,
        join_widths,
        matches,
    }))
}

// ----- row-wise outputs, extended over appended chunks -----

/// The base table a *row-wise* plan reads: `Scan` or `PrunedScan` of one
/// table under any number of `Filter` / `Project` nodes, and nothing else,
/// so that each output row depends on one input row alone.
pub fn row_wise_table(plan: &PhysicalPlan) -> Option<&str> {
    match plan {
        PhysicalPlan::Scan { table } | PhysicalPlan::PrunedScan { table, .. } => Some(table),
        PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
            row_wise_table(input)
        }
        _ => None,
    }
}

/// One operator's output as exact totals: its [`OpWork`] rows and, per
/// column, the type and total string length [`width_bytes`] measures. Two
/// runs' totals add up; the bytes are computed once, over the sums.
#[derive(Debug, Clone)]
struct OpTotals {
    kind: OpKind,
    rows_in: u64,
    rows_out: u64,
    columns: Vec<(DataType, usize)>,
}

impl OpTotals {
    /// The totals of an operator that read `rows_in` rows into `out`.
    fn of(kind: OpKind, rows_in: usize, out: &Table) -> OpTotals {
        let columns = out.columns().iter().map(|c| (c.data.data_type(), c.data.utf8_bytes()));
        OpTotals {
            kind,
            rows_in: rows_in as u64,
            rows_out: out.n_rows() as u64,
            columns: columns.collect(),
        }
    }

    fn work(&self) -> OpWork {
        let bytes_out = width_bytes(self.columns.iter().copied(), self.rows_out as usize);
        OpWork {
            kind: self.kind,
            rows_in: self.rows_in,
            rows_out: self.rows_out,
            bytes_out,
        }
    }

    /// This output followed by `delta`'s, as one run over both records it.
    /// An empty delta keeps these types, as the full run does; otherwise
    /// the types must agree (`None`): an empty or all-NULL projection
    /// collapses to `Int64`, where a full run could decide otherwise.
    fn then(&self, delta: &OpTotals) -> Option<OpTotals> {
        let columns = if delta.rows_out == 0 {
            self.columns.clone()
        } else {
            let types = |t: &OpTotals| t.columns.iter().map(|&(ty, _)| ty).collect::<Vec<_>>();
            if types(self) != types(delta) {
                return None;
            }
            let pairs = self.columns.iter().zip(&delta.columns);
            pairs.map(|(&(ty, a), &(_, b))| (ty, a + b)).collect()
        };
        Some(OpTotals {
            kind: self.kind,
            rows_in: self.rows_in + delta.rows_in,
            rows_out: self.rows_out + delta.rows_out,
            columns,
        })
    }

    /// This output without `part`, rows of it: the inverse of
    /// [`OpTotals::then`]. `None` when `part` is not contained in it.
    fn less(&self, part: &OpTotals) -> Option<OpTotals> {
        let columns = if part.rows_out == 0 {
            self.columns.clone()
        } else {
            let pairs = self.columns.iter().zip(&part.columns);
            let less = |(&(ty, a), &(pty, b)): (&(DataType, usize), &(DataType, usize))| {
                (ty == pty).then(|| a.checked_sub(b)).flatten().map(|w| (ty, w))
            };
            pairs.map(less).collect::<Option<Vec<_>>>()?
        };
        Some(OpTotals {
            kind: self.kind,
            rows_in: self.rows_in.checked_sub(part.rows_in)?,
            rows_out: self.rows_out.checked_sub(part.rows_out)?,
            columns,
        })
    }
}

/// Runs `plan` over `version`, recording every operator's [`OpTotals`].
fn run_row_wise(
    plan: &PhysicalPlan,
    version: &CatalogVersion,
) -> Result<(Table, Vec<OpTotals>), EngineError> {
    let mut recorder = Recorder::with_totals(false);
    let table = run_to_table(plan, &Catalog::new(), version.into(), &mut recorder)?;
    let totals = recorder.totals.unwrap_or_default();
    debug_assert_eq!(recorder.work.ops, totals.iter().map(OpTotals::work).collect::<Vec<_>>());
    Ok((table, totals))
}

/// A row-wise plan's output over one state of its base table, with the
/// chunks it covers and every operator's totals: what extending it over
/// appended chunks needs ([`crate::cache`], *Predecessors*). Its table and
/// work are what [`execute_fused`] returns over the version last computed
/// or extended to, bit for bit.
#[derive(Debug, Clone)]
pub struct RowWiseOutput {
    table: Arc<Table>,
    chunks: Vec<Arc<Table>>,
    ops: Vec<OpTotals>,
}

impl RowWiseOutput {
    /// Runs `plan` over `version` in full; `None` when the plan is not
    /// row-wise ([`row_wise_table`]) or its table is not in `version`.
    pub fn compute(
        plan: &PhysicalPlan,
        version: &CatalogVersion,
    ) -> Option<Result<Self, EngineError>> {
        let chunks = version.table(row_wise_table(plan)?)?.chunks().to_vec();
        Some(run_row_wise(plan, version).map(|(table, ops)| RowWiseOutput {
            table: Arc::new(table),
            chunks,
            ops,
        }))
    }

    /// The output table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The work profile of the run that produced [`RowWiseOutput::table`].
    pub fn work(&self) -> WorkProfile {
        WorkProfile {
            ops: self.ops.iter().map(OpTotals::work).collect(),
        }
    }

    /// Advances this output to `version`, whose table's chunks must start
    /// with the ones this output covers, pointer for pointer: the plan runs
    /// over the appended chunks alone, and its output is appended in place
    /// when this output is the table's only holder (after one copy
    /// otherwise). Returns the appended chunks' rows. `None`, with the
    /// output unchanged, when `version` does not extend it, when either
    /// side has a validity mask or their types differ, or when the run
    /// over the new chunks fails: the caller then computes in full.
    pub fn extend(&mut self, plan: &PhysicalPlan, version: &CatalogVersion) -> Option<usize> {
        let grown = version.table(row_wise_table(plan)?)?;
        let (covered, chunks) = (self.chunks.len(), grown.chunks());
        let prefix = self.chunks.iter().zip(chunks).all(|(a, b)| Arc::ptr_eq(a, b));
        if chunks.len() < covered || !prefix {
            return None;
        }
        let appended = &chunks[covered..];
        if appended.is_empty() {
            return Some(0);
        }
        let only_new = ChunkedTable::from_chunks(grown.name(), appended.to_vec()).ok()?;
        let (delta, delta_ops) =
            run_row_wise(plan, &CatalogVersion::from_chunked(vec![only_new])).ok()?;
        let rows = delta.n_rows() > 0;
        if masked(&self.table) || masked(&delta) || (rows && delta.schema() != self.table.schema())
        {
            return None;
        }
        let pairs = self.ops.iter().zip(&delta_ops);
        let ops = pairs.map(|(a, b)| a.then(b)).collect::<Option<Vec<_>>>()?;
        // Over two chunks or more a run is named after the table.
        if rows || self.table.name != grown.name() {
            // LINT: unique-ok — `make_mut` copies the table (and `append`
            // each column buffer) that another holder shares.
            let table = Arc::make_mut(&mut self.table);
            if rows {
                table.append(&delta).ok()?;
            }
            table.name = grown.name().to_string();
        }
        self.chunks = chunks.to_vec();
        self.ops = ops;
        Some(appended.iter().map(|c| c.n_rows()).sum())
    }
}

// ----- combines, extended over the rows their prepares appended -----

/// What a combine's operator keeps between runs ([`CombineState`]).
#[derive(Debug, Clone)]
enum Kept {
    /// A join side's output, whole: a re-run of the join reads it.
    Table(Arc<Table>),
    /// An aggregate's per-group state.
    Fold(Fold),
}

/// An aggregate's per-group state: its output's group-key columns, each
/// aggregate's running state, over a left-outer join which preserved rows
/// have a match and, for an aggregate that folded only the groups a join
/// keeps (§7, (S)), which groups hold their whole fold.
#[derive(Debug, Clone)]
struct Fold {
    keys: Vec<Column>,
    accs: Vec<AggAcc>,
    groups: usize,
    matched: Option<Vec<bool>>,
    /// `None` when every group is folded; otherwise `false` marks a group
    /// whose state is a stand-in, which no join output may read.
    folded: Option<Vec<bool>>,
}

impl Fold {
    /// The state behind `out`, an aggregate's output over `group_by`.
    fn of(out: &Table, group_by: &[usize], accs: Vec<AggAcc>, matched: Option<Vec<bool>>) -> Fold {
        Fold {
            keys: out.columns()[..group_by.len()].to_vec(),
            accs,
            groups: out.n_rows(),
            matched,
            folded: None,
        }
    }

    /// The aggregate's output: the group keys, then one column per
    /// aggregate, as [`aggregate_vec`] assembles them.
    fn output(&self, aggs: &[(String, AggExpr)]) -> Option<Table> {
        let mut columns = self.keys.clone();
        columns.extend(agg_output_columns(aggs, &self.accs));
        Table::new("agg", columns).ok()
    }

    /// The group id of each row of `rows`, discovered after this fold's
    /// groups as one pass over the old groups' keys followed by the rows
    /// would discover them, beside the new key columns when a row opened a
    /// group.
    fn ids(&self, rows: &Table, group_by: &[usize]) -> Option<(Vec<u32>, Option<Vec<Column>>)> {
        let n = rows.n_rows();
        if group_by.is_empty() || n == 0 {
            return Some((vec![0; n], None));
        }
        if let Some(dense) = self.dense_ids(rows, group_by) {
            return Some(dense);
        }
        let old = self.groups;
        let pairs = self.keys.iter().zip(group_by);
        let cols = pairs
            .map(|(key, &g)| concat_columns(key, rows.column(g).ok()?))
            .collect::<Option<Vec<Column>>>()?;
        let (ids, reps) = serial_group_ids(None, &cols.iter().collect::<Vec<_>>(), old + n);
        if reps.len() < old || reps[..old].iter().enumerate().any(|(g, &r)| r as usize != g) {
            return None;
        }
        let keys = (reps.len() > old).then(|| cols.iter().map(|c| c.take_ids(&reps)).collect());
        Some((ids[old..].to_vec(), keys))
    }

    /// [`Fold::ids`] of one non-NULL `Int64` key that is dense over the
    /// old groups' keys and the rows ([`dense_group_ids_after`]): only the
    /// rows are numbered, and no column of both is built unless a row opens
    /// a group. `None` for any other key.
    fn dense_ids(
        &self,
        rows: &Table,
        group_by: &[usize],
    ) -> Option<(Vec<u32>, Option<Vec<Column>>)> {
        let ([key], &[g]) = (&self.keys[..], group_by) else {
            return None;
        };
        let col = rows.column(g).ok()?;
        let (ColumnData::Int64(old), None) = (&*key.data, &key.validity) else {
            return None;
        };
        let (ColumnData::Int64(new), None) = (&*col.data, &col.validity) else {
            return None;
        };
        let (ids, opened) = dense_group_ids_after(old, new)?;
        if opened.is_empty() {
            return Some((ids, None));
        }
        let keys = vec![concat_columns(key, &col.take_ids(&opened))?];
        Some((ids, Some(keys)))
    }

    /// Folds `rows` — the rows after every row folded so far — into the
    /// state, in row order.
    fn absorb(
        &mut self,
        rows: &Table,
        group_by: &[usize],
        aggs: &[(String, AggExpr)],
        scratch: &mut EvalScratch,
    ) -> Option<()> {
        let (ids, keys) = self.ids(rows, group_by)?;
        if let Some(keys) = keys {
            self.groups = keys[0].len();
            self.keys = keys;
        }
        // A group the rows open has no earlier rows: its fold is whole.
        if let Some(folded) = &mut self.folded {
            folded.resize(self.groups, true);
        }
        let mut input = rows;
        let n = rows.n_rows();
        accumulate_aggs(&mut input, None, aggs, &ids, self.groups, n, &mut self.accs, scratch).ok()
    }

    fn bytes(&self) -> u64 {
        let accs: u64 = self.accs.iter().map(AggAcc::bytes).sum();
        let marks = [&self.matched, &self.folded].map(|m| m.as_ref().map_or(0, Vec::len));
        8 * (self.groups * self.keys.len()) as u64 + accs + marks.iter().sum::<usize>() as u64
    }
}

/// `a`'s rows followed by `b`'s, named `a`'s; `None` when their types
/// differ.
fn concat_columns(a: &Column, b: &Column) -> Option<Column> {
    let b = Column {
        name: a.name.clone(),
        ..b.clone()
    };
    let (a, b) = (Table::new("k", vec![a.clone()]).ok()?, Table::new("k", vec![b]).ok()?);
    Table::concat("k", &[&a, &b]).ok()?.columns().first().cloned()
}

/// Whether an aggregate directly over a join of this type keeps integer
/// counts an appended *right* side can extend (R3 in the module docs): a
/// left-outer join, grouped on preserved-side columns, counting.
fn outer_fold_shape(
    join_type: JoinType,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    left_width: usize,
) -> bool {
    join_type == JoinType::LeftOuter
        && group_by.iter().all(|&g| g < left_width)
        && aggs.iter().all(|(_, agg)| matches!(agg, AggExpr::Count | AggExpr::CountIf(_)))
}

/// Whether any column of `t` carries a validity mask.
fn masked(t: &Table) -> bool {
    t.columns().iter().any(|c| c.validity.is_some())
}

/// The `N` of a scan of `@frag<N>`.
pub(crate) fn frag_number(table: &str) -> Option<usize> {
    table.strip_prefix("@frag")?.parse().ok()
}

/// The prepare outputs a combine reads, as the fragment catalog `@frag<N>`.
fn frag_catalog(inputs: &[&RowWiseOutput]) -> Catalog {
    let mut frags = Catalog::new();
    for (n, input) in inputs.iter().enumerate() {
        frags.insert_shared(format!("@frag{n}"), Arc::clone(input.table()));
    }
    frags
}

/// One fragment a combine read, as its state last saw it: the base-table
/// chunks its row-wise prepare covered, its rows, schema and whether any
/// column had a mask.
#[derive(Debug, Clone)]
struct Cover {
    chunks: Vec<Arc<Table>>,
    rows: usize,
    schema: Vec<(String, DataType)>,
    masked: bool,
}

/// How a fragment moved since a combine's state read it.
#[derive(Debug, Clone, Copy)]
enum Growth {
    /// The same rows: the same chunks.
    Same,
    /// Rows appended after the first `n`.
    Appended(usize),
}

impl Cover {
    fn of(output: &RowWiseOutput) -> Cover {
        let table = output.table();
        Cover {
            chunks: output.chunks.clone(),
            rows: table.n_rows(),
            schema: table.schema().into_iter().map(|(n, ty)| (n.to_string(), ty)).collect(),
            masked: masked(table),
        }
    }

    /// How `output`, the same prepare over a later state of its table, grew
    /// from this one; `None` when it is not this output with rows appended
    /// — an older version, another writer's chunks, a schema or type
    /// change — or when either side has a validity mask.
    fn growth(&self, output: &RowWiseOutput) -> Option<Growth> {
        let (table, chunks) = (output.table(), &output.chunks);
        let prefix = self.chunks.iter().zip(chunks).all(|(a, b)| Arc::ptr_eq(a, b));
        if !prefix || chunks.len() < self.chunks.len() || table.n_rows() < self.rows {
            return None;
        }
        let schema = table.schema().into_iter();
        if !schema.eq(self.schema.iter().map(|(n, ty)| (n.as_str(), *ty))) {
            return None;
        }
        if chunks.len() == self.chunks.len() {
            return (table.n_rows() == self.rows).then_some(Growth::Same);
        }
        (!self.masked && !masked(table)).then_some(Growth::Appended(self.rows))
    }
}

/// A combine's output with what extending it over its prepares' appended
/// rows needs (module docs, §6): every operator's exact totals, what its
/// aggregates and join sides keep, and what it read of each prepare. Its
/// table and work are what [`execute_fused`] returns over the prepare
/// outputs last computed or extended to, bit for bit. The kept state is
/// shared between clones, so a clone is cheap and an extension copies what
/// it changes once.
#[derive(Debug, Clone)]
pub struct CombineState {
    table: Arc<Table>,
    ops: Vec<OpTotals>,
    kept: Arc<Vec<Option<Kept>>>,
    inputs: Vec<Option<Cover>>,
}

impl CombineState {
    /// Runs `plan` in full over `inputs` — the prepare outputs the plan
    /// scans as `@frag<N>`, `inputs[N]` — keeping what extending it needs.
    /// The run is the one [`execute_fused`] makes; what it keeps is moved
    /// out of it: each aggregate's per-group states, the preserved rows a
    /// left-outer join matched, a join side that is an operator's output.
    pub fn compute(plan: &PhysicalPlan, inputs: &[&RowWiseOutput]) -> Result<Self, EngineError> {
        let frags = frag_catalog(inputs);
        let mut recorder = Recorder::with_totals(true);
        let table = run_to_table(plan, &frags, (&Catalog::new()).into(), &mut recorder)?;
        let ops = recorder.totals.unwrap_or_default();
        let mut kept = vec![None; ops.len()];
        for (at, k) in recorder.kept.unwrap_or_default() {
            kept[at] = Some(k);
        }
        let mut covers = vec![None; inputs.len()];
        for n in referenced_fragments(plan) {
            // A scan of a fragment past `inputs` failed the run above.
            covers[n] = Some(Cover::of(inputs[n]));
        }
        Ok(CombineState {
            table: Arc::new(table),
            ops,
            kept: Arc::new(kept),
            inputs: covers,
        })
    }

    /// The output table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The work profile of the run that produced [`CombineState::table`].
    pub fn work(&self) -> WorkProfile {
        WorkProfile {
            ops: self.ops.iter().map(OpTotals::work).collect(),
        }
    }

    /// Bytes the state holds beside its output table: what a cache entry
    /// carrying it is charged on top of the table.
    pub(crate) fn bytes(&self) -> u64 {
        let kept = self.kept.iter().flatten().map(|k| match k {
            Kept::Table(t) => t.estimated_bytes(),
            Kept::Fold(fold) => fold.bytes(),
        });
        kept.sum::<u64>() + 64 * self.ops.len() as u64
    }

    /// Advances the state to `inputs`: the same prepares over later states
    /// of their tables, each the output this state read followed by
    /// appended rows (module docs, §6). Returns the appended rows it read,
    /// `Some(0)` when no input changed. `None`, with the state unchanged,
    /// when an input is not the one read grown by appends (an older
    /// version, another writer's chunks, a mask, a type change) or when an
    /// operator cannot extend (both sides of a join grow, a sort over
    /// appended rows, a delta that fails to evaluate): the caller then
    /// computes in full.
    pub fn extend(&mut self, plan: &PhysicalPlan, inputs: &[&RowWiseOutput]) -> Option<usize> {
        let growth = self.inputs.iter().enumerate().map(|(n, cover)| match cover {
            Some(cover) => cover.growth(inputs.get(n)?).map(Some),
            None => Some(None),
        });
        let growth: Vec<Option<Growth>> = growth.collect::<Option<_>>()?;
        if !growth.iter().any(|g| matches!(g, Some(Growth::Appended(_)))) {
            return Some(0);
        }
        let appended = growth.iter().zip(inputs).map(|(g, input)| match g {
            Some(Growth::Appended(from)) => input.table().n_rows() - from,
            _ => 0,
        });
        let appended = appended.sum();
        let frags = frag_catalog(inputs);
        let mut kept = (*self.kept).clone();
        let mut walk = Walk {
            old: &self.ops,
            ops: Vec::with_capacity(self.ops.len()),
            kept: &mut kept,
            growth: &growth,
            frags: &frags,
            deltas: vec![None; growth.len()],
            scratch: EvalScratch::new(),
        };
        let step = walk.node(plan)?;
        let ops = walk.ops;
        if ops.len() != self.ops.len() {
            return None;
        }
        let mut table = Arc::clone(&self.table);
        match step {
            Step::Same => {}
            Step::Appended(delta) => append_to(&mut table, &delta)?,
            Step::Changed(out) => table = out,
        }
        let covers = self.inputs.iter().zip(inputs);
        let covers = covers.map(|(c, input)| c.as_ref().map(|_| Cover::of(input))).collect();
        *self = CombineState {
            table,
            ops,
            kept: Arc::new(kept),
            inputs: covers,
        };
        Some(appended)
    }
}

/// Appends `delta` to `table` and takes its name, as one run over both
/// would name them; a table another holder shares is copied first.
fn append_to(table: &mut Arc<Table>, delta: &Table) -> Option<()> {
    if delta.n_rows() == 0 && table.name == delta.name {
        return Some(());
    }
    // LINT: unique-ok — `make_mut` copies a table another holder shares.
    let t = Arc::make_mut(table);
    if delta.n_rows() > 0 {
        t.append(delta).ok()?;
    }
    t.name = delta.name.clone();
    Some(())
}

/// How an operator's output moved since the state's run.
enum Step {
    /// Unchanged: the operator reads only unchanged fragments.
    Same,
    /// The old output followed by these rows.
    Appended(Arc<Table>),
    /// Replaced by this output.
    Changed(Arc<Table>),
}

/// A join input's step, beside its plan and the index of its operator.
struct Side<'p> {
    plan: &'p PhysicalPlan,
    at: usize,
    step: Step,
}

/// One extension's walk over a combine's plan. Every operator records one
/// [`OpTotals`] in the post-order the full run records them, so the
/// operator at hand is `ops.len()`, and `old[ops.len()]` is its totals at
/// the state's run.
struct Walk<'s> {
    old: &'s [OpTotals],
    ops: Vec<OpTotals>,
    kept: &'s mut [Option<Kept>],
    growth: &'s [Option<Growth>],
    frags: &'s Catalog,
    /// Each appended fragment's new rows, sliced once.
    deltas: Vec<Option<Arc<Table>>>,
    /// One pool of kernel temporaries for every operator the walk runs.
    scratch: EvalScratch,
}

impl Walk<'_> {
    /// The step of `plan`'s operator after its inputs'.
    fn node(&mut self, plan: &PhysicalPlan) -> Option<Step> {
        let step = match plan {
            PhysicalPlan::Scan { table } => self.scan(table)?,
            PhysicalPlan::PrunedScan { table, .. } => match self.growth(table)? {
                Growth::Same => self.same()?,
                Growth::Appended(_) => return None,
            },
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                match self.node(input)? {
                    Step::Same => self.same()?,
                    // R1: a row-wise operator over appended rows appends.
                    Step::Appended(delta) => {
                        let (out, totals) = run_operator(plan, &[&delta], &mut self.scratch)?;
                        let totals = self.old()?.then(&totals)?;
                        self.ops.push(totals);
                        Step::Appended(out)
                    }
                    Step::Changed(input) => self.rerun(plan, &[&input])?,
                }
            }
            PhysicalPlan::Sort { input, .. } | PhysicalPlan::Limit { input, .. } => {
                match self.node(input)? {
                    Step::Same => self.same()?,
                    Step::Changed(input) => self.rerun(plan, &[&input])?,
                    Step::Appended(_) => return None,
                }
            }
            PhysicalPlan::HashJoin { left, right, .. } => {
                let (l, r) = (self.side(left)?, self.side(right)?);
                self.join(plan, &l, &r)?
            }
            PhysicalPlan::Aggregate { input, .. } => match &**input {
                PhysicalPlan::HashJoin { left, right, .. } => {
                    let (l, r) = (self.side(left)?, self.side(right)?);
                    if let (Step::Same, Step::Appended(delta)) = (&l.step, &r.step) {
                        if self.counts_matches(self.ops.len() + 1) {
                            return self.outer_fold(plan, input, &l, delta);
                        }
                    }
                    let joined = self.join(input, &l, &r)?;
                    self.keep_current(&joined)?;
                    self.aggregate(plan, joined)?
                }
                _ => {
                    let input = self.node(input)?;
                    self.aggregate(plan, input)?
                }
            },
        };
        self.keep_current(&step)?;
        Some(step)
    }

    /// The step of a join input.
    fn side<'p>(&mut self, plan: &'p PhysicalPlan) -> Option<Side<'p>> {
        let step = self.node(plan)?;
        Some(Side {
            plan,
            at: self.ops.len() - 1,
            step,
        })
    }

    /// The state's totals of the operator at hand.
    fn old(&self) -> Option<&OpTotals> {
        self.old.get(self.ops.len())
    }

    /// The operator at hand did not move.
    fn same(&mut self) -> Option<Step> {
        let totals = self.old()?.clone();
        self.ops.push(totals);
        Some(Step::Same)
    }

    /// R4: the operator at hand runs again over its inputs' whole outputs.
    fn rerun(&mut self, plan: &PhysicalPlan, inputs: &[&Arc<Table>]) -> Option<Step> {
        let (out, totals) = run_operator(plan, inputs, &mut self.scratch)?;
        self.ops.push(totals);
        Some(Step::Changed(out))
    }

    fn growth(&self, table: &str) -> Option<Growth> {
        *self.growth.get(frag_number(table)?)?
    }

    /// A scan of a fragment: unchanged, or appended by its new rows (R1).
    fn scan(&mut self, table: &str) -> Option<Step> {
        let Growth::Appended(from) = self.growth(table)? else {
            return self.same();
        };
        let n = frag_number(table)?;
        let delta = match &self.deltas[n] {
            Some(delta) => Arc::clone(delta),
            None => {
                let t = self.frags.get(table)?;
                let rows: Vec<u32> = (from as u32..t.n_rows() as u32).collect();
                let delta = Arc::new(t.take_ids(&rows));
                self.deltas[n] = Some(Arc::clone(&delta));
                delta
            }
        };
        let totals = self.old()?.then(&OpTotals::of(OpKind::Scan, delta.n_rows(), &delta))?;
        self.ops.push(totals);
        Some(Step::Appended(delta))
    }

    /// A join of two inputs' steps.
    fn join(&mut self, plan: &PhysicalPlan, l: &Side<'_>, r: &Side<'_>) -> Option<Step> {
        let PhysicalPlan::HashJoin { join_type, .. } = plan else {
            return None;
        };
        match (&l.step, &r.step) {
            (Step::Same, Step::Same) => self.same(),
            // R1: output is ordered by (left position, right position), so
            // rows appended on the left append their matches.
            (Step::Appended(delta), Step::Same) if *join_type == JoinType::Inner => {
                let right = self.whole(r)?;
                self.reaches_folded_only(plan, r, delta, &right)?;
                let (out, totals) = run_operator(plan, &[delta, &right], &mut self.scratch)?;
                let old = self.old()?;
                let totals = OpTotals {
                    rows_in: old.rows_in + delta.n_rows() as u64,
                    ..old.then(&totals)?
                };
                self.ops.push(totals);
                Some(Step::Appended(out))
            }
            (Step::Changed(_), _) | (_, Step::Changed(_)) => {
                let (left, right) = (self.whole(l)?, self.whole(r)?);
                match &l.step {
                    Step::Same => {}
                    Step::Appended(delta) => self.reaches_folded_only(plan, r, delta, &right)?,
                    Step::Changed(_) => self.reaches_folded_only(plan, r, &left, &right)?,
                }
                self.rerun(plan, &[&left, &right])
            }
            // Both sides grow, or new right rows would interleave.
            _ => None,
        }
    }

    /// `Some` unless `gained` — left rows a join's left side gained — reach
    /// a stand-in of the right aggregate `r`, whose whole output is
    /// `right`: a group its key set left unfolded (§7, (S)), whose state
    /// lacks the rows before this delta. Every key the left side held
    /// before reaches only folded groups, so only gained keys are checked;
    /// a group the delta opened has no earlier rows and is folded.
    fn reaches_folded_only(
        &self,
        plan: &PhysicalPlan,
        r: &Side<'_>,
        gained: &Table,
        right: &Table,
    ) -> Option<()> {
        match self.kept.get(r.at)? {
            Some(Kept::Fold(Fold {
                folded: Some(folded),
                ..
            })) if gained.n_rows() > 0 => reads_folded_only(plan, gained, right, folded),
            _ => Some(()),
        }
    }

    /// An aggregate over its input's step.
    fn aggregate(&mut self, plan: &PhysicalPlan, input: Step) -> Option<Step> {
        let PhysicalPlan::Aggregate { group_by, aggs, .. } = plan else {
            return None;
        };
        match input {
            Step::Same => self.same(),
            // R2: each group continues its fold in row order; new groups
            // follow in first-seen order.
            Step::Appended(delta) => {
                let at = self.ops.len();
                let rows_in = self.old()?.rows_in + delta.n_rows() as u64;
                let Some(Kept::Fold(fold)) = self.kept.get_mut(at)? else {
                    return None;
                };
                fold.absorb(&delta, group_by, aggs, &mut self.scratch)?;
                let out = fold.output(aggs)?;
                self.ops.push(OpTotals::of(OpKind::Aggregate, rows_in as usize, &out));
                Some(Step::Changed(Arc::new(out)))
            }
            // R4; the fold no longer describes the input.
            Step::Changed(input) => {
                let at = self.ops.len();
                *self.kept.get_mut(at)? = None;
                self.rerun(plan, &[&input])
            }
        }
    }

    /// Whether the aggregate at `at` keeps the matched rows of the
    /// left-outer join it reads (R3).
    fn counts_matches(&self, at: usize) -> bool {
        matches!(self.kept.get(at), Some(Some(Kept::Fold(Fold { matched: Some(_), .. }))))
    }

    /// R3: an aggregate counting over `left ⟕ right`, where the left side
    /// is unchanged and `delta` was appended on the right. The delta's
    /// matches fold in; a preserved row matched for the first time
    /// withdraws its NULL-extended stand-in. Counts are integers, so this
    /// is exact in any order.
    fn outer_fold(
        &mut self,
        plan: &PhysicalPlan,
        join: &PhysicalPlan,
        l: &Side<'_>,
        delta: &Arc<Table>,
    ) -> Option<Step> {
        let PhysicalPlan::Aggregate { group_by, aggs, .. } = plan else {
            return None;
        };
        let PhysicalPlan::HashJoin {
            left_keys,
            right_keys,
            ..
        } = join
        else {
            return None;
        };
        let left = self.whole(l)?;
        let at = self.ops.len();
        let old_join = self.old()?.clone();
        let Some(Kept::Fold(fold)) = self.kept.get_mut(at + 1)? else {
            return None;
        };
        let mut matched = fold.matched.take()?;
        if matched.len() != left.n_rows() {
            return None;
        }
        let lb = Batch::all(TableSlot::Borrowed(&left));
        let rb = Batch::all(TableSlot::Borrowed(delta));
        let (lo, ro, hit) = {
            let (lcols, rcols) = join_key_columns(&lb, &rb, left_keys, right_keys).ok()?;
            serial_join_indices(&lb, &rb, &lcols, &rcols, JoinType::Inner)
        };
        let mut first_match = |&l: &u32| !std::mem::replace(&mut matched[l as usize], true);
        let first: Vec<u32> = lo.iter().copied().filter(|l| first_match(l)).collect();
        fold.matched = Some(matched);
        let pairs = gather_join(&left, delta, &lo, &ro, &hit).ok()?;
        let misses = (vec![0; first.len()], vec![false; first.len()]);
        let stand_ins = gather_join(&left, delta, &first, &misses.0, &misses.1).ok()?;
        let (pair_ids, opened) = fold.ids(&pairs, group_by)?;
        let (stand_in_ids, opened_too) = fold.ids(&stand_ins, group_by)?;
        if opened.is_some() || opened_too.is_some() {
            return None;
        }
        let scratch = &mut self.scratch;
        let groups = fold.groups;
        let mut input = &pairs;
        let n = pairs.n_rows();
        accumulate_aggs(&mut input, None, aggs, &pair_ids, groups, n, &mut fold.accs, scratch)
            .ok()?;
        let mut withdrawn: Vec<AggAcc> =
            aggs.iter().map(|(_, agg)| AggAcc::new(agg, groups)).collect();
        let (mut input, n) = (&stand_ins, stand_ins.n_rows());
        accumulate_aggs(&mut input, None, aggs, &stand_in_ids, groups, n, &mut withdrawn, scratch)
            .ok()?;
        for (acc, gone) in fold.accs.iter_mut().zip(&withdrawn) {
            acc.withdraw(gone)?;
        }
        let out = fold.output(aggs)?;
        let added = OpTotals::of(OpKind::Join, delta.n_rows(), &pairs);
        let join = old_join.then(&added)?.less(&OpTotals::of(OpKind::Join, 0, &stand_ins))?;
        let rows_in = join.rows_out as usize;
        self.ops.push(join);
        self.ops.push(OpTotals::of(OpKind::Aggregate, rows_in, &out));
        let step = Step::Changed(Arc::new(out));
        self.keep_current(&step)?;
        Some(step)
    }

    /// A join input's whole output: a changed one's, a kept one's, or an
    /// unchanged one's run again.
    fn whole(&self, side: &Side<'_>) -> Option<Arc<Table>> {
        let kept = match self.kept.get(side.at)? {
            Some(Kept::Table(t)) => Some(Arc::clone(t)),
            _ => None,
        };
        match &side.step {
            Step::Changed(out) => Some(Arc::clone(out)),
            Step::Appended(_) => kept,
            Step::Same => kept.or_else(|| {
                let mut recorder = Recorder::default();
                let base = Catalog::new();
                let run = run_to_table(side.plan, self.frags, (&base).into(), &mut recorder);
                run.ok().map(Arc::new)
            }),
        }
    }

    /// Keeps a kept join side current with the step of its operator, the
    /// last one recorded.
    fn keep_current(&mut self, step: &Step) -> Option<()> {
        let at = self.ops.len() - 1;
        if let Some(Kept::Table(t)) = self.kept.get_mut(at)? {
            match step {
                Step::Same => {}
                Step::Appended(delta) => append_to(t, delta)?,
                Step::Changed(out) => *t = Arc::clone(out),
            }
        }
        Some(())
    }
}

/// `Some` when the join `plan` of `left` and `right` — an aggregate's
/// output, row `g` its group `g` — matches no group that `folded` marks as
/// a stand-in.
fn reads_folded_only(
    plan: &PhysicalPlan,
    left: &Table,
    right: &Table,
    folded: &[bool],
) -> Option<()> {
    let PhysicalPlan::HashJoin {
        left_keys,
        right_keys,
        ..
    } = plan
    else {
        return None;
    };
    let lb = Batch::all(TableSlot::Borrowed(left));
    let rb = Batch::all(TableSlot::Borrowed(right));
    let (lcols, rcols) = join_key_columns(&lb, &rb, left_keys, right_keys).ok()?;
    let (_, groups, hits) = serial_join_indices(&lb, &rb, &lcols, &rcols, JoinType::Inner);
    let folded = |g: u32| folded.get(g as usize).copied().unwrap_or(false);
    (!groups.iter().zip(&hits).any(|(&g, &hit)| hit && !folded(g))).then_some(())
}

/// Runs `plan`'s own operator over `inputs`, its inputs' outputs in order,
/// returning its output and totals.
fn run_operator(
    plan: &PhysicalPlan,
    inputs: &[&Arc<Table>],
    scratch: &mut EvalScratch,
) -> Option<(Arc<Table>, OpTotals)> {
    let input = |k: usize| {
        Box::new(PhysicalPlan::Scan {
            table: format!("@in{k}"),
        })
    };
    let operator = match plan {
        PhysicalPlan::Filter { predicate, .. } => PhysicalPlan::Filter {
            input: input(0),
            predicate: predicate.clone(),
        },
        PhysicalPlan::Project { exprs, .. } => PhysicalPlan::Project {
            input: input(0),
            exprs: exprs.clone(),
        },
        PhysicalPlan::HashJoin {
            left_keys,
            right_keys,
            join_type,
            ..
        } => PhysicalPlan::HashJoin {
            left: input(0),
            right: input(1),
            left_keys: left_keys.clone(),
            right_keys: right_keys.clone(),
            join_type: *join_type,
        },
        PhysicalPlan::Aggregate { group_by, aggs, .. } => PhysicalPlan::Aggregate {
            input: input(0),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
        PhysicalPlan::Sort { by, .. } => PhysicalPlan::Sort {
            input: input(0),
            by: by.clone(),
        },
        PhysicalPlan::Limit { n, .. } => PhysicalPlan::Limit {
            input: input(0),
            n: *n,
        },
        PhysicalPlan::Scan { .. } | PhysicalPlan::PrunedScan { .. } => return None,
    };
    let mut frags = Catalog::new();
    for (k, t) in inputs.iter().enumerate() {
        frags.insert_shared(format!("@in{k}"), Arc::clone(t));
    }
    let mut recorder = Recorder::with_totals(false);
    let empty = Catalog::new();
    let src = Tables {
        frags: &frags,
        base: (&empty).into(),
    };
    let out = run_fused(&operator, &src, &mut recorder, scratch).ok()?;
    let table = out.into_flat(scratch).materialize();
    let totals = recorder.totals?.pop()?;
    Some((Arc::new(table), totals))
}
