//! Morsel-driven fused pipeline executor over **slabs**: one batch shape,
//! whether a table is one contiguous allocation or the chunks of a version
//! that grew by appends.
//!
//! This is the executor that serves; [`crate::ops::execute_scalar`] is its
//! row-at-a-time reference. Four coordinated changes make SF ≥ 1 data
//! survivable, a fifth makes a table that grows cheap to plan over, and a
//! sixth folds only the groups a join keeps:
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
//!    one slab per chunk, borrowed where it lies. Scan, filter and project
//!    are each one loop over the slabs, so a flat table runs that loop
//!    once and a version that grew by appends never pays `pin()`
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
//! 5. **Fragment outputs extend.** A fragment's first full run keeps a
//!    delta state ([`DeltaState`]): every operator's exact totals, each
//!    aggregate's per-group states, the preserved rows a left-outer join
//!    matched, a join side that is an operator's own output, and what it
//!    read of each source. When its sources only appended (a base table's
//!    chunks start with the ones read, pointer for pointer; an input
//!    fragment's rows with the ones read), the state advances over the
//!    new rows, operator by operator in the full run's post-order, by four
//!    rules that follow from the plan shape and from a join's output order,
//!    (left position, right position):
//!    - **R1, appends.** One rule at every row-wise operator, a scan
//!      included: a scan of an appended source appends its new rows (a
//!      base table's new chunk where it lies, an input's new rows), and a
//!      filter or projection over appended rows appends its own step
//!      (`apply`) over them alone; each operator's totals continue its old
//!      ones. So does a join, inner or left-outer, whose left input only
//!      appends and whose right input is unchanged: its new rows are R3's,
//!      all after its old ones.
//!    - **R2, grouped fold.** An aggregate over appended rows keeps its
//!      per-group states: each group continues its fold in row order, so a
//!      float `sum` or `avg` is bit-identical, and new groups follow in
//!      first-seen order (a dense `Int64` key numbers only the new rows,
//!      against a slot table of the old groups' keys).
//!    - **R3, join pairs.** A join whose inputs only appended gains `ΔL ⋈ R
//!      ∪ L′ ⋈ ΔR` (the bilinear rule of DBSP), found one way as `(left,
//!      right, hit)` positions: the left side's new rows probe a key index
//!      over the right side's old rows that the join keeps (`ops::KeyIndex`:
//!      the join's own chains and direct slots, newest first), built by the
//!      first extension that needs it and linked to each right delta once an
//!      extension commits, so an extension costs its delta, not a pass over
//!      the right side, and a full run builds nothing; a left-outer row that
//!      matches nothing is a miss. The right side's new rows, after every
//!      old one, probe the whole left side once. When the right side is
//!      unchanged these rows append (R1). Otherwise they interleave with the
//!      old ones, and only an aggregate of integer `Count` / `CountIf`
//!      states directly over the join may fold them, through the deferred
//!      join, gathering only the columns it counts: counts are exact in any
//!      order. Over a left-outer join it must group on the preserved side,
//!      and a preserved row matched for the first time withdraws its
//!      NULL-extended stand-in; every old preserved row already has its
//!      group, so only the new ones, after them, open groups. Over an inner
//!      join the groups keep the full run's first-seen order: each group
//!      keeps the left position of its first row, a new row at an earlier
//!      left position moves its group's first sighting, a new group takes
//!      its place by its first row, and the groups are reordered to match.
//!    - **R4, the rest.** An operator above an input that did not only
//!      append takes its own step again — the one a full run takes,
//!      `apply` or `join` — over its inputs' whole outputs, which are
//!      small here: Q17's `j1 ⋈ avg_q` → filter → sum, Q13's count of
//!      counts → sort, Q12's sort of its two groups.
//!
//!    Everything else declines to the full run: a validity mask on a
//!    source's rows, a type change (an empty or all-NULL projection
//!    collapses its columns to `Int64`), a source of an older version or
//!    grown by another writer, an input that is not row-wise over sources
//!    that only append, a join whose right side grows under anything but
//!    R3's count — a float aggregate, an operator between the join and the
//!    aggregate, a left-outer count grouped on the other side — a sort
//!    over appended rows, a delta that fails to evaluate. Work
//!    profiles compose from exact per-operator totals, so costs, ledgers
//!    and fingerprints are what a full run produces.
//! 6. **Groupjoins.** Two shapes fold in one keyed pass what a join and an
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
//!      alone, whatever order they are in. A delta state (§5) keeps
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
use crate::exec::for_each_scan;
use crate::expr::{BatchVals, EvalScratch, Expr, KernelCols, KernelPlan, NumTy, SelView};
use crate::ops::{
    accumulate_aggs, agg_output_columns, aggregate_vec, dense_group_ids_after, gather_join,
    hash_join_vec, join_key_columns, key_set_groups, serial_group_ids, serial_join_indices,
    sort_sel, AggAcc, AggExpr, AggInput, Batch, JoinType, KeyIndex, OpKind, OpWork, PhysicalPlan,
    TableSlot, UniqueKeys, WorkProfile,
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
    execute_fused_over(plan, &[], tables.into())
}

/// The fused entry point behind [`execute_fused`] and [`crate::exec`]: a
/// scan of `@frag<N>` resolves to `frags[N]` — the outputs of a run's
/// earlier fragments, by position — and every other scan in `base` (see
/// [`resolve`]).
pub(crate) fn execute_fused_over(
    plan: &PhysicalPlan,
    frags: &[Arc<Table>],
    base: TableSource<'_>,
) -> Result<(Table, WorkProfile), EngineError> {
    let mut recorder = Recorder::default();
    let table = run_to_table(plan, frags, base, &mut recorder)?;
    Ok((table, recorder.work))
}

/// A fast path of the fused executor (module docs, §6) that an operator
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

/// The §6 paths (module docs) that a run of `plan` over `tables` takes, in
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
    run_to_table(plan, &[], tables.into(), &mut recorder)?;
    Ok(recorder.paths.unwrap_or_default())
}

/// One fused run of `plan` to its materialized output, recording into
/// `recorder`.
fn run_to_table(
    plan: &PhysicalPlan,
    frags: &[Arc<Table>],
    base: TableSource<'_>,
    recorder: &mut Recorder,
) -> Result<Table, EngineError> {
    let mut scratch = EvalScratch::new();
    let src = Tables { frags, base };
    let fb = run_fused(plan, &src, recorder, &mut scratch)?;
    Ok(fb.into_flat(&mut scratch).materialize())
}

/// What one fused run records: its work profile and, when its output is to
/// be extended later ([`DeltaState`]), every operator's [`OpTotals`] and
/// what its operators keep.
#[derive(Default)]
struct Recorder {
    work: WorkProfile,
    totals: Option<Vec<OpTotals>>,
    kept: Option<Vec<(usize, Kept)>>,
    paths: Option<Vec<FusedPath>>,
}

impl Recorder {
    /// A recorder of every operator's totals, and, with `keep`, of what the
    /// operators keep.
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

    /// Whether the run builds a delta state.
    fn keeps(&self) -> bool {
        self.kept.is_some()
    }

    /// Keeps `kept` for operator `at`, when the run builds a delta state.
    fn keep(&mut self, at: usize, kept: impl FnOnce() -> Option<Kept>) {
        if let Some(all) = &mut self.kept {
            all.extend(kept().map(|k| (at, k)));
        }
    }

    /// Keeps the join side `side` (operator `at`, computed by `plan`)
    /// whole: a later re-run of the join over a changed other side needs
    /// it ([`DeltaState`]). A scan is read again where it lies, and an
    /// aggregate rebuilds its output from its own state; only an
    /// operator's own table, unselected, is kept, and it is moved, not
    /// copied.
    fn keep_side(&mut self, plan: &PhysicalPlan, at: usize, side: Batch<'_>) {
        let rebuilt = matches!(
            plan,
            PhysicalPlan::Scan { .. } | PhysicalPlan::Aggregate { .. }
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
    /// build, to the bit, without building it: what a scan of it records
    /// (`FBatch::bytes` over its chunks), read off the chunks without
    /// building the scan's batch.
    pub fn table_bytes(&self, name: &str) -> Option<u64> {
        let chunks: &[Arc<Table>] = match *self {
            TableSource::Flat(c) => std::slice::from_ref(c.get_shared(name)?),
            TableSource::Versioned(v) => v.table(name)?.chunks(),
        };
        let rows = chunks.iter().map(|c| c.n_rows()).sum();
        Some(width_bytes(slab_widths(chunks.iter().map(|c| (&**c, None))), rows))
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
    frags: &'a [Arc<Table>],
    base: TableSource<'a>,
}

/// The one place a scanned name becomes a batch: `@frag<N>` is the
/// fragment output at position `N` (one slab), and a name no position
/// holds is the base source's table ([`TableSource::scan`]).
fn resolve<'a>(src: &Tables<'a>, name: &str) -> Result<FBatch<'a>, EngineError> {
    let frag = frag_number(name).and_then(|n| src.frags.get(n));
    let found = frag.map(|t| borrowed(t)).or_else(|| src.base.scan(name));
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

/// Per column of `slabs`' one schema (slabs of one table share it by
/// construction): its type and the total length of its string values,
/// each slab's selected rows only (all of them without a selection). What
/// [`width_bytes`] turns into a byte count, for a scan's batch
/// ([`FBatch::bytes`]) and for a table read without one
/// ([`TableSource::table_bytes`]) alike.
fn slab_widths<'s>(
    slabs: impl Iterator<Item = (&'s Table, Option<&'s [u32]>)> + Clone + 's,
) -> impl Iterator<Item = (DataType, usize)> + 's {
    let first = slabs.clone().next().map(|(table, _)| table.columns());
    first.unwrap_or_default().iter().enumerate().map(move |(ci, c)| {
        let utf8 = slabs.clone().map(|(table, sel)| table.utf8_bytes_sel(ci, sel)).sum();
        (c.data.data_type(), utf8)
    })
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

    /// [`slab_widths`] of the batch's slabs.
    fn widths(&self) -> impl Iterator<Item = (DataType, usize)> + '_ {
        slab_widths(self.slabs.iter().map(|b| (b.table(), b.sel_ref())))
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

// ----- the fused executor -----

/// One fused run of `plan`, in post-order: a scan resolves its table, the
/// two fused shapes run their inputs and their own step in one — an
/// aggregate over `[Filter*] → HashJoin` ([`agg_over_join`]) and a join,
/// whose (S) right input sees its left side's keys ([`join_inputs`]) — and
/// every other operator is [`apply`]d to its input's batch.
fn run_fused<'a>(
    plan: &PhysicalPlan,
    src: &Tables<'a>,
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    let input = match plan {
        PhysicalPlan::Scan { table } => {
            let fb = resolve(src, table)?;
            fb.record(profile, OpKind::Scan, fb.len() as u64);
            return Ok(fb);
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
            let nb = join(&lb, &rb, left_keys, right_keys, *join_type, profile)?;
            profile.keep_side(left, left_at, lb);
            profile.keep_side(right, right_at, rb);
            return Ok(nb);
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
            input
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Sort { input, .. } => input,
    };
    let fb = run_fused(input, src, profile, scratch)?;
    apply(plan, fb, profile, scratch)
}

/// The step of `op`, a one-input operator — Filter, Project, Aggregate or
/// Sort — over `fb`, its input's batch, already computed: its output,
/// recorded. Every Filter and Project of a full run takes this step, as
/// does the delta walk with an input it has in hand (§5, R1 and R4), so a
/// projection over a filter reads the filter's selection. A join's step is
/// [`join`].
fn apply<'a>(
    op: &PhysicalPlan,
    fb: FBatch<'a>,
    profile: &mut Recorder,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    let rows_in = fb.len() as u64;
    let (nb, kind) = match op {
        PhysicalPlan::Filter { predicate, .. } => (
            filter_fbatch(fb, &predicate.compile(), scratch)?,
            OpKind::Filter,
        ),
        PhysicalPlan::Project { exprs, .. } => {
            let mut runs = compile_projection(exprs);
            for b in &fb.slabs {
                project_slab_morsels(&mut runs, b.table(), b.sel_ref(), scratch)?;
            }
            let columns = runs
                .into_iter()
                .map(|r| merge_parts(r.name, r.parts))
                .collect::<Result<Vec<_>, _>>()?;
            // Named after the input, like the scalar projection's output.
            let out = Table::new(&fb.name, columns)?;
            fb.recycle(scratch);
            (owned(out), OpKind::Project)
        }
        PhysicalPlan::Aggregate { group_by, aggs, .. } => {
            let b = fb.into_flat(scratch);
            return aggregate_batch(b, group_by, aggs, None, profile, scratch);
        }
        PhysicalPlan::Sort { by, .. } => {
            let mut b = fb.into_flat(scratch);
            let sel = sort_sel(&b, by)?;
            narrow(&mut b, sel, scratch);
            (one_slab(b), OpKind::Sort)
        }
        // LINT: panic-ok — `run_fused` resolves scans and joins itself,
        // and `run_step` applies one-input operators only.
        PhysicalPlan::Scan { .. } | PhysicalPlan::HashJoin { .. } => {
            unreachable!("a scan or a join is not a one-input step")
        }
    };
    nb.record(profile, kind, rows_in);
    Ok(nb)
}

/// The step of a hash join over its two sides, each one slab, already
/// computed: its output, recorded.
fn join<'a>(
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
    profile: &mut Recorder,
) -> Result<FBatch<'a>, EngineError> {
    let rows_in = (lb.len() + rb.len()) as u64;
    let nb = owned(hash_join_vec(lb, rb, left_keys, right_keys, join_type)?);
    nb.record(profile, OpKind::Join, rows_in);
    Ok(nb)
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

    /// The totals of the join output as one run's operator records them,
    /// with no rows read.
    fn totals(&self) -> OpTotals {
        OpTotals {
            kind: OpKind::Join,
            rows_in: 0,
            rows_out: self.n() as u64,
            columns: self.widths_sel(None),
        }
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
/// grouped on a unique left key skips even the triples (§6, (G)). Profile
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
    // A count directly over the join keeps what folding the join's new
    // rows needs (§5, R3): over a left-outer join, which preserved rows
    // have a match, since a later match withdraws the row's NULL-extended
    // stand-in; over an inner join, each group's first left position, since
    // a later row may open a group or reach one earlier.
    let counts = profile.keeps()
        && filters.is_empty()
        && lb.sel.is_none()
        && rb.sel.is_none()
        && counts_join_shape(join_type, group_by, aggs, lb.table().n_columns());
    let outer = counts && join_type == JoinType::LeftOuter;
    let pairs = counts && join_type == JoinType::Inner;
    let grouped = match filters {
        [] => groupjoin(&lb, &rb, left_keys, right_keys, join_type, group_by, aggs, scratch),
        _ => None,
    };
    let (out, accs, n_live, matched, firsts) = match grouped {
        Some(run) => {
            let gj = run?;
            profile.took(FusedPath::Groupjoin);
            let (rows, widths) = (gj.join_rows, gj.join_widths);
            let bytes = width_bytes(widths.iter().copied(), rows);
            profile.op(OpKind::Join, rows_in_join, rows as u64, bytes, || widths);
            let matched = outer.then(|| gj.matches.iter().map(|&m| m > 0).collect());
            // The groups are the matched left positions, in order.
            let firsts = pairs.then(|| {
                let matches = gj.matches.iter().enumerate().filter(|(_, &m)| m > 0);
                matches.map(|(p, _)| p as u32).collect()
            });
            (gj.out, gj.accs, rows, matched, firsts)
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
            let (out, accs, reps) =
                aggregate_vec(&mut dj, positions.as_deref(), n_live, group_by, aggs, scratch)?;
            let firsts = pairs.then(|| reps.iter().map(|&rep| dj.left_out[rep as usize]).collect());
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
            (out, accs, n_live, matched, firsts)
        }
    };
    profile.keep(profile.next_op(), || {
        let fold = Fold::of(&out, group_by, accs, matched);
        Some(Kept::Fold(Fold { firsts, ..fold }))
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
/// only the groups the left side's keys can keep (§6, (S)).
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
/// per-group state kept for a delta state. With `keys` — the left side and key
/// column of the join whose right input this aggregate is, grouped on the
/// join key — only the groups whose key the left side holds are folded
/// (§6, (S)), when the aggregates allow it.
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
            let (out, accs, _) =
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
/// some groups (§6, (S)), which.
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
/// groupjoin's aggregates read (§6, (G)).
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

/// What a groupjoin (§6, (G)) hands its caller to record: the aggregate's
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

// ----- delta states: fragment outputs extended over appended rows -----

/// The source a *row-wise* plan reads: a `Scan` of one table under any
/// number of `Filter` / `Project` nodes, and nothing else, so that each
/// output row depends on one input row alone.
pub fn row_wise_table(plan: &PhysicalPlan) -> Option<&str> {
    match plan {
        PhysicalPlan::Scan { table } => Some(table),
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

/// What an operator keeps between runs ([`DeltaState`]).
#[derive(Debug, Clone)]
enum Kept {
    /// A join side's output, whole: a re-run of the join reads it.
    Table(Arc<Table>),
    /// An aggregate's per-group state.
    Fold(Fold),
}

/// An aggregate's per-group state: its output's group-key columns, each
/// aggregate's running state, over a left-outer join that it counts which
/// preserved rows have a match, over an inner join that it counts each
/// group's first left position (R3) and, for an aggregate that folded only
/// the groups a join keeps (§6, (S)), which groups hold their whole fold.
#[derive(Debug, Clone)]
struct Fold {
    keys: Vec<Column>,
    accs: Vec<AggAcc>,
    groups: usize,
    matched: Option<Vec<bool>>,
    /// The left position of each group's first row in the join output.
    firsts: Option<Vec<u32>>,
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
            firsts: None,
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

    /// The group id of each of the `n` rows of `rows`, discovered after
    /// this fold's groups as one pass over the old groups' keys followed by
    /// the rows would discover them, beside the new key columns when a row
    /// opened a group.
    fn ids(
        &self,
        rows: &mut dyn AggInput,
        n: usize,
        group_by: &[usize],
    ) -> Option<(Vec<u32>, Option<Vec<Column>>)> {
        if group_by.is_empty() || n == 0 {
            return Some((vec![0; n], None));
        }
        let cols = rows.key_columns(group_by).ok()?;
        if let Some(dense) = self.dense_ids(&cols) {
            return Some(dense);
        }
        let old = self.groups;
        let pairs = self.keys.iter().zip(&cols);
        let cols = pairs
            .map(|(key, col)| concat_columns(key, col))
            .collect::<Option<Vec<Column>>>()?;
        let (ids, reps) = serial_group_ids(None, &cols.iter().collect::<Vec<_>>(), old + n);
        if reps.len() < old || reps[..old].iter().enumerate().any(|(g, &r)| r as usize != g) {
            return None;
        }
        let keys = (reps.len() > old).then(|| cols.iter().map(|c| c.take_ids(&reps)).collect());
        Some((ids[old..].to_vec(), keys))
    }

    /// [`Fold::ids`] of one non-NULL `Int64` key column `cols` that is
    /// dense over the old groups' keys and the rows
    /// ([`dense_group_ids_after`]): only the rows are numbered, and no
    /// column of both is built unless a row opens a group. `None` for any
    /// other key.
    fn dense_ids(&self, cols: &[&Column]) -> Option<(Vec<u32>, Option<Vec<Column>>)> {
        let ([key], [col]) = (&self.keys[..], cols) else {
            return None;
        };
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

    /// Folds the `n` rows of `rows` — the rows after every row folded so
    /// far, or any rows of a count — into the state, in row order,
    /// returning each row's group.
    fn absorb(
        &mut self,
        rows: &mut dyn AggInput,
        n: usize,
        group_by: &[usize],
        aggs: &[(String, AggExpr)],
        scratch: &mut EvalScratch,
    ) -> Option<Vec<u32>> {
        let (ids, keys) = self.ids(rows, n, group_by)?;
        if let Some(keys) = keys {
            self.groups = keys[0].len();
            self.keys = keys;
        }
        // A group the rows open has no earlier rows: its fold is whole.
        if let Some(folded) = &mut self.folded {
            folded.resize(self.groups, true);
        }
        accumulate_aggs(rows, None, aggs, &ids, self.groups, n, &mut self.accs, scratch).ok()?;
        Some(ids)
    }

    /// R3: folds `rows`, new rows of the join this state counts — left
    /// positions counted from `from`, ascending by (left, right) position,
    /// each after the old rows' right positions or their left ones — into
    /// the state. Counts add in any order; over an inner join the groups
    /// are then put back in first-seen order: a group keeps its first row
    /// unless a new row at an earlier left position reached it, and a
    /// group's rows at one left position follow the old ones there, by
    /// right position. Over a left-outer join every old preserved row has
    /// its group already, so only the new ones, after them, open groups,
    /// and the order holds as it is.
    fn absorb_pairs(
        &mut self,
        rows: &mut DeferredJoin<'_>,
        from: usize,
        group_by: &[usize],
        aggs: &[(String, AggExpr)],
        scratch: &mut EvalScratch,
    ) -> Option<()> {
        let n = rows.n();
        let ids = self.absorb(rows, n, group_by, aggs, scratch)?;
        let Some(firsts) = &self.firsts else {
            return self.matched.is_some().then_some(());
        };
        if group_by.is_empty() {
            return Some(());
        }
        // Each group's first new row: the rows ascend.
        let mut first_new: Vec<Option<(u32, u32)>> = vec![None; self.groups];
        let at = rows.left_out.iter().zip(&rows.right_out);
        for (&g, (&l, &r)) in ids.iter().zip(at) {
            first_new[g as usize].get_or_insert((from as u32 + l, r));
        }
        // (left position, then an old first row before a new one, then the
        // old order or the right position).
        let first = |g: usize| match (firsts.get(g), first_new[g]) {
            (Some(&l), Some((nl, r))) if nl < l => (nl, 1, r),
            (Some(&l), _) => (l, 0, g as u32),
            (None, Some((nl, r))) => (nl, 1, r),
            (None, None) => (u32::MAX, 1, u32::MAX),
        };
        let mut order: Vec<u32> = (0..self.groups as u32).collect();
        order.sort_by_key(|&g| first(g as usize));
        let firsts: Vec<u32> = order.iter().map(|&g| first(g as usize).0).collect();
        if order.iter().enumerate().any(|(i, &g)| i as u32 != g) {
            self.keys = self.keys.iter().map(|key| key.take_ids(&order)).collect();
            for acc in &mut self.accs {
                let AggAcc::Counts(counts) = acc else {
                    return None;
                };
                *counts = order.iter().map(|&g| counts[g as usize]).collect();
            }
        }
        self.firsts = Some(firsts);
        Some(())
    }

    /// R3: takes the `n` rows of `rows` — the NULL-extended stand-ins of
    /// preserved rows matched for the first time — out of the counts.
    fn withdraw(
        &mut self,
        rows: &mut dyn AggInput,
        n: usize,
        group_by: &[usize],
        aggs: &[(String, AggExpr)],
        scratch: &mut EvalScratch,
    ) -> Option<()> {
        let (ids, None) = self.ids(rows, n, group_by)? else {
            return None;
        };
        let mut gone: Vec<AggAcc> =
            aggs.iter().map(|(_, agg)| AggAcc::new(agg, self.groups)).collect();
        accumulate_aggs(rows, None, aggs, &ids, self.groups, n, &mut gone, scratch).ok()?;
        for (acc, gone) in self.accs.iter_mut().zip(&gone) {
            acc.withdraw(gone)?;
        }
        Some(())
    }

    fn bytes(&self) -> u64 {
        let accs: u64 = self.accs.iter().map(AggAcc::bytes).sum();
        let marks = [&self.matched, &self.folded].map(|m| m.as_ref().map_or(0, Vec::len));
        let firsts = 4 * self.firsts.as_ref().map_or(0, Vec::len);
        let marks = marks.iter().sum::<usize>() + firsts;
        8 * (self.groups * self.keys.len()) as u64 + accs + marks as u64
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
/// counts, exact in any order, that the join's interleaved new rows can
/// extend (R3 in the module docs): over an inner join, or over a left-outer
/// join grouped on preserved-side columns, whose groups a first match
/// cannot move.
fn counts_join_shape(
    join_type: JoinType,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    left_width: usize,
) -> bool {
    let counts = |(_, agg): &(String, AggExpr)| matches!(agg, AggExpr::Count | AggExpr::CountIf(_));
    aggs.iter().all(counts)
        && (join_type == JoinType::Inner || group_by.iter().all(|&g| g < left_width))
}

/// Whether any column of `t` carries a validity mask.
fn masked(t: &Table) -> bool {
    t.columns().iter().any(|c| c.validity.is_some())
}

/// The `N` of a scan of `@frag<N>`.
pub(crate) fn frag_number(table: &str) -> Option<usize> {
    table.strip_prefix("@frag")?.parse().ok()
}

/// The outputs of `inputs`, which a plan scans by position (`@frag<N>`).
fn outputs(inputs: &[&DeltaState]) -> Vec<Arc<Table>> {
    inputs.iter().map(|input| Arc::clone(&input.table)).collect()
}

/// One source a state's run scanned, as the run saw it: the chunks its
/// rows come from — a base table's own, or every chunk under an input
/// fragment — its rows and schema, whether any of its rows carry a
/// validity mask, and whether its rows only append when its chunks do (a
/// base table, or an input that is row-wise over one that does).
#[derive(Debug, Clone)]
struct Cover {
    chunks: Vec<Arc<Table>>,
    rows: usize,
    schema: Vec<(String, DataType)>,
    masked: bool,
    appends: bool,
}

/// How a source moved since a state's run read it.
#[derive(Debug, Clone, Copy)]
enum Growth {
    /// The same rows: the same chunks.
    Same,
    /// Rows appended after the first `rows`, in chunks after the first
    /// `chunks`.
    Appended { rows: usize, chunks: usize },
}

/// A source as it is now: a base table of the version, or the state of an
/// input fragment.
#[derive(Clone, Copy)]
enum Source<'a> {
    Table(&'a ChunkedTable),
    Input(&'a DeltaState),
}

impl<'a> Source<'a> {
    /// The source `name` of a run over `inputs` (`@frag<N>` is
    /// `inputs[N]`) and `version` (every other name).
    fn of(name: &str, inputs: &[&'a DeltaState], version: &'a CatalogVersion) -> Option<Self> {
        Some(match frag_number(name) {
            Some(n) => Source::Input(inputs.get(n)?),
            None => Source::Table(version.table(name)?),
        })
    }

    /// The chunks its rows come from.
    fn chunks(self) -> impl Iterator<Item = &'a Arc<Table>> {
        let (own, under) = match self {
            Source::Table(t) => (t.chunks(), None),
            Source::Input(state) => {
                let under = state.covers.iter().flat_map(|(_, cover)| &cover.chunks);
                (&[][..], Some(under))
            }
        };
        own.iter().chain(under.into_iter().flatten())
    }

    fn rows(self) -> usize {
        match self {
            Source::Table(t) => t.n_rows(),
            Source::Input(state) => state.table.n_rows(),
        }
    }

    /// A table of its schema: a base table's first chunk, an input's output.
    fn schema(self) -> Option<&'a Table> {
        match self {
            Source::Table(t) => t.chunks().first().map(|c| &**c),
            Source::Input(state) => Some(&state.table),
        }
    }

    /// Its rows after the first `rows`, which fill its first `chunks`
    /// chunks, as one table named as a scan of the whole source names
    /// them: an input's output as it is or sliced, a base table's chunk
    /// where it lies, several chunks concatenated as
    /// [`FBatch::into_flat`] gathers them. A scan of a table of several
    /// chunks is named after the table, of one after its chunk.
    fn rows_from(self, rows: usize, chunks: usize) -> Option<Arc<Table>> {
        let t = match self {
            Source::Input(state) if rows == 0 => return Some(Arc::clone(&state.table)),
            Source::Input(state) => {
                let ids: Vec<u32> = (rows as u32..state.table.n_rows() as u32).collect();
                return Some(Arc::new(state.table.take_ids(&ids)));
            }
            Source::Table(t) => t,
        };
        match &t.chunks()[chunks..] {
            [one] if t.chunk_count() == 1 || one.name == t.name() => Some(Arc::clone(one)),
            new => {
                let parts: Vec<&Table> = new.iter().map(|c| &**c).collect();
                Table::concat(t.name(), &parts).ok().map(Arc::new)
            }
        }
    }
}

impl Cover {
    fn of(source: Source<'_>) -> Option<Cover> {
        let (masked, appends) = match source {
            Source::Table(t) => (t.chunks().iter().any(|c| masked(c)), true),
            Source::Input(state) => (masked(&state.table), state.appends),
        };
        let schema = source.schema()?.schema().into_iter();
        Some(Cover {
            chunks: source.chunks().cloned().collect(),
            rows: source.rows(),
            schema: schema.map(|(name, ty)| (name.to_string(), ty)).collect(),
            masked,
            appends,
        })
    }

    /// How `now`, this source at a later state of its tables, grew from
    /// this one: the same chunks, or more after them, pointer for pointer.
    /// `None` when it is not this source with rows appended — an older
    /// version, another writer's chunks, a schema or type change, a source
    /// that does not only append — or when either side has a validity mask.
    fn growth(&self, now: Source<'_>) -> Option<Growth> {
        let mut chunks = now.chunks();
        let same = |a: &Arc<Table>| chunks.next().is_some_and(|b| Arc::ptr_eq(a, b));
        let prefix = self.chunks.iter().all(same);
        let columns = now.schema()?.columns().iter();
        let schema = columns.map(|c| (c.name.as_str(), c.data.data_type()));
        let same_schema = schema.eq(self.schema.iter().map(|(name, ty)| (name.as_str(), *ty)));
        if !prefix || !same_schema || now.rows() < self.rows {
            return None;
        }
        let mut appended = chunks.peekable();
        if appended.peek().is_none() {
            return (now.rows() == self.rows).then_some(Growth::Same);
        }
        // The rows read were checked; of a base table only its new chunks
        // are new.
        let masks = match now {
            Source::Table(_) => appended.any(|c| masked(c)),
            Source::Input(state) => masked(&state.table),
        };
        let growth = Growth::Appended {
            rows: self.rows,
            chunks: self.chunks.len(),
        };
        (self.appends && !self.masked && !masks).then_some(growth)
    }

    /// This cover advanced to `now`, which grew from it by appends, or not
    /// at all.
    fn advance(&mut self, now: Source<'_>) {
        let covered = self.chunks.len();
        self.chunks.extend(now.chunks().skip(covered).cloned());
        self.rows = now.rows();
    }
}

/// A fragment's output with what extending it over its sources' appended
/// rows needs (module docs, §5): every operator's exact totals, what its
/// aggregates and join sides keep, and what it read of each source — a
/// prepare's base tables, a combine's input fragments. Its table and work
/// are what [`execute_fused`] returns over the sources last computed or
/// extended to, bit for bit. The kept state is shared between clones, so a
/// clone is cheap and an extension copies what it changes once.
#[derive(Debug, Clone)]
pub struct DeltaState {
    table: Arc<Table>,
    ops: Vec<OpTotals>,
    kept: Arc<Vec<Option<Kept>>>,
    /// Joins' right sides by key, which their left sides' new rows probe
    /// (R3), by the join's operator: built by the first extension that
    /// needs one, shared between clones.
    indexes: Vec<(usize, Arc<KeyIndex>)>,
    covers: Vec<(String, Cover)>,
    /// Whether the output only appends when its sources do: the plan is
    /// row-wise ([`row_wise_table`]) over a source that only appends.
    appends: bool,
}

impl DeltaState {
    /// Runs `plan` in full over `inputs` — the fragment outputs it scans as
    /// `@frag<N>`, `inputs[N]` — and the base tables of `version`, keeping
    /// what extending it needs. The run is the one [`execute_fused`] makes;
    /// what it keeps is moved out of it: each aggregate's per-group states,
    /// the preserved rows a left-outer join matched, a join side that is an
    /// operator's output.
    pub fn compute(
        plan: &PhysicalPlan,
        inputs: &[&DeltaState],
        version: &CatalogVersion,
    ) -> Result<Self, EngineError> {
        let mut recorder = Recorder::with_totals(true);
        let table = run_to_table(plan, &outputs(inputs), version.into(), &mut recorder)?;
        let ops = recorder.totals.unwrap_or_default();
        let mut kept = vec![None; ops.len()];
        for (at, k) in recorder.kept.unwrap_or_default() {
            kept[at] = Some(k);
        }
        // Every source resolved, or the run above failed.
        let mut covers: Vec<(String, Cover)> = Vec::new();
        for name in scanned_sources(plan) {
            let cover = Source::of(name, inputs, version).and_then(Cover::of);
            let cover = cover.ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
            covers.push((name.to_string(), cover));
        }
        let appends = row_wise_table(plan).is_some() && covers.iter().all(|(_, c)| c.appends);
        Ok(DeltaState {
            table: Arc::new(table),
            ops,
            kept: Arc::new(kept),
            indexes: Vec::new(),
            covers,
            appends,
        })
    }

    /// The output table.
    pub fn table(&self) -> &Arc<Table> {
        &self.table
    }

    /// The work profile of the run that produced [`DeltaState::table`].
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
        let indexes = self.indexes.iter().map(|(_, index)| index.bytes());
        kept.sum::<u64>() + indexes.sum::<u64>() + 64 * self.ops.len() as u64
    }

    /// Advances the state to `inputs` and `version`: the same sources at
    /// later states of their tables, each the rows this state read followed
    /// by appended ones (module docs, §5). Returns the appended rows it
    /// read, `Some(0)` when no source changed. `None`, with the state
    /// unchanged, when a source is not the one read grown by appends (an
    /// older version, another writer's chunks, a mask, a type change) or
    /// when an operator cannot extend (a join's right side grows under
    /// anything but a count, a sort over appended rows, a delta that fails
    /// to evaluate): the caller then computes in full. The output is
    /// appended in place when this state is its only holder (after one copy
    /// otherwise).
    pub fn extend(
        &mut self,
        plan: &PhysicalPlan,
        inputs: &[&DeltaState],
        version: &CatalogVersion,
    ) -> Option<usize> {
        let moved = self.covers.iter().map(|(name, cover)| {
            let now = Source::of(name, inputs, version)?;
            Some((now, cover.growth(now)?))
        });
        let moved: Vec<(Source, Growth)> = moved.collect::<Option<_>>()?;
        let appended = moved.iter().map(|&(now, growth)| match growth {
            Growth::Appended { rows, .. } => now.rows() - rows,
            Growth::Same => 0,
        });
        let appended = appended.sum();
        if moved.iter().all(|m| matches!(m.1, Growth::Same)) {
            return Some(0);
        }
        let mut walk = Walk {
            old: &self.ops,
            ops: Vec::with_capacity(self.ops.len()),
            kept: Arc::clone(&self.kept),
            indexes: self.indexes.clone(),
            covers: &self.covers,
            moved: &moved,
            inputs,
            version,
            deltas: vec![None; moved.len()],
            links: Vec::new(),
            scratch: EvalScratch::new(),
        };
        let step = walk.node(plan)?;
        let (ops, kept, indexes, links) = (walk.ops, walk.kept, walk.indexes, walk.links);
        if ops.len() != self.ops.len() {
            return None;
        }
        match step {
            Step::Same => {}
            Step::Appended(delta) => append_to(&mut self.table, &delta)?,
            Step::Changed(out) => self.table = out,
        }
        self.ops = ops;
        self.kept = kept;
        self.indexes = indexes;
        for (at, right, keys) in links {
            self.link(at, &right, &keys);
        }
        for ((_, cover), &(now, _)) in self.covers.iter_mut().zip(&moved) {
            cover.advance(now);
        }
        Some(appended)
    }

    /// Links the rows the right side `right` of join `at` gained into the
    /// key index the join keeps (R3), once the extension that read them has
    /// committed. An index that cannot hold them is dropped; the next
    /// extension that needs it builds it again.
    fn link(&mut self, at: usize, right: &Table, keys: &[usize]) {
        let Some(i) = self.indexes.iter().position(|&(join, _)| join == at) else {
            return;
        };
        // LINT: unique-ok — the superseded states released the index; one
        // another holder still shares is copied.
        let linked = columns_at(right, keys)
            .and_then(|keys| Arc::make_mut(&mut self.indexes[i].1).link(&keys, right.n_rows()));
        if linked.is_none() {
            self.indexes.swap_remove(i);
        }
    }
}

/// Each distinct table name `plan` scans, in first-scanned order.
fn scanned_sources(plan: &PhysicalPlan) -> Vec<&str> {
    let mut names: Vec<&str> = Vec::new();
    for_each_scan(plan, &mut |name| {
        if !names.contains(&name) {
            names.push(name);
        }
    });
    names
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
    if t.name != delta.name {
        t.name = delta.name.clone();
    }
    Some(())
}

/// How an operator's output moved since the state's run.
enum Step {
    /// Unchanged: the operator reads only unchanged sources.
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

/// The rows a join gained (R3): `(left, right, hit)` positions, ascending by
/// (left, right) position, into `left` — the left side's rows from join
/// position `from` on: its new rows alone when the right side's rows are
/// old, all of them otherwise — and `right`, the right side's whole output;
/// `read` is the rows its two sides gained.
struct JoinDelta {
    left: Arc<Table>,
    from: usize,
    right: Arc<Table>,
    left_out: Vec<u32>,
    right_out: Vec<u32>,
    hit: Vec<bool>,
    read: u64,
}

/// One extension's walk over a state's plan. Every operator records one
/// [`OpTotals`] in the post-order the full run records them, so the
/// operator at hand is `ops.len()`, and `old[ops.len()]` is its totals at
/// the state's run.
struct Walk<'s> {
    old: &'s [OpTotals],
    ops: Vec<OpTotals>,
    /// What the operators keep, copied on the first change.
    kept: Arc<Vec<Option<Kept>>>,
    /// The joins' right-side key indexes.
    indexes: Vec<(usize, Arc<KeyIndex>)>,
    covers: &'s [(String, Cover)],
    /// Each source as it is now, and how it grew.
    moved: &'s [(Source<'s>, Growth)],
    /// What a run of the plan reads now: the input fragments, whose outputs
    /// it scans as `@frag<N>`, and the version.
    inputs: &'s [&'s DeltaState],
    version: &'s CatalogVersion,
    /// Each appended source's new rows, taken once (by source, once one
    /// is).
    deltas: Vec<Option<Arc<Table>>>,
    /// Key indexes to link a join's new right rows into once the extension
    /// commits: the join, its whole right side, its right keys.
    links: Vec<(usize, Arc<Table>, Vec<usize>)>,
    /// One pool of kernel temporaries for every operator the walk runs.
    scratch: EvalScratch,
}

impl Walk<'_> {
    /// The step of `plan`'s operator after its inputs', a kept join side
    /// kept current with it.
    fn node(&mut self, plan: &PhysicalPlan) -> Option<Step> {
        let step = self.operator(plan)?;
        self.keep_current(&step)?;
        Some(step)
    }

    /// The step of `plan`'s operator after its inputs'.
    fn operator(&mut self, plan: &PhysicalPlan) -> Option<Step> {
        Some(match plan {
            // R1 at a source: its new rows append.
            PhysicalPlan::Scan { table } => {
                let at = self.covers.iter().position(|(name, _)| name == table)?;
                let (now, Growth::Appended { rows, chunks }) = self.moved[at] else {
                    return self.same();
                };
                let delta = match &self.deltas[at] {
                    Some(delta) => Arc::clone(delta),
                    None => Arc::clone(self.deltas[at].insert(now.rows_from(rows, chunks)?)),
                };
                let totals = OpTotals::of(OpKind::Scan, delta.n_rows(), &delta);
                self.append(delta, &totals)?
            }
            PhysicalPlan::Filter { input, .. } | PhysicalPlan::Project { input, .. } => {
                match self.node(input)? {
                    Step::Same => self.same()?,
                    // R1: a row-wise operator over appended rows appends.
                    Step::Appended(delta) => {
                        let (out, totals) = run_step(plan, &[&delta], &mut self.scratch)?;
                        self.append(out, &totals)?
                    }
                    Step::Changed(input) => self.rerun(plan, &[&input])?,
                }
            }
            PhysicalPlan::Sort { input, .. } => match self.node(input)? {
                Step::Same => self.same()?,
                Step::Changed(input) => self.rerun(plan, &[&input])?,
                Step::Appended(_) => return None,
            },
            PhysicalPlan::HashJoin { left, right, .. } => {
                let (l, r) = (self.side(left)?, self.side(right)?);
                self.join(plan, &l, &r)?
            }
            PhysicalPlan::Aggregate { input, .. } => match &**input {
                PhysicalPlan::HashJoin { left, right, .. } => {
                    let (l, r) = (self.side(left)?, self.side(right)?);
                    let appends = |step: &Step| !matches!(step, Step::Changed(_));
                    let moved = !matches!((&l.step, &r.step), (Step::Same, Step::Same));
                    // A count over the join keeps `matched` or `firsts` (R3).
                    let counts = match self.kept.get(self.ops.len() + 1) {
                        Some(Some(Kept::Fold(f))) => f.matched.is_some() || f.firsts.is_some(),
                        _ => false,
                    };
                    if moved && appends(&l.step) && appends(&r.step) && counts {
                        return self.fold_join(plan, input, &l, &r);
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
        })
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

    /// R1: the operator at hand appends `delta`, whose totals are `totals`.
    fn append(&mut self, delta: Arc<Table>, totals: &OpTotals) -> Option<Step> {
        let totals = self.old()?.then(totals)?;
        self.ops.push(totals);
        Some(Step::Appended(delta))
    }

    /// R4: the operator at hand runs again over its inputs' whole outputs.
    fn rerun(&mut self, plan: &PhysicalPlan, inputs: &[&Arc<Table>]) -> Option<Step> {
        let (out, totals) = run_step(plan, inputs, &mut self.scratch)?;
        self.ops.push(totals);
        Some(Step::Changed(out))
    }

    /// A join of two inputs' steps.
    fn join(&mut self, plan: &PhysicalPlan, l: &Side<'_>, r: &Side<'_>) -> Option<Step> {
        match (&l.step, &r.step) {
            (Step::Same, Step::Same) => self.same(),
            // R1: the left side's new rows append their matches.
            (Step::Appended(_), Step::Same) => {
                let new = self.join_delta(plan, l, r)?;
                let (lo, ro, hit) = (&new.left_out, &new.right_out, &new.hit);
                let rows = gather_join(&new.left, &new.right, lo, ro, hit).ok()?;
                let totals = OpTotals::of(OpKind::Join, new.read as usize, &rows);
                self.append(Arc::new(rows), &totals)
            }
            (Step::Changed(_), _) | (_, Step::Changed(_)) => {
                // The right side's index no longer describes it.
                let at = self.ops.len();
                self.indexes.retain(|&(join, _)| join != at);
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
    /// `right`: a group its key set left unfolded (§6, (S)), whose state
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
        let Some(Kept::Fold(Fold {
            folded: Some(folded),
            ..
        })) = self.kept.get(r.at)?
        else {
            return Some(());
        };
        if gained.n_rows() == 0 {
            return Some(());
        }
        let (_, groups) = inner_matches(plan, gained, right)?;
        groups.iter().all(|&g| folded.get(g as usize) == Some(&true)).then_some(())
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
                let Some(Kept::Fold(fold)) = kept_mut(&mut self.kept, at)? else {
                    return None;
                };
                let n = delta.n_rows();
                fold.absorb(&mut &*delta, n, group_by, aggs, &mut self.scratch)?;
                let out = fold.output(aggs)?;
                self.ops.push(OpTotals::of(OpKind::Aggregate, rows_in as usize, &out));
                Some(Step::Changed(Arc::new(out)))
            }
            // R4; the fold no longer describes the input.
            Step::Changed(input) => {
                let at = self.ops.len();
                *kept_mut(&mut self.kept, at)? = None;
                self.rerun(plan, &[&input])
            }
        }
    }

    /// The rows join `plan` of `l` and `r`, whose sides only appended,
    /// gained since the state's run (R3): `ΔL ⋈ R ∪ L′ ⋈ ΔR`. The left
    /// side's new rows probe the key index the join keeps over the right
    /// side's old rows, built at the first extension that needs it and
    /// linked to the right side's new rows once the extension commits, so
    /// no extension passes over the right side; over a left-outer join a
    /// new left row that matches nothing is a miss. The right side's new
    /// rows, after every old one, probe the whole left side once.
    fn join_delta(&mut self, plan: &PhysicalPlan, l: &Side<'_>, r: &Side<'_>) -> Option<JoinDelta> {
        let PhysicalPlan::HashJoin {
            left_keys,
            right_keys,
            join_type,
            ..
        } = plan
        else {
            return None;
        };
        (left_keys.len() == right_keys.len()).then_some(())?;
        let delta = |side: &Side<'_>| match &side.step {
            Step::Appended(delta) if delta.n_rows() > 0 => Some(Arc::clone(delta)),
            _ => None,
        };
        let (dl, dr) = (delta(l), delta(r));
        let new_left = dl.as_ref().map_or(0, |d| d.n_rows());
        let new_right = dr.as_ref().map_or(0, |d| d.n_rows());
        let right = self.whole(r)?;
        let old_right = right.n_rows().checked_sub(new_right)?;
        let old_left = self.old.get(l.at)?.rows_out as usize;
        // The left side's new rows alone when the right side's rows are
        // old: nothing probes the left side's old rows.
        let (left, from) = match (&l.step, &dr) {
            (Step::Appended(dl), None) => (Arc::clone(dl), old_left),
            _ => (self.whole(l)?, 0),
        };
        let at = self.ops.len();
        let base = old_left - from;
        // The new left rows a new right row reaches: none of them misses.
        let mut reached = vec![false; new_left];
        let mut pairs: Vec<(u32, u32, bool)> = Vec::new();
        if let Some(dr) = &dr {
            let (lo, ro) = inner_matches(plan, &left, dr)?;
            for (l, r) in lo.into_iter().zip(ro) {
                if let Some(m) = (l as usize).checked_sub(base).and_then(|i| reached.get_mut(i)) {
                    *m = true;
                }
                pairs.push((l, (old_right + r as usize) as u32, true));
            }
        }
        if let Some(dl) = &dl {
            self.reaches_folded_only(plan, r, dl, &right)?;
            let (keys, probe) = (columns_at(&right, right_keys)?, columns_at(dl, left_keys)?);
            let index = match self.indexes.iter().find(|&&(join, _)| join == at) {
                Some((_, index)) if index.rows() == old_right => Arc::clone(index),
                _ => {
                    let index = Arc::new(KeyIndex::build(&keys, old_right)?);
                    self.indexes.retain(|&(join, _)| join != at);
                    self.indexes.push((at, Arc::clone(&index)));
                    index
                }
            };
            let outer = *join_type == JoinType::LeftOuter;
            let mut found = Vec::new();
            for (row, &by_new_right) in reached.iter().enumerate() {
                let l = (base + row) as u32;
                index.matches(&keys, &probe, row, &mut found);
                if outer && !by_new_right && found.is_empty() {
                    pairs.push((l, 0, false));
                }
                pairs.extend(found.drain(..).map(|r| (l, r, true)));
            }
        }
        if dr.is_some() && self.indexes.iter().any(|&(join, _)| join == at) {
            self.links.push((at, Arc::clone(&right), right_keys.clone()));
        }
        pairs.sort_unstable();
        let (left_out, (right_out, hit)) = pairs.into_iter().map(|(l, r, h)| (l, (r, h))).unzip();
        let read = (new_left + new_right) as u64;
        Some(JoinDelta {
            left,
            from,
            right,
            left_out,
            right_out,
            hit,
            read,
        })
    }

    /// R3: an aggregate of integer counts directly over the join `join` of
    /// `l` and `r`, whose sides only appended, folds the join's new rows
    /// through the deferred join, gathering only the columns it counts. A
    /// preserved row of a left-outer join matched for the first time
    /// withdraws its NULL-extended stand-in.
    fn fold_join(
        &mut self,
        plan: &PhysicalPlan,
        join: &PhysicalPlan,
        l: &Side<'_>,
        r: &Side<'_>,
    ) -> Option<Step> {
        let PhysicalPlan::Aggregate { group_by, aggs, .. } = plan else {
            return None;
        };
        let old_left = self.old.get(l.at)?.rows_out as usize;
        let new = self.join_delta(join, l, r)?;
        let at = self.ops.len();
        let old = self.old()?.clone();
        let Some(Kept::Fold(fold)) = kept_mut(&mut self.kept, at + 1)? else {
            return None;
        };
        // The left rows whose NULL-extended stand-ins leave the output.
        let mut first_hits = Vec::new();
        if let Some(matched) = &mut fold.matched {
            if matched.len() != old_left {
                return None;
            }
            matched.resize(new.from + new.left.n_rows(), false);
            for (&l, &hit) in new.left_out.iter().zip(&new.hit) {
                let p = new.from + l as usize;
                if hit && !std::mem::replace(&mut matched[p], true) && p < old_left {
                    first_hits.push(l);
                }
            }
        }
        let (n, left, right) = (first_hits.len(), &*new.left, &*new.right);
        let mut rows = DeferredJoin::new(left, right, new.left_out, new.right_out, new.hit);
        let scratch = &mut self.scratch;
        fold.absorb_pairs(&mut rows, new.from, group_by, aggs, scratch)?;
        let mut totals = old.then(&rows.totals())?;
        if n > 0 {
            let misses = (vec![0; n], vec![false; n]);
            let mut stand_ins = DeferredJoin::new(left, right, first_hits, misses.0, misses.1);
            fold.withdraw(&mut stand_ins, n, group_by, aggs, scratch)?;
            totals = totals.less(&stand_ins.totals())?;
        }
        let out = fold.output(aggs)?;
        let join = OpTotals {
            rows_in: old.rows_in + new.read,
            ..totals
        };
        let rows_in = join.rows_out as usize;
        self.ops.push(join);
        self.ops.push(OpTotals::of(OpKind::Aggregate, rows_in, &out));
        Some(Step::Changed(Arc::new(out)))
    }

    /// A join input's whole output: a changed one's, a kept one's (kept
    /// current by its step), a bare scan's source as it is, or one run again
    /// over its sources as they are.
    fn whole(&self, side: &Side<'_>) -> Option<Arc<Table>> {
        if let Step::Changed(out) = &side.step {
            return Some(Arc::clone(out));
        }
        if let Some(Kept::Table(t)) = self.kept.get(side.at)? {
            return Some(Arc::clone(t));
        }
        if let PhysicalPlan::Scan { table } = side.plan {
            let at = self.covers.iter().position(|(name, _)| name == table)?;
            return self.moved[at].0.rows_from(0, 0);
        }
        let (frags, mut recorder) = (outputs(self.inputs), Recorder::default());
        let run = run_to_table(side.plan, &frags, self.version.into(), &mut recorder);
        run.ok().map(Arc::new)
    }

    /// Keeps a kept join side current with the step of its operator, the
    /// last one recorded.
    fn keep_current(&mut self, step: &Step) -> Option<()> {
        let at = self.ops.len() - 1;
        if matches!(step, Step::Same) || !matches!(self.kept.get(at)?, Some(Kept::Table(_))) {
            return Some(());
        }
        if let Some(Kept::Table(t)) = kept_mut(&mut self.kept, at)? {
            match step {
                Step::Same => {}
                Step::Appended(delta) => append_to(t, delta)?,
                Step::Changed(out) => *t = Arc::clone(out),
            }
        }
        Some(())
    }
}

/// `t`'s columns `keys`; `None` when one is missing.
fn columns_at<'t>(t: &'t Table, keys: &[usize]) -> Option<Vec<&'t Column>> {
    keys.iter().map(|&k| t.column(k).ok()).collect()
}

/// Operator `at`'s kept state, to change: the walk's own copy.
fn kept_mut(kept: &mut Arc<Vec<Option<Kept>>>, at: usize) -> Option<&mut Option<Kept>> {
    // LINT: unique-ok — `make_mut` copies the kept states of the state
    // being extended, once, before the walk's first change.
    Arc::make_mut(kept).get_mut(at)
}

/// The `(left, right)` positions of the rows of `left` and `right` that the
/// join `plan` pairs, as an inner join over them finds them.
fn inner_matches(plan: &PhysicalPlan, left: &Table, right: &Table) -> Option<(Vec<u32>, Vec<u32>)> {
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
    let (lo, ro, _) = serial_join_indices(&lb, &rb, &lcols, &rcols, JoinType::Inner);
    Some((lo, ro))
}

/// `plan`'s own step — the one a full run takes, [`apply`] or [`join`] —
/// over `inputs`, its inputs' outputs in order: its output and totals.
fn run_step(
    plan: &PhysicalPlan,
    inputs: &[&Arc<Table>],
    scratch: &mut EvalScratch,
) -> Option<(Arc<Table>, OpTotals)> {
    let mut recorder = Recorder::with_totals(false);
    let out = match (plan, inputs) {
        (
            PhysicalPlan::HashJoin {
                left_keys,
                right_keys,
                join_type,
                ..
            },
            [left, right],
        ) => {
            let lb = Batch::all(TableSlot::Borrowed(left));
            let rb = Batch::all(TableSlot::Borrowed(right));
            join(&lb, &rb, left_keys, right_keys, *join_type, &mut recorder)
        }
        (
            PhysicalPlan::Filter { .. }
            | PhysicalPlan::Project { .. }
            | PhysicalPlan::Aggregate { .. }
            | PhysicalPlan::Sort { .. },
            [input],
        ) => apply(plan, borrowed(input), &mut recorder, scratch),
        _ => return None,
    };
    let table = out.ok()?.into_flat(scratch).materialize();
    let totals = recorder.totals?.pop()?;
    Some((Arc::new(table), totals))
}
