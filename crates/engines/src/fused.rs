//! Morsel-driven fused pipeline executor over **slabs**: one batch shape,
//! whether a table is one contiguous allocation or the chunks of a version
//! that grew by appends.
//!
//! This is the executor that serves; [`crate::ops::execute_scalar`] is its
//! row-at-a-time reference. Four coordinated changes make SF ≥ 1 data
//! survivable, and a fifth makes a table that grows cheap to plan over:
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
use crate::expr::{BatchVals, EvalScratch, Expr, KernelCols, KernelPlan, NumTy, SelView};
use crate::ops::{
    aggregate_vec, hash_join_vec, join_key_columns, serial_join_indices, sort_sel, AggExpr,
    AggInput, Batch, JoinType, OpKind, OpWork, PhysicalPlan, TableSlot, WorkProfile,
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

/// What one fused run records: its work profile and, when a row-wise
/// output is to be extended later ([`RowWiseOutput`]), every operator's
/// [`OpTotals`].
#[derive(Default)]
struct Recorder {
    work: WorkProfile,
    totals: Option<Vec<OpTotals>>,
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
        let bytes_out = match &mut profile.totals {
            // The widths are summed once and serve both records.
            Some(totals) => {
                let columns: Vec<_> = self.widths().collect();
                let bytes_out = width_bytes(columns.iter().copied(), self.len());
                totals.push(OpTotals {
                    kind,
                    rows_in,
                    rows_out,
                    columns,
                });
                bytes_out
            }
            None => self.bytes(),
        };
        profile.work.ops.push(OpWork {
            kind,
            rows_in,
            rows_out,
            bytes_out,
        });
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
            let lb = run_fused(left, src, profile, scratch)?.into_flat(scratch);
            let rb = run_fused(right, src, profile, scratch)?.into_flat(scratch);
            let rows_in = (lb.len() + rb.len()) as u64;
            let nb = owned(hash_join_vec(&lb, &rb, left_keys, right_keys, *join_type)?);
            nb.record(profile, OpKind::Join, rows_in);
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
            let out = aggregate_vec(&mut b.table(), b.sel_ref(), b.len(), group_by, aggs, scratch)?;
            let nb = owned(out);
            nb.record(profile, OpKind::Aggregate, b.len() as u64);
            if let Some(old) = b.sel {
                scratch.put_sel(old);
            }
            Ok(nb)
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
        /// Sums `len_at` over the positions `sel` (`None` = all `n`).
        fn total(n: usize, sel: Option<&[u32]>, len_at: impl Fn(usize) -> usize) -> usize {
            match sel {
                None => (0..n).map(len_at).sum(),
                Some(s) => s.iter().map(|&p| len_at(p as usize)).sum(),
            }
        }
        let n = sel.map_or_else(|| self.n(), <[u32]>::len);
        let columns = self.lt.columns().iter().chain(self.rt.columns());
        virtual_bytes(columns, n, |ci, v| {
            if ci < self.lc {
                total(self.n(), sel, |p| v.value_len(self.left_out[p] as usize))
            } else {
                let hit = |p: usize| {
                    if self.right_hit[p] { v.value_len(self.right_out[p] as usize) } else { 0 }
                };
                total(self.n(), sel, hit)
            }
        })
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
/// only, and the full-width join table is never built. Profile entries
/// (Join, one Filter per peeled predicate, Aggregate) carry the identical
/// rows/bytes the materializing path records.
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
    let lb = run_fused(left, src, profile, scratch)?.into_flat(scratch);
    let rb = run_fused(right, src, profile, scratch)?.into_flat(scratch);
    let rows_in_join = (lb.len() + rb.len()) as u64;

    let (lcols, rcols) = join_key_columns(&lb, &rb, left_keys, right_keys)?;
    let (left_out, right_out, right_hit) =
        serial_join_indices(&lb, &rb, &lcols, &rcols, join_type);
    let mut dj = DeferredJoin::new(lb.table(), rb.table(), left_out, right_out, right_hit);
    let n_join = dj.n();
    profile.work.ops.push(OpWork {
        kind: OpKind::Join,
        rows_in: rows_in_join,
        rows_out: n_join as u64,
        bytes_out: dj.bytes_sel(None),
    });

    // Peeled filters: each evaluates morsel-wise over the live join
    // positions against the sparse cache, never touching unreferenced
    // columns.
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
        profile.work.ops.push(OpWork {
            kind: OpKind::Filter,
            rows_in,
            rows_out: sel.len() as u64,
            bytes_out: dj.bytes_sel(Some(&sel)),
        });
        if let Some(old) = positions.replace(sel) {
            scratch.put_sel(old);
        }
    }

    let n_live = positions.as_ref().map_or(n_join, Vec::len);
    let out = aggregate_vec(&mut dj, positions.as_deref(), n_live, group_by, aggs, scratch)?;
    if let Some(old) = positions {
        scratch.put_sel(old);
    }
    let nb = owned(out);
    nb.record(profile, OpKind::Aggregate, n_live as u64);
    Ok(nb)
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
}

/// Runs `plan` over `version`, recording every operator's [`OpTotals`].
fn run_row_wise(
    plan: &PhysicalPlan,
    version: &CatalogVersion,
) -> Result<(Table, Vec<OpTotals>), EngineError> {
    let mut recorder = Recorder {
        work: WorkProfile::default(),
        totals: Some(Vec::new()),
    };
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
        let masked = |t: &Table| t.columns().iter().any(|c| c.validity.is_some());
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
