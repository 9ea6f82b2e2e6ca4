//! Morsel-driven fused pipeline executor over flat **or chunk-native**
//! inputs.
//!
//! This is the scale-jump counterpart of [`crate::ops`]'s whole-column
//! vectorized executor. Four coordinated changes make SF ≥ 1 data
//! survivable:
//!
//! 1. **Morsels.** Filters, projections and aggregate inputs run over
//!    cache-resident row ranges of [`MORSEL_ROWS`] rows
//!    ([`SelView::range`] / [`SelView::over`] slices) instead of
//!    whole-column passes, drawing every temporary from one
//!    [`EvalScratch`] pool that is reused across all morsels of a query —
//!    the hot loop stops allocating after the first few morsels and its
//!    working set stays in cache. An aggregate consumes each morsel's
//!    typed kernel result straight into its per-group states
//!    (`ops::accumulate_aggs`, shared with the whole-column
//!    executor), so no operator holds an input-length temporary: what a
//!    fused run allocates follows what its operators *produce*
//!    (`tests/alloc_census.rs` counts it).
//! 2. **Compiled expression kernels.** Every operator resolves its `Expr`
//!    tree into a [`KernelPlan`] (register steps + deduplicated column
//!    loads) **once**, then replays the plan per morsel — no per-batch
//!    tree walk.
//! 3. **Chunk-native scans + deferred join gather.** Scans resolve
//!    through one [`TableSource`]: against a [`CatalogVersion`] the
//!    scan/filter/project pipeline iterates a multi-chunk
//!    [`ChunkedTable`]'s chunks directly, so a version that grew by
//!    appends never pays `pin()` compaction (asserted via
//!    [`CatalogVersion::compaction_bytes`] staying 0), while a one-chunk
//!    table — every table that was never appended to — is borrowed whole
//!    and runs the flat path unchanged. This is what the runtime serves
//!    from: planning and execution hand the job's pinned version straight
//!    down ([`crate::exec`]). An operator that needs one contiguous input
//!    (a join side, a sort, a non-deferred aggregate) gathers a chunked
//!    view once, per use — the query shapes served here put
//!    filter+project between every base scan and such an operator. An
//!    `Aggregate`
//!    whose input peels to `[Filter*] → HashJoin` consumes the join as
//!    `(left row, right row, hit)` index triples and gathers **only the
//!    columns its filters, group keys and aggregates actually reference**
//!    — each at most once, full-length, into a sparse side cache
//!    ([`KernelCols::Cols`]) — instead of gathering every column of the
//!    join output. Byte accounting for the never-materialized join output
//!    is *virtual*: the same float expression
//!    `Table::estimated_bytes_sel` would compute, evaluated from the
//!    gather indices.
//! 4. **Staged filters.** A filter binds its compiled predicate to each
//!    slab it scans — a table, a chunk, a deferred join's gathered columns
//!    — once ([`KernelPlan::bind_filter`]). When every top-level conjunct
//!    is *total* over that slab (can raise nothing: the definition is on
//!    `Expr::total_family`), each morsel runs the conjuncts over dense
//!    columns as one program and the conjuncts that read a `Utf8` column
//!    only on the survivors, in source order: Q12's `l_shipmode IN (…)`
//!    chases ~1 string pointer in 50 instead of 600 k. Same selected rows
//!    by construction; one opaque conjunct and the filter runs its single
//!    program as before.
//!
//! **Bit-for-bit parity.** For every plan, [`execute_fused`] (and
//! [`execute_fused_versioned`]) produces the same result [`Table`]
//! (including [`Table::fingerprint`]) and the same [`WorkProfile`] as
//! [`crate::ops::execute`] over the equivalent flat catalog — the
//! `fused_differential` suite pins scalar vs vectorized vs fused-morsel
//! and pinned vs chunk-native across randomized chunk boundaries.
//! Morsel boundaries are invisible because every
//! normalization (all-NULL collapse, mask dropping, type selection) is
//! applied **globally** after the morsel loop, never per morsel. The one
//! tolerated divergence: when a plan would fail with *multiple distinct
//! errors*, the fused path may surface a different (equally valid) error
//! variant than the whole-column path — `Ok`/`Err` always agrees.
//!
//! **One thread per run.** Joins and group discovery are the single-pass
//! kernels of [`crate::ops`], shared unchanged, and a fragment never
//! spawns: parallelism in this system is workers over jobs (the runtime),
//! which scales 2.1× on two vCPUs where sharding a join or a grouping
//! inside one job measured 0.33–0.76× of the single pass.

use crate::catalog::Catalog;
use crate::data::{Column, ColumnData, DataType, Table, Value};
use crate::error::EngineError;
use crate::expr::{BatchVals, EvalScratch, Expr, KernelCols, KernelPlan, NumTy, SelView};
use crate::ops::{
    accumulate_aggs, agg_output_columns, aggregate_vec, hash_join_vec, join_key_columns,
    record_batch, serial_group_ids, serial_join_indices, sort_sel,
    AggExpr, AggInput, AggView, Batch, JoinType, OpKind, OpWork, PhysicalPlan, TableSlot,
    WorkProfile,
};
use crate::version::{CatalogVersion, ChunkedTable};
use std::sync::Arc;

/// Rows per morsel: 16 Ki rows keeps a handful of `f64`/sel temporaries
/// comfortably inside a per-core L2 slice while amortizing per-morsel
/// dispatch to noise.
pub const MORSEL_ROWS: usize = 16 * 1024;

/// Executes `plan` with the morsel-driven fused pipelines over a flat
/// [`Catalog`]. Result table and [`WorkProfile`] are bit-identical to the
/// unfused executors.
pub fn execute_fused(
    plan: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<(Table, WorkProfile), EngineError> {
    execute_fused_over(plan, &Catalog::new(), catalog.into())
}

/// Executes `plan` **chunk-natively** against one published
/// [`CatalogVersion`]: scans iterate [`ChunkedTable`] chunks directly and
/// the scan→filter→project pipeline stays chunked, so hot multi-chunk
/// versions are queried without ever materializing a compacted snapshot
/// (`version.compaction_bytes()` stays 0). Results and profiles are
/// bit-identical to pinning the version and running the flat executors.
pub fn execute_fused_versioned(
    plan: &PhysicalPlan,
    version: &CatalogVersion,
) -> Result<(Table, WorkProfile), EngineError> {
    execute_fused_over(plan, &Catalog::new(), version.into())
}

/// The one fused entry point behind the two above and behind
/// [`crate::exec`]: a scan resolves in `frags` first — a run's per-query
/// catalog of `@frag<N>` outputs (and, for a flat source, its seeded base
/// tables) — then in `base` (see [`resolve`]).
pub(crate) fn execute_fused_over(
    plan: &PhysicalPlan,
    frags: &Catalog,
    base: TableSource<'_>,
) -> Result<(Table, WorkProfile), EngineError> {
    let mut profile = WorkProfile::default();
    let mut scratch = EvalScratch::new();
    let src = Tables { frags, base };
    let fb = run_fused(plan, &src, &mut profile, &mut scratch)?;
    Ok((fb.materialize(&mut scratch), profile))
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

impl TableSource<'_> {
    /// Row count of the table registered under `name`.
    pub fn table_rows(&self, name: &str) -> Option<usize> {
        match self {
            TableSource::Flat(c) => c.get(name).map(Table::n_rows),
            TableSource::Versioned(v) => v.table_rows(name),
        }
    }

    /// [`Table::estimated_bytes`] of the table registered under `name` —
    /// for a multi-chunk table, of the contiguous table compaction would
    /// build, to the bit, without building it (integer length sums across
    /// chunks, then one float expression).
    pub fn table_bytes(&self, name: &str) -> Option<u64> {
        match self {
            TableSource::Flat(c) => c.get(name).map(Table::estimated_bytes),
            TableSource::Versioned(v) => v.table(name).map(|ct| match ct.chunks() {
                [one] => one.estimated_bytes(),
                _ => chunked_bytes(ct, None),
            }),
        }
    }
}

/// What one fused run scans (see [`execute_fused_over`]).
struct Tables<'a> {
    frags: &'a Catalog,
    base: TableSource<'a>,
}

/// The one place a scanned name becomes a batch, and the one place flat
/// vs chunked is decided: a fragment output or a flat catalog's table is
/// borrowed whole; so is a version's one-chunk table (never appended to —
/// the chunk *is* the table, and the executor runs exactly the flat
/// path); only a multi-chunk table becomes a chunk-native view.
fn resolve<'a>(src: &Tables<'a>, name: &str) -> Result<FBatch<'a>, EngineError> {
    let flat = |t: &'a Table| FBatch::Flat(Batch::all(TableSlot::Borrowed(t)));
    let unknown = || EngineError::UnknownTable(name.to_string());
    if let Some(t) = src.frags.get(name) {
        return Ok(flat(t));
    }
    match src.base {
        TableSource::Flat(c) => c.get(name).map(flat).ok_or_else(unknown),
        TableSource::Versioned(v) => {
            let ct: &'a ChunkedTable = v.table(name).ok_or_else(unknown)?;
            Ok(match ct.chunks() {
                [one] => flat(one),
                _ => FBatch::Chunked { ct, sels: None },
            })
        }
    }
}

/// A batch flowing between fused operators: either a flat
/// (table, selection) pair exactly like [`Batch`], or a chunk-native view
/// of a [`ChunkedTable`] with one optional selection vector per chunk
/// (chunk-local row ids; `None` = all rows of every chunk).
enum FBatch<'a> {
    Flat(Batch<'a>),
    Chunked {
        ct: &'a ChunkedTable,
        sels: Option<Vec<Vec<u32>>>,
    },
}

impl<'a> FBatch<'a> {
    /// Logical row count.
    fn len(&self) -> usize {
        match self {
            FBatch::Flat(b) => b.len(),
            FBatch::Chunked { ct, sels } => match sels {
                None => ct.n_rows(),
                Some(ss) => ss.iter().map(Vec::len).sum(),
            },
        }
    }

    /// Converts to a flat [`Batch`], gathering chunked views into one
    /// owned table (selection vectors return to the scratch pool).
    fn into_flat(self, scratch: &mut EvalScratch) -> Batch<'a> {
        match self {
            FBatch::Flat(b) => b,
            FBatch::Chunked { ct, sels } => {
                let t = flatten_chunked(ct, sels.as_deref());
                if let Some(ss) = sels {
                    for s in ss {
                        scratch.put_sel(s);
                    }
                }
                Batch::all(TableSlot::Owned(t))
            }
        }
    }

    /// Materializes the final plan result.
    fn materialize(self, scratch: &mut EvalScratch) -> Table {
        match self {
            FBatch::Flat(b) => b.materialize(),
            chunked => chunked.into_flat(scratch).materialize(),
        }
    }
}

/// Gathers a chunked view into one contiguous table, bit-identical to
/// gathering the same selection from the compacted (pinned) table:
/// per-chunk gathers preserve each chunk's validity-mask presence and
/// [`Table::concat`] forces a combined mask exactly when any part has one
/// — the same rule compaction itself applies. Every chunk contributes a
/// part (even an empty one) so mask presence never depends on which
/// chunks the selection happens to touch.
fn flatten_chunked(ct: &ChunkedTable, sels: Option<&[Vec<u32>]>) -> Table {
    let chunks = ct.chunks();
    match sels {
        None => {
            let parts: Vec<&Table> = chunks.iter().map(|c| c.as_ref()).collect();
            Table::concat(ct.name(), &parts).expect("chunks of one table share a schema")
        }
        Some(sels) => {
            let parts: Vec<Table> = chunks
                .iter()
                .zip(sels)
                .map(|(c, s)| c.take_ids(s))
                .collect();
            let refs: Vec<&Table> = parts.iter().collect();
            Table::concat(ct.name(), &refs).expect("chunks of one table share a schema")
        }
    }
}

/// [`Table::estimated_bytes_sel`] of the *flattened* chunked view without
/// flattening it. The per-column string length totals accumulate as exact
/// integers across chunks; the floating-point average/total expression is
/// then applied once over the global sums — the identical bit pattern to
/// measuring the compacted table (summing per-chunk `f64` subtotals would
/// not be).
fn chunked_bytes(ct: &ChunkedTable, sels: Option<&[Vec<u32>]>) -> u64 {
    let chunks = ct.chunks();
    let n: usize = match sels {
        None => ct.n_rows(),
        Some(ss) => ss.iter().map(Vec::len).sum(),
    };
    let per_row: f64 = chunks[0]
        .columns()
        .iter()
        .enumerate()
        .map(|(ci, c)| match &c.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
            ColumnData::Date(_) => 4.0,
            ColumnData::Bool(_) => 1.0,
            ColumnData::Utf8(_) => {
                if n == 0 {
                    8.0
                } else {
                    let total: usize = match sels {
                        None => chunks.iter().map(|ch| ch.utf8_len_sums()[ci]).sum(),
                        Some(ss) => chunks
                            .iter()
                            .zip(ss)
                            .map(|(ch, s)| {
                                // Chunks share one schema by construction.
                                if let ColumnData::Utf8(v) = &ch.columns()[ci].data {
                                    s.iter().map(|&i| v[i as usize].len()).sum::<usize>()
                                } else {
                                    0
                                }
                            })
                            .sum(),
                    };
                    total as f64 / n as f64
                }
            }
        })
        .sum();
    (per_row * n as f64) as u64
}

/// [`record_batch`] for either batch flavour (chunked views account bytes
/// through [`chunked_bytes`]).
fn record_fbatch(profile: &mut WorkProfile, kind: OpKind, rows_in: u64, fb: &FBatch<'_>) {
    match fb {
        FBatch::Flat(b) => record_batch(profile, kind, rows_in, b),
        FBatch::Chunked { ct, sels } => profile.ops.push(OpWork {
            kind,
            rows_in,
            rows_out: fb.len() as u64,
            bytes_out: chunked_bytes(ct, sels.as_deref()),
        }),
    }
}

/// Drives `f` over the morsels of an `n`-row view (`sel` slices when
/// present, dense `base..` ranges otherwise). An empty view still runs
/// one empty morsel so column validation fires exactly as a whole-column
/// pass would.
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
/// returning the selected original row ids (ascending — identical to one
/// whole-column [`Expr::eval_sel`] pass).
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
        filter.eval_sel_into(cols, &sv, scratch, &mut tmp)?;
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
    /// range (mirrors `project_vec`'s shortcut).
    Col(usize),
    /// Literal broadcast (mirrors `broadcast_value`).
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
    /// Typed values (defaults in NULL slots) plus an optional mask.
    Data {
        data: ColumnData,
        validity: Option<Vec<bool>>,
        n: usize,
    },
}

impl Part {
    fn len(&self) -> usize {
        match self {
            Part::Null(k) => *k,
            Part::Data { n, .. } => *n,
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

/// Typed gather of one morsel of a source column — `gather_normalized`
/// minus the global normalization.
fn part_from_col(col: &Column, sv: &SelView<'_>) -> Part {
    let n = sv.len();
    // Dense view over an all-valid column: the gather is a slice copy.
    if col.validity.is_none() {
        if let Some(r) = sv.dense_range() {
            let data = match &col.data {
                ColumnData::Int64(v) => ColumnData::Int64(v[r].to_vec()),
                ColumnData::Float64(v) => ColumnData::Float64(v[r].to_vec()),
                ColumnData::Utf8(v) => ColumnData::Utf8(v[r].to_vec()),
                ColumnData::Date(v) => ColumnData::Date(v[r].to_vec()),
                ColumnData::Bool(v) => ColumnData::Bool(v[r].to_vec()),
            };
            return Part::Data {
                data,
                validity: None,
                n,
            };
        }
    }
    let validity: Option<Vec<bool>> = col
        .validity
        .as_ref()
        .map(|v| (0..n).map(|pos| v[sv.row(pos)]).collect());
    macro_rules! gather {
        ($v:expr, $default:expr, $clone:expr) => {
            (0..n)
                .map(|pos| {
                    let row = sv.row(pos);
                    if col.is_valid(row) {
                        $clone(&$v[row])
                    } else {
                        $default
                    }
                })
                .collect()
        };
    }
    let data = match &col.data {
        ColumnData::Int64(v) => ColumnData::Int64(gather!(v, 0, |x: &i64| *x)),
        ColumnData::Float64(v) => ColumnData::Float64(gather!(v, 0.0, |x: &f64| *x)),
        ColumnData::Utf8(v) => ColumnData::Utf8(gather!(v, String::new(), |x: &String| x.clone())),
        ColumnData::Date(v) => ColumnData::Date(gather!(v, 0, |x: &i32| *x)),
        ColumnData::Bool(v) => ColumnData::Bool(gather!(v, false, |x: &bool| *x)),
    };
    Part::Data { data, validity, n }
}

/// One morsel of a literal broadcast — `broadcast_value` minus the global
/// normalization.
fn part_from_value(v: &Value, n: usize) -> Part {
    let data = match v {
        Value::Null => return Part::Null(n),
        Value::Int64(x) => ColumnData::Int64(vec![*x; n]),
        Value::Float64(x) => ColumnData::Float64(vec![*x; n]),
        Value::Utf8(s) => ColumnData::Utf8(vec![s.clone(); n]),
        Value::Date(d) => ColumnData::Date(vec![*d; n]),
        Value::Bool(b) => ColumnData::Bool(vec![*b; n]),
    };
    Part::Data {
        data,
        validity: None,
        n,
    }
}

/// One morsel of a kernel result — `column_from_batch` minus the global
/// normalization.
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
            Part::Data {
                data,
                validity: None,
                n,
            }
        }
        BatchVals::ConstBool(b) => Part::Data {
            data: ColumnData::Bool(vec![*b; n]),
            validity: None,
            n,
        },
        BatchVals::ConstStr(s) => Part::Data {
            data: ColumnData::Utf8(vec![s.to_string(); n]),
            validity: None,
            n,
        },
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
            Part::Data {
                data,
                validity: valid.clone(),
                n,
            }
        }
        BatchVals::Bools { vals, valid } => {
            let ok = |p: usize| valid.as_ref().is_none_or(|v| v[p]);
            let data =
                ColumnData::Bool((0..n).map(|p| if ok(p) { vals[p] } else { false }).collect());
            Part::Data {
                data,
                validity: valid.clone(),
                n,
            }
        }
        BatchVals::Str { vals, valid } => {
            let validity: Vec<bool> = (0..n)
                .map(|pos| valid.is_none_or(|v| v[sv.row(pos)]))
                .collect();
            let data = ColumnData::Utf8(
                (0..n)
                    .map(|pos| {
                        if validity[pos] {
                            vals[sv.row(pos)].clone()
                        } else {
                            String::new()
                        }
                    })
                    .collect(),
            );
            Part::Data {
                data,
                validity: Some(validity),
                n,
            }
        }
    }
}

/// Merges one expression's morsel parts into the final output column,
/// applying `column_from_values`'s normalization **globally**: zero total
/// rows collapse to an empty `Int64`, a column with no valid slot
/// anywhere collapses to `Int64` zeros under an all-false mask, and an
/// everywhere-valid mask is dropped. Identical to what one whole-column
/// pass would produce, at every morsel decomposition.
fn merge_parts(name: &str, parts: Vec<Part>) -> Result<Column, EngineError> {
    let n: usize = parts.iter().map(Part::len).sum();
    if n == 0 {
        return Ok(Column::new(name, ColumnData::Int64(Vec::new())));
    }
    let any_valid = parts.iter().any(|p| match p {
        Part::Null(_) => false,
        Part::Data { validity: None, n, .. } => *n > 0,
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
    // column projections, which emit one part per slab).
    if parts.len() == 1 {
        if let Some(Part::Data { data, validity, .. }) = parts.into_iter().next() {
            return Ok(match validity {
                Some(v) if !v.iter().all(|&ok| ok) => Column::with_validity(name, data, v),
                _ => Column::new(name, data),
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
    let mut validity: Vec<bool> = Vec::with_capacity(n);
    macro_rules! build {
        ($variant:ident, $t:ty, $default:expr) => {{
            let mut vals: Vec<$t> = Vec::with_capacity(n);
            for part in parts {
                match part {
                    Part::Null(k) => {
                        vals.extend(std::iter::repeat_with(|| $default).take(k));
                        validity.extend(std::iter::repeat(false).take(k));
                    }
                    Part::Data { data, validity: pv, n: k } => {
                        if let ColumnData::$variant(v) = data {
                            vals.extend(v);
                        } else {
                            return Err(EngineError::TypeMismatch {
                                context: "fused projection: morsel part type drift".to_string(),
                            });
                        }
                        match pv {
                            Some(pvv) => validity.extend(pvv),
                            None => validity.extend(std::iter::repeat(true).take(k)),
                        }
                    }
                }
            }
            ColumnData::$variant(vals)
        }};
    }
    let data = match ty {
        DataType::Int64 => build!(Int64, i64, 0i64),
        DataType::Float64 => build!(Float64, f64, 0.0f64),
        DataType::Utf8 => build!(Utf8, String, String::new()),
        DataType::Date => build!(Date, i32, 0i32),
        DataType::Bool => build!(Bool, bool, false),
    };
    Ok(if validity.iter().all(|&ok| ok) {
        Column::new(name, data)
    } else {
        Column::with_validity(name, data, validity)
    })
}

/// Finishes a morsel projection into its output table (named after the
/// input, like `project_vec`).
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
/// pass, a slice copy when the slab is dense.
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
        filter.eval_sel_into(&cols, &sv, scratch, &mut tmp)?;
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
    profile: &mut WorkProfile,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    match plan {
        PhysicalPlan::Scan { table } => {
            let fb = resolve(src, table)?;
            record_fbatch(profile, OpKind::Scan, fb.len() as u64, &fb);
            Ok(fb)
        }
        PhysicalPlan::PrunedScan { table, predicate } => {
            let fb = filter_fbatch(resolve(src, table)?, &predicate.compile(), scratch)?;
            record_fbatch(profile, OpKind::Scan, fb.len() as u64, &fb);
            Ok(fb)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let nb = filter_fbatch(fb, &predicate.compile(), scratch)?;
            record_fbatch(profile, OpKind::Filter, rows_in, &nb);
            Ok(nb)
        }
        PhysicalPlan::Project { input, exprs } => {
            // Fuse a directly-nested filter into the projection's morsel
            // loop: one pass evaluates the predicate and projects the
            // survivors while they are cache-resident. Work accounting is
            // unchanged — Filter then Project entries, identical numbers.
            if let PhysicalPlan::Filter {
                input: finner,
                predicate,
            } = &**input
            {
                let fb = run_fused(finner, src, profile, scratch)?;
                let rows_in_filter = fb.len() as u64;
                let kp = predicate.compile();
                let mut runs = compile_projection(exprs);
                let (out_name, rows_in_project, filter_fb) = match fb {
                    FBatch::Flat(b) => {
                        let sel = filter_project_slab_morsels(
                            &kp,
                            &mut runs,
                            b.table(),
                            b.sel_ref(),
                            scratch,
                        )?;
                        let Batch { slot, sel: old } = b;
                        if let Some(old) = old {
                            scratch.put_sel(old);
                        }
                        let name = match &slot {
                            TableSlot::Borrowed(t) => t.name.clone(),
                            TableSlot::Owned(t) => t.name.clone(),
                        };
                        let nb = FBatch::Flat(Batch {
                            slot,
                            sel: Some(sel),
                        });
                        let rows = nb.len() as u64;
                        (name, rows, nb)
                    }
                    FBatch::Chunked { ct, sels } => {
                        let new_sels: Vec<Vec<u32>> = match &sels {
                            None => ct
                                .chunks()
                                .iter()
                                .map(|ch| {
                                    filter_project_slab_morsels(
                                        &kp, &mut runs, ch, None, scratch,
                                    )
                                })
                                .collect::<Result<_, _>>()?,
                            Some(ss) => ct
                                .chunks()
                                .iter()
                                .zip(ss)
                                .map(|(ch, s)| {
                                    filter_project_slab_morsels(
                                        &kp,
                                        &mut runs,
                                        ch,
                                        Some(s),
                                        scratch,
                                    )
                                })
                                .collect::<Result<_, _>>()?,
                        };
                        if let Some(ss) = sels {
                            for s in ss {
                                scratch.put_sel(s);
                            }
                        }
                        let nb = FBatch::Chunked {
                            ct,
                            sels: Some(new_sels),
                        };
                        let rows = nb.len() as u64;
                        (ct.name().to_string(), rows, nb)
                    }
                };
                record_fbatch(profile, OpKind::Filter, rows_in_filter, &filter_fb);
                // The filter's selection has served its purpose (work
                // accounting); the projected parts already hold the rows.
                recycle_fbatch_sels(filter_fb, scratch);
                let out = finish_projection(&out_name, runs)?;
                let nb = FBatch::Flat(Batch::all(TableSlot::Owned(out)));
                record_fbatch(profile, OpKind::Project, rows_in_project, &nb);
                return Ok(nb);
            }
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let mut runs = compile_projection(exprs);
            let out_name = match &fb {
                FBatch::Flat(b) => {
                    project_slab_morsels(&mut runs, b.table(), b.sel_ref(), scratch)?;
                    b.table().name.clone()
                }
                FBatch::Chunked { ct, sels } => {
                    match sels {
                        None => {
                            for ch in ct.chunks() {
                                project_slab_morsels(&mut runs, ch, None, scratch)?;
                            }
                        }
                        Some(ss) => {
                            for (ch, s) in ct.chunks().iter().zip(ss) {
                                project_slab_morsels(&mut runs, ch, Some(s), scratch)?;
                            }
                        }
                    }
                    ct.name().to_string()
                }
            };
            recycle_fbatch_sels(fb, scratch);
            let out = finish_projection(&out_name, runs)?;
            let nb = FBatch::Flat(Batch::all(TableSlot::Owned(out)));
            record_fbatch(profile, OpKind::Project, rows_in, &nb);
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
            let out = hash_join_vec(&lb, &rb, left_keys, right_keys, *join_type)?;
            let nb = FBatch::Flat(Batch::all(TableSlot::Owned(out)));
            record_fbatch(profile, OpKind::Join, rows_in, &nb);
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
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let b = fb.into_flat(scratch);
            let out = aggregate_vec(&b, group_by, aggs, scratch)?;
            if let Some(old) = b.sel {
                scratch.put_sel(old);
            }
            let nb = FBatch::Flat(Batch::all(TableSlot::Owned(out)));
            record_fbatch(profile, OpKind::Aggregate, rows_in, &nb);
            Ok(nb)
        }
        PhysicalPlan::Sort { input, by } => {
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let b = fb.into_flat(scratch);
            let sel = sort_sel(&b, by)?;
            let Batch { slot, sel: old } = b;
            if let Some(old) = old {
                scratch.put_sel(old);
            }
            let nb = FBatch::Flat(Batch {
                slot,
                sel: Some(sel),
            });
            record_fbatch(profile, OpKind::Sort, rows_in, &nb);
            Ok(nb)
        }
        PhysicalPlan::Limit { input, n } => {
            let fb = run_fused(input, src, profile, scratch)?;
            let rows_in = fb.len() as u64;
            let keep = fb.len().min(*n);
            let nb = match fb {
                FBatch::Flat(b) => {
                    let sel = match b.sel {
                        Some(mut s) => {
                            s.truncate(keep);
                            s
                        }
                        None => (0..keep as u32).collect(),
                    };
                    FBatch::Flat(Batch {
                        slot: b.slot,
                        sel: Some(sel),
                    })
                }
                FBatch::Chunked { ct, sels } => {
                    let mut remaining = keep;
                    let new_sels: Vec<Vec<u32>> = match sels {
                        Some(ss) => ss
                            .into_iter()
                            .map(|mut s| {
                                let k = remaining.min(s.len());
                                s.truncate(k);
                                remaining -= k;
                                s
                            })
                            .collect(),
                        None => ct
                            .chunks()
                            .iter()
                            .map(|ch| {
                                let k = remaining.min(ch.n_rows());
                                remaining -= k;
                                (0..k as u32).collect()
                            })
                            .collect(),
                    };
                    FBatch::Chunked {
                        ct,
                        sels: Some(new_sels),
                    }
                }
            };
            record_fbatch(profile, OpKind::Limit, rows_in, &nb);
            Ok(nb)
        }
    }
}

/// Returns a consumed batch's selection vectors to the scratch pool.
fn recycle_fbatch_sels(fb: FBatch<'_>, scratch: &mut EvalScratch) {
    match fb {
        FBatch::Flat(Batch { sel: Some(s), .. }) => scratch.put_sel(s),
        FBatch::Flat(_) => {}
        FBatch::Chunked { sels: Some(ss), .. } => {
            for s in ss {
                scratch.put_sel(s);
            }
        }
        FBatch::Chunked { .. } => {}
    }
}

/// Narrows a batch to the rows passing `kp`, morsel-wise, keeping it in
/// the flavour it arrived in (old selections return to the scratch pool).
fn filter_fbatch<'a>(
    fb: FBatch<'a>,
    kp: &KernelPlan<'_>,
    scratch: &mut EvalScratch,
) -> Result<FBatch<'a>, EngineError> {
    Ok(match fb {
        FBatch::Flat(b) => {
            let cols = KernelCols::Table(b.table());
            let sel = filter_morsels(kp, &cols, b.table().n_rows(), b.sel_ref(), scratch)?;
            let Batch { slot, sel: old } = b;
            if let Some(old) = old {
                scratch.put_sel(old);
            }
            FBatch::Flat(Batch {
                slot,
                sel: Some(sel),
            })
        }
        FBatch::Chunked { ct, sels } => {
            let new_sels: Vec<Vec<u32>> = ct
                .chunks()
                .iter()
                .enumerate()
                .map(|(i, ch)| {
                    let old = sels.as_ref().map(|ss| ss[i].as_slice());
                    filter_morsels(kp, &KernelCols::Table(ch), ch.n_rows(), old, scratch)
                })
                .collect::<Result<_, _>>()?;
            for s in sels.into_iter().flatten() {
                scratch.put_sel(s);
            }
            FBatch::Chunked {
                ct,
                sels: Some(new_sels),
            }
        }
    })
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

    /// [`Table::estimated_bytes_sel`] of the materialized join output
    /// restricted to `sel` (`None` = all rows), computed from the gather
    /// indices without materializing: left strings contribute their
    /// gathered lengths (including the type-default slots `take_ids`
    /// clones under NULLs), right strings contribute 0 for outer-join
    /// misses (`take_opt_ids` emits empty strings there) — the identical
    /// float expression, bit for bit.
    fn bytes_sel(&self, sel: Option<&[u32]>) -> u64 {
        let n = sel.map_or_else(|| self.n(), <[u32]>::len);
        let mut per_row = 0.0f64;
        for c in self.lt.columns() {
            per_row += match &c.data {
                ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
                ColumnData::Date(_) => 4.0,
                ColumnData::Bool(_) => 1.0,
                ColumnData::Utf8(v) => {
                    if n == 0 {
                        8.0
                    } else {
                        let total: usize = match sel {
                            None => self
                                .left_out
                                .iter()
                                .map(|&i| v[i as usize].len())
                                .sum(),
                            Some(s) => s
                                .iter()
                                .map(|&p| v[self.left_out[p as usize] as usize].len())
                                .sum(),
                        };
                        total as f64 / n as f64
                    }
                }
            };
        }
        for c in self.rt.columns() {
            per_row += match &c.data {
                ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
                ColumnData::Date(_) => 4.0,
                ColumnData::Bool(_) => 1.0,
                ColumnData::Utf8(v) => {
                    if n == 0 {
                        8.0
                    } else {
                        let len_at = |p: usize| {
                            if self.right_hit[p] {
                                v[self.right_out[p] as usize].len()
                            } else {
                                0
                            }
                        };
                        let total: usize = match sel {
                            None => (0..self.n()).map(len_at).sum(),
                            Some(s) => s.iter().map(|&p| len_at(p as usize)).sum(),
                        };
                        total as f64 / n as f64
                    }
                }
            };
        }
        (per_row * n as f64) as u64
    }
}

/// [`AggInput`] over a deferred join: the accumulator's compiled
/// expressions run against the sparse gathered-column cache at the live
/// join positions — the same values, in the same order, as the
/// materialized-join batch evaluation, so the shared accumulator's float
/// additions are bit-identical.
struct JoinAggInput<'x, 't> {
    dj: &'x mut DeferredJoin<'t>,
    positions: &'x [u32],
}

impl AggInput for JoinAggInput<'_, '_> {
    fn view(&mut self, kp: &KernelPlan<'_>) -> AggView<'_> {
        self.dj.ensure_refs(kp.referenced_cols());
        AggView {
            cols: KernelCols::Cols(&self.dj.cache),
            rows: Some(self.positions),
        }
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
    profile: &mut WorkProfile,
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
    profile.ops.push(OpWork {
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
        profile.ops.push(OpWork {
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
    let rows_in_agg = n_live as u64;
    let mut positions_vec: Vec<u32> = match positions {
        Some(p) => p,
        None => (0..n_join as u32).collect(),
    };

    // Group discovery — mirrors `aggregate_vec` exactly: empty `group_by`
    // is one global group even over empty input; group columns resolve
    // lazily (only when rows exist), then the shared discovery runs over
    // the gathered key columns at the live positions.
    let group_ids: Vec<u32>;
    let rep_rows: Vec<u32>;
    let n_groups: usize;
    if group_by.is_empty() {
        group_ids = vec![0; n_live];
        rep_rows = Vec::new();
        n_groups = 1;
    } else if n_live == 0 {
        // `serial_group_ids` over zero rows discovers nothing.
        group_ids = Vec::new();
        rep_rows = Vec::new();
        n_groups = 0;
    } else {
        for &g in group_by {
            if g >= dj.w {
                return Err(EngineError::ColumnIndex {
                    index: g,
                    width: dj.w,
                });
            }
            dj.ensure(g);
        }
        let (gi, rr, pv) = {
            let gcols: Vec<&Column> = group_by
                .iter()
                .map(|&g| dj.cache[g].as_ref().expect("ensured above"))
                .collect();
            // The discovery pass only reads positions and the key columns
            // passed alongside — the batch's table is never consulted, so
            // an empty placeholder carries the explicit position list.
            let placeholder = Table::empty("join");
            let gb = Batch {
                slot: TableSlot::Borrowed(&placeholder),
                sel: Some(positions_vec),
            };
            let (gi, rr) = serial_group_ids(&gb, &gcols, n_live);
            let Batch { sel, .. } = gb;
            (gi, rr, sel.expect("set above"))
        };
        positions_vec = pv;
        group_ids = gi;
        rep_rows = rr;
        n_groups = rep_rows.len();
    }

    let agg_cols = {
        let mut input = JoinAggInput {
            dj: &mut dj,
            positions: &positions_vec,
        };
        accumulate_aggs(&mut input, aggs, &group_ids, n_groups, n_live, scratch)?
    };
    scratch.put_sel(positions_vec);

    // Assemble: group-key columns gathered from representative positions
    // (validated unconditionally, like the materialized path), then the
    // normalized aggregate columns.
    let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
    for &g in group_by {
        if g >= dj.w {
            return Err(EngineError::ColumnIndex {
                index: g,
                width: dj.w,
            });
        }
        dj.ensure(g);
        columns.push(dj.cache[g].as_ref().expect("ensured above").take_ids(&rep_rows));
    }
    columns.extend(agg_output_columns(aggs, agg_cols));
    let out = Table::new("agg", columns)?;
    let nb = Batch::all(TableSlot::Owned(out));
    record_batch(profile, OpKind::Aggregate, rows_in_agg, &nb);
    Ok(FBatch::Flat(nb))
}
