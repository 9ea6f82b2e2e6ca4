//! Physical plans, the reference executor and the batch kernels the fused
//! executor runs.
//!
//! Plans are operator trees. Two executors run them: the morsel-driven
//! fused executor ([`crate::fused::execute_fused`]), which serves, and
//! [`execute_scalar`] here, row-at-a-time over materialized tables — the
//! readable reference implementation that goldens and differential tests
//! check the fused executor against. Both produce identical result tables
//! **and identical [`WorkProfile`]s** (bit-for-bit, including the
//! estimated byte counts); `tests/fused_differential.rs` enforces it
//! property-test-style.
//!
//! The kernels below serve the fused executor: a `Batch` is a table plus
//! an optional selection vector of live row ids, joins hash composite keys
//! into a single `u64`-keyed open-addressing table with collision
//! verification (no per-row key allocation, and sized by the distinct keys
//! it holds — see `U64Map`) or, for a dense `Int64` key, address their
//! chains directly, and grouped aggregation accumulates morsel by morsel
//! from the typed kernel results.

use crate::catalog::Catalog;
use crate::data::{Column, ColumnData, DataType, Table, Utf8Column, Value};
use crate::error::EngineError;
use crate::expr::{BatchVals, EvalScratch, Expr, KernelCols, KernelPlan};
use crate::fused::for_each_morsel;
use std::collections::HashMap;

/// Join flavours needed by the TPC-H two-table queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinType {
    /// Inner equi-join.
    Inner,
    /// Left-outer equi-join (Q13's `customer LEFT OUTER JOIN orders`).
    LeftOuter,
}

/// Aggregate expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum AggExpr {
    /// `COUNT(*)`.
    Count,
    /// `SUM(expr)`.
    Sum(Expr),
    /// `AVG(expr)`.
    Avg(Expr),
    /// `MIN(expr)` (numeric).
    Min(Expr),
    /// `MAX(expr)` (numeric).
    Max(Expr),
    /// `SUM(CASE WHEN pred THEN 1 ELSE 0 END)` — Q12's priority counters.
    CountIf(Expr),
    /// `SUM(CASE WHEN pred THEN value ELSE 0 END)` — Q14's promo revenue.
    SumIf {
        /// Value summed when the predicate holds.
        value: Expr,
        /// The predicate.
        predicate: Expr,
    },
}

/// A physical query plan: a tree of the six operators the served plans
/// (the paper's TPC-H classes and the medical queries) are built from.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysicalPlan {
    /// Leaf: read a named base table.
    Scan {
        /// Base-table name resolved against the execution catalog.
        table: String,
    },
    /// Row selection.
    Filter {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Selection predicate.
        predicate: Expr,
    },
    /// Column computation / pruning.
    Project {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Output columns as (name, expression).
        exprs: Vec<(String, Expr)>,
    },
    /// Hash equi-join on single key columns.
    HashJoin {
        /// Build side (left).
        left: Box<PhysicalPlan>,
        /// Probe side (right).
        right: Box<PhysicalPlan>,
        /// Key column positions in the left input.
        left_keys: Vec<usize>,
        /// Key column positions in the right input.
        right_keys: Vec<usize>,
        /// Inner or left-outer.
        join_type: JoinType,
    },
    /// Hash aggregation.
    Aggregate {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Group-by key column positions (empty = one global group).
        group_by: Vec<usize>,
        /// Aggregates as (output name, expression).
        aggs: Vec<(String, AggExpr)>,
    },
    /// Sort by column positions; `true` = descending.
    Sort {
        /// Input plan.
        input: Box<PhysicalPlan>,
        /// Sort keys as (column, descending).
        by: Vec<(usize, bool)>,
    },
}

impl PhysicalPlan {
    /// The operator's direct inputs, left before right. A walk that only
    /// needs the tree's shape recurses over this instead of matching every
    /// variant.
    pub fn children(&self) -> impl Iterator<Item = &PhysicalPlan> {
        let (first, second) = match self {
            PhysicalPlan::Scan { .. } => (None, None),
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. } => (Some(&**input), None),
            PhysicalPlan::HashJoin { left, right, .. } => (Some(&**left), Some(&**right)),
        };
        first.into_iter().chain(second)
    }
}

/// What kind of work an operator performed (for the cost model).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Table scan.
    Scan,
    /// Filter.
    Filter,
    /// Projection.
    Project,
    /// Hash join.
    Join,
    /// Aggregation.
    Aggregate,
    /// Sort.
    Sort,
}

/// Tuple/byte accounting for one executed operator.
#[derive(Debug, Clone, PartialEq)]
pub struct OpWork {
    /// Operator kind.
    pub kind: OpKind,
    /// Input tuples (both sides summed for joins).
    pub rows_in: u64,
    /// Output tuples.
    pub rows_out: u64,
    /// Estimated output bytes.
    pub bytes_out: u64,
}

/// Work accounting for a whole plan execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct WorkProfile {
    /// Per-operator entries in execution (post-order) sequence.
    pub ops: Vec<OpWork>,
}

impl WorkProfile {
    /// Total tuples read by scans.
    pub fn scanned_rows(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Scan)
            .map(|o| o.rows_in)
            .sum()
    }

    /// Total bytes read by scans.
    pub fn scanned_bytes(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Scan)
            .map(|o| o.bytes_out)
            .sum()
    }

    /// Total tuples entering joins.
    pub fn join_input_rows(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Join)
            .map(|o| o.rows_in)
            .sum()
    }

    /// Total tuples entering aggregations.
    pub fn agg_input_rows(&self) -> u64 {
        self.ops
            .iter()
            .filter(|o| o.kind == OpKind::Aggregate)
            .map(|o| o.rows_in)
            .sum()
    }

    /// Bytes of the largest intermediate result (a memory-pressure proxy).
    pub fn peak_intermediate_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes_out).max().unwrap_or(0)
    }

    /// Total bytes produced across all operators (the "intermediate data"
    /// cost metric some user policies optimize).
    pub fn total_intermediate_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.bytes_out).sum()
    }

    /// Rows of the final operator's output (the plan's result size).
    pub fn output_rows(&self) -> u64 {
        self.ops.last().map_or(0, |o| o.rows_out)
    }
}

/// Hashable key for joins and group-by.
///
/// Strings are *borrowed* from their column: hashing or comparing a key row
/// allocates nothing, and even interning a previously unseen key into a
/// build map only copies `Copy` variants and string references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum KeyVal<'a> {
    Int(i64),
    Str(&'a str),
    Date(i32),
    Bool(bool),
    /// Floats keyed by bit pattern.
    Float(u64),
    Null,
}

/// The key part of one row of one column, read straight from typed storage
/// (no `Value` materialization, no string clone).
fn key_part(col: &Column, row: usize) -> KeyVal<'_> {
    if !col.is_valid(row) {
        return KeyVal::Null;
    }
    match &*col.data {
        ColumnData::Int64(v) => KeyVal::Int(v[row]),
        ColumnData::Utf8(v) => KeyVal::Str(&v[row]),
        ColumnData::Date(v) => KeyVal::Date(v[row]),
        ColumnData::Bool(v) => KeyVal::Bool(v[row]),
        ColumnData::Float64(v) => KeyVal::Float(v[row].to_bits()),
    }
}

/// Executes a plan row-at-a-time through the reference scalar operators.
///
/// The differential oracle of [`crate::fused::execute_fused`] and the
/// baseline of the `scalar_vs_fused` benchmarks; results and
/// [`WorkProfile`]s match the fused executor's exactly.
pub fn execute_scalar(
    plan: &PhysicalPlan,
    catalog: &Catalog,
) -> Result<(Table, WorkProfile), EngineError> {
    let mut profile = WorkProfile::default();
    let table = run(plan, catalog, &mut profile)?;
    Ok((table, profile))
}

fn record(profile: &mut WorkProfile, kind: OpKind, rows_in: u64, out: &Table) {
    profile.ops.push(OpWork {
        kind,
        rows_in,
        rows_out: out.n_rows() as u64,
        bytes_out: out.estimated_bytes(),
    });
}

fn run(
    plan: &PhysicalPlan,
    catalog: &Catalog,
    profile: &mut WorkProfile,
) -> Result<Table, EngineError> {
    match plan {
        PhysicalPlan::Scan { table } => {
            let t = catalog
                .get(table)
                .ok_or_else(|| EngineError::UnknownTable(table.clone()))?
                .clone();
            let rows = t.n_rows() as u64;
            record(profile, OpKind::Scan, rows, &t);
            Ok(t)
        }
        PhysicalPlan::Filter { input, predicate } => {
            let t = run(input, catalog, profile)?;
            let mask = predicate.eval_mask(&t)?;
            let out = t.filter(&mask);
            record(profile, OpKind::Filter, t.n_rows() as u64, &out);
            Ok(out)
        }
        PhysicalPlan::Project { input, exprs } => {
            let t = run(input, catalog, profile)?;
            let out = project(&t, exprs)?;
            record(profile, OpKind::Project, t.n_rows() as u64, &out);
            Ok(out)
        }
        PhysicalPlan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            join_type,
        } => {
            let lt = run(left, catalog, profile)?;
            let rt = run(right, catalog, profile)?;
            let out = hash_join(&lt, &rt, left_keys, right_keys, *join_type)?;
            record(
                profile,
                OpKind::Join,
                (lt.n_rows() + rt.n_rows()) as u64,
                &out,
            );
            Ok(out)
        }
        PhysicalPlan::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let t = run(input, catalog, profile)?;
            let out = aggregate(&t, group_by, aggs)?;
            record(profile, OpKind::Aggregate, t.n_rows() as u64, &out);
            Ok(out)
        }
        PhysicalPlan::Sort { input, by } => {
            let t = run(input, catalog, profile)?;
            let out = sort(&t, by)?;
            record(profile, OpKind::Sort, t.n_rows() as u64, &out);
            Ok(out)
        }
    }
}

fn project(t: &Table, exprs: &[(String, Expr)]) -> Result<Table, EngineError> {
    let n = t.n_rows();
    let mut columns = Vec::with_capacity(exprs.len());
    for (name, expr) in exprs {
        // Evaluate row-wise and infer the column type from the first
        // non-NULL value; all-NULL columns default to Int64.
        let mut values = Vec::with_capacity(n);
        for row in 0..n {
            values.push(expr.eval(t, row)?);
        }
        columns.push(column_from_values(name, values)?);
    }
    Table::new(&t.name, columns)
}

fn column_from_values(name: &str, values: Vec<Value>) -> Result<Column, EngineError> {
    let dtype = values
        .iter()
        .find_map(|v| v.data_type())
        .unwrap_or(DataType::Int64);
    let mut validity = Vec::with_capacity(values.len());
    macro_rules! build {
        ($variant:ident, $extract:expr, $default:expr) => {{
            let mut out = Vec::with_capacity(values.len());
            for v in &values {
                match $extract(v) {
                    Some(x) => {
                        validity.push(true);
                        out.push(x);
                    }
                    None => {
                        validity.push(false);
                        out.push($default);
                    }
                }
            }
            ColumnData::$variant(out)
        }};
    }
    let data = match dtype {
        DataType::Int64 => build!(
            Int64,
            |v: &Value| match v {
                Value::Int64(x) => Some(*x),
                _ => None,
            },
            0
        ),
        DataType::Float64 => build!(
            Float64,
            |v: &Value| v.as_f64(),
            0.0
        ),
        DataType::Utf8 => {
            let mut out = Utf8Column::with_capacity(values.len(), 0);
            for v in &values {
                let s = match v {
                    Value::Utf8(s) => Some(s.as_str()),
                    _ => None,
                };
                validity.push(s.is_some());
                out.push(s.unwrap_or_default());
            }
            ColumnData::Utf8(out)
        }
        DataType::Date => build!(
            Date,
            |v: &Value| match v {
                Value::Date(d) => Some(*d),
                _ => None,
            },
            0
        ),
        DataType::Bool => build!(
            Bool,
            |v: &Value| match v {
                Value::Bool(b) => Some(*b),
                _ => None,
            },
            false
        ),
    };
    if validity.iter().all(|&v| v) {
        Ok(Column::new(name, data))
    } else {
        Ok(Column::with_validity(name, data, validity))
    }
}

/// Fills `out` with the key of `row` — reusing the caller's scratch buffer
/// instead of allocating a fresh `Vec<KeyVal>` per row, so the scalar join
/// and aggregation baselines measure hashing, not allocator traffic. Key
/// parts borrow from the columns: no per-row `String` clone.
fn row_key_into<'a>(cols: &[&'a Column], row: usize, out: &mut Vec<KeyVal<'a>>) {
    out.clear();
    for col in cols {
        out.push(key_part(col, row));
    }
}

/// Resolves key columns, but — matching the fused executor's lazy per-row
/// validation ([`join_key_columns`]) — only when the side actually has
/// rows.
fn key_columns<'a>(t: &'a Table, keys: &[usize]) -> Result<Vec<&'a Column>, EngineError> {
    if t.n_rows() == 0 {
        return Ok(Vec::new());
    }
    keys.iter().map(|&k| t.column(k)).collect()
}

fn hash_join(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
) -> Result<Table, EngineError> {
    if left_keys.len() != right_keys.len() {
        return Err(EngineError::TypeMismatch {
            context: "join key arity mismatch".to_string(),
        });
    }
    // Build on the right side, probe from the left so LeftOuter preserves
    // every left row naturally. One scratch key buffer serves every row;
    // it is only cloned (cheaply: `KeyVal` is `Copy`) when a new key enters
    // the build map.
    let rcols = key_columns(right, right_keys)?;
    let lcols = key_columns(left, left_keys)?;
    let mut scratch: Vec<KeyVal<'_>> = Vec::with_capacity(right_keys.len());
    let mut build: HashMap<Vec<KeyVal<'_>>, Vec<usize>> = HashMap::new();
    for row in 0..right.n_rows() {
        row_key_into(&rcols, row, &mut scratch);
        if scratch.iter().any(|k| matches!(k, KeyVal::Null)) {
            continue; // NULL keys never match
        }
        match build.get_mut(&scratch) {
            Some(rows) => rows.push(row),
            None => {
                build.insert(scratch.clone(), vec![row]);
            }
        }
    }

    let mut left_idx: Vec<usize> = Vec::new();
    let mut right_idx: Vec<Option<usize>> = Vec::new();
    for row in 0..left.n_rows() {
        row_key_into(&lcols, row, &mut scratch);
        let matches = if scratch.iter().any(|k| matches!(k, KeyVal::Null)) {
            None
        } else {
            build.get(&scratch)
        };
        match matches {
            Some(rows) => {
                for &r in rows {
                    left_idx.push(row);
                    right_idx.push(Some(r));
                }
            }
            None => {
                if join_type == JoinType::LeftOuter {
                    left_idx.push(row);
                    right_idx.push(None);
                }
            }
        }
    }

    // Assemble output columns: all left columns then all right columns.
    let mut columns = Vec::with_capacity(left.n_columns() + right.n_columns());
    for c in left.columns() {
        columns.push(c.take(&left_idx));
    }
    for c in right.columns() {
        columns.push(c.take_opt(&right_idx));
    }
    finish_join_output(left, columns)
}

/// Disambiguates right-side column names that collide with left-side ones
/// (with an `r.` prefix) and assembles the join result — shared by the
/// scalar and the fused joins so their output schemas can never drift.
pub(crate) fn finish_join_output(left: &Table, mut columns: Vec<Column>) -> Result<Table, EngineError> {
    let left_names: Vec<String> = left.columns().iter().map(|c| c.name.clone()).collect();
    for col in columns.iter_mut().skip(left.n_columns()) {
        if left_names.contains(&col.name) {
            col.name = format!("r.{}", col.name);
        }
    }
    Table::new("join", columns)
}

/// Running state of one aggregate.
#[derive(Debug, Clone)]
enum AggState {
    Count(u64),
    Sum { total: f64, seen: bool },
    Avg { total: f64, count: u64 },
    Min(Option<f64>),
    Max(Option<f64>),
}

fn aggregate(
    t: &Table,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
) -> Result<Table, EngineError> {
    // Group rows. The scratch key buffer is reused across rows and cloned
    // only when a previously unseen group appears.
    let gcols = key_columns(t, group_by)?;
    let mut groups: HashMap<Vec<KeyVal<'_>>, Vec<usize>> = HashMap::new();
    let mut first_seen: Vec<Vec<KeyVal<'_>>> = Vec::new();
    let mut scratch: Vec<KeyVal<'_>> = Vec::with_capacity(group_by.len());
    for row in 0..t.n_rows() {
        row_key_into(&gcols, row, &mut scratch);
        match groups.get_mut(&scratch) {
            Some(rows) => rows.push(row),
            None => {
                first_seen.push(scratch.clone());
                groups.insert(scratch.clone(), vec![row]);
            }
        }
    }
    // Global aggregation over empty input still yields one group.
    if group_by.is_empty() && groups.is_empty() {
        groups.insert(Vec::new(), Vec::new());
        first_seen.push(Vec::new());
    }

    // Deterministic output order: first-seen group order.
    let ordered_keys = first_seen;

    // Compute aggregates per group.
    let mut agg_values: Vec<Vec<Value>> = vec![Vec::with_capacity(ordered_keys.len()); aggs.len()];
    let mut group_rows: Vec<usize> = Vec::with_capacity(ordered_keys.len());
    for key in &ordered_keys {
        let rows = &groups[key];
        group_rows.push(rows.first().copied().unwrap_or(0));
        for (slot, (_, agg)) in aggs.iter().enumerate() {
            let mut state = match agg {
                AggExpr::Count | AggExpr::CountIf(_) => AggState::Count(0),
                AggExpr::Sum(_) | AggExpr::SumIf { .. } => AggState::Sum {
                    total: 0.0,
                    seen: false,
                },
                AggExpr::Avg(_) => AggState::Avg {
                    total: 0.0,
                    count: 0,
                },
                AggExpr::Min(_) => AggState::Min(None),
                AggExpr::Max(_) => AggState::Max(None),
            };
            for &row in rows {
                step_agg(&mut state, agg, t, row)?;
            }
            agg_values[slot].push(finish_agg(state));
        }
    }

    // Assemble: group-key columns (gathered from representative rows) then
    // aggregate columns.
    let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
    for &g in group_by {
        let src = t.column(g)?;
        columns.push(src.take(&group_rows));
    }
    for (slot, (name, _)) in aggs.iter().enumerate() {
        columns.push(column_from_values(name, std::mem::take(&mut agg_values[slot]))?);
    }
    Table::new("agg", columns)
}

fn step_agg(state: &mut AggState, agg: &AggExpr, t: &Table, row: usize) -> Result<(), EngineError> {
    match (state, agg) {
        (AggState::Count(c), AggExpr::Count) => *c += 1,
        (AggState::Count(c), AggExpr::CountIf(pred)) => {
            if matches!(pred.eval(t, row)?, Value::Bool(true)) {
                *c += 1;
            }
        }
        (AggState::Sum { total, seen }, AggExpr::Sum(e)) => {
            if let Some(x) = e.eval(t, row)?.as_f64() {
                *total += x;
                *seen = true;
            }
        }
        (AggState::Sum { total, seen }, AggExpr::SumIf { value, predicate }) => {
            *seen = true;
            if matches!(predicate.eval(t, row)?, Value::Bool(true)) {
                if let Some(x) = value.eval(t, row)?.as_f64() {
                    *total += x;
                }
            }
        }
        (AggState::Avg { total, count }, AggExpr::Avg(e)) => {
            if let Some(x) = e.eval(t, row)?.as_f64() {
                *total += x;
                *count += 1;
            }
        }
        (AggState::Min(m), AggExpr::Min(e)) => {
            if let Some(x) = e.eval(t, row)?.as_f64() {
                *m = Some(m.map_or(x, |cur: f64| cur.min(x)));
            }
        }
        (AggState::Max(m), AggExpr::Max(e)) => {
            if let Some(x) = e.eval(t, row)?.as_f64() {
                *m = Some(m.map_or(x, |cur: f64| cur.max(x)));
            }
        }
        // LINT: panic-ok — states are built by agg_states() from the same
        // agg list iterated here; a mismatched pairing cannot be produced
        // by any public input, only by a bug in this file.
        _ => unreachable!("state/agg pairing is fixed at construction"),
    }
    Ok(())
}

fn finish_agg(state: AggState) -> Value {
    match state {
        AggState::Count(c) => Value::Int64(c as i64),
        AggState::Sum { total, seen } => {
            if seen {
                Value::Float64(total)
            } else {
                Value::Null
            }
        }
        AggState::Avg { total, count } => {
            if count > 0 {
                Value::Float64(total / count as f64)
            } else {
                Value::Null
            }
        }
        AggState::Min(m) => m.map_or(Value::Null, Value::Float64),
        AggState::Max(m) => m.map_or(Value::Null, Value::Float64),
    }
}

fn sort(t: &Table, by: &[(usize, bool)]) -> Result<Table, EngineError> {
    let mut indices: Vec<usize> = (0..t.n_rows()).collect();
    // Validate columns up-front so sort_by can't panic mid-way.
    for &(c, _) in by {
        t.column(c)?;
    }
    indices.sort_by(|&a, &b| {
        for &(c, desc) in by {
            let col = t.column(c).expect("validated above");
            let ord = cmp_values(&col.value(a), &col.value(b));
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(t.take(&indices))
}

/// Total order over values for sorting: NULLs first, then by type.
fn cmp_values(a: &Value, b: &Value) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Value::Null, Value::Null) => Ordering::Equal,
        (Value::Null, _) => Ordering::Less,
        (_, Value::Null) => Ordering::Greater,
        (Value::Utf8(x), Value::Utf8(y)) => x.cmp(y),
        (Value::Bool(x), Value::Bool(y)) => x.cmp(y),
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x.partial_cmp(&y).unwrap_or(Ordering::Equal),
            _ => Ordering::Equal,
        },
    }
}

// ============================ batch kernels ============================

/// A table flowing between fused operators — one slab of
/// [`crate::fused`]'s batches: either borrowed from the catalog, a version
/// chunk or a fragment output (scans), or owned (materializing operators),
/// plus an optional selection vector of live original-row ids.
pub(crate) enum TableSlot<'a> {
    Borrowed(&'a Table),
    Owned(Table),
}

pub(crate) struct Batch<'a> {
    pub(crate) slot: TableSlot<'a>,
    pub(crate) sel: Option<Vec<u32>>,
}

impl<'a> Batch<'a> {
    pub(crate) fn all(slot: TableSlot<'a>) -> Self {
        Batch { slot, sel: None }
    }

    pub(crate) fn table(&self) -> &Table {
        match &self.slot {
            TableSlot::Borrowed(t) => t,
            TableSlot::Owned(t) => t,
        }
    }

    pub(crate) fn sel_ref(&self) -> Option<&[u32]> {
        self.sel.as_deref()
    }

    /// Logical row count (what the scalar path would have materialized).
    pub(crate) fn len(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.table().n_rows(),
        }
    }

    /// Original row id of batch position `pos`.
    #[inline]
    pub(crate) fn row_id(&self, pos: usize) -> usize {
        row_at(self.sel_ref(), pos)
    }

    /// Gathers the batch into a concrete table (the final plan result).
    pub(crate) fn materialize(self) -> Table {
        match (self.slot, self.sel) {
            (TableSlot::Owned(t), None) => t,
            (TableSlot::Borrowed(t), None) => t.clone(),
            (TableSlot::Owned(t), Some(sel)) => t.take_ids(&sel),
            (TableSlot::Borrowed(t), Some(sel)) => t.take_ids(&sel),
        }
    }
}

// ----- allocation-free composite keys -----

/// SplitMix64 finalizer: one multiply-xorshift round per key part.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[inline]
fn hash_combine(h: u64, k: u64) -> u64 {
    (h ^ k).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[inline]
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

const KEY_HASH_SEED: u64 = 0x517c_c1b7_2722_0a95;

/// The key columns as one value slice when the key is a single `Int64`
/// column without NULLs — every `*_key` join and group-by of the TPC-H
/// plans. Hashing and equality over it ([`int_key_hash`], `==`) skip the
/// per-row dispatch on column count, type and validity that [`key_hash`] /
/// [`keys_equal`] pay, and produce the same hashes and verdicts.
fn sole_int_key<'c>(cols: &[&'c Column]) -> Option<&'c [i64]> {
    match cols {
        [col] => match (&*col.data, &col.validity) {
            (ColumnData::Int64(v), None) => Some(v),
            _ => None,
        },
        _ => None,
    }
}

/// [`key_hash`] of a one-column, non-NULL `Int64` key.
#[inline]
fn int_key_hash(k: i64) -> u64 {
    hash_combine(KEY_HASH_SEED, mix64(k as u64))
}

/// Hashes the composite key of `row` into one `u64` — no per-row
/// allocation. `None` when a key part is NULL and `null_sentinel` is off
/// (join keys: NULL never matches). With the sentinel on (group-by keys),
/// NULL hashes like a distinguished constant so NULL groups with NULL.
fn key_hash(cols: &[&Column], row: usize, null_sentinel: bool) -> Option<u64> {
    let mut h: u64 = KEY_HASH_SEED;
    for col in cols {
        let k = if !col.is_valid(row) {
            if !null_sentinel {
                return None;
            }
            mix64(0x6e75_6c6c) // "null"
        } else {
            match &*col.data {
                ColumnData::Int64(v) => mix64(v[row] as u64),
                ColumnData::Date(v) => mix64(v[row] as i64 as u64),
                ColumnData::Float64(v) => mix64(v[row].to_bits()),
                ColumnData::Bool(v) => mix64(v[row] as u64),
                ColumnData::Utf8(v) => fnv1a(v[row].as_bytes()),
            }
        };
        h = hash_combine(h, k);
    }
    Some(h)
}

/// Verifies composite-key equality between two rows with `KeyVal`
/// semantics: same-variant values compare (floats by bit pattern), values
/// of different column types never match, and NULL equals NULL (reachable
/// only for group-by keys — join paths skip NULL keys before hashing).
fn keys_equal(lcols: &[&Column], lrow: usize, rcols: &[&Column], rrow: usize) -> bool {
    lcols.iter().zip(rcols.iter()).all(|(lc, rc)| {
        let lv = lc.is_valid(lrow);
        let rv = rc.is_valid(rrow);
        if !lv || !rv {
            return lv == rv;
        }
        match (&*lc.data, &*rc.data) {
            (ColumnData::Int64(a), ColumnData::Int64(b)) => a[lrow] == b[rrow],
            (ColumnData::Float64(a), ColumnData::Float64(b)) => {
                a[lrow].to_bits() == b[rrow].to_bits()
            }
            (ColumnData::Date(a), ColumnData::Date(b)) => a[lrow] == b[rrow],
            (ColumnData::Bool(a), ColumnData::Bool(b)) => a[lrow] == b[rrow],
            (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a[lrow] == b[rrow],
            _ => false,
        }
    })
}

/// Open-addressing map from `u64` hash to a `u32` chain head (`0` =
/// empty). Linear probing at ≤ 50% load; collision resolution is the
/// caller's verification of chained entries, so distinct keys sharing a
/// hash simply share a chain.
///
/// **Sizing rule:** the table is sized by the *distinct hashes it holds*,
/// never by the rows its caller scans. It starts at
/// [`U64Map::INITIAL_SLOTS`] and doubles whenever a new hash would push it
/// past 50% load, re-placing the `(hash, head)` pairs; the chains hang off
/// the heads in the caller's vectors and are untouched, so what `get`
/// returns is independent of how often the map grew. A group-by of 600 k
/// rows into 20 k groups therefore holds 1 MiB of slots, not the 32 MiB a
/// map pre-sized by input rows asks the kernel for — and gives back — on
/// every job. (A key that is one non-NULL `Int64` column spanning fewer
/// integers than the operator reads rows ([`dense_span`]) needs no map at
/// all: a grouping addresses its group ids directly ([`dense_group_ids`]),
/// a join its build side's chain heads ([`serial_join_indices`]) — tables
/// no longer than 4 B × those rows. This map serves every other key.)
#[derive(Debug, Clone)]
struct U64Map {
    mask: usize,
    /// Occupied slots (= distinct hashes held).
    len: usize,
    slots: Vec<(u64, u32)>,
}

impl U64Map {
    /// Slots of an empty map (a power of two).
    const INITIAL_SLOTS: usize = 16;

    fn new() -> U64Map {
        U64Map {
            mask: Self::INITIAL_SLOTS - 1,
            len: 0,
            slots: vec![(0, 0); Self::INITIAL_SLOTS],
        }
    }

    #[inline]
    fn probe(&self, h: u64) -> usize {
        let mut i = (h as usize) & self.mask;
        loop {
            let (slot_hash, head) = self.slots[i];
            if head == 0 || slot_hash == h {
                return i;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Chain head for `h`, or 0 when absent.
    #[inline]
    fn get(&self, h: u64) -> u32 {
        let (slot_hash, head) = self.slots[self.probe(h)];
        if head != 0 && slot_hash == h {
            head
        } else {
            0
        }
    }

    /// Mutable chain-head slot for `h`, claiming an empty slot if needed
    /// (growing first when the claim would pass 50% load). The caller must
    /// leave a non-zero head in a slot it claimed: an occupied slot *is* a
    /// non-zero head, to `probe` and to `grow` alike.
    #[inline]
    fn entry(&mut self, h: u64) -> &mut u32 {
        let mut i = self.probe(h);
        if self.slots[i].1 == 0 {
            if (self.len + 1) * 2 > self.slots.len() {
                self.grow();
                i = self.probe(h);
            }
            self.len += 1;
            self.slots[i].0 = h;
        }
        &mut self.slots[i].1
    }

    /// Doubles the table and re-places every occupied slot. Held hashes
    /// are distinct, so each lands in the first free slot of its probe
    /// sequence without comparing.
    #[cold]
    fn grow(&mut self) {
        let cap = self.slots.len() * 2;
        let mask = cap - 1;
        let mut slots = vec![(0u64, 0u32); cap];
        for &(h, head) in &self.slots {
            if head != 0 {
                let mut i = (h as usize) & mask;
                while slots[i].1 != 0 {
                    i = (i + 1) & mask;
                }
                slots[i] = (h, head);
            }
        }
        self.mask = mask;
        self.slots = slots;
    }
}

// ----- group discovery -----

/// The first-seen group-id assignment: one pass over `n` positions
/// (`rows` gives each position's row id; `None` = position `p` is row `p`),
/// returning each position's group id and the first row of every group, in
/// first-seen order. A single `Int64` key whose live values span fewer
/// integers than there are rows is addressed directly
/// ([`dense_group_ids`]); every other key goes through the hash chains.
pub(crate) fn serial_group_ids(
    rows: Option<&[u32]>,
    gcols: &[&Column],
    n: usize,
) -> (Vec<u32>, Vec<u32>) {
    match sole_int_key(gcols) {
        Some(v) => dense_group_ids(rows, v, n).unwrap_or_else(|| {
            group_ids_by(rows, n, |row| int_key_hash(v[row]), |x, y| v[x] == v[y])
        }),
        None => group_ids_by(
            rows,
            n,
            |row| key_hash(gcols, row, true).expect("sentinel hashing is total"),
            |x, y| keys_equal(gcols, x, gcols, y),
        ),
    }
}

/// Row id of position `pos` under an optional selection.
#[inline]
fn row_at(rows: Option<&[u32]>, pos: usize) -> usize {
    rows.map_or(pos, |s| s[pos] as usize)
}

/// [`serial_group_ids`] of a dense key: when `max − min < n` over the live
/// positions, a table of `max − min + 1` slots maps `key − min` to its
/// group id + 1 (`0` = not seen yet) — no hashing, no chain walk, no
/// re-read of a representative row's key. Ids are handed out in first-seen
/// order, so the result equals the hashed pass's. `None` when the key is
/// sparse (or there are no positions): the caller hashes.
fn dense_group_ids(rows: Option<&[u32]>, keys: &[i64], n: usize) -> Option<(Vec<u32>, Vec<u32>)> {
    let (min, span) = dense_span(n, rows, keys, n)?;
    let mut id_of = vec![0u32; span + 1];
    let mut group_ids: Vec<u32> = Vec::with_capacity(n);
    let mut rep_rows: Vec<u32> = Vec::new();
    for pos in 0..n {
        let row = row_at(rows, pos);
        let slot = &mut id_of[keys[row].abs_diff(min) as usize];
        if *slot == 0 {
            rep_rows.push(row as u32);
            *slot = rep_rows.len() as u32;
        }
        group_ids.push(*slot - 1);
    }
    Some((group_ids, rep_rows))
}

/// [`serial_group_ids`] over `groups` — distinct keys, group `g` holding
/// `groups[g]` — followed by `keys`, without putting the two in one column:
/// the group id of each of `keys`, and the positions of `keys` that open a
/// group. Addressed as [`dense_group_ids`] addresses a dense key, over both
/// slices; `None` when their span is not under their length, or when
/// `groups` repeats a key (the caller concatenates and discovers).
pub(crate) fn dense_group_ids_after(groups: &[i64], keys: &[i64]) -> Option<(Vec<u32>, Vec<u32>)> {
    let range = |(lo, hi): (i64, i64), &k: &i64| (lo.min(k), hi.max(k));
    let (min, max) = groups.iter().chain(keys).fold((i64::MAX, i64::MIN), range);
    let limit = groups.len() + keys.len();
    let span = usize::try_from(max.abs_diff(min))
        .ok()
        .filter(|&s| s < limit)?;
    let mut id_of = vec![0u32; span + 1];
    for (g, &k) in groups.iter().enumerate() {
        let slot = &mut id_of[k.abs_diff(min) as usize];
        if *slot != 0 {
            return None;
        }
        *slot = g as u32 + 1;
    }
    let (mut opened, mut seen) = (Vec::new(), groups.len() as u32);
    let mut id = |(pos, &k): (usize, &i64)| {
        let slot = &mut id_of[k.abs_diff(min) as usize];
        if *slot == 0 {
            opened.push(pos as u32);
            seen += 1;
            *slot = seen;
        }
        *slot - 1
    };
    let ids = keys.iter().enumerate().map(&mut id).collect();
    Some((ids, opened))
}

/// The one rule by which a single `Int64` key is addressed directly:
/// `(min, max − min)` of `keys` at the rows of `n` positions (`rows` maps a
/// position to its row; `None` = position `p` is row `p`), when that span
/// is under `limit` — the rows the operator reads, so a table of
/// `span + 1` slots is never the larger allocation. `None` over no
/// positions.
fn dense_span(
    n: usize,
    rows: Option<&[u32]>,
    keys: &[i64],
    limit: usize,
) -> Option<(i64, usize)> {
    let range = |(lo, hi): (i64, i64), k: i64| (lo.min(k), hi.max(k));
    let (min, max) = match rows {
        // A straight pass over the slice, which the compiler unrolls.
        None => keys[..n].iter().copied().fold((i64::MAX, i64::MIN), range),
        Some(rows) => rows[..n].iter().map(|&r| keys[r as usize]).fold((i64::MAX, i64::MIN), range),
    };
    // `abs_diff` cannot overflow, and over no positions it is `u64::MAX`.
    let span = usize::try_from(max.abs_diff(min))
        .ok()
        .filter(|&s| s < limit)?;
    Some((min, span))
}

/// [`serial_group_ids`] over a key given as a row hash and a row-pair
/// equality.
fn group_ids_by(
    rows: Option<&[u32]>,
    n: usize,
    hash: impl Fn(usize) -> u64,
    same_key: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, Vec<u32>) {
    let mut group_ids: Vec<u32> = Vec::with_capacity(n);
    let mut rep_rows: Vec<u32> = Vec::new();
    let mut map = U64Map::new();
    let mut chain: Vec<u32> = Vec::new(); // per-group next in hash chain
    for pos in 0..n {
        let row = row_at(rows, pos);
        let head = map.entry(hash(row));
        let mut cur = *head;
        let mut found = None;
        while cur != 0 {
            let g = (cur - 1) as usize;
            if same_key(row, rep_rows[g] as usize) {
                found = Some(g);
                break;
            }
            cur = chain[g];
        }
        let g = match found {
            Some(g) => g,
            None => {
                let g = rep_rows.len();
                rep_rows.push(row as u32);
                chain.push(*head);
                *head = g as u32 + 1;
                g
            }
        };
        group_ids.push(g as u32);
    }
    (group_ids, rep_rows)
}

// ----- join -----

/// Resolves a join's key columns, `(left, right)`, for both join entry
/// points ([`hash_join_vec`] and the fused executor's deferred join). The
/// first error is fixed here, once: key arity, then the right side's
/// columns, then the left's — and a side's columns are looked up only when
/// that side has rows (an empty side yields no columns), matching the
/// scalar path's per-row, hence lazy, validation.
pub(crate) fn join_key_columns<'b>(
    lb: &'b Batch<'_>,
    rb: &'b Batch<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<(Vec<&'b Column>, Vec<&'b Column>), EngineError> {
    if left_keys.len() != right_keys.len() {
        return Err(EngineError::TypeMismatch {
            context: "join key arity mismatch".to_string(),
        });
    }
    let resolve = |b: &'b Batch<'_>, keys: &[usize]| -> Result<Vec<&'b Column>, EngineError> {
        if b.len() == 0 {
            return Ok(Vec::new());
        }
        keys.iter().map(|&k| b.table().column(k)).collect()
    };
    let rcols = resolve(rb, right_keys)?;
    Ok((resolve(lb, left_keys)?, rcols))
}

pub(crate) fn hash_join_vec(
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    left_keys: &[usize],
    right_keys: &[usize],
    join_type: JoinType,
) -> Result<Table, EngineError> {
    let (lcols, rcols) = join_key_columns(lb, rb, left_keys, right_keys)?;
    let (left_out, right_out, right_hit) = serial_join_indices(lb, rb, &lcols, &rcols, join_type);
    gather_join(lb.table(), rb.table(), &left_out, &right_out, &right_hit)
}

/// The join output rows `(left[left_out[i]], right[right_out[i]], or
/// NULLs where !right_hit[i])`: all left columns, then all right columns.
pub(crate) fn gather_join(
    left: &Table,
    right: &Table,
    left_out: &[u32],
    right_out: &[u32],
    right_hit: &[bool],
) -> Result<Table, EngineError> {
    let left_cols = left.columns().iter().map(|c| c.take_ids(left_out));
    let right_cols = right.columns().iter().map(|c| c.take_opt_ids(right_out, right_hit));
    finish_join_output(left, left_cols.chain(right_cols).collect())
}

/// The build/probe producing the join's gather indices:
/// `(left row, right row, right matched)` triples flattened into three
/// vectors, ordered by (left position, right position) whichever side the
/// table was built on ([`join_indices_by`]).
///
/// A single non-NULL `Int64` key on both sides whose build-side values
/// span fewer integers than the join reads rows ([`int_key_span`]) keeps
/// its chain heads in a `Vec<u32>` indexed by `key − min`, with one
/// sentinel head past the end: no hashing, and a probe key outside
/// `[min, max]` reads the sentinel head — never written, since every build
/// key lies inside — instead of branching on the range. Equal slots are
/// equal keys, so no key comparison is left to make. Every other key
/// hashes into a [`U64Map`] and verifies each chained row's key.
pub(crate) fn serial_join_indices(
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    lcols: &[&Column],
    rcols: &[&Column],
    join_type: JoinType,
) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
    match (sole_int_key(lcols), sole_int_key(rcols)) {
        (Some(l), Some(r)) => match int_key_span(lb, rb, l, r) {
            Some((min, span)) => {
                let slot = direct_slot(min, span);
                join_indices_by(
                    lb,
                    rb,
                    join_type,
                    vec![0u32; span + 2],
                    |lrow| Some(slot(l[lrow])),
                    |rrow| Some(slot(r[rrow])),
                    |_, _| true,
                )
            }
            None => join_indices_by(
                lb,
                rb,
                join_type,
                U64Map::new(),
                |lrow| Some(int_key_hash(l[lrow])),
                |rrow| Some(int_key_hash(r[rrow])),
                |lrow, rrow| l[lrow] == r[rrow],
            ),
        },
        _ => join_indices_by(
            lb,
            rb,
            join_type,
            U64Map::new(),
            |lrow| key_hash(lcols, lrow, false),
            |rrow| key_hash(rcols, rrow, false),
            |lrow, rrow| keys_equal(lcols, lrow, rcols, rrow),
        ),
    }
}

/// The slot of an `Int64` key in a direct table of `span + 2` chain heads
/// over `[min, min + span]`: `k − min` in wrapping arithmetic, where a key
/// below `min` wraps to `k − min + 2⁶⁴ ≥ span + 1` (`k ≥ i64::MIN`, `min +
/// span ≤ i64::MAX`), so one `min` sends both ends of the range to the
/// sentinel slot `span + 1`.
fn direct_slot(min: i64, span: usize) -> impl Fn(i64) -> u64 + Copy {
    let sentinel = span as u64 + 1;
    move |k| (k as u64).wrapping_sub(min as u64).min(sentinel)
}

/// `(min, max − min)` of the build side's keys when [`dense_span`] admits
/// them against the rows the join reads — `dense_group_ids`' rule, so the
/// direct table of `span + 1` heads and the sentinel is never longer than
/// 4 B × (the join's input rows + 1).
fn int_key_span(lb: &Batch<'_>, rb: &Batch<'_>, l: &[i64], r: &[i64]) -> Option<(i64, usize)> {
    let (build, keys) = if builds_right(lb, rb) {
        (rb, r)
    } else {
        (lb, l)
    };
    let rows_in = lb.len() + rb.len();
    dense_span(build.len(), build.sel_ref(), keys, rows_in)
}

/// The build-side rule of [`join_indices_by`]: the right side, unless the
/// left has fewer rows.
fn builds_right(lb: &Batch<'_>, rb: &Batch<'_>) -> bool {
    lb.len() >= rb.len()
}

/// Whether the join of `left` and `right` on these keys addresses its
/// build side's chain heads directly rather than through a hash table:
/// both keys are one non-NULL `Int64` column, and the build side's keys
/// span fewer integers than the two sides have rows. For tests that pin
/// which plans take which path.
pub fn join_is_direct(
    left: &Table,
    right: &Table,
    left_keys: &[usize],
    right_keys: &[usize],
) -> Result<bool, EngineError> {
    let lb = Batch::all(TableSlot::Borrowed(left));
    let rb = Batch::all(TableSlot::Borrowed(right));
    let (lcols, rcols) = join_key_columns(&lb, &rb, left_keys, right_keys)?;
    Ok(match (sole_int_key(&lcols), sole_int_key(&rcols)) {
        (Some(l), Some(r)) => int_key_span(&lb, &rb, l, r).is_some(),
        _ => false,
    })
}

/// [`serial_join_indices`] over keys given as per-side row slots (`None`
/// = the row never matches: a NULL key part), the table `heads` that holds
/// the build side's chain heads by slot, and a cross-side equality.
///
/// **Build-side rule:** the table is built over the side with fewer rows
/// (a tie builds on the right, [`builds_right`]) and probed with the
/// other, for both join types — an inner join of 3 000 lineitems with
/// 150 000 orders holds 3 000 keys, not 150 000.
///
/// **Order:** the triples come out by (left position, right position),
/// both ascending, whichever side was built. Probing from the left emits
/// them that way directly: probe rows ascend and every chain ascends. With
/// the left side built, the right side probes in ascending position and
/// each match is staged as `(left position, right row)`; one stable
/// counting sort by left position (prefix-summed match counts, a left-outer
/// position without a match owning one `(left row, 0, false)` slot) then
/// places them, so within a left position the right rows keep the ascending
/// order they were found in. The two orders are equal element for element,
/// which is what keeps `DeferredJoin`'s gathers, the aggregates' float
/// additions and the virtual byte accounting independent of the choice.
fn join_indices_by(
    lb: &Batch<'_>,
    rb: &Batch<'_>,
    join_type: JoinType,
    heads: impl ChainHeads,
    left_slot: impl Fn(usize) -> Option<u64>,
    right_slot: impl Fn(usize) -> Option<u64>,
    same_key: impl Fn(usize, usize) -> bool,
) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
    let ln = lb.len();
    let outer = join_type == JoinType::LeftOuter;
    if builds_right(lb, rb) {
        // A left-outer join emits at least one row per probe row; an inner
        // join promises nothing.
        let at_least = if outer { ln } else { 0 };
        let mut left_out: Vec<u32> = Vec::with_capacity(at_least);
        let mut right_out: Vec<u32> = Vec::with_capacity(at_least);
        let mut right_hit: Vec<bool> = Vec::with_capacity(at_least);
        Chains::build(rb, heads, right_slot).probe(
            rb,
            lb,
            left_slot,
            |rrow, lrow| same_key(lrow, rrow),
            |lrow, hit| match hit {
                Some(rpos) => {
                    left_out.push(lrow as u32);
                    right_out.push(rb.row_id(rpos) as u32);
                    right_hit.push(true);
                }
                None if outer => {
                    left_out.push(lrow as u32);
                    right_out.push(0);
                    right_hit.push(false);
                }
                None => {}
            },
        );
        return (left_out, right_out, right_hit);
    }

    // Left side built: stage the matches in fixed blocks (what is staged is
    // what is produced — no doubling, no block sized by the probe side),
    // then scatter them into left order.
    let mut slots = vec![0usize; ln]; // matches per left position, then its cursor
    let mut staged: Vec<Vec<(u32, u32)>> = Vec::new();
    let chains = Chains::build(lb, heads, left_slot);
    chains.probe(lb, rb, right_slot, same_key, |rrow, hit| {
        if let Some(lpos) = hit {
            slots[lpos] += 1;
            if staged.last().is_none_or(|block| block.len() == STAGE_BLOCK) {
                staged.push(Vec::with_capacity(STAGE_BLOCK));
            }
            let block = staged.last_mut().expect("a block with room was ensured above");
            block.push((lpos as u32, rrow as u32));
        }
    });
    let owned = |matches: usize| if outer { matches.max(1) } else { matches };
    let total: usize = slots.iter().map(|&k| owned(k)).sum();
    let mut left_out: Vec<u32> = Vec::with_capacity(total);
    for (lpos, slot) in slots.iter_mut().enumerate() {
        let n_owned = owned(*slot);
        *slot = left_out.len();
        left_out.extend(std::iter::repeat_n(lb.row_id(lpos) as u32, n_owned));
    }
    // A slot no match is scattered into stays `(left row, 0, false)`.
    let mut right_out = vec![0u32; total];
    let mut right_hit = vec![false; total];
    for (lpos, rrow) in staged.into_iter().flatten() {
        let at = slots[lpos as usize];
        slots[lpos as usize] += 1;
        right_out[at] = rrow;
        right_hit[at] = true;
    }
    (left_out, right_out, right_hit)
}

/// Pairs per block of the staged match list.
const STAGE_BLOCK: usize = 2048;

/// Where a join's build side keeps its chain heads (`0` = none), by the
/// slot of a row's key: its hash in a [`U64Map`], or `key − min` in a
/// direct-address `Vec<u32>` ([`serial_join_indices`]).
trait ChainHeads {
    /// Chain head of `slot`, or 0 when absent.
    fn head(&self, slot: u64) -> u32;
    /// Mutable chain head of `slot`; the caller leaves it non-zero.
    fn head_mut(&mut self, slot: u64) -> &mut u32;
}

impl ChainHeads for U64Map {
    #[inline]
    fn head(&self, slot: u64) -> u32 {
        self.get(slot)
    }

    #[inline]
    fn head_mut(&mut self, slot: u64) -> &mut u32 {
        self.entry(slot)
    }
}

impl ChainHeads for Vec<u32> {
    #[inline]
    fn head(&self, slot: u64) -> u32 {
        self[slot as usize]
    }

    #[inline]
    fn head_mut(&mut self, slot: u64) -> &mut u32 {
        &mut self[slot as usize]
    }
}

/// A join's build side chained by key slot: the chain heads by slot in
/// `heads`, each position's successor in `next` (position + 1, `0` = end).
/// The one build/probe loop of every join, and the index of a groupjoin
/// ([`UniqueKeys`]).
#[derive(Debug, Clone)]
struct Chains<H> {
    heads: H,
    next: Vec<u32>,
}

impl<H: ChainHeads> Chains<H> {
    /// Chains `build`'s rows by `build_slot` (`None` = the row is not
    /// chained). Building in reverse keeps each chain in ascending position
    /// order.
    fn build(build: &Batch<'_>, mut heads: H, build_slot: impl Fn(usize) -> Option<u64>) -> Self {
        let bn = build.len();
        let mut next: Vec<u32> = vec![0; bn];
        for pos in (0..bn).rev() {
            if let Some(slot) = build_slot(build.row_id(pos)) {
                let head = heads.head_mut(slot);
                next[pos] = *head;
                *head = pos as u32 + 1;
            }
        }
        Chains { heads, next }
    }

    /// Chains the next position at the head of `slot`'s chain, newest first
    /// (`None` = the position is not chained).
    fn push(&mut self, slot: Option<u64>) {
        let link = match slot {
            Some(slot) => {
                let head = self.heads.head_mut(slot);
                let older = *head;
                *head = self.next.len() as u32 + 1;
                older
            }
            None => 0,
        };
        self.next.push(link);
    }

    /// Whether some chain holds two positions whose rows `same_key` (build
    /// row, build row) equates.
    fn repeats(&self, build: &Batch<'_>, same_key: impl Fn(usize, usize) -> bool) -> bool {
        (0..self.next.len()).any(|pos| {
            let mut cur = self.next[pos];
            while cur != 0 {
                let later = (cur - 1) as usize;
                if same_key(build.row_id(pos), build.row_id(later)) {
                    return true;
                }
                cur = self.next[later];
            }
            false
        })
    }

    /// The positions chained at `slot`, ascending.
    fn chain(&self, slot: u64) -> impl Iterator<Item = usize> + '_ {
        let at = |link: u32| link.checked_sub(1).map(|pos| pos as usize);
        std::iter::successors(at(self.heads.head(slot)), move |&pos| at(self.next[pos]))
    }

    /// Probes the chains, which it consumes (their tables are then locals of
    /// the loop), with `probe`'s rows in ascending position. `visit`
    /// receives the probe row with the build position of each match, in
    /// ascending build position, and once with `None` for a probe row that
    /// matched nothing. `probe_slot` = `None`: the row is not probed;
    /// `same_key` takes (build row, probe row).
    fn probe(
        self,
        build: &Batch<'_>,
        probe: &Batch<'_>,
        probe_slot: impl Fn(usize) -> Option<u64>,
        same_key: impl Fn(usize, usize) -> bool,
        mut visit: impl FnMut(usize, Option<usize>),
    ) {
        let Chains { heads, next } = self;
        for pos in 0..probe.len() {
            let prow = probe.row_id(pos);
            let mut matched = false;
            if let Some(slot) = probe_slot(prow) {
                let mut cur = heads.head(slot);
                while cur != 0 {
                    let bpos = (cur - 1) as usize;
                    if same_key(build.row_id(bpos), prow) {
                        visit(prow, Some(bpos));
                        matched = true;
                    }
                    cur = next[bpos];
                }
            }
            if !matched {
                visit(prow, None);
            }
        }
    }
}

// ----- groupjoin kernels -----

/// A join's left side whose key — one non-NULL `Int64` column — holds
/// each value once: its positions chained as [`serial_join_indices`] chains
/// a built side, directly by `key − min` when [`dense_span`] admits the keys
/// against the rows the join reads, through a [`U64Map`] otherwise.
/// Building it is the uniqueness proof: a chain holding two equal keys
/// returns `None`. What the fused groupjoin probes (`fused` module docs,
/// §6).
pub(crate) struct UniqueKeys<'k> {
    keys: &'k [i64],
    rows: Option<&'k [u32]>,
    chains: KeyChains,
}

/// The chains of [`UniqueKeys`] and [`KeyIndex`], by the slot rule that
/// built them.
#[derive(Debug, Clone)]
enum KeyChains {
    Direct {
        min: i64,
        span: usize,
        chains: Chains<Vec<u32>>,
    },
    Hashed(Chains<U64Map>),
}

impl<'k> UniqueKeys<'k> {
    /// The positions of `lb` by their key, a row of `keys`, or `None` when a
    /// key repeats; `limit` is the rows the join reads.
    pub(crate) fn build(lb: &'k Batch<'_>, keys: &'k [i64], limit: usize) -> Option<Self> {
        let chains = match dense_span(lb.len(), lb.sel_ref(), keys, limit) {
            Some((min, span)) => {
                let slot = direct_slot(min, span);
                let chains = Chains::build(lb, vec![0u32; span + 2], |row| Some(slot(keys[row])));
                // Equal direct slots are equal keys.
                let repeats = chains.repeats(lb, |_, _| true);
                (!repeats).then_some(KeyChains::Direct { min, span, chains })
            }
            None => {
                let chains = Chains::build(lb, U64Map::new(), |row| Some(int_key_hash(keys[row])));
                let repeats = chains.repeats(lb, |a, b| keys[a] == keys[b]);
                (!repeats).then_some(KeyChains::Hashed(chains))
            }
        }?;
        Some(UniqueKeys {
            keys,
            rows: lb.sel_ref(),
            chains,
        })
    }

    /// The position holding `k`.
    #[inline]
    pub(crate) fn position(&self, k: i64) -> Option<usize> {
        match &self.chains {
            KeyChains::Direct { min, span, chains } => {
                chains.chain(direct_slot(*min, *span)(k)).next()
            }
            KeyChains::Hashed(chains) => {
                let key_at = |pos: usize| self.keys[row_at(self.rows, pos)];
                chains.chain(int_key_hash(k)).find(|&pos| key_at(pos) == k)
            }
        }
    }
}

/// A join's right side's positions by key, kept between runs (`fused` module
/// docs, §5, R3): rows appended to the side link in, and a probe by the left
/// side's few new keys costs those keys, not a pass over the side. The
/// chains are a join's own ([`Chains`]) by its slot rule: `key − min` into
/// direct heads when the key is one non-NULL `Int64` column whose values
/// [`dense_span`] admits against twice the rows, else a [`key_hash`] into a
/// [`U64Map`], each chained row's key verified. A chain runs newest first —
/// an appended position is larger than every chained one, so it links in at
/// its chain's head — and [`KeyIndex::matches`] hands it back ascending. It
/// is built with room for an eighth more rows, so the next appends link in
/// place.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    chains: KeyChains,
}

impl KeyIndex {
    /// The first `n` rows of the side whose key columns are `keys`.
    pub(crate) fn build(keys: &[&Column], n: usize) -> Option<KeyIndex> {
        let room = n + n / 8;
        let chains = match sole_int_key(keys).and_then(|k| dense_span(n, None, k, 2 * n + 2)) {
            Some((min, span)) => {
                let mut heads = Vec::with_capacity(span + 2 + n / 8);
                heads.resize(span + 2, 0);
                let next = Vec::with_capacity(room);
                KeyChains::Direct {
                    min,
                    span,
                    chains: Chains { heads, next },
                }
            }
            None => KeyChains::Hashed(Chains {
                heads: U64Map::new(),
                next: Vec::with_capacity(room),
            }),
        };
        let mut index = KeyIndex { chains };
        index.link(keys, n)?;
        Some(index)
    }

    /// How many of the side's rows it holds, from the first.
    pub(crate) fn rows(&self) -> usize {
        match &self.chains {
            KeyChains::Direct { chains, .. } => chains.next.len(),
            KeyChains::Hashed(chains) => chains.next.len(),
        }
    }

    /// Links the side's rows after those it holds, up to row `n` (`keys` its
    /// key columns). `None` when a direct index cannot hold a key — one
    /// below its least, one past twice the rows above it, a NULL — which
    /// leaves it to be dropped.
    pub(crate) fn link(&mut self, keys: &[&Column], n: usize) -> Option<()> {
        match &mut self.chains {
            KeyChains::Direct { min, span, chains } => {
                let k = sole_int_key(keys)?;
                let new = &k[chains.next.len()..n];
                if new.iter().any(|&key| key < *min) {
                    return None;
                }
                let top = new.iter().map(|&key| key.abs_diff(*min)).max().unwrap_or(0);
                let top = usize::try_from(top).ok()?;
                if top > *span {
                    if top >= 2 * n + 2 {
                        return None;
                    }
                    *span = top;
                    chains.heads.resize(top + 2, 0);
                }
                let slot = direct_slot(*min, *span);
                new.iter().for_each(|&key| chains.push(Some(slot(key))));
            }
            KeyChains::Hashed(chains) => {
                for row in chains.next.len()..n {
                    chains.push(key_hash(keys, row, false));
                }
            }
        }
        Some(())
    }

    /// Pushes onto `out` every position of the side (`keys` its key columns)
    /// whose key equals row `row` of the probe columns `probe`, ascending.
    /// A NULL key matches nothing.
    pub(crate) fn matches(
        &self,
        keys: &[&Column],
        probe: &[&Column],
        row: usize,
        out: &mut Vec<u32>,
    ) {
        let from = out.len();
        match &self.chains {
            KeyChains::Direct { min, span, chains } => {
                // Equal direct slots are equal keys; a key of another type
                // equals none.
                if let [col] = probe {
                    if let (ColumnData::Int64(v), true) = (&*col.data, col.is_valid(row)) {
                        let slot = direct_slot(*min, *span)(v[row]);
                        out.extend(chains.chain(slot).map(|pos| pos as u32));
                    }
                }
            }
            KeyChains::Hashed(chains) => {
                if let Some(slot) = key_hash(probe, row, false) {
                    let same = |&pos: &usize| keys_equal(probe, row, keys, pos);
                    out.extend(chains.chain(slot).filter(same).map(|pos| pos as u32));
                }
            }
        }
        out[from..].reverse();
    }

    /// Heap bytes of the index.
    pub(crate) fn bytes(&self) -> u64 {
        let (heads, next) = match &self.chains {
            KeyChains::Direct { chains, .. } => {
                (4 * chains.heads.capacity(), chains.next.capacity())
            }
            KeyChains::Hashed(chains) => {
                let slot = std::mem::size_of::<(u64, u32)>();
                (slot * chains.heads.slots.capacity(), chains.next.capacity())
            }
        };
        (heads + 4 * next) as u64
    }
}

/// An aggregate's groups over one key column when a join keeps only the
/// groups whose key its other side holds (`fused` module docs, §6): every
/// group is discovered, in first-seen order, but only the rows of the
/// groups the join can keep are collected for folding.
pub(crate) struct KeySetGroups {
    /// The first row of every group, in first-seen order.
    pub(crate) reps: Vec<u32>,
    /// The rows of the folded groups, in position order.
    pub(crate) rows: Vec<u32>,
    /// The group id of each of `rows`.
    pub(crate) ids: Vec<u32>,
    /// Per group, whether its key is in the key set (its rows folded).
    pub(crate) folded: Vec<bool>,
}

/// [`KeySetGroups`] of the key `gcol` over `n` positions (`rows` maps a
/// position to its row), folding the groups whose key equals some key of
/// `probe` (`probe_key` its key column, `None` when it has no rows) under
/// join semantics: NULL never matches, and values of different types never
/// do. A dense `Int64` key discovers and picks in one pass over a table
/// indexed by `key − min` ([`dense_group_ids`]' rule), with no per-row
/// group id; any other key discovers its groups as [`serial_group_ids`]
/// does and joins the groups' keys against the key set.
pub(crate) fn key_set_groups(
    rows: Option<&[u32]>,
    gcol: &Column,
    n: usize,
    probe: &Batch<'_>,
    probe_key: Option<&Column>,
) -> KeySetGroups {
    let dense = sole_int_key(&[gcol]).and_then(|keys| {
        let (min, span) = dense_span(n, rows, keys, n)?;
        Some((keys, min, span))
    });
    let Some((keys, min, span)) = dense else {
        return key_set_groups_joined(rows, gcol, n, probe, probe_key);
    };
    // One slot per key in the span: its group id + 1 (`0` = not seen
    // yet), with the top bit set where the key set holds the key.
    let mut slots = vec![0u32; span + 1];
    if let Some((probe_key, ColumnData::Int64(probe_keys))) = probe_key.map(|c| (c, &*c.data)) {
        for pos in 0..probe.len() {
            let row = probe.row_id(pos);
            let slot = (probe_keys[row] as u64).wrapping_sub(min as u64) as usize;
            if probe_key.is_valid(row) && slot <= span {
                slots[slot] = WANTED;
            }
        }
    }
    let mut groups = KeySetGroups {
        reps: Vec::new(),
        rows: Vec::new(),
        ids: Vec::new(),
        folded: Vec::new(),
    };
    match rows {
        None => groups.pick(&mut slots, min, keys[..n].iter().copied().enumerate()),
        Some(rows) => {
            let pairs = rows[..n].iter().map(|&row| (row as usize, keys[row as usize]));
            groups.pick(&mut slots, min, pairs)
        }
    }
    groups
}

impl KeySetGroups {
    /// One pass over (row, key) pairs against `slots` ([`key_set_groups`]):
    /// a key seen for the first time opens a group, and a key the key set
    /// holds has its row picked.
    fn pick(&mut self, slots: &mut [u32], min: i64, pairs: impl Iterator<Item = (usize, i64)>) {
        for (row, k) in pairs {
            let slot = &mut slots[k.abs_diff(min) as usize];
            if *slot & !WANTED == 0 {
                self.reps.push(row as u32);
                self.folded.push(*slot & WANTED != 0);
                *slot |= self.reps.len() as u32;
            }
            if *slot & WANTED != 0 {
                self.rows.push(row as u32);
                self.ids.push((*slot & !WANTED) - 1);
            }
        }
    }
}

/// The top bit of a [`key_set_groups`] slot: the key set holds the key.
const WANTED: u32 = 1 << 31;

/// [`key_set_groups`] of a key that is not dense: the groups as
/// [`serial_group_ids`] discovers them, folded where their key joins.
fn key_set_groups_joined(
    rows: Option<&[u32]>,
    gcol: &Column,
    n: usize,
    probe: &Batch<'_>,
    probe_key: Option<&Column>,
) -> KeySetGroups {
    let (group_ids, reps) = serial_group_ids(rows, &[gcol], n);
    let mut folded = vec![false; reps.len()];
    if let (Some(probe_key), false) = (probe_key, reps.is_empty()) {
        // One row per group, at its id: the join's right rows are the ids.
        let group_keys = Table::new("k", vec![gcol.take_ids(&reps)]).expect("one column");
        let groups = Batch::all(TableSlot::Owned(group_keys));
        let gkey = groups.table().columns().first().expect("one key column");
        let (probe_keys, group_keys) = ([probe_key], [gkey]);
        let (_, hits, _) =
            serial_join_indices(probe, &groups, &probe_keys, &group_keys, JoinType::Inner);
        for g in hits {
            folded[g as usize] = true;
        }
    }
    let (mut picked, mut ids) = (Vec::new(), Vec::new());
    for (pos, &g) in group_ids.iter().enumerate() {
        if folded[g as usize] {
            picked.push(row_at(rows, pos) as u32);
            ids.push(g);
        }
    }
    KeySetGroups {
        reps,
        rows: picked,
        ids,
        folded,
    }
}

// ----- aggregation -----

/// Visits the non-NULL numeric slots of one morsel result in position
/// order, with `Value::as_f64` semantics: booleans and strings are not
/// numeric and are skipped, exactly as the scalar aggregation steps skip
/// them.
#[inline]
fn for_each_num(bv: &BatchVals<'_>, n: usize, mut f: impl FnMut(usize, f64)) {
    match bv {
        BatchVals::Num { vals, valid: None, .. } => {
            for (p, &x) in vals[..n].iter().enumerate() {
                f(p, x);
            }
        }
        BatchVals::Num { vals, valid: Some(v), .. } => {
            for p in 0..n {
                if v[p] {
                    f(p, vals[p]);
                }
            }
        }
        BatchVals::ConstNum { val, .. } => {
            for p in 0..n {
                f(p, *val);
            }
        }
        _ => {}
    }
}

/// Visits the positions of one morsel result that hold a valid `true`, in
/// order, with `matches!(v, Value::Bool(true))` semantics: anything that is
/// not a valid boolean counts as false, never as an error.
#[inline]
fn for_each_true(bv: &BatchVals<'_>, n: usize, mut f: impl FnMut(usize)) {
    match bv {
        BatchVals::Bools { vals, valid: None } => {
            for (p, &b) in vals[..n].iter().enumerate() {
                if b {
                    f(p);
                }
            }
        }
        BatchVals::Bools { vals, valid: Some(v) } => {
            for p in 0..n {
                if v[p] && vals[p] {
                    f(p);
                }
            }
        }
        BatchVals::ConstBool(true) => {
            for p in 0..n {
                f(p);
            }
        }
        _ => {}
    }
}

/// The input surface of the shared aggregation ([`aggregate_vec`]): the
/// columns an aggregate's expressions and group keys resolve in. The fused
/// executor implements it over a table and over a *virtual* join output
/// (deferred-gather columns). Either way the one function discovers the
/// groups, compiles, evaluates and consumes the expressions, so both
/// accumulate through literally the same float additions in the same
/// order.
pub(crate) trait AggInput {
    /// The binding `kp` runs over, with every column `kp` references bound
    /// (a deferring input gathers them here, once).
    fn cols(&mut self, kp: &KernelPlan<'_>) -> KernelCols<'_>;
    /// The group-key columns `keys`, in order; the error is the first
    /// index outside the input's width.
    fn key_columns(&mut self, keys: &[usize]) -> Result<Vec<&Column>, EngineError>;
}

impl AggInput for &Table {
    fn cols(&mut self, _kp: &KernelPlan<'_>) -> KernelCols<'_> {
        KernelCols::Table(self)
    }

    fn key_columns(&mut self, keys: &[usize]) -> Result<Vec<&Column>, EngineError> {
        keys.iter().map(|&g| self.column(g)).collect()
    }
}

/// Evaluates `e` one morsel at a time over the batch positions `at`
/// (`None` = all `n` positions, in order; `rows` maps a position to its row
/// id) and hands each morsel's typed result to `f` with the index of its
/// first slot and its length. Nothing of the input's length is ever
/// allocated: a morsel's temporaries come from, and return to, `scratch`.
fn eval_morsels(
    input: &mut dyn AggInput,
    rows: Option<&[u32]>,
    e: &Expr,
    n: usize,
    at: Option<&[u32]>,
    scratch: &mut EvalScratch,
    mut f: impl FnMut(usize, &BatchVals<'_>, usize),
) -> Result<(), EngineError> {
    let kp = e.compile();
    let cols = input.cols(&kp);
    let sub_rows: Vec<u32>;
    let (n, rows) = match (at, rows) {
        (None, rows) => (n, rows),
        (Some(at), None) => (at.len(), Some(at)),
        (Some(at), Some(rows)) => {
            sub_rows = at.iter().map(|&p| rows[p as usize]).collect();
            (sub_rows.len(), Some(sub_rows.as_slice()))
        }
    };
    let mut base = 0;
    for_each_morsel(n, rows, |sv| {
        let bv = kp.eval(&cols, &sv, scratch)?;
        f(base, &bv, sv.len());
        base += sv.len();
        scratch.recycle(bv);
        Ok(())
    })
}

/// One aggregate's running per-group state: what a fold over some rows has
/// accumulated, which more rows continue in row order (the float additions
/// of a fold over `a ++ b` are those over `a`, then those over `b`).
#[derive(Debug, Clone)]
pub(crate) enum AggAcc {
    /// `COUNT` / `COUNT IF` per group.
    Counts(Vec<u64>),
    /// `SUM` / `SUM IF`: the total and whether the group saw a value.
    Sums { totals: Vec<f64>, seen: Vec<bool> },
    /// `AVG`: the total and the number of values.
    Avgs { totals: Vec<f64>, counts: Vec<u64> },
    /// `MIN` / `MAX`: the best value so far.
    Best(Vec<Option<f64>>),
}

impl AggAcc {
    /// The state of `agg` over no rows, for `n_groups` groups.
    pub(crate) fn new(agg: &AggExpr, n_groups: usize) -> AggAcc {
        match agg {
            AggExpr::Count | AggExpr::CountIf(_) => AggAcc::Counts(vec![0; n_groups]),
            AggExpr::Sum(_) | AggExpr::SumIf { .. } => AggAcc::Sums {
                totals: vec![0.0; n_groups],
                seen: vec![false; n_groups],
            },
            AggExpr::Avg(_) => AggAcc::Avgs {
                totals: vec![0.0; n_groups],
                counts: vec![0; n_groups],
            },
            AggExpr::Min(_) | AggExpr::Max(_) => AggAcc::Best(vec![None; n_groups]),
        }
    }

    /// Adds groups up to `n_groups`, each at the state of no rows, growing
    /// each vector to exactly that length: a state gains groups only when a
    /// combine's extension opens some, in a copy made at its length, so
    /// room to spare is never used.
    fn grow(&mut self, n_groups: usize) {
        fn grow<T: Clone>(v: &mut Vec<T>, n: usize, zero: T) {
            v.reserve_exact(n.saturating_sub(v.len()));
            v.resize(n, zero);
        }
        match self {
            AggAcc::Counts(c) => grow(c, n_groups, 0),
            AggAcc::Sums { totals, seen } => {
                grow(totals, n_groups, 0.0);
                grow(seen, n_groups, false);
            }
            AggAcc::Avgs { totals, counts } => {
                grow(totals, n_groups, 0.0);
                grow(counts, n_groups, 0);
            }
            AggAcc::Best(b) => grow(b, n_groups, None),
        }
    }

    /// Takes `other`'s counts back out of these: a count is exact, so a
    /// row's contribution can be withdrawn. `None` for any other state, or
    /// when a count would go below zero.
    pub(crate) fn withdraw(&mut self, other: &AggAcc) -> Option<()> {
        let (AggAcc::Counts(mine), AggAcc::Counts(theirs)) = (self, other) else {
            return None;
        };
        for (m, &t) in mine.iter_mut().zip(theirs) {
            *m = m.checked_sub(t)?;
        }
        Some(())
    }

    /// Sets group `g` to group `from_g` of `from`, a state of the same
    /// aggregate.
    pub(crate) fn copy_group(&mut self, g: usize, from: &AggAcc, from_g: usize) {
        match (self, from) {
            (AggAcc::Counts(c), AggAcc::Counts(f)) => c[g] = f[from_g],
            (AggAcc::Sums { totals, seen }, AggAcc::Sums { totals: ft, seen: fs }) => {
                totals[g] = ft[from_g];
                seen[g] = fs[from_g];
            }
            (AggAcc::Avgs { totals, counts }, AggAcc::Avgs { totals: ft, counts: fc }) => {
                totals[g] = ft[from_g];
                counts[g] = fc[from_g];
            }
            (AggAcc::Best(b), AggAcc::Best(f)) => b[g] = f[from_g],
            // LINT: panic-ok — both states are built by `AggAcc::new` from
            // the same aggregate.
            _ => unreachable!("states of one aggregate share a variant"),
        }
    }

    /// Keeps the groups `keep` marks, in order.
    pub(crate) fn retain_groups(&mut self, keep: &[bool]) {
        fn retain<T>(v: &mut Vec<T>, keep: &[bool]) {
            let mut kept = keep.iter();
            v.retain(|_| kept.next().is_some_and(|&k| k));
        }
        match self {
            AggAcc::Counts(c) => retain(c, keep),
            AggAcc::Sums { totals, seen } => {
                retain(totals, keep);
                retain(seen, keep);
            }
            AggAcc::Avgs { totals, counts } => {
                retain(totals, keep);
                retain(counts, keep);
            }
            AggAcc::Best(b) => retain(b, keep),
        }
    }

    /// Puts group `g` in the state of one row whose value is `0`: a group
    /// no join keeps still outputs a valid value, as every group of an
    /// aggregate over a column without NULLs does.
    pub(crate) fn stand_in(&mut self, g: usize) {
        match self {
            AggAcc::Counts(_) => {}
            AggAcc::Sums { seen, .. } => seen[g] = true,
            AggAcc::Avgs { counts, .. } => counts[g] = 1,
            AggAcc::Best(b) => b[g] = Some(0.0),
        }
    }

    /// Heap bytes of the state.
    pub(crate) fn bytes(&self) -> u64 {
        (match self {
            AggAcc::Counts(c) => c.len() * 8,
            AggAcc::Sums { totals, .. } => totals.len() * 9,
            AggAcc::Avgs { totals, .. } => totals.len() * 16,
            AggAcc::Best(b) => b.len() * 16,
        }) as u64
    }
}

/// One pass per aggregate over the batch positions, accumulating straight
/// from each morsel's typed kernel result into the per-group states `accs`
/// (one per aggregate, grown to `n_groups` first) — no input-length
/// temporary exists between the expression and the state. Morsel boundaries
/// are invisible because positions are consumed in order, and so are the
/// boundaries between two calls over consecutive rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn accumulate_aggs(
    input: &mut dyn AggInput,
    rows: Option<&[u32]>,
    aggs: &[(String, AggExpr)],
    group_ids: &[u32],
    n_groups: usize,
    n: usize,
    accs: &mut [AggAcc],
    scratch: &mut EvalScratch,
) -> Result<(), EngineError> {
    for ((_, agg), acc) in aggs.iter().zip(accs.iter_mut()) {
        acc.grow(n_groups);
        match (agg, acc) {
            (AggExpr::Count, AggAcc::Counts(counts)) => {
                for &g in &group_ids[..n] {
                    counts[g as usize] += 1;
                }
            }
            (AggExpr::CountIf(pred), AggAcc::Counts(counts)) => {
                eval_morsels(input, rows, pred, n, None, scratch, |base, bv, len| {
                    for_each_true(bv, len, |p| counts[group_ids[base + p] as usize] += 1);
                })?;
            }
            (AggExpr::Sum(e), AggAcc::Sums { totals, seen }) => {
                eval_morsels(input, rows, e, n, None, scratch, |base, bv, len| {
                    for_each_num(bv, len, |p, x| {
                        let g = group_ids[base + p] as usize;
                        totals[g] += x;
                        seen[g] = true;
                    });
                })?;
            }
            (AggExpr::SumIf { value, predicate }, AggAcc::Sums { totals, seen }) => {
                // The scalar path only evaluates the value on rows where
                // the predicate holds; mirror that by evaluating it under
                // the predicate-true sub-selection.
                let mut sub_pos = scratch.take_sel();
                eval_morsels(input, rows, predicate, n, None, scratch, |base, bv, len| {
                    for_each_true(bv, len, |p| sub_pos.push((base + p) as u32));
                })?;
                eval_morsels(input, rows, value, n, Some(&sub_pos), scratch, |base, bv, len| {
                    for_each_num(bv, len, |p, x| {
                        totals[group_ids[sub_pos[base + p] as usize] as usize] += x;
                    });
                })?;
                scratch.put_sel(sub_pos);
                // Every processed row marks its group as seen.
                for &g in &group_ids[..n] {
                    seen[g as usize] = true;
                }
            }
            (AggExpr::Avg(e), AggAcc::Avgs { totals, counts }) => {
                eval_morsels(input, rows, e, n, None, scratch, |base, bv, len| {
                    for_each_num(bv, len, |p, x| {
                        let g = group_ids[base + p] as usize;
                        totals[g] += x;
                        counts[g] += 1;
                    });
                })?;
            }
            (AggExpr::Min(e) | AggExpr::Max(e), AggAcc::Best(best)) => {
                let is_min = matches!(agg, AggExpr::Min(_));
                eval_morsels(input, rows, e, n, None, scratch, |base, bv, len| {
                    for_each_num(bv, len, |p, x| {
                        let g = group_ids[base + p] as usize;
                        best[g] = Some(match best[g] {
                            None => x,
                            Some(cur) if is_min => cur.min(x),
                            Some(cur) => cur.max(x),
                        });
                    });
                })?;
            }
            // LINT: panic-ok — `AggAcc::new` builds each state from the
            // same aggregate it is paired with here.
            _ => unreachable!("state/agg pairing is fixed at construction"),
        }
    }
    Ok(())
}

/// Materializes accumulated aggregates into output columns, normalized
/// like `column_from_values` (all-NULL collapses to Int64, a fully valid
/// result drops its mask).
pub(crate) fn agg_output_columns(aggs: &[(String, AggExpr)], accs: &[AggAcc]) -> Vec<Column> {
    aggs.iter()
        .zip(accs)
        .map(|((name, _), acc)| {
            let v: Vec<Option<f64>> = match acc {
                AggAcc::Counts(c) => {
                    let counts = c.iter().map(|&c| c as i64).collect();
                    return Column::new(name, ColumnData::Int64(counts));
                }
                AggAcc::Sums { totals, seen } => {
                    totals.iter().zip(seen).map(|(&t, &s)| s.then_some(t)).collect()
                }
                AggAcc::Avgs { totals, counts } => totals
                    .iter()
                    .zip(counts)
                    .map(|(&t, &c)| (c > 0).then(|| t / c as f64))
                    .collect(),
                AggAcc::Best(b) => b.clone(),
            };
            if v.is_empty() {
                Column::new(name, ColumnData::Int64(Vec::new()))
            } else if v.iter().all(|x| x.is_none()) {
                Column::with_validity(
                    name,
                    ColumnData::Int64(vec![0; v.len()]),
                    vec![false; v.len()],
                )
            } else if v.iter().all(|x| x.is_some()) {
                let values = v.into_iter().map(Option::unwrap_or_default).collect();
                Column::new(name, ColumnData::Float64(values))
            } else {
                let validity: Vec<bool> = v.iter().map(|x| x.is_some()).collect();
                Column::with_validity(
                    name,
                    ColumnData::Float64(v.into_iter().map(|x| x.unwrap_or(0.0)).collect()),
                    validity,
                )
            }
        })
        .collect()
}

/// The one aggregate: group discovery, accumulation and output assembly
/// over the `n` positions of `input` whose row ids are `rows` (`None` =
/// position `p` is row `p`) — a batch's table and selection, or a deferred
/// join's gathered columns and live positions. Returns the output beside
/// the per-group states it was assembled from ([`AggAcc`]) and each group's
/// first row (none for a global aggregate).
pub(crate) fn aggregate_vec(
    input: &mut dyn AggInput,
    rows: Option<&[u32]>,
    n: usize,
    group_by: &[usize],
    aggs: &[(String, AggExpr)],
    scratch: &mut EvalScratch,
) -> Result<(Table, Vec<AggAcc>, Vec<u32>), EngineError> {
    // Assign group ids in first-seen order.
    let group_ids: Vec<u32>;
    let rep_rows: Vec<u32>; // first original row per group
    let n_groups;
    if group_by.is_empty() {
        // Global aggregation over empty input still yields one group.
        group_ids = vec![0; n];
        rep_rows = Vec::new();
        n_groups = 1;
    } else {
        // Key columns resolve lazily, like the scalar path's per-row
        // lookups: no rows, no lookup, nothing discovered.
        let gcols = if n > 0 { input.key_columns(group_by)? } else { Vec::new() };
        (group_ids, rep_rows) = serial_group_ids(rows, &gcols, n);
        n_groups = rep_rows.len();
    }

    // Compute aggregates: one morsel-wise pass over the positions per
    // aggregate, accumulating straight from the kernel results into
    // per-group states.
    let mut accs: Vec<AggAcc> = aggs.iter().map(|(_, agg)| AggAcc::new(agg, n_groups)).collect();
    accumulate_aggs(input, rows, aggs, &group_ids, n_groups, n, &mut accs, scratch)?;

    // Assemble: group-key columns (gathered from representative rows, and
    // validated here even over no rows) then aggregate columns, normalized
    // like `column_from_values`.
    let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
    for c in input.key_columns(group_by)? {
        columns.push(c.take_ids(&rep_rows));
    }
    columns.extend(agg_output_columns(aggs, &accs));
    Ok((Table::new("agg", columns)?, accs, rep_rows))
}

// ----- sort -----

/// Stable-sorts the selection by the sort keys, comparing typed column
/// slices with `cmp_values` semantics (NULLs first, numerics as f64).
pub(crate) fn sort_sel(b: &Batch<'_>, by: &[(usize, bool)]) -> Result<Vec<u32>, EngineError> {
    let t = b.table();
    // Validate columns up-front so the comparator can't panic mid-sort.
    for &(c, _) in by {
        t.column(c)?;
    }
    let cols: Vec<&Column> = by.iter().map(|&(c, _)| t.column(c).expect("validated")).collect();
    let mut ids: Vec<u32> = match b.sel_ref() {
        Some(s) => s.to_vec(),
        None => (0..t.n_rows() as u32).collect(),
    };
    ids.sort_by(|&a, &b| {
        for (col, &(_, desc)) in cols.iter().zip(by.iter()) {
            let ord = cmp_col_rows(col, a as usize, b as usize);
            let ord = if desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(ids)
}

/// Typed row comparison matching [`cmp_values`]: NULLs first, strings and
/// booleans by `Ord`, numerics as f64 (non-comparable pairs = Equal).
fn cmp_col_rows(c: &Column, a: usize, b: usize) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (c.is_valid(a), c.is_valid(b)) {
        (false, false) => Ordering::Equal,
        (false, true) => Ordering::Less,
        (true, false) => Ordering::Greater,
        (true, true) => match &*c.data {
            ColumnData::Utf8(v) => v[a].cmp(&v[b]),
            ColumnData::Bool(v) => v[a].cmp(&v[b]),
            ColumnData::Int64(v) => (v[a] as f64)
                .partial_cmp(&(v[b] as f64))
                .unwrap_or(Ordering::Equal),
            ColumnData::Float64(v) => v[a].partial_cmp(&v[b]).unwrap_or(Ordering::Equal),
            ColumnData::Date(v) => (v[a] as f64)
                .partial_cmp(&(v[b] as f64))
                .unwrap_or(Ordering::Equal),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};
    use crate::fused::execute_fused;

    fn catalog() -> Catalog {
        let orders = Table::new(
            "orders",
            vec![
                Column::new("o_orderkey", ColumnData::Int64(vec![1, 2, 3, 4])),
                Column::new("o_custkey", ColumnData::Int64(vec![10, 20, 10, 30])),
                Column::new(
                    "o_priority",
                    ColumnData::Utf8(vec![
                        "1-URGENT".into(),
                        "3-MEDIUM".into(),
                        "2-HIGH".into(),
                        "5-LOW".into(),
                    ].into()),
                ),
            ],
        )
        .unwrap();
        let customer = Table::new(
            "customer",
            vec![
                Column::new("c_custkey", ColumnData::Int64(vec![10, 20, 40])),
                Column::new(
                    "c_name",
                    ColumnData::Utf8(vec!["alice".into(), "bob".into(), "carol".into()].into()),
                ),
            ],
        )
        .unwrap();
        let mut cat = Catalog::new();
        cat.insert("orders", orders);
        cat.insert("customer", customer);
        cat
    }

    fn scan(t: &str) -> PhysicalPlan {
        PhysicalPlan::Scan {
            table: t.to_string(),
        }
    }

    #[test]
    fn scan_unknown_table() {
        let res = execute_fused(&scan("nope"), &catalog());
        assert!(matches!(res, Err(EngineError::UnknownTable(_))));
    }

    #[test]
    fn filter_and_profile() {
        let plan = PhysicalPlan::Filter {
            input: Box::new(scan("orders")),
            predicate: Expr::col(1).eq(Expr::int(10)),
        };
        let (out, profile) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 2);
        assert_eq!(profile.ops.len(), 2);
        assert_eq!(profile.scanned_rows(), 4);
        assert_eq!(profile.ops[1].kind, OpKind::Filter);
        assert_eq!(profile.ops[1].rows_out, 2);
    }

    #[test]
    fn project_computes_expressions() {
        let plan = PhysicalPlan::Project {
            input: Box::new(scan("orders")),
            exprs: vec![
                ("key2".to_string(), Expr::col(0).mul(Expr::int(2))),
                ("is_urgent".to_string(), Expr::col(2).eq(Expr::str("1-URGENT"))),
            ],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_columns(), 2);
        assert_eq!(out.row(0), vec![Value::Int64(2), Value::Bool(true)]);
        assert_eq!(out.row(1), vec![Value::Int64(4), Value::Bool(false)]);
    }

    #[test]
    fn inner_join_matches_keys() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("customer")),
            right: Box::new(scan("orders")),
            left_keys: vec![0],
            right_keys: vec![1],
            join_type: JoinType::Inner,
        };
        let (out, profile) = execute_fused(&plan, &catalog()).unwrap();
        // alice(10) x 2 orders + bob(20) x 1 = 3 rows; carol unmatched.
        assert_eq!(out.n_rows(), 3);
        assert_eq!(profile.join_input_rows(), 7);
        // Right-side duplicate of c_custkey is prefixed... names differ here,
        // so both originals survive.
        assert!(out.column_by_name("o_orderkey").is_ok());
    }

    #[test]
    fn left_outer_join_preserves_unmatched() {
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("customer")),
            right: Box::new(scan("orders")),
            left_keys: vec![0],
            right_keys: vec![1],
            join_type: JoinType::LeftOuter,
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 4); // 3 matches + carol with NULLs
        let carol_row = (0..out.n_rows())
            .find(|&i| out.row(i)[1] == Value::Utf8("carol".into()))
            .unwrap();
        assert_eq!(out.row(carol_row)[2], Value::Null);
    }

    #[test]
    fn aggregate_count_per_group() {
        // COUNT(orders) per custkey.
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(scan("orders")),
            group_by: vec![1],
            aggs: vec![("n".to_string(), AggExpr::Count)],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 3);
        // First-seen order: 10, 20, 30.
        assert_eq!(out.row(0), vec![Value::Int64(10), Value::Int64(2)]);
        assert_eq!(out.row(1), vec![Value::Int64(20), Value::Int64(1)]);
    }

    #[test]
    fn global_aggregates_and_countif() {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(scan("orders")),
            group_by: vec![],
            aggs: vec![
                ("n".to_string(), AggExpr::Count),
                (
                    "high".to_string(),
                    AggExpr::CountIf(Expr::col(2).in_list(vec![
                        Value::Utf8("1-URGENT".into()),
                        Value::Utf8("2-HIGH".into()),
                    ])),
                ),
                ("sum_key".to_string(), AggExpr::Sum(Expr::col(0))),
                ("avg_key".to_string(), AggExpr::Avg(Expr::col(0))),
                ("min_key".to_string(), AggExpr::Min(Expr::col(0))),
                ("max_key".to_string(), AggExpr::Max(Expr::col(0))),
            ],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(
            out.row(0),
            vec![
                Value::Int64(4),
                Value::Int64(2),
                Value::Float64(10.0),
                Value::Float64(2.5),
                Value::Float64(1.0),
                Value::Float64(4.0),
            ]
        );
    }

    #[test]
    fn sumif_conditional_total() {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(scan("orders")),
            group_by: vec![],
            aggs: vec![(
                "urgent_keys".to_string(),
                AggExpr::SumIf {
                    value: Expr::col(0),
                    predicate: Expr::col(2).eq(Expr::str("1-URGENT")),
                },
            )],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.row(0), vec![Value::Float64(1.0)]);
    }

    #[test]
    fn empty_global_aggregate_has_one_row() {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::Filter {
                input: Box::new(scan("orders")),
                predicate: Expr::col(0).gt(Expr::int(99)),
            }),
            group_by: vec![],
            aggs: vec![("n".to_string(), AggExpr::Count)],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 1);
        assert_eq!(out.row(0), vec![Value::Int64(0)]);
    }

    #[test]
    fn sort_orders_by_keys() {
        let plan = PhysicalPlan::Sort {
            input: Box::new(scan("orders")),
            by: vec![(1, false), (0, true)],
        };
        let (out, _) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(out.n_rows(), 4);
        // custkey 10 group first, orderkey desc inside: 3 then 1.
        assert_eq!(out.row(0)[0], Value::Int64(3));
        assert_eq!(out.row(1)[0], Value::Int64(1));
    }

    #[test]
    fn join_null_keys_never_match() {
        let mut cat = catalog();
        let t = Table::new(
            "nullkey",
            vec![Column::with_validity(
                "k",
                ColumnData::Int64(vec![10, 0]),
                vec![true, false],
            )],
        )
        .unwrap();
        cat.insert("nullkey", t);
        let plan = PhysicalPlan::HashJoin {
            left: Box::new(scan("nullkey")),
            right: Box::new(scan("customer")),
            left_keys: vec![0],
            right_keys: vec![0],
            join_type: JoinType::Inner,
        };
        let (out, _) = execute_fused(&plan, &cat).unwrap();
        assert_eq!(out.n_rows(), 1); // only the non-NULL 10 matches
    }

    /// Inserts `hashes[i]` with head `i + 1` — a repeated hash overwrites
    /// its head, as pushing onto a chain does — and returns what `get`
    /// then answers for every hash.
    fn heads_after(mut map: U64Map, hashes: &[u64]) -> (U64Map, Vec<u32>) {
        for (i, &h) in hashes.iter().enumerate() {
            *map.entry(h) = i as u32 + 1;
        }
        let heads = hashes.iter().map(|&h| map.get(h)).collect();
        (map, heads)
    }

    /// A map that never grows while it takes `n` hashes: the pre-PR sizing.
    fn presized(n: usize) -> U64Map {
        let cap = (n.max(4) * 2).next_power_of_two();
        U64Map {
            mask: cap - 1,
            len: 0,
            slots: vec![(0, 0); cap],
        }
    }

    #[test]
    fn a_grown_map_answers_like_a_presized_one() {
        let half = U64Map::INITIAL_SLOTS / 2;
        type Family = fn(u64) -> u64;
        let families: [(&str, Family); 4] = [
            ("mixed", mix64),
            // Low bits all zero: every hash has home slot 0 in any table
            // under 2^20 slots, so growth re-places one long probe run.
            ("colliding", |i| (i + 1) << 20),
            // Neighbouring homes: runs that wrap around the table's end.
            ("dense", |i| u64::MAX - i),
            // Seven distinct hashes, each pushed many times.
            ("repeated", |i| mix64(i % 7)),
        ];
        for n in [1, half, half + 1, 100_000] {
            for (name, family) in families {
                if name == "colliding" && n > 2_000 {
                    continue; // one quadratic probe run; the boundaries cover it
                }
                let hashes: Vec<u64> = (0..n as u64).map(family).collect();
                let (grown, got) = heads_after(U64Map::new(), &hashes);
                let (fixed, want) = heads_after(presized(n), &hashes);
                assert_eq!(got, want, "{name} family, {n} keys");
                assert_eq!(fixed.slots.len(), presized(n).slots.len(), "oracle grew");
                // Sized by distinct hashes: within the load bound, and no
                // more than one doubling above it.
                let slots = grown.slots.len();
                assert!(grown.len * 2 <= slots, "{name}/{n}: over 50% load");
                assert!(
                    slots == U64Map::INITIAL_SLOTS || grown.len * 4 > slots,
                    "{name}/{n}: {slots} slots for {} hashes",
                    grown.len
                );
                assert_eq!(grown.len, fixed.len, "{name}/{n}: distinct hashes");
                assert_eq!(grown.get(0x0123_4567_89ab_cdef), 0, "absent hash");
            }
        }
        // The boundary itself: the eighth distinct hash fits, the ninth grows.
        let (at, _) = heads_after(U64Map::new(), &(0..half as u64).map(mix64).collect::<Vec<_>>());
        assert_eq!(at.slots.len(), U64Map::INITIAL_SLOTS);
        let (over, _) = heads_after(
            U64Map::new(),
            &(0..half as u64 + 1).map(mix64).collect::<Vec<_>>(),
        );
        assert_eq!(over.slots.len(), 2 * U64Map::INITIAL_SLOTS);
    }

    /// The two kernels that size their work by the smaller side, each
    /// against an oracle sharing no code with it.
    mod smaller_side_props {
        use super::*;
        use proptest::prelude::*;

        /// One join side: `(first key part, second key part)` per row; a
        /// `None` first part is a NULL key. Few distinct values, so both
        /// sides carry duplicates.
        type Side = Vec<(Option<i64>, u8)>;

        fn side(max: usize) -> impl Strategy<Value = Side> {
            proptest::collection::vec((0i64..7, 0u8..2), 0..max).prop_map(|rows| {
                rows.into_iter()
                    .map(|(k, tag)| ((k != 6).then_some(k), tag))
                    .collect()
            })
        }

        /// `k` (`Int64`, NULL where the first part is `None`) and `tag`
        /// (`Utf8`) — a NULL-free `k` carries no mask, so a one-column key
        /// over it takes the `sole_int_key` loop.
        fn side_table(rows: &Side) -> Table {
            let k = ColumnData::Int64(rows.iter().map(|r| r.0.unwrap_or(0)).collect());
            let k = if rows.iter().all(|r| r.0.is_some()) {
                Column::new("k", k)
            } else {
                Column::with_validity("k", k, rows.iter().map(|r| r.0.is_some()).collect())
            };
            let tag = ColumnData::Utf8(rows.iter().map(|r| r.1.to_string()).collect());
            Table::new("side", vec![k, Column::new("tag", tag)]).unwrap()
        }

        /// The first `parts` columns as the key; a side without rows
        /// resolves none ([`join_key_columns`]).
        fn key_cols(t: &Table, n: usize, parts: usize) -> Vec<&Column> {
            if n == 0 {
                Vec::new()
            } else {
                t.columns()[..parts].iter().collect()
            }
        }

        /// One NULL-free `Int64` column `k`.
        fn key_table(keys: &[i64]) -> Table {
            Table::new("t", vec![Column::new("k", ColumnData::Int64(keys.to_vec()))]).unwrap()
        }

        /// Every other row — a selection, so positions and rows differ.
        fn odd_rows(n: usize) -> Vec<u32> {
            (0..n as u32).filter(|r| r % 2 == 1).collect()
        }

        /// The join by its definition: for each left position, each right
        /// position, both ascending.
        fn nested_loop(
            l: &Side,
            lrows: &[u32],
            r: &Side,
            rrows: &[u32],
            parts: usize,
            join_type: JoinType,
        ) -> (Vec<u32>, Vec<u32>, Vec<bool>) {
            let key = |row: &(Option<i64>, u8)| (row.0, if parts == 2 { row.1 } else { 0 });
            let mut out = (Vec::new(), Vec::new(), Vec::new());
            let mut emit = |lrow: u32, rrow: u32, hit: bool| {
                out.0.push(lrow);
                out.1.push(rrow);
                out.2.push(hit);
            };
            for &lrow in lrows {
                let lk = key(&l[lrow as usize]);
                let mut matched = false;
                for &rrow in rrows {
                    if lk.0.is_some() && lk == key(&r[rrow as usize]) {
                        emit(lrow, rrow, true);
                        matched = true;
                    }
                }
                if !matched && join_type == JoinType::LeftOuter {
                    emit(lrow, 0, false);
                }
            }
            out
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(96))]

            /// Equal triples, not equal sets: whichever side is built, the
            /// output is ordered by (left position, right position).
            #[test]
            fn serial_join_equals_nested_loop(l in side(24), r in side(24)) {
                // As drawn (`ln < rn`, `ln > rn`, empty sides) and cut to one
                // length (`ln == rn`, the tie that builds on the right).
                let m = l.len().min(r.len());
                for (l, r) in [(&l[..], &r[..]), (&l[..m], &r[..m])] {
                    let (l, r) = (l.to_vec(), r.to_vec());
                    let (lt, rt) = (side_table(&l), side_table(&r));
                    for selected in [false, true] {
                        let rows = |n: usize| match selected {
                            true => odd_rows(n),
                            false => (0..n as u32).collect(),
                        };
                        let (lrows, rrows) = (rows(l.len()), rows(r.len()));
                        let batch = |t, rows: &Vec<u32>| Batch {
                            slot: TableSlot::Borrowed(t),
                            sel: selected.then(|| rows.clone()),
                        };
                        let (lb, rb) = (batch(&lt, &lrows), batch(&rt, &rrows));
                        for parts in [1usize, 2] {
                            let lcols = key_cols(&lt, lrows.len(), parts);
                            let rcols = key_cols(&rt, rrows.len(), parts);
                            for join_type in [JoinType::Inner, JoinType::LeftOuter] {
                                let want = nested_loop(&l, &lrows, &r, &rrows, parts, join_type);
                                let got = serial_join_indices(&lb, &rb, &lcols, &rcols, join_type);
                                prop_assert_eq!(
                                    &got, &want,
                                    "{:?}, {} key part(s), selected: {}, l = {:?}, r = {:?}",
                                    join_type, parts, selected, l, r
                                );
                            }
                        }
                    }
                }
            }

            /// Dense addressing against the hashed pass, with the key span on
            /// both sides of `max − min < n`, at both ends of `i64`, and over
            /// a selection whose dead rows hold keys far outside the span.
            #[test]
            fn dense_groups_equal_hashed_groups(
                offsets in proptest::collection::vec(0u64..1000, 2..48),
                slack in 0usize..4,
                base in 0usize..4,
                selected in 0usize..2,
            ) {
                let n = offsets.len();
                // span ∈ {n − 2, n − 1, n, n + 1}: dense below n, hashed from n.
                let span = (n + slack).saturating_sub(2) as u64;
                let base = [i64::MIN, -7, 0, i64::MAX - 64][base];
                let mut live: Vec<i64> = offsets
                    .iter()
                    .map(|o| base + (o % (span + 1)) as i64)
                    .collect();
                // Both ends present, so the span is exactly `span`.
                live[0] = base;
                live[n - 1] = base + span as i64;
                let (keys, sel): (Vec<i64>, Option<Vec<u32>>) = if selected == 1 {
                    // Live keys at odd rows; `i64::MIN`/`i64::MAX` between them.
                    let wild = [i64::MIN, i64::MAX];
                    let keys = (0..2 * n)
                        .map(|row| if row % 2 == 1 { live[row / 2] } else { wild[row / 2 % 2] })
                        .collect();
                    (keys, Some(odd_rows(2 * n)))
                } else {
                    (live, None)
                };
                let t = key_table(&keys);
                let rows = sel.as_deref();
                let hashed =
                    group_ids_by(rows, n, |row| int_key_hash(keys[row]), |x, y| keys[x] == keys[y]);
                let dense = dense_group_ids(rows, &keys, n);
                prop_assert_eq!(dense.is_some(), span < n as u64, "span {}, n {}", span, n);
                prop_assert_eq!(&dense.unwrap_or_else(|| hashed.clone()), &hashed);
                prop_assert_eq!(&serial_group_ids(rows, &[t.column(0).unwrap()], n), &hashed);
            }

            /// The direct-address join against the hashed one, triple for
            /// triple: duplicates on both sides, negative keys and keys at
            /// both ends of `i64`, probe keys below the build side's `min`
            /// and above its `max`, empty sides, either side built, inner
            /// and left-outer, with and without a selection. A side holding
            /// `i64::MIN` and `i64::MAX` spans all of `i64`: built, it falls
            /// back to hashing without overflow; probed, its extremes miss.
            #[test]
            fn direct_join_equals_hashed_join(
                l_off in proptest::collection::vec(0i64..24, 0..20),
                r_off in proptest::collection::vec(0i64..24, 0..20),
                base in 0usize..4,
                extremes in 0usize..4,
                selected in 0usize..2,
            ) {
                let base = [i64::MIN, -12, 0, i64::MAX - 23][base];
                let keys = |off: &[i64], wild: bool| {
                    let mut keys: Vec<i64> = off.iter().map(|o| base + o).collect();
                    if wild && keys.len() >= 2 {
                        let last = keys.len() - 1;
                        (keys[0], keys[last]) = (i64::MIN, i64::MAX);
                    }
                    keys
                };
                let (l, r) = (keys(&l_off, extremes & 1 == 1), keys(&r_off, extremes & 2 == 2));
                let (lt, rt) = (key_table(&l), key_table(&r));
                let rows = |n: usize| match selected {
                    1 => odd_rows(n),
                    _ => (0..n as u32).collect(),
                };
                let (lrows, rrows) = (rows(l.len()), rows(r.len()));
                let batch = |t, rows: &Vec<u32>| Batch {
                    slot: TableSlot::Borrowed(t),
                    sel: (selected == 1).then(|| rows.clone()),
                };
                let (lb, rb) = (batch(&lt, &lrows), batch(&rt, &rrows));
                let (lcols, rcols) = (key_cols(&lt, lrows.len(), 1), key_cols(&rt, rrows.len(), 1));
                // The rule, restated in `i128`: the build side's live keys
                // span fewer integers than the join reads rows.
                let (build, build_rows) = match lrows.len() < rrows.len() {
                    true => (&l, &lrows),
                    false => (&r, &rrows),
                };
                let live = build_rows.iter().map(|&row| build[row as usize] as i128);
                let span = live.clone().max().zip(live.min()).map(|(hi, lo)| hi - lo);
                let want_direct = span.is_some_and(|s| s < (lrows.len() + rrows.len()) as i128);
                prop_assert_eq!(
                    int_key_span(&lb, &rb, &l, &r).is_some(), want_direct,
                    "span {:?}, l = {:?}, r = {:?}", span, l, r
                );
                for join_type in [JoinType::Inner, JoinType::LeftOuter] {
                    let hashed = join_indices_by(
                        &lb,
                        &rb,
                        join_type,
                        U64Map::new(),
                        |lrow| Some(int_key_hash(l[lrow])),
                        |rrow| Some(int_key_hash(r[rrow])),
                        |lrow, rrow| l[lrow] == r[rrow],
                    );
                    let got = serial_join_indices(&lb, &rb, &lcols, &rcols, join_type);
                    prop_assert_eq!(
                        &got, &hashed,
                        "{:?}, direct: {}, selected: {}, l = {:?}, r = {:?}",
                        join_type, want_direct, selected, l, r
                    );
                }
            }
        }

        /// `i64::MIN` and `i64::MAX` in one batch: the span is `u64::MAX`,
        /// computed without overflow, and the pass hashes.
        #[test]
        fn a_key_spanning_all_of_i64_is_hashed() {
            let keys = vec![i64::MAX, i64::MIN, 0, i64::MAX];
            let t = key_table(&keys);
            assert!(dense_group_ids(None, &keys, 4).is_none());
            assert!(dense_group_ids(None, &keys, 0).is_none(), "an empty batch has no span");
            let (ids, reps) = serial_group_ids(None, &[t.column(0).unwrap()], 4);
            assert_eq!((ids, reps), (vec![0, 1, 2, 0], vec![0, 1, 2]));
        }
    }

    #[test]
    fn work_profile_aggregates() {
        let plan = PhysicalPlan::Aggregate {
            input: Box::new(PhysicalPlan::HashJoin {
                left: Box::new(scan("customer")),
                right: Box::new(scan("orders")),
                left_keys: vec![0],
                right_keys: vec![1],
                join_type: JoinType::Inner,
            }),
            group_by: vec![0],
            aggs: vec![("n".to_string(), AggExpr::Count)],
        };
        let (_, profile) = execute_fused(&plan, &catalog()).unwrap();
        assert_eq!(profile.scanned_rows(), 7);
        assert!(profile.agg_input_rows() > 0);
        assert!(profile.peak_intermediate_bytes() > 0);
        assert!(profile.total_intermediate_bytes() >= profile.peak_intermediate_bytes());
    }

    /// A key index built over a side's first rows and linked to the rest
    /// finds, for every probe key, exactly the positions whose key equals it
    /// under join semantics (NULL matches nothing), ascending — over a dense
    /// `Int64` key (direct slots), a sparse one and a string key (hashed).
    /// A direct index refuses a key below its least, or one past twice the
    /// rows above it, so that it is dropped.
    #[test]
    fn a_key_index_grown_by_appends_finds_what_a_scan_finds() {
        let dense: Vec<i64> = (0..40).map(|i| (i * 7) % 23).collect();
        let sparse: Vec<i64> = dense.iter().map(|k| k * 1009).collect();
        let text: Vec<String> = dense.iter().map(|k| format!("k{}", k % 9)).collect();
        let valid: Vec<bool> = (0..40).map(|i| i % 11 != 3).collect();
        let columns = [
            Column::with_validity("k", ColumnData::Int64(dense.clone()), valid.clone()),
            Column::new("k", ColumnData::Int64(dense)),
            Column::new("k", ColumnData::Int64(sparse)),
            Column::with_validity(
                "k",
                ColumnData::Utf8(text.iter().map(String::as_str).collect()),
                valid,
            ),
        ];
        for (c, col) in columns.iter().enumerate() {
            let keys = [col];
            let mut index = KeyIndex::build(&keys, 25).expect("any key builds");
            assert_eq!(index.rows(), 25);
            // A masked key column has no direct slots to link into.
            let direct = matches!(index.chains, KeyChains::Direct { .. });
            assert_eq!(direct, c == 1, "column {c}");
            index.link(&keys, 40).expect("links");
            let mut found = Vec::new();
            for row in 0..40 {
                found.clear();
                index.matches(&keys, &keys, row, &mut found);
                let want: Vec<u32> = (0..40u32)
                    .filter(|&p| col.is_valid(row) && keys_equal(&keys, row, &keys, p as usize))
                    .collect();
                assert_eq!(found, want, "column {c}, row {row}");
            }
        }
        let below = Column::new("k", ColumnData::Int64(vec![5, 6, 7, 4]));
        let mut index = KeyIndex::build(&[&below], 3).expect("dense");
        assert_eq!(index.link(&[&below], 4), None, "a key below the least");
        let far = Column::new("k", ColumnData::Int64(vec![5, 6, 7, 100]));
        let mut index = KeyIndex::build(&[&far], 3).expect("dense");
        assert_eq!(index.link(&[&far], 4), None, "a key past twice the rows");
    }
}
