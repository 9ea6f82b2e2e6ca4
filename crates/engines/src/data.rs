//! Typed columnar tables — the storage layer of the batch execution model.
//!
//! Storage is column-major with an optional validity mask per column (nulls
//! appear once left-outer joins enter the picture). Operators do not
//! consume these tables row-by-row: the executor in [`crate::ops`] works
//! *vector-at-a-time*, pairing a table with a **selection vector** (a `u32`
//! index list of the live rows) so that filters, sorts and limits never
//! materialize intermediate copies. This module provides the primitives
//! that model needs:
//!
//! * `take_ids` / `take_opt_ids` — gather by `u32` selection indices
//!   (the allocation path joins and final materialization use); every
//!   gather, these included, is one `Column::gather_rows`;
//! * `virtual_bytes` / `width_bytes` — byte accounting for a *virtual*
//!   table (a selection, several slabs), identical bit-for-bit to
//!   materializing and measuring it;
//! * `utf8_at` — a borrowing string accessor so expression evaluation can
//!   compare strings without cloning them out of the column.
//!
//! A string column is a [`Utf8Column`]: offsets into one byte buffer, so a
//! gather, a concatenation or a broadcast of strings is two exact-size
//! buffers, never one allocation per row, and a column's total byte length
//! — what every byte formula divides — is a read, not a pass.
//!
//! Scalar row access ([`Column::value`]) remains for tests, display and the
//! reference scalar executor.

use crate::error::EngineError;
use std::fmt;
use std::ops::Index;
use std::sync::{Arc, OnceLock};

/// Logical data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer.
    Int64,
    /// 64-bit float.
    Float64,
    /// UTF-8 string.
    Utf8,
    /// Date as days since 1970-01-01.
    Date,
    /// Boolean.
    Bool,
}

/// A single scalar value (used by literals and row extraction).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// 64-bit signed integer.
    Int64(i64),
    /// 64-bit float.
    Float64(f64),
    /// UTF-8 string.
    Utf8(String),
    /// Date as days since the epoch.
    Date(i32),
    /// Boolean.
    Bool(bool),
    /// SQL NULL.
    Null,
}

impl Value {
    /// The value's type; `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Int64(_) => Some(DataType::Int64),
            Value::Float64(_) => Some(DataType::Float64),
            Value::Utf8(_) => Some(DataType::Utf8),
            Value::Date(_) => Some(DataType::Date),
            Value::Bool(_) => Some(DataType::Bool),
            Value::Null => None,
        }
    }

    /// Numeric view (ints and dates widen to f64); `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int64(v) => Some(*v as f64),
            Value::Float64(v) => Some(*v),
            Value::Date(v) => Some(*v as f64),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int64(v) => write!(f, "{v}"),
            Value::Float64(v) => write!(f, "{v}"),
            Value::Utf8(v) => write!(f, "{v}"),
            Value::Date(v) => write!(f, "date#{v}"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Null => write!(f, "NULL"),
        }
    }
}

/// A string column: every value's bytes back to back in one buffer, and
/// `len + 1` offsets into it starting at 0 — value `i` is
/// `bytes[offsets[i]..offsets[i + 1]]`. Two allocations per column however
/// many rows it holds; equal columns hold equal strings in equal order.
///
/// Offsets are `u32`: one column holds at most 4 GiB of text. Every append
/// checks the running length and panics past that bound rather than wrap.
#[derive(Clone, PartialEq, Eq)]
pub struct Utf8Column {
    offsets: Vec<u32>,
    bytes: String,
}

impl Utf8Column {
    /// An empty column with room for `rows` values of `bytes` bytes in all.
    pub fn with_capacity(rows: usize, bytes: usize) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Utf8Column {
            offsets,
            bytes: String::with_capacity(bytes),
        }
    }

    /// `s`, `n` times: a literal broadcast.
    pub fn repeat(s: &str, n: usize) -> Self {
        let mut out = Utf8Column::with_capacity(n, s.len() * n);
        (0..n).for_each(|_| out.push(s));
        out
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    /// True when there are no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total byte length of all values, O(1).
    pub fn total_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// Byte length of value `i`, read from the offsets alone.
    pub fn value_len(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The values in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        self.offsets.windows(2).map(|w| &self.bytes[w[0] as usize..w[1] as usize])
    }

    /// The offset after `len` bytes of text.
    fn offset(len: usize) -> u32 {
        u32::try_from(len).expect("a Utf8 column holds at most 4 GiB of text")
    }

    /// Appends one value.
    pub fn push(&mut self, s: &str) {
        self.bytes.push_str(s);
        self.offsets.push(Utf8Column::offset(self.bytes.len()));
    }

    /// Appends one value formatted straight into the buffer
    /// (`col.push_fmt(format_args!(…))`), without a `String` of its own.
    pub fn push_fmt(&mut self, args: fmt::Arguments<'_>) {
        fmt::Write::write_fmt(&mut self.bytes, args).expect("formatting into a String cannot fail");
        self.offsets.push(Utf8Column::offset(self.bytes.len()));
    }

    /// Appends every value of `other`: one copy of its bytes, its offsets
    /// shifted.
    pub fn extend_from(&mut self, other: &Utf8Column) {
        let base = Utf8Column::offset(self.bytes.len());
        // The last shifted offset is the new length: checked once here, it
        // bounds every other.
        Utf8Column::offset(self.bytes.len() + other.bytes.len());
        self.bytes.push_str(&other.bytes);
        self.offsets.extend(other.offsets[1..].iter().map(|&o| base + o));
    }

    /// The one string gather: `Some(i)` appends value `i`, `None` an empty
    /// string (a NULL row's placeholder). Two exact-size passes — the
    /// lengths, then the bytes — so the output is two allocations.
    pub fn gather(&self, rows: impl Iterator<Item = Option<usize>> + Clone) -> Utf8Column {
        let (mut n, mut total) = (0, 0);
        for row in rows.clone() {
            n += 1;
            total += row.map_or(0, |i| self.value_len(i));
        }
        let mut out = Utf8Column::with_capacity(n, total);
        for row in rows {
            out.push(row.map_or("", |i| &self[i]));
        }
        out
    }
}

impl Default for Utf8Column {
    fn default() -> Self {
        Utf8Column::with_capacity(0, 0)
    }
}

impl Index<usize> for Utf8Column {
    type Output = str;

    fn index(&self, i: usize) -> &str {
        &self.bytes[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

impl fmt::Debug for Utf8Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl<S: AsRef<str>> FromIterator<S> for Utf8Column {
    fn from_iter<I: IntoIterator<Item = S>>(iter: I) -> Self {
        let iter = iter.into_iter();
        let mut out = Utf8Column::with_capacity(iter.size_hint().0, 0);
        iter.for_each(|s| out.push(s.as_ref()));
        out
    }
}

impl From<Vec<String>> for Utf8Column {
    fn from(v: Vec<String>) -> Self {
        v.iter().collect()
    }
}

/// The typed backing store of one column.
#[derive(Debug, Clone, PartialEq)]
pub enum ColumnData {
    /// 64-bit ints.
    Int64(Vec<i64>),
    /// 64-bit floats.
    Float64(Vec<f64>),
    /// Strings.
    Utf8(Utf8Column),
    /// Dates (days since epoch).
    Date(Vec<i32>),
    /// Booleans.
    Bool(Vec<bool>),
}

impl ColumnData {
    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            ColumnData::Int64(v) => v.len(),
            ColumnData::Float64(v) => v.len(),
            ColumnData::Utf8(v) => v.len(),
            ColumnData::Date(v) => v.len(),
            ColumnData::Bool(v) => v.len(),
        }
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical type.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnData::Int64(_) => DataType::Int64,
            ColumnData::Float64(_) => DataType::Float64,
            ColumnData::Utf8(_) => DataType::Utf8,
            ColumnData::Date(_) => DataType::Date,
            ColumnData::Bool(_) => DataType::Bool,
        }
    }

    /// Total byte length of a string column's values; 0 for other types.
    pub(crate) fn utf8_bytes(&self) -> usize {
        match self {
            ColumnData::Utf8(v) => v.total_bytes(),
            _ => 0,
        }
    }

    /// A copy of these rows in buffers with room for `more`'s after them:
    /// the room an append in place would grow a buffer of exactly these
    /// rows to, so a shared column is copied once, not copied and then
    /// grown.
    fn copy_with_room(&self, more: &ColumnData) -> ColumnData {
        let n = more.len();
        match self {
            ColumnData::Int64(v) => ColumnData::Int64(copy_with_room(v, n)),
            ColumnData::Float64(v) => ColumnData::Float64(copy_with_room(v, n)),
            ColumnData::Utf8(v) => {
                let mut bytes = String::with_capacity(grown(v.bytes.len(), more.utf8_bytes()));
                bytes.push_str(&v.bytes);
                let offsets = copy_with_room(&v.offsets, n);
                ColumnData::Utf8(Utf8Column { offsets, bytes })
            }
            ColumnData::Date(v) => ColumnData::Date(copy_with_room(v, n)),
            ColumnData::Bool(v) => ColumnData::Bool(copy_with_room(v, n)),
        }
    }
}

/// The capacity `Vec` grows a full buffer of `len` elements to when `more`
/// are appended: twice it, or what they need.
fn grown(len: usize, more: usize) -> usize {
    (2 * len).max(len + more)
}

/// `v` in a buffer of [`grown`] capacity for `more` elements after it.
fn copy_with_room<T: Clone>(v: &[T], more: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(grown(v.len(), more));
    out.extend_from_slice(v);
    out
}

/// One named column: data plus an optional validity mask (`false` = NULL).
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Column name.
    pub name: String,
    /// Typed values, shared and immutable once built: a clone of the
    /// column (or of its table) and a fused projection of the whole column
    /// point at the same buffer. An operator that produces other values
    /// builds a new column.
    pub data: Arc<ColumnData>,
    /// `None` means all rows valid.
    pub validity: Option<Vec<bool>>,
}

impl Column {
    /// A fully valid column.
    pub fn new(name: &str, data: ColumnData) -> Self {
        Column {
            name: name.to_string(),
            data: Arc::new(data),
            validity: None,
        }
    }

    /// A column with explicit validity.
    pub fn with_validity(name: &str, data: ColumnData, validity: Vec<bool>) -> Self {
        Column {
            name: name.to_string(),
            data: Arc::new(data),
            validity: Some(validity),
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// True when row `i` is non-NULL.
    pub fn is_valid(&self, i: usize) -> bool {
        self.validity.as_ref().is_none_or(|v| v[i])
    }

    /// Extracts row `i` as a [`Value`].
    pub fn value(&self, i: usize) -> Value {
        if !self.is_valid(i) {
            return Value::Null;
        }
        match &*self.data {
            ColumnData::Int64(v) => Value::Int64(v[i]),
            ColumnData::Float64(v) => Value::Float64(v[i]),
            ColumnData::Utf8(v) => Value::Utf8(v[i].to_string()),
            ColumnData::Date(v) => Value::Date(v[i]),
            ColumnData::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Borrowing string accessor: `Some(Some(s))` for a valid Utf8 row,
    /// `Some(None)` for a NULL row of a Utf8 column, and `None` when the
    /// column is not Utf8. Lets comparisons avoid building the `String`
    /// that [`Column::value`] would have to produce.
    pub fn utf8_at(&self, i: usize) -> Option<Option<&str>> {
        match &*self.data {
            ColumnData::Utf8(v) => {
                if self.is_valid(i) {
                    Some(Some(&v[i]))
                } else {
                    Some(None)
                }
            }
            _ => None,
        }
    }

    /// Approximate in-memory size of one value of this column, in bytes.
    /// Strings use their average length; everything else its fixed width.
    pub fn avg_value_bytes(&self) -> f64 {
        match &*self.data {
            ColumnData::Int64(_) | ColumnData::Float64(_) => 8.0,
            ColumnData::Date(_) => 4.0,
            ColumnData::Bool(_) => 1.0,
            ColumnData::Utf8(v) if v.is_empty() => 8.0,
            ColumnData::Utf8(v) => v.total_bytes() as f64 / v.len() as f64,
        }
    }

    /// The one row gather: `Some(i)` copies row `i`, validity included;
    /// `None` is a NULL row holding the type's default (`""` for strings).
    /// A mask is built when the source has one or `mask` asks for it.
    pub(crate) fn gather_rows(
        &self,
        rows: impl Iterator<Item = Option<usize>> + Clone,
        mask: bool,
    ) -> (ColumnData, Option<Vec<bool>>) {
        fn typed<T: Copy + Default>(v: &[T], rows: impl Iterator<Item = Option<usize>>) -> Vec<T> {
            rows.map(|r| r.map_or_else(T::default, |i| v[i])).collect()
        }
        let data = match &*self.data {
            ColumnData::Int64(v) => ColumnData::Int64(typed(v, rows.clone())),
            ColumnData::Float64(v) => ColumnData::Float64(typed(v, rows.clone())),
            ColumnData::Utf8(v) => ColumnData::Utf8(v.gather(rows.clone())),
            ColumnData::Date(v) => ColumnData::Date(typed(v, rows.clone())),
            ColumnData::Bool(v) => ColumnData::Bool(typed(v, rows.clone())),
        };
        let validity = (mask || self.validity.is_some())
            .then(|| rows.map(|r| r.is_some_and(|i| self.is_valid(i))).collect());
        (data, validity)
    }

    /// [`Column::gather_rows`] as a column of the same name.
    fn gathered(&self, rows: impl Iterator<Item = Option<usize>> + Clone, mask: bool) -> Column {
        let (data, validity) = self.gather_rows(rows, mask);
        Column {
            name: self.name.clone(),
            data: Arc::new(data),
            validity,
        }
    }

    /// Builds a new column keeping only rows where `mask[i]` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        let kept = mask.iter().enumerate().filter(|(_, &m)| m).map(|(i, _)| Some(i));
        self.gathered(kept, false)
    }

    /// Builds a new column from the rows at `indices` (gather).
    pub fn take(&self, indices: &[usize]) -> Column {
        self.gathered(indices.iter().map(|&i| Some(i)), false)
    }

    /// [`Column::take`] over a `u32` selection vector (the executor's
    /// native index width); behaviour is identical.
    pub fn take_ids(&self, indices: &[u32]) -> Column {
        self.gathered(indices.iter().map(|&i| Some(i as usize)), false)
    }

    /// [`Column::take_opt`] over a `u32` selection vector plus a match
    /// mask: unmatched positions (`matched[i] == false`) produce NULL rows
    /// with the type's default in the data buffer, exactly as `take_opt`
    /// does for `None` indices. The validity mask is always materialized,
    /// matching `take_opt`.
    pub fn take_opt_ids(&self, indices: &[u32], matched: &[bool]) -> Column {
        let rows = indices.iter().zip(matched).map(|(&i, &hit)| hit.then_some(i as usize));
        self.gathered(rows, true)
    }

    /// Like [`Column::take`] but `None` indices produce NULL rows — needed
    /// for the unmatched side of left-outer joins.
    pub fn take_opt(&self, indices: &[Option<usize>]) -> Column {
        self.gathered(indices.iter().copied(), true)
    }
}

/// The one *virtual* byte formula: [`Table::estimated_bytes`] of a table
/// of `n` rows with the schema of `columns` that is never built — a
/// selection of a table, the concatenation of selected slabs, a join
/// output known only by its gather indices. `utf8_total(ci, strings)` is
/// the total byte length of Utf8 column `ci`'s `n` selected values
/// (`strings` is the schema column's own values, for callers that index
/// them). Totals are exact integers however many pieces they were summed
/// over; the float average and the product are applied here, once, so
/// the result is the bit pattern that materializing and then measuring
/// produces — what keeps work profiles equal across the scalar, batch and
/// fused executors, and across chunk boundaries.
pub(crate) fn virtual_bytes<'c>(
    columns: impl Iterator<Item = &'c Column>,
    n: usize,
    mut utf8_total: impl FnMut(usize, &'c Utf8Column) -> usize,
) -> u64 {
    width_bytes(
        columns.enumerate().map(|(ci, c)| match &*c.data {
            ColumnData::Utf8(v) if n > 0 => (DataType::Utf8, utf8_total(ci, v)),
            data => (data.data_type(), 0),
        }),
        n,
    )
}

/// [`virtual_bytes`] from the schema alone: each column's type and the
/// total byte length of its `n` string values (0 for other types). The
/// totals of several runs' outputs add up exactly, so the bytes of their
/// concatenation are this formula over the sums.
pub(crate) fn width_bytes(columns: impl Iterator<Item = (DataType, usize)>, n: usize) -> u64 {
    let per_row: f64 = columns
        .map(|(ty, utf8)| match ty {
            DataType::Int64 | DataType::Float64 => 8.0,
            DataType::Date => 4.0,
            DataType::Bool => 1.0,
            DataType::Utf8 if n == 0 => 8.0,
            DataType::Utf8 => utf8 as f64 / n as f64,
        })
        .sum();
    (per_row * n as f64) as u64
}

/// A named, schema-checked collection of equal-length columns.
#[derive(Clone)]
pub struct Table {
    /// Table name.
    pub name: String,
    columns: Vec<Column>,
    n_rows: usize,
    /// Memoized [`Table::fingerprint`], the table's one memo: `columns` is
    /// private, [`Table::append`] is the one method that changes the rows
    /// and it empties the memo, and the public `name` is not hashed, so the
    /// O(bytes) hash runs at most once per table state — a result that
    /// lives in a cache behind an `Arc` is hashed once, not once per hit.
    /// Deliberately excluded from `PartialEq` and `Debug`: two tables with
    /// identical rows are equal whether or not either has been hashed yet.
    /// Byte sizes need no memo: a string column knows its total length.
    fingerprint_cache: OnceLock<u64>,
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("columns", &self.columns)
            .field("n_rows", &self.n_rows)
            .finish()
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name && self.n_rows == other.n_rows && self.columns == other.columns
    }
}

impl Table {
    /// Builds a table, validating that all columns share one length.
    pub fn new(name: &str, columns: Vec<Column>) -> Result<Self, EngineError> {
        let n_rows = columns.first().map_or(0, |c| c.len());
        if columns.iter().any(|c| c.len() != n_rows) {
            return Err(EngineError::RaggedTable {
                table: name.to_string(),
            });
        }
        Ok(Table::from_parts(name.to_string(), columns, n_rows))
    }

    /// An empty, zero-column table.
    pub fn empty(name: &str) -> Self {
        Table::from_parts(name.to_string(), Vec::new(), 0)
    }

    /// The one place a table is put together: `columns` all hold `n_rows`
    /// rows (the caller's invariant), and every memo starts empty — a new
    /// table never inherits what was measured on the rows it was cut from.
    fn from_parts(name: String, columns: Vec<Column>, n_rows: usize) -> Self {
        Table {
            name,
            columns,
            n_rows,
            fingerprint_cache: OnceLock::new(),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_columns(&self) -> usize {
        self.columns.len()
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Column by position.
    pub fn column(&self, i: usize) -> Result<&Column, EngineError> {
        self.columns.get(i).ok_or(EngineError::ColumnIndex {
            index: i,
            width: self.columns.len(),
        })
    }

    /// Position of a column by name.
    pub fn column_index(&self, name: &str) -> Result<usize, EngineError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
    }

    /// Column by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column, EngineError> {
        self.column(self.column_index(name)?)
    }

    /// Estimated in-memory size of the table's data in bytes: the columns'
    /// average value widths, summed in column order, times the rows.
    /// O(columns).
    pub fn estimated_bytes(&self) -> u64 {
        let per_row: f64 = self.columns.iter().map(Column::avg_value_bytes).sum();
        (per_row * self.n_rows as f64) as u64
    }

    /// Gathers the rows at a `u32` selection vector.
    pub fn take_ids(&self, indices: &[u32]) -> Table {
        let columns = self.columns.iter().map(|c| c.take_ids(indices)).collect();
        Table::from_parts(self.name.clone(), columns, indices.len())
    }

    /// Total byte length of column `ci`'s string values at the rows `sel`
    /// (`None` = all rows); `0` for a non-Utf8 column.
    pub(crate) fn utf8_bytes_sel(&self, ci: usize, sel: Option<&[u32]>) -> usize {
        match (sel, &*self.columns[ci].data) {
            (Some(sel), ColumnData::Utf8(v)) => sel.iter().map(|&i| v.value_len(i as usize)).sum(),
            (_, data) => data.utf8_bytes(),
        }
    }

    /// Keeps the rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Table {
        let columns = self.columns.iter().map(|c| c.filter(mask)).collect();
        let n_rows = mask.iter().filter(|&&m| m).count();
        Table::from_parts(self.name.clone(), columns, n_rows)
    }

    /// Gathers the rows at `indices`.
    pub fn take(&self, indices: &[usize]) -> Table {
        let columns = self.columns.iter().map(|c| c.take(indices)).collect();
        Table::from_parts(self.name.clone(), columns, indices.len())
    }

    /// Extracts row `i` as values (for tests and display).
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(i)).collect()
    }

    /// The table's schema as `(column name, type)` pairs, in column order.
    pub fn schema(&self) -> Vec<(&str, DataType)> {
        self.columns
            .iter()
            .map(|c| (c.name.as_str(), c.data.data_type()))
            .collect()
    }

    /// Concatenates `chunks` (all sharing one schema) into one owned table
    /// named `name`. Row order is chunk order; validity masks merge (a
    /// combined mask is materialized as soon as any chunk carries one).
    ///
    /// This is the *compaction* step of the copy-on-write data plane: a
    /// chunked table stays append-only and zero-copy until an executor
    /// needs one contiguous column vector, at which point the chunks are
    /// gathered exactly once per catalog version (see
    /// [`crate::version::ChunkedTable::snapshot`]).
    pub fn concat(name: &str, chunks: &[&Table]) -> Result<Table, EngineError> {
        let Some((first, rest)) = chunks.split_first() else {
            return Ok(Table::empty(name));
        };
        let schema = first.schema();
        for chunk in rest {
            if chunk.schema() != schema {
                return Err(EngineError::TypeMismatch {
                    context: format!(
                        "cannot concatenate chunk of table {:?} ({:?}) onto schema {:?}",
                        chunk.name,
                        chunk.schema(),
                        schema
                    ),
                });
            }
        }
        let n_rows: usize = chunks.iter().map(|c| c.n_rows).sum();
        let mut columns = Vec::with_capacity(first.n_columns());
        for col_idx in 0..first.n_columns() {
            let parts: Vec<&Column> = chunks.iter().map(|c| &c.columns[col_idx]).collect();
            macro_rules! splice {
                ($variant:ident) => {
                    splice!($variant, Vec::with_capacity(n_rows), extend_from_slice)
                };
                ($variant:ident, $out:expr, $extend:ident) => {{
                    let mut out = $out;
                    for part in &parts {
                        match &*part.data {
                            ColumnData::$variant(v) => out.$extend(v),
                            // LINT: panic-ok — concat verifies every part
                            // shares the schema before splicing.
                            _ => unreachable!("schema checked above"),
                        }
                    }
                    ColumnData::$variant(out)
                }};
            }
            let data = match &*first.columns[col_idx].data {
                ColumnData::Int64(_) => splice!(Int64),
                ColumnData::Float64(_) => splice!(Float64),
                ColumnData::Utf8(_) => {
                    let bytes = parts.iter().map(|p| p.data.utf8_bytes()).sum();
                    splice!(Utf8, Utf8Column::with_capacity(n_rows, bytes), extend_from)
                }
                ColumnData::Date(_) => splice!(Date),
                ColumnData::Bool(_) => splice!(Bool),
            };
            let validity = if parts.iter().any(|p| p.validity.is_some()) {
                let mut mask = Vec::with_capacity(n_rows);
                for part in &parts {
                    match &part.validity {
                        Some(v) => mask.extend(v.iter().copied()),
                        None => mask.extend(std::iter::repeat_n(true, part.len())),
                    }
                }
                Some(mask)
            } else {
                None
            };
            columns.push(Column {
                name: first.columns[col_idx].name.clone(),
                data: Arc::new(data),
                validity,
            });
        }
        Ok(Table::from_parts(name.to_string(), columns, n_rows))
    }

    /// Appends `other`'s rows (same schema) after this table's, in place:
    /// [`Table::concat`] of the two, without copying this table's rows
    /// where its buffers are its own. A column buffer another table shares
    /// is copied first, once, into a buffer with the room the append grows
    /// it to, so no other holder ever sees the change, and the fingerprint
    /// memo empties.
    pub fn append(&mut self, other: &Table) -> Result<(), EngineError> {
        if other.schema() != self.schema() {
            return Err(EngineError::TypeMismatch {
                context: format!(
                    "cannot append {:?} ({:?}) to table {:?} ({:?})",
                    other.name,
                    other.schema(),
                    self.name,
                    self.schema()
                ),
            });
        }
        for (col, part) in self.columns.iter_mut().zip(&other.columns) {
            if col.validity.is_some() || part.validity.is_some() {
                let mut mask = col.validity.take().unwrap_or_else(|| vec![true; col.len()]);
                match &part.validity {
                    Some(v) => mask.extend_from_slice(v),
                    None => mask.resize(mask.len() + part.len(), true),
                }
                col.validity = Some(mask);
            }
            // LINT: unique-ok — a buffer another column shares is replaced
            // by one copy of it, with room for the rows appended.
            if Arc::get_mut(&mut col.data).is_none() {
                col.data = Arc::new(col.data.copy_with_room(&part.data));
            }
            // LINT: unique-ok — the buffer is this column's own by now.
            match (Arc::make_mut(&mut col.data), &*part.data) {
                (ColumnData::Int64(a), ColumnData::Int64(b)) => a.extend_from_slice(b),
                (ColumnData::Float64(a), ColumnData::Float64(b)) => a.extend_from_slice(b),
                (ColumnData::Utf8(a), ColumnData::Utf8(b)) => a.extend_from(b),
                (ColumnData::Date(a), ColumnData::Date(b)) => a.extend_from_slice(b),
                (ColumnData::Bool(a), ColumnData::Bool(b)) => a.extend_from_slice(b),
                // LINT: panic-ok — the schemas were compared above.
                _ => unreachable!("schema checked above"),
            }
        }
        self.n_rows += other.n_rows;
        self.fingerprint_cache = OnceLock::new();
        Ok(())
    }

    /// An order-sensitive 64-bit content fingerprint (FNV-1a over schema,
    /// validity and values). Two tables fingerprint equal iff they hold the
    /// same rows in the same order under the same schema — the cheap
    /// bit-for-bit identity the snapshot-isolation gates compare instead of
    /// shipping whole result tables through reports.
    ///
    /// NULL slots contribute only their validity bit: whatever garbage the
    /// data buffer happens to hold under an invalid row (a join's type
    /// default, an operator's scratch value) never reaches the hash, so two
    /// *logically* identical tables fingerprint equal no matter how their
    /// dead slots differ.
    ///
    /// Memoized: the first call hashes the table, every later call — on
    /// this table or a clone of it — reads the stored value, until
    /// [`Table::append`] changes the rows.
    pub fn fingerprint(&self) -> u64 {
        *self.fingerprint_cache.get_or_init(|| self.compute_fingerprint())
    }

    fn compute_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat(&(self.n_rows as u64).to_le_bytes());
        eat(&(self.columns.len() as u64).to_le_bytes());
        for c in &self.columns {
            eat(c.name.as_bytes());
            eat(&[0xff]);
            for i in 0..c.len() {
                eat(&[u8::from(c.is_valid(i))]);
            }
            // Invalid rows are skipped: the validity bytes above already
            // disambiguate which positions were NULL.
            match &*c.data {
                ColumnData::Int64(v) => {
                    eat(&[0]);
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            eat(&x.to_le_bytes());
                        }
                    }
                }
                ColumnData::Float64(v) => {
                    eat(&[1]);
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            eat(&x.to_bits().to_le_bytes());
                        }
                    }
                }
                ColumnData::Utf8(v) => {
                    eat(&[2]);
                    for (i, s) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            eat(&(s.len() as u64).to_le_bytes());
                            eat(s.as_bytes());
                        }
                    }
                }
                ColumnData::Date(v) => {
                    eat(&[3]);
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            eat(&x.to_le_bytes());
                        }
                    }
                }
                ColumnData::Bool(v) => {
                    eat(&[4]);
                    for (i, x) in v.iter().enumerate() {
                        if c.is_valid(i) {
                            eat(&[u8::from(*x)]);
                        }
                    }
                }
            }
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("id", ColumnData::Int64(vec![1, 2, 3])),
                Column::new(
                    "name",
                    ColumnData::Utf8(vec!["a".into(), "bb".into(), "ccc".into()].into()),
                ),
                Column::new("score", ColumnData::Float64(vec![0.5, 1.5, 2.5])),
            ],
        )
        .unwrap()
    }

    #[test]
    fn construction_checks_lengths() {
        let bad = Table::new(
            "bad",
            vec![
                Column::new("a", ColumnData::Int64(vec![1])),
                Column::new("b", ColumnData::Int64(vec![1, 2])),
            ],
        );
        assert!(matches!(bad, Err(EngineError::RaggedTable { .. })));
    }

    #[test]
    fn lookup_by_name_and_index() {
        let t = sample();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_columns(), 3);
        assert_eq!(t.column_index("score").unwrap(), 2);
        assert!(t.column_index("nope").is_err());
        assert!(t.column(9).is_err());
        assert_eq!(t.column_by_name("id").unwrap().value(1), Value::Int64(2));
    }

    #[test]
    fn filter_keeps_matching_rows() {
        let t = sample().filter(&[true, false, true]);
        assert_eq!(t.n_rows(), 2);
        assert_eq!(t.row(1)[0], Value::Int64(3));
    }

    #[test]
    fn take_gathers_and_duplicates() {
        let t = sample().take(&[2, 0, 2]);
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.row(0)[0], Value::Int64(3));
        assert_eq!(t.row(2)[0], Value::Int64(3));
    }

    #[test]
    fn take_opt_produces_nulls() {
        let t = sample();
        let c = t.column_by_name("name").unwrap().take_opt(&[Some(0), None]);
        assert_eq!(c.value(0), Value::Utf8("a".into()));
        assert_eq!(c.value(1), Value::Null);
        assert!(!c.is_valid(1));
    }

    #[test]
    fn estimated_bytes_reflects_strings() {
        let t = sample();
        // 8 (id) + 2 (avg name len) + 8 (score) = 18 bytes/row * 3 rows.
        assert_eq!(t.estimated_bytes(), 54);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::Int64(3).as_f64(), Some(3.0));
        assert_eq!(Value::Date(10).as_f64(), Some(10.0));
        assert_eq!(Value::Utf8("x".into()).as_f64(), None);
        assert_eq!(Value::Null.data_type(), None);
        assert_eq!(Value::Bool(true).data_type(), Some(DataType::Bool));
    }

    #[test]
    fn empty_table() {
        let t = Table::empty("e");
        assert_eq!(t.n_rows(), 0);
        assert_eq!(t.estimated_bytes(), 0);
    }

    #[test]
    fn display_values() {
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Date(3).to_string(), "date#3");
    }

    #[test]
    fn take_ids_matches_take() {
        let t = sample();
        assert_eq!(t.take_ids(&[2, 0, 2]), t.take(&[2, 0, 2]));
        let c = t.column_by_name("name").unwrap();
        assert_eq!(c.take_ids(&[1]), c.take(&[1]));
    }

    #[test]
    fn take_opt_ids_matches_take_opt() {
        let t = sample();
        let c = t.column_by_name("name").unwrap();
        let via_opt = c.take_opt(&[Some(0), None, Some(2)]);
        let via_ids = c.take_opt_ids(&[0, 0, 2], &[true, false, true]);
        assert_eq!(via_opt, via_ids);
        // A source column with its own validity propagates it when matched.
        let nullable = Column::with_validity(
            "n",
            ColumnData::Int64(vec![7, 8]),
            vec![true, false],
        );
        let got = nullable.take_opt_ids(&[1, 0], &[true, false]);
        assert_eq!(got, nullable.take_opt(&[Some(1), None]));
        assert!(!got.is_valid(0) && !got.is_valid(1));
    }

    #[test]
    fn concat_splices_chunks_in_order() {
        let t = sample();
        let whole = Table::concat("t", &[&t.take(&[0]), &t.take(&[1, 2])]).unwrap();
        assert_eq!(whole.n_rows(), 3);
        for i in 0..3 {
            assert_eq!(whole.row(i), t.row(i));
        }
        assert_eq!(Table::concat("e", &[]).unwrap().n_rows(), 0);
        // Validity merges: a NULL-carrying chunk forces a combined mask.
        let plain = Column::new("n", ColumnData::Int64(vec![1]));
        let nullable =
            Column::with_validity("n", ColumnData::Int64(vec![0]), vec![false]);
        let a = Table::new("a", vec![plain]).unwrap();
        let b = Table::new("b", vec![nullable]).unwrap();
        let merged = Table::concat("m", &[&a, &b]).unwrap();
        assert!(merged.columns()[0].is_valid(0));
        assert!(!merged.columns()[0].is_valid(1));
    }

    #[test]
    fn concat_rejects_schema_mismatches() {
        let t = sample();
        let other = Table::new(
            "o",
            vec![Column::new("id", ColumnData::Float64(vec![1.0]))],
        )
        .unwrap();
        assert!(matches!(
            Table::concat("bad", &[&t, &other]),
            Err(EngineError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn fingerprint_is_content_identity() {
        let t = sample();
        assert_eq!(t.fingerprint(), sample().fingerprint());
        // Row order matters.
        assert_ne!(t.fingerprint(), t.take(&[2, 1, 0]).fingerprint());
        // Values matter.
        assert_ne!(t.fingerprint(), t.take(&[0, 0, 2]).fingerprint());
        // Validity matters even when backing values agree.
        let v1 = Table::new("v", vec![Column::new("x", ColumnData::Int64(vec![5]))]).unwrap();
        let v2 = Table::new(
            "v",
            vec![Column::with_validity(
                "x",
                ColumnData::Int64(vec![5]),
                vec![false],
            )],
        )
        .unwrap();
        assert_ne!(v1.fingerprint(), v2.fingerprint());
        // Concatenation of chunks fingerprints like the contiguous table.
        let whole = Table::concat("t", &[&t.take(&[0, 1]), &t.take(&[2])]).unwrap();
        assert_eq!(whole.fingerprint(), t.fingerprint());
    }

    #[test]
    fn fingerprint_ignores_garbage_under_null_slots() {
        // Same logical content, different dead values in the invalid rows —
        // for every column type.
        let a = Table::new(
            "t",
            vec![
                Column::with_validity("i", ColumnData::Int64(vec![1, 0, 3]), vec![true, false, true]),
                Column::with_validity(
                    "f",
                    ColumnData::Float64(vec![0.5, 0.0, 2.5]),
                    vec![true, false, true],
                ),
                Column::with_validity(
                    "s",
                    ColumnData::Utf8(vec!["a".into(), String::new(), "c".into()].into()),
                    vec![true, false, true],
                ),
                Column::with_validity("d", ColumnData::Date(vec![7, 0, 9]), vec![true, false, true]),
                Column::with_validity(
                    "b",
                    ColumnData::Bool(vec![true, false, true]),
                    vec![true, false, true],
                ),
            ],
        )
        .unwrap();
        let b = Table::new(
            "t",
            vec![
                Column::with_validity("i", ColumnData::Int64(vec![1, 99, 3]), vec![true, false, true]),
                Column::with_validity(
                    "f",
                    ColumnData::Float64(vec![0.5, f64::NAN, 2.5]),
                    vec![true, false, true],
                ),
                Column::with_validity(
                    "s",
                    ColumnData::Utf8(vec!["a".into(), "garbage".into(), "c".into()].into()),
                    vec![true, false, true],
                ),
                Column::with_validity("d", ColumnData::Date(vec![7, -1, 9]), vec![true, false, true]),
                Column::with_validity(
                    "b",
                    ColumnData::Bool(vec![true, true, true]),
                    vec![true, false, true],
                ),
            ],
        )
        .unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint(), "null slots leaked garbage");
        // Valid values still matter…
        let c = Table::new(
            "t",
            vec![Column::with_validity(
                "i",
                ColumnData::Int64(vec![2, 0, 3]),
                vec![true, false, true],
            )],
        )
        .unwrap();
        let d = Table::new(
            "t",
            vec![Column::with_validity(
                "i",
                ColumnData::Int64(vec![1, 0, 3]),
                vec![true, false, true],
            )],
        )
        .unwrap();
        assert_ne!(c.fingerprint(), d.fingerprint());
        // …and so does *which* rows are NULL.
        let e = Table::new(
            "t",
            vec![Column::with_validity(
                "i",
                ColumnData::Int64(vec![1, 0, 3]),
                vec![false, true, true],
            )],
        )
        .unwrap();
        assert_ne!(d.fingerprint(), e.fingerprint());
    }

    #[test]
    fn fingerprint_memo_is_invisible_and_never_inherited() {
        let hashed = sample();
        assert!(hashed.fingerprint_cache.get().is_none(), "nothing is precomputed");
        let fp = hashed.fingerprint();
        // The memo holds exactly what a fresh computation yields, and a
        // second call reads it.
        assert_eq!(hashed.fingerprint_cache.get(), Some(&fp));
        assert_eq!(fp, hashed.compute_fingerprint());
        assert_eq!(fp, hashed.fingerprint());
        assert_eq!(fp, sample().compute_fingerprint());
        // `==` and `Debug` cannot tell a hashed table from an unhashed one.
        let fresh = sample();
        assert_eq!(hashed, fresh);
        assert_eq!(format!("{hashed:?}"), format!("{fresh:?}"));
        assert!(fresh.fingerprint_cache.get().is_none());
        // A clone holds the same rows, so it carries the memo.
        assert_eq!(hashed.clone().fingerprint_cache.get(), Some(&fp));
        // Every table cut from a hashed one starts unmemoised and hashes
        // its own rows — an identity cut hashes equal, any other differs.
        let derived = [
            hashed.filter(&[true, false, true]),
            hashed.take(&[2, 0]),
            hashed.take_ids(&[1]),
            Table::concat("t", &[&hashed, &hashed]).unwrap(),
        ];
        for t in &derived {
            assert!(t.fingerprint_cache.get().is_none(), "{t:?}");
            assert_eq!(t.fingerprint(), t.compute_fingerprint());
            assert_ne!(t.fingerprint(), fp, "{t:?}");
        }
        let identity = hashed.take(&[0, 1, 2]);
        assert!(identity.fingerprint_cache.get().is_none());
        assert_eq!(identity.fingerprint(), fp);
    }

    #[test]
    fn concat_mixed_validity_and_empty_chunk_edges() {
        // Chunks alternating masked / unmasked / empty, spliced in order.
        let plain = Table::new(
            "t",
            vec![
                Column::new("k", ColumnData::Int64(vec![1, 2])),
                Column::new("s", ColumnData::Utf8(vec!["x".into(), "y".into()].into())),
            ],
        )
        .unwrap();
        let masked = Table::new(
            "t",
            vec![
                Column::with_validity("k", ColumnData::Int64(vec![3, 0]), vec![true, false]),
                Column::new("s", ColumnData::Utf8(vec!["z".into(), "w".into()].into())),
            ],
        )
        .unwrap();
        let empty = Table::new(
            "t",
            vec![
                Column::new("k", ColumnData::Int64(Vec::new())),
                Column::new("s", ColumnData::Utf8(Utf8Column::default())),
            ],
        )
        .unwrap();
        let whole = Table::concat("t", &[&plain, &empty, &masked, &plain]).unwrap();
        assert_eq!(whole.n_rows(), 6);
        // The spliced mask covers unmasked chunks with `true`.
        let k = whole.column_by_name("k").unwrap();
        assert!(k.validity.is_some());
        assert_eq!(
            (0..6).map(|i| k.is_valid(i)).collect::<Vec<_>>(),
            vec![true, true, true, false, true, true]
        );
        assert_eq!(whole.row(2)[0], Value::Int64(3));
        assert_eq!(whole.row(3)[0], Value::Null);
        assert_eq!(whole.row(5)[1], Value::Utf8("y".into()));
        // All-unmasked chunks keep a mask-free result.
        let unmasked = Table::concat("t", &[&plain, &plain]).unwrap();
        assert!(unmasked.columns().iter().all(|c| c.validity.is_none()));
        // Zero chunks → an empty zero-column table; empty chunks only →
        // zero rows under the shared schema.
        let none = Table::concat("e", &[]).unwrap();
        assert_eq!((none.n_rows(), none.n_columns()), (0, 0));
        let empties = Table::concat("e", &[&empty, &empty]).unwrap();
        assert_eq!((empties.n_rows(), empties.n_columns()), (0, 2));
        assert_eq!(empties.schema(), empty.schema());
    }

    /// The property every caller of [`virtual_bytes`] relies on: it is
    /// `Table::estimated_bytes` of the table its arguments describe, had
    /// that table been gathered — a (masked, NULL-bearing, possibly empty)
    /// selection, the concatenation of selected slabs, and a left-outer
    /// join side whose misses gather as empty strings.
    #[test]
    fn virtual_bytes_equal_materialise_then_measure() {
        let strs = |v: &[&str]| ColumnData::Utf8(v.iter().map(|s| s.to_string()).collect());
        let slab = |words: &[&str], valid: Vec<bool>| {
            let n = words.len();
            Table::new(
                "t",
                vec![
                    Column::new("k", ColumnData::Int64(vec![7; n])),
                    // A NULL slot keeps whatever string its buffer holds,
                    // and `take_ids` clones it: it counts.
                    Column::with_validity("s", strs(words), valid),
                    Column::new("d", ColumnData::Date(vec![1; n])),
                    Column::new("b", ColumnData::Bool(vec![true; n])),
                    Column::new("u", strs(&vec!["xyz"; n])),
                ],
            )
            .unwrap()
        };
        let a = slab(&["alpha", "", "hidden", "be"], vec![true, true, false, true]);
        let b = slab(&[], vec![]);
        let c = slab(&["gamma", "d"], vec![false, true]);

        // One table under a selection (repeats and the empty one included).
        let selected = |t: &Table, sel: &[u32]| {
            virtual_bytes(t.columns().iter(), sel.len(), |ci, _| t.utf8_bytes_sel(ci, Some(sel)))
        };
        for sel in [&[0u32, 2, 2, 3][..], &[1], &[]] {
            assert_eq!(selected(&a, sel), a.take_ids(sel).estimated_bytes());
        }
        assert_eq!(selected(&b, &[]), 0);

        // Several slabs, an empty one between them, each under its own
        // selection (`None` = every row): the concatenation of the gathers.
        let slabs: [(&Table, Option<&[u32]>); 3] = [(&a, Some(&[3, 0])), (&b, None), (&c, None)];
        let n = slabs.iter().map(|(t, s)| s.map_or(t.n_rows(), <[u32]>::len)).sum();
        let virt = virtual_bytes(a.columns().iter(), n, |ci, _| {
            slabs.iter().map(|(t, s)| t.utf8_bytes_sel(ci, *s)).sum()
        });
        let parts = [a.take_ids(&[3, 0]), b.clone(), c.clone()];
        let gathered = Table::concat("t", &parts.iter().collect::<Vec<_>>()).unwrap();
        assert_eq!(virt, gathered.estimated_bytes());

        // A left-outer join's right side: row 1 found no partner.
        let (ids, hit) = ([2u32, 0, 1, 2], [true, false, true, true]);
        let right = Table::new("r", a.columns().iter().map(|c| c.take_opt_ids(&ids, &hit)).collect());
        let virt = virtual_bytes(a.columns().iter(), ids.len(), |_, v| {
            (ids.iter().zip(&hit)).map(|(&i, &h)| if h { v[i as usize].len() } else { 0 }).sum()
        });
        assert_eq!(virt, right.unwrap().estimated_bytes());
    }

    #[test]
    fn utf8_at_borrows_without_cloning() {
        let t = sample();
        let name = t.column_by_name("name").unwrap();
        assert_eq!(name.utf8_at(1), Some(Some("bb")));
        assert_eq!(t.column_by_name("id").unwrap().utf8_at(0), None);
        let nullable = Column::with_validity(
            "s",
            ColumnData::Utf8(vec!["x".into()].into()),
            vec![false],
        );
        assert_eq!(nullable.utf8_at(0), Some(None));
    }
}
