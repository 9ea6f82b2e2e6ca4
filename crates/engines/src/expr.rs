//! Expressions over tables: a reference scalar evaluator and the compiled
//! batch evaluator the fused executor runs.
//!
//! The expression language covers what the TPC-H two-table queries need:
//! column references, literals, arithmetic, comparisons, boolean logic, an
//! `IN`-list, and `BETWEEN`-style range checks built from comparisons.
//! NULL propagates Kleene-style through comparisons and arithmetic; `AND`
//! and `OR` use three-valued logic collapsed to "NULL is not true".
//!
//! Two evaluation paths share those semantics:
//!
//! * [`Expr::eval`] / [`Expr::eval_mask`] — row-at-a-time over `Value`s;
//!   the readable reference implementation and differential oracle;
//! * [`Expr::compile`] → [`KernelPlan`] — the **kernel-plan layer**: the
//!   tree is resolved *once per operator* into a flat post-order program
//!   of register-machine steps (column loads with duplicate references
//!   deduplicated, literal broadcasts, one kernel call per node). Each
//!   batch then replays the program over typed vectors plus a validity
//!   mask — no per-row `Value` boxing, no string cloning — and the plan
//!   can be bound either to a whole [`Table`] or to a sparse slice of
//!   pre-gathered columns ([`KernelCols`]), which is how the
//!   morsel-driven executor in [`crate::fused`] evaluates expressions
//!   over deferred join output without materializing unreferenced
//!   columns.
//!
//! Every step of a plan is one kernel function (`arith_batch`,
//! `cmp_batch`, `kleene_batch`, …). A filter binds its plan
//! to a slab ([`KernelPlan::bind_filter`]); a predicate that can raise
//! nothing there becomes a **selection program** instead: a tree that maps
//! an input selection to the rows where the predicate is TRUE (and, when
//! asked, FALSE), reading `Int64`/`Date` comparisons straight from the
//! column slices and running each remaining kernel only on the rows still
//! undecided. Kernel temporaries (value vectors, validity masks, selection
//! vectors) are drawn from an [`EvalScratch`] pool that callers can carry
//! across batches, so per-morsel evaluation does not allocate on the hot
//! path.

// Kernel loops index `vals[pos]` in lockstep with operand accessors and a
// lazily-materialized validity mask; an iterator rewrite would obscure the
// parallel-array structure without changing the generated code.
#![allow(clippy::needless_range_loop)]

use crate::analyze::{family, Family};
use crate::data::{Column, ColumnData, DataType, Table, Value};
use crate::error::EngineError;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Equality.
    Eq,
    /// Inequality.
    Ne,
    /// Less-than.
    Lt,
    /// Less-or-equal.
    Le,
    /// Greater-than.
    Gt,
    /// Greater-or-equal.
    Ge,
    /// Logical AND.
    And,
    /// Logical OR.
    Or,
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a column by position.
    Col(usize),
    /// A literal value.
    Lit(Value),
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        left: Box<Expr>,
        /// Right operand.
        right: Box<Expr>,
    },
    /// Logical negation.
    Not(Box<Expr>),
    /// Membership in a literal list (`col IN (a, b, c)`).
    InList {
        /// The probed expression.
        expr: Box<Expr>,
        /// The candidate values.
        list: Vec<Value>,
    },
    /// True when the operand is NULL.
    IsNull(Box<Expr>),
    /// Substring containment — SQL `expr LIKE '%needle%'`.
    Contains {
        /// The probed string expression.
        expr: Box<Expr>,
        /// The literal substring.
        needle: String,
    },
}

#[allow(clippy::should_implement_trait)] // builder API mirrors SQL, not std::ops
impl Expr {
    /// Column reference.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Lit(Value::Int64(v))
    }

    /// Float literal.
    pub fn float(v: f64) -> Expr {
        Expr::Lit(Value::Float64(v))
    }

    /// String literal.
    pub fn str(v: &str) -> Expr {
        Expr::Lit(Value::Utf8(v.to_string()))
    }

    /// Date literal (days since epoch).
    pub fn date(days: i32) -> Expr {
        Expr::Lit(Value::Date(days))
    }

    fn bin(op: BinOp, left: Expr, right: Expr) -> Expr {
        Expr::Bin {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `self + rhs`.
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Add, self, rhs)
    }
    /// `self - rhs`.
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Sub, self, rhs)
    }
    /// `self * rhs`.
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Mul, self, rhs)
    }
    /// `self / rhs`.
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Div, self, rhs)
    }
    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Eq, self, rhs)
    }
    /// `self <> rhs`.
    pub fn ne(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ne, self, rhs)
    }
    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Lt, self, rhs)
    }
    /// `self <= rhs`.
    pub fn le(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Le, self, rhs)
    }
    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Gt, self, rhs)
    }
    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Ge, self, rhs)
    }
    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::And, self, rhs)
    }
    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::bin(BinOp::Or, self, rhs)
    }
    /// `NOT self`.
    pub fn negate(self) -> Expr {
        Expr::Not(Box::new(self))
    }
    /// `self IN (list)`.
    pub fn in_list(self, list: Vec<Value>) -> Expr {
        Expr::InList {
            expr: Box::new(self),
            list,
        }
    }
    /// `self IS NULL`.
    pub fn is_null(self) -> Expr {
        Expr::IsNull(Box::new(self))
    }
    /// `self LIKE '%needle%'`.
    pub fn contains(self, needle: &str) -> Expr {
        Expr::Contains {
            expr: Box::new(self),
            needle: needle.to_string(),
        }
    }

    /// A borrowing view of a string-valued leaf: `Some(Some(s))` for a
    /// valid string, `Some(None)` for a NULL row of a Utf8 column, `None`
    /// when this expression is not a string leaf (and must go through the
    /// generic [`Expr::eval`] path).
    fn str_leaf<'a>(
        &'a self,
        table: &'a Table,
        row: usize,
    ) -> Result<Option<Option<&'a str>>, EngineError> {
        Ok(match self {
            Expr::Col(i) => table.column(*i)?.utf8_at(row),
            Expr::Lit(Value::Utf8(s)) => Some(Some(s.as_str())),
            _ => None,
        })
    }

    /// Evaluates the expression at row `row` of `table`.
    ///
    /// This is the reference scalar path, kept for goldens, property tests
    /// and as the differential oracle for the compiled batch evaluator
    /// ([`KernelPlan::eval`]). String comparisons, `IN` lists and
    /// `CONTAINS` borrow values straight out of Utf8 columns instead of
    /// cloning them.
    pub fn eval(&self, table: &Table, row: usize) -> Result<Value, EngineError> {
        match self {
            Expr::Col(i) => Ok(table.column(*i)?.value(row)),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Not(e) => match e.eval(table, row)? {
                Value::Bool(b) => Ok(Value::Bool(!b)),
                Value::Null => Ok(Value::Null),
                other => Err(EngineError::TypeMismatch {
                    context: format!("NOT on {other:?}"),
                }),
            },
            Expr::IsNull(e) => Ok(Value::Bool(matches!(e.eval(table, row)?, Value::Null))),
            Expr::Contains { expr, needle } => {
                // Borrowing fast path: no String clone for column probes.
                if let Some(sv) = expr.str_leaf(table, row)? {
                    return Ok(match sv {
                        Some(s) => Value::Bool(s.contains(needle.as_str())),
                        None => Value::Null,
                    });
                }
                match expr.eval(table, row)? {
                    Value::Utf8(s) => Ok(Value::Bool(s.contains(needle.as_str()))),
                    Value::Null => Ok(Value::Null),
                    other => Err(EngineError::TypeMismatch {
                        context: format!("CONTAINS on {other:?}"),
                    }),
                }
            }
            Expr::InList { expr, list } => {
                // Borrowing fast path for string probes: only Utf8
                // candidates can equal a string (values_equal semantics).
                if let Some(sv) = expr.str_leaf(table, row)? {
                    return Ok(match sv {
                        None => Value::Null,
                        Some(s) => Value::Bool(
                            list.iter()
                                .any(|cand| matches!(cand, Value::Utf8(c) if c == s)),
                        ),
                    });
                }
                let v = expr.eval(table, row)?;
                if matches!(v, Value::Null) {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(list.iter().any(|cand| values_equal(&v, cand))))
            }
            Expr::Bin { op, left, right } => {
                // Borrowing fast path for string comparisons: compare
                // `&str` straight out of the columns instead of cloning
                // both sides into `Value`s.
                if cmp_op(*op) {
                    if let (Some(l), Some(r)) = (
                        left.str_leaf(table, row)?,
                        right.str_leaf(table, row)?,
                    ) {
                        return Ok(match (l, r) {
                            (Some(a), Some(b)) => Value::Bool(ord_matches(*op, a.cmp(b))),
                            _ => Value::Null,
                        });
                    }
                }
                let l = left.eval(table, row)?;
                let r = right.eval(table, row)?;
                eval_bin(*op, l, r)
            }
        }
    }

    /// Evaluates the expression as a predicate over every row, producing a
    /// selection mask (NULL counts as not-selected, as in SQL `WHERE`).
    pub fn eval_mask(&self, table: &Table) -> Result<Vec<bool>, EngineError> {
        (0..table.n_rows())
            .map(|row| match self.eval(table, row)? {
                Value::Bool(b) => Ok(b),
                Value::Null => Ok(false),
                other => Err(EngineError::TypeMismatch {
                    context: format!("predicate produced {other:?}"),
                }),
            })
            .collect()
    }
}

fn values_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Utf8(x), Value::Utf8(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => match (a.as_f64(), b.as_f64()) {
            (Some(x), Some(y)) => x == y,
            _ => false,
        },
    }
}

fn eval_bin(op: BinOp, l: Value, r: Value) -> Result<Value, EngineError> {
    use BinOp::*;
    // Three-valued logic for AND/OR must look at non-NULL operands first.
    if matches!(op, And | Or) {
        let lb = as_bool_opt(&l)?;
        let rb = as_bool_opt(&r)?;
        return Ok(match (op, lb, rb) {
            (And, Some(false), _) | (And, _, Some(false)) => Value::Bool(false),
            (And, Some(true), Some(true)) => Value::Bool(true),
            (Or, Some(true), _) | (Or, _, Some(true)) => Value::Bool(true),
            (Or, Some(false), Some(false)) => Value::Bool(false),
            _ => Value::Null,
        });
    }
    if matches!(l, Value::Null) || matches!(r, Value::Null) {
        return Ok(Value::Null);
    }
    match op {
        Add | Sub | Mul | Div => {
            let (x, y) = numeric_pair(&l, &r, op)?;
            let out = match op {
                Add => x + y,
                Sub => x - y,
                Mul => x * y,
                Div => {
                    if y == 0.0 {
                        return Err(EngineError::DivisionByZero);
                    }
                    x / y
                }
                // LINT: panic-ok — this arm is only entered for the four
                // arithmetic operators matched by the enclosing branch.
                _ => unreachable!("arith op"),
            };
            // Integer arithmetic stays integral except division.
            match (&l, &r, op) {
                (Value::Int64(_), Value::Int64(_), Add | Sub | Mul) => {
                    Ok(Value::Int64(out as i64))
                }
                _ => Ok(Value::Float64(out)),
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            let ord = compare_values(&l, &r)?;
            Ok(Value::Bool(ord_matches(op, ord)))
        }
        // LINT: panic-ok — eval_bin dispatches And/Or to the short-circuit
        // path before calling this numeric/comparison tail.
        And | Or => unreachable!("handled above"),
    }
}

/// True for the six comparison operators.
fn cmp_op(op: BinOp) -> bool {
    use BinOp::*;
    matches!(op, Eq | Ne | Lt | Le | Gt | Ge)
}

/// Maps a comparison operator over an ordering.
fn ord_matches(op: BinOp, ord: std::cmp::Ordering) -> bool {
    use std::cmp::Ordering;
    match op {
        BinOp::Eq => ord == Ordering::Equal,
        BinOp::Ne => ord != Ordering::Equal,
        BinOp::Lt => ord == Ordering::Less,
        BinOp::Le => ord != Ordering::Greater,
        BinOp::Gt => ord == Ordering::Greater,
        BinOp::Ge => ord != Ordering::Less,
        // LINT: panic-ok — every caller guards with cmp_op(op).
        _ => unreachable!("not a comparison"),
    }
}

fn as_bool_opt(v: &Value) -> Result<Option<bool>, EngineError> {
    match v {
        Value::Bool(b) => Ok(Some(*b)),
        Value::Null => Ok(None),
        other => Err(EngineError::TypeMismatch {
            context: format!("boolean operand expected, got {other:?}"),
        }),
    }
}

fn numeric_pair(l: &Value, r: &Value, op: BinOp) -> Result<(f64, f64), EngineError> {
    match (l.as_f64(), r.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y)),
        _ => Err(EngineError::TypeMismatch {
            context: format!("{op:?} on {l:?} and {r:?}"),
        }),
    }
}

/// The error of ordering a NaN — built only when one turns up: the scalar
/// and the batch comparison both call this per *failing* row, never per
/// compared row.
#[cold]
fn nan_comparison() -> EngineError {
    EngineError::TypeMismatch {
        context: "NaN comparison".to_string(),
    }
}

fn compare_values(l: &Value, r: &Value) -> Result<std::cmp::Ordering, EngineError> {
    match (l, r) {
        (Value::Utf8(a), Value::Utf8(b)) => Ok(a.cmp(b)),
        (Value::Bool(a), Value::Bool(b)) => Ok(a.cmp(b)),
        _ => match (l.as_f64(), r.as_f64()) {
            (Some(a), Some(b)) => a.partial_cmp(&b).ok_or_else(nan_comparison),
            _ => Err(EngineError::TypeMismatch {
                context: format!("compare {l:?} with {r:?}"),
            }),
        },
    }
}

// ============================ batch kernels ============================
//
// A kernel computes one expression node over a batch of rows under a
// selection view, producing typed result vectors plus a validity mask.
// There is no per-row `Value` boxing and strings are never cloned: column
// strings are referenced in place and literal strings are borrowed from the
// expression tree. Semantics (Kleene NULL logic, numeric widening, error
// conditions) match `Expr::eval` exactly — the differential property tests
// in `tests/fused_differential.rs` enforce this.

/// Numeric type tag of a batch vector. Mirrors `Value`'s numeric variants:
/// arithmetic on two `Int` operands yields `Int` (except division), every
/// other combination widens to `Float`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumTy {
    /// Backed by `Value::Int64`.
    Int,
    /// Backed by `Value::Float64`.
    Float,
    /// Backed by `Value::Date`.
    Date,
}

/// Result of evaluating an expression over a batch of rows.
///
/// Vector variants hold one slot per *selected* row (position-indexed);
/// `Str` references the column storage directly and is indexed through the
/// selection vector by **original** row id. Constant variants stand for
/// the same value in every row and keep literal-heavy expressions
/// allocation-free.
#[derive(Debug)]
pub enum BatchVals<'a> {
    /// Numeric values widened to `f64` with a type tag; `valid[i] == false`
    /// marks NULL slots (whose value is unspecified).
    Num {
        /// One value per selected row.
        vals: Vec<f64>,
        /// `None` = all valid.
        valid: Option<Vec<bool>>,
        /// The logical numeric type.
        ty: NumTy,
    },
    /// Boolean values.
    Bools {
        /// One value per selected row.
        vals: Vec<bool>,
        /// `None` = all valid.
        valid: Option<Vec<bool>>,
    },
    /// A string column referenced in place, indexed by original row id.
    Str {
        /// The column's backing store.
        vals: &'a [String],
        /// The column's validity mask (by original row id).
        valid: Option<&'a [bool]>,
    },
    /// A numeric literal, widened to f64 like every batch numeric (exact
    /// only up to 2^53 for `Int`; projection materializes literals and
    /// column references from their typed source instead, so the lossy
    /// widening is confined to arithmetic/comparisons — where the scalar
    /// path widens identically).
    ConstNum {
        /// The value.
        val: f64,
        /// Its logical type.
        ty: NumTy,
    },
    /// A boolean literal.
    ConstBool(bool),
    /// A string literal, borrowed from the expression.
    ConstStr(&'a str),
    /// NULL in every row.
    ConstNull,
}

/// A selection view: resolves batch positions to original row ids.
#[derive(Clone, Copy)]
pub struct SelView<'s> {
    sel: Option<&'s [u32]>,
    base: usize,
    n: usize,
}

impl<'s> SelView<'s> {
    /// A view over `n` rows restricted to `sel` (`None` = all `n` rows).
    pub fn over(n: usize, sel: Option<&'s [u32]>) -> Self {
        SelView {
            sel,
            base: 0,
            n: sel.map_or(n, |s| s.len()),
        }
    }

    /// A morsel view over the contiguous row range `base..base + n` (no
    /// selection vector needed for a dense range).
    pub fn range(base: usize, n: usize) -> Self {
        SelView { sel: None, base, n }
    }

    /// Number of selected rows.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when no rows are selected.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The contiguous source row range this view covers, when it has no
    /// selection vector (a dense morsel or whole-table view). Lets
    /// gathers degrade to slice copies.
    #[inline]
    pub fn dense_range(&self) -> Option<std::ops::Range<usize>> {
        match self.sel {
            Some(_) => None,
            None => Some(self.base..self.base + self.n),
        }
    }

    /// Original row id of batch position `pos`.
    #[inline]
    pub fn row(&self, pos: usize) -> usize {
        match self.sel {
            Some(s) => s[pos] as usize,
            None => self.base + pos,
        }
    }
}

/// A reusable pool of kernel temporaries: value vectors, validity masks
/// and selection vectors.
///
/// Every batch kernel draws its output buffers from one of these and the
/// plan executor returns consumed intermediates to it, so an
/// operator that carries a scratch across batches (the morsel executor
/// evaluates thousands of cache-resident batches per query) allocates
/// only on the first few morsels. A selection vector a filter writes grows
/// to a whole morsel the first time it grows at all, so whichever of them
/// a later morsel draws already has room. A `Default`-constructed
/// scratch is always valid; pooling is purely an optimization and never
/// changes results.
#[derive(Default)]
pub struct EvalScratch {
    f64s: Vec<Vec<f64>>,
    bools: Vec<Vec<bool>>,
    sels: Vec<Vec<u32>>,
}

/// Upper bound on pooled vectors per family — enough for the deepest
/// expression trees in play while bounding idle memory.
const SCRATCH_POOL_CAP: usize = 16;

impl EvalScratch {
    /// An empty pool.
    pub fn new() -> Self {
        EvalScratch::default()
    }

    fn take_f64(&mut self, n: usize) -> Vec<f64> {
        let mut v = self.f64s.pop().unwrap_or_default();
        v.clear();
        v.resize(n, 0.0);
        v
    }

    fn take_bools(&mut self, n: usize, fill: bool) -> Vec<bool> {
        let mut v = self.bools.pop().unwrap_or_default();
        v.clear();
        v.resize(n, fill);
        v
    }

    /// A cleared selection vector from the pool.
    pub fn take_sel(&mut self) -> Vec<u32> {
        let mut v = self.sels.pop().unwrap_or_default();
        v.clear();
        v
    }

    /// Returns a selection vector to the pool.
    pub fn put_sel(&mut self, v: Vec<u32>) {
        if self.sels.len() < SCRATCH_POOL_CAP {
            self.sels.push(v);
        }
    }

    fn put_f64(&mut self, v: Vec<f64>) {
        if self.f64s.len() < SCRATCH_POOL_CAP {
            self.f64s.push(v);
        }
    }

    fn put_bools(&mut self, v: Vec<bool>) {
        if self.bools.len() < SCRATCH_POOL_CAP {
            self.bools.push(v);
        }
    }

    /// Returns a consumed batch result's buffers to the pool.
    pub fn recycle(&mut self, bv: BatchVals<'_>) {
        match bv {
            BatchVals::Num { vals, valid, .. } => {
                self.put_f64(vals);
                if let Some(v) = valid {
                    self.put_bools(v);
                }
            }
            BatchVals::Bools { vals, valid } => {
                self.put_bools(vals);
                if let Some(v) = valid {
                    self.put_bools(v);
                }
            }
            _ => {}
        }
    }
}

/// Lazily materializes an all-true validity mask from the pool, exactly
/// like the `get_or_insert_with(|| vec![true; n])` it replaces.
#[inline]
fn lazy_mask<'m>(
    valid: &'m mut Option<Vec<bool>>,
    scratch: &mut EvalScratch,
    n: usize,
) -> &'m mut Vec<bool> {
    if valid.is_none() {
        *valid = Some(scratch.take_bools(n, true));
    }
    valid.as_mut().expect("just set")
}

// Internal operand views used by the kernels below.

enum NumSide<'v> {
    Vec(&'v [f64], Option<&'v [bool]>),
    Const(f64),
}

impl<'v> NumSide<'v> {
    #[inline]
    fn at(&self, pos: usize) -> Option<f64> {
        match self {
            NumSide::Vec(vals, valid) => match valid {
                Some(v) if !v[pos] => None,
                _ => Some(vals[pos]),
            },
            NumSide::Const(c) => Some(*c),
        }
    }

    /// The side as plain values when no slot of it is NULL.
    #[inline]
    fn plain(&self) -> Option<PlainNum<'v>> {
        match self {
            NumSide::Vec(vals, None) => Some(PlainNum::Slice(vals)),
            NumSide::Vec(_, Some(_)) => None,
            NumSide::Const(c) => Some(PlainNum::Const(*c)),
        }
    }
}

/// A numeric operand without a validity mask.
#[derive(Clone, Copy)]
enum PlainNum<'v> {
    Slice(&'v [f64]),
    Const(f64),
}

/// `out[pos] = l[pos] op r[pos]` over operands free of NULLs: the operator
/// is resolved once, outside the loop, and each of the loops below is a
/// straight pass over slices. A NaN on either side of a compared row is the
/// same error the generic loop raises (an empty batch compares nothing,
/// hence raises nothing).
fn cmp_plain(
    op: BinOp,
    l: PlainNum<'_>,
    r: PlainNum<'_>,
    out: &mut [bool],
) -> Result<(), EngineError> {
    #[inline(always)]
    fn fill(
        out: &mut [bool],
        l: PlainNum<'_>,
        r: PlainNum<'_>,
        f: impl Fn(f64, f64) -> bool,
    ) -> bool {
        let mut nan = false;
        match (l, r) {
            (PlainNum::Slice(a), PlainNum::Slice(b)) => {
                for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
                    nan |= x.is_nan() | y.is_nan();
                    *o = f(x, y);
                }
            }
            (PlainNum::Slice(a), PlainNum::Const(y)) => {
                for (o, &x) in out.iter_mut().zip(a) {
                    nan |= x.is_nan();
                    *o = f(x, y);
                }
                nan |= y.is_nan() && !out.is_empty();
            }
            (PlainNum::Const(x), PlainNum::Slice(b)) => {
                for (o, &y) in out.iter_mut().zip(b) {
                    nan |= y.is_nan();
                    *o = f(x, y);
                }
                nan |= x.is_nan() && !out.is_empty();
            }
            (PlainNum::Const(x), PlainNum::Const(y)) => {
                out.fill(f(x, y));
                nan = (x.is_nan() || y.is_nan()) && !out.is_empty();
            }
        }
        nan
    }
    let nan = match op {
        BinOp::Eq => fill(out, l, r, |x, y| x == y),
        BinOp::Ne => fill(out, l, r, |x, y| x != y),
        BinOp::Lt => fill(out, l, r, |x, y| x < y),
        BinOp::Le => fill(out, l, r, |x, y| x <= y),
        BinOp::Gt => fill(out, l, r, |x, y| x > y),
        BinOp::Ge => fill(out, l, r, |x, y| x >= y),
        // LINT: panic-ok — cmp_batch is only called with the six
        // comparison operators (bin_batch's dispatch).
        _ => unreachable!("not a comparison"),
    };
    if nan {
        return Err(nan_comparison());
    }
    Ok(())
}

enum BoolSide<'v> {
    Vec(&'v [bool], Option<&'v [bool]>),
    Const(bool),
}

impl BoolSide<'_> {
    #[inline]
    fn at(&self, pos: usize) -> Option<bool> {
        match self {
            BoolSide::Vec(vals, valid) => match valid {
                Some(v) if !v[pos] => None,
                _ => Some(vals[pos]),
            },
            BoolSide::Const(c) => Some(*c),
        }
    }
}

enum StrSide<'v> {
    Col(&'v [String], Option<&'v [bool]>),
    Const(&'v str),
}

impl StrSide<'_> {
    #[inline]
    fn at(&self, sv: &SelView<'_>, pos: usize) -> Option<&str> {
        match self {
            StrSide::Col(vals, valid) => {
                let row = sv.row(pos);
                match valid {
                    Some(v) if !v[row] => None,
                    _ => Some(vals[row].as_str()),
                }
            }
            StrSide::Const(c) => Some(c),
        }
    }
}

/// Type-erased operand: which family of comparison applies.
enum Side<'v> {
    N(NumSide<'v>, NumTy),
    B(BoolSide<'v>),
    S(StrSide<'v>),
    Null,
}

fn classify<'v>(bv: &'v BatchVals<'_>) -> Side<'v> {
    match bv {
        BatchVals::Num { vals, valid, ty } => Side::N(NumSide::Vec(vals, valid.as_deref()), *ty),
        BatchVals::ConstNum { val, ty } => Side::N(NumSide::Const(*val), *ty),
        BatchVals::Bools { vals, valid } => Side::B(BoolSide::Vec(vals, valid.as_deref())),
        BatchVals::ConstBool(b) => Side::B(BoolSide::Const(*b)),
        BatchVals::Str { vals, valid } => Side::S(StrSide::Col(vals, *valid)),
        BatchVals::ConstStr(s) => Side::S(StrSide::Const(s)),
        BatchVals::ConstNull => Side::Null,
    }
}

/// Is any slot of this side non-NULL? (Constants are non-NULL everywhere,
/// so any non-empty batch answers true.)
fn side_any_valid(side: &Side<'_>, sv: &SelView<'_>) -> bool {
    if sv.is_empty() {
        return false;
    }
    match side {
        Side::Null => false,
        Side::N(NumSide::Const(_), _) | Side::B(BoolSide::Const(_)) | Side::S(StrSide::Const(_)) => {
            true
        }
        Side::N(NumSide::Vec(_, valid), _) | Side::B(BoolSide::Vec(_, valid)) => match valid {
            None => true,
            Some(v) => v.iter().any(|&ok| ok),
        },
        Side::S(StrSide::Col(_, valid)) => match valid {
            None => true,
            Some(v) => (0..sv.len()).any(|pos| v[sv.row(pos)]),
        },
    }
}

/// A numeric view of a side, or `Null` when every slot is NULL; errors when
/// a non-NULL boolean/string slot would make scalar evaluation fail.
enum NumOperand<'v> {
    Op(NumSide<'v>, NumTy),
    Null,
}

fn as_num_operand<'v>(
    side: Side<'v>,
    sv: &SelView<'_>,
    op: BinOp,
) -> Result<NumOperand<'v>, EngineError> {
    match side {
        Side::N(ns, ty) => Ok(NumOperand::Op(ns, ty)),
        Side::Null => Ok(NumOperand::Null),
        other => {
            if side_any_valid(&other, sv) {
                Err(EngineError::TypeMismatch {
                    context: format!("{op:?} on non-numeric operand"),
                })
            } else {
                Ok(NumOperand::Null)
            }
        }
    }
}

/// A Kleene-boolean view of a side, or `Null` when every slot is NULL.
enum BoolOperand<'v> {
    Op(BoolSide<'v>),
    Null,
}

fn as_bool_operand<'v>(side: Side<'v>, sv: &SelView<'_>) -> Result<BoolOperand<'v>, EngineError> {
    match side {
        Side::B(bs) => Ok(BoolOperand::Op(bs)),
        Side::Null => Ok(BoolOperand::Null),
        other => {
            if side_any_valid(&other, sv) {
                Err(EngineError::TypeMismatch {
                    context: "boolean operand expected".to_string(),
                })
            } else {
                Ok(BoolOperand::Null)
            }
        }
    }
}

fn arith_batch(
    op: BinOp,
    l: NumOperand<'_>,
    r: NumOperand<'_>,
    n: usize,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    use BinOp::*;
    // Zero selected rows: scalar evaluation never runs, so no value is
    // produced and no error (e.g. a constant division by zero) may be
    // raised. ConstNull is indistinguishable from any other empty batch.
    if n == 0 {
        return Ok(BatchVals::ConstNull);
    }
    let (NumOperand::Op(ls, lty), NumOperand::Op(rs, rty)) = (l, r) else {
        return Ok(BatchVals::ConstNull);
    };
    let out_ty = if lty == NumTy::Int && rty == NumTy::Int && op != Div {
        NumTy::Int
    } else {
        NumTy::Float
    };
    // Constant folding: identical per-row result, computed once.
    if let (NumSide::Const(x), NumSide::Const(y)) = (&ls, &rs) {
        if op == Div && *y == 0.0 {
            return Err(EngineError::DivisionByZero);
        }
        let val = match op {
            Add => x + y,
            Sub => x - y,
            Mul => x * y,
            Div => x / y,
            // LINT: panic-ok — arith_batch is only called with Add/Sub/Mul/Div.
            _ => unreachable!("arith op"),
        };
        return Ok(BatchVals::ConstNum { val, ty: out_ty });
    }
    let mut vals = scratch.take_f64(n);
    let mut valid: Option<Vec<bool>> = None;
    for pos in 0..n {
        match (ls.at(pos), rs.at(pos)) {
            (Some(x), Some(y)) => {
                vals[pos] = match op {
                    Add => x + y,
                    Sub => x - y,
                    Mul => x * y,
                    Div => {
                        if y == 0.0 {
                            return Err(EngineError::DivisionByZero);
                        }
                        x / y
                    }
                    // LINT: panic-ok — arith_batch is only called with
                    // Add/Sub/Mul/Div.
                    _ => unreachable!("arith op"),
                };
            }
            _ => lazy_mask(&mut valid, scratch, n)[pos] = false,
        }
    }
    Ok(BatchVals::Num {
        vals,
        valid,
        ty: out_ty,
    })
}

fn cmp_batch(
    op: BinOp,
    l: Side<'_>,
    r: Side<'_>,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    let n = sv.len();
    if matches!(l, Side::Null) || matches!(r, Side::Null) {
        return Ok(BatchVals::ConstNull);
    }
    // Mixed families: scalar comparison fails on the first row where
    // both sides are non-NULL; rows with a NULL side yield NULL.
    let same_family = matches!(
        (&l, &r),
        (Side::N(..), Side::N(..)) | (Side::S(_), Side::S(_)) | (Side::B(_), Side::B(_))
    );
    if !same_family {
        if side_any_both_valid(&l, &r, sv) {
            return Err(EngineError::TypeMismatch {
                context: format!("{op:?} between incompatible types"),
            });
        }
        return Ok(BatchVals::ConstNull);
    }
    let mut vals = scratch.take_bools(n, false);
    let mut valid: Option<Vec<bool>> = None;
    match (&l, &r) {
        (Side::N(ls, _), Side::N(rs, _)) => match (ls.plain(), rs.plain()) {
            // Neither side carries a NULL: compare plain slices.
            (Some(l), Some(r)) => cmp_plain(op, l, r, &mut vals)?,
            _ => {
                for pos in 0..n {
                    match (ls.at(pos), rs.at(pos)) {
                        (Some(x), Some(y)) => {
                            let ord = x.partial_cmp(&y).ok_or_else(nan_comparison)?;
                            vals[pos] = ord_matches(op, ord);
                        }
                        _ => lazy_mask(&mut valid, scratch, n)[pos] = false,
                    }
                }
            }
        },
        (Side::S(ls), Side::S(rs)) => {
            for pos in 0..n {
                match (ls.at(sv, pos), rs.at(sv, pos)) {
                    (Some(x), Some(y)) => vals[pos] = ord_matches(op, x.cmp(y)),
                    _ => lazy_mask(&mut valid, scratch, n)[pos] = false,
                }
            }
        }
        (Side::B(ls), Side::B(rs)) => {
            for pos in 0..n {
                match (ls.at(pos), rs.at(pos)) {
                    (Some(x), Some(y)) => vals[pos] = ord_matches(op, x.cmp(&y)),
                    _ => lazy_mask(&mut valid, scratch, n)[pos] = false,
                }
            }
        }
        // LINT: panic-ok — the mixed-family arm above returns (error or
        // all-NULL) before this exhaustive same-family dispatch.
        _ => unreachable!("mixed families handled above"),
    }
    Ok(BatchVals::Bools { vals, valid })
}

/// Is there a row where both sides are non-NULL?
fn side_any_both_valid(l: &Side<'_>, r: &Side<'_>, sv: &SelView<'_>) -> bool {
    let valid_at = |s: &Side<'_>, pos: usize| -> bool {
        match s {
            Side::Null => false,
            Side::N(ns, _) => ns.at(pos).is_some(),
            Side::B(bs) => bs.at(pos).is_some(),
            Side::S(ss) => ss.at(sv, pos).is_some(),
        }
    };
    (0..sv.len()).any(|pos| valid_at(l, pos) && valid_at(r, pos))
}

fn kleene_batch(
    op: BinOp,
    l: BoolOperand<'_>,
    r: BoolOperand<'_>,
    n: usize,
    scratch: &mut EvalScratch,
) -> BatchVals<'static> {
    let at = |o: &BoolOperand<'_>, pos: usize| -> Option<bool> {
        match o {
            BoolOperand::Op(bs) => bs.at(pos),
            BoolOperand::Null => None,
        }
    };
    // Constant fast paths (both sides constant or NULL).
    let const_of = |o: &BoolOperand<'_>| -> Option<Option<bool>> {
        match o {
            BoolOperand::Op(BoolSide::Const(b)) => Some(Some(*b)),
            BoolOperand::Null => Some(None),
            _ => None,
        }
    };
    if let (Some(lb), Some(rb)) = (const_of(&l), const_of(&r)) {
        return match combine_kleene(op, lb, rb) {
            Some(b) => BatchVals::ConstBool(b),
            None => BatchVals::ConstNull,
        };
    }
    let mut vals = scratch.take_bools(n, false);
    // Neither side carries a NULL: three-valued logic is two-valued.
    if let (BoolOperand::Op(BoolSide::Vec(a, None)), BoolOperand::Op(BoolSide::Vec(b, None))) =
        (&l, &r)
    {
        let and = op == BinOp::And;
        for ((o, &x), &y) in vals.iter_mut().zip(*a).zip(*b) {
            *o = if and { x & y } else { x | y };
        }
        return BatchVals::Bools { vals, valid: None };
    }
    let mut valid: Option<Vec<bool>> = None;
    for pos in 0..n {
        match combine_kleene(op, at(&l, pos), at(&r, pos)) {
            Some(b) => vals[pos] = b,
            None => lazy_mask(&mut valid, scratch, n)[pos] = false,
        }
    }
    BatchVals::Bools { vals, valid }
}

/// Three-valued AND/OR, exactly as `eval_bin` collapses it.
fn combine_kleene(op: BinOp, l: Option<bool>, r: Option<bool>) -> Option<bool> {
    match (op, l, r) {
        (BinOp::And, Some(false), _) | (BinOp::And, _, Some(false)) => Some(false),
        (BinOp::And, Some(true), Some(true)) => Some(true),
        (BinOp::Or, Some(true), _) | (BinOp::Or, _, Some(true)) => Some(true),
        (BinOp::Or, Some(false), Some(false)) => Some(false),
        _ => None,
    }
}

/// Gathers `src` under `sv` into `out` (one slot per selected row) through
/// `conv`. The dense/selected decision is made once, outside the loop: a
/// dense view is a converting slice copy, a selected one a plain gather.
#[inline]
fn gather_into<T: Copy, U>(out: &mut [U], src: &[T], sv: &SelView<'_>, conv: impl Fn(T) -> U) {
    match sv.sel {
        None => {
            for (slot, &x) in out.iter_mut().zip(&src[sv.base..sv.base + sv.n]) {
                *slot = conv(x);
            }
        }
        Some(sel) => {
            for (slot, &row) in out.iter_mut().zip(sel) {
                *slot = conv(src[row as usize]);
            }
        }
    }
}

/// `Expr::Col` kernel: gathers one column under the selection view into a
/// typed batch vector (strings stay borrowed in place).
fn col_batch<'a>(col: &'a Column, sv: &SelView<'_>, scratch: &mut EvalScratch) -> BatchVals<'a> {
    let n = sv.len();
    let gather_valid = |scratch: &mut EvalScratch| {
        col.validity.as_ref().map(|v| {
            let mut out = scratch.take_bools(n, false);
            gather_into(&mut out, v, sv, |ok| ok);
            out
        })
    };
    match &*col.data {
        ColumnData::Int64(v) => {
            let mut vals = scratch.take_f64(n);
            gather_into(&mut vals, v, sv, |x| x as f64);
            BatchVals::Num {
                vals,
                valid: gather_valid(scratch),
                ty: NumTy::Int,
            }
        }
        ColumnData::Float64(v) => {
            let mut vals = scratch.take_f64(n);
            gather_into(&mut vals, v, sv, |x| x);
            BatchVals::Num {
                vals,
                valid: gather_valid(scratch),
                ty: NumTy::Float,
            }
        }
        ColumnData::Date(v) => {
            let mut vals = scratch.take_f64(n);
            gather_into(&mut vals, v, sv, |x| x as f64);
            BatchVals::Num {
                vals,
                valid: gather_valid(scratch),
                ty: NumTy::Date,
            }
        }
        ColumnData::Bool(v) => {
            let mut vals = scratch.take_bools(n, false);
            gather_into(&mut vals, v, sv, |b| b);
            BatchVals::Bools {
                vals,
                valid: gather_valid(scratch),
            }
        }
        ColumnData::Utf8(v) => BatchVals::Str {
            vals: v,
            valid: col.validity.as_deref(),
        },
    }
}

/// `Expr::Lit` kernel: broadcasts a literal as a constant batch.
fn lit_batch(v: &Value) -> BatchVals<'_> {
    match v {
        Value::Int64(x) => BatchVals::ConstNum {
            val: *x as f64,
            ty: NumTy::Int,
        },
        Value::Float64(x) => BatchVals::ConstNum {
            val: *x,
            ty: NumTy::Float,
        },
        Value::Date(d) => BatchVals::ConstNum {
            val: *d as f64,
            ty: NumTy::Date,
        },
        Value::Bool(b) => BatchVals::ConstBool(*b),
        Value::Utf8(s) => BatchVals::ConstStr(s.as_str()),
        Value::Null => BatchVals::ConstNull,
    }
}

/// `Expr::Not` kernel.
fn not_batch(
    inner: &BatchVals<'_>,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    let n = sv.len();
    match as_bool_operand(classify(inner), sv)? {
        BoolOperand::Null => Ok(BatchVals::ConstNull),
        BoolOperand::Op(BoolSide::Const(b)) => Ok(BatchVals::ConstBool(!b)),
        BoolOperand::Op(bs) => {
            let mut vals = scratch.take_bools(n, false);
            let mut valid: Option<Vec<bool>> = None;
            for pos in 0..n {
                match bs.at(pos) {
                    Some(b) => vals[pos] = !b,
                    None => lazy_mask(&mut valid, scratch, n)[pos] = false,
                }
            }
            Ok(BatchVals::Bools { vals, valid })
        }
    }
}

/// `Expr::IsNull` kernel.
fn is_null_batch(
    inner: &BatchVals<'_>,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> BatchVals<'static> {
    let n = sv.len();
    match classify(inner) {
        Side::Null => BatchVals::ConstBool(true),
        Side::N(NumSide::Const(_), _)
        | Side::B(BoolSide::Const(_))
        | Side::S(StrSide::Const(_)) => BatchVals::ConstBool(false),
        Side::N(NumSide::Vec(_, valid), _) | Side::B(BoolSide::Vec(_, valid)) => match valid {
            None => BatchVals::ConstBool(false),
            Some(v) => {
                let mut vals = scratch.take_bools(n, false);
                for (pos, slot) in vals.iter_mut().enumerate() {
                    *slot = !v[pos];
                }
                BatchVals::Bools { vals, valid: None }
            }
        },
        Side::S(StrSide::Col(_, valid)) => match valid {
            None => BatchVals::ConstBool(false),
            Some(v) => {
                let mut vals = scratch.take_bools(n, false);
                for (pos, slot) in vals.iter_mut().enumerate() {
                    *slot = !v[sv.row(pos)];
                }
                BatchVals::Bools { vals, valid: None }
            }
        },
    }
}

/// `Expr::Contains` kernel.
fn contains_batch(
    inner: &BatchVals<'_>,
    needle: &str,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    let n = sv.len();
    match classify(inner) {
        Side::Null => Ok(BatchVals::ConstNull),
        Side::S(StrSide::Const(s)) => Ok(BatchVals::ConstBool(s.contains(needle))),
        Side::S(ss) => {
            let mut vals = scratch.take_bools(n, false);
            let mut valid: Option<Vec<bool>> = None;
            for pos in 0..n {
                match ss.at(sv, pos) {
                    Some(s) => vals[pos] = s.contains(needle),
                    None => lazy_mask(&mut valid, scratch, n)[pos] = false,
                }
            }
            Ok(BatchVals::Bools { vals, valid })
        }
        other => {
            if side_any_valid(&other, sv) {
                Err(EngineError::TypeMismatch {
                    context: "CONTAINS on non-string".to_string(),
                })
            } else {
                Ok(BatchVals::ConstNull)
            }
        }
    }
}

/// An `IN`-list's candidates, split once by the family of probe they can
/// equal (`values_equal` semantics: a numeric probe only ever equals a
/// numeric candidate, a boolean a boolean, a string a string). A compiled
/// plan holds one per `IN` node, so no morsel rebuilds the lists.
struct InCands<'e> {
    nums: Vec<f64>,
    bools: Vec<bool>,
    strs: Vec<&'e str>,
}

impl<'e> InCands<'e> {
    fn new(list: &'e [Value]) -> Self {
        let mut cands = InCands {
            nums: Vec::new(),
            bools: Vec::new(),
            strs: Vec::new(),
        };
        for v in list {
            match v {
                Value::Utf8(s) => cands.strs.push(s),
                Value::Bool(b) => cands.bools.push(*b),
                Value::Null => {}
                num => cands.nums.extend(num.as_f64()),
            }
        }
        cands
    }
}

/// `Expr::InList` kernel.
fn in_list_batch(
    inner: &BatchVals<'_>,
    cands: &InCands<'_>,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    let n = sv.len();
    match classify(inner) {
        Side::Null => Ok(BatchVals::ConstNull),
        Side::N(ns, _) => {
            in_list_kernel(n, scratch, |pos| ns.at(pos), |x| cands.nums.contains(&x))
        }
        Side::B(bs) => {
            in_list_kernel(n, scratch, |pos| bs.at(pos), |x| cands.bools.contains(&x))
        }
        Side::S(ss) => {
            in_list_kernel(n, scratch, |pos| ss.at(sv, pos), |x| cands.strs.contains(&x))
        }
    }
}

/// `Expr::Bin` kernel: dispatches arithmetic, comparison or Kleene logic
/// over two already-evaluated operands.
fn bin_batch(
    op: BinOp,
    l: &BatchVals<'_>,
    r: &BatchVals<'_>,
    sv: &SelView<'_>,
    scratch: &mut EvalScratch,
) -> Result<BatchVals<'static>, EngineError> {
    use BinOp::*;
    let n = sv.len();
    match op {
        Add | Sub | Mul | Div => {
            let lo = as_num_operand(classify(l), sv, op)?;
            let ro = as_num_operand(classify(r), sv, op)?;
            arith_batch(op, lo, ro, n, scratch)
        }
        Eq | Ne | Lt | Le | Gt | Ge => cmp_batch(op, classify(l), classify(r), sv, scratch),
        And | Or => {
            let lo = as_bool_operand(classify(l), sv)?;
            let ro = as_bool_operand(classify(r), sv)?;
            Ok(kleene_batch(op, lo, ro, n, scratch))
        }
    }
}

/// Shared `IN`-list loop: `get` yields the probe value per position, `hit`
/// tests membership.
fn in_list_kernel<T>(
    n: usize,
    scratch: &mut EvalScratch,
    get: impl Fn(usize) -> Option<T>,
    hit: impl Fn(T) -> bool,
) -> Result<BatchVals<'static>, EngineError> {
    let mut vals = scratch.take_bools(n, false);
    let mut valid: Option<Vec<bool>> = None;
    for pos in 0..n {
        match get(pos) {
            Some(x) => vals[pos] = hit(x),
            None => lazy_mask(&mut valid, scratch, n)[pos] = false,
        }
    }
    Ok(BatchVals::Bools { vals, valid })
}

// ========================== compiled kernel plans ===========================
//
// A `KernelPlan` is the pre-compiled form of one `Expr`: a flat post-order
// program over virtual registers, resolved once per operator instead of
// re-walking the boxed tree for every batch. Compilation also deduplicates
// column loads (an expression referencing `Col(3)` four times gathers it
// once per batch) and records the distinct referenced columns, which lets
// the fused executor bind a plan to a *sparse* set of gathered columns —
// the basis of selection-aware deferred join gathering.
//
// Steps run in post-order, each one kernel call, so an expression raises
// an error on a batch exactly when `Expr::eval` raises one on a row of it
// (the kernels' contract; `tests/fused_differential.rs` checks it).

/// One step of a compiled plan. `dst`/`src` are register indices.
enum KStep<'e> {
    /// Gather a column into a register.
    Col { col: usize, dst: usize },
    /// Broadcast a literal.
    Lit { v: &'e Value, dst: usize },
    /// Binary kernel.
    Bin {
        op: BinOp,
        l: usize,
        r: usize,
        dst: usize,
    },
    /// Logical negation.
    Not { src: usize, dst: usize },
    /// NULL test.
    IsNull { src: usize, dst: usize },
    /// Substring containment.
    Contains {
        src: usize,
        needle: &'e str,
        dst: usize,
    },
    /// Literal-list membership.
    InList {
        src: usize,
        cands: InCands<'e>,
        dst: usize,
    },
}

/// A compiled expression: see [`Expr::compile`].
pub struct KernelPlan<'e> {
    steps: Vec<KStep<'e>>,
    out: usize,
    n_regs: usize,
    cols: Vec<usize>,
    /// The source expression (what [`KernelPlan::bind_filter`] binds).
    expr: &'e Expr,
}

/// The column binding a [`KernelPlan`] evaluates against: either a whole
/// table, or an index-aligned sparse slice of pre-gathered columns (only
/// the plan's [`KernelPlan::referenced_cols`] need be present).
#[derive(Clone, Copy)]
pub enum KernelCols<'a> {
    /// Resolve column indices against a table.
    Table(&'a Table),
    /// Resolve column indices against a sparse, index-aligned slice.
    Cols(&'a [Option<Column>]),
}

impl<'a> KernelCols<'a> {
    fn column(&self, i: usize) -> Result<&'a Column, EngineError> {
        match self {
            KernelCols::Table(t) => t.column(i),
            KernelCols::Cols(cols) => {
                cols.get(i)
                    .and_then(|c| c.as_ref())
                    .ok_or(EngineError::ColumnIndex {
                        index: i,
                        width: cols.len(),
                    })
            }
        }
    }
}

impl Expr {
    /// Compiles the expression into a [`KernelPlan`] — done once per
    /// operator; each batch then replays the flat step program.
    pub fn compile(&self) -> KernelPlan<'_> {
        let mut plan = KernelPlan {
            steps: Vec::new(),
            out: 0,
            n_regs: 0,
            cols: Vec::new(),
            expr: self,
        };
        plan.out = compile_node(self, &mut plan, &mut Vec::new());
        plan
    }

    /// Appends the operands of this expression's top-level chain of `op`
    /// (`AND` or `OR`), in source order.
    fn push_chain<'e>(&'e self, op: BinOp, out: &mut Vec<&'e Expr>) {
        match self {
            Expr::Bin { op: o, left, right } if *o == op => {
                left.push_chain(op, out);
                right.push_chain(op, out);
            }
            other => out.push(other),
        }
    }

    /// Whether the expression may be NULL on some row of `cols`: it reads a
    /// column with a validity mask or holds a NULL literal, outside an
    /// `IS NULL`. Where it may not, every row is TRUE or FALSE.
    fn may_be_null(&self, cols: &KernelCols<'_>) -> bool {
        match self {
            Expr::Col(i) => cols.column(*i).is_ok_and(|c| c.validity.is_some()),
            Expr::Lit(v) => matches!(v, Value::Null),
            Expr::IsNull(_) => false,
            Expr::Not(e) | Expr::InList { expr: e, .. } | Expr::Contains { expr: e, .. } => {
                e.may_be_null(cols)
            }
            Expr::Bin { left, right, .. } => left.may_be_null(cols) || right.may_be_null(cols),
        }
    }

    /// **Totality.** `Some(family)` when this expression is *total* over
    /// `cols`: on every row it yields a value of that [`Family`] or NULL
    /// and can raise nothing — no `DivisionByZero`, no NaN comparison, no
    /// lazily-validated `TypeMismatch`, no `ColumnIndex` — so whether, and
    /// over which rows, it is evaluated cannot be observed. Total are:
    ///
    /// * a column that **exists** in `cols` and is typed `Int64`, `Date`,
    ///   `Bool` or `Utf8` — never `Float64`, which may hold a NaN;
    /// * a literal that is neither NULL nor NaN;
    /// * a comparison of two total operands of one family;
    /// * `IS NULL` and `IN (…)` of a total operand (membership compares
    ///   with `values_equal`, which raises for no candidate), `CONTAINS` of
    ///   a total `Text` operand;
    /// * `NOT`, `AND`, `OR` of total `Boolean` operands.
    ///
    /// Everything else — arithmetic above all — is opaque (`None`). The
    /// answer depends on the binding: an all-NULL column is stored as
    /// `Int64`, so chunks of one table may type a column differently.
    fn total_family(&self, cols: &KernelCols<'_>) -> Option<Family> {
        let boolean = |ok: bool| ok.then_some(Family::Boolean);
        match self {
            Expr::Col(i) => match cols.column(*i).ok()?.data.data_type() {
                DataType::Float64 => None,
                ty => Some(family(ty)),
            },
            Expr::Lit(Value::Float64(x)) if x.is_nan() => None,
            Expr::Lit(v) => v.data_type().map(family),
            Expr::Not(e) => boolean(e.total_family(cols)? == Family::Boolean),
            Expr::IsNull(e) | Expr::InList { expr: e, .. } => {
                boolean(e.total_family(cols).is_some())
            }
            Expr::Contains { expr, .. } => boolean(expr.total_family(cols)? == Family::Text),
            Expr::Bin { op, left, right } => {
                let (l, r) = (left.total_family(cols)?, right.total_family(cols)?);
                match op {
                    BinOp::And | BinOp::Or => boolean(l == Family::Boolean && r == Family::Boolean),
                    op if cmp_op(*op) => boolean(l == r),
                    _ => None,
                }
            }
        }
    }

    /// Does the expression read a `Utf8` column of `cols`? Such a read
    /// chases one pointer per row, where every other column is a dense
    /// slice.
    fn reads_text(&self, cols: &KernelCols<'_>) -> bool {
        match self {
            Expr::Col(i) => {
                cols.column(*i).is_ok_and(|c| c.data.data_type() == DataType::Utf8)
            }
            Expr::Lit(_) => false,
            Expr::Not(e)
            | Expr::IsNull(e)
            | Expr::InList { expr: e, .. }
            | Expr::Contains { expr: e, .. } => e.reads_text(cols),
            Expr::Bin { left, right, .. } => left.reads_text(cols) || right.reads_text(cols),
        }
    }
}

fn compile_node<'e>(
    e: &'e Expr,
    plan: &mut KernelPlan<'e>,
    col_regs: &mut Vec<(usize, usize)>,
) -> usize {
    match e {
        Expr::Col(i) => {
            // Deduplicated: the first reference gathers, later ones reuse
            // the register (the first gather also carries any column-index
            // error, matching the scalar evaluator's first visit).
            if let Some(&(_, reg)) = col_regs.iter().find(|(c, _)| c == i) {
                return reg;
            }
            let dst = plan.alloc();
            plan.steps.push(KStep::Col { col: *i, dst });
            plan.cols.push(*i);
            col_regs.push((*i, dst));
            dst
        }
        Expr::Lit(v) => {
            let dst = plan.alloc();
            plan.steps.push(KStep::Lit { v, dst });
            dst
        }
        Expr::Not(inner) => {
            let src = compile_node(inner, plan, col_regs);
            let dst = plan.alloc();
            plan.steps.push(KStep::Not { src, dst });
            dst
        }
        Expr::IsNull(inner) => {
            let src = compile_node(inner, plan, col_regs);
            let dst = plan.alloc();
            plan.steps.push(KStep::IsNull { src, dst });
            dst
        }
        Expr::Contains { expr, needle } => {
            let src = compile_node(expr, plan, col_regs);
            let dst = plan.alloc();
            plan.steps.push(KStep::Contains { src, needle, dst });
            dst
        }
        Expr::InList { expr, list } => {
            let src = compile_node(expr, plan, col_regs);
            let dst = plan.alloc();
            plan.steps.push(KStep::InList {
                src,
                cands: InCands::new(list),
                dst,
            });
            dst
        }
        Expr::Bin { op, left, right } => {
            let l = compile_node(left, plan, col_regs);
            let r = compile_node(right, plan, col_regs);
            let dst = plan.alloc();
            plan.steps.push(KStep::Bin {
                op: *op,
                l,
                r,
                dst,
            });
            dst
        }
    }
}

fn reg<'r, 'a>(regs: &'r [Option<BatchVals<'a>>], i: usize) -> &'r BatchVals<'a> {
    regs[i]
        .as_ref()
        .expect("operand register written before use (post-order program)")
}

impl<'e> KernelPlan<'e> {
    fn alloc(&mut self) -> usize {
        self.n_regs += 1;
        self.n_regs - 1
    }

    /// Binds the plan, as a filter predicate, to one slab of columns (a
    /// table, a chunk, a deferred join's gathered columns) — once per slab,
    /// not per morsel. When the predicate is *total* over `cols`
    /// (`Expr::total_family`: boolean, and it can raise nothing there) it
    /// binds as a **selection program**, a tree that maps each morsel's
    /// selection to the rows where the predicate is TRUE: an `Int64`/`Date`
    /// comparison reads the column slices themselves, each operand of an
    /// `AND`/`OR` (those reading no string first) runs only on the rows the
    /// earlier ones left undecided, and `NOT` swaps its child's TRUE and
    /// FALSE rows. Any other predicate runs the single register program and
    /// selects from its booleans.
    ///
    /// Both select the same ascending rows: a row passes exactly where the
    /// predicate is TRUE, and since nothing total can raise, leaving an
    /// operand unevaluated on rows an earlier one already decided is
    /// unobservable.
    pub fn bind_filter<'k, 'c>(&'k self, cols: &KernelCols<'c>) -> BoundFilter<'k, 'e, 'c> {
        let total = self.expr.total_family(cols) == Some(Family::Boolean);
        BoundFilter {
            whole: self,
            cols: *cols,
            program: total.then(|| SelNode::bind(self.expr, cols)),
        }
    }

    /// Distinct column indices the plan reads, in first-use order.
    pub fn referenced_cols(&self) -> &[usize] {
        &self.cols
    }

    /// Evaluates the plan over the rows selected by `sv` against `cols`:
    /// slot `i` of the result equals [`Expr::eval`] of the source
    /// expression at row `sv.row(i)`, with NULLs carried in the validity
    /// mask. Errors are raised iff scalar evaluation of some selected row
    /// errs (the specific message may name the batch, not the row).
    pub fn eval<'a>(
        &'a self,
        cols: &KernelCols<'a>,
        sv: &SelView<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<BatchVals<'a>, EngineError> {
        let mut regs: Vec<Option<BatchVals<'a>>> = Vec::with_capacity(self.n_regs);
        regs.resize_with(self.n_regs, || None);
        for step in &self.steps {
            let (dst, bv) = match step {
                KStep::Col { col, dst } => (*dst, col_batch(cols.column(*col)?, sv, scratch)),
                KStep::Lit { v, dst } => (*dst, lit_batch(v)),
                KStep::Not { src, dst } => (*dst, not_batch(reg(&regs, *src), sv, scratch)?),
                KStep::IsNull { src, dst } => (*dst, is_null_batch(reg(&regs, *src), sv, scratch)),
                KStep::Contains { src, needle, dst } => {
                    (*dst, contains_batch(reg(&regs, *src), needle, sv, scratch)?)
                }
                KStep::InList { src, cands, dst } => {
                    (*dst, in_list_batch(reg(&regs, *src), cands, sv, scratch)?)
                }
                KStep::Bin { op, l, r, dst } => (
                    *dst,
                    bin_batch(*op, reg(&regs, *l), reg(&regs, *r), sv, scratch)?,
                ),
            };
            regs[dst] = Some(bv);
        }
        let out = regs[self.out]
            .take()
            .expect("plan output register is written by the last step");
        for r in regs.into_iter().flatten() {
            scratch.recycle(r);
        }
        Ok(out)
    }

    /// Evaluates the plan as a predicate, filling `out` with the selected
    /// original row ids where it is true (NULL = not selected, as in SQL
    /// `WHERE`): over a whole table, exactly the rows [`Expr::eval_mask`]
    /// marks true.
    pub fn eval_sel_into(
        &self,
        cols: &KernelCols<'_>,
        sv: &SelView<'_>,
        scratch: &mut EvalScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), EngineError> {
        let bv = self.eval(cols, sv, scratch)?;
        let res = split_batch(&bv, sv, Some(out), None);
        scratch.recycle(bv);
        res
    }
}

/// A filter predicate bound to one slab of columns: see
/// [`KernelPlan::bind_filter`].
pub struct BoundFilter<'k, 'e, 'c> {
    whole: &'k KernelPlan<'e>,
    cols: KernelCols<'c>,
    /// The selection program, when the predicate is total over `cols`.
    program: Option<SelNode<'e, 'c>>,
}

impl BoundFilter<'_, '_, '_> {
    /// Whether the predicate binds as a selection program (it is total over
    /// the slab) rather than as the single register program.
    pub fn is_selection_program(&self) -> bool {
        self.program.is_some()
    }

    /// Fills `out` with the rows of `sv` where the predicate is TRUE,
    /// ascending — [`KernelPlan::eval_sel_into`] of the bound plan over the
    /// slab it was bound to.
    pub fn eval_sel_into(
        &self,
        sv: &SelView<'_>,
        scratch: &mut EvalScratch,
        out: &mut Vec<u32>,
    ) -> Result<(), EngineError> {
        match &self.program {
            Some(node) => node.select(&self.cols, sv, Some(out), None, scratch),
            None => self.whole.eval_sel_into(&self.cols, sv, scratch, out),
        }
    }
}

// ============================ selection programs ============================
//
// A total predicate does not need its value on every row, only the rows
// where it is TRUE: the two-output `Select` of vectorized engines
// (MonetDB/X100's selection vectors, DuckDB's `ExpressionExecutor::Select`).
// Each node maps an input selection to the rows where its subexpression is
// TRUE and, when asked, those where it is FALSE; a row where it is NULL goes
// to neither. Outputs ascend with the input, and each is written without a
// branch per row: the row id is stored at the cursor, then the cursor
// advances by the verdict.

/// One node of a selection program: see [`KernelPlan::bind_filter`].
enum SelNode<'e, 'c> {
    /// A comparison of two unmasked `Int64`/`Date` columns or literals, read
    /// from the source slices.
    Cmp {
        op: BinOp,
        l: Widened<'c>,
        r: Widened<'c>,
    },
    /// Any other total subexpression: its kernel program over the input
    /// selection, split by value.
    Leaf(KernelPlan<'e>),
    /// `NOT`: the child's two outputs, swapped.
    Not(Box<SelNode<'e, 'c>>),
    /// An `AND` chain (`or == false`) or an `OR` chain, operands reading no
    /// string first. Each operand runs on the rows every earlier one
    /// *passed* — was TRUE for, in an `AND`; FALSE for, in an `OR` — so the
    /// survivors are the chain's pass set, and where the chain cannot be
    /// NULL its other output is their complement. `whole` is the chain's
    /// own program where it may be NULL, for when that output is asked.
    Chain {
        or: bool,
        ops: Vec<SelNode<'e, 'c>>,
        whole: Option<KernelPlan<'e>>,
    },
}

/// An operand of [`SelNode::Cmp`], widened to `f64` per row exactly as
/// `col_batch` and `lit_batch` widen it.
#[derive(Clone, Copy)]
enum Widened<'c> {
    Int(&'c [i64]),
    Date(&'c [i32]),
    Const(f64),
}

/// An output of a selection: row ids, when asked for.
type Out<'a> = Option<&'a mut Vec<u32>>;

/// Clears `v` and sizes it to `n` slots, growing it to a whole morsel (at
/// least) the first time it grows.
fn reset_sel(v: &mut Vec<u32>, n: usize) {
    v.clear();
    if v.capacity() < n {
        v.reserve(n.max(crate::fused::MORSEL_ROWS));
    }
    v.resize(n, 0);
}

/// Writes the rows of `sv` where `keep(position, row)` holds into `out`;
/// the dense/selected decision is made once, outside the loop. (The loop
/// writes through a slice: through the `Vec`, every store could alias its
/// length, which is then reloaded per row.)
#[inline(always)]
fn keep_rows(sv: &SelView<'_>, out: &mut Vec<u32>, mut keep: impl FnMut(usize, usize) -> bool) {
    reset_sel(out, sv.len());
    let (slots, mut k) = (&mut out[..], 0);
    match sv.sel {
        None => {
            for pos in 0..slots.len() {
                slots[k] = (sv.base + pos) as u32;
                k += keep(pos, sv.base + pos) as usize;
            }
        }
        Some(sel) => {
            for (pos, &row) in sel.iter().enumerate() {
                slots[k] = row;
                k += keep(pos, row as usize) as usize;
            }
        }
    }
    out.truncate(k);
}

/// Writes the rows of `sv` into `t` and `f`, each when asked, by
/// `verdict(position, row) = (TRUE, FALSE)`.
#[inline(always)]
fn split_rows(
    sv: &SelView<'_>,
    t: Out<'_>,
    f: Out<'_>,
    verdict: impl Fn(usize, usize) -> (bool, bool),
) {
    if let Some(t) = t {
        keep_rows(sv, t, |pos, row| verdict(pos, row).0);
    }
    if let Some(f) = f {
        keep_rows(sv, f, |pos, row| verdict(pos, row).1);
    }
}

/// Splits the rows of `sv` by a predicate's batch result — TRUE rows into
/// `t`, FALSE rows into `f`, NULL rows into neither. A batch that is not
/// boolean is an error unless every slot of it is NULL.
fn split_batch(
    bv: &BatchVals<'_>,
    sv: &SelView<'_>,
    t: Out<'_>,
    f: Out<'_>,
) -> Result<(), EngineError> {
    match bv {
        BatchVals::Bools { vals, valid: None } => {
            split_rows(sv, t, f, |pos, _| (vals[pos], !vals[pos]))
        }
        BatchVals::Bools {
            vals,
            valid: Some(ok),
        } => split_rows(sv, t, f, |pos, _| (vals[pos] & ok[pos], !vals[pos] & ok[pos])),
        BatchVals::ConstBool(b) => split_rows(sv, t, f, |_, _| (*b, !*b)),
        other if side_any_valid(&classify(other), sv) => {
            return Err(EngineError::TypeMismatch {
                context: "predicate produced a non-boolean batch".to_string(),
            })
        }
        _ => split_rows(sv, t, f, |_, _| (false, false)),
    }
    Ok(())
}

/// The rows of `sv` not in `pass`, a subset of them: the other output of a
/// chain that cannot be NULL.
fn complement(sv: &SelView<'_>, pass: &[u32], out: &mut Vec<u32>) {
    let mut j = 0;
    keep_rows(sv, out, |_, row| {
        let hit = pass.get(j) == Some(&(row as u32));
        j += hit as usize;
        !hit
    });
}

/// [`SelNode::Cmp`] over the rows of `sv`, monomorphised per operand shape
/// (each a closure reading one row) and operator.
fn select_cmp(op: BinOp, l: Widened<'_>, r: Widened<'_>, sv: &SelView<'_>, t: Out<'_>, f: Out<'_>) {
    macro_rules! by_op {
        ($l:expr, $r:expr) => {{
            let (l, r, both) = ($l, $r, |x: bool| (x, !x));
            match op {
                BinOp::Eq => split_rows(sv, t, f, |_, row| both(l(row) == r(row))),
                BinOp::Ne => split_rows(sv, t, f, |_, row| both(l(row) != r(row))),
                BinOp::Lt => split_rows(sv, t, f, |_, row| both(l(row) < r(row))),
                BinOp::Le => split_rows(sv, t, f, |_, row| both(l(row) <= r(row))),
                BinOp::Gt => split_rows(sv, t, f, |_, row| both(l(row) > r(row))),
                BinOp::Ge => split_rows(sv, t, f, |_, row| both(l(row) >= r(row))),
                // LINT: panic-ok — `SelNode::bind` builds `Cmp` for the six
                // comparison operators only.
                _ => unreachable!("not a comparison"),
            }
        }};
    }
    macro_rules! by_right {
        ($l:expr) => {
            match r {
                Widened::Int(r) => by_op!($l, |row: usize| r[row] as f64),
                Widened::Date(r) => by_op!($l, |row: usize| r[row] as f64),
                Widened::Const(r) => by_op!($l, |_: usize| r),
            }
        };
    }
    match l {
        Widened::Int(l) => by_right!(|row: usize| l[row] as f64),
        Widened::Date(l) => by_right!(|row: usize| l[row] as f64),
        Widened::Const(l) => by_right!(|_: usize| l),
    }
}

impl<'e, 'c> SelNode<'e, 'c> {
    /// The program of `e`, a total boolean expression over `cols`.
    fn bind(e: &'e Expr, cols: &KernelCols<'c>) -> Self {
        let widened = |e: &Expr| match e {
            Expr::Col(i) => match &*cols.column(*i).ok().filter(|c| c.validity.is_none())?.data {
                ColumnData::Int64(v) => Some(Widened::Int(v)),
                ColumnData::Date(v) => Some(Widened::Date(v)),
                _ => None,
            },
            Expr::Lit(v) => match lit_batch(v) {
                BatchVals::ConstNum { val, .. } => Some(Widened::Const(val)),
                _ => None,
            },
            _ => None,
        };
        match e {
            Expr::Not(inner) => SelNode::Not(Box::new(SelNode::bind(inner, cols))),
            Expr::Bin {
                op: op @ (BinOp::And | BinOp::Or),
                ..
            } => {
                let mut operands = Vec::new();
                e.push_chain(*op, &mut operands);
                // A string read chases a pointer per row; a stable sort
                // keeps source order within each kind.
                operands.sort_by_key(|o| o.reads_text(cols));
                SelNode::Chain {
                    or: *op == BinOp::Or,
                    ops: operands.into_iter().map(|o| SelNode::bind(o, cols)).collect(),
                    whole: e.may_be_null(cols).then(|| e.compile()),
                }
            }
            Expr::Bin { op, left, right } if cmp_op(*op) => match (widened(left), widened(right)) {
                (Some(l), Some(r)) => SelNode::Cmp { op: *op, l, r },
                _ => SelNode::Leaf(e.compile()),
            },
            _ => SelNode::Leaf(e.compile()),
        }
    }

    /// Writes the rows of `sv` where the node is TRUE into `t` and those
    /// where it is FALSE into `f`, each when asked.
    fn select(
        &self,
        cols: &KernelCols<'_>,
        sv: &SelView<'_>,
        t: Out<'_>,
        f: Out<'_>,
        scratch: &mut EvalScratch,
    ) -> Result<(), EngineError> {
        let leaf = |kp: &KernelPlan<'_>, t: Out<'_>, f: Out<'_>, scratch: &mut EvalScratch| {
            let bv = kp.eval(cols, sv, scratch)?;
            let res = split_batch(&bv, sv, t, f);
            scratch.recycle(bv);
            res
        };
        match self {
            SelNode::Cmp { op, l, r } => {
                select_cmp(*op, *l, *r, sv, t, f);
                Ok(())
            }
            SelNode::Leaf(kp) => leaf(kp, t, f, scratch),
            SelNode::Not(child) => child.select(cols, sv, f, t, scratch),
            SelNode::Chain { or, ops, whole } => {
                let (pass, fail) = if *or { (f, t) } else { (t, f) };
                match (fail, whole) {
                    (None, _) => match pass {
                        Some(pass) => Self::chain_pass(*or, ops, cols, sv, pass, scratch),
                        None => Ok(()),
                    },
                    (Some(fail), Some(kp)) if *or => leaf(kp, Some(fail), pass, scratch),
                    (Some(fail), Some(kp)) => leaf(kp, pass, Some(fail), scratch),
                    (Some(fail), None) => {
                        let mut own = scratch.take_sel();
                        let pass = pass.unwrap_or(&mut own);
                        let res = Self::chain_pass(*or, ops, cols, sv, pass, scratch);
                        complement(sv, pass, fail);
                        scratch.put_sel(own);
                        res
                    }
                }
            }
        }
    }

    /// The pass set of a chain: each operand over the survivors of those
    /// before it, until none survive.
    fn chain_pass(
        or: bool,
        ops: &[SelNode<'_, '_>],
        cols: &KernelCols<'_>,
        sv: &SelView<'_>,
        out: &mut Vec<u32>,
        scratch: &mut EvalScratch,
    ) -> Result<(), EngineError> {
        let mut next = scratch.take_sel();
        for (k, op) in ops.iter().enumerate() {
            let input = if k == 0 { *sv } else { SelView::over(out.len(), Some(out)) };
            // An `AND` operand passes on its TRUE rows, an `OR` operand its FALSE ones.
            let (t, f) = if or { (None, Some(&mut next)) } else { (Some(&mut next), None) };
            op.select(cols, &input, t, f, scratch)?;
            std::mem::swap(out, &mut next);
            if out.is_empty() {
                break;
            }
        }
        scratch.put_sel(next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};

    fn table() -> Table {
        Table::new(
            "t",
            vec![
                Column::new("a", ColumnData::Int64(vec![1, 2, 3, 4])),
                Column::new("b", ColumnData::Float64(vec![1.5, 0.5, 3.5, 2.0])),
                Column::new(
                    "s",
                    ColumnData::Utf8(vec!["x".into(), "y".into(), "x".into(), "z".into()]),
                ),
                Column::with_validity(
                    "n",
                    ColumnData::Int64(vec![10, 0, 30, 0]),
                    vec![true, false, true, false],
                ),
            ],
        )
        .unwrap()
    }

    #[test]
    fn arithmetic() {
        let t = table();
        let e = Expr::col(0).add(Expr::int(10));
        assert_eq!(e.eval(&t, 0).unwrap(), Value::Int64(11));
        let e = Expr::col(0).mul(Expr::col(1));
        assert_eq!(e.eval(&t, 2).unwrap(), Value::Float64(10.5));
        let e = Expr::col(0).div(Expr::int(2));
        assert_eq!(e.eval(&t, 3).unwrap(), Value::Float64(2.0));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let t = table();
        let e = Expr::col(0).div(Expr::int(0));
        assert_eq!(e.eval(&t, 0), Err(EngineError::DivisionByZero));
    }

    #[test]
    fn comparisons_and_mask() {
        let t = table();
        let e = Expr::col(0).ge(Expr::int(3));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false, false, true, true]);
        let e = Expr::col(2).eq(Expr::str("x"));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, true, false]);
    }

    #[test]
    fn boolean_logic() {
        let t = table();
        let e = Expr::col(0)
            .gt(Expr::int(1))
            .and(Expr::col(1).lt(Expr::float(3.0)));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false, true, false, true]);
        let e = Expr::col(0).eq(Expr::int(1)).or(Expr::col(2).eq(Expr::str("z")));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, false, true]);
        let e = Expr::col(0).gt(Expr::int(1)).negate();
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, false, false]);
    }

    #[test]
    fn null_propagation() {
        let t = table();
        // n > 5: NULL rows must not be selected.
        let e = Expr::col(3).gt(Expr::int(5));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, true, false]);
        // IS NULL.
        let e = Expr::col(3).is_null();
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false, true, false, true]);
        // NULL AND false = false (Kleene).
        let e = Expr::col(3).gt(Expr::int(5)).and(Expr::col(0).gt(Expr::int(99)));
        assert_eq!(e.eval(&t, 1).unwrap(), Value::Bool(false));
        // NULL OR true = true.
        let e = Expr::col(3).gt(Expr::int(5)).or(Expr::col(0).ge(Expr::int(1)));
        assert_eq!(e.eval(&t, 1).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list() {
        let t = table();
        let e = Expr::col(2).in_list(vec![Value::Utf8("x".into()), Value::Utf8("z".into())]);
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, true, true]);
        // NULL IN (...) is NULL -> not selected.
        let e = Expr::col(3).in_list(vec![Value::Int64(10)]);
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, false, false]);
    }

    #[test]
    fn type_errors_are_reported() {
        let t = table();
        let e = Expr::col(2).add(Expr::int(1));
        assert!(matches!(
            e.eval(&t, 0),
            Err(EngineError::TypeMismatch { .. })
        ));
        let e = Expr::col(0); // not a predicate
        assert!(e.eval_mask(&t).is_err());
    }

    #[test]
    fn contains_like_pattern() {
        let t = table();
        let e = Expr::col(2).contains("x");
        assert_eq!(e.eval_mask(&t).unwrap(), vec![true, false, true, false]);
        // NULL stays NULL -> unselected; non-strings are type errors.
        let e = Expr::col(3).contains("1");
        assert!(matches!(
            e.eval(&t, 0),
            Err(EngineError::TypeMismatch { .. })
        ));
        let t2 = Table::new(
            "s",
            vec![Column::with_validity(
                "s",
                ColumnData::Utf8(vec!["abc".into(), String::new()]),
                vec![true, false],
            )],
        )
        .unwrap();
        let e = Expr::col(0).contains("b");
        assert_eq!(e.eval_mask(&t2).unwrap(), vec![true, false]);
    }

    /// The no-NULL kernels (plain-slice comparison, two-valued AND/OR,
    /// mask-free selection) against the scalar evaluator, row by row:
    /// same selected rows, and an error exactly when a selected row
    /// compares a NaN — never for a NaN outside the selection, never for
    /// an empty one.
    #[test]
    fn plain_kernels_agree_with_scalar_evaluation() {
        let t = Table::new(
            "f",
            vec![
                Column::new("x", ColumnData::Float64(vec![1.0, -0.0, f64::NAN, 7.5, 0.0])),
                Column::new("y", ColumnData::Float64(vec![1.0, 0.0, 2.0, f64::INFINITY, -3.0])),
                Column::new("d", ColumnData::Date(vec![10, 20, 30, 40, 50])),
                Column::with_validity(
                    "n",
                    ColumnData::Float64(vec![1.0, 0.0, 5.0, 0.0, 9.0]),
                    vec![true, false, true, false, true],
                ),
            ],
        )
        .unwrap();
        type Cmp = fn(Expr, Expr) -> Expr;
        let ops: [Cmp; 6] = [Expr::eq, Expr::ne, Expr::lt, Expr::le, Expr::gt, Expr::ge];
        let operands = || {
            vec![
                Expr::col(0),
                Expr::col(1),
                Expr::col(2),
                Expr::col(3),
                Expr::float(0.0),
                Expr::float(f64::NAN),
                Expr::date(30),
            ]
        };
        let sels: [Option<&[u32]>; 5] = [
            None,
            Some(&[0, 1, 3, 4]), // skips the NaN row
            Some(&[4, 2]),
            Some(&[3]),
            Some(&[]),
        ];
        let mut predicates = Vec::new();
        for op in ops {
            for l in operands() {
                for r in operands() {
                    predicates.push(op(l.clone(), r));
                }
            }
        }
        // Conjunctions and disjunctions of mask-free comparisons.
        let lo = Expr::col(2).ge(Expr::date(20));
        let hi = Expr::col(2).lt(Expr::date(50));
        predicates.push(lo.clone().and(hi.clone()));
        predicates.push(lo.clone().or(hi.clone().negate()));
        predicates.push(lo.and(Expr::col(1).gt(Expr::col(0))).and(hi));
        for p in &predicates {
            for sel in sels {
                let rows: Vec<u32> = match sel {
                    Some(s) => s.to_vec(),
                    None => (0..t.n_rows() as u32).collect(),
                };
                let scalar: Result<Vec<u32>, EngineError> = rows
                    .iter()
                    .filter_map(|&r| match p.eval(&t, r as usize) {
                        Ok(Value::Bool(true)) => Some(Ok(r)),
                        Ok(_) => None,
                        Err(e) => Some(Err(e)),
                    })
                    .collect();
                let compiled = {
                    let mut out = Vec::new();
                    p.compile()
                        .eval_sel_into(
                            &KernelCols::Table(&t),
                            &SelView::over(t.n_rows(), sel),
                            &mut EvalScratch::new(),
                            &mut out,
                        )
                        .map(|()| out)
                };
                match scalar {
                    Ok(want) => assert_eq!(compiled.as_ref(), Ok(&want), "{p:?} under {sel:?}"),
                    Err(_) => assert!(compiled.is_err(), "{p:?} under {sel:?}: {compiled:?}"),
                }
            }
        }
    }

    /// The bound filter ([`KernelPlan::bind_filter`]) over random AND/OR/NOT
    /// trees against the single program and the scalar evaluator, each node
    /// of a selection program against [`Expr::eval`], and the classifier
    /// against the totality rule ([`Expr::total_family`]) restated by hand
    /// per leaf.
    mod selection_program_props {
        use super::*;
        use proptest::prelude::*;

        /// What the totality rule says of one leaf of [`conjuncts`].
        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Kind {
            /// Total, reads no `Utf8` column.
            Cheap,
            /// Total, reads a `Utf8` column.
            Costly,
            /// Not total: may raise, or is not boolean.
            Opaque,
        }

        /// Columns: 0 `a` Int64 · 1 `d` Date with NULLs · 2 `s` Utf8 with
        /// NULLs · 3 `f` Float64 holding NaNs · 4 `b` Bool · 5 `z` Int64 with
        /// zeros · 6 `n` all-NULL (stored as `Int64`) · 7 `u` Utf8, all NULL.
        fn table(rows: &[(i64, i64, u8, u8, i64)]) -> Table {
            let strings = ["x", "y", "zz", ""];
            let n = rows.len();
            Table::new(
                "t",
                vec![
                    Column::new("a", ColumnData::Int64(rows.iter().map(|r| r.0).collect())),
                    Column::with_validity(
                        "d",
                        ColumnData::Date(rows.iter().map(|r| r.1 as i32).collect()),
                        rows.iter().map(|r| r.1 != 0).collect(),
                    ),
                    Column::with_validity(
                        "s",
                        ColumnData::Utf8(
                            rows.iter().map(|r| strings[r.2 as usize % 4].into()).collect(),
                        ),
                        rows.iter().map(|r| r.2 < 4).collect(),
                    ),
                    Column::new(
                        "f",
                        ColumnData::Float64(
                            rows.iter()
                                .map(|r| if r.3 == 0 { f64::NAN } else { r.3 as f64 })
                                .collect(),
                        ),
                    ),
                    Column::new("b", ColumnData::Bool(rows.iter().map(|r| r.3 % 2 == 0).collect())),
                    Column::new("z", ColumnData::Int64(rows.iter().map(|r| r.4).collect())),
                    Column::with_validity("n", ColumnData::Int64(vec![0; n]), vec![false; n]),
                    Column::with_validity(
                        "u",
                        ColumnData::Utf8(vec![String::new(); n]),
                        vec![false; n],
                    ),
                ],
            )
            .unwrap()
        }

        fn conjuncts() -> Vec<(Kind, Expr)> {
            use Kind::*;
            let mixed = || {
                vec![
                    Value::Int64(1),
                    Value::Utf8("x".into()),
                    Value::Float64(2.0),
                    Value::Bool(true),
                    Value::Null,
                ]
            };
            vec![
                (Cheap, Expr::col(0).lt(Expr::int(3))),
                (Cheap, Expr::col(1).ge(Expr::date(2))),
                (Cheap, Expr::col(1).lt(Expr::col(0))),
                (Cheap, Expr::col(4)),
                (Cheap, Expr::col(4).eq(Expr::Lit(Value::Bool(true)))),
                (Cheap, Expr::col(0).in_list(mixed())),
                (Cheap, Expr::col(1).is_null()),
                (Cheap, Expr::col(0).lt(Expr::int(2)).or(Expr::col(1).gt(Expr::date(3))).negate()),
                (Cheap, Expr::col(6).lt(Expr::float(3.5))),
                (Cheap, Expr::col(6).is_null()),
                (Costly, Expr::col(2).in_list(mixed())),
                (Costly, Expr::col(2).contains("z")),
                (Costly, Expr::col(2).eq(Expr::str("y"))),
                (Costly, Expr::col(2).ge(Expr::col(7))),
                (Costly, Expr::col(2).is_null().negate()),
                (Costly, Expr::col(2).eq(Expr::str("x")).or(Expr::col(0).lt(Expr::int(2)))),
                (Costly, Expr::col(7).contains("")),
                // A Float64 column may hold a NaN; a NaN literal always does.
                (Opaque, Expr::col(3).lt(Expr::float(2.0))),
                (Opaque, Expr::col(3).is_null()),
                (Opaque, Expr::col(0).lt(Expr::float(f64::NAN))),
                // Arithmetic: zero divisors, and a non-boolean conjunct.
                (Opaque, Expr::col(0).div(Expr::col(5)).gt(Expr::int(1))),
                (Opaque, Expr::col(0).add(Expr::int(1))),
                (Opaque, Expr::col(0)),
                // Validated lazily: an out-of-range column, mixed families
                // (raises only where both sides are non-NULL), a NULL literal.
                (Opaque, Expr::col(99).lt(Expr::int(1))),
                (Opaque, Expr::col(2).lt(Expr::int(3))),
                (Opaque, Expr::col(6).contains("x")),
                (Opaque, Expr::col(0).eq(Expr::Lit(Value::Null))),
            ]
        }

        type Sel = Result<Vec<u32>, EngineError>;

        /// The rows of `rows` where scalar evaluation ([`Expr::eval`]) of `p`
        /// is `Bool(want)`, or its first error.
        fn scalar(p: &Expr, t: &Table, rows: &[u32], want: bool) -> Sel {
            rows.iter()
                .filter_map(|&r| match p.eval(t, r as usize) {
                    Ok(Value::Bool(b)) => (b == want).then_some(Ok(r)),
                    Ok(Value::Null) => None,
                    Ok(other) => Some(Err(EngineError::TypeMismatch {
                        context: format!("predicate produced {other:?}"),
                    })),
                    Err(e) => Some(Err(e)),
                })
                .collect()
        }

        /// The three evaluations of `p` over `sel` — scalar (row by row;
        /// [`Expr::eval_mask`] itself when nothing is selected out), the
        /// single program, the bound filter — and whether the filter binds
        /// as a selection program.
        fn evaluate(p: &Expr, t: &Table, sel: Option<&[u32]>) -> (Sel, Sel, Sel, bool) {
            let scalar = match sel {
                None => p.eval_mask(t).map(|mask| {
                    (0..t.n_rows() as u32).filter(|&r| mask[r as usize]).collect()
                }),
                Some(rows) => scalar(p, t, rows, true),
            };
            let (cols, sv) = (KernelCols::Table(t), SelView::over(t.n_rows(), sel));
            let mut scratch = EvalScratch::new();
            let kp = p.compile();
            let single = kp.eval(&cols, &sv, &mut scratch).and_then(|bv| {
                let mut out = Vec::new();
                split_batch(&bv, &sv, Some(&mut out), None).map(|()| out)
            });
            let filter = kp.bind_filter(&cols);
            let mut out = Vec::new();
            let bound = filter.eval_sel_into(&sv, &mut scratch, &mut out).map(|()| out);
            (scalar, single, bound, filter.is_selection_program())
        }

        /// `e` and every boolean node below it.
        fn nodes<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
            out.push(e);
            match e {
                Expr::Not(inner) => nodes(inner, out),
                Expr::Bin {
                    op: BinOp::And | BinOp::Or,
                    left,
                    right,
                } => {
                    nodes(left, out);
                    nodes(right, out);
                }
                _ => {}
            }
        }

        /// A random tree over the leaves `picks` name — AND and OR chains
        /// nested either way, under NOTs — and whether a leaf is opaque.
        /// With `any` false, every leaf is total.
        fn tree(picks: &[(usize, usize, usize)], any: bool) -> (Expr, bool) {
            let pool = conjuncts();
            let total = pool.iter().filter(|(kind, _)| *kind != Kind::Opaque).count();
            let mut opaque = false;
            let mut p: Option<Expr> = None;
            for &(pick, shape, from) in picks {
                // Three picks in four are total, so trees often bind as
                // selection programs.
                let n = if any && from == 0 { pool.len() } else { total };
                let (kind, c) = pool[pick % n].clone();
                opaque |= kind == Kind::Opaque;
                p = Some(match (p, shape) {
                    (None, 0..=3) => c,
                    (None, _) => c.negate(),
                    (Some(acc), 0) => acc.and(c),
                    (Some(acc), 1) => c.and(acc),
                    (Some(acc), 2) => acc.or(c),
                    (Some(acc), 3) => c.or(acc),
                    (Some(acc), 4) => acc.negate().and(c),
                    (Some(acc), _) => acc.or(c).negate(),
                });
            }
            (p.expect("at least one pick"), opaque)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            #[test]
            fn selection_program_equals_single_program_equals_scalar(
                rows in proptest::collection::vec(
                    (0i64..5, 0i64..6, 0u8..6, 0u8..5, 0i64..3),
                    0..40,
                ),
                picks in proptest::collection::vec((0usize..1000, 0usize..6, 0usize..4), 1..6),
                keep in 0u32..4,
            ) {
                let t = table(&rows);
                let (p, opaque) = tree(&picks, true);
                // All rows, a subset, none.
                let subset: Vec<u32> = (0..rows.len() as u32).filter(|r| r % 4 >= keep).collect();
                for sel in [None, Some(&subset[..]), Some(&[][..])] {
                    let (scalar, single, bound, is_program) = evaluate(&p, &t, sel);
                    prop_assert_eq!(is_program, !opaque, "{:?}", p);
                    // The bound filter is the single program, to the error.
                    prop_assert_eq!(&bound, &single, "{:?} under {:?}", p, sel);
                    // Over no rows the scalar evaluator looks at nothing,
                    // where a batch still resolves its columns.
                    if sel.map_or(rows.len(), <[u32]>::len) > 0 {
                        match scalar {
                            Ok(want) => {
                                prop_assert_eq!(bound.as_ref(), Ok(&want), "{:?} under {:?}", p, sel)
                            }
                            Err(_) => {
                                prop_assert!(bound.is_err(), "{:?} under {:?}: {:?}", p, sel, bound)
                            }
                        }
                    }
                }
            }

            /// Every node of a selection program — leaf, `NOT`, chain —
            /// selects the rows where its subexpression is `Bool(true)` and
            /// those where it is `Bool(false)`, asked for together and one
            /// at a time.
            #[test]
            fn each_node_selects_its_true_and_false_rows(
                rows in proptest::collection::vec(
                    (0i64..5, 0i64..6, 0u8..6, 0u8..5, 0i64..3),
                    0..40,
                ),
                picks in proptest::collection::vec((0usize..1000, 0usize..6, 0usize..1), 1..6),
                keep in 0u32..4,
            ) {
                let t = table(&rows);
                let (p, _) = tree(&picks, false);
                let mut ns = Vec::new();
                nodes(&p, &mut ns);
                let (cols, mut scratch) = (KernelCols::Table(&t), EvalScratch::new());
                let all: Vec<u32> = (0..rows.len() as u32).collect();
                let subset: Vec<u32> = all.iter().copied().filter(|r| r % 4 >= keep).collect();
                for sel in [&all, &subset, &Vec::new()] {
                    let sv = SelView::over(t.n_rows(), Some(sel));
                    for n in &ns {
                        let want = (scalar(n, &t, sel, true), scalar(n, &t, sel, false));
                        let node = SelNode::bind(n, &cols);
                        let (mut yes, mut no) = (Vec::new(), Vec::new());
                        node.select(&cols, &sv, Some(&mut yes), Some(&mut no), &mut scratch)
                            .unwrap();
                        let got = (Ok(yes.clone()), Ok(no.clone()));
                        prop_assert_eq!(got, want.clone(), "{:?} under {:?}", n, sel);
                        node.select(&cols, &sv, Some(&mut yes), None, &mut scratch).unwrap();
                        node.select(&cols, &sv, None, Some(&mut no), &mut scratch).unwrap();
                        prop_assert_eq!((Ok(yes), Ok(no)), want, "{:?} under {:?}", n, sel);
                    }
                }
            }
        }

        /// The raising row lies outside the dense conjunct's survivors — it
        /// has none. The predicate is not total, so it keeps the single
        /// program and the division by zero still surfaces, as it does from
        /// the scalar evaluator.
        #[test]
        fn an_opaque_conjunct_raises_outside_the_survivors() {
            let t = table(&[(1, 1, 0, 1, 0), (2, 2, 1, 2, 1)]);
            let p = Expr::col(0)
                .lt(Expr::int(0))
                .and(Expr::col(2).eq(Expr::str("x")))
                .and(Expr::col(0).div(Expr::col(5)).gt(Expr::int(1)));
            let (scalar, single, bound, is_program) = evaluate(&p, &t, None);
            assert!(!is_program);
            assert_eq!(scalar, Err(EngineError::DivisionByZero));
            assert_eq!(single, Err(EngineError::DivisionByZero));
            assert_eq!(bound, Err(EngineError::DivisionByZero));
            // Without the division the same predicate is a selection program
            // and selects nothing.
            let p = Expr::col(0).lt(Expr::int(0)).and(Expr::col(2).eq(Expr::str("x")));
            let (scalar, _, bound, is_program) = evaluate(&p, &t, None);
            assert!(is_program);
            assert_eq!((scalar, bound), (Ok(vec![]), Ok(vec![])));
        }
    }

    #[test]
    fn date_comparisons() {
        let t = Table::new(
            "d",
            vec![Column::new("d", ColumnData::Date(vec![100, 200, 300]))],
        )
        .unwrap();
        let e = Expr::col(0).ge(Expr::date(150)).and(Expr::col(0).lt(Expr::date(300)));
        assert_eq!(e.eval_mask(&t).unwrap(), vec![false, true, false]);
    }
}
