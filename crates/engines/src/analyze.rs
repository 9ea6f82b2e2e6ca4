//! Static plan analysis: schema inference, expression type checking, and
//! fragment-DAG validation — **before** a single row is touched.
//!
//! Today a malformed plan is only caught deep inside execution, after
//! admission slots, cache lookups and retry budget have been spent, via a
//! runtime [`EngineError`] (or, for a handful of internal invariants, a
//! panic). This module is the binder/validator layer in front of all of
//! that: it derives every plan node's output schema without executing,
//! type-checks expression trees against those schemas, and validates
//! federated fragment DAGs (`@frag` reference resolution, acyclicity,
//! site-placement validity) — producing structured [`PlanDiagnostic`]s
//! that carry a node path, a severity, and the runtime error kind the
//! defect would have surfaced as.
//!
//! # The contract
//!
//! The analyzer is **sound with respect to schema/type/DAG errors**: if
//! [`PlanAnalysis::is_valid`] holds for a plan (no [`Severity::Error`]
//! diagnostics), executing it — scalar or fused —
//! never returns [`EngineError::UnknownColumn`], [`EngineError::UnknownTable`],
//! [`EngineError::TypeMismatch`], [`EngineError::ColumnIndex`] or
//! [`EngineError::RaggedTable`], and never reaches one of the executor's
//! `unreachable!` invariants. (Data-dependent *value* errors —
//! division by a non-constant zero, NaN comparisons — are out of scope;
//! division by a **constant** zero is caught statically.) The property is
//! pinned by the soundness/completeness proptests in
//! `crates/engines/tests/analyzer.rs`.
//!
//! The converse is deliberately conservative: the executor's type errors
//! are *data-dependent* (NULL short-circuits before type checks, key
//! columns resolve lazily on non-empty inputs), so a plan the analyzer
//! rejects may happen to run cleanly on an empty or all-NULL table. The
//! analyzer treats every **may-error** construct as [`Severity::Error`]:
//! rejecting a plan that only errors on half its inputs is the point.
//! Constructs that can never error but can never do useful work either
//! (mismatched join-key families silently produce an empty join,
//! `IN`-lists no candidate can match) are [`Severity::Warning`]s.
//!
//! # Entry points
//!
//! * [`analyze_plan`] — one plan against a [`SchemaCatalog`];
//! * [`analyze_fragment_plans`] — an ordered fragment pipeline where plan
//!   `i` may scan `@frag<j>` for `j < i` (the
//!   [`TwoTableQuery`](crate::exec::FederatedQuery) shape: left prepare,
//!   right prepare, combine);
//! * [`analyze_federated`] — a full
//!   [`FederatedQuery`](crate::exec::FederatedQuery) against a
//!   [`Federation`]: everything above plus site-id bounds (an out-of-range
//!   [`SiteId`](midas_cloud::SiteId) would *panic* at dispatch) and
//!   instance-name resolution against each site's machine catalog.
//!
//! The federation runtime and the IReS scheduler run these at admission and
//! reject invalid plans with typed errors before any slot is taken — see
//! `midas::RuntimeError::InvalidPlan` / `midas_ires::SchedulerError::InvalidPlan`.

use crate::catalog::Catalog;
use crate::data::DataType;
#[cfg(doc)]
use crate::error::EngineError;
use crate::expr::{BinOp, Expr};
use crate::ops::{AggExpr, PhysicalPlan};
use crate::version::CatalogVersion;
use midas_cloud::Federation;
use std::collections::HashMap;
use std::fmt;

/// How bad a diagnostic is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// The plan executes without schema/type/DAG errors but cannot be
    /// doing what its author meant (an always-false predicate, join keys
    /// whose families can never match). Warnings do not fail validation.
    Warning,
    /// Executing the plan can (and on non-degenerate data will) surface a
    /// runtime `EngineError` or panic. Any Error diagnostic makes the plan
    /// invalid.
    Error,
}

/// What kind of defect a diagnostic describes. Each kind documents the
/// runtime behaviour it predicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DiagnosticKind {
    /// A scan references a table that is neither in the catalog nor a
    /// fragment output. Runtime: [`EngineError::UnknownTable`] on every
    /// execution path.
    UnknownTable,
    /// A scan name starts with `@frag` but does not parse as `@frag<N>`
    /// (`"@fragx"`, `"@frag2abc"`). The federated executor's reference
    /// collector skips such names entirely — they are neither dependencies
    /// nor base tables — so the scan falls through to a catalog lookup and
    /// fails as [`EngineError::UnknownTable`] (and, silently worse, the
    /// name is excluded from cache fingerprint closures).
    MalformedFragmentRef,
    /// Fragment `i` scans `@frag<j>` with `j >= i` (forward or dangling
    /// reference). Runtime: [`EngineError::Unavailable`] from the
    /// dependency analysis. Because references may only point backward,
    /// rejecting these is also the acyclicity and
    /// dependency-closure-completeness proof for the whole DAG.
    ForwardFragmentRef,
    /// A column index is out of bounds for its input schema. Runtime:
    /// [`EngineError::ColumnIndex`] wherever the column is resolved
    /// (expressions, sort keys, join/group keys on non-empty inputs,
    /// aggregate output assembly unconditionally).
    ColumnOutOfBounds,
    /// An expression mixes type families the evaluator refuses: comparing
    /// numeric against string/bool, arithmetic on non-numerics, boolean
    /// logic over non-booleans, `CONTAINS` on a non-string, or a filter
    /// predicate that is not boolean. Runtime:
    /// [`EngineError::TypeMismatch`] on the first row where the offending
    /// operands are non-NULL.
    TypeMismatch,
    /// `left_keys.len() != right_keys.len()` on a hash join. Runtime:
    /// [`EngineError::TypeMismatch`] ("join key arity mismatch"), checked
    /// before any data is touched.
    JoinKeyArity,
    /// Paired join keys come from different type families. The join never
    /// errors — keys of different families simply never compare equal — so
    /// the join is silently empty (inner) or all-NULL-padded (left outer).
    JoinKeyTypeMismatch,
    /// Division by a literal zero. Runtime: [`EngineError::DivisionByZero`]
    /// on the first row where the numerator is non-NULL (immediately, on
    /// the fused path, when both operands are literals).
    DivisionByConstantZero,
    /// A predicate that can never be true: a false literal comparison, a
    /// contradictory conjunction of range bounds on one column, or an
    /// `IN`-list none of whose candidates share the probed expression's
    /// family. Executes fine; selects nothing.
    AlwaysFalsePredicate,
    /// A numeric aggregate (`SUM`/`AVG`/`MIN`/`MAX`) over an expression
    /// statically typed non-numeric. The executor silently skips values
    /// that do not coerce to f64, so the aggregate is NULL/0-ish rather
    /// than an error — almost certainly not what was meant.
    AggregateNonNumeric,
    /// A fragment's [`SiteId`](midas_cloud::SiteId) is out of range for
    /// the federation. Runtime: an index **panic** at dispatch — the one
    /// defect class with no typed runtime error to fall back on.
    UnknownSite,
    /// A fragment names an instance type its site's machine catalog does
    /// not offer. Runtime: [`EngineError::Unavailable`] when the fragment's
    /// turn comes.
    UnknownInstance,
}

impl fmt::Display for DiagnosticKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            DiagnosticKind::UnknownTable => "unknown-table",
            DiagnosticKind::MalformedFragmentRef => "malformed-fragment-ref",
            DiagnosticKind::ForwardFragmentRef => "forward-fragment-ref",
            DiagnosticKind::ColumnOutOfBounds => "column-out-of-bounds",
            DiagnosticKind::TypeMismatch => "type-mismatch",
            DiagnosticKind::JoinKeyArity => "join-key-arity",
            DiagnosticKind::JoinKeyTypeMismatch => "join-key-type-mismatch",
            DiagnosticKind::DivisionByConstantZero => "division-by-constant-zero",
            DiagnosticKind::AlwaysFalsePredicate => "always-false-predicate",
            DiagnosticKind::AggregateNonNumeric => "aggregate-non-numeric",
            DiagnosticKind::UnknownSite => "unknown-site",
            DiagnosticKind::UnknownInstance => "unknown-instance",
        };
        f.write_str(name)
    }
}

/// One structured finding: where in the plan, how bad, what kind, and a
/// human-readable account of what the executor would have done.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanDiagnostic {
    /// [`Severity::Error`] invalidates the plan; warnings ride along.
    pub severity: Severity,
    /// The defect class (documents the predicted runtime error).
    pub kind: DiagnosticKind,
    /// Node path from the analysis root, e.g.
    /// `fragment[2]/Filter.predicate` or `Aggregate/HashJoin.left/Scan`.
    pub path: String,
    /// Full description with the offending names/indices/types.
    pub message: String,
}

impl fmt::Display for PlanDiagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sev = match self.severity {
            Severity::Warning => "warning",
            Severity::Error => "error",
        };
        write!(f, "{sev}[{}] at {}: {}", self.kind, self.path, self.message)
    }
}

/// A statically inferred output schema: one `(name, type)` per column.
/// `None` types mean "provably all-NULL" (a bare NULL literal, arithmetic
/// over one) — they unify with every type, exactly as NULL propagation
/// short-circuits every runtime type check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PlanSchema {
    /// Output columns in order.
    pub columns: Vec<(String, Option<DataType>)>,
}

impl PlanSchema {
    /// Number of output columns.
    pub fn width(&self) -> usize {
        self.columns.len()
    }

    fn ty(&self, i: usize) -> Option<DataType> {
        self.columns.get(i).and_then(|(_, t)| *t)
    }

    /// Schema of a concrete table: every column has a definite type.
    pub fn of_table(table: &crate::data::Table) -> PlanSchema {
        PlanSchema {
            columns: table
                .schema()
                .into_iter()
                .map(|(name, ty)| (name.to_string(), Some(ty)))
                .collect(),
        }
    }
}

/// The name → schema environment plans are analyzed against. Built from a
/// [`Catalog`], a [`CatalogVersion`] (without pinning — chunked tables
/// carry their schema on every chunk), or by hand; fragment analyses
/// extend it with `@frag<N>` entries as outputs are inferred.
#[derive(Debug, Clone, Default)]
pub struct SchemaCatalog {
    /// `None` marks a name that is known to exist but whose schema could
    /// not be derived (a fragment whose own analysis failed): scans of it
    /// resolve, and downstream column checks are suppressed instead of
    /// cascading bogus diagnostics.
    tables: HashMap<String, Option<PlanSchema>>,
}

impl SchemaCatalog {
    /// An empty environment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schemas of every table in an execution catalog.
    pub fn from_catalog(catalog: &Catalog) -> Self {
        let mut out = Self::new();
        for (name, table) in catalog.iter() {
            out.tables
                .insert(name.to_string(), Some(PlanSchema::of_table(table)));
        }
        out
    }

    /// Schemas of every table in a versioned catalog snapshot. Reads the
    /// first chunk's schema — **no pin, no compaction** — so admission-time
    /// validation never pays the snapshot cost.
    pub fn from_version(version: &CatalogVersion) -> Self {
        let mut out = Self::new();
        for name in version.names() {
            let schema = version
                .table(name)
                .and_then(|t| t.chunks().first().map(|c| PlanSchema::of_table(c)));
            out.tables.insert(name.to_string(), schema);
        }
        out
    }

    /// Registers (or replaces) a table's schema.
    pub fn insert(&mut self, name: impl Into<String>, schema: PlanSchema) {
        self.tables.insert(name.into(), Some(schema));
    }

    /// Registers a name whose schema is unknown: scans of it resolve but
    /// produce no column information.
    pub fn insert_opaque(&mut self, name: impl Into<String>) {
        self.tables.insert(name.into(), None);
    }

    /// The schema registered under `name`, if any (`Some(None)` = known
    /// but opaque).
    pub fn get(&self, name: &str) -> Option<Option<&PlanSchema>> {
        self.tables.get(name).map(Option::as_ref)
    }
}

/// What analyzing one plan produced.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanAnalysis {
    /// Everything found, in discovery (pre-order walk) order.
    pub diagnostics: Vec<PlanDiagnostic>,
    /// The plan's inferred output schema; `None` when an error made it
    /// underivable.
    pub schema: Option<PlanSchema>,
}

impl PlanAnalysis {
    /// True when no [`Severity::Error`] diagnostic was found. Warnings do
    /// not invalidate a plan.
    pub fn is_valid(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// The error-severity diagnostics only.
    pub fn errors(&self) -> impl Iterator<Item = &PlanDiagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }
}

/// The result of analyzing a whole [`FederatedQuery`](crate::exec::FederatedQuery).
#[derive(Debug, Clone, PartialEq)]
pub struct FederatedAnalysis {
    /// Per-fragment plan analyses, in fragment order.
    pub fragments: Vec<PlanAnalysis>,
    /// DAG-level and placement-level diagnostics (site bounds, instance
    /// resolution) that belong to fragments rather than plan nodes.
    pub diagnostics: Vec<PlanDiagnostic>,
}

impl FederatedAnalysis {
    /// True when neither the DAG checks nor any fragment analysis found an
    /// error.
    pub fn is_valid(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
            && self.fragments.iter().all(PlanAnalysis::is_valid)
    }

    /// Every diagnostic — DAG-level first, then per fragment in order.
    pub fn all_diagnostics(&self) -> Vec<PlanDiagnostic> {
        let mut out = self.diagnostics.clone();
        for f in &self.fragments {
            out.extend(f.diagnostics.iter().cloned());
        }
        out
    }

    /// Every error-severity diagnostic, in [`FederatedAnalysis::all_diagnostics`] order.
    pub fn errors(&self) -> Vec<PlanDiagnostic> {
        self.all_diagnostics()
            .into_iter()
            .filter(|d| d.severity == Severity::Error)
            .collect()
    }
}

/// Analyzes one plan against a schema environment.
pub fn analyze_plan(plan: &PhysicalPlan, schemas: &SchemaCatalog) -> PlanAnalysis {
    analyze_plan_at(plan, schemas, "")
}

/// [`analyze_plan`] with an explicit root path prefix (used by the
/// fragment-pipeline analyses so diagnostics say which fragment they are
/// from).
pub fn analyze_plan_at(plan: &PhysicalPlan, schemas: &SchemaCatalog, root: &str) -> PlanAnalysis {
    let mut cx = Ctx {
        schemas,
        diagnostics: Vec::new(),
    };
    let schema = cx.infer(plan, root);
    PlanAnalysis {
        diagnostics: cx.diagnostics,
        schema,
    }
}

/// Analyzes an ordered fragment pipeline: plan `i` may scan `@frag<j>` for
/// `j < i` (the convention of [`crate::exec::SharedExecutor`] and
/// `TwoTableQuery` — left prepare `@frag0`, right prepare `@frag1`,
/// combine last). Each plan's inferred output schema is registered before
/// the next plan is analyzed; forward and dangling `@frag` references are
/// rejected as [`DiagnosticKind::ForwardFragmentRef`].
pub fn analyze_fragment_plans(
    plans: &[&PhysicalPlan],
    schemas: &SchemaCatalog,
) -> Vec<PlanAnalysis> {
    let mut env = schemas.clone();
    let mut out = Vec::with_capacity(plans.len());
    for (i, plan) in plans.iter().enumerate() {
        let analysis = analyze_plan_at(plan, &env, &format!("fragment[{i}]"));
        match &analysis.schema {
            Some(schema) => env.insert(format!("@frag{i}"), schema.clone()),
            None => env.insert_opaque(format!("@frag{i}")),
        }
        out.push(analysis);
    }
    out
}

/// Analyzes a full federated query against a federation: the fragment
/// pipeline checks of [`analyze_fragment_plans`] plus, per fragment,
/// site-id bounds (an out-of-range site would panic at dispatch) and
/// instance-name resolution against the site's machine catalog.
pub fn analyze_federated(
    query: &crate::exec::FederatedQuery,
    schemas: &SchemaCatalog,
    federation: &Federation,
) -> FederatedAnalysis {
    let mut diagnostics = Vec::new();
    for (i, fragment) in query.fragments.iter().enumerate() {
        if fragment.site.0 >= federation.n_sites() {
            diagnostics.push(PlanDiagnostic {
                severity: Severity::Error,
                kind: DiagnosticKind::UnknownSite,
                path: format!("fragment[{i}].site"),
                message: format!(
                    "site {} is out of range for a federation of {} sites \
                     (dispatch would panic)",
                    fragment.site.0,
                    federation.n_sites()
                ),
            });
        } else if federation
            .site(fragment.site)
            .catalog
            .by_name(&fragment.instance)
            .is_none()
        {
            diagnostics.push(PlanDiagnostic {
                severity: Severity::Error,
                kind: DiagnosticKind::UnknownInstance,
                path: format!("fragment[{i}].instance"),
                message: format!(
                    "instance {:?} is not in site {:?}'s machine catalog",
                    fragment.instance,
                    federation.site(fragment.site).name
                ),
            });
        }
    }
    let plans: Vec<&PhysicalPlan> = query.fragments.iter().map(|f| &f.plan).collect();
    FederatedAnalysis {
        fragments: analyze_fragment_plans(&plans, schemas),
        diagnostics,
    }
}

/// The three type families the evaluator distinguishes. `Int64`,
/// `Float64` and `Date` all compare and combine through `as_f64`; `Utf8`
/// and `Bool` only meet their own kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Family {
    Numeric,
    Text,
    Boolean,
}

pub(crate) fn family(ty: DataType) -> Family {
    match ty {
        DataType::Int64 | DataType::Float64 | DataType::Date => Family::Numeric,
        DataType::Utf8 => Family::Text,
        DataType::Bool => Family::Boolean,
    }
}

fn ty_name(ty: Option<DataType>) -> &'static str {
    match ty {
        None => "NULL",
        Some(DataType::Int64) => "Int64",
        Some(DataType::Float64) => "Float64",
        Some(DataType::Utf8) => "Utf8",
        Some(DataType::Date) => "Date",
        Some(DataType::Bool) => "Bool",
    }
}

/// One analysis pass's mutable state.
struct Ctx<'a> {
    schemas: &'a SchemaCatalog,
    diagnostics: Vec<PlanDiagnostic>,
}

impl Ctx<'_> {
    fn push(&mut self, severity: Severity, kind: DiagnosticKind, path: &str, message: String) {
        self.diagnostics.push(PlanDiagnostic {
            severity,
            kind,
            path: path.to_string(),
            message,
        });
    }

    /// Infers `plan`'s output schema, recording diagnostics along the way.
    /// `None` means "underivable here" — the scan failed to resolve or the
    /// input was already underivable; column checks against a `None`
    /// schema are suppressed rather than cascaded.
    fn infer(&mut self, plan: &PhysicalPlan, path: &str) -> Option<PlanSchema> {
        let seg = |node: &str| -> String {
            if path.is_empty() {
                node.to_string()
            } else {
                format!("{path}/{node}")
            }
        };
        match plan {
            PhysicalPlan::Scan { table } => self.resolve_scan(table, &seg("Scan")),
            PhysicalPlan::Filter { input, predicate } => {
                let p = seg("Filter");
                let schema = self.infer(input, &p);
                self.check_predicate(predicate, schema.as_ref(), &format!("{p}.predicate"));
                schema
            }
            PhysicalPlan::Project { input, exprs } => {
                let p = seg("Project");
                let input_schema = self.infer(input, &p);
                let mut columns = Vec::with_capacity(exprs.len());
                for (i, (name, expr)) in exprs.iter().enumerate() {
                    let ty = self.type_expr(
                        expr,
                        input_schema.as_ref(),
                        &format!("{p}.exprs[{i}]"),
                    );
                    columns.push((name.clone(), ty));
                }
                // A project's output is always derivable: its width is the
                // expression list, and unresolvable expression types are
                // individually None.
                Some(PlanSchema { columns })
            }
            PhysicalPlan::HashJoin {
                left,
                right,
                left_keys,
                right_keys,
                join_type: _,
            } => {
                let p = seg("HashJoin");
                let ls = self.infer(left, &format!("{p}.left"));
                let rs = self.infer(right, &format!("{p}.right"));
                if left_keys.len() != right_keys.len() {
                    self.push(
                        Severity::Error,
                        DiagnosticKind::JoinKeyArity,
                        &p,
                        format!(
                            "{} left keys vs {} right keys — the join rejects \
                             mismatched arity before touching data",
                            left_keys.len(),
                            right_keys.len()
                        ),
                    );
                }
                self.check_keys(left_keys, ls.as_ref(), &format!("{p}.left_keys"));
                self.check_keys(right_keys, rs.as_ref(), &format!("{p}.right_keys"));
                // Family-compatible key pairs: incompatible ones never
                // match, so the join silently degenerates.
                if let (Some(ls), Some(rs)) = (&ls, &rs) {
                    for (slot, (&lk, &rk)) in
                        left_keys.iter().zip(right_keys.iter()).enumerate()
                    {
                        if let (Some(lt), Some(rt)) = (ls.ty(lk), rs.ty(rk)) {
                            if family(lt) != family(rt) {
                                self.push(
                                    Severity::Warning,
                                    DiagnosticKind::JoinKeyTypeMismatch,
                                    &p,
                                    format!(
                                        "key pair {slot} joins {} against {} — \
                                         different families never compare equal, \
                                         so the join matches nothing",
                                        ty_name(Some(lt)),
                                        ty_name(Some(rt))
                                    ),
                                );
                            }
                        }
                    }
                }
                // Output: all left columns then all right columns.
                match (ls, rs) {
                    (Some(mut ls), Some(rs)) => {
                        ls.columns.extend(rs.columns);
                        Some(ls)
                    }
                    _ => None,
                }
            }
            PhysicalPlan::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let p = seg("Aggregate");
                let input_schema = self.infer(input, &p);
                self.check_keys(group_by, input_schema.as_ref(), &format!("{p}.group_by"));
                let mut columns = Vec::with_capacity(group_by.len() + aggs.len());
                for &g in group_by {
                    match &input_schema {
                        Some(s) if g < s.width() => columns.push(s.columns[g].clone()),
                        _ => columns.push((format!("group{g}"), None)),
                    }
                }
                for (i, (name, agg)) in aggs.iter().enumerate() {
                    let apath = format!("{p}.aggs[{i}]");
                    let out_ty = self.check_agg(agg, input_schema.as_ref(), &apath);
                    columns.push((name.clone(), out_ty));
                }
                Some(PlanSchema { columns })
            }
            PhysicalPlan::Sort { input, by } => {
                let p = seg("Sort");
                let schema = self.infer(input, &p);
                let keys: Vec<usize> = by.iter().map(|&(c, _)| c).collect();
                self.check_keys(&keys, schema.as_ref(), &format!("{p}.by"));
                schema
            }
        }
    }

    /// Resolves a scan name: catalog table, fragment output, forward /
    /// dangling / malformed fragment reference, or unknown table.
    fn resolve_scan(&mut self, table: &str, path: &str) -> Option<PlanSchema> {
        match self.schemas.get(table) {
            Some(Some(schema)) => Some(schema.clone()),
            Some(None) => None, // known but opaque: suppress column checks
            None => {
                if let Some(rest) = table.strip_prefix("@frag") {
                    if rest.parse::<usize>().is_ok() {
                        self.push(
                            Severity::Error,
                            DiagnosticKind::ForwardFragmentRef,
                            path,
                            format!(
                                "{table:?} refers to a fragment that is not \
                                 produced before this plan — fragments may only \
                                 read earlier fragments (the executor rejects \
                                 this as Unavailable)"
                            ),
                        );
                    } else {
                        self.push(
                            Severity::Error,
                            DiagnosticKind::MalformedFragmentRef,
                            path,
                            format!(
                                "{table:?} looks like a fragment reference but \
                                 does not parse as @frag<N>; the executor would \
                                 neither wire it as a dependency nor find it in \
                                 the catalog (UnknownTable), and cache \
                                 fingerprints would silently exclude it"
                            ),
                        );
                    }
                } else {
                    self.push(
                        Severity::Error,
                        DiagnosticKind::UnknownTable,
                        path,
                        format!("table {table:?} is not in the catalog"),
                    );
                }
                None
            }
        }
    }

    /// Bounds-checks a key/index list against a schema (suppressed when
    /// the schema is underivable).
    fn check_keys(&mut self, keys: &[usize], schema: Option<&PlanSchema>, path: &str) {
        let Some(schema) = schema else { return };
        for (slot, &k) in keys.iter().enumerate() {
            if k >= schema.width() {
                self.push(
                    Severity::Error,
                    DiagnosticKind::ColumnOutOfBounds,
                    path,
                    format!(
                        "key {slot} references column {k} of a {}-column input",
                        schema.width()
                    ),
                );
            }
        }
    }

    /// Types a predicate position: the expression itself plus the
    /// boolean-output requirement and the always-false screens.
    fn check_predicate(&mut self, predicate: &Expr, schema: Option<&PlanSchema>, path: &str) {
        let ty = self.type_expr(predicate, schema, path);
        if let Some(t) = ty {
            if family(t) != Family::Boolean {
                self.push(
                    Severity::Error,
                    DiagnosticKind::TypeMismatch,
                    path,
                    format!(
                        "predicate produces {} — the filter requires a boolean \
                         (or NULL) and raises TypeMismatch otherwise",
                        ty_name(ty)
                    ),
                );
            }
        }
        self.check_always_false(predicate, schema, path);
    }

    /// Types one aggregate expression; returns the aggregate's output
    /// column type.
    fn check_agg(
        &mut self,
        agg: &AggExpr,
        schema: Option<&PlanSchema>,
        path: &str,
    ) -> Option<DataType> {
        match agg {
            AggExpr::Count => Some(DataType::Int64),
            AggExpr::CountIf(pred) => {
                let ty = self.type_expr(pred, schema, path);
                if ty.is_some_and(|t| family(t) != Family::Boolean) {
                    self.push(
                        Severity::Warning,
                        DiagnosticKind::AlwaysFalsePredicate,
                        path,
                        format!(
                            "COUNT-IF predicate produces {} — non-boolean \
                             predicates never count",
                            ty_name(ty)
                        ),
                    );
                }
                Some(DataType::Int64)
            }
            AggExpr::SumIf { value, predicate } => {
                let vt = self.type_expr(value, schema, path);
                if vt.is_some_and(|t| family(t) != Family::Numeric) {
                    self.push(
                        Severity::Warning,
                        DiagnosticKind::AggregateNonNumeric,
                        path,
                        format!(
                            "SUM-IF over {} — non-numeric values are silently \
                             skipped",
                            ty_name(vt)
                        ),
                    );
                }
                let pt = self.type_expr(predicate, schema, path);
                if pt.is_some_and(|t| family(t) != Family::Boolean) {
                    self.push(
                        Severity::Warning,
                        DiagnosticKind::AlwaysFalsePredicate,
                        path,
                        format!(
                            "SUM-IF predicate produces {} — non-boolean \
                             predicates never fire",
                            ty_name(pt)
                        ),
                    );
                }
                Some(DataType::Float64)
            }
            AggExpr::Sum(e) | AggExpr::Avg(e) | AggExpr::Min(e) | AggExpr::Max(e) => {
                let ty = self.type_expr(e, schema, path);
                if ty.is_some_and(|t| family(t) != Family::Numeric) {
                    self.push(
                        Severity::Warning,
                        DiagnosticKind::AggregateNonNumeric,
                        path,
                        format!(
                            "numeric aggregate over {} — values that do not \
                             coerce to f64 are silently skipped",
                            ty_name(ty)
                        ),
                    );
                }
                Some(DataType::Float64)
            }
        }
    }

    /// Infers an expression's static type against `schema`, recording type
    /// errors. `None` = provably NULL (or unknowable after an error);
    /// NULL unifies with everything, mirroring the evaluator's NULL
    /// short-circuits.
    fn type_expr(
        &mut self,
        expr: &Expr,
        schema: Option<&PlanSchema>,
        path: &str,
    ) -> Option<DataType> {
        match expr {
            Expr::Col(i) => match schema {
                None => None,
                Some(s) => {
                    if *i >= s.width() {
                        self.push(
                            Severity::Error,
                            DiagnosticKind::ColumnOutOfBounds,
                            path,
                            format!(
                                "column {i} referenced in a {}-column input",
                                s.width()
                            ),
                        );
                        None
                    } else {
                        s.ty(*i)
                    }
                }
            },
            Expr::Lit(v) => v.data_type(),
            Expr::Bin { op, left, right } => {
                let lt = self.type_expr(left, schema, path);
                let rt = self.type_expr(right, schema, path);
                match op {
                    BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div => {
                        for (side, ty) in [("left", lt), ("right", rt)] {
                            if ty.is_some_and(|t| family(t) != Family::Numeric) {
                                self.push(
                                    Severity::Error,
                                    DiagnosticKind::TypeMismatch,
                                    path,
                                    format!(
                                        "arithmetic {op:?} {side} operand is {} — \
                                         only numeric families combine",
                                        ty_name(ty)
                                    ),
                                );
                            }
                        }
                        if *op == BinOp::Div {
                            if let Expr::Lit(v) = right.as_ref() {
                                if v.as_f64() == Some(0.0) {
                                    self.push(
                                        Severity::Error,
                                        DiagnosticKind::DivisionByConstantZero,
                                        path,
                                        "division by a literal zero".to_string(),
                                    );
                                }
                            }
                        }
                        match (lt, rt) {
                            (None, _) | (_, None) => None, // NULL operand: always NULL
                            (Some(DataType::Int64), Some(DataType::Int64))
                                if *op != BinOp::Div =>
                            {
                                Some(DataType::Int64)
                            }
                            _ => Some(DataType::Float64),
                        }
                    }
                    BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        if let (Some(l), Some(r)) = (lt, rt) {
                            if family(l) != family(r) {
                                self.push(
                                    Severity::Error,
                                    DiagnosticKind::TypeMismatch,
                                    path,
                                    format!(
                                        "{op:?} compares {} against {} — mixed \
                                         families raise TypeMismatch on the first \
                                         row where both sides are non-NULL",
                                        ty_name(lt),
                                        ty_name(rt)
                                    ),
                                );
                            }
                        }
                        Some(DataType::Bool)
                    }
                    BinOp::And | BinOp::Or => {
                        for (side, ty) in [("left", lt), ("right", rt)] {
                            if ty.is_some_and(|t| family(t) != Family::Boolean) {
                                self.push(
                                    Severity::Error,
                                    DiagnosticKind::TypeMismatch,
                                    path,
                                    format!(
                                        "{op:?} {side} operand is {} — boolean \
                                         logic requires Bool or NULL",
                                        ty_name(ty)
                                    ),
                                );
                            }
                        }
                        Some(DataType::Bool)
                    }
                }
            }
            Expr::Not(e) => {
                let ty = self.type_expr(e, schema, path);
                if ty.is_some_and(|t| family(t) != Family::Boolean) {
                    self.push(
                        Severity::Error,
                        DiagnosticKind::TypeMismatch,
                        path,
                        format!("NOT over {} — requires Bool or NULL", ty_name(ty)),
                    );
                }
                Some(DataType::Bool)
            }
            Expr::InList { expr, list } => {
                let ty = self.type_expr(expr, schema, path);
                if let Some(t) = ty {
                    let has_candidate = list
                        .iter()
                        .any(|v| v.data_type().is_some_and(|c| family(c) == family(t)));
                    if !list.is_empty() && !has_candidate {
                        self.push(
                            Severity::Warning,
                            DiagnosticKind::AlwaysFalsePredicate,
                            path,
                            format!(
                                "IN-list probes {} but no candidate shares its \
                                 family — membership is always false",
                                ty_name(ty)
                            ),
                        );
                    }
                }
                Some(DataType::Bool)
            }
            Expr::IsNull(e) => {
                self.type_expr(e, schema, path);
                Some(DataType::Bool)
            }
            Expr::Contains { expr, .. } => {
                let ty = self.type_expr(expr, schema, path);
                if ty.is_some_and(|t| family(t) != Family::Text) {
                    self.push(
                        Severity::Error,
                        DiagnosticKind::TypeMismatch,
                        path,
                        format!(
                            "CONTAINS probes {} — requires Utf8 or NULL",
                            ty_name(ty)
                        ),
                    );
                }
                Some(DataType::Bool)
            }
        }
    }

    /// Screens a predicate for statically provable emptiness: false
    /// literal results and contradictory single-column range conjunctions.
    fn check_always_false(&mut self, predicate: &Expr, schema: Option<&PlanSchema>, path: &str) {
        // Literal-literal constant folding at the root.
        if let Some(false) = const_bool(predicate) {
            self.push(
                Severity::Warning,
                DiagnosticKind::AlwaysFalsePredicate,
                path,
                "predicate constant-folds to false".to_string(),
            );
            return;
        }
        // Contradictory numeric bounds on one column across a conjunction:
        // e.g. `col0 > 5 AND col0 < 3`.
        let Some(schema) = schema else { return };
        let mut bounds: HashMap<usize, (f64, f64)> = HashMap::new(); // col -> (lo, hi)
        let mut conjuncts = Vec::new();
        collect_conjuncts(predicate, &mut conjuncts);
        for c in conjuncts {
            let Some((col, op, lit)) = column_vs_literal(c) else {
                continue;
            };
            if schema.ty(col).map(family) != Some(Family::Numeric) {
                continue;
            }
            let Some(x) = lit.as_f64() else { continue };
            let (lo, hi) = bounds
                .entry(col)
                .or_insert((f64::NEG_INFINITY, f64::INFINITY));
            match op {
                BinOp::Eq => {
                    *lo = lo.max(x);
                    *hi = hi.min(x);
                }
                BinOp::Gt | BinOp::Ge => *lo = lo.max(x),
                BinOp::Lt | BinOp::Le => *hi = hi.min(x),
                _ => {}
            }
            if lo > hi {
                self.push(
                    Severity::Warning,
                    DiagnosticKind::AlwaysFalsePredicate,
                    path,
                    format!(
                        "conjunction bounds column {col} to an empty interval \
                         ({lo} > {hi}) — the predicate never selects a row"
                    ),
                );
                return;
            }
        }
    }
}

/// Evaluates a literal-only boolean expression, `None` when not constant.
/// Mirrors the evaluator: comparisons across families are errors (reported
/// elsewhere), so only same-family literal comparisons fold here.
fn const_bool(e: &Expr) -> Option<bool> {
    match e {
        Expr::Lit(crate::data::Value::Bool(b)) => Some(*b),
        Expr::Bin { op, left, right } => {
            let (Expr::Lit(l), Expr::Lit(r)) = (left.as_ref(), right.as_ref()) else {
                match op {
                    BinOp::And => {
                        let lv = const_bool(left);
                        let rv = const_bool(right);
                        return match (lv, rv) {
                            (Some(false), _) | (_, Some(false)) => Some(false),
                            (Some(true), Some(true)) => Some(true),
                            _ => None,
                        };
                    }
                    BinOp::Or => {
                        let lv = const_bool(left);
                        let rv = const_bool(right);
                        return match (lv, rv) {
                            (Some(true), _) | (_, Some(true)) => Some(true),
                            (Some(false), Some(false)) => Some(false),
                            _ => None,
                        };
                    }
                    _ => return None,
                }
            };
            let (lt, rt) = (l.data_type(), r.data_type());
            let (lt, rt) = (lt?, rt?);
            if family(lt) != family(rt) {
                return None; // a type error, not a foldable comparison
            }
            let ord = match (l.as_f64(), r.as_f64()) {
                (Some(x), Some(y)) => x.partial_cmp(&y)?,
                _ => match (l, r) {
                    (crate::data::Value::Utf8(x), crate::data::Value::Utf8(y)) => x.cmp(y),
                    (crate::data::Value::Bool(x), crate::data::Value::Bool(y)) => x.cmp(y),
                    _ => return None,
                },
            };
            use std::cmp::Ordering;
            match op {
                BinOp::Eq => Some(ord == Ordering::Equal),
                BinOp::Ne => Some(ord != Ordering::Equal),
                BinOp::Lt => Some(ord == Ordering::Less),
                BinOp::Le => Some(ord != Ordering::Greater),
                BinOp::Gt => Some(ord == Ordering::Greater),
                BinOp::Ge => Some(ord != Ordering::Less),
                _ => None,
            }
        }
        Expr::Not(inner) => const_bool(inner).map(|b| !b),
        _ => None,
    }
}

/// Flattens an `AND` tree into its conjuncts.
fn collect_conjuncts<'e>(e: &'e Expr, out: &mut Vec<&'e Expr>) {
    match e {
        Expr::Bin {
            op: BinOp::And,
            left,
            right,
        } => {
            collect_conjuncts(left, out);
            collect_conjuncts(right, out);
        }
        other => out.push(other),
    }
}

/// Matches `Col(i) <op> Lit(v)` or `Lit(v) <op> Col(i)` (op flipped), the
/// shape the range-contradiction screen understands.
fn column_vs_literal(e: &Expr) -> Option<(usize, BinOp, &crate::data::Value)> {
    let Expr::Bin { op, left, right } = e else {
        return None;
    };
    match (left.as_ref(), right.as_ref()) {
        (Expr::Col(i), Expr::Lit(v)) => Some((*i, *op, v)),
        (Expr::Lit(v), Expr::Col(i)) => {
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            Some((*i, flipped, v))
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData, Table, Value};

    fn demo_catalog() -> SchemaCatalog {
        let mut catalog = Catalog::new();
        catalog.insert(
            "t".to_string(),
            Table::new(
                "t",
                vec![
                    Column::new("k", ColumnData::Int64(vec![1, 2])),
                    Column::new(
                        "s",
                        ColumnData::Utf8(vec!["a".to_string(), "b".to_string()].into()),
                    ),
                ],
            )
            .expect("aligned"),
        );
        SchemaCatalog::from_catalog(&catalog)
    }

    #[test]
    fn scan_schema_matches_table() {
        let schemas = demo_catalog();
        let plan = PhysicalPlan::Scan {
            table: "t".to_string(),
        };
        let analysis = analyze_plan(&plan, &schemas);
        assert!(analysis.is_valid());
        let schema = analysis.schema.expect("derivable");
        assert_eq!(
            schema.columns,
            vec![
                ("k".to_string(), Some(DataType::Int64)),
                ("s".to_string(), Some(DataType::Utf8)),
            ]
        );
    }

    #[test]
    fn ghost_table_is_rejected_with_path() {
        let schemas = demo_catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "ghost".to_string(),
            }),
            predicate: Expr::col(0).eq(Expr::int(1)),
        };
        let analysis = analyze_plan(&plan, &schemas);
        assert!(!analysis.is_valid());
        let err = analysis.errors().next().expect("one error");
        assert_eq!(err.kind, DiagnosticKind::UnknownTable);
        assert_eq!(err.path, "Filter/Scan");
        // The scan failed, so downstream column checks are suppressed —
        // exactly one diagnostic, no cascade.
        assert_eq!(analysis.diagnostics.len(), 1);
    }

    #[test]
    fn fragment_pipeline_registers_outputs_in_order() {
        let schemas = demo_catalog();
        let prepare = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".to_string(),
            }),
            exprs: vec![("kk".to_string(), Expr::col(0))],
        };
        let combine = PhysicalPlan::Scan {
            table: "@frag0".to_string(),
        };
        let analyses = analyze_fragment_plans(&[&prepare, &combine], &schemas);
        assert!(analyses.iter().all(PlanAnalysis::is_valid));
        assert_eq!(
            analyses[1].schema.as_ref().expect("derivable").columns,
            vec![("kk".to_string(), Some(DataType::Int64))]
        );
    }

    #[test]
    fn forward_reference_is_rejected() {
        let schemas = demo_catalog();
        let head = PhysicalPlan::Scan {
            table: "@frag1".to_string(),
        };
        let tail = PhysicalPlan::Scan {
            table: "t".to_string(),
        };
        let analyses = analyze_fragment_plans(&[&head, &tail], &schemas);
        assert_eq!(
            analyses[0].diagnostics[0].kind,
            DiagnosticKind::ForwardFragmentRef
        );
        assert!(analyses[1].is_valid());
    }

    #[test]
    fn always_false_interval_is_a_warning_not_an_error() {
        let schemas = demo_catalog();
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".to_string(),
            }),
            predicate: Expr::col(0)
                .gt(Expr::int(5))
                .and(Expr::col(0).lt(Expr::int(3))),
        };
        let analysis = analyze_plan(&plan, &schemas);
        assert!(analysis.is_valid(), "warnings do not invalidate");
        assert_eq!(
            analysis.diagnostics[0].kind,
            DiagnosticKind::AlwaysFalsePredicate
        );
    }

    #[test]
    fn null_literal_unifies_with_everything() {
        let schemas = demo_catalog();
        // s = NULL: comparing Utf8 against a NULL literal is fine (always
        // NULL at runtime, never a type error) — but it must still be a
        // boolean predicate.
        let plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".to_string(),
            }),
            predicate: Expr::col(1).eq(Expr::Lit(Value::Null)),
        };
        assert!(analyze_plan(&plan, &schemas).is_valid());
    }

    #[test]
    fn division_by_constant_zero_is_static() {
        let schemas = demo_catalog();
        let plan = PhysicalPlan::Project {
            input: Box::new(PhysicalPlan::Scan {
                table: "t".to_string(),
            }),
            exprs: vec![(
                "d".to_string(),
                Expr::col(0).div(Expr::int(0)),
            )],
        };
        let analysis = analyze_plan(&plan, &schemas);
        assert!(!analysis.is_valid());
        assert_eq!(
            analysis.errors().next().expect("err").kind,
            DiagnosticKind::DivisionByConstantZero
        );
    }
}
