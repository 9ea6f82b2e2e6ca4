//! # midas-engines
//!
//! The multi-engine execution substrate standing in for the paper's testbed
//! (Hadoop/Hive + PostgreSQL + Spark on a private cloud).
//!
//! Two cleanly separated halves:
//!
//! 1. **A real relational executor** ([`data`], [`expr`], [`ops`]): typed
//!    columnar tables, scalar expressions, and physical operators (scan,
//!    filter, project, hash join, left-outer join, aggregation, sort)
//!    that actually process rows. Running a plan yields both its result table
//!    and a [`ops::WorkProfile`] — the tuple and byte counts each operator
//!    touched.
//! 2. **A performance simulator** ([`engine`], [`sim`], [`exec`]): per-engine
//!    cost profiles (startup latency, per-tuple costs, parallel fraction),
//!    per-site load that *drifts over time* (regime shifts + noise — the
//!    cloud-federation variance that motivates DREAM), and a translator from
//!    a work profile + VM configuration to wall-clock seconds and money.
//!
//! The split is the substitution documented in DESIGN.md: estimators only
//! ever see `(features, observed cost)` pairs, so a simulator that produces
//! per-regime-linear, drifting, engine-dependent costs exercises exactly the
//! same estimation problem as the authors' physical cluster.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// An eagerly built `ok_or`/`map_or`/`unwrap_or` argument in a per-row loop
// is a hidden allocation per row (PR 20: 2.4 M mallocs per Q12 prepare);
// `scripts/verify.sh` denies warnings, so this keeps the class out.
#![warn(clippy::or_fun_call)]

pub mod analyze;
pub mod cache;
pub mod catalog;
pub mod data;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod fused;
pub mod ops;
pub mod placement;
pub mod sim;
pub mod version;

/// Locks `m`, taking the guard out of a poisoned lock instead of panicking
/// — the one way this workspace locks a mutex outside tests. Recovery is
/// sound because every mutex here guards state that is valid at each
/// unlock: queues, counters, maps of handles, append-only histories, the
/// simulation's clock arithmetic. Each operation finishes its bookkeeping
/// under one lock and none can panic midway, so a panic elsewhere on a
/// lock-holding thread leaves nothing half-updated for a later reader —
/// and one bad job must fail alone, not abort the whole runtime through a
/// `PoisonError` expect.
pub fn lock_recover<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

pub use analyze::{
    analyze_federated, analyze_fragment_plans, analyze_plan, DiagnosticKind, FederatedAnalysis,
    PlanAnalysis, PlanDiagnostic, PlanSchema, SchemaCatalog, Severity,
};
pub use cache::{
    CacheKey, CacheScope, CacheStats, CachedFragment, FragmentResultCache, PlanFingerprint,
    PlanningStats, ScopedCache,
};
pub use catalog::Catalog;
pub use data::{Column, ColumnData, DataType, Table, Utf8Column, Value};
pub use engine::{EngineKind, EngineProfile};
pub use error::EngineError;
pub use exec::{
    fragment_keys, profile_fragments, profile_fragments_cached, scanned_base_tables,
    ExecutionOutcome, ProfiledFragment, ResultCacheBinding, SharedExecutor,
};
pub use expr::Expr;
pub use fused::{execute_fused, fused_paths, DeltaState, FusedPath, TableSource, MORSEL_ROWS};
pub use ops::{AggExpr, JoinType, PhysicalPlan, WorkProfile};
pub use placement::Placement;
pub use sim::{split_seed, AdmissionStats, LoadModel, SimulationEnv, SiteAdmission};
pub use version::{
    AppendStats, CatalogVersion, ChunkedTable, IngestReceipt, IngestStats, VersionedCatalog,
};
