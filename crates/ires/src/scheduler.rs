//! The fixed-configuration executor.
//!
//! [`Scheduler`] runs one query instance under a configuration its caller
//! chose, on a drifting simulation environment of its own, and returns the
//! learning signals (features and observed costs). It plans nothing and
//! learns nothing: trace recorders (`midas::experiments::mre`, the
//! estimation benchmark) feed their own estimators, and the plan → execute
//! → learn driver is `midas::runtime::FederationRuntime`, which shares
//! [`features_from`] and [`base_rows`] with it.

use crate::enumerate::{assemble, CandidateConfig};
use midas_cloud::Federation;
use midas_dream::EstimationError;
use midas_engines::exec::{ExecutionOutcome, SharedExecutor};
use midas_engines::sim::{DriftIntensity, SimulationEnv, SiteAdmission};
use midas_engines::{lock_recover, EngineError, Placement, SchemaCatalog, TableSource};
use midas_tpch::TwoTableQuery;
use std::sync::{Mutex, MutexGuard};

/// Scheduler construction parameters.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Simulation seed.
    pub seed: u64,
    /// Environment drift intensity.
    pub drift: DriftIntensity,
    /// Logical rows per physical row (1.0 for uncapped datasets; pass
    /// `1 / rescale` for row-capped TPC-H databases).
    pub work_scale: f64,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            seed: 42,
            drift: DriftIntensity::Strong,
            work_scale: 1.0,
        }
    }
}

/// One executed query with its learning signals.
#[derive(Debug, Clone)]
pub struct ExecutedQuery {
    /// The instance label.
    pub label: String,
    /// Feature vector: rows of the prepared left and right inputs.
    pub features: Vec<f64>,
    /// Observed cost vector `(time s, money $)`.
    pub costs: Vec<f64>,
    /// The full execution record.
    pub outcome: ExecutionOutcome,
}

/// Errors the scheduler can surface.
#[derive(Debug, Clone, PartialEq)]
pub enum SchedulerError {
    /// Plan construction or execution failed.
    Engine(EngineError),
    /// Estimation failed.
    Estimation(EstimationError),
    /// Cost-model pressure configuration was malformed (NaN/negative
    /// penalty knobs — see
    /// [`CostModelError`](crate::costmodel::CostModelError)).
    CostModel(crate::costmodel::CostModelError),
    /// A query referenced a base table the data catalog does not hold.
    ///
    /// Historically this was swallowed by treating the missing table as
    /// empty (`map_or(0, …)` on the lookup), which silently fed zero-row
    /// features to the learners; now it is a first-class error.
    MissingTable {
        /// The table the query asked for.
        table: String,
    },
    /// The static plan analyzer rejected the assembled federated query
    /// before execution: schema/type/DAG defects that would have surfaced
    /// as runtime `EngineError`s (or a dispatch panic) mid-flight.
    InvalidPlan {
        /// The error-severity diagnostics, in discovery order.
        diagnostics: Vec<midas_engines::PlanDiagnostic>,
    },
}

impl std::fmt::Display for SchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedulerError::Engine(e) => write!(f, "engine: {e}"),
            SchedulerError::Estimation(e) => write!(f, "estimation: {e}"),
            SchedulerError::CostModel(e) => write!(f, "cost model: {e}"),
            SchedulerError::MissingTable { table } => {
                write!(f, "table {table:?} is not in the data catalog")
            }
            SchedulerError::InvalidPlan { diagnostics } => {
                write!(f, "plan rejected by static analysis:")?;
                for d in diagnostics {
                    write!(f, " [{d}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for SchedulerError {}

impl From<EngineError> for SchedulerError {
    fn from(e: EngineError) -> Self {
        SchedulerError::Engine(e)
    }
}

impl From<crate::costmodel::CostModelError> for SchedulerError {
    fn from(e: crate::costmodel::CostModelError) -> Self {
        SchedulerError::CostModel(e)
    }
}

/// The fixed-configuration executor bound to one federation.
pub struct Scheduler<'a> {
    federation: &'a Federation,
    placement: Placement,
    /// The scheduler is its env's only user; the lock is what
    /// [`SharedExecutor`] takes, never contended here.
    env: Mutex<SimulationEnv>,
    admission: SiteAdmission,
    work_scale: f64,
}

impl<'a> Scheduler<'a> {
    /// Builds a scheduler; registers every federation site in the
    /// simulation environment with the configured drift.
    pub fn new(federation: &'a Federation, placement: Placement, config: SchedulerConfig) -> Self {
        let mut env = SimulationEnv::new();
        for site in federation.site_ids() {
            env.register_site(site, config.seed, config.drift);
        }
        Scheduler {
            federation,
            placement,
            env: Mutex::new(env),
            admission: SiteAdmission::unmetered(),
            work_scale: if config.work_scale.is_finite() && config.work_scale > 0.0 {
                config.work_scale
            } else {
                1.0
            },
        }
    }

    /// The placement in use.
    pub fn placement(&self) -> &Placement {
        &self.placement
    }

    fn env(&self) -> MutexGuard<'_, SimulationEnv> {
        lock_recover(&self.env)
    }

    /// Executes one query instance under an explicit configuration and
    /// returns the learning signals.
    ///
    /// Features are the "size of data" regressors of the paper's Section 3,
    /// in the spirit of Example 2.1's `x_Pa`/`x_Ge`: the raw row counts of
    /// the two base tables (known from catalog statistics) plus the two
    /// prepared-side row counts (the optimizer's cardinality estimates for
    /// the join inputs).
    ///
    /// `tables` is a flat catalog or a pinned `CatalogVersion`; over a
    /// version, snapshot isolation is the version's — however many ingests
    /// publish while this runs, the query reads exactly its rows.
    pub fn execute_with_config<'t>(
        &mut self,
        query: &TwoTableQuery,
        config: &CandidateConfig,
        tables: impl Into<TableSource<'t>>,
    ) -> Result<ExecutedQuery, SchedulerError> {
        let tables = tables.into();
        let federated = assemble(self.federation, &self.placement, query, config)?;
        let left_rows = base_rows(tables, &query.left_table)?;
        let right_rows = base_rows(tables, &query.right_table)?;
        // Static validation before execution: a plan that would surface a
        // schema/type/DAG error mid-flight is rejected here with the full
        // diagnostic set instead of the first runtime error it happens to
        // hit. (Placement errors stay `Engine` — `assemble` above fails
        // first for unplaced tables.)
        let schemas = match tables {
            TableSource::Flat(catalog) => SchemaCatalog::from_catalog(catalog),
            TableSource::Versioned(version) => SchemaCatalog::from_version(version),
        };
        let analysis = midas_engines::analyze_federated(&federated, &schemas, self.federation);
        if !analysis.is_valid() {
            return Err(SchedulerError::InvalidPlan {
                diagnostics: analysis.errors(),
            });
        }
        let outcome = SharedExecutor::new(self.federation, &self.env, &self.admission)
            .run_with_scale(&federated, tables, self.work_scale)?;
        let features = features_from(left_rows, right_rows, &outcome, self.work_scale);
        let costs = outcome.cost_vector();
        Ok(ExecutedQuery {
            label: query.label.clone(),
            features,
            costs,
            outcome,
        })
    }

    /// Lets idle time pass: advances the environment by `ticks` drift steps
    /// of `dt_s` simulated seconds each (between-query arrival gaps).
    pub fn idle(&mut self, ticks: usize, dt_s: f64) {
        let mut env = self.env();
        for _ in 0..ticks {
            env.tick(dt_s);
        }
    }
}

/// The "size of data" feature vector of the paper's Section 3, shared by the
/// sequential [`Scheduler`] and the concurrent federation runtime so the two
/// paths can never drift apart: raw base-table row counts plus the two
/// prepared-side output row counts. All sizes are *logical*
/// (physical × `work_scale`) so estimations transfer across
/// physically-capped datasets.
pub fn features_from(
    left_rows: f64,
    right_rows: f64,
    outcome: &ExecutionOutcome,
    work_scale: f64,
) -> Vec<f64> {
    vec![
        left_rows * work_scale,
        right_rows * work_scale,
        outcome.fragments[0].work.output_rows() as f64 * work_scale,
        outcome.fragments[1].work.output_rows() as f64 * work_scale,
    ]
}

/// Looks up a base table's row count, surfacing a missing table as a
/// [`SchedulerError::MissingTable`] instead of silently treating it as empty.
pub fn base_rows<'t>(
    tables: impl Into<TableSource<'t>>,
    name: &str,
) -> Result<f64, SchedulerError> {
    tables
        .into()
        .table_rows(name)
        .map(|rows| rows as f64)
        .ok_or_else(|| SchedulerError::MissingTable {
            table: name.to_string(),
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_cloud::federation::example_federation;
    use midas_cloud::SiteId;
    use midas_engines::EngineKind;
    use midas_tpch::gen::{GenConfig, TpchDb};
    use midas_tpch::queries::{q12, q13};

    fn setup<'a>(fed: &'a Federation) -> (Scheduler<'a>, TpchDb) {
        let mut placement = Placement::new();
        placement.place("lineitem", SiteId(0), EngineKind::Hive);
        placement.place("orders", SiteId(1), EngineKind::PostgreSql);
        placement.place("customer", SiteId(0), EngineKind::Hive);
        let sched = Scheduler::new(fed, placement, SchedulerConfig::default());
        (sched, TpchDb::generate(GenConfig::new(0.002, 77)))
    }

    fn config() -> CandidateConfig {
        CandidateConfig {
            join_site: SiteId(0),
            join_engine: EngineKind::Spark,
            instance_idx: 1,
            vm_count: 2,
        }
    }

    #[test]
    fn executes_and_extracts_features() {
        let (fed, _, _) = example_federation();
        let (mut sched, db) = setup(&fed);
        let q = q12("MAIL", "SHIP", 1994);
        let run = sched
            .execute_with_config(&q, &config(), db.catalog())
            .unwrap();
        assert_eq!(run.features.len(), 4);
        assert_eq!(
            run.features[0] as usize,
            db.table("lineitem").unwrap().n_rows(),
            "x1 is the raw left-table size"
        );
        assert!(run.features[2] > 0.0, "filtered lineitem side non-empty");
        assert!(
            run.features[2] < run.features[0],
            "prepared side is smaller than the base table"
        );
        assert_eq!(
            run.features[3] as usize,
            db.table("orders").unwrap().n_rows(),
            "orders side is unfiltered"
        );
        assert_eq!(run.costs.len(), 2);
        assert!(run.costs[0] > 0.0 && run.costs[1] > 0.0);
        assert!(run.label.contains("Q12"));
    }

    #[test]
    fn clock_and_idle_advance() {
        let (fed, _, _) = example_federation();
        let (mut sched, db) = setup(&fed);
        let q = q13("special", "requests");
        assert_eq!(sched.env().clock_s, 0.0);
        sched
            .execute_with_config(&q, &config(), db.catalog())
            .unwrap();
        let after_exec = sched.env().clock_s;
        assert!(after_exec > 0.0);
        sched.idle(10, 30.0);
        assert!((sched.env().clock_s - after_exec - 300.0).abs() < 1e-9);
    }

    #[test]
    fn repeated_runs_vary_under_drift() {
        let (fed, _, _) = example_federation();
        let (mut sched, db) = setup(&fed);
        let q = q12("AIR", "RAIL", 1995);
        let mut times = Vec::new();
        for _ in 0..6 {
            let run = sched
                .execute_with_config(&q, &config(), db.catalog())
                .unwrap();
            times.push(run.costs[0]);
            sched.idle(5, 60.0);
        }
        // Same query, same config: observed times must not all be equal
        // (drift + noise at work).
        let first = times[0];
        assert!(times.iter().any(|t| (t - first).abs() > 1e-6), "{times:?}");
    }

    #[test]
    fn pinned_execution_matches_flat_catalog_execution() {
        use midas_engines::version::VersionedCatalog;
        use midas_tpch::gen::DeltaStream;
        let (fed, _, _) = example_federation();
        let (mut sched_flat, db) = setup(&fed);
        let q = q12("MAIL", "SHIP", 1994);
        // Two appends make `lineitem` and `orders` three-chunk tables.
        let versioned = VersionedCatalog::new(db.catalog().clone());
        let mut stream = DeltaStream::new(&db, 5);
        for _ in 0..2 {
            versioned
                .append_batch(stream.next_batch(40).into_batch())
                .unwrap();
        }
        let version = versioned.current();
        assert_eq!(version.table("lineitem").unwrap().chunk_count(), 3);
        let (mut sched_pinned, _) = setup(&fed);
        let pinned = sched_pinned
            .execute_with_config(&q, &config(), &version)
            .unwrap();
        let model_pinned =
            crate::PlanCostModel::build(sched_flat.placement(), &q, &version).unwrap();
        // Neither planning nor execution compacted the version it read.
        assert_eq!(version.compaction_bytes(), 0);

        // The flat side: the same rows, compacted.
        let compacted = version.pin();
        let flat = sched_flat
            .execute_with_config(&q, &config(), &compacted)
            .unwrap();
        let model_flat =
            crate::PlanCostModel::build(sched_flat.placement(), &q, &compacted).unwrap();
        assert_eq!(model_pinned.prepared_rows(), model_flat.prepared_rows());
        assert_eq!(
            model_pinned.cost(&fed, &config()),
            model_flat.cost(&fed, &config())
        );
        // Same seed, same data, same config: bit-for-bit equal signals.
        assert_eq!(pinned.features, flat.features);
        assert_eq!(pinned.costs, flat.costs);
        assert_eq!(
            pinned.outcome.result.fingerprint(),
            flat.outcome.result.fingerprint()
        );
        assert_eq!(
            pinned.outcome.catalog_shared_bytes,
            flat.outcome.catalog_shared_bytes
        );
    }

    #[test]
    fn missing_base_table_is_a_first_class_error() {
        let (fed, _, _) = example_federation();
        let (mut sched, db) = setup(&fed);
        let q = q12("MAIL", "SHIP", 1994);
        let mut tables = db.catalog().clone();
        tables.remove("lineitem");
        let err = sched.execute_with_config(&q, &config(), &tables);
        match err {
            Err(SchedulerError::MissingTable { table }) => assert_eq!(table, "lineitem"),
            other => panic!("expected MissingTable, got {other:?}"),
        }
    }

    #[test]
    fn unplaced_table_errors() {
        let (fed, _, _) = example_federation();
        let (mut sched, db) = setup(&fed);
        let q = midas_tpch::queries::q14(1995, 3); // part is not placed
        let err = sched.execute_with_config(&q, &config(), db.catalog());
        assert!(matches!(err, Err(SchedulerError::Engine(_))));
    }
}
