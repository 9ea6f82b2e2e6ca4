//! The concurrent multi-tenant federation runtime over live data.
//!
//! The paper's MIDAS pipeline serves *many hospitals submitting queries
//! concurrently* to a cloud federation whose data never stops growing.
//! [`FederationRuntime`] runs that pipeline as a streaming worker-pool
//! service: tenants push `(tenant, query, policy)` jobs through an
//! mpsc-style [`Ingress`] while `workers` OS threads drain a shared queue,
//! and a job passes four stages, one module each, which its worker calls
//! in sequence:
//!
//! * **Admit** (`admission.rs`, the queue in `queue.rs`) — every job pins
//!   the catalog version current at submission, its plans are validated
//!   once per distinct plan, and it waits in a **weighted deficit
//!   round-robin** queue per tenant; a popped job passes the analyzer's
//!   verdict and the quarantine gate. Delta batches publish new versions
//!   of the runtime's copy-on-write [`VersionedCatalog`] beside the jobs:
//!   in-flight queries keep their snapshot bit-for-bit while later
//!   admissions see the fresh rows — snapshot isolation at the catalog
//!   level, with no locks on the read path.
//! * **Plan** (`planning.rs`) — QEP enumeration, analytic costing and
//!   multi-objective selection against the job's pinned version, fully in
//!   parallel across workers, through the plan cache.
//! * **Execute** (`execution.rs`) — the attempt loop: relational execution
//!   serialized *per simulated site* through the federation's admission
//!   queues ([`midas_engines::sim::SiteAdmission`]) over the shared
//!   drifting [`SimulationEnv`]; retries, the deadline, and learning — a
//!   job records its observation into the shared per-query-class
//!   [`ModellingRegistry`], whose DREAM estimators fit when the report
//!   reads them ([`RuntimeReport::learning`]).
//! * **Account** (`accounting.rs`) — the tenant's failure ledger, the
//!   result sink, and the [`RuntimeReport`] a call returns.
//!
//! **Resilience.** Production federations see sites stall, fail and flap;
//! the runtime injects exactly that through an optional seeded
//! [`FaultPlan`] ([`FederationRuntime::with_fault_plan`]) and survives it:
//!
//! * a fragment bound to a site inside one of its **outage windows** fails
//!   typed ([`EngineError::SiteUnavailable`]); the job retries up to
//!   [`RuntimeConfig::max_attempts`] times, **re-planning on every retry**
//!   with the failed sites marked hot in the cost model so the join routes
//!   around them;
//! * a job whose successful attempt overruns its simulated-clock
//!   [`RuntimeJob::deadline_s`] fails typed
//!   ([`RuntimeError::DeadlineExceeded`]) without feeding the learners;
//! * after [`RuntimeConfig::quarantine_threshold`] *consecutive*
//!   panicked/site-exhausted jobs, a tenant is **quarantined**: its next
//!   [`RuntimeConfig::quarantine_cooloff`] jobs are rejected typed
//!   ([`RuntimeError::Quarantined`]) without touching the execution stack,
//!   then service resumes on probation.
//!
//! Every failure path lands in [`RuntimeReport::failed`] as a structured
//! [`FailedJob`] carrying tenant/site/attempt context — jobs terminate
//! with a definite outcome, never silently vanish.
//!
//! **Determinism.** With `workers == 1` and a tenant-balanced workload the
//! runtime performs exactly the operation sequence of a sequential
//! reference written against the public layer functions — build the cost
//! model, select, execute every fragment, learn — replaying the same
//! admission/ingest interleaving: same plans, same simulated costs
//! bit-for-bit, same learned history (the `profile_handoff`,
//! `runtime_concurrency` and `streaming_ingest` integration tests pin this
//! against the one reference in `tests/common`). What keeps a second
//! worker cheap keeps that sequence too: a job's attempt simulates all its
//! fragments in one env section, after their relational steps, in the
//! order a section per fragment would; and the clock is read from a
//! mirror the env section stores ([`FederationRuntime::clock_s`]).
//! Independently of worker count, every job's *relational result* is
//! bit-identical to executing it alone against its pinned catalog version
//! (`streaming_ingest.rs` pins it; every benchmark workload re-checks it as
//! `correct`).

mod accounting;
mod admission;
mod execution;
mod planning;
mod queue;
#[cfg(test)]
mod tests;

pub use accounting::{
    FailedJob, LatencyStats, RuntimeCacheStats, RuntimeError, RuntimeReport, TenantQueueStats,
    TenantReport, TenantStats,
};
pub use admission::Ingress;

use accounting::ResultSink;
use admission::{Admission, AdmittedJob, TenantHealth, Verdict};
use planning::{CachedPlan, Planned};
use queue::{CloseOnDrop, JobQueue};

use crate::system::{MidasReport, QueryPolicy};
use midas_cloud::{Federation, SiteId};
use midas_engines::cache::{
    CacheKey, CacheScope, CacheStats, FragmentResultCache, PlanFingerprint, PlanningStats,
    ScopedCache,
};
use midas_engines::data::Table;
use midas_engines::exec::{
    fragment_keys, scanned_base_tables, FederatedQuery, ProfiledFragment, ResultCacheBinding,
    SharedExecutor,
};
use midas_engines::sim::{AdmissionStats, DriftIntensity, FaultPlan, SimulationEnv, SiteAdmission};
use midas_engines::version::{CatalogVersion, IngestReceipt, IngestStats, VersionedCatalog};
use midas_engines::{
    analyze_fragment_plans, lock_recover, Catalog, EngineError, PhysicalPlan, Placement,
    PlanDiagnostic, SchemaCatalog,
};
use midas_ires::optimizer::{cost_space, CostedSpace};
use midas_ires::scheduler::{base_rows, features_from, SchedulerError};
use midas_ires::{assemble, ClassLearning, EnumerationSpace, ModellingRegistry, PlanCostModel};
use midas_moo::WeightedSumModel;
use midas_tpch::TwoTableQuery;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

/// Construction parameters of a [`FederationRuntime`].
#[derive(Debug, Clone, Copy)]
pub struct RuntimeConfig {
    /// Worker threads draining the admission queue.
    pub workers: usize,
    /// Simulation seed: every site's drift and noise stream derives from it
    /// (the derivation [`midas_ires::Scheduler`] uses too).
    pub seed: u64,
    /// Environment drift intensity.
    pub drift: DriftIntensity,
    /// Logical rows per physical row (see `SharedExecutor::run_with_scale`).
    pub work_scale: f64,
    /// VM-count cap during enumeration.
    pub max_vms: u32,
    /// Wall-clock seconds slept per *nominal* simulated second (the
    /// fragment's work profile at unit load, noise-free) while a fragment
    /// holds its site slot (`0.0` = no dilation). Pacing models the wait
    /// for a remote site without feeding back into simulated outcomes; it
    /// is what lets a multi-worker runtime overlap in-flight queries even
    /// on one core, and its deterministic base keeps throughput numbers
    /// comparable across worker counts.
    pub pacing: f64,
    // Inert hint, accepted and ignored: a job's fragments run in index
    // order on its worker's thread — parallelism is `workers` over jobs.
    // Last reader is `benchmark/src/replay.rs`; ROADMAP's `[stage-trace]`
    // item removes it with the replay.
    #[doc(hidden)]
    pub parallel_fragments: bool,
    // Inert hint, accepted and ignored: joins and groupings are single
    // pass. Last reader is `benchmark/src/replay.rs`; ROADMAP's
    // `[stage-trace]` item removes it with the replay.
    #[doc(hidden)]
    pub partition_degree: usize,
    /// Execution attempts per job (>= 1). A `SiteUnavailable` failure
    /// retries with the failed site marked hot in the cost model (so the
    /// join re-plans around it) and the job's fault position advanced (so
    /// short outage windows are escaped); any other error is terminal.
    pub max_attempts: usize,
    /// Weight of **live congestion** in planning: each job samples the
    /// per-site admission gauges (queue depth + slot occupancy over
    /// capacity, see [`SiteAdmission::pressure`]) when it is queued, and
    /// candidates joining at a site with score `p` pay a
    /// `1 + pressure_penalty × p` factor on both cost axes
    /// ([`PlanCostModel::with_site_pressure`]) — the optimizer routes
    /// join/combine fragments away from congested sites in proportion to
    /// how congested they are. `0.0` (the default) disables pressure
    /// feedback *entirely*: no gauges are sampled, no re-planning runs,
    /// and every outcome is bit-identical to the blind planner.
    pub pressure_penalty: f64,
    /// Speculative re-planning trigger, active only when
    /// `pressure_penalty > 0`: when a job's observed admission wait on the
    /// simulated clock exceeds `replan_threshold ×` its chosen plan's
    /// predicted execution time, the admission-time pressure sample is
    /// considered stale — selection (Algorithm 2) re-runs against *current*
    /// pressure and the job switches plans if the fresh choice predicts a
    /// strictly earlier completion. Re-plan evaluations and actual switches
    /// are counted in [`RuntimeReport::replans`] /
    /// [`RuntimeReport::plan_switches`]. Non-finite disables the trigger.
    pub replan_threshold: f64,
    /// Consecutive panicked/site-exhausted jobs from one tenant before it
    /// is quarantined. `0` disables quarantine.
    pub quarantine_threshold: usize,
    /// Jobs rejected with [`RuntimeError::Quarantined`] once a tenant trips
    /// the threshold, after which service resumes on probation.
    pub quarantine_cooloff: usize,
    /// The sharing domain of the result/plan caches and of the admission
    /// verdict memo (see [`CacheScope`]), one rule for all three: every key
    /// takes `cache_scope.key(tenant)` as its scope. `PerTenant` keys every
    /// cached entry to its submitting tenant (the medical-privacy setting:
    /// no tenant can hit another tenant's cached work or validated plan),
    /// though each cache's byte budget and fair-share eviction are still
    /// shared by all tenants, so one tenant's inserts can evict another's
    /// entries (ROADMAP's `[isolation]`). `FederationGlobal` (the default)
    /// shares federation-wide for maximum reuse.
    pub cache_scope: CacheScope,
    /// Byte budget of the shared fragment-result cache (identical prepare/
    /// combine fragments across tenants share one `Arc`'d output instead
    /// of recomputing). `0` disables the cache entirely. Eviction is
    /// fair-share LRU; ingest publishes invalidate exactly the superseded
    /// tables' entries, keeping the delta state every planned prepare and
    /// combine carries as a predecessor that planning extends over the
    /// appended rows — one generation, the last publish's (see
    /// [`midas_engines::cache`]). Results are bit-identical warm or cold —
    /// the cache only removes wall-clock work.
    pub fragment_cache_bytes: u64,
    /// Byte budget of the plan/cost-model cache (`EnumerationSpace` +
    /// `PlanCostModel` per query shape and pinned table identity, instead
    /// of re-profiling the fragments on every admission), and, as a budget
    /// of its own, of the admission verdict memo (the static analyzer's
    /// verdict per distinct scope and plan, see
    /// [`RuntimeReport::verdicts`]). `0` disables both: no plan is
    /// cached and every admission runs the analyzer.
    pub plan_cache_bytes: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            workers: 4,
            seed: 42,
            drift: DriftIntensity::Strong,
            work_scale: 1.0,
            max_vms: 8,
            pacing: 0.0,
            parallel_fragments: false,
            partition_degree: 1,
            max_attempts: 3,
            pressure_penalty: 0.0,
            replan_threshold: 1.0,
            quarantine_threshold: 3,
            quarantine_cooloff: 8,
            cache_scope: CacheScope::FederationGlobal,
            fragment_cache_bytes: 64 << 20,
            plan_cache_bytes: 8 << 20,
        }
    }
}

/// One admitted unit of work: a tenant's query under a policy.
#[derive(Debug, Clone)]
pub struct RuntimeJob {
    /// Submitting tenant ("hospital-A", …).
    pub tenant: String,
    /// The bound query.
    pub query: TwoTableQuery,
    /// The tenant's objective weights and budgets.
    pub policy: QueryPolicy,
    /// Optional *simulated-clock* deadline: if the successful attempt's
    /// simulated elapsed seconds exceed this, the job fails typed as
    /// [`RuntimeError::DeadlineExceeded`] (terminal — deadline overruns are
    /// not retried, do not count toward quarantine, and never feed the
    /// learners). `None` = no deadline.
    pub deadline_s: Option<f64>,
}

impl RuntimeJob {
    /// Convenience constructor (no deadline).
    pub fn new(tenant: &str, query: TwoTableQuery, policy: QueryPolicy) -> Self {
        RuntimeJob {
            tenant: tenant.to_string(),
            query,
            policy,
            deadline_s: None,
        }
    }

    /// Attaches a simulated-clock deadline (chainable).
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }
}

/// `map[name]`, copying `name` into the map only on its first sight: an
/// `entry` call would allocate a key on every call.
fn entry_of<'m, V: Default>(map: &'m mut HashMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Best-effort text of a panic payload (`&str` and `String` payloads cover
/// `panic!`/`assert!`; anything else is opaque).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The concurrent federation query service (see the module docs).
pub struct FederationRuntime<'a> {
    federation: &'a Federation,
    placement: &'a Placement,
    catalog: VersionedCatalog,
    config: RuntimeConfig,
    env: Mutex<SimulationEnv>,
    /// `env`'s clock as `f64` bits, which every run stores before its env
    /// section ends ([`SharedExecutor::with_clock_mirror`]): the clock's
    /// readers — admission, dequeue, accounting — take no env lock.
    clock: AtomicU64,
    admission: SiteAdmission,
    registry: ModellingRegistry,
    /// The injected fault schedule, if any (see
    /// [`FederationRuntime::with_fault_plan`]).
    fault_plan: Option<FaultPlan>,
    /// Tenant service weights for the deficit-round-robin queue (absent =
    /// weight 1).
    weights: Mutex<HashMap<String, u64>>,
    /// The quarantine ledger. Persists across `run`/`serve` calls — a
    /// tenant mid-cool-off stays quarantined into the next batch.
    health: Mutex<HashMap<String, TenantHealth>>,
    /// The shared fragment-result cache (`None` when
    /// [`RuntimeConfig::fragment_cache_bytes`] is 0). Persists across
    /// `run`/`serve` calls — warm entries keep serving the next batch.
    fragment_cache: Option<FragmentResultCache>,
    /// The plan/cost-model cache (`None` when
    /// [`RuntimeConfig::plan_cache_bytes`] is 0).
    plan_cache: Option<ScopedCache<CacheKey, Arc<CachedPlan>>>,
    /// The schema environment admission validates against, read from
    /// version 0. It is every version's: a publish cannot change a schema
    /// (`VersionedCatalog::append_batch` refuses an unknown table,
    /// `ChunkedTable::append` a delta whose schema differs, and
    /// [`SchemaCatalog::from_version`] reads each table's first chunk,
    /// which an append never replaces).
    schemas: SchemaCatalog,
    /// The admission verdict memo: the analyzer's verdict per (plan scope,
    /// [`PlanFingerprint`]), budgeted by
    /// [`RuntimeConfig::plan_cache_bytes`] and owned by the tenant whose
    /// admission computed it (`None` when that budget is 0). Verdicts
    /// survive publishes, as schemas do.
    verdicts: Option<ScopedCache<(String, PlanFingerprint), Verdict>>,
}

impl<'a> FederationRuntime<'a> {
    /// Builds a runtime over a federation, a placement and a shared data
    /// catalog.
    ///
    /// The catalog becomes version 0 of the runtime's copy-on-write
    /// [`VersionedCatalog`] — an `Arc`-handle copy, never a table copy —
    /// and every worker, tenant and concurrently executing fragment reads
    /// *some pinned version* of the same shared tables. Sites are
    /// registered in the shared simulation environment under
    /// [`RuntimeConfig::seed`] and [`RuntimeConfig::drift`], and admission
    /// gates are sized from the federation's capacity metadata.
    pub fn new(
        federation: &'a Federation,
        placement: &'a Placement,
        catalog: Catalog,
        config: RuntimeConfig,
    ) -> Self {
        let mut env = SimulationEnv::new();
        for site in federation.site_ids() {
            env.register_site(site, config.seed, config.drift);
        }
        let admission = SiteAdmission::new(federation.admission_capacities());
        let catalog = VersionedCatalog::new(catalog);
        let schemas = SchemaCatalog::from_version(&catalog.current());
        FederationRuntime {
            federation,
            placement,
            catalog,
            config,
            clock: AtomicU64::new(env.clock_s.to_bits()),
            env: Mutex::new(env),
            admission,
            registry: ModellingRegistry::dream_defaults(2),
            fault_plan: None,
            weights: Mutex::new(HashMap::new()),
            health: Mutex::new(HashMap::new()),
            fragment_cache: (config.fragment_cache_bytes > 0)
                .then(|| FragmentResultCache::new(config.fragment_cache_bytes)),
            plan_cache: (config.plan_cache_bytes > 0)
                .then(|| ScopedCache::new(config.plan_cache_bytes)),
            schemas,
            verdicts: (config.plan_cache_bytes > 0)
                .then(|| ScopedCache::new(config.plan_cache_bytes)),
        }
    }

    /// Injects a deterministic fault schedule (chainable): every job
    /// executes at fault position `sequence + attempt`, so a fixed plan
    /// and workload yield bit-identical per-job outcomes at any worker
    /// count. `FaultPlan::none()` (or not calling this) runs fault-free.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = if plan.is_empty() { None } else { Some(plan) };
        self
    }

    /// Sets a tenant's service weight for the deficit-round-robin queue:
    /// up to `weight` of its jobs are served per rotation (0 clamps to 1).
    /// Takes effect at the tenant's next submission.
    pub fn set_tenant_weight(&self, tenant: &str, weight: u64) {
        lock_recover(&self.weights).insert(tenant.to_string(), weight.max(1));
    }

    /// The configuration in use.
    pub fn config(&self) -> &RuntimeConfig {
        &self.config
    }

    /// The shared per-query-class learning state.
    pub fn registry(&self) -> &ModellingRegistry {
        &self.registry
    }

    /// The runtime's copy-on-write data store (for out-of-band ingest and
    /// inspection; in-band ingest goes through [`Ingress::ingest`]). Note
    /// that appends made directly on this handle bypass cache
    /// invalidation; that is still *correct* — a publish mints new table
    /// identities, so later admissions key differently and can never hit
    /// the stale entries — it merely delays memory reclamation until the
    /// orphaned entries age out of the LRU.
    pub fn versioned_catalog(&self) -> &VersionedCatalog {
        &self.catalog
    }

    /// The currently published catalog version number.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Simulated seconds on the shared federation clock, as the last env
    /// section left it. Read from the clock's mirror, without the env
    /// lock: every tick of the runtime's env is a run's, and each run
    /// stores the mirror before its env section ends.
    pub fn clock_s(&self) -> f64 {
        f64::from_bits(self.clock.load(Ordering::Acquire))
    }

    /// Admits a closed batch of jobs and drains it with the configured
    /// worker pool, blocking until every job completed or failed.
    ///
    /// The whole batch is admitted (and pinned to the current catalog
    /// version) *before* workers start, so service order is a pure function
    /// of the batch — the determinism-harness configuration. For jobs
    /// arriving while the pool drains, use [`FederationRuntime::serve`].
    /// Learning state and the versioned catalog persist across calls, so a
    /// caller can stream batch after batch into one runtime (each call gets
    /// its own job queue, so even overlapping calls from different threads
    /// stay well-formed — they contend only on sites, env and learning,
    /// like any two tenants).
    pub fn run(&self, jobs: Vec<RuntimeJob>) -> RuntimeReport {
        let queue = JobQueue::default();
        // Batch admission happens before any worker runs, so the
        // submit-time pressure sample is necessarily all-idle; in this mode
        // congestion feedback flows through speculative re-plans (which
        // re-sample live pressure), keeping batch admission a pure function
        // of the job list.
        for job in jobs {
            self.admit(&queue, job);
        }
        self.drain_with_pool(&queue, || ()).1
    }

    /// Runs the worker pool as a *streaming* service: `producer` executes
    /// on the calling thread with an [`Ingress`] handle and may submit
    /// jobs, ingest delta batches and [`Ingress::drain`] at any point while
    /// the workers drain concurrently. When `producer` returns — or
    /// unwinds — the ingress closes; the call blocks until every admitted
    /// job completed, then returns the producer's value alongside the
    /// service report.
    pub fn serve<R>(&self, producer: impl FnOnce(&Ingress<'_, 'a>) -> R) -> (R, RuntimeReport) {
        let queue = JobQueue::default();
        let ingress = Ingress {
            runtime: self,
            queue: &queue,
        };
        self.drain_with_pool(&queue, || producer(&ingress))
    }

    /// Spawns the configured workers over `queue`, runs `producer` on the
    /// calling thread beside them, closes the queue and blocks until every
    /// admitted job completed; returns the producer's value and the
    /// service report.
    fn drain_with_pool<R>(
        &self,
        queue: &JobQueue,
        producer: impl FnOnce() -> R,
    ) -> (R, RuntimeReport) {
        // LINT: wall-clock — service wall time for the qps report only.
        let started = Instant::now();
        let sink = Mutex::new(ResultSink::default());
        let value = std::thread::scope(|scope| {
            for worker in 0..self.config.workers.max(1) {
                let sink = &sink;
                scope.spawn(move || self.worker_loop(worker, queue, sink));
            }
            // Close on return *and* on unwind: a panicking producer must
            // fail the call, not strand the workers (which the scope would
            // otherwise join forever).
            let _closer = CloseOnDrop(queue);
            producer()
        });
        let sink = sink
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (value, self.finish(started, sink, queue.tenant_stats()))
    }

    /// One worker: pop (weighted round-robin), then the four stages —
    /// admission's gate, plan, execute, account — until the ingress is
    /// closed and drained. Completing a job and popping the next is one
    /// queue call.
    ///
    /// Planning and execution run under `catch_unwind`: a job that panics
    /// — in planning, execution or learning — fails *alone* as
    /// [`RuntimeError::WorkerPanicked`], the worker keeps serving, and any
    /// lock the unwinding poisoned is recovered at its next use. Unwind
    /// safety: every piece of shared state the closure touches is behind a
    /// mutex whose invariants hold between operations (queues, counters,
    /// append-only histories, the drift RNG), which is exactly the
    /// guarantee the poison-recovering lock helpers rely on.
    fn worker_loop(&self, worker: usize, queue: &JobQueue, sink: &Mutex<ResultSink>) {
        let mut next = queue.next(None);
        while let Some(admitted) = next {
            // LINT: wall-clock — real per-job latency metric; the
            // deterministic path uses the simulated clock below.
            let dequeued = Instant::now();
            let admitted_s = self.clock_s();
            let outcome = match self.gate(&admitted) {
                Some(rejected) => Err(rejected),
                None => std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let planned = self.plan(&admitted)?;
                    self.execute(&admitted, planned, admitted_s)
                }))
                .unwrap_or_else(|payload| {
                    Err(RuntimeError::WorkerPanicked(panic_message(payload.as_ref())))
                }),
            };
            self.account(sink, worker, &admitted, dequeued, outcome);
            next = queue.next(Some(&admitted.job.tenant));
        }
    }
}
