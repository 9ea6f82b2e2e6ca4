//! The concurrent multi-tenant federation runtime over live data.
//!
//! The paper's MIDAS pipeline serves *many hospitals submitting queries
//! concurrently* to a cloud federation whose data never stops growing.
//! [`FederationRuntime`] is the one driver of its admit → plan → execute →
//! learn loop, run as a streaming worker-pool service:
//!
//! * **Admit** — tenants push `(tenant, query, policy)` jobs through an
//!   mpsc-style [`Ingress`] (`submit` / `ingest` / `drain`) while `workers`
//!   OS threads drain a shared queue. The queue is **weighted deficit
//!   round-robin per tenant**, not strict FIFO: each rotation grants every
//!   tenant up to `weight` pops (default 1) before moving on, so one chatty
//!   tenant cannot starve the others (a tenant's own jobs still run in
//!   submission order, and at most one job per tenant is in flight at a
//!   time — the serialization that makes quarantine accounting
//!   deterministic).
//! * **Ingest** — the runtime owns a copy-on-write
//!   [`VersionedCatalog`]: delta batches append as `Arc`-shared chunks
//!   (zero bytes of prior data recopied) and publish a new catalog version
//!   atomically. **Every job pins the version current at admission**, so
//!   in-flight queries keep their snapshot bit-for-bit while later
//!   admissions see the fresh rows — snapshot isolation at the catalog
//!   level, with no locks on the read path.
//! * **Plan** — QEP enumeration, analytic costing and multi-objective
//!   selection run against the job's pinned version, fully in parallel
//!   across workers. Planning and execution scan the version's chunks in
//!   place — no job compacts a table after a publish.
//! * **Execute** — relational execution is serialized *per simulated site*
//!   through the federation's admission queues
//!   ([`midas_engines::sim::SiteAdmission`]); the drifting
//!   [`SimulationEnv`] is shared behind one lock with per-fragment
//!   critical sections.
//! * **Learn** — a job records its observation into the shared,
//!   lock-guarded per-query-class [`ModellingRegistry`]; each class's DREAM
//!   estimator (the incremental `O(L³)` Algorithm 1 path) fits once per
//!   call, when the report reads it ([`RuntimeReport::learning`]).
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
//! against the one reference in `tests/common`). Independently of worker
//! count, every job's *relational result* is bit-identical to executing it
//! alone against its pinned catalog version (`streaming_ingest.rs` pins
//! it; every benchmark workload re-checks it as `correct`).

use crate::system::{MidasReport, QueryPolicy};
use midas_cloud::{Federation, SiteId};
use midas_engines::cache::{
    CacheKey, CacheScope, CacheStats, FragmentResultCache, PlanFingerprint, PlanningStats,
    ScopedCache,
};
use midas_engines::data::Table;
use midas_engines::exec::{ProfiledFragment, ResultCacheBinding, SharedExecutor};
use midas_engines::sim::{AdmissionStats, DriftIntensity, FaultPlan, SimulationEnv, SiteAdmission};
use midas_engines::version::{CatalogVersion, IngestReceipt, IngestStats, VersionedCatalog};
use midas_engines::{
    analyze_fragment_plans, lock_recover, Catalog, EngineError, PhysicalPlan, Placement,
    PlanDiagnostic, SchemaCatalog,
};
use midas_ires::optimizer::{cost_space, moqp_exhaustive, select_costed, CostedSpace};
use midas_ires::scheduler::{base_rows, features_from, SchedulerError};
use midas_ires::{assemble, ClassLearning, EnumerationSpace, ModellingRegistry, PlanCostModel};
use midas_moo::WeightedSumModel;
use midas_tpch::TwoTableQuery;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
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
    // Last reader is `benchmark/src/replay.rs`; the `[stage-trace]` item's
    // PR B removes it.
    #[doc(hidden)]
    pub parallel_fragments: bool,
    // Inert hint, accepted and ignored: joins and groupings are single
    // pass. Last reader is `benchmark/src/replay.rs`; the `[stage-trace]`
    // item's PR B removes it.
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
    /// verdict memo (see [`CacheScope`]): `PerTenant` keeps every cached
    /// entry private to its submitting tenant (the medical-privacy setting
    /// — no tenant can observe, or even time, another tenant's cached work
    /// or validated plan), `SiteLocal` shares within a site boundary (the
    /// plan tier, which has no execution site, shares as
    /// `FederationGlobal` does), `FederationGlobal` (the default) shares
    /// federation-wide for maximum reuse.
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

    /// Attaches a simulated-clock deadline (builder style).
    pub fn with_deadline(mut self, deadline_s: f64) -> Self {
        self.deadline_s = Some(deadline_s);
        self
    }
}

/// One completed job, annotated with service metadata.
#[derive(Debug, Clone)]
pub struct TenantReport {
    /// Admission order of the job (0-based).
    pub sequence: usize,
    /// Position in *completion* order (0-based) — with one worker this is
    /// the round-robin service order the fairness tests assert on.
    pub completion: usize,
    /// The submitting tenant.
    pub tenant: String,
    /// Which worker served it.
    pub worker: usize,
    /// Wall-clock seconds from dequeue to completion.
    pub wall_latency_s: f64,
    /// Wall-clock seconds the job spent in the tenant queue (submit to
    /// dequeue) — the per-job view of
    /// [`TenantQueueStats::total_wait_s`].
    pub queue_wait_s: f64,
    /// Simulated clock when the job was queued (admitted to the tenant
    /// queue, pinning its catalog version).
    pub queued_s: f64,
    /// Simulated clock when a worker dequeued it (planning starts).
    pub admitted_s: f64,
    /// Simulated clock when it completed. `completed_s − queued_s` is the
    /// completion latency the tail-latency percentiles aggregate.
    pub completed_s: f64,
    /// The per-site pressure gauges sampled when the job was queued —
    /// exactly the scores its congestion-aware plan was costed under, so a
    /// replay can reproduce the plan without re-observing live gates.
    /// Empty when pressure feedback is off (nothing was sampled).
    pub pressure: Vec<(SiteId, f64)>,
    /// Speculative re-plan evaluations this job triggered.
    pub replans: u32,
    /// Whether a re-plan actually switched the executed plan.
    pub plan_switched: bool,
    /// Execution attempts the job took (1 = first try succeeded; each
    /// `SiteUnavailable` retry adds one).
    pub attempts: usize,
    /// Fragments of the successful attempt served from the shared result
    /// cache instead of executing (0 when caching is disabled or cold).
    /// Cached fragments are bit-identical to recomputation — this only
    /// tells you how much work the job *skipped*.
    pub cache_hits: u32,
    /// Fragments of the successful attempt whose output planning had
    /// already computed while profiling the query (a plan-cache miss) and
    /// handed to execution instead of running them a second time. 3 on a
    /// plan-cache miss that hit no cached fragment, 0 on a plan-cache hit.
    pub reused_fragments: u32,
    /// The number of the catalog version the job pinned at admission.
    /// Reports keep no catalog snapshot alive: a retired version frees as
    /// soon as its last in-flight job finishes.
    pub pinned_version: u64,
    /// The full pipeline report.
    pub report: MidasReport,
}

/// Nearest-rank percentile summary of completion latency on the
/// **simulated** clock (`completed_s − queued_s` per job), so the tail
/// numbers are deterministic under replay and independent of host speed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Jobs aggregated (completed jobs only; failures have no completion
    /// latency).
    pub count: usize,
    /// Median completion latency (simulated seconds).
    pub p50_s: f64,
    /// 95th-percentile completion latency (simulated seconds).
    pub p95_s: f64,
    /// 99th-percentile completion latency (simulated seconds).
    pub p99_s: f64,
    /// Worst completion latency (simulated seconds).
    pub max_s: f64,
}

impl LatencyStats {
    /// Nearest-rank percentiles over a latency sample. The sample need not
    /// be sorted; an empty sample yields all zeros.
    fn from_samples(mut samples: Vec<f64>) -> Self {
        if samples.is_empty() {
            return Self::default();
        }
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let count = samples.len();
        let rank = |p: f64| -> f64 {
            let idx = ((p / 100.0) * count as f64).ceil() as usize;
            samples[idx.clamp(1, count) - 1]
        };
        Self {
            count,
            p50_s: rank(50.0),
            p95_s: rank(95.0),
            p99_s: rank(99.0),
            max_s: samples[count - 1],
        }
    }
}

/// Per-tenant queue-depth and wait accounting, maintained by the job queue
/// across the tenant's whole lifetime (it survives tenant retirement, so a
/// drained queue still reports what happened).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantQueueStats {
    /// Jobs ever submitted to this tenant's queue.
    pub submitted: usize,
    /// Jobs ever dequeued by a worker.
    pub served: usize,
    /// Deepest the tenant's backlog ever got (jobs waiting at once).
    pub peak_depth: usize,
    /// Total wall-clock seconds jobs spent waiting in the queue (submit to
    /// dequeue, summed across served jobs).
    pub total_wait_s: f64,
}

/// Per-tenant service aggregates.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantStats {
    /// Completed queries.
    pub queries: usize,
    /// Mean wall-clock latency per query.
    pub mean_latency_s: f64,
    /// Total simulated execution seconds billed to the tenant.
    pub sim_time_s: f64,
    /// Total simulated dollars billed to the tenant.
    pub money: f64,
    /// Tail-latency percentiles of this tenant's completed jobs on the
    /// simulated clock.
    pub latency: LatencyStats,
    /// Queue-depth and wait counters from the admission queue.
    pub queue: TenantQueueStats,
}

/// Counters of the runtime's two cache tiers (all zeros when a tier is
/// disabled).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuntimeCacheStats {
    /// The shared fragment-result cache.
    pub fragment: CacheStats,
    /// The plan/cost-model cache.
    pub plan: CacheStats,
    /// How planning served the fragments it profiled through the fragment
    /// cache: prepares reused, extended over appended chunks or computed in
    /// full; combines extended from their delta state, computed in full,
    /// or computed in full beside a state that declined.
    pub planning: PlanningStats,
}

/// What one [`FederationRuntime::run`] / [`FederationRuntime::serve`] call
/// returns.
#[derive(Debug, Clone)]
pub struct RuntimeReport {
    /// Per-job reports, in admission (submission) order.
    pub completed: Vec<TenantReport>,
    /// Failed jobs with their structured errors, in admission order.
    /// `completed.len() + failed.len()` always equals the number of
    /// admitted jobs: every job terminates with a definite outcome.
    pub failed: Vec<FailedJob>,
    /// Wall-clock seconds the whole batch took.
    pub wall_s: f64,
    /// Completed queries per wall-clock second.
    pub throughput_qps: f64,
    /// Simulated seconds on the shared federation clock after the batch.
    pub sim_clock_s: f64,
    /// Per-site admission contention, keyed by site name.
    pub admission: Vec<(String, AdmissionStats)>,
    /// Per-tenant aggregates, sorted by tenant name.
    pub tenants: Vec<(String, TenantStats)>,
    /// The catalog version published when the call returned.
    pub catalog_version: u64,
    /// Cumulative ingest accounting of the runtime's versioned catalog
    /// (across all calls on this runtime; prior-chunk bytes are carried by
    /// `Arc::clone`, and jobs scan the chunks where they are — the runtime
    /// compacts no version it serves, which
    /// `CatalogVersion::compaction_bytes` staying 0 shows).
    pub ingest: IngestStats,
    /// Hit/miss/eviction/residency counters of the two cache tiers,
    /// cumulative across all calls on this runtime.
    pub cache: RuntimeCacheStats,
    /// Counters of the admission verdict memo, cumulative like
    /// [`Self::cache`]: one lookup per admitted job, keyed by the plan
    /// tier's scope and the job's plan fingerprint; a miss runs the static
    /// analyzer. All zeros when [`RuntimeConfig::plan_cache_bytes`] is 0.
    /// Kept apart from [`Self::cache`]: admission consults the memo before
    /// the quarantine gate, and no job past admission reads it.
    pub verdicts: CacheStats,
    /// Speculative re-plan evaluations across the whole call (always 0 when
    /// [`RuntimeConfig::pressure_penalty`] is 0).
    pub replans: u64,
    /// Re-plans that actually switched the executed plan.
    pub plan_switches: u64,
    /// Fragment executions this call saved by handing planning's profiled
    /// outputs to execution ([`TenantReport::reused_fragments`] summed over
    /// completed jobs). Not a cache counter: nothing outlives its job.
    pub reused_fragments: u64,
    /// Federation-wide tail-latency percentiles over all completed jobs.
    pub latency: LatencyStats,
    /// DREAM's learning state per query class, sorted by class, as of the
    /// end of the call: every class recorded into since its last fit is
    /// fitted once while the report is built (a job only records its
    /// observation). Cumulative across calls, like [`Self::cache`].
    pub learning: Vec<ClassLearning>,
}

/// One queued unit of admitted work: the job, what admission observed and
/// decided of it, and where the queue put it.
struct AdmittedJob {
    sequence: usize,
    job: RuntimeJob,
    admission: Admission,
    /// Wall-clock instant at submission (measures real queue wait).
    queued_at: Instant,
}

/// What [`FederationRuntime::admit`] observed and decided of one job before
/// it entered the queue: its pinned snapshot, the observations its plan
/// will be costed under, its plans' fingerprint and the analyzer's verdict.
struct Admission {
    pinned: Arc<CatalogVersion>,
    /// The tenant's service weight at submission.
    weight: u64,
    /// Simulated clock at submission (starts the completion-latency timer).
    queued_clock_s: f64,
    /// Per-site pressure sampled at submission — recorded here so the plan
    /// the job gets is a deterministic function of the job record, not of
    /// whatever the gates look like when a worker happens to dequeue it.
    /// Empty when pressure feedback is disabled.
    pressure: Vec<(SiteId, f64)>,
    /// The job's three plans (left prepare, right prepare, combine),
    /// encoded once: the key of the verdict memo and then of the plan
    /// cache.
    fingerprint: PlanFingerprint,
    /// `Some` when the static plan analyzer rejected the query at
    /// admission. The job still flows through the queue (so sequencing,
    /// fairness accounting and the per-tenant in-flight discipline are
    /// unchanged), but the worker fails it immediately — no quarantine
    /// gate, no planning, no cache, no site slot.
    rejection: Option<RuntimeError>,
}

/// What the analyzer said of one distinct plan: its error diagnostics, or
/// `None` when it is valid. Shared by every admission that hits it.
type Verdict = Option<Arc<[PlanDiagnostic]>>;

/// `map[name]`, copying `name` into the map only on its first sight: an
/// `entry` call would allocate a key on every call.
fn entry_of<'m, V: Default>(map: &'m mut HashMap<String, V>, name: &str) -> &'m mut V {
    if !map.contains_key(name) {
        map.insert(name.to_string(), V::default());
    }
    map.get_mut(name).expect("inserted above")
}

/// Why one admitted job failed. Failures are per job: the runtime records
/// them in [`RuntimeReport::failed`] and keeps serving everything else.
/// Every variant carries the context a caller needs to react
/// programmatically — tenant, site and attempt counts, not just a message.
#[derive(Debug, Clone, PartialEq)]
pub enum RuntimeError {
    /// Planning, execution or learning surfaced an error.
    Scheduler(SchedulerError),
    /// The worker thread **panicked** while processing this job. The panic
    /// is contained: the job is recorded as failed with the panic message,
    /// any poisoned locks are recovered (their guarded state is consistent
    /// between operations), and every other tenant's jobs proceed.
    WorkerPanicked(String),
    /// Every attempt hit an injected site outage; the job is surfaced as a
    /// typed partial failure instead of being lost.
    SiteUnavailable {
        /// The submitting tenant.
        tenant: String,
        /// The site whose outage exhausted the final attempt.
        site: SiteId,
        /// Attempts made (== `RuntimeConfig::max_attempts`).
        attempts: usize,
    },
    /// The job's successful attempt overran [`RuntimeJob::deadline_s`] on
    /// the simulated clock. Terminal: not retried, not counted toward
    /// quarantine, and the observation never reaches the learners.
    DeadlineExceeded {
        /// The submitting tenant.
        tenant: String,
        /// The configured deadline (simulated seconds).
        deadline_s: f64,
        /// What the attempt actually took (simulated seconds).
        elapsed_s: f64,
        /// Attempts made before the overrun.
        attempts: usize,
    },
    /// The static plan analyzer rejected the job's query at admission —
    /// **before** planning, enumeration, the plan cache or any site slot
    /// was touched. The diagnostics name every schema/type/DAG defect the
    /// execution stack would otherwise have surfaced mid-flight as an
    /// `EngineError` (or a dispatch panic). Terminal and non-countable:
    /// an invalid plan is the query's fault, not the tenant's health.
    InvalidPlan {
        /// The submitting tenant.
        tenant: String,
        /// The error-severity diagnostics, in discovery order.
        diagnostics: Vec<midas_engines::PlanDiagnostic>,
    },
    /// The tenant is in quarantine cool-off: the job was rejected *before*
    /// planning or execution (no environment draws, no site slots).
    Quarantined {
        /// The quarantined tenant.
        tenant: String,
        /// Consecutive failures that tripped the quarantine.
        failures: usize,
        /// Cool-off rejections remaining after this one.
        remaining_cooloff: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Scheduler(e) => write!(f, "{e}"),
            RuntimeError::WorkerPanicked(msg) => write!(f, "worker panicked: {msg}"),
            RuntimeError::SiteUnavailable {
                tenant,
                site,
                attempts,
            } => write!(
                f,
                "tenant {tenant}: site {} unavailable after {attempts} attempts",
                site.0
            ),
            RuntimeError::DeadlineExceeded {
                tenant,
                deadline_s,
                elapsed_s,
                attempts,
            } => write!(
                f,
                "tenant {tenant}: deadline {deadline_s}s exceeded \
                 (simulated {elapsed_s}s over {attempts} attempts)"
            ),
            RuntimeError::InvalidPlan {
                tenant,
                diagnostics,
            } => {
                write!(
                    f,
                    "tenant {tenant}: plan rejected by static analysis \
                     ({} diagnostics):",
                    diagnostics.len()
                )?;
                for d in diagnostics {
                    write!(f, " [{d}]")?;
                }
                Ok(())
            }
            RuntimeError::Quarantined {
                tenant,
                failures,
                remaining_cooloff,
            } => write!(
                f,
                "tenant {tenant}: quarantined after {failures} consecutive failures \
                 ({remaining_cooloff} cool-off rejections remain)"
            ),
        }
    }
}

/// One failed job in [`RuntimeReport::failed`]: which admission it was,
/// whose it was, and the structured error that terminated it.
#[derive(Debug, Clone, PartialEq)]
pub struct FailedJob {
    /// Admission order of the job (0-based).
    pub sequence: usize,
    /// The submitting tenant.
    pub tenant: String,
    /// Why it failed.
    pub error: RuntimeError,
}

impl std::error::Error for RuntimeError {}

impl From<SchedulerError> for RuntimeError {
    fn from(e: SchedulerError) -> Self {
        RuntimeError::Scheduler(e)
    }
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

/// One tenant's FIFO in the rotation.
struct TenantQueue {
    name: String,
    jobs: VecDeque<AdmittedJob>,
    /// Pops granted per rotation (>= 1). Weight 1 for every tenant is
    /// exactly the classic one-job-per-tenant round-robin.
    weight: u64,
    /// Deficit counter: pops remaining in the current rotation. Refreshed
    /// to `weight` when the cursor (re)enters the tenant with 0 credits.
    credits: u64,
    /// A worker holds one of this tenant's jobs right now. At most one job
    /// per tenant is in flight: `pop` skips in-flight tenants and
    /// `complete_one` clears the flag. This serializes each tenant's jobs
    /// in submission order across any worker count — the property the
    /// quarantine ledger and the failure-determinism harness rely on.
    in_flight: bool,
}

/// The shared ingress queue: per-tenant FIFOs drained by **weighted
/// deficit round-robin**.
///
/// Fairness model: tenants are registered in first-submission order (the
/// rotation order); each rotation grants a tenant up to `weight`
/// consecutive pops before the cursor moves on. With all weights 1 this
/// is exactly one-job-per-tenant round-robin: a burst of `n` jobs from one
/// tenant delays another tenant's next job by at most one job, not `n`.
/// Heavier tenants get proportionally more service without ever locking
/// the rotation (credits exhaust, the cursor moves on).
///
/// Once the ingress is **closed**, an empty tenant FIFO can never refill;
/// `pop` retires such departed tenants from the rotation, so a service
/// that saw thousands of one-shot tenants does not scan (or retain) their
/// dead queues forever.
#[derive(Default)]
struct QueueState {
    /// Tenant FIFOs in first-submission order (the rotation order).
    tenants: Vec<TenantQueue>,
    /// Tenant name → index in `tenants` (submission fast path).
    index: HashMap<String, usize>,
    /// Rotation cursor into `tenants`.
    cursor: usize,
    /// No further submissions; workers exit once all queues empty.
    closed: bool,
    /// Next admission sequence number.
    next_sequence: usize,
    /// Jobs submitted but not yet completed or failed.
    outstanding: usize,
    /// Per-tenant depth/wait counters, kept here (not in [`TenantQueue`])
    /// so they survive tenant retirement and the final report can still
    /// describe a drained queue.
    stats: HashMap<String, TenantQueueStats>,
}

impl QueueState {
    /// Drops tenants whose queues are empty and idle (legal only once
    /// closed; an in-flight tenant stays registered so its completion can
    /// clear the flag). The cursor is re-based so the rotation continues
    /// with exactly the tenant that would have been served next among the
    /// survivors.
    fn retire_departed(&mut self) {
        if self
            .tenants
            .iter()
            .all(|t| !t.jobs.is_empty() || t.in_flight)
        {
            return;
        }
        let cursor = self.cursor;
        let mut removed_before_cursor = 0;
        let old = std::mem::take(&mut self.tenants);
        for (i, tenant) in old.into_iter().enumerate() {
            if tenant.jobs.is_empty() && !tenant.in_flight {
                self.index.remove(&tenant.name);
                if i < cursor {
                    removed_before_cursor += 1;
                }
            } else {
                // Survivors compact downward: re-point the name index at
                // the tenant's new slot so the name -> slot invariant
                // holds even if submissions ever resume.
                self.index.insert(tenant.name.clone(), self.tenants.len());
                self.tenants.push(tenant);
            }
        }
        self.cursor = if self.tenants.is_empty() {
            0
        } else {
            (cursor - removed_before_cursor) % self.tenants.len()
        };
    }
}

#[derive(Default)]
struct JobQueue {
    state: Mutex<QueueState>,
    /// Signalled on submit and close.
    ready: Condvar,
    /// Signalled on completion (for `drain`).
    idle: Condvar,
}

impl JobQueue {
    /// Queues a job with what admission observed and decided of it;
    /// returns its admission sequence number. A resubmitting tenant's
    /// weight updates to the latest value.
    fn submit(&self, job: RuntimeJob, admission: Admission) -> usize {
        let mut guard = lock_recover(&self.state);
        let state = &mut *guard;
        let sequence = state.next_sequence;
        state.next_sequence += 1;
        state.outstanding += 1;
        let weight = admission.weight.max(1);
        let slot = match state.index.get(&job.tenant) {
            Some(&slot) => slot,
            None => {
                let slot = state.tenants.len();
                state.index.insert(job.tenant.clone(), slot);
                state.tenants.push(TenantQueue {
                    name: job.tenant.clone(),
                    jobs: VecDeque::new(),
                    weight,
                    credits: 0,
                    in_flight: false,
                });
                slot
            }
        };
        let tenant = &mut state.tenants[slot];
        tenant.weight = weight;
        tenant.jobs.push_back(AdmittedJob {
            sequence,
            job,
            admission,
            // LINT: wall-clock — real queue-wait metric for TenantReport;
            // deterministic replay reads queued_clock_s instead.
            queued_at: Instant::now(),
        });
        let depth = tenant.jobs.len();
        let stats = entry_of(&mut state.stats, &tenant.name);
        stats.submitted += 1;
        stats.peak_depth = stats.peak_depth.max(depth);
        drop(guard);
        self.ready.notify_all();
        sequence
    }

    /// Takes the next job in weighted-deficit-round-robin tenant order,
    /// blocking while no tenant is serviceable (queue empty, or every
    /// queued tenant already has a job in flight) and the queue is not yet
    /// closed and drained. `None` once closed and every FIFO is empty. The
    /// scan indexes the rotation directly — no per-step tenant-name clone.
    fn pop(&self) -> Option<AdmittedJob> {
        let mut state = lock_recover(&self.state);
        loop {
            if state.closed {
                state.retire_departed();
            }
            let n = state.tenants.len();
            for offset in 0..n {
                let t = (state.cursor + offset) % n;
                let tenant = &mut state.tenants[t];
                if tenant.in_flight || tenant.jobs.is_empty() {
                    continue;
                }
                if tenant.credits == 0 {
                    tenant.credits = tenant.weight.max(1);
                }
                tenant.credits -= 1;
                let job = tenant
                    .jobs
                    .pop_front()
                    .expect("non-empty checked above");
                tenant.in_flight = true;
                if tenant.credits == 0 || tenant.jobs.is_empty() {
                    // Rotation exhausted (or nothing left to spend it on):
                    // the next pop moves past this tenant with a fresh
                    // deficit next time around.
                    tenant.credits = 0;
                    state.cursor = (t + 1) % n;
                } else {
                    // Credits remain: the cursor stays so the tenant's
                    // burst continues once this job completes.
                    state.cursor = t;
                }
                let stats = entry_of(&mut state.stats, &job.job.tenant);
                stats.served += 1;
                stats.total_wait_s += job.queued_at.elapsed().as_secs_f64();
                return Some(job);
            }
            if state.closed && state.tenants.iter().all(|t| t.jobs.is_empty()) {
                return None;
            }
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Records one completion (success or failure) and releases the
    /// tenant's in-flight slot so its next job becomes serviceable.
    fn complete_one(&self, tenant: &str) {
        let mut state = lock_recover(&self.state);
        if let Some(&slot) = state.index.get(tenant) {
            state.tenants[slot].in_flight = false;
        }
        state.outstanding -= 1;
        let drained = state.outstanding == 0;
        drop(state);
        // Waiting workers may be parked on the in-flight flag, not just on
        // submissions — wake them.
        self.ready.notify_all();
        if drained {
            self.idle.notify_all();
        }
    }

    /// Blocks until every admitted job has completed or failed.
    fn drain(&self) {
        let mut state = lock_recover(&self.state);
        while state.outstanding > 0 {
            state = self
                .idle
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    /// Closes the ingress: workers drain what is queued, then exit.
    /// Idempotent.
    fn close(&self) {
        lock_recover(&self.state).closed = true;
        self.ready.notify_all();
    }

    /// Snapshot of every tenant's queue counters (including retired
    /// tenants), sorted by tenant name.
    fn tenant_stats(&self) -> Vec<(String, TenantQueueStats)> {
        let state = lock_recover(&self.state);
        let mut out: Vec<_> = state
            .stats
            .iter()
            .map(|(name, stats)| (name.clone(), *stats))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

/// Closes the queue when dropped — **also on unwind**, so a panicking
/// producer closure fails the `serve` call instead of leaving workers
/// parked forever in [`JobQueue::pop`].
struct CloseOnDrop<'q>(&'q JobQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// Collected results of one service call, guarded by one lock so the
/// completion index is consistent with the push order.
#[derive(Default)]
struct ResultSink {
    completed: Vec<TenantReport>,
    failed: Vec<FailedJob>,
    completions: usize,
}

/// Per-tenant failure ledger behind the quarantine policy. Tenant jobs are
/// serialized by the queue's in-flight flag, so transitions here happen in
/// each tenant's submission order no matter how many workers run.
#[derive(Debug, Clone, Copy, Default)]
struct TenantHealth {
    /// Countable failures (panics, site-exhausted jobs) since the last
    /// success or quarantine trip.
    consecutive_failures: usize,
    /// Quarantine rejections still owed before service resumes.
    cooloff_remaining: usize,
}

/// The live ingress of a running [`FederationRuntime::serve`] call: the
/// handle tenants (and ingest pipelines) use to feed the worker pool while
/// it drains.
///
/// * [`Ingress::submit`] enqueues a job, **pinning the catalog version
///   current at admission** — the job will read exactly that snapshot.
/// * [`Ingress::ingest`] / [`Ingress::ingest_batch`] append delta chunks
///   copy-on-write and publish a new version atomically; only *later*
///   admissions observe it.
/// * [`Ingress::drain`] blocks until every job admitted so far has
///   completed — the barrier the deterministic replay harnesses use to
///   impose a known admission/ingest interleaving.
pub struct Ingress<'r, 'a> {
    runtime: &'r FederationRuntime<'a>,
    queue: &'r JobQueue,
}

impl Ingress<'_, '_> {
    /// Enqueues a job; returns its admission sequence number. The job pins
    /// the currently published catalog version and carries its tenant's
    /// current service weight (see
    /// [`FederationRuntime::set_tenant_weight`]).
    pub fn submit(&self, job: RuntimeJob) -> usize {
        self.runtime.admit(self.queue, job)
    }

    /// Appends one delta batch to `table` and publishes the successor
    /// catalog version (visible to admissions from now on; pinned jobs are
    /// unaffected). Cached fragment results and plans over the superseded
    /// table state are invalidated — entries over untouched tables
    /// survive.
    pub fn ingest(&self, table: &str, delta: Table) -> Result<IngestReceipt, EngineError> {
        self.runtime.publish(vec![(table.to_string(), delta)])
    }

    /// Appends deltas to several tables as **one** atomic version bump
    /// (with the same cache invalidation as [`Ingress::ingest`]).
    pub fn ingest_batch(
        &self,
        deltas: Vec<(String, Table)>,
    ) -> Result<IngestReceipt, EngineError> {
        self.runtime.publish(deltas)
    }

    /// Blocks until every job admitted so far has completed or failed.
    pub fn drain(&self) {
        self.queue.drain();
    }

    /// The currently published catalog version number.
    pub fn version(&self) -> u64 {
        self.runtime.catalog.version()
    }
}

/// One cached planning result: the enumerated QEP space, the profiled
/// (pressure-free) cost model, and that space costed under that model —
/// every candidate's cost vector reduced to the exact Pareto set. All three
/// are pure functions of (federation, placement, query shape, pinned table
/// contents), which is exactly what their cache key encodes; none depends
/// on a tenant's policy, so a hit leaves a job only Algorithm 2 to run
/// (Figure 3: a policy change re-selects from a reused Pareto set).
struct CachedPlan {
    space: EnumerationSpace,
    model: PlanCostModel,
    /// `cost_space(space, model)`: what every attempt whose model *is*
    /// `model` — no admission pressure folded in, no hot site — selects
    /// from.
    costed: CostedSpace,
}

/// What [`FederationRuntime::process`] hands back for one successful job.
struct ProcessOutcome {
    report: MidasReport,
    attempts: usize,
    cache_hits: u32,
    reused_fragments: u32,
    /// Speculative re-plan evaluations this job ran.
    replans: u32,
    /// Whether a re-plan switched the executed configuration.
    plan_switched: bool,
}

/// The concurrent federation query service (see the module docs).
pub struct FederationRuntime<'a> {
    federation: &'a Federation,
    placement: &'a Placement,
    catalog: VersionedCatalog,
    config: RuntimeConfig,
    env: Mutex<SimulationEnv>,
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

    /// Injects a deterministic fault schedule (builder style): every job
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

    /// The tenant's current service weight (1 unless configured).
    fn tenant_weight(&self, tenant: &str) -> u64 {
        lock_recover(&self.weights).get(tenant).copied().unwrap_or(1)
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

    /// Publishes one atomic delta batch *and* eagerly drops every cached
    /// fragment result and plan computed over the superseded table states.
    /// Entries over untouched tables (and over *other* versions of the
    /// appended tables) survive — invalidation is exact, keyed by the
    /// `(name, id)` identities the publish retired. The delta states of the
    /// dropped prepares and combines stay on as the fragment cache's
    /// predecessors, replacing the last publish's, so the next plan of each
    /// that can extend costs only the appended rows.
    fn publish(&self, deltas: Vec<(String, Table)>) -> Result<IngestReceipt, EngineError> {
        let (receipt, superseded) = self.catalog.append_batch_traced(deltas)?;
        if let Some(cache) = &self.fragment_cache {
            cache.invalidate_tables(&superseded);
        }
        if let Some(cache) = &self.plan_cache {
            cache.invalidate_matching(|key| {
                superseded.iter().any(|(name, id)| key.reads_table(name, *id))
            });
        }
        Ok(receipt)
    }

    /// Counters of both cache tiers (zeros for disabled tiers).
    pub fn cache_stats(&self) -> RuntimeCacheStats {
        RuntimeCacheStats {
            fragment: self
                .fragment_cache
                .as_ref()
                .map(FragmentResultCache::stats)
                .unwrap_or_default(),
            plan: self
                .plan_cache
                .as_ref()
                .map(ScopedCache::stats)
                .unwrap_or_default(),
            planning: self
                .fragment_cache
                .as_ref()
                .map(FragmentResultCache::planning_stats)
                .unwrap_or_default(),
        }
    }

    /// The currently published catalog version number.
    pub fn catalog_version(&self) -> u64 {
        self.catalog.version()
    }

    /// Simulated seconds on the shared federation clock.
    pub fn clock_s(&self) -> f64 {
        lock_recover(&self.env).clock_s
    }

    /// Per-site admission contention so far, keyed by site name.
    pub fn admission_stats(&self) -> Vec<(String, AdmissionStats)> {
        self.admission
            .stats()
            .into_iter()
            .map(|(site, stats)| (self.federation.site(site).name.clone(), stats))
            .collect()
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

    /// Admits one job to `queue`, in the one order every admission takes:
    /// pin the currently published catalog version, read the tenant's
    /// service weight, the simulated clock and the admission pressure,
    /// fingerprint the job's three plans, validate them (a repeated plan by
    /// a memo lookup), enqueue with the fingerprint, which the job's plan
    /// cache key reuses. Returns the job's admission sequence number.
    fn admit(&self, queue: &JobQueue, job: RuntimeJob) -> usize {
        let pinned = self.catalog.current();
        let weight = self.tenant_weight(&job.tenant);
        let queued_clock_s = self.clock_s();
        let pressure = self.sample_pressure();
        let q = &job.query;
        let plans = [&q.left_prepare, &q.right_prepare, &q.combine];
        let fingerprint = PlanFingerprint::of_plans(plans);
        let rejection = self.validate_admission(&job.tenant, &plans, &fingerprint);
        let admission = Admission {
            pinned,
            weight,
            queued_clock_s,
            pressure,
            fingerprint,
            rejection,
        };
        queue.submit(job, admission)
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

    /// Samples every admission gate's instantaneous pressure score —
    /// `(in use + waiting) / capacity` per metered site — **iff**
    /// congestion feedback is enabled. With
    /// [`RuntimeConfig::pressure_penalty`] at 0 this returns an empty
    /// vector without touching the gates, so the blind planner's lock
    /// traffic (and therefore its timing and outputs) is exactly what it
    /// was before pressure feedback existed.
    fn sample_pressure(&self) -> Vec<(SiteId, f64)> {
        if self.config.pressure_penalty > 0.0 {
            self.admission.pressure()
        } else {
            Vec::new()
        }
    }

    /// The scope component of a plan-tier key, the plan cache's and the
    /// verdict memo's. Planning has no execution site, so the scope
    /// degrades to tenant-private vs shared (SiteLocal shares — plans carry
    /// no tenant data, only table-derived work profiles).
    fn plan_scope(&self, tenant: &str) -> String {
        match self.config.cache_scope {
            CacheScope::PerTenant => format!("tenant:{tenant}"),
            CacheScope::SiteLocal | CacheScope::FederationGlobal => String::new(),
        }
    }

    /// Charge of one verdict memo entry beyond its key's and diagnostics'
    /// bytes: the key's tuple and `Arc` header, the map slot, the owner.
    const VERDICT_ENTRY_BYTES: u64 = 128;

    /// Statically validates `tenant`'s job against the runtime's schema
    /// environment at admission time: schema inference and type checking
    /// over its three fragment plans (left prepare, right prepare, combine
    /// with its `@frag` wiring), whose encoding is `fingerprint`. Returns
    /// the typed rejection for an invalid plan, `None` when the job may
    /// proceed to planning.
    ///
    /// Runs on the submitting thread, **before** the job enters the queue
    /// — so a rejected job never contends for an admission slot, never
    /// touches the plan or fragment caches, and never reaches the
    /// enumeration stack. The analyzer runs, at O(plan size), once per
    /// distinct scope and plan while the verdict memo holds it: schemas
    /// never change, so a repeated plan takes the recorded verdict, and
    /// the memo compares the full encoding, so no other plan can take it.
    fn validate_admission(
        &self,
        tenant: &str,
        plans: &[&PhysicalPlan; 3],
        fingerprint: &PlanFingerprint,
    ) -> Option<RuntimeError> {
        let memo = self
            .verdicts
            .as_ref()
            .map(|memo| (memo, (self.plan_scope(tenant), fingerprint.clone())));
        let verdict = match memo.as_ref().and_then(|(memo, key)| memo.get(key)) {
            Some(verdict) => verdict,
            None => {
                let errors: Vec<PlanDiagnostic> = analyze_fragment_plans(plans, &self.schemas)
                    .iter()
                    .flat_map(|a| a.errors().cloned())
                    .collect();
                let diagnostics_bytes: usize = errors
                    .iter()
                    .map(|d| std::mem::size_of::<PlanDiagnostic>() + d.path.len() + d.message.len())
                    .sum();
                let verdict: Verdict = (!errors.is_empty()).then(|| errors.into());
                if let Some((memo, key)) = memo {
                    let bytes = Self::VERDICT_ENTRY_BYTES
                        + (key.0.len() + fingerprint.encoded_len() + diagnostics_bytes) as u64;
                    memo.insert(key, verdict.clone(), bytes, tenant);
                }
                verdict
            }
        };
        verdict.map(|diagnostics| RuntimeError::InvalidPlan {
            tenant: tenant.to_string(),
            diagnostics: diagnostics.to_vec(),
        })
    }

    /// Checks the quarantine gate for one popped job: `Some(error)` when
    /// the tenant is mid-cool-off (the rejection itself consumes one
    /// cool-off unit), `None` when the job may proceed.
    fn quarantine_gate(&self, tenant: &str) -> Option<RuntimeError> {
        let mut health = lock_recover(&self.health);
        let h = health.get_mut(tenant).filter(|h| h.cooloff_remaining > 0)?;
        h.cooloff_remaining -= 1;
        Some(RuntimeError::Quarantined {
            tenant: tenant.to_string(),
            failures: self.config.quarantine_threshold,
            remaining_cooloff: h.cooloff_remaining,
        })
    }

    /// Updates the tenant's failure ledger after one job outcome. Panics
    /// and site-exhausted failures count toward quarantine; a success (or
    /// any other error kind) resets the streak; quarantine rejections
    /// leave the ledger untouched.
    fn record_health(&self, tenant: &str, outcome: &Result<ProcessOutcome, RuntimeError>) {
        let threshold = self.config.quarantine_threshold;
        let mut health = lock_recover(&self.health);
        let h = entry_of(&mut health, tenant);
        match outcome {
            Err(RuntimeError::WorkerPanicked(_))
            | Err(RuntimeError::SiteUnavailable { .. }) => {
                h.consecutive_failures += 1;
                if threshold > 0 && h.consecutive_failures >= threshold {
                    h.cooloff_remaining = self.config.quarantine_cooloff;
                    h.consecutive_failures = 0;
                }
            }
            // Admission-time rejections never touched the execution stack:
            // like quarantine rejections they leave the ledger untouched —
            // a malformed query must neither count toward quarantine nor
            // launder away a real failure streak.
            Err(RuntimeError::Quarantined { .. })
            | Err(RuntimeError::InvalidPlan { .. }) => {}
            _ => h.consecutive_failures = 0,
        }
    }

    /// One worker: pop (weighted round-robin), gate on quarantine,
    /// process with retries, record, until the ingress is closed and
    /// drained.
    ///
    /// Processing runs under `catch_unwind`: a job that panics — in
    /// planning, execution or learning — fails *alone* as
    /// [`RuntimeError::WorkerPanicked`], the worker keeps serving, and any
    /// lock the unwinding poisoned is recovered at its next use. Unwind
    /// safety: every piece of shared state the closure touches is behind a
    /// mutex whose invariants hold between operations (queues, counters,
    /// append-only histories, the drift RNG), which is exactly the
    /// guarantee the poison-recovering lock helpers rely on.
    fn worker_loop(&self, worker: usize, queue: &JobQueue, sink: &Mutex<ResultSink>) {
        while let Some(admitted) = queue.pop() {
            // LINT: wall-clock — real per-job latency metric; the
            // deterministic path uses the simulated clock below.
            let dequeued = Instant::now();
            let queue_wait_s = dequeued.duration_since(admitted.queued_at).as_secs_f64();
            let admitted_s = self.clock_s();
            // Admission wait on the *simulated* clock: how much federation
            // time elapsed while this job sat in the queue. Drives the
            // speculative-re-plan trigger, so the trigger is deterministic
            // under replay (unlike the wall-clock wait above).
            let waited_s = admitted_s - admitted.admission.queued_clock_s;
            let tenant = &admitted.job.tenant;
            let rejection = &admitted.admission.rejection;
            let outcome: Result<ProcessOutcome, RuntimeError> = match rejection {
                // Statically rejected at admission: fail immediately —
                // before the quarantine gate (the rejection is not a
                // health event) and before any planning or slot traffic.
                Some(rejected) => Err(rejected.clone()),
                None => match self.quarantine_gate(tenant) {
                    Some(rejected) => Err(rejected),
                    None => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.process(&admitted, waited_s)
                    })) {
                        Ok(result) => result,
                        Err(payload) => {
                            Err(RuntimeError::WorkerPanicked(panic_message(payload.as_ref())))
                        }
                    },
                },
            };
            // Ledger first, then sink, then release the tenant's in-flight
            // slot: the tenant's next job must observe this one's verdict.
            self.record_health(tenant, &outcome);
            {
                let mut sink = lock_recover(sink);
                let completion = sink.completions;
                sink.completions += 1;
                match outcome {
                    Ok(ProcessOutcome {
                        report,
                        attempts,
                        cache_hits,
                        reused_fragments,
                        replans,
                        plan_switched,
                    }) => sink.completed.push(TenantReport {
                        sequence: admitted.sequence,
                        completion,
                        tenant: tenant.clone(),
                        worker,
                        wall_latency_s: dequeued.elapsed().as_secs_f64(),
                        queue_wait_s,
                        queued_s: admitted.admission.queued_clock_s,
                        admitted_s,
                        completed_s: self.clock_s(),
                        pressure: admitted.admission.pressure.clone(),
                        replans,
                        plan_switched,
                        attempts,
                        cache_hits,
                        reused_fragments,
                        pinned_version: admitted.admission.pinned.version(),
                        report,
                    }),
                    Err(error) => sink.failed.push(FailedJob {
                        sequence: admitted.sequence,
                        tenant: tenant.clone(),
                        error,
                    }),
                }
            }
            queue.complete_one(tenant);
        }
    }

    /// Builds the service report from a drained sink and the ingress
    /// queue's per-tenant counters.
    fn finish(
        &self,
        started: Instant,
        sink: ResultSink,
        queue_stats: Vec<(String, TenantQueueStats)>,
    ) -> RuntimeReport {
        let ResultSink {
            mut completed,
            mut failed,
            ..
        } = sink;
        completed.sort_by_key(|r| r.sequence);
        failed.sort_by_key(|f| f.sequence);
        // Each class recorded into since its last fit fits once, inside the
        // timed call.
        let learning = self.registry.learning();

        let wall_s = started.elapsed().as_secs_f64();
        let mut tenants: HashMap<String, TenantStats> = HashMap::new();
        let mut latencies: HashMap<String, Vec<f64>> = HashMap::new();
        let mut replans: u64 = 0;
        let mut plan_switches: u64 = 0;
        let mut reused_fragments: u64 = 0;
        for r in &completed {
            let t = entry_of(&mut tenants, &r.tenant);
            t.queries += 1;
            t.mean_latency_s += r.wall_latency_s;
            t.sim_time_s += r.report.actual_costs[0];
            t.money += r.report.actual_costs[1];
            entry_of(&mut latencies, &r.tenant).push(r.completed_s - r.queued_s);
            replans += u64::from(r.replans);
            plan_switches += u64::from(r.plan_switched);
            reused_fragments += u64::from(r.reused_fragments);
        }
        // Queue counters cover every tenant that ever submitted, including
        // ones whose jobs all failed — register them so the report shows
        // their queue story too.
        for (name, _) in &queue_stats {
            tenants.entry(name.clone()).or_default();
        }
        let all_samples: Vec<f64> = latencies.values().flatten().copied().collect();
        let mut tenants: Vec<(String, TenantStats)> = tenants
            .into_iter()
            .map(|(name, mut stats)| {
                stats.mean_latency_s /= stats.queries.max(1) as f64;
                stats.latency = LatencyStats::from_samples(
                    latencies.remove(&name).unwrap_or_default(),
                );
                if let Some((_, queue)) = queue_stats.iter().find(|(n, _)| n == &name) {
                    stats.queue = *queue;
                }
                (name, stats)
            })
            .collect();
        tenants.sort_by(|a, b| a.0.cmp(&b.0));

        RuntimeReport {
            throughput_qps: if wall_s > 0.0 {
                completed.len() as f64 / wall_s
            } else {
                0.0
            },
            latency: LatencyStats::from_samples(all_samples),
            completed,
            failed,
            wall_s,
            sim_clock_s: self.clock_s(),
            admission: self.admission_stats(),
            tenants,
            catalog_version: self.catalog.version(),
            ingest: self.catalog.stats(),
            cache: self.cache_stats(),
            verdicts: self
                .verdicts
                .as_ref()
                .map(ScopedCache::stats)
                .unwrap_or_default(),
            replans,
            plan_switches,
            reused_fragments,
            learning,
        }
    }

    /// Cost multiplier on candidates joining at a site that failed earlier
    /// in the same job (see [`PlanCostModel::with_hot_sites`]).
    const HOT_SITE_PENALTY: f64 = 8.0;

    /// One pass of the pipeline for one admitted job — enumerate, cost,
    /// select (Algorithm 2), execute, learn, reading the job's pinned
    /// catalog version throughout — wrapped in
    /// the resilience loop: up to [`RuntimeConfig::max_attempts`] attempts,
    /// re-planning with failed sites marked hot between them. Returns the
    /// report plus the number of attempts taken.
    ///
    /// `waited_s` is the job's admission wait on the simulated clock; when
    /// it exceeds [`RuntimeConfig::replan_threshold`] × the predicted
    /// execution time (and pressure feedback is on), the selection is
    /// speculatively re-run against *live* gate pressure — see the re-plan
    /// block below.
    fn process(&self, admitted: &AdmittedJob, waited_s: f64) -> Result<ProcessOutcome, RuntimeError> {
        let job = &admitted.job;
        let query = &job.query;
        let scheduler_err =
            |e: SchedulerError| RuntimeError::Scheduler(e);
        // Planning and execution scan the pinned version's chunks where
        // they are; nothing on this path compacts a table (`pin()` is for
        // the flat oracles — `repro_lint`'s `serving-pin` rule keeps it so).
        let pinned = &admitted.admission.pinned;
        // The pinned tables' identities — the table component of every
        // cache key this job forms. Computed once per job; None when both
        // cache tiers are off.
        let table_ids = (self.fragment_cache.is_some() || self.plan_cache.is_some())
            .then(|| pinned.table_ids());
        // How planning and every attempt reach the fragment cache.
        let binding = self.fragment_cache.as_ref().zip(table_ids.as_ref()).map(|(cache, ids)| {
            ResultCacheBinding {
                cache,
                scope: self.config.cache_scope,
                tenant: &job.tenant,
                table_ids: ids,
            }
        });
        // Plan once: enumerate the QEP space and profile the fragments.
        // Pure CPU — runs fully in parallel. Retries re-*select* from the
        // same space under hot-site pressure; they do not re-profile and
        // do not re-execute (see `profiled` below). Both halves are pure
        // functions of (federation, placement, query shape, pinned table
        // contents), so the plan cache serves them by (scope,
        // prepare/combine fingerprints — admission's, encoded once —,
        // pinned table identities) — an ingest publish retires the
        // identities and forces a rebuild.
        let plan_key = self.plan_cache.as_ref().and(table_ids.as_ref()).and_then(|ids| {
            let left_id = *ids.get(&query.left_table)?;
            let right_id = *ids.get(&query.right_table)?;
            Some(CacheKey::new(
                self.plan_scope(&job.tenant),
                admitted.admission.fingerprint.clone(),
                vec![
                    (query.left_table.clone(), left_id),
                    (query.right_table.clone(), right_id),
                ],
            ))
        });
        let cached_plan = match (&self.plan_cache, &plan_key) {
            (Some(cache), Some(key)) => cache.get(key),
            _ => None,
        };
        // What profiling computed, kept for this job only: every attempt
        // below takes these outputs in place of executing the fragments
        // again, and they drop with the job. Never stored in the plan
        // cache (its entries stay a few hundred bytes); a plan-cache hit
        // profiles nothing, hands over nothing and executes as before.
        let mut profiled: Vec<ProfiledFragment> = Vec::new();
        let planned = match cached_plan {
            Some(hit) => hit,
            None => {
                let space = EnumerationSpace::for_query(
                    self.federation,
                    self.placement,
                    query,
                    self.config.max_vms,
                )
                .map_err(|e| scheduler_err(SchedulerError::Engine(e)))?;
                let model;
                // Through the fragment cache when there is one: a prepare
                // cached at this version, or cached before a publish that
                // only appended to its table, costs no more than the delta.
                (model, profiled) = match binding {
                    Some(binding) => {
                        PlanCostModel::profile_cached(self.placement, query, pinned, binding)
                    }
                    None => PlanCostModel::profile(self.placement, query, pinned),
                }
                .map_err(|e| scheduler_err(SchedulerError::Engine(e)))?;
                let costed = cost_space(&space, &model, self.federation);
                let entry = Arc::new(CachedPlan {
                    space,
                    model,
                    costed,
                });
                if let (Some(cache), Some(key)) = (&self.plan_cache, &plan_key) {
                    // Nominal footprint: an allowance per candidate (the
                    // Pareto set is a subset of them) plus a flat one for
                    // the model's work profiles.
                    let bytes = 512 + entry.space.len() as u64 * 64;
                    cache.insert(key.clone(), Arc::clone(&entry), bytes, &job.tenant);
                }
                entry
            }
        };
        let space = &planned.space;
        let base_model = &planned.model;
        let weights = WeightedSumModel::new(&job.policy.weights);
        let left_rows = base_rows(pinned, &query.left_table).map_err(scheduler_err)?;
        let right_rows = base_rows(pinned, &query.right_table).map_err(scheduler_err)?;

        // Algorithm 2 over the space costed under `pressure` and the sites
        // that failed earlier attempts (so the join routes around them),
        // both folded into a per-call clone of the cached model — after
        // cache insertion/retrieval, so transient congestion can never
        // poison the shared plan cache. Returns the model with its choice.
        let select_under = |pressure: &[(SiteId, f64)], hot_sites: &[SiteId]| {
            let mut model = base_model
                .clone()
                .with_site_pressure(pressure, self.config.pressure_penalty.max(0.0))
                .map_err(|e| scheduler_err(SchedulerError::CostModel(e)))?;
            if !hot_sites.is_empty() {
                model = model
                    .with_hot_sites(hot_sites, Self::HOT_SITE_PENALTY)
                    .map_err(|e| scheduler_err(SchedulerError::CostModel(e)))?;
            }
            let outcome = moqp_exhaustive(
                space,
                &model,
                self.federation,
                &weights,
                &job.policy.constraints,
            );
            Ok::<_, RuntimeError>((model, outcome))
        };

        let max_attempts = self.config.max_attempts.max(1);
        let mut hot_sites: Vec<SiteId> = Vec::new();
        let mut replans: u32 = 0;
        let mut plan_switched = false;
        for attempt in 0..max_attempts {
            // Select: multi-objective choice under the tenant's policy.
            // With no admission pressure sampled (feedback off — the
            // default) and no site failed yet, the attempt's model is the
            // cached pressure-free one, whose costed space the plan entry
            // already holds: only Algorithm 2 runs. Otherwise select under
            // the job's admission-time pressure sample and its hot sites.
            let pressure = &admitted.admission.pressure;
            let mut outcome = if pressure.is_empty() && hot_sites.is_empty() {
                select_costed(&planned.costed, &weights, &job.policy.constraints)
            } else {
                select_under(pressure, &hot_sites)?.1
            };

            // Speculative re-planning: the job waited so long (relative to
            // its predicted execution time) that its admission-time
            // pressure sample is stale — the federation has had time to
            // change shape. Re-select against *live* gate pressure and
            // switch only when the fresh choice is a different
            // configuration that strictly beats the stale one on predicted
            // time **under the same fresh model** (apples to apples — the
            // stale plan is re-costed with current pressure, not compared
            // across incompatible models).
            if self.config.pressure_penalty > 0.0
                && self.config.replan_threshold.is_finite()
                && waited_s > self.config.replan_threshold * outcome.chosen_costs[0]
            {
                replans += 1;
                let (fresh_model, fresh) =
                    select_under(&self.admission.pressure(), &hot_sites)?;
                let stale_under_fresh = fresh_model.cost(self.federation, &outcome.chosen);
                if fresh.chosen != outcome.chosen
                    && fresh.chosen_costs[0] < stale_under_fresh[0]
                {
                    plan_switched = true;
                    outcome = fresh;
                }
            }

            // Execute: per-site admission + shared drifting environment,
            // over the pinned version (the fragments' outputs are a slice
            // beside it, by position).
            // The fault position advances with the attempt, so a retry can
            // outlive a short outage window even when the failing site is
            // a pinned scan site no re-plan can move.
            let federated = assemble(self.federation, self.placement, query, &outcome.chosen)
                .map_err(|e| scheduler_err(SchedulerError::Engine(e)))?;
            let mut executor = SharedExecutor::new(self.federation, &self.env, &self.admission)
                .with_pacing(self.config.pacing)
                .with_profiled_fragments(&profiled);
            if let Some(binding) = binding {
                executor = executor.with_result_cache(binding);
            }
            if let Some(plan) = &self.fault_plan {
                executor =
                    executor.with_faults(plan, admitted.sequence as u64 + attempt as u64);
            }
            let executed =
                match executor.run_with_scale(&federated, pinned, self.config.work_scale) {
                    Ok(executed) => executed,
                    Err(EngineError::SiteUnavailable { site }) => {
                        if !hot_sites.contains(&site) {
                            hot_sites.push(site);
                        }
                        if attempt + 1 == max_attempts {
                            return Err(RuntimeError::SiteUnavailable {
                                tenant: job.tenant.clone(),
                                site,
                                attempts: max_attempts,
                            });
                        }
                        continue;
                    }
                    Err(e) => return Err(scheduler_err(SchedulerError::Engine(e))),
                };

            // Deadline: judged on the attempt that ran to completion,
            // before the observation can contaminate the learners.
            if let Some(deadline_s) = job.deadline_s {
                if executed.elapsed_s > deadline_s {
                    return Err(RuntimeError::DeadlineExceeded {
                        tenant: job.tenant.clone(),
                        deadline_s,
                        elapsed_s: executed.elapsed_s,
                        attempts: attempt + 1,
                    });
                }
            }

            let features =
                features_from(left_rows, right_rows, &executed, self.config.work_scale);
            let costs = executed.cost_vector();

            // Learn: record into the shared per-class modelling; the class
            // refits when the report reads it (`finish`).
            self.registry
                .record(query.class(), &features, &costs)
                .map_err(|e| scheduler_err(SchedulerError::Estimation(e)))?;

            return Ok(ProcessOutcome {
                report: MidasReport {
                    label: query.label.clone(),
                    space_size: space.len(),
                    pareto_size: outcome.pareto.len(),
                    predicted_costs: outcome.chosen_costs,
                    actual_costs: costs,
                    result_rows: executed.result.n_rows(),
                    result_fingerprint: executed.result.fingerprint(),
                    catalog_shared_bytes: executed.catalog_shared_bytes,
                    chosen: outcome.chosen,
                },
                attempts: attempt + 1,
                cache_hits: executed.cache_hits,
                reused_fragments: executed.reused_fragments,
                replans,
                plan_switched,
            });
        }
        // LINT: panic-ok — the loop body returns Ok or Err on its final
        // iteration (attempt == max_attempts - 1); falling out is a bug in
        // this function, not a reachable input state.
        unreachable!("the attempt loop returns on its final iteration")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use midas_tpch::queries::q12;

    fn job(tenant: &str) -> RuntimeJob {
        RuntimeJob::new(tenant, q12("MAIL", "SHIP", 1994), QueryPolicy::balanced())
    }

    /// A valid admission at weight `weight` over an empty catalog.
    fn admission(weight: u64) -> Admission {
        let q = q12("MAIL", "SHIP", 1994);
        Admission {
            pinned: VersionedCatalog::new(Catalog::new()).current(),
            weight,
            queued_clock_s: 0.0,
            pressure: Vec::new(),
            fingerprint: PlanFingerprint::of_plans([&q.left_prepare, &q.right_prepare, &q.combine]),
            rejection: None,
        }
    }

    /// Pops one job and immediately completes it (clearing the in-flight
    /// flag), returning the tenant it came from.
    fn pop_complete(q: &JobQueue) -> Option<String> {
        let j = q.pop()?;
        let tenant = j.job.tenant.clone();
        q.complete_one(&tenant);
        Some(tenant)
    }

    #[test]
    fn pop_is_round_robin_and_retires_departed_tenants_once_closed() {
        let q = JobQueue::default();
        for (tenant, n) in [("a", 3usize), ("b", 1), ("c", 2)] {
            for _ in 0..n {
                q.submit(job(tenant), admission(1));
            }
        }
        q.close();
        let mut order = Vec::new();
        while let Some(tenant) = pop_complete(&q) {
            order.push(tenant);
        }
        // Retirement never perturbs the round-robin service order…
        assert_eq!(order, ["a", "b", "c", "a", "c", "a"]);
        // …and a drained closed queue holds no dead tenant FIFOs.
        let state = lock_recover(&q.state);
        assert!(state.tenants.is_empty());
        assert!(state.index.is_empty());
    }

    #[test]
    fn weighted_tenants_get_proportional_service() {
        let q = JobQueue::default();
        for _ in 0..6 {
            q.submit(job("heavy"), admission(3));
        }
        for _ in 0..3 {
            q.submit(job("light"), admission(1));
        }
        q.close();
        let mut order = Vec::new();
        while let Some(tenant) = pop_complete(&q) {
            order.push(tenant);
        }
        // Deficit round-robin: 3 heavy pops per light pop, and the tail
        // drains heavy's leftovers once light departs.
        assert_eq!(
            order,
            ["heavy", "heavy", "heavy", "light", "heavy", "heavy", "heavy", "light", "light"]
        );
    }

    #[test]
    fn in_flight_tenants_are_skipped_until_completion() {
        let q = JobQueue::default();
        q.submit(job("a"), admission(1));
        q.submit(job("a"), admission(1));
        q.submit(job("b"), admission(1));
        q.close();
        // A's first job is in flight; the next pop must skip to b even
        // though a's FIFO still holds a job.
        let first = q.pop().unwrap();
        assert_eq!(first.job.tenant, "a");
        let second = q.pop().unwrap();
        assert_eq!(second.job.tenant, "b");
        // Completing a's job releases its second one.
        q.complete_one("a");
        let third = q.pop().unwrap();
        assert_eq!(third.job.tenant, "a");
        q.complete_one("b");
        q.complete_one("a");
        assert!(q.pop().is_none());
    }

    #[test]
    fn retirement_rebases_the_cursor_onto_the_next_survivor() {
        let q = JobQueue::default();
        q.submit(job("a"), admission(1));
        q.submit(job("b"), admission(1));
        q.submit(job("c"), admission(1));
        q.submit(job("c"), admission(1));
        // Serve a and b while open (cursor now points at c)…
        assert_eq!(pop_complete(&q).unwrap(), "a");
        assert_eq!(pop_complete(&q).unwrap(), "b");
        q.close();
        // …then retirement removes both departed tenants *before* the
        // cursor; service continues exactly at c.
        let j = q.pop().unwrap();
        assert_eq!(j.job.tenant, "c");
        {
            let state = lock_recover(&q.state);
            assert_eq!(state.tenants.len(), 1);
            assert_eq!(state.cursor, 0);
        }
        q.complete_one("c");
        assert_eq!(pop_complete(&q).unwrap(), "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn retirement_repoints_the_index_at_survivors_compacted_slots() {
        let q = JobQueue::default();
        q.submit(job("a"), admission(1));
        q.submit(job("b"), admission(1));
        q.submit(job("b"), admission(1));
        assert_eq!(pop_complete(&q).unwrap(), "a");
        q.close();
        // Retirement drops a (slot 0) and compacts b from slot 1 to 0.
        assert_eq!(pop_complete(&q).unwrap(), "b");
        {
            let state = lock_recover(&q.state);
            assert_eq!(state.index.get("b"), Some(&0));
            assert!(!state.index.contains_key("a"));
        }
        // A submission routed through the index after compaction must land
        // in b's (moved) FIFO, not panic on a stale slot.
        q.submit(job("b"), admission(1));
        assert_eq!(pop_complete(&q).unwrap(), "b");
        assert_eq!(pop_complete(&q).unwrap(), "b");
        assert!(q.pop().is_none());
    }

    #[test]
    fn one_shot_tenants_do_not_accumulate_after_close() {
        let q = JobQueue::default();
        for i in 0..100 {
            q.submit(job(&format!("tenant-{i}")), admission(1));
        }
        assert_eq!(lock_recover(&q.state).tenants.len(), 100);
        q.close();
        let mut served = 0;
        while pop_complete(&q).is_some() {
            served += 1;
            // Once closed, tenants retire as their FIFOs drain: the
            // rotation shrinks monotonically instead of scanning 100 dead
            // queues per pop forever.
            assert!(lock_recover(&q.state).tenants.len() <= 100 - served + 1);
        }
        assert_eq!(served, 100);
        assert!(lock_recover(&q.state).tenants.is_empty());
    }

    #[test]
    fn runtime_error_formats_every_variant_with_context() {
        let p = RuntimeError::WorkerPanicked("boom".to_string());
        assert_eq!(p.to_string(), "worker panicked: boom");
        let s = RuntimeError::Scheduler(SchedulerError::MissingTable {
            table: "ghost".to_string(),
        });
        assert!(s.to_string().contains("ghost"));
        let u = RuntimeError::SiteUnavailable {
            tenant: "hospital-A".to_string(),
            site: SiteId(2),
            attempts: 3,
        };
        let text = u.to_string();
        assert!(text.contains("hospital-A") && text.contains("site 2") && text.contains('3'));
        let d = RuntimeError::DeadlineExceeded {
            tenant: "hospital-B".to_string(),
            deadline_s: 1.5,
            elapsed_s: 9.0,
            attempts: 2,
        };
        let text = d.to_string();
        assert!(text.contains("hospital-B") && text.contains("1.5") && text.contains('9'));
        let qe = RuntimeError::Quarantined {
            tenant: "rogue".to_string(),
            failures: 3,
            remaining_cooloff: 7,
        };
        let text = qe.to_string();
        assert!(text.contains("rogue") && text.contains('7'));
    }
}
