//! The federated executor: run fragments, simulate time and money.
//!
//! A federated query is a sequence of *fragments*, each pinned to a site,
//! engine and VM allocation. Fragments exchange data by name: a fragment's
//! output is visible to later fragments as the table `@frag<N>`. Running a
//! fragment does real row processing and then converts the measured
//! [`WorkProfile`] into simulated wall-clock time under the engine
//! profile, VM parallelism, current site load and noise — plus billed
//! money under the site's pricing model, including egress for cross-site
//! fragment inputs.
//!
//! **Morsel-driven relational phase.** Fragment plans run through the
//! fused executor ([`crate::fused::execute_fused_with_partitions`]):
//! filters and projections stream over cache-resident morsels with
//! per-operator compiled kernel plans and pooled scratch buffers, and
//! `Aggregate ∘ Filter* ∘ HashJoin` shapes consume the join as index
//! triples, gathering only referenced columns. This is purely an engine
//! substitution — results and work profiles are bit-identical to
//! [`crate::ops::execute_with_partitions`] (the `fused_differential`
//! suite pins this), so every simulation quantity derived from a
//! profile is unchanged.
//!
//! The data plane is zero-copy, over either [`TableSource`]. Base tables
//! in a shared [`Catalog`] of `Arc<Table>` entries seed the per-query
//! execution catalog by `Arc::clone` (a refcount bump, never a byte copy —
//! pinned by [`ExecutionOutcome::catalog_cloned_bytes`]); base tables in a
//! `CatalogVersion` are not seeded at all — fragments scan the version's
//! chunks where they are, so a table that grew by appends is never
//! compacted for a run. Fragment outputs enter the per-query catalog
//! `Arc::new`-ed exactly once. Because both are immutable during a wave
//! of independent fragments, those fragments can execute *concurrently*
//! (see [`SharedExecutor::with_parallel_fragments`]) while the simulation
//! bookkeeping still runs in deterministic fragment order.
//!
//! **Each fragment runs once per job.** Planning profiles a query by
//! running its fragments ([`profile_fragments`]); a run that is handed
//! those [`ProfiledFragment`]s takes each matching output in place of
//! executing the plan again. Outputs and work profiles do not depend on
//! the chosen site, engine or instance — the simulation phase applies
//! those afterwards — so a handed-over run is bit-identical to a run
//! that executed.

use crate::cache::{CacheKey, CacheScope, CachedFragment, FragmentResultCache, PlanFingerprint};
use crate::catalog::Catalog;
use crate::engine::{EngineKind, EngineProfile};
use crate::error::EngineError;
use crate::fused::{execute_fused_over, TableSource};
use crate::ops::{OpKind, PhysicalPlan, WorkProfile};
use crate::sim::{FaultPlan, SimulationEnv, SiteAdmission};
use crate::data::Table;
use midas_cloud::{Federation, InstanceType, Money, SiteId};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One unit of site-pinned work.
#[derive(Debug, Clone)]
pub struct Fragment {
    /// The operator tree; scans may reference base tables or `@frag<N>`.
    pub plan: PhysicalPlan,
    /// Where it runs.
    pub site: SiteId,
    /// Which engine runs it.
    pub engine: EngineKind,
    /// Instance-type name from the site's catalog.
    pub instance: String,
    /// Number of VMs allocated.
    pub vm_count: u32,
}

/// A whole federated query: fragments in execution (topological) order.
#[derive(Debug, Clone)]
pub struct FederatedQuery {
    /// The fragments; fragment `i` may read the outputs of fragments `< i`.
    pub fragments: Vec<Fragment>,
}

/// Per-fragment accounting.
#[derive(Debug, Clone)]
pub struct FragmentOutcome {
    /// Simulated seconds, transfers included.
    pub elapsed_s: f64,
    /// Money billed for VMs plus egress.
    pub money: Money,
    /// Bytes shipped into this fragment from other sites.
    pub ingress_bytes: u64,
    /// The work the fragment performed.
    pub work: WorkProfile,
}

/// One fragment output computed ahead of the run by
/// [`profile_fragments`], carrying the plan that produced it so a run can
/// never apply it to a different fragment.
#[derive(Debug, Clone)]
pub struct ProfiledFragment {
    /// The plan that was executed, compared by equality against the
    /// fragment it is offered to.
    pub plan: PhysicalPlan,
    /// The plan's output table.
    pub table: Arc<Table>,
    /// The operator work the execution performed.
    pub work: WorkProfile,
}

/// Runs `plans` in order as the fragments of one query, outside any
/// simulation: plan `i` may scan `@frag<j>` for `j < i`, exactly as in a
/// [`FederatedQuery`], and every plan goes through the same fused executor
/// [`SharedExecutor`] uses, so each output is what a run over the same
/// `base_tables` would compute for that fragment. Base tables are read
/// where they are — a flat catalog's by reference, a version's chunk by
/// chunk — and only the `@frag` outputs enter a per-query catalog.
pub fn profile_fragments<'a>(
    plans: &[&PhysicalPlan],
    base_tables: impl Into<TableSource<'a>>,
    partition_degree: usize,
) -> Result<Vec<ProfiledFragment>, EngineError> {
    let base_tables = base_tables.into();
    let mut catalog = Catalog::new();
    let mut profiled = Vec::with_capacity(plans.len());
    for (idx, &plan) in plans.iter().enumerate() {
        let (table, work) = execute_fused_over(plan, &catalog, base_tables, partition_degree)?;
        let table = Arc::new(table);
        catalog.insert_shared(format!("@frag{idx}"), Arc::clone(&table));
        profiled.push(ProfiledFragment {
            plan: plan.clone(),
            table,
            work,
        });
    }
    Ok(profiled)
}

/// The result of executing a federated query.
#[derive(Debug, Clone)]
pub struct ExecutionOutcome {
    /// The final fragment's output table, shared: the same allocation a
    /// result-cache entry or the planning hand-off holds when the fragment
    /// came from one, so handing it over is a refcount bump whatever the
    /// result's size — and its memoized [`Table::fingerprint`] survives
    /// with the cached table from one hit to the next. Read through
    /// `Deref`; `(*outcome.result).clone()` is the explicit deep copy.
    pub result: Arc<Table>,
    /// Total simulated wall-clock seconds.
    pub elapsed_s: f64,
    /// Total billed money.
    pub money: Money,
    /// Total intermediate bytes produced across fragments.
    pub intermediate_bytes: u64,
    /// Bytes of base-table data the run reads in place — through shared
    /// `Arc<Table>` handles seeded from a flat catalog, or chunk by chunk
    /// from a version (then counted as the contiguous tables would measure,
    /// so both sources report the same number). The volume the pre-Arc
    /// executor deep-copied for every job.
    pub catalog_shared_bytes: u64,
    /// Bytes of base-table data deep-copied while seeding the per-query
    /// catalog. Structurally zero on the `Arc` path; surfaced (and recorded
    /// by the runtime bench) as a regression gate so a reintroduced
    /// per-job copy fails loudly.
    pub catalog_cloned_bytes: u64,
    /// Fragments served from the result cache instead of executing (their
    /// tables and work profiles are bit-identical to recomputation; only
    /// wall-clock changes — see [`crate::cache`]).
    pub cache_hits: u32,
    /// Fragments whose output was taken from the planning hand-off (see
    /// [`SharedExecutor::with_profiled_fragments`]) instead of executing.
    /// Disjoint from `cache_hits`: the result cache is consulted first.
    pub reused_fragments: u32,
    /// Per-fragment breakdown.
    pub fragments: Vec<FragmentOutcome>,
}

impl ExecutionOutcome {
    /// The cost vector `(time, money)` the experiments feed estimators.
    pub fn cost_vector(&self) -> Vec<f64> {
        vec![self.elapsed_s, self.money.as_dollars()]
    }
}

/// A convenience bundle describing the canonical two-table QEP
/// configuration: where to join and what to buy there.
#[derive(Debug, Clone, PartialEq)]
pub struct QepConfig {
    /// Join/aggregate site.
    pub join_site: SiteId,
    /// Engine performing the join.
    pub join_engine: EngineKind,
    /// Instance type purchased at the join site.
    pub instance: String,
    /// How many VMs.
    pub vm_count: u32,
}

/// The federated executor.
pub struct Executor<'a> {
    federation: &'a Federation,
    env: SimulationEnv,
    partition_degree: usize,
}

impl<'a> Executor<'a> {
    /// Binds an executor to a federation with a fresh simulation
    /// environment.
    pub fn new(federation: &'a Federation, env: SimulationEnv) -> Self {
        Executor {
            federation,
            env,
            partition_degree: 1,
        }
    }

    /// Sets the intra-operator partition fan-out: hash joins and grouped
    /// aggregations inside every fragment run `degree`-way partitioned on
    /// scoped threads (see [`crate::ops::execute_with_partitions`]). Results, work
    /// profiles and fingerprints are bit-identical at every degree; 0/1 is
    /// the serial path.
    pub fn with_partition_degree(mut self, degree: usize) -> Self {
        self.partition_degree = degree.max(1);
        self
    }

    /// Read access to the simulation environment (for tests/experiments).
    pub fn env(&self) -> &SimulationEnv {
        &self.env
    }

    /// Mutable access, e.g. to advance drift between queries.
    pub fn env_mut(&mut self) -> &mut SimulationEnv {
        &mut self.env
    }

    /// Executes a federated query against a shared base-table catalog (or
    /// one published version of it — see [`TableSource`]).
    pub fn run<'t>(
        &mut self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
    ) -> Result<ExecutionOutcome, EngineError> {
        self.run_with_scale(query, base_tables, 1.0)
    }

    /// Like [`Executor::run`] but treating every physical row as
    /// `work_scale` logical rows.
    ///
    /// Row-capped datasets (see the TPC-H generator's uniform rescale) carry
    /// fewer physical rows than the scale factor nominally implies; passing
    /// `work_scale = 1 / rescale` makes the *simulated* time, transfer and
    /// billing reflect the nominal data volume while the relational work
    /// stays cheap.
    pub fn run_with_scale<'t>(
        &mut self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
        work_scale: f64,
    ) -> Result<ExecutionOutcome, EngineError> {
        self.run_profiled(query, base_tables, work_scale, &[])
    }

    /// [`Executor::run_with_scale`] handed the outputs planning already
    /// computed over the same `base_tables` (see
    /// [`SharedExecutor::with_profiled_fragments`] for the contract).
    pub fn run_profiled<'t>(
        &mut self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
        work_scale: f64,
        profiled: &[ProfiledFragment],
    ) -> Result<ExecutionOutcome, EngineError> {
        run_federated(
            self.federation,
            &mut EnvHandle::Exclusive(&mut self.env),
            RunOptions {
                admission: None,
                pacing: 0.0,
                parallel: false,
                work_scale,
                partition_degree: self.partition_degree,
                faults: None,
                cache: None,
                profiled,
            },
            query,
            base_tables.into(),
        )
    }
}

/// How one [`run_federated`] call reaches a shared [`FragmentResultCache`]:
/// the cache itself, the sharing-scope policy, who is asking, and the
/// identity of every pinned base table (see [`crate::cache`] for why these
/// four pieces make a hit sound).
#[derive(Clone, Copy)]
pub struct ResultCacheBinding<'a> {
    /// The shared cache.
    pub cache: &'a FragmentResultCache,
    /// The sharing-domain policy in force for this run.
    pub scope: CacheScope,
    /// The submitting tenant — the `PerTenant` scope component and the
    /// eviction owner of any entries this run inserts.
    pub tenant: &'a str,
    /// `name → id` identities of the pinned catalog version's tables
    /// (see `CatalogVersion::table_ids`). Fragments scanning a table
    /// absent from this map are simply not cached.
    pub table_ids: &'a HashMap<String, u64>,
}

/// The fault schedule one run executes under: the plan plus the run's
/// position in fault space (its job's admission sequence plus retry
/// attempt — see [`FaultPlan`]).
#[derive(Debug, Clone, Copy)]
pub struct FaultContext<'a> {
    /// The injected schedule.
    pub plan: &'a FaultPlan,
    /// This run's fault position.
    pub position: u64,
}

impl FaultContext<'_> {
    fn site_down(&self, site: SiteId) -> bool {
        self.plan.site_down(site, self.position)
    }

    fn slowdown(&self, site: SiteId) -> f64 {
        self.plan.slowdown_factor(site, self.position)
    }

    fn capped(&self, site: SiteId) -> bool {
        self.plan.admission_capped(site, self.position)
    }
}

/// Per-run execution knobs of [`run_federated`].
struct RunOptions<'a> {
    /// Per-site admission gates (`None` = unmetered legacy executor).
    admission: Option<&'a SiteAdmission>,
    /// Wall seconds slept per nominal simulated second of site occupancy.
    pacing: f64,
    /// Run independent fragments of one wave on scoped threads.
    parallel: bool,
    /// Logical rows per physical row.
    work_scale: f64,
    /// Intra-operator partition fan-out for joins/aggregations.
    partition_degree: usize,
    /// Injected faults (`None` = a healthy federation).
    faults: Option<FaultContext<'a>>,
    /// Shared fragment-result cache (`None` = always execute cold).
    cache: Option<ResultCacheBinding<'a>>,
    /// Fragment outputs handed over by planning, by fragment index (empty =
    /// execute everything).
    profiled: &'a [ProfiledFragment],
}

/// How a run reaches the simulation environment: exclusively (the legacy
/// single-threaded [`Executor`]) or through a shared lock (the concurrent
/// [`SharedExecutor`]). Both take the env ops (`load`, `noise`, `tick`) on
/// exactly the same code path, which is what makes a single-worker shared
/// run bit-identical to a sequential one.
enum EnvHandle<'e> {
    /// Direct mutable access.
    Exclusive(&'e mut SimulationEnv),
    /// Lock-per-fragment access.
    Shared(&'e Mutex<SimulationEnv>),
}

impl EnvHandle<'_> {
    fn with<R>(&mut self, f: impl FnOnce(&mut SimulationEnv) -> R) -> R {
        match self {
            EnvHandle::Exclusive(env) => f(env),
            // Recover a poisoned env instead of cascading: the guarded
            // drift/clock state is plain arithmetic kept consistent at
            // every unlock, and one panicked job must not abort the whole
            // runtime's simulation.
            EnvHandle::Shared(env) => f(&mut env
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)),
        }
    }
}

/// An executor over a *shared* simulation environment, safe to call from
/// many worker threads at once.
///
/// Three concurrency controls compose here:
///
/// 1. **Per-site admission** — before a fragment's relational work runs, a
///    slot is acquired from the [`SiteAdmission`] gate of its site; workers
///    queue when the site is saturated, exactly like queries queue on a real
///    federation site with a bounded resource pool.
/// 2. **Locked env sections** — the drift/noise/clock bookkeeping of each
///    fragment happens under one short lock of the shared
///    [`SimulationEnv`], so per-site RNG streams stay internally
///    consistent no matter how executions interleave.
/// 3. **Pacing** — optionally, each fragment *occupies its site slot* for a
///    wall-clock duration proportional to its **nominal** occupancy (its
///    work profile simulated at unit load with no noise; `pacing` wall
///    seconds per nominal simulated second). This models what a runtime
///    actually experiences while a remote site executes a fragment: the
///    submitting worker waits, and *other* queries can run meanwhile.
///    Pacing never feeds back into simulated outcomes, and because the
///    nominal base is a pure function of plan and data, a workload's total
///    paced wall-clock is identical at every worker count — which is what
///    makes multi-worker throughput numbers comparable.
pub struct SharedExecutor<'a> {
    federation: &'a Federation,
    env: &'a Mutex<SimulationEnv>,
    admission: &'a SiteAdmission,
    pacing: f64,
    parallel_fragments: bool,
    partition_degree: usize,
    faults: Option<FaultContext<'a>>,
    cache: Option<ResultCacheBinding<'a>>,
    profiled: &'a [ProfiledFragment],
}

impl<'a> SharedExecutor<'a> {
    /// Binds a shared executor to a federation, a lock-guarded environment
    /// and an admission layer. No pacing by default.
    pub fn new(
        federation: &'a Federation,
        env: &'a Mutex<SimulationEnv>,
        admission: &'a SiteAdmission,
    ) -> Self {
        SharedExecutor {
            federation,
            env,
            admission,
            pacing: 0.0,
            parallel_fragments: false,
            partition_degree: 1,
            faults: None,
            cache: None,
            profiled: &[],
        }
    }

    /// Sets the wall-clock dilation: `pacing` wall seconds slept per
    /// *nominal* simulated second, while the fragment's site slot is held.
    pub fn with_pacing(mut self, pacing: f64) -> Self {
        self.pacing = if pacing.is_finite() && pacing > 0.0 {
            pacing
        } else {
            0.0
        };
        self
    }

    /// Enables intra-query parallelism: mutually independent fragments (one
    /// *wave* of the dependency DAG — e.g. the two scan fragments of a
    /// two-table query) execute concurrently on scoped threads, each under
    /// its own site admission permit.
    ///
    /// Only wall-clock overlap changes: the simulation bookkeeping (load
    /// reads, noise draws, clock ticks) still runs in fragment order, so
    /// the *simulated* outcome of a query is bit-for-bit identical with the
    /// flag on or off.
    pub fn with_parallel_fragments(mut self, enabled: bool) -> Self {
        self.parallel_fragments = enabled;
        self
    }

    /// Sets the intra-operator partition fan-out (see
    /// [`Executor::with_partition_degree`]): wave parallelism overlaps
    /// *fragments*, this overlaps the join/aggregation *inside* one
    /// fragment — both compose under the per-site admission permits.
    pub fn with_partition_degree(mut self, degree: usize) -> Self {
        self.partition_degree = degree.max(1);
        self
    }

    /// Runs this executor under an injected fault schedule at the given
    /// fault position (see [`FaultPlan`]): fragments bound to a down site
    /// fail with [`EngineError::SiteUnavailable`] *before* taking an
    /// admission slot, slowdown windows multiply the site's load inside the
    /// fragment's env section, and flap windows cap the site's admission
    /// gate at one slot. Positions outside every window execute exactly the
    /// healthy path — bit-for-bit, since a 1.0 slowdown multiplies load by
    /// exactly 1.0 and consumes no extra RNG draws.
    pub fn with_faults(mut self, plan: &'a FaultPlan, position: u64) -> Self {
        self.faults = Some(FaultContext { plan, position });
        self
    }

    /// Serves fragments from (and populates) a shared result cache: before
    /// a fragment takes its admission slot, its cache key — sharing scope,
    /// the canonical fingerprint of its dependency-closure plans, and the
    /// pinned identities of every base table the closure reads — is looked
    /// up; a hit returns the `Arc`'d table and work profile without
    /// executing, pacing, or occupying the site. Results and simulated
    /// outcomes are bit-identical either way (the executor is
    /// deterministic; see [`crate::cache`]). Injected site outages still
    /// fail *before* the cache lookup, so fault schedules replay
    /// identically warm or cold. A hit on the final fragment makes
    /// [`ExecutionOutcome::result`] the cached `Arc` itself, so a fully
    /// warm run copies no table bytes at all.
    pub fn with_result_cache(mut self, binding: ResultCacheBinding<'a>) -> Self {
        self.cache = Some(binding);
        self
    }

    /// Hands the run the fragment outputs planning already computed
    /// ([`profile_fragments`] over the **same** `base_tables` the run will
    /// be given), `profiled[i]` for fragment `i`. Fragment `i` takes its
    /// entry *in place of executing its plan* when the entry's plan equals
    /// the fragment's and every fragment it reads from matched too;
    /// otherwise — a short or empty list, a hand-built or re-planned query
    /// — it executes as if nothing had been handed over. Everything around
    /// the execution is unchanged: the outage check, the result-cache
    /// lookup (a hit still wins), the site permit, the paced occupancy,
    /// the cache insert and the whole simulation phase, so simulated
    /// outcomes are bit-identical with or without a hand-off.
    pub fn with_profiled_fragments(mut self, profiled: &'a [ProfiledFragment]) -> Self {
        self.profiled = profiled;
        self
    }

    /// Executes a federated query against base tables (logical scale 1).
    pub fn run<'t>(
        &self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
    ) -> Result<ExecutionOutcome, EngineError> {
        self.run_with_scale(query, base_tables, 1.0)
    }

    /// Like [`SharedExecutor::run`] with an explicit logical work scale
    /// (see [`Executor::run_with_scale`]).
    pub fn run_with_scale<'t>(
        &self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
        work_scale: f64,
    ) -> Result<ExecutionOutcome, EngineError> {
        run_federated(
            self.federation,
            &mut EnvHandle::Shared(self.env),
            RunOptions {
                admission: Some(self.admission),
                pacing: self.pacing,
                parallel: self.parallel_fragments,
                work_scale,
                partition_degree: self.partition_degree,
                faults: self.faults,
                cache: self.cache,
                profiled: self.profiled,
            },
            query,
            base_tables.into(),
        )
    }
}

/// The one federated-execution loop behind both executors.
///
/// Execution is staged so the *relational* work (pure data processing over
/// the shared catalog) decouples from the *simulation* bookkeeping:
///
/// 1. **Dependency analysis** groups fragments into waves — fragment `i`'s
///    wave is its depth in the `@frag` dependency DAG, so fragments of one
///    wave are mutually independent.
/// 2. **Relational phase**, wave by wave: each fragment acquires its site
///    permit, obtains its output — the planning hand-off's when one
///    matches (see [`SharedExecutor::with_profiled_fragments`]), else by
///    running the fused executor over the catalog — holds the permit
///    through its paced occupancy, then releases. With `parallel` on, a
///    wave's fragments do this on scoped threads concurrently. Cross-site
///    transfer costs and instance shapes are resolved before the wave
///    (pure functions of earlier waves' outputs).
/// 3. **Simulation phase**: after each wave, one env section per newly
///    completed fragment (read load, draw noise, tick the clock) plus
///    billing — always consumed in fragment *index* order, advancing a
///    cursor over the completed prefix. On a failure the cursor still
///    advances over the fragments that did complete before the error is
///    surfaced, so a shared env sees the same draws/ticks the historical
///    fragment-at-a-time loop had already consumed when *it* hit the
///    error.
///
/// Because simulation sections always run in index order and the
/// relational phase never touches the env, the simulated outcome is
/// bit-for-bit identical whether a wave executed serially or in parallel —
/// and identical to the historical fragment-at-a-time loop. One caveat on
/// *error* paths of non-prefix DAGs (a lower-index fragment scheduled in a
/// later wave than a failing higher-index one — impossible for the
/// prepare/prepare/combine plans [`crate::exec`] callers assemble): the
/// failing wave surfaces its own lowest-index error, and env sections of
/// lower-index fragments that never executed are not replayed. Malformed
/// (forward-referencing) queries likewise fail during up-front validation,
/// before any env interaction.
fn run_federated(
    federation: &Federation,
    env: &mut EnvHandle<'_>,
    opts: RunOptions<'_>,
    query: &FederatedQuery,
    base_tables: TableSource<'_>,
) -> Result<ExecutionOutcome, EngineError> {
    let RunOptions {
        admission,
        pacing,
        parallel,
        work_scale,
        partition_degree,
        faults,
        cache,
        profiled,
    } = opts;
    let work_scale = if work_scale.is_finite() && work_scale > 0.0 {
        work_scale
    } else {
        1.0
    };
    let n = query.fragments.len();

    // Dependency analysis: reject forward references, assign waves.
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    let mut wave_of: Vec<usize> = Vec::with_capacity(n);
    for (idx, fragment) in query.fragments.iter().enumerate() {
        let frag_deps = referenced_fragments(&fragment.plan);
        if let Some(&dep) = frag_deps.iter().find(|&&dep| dep >= idx) {
            return Err(EngineError::Unavailable(format!(
                "fragment {idx} references later fragment {dep}"
            )));
        }
        wave_of.push(frag_deps.iter().map(|&d| wave_of[d] + 1).max().unwrap_or(0));
        deps.push(frag_deps);
    }
    let n_waves = wave_of.iter().max().map_or(0, |&w| w + 1);

    // Which fragments may take their output from the planning hand-off:
    // the entry at the fragment's index was produced by an equal plan, and
    // so was every fragment it reads from (a combine output is only valid
    // over the prepared sides it was computed from).
    let mut handed: Vec<Option<&ProfiledFragment>> = Vec::with_capacity(n);
    for (idx, fragment) in query.fragments.iter().enumerate() {
        let entry = profiled.get(idx).filter(|p| {
            p.plan == fragment.plan && deps[idx].iter().all(|&d| handed[d].is_some())
        });
        handed.push(entry);
    }

    // Result-cache keys, one per fragment. A fragment's key covers its
    // whole dependency *closure* — the canonical fingerprint of every plan
    // it transitively consumes (in ascending fragment order; `@frag`
    // references inside the plans pin the wiring) plus the pinned identity
    // of every base table the closure scans. Equal keys therefore imply
    // the same deterministic computation over the same data. A fragment
    // scanning a table with no identity in the binding is not cacheable.
    let cache_keys: Vec<Option<CacheKey>> = if let Some(binding) = cache {
        let mut closures: Vec<Vec<usize>> = Vec::with_capacity(n);
        for (idx, frag_deps) in deps.iter().enumerate() {
            let mut closure = vec![idx];
            for &dep in frag_deps {
                closure.extend(closures[dep].iter().copied());
            }
            closure.sort_unstable();
            closure.dedup();
            closures.push(closure);
        }
        (0..n)
            .map(|idx| {
                let closure = &closures[idx];
                let mut tables: Vec<(String, u64)> = Vec::new();
                for &member in closure {
                    for name in referenced_base_tables(&query.fragments[member].plan) {
                        if tables.iter().any(|(t, _)| *t == name) {
                            continue;
                        }
                        let id = *binding.table_ids.get(&name)?;
                        tables.push((name, id));
                    }
                }
                let fingerprint = PlanFingerprint::of_plans(
                    closure.iter().map(|&i| &query.fragments[i].plan),
                );
                let scope = binding
                    .scope
                    .key(binding.tenant, query.fragments[idx].site);
                Some(CacheKey::new(scope, fingerprint, tables))
            })
            .collect()
    } else {
        (0..n).map(|_| None).collect()
    };

    // The per-query catalog. Over a flat catalog it is seeded with only
    // the base tables the query's scans actually reference — by
    // `Arc::clone`, a refcount bump — and fragments read them from it. The
    // shared/cloned split is *measured* by pointer identity against the
    // base catalog, not assumed: if seeding ever regresses to a deep copy
    // (a fresh allocation), those bytes land in `catalog_cloned_bytes`
    // and trip the zero-copy assertions of `catalog_sharing.rs` and the
    // runtime's integration tests. Over a version there is
    // nothing to seed: scans read its chunks in place, the catalog holds
    // `@frag` outputs only, and the shared volume is what the same tables
    // would measure compacted — the two sources report equal bytes.
    let mut catalog = Catalog::new();
    let mut catalog_shared_bytes = 0u64;
    let mut catalog_cloned_bytes = 0u64;
    let mut scanned: Vec<String> = Vec::new();
    for fragment in &query.fragments {
        for name in referenced_base_tables(&fragment.plan) {
            if scanned.contains(&name) {
                continue;
            }
            match base_tables {
                TableSource::Flat(base) => {
                    if let Some(table) = base.get_shared(&name) {
                        catalog.insert_shared(name.clone(), Arc::clone(table));
                        let seeded = catalog.get_shared(&name).expect("just inserted");
                        if Arc::ptr_eq(seeded, table) {
                            catalog_shared_bytes += table.estimated_bytes();
                        } else {
                            catalog_cloned_bytes += table.estimated_bytes();
                        }
                    }
                }
                TableSource::Versioned(_) => {
                    catalog_shared_bytes += base_tables.table_bytes(&name).unwrap_or(0);
                }
            }
            scanned.push(name);
        }
    }

    // Per-fragment state filled wave by wave.
    let mut executed: Vec<Option<(Arc<Table>, WorkProfile)>> = (0..n).map(|_| None).collect();
    let mut shapes: Vec<Option<Result<InstanceType, EngineError>>> =
        (0..n).map(|_| None).collect();
    let mut transfers: Vec<(f64, Money, u64)> = vec![(0.0, Money::ZERO, 0); n];
    let mut frag_bytes: Vec<u64> = vec![0; n];
    let mut cache_hits = 0u32;
    let mut reused_fragments = 0u32;
    let mut sim = SimCursor::new(n);

    for wave in 0..n_waves {
        let members: Vec<usize> = (0..n).filter(|&i| wave_of[i] == wave).collect();

        // Pure pre-computation: cross-site transfer of every upstream
        // fragment output this wave scans, and instance-shape resolution
        // (needed in-phase for paced occupancy; its error, if any, is
        // surfaced in fragment order below).
        for &idx in &members {
            let fragment = &query.fragments[idx];
            let mut transfer_s = 0.0;
            let mut transfer_money = Money::ZERO;
            let mut ingress = 0u64;
            for &dep in &deps[idx] {
                let from = query.fragments[dep].site;
                if from != fragment.site {
                    let bytes = (frag_bytes[dep] as f64 * work_scale) as u64;
                    let est = federation.transfer(from, fragment.site, bytes);
                    transfer_s += est.seconds;
                    transfer_money += federation.transfer_cost(from, fragment.site, bytes);
                    ingress += bytes;
                }
            }
            transfers[idx] = (transfer_s, transfer_money, ingress);
            shapes[idx] = Some(
                federation
                    .site(fragment.site)
                    .catalog
                    .by_name(&fragment.instance)
                    .cloned()
                    .ok_or_else(|| {
                        EngineError::Unavailable(format!(
                            "instance {} at site {}",
                            fragment.instance,
                            federation.site(fragment.site).name
                        ))
                    }),
            );
        }

        // Relational phase. Queue for an execution slot at the fragment's
        // site; the permit is held across the relational work AND the
        // paced wait, because that is the span during which the site is
        // actually busy. Nominal occupancy (unit load, no noise) is a pure
        // function of plan and data, so every run sleeps the same total
        // regardless of interleaving — throughput comparisons across
        // worker counts (and fragment-parallel modes) measure overlap,
        // not luck.
        let run_one = |idx: usize| -> FragmentRun {
            let fragment = &query.fragments[idx];
            // Injected outage: the site refuses the fragment before a slot
            // is even taken (a down site has no queue to wait in) — and
            // before the cache is consulted, so a fault schedule replays
            // identically whether the cache is warm or cold.
            if let Some(f) = faults {
                if f.site_down(fragment.site) {
                    return Err(EngineError::SiteUnavailable {
                        site: fragment.site,
                    });
                }
            }
            // Cache hit: the fragment's output already exists — return it
            // without taking a site slot, executing, or pacing. The cached
            // table and work profile are bit-identical to what execution
            // would produce, so everything downstream (simulation,
            // billing, transfers) is unchanged.
            if let (Some(binding), Some(key)) = (cache, &cache_keys[idx]) {
                if let Some(hit) = binding.cache.get(key) {
                    let hit = (Arc::clone(&hit.table), hit.work.clone(), FragmentSource::Cache);
                    return Ok(hit);
                }
            }
            let capped = faults.is_some_and(|f| f.capped(fragment.site));
            let permit = admission.map(|a| a.acquire_capped(fragment.site, capped));
            // Planning already ran this plan over these tables: take its
            // output in place of running it again — and nothing else; the
            // permit above and the pacing and cache insert below apply to
            // a handed-over fragment exactly as to an executed one.
            let result = match handed[idx] {
                Some(p) => Ok((Arc::clone(&p.table), p.work.clone(), FragmentSource::HandOff)),
                None => {
                    execute_fused_over(&fragment.plan, &catalog, base_tables, partition_degree)
                        .map(|(table, work)| (Arc::new(table), work, FragmentSource::Executed))
                }
            };
            if pacing > 0.0 {
                if let (Ok((_, work, _)), Some(Ok(shape))) = (&result, &shapes[idx]) {
                    let workers = fragment.vm_count.max(1) * shape.vcpus.max(1);
                    let profile = EngineProfile::for_engine(fragment.engine);
                    let nominal_s = transfers[idx].0
                        + simulate_fragment_seconds_scaled(
                            work, &profile, workers, 1.0, 1.0, work_scale,
                        );
                    std::thread::sleep(Duration::from_secs_f64(nominal_s * pacing));
                }
            }
            drop(permit);
            let (table, work, source) = result?;
            if let (Some(binding), Some(key)) = (cache, &cache_keys[idx]) {
                binding.cache.insert(
                    key.clone(),
                    Arc::new(CachedFragment {
                        table: Arc::clone(&table),
                        work: work.clone(),
                    }),
                    binding.tenant,
                );
            }
            Ok((table, work, source))
        };
        // Admission-aware LPT launch order: within a *parallel* wave, start
        // the fragment with the largest estimated relational input first.
        // When two fragments of one wave target the same saturated site,
        // the longest one entering the admission queue first shrinks the
        // wave's critical path (classic longest-processing-time
        // scheduling); the estimate is a pure function of the catalog, so
        // the order is deterministic, and simulated outcomes are unaffected
        // because the simulation phase below always consumes fragments in
        // index order. Serial execution and single-fragment waves gain
        // nothing from reordering, so they keep the historical index order
        // (and skip the estimation walk entirely).
        let launch_order = if parallel && members.len() > 1 {
            lpt_launch_order(&members, |idx| {
                let fragment = &query.fragments[idx];
                let base: u64 = referenced_base_tables(&fragment.plan)
                    .iter()
                    .filter_map(|name| base_tables.table_bytes(name))
                    .sum();
                base + deps[idx].iter().map(|&d| frag_bytes[d]).sum::<u64>()
            })
        } else {
            members.clone()
        };
        let results: Vec<FragmentRun> =
            if parallel && launch_order.len() > 1 {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = launch_order
                        .iter()
                        .map(|&idx| scope.spawn(move || run_one(idx)))
                        .collect();
                    handles
                        .into_iter()
                        .map(|h| h.join().expect("fragment thread panicked"))
                        .collect()
                })
            } else {
                launch_order.iter().map(|&idx| run_one(idx)).collect()
            };

        // Collect in fragment order (launch order was LPT; sorting back
        // restores it); the lowest-index failure wins, with a fragment's
        // execution error preceding its instance-lookup error — exactly
        // what the sequential fragment-at-a-time loop surfaced. Before
        // surfacing an error, the sim cursor advances over the fragments
        // that *did* complete, consuming the env draws/ticks the
        // sequential loop had already consumed at that point — a shared
        // env must end an aborted query in the same state either way.
        let mut collected: Vec<_> = launch_order.into_iter().zip(results).collect();
        collected.sort_by_key(|(idx, _)| *idx);
        for (idx, result) in collected {
            let (table, work, source) = match result {
                Ok(ok) => ok,
                Err(e) => {
                    sim.advance(env, federation, query, &mut executed, &mut shapes, &transfers, work_scale, faults);
                    return Err(e);
                }
            };
            if shapes[idx].as_ref().is_some_and(|shape| shape.is_err()) {
                sim.advance(env, federation, query, &mut executed, &mut shapes, &transfers, work_scale, faults);
                return Err(shapes[idx].take().expect("staged").unwrap_err());
            }
            cache_hits += (source == FragmentSource::Cache) as u32;
            reused_fragments += (source == FragmentSource::HandOff) as u32;
            frag_bytes[idx] = table.estimated_bytes();
            catalog.insert_shared(format!("@frag{idx}"), Arc::clone(&table));
            executed[idx] = Some((table, work));
        }
        sim.advance(env, federation, query, &mut executed, &mut shapes, &transfers, work_scale, faults);
    }

    Ok(ExecutionOutcome {
        result: sim
            .last_table
            .unwrap_or_else(|| Arc::new(Table::empty("empty"))),
        elapsed_s: sim.total_elapsed,
        money: sim.total_money,
        intermediate_bytes: sim.total_intermediate,
        catalog_shared_bytes,
        catalog_cloned_bytes,
        cache_hits,
        reused_fragments,
        fragments: sim.outcomes,
    })
}

/// Where one fragment's output came from in the relational phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FragmentSource {
    /// The fused executor ran the plan.
    Executed,
    /// The shared result cache held it.
    Cache,
    /// Planning handed it over.
    HandOff,
}

/// What the relational phase yields per fragment.
type FragmentRun = Result<(Arc<Table>, WorkProfile, FragmentSource), EngineError>;

/// The simulation-phase cursor of [`run_federated`]: consumes completed
/// fragments strictly in index order, giving each its env section (read
/// load, draw noise, advance the world by the fragment's elapsed time —
/// the three ops atomic under one lock, preserving per-site RNG stream
/// consistency no matter how the relational phase interleaved) and its
/// billing.
struct SimCursor {
    /// Fragments `[0, next)` have been simulated and billed.
    next: usize,
    outcomes: Vec<FragmentOutcome>,
    last_table: Option<Arc<Table>>,
    total_elapsed: f64,
    total_money: Money,
    total_intermediate: u64,
}

impl SimCursor {
    fn new(n: usize) -> Self {
        SimCursor {
            next: 0,
            outcomes: Vec::with_capacity(n),
            last_table: None,
            total_elapsed: 0.0,
            total_money: Money::ZERO,
            total_intermediate: 0,
        }
    }

    /// Processes the maximal completed prefix of fragments past the
    /// cursor. Entries consumed here always have an `Ok` shape — the wave
    /// collector surfaces shape errors before marking a fragment executed.
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &mut self,
        env: &mut EnvHandle<'_>,
        federation: &Federation,
        query: &FederatedQuery,
        executed: &mut [Option<(Arc<Table>, WorkProfile)>],
        shapes: &mut [Option<Result<InstanceType, EngineError>>],
        transfers: &[(f64, Money, u64)],
        work_scale: f64,
        faults: Option<FaultContext<'_>>,
    ) {
        while self.next < executed.len() && executed[self.next].is_some() {
            let idx = self.next;
            let fragment = &query.fragments[idx];
            let (table, work) = executed[idx].take().expect("checked above");
            let shape = shapes[idx]
                .take()
                .expect("resolved with its wave")
                .expect("errors surfaced before execution was recorded");
            let (transfer_s, transfer_money, ingress) = transfers[idx];
            let workers = fragment.vm_count.max(1) * shape.vcpus.max(1);
            let profile = EngineProfile::for_engine(fragment.engine);
            let elapsed = env.with(|env| {
                // An injected slowdown multiplies the site's load; it never
                // consumes RNG, so positions outside every window simulate
                // bit-identically to a fault-free run (x * 1.0 == x).
                let slowdown = faults.map_or(1.0, |f| f.slowdown(fragment.site));
                let load = env.load(fragment.site) * slowdown;
                let noise = env.noise(fragment.site);
                let compute_s = simulate_fragment_seconds_scaled(
                    &work, &profile, workers, load, noise, work_scale,
                );
                let elapsed = compute_s + transfer_s;
                // The world moves on while the fragment runs.
                env.tick(elapsed);
                elapsed
            });

            // Billing: VMs for the fragment duration plus the egress
            // already accounted.
            let site = federation.site(fragment.site);
            let vm_money = site
                .pricing
                .instance_cost(&shape, fragment.vm_count.max(1), elapsed);
            let money = vm_money + transfer_money;

            self.total_intermediate += work.total_intermediate_bytes();
            self.total_elapsed += elapsed;
            self.total_money += money;
            self.last_table = Some(table);
            self.outcomes.push(FragmentOutcome {
                elapsed_s: elapsed,
                money,
                ingress_bytes: ingress,
                work,
            });
            self.next += 1;
        }
    }
}

/// Longest-processing-time launch order for one wave: `members` sorted by
/// descending `estimate` (estimated relational input bytes), ties broken by
/// ascending fragment index so the order is fully deterministic.
fn lpt_launch_order(members: &[usize], estimate: impl Fn(usize) -> u64) -> Vec<usize> {
    let mut order: Vec<(u64, usize)> = members.iter().map(|&idx| (estimate(idx), idx)).collect();
    order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    order.into_iter().map(|(_, idx)| idx).collect()
}

/// Base-table scan names (everything but `@frag<N>`) referenced by a plan.
fn referenced_base_tables(plan: &PhysicalPlan) -> Vec<String> {
    fn walk(plan: &PhysicalPlan, out: &mut Vec<String>) {
        match plan {
            PhysicalPlan::Scan { table } | PhysicalPlan::PrunedScan { table, .. } => {
                if !table.starts_with("@frag") && !out.iter().any(|t| t == table) {
                    out.push(table.clone());
                }
            }
            PhysicalPlan::Filter { input, .. }
            | PhysicalPlan::Project { input, .. }
            | PhysicalPlan::Aggregate { input, .. }
            | PhysicalPlan::Sort { input, .. }
            | PhysicalPlan::Limit { input, .. } => walk(input, out),
            PhysicalPlan::HashJoin { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

/// Scan names of the form `@frag<N>` referenced by a plan.
fn referenced_fragments(plan: &PhysicalPlan) -> Vec<usize> {
    let mut deps = Vec::new();
    collect_refs(plan, &mut deps);
    deps.sort_unstable();
    deps.dedup();
    deps
}

fn collect_refs(plan: &PhysicalPlan, out: &mut Vec<usize>) {
    match plan {
        PhysicalPlan::Scan { table } | PhysicalPlan::PrunedScan { table, .. } => {
            if let Some(rest) = table.strip_prefix("@frag") {
                if let Ok(idx) = rest.parse::<usize>() {
                    out.push(idx);
                }
            }
        }
        PhysicalPlan::Filter { input, .. }
        | PhysicalPlan::Project { input, .. }
        | PhysicalPlan::Aggregate { input, .. }
        | PhysicalPlan::Sort { input, .. }
        | PhysicalPlan::Limit { input, .. } => collect_refs(input, out),
        PhysicalPlan::HashJoin { left, right, .. } => {
            collect_refs(left, out);
            collect_refs(right, out);
        }
    }
}

/// Converts a work profile into simulated seconds for one fragment.
pub fn simulate_fragment_seconds(
    work: &WorkProfile,
    profile: &EngineProfile,
    workers: u32,
    load: f64,
    noise: f64,
) -> f64 {
    simulate_fragment_seconds_scaled(work, profile, workers, load, noise, 1.0)
}

/// [`simulate_fragment_seconds`] with each physical row standing in for
/// `work_scale` logical rows.
pub fn simulate_fragment_seconds_scaled(
    work: &WorkProfile,
    profile: &EngineProfile,
    workers: u32,
    load: f64,
    noise: f64,
    work_scale: f64,
) -> f64 {
    let mut cpu_us = 0.0;
    for op in &work.ops {
        let n = op.rows_in as f64 * work_scale;
        cpu_us += match op.kind {
            OpKind::Scan => n * profile.scan_us_per_tuple,
            OpKind::Join => n * profile.join_us_per_tuple,
            OpKind::Aggregate => n * profile.agg_us_per_tuple,
            OpKind::Sort => n * profile.sort_us_per_tuple * (n.max(2.0)).log2(),
            // Filters/projections/limits stream: charge a light per-tuple touch.
            OpKind::Filter | OpKind::Project | OpKind::Limit => n * 0.15,
        };
    }
    let io_s =
        work.scanned_bytes() as f64 * work_scale / (profile.io_mib_s * 1024.0 * 1024.0);
    let speedup = profile.speedup(workers);
    // Load and noise scale the *whole* fragment: a busy cluster delays
    // container startup (YARN queueing) just as it slows the work itself.
    load * noise * (profile.startup_s + (cpu_us / 1e6 + io_s) / speedup)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Column, ColumnData};
    use crate::expr::Expr;
    use crate::ops::JoinType;
    use crate::sim::DriftIntensity;
    use midas_cloud::federation::example_federation;

    fn base_tables(rows: usize) -> Catalog {
        let left = Table::new(
            "left",
            vec![
                Column::new("k", ColumnData::Int64((0..rows as i64).collect())),
                Column::new(
                    "v",
                    ColumnData::Float64((0..rows).map(|i| i as f64 * 0.5).collect()),
                ),
            ],
        )
        .unwrap();
        let right = Table::new(
            "right",
            vec![Column::new(
                "k",
                ColumnData::Int64((0..rows as i64 / 2).collect()),
            )],
        )
        .unwrap();
        let mut m = Catalog::new();
        m.insert("left", left);
        m.insert("right", right);
        m
    }

    fn two_fragment_query(a: SiteId, b: SiteId) -> FederatedQuery {
        // Fragment 0: scan+filter `right` at site B.
        // Fragment 1: join with `left` at site A (ships frag0 across).
        FederatedQuery {
            fragments: vec![
                Fragment {
                    plan: PhysicalPlan::Filter {
                        input: Box::new(PhysicalPlan::Scan {
                            table: "right".to_string(),
                        }),
                        predicate: Expr::col(0).ge(Expr::int(0)),
                    },
                    site: b,
                    engine: EngineKind::PostgreSql,
                    instance: "B2S".to_string(),
                    vm_count: 1,
                },
                Fragment {
                    plan: PhysicalPlan::HashJoin {
                        left: Box::new(PhysicalPlan::Scan {
                            table: "left".to_string(),
                        }),
                        right: Box::new(PhysicalPlan::Scan {
                            table: "@frag0".to_string(),
                        }),
                        left_keys: vec![0],
                        right_keys: vec![0],
                        join_type: JoinType::Inner,
                    },
                    site: a,
                    engine: EngineKind::Hive,
                    instance: "a1.large".to_string(),
                    vm_count: 2,
                },
            ],
        }
    }

    fn mild_env(fed: &Federation) -> SimulationEnv {
        let mut env = SimulationEnv::new();
        for site in fed.site_ids() {
            env.register_site(site, 42, DriftIntensity::Mild);
        }
        env
    }

    fn executor(fed: &Federation) -> Executor<'_> {
        Executor::new(fed, mild_env(fed))
    }

    #[test]
    fn runs_and_joins_across_sites() {
        let (fed, a, b) = example_federation();
        let mut ex = executor(&fed);
        let out = ex.run(&two_fragment_query(a, b), &base_tables(100)).unwrap();
        assert_eq!(out.result.n_rows(), 50);
        assert!(out.elapsed_s > 0.0);
        assert!(out.money > Money::ZERO);
        assert_eq!(out.fragments.len(), 2);
        // The join fragment ingested the shipped fragment output.
        assert!(out.fragments[1].ingress_bytes > 0);
        assert_eq!(out.fragments[0].ingress_bytes, 0);
    }

    #[test]
    fn hive_startup_dominates_small_queries() {
        let (fed, a, b) = example_federation();
        let mut ex = executor(&fed);
        let out = ex.run(&two_fragment_query(a, b), &base_tables(10)).unwrap();
        // Fragment 1 runs on Hive: on a 10-row input its startup latency is
        // essentially the whole cost (Mild drift keeps load within ~0.3 of
        // nominal, so 4 s x load stays well above 2 s).
        assert!(out.fragments[1].elapsed_s >= 2.0, "{}", out.fragments[1].elapsed_s);
        // Fragment 0 on PostgreSQL has near-zero startup.
        assert!(out.fragments[0].elapsed_s < 1.0);
    }

    #[test]
    fn more_data_costs_more_time() {
        let (fed, a, b) = example_federation();
        let small = executor(&fed)
            .run(&two_fragment_query(a, b), &base_tables(100))
            .unwrap();
        let big = executor(&fed)
            .run(&two_fragment_query(a, b), &base_tables(100_000))
            .unwrap();
        assert!(big.elapsed_s > small.elapsed_s);
        assert!(big.money >= small.money);
    }

    #[test]
    fn unknown_instance_is_reported() {
        let (fed, a, b) = example_federation();
        let mut q = two_fragment_query(a, b);
        q.fragments[1].instance = "m5.mega".to_string();
        let err = executor(&fed).run(&q, &base_tables(10));
        assert!(matches!(err, Err(EngineError::Unavailable(_))));
    }

    #[test]
    fn forward_reference_is_rejected() {
        let (fed, a, _) = example_federation();
        let q = FederatedQuery {
            fragments: vec![Fragment {
                plan: PhysicalPlan::Scan {
                    table: "@frag5".to_string(),
                },
                site: a,
                engine: EngineKind::Spark,
                instance: "a1.medium".to_string(),
                vm_count: 1,
            }],
        };
        let err = executor(&fed).run(&q, &Catalog::new());
        assert!(matches!(err, Err(EngineError::Unavailable(_))));
    }

    #[test]
    fn failed_query_still_consumes_completed_fragments_env_sections() {
        let (fed, a, b) = example_federation();
        // Fragment 0 scans a present table; fragment 1 scans a missing one
        // (both in wave 0 — no dependencies).
        let q = FederatedQuery {
            fragments: vec![
                Fragment {
                    plan: PhysicalPlan::Scan {
                        table: "right".to_string(),
                    },
                    site: b,
                    engine: EngineKind::PostgreSql,
                    instance: "B2S".to_string(),
                    vm_count: 1,
                },
                Fragment {
                    plan: PhysicalPlan::Scan {
                        table: "ghost".to_string(),
                    },
                    site: a,
                    engine: EngineKind::Hive,
                    instance: "a1.large".to_string(),
                    vm_count: 1,
                },
            ],
        };
        let mut ex = executor(&fed);
        let err = ex.run(&q, &base_tables(50));
        assert!(matches!(err, Err(EngineError::UnknownTable(_))));
        // The completed fragment's env section (load, noise, tick) was
        // consumed before the error surfaced — exactly the state the
        // sequential fragment-at-a-time loop left a shared env in.
        let clock_after_failure = ex.env().clock_s;
        assert!(clock_after_failure > 0.0);
        let q0 = FederatedQuery {
            fragments: vec![q.fragments[0].clone()],
        };
        let mut ex0 = executor(&fed);
        ex0.run(&q0, &base_tables(50)).unwrap();
        assert_eq!(ex0.env().clock_s.to_bits(), clock_after_failure.to_bits());
    }

    #[test]
    fn lpt_order_is_descending_cost_with_index_ties() {
        let sizes = [10u64, 40, 40, 5];
        let order = lpt_launch_order(&[0, 1, 2, 3], |idx| sizes[idx]);
        assert_eq!(order, vec![1, 2, 0, 3]);
        // Degenerate waves pass through.
        assert_eq!(lpt_launch_order(&[7], |_| 0), vec![7]);
        assert!(lpt_launch_order(&[], |_| 0).is_empty());
    }

    #[test]
    fn lpt_launch_keeps_simulated_outcomes_and_error_order() {
        // Fragment 0 is *smaller* than fragment 1 in wave 0, so a parallel
        // wave launches 1 before 0 (LPT) — yet the simulated outcome must
        // be bit-identical to the serial index-order run (the sim cursor
        // still consumes in index order), and the lowest-index error must
        // still win.
        let (fed, a, b) = example_federation();
        let q = FederatedQuery {
            fragments: vec![
                Fragment {
                    plan: PhysicalPlan::Scan {
                        table: "right".to_string(),
                    },
                    site: b,
                    engine: EngineKind::PostgreSql,
                    instance: "B2S".to_string(),
                    vm_count: 1,
                },
                Fragment {
                    plan: PhysicalPlan::Scan {
                        table: "left".to_string(),
                    },
                    site: a,
                    engine: EngineKind::Hive,
                    instance: "a1.large".to_string(),
                    vm_count: 1,
                },
            ],
        };
        let tables = base_tables(200);
        let serial = executor(&fed).run(&q, &tables).unwrap();
        assert_eq!(serial.fragments.len(), 2);
        // Parallel (LPT-ordered) execution of the same wave, same seed.
        let mut env = SimulationEnv::new();
        for site in fed.site_ids() {
            env.register_site(site, 42, DriftIntensity::Mild);
        }
        let env = Mutex::new(env);
        let admission = SiteAdmission::unmetered();
        let parallel = SharedExecutor::new(&fed, &env, &admission)
            .with_parallel_fragments(true)
            .run(&q, &tables)
            .unwrap();
        assert_eq!(parallel.elapsed_s.to_bits(), serial.elapsed_s.to_bits());
        assert_eq!(parallel.money, serial.money);
        assert_eq!(parallel.result, serial.result);
        // Both orders of a missing-table wave surface the lowest index.
        let mut ghost = q.clone();
        ghost.fragments[0].plan = PhysicalPlan::Scan {
            table: "ghost0".to_string(),
        };
        ghost.fragments[1].plan = PhysicalPlan::Scan {
            table: "ghost1".to_string(),
        };
        match executor(&fed).run(&ghost, &tables) {
            Err(EngineError::UnknownTable(t)) => assert_eq!(t, "ghost0"),
            other => panic!("expected UnknownTable(ghost0), got {other:?}"),
        }
    }

    #[test]
    fn cached_run_is_bit_identical_to_cold_and_skips_execution() {
        let (fed, a, b) = example_federation();
        let q = two_fragment_query(a, b);
        let tables = base_tables(300);
        // Table identities for the binding — any stable ids work at this
        // layer; the runtime supplies `CatalogVersion::table_ids()`.
        let ids: HashMap<String, u64> =
            [("left".to_string(), 1), ("right".to_string(), 2)].into();
        let cache = FragmentResultCache::new(16 << 20);
        let mk_env = || {
            let mut env = SimulationEnv::new();
            for site in fed.site_ids() {
                env.register_site(site, 42, DriftIntensity::Mild);
            }
            Mutex::new(env)
        };
        let admission = SiteAdmission::unmetered();
        let binding = ResultCacheBinding {
            cache: &cache,
            scope: CacheScope::FederationGlobal,
            tenant: "h-A",
            table_ids: &ids,
        };
        let env_cold = mk_env();
        let cold = SharedExecutor::new(&fed, &env_cold, &admission)
            .with_result_cache(binding)
            .run(&q, &tables)
            .unwrap();
        assert_eq!(cold.cache_hits, 0);
        let env_warm = mk_env();
        let warm = SharedExecutor::new(&fed, &env_warm, &admission)
            .with_result_cache(binding)
            .run(&q, &tables)
            .unwrap();
        // Every fragment served from cache; outcome bit-identical.
        assert_eq!(warm.cache_hits, 2);
        // The warm result *is* the table the cold run computed and cached:
        // a hit hands over a refcount, never a copy. (The gate for a
        // reintroduced per-job copy, like `catalog_cloned_bytes`.)
        assert!(Arc::ptr_eq(&warm.result, &cold.result));
        assert_eq!(warm.result, cold.result);
        assert_eq!(
            warm.result.fingerprint(),
            cold.result.fingerprint()
        );
        assert_eq!(warm.elapsed_s.to_bits(), cold.elapsed_s.to_bits());
        assert_eq!(warm.money, cold.money);
        for (w, c) in warm.fragments.iter().zip(&cold.fragments) {
            assert_eq!(w.work, c.work);
            assert_eq!(w.elapsed_s.to_bits(), c.elapsed_s.to_bits());
            assert_eq!(w.ingress_bytes, c.ingress_bytes);
        }
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.insertions, 2);
        // A different tenant under PerTenant scope misses everything.
        let scoped = ResultCacheBinding {
            scope: CacheScope::PerTenant,
            tenant: "h-B",
            ..binding
        };
        let env_other = mk_env();
        let other = SharedExecutor::new(&fed, &env_other, &admission)
            .with_result_cache(scoped)
            .run(&q, &tables)
            .unwrap();
        assert_eq!(other.cache_hits, 0);
        // A changed table identity (a publish) also misses.
        let ids2: HashMap<String, u64> =
            [("left".to_string(), 1), ("right".to_string(), 99)].into();
        let stale = ResultCacheBinding {
            table_ids: &ids2,
            ..binding
        };
        let env_stale = mk_env();
        let refreshed = SharedExecutor::new(&fed, &env_stale, &admission)
            .with_result_cache(stale)
            .run(&q, &tables)
            .unwrap();
        assert_eq!(refreshed.cache_hits, 0);
    }

    /// What planning would hand over for `q` over `base_tables(100)`.
    fn profile_of(q: &FederatedQuery) -> Vec<ProfiledFragment> {
        let plans: Vec<&PhysicalPlan> = q.fragments.iter().map(|f| &f.plan).collect();
        profile_fragments(&plans, &base_tables(100), 1).unwrap()
    }

    /// Runs `q` over `base_tables(100)` on a fresh seeded env with the
    /// given hand-off.
    fn run_handed(
        fed: &Federation,
        q: &FederatedQuery,
        profiled: &[ProfiledFragment],
    ) -> ExecutionOutcome {
        executor(fed)
            .run_profiled(q, &base_tables(100), 1.0, profiled)
            .unwrap()
    }

    fn assert_same_outcome(a: &ExecutionOutcome, b: &ExecutionOutcome) {
        assert_eq!(a.result, b.result);
        assert_eq!(a.elapsed_s.to_bits(), b.elapsed_s.to_bits());
        assert_eq!(a.money, b.money);
        assert_eq!(a.intermediate_bytes, b.intermediate_bytes);
        for (x, y) in a.fragments.iter().zip(&b.fragments) {
            assert_eq!(x.work, y.work);
            assert_eq!(x.elapsed_s.to_bits(), y.elapsed_s.to_bits());
            assert_eq!(x.ingress_bytes, y.ingress_bytes);
        }
    }

    #[test]
    fn handed_over_fragments_replace_execution_bit_for_bit() {
        let (fed, a, b) = example_federation();
        let q = two_fragment_query(a, b);
        let profiled = profile_of(&q);
        let cold = run_handed(&fed, &q, &[]);
        assert_eq!((cold.reused_fragments, cold.cache_hits), (0, 0));
        let handed = run_handed(&fed, &q, &profiled);
        assert_eq!((handed.reused_fragments, handed.cache_hits), (2, 0));
        assert_same_outcome(&handed, &cold);
        // The result is planning's own allocation, not a copy of it.
        assert!(Arc::ptr_eq(&handed.result, &profiled[1].table));
        assert!(!Arc::ptr_eq(&cold.result, &profiled[1].table));
        // A short list hands over what it has and executes the rest.
        let short = run_handed(&fed, &q, &profiled[..1]);
        assert_eq!(short.reused_fragments, 1);
        assert_same_outcome(&short, &cold);
        // The hand-off is independent of the chosen configuration: a run
        // at another site/engine/allocation takes the same outputs.
        let mut moved = q.clone();
        moved.fragments[1].site = b;
        moved.fragments[1].engine = EngineKind::PostgreSql;
        moved.fragments[1].instance = "B2S".to_string();
        let moved_handed = run_handed(&fed, &moved, &profiled);
        assert_eq!(moved_handed.reused_fragments, 2);
        assert_same_outcome(&moved_handed, &run_handed(&fed, &moved, &[]));
    }

    #[test]
    fn a_hand_off_is_never_applied_to_a_different_fragment() {
        let (fed, a, b) = example_federation();
        let q = two_fragment_query(a, b);
        let cold = run_handed(&fed, &q, &[]);
        // Profile a *different* query: its fragment 0 keeps only k >= 10,
        // its fragment 1 is plan-for-plan the same join over `@frag0`.
        let mut other = q.clone();
        other.fragments[0].plan = PhysicalPlan::Filter {
            input: Box::new(PhysicalPlan::Scan {
                table: "right".to_string(),
            }),
            predicate: Expr::col(0).ge(Expr::int(10)),
        };
        let foreign = profile_of(&other);
        assert_eq!(foreign[1].plan, q.fragments[1].plan);
        assert_ne!(foreign[1].table.n_rows(), cold.result.n_rows());
        // Entry 0's plan differs, so fragment 0 executes; entry 1's plan is
        // equal but was computed over the other fragment 0, so fragment 1
        // executes too.
        let out = run_handed(&fed, &q, &foreign);
        assert_eq!(out.reused_fragments, 0);
        assert_same_outcome(&out, &cold);
        // A matching entry 0 beside a mismatching entry 1 hands over one.
        let own = profile_of(&q);
        let mixed = vec![own[0].clone(), foreign[0].clone()];
        let out = run_handed(&fed, &q, &mixed);
        assert_eq!(out.reused_fragments, 1);
        assert_same_outcome(&out, &cold);
        // More entries than fragments: the surplus is ignored.
        let long = vec![own[0].clone(), own[1].clone(), foreign[0].clone()];
        assert_eq!(run_handed(&fed, &q, &long).reused_fragments, 2);
    }

    #[test]
    fn outage_and_result_cache_are_consulted_before_the_hand_off() {
        let (fed, a, b) = example_federation();
        let q = two_fragment_query(a, b);
        let tables = base_tables(100);
        let profiled = profile_of(&q);
        let mk_env = || Mutex::new(mild_env(&fed));
        let admission = SiteAdmission::unmetered();
        // A down site refuses its fragment even though its output is at
        // hand, and the fragment before it still ticks the clock.
        let faults = FaultPlan::none().outage(a, 0, 1);
        let env = mk_env();
        let err = SharedExecutor::new(&fed, &env, &admission)
            .with_faults(&faults, 0)
            .with_profiled_fragments(&profiled)
            .run(&q, &tables);
        assert!(matches!(err, Err(EngineError::SiteUnavailable { site }) if site == a));
        let env_cold = mk_env();
        let _ = SharedExecutor::new(&fed, &env_cold, &admission)
            .with_faults(&faults, 0)
            .run(&q, &tables);
        assert_eq!(
            env.lock().unwrap().clock_s.to_bits(),
            env_cold.lock().unwrap().clock_s.to_bits()
        );
        // A warm result cache wins over the hand-off; a cold one is filled
        // from it.
        let ids: HashMap<String, u64> =
            [("left".to_string(), 1), ("right".to_string(), 2)].into();
        let cache = FragmentResultCache::new(16 << 20);
        let binding = ResultCacheBinding {
            cache: &cache,
            scope: CacheScope::FederationGlobal,
            tenant: "h-A",
            table_ids: &ids,
        };
        let env = mk_env();
        let first = SharedExecutor::new(&fed, &env, &admission)
            .with_result_cache(binding)
            .with_profiled_fragments(&profiled)
            .run(&q, &tables)
            .unwrap();
        assert_eq!((first.reused_fragments, first.cache_hits), (2, 0));
        assert_eq!(cache.stats().insertions, 2);
        let env = mk_env();
        let second = SharedExecutor::new(&fed, &env, &admission)
            .with_result_cache(binding)
            .with_profiled_fragments(&profiled)
            .run(&q, &tables)
            .unwrap();
        assert_eq!((second.reused_fragments, second.cache_hits), (0, 2));
        assert_same_outcome(&second, &first);
    }

    #[test]
    fn cost_vector_shape() {
        let (fed, a, b) = example_federation();
        let out = executor(&fed)
            .run(&two_fragment_query(a, b), &base_tables(50))
            .unwrap();
        let v = out.cost_vector();
        assert_eq!(v.len(), 2);
        assert!(v[0] > 0.0 && v[1] > 0.0);
    }

    #[test]
    fn clock_advances_with_execution() {
        let (fed, a, b) = example_federation();
        let mut ex = executor(&fed);
        assert_eq!(ex.env().clock_s, 0.0);
        let out = ex.run(&two_fragment_query(a, b), &base_tables(50)).unwrap();
        assert!((ex.env().clock_s - out.elapsed_s).abs() < 1e-9);
    }

    #[test]
    fn work_scale_inflates_simulated_costs_only() {
        let (fed, a, b) = example_federation();
        let tables = base_tables(20_000);
        let q = two_fragment_query(a, b);
        let mk_env = || {
            let mut env = SimulationEnv::new();
            for site in fed.site_ids() {
                env.register_site(site, 2, DriftIntensity::None);
            }
            env
        };
        let out1 = Executor::new(&fed, mk_env())
            .run_with_scale(&q, &tables, 1.0)
            .unwrap();
        let out50 = Executor::new(&fed, mk_env())
            .run_with_scale(&q, &tables, 50.0)
            .unwrap();
        // Same relational result...
        assert_eq!(out1.result.n_rows(), out50.result.n_rows());
        // ...but much more variable time on the low-startup PostgreSQL
        // fragment (Hive's fixed 12 s startup masks the join fragment at
        // this size), plus more money and ingress bytes.
        assert!(
            out50.fragments[0].elapsed_s > out1.fragments[0].elapsed_s * 3.0,
            "scaled {} vs base {}",
            out50.fragments[0].elapsed_s,
            out1.fragments[0].elapsed_s
        );
        assert!(out50.elapsed_s > out1.elapsed_s);
        assert!(out50.money >= out1.money);
        assert_eq!(
            out50.fragments[1].ingress_bytes,
            out1.fragments[1].ingress_bytes * 50
        );
        // Degenerate scales are clamped to 1.0.
        let bad = Executor::new(&fed, mk_env())
            .run_with_scale(&q, &tables, f64::NAN)
            .unwrap();
        assert!((bad.elapsed_s - out1.elapsed_s).abs() < out1.elapsed_s * 0.5);
    }

    #[test]
    fn more_vms_speed_up_parallel_engines() {
        let (fed, a, b) = example_federation();
        let mut q = two_fragment_query(a, b);
        q.fragments[1].engine = EngineKind::Spark; // parallel-friendly
        let tables = base_tables(200_000);

        let out1 = {
            let mut q1 = q.clone();
            q1.fragments[1].vm_count = 1;
            // Drift disabled so the comparison is clean.
            let mut env = SimulationEnv::new();
            for site in fed.site_ids() {
                env.register_site(site, 1, DriftIntensity::None);
            }
            Executor::new(&fed, env).run(&q1, &tables).unwrap()
        };
        let out8 = {
            let mut q8 = q.clone();
            q8.fragments[1].vm_count = 8;
            let mut env = SimulationEnv::new();
            for site in fed.site_ids() {
                env.register_site(site, 1, DriftIntensity::None);
            }
            Executor::new(&fed, env).run(&q8, &tables).unwrap()
        };
        assert!(
            out8.fragments[1].elapsed_s < out1.fragments[1].elapsed_s,
            "8 VMs {} should beat 1 VM {}",
            out8.fragments[1].elapsed_s,
            out1.fragments[1].elapsed_s
        );
    }
}
