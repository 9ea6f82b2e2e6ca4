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
//! fused executor ([`crate::fused`]): filters and projections stream over
//! cache-resident morsels with per-operator compiled kernel plans and
//! pooled scratch buffers, and `Aggregate ∘ Filter* ∘ HashJoin` shapes
//! consume the join as index triples, gathering only referenced columns.
//! This is purely an engine substitution — results and work profiles are
//! bit-identical to [`crate::ops::execute_scalar`], the row-at-a-time
//! reference (the `fused_differential` suite pins this), so every
//! simulation quantity derived from a profile is unchanged.
//!
//! The data plane is zero-copy, over either [`TableSource`]: fragments
//! scan base tables where they are — a shared
//! [`Catalog`](crate::catalog::Catalog)'s `Arc<Table>` entries by
//! reference, a `CatalogVersion`'s chunks one slab each, so a table that
//! grew by appends is never compacted for a run — and nothing of them is
//! seeded or copied per query. A fragment that projects a whole mask-free
//! column of one slab outputs that column's own buffer (column data is an
//! `Arc`), so Q12's right and Q17's left prepares copy no values. A run's
//! fragment outputs are a slice by position, each `Arc::new`-ed exactly
//! once: a scan of `@frag<N>` reads its `N`-th entry, and any other name,
//! or a position the slice does not hold, resolves in the source.
//!
//! **A run is one thread.** Fragments execute one at a time, in index
//! order, on the calling thread; concurrency is many workers each running
//! their own job through a [`SharedExecutor`] over one locked
//! [`SimulationEnv`] (the runtime), never threads inside a job.
//!
//! **Each fragment runs once per job.** Planning profiles a query by
//! running its fragments ([`profile_fragments`]); a run that is handed
//! those [`ProfiledFragment`]s takes each matching output in place of
//! executing the plan again. Outputs and work profiles do not depend on
//! the chosen site, engine or instance — the simulation phase applies
//! those afterwards — so a handed-over run is bit-identical to a run
//! that executed. With a fragment cache, planning profiles through it
//! (the same [`profile_fragments`], handed a binding and the fragments'
//! keys): a prepare cached at the pinned version is taken as it is, and a
//! fragment's delta state kept before a publish that only appended is
//! advanced over the rows appended since (see [`crate::cache`]'s
//! *Predecessors*). A fragment's cache key, and the predecessor slot it
//! names, is a function of its plans, the tables they read and the
//! binding's scope and tenant — never of its site — so planning and every
//! run of any configuration of a query key alike: [`fragment_keys`] is
//! the one function that encodes them, once per query, and planning and
//! runs take its keys.

use crate::cache::{
    slot_key, CacheKey, CacheScope, CachedFragment, FragmentResultCache, PlanFingerprint,
    PlanningStats,
};
use crate::engine::{EngineKind, EngineProfile};
use crate::error::EngineError;
use crate::fused::{execute_fused_over, frag_number, DeltaState, TableSource};
use crate::ops::{OpKind, PhysicalPlan, WorkProfile};
use crate::sim::{FaultPlan, SimulationEnv, SiteAdmission};
use crate::version::CatalogVersion;
use crate::data::Table;
use midas_cloud::{Federation, InstanceType, Money, SiteId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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
    /// For a fragment planned through the fragment cache, its delta state
    /// beside the predecessor slot it is kept in after a publish; it rides
    /// into the cache entry.
    pub(crate) state: Option<(CacheKey, DeltaState)>,
}

impl ProfiledFragment {
    fn new(plan: &PhysicalPlan, table: Arc<Table>, work: WorkProfile) -> Self {
        ProfiledFragment {
            plan: plan.clone(),
            table,
            work,
            state: None,
        }
    }

    fn with_state(plan: &PhysicalPlan, slot: CacheKey, state: DeltaState) -> Self {
        let (table, work) = (Arc::clone(state.table()), state.work());
        ProfiledFragment {
            state: Some((slot, state)),
            ..ProfiledFragment::new(plan, table, work)
        }
    }
}

/// Runs `plans` in order as the fragments of one query, outside any
/// simulation: plan `i` may scan `@frag<j>` for `j < i`, exactly as in a
/// [`FederatedQuery`], and every plan goes through the same fused executor
/// [`SharedExecutor`] uses, so each output is what a run over the same
/// `base_tables` would compute for that fragment. Base tables are read
/// where they are — a flat catalog's by reference, a version's chunk by
/// chunk — and the `@frag` outputs are the outputs so far, by position.
///
/// With `cache` — a binding and the keys [`fragment_keys`] computes for
/// `plans` under it, one per plan — over a pinned version, planning goes
/// through the fragment cache: a prepare (a plan reading no `@frag`
/// output) is its exact cached output; a prepare or a combine (a plan
/// reading `@frag` outputs) is else its delta state, advanced over the rows
/// appended since a publish kept it, else a full computation that keeps one
/// (see [`crate::cache`], *Predecessors*). A plan without a key is computed
/// in full and keeps nothing. Outputs and work profiles are bit for bit the
/// same with or without a cache.
pub fn profile_fragments<'a>(
    plans: &[&PhysicalPlan],
    base_tables: impl Into<TableSource<'a>>,
    cache: Option<(ResultCacheBinding<'_>, &[Option<CacheKey>])>,
) -> Result<Vec<ProfiledFragment>, EngineError> {
    let base_tables = base_tables.into();
    let mut outputs: Vec<Arc<Table>> = Vec::with_capacity(plans.len());
    let mut profiled = Vec::with_capacity(plans.len());
    for (idx, &plan) in plans.iter().enumerate() {
        let fragment = match (cache, base_tables) {
            (Some((binding, keys)), TableSource::Versioned(version)) => {
                let key = keys.get(idx).and_then(Option::as_ref);
                plan_cached(plan, key, &profiled, &outputs, version, binding)?
            }
            _ => full_run(plan, &outputs, base_tables)?,
        };
        outputs.push(Arc::clone(&fragment.table));
        profiled.push(fragment);
    }
    Ok(profiled)
}

/// One plan run in full over the `@frag` outputs so far and the base tables.
fn full_run(
    plan: &PhysicalPlan,
    frags: &[Arc<Table>],
    base_tables: TableSource<'_>,
) -> Result<ProfiledFragment, EngineError> {
    let (table, work) = execute_fused_over(plan, frags, base_tables)?;
    Ok(ProfiledFragment::new(plan, Arc::new(table), work))
}

/// Plans one fragment, whose key is `key`, through the fragment cache (see
/// [`profile_fragments`]): a prepare first probes its exact key; then the
/// delta state the last publish kept in the fragment's slot is advanced
/// under its own lock, else the fragment is computed in full and keeps a
/// state. Without a delta state for every earlier fragment, or a key, it is
/// computed in full and keeps nothing.
fn plan_cached(
    plan: &PhysicalPlan,
    key: Option<&CacheKey>,
    profiled: &[ProfiledFragment],
    frags: &[Arc<Table>],
    version: &CatalogVersion,
    binding: ResultCacheBinding<'_>,
) -> Result<ProfiledFragment, EngineError> {
    let cache = binding.cache;
    // A prepare reads no earlier fragment.
    let mut prepare = true;
    for_each_scan(plan, &mut |table| prepare &= frag_number(table).is_none());
    let earlier = if prepare { &[][..] } else { profiled };
    let inputs: Option<Vec<&DeltaState>> =
        earlier.iter().map(|p| Some(&p.state.as_ref()?.1)).collect();
    let count = |counts: &mut PlanningStats, work: &WorkProfile, declined: bool| {
        if prepare {
            counts.computed += 1;
            counts.computed_rows += work.scanned_rows();
        } else {
            counts.combines_computed += 1;
            counts.combines_declined += declined as u64;
        }
    };
    let (Some(inputs), Some(key)) = (inputs, key) else {
        let fragment = full_run(plan, frags, version.into())?;
        cache.count_planning(|s| count(s, &fragment.work, false));
        return Ok(fragment);
    };
    if let Some(hit) = prepare.then(|| cache.peek(key)).flatten() {
        cache.count_planning(|s| s.reused += 1);
        return Ok(ProfiledFragment {
            state: hit.state.clone(),
            ..ProfiledFragment::new(plan, Arc::clone(&hit.table), hit.work.clone())
        });
    }
    let slot = slot_key(key);
    let mut declined = false;
    // A poisoned state is skipped: a panic may have left it half advanced.
    if let Some(Ok(mut state)) = cache.predecessor(&slot).as_deref().map(Mutex::lock) {
        if let Some(rows) = state.extend(plan, &inputs, version) {
            cache.count_planning(|s| match (prepare, rows) {
                (true, 0) => s.reused += 1,
                (true, rows) => {
                    s.extended += 1;
                    s.extended_rows += rows as u64;
                }
                (false, _) => s.combines_extended += 1,
            });
            return Ok(ProfiledFragment::with_state(plan, slot, state.clone()));
        }
        declined = true;
    }
    let state = DeltaState::compute(plan, &inputs, version)?;
    let fragment = ProfiledFragment::with_state(plan, slot, state);
    cache.count_planning(|s| count(s, &fragment.work, declined));
    Ok(fragment)
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
    /// Bytes of base-table data the run reads in place — a flat catalog's
    /// tables behind their `Arc`s, a version's chunk by chunk (then counted
    /// as the contiguous tables would measure, so both sources report the
    /// same number). The volume the pre-Arc executor deep-copied for every
    /// job; no per-job copy of a base table exists to be counted.
    pub catalog_shared_bytes: u64,
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

/// How one [`SharedExecutor`] run reaches a shared [`FragmentResultCache`]:
/// the cache itself, the sharing-scope policy, who is asking, and the
/// identity of every pinned base table (see [`crate::cache`] for why these
/// four pieces make a hit sound). Every key the binding scopes, a
/// fragment's or a predecessor slot's, takes `scope.key(tenant)` as its
/// scope. Keys handed to a run ([`SharedExecutor::with_fragment_keys`])
/// must be [`fragment_keys`] under a binding with the same scope, tenant
/// and identities.
#[derive(Clone, Copy)]
pub struct ResultCacheBinding<'a> {
    /// The shared cache.
    pub cache: &'a FragmentResultCache,
    /// The sharing-domain policy in force for this run.
    pub scope: CacheScope,
    /// The submitting tenant — the `PerTenant` scope component and the
    /// eviction owner of any entries this run inserts.
    pub tenant: &'a str,
    /// `name → id` identities of the pinned catalog version's tables —
    /// `CatalogVersion::table_id_map`, which the version builds once and
    /// every job pinned to it borrows. Fragments scanning a table absent
    /// from this map are simply not cached.
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

/// The federated executor: runs a query's fragments over a *shared*
/// simulation environment, safe to call from many worker threads at once
/// (one run per thread — a run itself never spawns).
///
/// Three concurrency controls compose here:
///
/// 1. **Per-site admission** — before a fragment's relational work runs, a
///    slot is acquired from the [`SiteAdmission`] gate of its site; workers
///    queue when the site is saturated, exactly like queries queue on a real
///    federation site with a bounded resource pool.
/// 2. **One locked env section per run** — the drift/noise/clock
///    bookkeeping of all of a run's fragments happens under one short lock
///    of the shared [`SimulationEnv`], after their relational work, so
///    per-site RNG streams stay internally consistent no matter how
///    executions interleave.
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
///
/// A single-threaded caller (the `ires` scheduler, a test) owns the
/// `Mutex` and passes [`SiteAdmission::unmetered`]; it takes exactly the
/// env ops (`load`, `noise`, `tick`) a runtime worker takes, which is what
/// makes a one-worker runtime bit-identical to a sequential reference.
pub struct SharedExecutor<'a> {
    federation: &'a Federation,
    env: &'a Mutex<SimulationEnv>,
    admission: &'a SiteAdmission,
    pacing: f64,
    faults: Option<FaultContext<'a>>,
    cache: Option<ResultCacheBinding<'a>>,
    keys: &'a [Option<CacheKey>],
    profiled: &'a [ProfiledFragment],
    clock: Option<&'a AtomicU64>,
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
            faults: None,
            cache: None,
            keys: &[],
            profiled: &[],
            clock: None,
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

    // Inert hint, accepted and ignored: fragments of one run execute in
    // index order on the calling thread. Last caller is
    // `benchmark/src/replay.rs`; the `[stage-trace]` item's PR B removes
    // it.
    #[doc(hidden)]
    pub fn with_parallel_fragments(self, _enabled: bool) -> Self {
        self
    }

    // Inert hint, accepted and ignored: joins and groupings are single
    // pass. Last caller is `benchmark/src/replay.rs`; the `[stage-trace]`
    // item's PR B removes it.
    #[doc(hidden)]
    pub fn with_partition_degree(self, _degree: usize) -> Self {
        self
    }

    /// Runs this executor under an injected fault schedule at the given
    /// fault position (see [`FaultPlan`]): fragments bound to a down site
    /// fail with [`EngineError::SiteUnavailable`] *before* taking an
    /// admission slot, slowdown windows multiply the site's load inside the
    /// run's env section, and flap windows cap the site's admission
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

    /// Hands the run its fragments' result-cache keys, `keys[i]` for
    /// fragment `i`, in place of encoding them: they must be what
    /// [`fragment_keys`] computes for the plans of the query the run is
    /// given, under the [`ResultCacheBinding`] given to
    /// [`SharedExecutor::with_result_cache`]. A key names no site, engine
    /// or instance, so a caller that runs one query's plans under many
    /// configurations — the runtime keeps one key set per plan-cache entry
    /// — computes them once. An empty list, the default, leaves the
    /// run to compute the keys itself; any other must hold one key per
    /// fragment, which debug builds assert. Their values are the caller's
    /// to keep right: the run cannot check them without encoding the plans
    /// this call exists to skip (the runtime's own test pins its memo
    /// against [`fragment_keys`]). Without a result cache keys are unused.
    pub fn with_fragment_keys(mut self, keys: &'a [Option<CacheKey>]) -> Self {
        self.keys = keys;
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

    /// Mirrors the env's clock into `mirror` (as `f64::to_bits`): each run
    /// stores the clock its env section leaves, before the section ends.
    /// While every tick of the env goes through runs that carry the same
    /// mirror, a reader gets the clock from the mirror without the env's
    /// lock.
    pub fn with_clock_mirror(mut self, mirror: &'a AtomicU64) -> Self {
        self.clock = Some(mirror);
        self
    }

    /// Executes a federated query against a shared base-table catalog (or
    /// one published version of it — see [`TableSource`]) at logical
    /// scale 1.
    pub fn run<'t>(
        &self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
    ) -> Result<ExecutionOutcome, EngineError> {
        self.run_with_scale(query, base_tables, 1.0)
    }

    /// Like [`SharedExecutor::run`] but treating every physical row as
    /// `work_scale` logical rows.
    ///
    /// Row-capped datasets (see the TPC-H generator's uniform rescale) carry
    /// fewer physical rows than the scale factor nominally implies; passing
    /// `work_scale = 1 / rescale` makes the *simulated* time, transfer and
    /// billing reflect the nominal data volume while the relational work
    /// stays cheap.
    pub fn run_with_scale<'t>(
        &self,
        query: &FederatedQuery,
        base_tables: impl Into<TableSource<'t>>,
        work_scale: f64,
    ) -> Result<ExecutionOutcome, EngineError> {
        run_federated(self, query, base_tables.into(), work_scale)
    }
}

/// The one federated-execution loop: fragments run one at a time, in index
/// order, each through the same steps.
///
/// 1. **Validation**, up front for the whole query: a fragment may scan
///    `@frag<j>` only for `j` below its own index. A forward reference
///    fails here, before any env interaction.
/// 2. **Relational step.** Cross-site transfer of the upstream outputs the
///    fragment scans and its instance shape are resolved (pure functions
///    of earlier fragments); then the fragment obtains its output — from
///    the result cache, else under its site permit from the planning
///    hand-off when one matches (see
///    [`SharedExecutor::with_profiled_fragments`]) or by running the fused
///    executor — and holds the permit through its paced occupancy. This
///    step never touches the env.
/// 3. **Simulation step**, once every relational step has run: one env
///    section for the whole attempt, which reads load, draws noise and
///    ticks the clock for each fragment in index order — atomic under one
///    lock, so per-site RNG streams stay consistent however workers
///    interleave — then billing. With one caller the env sees exactly the
///    operation sequence a section per fragment would give it: a
///    fragment's relational step never reads the env.
///
/// A failure surfaces at the fragment that hit it, its execution error
/// before its instance-lookup error. The env section then simulates the
/// fragments before it, and only them, before the error returns: a shared
/// env ends an aborted query in the state the completed prefix left it
/// in.
fn run_federated(
    ex: &SharedExecutor<'_>,
    query: &FederatedQuery,
    base_tables: TableSource<'_>,
    work_scale: f64,
) -> Result<ExecutionOutcome, EngineError> {
    let &SharedExecutor {
        federation,
        env,
        admission,
        pacing,
        faults,
        cache,
        keys,
        profiled,
        clock,
    } = ex;
    let work_scale = if work_scale.is_finite() && work_scale > 0.0 {
        work_scale
    } else {
        1.0
    };
    let n = query.fragments.len();

    // Dependency analysis: reject forward references.
    let mut deps: Vec<Vec<usize>> = Vec::with_capacity(n);
    for (idx, fragment) in query.fragments.iter().enumerate() {
        let frag_deps = referenced_fragments(&fragment.plan);
        if let Some(&dep) = frag_deps.iter().find(|&&dep| dep >= idx) {
            return Err(EngineError::Unavailable(format!(
                "fragment {idx} references later fragment {dep}"
            )));
        }
        deps.push(frag_deps);
    }

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

    // Result-cache keys, one per fragment: the caller's when it handed
    // them over, else computed here ([`fragment_keys`]).
    debug_assert!(
        keys.is_empty() || keys.len() == n,
        "{} fragment keys handed over for {n} fragments",
        keys.len()
    );
    let computed: Vec<Option<CacheKey>>;
    let cache_keys: &[Option<CacheKey>] = match cache {
        Some(_) if !keys.is_empty() => keys,
        Some(binding) => {
            let plans: Vec<&PhysicalPlan> = query.fragments.iter().map(|f| &f.plan).collect();
            computed = fragment_keys(&plans, binding);
            &computed
        }
        None => &[],
    };

    // Fragment `i`'s output is `outputs[i]`, which later fragments scan as
    // `@frag<i>`; base tables are read where they are — a flat catalog's
    // behind its `Arc`, a version's chunk by chunk — whichever the source.
    // The shared volume is what the scanned tables measure contiguous, so
    // both sources report equal bytes.
    let mut outputs: Vec<Arc<Table>> = Vec::with_capacity(n);
    let mut catalog_shared_bytes = 0u64;
    let mut scanned: Vec<&str> = Vec::new();
    for fragment in &query.fragments {
        for_each_scan(&fragment.plan, &mut |name| {
            if !name.starts_with("@frag") && !scanned.contains(&name) {
                catalog_shared_bytes += base_tables.table_bytes(name).unwrap_or(0);
                scanned.push(name);
            }
        });
    }

    // `staged[i]` and `outcomes[i]` are what fragment `i`'s relational step
    // leaves for its simulation step; `outcomes[i]` gets its time and money
    // there.
    let mut staged: Vec<Staged<'_>> = Vec::with_capacity(n);
    let mut outcomes: Vec<FragmentOutcome> = Vec::with_capacity(n);
    let mut cache_hits = 0u32;
    let mut reused_fragments = 0u32;

    // Relational steps, in index order, up to the first failure.
    let relational = query.fragments.iter().enumerate().try_for_each(|(idx, fragment)| {
        // Pure pre-computation: cross-site transfer of every upstream
        // fragment output this one scans, and instance-shape resolution
        // (needed for paced occupancy; its error, if any, is surfaced
        // after the fragment's own execution error below).
        let mut transfer_s = 0.0;
        let mut transfer_money = Money::ZERO;
        let mut ingress = 0u64;
        for &dep in &deps[idx] {
            let from = query.fragments[dep].site;
            if from != fragment.site {
                let bytes = (staged[dep].bytes as f64 * work_scale) as u64;
                let est = federation.transfer(from, fragment.site, bytes);
                transfer_s += est.seconds;
                transfer_money += federation.transfer_cost(from, fragment.site, bytes);
                ingress += bytes;
            }
        }
        let site = federation.site(fragment.site);
        let shape = site.catalog.by_name(&fragment.instance);
        let profile = EngineProfile::for_engine(fragment.engine);

        // Injected outage: the site refuses the fragment before a slot is
        // even taken (a down site has no queue to wait in) — and before
        // the cache is consulted, so a fault schedule replays identically
        // whether the cache is warm or cold.
        if faults.is_some_and(|f| f.site_down(fragment.site)) {
            return Err(EngineError::SiteUnavailable {
                site: fragment.site,
            });
        }
        let cache_slot = cache.zip(cache_keys.get(idx).and_then(Option::as_ref));
        // Cache hit: the fragment's output already exists — take it without
        // a site slot, executing, or pacing. The cached table and work
        // profile are bit-identical to what execution would produce, so
        // everything downstream (simulation, billing, transfers) is
        // unchanged.
        let hit = cache_slot.and_then(|(binding, key)| binding.cache.get(key));
        let (table, work) = if let Some(hit) = hit {
            cache_hits += 1;
            (Arc::clone(&hit.table), hit.work.clone())
        } else {
            // Queue for an execution slot at the fragment's site; the
            // permit is held across the relational work AND the paced
            // wait, because that is the span during which the site is
            // actually busy.
            let capped = faults.is_some_and(|f| f.capped(fragment.site));
            let permit = admission.acquire_capped(fragment.site, capped);
            // Planning already ran this plan over these tables: take its
            // output in place of running it again — and nothing else; the
            // permit above and the pacing and cache insert below apply to
            // a handed-over fragment exactly as to an executed one.
            let result = match handed[idx] {
                Some(p) => Ok((Arc::clone(&p.table), p.work.clone())),
                None => execute_fused_over(&fragment.plan, &outputs, base_tables)
                    .map(|(table, work)| (Arc::new(table), work)),
            };
            // Nominal occupancy (unit load, no noise) is a pure function of
            // plan and data, so every run sleeps the same total regardless
            // of interleaving — throughput comparisons across worker
            // counts measure overlap, not luck.
            if pacing > 0.0 {
                if let (Ok((_, work)), Some(shape)) = (&result, shape) {
                    let nominal_s = transfer_s
                        + simulate_fragment_seconds_scaled(
                            work,
                            &profile,
                            fragment_workers(fragment, shape),
                            1.0,
                            1.0,
                            work_scale,
                        );
                    std::thread::sleep(Duration::from_secs_f64(nominal_s * pacing));
                }
            }
            drop(permit);
            let (table, work) = result?;
            reused_fragments += handed[idx].is_some() as u32;
            if let Some((binding, key)) = cache_slot {
                binding.cache.insert(
                    key.clone(),
                    Arc::new(CachedFragment {
                        table: Arc::clone(&table),
                        work: work.clone(),
                        state: handed[idx].and_then(|p| p.state.clone()),
                    }),
                    binding.tenant,
                );
            }
            (table, work)
        };
        let shape = shape.ok_or_else(|| {
            EngineError::Unavailable(format!(
                "instance {} at site {}",
                fragment.instance, site.name
            ))
        })?;
        staged.push(Staged {
            bytes: table.estimated_bytes(),
            shape,
            profile,
            transfer_s,
            transfer_money,
        });
        outcomes.push(FragmentOutcome {
            elapsed_s: 0.0,
            money: Money::ZERO,
            ingress_bytes: ingress,
            work,
        });
        outputs.push(table);
        Ok(())
    });

    // Simulation steps, in index order, of every fragment whose relational
    // step completed — a failed query's prefix included: read load, draw
    // noise, advance the world by the fragment's elapsed time. One env
    // section for all of them, so per-site RNG streams stay consistent
    // however workers interleave; the clock mirror, if any, is stored
    // before the section ends.
    if !staged.is_empty() {
        let mut env = crate::lock_recover(env);
        for ((fragment, s), outcome) in query.fragments.iter().zip(&staged).zip(&mut outcomes) {
            // An injected slowdown multiplies the site's load; it never
            // consumes RNG, so positions outside every window simulate
            // bit-identically to a fault-free run (x * 1.0 == x).
            let slowdown = faults.map_or(1.0, |f| f.slowdown(fragment.site));
            let load = env.load(fragment.site) * slowdown;
            let noise = env.noise(fragment.site);
            let compute_s = simulate_fragment_seconds_scaled(
                &outcome.work,
                &s.profile,
                fragment_workers(fragment, s.shape),
                load,
                noise,
                work_scale,
            );
            outcome.elapsed_s = compute_s + s.transfer_s;
            // The world moves on while the fragment runs.
            env.tick(outcome.elapsed_s);
        }
        if let Some(mirror) = clock {
            mirror.store(env.clock_s.to_bits(), Ordering::Release);
        }
    }
    relational?;

    // Billing: VMs for the fragment duration plus the egress already
    // accounted.
    let mut total_elapsed = 0.0;
    let mut total_money = Money::ZERO;
    let mut total_intermediate = 0u64;
    for ((fragment, s), outcome) in query.fragments.iter().zip(&staged).zip(&mut outcomes) {
        let vm_money = federation.site(fragment.site).pricing.instance_cost(
            s.shape,
            fragment.vm_count.max(1),
            outcome.elapsed_s,
        );
        outcome.money = vm_money + s.transfer_money;
        total_intermediate += outcome.work.total_intermediate_bytes();
        total_elapsed += outcome.elapsed_s;
        total_money += outcome.money;
    }

    Ok(ExecutionOutcome {
        result: outputs.pop().unwrap_or_else(|| Arc::new(Table::empty("empty"))),
        elapsed_s: total_elapsed,
        money: total_money,
        intermediate_bytes: total_intermediate,
        catalog_shared_bytes,
        cache_hits,
        reused_fragments,
        fragments: outcomes,
    })
}

/// What one fragment's relational step leaves for its simulation step and
/// billing.
struct Staged<'f> {
    /// Its output's estimated bytes, which later fragments transfer.
    bytes: u64,
    shape: &'f InstanceType,
    profile: EngineProfile,
    transfer_s: f64,
    transfer_money: Money,
}

/// The workers a fragment runs on: its VMs times each one's vCPUs.
fn fragment_workers(fragment: &Fragment, shape: &InstanceType) -> u32 {
    fragment.vm_count.max(1) * shape.vcpus.max(1)
}

/// The result-cache key of each of a query's fragments, whose plans are
/// `plans` in fragment order, under `binding` — the one place a fragment
/// key is encoded. A fragment's key names what it computes: its own plan
/// after those of every fragment it transitively reads, in fragment order
/// (`@frag` references inside the plans pin the wiring). The key is the
/// binding's sharing scope, those plans' canonical fingerprint and the
/// pinned identity of every base table they scan, so equal keys imply the
/// same deterministic computation over the same data; `None` when a scanned
/// table has no identity in the binding: such a fragment is not cached.
/// What a [`SharedExecutor`] run looks each fragment up by, what
/// [`SharedExecutor::with_fragment_keys`] must be handed, and what
/// [`profile_fragments`] plans through the cache by.
pub fn fragment_keys(
    plans: &[&PhysicalPlan],
    binding: ResultCacheBinding<'_>,
) -> Vec<Option<CacheKey>> {
    let scope = binding.scope.key(binding.tenant);
    // Fragment `idx`'s closure: itself and every fragment it transitively
    // reads, ascending. A read at or past `idx` is left out: such a plan
    // fails when it runs.
    let mut closures: Vec<Vec<usize>> = Vec::with_capacity(plans.len());
    for (idx, plan) in plans.iter().enumerate() {
        let mut closure = vec![idx];
        for dep in referenced_fragments(plan).into_iter().filter(|&dep| dep < idx) {
            closure.extend(closures[dep].iter().copied());
        }
        closure.sort_unstable();
        closure.dedup();
        closures.push(closure);
    }
    closures
        .iter()
        .map(|closure| {
            let closure: Vec<&PhysicalPlan> = closure.iter().map(|&i| plans[i]).collect();
            let tables = scanned_base_tables(&closure)
                .into_iter()
                .map(|name| Some((name.to_string(), *binding.table_ids.get(name)?)))
                .collect::<Option<Vec<_>>>()?;
            let fingerprint = PlanFingerprint::of_plans(closure.iter().copied());
            Some(CacheKey::new(scope.clone(), fingerprint, tables))
        })
        .collect()
}

/// Calls `visit` with the table name of every scan in `plan`, left to
/// right, repeats included — the one place this module learns the plan's
/// shape ([`PhysicalPlan::children`]).
pub(crate) fn for_each_scan<'p>(plan: &'p PhysicalPlan, visit: &mut impl FnMut(&'p str)) {
    if let PhysicalPlan::Scan { table } = plan {
        visit(table);
    }
    for child in plan.children() {
        for_each_scan(child, visit);
    }
}

/// The base tables `plans` scan (every scan name but `@frag<N>`), sorted,
/// each once.
pub fn scanned_base_tables<'p>(plans: &[&'p PhysicalPlan]) -> Vec<&'p str> {
    let mut out: Vec<&str> = Vec::new();
    for plan in plans {
        for_each_scan(plan, &mut |table| {
            if !table.starts_with("@frag") {
                out.push(table);
            }
        });
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Indices `N` of the scan names of the form `@frag<N>` referenced by a
/// plan, ascending, each once.
pub(crate) fn referenced_fragments(plan: &PhysicalPlan) -> Vec<usize> {
    let mut deps = Vec::new();
    for_each_scan(plan, &mut |table| deps.extend(frag_number(table)));
    deps.sort_unstable();
    deps.dedup();
    deps
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
            // Filters and projections stream: charge a light per-tuple touch.
            OpKind::Filter | OpKind::Project => n * 0.15,
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
    use crate::catalog::Catalog;
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

    /// A [`SharedExecutor`] over an env of its own: the single-threaded
    /// caller's shape (what the `ires` scheduler builds).
    struct Solo<'a> {
        fed: &'a Federation,
        env: Mutex<SimulationEnv>,
        admission: SiteAdmission,
    }

    impl<'a> Solo<'a> {
        fn new(fed: &'a Federation, env: SimulationEnv) -> Self {
            Solo {
                fed,
                env: Mutex::new(env),
                admission: SiteAdmission::unmetered(),
            }
        }

        fn env(&self) -> std::sync::MutexGuard<'_, SimulationEnv> {
            self.env.lock().unwrap()
        }

        fn shared(&self) -> SharedExecutor<'_> {
            SharedExecutor::new(self.fed, &self.env, &self.admission)
        }

        fn run(&self, q: &FederatedQuery, t: &Catalog) -> Result<ExecutionOutcome, EngineError> {
            self.shared().run(q, t)
        }

        fn run_with_scale(
            &self,
            q: &FederatedQuery,
            t: &Catalog,
            work_scale: f64,
        ) -> Result<ExecutionOutcome, EngineError> {
            self.shared().run_with_scale(q, t, work_scale)
        }
    }

    fn executor(fed: &Federation) -> Solo<'_> {
        Solo::new(fed, mild_env(fed))
    }

    #[test]
    fn runs_and_joins_across_sites() {
        let (fed, a, b) = example_federation();
        let ex = executor(&fed);
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
        let ex = executor(&fed);
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
        // (no dependencies between them).
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
        let ex = executor(&fed);
        let err = ex.run(&q, &base_tables(50));
        assert!(matches!(err, Err(EngineError::UnknownTable(_))));
        // The completed fragment's env section (load, noise, tick) was
        // consumed before the error surfaced.
        let clock_after_failure = ex.env().clock_s;
        assert!(clock_after_failure > 0.0);
        let q0 = FederatedQuery {
            fragments: vec![q.fragments[0].clone()],
        };
        let ex0 = executor(&fed);
        ex0.run(&q0, &base_tables(50)).unwrap();
        assert_eq!(ex0.env().clock_s.to_bits(), clock_after_failure.to_bits());
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
        // a hit hands over a refcount, never a copy — the gate for a
        // reintroduced per-job copy.
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
        profile_fragments(&plans, &base_tables(100), None).unwrap()
    }

    /// Runs `q` over `base_tables(100)` on a fresh seeded env with the
    /// given hand-off.
    fn run_handed(
        fed: &Federation,
        q: &FederatedQuery,
        profiled: &[ProfiledFragment],
    ) -> ExecutionOutcome {
        executor(fed)
            .shared()
            .with_profiled_fragments(profiled)
            .run(q, &base_tables(100))
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
        let ex = executor(&fed);
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
        let out1 = Solo::new(&fed, mk_env())
            .run_with_scale(&q, &tables, 1.0)
            .unwrap();
        let out50 = Solo::new(&fed, mk_env())
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
        let bad = Solo::new(&fed, mk_env())
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
            Solo::new(&fed, env).run(&q1, &tables).unwrap()
        };
        let out8 = {
            let mut q8 = q.clone();
            q8.fragments[1].vm_count = 8;
            let mut env = SimulationEnv::new();
            for site in fed.site_ids() {
                env.register_site(site, 1, DriftIntensity::None);
            }
            Solo::new(&fed, env).run(&q8, &tables).unwrap()
        };
        assert!(
            out8.fragments[1].elapsed_s < out1.fragments[1].elapsed_s,
            "8 VMs {} should beat 1 VM {}",
            out8.fragments[1].elapsed_s,
            out1.fragments[1].elapsed_s
        );
    }
}
