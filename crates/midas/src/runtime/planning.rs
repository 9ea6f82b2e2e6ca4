//! The plan stage: the costed QEP space a job selects from, and its
//! selection.
//!
//! QEP enumeration, analytic costing and multi-objective selection run
//! against the job's pinned version, fully in parallel across workers, and
//! scan the version's chunks in place — no job compacts a table after a
//! publish. A job plans once ([`FederationRuntime::plan`]): a plan-cache
//! hit takes the cached entry; a miss enumerates the space, encodes the
//! three fragments' keys once, profiles the fragments through the fragment
//! cache by those keys and costs the space. Every attempt then selects
//! ([`FederationRuntime::select`]) by Algorithm 2 over a costed space: the
//! entry's own, or the entry's space costed afresh under admission
//! pressure or the sites earlier attempts failed at.

use super::*;

/// One cached planning result: the enumerated QEP space, the profiled
/// (pressure-free) cost model, that space costed under that model — every
/// candidate's cost vector reduced to the exact Pareto set — the query's
/// fragment keys, and, per Pareto point, the query a job that selects it
/// executes. All are pure functions of (federation, placement, query
/// shape, pinned contents of every table the query names or scans, cache
/// scope), which is exactly what their cache key encodes; none depends on
/// a tenant's policy, so a hit leaves a job only Algorithm 2 to run
/// (Figure 3: a policy change re-selects from a reused Pareto set), and
/// then no plan tree to clone and no plan to encode.
pub(super) struct CachedPlan {
    pub(super) space: EnumerationSpace,
    pub(super) model: PlanCostModel,
    /// `cost_space(space, model)`: what every attempt whose model *is*
    /// `model` — no admission pressure folded in, no hot site — selects
    /// from.
    pub(super) costed: CostedSpace,
    /// `fragment_keys` of the query's three plans under the building job's
    /// binding, or empty without a fragment cache: the keys its planning
    /// probed the fragment cache by, and what every attempt's run would
    /// compute, whichever configuration it runs. Every configuration
    /// runs the same three plans, and a key is a function of its plans,
    /// the scope and tenant — in the plan-cache key under `PerTenant`, in
    /// no key otherwise — and the scanned tables' identities, which the
    /// plan-cache key holds too.
    pub(super) keys: Vec<Option<CacheKey>>,
    /// `served[i]`: Pareto point `i` of `costed`, assembled by the first
    /// job that selects it ([`CachedPlan::served`]). Neither it nor `keys`
    /// is charged to the plan cache's budget, so an entry can hold more
    /// than its charge: a medical query's key set holds ≈ 1.2 KB and each
    /// assembled point ≈ 1.4 KB beyond the entry's 17.4 KB charge (264
    /// candidates, 26 Pareto points over `generate_medical(200, 0.5, 7)`)
    /// — ≈ 6.7 KB once four policies select four points, ≈ 37 KB if every
    /// point is selected.
    served: Box<[OnceLock<FederatedQuery>]>,
}

impl CachedPlan {
    /// Pareto point `index`'s assembled query, built on its first use. Two
    /// jobs that race here build equal queries; the first is kept.
    pub(super) fn served(
        &self,
        index: usize,
        federation: &Federation,
        placement: &Placement,
        query: &TwoTableQuery,
    ) -> Result<&FederatedQuery, EngineError> {
        let slot = &self.served[index];
        if let Some(served) = slot.get() {
            return Ok(served);
        }
        let query = assemble(federation, placement, query, &self.costed.pareto[index].0)?;
        Ok(slot.get_or_init(|| query))
    }
}

/// What planning hands execution: the job's plan entry — the cached one,
/// or the one this job built on a miss — how every attempt reaches the
/// fragment cache, and the fragment outputs a miss computed. Those are kept
/// for this job only: every attempt takes them in place of executing the
/// fragments again, and they drop with the job. Never stored in the plan
/// cache (its entries stay a few hundred bytes); a hit profiles nothing,
/// hands over nothing and executes as before.
pub(super) struct Planned<'j> {
    pub(super) entry: Arc<CachedPlan>,
    pub(super) binding: Option<ResultCacheBinding<'j>>,
    pub(super) profiled: Vec<ProfiledFragment>,
}

/// One attempt's plan: Pareto point `index` of `fresh` when the attempt
/// costed the entry's space afresh, else of the entry's costed space.
pub(super) struct Selection {
    pub(super) fresh: Option<CostedSpace>,
    pub(super) index: usize,
    /// Whether the attempt ran a speculative re-plan.
    pub(super) replanned: bool,
    /// Whether that re-plan switched the plan.
    pub(super) switched: bool,
}

impl FederationRuntime<'_> {
    /// Cost multiplier on candidates joining at a site that failed earlier
    /// in the same job (see [`PlanCostModel::with_hot_sites`]).
    const HOT_SITE_PENALTY: f64 = 8.0;

    /// The plan-cache key of `tenant`'s `query`, whose three plans encode
    /// as `fingerprint` and scan `scans`: the two tables the query names,
    /// left then right, before the plan scope; the fingerprint; and the
    /// pinned identity (`ids`) of each table the query names or its plans
    /// scan — everything a cached plan is a function of besides the
    /// runtime's own federation and placement. The named tables enter in
    /// order because they place the fragments (the left prepare at the
    /// left table's site, …), which the key's table set, sorted and
    /// shared with the scanned tables, cannot tell apart; each is
    /// length-prefixed, so no two (left, right, scope) triples spell the
    /// same string. `None` when one of the tables has no identity: such a
    /// plan is not cached.
    pub(super) fn plan_key(
        &self,
        tenant: &str,
        query: &TwoTableQuery,
        fingerprint: &PlanFingerprint,
        scans: &[String],
        ids: &HashMap<String, u64>,
    ) -> Option<CacheKey> {
        let mut tables: Vec<(String, u64)> = Vec::with_capacity(scans.len() + 2);
        for name in scans.iter().chain([&query.left_table, &query.right_table]) {
            if !tables.iter().any(|(t, _)| t == name) {
                tables.push((name.clone(), *ids.get(name)?));
            }
        }
        let (left, right, domain) =
            (&query.left_table, &query.right_table, self.config.cache_scope.key(tenant));
        // Sized up front (two lengths of ≤ 20 digits, two colons): one block.
        let mut scope = String::with_capacity(left.len() + right.len() + domain.len() + 42);
        write!(scope, "{}:{left}{}:{right}{domain}", left.len(), right.len())
            .expect("writing to a String cannot fail");
        Some(CacheKey::new(scope, fingerprint.clone(), tables))
    }

    /// Plans one admitted job, reading its pinned catalog version: the
    /// enumerated QEP space, the profiled cost model and the space costed
    /// under it. Pure CPU — runs fully in parallel. Retries re-*select*
    /// from the same space under hot-site pressure; they do not re-profile
    /// and do not re-execute (see [`Planned`]). All three are pure
    /// functions of (federation, placement, query shape, pinned table
    /// contents), so the plan cache serves them by [`Self::plan_key`] — an
    /// ingest publish to any table the key names retires its identity and
    /// forces a rebuild.
    pub(super) fn plan<'j>(
        &'j self,
        admitted: &'j AdmittedJob,
    ) -> Result<Planned<'j>, RuntimeError> {
        let (job, admission) = (&admitted.job, &admitted.admission);
        let query = &job.query;
        // Planning and execution scan the pinned version's chunks where
        // they are; nothing on this path compacts a table (`pin()` is for
        // the flat oracles — `repro_lint`'s `serving-pin` rule keeps it so).
        let pinned = &admission.pinned;
        // The pinned tables' identities — the table component of every
        // cache key this job forms — borrowed from the version, which
        // builds them once. None when both cache tiers are off.
        let table_ids = (self.fragment_cache.is_some() || self.plan_cache.is_some())
            .then(|| pinned.table_id_map());
        // How planning and every attempt reach the fragment cache.
        let binding = self.fragment_cache.as_ref().zip(table_ids).map(|(cache, ids)| {
            ResultCacheBinding {
                cache,
                scope: self.config.cache_scope,
                tenant: &job.tenant,
                table_ids: ids,
            }
        });
        let plan_key = self.plan_cache.as_ref().and(table_ids).and_then(|ids| {
            self.plan_key(&job.tenant, query, &admission.fingerprint, &admission.scans, ids)
        });
        let hit = self.plan_cache.as_ref().zip(plan_key.as_ref());
        if let Some(entry) = hit.and_then(|(cache, key)| cache.get(key)) {
            return Ok(Planned {
                entry,
                binding,
                profiled: Vec::new(),
            });
        }
        let space =
            EnumerationSpace::for_query(self.federation, self.placement, query, self.config.max_vms)
                .map_err(SchedulerError::Engine)?;
        // The fragments' keys, encoded once: planning probes the fragment
        // cache by them, every attempt's run looks its fragments up by
        // them, and the entry keeps them for the jobs that hit it.
        let plans = [&query.left_prepare, &query.right_prepare, &query.combine];
        let keys = binding.map_or_else(Vec::new, |binding| fragment_keys(&plans, binding));
        // Through the fragment cache when there is one: a prepare cached at
        // this version, or cached before a publish that only appended to
        // its table, costs no more than the delta.
        let through = binding.map(|binding| (binding, &keys[..]));
        let (model, profiled) = PlanCostModel::profile(self.placement, query, pinned, through)
            .map_err(SchedulerError::Engine)?;
        let costed = cost_space(&space, &model, self.federation);
        let entry = Arc::new(CachedPlan {
            served: costed.pareto.iter().map(|_| OnceLock::new()).collect(),
            space,
            model,
            costed,
            keys,
        });
        if let (Some(cache), Some(key)) = (&self.plan_cache, plan_key) {
            // Nominal footprint: an allowance per candidate (the Pareto set
            // is a subset of them) plus a flat one for the model's work
            // profiles.
            let bytes = 512 + entry.space.len() as u64 * 64;
            cache.insert(key, Arc::clone(&entry), bytes, &job.tenant);
        }
        Ok(Planned {
            entry,
            binding,
            profiled,
        })
    }

    /// Algorithm 2 for one attempt of `admitted` under its tenant's policy
    /// (`weights` and the policy's constraints) — the one selection path:
    /// over the entry's costed space when the attempt's model is the
    /// entry's — no admission pressure sampled (feedback off, the default)
    /// and no site failed yet — else over the entry's space costed afresh
    /// under the job's admission-time pressure sample and `hot_sites`.
    ///
    /// Speculative re-planning: when the job's admission wait on the
    /// simulated clock, `waited_s`, exceeds
    /// [`RuntimeConfig::replan_threshold`] × the choice's predicted
    /// execution time (and pressure feedback is on), its admission-time
    /// pressure sample is stale — the federation has had time to change
    /// shape. Selection re-runs against *live* gate pressure, and the
    /// attempt switches only when the fresh choice is a different
    /// configuration that strictly beats the stale one on predicted time
    /// **under the same fresh model** (apples to apples — the stale plan is
    /// re-costed with current pressure, not compared across incompatible
    /// models).
    pub(super) fn select(
        &self,
        admitted: &AdmittedJob,
        entry: &CachedPlan,
        weights: &WeightedSumModel,
        hot_sites: &[SiteId],
        waited_s: f64,
    ) -> Result<Selection, RuntimeError> {
        let constraints = &admitted.job.policy.constraints;
        let pick = |costed: &CostedSpace| {
            costed.select(weights, constraints).expect("a costed space is never empty")
        };
        let pressure = &admitted.admission.pressure;
        let mut fresh = if pressure.is_empty() && hot_sites.is_empty() {
            None
        } else {
            Some(self.cost_under(entry, pressure, hot_sites)?.1)
        };
        let mut index = pick(fresh.as_ref().unwrap_or(&entry.costed));
        let (stale, stale_costs) = &fresh.as_ref().unwrap_or(&entry.costed).pareto[index];
        let threshold = self.config.replan_threshold;
        let replanned = self.config.pressure_penalty > 0.0
            && threshold.is_finite()
            && waited_s > threshold * stale_costs[0];
        let mut switched = false;
        if replanned {
            let (model, live) = self.cost_under(entry, &self.admission.pressure(), hot_sites)?;
            let live_index = pick(&live);
            let (chosen, costs) = &live.pareto[live_index];
            if chosen != stale && costs[0] < model.cost(self.federation, stale)[0] {
                switched = true;
                (fresh, index) = (Some(live), live_index);
            }
        }
        Ok(Selection {
            fresh,
            index,
            replanned,
            switched,
        })
    }

    /// The entry's space costed under `pressure` and `hot_sites`, both
    /// folded into a copy of the entry's model — never into the entry, so
    /// transient congestion cannot poison the shared plan cache — beside
    /// that model.
    fn cost_under(
        &self,
        entry: &CachedPlan,
        pressure: &[(SiteId, f64)],
        hot_sites: &[SiteId],
    ) -> Result<(PlanCostModel, CostedSpace), RuntimeError> {
        let mut model = entry
            .model
            .clone()
            .with_site_pressure(pressure, self.config.pressure_penalty.max(0.0))
            .map_err(SchedulerError::CostModel)?;
        if !hot_sites.is_empty() {
            model = model
                .with_hot_sites(hot_sites, Self::HOT_SITE_PENALTY)
                .map_err(SchedulerError::CostModel)?;
        }
        let costed = cost_space(&entry.space, &model, self.federation);
        Ok((model, costed))
    }
}
