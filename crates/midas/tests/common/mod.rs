//! The one sequential reference the runtime is checked against.
//!
//! [`Reference`] is `FederationRuntime::process` for jobs served one at a
//! time on one thread, written against the public layer functions: it
//! profiles with `PlanCostModel::build` (outputs thrown away), costs the
//! whole space for every attempt (`moqp_exhaustive`) and executes every
//! fragment of every attempt through a `SharedExecutor` with no hand-off.
//! It keeps no plan cache — `build`, `for_query` and `moqp_exhaustive` are
//! pure, so a cached plan is the plan it rebuilds — and no cached Pareto
//! front. It does keep the runtime's fragment cache, fault schedule and
//! hot-site retries when its configuration asks for them, and with
//! pressure feedback on it folds in the gates' pressure as sampled when
//! the job arrives (on one thread: every gate idle); it never re-plans
//! speculatively, which a job that did not wait never triggers. A
//! one-worker runtime must leave the same [`Ledger`] per job, the same
//! simulated clock, the same per-site admissions, the same learned history
//! and the same per-class DREAM fits, bit for bit. The reference learns
//! eagerly — `ModellingRegistry::observe`, a fit per job — so the runtime's
//! fit-on-read report is pinned against the fit of every class's last
//! observation.

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob, RuntimeReport};
use midas::Midas;
use midas_cloud::SiteId;
use midas_dream::FitReport;
use midas_engines::cache::FragmentResultCache;
use midas_engines::exec::{ResultCacheBinding, SharedExecutor};
use midas_engines::sim::{FaultPlan, SimulationEnv, SiteAdmission};
use midas_engines::version::VersionedCatalog;
use midas_engines::{Catalog, EngineError};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::{base_rows, features_from};
use midas_ires::{
    assemble, CandidateConfig, ClassLearning, EnumerationSpace, ModellingRegistry, PlanCostModel,
};
use midas_moo::WeightedSumModel;
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;

/// The runtime's cost multiplier on a site that failed earlier in the job
/// (`FederationRuntime::HOT_SITE_PENALTY`, private there).
const HOT_SITE_PENALTY: f64 = 8.0;

/// What one job left in the ledgers. Costs are compared as bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    pub label: String,
    pub chosen: CandidateConfig,
    pub space_size: usize,
    pub pareto_size: usize,
    pub predicted: Vec<u64>,
    pub actual: Vec<u64>,
    pub result_rows: usize,
    pub result_fingerprint: u64,
    pub catalog_shared_bytes: u64,
    pub attempts: usize,
    pub cache_hits: u32,
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The runtime's ledger of every completed job, in admission order.
pub fn ledgers(report: &RuntimeReport) -> Vec<Ledger> {
    report
        .completed
        .iter()
        .map(|r| Ledger {
            label: r.report.label.clone(),
            chosen: r.report.chosen.clone(),
            space_size: r.report.space_size,
            pareto_size: r.report.pareto_size,
            predicted: bits(&r.report.predicted_costs),
            actual: bits(&r.report.actual_costs),
            result_rows: r.report.result_rows,
            result_fingerprint: r.report.result_fingerprint,
            catalog_shared_bytes: r.report.catalog_shared_bytes,
            attempts: r.attempts,
            cache_hits: r.cache_hits,
        })
        .collect()
}

/// One class's learned history: the count of every observation it
/// recorded, and the features and costs of those its bounded history
/// retains, as bits, in arrival order.
type History = (usize, Vec<(Vec<u64>, Vec<u64>)>);

/// Each query class's learned history, classes sorted by name.
fn learned(registry: &ModellingRegistry) -> Vec<(String, History)> {
    registry
        .class_names()
        .into_iter()
        .map(|class| {
            let modelling = registry.get(&class).expect("listed class exists");
            let modelling = modelling.lock().expect("modelling lock");
            let observations = modelling
                .history()
                .all()
                .iter()
                .map(|o| (bits(&o.features), bits(&o.costs)))
                .collect();
            (class, (modelling.observations(), observations))
        })
        .collect()
}

/// The sequential reference (see the module docs).
pub struct Reference<'a> {
    midas: &'a Midas,
    config: RuntimeConfig,
    env: Mutex<SimulationEnv>,
    admission: SiteAdmission,
    registry: ModellingRegistry,
    /// Each class's fit after its latest observation, as `observe` made it.
    fits: Mutex<BTreeMap<String, Option<FitReport>>>,
    fragment_cache: Option<FragmentResultCache>,
    /// Identities of `catalog`'s tables as the runtime's version 0 would
    /// mint them: the table component of every fragment-cache key. A
    /// reference whose jobs read other catalogs runs with the cache off.
    table_ids: HashMap<String, u64>,
    faults: Option<FaultPlan>,
}

impl<'a> Reference<'a> {
    pub fn new(
        midas: &'a Midas,
        catalog: &Catalog,
        config: RuntimeConfig,
        faults: Option<FaultPlan>,
    ) -> Self {
        let federation = midas.federation();
        let mut env = SimulationEnv::new();
        for site in federation.site_ids() {
            env.register_site(site, config.seed, config.drift);
        }
        Reference {
            midas,
            config,
            env: Mutex::new(env),
            admission: SiteAdmission::new(federation.admission_capacities()),
            registry: ModellingRegistry::dream_defaults(2),
            fits: Mutex::new(BTreeMap::new()),
            fragment_cache: (config.fragment_cache_bytes > 0)
                .then(|| FragmentResultCache::new(config.fragment_cache_bytes)),
            table_ids: VersionedCatalog::new(catalog.clone()).current().table_ids(),
            faults,
        }
    }

    /// Plans, executes and learns one job over `catalog`, the flat tables
    /// of the version it pinned. `sequence` is its admission sequence, its
    /// position in fault space.
    pub fn job(&self, sequence: usize, job: &RuntimeJob, catalog: &Catalog) -> Ledger {
        let (federation, placement) = (self.midas.federation(), self.midas.placement());
        let query = &job.query;
        let space = EnumerationSpace::for_query(federation, placement, query, self.config.max_vms)
            .expect("enumerable");
        let base_model = PlanCostModel::build(placement, query, catalog).expect("profiled");
        let weights = WeightedSumModel::new(&job.policy.weights);
        let left_rows = base_rows(catalog, &query.left_table).expect("left table");
        let right_rows = base_rows(catalog, &query.right_table).expect("right table");
        let pressure = if self.config.pressure_penalty > 0.0 {
            self.admission.pressure()
        } else {
            Vec::new()
        };
        let mut hot_sites: Vec<SiteId> = Vec::new();
        for attempt in 0..self.config.max_attempts {
            let model = base_model
                .clone()
                .with_site_pressure(&pressure, self.config.pressure_penalty)
                .expect("valid penalty")
                .with_hot_sites(&hot_sites, HOT_SITE_PENALTY)
                .expect("valid penalty");
            let outcome =
                moqp_exhaustive(&space, &model, federation, &weights, &job.policy.constraints);
            let federated =
                assemble(federation, placement, query, &outcome.chosen).expect("assembled");
            let mut executor = SharedExecutor::new(federation, &self.env, &self.admission);
            if let Some(cache) = &self.fragment_cache {
                executor = executor.with_result_cache(ResultCacheBinding {
                    cache,
                    scope: self.config.cache_scope,
                    tenant: &job.tenant,
                    table_ids: &self.table_ids,
                });
            }
            if let Some(plan) = &self.faults {
                executor = executor.with_faults(plan, (sequence + attempt) as u64);
            }
            let executed = match executor.run_with_scale(
                &federated,
                catalog,
                self.config.work_scale,
            ) {
                Ok(executed) => executed,
                Err(EngineError::SiteUnavailable { site }) => {
                    if !hot_sites.contains(&site) {
                        hot_sites.push(site);
                    }
                    continue;
                }
                Err(e) => panic!("reference job {sequence} failed: {e}"),
            };
            assert_eq!(executed.reused_fragments, 0, "nothing was handed over");
            let features =
                features_from(left_rows, right_rows, &executed, self.config.work_scale);
            let costs = executed.cost_vector();
            let fit = self
                .registry
                .observe(query.class(), &features, &costs)
                .expect("observed");
            self.fits
                .lock()
                .expect("fits lock")
                .insert(query.class().to_string(), fit);
            return Ledger {
                label: query.label.clone(),
                chosen: outcome.chosen,
                space_size: space.len(),
                pareto_size: outcome.pareto.len(),
                predicted: bits(&outcome.chosen_costs),
                actual: bits(&costs),
                result_rows: executed.result.n_rows(),
                result_fingerprint: executed.result.fingerprint(),
                catalog_shared_bytes: executed.catalog_shared_bytes,
                attempts: attempt + 1,
                cache_hits: executed.cache_hits,
            };
        }
        panic!("reference job {sequence} exhausted its attempts");
    }

    /// Pins `runtime`'s simulated clock, learned histories and the
    /// per-class fits of its last `report` against this reference's, and
    /// its per-site admission counts too when both ran the same fragment
    /// cache (a cache hit takes no site slot).
    pub fn assert_end_state(
        &self,
        runtime: &FederationRuntime<'_>,
        report: &RuntimeReport,
        ctx: &str,
    ) {
        let clock = self.env.lock().expect("env lock").clock_s;
        assert_eq!(runtime.clock_s().to_bits(), clock.to_bits(), "{ctx}: clock");
        assert_eq!(learned(runtime.registry()), learned(&self.registry), "{ctx}: learned");
        let fits = self.fits.lock().expect("fits lock");
        let eager: Vec<ClassLearning> = self
            .registry
            .history_lens()
            .into_iter()
            .map(|(class, observations)| ClassLearning {
                fit: Ok(fits[&class].clone()),
                class,
                observations,
            })
            .collect();
        assert_eq!(report.learning, eager, "{ctx}: fits");
        if runtime.config().fragment_cache_bytes == self.config.fragment_cache_bytes {
            let served: Vec<u64> = runtime
                .admission_stats()
                .iter()
                .map(|(_, s)| s.admitted)
                .collect();
            let expected: Vec<u64> = self
                .admission
                .stats()
                .iter()
                .map(|(_, s)| s.admitted)
                .collect();
            assert_eq!(served, expected, "{ctx}: admissions");
        }
    }
}
