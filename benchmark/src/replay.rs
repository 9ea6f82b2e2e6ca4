//! A bench-side, single-threaded copy of `FederationRuntime::process` and
//! `FederationRuntime::publish`, calling the same public layer functions in
//! the same order with a span around each call.
//!
//! The runtime itself carries no stage trace yet, so the per-layer numbers
//! come from here. The copy must stay result-identical to the runtime:
//! every workload checks the replay's `(result fingerprint, rows)` job for
//! job against the untraced run through the real runtime. It follows the
//! path the benchmark's configuration takes — default `RuntimeConfig`, so
//! no pressure feedback, no fault plan, federation-global cache scope and
//! both cache tiers on — and omits the retry loop, which only a fault plan
//! can enter.

use crate::trace::Tracer;
use midas::runtime::{RuntimeConfig, RuntimeJob};
use midas_cloud::Federation;
use midas_engines::cache::{CacheKey, FragmentResultCache, PlanFingerprint, ScopedCache};
use midas_engines::data::Table;
use midas_engines::exec::{ResultCacheBinding, SharedExecutor};
use midas_engines::sim::{SimulationEnv, SiteAdmission};
use midas_engines::version::VersionedCatalog;
use midas_engines::{analyze_fragment_plans, execute_fused, Catalog, Placement, SchemaCatalog};
use midas_ires::optimizer::moqp_exhaustive;
use midas_ires::scheduler::{base_rows, features_from};
use midas_ires::{assemble, EnumerationSpace, ModellingRegistry, PlanCostModel};
use midas_moo::WeightedSumModel;
use std::sync::{Arc, Mutex};

/// What the runtime's private `CachedPlan` holds.
struct CachedPlan {
    space: EnumerationSpace,
    model: PlanCostModel,
}

/// What one replayed job produced and did.
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord {
    /// `Table::fingerprint` of the result.
    pub result_fingerprint: u64,
    /// Rows of the result.
    pub result_rows: usize,
    /// The catalog version the job pinned.
    pub pinned_version: u64,
    /// Whether the plan cache served the enumeration space and cost model.
    pub plan_hit: bool,
    /// Bytes the pinned version had compacted after this job's pin.
    pub compaction_bytes: u64,
    /// Predicted execution time of the chosen plan (simulated seconds).
    pub predicted_s: f64,
    /// Simulated execution time observed.
    pub simulated_s: f64,
    /// DREAM's training window after learning from this job.
    pub dream_window: Option<usize>,
    /// Rows read by the three fragments' scans (from their `WorkProfile`).
    pub rows_in: u64,
    /// Bytes read by the three fragments' scans.
    pub bytes_in: u64,
    /// Size of the enumerated plan space.
    pub space_size: usize,
    /// Size of the Pareto set selection chose from.
    pub pareto_size: usize,
}

/// The state `FederationRuntime::new` builds, rebuilt from public parts.
pub struct Replica<'a> {
    federation: &'a Federation,
    placement: &'a Placement,
    config: RuntimeConfig,
    catalog: VersionedCatalog,
    env: Mutex<SimulationEnv>,
    admission: SiteAdmission,
    registry: ModellingRegistry,
    fragment_cache: FragmentResultCache,
    plan_cache: ScopedCache<CacheKey, Arc<CachedPlan>>,
}

impl<'a> Replica<'a> {
    /// Mirrors `FederationRuntime::new`.
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
        Replica {
            federation,
            placement,
            config,
            catalog: VersionedCatalog::new(catalog),
            env: Mutex::new(env),
            admission: SiteAdmission::new(federation.admission_capacities()),
            registry: ModellingRegistry::dream_defaults(2),
            fragment_cache: FragmentResultCache::new(config.fragment_cache_bytes),
            plan_cache: ScopedCache::new(config.plan_cache_bytes),
        }
    }

    /// Mirrors `validate_admission` (its own root span: the runtime runs it
    /// on the submitting thread, outside the job's wall latency), then
    /// `process` under a `job` span, then — outside the job span, and only
    /// when the fragment cache served none of the job's three fragments —
    /// each fragment plan through `execute_fused` directly, which is what
    /// splits `exec.run` into its fragments.
    pub fn job(&self, tracer: &mut Tracer, id: u64, job: &RuntimeJob) -> Result<JobRecord, String> {
        let query = &job.query;
        let pinned = self.catalog.current();
        let rejected = tracer.span("analyze.validate", id, |_| {
            let schemas = SchemaCatalog::from_version(&pinned);
            analyze_fragment_plans(
                &[&query.left_prepare, &query.right_prepare, &query.combine],
                &schemas,
            )
            .iter()
            .map(|analysis| analysis.errors().count())
            .sum::<usize>()
        });
        if rejected > 0 {
            return Err(format!("{}: {rejected} plan diagnostics", query.label));
        }

        let (record, fragment_hits) = tracer.span("job", id, |t| {
            let catalog = t.span("version.pin", id, |_| pinned.pin());
            let compaction_bytes = pinned.compaction_bytes();
            let fingerprint = t.span("cache.fingerprint", id, |_| {
                PlanFingerprint::of_plans([
                    &query.left_prepare,
                    &query.right_prepare,
                    &query.combine,
                ])
            });
            let table_ids = pinned.table_ids();
            let (plan_key, cached) = t.span("cache.plan_probe", id, |_| {
                let table = |name: &String| -> Result<(String, u64), String> {
                    let id = table_ids
                        .get(name)
                        .ok_or_else(|| format!("table {name} missing from the pinned version"))?;
                    Ok((name.clone(), *id))
                };
                let key = CacheKey::new(
                    String::new(),
                    fingerprint,
                    vec![table(&query.left_table)?, table(&query.right_table)?],
                );
                let cached = self.plan_cache.get(&key);
                Ok::<_, String>((key, cached))
            })?;
            let plan_hit = cached.is_some();
            let planned = match cached {
                Some(hit) => hit,
                None => {
                    let space = t
                        .span("enumerate.for_query", id, |_| {
                            EnumerationSpace::for_query(
                                self.federation,
                                self.placement,
                                query,
                                self.config.max_vms,
                            )
                        })
                        .map_err(|e| e.to_string())?;
                    let model = t
                        .span("costmodel.build", id, |_| {
                            PlanCostModel::build(self.placement, query, &catalog)
                        })
                        .map_err(|e| e.to_string())?;
                    let entry = Arc::new(CachedPlan { space, model });
                    t.span("cache.plan_probe", id, |_| {
                        let bytes = 512 + entry.space.len() as u64 * 64;
                        self.plan_cache
                            .insert(plan_key, Arc::clone(&entry), bytes, &job.tenant)
                    });
                    entry
                }
            };
            // The runtime clones the cached model once to apply pressure
            // and once more per attempt; with pressure feedback off both
            // are plain clones, and both are paid on every job.
            let model = t
                .span("costmodel.apply_pressure", id, |_| {
                    let pressured_base = planned
                        .model
                        .clone()
                        .with_site_pressure(&[], self.config.pressure_penalty.max(0.0))?;
                    Ok::<_, midas_ires::CostModelError>(pressured_base.clone())
                })
                .map_err(|e| e.to_string())?;
            let weights = WeightedSumModel::new(&job.policy.weights);
            let left_rows = base_rows(&catalog, &query.left_table).map_err(|e| e.to_string())?;
            let right_rows = base_rows(&catalog, &query.right_table).map_err(|e| e.to_string())?;
            let outcome = t.span("optimizer.select", id, |_| {
                moqp_exhaustive(
                    &planned.space,
                    &model,
                    self.federation,
                    &weights,
                    &job.policy.constraints,
                )
            });
            let federated = t
                .span("enumerate.assemble", id, |_| {
                    assemble(self.federation, self.placement, query, &outcome.chosen)
                })
                .map_err(|e| e.to_string())?;
            let executed = t
                .span("exec.run", id, |_| {
                    SharedExecutor::new(self.federation, &self.env, &self.admission)
                        .with_pacing(self.config.pacing)
                        .with_parallel_fragments(self.config.parallel_fragments)
                        .with_partition_degree(self.config.partition_degree)
                        .with_result_cache(ResultCacheBinding {
                            cache: &self.fragment_cache,
                            scope: self.config.cache_scope,
                            tenant: &job.tenant,
                            table_ids: &table_ids,
                        })
                        .run_with_scale(&federated, &catalog, self.config.work_scale)
                })
                .map_err(|e| e.to_string())?;
            let fit = t
                .span("learn.observe", id, |_| {
                    let features =
                        features_from(left_rows, right_rows, &executed, self.config.work_scale);
                    self.registry
                        .observe(query.class(), &features, &executed.cost_vector())
                })
                .map_err(|e| e.to_string())?;
            let result_fingerprint =
                t.span("report.fingerprint", id, |_| executed.result.fingerprint());
            let record = JobRecord {
                result_fingerprint,
                result_rows: executed.result.n_rows(),
                pinned_version: pinned.version(),
                plan_hit,
                compaction_bytes,
                predicted_s: outcome.chosen_costs[0],
                simulated_s: executed.elapsed_s,
                dream_window: fit.map(|report| report.window_used),
                rows_in: executed
                    .fragments
                    .iter()
                    .map(|f| f.work.scanned_rows())
                    .sum(),
                bytes_in: executed
                    .fragments
                    .iter()
                    .map(|f| f.work.scanned_bytes())
                    .sum(),
                space_size: planned.space.len(),
                pareto_size: outcome.pareto.len(),
            };
            let fragment_hits = executed.cache_hits;
            t.span("report.release", id, |_| {
                drop(executed);
                drop(federated);
                drop(outcome);
                drop(model);
                drop(planned);
                drop(catalog);
            });
            Ok::<_, String>((record, fragment_hits))
        })?;

        if fragment_hits == 0 {
            let catalog = pinned.pin();
            let mut prepared: Vec<Table> = Vec::with_capacity(2);
            for (name, plan) in [
                ("fragment.left_prepare", &query.left_prepare),
                ("fragment.right_prepare", &query.right_prepare),
            ] {
                let (table, _) = tracer
                    .span(name, id, |_| execute_fused(plan, &catalog))
                    .map_err(|e| e.to_string())?;
                prepared.push(table);
            }
            let mut fragments = Catalog::new();
            let right = prepared.pop().expect("two prepared sides");
            let left = prepared.pop().expect("two prepared sides");
            fragments.insert("@frag0", left);
            fragments.insert("@frag1", right);
            let (combined, _) = tracer
                .span("fragment.combine", id, |_| {
                    execute_fused(&query.combine, &fragments)
                })
                .map_err(|e| e.to_string())?;
            if combined.fingerprint() != record.result_fingerprint {
                return Err(format!(
                    "{}: fragment-by-fragment result differs from exec.run's",
                    query.label
                ));
            }
        }
        Ok(record)
    }

    /// Mirrors `FederationRuntime::publish`: append copy-on-write, then
    /// drop the cache entries over the superseded table states. Returns
    /// the published version number.
    pub fn publish(
        &self,
        tracer: &mut Tracer,
        id: u64,
        deltas: Vec<(String, Table)>,
    ) -> Result<u64, String> {
        tracer.span("publish", id, |t| {
            let (receipt, superseded) = t
                .span("version.append_batch", id, |_| {
                    self.catalog.append_batch_traced(deltas)
                })
                .map_err(|e| e.to_string())?;
            t.span("cache.invalidate", id, |_| {
                self.fragment_cache.invalidate_tables(&superseded);
                self.plan_cache.invalidate_matching(|key| {
                    superseded
                        .iter()
                        .any(|(name, table_id)| key.reads_table(name, *table_id))
                });
            });
            Ok(receipt.version)
        })
    }
}
