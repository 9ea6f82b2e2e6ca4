//! The execute stage: a job's attempts, each running the plan its
//! selection names.
//!
//! Relational execution is serialized *per simulated site* through the
//! federation's admission queues ([`midas_engines::sim::SiteAdmission`]);
//! the drifting [`SimulationEnv`] is shared behind one lock, which an
//! attempt takes once, for all its fragments' simulation steps. A fragment at a site inside an outage
//! window fails the attempt, and the job retries with that site marked hot;
//! the attempt that runs to completion is judged against the job's
//! deadline, then learns: it records its observation into the shared,
//! lock-guarded per-query-class [`ModellingRegistry`], whose classes fit
//! when the report reads them.

use super::*;

impl FederationRuntime<'_> {
    /// Runs one planned job — select (Algorithm 2), execute, learn, reading
    /// the job's pinned catalog version throughout — wrapped in the
    /// resilience loop: up to [`RuntimeConfig::max_attempts`] attempts,
    /// re-selecting with failed sites marked hot between them. Returns the
    /// job's report, whose service fields `account` fills in.
    ///
    /// `admitted_s` is the simulated clock when a worker dequeued the job:
    /// how much federation time elapsed while it sat in the queue drives
    /// the speculative re-plan ([`FederationRuntime::select`]), so the
    /// trigger is deterministic under replay (unlike the wall-clock wait).
    pub(super) fn execute(
        &self,
        admitted: &AdmittedJob,
        planned: Planned<'_>,
        admitted_s: f64,
    ) -> Result<TenantReport, RuntimeError> {
        let (job, admission) = (&admitted.job, &admitted.admission);
        let (query, pinned, entry) = (&job.query, &admission.pinned, &*planned.entry);
        let waited_s = admitted_s - admission.queued_clock_s;
        let weights = WeightedSumModel::new(&job.policy.weights);
        let left_rows = base_rows(pinned, &query.left_table)?;
        let right_rows = base_rows(pinned, &query.right_table)?;

        let max_attempts = self.config.max_attempts.max(1);
        let mut hot_sites: Vec<SiteId> = Vec::new();
        let mut replans: u32 = 0;
        let mut plan_switched = false;
        for attempt in 0..max_attempts {
            // Select: multi-objective choice under the tenant's policy.
            let selection = self.select(admitted, entry, &weights, &hot_sites, waited_s)?;
            replans += u32::from(selection.replanned);
            plan_switched |= selection.switched;
            let costed = selection.fresh.as_ref().unwrap_or(&entry.costed);
            let (chosen, chosen_costs) = &costed.pareto[selection.index];

            // Execute: per-site admission + shared drifting environment,
            // over the pinned version (the fragments' outputs are a slice
            // beside it, by position). A point of the entry's costed space
            // runs the entry's query, assembled once; a fresh one assembles
            // its own. Either runs the query's three plans, whose keys the
            // entry holds. The fault position advances with the attempt, so
            // a retry can outlive a short outage window even when the
            // failing site is a pinned scan site no re-plan can move.
            let assembled;
            let federated = match &selection.fresh {
                None => entry
                    .served(selection.index, self.federation, self.placement, query)
                    .map_err(SchedulerError::Engine)?,
                Some(_) => {
                    assembled = assemble(self.federation, self.placement, query, chosen)
                        .map_err(SchedulerError::Engine)?;
                    &assembled
                }
            };
            let mut executor = SharedExecutor::new(self.federation, &self.env, &self.admission)
                .with_pacing(self.config.pacing)
                .with_profiled_fragments(&planned.profiled)
                .with_fragment_keys(&entry.keys)
                .with_clock_mirror(&self.clock);
            if let Some(binding) = planned.binding {
                executor = executor.with_result_cache(binding);
            }
            if let Some(plan) = &self.fault_plan {
                executor =
                    executor.with_faults(plan, admitted.sequence as u64 + attempt as u64);
            }
            let executed =
                match executor.run_with_scale(federated, pinned, self.config.work_scale) {
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
                    Err(e) => return Err(SchedulerError::Engine(e).into()),
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
                .map_err(SchedulerError::Estimation)?;

            return Ok(TenantReport {
                sequence: admitted.sequence,
                tenant: job.tenant.clone(),
                queued_s: admission.queued_clock_s,
                admitted_s,
                pressure: admission.pressure.clone(),
                replans,
                plan_switched,
                attempts: attempt + 1,
                cache_hits: executed.cache_hits,
                reused_fragments: executed.reused_fragments,
                pinned_version: pinned.version(),
                report: MidasReport {
                    label: query.label.clone(),
                    space_size: entry.space.len(),
                    pareto_size: costed.pareto.len(),
                    predicted_costs: chosen_costs.to_vec(),
                    actual_costs: costs,
                    result_rows: executed.result.n_rows(),
                    result_fingerprint: executed.result.fingerprint(),
                    catalog_shared_bytes: executed.catalog_shared_bytes,
                    chosen: chosen.clone(),
                },
                // The service fields, which `account` fills in.
                completion: 0,
                worker: 0,
                wall_latency_s: 0.0,
                queue_wait_s: 0.0,
                completed_s: 0.0,
            });
        }
        // LINT: panic-ok — the loop body returns Ok or Err on its final
        // iteration (attempt == max_attempts - 1); falling out is a bug in
        // this function, not a reachable input state.
        unreachable!("the attempt loop returns on its final iteration")
    }
}
