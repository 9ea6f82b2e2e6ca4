//! The account stage: what a call reports of the jobs it served.
//!
//! A finished job updates its tenant's failure ledger (the quarantine
//! policy's input), then lands in the call's result sink — a completed one
//! as a [`TenantReport`] whose service fields are filled here, a failed one
//! as a [`FailedJob`] carrying its structured [`RuntimeError`]. When the
//! call's queue drains, the sink, the queue's counters and the runtime's
//! own state become the [`RuntimeReport`] it returns.

use super::*;

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

/// Collected results of one service call, guarded by one lock so the
/// completion index is consistent with the push order.
#[derive(Default)]
pub(super) struct ResultSink {
    completed: Vec<TenantReport>,
    failed: Vec<FailedJob>,
    completions: usize,
}

impl FederationRuntime<'_> {
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

    /// Per-site admission contention so far, keyed by site name.
    pub fn admission_stats(&self) -> Vec<(String, AdmissionStats)> {
        self.admission
            .stats()
            .into_iter()
            .map(|(site, stats)| (self.federation.site(site).name.clone(), stats))
            .collect()
    }

    /// Records one job's outcome, in the order the tenant's next job
    /// relies on: the failure ledger first, then the sink — where a
    /// completed job's report gets its service fields — and only then does
    /// the worker release the tenant's in-flight slot, so the next job
    /// observes this one's verdict.
    pub(super) fn account(
        &self,
        sink: &Mutex<ResultSink>,
        worker: usize,
        admitted: &AdmittedJob,
        dequeued: Instant,
        outcome: Result<TenantReport, RuntimeError>,
    ) {
        let tenant = &admitted.job.tenant;
        self.record_health(tenant, &outcome);
        let mut sink = lock_recover(sink);
        let completion = sink.completions;
        sink.completions += 1;
        match outcome {
            Ok(report) => sink.completed.push(TenantReport {
                completion,
                worker,
                wall_latency_s: dequeued.elapsed().as_secs_f64(),
                queue_wait_s: dequeued.duration_since(admitted.queued_at).as_secs_f64(),
                completed_s: self.clock_s(),
                ..report
            }),
            Err(error) => sink.failed.push(FailedJob {
                sequence: admitted.sequence,
                tenant: tenant.clone(),
                error,
            }),
        }
    }

    /// Updates the tenant's failure ledger after one job outcome. Panics
    /// and site-exhausted failures count toward quarantine; a success (or
    /// any other error kind) resets the streak; quarantine rejections
    /// leave the ledger untouched.
    fn record_health(&self, tenant: &str, outcome: &Result<TenantReport, RuntimeError>) {
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

    /// Builds the service report from a drained sink and the ingress
    /// queue's per-tenant counters.
    pub(super) fn finish(
        &self,
        started: Instant,
        sink: ResultSink,
        queue_stats: HashMap<String, TenantQueueStats>,
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
        // their queue story too. One map probe per tenant.
        for (name, queue) in queue_stats {
            tenants.entry(name).or_default().queue = queue;
        }
        let all_samples: Vec<f64> = latencies.values().flatten().copied().collect();
        let mut tenants: Vec<(String, TenantStats)> = tenants
            .into_iter()
            .map(|(name, mut stats)| {
                stats.mean_latency_s /= stats.queries.max(1) as f64;
                stats.latency = LatencyStats::from_samples(
                    latencies.remove(&name).unwrap_or_default(),
                );
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
}
