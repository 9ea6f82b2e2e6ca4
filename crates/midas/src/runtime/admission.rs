//! The admit stage: what a job passes before a worker plans it.
//!
//! Tenants push `(tenant, query, policy)` jobs through an [`Ingress`]
//! (`submit` / `ingest` / `drain`). Admission pins the catalog version
//! current at submission, reads the tenant's weight, the simulated clock
//! and the admission pressure, encodes the job's three plans once and takes
//! the static analyzer's verdict on them — from the verdict memo for a plan
//! seen before — then queues the job (`queue.rs`). A worker that pops it
//! fails it at once on a rejection, then at the quarantine gate while its
//! tenant cools off. Ingest appends delta batches as `Arc`-shared chunks
//! (zero bytes of prior data recopied), publishes the successor version
//! atomically and retires the superseded tables' cache entries.

use super::*;

/// One queued unit of admitted work: the job, what admission observed and
/// decided of it, and where the queue put it.
pub(super) struct AdmittedJob {
    pub(super) sequence: usize,
    pub(super) job: RuntimeJob,
    pub(super) admission: Admission,
    /// Wall-clock instant at submission (measures real queue wait).
    pub(super) queued_at: Instant,
}

/// What [`FederationRuntime::admit`] observed and decided of one job before
/// it entered the queue: its pinned snapshot, the observations its plan
/// will be costed under, its plans' fingerprint and scanned tables, and the
/// analyzer's verdict.
pub(super) struct Admission {
    pub(super) pinned: Arc<CatalogVersion>,
    /// The tenant's service weight at submission.
    pub(super) weight: u64,
    /// Simulated clock at submission (starts the completion-latency timer).
    pub(super) queued_clock_s: f64,
    /// Per-site pressure sampled at submission — recorded here so the plan
    /// the job gets is a deterministic function of the job record, not of
    /// whatever the gates look like when a worker happens to dequeue it.
    /// Empty when pressure feedback is disabled.
    pub(super) pressure: Vec<(SiteId, f64)>,
    /// The job's three plans (left prepare, right prepare, combine),
    /// encoded once: the key of the verdict memo and then of the plan
    /// cache.
    pub(super) fingerprint: PlanFingerprint,
    /// Every base table the three plans scan, sorted, as the verdict memo
    /// recorded it: with the query's two named tables, the table component
    /// of the job's plan-cache key.
    pub(super) scans: Arc<[String]>,
    /// `Some` when the static plan analyzer rejected the query at
    /// admission. The job still flows through the queue (so sequencing,
    /// fairness accounting and the per-tenant in-flight discipline are
    /// unchanged), but the worker fails it immediately — no quarantine
    /// gate, no planning, no cache, no site slot.
    pub(super) rejection: Option<RuntimeError>,
}

/// What admission learned of one distinct plan, shared by every admission
/// that hits it in the verdict memo.
#[derive(Clone)]
pub(super) struct Verdict {
    /// The analyzer's error diagnostics; `None` when the plans are valid.
    errors: Option<Arc<[PlanDiagnostic]>>,
    /// Every base table the plans scan, sorted, each once.
    scans: Arc<[String]>,
}

/// Per-tenant failure ledger behind the quarantine policy. Tenant jobs are
/// serialized by the queue's in-flight flag, so transitions here happen in
/// each tenant's submission order no matter how many workers run.
#[derive(Debug, Clone, Copy, Default)]
pub(super) struct TenantHealth {
    /// Countable failures (panics, site-exhausted jobs) since the last
    /// success or quarantine trip.
    pub(super) consecutive_failures: usize,
    /// Quarantine rejections still owed before service resumes.
    pub(super) cooloff_remaining: usize,
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
    pub(super) runtime: &'r FederationRuntime<'a>,
    pub(super) queue: &'r JobQueue,
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

impl FederationRuntime<'_> {
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

    /// Admits one job to `queue`, in the one order every admission takes:
    /// pin the currently published catalog version, read the tenant's
    /// service weight, the simulated clock and the admission pressure,
    /// fingerprint the job's three plans, validate them (a repeated plan by
    /// a memo lookup), enqueue with the fingerprint, which the job's plan
    /// cache key reuses. Returns the job's admission sequence number.
    pub(super) fn admit(&self, queue: &JobQueue, job: RuntimeJob) -> usize {
        let pinned = self.catalog.current();
        let weight = lock_recover(&self.weights).get(&job.tenant).copied().unwrap_or(1);
        let queued_clock_s = self.clock_s();
        // Every gate's instantaneous pressure score — `(in use + waiting) /
        // capacity` per metered site — **iff** congestion feedback is on:
        // with [`RuntimeConfig::pressure_penalty`] at 0 nothing touches the
        // gates, so the blind planner's lock traffic (and therefore its
        // timing and outputs) is exactly what it was before pressure
        // feedback existed.
        let pressure = if self.config.pressure_penalty > 0.0 {
            self.admission.pressure()
        } else {
            Vec::new()
        };
        let q = &job.query;
        let plans = [&q.left_prepare, &q.right_prepare, &q.combine];
        let fingerprint = PlanFingerprint::of_plans(plans);
        let verdict = self.validate_admission(&job.tenant, &plans, &fingerprint);
        let admission = Admission {
            pinned,
            weight,
            queued_clock_s,
            pressure,
            fingerprint,
            scans: verdict.scans,
            rejection: verdict.errors.map(|diagnostics| RuntimeError::InvalidPlan {
                tenant: job.tenant.clone(),
                diagnostics: diagnostics.to_vec(),
            }),
        };
        queue.submit(job, admission)
    }

    /// Charge of one verdict memo entry beyond its key's and diagnostics'
    /// bytes: the key's tuple and `Arc` headers, the map slot, the owner.
    /// The names of the tables the plans scan, which the verdict carries,
    /// are not charged (two to four short names per distinct plan).
    const VERDICT_ENTRY_BYTES: u64 = 128;

    /// Statically validates `tenant`'s job against the runtime's schema
    /// environment at admission time: schema inference and type checking
    /// over its three fragment plans (left prepare, right prepare, combine
    /// with its `@frag` wiring), whose encoding is `fingerprint`. Returns
    /// the verdict — error diagnostics for an invalid plan, none when the
    /// job may proceed to planning — with the base tables the plans scan,
    /// which the job's plan-cache key names.
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
    ) -> Verdict {
        let memo = self
            .verdicts
            .as_ref()
            .map(|memo| (memo, (self.config.cache_scope.key(tenant), fingerprint.clone())));
        match memo.as_ref().and_then(|(memo, key)| memo.get(key)) {
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
                let verdict = Verdict {
                    errors: (!errors.is_empty()).then(|| errors.into()),
                    scans: scanned_base_tables(plans).into_iter().map(String::from).collect(),
                };
                if let Some((memo, key)) = memo {
                    let bytes = Self::VERDICT_ENTRY_BYTES
                        + (key.0.len() + fingerprint.encoded_len() + diagnostics_bytes) as u64;
                    memo.insert(key, verdict.clone(), bytes, tenant);
                }
                verdict
            }
        }
    }

    /// What a popped job passes before planning: `Some(error)` when the
    /// analyzer rejected it at admission — it fails at once, before the
    /// quarantine gate (the rejection is not a health event) and before any
    /// planning or slot traffic — or when its tenant is mid-cool-off (the
    /// rejection itself consumes one cool-off unit); `None` when the job
    /// may proceed.
    pub(super) fn gate(&self, admitted: &AdmittedJob) -> Option<RuntimeError> {
        if let Some(rejected) = &admitted.admission.rejection {
            return Some(rejected.clone());
        }
        let tenant = &admitted.job.tenant;
        let mut health = lock_recover(&self.health);
        let h = health.get_mut(tenant).filter(|h| h.cooloff_remaining > 0)?;
        h.cooloff_remaining -= 1;
        Some(RuntimeError::Quarantined {
            tenant: tenant.to_string(),
            failures: self.config.quarantine_threshold,
            remaining_cooloff: h.cooloff_remaining,
        })
    }
}
