//! The admission queue: per-tenant FIFOs drained by weighted deficit
//! round-robin.
//!
//! The queue is not strict FIFO: each rotation grants every tenant up to
//! `weight` pops (default 1) before moving on, so one chatty tenant cannot
//! starve the others (a tenant's own jobs still run in submission order,
//! and at most one job per tenant is in flight at a time — the
//! serialization that makes quarantine accounting deterministic).
//!
//! A worker takes the queue's lock once per job: [`JobQueue::next`]
//! completes the job it finished and pops its next one in one critical
//! section. Workers that find nothing serviceable park on a condvar,
//! counted under the lock, and a submission, completion or close wakes
//! them only when that count is not 0 — a notify with no waiter still
//! costs a syscall.

use super::*;

/// One tenant's FIFO in the rotation.
pub(super) struct TenantQueue {
    name: String,
    jobs: VecDeque<AdmittedJob>,
    /// Pops granted per rotation (>= 1). Weight 1 for every tenant is
    /// exactly the classic one-job-per-tenant round-robin.
    weight: u64,
    /// Deficit counter: pops remaining in the current rotation. Refreshed
    /// to `weight` when the cursor (re)enters the tenant with 0 credits.
    credits: u64,
    /// A worker holds one of this tenant's jobs right now. At most one job
    /// per tenant is in flight: `next` skips in-flight tenants, and clears
    /// the flag when the worker comes back for its next job. This serializes each tenant's jobs
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
/// `next` retires such departed tenants from the rotation, so a service
/// that saw thousands of one-shot tenants does not scan (or retain) their
/// dead queues forever.
#[derive(Default)]
pub(super) struct QueueState {
    /// Tenant FIFOs in first-submission order (the rotation order).
    pub(super) tenants: Vec<TenantQueue>,
    /// Tenant name → index in `tenants` (submission fast path).
    pub(super) index: HashMap<String, usize>,
    /// Rotation cursor into `tenants`.
    pub(super) cursor: usize,
    /// No further submissions; workers exit once all queues empty.
    closed: bool,
    /// Next admission sequence number.
    next_sequence: usize,
    /// Jobs submitted but not yet completed or failed.
    outstanding: usize,
    /// Workers waiting on `ready` right now: a wake-up with none would
    /// only cost a syscall.
    parked: usize,
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
pub(super) struct JobQueue {
    pub(super) state: Mutex<QueueState>,
    /// Signalled on submit, completion and close while a worker is parked.
    ready: Condvar,
    /// Signalled on completion (for `drain`).
    idle: Condvar,
}

impl JobQueue {
    /// Queues a job with what admission observed and decided of it;
    /// returns its admission sequence number. A resubmitting tenant's
    /// weight updates to the latest value.
    pub(super) fn submit(&self, job: RuntimeJob, admission: Admission) -> usize {
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
        let wake = state.parked > 0;
        drop(guard);
        if wake {
            self.ready.notify_all();
        }
        sequence
    }

    /// Completes the job of tenant `finished` (a worker's previous job, if
    /// any), then takes the next job in weighted-deficit-round-robin tenant
    /// order — one critical section. The completion counts the job done
    /// and releases the tenant's in-flight slot, so its next job becomes
    /// serviceable. The pop blocks while no tenant is serviceable (queue
    /// empty, or every queued tenant already has a job in flight) and the
    /// queue is not yet closed and drained; `None` once closed and every
    /// FIFO is empty. The scan indexes the rotation directly — no per-step
    /// tenant-name clone.
    pub(super) fn next(&self, finished: Option<&str>) -> Option<AdmittedJob> {
        let mut state = lock_recover(&self.state);
        if let Some(tenant) = finished {
            if let Some(&slot) = state.index.get(tenant) {
                state.tenants[slot].in_flight = false;
            }
            state.outstanding -= 1;
            if state.outstanding == 0 {
                self.idle.notify_all();
            }
            // A parked worker may wait on this tenant's in-flight flag, or
            // to see the closed queue drain.
            if state.parked > 0 {
                self.ready.notify_all();
            }
        }
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
            state.parked += 1;
            state = self
                .ready
                .wait(state)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            state.parked -= 1;
        }
    }

    /// Blocks until every admitted job has completed or failed.
    pub(super) fn drain(&self) {
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
    pub(super) fn close(&self) {
        let mut state = lock_recover(&self.state);
        state.closed = true;
        let wake = state.parked > 0;
        drop(state);
        if wake {
            self.ready.notify_all();
        }
    }

    /// Snapshot of every tenant's queue counters (including retired
    /// tenants), by tenant name.
    pub(super) fn tenant_stats(&self) -> HashMap<String, TenantQueueStats> {
        lock_recover(&self.state).stats.clone()
    }
}

/// Closes the queue when dropped — **also on unwind**, so a panicking
/// producer closure fails the `serve` call instead of leaving workers
/// parked forever in [`JobQueue::next`].
pub(super) struct CloseOnDrop<'q>(pub(super) &'q JobQueue);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.close();
    }
}
