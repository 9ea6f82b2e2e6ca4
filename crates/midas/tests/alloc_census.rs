//! Allocation census of a warm job's path through the runtime.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) watches one `run` of 160 medical
//! jobs on a primed one-worker runtime, where every plan and fragment is a
//! cache hit: what remains is admission, the queue, the plan-cache probe,
//! selection, the hit path of execution, the learning record and the
//! report. The census bounds what that path asks the allocator for per
//! job:
//!
//! * admission validates a repeated plan by one verdict-memo lookup, not
//!   by running the static analyzer again (≈ 95 allocations per job);
//! * the plan-cache key takes admission's plan fingerprint and scanned
//!   tables instead of encoding or walking the three plans again (it
//!   still copies the table names and spells the two named tables, in
//!   order, into its scope: one block);
//! * the queue, the quarantine ledger and the report's per-tenant tallies
//!   look a tenant up by `&str`, copying its name only on first sight;
//! * selection reads the chosen Pareto index off the cached costed space
//!   instead of cloning the front (≈ 22 allocations per job), and ranks
//!   the front in place (≈ 8);
//! * admission encodes the three plans (306 bytes) into a 512-byte buffer,
//!   which does not grow, then copies it once into its fingerprint (≈ 3);
//! * the assembled query comes from the plan entry's memo, built once per
//!   Pareto point, and its three fragment keys from the entry, built once
//!   with it: no plan tree is cloned (≈ 28) and no plan encoded (≈ 31)
//!   per job;
//! * the pinned tables' `name → id` map is the version's own, built once
//!   (3), and the shared-bytes scan borrows names and reads table widths
//!   without building a scan batch (8).
//!
//! The runtime serves jobs on its worker threads, so this census counts
//! every thread while it watches — which is why the file holds one test.
//! It is a count, not a clock: the same on any host, at any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use midas::runtime::{FederationRuntime, RuntimeConfig, RuntimeJob};
use midas::{Midas, QueryPolicy};
use midas_tpch::medical::{generate_medical, medical_query};

struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
/// Set only inside [`counted`]; every thread's requests count meanwhile.
static WATCHED: AtomicBool = AtomicBool::new(false);

fn note() {
    if WATCHED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's `layout` obligations pass through to `System`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its value beside the number of allocations every
/// thread requested meanwhile.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.store(0, Ordering::Relaxed);
    WATCHED.store(true, Ordering::Relaxed);
    let out = f();
    WATCHED.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed))
}

const MODALITIES: [&str; 5] = ["CT", "MR", "US", "XR", "PET"];
const TENANTS: usize = 16;

/// `rounds` jobs for each of sixteen tenants: tenant `t` asks for modality
/// `(t + round) mod 5` under one of four policies, so every round touches
/// all five queries.
fn jobs(rounds: usize) -> Vec<RuntimeJob> {
    let policies = [
        QueryPolicy::balanced(),
        QueryPolicy::fastest(),
        QueryPolicy::cheapest(),
        QueryPolicy::balanced().with_money_budget(100.0),
    ];
    (0..rounds)
        .flat_map(|round| (0..TENANTS).map(move |tenant| (round, tenant)))
        .map(|(round, tenant)| {
            RuntimeJob::new(
                &format!("hospital-{tenant:02}"),
                medical_query(Some(MODALITIES[(tenant + round) % MODALITIES.len()])),
                policies[tenant % policies.len()].clone(),
            )
        })
        .collect()
}

#[test]
fn a_warm_medical_job_allocates_at_most_its_bound() {
    let (midas, _, _) = Midas::example_deployment(&["patient"], &["generalinfo"]);
    let tables = generate_medical(2_000, 0.5, 42);
    let runtime = FederationRuntime::new(
        midas.federation(),
        midas.placement(),
        tables,
        RuntimeConfig {
            workers: 1,
            pacing: 0.0,
            ..RuntimeConfig::default()
        },
    );
    // Priming: one round fills both cache tiers and the verdict memo.
    let priming = runtime.run(jobs(1));
    assert!(priming.failed.is_empty(), "{:?}", priming.failed);
    let primed = runtime.cache_stats();

    let batch = jobs(10);
    let n_jobs = batch.len() as u64;
    let (report, allocations) = counted(|| runtime.run(batch));
    assert_eq!(report.completed.len() as u64, n_jobs, "{:?}", report.failed);
    // Warm: no plan was built in the counted run.
    assert_eq!(report.cache.plan.misses, primed.plan.misses);
    let per_job = allocations as f64 / n_jobs as f64;
    // Parent of the change that added this file → that change: 230.5 →
    // 128.8 allocations per job (36 885 → 20 613 over the run); the plan
    // entry's per-point memo then took it to 38.5 (6 155), and naming the
    // query's two tables in order in the plan key to 39.5 (6 315). A
    // fingerprint buffer that does not grow and an allocation-free
    // Algorithm 2 took it from 39.1 (6 253) to 27.1 (4 333, ten runs of
    // ten).
    assert!(
        per_job <= 28.0,
        "a warm job asked for {per_job:.1} allocations ({allocations} over {n_jobs} jobs)"
    );
}
