//! Allocation census of a cold job's path through the runtime.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) watches one `run` of the five
//! medical queries, each submitted once, on a fresh one-worker runtime
//! with both cache tiers on: every job misses the plan cache, so it
//! enumerates its QEP space, profiles its three fragments through the
//! fragment cache, costs the space and executes with the profiled outputs
//! handed over. The census bounds what that path asks the allocator for per
//! job; in particular, each fragment's cache key is encoded once per cold
//! job (`fragment_keys`), and planning and every run take those keys
//! instead of fingerprinting each dependency closure again.
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

#[test]
fn a_cold_medical_job_allocates_at_most_its_bound() {
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
    let batch: Vec<RuntimeJob> = MODALITIES
        .iter()
        .map(|m| RuntimeJob::new("hospital-00", medical_query(Some(m)), QueryPolicy::balanced()))
        .collect();
    let n_jobs = batch.len() as u64;
    let (report, allocations) = counted(|| runtime.run(batch));
    assert_eq!(report.completed.len() as u64, n_jobs, "{:?}", report.failed);
    // Cold: every job built its plan and planned its fragments.
    assert_eq!(report.cache.plan.misses, n_jobs);
    assert_eq!(report.cache.plan.hits, 0);
    assert!(report.cache.planning.computed + report.cache.planning.reused >= 2 * n_jobs);
    let per_job = allocations as f64 / n_jobs as f64;
    // The change that added this file reads 742.4 allocations per job
    // (3 712 over the run; one run in four read 743.2). Its parent read
    // 776.4–776.8 (3 882–3 884): planning fingerprinted each fragment's
    // dependency closure for its own key, and the plan entry's key set did
    // it again. A fingerprint buffer that does not grow and an
    // allocation-free Algorithm 2 then took it to 725.8 (3 629, ten runs
    // of ten; the parent read 3 714 ten times of ten).
    assert!(
        per_job <= 727.0,
        "a cold job asked for {per_job:.1} allocations ({allocations} over {n_jobs} jobs)"
    );
}
