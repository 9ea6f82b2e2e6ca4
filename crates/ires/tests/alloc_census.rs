//! Allocation census of serving's learn step: work counted, not timed.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) counts what one thread asks the
//! allocator for while it records observations into a
//! [`ModellingRegistry`] class, and asserts that recording is an append:
//!
//! * 1 000 records into a warm class — its history already at its
//!   `Mmax` bound — allocate per record what 10 do (none: a full bounded
//!   history reuses the evicted observation's buffers), and run no fit;
//! * the one read after them fits exactly once, and a second read none.
//!
//! The parent fitted Algorithm 1 inside every record (the learn step of a
//! served job), walking all 25 windows of a medical-shaped class that never
//! meets `R² ≥ 0.8`. These are counts, not clocks: the same on any host,
//! at any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use midas_ires::ModellingRegistry;

struct Counting;

thread_local! {
    /// Requests made by this thread while it is inside [`census`]; the test
    /// harness and sibling tests run on other threads. Const-initialised and
    /// `Drop`-free: touching them from the allocator allocates nothing.
    static WATCHED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if WATCHED.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no allocator state.
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

/// Runs `work` on this thread; returns its result beside the number of
/// `alloc`/`alloc_zeroed`/`realloc` calls it made.
fn census<T>(work: impl FnOnce() -> T) -> (T, u64) {
    COUNT.with(|c| c.set(0));
    WATCHED.with(|w| w.set(true));
    let out = work();
    WATCHED.with(|w| w.set(false));
    (out, COUNT.with(Cell::get))
}

/// Observation `i` of a warm medical class: five queries' feature vectors
/// in turn, costs jittered by load.
fn medical(i: usize) -> ([f64; 4], [f64; 2]) {
    let q = (i % 5) as f64;
    let jitter = ((i * 7919) % 101) as f64 / 100.0;
    (
        [5_000.0, 2_000.0, 500.0 + 100.0 * q, 1_000.0 + 37.0 * q],
        [0.8 + 0.1 * q + 0.2 * jitter, 0.004 + 0.001 * jitter],
    )
}

fn fits(registry: &ModellingRegistry) -> usize {
    let class = registry.get("Medical").expect("class exists");
    let fits = class.lock().expect("class lock").fits();
    fits
}

#[test]
fn a_record_into_a_warm_class_allocates_nothing_and_a_read_fits_once() {
    let registry = ModellingRegistry::dream_defaults(2);
    // Warm: the class exists, its history holds its bound, and it has been
    // read once.
    for i in 0..40 {
        let (x, c) = medical(i);
        registry.observe("Medical", &x, &c).expect("one arity");
    }
    let warm = fits(&registry);
    assert_eq!(warm, 40, "observe fits every observation");
    let record = |from: usize, count: usize| {
        census(|| {
            for i in from..from + count {
                let (x, c) = medical(i);
                registry.record("Medical", &x, &c).expect("one arity");
            }
        })
        .1
    };
    let (ten, thousand) = (record(40, 10), record(50, 1_000));
    assert_eq!(
        ten * 100,
        thousand,
        "allocations per record grew with the count"
    );
    assert_eq!(
        thousand, 0,
        "a full bounded history reuses the evicted buffers"
    );
    assert_eq!(fits(&registry), warm, "a record ran a fit");

    let learning = registry.learning();
    assert_eq!(fits(&registry), warm + 1, "the read fitted the class once");
    assert_eq!(learning[0].observations, 1_050);
    let report = learning[0].fit.clone().expect("fits").expect("deep enough");
    assert!(!report.satisfied, "medical-shaped: R² ≥ 0.8 is never met");
    assert_eq!(report.window_used, 6, "the fallback is the smallest window");
    registry.learning();
    assert_eq!(fits(&registry), warm + 1, "a clean read refitted");
}
