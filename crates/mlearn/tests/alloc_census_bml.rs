//! Allocation census of a BML tournament, on every thread it uses.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) asserts that a `TrainingError`
//! tournament allocates what fitting and scoring each family once per
//! metric allocates, plus a constant: training the winner a second time
//! added one more fit per metric.
//!
//! `BmlEstimator::fit` fits its cost metrics side by side on a host with
//! more than one CPU, so this census counts every thread while it watches
//! — which is why the file holds one test. It is a count, not a clock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::thread;

use midas_dream::{CostEstimator, History};
use midas_mlearn::{BmlEstimator, RegressorFamily, WindowSpec};

struct Counting;

static COUNT: AtomicU64 = AtomicU64::new(0);
/// Set only inside [`census`]; every thread's requests count meanwhile.
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

/// Runs `work`; returns its result beside the number of
/// `alloc`/`alloc_zeroed`/`realloc` calls every thread made meanwhile.
fn census<T>(work: impl FnOnce() -> T) -> (T, u64) {
    COUNT.store(0, Ordering::Relaxed);
    WATCHED.store(true, Ordering::Relaxed);
    let out = work();
    WATCHED.store(false, Ordering::Relaxed);
    (out, COUNT.load(Ordering::Relaxed))
}

/// 60 arrivals of a drifting, non-linear two-metric cost over two
/// table-size-like features.
fn history() -> History {
    let mut h = History::new(2, 2);
    for i in 0..60 {
        let t = i as f64;
        let x = [
            1e4 * (1.0 + (t * 0.37).sin().abs()),
            200.0 + 40.0 * (t * 0.9).cos(),
        ];
        let load = if i % 20 < 10 { 1.0 } else { 1.6 };
        let time = load * (3.0 + x[0] * 2e-4) + (t * 1.7).sin();
        let money = 0.5 + x[1] * 1e-3 * load + if i % 7 == 0 { 0.4 } else { 0.0 };
        h.record(&x, &[time, money]).expect("one arity");
    }
    h
}

#[test]
fn a_training_error_tournament_fits_each_family_once_per_metric() {
    let h = history();
    let window = h.latest(60);
    let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();

    // The first fit in a process reads the CPU count, once.
    BmlEstimator::new(WindowSpec::All, 2)
        .fit(&h)
        .expect("60 rows");
    let mut bml = BmlEstimator::new(WindowSpec::All, 2);
    let (report, whole_fit) = census(|| bml.fit(&h));
    assert_eq!(report.expect("60 rows").window_used, 60);

    // The tournament by hand: per metric, every family built, fitted on the
    // window and scored on it — once.
    let mut tournament = 0;
    let mut cheapest_winner_fit = u64::MAX;
    for metric in 0..2 {
        let ys = History::targets_of(window, metric);
        for family in RegressorFamily::paper_families() {
            let (model, fit) = census(|| {
                let mut model = family.build();
                model.fit(&xs, &ys).expect("60 rows");
                model
            });
            let (_, scoring) = census(|| {
                xs.iter()
                    .map(|x| model.predict(x))
                    .collect::<Result<Vec<f64>, _>>()
                    .expect("fitted")
            });
            tournament += fit + scoring;
            if model.family() == bml.chosen_families()[metric] {
                cheapest_winner_fit = cheapest_winner_fit.min(fit);
            }
        }
    }
    // What the fit's threading costs: nothing on a one-CPU host, else a
    // scope, one helper for the second metric returning its block's
    // models, and the vector of handles it is joined from.
    let helpers = thread::available_parallelism()
        .map_or(1, usize::from)
        .min(2)
        - 1;
    let spawning = if helpers == 0 {
        0
    } else {
        census(|| {
            thread::scope(|scope| {
                let handles: Vec<_> = (0..helpers).map(|_| scope.spawn(|| vec![0u8])).collect();
                for handle in handles {
                    handle.join().expect("no panic");
                }
            })
        })
        .1
    };
    // What `fit` adds around the tournament and its threading: the window's
    // row pointers, one target vector for both metrics, the two result
    // vectors and the report's R² vector. Parent of the side-by-side fit:
    // 5, on one thread. Before that, 2 778 — the same plus one more fit of
    // each metric's winner (1 318 allocations the cheaper of the two, at
    // that commit). The slack was 12 while a winner's fit read ≥ 69; it is
    // the reading itself since a bagging winner's fit reads 23, so the bar
    // below stays four slacks.
    const SLACK: u64 = 5;
    let around = whole_fit - tournament;
    assert!(
        around <= SLACK + spawning,
        "{around} allocations around the tournament"
    );
    assert!(
        cheapest_winner_fit > 4 * SLACK,
        "a winner's fit ({cheapest_winner_fit} allocations) must be unmistakable beside that slack"
    );
}
