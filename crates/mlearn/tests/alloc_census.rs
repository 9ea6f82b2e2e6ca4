//! Allocation census of the estimation loop: work counted, not timed.
//!
//! A counting `#[global_allocator]` (here, in the test crate — the library
//! crates keep `#![forbid(unsafe_code)]`) counts what one thread asks the
//! allocator for while it fits an MLP, runs a BML tournament, or evolves an
//! NSGA-II population (`midas-moo` is a dev-dependency for that), and
//! asserts that each does its work once:
//!
//! * an MLP fit allocates the same at 10 epochs as at 250 (one activation
//!   vector per sample per epoch made it `n` more per epoch), and no vector
//!   per row;
//! * a regression tree, and a bagging ensemble of them, allocates the same
//!   at depth 1 as at depth 4 (a `Box` per node and vectors per node and
//!   candidate feature made it grow with the node count);
//! * a `TrainingError` tournament allocates what fitting and scoring each
//!   family once per metric allocates, plus a constant (training the
//!   winner a second time added one more fit per metric);
//! * an NSGA-II generation allocates its children and little else (cloning
//!   every survivor's genome and cost vector, and one adjacency list per
//!   population member per sort, added more than twice the children's
//!   count on top of them).
//!
//! The parent readings are recorded beside each assertion. These are
//! counts, not clocks: the same on any host, at any load.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use midas_dream::{CostEstimator, History};
use midas_mlearn::bagging::BaggingConfig;
use midas_mlearn::mlp::MlpConfig;
use midas_mlearn::tree::{RegressionTree, TreeConfig};
use midas_mlearn::{
    BaggingRegressor, BmlEstimator, MlpRegressor, Regressor, RegressorFamily, WindowSpec,
};
use midas_moo::{IntBoxProblem, Nsga2, Nsga2Config};

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
fn an_mlp_fit_allocates_the_same_at_any_epoch_count() {
    let h = history();
    let window = h.latest(60);
    let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
    let ys = History::targets_of(window, 0);
    let fit_allocations = |epochs| {
        let mut mlp = MlpRegressor::new(MlpConfig {
            hidden: 6,
            epochs,
            ..MlpConfig::default()
        });
        census(|| mlp.fit(&xs, &ys).expect("60 rows")).1
    };
    // Parent: 668 and 15 068 (60 more per epoch); then 69 and 69, one
    // standardized row per sample; now 11 and 11.
    let (short, long) = (fit_allocations(10), fit_allocations(250));
    assert_eq!(short, long, "allocations grew with the epoch count");
    // Setting up — the scalers, the weights and their gradients, and one
    // feature-major input and one unit-major buffer per phase — is all
    // there is: no per-row vector.
    assert!(long <= 11, "{long} allocations for a 60-row fit");
}

#[test]
fn a_bagging_fit_allocates_the_same_at_any_depth() {
    let h = history();
    let window = h.latest(60);
    let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
    let ys = History::targets_of(window, 0);
    let tree = |max_depth| TreeConfig {
        max_depth,
        min_split: 4,
    };
    // One tree at depth 1 and at depth 4: more nodes, the same census.
    let tree_fit = |max_depth| {
        let mut tree = RegressionTree::new(tree(max_depth));
        let ((), allocations) = census(|| tree.fit(&xs, &ys).expect("60 rows"));
        (tree.n_leaves(), allocations)
    };
    let ((shallow_leaves, shallow), (deep_leaves, deep)) = (tree_fit(1), tree_fit(4));
    assert!(
        deep_leaves > 2 * shallow_leaves,
        "{shallow_leaves} vs {deep_leaves} leaves"
    );
    assert_eq!(
        shallow, deep,
        "a tree's allocations grew with its node count"
    );
    // The paper's ensemble: 15 trees.
    let bagging_fit = |max_depth| {
        let mut bag = BaggingRegressor::new(BaggingConfig {
            n_estimators: 15,
            tree: tree(max_depth),
            seed: 17,
        });
        census(|| bag.fit(&xs, &ys).expect("60 rows")).1
    };
    // Parent: 230 and 1 447 (a `Box` per node, vectors per node and per
    // candidate feature, a bootstrap copy per tree); now 22 and 22.
    let (shallow, deep) = (bagging_fit(1), bagging_fit(4));
    assert_eq!(
        shallow, deep,
        "an ensemble's allocations grew with its node count"
    );
    // One node arena per tree, the tree list and the shared scratch.
    assert!(deep <= 15 + 7, "{deep} allocations for a 15-tree fit");
}

#[test]
fn a_training_error_tournament_fits_each_family_once_per_metric() {
    let h = history();
    let window = h.latest(60);
    let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();

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
    // What `fit` adds around the tournament: the window's row pointers, the
    // target vector, the two result vectors and the report's R² vector.
    // Now 5 (one target vector serves both metrics). Parent: 2 778 — the
    // same plus one more fit of each metric's winner (1 318 allocations the
    // cheaper of the two, at that commit). The slack was 12 while a
    // winner's fit read ≥ 69; it is the reading itself since a bagging
    // winner's fit reads 23, so the bar below stays four slacks.
    const SLACK: u64 = 5;
    let around = whole_fit - tournament;
    assert!(
        around <= SLACK,
        "{around} allocations around the tournament"
    );
    assert!(
        cheapest_winner_fit > 4 * SLACK,
        "a winner's fit ({cheapest_winner_fit} allocations) must be unmistakable beside that slack"
    );
}

#[test]
fn an_nsga2_generation_allocates_its_children_and_little_else() {
    // A QEP-shaped box; a genome and a cost vector are one allocation each.
    let problem = IntBoxProblem::new(vec![2, 3, 4, 70], 2, |g: &[usize]| {
        let vms = (g[3] + 1) as f64;
        vec![
            40.0 / vms + 3.0 * g[0] as f64 + g[1] as f64,
            0.07 * vms * (g[2] + 1) as f64 + 0.5 * g[1] as f64,
        ]
    });
    let run_allocations = |generations| {
        let config = Nsga2Config {
            generations,
            ..Nsga2Config::default()
        };
        let ((population, evaluations), allocations) =
            census(|| Nsga2::new(&problem, config).run());
        assert_eq!(population.len(), config.population);
        assert_eq!(evaluations, config.population * (generations + 1));
        allocations
    };
    let population = Nsga2Config::default().population as u64;
    let children = 2 * population; // per generation: 60 genomes, 60 cost vectors
    let per_generation = (run_allocations(50) - run_allocations(10)) / 40;
    let beyond_children = per_generation - children;
    // Parent: 269 beyond the children (120 survivor clones, an adjacency
    // list per member per sort); now 41 — two sorts' bit matrix, counts and
    // fronts, and three short vectors per front for the crowding distances.
    // The bar is half the parent's reading.
    assert!(
        beyond_children <= 134,
        "{per_generation} allocations per generation, {beyond_children} beyond the children"
    );
}
