//! Property-based tests of the multi-objective machinery.

use midas_moo::indicators::{hypervolume_2d, spacing};
use midas_moo::select::Constraints;
use midas_moo::{
    best_in_pareto, crowding_distance, dominates, fast_non_dominated_sort, strictly_dominates,
    WeightedSumModel,
};
use proptest::prelude::*;

/// The Pareto front by its definition: the quadratic scan that
/// `pareto_front_indices` replaced with a sort and a sweep, kept as the oracle.
fn front_by_definition(costs: &[Vec<f64>]) -> Vec<usize> {
    (0..costs.len())
        .filter(|&i| {
            !costs
                .iter()
                .enumerate()
                .any(|(j, c)| j != i && midas_moo::dominance::pareto_dominates(c, &costs[i]))
        })
        .collect()
}

/// A grid small enough that duplicates, equal-first-axis groups and exact
/// ties are the common case, with both zeros and both infinities on it
/// (`PlanCostModel::with_hot_sites(∞)` produces all-∞ vectors).
const GRID: [f64; 8] = [
    f64::NEG_INFINITY,
    -1.0,
    -0.0,
    0.0,
    1.0,
    2.0,
    3.0,
    f64::INFINITY,
];

fn grid_costs() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..=3).prop_flat_map(|arity| {
        let on_grid = (0..GRID.len()).prop_map(|k| GRID[k]);
        proptest::collection::vec(proptest::collection::vec(on_grid, arity), 0..=500usize)
    })
}

#[test]
fn front_of_nothing_one_and_all_infinite() {
    assert_eq!(midas_moo::pareto_front_indices(&[]), Vec::<usize>::new());
    for arity in 0..4 {
        assert_eq!(
            midas_moo::pareto_front_indices(&[vec![1.5; arity]]),
            vec![0]
        );
    }
    let banned = vec![vec![f64::INFINITY, f64::INFINITY]; 5];
    assert_eq!(
        midas_moo::pareto_front_indices(&banned),
        vec![0, 1, 2, 3, 4]
    );
}

#[test]
fn front_of_nan_bearing_input_returns_without_panicking() {
    let nan = f64::NAN;
    for arity in 1..4 {
        let mut costs: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                (0..arity)
                    .map(|k| GRID[(i * 3 + k * 5) % GRID.len()])
                    .collect()
            })
            .collect();
        for (n, i) in [0, 7, 8, 21, 39].into_iter().enumerate() {
            costs[i][n % arity] = if n % 2 == 0 { nan } else { -nan };
        }
        costs.push(vec![nan; arity]);
        let front = midas_moo::pareto_front_indices(&costs);
        assert!(
            front.windows(2).all(|w| w[0] < w[1]),
            "ascending, no repeats"
        );
        assert!(front.iter().all(|&i| i < costs.len()));
    }
}

/// The non-dominated sort as Deb et al. state it, each pair compared once
/// into adjacency lists: the member order the NSGA-II replays depend on,
/// kept as the oracle of the two-objective sort.
fn sort_by_pair_loop(costs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    use midas_moo::dominance::pareto_dominates;
    let n = costs.len();
    let mut dominated: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            if pareto_dominates(&costs[i], &costs[j]) {
                dominated[i].push(j);
                counts[j] += 1;
            } else if pareto_dominates(&costs[j], &costs[i]) {
                dominated[j].push(i);
                counts[i] += 1;
            }
        }
    }
    let mut fronts = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            for &j in &dominated[i] {
                counts[j] -= 1;
                if counts[j] == 0 {
                    next.push(j);
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// Two-objective rows on [`GRID`] — and on it plus NaN of either sign when
/// `nan` — up to a GA's parents-plus-children and beyond.
fn grid_pairs(nan: bool) -> impl Strategy<Value = Vec<Vec<f64>>> {
    let values = GRID.len() + if nan { 2 } else { 0 };
    let on_grid = (0..values).prop_map(|k| {
        GRID.get(k)
            .copied()
            .unwrap_or(if k % 2 == 0 { f64::NAN } else { -f64::NAN })
    });
    proptest::collection::vec(proptest::collection::vec(on_grid, 2), 0..=130usize)
}

fn cost_vecs(dims: usize, n: impl Into<proptest::collection::SizeRange>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0..100.0f64, dims), n)
}

/// Algorithm 2 as it was written before it ranked the front in place,
/// kept as the oracle of `best_in_pareto`: collect the budget-satisfying
/// indices (else every index), score that subset, take the first minimum.
fn best_in_pareto_by_collecting(
    costs: &[Vec<f64>],
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> Option<usize> {
    if costs.is_empty() {
        return None;
    }
    let feasible: Vec<usize> = (0..costs.len())
        .filter(|&i| constraints.satisfied_by(&costs[i]))
        .collect();
    let pool: Vec<usize> = if feasible.is_empty() {
        (0..costs.len()).collect()
    } else {
        feasible
    };
    let subset: Vec<&[f64]> = pool.iter().map(|&i| costs[i].as_slice()).collect();
    let scores = wsm_scores(weights, &subset);
    scores
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("NaN score"))
        .map(|(k, _)| pool[k])
}

/// The weighted sum of each candidate, every objective min–max normalized
/// over the candidates: the oracle's scores.
fn wsm_scores(weights: &WeightedSumModel, candidates: &[impl AsRef<[f64]>]) -> Vec<f64> {
    if candidates.is_empty() {
        return Vec::new();
    }
    let weights = weights.weights();
    let m = weights.len();
    let mut lo = vec![f64::INFINITY; m];
    let mut hi = vec![f64::NEG_INFINITY; m];
    for c in candidates {
        let c = c.as_ref();
        for k in 0..m {
            lo[k] = lo[k].min(c[k]);
            hi[k] = hi[k].max(c[k]);
        }
    }
    candidates
        .iter()
        .map(|c| {
            let c = c.as_ref();
            (0..m)
                .map(|k| {
                    let range = hi[k] - lo[k];
                    let z = if range <= 0.0 {
                        0.0
                    } else {
                        (c[k] - lo[k]) / range
                    };
                    z * weights[k]
                })
                .sum()
        })
        .collect()
}

/// A selection on a five-value grid, so equal scores are the common case:
/// zero to thirty points of one to five objectives (five spills the
/// in-place ranges), weights with zeros among them, and per-objective
/// budgets that are absent, or at −1, which no point satisfies.
fn tied_selection() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<Option<f64>>)> {
    (1usize..=5).prop_flat_map(|arity| {
        (
            proptest::collection::vec(
                proptest::collection::vec((0u32..5).prop_map(f64::from), arity),
                0..=30usize,
            ),
            proptest::collection::vec((0u32..3).prop_map(f64::from), arity),
            proptest::collection::vec(
                (0usize..7).prop_map(|b| (b < 5).then_some(b as f64 - 1.0)),
                arity,
            ),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    /// Algorithm 2 ranked in place picks exactly what the collecting
    /// version picks: over ties, single points, budgets no point meets
    /// and more objectives than it keeps on the stack.
    #[test]
    fn best_in_pareto_equals_the_collecting_oracle(
        (costs, mut weights, bounds) in tied_selection(),
    ) {
        weights[0] += 1.0;
        let weights = WeightedSumModel::new(&weights);
        let constraints = Constraints::from_bounds(bounds);
        prop_assert_eq!(
            best_in_pareto(&costs, &weights, &constraints),
            best_in_pareto_by_collecting(&costs, &weights, &constraints)
        );
    }

    /// The `O(n log n)` two-objective sort lists every front and every
    /// member where the pair loop does, across both zeros, both
    /// infinities and exact duplicates.
    #[test]
    fn two_objective_sort_equals_the_pair_loop(costs in grid_pairs(false)) {
        prop_assert_eq!(fast_non_dominated_sort(&costs), sort_by_pair_loop(&costs));
    }

    /// A NaN anywhere takes the pairwise path, which agrees with the pair
    /// loop too.
    #[test]
    fn nan_bearing_sort_equals_the_pair_loop(costs in grid_pairs(true)) {
        prop_assert_eq!(fast_non_dominated_sort(&costs), sort_by_pair_loop(&costs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dominance is a partial order: reflexive (weakly), antisymmetric in
    /// the strict form, and transitive.
    #[test]
    fn dominance_laws(
        a in proptest::collection::vec(0.0..10.0f64, 3),
        b in proptest::collection::vec(0.0..10.0f64, 3),
        c in proptest::collection::vec(0.0..10.0f64, 3),
    ) {
        prop_assert!(dominates(&a, &a), "weak dominance is reflexive");
        prop_assert!(!strictly_dominates(&a, &a), "strict dominance is irreflexive");
        if strictly_dominates(&a, &b) {
            prop_assert!(!strictly_dominates(&b, &a), "antisymmetry");
        }
        if dominates(&a, &b) && dominates(&b, &c) {
            prop_assert!(dominates(&a, &c), "transitivity");
        }
    }

    /// The sorted sweep returns the front of the definition — same indices,
    /// ascending — where ties and duplicates are the rule, not the exception.
    #[test]
    fn front_equals_its_definition(costs in grid_costs()) {
        prop_assert_eq!(midas_moo::pareto_front_indices(&costs), front_by_definition(&costs));
    }

    /// Fronts are a partition: every index appears exactly once, and
    /// members of front k+1 are each dominated by someone in front k.
    #[test]
    fn sort_partitions_and_layers(costs in cost_vecs(2, 1..25)) {
        let fronts = fast_non_dominated_sort(&costs);
        let mut seen = vec![false; costs.len()];
        for front in &fronts {
            for &i in front {
                prop_assert!(!seen[i], "index {} in two fronts", i);
                seen[i] = true;
            }
        }
        prop_assert!(seen.iter().all(|&s| s), "some index missing");
        for w in fronts.windows(2) {
            for &j in &w[1] {
                prop_assert!(
                    w[0].iter().any(|&i| midas_moo::dominance::pareto_dominates(&costs[i], &costs[j])),
                    "front member {} not dominated by the previous layer", j
                );
            }
        }
    }

    /// Crowding distances are non-negative and at least two members of any
    /// front (size >= 2) are boundary-infinite.
    #[test]
    fn crowding_properties(costs in cost_vecs(2, 2..20)) {
        let front = midas_moo::pareto_front_indices(&costs);
        let refs: Vec<&[f64]> = front.iter().map(|&i| costs[i].as_slice()).collect();
        let d = crowding_distance(&refs);
        prop_assert!(d.iter().all(|&x| x >= 0.0));
        let infinite = d.iter().filter(|x| x.is_infinite()).count();
        prop_assert!(infinite >= 2.min(d.len()));
    }

    /// Adding a dominated point never changes the 2-D hypervolume.
    #[test]
    fn hypervolume_ignores_dominated_points(costs in cost_vecs(2, 1..15)) {
        let reference = [150.0, 150.0];
        let hv = hypervolume_2d(&costs, &reference);
        // Duplicate the worst point, shifted to be strictly dominated.
        let mut extended = costs.clone();
        let worst: Vec<f64> = (0..2)
            .map(|k| costs.iter().map(|c| c[k]).fold(0.0f64, f64::max) + 1.0)
            .collect();
        extended.push(worst);
        let hv2 = hypervolume_2d(&extended, &reference);
        prop_assert!((hv - hv2).abs() < 1e-9);
        // Hypervolume is monotone: adding any point cannot shrink it.
        prop_assert!(hv2 + 1e-12 >= hv);
    }

    /// Algorithm 2 always returns a feasible plan when one exists.
    #[test]
    fn best_in_pareto_feasibility(
        costs in cost_vecs(2, 1..20),
        bound in 10.0..90.0f64,
        w in 0.05..0.95f64,
    ) {
        let weights = WeightedSumModel::new(&[w, 1.0 - w]);
        let constraints = Constraints::none(2).with_bound(0, bound);
        let pick = best_in_pareto(&costs, &weights, &constraints).expect("non-empty");
        let any_feasible = costs.iter().any(|c| c[0] <= bound);
        if any_feasible {
            prop_assert!(costs[pick][0] <= bound + 1e-12,
                "picked infeasible plan though feasible ones exist");
        }
    }

    /// WSM scores are scale-invariant thanks to min-max normalization.
    #[test]
    fn wsm_scale_invariance(costs in cost_vecs(2, 2..15), scale in 1.0..1000.0f64) {
        let weights = WeightedSumModel::new(&[0.4, 0.6]);
        let best_a = weights.best_index(&costs);
        let scaled: Vec<Vec<f64>> = costs.iter()
            .map(|c| vec![c[0] * scale, c[1]])
            .collect();
        let best_b = weights.best_index(&scaled);
        // The argmin may tie, so compare achieved scores instead of indices.
        if let (Some(a), Some(b)) = (best_a, best_b) {
            let sa = weights.scores(&costs)[a];
            let sb = weights.scores(&scaled)[b];
            prop_assert!((sa - sb).abs() < 1e-9, "{sa} vs {sb}");
        }
    }

    /// Spacing is zero for two-point fronts and finite otherwise.
    #[test]
    fn spacing_sanity(costs in cost_vecs(2, 2..12)) {
        if let Some(s) = spacing(&costs) {
            prop_assert!(s.is_finite());
            prop_assert!(s >= 0.0);
        }
        prop_assert_eq!(spacing(&costs[..1]), None);
    }
}
