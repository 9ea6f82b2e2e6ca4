//! Pareto-front extraction, fast non-dominated sort, crowding distance.
//!
//! These are the NSGA-II primitives (Deb et al. 2002) and also what the IReS
//! Multi-Objective Optimizer uses to turn a set of estimated plan-cost
//! vectors into a Pareto plan set.

use crate::dominance::{compare, pareto_dominates, Dominance};
use std::cmp::Ordering;

/// Total order on one objective that agrees with `<` wherever `<` decides:
/// `-0.0` and `0.0` tie (as they do in [`compare`]), and NaN — which `<`
/// cannot place — sorts where `f64::total_cmp` puts it: after `+∞` with the
/// sign bit clear, before `-∞` with it set.
fn objective_cmp(a: f64, b: f64) -> Ordering {
    (a + 0.0).total_cmp(&(b + 0.0))
}

/// Indices of the non-dominated cost vectors (the Pareto front), ascending.
///
/// Duplicated cost vectors are all kept — they do not dominate each other.
///
/// Sort-and-sweep: a vector can only be dominated by one that sorts
/// lexicographically before it, and then also by a front member, so each
/// vector is checked against the front built so far and never against the
/// whole input — `O(n log n)` for two objectives, `O(n log n + n·|front|)`
/// otherwise. A NaN coordinate never panics; it is neither better nor worse
/// than anything ([`compare`]), so dominance stops being transitive and
/// which NaN-bearing vectors are kept follows their sort position (where
/// `f64::total_cmp` puts a NaN).
pub fn pareto_front_indices(costs: &[Vec<f64>]) -> Vec<usize> {
    let points: Option<Vec<(f64, f64, usize)>> = costs
        .iter()
        .enumerate()
        .map(|(i, c)| match c[..] {
            [x, y] => Some((x, y, i)),
            _ => None,
        })
        .collect();
    let mut front = match points {
        Some(points) => two_objective_front(points),
        None => lexicographic_front(costs),
    };
    front.sort_unstable();
    front
}

/// The two-objective sweep over `(x, y, index)` points: once sorted by
/// `(x, y)`, every earlier point has an `x` no larger, so a point is
/// dominated exactly when the smallest `y` seen so far is smaller than its
/// own, or equal to it and first reached at a strictly smaller `x`.
fn two_objective_front(mut points: Vec<(f64, f64, usize)>) -> Vec<usize> {
    points.sort_unstable_by(|a, b| {
        objective_cmp(a.0, b.0)
            .then(objective_cmp(a.1, b.1))
            .then(a.2.cmp(&b.2))
    });
    let mut front = Vec::new();
    // The earliest of the points with the smallest `y` so far.
    let mut lowest: Option<(f64, f64)> = None;
    for &(x, y, i) in &points {
        if !lowest.is_some_and(|(lx, ly)| ly < y || (ly == y && lx < x)) {
            front.push(i);
        }
        if lowest.is_none_or(|(_, ly)| y < ly) {
            lowest = Some((x, y));
        }
    }
    front
}

/// Any arity: visit in lexicographic order, keep what no kept vector
/// dominates.
fn lexicographic_front(costs: &[Vec<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_unstable_by(|&a, &b| {
        costs[a]
            .iter()
            .zip(&costs[b])
            .map(|(&x, &y)| objective_cmp(x, y))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
            .then(a.cmp(&b))
    });
    let mut front: Vec<usize> = Vec::new();
    for i in order {
        if !front
            .iter()
            .any(|&f| pareto_dominates(&costs[f], &costs[i]))
        {
            front.push(i);
        }
    }
    front
}

/// Fast non-dominated sort: partitions indices into fronts `F₁, F₂, …` where
/// `F₁` is the Pareto front, `F₂` the front once `F₁` is removed, and so on.
///
/// Runs in `O(M·n²)` like the original formulation, comparing each pair
/// once.
pub fn fast_non_dominated_sort(costs: &[Vec<f64>]) -> Vec<Vec<usize>> {
    // Two objectives (every QEP cost vector) are compared from one flat
    // fixed-arity copy instead of through `n` separate heap rows.
    let pairs: Option<Vec<[f64; 2]>> = costs.iter().map(|c| c[..].try_into().ok()).collect();
    match pairs {
        Some(pairs) => sort_rows(&pairs),
        None => sort_rows(costs),
    }
}

fn sort_rows<R: AsRef<[f64]>>(rows: &[R]) -> Vec<Vec<usize>> {
    let n = rows.len();
    // Row `i` of `dominated` is the bit set of the indices `i` dominates;
    // counts[i] = #dominators of `i`.
    let words = n.div_ceil(64);
    let mut dominated = vec![0u64; n * words];
    let mut counts = vec![0usize; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let (winner, loser) = match compare(rows[i].as_ref(), rows[j].as_ref()) {
                Dominance::Dominates => (i, j),
                Dominance::DominatedBy => (j, i),
                Dominance::Equal | Dominance::Incomparable => continue,
            };
            dominated[winner * words + loser / 64] |= 1 << (loser % 64);
            counts[loser] += 1;
        }
    }
    let mut fronts: Vec<Vec<usize>> = Vec::new();
    let mut current: Vec<usize> = (0..n).filter(|&i| counts[i] == 0).collect();
    while !current.is_empty() {
        let mut next = Vec::new();
        for &i in &current {
            // Ascending `j`, the order the pair loop would have listed them.
            for (w, &word) in dominated[i * words..(i + 1) * words].iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let j = w * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    counts[j] -= 1;
                    if counts[j] == 0 {
                        next.push(j);
                    }
                }
            }
        }
        fronts.push(std::mem::replace(&mut current, next));
    }
    fronts
}

/// NSGA-II crowding distance of each member of one front.
///
/// Boundary members per objective get `f64::INFINITY`; inner members get the
/// sum of normalized neighbour gaps. Degenerate objectives (all equal)
/// contribute zero.
pub fn crowding_distance(front_costs: &[&[f64]]) -> Vec<f64> {
    let n = front_costs.len();
    let mut dist = vec![0.0; n];
    if n == 0 {
        return dist;
    }
    if n <= 2 {
        return vec![f64::INFINITY; n];
    }
    let m = front_costs[0].len();
    let mut order: Vec<usize> = (0..n).collect();
    for k in 0..m {
        order.sort_by(|&a, &b| {
            front_costs[a][k]
                .partial_cmp(&front_costs[b][k])
                .expect("NaN cost")
        });
        let lo = front_costs[order[0]][k];
        let hi = front_costs[order[n - 1]][k];
        dist[order[0]] = f64::INFINITY;
        dist[order[n - 1]] = f64::INFINITY;
        let range = hi - lo;
        if range <= 0.0 {
            continue;
        }
        for w in 1..(n - 1) {
            let gap = front_costs[order[w + 1]][k] - front_costs[order[w - 1]][k];
            dist[order[w]] += gap / range;
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    fn costs() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 5.0], // front 1
            vec![2.0, 3.0], // front 1
            vec![4.0, 1.0], // front 1
            vec![3.0, 4.0], // dominated by [2,3]
            vec![5.0, 5.0], // dominated by everything above
        ]
    }

    #[test]
    fn front_indices() {
        let f = pareto_front_indices(&costs());
        assert_eq!(f, vec![0, 1, 2]);
    }

    #[test]
    fn duplicates_stay_on_front() {
        let cs = vec![vec![1.0, 1.0], vec![1.0, 1.0], vec![2.0, 2.0]];
        assert_eq!(pareto_front_indices(&cs), vec![0, 1]);
    }

    #[test]
    fn sort_produces_ordered_fronts() {
        let fronts = fast_non_dominated_sort(&costs());
        assert_eq!(fronts.len(), 3);
        let mut f0 = fronts[0].clone();
        f0.sort_unstable();
        assert_eq!(f0, vec![0, 1, 2]);
        assert_eq!(fronts[1], vec![3]);
        assert_eq!(fronts[2], vec![4]);
    }

    #[test]
    fn sort_empty_and_single() {
        assert!(fast_non_dominated_sort(&[]).is_empty());
        let fronts = fast_non_dominated_sort(&[vec![1.0]]);
        assert_eq!(fronts, vec![vec![0]]);
    }

    #[test]
    fn every_front_is_mutually_non_dominated() {
        let cs: Vec<Vec<f64>> = (0..30)
            .map(|i| {
                let x = (i as f64 * 0.7).sin().abs() * 10.0;
                let y = (i as f64 * 1.3).cos().abs() * 10.0;
                vec![x, y]
            })
            .collect();
        for front in fast_non_dominated_sort(&cs) {
            for &i in &front {
                for &j in &front {
                    assert!(
                        !crate::dominance::pareto_dominates(&cs[i], &cs[j]),
                        "front member {i} dominates {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn crowding_boundaries_are_infinite() {
        let cs = [
            vec![1.0, 5.0],
            vec![2.0, 3.0],
            vec![3.0, 2.0],
            vec![4.0, 1.0],
        ];
        let refs: Vec<&[f64]> = cs.iter().map(|c| c.as_slice()).collect();
        let d = crowding_distance(&refs);
        assert!(d[0].is_infinite());
        assert!(d[3].is_infinite());
        assert!(d[1].is_finite() && d[1] > 0.0);
        assert!(d[2].is_finite() && d[2] > 0.0);
    }

    #[test]
    fn crowding_small_fronts() {
        let cs = [vec![1.0, 2.0]];
        let refs: Vec<&[f64]> = cs.iter().map(|c| c.as_slice()).collect();
        assert_eq!(crowding_distance(&refs), vec![f64::INFINITY]);
        assert!(crowding_distance(&[]).is_empty());
    }

    #[test]
    fn crowding_degenerate_objective() {
        // Second objective constant: only the first contributes.
        let cs = [
            vec![1.0, 7.0],
            vec![2.0, 7.0],
            vec![5.0, 7.0],
        ];
        let refs: Vec<&[f64]> = cs.iter().map(|c| c.as_slice()).collect();
        let d = crowding_distance(&refs);
        assert!(d[0].is_infinite() && d[2].is_infinite());
        assert!((d[1] - 1.0).abs() < 1e-12); // (5-1)/(5-1)
    }
}
