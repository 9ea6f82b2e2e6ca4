//! Algorithm 2 — `BestInPareto`: final plan selection from a Pareto set.
//!
//! ```text
//! function BESTINPARETO(P, S, B)
//!     PB ← { p ∈ P | ∀n ≤ |B| : cn(p) ≤ Bn }
//!     if PB ≠ ∅: return argmin_{p ∈ PB} WeightSum(p, S)
//!     else:      return argmin_{p ∈ P } WeightSum(p, S)
//! ```
//!
//! `B` is the user's per-metric budget (constraints), `S` the weighted-sum
//! preferences of the user policy. When no plan satisfies every budget, the
//! paper falls back to the weighted-sum best of the whole Pareto set.

use crate::wsm::WeightedSumModel;

/// Per-metric upper bounds; `None` leaves a metric unconstrained.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Constraints {
    bounds: Vec<Option<f64>>,
}

impl Constraints {
    /// No constraints on any of `n_metrics` metrics.
    pub fn none(n_metrics: usize) -> Self {
        Constraints {
            bounds: vec![None; n_metrics],
        }
    }

    /// Constraints from explicit optional bounds.
    pub fn from_bounds(bounds: Vec<Option<f64>>) -> Self {
        Constraints { bounds }
    }

    /// Sets an upper bound for one metric (builder style).
    pub fn with_bound(mut self, metric: usize, bound: f64) -> Self {
        if metric >= self.bounds.len() {
            self.bounds.resize(metric + 1, None);
        }
        self.bounds[metric] = Some(bound);
        self
    }

    /// True when `costs` satisfies every bound.
    pub fn satisfied_by(&self, costs: &[f64]) -> bool {
        self.bounds
            .iter()
            .zip(costs.iter())
            .all(|(b, c)| b.is_none_or(|bound| *c <= bound))
    }

    /// The raw bounds.
    pub fn bounds(&self) -> &[Option<f64>] {
        &self.bounds
    }
}

/// Algorithm 2: picks the best plan index from `pareto_costs`.
///
/// Returns `None` only when `pareto_costs` is empty. The weighted-sum scores
/// are min–max normalized over whichever candidate subset is being ranked
/// (the budget-satisfying subset when non-empty, the full set otherwise).
/// The cost vectors are only read — rows may be borrowed (`&[f64]`) or owned.
pub fn best_in_pareto(
    pareto_costs: &[impl AsRef<[f64]>],
    weights: &WeightedSumModel,
    constraints: &Constraints,
) -> Option<usize> {
    if pareto_costs.is_empty() {
        return None;
    }
    let feasible: Vec<usize> = (0..pareto_costs.len())
        .filter(|&i| constraints.satisfied_by(pareto_costs[i].as_ref()))
        .collect();
    let pool: Vec<usize> = if feasible.is_empty() {
        (0..pareto_costs.len()).collect()
    } else {
        feasible
    };
    let subset: Vec<&[f64]> = pool.iter().map(|&i| pareto_costs[i].as_ref()).collect();
    weights.best_index(&subset).map(|k| pool[k])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn front() -> Vec<Vec<f64>> {
        vec![
            vec![1.0, 100.0], // fastest, most expensive
            vec![5.0, 40.0],
            vec![10.0, 10.0],
            vec![30.0, 2.0], // slowest, cheapest
        ]
    }

    #[test]
    fn unconstrained_follows_weights() {
        let wsm_time = WeightedSumModel::new(&[1.0, 0.0]);
        let wsm_money = WeightedSumModel::new(&[0.0, 1.0]);
        let none = Constraints::none(2);
        assert_eq!(best_in_pareto(&front(), &wsm_time, &none), Some(0));
        assert_eq!(best_in_pareto(&front(), &wsm_money, &none), Some(3));
    }

    #[test]
    fn budget_filters_candidates() {
        // Money budget of 20 rules out the two expensive plans.
        let wsm_time = WeightedSumModel::new(&[1.0, 0.0]);
        let budget = Constraints::none(2).with_bound(1, 20.0);
        assert_eq!(best_in_pareto(&front(), &wsm_time, &budget), Some(2));
    }

    #[test]
    fn infeasible_budget_falls_back_to_whole_set() {
        // Nothing satisfies time <= 0.5; Algorithm 2 then ranks the full set.
        let wsm = WeightedSumModel::new(&[0.5, 0.5]);
        let impossible = Constraints::none(2).with_bound(0, 0.5);
        let got = best_in_pareto(&front(), &wsm, &impossible);
        let unconstrained = best_in_pareto(&front(), &wsm, &Constraints::none(2));
        assert_eq!(got, unconstrained);
    }

    #[test]
    fn empty_front_returns_none() {
        let wsm = WeightedSumModel::new(&[1.0]);
        assert_eq!(
            best_in_pareto(&[] as &[Vec<f64>], &wsm, &Constraints::none(1)),
            None
        );
    }

    #[test]
    fn constraints_builder_and_check() {
        let c = Constraints::none(1).with_bound(2, 7.0);
        assert_eq!(c.bounds().len(), 3);
        assert!(c.satisfied_by(&[100.0, 100.0, 7.0]));
        assert!(!c.satisfied_by(&[0.0, 0.0, 7.1]));
        let all = Constraints::from_bounds(vec![Some(1.0), None]);
        assert!(all.satisfied_by(&[1.0, 999.0]));
        assert!(!all.satisfied_by(&[1.1, 0.0]));
    }

    #[test]
    fn single_feasible_plan_wins_regardless_of_weights() {
        let wsm = WeightedSumModel::new(&[1.0, 0.0]);
        let budget = Constraints::none(2).with_bound(0, 31.0).with_bound(1, 3.0);
        assert_eq!(best_in_pareto(&front(), &wsm, &budget), Some(3));
    }
}
