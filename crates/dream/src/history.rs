//! Execution history: the training data every estimator learns from.
//!
//! IReS records one [`Observation`] per executed operator/plan: the feature
//! vector `x` (sizes of the input tables, number of VMs per cloud, …) and the
//! measured cost vector `c` (execution time, monetary cost, …). Observations
//! are kept in arrival order so "the latest m" — the quantity Algorithm 1
//! reasons about — is just a suffix.

use crate::estimator::EstimationError;
use serde::{Deserialize, Serialize};

/// One executed-plan measurement: features and the observed costs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Observation {
    /// Independent variables `x₁..x_L` of Eq. 5 (data sizes, node counts, …).
    pub features: Vec<f64>,
    /// One observed value per cost metric (time, money, …).
    pub costs: Vec<f64>,
}

impl Observation {
    /// Builds an observation; both slices are copied.
    pub fn new(features: &[f64], costs: &[f64]) -> Self {
        Observation {
            features: features.to_vec(),
            costs: costs.to_vec(),
        }
    }
}

/// Arrival-ordered training history with fixed feature/metric arity.
///
/// The oldest observation sits at index 0; [`History::latest`] returns the
/// most recent `m` — the "new training set" of the paper's Figure 2.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct History {
    n_features: usize,
    n_metrics: usize,
    observations: Vec<Observation>,
    /// Optional retention bound; `None` keeps everything.
    capacity: Option<usize>,
}

impl History {
    /// Creates an empty history for `n_features` regressors and `n_metrics`
    /// cost metrics, retaining all observations.
    pub fn new(n_features: usize, n_metrics: usize) -> Self {
        History {
            n_features,
            n_metrics,
            observations: Vec::new(),
            capacity: None,
        }
    }

    /// Like [`History::new`] but discarding the oldest observations beyond
    /// `capacity` (the "observation window" of the IReS baselines).
    pub fn with_capacity_bound(n_features: usize, n_metrics: usize, capacity: usize) -> Self {
        History {
            n_features,
            n_metrics,
            observations: Vec::new(),
            capacity: Some(capacity),
        }
    }

    /// Number of regressors `L`.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of cost metrics `N`.
    pub fn n_metrics(&self) -> usize {
        self.n_metrics
    }

    /// Number of stored observations `M`.
    pub fn len(&self) -> usize {
        self.observations.len()
    }

    /// True when no observation has been recorded.
    pub fn is_empty(&self) -> bool {
        self.observations.is_empty()
    }

    /// The minimum window DREAM may fit on: `L + 2` (paper, Section 3).
    pub fn minimum_window(&self) -> usize {
        self.n_features + 2
    }

    /// Appends an observation, evicting the oldest if a capacity bound is set.
    ///
    /// Fails when the observation arity does not match the history schema.
    pub fn push(&mut self, obs: Observation) -> Result<(), EstimationError> {
        self.check_arity(obs.features.len(), obs.costs.len())?;
        self.observations.push(obs);
        if let Some(cap) = self.capacity {
            if self.observations.len() > cap {
                let excess = self.observations.len() - cap;
                self.observations.drain(..excess);
            }
        }
        Ok(())
    }

    fn check_arity(&self, features: usize, costs: usize) -> Result<(), EstimationError> {
        if features != self.n_features || costs != self.n_metrics {
            return Err(EstimationError::ArityMismatch {
                expected_features: self.n_features,
                got_features: features,
                expected_metrics: self.n_metrics,
                got_metrics: costs,
            });
        }
        Ok(())
    }

    /// [`History::push`] from raw slices. A full bounded history reuses
    /// the evicted observation's buffers, so it allocates nothing.
    pub fn record(&mut self, features: &[f64], costs: &[f64]) -> Result<(), EstimationError> {
        let full = matches!(self.capacity, Some(cap) if cap > 0 && self.observations.len() >= cap);
        if !full {
            return self.push(Observation::new(features, costs));
        }
        self.check_arity(features.len(), costs.len())?;
        self.observations.rotate_left(1);
        if let Some(newest) = self.observations.last_mut() {
            newest.features.copy_from_slice(features);
            newest.costs.copy_from_slice(costs);
        }
        Ok(())
    }

    /// All observations, oldest first.
    pub fn all(&self) -> &[Observation] {
        &self.observations
    }

    /// The latest `m` observations (or all if fewer exist), oldest first.
    pub fn latest(&self, m: usize) -> &[Observation] {
        let n = self.observations.len();
        let start = n.saturating_sub(m);
        &self.observations[start..]
    }

    /// Target values of metric `k` over a window, in window order.
    pub fn targets_of(window: &[Observation], metric: usize) -> Vec<f64> {
        window.iter().map(|o| o.costs[metric]).collect()
    }

    /// Drops every stored observation, keeping the schema.
    pub fn clear(&mut self) {
        self.observations.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(x: f64, c: f64) -> Observation {
        Observation::new(&[x, x + 1.0], &[c])
    }

    #[test]
    fn push_and_len() {
        let mut h = History::new(2, 1);
        assert!(h.is_empty());
        h.push(obs(1.0, 10.0)).unwrap();
        h.push(obs(2.0, 20.0)).unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h.n_features(), 2);
        assert_eq!(h.n_metrics(), 1);
    }

    #[test]
    fn arity_is_enforced() {
        let mut h = History::new(2, 1);
        let bad = Observation::new(&[1.0], &[1.0]);
        assert!(matches!(
            h.push(bad),
            Err(EstimationError::ArityMismatch { .. })
        ));
        let bad_metrics = Observation::new(&[1.0, 2.0], &[1.0, 2.0]);
        assert!(h.push(bad_metrics).is_err());
    }

    #[test]
    fn latest_returns_suffix_in_order() {
        let mut h = History::new(2, 1);
        for i in 0..5 {
            h.push(obs(i as f64, i as f64 * 10.0)).unwrap();
        }
        let w = h.latest(2);
        assert_eq!(w.len(), 2);
        assert_eq!(w[0].costs[0], 30.0);
        assert_eq!(w[1].costs[0], 40.0);
        // Requesting more than available returns everything.
        assert_eq!(h.latest(99).len(), 5);
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut h = History::with_capacity_bound(2, 1, 3);
        for i in 0..5 {
            h.push(obs(i as f64, i as f64)).unwrap();
        }
        assert_eq!(h.len(), 3);
        assert_eq!(h.all()[0].costs[0], 2.0);
        assert_eq!(h.all()[2].costs[0], 4.0);
        // `record` into a full history evicts exactly as `push` does.
        let mut recorded = History::with_capacity_bound(2, 1, 3);
        for i in 0..5 {
            let o = obs(i as f64, i as f64);
            recorded.record(&o.features, &o.costs).unwrap();
        }
        assert_eq!(recorded.all(), h.all());
        assert!(recorded.record(&[1.0], &[1.0]).is_err());
        assert_eq!(recorded.all(), h.all(), "a rejected record changes nothing");
    }

    #[test]
    fn minimum_window_is_l_plus_2() {
        let h = History::new(4, 2);
        assert_eq!(h.minimum_window(), 6);
    }

    #[test]
    fn targets_extracts_metric_column() {
        let mut h = History::new(1, 2);
        h.record(&[1.0], &[10.0, 100.0]).unwrap();
        h.record(&[2.0], &[20.0, 200.0]).unwrap();
        let w = h.latest(2);
        assert_eq!(History::targets_of(w, 0), vec![10.0, 20.0]);
        assert_eq!(History::targets_of(w, 1), vec![100.0, 200.0]);
    }

    #[test]
    fn clear_keeps_schema() {
        let mut h = History::new(1, 1);
        h.record(&[1.0], &[1.0]).unwrap();
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.n_features(), 1);
    }
}
