//! Bagging predictors (Breiman, 1996) — one of the IReS model families.
//!
//! Trains an ensemble of regression trees on bootstrap resamples of the
//! training window and predicts their mean. Randomness comes from a fixed
//! seed so experiments are reproducible.

use crate::regressor::Regressor;
use crate::tree::{RegressionTree, TreeConfig, TreeScratch};
use midas_dream::EstimationError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the bagging ensemble.
#[derive(Debug, Clone, Copy)]
pub struct BaggingConfig {
    /// Number of bootstrap replicates (trees).
    pub n_estimators: usize,
    /// Configuration of each base tree.
    pub tree: TreeConfig,
    /// RNG seed for the bootstrap resampling.
    pub seed: u64,
}

impl Default for BaggingConfig {
    fn default() -> Self {
        BaggingConfig {
            n_estimators: 20,
            tree: TreeConfig::default(),
            seed: 0x9e3779b97f4a7c15,
        }
    }
}

/// A bagged ensemble of regression trees.
#[derive(Debug, Clone)]
pub struct BaggingRegressor {
    config: BaggingConfig,
    trees: Vec<RegressionTree>,
}

impl BaggingRegressor {
    /// Unfitted ensemble with the given configuration.
    pub fn new(config: BaggingConfig) -> Self {
        BaggingRegressor {
            config,
            trees: Vec::new(),
        }
    }

    /// Default ensemble (20 depth-5 trees, fixed seed).
    pub fn default_ensemble() -> Self {
        Self::new(BaggingConfig::default())
    }

    /// Number of fitted trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }
}

impl Regressor for BaggingRegressor {
    fn family(&self) -> &'static str {
        "bagging"
    }

    fn min_samples(&self, _l: usize) -> usize {
        3
    }

    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<(), EstimationError> {
        if xs.len() < 3 || xs.len() != ys.len() {
            return Err(EstimationError::NotEnoughData {
                required: 3,
                available: xs.len().min(ys.len()),
            });
        }
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let n = xs.len();
        self.trees.clear();
        self.trees.reserve_exact(self.config.n_estimators);
        // One set of buffers serves every node of every tree.
        let mut scratch = TreeScratch::default();
        for _ in 0..self.config.n_estimators {
            // Bootstrap: n draws with replacement, which the tree trains
            // on in draw order.
            scratch.rows.clear();
            scratch.rows.extend((0..n).map(|_| rng.gen_range(0..n)));
            let mut tree = RegressionTree::new(self.config.tree);
            tree.fit_rows(xs, ys, &mut scratch)?;
            self.trees.push(tree);
        }
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, EstimationError> {
        if self.trees.is_empty() {
            return Err(EstimationError::NotFitted);
        }
        let mut sum = 0.0;
        for t in &self.trees {
            sum += t.predict(x)?;
        }
        Ok(sum / self.trees.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smooths_a_step_function() {
        let xs: Vec<Vec<f64>> = (0..30).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = (0..30).map(|i| if i < 15 { 2.0 } else { 8.0 }).collect();
        let mut bag = BaggingRegressor::default_ensemble();
        bag.fit(&refs, &ys).unwrap();
        assert_eq!(bag.n_trees(), 20);
        let low = bag.predict(&[3.0]).unwrap();
        let high = bag.predict(&[27.0]).unwrap();
        assert!(low < 4.0, "low region predicted {low}");
        assert!(high > 6.0, "high region predicted {high}");
    }

    #[test]
    fn deterministic_across_runs() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, (i * i) as f64]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = (0..20).map(|i| (i as f64).sqrt() * 3.0).collect();
        let mut a = BaggingRegressor::default_ensemble();
        let mut b = BaggingRegressor::default_ensemble();
        a.fit(&refs, &ys).unwrap();
        b.fit(&refs, &ys).unwrap();
        let pa = a.predict(&[7.0, 49.0]).unwrap();
        let pb = b.predict(&[7.0, 49.0]).unwrap();
        assert_eq!(pa, pb);
    }

    #[test]
    fn too_small_training_set() {
        let xs: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0]];
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let mut bag = BaggingRegressor::default_ensemble();
        assert!(bag.fit(&refs, &[1.0, 2.0]).is_err());
        assert!(bag.predict(&[1.0]).is_err());
    }
}
