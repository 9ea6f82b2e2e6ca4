//! The Weighted Sum Model — the paper's optimization baseline.
//!
//! The original IReS approach (and Helff & Orazio 2016, the paper's ref \[17\])
//! scalarizes the cost vector with user weights and minimizes the scalar.
//! Section 2.6 lists its drawbacks: a weight change forces a whole new
//! optimization run, and nearby weights can produce wildly different plans.
//! Figure 3 contrasts this pipeline against the Pareto/GA one; the
//! `repro_fig3` binary uses both sides of this module.

use crate::nsga2::{MooProblem, Nsga2Config};
use crate::select::{best_in_pareto, Constraints};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Computes the raw weighted sum `Σ wᵢ·cᵢ` without normalization.
pub fn weighted_sum(costs: &[f64], weights: &[f64]) -> f64 {
    debug_assert_eq!(costs.len(), weights.len());
    costs.iter().zip(weights.iter()).map(|(c, w)| c * w).sum()
}

/// A weighted-sum scalarizer with min–max normalization over a candidate set.
///
/// Normalization matters: execution time (seconds) and monetary cost
/// (dollars) live on different scales, and the WSM literature normalizes
/// each objective to `[0,1]` over the candidate set before weighting.
#[derive(Debug, Clone)]
pub struct WeightedSumModel {
    weights: Vec<f64>,
}

impl WeightedSumModel {
    /// Builds a model; weights are normalized to sum to 1.
    ///
    /// Panics when `weights` is empty or sums to zero.
    pub fn new(weights: &[f64]) -> Self {
        let total: f64 = weights.iter().sum();
        assert!(
            !weights.is_empty() && total > 0.0,
            "weights must be non-empty with positive sum"
        );
        WeightedSumModel {
            weights: weights.iter().map(|w| w / total).collect(),
        }
    }

    /// The normalized weights.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Scores every candidate: min–max normalize each objective over the
    /// set, then apply the weighted sum. Returns one score per candidate.
    pub fn scores(&self, candidates: &[impl AsRef<[f64]>]) -> Vec<f64> {
        if candidates.is_empty() {
            return Vec::new();
        }
        let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); self.weights.len()];
        for c in candidates {
            Self::widen(&mut ranges, c.as_ref());
        }
        candidates
            .iter()
            .map(|c| self.score(c.as_ref(), &ranges))
            .collect()
    }

    /// Objectives whose ranges [`crate::best_in_pareto`] keeps on the
    /// stack; a model with more spills them into one allocation.
    pub(crate) const INLINE_OBJECTIVES: usize = 4;

    /// Widens each objective's `(lo, hi)` range to cover `costs`.
    pub(crate) fn widen(ranges: &mut [(f64, f64)], costs: &[f64]) {
        for (k, (lo, hi)) in ranges.iter_mut().enumerate() {
            *lo = lo.min(costs[k]);
            *hi = hi.max(costs[k]);
        }
    }

    /// One candidate's score: each objective min–max normalized over its
    /// `(lo, hi)` range in `ranges` (0 when the range is empty), then the
    /// weighted sum.
    pub(crate) fn score(&self, costs: &[f64], ranges: &[(f64, f64)]) -> f64 {
        (0..self.weights.len())
            .map(|k| {
                let (lo, hi) = ranges[k];
                let range = hi - lo;
                let z = if range <= 0.0 {
                    0.0
                } else {
                    (costs[k] - lo) / range
                };
                z * self.weights[k]
            })
            .sum()
    }

    /// Index of the best (lowest-score) candidate, the first of equal
    /// minima; `None` when empty. Algorithm 2 with no budget.
    pub fn best_index(&self, candidates: &[impl AsRef<[f64]>]) -> Option<usize> {
        best_in_pareto(candidates, self, &Constraints::none(self.weights.len()))
    }
}

/// Outcome of a WSM-driven single-objective GA run (the left branch of
/// Figure 3: optimize the scalarized objective directly).
#[derive(Debug, Clone)]
pub struct WsmGaOutcome<G> {
    /// The best genome found.
    pub genome: G,
    /// Its (vector) costs.
    pub costs: Vec<f64>,
    /// Its scalar score under the run's weights.
    pub score: f64,
    /// Objective evaluations spent.
    pub evaluations: usize,
}

/// Runs a single-objective GA on `weighted_sum(costs, weights)` over the same
/// problem NSGA-II would search.
///
/// This is the "Multi-Objective Optimization based on Weighted Sum Model"
/// branch of Figure 3: every weight change requires re-running this whole
/// loop, while the NSGA-II branch reuses its Pareto set.
pub fn optimize_scalarized<P: MooProblem>(
    problem: &P,
    weights: &[f64],
    config: Nsga2Config,
) -> WsmGaOutcome<P::Genome> {
    assert_eq!(weights.len(), problem.n_objectives());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let pop_size = config.population.max(2);
    let mut evaluations = 0usize;

    let mut genomes: Vec<P::Genome> = (0..pop_size)
        .map(|_| problem.random_genome(&mut rng))
        .collect();
    let mut costs: Vec<Vec<f64>> = genomes
        .iter()
        .map(|g| {
            evaluations += 1;
            problem.evaluate(g)
        })
        .collect();
    let mut scores: Vec<f64> = costs.iter().map(|c| weighted_sum(c, weights)).collect();

    for _ in 0..config.generations {
        let mut children = Vec::with_capacity(pop_size);
        for _ in 0..pop_size {
            let a = tournament(&scores, &mut rng);
            let b = tournament(&scores, &mut rng);
            let mut child = if rng.gen_bool(config.crossover_prob) {
                problem.crossover(&genomes[a], &genomes[b], &mut rng)
            } else {
                genomes[a].clone()
            };
            if rng.gen_bool(config.mutation_prob) {
                problem.mutate(&mut child, &mut rng);
            }
            children.push(child);
        }
        for child in children {
            let c = problem.evaluate(&child);
            evaluations += 1;
            let s = weighted_sum(&c, weights);
            // Steady-state replacement of the current worst.
            let (worst, _) = scores
                .iter()
                .enumerate()
                .max_by(|(_, a), (_, b)| a.partial_cmp(b).expect("NaN"))
                .expect("population non-empty");
            if s < scores[worst] {
                genomes[worst] = child;
                costs[worst] = c;
                scores[worst] = s;
            }
        }
    }

    let (best, _) = scores
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| a.partial_cmp(b).expect("NaN"))
        .expect("population non-empty");
    WsmGaOutcome {
        genome: genomes[best].clone(),
        costs: costs[best].clone(),
        score: scores[best],
        evaluations,
    }
}

fn tournament(scores: &[f64], rng: &mut StdRng) -> usize {
    let a = rng.gen_range(0..scores.len());
    let b = rng.gen_range(0..scores.len());
    if scores[a] <= scores[b] {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nsga2::IntBoxProblem;

    #[test]
    fn raw_weighted_sum() {
        assert_eq!(weighted_sum(&[2.0, 3.0], &[0.5, 1.0]), 4.0);
    }

    #[test]
    fn weights_are_normalized() {
        let wsm = WeightedSumModel::new(&[2.0, 2.0]);
        assert_eq!(wsm.weights(), &[0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive sum")]
    fn zero_weights_panic() {
        let _ = WeightedSumModel::new(&[0.0, 0.0]);
    }

    #[test]
    fn best_index_picks_the_scalar_optimum() {
        let candidates = vec![
            vec![10.0, 1.0], // fast? no: slow-cheap
            vec![1.0, 10.0], // fast-expensive
            vec![5.0, 5.0],  // middle
        ];
        // All weight on objective 0: candidate 1 wins.
        let wsm = WeightedSumModel::new(&[1.0, 0.0]);
        assert_eq!(wsm.best_index(&candidates), Some(1));
        // All weight on objective 1: candidate 0 wins.
        let wsm = WeightedSumModel::new(&[0.0, 1.0]);
        assert_eq!(wsm.best_index(&candidates), Some(0));
        assert_eq!(wsm.best_index(&[] as &[Vec<f64>]), None);
    }

    #[test]
    fn normalization_makes_scales_comparable() {
        // Objective 0 in thousands, objective 1 in units; equal weights must
        // not be swamped by the big scale.
        let candidates = vec![vec![1000.0, 9.0], vec![9000.0, 1.0], vec![5000.0, 5.0]];
        let wsm = WeightedSumModel::new(&[0.5, 0.5]);
        let scores = wsm.scores(&candidates);
        // Symmetric corners should tie (both are 0.5 after normalization).
        assert!((scores[0] - scores[1]).abs() < 1e-12);
        assert!((scores[2] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn scalarized_ga_finds_the_weighted_optimum() {
        // Cost = (x, 20 - x): the scalar optimum sits at an extreme that
        // depends on the weights.
        let p = IntBoxProblem::new(vec![21], 2, |g| {
            let x = g[0] as f64;
            vec![x, 20.0 - x]
        });
        let cfg = Nsga2Config {
            population: 20,
            generations: 20,
            ..Nsga2Config::default()
        };
        let out = optimize_scalarized(&p, &[0.9, 0.1], cfg);
        assert_eq!(out.genome, vec![0], "weights favour objective 0");
        let out = optimize_scalarized(&p, &[0.1, 0.9], cfg);
        assert_eq!(out.genome, vec![20], "weights favour objective 1");
        assert!(out.evaluations > 0);
    }
}
