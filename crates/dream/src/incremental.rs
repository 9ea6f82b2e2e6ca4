//! Incremental Algorithm 1: window growth without refitting from scratch.
//!
//! Algorithm 1 evaluates windows `m = L+2, L+3, …` over the *most recent*
//! observations; consecutive windows differ by exactly one (older)
//! observation. Everything the standardized ridge fit needs is a sum over
//! the window. Shift every row by the window's newest observation
//! `(x⁰, c⁰)`, so `a = (1, x − x⁰)` and `c̃ = c − c⁰`, and keep
//!
//! ```text
//! G  = Σ a·aᵀ   ((L+1)×(L+1); G₀₀ = m, G₀ᵢ = Sᵢ)     G  += a·aᵀ
//! v  = Σ c̃·a    ((L+1) vector; v₀ = Σc̃)              v  += c̃·a
//! s₂ = Σ c̃²                                           s₂ += c̃²
//! ```
//!
//! From them, with `σᵢ² = (Gᵢᵢ − Sᵢ²/m)/m` (clamped as
//! [`crate::mlr`]'s ridge clamps it):
//!
//! ```text
//! (ZᵀZ + λ·m·I)·w = Zᵀy_c    ZᵀZᵢⱼ = (Gᵢⱼ − SᵢSⱼ/m)/(σᵢσⱼ)   Zᵀy_cᵢ = (vᵢ − Sᵢv₀/m)/σᵢ
//! γᵢ = wᵢ/σᵢ    γ₀ = (v₀ − Σ γᵢSᵢ)/m
//! SSE = s₂ − 2·γᵀv + γᵀGγ    SST = s₂ − v₀²/m
//! ```
//!
//! and the raw intercept is `c⁰ + γ₀ − Σ γᵢx⁰ᵢ`. The shift keeps the sums
//! at the scale of the window's spread rather than of features that are row
//! counts near 10⁶, and a constant column sums to exactly zero.
//!
//! One growth round is a rank-1 update and an `L×L` solve, `O(L³)`, instead
//! of an `O(m·L²)` refit, so the whole loop drops from `O(Mmax²·L²)` to
//! `O(Mmax·L³)` (the `mlr_fit` bench group `dream_algorithm1`).
//!
//! Produces the same windows, rounds and models as
//! [`crate::dream::estimate_cost_value`] up to floating-point associativity;
//! `tests/proptests.rs` pins coefficients, predictions and `R²` to 1e-9
//! relative.

use crate::dream::{walk_windows, DreamConfig, DreamOutcome, RIDGE_LAMBDA};
use crate::estimator::EstimationError;
use crate::history::{History, Observation};
use crate::mlr::{self, MlrModel};
use midas_linalg::{Cholesky, Matrix};

/// Shifted running sums over the newest `m` observations.
struct WindowSums {
    /// The newest observation's features: the shift origin `x⁰`.
    x0: Vec<f64>,
    /// The newest observation's costs: the shift origin `c⁰`.
    c0: Vec<f64>,
    /// `G = Σ a·aᵀ`, upper triangle.
    gram: Matrix,
    /// Per metric, `v = Σ c̃·a`.
    v: Vec<Vec<f64>>,
    /// Per metric, `s₂ = Σ c̃²`.
    s2: Vec<f64>,
    /// Observations absorbed.
    m: usize,
    /// Scratch for the shifted row `a`.
    row: Vec<f64>,
}

impl WindowSums {
    fn new(n_features: usize, n_metrics: usize) -> Self {
        let p = n_features + 1;
        WindowSums {
            x0: Vec::new(),
            c0: Vec::new(),
            gram: Matrix::zeros(p, p),
            v: vec![vec![0.0; p]; n_metrics],
            s2: vec![0.0; n_metrics],
            m: 0,
            row: Vec::with_capacity(p),
        }
    }

    /// Folds in the next-older observation.
    fn absorb(&mut self, obs: &Observation) {
        if self.m == 0 {
            self.x0.clone_from(&obs.features);
            self.c0.clone_from(&obs.costs);
        }
        self.row.clear();
        self.row.push(1.0);
        self.row
            .extend(obs.features.iter().zip(&self.x0).map(|(x, x0)| x - x0));
        let a = &self.row;
        for i in 0..a.len() {
            for j in i..a.len() {
                self.gram[(i, j)] += a[i] * a[j];
            }
        }
        for (k, v) in self.v.iter_mut().enumerate() {
            let c = obs.costs[k] - self.c0[k];
            for (vi, ai) in v.iter_mut().zip(a) {
                *vi += c * ai;
            }
            self.s2[k] += c * c;
        }
        self.m += 1;
    }

    /// `Gᵢⱼ` from the upper triangle.
    fn g(&self, i: usize, j: usize) -> f64 {
        self.gram[(i.min(j), i.max(j))]
    }

    /// Every metric's ridge model on the current window.
    fn fit(&self) -> Result<Vec<MlrModel>, EstimationError> {
        let p = self.gram.rows();
        let l = p - 1;
        let mf = self.m as f64;
        let numeric = |e: midas_linalg::LinalgError| EstimationError::Numeric(e.to_string());

        // Column sums Sᵢ (of the shifted features) and stds.
        let sums: Vec<f64> = (1..p).map(|i| self.g(0, i)).collect();
        let stds: Vec<f64> = (0..l)
            .map(|i| {
                let var = (self.g(i + 1, i + 1) - sums[i] * sums[i] / mf) / mf;
                var.max(0.0).sqrt().max(1e-12)
            })
            .collect();
        let mut zz = Matrix::zeros(l, l);
        for i in 0..l {
            for j in i..l {
                let z = (self.g(i + 1, j + 1) - sums[i] * sums[j] / mf) / (stds[i] * stds[j]);
                zz[(i, j)] = z;
                zz[(j, i)] = z;
            }
            zz[(i, i)] += RIDGE_LAMBDA * mf;
        }
        let chol = Cholesky::decompose(&zz).map_err(numeric)?;

        self.v
            .iter()
            .zip(&self.s2)
            .zip(&self.c0)
            .map(|((v, &s2), &c0)| {
                let rhs: Vec<f64> = (0..l)
                    .map(|i| (v[i + 1] - sums[i] * v[0] / mf) / stds[i])
                    .collect();
                let w = chol.solve(&rhs).map_err(numeric)?;
                // γ in the shifted coordinates.
                let mut gamma = vec![0.0; p];
                for i in 0..l {
                    gamma[i + 1] = w[i] / stds[i];
                }
                gamma[0] = (v[0] - (0..l).map(|i| gamma[i + 1] * sums[i]).sum::<f64>()) / mf;
                let gtv: f64 = gamma.iter().zip(v).map(|(g, v)| g * v).sum();
                let gtgg: f64 = (0..p)
                    .map(|i| gamma[i] * (0..p).map(|j| self.g(i, j) * gamma[j]).sum::<f64>())
                    .sum();
                let sse = (s2 - 2.0 * gtv + gtgg).max(0.0);
                let sst = (s2 - v[0] * v[0] / mf).max(0.0);
                // Back to the raw intercept.
                gamma[0] += c0 - (0..l).map(|i| gamma[i + 1] * self.x0[i]).sum::<f64>();
                Ok(MlrModel {
                    coefficients: gamma,
                    r_squared: mlr::r_squared(sse, sst, self.m),
                    sse,
                    sst,
                    n_samples: self.m,
                })
            })
            .collect()
    }
}

/// Incremental Algorithm 1: the windows, rounds and models of
/// [`crate::dream::estimate_cost_value`], from running sums.
pub fn estimate_cost_value_incremental(
    history: &History,
    config: &DreamConfig,
) -> Result<DreamOutcome, EstimationError> {
    let all = history.all();
    let mut sums = WindowSums::new(history.n_features(), history.n_metrics());
    walk_windows(history, config, |m| {
        while sums.m < m {
            sums.absorb(&all[all.len() - 1 - sums.m]);
        }
        sums.fit()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlr::SolveMethod;

    fn drifting_history(n: usize) -> History {
        let mut h = History::new(2, 2);
        let mut s = 42u64;
        for i in 0..n {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let noise = ((s % 2000) as f64 / 1000.0 - 1.0) * 2.0;
            let x = [i as f64, (i % 7) as f64 * 3.0];
            h.record(&x, &[10.0 + 2.0 * x[0] + x[1] + noise, 1.0 + 0.1 * x[0]])
                .expect("arity");
        }
        h
    }

    #[test]
    fn rejects_non_normal_equation_solvers() {
        // The online path solves the ridge problem of its window, not the
        // normal equations: on noisy data the two fits differ, and the
        // incremental models are the reference ridge refit's.
        let h = drifting_history(20);
        let cfg = DreamConfig::uniform(0.8, 2, 20);
        let out = estimate_cost_value_incremental(&h, &cfg).expect("fits");
        let window = h.latest(out.window);
        let feats: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
        let targets = History::targets_of(window, 0);
        let ridge = mlr::fit(&feats, &targets, SolveMethod::Ridge(RIDGE_LAMBDA)).expect("fits");
        let ols = mlr::fit(&feats, &targets, SolveMethod::NormalEquations).expect("fits");
        for (x, y) in out.models[0].coefficients.iter().zip(&ridge.coefficients) {
            assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        }
        assert!((out.models[0].r_squared - ridge.r_squared).abs() < 1e-9);
        assert!(
            ols.r_squared > ridge.r_squared,
            "ridge shrinks the in-sample fit"
        );
    }

    #[test]
    fn not_enough_data_reported() {
        let mut h = History::new(2, 1);
        h.record(&[1.0, 2.0], &[1.0]).expect("arity");
        let cfg = DreamConfig::uniform(0.8, 1, 10);
        assert!(matches!(
            estimate_cost_value_incremental(&h, &cfg),
            Err(EstimationError::NotEnoughData { .. })
        ));
    }
}
