//! Multilayer perceptron regressor — the WEKA `MultilayerPerceptron`
//! stand-in of the IReS Modelling module.
//!
//! One hidden tanh layer, linear output, full-batch gradient descent with a
//! fixed epoch budget. Inputs and targets are standardized (the features are
//! table sizes spanning orders of magnitude). Weight init and training are
//! seeded, so fits are reproducible.

use crate::regressor::{Regressor, ScalarScaler, Standardizer};
use midas_dream::EstimationError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Tuning knobs for the MLP.
#[derive(Debug, Clone, Copy)]
pub struct MlpConfig {
    /// Hidden-layer width.
    pub hidden: usize,
    /// Number of full-batch gradient steps.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// L2 weight decay.
    pub weight_decay: f64,
    /// RNG seed for weight initialization.
    pub seed: u64,
}

impl Default for MlpConfig {
    fn default() -> Self {
        MlpConfig {
            hidden: 8,
            epochs: 400,
            learning_rate: 0.05,
            weight_decay: 1e-4,
            seed: 0x5eed_cafe,
        }
    }
}

/// A single-hidden-layer perceptron for scalar regression.
#[derive(Debug, Clone)]
pub struct MlpRegressor {
    config: MlpConfig,
    /// `hidden x (l+1)` weights (bias folded in as last column).
    w1: Vec<f64>,
    /// `hidden + 1` output weights (bias last).
    w2: Vec<f64>,
    n_features: usize,
    x_scaler: Option<Standardizer>,
    y_scaler: Option<ScalarScaler>,
}

impl MlpRegressor {
    /// Unfitted network with the given configuration.
    pub fn new(config: MlpConfig) -> Self {
        MlpRegressor {
            config,
            w1: Vec::new(),
            w2: Vec::new(),
            n_features: 0,
            x_scaler: None,
            y_scaler: None,
        }
    }

    /// Default network (8 hidden units, 400 epochs).
    pub fn default_network() -> Self {
        Self::new(MlpConfig::default())
    }

    /// Forward pass on standardized input: writes the hidden activations
    /// into `act` (one slot per hidden unit) and returns the output.
    fn forward(&self, z: &[f64], act: &mut [f64]) -> f64 {
        let h = self.config.hidden;
        let l = self.n_features;
        for j in 0..h {
            let mut s = self.w1[j * (l + 1) + l]; // bias
            for (i, zi) in z.iter().enumerate() {
                s += self.w1[j * (l + 1) + i] * zi;
            }
            act[j] = s.tanh();
        }
        let mut out = self.w2[h]; // bias
        for j in 0..h {
            out += self.w2[j] * act[j];
        }
        out
    }
}

impl Regressor for MlpRegressor {
    fn family(&self) -> &'static str {
        "mlp"
    }

    fn min_samples(&self, _l: usize) -> usize {
        // WEKA's MultilayerPerceptron happily trains on a handful of rows —
        // and extrapolates erratically from them. Keeping that behaviour is
        // deliberate: it is what makes the BML baseline unstable on the
        // smallest observation windows (paper Tables 3/4).
        3
    }

    fn fit(&mut self, xs: &[&[f64]], ys: &[f64]) -> Result<(), EstimationError> {
        let n = xs.len();
        if n < 3 || n != ys.len() {
            return Err(EstimationError::NotEnoughData {
                required: 3,
                available: n.min(ys.len()),
            });
        }
        let l = xs[0].len();
        self.n_features = l;
        let x_scaler = Standardizer::fit(xs);
        let y_scaler = ScalarScaler::fit(ys);
        let zs: Vec<Vec<f64>> = xs.iter().map(|x| x_scaler.transform(x)).collect();
        let ts: Vec<f64> = ys.iter().map(|&y| y_scaler.transform(y)).collect();

        let h = self.config.hidden;
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        // Xavier-ish uniform init.
        let bound1 = (6.0 / (l + h) as f64).sqrt();
        let bound2 = (6.0 / (h + 1) as f64).sqrt();
        self.w1 = (0..h * (l + 1))
            .map(|_| rng.gen_range(-bound1..bound1))
            .collect();
        self.w2 = (0..h + 1).map(|_| rng.gen_range(-bound2..bound2)).collect();

        let lr = self.config.learning_rate / n as f64;
        let decay = self.config.weight_decay;
        let mut g1 = vec![0.0; self.w1.len()];
        let mut g2 = vec![0.0; self.w2.len()];
        // One activation buffer for every sample of every epoch.
        let mut act = vec![0.0; h];

        for _ in 0..self.config.epochs {
            g1.iter_mut().for_each(|g| *g = 0.0);
            g2.iter_mut().for_each(|g| *g = 0.0);
            for (z, &t) in zs.iter().zip(ts.iter()) {
                let out = self.forward(z, &mut act);
                let err = out - t; // d(0.5*err²)/d out
                // Output layer gradients.
                for j in 0..h {
                    g2[j] += err * act[j];
                }
                g2[h] += err;
                // Hidden layer gradients through tanh'.
                for j in 0..h {
                    let d = err * self.w2[j] * (1.0 - act[j] * act[j]);
                    let row = j * (l + 1);
                    for (i, zi) in z.iter().enumerate() {
                        g1[row + i] += d * zi;
                    }
                    g1[row + l] += d;
                }
            }
            for (w, g) in self.w1.iter_mut().zip(g1.iter()) {
                *w -= lr * (g + decay * *w);
            }
            for (w, g) in self.w2.iter_mut().zip(g2.iter()) {
                *w -= lr * (g + decay * *w);
            }
        }

        self.x_scaler = Some(x_scaler);
        self.y_scaler = Some(y_scaler);
        Ok(())
    }

    fn predict(&self, x: &[f64]) -> Result<f64, EstimationError> {
        let xsc = self.x_scaler.as_ref().ok_or(EstimationError::NotFitted)?;
        let ysc = self.y_scaler.as_ref().ok_or(EstimationError::NotFitted)?;
        if x.len() != self.n_features {
            return Err(EstimationError::FeatureArity {
                expected: self.n_features,
                got: x.len(),
            });
        }
        let z = xsc.transform(x);
        let out = self.forward(&z, &mut vec![0.0; self.config.hidden]);
        Ok(ysc.inverse(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_linear_function() {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 4.0]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = xs.iter().map(|r| 3.0 + 2.0 * r[0]).collect();
        let mut mlp = MlpRegressor::default_network();
        mlp.fit(&refs, &ys).unwrap();
        // In-range prediction should be close.
        let p = mlp.predict(&[5.0]).unwrap();
        assert!((p - 13.0).abs() < 1.5, "predicted {p}, want ~13");
    }

    #[test]
    fn learns_a_mild_nonlinearity() {
        let xs: Vec<Vec<f64>> = (0..60).map(|i| vec![i as f64 / 10.0]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = xs.iter().map(|r| (r[0]).sin() * 2.0 + 5.0).collect();
        let mut mlp = MlpRegressor::new(MlpConfig {
            hidden: 12,
            epochs: 1500,
            learning_rate: 0.1,
            ..MlpConfig::default()
        });
        mlp.fit(&refs, &ys).unwrap();
        let p = mlp.predict(&[1.5]).unwrap();
        let want = (1.5f64).sin() * 2.0 + 5.0;
        assert!((p - want).abs() < 0.8, "predicted {p}, want ~{want}");
    }

    #[test]
    fn deterministic_given_seed() {
        let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        let ys: Vec<f64> = xs.iter().map(|r| r[0] * 1.5).collect();
        let mut a = MlpRegressor::default_network();
        let mut b = MlpRegressor::default_network();
        a.fit(&refs, &ys).unwrap();
        b.fit(&refs, &ys).unwrap();
        assert_eq!(a.predict(&[8.0]).unwrap(), b.predict(&[8.0]).unwrap());
    }

    #[test]
    fn errors_on_tiny_data_and_wrong_arity() {
        let mut mlp = MlpRegressor::default_network();
        let xs: Vec<Vec<f64>> = vec![vec![1.0], vec![2.0]];
        let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
        assert!(mlp.fit(&refs, &[1.0, 2.0]).is_err());
        assert!(mlp.predict(&[1.0]).is_err());
    }

    /// The training loop as it was when `forward` returned a fresh
    /// activation vector per sample per epoch — the oracle for the
    /// allocation-free loop. Returns `(w1, w2)`.
    fn reference_weights(config: MlpConfig, xs: &[&[f64]], ys: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let n = xs.len();
        let l = xs[0].len();
        let h = config.hidden;
        let x_scaler = Standardizer::fit(xs);
        let y_scaler = ScalarScaler::fit(ys);
        let zs: Vec<Vec<f64>> = xs.iter().map(|x| x_scaler.transform(x)).collect();
        let ts: Vec<f64> = ys.iter().map(|&y| y_scaler.transform(y)).collect();
        let mut rng = StdRng::seed_from_u64(config.seed);
        let bound1 = (6.0 / (l + h) as f64).sqrt();
        let bound2 = (6.0 / (h + 1) as f64).sqrt();
        let mut w1: Vec<f64> = (0..h * (l + 1))
            .map(|_| rng.gen_range(-bound1..bound1))
            .collect();
        let mut w2: Vec<f64> = (0..h + 1).map(|_| rng.gen_range(-bound2..bound2)).collect();
        let forward = |w1: &[f64], w2: &[f64], z: &[f64]| -> (Vec<f64>, f64) {
            let mut act = vec![0.0; h];
            for j in 0..h {
                let mut s = w1[j * (l + 1) + l];
                for (i, zi) in z.iter().enumerate() {
                    s += w1[j * (l + 1) + i] * zi;
                }
                act[j] = s.tanh();
            }
            let mut out = w2[h];
            for j in 0..h {
                out += w2[j] * act[j];
            }
            (act, out)
        };
        let lr = config.learning_rate / n as f64;
        let decay = config.weight_decay;
        let mut g1 = vec![0.0; w1.len()];
        let mut g2 = vec![0.0; w2.len()];
        for _ in 0..config.epochs {
            g1.iter_mut().for_each(|g| *g = 0.0);
            g2.iter_mut().for_each(|g| *g = 0.0);
            for (z, &t) in zs.iter().zip(ts.iter()) {
                let (act, out) = forward(&w1, &w2, z);
                let err = out - t;
                for j in 0..h {
                    g2[j] += err * act[j];
                }
                g2[h] += err;
                for j in 0..h {
                    let d = err * w2[j] * (1.0 - act[j] * act[j]);
                    let row = j * (l + 1);
                    for (i, zi) in z.iter().enumerate() {
                        g1[row + i] += d * zi;
                    }
                    g1[row + l] += d;
                }
            }
            for (w, g) in w1.iter_mut().zip(g1.iter()) {
                *w -= lr * (g + decay * *w);
            }
            for (w, g) in w2.iter_mut().zip(g2.iter()) {
                *w -= lr * (g + decay * *w);
            }
        }
        (w1, w2)
    }

    #[test]
    fn weights_equal_the_per_sample_allocating_reference_bit_for_bit() {
        let bits = |w: &[f64]| w.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The BML tournament's network, on table-size-like features.
        let config = MlpConfig {
            hidden: 6,
            epochs: 250,
            learning_rate: 0.05,
            weight_decay: 1e-4,
            seed: 23,
        };
        for n in [3, 6, 60] {
            let xs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let i = i as f64;
                    vec![
                        1e4 * (1.0 + (i * 0.7).sin()),
                        300.0 + 17.0 * i,
                        (i * 1.3).cos(),
                    ]
                })
                .collect();
            let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();
            let ys: Vec<f64> = xs
                .iter()
                .map(|r| 2.0 + r[0] * 1e-3 + (r[1] * 0.01).sin())
                .collect();
            let mut mlp = MlpRegressor::new(config);
            mlp.fit(&refs, &ys).unwrap();
            let (w1, w2) = reference_weights(config, &refs, &ys);
            assert_eq!(bits(&mlp.w1), bits(&w1), "n = {n}");
            assert_eq!(bits(&mlp.w2), bits(&w2), "n = {n}");
        }
    }
}
