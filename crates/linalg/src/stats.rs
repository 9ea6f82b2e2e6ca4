//! Summary statistics used across the workspace.

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        None
    } else {
        Some(xs.iter().sum::<f64>() / xs.len() as f64)
    }
}

/// Population variance (divide by `n`); `None` for an empty slice.
pub fn variance(xs: &[f64]) -> Option<f64> {
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64)
}

/// Sample variance (divide by `n-1`); `None` for fewer than two samples.
pub fn sample_variance(xs: &[f64]) -> Option<f64> {
    if xs.len() < 2 {
        return None;
    }
    let m = mean(xs)?;
    Some(xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64)
}

/// Linear-interpolated quantile, `q` in `[0, 1]`; `None` for an empty slice.
///
/// Not resistant to NaNs — callers own input hygiene.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        Some(sorted[lo])
    } else {
        let frac = pos - lo as f64;
        Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
    }
}

/// Median (0.5 quantile).
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Mean Relative Error, the paper's evaluation metric (Eq. 15):
/// `MRE = (1/M) Σ |ĉᵢ - cᵢ| / cᵢ`.
///
/// Pairs whose actual value `cᵢ` is zero are skipped (the metric is undefined
/// there); returns `None` when no valid pair remains or the lengths differ.
pub fn mean_relative_error(predicted: &[f64], actual: &[f64]) -> Option<f64> {
    if predicted.len() != actual.len() {
        return None;
    }
    let mut sum = 0.0;
    let mut n = 0usize;
    for (p, a) in predicted.iter().zip(actual.iter()) {
        if *a == 0.0 {
            continue;
        }
        sum += (p - a).abs() / a.abs();
        n += 1;
    }
    if n == 0 {
        None
    } else {
        Some(sum / n as f64)
    }
}

/// Numerically stable online mean/variance accumulator (Welford).
///
/// Used by the engine simulator's load tracker and by model-selection code
/// that streams over validation errors.
#[derive(Debug, Clone, Default)]
pub struct OnlineMoments {
    n: u64,
    mean: f64,
    m2: f64,
}

impl OnlineMoments {
    /// Fresh accumulator with no observations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        let delta2 = x - self.mean;
        self.m2 += delta * delta2;
    }

    /// Number of observations so far.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Current mean; `None` before the first observation.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then_some(self.mean)
    }

    /// Population variance; `None` before the first observation.
    pub fn variance(&self) -> Option<f64> {
        (self.n > 0).then(|| self.m2 / self.n as f64)
    }

    /// Sample variance; `None` before the second observation.
    pub fn sample_variance(&self) -> Option<f64> {
        (self.n > 1).then(|| self.m2 / (self.n - 1) as f64)
    }

    /// Merges another accumulator into this one (parallel aggregation).
    pub fn merge(&mut self, other: &OnlineMoments) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_basic() {
        assert_eq!(mean(&[]), None);
        assert_eq!(mean(&[2.0, 4.0]), Some(3.0));
    }

    #[test]
    fn variance_basic() {
        assert_eq!(variance(&[1.0, 1.0, 1.0]), Some(0.0));
        let v = variance(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((v - 1.25).abs() < 1e-12);
    }

    #[test]
    fn sample_variance_needs_two() {
        assert_eq!(sample_variance(&[1.0]), None);
        let v = sample_variance(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((v - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [3.0, 1.0, 2.0, 4.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn mre_matches_hand_computation() {
        // |1.1-1|/1 + |1.8-2|/2 = 0.1 + 0.1 => /2 = 0.1
        let mre = mean_relative_error(&[1.1, 1.8], &[1.0, 2.0]).unwrap();
        assert!((mre - 0.1).abs() < 1e-12);
    }

    #[test]
    fn mre_skips_zero_actuals() {
        let mre = mean_relative_error(&[1.0, 5.0], &[0.0, 4.0]).unwrap();
        assert!((mre - 0.25).abs() < 1e-12);
        assert_eq!(mean_relative_error(&[1.0], &[0.0]), None);
        assert_eq!(mean_relative_error(&[1.0], &[1.0, 2.0]), None);
    }

    #[test]
    fn online_moments_match_batch() {
        let xs = [4.0, 7.0, 13.0, 16.0];
        let mut om = OnlineMoments::new();
        for &x in &xs {
            om.push(x);
        }
        assert!((om.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((om.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
        assert!(
            (om.sample_variance().unwrap() - sample_variance(&xs).unwrap()).abs() < 1e-12
        );
    }

    #[test]
    fn online_moments_merge() {
        let xs = [1.0, 2.0, 3.0, 10.0, 20.0];
        let mut a = OnlineMoments::new();
        let mut b = OnlineMoments::new();
        for &x in &xs[..2] {
            a.push(x);
        }
        for &x in &xs[2..] {
            b.push(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert!((a.mean().unwrap() - mean(&xs).unwrap()).abs() < 1e-12);
        assert!((a.variance().unwrap() - variance(&xs).unwrap()).abs() < 1e-12);
    }
}
