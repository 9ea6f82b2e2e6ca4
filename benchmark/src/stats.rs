//! Order statistics over timing samples.

use midas_linalg::stats;

/// Nearest-rank percentile (`p` in `0..=100`) of an unsorted sample: the
/// smallest value with at least `p` % of the sample at or below it — the
/// definition `LatencyStats` in the runtime uses, so bench and runtime
/// percentiles are comparable. An empty sample yields 0.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// `midas_linalg::stats::median` (the mean of the two middle values on an
/// even count, as Python's `statistics.median`), 0 for an empty sample.
pub fn median(samples: &[f64]) -> f64 {
    stats::median(samples).unwrap_or(0.0)
}

/// `midas_linalg::stats::mean`, 0 for an empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    stats::mean(samples).unwrap_or(0.0)
}

/// `midas_linalg::stats::mean_relative_error` (the paper's Eq. 15) over
/// `(predicted, actual)` pairs; 0 when no pair has a non-zero actual value.
pub fn mean_relative_error(pairs: &[(f64, f64)]) -> f64 {
    let (predicted, actual): (Vec<f64>, Vec<f64>) = pairs.iter().copied().unzip();
    stats::mean_relative_error(&predicted, &actual).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let sample = [50.0, 10.0, 40.0, 20.0, 30.0];
        assert_eq!(percentile(&sample, 0.0), 10.0);
        assert_eq!(percentile(&sample, 20.0), 10.0);
        assert_eq!(percentile(&sample, 21.0), 20.0);
        assert_eq!(percentile(&sample, 50.0), 30.0);
        assert_eq!(percentile(&sample, 95.0), 50.0);
        assert_eq!(percentile(&sample, 100.0), 50.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn percentile_of_twenty_leaves_one_sample_beyond_p95() {
        let sample: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&sample, 95.0), 19.0);
        assert_eq!(percentile(&sample, 50.0), 10.0);
    }

    #[test]
    fn empty_samples_read_zero() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean_relative_error(&[(5.0, 0.0)]), 0.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean_relative_error(&[(110.0, 100.0), (5.0, 0.0)]), 0.1);
    }
}
