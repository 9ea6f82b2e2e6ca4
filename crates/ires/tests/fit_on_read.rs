//! Fit on read is eager fitting, deferred: a class that only records and
//! fits when read reports, bit for bit, what fitting after every record
//! reported for its latest observation.
//!
//! Three learners see one random stream of observations over two query
//! classes:
//!
//! * **lazy** — [`ModellingRegistry::record`] per observation, and at
//!   random points a read: [`ModellingRegistry::learning`] and
//!   [`Modelling::estimate`];
//! * **eager** — [`ModellingRegistry::observe`] per observation, the fit
//!   at once, the way the benchmark's replay and the runtime's sequential
//!   reference learn;
//! * **unbounded** — a [`Modelling`] over a history that keeps everything,
//!   fitted after every record: the registry's histories keep only the
//!   latest `Mmax` observations, and Algorithm 1 never reads further back.
//!
//! At every read the lazy fit report and the lazy estimate must equal the
//! other two's as bits, and a second read with nothing recorded in between
//! must return the same fit without running the estimator again.

use midas_dream::{DreamEstimator, EstimationError, FitReport};
use midas_ires::{Modelling, ModellingRegistry};
use proptest::prelude::*;

const CLASSES: [&str; 2] = ["Q12", "medical"];

/// A fit report with its `R²` values as bits.
type FitBits = (usize, bool, Vec<Option<u64>>);

fn fit_bits(fit: &Result<Option<FitReport>, EstimationError>) -> Result<Option<FitBits>, String> {
    match fit {
        Ok(report) => Ok(report.as_ref().map(|r| {
            (
                r.window_used,
                r.satisfied,
                r.r_squared.iter().map(|v| v.map(f64::to_bits)).collect(),
            )
        })),
        Err(e) => Err(e.to_string()),
    }
}

fn estimate_bits(estimate: Result<Vec<f64>, EstimationError>) -> Result<Vec<u64>, String> {
    estimate
        .map(|v| v.iter().map(|x| x.to_bits()).collect())
        .map_err(|e| e.to_string())
}

/// An unbounded learner's fit as the registry reports one.
fn online(fit: &Result<FitReport, EstimationError>) -> Result<Option<FitReport>, EstimationError> {
    match fit {
        Err(EstimationError::NotEnoughData { .. }) => Ok(None),
        other => other.clone().map(Some),
    }
}

/// `n` observations of four features and two cost metrics, each tagged
/// with its class, drawn from xorshift state `seed` in the shape `family`
/// selects:
///
/// 0. Five distinct feature vectors repeating (a warm medical workload),
///    costs jittered by load: DREAM's `R² ≥ 0.8` is never met.
/// 1. Row counts growing with ingest, costs linear in them with noise and a
///    load shift half-way.
/// 2. Small integer features with many duplicate rows.
/// 3. A slow trend under noise beside three noise features: the first
///    window to meet `R² ≥ 0.8` is often 20 or wider, so a history bounded
///    below `Mmax` would change the fit.
fn stream(family: usize, n: usize, seed: u64) -> Vec<(usize, [f64; 4], [f64; 2])> {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1_000_000) as f64 / 1_000_000.0
    };
    (0..n)
        .map(|i| {
            let class = usize::from(unit() < 0.3);
            let t = i as f64;
            let x = match family {
                0 => {
                    let q = (i % 5) as f64;
                    [5_000.0, 2_000.0, 500.0 + 100.0 * q, 1_000.0 + 37.0 * q]
                }
                1 => [
                    6e5 * (1.0 + 0.01 * t),
                    1.5e5 * (1.0 + 0.005 * t),
                    (unit() * 1e4).round(),
                    200.0 + 40.0 * (t * 0.9).cos(),
                ],
                2 => [(i % 3) as f64, (i % 4) as f64, ((i / 2) % 3) as f64, 1.0],
                _ => {
                    let noise = 13.8 * (unit() - 0.5);
                    let x = [t, unit(), unit(), unit()];
                    return (class, x, [10.0 + t + noise, 1.0 + 0.1 * (t + noise)]);
                }
            };
            let load = if family == 1 && 2 * i >= n { 1.8 } else { 1.0 };
            let time = load * (1.0 + 0.2 * unit()) * (3.0 + x[0] * 2e-6 + x[2] * 2e-4);
            let money = 0.2 + 1e-7 * x[1] + 0.01 * unit();
            (class, x, [time, money])
        })
        .collect()
}

proptest! {
    #[test]
    fn recording_then_reading_equals_fitting_every_observation(
        family in 0usize..4,
        n in 1usize..90,
        seed in 0u64..1_000_000,
        read_every in 1usize..12,
    ) {
        let lazy = ModellingRegistry::dream_defaults(2);
        let eager = ModellingRegistry::dream_defaults(2);
        let mut unbounded: Vec<Modelling> = CLASSES
            .iter()
            .map(|_| Modelling::new(4, 2, Box::new(DreamEstimator::paper_defaults(2))))
            .collect();
        let mut last_eager: [Option<Result<Option<FitReport>, EstimationError>>; 2] = [None, None];
        let mut dirty_reads = [0usize; 2];
        let mut dirty = [false; 2];
        let probe = [5_500.0, 2_100.0, 650.0, 1_040.0];
        let observations = stream(family, n, seed);
        for (i, (class, x, c)) in observations.iter().enumerate() {
            lazy.record(CLASSES[*class], x, c).unwrap();
            dirty[*class] = true;
            last_eager[*class] = Some(eager.observe(CLASSES[*class], x, c));
            unbounded[*class].record(x, c).unwrap();
            let unbounded_fit = online(unbounded[*class].fit());
            prop_assert_eq!(
                fit_bits(last_eager[*class].as_ref().unwrap()),
                fit_bits(&unbounded_fit),
                "the bounded history changed a fit"
            );
            // Reads land every `read_every`-th observation (mixed with the
            // seed) and after the last.
            if !(i + seed as usize).is_multiple_of(read_every) && i + 1 != n {
                continue;
            }
            for entry in &lazy.learning() {
                let k = CLASSES.iter().position(|c| *c == entry.class).unwrap();
                let expected = last_eager[k].as_ref().unwrap();
                prop_assert_eq!(fit_bits(&entry.fit), fit_bits(expected), "class {}", entry.class);
                prop_assert_eq!(entry.observations, unbounded[k].observations());
                if dirty[k] {
                    dirty_reads[k] += 1;
                    dirty[k] = false;
                }
                let lazy_class = lazy.get(&entry.class).unwrap();
                let mut lazy_class = lazy_class.lock().unwrap();
                prop_assert_eq!(lazy_class.fits(), dirty_reads[k], "one fit per dirty read");
                let eager_class = eager.get(&entry.class).unwrap();
                let served = estimate_bits(lazy_class.estimate(&probe));
                prop_assert_eq!(&served, &estimate_bits(eager_class.lock().unwrap().estimate(&probe)));
                prop_assert_eq!(&served, &estimate_bits(unbounded[k].estimate(&probe)));
                prop_assert_eq!(lazy_class.fits(), dirty_reads[k], "estimate reused the fit");
            }
            // A second read with nothing recorded runs no estimator.
            let fits: Vec<usize> = CLASSES
                .iter()
                .filter_map(|c| lazy.get(c))
                .map(|m| m.lock().unwrap().fits())
                .collect();
            let again = lazy.learning();
            let refits: Vec<usize> = CLASSES
                .iter()
                .filter_map(|c| lazy.get(c))
                .map(|m| m.lock().unwrap().fits())
                .collect();
            prop_assert_eq!(fits, refits, "a clean read refitted");
            for entry in &again {
                let k = CLASSES.iter().position(|c| *c == entry.class).unwrap();
                prop_assert_eq!(fit_bits(&entry.fit), fit_bits(last_eager[k].as_ref().unwrap()));
            }
        }
        prop_assert_eq!(lazy.history_lens(), eager.history_lens());
        prop_assert_eq!(lazy.total_observations(), n);
    }
}
