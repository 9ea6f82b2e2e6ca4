//! Property-based tests for the MLR core and Algorithm 1.

use midas_dream::{
    estimate_cost_value, estimate_cost_value_incremental, mlr, DreamConfig, DreamOutcome, History,
    SolveMethod,
};
use proptest::prelude::*;

/// A history of the shape `family` selects, `n` observations long, drawn
/// from xorshift state `seed`; every family has three features and two
/// metrics.
///
/// 0. Row counts up to 10⁶ growing slowly (ingest), costs linear in them
///    with noise and a load drift.
/// 1. The same beside a constant integer and a constant non-integer column.
/// 2. Every row repeated one to three times, beside a 10⁹-magnitude column.
/// 3. Two regimes of small features with a load shift a third of the way in.
fn numerics_history(family: usize, n: usize, seed: u64) -> History {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut unit = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 1_000_000) as f64 / 1_000_000.0
    };
    let base = 1e5 + 9e5 * unit();
    let growth = 1e-4 + 1e-2 * unit();
    let mut h = History::new(3, 2);
    let mut i = 0;
    while h.len() < n {
        let rows = (base * (1.0 + growth * i as f64)).round();
        let noise = 1.0 + 0.1 * (unit() - 0.5);
        let (x, repeats) = match family {
            0 => ([rows, (rows / 4.0).round(), (unit() * 5e5).round()], 1),
            1 => ([rows, 6_001_215.0, 123_456.789], 1),
            2 => (
                [rows, 1e9 + (unit() * 1e3).round() * 1e6, unit() * 10.0],
                1 + i % 3,
            ),
            _ => ([(i % 17) as f64, unit() * 3.0, (i % 5) as f64 * 0.5], 1),
        };
        let load = if family == 3 && 3 * i >= n {
            2.5
        } else {
            1.0 + 1e-3 * i as f64
        };
        let time = load * noise * (3.0 + x[0] * 4e-5 + x[2] * 2e-5 + x[1] * 1e-9);
        let money = 0.2 + 1e-7 * x[0] + 0.01 * unit();
        for _ in 0..repeats {
            h.record(&x, &[time, money]).unwrap();
        }
        i += 1;
    }
    h
}

/// `|a − b|` within `tol` of the larger magnitude, or of `floor` when both
/// are smaller than it.
fn close(a: f64, b: f64, tol: f64, floor: f64) -> bool {
    (a - b).abs() <= tol * a.abs().max(b.abs()).max(floor)
}

fn assert_finite(out: &DreamOutcome) -> Result<(), TestCaseError> {
    for model in &out.models {
        prop_assert!(
            model.coefficients.iter().all(|b| b.is_finite()),
            "{:?}",
            model
        );
        prop_assert!(model.r_squared.is_finite() && model.sse.is_finite() && model.sst.is_finite());
    }
    Ok(())
}

/// Strategy: a well-conditioned regression problem with L features and
/// M >= L+2 rows, plus true coefficients.
fn regression_problem() -> impl Strategy<Value = (Vec<Vec<f64>>, Vec<f64>, Vec<f64>)> {
    (1usize..4).prop_flat_map(|l| {
        let m = (l + 2)..24usize;
        m.prop_flat_map(move |m| {
            (
                proptest::collection::vec(
                    proptest::collection::vec(-10.0..10.0f64, l),
                    m,
                ),
                proptest::collection::vec(-5.0..5.0f64, l + 1),
            )
                .prop_map(|(feats, coefs)| {
                    let targets: Vec<f64> = feats
                        .iter()
                        .map(|row| {
                            coefs[0]
                                + row
                                    .iter()
                                    .zip(&coefs[1..])
                                    .map(|(x, b)| x * b)
                                    .sum::<f64>()
                        })
                        .collect();
                    (feats, coefs, targets)
                })
        })
    })
}

proptest! {
    /// On noise-free linear data the fit is exact: R² = 1 (unless the target
    /// is ~constant, where our convention still yields 1 on an exact fit) and
    /// predictions reproduce the generating function.
    #[test]
    fn exact_fit_on_linear_data((feats, coefs, targets) in regression_problem()) {
        let refs: Vec<&[f64]> = feats.iter().map(|r| r.as_slice()).collect();
        if let Ok(model) = mlr::fit(&refs, &targets, SolveMethod::Qr) {
            prop_assert!(model.r_squared > 1.0 - 1e-6,
                "R² = {} on noise-free data", model.r_squared);
            // Spot-check a prediction at a fresh point.
            let probe: Vec<f64> = (0..feats[0].len()).map(|i| 0.5 + i as f64).collect();
            let want = coefs[0] + probe.iter().zip(&coefs[1..]).map(|(x, b)| x * b).sum::<f64>();
            let got = model.predict(&probe).unwrap();
            prop_assert!((got - want).abs() < 1e-4 * (1.0 + want.abs()),
                "predict {} vs true {}", got, want);
        }
    }

    /// R² never exceeds 1 (by definition 1 - SSE/SST with SSE >= 0) on any
    /// data, noisy or not.
    #[test]
    fn r_squared_at_most_one(
        feats in proptest::collection::vec(proptest::collection::vec(-100.0..100.0f64, 2), 4..20),
        noise in proptest::collection::vec(-50.0..50.0f64, 20),
    ) {
        let refs: Vec<&[f64]> = feats.iter().map(|r| r.as_slice()).collect();
        let targets: Vec<f64> = feats.iter().enumerate()
            .map(|(i, r)| r[0] - r[1] + noise[i % noise.len()])
            .collect();
        if let Ok(model) = mlr::fit(&refs, &targets, SolveMethod::NormalEquations) {
            prop_assert!(model.r_squared <= 1.0 + 1e-9);
            prop_assert!(model.sse >= -1e-9);
            prop_assert!(model.sst >= -1e-9);
        }
    }

    /// The two solvers agree on well-conditioned problems.
    #[test]
    fn solvers_agree((feats, _coefs, mut targets) in regression_problem()) {
        // Perturb targets so the problem is not exactly singular-friendly.
        for (i, t) in targets.iter_mut().enumerate() {
            *t += (i as f64 * 0.7).sin() * 0.1;
        }
        let refs: Vec<&[f64]> = feats.iter().map(|r| r.as_slice()).collect();
        let ne = mlr::fit(&refs, &targets, SolveMethod::NormalEquations);
        let qr = mlr::fit(&refs, &targets, SolveMethod::Qr);
        if let (Ok(a), Ok(b)) = (ne, qr) {
            // Compare fitted values rather than raw coefficients: collinear
            // designs admit many coefficient vectors with identical fits.
            let probe: Vec<f64> = feats[0].clone();
            let pa = a.predict(&probe).unwrap();
            let pb = b.predict(&probe).unwrap();
            let scale = 1.0 + pa.abs().max(pb.abs());
            prop_assert!((pa - pb).abs() / scale < 1e-3, "{} vs {}", pa, pb);
        }
    }

    /// Algorithm 1 invariants: the window is within [L+2, min(Mmax, M)], and
    /// when `satisfied` every metric's R² meets the requirement.
    #[test]
    fn dream_window_invariants(
        n_obs in 6usize..60,
        m_max in 4usize..80,
        r2_req in 0.0..1.0f64,
        seed in 0u64..1000,
    ) {
        let mut h = History::new(1, 1);
        let mut s = seed.wrapping_mul(2654435761).wrapping_add(1);
        for i in 0..n_obs {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let noise = ((s % 2000) as f64 / 1000.0) - 1.0;
            h.record(&[i as f64], &[3.0 + 0.5 * i as f64 + noise]).unwrap();
        }
        let cfg = DreamConfig::uniform(r2_req, 1, m_max);
        if h.len() >= h.minimum_window() {
            let out = estimate_cost_value(&h, &cfg).unwrap();
            prop_assert!(out.window >= h.minimum_window());
            prop_assert!(out.window <= m_max.max(h.minimum_window()));
            prop_assert!(out.window <= h.len());
            if out.satisfied {
                for model in &out.models {
                    prop_assert!(model.r_squared >= r2_req - 1e-12);
                }
            }
        }
    }

    /// DREAM is idempotent: re-running on the same history yields the same
    /// window and coefficients (determinism requirement of the trait).
    #[test]
    fn dream_is_deterministic(n_obs in 6usize..40, seed in 0u64..500) {
        let mut h = History::new(1, 1);
        let mut s = seed | 1;
        for i in 0..n_obs {
            s ^= s << 13; s ^= s >> 7; s ^= s << 17;
            let noise = ((s % 2000) as f64 / 1000.0) - 1.0;
            h.record(&[i as f64], &[2.0 * i as f64 + noise]).unwrap();
        }
        let cfg = DreamConfig::uniform(0.9, 1, 30);
        let a = estimate_cost_value(&h, &cfg).unwrap();
        let b = estimate_cost_value(&h, &cfg).unwrap();
        prop_assert_eq!(a.window, b.window);
        prop_assert_eq!(a.models[0].coefficients.clone(), b.models[0].coefficients.clone());
    }

    /// The online path DREAM serves with agrees with the reference refit:
    /// the same window, rounds and `satisfied` flag, and coefficients,
    /// predictions and `R²` within 1e-9 relative, on row counts up to 10⁶,
    /// constant columns, duplicate rows and a 10⁹-magnitude column.
    #[test]
    fn incremental_matches_the_reference(
        family in 0usize..4,
        n_obs in 6usize..120,
        m_max in 4usize..80,
        r2_req in 0.0..1.0f64,
        seed in 0u64..1_000_000,
    ) {
        let h = numerics_history(family, n_obs, seed);
        let cfg = DreamConfig::uniform(r2_req, 2, m_max);
        let reference = estimate_cost_value(&h, &cfg).unwrap();
        let online = estimate_cost_value_incremental(&h, &cfg).unwrap();
        assert_finite(&reference)?;
        assert_finite(&online)?;
        prop_assert_eq!(reference.window, online.window);
        prop_assert_eq!(reference.rounds, online.rounds);
        prop_assert_eq!(reference.satisfied, online.satisfied);
        let newest = &h.all()[h.len() - 1].features;
        let probe: Vec<f64> = newest.iter().map(|x| x * 1.01).collect();
        for (a, b) in reference.models.iter().zip(&online.models) {
            for (x, y) in a.coefficients.iter().zip(&b.coefficients) {
                prop_assert!(close(*x, *y, 1e-9, f64::MIN_POSITIVE), "{:?} vs {:?}", a, b);
            }
            let (pa, pb) = (a.predict(&probe).unwrap(), b.predict(&probe).unwrap());
            prop_assert!(close(pa, pb, 1e-9, f64::MIN_POSITIVE), "{} vs {}", pa, pb);
            prop_assert!(close(a.r_squared, b.r_squared, 1e-9, 1.0), "{:?} vs {:?}", a, b);
        }
    }
}
