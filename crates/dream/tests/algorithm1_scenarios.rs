//! Scenario tests for Algorithm 1: the behaviours the paper sells,
//! exercised end to end on synthetic histories with known structure.

use midas_dream::{
    estimate_cost_value, mlr, CostEstimator, DreamConfig, DreamEstimator, History, MlrModel,
    SolveMethod, RIDGE_LAMBDA,
};

/// Deterministic pseudo-noise in [-a, a].
fn noise(i: usize, a: f64) -> f64 {
    let mut s = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    ((s % 2000) as f64 / 1000.0 - 1.0) * a
}

/// The least-squares fit `method` gives the latest `m` observations.
fn fit_latest(h: &History, m: usize, method: SolveMethod) -> MlrModel {
    let window = h.latest(m);
    let feats: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
    mlr::fit(&feats, &History::targets_of(window, 0), method).expect("fits")
}

/// A history with one regime shift at `shift`: slope doubles, intercept
/// jumps. Observations after the shift are the "fresh" regime.
fn shifted_history(n: usize, shift: usize) -> History {
    let mut h = History::new(1, 1);
    for i in 0..n {
        let x = (i % 13) as f64 * 2.0;
        let y = if i < shift {
            20.0 + 1.0 * x
        } else {
            5.0 + 2.0 * x
        } + noise(i, 0.2);
        h.record(&[x], &[y]).expect("arity");
    }
    h
}

#[test]
fn recovers_the_fresh_regime_right_after_a_shift() {
    // 50 old-regime points, 8 fresh ones: the fitted model must describe
    // the fresh regime, not the 50-point-deep stale one.
    let h = shifted_history(58, 50);
    let cfg = DreamConfig::uniform(0.8, 1, 40);
    let out = estimate_cost_value(&h, &cfg).expect("fits");
    let pred = out.predict(&[10.0]).expect("fitted")[0];
    let fresh_truth = 5.0 + 2.0 * 10.0;
    let stale_truth = 20.0 + 1.0 * 10.0;
    assert!(
        (pred - fresh_truth).abs() < (pred - stale_truth).abs(),
        "prediction {pred} is closer to the stale regime"
    );
    assert!(out.window <= 8, "window {} reaches into the old regime", out.window);
}

#[test]
fn exploits_long_stability_when_noise_demands_it() {
    // Stationary but noisy: a strict R² requirement forces a window well
    // beyond the minimum, averaging the noise down. With one feature the
    // ridge penalty costs (λ/(1+λ))² ≈ 0.0023 of in-sample R² against least
    // squares, so the strict requirement here is 0.9925.
    let mut h = History::new(1, 1);
    for i in 0..60 {
        let x = (i % 11) as f64;
        h.record(&[x], &[3.0 + 4.0 * x + noise(i, 2.0)]).expect("arity");
    }
    let loose = DreamConfig::uniform(0.5, 1, 60);
    let strict = DreamConfig::uniform(0.9925, 1, 60);
    let out_loose = estimate_cost_value(&h, &loose).expect("fits");
    let out_strict = estimate_cost_value(&h, &strict).expect("fits");
    assert!(out_strict.satisfied);
    assert!(
        out_strict.window > out_loose.window,
        "strict requirement should demand more data: {} vs {}",
        out_strict.window,
        out_loose.window
    );
    // The strict window is the first whose ridge fit reaches 0.9925.
    for m in h.minimum_window()..=out_strict.window {
        let r2 = fit_latest(&h, m, SolveMethod::Ridge(RIDGE_LAMBDA)).r_squared;
        assert_eq!(r2 >= 0.9925, m == out_strict.window, "window {m}: R² {r2}");
    }
}

#[test]
fn per_metric_requirements_gate_jointly() {
    // Metric 0 is clean, metric 1 is pure noise: the joint gate can only be
    // satisfied when metric 1's requirement is trivial.
    let mut h = History::new(1, 2);
    for i in 0..40 {
        let x = (i % 9) as f64;
        h.record(&[x], &[1.0 + 2.0 * x, noise(i, 5.0)]).expect("arity");
    }
    let strict_both = DreamConfig {
        r2_required: vec![0.9, 0.9],
        ..DreamConfig::uniform(0.9, 2, 30)
    };
    let strict_one = DreamConfig {
        r2_required: vec![0.9, -f64::INFINITY],
        ..DreamConfig::uniform(0.9, 2, 30)
    };
    let both = estimate_cost_value(&h, &strict_both).expect("fits");
    let one = estimate_cost_value(&h, &strict_one).expect("fits");
    assert!(!both.satisfied, "noise metric cannot reach 0.9");
    assert!(one.satisfied, "trivial requirement on the noise metric passes");
    assert!(one.window <= both.window);
}

#[test]
fn estimator_refit_tracks_new_observations() {
    let mut h = shifted_history(50, 50); // old regime only so far
    let mut est = DreamEstimator::new(DreamConfig::uniform(0.8, 1, 30));
    est.fit(&h).expect("fits");
    let before = est.predict(&[10.0]).expect("fitted")[0];
    // Fresh regime arrives; refit must move the prediction.
    for i in 50..60 {
        let x = (i % 13) as f64 * 2.0;
        h.record(&[x], &[5.0 + 2.0 * x + noise(i, 0.2)]).expect("arity");
    }
    est.fit(&h).expect("fits");
    let after = est.predict(&[10.0]).expect("fitted")[0];
    assert!((after - 25.0).abs() < 2.0, "after-refit prediction {after}");
    assert!((before - 30.0).abs() < 2.0, "before-refit prediction {before}");
}

#[test]
fn ridge_and_normal_equations_agree_on_well_conditioned_windows() {
    let h = shifted_history(40, 0);
    let out = estimate_cost_value(&h, &DreamConfig::uniform(0.8, 1, 30)).expect("fits");
    let ne = fit_latest(&h, out.window, SolveMethod::NormalEquations);
    let pa = ne.predict(&[7.0]).expect("fitted");
    let pb = out.predict(&[7.0]).expect("fitted")[0];
    assert!((pa - pb).abs() < 0.05 * (1.0 + pa.abs()), "{pa} vs {pb}");
}

#[test]
fn rounds_accounting_matches_growth_policy() {
    let mut h = History::new(1, 1);
    for i in 0..34 {
        h.record(&[(i % 5) as f64], &[noise(i, 10.0)]).expect("arity");
    }
    // Unsatisfiable: walks every window up to Mmax.
    let cfg = DreamConfig::uniform(0.99999, 1, 32);
    let out = estimate_cost_value(&h, &cfg).expect("fits");
    // m = 3..=32 inclusive: minimum is L+2 = 3, so 30 rounds.
    assert_eq!(out.rounds, 30);
}
