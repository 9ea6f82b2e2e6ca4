//! Behavioural tests: each model family earns its keep on the function
//! shapes it is meant for, and the BML selector routes correctly.

use midas_dream::{CostEstimator, History};
use midas_mlearn::bagging::BaggingConfig;
use midas_mlearn::mlp::MlpConfig;
use midas_mlearn::tree::TreeConfig;
use midas_mlearn::{
    BaggingRegressor, BmlEstimator, MlpRegressor, OlsRegressor, Regressor,
    RegressorFamily, SelectionPolicy, WindowSpec,
};

fn mse_of(model: &dyn Regressor, xs: &[Vec<f64>], ys: &[f64]) -> f64 {
    let preds: Vec<f64> = xs.iter().map(|x| model.predict(x).expect("fitted")).collect();
    preds
        .iter()
        .zip(ys.iter())
        .map(|(p, y)| (p - y) * (p - y))
        .sum::<f64>()
        / ys.len() as f64
}

/// Deterministic pseudo-noise in [-a, a].
fn noise(i: usize, a: f64) -> f64 {
    let mut s = (i as u64).wrapping_mul(0x9e3779b97f4a7c15) | 1;
    s ^= s << 13;
    s ^= s >> 7;
    s ^= s << 17;
    ((s % 2000) as f64 / 1000.0 - 1.0) * a
}

#[test]
fn ols_wins_on_linear_trees_win_on_steps() {
    // Linear data.
    let lin_x: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64]).collect();
    let lin_y: Vec<f64> = lin_x.iter().enumerate().map(|(i, x)| 3.0 + 2.0 * x[0] + noise(i, 0.5)).collect();
    // Step data.
    let step_y: Vec<f64> = (0..40).map(|i| if i < 20 { 1.0 } else { 30.0 }).collect();

    let refs: Vec<&[f64]> = lin_x.iter().map(|r| r.as_slice()).collect();

    let mut ols = OlsRegressor::new();
    ols.fit(&refs, &lin_y).expect("fits");
    let mut bag = BaggingRegressor::new(BaggingConfig::default());
    bag.fit(&refs, &lin_y).expect("fits");
    assert!(
        mse_of(&ols, &lin_x, &lin_y) < mse_of(&bag, &lin_x, &lin_y),
        "OLS must beat trees on linear data"
    );

    let mut ols_s = OlsRegressor::new();
    ols_s.fit(&refs, &step_y).expect("fits");
    let mut bag_s = BaggingRegressor::new(BaggingConfig::default());
    bag_s.fit(&refs, &step_y).expect("fits");
    assert!(
        mse_of(&bag_s, &lin_x, &step_y) < mse_of(&ols_s, &lin_x, &step_y),
        "trees must beat OLS on a step function"
    );
}

#[test]
fn mlp_beats_ols_on_smooth_nonlinearity() {
    let xs: Vec<Vec<f64>> = (0..80).map(|i| vec![i as f64 / 8.0]).collect();
    let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin() * 5.0 + 10.0).collect();
    let refs: Vec<&[f64]> = xs.iter().map(|r| r.as_slice()).collect();

    let mut mlp = MlpRegressor::new(MlpConfig {
        hidden: 16,
        epochs: 2000,
        learning_rate: 0.1,
        ..MlpConfig::default()
    });
    mlp.fit(&refs, &ys).expect("fits");
    let mut ols = OlsRegressor::new();
    ols.fit(&refs, &ys).expect("fits");
    assert!(
        mse_of(&mlp, &xs, &ys) < mse_of(&ols, &xs, &ys) / 2.0,
        "MLP must fit a sine far better than a line"
    );
}

#[test]
fn bml_routes_by_shape_under_training_error_selection() {
    // Linear history → OLS; step history → a nonlinear family.
    let mut lin = History::new(1, 1);
    for i in 0..40 {
        lin.record(&[i as f64], &[5.0 + 3.0 * i as f64 + noise(i, 0.3)])
            .expect("arity");
    }
    let mut bml = BmlEstimator::new(WindowSpec::All, 1)
        .with_policy(SelectionPolicy::TrainingError);
    bml.fit(&lin).expect("fits");
    assert_eq!(bml.chosen_families(), &["ols"]);

    let mut step = History::new(1, 1);
    for i in 0..40 {
        let y = if i % 40 < 20 { 2.0 } else { 40.0 };
        step.record(&[i as f64], &[y]).expect("arity");
    }
    let mut bml = BmlEstimator::new(WindowSpec::All, 1)
        .with_policy(SelectionPolicy::TrainingError);
    bml.fit(&step).expect("fits");
    assert_ne!(bml.chosen_families(), &["ols"]);
}

#[test]
fn holdout_selection_is_more_conservative_on_noisy_data() {
    // Pure noise: training error prefers the memorizer; holdout should not
    // reliably prefer it (and must still produce a usable model).
    let mut h = History::new(1, 1);
    for i in 0..32 {
        h.record(&[(i % 7) as f64], &[10.0 + noise(i * 31, 5.0)])
            .expect("arity");
    }
    let mut train = BmlEstimator::new(WindowSpec::All, 1)
        .with_policy(SelectionPolicy::TrainingError);
    train.fit(&h).expect("fits");
    let mut holdout = BmlEstimator::new(WindowSpec::All, 1)
        .with_policy(SelectionPolicy::HoldoutValidation);
    holdout.fit(&h).expect("fits");
    // Both predict something finite.
    assert!(train.predict(&[3.0]).expect("fitted")[0].is_finite());
    assert!(holdout.predict(&[3.0]).expect("fitted")[0].is_finite());
}

#[test]
fn window_multiples_resolve_against_feature_count() {
    // With 4 features, N = 6; the estimator must use 6/12/18-point windows.
    let mut h = History::new(4, 1);
    for i in 0..60 {
        let x = [i as f64, (i % 3) as f64, (i % 5) as f64, 1.0 + i as f64];
        h.record(&x, &[x[0] + x[3]]).expect("arity");
    }
    for (spec, want) in [
        (WindowSpec::LatestMultiple(1), 6),
        (WindowSpec::LatestMultiple(2), 12),
        (WindowSpec::LatestMultiple(3), 18),
        (WindowSpec::All, 60),
    ] {
        let mut bml = BmlEstimator::new(spec, 1);
        let report = bml.fit(&h).expect("fits");
        assert_eq!(report.window_used, want);
    }
}

#[test]
fn custom_family_sets_are_honoured() {
    let mut h = History::new(1, 1);
    for i in 0..30 {
        h.record(&[i as f64], &[2.0 * i as f64]).expect("arity");
    }
    let mut bml = BmlEstimator::with_families(
        WindowSpec::All,
        1,
        vec![
            RegressorFamily::Mlp(MlpConfig::default()),
            RegressorFamily::Bagging(BaggingConfig {
                n_estimators: 5,
                tree: TreeConfig::default(),
                seed: 1,
            }),
        ],
    );
    bml.fit(&h).expect("fits");
    assert!(["mlp", "bagging"].contains(&bml.chosen_families()[0]));
}
