//! Ablations of the estimators' design choices.
//!
//! Accuracy-style ablations (they print MRE-like numbers) are modelled as
//! one-iteration criterion benches over a shared synthetic drifting trace,
//! so `cargo bench` exercises them and their *printed* output lands in
//! `bench_output.txt`:
//!
//! 1. DREAM's `R²` requirement (standardized ridge, `Mmax` 30),
//! 2. BML selection policy (training error vs holdout).

use criterion::{criterion_group, criterion_main, Criterion};
use midas_dream::{estimate_cost_value, DreamConfig, History};
use midas_linalg::stats::mean_relative_error;
use midas_mlearn::{BmlEstimator, SelectionPolicy, WindowSpec};
use midas_dream::CostEstimator;
use std::hint::black_box;

/// Synthetic drifting trace: linear in two decorrelated size features with
/// regime shifts every ~17 points and 12% noise.
fn trace(n: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
    let mut s = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
    let mut rand = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s % 10_000) as f64 / 10_000.0
    };
    let mut load = 1.0;
    let mut feats = Vec::with_capacity(n);
    let mut costs = Vec::with_capacity(n);
    for i in 0..n {
        if i % 17 == 0 {
            load = 0.5 + rand() * 2.0;
        }
        let f1 = 0.4 + 0.6 * (i % 20) as f64 / 19.0;
        let f2 = 0.4 + 0.6 * ((i + 5) % 13) as f64 / 12.0;
        let x = vec![600_000.0 * f1, 150_000.0 * f2];
        let noise = 1.0 + (rand() - 0.5) * 0.24;
        let t = load * noise * (8.0 + x[0] * 4e-5 + x[1] * 2e-5);
        feats.push(x);
        costs.push(vec![t, t * 0.002]);
    }
    (feats, costs)
}

/// Prequential MRE of a DREAM configuration over the trace's second half.
fn dream_mre(cfg: &DreamConfig, feats: &[Vec<f64>], costs: &[Vec<f64>]) -> (f64, f64) {
    let warmup = feats.len() / 2;
    let mut preds = Vec::new();
    let mut actuals = Vec::new();
    let mut windows = Vec::new();
    for i in warmup..feats.len() {
        let mut h = History::new(2, 2);
        for j in 0..i {
            h.record(&feats[j], &costs[j]).expect("fixed arity");
        }
        if let Ok(out) = estimate_cost_value(&h, cfg) {
            windows.push(out.window as f64);
            if let Ok(p) = out.predict(&feats[i]) {
                preds.push(p[0].max(0.0));
                actuals.push(costs[i][0]);
            }
        }
    }
    (
        mean_relative_error(&preds, &actuals).unwrap_or(f64::NAN),
        windows.iter().sum::<f64>() / windows.len().max(1) as f64,
    )
}

fn ablation_report(c: &mut Criterion) {
    let (feats, costs) = trace(70, 11);

    println!("\n=== Ablation 1: R² requirement sweep (MRE over 35 test points, mean window) ===");
    for &req in &[0.5, 0.7, 0.8, 0.9, 0.95] {
        let cfg = DreamConfig::uniform(req, 2, 30);
        let (mre, window) = dream_mre(&cfg, &feats, &costs);
        println!("  R2_require = {req:4}   MRE = {mre:.3}   window = {window:.1}");
    }

    println!("\n=== Ablation 2: BML selection policy (window 2N) ===");
    for (label, policy) in [
        ("training-error (IReS-faithful)", SelectionPolicy::TrainingError),
        ("holdout validation (modern)", SelectionPolicy::HoldoutValidation),
    ] {
        let warmup = feats.len() / 2;
        let mut preds = Vec::new();
        let mut actuals = Vec::new();
        for i in warmup..feats.len() {
            let mut h = History::new(2, 2);
            for j in 0..i {
                h.record(&feats[j], &costs[j]).expect("fixed arity");
            }
            let mut est =
                BmlEstimator::new(WindowSpec::LatestMultiple(2), 2).with_policy(policy);
            if est.fit(&h).is_ok() {
                if let Ok(p) = est.predict(&feats[i]) {
                    preds.push(p[0].max(0.0));
                    actuals.push(costs[i][0]);
                }
            }
        }
        let mre = mean_relative_error(&preds, &actuals).unwrap_or(f64::NAN);
        println!("  {label:34} MRE = {mre:.3}");
    }

    // A token criterion measurement so the harness records something.
    let cfg = DreamConfig::uniform(0.8, 2, 30);
    let mut group = c.benchmark_group("ablation");
    group.sample_size(10);
    group.bench_function("dream_prequential", |b| {
        b.iter(|| black_box(dream_mre(&cfg, &feats, &costs)))
    });
    group.finish();
}

criterion_group!(benches, ablation_report);
criterion_main!(benches);
