//! Bench companion to **Table 2**: MLR fit cost as the window size `M`
//! grows, for all three solvers — the per-round cost of Algorithm 1's loop.
//! Beside it, the BML baseline of Tables 3/4: one tournament per window of
//! `estimation_replay`, and its MLP and bagging fits alone.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use midas_dream::mlr::{fit, SolveMethod};
use std::hint::black_box;

fn synth(m: usize, l: usize) -> (Vec<Vec<f64>>, Vec<f64>) {
    let feats: Vec<Vec<f64>> = (0..m)
        .map(|i| (0..l).map(|j| ((i * (j + 3)) % 17) as f64 + 0.5).collect())
        .collect();
    let targets: Vec<f64> = feats
        .iter()
        .enumerate()
        .map(|(i, f)| 5.0 + f.iter().sum::<f64>() * 2.0 + (i % 5) as f64 * 0.1)
        .collect();
    (feats, targets)
}

fn bench_mlr_fit(c: &mut Criterion) {
    let mut group = c.benchmark_group("mlr_fit");
    group.sample_size(30);
    for &m in &[6usize, 10, 30, 100, 300] {
        let (feats, targets) = synth(m, 4);
        let refs: Vec<&[f64]> = feats.iter().map(|r| r.as_slice()).collect();
        group.bench_with_input(BenchmarkId::new("normal_equations", m), &m, |b, _| {
            b.iter(|| fit(black_box(&refs), black_box(&targets), SolveMethod::NormalEquations))
        });
        group.bench_with_input(BenchmarkId::new("qr", m), &m, |b, _| {
            b.iter(|| fit(black_box(&refs), black_box(&targets), SolveMethod::Qr))
        });
        group.bench_with_input(BenchmarkId::new("ridge", m), &m, |b, _| {
            b.iter(|| fit(black_box(&refs), black_box(&targets), SolveMethod::Ridge(0.05)))
        });
    }
    group.finish();
}

fn bench_dream_full(c: &mut Criterion) {
    use midas_dream::{estimate_cost_value, estimate_cost_value_incremental, DreamConfig, History};
    let mut group = c.benchmark_group("dream_algorithm1");
    group.sample_size(20);
    for &n in &[20usize, 100, 500] {
        let mut h = History::new(4, 2);
        let (feats, targets) = synth(n, 4);
        for (f, t) in feats.iter().zip(targets.iter()) {
            // Add a wiggle so the R² gate actually exercises window growth.
            h.record(f, &[*t + (f[0] * 0.9).sin() * 3.0, t * 0.1]).expect("fixed arity");
        }
        // DREAM's ridge never reaches R² 0.999, so both walk every window up
        // to n: the reference refits each one, the online path updates sums.
        let cfg = DreamConfig::uniform(0.999, 2, n);
        group.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| estimate_cost_value(black_box(&h), black_box(&cfg)))
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &n, |b, _| {
            b.iter(|| estimate_cost_value_incremental(black_box(&h), black_box(&cfg)))
        });
    }
    group.finish();
}

/// 60 arrivals of a drifting two-metric cost over four table-size-like
/// features (the shape of `features_from`'s base and prepared row counts).
fn drifting_history() -> midas_dream::History {
    let mut h = midas_dream::History::new(4, 2);
    for i in 0..60 {
        let t = i as f64;
        let x = [
            6e5 * (1.0 + 0.3 * (t * 0.21).sin()),
            1.5e5 * (1.0 + 0.2 * (t * 0.5).cos()),
            1e4 * (1.0 + (t * 0.37).sin().abs()),
            200.0 + 40.0 * (t * 0.9).cos(),
        ];
        let load = if i % 20 < 10 { 1.0 } else { 1.6 };
        let time = load * (3.0 + x[2] * 2e-4 + x[0] * 1e-6) + (t * 1.7).sin();
        let money = 0.5 + x[3] * 1e-3 * load + if i % 7 == 0 { 0.4 } else { 0.0 };
        h.record(&x, &[time, money]).expect("fixed arity");
    }
    h
}

fn bench_bml_tournament(c: &mut Criterion) {
    use midas_dream::{CostEstimator, History};
    use midas_mlearn::{BmlEstimator, RegressorFamily, WindowSpec};
    let h = drifting_history();
    let mut group = c.benchmark_group("bml_tournament");
    group.sample_size(20);
    for (name, window) in [
        ("n", WindowSpec::LatestMultiple(1)),
        ("2n", WindowSpec::LatestMultiple(2)),
        ("3n", WindowSpec::LatestMultiple(3)),
        ("all", WindowSpec::All),
    ] {
        group.bench_function(BenchmarkId::new("fit", name), |b| {
            b.iter(|| {
                let mut bml = BmlEstimator::new(window, 2);
                bml.fit(black_box(&h)).expect("60 rows")
            })
        });
    }
    // The two families that dominate a tournament, alone, at the
    // 3N window and near the whole history.
    let families = RegressorFamily::paper_families();
    for rows in [18usize, 50] {
        let window = h.latest(rows);
        let xs: Vec<&[f64]> = window.iter().map(|o| o.features.as_slice()).collect();
        let ys = History::targets_of(window, 0);
        for family in &families[1..] {
            let name = family.build().family();
            group.bench_with_input(BenchmarkId::new(name, rows), &rows, |b, _| {
                b.iter(|| {
                    let mut model = family.build();
                    model
                        .fit(black_box(&xs), black_box(&ys))
                        .expect("enough rows");
                    model
                })
            });
        }
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_mlr_fit,
    bench_dream_full,
    bench_bml_tournament
);
criterion_main!(benches);
