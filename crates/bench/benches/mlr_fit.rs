//! Bench companion to **Table 2**: MLR fit cost as the window size `M`
//! grows, for all three solvers — the per-round cost of Algorithm 1's loop.

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

criterion_group!(benches, bench_mlr_fit, bench_dream_full);
criterion_main!(benches);
