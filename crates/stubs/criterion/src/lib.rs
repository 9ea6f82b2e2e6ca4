//! Offline stand-in for `criterion`.
//!
//! Implements the subset the workspace benches use — benchmark groups,
//! `bench_function` / `bench_with_input`, `iter` / `iter_custom`,
//! `BenchmarkId`, `sample_size`,
//! `criterion_group!` / `criterion_main!` — with real wall-clock
//! measurement: per benchmark it warms up, takes one timing sample per
//! iteration up to the configured sample count (bounded by a time budget),
//! and reports min / median / max. `--test` (as passed by
//! `cargo bench -- --test`) runs each benchmark exactly once for a smoke
//! check, mirroring real criterion.

#![forbid(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Identifies one benchmark within a group (stub of `BenchmarkId`).
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// `function_name/parameter` identifier.
    pub fn new(function_name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            id: format!("{function_name}/{parameter}"),
        }
    }
}

/// Conversion into a benchmark identifier string.
pub trait IntoBenchmarkId {
    /// The rendered identifier.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// Hands iteration control to the benchmark closure.
pub struct Bencher<'a> {
    samples: &'a mut Vec<Duration>,
    target_samples: usize,
    test_mode: bool,
}

impl Bencher<'_> {
    /// Times `routine`, one sample per call, until the sample target or the
    /// per-benchmark time budget is reached.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine());
            return;
        }
        // Warmup: one untimed call.
        black_box(routine());
        let budget = Duration::from_secs(3);
        let started = Instant::now();
        for _ in 0..self.target_samples {
            let t0 = Instant::now();
            black_box(routine());
            self.samples.push(t0.elapsed());
            if started.elapsed() > budget && self.samples.len() >= 5 {
                break;
            }
        }
    }
}

impl Bencher<'_> {
    /// Times with `routine(iters)`, which runs `iters` iterations and
    /// returns the time they took (criterion's `iter_custom`): one sample
    /// per call, each of one iteration, until the sample target or the time
    /// budget is reached.
    pub fn iter_custom<R: FnMut(u64) -> Duration>(&mut self, mut routine: R) {
        if self.test_mode {
            black_box(routine(1));
            return;
        }
        // Warmup: one call, its time discarded.
        black_box(routine(1));
        let budget = Duration::from_secs(3);
        let started = Instant::now();
        for _ in 0..self.target_samples {
            self.samples.push(routine(1));
            if started.elapsed() > budget && self.samples.len() >= 5 {
                break;
            }
        }
    }
}

/// One recorded benchmark result.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// `group/function[/param]` identifier.
    pub id: String,
    /// Timing samples (one per iteration).
    pub samples: Vec<Duration>,
}

impl BenchResult {
    /// Median sample in seconds.
    pub fn median_s(&self) -> f64 {
        let mut v: Vec<f64> = self.samples.iter().map(|d| d.as_secs_f64()).collect();
        if v.is_empty() {
            return 0.0;
        }
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }
}

/// The benchmark driver (stub of `criterion::Criterion`).
#[derive(Default)]
pub struct Criterion {
    test_mode: bool,
    results: Vec<BenchResult>,
}

impl Criterion {
    /// Reads `--test` from the process arguments (as `cargo bench -- --test`
    /// passes it); other flags are accepted and ignored.
    pub fn configure_from_args(mut self) -> Self {
        self.test_mode = std::env::args().any(|a| a == "--test");
        self
    }

    /// Explicitly toggles smoke-test mode (run everything once, no timing).
    pub fn with_test_mode(mut self, test_mode: bool) -> Self {
        self.test_mode = test_mode;
        self
    }

    /// All results recorded so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// Opens a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Display) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            sample_size: 20,
        }
    }

    /// Benchmarks `f` outside any group.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let id = id.into_id();
        self.run_one(id, 20, f);
    }

    fn run_one<F: FnMut(&mut Bencher<'_>)>(&mut self, id: String, sample_size: usize, mut f: F) {
        let mut samples = Vec::new();
        let mut bencher = Bencher {
            samples: &mut samples,
            target_samples: sample_size,
            test_mode: self.test_mode,
        };
        f(&mut bencher);
        let result = BenchResult { id, samples };
        if self.test_mode {
            println!("test {} ... ok", result.id);
        } else {
            let med = result.median_s();
            println!("{:<50} median {:>12.6} ms ({} samples)", result.id, med * 1e3, result.samples.len());
        }
        self.results.push(result);
    }
}

/// A group of related benchmarks sharing settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    sample_size: usize,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample target.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Benchmarks `f` under `group/id`.
    pub fn bench_function<F: FnMut(&mut Bencher<'_>)>(&mut self, id: impl IntoBenchmarkId, f: F) {
        let full = format!("{}/{}", self.name, id.into_id());
        let n = self.sample_size;
        self.criterion.run_one(full, n, f);
    }

    /// Benchmarks `f` with a borrowed input under `group/id`.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher<'_>, &I)>(
        &mut self,
        id: impl IntoBenchmarkId,
        input: &I,
        mut f: F,
    ) {
        let full = format!("{}/{}", self.name, id.into_id());
        let n = self.sample_size;
        self.criterion.run_one(full, n, |b| f(b, input));
    }

    /// Ends the group (kept for API parity; nothing to flush).
    pub fn finish(&mut self) {}
}

/// Declares a group-runner function from benchmark functions.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default().configure_from_args();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_record_results_and_test_mode_runs_once() {
        let mut c = Criterion::default().with_test_mode(true);
        let mut calls = 0u32;
        {
            let mut g = c.benchmark_group("g");
            g.sample_size(10);
            g.bench_function("f", |b| b.iter(|| calls += 1));
            g.bench_with_input(BenchmarkId::new("p", 3), &3, |b, &x| {
                b.iter(|| black_box(x * 2))
            });
            g.finish();
        }
        assert_eq!(calls, 1, "--test mode runs the routine exactly once");
        assert_eq!(c.results().len(), 2);
        assert_eq!(c.results()[0].id, "g/f");
        assert_eq!(c.results()[1].id, "g/p/3");
    }

    #[test]
    fn measurement_collects_samples() {
        let mut c = Criterion::default();
        c.bench_function("tiny", |b| b.iter(|| black_box(1 + 1)));
        let r = &c.results()[0];
        assert!(!r.samples.is_empty());
        assert!(r.median_s() >= 0.0);
    }
}
