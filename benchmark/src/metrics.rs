//! The metric tables — the single definition `BENCHMARK.json`, the README
//! and every workload's output follow — and the report a workload returns.

/// End-to-end metrics, `(name, unit)`. Every workload reports every one.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
];

/// Direction and regression bound of each end-to-end metric,
/// `(name, higher is better, bound)`: the share of the parent's median by
/// which the metric may get worse before a change counts as a regression.
pub const BOUNDS: &[(&str, bool, f64)] = &[
    ("jobs_per_s", true, 0.25),
    ("job_p50_ms", false, 0.25),
    ("job_p95_ms", false, 0.25),
    ("peak_rss_mib", false, 0.2),
    ("setup_s", false, 0.25),
];

/// Per-layer metrics, `(name, unit)`. Every workload reports every one; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // tpch
    ("tpch.generate_s", "s"),
    ("tpch.delta_batch_us", "us"),
    // engines::analyze
    ("analyze.validate_us", "us"),
    // engines::version
    ("version.pin_us", "us"),
    ("version.append_batch_us", "us"),
    ("version.compaction_bytes_per_publish", "bytes"),
    ("version.chunks_at_end", "count"),
    // engines::cache
    ("cache.fingerprint_us", "us"),
    ("cache.plan_probe_us", "us"),
    ("cache.invalidate_us", "us"),
    ("cache.plan_hit_ratio", "ratio"),
    ("cache.fragment_hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("cache.resident_bytes", "bytes"),
    // ires::enumerate
    ("enumerate.for_query_us", "us"),
    ("enumerate.assemble_us", "us"),
    ("enumerate.space_size", "count"),
    // ires::costmodel
    ("costmodel.build_ms", "ms"),
    ("costmodel.apply_pressure_us", "us"),
    ("costmodel.predict_mre", "ratio"),
    // ires::optimizer + moo
    ("optimizer.select_us", "us"),
    ("optimizer.ga_ms", "ms"),
    ("optimizer.evaluations", "count"),
    ("optimizer.pareto_size", "count"),
    // engines::exec / fused / ops / sim
    ("exec.run_ms", "ms"),
    ("fragment.left_prepare_ms", "ms"),
    ("fragment.right_prepare_ms", "ms"),
    ("fragment.combine_ms", "ms"),
    ("exec.overhead_ms", "ms"),
    ("exec.q12_ms", "ms"),
    ("exec.q13_ms", "ms"),
    ("exec.q14_ms", "ms"),
    ("exec.q17_ms", "ms"),
    ("exec.rows_in_per_job", "rows"),
    ("exec.bytes_in_per_job", "bytes"),
    ("sim.admission_wait_ms", "ms"),
    // ires::modelling + dream
    ("learn.observe_us", "us"),
    ("dream.fit_us", "us"),
    ("dream.window_mean", "count"),
    ("dream.mre", "ratio"),
    ("dream.mre_vs_best_bml", "ratio"),
    // mlearn + linalg
    ("mlearn.bml_fit_ms", "ms"),
    ("mlearn.bml_all_fit_ms", "ms"),
    // midas::runtime
    ("ingest.publish_p50_ms", "ms"),
    ("report.fingerprint_us", "us"),
    ("report.release_us", "us"),
    ("runtime.queue_wait_ms", "ms"),
    ("runtime.job_p99_ms", "ms"),
    ("runtime.overhead_us", "us"),
    ("runtime.scaling_2w", "ratio"),
    // the trace itself
    ("trace.job_us", "us"),
    ("trace.unattributed_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One reported value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its unit from the same table.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// A full set of values for one of the metric tables, all starting at 0.
#[derive(Debug, Clone)]
pub struct MetricSet {
    table: &'static [(&'static str, &'static str)],
    values: Vec<f64>,
}

impl MetricSet {
    /// All of [`END_TO_END`], zeroed.
    pub fn end_to_end() -> Self {
        Self::zeroed(END_TO_END)
    }

    /// All of [`PER_LAYER`], zeroed.
    pub fn per_layer() -> Self {
        Self::zeroed(PER_LAYER)
    }

    fn zeroed(table: &'static [(&'static str, &'static str)]) -> Self {
        MetricSet {
            table,
            values: vec![0.0; table.len()],
        }
    }

    /// Sets one value. Panics on a name missing from the table: that is a
    /// typo in this program, never an input.
    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self
            .table
            .iter()
            .position(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[slot] = value;
    }

    /// The values in table order.
    pub fn into_metrics(self) -> Vec<Metric> {
        self.table
            .iter()
            .zip(self.values)
            .map(|((name, unit), value)| Metric { name, unit, value })
            .collect()
    }
}

/// What one workload process reports.
#[derive(Debug, Clone)]
pub struct Report {
    /// Jobs / arrivals submitted in the measured phase.
    pub attempted: u64,
    /// Of those: failed, missing from the report, or with a wrong result.
    pub failed: u64,
    /// Every output check that did not hold (empty = correct).
    pub problems: Vec<String>,
    /// End-to-end metrics (`--trace 0`) or per-layer metrics (`--trace 1`).
    pub metrics: Vec<Metric>,
    /// Final sizes and sample counts, `(what, value)`.
    pub info: Vec<(String, String)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16, "{name} {unit}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }

    fn unit_of(name: &str) -> &'static str {
        END_TO_END
            .iter()
            .find(|(n, _)| *n == name)
            .expect("a bound per end-to-end metric")
            .1
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for (name, higher_is_better, bound) in BOUNDS {
            let better = if *higher_is_better { "higher" } else { "lower" };
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {bound}}}", unit_of(name));
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = crate::workloads::NAMES.len();
        assert_eq!(
            text.matches("\"name\": ").count(),
            END_TO_END.len() + PER_LAYER.len() + workloads
        );
    }

    #[test]
    fn metric_set_reports_every_name_in_table_order() {
        let mut set = MetricSet::end_to_end();
        set.set("setup_s", 1.5);
        let metrics = set.into_metrics();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(
            metrics.last().map(|m| (m.name, m.value)),
            Some(("setup_s", 1.5))
        );
        assert!(metrics[..metrics.len() - 1].iter().all(|m| m.value == 0.0));
    }
}
