//! Bench-side stage trace: spans recorded around the calls the benchmark
//! makes into each layer's public functions.
//!
//! Spans stay in memory and are written once, when the workload ends. A
//! span's parent is the span that was open when it started, so nesting
//! follows the call structure; a layer's number is its spans' *self* time
//! (duration minus the part covered by child spans). The tracer runs on
//! one thread only — the traced run is single-threaded by design.

use std::io::Write;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the span in recording order.
    pub id: u32,
    /// Layer-qualified name (`"costmodel.build"`, …).
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The job / arrival / publish the span belongs to; spans of one
    /// request share it.
    pub job: u64,
}

impl Span {
    /// `end − start`.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans when on; calls straight through when off, so traced and
/// untraced runs share one code path.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    enabled: bool,
}

impl Tracer {
    /// A recording tracer.
    pub fn on() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            enabled: true,
        }
    }

    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Runs `f` inside a span named `name` belonging to `job`. Spans
    /// started by `f` through the tracer it is handed become children.
    pub fn span<T>(&mut self, name: &'static str, job: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.spans.push(Span {
            id,
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            job,
        });
        self.open.push(id);
        self.spans[id as usize].start_ns = self.origin.elapsed().as_nanos() as u64;
        let value = f(self);
        self.spans[id as usize].end_ns = self.origin.elapsed().as_nanos() as u64;
        self.open.pop();
        value
    }

    /// Everything recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Mean wall cost in nanoseconds of recording one empty span, measured
    /// on a scratch tracer — what each recorded span adds to a traced run.
    pub fn empty_span_cost_ns() -> f64 {
        const PROBES: u32 = 20_000;
        let mut scratch = Tracer::on();
        let started = Instant::now();
        for i in 0..PROBES {
            scratch.span("probe", u64::from(i), |_| std::hint::black_box(i));
        }
        let elapsed = started.elapsed().as_nanos() as f64;
        std::hint::black_box(scratch.spans().len());
        elapsed / f64::from(PROBES)
    }

    /// Writes the spans as one JSON array of
    /// `{id, name, start_ns, end_ns, parent, job}` objects.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"job\":{}}}{}",
                s.id, s.name, s.start_ns, s.end_ns, parent, s.job, comma
            )?;
        }
        out.write_all(b"]\n")?;
        out.flush()
    }
}

/// Self time of every span, aligned with `spans`: its duration minus the
/// durations of its direct children.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(parent) = s.parent {
            let slot = &mut own[parent as usize];
            *slot = slot.saturating_sub(s.duration_ns());
        }
    }
    own
}

/// Per-name totals over a trace.
pub struct Summary<'a> {
    spans: &'a [Span],
    own: Vec<u64>,
}

impl<'a> Summary<'a> {
    /// Computes self times once for repeated queries.
    pub fn of(spans: &'a [Span]) -> Self {
        Summary {
            spans,
            own: self_times_ns(spans),
        }
    }

    /// Total self time of the spans named `name` whose job passes `keep`.
    pub fn self_ns_where(&self, name: &str, keep: impl Fn(u64) -> bool) -> u64 {
        self.spans
            .iter()
            .zip(&self.own)
            .filter(|(s, _)| s.name == name && keep(s.job))
            .map(|(_, own)| *own)
            .sum()
    }

    /// Total self time of the spans named `name`.
    pub fn self_ns(&self, name: &str) -> u64 {
        self.self_ns_where(name, |_| true)
    }

    /// Total duration (children included) of the spans named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            id,
            name: if parent.is_some() { "child" } else { "root" },
            start_ns,
            end_ns,
            parent,
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sibling_children() {
        // root 0..100 with children 10..30 and 40..90.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 30, Some(0)),
            span(2, 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn self_time_subtracts_only_direct_children_when_nested() {
        // root 0..100 > mid 10..90 > leaf 20..50.
        let spans = [
            span(0, 0, 100, None),
            span(1, 10, 90, Some(0)),
            span(2, 20, 50, Some(1)),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
        let summary = Summary::of(&spans);
        assert_eq!(summary.self_ns("child"), 80);
        assert_eq!(summary.total_ns("child"), 110);
    }

    #[test]
    fn tracer_nests_by_call_structure_and_off_records_nothing() {
        let mut tracer = Tracer::on();
        let value = tracer.span("job", 7, |t| {
            t.span("a", 7, |_| 1) + t.span("b", 7, |t| t.span("c", 7, |_| 2))
        });
        assert_eq!(value, 3);
        let parents: Vec<_> = tracer.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            [
                ("job", None),
                ("a", Some(0)),
                ("b", Some(0)),
                ("c", Some(2))
            ]
        );
        for s in tracer.spans() {
            assert!(s.end_ns >= s.start_ns);
            assert_eq!(s.job, 7);
        }
        let mut off = Tracer::off();
        assert_eq!(off.span("job", 1, |t| t.span("a", 1, |_| 5)), 5);
        assert!(off.spans().is_empty());
    }
}
