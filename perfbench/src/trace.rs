//! In-memory span recorder for the traced run, and the percentile,
//! self-time and overhead arithmetic the reported metrics are built from.
//!
//! A span is a named interval around one call into a layer, with the span
//! that was open when it started as its parent and a request or round id.
//! Spans stay in memory until the run ends and are then written out as
//! JSON lines. A disabled recorder records nothing, so the untraced run
//! pays one branch per call site.

use std::io::{self, Write};
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `sim.step` or `daemon.handle_line`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Round number (engine) or request id (daemon); 0 when neither applies.
    pub id: u64,
}

impl Span {
    /// Wall time between start and end.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle of an open span; pass it back to [`Recorder::end`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(Option<usize>);

/// Records spans when enabled; does nothing otherwise.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    /// A recorder that keeps spans (`enabled`) or ignores them.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn begin(&mut self, name: &'static str, id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            id,
        });
        self.open.push(index);
        SpanId(Some(index))
    }

    /// Closes `span`, which must be the innermost open span.
    pub fn end(&mut self, span: SpanId) {
        let Some(index) = span.0 else { return };
        let innermost = self.open.pop();
        assert_eq!(innermost, Some(index), "spans must close innermost first");
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> T) -> T {
        let span = self.begin(name, id);
        let out = f();
        self.end(span);
        out
    }

    /// Durations of the spans called `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| ns_to_ms(s.duration_ns()))
            .collect()
    }

    /// `(id, milliseconds)` of every span called `name`.
    pub fn durations_by_id_ms(&self, name: &str) -> Vec<(u64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.id, ns_to_ms(s.duration_ns())))
            .collect()
    }

    /// Every span's duration minus the part of it its children cover.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, kids)| s.duration_ns() - covered_ns(s.start_ns, s.end_ns, kids.into_iter()))
            .collect()
    }

    /// Per span name: count, total and self time in ms, and the p50
    /// duration in ms. Sorted by total time, largest first.
    pub fn summary(&self) -> Vec<SpanSummary> {
        let self_ns = self.self_times_ns();
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut rows: Vec<SpanSummary> = names
            .into_iter()
            .map(|name| {
                let indices: Vec<usize> = (0..self.spans.len())
                    .filter(|&i| self.spans[i].name == name)
                    .collect();
                let total_ns: u64 = indices.iter().map(|&i| self.spans[i].duration_ns()).sum();
                let self_total: u64 = indices.iter().map(|&i| self_ns[i]).sum();
                SpanSummary {
                    name,
                    count: indices.len(),
                    total_ms: ns_to_ms(total_ns),
                    self_ms: ns_to_ms(self_total),
                    p50_ms: percentile(&self.durations_ms(name), 50.0),
                }
            })
            .collect();
        rows.sort_by(|a, b| b.total_ms.total_cmp(&a.total_ms));
        rows
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        let self_ns = self.self_times_ns();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"span":{i},"name":"{}","start_ns":{},"end_ns":{},"parent":{parent},"id":{},"self_ns":{}}}"#,
                s.name, s.start_ns, s.end_ns, s.id, self_ns[i]
            )?;
        }
        out.flush()
    }
}

/// One row of [`Recorder::summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanSummary {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded under the name.
    pub count: usize,
    /// Summed duration, ms.
    pub total_ms: f64,
    /// Summed self time, ms.
    pub self_ms: f64,
    /// Median duration, ms.
    pub p50_ms: f64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
pub fn covered_ns(lo: u64, hi: u64, intervals: impl Iterator<Item = (u64, u64)>) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .map(|(s, e)| (s.max(lo), e.min(hi)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for (s, e) in clipped {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// The `p`-th percentile (0–100) of `values`, interpolating linearly
/// between the two nearest ranks; 0 for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = p.clamp(0.0, 100.0) / 100.0 * (sorted.len() - 1) as f64;
    let below = rank.floor() as usize;
    let above = rank.ceil() as usize;
    sorted[below] + (sorted[above] - sorted[below]) * (rank - below as f64)
}

/// Median of `values`; 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0)
}

/// How much longer the traced run took than the untraced one, as a share
/// of the untraced time.
pub fn overhead_frac(traced_s: f64, untraced_s: f64) -> f64 {
    traced_s / untraced_s - 1.0
}

/// Milliseconds in `ns` nanoseconds.
pub fn ns_to_ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    fn recorder_with(spans: Vec<Span>) -> Recorder {
        let mut rec = Recorder::new(true);
        rec.spans = spans;
        rec
    }

    #[test]
    fn self_time_subtracts_children() {
        let rec = recorder_with(vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 50, 90, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ]);
        assert_eq!(rec.self_times_ns(), vec![40, 12, 40, 8]);
    }

    #[test]
    fn covered_merges_overlaps_and_clips() {
        // Overlapping children count once; parts outside the parent don't.
        let intervals = [(5, 20), (10, 30), (25, 40), (90, 120)];
        assert_eq!(covered_ns(10, 100, intervals.into_iter()), 30 + 10);
        assert_eq!(covered_ns(0, 10, std::iter::empty()), 0);
        assert_eq!(covered_ns(0, 10, [(3, 3)].into_iter()), 0);
    }

    #[test]
    fn percentiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(median(&v), 2.5);
        assert!((percentile(&v, 99.0) - 3.97).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 95.0), 96.0);
    }

    #[test]
    fn overhead_is_relative_to_untraced() {
        assert!((overhead_frac(1.1, 1.0) - 0.1).abs() < 1e-12);
        assert_eq!(overhead_frac(2.0, 2.0), 0.0);
        assert!(overhead_frac(0.9, 1.0) < 0.0);
    }

    #[test]
    fn recorder_nests_and_summarizes() {
        let mut rec = Recorder::new(true);
        let outer = rec.begin("outer", 7);
        rec.time("inner", 1, || std::thread::sleep(Duration::from_millis(2)));
        rec.time("inner", 2, || ());
        rec.end(outer);
        let spans = &rec.spans;
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(rec.durations_by_id_ms("inner").len(), 2);
        assert!(rec.durations_ms("inner")[0] >= 2.0);
        let summary = rec.summary();
        assert_eq!(summary[0].name, "outer");
        assert_eq!(summary[1].count, 2);
        assert!(summary[0].self_ms <= summary[0].total_ms - summary[1].total_ms + 1e-9);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let s = rec.begin("x", 0);
        rec.end(s);
        assert_eq!(rec.time("y", 0, || 5), 5);
        assert!(rec.spans.is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn out_of_order_close_panics() {
        let mut rec = Recorder::new(true);
        let a = rec.begin("a", 0);
        let _b = rec.begin("b", 0);
        rec.end(a);
    }
}
