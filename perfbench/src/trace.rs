//! In-memory spans recorded around public calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the unit of work (binary, invocation or request) it
//! belongs to. Spans stay in memory while the benchmark runs and are
//! written as JSON lines when it ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Most spans written to a trace file; a traced fleet run records
/// several hundred thousand, and the metrics use all of them.
pub const MAX_WRITTEN: usize = 100_000;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique id.
    pub id: u64,
    /// The span that caused this one.
    pub parent: Option<u64>,
    /// The unit of work (binary, invocation or request) it belongs to.
    pub unit: u64,
    /// Layer call name, such as `core.parse`.
    pub name: &'static str,
    /// Start, nanoseconds after the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds after the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Hands out span ids and converts instants to epoch offsets. Shared
/// by reference across the threads of one run; each thread records
/// into its own `Vec<Span>`.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next: AtomicU64,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// A tracer whose epoch is now.
    pub fn new() -> Tracer {
        Tracer { epoch: Instant::now(), next: AtomicU64::new(1) }
    }

    /// A fresh span id, for a span whose children are recorded before
    /// it ends.
    pub fn id(&self) -> u64 {
        self.next.fetch_add(1, Ordering::Relaxed)
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span under a previously allocated `id`.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &self,
        out: &mut Vec<Span>,
        id: u64,
        parent: Option<u64>,
        unit: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        out.push(Span { id, parent, unit, name, start_ns: self.ns(start), end_ns: self.ns(end) });
    }

    /// Runs `f` inside a new child span of `parent`.
    pub fn time<T>(
        &self,
        out: &mut Vec<Span>,
        parent: u64,
        unit: u64,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        self.push(out, self.id(), Some(parent), unit, name, start, end);
        value
    }
}

/// Total time and count of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed duration, nanoseconds.
    pub total_ns: u64,
    /// Spans seen.
    pub count: u64,
}

impl Tally {
    /// Mean duration in milliseconds (0 when no span was seen).
    pub fn mean_ms(&self) -> f64 {
        self.total_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

/// Self time per span name: each span's duration minus the part of its
/// interval that its children cover.
pub fn tally(spans: &[Span]) -> BTreeMap<&'static str, Tally> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, Tally> = BTreeMap::new();
    for s in spans {
        let covered = children.get_mut(&s.id).map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
        let t = out.entry(s.name).or_default();
        t.self_ns += s.dur_ns().saturating_sub(covered);
        t.total_ns += s.dur_ns();
        t.count += 1;
    }
    out
}

/// Length of the union of `intervals`, clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0u64, lo);
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Writes `spans` (at most [`MAX_WRITTEN`]) as JSON lines after a
/// header line naming the run.
pub fn write_jsonl(path: &Path, header: &str, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    let written = spans.len().min(MAX_WRITTEN);
    writeln!(w, "{{{header}, \"spans\": {}, \"written\": {written}}}", spans.len())?;
    for s in &spans[..written] {
        let parent = s.parent.map_or_else(|| "null".to_owned(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\": {}, \"parent\": {parent}, \"unit\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.id, s.unit, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, unit: 0, name, start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, "unit", 0, 100),
            span(2, Some(1), "parse", 10, 40),
            // Overlapping siblings count once.
            span(3, Some(1), "sweep", 30, 60),
            // A child reaching past its parent is clipped.
            span(4, Some(1), "derive", 90, 120),
            span(5, Some(2), "inner", 15, 20),
        ];
        let t = tally(&spans);
        assert_eq!(t["unit"].self_ns, 100 - (60 - 10) - (100 - 90));
        assert_eq!(t["parse"].self_ns, 30 - 5);
        assert_eq!(t["sweep"].self_ns, 30);
        assert_eq!(t["derive"], Tally { self_ns: 30, total_ns: 30, count: 1 });
        assert_eq!(t["inner"].count, 1);
    }

    #[test]
    fn tracer_records_nested_spans() {
        let tracer = Tracer::new();
        let mut out = Vec::new();
        let root = tracer.id();
        let start = Instant::now();
        let x = tracer.time(&mut out, root, 7, "work", || 41 + 1);
        tracer.push(&mut out, root, None, 7, "unit", start, Instant::now());
        assert_eq!(x, 42);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].parent, Some(root));
        assert!(out[1].start_ns <= out[0].start_ns && out[0].end_ns <= out[1].end_ns);
        let t = tally(&out);
        assert!(t["unit"].self_ns <= t["unit"].total_ns);
    }
}
