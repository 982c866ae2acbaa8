//! In-memory span and count recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into each crate's
//! public functions; nothing inside the program under test is
//! instrumented. Each span has a name, start and end (relative to the
//! recorder's origin), the span that caused it and the request it belongs
//! to. Counts (clauses, ranks, bytes, …) are recorded at the same
//! boundaries.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer boundary, e.g. `core.localize`.
    pub name: &'static str,
    /// Request the span belongs to.
    pub request: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Start, relative to the recorder's origin.
    pub start: Duration,
    /// End, relative to the recorder's origin (`None` while open).
    pub end: Option<Duration>,
}

/// A single-threaded recorder; threads keep their own and [`Tracer::merge`]
/// them at the end.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    /// An empty recorder whose clock starts at `origin`.
    pub fn new(origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// Opens a span and returns its handle.
    pub fn open(&mut self, name: &'static str, request: u64, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            request,
            parent,
            start: self.origin.elapsed(),
            end: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration.
    pub fn close(&mut self, handle: usize) -> Duration {
        let now = self.origin.elapsed();
        let span = &mut self.spans[handle];
        span.end = Some(now);
        now - span.start
    }

    /// Runs `f` inside a root span named `name`.
    pub fn time<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let handle = self.open(name, request, None);
        let out = f();
        self.close(handle);
        out
    }

    /// Records one sample of a count (or derived per-request value).
    pub fn count(&mut self, name: &'static str, value: f64) {
        self.counts.entry(name).or_default().push(value);
    }

    /// Appends another recorder's spans and counts (parent links are
    /// rebased onto this recorder's indices).
    pub fn merge(&mut self, other: Tracer) {
        let base = self.spans.len();
        let shift = other.origin.saturating_duration_since(self.origin);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            start: s.start + shift,
            end: s.end.map(|e| e + shift),
            ..s
        }));
        for (name, values) in other.counts {
            self.counts.entry(name).or_default().extend(values);
        }
    }

    /// Self time of every closed span: its duration minus the part of it
    /// that its child spans cover (children never overlap each other, since
    /// a recorder belongs to one thread).
    pub fn self_times(&self) -> Vec<Duration> {
        let duration = |s: &Span| s.end.map_or(Duration::ZERO, |e| e - s.start);
        let mut own: Vec<Duration> = self.spans.iter().map(duration).collect();
        for span in &self.spans {
            if let Some(parent) = span.parent {
                own[parent] = own[parent].saturating_sub(duration(span));
            }
        }
        own
    }

    /// Self times in milliseconds, grouped by span name.
    pub fn self_ms_by_name(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            if span.end.is_some() {
                out.entry(span.name)
                    .or_default()
                    .push(own.as_secs_f64() * 1e3);
            }
        }
        out
    }

    /// The recorded samples of one count.
    pub fn counts(&self, name: &str) -> &[f64] {
        self.counts.get(name).map_or(&[], Vec::as_slice)
    }

    /// The spans as JSON lines (`name`, `request`, `parent`, `start_us`,
    /// `end_us`, `self_us`).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, (span, own)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let end = span.end.unwrap_or(span.start);
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_us\":{:.3},\"end_us\":{:.3},\"self_us\":{:.3}}}",
                span.name,
                span.request,
                span.start.as_secs_f64() * 1e6,
                end.as_secs_f64() * 1e6,
                own.as_secs_f64() * 1e6,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now());
        let root = t.open("request", 1, None);
        let child = t.open("core.new", 1, Some(root));
        std::thread::sleep(Duration::from_millis(3));
        t.close(child);
        t.close(root);
        let own = t.self_times();
        let total = t.spans[root].end.unwrap() - t.spans[root].start;
        assert!(own[child] >= Duration::from_millis(3));
        assert_eq!(own[root] + own[child], total);
        let by_name = t.self_ms_by_name();
        assert_eq!(by_name["core.new"].len(), 1);
        assert_eq!(t.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn merge_rebases_parents_and_keeps_counts() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        a.time("x", 1, || ());
        a.count("maxsat.calls", 3.0);
        let mut b = Tracer::new(origin);
        let root = b.open("request", 2, None);
        let child = b.open("y", 2, Some(root));
        b.close(child);
        b.close(root);
        b.count("maxsat.calls", 5.0);
        a.merge(b);
        assert_eq!(a.spans[2].parent, Some(1));
        assert_eq!(a.counts("maxsat.calls"), &[3.0, 5.0]);
        assert!(a.counts("missing").is_empty());
    }
}
