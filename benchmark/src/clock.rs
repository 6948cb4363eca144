//! Wall-clock timing and the traced run's in-memory span log.
//!
//! This is the only file of the benchmark that reads the wall clock.
//! Nothing measured here feeds back into the program under test: the
//! replays stay pure functions of (trace, seed, config), which the
//! correctness checks rely on.

// The workspace clippy config bans wall-clock types outside the bench
// harness; this module is the benchmark's harness.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

use std::collections::BTreeMap;
use std::sync::Mutex;
// lint:allow(no-wall-clock): the benchmark measures wall time around calls into the library; no measured value reaches program output
use std::time::Instant;

/// A started wall-clock timer.
#[derive(Debug, Clone, Copy)]
// lint:allow(no-wall-clock): benchmark timer
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Stopwatch {
        // lint:allow(no-wall-clock): benchmark timer
        Stopwatch(Instant::now())
    }

    /// Nanoseconds since start.
    pub fn ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }

    /// Seconds since start.
    pub fn secs(&self) -> f64 {
        self.0.elapsed().as_secs_f64()
    }
}

/// Runs `f` and returns its result with the wall nanoseconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let sw = Stopwatch::start();
    let out = f();
    (out, sw.ns())
}

/// One recorded span: a layer boundary the benchmark called through.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name (the per-layer metric family it feeds).
    pub name: &'static str,
    /// Start, in ns since the log's origin.
    pub start_ns: u64,
    /// End, in ns since the log's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request line number, job index or batch index the span served.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Spans kept in memory while the traced run executes and written out
/// once at the end. Safe to record into from pool worker threads.
#[derive(Debug)]
pub struct SpanLog {
    origin: Stopwatch,
    spans: Mutex<Vec<Span>>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            origin: Stopwatch::start(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Ns since the log's origin.
    pub fn now(&self) -> u64 {
        self.origin.ns()
    }

    /// Records a finished span and returns its index.
    pub fn record(
        &self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        id: u64,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span log lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            id,
        });
        spans.len() - 1
    }

    /// Opens a span now; close it with [`SpanLog::close`].
    pub fn open(&self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let now = self.now();
        self.record(name, now, now, parent, id)
    }

    /// Closes a span opened with [`SpanLog::open`] and returns its duration.
    pub fn close(&self, index: usize) -> u64 {
        let now = self.now();
        let mut spans = self.spans.lock().expect("span log lock");
        spans[index].end_ns = now;
        spans[index].dur_ns()
    }

    /// Runs `f` inside a span and returns its result with the span's ns.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let index = self.open(name, parent, id);
        let out = f();
        let ns = self.close(index);
        (out, ns)
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans_from(0)
    }

    /// A copy of the spans recorded from index `from` on; the span at
    /// absolute index `i` lands at `i - from`.
    pub fn spans_from(&self, from: usize) -> Vec<Span> {
        self.spans.lock().expect("span log lock")[from..].to_vec()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.lock().expect("span log lock").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Self time per span name: each span's duration minus the part of its
    /// interval covered by its direct children. Children running in
    /// parallel on pool workers count once (their intervals are merged).
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let spans = self.spans();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, s) in spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let covered = union_ns(
                children[i]
                    .iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns)),
                s.start_ns,
                s.end_ns,
            );
            *out.entry(s.name).or_insert(0) += s.dur_ns().saturating_sub(covered);
        }
        out
    }

    /// The spans as JSONL, one object per span in record order.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans().iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"span\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"id\":{}}}\n",
                s.name, s.start_ns, s.end_ns, s.id
            ));
        }
        out
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn union_ns(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .map(|(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_merges_overlaps_and_clips() {
        let iv = [(0, 10), (5, 15), (20, 30), (28, 40)];
        assert_eq!(union_ns(iv.into_iter(), 0, 100), 35);
        assert_eq!(union_ns(iv.into_iter(), 8, 25), 7 + 5);
        assert_eq!(union_ns(std::iter::empty(), 0, 10), 0);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let log = SpanLog::new();
        let root = log.record("root", 0, 100, None, 0);
        log.record("child", 10, 40, Some(root), 1);
        log.record("child", 20, 50, Some(root), 2);
        let selfs = log.self_ns();
        assert_eq!(selfs["root"], 60);
        assert_eq!(selfs["child"], 60);
        assert_eq!(log.spans_from(1).len(), 2);
        assert_eq!(log.to_jsonl().lines().count(), 3);
    }
}
