//! In-memory spans for the traced runs.
//!
//! A span is a name, a start and an end (ns since the tracer's epoch), the
//! span that caused it, an id tying it to its pass or request, and the
//! thread it ran on. Spans stay in memory while the run lasts and are
//! written out once, as a Chrome trace, when it ends. A span's *self time*
//! is its duration minus the part of it that its direct children cover;
//! summed per name, self times split busy time among the layers without
//! counting any instant twice.

use sparten_bench::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.dense`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch (equal to `start` while open).
    pub end: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Pass or request id.
    pub id: u64,
    /// Small per-thread number, for the trace viewer's tracks.
    pub tid: u64,
}

/// A thread-safe span recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    static TID: u64 = {
        use std::sync::atomic::{AtomicU64, Ordering};
        static NEXT: AtomicU64 = AtomicU64::new(1);
        NEXT.fetch_add(1, Ordering::Relaxed)
    };
}

/// This thread's small trace id.
pub fn thread_tid() -> u64 {
    TID.with(|t| *t)
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &self,
        name: &'static str,
        start: u64,
        end: u64,
        parent: Option<SpanId>,
        id: u64,
    ) -> SpanId {
        let mut spans = self.lock();
        spans.push(Span {
            name,
            start,
            end: end.max(start),
            parent,
            id,
            tid: thread_tid(),
        });
        spans.len() - 1
    }

    /// Opens a span that [`close`](Self::close) ends, so children can
    /// name it as their parent while it runs.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, id: u64) -> SpanId {
        let now = self.now();
        self.record(name, now, now, parent, id)
    }

    /// Ends an open span now.
    pub fn close(&self, span: SpanId) {
        let now = self.now();
        self.lock()[span].end = now;
    }

    /// Runs `f` inside a span.
    pub fn time<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        self.record(name, start, self.now(), parent, id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Total length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time (ns) of every span: its duration minus the union of its
/// direct children's intervals within it. Children may overlap each
/// other (parallel workers) or run past their parent; neither makes the
/// result negative or counts an instant twice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| (s.end - s.start) - covered(kids, s.start, s.end))
        .collect()
}

/// Self time summed per span name, in seconds.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0.0) += t as f64 / 1e9;
    }
    out
}

/// Durations (seconds) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end - s.start) as f64 / 1e9)
        .collect()
}

/// The spans as a Chrome trace (open in Perfetto or `chrome://tracing`).
pub fn chrome_trace(spans: &[Span]) -> String {
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let mut args = vec![("span", Json::UInt(i as u64)), ("id", Json::UInt(s.id))];
            if let Some(p) = s.parent {
                args.push(("parent", Json::UInt(p as u64)));
            }
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Float(s.start as f64 / 1e3)),
                ("dur", Json::Float((s.end - s.start) as f64 / 1e3)),
                ("pid", Json::UInt(1)),
                ("tid", Json::UInt(s.tid)),
                ("args", Json::obj(args)),
            ])
        })
        .collect();
    Json::obj([("traceEvents", Json::Arr(events))]).compact()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            id: 0,
            tid: 0,
        }
    }

    #[test]
    fn nested_spans_charge_only_direct_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grandchild", 20, 40, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 30, 20]);
        // Self times partition the root's busy time exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two workers under one pass: [10, 50) and [30, 80) cover 70.
        let spans = vec![
            span("pass", 0, 100, None),
            span("point", 10, 50, Some(0)),
            span("point", 30, 80, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 40, 50]);
        let by_name = self_seconds_by_name(&spans);
        assert!((by_name["point"] - 90e-9).abs() < 1e-18);
    }

    #[test]
    fn children_past_the_parent_are_clipped() {
        let spans = vec![
            span("parent", 10, 50, None),
            span("early", 0, 20, Some(0)),
            span("late", 40, 90, Some(0)),
            span("inside", 15, 45, Some(0)),
        ];
        // Covered within [10, 50): [10, 50) entirely.
        assert_eq!(self_times(&spans)[0], 0);
    }

    #[test]
    fn open_close_and_time_nest() {
        let t = Tracer::new();
        let root = t.open("root", None, 7);
        let x = t.time("work", Some(root), 7, || 41 + 1);
        t.close(root);
        assert_eq!(x, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start <= spans[1].start && spans[1].end <= spans[0].end);
        let selfs = self_times(&spans);
        assert_eq!(selfs[0] + selfs[1], spans[0].end - spans[0].start);
        let trace = chrome_trace(&spans);
        assert!(trace.starts_with("{\"traceEvents\":["));
        assert!(Json::parse(&trace).is_ok());
    }
}
