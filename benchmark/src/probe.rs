//! The benchmark's seam around the harness's [`Experiment`] trait.
//!
//! [`Probe::wrap`] hands the executor (or the serve backend) experiments
//! that delegate every call to the registry's own, so cache keys, payloads
//! and rendered output are unchanged. Its progress [`hook`](Probe::hook)
//! fires once the scheduler has journaled and cached a point; every run
//! records there how long after the pass began each point was delivered,
//! the point latency the cold workloads report (what a `POST /run`
//! client sees as its progress stream). While tracing is on, the probe
//! also records spans: `harness.point` per computed point,
//! `harness.render`, `harness.validate`, and `harness.writeback` from a
//! point's compute end to its delivery.

use crate::trace::{SpanId, Tracer};
use sparten_bench::{Capture, ExperimentKind};
use sparten_harness::executor::{PointOrigin, ProgressHook};
use sparten_harness::{Experiment, PointPayload};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// Shared recorder behind every wrapped experiment.
pub struct Probe {
    tracer: Arc<Tracer>,
    tracing: AtomicBool,
    /// Current pass span (`u64::MAX` = none) and pass id, for parents.
    pass_span: AtomicU64,
    pass_id: AtomicU64,
    pass_start: Mutex<Instant>,
    /// Seconds from pass start to each computed point's delivery.
    delivered: Mutex<Vec<f64>>,
    /// Compute end (tracer clock) per `(job, point)`, awaiting writeback.
    computed_at: Mutex<HashMap<(String, usize), u64>>,
}

fn locked<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("a thread panicked while holding a probe lock")
}

impl Probe {
    /// A probe recording into `tracer`, with tracing off.
    pub fn new(tracer: Arc<Tracer>) -> Arc<Probe> {
        Arc::new(Probe {
            tracer,
            tracing: AtomicBool::new(false),
            pass_span: AtomicU64::new(u64::MAX),
            pass_id: AtomicU64::new(0),
            pass_start: Mutex::new(Instant::now()),
            delivered: Mutex::new(Vec::new()),
            computed_at: Mutex::new(HashMap::new()),
        })
    }

    /// Wraps each experiment so its calls pass through this probe.
    pub fn wrap(self: &Arc<Self>, exps: Vec<Arc<dyn Experiment>>) -> Vec<Arc<dyn Experiment>> {
        exps.into_iter()
            .map(|inner| {
                Arc::new(Probed {
                    inner,
                    probe: Arc::clone(self),
                }) as Arc<dyn Experiment>
            })
            .collect()
    }

    /// Turns span recording on or off; `pass` parents the spans that
    /// follow and `id` tags them.
    pub fn set_tracing(&self, on: bool, pass: Option<SpanId>, id: u64) {
        let span = pass.map_or(u64::MAX, |s| s as u64);
        self.pass_span.store(span, Ordering::SeqCst);
        self.pass_id.store(id, Ordering::SeqCst);
        self.tracing.store(on, Ordering::SeqCst);
    }

    fn traced(&self) -> bool {
        self.tracing.load(Ordering::SeqCst)
    }

    fn parent(&self) -> (Option<SpanId>, u64) {
        let span = self.pass_span.load(Ordering::SeqCst);
        let parent = (span != u64::MAX).then_some(span as usize);
        (parent, self.pass_id.load(Ordering::SeqCst))
    }

    /// Starts the clock point delivery is timed against.
    pub fn begin_pass(&self) {
        *locked(&self.pass_start) = Instant::now();
    }

    /// Drains the delivery latencies (seconds) recorded so far.
    pub fn take_delivered(&self) -> Vec<f64> {
        std::mem::take(&mut *locked(&self.delivered))
    }

    /// A progress hook that times each computed point's delivery and, while
    /// tracing, closes its writeback span.
    pub fn hook(self: &Arc<Self>) -> ProgressHook {
        let probe = Arc::clone(self);
        ProgressHook(Arc::new(move |job, point, origin| {
            if origin != PointOrigin::Computed {
                return;
            }
            let since_start = locked(&probe.pass_start).elapsed().as_secs_f64();
            locked(&probe.delivered).push(since_start);
            if !probe.traced() {
                return;
            }
            let start = locked(&probe.computed_at).remove(&(job.to_string(), point));
            if let Some(start) = start {
                let (parent, id) = probe.parent();
                probe
                    .tracer
                    .record("harness.writeback", start, probe.tracer.now(), parent, id);
            }
        }))
    }
}

struct Probed {
    inner: Arc<dyn Experiment>,
    probe: Arc<Probe>,
}

impl Experiment for Probed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn kind(&self) -> ExperimentKind {
        self.inner.kind()
    }

    fn deps(&self) -> &'static [&'static str] {
        self.inner.deps()
    }

    fn num_points(&self) -> usize {
        self.inner.num_points()
    }

    fn fingerprint(&self) -> String {
        self.inner.fingerprint()
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        if !self.probe.traced() {
            return self.inner.compute_point(point);
        }
        let tracer = &self.probe.tracer;
        let start = tracer.now();
        let payload = self.inner.compute_point(point);
        let end = tracer.now();
        let (parent, id) = self.probe.parent();
        tracer.record("harness.point", start, end, parent, id);
        locked(&self.probe.computed_at).insert((self.inner.name().to_string(), point), end);
        payload
    }

    fn validate(&self, point: usize, payload: &PointPayload) -> bool {
        if !self.probe.traced() {
            return self.inner.validate(point, payload);
        }
        let (parent, id) = self.probe.parent();
        self.probe.tracer.time("harness.validate", parent, id, || {
            self.inner.validate(point, payload)
        })
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        if !self.probe.traced() {
            return self.inner.render(points);
        }
        let (parent, id) = self.probe.parent();
        self.probe
            .tracer
            .time("harness.render", parent, id, || self.inner.render(points))
    }
}
