//! The pass machinery the two cold workloads share: one `executor::run`
//! from an empty cache in a fresh in-memory store, the checks every cold
//! pass must pass, and the metrics both report.

use crate::memfs::{Counts, MemFs};
use crate::probe::Probe;
use crate::stats::median;
use crate::trace::{self, Span};
use crate::window::PassOutcome;
use crate::{Ctx, Report};
use sparten_harness::executor::{self, RunOptions, RunReport};
use sparten_harness::Experiment;
use std::sync::Arc;
use std::time::Instant;

/// One cold executor pass over `exps` with a fresh in-memory state store.
pub struct Pass {
    /// Host seconds of `executor::run`.
    pub wall: f64,
    /// The executor's report, or why the run could not start.
    pub report: Result<RunReport, String>,
    /// The pass's state store.
    pub fs: Arc<MemFs>,
    /// The store's operation counts when the run returned, before any
    /// output check read it.
    pub counts: Counts,
}

/// Runs `exps` once, cold, the way `harness run` does: journaled,
/// artifact-writing, on `ctx.workers` workers.
pub fn cold_pass(ctx: &Ctx, exps: &[Arc<dyn Experiment>], probe: &Arc<Probe>, id: u64) -> Pass {
    let fs = Arc::new(MemFs::new());
    let opts = RunOptions {
        jobs: ctx.workers,
        cache_dir: "cache".into(),
        journal_dir: Some("journal".into()),
        failures_path: Some("failures.json".into()),
        stream_output: false,
        run_id: Some(format!("pass-{id}")),
        progress: Some(probe.hook()),
        vfs: fs.clone(),
        ..RunOptions::default()
    };
    probe.begin_pass();
    let start = Instant::now();
    let report = executor::run(exps, &opts);
    let wall = start.elapsed().as_secs_f64();
    Pass {
        wall,
        report,
        counts: fs.counts(),
        fs,
    }
}

/// The checks every cold pass must pass, besides its output: it ran,
/// nothing was quarantined, and nothing came from a cache.
pub fn check_cold(report: &Result<RunReport, String>) -> Result<&RunReport, String> {
    let report = report.as_ref().map_err(Clone::clone)?;
    if !report.all_ok() {
        return Err(format!("{} point(s) failed", report.failures.len()));
    }
    if report.cache.hits != 0 {
        return Err(format!("cold pass had {} cache hit(s)", report.cache.hits));
    }
    Ok(report)
}

/// A cold pass as one op: its points' delivery times from the probe, or
/// `points` infinitely slow ones if `check` failed.
pub fn outcome(
    probe: &Probe,
    id: u64,
    pass: &Pass,
    points: usize,
    check: Result<(), String>,
) -> PassOutcome {
    PassOutcome::single(id, pass.wall, &probe.take_delivered(), points, check)
}

/// `harness.point_s` and `harness.render_s` (per pass, over `n` passes)
/// and `harness.point_max_s`, from the `Experiment` wrapper's spans.
/// Returns the total point time.
pub fn experiment_metrics(report: &mut Report, spans: &[Span], n: f64) -> f64 {
    let points = trace::durations(spans, "harness.point");
    let busy: f64 = points.iter().sum();
    report.set("harness.point_s", busy / n);
    report.set(
        "harness.point_max_s",
        points.iter().copied().fold(0.0, f64::max),
    );
    let render: f64 = trace::durations(spans, "harness.render").iter().sum();
    report.set("harness.render_s", render / n);
    busy
}

/// Per-layer harness and storage metrics of the traced passes, averaged
/// per pass. `spans` are the traced passes' spans.
pub fn harness_metrics(report: &mut Report, ctx: &Ctx, spans: &[Span], passes: &[&Pass]) {
    let n = passes.len().max(1) as f64;
    let busy = experiment_metrics(report, spans, n);
    let walls: f64 = passes.iter().map(|p| p.wall).sum();
    report.set(
        "harness.worker_busy_ratio",
        busy / (walls * ctx.workers as f64),
    );
    let writeback_us: Vec<f64> = trace::durations(spans, "harness.writeback")
        .iter()
        .map(|s| s * 1e6)
        .collect();
    report.set(
        "harness.point_overhead_us",
        median(&writeback_us).unwrap_or(0.0),
    );
    let mut sum = |name: &str, get: &dyn Fn(&Pass) -> f64| {
        report.set(name, passes.iter().map(|p| get(p)).sum::<f64>() / n)
    };
    let cache = |p: &Pass| {
        p.report
            .as_ref()
            .map_or((0, 0), |r| (r.cache.hits, r.cache.misses))
    };
    sum("harness.cache_hits", &|p| cache(p).0 as f64);
    sum("harness.cache_misses", &|p| cache(p).1 as f64);
    sum("vfs.writes", &|p| p.counts.writes as f64);
    sum("vfs.write_bytes", &|p| p.counts.write_bytes as f64);
    sum("vfs.syncs", &|p| p.counts.syncs as f64);
    sum("vfs.renames", &|p| p.counts.renames as f64);
    sum("vfs.reads", &|p| p.counts.reads as f64);
    sum("vfs.read_bytes", &|p| p.counts.read_bytes as f64);
}
