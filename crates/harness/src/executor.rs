//! The worker-pool executor: schedules experiment points across threads,
//! consults the cache, and emits per-job output in deterministic order.
//!
//! Scheduling model:
//!
//! * the *scheduler* (calling thread) owns the job graph and the cache;
//! * `jobs` worker threads pull `(job, point)` tasks from a shared queue
//!   and compute payloads — points of different jobs and of the same job
//!   interleave freely;
//! * completed payloads flow back to the scheduler, which writes cache
//!   entries, fires dependent jobs when their dependencies finish, and
//!   renders each finished job exactly once;
//! * job output (text and artifacts) is emitted in *registry order*, not
//!   completion order, so a run's transcript is bit-identical no matter
//!   how many workers raced on it.
//!
//! The executor *self-heals*: a panicking point is caught on the worker
//! and retried deterministically (same inputs, bounded attempts); a point
//! that exceeds the per-point watchdog deadline is abandoned, its worker
//! written off and replaced, and the attempt counted as failed. A point
//! that exhausts its attempts is *quarantined*: its job is reported failed
//! and listed in `results/failures.json`, but every other job still runs
//! to completion and renders byte-identical output to a clean run.

use crate::cache::{self, Cache, Lookup};
use crate::events;
use crate::journal::{self, Journal, JournalJob, Record, StartRecord};
use crate::{Experiment, PointPayload};
use sparten_bench::json::Json;
use sparten_bench::vfs::{atomic_write_with, RealFs, Vfs};
use sparten_bench::ExperimentKind;
use sparten_telemetry::{
    cancel, chrome_trace, export_session, import_session, text_report, CancelToken, Telemetry,
    TraceContext,
};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Where a completed point's payload came from, for [`ProgressHook`]s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointOrigin {
    /// Served from the content-addressed cache without computing.
    Cache,
    /// Computed by a worker this run.
    Computed,
}

/// The callable a [`ProgressHook`] wraps: `(job_name, point, origin)`.
pub type ProgressFn = dyn Fn(&str, usize, PointOrigin) + Send + Sync;

/// Per-point progress callback, invoked on the scheduler thread as
/// `(job_name, point, origin)` the moment each point is resolved —
/// whether served from cache or computed. Consumers (the serve daemon's
/// streaming sessions) must return quickly; the scheduler blocks on it.
#[derive(Clone)]
pub struct ProgressHook(pub Arc<ProgressFn>);

impl std::fmt::Debug for ProgressHook {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ProgressHook(..)")
    }
}

/// Options for one [`run`].
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Case-sensitive substring filter on experiment names; `None` runs
    /// everything. Dependencies on filtered-out jobs are waived (they are
    /// reporting-order constraints, not data dependencies).
    pub filter: Option<String>,
    /// Worker thread count (≥ 1).
    pub jobs: usize,
    /// Ignore cache hits and recompute every point (entries are rewritten).
    pub force: bool,
    /// Cache directory, conventionally `results/cache/`.
    pub cache_dir: std::path::PathBuf,
    /// Write each job's artifacts (`results/*.json`) to disk.
    pub write_artifacts: bool,
    /// Print each job's captured output (in registry order) as it becomes
    /// available. Tests turn this off and read the report instead.
    pub stream_output: bool,
    /// When set, collect telemetry for every job and write one Chrome
    /// trace (`<job>.json`, loadable in Perfetto) plus one plain-text
    /// report (`<job>.txt`) per job into this directory. Telemetry implies
    /// a cache bypass: every point is recomputed so the counters describe
    /// the *whole* run, not just the cache misses (entries are still
    /// rewritten, so the cache stays warm).
    pub telemetry_dir: Option<std::path::PathBuf>,
    /// Total attempts per point before quarantine (≥ 1). Retries are
    /// deterministic re-invocations of the same point function, so a
    /// transient panic (poisoned global, resource blip) heals while a
    /// reproducible one fails fast.
    pub max_attempts: usize,
    /// Per-point watchdog deadline, measured from the instant a worker
    /// starts computing the point. An expired point counts as one failed
    /// attempt; its (possibly hung) worker is written off and replaced so
    /// pool capacity is preserved. `None` disables the watchdog.
    pub point_timeout: Option<Duration>,
    /// Where to write the machine-readable quarantine report when any
    /// point exhausts its attempts. A clean run removes a stale report at
    /// this path. `None` skips the report entirely (tests).
    pub failures_path: Option<std::path::PathBuf>,
    /// Directory for the write-ahead run journal (conventionally
    /// `results/journal/`). `None` disables journaling — runs are then not
    /// resumable after a crash (unit tests that don't exercise recovery).
    pub journal_dir: Option<std::path::PathBuf>,
    /// Resume from this journal: replay its completed points, verify its
    /// pinned options and registry fingerprint against this run's, and
    /// compute only what is missing. The journal keeps growing in place.
    pub resume: Option<std::path::PathBuf>,
    /// Run id override (the journal file stem). `None` generates one from
    /// wall clock and pid.
    pub run_id: Option<String>,
    /// Cooperative-shutdown flag (see [`crate::signal`]): `0` run, `>= 1`
    /// drain — stop dispatching, let in-flight points finish up to
    /// [`drain_timeout`](Self::drain_timeout), journal a clean shutdown.
    pub shutdown: Option<Arc<AtomicUsize>>,
    /// How long a drain waits for in-flight points before abandoning them.
    pub drain_timeout: Duration,
    /// Crash-test hook: return with an error — no shutdown record, no
    /// artifacts, journal left dangling, exactly like a `kill -9` — after
    /// this many points have been computed and journaled.
    pub abort_after: Option<usize>,
    /// Per-point progress callback (see [`ProgressHook`]); `None` for
    /// batch runs.
    pub progress: Option<ProgressHook>,
    /// The trace context this run executes under (minted per serve
    /// request or CLI invocation). Stamped onto the journal's start
    /// record and every structured event, and used to derive per-point
    /// child spans recorded into [`trace_sink`](Self::trace_sink).
    pub trace: Option<TraceContext>,
    /// Shared telemetry session receiving *wall-clock* spans for this
    /// run: one span per computed point, a cache-hit instant per cached
    /// point, and each point's merged simulator session — all stamped
    /// with child contexts of [`trace`](Self::trace). The serve daemon
    /// passes its server-wide session here so one `/trace` export shows
    /// request → gate → queue wait → point → chunk on a single
    /// timeline. Unlike [`telemetry_dir`](Self::telemetry_dir), a trace
    /// sink does **not** bypass the cache: it observes the run the
    /// service actually performed, cache hits included.
    pub trace_sink: Option<Arc<Telemetry>>,
    /// Time base for trace-sink span timestamps (µs since this instant),
    /// so executor spans align with the owning server's timeline. `None`
    /// uses the run's own start.
    pub trace_epoch: Option<Instant>,
    /// Cooperative cancellation for this run (per serve request, fired on
    /// deadline expiry or when every subscriber of a coalesced job
    /// disconnects). Workers install it as the thread's current token so
    /// the simulators' chunk-batch checkpoints can stop mid-point; the
    /// scheduler treats a fired token like a shutdown drain, except the
    /// journal is sealed `cancelled` (nobody will resume an abandoned
    /// request) and points are never retried or quarantined for stopping.
    pub cancel: Option<CancelToken>,
    /// The filesystem every durable-state operation goes through: the
    /// journal, the cache, artifacts, telemetry exports, and the failures
    /// report. Production runs use the passthrough [`RealFs`]; the disk
    /// chaos campaign substitutes a fault-injecting implementation.
    pub vfs: Arc<dyn Vfs>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            filter: None,
            jobs: default_jobs(),
            force: false,
            cache_dir: "results/cache".into(),
            write_artifacts: true,
            stream_output: true,
            telemetry_dir: None,
            max_attempts: 2,
            point_timeout: None,
            failures_path: Some("results/failures.json".into()),
            journal_dir: Some("results/journal".into()),
            resume: None,
            run_id: None,
            shutdown: None,
            drain_timeout: Duration::from_secs(30),
            abort_after: None,
            progress: None,
            trace: None,
            trace_sink: None,
            trace_epoch: None,
            cancel: None,
            vfs: Arc::new(RealFs),
        }
    }
}

/// Classified cache-lookup totals for one run (the `cache.rs` diagnostics
/// surfaced in the end-of-run summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries that existed, parsed, and validated.
    pub hits: usize,
    /// Keys with no entry file (first computation or post-`clean`).
    pub misses: usize,
    /// Entry files that existed but were unusable — truncated, corrupt,
    /// stale format, or rejected by the experiment's validator. These are
    /// recomputed like misses but indicate cache damage, so they are
    /// counted apart.
    pub malformed: usize,
    /// Orphaned `*.tmp` files from interrupted writers, swept when the
    /// cache was opened for this run.
    pub swept_tmp: usize,
}

impl CacheStats {
    /// Total lookups performed.
    pub fn lookups(&self) -> usize {
        self.hits + self.misses + self.malformed
    }
}

/// The default worker count: available parallelism, or 1 if unknown.
pub fn default_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Outcome of one job.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// Experiment name.
    pub name: &'static str,
    /// Artifact kind.
    pub kind: ExperimentKind,
    /// Number of points.
    pub points: usize,
    /// How many points were served from the cache.
    pub cache_hits: usize,
    /// Wall time attributable to this job: point compute time (summed
    /// across workers) plus the render step.
    pub wall: Duration,
    /// The job's final captured stdout text.
    pub output: String,
    /// The job's file artifacts as `(path, contents)` pairs.
    pub artifacts: Vec<(String, String)>,
    /// Panic message if any point failed; the job then has no output.
    pub error: Option<String>,
    /// The job's exported telemetry, when the run collected it.
    pub telemetry: Option<JobTelemetry>,
}

/// One job's serialized telemetry, ready to write to disk.
#[derive(Debug, Clone)]
pub struct JobTelemetry {
    /// Chrome trace-event JSON (load at ui.perfetto.dev).
    pub chrome_json: String,
    /// Plain-text report (parses back via `sparten_telemetry::parse_report`).
    pub report_text: String,
}

/// One quarantined point — a point that exhausted its retry budget — as
/// written to `results/failures.json`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PointFailure {
    /// Experiment name of the failing job.
    pub job: &'static str,
    /// Point index within the job.
    pub point: usize,
    /// How many attempts were made (== the run's `max_attempts`).
    pub attempts: usize,
    /// Failure kind of the last attempt: `"panic"`, `"timeout"`, or
    /// `"cancelled"` (the point stopped at a cooperative checkpoint).
    pub kind: &'static str,
    /// The last attempt's panic message or timeout description.
    pub message: String,
}

impl PointFailure {
    fn to_json(&self) -> Json {
        Json::obj([
            ("job", Json::str(self.job)),
            ("point", Json::UInt(self.point as u64)),
            ("attempts", Json::UInt(self.attempts as u64)),
            ("kind", Json::str(self.kind)),
            ("message", Json::str(self.message.clone())),
        ])
    }
}

/// Outcome of one [`run`]: per-job reports in registry order.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Reports in registry (deterministic emission) order.
    pub jobs: Vec<JobReport>,
    /// End-to-end elapsed time of the run.
    pub elapsed: Duration,
    /// Worker threads used.
    pub workers: usize,
    /// Classified cache-lookup totals (all zero when the cache was
    /// bypassed by `--force` or telemetry collection).
    pub cache: CacheStats,
    /// Points that exhausted their retry budget, in quarantine order.
    pub failures: Vec<PointFailure>,
    /// Failed attempts that were retried (whether or not the retry
    /// ultimately succeeded).
    pub retries: usize,
    /// Points replayed from the resume journal instead of computed.
    pub replayed: usize,
    /// Whether the run drained after a signal instead of completing; the
    /// journal was kept and the run can be resumed.
    pub interrupted: bool,
    /// This run's journal id (resume handle), when journaling was on.
    pub run_id: Option<String>,
}

impl RunReport {
    /// Total points across all jobs.
    pub fn total_points(&self) -> usize {
        self.jobs.iter().map(|j| j.points).sum()
    }

    /// Total cache hits across all jobs.
    pub fn total_hits(&self) -> usize {
        self.jobs.iter().map(|j| j.cache_hits).sum()
    }

    /// Whether every job succeeded.
    pub fn all_ok(&self) -> bool {
        self.jobs.iter().all(|j| j.error.is_none())
    }
}

struct Task {
    job: usize,
    point: usize,
    attempt: usize,
}

struct Done {
    job: usize,
    point: usize,
    attempt: usize,
    payload: Result<PointPayload, String>,
    telemetry: Option<Telemetry>,
    took: Duration,
    /// The attempt unwound at a cooperative cancellation checkpoint (not
    /// a real panic): never retried, never quarantined — the run is
    /// draining and the point simply stays pending.
    cancelled: bool,
}

/// Worker → scheduler messages. `Started` lets the scheduler's watchdog
/// measure compute time from pickup (not dispatch), so deep task queues
/// never trip the deadline while merely waiting for a worker.
enum Event {
    Started {
        job: usize,
        point: usize,
        attempt: usize,
        at: Instant,
    },
    Done(Box<Done>),
    /// A worker declined a queued task because the run is draining; the
    /// point stays pending and the scheduler only balances its books.
    Skipped,
}

struct JobState {
    remaining_deps: usize,
    dependents: Vec<usize>,
    pending_points: usize,
    points: Vec<Option<PointPayload>>,
    /// Each scheduled point's cache key, computed once at schedule time
    /// and reused when the computed point is written back.
    keys: Vec<u64>,
    telemetry: Vec<Option<Telemetry>>,
    cache_hits: usize,
    compute_time: Duration,
    error: Option<String>,
    finished: bool,
}

/// Runs `experiments` (filtered per `opts`) and returns per-job reports in
/// registry order.
///
/// Returns an error when a resume is unsound (journal unreadable, options
/// or registry fingerprint mismatch), when the journal cannot be started,
/// or when the `abort_after` crash hook fires.
///
/// # Panics
///
/// Panics if `opts.jobs` is 0 or the dependency graph has a cycle.
pub fn run(experiments: &[Arc<dyn Experiment>], opts: &RunOptions) -> Result<RunReport, String> {
    assert!(opts.jobs >= 1, "--jobs must be at least 1");
    assert!(opts.max_attempts >= 1, "--retries budget must allow 1 attempt");
    let start = Instant::now();
    let cache = Cache::with_vfs(opts.cache_dir.clone(), opts.vfs.clone());
    let mut cache_stats = CacheStats::default();
    // Graced sweep: under the serve daemon several executors share this
    // cache directory, and an ungraced sweep would delete a sibling
    // run's in-flight atomic write out from under its rename.
    match cache.sweep_tmp_older_than(Duration::from_secs(60)) {
        Ok(n) => cache_stats.swept_tmp = n,
        Err(e) => events::warn_traced("cache.sweep_failed", format!("tmp sweep failed: {e}"), opts.trace),
    }

    // Filter, then restrict deps to the selected set.
    let selected: Vec<Arc<dyn Experiment>> = experiments
        .iter()
        .filter(|e| {
            opts.filter
                .as_deref()
                .is_none_or(|f| e.name().contains(f))
        })
        .cloned()
        .collect();
    let index: HashMap<&str, usize> = selected
        .iter()
        .enumerate()
        .map(|(i, e)| (e.name(), i))
        .collect();

    let mut states: Vec<JobState> = selected
        .iter()
        .map(|e| JobState {
            remaining_deps: 0,
            dependents: Vec::new(),
            pending_points: e.num_points(),
            points: vec![None; e.num_points()],
            keys: vec![0; e.num_points()],
            telemetry: (0..e.num_points()).map(|_| None).collect(),
            cache_hits: 0,
            compute_time: Duration::ZERO,
            error: None,
            finished: false,
        })
        .collect();
    for (i, e) in selected.iter().enumerate() {
        for d in e.deps() {
            if let Some(&j) = index.get(d) {
                states[i].remaining_deps += 1;
                states[j].dependents.push(i);
            }
        }
    }

    // The run's journaled identity: what a later resume must match. Its
    // fingerprints are the only `fingerprint()` calls of the run: the
    // scheduler keys the cache with them.
    let want_telemetry = opts.telemetry_dir.is_some();
    // Per-point simulator sessions are collected for *either* consumer:
    // telemetry exports (per-job files) or the shared trace sink (one
    // correlated timeline). Only the former changes cache behaviour.
    let want_sessions = want_telemetry || opts.trace_sink.is_some();
    let trace_epoch = opts.trace_epoch.unwrap_or(start);
    let journal_jobs: Vec<JournalJob> = selected
        .iter()
        .map(|e| JournalJob {
            name: e.name().to_string(),
            fingerprint: e.fingerprint(),
            points: e.num_points(),
        })
        .collect();
    let registry_fp = journal::registry_fingerprint(&journal_jobs);

    // Open the write-ahead journal: replay an existing one (--resume) or
    // start a fresh one. Either way, every computed point is journaled
    // before the scheduler acts on it.
    let mut replayed = 0usize;
    let mut journal: Option<Journal> = None;
    let mut run_id: Option<String> = None;
    if let Some(path) = &opts.resume {
        let replay = journal::replay_with(path, &*opts.vfs)?;
        if replay.ended {
            return Err(format!(
                "{} belongs to a run that already completed; nothing to resume",
                path.display()
            ));
        }
        let s = &replay.start;
        let mismatch = |what: &str, journaled: &str, now: &str| {
            format!(
                "cannot resume {}: {what} changed since the journal was written \
                 (journaled {journaled}, now {now}); rerun without --resume",
                path.display()
            )
        };
        let fmt_filter = |f: &Option<String>| f.clone().unwrap_or_else(|| "<none>".into());
        if s.filter != opts.filter {
            return Err(mismatch("--filter", &fmt_filter(&s.filter), &fmt_filter(&opts.filter)));
        }
        if s.force != opts.force {
            return Err(mismatch("--force", &s.force.to_string(), &opts.force.to_string()));
        }
        if s.telemetry != want_telemetry {
            return Err(mismatch(
                "--telemetry",
                &s.telemetry.to_string(),
                &want_telemetry.to_string(),
            ));
        }
        if s.seed != crate::SEED {
            return Err(mismatch("the workload seed", &s.seed.to_string(), &crate::SEED.to_string()));
        }
        if s.registry_fp != registry_fp || s.jobs != journal_jobs {
            return Err(mismatch("the experiment registry", &s.registry_fp, &registry_fp));
        }
        for (job_name, point, payload_body, telemetry_text) in &replay.points {
            let Some(&job) = index.get(job_name.as_str()) else {
                continue;
            };
            if *point >= states[job].points.len() {
                continue;
            }
            let Some(payload) = cache::parse_payload(payload_body) else {
                // Journal entries are fsync'd whole; an unparseable payload
                // is damage, but a recompute fixes it, so warn and move on.
                events::warn_traced(
                    "journal.payload_unparseable",
                    format!(
                        "journaled payload for {job_name} point {point} \
                         does not parse; recomputing"
                    ),
                    opts.trace,
                );
                continue;
            };
            if !selected[job].validate(*point, &payload) {
                continue;
            }
            if states[job].points[*point].is_none() {
                states[job].pending_points -= 1;
                replayed += 1;
            }
            states[job].points[*point] = Some(payload);
            if want_telemetry {
                states[job].telemetry[*point] = telemetry_text.as_deref().and_then(|text| {
                    import_session(text)
                        .map_err(|e| {
                            events::warn_traced(
                                "journal.telemetry_unparseable",
                                format!(
                                    "journaled telemetry for {job_name} point {point} \
                                     does not parse: {e}"
                                ),
                                opts.trace,
                            )
                        })
                        .ok()
                });
            }
        }
        journal = Some(
            Journal::reopen_with(path, opts.vfs.clone())
                .map_err(|e| format!("cannot reopen journal {}: {e}", path.display()))?,
        );
        run_id = Some(s.run_id.clone());
    } else if let Some(dir) = &opts.journal_dir {
        let id = opts.run_id.clone().unwrap_or_else(journal::generate_run_id);
        let record = StartRecord {
            run_id: id.clone(),
            filter: opts.filter.clone(),
            force: opts.force,
            telemetry: want_telemetry,
            seed: crate::SEED,
            registry_fp,
            jobs: journal_jobs.clone(),
            trace: opts.trace.map(|t| t.trace_hex()),
        };
        journal = Some(
            Journal::create_with(dir, &record, opts.vfs.clone())
                .map_err(|e| format!("cannot start run journal in {}: {e}", dir.display()))?,
        );
        run_id = Some(id);
    }

    // Per-job process tracks in the trace sink, allocated up front so
    // the schedule and completion paths below record without allocating
    // under the scheduler's hot loop.
    let trace_pids: Vec<u32> = match &opts.trace_sink {
        Some(sink) => selected
            .iter()
            .map(|e| sink.recorder.alloc_process(&format!("exec:{}", e.name())))
            .collect(),
        None => Vec::new(),
    };
    events::debug(
        "run.start",
        &format!(
            "run {} started: {} job(s), {} worker(s)",
            run_id.as_deref().unwrap_or("<unjournaled>"),
            selected.len(),
            opts.jobs
        ),
        opts.trace,
    );

    // Worker pool over a shared task queue. `spawn_worker` is kept around
    // so the watchdog can replace a worker written off as hung.
    let (task_tx, task_rx) = mpsc::channel::<Task>();
    let task_rx = Arc::new(Mutex::new(task_rx));
    let (event_tx, event_rx) = mpsc::channel::<Event>();
    let spawn_worker = {
        let task_rx = Arc::clone(&task_rx);
        let event_tx = event_tx.clone();
        let selected = selected.clone();
        let shutdown = opts.shutdown.clone();
        let run_cancel = opts.cancel.clone();
        move || {
            let rx = Arc::clone(&task_rx);
            let tx = event_tx.clone();
            let exps: Vec<Arc<dyn Experiment>> = selected.clone();
            let shutdown = shutdown.clone();
            let run_cancel = run_cancel.clone();
            thread::spawn(move || loop {
                let task = match rx.lock().expect("task queue").recv() {
                    Ok(t) => t,
                    Err(_) => break,
                };
                // A draining run computes nothing new: queued tasks bounce
                // back so the scheduler's books balance without the work.
                // A fired cancel token drains the same way.
                if shutdown
                    .as_ref()
                    .is_some_and(|f| f.load(Ordering::SeqCst) >= 1)
                    || run_cancel.as_ref().is_some_and(|c| c.is_cancelled())
                {
                    if tx.send(Event::Skipped).is_err() {
                        break;
                    }
                    continue;
                }
                let t0 = Instant::now();
                if tx
                    .send(Event::Started {
                        job: task.job,
                        point: task.point,
                        attempt: task.attempt,
                        at: t0,
                    })
                    .is_err()
                {
                    break;
                }
                let exp = Arc::clone(&exps[task.job]);
                let computed = catch_unwind(AssertUnwindSafe(|| {
                    // Install the run's cancel token as the thread's
                    // current token for the duration of this point, so
                    // the simulators' chunk-batch checkpoints can unwind
                    // out of a cancelled computation. The scope restores
                    // the previous token even when the point panics.
                    let _scope = run_cancel
                        .as_ref()
                        .map(|c| cancel::set_current(c.clone()));
                    if want_sessions {
                        exp.compute_point_telemetry(task.point)
                    } else {
                        (exp.compute_point(task.point), None)
                    }
                }));
                let (payload, telemetry, cancelled) = match computed {
                    Ok((p, t)) => (Ok(p), t, false),
                    Err(p) => {
                        let cancelled = p.downcast_ref::<cancel::Cancelled>().is_some();
                        let msg = if cancelled {
                            "stopped at a cancellation checkpoint".to_string()
                        } else {
                            panic_message(p.as_ref())
                        };
                        (Err(msg), None, cancelled)
                    }
                };
                let send = tx.send(Event::Done(Box::new(Done {
                    job: task.job,
                    point: task.point,
                    attempt: task.attempt,
                    payload,
                    telemetry,
                    took: t0.elapsed(),
                    cancelled,
                })));
                if send.is_err() {
                    break;
                }
            })
        }
    };
    let mut workers: Vec<_> = (0..opts.jobs).map(|_| spawn_worker()).collect();

    let mut reports: Vec<Option<JobReport>> = (0..selected.len()).map(|_| None).collect();
    let mut emit_cursor = 0usize;
    let mut outstanding = 0usize; // tasks dispatched, not yet completed
    let mut unfinished = selected.len();

    // Schedule a job: serve points from the cache, dispatch the misses.
    // Returns true if the job completed entirely from cache. Telemetry
    // runs bypass cache reads so the recorded counters cover every point.
    let use_cache = !opts.force && !want_telemetry;
    let schedule = |job: usize,
                    states: &mut Vec<JobState>,
                    outstanding: &mut usize,
                    cache_stats: &mut CacheStats|
     -> bool {
        let exp = &selected[job];
        let fp = &journal_jobs[job].fingerprint;
        for point in 0..exp.num_points() {
            if states[job].points[point].is_some() {
                continue; // replayed from the resume journal
            }
            let key = Cache::key(exp.name(), fp, crate::SEED, point);
            states[job].keys[point] = key;
            let hit = if use_cache {
                match cache.lookup(exp.name(), point, key) {
                    Lookup::Hit(p) if exp.validate(point, &p) => {
                        cache_stats.hits += 1;
                        Some(p)
                    }
                    // Parsed but rejected by the experiment: the entry is
                    // present-but-unusable, same bucket as a corrupt file.
                    Lookup::Hit(_) | Lookup::Malformed => {
                        cache_stats.malformed += 1;
                        None
                    }
                    Lookup::Miss => {
                        cache_stats.misses += 1;
                        None
                    }
                }
            } else {
                None
            };
            match hit {
                Some(payload) => {
                    states[job].points[point] = Some(payload);
                    states[job].cache_hits += 1;
                    states[job].pending_points -= 1;
                    if let Some(sink) = &opts.trace_sink {
                        let mut args = vec![("point", point as u64)];
                        if let Some(t) = &opts.trace {
                            args.extend(t.child(exp.name(), point as u64).args());
                        }
                        sink.recorder.instant(
                            trace_pids[job],
                            point as u32,
                            "point.cache",
                            trace_epoch.elapsed().as_micros() as u64,
                            &args,
                        );
                    }
                    if let Some(hook) = &opts.progress {
                        hook.0(exp.name(), point, PointOrigin::Cache);
                    }
                }
                None => {
                    task_tx
                        .send(Task {
                            job,
                            point,
                            attempt: 1,
                        })
                        .expect("workers alive");
                    *outstanding += 1;
                }
            }
        }
        states[job].pending_points == 0
    };

    // Finish a job: render, record the report, and fire dependents.
    // Newly-ready dependents are returned for scheduling.
    fn finish(
        job: usize,
        selected: &[Arc<dyn Experiment>],
        states: &mut [JobState],
        reports: &mut [Option<JobReport>],
        unfinished: &mut usize,
    ) -> Vec<usize> {
        let exp = &selected[job];
        let (output, artifacts, error) = if let Some(e) = states[job].error.take() {
            (String::new(), Vec::new(), Some(e))
        } else {
            let points: Vec<PointPayload> = states[job]
                .points
                .iter()
                .map(|p| p.clone().expect("all points complete"))
                .collect();
            let t0 = Instant::now();
            let capture = exp.render(&points);
            states[job].compute_time += t0.elapsed();
            (capture.text, capture.artifacts, None)
        };
        reports[job] = Some(JobReport {
            name: exp.name(),
            kind: exp.kind(),
            points: exp.num_points(),
            cache_hits: states[job].cache_hits,
            wall: states[job].compute_time,
            output,
            artifacts,
            error,
            telemetry: None,
        });
        states[job].finished = true;
        *unfinished -= 1;
        let mut ready = Vec::new();
        let dependents = states[job].dependents.clone();
        for d in dependents {
            states[d].remaining_deps -= 1;
            if states[d].remaining_deps == 0 {
                ready.push(d);
            }
        }
        ready
    }

    // One attempt at (job, point) failed. Under the retry budget the point
    // is re-dispatched verbatim; over it, the point is quarantined — the
    // failure is recorded, the job marked failed, and the run continues.
    // Returns true when the point was quarantined (the job may now be
    // complete and should be checked).
    #[allow(clippy::too_many_arguments)]
    fn fail_attempt(
        job: usize,
        point: usize,
        attempt: usize,
        kind: &'static str,
        msg: String,
        max_attempts: usize,
        selected: &[Arc<dyn Experiment>],
        states: &mut [JobState],
        task_tx: &mpsc::Sender<Task>,
        outstanding: &mut usize,
        retries: &mut usize,
        failures: &mut Vec<PointFailure>,
    ) -> bool {
        if attempt < max_attempts {
            *retries += 1;
            task_tx
                .send(Task {
                    job,
                    point,
                    attempt: attempt + 1,
                })
                .expect("workers alive");
            *outstanding += 1;
            return false;
        }
        let name = selected[job].name();
        failures.push(PointFailure {
            job: name,
            point,
            attempts: attempt,
            kind,
            message: msg.clone(),
        });
        let state = &mut states[job];
        state.pending_points -= 1;
        let verb = match kind {
            "timeout" => "timed out",
            "journal" => "could not be journaled",
            _ => "panicked",
        };
        state
            .error
            .get_or_insert_with(|| format!("point {point} of {name} {verb}: {msg}"));
        true
    }

    // Fold a finished job's per-point sessions (in point order, so the
    // exported trace is deterministic regardless of worker interleaving)
    // into one session, stamp the harness's own job-level metrics on it,
    // and serialize both exporters into the report.
    fn attach_telemetry(
        job: usize,
        selected: &[Arc<dyn Experiment>],
        states: &mut [JobState],
        reports: &mut [Option<JobReport>],
    ) {
        let report = reports[job].as_mut().expect("job finished");
        if report.error.is_some() {
            return;
        }
        let merged = Telemetry::new();
        for slot in states[job].telemetry.iter_mut() {
            if let Some(point_session) = slot.take() {
                merged.merge(point_session, "");
            }
        }
        merged
            .metrics
            .counter("harness/points")
            .add(report.points as u64);
        merged
            .metrics
            .counter("harness/cache.hits")
            .add(report.cache_hits as u64);
        merged
            .metrics
            .gauge("harness/wall_seconds")
            .observe(report.wall.as_secs_f64());
        let snap = merged.metrics.snapshot();
        report.telemetry = Some(JobTelemetry {
            chrome_json: chrome_trace(&snap, &merged.recorder),
            report_text: text_report(selected[job].name(), &snap, &merged.recorder),
        });
    }

    // Seed the queue with dependency-free jobs; drain completions, firing
    // dependents as their dependencies finish.
    let mut retries = 0usize;
    let mut failures: Vec<PointFailure> = Vec::new();
    let mut computed_points = 0usize; // journaled completions (crash hook)
    // Watchdog bookkeeping, keyed by (job, point, attempt): `inflight`
    // holds attempts a worker has started; `abandoned` remembers expired
    // attempts so their late completions (a hung worker may eventually
    // return) are discarded instead of double-counted.
    let mut inflight: HashMap<(usize, usize, usize), Instant> = HashMap::new();
    let mut abandoned: std::collections::HashSet<(usize, usize, usize)> =
        std::collections::HashSet::new();
    // Graceful drain: the first signal flips the shared flag; the
    // scheduler stops dispatching, in-flight points run to completion (up
    // to the drain deadline), and the journal gets a clean shutdown record.
    let mut draining = false;
    let mut drain_deadline: Option<Instant> = None;
    // Whether the drain was triggered by the run's cancel token rather
    // than a process signal: the journal is then sealed `cancelled`
    // instead of kept as a resume handle.
    let mut cancelled_run = false;
    let shutdown_requested = || {
        opts.shutdown
            .as_ref()
            .is_some_and(|f| f.load(Ordering::SeqCst) >= 1)
    };
    let cancel_requested = || opts.cancel.as_ref().is_some_and(|c| c.is_cancelled());
    let mut ready: Vec<usize> = (0..selected.len())
        .filter(|&i| states[i].remaining_deps == 0)
        .collect();
    while !ready.is_empty() || unfinished > 0 {
        if !draining && (shutdown_requested() || cancel_requested()) {
            draining = true;
            cancelled_run = !shutdown_requested();
            drain_deadline = Some(Instant::now() + opts.drain_timeout);
            ready.clear(); // nothing new starts
            if cancelled_run {
                events::emit(
                    events::Level::Info,
                    "run.cancelled",
                    &format!(
                        "run cancelled (deadline expired or all subscribers gone): \
                         draining {outstanding} dispatched point(s)"
                    ),
                    opts.trace,
                    &[],
                );
            } else {
                events::emit(
                    events::Level::Info,
                    "run.draining",
                    &format!(
                        "\nshutdown requested: draining {outstanding} dispatched point(s) \
                         (second signal aborts immediately)"
                    ),
                    opts.trace,
                    &[],
                );
            }
        }
        if draining {
            if outstanding == 0 {
                break;
            }
            if drain_deadline.is_some_and(|d| Instant::now() >= d) {
                events::emit(
                    events::Level::Info,
                    "run.drain_deadline",
                    &format!(
                        "drain deadline passed: abandoning {outstanding} in-flight point(s)"
                    ),
                    opts.trace,
                    &[],
                );
                break;
            }
        } else {
            for job in std::mem::take(&mut ready) {
                if schedule(job, &mut states, &mut outstanding, &mut cache_stats) {
                    let newly =
                        finish(job, &selected, &mut states, &mut reports, &mut unfinished);
                    if want_telemetry {
                        attach_telemetry(job, &selected, &mut states, &mut reports);
                    }
                    ready.extend(newly);
                }
            }
            if !ready.is_empty() {
                continue; // fully-cached chains resolve without touching workers
            }
            if unfinished == 0 {
                break;
            }
            assert!(
                outstanding > 0,
                "dependency cycle: jobs remain but nothing is runnable"
            );
        }

        // Receive the next worker event. The wait is bounded by the
        // earliest watchdog deadline (so overdue points are written off
        // promptly) and, when a shutdown flag exists, a polling interval
        // (so a signal is noticed between events).
        let wait = {
            let watchdog = opts.point_timeout.map(|timeout| {
                let now = Instant::now();
                inflight
                    .values()
                    .map(|&at| (at + timeout).saturating_duration_since(now))
                    .min()
                    .unwrap_or(timeout)
            });
            let poll = (opts.shutdown.is_some() || opts.cancel.is_some() || draining)
                .then_some(Duration::from_millis(50));
            match (watchdog, poll) {
                (Some(w), Some(p)) => Some(w.min(p)),
                (Some(w), None) => Some(w),
                (None, p) => p,
            }
        };
        let mut check_jobs: Vec<usize> = Vec::new();
        let event = match wait {
            None => Some(event_rx.recv().expect("workers alive")),
            Some(wait) => match event_rx.recv_timeout(wait.max(Duration::from_millis(1))) {
                Ok(ev) => Some(ev),
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    // Write off overdue attempts; replacement workers keep
                    // queued tasks moving even if every original is hung.
                    if let Some(timeout) = opts.point_timeout {
                        let now = Instant::now();
                        let overdue: Vec<(usize, usize, usize)> = inflight
                            .iter()
                            .filter(|&(_, &at)| now.duration_since(at) >= timeout)
                            .map(|(&k, _)| k)
                            .collect();
                        for key in overdue {
                            let (job, point, attempt) = key;
                            inflight.remove(&key);
                            abandoned.insert(key);
                            outstanding -= 1;
                            workers.push(spawn_worker());
                            let msg = format!("exceeded point deadline of {timeout:?}");
                            journal_fail(
                                &mut journal, &selected, job, point, attempt, "timeout", &msg,
                            );
                            let quarantined = fail_attempt(
                                job,
                                point,
                                attempt,
                                "timeout",
                                msg,
                                opts.max_attempts,
                                &selected,
                                &mut states,
                                &task_tx,
                                &mut outstanding,
                                &mut retries,
                                &mut failures,
                            );
                            if quarantined {
                                check_jobs.push(job);
                            }
                        }
                    }
                    None
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    unreachable!("workers alive")
                }
            },
        };

        match event {
            Some(Event::Started {
                job,
                point,
                attempt,
                at,
            }) => {
                if let Some(j) = journal.as_mut() {
                    let record = Record::Attempt {
                        job: selected[job].name().to_string(),
                        point,
                        attempt,
                    };
                    if let Err(e) = j.append(&record) {
                        events::warn_traced(
                            "journal.write_failed",
                            format!("journal write failed: {e}"),
                            opts.trace,
                        );
                    }
                }
                inflight.insert((job, point, attempt), at);
            }
            Some(Event::Done(done)) => {
                let key = (done.job, done.point, done.attempt);
                if abandoned.remove(&key) {
                    // A written-off worker came back after all; its result
                    // was already replaced by the retry path. Drop it.
                    continue;
                }
                inflight.remove(&key);
                outstanding -= 1;
                states[done.job].compute_time += done.took;
                match done.payload {
                    Ok(payload) => {
                        let exp = &selected[done.job];
                        let mut point_session = done.telemetry;
                        // Write-ahead: the journal entry is fsync'd before
                        // the cache or the scheduler state sees the point,
                        // so a crash at any instant can lose work but never
                        // record work that did not happen. Sessions bound
                        // for the trace sink are wall-clock correlation
                        // material, not replayable state, so only
                        // telemetry-export runs journal them.
                        let mut journal_err = None;
                        if let Some(j) = journal.as_mut() {
                            let record = Record::Point {
                                job: exp.name().to_string(),
                                point: done.point,
                                payload: cache::serialize_payload(&payload),
                                telemetry: if want_telemetry {
                                    point_session.as_ref().map(export_session)
                                } else {
                                    None
                                },
                            };
                            if let Err(e) = j.append(&record) {
                                journal_err = Some(e);
                            }
                        }
                        if let Some(e) = journal_err {
                            // The fsync'd journal entry IS the point's
                            // durability: a point whose append failed was
                            // never durably completed, so the attempt
                            // fails as a typed error (retried under the
                            // budget, quarantined over it) instead of
                            // continuing with unjournaled work that a
                            // resume would silently lose. No `fail`
                            // record is attempted — the journal just
                            // proved it cannot take appends.
                            let msg = e.to_string();
                            events::emit(
                                events::Level::Error,
                                "journal.append_failed",
                                &format!(
                                    "{} point {} could not be journaled: {msg}",
                                    exp.name(),
                                    done.point
                                ),
                                opts.trace,
                                &[
                                    ("job", Json::str(exp.name())),
                                    ("point", Json::UInt(done.point as u64)),
                                ],
                            );
                            let quarantined = fail_attempt(
                                done.job,
                                done.point,
                                done.attempt,
                                "journal",
                                msg,
                                opts.max_attempts,
                                &selected,
                                &mut states,
                                &task_tx,
                                &mut outstanding,
                                &mut retries,
                                &mut failures,
                            );
                            if quarantined {
                                check_jobs.push(done.job);
                            }
                            // The rest of the completion path (cache
                            // store, trace spans, progress hook) is
                            // skipped: the point did not durably complete.
                            for job in check_jobs {
                                if states[job].pending_points == 0 && !states[job].finished {
                                    let newly = finish(
                                        job, &selected, &mut states, &mut reports, &mut unfinished,
                                    );
                                    if want_telemetry {
                                        attach_telemetry(job, &selected, &mut states, &mut reports);
                                    }
                                    ready.extend(newly);
                                }
                            }
                            if opts.stream_output {
                                emit_ready(&mut emit_cursor, &reports);
                            }
                            continue;
                        }
                        states[done.job].pending_points -= 1;
                        computed_points += 1;
                        if opts.abort_after == Some(computed_points) {
                            // Crash-test hook: vanish right after the
                            // journal fsync, the worst-legal crash point —
                            // no artifacts, no cache entry for this point,
                            // no shutdown record, journal left dangling.
                            return Err(format!(
                                "aborted by crash hook after {computed_points} computed point(s)"
                            ));
                        }
                        let key = states[done.job].keys[done.point];
                        if let Err(e) = cache.store(exp.name(), done.point, key, &payload) {
                            events::warn_traced(
                                "cache.write_failed",
                                format!("cache write failed for {}: {e}", exp.name()),
                                opts.trace,
                            );
                        }
                        states[done.job].points[done.point] = Some(payload);
                        let child = opts
                            .trace
                            .map(|t| t.child(exp.name(), done.point as u64));
                        if let Some(sink) = &opts.trace_sink {
                            // The point's wall-clock execution span, on
                            // the server's timeline, stamped with the
                            // request's trace context.
                            let took_us = done.took.as_micros() as u64;
                            let end_us = trace_epoch.elapsed().as_micros() as u64;
                            let mut args = vec![("point", done.point as u64)];
                            if let Some(c) = &child {
                                args.extend(c.args());
                            }
                            sink.recorder.span(
                                trace_pids[done.job],
                                done.point as u32,
                                "point",
                                end_us.saturating_sub(took_us),
                                took_us,
                                &args,
                            );
                        }
                        if want_telemetry {
                            states[done.job].telemetry[done.point] = point_session.take();
                        } else if let Some(sink) = &opts.trace_sink {
                            // Per-chunk simulator spans fold into the
                            // shared sink, each event stamped with the
                            // point's child context so Perfetto can slice
                            // the whole causal chain by trace id.
                            if let Some(session) = point_session.take() {
                                let stamp: Vec<(&'static str, u64)> =
                                    child.as_ref().map(|c| c.args()).unwrap_or_default();
                                sink.metrics.merge(&session.metrics);
                                sink.recorder.merge_with_args(
                                    session.recorder,
                                    &format!("{}:p{}:", exp.name(), done.point),
                                    &stamp,
                                );
                            }
                        }
                        events::emit(
                            events::Level::Debug,
                            "point.computed",
                            &format!(
                                "{} point {} computed in {:?}",
                                exp.name(),
                                done.point,
                                done.took
                            ),
                            child.or(opts.trace),
                            &[
                                ("job", Json::str(exp.name())),
                                ("point", Json::UInt(done.point as u64)),
                                ("took_us", Json::UInt(done.took.as_micros() as u64)),
                            ],
                        );
                        if let Some(hook) = &opts.progress {
                            hook.0(exp.name(), done.point, PointOrigin::Computed);
                        }
                        check_jobs.push(done.job);
                    }
                    Err(msg) if done.cancelled => {
                        // Stopping at a checkpoint is compliance, not
                        // failure: no retry, no quarantine. The point
                        // stays pending; the drain (already triggered by
                        // the fired token) ends the run.
                        journal_fail(
                            &mut journal,
                            &selected,
                            done.job,
                            done.point,
                            done.attempt,
                            "cancelled",
                            &msg,
                        );
                    }
                    Err(msg) => {
                        journal_fail(
                            &mut journal,
                            &selected,
                            done.job,
                            done.point,
                            done.attempt,
                            "panic",
                            &msg,
                        );
                        let quarantined = fail_attempt(
                            done.job,
                            done.point,
                            done.attempt,
                            "panic",
                            msg,
                            opts.max_attempts,
                            &selected,
                            &mut states,
                            &task_tx,
                            &mut outstanding,
                            &mut retries,
                            &mut failures,
                        );
                        if quarantined {
                            check_jobs.push(done.job);
                        }
                    }
                }
            }
            Some(Event::Skipped) => {
                outstanding -= 1; // the point stays pending for --resume
            }
            None => {} // timeout tick; quarantined jobs are in check_jobs
        }

        for job in check_jobs {
            if states[job].pending_points == 0 && !states[job].finished {
                let newly = finish(job, &selected, &mut states, &mut reports, &mut unfinished);
                if want_telemetry {
                    attach_telemetry(job, &selected, &mut states, &mut reports);
                }
                ready.extend(newly);
            }
        }

        // Emit finished jobs in registry order as they become available.
        if opts.stream_output {
            emit_ready(&mut emit_cursor, &reports);
        }
    }
    if opts.stream_output {
        emit_ready(&mut emit_cursor, &reports);
    }

    drop(task_tx);
    if abandoned.is_empty() && outstanding == 0 {
        for w in workers {
            let _ = w.join();
        }
    }
    // With abandoned attempts (watchdog write-offs or a drain deadline),
    // some workers may be hung forever; joining would deadlock the
    // scheduler on a thread that cannot finish. They are detached instead —
    // the process exits normally and reaps them.

    let interrupted = draining;
    if interrupted {
        if let Some(j) = journal.as_mut() {
            let reason = if cancelled_run { "cancelled" } else { "signal" };
            if let Err(e) = j.append(&Record::Shutdown {
                reason: reason.to_string(),
            }) {
                events::warn_traced(
                    "journal.write_failed",
                    format!("journal write failed: {e}"),
                    opts.trace,
                );
            }
        }
        // Jobs the drain cut short get stub reports: no output, no
        // artifacts. After a signal their completed points live in the
        // journal, which is kept on disk as the --resume handle; a
        // cancelled request has no future and its journal is sealed below.
        let stub_error = if cancelled_run {
            "cancelled before completion (deadline expired or all subscribers disconnected)"
        } else {
            "interrupted by shutdown before completion"
        };
        for (i, slot) in reports.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(JobReport {
                    name: selected[i].name(),
                    kind: selected[i].kind(),
                    points: selected[i].num_points(),
                    cache_hits: states[i].cache_hits,
                    wall: states[i].compute_time,
                    output: String::new(),
                    artifacts: Vec::new(),
                    error: Some(stub_error.to_string()),
                    telemetry: None,
                });
            }
        }
    }

    let jobs: Vec<JobReport> = reports.into_iter().map(|r| r.expect("finished")).collect();
    if opts.write_artifacts {
        for job in &jobs {
            for (path, contents) in &job.artifacts {
                write_artifact(&*opts.vfs, path, contents, opts.trace);
            }
        }
    }
    if let Some(dir) = &opts.telemetry_dir {
        for job in &jobs {
            if let Some(t) = &job.telemetry {
                for (ext, contents) in [("json", &t.chrome_json), ("txt", &t.report_text)] {
                    let path = dir.join(format!("{}.{ext}", job.name));
                    if let Err(e) = atomic_write_with(&*opts.vfs, &path, contents) {
                        events::warn_traced(
                            "telemetry.write_failed",
                            format!("could not write {}: {e}", path.display()),
                            opts.trace,
                        );
                    }
                }
            }
        }
    }
    if let Some(path) = &opts.failures_path {
        if failures.is_empty() {
            // A clean run must not leave a stale quarantine report behind.
            // An interrupted run proved nothing and leaves it alone.
            if !interrupted {
                let _ = opts.vfs.remove_file(path);
            }
        } else {
            let json = Json::Arr(failures.iter().map(PointFailure::to_json).collect());
            if let Err(e) = atomic_write_with(&*opts.vfs, path, &(json.pretty() + "\n")) {
                events::warn_traced(
                    "failures.write_failed",
                    format!("could not write {}: {e}", path.display()),
                    opts.trace,
                );
            }
        }
    }
    if let Some(j) = journal.take() {
        if interrupted && cancelled_run {
            // A cancelled request will never be resumed — nobody is
            // waiting for its result — so the journal is sealed (and thus
            // removed) rather than left as a dangling resume handle. The
            // chaos campaign's "every journal sealed" invariant counts on
            // this.
            if let Err(e) = j.seal("cancelled") {
                events::warn_traced(
                    "journal.seal_failed",
                    format!("could not seal cancelled run journal: {e}"),
                    opts.trace,
                );
            }
        } else if interrupted {
            drop(j); // the journal outlives the run: it is the resume handle
        } else {
            let status = if failures.is_empty() { "ok" } else { "degraded" };
            if let Err(e) = j.seal(status) {
                events::warn_traced(
                    "journal.seal_failed",
                    format!("could not seal run journal: {e}"),
                    opts.trace,
                );
            }
        }
    }
    events::emit(
        events::Level::Debug,
        "run.done",
        &format!(
            "run {} finished: {computed_points} computed, {} cache hit(s), \
             {} failure(s){}",
            run_id.as_deref().unwrap_or("<unjournaled>"),
            cache_stats.hits,
            failures.len(),
            if interrupted { ", interrupted" } else { "" }
        ),
        opts.trace,
        &[
            ("computed", Json::UInt(computed_points as u64)),
            ("cache_hits", Json::UInt(cache_stats.hits as u64)),
            ("failures", Json::UInt(failures.len() as u64)),
        ],
    );
    Ok(RunReport {
        jobs,
        elapsed: start.elapsed(),
        workers: opts.jobs,
        cache: cache_stats,
        failures,
        retries,
        replayed,
        interrupted,
        run_id,
    })
}

/// Appends a `fail` record, tolerating (but reporting) journal I/O errors.
fn journal_fail(
    journal: &mut Option<Journal>,
    selected: &[Arc<dyn Experiment>],
    job: usize,
    point: usize,
    attempt: usize,
    kind: &str,
    message: &str,
) {
    if let Some(j) = journal.as_mut() {
        let record = Record::Fail {
            job: selected[job].name().to_string(),
            point,
            attempt,
            kind: kind.to_string(),
            message: message.to_string(),
        };
        if let Err(e) = j.append(&record) {
            events::warn(
                "journal.write_failed",
                format!("journal write failed: {e}"),
            );
        }
    }
}

fn emit_ready(cursor: &mut usize, reports: &[Option<JobReport>]) {
    while *cursor < reports.len() {
        let Some(report) = &reports[*cursor] else { break };
        match &report.error {
            Some(e) => println!("== {} == FAILED: {e}\n", report.name),
            None => print!("{}", report.output),
        }
        *cursor += 1;
    }
}

fn write_artifact(vfs: &dyn Vfs, path: &str, contents: &str, trace: Option<TraceContext>) {
    // Atomic (temp sibling + fsync + rename): a kill mid-run can never
    // leave a half-written `results/*.json` that a reader would trust.
    if let Err(e) = atomic_write_with(vfs, path, contents) {
        events::warn_traced(
            "artifact.write_failed",
            format!("could not write {path}: {e}"),
            trace,
        );
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic".to_string()
    }
}
