//! Integration tests for the orchestration harness: determinism across
//! worker counts and cache states, dependency ordering, cache-hit
//! accounting, and failure isolation.

use sparten::nn::{ConvShape, LayerSpec};
use sparten::sim::{Scheme, SimConfig, SimResult};
use sparten_bench::registry::layer_record;
use sparten_bench::{run_layer, Capture, ExperimentKind};
use sparten_harness::executor::{self, RunOptions, RunReport};
use sparten_harness::{registry, Experiment, PointPayload};
use sparten_telemetry::{parse_report, Telemetry};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A small experiment over synthetic layers; each point simulates one
/// small layer across all eight schemes, exactly like the real figures.
struct TestExp {
    name: &'static str,
    deps: &'static [&'static str],
    points: usize,
    /// Channel-count knob so different experiments do different work.
    depth: usize,
    /// Optional completion log for ordering assertions.
    log: Option<Arc<Mutex<Vec<&'static str>>>>,
    /// Panic on compute, to test failure isolation.
    poisoned: bool,
}

impl TestExp {
    fn new(name: &'static str, points: usize, depth: usize) -> Self {
        TestExp {
            name,
            deps: &[],
            points,
            depth,
            log: None,
            poisoned: false,
        }
    }

    fn layer(&self, point: usize) -> LayerSpec {
        LayerSpec {
            name: ["P0", "P1", "P2", "P3"][point],
            shape: ConvShape::new(self.depth + point, 5, 5, 3, 4, 1, 1),
            input_density: 0.5,
            filter_density: 0.4,
        }
    }
}

impl Experiment for TestExp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Study
    }

    fn deps(&self) -> &'static [&'static str] {
        self.deps
    }

    fn num_points(&self) -> usize {
        self.points
    }

    fn fingerprint(&self) -> String {
        format!("test:{}:{}:{}", self.name, self.points, self.depth)
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        assert!(!self.poisoned, "poisoned experiment");
        let spec = self.layer(point);
        let result = run_layer(&spec, &Scheme::all(), &SimConfig::small(), None);
        PointPayload::Record(layer_record(&result))
    }

    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        assert!(!self.poisoned, "poisoned experiment");
        let spec = self.layer(point);
        let session = Telemetry::new();
        let result = run_layer(&spec, &Scheme::all(), &SimConfig::small(), Some(&session));
        (PointPayload::Record(layer_record(&result)), Some(session))
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        if let Some(log) = &self.log {
            log.lock().unwrap().push(self.name);
        }
        let mut text = format!("== {} ==\n", self.name);
        for p in points {
            match p {
                PointPayload::Record(blob) => text.push_str(blob),
                PointPayload::Capture(_) => unreachable!(),
            }
        }
        Capture {
            text,
            artifacts: Vec::new(),
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sparten-harness-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(cache_dir: PathBuf, jobs: usize) -> RunOptions {
    RunOptions {
        filter: None,
        jobs,
        force: false,
        cache_dir,
        write_artifacts: false,
        stream_output: false,
        telemetry_dir: None,
        max_attempts: 2,
        point_timeout: None,
        failures_path: None,
        // Journaling/resume/drain are exercised by crash_tests.rs; these
        // tests run journal-free so they leave no results/journal behind.
        journal_dir: None,
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
        ..RunOptions::default()
    }
}

/// These tests never interrupt a run, so the executor's `Result` is
/// always `Ok`; unwrap it once here instead of at every call site.
fn run(exps: &[Arc<dyn Experiment>], opts: &RunOptions) -> RunReport {
    executor::run(exps, opts).expect("uninterrupted run succeeds")
}

fn outputs(report: &sparten_harness::executor::RunReport) -> Vec<String> {
    report.jobs.iter().map(|j| j.output.clone()).collect()
}

#[test]
fn results_are_bit_identical_across_jobs_and_cache_states() {
    // Same seed ⇒ bit-identical SimResults for all 8 schemes on small
    // layers, for --jobs 1 vs N and cold vs warm cache.
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(TestExp::new("det_a", 4, 8)),
        Arc::new(TestExp::new("det_b", 3, 12)),
    ];
    let dir_serial = fresh_dir("det-serial");
    let dir_parallel = fresh_dir("det-parallel");

    let serial_cold = run(&exps, &opts(dir_serial.clone(), 1));
    let parallel_cold = run(&exps, &opts(dir_parallel.clone(), 4));
    let parallel_warm = run(&exps, &opts(dir_parallel.clone(), 4));

    assert_eq!(outputs(&serial_cold), outputs(&parallel_cold));
    assert_eq!(outputs(&parallel_cold), outputs(&parallel_warm));
    assert_eq!(serial_cold.total_hits(), 0);
    assert_eq!(parallel_warm.total_hits(), 7);

    // The outputs really are SimResult records that parse bit-exactly.
    let body = serial_cold.jobs[0]
        .output
        .strip_prefix("== det_a ==\n")
        .unwrap();
    let lines: Vec<&str> = body.lines().collect();
    assert_eq!(lines.len(), 4 * Scheme::all().len());
    for line in lines {
        let r = SimResult::from_record(line).expect("record parses");
        assert_eq!(r.to_record(), line);
    }

    let _ = std::fs::remove_dir_all(dir_serial);
    let _ = std::fs::remove_dir_all(dir_parallel);
}

#[test]
fn direct_recomputation_is_bit_identical() {
    // The underlying guarantee the cache rests on, without the executor.
    let exp = TestExp::new("direct", 1, 16);
    let a = run_layer(&exp.layer(0), &Scheme::all(), &SimConfig::small(), None);
    let b = run_layer(&exp.layer(0), &Scheme::all(), &SimConfig::small(), None);
    assert_eq!(a.results, b.results);
    for (x, y) in a.results.iter().zip(&b.results) {
        assert_eq!(x.to_record(), y.to_record());
    }
}

#[test]
fn output_is_emitted_in_registry_order_not_completion_order() {
    // Big job first in the registry, tiny jobs later: under 4 workers the
    // tiny jobs finish first, but reports stay in registry order.
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(TestExp::new("order_big", 4, 40)),
        Arc::new(TestExp::new("order_t1", 1, 4)),
        Arc::new(TestExp::new("order_t2", 1, 5)),
    ];
    let dir = fresh_dir("order");
    let report = run(&exps, &opts(dir.clone(), 4));
    let names: Vec<&str> = report.jobs.iter().map(|j| j.name).collect();
    assert_eq!(names, vec!["order_big", "order_t1", "order_t2"]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn dependencies_complete_before_dependents_start() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let mut first = TestExp::new("dep_first", 2, 20);
    first.log = Some(Arc::clone(&log));
    let mut second = TestExp::new("dep_second", 1, 4);
    second.deps = &["dep_first"];
    second.log = Some(Arc::clone(&log));
    // Registry order puts the dependent first to prove scheduling, not
    // listing order, is what delays it.
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(second), Arc::new(first)];
    let dir = fresh_dir("deps");
    let report = run(&exps, &opts(dir.clone(), 4));
    assert!(report.all_ok());
    assert_eq!(*log.lock().unwrap(), vec!["dep_first", "dep_second"]);
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn force_recomputes_despite_a_warm_cache() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(TestExp::new("force_me", 2, 8))];
    let dir = fresh_dir("force");
    let cold = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(cold.total_hits(), 0);
    let warm = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(warm.total_hits(), 2);
    let mut forced_opts = opts(dir.clone(), 2);
    forced_opts.force = true;
    let forced = run(&exps, &forced_opts);
    assert_eq!(forced.total_hits(), 0);
    assert_eq!(outputs(&cold), outputs(&forced));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn filter_selects_by_substring_and_waives_missing_deps() {
    let mut dependent = TestExp::new("solo_dependent", 1, 6);
    dependent.deps = &["solo_missing"];
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(TestExp::new("solo_missing", 1, 6)),
        Arc::new(dependent),
    ];
    let dir = fresh_dir("filter");
    let mut o = opts(dir.clone(), 2);
    o.filter = Some("dependent".into());
    let report = run(&exps, &o);
    assert_eq!(report.jobs.len(), 1);
    assert_eq!(report.jobs[0].name, "solo_dependent");
    assert!(report.all_ok());
    let _ = std::fs::remove_dir_all(dir);
}

/// A single-point experiment that panics on its first `fail_first`
/// compute attempts, then produces the same deterministic record a clean
/// experiment would — the "transient fault" the retry path must heal.
struct FlakyExp {
    name: &'static str,
    fail_first: usize,
    calls: AtomicUsize,
    /// `None` panics; `Some(d)` hangs for `d` instead (watchdog tests).
    hang: Option<Duration>,
}

impl FlakyExp {
    fn new(name: &'static str, fail_first: usize) -> Self {
        FlakyExp {
            name,
            fail_first,
            calls: AtomicUsize::new(0),
            hang: None,
        }
    }
}

impl Experiment for FlakyExp {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Study
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn num_points(&self) -> usize {
        1
    }

    fn fingerprint(&self) -> String {
        format!("flaky:{}", self.name)
    }

    fn compute_point(&self, _point: usize) -> PointPayload {
        if self.calls.fetch_add(1, Ordering::SeqCst) < self.fail_first {
            match self.hang {
                Some(d) => std::thread::sleep(d),
                None => panic!("transient fault"),
            }
        }
        let spec = TestExp::new(self.name, 1, 8).layer(0);
        let result = run_layer(&spec, &Scheme::all(), &SimConfig::small(), None);
        PointPayload::Record(layer_record(&result))
    }

    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        (self.compute_point(point), None)
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        let mut text = format!("== {} ==\n", self.name);
        for p in points {
            match p {
                PointPayload::Record(blob) => text.push_str(blob),
                PointPayload::Capture(_) => unreachable!(),
            }
        }
        Capture {
            text,
            artifacts: Vec::new(),
        }
    }
}

#[test]
fn transient_panic_is_retried_and_the_job_completes() {
    let flaky = Arc::new(FlakyExp::new("flaky_once", 1));
    let clean = Arc::new(FlakyExp::new("flaky_once", 0));
    let exps: Vec<Arc<dyn Experiment>> = vec![flaky];
    let dir = fresh_dir("retry");
    let report = run(&exps, &opts(dir.clone(), 2));
    assert!(report.all_ok(), "retry should heal a one-shot panic");
    assert_eq!(report.retries, 1);
    assert!(report.failures.is_empty());

    // The healed output is byte-identical to a never-failed run.
    let dir2 = fresh_dir("retry-clean");
    let clean_report = run(&[clean as Arc<dyn Experiment>], &opts(dir2.clone(), 2));
    assert_eq!(outputs(&report), outputs(&clean_report));
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(dir2);
}

#[test]
fn exhausted_retries_quarantine_the_point_but_spare_the_run() {
    // `fail_first` above the attempt budget: every attempt panics.
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(FlakyExp::new("always_bad", usize::MAX)),
        Arc::new(TestExp::new("bystander", 2, 8)),
    ];
    let dir = fresh_dir("quarantine");
    let failures_json = dir.join("failures.json");
    let mut o = opts(dir.clone(), 2);
    o.failures_path = Some(failures_json.clone());
    let report = run(&exps, &o);

    assert!(!report.all_ok());
    assert_eq!(report.failures.len(), 1);
    let f = &report.failures[0];
    assert_eq!((f.job, f.point, f.attempts, f.kind), ("always_bad", 0, 2, "panic"));
    assert_eq!(report.retries, 1, "one re-dispatch before quarantine");

    // The machine-readable report landed and names the quarantined point.
    let written = std::fs::read_to_string(&failures_json).expect("failures.json written");
    assert!(written.contains("\"job\": \"always_bad\""));
    assert!(written.contains("\"kind\": \"panic\""));
    assert!(written.contains("\"message\": \"transient fault\""));

    // The bystander's output is byte-identical to a clean run of it.
    let dir2 = fresh_dir("quarantine-clean");
    let clean = run(
        &[Arc::new(TestExp::new("bystander", 2, 8)) as Arc<dyn Experiment>],
        &opts(dir2.clone(), 2),
    );
    assert!(report.jobs[0].error.as_deref().unwrap().contains("panicked"));
    assert_eq!(report.jobs[1].output, clean.jobs[0].output);

    // A subsequent clean run removes the stale quarantine report.
    let clean_exps: Vec<Arc<dyn Experiment>> =
        vec![Arc::new(TestExp::new("bystander", 2, 8))];
    let report2 = run(&clean_exps, &o);
    assert!(report2.all_ok());
    assert!(!failures_json.exists(), "stale failures.json must be removed");

    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir_all(dir2);
}

#[test]
fn hung_point_trips_the_watchdog_and_is_quarantined() {
    let mut hung = FlakyExp::new("hangs", usize::MAX);
    hung.hang = Some(Duration::from_secs(5));
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(hung),
        Arc::new(TestExp::new("prompt", 1, 8)),
    ];
    let dir = fresh_dir("watchdog");
    let mut o = opts(dir.clone(), 2);
    o.max_attempts = 1; // one hang is enough; don't wait out a retry
    o.point_timeout = Some(Duration::from_millis(100));
    let report = run(&exps, &o);

    assert!(!report.all_ok());
    assert_eq!(report.failures.len(), 1);
    assert_eq!(report.failures[0].kind, "timeout");
    assert!(report.jobs[0].error.as_deref().unwrap().contains("timed out"));
    assert!(report.jobs[1].error.is_none(), "bystander unaffected");
    assert!(report.jobs[1].output.starts_with("== prompt =="));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn a_panicking_job_fails_alone() {
    let mut bad = TestExp::new("poison", 2, 8);
    bad.poisoned = true;
    let exps: Vec<Arc<dyn Experiment>> = vec![
        Arc::new(bad),
        Arc::new(TestExp::new("survivor", 2, 8)),
    ];
    let dir = fresh_dir("poison");
    let report = run(&exps, &opts(dir.clone(), 2));
    assert!(!report.all_ok());
    assert!(report.jobs[0].error.as_deref().unwrap().contains("poison"));
    assert!(report.jobs[1].error.is_none());
    assert!(report.jobs[1].output.starts_with("== survivor =="));
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn telemetry_runs_export_reconciled_counters_and_valid_traces() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(TestExp::new("tel_job", 2, 8))];
    let cache_dir = fresh_dir("tel-cache");
    let tel_dir = fresh_dir("tel-out");

    // Warm the cache first: telemetry must bypass it so counters are
    // complete, and the payload output must still be byte-identical.
    let plain = run(&exps, &opts(cache_dir.clone(), 2));
    let mut o = opts(cache_dir.clone(), 2);
    o.telemetry_dir = Some(tel_dir.clone());
    let traced = run(&exps, &o);
    assert_eq!(traced.total_hits(), 0, "telemetry bypasses the cache");
    assert_eq!(outputs(&plain), outputs(&traced));

    let tel = traced.jobs[0].telemetry.as_ref().expect("telemetry attached");

    // The text report parses and its counters reconcile with the payload:
    // per-scheme work.nonzero sums across both points.
    let parsed = parse_report(&tel.report_text).expect("report parses");
    assert_eq!(parsed.job, "tel_job");
    let mut expect_nonzero = 0u64;
    for point in 0..2 {
        let exp = TestExp::new("tel_job", 2, 8);
        let spec = exp.layer(point);
        let r = run_layer(&spec, &[Scheme::SpartenGbH], &SimConfig::small(), None);
        expect_nonzero += r.results[0].breakdown.nonzero;
    }
    assert_eq!(parsed.counters["SparTen/work.nonzero"], expect_nonzero);
    assert_eq!(parsed.counters["harness/points"], 2);
    assert_eq!(parsed.counters["harness/cache.hits"], 0);

    // The Chrome trace is structurally sound JSON with per-point tracks.
    assert!(tel.chrome_json.starts_with('{'));
    assert!(tel.chrome_json.contains("\"displayTimeUnit\""));
    assert!(tel.chrome_json.contains("\"traceEvents\""));
    assert!(tel.chrome_json.contains("P0:SparTen"));
    assert!(tel.chrome_json.contains("P1:SparTen"));
    assert!(tel.chrome_json.trim_end().ends_with('}'));

    // Both exporter files landed on disk.
    let json = std::fs::read_to_string(tel_dir.join("tel_job.json")).expect("json written");
    let text = std::fs::read_to_string(tel_dir.join("tel_job.txt")).expect("txt written");
    assert_eq!(json, tel.chrome_json);
    assert_eq!(text, tel.report_text);

    let _ = std::fs::remove_dir_all(cache_dir);
    let _ = std::fs::remove_dir_all(tel_dir);
}

#[test]
fn cache_lookups_are_classified_in_the_run_report() {
    let exps: Vec<Arc<dyn Experiment>> = vec![Arc::new(TestExp::new("stats_job", 2, 8))];
    let dir = fresh_dir("cache-stats");

    let cold = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(cold.cache.misses, 2);
    assert_eq!((cold.cache.hits, cold.cache.malformed), (0, 0));

    let warm = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(warm.cache.hits, 2);
    assert_eq!((warm.cache.misses, warm.cache.malformed), (0, 0));

    // Corrupt one entry: it is counted as malformed, recomputed, and the
    // rewritten entry hits again on the next run.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok().map(|e| e.path()))
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("cache"))
        .expect("a cache entry exists");
    std::fs::write(&entry, "truncated garbage").unwrap();
    let repaired = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(repaired.cache.malformed, 1);
    assert_eq!(repaired.cache.hits, 1);
    assert!(repaired.all_ok());
    let again = run(&exps, &opts(dir.clone(), 2));
    assert_eq!(again.cache.hits, 2);

    let _ = std::fs::remove_dir_all(dir);
}

/// A cheap many-point experiment that counts its `fingerprint()` calls.
struct FingerprintCounter {
    calls: AtomicUsize,
}

impl Experiment for FingerprintCounter {
    fn name(&self) -> &'static str {
        "fingerprint_counter"
    }

    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Sweep
    }

    fn deps(&self) -> &'static [&'static str] {
        &[]
    }

    fn num_points(&self) -> usize {
        24
    }

    fn fingerprint(&self) -> String {
        self.calls.fetch_add(1, Ordering::SeqCst);
        "fingerprint_counter:v1".into()
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        PointPayload::Record(format!("point {point}\n"))
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        let mut text = String::new();
        for p in points {
            if let PointPayload::Record(blob) = p {
                text.push_str(blob);
            }
        }
        Capture {
            text,
            artifacts: Vec::new(),
        }
    }
}

#[test]
fn a_run_formats_each_jobs_fingerprint_once() {
    let exp = Arc::new(FingerprintCounter {
        calls: AtomicUsize::new(0),
    });
    let exps: Vec<Arc<dyn Experiment>> = vec![exp.clone()];
    let dir = fresh_dir("fingerprint-once");

    let cold = run(&exps, &opts(dir.clone(), 2));
    assert!(cold.all_ok());
    assert_eq!(cold.cache.misses, 24);
    assert_eq!(exp.calls.swap(0, Ordering::SeqCst), 1, "cold run");

    // The keys the cold run stored under are the ones a warm run looks up.
    let warm = run(&exps, &opts(dir.clone(), 2));
    assert_eq!((warm.cache.hits, warm.cache.misses), (24, 0));
    assert_eq!(outputs(&warm), outputs(&cold));
    assert_eq!(exp.calls.load(Ordering::SeqCst), 1, "warm run");

    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn real_registry_experiment_is_cacheable_and_stable() {
    // The cheap whole jobs end to end: each one's output is its committed
    // golden, and a warm rerun replays it byte for byte from the cache.
    // Jobs are picked by exact name (`--filter` matches substrings).
    const JOBS: [&str; 8] = [
        "table1_design_goals",
        "table2_hw_params",
        "table4_asic",
        "hpc_crossover",
        "validate",
        "accuracy_proxy",
        "ablation_bisection",
        "fig14_gb_impact",
    ];
    let jobs: Vec<Arc<dyn Experiment>> = registry()
        .into_iter()
        .filter(|e| JOBS.contains(&e.name()))
        .collect();
    assert_eq!(jobs.len(), JOBS.len());
    let dir = fresh_dir("real");
    let o = opts(dir.clone(), 2);
    let cold = run(&jobs, &o);
    assert!(cold.all_ok());
    assert_eq!(cold.total_hits(), 0);
    let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    for job in &cold.jobs {
        let golden = std::fs::read_to_string(results.join(format!("{}.txt", job.name)))
            .expect("committed golden");
        assert_eq!(
            job.output, golden,
            "{} differs from results/{0}.txt",
            job.name
        );
    }
    let warm = run(&jobs, &o);
    assert_eq!(warm.total_hits(), JOBS.len());
    assert_eq!(outputs(&cold), outputs(&warm));
    let _ = std::fs::remove_dir_all(dir);
}
