//! End-to-end tests for `harness serve` over real sockets.
//!
//! Each test binds a [`Server`] on an ephemeral port with a
//! [`HarnessBackend`] over cheap synthetic experiments, drives it with
//! the `sparten_serve::client`, and asserts the acceptance properties:
//! concurrent duplicate requests share exactly one execution, saturation
//! answers 429 + `Retry-After`, cache hits are byte-identical to a direct
//! executor run and render once per cache state without hiding a deleted
//! or corrupted entry, a slow client holds only its own connection
//! thread, and a drain (even of a daemon that never saw a connection)
//! completes in-flight requests, refuses new connections, and leaves no
//! dangling journal. (The real-signal path —
//! SIGTERM against the binary exiting 75 — is covered by the serve smoke
//! in `scripts/verify.sh`, which this suite cannot do in-process.)

use sparten_bench::json::Json;
use sparten_bench::{Capture, ExperimentKind};
use sparten_harness::cache::Cache;
use sparten_harness::executor::{self, RunOptions};
use sparten_harness::serve::HarnessBackend;
use sparten_harness::{Experiment, PointPayload, SEED};
use sparten_serve::client::{request, Response};
use sparten_serve::{ServeOptions, Server};
use sparten_telemetry::{Telemetry, TraceContext};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// A synthetic experiment: deterministic payloads, optional per-point
/// delay (to hold the admission budget in the saturation/drain tests),
/// and a count of its `render` calls.
struct TestExp {
    name: &'static str,
    points: usize,
    delay: Duration,
    renders: Arc<AtomicUsize>,
}

impl Experiment for TestExp {
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
        self.points
    }
    fn fingerprint(&self) -> String {
        format!("serve-test:{}:{}", self.name, self.points)
    }
    fn compute_point(&self, point: usize) -> PointPayload {
        if !self.delay.is_zero() {
            thread::sleep(self.delay);
        }
        PointPayload::Record(format!("{} computed point {point}\n", self.name))
    }
    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        // A per-point simulator session with one "chunk" span, so the
        // serve trace export shows request → point → chunk. Payload bytes
        // are identical to compute_point's (the cache contract).
        let session = Telemetry::new();
        let pid = session.recorder.alloc_process("sim");
        let t0 = Instant::now();
        let payload = self.compute_point(point);
        let took = (t0.elapsed().as_micros() as u64).max(1);
        session.recorder.span(pid, 0, "chunk", 0, took, &[]);
        (payload, Some(session))
    }
    fn render(&self, points: &[PointPayload]) -> Capture {
        self.renders.fetch_add(1, Ordering::SeqCst);
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

fn exp(name: &'static str, points: usize) -> Arc<dyn Experiment> {
    slow_exp(name, points, Duration::ZERO)
}

fn slow_exp(name: &'static str, points: usize, delay: Duration) -> Arc<dyn Experiment> {
    Arc::new(TestExp {
        name,
        points,
        delay,
        renders: Arc::default(),
    })
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sparten-serve-test-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Binds a server over `experiments`, returning the bound address, the
/// shared telemetry (for direct metric assertions), the shutdown flag,
/// and the server thread's join handle.
#[allow(clippy::type_complexity)]
fn start_server(
    experiments: Vec<Arc<dyn Experiment>>,
    cache_dir: &Path,
    journal_dir: Option<PathBuf>,
    max_active: usize,
    max_queued: usize,
) -> (
    String,
    Arc<Telemetry>,
    Arc<AtomicUsize>,
    thread::JoinHandle<sparten_serve::DrainReport>,
) {
    let (addr, telemetry, shutdown, handle, _probe) = start_server_with(
        experiments,
        cache_dir,
        journal_dir,
        max_active,
        max_queued,
        Duration::from_secs(30),
    );
    (addr, telemetry, shutdown, handle)
}

/// [`start_server`] with a configurable read timeout (the resilience
/// tests shrink it so slow-loris reaping is fast) and a [`ServerProbe`]
/// for gate/session invariant assertions.
#[allow(clippy::type_complexity)]
fn start_server_with(
    experiments: Vec<Arc<dyn Experiment>>,
    cache_dir: &Path,
    journal_dir: Option<PathBuf>,
    max_active: usize,
    max_queued: usize,
    read_timeout: Duration,
) -> (
    String,
    Arc<Telemetry>,
    Arc<AtomicUsize>,
    thread::JoinHandle<sparten_serve::DrainReport>,
    sparten_serve::ServerProbe,
) {
    let telemetry = Arc::new(Telemetry::new());
    let backend = Arc::new(
        HarnessBackend::new(experiments, cache_dir.to_path_buf(), journal_dir, false, 2)
            .with_trace_sink(Arc::clone(&telemetry)),
    );
    let shutdown = Arc::new(AtomicUsize::new(0));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_active,
        max_queued,
        read_timeout,
        drain_timeout: Duration::from_secs(30),
        default_deadline: Duration::from_secs(120),
        max_deadline: Duration::from_secs(600),
        shutdown: Arc::clone(&shutdown),
        build: Default::default(),
    };
    let server = Server::bind(backend, Arc::clone(&telemetry), opts).expect("bind");
    let addr = server.local_addr().expect("addr").to_string();
    let probe = server.probe();
    let handle = thread::spawn(move || server.serve());
    (addr, telemetry, shutdown, handle, probe)
}

fn counter(telemetry: &Telemetry, name: &str) -> u64 {
    telemetry.metrics.snapshot().counter(name).unwrap_or(0)
}

/// The `output` field of the final NDJSON `done` event of a streamed run.
fn done_output(response: &Response) -> String {
    let lines = response.lines();
    let last = lines.last().expect("stream has events");
    let event = Json::parse(last).expect("done event parses");
    assert_eq!(
        event.get("status").and_then(Json::as_str),
        Some("ok"),
        "run must succeed: {last}"
    );
    event
        .get("output")
        .and_then(Json::as_str)
        .expect("done carries output")
        .to_string()
}

/// What `harness run` would print for `name`: a direct executor run over
/// the same experiments with its own scratch cache.
fn direct_output(experiments: &[Arc<dyn Experiment>], name: &str, tag: &str) -> String {
    let opts = RunOptions {
        filter: Some(name.to_string()),
        jobs: 2,
        force: false,
        cache_dir: fresh_dir(tag),
        write_artifacts: false,
        stream_output: false,
        telemetry_dir: None,
        max_attempts: 2,
        point_timeout: None,
        failures_path: None,
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
    };
    let report = executor::run(experiments, &opts).expect("direct run succeeds");
    let job = report
        .jobs
        .iter()
        .find(|j| j.name == name)
        .expect("job present");
    assert!(job.error.is_none());
    job.output.clone()
}

/// The acceptance-criteria load test: 8 concurrent clients, over half of
/// them duplicates, against 3 unique jobs. Exactly one executor run per
/// unique cache key, zero dropped (non-200) accepted requests, and every
/// payload byte-identical to a direct `harness run` of the same job.
#[test]
fn concurrent_duplicate_requests_share_one_execution() {
    let experiments = vec![exp("srv_a", 2), exp("srv_b", 3), exp("srv_c", 1)];
    let cache_dir = fresh_dir("load-cache");
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments.clone(), &cache_dir, None, 2, 8);

    // 8 clients, 3 unique jobs => 5 of 8 are duplicates (>= 50%).
    let wanted = ["srv_a", "srv_a", "srv_a", "srv_b", "srv_b", "srv_b", "srv_c", "srv_c"];
    let clients: Vec<_> = wanted
        .iter()
        .map(|job| {
            let addr = addr.clone();
            let target = format!("/run?job={job}");
            thread::spawn(move || request(&addr, "POST", &target, None).expect("request"))
        })
        .collect();
    let responses: Vec<Response> = clients.into_iter().map(|c| c.join().unwrap()).collect();

    // Zero dropped accepted requests: every client streamed to completion.
    for response in &responses {
        assert_eq!(response.status, 200);
    }
    // Exactly one executor run per unique key. (Concurrency makes *which*
    // clients coalesce nondeterministic — a late duplicate may arrive
    // after its twin finished and hit the cache instead — but the run
    // count per key cannot exceed one because the first run warms the
    // cache for everyone after it.)
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 3);
    assert_eq!(counter(&telemetry, "serve/exec.failures"), 0);
    assert_eq!(counter(&telemetry, "serve/rejected.saturated"), 0);
    let coalesced = counter(&telemetry, "serve/coalesced");
    let full_hits = counter(&telemetry, "serve/cache.full_hits");
    assert_eq!(coalesced + full_hits, 5, "the 5 duplicates joined or hit");

    // Byte-identical payloads: every duplicate agrees, and each matches a
    // direct executor run of the same job.
    for (job, response) in wanted.iter().zip(&responses) {
        let served = done_output(response);
        let direct = direct_output(&experiments, job, &format!("load-direct-{job}"));
        assert_eq!(served, direct, "served output for {job} must match harness run");
    }

    // The cache now holds every unique point exactly once: 2 + 3 + 1.
    let entries = std::fs::read_dir(&cache_dir)
        .expect("cache dir exists")
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "cache"))
        .count();
    assert_eq!(entries, 6, "one cache store per unique point");

    shutdown.store(1, Ordering::SeqCst);
    let report = handle.join().unwrap();
    assert!(report.clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The root trace id minted for a streamed run, from the `accepted`
/// NDJSON event's `trace` field.
fn ndjson_trace(response: &Response) -> u64 {
    let lines = response.lines();
    let first = lines.first().expect("stream has an accepted event");
    let event = Json::parse(first).expect("accepted event parses");
    assert_eq!(event.get("event").and_then(Json::as_str), Some("accepted"));
    let hex = event.get("trace").and_then(Json::as_str).expect("trace field");
    TraceContext::parse_hex(hex).expect("trace id parses")
}

/// Names of the Chrome-trace events whose args carry `trace_id`.
fn trace_event_names(events: &[Json], trace_id: u64) -> Vec<String> {
    events
        .iter()
        .filter(|e| {
            e.get("args")
                .and_then(|a| a.get("trace_id"))
                .and_then(Json::as_u64)
                == Some(trace_id)
        })
        .filter_map(|e| e.get("name").and_then(Json::as_str).map(str::to_string))
        .collect()
}

/// The observability acceptance e2e: one POST /run plus one coalesced
/// duplicate produce a single Chrome trace in which the request span,
/// gate verdict, queue wait, executor point spans, and per-chunk
/// simulator spans all carry the runner's trace id — and the follower's
/// request is linked to the runner it joined via `runner_trace`.
#[test]
fn trace_export_links_request_gate_points_and_chunks() {
    let experiments = vec![slow_exp("srv_traced", 2, Duration::from_millis(500))];
    let cache_dir = fresh_dir("trace-cache");
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments, &cache_dir, None, 2, 8);

    let runner = {
        let addr = addr.clone();
        thread::spawn(move || request(&addr, "POST", "/run?job=srv_traced", None).expect("runner"))
    };
    // Wait for the run to be admitted and executing, then join it while
    // its ~500 ms points are still in flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&telemetry, "serve/exec.runs") == 0 {
        assert!(Instant::now() < deadline, "runner never started");
        thread::sleep(Duration::from_millis(5));
    }
    let follower_resp = request(&addr, "POST", "/run?job=srv_traced", None).expect("follower");
    let runner_resp = runner.join().unwrap();
    assert_eq!(runner_resp.status, 200);
    assert_eq!(follower_resp.status, 200);
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 1, "one shared execution");
    assert_eq!(counter(&telemetry, "serve/coalesced"), 1, "duplicate joined it");

    let runner_trace = ndjson_trace(&runner_resp);
    let follower_trace = ndjson_trace(&follower_resp);
    assert_ne!(runner_trace, follower_trace, "each request mints its own trace");

    // One /trace download holds the whole correlated timeline.
    let trace = request(&addr, "GET", "/trace", None).expect("trace export");
    assert_eq!(trace.status, 200);
    let parsed = Json::parse(trace.body.trim()).expect("chrome trace parses");
    let events = parsed
        .get("traceEvents")
        .and_then(Json::as_arr)
        .expect("traceEvents array");

    let runner_chain = trace_event_names(events, runner_trace);
    let has = |name: &str| runner_chain.iter().any(|n| n == name);
    assert!(has("request"), "runner request span: {runner_chain:?}");
    assert!(has("gate.runner"), "gate verdict: {runner_chain:?}");
    assert!(has("queue.wait"), "queue wait span: {runner_chain:?}");
    let points = runner_chain.iter().filter(|n| *n == "point").count();
    assert_eq!(points, 2, "one executor span per point: {runner_chain:?}");
    let chunks = runner_chain.iter().filter(|n| *n == "chunk").count();
    assert_eq!(chunks, 2, "one simulator chunk span per point: {runner_chain:?}");

    let follower_chain = trace_event_names(events, follower_trace);
    assert!(
        follower_chain.iter().any(|n| n == "gate.follower"),
        "follower verdict: {follower_chain:?}"
    );
    // The follower's request span names the execution it joined.
    let follower_request = events
        .iter()
        .find(|e| {
            e.get("name").and_then(Json::as_str) == Some("request")
                && e.get("args")
                    .and_then(|a| a.get("trace_id"))
                    .and_then(Json::as_u64)
                    == Some(follower_trace)
        })
        .expect("follower request span");
    assert_eq!(
        follower_request
            .get("args")
            .and_then(|a| a.get("runner_trace"))
            .and_then(Json::as_u64),
        Some(runner_trace),
        "follower links to the runner's trace"
    );

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn saturation_rejects_new_jobs_with_429_and_retry_after() {
    let experiments = vec![
        slow_exp("srv_slow_x", 1, Duration::from_millis(700)),
        slow_exp("srv_slow_y", 1, Duration::from_millis(700)),
    ];
    let cache_dir = fresh_dir("saturation-cache");
    // Budget of exactly one admitted run: the second unique job bounces.
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments, &cache_dir, None, 1, 0);

    let runner = {
        let addr = addr.clone();
        thread::spawn(move || request(&addr, "POST", "/run?job=srv_slow_x", None).expect("runner"))
    };
    // Wait until the run is admitted and executing, so the saturation
    // answer below is deterministic, not a race with the runner's accept.
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&telemetry, "serve/exec.runs") == 0 {
        assert!(Instant::now() < deadline, "runner never started");
        thread::sleep(Duration::from_millis(5));
    }

    let bounced = request(&addr, "POST", "/run?job=srv_slow_y", None).expect("reject");
    assert_eq!(bounced.status, 429);
    assert_eq!(bounced.header("retry-after"), Some("1"));
    assert_eq!(counter(&telemetry, "serve/rejected.saturated"), 1);

    // A duplicate of the in-flight job is NOT load: it coalesces fine
    // even though the admission budget is spent.
    let follower = request(&addr, "POST", "/run?job=srv_slow_x", None).expect("follower");
    assert_eq!(follower.status, 200);

    assert_eq!(runner.join().unwrap().status, 200);
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 1);

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn cache_hits_bypass_the_executor_and_match_harness_run_bytes() {
    let experiments = vec![exp("srv_warm", 3)];
    let cache_dir = fresh_dir("warm-cache");

    // Warm the cache exactly the way `harness run` does: a direct
    // executor run into the same cache directory.
    let opts = RunOptions {
        filter: None,
        jobs: 2,
        force: false,
        cache_dir: cache_dir.clone(),
        write_artifacts: false,
        stream_output: false,
        telemetry_dir: None,
        max_attempts: 2,
        point_timeout: None,
        failures_path: None,
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
    };
    let direct = executor::run(&experiments, &opts).expect("warming run");
    let direct_text = direct.jobs[0].output.clone();

    let (addr, telemetry, shutdown, handle) =
        start_server(experiments, &cache_dir, None, 2, 8);

    // The raw-output endpoint is the byte-identity surface.
    let raw = request(&addr, "GET", "/result?job=srv_warm", None).expect("result");
    assert_eq!(raw.status, 200);
    assert_eq!(raw.body, direct_text);

    // The streamed path serves the same bytes in its done event.
    let streamed = request(&addr, "POST", "/run?job=srv_warm", None).expect("run");
    assert_eq!(streamed.status, 200);
    assert_eq!(done_output(&streamed), direct_text);

    // Memory speed means the executor was never touched.
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 0);
    assert_eq!(counter(&telemetry, "serve/cache.full_hits"), 2);

    // /metrics round-trips through the telemetry text format.
    let metrics = request(&addr, "GET", "/metrics", None).expect("metrics");
    assert_eq!(metrics.status, 200);
    let parsed = sparten_telemetry::parse_report(&metrics.body).expect("report parses");
    assert_eq!(parsed.counters.get("serve/cache.full_hits"), Some(&2));

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// The warm path renders once per cache state, yet never answers from
/// memory what the disk no longer holds: five hits cost one render, and a
/// deleted or corrupted entry is a miss at once.
#[test]
fn remembered_render_never_hides_the_disk() {
    let renders = Arc::new(AtomicUsize::new(0));
    let experiments: Vec<Arc<dyn Experiment>> = vec![Arc::new(TestExp {
        name: "srv_render",
        points: 3,
        delay: Duration::ZERO,
        renders: Arc::clone(&renders),
    })];
    // `direct_output` runs into `fresh_dir(tag)`: this warms `cache_dir`.
    let cache_dir = fresh_dir("render-cache");
    let direct = direct_output(&experiments, "srv_render", "render-cache");
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments.clone(), &cache_dir, None, 2, 8);

    let before = renders.load(Ordering::SeqCst);
    for _ in 0..5 {
        let hit = request(&addr, "GET", "/result?job=srv_render", None).expect("result");
        assert_eq!(hit.status, 200);
        assert_eq!(hit.body, direct);
    }
    assert_eq!(
        renders.load(Ordering::SeqCst) - before,
        1,
        "five hits on one cache state must render once"
    );

    let exp = &experiments[0];
    let entry = |point| {
        let key = Cache::key(exp.name(), &exp.fingerprint(), SEED, point);
        Cache::new(&cache_dir).entry_file(exp.name(), point, key)
    };
    // A deleted entry is a miss, and a run executes the job again.
    std::fs::remove_file(entry(1)).expect("delete entry");
    let miss = request(&addr, "GET", "/result?job=srv_render", None).expect("result");
    assert_eq!(
        miss.status, 404,
        "a deleted entry must not be served from memory"
    );
    let run = request(&addr, "POST", "/run?job=srv_render", None).expect("run");
    assert_eq!(run.status, 200);
    assert_eq!(
        counter(&telemetry, "serve/exec.runs"),
        1,
        "the run must execute"
    );
    assert_eq!(done_output(&run), direct);

    // A flipped byte fails the entry's checksum: a miss again.
    let path = entry(2);
    let mut bytes = std::fs::read(&path).expect("read entry");
    let at = bytes.len() - 2;
    bytes[at] ^= 0x01;
    std::fs::write(&path, bytes).expect("corrupt entry");
    let corrupt = request(&addr, "GET", "/result?job=srv_render", None).expect("result");
    assert_eq!(
        corrupt.status, 404,
        "a corrupted entry must not be served from memory"
    );

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A daemon bound to the unspecified address that never received a
/// connection still drains once the flag is raised: the watcher wakes its
/// blocking accept over loopback, and that wake is not a served session.
#[test]
fn idle_daemon_on_unspecified_address_drains_when_flagged() {
    let cache_dir = fresh_dir("idle-cache");
    let backend = Arc::new(HarnessBackend::new(
        vec![exp("srv_idle", 1)],
        cache_dir.clone(),
        None,
        false,
        1,
    ));
    let shutdown = Arc::new(AtomicUsize::new(0));
    let opts = ServeOptions {
        addr: "0.0.0.0:0".to_string(),
        shutdown: Arc::clone(&shutdown),
        ..ServeOptions::default()
    };
    let server = Server::bind(backend, Arc::new(Telemetry::new()), opts).expect("bind");
    let (done, drained) = mpsc::channel();
    thread::spawn(move || {
        let _ = done.send(server.serve());
    });

    shutdown.store(1, Ordering::SeqCst);
    // A missed wake fails here instead of hanging the suite.
    let report = drained
        .recv_timeout(Duration::from_secs(10))
        .expect("idle daemon never drained");
    assert!(report.clean(), "{report:?}");
    assert_eq!(
        report.sessions_served, 0,
        "the wake connection is not a session"
    );
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A slow-loris client holds one connection thread for its whole read
/// budget; concurrent requests are still answered at once by other
/// threads, never queued behind it.
#[test]
fn slow_client_does_not_hold_up_other_connections() {
    use std::io::Write;
    use std::net::TcpStream;

    let cache_dir = fresh_dir("busy-cache");
    let read_timeout = Duration::from_secs(5);
    let (addr, _telemetry, shutdown, handle, probe) = start_server_with(
        vec![exp("srv_busy", 1)],
        &cache_dir,
        None,
        1,
        0,
        read_timeout,
    );

    // A finished request leaves a parked thread, which the loris takes.
    let first = request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(first.status, 200);
    let deadline = Instant::now() + Duration::from_secs(10);
    while probe.sessions_served() < 1 {
        assert!(Instant::now() < deadline, "first session never ended");
        thread::sleep(Duration::from_millis(5));
    }
    let mut loris = TcpStream::connect(&addr).expect("connect");
    loris
        .write_all(b"GET /jobs HTTP/1.1\r\n")
        .expect("partial head");
    while probe.open_sessions() < 1 {
        assert!(Instant::now() < deadline, "loris never accepted");
        thread::sleep(Duration::from_millis(5));
    }

    for _ in 0..3 {
        let started = Instant::now();
        let health = request(&addr, "GET", "/healthz", None).expect("healthz");
        assert_eq!(health.status, 200);
        assert!(
            started.elapsed() < read_timeout / 4,
            "healthz waited {:?} behind a slow client",
            started.elapsed()
        );
    }

    drop(loris);
    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Drain: an in-flight request finishes and streams its result, new
/// connections are refused, the executor's journal is sealed (no dangling
/// `*.jsonl`), and the drain report is clean.
#[test]
fn drain_finishes_inflight_requests_and_seals_the_journal() {
    let experiments = vec![slow_exp("srv_drain", 2, Duration::from_millis(400))];
    let cache_dir = fresh_dir("drain-cache");
    let journal_dir = fresh_dir("drain-journal");
    let (addr, telemetry, shutdown, handle) = start_server(
        experiments,
        &cache_dir,
        Some(journal_dir.clone()),
        2,
        8,
    );

    let inflight = {
        let addr = addr.clone();
        thread::spawn(move || request(&addr, "POST", "/run?job=srv_drain", None).expect("inflight"))
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&telemetry, "serve/exec.runs") == 0 {
        assert!(Instant::now() < deadline, "run never started");
        thread::sleep(Duration::from_millis(5));
    }

    // Raise the drain flag mid-run: the accepted request must complete.
    shutdown.store(1, Ordering::SeqCst);
    let response = inflight.join().unwrap();
    assert_eq!(response.status, 200);
    let output = done_output(&response);
    assert!(output.contains("srv_drain computed point"), "{output}");

    let report = handle.join().unwrap();
    assert!(report.clean(), "drain abandoned sessions: {report:?}");
    assert!(report.sessions_served >= 1);

    // New connections are refused once drained.
    assert!(request(&addr, "GET", "/healthz", None).is_err());

    // The executor journaled the run and sealed it on completion: a
    // drained daemon leaves no dangling journal behind.
    let dangling = std::fs::read_dir(&journal_dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(dangling, 0, "journal must be sealed after a clean drain");

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
}

/// Router behavior for the non-run endpoints and malformed input.
#[test]
fn router_answers_health_jobs_and_rejects_garbage() {
    let experiments = vec![exp("srv_meta", 1)];
    let cache_dir = fresh_dir("router-cache");
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments, &cache_dir, None, 2, 8);

    let health = request(&addr, "GET", "/healthz", None).expect("healthz");
    assert_eq!(health.status, 200);
    assert!(
        health.body.starts_with("ok\n"),
        "healthz body: {}",
        health.body
    );
    assert!(
        health.body.contains("# build version="),
        "healthz carries build info: {}",
        health.body
    );

    let jobs = request(&addr, "GET", "/jobs", None).expect("jobs");
    assert_eq!(jobs.status, 200);
    let parsed = Json::parse(jobs.body.trim()).expect("jobs JSON");
    let Json::Arr(list) = parsed else { panic!("jobs must be an array") };
    assert_eq!(list.len(), 1);
    assert_eq!(list[0].get("name").and_then(Json::as_str), Some("srv_meta"));

    let missing = request(&addr, "POST", "/run?job=unknown_job", None).expect("404");
    assert_eq!(missing.status, 404);
    assert_eq!(counter(&telemetry, "serve/rejected.unknown_job"), 1);

    let no_job = request(&addr, "POST", "/run", None).expect("400");
    assert_eq!(no_job.status, 400);

    let body_run = request(&addr, "POST", "/run", Some("{\"job\": \"srv_meta\"}"))
        .expect("JSON body run");
    assert_eq!(body_run.status, 200);

    let wrong_method = request(&addr, "GET", "/run?job=srv_meta", None).expect("405");
    assert_eq!(wrong_method.status, 405);

    let nowhere = request(&addr, "GET", "/nowhere", None).expect("404 endpoint");
    assert_eq!(nowhere.status, 404);

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Slow-loris: a client dripping its request one byte at a time is
/// answered 408 once the *total* read budget runs out (the per-read
/// socket timeout alone would never fire), and the connection never
/// reaches admission — with an execution budget of one, a well-formed
/// request right after still gets the slot.
#[test]
fn slow_loris_is_reaped_within_the_read_budget_without_admission() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let experiments = vec![exp("srv_loris", 1)];
    let cache_dir = fresh_dir("loris-cache");
    let read_timeout = Duration::from_millis(300);
    let (addr, telemetry, shutdown, handle, probe) =
        start_server_with(experiments, &cache_dir, None, 1, 0, read_timeout);

    let started = Instant::now();
    let loris = TcpStream::connect(&addr).expect("connect");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    // Drip header bytes far slower than the read budget allows. The
    // dripper stops when the server reaps the connection (write fails);
    // the iteration bound only guards against a hung test.
    let dripper = {
        let mut stream = loris.try_clone().expect("clone");
        thread::spawn(move || {
            for byte in b"GET /jobs HTTP/1.1\r\nHost: drip\r\n".iter().cycle().take(400) {
                if stream.write_all(&[*byte]).is_err() {
                    break;
                }
                thread::sleep(Duration::from_millis(25));
            }
        })
    };

    let mut reply = String::new();
    let mut stream = loris;
    let _ = stream.read_to_string(&mut reply);
    let reaped_after = started.elapsed();
    drop(stream);
    dripper.join().unwrap();

    assert!(
        reply.starts_with("HTTP/1.1 408"),
        "slow client must be answered 408, got: {reply:?}"
    );
    assert!(
        reaped_after >= Duration::from_millis(250),
        "reaped suspiciously early ({reaped_after:?}): the read budget never armed"
    );
    assert!(
        reaped_after < read_timeout + Duration::from_secs(5),
        "reap took {reaped_after:?}, far beyond the {read_timeout:?} budget"
    );
    assert!(counter(&telemetry, "serve/http.bad_request") >= 1);
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 0, "loris must not reach the executor");
    assert_eq!(probe.gate_admitted(), 0, "loris must not hold admission budget");

    // The single execution slot is free for a real request.
    let ok = request(&addr, "POST", "/run?job=srv_loris", None).expect("well-formed run");
    assert_eq!(ok.status, 200);

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Torn request: a client that promises a 100-byte body, sends a
/// fragment, and disconnects is reaped promptly (EOF, not a timeout
/// wait) without consuming an admission slot or executor run.
#[test]
fn torn_request_mid_body_is_reaped_without_admission() {
    use std::io::Write;
    use std::net::TcpStream;

    let experiments = vec![exp("srv_torn", 1)];
    let cache_dir = fresh_dir("torn-cache");
    let read_timeout = Duration::from_millis(300);
    let (addr, telemetry, shutdown, handle, probe) =
        start_server_with(experiments, &cache_dir, None, 1, 0, read_timeout);

    for _ in 0..3 {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .write_all(
                b"POST /run HTTP/1.1\r\nHost: torn\r\nContent-Length: 100\r\n\r\npartial-body",
            )
            .expect("torn write");
        drop(stream); // disconnect mid-body
    }

    // All three torn connections must be accepted and reaped within the
    // read budget (EOF reaps immediately; the bound is generous slack).
    let deadline = Instant::now() + read_timeout + Duration::from_secs(10);
    while probe.sessions_served() < 3 {
        assert!(Instant::now() < deadline, "torn connections never reaped");
        thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(probe.open_sessions(), 0, "reaped sessions must be closed");
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 0, "torn bodies must not execute");
    assert_eq!(probe.gate_admitted(), 0, "torn bodies must not hold admission budget");

    // The single execution slot is free for a real request.
    let ok = request(&addr, "POST", "/run?job=srv_torn", None).expect("well-formed run");
    assert_eq!(ok.status, 200);

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Deadline propagation e2e: a request whose budget is already spent
/// (`Deadline-Ms: 0`) is answered 504 at admission — the executor is
/// never dispatched — while the same job with a sane budget runs fine.
#[test]
fn expired_deadline_answers_504_without_dispatching_the_executor() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let experiments = vec![slow_exp("srv_expired", 1, Duration::from_millis(100))];
    let cache_dir = fresh_dir("expired-cache");
    let (addr, telemetry, shutdown, handle) =
        start_server(experiments, &cache_dir, None, 1, 0);

    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    stream
        .write_all(b"POST /run?job=srv_expired HTTP/1.1\r\nHost: t\r\nDeadline-Ms: 0\r\n\r\n")
        .expect("request write");
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    assert!(
        reply.starts_with("HTTP/1.1 504"),
        "expired deadline must answer 504, got: {reply:?}"
    );
    assert!(reply.contains("deadline-exceeded"), "{reply:?}");
    assert!(reply.contains("\"stage\":\"admission\""), "{reply:?}");
    assert_eq!(counter(&telemetry, "serve/deadline.expired"), 1);
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 0, "504 must precede dispatch");

    // The same job with the default budget executes normally.
    let ok = request(&addr, "POST", "/run?job=srv_expired", None).expect("sane budget");
    assert_eq!(ok.status, 200);
    assert_eq!(counter(&telemetry, "serve/exec.runs"), 1);

    shutdown.store(1, Ordering::SeqCst);
    assert!(handle.join().unwrap().clean());
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// Cooperative cancellation e2e: when every subscriber of a run
/// disconnects, the gate fires the run's cancel token, the executor
/// stops at a checkpoint, the run is journaled `cancelled` (sealed — no
/// dangling `*.jsonl`), and the admission permit is released so the next
/// unique job gets the slot.
#[test]
fn abandoned_run_is_cancelled_journaled_and_releases_its_permit() {
    use std::io::Write;
    use std::net::TcpStream;

    let experiments = vec![
        slow_exp("srv_abandon", 6, Duration::from_millis(100)),
        exp("srv_after", 1),
    ];
    let cache_dir = fresh_dir("abandon-cache");
    let journal_dir = fresh_dir("abandon-journal");
    let (addr, telemetry, shutdown, handle, probe) = start_server_with(
        experiments,
        &cache_dir,
        Some(journal_dir.clone()),
        1,
        0,
        Duration::from_secs(30),
    );

    // Kick off the slow run, wait until the executor is actually inside
    // it, then drop the only subscriber.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    stream
        .write_all(b"POST /run?job=srv_abandon HTTP/1.1\r\nHost: t\r\n\r\n")
        .expect("request write");
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(&telemetry, "serve/exec.runs") == 0 {
        assert!(Instant::now() < deadline, "run never started");
        thread::sleep(Duration::from_millis(5));
    }
    drop(stream);

    // The next finished point notices the empty subscriber list, fires
    // the cancel token, and the run stops at a cancellation checkpoint.
    let deadline = Instant::now() + Duration::from_secs(15);
    while counter(&telemetry, "serve/exec.cancelled") == 0 {
        assert!(Instant::now() < deadline, "abandoned run was never cancelled");
        thread::sleep(Duration::from_millis(10));
    }

    // Permit released: with an execution budget of one, a different job
    // must be admitted. (The cancel counter ticks just before the permit
    // is finished, so tolerate a brief 429 window.)
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let after = request(&addr, "POST", "/run?job=srv_after", None).expect("after request");
        if after.status == 200 {
            break;
        }
        assert_eq!(after.status, 429, "only saturation is acceptable while the cancel settles");
        assert!(Instant::now() < deadline, "permit never released after cancellation");
        thread::sleep(Duration::from_millis(20));
    }

    shutdown.store(1, Ordering::SeqCst);
    let report = handle.join().unwrap();
    assert!(report.clean(), "drain abandoned sessions: {report:?}");
    assert_eq!(probe.gate_admitted(), 0, "cancelled run leaked its permit");
    assert_eq!(probe.gate_active(), 0, "cancelled run leaked its slot");

    // Both runs' journals are sealed: the cancelled one with status
    // `cancelled`, the completed one with `ok` — sealing deletes the
    // file, so any survivor is a leak.
    let dangling = std::fs::read_dir(&journal_dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok())
                .filter(|e| e.path().extension().is_some_and(|x| x == "jsonl"))
                .count()
        })
        .unwrap_or(0);
    assert_eq!(dangling, 0, "cancelled run must seal its journal");

    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_dir_all(&journal_dir);
}
