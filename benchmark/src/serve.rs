//! `serve-mixed`: a closed loop of mixed requests against an in-process
//! daemon.
//!
//! Setup binds `Server` over a `HarnessBackend` serving the GoogLeNet
//! figures (fig8, fig11, fig16) and three cheap single-point jobs, and
//! fills their cache. The load generator then drives one connection per
//! core, each sending its next request only after the previous reply
//! (the daemon's callers — the harness client and scripts — wait for
//! theirs). A pass is [`PASS`] requests: `GET /result` hits, [`WARM_RUNS`]
//! warm `POST /run`, and for each cheap job a pair of `POST /run` whose
//! cache entry the generator evicts first, which collide and coalesce.
//! Every 200 body is compared with `results/<job>.txt`.
//!
//! An op is one request, timed from connect to last byte; `wall_s` is the
//! median time of a pass of [`PASS`] requests.

use crate::probe::Probe;
use crate::stats::{median, percentile, supported_tail};
use crate::trace::{self, SpanId, Tracer};
use crate::window::{self, PassOutcome, PassStats, Passes, SetupClock};
use crate::{host, Ctx, Golden, Report};
use sparten::telemetry::{Telemetry, TraceContext};
use sparten::tensor::prng::Rng64;
use sparten_bench::json::Json;
use sparten_harness::cache::Cache;
use sparten_harness::executor::{self, RunOptions};
use sparten_harness::serve::HarnessBackend;
use sparten_harness::{Experiment, SEED};
use sparten_serve::{Backend, CancelToken, JobInfo, JobOutput, PointSource, ServeOptions, Server};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Jobs whose cache stays warm: targets of `GET /result` and warm runs.
const WARM: [&str; 3] = [
    "fig8_googlenet_speedup",
    "fig11_googlenet_breakdown",
    "fig16_googlenet_fpga",
];

/// Cheap single-point jobs the generator evicts before running them.
const EVICTED: [&str; 3] = ["table4_asic", "hpc_crossover", "validate"];

/// Requests per pass: enough that each pass's p99 has ten samples beyond
/// it.
const PASS: usize = 1000;

/// Warm `POST /run` requests per pass. The other warm requests are
/// `GET /result` hits. No record of the daemon's traffic exists, so this
/// share is chosen, not measured: one request in ten puts about a hundred
/// streamed cache replies in every pass, enough that a change to that path
/// moves the pass time, while hits stay the bulk (see the README).
const WARM_RUNS: usize = 100;

/// Set-ups per run; `setup_s` is their median. A set-up fills a cache
/// and binds a daemon, about half a second, so it is timed before the
/// window rather than beside each pass.
const SETUPS: usize = 3;

fn all_jobs() -> impl Iterator<Item = &'static str> {
    WARM.into_iter().chain(EVICTED)
}

fn job_index(name: &str) -> u64 {
    all_jobs()
        .position(|j| j == name)
        .map_or(u64::MAX, |i| i as u64)
}

/// The [`Backend`] seam: delegates to the harness backend, timing each
/// call as a span while tracing is on.
struct TracedBackend {
    inner: HarnessBackend,
    tracer: Arc<Tracer>,
    on: AtomicBool,
}

impl TracedBackend {
    fn timed<T>(&self, name: &'static str, job: &str, f: impl FnOnce() -> T) -> T {
        if self.on.load(Ordering::SeqCst) {
            self.tracer.time(name, None, job_index(job), f)
        } else {
            f()
        }
    }
}

impl Backend for TracedBackend {
    fn jobs(&self) -> Vec<JobInfo> {
        self.inner.jobs()
    }

    fn job(&self, name: &str) -> Option<JobInfo> {
        self.inner.job(name)
    }

    fn cached(&self, name: &str) -> Option<JobOutput> {
        self.timed("serve.backend.cached", name, || self.inner.cached(name))
    }

    fn execute(
        &self,
        name: &str,
        progress: Arc<dyn Fn(usize, PointSource) + Send + Sync>,
        trace: Option<TraceContext>,
        cancel: CancelToken,
    ) -> Result<JobOutput, String> {
        self.timed("serve.backend.execute", name, || {
            self.inner.execute(name, progress, trace, cancel)
        })
    }
}

/// A bound, serving daemon and what the generator needs to drive it.
/// Dropping it stops the daemon.
struct Daemon {
    addr: SocketAddr,
    backend: Arc<TracedBackend>,
    shutdown: Arc<AtomicUsize>,
    thread: Option<JoinHandle<sparten_serve::DrainReport>>,
    /// Cache entry file of each evictable job.
    evict: Vec<PathBuf>,
}

impl Daemon {
    /// Stops accepting, drains, and checks nothing was abandoned.
    fn stop(&mut self) -> Result<(), String> {
        self.shutdown.store(1, Ordering::SeqCst);
        let Some(thread) = self.thread.take() else {
            return Ok(());
        };
        let report = thread.join().map_err(|_| "server thread panicked")?;
        if report.clean() {
            Ok(())
        } else {
            Err(format!(
                "{} session(s) abandoned at drain",
                report.abandoned
            ))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Fills a fresh state directory's cache and binds a daemon over it.
fn start(
    ctx: &Ctx,
    probe: &Arc<Probe>,
    tracer: &Arc<Tracer>,
    golden: &Golden,
    n: usize,
) -> Result<Daemon, String> {
    let dir = PathBuf::from(format!("serve-{n}"));
    let (cache_dir, journal_dir) = (dir.join("cache"), dir.join("journal"));
    let exps: Vec<Arc<dyn Experiment>> = sparten_harness::registry()
        .into_iter()
        .filter(|e| all_jobs().any(|j| j == e.name()))
        .collect();
    let evict = EVICTED
        .iter()
        .map(|name| {
            let exp = exps
                .iter()
                .find(|e| e.name() == *name)
                .ok_or("job missing")?;
            let key = Cache::key(name, &exp.fingerprint(), SEED, 0);
            Ok(Cache::new(&cache_dir).entry_file(name, 0, key))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let exps = probe.wrap(exps);
    let fill = executor::run(
        &exps,
        &RunOptions {
            jobs: ctx.workers,
            cache_dir: cache_dir.clone(),
            journal_dir: Some(journal_dir.clone()),
            failures_path: None,
            stream_output: false,
            run_id: Some(format!("fill-{n}")),
            ..RunOptions::default()
        },
    )?;
    for job in &fill.jobs {
        golden
            .check_job(job)
            .map_err(|e| format!("cache fill: {e}"))?;
    }
    let backend = Arc::new(TracedBackend {
        inner: HarnessBackend::new(exps, cache_dir, Some(journal_dir), true, ctx.workers),
        tracer: Arc::clone(tracer),
        on: AtomicBool::new(false),
    });
    let shutdown = Arc::new(AtomicUsize::new(0));
    let opts = ServeOptions {
        max_active: ctx.workers,
        shutdown: Arc::clone(&shutdown),
        ..ServeOptions::default()
    };
    let server = Server::bind(backend.clone(), Arc::new(Telemetry::new()), opts)
        .map_err(|e| format!("bind: {e}"))?;
    let addr = server
        .local_addr()
        .map_err(|e| format!("local address: {e}"))?;
    let thread = std::thread::spawn(move || server.serve());
    let daemon = Daemon {
        addr,
        backend,
        shutdown,
        thread: Some(thread),
        evict,
    };
    match http(addr, "GET", "/healthz") {
        Ok(reply) if reply.status == 200 => Ok(daemon),
        other => Err(format!("daemon not healthy: {:?}", other.map(|r| r.status))),
    }
}

/// One request of the mix.
#[derive(Debug, Clone, Copy)]
enum Req {
    /// `GET /result` on a warm job.
    Result(&'static str),
    /// `POST /run` on a warm job.
    Run(&'static str),
    /// Evict a cheap job's cache entry, then `POST /run` it.
    EvictRun(usize),
}

impl Req {
    fn job(self) -> &'static str {
        match self {
            Req::Result(j) | Req::Run(j) => j,
            Req::EvictRun(i) => EVICTED[i],
        }
    }

    /// The request's span name in the traced run.
    fn span(self) -> &'static str {
        match self {
            Req::Result(_) => "loadgen.get_result",
            Req::Run(_) => "loadgen.run_warm",
            Req::EvictRun(_) => "loadgen.run_evicted",
        }
    }
}

/// The seeded request sequence of pass `pass`. Every pass holds the same
/// requests, so passes compare like with like; the seed sets their order,
/// the figure each warm request names, and where each cheap job is
/// evicted. Each cheap job is evicted once per pass, as a back-to-back
/// pair of runs: the two connections usually send a pair together, so the
/// second run coalesces onto the first.
fn requests(seed: u64, pass: u64) -> Vec<Req> {
    let mut rng = Rng64::seed_from_u64(seed ^ (pass + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let warm = PASS - 2 * EVICTED.len();
    let mut reqs: Vec<Req> = (0..warm)
        .map(|i| {
            let job = WARM[rng.gen_range_usize(0, WARM.len())];
            if i < WARM_RUNS {
                Req::Run(job)
            } else {
                Req::Result(job)
            }
        })
        .collect();
    for i in (1..reqs.len()).rev() {
        reqs.swap(i, rng.gen_range_usize(0, i + 1));
    }
    // Splicing from the back keeps an earlier splice from splitting a pair.
    let mut at: Vec<(usize, usize)> = (0..EVICTED.len())
        .map(|e| (rng.gen_range_usize(0, warm + 1), e))
        .collect();
    at.sort_unstable_by(|a, b| b.cmp(a));
    for (at, e) in at {
        reqs.splice(at..at, [Req::EvictRun(e); 2]);
    }
    reqs
}

/// A fully read HTTP reply.
#[derive(Debug)]
struct Reply {
    status: u16,
    body: Vec<u8>,
}

/// Decodes a chunked body; `None` if the framing is broken.
fn dechunk(mut raw: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let eol = raw.windows(2).position(|w| w == b"\r\n")?;
        let size = usize::from_str_radix(std::str::from_utf8(&raw[..eol]).ok()?.trim(), 16).ok()?;
        raw = &raw[eol + 2..];
        if size == 0 {
            return Some(out);
        }
        out.extend_from_slice(raw.get(..size)?);
        raw = raw.get(size + 2..)?;
    }
}

/// Parses a whole response (the server closes after each one).
fn parse_reply(raw: &[u8]) -> Result<Reply, String> {
    let head_end = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or("no header terminator")?;
    let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| "header is not UTF-8")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("bad status line")?;
    let body = &raw[head_end + 4..];
    let chunked = head.lines().any(|l| {
        l.to_ascii_lowercase()
            .starts_with("transfer-encoding: chunked")
    });
    let body = if chunked {
        dechunk(body).ok_or("broken chunked framing")?
    } else {
        body.to_vec()
    };
    Ok(Reply { status, body })
}

/// Sends one request on a fresh connection; returns the reply and the
/// connect time.
fn exchange(addr: SocketAddr, method: &str, target: &str) -> Result<(Reply, Duration), String> {
    let start = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let connect = start.elapsed();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| format!("timeout: {e}"))?;
    let request = format!("{method} {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: 0\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    Ok((parse_reply(&raw)?, connect))
}

fn http(addr: SocketAddr, method: &str, target: &str) -> Result<Reply, String> {
    exchange(addr, method, target).map(|(reply, _)| reply)
}

/// Checks a reply against the golden text of its job.
fn verify(req: Req, reply: &Reply, golden: &Golden) -> Result<(), String> {
    if reply.status != 200 {
        return Err(format!("{} answered {}", req.job(), reply.status));
    }
    let want = golden.text(req.job()).ok_or("no golden text")?;
    let body = std::str::from_utf8(&reply.body).map_err(|_| "body is not UTF-8")?;
    let text = match req {
        Req::Result(_) => body.to_string(),
        Req::Run(_) | Req::EvictRun(_) => {
            let done = body.lines().last().ok_or("empty stream")?;
            let done = Json::parse(done).map_err(|e| format!("done event: {e}"))?;
            if done.get("status").and_then(Json::as_str) != Some("ok") {
                return Err(format!("{} run did not finish ok: {done:?}", req.job()));
            }
            done.get("output")
                .and_then(Json::as_str)
                .ok_or("no output")?
                .to_string()
        }
    };
    if text == want {
        Ok(())
    } else {
        Err(format!(
            "{}: body differs from results/{}.txt",
            req.job(),
            req.job()
        ))
    }
}

/// One request's outcome, times on the tracer's clock (ns).
struct Outcome {
    req: Req,
    start: u64,
    end: u64,
    connect_us: f64,
    ok: bool,
}

/// Drives one pass over `reqs` on `ctx.workers` connections; returns
/// outcomes in request order and the pass's wall time.
fn drive(
    ctx: &Ctx,
    daemon: &Daemon,
    golden: &Golden,
    tracer: &Tracer,
    reqs: &[Req],
) -> (Vec<Outcome>, f64) {
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Outcome>>> = reqs.iter().map(|_| Mutex::new(None)).collect();
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..ctx.workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(&req) = reqs.get(i) else { break };
                let (method, target) = match req {
                    Req::Result(job) => ("GET", format!("/result?job={job}")),
                    Req::Run(job) => ("POST", format!("/run?job={job}")),
                    Req::EvictRun(e) => {
                        // Another connection may have evicted it already.
                        let _ = std::fs::remove_file(&daemon.evict[e]);
                        ("POST", format!("/run?job={}", EVICTED[e]))
                    }
                };
                let begin = tracer.now();
                let result = exchange(daemon.addr, method, &target);
                let end = tracer.now();
                let (ok, connect_us) = match &result {
                    Ok((reply, connect)) => match verify(req, reply, golden) {
                        Ok(()) => (true, connect.as_secs_f64() * 1e6),
                        Err(e) => {
                            eprintln!("request {i}: {e}");
                            (false, connect.as_secs_f64() * 1e6)
                        }
                    },
                    Err(e) => {
                        eprintln!("request {i}: {e}");
                        (false, 0.0)
                    }
                };
                *slots[i].lock().expect("outcome slot") = Some(Outcome {
                    req,
                    start: begin,
                    end,
                    connect_us,
                    ok,
                });
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    let outcomes = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("outcome slot")
                .expect("every request ran")
        })
        .collect();
    (outcomes, wall)
}

/// Round-trip milliseconds, failed requests as infinity.
fn latencies_ms(outcomes: &[Outcome]) -> Vec<f64> {
    outcomes
        .iter()
        .map(|o| {
            if o.ok {
                (o.end - o.start) as f64 / 1e6
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new());
    let probe = Probe::new(Arc::clone(&tracer));
    let jobs: Vec<&str> = all_jobs().collect();
    let mut setups = SetupClock::default();
    let mut started = None;
    for n in 0..if ctx.traced { 1 } else { SETUPS } {
        started = Some(setups.time(|| {
            let golden = Golden::load(&ctx.root, &jobs, &WARM)?;
            Ok((start(ctx, &probe, &tracer, &golden, n)?, golden))
        })?);
    }
    let (mut daemon, golden) = started.ok_or("no set-up ran")?;
    host::reset_peak_rss();
    let result = measure(ctx, &daemon, &golden, &tracer, &probe, &setups);
    let stopped = daemon.stop();
    let report = result?;
    stopped?;
    Ok(report)
}

/// The client spans of one traced pass: its span, its id and its
/// requests' outcomes.
type TracedPass = (SpanId, u64, Vec<Outcome>);

/// Drives passes through the window. Untraced, reports the end-to-end
/// metrics; traced, untraced and traced passes alternate, and traced ones
/// time every backend call and client request.
fn measure(
    ctx: &Ctx,
    daemon: &Daemon,
    golden: &Golden,
    tracer: &Tracer,
    probe: &Probe,
    setups: &SetupClock,
) -> Result<Report, String> {
    let (mut all_ms, mut traced) = (Vec::new(), Vec::new());
    let min = 1 + ctx.traced as u64;
    let passes = window::run(ctx.window, min, ctx.traced, tracer, probe, |scope| {
        let reqs = requests(ctx.seed, scope.id);
        daemon
            .backend
            .on
            .store(scope.span().is_some(), Ordering::SeqCst);
        let (outcomes, wall) = drive(ctx, daemon, golden, tracer, &reqs);
        daemon.backend.on.store(false, Ordering::SeqCst);
        scope.end();
        let latencies = latencies_ms(&outcomes);
        match scope.span() {
            Some(span) => traced.push((span, scope.id, outcomes)),
            None => all_ms.extend(&latencies),
        }
        Ok(PassOutcome::per_result(wall, latencies))
    })?;
    let mut report = passes.report();
    if ctx.traced {
        traced_metrics(&mut report, ctx, daemon, tracer, &passes, traced)?;
        return Ok(report);
    }
    report.set_end_to_end(setups, &passes.plain);
    let tail = supported_tail(all_ms.len()).unwrap_or(50.0);
    eprintln!(
        "serve-mixed: {PASS} requests per pass; over all {} requests p{tail} (the highest \
         percentile with ten samples beyond it) is {:.3} ms",
        all_ms.len(),
        percentile(&all_ms, tail).unwrap_or(f64::INFINITY),
    );
    Ok(report)
}

/// Reads the daemon's own counters from `/metrics`.
fn scrape(addr: SocketAddr) -> Result<Vec<(String, f64)>, String> {
    let reply = http(addr, "GET", "/metrics")?;
    let text = String::from_utf8(reply.body).map_err(|_| "metrics are not UTF-8")?;
    Ok(text
        .lines()
        .filter_map(|l| l.strip_prefix("counter "))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// Pairs each request with the backend `cached` call it contains: same
/// job, inside its round trip, earliest unclaimed first, requests taken
/// in order of start. Returns, per request, the matched span's index.
fn match_cached(outcomes: &[(SpanId, &Outcome)], spans: &[trace::Span]) -> Vec<Option<usize>> {
    let mut by_job: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    for (k, s) in spans.iter().enumerate() {
        if s.name == "serve.backend.cached" {
            by_job.entry(s.id).or_default().push(k);
        }
    }
    for calls in by_job.values_mut() {
        calls.sort_by_key(|&k| spans[k].start);
    }
    let mut claimed = vec![false; spans.len()];
    let mut order: Vec<usize> = (0..outcomes.len()).collect();
    order.sort_by_key(|&i| outcomes[i].1.start);
    let mut matched = vec![None; outcomes.len()];
    for i in order {
        let o = outcomes[i].1;
        let Some(calls) = by_job.get(&job_index(o.req.job())) else {
            continue;
        };
        let from = calls.partition_point(|&k| spans[k].start < o.start);
        let found = calls[from..]
            .iter()
            .take_while(|&&k| spans[k].start <= o.end)
            .find(|&&k| !claimed[k] && spans[k].end <= o.end);
        if let Some(&k) = found {
            claimed[k] = true;
            matched[i] = Some(k);
        }
    }
    matched
}

/// The per-layer metrics of the traced passes, from their spans and the
/// daemon's own counters.
fn traced_metrics(
    report: &mut Report,
    ctx: &Ctx,
    daemon: &Daemon,
    tracer: &Tracer,
    passes: &Passes,
    traced: Vec<TracedPass>,
) -> Result<(), String> {
    let mut requests_spans: Vec<(SpanId, Outcome)> = Vec::new();
    for (span, pass, outcomes) in traced {
        for (i, o) in outcomes.into_iter().enumerate() {
            let id = pass << 32 | i as u64;
            let req = tracer.record(o.req.span(), o.start, o.end, Some(span), id);
            let connect_ns = (o.connect_us * 1e3) as u64;
            tracer.record(
                "loadgen.connect",
                o.start,
                o.start + connect_ns,
                Some(req),
                id,
            );
            requests_spans.push((req, o));
        }
    }
    let mut spans = tracer.spans();
    let outcomes: Vec<(SpanId, &Outcome)> = requests_spans.iter().map(|(s, o)| (*s, o)).collect();
    let matched = match_cached(&outcomes, &spans);
    let mut outside_us = Vec::new();
    for ((req_span, o), m) in outcomes.iter().zip(&matched) {
        if let Some(k) = *m {
            spans[k].parent = Some(*req_span);
            if matches!(o.req, Req::Result(_)) && o.ok {
                let backend = spans[k].end - spans[k].start;
                outside_us.push(((o.end - o.start) - backend) as f64 / 1e3);
            }
        }
    }

    let n = passes.traced.len() as f64;
    let us = |name| {
        trace::durations(&spans, name)
            .iter()
            .map(|s| s * 1e6)
            .collect::<Vec<_>>()
    };
    let (cached, execute) = (us("serve.backend.cached"), us("serve.backend.execute"));
    report.set(
        "serve.backend.cached_us_p50",
        median(&cached).unwrap_or(0.0),
    );
    report.set("serve.backend.cached_calls", cached.len() as f64 / n);
    report.set(
        "serve.backend.execute_ms_p50",
        median(&execute).unwrap_or(0.0) / 1e3,
    );
    report.set("serve.backend.execute_calls", execute.len() as f64 / n);
    report.set(
        "serve.outside_backend_us_p50",
        median(&outside_us).unwrap_or(0.0),
    );
    let round_trips: f64 = outcomes
        .iter()
        .map(|(_, o)| (o.end - o.start) as f64 / 1e3)
        .sum();
    let backend: f64 = cached.iter().chain(&execute).sum();
    report.set("serve.backend_share", backend / round_trips);
    let connects: Vec<f64> = outcomes.iter().map(|(_, o)| o.connect_us).collect();
    report.set("loadgen.connect_us_p50", median(&connects).unwrap_or(0.0));
    report.set(
        "loadgen.p99_ms",
        PassStats::median(&passes.traced, |p| p.p99_ms),
    );
    report.set("loadgen.requests", report.attempted as f64);
    report.set("loadgen.failed", report.failed as f64);
    crate::cold::experiment_metrics(report, &spans, n);
    let by_name = trace::self_seconds_by_name(&spans);
    report.set(
        "trace.unattributed_s",
        by_name.get("pass").copied().unwrap_or(0.0) / n,
    );
    report.set("trace.overhead_ratio", passes.overhead_ratio());

    let counters = scrape(daemon.addr)?;
    let counter = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let (coalesced, runs) = (counter("serve/coalesced"), counter("serve/exec.runs"));
    report.set("serve.coalesced", coalesced);
    report.set("serve.exec_runs", runs);
    report.set("serve.rejected", counter("serve/rejected.saturated"));
    report.set(
        "serve.coalesce_ratio",
        if coalesced + runs > 0.0 {
            coalesced / (coalesced + runs)
        } else {
            0.0
        },
    );
    eprintln!(
        "serve-mixed traced: {} + {} passes; backend cached p50 {:.1} us, outside backend p50 {:.1} us over {} matched hits",
        passes.plain.len(),
        passes.traced.len(),
        report.metrics["serve.backend.cached_us_p50"],
        report.metrics["serve.outside_backend_us_p50"],
        outside_us.len()
    );
    ctx.write_trace(&spans)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_replies_decode() {
        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let reply = parse_reply(raw).unwrap();
        assert_eq!((reply.status, reply.body.as_slice()), (200, &b"abcde"[..]));
        let plain = parse_reply(b"HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno").unwrap();
        assert_eq!((plain.status, plain.body.as_slice()), (404, &b"no"[..]));
        assert!(
            parse_reply(b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n9\r\nabc").is_err()
        );
    }

    #[test]
    fn a_corrupted_body_fails_verification() {
        let job = "table4_asic";
        let golden = Golden::for_test(&[(job, "table\n")]);
        let reply = |status, body: &str| Reply {
            status,
            body: body.as_bytes().to_vec(),
        };
        let done = |output: &str| {
            let line = Json::obj([
                ("event", Json::str("done")),
                ("status", Json::str("ok")),
                ("output", Json::str(output)),
            ]);
            format!("{{\"event\":\"accepted\"}}\n{}\n", line.compact())
        };
        let req = Req::EvictRun(0);
        assert!(verify(req, &reply(200, &done("table\n")), &golden).is_ok());
        assert!(verify(req, &reply(200, &done("tablE\n")), &golden).is_err());
        assert!(verify(req, &reply(429, &done("table\n")), &golden).is_err());
    }

    #[test]
    fn backend_calls_pair_with_the_requests_that_contain_them() {
        let job = "fig8_googlenet_speedup";
        let call = |start, end| trace::Span {
            name: "serve.backend.cached",
            start,
            end,
            parent: None,
            id: job_index(job),
            tid: 0,
        };
        // Two overlapping requests for one job, a call for another job,
        // and a call that escapes both requests.
        let spans = vec![call(30, 40), call(12, 20), call(50, 90), {
            let mut other = call(14, 16);
            other.id = job_index("validate");
            other
        }];
        let outcome = |start, end| Outcome {
            req: Req::Result(job),
            start,
            end,
            connect_us: 0.0,
            ok: true,
        };
        let (a, b) = (outcome(10, 45), outcome(11, 60));
        let matched = match_cached(&[(0, &a), (1, &b)], &spans);
        assert_eq!(matched, vec![Some(1), Some(0)]);
    }

    #[test]
    fn request_mix_is_seeded() {
        assert_eq!(
            format!("{:?}", requests(7, 0)),
            format!("{:?}", requests(7, 0))
        );
        assert_ne!(
            format!("{:?}", requests(7, 0)),
            format!("{:?}", requests(8, 0))
        );
        for seed in 0..50 {
            let reqs = requests(seed, 3);
            assert_eq!(reqs.len(), PASS);
            let count = |f: fn(&Req) -> bool| reqs.iter().filter(|r| f(r)).count();
            assert_eq!(count(|r| matches!(r, Req::Run(_))), WARM_RUNS);
            assert_eq!(count(|r| matches!(r, Req::Result(_))), PASS - WARM_RUNS - 6);
            // Each cheap job is evicted once, as one back-to-back pair.
            for e in 0..EVICTED.len() {
                let at: Vec<usize> = (0..PASS)
                    .filter(|&i| matches!(reqs[i], Req::EvictRun(j) if j == e))
                    .collect();
                assert_eq!(at.len(), 2, "seed {seed}: job {e} at {at:?}");
                assert_eq!(at[1], at[0] + 1, "seed {seed}: job {e} at {at:?}");
            }
        }
    }
}
