//! The serve daemon: listener, router, session streaming, and drain.
//!
//! # Request flow
//!
//! Every connection is one request. `POST /run` resolves the job, tries
//! the whole-job cache first (memory-speed, executor untouched), then
//! takes a ticket from the [`Gate`]:
//!
//! * **Runner** — spawns the execution on a worker thread (which waits
//!   for one of `max_active` slots, runs the [`Backend`], and broadcasts
//!   completion), then streams its own subscription like any follower.
//! * **Follower** — streams the in-flight run's events; no new work.
//! * **Saturated** — answers `429` with `Retry-After` immediately.
//!
//! Progress is chunked NDJSON: an `accepted` event, one `point` event per
//! finished sweep point, and a terminal `done` event carrying the full
//! output. The runner and every follower observe identical sequences.
//!
//! # Connection threads
//!
//! The accept loop blocks in `accept` and hands each connection to a
//! parked connection thread, spawning a new one only when none is parked,
//! so a slow client holds one thread and blocks nobody else. A thread that
//! finished its request parks for the next; at most
//! `available_parallelism()` stay parked and the rest exit. A thread whose
//! request panicked dies with it and is never reused.
//!
//! # Drain state machine
//!
//! A shared shutdown flag (the harness wires in the `signal.rs` flag,
//! tests inject their own) starts the drain. A signal handler can only
//! store an atomic, so a watcher thread polls the flag off the request
//! path and, once it is raised, connects to the listener to wake the
//! blocking `accept`; the loop checks the flag after every accept and
//! drops that connection unserved:
//!
//! ```text
//! ACCEPTING --flag>=1--> DRAINING --sessions==0--> DRAINED (exit 75)
//!                            |                        ^
//!                            +--drain_timeout reached-+  (timed_out)
//! ```
//!
//! In `DRAINING` the listener closes, so new connections are refused at
//! the TCP layer, while every accepted session — including runs still
//! queued for a slot — completes normally. That is what "zero dropped
//! accepted requests" means under shutdown. Parked connection threads are
//! then woken to exit and joined.

use crate::coalesce::{Event, Gate, SlotWait, Ticket};
use crate::http::{parse_request, respond, ChunkedWriter, HttpError, Request};
use crate::{Backend, JobInfo, PointSource};
use sparten_bench::json::Json;
use sparten_telemetry::{
    chrome_trace, prometheus, text_report, CancelToken, ServerMetrics, Telemetry, TraceContext,
};
use std::collections::VecDeque;
use std::io::{BufReader, Read};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the watcher thread reads the shutdown flag, and how long it
/// waits between wake attempts.
const WATCH_INTERVAL: Duration = Duration::from_millis(5);

/// Static identity a running daemon reports from `/healthz` and
/// `/metrics`: which binary and which job registry a scrape is observing.
#[derive(Debug, Clone, Default)]
pub struct BuildInfo {
    /// Binary version (the harness passes its crate version).
    pub version: String,
    /// FNV fingerprint of the served job registry.
    pub registry_fp: u64,
}

/// How the daemon listens and drains.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Executor runs allowed concurrently.
    pub max_active: usize,
    /// Additional admitted runs allowed to queue for a slot.
    pub max_queued: usize,
    /// Total budget for reading one request (head + body). This bounds a
    /// slow-loris client dripping bytes: each byte may arrive "in time",
    /// but the whole request must land within this window or the
    /// connection is answered 408 and reaped — before any admission
    /// decision, so a drip-feed never consumes an execution slot.
    pub read_timeout: Duration,
    /// How long drain waits for in-flight sessions before giving up.
    pub drain_timeout: Duration,
    /// Deadline budget applied when a request carries no `Deadline-Ms`
    /// header. Queue wait, executor dispatch, and per-point compute all
    /// draw down this budget.
    pub default_deadline: Duration,
    /// Server-side cap on client-requested deadlines: a `Deadline-Ms`
    /// larger than this is clamped, so one client cannot park work in
    /// the queue indefinitely.
    pub max_deadline: Duration,
    /// Shared shutdown flag: 0 = run, ≥ 1 = drain. The harness passes the
    /// `signal.rs` flag; tests store into their own.
    pub shutdown: Arc<AtomicUsize>,
    /// Identity reported to scrapers.
    pub build: BuildInfo,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            max_active: 2,
            max_queued: 8,
            read_timeout: Duration::from_secs(10),
            drain_timeout: Duration::from_secs(30),
            default_deadline: Duration::from_secs(120),
            max_deadline: Duration::from_secs(600),
            shutdown: Arc::new(AtomicUsize::new(0)),
            build: BuildInfo::default(),
        }
    }
}

/// What happened by the time [`Server::serve`] returned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// Sessions fully served over the server's lifetime.
    pub sessions_served: u64,
    /// Sessions still open when the drain timeout expired (0 on a clean
    /// drain).
    pub abandoned: u64,
}

impl DrainReport {
    /// True when every accepted session completed before shutdown.
    pub fn clean(&self) -> bool {
        self.abandoned == 0
    }
}

struct Shared {
    backend: Arc<dyn Backend>,
    telemetry: Arc<Telemetry>,
    metrics: ServerMetrics,
    gate: Arc<Gate>,
    open_sessions: AtomicUsize,
    served: AtomicUsize,
    build: BuildInfo,
    /// When the daemon started; request spans are stamped in µs since
    /// this instant, and `/metrics` reports it as uptime.
    started: Instant,
    /// Recorder process track every server-side span lands on.
    trace_pid: u32,
    /// Monotonic per-request thread-track allocator for the trace.
    request_seq: AtomicU64,
    /// Budget applied when a request has no `Deadline-Ms` header.
    default_deadline: Duration,
    /// Cap on client-requested deadline budgets.
    max_deadline: Duration,
}

impl Shared {
    /// Microseconds since the daemon started (the server-side trace
    /// clock).
    fn now_us(&self) -> u64 {
        self.started.elapsed().as_micros() as u64
    }
}

/// A bound, not-yet-serving daemon. `bind` then `serve`; tests grab
/// [`local_addr`](Server::local_addr) in between.
pub struct Server {
    listener: TcpListener,
    /// Where the shutdown watcher connects to wake the blocking accept.
    wake_addr: SocketAddr,
    shared: Arc<Shared>,
    opts: ServeOptions,
}

impl Server {
    /// Binds the listener and interns the server metrics in `telemetry`.
    pub fn bind(
        backend: Arc<dyn Backend>,
        telemetry: Arc<Telemetry>,
        opts: ServeOptions,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let wake_addr = wake_address(listener.local_addr()?);
        let metrics = ServerMetrics::new(&telemetry.metrics);
        let gate = Gate::new(opts.max_active, opts.max_queued);
        let trace_pid = telemetry.recorder.alloc_process("serve");
        Ok(Server {
            listener,
            wake_addr,
            shared: Arc::new(Shared {
                backend,
                telemetry,
                metrics,
                gate,
                open_sessions: AtomicUsize::new(0),
                served: AtomicUsize::new(0),
                build: opts.build.clone(),
                started: Instant::now(),
                trace_pid,
                request_seq: AtomicU64::new(0),
                default_deadline: opts.default_deadline,
                max_deadline: opts.max_deadline,
            }),
            opts,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A live-state handle that outlives [`Server::serve`]: the chaos
    /// campaign holds one across a trial and asserts every counter
    /// returns to zero after the drain (no leaked permits, no stuck
    /// sessions).
    pub fn probe(&self) -> ServerProbe {
        ServerProbe {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Runs the accept loop until the shutdown flag is raised, then
    /// drains. Blocks; run on a dedicated thread when embedding.
    pub fn serve(self) -> DrainReport {
        let Server {
            listener,
            wake_addr,
            shared,
            opts,
        } = self;
        let accepting = Arc::new(AtomicBool::new(true));
        let watcher = spawn_watcher(
            Arc::clone(&opts.shutdown),
            Arc::clone(&accepting),
            wake_addr,
        );
        let workers = Arc::new(Workers::new());
        let mut threads: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            // The watcher's wake connection, or a client racing the
            // drain, is dropped here unserved.
            if opts.shutdown.load(Ordering::SeqCst) != 0 {
                break;
            }
            match accepted {
                Ok((stream, _peer)) => {
                    shared.open_sessions.fetch_add(1, Ordering::SeqCst);
                    if let Some(stream) = workers.hand_off(stream) {
                        threads.retain(|t| !t.is_finished());
                        let (shared, workers) = (Arc::clone(&shared), Arc::clone(&workers));
                        let read_timeout = opts.read_timeout;
                        threads.push(thread::spawn(move || {
                            serve_connections(&shared, &workers, stream, read_timeout)
                        }));
                    }
                }
                // Out of descriptors, or a connection reset before it was
                // accepted: back off briefly rather than spin.
                Err(_) => thread::sleep(Duration::from_millis(1)),
            }
        }
        // DRAINING: close the listener so new connections are refused,
        // then wait for every accepted session (running or queued).
        drop(listener);
        accepting.store(false, Ordering::SeqCst);
        let _ = watcher.join();
        let abandoned = workers.drain(&shared, Instant::now() + opts.drain_timeout);
        // After a clean drain every thread is parked (now woken to exit)
        // or already gone; threads still serving an abandoned session are
        // left to finish on their own.
        if abandoned == 0 {
            for thread in threads {
                let _ = thread.join();
            }
        }
        DrainReport {
            sessions_served: shared.served.load(Ordering::SeqCst) as u64,
            abandoned: abandoned as u64,
        }
    }
}

/// The address the shutdown watcher connects to: the listener's own, with
/// an unspecified bind address (`0.0.0.0`, `[::]`) mapped to loopback.
fn wake_address(mut addr: SocketAddr) -> SocketAddr {
    if addr.ip().is_unspecified() {
        addr.set_ip(match addr.ip() {
            IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
            IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
        });
    }
    addr
}

/// Starts the thread that turns a raised shutdown flag into one
/// connection to `addr`, which wakes the blocking accept. The flag is set
/// from a signal handler, which may only store an atomic, so it must be
/// polled; this thread polls it off the request path. A failed connect is
/// retried until the accept loop has stopped.
fn spawn_watcher(
    shutdown: Arc<AtomicUsize>,
    accepting: Arc<AtomicBool>,
    addr: SocketAddr,
) -> JoinHandle<()> {
    thread::spawn(move || {
        while shutdown.load(Ordering::SeqCst) == 0 {
            thread::sleep(WATCH_INTERVAL);
        }
        while accepting.load(Ordering::SeqCst)
            && TcpStream::connect_timeout(&addr, WATCH_INTERVAL * 20).is_err()
        {
            thread::sleep(WATCH_INTERVAL);
        }
    })
}

/// The connection threads parked between requests.
struct Workers {
    state: Mutex<WorkerState>,
    /// Signalled when a connection is handed off, and at drain.
    wake: Condvar,
    /// Signalled when the last open session ends.
    idle: Condvar,
    /// Most threads kept parked; a thread finishing a request beyond this
    /// exits.
    max_parked: usize,
}

#[derive(Default)]
struct WorkerState {
    /// Parked threads not yet handed a connection.
    parked: usize,
    /// Connections handed off but not yet picked up.
    handoff: VecDeque<TcpStream>,
    /// Set at drain: parked threads exit.
    closed: bool,
}

impl Workers {
    fn new() -> Workers {
        Workers {
            state: Mutex::default(),
            wake: Condvar::new(),
            idle: Condvar::new(),
            max_parked: thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, WorkerState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Hands `stream` to a parked thread, or gives it back when none is
    /// parked.
    fn hand_off(&self, stream: TcpStream) -> Option<TcpStream> {
        let mut state = self.lock();
        if state.parked == 0 {
            return Some(stream);
        }
        state.parked -= 1;
        state.handoff.push_back(stream);
        self.wake.notify_one();
        None
    }

    /// Ends the calling thread's session on `finished`, then parks the
    /// thread until it is handed its next connection. `None` tells the
    /// thread to exit.
    fn next(&self, shared: &Shared, finished: TcpStream) -> Option<TcpStream> {
        let mut state = self.lock();
        // Counted under the lock, so `drain` cannot miss the last one.
        if shared.open_sessions.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.idle.notify_all();
        }
        shared.served.fetch_add(1, Ordering::SeqCst);
        if state.closed || state.parked >= self.max_parked {
            return None;
        }
        // Parked before the close: closing is what lets a client send its
        // next request, which should find this thread instead of
        // spawning another.
        state.parked += 1;
        drop(state);
        drop(finished);
        let mut state = self.lock();
        loop {
            if let Some(stream) = state.handoff.pop_front() {
                return Some(stream);
            }
            if state.closed {
                state.parked -= 1;
                return None;
            }
            state = self
                .wake
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// Waits until every accepted session has ended or `deadline` passes,
    /// then wakes the parked threads to exit. Returns the sessions still
    /// open.
    fn drain(&self, shared: &Shared, deadline: Instant) -> usize {
        let mut state = self.lock();
        loop {
            let open = shared.open_sessions.load(Ordering::SeqCst);
            let left = deadline.saturating_duration_since(Instant::now());
            if open == 0 || left.is_zero() {
                state.closed = true;
                self.wake.notify_all();
                return open;
            }
            state = self
                .idle
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }
}

/// A connection thread: serves `stream`, then each connection it is
/// handed while parked. A panic ends the thread with its session still
/// open, so the drain reports it abandoned, and the thread, whose
/// thread-local render capture may be mid-use, is never reused.
fn serve_connections(
    shared: &Arc<Shared>,
    workers: &Workers,
    mut stream: TcpStream,
    read_timeout: Duration,
) {
    loop {
        handle_connection(shared, &mut stream, read_timeout);
        match workers.next(shared, stream) {
            Some(next) => stream = next,
            None => return,
        }
    }
}

/// Read-state handle for post-drain invariant checks. Every accessor is
/// a lock-free or briefly-locked read; see [`Server::probe`].
pub struct ServerProbe {
    shared: Arc<Shared>,
}

impl ServerProbe {
    /// Runs currently holding an execution slot (0 after a clean drain).
    pub fn gate_active(&self) -> usize {
        self.shared.gate.active()
    }

    /// Admitted runs still holding budget — a nonzero value after a drain
    /// is a leaked [`crate::coalesce::RunPermit`].
    pub fn gate_admitted(&self) -> usize {
        self.shared.gate.admitted()
    }

    /// Connections currently being served (0 after a clean drain).
    pub fn open_sessions(&self) -> usize {
        self.shared.open_sessions.load(Ordering::SeqCst)
    }

    /// Sessions fully served so far.
    pub fn sessions_served(&self) -> usize {
        self.shared.served.load(Ordering::SeqCst)
    }
}

/// A [`TcpStream`] reader whose *total* read time is bounded: the
/// per-read socket timeout is re-armed to the time left before
/// `deadline`, so a slow-loris client dripping one byte per interval
/// still runs out of budget after `read_timeout` overall.
struct DeadlineReader {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for DeadlineReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let remaining = self.deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        // set_read_timeout rejects a zero Duration; clamp up.
        self.stream
            .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))?;
        self.stream.read(buf)
    }
}

fn handle_connection(shared: &Arc<Shared>, stream: &mut TcpStream, read_timeout: Duration) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    shared.metrics.sessions_inflight.observe(
        shared.open_sessions.load(Ordering::SeqCst) as f64,
    );
    let request = {
        let Ok(reader) = stream.try_clone() else {
            return;
        };
        let reader = DeadlineReader {
            stream: reader,
            deadline: Instant::now() + read_timeout,
        };
        parse_request(&mut BufReader::new(reader))
    };
    match request {
        Ok(request) => {
            shared.metrics.requests.inc();
            route(shared, stream, &request);
        }
        Err(HttpError::UnexpectedEof) => {} // client gave up; nothing to answer
        Err(HttpError::TimedOut) => {
            // Slow-loris or stalled client: answer 408 (best-effort) and
            // reap. The request never reached admission, so no slot or
            // budget is held.
            shared.metrics.bad_requests.inc();
            let _ = respond(
                stream,
                408,
                "text/plain",
                &[],
                "request not received within the read budget\n",
            );
        }
        Err(e) => {
            shared.metrics.bad_requests.inc();
            let _ = respond(
                stream,
                400,
                "text/plain",
                &[],
                &format!("{e}\n"),
            );
        }
    }
}

/// One `# build ...` comment line: valid in the text-report format
/// (parsers skip `#`), greppable by humans and smokes alike.
fn build_comment(shared: &Shared) -> String {
    format!(
        "# build version={} registry={:016x} uptime_s={}\n",
        shared.build.version,
        shared.build.registry_fp,
        shared.started.elapsed().as_secs()
    )
}

/// Whether the client asked for Prometheus exposition instead of the
/// native text report: `Accept: text/plain; version=0.0.4`, any
/// OpenMetrics accept, or an explicit `?format=prometheus`.
fn wants_prometheus(request: &Request) -> bool {
    if request.query_param("format") == Some("prometheus") {
        return true;
    }
    request.header("accept").is_some_and(|accept| {
        let accept = accept.to_ascii_lowercase();
        accept.contains("version=0.0.4") || accept.contains("openmetrics")
    })
}

fn route(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => {
            let body = format!("ok\n{}", build_comment(shared));
            let _ = respond(stream, 200, "text/plain", &[], &body);
        }
        ("GET", "/metrics") => {
            if wants_prometheus(request) {
                let mut body = prometheus::prometheus_report(
                    &shared.telemetry.metrics.snapshot(),
                    shared.telemetry.recorder.dropped(),
                );
                body.push_str(&prometheus::build_info(
                    &shared.build.version,
                    shared.build.registry_fp,
                    shared.started.elapsed().as_secs(),
                ));
                let _ = respond(stream, 200, prometheus::PROMETHEUS_CONTENT_TYPE, &[], &body);
            } else {
                let mut report = text_report(
                    "serve",
                    &shared.telemetry.metrics.snapshot(),
                    &shared.telemetry.recorder,
                );
                report.push_str(&build_comment(shared));
                let _ = respond(stream, 200, "text/plain", &[], &report);
            }
        }
        ("GET", "/trace") => {
            // The whole correlated timeline — request spans, gate
            // verdicts, queue waits, executor points, simulator chunks —
            // as one Perfetto-loadable Chrome trace.
            let trace = chrome_trace(
                &shared.telemetry.metrics.snapshot(),
                &shared.telemetry.recorder,
            );
            let _ = respond(stream, 200, "application/json", &[], &trace);
        }
        ("GET", "/jobs") => {
            let jobs = Json::Arr(shared.backend.jobs().iter().map(job_json).collect());
            let _ = respond(stream, 200, "application/json", &[], &(jobs.pretty() + "\n"));
        }
        ("GET", "/result") => handle_result(shared, stream, request),
        ("POST", "/run") => handle_run(shared, stream, request),
        ("GET", "/run") => {
            let _ = respond(
                stream,
                405,
                "text/plain",
                &[("Allow", "POST")],
                "use POST /run\n",
            );
        }
        _ => {
            let _ = respond(stream, 404, "text/plain", &[], "no such endpoint\n");
        }
    }
}

fn job_json(job: &JobInfo) -> Json {
    Json::obj([
        ("name", Json::str(&job.name)),
        ("kind", Json::str(&job.kind)),
        ("points", Json::UInt(job.points as u64)),
        ("key", Json::str(format!("{:016x}", job.key))),
    ])
}

/// Pulls the requested job name from `?job=` or a `{"job": "..."}` body.
fn requested_job(request: &Request) -> Result<String, String> {
    if let Some(name) = request.query_param("job") {
        if !name.is_empty() {
            return Ok(name.to_string());
        }
    }
    if !request.body.trim().is_empty() {
        let body = Json::parse(&request.body).map_err(|e| format!("bad JSON body: {e}"))?;
        if let Some(Json::Str(name)) = body.get("job") {
            return Ok(name.clone());
        }
        return Err("JSON body missing string field `job`".to_string());
    }
    Err("no job requested: pass ?job=NAME or a JSON body {\"job\": \"NAME\"}".to_string())
}

/// `GET /result?job=NAME`: the raw rendered output, cache-only. This is
/// the byte-identity endpoint — the body is exactly what `harness run`
/// prints for the job — and the hot path the cache-hit latency bench
/// times.
fn handle_result(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) {
    let name = match requested_job(request) {
        Ok(name) => name,
        Err(e) => {
            shared.metrics.bad_requests.inc();
            let _ = respond(stream, 400, "text/plain", &[], &format!("{e}\n"));
            return;
        }
    };
    if shared.backend.job(&name).is_none() {
        shared.metrics.rejected_unknown_job.inc();
        let _ = respond(stream, 404, "text/plain", &[], &format!("unknown job `{name}`\n"));
        return;
    }
    let started = Instant::now();
    match shared.backend.cached(&name) {
        Some(output) => {
            shared.metrics.cache_full_hits.inc();
            shared
                .metrics
                .cache_hit_latency_us
                .record(started.elapsed().as_micros() as u64);
            let _ = respond(stream, 200, "text/plain", &[], &output.text);
        }
        None => {
            let _ = respond(
                stream,
                404,
                "text/plain",
                &[],
                &format!("job `{name}` not fully cached; POST /run to compute it\n"),
            );
        }
    }
}

/// `POST /run?job=NAME`: compute (or join, or fetch) a job, streaming
/// NDJSON progress.
///
/// Every run request mints a root [`TraceContext`]. One that is not a
/// whole-job cache hit records its causal chain into the shared recorder:
/// the request span, the gate's verdict (as an instant event), the queue
/// wait, and — via the trace context handed to [`Backend::execute`] —
/// the executor's per-point spans and the simulators' per-chunk spans,
/// all carrying the same trace id. A follower's events additionally carry
/// `runner_trace` / `runner_span` args linking to the execution it joined.
fn handle_run(shared: &Arc<Shared>, stream: &mut TcpStream, request: &Request) {
    let name = match requested_job(request) {
        Ok(name) => name,
        Err(e) => {
            shared.metrics.bad_requests.inc();
            let _ = respond(stream, 400, "text/plain", &[], &format!("{e}\n"));
            return;
        }
    };
    let Some(job) = shared.backend.job(&name) else {
        shared.metrics.rejected_unknown_job.inc();
        let _ = respond(stream, 404, "text/plain", &[], &format!("unknown job `{name}`\n"));
        return;
    };

    // A client retry loop announces re-submissions; count them so a
    // scrape distinguishes organic load from retry amplification.
    if request.header("retry-attempt").is_some() {
        shared.metrics.retried_requests.inc();
    }

    // The request's deadline budget: `Deadline-Ms` (clamped to the
    // server cap) or the server default. Everything downstream — queue
    // wait, executor dispatch, per-point compute — draws down this one
    // budget, counted from request receipt.
    let received = Instant::now();
    let budget = match request.header("deadline-ms") {
        None => shared.default_deadline,
        Some(raw) => match raw.trim().parse::<u64>() {
            Ok(ms) => Duration::from_millis(ms).min(shared.max_deadline),
            Err(_) => {
                shared.metrics.bad_requests.inc();
                let _ = respond(
                    stream,
                    400,
                    "text/plain",
                    &[],
                    &format!("bad Deadline-Ms header `{raw}`: want milliseconds as an integer\n"),
                );
                return;
            }
        },
    };
    let deadline = received + budget;

    let ctx = TraceContext::root().with_deadline(deadline);
    let tid = shared.request_seq.fetch_add(1, Ordering::Relaxed) as u32;
    let recorder = &shared.telemetry.recorder;
    let req_start_us = shared.now_us();
    let mut request_args = ctx.args();
    request_args.push(("key", job.key));

    // An already-spent budget never reaches the cache, the gate, or the
    // executor: answer 504 with the elapsed breakdown immediately.
    if Instant::now() >= deadline {
        shared.metrics.deadline_expired.inc();
        recorder.instant(
            shared.trace_pid,
            tid,
            "deadline.expired",
            shared.now_us(),
            &ctx.args(),
        );
        respond_deadline_exceeded(stream, "admission", budget, received, 0);
        record_request_span(shared, tid, req_start_us, &request_args);
        return;
    }

    // Fast path: the whole job is in the result cache — answer at memory
    // speed without consuming admission budget or touching the executor.
    // Hits are counted in /metrics but not traced: the recorder keeps its
    // first events, and hits would fill it before the executions it is
    // there to explain.
    let started = Instant::now();
    if let Some(output) = shared.backend.cached(&name) {
        shared.metrics.cache_full_hits.inc();
        shared
            .metrics
            .cache_hit_latency_us
            .record(started.elapsed().as_micros() as u64);
        stream_events(
            stream,
            &job,
            "cache",
            std::iter::once(Event::Done(Arc::new(Ok(output)))),
            &ctx,
        );
        return;
    }

    let cancel = CancelToken::new().with_deadline(deadline);
    match shared.gate.enter(job.key, Some((ctx.trace_id, ctx.span_id)), cancel) {
        Ticket::Saturated => {
            shared.metrics.rejected_saturated.inc();
            recorder.instant(
                shared.trace_pid,
                tid,
                "gate.saturated",
                shared.now_us(),
                &ctx.args(),
            );
            let _ = respond(
                stream,
                429,
                "text/plain",
                &[("Retry-After", "1")],
                "saturated: admission queue is full, retry shortly\n",
            );
            record_request_span(shared, tid, req_start_us, &request_args);
        }
        Ticket::Follower(rx, runner_trace) => {
            shared.metrics.coalesced.inc();
            let mut args = ctx.args();
            if let Some((runner_trace, runner_span)) = runner_trace {
                args.push(("runner_trace", runner_trace));
                args.push(("runner_span", runner_span));
                request_args.push(("runner_trace", runner_trace));
                request_args.push(("runner_span", runner_span));
            }
            recorder.instant(shared.trace_pid, tid, "gate.follower", shared.now_us(), &args);
            stream_events(stream, &job, "follower", rx.into_iter(), &ctx);
            record_request_span(shared, tid, req_start_us, &request_args);
        }
        Ticket::Runner(permit, rx) => {
            recorder.instant(shared.trace_pid, tid, "gate.runner", shared.now_us(), &ctx.args());
            let wait_ctx = ctx.child("queue.wait", 0);
            // Queue for an execution slot *before* the response starts,
            // and never past the deadline: queue time draws down the
            // request budget, and an over-budget wait is still free to
            // become a clean 503 because no bytes have been written.
            let waited_us = match permit.wait_for_slot(Some(deadline)) {
                SlotWait::Granted { waited_us } => waited_us,
                SlotWait::DeadlineExpired { waited_us } => {
                    shared.metrics.queue_timeouts.inc();
                    recorder.instant(
                        shared.trace_pid,
                        tid,
                        "queue.timeout",
                        shared.now_us(),
                        &wait_ctx.args(),
                    );
                    // Fail the run so followers are notified and the
                    // admission budget is released; no slot was claimed.
                    permit.finish(Err(format!(
                        "queue-wait-exceeded: waited {}ms of a {}ms deadline budget",
                        waited_us / 1000,
                        budget.as_millis()
                    )));
                    respond_deadline_exceeded(stream, "queue", budget, received, waited_us);
                    record_request_span(shared, tid, req_start_us, &request_args);
                    return;
                }
            };
            shared.metrics.queue_wait_us.record(waited_us);
            let slot_at_us = shared.now_us();
            recorder.span(
                shared.trace_pid,
                tid,
                "queue.wait",
                slot_at_us.saturating_sub(waited_us),
                waited_us,
                &wait_ctx.args(),
            );
            let runner_shared = Arc::clone(shared);
            let runner_job = job.clone();
            let exec_ctx = ctx.child("execute", 0);
            thread::spawn(move || {
                // Double-check the cache under the run permit: the
                // handler's check can race a just-finishing twin run —
                // miss, twin completes and leaves the gate, then this
                // request becomes a fresh runner for work that is now
                // fully cached. Without this, "one executor run per
                // unique key" would only hold absent that interleaving.
                let result = match runner_shared.backend.cached(&runner_job.name) {
                    Some(output) => {
                        runner_shared.metrics.cache_full_hits.inc();
                        Ok(output)
                    }
                    None => {
                        runner_shared.metrics.exec_runs.inc();
                        // The progress closure goes through the gate, not
                        // the permit, so the permit stays solely owned
                        // here and its drop guard cannot misfire on a
                        // leaked clone.
                        let gate = Arc::clone(&runner_shared.gate);
                        let (key, total) = (runner_job.key, runner_job.points);
                        let progress: Arc<dyn Fn(usize, PointSource) + Send + Sync> =
                            Arc::new(move |point, source| {
                                gate.point_done(key, point, total, source)
                            });
                        let cancel = permit.cancel_token();
                        let result = runner_shared.backend.execute(
                            &runner_job.name,
                            progress,
                            Some(exec_ctx),
                            cancel.clone(),
                        );
                        if result.is_err() {
                            if cancel.is_cancelled() {
                                runner_shared.metrics.exec_cancelled.inc();
                            } else {
                                runner_shared.metrics.exec_failures.inc();
                            }
                        }
                        result
                    }
                };
                permit.finish(result);
            });
            stream_events(stream, &job, "runner", rx.into_iter(), &ctx);
            record_request_span(shared, tid, req_start_us, &request_args);
        }
    }
}

/// Answers a spent deadline budget: `504` at admission (the request never
/// reached the gate), `503` for a queue wait that outlived the budget —
/// the latter with `Retry-After`, since a freed-up queue may well admit a
/// retry. The body carries the elapsed breakdown so the client can see
/// where the budget went.
fn respond_deadline_exceeded(
    stream: &mut TcpStream,
    stage: &str,
    budget: Duration,
    received: Instant,
    queue_wait_us: u64,
) {
    let (status, error) = match stage {
        "queue" => (503, "queue-wait-exceeded"),
        _ => (504, "deadline-exceeded"),
    };
    let body = Json::obj([
        ("error", Json::str(error)),
        ("stage", Json::str(stage)),
        ("budget_ms", Json::UInt(budget.as_millis() as u64)),
        (
            "elapsed_ms",
            Json::UInt(received.elapsed().as_millis() as u64),
        ),
        ("queue_wait_ms", Json::UInt(queue_wait_us / 1000)),
    ]);
    let headers: &[(&str, &str)] = if status == 503 {
        &[("Retry-After", "1")]
    } else {
        &[]
    };
    let _ = respond(
        stream,
        status,
        "application/json",
        headers,
        &(body.compact() + "\n"),
    );
}

/// Closes out one request's trace span (start → response fully
/// streamed).
fn record_request_span(shared: &Shared, tid: u32, start_us: u64, args: &[(&'static str, u64)]) {
    shared.telemetry.recorder.span(
        shared.trace_pid,
        tid,
        "request",
        start_us,
        shared.now_us().saturating_sub(start_us),
        args,
    );
}

/// Streams `accepted` + per-point + `done` NDJSON events over a chunked
/// response. Client hangups are ignored: the run itself is owned by the
/// runner thread and completes regardless.
fn stream_events(
    stream: &mut TcpStream,
    job: &JobInfo,
    role: &str,
    events: impl Iterator<Item = Event>,
    ctx: &TraceContext,
) {
    let Ok(mut writer) = ChunkedWriter::begin(stream, 200, "application/x-ndjson") else {
        return;
    };
    let accepted = Json::obj([
        ("event", Json::str("accepted")),
        ("job", Json::str(&job.name)),
        ("points", Json::UInt(job.points as u64)),
        ("key", Json::str(format!("{:016x}", job.key))),
        ("role", Json::str(role)),
        ("trace", Json::str(ctx.trace_hex())),
    ]);
    if writer.chunk(&(accepted.compact() + "\n")).is_err() {
        return;
    }
    for event in events {
        let line = match event {
            Event::Point {
                point,
                done,
                total,
                source,
            } => Json::obj([
                ("event", Json::str("point")),
                ("point", Json::UInt(point as u64)),
                ("done", Json::UInt(done as u64)),
                ("total", Json::UInt(total as u64)),
                ("source", Json::str(source.label())),
            ]),
            Event::Done(result) => {
                let line = match result.as_ref() {
                    Ok(output) => Json::obj([
                        ("event", Json::str("done")),
                        ("status", Json::str("ok")),
                        ("output", Json::str(&output.text)),
                        (
                            "artifacts",
                            Json::Arr(
                                output
                                    .artifacts
                                    .iter()
                                    .map(|(name, data)| {
                                        Json::obj([
                                            ("name", Json::str(name)),
                                            ("data", Json::str(data)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ]),
                    Err(error) => Json::obj([
                        ("event", Json::str("done")),
                        ("status", Json::str("error")),
                        ("error", Json::str(error)),
                    ]),
                };
                let _ = writer.chunk(&(line.compact() + "\n"));
                let _ = writer.finish();
                return;
            }
        };
        if writer.chunk(&(line.compact() + "\n")).is_err() {
            return; // client hung up; runner thread finishes regardless
        }
    }
    // Event stream ended without Done (runner vanished) — terminate the
    // response so the client is not left waiting on a dead chunk stream.
    let _ = writer.finish();
}
