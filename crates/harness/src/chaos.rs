//! The chaos campaign: drive a real serve daemon over real sockets
//! through seeded client/network misbehavior, and verify the service's
//! resilience invariants after every trial.
//!
//! One trial = one [`Spec`] from the [`CHAOS`] plan.
//! Each trial boots a private in-process [`Server`] (scratch cache and
//! journal directories, its own shutdown flag, an ephemeral port),
//! attacks it with the spec's class of misbehavior — torn request
//! bodies, slow-loris byte-drip headers, mid-stream client disconnects,
//! deadline storms, queue floods — then drains the server and checks:
//!
//! * **no leaked permits** — the gate's admitted and active counts are 0;
//! * **no stuck sessions** — `open_sessions == 0` and the drain report
//!   is clean;
//! * **every journal sealed** — no `*.jsonl` remains in the scratch
//!   journal directory (a cancelled run seals as `cancelled`);
//! * **cache never corrupted** — every surviving cache entry still
//!   parses and validates;
//! * **no hung threads** — the server thread itself exits within a
//!   bounded wait.
//!
//! The report tallies only invariant outcomes (clean / violated /
//! crashed) and deterministic violation messages — never timings — so
//! the same seed renders a byte-identical report.

use crate::cache::{Cache, Lookup};
use crate::serve::HarnessBackend;
use crate::{Experiment, PointPayload};
use sparten::faults::{Campaign, ChaosClass, Spec, Taxonomy, Verdict, CHAOS};
use sparten_bench::{Capture, ExperimentKind};
use sparten_serve::client::{request, request_with, RequestOptions};
use sparten_serve::{ServeOptions, Server, ServerProbe};
use sparten_telemetry::Telemetry;
use std::io::Write as _;
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How long the harness waits for a bounded condition (server exit, gate
/// drain) before declaring a hang. Generous on purpose: a slow CI box
/// must not turn into a flaky violation, and a genuine hang waits the
/// full budget exactly once.
const HANG_BUDGET: Duration = Duration::from_secs(20);

/// The chaos campaign (`harness chaos`).
pub struct Chaos;

impl Campaign for Chaos {
    type Class = ChaosClass;
    const TAXONOMY: &'static Taxonomy<ChaosClass> = &CHAOS;

    fn run_trial(&self, spec: &Spec<ChaosClass>) -> Verdict {
        Verdict::from_violations(run_trial(spec))
    }
}

/// A deterministic synthetic experiment for chaos trials. Points sleep
/// in small slices, polling the thread's cancellation checkpoint between
/// slices — the same cooperative contract the real simulators honor at
/// chunk-batch boundaries.
struct ChaosExp {
    name: &'static str,
    points: usize,
    delay: Duration,
    /// Folded into the fingerprint so every trial gets fresh coalescing
    /// and cache keys even though the name pool is static.
    salt: u64,
}

/// Static name pool: [`Experiment::name`] returns `&'static str`, so
/// trials draw from a fixed set and differentiate via the fingerprint.
const NAMES: &[&str] = &[
    "chaos-a", "chaos-b", "chaos-c", "chaos-d", "chaos-e", "chaos-f",
];

impl Experiment for ChaosExp {
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
        format!("chaos:{}:{}:{:016x}", self.name, self.points, self.salt)
    }
    fn compute_point(&self, point: usize) -> PointPayload {
        let mut left = self.delay;
        let slice = Duration::from_millis(5);
        while !left.is_zero() {
            sparten_telemetry::cancel::checkpoint();
            let step = left.min(slice);
            thread::sleep(step);
            left -= step;
        }
        PointPayload::Record(format!("{} computed point {point}\n", self.name))
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

/// One booted trial server plus everything needed to drain and audit it.
struct TrialServer {
    addr: String,
    probe: ServerProbe,
    shutdown: Arc<AtomicUsize>,
    handle: thread::JoinHandle<sparten_serve::DrainReport>,
    experiments: Vec<Arc<dyn Experiment>>,
    cache_dir: PathBuf,
    journal_dir: PathBuf,
}

fn boot(
    spec: &Spec<ChaosClass>,
    experiments: Vec<Arc<dyn Experiment>>,
    max_active: usize,
    max_queued: usize,
    read_timeout: Duration,
) -> TrialServer {
    let root = std::env::temp_dir().join(format!(
        "sparten-chaos-{}-{:016x}",
        std::process::id(),
        spec.seed
    ));
    let _ = std::fs::remove_dir_all(&root);
    let cache_dir = root.join("cache");
    let journal_dir = root.join("journal");
    let backend = Arc::new(HarnessBackend::new(
        experiments.clone(),
        cache_dir.clone(),
        Some(journal_dir.clone()),
        false,
        2,
    ));
    let telemetry = Arc::new(Telemetry::new());
    let shutdown = Arc::new(AtomicUsize::new(0));
    let opts = ServeOptions {
        addr: "127.0.0.1:0".to_string(),
        max_active,
        max_queued,
        read_timeout,
        drain_timeout: Duration::from_secs(10),
        default_deadline: Duration::from_secs(30),
        max_deadline: Duration::from_secs(60),
        shutdown: Arc::clone(&shutdown),
        build: Default::default(),
    };
    let server = Server::bind(backend, telemetry, opts).expect("bind chaos trial server");
    let addr = server.local_addr().expect("trial addr").to_string();
    let probe = server.probe();
    let handle = thread::spawn(move || server.serve());
    TrialServer {
        addr,
        probe,
        shutdown,
        handle,
        experiments,
        cache_dir,
        journal_dir,
    }
}

impl TrialServer {
    /// Polls `cond` until it holds or the hang budget expires.
    fn wait_until(&self, cond: impl Fn(&ServerProbe) -> bool) -> bool {
        let deadline = Instant::now() + HANG_BUDGET;
        while Instant::now() < deadline {
            if cond(&self.probe) {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        false
    }

    /// Drains the server and audits every invariant; returns the
    /// (deterministic) violation messages. Scratch directories are
    /// removed on a fully clean shutdown and kept for inspection
    /// otherwise.
    fn finish(self, violations: &mut Vec<String>) {
        // Runs the torn clients abandoned may still be executing; give
        // the gate a bounded window to come back to rest before judging.
        if !self.wait_until(|p| p.gate_admitted() == 0 && p.gate_active() == 0) {
            violations.push(format!(
                "leaked permits after trial: admitted={} active={}",
                self.probe.gate_admitted(),
                self.probe.gate_active()
            ));
        }
        self.shutdown.store(1, Ordering::SeqCst);
        let deadline = Instant::now() + HANG_BUDGET;
        while !self.handle.is_finished() && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(10));
        }
        if !self.handle.is_finished() {
            // Joining would deadlock the campaign on the hung thread;
            // record the violation and leak the thread to process exit.
            violations.push("server thread hung past the drain budget".to_string());
        } else {
            match self.handle.join() {
                Ok(report) => {
                    if !report.clean() {
                        violations
                            .push(format!("drain abandoned {} session(s)", report.abandoned));
                    }
                }
                Err(_) => violations.push("server thread panicked".to_string()),
            }
        }
        if self.probe.open_sessions() != 0 {
            violations.push(format!(
                "{} session(s) still open after drain",
                self.probe.open_sessions()
            ));
        }
        // Every journal sealed: sealing removes the file, so any
        // remaining `*.jsonl` is an unsealed run.
        if let Ok(entries) = std::fs::read_dir(&self.journal_dir) {
            let mut unsealed = 0usize;
            for entry in entries.flatten() {
                if entry.path().extension().is_some_and(|e| e == "jsonl") {
                    unsealed += 1;
                }
            }
            if unsealed != 0 {
                violations.push(format!("{unsealed} unsealed journal(s) left behind"));
            }
        }
        // Cache never corrupted: every surviving entry must still parse.
        let cache = Cache::new(&self.cache_dir);
        for exp in &self.experiments {
            let fp = exp.fingerprint();
            for point in 0..exp.num_points() {
                let key = Cache::key(exp.name(), &fp, crate::SEED, point);
                if matches!(cache.lookup(exp.name(), point, key), Lookup::Malformed) {
                    violations.push(format!(
                        "corrupt cache entry for {} point {point}",
                        exp.name()
                    ));
                }
            }
        }
        if violations.is_empty() {
            let root = self
                .cache_dir
                .parent()
                .map(PathBuf::from)
                .unwrap_or(self.cache_dir);
            let _ = std::fs::remove_dir_all(root);
        }
    }
}

fn exps(spec: &Spec<ChaosClass>, count: usize, points: usize, delay: Duration) -> Vec<Arc<dyn Experiment>> {
    NAMES
        .iter()
        .take(count)
        .map(|&name| {
            Arc::new(ChaosExp {
                name,
                points,
                delay,
                salt: spec.seed,
            }) as Arc<dyn Experiment>
        })
        .collect()
}

fn run_trial(spec: &Spec<ChaosClass>) -> Vec<String> {
    let mut rng = spec.rng();
    let mut violations = Vec::new();
    match spec.class {
        ChaosClass::TornBody => {
            let server = boot(
                spec,
                exps(spec, 1, 1, Duration::ZERO),
                1,
                2,
                Duration::from_millis(400),
            );
            // Several connections advertise a body and hang up partway
            // through it. Each must be reaped within the read budget
            // without ever reaching admission.
            let torn = 2 + rng.gen_range(3) as usize;
            for _ in 0..torn {
                if let Ok(mut s) = TcpStream::connect(&server.addr) {
                    let sent = rng.gen_range(40) as usize;
                    let _ = write!(
                        s,
                        "POST /run?job=chaos-a HTTP/1.1\r\nHost: x\r\nContent-Length: 100\r\n\r\n{}",
                        "x".repeat(sent)
                    );
                    let _ = s.flush();
                    // Drop: the body never completes.
                }
            }
            // The server must still answer a well-formed request.
            match request(&server.addr, "GET", "/jobs", None) {
                Ok(r) if r.status == 200 => {}
                Ok(r) => violations.push(format!(
                    "well-formed request after torn bodies answered {}",
                    r.status
                )),
                Err(_) => {
                    violations.push("server unreachable after torn bodies".to_string())
                }
            }
            server.finish(&mut violations);
        }
        ChaosClass::SlowLoris => {
            let server = boot(
                spec,
                exps(spec, 1, 1, Duration::ZERO),
                1,
                2,
                Duration::from_millis(300),
            );
            // Drip a valid request one byte at a time, each byte inside
            // the per-read window. The overall read budget must still cut
            // the connection off instead of letting it camp forever.
            let raw = b"GET /jobs HTTP/1.1\r\nHost: x\r\n\r\n";
            if let Ok(mut s) = TcpStream::connect(&server.addr) {
                let started = Instant::now();
                for &byte in raw.iter() {
                    if s.write_all(&[byte]).is_err() {
                        break; // server cut us off: exactly the contract
                    }
                    let _ = s.flush();
                    thread::sleep(Duration::from_millis(25 + rng.gen_range(25)));
                    if started.elapsed() > Duration::from_secs(3) {
                        break;
                    }
                }
                // Whether the drip squeaked through or was reaped, it must
                // never have consumed an admission slot.
                if server.probe.gate_admitted() != 0 {
                    violations.push("slow-loris consumed an admission slot".to_string());
                }
            }
            match request(&server.addr, "GET", "/healthz", None) {
                Ok(r) if r.status == 200 => {}
                Ok(r) => violations.push(format!(
                    "well-formed request after slow-loris answered {}",
                    r.status
                )),
                Err(_) => {
                    violations.push("server unreachable after slow-loris".to_string())
                }
            }
            server.finish(&mut violations);
        }
        ChaosClass::MidStreamDisconnect => {
            let server = boot(
                spec,
                exps(spec, 1, 6, Duration::from_millis(30)),
                1,
                2,
                Duration::from_secs(5),
            );
            // Start a streaming run and hang up after the first response
            // bytes arrive. With every subscriber gone the runner must be
            // cancelled, its permit released, and its journal sealed —
            // all of which `finish` audits.
            if let Ok(mut s) = TcpStream::connect(&server.addr) {
                let _ = write!(
                    s,
                    "POST /run?job=chaos-a HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
                );
                let _ = s.flush();
                let mut first = [0u8; 64];
                let _ = std::io::Read::read(&mut s, &mut first);
                let linger = rng.gen_range(50);
                thread::sleep(Duration::from_millis(linger));
                // Drop: the only subscriber disconnects mid-run.
            }
            server.finish(&mut violations);
        }
        ChaosClass::DeadlineStorm => {
            let server = boot(
                spec,
                exps(spec, 2, 2, Duration::from_millis(20)),
                1,
                2,
                Duration::from_secs(5),
            );
            // A burst of zero-budget requests: every one must be answered
            // 504 at admission, before any executor work.
            let storm = 4 + rng.gen_range(4) as usize;
            for i in 0..storm {
                let job = NAMES[i % 2];
                if let Ok(mut s) = TcpStream::connect(&server.addr) {
                    let _ = write!(
                        s,
                        "POST /run?job={job} HTTP/1.1\r\nHost: x\r\nDeadline-Ms: 0\r\n\
                         Content-Length: 0\r\nConnection: close\r\n\r\n"
                    );
                    let _ = s.flush();
                    let mut buf = Vec::new();
                    let _ = std::io::Read::read_to_end(&mut s, &mut buf);
                    let head = String::from_utf8_lossy(&buf);
                    if !head.starts_with("HTTP/1.1 504") {
                        violations.push(format!(
                            "expired deadline {i} not answered 504 (got {})",
                            head.lines().next().unwrap_or("<nothing>")
                        ));
                        break;
                    }
                }
            }
            // A request with a sane budget still completes afterwards.
            let sane = request_with(
                &server.addr,
                "POST",
                "/run?job=chaos-a",
                None,
                &RequestOptions {
                    deadline: Some(Duration::from_secs(20)),
                    ..Default::default()
                },
            );
            match sane {
                Ok(r) if r.status == 200 => {}
                Ok(r) => violations.push(format!("post-storm run answered {}", r.status)),
                Err(e) => violations.push(format!("post-storm run failed: {e}")),
            }
            server.finish(&mut violations);
        }
        ChaosClass::QueueFlood => {
            let server = boot(
                spec,
                exps(spec, 6, 2, Duration::from_millis(20)),
                1,
                2,
                Duration::from_secs(5),
            );
            // More distinct jobs at once than the admission budget (1
            // active + 2 queued): overflow must bounce 429, every
            // admitted run must complete, nothing may leak.
            let addr = server.addr.clone();
            let drivers: Vec<_> = (0..NAMES.len())
                .map(|i| {
                    let addr = addr.clone();
                    thread::spawn(move || {
                        request(&addr, "POST", &format!("/run?job={}", NAMES[i]), None)
                    })
                })
                .collect();
            let mut bounced = 0usize;
            for driver in drivers {
                match driver.join().expect("driver thread") {
                    Ok(r) if r.status == 200 => {}
                    Ok(r) if r.status == 429 => {
                        bounced += 1;
                        if r.header("retry-after").is_none() {
                            violations.push("429 without Retry-After".to_string());
                        }
                    }
                    Ok(r) => violations.push(format!("flood request answered {}", r.status)),
                    Err(e) => violations.push(format!("flood request failed: {e}")),
                }
            }
            if bounced == 0 {
                violations.push(
                    "flood of 6 jobs over a 3-run budget saw no 429".to_string(),
                );
            }
            server.finish(&mut violations);
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten::faults::run;

    #[test]
    fn quick_campaign_is_deterministic_and_clean() {
        let a = run(&Chaos, 1, 1);
        let b = run(&Chaos, 1, 1);
        assert_eq!(a.render(), b.render(), "same seed, same report");
        assert_eq!(a.trials(), 5);
        assert_eq!(a.failures(), 0, "no invariant may break:\n{}", a.render());
    }
}
