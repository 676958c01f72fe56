//! The timed window every workload runs: set-ups timed from idle, passes
//! run until the window closes, and the per-pass figures the end-to-end
//! metrics take a median of.

use crate::probe::Probe;
use crate::stats;
use crate::trace::{SpanId, Tracer};
use crate::Report;
use std::time::{Duration, Instant};

/// Idle time before each timed set-up. Set-up is a few milliseconds of
/// one thread; timed back to back, it reads in two modes 1.6× apart as the
/// host's load shifts from second to second, while a set-up that starts
/// from idle, as a process's does, reads the same within a few percent.
const IDLE: Duration = Duration::from_millis(20);

/// Set-up samples; `setup_s` is their median.
#[derive(Debug, Default)]
pub struct SetupClock(Vec<f64>);

impl SetupClock {
    /// Idles for [`IDLE`], then times `make`. Dropping what it made is not
    /// timed: retiring the previous set-up (a daemon's drain) is not
    /// set-up.
    pub fn time<T>(&mut self, make: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        std::thread::sleep(IDLE);
        let start = Instant::now();
        let made = make()?;
        self.0.push(start.elapsed().as_secs_f64());
        Ok(made)
    }

    /// Times `make` `times` more times, dropping what it makes. Called
    /// beside each pass, so a run's set-ups sample the host over the
    /// whole window, as its passes do.
    pub fn sample<T>(
        &mut self,
        times: usize,
        mut make: impl FnMut() -> Result<T, String>,
    ) -> Result<(), String> {
        for _ in 0..times {
            self.time(&mut make)?;
        }
        Ok(())
    }

    /// The median set-up, `setup_s`.
    pub fn median(&self) -> f64 {
        stats::median(&self.0).unwrap_or(f64::INFINITY)
    }

    /// How many set-ups were timed.
    pub fn len(&self) -> usize {
        self.0.len()
    }
}

/// One timed pass, reduced to the values the end-to-end metrics take a
/// median of. Medians across passes keep a burst of host contention in a
/// few passes from moving a run's figures.
#[derive(Debug, Clone, Copy)]
pub struct PassStats {
    /// Host seconds, or infinity if any op of the pass failed.
    pub wall: f64,
    /// Verified results per second of the pass.
    pub goodput: f64,
    /// Median, 90th- and 99th-percentile result latency (ms), failures
    /// as infinity.
    pub p50_ms: f64,
    /// See `p50_ms`.
    pub p90_ms: f64,
    /// See `p50_ms`.
    pub p99_ms: f64,
}

impl PassStats {
    /// A pass of `wall` seconds whose results took `latencies_ms`
    /// (failed ones as infinity).
    pub fn new(wall: f64, latencies_ms: &[f64]) -> PassStats {
        let verified = latencies_ms.iter().filter(|l| l.is_finite()).count();
        let all_ok = verified == latencies_ms.len();
        PassStats {
            wall: if all_ok { wall } else { f64::INFINITY },
            goodput: verified as f64 / wall,
            p50_ms: stats::percentile(latencies_ms, 50.0).unwrap_or(f64::INFINITY),
            p90_ms: stats::percentile(latencies_ms, 90.0).unwrap_or(f64::INFINITY),
            p99_ms: stats::percentile(latencies_ms, 99.0).unwrap_or(f64::INFINITY),
        }
    }

    /// The median over `passes` of one per-pass value.
    pub fn median(passes: &[PassStats], value: fn(&PassStats) -> f64) -> f64 {
        stats::median(&passes.iter().map(value).collect::<Vec<_>>()).unwrap_or(f64::INFINITY)
    }
}

/// What one pass produced.
pub struct PassOutcome {
    /// Host seconds of the pass.
    pub wall: f64,
    /// Each result's latency (ms), a failed one's as infinity.
    pub latencies_ms: Vec<f64>,
    /// Ops the pass attempted.
    pub ops: u64,
    /// Ops that failed or whose output check failed.
    pub failed: u64,
}

impl PassOutcome {
    /// Pass `id` as one op: its results' latencies (seconds) if its check
    /// passed, else `results` infinitely slow ones.
    pub fn single(
        id: u64,
        wall: f64,
        latencies_s: &[f64],
        results: usize,
        check: Result<(), String>,
    ) -> Self {
        let (latencies_ms, failed) = match check {
            Ok(()) => (latencies_s.iter().map(|s| s * 1e3).collect(), 0),
            Err(e) => {
                eprintln!("pass {id} failed its check: {e}");
                (vec![f64::INFINITY; results.max(latencies_s.len())], 1)
            }
        };
        PassOutcome {
            wall,
            latencies_ms,
            ops: 1,
            failed,
        }
    }

    /// A pass whose ops are its results; a failed one is infinitely slow.
    pub fn per_result(wall: f64, latencies_ms: Vec<f64>) -> Self {
        PassOutcome {
            wall,
            ops: latencies_ms.len() as u64,
            failed: latencies_ms.iter().filter(|l| l.is_infinite()).count() as u64,
            latencies_ms,
        }
    }
}

/// One pass as its closure sees it.
pub struct Scope<'a> {
    /// Pass number within the run.
    pub id: u64,
    span: Option<SpanId>,
    open: bool,
    tracer: &'a Tracer,
    probe: &'a Probe,
}

impl Scope<'_> {
    /// The pass's span, if the pass is traced.
    pub fn span(&self) -> Option<SpanId> {
        self.span
    }

    /// Ends the timed part of the pass: closes its span and stops the
    /// probe recording, so the checks that follow are not pass time.
    pub fn end(&mut self) {
        if !std::mem::take(&mut self.open) {
            return;
        }
        self.probe.set_tracing(false, None, 0);
        if let Some(span) = self.span {
            self.tracer.close(span);
        }
    }
}

/// The passes of one window.
#[derive(Default)]
pub struct Passes {
    /// Ops attempted over all passes.
    pub attempted: u64,
    /// Ops that failed.
    pub failed: u64,
    /// The untraced passes.
    pub plain: Vec<PassStats>,
    /// The traced passes.
    pub traced: Vec<PassStats>,
}

impl Passes {
    /// A report holding the window's op counts.
    pub fn report(&self) -> Report {
        Report {
            attempted: self.attempted,
            failed: self.failed,
            ..Report::default()
        }
    }

    /// `trace.overhead_ratio`: the median traced pass over the median
    /// untraced one.
    pub fn overhead_ratio(&self) -> f64 {
        PassStats::median(&self.traced, |p| p.wall) / PassStats::median(&self.plain, |p| p.wall)
    }
}

/// Runs passes until `window` closes, at least `min` of them. With
/// `alternate`, every second pass is traced: it runs inside a `pass` span
/// with the probe recording under it. `pass` runs one pass and may call
/// [`Scope::end`] before checking it; the loop ends the scope otherwise.
pub fn run(
    window: Duration,
    min: u64,
    alternate: bool,
    tracer: &Tracer,
    probe: &Probe,
    mut pass: impl FnMut(&mut Scope) -> Result<PassOutcome, String>,
) -> Result<Passes, String> {
    let mut passes = Passes::default();
    let start = Instant::now();
    let mut id = 0;
    while id < min || start.elapsed() < window {
        let span = (alternate && id % 2 == 1).then(|| tracer.open("pass", None, id));
        probe.set_tracing(span.is_some(), span, id);
        let mut scope = Scope {
            id,
            span,
            open: true,
            tracer,
            probe,
        };
        let outcome = pass(&mut scope);
        scope.end();
        let outcome = outcome?;
        passes.attempted += outcome.ops;
        passes.failed += outcome.failed;
        let stats = PassStats::new(outcome.wall, &outcome.latencies_ms);
        if span.is_some() {
            passes.traced.push(stats);
        } else {
            passes.plain.push(stats);
        }
        id += 1;
    }
    Ok(passes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_failed_op_counts_against_its_pass() {
        let mut latencies: Vec<f64> = (1..=100).map(f64::from).collect();
        let ok = PassStats::new(2.0, &latencies);
        assert_eq!(
            (ok.wall, ok.goodput, ok.p50_ms, ok.p90_ms),
            (2.0, 50.0, 50.0, 90.0)
        );
        latencies[0] = f64::INFINITY;
        let failed = PassStats::new(2.0, &latencies);
        assert!(failed.wall.is_infinite());
        assert_eq!((failed.goodput, failed.p50_ms), (49.5, 51.0));
        latencies[1] = f64::INFINITY;
        assert!(PassStats::new(2.0, &latencies).p99_ms.is_infinite());
        let whole = PassOutcome::single(0, 1.0, &[0.5], 3, Err("corrupt".into()));
        assert_eq!(
            (whole.ops, whole.failed, whole.latencies_ms.len()),
            (1, 1, 3)
        );
        let requests = PassOutcome::per_result(1.0, latencies);
        assert_eq!((requests.ops, requests.failed), (100, 2));
    }

    #[test]
    fn alternate_passes_are_traced_and_spanned() {
        let tracer = Arc::new(Tracer::new());
        let probe = Probe::new(Arc::clone(&tracer));
        let mut seen = Vec::new();
        let passes = run(Duration::ZERO, 4, true, &tracer, &probe, |scope| {
            seen.push((scope.id, scope.span().is_some()));
            scope.end();
            Ok(PassOutcome::per_result(1.0, vec![1.0, f64::INFINITY]))
        })
        .unwrap();
        assert_eq!(seen, [(0, false), (1, true), (2, false), (3, true)]);
        assert_eq!((passes.plain.len(), passes.traced.len()), (2, 2));
        assert_eq!((passes.attempted, passes.failed), (8, 4));
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.name == "pass" && s.end >= s.start));
    }
}
