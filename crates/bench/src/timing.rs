//! The std-only micro-benchmark timer behind `harness bench`.
//!
//! The workspace builds offline, so it cannot use `criterion`. This is the
//! minimal replacement: warm up, run timed batches until a fixed
//! wall-clock budget is spent, and report the per-iteration time for the
//! fastest batch (the usual low-noise estimator for micro-benchmarks).

use std::hint::black_box;
use std::time::{Duration, Instant};

/// One timed measurement: the best-batch per-iteration estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Measurement {
    /// Nanoseconds per iteration for the fastest batch.
    pub ns_per_iter: f64,
    /// Total iterations executed across all batches.
    pub iters: u64,
}

/// Measures `f` under a wall-clock budget and returns the estimate; the
/// perf-regression registry ([`crate::perf`]) times every benchmark this way.
pub fn measure<T, F: FnMut() -> T>(budget: Duration, mut f: F) -> Measurement {
    // Warm-up: one untimed call, then size the batch so a batch takes
    // roughly 1/10 of the budget.
    let t0 = Instant::now();
    black_box(f());
    let once = t0.elapsed().max(Duration::from_nanos(1));
    let batch = ((budget.as_nanos() / 10 / once.as_nanos()).max(1)) as u64;

    let mut best_ns_per_iter = f64::INFINITY;
    let mut iters = 0u64;
    let start = Instant::now();
    while start.elapsed() < budget {
        let b0 = Instant::now();
        for _ in 0..batch {
            black_box(f());
        }
        let ns = b0.elapsed().as_nanos() as f64 / batch as f64;
        best_ns_per_iter = best_ns_per_iter.min(ns);
        iters += batch;
    }
    Measurement {
        ns_per_iter: best_ns_per_iter,
        iters,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_returns_finite_estimate() {
        let m = measure(Duration::from_millis(5), || 2u64 + 2);
        assert!(m.ns_per_iter.is_finite() && m.ns_per_iter >= 0.0);
        assert!(m.iters > 0);
    }
}
