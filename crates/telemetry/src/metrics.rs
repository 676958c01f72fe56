//! The hierarchical metric registry: atomic counters, high/low-water
//! gauges, and power-of-two-bucketed histograms.
//!
//! Metrics are interned by name on first use and shared thereafter, so the
//! hot path (a `Counter::add` inside a simulator loop) is one atomic
//! fetch-add with no locking. Snapshots are sorted by name, which makes
//! every exporter's output deterministic.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge tracking the highest and lowest observed `f64` values (and the
/// most recent one). Values are stored as bit patterns and updated with
/// compare-and-swap, so observation is lock-free.
#[derive(Debug)]
pub struct Gauge {
    hi: AtomicU64,
    lo: AtomicU64,
    last: AtomicU64,
    seen: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            hi: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            lo: AtomicU64::new(f64::INFINITY.to_bits()),
            last: AtomicU64::new(0f64.to_bits()),
            seen: AtomicU64::new(0),
        }
    }
}

impl Gauge {
    /// Records one observation.
    pub fn observe(&self, v: f64) {
        self.last.store(v.to_bits(), Ordering::Relaxed);
        self.seen.fetch_add(1, Ordering::Relaxed);
        update_extreme(&self.hi, v, |cur, new| new > cur);
        update_extreme(&self.lo, v, |cur, new| new < cur);
    }

    /// Highest observed value, or `None` before any observation.
    pub fn hi(&self) -> Option<f64> {
        self.checked(&self.hi)
    }

    /// Lowest observed value, or `None` before any observation.
    pub fn lo(&self) -> Option<f64> {
        self.checked(&self.lo)
    }

    /// Most recent observation, or `None` before any observation.
    pub fn last(&self) -> Option<f64> {
        self.checked(&self.last)
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    fn checked(&self, cell: &AtomicU64) -> Option<f64> {
        if self.count() == 0 {
            None
        } else {
            Some(f64::from_bits(cell.load(Ordering::Relaxed)))
        }
    }

    /// Restores a gauge from exported state (session import): widens the
    /// water marks with `hi`/`lo`, sets `last`, and *adds* `count` to the
    /// observation count, so a round-tripped session is indistinguishable
    /// from the original.
    pub(crate) fn restore_raw(&self, hi: f64, lo: f64, last: f64, count: u64) {
        if count == 0 {
            return;
        }
        update_extreme(&self.hi, hi, |cur, new| new > cur);
        update_extreme(&self.lo, lo, |cur, new| new < cur);
        self.last.store(last.to_bits(), Ordering::Relaxed);
        self.seen.fetch_add(count, Ordering::Relaxed);
    }
}

fn update_extreme(cell: &AtomicU64, v: f64, wins: impl Fn(f64, f64) -> bool) {
    let mut cur = cell.load(Ordering::Relaxed);
    while wins(f64::from_bits(cur), v) {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => break,
            Err(now) => cur = now,
        }
    }
}

/// Number of histogram buckets: bucket `i` counts values in
/// `[2^(i-1), 2^i)` (bucket 0 counts zeros and ones; the last bucket is
/// open-ended).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A fixed-shape power-of-two histogram of `u64` samples.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    sum: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: [(); HISTOGRAM_BUCKETS].map(|()| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` samples of value `v`, as `n` calls to
    /// [`Histogram::record`] would.
    pub fn record_n(&self, v: u64, n: u64) {
        let b = (64 - v.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[b].fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(v.wrapping_mul(n), Ordering::Relaxed);
    }

    /// Per-bucket counts.
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (o, b) in out.iter_mut().zip(&self.buckets) {
            *o = b.load(Ordering::Relaxed);
        }
        out
    }

    /// Total number of samples.
    pub fn count(&self) -> u64 {
        self.buckets().iter().sum()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) by linear interpolation
    /// within the power-of-two buckets. `None` before any sample.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        bucket_quantile(&self.buckets(), q)
    }

    /// Adds pre-bucketed counts and a sample sum (merge and session-import
    /// paths).
    pub(crate) fn add_raw(&self, buckets: &[u64; HISTOGRAM_BUCKETS], sum: u64) {
        for (cell, &count) in self.buckets.iter().zip(buckets) {
            if count > 0 {
                cell.fetch_add(count, Ordering::Relaxed);
            }
        }
        self.sum.fetch_add(sum, Ordering::Relaxed);
    }
}

/// Estimates the `q`-quantile of a power-of-two bucket array by linear
/// interpolation inside the bucket the quantile rank lands in.
///
/// Bucket 0 holds exactly the value 0 and bucket 1 exactly the value 1,
/// so those estimates are exact; bucket `i >= 2` holds `[2^(i-1), 2^i)`
/// and the estimate interpolates the rank's position across that range
/// (the open-ended last bucket is treated as one more octave). `q` is
/// clamped to `0.0..=1.0`. Returns `None` for an empty histogram.
///
/// This is the shared engine behind [`Histogram::quantile`] and the
/// `harness report` summaries, which only have parsed bucket arrays.
pub fn bucket_quantile(buckets: &[u64; HISTOGRAM_BUCKETS], q: f64) -> Option<f64> {
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return None;
    }
    let q = q.clamp(0.0, 1.0);
    // The 1-based rank of the sample the quantile names: ceil(q * n),
    // clamped so q=0 asks for the first sample.
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut cumulative = 0u64;
    for (i, &n) in buckets.iter().enumerate() {
        if n == 0 {
            continue;
        }
        let before = cumulative;
        cumulative += n;
        if rank <= cumulative {
            return Some(match i {
                0 => 0.0,
                1 => 1.0,
                _ => {
                    let lo = (1u64 << (i - 1)) as f64;
                    let hi = (1u64 << i) as f64;
                    let pos = (rank - before) as f64 / n as f64;
                    lo + pos * (hi - lo)
                }
            });
        }
    }
    unreachable!("rank is clamped to the total count")
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A named collection of metrics. Lookup interns the name; the returned
/// handles are shared and lock-free to update.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<HashMap<String, Metric>>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let n = self.metrics.lock().expect("registry lock").len();
        write!(f, "Registry({n} metrics)")
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (creating if needed) the counter named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a gauge or histogram.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric `{name}` is not a counter"),
        }
    }

    /// Returns (creating if needed) the gauge named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or histogram.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric `{name}` is not a gauge"),
        }
    }

    /// Returns (creating if needed) the histogram named `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` already names a counter or gauge.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().expect("registry lock");
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::default())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric `{name}` is not a histogram"),
        }
    }

    /// Folds `other`'s metrics into `self`: counters add, gauges widen,
    /// histograms add bucket-wise (bucket sums approximate the merged sum
    /// exactly, since both track true sums).
    pub fn merge(&self, other: &Registry) {
        for (name, value) in other.snapshot().entries {
            match value {
                MetricValue::Counter(v) => self.counter(&name).add(v),
                MetricValue::Gauge { hi, lo, last, count } => {
                    if count > 0 {
                        let g = self.gauge(&name);
                        g.observe(lo);
                        g.observe(hi);
                        g.observe(last);
                    }
                }
                MetricValue::Histogram { buckets, sum } => {
                    self.histogram(&name).add_raw(&buckets, sum);
                }
            }
        }
    }

    /// A consistent, name-sorted view of every metric's current value.
    pub fn snapshot(&self) -> Snapshot {
        let m = self.metrics.lock().expect("registry lock");
        let mut entries: Vec<(String, MetricValue)> = m
            .iter()
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => MetricValue::Counter(c.get()),
                    Metric::Gauge(g) => MetricValue::Gauge {
                        hi: g.hi().unwrap_or(0.0),
                        lo: g.lo().unwrap_or(0.0),
                        last: g.last().unwrap_or(0.0),
                        count: g.count(),
                    },
                    Metric::Histogram(h) => MetricValue::Histogram {
                        buckets: h.buckets(),
                        sum: h.sum(),
                    },
                };
                (name.clone(), value)
            })
            .collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        Snapshot { entries }
    }
}

/// A point-in-time value of one metric.
///
/// The histogram variant carries its bucket array inline (256 bytes);
/// snapshots are small, short-lived, and iterated in place, so the size
/// skew is preferable to boxing every bucket read.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum MetricValue {
    /// A counter's value.
    Counter(u64),
    /// A gauge's high/low water marks, last observation, and count.
    Gauge {
        /// Highest observation (0 if none).
        hi: f64,
        /// Lowest observation (0 if none).
        lo: f64,
        /// Most recent observation (0 if none).
        last: f64,
        /// Number of observations.
        count: u64,
    },
    /// A histogram's buckets and exact sample sum.
    Histogram {
        /// Per-bucket sample counts.
        buckets: [u64; HISTOGRAM_BUCKETS],
        /// Exact sum of all samples.
        sum: u64,
    },
}

/// A sorted, immutable snapshot of a [`Registry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// `(name, value)` pairs sorted by name.
    pub entries: Vec<(String, MetricValue)>,
}

impl Snapshot {
    /// Looks up a counter's value by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.entries.iter().find_map(|(n, v)| match v {
            MetricValue::Counter(c) if n == name => Some(*c),
            _ => None,
        })
    }

    /// Sums every counter whose name starts with `prefix`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.entries
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) if n.starts_with(prefix) => Some(*c),
                _ => None,
            })
            .sum()
    }

    /// The counters under `prefix` as `(suffix, value)` pairs, sorted.
    pub fn counters_under(&self, prefix: &str) -> Vec<(&str, u64)> {
        self.entries
            .iter()
            .filter_map(|(n, v)| match v {
                MetricValue::Counter(c) => {
                    n.strip_prefix(prefix).map(|suffix| (suffix, *c))
                }
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_intern() {
        let r = Registry::new();
        r.counter("a.b").add(3);
        let same = r.counter("a.b");
        same.inc();
        assert_eq!(r.snapshot().counter("a.b"), Some(4));
    }

    #[test]
    fn gauges_track_extremes() {
        let r = Registry::new();
        let g = r.gauge("occ");
        assert_eq!(g.hi(), None);
        g.observe(3.5);
        g.observe(-1.0);
        g.observe(2.0);
        assert_eq!(g.hi(), Some(3.5));
        assert_eq!(g.lo(), Some(-1.0));
        assert_eq!(g.last(), Some(2.0));
        assert_eq!(g.count(), 3);
    }

    #[test]
    fn histogram_buckets_powers_of_two() {
        let h = Histogram::default();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(1024);
        let b = h.buckets();
        assert_eq!(b[0], 1); // 0
        assert_eq!(b[1], 1); // 1
        assert_eq!(b[2], 2); // 2..3
        assert_eq!(b[11], 1); // 1024
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 1030);
    }

    #[test]
    fn record_n_equals_repeated_records() {
        let (one_by_one, batched) = (Histogram::default(), Histogram::default());
        for (v, n) in [(0, 3), (5, 4), (1024, 2), (7, 0)] {
            for _ in 0..n {
                one_by_one.record(v);
            }
            batched.record_n(v, n);
        }
        assert_eq!(batched.buckets(), one_by_one.buckets());
        assert_eq!(batched.sum(), one_by_one.sum());
    }

    #[test]
    fn snapshot_is_sorted_and_typed() {
        let r = Registry::new();
        r.counter("z").inc();
        r.counter("a").inc();
        r.gauge("m").observe(1.0);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["a", "m", "z"]);
    }

    #[test]
    fn merge_preserves_sums_and_extremes() {
        let a = Registry::new();
        a.counter("c").add(10);
        a.gauge("g").observe(5.0);
        a.histogram("h").record(7);
        let b = Registry::new();
        b.counter("c").add(32);
        b.gauge("g").observe(-2.0);
        b.histogram("h").record(9);
        a.merge(&b);
        let snap = a.snapshot();
        assert_eq!(snap.counter("c"), Some(42));
        assert_eq!(a.gauge("g").hi(), Some(5.0));
        assert_eq!(a.gauge("g").lo(), Some(-2.0));
        assert_eq!(a.histogram("h").count(), 2);
        assert_eq!(a.histogram("h").sum(), 16);
    }

    #[test]
    fn prefix_sums_select_counters() {
        let r = Registry::new();
        r.counter("S/stall.intra.a").add(1);
        r.counter("S/stall.intra.b").add(2);
        r.counter("S/stall.inter.c").add(4);
        let snap = r.snapshot();
        assert_eq!(snap.counter_sum("S/stall.intra."), 3);
        assert_eq!(snap.counter_sum("S/stall."), 7);
        assert_eq!(
            snap.counters_under("S/stall.intra."),
            vec![("a", 1), ("b", 2)]
        );
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_is_rejected() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    /// Pins the quantile estimates on a known distribution: 10 zeros,
    /// 10 ones, and 80 samples of 100 (bucket 7, range [64, 128)).
    #[test]
    fn quantiles_interpolate_the_known_distribution() {
        let h = Histogram::default();
        for _ in 0..10 {
            h.record(0);
        }
        for _ in 0..10 {
            h.record(1);
        }
        for _ in 0..80 {
            h.record(100);
        }
        // p05 → rank 5 lands in bucket 0: exactly 0.
        assert_eq!(h.quantile(0.05), Some(0.0));
        // p15 → rank 15 lands in bucket 1: exactly 1.
        assert_eq!(h.quantile(0.15), Some(1.0));
        // p50 → rank 50, position (50-20)/80 across [64, 128) = 88.
        assert_eq!(h.quantile(0.50), Some(88.0));
        // p95 → rank 95, position (95-20)/80 across [64, 128) = 124.
        assert_eq!(h.quantile(0.95), Some(124.0));
        // p99 → rank 99, position (99-20)/80 across [64, 128) = 127.2.
        let p99 = h.quantile(0.99).expect("nonempty");
        assert!((p99 - 127.2).abs() < 1e-9, "p99 = {p99}");
        // q clamps; extremes are the first and last occupied buckets.
        assert_eq!(h.quantile(0.0), Some(0.0));
        assert_eq!(h.quantile(1.0), Some(128.0));
        // Empty histograms have no quantiles.
        assert_eq!(Histogram::default().quantile(0.5), None);
    }
}
