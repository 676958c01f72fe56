//! Order statistics for the reported metrics.
//!
//! Latencies use nearest-rank percentiles; a failed or refused operation
//! enters as `f64::INFINITY`, so it counts against every latency metric
//! instead of vanishing from the sample. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), which is
//! how run-to-run spread is judged.

/// Sorted copy of `values` (total order; infinities sort last).
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank index of percentile `p` (0 < p ≤ 100) among `n` samples.
/// The epsilon keeps a rank that is exact in decimal (99.9% of 10 000)
/// from rounding up through binary error.
fn rank(p: f64, n: usize) -> usize {
    ((p * n as f64 / 100.0 - 1e-9).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `p`-th percentile, or `None` for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let v = sorted(values);
    Some(v[rank(p, v.len()) - 1])
}

/// The median (mean of the middle pair for an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// Quartiles `(q1, q2, q3)` by Python's default "exclusive" method;
/// `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median: the spread rule the
/// bounds in `BENCHMARK.json` are judged by.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some((q3 - q1) / q2)
}

/// [`spread`] as a percentage for the run summary, `-` when undefined.
pub fn spread_label(values: &[f64]) -> String {
    spread(values).map_or_else(|| "-".to_string(), |s| format!("{:.1}%", s * 100.0))
}

/// Percentiles a tail may be reported at, highest first.
const LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile on the ladder that has at least ten samples
/// beyond its nearest rank among `n`, or `None` when even the median
/// lacks them. A tail read above it rests on fewer than ten samples.
pub fn supported_tail(n: usize) -> Option<f64> {
    LADDER.into_iter().find(|&p| n > 0 && n - rank(p, n) >= 10)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn failures_count_against_latency() {
        // One failed op in 100 pushes p99 to it; p50 is unmoved.
        let mut v: Vec<f64> = (1..=99).map(f64::from).collect();
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 100.0), Some(f64::INFINITY));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        v.push(f64::INFINITY);
        assert_eq!(percentile(&v, 99.0), Some(f64::INFINITY));
        assert_eq!(median(&[1.0, f64::INFINITY, 2.0]), Some(2.0));
    }

    #[test]
    fn median_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // exclusive method extrapolates past the ends of a tiny sample.
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15, 30, 45]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            Some((15.0, 30.0, 45.0))
        );
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = spread(&v).unwrap();
        assert!((s - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(spread(&[5.0, 5.0, 5.0]), Some(0.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(0), None);
        assert_eq!(supported_tail(10), None);
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0)); // rank 10, 10 beyond
        assert_eq!(supported_tail(40), Some(75.0)); // rank 30, 10 beyond
        assert_eq!(supported_tail(100), Some(90.0)); // rank 90, 10 beyond
        assert_eq!(supported_tail(999), Some(95.0)); // p99: rank 990, 9 beyond
        assert_eq!(supported_tail(1000), Some(99.0)); // rank 990, 10 beyond
        assert_eq!(supported_tail(9_999), Some(99.0)); // p99.9: rank 9990, 9 beyond
        assert_eq!(supported_tail(10_000), Some(99.9));
    }
}
