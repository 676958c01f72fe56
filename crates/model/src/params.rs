//! Layer parameters and convolution geometry for the analytical model.
//!
//! The model consumes a [`LayerParams`]: the convolution shape plus three
//! density statistics. Two construction paths exist on purpose:
//!
//! * [`LayerParams::from_spec`] derives the statistics from a
//!   [`LayerSpec`]'s nominal densities and the workload generator's
//!   per-filter density spread — the pure closed-form path used by
//!   design-space exploration, where no tensors are ever materialized;
//! * [`LayerParams::from_measurement`] takes exact measured counts from
//!   [`sparten_sim::MaskModel::measure`] — the path the differential oracle
//!   uses, so that validation isolates the model's *structural* error from
//!   density-measurement error.
//!
//! The geometry helpers compute the padding *coverage factor* exactly: the
//! fraction of (output position, kernel tap) pairs whose input read lands in
//! bounds. Out-of-bounds taps contribute zero work in every simulator, so
//! every work expectation below scales by coverage. Coverage separates by
//! axis (`cov(ox, oy) = cov_x(ox) · cov_y(oy)`), which lets us compute both
//! the global mean and exact per-cluster means (clusters own contiguous
//! output-position slices, so border rows concentrate in specific clusters)
//! with prefix sums in `O(oh + ow + clusters)`.

use sparten_nn::networks::LayerSpec;
use sparten_nn::ConvShape;
use sparten_sim::LayerMeasurement;

/// The per-filter density spread the workload generator applies by default
/// (`sparten_nn::generate::workload` draws each filter's density uniformly
/// from `[lo, hi]` with `hi = min(d·(1+spread), 1)`).
pub const DEFAULT_FILTER_SPREAD: f64 = 0.5;

/// Densities and shape of one convolution layer, as the model sees it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerParams {
    /// The convolution shape.
    pub shape: ConvShape,
    /// Fraction of non-zero input cells.
    pub input_density: f64,
    /// Mean fraction of non-zero weights across filters.
    pub filter_density: f64,
    /// Standard deviation of the per-filter densities (drives the
    /// greedy-balance imbalance terms).
    pub filter_density_std: f64,
}

impl LayerParams {
    /// Closed-form construction from shape and densities, assuming the
    /// default generator spread for the per-filter variation.
    pub fn new(shape: ConvShape, input_density: f64, filter_density: f64) -> Self {
        LayerParams {
            shape,
            input_density,
            filter_density,
            filter_density_std: spread_std(filter_density, DEFAULT_FILTER_SPREAD),
        }
    }

    /// From a Table 3 layer spec (nominal densities, default spread).
    pub fn from_spec(spec: &LayerSpec) -> Self {
        LayerParams::new(spec.shape, spec.input_density, spec.filter_density)
    }

    /// From exact measured mask statistics (the differential-oracle path).
    pub fn from_measurement(shape: ConvShape, m: &LayerMeasurement) -> Self {
        LayerParams {
            shape,
            input_density: m.input_density,
            filter_density: m.filter_density,
            filter_density_std: m.filter_density_std,
        }
    }

    /// Expected non-zero input cells and weights, `(cells · ρ).round()`: the
    /// counts the model feeds the simulators' traffic formulas.
    pub(crate) fn expected_nnz(&self) -> (f64, f64) {
        (
            (self.shape.input_cells() as f64 * self.input_density).round(),
            (self.shape.weight_cells() as f64 * self.filter_density).round(),
        )
    }

    /// Dense MAC count *excluding* out-of-bounds taps — the denominator the
    /// simulators' `total_sparse_macs` is drawn from.
    pub fn covered_dense_macs(&self, geo: &Geometry) -> f64 {
        self.shape.dense_macs() as f64 * geo.cov_mean
    }
}

/// Standard deviation of the generator's uniform per-filter density draw.
pub fn spread_std(density: f64, spread: f64) -> f64 {
    let hi = (density * (1.0 + spread)).min(1.0);
    let lo = (2.0 * density - hi).max(0.02).min(hi);
    (hi - lo) / 12f64.sqrt()
}

/// Exact padding-coverage geometry of one layer.
#[derive(Debug, Clone)]
pub struct Geometry {
    /// Output height / width.
    pub oh: usize,
    /// Output width.
    pub ow: usize,
    /// Output positions (`oh · ow`).
    pub positions: usize,
    /// Per-`ox` fraction of the `k` x-taps that read in bounds.
    pub cov_x: Vec<f64>,
    /// Per-`oy` fraction of the `k` y-taps that read in bounds.
    pub cov_y: Vec<f64>,
    /// Mean coverage over all positions: `mean(cov_x) · mean(cov_y)`.
    pub cov_mean: f64,
}

impl Geometry {
    /// Computes the exact coverage geometry of `shape`.
    pub fn new(shape: &ConvShape) -> Self {
        let oh = shape.out_height();
        let ow = shape.out_width();
        let cov_x = axis_coverage(oh, shape.in_height, shape.kernel, shape.stride, shape.pad);
        let cov_y = axis_coverage(ow, shape.in_width, shape.kernel, shape.stride, shape.pad);
        let mx = cov_x.iter().sum::<f64>() / oh as f64;
        let my = cov_y.iter().sum::<f64>() / ow as f64;
        Geometry {
            oh,
            ow,
            positions: oh * ow,
            cov_x,
            cov_y,
            cov_mean: mx * my,
        }
    }

    /// Exact mean coverage of each cluster's contiguous position slice.
    ///
    /// The simulators assign positions `p = ox + oh·oy` in scan order:
    /// cluster `c` owns `[n·c/P, n·(c+1)/P)`. Border rows (low/high `oy`)
    /// therefore land in the first/last clusters, which matters for the
    /// makespan: it is a max over clusters, not an average.
    pub fn cluster_coverage(&self, num_clusters: usize) -> Vec<f64> {
        let n = self.positions;
        // Prefix sums of cov_x so a partial row is O(1).
        let mut px = Vec::with_capacity(self.oh + 1);
        px.push(0.0);
        for &c in &self.cov_x {
            px.push(px.last().unwrap() + c);
        }
        let mut out = Vec::with_capacity(num_clusters);
        for c in 0..num_clusters {
            let lo = n * c / num_clusters;
            let hi = n * (c + 1) / num_clusters;
            if hi == lo {
                out.push(self.cov_mean);
                continue;
            }
            let mut sum = 0.0;
            let mut p = lo;
            while p < hi {
                let y = p / self.oh;
                let row_end = ((y + 1) * self.oh).min(hi);
                let a = p - y * self.oh;
                let b = row_end - y * self.oh;
                sum += self.cov_y[y] * (px[b] - px[a]);
                p = row_end;
            }
            out.push(sum / (hi - lo) as f64);
        }
        out
    }

    /// Sizes of each cluster's position slice.
    pub fn cluster_sizes(&self, num_clusters: usize) -> Vec<usize> {
        let n = self.positions;
        (0..num_clusters)
            .map(|c| n * (c + 1) / num_clusters - n * c / num_clusters)
            .collect()
    }
}

/// Per-output-coordinate tap coverage along one axis: for output index `o`,
/// the fraction of taps `t ∈ [0, k)` with `0 ≤ o·stride + t − pad < len_in`.
fn axis_coverage(len_out: usize, len_in: usize, k: usize, stride: usize, pad: usize) -> Vec<f64> {
    (0..len_out)
        .map(|o| {
            let base = (o * stride) as i64 - pad as i64;
            let lo = (-base).max(0);
            let hi = (len_in as i64 - base).min(k as i64);
            ((hi - lo).max(0)) as f64 / k as f64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_padding_means_full_coverage() {
        let shape = ConvShape::new(16, 8, 8, 3, 4, 1, 0);
        let geo = Geometry::new(&shape);
        assert!((geo.cov_mean - 1.0).abs() < 1e-12);
        for c in geo.cluster_coverage(4) {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn padded_coverage_matches_brute_force() {
        let shape = ConvShape::new(8, 7, 9, 3, 4, 2, 1);
        let geo = Geometry::new(&shape);
        let k = shape.kernel as i64;
        let mut in_bounds = 0usize;
        let mut total = 0usize;
        for oy in 0..shape.out_width() {
            for ox in 0..shape.out_height() {
                for ty in 0..k {
                    for tx in 0..k {
                        let ix = (ox * shape.stride) as i64 + tx - shape.pad as i64;
                        let iy = (oy * shape.stride) as i64 + ty - shape.pad as i64;
                        total += 1;
                        if ix >= 0
                            && iy >= 0
                            && (ix as usize) < shape.in_height
                            && (iy as usize) < shape.in_width
                        {
                            in_bounds += 1;
                        }
                    }
                }
            }
        }
        let brute = in_bounds as f64 / total as f64;
        assert!((geo.cov_mean - brute).abs() < 1e-12);
    }

    #[test]
    fn cluster_coverage_averages_to_global_mean() {
        let shape = ConvShape::new(8, 13, 11, 5, 4, 1, 2);
        let geo = Geometry::new(&shape);
        for p in [1, 3, 7, 32] {
            let sizes = geo.cluster_sizes(p);
            let covs = geo.cluster_coverage(p);
            let weighted: f64 = sizes
                .iter()
                .zip(&covs)
                .map(|(&s, &c)| s as f64 * c)
                .sum::<f64>()
                / geo.positions as f64;
            assert!(
                (weighted - geo.cov_mean).abs() < 1e-9,
                "p={p}: {weighted} vs {}",
                geo.cov_mean
            );
        }
    }

    #[test]
    fn spread_std_is_zero_free_and_bounded() {
        assert!(spread_std(0.5, 0.0) >= 0.0);
        assert!(spread_std(0.3, 0.5) > 0.0);
        assert!(spread_std(1.0, 0.5) < 0.1);
    }
}
