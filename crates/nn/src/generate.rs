//! Deterministic synthetic sparse workload generation.
//!
//! The paper's evaluation uses pruned networks whose per-layer input and
//! filter densities are given in Table 3. The simulators are sensitive to
//! (a) the density level and (b) its *variation* across filters and chunks —
//! the driver of the load imbalance greedy balancing fixes (Figure 14 shows
//! chunk densities spread from under 10 % to over 40 % around a ~24 %
//! median). This module generates tensors with exactly those properties from
//! an explicit seed.

use crate::filter::Filter;
use crate::prng::Rng64;
use crate::shape::ConvShape;
use sparten_tensor::Tensor3;

/// A complete layer workload: one input tensor and the layer's filters.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The input feature map.
    pub input: Tensor3,
    /// The layer's filters.
    pub filters: Vec<Filter>,
    /// The layer shape.
    pub shape: ConvShape,
}

impl Workload {
    /// Measured input density.
    pub fn input_density(&self) -> f64 {
        self.input.density()
    }

    /// Measured mean filter density.
    pub fn filter_density(&self) -> f64 {
        if self.filters.is_empty() {
            return 0.0;
        }
        self.filters.iter().map(Filter::density).sum::<f64>() / self.filters.len() as f64
    }
}

/// Generates a `channels × height × width` tensor with approximately
/// `density` non-zero cells (per-cell Bernoulli), values in ±[0.25, 1.25).
///
/// # Panics
///
/// Panics if `density` is not in `[0, 1]`.
pub fn random_tensor(
    channels: usize,
    height: usize,
    width: usize,
    density: f64,
    seed: u64,
) -> Tensor3 {
    assert!((0.0..=1.0).contains(&density), "density must be in [0, 1]");
    let mut rng = Rng64::seed_from_u64(seed);
    let mut t = Tensor3::zeros(channels, height, width);
    for v in t.as_mut_slice() {
        if rng.gen_bool(density) {
            let mag = 0.25 + rng.gen_f32();
            *v = if rng.gen_bool(0.5) { mag } else { -mag };
        }
    }
    t
}

/// Generates the layer's filters with mean density `density` and a relative
/// per-filter spread: filter i's density is drawn uniformly from
/// `density · (1 ± spread)`, clamped to `[0.02, 1]`. A `spread` of 0 gives
/// uniform filters; the paper's networks behave like `spread ≈ 0.5`
/// (Figure 14's under-10 % to over-40 % range around a 24 % median).
///
/// # Panics
///
/// Panics if `density` is not in `(0, 1]` or `spread < 0`.
pub fn random_filters(shape: &ConvShape, density: f64, spread: f64, seed: u64) -> Vec<Filter> {
    assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
    assert!(spread >= 0.0, "spread must be non-negative");
    let mut rng = Rng64::seed_from_u64(seed ^ 0x5eed_f117);
    (0..shape.num_filters)
        .map(|_| {
            // Clamp the upper bound at 1.0 and mirror the lower bound so
            // the per-filter mean stays on target even near full density.
            let hi = (density * (1.0 + spread)).min(1.0);
            let lo = (2.0 * density - hi).max(0.02).min(hi);
            let d = if lo < hi { rng.gen_range_f64(lo, hi) } else { lo };
            let mut w = Tensor3::zeros(shape.in_channels, shape.kernel, shape.kernel);
            for v in w.as_mut_slice() {
                if rng.gen_bool(d) {
                    let mag = 0.25 + rng.gen_f32();
                    *v = if rng.gen_bool(0.5) { mag } else { -mag };
                }
            }
            Filter::new(w)
        })
        .collect()
}

/// Generates a full workload at the given input/filter densities with the
/// default filter-density spread of 0.5.
pub fn workload(shape: &ConvShape, input_density: f64, filter_density: f64, seed: u64) -> Workload {
    Workload {
        input: random_tensor(
            shape.in_channels,
            shape.in_height,
            shape.in_width,
            input_density,
            seed,
        ),
        filters: random_filters(shape, filter_density, 0.5, seed.wrapping_add(1)),
        shape: *shape,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_density_close_to_target() {
        let t = random_tensor(64, 28, 28, 0.4, 1);
        assert!((t.density() - 0.4).abs() < 0.03, "got {}", t.density());
    }

    #[test]
    fn generation_is_deterministic() {
        let a = random_tensor(8, 8, 8, 0.3, 42);
        let b = random_tensor(8, 8, 8, 0.3, 42);
        assert_eq!(a, b);
        let c = random_tensor(8, 8, 8, 0.3, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn spread_zero_gives_similar_filters() {
        let shape = ConvShape::new(64, 8, 8, 3, 32, 1, 1);
        let filters = random_filters(&shape, 0.4, 0.0, 7);
        for f in &filters {
            assert!((f.density() - 0.4).abs() < 0.1, "got {}", f.density());
        }
    }

    #[test]
    fn spread_creates_density_variation() {
        let shape = ConvShape::new(128, 8, 8, 3, 64, 1, 1);
        let filters = random_filters(&shape, 0.35, 0.5, 9);
        let densities: Vec<f64> = filters.iter().map(Filter::density).collect();
        let min = densities.iter().cloned().fold(f64::MAX, f64::min);
        let max = densities.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.15, "spread too small: {min}..{max}");
        let mean = densities.iter().sum::<f64>() / densities.len() as f64;
        assert!((mean - 0.35).abs() < 0.05, "mean off target: {mean}");
    }

    #[test]
    fn workload_matches_table3_style_spec() {
        // AlexNet Layer2-like: 27x27x192 input at 24 %, 3x3x192 filters at 35 %.
        let shape = ConvShape::new(192, 27, 27, 3, 384, 1, 1);
        let w = workload(&shape, 0.24, 0.35, 3);
        assert!((w.input_density() - 0.24).abs() < 0.02);
        assert!((w.filter_density() - 0.35).abs() < 0.04);
        assert_eq!(w.filters.len(), 384);
    }

    #[test]
    fn dense_input_has_density_one() {
        let t = random_tensor(3, 16, 16, 1.0, 0);
        assert_eq!(t.density(), 1.0);
    }

    #[test]
    #[should_panic(expected = "density")]
    fn bad_density_panics() {
        random_tensor(1, 2, 2, 1.5, 0);
    }
}
