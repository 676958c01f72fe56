//! Design-space sweeps: density response curves and strong scaling.
//!
//! Two questions the paper's evaluation raises but answers only pointwise:
//! how does each architecture's advantage move with sparsity (the density
//! product drives SparTen's quadratic win, §1), and how far does SparTen
//! scale before inter-cluster losses and memory bandwidth flatten it
//! (Table 2 stops at 32 clusters)?

use sparten_nn::generate::workload;
use sparten_nn::ConvShape;

use crate::breakdown::SimResult;
use crate::config::SimConfig;
use crate::runner::{simulate_layer, simulate_schemes, Scheme};
use crate::workmodel::MaskModel;

/// One point of a density sweep.
#[derive(Debug, Clone)]
pub struct DensityPoint {
    /// The input/filter density used (both sides swept together).
    pub density: f64,
    /// Results per scheme, in the order passed to [`density_sweep`].
    pub results: Vec<SimResult>,
}

impl DensityPoint {
    /// Speedups over the first scheme.
    pub fn speedups(&self) -> Vec<f64> {
        let base = self.results[0].cycles() as f64;
        self.results
            .iter()
            .map(|r| base / r.cycles() as f64)
            .collect()
    }
}

/// Sweeps both tensor densities across `densities` on a fixed layer shape.
pub fn density_sweep(
    shape: &ConvShape,
    densities: &[f64],
    schemes: &[Scheme],
    config: &SimConfig,
    seed: u64,
) -> Vec<DensityPoint> {
    densities
        .iter()
        .map(|&density| {
            let w = workload(shape, density, density, seed);
            let model = MaskModel::new(&w, config.accel.cluster.chunk_size);
            DensityPoint {
                density,
                results: simulate_schemes(&w, &model, config, schemes, None)
                    .expect("an untraced pass has nothing to reconcile"),
            }
        })
        .collect()
}

/// One point of a strong-scaling sweep.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// Cluster count.
    pub clusters: usize,
    /// The result at that size.
    pub result: SimResult,
    /// Parallel efficiency versus the single-cluster run
    /// (`t1 / (clusters · tN)`).
    pub efficiency: f64,
}

/// Strong scaling: the same layer on 1, 2, 4, … `max_clusters` clusters.
pub fn scaling_sweep(
    shape: &ConvShape,
    scheme: Scheme,
    base_config: &SimConfig,
    max_clusters: usize,
    seed: u64,
) -> Vec<ScalingPoint> {
    let w = workload(shape, 0.3, 0.35, seed);
    let model = MaskModel::new(&w, base_config.accel.cluster.chunk_size);
    let mut t1 = None;
    let mut out = Vec::new();
    let mut clusters = 1usize;
    while clusters <= max_clusters {
        let mut cfg = *base_config;
        cfg.accel.num_clusters = clusters;
        let result = simulate_layer(&w, &model, &cfg, scheme);
        let t1v = *t1.get_or_insert(result.cycles());
        let efficiency = t1v as f64 / (clusters as f64 * result.cycles() as f64);
        out.push(ScalingPoint {
            clusters,
            result,
            efficiency,
        });
        clusters *= 2;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape() -> ConvShape {
        ConvShape::new(64, 10, 10, 3, 32, 1, 1)
    }

    #[test]
    fn sparten_advantage_grows_as_density_falls() {
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        let points = density_sweep(
            &shape(),
            &[0.6, 0.3, 0.15],
            &[Scheme::Dense, Scheme::SpartenGbH],
            &cfg,
            3,
        );
        let speedups: Vec<f64> = points.iter().map(|p| p.speedups()[1]).collect();
        assert!(speedups[1] > speedups[0], "{speedups:?}");
        assert!(speedups[2] > speedups[1], "{speedups:?}");
    }

    #[test]
    fn one_sided_advantage_is_linear_not_quadratic() {
        // Halving both densities should help SparTen (quadratic) much more
        // than One-sided (linear in input density only).
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        let points = density_sweep(
            &shape(),
            &[0.6, 0.3],
            &[Scheme::Dense, Scheme::OneSided, Scheme::SpartenGbH],
            &cfg,
            4,
        );
        let gain = |s: usize| points[1].speedups()[s] / points[0].speedups()[s];
        assert!(
            gain(2) > gain(1) * 1.3,
            "sparten {} vs one-sided {}",
            gain(2),
            gain(1)
        );
    }

    #[test]
    fn scaling_efficiency_decays_but_speedup_grows() {
        let cfg = SimConfig::small();
        let points = scaling_sweep(&shape(), Scheme::SpartenGbH, &cfg, 8, 5);
        assert_eq!(points.len(), 4); // 1, 2, 4, 8
        assert!((points[0].efficiency - 1.0).abs() < 1e-9);
        for pair in points.windows(2) {
            assert!(
                pair[1].result.cycles() <= pair[0].result.cycles(),
                "more clusters must not slow down"
            );
            assert!(pair[1].efficiency <= pair[0].efficiency + 1e-9);
        }
    }
}
