//! Differential oracle: the analytical model vs the cycle-accurate
//! simulators.
//!
//! Every golden point of the evaluation (the per-layer figures: AlexNet
//! and VGGNet on the large ASIC config, GoogLeNet on the small one, and
//! the three FPGA figures) is simulated and predicted side by side; the
//! oracle row records both cycle counts and the relative error. The error
//! bounds below are *enforced* by `tests/oracle_tests.rs` — loosening them
//! is an API change that must be justified in DESIGN.md §5j.
//!
//! The model consumes *measured* densities ([`LayerParams::from_measurement`])
//! so the comparison isolates structural model error from the sampling
//! noise of the synthetic workload generator. With measured densities the
//! model's expected non-zero counts are the simulator's measured ones, and
//! both feed the same traffic formulas, so each row also records whether
//! the predicted traffic and memory cycles equal the simulated ones
//! exactly.

use sparten_nn::networks::{alexnet, googlenet, vggnet, LayerSpec};
use sparten_sim::{simulate_schemes, MaskModel, Scheme, SimConfig};

use crate::params::LayerParams;
use crate::predict;

/// The seed every golden artifact in the repo is generated with.
pub const GOLDEN_SEED: u64 = 2019;

/// Documented relative-error bound on total cycles for the Dense scheme
/// (the closed form is exact up to integer rounding).
pub const DENSE_ERROR_BOUND: f64 = 0.0005;

/// Documented relative-error bound for One-sided (linear expectation; the
/// only approximation is density/position independence). Observed maximum
/// on the golden catalog: 2.7%.
pub const ONESIDED_ERROR_BOUND: f64 = 0.04;

/// Documented relative-error bound for the two-sided SparTen schemes
/// (order-statistic barrier approximation). Observed maximum on the
/// golden catalog: 8.3% (GB-H on GoogLeNet reduce layers).
pub const SPARTEN_ERROR_BOUND: f64 = 0.12;

/// Documented relative-error bound for the SCNN variants (the barrier max
/// is computed from exact tile-count distributions; the only
/// approximations are iid cells and filter/input independence). Observed
/// maximum on the golden catalog: 2.0%.
pub const SCNN_ERROR_BOUND: f64 = 0.05;

/// The enforced bound for one scheme.
pub fn error_bound(scheme: Scheme) -> f64 {
    match scheme {
        Scheme::Dense => DENSE_ERROR_BOUND,
        Scheme::OneSided => ONESIDED_ERROR_BOUND,
        Scheme::SpartenNoGb | Scheme::SpartenGbS | Scheme::SpartenGbH => SPARTEN_ERROR_BOUND,
        Scheme::Scnn | Scheme::ScnnOneSided | Scheme::ScnnDense => SCNN_ERROR_BOUND,
    }
}

/// One golden comparison point: a network layer under one configuration.
pub struct GoldenPoint {
    /// Network name as in Table 3.
    pub network: &'static str,
    /// Short configuration tag (`"large"`, `"small"`, `"fpga"`).
    pub config_tag: &'static str,
    /// The layer spec.
    pub spec: LayerSpec,
    /// The simulator configuration.
    pub config: SimConfig,
    /// Schemes the corresponding figure evaluates.
    pub schemes: Vec<Scheme>,
}

/// The schemes the FPGA figures (15–17) evaluate.
fn fpga_schemes() -> Vec<Scheme> {
    vec![
        Scheme::Dense,
        Scheme::OneSided,
        Scheme::SpartenNoGb,
        Scheme::SpartenGbH,
    ]
}

/// Every golden point of the per-layer figures (7–12 and 15–17).
pub fn golden_points() -> Vec<GoldenPoint> {
    let mut out = Vec::new();
    for (net, cfg, tag) in [
        (alexnet(), SimConfig::large(), "large"),
        (googlenet(), SimConfig::small(), "small"),
        (vggnet(), SimConfig::large(), "large"),
    ] {
        for spec in &net.layers {
            out.push(GoldenPoint {
                network: net.name,
                config_tag: tag,
                spec: spec.clone(),
                config: cfg,
                schemes: Scheme::all().to_vec(),
            });
        }
    }
    for net in [alexnet(), googlenet(), vggnet()] {
        for spec in &net.layers {
            out.push(GoldenPoint {
                network: net.name,
                config_tag: "fpga",
                spec: spec.clone(),
                config: SimConfig::fpga(),
                schemes: fpga_schemes(),
            });
        }
    }
    out
}

/// One oracle comparison row.
#[derive(Debug, Clone)]
pub struct OracleRow {
    /// Network name.
    pub network: &'static str,
    /// Configuration tag.
    pub config_tag: &'static str,
    /// Layer name.
    pub layer: &'static str,
    /// Scheme label.
    pub scheme: &'static str,
    /// The scheme (for bound lookup).
    pub scheme_id: Scheme,
    /// Analytical total cycles.
    pub predicted: u64,
    /// Cycle-accurate total cycles.
    pub simulated: u64,
    /// Whether the predicted traffic and memory cycles equal the
    /// simulated ones exactly.
    pub traffic_exact: bool,
}

impl OracleRow {
    /// Relative error of the prediction: `|pred − sim| / sim`.
    pub fn rel_err(&self) -> f64 {
        (self.predicted as f64 - self.simulated as f64).abs() / (self.simulated as f64).max(1.0)
    }

    /// Whether the row is within its scheme's documented bound.
    pub fn within_bound(&self) -> bool {
        self.rel_err() <= error_bound(self.scheme_id)
    }
}

/// Compares the model against the simulators on one layer, reusing one
/// workload/mask build across all schemes.
pub fn compare_layer(
    network: &'static str,
    config_tag: &'static str,
    spec: &LayerSpec,
    config: &SimConfig,
    schemes: &[Scheme],
    seed: u64,
) -> Vec<OracleRow> {
    let workload = spec.workload(seed);
    let mask = MaskModel::new(&workload, config.accel.cluster.chunk_size);
    let params = LayerParams::from_measurement(spec.shape, &mask.measure());
    let sims = simulate_schemes(&workload, &mask, config, schemes, None)
        .expect("an untraced pass has nothing to reconcile");
    schemes
        .iter()
        .zip(sims)
        .map(|(&scheme, sim)| {
            let pred = predict(&params, config, scheme);
            OracleRow {
                network,
                config_tag,
                layer: spec.name,
                scheme: scheme.label(),
                scheme_id: scheme,
                predicted: pred.cycles(),
                simulated: sim.cycles(),
                traffic_exact: pred.traffic == sim.traffic
                    && pred.memory_cycles == sim.memory_cycles,
            }
        })
        .collect()
}

/// Renders the byte-stable oracle error report for a set of rows.
///
/// The report depends only on `(rows, seed)`; both the model and the
/// simulators are deterministic, so regenerating the same points with the
/// same seed must reproduce it byte for byte (enforced by the tests).
pub fn error_report(rows: &[OracleRow], seed: u64) -> String {
    let mut s = String::new();
    s.push_str(&format!("oracle error report (seed={seed})\n"));
    s.push_str("network config layer scheme predicted simulated rel_err ok\n");
    let mut max_err: f64 = 0.0;
    let mut worst = String::from("-");
    for r in rows {
        let e = r.rel_err();
        if e > max_err {
            max_err = e;
            worst = format!("{}/{}/{}/{}", r.network, r.config_tag, r.layer, r.scheme);
        }
        s.push_str(&format!(
            "{} {} {} {} {} {} {:.4} {}\n",
            r.network,
            r.config_tag,
            r.layer,
            r.scheme,
            r.predicted,
            r.simulated,
            e,
            if r.within_bound() { "ok" } else { "VIOLATION" }
        ));
    }
    s.push_str(&format!("rows={} max_rel_err={max_err:.4} worst={worst}\n", rows.len()));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_catalog_covers_all_three_networks_twice() {
        let points = golden_points();
        // 5 + 12 + 13 layers, ASIC + FPGA passes.
        assert_eq!(points.len(), 2 * (5 + 12 + 13));
        assert!(points.iter().any(|p| p.config_tag == "fpga"));
    }

    #[test]
    fn report_is_deterministic() {
        let p = &golden_points()[6]; // a small GoogLeNet layer
        let rows = compare_layer(
            p.network,
            p.config_tag,
            &p.spec,
            &p.config,
            &[Scheme::Dense],
            GOLDEN_SEED,
        );
        let a = error_report(&rows, GOLDEN_SEED);
        let rows2 = compare_layer(
            p.network,
            p.config_tag,
            &p.spec,
            &p.config,
            &[Scheme::Dense],
            GOLDEN_SEED,
        );
        let b = error_report(&rows2, GOLDEN_SEED);
        assert_eq!(a, b);
    }
}
