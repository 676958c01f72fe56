#![warn(missing_docs)]

//! First-order analytical throughput/energy model for the SparTen
//! reproduction, plus the million-point design-space-exploration (DSE)
//! machinery built on it.
//!
//! The cycle-accurate simulators in `sparten-sim` cost on the order of a
//! millisecond per layer; answering design questions like "best chunk size
//! × cluster count × greedy-balance policy across a density grid" needs
//! millions of evaluations. Following Sparseloop's argument, this crate
//! provides a closed-form model that is ~10²–10³× cheaper per point and is
//! kept honest by a differential oracle ([`oracle`]) that compares it
//! against all four cycle-accurate simulators on every golden point.
//!
//! * [`predict`] — cycles, stall breakdown, traffic, and op counts for any
//!   [`Scheme`], as a [`SimResult`] interchangeable with the simulators'
//!   (the Figure 10 accounting identity holds by construction);
//! * [`evaluate`] — [`predict`] plus the 45 nm energy model;
//! * [`dse`] — deterministic sweep grids, batched evaluation with
//!   mergeable partial aggregates, and Pareto-frontier extraction;
//! * [`oracle`] — golden-point comparison rows and the byte-stable error
//!   report enforced by `tests/oracle_tests.rs`.

pub mod dse;
pub mod oracle;
pub mod params;
pub mod stats;

mod accel;
mod scnnm;

use sparten_energy::{EnergyModel, EnergyReport};
use sparten_sim::{Scheme, SimConfig, SimResult};

use accel::ClusterGeometry;

pub use params::{Geometry, LayerParams};

/// Predicts one layer's [`SimResult`] on one scheme in closed form.
///
/// The result mirrors what the corresponding cycle-accurate simulator
/// would return — same breakdown identity, same traffic formulas, same op
/// counts — but costs microseconds instead of milliseconds.
pub fn predict(params: &LayerParams, config: &SimConfig, scheme: Scheme) -> SimResult {
    let cg = ClusterGeometry::new(&params.shape, config.accel.num_clusters);
    predict_on(params, &cg, config, scheme)
}

/// [`predict`] on a [`ClusterGeometry`] the caller built for
/// `params.shape` and `config`'s cluster count, so a caller that varies
/// only the densities builds it once. The SCNN forms ignore it.
fn predict_on(
    params: &LayerParams,
    cg: &ClusterGeometry,
    config: &SimConfig,
    scheme: Scheme,
) -> SimResult {
    match scheme {
        Scheme::Scnn | Scheme::ScnnOneSided | Scheme::ScnnDense => {
            scnnm::predict_scnn(params, config, scheme)
        }
        _ => accel::predict_accel(params, cg, config, scheme),
    }
}

/// A predicted layer result with its energy report.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// The predicted cycles/breakdown/traffic/ops.
    pub result: SimResult,
    /// Figure 13-style energy split for the prediction.
    pub energy: EnergyReport,
}

impl Evaluation {
    /// Total execution cycles (compute unless memory-bound).
    pub fn cycles(&self) -> u64 {
        self.result.cycles()
    }

    /// Total energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.energy.total_pj()
    }
}

/// [`predict`] plus the 45 nm per-op energy model, with the per-MAC buffer
/// capacity the scheme implies (`buffer_bytes_per_mac`, Table 2-style).
pub fn evaluate(
    params: &LayerParams,
    config: &SimConfig,
    scheme: Scheme,
    buffer_bytes_per_mac: usize,
) -> Evaluation {
    let cg = ClusterGeometry::new(&params.shape, config.accel.num_clusters);
    evaluate_on(params, &cg, config, scheme, buffer_bytes_per_mac)
}

/// [`evaluate`] on a prebuilt [`ClusterGeometry`] (see [`predict_on`]).
pub(crate) fn evaluate_on(
    params: &LayerParams,
    cg: &ClusterGeometry,
    config: &SimConfig,
    scheme: Scheme,
    buffer_bytes_per_mac: usize,
) -> Evaluation {
    let result = predict_on(params, cg, config, scheme);
    let energy = EnergyModel::nm45().layer_energy(&result, buffer_bytes_per_mac);
    Evaluation { result, energy }
}

/// The per-MAC buffer capacity each scheme's datapath implies, given the
/// cluster configuration: 8 B for Dense (operand registers only), the
/// plain 20 KB-class buffer for uncollocated schemes, the collocated
/// 31 KB-class buffer for GB-S/GB-H.
pub fn scheme_buffer_bytes_per_mac(
    scheme: Scheme,
    cluster: &sparten_core::ClusterConfig,
) -> usize {
    match scheme {
        Scheme::Dense | Scheme::ScnnDense => 8,
        Scheme::SpartenGbS | Scheme::SpartenGbH => {
            cluster.buffer_bytes_collocated() / cluster.compute_units
        }
        _ => cluster.buffer_bytes_plain() / cluster.compute_units,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::ConvShape;

    #[test]
    fn predict_covers_every_scheme() {
        let p = LayerParams::new(ConvShape::new(64, 8, 8, 3, 16, 1, 1), 0.4, 0.3);
        let cfg = SimConfig::small();
        for scheme in Scheme::all() {
            let r = predict(&p, &cfg, scheme);
            assert!(r.accounting_holds(), "{scheme:?}");
            assert_eq!(r.scheme, scheme.label());
        }
    }

    #[test]
    fn evaluate_produces_positive_energy() {
        let p = LayerParams::new(ConvShape::new(64, 8, 8, 3, 16, 1, 1), 0.4, 0.3);
        let cfg = SimConfig::small();
        let buf = scheme_buffer_bytes_per_mac(Scheme::SpartenGbH, &cfg.accel.cluster);
        let ev = evaluate(&p, &cfg, Scheme::SpartenGbH, buf);
        assert!(ev.energy_pj() > 0.0);
        assert!(ev.cycles() > 0);
    }
}
