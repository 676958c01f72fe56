//! A Cambricon-S-like baseline: coarse-grain structured sparsity.
//!
//! §6 and Table 1: Cambricon-S shares one offline-constructed bit mask
//! across a *group* of coarsely-pruned filters, which makes the hardware
//! regular (no load imbalance within a group — every unit does identical
//! work) but (a) stores and retrieves the feature maps dense ("No" on
//! avoiding zero transfer), (b) computes kept-position weights that are
//! individually zero ("No" on avoiding zero compute), and (c) costs
//! accuracy because clamping is group-wide ("No" on maintaining accuracy,
//! quantified here by the collateral report from
//! [`sparten_nn::structured::prune_coarse`]). The shared mask is a
//! sparse-acceleration feature on SparTen's dataflow, not a second
//! dataflow: the timing is one no-GB run of the SparTen pass over the
//! shared-mask filters; only the useful-work split, the traffic and the
//! op counts are this design's own.

use sparten_core::balance::BalanceMode;
use sparten_nn::generate::Workload;
use sparten_nn::structured::{prune_coarse, CoarsePruneReport};

use crate::breakdown::{OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::sparten::{simulate_sparten, Sparsity};
use crate::workmodel::MaskModel;

/// Result of a Cambricon-S-like run: the timing plus the accuracy-relevant
/// pruning collateral.
#[derive(Debug, Clone, PartialEq)]
pub struct CambriconResult {
    /// The cycle-level result.
    pub sim: SimResult,
    /// What the structured pruning cost relative to unstructured pruning.
    pub prune_report: CoarsePruneReport,
}

/// Simulates a Cambricon-S-like accelerator on `workload`, re-pruning its
/// filters coarsely (shared mask per group of `units` filters) to the
/// layer's own density so the comparison is density-matched.
pub fn simulate_cambricon(workload: &Workload, config: &SimConfig) -> CambriconResult {
    let units = config.accel.cluster.compute_units;
    let chunk_size = config.accel.cluster.chunk_size;

    // Structure the filters: one shared mask per hardware group.
    let density = {
        let total: usize = workload.filters.iter().map(|f| f.weights().len()).sum();
        let nnz: usize = workload.filters.iter().map(|f| f.nnz()).sum();
        nnz as f64 / total as f64
    };
    let mut pruned = workload.clone();
    let prune_report = prune_coarse(&mut pruned.filters, units, density);

    // Saturated filters: every kept (shared-mask) position set non-zero, so
    // the mask model yields the *executed* work; the pruned model yields
    // the useful (both-non-zero) work.
    let mut saturated = pruned.clone();
    for group in saturated.filters.chunks_mut(units) {
        let weights = group[0].weights().len();
        let shared: Vec<bool> = (0..weights)
            .map(|p| group.iter().any(|f| f.weights().as_slice()[p] != 0.0))
            .collect();
        for f in group.iter_mut() {
            for (p, &kept) in shared.iter().enumerate() {
                f.weights_mut().as_mut_slice()[p] = if kept { 1.0 } else { 0.0 };
            }
        }
    }
    let executed_model = MaskModel::new(&saturated, chunk_size);
    let useful_model = MaskModel::new(&pruned, chunk_size);

    // A shared mask gives every unit of a group the same join, so SparTen
    // without GB on the saturated filters times exactly this design: each
    // chunk barrier costs the group's one join plus the chunk overhead, and
    // only the partially filled last group and the overhead idle units.
    let timed = simulate_sparten(
        &saturated,
        &executed_model,
        config,
        Sparsity::TwoSided,
        BalanceMode::None,
    );
    let executed = timed.breakdown.nonzero + timed.breakdown.zero;
    let mut breakdown = timed.breakdown;
    breakdown.nonzero = useful_model.total_sparse_macs().min(executed);
    breakdown.zero = executed - breakdown.nonzero;

    let traffic = cambricon_traffic(&pruned, &executed_model, config);
    CambriconResult {
        sim: SimResult {
            scheme: "Cambricon-S-like",
            memory_cycles: config.memory.cycles(&traffic),
            breakdown,
            traffic,
            ops: OpCounts {
                macs_nonzero: breakdown.nonzero,
                macs_zero: breakdown.zero,
                buffer_accesses: 3 * executed,
                prefix_ops: 0,
                encoder_ops: executed,
                permute_values: 0,
                compact_ops: 0,
                crossbar_ops: 0,
            },
            ..timed
        },
        prune_report,
    }
}

/// Cambricon-S traffic: feature maps travel *dense* (zeros included, no
/// masks); filters travel as shared masks (amortized across the group)
/// plus per-filter kept-position values — including the zeros the shared
/// mask forces each filter to store.
fn cambricon_traffic(pruned: &Workload, executed: &MaskModel, config: &SimConfig) -> Traffic {
    let shape = &pruned.shape;
    let elem = config.memory.element_bytes as f64;
    let batch = config.memory.batch as f64;
    let units = config.accel.cluster.compute_units;

    let input_cells = shape.input_cells() as f64;
    let input_nnz: f64 = pruned.input.nnz() as f64;
    let input_zero = input_cells - input_nnz;

    // Shared mask per group: one mask of window_len bits per ⌈n/units⌉
    // groups. Values: every filter stores all kept positions.
    let num_groups = shape.num_filters.div_ceil(units) as f64;
    let mask_bits = num_groups * shape.window_len() as f64;
    // executed.weight_nnz counts kept positions per filter (saturated).
    let stored_values = executed.weight_nnz() as f64;
    let per_filter_nnz: f64 = pruned.filters.iter().map(|f| f.nnz() as f64).sum();
    let filter_zero = (stored_values - per_filter_nnz) / batch;
    let filter_bytes = (stored_values * elem + mask_bits / 8.0) / batch;

    let out_cells = shape.num_outputs() as f64;
    Traffic {
        input_bytes: input_cells * elem,
        filter_bytes,
        output_bytes: out_cells * elem, // outputs also stored dense
        zero_value_bytes: (input_zero
            + filter_zero
            + out_cells * (1.0 - config.memory.output_density))
            * elem,
        metadata_bytes: mask_bits / 8.0 / batch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_layer, Scheme};
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_setup() -> (Workload, SimConfig) {
        let shape = ConvShape::new(64, 8, 8, 3, 32, 1, 1);
        let w = workload(&shape, 0.35, 0.4, 77);
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 8;
        (w, cfg)
    }

    #[test]
    fn accounting_identity_holds() {
        let (w, cfg) = test_setup();
        let r = simulate_cambricon(&w, &cfg);
        assert!(r.sim.accounting_holds());
    }

    #[test]
    fn no_intra_group_imbalance() {
        // Shared masks make all units in a group identical: intra loss only
        // comes from partially-filled groups and chunk overhead.
        let (w, cfg) = test_setup();
        let r = simulate_cambricon(&w, &cfg);
        let sparten_no_gb = {
            let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            simulate_layer(&w, &model, &cfg, Scheme::SpartenNoGb)
        };
        let intra_frac = |r: &SimResult| r.breakdown.intra as f64 / r.breakdown.total() as f64;
        assert!(
            intra_frac(&r.sim) < intra_frac(&sparten_no_gb),
            "cambricon intra {} !< sparten-no-GB intra {}",
            intra_frac(&r.sim),
            intra_frac(&sparten_no_gb)
        );
    }

    #[test]
    fn computes_and_transfers_zeros() {
        // Table 1's two "No" rows: zero compute from clamped-kept weights,
        // zero transfer from dense feature maps.
        let (w, cfg) = test_setup();
        let r = simulate_cambricon(&w, &cfg);
        assert!(r.sim.breakdown.zero > 0, "kept-position zeros are computed");
        assert!(
            r.sim.traffic.zero_value_bytes > 0.0,
            "dense maps move zeros"
        );
    }

    #[test]
    fn accuracy_collateral_is_reported() {
        let (w, cfg) = test_setup();
        let r = simulate_cambricon(&w, &cfg);
        assert!(r.prune_report.clamped_keepers > 0);
        assert!(r.prune_report.collateral_fraction() > 0.0);
    }

    #[test]
    fn sparten_still_wins_on_traffic() {
        let (w, cfg) = test_setup();
        let cam = simulate_cambricon(&w, &cfg);
        let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let sparten = simulate_layer(&w, &model, &cfg, Scheme::SpartenGbH);
        assert!(sparten.traffic.total_bytes() < cam.sim.traffic.total_bytes());
    }
}
