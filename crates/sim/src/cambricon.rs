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
//! [`sparten_nn::structured::prune_coarse`]). Chunk work for both the
//! saturated and useful models comes from [`MaskModel`], whose inner loops
//! run on the word-parallel `sparten_arch::fast` kernels.

use sparten_nn::generate::Workload;
use sparten_nn::structured::{prune_coarse, CoarsePruneReport};
use sparten_telemetry::{ReconcileError, StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::{Probe, StallTally};
use crate::workmodel::MaskModel;

/// Per-chunk setup overhead, matching the SparTen-family model.
const CHUNK_OVERHEAD: u64 = 1;

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
    simulate_cambricon_telemetry(workload, config, None)
}

/// [`simulate_cambricon`] with an optional telemetry session.
pub fn simulate_cambricon_telemetry(
    workload: &Workload,
    config: &SimConfig,
    tel: Option<&Telemetry>,
) -> CambriconResult {
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let chunk_size = config.accel.cluster.chunk_size;
    let num_clusters = config.accel.num_clusters;

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

    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = oh * ow;
    let chunks = executed_model.chunks_per_window();
    let num_groups = shape.num_filters.div_ceil(units);

    let probe = tel.map(|t| Probe::new(t, "Cambricon-S-like"));
    let hist_chunk = probe.as_ref().map(|p| p.histogram("hist.chunk_work"));

    let mut table = executed_model.work_table();
    let mut cluster_cycles = vec![0u64; num_clusters];
    let mut cluster_busy = vec![0u64; num_clusters];
    for cluster in 0..num_clusters {
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        let mut cycles = 0u64;
        let mut busy = 0u64;
        let mut tally = StallTally::default();
        for p in lo..hi {
            executed_model.load_window(p % oh, p / oh, &mut table);
            executed_model.fill_joins(&mut table);
            for g in 0..num_groups {
                let group_filters = units.min(shape.num_filters - g * units) as u64;
                // Every unit in the group shares the mask, so the group's
                // chunk work is identical across units: use the first
                // filter's executed work.
                let lead = g * units;
                for c in 0..chunks {
                    let w = table.join(lead, c) as u64;
                    cycles += w + CHUNK_OVERHEAD;
                    busy += w * group_filters;
                    if let Some(h) = &hist_chunk {
                        // Shared masks make every occupied unit identical:
                        // the only intra losses are the broadcast overhead
                        // and the partially filled last group.
                        tally.prefix_encoder_wait += CHUNK_OVERHEAD * units as u64;
                        tally.unit_underfill += w * (units as u64 - group_filters);
                        h.record(w);
                    }
                }
            }
        }
        cluster_cycles[cluster] = cycles;
        cluster_busy[cluster] = busy;
        if let Some(pr) = &probe {
            pr.thread(cluster as u32, &format!("cluster{cluster}"));
            pr.span(cluster as u32, "cluster", 0, cycles, &[("busy", busy)]);
            if cycles > 0 {
                pr.gauge(
                    "occupancy.cluster_util",
                    busy as f64 / (cycles * units as u64) as f64,
                );
            }
            tally.emit(pr);
            debug_assert_eq!(tally.intra(), cycles * units as u64 - busy);
        }
    }

    let total_units = (units * num_clusters) as u64;
    let total_macs: u64 = cluster_busy.iter().sum();
    let (makespan, breakdown) = Breakdown::from_clusters(
        &cluster_cycles,
        &cluster_busy,
        units as u64,
        useful_model.total_sparse_macs().min(total_macs),
    );

    let traffic = cambricon_traffic(&pruned, &executed_model, config);
    let memory_cycles = config.memory.cycles(&traffic);

    if let Some(pr) = &probe {
        pr.work(breakdown.nonzero, breakdown.zero);
        pr.stall(StallCause::ClusterIdle, breakdown.inter);
        pr.traffic(&traffic);
        pr.gauge("occupancy.makespan_cycles", makespan as f64);
        pr.count("prune.clamped_keepers", prune_report.clamped_keepers as u64);
    }

    CambriconResult {
        sim: SimResult {
            scheme: "Cambricon-S-like",
            compute_cycles: makespan,
            memory_cycles,
            total_units,
            breakdown,
            traffic,
            ops: OpCounts {
                macs_nonzero: breakdown.nonzero,
                macs_zero: breakdown.zero,
                buffer_accesses: 3 * total_macs,
                prefix_ops: 0,
                encoder_ops: total_macs,
                permute_values: 0,
                compact_ops: 0,
                crossbar_ops: 0,
            },
        },
        prune_report,
    }
}

/// Runs the Cambricon-S-like simulator into a fresh telemetry session,
/// checks that the recorded counters reconcile exactly with the breakdown,
/// then folds the session into `session` under `track_prefix`.
pub fn simulate_cambricon_checked(
    workload: &Workload,
    config: &SimConfig,
    session: &Telemetry,
    track_prefix: &str,
) -> Result<CambriconResult, ReconcileError> {
    let local = Telemetry::new();
    let result = simulate_cambricon_telemetry(workload, config, Some(&local));
    crate::probe::reconcile_and_merge(local, &result.sim, session, track_prefix)?;
    Ok(result)
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
