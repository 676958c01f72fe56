//! Cycle-level model of the dense (TPU-like) baseline.
//!
//! §4: "For the dense accelerator, the simulator captures the zero
//! computations, which provide opportunity for the sparse architectures,
//! without imposing sparse computation overheads (i.e., inner-join,
//! permutation network, and output compaction)." Every compute unit streams
//! one output cell's full `k²·d` multiply-accumulates; units within a
//! cluster are in lockstep on equal work, so the only losses are idle units
//! when filters run out and inter-cluster slack from uneven spatial slices.

use sparten_nn::generate::Workload;
use sparten_telemetry::{StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::Probe;
use crate::workmodel::MaskModel;

/// Simulates one layer on the dense baseline, recording into `tel` when
/// given.
pub fn simulate_dense(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    tel: Option<&Telemetry>,
) -> SimResult {
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let num_clusters = config.accel.num_clusters;
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = oh * ow;
    let work_per_output = (shape.kernel * shape.kernel * shape.in_channels) as u64;
    let num_groups = shape.num_filters.div_ceil(units);

    let mut cluster_cycles = vec![0u64; num_clusters];
    let mut cluster_busy = vec![0u64; num_clusters];
    for cluster in 0..num_clusters {
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        let slice = (hi - lo) as u64;
        // Each group of up to `units` filters takes `work_per_output` cycles
        // per position; partially filled groups leave units idle.
        cluster_cycles[cluster] = slice * num_groups as u64 * work_per_output;
        cluster_busy[cluster] = slice * shape.num_filters as u64 * work_per_output;
    }

    let total_units = (units * num_clusters) as u64;
    let total_macs: u64 = cluster_busy.iter().sum();
    let (makespan, breakdown) = Breakdown::from_clusters(
        &cluster_cycles,
        &cluster_busy,
        units as u64,
        model.total_sparse_macs(),
    );

    let traffic = Traffic::dense(
        shape,
        model.input_nnz() as f64,
        model.weight_nnz() as f64,
        config,
    );
    let memory_cycles = config.memory.cycles(&traffic);

    if let Some(t) = tel {
        let probe = Probe::new(t, "Dense");
        for c in 0..num_clusters {
            probe.thread(c as u32, &format!("cluster{c}"));
            probe.span(
                c as u32,
                "cluster",
                0,
                cluster_cycles[c],
                &[("busy", cluster_busy[c])],
            );
            if cluster_cycles[c] > 0 {
                probe.gauge(
                    "occupancy.cluster_util",
                    cluster_busy[c] as f64 / (cluster_cycles[c] * units as u64) as f64,
                );
            }
        }
        probe.work(breakdown.nonzero, breakdown.zero);
        // Dense lockstep clusters have exactly one intra loss: partially
        // filled filter groups leaving units idle.
        probe.stall(StallCause::UnitUnderfill, breakdown.intra);
        probe.stall(StallCause::ClusterIdle, breakdown.inter);
        probe.traffic(&traffic);
        probe.gauge("occupancy.makespan_cycles", makespan as f64);
    }

    SimResult {
        scheme: "Dense",
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
            encoder_ops: 0,
            permute_values: 0,
            compact_ops: 0,
            crossbar_ops: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_config() -> SimConfig {
        let mut c = SimConfig::small();
        c.accel.num_clusters = 2;
        c.accel.cluster.compute_units = 4;
        c
    }

    #[test]
    fn accounting_identity_holds() {
        let shape = ConvShape::new(32, 6, 6, 3, 6, 1, 1);
        let w = workload(&shape, 0.5, 0.4, 1);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate_dense(&w, &m, &cfg, None);
        assert!(r.accounting_holds());
    }

    #[test]
    fn dense_cycles_match_formula() {
        // 6 filters on 4-unit clusters → 2 groups; balanced 6x6 output over
        // 2 clusters → 18 positions each.
        let shape = ConvShape::new(32, 6, 6, 3, 6, 1, 1);
        let w = workload(&shape, 0.5, 0.4, 2);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate_dense(&w, &m, &cfg, None);
        assert_eq!(r.compute_cycles, 18 * 2 * (9 * 32) as u64);
    }

    #[test]
    fn zero_component_dominates_sparse_layers() {
        let shape = ConvShape::new(64, 6, 6, 3, 8, 1, 1);
        let w = workload(&shape, 0.2, 0.2, 3);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate_dense(&w, &m, &cfg, None);
        assert!(r.breakdown.zero > r.breakdown.nonzero);
    }

    #[test]
    fn dense_moves_zero_values() {
        let shape = ConvShape::new(64, 6, 6, 3, 8, 1, 1);
        let w = workload(&shape, 0.3, 0.3, 4);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate_dense(&w, &m, &cfg, None);
        assert!(r.traffic.zero_value_bytes > 0.0);
        assert_eq!(r.traffic.metadata_bytes, 0.0);
    }

    #[test]
    fn uneven_positions_create_inter_cluster_loss() {
        // 5x5 output = 25 positions over 2 clusters → 12/13 split.
        let shape = ConvShape::new(16, 5, 5, 1, 4, 1, 0);
        let w = workload(&shape, 0.5, 0.5, 5);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate_dense(&w, &m, &cfg, None);
        assert!(r.breakdown.inter > 0);
    }
}
