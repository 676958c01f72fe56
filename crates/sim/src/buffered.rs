//! Bounded-buffer simulation: does buffering fix the load imbalance?
//!
//! §2.1.1/§3.3 argue the reuse-imbalance tension is *fundamental*: "the PE
//! holding a denser map would repeatedly take longer with most filters ...
//! No amount of buffering would address this imbalance." This module tests
//! that claim mechanically. The broadcast buffer is given depth `B`: a unit
//! may run up to `B` chunks ahead of the slowest unit instead of
//! barrier-synchronizing on every chunk. Within one filter group the same
//! unit holds the same (denser or sparser) filter for *every* input chunk,
//! so its deficit is systematic — deeper buffers smooth chunk-level noise
//! but converge to the densest unit's total work, which only greedy
//! balancing reduces. Group boundaries drain the pipeline (filters swap).

use sparten_core::balance::{BalanceMode, LayerBalance};
use sparten_nn::generate::Workload;

use crate::config::SimConfig;
use crate::workmodel::MaskModel;

/// Buffer depth: `Bounded(1)` is the strict per-chunk barrier the main
/// simulator models; `Unbounded` removes the coupling entirely within a
/// group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferDepth {
    /// The broadcast may run at most this many chunks ahead.
    Bounded(usize),
    /// Unlimited run-ahead within a group.
    Unbounded,
}

/// Result of a bounded-buffer run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferedResult {
    /// Cluster compute cycles (slowest cluster).
    pub cycles: u64,
    /// Useful MAC cycles (identical across depths).
    pub useful: u64,
}

impl BufferedResult {
    /// Utilization at this depth.
    pub fn utilization(&self, units: usize) -> f64 {
        self.useful as f64 / (self.cycles * units as u64) as f64
    }
}

/// Simulates one layer with broadcast-buffer depth `depth`.
///
/// # Panics
///
/// Panics if `depth` is `Bounded(0)`.
pub fn simulate_buffered(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    mode: BalanceMode,
    depth: BufferDepth,
) -> BufferedResult {
    if let BufferDepth::Bounded(b) = depth {
        assert!(b > 0, "buffer depth must be positive");
    }
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let chunk_size = config.accel.cluster.chunk_size;
    let num_clusters = config.accel.num_clusters;
    let balance = LayerBalance::new(&workload.filters, units, chunk_size, mode);
    let chunks = model.chunks_per_window();
    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = oh * ow;

    let mut table = model.work_table();
    let mut makespan = 0u64;
    let mut useful = 0u64;
    for cluster in 0..num_clusters {
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        // Each group runs its own stream of (position, chunk) items. Per
        // group: each unit's completion time, and a ring of the last `B`
        // items' all-units-done times — item k may issue once every unit
        // has finished item k − B.
        let ring = match depth {
            BufferDepth::Bounded(b) => b.min((hi - lo) * chunks),
            BufferDepth::Unbounded => 0,
        };
        let mut unit_time = vec![vec![0u64; units]; balance.groups.len()];
        let mut done_ring = vec![vec![0u64; ring]; balance.groups.len()];
        for (n, p) in (lo..hi).enumerate() {
            model.load_window(p % oh, p / oh, &mut table);
            model.fill_joins(&mut table);
            for (g, group) in balance.groups.iter().enumerate() {
                for c in 0..chunks {
                    let item = n * chunks + c;
                    let issue = match depth {
                        BufferDepth::Bounded(b) if item >= b => done_ring[g][item % ring],
                        _ => 0,
                    };
                    let per_unit: &[Vec<usize>] = if group.per_chunk_cu.is_empty() {
                        &group.per_cu
                    } else {
                        &group.per_chunk_cu[c]
                    };
                    let mut item_done = 0u64;
                    for (u, slots) in per_unit.iter().enumerate().take(units) {
                        let w: u64 = slots.iter().map(|&f| table.join(f, c) as u64).sum();
                        useful += w;
                        let t = &mut unit_time[g][u];
                        *t = (*t).max(issue) + w + 1;
                        item_done = item_done.max(*t);
                    }
                    if ring > 0 {
                        done_ring[g][item % ring] = item_done;
                    }
                }
            }
        }
        // Group boundary: drain (filters swap in).
        let cluster_time: u64 = unit_time
            .iter()
            .map(|t| t.iter().copied().max().unwrap_or(0))
            .sum();
        makespan = makespan.max(cluster_time);
    }
    BufferedResult {
        cycles: makespan,
        useful,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparten::{simulate_sparten, Sparsity};
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn setup() -> (Workload, SimConfig, MaskModel) {
        let shape = ConvShape::new(96, 8, 8, 3, 16, 1, 1);
        let w = workload(&shape, 0.35, 0.35, 29);
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 8;
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        (w, cfg, m)
    }

    #[test]
    fn depth_one_matches_the_barrier_simulator() {
        let (w, cfg, m) = setup();
        let buffered = simulate_buffered(&w, &m, &cfg, BalanceMode::None, BufferDepth::Bounded(1));
        let barrier = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::None);
        // Same semantics: issue gated on everyone finishing the previous
        // chunk; +1 per chunk matches CHUNK_OVERHEAD.
        assert_eq!(buffered.cycles, barrier.compute_cycles);
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        let (w, cfg, m) = setup();
        let mut last = u64::MAX;
        for depth in [1usize, 2, 4, 8, 32] {
            let r = simulate_buffered(&w, &m, &cfg, BalanceMode::None, BufferDepth::Bounded(depth));
            assert!(r.cycles <= last, "depth {depth}: {} !<= {last}", r.cycles);
            last = r.cycles;
        }
        let unbounded = simulate_buffered(&w, &m, &cfg, BalanceMode::None, BufferDepth::Unbounded);
        assert!(unbounded.cycles <= last);
    }

    #[test]
    fn unbounded_buffering_cannot_beat_greedy_balancing() {
        // The paper's claim: the imbalance is systematic — even infinite
        // input buffering leaves no-GB behind GB-H at the per-chunk barrier.
        let (w, cfg, m) = setup();
        let no_gb_infinite =
            simulate_buffered(&w, &m, &cfg, BalanceMode::None, BufferDepth::Unbounded);
        let gbh_strict = simulate_buffered(&w, &m, &cfg, BalanceMode::GbH, BufferDepth::Bounded(1));
        assert!(
            gbh_strict.cycles < no_gb_infinite.cycles,
            "GB-H@B=1 {} !< no-GB@B=inf {}",
            gbh_strict.cycles,
            no_gb_infinite.cycles
        );
    }

    #[test]
    fn useful_work_is_depth_invariant() {
        let (w, cfg, m) = setup();
        let a = simulate_buffered(&w, &m, &cfg, BalanceMode::GbS, BufferDepth::Bounded(1));
        let b = simulate_buffered(&w, &m, &cfg, BalanceMode::GbS, BufferDepth::Unbounded);
        assert_eq!(a.useful, b.useful);
        assert!(b.utilization(16) >= a.utilization(16));
    }
}
