//! Cycle-level simulator for SCNN's Cartesian-product dataflow.
//!
//! Model (§2.1 of the paper): the input plane is partitioned spatially
//! across a √PEs × √PEs grid (input stationary); each PE works through its
//! region in ≤6×6 sub-tiles. For every (channel, filter-group) step the PE
//! fetches I non-zero inputs and F non-zero weights per cycle-batch through
//! its 4×4 multiplier array, taking `⌈I/4⌉·⌈F/4⌉` cycles and computing all
//! I·F products, which a crossbar scatters to accumulators. The filter-group
//! broadcast imposes an inter-PE barrier at every (channel, group) step.
//!
//! The steps are timed by their factors, not one by one. A group's batch
//! count `⌈F/4⌉` is broadcast to every PE, so a step's barrier is `⌈F/4⌉`
//! times the slowest PE's `Σ ⌈I/4⌉` over its tiles, and a channel's steps
//! over all groups take `Σ_g ⌈F_g/4⌉` times that: one barrier term per
//! channel, the form the closed-form model in `sparten-model` evaluates
//! too. Each (tile, channel) input and (group, channel) weight count is
//! taken once from the workload; the layer's true sparse MACs and the
//! traffic counts come from [`MaskModel`].
//!
//! Captured overheads, matching §2.1.1 and the Figure 10–12 decomposition:
//!
//! * **intra-PE**: idle multiplier slots from the `⌈·/4⌉` quantization when
//!   a tile or filter group has too few non-zeros (natural sparsity, small
//!   tiles, 1×1 filters);
//! * **inter-PE**: barrier-exposed imbalance from density variation and
//!   truncated edge tiles (plus wholly idle PEs when the plane is small);
//! * **stride**: the Cartesian product assumes unit stride; for stride-s
//!   convolutions all products are computed and the ~1−1/s² that land
//!   between outputs are discarded (counted as zero/wasted compute) —
//!   AlexNet Layer0's pathology;
//! * border products that fall outside the output map are likewise counted
//!   as wasted.

use std::collections::BTreeMap;

use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::Workload;
use sparten_nn::ConvShape;
use sparten_telemetry::{Histogram, StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::{ScnnConfig, SimConfig};
use crate::probe::{Probe, StallTally};
use crate::workmodel::MaskModel;

/// Sparsity handling for the SCNN variants of §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ScnnVariant {
    /// Full SCNN: both inputs and filters sparse.
    Full,
    /// SCNN-one-sided: input maps sparse, filters dense.
    OneSided,
    /// SCNN-dense: everything dense (inherits the dataflow overheads).
    Dense,
}

impl ScnnVariant {
    fn name(self) -> &'static str {
        match self {
            ScnnVariant::Full => "SCNN",
            ScnnVariant::OneSided => "SCNN-one-sided",
            ScnnVariant::Dense => "SCNN-dense",
        }
    }
}

/// Splits `n` cells into `parts` contiguous, nearly equal segments (some may
/// be empty when `n < parts`).
fn segments(n: usize, parts: usize) -> Vec<(usize, usize)> {
    (0..parts)
        .map(|i| {
            let lo = n * i / parts;
            let hi = n * (i + 1) / parts;
            (lo, hi - lo)
        })
        .collect()
}

/// One sub-tile of the input plane, `(pe, (x, rows), (y, cols))`: the owning
/// PE of the `√PEs × √PEs` grid, then the tile's first cell and extent
/// (≤ `tile`) on each axis.
pub type Tile = (usize, (usize, usize), (usize, usize));

/// The input plane's sub-tiles in the order [`simulate_scnn`] walks them.
///
/// # Panics
///
/// Panics if the PE count is not a square.
pub fn tiles(shape: &ConvShape, scnn: &ScnnConfig) -> Vec<Tile> {
    let grid = (scnn.num_pes as f64).sqrt() as usize;
    assert_eq!(grid * grid, scnn.num_pes, "PE count must be a square");
    let regions = segments(shape.in_width, grid);
    let mut out = Vec::new();
    for (pi, &(rx, rl)) in segments(shape.in_height, grid).iter().enumerate() {
        for (pj, &(cy, cl)) in regions.iter().enumerate() {
            // Each region splits into ≤ tile × tile pieces.
            for x in (rx..rx + rl).step_by(scnn.tile) {
                for y in (cy..cy + cl).step_by(scnn.tile) {
                    let (rows, cols) = (scnn.tile.min(rx + rl - x), scnn.tile.min(cy + cl - y));
                    out.push((pi * grid + pj, (x, rows), (y, cols)));
                }
            }
        }
    }
    out
}

/// Simulates one layer on SCNN, recording into `tel` when given.
///
/// A `fault`'s victim is `fault.cluster` interpreted as the flat PE index
/// (`fault.unit` is ignored — SCNN's barrier is PE-granular). A slow PE
/// stretches only the per-step barrier, leaving work counts and the
/// cycle-accounting identity intact; a stuck PE holding nonzero work
/// returns [`SimError::StuckUnit`].
pub fn simulate_scnn(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    variant: ScnnVariant,
    tel: Option<&Telemetry>,
    fault: Option<&UnitFaultSpec>,
) -> Result<SimResult, SimError> {
    let shape = &workload.shape;
    let scnn = &config.scnn;
    let edge = scnn.mult_edge as u32;
    let d = shape.in_channels;
    let k = shape.kernel;
    let groups = shape.num_filters.div_ceil(scnn.output_group);
    let dense_inputs = variant == ScnnVariant::Dense;
    let dense_filters = matches!(variant, ScnnVariant::OneSided | ScnnVariant::Dense);

    // i(t, c): per-(sub-tile, channel) input non-zero counts, one row of
    // channels per tile. A dense side counts every cell.
    let tiles = tiles(shape, scnn);
    let mut tile_nnz = vec![0u32; tiles.len() * d];
    for (row, &(_, (sx, sl), (sy, swl))) in tile_nnz.chunks_exact_mut(d).zip(&tiles) {
        if dense_inputs {
            row.fill((sl * swl) as u32);
            continue;
        }
        for y in sy..sy + swl {
            for x in sx..sx + sl {
                count_nonzeros(row, workload.input.fiber(x, y));
            }
        }
    }

    // f(g, c): per-(group, channel) filter non-zero counts, summed over the
    // group's filters and all k² taps, one row of channels per group.
    let mut group_nnz = vec![0u32; groups * d];
    for (f, filter) in workload.filters.iter().enumerate() {
        let row = &mut group_nnz[f / scnn.output_group * d..][..d];
        if dense_filters {
            row.iter_mut().for_each(|n| *n += (k * k) as u32);
            continue;
        }
        for fy in 0..k {
            for fx in 0..k {
                count_nonzeros(row, filter.weights().fiber(fx, fy));
            }
        }
    }

    // Every (group, channel) step broadcasts the group's ⌈f/e⌉ weight
    // batches to every PE, and PE p spends ⌈f/e⌉ · A(p, c) cycles on it,
    // A(p, c) = Σ_{t ∈ p} ⌈i(t, c)/e⌉. The step barrier is therefore
    // ⌈f/e⌉ times the slowest PE's latency for A, and summing over groups
    // times a channel's steps by their factors: Bsum(c) = Σ_g ⌈f(g, c)/e⌉
    // scales both the barrier and each PE's cycles.
    let probe = tel.map(|t| Probe::new(t, variant.name()));
    let hist_step = probe.as_ref().map(|p| p.histogram("hist.step_cycles"));
    let victim = fault.filter(|fa| fa.cluster < scnn.num_pes);
    // ⌈n/e⌉ for every count a tile or a group can hold, looked up rather
    // than divided per (tile, channel).
    let max_count = (scnn.tile * scnn.tile).max(scnn.output_group * k * k) as u32;
    let ceil: Vec<u64> = (0..=max_count)
        .map(|n| u64::from(n.div_ceil(edge)))
        .collect();
    let batches = |n: &u32| ceil[*n as usize];

    let mut makespan = 0u64;
    let mut pe_cycles_total = vec![0u64; scnn.num_pes];
    let mut total_products = 0u64;
    let slots_per_cycle = (scnn.mult_edge * scnn.mult_edge) as u64;
    let mut pe_batches = vec![0u64; scnn.num_pes];
    for c in 0..d {
        // A channel's steps are SCNN's chunk batches; honor a cooperative
        // cancellation here like the SparTen inner loop.
        sparten_telemetry::cancel::checkpoint();
        let inputs = tile_nnz.iter().skip(c).step_by(d);
        let weights = group_nnz.iter().skip(c).step_by(d);
        let (mut b_sum, mut f_sum, mut i_sum) = (0u64, 0u64, 0u64);
        for f in weights.clone() {
            b_sum += batches(f);
            f_sum += u64::from(*f);
        }
        pe_batches.fill(0);
        for (&(pe, _, _), i) in tiles.iter().zip(inputs.clone()) {
            pe_batches[pe] += batches(i);
            i_sum += u64::from(*i);
        }
        total_products += i_sum * f_sum;
        // The barrier advances at the slowest PE's *latency* — a slow
        // victim stretches only the barrier, its cycle count stays true.
        let mut slowest = pe_batches.iter().copied().max().unwrap_or(0);
        if let Some(fa) = victim {
            let a = pe_batches[fa.cluster];
            match fa.fault {
                UnitFault::Slow(k) => slowest = slowest.max(a * k.max(1)),
                UnitFault::Stuck if a > 0 && b_sum > 0 => {
                    return Err(SimError::StuckUnit {
                        cluster: fa.cluster,
                        unit: 0,
                    })
                }
                UnitFault::Stuck => {}
            }
        }
        makespan += b_sum * slowest;
        for (total, &a) in pe_cycles_total.iter_mut().zip(&pe_batches) {
            *total += a * b_sum;
        }
        if let Some(h) = &hist_step {
            record_steps(h, inputs.map(batches), weights.map(batches));
        }
    }

    // Useful MACs are the true stride-aware sparse MACs; the Cartesian
    // product's surplus (stride discard + border waste + zero operands in
    // the one-sided/dense variants) is the "zero" component.
    let nonzero = model.total_sparse_macs().min(total_products);
    let zero = total_products - nonzero;
    let total_busy = pe_cycles_total.iter().sum::<u64>() * slots_per_cycle;
    let intra = total_busy - total_products;
    let inter: u64 = pe_cycles_total
        .iter()
        .map(|&cy| (makespan - cy) * slots_per_cycle)
        .sum();

    let traffic = Traffic::scnn(
        shape,
        model.input_nnz() as f64,
        model.weight_nnz() as f64,
        variant,
        config,
    );
    let memory_cycles = config.memory.cycles(&traffic);
    let total_units = (scnn.num_pes as u64) * slots_per_cycle;

    if let Some(pr) = &probe {
        for (pe, &cy) in pe_cycles_total.iter().enumerate() {
            let busy_slots = cy * slots_per_cycle;
            pr.thread(pe as u32, &format!("pe{pe}"));
            pr.span(pe as u32, "pe", 0, cy, &[("busy_slots", busy_slots)]);
            if makespan > 0 {
                pr.gauge(
                    "occupancy.pe_util",
                    busy_slots as f64 / (makespan * slots_per_cycle) as f64,
                );
            }
        }
        // Every busy slot beyond a product is an idle multiplier-array slot
        // of the ⌈i/e⌉·⌈f/e⌉ quantization, so that cause is the whole intra
        // term.
        let tally = StallTally {
            multiplier_quantization: intra,
            pe_barrier_idle: inter,
            ..StallTally::default()
        };
        tally.emit(pr);
        pr.work(nonzero, zero);
        // Crossbar/accumulator-bank contention is not modelled (perfect
        // collector assumption); the taxonomy slot stays visible at zero.
        pr.stall(StallCause::OutputBackpressure, 0);
        pr.traffic(&traffic);
        pr.count("trace.products", total_products);
        pr.gauge("occupancy.makespan_cycles", makespan as f64);
    }

    Ok(SimResult {
        scheme: variant.name(),
        compute_cycles: makespan,
        memory_cycles,
        total_units,
        breakdown: Breakdown {
            nonzero,
            zero,
            intra,
            inter,
        },
        traffic,
        ops: OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * total_products,
            prefix_ops: 0,
            encoder_ops: 0,
            permute_values: 0,
            compact_ops: shape.num_outputs() as u64,
            crossbar_ops: total_products,
        },
    })
}

/// Adds the non-zero cells of one `fiber` to its channels' `counts`.
fn count_nonzeros(counts: &mut [u32], fiber: &[f32]) {
    for (n, &v) in counts.iter_mut().zip(fiber) {
        *n += u32::from(v != 0.0);
    }
}

/// Records one channel's steps into `hist.step_cycles`, given the batch
/// counts ⌈i/e⌉ of its tiles and ⌈f/e⌉ of its groups: each (tile, group)
/// step with both counts non-zero takes their product in cycles. Tiles and
/// groups share few distinct batch counts, so each distinct pair is
/// recorded once, with its tiles × groups multiplicity.
fn record_steps(
    hist: &Histogram,
    inputs: impl Iterator<Item = u64>,
    weights: impl Iterator<Item = u64>,
) {
    fn multiset(batches: impl Iterator<Item = u64>) -> BTreeMap<u64, u64> {
        let mut m = BTreeMap::new();
        for b in batches.filter(|&b| b > 0) {
            *m.entry(b).or_insert(0) += 1;
        }
        m
    }
    let weights = multiset(weights);
    for (a, tiles) in multiset(inputs) {
        for (&b, &groups) in &weights {
            hist.record_n(a * b, tiles * groups);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_config() -> SimConfig {
        let mut c = SimConfig::small(); // 16 PEs, 4×4 grid
        c.accel.num_clusters = 2;
        c
    }

    fn simulate(w: &Workload, m: &MaskModel, cfg: &SimConfig, v: ScnnVariant) -> SimResult {
        simulate_scnn(w, m, cfg, v, None, None).expect("fault-free simulation cannot fail")
    }

    fn unit_stride_workload() -> Workload {
        let shape = ConvShape::new(32, 12, 12, 3, 16, 1, 1);
        workload(&shape, 0.4, 0.35, 21)
    }

    #[test]
    fn accounting_identity_holds() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        for v in [ScnnVariant::Full, ScnnVariant::OneSided, ScnnVariant::Dense] {
            let r = simulate(&w, &m, &cfg, v);
            assert!(r.accounting_holds(), "{}: accounting broken", r.scheme);
        }
    }

    #[test]
    fn variant_ordering_full_beats_one_sided_beats_dense() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let full = simulate(&w, &m, &cfg, ScnnVariant::Full);
        let one = simulate(&w, &m, &cfg, ScnnVariant::OneSided);
        let dense = simulate(&w, &m, &cfg, ScnnVariant::Dense);
        assert!(full.cycles() < one.cycles());
        assert!(one.cycles() < dense.cycles());
    }

    #[test]
    fn slow_pe_preserves_work_but_stretches_makespan() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let clean = simulate(&w, &m, &cfg, ScnnVariant::Full);
        let fault = UnitFaultSpec {
            cluster: 0, // flat PE index for SCNN
            unit: 0,
            fault: UnitFault::Slow(5),
        };
        let slow = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect("slow PE is not a detection failure");
        assert_eq!(slow.breakdown.nonzero, clean.breakdown.nonzero);
        assert_eq!(slow.breakdown.zero, clean.breakdown.zero);
        assert!(slow.compute_cycles > clean.compute_cycles);
        assert!(slow.accounting_holds());
    }

    #[test]
    fn stuck_pe_with_work_is_detected() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let err = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect_err("a stuck PE holding work must surface as an error");
        assert!(matches!(
            err,
            sparten_core::SimError::StuckUnit { cluster: 0, unit: 0 }
        ));
    }

    #[test]
    fn fault_on_absent_pe_is_masked() {
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let clean = simulate(&w, &m, &cfg, ScnnVariant::Full);
        let fault = UnitFaultSpec {
            cluster: 9999,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let faulted = simulate_scnn(&w, &m, &cfg, ScnnVariant::Full, None, Some(&fault))
            .expect("a fault outside the PE grid cannot fire");
        assert_eq!(faulted.compute_cycles, clean.compute_cycles);
        assert_eq!(faulted.breakdown, clean.breakdown);
    }

    #[test]
    fn non_unit_stride_wastes_products() {
        // Stride 2: ~3/4 of the Cartesian product is discarded.
        let shape = ConvShape::new(32, 12, 12, 3, 16, 2, 1);
        let w = workload(&shape, 0.4, 0.35, 22);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate(&w, &m, &cfg, ScnnVariant::Full);
        assert!(
            r.breakdown.zero as f64 > 2.0 * r.breakdown.nonzero as f64,
            "zero {} vs nonzero {}",
            r.breakdown.zero,
            r.breakdown.nonzero
        );
    }

    #[test]
    fn small_planes_idle_pes() {
        // A 3×3 plane on a 4×4 PE grid: at most 9 PEs can be busy.
        let shape = ConvShape::new(64, 3, 3, 1, 16, 1, 0);
        let w = workload(&shape, 0.5, 0.4, 23);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate(&w, &m, &cfg, ScnnVariant::Full);
        // Inter-PE loss must be at least the 7 idle PEs' share.
        let idle_share = r.breakdown.inter as f64 / r.breakdown.total() as f64;
        assert!(idle_share > 0.3, "idle share {idle_share}");
    }

    #[test]
    fn products_match_channel_sums_unit_stride() {
        // For unit stride, total products = Σ_c input_nnz_c × weight_nnz_c
        // (all groups). Check via the breakdown identity.
        let w = unit_stride_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate(&w, &m, &cfg, ScnnVariant::Full);
        let d = w.shape.in_channels;
        let mut in_c = vec![0u64; d];
        for y in 0..w.shape.in_width {
            for x in 0..w.shape.in_height {
                for (z, &v) in w.input.fiber(x, y).iter().enumerate() {
                    if v != 0.0 {
                        in_c[z] += 1;
                    }
                }
            }
        }
        let mut w_c = vec![0u64; d];
        for f in &w.filters {
            for fy in 0..3 {
                for fx in 0..3 {
                    for (z, &v) in f.weights().fiber(fx, fy).iter().enumerate() {
                        if v != 0.0 {
                            w_c[z] += 1;
                        }
                    }
                }
            }
        }
        let expect: u64 = (0..d).map(|c| in_c[c] * w_c[c]).sum();
        assert_eq!(r.breakdown.nonzero + r.breakdown.zero, expect);
    }

    #[test]
    fn one_by_one_filters_underutilize_multipliers() {
        // 1×1 filters: few weights per (channel, group) → heavy ⌈F/4⌉ waste.
        let shape = ConvShape::new(128, 12, 12, 1, 16, 1, 0);
        let w = workload(&shape, 0.5, 0.35, 24);
        let cfg = test_config();
        let m = MaskModel::new(&w, 128);
        let r = simulate(&w, &m, &cfg, ScnnVariant::Full);
        let intra_share = r.breakdown.intra as f64 / r.breakdown.total() as f64;
        assert!(intra_share > 0.2, "intra share {intra_share}");
    }
}
