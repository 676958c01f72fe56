//! Cross-simulator invariants on a randomized layer sweep.
//!
//! Two properties must hold for *every* layer and every architecture:
//!
//! 1. **MAC-count ground truth** — the number of `JoinStep`s the
//!    word-parallel `fast_join` emits over a window equals the dense
//!    reference's count of position pairs where both operands are
//!    non-zero, and equals the `MaskModel`'s precomputed work. This ties
//!    the fast path, the functional chunking, and the simulators' work
//!    model to one number.
//! 2. **Breakdown accounting identity** — each simulator's execution-time
//!    decomposition satisfies `nonzero + zero + intra + inter ==
//!    compute_cycles × total_units` (the invariant Figures 10–12 rely on
//!    for their normalized stacked bars).
//! 3. **One pass equals one scheme at a time** — `simulate_schemes`, which
//!    times every SparTen-family scheme from one shared pass, returns
//!    exactly what `simulate_layer` returns per scheme, and traced, merges
//!    exactly the session that tracing each scheme on its own builds.
//! 4. **Buffer depth is a timing rule of the pass** — `simulate_buffered`
//!    times every depth exactly as the stand-alone bounded-buffer loop it
//!    replaced, kept below as the reference.
//!
//! The sweep is seeded and deterministic; `exhaustive-tests` widens it.

use sparten_arch::fast::fast_join;
use sparten_core::balance::{BalanceMode, LayerBalance};
use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
use sparten_nn::generate::{workload, Workload};
use sparten_nn::ConvShape;
use sparten_sim::cambricon::simulate_cambricon;
use sparten_sim::{
    simulate_buffered, simulate_layer, simulate_layer_telemetry, simulate_schemes, BufferDepth,
    MaskModel, Scheme, SimConfig,
};
use sparten_telemetry::{chrome_trace, Telemetry};
use sparten_tensor::{Rng64, SparseVector};

fn sweep_cases(default: usize, exhaustive: usize) -> usize {
    if cfg!(feature = "exhaustive-tests") {
        exhaustive
    } else {
        default
    }
}

/// A small randomized layer: channels, spatial size, kernel, stride, pad,
/// and densities all drawn from the seeded generator.
fn random_layer(rng: &mut Rng64) -> (Workload, ConvShape) {
    let kernel: usize = [1, 3, 3, 5][rng.gen_range_usize(0, 4)];
    let stride = 1 + rng.gen_range_usize(0, 2);
    let pad = rng.gen_range_usize(0, kernel.div_ceil(2) + 1);
    let side = kernel + stride + rng.gen_range_usize(0, 4);
    let channels = rng.gen_range_usize(3, 80);
    let filters = rng.gen_range_usize(1, 9);
    let shape = ConvShape::new(channels, side, side, kernel, filters, stride, pad);
    let input_density = rng.gen_range_f64(0.15, 0.85);
    let filter_density = rng.gen_range_f64(0.15, 0.85);
    let seed = rng.next_u64();
    (
        workload(&shape, input_density, filter_density, seed),
        shape,
    )
}

/// Dense-reference nonzero-product count for one (window, filter) pair.
fn dense_reference_macs(w: &Workload, ox: usize, oy: usize, f: usize) -> usize {
    let shape = &w.shape;
    let win = w
        .input
        .window_vector(ox, oy, shape.kernel, shape.kernel, shape.stride, shape.pad);
    let lin = w.filters[f].linearize();
    win.iter()
        .zip(&lin)
        .filter(|(a, b)| **a != 0.0 && **b != 0.0)
        .count()
}

#[test]
fn fast_join_mac_count_equals_dense_reference() {
    let mut rng = Rng64::seed_from_u64(0xFA57);
    let chunk_size = 64;
    for _ in 0..sweep_cases(6, 60) {
        let (w, shape) = random_layer(&mut rng);
        let model = MaskModel::new(&w, chunk_size);
        let filter_chunks: Vec<SparseVector> = w
            .filters
            .iter()
            .map(|f| filter_to_chunks(f, chunk_size))
            .collect();
        let mut table = model.work_table();
        // Sample a few output positions rather than the full plane.
        for _ in 0..3 {
            let ox = rng.gen_range_usize(0, shape.out_height());
            let oy = rng.gen_range_usize(0, shape.out_width());
            model.load_window(ox, oy, &mut table);
            model.fill_joins(&mut table);
            let win = linearize_window_padded(
                &w.input,
                ox,
                oy,
                shape.kernel,
                shape.stride,
                shape.pad,
                chunk_size,
            );
            let win = SparseVector::from_dense(&win, chunk_size);
            for (f, fc) in filter_chunks.iter().enumerate() {
                let mut join_macs = 0usize;
                for (ic, fcc) in win.chunks().iter().zip(fc.chunks()) {
                    let mut join = fast_join(ic, fcc);
                    join_macs += join.by_ref().count();
                }
                let expect = dense_reference_macs(&w, ox, oy, f);
                assert_eq!(join_macs, expect, "fast_join vs dense reference");
                let window_work: u32 = (0..model.chunks_per_window())
                    .map(|c| table.join(f, c))
                    .sum();
                assert_eq!(
                    window_work as usize, expect,
                    "mask model vs dense reference"
                );
            }
        }
        // And in aggregate: the cached total equals the brute-force total.
        let total: u64 = (0..shape.out_width())
            .flat_map(|oy| (0..shape.out_height()).map(move |ox| (ox, oy)))
            .map(|(ox, oy)| {
                (0..w.filters.len())
                    .map(|f| dense_reference_macs(&w, ox, oy, f) as u64)
                    .sum::<u64>()
            })
            .sum();
        assert_eq!(model.total_sparse_macs(), total);
    }
}

#[test]
fn breakdown_accounting_identity_holds_across_simulators() {
    let mut rng = Rng64::seed_from_u64(0xB4EA);
    let config = SimConfig::small();
    for _ in 0..sweep_cases(6, 60) {
        let (w, _shape) = random_layer(&mut rng);
        let model = MaskModel::new(&w, config.accel.cluster.chunk_size);
        for scheme in Scheme::all() {
            let r = simulate_layer(&w, &model, &config, scheme);
            assert!(
                r.accounting_holds(),
                "{}: breakdown {:?} != {} cycles × {} units",
                r.scheme,
                r.breakdown,
                r.compute_cycles,
                r.total_units
            );
            assert_eq!(r.scheme, scheme.label());
        }
        let cambricon = simulate_cambricon(&w, &config);
        assert!(
            cambricon.sim.accounting_holds(),
            "Cambricon-S: breakdown {:?} != {} cycles × {} units",
            cambricon.sim.breakdown,
            cambricon.sim.compute_cycles,
            cambricon.sim.total_units
        );
    }
}

#[test]
fn one_pass_matches_per_scheme_simulation() {
    let mut rng = Rng64::seed_from_u64(0x0A55);
    let mut config = SimConfig::small();
    config.accel.num_clusters = 3;
    config.accel.cluster.compute_units = 4;
    let units = config.accel.cluster.compute_units;
    let all = Scheme::all();
    let reversed: Vec<Scheme> = all.iter().rev().copied().collect();
    let repeated = [
        Scheme::SpartenGbH,
        Scheme::OneSided,
        Scheme::SpartenGbH,
        Scheme::Dense,
        Scheme::SpartenGbH,
    ];
    for _ in 0..sweep_cases(4, 40) {
        // A filter count that leaves the last group partial both with one
        // filter per unit and with two collocated.
        let filters = 2 * units * rng.gen_range_usize(1, 3) + rng.gen_range_usize(1, units);
        let side = 5 + rng.gen_range_usize(0, 4);
        let channels = rng.gen_range_usize(40, 300);
        let shape = ConvShape::new(channels, side, side + 1, 3, filters, 1, 1);
        let density = rng.gen_range_f64(0.2, 0.7);
        let w = workload(&shape, density, rng.gen_range_f64(0.2, 0.7), rng.next_u64());
        let chunk = config.accel.cluster.chunk_size;
        let reference = MaskModel::new(&w, chunk);
        let expect = |list: &[Scheme]| -> Vec<_> {
            list.iter()
                .map(|&s| simulate_layer(&w, &reference, &config, s))
                .collect()
        };
        for list in [&all[..], &reversed, &repeated] {
            let model = MaskModel::new(&w, chunk);
            let got = simulate_schemes(&w, &model, &config, list, None).unwrap();
            assert_eq!(got, expect(list), "{list:?} on {shape:?}");
            // The total the pass stored equals a fresh model's own sum,
            // and every two-sided run's busy total.
            let total = model.total_sparse_macs();
            assert_eq!(total, MaskModel::new(&w, chunk).total_sparse_macs());
            for r in got.iter().filter(|r| r.scheme.starts_with("SparTen")) {
                let busy = r.breakdown.nonzero + r.breakdown.zero;
                assert_eq!(busy, total, "{}", r.scheme);
            }
            // Traced, each scheme records into its own session and the
            // sessions merge in scheme order: the same counters, gauges,
            // histograms and timeline as tracing one scheme at a time.
            let traced = Telemetry::new();
            let model = MaskModel::new(&w, chunk);
            let got = simulate_schemes(&w, &model, &config, list, Some((&traced, "l:"))).unwrap();
            assert_eq!(got, expect(list), "traced {list:?} on {shape:?}");
            let one_at_a_time = Telemetry::new();
            for &s in list {
                simulate_layer_telemetry(&w, &reference, &config, s, &one_at_a_time, "l:").unwrap();
            }
            let (a, b) = (traced.metrics.snapshot(), one_at_a_time.metrics.snapshot());
            assert_eq!(a, b, "traced {list:?} on {shape:?}");
            assert_eq!(
                chrome_trace(&a, &traced.recorder),
                chrome_trace(&b, &one_at_a_time.recorder),
                "traced {list:?} on {shape:?}"
            );
        }
    }
}

/// The bounded-buffer simulator as a stand-alone loop, before buffer depth
/// became a timing rule of the SparTen pass: per cluster and filter group,
/// each unit's completion time and a ring of the last `B` items'
/// all-units-done times — item `k` issues once every unit has finished
/// item `k − B`. Returns the slowest cluster's cycles and the useful MACs.
fn reference_buffered(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    mode: BalanceMode,
    depth: BufferDepth,
) -> (u64, u64) {
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
    (makespan, useful)
}

#[test]
fn buffered_pass_matches_reference_loop() {
    let mut rng = Rng64::seed_from_u64(0xB0FF);
    let depths = [
        BufferDepth::Bounded(1),
        BufferDepth::Bounded(2),
        BufferDepth::Bounded(3),
        BufferDepth::Bounded(8),
        BufferDepth::Unbounded,
    ];
    let modes = [
        BalanceMode::None,
        BalanceMode::GbS,
        BalanceMode::GbH,
        BalanceMode::GbSNoColloc,
    ];
    for _ in 0..sweep_cases(6, 60) {
        let (w, shape) = random_layer(&mut rng);
        let mut config = SimConfig::small();
        config.accel.num_clusters = rng.gen_range_usize(1, 4);
        config.accel.cluster.compute_units = rng.gen_range_usize(2, 7);
        config.accel.cluster.chunk_size = [64, 128][rng.gen_range_usize(0, 2)];
        let model = MaskModel::new(&w, config.accel.cluster.chunk_size);
        for mode in modes {
            for depth in depths {
                let r = simulate_buffered(&w, &model, &config, mode, depth);
                let busy = r.breakdown.nonzero + r.breakdown.zero;
                assert_eq!(
                    (r.compute_cycles, busy),
                    reference_buffered(&w, &model, &config, mode, depth),
                    "{mode:?} at {depth:?} on {shape:?}, {:?}",
                    config.accel
                );
                assert!(r.accounting_holds(), "{mode:?} at {depth:?} on {shape:?}");
            }
        }
    }
}
