//! Cross-simulator invariants on a randomized layer sweep.
//!
//! These properties must hold for *every* layer and every architecture:
//!
//! 1. **MAC-count ground truth** — the MAC count the word-parallel
//!    `join_eval` reports over a window equals the dense reference's
//!    count of position pairs where both operands are
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
//! 5. **SCNN timed by its factors equals its step loop** — `simulate_scnn`
//!    returns what the per-(group, channel, tile) step loop it replaced
//!    measured, kept below as the reference: the result, the step-cycle
//!    histogram, the stall counters, and the outcome with a slow or stuck
//!    PE.
//! 6. **GB-H's integer chunk key is the density sort** — the per-chunk
//!    assignment sorted on non-zero counts equals the one sorted on
//!    `filter_to_chunks` chunk densities.
//!
//! The sweep is seeded and deterministic; `exhaustive-tests` widens it.

use sparten_arch::fast::join_eval;
use sparten_core::balance::{BalanceMode, GroupAssignment, LayerBalance};
use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::{random_filters, workload, Workload};
use sparten_nn::{ConvShape, Filter};
use sparten_sim::cambricon::simulate_cambricon;
use sparten_sim::scnn::{simulate_scnn, tiles, ScnnVariant};
use sparten_sim::{
    simulate_buffered, simulate_layer, simulate_layer_telemetry, simulate_schemes, Breakdown,
    BufferDepth, MaskModel, OpCounts, Scheme, SimConfig, SimResult, WorkTable,
};
use sparten_telemetry::{chrome_trace, Histogram, StallCause, Telemetry};
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
        let oh = shape.out_height();
        // Sample a few output positions rather than the full plane, each
        // from a batch that starts up to 15 positions before it.
        for _ in 0..3 {
            let ox = rng.gen_range_usize(0, oh);
            let oy = rng.gen_range_usize(0, shape.out_width());
            let p = ox + oh * oy;
            model.load_windows(p.saturating_sub(rng.gen_range_usize(0, 16)), &mut table);
            model.fill_joins(&mut table);
            assert!(table.positions().contains(&p));
            let lane = p - table.positions().start;
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
                    join_macs += join_eval(ic, fcc).1;
                }
                let expect = dense_reference_macs(&w, ox, oy, f);
                assert_eq!(join_macs, expect, "join_eval vs dense reference");
                let window_work: u32 = (0..model.chunks_per_window())
                    .map(|c| table.join(f, c, lane))
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

/// Makes `table` hold output position `p`, loading and filling the batch
/// that starts there if it does not, and returns `p`'s lane.
fn lane_of(model: &MaskModel, table: &mut WorkTable, p: usize) -> usize {
    if !table.positions().contains(&p) {
        model.load_windows(p, table);
        model.fill_joins(table);
    }
    p - table.positions().start
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
            let lane = lane_of(model, &mut table, p);
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
                        let w: u64 = slots.iter().map(|&f| table.join(f, c, lane) as u64).sum();
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
        let runs: Vec<_> = modes
            .iter()
            .flat_map(|&mode| depths.map(|depth| (mode, depth)))
            .collect();
        let results = simulate_buffered(&w, &model, &config, &runs);
        assert_eq!(results.len(), runs.len());
        for (r, &(mode, depth)) in results.iter().zip(&runs) {
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

/// What SCNN's step loop measured: the makespan, each PE's cycles, the
/// Cartesian products, and the multiplier-quantization slots.
#[derive(Debug)]
struct ScnnSteps {
    makespan: u64,
    pe_cycles: Vec<u64>,
    products: u64,
    quantization: u64,
}

/// SCNN's timing loop before it was timed by its factors: one barrier per
/// (group, channel) step, at which each PE's tiles take ⌈i/e⌉ · ⌈f/e⌉
/// cycles each and a slow victim stretches only the barrier. Every step
/// with work is recorded into `steps`.
fn reference_scnn(
    workload: &Workload,
    config: &SimConfig,
    variant: ScnnVariant,
    fault: Option<&UnitFaultSpec>,
    steps: &Histogram,
) -> Result<ScnnSteps, SimError> {
    let shape = &workload.shape;
    let scnn = &config.scnn;
    let edge = scnn.mult_edge as u64;
    let (d, k) = (shape.in_channels, shape.kernel);
    let groups = shape.num_filters.div_ceil(scnn.output_group);
    let tiles = tiles(shape, scnn);
    let mut tile_channel_nnz = vec![0u64; tiles.len() * d];
    for (t, &(_, (sx, sl), (sy, swl))) in tiles.iter().enumerate() {
        for y in sy..sy + swl {
            for x in sx..sx + sl {
                for (z, &v) in workload.input.fiber(x, y).iter().enumerate() {
                    if v != 0.0 || variant == ScnnVariant::Dense {
                        tile_channel_nnz[t * d + z] += 1;
                    }
                }
            }
        }
    }
    let mut group_channel_nnz = vec![0u64; groups * d];
    for (f, filter) in workload.filters.iter().enumerate() {
        let g = f / scnn.output_group;
        for fy in 0..k {
            for fx in 0..k {
                for (z, &v) in filter.weights().fiber(fx, fy).iter().enumerate() {
                    if v != 0.0 || variant != ScnnVariant::Full {
                        group_channel_nnz[g * d + z] += 1;
                    }
                }
            }
        }
    }
    let slots_per_cycle = edge * edge;
    let mut out = ScnnSteps {
        makespan: 0,
        pe_cycles: vec![0; scnn.num_pes],
        products: 0,
        quantization: 0,
    };
    let mut pe_cycles = vec![0u64; scnn.num_pes];
    for g in 0..groups {
        for c in 0..d {
            let f_nnz = group_channel_nnz[g * d + c];
            pe_cycles.fill(0);
            if f_nnz > 0 {
                for (t, &(owner, _, _)) in tiles.iter().enumerate() {
                    let i_nnz = tile_channel_nnz[t * d + c];
                    if i_nnz == 0 {
                        continue;
                    }
                    let cycles = i_nnz.div_ceil(edge) * f_nnz.div_ceil(edge);
                    pe_cycles[owner] += cycles;
                    out.products += i_nnz * f_nnz;
                    out.quantization += cycles * slots_per_cycle - i_nnz * f_nnz;
                    steps.record(cycles);
                }
            }
            let mut barrier = 0u64;
            for (pe, &cy) in pe_cycles.iter().enumerate() {
                let mut latency = cy;
                if let Some(fa) = fault.filter(|fa| fa.cluster == pe) {
                    match fa.fault {
                        UnitFault::Slow(k) => latency = cy * k.max(1),
                        UnitFault::Stuck if cy > 0 => {
                            return Err(SimError::StuckUnit {
                                cluster: pe,
                                unit: 0,
                            })
                        }
                        UnitFault::Stuck => {}
                    }
                }
                barrier = barrier.max(latency);
            }
            out.makespan += barrier;
            for (total, &cy) in out.pe_cycles.iter_mut().zip(&pe_cycles) {
                *total += cy;
            }
        }
    }
    Ok(out)
}

/// A seeded SCNN layer. Every fourth layer forces one shape the factors
/// must survive: a 1×1 kernel, stride 2, a plane smaller than the PE grid,
/// or a filter count the output group does not divide.
fn scnn_layer(rng: &mut Rng64, case: usize, config: &SimConfig) -> Workload {
    let og = config.scnn.output_group;
    let grid = (config.scnn.num_pes as f64).sqrt() as usize;
    let forced = case % 4;
    let kernel = if forced == 0 {
        1
    } else {
        [1, 3, 5][rng.gen_range_usize(0, 3)]
    };
    let stride = if forced == 1 {
        2
    } else {
        1 + rng.gen_range_usize(0, 2)
    };
    let pad = kernel / 2;
    let side = if forced == 2 {
        rng.gen_range_usize(1, grid)
    } else {
        rng.gen_range_usize(1, 20)
    };
    let filters = if forced == 3 {
        og * rng.gen_range_usize(0, 4) + rng.gen_range_usize(1, og)
    } else {
        rng.gen_range_usize(1, 40)
    };
    let (channels, width) = (rng.gen_range_usize(1, 40), side + rng.gen_range_usize(0, 3));
    let shape = ConvShape::new(channels, side, width, kernel, filters, stride, pad);
    let input_density = rng.gen_range_f64(0.02, 0.9);
    let filter_density = rng.gen_range_f64(0.02, 0.9);
    workload(&shape, input_density, filter_density, rng.next_u64())
}

#[test]
fn scnn_factors_match_reference_step_loop() {
    let mut rng = Rng64::seed_from_u64(0x5C22);
    let variants = [ScnnVariant::Full, ScnnVariant::OneSided, ScnnVariant::Dense];
    for case in 0..sweep_cases(24, 240) {
        let mut config = SimConfig::small();
        config.scnn.num_pes = [4, 16, 64][rng.gen_range_usize(0, 3)];
        config.scnn.mult_edge = 2 + rng.gen_range_usize(0, 3);
        config.scnn.tile = 2 + rng.gen_range_usize(0, 5);
        config.scnn.output_group = 2 + rng.gen_range_usize(0, 7);
        let w = scnn_layer(&mut rng, case, &config);
        let model = MaskModel::new(&w, 64);
        let slots = (config.scnn.mult_edge * config.scnn.mult_edge) as u64;
        for (variant, scheme) in variants.into_iter().zip(Scheme::all()[5..].iter()) {
            let at = format!("{variant:?} on {:?}, {:?}", w.shape, config.scnn);
            let steps = Histogram::default();
            let reference = reference_scnn(&w, &config, variant, None, &steps).unwrap();
            // The whole result: every field the step loop decides, and the
            // rest unchanged.
            let tel = Telemetry::new();
            let got = simulate_scnn(&w, &model, &config, variant, Some(&tel), None).unwrap();
            let nonzero = model.total_sparse_macs().min(reference.products);
            let zero = reference.products - nonzero;
            let busy = reference.pe_cycles.iter().sum::<u64>() * slots;
            let inter = reference
                .pe_cycles
                .iter()
                .map(|&cy| (reference.makespan - cy) * slots)
                .sum();
            let expect = SimResult {
                compute_cycles: reference.makespan,
                breakdown: Breakdown {
                    nonzero,
                    zero,
                    intra: busy - reference.products,
                    inter,
                },
                ops: OpCounts {
                    macs_nonzero: nonzero,
                    macs_zero: zero,
                    buffer_accesses: 3 * reference.products,
                    crossbar_ops: reference.products,
                    ..got.ops
                },
                ..got.clone()
            };
            assert_eq!(got, expect, "{at}");
            assert_eq!(got.scheme, scheme.label());
            assert!(got.accounting_holds(), "{at}");
            // Traced: the step histogram and the stall counters.
            let hist = tel
                .metrics
                .histogram(&format!("{}/hist.step_cycles", got.scheme));
            assert_eq!(hist.buckets(), steps.buckets(), "{at}");
            assert_eq!(hist.sum(), steps.sum(), "{at}");
            let snap = tel.metrics.snapshot();
            let stall =
                |cause: StallCause| snap.counter(&cause.metric_name(got.scheme)).unwrap_or(0);
            assert_eq!(
                stall(StallCause::MultiplierQuantization),
                reference.quantization,
                "{at}"
            );
            assert_eq!(stall(StallCause::PeBarrierIdle), inter, "{at}");
            assert_eq!(
                got,
                simulate_scnn(&w, &model, &config, variant, None, None).unwrap()
            );

            // Faults on a PE with work and on one without, preferring an
            // idle PE that owns tiles: its inputs, if any, meet no weights.
            let busy_pe = reference.pe_cycles.iter().position(|&cy| cy > 0);
            let idle = |pe: &usize| reference.pe_cycles[*pe] == 0;
            let owners = tiles(&w.shape, &config.scnn)
                .into_iter()
                .map(|(pe, _, _)| pe);
            let idle_pe = owners
                .filter(idle)
                .chain((0..config.scnn.num_pes).filter(idle))
                .next();
            let slow = UnitFault::Slow(2 + rng.gen_range_usize(0, 4) as u64);
            for pe in [busy_pe, idle_pe].into_iter().flatten() {
                for fault in [slow, UnitFault::Stuck] {
                    let spec = UnitFaultSpec {
                        cluster: pe,
                        unit: rng.gen_range_usize(0, 3),
                        fault,
                    };
                    let got = simulate_scnn(&w, &model, &config, variant, None, Some(&spec));
                    let reference =
                        reference_scnn(&w, &config, variant, Some(&spec), &Histogram::default());
                    match (got, reference) {
                        (Ok(got), Ok(reference)) => {
                            assert_eq!(got.compute_cycles, reference.makespan, "{at}, {spec:?}");
                            let intra = expect.breakdown.intra;
                            assert_eq!(got.breakdown.intra, intra, "{at}, {spec:?}");
                            assert!(got.accounting_holds(), "{at}, {spec:?}");
                        }
                        (got, reference) => {
                            assert_eq!(got.err(), reference.err(), "{at}, {spec:?}")
                        }
                    }
                }
            }
        }
    }
}

/// GB-H's per-chunk assignment of one group as it was built before the
/// integer key: the group's filters sorted by the density of their chunk
/// `c` in `filter_to_chunks` (descending, ties by id), then dealt onto
/// the units serpentine-wise, `k` deep.
fn reference_per_chunk(
    filters: &[Filter],
    group: &GroupAssignment,
    units: usize,
    chunk_size: usize,
    k: usize,
) -> Vec<Vec<Vec<usize>>> {
    let sparse: Vec<SparseVector> = filters
        .iter()
        .map(|f| filter_to_chunks(f, chunk_size))
        .collect();
    (0..sparse[0].num_chunks())
        .map(|c| {
            let mut by_chunk = group.produced_order.clone();
            let density = |i: usize| sparse[i].chunks()[c].density();
            by_chunk.sort_by(|&a, &b| density(b).partial_cmp(&density(a)).unwrap().then(a.cmp(&b)));
            let busy = by_chunk.len().div_ceil(k).min(units);
            let mut per_cu = vec![Vec::new(); units];
            for (rank, &f) in by_chunk.iter().enumerate().take(units * k) {
                let (pass, pos) = (rank / busy, rank % busy);
                per_cu[if pass.is_multiple_of(2) {
                    pos
                } else {
                    busy - 1 - pos
                }]
                .push(f);
            }
            per_cu
        })
        .collect()
}

#[test]
fn gbh_count_key_matches_density_sort() {
    let mut rng = Rng64::seed_from_u64(0x6B4B);
    for channels in [3, 70, 192, 256] {
        for chunk_size in [64, 128, 256] {
            for _ in 0..sweep_cases(1, 4) {
                let units = rng.gen_range_usize(2, 9);
                // Not a multiple of 2 · units, so the last group is partial.
                let filters =
                    2 * units * rng.gen_range_usize(0, 3) + rng.gen_range_usize(1, 2 * units);
                let kernel = [1, 3][rng.gen_range_usize(0, 2)];
                let shape = ConvShape::new(channels, 4, 4, kernel, filters, 1, 0);
                let density = rng.gen_range_f64(0.05, 0.9);
                let varied = random_filters(&shape, density, 0.9, rng.next_u64());
                // Every chunk of every filter ties.
                let ties = random_filters(&shape, 1.0, 0.0, rng.next_u64());
                for fs in [varied, ties] {
                    let at = format!("{shape:?}, {units} units, chunk {chunk_size}");
                    let check = |b: LayerBalance, k: usize| {
                        assert_eq!(b.mode, BalanceMode::GbH);
                        for g in &b.groups {
                            let expect = reference_per_chunk(&fs, g, units, chunk_size, k);
                            assert_eq!(g.per_chunk_cu, expect, "k = {k}, {at}");
                        }
                    };
                    check(
                        LayerBalance::new(&fs, units, chunk_size, BalanceMode::GbH),
                        2,
                    );
                    for k in [2, 3] {
                        check(
                            LayerBalance::with_collocation(&fs, units, chunk_size, k, true),
                            k,
                        );
                    }
                }
            }
        }
    }
}
