//! `DseGrid::batch_record` against the direct per-configuration loop it
//! factors: decode each configuration index, call the public `evaluate`,
//! format the key, and add into a `BTreeMap` in index order. The two must
//! agree byte for byte, so the factored path changes no f64 operation or
//! its order.
//!
//! By default this checks every quick-grid batch and a sample of full-grid
//! batches: the first, the last (partial), two that start mid-run and a
//! seeded draw. The `exhaustive-tests` feature checks all full-grid
//! batches (about 2 s in release).

use std::collections::BTreeMap;

use sparten_core::{AcceleratorConfig, ClusterConfig};
use sparten_model::dse::{Aggregate, DseAxes, DseGrid, BATCH_SIZE, MODEL_VERSION};
use sparten_model::{evaluate, LayerParams};
use sparten_sim::SimConfig;

/// Batch `batch`'s record, every configuration evaluated on its own.
fn reference_record(axes: &DseAxes, batch: usize) -> String {
    let lo = batch * BATCH_SIZE;
    let hi = ((batch + 1) * BATCH_SIZE).min(axes.num_configs());
    let mut aggs: BTreeMap<String, Aggregate> = BTreeMap::new();
    for idx in lo..hi {
        // Mixed-radix decode, last axis fastest.
        let mut rest = idx;
        let mut take = |len: usize| {
            let v = rest % len;
            rest /= len;
            v
        };
        let rho_f = axes.filter_densities[take(axes.filter_densities.len())];
        let rho_i = axes.input_densities[take(axes.input_densities.len())];
        let layer = &axes.layers[take(axes.layers.len())];
        let scheme = axes.schemes[take(axes.schemes.len())];
        let kib = axes.buffer_kib[take(axes.buffer_kib.len())];
        let clusters = axes.cluster_counts[take(axes.cluster_counts.len())];
        let units = axes.compute_units[take(axes.compute_units.len())];
        let chunk = axes.chunk_sizes[rest];
        let cfg = SimConfig {
            accel: AcceleratorConfig {
                cluster: ClusterConfig {
                    compute_units: units,
                    chunk_size: chunk,
                    bisection_limit: 4,
                },
                num_clusters: clusters,
            },
            ..SimConfig::large()
        };
        let params = LayerParams::new(layer.shape, rho_i, rho_f);
        let ev = evaluate(&params, &cfg, scheme, kib * 1024 / units);
        let key = format!(
            "chunk={chunk},units={units},clusters={clusters},kib={kib},scheme={}",
            scheme.label()
        );
        let agg = aggs.entry(key).or_default();
        agg.n += 1;
        agg.cycles += ev.cycles() as f64;
        agg.macs += ev.result.breakdown.nonzero as f64;
        agg.energy_pj += ev.energy_pj();
        if ev.result.is_memory_bound() {
            agg.mem_bound += 1;
        }
    }
    let mut out = format!("dse-batch {MODEL_VERSION} batch={batch} lo={lo} hi={hi}\n");
    for (key, a) in &aggs {
        out.push_str(&format!(
            "{key} n={} cycles={} macs={} energy={} membound={}\n",
            a.n, a.cycles, a.macs, a.energy_pj, a.mem_bound
        ));
    }
    out
}

fn assert_batches_match(grid: &DseGrid, batches: impl IntoIterator<Item = usize>) {
    for batch in batches {
        assert_eq!(
            grid.batch_record(batch),
            reference_record(&grid.axes, batch),
            "batch {batch}"
        );
    }
}

/// splitmix64, for the seeded sample of full-grid batches.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[test]
fn quick_grid_matches_per_config_reference() {
    let grid = DseGrid::new(DseAxes::quick());
    assert_batches_match(&grid, 0..grid.num_batches());
}

#[test]
fn full_grid_matches_per_config_reference() {
    let grid = DseGrid::new(DseAxes::full());
    let batches = grid.num_batches();
    let last = batches - 1;
    let run_len = grid.axes.input_densities.len() * grid.axes.filter_densities.len();
    // The sample's shape is part of what it checks.
    assert_eq!(grid.axes.num_configs() - last * BATCH_SIZE, 192);
    let mid_run = [1, 1000];
    assert!(mid_run.iter().all(|b| !(b * BATCH_SIZE).is_multiple_of(run_len)));
    if cfg!(feature = "exhaustive-tests") {
        assert_batches_match(&grid, 0..batches);
    } else {
        let seeded = (0..20).map(|i| (mix(0x5eed ^ mix(i)) % batches as u64) as usize);
        assert_batches_match(&grid, [0, last].into_iter().chain(mid_run).chain(seeded));
    }
}
