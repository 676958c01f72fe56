//! SCNN tile-size search: §4 sets the input tile to 6×6 after "a search of
//! the tile size space". This sweep reruns that search in our model:
//! smaller tiles waste multiplier slots on the ⌈I/4⌉ quantization of tiny
//! per-channel non-zero counts; larger tiles exceed the 1K-accumulator
//! budget (tile+halo squared × output group).

use sparten::nn::alexnet;
use sparten::sim::{simulate_layer, MaskModel, Scheme, SimConfig};
use crate::{print_table, SEED};

pub fn run() {
    crate::outln!("== SCNN input-tile-size search (AlexNet Layer2) ==\n");
    let net = alexnet();
    let spec = net.layer("Layer2").expect("Layer2 exists");
    let w = spec.workload(SEED);
    let cfg_base = SimConfig::large();
    let model = MaskModel::new(&w, cfg_base.accel.cluster.chunk_size);

    let mut rows = Vec::new();
    for tile in [2usize, 3, 4, 6, 8, 10] {
        let mut cfg = cfg_base;
        cfg.scnn.tile = tile;
        let r = simulate_layer(&w, &model, &cfg, Scheme::Scnn);
        // Accumulator demand: (tile + k − 1)² outputs × output group of 8.
        let k = spec.shape.kernel;
        let accumulators = (tile + k - 1) * (tile + k - 1) * cfg.scnn.output_group;
        let f = r.breakdown_fractions();
        rows.push(vec![
            format!("{tile}x{tile}"),
            r.cycles().to_string(),
            format!("{:.0}%", f[2] * 100.0),
            format!("{:.0}%", f[3] * 100.0),
            accumulators.to_string(),
            (accumulators <= 1024).to_string(),
        ]);
    }
    print_table(
        &[
            "tile",
            "cycles",
            "intra-PE loss",
            "inter-PE loss",
            "accumulators needed",
            "fits 1K budget",
        ],
        &rows,
    );
    crate::outln!("\n6x6 is the largest tile that fits the 1K-accumulator budget for 3x3");
    crate::outln!("filters — matching the paper's search result.");
}
