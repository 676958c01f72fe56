//! Regenerates Figure 16: GoogLeNet speedups on the FPGA prototype.

use crate::registry::NetworkFigure;
use crate::{dump_json, print_speedup_figure, LayerResult};
use sparten::nn::googlenet;
use sparten::sim::{Scheme, SimConfig};

const SCHEMES: [Scheme; 4] = [
    Scheme::Dense,
    Scheme::OneSided,
    Scheme::SpartenNoGb,
    Scheme::SpartenGbH,
];

/// The per-layer description the harness parallelizes.
pub fn figure() -> NetworkFigure {
    NetworkFigure {
        network: googlenet,
        config: |_| SimConfig::fpga(),
        schemes: || SCHEMES.to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    print_speedup_figure(
        "Figure 16: GoogLeNet Speedup on FPGA",
        layers,
        &SCHEMES,
        &[],
    );
    dump_json("fig16_googlenet_fpga", layers, &SCHEMES);
}
