//! Regenerates Figure 15: AlexNet speedups on the FPGA prototype (one
//! 32-unit cluster against 2.8 Gbps SDRAM — layers can go memory-bound).

use crate::registry::NetworkFigure;
use crate::{dump_json, print_speedup_figure, LayerResult};
use sparten::nn::alexnet;
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
        network: alexnet,
        config: |_| SimConfig::fpga(),
        schemes: || SCHEMES.to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    print_speedup_figure("Figure 15: AlexNet Speedup on FPGA", layers, &SCHEMES, &[]);
    dump_json("fig15_alexnet_fpga", layers, &SCHEMES);
}
