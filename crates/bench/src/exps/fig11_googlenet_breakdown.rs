//! Regenerates Figure 11: GoogLeNet execution-time breakdown.

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_breakdown_figure, LayerResult};
use sparten::nn::googlenet;
use sparten::sim::Scheme;

const SCHEMES: [Scheme; 6] = [
    Scheme::Dense,
    Scheme::OneSided,
    Scheme::SpartenNoGb,
    Scheme::SpartenGbS,
    Scheme::SpartenGbH,
    Scheme::Scnn,
];

/// The per-layer description the harness parallelizes.
pub fn figure() -> NetworkFigure {
    NetworkFigure {
        network: googlenet,
        config: network_config,
        schemes: || SCHEMES.to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    print_breakdown_figure(
        "Figure 11: GoogLeNet Execution Time Breakdown",
        layers,
        &SCHEMES,
        &[],
    );
    dump_json("fig11_googlenet_breakdown", layers, &SCHEMES);
}
