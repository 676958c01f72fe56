//! Regenerates Figure 10: AlexNet execution-time breakdown, normalized to
//! Dense. Layer0 is omitted (SCNN's non-unit-stride pathology, §5.2).

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_breakdown_figure, LayerResult};
use sparten::nn::alexnet;
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
        network: alexnet,
        config: network_config,
        schemes: || SCHEMES.to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    print_breakdown_figure(
        "Figure 10: AlexNet Execution Time Breakdown",
        layers,
        &SCHEMES,
        &["Layer0"],
    );
    dump_json("fig10_alexnet_breakdown", layers, &SCHEMES);
}
