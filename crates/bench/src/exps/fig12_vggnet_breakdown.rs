//! Regenerates Figure 12: VGGNet execution-time breakdown (Layer0 has high
//! intra-cluster loss from the shallow 3-channel input, as §5.2 notes).

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_breakdown_figure, LayerResult};
use sparten::nn::vggnet;
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
        network: vggnet,
        config: network_config,
        schemes: || SCHEMES.to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    print_breakdown_figure(
        "Figure 12: VGGNet Execution Time Breakdown",
        layers,
        &SCHEMES,
        &[],
    );
    dump_json("fig12_vggnet_breakdown", layers, &SCHEMES);
}
