//! Regenerates Figure 8: GoogLeNet speedups over Dense (small config).

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_speedup_figure, LayerResult};
use sparten::nn::googlenet;
use sparten::sim::Scheme;

/// The per-layer description the harness parallelizes.
pub fn figure() -> NetworkFigure {
    NetworkFigure {
        network: googlenet,
        config: network_config,
        schemes: || Scheme::all().to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    let schemes = Scheme::all();
    print_speedup_figure(
        "Figure 8: GoogLeNet Speedup (normalized to Dense)",
        layers,
        &schemes,
        &[],
    );
    dump_json("fig8_googlenet_speedup", layers, &schemes);
}
