//! Regenerates Figure 7: AlexNet speedups over Dense for all eight schemes.
//! As in the paper, SCNN-family means exclude Layer0 (non-unit stride).

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_speedup_figure, LayerResult};
use sparten::nn::alexnet;
use sparten::sim::Scheme;

/// The per-layer description the harness parallelizes.
pub fn figure() -> NetworkFigure {
    NetworkFigure {
        network: alexnet,
        config: network_config,
        schemes: || Scheme::all().to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    let schemes = Scheme::all();
    let excl: &[&str] = &["Layer0"];
    print_speedup_figure(
        "Figure 7: AlexNet Speedup (normalized to Dense)",
        layers,
        &schemes,
        &[
            ("SCNN", excl),
            ("SCNN-one-sided", excl),
            ("SCNN-dense", excl),
        ],
    );
    dump_json("fig7_alexnet_speedup", layers, &schemes);
}
