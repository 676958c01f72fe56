//! Regenerates Figure 9: VGGNet speedups over Dense. As in the paper, the
//! mean excludes Layer0 (dense 3-channel input hurts SparTen there).

use crate::registry::NetworkFigure;
use crate::{dump_json, network_config, print_speedup_figure, LayerResult};
use sparten::nn::vggnet;
use sparten::sim::Scheme;

/// The per-layer description the harness parallelizes.
pub fn figure() -> NetworkFigure {
    NetworkFigure {
        network: vggnet,
        config: network_config,
        schemes: || Scheme::all().to_vec(),
        render,
    }
}

fn render(layers: &[LayerResult]) {
    let schemes = Scheme::all();
    let excl: &[&str] = &["Layer0"];
    print_speedup_figure(
        "Figure 9: VGGNet Speedup (normalized to Dense)",
        layers,
        &schemes,
        &[
            ("One-sided", excl),
            ("SparTen-no-GB", excl),
            ("SparTen-GB-S", excl),
            ("SparTen", excl),
            ("SCNN", excl),
            ("SCNN-one-sided", excl),
            ("SCNN-dense", excl),
        ],
    );
    dump_json("fig9_vggnet_speedup", layers, &schemes);
}
