//! Figure 6, live: traces one cluster's per-chunk unit occupancy without
//! balancing and with GB-H, and renders the useful/idle strips.
//!
//! Run with: `cargo run --release -p sparten --example balance_trace`

use sparten::core::balance::BalanceMode;
use sparten::nn::generate::workload;
use sparten::nn::ConvShape;
use sparten::sim::{trace_cluster, MaskModel, SimConfig};

fn main() {
    // A high-spread filter set on a small cluster makes imbalance visible.
    // No padding, so the traced first window has no all-zero border taps.
    let shape = ConvShape::new(128, 6, 6, 3, 8, 1, 0);
    let w = workload(&shape, 0.4, 0.35, 6);
    let mut cfg = SimConfig::small();
    cfg.accel.cluster.compute_units = 4;
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);

    for mode in [BalanceMode::None, BalanceMode::GbH] {
        let log = trace_cluster(&w, &model, &cfg, mode, 1, None);
        println!(
            "== {mode:?}: utilization {:.0}% ==",
            log.utilization() * 100.0
        );
        print!("{}", log.render(3, 40));
        println!();
    }
    println!("'#' = useful MAC cycles, '.' = idle at the chunk barrier (Figure 6).");
}
