//! Buffering study: "No amount of buffering would address this systematic
//! load imbalance" (§2.1.1/§3.3), tested mechanically.
//!
//! Sweeps the broadcast-buffer depth from the strict per-chunk barrier
//! (B = 1) to unbounded run-ahead, with and without greedy balancing, on an
//! AlexNet-Layer2-shaped layer. Buffering smooths chunk-level noise but
//! converges to the densest unit's total work; GB-H at even B = 1 beats
//! no-GB at B = ∞.

use sparten::core::balance::BalanceMode;
use sparten::nn::alexnet;
use sparten::sim::{simulate_buffered, BufferDepth, MaskModel, SimConfig};
use crate::{print_table, SEED};

pub fn run() {
    crate::outln!("== Buffering vs greedy balancing (AlexNet Layer2) ==\n");
    let net = alexnet();
    let spec = net.layer("Layer2").expect("Layer2 exists");
    let w = spec.workload(SEED);
    let cfg = SimConfig::large();
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);

    let depths = [
        ("B=1 (barrier)", BufferDepth::Bounded(1)),
        ("B=2 (double)", BufferDepth::Bounded(2)),
        ("B=4", BufferDepth::Bounded(4)),
        ("B=16", BufferDepth::Bounded(16)),
        ("B=inf", BufferDepth::Unbounded),
    ];
    let modes = [BalanceMode::None, BalanceMode::GbS, BalanceMode::GbH];
    // Every (mode, depth) run is timed from one pass over the layer.
    let runs: Vec<_> = depths
        .iter()
        .flat_map(|&(_, depth)| modes.map(|mode| (mode, depth)))
        .collect();
    let results = simulate_buffered(&w, &model, &cfg, &runs);
    let result = |mode, depth| {
        let i = runs.iter().position(|&run| run == (mode, depth));
        &results[i.expect("every reported run is timed")]
    };
    let mut rows = Vec::new();
    for (label, depth) in depths {
        let mut row = vec![label.to_string()];
        for mode in modes {
            let r = result(mode, depth);
            row.push(format!(
                "{} ({:.0}%)",
                r.compute_cycles,
                r.breakdown_fractions()[0] * 100.0
            ));
        }
        rows.push(row);
    }
    print_table(
        &["buffer depth", "no GB cycles (util)", "GB-S", "GB-H"],
        &rows,
    );

    let no_gb_inf = result(BalanceMode::None, BufferDepth::Unbounded);
    let gbh_b1 = result(BalanceMode::GbH, BufferDepth::Bounded(1));
    crate::outln!(
        "\nGB-H with a strict barrier ({} cycles) beats no-GB with infinite \
         buffering ({} cycles): the imbalance is systematic, as §3.3 argues.",
        gbh_b1.compute_cycles, no_gb_inf.compute_cycles
    );
}
