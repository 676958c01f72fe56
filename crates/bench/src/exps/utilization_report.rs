//! Utilization report: the §3.3 motivation, measured on Table 3.
//!
//! The paper motivates greedy balancing with ResNet-152 filters whose
//! no-balancing utilization "would vary from 52% to 65% at best". This
//! report computes the same quantity — useful MAC cycles over
//! barrier-bounded cycles — for every Table 3 layer under no GB, GB-S, and
//! GB-H, read back from the telemetry counters the chunk tracer records
//! (`trace.useful_slots` / `trace.barrier_slots`) rather than from ad-hoc
//! accumulators, with the across-layer spread tracked by a high/low-water
//! gauge.

use crate::{network_config, print_table, SEED};
use sparten::core::balance::BalanceMode;
use sparten::nn::all_networks;
use sparten::nn::generate::Workload;
use sparten::sim::{trace_cluster, MaskModel, SimConfig};
use sparten::telemetry::Telemetry;

/// Traces one (layer, mode) pair into a fresh telemetry session and reads
/// the utilization off its counters. The ratio equals
/// `ClusterTraceLog::utilization` exactly: both divide the same u64 slot
/// totals (a fully idle trace counts as 100%, matching the log).
fn traced_utilization(w: &Workload, model: &MaskModel, cfg: &SimConfig, mode: BalanceMode) -> f64 {
    let tel = Telemetry::new();
    trace_cluster(w, model, cfg, mode, 4, Some(&tel));
    let snap = tel.metrics.snapshot();
    let sum_suffix = |suffix: &str| -> u64 {
        snap.entries
            .iter()
            .filter_map(|(name, value)| match value {
                sparten::telemetry::MetricValue::Counter(c) if name.ends_with(suffix) => Some(*c),
                _ => None,
            })
            .sum()
    };
    let useful = sum_suffix("/trace.useful_slots");
    let barrier = sum_suffix("/trace.barrier_slots");
    if barrier == 0 {
        1.0
    } else {
        useful as f64 / barrier as f64
    }
}

pub fn run() {
    crate::outln!("== Compute-unit utilization at the chunk barriers (first 4 positions/layer) ==\n");
    let spread = Telemetry::new();
    let no_gb = spread.metrics.gauge("report/utilization.no_gb");
    let mut rows = Vec::new();
    for net in all_networks() {
        let cfg: SimConfig = network_config(&net);
        for spec in &net.layers {
            let w = spec.workload(SEED);
            let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
            let utils: Vec<f64> = [BalanceMode::None, BalanceMode::GbS, BalanceMode::GbH]
                .iter()
                .map(|&mode| traced_utilization(&w, &model, &cfg, mode))
                .collect();
            no_gb.observe(utils[0]);
            rows.push(vec![
                net.name.to_string(),
                spec.name.to_string(),
                format!("{:.0}%", utils[0] * 100.0),
                format!("{:.0}%", utils[1] * 100.0),
                format!("{:.0}%", utils[2] * 100.0),
            ]);
        }
    }
    print_table(&["Network", "Layer", "no GB", "GB-S", "GB-H"], &rows);
    crate::outln!(
        "\nwithout GB, utilization spans {:.0}%–{:.0}% across layers",
        no_gb.lo().unwrap_or(1.0) * 100.0,
        no_gb.hi().unwrap_or(0.0) * 100.0
    );
    crate::outln!("(the paper quotes 52%–65% for its ResNet-152 filter collection)");
}
