//! Extension-feature integration: the 8-bit quantized operand path on the
//! SparTen engine, and the collocation ablation.

use sparten::core::balance::BalanceMode;
use sparten::core::{AcceleratorConfig, ClusterConfig, SparTenEngine};
use sparten::nn::generate::workload;
use sparten::nn::ConvShape;
use sparten::sim::sparten::{simulate_sparten, Sparsity};
use sparten::sim::{MaskModel, SimConfig};

fn engine_config(units: usize, clusters: usize) -> AcceleratorConfig {
    AcceleratorConfig {
        cluster: ClusterConfig {
            compute_units: units,
            chunk_size: 64,
            bisection_limit: 4,
        },
        num_clusters: clusters,
    }
}

#[test]
fn quantized_workload_runs_on_the_engine_within_error_bounds() {
    use sparten::nn::{conv2d, Filter, QuantTensor};
    let shape = ConvShape::new(12, 6, 6, 3, 8, 1, 1);
    let w = workload(&shape, 0.5, 0.5, 74);
    // Quantize+dequantize both operands, run on the engine, compare to the
    // float reference within the accumulated quantization bound.
    let qi = QuantTensor::quantize(&w.input).dequantize();
    let qf: Vec<Filter> = w
        .filters
        .iter()
        .map(|f| Filter::new(QuantTensor::quantize(f.weights()).dequantize()))
        .collect();
    let qw = sparten::nn::Workload {
        input: qi,
        filters: qf,
        shape,
    };
    let engine = SparTenEngine::new(engine_config(4, 2));
    let run = engine.run_layer(&qw, BalanceMode::GbH, false);
    let reference = conv2d(&w.input, &w.filters, &shape);
    let max_ref = reference
        .as_slice()
        .iter()
        .fold(0.0f32, |a, &v| a.max(v.abs()));
    for (a, b) in run.logical_output().as_slice().iter().zip(reference.as_slice()) {
        assert!(
            (a - b).abs() < 0.08 * max_ref.max(1.0),
            "quantized engine {a} vs float reference {b}"
        );
    }
    // Quantization preserves sparsity structure → identical MAC counts.
    let float_run = engine.run_layer(&w, BalanceMode::GbH, false);
    assert_eq!(run.trace.total_macs(), float_run.trace.total_macs());
}

#[test]
fn collocation_ablation_direction() {
    // On a filter set with strong density spread, GB-S with collocation
    // beats GB-S without it (§5.1's "worse performance in most benchmarks").
    let shape = ConvShape::new(96, 8, 8, 3, 64, 1, 1);
    let w = workload(&shape, 0.3, 0.35, 13);
    let mut cfg = SimConfig::small();
    cfg.accel.num_clusters = 2;
    let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
    let with = simulate_sparten(&w, &model, &cfg, Sparsity::TwoSided, BalanceMode::GbS);
    let without = simulate_sparten(
        &w,
        &model,
        &cfg,
        Sparsity::TwoSided,
        BalanceMode::GbSNoColloc,
    );
    assert!(
        with.cycles() < without.cycles(),
        "colloc {} !< no-colloc {}",
        with.cycles(),
        without.cycles()
    );
}
