//! High-level simulation entry points: one call per (layer, scheme), or
//! per layer for a list of schemes.

use sparten_core::balance::BalanceMode;
use sparten_core::SimError;
use sparten_faults::UnitFaultSpec;
use sparten_nn::generate::Workload;
use sparten_nn::LayerSpec;
use sparten_telemetry::{ReconcileError, Telemetry};

use crate::breakdown::SimResult;
use crate::config::SimConfig;
use crate::dense::{simulate_dense, simulate_dense_telemetry};
use crate::probe::reconcile_and_merge;
use crate::scnn::{simulate_scnn, simulate_scnn_faulted, simulate_scnn_telemetry, ScnnVariant};
use crate::sparten::{
    layer_balance, simulate_sparten, simulate_sparten_faulted, simulate_sparten_pass,
    simulate_sparten_telemetry, Run, Sparsity,
};
use crate::workmodel::MaskModel;

/// The eight architectures compared in §5.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// TPU-like dense accelerator.
    Dense,
    /// Feature-map-only sparsity on the SparTen datapath (Cnvlutin proxy).
    OneSided,
    /// Two-sided SparTen without greedy balancing.
    SpartenNoGb,
    /// SparTen with software-only greedy balancing.
    SpartenGbS,
    /// SparTen with hybrid greedy balancing (the full design).
    SpartenGbH,
    /// SCNN with two-sided sparsity.
    Scnn,
    /// SCNN restricted to input-map sparsity (sanity variant).
    ScnnOneSided,
    /// SCNN with dense tensors (sanity variant).
    ScnnDense,
}

impl Scheme {
    /// All schemes in the paper's plotting order.
    pub fn all() -> [Scheme; 8] {
        [
            Scheme::Dense,
            Scheme::OneSided,
            Scheme::SpartenNoGb,
            Scheme::SpartenGbS,
            Scheme::SpartenGbH,
            Scheme::Scnn,
            Scheme::ScnnOneSided,
            Scheme::ScnnDense,
        ]
    }

    /// The inverse of [`Scheme::label`], for rebuilding schemes from cache
    /// records and CLI filters.
    pub fn from_label(label: &str) -> Option<Scheme> {
        Scheme::all().into_iter().find(|s| s.label() == label)
    }

    /// The label used in the paper's figures.
    pub fn label(self) -> &'static str {
        match self {
            Scheme::Dense => "Dense",
            Scheme::OneSided => "One-sided",
            Scheme::SpartenNoGb => "SparTen-no-GB",
            Scheme::SpartenGbS => "SparTen-GB-S",
            Scheme::SpartenGbH => "SparTen",
            Scheme::Scnn => "SCNN",
            Scheme::ScnnOneSided => "SCNN-one-sided",
            Scheme::ScnnDense => "SCNN-dense",
        }
    }

    /// The SparTen datapath a SparTen-family scheme runs on; `None` for
    /// Dense and the SCNN variants.
    fn sparten(self) -> Option<(Sparsity, BalanceMode)> {
        match self {
            Scheme::OneSided => Some((Sparsity::OneSided, BalanceMode::None)),
            Scheme::SpartenNoGb => Some((Sparsity::TwoSided, BalanceMode::None)),
            Scheme::SpartenGbS => Some((Sparsity::TwoSided, BalanceMode::GbS)),
            Scheme::SpartenGbH => Some((Sparsity::TwoSided, BalanceMode::GbH)),
            Scheme::Dense | Scheme::Scnn | Scheme::ScnnOneSided | Scheme::ScnnDense => None,
        }
    }
}

/// Simulates one layer workload on one scheme, reusing a prebuilt mask
/// model (share the model across schemes — it caches the true MAC count).
pub fn simulate_layer(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
) -> SimResult {
    match scheme {
        Scheme::Dense => simulate_dense(workload, model, config),
        Scheme::OneSided => simulate_sparten(
            workload,
            model,
            config,
            Sparsity::OneSided,
            BalanceMode::None,
        ),
        Scheme::SpartenNoGb => simulate_sparten(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::None,
        ),
        Scheme::SpartenGbS => simulate_sparten(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::GbS,
        ),
        Scheme::SpartenGbH => simulate_sparten(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::GbH,
        ),
        Scheme::Scnn => simulate_scnn(workload, model, config, ScnnVariant::Full),
        Scheme::ScnnOneSided => simulate_scnn(workload, model, config, ScnnVariant::OneSided),
        Scheme::ScnnDense => simulate_scnn(workload, model, config, ScnnVariant::Dense),
    }
}

/// Simulates one layer workload on every scheme in `schemes`, returning
/// the results in the same order; each equals [`simulate_layer`]'s.
///
/// The SparTen-family schemes (One-sided, no-GB, GB-S, GB-H) share one
/// pass over the output positions, which computes each (position, filter,
/// chunk) join once for all of them and stores the layer's MAC total in
/// `model` for the other schemes to read.
pub fn simulate_schemes(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    schemes: &[Scheme],
) -> Vec<SimResult> {
    let (slots, runs): (Vec<usize>, Vec<Run<'_>>) = schemes
        .iter()
        .enumerate()
        .filter_map(|(i, s)| {
            let (sparsity, mode) = s.sparten()?;
            let balance = layer_balance(workload, config, sparsity, mode);
            Some((i, Run::new(model, config, sparsity, balance, None, None)))
        })
        .unzip();
    let mut results: Vec<Option<SimResult>> = vec![None; schemes.len()];
    for (i, r) in slots
        .into_iter()
        .zip(simulate_sparten_pass(workload, model, config, runs))
    {
        results[i] = Some(r.expect("fault-free simulation cannot fail"));
    }
    results
        .into_iter()
        .zip(schemes)
        .map(|(r, &s)| r.unwrap_or_else(|| simulate_layer(workload, model, config, s)))
        .collect()
}

/// Fallible [`simulate_layer`]: simulates with an optional injected compute
/// unit fault and surfaces detection as a typed [`SimError`] instead of a
/// panic. With `fault: None` this is exactly `Ok(simulate_layer(..))`.
///
/// Fault targeting follows the scheme's unit topology: SparTen-family
/// schemes interpret `fault.cluster`/`fault.unit` directly; SCNN variants
/// treat `fault.cluster` as the flat PE index (`fault.unit` is ignored);
/// the Dense scheme has no sparse compute units to perturb, so faults are
/// documented no-ops there.
pub fn try_simulate_layer(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
    fault: Option<&UnitFaultSpec>,
) -> Result<SimResult, SimError> {
    let Some(fault) = fault else {
        return Ok(simulate_layer(workload, model, config, scheme));
    };
    let sparten = |sparsity, mode| {
        simulate_sparten_faulted(workload, model, config, sparsity, mode, fault, None)
    };
    let scnn = |variant| simulate_scnn_faulted(workload, model, config, variant, fault, None);
    match scheme {
        Scheme::Dense => Ok(simulate_dense(workload, model, config)),
        Scheme::OneSided => sparten(Sparsity::OneSided, BalanceMode::None),
        Scheme::SpartenNoGb => sparten(Sparsity::TwoSided, BalanceMode::None),
        Scheme::SpartenGbS => sparten(Sparsity::TwoSided, BalanceMode::GbS),
        Scheme::SpartenGbH => sparten(Sparsity::TwoSided, BalanceMode::GbH),
        Scheme::Scnn => scnn(ScnnVariant::Full),
        Scheme::ScnnOneSided => scnn(ScnnVariant::OneSided),
        Scheme::ScnnDense => scnn(ScnnVariant::Dense),
    }
}

/// Fallible [`simulate_layer_telemetry`]: same contract, but reconcile
/// failures come back as [`SimError::Invariant`] so callers can thread one
/// error type through both simulation and telemetry checks.
pub fn try_simulate_layer_telemetry(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
    session: &Telemetry,
    track_prefix: &str,
) -> Result<SimResult, SimError> {
    simulate_layer_telemetry(workload, model, config, scheme, session, track_prefix)
        .map_err(|e| SimError::invariant("telemetry reconcile", e))
}

/// [`simulate_layer`] with telemetry: runs the scheme's instrumented
/// simulator into a fresh local session, checks that the recorded stall
/// and work counters reconcile *exactly* with the returned breakdown
/// (`nonzero + zero + intra + inter == compute_cycles × units`), and only
/// then folds the session into `session` (Perfetto tracks prefixed with
/// `track_prefix`, e.g. `"conv1:"`).
///
/// The local-session-then-merge dance keeps the invariant exact even when
/// many layers record into one shared session from worker threads.
pub fn simulate_layer_telemetry(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
    session: &Telemetry,
    track_prefix: &str,
) -> Result<SimResult, ReconcileError> {
    let local = Telemetry::new();
    let tel = Some(&local);
    let result = match scheme {
        Scheme::Dense => simulate_dense_telemetry(workload, model, config, tel),
        Scheme::OneSided => simulate_sparten_telemetry(
            workload,
            model,
            config,
            Sparsity::OneSided,
            BalanceMode::None,
            tel,
        ),
        Scheme::SpartenNoGb => simulate_sparten_telemetry(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::None,
            tel,
        ),
        Scheme::SpartenGbS => simulate_sparten_telemetry(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::GbS,
            tel,
        ),
        Scheme::SpartenGbH => simulate_sparten_telemetry(
            workload,
            model,
            config,
            Sparsity::TwoSided,
            BalanceMode::GbH,
            tel,
        ),
        Scheme::Scnn => simulate_scnn_telemetry(workload, model, config, ScnnVariant::Full, tel),
        Scheme::ScnnOneSided => {
            simulate_scnn_telemetry(workload, model, config, ScnnVariant::OneSided, tel)
        }
        Scheme::ScnnDense => {
            simulate_scnn_telemetry(workload, model, config, ScnnVariant::Dense, tel)
        }
    };
    reconcile_and_merge(local, &result, session, track_prefix)?;
    Ok(result)
}

/// Generates a Table 3 layer's synthetic workload and simulates it.
pub fn simulate_spec(spec: &LayerSpec, config: &SimConfig, scheme: Scheme, seed: u64) -> SimResult {
    let workload = spec.workload(seed);
    let model = MaskModel::new(&workload, config.accel.cluster.chunk_size);
    simulate_layer(&workload, &model, config, scheme)
}

/// A mini-batch simulation: one result per image, filters held stationary
/// across the batch (§4 uses batch 16).
#[derive(Debug, Clone)]
pub struct BatchResult {
    /// Per-image results in batch order.
    pub images: Vec<SimResult>,
}

impl BatchResult {
    /// Total execution cycles across the batch (images run back to back;
    /// filters stay resident, so only per-image compute/memory repeats).
    pub fn total_cycles(&self) -> u64 {
        self.images.iter().map(SimResult::cycles).sum()
    }

    /// Relative spread of per-image cycles — how much input-sparsity
    /// variation moves the layer's runtime across a batch.
    pub fn cycle_spread(&self) -> f64 {
        let cycles: Vec<u64> = self.images.iter().map(SimResult::cycles).collect();
        let min = *cycles.iter().min().expect("non-empty batch") as f64;
        let max = *cycles.iter().max().expect("non-empty batch") as f64;
        (max - min) / max
    }
}

/// Simulates a whole mini-batch of a Table 3 layer: one filter set, `batch`
/// independent inputs at the layer's density.
pub fn simulate_spec_batch(
    spec: &LayerSpec,
    config: &SimConfig,
    scheme: Scheme,
    seed: u64,
    batch: usize,
) -> BatchResult {
    let images = sparten_nn::generate::workload_batch(
        &spec.shape,
        spec.input_density,
        spec.filter_density,
        seed,
        batch,
    )
    .iter()
    .map(|w| {
        let model = MaskModel::new(w, config.accel.cluster.chunk_size);
        simulate_layer(w, &model, config, scheme)
    })
    .collect();
    BatchResult { images }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    #[test]
    fn all_schemes_run_and_account() {
        let shape = ConvShape::new(40, 8, 8, 3, 12, 1, 1);
        let w = workload(&shape, 0.4, 0.35, 31);
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 4;
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        for scheme in Scheme::all() {
            let r = simulate_layer(&w, &m, &cfg, scheme);
            assert!(r.accounting_holds(), "{}", r.scheme);
            assert!(r.cycles() > 0, "{}", r.scheme);
        }
    }

    #[test]
    fn paper_ordering_on_a_sparse_layer() {
        // SparTen > One-sided > Dense, and SCNN > its sanity variants.
        let shape = ConvShape::new(64, 12, 12, 3, 32, 1, 1);
        let w = workload(&shape, 0.3, 0.35, 32);
        let cfg = SimConfig::small();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let cycles = |s| simulate_layer(&w, &m, &cfg, s).cycles();
        assert!(cycles(Scheme::SpartenGbH) < cycles(Scheme::OneSided));
        assert!(cycles(Scheme::OneSided) < cycles(Scheme::Dense));
        assert!(cycles(Scheme::Scnn) < cycles(Scheme::ScnnOneSided));
        assert!(cycles(Scheme::ScnnOneSided) < cycles(Scheme::ScnnDense));
    }

    #[test]
    fn batch_simulation_varies_per_image() {
        let spec = sparten_nn::LayerSpec {
            name: "test",
            shape: ConvShape::new(48, 6, 6, 3, 8, 1, 1),
            input_density: 0.3,
            filter_density: 0.35,
        };
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 4;
        let b = simulate_spec_batch(&spec, &cfg, Scheme::SpartenGbH, 7, 4);
        assert_eq!(b.images.len(), 4);
        assert!(b.total_cycles() > b.images[0].cycles());
        // Input sparsity varies per image, so cycles should too (a little).
        assert!(b.cycle_spread() > 0.0);
        assert!(b.cycle_spread() < 0.5);
    }

    #[test]
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Scheme::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 8);
    }
}
