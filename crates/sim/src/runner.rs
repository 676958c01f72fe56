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
use crate::dense::simulate_dense;
use crate::probe::reconcile_and_merge;
use crate::scnn::{simulate_scnn, ScnnVariant};
use crate::sparten::{layer_balance, simulate_sparten_pass, Run, Sparsity};
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
}

/// Simulates every scheme in `schemes` on one layer, in order: the one
/// place a [`Scheme`] meets its simulator.
///
/// The SparTen-family schemes (One-sided, no-GB, GB-S, GB-H) share one
/// pass over the output positions, which computes each (position, filter,
/// chunk) join once for all of them and stores the layer's MAC total in
/// `model`; Dense and the SCNN variants run after it and read that total.
/// Scheme `i` records into `sessions[i]` when `sessions` is not empty, and
/// every scheme runs with `fault` injected when there is one.
fn simulate(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    schemes: &[Scheme],
    sessions: &[Telemetry],
    fault: Option<&UnitFaultSpec>,
) -> Vec<Result<SimResult, SimError>> {
    let runs = schemes
        .iter()
        .enumerate()
        .filter_map(|(i, &scheme)| {
            let (sparsity, mode) = match scheme {
                Scheme::OneSided => (Sparsity::OneSided, BalanceMode::None),
                Scheme::SpartenNoGb => (Sparsity::TwoSided, BalanceMode::None),
                Scheme::SpartenGbS => (Sparsity::TwoSided, BalanceMode::GbS),
                Scheme::SpartenGbH => (Sparsity::TwoSided, BalanceMode::GbH),
                Scheme::Dense | Scheme::Scnn | Scheme::ScnnOneSided | Scheme::ScnnDense => {
                    return None
                }
            };
            let balance = layer_balance(workload, config, sparsity, mode);
            Some(Run::new(
                model,
                config,
                sparsity,
                balance,
                sessions.get(i),
                fault,
            ))
        })
        .collect();
    let mut pass = simulate_sparten_pass(workload, model, config, runs).into_iter();
    schemes
        .iter()
        .enumerate()
        .map(|(i, &scheme)| {
            let tel = sessions.get(i);
            let scnn = |variant| simulate_scnn(workload, model, config, variant, tel, fault);
            match scheme {
                Scheme::Dense => Ok(simulate_dense(workload, model, config, tel)),
                Scheme::OneSided
                | Scheme::SpartenNoGb
                | Scheme::SpartenGbS
                | Scheme::SpartenGbH => pass
                    .next()
                    .expect("the pass timed every SparTen-family scheme"),
                Scheme::Scnn => scnn(ScnnVariant::Full),
                Scheme::ScnnOneSided => scnn(ScnnVariant::OneSided),
                Scheme::ScnnDense => scnn(ScnnVariant::Dense),
            }
        })
        .collect()
}

/// Simulates one layer workload on one scheme, reusing a prebuilt mask
/// model (share the model across schemes — it caches the true MAC count).
pub fn simulate_layer(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
) -> SimResult {
    try_simulate_layer(workload, model, config, scheme, None)
        .expect("fault-free simulation cannot fail")
}

/// Fallible [`simulate_layer`]: simulates with an optional injected compute
/// unit fault and surfaces detection as a typed [`SimError`] instead of a
/// panic. With `fault: None` this is exactly `Ok(simulate_layer(..))`.
///
/// Fault targeting follows the scheme's unit topology: SparTen-family
/// schemes interpret `fault.cluster`/`fault.unit` directly; SCNN variants
/// treat `fault.cluster` as the flat PE index (`fault.unit` is ignored);
/// the Dense scheme has no sparse compute units to perturb, so faults are
/// documented no-ops there. A slow victim stretches only its latency at
/// each barrier: work counts and the accounting identity are unchanged,
/// and the lost time shows up as barrier idle. A stuck victim holding any
/// non-zero work fails the layer with [`SimError::StuckUnit`].
pub fn try_simulate_layer(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
    fault: Option<&UnitFaultSpec>,
) -> Result<SimResult, SimError> {
    simulate(workload, model, config, &[scheme], &[], fault).remove(0)
}

/// Simulates one layer workload on every scheme in `schemes`, returning
/// the results in the same order; each equals [`simulate_layer`]'s.
///
/// The SparTen-family schemes share one pass over the layer. With
/// `telemetry: Some((session, track_prefix))`, each scheme records into a
/// fresh local session; after the pass, each local session's stall and
/// work counters are checked to reconcile *exactly* with its scheme's
/// breakdown (`nonzero + zero + intra + inter == compute_cycles × units`),
/// and only then folded into `session` in scheme order (Perfetto tracks
/// prefixed with `track_prefix`, e.g. `"conv1:"`). The merged session is
/// the one tracing each scheme on its own would build, and the
/// local-session-then-merge dance keeps the invariant exact even when many
/// layers record into one shared session from worker threads.
pub fn simulate_schemes(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    schemes: &[Scheme],
    telemetry: Option<(&Telemetry, &str)>,
) -> Result<Vec<SimResult>, ReconcileError> {
    let locals: Vec<Telemetry> = match telemetry {
        Some(_) => schemes.iter().map(|_| Telemetry::new()).collect(),
        None => Vec::new(),
    };
    let results: Vec<SimResult> = simulate(workload, model, config, schemes, &locals, None)
        .into_iter()
        .map(|r| r.expect("fault-free simulation cannot fail"))
        .collect();
    if let Some((session, track_prefix)) = telemetry {
        for (local, result) in locals.into_iter().zip(&results) {
            reconcile_and_merge(local, result, session, track_prefix)?;
        }
    }
    Ok(results)
}

/// [`simulate_layer`] with telemetry: a traced [`simulate_schemes`] on one
/// scheme.
pub fn simulate_layer_telemetry(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    scheme: Scheme,
    session: &Telemetry,
    track_prefix: &str,
) -> Result<SimResult, ReconcileError> {
    let telemetry = Some((session, track_prefix));
    Ok(simulate_schemes(workload, model, config, &[scheme], telemetry)?.remove(0))
}

/// Generates a Table 3 layer's synthetic workload and simulates it.
pub fn simulate_spec(spec: &LayerSpec, config: &SimConfig, scheme: Scheme, seed: u64) -> SimResult {
    let workload = spec.workload(seed);
    let model = MaskModel::new(&workload, config.accel.cluster.chunk_size);
    simulate_layer(&workload, &model, config, scheme)
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
    fn labels_are_unique() {
        let labels: std::collections::HashSet<_> =
            Scheme::all().iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), 8);
    }
}
