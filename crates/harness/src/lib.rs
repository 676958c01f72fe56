#![warn(missing_docs)]

//! Parallel experiment orchestration for the SparTen reproduction.
//!
//! The evaluation consists of 32 figures, tables, sweeps, and ablations,
//! all run by one harness:
//!
//! * every experiment is an [`Experiment`] — a named, parameterized job
//!   with declared dependencies and one or more independent *points*
//!   (per-layer figures expose one point per network layer);
//! * a worker-pool executor ([`executor::run`]) runs independent jobs and
//!   independent points concurrently on `--jobs` threads, while emitting
//!   per-job output in a deterministic order (the registry's paper order)
//!   regardless of worker interleaving;
//! * a content-addressed cache ([`cache::Cache`]) under `results/cache/`
//!   skips every point whose key — experiment name, configuration
//!   fingerprint, seed, point index, format version — was already
//!   computed, so re-runs are incremental and interrupted sweeps resume;
//! * one CLI (`cargo run -p sparten-harness -- run ...`) runs any subset
//!   and prints a per-job wall-time/cache-hit summary.
//!
//! Experiments route output through `sparten_bench`'s capturable sink, so
//! a job's output is the same bytes whether its points were computed or
//! replayed from the cache; a full run reproduces every committed
//! `results/*.txt` and `results/*.json`. The CLI also hosts the seeded
//! campaigns, whose trial bodies live in [`faults`], [`chaos`], and
//! [`diskchaos`] (the framework is `sparten_faults::Campaign`).

pub mod cache;
pub mod chaos;
pub mod diskchaos;
pub mod dse;
pub mod events;
pub mod executor;
pub mod faults;
pub mod fsck;
pub mod journal;
pub mod serve;
pub mod signal;

use sparten_bench::registry::{layer_from_record, layer_record, NetworkFigure, Runner};
use sparten_bench::{all_experiments, begin_capture, end_capture, Capture, ExperimentKind};
use sparten_telemetry::Telemetry;
use std::sync::Arc;

/// The global workload seed (re-exported from the bench crate so cache
/// keys and experiment code can never disagree on it).
pub use sparten_bench::SEED;

/// What one experiment point computes; this is the unit the cache stores.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PointPayload {
    /// A serialized per-layer result (one `SimResult` record per line).
    Record(String),
    /// A whole experiment's captured output: stdout text plus artifacts.
    Capture(Capture),
}

/// A named, parameterized, schedulable job with independent points.
///
/// Implementations must be deterministic: the same fingerprint and seed
/// must produce bit-identical payloads on every run, which is what makes
/// the content-addressed cache sound.
pub trait Experiment: Send + Sync {
    /// Unique name (the `results/` basename of its output).
    fn name(&self) -> &'static str;

    /// Artifact kind (figure, table, sweep, ...).
    fn kind(&self) -> ExperimentKind;

    /// Names of experiments that must *finish* before this one starts.
    /// These are reporting-order dependencies; see the registry.
    fn deps(&self) -> &'static [&'static str];

    /// Number of independent points (≥ 1). Points may run concurrently on
    /// different workers in any order.
    fn num_points(&self) -> usize;

    /// Everything that determines this experiment's results besides the
    /// global seed: network, layer shapes, densities, schemes, simulator
    /// configuration. Part of the cache key.
    fn fingerprint(&self) -> String;

    /// Computes point `point` (called on a worker thread).
    fn compute_point(&self, point: usize) -> PointPayload;

    /// Computes point `point` with telemetry: the payload plus a per-point
    /// [`Telemetry`] session the executor merges (in point order) into one
    /// per-job session and exports under `results/telemetry/`.
    ///
    /// The default delegates to [`compute_point`](Self::compute_point) and
    /// records nothing — experiments whose compute path is not
    /// instrumented still run under `--telemetry`, they just contribute
    /// only the harness's own job-level metrics.
    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        (self.compute_point(point), None)
    }

    /// Whether a cached payload is usable for `point`. The executor treats
    /// `false` as a cache miss and recomputes.
    fn validate(&self, point: usize, payload: &PointPayload) -> bool {
        let _ = (point, payload);
        true
    }

    /// Combines all points (in point order) into the experiment's final
    /// output. Called once on the scheduler thread; must be cheap.
    fn render(&self, points: &[PointPayload]) -> Capture;
}

/// A single-shot experiment: one point that is the whole job.
struct WholeJob {
    name: &'static str,
    kind: ExperimentKind,
    deps: &'static [&'static str],
    run: fn(),
}

impl Experiment for WholeJob {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        self.kind
    }

    fn deps(&self) -> &'static [&'static str] {
        self.deps
    }

    fn num_points(&self) -> usize {
        1
    }

    fn fingerprint(&self) -> String {
        // Single-shot experiments carry their parameters in code, so the
        // fingerprint only pins the name; semantic changes are invalidated
        // by bumping the cache format version (see DESIGN.md).
        format!("whole:{}", self.name)
    }

    fn compute_point(&self, _point: usize) -> PointPayload {
        begin_capture();
        (self.run)();
        PointPayload::Capture(end_capture())
    }

    fn validate(&self, _point: usize, payload: &PointPayload) -> bool {
        matches!(payload, PointPayload::Capture(_))
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        match points {
            [PointPayload::Capture(c)] => c.clone(),
            _ => unreachable!("whole job has exactly one capture point"),
        }
    }
}

/// A per-layer network figure: one point per layer plus a deterministic
/// render step that recombines results in layer order.
struct PerLayerJob {
    name: &'static str,
    kind: ExperimentKind,
    deps: &'static [&'static str],
    figure: NetworkFigure,
    /// Layer names in point order, for re-attaching to cached records.
    layer_names: Vec<&'static str>,
}

impl PerLayerJob {
    fn new(
        name: &'static str,
        kind: ExperimentKind,
        deps: &'static [&'static str],
        figure: NetworkFigure,
    ) -> Self {
        let layer_names = (figure.network)().layers.iter().map(|l| l.name).collect();
        PerLayerJob {
            name,
            kind,
            deps,
            figure,
            layer_names,
        }
    }
}

impl Experiment for PerLayerJob {
    fn name(&self) -> &'static str {
        self.name
    }

    fn kind(&self) -> ExperimentKind {
        self.kind
    }

    fn deps(&self) -> &'static [&'static str] {
        self.deps
    }

    fn num_points(&self) -> usize {
        self.layer_names.len()
    }

    fn fingerprint(&self) -> String {
        self.figure.fingerprint()
    }

    fn compute_point(&self, point: usize) -> PointPayload {
        PointPayload::Record(layer_record(&self.figure.compute_point(point)))
    }

    fn compute_point_telemetry(&self, point: usize) -> (PointPayload, Option<Telemetry>) {
        let session = Telemetry::new();
        let layer = self.figure.compute_point_telemetry(point, &session);
        (PointPayload::Record(layer_record(&layer)), Some(session))
    }

    fn validate(&self, point: usize, payload: &PointPayload) -> bool {
        match payload {
            PointPayload::Record(blob) => {
                layer_from_record(self.layer_names[point], blob).is_some()
            }
            PointPayload::Capture(_) => false,
        }
    }

    fn render(&self, points: &[PointPayload]) -> Capture {
        let layers: Vec<_> = points
            .iter()
            .enumerate()
            .map(|(i, p)| match p {
                PointPayload::Record(blob) => layer_from_record(self.layer_names[i], blob)
                    .expect("validated record parses"),
                PointPayload::Capture(_) => unreachable!("per-layer points are records"),
            })
            .collect();
        begin_capture();
        (self.figure.render)(&layers);
        end_capture()
    }
}

/// The full experiment registry as schedulable jobs, in the paper's
/// presentation order (the harness's deterministic reporting order).
pub fn registry() -> Vec<Arc<dyn Experiment>> {
    all_experiments()
        .into_iter()
        .map(|spec| match spec.runner {
            Runner::Whole(f) => Arc::new(WholeJob {
                name: spec.name,
                kind: spec.kind,
                deps: spec.deps,
                run: f,
            }) as Arc<dyn Experiment>,
            Runner::PerLayer(fig) => {
                Arc::new(PerLayerJob::new(spec.name, spec.kind, spec.deps, fig))
                    as Arc<dyn Experiment>
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_jobs_mirror_bench_registry() {
        let jobs = registry();
        let specs = all_experiments();
        assert_eq!(jobs.len(), specs.len());
        for (j, s) in jobs.iter().zip(&specs) {
            assert_eq!(j.name(), s.name);
            assert!(j.num_points() >= 1);
        }
        // The nine per-network figures expose per-layer points.
        let multi = jobs.iter().filter(|j| j.num_points() > 1).count();
        assert_eq!(multi, 9);
    }

    #[test]
    fn whole_fingerprints_are_distinct() {
        let jobs = registry();
        let fps: std::collections::HashSet<_> =
            jobs.iter().map(|j| j.fingerprint()).collect();
        assert_eq!(fps.len(), jobs.len());
    }
}
