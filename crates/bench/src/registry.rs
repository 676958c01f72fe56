//! The experiment registry: every figure, table, sweep, and ablation of
//! the reproduction as a named, schedulable job.
//!
//! The orchestration harness (`sparten-harness`) consumes this list to
//! build its job graph. Each entry either runs as one unit
//! ([`Runner::Whole`]) or — for the per-network figures, the expensive
//! majority of the evaluation — exposes per-layer points
//! ([`Runner::PerLayer`]) that independent workers simulate concurrently
//! and a deterministic render step recombines in layer order.

use crate::experiments::{run_layer, run_layer_telemetry, LayerResult};
use crate::exps;
use sparten::nn::Network;
use sparten::sim::{Scheme, SimConfig, SimResult};
use sparten::telemetry::Telemetry;

/// What kind of artifact an experiment regenerates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentKind {
    /// A numbered paper figure.
    Figure,
    /// A numbered paper table.
    Table,
    /// A parameter sweep beyond the paper's figures.
    Sweep,
    /// A design-ablation study.
    Ablation,
    /// A supporting study or report.
    Study,
    /// The simulator-vs-engine validation battery.
    Validation,
}

impl ExperimentKind {
    /// Short lowercase label for CLI listings.
    pub fn label(self) -> &'static str {
        match self {
            ExperimentKind::Figure => "figure",
            ExperimentKind::Table => "table",
            ExperimentKind::Sweep => "sweep",
            ExperimentKind::Ablation => "ablation",
            ExperimentKind::Study => "study",
            ExperimentKind::Validation => "validation",
        }
    }
}

/// A figure computed layer-by-layer over one benchmark network.
#[derive(Clone, Copy)]
pub struct NetworkFigure {
    /// Builds the benchmark network.
    pub network: fn() -> Network,
    /// Chooses the simulation configuration for the network.
    pub config: fn(&Network) -> SimConfig,
    /// The schemes this figure compares, in plotting order.
    pub schemes: fn() -> Vec<Scheme>,
    /// Renders the final figure (table + JSON artifact) from per-layer
    /// results in layer order.
    pub render: fn(&[LayerResult]),
}

impl NetworkFigure {
    /// Number of independent per-layer points.
    pub fn num_points(&self) -> usize {
        (self.network)().layers.len()
    }

    /// Simulates point `i` (one layer across all of this figure's schemes).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn compute_point(&self, i: usize) -> LayerResult {
        let net = (self.network)();
        let cfg = (self.config)(&net);
        run_layer(&net.layers[i], &(self.schemes)(), &cfg)
    }

    /// [`compute_point`](Self::compute_point) with telemetry: counters and
    /// timeline spans for every scheme land in `session`, reconciled
    /// exactly against the returned breakdowns.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range or a scheme's counters fail to
    /// reconcile (an instrumentation bug).
    pub fn compute_point_telemetry(&self, i: usize, session: &Telemetry) -> LayerResult {
        let net = (self.network)();
        let cfg = (self.config)(&net);
        run_layer_telemetry(&net.layers[i], &(self.schemes)(), &cfg, session)
    }

    /// The cache-key fingerprint shared by all of this figure's points:
    /// network, per-layer specs, schemes, and simulation config.
    pub fn fingerprint(&self) -> String {
        let net = (self.network)();
        let cfg = (self.config)(&net);
        let schemes: Vec<&str> = (self.schemes)().iter().map(|s| s.label()).collect();
        let layers: Vec<String> = net
            .layers
            .iter()
            .map(|l| {
                format!(
                    "{}:{}x{}x{}k{}n{}s{}p{}@{}/{}",
                    l.name,
                    l.shape.in_channels,
                    l.shape.in_height,
                    l.shape.in_width,
                    l.shape.kernel,
                    l.shape.num_filters,
                    l.shape.stride,
                    l.shape.pad,
                    l.input_density,
                    l.filter_density,
                )
            })
            .collect();
        format!(
            "net={} layers=[{}] schemes=[{}] cfg={}",
            net.name,
            layers.join(","),
            schemes.join(","),
            cfg.fingerprint(),
        )
    }
}

/// How an experiment executes.
#[derive(Clone, Copy)]
pub enum Runner {
    /// One indivisible job.
    Whole(fn()),
    /// One job per network layer plus a deterministic render step.
    PerLayer(NetworkFigure),
}

/// One registered experiment.
#[derive(Clone, Copy)]
pub struct ExperimentSpec {
    /// Unique name; the `results/` basename of its output.
    pub name: &'static str,
    /// Artifact kind.
    pub kind: ExperimentKind,
    /// Names of experiments whose *output* must be finalized first. These
    /// are reporting-order dependencies (summaries read like the paper when
    /// they come after the figures they summarize); the scheduler runs a
    /// job only when all of its dependencies have rendered.
    pub deps: &'static [&'static str],
    /// How to execute it.
    pub runner: Runner,
}

/// Serializes a [`LayerResult`] to the cache's record format: one
/// [`SimResult::to_record`] line per scheme.
pub fn layer_record(layer: &LayerResult) -> String {
    let mut out = String::new();
    for r in &layer.results {
        out.push_str(&r.to_record());
        out.push('\n');
    }
    out
}

/// Parses a [`layer_record`] blob back, attaching the layer `name` (known
/// statically from the network spec). Returns `None` on any malformed line
/// — the harness treats that as a cache miss.
pub fn layer_from_record(name: &'static str, blob: &str) -> Option<LayerResult> {
    let results: Option<Vec<SimResult>> = blob
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(SimResult::from_record)
        .collect();
    let results = results?;
    if results.is_empty() {
        return None;
    }
    Some(LayerResult {
        layer: name,
        results,
    })
}

macro_rules! whole {
    ($name:ident, $kind:expr) => {
        whole!($name, $kind, &[])
    };
    ($name:ident, $kind:expr, $deps:expr) => {
        ExperimentSpec {
            name: stringify!($name),
            kind: $kind,
            deps: $deps,
            runner: Runner::Whole(exps::$name::run),
        }
    };
}

macro_rules! per_layer {
    ($name:ident, $deps:expr) => {
        ExperimentSpec {
            name: stringify!($name),
            kind: ExperimentKind::Figure,
            deps: $deps,
            runner: Runner::PerLayer(exps::$name::figure()),
        }
    };
}

/// Every experiment in the reproduction, in the paper's presentation
/// order (which is also the harness's deterministic reporting order).
pub fn all_experiments() -> Vec<ExperimentSpec> {
    use ExperimentKind as K;
    vec![
        whole!(table1_design_goals, K::Table),
        whole!(table2_hw_params, K::Table),
        whole!(table3_benchmarks, K::Table),
        per_layer!(fig7_alexnet_speedup, &[]),
        per_layer!(fig8_googlenet_speedup, &[]),
        per_layer!(fig9_vggnet_speedup, &[]),
        per_layer!(fig10_alexnet_breakdown, &[]),
        per_layer!(fig11_googlenet_breakdown, &[]),
        per_layer!(fig12_vggnet_breakdown, &[]),
        whole!(fig13_energy, K::Figure),
        whole!(fig14_gb_impact, K::Figure),
        per_layer!(fig15_alexnet_fpga, &[]),
        per_layer!(fig16_googlenet_fpga, &[]),
        per_layer!(fig17_vggnet_fpga, &[]),
        whole!(table4_asic, K::Table),
        whole!(sweep_density, K::Sweep),
        whole!(sweep_scaling, K::Sweep),
        whole!(ablation_bisection, K::Ablation),
        whole!(ablation_chunk_size, K::Ablation),
        whole!(ablation_collocation, K::Ablation),
        whole!(ablation_collocation_depth, K::Ablation),
        whole!(buffering_study, K::Study),
        whole!(stride_study, K::Study),
        whole!(scnn_tile_search, K::Study),
        whole!(hpc_crossover, K::Study),
        whole!(accuracy_proxy, K::Study),
        whole!(energy_components, K::Study, &["fig13_energy"]),
        whole!(
            perf_per_joule,
            K::Study,
            &["fig7_alexnet_speedup", "fig13_energy"]
        ),
        whole!(utilization_report, K::Study),
        whole!(related_work, K::Study),
        whole!(validate, K::Validation),
        whole!(
            summary_headline,
            K::Study,
            &[
                "fig7_alexnet_speedup",
                "fig8_googlenet_speedup",
                "fig9_vggnet_speedup"
            ]
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_deps_resolve() {
        let exps = all_experiments();
        let names: std::collections::HashSet<_> = exps.iter().map(|e| e.name).collect();
        assert_eq!(names.len(), exps.len(), "duplicate experiment names");
        for e in &exps {
            for d in e.deps {
                assert!(names.contains(d), "{}: unknown dep {d}", e.name);
                assert_ne!(d, &e.name, "{}: self-dependency", e.name);
            }
        }
    }

    #[test]
    fn registry_covers_every_results_file() {
        // Each job's stdout is committed as results/<name>.txt, and every
        // committed results/*.txt is some job's stdout.
        let results = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
        let mut goldens: Vec<String> = std::fs::read_dir(&results)
            .expect("results/ is readable")
            .map(|e| e.expect("results/ entry").path())
            .filter(|p| p.extension().is_some_and(|x| x == "txt"))
            .map(|p| p.file_stem().unwrap().to_string_lossy().into_owned())
            .collect();
        goldens.sort();
        let mut names: Vec<&str> = all_experiments().iter().map(|e| e.name).collect();
        names.sort();
        assert_eq!(names.len(), 32);
        assert_eq!(goldens, names);
    }

    #[test]
    fn per_layer_figures_have_points_and_stable_fingerprints() {
        for e in all_experiments() {
            if let Runner::PerLayer(f) = e.runner {
                assert!(f.num_points() > 0, "{}", e.name);
                assert_eq!(f.fingerprint(), f.fingerprint(), "{}", e.name);
            }
        }
    }

    #[test]
    fn layer_record_roundtrips() {
        let exps = all_experiments();
        let fig = exps
            .iter()
            .find_map(|e| match e.runner {
                Runner::PerLayer(f) => Some(f),
                _ => None,
            })
            .expect("a per-layer figure exists");
        let l = fig.compute_point(0);
        let back = layer_from_record(l.layer, &layer_record(&l)).expect("parses");
        assert_eq!(back.layer, l.layer);
        assert_eq!(back.results, l.results);
        assert!(layer_from_record("x", "garbage").is_none());
        assert!(layer_from_record("x", "").is_none());
    }
}
