//! `figures-cold`: regenerate Figures 7–9 from an empty cache.
//!
//! One op is a cold pass of `fig7_alexnet_speedup`, `fig8_googlenet_speedup`
//! and `fig9_vggnet_speedup` through `executor::run`: every Table 3 layer
//! (5 + 12 + 13 = 30 points) under all eight schemes, on the host's cores,
//! with a fresh in-memory state store each pass. Each job's text and JSON
//! artifact must match the checkout's own `results/` byte for byte. The
//! seed has no effect: the layers come from the registry's compiled-in
//! seed 2019.
//!
//! The traced run adds a serial replay of the 30 layers that splits the
//! simulator's time by layer and scheme, with `MaskModel::total_sparse_macs`
//! timed on its own before any scheme runs (it is a `OnceLock` the first
//! scheme would otherwise be charged for), and the analytical model's
//! largest error against the pass's 240 simulated cycle counts.

use crate::cold::{self, check_cold, cold_pass, Pass};
use crate::probe::Probe;
use crate::trace::{self, SpanId, Tracer};
use crate::window::{self, SetupClock};
use crate::{host, Ctx, Golden, Report};
use sparten::model::{predict, LayerParams};
use sparten::sim::{simulate_layer, MaskModel, Scheme};
use sparten_bench::json::Json;
use sparten_bench::registry::{NetworkFigure, Runner};
use sparten_harness::executor::RunReport;
use sparten_harness::{Experiment, SEED};
use std::sync::Arc;

const JOBS: [&str; 3] = [
    "fig7_alexnet_speedup",
    "fig8_googlenet_speedup",
    "fig9_vggnet_speedup",
];

/// Set-ups timed beside each pass; `setup_s` is the median of them all.
/// A 30 s window holds about three passes.
const SETUPS_PER_PASS: usize = 16;

/// Everything before the first timed op.
pub struct Setup {
    exps: Vec<Arc<dyn Experiment>>,
    golden: Golden,
}

impl Setup {
    fn new(ctx: &Ctx, probe: &Arc<Probe>) -> Result<Setup, String> {
        let exps = sparten_harness::registry()
            .into_iter()
            .filter(|e| JOBS.contains(&e.name()))
            .collect();
        Ok(Setup {
            exps: probe.wrap(exps),
            golden: Golden::load(&ctx.root, &JOBS, &JOBS)?,
        })
    }

    /// Points per pass.
    fn points(&self) -> usize {
        self.exps.iter().map(|e| e.num_points()).sum()
    }
}

fn check(golden: &Golden, pass: &Pass) -> Result<(), String> {
    check_cold(&pass.report)?
        .jobs
        .iter()
        .try_for_each(|job| golden.check_job(job))
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new());
    let probe = Probe::new(Arc::clone(&tracer));
    let mut setups = SetupClock::default();
    let setup = setups.time(|| Setup::new(ctx, &probe))?;
    host::reset_peak_rss();
    if ctx.traced {
        return traced(ctx, &setup, &tracer, &probe);
    }
    let points = setup.points();
    let passes = window::run(ctx.window, 1, false, &tracer, &probe, |scope| {
        setups.sample(SETUPS_PER_PASS, || Setup::new(ctx, &probe))?;
        let pass = cold_pass(ctx, &setup.exps, &probe, scope.id);
        let check = check(&setup.golden, &pass);
        Ok(cold::outcome(&probe, scope.id, &pass, points, check))
    })?;
    let mut report = passes.report();
    report.set_end_to_end(&setups, &passes.plain);
    Ok(report)
}

/// The span (and metric) name of each scheme's simulation.
fn scheme_span(s: Scheme) -> &'static str {
    match s {
        Scheme::Dense => "sim.dense",
        Scheme::OneSided => "sim.onesided",
        Scheme::SpartenNoGb => "sim.sparten_nogb",
        Scheme::SpartenGbS => "sim.sparten_gbs",
        Scheme::SpartenGbH => "sim.sparten_gbh",
        Scheme::Scnn => "sim.scnn",
        Scheme::ScnnOneSided => "sim.scnn_onesided",
        Scheme::ScnnDense => "sim.scnn_dense",
    }
}

/// One replayed layer: simulated and predicted cycles per scheme.
struct Replayed {
    job: &'static str,
    layer: &'static str,
    simulated: Vec<u64>,
    predicted: Vec<u64>,
}

/// Serially replays every layer of the figures, timing each library
/// call as its own span under `root`. Returns the cycle counts and the
/// two-sided MACs × schemes simulated.
fn replay(tracer: &Tracer, root: SpanId) -> (Vec<Replayed>, u64) {
    let figures: Vec<(&'static str, NetworkFigure)> = sparten_bench::all_experiments()
        .into_iter()
        .filter_map(|spec| match spec.runner {
            Runner::PerLayer(fig) if JOBS.contains(&spec.name) => Some((spec.name, fig)),
            _ => None,
        })
        .collect();
    let (mut out, mut macs_simulated) = (Vec::new(), 0);
    for (job, fig) in figures {
        let net = (fig.network)();
        let config = (fig.config)(&net);
        let schemes = (fig.schemes)();
        for spec in &net.layers {
            let id = out.len() as u64;
            let layer = tracer.open("replay.layer", Some(root), id);
            let workload = tracer.time("nn.workload", Some(layer), id, || spec.workload(SEED));
            let chunk = config.accel.cluster.chunk_size;
            let mask = tracer.time("sim.maskmodel", Some(layer), id, || {
                MaskModel::new(&workload, chunk)
            });
            let macs = tracer.time("sim.total_macs", Some(layer), id, || {
                mask.total_sparse_macs()
            });
            let simulated = schemes
                .iter()
                .map(|&s| {
                    tracer.time(scheme_span(s), Some(layer), id, || {
                        simulate_layer(&workload, &mask, &config, s).cycles()
                    })
                })
                .collect();
            tracer.close(layer);
            macs_simulated += macs * schemes.len() as u64;
            let params = LayerParams::from_measurement(spec.shape, &mask.measure());
            let predicted = schemes
                .iter()
                .map(|&s| predict(&params, &config, s).cycles())
                .collect();
            out.push(Replayed {
                job,
                layer: spec.name,
                simulated,
                predicted,
            });
        }
    }
    (out, macs_simulated)
}

/// Simulated cycles per `(layer, scheme)` from a figure's JSON artifact.
fn artifact_cycles(json: &str) -> Result<Vec<(String, Vec<u64>)>, String> {
    let rows = Json::parse(json).map_err(|e| format!("figure artifact: {e}"))?;
    rows.as_arr()
        .ok_or("figure artifact is not an array")?
        .iter()
        .map(|row| {
            let layer = row
                .get("layer")
                .and_then(Json::as_str)
                .ok_or("row without layer")?;
            let cycles = row
                .get("results")
                .and_then(Json::as_arr)
                .ok_or("row without results")?
                .iter()
                .map(|r| {
                    r.get("cycles")
                        .and_then(Json::as_u64)
                        .ok_or("result without cycles")
                })
                .collect::<Result<Vec<u64>, _>>()?;
            Ok((layer.to_string(), cycles))
        })
        .collect()
}

/// Largest |model − simulator| / simulator (percent) over the pass's
/// cycle counts, after checking the replay reproduced every one of them.
fn model_error(pass: &RunReport, replayed: &[Replayed]) -> Result<(f64, usize), String> {
    let (mut worst, mut rows) = (0.0f64, 0);
    for job in &pass.jobs {
        let (_, json) = job
            .artifacts
            .iter()
            .find(|(path, _)| path.ends_with(".json"))
            .ok_or_else(|| format!("{} wrote no JSON artifact", job.name))?;
        let layers = artifact_cycles(json)?;
        let ours: Vec<&Replayed> = replayed.iter().filter(|r| r.job == job.name).collect();
        if layers.len() != ours.len() {
            return Err(format!(
                "{}: replay has {} layers, pass {}",
                job.name,
                ours.len(),
                layers.len()
            ));
        }
        for ((layer, cycles), r) in layers.iter().zip(ours) {
            if layer != r.layer || *cycles != r.simulated {
                return Err(format!(
                    "{} {layer}: replay disagrees with the pass",
                    job.name
                ));
            }
            for (&sim, &pred) in cycles.iter().zip(&r.predicted) {
                let err = (pred as f64 - sim as f64).abs() / (sim as f64).max(1.0);
                worst = worst.max(err * 100.0);
                rows += 1;
            }
        }
    }
    Ok((worst, rows))
}

/// The traced run: untraced and traced passes alternate through the
/// window (their ratio is the tracing overhead), then the serial replay.
fn traced(ctx: &Ctx, setup: &Setup, tracer: &Tracer, probe: &Arc<Probe>) -> Result<Report, String> {
    let mut traced = Vec::new();
    let passes = window::run(ctx.window, 2, true, tracer, probe, |scope| {
        let pass = cold_pass(ctx, &setup.exps, probe, scope.id);
        scope.end();
        let check = check(&setup.golden, &pass);
        let outcome = cold::outcome(probe, scope.id, &pass, setup.points(), check);
        if scope.span().is_some() {
            traced.push(pass);
        }
        Ok(outcome)
    })?;
    let mut report = passes.report();
    let pass_spans = tracer.spans();
    cold::harness_metrics(
        &mut report,
        ctx,
        &pass_spans,
        &traced.iter().collect::<Vec<_>>(),
    );
    report.set("trace.overhead_ratio", passes.overhead_ratio());

    let root = tracer.open("replay", None, 0);
    let (replayed, macs) = replay(tracer, root);
    tracer.close(root);
    let spans = tracer.spans();
    let by_name = trace::self_seconds_by_name(&spans);
    for (name, secs) in &by_name {
        if name.starts_with("nn.") || name.starts_with("sim.") {
            report.set(&format!("{name}_s"), *secs);
        }
    }
    let scheme_secs: f64 = Scheme::all()
        .iter()
        .map(|&s| by_name.get(scheme_span(s)).copied().unwrap_or(0.0))
        .sum();
    report.set("sim.ns_per_mac", scheme_secs * 1e9 / macs.max(1) as f64);
    // Replay time outside every library call (loop and bookkeeping).
    let unattributed: f64 = ["replay", "replay.layer"]
        .iter()
        .filter_map(|c| by_name.get(c))
        .sum();
    report.set("trace.unattributed_s", unattributed);
    report.attempted += 1;
    match traced[0]
        .report
        .as_ref()
        .map_err(Clone::clone)
        .and_then(|r| model_error(r, &replayed))
    {
        Ok((worst, rows)) => {
            report.set("model.err_max_pct", worst);
            eprintln!("model vs simulator: max error {worst:.3}% over {rows} (layer, scheme) rows");
        }
        Err(e) => {
            eprintln!("replay check failed: {e}");
            report.failed += 1;
        }
    }
    let replay_busy = trace::durations(&spans, "replay").iter().sum::<f64>();
    eprintln!(
        "replay: {replay_busy:.3} s busy = {:.3} s in layer spans + {unattributed:.3} s unattributed",
        by_name
            .iter()
            .filter(|(n, _)| n.starts_with("nn.") || n.starts_with("sim."))
            .map(|(_, s)| s)
            .sum::<f64>()
    );
    ctx.write_trace(&spans)?;
    Ok(report)
}
