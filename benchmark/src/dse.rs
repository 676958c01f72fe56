//! `dse-sweep`: the million-config design-space sweep, cold.
//!
//! One op is a cold pass of `DseExperiment::full()` through
//! `executor::run`: 1,080,000 configurations of the analytical model in
//! 2110 batches of 512, each batch cached and journaled like any point,
//! with a fresh in-memory state store per pass. No simulator or HTTP work
//! runs. A pass is short, so `wall_s` is a median over many.
//!
//! Checks: every pass's text and artifacts must be byte-identical to the
//! first pass's, and a seed-chosen sample of batches, recomputed with
//! `DseGrid::batch_record` before set-up, must equal the payloads the
//! executor cached in every pass. The seed only chooses that sample.
//! (`results/dse/dse-quick_*.json` is not a reference: it no longer
//! matches what the code produces.)

use crate::cold::{self, check_cold, cold_pass, Pass};
use crate::probe::Probe;
use crate::trace::{self, Tracer};
use crate::window::{self, SetupClock};
use crate::{host, Ctx, Report};
use sparten::model::dse::{DseAxes, DseGrid};
use sparten_harness::cache::Cache;
use sparten_harness::dse::DseExperiment;
use sparten_harness::{Experiment, PointPayload, SEED};
use std::sync::Arc;

/// Set-ups timed beside each pass; `setup_s` is the median of them all.
/// A 30 s window holds about 35 passes.
const SETUPS_PER_PASS: usize = 1;

/// Batches re-checked in every pass.
const SAMPLE: usize = 24;

/// Set-up: the job graph, one `DseExperiment::full()`.
fn job_graph(probe: &Arc<Probe>) -> Vec<Arc<dyn Experiment>> {
    probe.wrap(vec![Arc::new(DseExperiment::full()) as Arc<dyn Experiment>])
}

/// `(batch, record)` of the seed-chosen batches every pass re-checks,
/// recomputed directly. This is the benchmark's reference, not the
/// program's set-up, and it is made once, before set-up is timed: batches
/// differ in cost, so the seed's pick moved the median set-up by a third.
fn sample(seed: u64) -> Vec<(usize, String)> {
    let grid = DseGrid::new(DseAxes::full());
    let batches = grid.num_batches() as u64;
    (0..SAMPLE as u64)
        .map(|i| {
            let batch = (mix(seed ^ mix(i)) % batches) as usize;
            (batch, grid.batch_record(batch))
        })
        .collect()
}

/// What every pass must reproduce: the first pass's text and artifacts.
type Reference = Option<(String, Vec<(String, String)>)>;

/// splitmix64: the seeded choice of batches to re-check.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn check(
    exps: &[Arc<dyn Experiment>],
    sample: &[(usize, String)],
    pass: &Pass,
    reference: &mut Reference,
) -> Result<(), String> {
    let report = check_cold(&pass.report)?;
    let job = report.jobs.first().ok_or("no job report")?;
    if let Some(e) = &job.error {
        return Err(format!("{} failed: {e}", job.name));
    }
    match reference {
        Some((output, artifacts)) if *output != job.output || *artifacts != job.artifacts => {
            return Err("output differs from the first pass's".into())
        }
        Some(_) => {}
        None => *reference = Some((job.output.clone(), job.artifacts.clone())),
    }
    let exp = &exps[0];
    let cache = Cache::with_vfs("cache", pass.fs.clone());
    for (batch, record) in sample {
        let key = Cache::key(exp.name(), &exp.fingerprint(), SEED, *batch);
        match cache.load(exp.name(), *batch, key) {
            Some(PointPayload::Record(blob)) if blob == *record => {}
            _ => {
                return Err(format!(
                    "batch {batch}: cached payload differs from a recomputation"
                ))
            }
        }
    }
    Ok(())
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let tracer = Arc::new(Tracer::new());
    let probe = Probe::new(Arc::clone(&tracer));
    let sample = sample(ctx.seed);
    let mut setups = SetupClock::default();
    let exps = setups.time(|| Ok(job_graph(&probe)))?;
    host::reset_peak_rss();
    let points = exps[0].num_points();
    let mut reference = None;
    // The traced run alternates untraced and traced passes.
    let mut traced = Vec::new();
    let passes = window::run(
        ctx.window,
        1 + ctx.traced as u64,
        ctx.traced,
        &tracer,
        &probe,
        |scope| {
            if !ctx.traced {
                setups.sample(SETUPS_PER_PASS, || Ok(job_graph(&probe)))?;
            }
            let pass = cold_pass(ctx, &exps, &probe, scope.id);
            scope.end();
            let check = check(&exps, &sample, &pass, &mut reference);
            let outcome = cold::outcome(&probe, scope.id, &pass, points, check);
            if scope.span().is_some() {
                traced.push(pass);
            }
            Ok(outcome)
        },
    )?;
    let mut report = passes.report();
    if !ctx.traced {
        report.set_end_to_end(&setups, &passes.plain);
        return Ok(report);
    }

    let spans = tracer.spans();
    let traced: Vec<&Pass> = traced.iter().collect();
    cold::harness_metrics(&mut report, ctx, &spans, &traced);
    let n = traced.len() as f64;
    let batch_s = report.metrics["harness.point_s"];
    let configs = DseExperiment::full().num_configs() as f64;
    report.set("model.batch_s", batch_s);
    report.set("model.ns_per_config", batch_s * 1e9 / configs);
    let by_name = trace::self_seconds_by_name(&spans);
    report.set(
        "trace.unattributed_s",
        by_name.get("pass").copied().unwrap_or(0.0) / n,
    );
    report.set("trace.overhead_ratio", passes.overhead_ratio());
    eprintln!(
        "dse-sweep traced: {} + {} passes, {:.3} s model per pass, writeback p50 {:.1} us",
        passes.plain.len(),
        traced.len(),
        batch_s,
        report.metrics["harness.point_overhead_us"]
    );
    ctx.write_trace(&spans)?;
    Ok(report)
}
