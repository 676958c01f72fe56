//! The disk-fault campaign: run the harness's durable-state machinery on
//! a fault-injecting filesystem, simulate a power cut at an arbitrary
//! instant, and verify that the recovery path restores a state
//! byte-identical to a clean run.
//!
//! One trial = one [`Spec`] from the [`DISK`] plan. Each trial:
//!
//! 1. runs a small deterministic workload under [`RealFs`] into a
//!    *clean* reference tree (the oracle's ground truth);
//! 2. runs the same workload twice (cold, then warm) under a seeded
//!    [`FaultFs`] injecting the trial's class of filesystem lie —
//!    ENOSPC, short writes, fsync failures, rename failures, read-side
//!    bit rot — into a *faulted* tree, recording the op log;
//! 3. simulates a power cut: [`materialize_prefix`] replays an
//!    arbitrary seeded prefix of the op log into a fresh *cut* tree,
//!    honoring fsync barriers and seeded-tearing unsynced tails;
//! 4. recovers the cut tree the way an operator would: `run --resume`
//!    for every dangling journal (or a fresh run when none survived),
//!    then `fsck --repair`, then a final clean audit;
//! 5. checks the oracle invariants: every cut journal replays (torn
//!    tails only, never interior corruption), resume replays exactly
//!    the journaled points, repair leaves a clean tree with no journal
//!    behind, and the recovered artifacts and every surviving cache
//!    entry are byte-identical to the clean reference tree.
//!
//! The report tallies only invariant outcomes (clean / violated /
//! crashed) and deterministic violation messages — never timings, pids,
//! or absolute paths — so the same seed renders a byte-identical report.

use crate::executor::{self, RunOptions};
use crate::fsck::{self, Action};
use crate::journal;
use crate::{events, Experiment, PointPayload};
use sparten::faults::{Campaign, DiskFaultClass, FaultRng, Spec, Taxonomy, Verdict, DISK};
use sparten_bench::json::Json;
use sparten_bench::vfs::{materialize_prefix, FaultConfig, FaultFs, RealFs, Vfs};
use sparten_bench::{Capture, ExperimentKind};
use sparten_telemetry::Telemetry;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The disk-fault campaign (`harness diskchaos`). Its totals land in its
/// own telemetry session as the `disk.injected`, `disk.enospc`, and
/// `recovery.repaired` counters, which the report's footer prints.
#[derive(Default)]
pub struct DiskChaos {
    /// The campaign's injection and repair counters.
    telemetry: Telemetry,
}

impl Campaign for DiskChaos {
    type Class = DiskFaultClass;
    const TAXONOMY: &'static Taxonomy<DiskFaultClass> = &DISK;

    fn run_trial(&self, spec: &Spec<DiskFaultClass>) -> Verdict {
        // Faulted runs warn loudly by design (cache writes failing under
        // ENOSPC, journal appends failing under fsync faults); the stderr
        // mirror is silenced for the trial, panics included, so the
        // campaign output is the report, not hundreds of expected
        // degradation warnings.
        struct Unmute;
        impl Drop for Unmute {
            fn drop(&mut self) {
                events::set_mirror(true);
            }
        }
        events::set_mirror(false);
        let _unmute = Unmute;
        Verdict::from_violations(run_trial(spec, &self.telemetry))
    }

    /// One greppable line: how much the campaign actually injected and
    /// repaired. Deterministic for a given `(seed, trials)`, like the table.
    fn footer(&self) -> Option<String> {
        let snap = self.telemetry.metrics.snapshot();
        Some(format!(
            "counters: disk.injected={} disk.enospc={} recovery.repaired={}",
            snap.counter("disk.injected").unwrap_or(0),
            snap.counter("disk.enospc").unwrap_or(0),
            snap.counter("recovery.repaired").unwrap_or(0)
        ))
    }
}

/// A deterministic synthetic experiment for disk trials. Points carry a
/// fixed-size payload so the ENOSPC byte budget lands mid-run, and the
/// artifact is a parseable JSON file whose bytes depend only on the
/// workload — never on which tree it was computed in — so the oracle can
/// byte-compare recovered trees against the clean reference.
struct DiskExp {
    name: &'static str,
    points: usize,
    /// Folded into the fingerprint so every trial gets fresh cache keys
    /// even though the name pool is static. Identical across the trial's
    /// clean / faulted / cut trees — resume and the oracle depend on the
    /// three trees sharing cache keys and registry fingerprints.
    salt: u64,
    /// Where this instance writes its artifact (the tree root). Not part
    /// of the fingerprint for the same reason `salt` is shared.
    artifact_dir: PathBuf,
}

/// Static name pool: [`Experiment::name`] returns `&'static str`, so
/// trials draw from a fixed set and differentiate via the fingerprint.
const NAMES: &[&str] = &["disk-a", "disk-b"];

/// Points per synthetic experiment (two experiments per trial).
const POINTS: usize = 3;

impl Experiment for DiskExp {
    fn name(&self) -> &'static str {
        self.name
    }
    fn kind(&self) -> ExperimentKind {
        ExperimentKind::Study
    }
    fn deps(&self) -> &'static [&'static str] {
        &[]
    }
    fn num_points(&self) -> usize {
        self.points
    }
    fn fingerprint(&self) -> String {
        format!("disk:{}:{}:{:016x}", self.name, self.points, self.salt)
    }
    fn compute_point(&self, point: usize) -> PointPayload {
        // ~100 bytes per point: enough volume that the seeded ENOSPC
        // budget can land between any two durable-state writes.
        let filler = "0123456789abcdef".repeat(4);
        PointPayload::Record(format!("{} point {point} payload {filler}\n", self.name))
    }
    fn render(&self, points: &[PointPayload]) -> Capture {
        let mut text = format!("== {} ==\n", self.name);
        let mut rows = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            match p {
                PointPayload::Record(blob) => {
                    text.push_str(blob);
                    rows.push(Json::obj([
                        ("point", Json::UInt(i as u64)),
                        ("record", Json::str(blob.trim_end())),
                    ]));
                }
                PointPayload::Capture(_) => unreachable!(),
            }
        }
        let artifact = Json::obj([
            ("experiment", Json::str(self.name)),
            ("points", Json::Arr(rows)),
        ]);
        Capture {
            text,
            artifacts: vec![(
                self.artifact_dir
                    .join(format!("{}.json", self.name))
                    .to_string_lossy()
                    .into_owned(),
                artifact.pretty() + "\n",
            )],
        }
    }
}

fn exps(spec: &Spec<DiskFaultClass>, artifact_dir: &Path) -> Vec<Arc<dyn Experiment>> {
    NAMES
        .iter()
        .map(|&name| {
            Arc::new(DiskExp {
                name,
                points: POINTS,
                salt: spec.seed,
                artifact_dir: artifact_dir.to_path_buf(),
            }) as Arc<dyn Experiment>
        })
        .collect()
}

/// The trial's run options over `tree`: single worker (so the op log is
/// a deterministic sequence), journaled, artifact-writing, no quarantine
/// report (failures under injected faults are the trial's business, not
/// a shared file's).
fn opts(tree: &Path, vfs: Arc<dyn Vfs>, run_id: String, resume: Option<PathBuf>) -> RunOptions {
    RunOptions {
        jobs: 1,
        cache_dir: tree.join("cache"),
        stream_output: false,
        failures_path: None,
        journal_dir: Some(tree.join("journal")),
        resume,
        run_id: Some(run_id),
        vfs,
        ..RunOptions::default()
    }
}

/// The seeded injection knobs for one class. Exactly one lie per trial,
/// so a recovery failure is attributable to the class that exposed it.
fn config_for(class: DiskFaultClass, rng: &mut FaultRng) -> FaultConfig {
    match class {
        DiskFaultClass::Enospc => FaultConfig {
            enospc_after_bytes: Some(800 + rng.gen_range(2400)),
            ..FaultConfig::default()
        },
        DiskFaultClass::ShortWrite => FaultConfig {
            short_write_per_mille: 100 + rng.gen_range(200) as u32,
            ..FaultConfig::default()
        },
        DiskFaultClass::FsyncFailure => FaultConfig {
            fsync_fail_per_mille: 150 + rng.gen_range(250) as u32,
            ..FaultConfig::default()
        },
        DiskFaultClass::RenameFailure => FaultConfig {
            rename_fail_per_mille: 200 + rng.gen_range(300) as u32,
            ..FaultConfig::default()
        },
        DiskFaultClass::BitRot => FaultConfig {
            read_bitrot_per_mille: 150 + rng.gen_range(250) as u32,
            ..FaultConfig::default()
        },
    }
}

/// Name-sorted `*.jsonl` journals under `dir`; missing dir is empty.
fn journal_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .collect();
    files.sort();
    files
}

/// A path's file name as deterministic violation-message material.
fn short(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("?")
        .to_string()
}

fn run_trial(spec: &Spec<DiskFaultClass>, telemetry: &Telemetry) -> Vec<String> {
    let mut rng = spec.rng();
    let mut violations = Vec::new();
    let config = config_for(spec.class, &mut rng);
    let tag = format!("disk-{}-t{}", DISK.label(spec.class), spec.trial);

    let root = std::env::temp_dir().join(format!(
        "sparten-diskchaos-{}-{:016x}",
        std::process::id(),
        spec.seed
    ));
    let _ = std::fs::remove_dir_all(&root);
    let clean = root.join("clean");
    let faulted = root.join("faulted");
    let cut = root.join("cut");

    // 1. Clean reference run under RealFs: the oracle's ground truth.
    //    A failure here is a broken trial, not a recovery violation, but
    //    it must still be reported — there is nothing to compare against.
    let clean_opts = opts(&clean, Arc::new(RealFs), format!("{tag}-clean"), None);
    match executor::run(&exps(spec, &clean), &clean_opts) {
        Ok(report) => {
            for job in &report.jobs {
                if let Some(e) = &job.error {
                    violations.push(format!("clean reference job {} failed: {e}", job.name));
                }
            }
        }
        Err(e) => violations.push(format!("clean reference run failed: {e}")),
    }
    if !violations.is_empty() {
        return violations;
    }

    // 2. Faulted cold + warm runs sharing one FaultFs (one op log, one
    //    injection stream). Degraded or failed runs are the point; the
    //    invariants are checked on what the power cut leaves behind.
    //    The VFS seed is derived so it never aliases the trial RNG.
    let faultfs = FaultFs::new(FaultRng::derive(spec.seed, 1), config);
    for phase in ["cold", "warm"] {
        let o = opts(
            &faulted,
            Arc::new(faultfs.clone()),
            format!("{tag}-{phase}"),
            None,
        );
        let _ = executor::run(&exps(spec, &faulted), &o);
    }
    telemetry.metrics.counter("disk.injected").add(faultfs.injected());
    telemetry.metrics.counter("disk.enospc").add(faultfs.enospc_hits());

    // 3. Power cut: replay a seeded op-prefix into the cut tree.
    let ops = faultfs.ops();
    let cut_at = rng.gen_range(ops.len() as u64 + 1) as usize;
    if let Err(e) = materialize_prefix(&ops, cut_at, &mut rng, &faulted, &cut) {
        violations.push(format!("power-cut materialization failed: {e}"));
        return violations;
    }

    // 4a. Resume every dangling journal the cut left behind, in sorted
    //     order (a cold run whose seal failed plus a warm run cut
    //     mid-flight can leave two). Invariant: a cut journal either
    //     replays (torn tail at worst) or was cut before its start record
    //     became durable — interior corruption is impossible by
    //     construction (append rollback + reopen truncation).
    let cut_exps = exps(spec, &cut);
    let mut recovered = false;
    for path in journal_files(&cut.join("journal")) {
        match journal::replay(&path) {
            Err(e) if e.contains("is empty") => {
                // Cut before the start record landed; fsck discards it.
            }
            Err(e) => violations.push(format!("cut journal {} does not replay: {e}", short(&path))),
            Ok(replay) if replay.ended => {
                // The run completed but the cut fell between its end
                // record and the unlink; fsck quarantines it below.
            }
            Ok(replay) => {
                let journaled: BTreeSet<(String, usize)> = replay
                    .points
                    .iter()
                    .map(|(job, point, _, _)| (job.clone(), *point))
                    .collect();
                let o = opts(&cut, Arc::new(RealFs), format!("{tag}-resume"), Some(path.clone()));
                match executor::run(&cut_exps, &o) {
                    Ok(report) => {
                        recovered = true;
                        for job in &report.jobs {
                            if let Some(e) = &job.error {
                                violations
                                    .push(format!("resumed job {} failed: {e}", job.name));
                            }
                        }
                        if report.replayed != journaled.len() {
                            violations.push(format!(
                                "resume of {} replayed {} point(s), journal holds {}",
                                short(&path),
                                report.replayed,
                                journaled.len()
                            ));
                        }
                    }
                    Err(e) => violations
                        .push(format!("cannot resume cut journal {}: {e}", short(&path))),
                }
            }
        }
    }

    // 4b. No resumable journal survived the cut: recover with a fresh
    //     run, rebuilding artifacts from the surviving cache entries.
    if !recovered {
        let o = opts(&cut, Arc::new(RealFs), format!("{tag}-recover"), None);
        match executor::run(&cut_exps, &o) {
            Ok(report) => {
                for job in &report.jobs {
                    if let Some(e) = &job.error {
                        violations.push(format!("recovery job {} failed: {e}", job.name));
                    }
                }
            }
            Err(e) => violations.push(format!("recovery run failed: {e}")),
        }
    }

    // 4c. fsck --repair sweeps what the cut left over: stale temp files,
    //     journals that never got a start record, sealed journals whose
    //     unlink was cut away. Every finding must be repaired.
    match fsck::fsck(&cut, NAMES, true) {
        Ok(rep) => {
            let mut repaired = 0u64;
            for f in &rep.findings {
                match &f.action {
                    Action::Deleted | Action::Quarantined(_) => repaired += 1,
                    Action::Failed(e) => {
                        violations.push(format!("repair of {} failed: {e}", f.path))
                    }
                    Action::None => {
                        violations.push(format!("finding {} was not repaired", f.path))
                    }
                }
            }
            telemetry.metrics.counter("recovery.repaired").add(repaired);
        }
        Err(e) => violations.push(format!("fsck --repair failed: {e}")),
    }

    // 5a. Final audit: after recovery the tree must be finding-free and
    //     hold no journal (resumes seal theirs, repair removed the rest).
    match fsck::fsck(&cut, NAMES, false) {
        Ok(rep) => {
            for f in &rep.findings {
                violations.push(format!(
                    "recovered tree still has a {} finding: {}",
                    f.category, f.path
                ));
            }
        }
        Err(e) => violations.push(format!("post-repair fsck failed: {e}")),
    }
    for path in journal_files(&cut.join("journal")) {
        violations.push(format!("journal {} left behind after recovery", short(&path)));
    }

    // 5b. The oracle: recovered artifacts must be byte-identical to the
    //     clean reference, and every surviving cache entry must match its
    //     clean counterpart byte for byte (missing entries are fine —
    //     resume does not rewrite entries for replayed points).
    for name in NAMES {
        let file = format!("{name}.json");
        match (std::fs::read(cut.join(&file)), std::fs::read(clean.join(&file))) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => {
                violations.push(format!("artifact {file} diverges from the clean run"))
            }
            _ => violations.push(format!("artifact {file} missing after recovery")),
        }
    }
    let mut cache_entries: Vec<PathBuf> = std::fs::read_dir(cut.join("cache"))
        .map(|entries| {
            entries
                .flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "cache"))
                .collect()
        })
        .unwrap_or_default();
    cache_entries.sort();
    for path in cache_entries {
        let counterpart = clean.join("cache").join(path.file_name().unwrap_or_default());
        match (std::fs::read(&path), std::fs::read(&counterpart)) {
            (Ok(a), Ok(b)) if a == b => {}
            (Ok(_), Ok(_)) => violations.push(format!(
                "cache entry {} diverges from the clean run",
                short(&path)
            )),
            _ => violations.push(format!(
                "cache entry {} has no clean-run counterpart",
                short(&path)
            )),
        }
    }

    if violations.is_empty() {
        let _ = std::fs::remove_dir_all(&root);
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten::faults::run;

    #[test]
    fn quick_campaign_is_deterministic_and_clean() {
        let campaign = DiskChaos::default();
        let a = run(&campaign, 1, 1);
        let b = run(&DiskChaos::default(), 1, 1);
        // The footer's counters are part of the deterministic report.
        assert_eq!(a.render(), b.render(), "same seed, same report");
        assert_eq!(a.trials(), 5);
        assert_eq!(a.failures(), 0, "no invariant may break:\n{}", a.render());
        // The campaign accounts for its injections: the counters the CI
        // smoke greps for must exist (ENOSPC necessarily fires — its
        // byte budget is far below the workload's write volume).
        let snap = campaign.telemetry.metrics.snapshot();
        assert!(snap.counter("disk.injected").unwrap_or(0) > 0);
        assert!(snap.counter("disk.enospc").unwrap_or(0) > 0);
        assert!(snap.counter("recovery.repaired").is_some());
    }
}
