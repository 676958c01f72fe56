//! The harness side of the serve daemon: a [`Backend`] over the
//! experiment registry, the content-addressed cache, and the worker-pool
//! executor.
//!
//! The `sparten-serve` crate schedules requests and speaks HTTP but knows
//! nothing about experiments. This module supplies the three capabilities
//! it needs:
//!
//! * **identity** — each job's coalescing key is derived from the same
//!   material as its cache keys (name, fingerprint, seed), so "identical
//!   request" in the server means exactly "would produce byte-identical
//!   results";
//! * **the memory-speed hit path** — [`HarnessBackend::cached`] assembles
//!   a whole job from verified cache entries without touching the
//!   executor, and renders it only when those entries changed since its
//!   last render;
//! * **execution** — [`HarnessBackend::execute`] runs one job through
//!   [`executor::run`] with the same options `harness run` uses (journaled,
//!   self-healing, artifact-writing), wiring the executor's per-point
//!   [`ProgressHook`] into the server's broadcast stream.
//!
//! Concurrent `execute` calls are safe by construction: the server
//! coalesces duplicates, so two executor runs never compute the same job
//! at once, and distinct jobs touch distinct cache entries, artifact
//! files, and journals (run ids carry a process-wide sequence number).

use crate::cache::{fnv1a_parts, Cache, Lookup};
use crate::executor::{self, PointOrigin, ProgressHook, RunOptions};
use crate::{Experiment, PointPayload};
use sparten_serve::{Backend, JobInfo, JobOutput, PointSource};
use sparten_telemetry::{CancelToken, Telemetry, TraceContext};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// One served job: its experiment, its identity (computed once), and the
/// output last rendered from its cache.
struct ServedJob {
    exp: Arc<dyn Experiment>,
    info: JobInfo,
    /// Cache key of each point.
    keys: Vec<u64>,
    /// The payloads behind the last render, and what it returned.
    rendered: Mutex<Option<(Vec<PointPayload>, JobOutput)>>,
}

impl ServedJob {
    fn new(exp: Arc<dyn Experiment>) -> ServedJob {
        let fp = exp.fingerprint();
        let keys = (0..exp.num_points())
            .map(|point| Cache::key(exp.name(), &fp, crate::SEED, point))
            .collect();
        let info = JobInfo {
            name: exp.name().to_string(),
            kind: exp.kind().label().to_string(),
            points: exp.num_points(),
            // The job-level coalescing key: same material as the
            // per-point cache keys, so it changes exactly when a rerun
            // could produce different bytes.
            key: fnv1a_parts(&[exp.name(), &fp, &format!("seed={}", crate::SEED)]),
        };
        ServedJob {
            exp,
            info,
            keys,
            rendered: Mutex::new(None),
        }
    }

    fn rendered(&self) -> MutexGuard<'_, Option<(Vec<PointPayload>, JobOutput)>> {
        self.rendered.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// [`Backend`] implementation over the harness registry and machinery.
pub struct HarnessBackend {
    jobs: Vec<ServedJob>,
    cache: Cache,
    journal_dir: Option<PathBuf>,
    write_artifacts: bool,
    exec_jobs: usize,
    run_seq: AtomicUsize,
    trace_sink: Option<Arc<Telemetry>>,
    trace_epoch: Option<Instant>,
}

impl HarnessBackend {
    /// A backend serving `experiments`, reading/writing the cache at
    /// `cache_dir`, journaling executor runs under `journal_dir` (`None`
    /// disables journaling, for tests), writing `results/*` artifacts iff
    /// `write_artifacts`, and giving each executor run `exec_jobs` worker
    /// threads.
    pub fn new(
        experiments: Vec<Arc<dyn Experiment>>,
        cache_dir: impl Into<PathBuf>,
        journal_dir: Option<PathBuf>,
        write_artifacts: bool,
        exec_jobs: usize,
    ) -> HarnessBackend {
        HarnessBackend {
            jobs: experiments.into_iter().map(ServedJob::new).collect(),
            cache: Cache::new(cache_dir),
            journal_dir,
            write_artifacts,
            exec_jobs: exec_jobs.max(1),
            run_seq: AtomicUsize::new(0),
            trace_sink: None,
            trace_epoch: None,
        }
    }

    /// Routes every executor run's wall-clock spans (per-point execution,
    /// cache-hit instants, merged simulator sessions) into `sink`, each
    /// stamped with the request's trace context. The server exports the
    /// same session at `/trace`, so one download shows request → gate →
    /// queue wait → point → chunk on a single timeline. Timestamps count
    /// from this call.
    pub fn with_trace_sink(mut self, sink: Arc<Telemetry>) -> HarnessBackend {
        self.trace_sink = Some(sink);
        self.trace_epoch = Some(Instant::now());
        self
    }

    fn find(&self, name: &str) -> Option<&ServedJob> {
        self.jobs.iter().find(|j| j.info.name == name)
    }
}

impl Backend for HarnessBackend {
    fn jobs(&self) -> Vec<JobInfo> {
        self.jobs.iter().map(|j| j.info.clone()).collect()
    }

    fn job(&self, name: &str) -> Option<JobInfo> {
        self.find(name).map(|j| j.info.clone())
    }

    /// Every call reads and checksum-verifies every point, so the disk
    /// stays the source of truth: eviction, `harness clean`, `fsck
    /// --repair` and corruption show at once. `validate` and `render` are
    /// deterministic (the [`Experiment`] contract), so while the cache
    /// holds the very payloads behind the last render, that render's
    /// output is returned without calling either.
    fn cached(&self, name: &str) -> Option<JobOutput> {
        let job = self.find(name)?;
        let mut points = Vec::with_capacity(job.keys.len());
        for (point, &key) in job.keys.iter().enumerate() {
            match self.cache.lookup(job.exp.name(), point, key) {
                Lookup::Hit(payload) => points.push(payload),
                Lookup::Miss | Lookup::Malformed => return None,
            }
        }
        if let Some((seen, output)) = &*job.rendered() {
            if *seen == points {
                return Some(output.clone());
            }
        }
        let valid = points
            .iter()
            .enumerate()
            .all(|(point, payload)| job.exp.validate(point, payload));
        if !valid {
            return None;
        }
        let capture = job.exp.render(&points);
        let output = JobOutput {
            text: capture.text,
            artifacts: capture.artifacts,
        };
        *job.rendered() = Some((points, output.clone()));
        Some(output)
    }

    fn execute(
        &self,
        name: &str,
        progress: Arc<dyn Fn(usize, PointSource) + Send + Sync>,
        trace: Option<TraceContext>,
        cancel: CancelToken,
    ) -> Result<JobOutput, String> {
        let job = self.find(name).ok_or_else(|| format!("unknown job `{name}`"))?;
        let exp = Arc::clone(&job.exp);
        let seq = self.run_seq.fetch_add(1, Ordering::SeqCst);
        let opts = RunOptions {
            filter: None,
            jobs: self.exec_jobs,
            force: false,
            cache_dir: self.cache.dir().to_path_buf(),
            write_artifacts: self.write_artifacts,
            stream_output: false,
            telemetry_dir: None,
            max_attempts: 2,
            point_timeout: None,
            // Quarantine reporting is per-request here (the error flows
            // back over HTTP); a shared failures.json would be a write
            // race between concurrent runs.
            failures_path: None,
            journal_dir: self.journal_dir.clone(),
            resume: None,
            run_id: Some(format!("{}-s{seq:04}", crate::journal::generate_run_id())),
            // In-flight runs complete fully during a drain; the server
            // stops new admissions instead.
            shutdown: None,
            drain_timeout: Duration::from_secs(30),
            abort_after: None,
            progress: Some(ProgressHook(Arc::new(move |_job, point, origin| {
                progress(
                    point,
                    match origin {
                        PointOrigin::Cache => PointSource::Cache,
                        PointOrigin::Computed => PointSource::Computed,
                    },
                )
            }))),
            trace,
            trace_sink: self.trace_sink.clone(),
            trace_epoch: self.trace_epoch,
            cancel: Some(cancel),
            vfs: Arc::new(sparten_bench::vfs::RealFs),
        };
        let report = executor::run(&[exp], &opts)?;
        let job = report
            .jobs
            .into_iter()
            .next()
            .ok_or_else(|| "executor returned no job report".to_string())?;
        match job.error {
            Some(e) => Err(e),
            None => Ok(JobOutput {
                text: job.output,
                artifacts: job.artifacts,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry;

    #[test]
    fn coalescing_keys_are_stable_and_distinct() {
        let experiments = registry();
        let backend = HarnessBackend::new(experiments.clone(), "results/cache", None, false, 1);
        let jobs = backend.jobs();
        assert_eq!(jobs.len(), experiments.len());
        // Distinct jobs get distinct keys; the same job keys identically
        // across calls (the whole point of coalescing on it).
        let mut keys: Vec<u64> = jobs.iter().map(|j| j.key).collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), jobs.len());
        let again = backend.jobs();
        assert_eq!(jobs, again);
    }

    #[test]
    fn unknown_names_resolve_to_none() {
        let backend = HarnessBackend::new(registry(), "results/cache", None, false, 1);
        assert!(backend.job("no_such_job").is_none());
        assert!(backend.cached("no_such_job").is_none());
    }
}
