#![warn(missing_docs)]

//! `sparten-serve`: a multi-tenant simulation service over the harness.
//!
//! The ROADMAP's north star is a production-scale system answering heavy
//! design-space traffic. SparTen-style studies arrive as many small
//! simulation requests — often *identical* ones, because several clients
//! sweep overlapping configurations. This crate wraps the harness's
//! existing machinery (content-addressed result cache, worker-pool
//! executor, write-ahead journal, telemetry) in a long-running daemon
//! that makes duplicate traffic nearly free:
//!
//! * **HTTP/1.1 codec** ([`http`]) — hand-rolled, std-only, bounded
//!   parsing; the same offline-build spirit as the in-repo JSON and RNG.
//! * **Request coalescing + admission** ([`coalesce`]) — one combined
//!   gate decides, under a single lock, whether a request *runs*,
//!   *follows* an identical in-flight run, or is *bounced* with
//!   429 + `Retry-After`. Followers are always free (they add no load),
//!   so only genuinely new work can be rejected, and an accepted request
//!   is never dropped.
//! * **Progress streaming** ([`server`]) — per-point progress flows back
//!   as chunked NDJSON events, to the runner and every coalesced
//!   follower alike.
//! * **Graceful drain** — on shutdown the server stops accepting,
//!   finishes every in-flight and queued session, and reports a
//!   [`DrainReport`] the harness turns into a
//!   journaled exit 75 (the same crash-only contract as `harness run`).
//!
//! The crate is deliberately ignorant of experiments, caches, and
//! journals: the harness implements [`Backend`] over its registry /
//! cache / executor, and this crate only schedules and speaks HTTP.
//! That keeps the dependency arrow pointing one way (harness → serve)
//! and lets tests drive the server with synthetic backends.

pub mod client;
pub mod coalesce;
pub mod http;
pub mod server;

pub use coalesce::{Event, Gate, SlotWait, Ticket};
pub use server::{BuildInfo, DrainReport, ServeOptions, Server, ServerProbe};
pub use sparten_telemetry::CancelToken;

use std::sync::Arc;

/// Whether a finished sweep point was computed or served from the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PointSource {
    /// The point came out of the content-addressed result cache.
    Cache,
    /// The point was computed by the executor this run.
    Computed,
}

impl PointSource {
    /// Stable wire label used in streamed progress events.
    pub fn label(self) -> &'static str {
        match self {
            PointSource::Cache => "cache",
            PointSource::Computed => "computed",
        }
    }
}

/// Metadata for one servable job, as reported by `/jobs` and used for
/// admission decisions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobInfo {
    /// Registry name (`fig7_alexnet_speedup`, ...).
    pub name: String,
    /// Human kind label (`figure`, `table`, ...).
    pub kind: String,
    /// Number of sweep points the job computes.
    pub points: usize,
    /// Content-addressed coalescing key: identical keys mean identical
    /// work, so concurrent requests for the same key share one execution.
    /// The harness derives this from the cache key material (name,
    /// registry fingerprint, seed), so it changes whenever a rerun could
    /// produce different bytes.
    pub key: u64,
}

/// A completed job's response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// Rendered result text — byte-identical to what `harness run`
    /// writes for the same job (that identity is load-bearing: tests and
    /// the verify smoke diff it).
    pub text: String,
    /// Named artifacts (`results/<name>` relative path, contents).
    pub artifacts: Vec<(String, String)>,
}

/// What the serve daemon needs from the harness.
///
/// Implementations must be cheap to call concurrently: the server invokes
/// `cached` on every request thread and `execute` from at most
/// `max_active` runner threads at once.
pub trait Backend: Send + Sync {
    /// Every servable job, for `/jobs`.
    fn jobs(&self) -> Vec<JobInfo>;

    /// Metadata for one job, or `None` if the name is unknown.
    fn job(&self, name: &str) -> Option<JobInfo>;

    /// The job's output if *every* point is already in the result cache
    /// (validated and rendered without touching the executor); `None` on
    /// any miss.
    fn cached(&self, name: &str) -> Option<JobOutput>;

    /// Runs the job to completion, invoking `progress` once per finished
    /// point with `(point_index, source)`. `trace` is the request's
    /// trace context (carrying the request deadline, when one was set);
    /// a backend that records telemetry threads it through to the
    /// executor so per-point work is correlated with the request.
    /// `cancel` is the run's cooperative cancellation token — the backend
    /// must poll it at point boundaries and stop promptly once it fires,
    /// reporting the stop as an error rather than a partial result.
    fn execute(
        &self,
        name: &str,
        progress: Arc<dyn Fn(usize, PointSource) + Send + Sync>,
        trace: Option<sparten_telemetry::TraceContext>,
        cancel: CancelToken,
    ) -> Result<JobOutput, String>;
}
