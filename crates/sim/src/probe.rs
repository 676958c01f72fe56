//! Simulator-side telemetry probes.
//!
//! A [`Probe`] scopes a [`Telemetry`] session to one scheme: every metric
//! it records is named `<scope>/<leaf>` (see the naming table in
//! `sparten_telemetry`), and every span lands on a process track named
//! after the scope. Simulators take an `Option<&Telemetry>` and build a
//! probe only when it is `Some`, so the uninstrumented path stays
//! allocation- and atomics-free.
//!
//! [`StallTally`] accumulates the stall-cause decomposition in plain local
//! integers inside the hot loops and emits counters once per cluster; the
//! decomposition is constructed so each cluster's causes sum *exactly* to
//! that cluster's `intra` breakdown term, which is what lets
//! `sparten_telemetry::check_breakdown` reconcile without tolerance.

use std::sync::Arc;

use sparten_telemetry::{
    check_breakdown, BreakdownExpectation, Histogram, ReconcileError, StallCause, Telemetry,
};

use crate::breakdown::{SimResult, Traffic};

/// Maximum per-position spans sampled per cluster/PE track, so timelines
/// stay readable (and bounded) on large layers.
pub const POSITION_SPAN_LIMIT: usize = 32;

/// A telemetry session scoped to one scheme.
#[derive(Debug)]
pub struct Probe<'a> {
    tel: &'a Telemetry,
    scope: &'static str,
    pid: u32,
}

impl<'a> Probe<'a> {
    /// Opens a probe for `scope`, allocating its process track.
    pub fn new(tel: &'a Telemetry, scope: &'static str) -> Self {
        let pid = tel.recorder.alloc_process(scope);
        Probe { tel, scope, pid }
    }

    /// The scheme label this probe scopes to.
    pub fn scope(&self) -> &'static str {
        self.scope
    }

    fn name(&self, leaf: &str) -> String {
        format!("{}/{leaf}", self.scope)
    }

    /// Adds `n` to counter `<scope>/<leaf>` (interning it even when zero,
    /// so taxonomy placeholders show up in reports).
    pub fn count(&self, leaf: &str, n: u64) {
        self.tel.metrics.counter(&self.name(leaf)).add(n);
    }

    /// Adds `n` MAC-slot cycles to the stall counter for `cause`.
    pub fn stall(&self, cause: StallCause, n: u64) {
        self.tel
            .metrics
            .counter(&cause.metric_name(self.scope))
            .add(n);
    }

    /// Records the executed-work counters the invariant checker reads.
    pub fn work(&self, nonzero: u64, zero: u64) {
        self.count("work.nonzero", nonzero);
        self.count("work.zero", zero);
    }

    /// Records per-tensor DRAM traffic (bytes, rounded down).
    pub fn traffic(&self, t: &Traffic) {
        self.count("dram.input_bytes", t.input_bytes as u64);
        self.count("dram.filter_bytes", t.filter_bytes as u64);
        self.count("dram.output_bytes", t.output_bytes as u64);
        self.count("dram.zero_value_bytes", t.zero_value_bytes as u64);
        self.count("dram.metadata_bytes", t.metadata_bytes as u64);
    }

    /// Observes gauge `<scope>/<leaf>`.
    pub fn gauge(&self, leaf: &str, v: f64) {
        self.tel.metrics.gauge(&self.name(leaf)).observe(v);
    }

    /// Returns histogram `<scope>/<leaf>` for hot-loop recording.
    pub fn histogram(&self, leaf: &str) -> Arc<Histogram> {
        self.tel.metrics.histogram(&self.name(leaf))
    }

    /// Names thread track `tid` on this probe's process.
    pub fn thread(&self, tid: u32, name: &str) {
        self.tel.recorder.name_thread(self.pid, tid, name);
    }

    /// Records a span on thread `tid`.
    pub fn span(&self, tid: u32, name: &'static str, ts: u64, dur: u64, args: &[(&'static str, u64)]) {
        self.tel.recorder.span(self.pid, tid, name, ts, dur, args);
    }

    /// Records an instant event on thread `tid`.
    pub fn instant(&self, tid: u32, name: &'static str, ts: u64, args: &[(&'static str, u64)]) {
        self.tel.recorder.instant(self.pid, tid, name, ts, args);
    }
}

/// Local accumulator for the stall-cause decomposition of one cluster (or
/// one PE grid): plain integers in the hot loop, one counter emission at
/// the end.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct StallTally {
    /// [`StallCause::EmptyMaskAnd`] slot-cycles.
    pub empty_mask_and: u64,
    /// [`StallCause::PrefixEncoderWait`] slot-cycles.
    pub prefix_encoder_wait: u64,
    /// [`StallCause::ChunkBarrierIdle`] slot-cycles.
    pub chunk_barrier_idle: u64,
    /// [`StallCause::UnitUnderfill`] slot-cycles.
    pub unit_underfill: u64,
    /// [`StallCause::MultiplierQuantization`] slot-cycles.
    pub multiplier_quantization: u64,
    /// [`StallCause::ClusterIdle`] slot-cycles.
    pub cluster_idle: u64,
    /// [`StallCause::PeBarrierIdle`] slot-cycles.
    pub pe_barrier_idle: u64,
}

impl StallTally {
    /// Total intra-cluster slot-cycles tallied.
    pub fn intra(&self) -> u64 {
        self.empty_mask_and
            + self.prefix_encoder_wait
            + self.chunk_barrier_idle
            + self.unit_underfill
            + self.multiplier_quantization
    }

    /// Total inter-cluster slot-cycles tallied.
    pub fn inter(&self) -> u64 {
        self.cluster_idle + self.pe_barrier_idle
    }

    /// Emits the non-zero causes as counters on `probe`.
    pub fn emit(&self, probe: &Probe<'_>) {
        for (cause, n) in [
            (StallCause::EmptyMaskAnd, self.empty_mask_and),
            (StallCause::PrefixEncoderWait, self.prefix_encoder_wait),
            (StallCause::ChunkBarrierIdle, self.chunk_barrier_idle),
            (StallCause::UnitUnderfill, self.unit_underfill),
            (StallCause::MultiplierQuantization, self.multiplier_quantization),
            (StallCause::ClusterIdle, self.cluster_idle),
            (StallCause::PeBarrierIdle, self.pe_barrier_idle),
        ] {
            if n > 0 {
                probe.stall(cause, n);
            }
        }
    }
}

impl std::ops::AddAssign for StallTally {
    fn add_assign(&mut self, other: StallTally) {
        self.empty_mask_and += other.empty_mask_and;
        self.prefix_encoder_wait += other.prefix_encoder_wait;
        self.chunk_barrier_idle += other.chunk_barrier_idle;
        self.unit_underfill += other.unit_underfill;
        self.multiplier_quantization += other.multiplier_quantization;
        self.cluster_idle += other.cluster_idle;
        self.pe_barrier_idle += other.pe_barrier_idle;
    }
}

/// Checks that `local`'s counters reconcile exactly with `result`'s
/// breakdown, then folds `local` into `session` (prefixing its Perfetto
/// tracks with `track_prefix`).
///
/// This is the load-bearing hook of the telemetry subsystem: the stall
/// decomposition is accumulated independently inside the simulator loops,
/// so a missed attribution or double-counted slot surfaces here instead of
/// silently skewing reports. Running each simulation into its own local
/// session keeps the check exact even when many layers record into one
/// shared session concurrently.
pub fn reconcile_and_merge(
    local: Telemetry,
    result: &SimResult,
    session: &Telemetry,
    track_prefix: &str,
) -> Result<(), ReconcileError> {
    let snapshot = local.metrics.snapshot();
    check_breakdown(
        &snapshot,
        result.scheme,
        &BreakdownExpectation {
            nonzero: result.breakdown.nonzero,
            zero: result.breakdown.zero,
            intra: result.breakdown.intra,
            inter: result.breakdown.inter,
            compute_cycles: result.compute_cycles,
            units: result.total_units,
        },
    )?;
    session.merge(local, track_prefix);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_scopes_names_and_tracks() {
        let tel = Telemetry::new();
        let p = Probe::new(&tel, "SparTen");
        p.count("work.nonzero", 7);
        p.gauge("occupancy.cluster_util", 0.5);
        p.histogram("hist.chunk_barrier").record(3);
        p.thread(0, "cluster0");
        p.span(0, "cluster", 0, 10, &[("busy", 8)]);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter("SparTen/work.nonzero"), Some(7));
        let events = tel.recorder.events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            tel.recorder.process_name(events[0].pid).as_deref(),
            Some("SparTen")
        );
    }

    #[test]
    fn tally_emits_nonzero_causes_and_sums() {
        let tel = Telemetry::new();
        let p = Probe::new(&tel, "S");
        let tally = StallTally {
            empty_mask_and: 2,
            prefix_encoder_wait: 3,
            chunk_barrier_idle: 0,
            unit_underfill: 5,
            multiplier_quantization: 0,
            cluster_idle: 11,
            pe_barrier_idle: 0,
        };
        assert_eq!(tally.intra(), 10);
        assert_eq!(tally.inter(), 11);
        tally.emit(&p);
        let snap = tel.metrics.snapshot();
        assert_eq!(snap.counter_sum("S/stall.intra."), 10);
        assert_eq!(snap.counter_sum("S/stall.inter."), 11);
        // Zero causes are not interned by the tally.
        assert_eq!(snap.counter("S/stall.intra.chunk_barrier_idle"), None);
    }
}
