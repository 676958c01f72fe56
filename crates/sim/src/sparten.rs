//! Cycle-level simulator for the SparTen family (and its one-sided proxy).
//!
//! Model (§3.2–3.3): each cluster owns a contiguous slice of output spatial
//! positions and processes *all* filters for it, group by group (one or two
//! filters per compute unit). Every input-chunk broadcast is an implicit
//! barrier across the cluster's units: the cluster advances at the pace of
//! its slowest unit for that chunk. A unit's chunk work is the popcount of
//! the ANDed SparseMaps (one MAC per cycle), plus one cycle of broadcast
//! overhead per chunk. Intra-cluster loss is the gap between the barrier
//! time and the units' useful work (covering both density imbalance and
//! idle units when filters run short); inter-cluster loss is the gap to the
//! slowest cluster.
//!
//! Configured one-sided, filters are treated as dense: every unit's chunk
//! work is the input chunk's popcount (no imbalance, but all filter zeros
//! with a non-zero input are multiplied) — the paper's proxy for Cnvlutin,
//! Cambricon-X, and EIE's zero idling.
//!
//! One pass over the output positions times any number of *runs* — one
//! (sparsity, balance) pair each, with its own cluster clocks, tallies,
//! optional probe and optional fault. At each position the pass loads the
//! [`MaskModel`] window and fills its join table once, and every run reads
//! its chunk work from that table, so a layer's schemes share every
//! (position, filter, chunk) join instead of recomputing it per scheme.
//! A run may also time its barriers through a deeper broadcast buffer
//! ([`BufferDepth`], §3.3's "no amount of buffering" tested mechanically),
//! and the Cambricon-S-like baseline is a no-GB run over its shared-mask
//! filters. The joins run on the word-parallel kernels in
//! `sparten_arch::fast` (an AND and a popcount per `u64` word); the
//! structural circuit models remain the oracle those kernels are
//! differentially tested against.

use std::sync::Arc;

use sparten_core::balance::{BalanceMode, GroupAssignment, LayerBalance};
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::Workload;
use sparten_telemetry::{Histogram, StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::{Probe, StallTally, POSITION_SPAN_LIMIT};
use crate::workmodel::{MaskModel, WorkTable};

/// Which sparsity the datapath exploits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Sparsity {
    /// Feature-map sparsity only (filters stored and computed dense).
    OneSided,
    /// Full two-sided sparsity (the real SparTen).
    TwoSided,
}

/// Per-chunk broadcast/setup overhead in cycles, charged by every
/// chunk-barrier simulator and by the analytical model.
pub const CHUNK_OVERHEAD: u64 = 1;

/// Broadcast-buffer depth: how many chunks a unit may run ahead of the
/// slowest unit of its group. `Bounded(1)` is the strict per-chunk barrier;
/// `Unbounded` removes the coupling within a group entirely.
///
/// Within one filter group the same unit holds the same (denser or
/// sparser) filter for *every* input chunk, so its deficit is systematic:
/// deeper buffers smooth chunk-level noise but converge to the densest
/// unit's total work, which only greedy balancing reduces. Group
/// boundaries drain the pipeline (filters swap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferDepth {
    /// The broadcast may run at most this many chunks ahead.
    Bounded(usize),
    /// Unlimited run-ahead within a group.
    Unbounded,
}

/// Simulates one layer on the SparTen microarchitecture.
///
/// `mode` is forced to [`BalanceMode::None`] for one-sided runs (filter
/// density is uniform when filters are dense, so GB is moot).
pub fn simulate_sparten(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    sparsity: Sparsity,
    mode: BalanceMode,
) -> SimResult {
    let balance = layer_balance(workload, config, sparsity, mode);
    simulate_sparten_with_balance(workload, model, config, sparsity, balance)
}

/// Simulates with an explicit balance assignment (e.g. k-way collocation
/// from [`LayerBalance::with_collocation`]).
pub fn simulate_sparten_with_balance(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    sparsity: Sparsity,
    balance: LayerBalance,
) -> SimResult {
    let run = Run::new(model, config, sparsity, balance, None, None);
    simulate_sparten_pass(workload, model, config, vec![run])
        .pop()
        .expect("one run, one result")
        .expect("fault-free simulation cannot fail")
}

/// Simulates one layer two-sided once per `(mode, depth)` run: `mode`'s
/// balance timed through a broadcast buffer `depth` chunks deep. Every run
/// reads the joins of one pass; results come back in the order of `runs`,
/// and a `(mode, Bounded(1))` run is exactly [`simulate_sparten`].
///
/// # Panics
///
/// Panics if a depth is `Bounded(0)`.
pub fn simulate_buffered(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    runs: &[(BalanceMode, BufferDepth)],
) -> Vec<SimResult> {
    let positions = workload.shape.out_height() * workload.shape.out_width();
    let runs = runs
        .iter()
        .map(|&(mode, depth)| {
            let balance = layer_balance(workload, config, Sparsity::TwoSided, mode);
            Run::new(model, config, Sparsity::TwoSided, balance, None, None)
                .with_buffer(depth, positions)
        })
        .collect();
    simulate_sparten_pass(workload, model, config, runs)
        .into_iter()
        .map(|r| r.expect("fault-free simulation cannot fail"))
        .collect()
}

/// The assignment a scheme runs under: `mode` balanced over the configured
/// cluster, or no balancing for one-sided runs.
pub(crate) fn layer_balance(
    workload: &Workload,
    config: &SimConfig,
    sparsity: Sparsity,
    mode: BalanceMode,
) -> LayerBalance {
    let mode = match sparsity {
        Sparsity::OneSided => BalanceMode::None,
        Sparsity::TwoSided => mode,
    };
    let cluster = &config.accel.cluster;
    LayerBalance::new(
        &workload.filters,
        cluster.compute_units,
        cluster.chunk_size,
        mode,
    )
}

/// Times every run in one pass over the layer's output positions; results
/// come back in the order of `runs`.
///
/// Each position's join table is filled once and read by every run. A pass
/// with a two-sided run fills every table, so it also sums the layer's
/// two-sided MACs and stores them in `model` (see
/// [`MaskModel::total_sparse_macs`]). A run whose stuck unit fails stops
/// there; the pass stops once every run has failed.
pub(crate) fn simulate_sparten_pass(
    workload: &Workload,
    model: &MaskModel,
    config: &SimConfig,
    mut runs: Vec<Run<'_>>,
) -> Vec<Result<SimResult, SimError>> {
    if runs.is_empty() {
        return Vec::new();
    }
    let shape = &workload.shape;
    let num_clusters = config.accel.num_clusters;
    let oh = shape.out_height();
    let positions = oh * shape.out_width();

    let fill = runs.iter().any(|r| r.sparsity == Sparsity::TwoSided);
    let mut table = model.work_table();
    let mut macs = 0u64;

    'pass: for cluster in 0..num_clusters {
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        for run in &mut runs {
            run.begin_cluster(cluster);
        }
        for p in lo..hi {
            if runs.iter().all(|r| r.failed.is_some()) {
                break 'pass;
            }
            // One position is one chunk batch; a serve request whose
            // deadline expired (or whose last subscriber hung up) stops
            // here instead of finishing the layer.
            sparten_telemetry::cancel::checkpoint();
            model.load_window(p % oh, p / oh, &mut table);
            if fill {
                macs += model.fill_joins(&mut table);
            }
            for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
                run.position(p, &table);
            }
        }
        for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
            run.end_cluster();
        }
    }
    if fill && runs.iter().any(|r| r.failed.is_none()) {
        model.store_total_sparse_macs(macs);
    }
    runs.into_iter()
        .map(|run| run.finish(workload, model, config))
        .collect()
}

/// A run's unit assignment, flattened for the per-position loop: every
/// chunk barrier of every group with a busy unit, in simulation order
/// (group-major, chunk-minor), as `units × depth` join-table indices — each
/// unit's filters padded to the collocation depth with the table's
/// always-zero entry, so an idle unit or slot reads zero work.
pub(crate) struct Schedule {
    /// Busy units of each scheduled group (the one-sided barrier width).
    busy_units: Vec<u64>,
    /// Filters a unit holds at most (1, or the collocation depth).
    pub(crate) depth: usize,
    /// The join-table index `f · chunks + c` of each slot.
    pub(crate) slots: Vec<u32>,
    /// The index of the join table's always-zero entry.
    empty: u32,
    /// Filter slots joined per position (padding excluded).
    chunk_joins: u64,
    /// Partial sums routed through the permutation network per position.
    permutes: u64,
}

impl Schedule {
    pub(crate) fn new(balance: &LayerBalance, units: usize, filters: usize, chunks: usize) -> Self {
        let index = |i: usize| u32::try_from(i).expect("join table fits u32 indices");
        // Each chunk's per-unit filter lists.
        fn layouts(g: &GroupAssignment, chunks: usize) -> Vec<&[Vec<usize>]> {
            if g.per_chunk_cu.is_empty() {
                vec![&g.per_cu; chunks]
            } else {
                g.per_chunk_cu.iter().map(Vec::as_slice).collect()
            }
        }
        let depth = balance
            .groups
            .iter()
            .flat_map(|g| layouts(g, chunks).into_iter().flatten().map(Vec::len))
            .max()
            .unwrap_or(0);
        let mut s = Schedule {
            busy_units: Vec::new(),
            depth,
            slots: Vec::new(),
            empty: index(filters * chunks),
            chunk_joins: 0,
            permutes: 0,
        };
        for group in &balance.groups {
            let busy_units = group.busy_units();
            if busy_units == 0 {
                continue;
            }
            s.busy_units.push(busy_units as u64);
            for (c, per_unit) in layouts(group, chunks).into_iter().enumerate() {
                assert!(per_unit.len() <= units, "more unit slots than units");
                for u in 0..units {
                    let held = per_unit.get(u).map_or(&[][..], Vec::as_slice);
                    s.slots.extend(held.iter().map(|&f| index(f * chunks + c)));
                    s.slots
                        .extend(std::iter::repeat_n(s.empty, depth - held.len()));
                    s.chunk_joins += held.len() as u64;
                }
            }
            if !group.per_chunk_cu.is_empty() {
                s.permutes += (group.num_filters() * chunks) as u64;
            }
        }
        s
    }
}

/// A broadcast buffer deeper than one chunk. Each scheduled group runs its
/// own stream of (position, chunk) items: a unit starts item `k` once it
/// has finished item `k − 1` and every unit of its group has finished item
/// `k − B`.
struct DeepBuffer {
    /// `B`'s ring length (capped at the layer's items), or 0 if unbounded.
    ring: usize,
    /// Items each group has issued in the cluster being timed.
    items: usize,
    /// Each scheduled group's unit clocks, `groups × units`.
    clocks: Vec<u64>,
    /// Each group's all-units-done times of its last `ring` items,
    /// `groups × ring`.
    done: Vec<u64>,
}

/// One scheme timed by [`simulate_sparten_pass`]: a sparsity and a balance
/// assignment, with its own cluster clocks, stall tallies, optional probe
/// and optional fault.
pub(crate) struct Run<'a> {
    sparsity: Sparsity,
    mode: BalanceMode,
    schedule: Schedule,
    /// Boxed, so a barrier run stays as small as it was: held inline, the
    /// state slowed the `layer/SparTen` bench row by about 12%.
    buffer: Option<Box<DeepBuffer>>,
    chunks: usize,
    units: u64,
    fault: Option<&'a UnitFaultSpec>,
    probe: Option<Probe<'a>>,
    hist_barrier: Option<Arc<Histogram>>,
    cluster_cycles: Vec<u64>,
    cluster_busy: Vec<u64>,
    chunk_joins: u64,
    permute_values: u64,
    failed: Option<SimError>,
    // The cluster being timed.
    cluster: usize,
    unit_fault: Option<&'a UnitFaultSpec>,
    cycles: u64,
    busy: u64,
    tally: StallTally,
    sampled_spans: usize,
}

impl<'a> Run<'a> {
    pub(crate) fn new(
        model: &MaskModel,
        config: &SimConfig,
        sparsity: Sparsity,
        balance: LayerBalance,
        tel: Option<&'a Telemetry>,
        fault: Option<&'a UnitFaultSpec>,
    ) -> Self {
        let mode = balance.mode;
        let probe = tel.map(|t| Probe::new(t, scheme_name(sparsity, mode)));
        let hist_barrier = probe.as_ref().map(|p| p.histogram("hist.chunk_barrier"));
        let units = config.accel.cluster.compute_units;
        let chunks = model.chunks_per_window();
        let num_clusters = config.accel.num_clusters;
        Run {
            sparsity,
            mode,
            schedule: Schedule::new(&balance, units, model.shape().num_filters, chunks),
            buffer: None,
            chunks,
            units: units as u64,
            fault,
            probe,
            hist_barrier,
            cluster_cycles: vec![0; num_clusters],
            cluster_busy: vec![0; num_clusters],
            chunk_joins: 0,
            permute_values: 0,
            failed: None,
            cluster: 0,
            unit_fault: None,
            cycles: 0,
            busy: 0,
            tally: StallTally::default(),
            sampled_spans: 0,
        }
    }

    /// Times this run's barriers through a broadcast buffer `depth` chunks
    /// deep on a layer of `positions` outputs. `Bounded(1)` is the strict
    /// barrier [`Run::time_barriers`] times, so only deeper buffers get
    /// unit clocks.
    fn with_buffer(mut self, depth: BufferDepth, positions: usize) -> Self {
        let ring = match depth {
            BufferDepth::Bounded(0) => panic!("buffer depth must be positive"),
            BufferDepth::Bounded(1) => return self,
            BufferDepth::Bounded(b) => b.min(positions * self.chunks),
            BufferDepth::Unbounded => 0,
        };
        let groups = self.schedule.busy_units.len();
        self.buffer = Some(Box::new(DeepBuffer {
            ring,
            items: 0,
            clocks: vec![0; groups * self.units as usize],
            done: vec![0; groups * ring],
        }));
        self
    }

    fn begin_cluster(&mut self, cluster: usize) {
        self.cluster = cluster;
        self.unit_fault = self.fault.filter(|f| f.cluster == cluster);
        self.cycles = 0;
        self.busy = 0;
        self.tally = StallTally::default();
        self.sampled_spans = 0;
        if let Some(buf) = &mut self.buffer {
            buf.items = 0;
            buf.clocks.fill(0);
            buf.done.fill(0);
        }
    }

    /// Times output position `p` from its work table.
    fn position(&mut self, p: usize, table: &WorkTable) {
        let pos_start = self.cycles;
        let timed = match self.sparsity {
            Sparsity::OneSided => self.one_sided(table),
            Sparsity::TwoSided if self.buffer.is_some() => {
                self.time_buffered(table.joins());
                Ok(())
            }
            Sparsity::TwoSided => self.two_sided(table),
        };
        if let Err(e) = timed {
            self.failed = Some(e);
            return;
        }
        if let Some(pr) = &self.probe {
            if self.sampled_spans < POSITION_SPAN_LIMIT {
                pr.span(
                    self.cluster as u32,
                    "position",
                    pos_start,
                    self.cycles - pos_start,
                    &[("pos", p as u64)],
                );
                self.sampled_spans += 1;
            }
        }
    }

    /// The barrier-visible latency of `w` MACs on the fault's victim unit
    /// `u`: stretched for a slow victim; a stuck victim holding work fails
    /// the layer.
    fn latency(&self, u: usize, w: u64) -> Result<u64, SimError> {
        match self.unit_fault.map(|fa| fa.fault) {
            Some(UnitFault::Slow(k)) => Ok(w * k.max(1)),
            Some(UnitFault::Stuck) if w > 0 => Err(SimError::StuckUnit {
                cluster: self.cluster,
                unit: u,
            }),
            _ => Ok(w),
        }
    }

    fn one_sided(&mut self, table: &WorkTable) -> Result<(), SimError> {
        let units = self.units;
        for g in 0..self.schedule.busy_units.len() {
            let busy_units = self.schedule.busy_units[g];
            for c in 0..self.chunks {
                // Every busy unit multiplies the input chunk's non-zeros.
                let w = table.input(c) as u64;
                // The broadcast barrier advances at the victim's stretched
                // latency; useful work is unchanged.
                let barrier = match self.unit_fault {
                    Some(fa) if (fa.unit as u64) < busy_units => self.latency(fa.unit, w)?,
                    _ => w,
                };
                self.cycles += barrier + CHUNK_OVERHEAD;
                self.busy += w * busy_units;
                if let Some(h) = &self.hist_barrier {
                    // All busy units share the input's popcount; idle lanes,
                    // the broadcast overhead, and any straggler stretch are
                    // the intra losses.
                    self.tally.prefix_encoder_wait += CHUNK_OVERHEAD * units;
                    self.tally.unit_underfill += barrier * (units - busy_units);
                    self.tally.chunk_barrier_idle += (barrier - w) * busy_units;
                    h.record(barrier);
                }
            }
            self.chunk_joins += busy_units * self.chunks as u64;
        }
        Ok(())
    }

    fn two_sided(&mut self, table: &WorkTable) -> Result<(), SimError> {
        // Constant depths let the unit loop unroll; each arm instantiates
        // the same loop.
        match self.schedule.depth {
            1 => self.time_barriers(table.joins(), 1),
            2 => self.time_barriers(table.joins(), 2),
            depth => self.time_barriers(table.joins(), depth),
        }
    }

    /// Times the schedule's chunk barriers, each unit holding `depth` slots.
    #[inline(always)]
    fn time_barriers(&mut self, joins: &[u16], depth: usize) -> Result<(), SimError> {
        let work = |held: &[u32]| -> u64 { held.iter().map(|&i| joins[i as usize] as u64).sum() };
        let (mut cycles, mut busy) = (0u64, 0u64);
        let width = self.units as usize * depth;
        for barrier in self.schedule.slots.chunks_exact(width) {
            let mut chunk_max = 0u64;
            for held in barrier.chunks_exact(depth) {
                let w = work(held);
                busy += w;
                chunk_max = chunk_max.max(w);
            }
            // The barrier sees each unit's *latency*: its true work,
            // stretched for a slow victim.
            if let Some(fa) = self.unit_fault {
                if let Some(held) = barrier.chunks_exact(depth).nth(fa.unit) {
                    chunk_max = chunk_max.max(self.latency(fa.unit, work(held))?);
                }
            }
            cycles += chunk_max + CHUNK_OVERHEAD;
            if let Some(h) = &self.hist_barrier {
                let t = &mut self.tally;
                t.prefix_encoder_wait += CHUNK_OVERHEAD * self.units;
                for held in barrier.chunks_exact(depth) {
                    let w = work(held);
                    if held[0] == self.schedule.empty {
                        // No filter assigned: idle lane.
                        t.unit_underfill += chunk_max;
                    } else if w == 0 {
                        // Held filters, but the mask AND came up empty
                        // for this chunk.
                        t.empty_mask_and += chunk_max;
                    } else {
                        t.chunk_barrier_idle += chunk_max - w;
                    }
                }
                h.record(chunk_max);
            }
        }
        self.cycles += cycles;
        self.busy += busy;
        self.chunk_joins += self.schedule.chunk_joins;
        self.permute_values += self.schedule.permutes;
        Ok(())
    }

    /// Times the schedule's chunk barriers as items of a [`DeepBuffer`]:
    /// each unit advances its own clock by its work plus the chunk
    /// overhead, waiting only for its group's item `B` back.
    fn time_buffered(&mut self, joins: &[u16]) {
        let buf = self.buffer.as_mut().expect("a deep-buffer run");
        let (units, depth, ring) = (self.units as usize, self.schedule.depth, buf.ring);
        for (i, barrier) in self.schedule.slots.chunks_exact(units * depth).enumerate() {
            let (g, item) = (i / self.chunks, buf.items + i % self.chunks);
            // The ring slot of item `k − B`, which item `k` then takes.
            let slot = (ring > 0).then(|| g * ring + item % ring);
            let issue = match slot {
                Some(s) if item >= ring => buf.done[s],
                _ => 0,
            };
            let mut item_done = 0u64;
            let clocks = &mut buf.clocks[g * units..(g + 1) * units];
            for (t, held) in clocks.iter_mut().zip(barrier.chunks_exact(depth)) {
                let w: u64 = held.iter().map(|&s| joins[s as usize] as u64).sum();
                self.busy += w;
                *t = (*t).max(issue) + w + CHUNK_OVERHEAD;
                item_done = item_done.max(*t);
            }
            if let Some(s) = slot {
                buf.done[s] = item_done;
            }
        }
        buf.items += self.chunks;
        self.chunk_joins += self.schedule.chunk_joins;
        self.permute_values += self.schedule.permutes;
    }

    fn end_cluster(&mut self) {
        if let Some(buf) = &self.buffer {
            // Group boundaries drain the buffer: the cluster runs each
            // group until its slowest unit is done.
            let groups = buf.clocks.chunks_exact(self.units as usize);
            self.cycles = groups.map(|t| t.iter().max().copied().unwrap_or(0)).sum();
        }
        let (cluster, cycles, busy) = (self.cluster, self.cycles, self.busy);
        self.cluster_cycles[cluster] = cycles;
        self.cluster_busy[cluster] = busy;
        if let Some(pr) = &self.probe {
            pr.thread(cluster as u32, &format!("cluster{cluster}"));
            pr.span(cluster as u32, "cluster", 0, cycles, &[("busy", busy)]);
            if cycles > 0 {
                pr.gauge(
                    "occupancy.cluster_util",
                    busy as f64 / (cycles * self.units) as f64,
                );
            }
            self.tally.emit(pr);
            debug_assert_eq!(self.tally.intra(), cycles * self.units - busy);
        }
    }

    fn finish(
        self,
        workload: &Workload,
        model: &MaskModel,
        config: &SimConfig,
    ) -> Result<SimResult, SimError> {
        if let Some(e) = self.failed {
            return Err(e);
        }
        let shape = &workload.shape;
        let (sparsity, units) = (self.sparsity, self.units);
        let positions = shape.out_height() * shape.out_width();
        let total_macs: u64 = self.cluster_busy.iter().sum(); // MACs the datapath executes

        // Useful (both-non-zero) MACs: equal to the executed MACs for
        // two-sided; for one-sided the gap is zero computation.
        let nonzero_macs = match sparsity {
            Sparsity::TwoSided => total_macs,
            Sparsity::OneSided => model.total_sparse_macs(),
        };
        let (makespan, breakdown) = Breakdown::from_clusters(
            &self.cluster_cycles,
            &self.cluster_busy,
            units,
            nonzero_macs,
        );

        let traffic = Traffic::sparten(
            shape,
            model.input_nnz() as f64,
            model.weight_nnz() as f64,
            sparsity,
            config,
        );
        let memory_cycles = config.memory.cycles(&traffic);

        if let Some(pr) = &self.probe {
            pr.work(breakdown.nonzero, breakdown.zero);
            pr.stall(StallCause::ClusterIdle, breakdown.inter);
            // Registered at zero: the analytic model assumes a perfect
            // output collector, but the taxonomy slot stays visible in
            // reports.
            pr.stall(StallCause::OutputBackpressure, 0);
            pr.traffic(&traffic);
            pr.count("trace.chunk_joins", self.chunk_joins);
            pr.gauge("occupancy.makespan_cycles", makespan as f64);
        }

        let prefix_per_join = match sparsity {
            Sparsity::OneSided => 1,
            Sparsity::TwoSided => 2,
        };
        Ok(SimResult {
            scheme: scheme_name(sparsity, self.mode),
            compute_cycles: makespan,
            memory_cycles,
            total_units: units * self.cluster_cycles.len() as u64,
            breakdown,
            traffic,
            ops: OpCounts {
                macs_nonzero: breakdown.nonzero,
                macs_zero: breakdown.zero,
                buffer_accesses: 3 * total_macs,
                prefix_ops: prefix_per_join * self.chunk_joins,
                encoder_ops: total_macs,
                permute_values: self.permute_values,
                compact_ops: (positions * shape.num_filters) as u64,
                crossbar_ops: 0,
            },
        })
    }
}

fn scheme_name(sparsity: Sparsity, mode: BalanceMode) -> &'static str {
    match (sparsity, mode) {
        (Sparsity::OneSided, _) => "One-sided",
        (Sparsity::TwoSided, BalanceMode::None) => "SparTen-no-GB",
        (Sparsity::TwoSided, BalanceMode::GbS) => "SparTen-GB-S",
        (Sparsity::TwoSided, BalanceMode::GbH) => "SparTen",
        (Sparsity::TwoSided, BalanceMode::GbSNoColloc) => "SparTen-GB-S-nocolloc",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_layer, try_simulate_layer, Scheme};
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    fn test_config() -> SimConfig {
        let mut c = SimConfig::small();
        c.accel.num_clusters = 2;
        c.accel.cluster.compute_units = 4;
        c
    }

    fn test_workload() -> Workload {
        let shape = ConvShape::new(70, 6, 6, 3, 8, 1, 1);
        workload(&shape, 0.4, 0.35, 11)
    }

    #[test]
    fn accounting_identity_holds_for_all_modes() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        for (s, mode) in [
            (Sparsity::OneSided, BalanceMode::None),
            (Sparsity::TwoSided, BalanceMode::None),
            (Sparsity::TwoSided, BalanceMode::GbS),
            (Sparsity::TwoSided, BalanceMode::GbH),
        ] {
            let r = simulate_sparten(&w, &m, &cfg, s, mode);
            assert!(r.accounting_holds(), "{}: accounting broken", r.scheme);
        }
    }

    #[test]
    fn two_sided_beats_one_sided() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = simulate_sparten(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        let two = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(two.cycles() < one.cycles());
    }

    #[test]
    fn gb_improves_or_matches_makespan() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let none = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::None);
        let gbs = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbS);
        let gbh = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(gbs.compute_cycles <= none.compute_cycles);
        assert!(gbh.compute_cycles <= gbs.compute_cycles);
    }

    #[test]
    fn one_sided_has_zero_compute_component() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = simulate_sparten(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        assert!(one.breakdown.zero > 0);
        let two = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert_eq!(two.breakdown.zero, 0);
        assert_eq!(one.breakdown.nonzero, two.breakdown.nonzero);
    }

    #[test]
    fn one_sided_transfers_filter_zeros() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let one = simulate_sparten(&w, &m, &cfg, Sparsity::OneSided, BalanceMode::None);
        let two = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(one.traffic.zero_value_bytes > 0.0);
        assert_eq!(two.traffic.zero_value_bytes, 0.0);
        assert!(two.traffic.filter_bytes < one.traffic.filter_bytes);
    }

    #[test]
    fn gbh_routes_permute_values() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let gbh = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(gbh.ops.permute_values > 0);
        let gbs = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbS);
        assert_eq!(gbs.ops.permute_values, 0);
    }

    #[test]
    fn slow_unit_preserves_work_but_stretches_latency() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Slow(4),
        };
        for scheme in [Scheme::OneSided, Scheme::SpartenNoGb] {
            let clean = simulate_layer(&w, &m, &cfg, scheme);
            let slow = try_simulate_layer(&w, &m, &cfg, scheme, Some(&fault))
                .expect("slow unit is not a detection failure");
            // The straggler stretches latency only: true work is untouched,
            // and the cycle-accounting identity still closes exactly.
            assert_eq!(slow.breakdown.nonzero, clean.breakdown.nonzero);
            assert_eq!(slow.breakdown.zero, clean.breakdown.zero);
            assert!(slow.compute_cycles > clean.compute_cycles);
            assert!(slow.accounting_holds());
        }
    }

    #[test]
    fn stuck_unit_with_work_is_detected() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let err = try_simulate_layer(&w, &m, &cfg, Scheme::SpartenNoGb, Some(&fault))
            .expect_err("a stuck unit holding work must surface as an error");
        assert!(matches!(
            err,
            sparten_core::SimError::StuckUnit { cluster: 0, unit: 0 }
        ));
    }

    #[test]
    fn fault_on_absent_cluster_is_masked() {
        let w = test_workload();
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let clean = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        let fault = UnitFaultSpec {
            cluster: 999,
            unit: 0,
            fault: UnitFault::Stuck,
        };
        let faulted = try_simulate_layer(&w, &m, &cfg, Scheme::SpartenGbH, Some(&fault))
            .expect("a fault outside the array cannot fire");
        assert_eq!(faulted.compute_cycles, clean.compute_cycles);
        assert_eq!(faulted.breakdown, clean.breakdown);
    }

    #[test]
    fn fpga_bandwidth_can_make_memory_bound() {
        // A very sparse layer on the FPGA's thin memory: compute shrinks
        // quadratically, traffic only linearly.
        let shape = ConvShape::new(256, 8, 8, 3, 32, 1, 1);
        let w = workload(&shape, 0.1, 0.1, 13);
        let mut cfg = SimConfig::fpga();
        cfg.memory.bytes_per_cycle = 0.5;
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let r = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::GbH);
        assert!(r.is_memory_bound());
    }

    fn buffer_setup() -> (Workload, SimConfig, MaskModel) {
        let shape = ConvShape::new(96, 8, 8, 3, 16, 1, 1);
        let w = workload(&shape, 0.35, 0.35, 29);
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 8;
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        (w, cfg, m)
    }

    #[test]
    fn depth_one_matches_the_barrier_simulator() {
        let (w, cfg, m) = buffer_setup();
        let runs = [(BalanceMode::None, BufferDepth::Bounded(1))];
        let buffered = simulate_buffered(&w, &m, &cfg, &runs);
        let barrier = simulate_sparten(&w, &m, &cfg, Sparsity::TwoSided, BalanceMode::None);
        // Same semantics: issue gated on everyone finishing the previous
        // chunk, with the same overhead per chunk.
        assert_eq!(buffered, [barrier]);
    }

    #[test]
    fn deeper_buffers_never_hurt() {
        let (w, cfg, m) = buffer_setup();
        let depths = [1usize, 2, 4, 8, 32].map(BufferDepth::Bounded);
        let runs: Vec<_> = depths
            .into_iter()
            .chain([BufferDepth::Unbounded])
            .map(|depth| (BalanceMode::None, depth))
            .collect();
        let results = simulate_buffered(&w, &m, &cfg, &runs);
        let cycles: Vec<u64> = results.iter().map(|r| r.compute_cycles).collect();
        assert!(cycles.windows(2).all(|p| p[1] <= p[0]), "{cycles:?}");
        assert!(results.iter().all(SimResult::accounting_holds));
    }

    #[test]
    fn unbounded_buffering_cannot_beat_greedy_balancing() {
        // The paper's claim: the imbalance is systematic — even infinite
        // input buffering leaves no-GB behind GB-H at the per-chunk barrier.
        let (w, cfg, m) = buffer_setup();
        let runs = [
            (BalanceMode::None, BufferDepth::Unbounded),
            (BalanceMode::GbH, BufferDepth::Bounded(1)),
        ];
        let [no_gb_infinite, gbh_strict] = &simulate_buffered(&w, &m, &cfg, &runs)[..] else {
            panic!("two runs, two results");
        };
        assert!(
            gbh_strict.compute_cycles < no_gb_infinite.compute_cycles,
            "GB-H@B=1 {} !< no-GB@B=inf {}",
            gbh_strict.compute_cycles,
            no_gb_infinite.compute_cycles
        );
    }

    #[test]
    fn useful_work_is_depth_invariant() {
        let (w, cfg, m) = buffer_setup();
        let runs = [
            (BalanceMode::GbS, BufferDepth::Bounded(1)),
            (BalanceMode::GbS, BufferDepth::Unbounded),
        ];
        let [a, b] = &simulate_buffered(&w, &m, &cfg, &runs)[..] else {
            panic!("two runs, two results");
        };
        assert_eq!(a.breakdown.nonzero, b.breakdown.nonzero);
        assert!(b.breakdown_fractions()[0] >= a.breakdown_fractions()[0]);
    }
}
