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
//! optional probe and optional fault. The pass takes the positions sixteen
//! at a time: it loads the batch's [`MaskModel`] windows and fills their
//! lane-major join table once, and every run reads its chunk work from that
//! table, so a layer's schemes share every (position, filter, chunk) join
//! instead of recomputing it per scheme. A run times its barriers for all
//! sixteen positions at once — a unit's work is a sum of 16-lane `u16`
//! join rows and a barrier their lanewise maximum, which compile to vector
//! adds and maxes — and then folds each position into the cluster that
//! owns it, in position order, so a batch may span several clusters.
//! Faults, stall tallies and sampled spans stay per position.
//! A run may also time its barriers through a deeper broadcast buffer
//! ([`BufferDepth`], §3.3's "no amount of buffering" tested mechanically),
//! and the Cambricon-S-like baseline is a no-GB run over its shared-mask
//! filters. A join is an AND and a popcount per `u64` word, the
//! word-parallel method of `sparten_arch::fast`; the structural circuit
//! models remain the oracle those kernels are differentially tested
//! against.

use std::ops::Range;
use std::sync::Arc;

use sparten_core::balance::{BalanceMode, GroupAssignment, LayerBalance};
use sparten_core::SimError;
use sparten_faults::{UnitFault, UnitFaultSpec};
use sparten_nn::generate::Workload;
use sparten_telemetry::{Histogram, StallCause, Telemetry};

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::probe::{Probe, StallTally, POSITION_SPAN_LIMIT};
use crate::workmodel::{MaskModel, WorkTable, LANES};

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
///
/// One cycle is a modelling assumption, not a derived cost: it charges the
/// chunk broadcast, and it does not charge the fill of the unit's join
/// pipeline (mask update → priority encode → prefix-sum offset → operand
/// fetch → MAC). The model takes §5.3 at its word, "the sparse computation
/// latency overheads do not hurt performance due to simple pipelining",
/// and assumes each chunk's matches enter the pipe behind the previous
/// chunk's, so the fill is never exposed. `sparten_arch::JoinPipeline`
/// models the drained case, where a non-empty chunk costs
/// `stages + matches` cycles; no simulator uses it, and no test ties this
/// value to it. The value stays at one because the goldens in `results/`
/// rest on it.
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
/// The pass walks the positions in batches of sixteen, in cluster order
/// (each cluster owns a contiguous slice, so that is simply position
/// order), and a batch may span several clusters. Each batch's join table
/// is filled once and read by every run, which times all of the batch's
/// positions at once and then folds each position into the cluster that
/// owns it. A pass with a two-sided run fills every table, so it also
/// sums the layer's two-sided MACs and stores them in `model` (see
/// [`MaskModel::total_sparse_macs`]). A run whose stuck unit fails stops
/// at that position; the pass stops once every run has failed.
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
    let positions = shape.out_height() * shape.out_width();

    let fill = runs.iter().any(|r| r.sparsity == Sparsity::TwoSided);
    let mut table = model.work_table();
    let mut macs = 0u64;

    for first in (0..positions).step_by(LANES) {
        if runs.iter().all(|r| r.failed.is_some()) {
            break;
        }
        // One batch is the unit of cancellation: a serve request whose
        // deadline expired (or whose last subscriber hung up) stops here
        // instead of finishing the layer.
        sparten_telemetry::cancel::checkpoint();
        model.load_windows(first, &mut table);
        if fill {
            macs += model.fill_joins(&mut table);
        }
        for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
            run.batch(&table);
        }
    }
    for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
        run.close_clusters();
    }
    if fill && runs.iter().any(|r| r.failed.is_none()) {
        model.store_total_sparse_macs(macs);
    }
    runs.into_iter()
        .map(|run| run.finish(workload, model, config))
        .collect()
}

/// The slices of output positions the clusters own (§3.2): cluster `c`
/// owns positions `positions · c / clusters ..` up to the next cluster's
/// start, so a cluster may own none.
#[derive(Debug, Clone, Copy)]
struct Slices {
    positions: usize,
    clusters: usize,
}

impl Slices {
    /// The first position of cluster `c`'s slice (`positions` past the
    /// last cluster).
    fn start(&self, c: usize) -> usize {
        self.positions * c / self.clusters
    }
}

/// A run's unit assignment, flattened for the barrier loop: every chunk
/// barrier of every group with a busy unit, in simulation order
/// (group-major, chunk-minor), as `units × depth` join-table row indices —
/// each unit's filters padded to the collocation depth with the table's
/// always-zero row, so an idle unit or slot reads zero work.
pub(crate) struct Schedule {
    /// Busy units of each scheduled group (the one-sided barrier width).
    busy_units: Vec<u64>,
    /// Filters a unit holds at most (1, or the collocation depth).
    pub(crate) depth: usize,
    /// The join-table row `f · chunks + c` of each slot.
    pub(crate) slots: Vec<u32>,
    /// The index of the join table's always-zero row.
    empty: u32,
    /// Filter slots joined per position (padding excluded).
    chunk_joins: u64,
    /// Partial sums routed through the permutation network per position.
    permutes: u64,
}

impl Schedule {
    /// The schedule of `balance` over clusters of `units` units, reading
    /// `model`'s join table.
    ///
    /// # Panics
    ///
    /// Panics if a unit's work at one barrier (`depth × chunk_size` MACs
    /// at most), or a position's cycles or busy MACs, could overflow the
    /// barrier loop's `u16` and `u32` lanes.
    pub(crate) fn new(balance: &LayerBalance, units: usize, model: &MaskModel) -> Self {
        let (filters, chunks) = (model.shape().num_filters, model.chunks_per_window());
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
        let chunk = model.chunk_size() as u64;
        let unit_max = depth as u64 * chunk;
        assert!(
            unit_max <= u16::MAX as u64,
            "a unit holding {depth} filters can do {unit_max} MACs at one \
             {chunk}-wide chunk barrier, more than a u16 work lane holds"
        );
        let barriers = (s.slots.len() / (units * depth).max(1)) as u64;
        assert!(
            barriers * (unit_max + CHUNK_OVERHEAD) <= u32::MAX as u64
                && s.chunk_joins * chunk <= u32::MAX as u64,
            "a position's {barriers} chunk barriers can take more cycles or \
             MACs than a u32 lane holds"
        );
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

/// A unit fault as one batch sees it: the victim unit, acting only on
/// the lanes whose positions the victim's cluster owns.
struct Victim {
    unit: usize,
    fault: UnitFault,
    lanes: [bool; LANES],
}

impl Victim {
    /// The fault's victim in the batch of `positions`, if its cluster owns
    /// any of them.
    fn new(spec: &UnitFaultSpec, positions: Range<usize>, slices: &Slices) -> Option<Self> {
        if spec.cluster >= slices.clusters {
            return None;
        }
        let owned = slices.start(spec.cluster)..slices.start(spec.cluster + 1);
        let lanes = std::array::from_fn(|l| {
            let p = positions.start + l;
            positions.contains(&p) && owned.contains(&p)
        });
        lanes.contains(&true).then_some(Victim {
            unit: spec.unit,
            fault: spec.fault,
            lanes,
        })
    }

    /// Raises one barrier's lane `time`s to the victim's latency for its
    /// work `w`: `k` cycles a MAC for a slow victim. A stuck victim holding
    /// work marks its lane `stuck` instead.
    fn stretch(&self, w: &[u16; LANES], time: &mut [u64; LANES], stuck: &mut [bool; LANES]) {
        for l in (0..LANES).filter(|&l| self.lanes[l]) {
            match self.fault {
                UnitFault::Slow(k) => time[l] = time[l].max(w[l] as u64 * k.max(1)),
                UnitFault::Stuck => stuck[l] |= w[l] > 0,
            }
        }
    }
}

/// What one batch adds to each lane's position, before the lanes are
/// folded into their clusters.
#[derive(Debug, Default, PartialEq)]
struct LaneTimes {
    cycles: [u64; LANES],
    busy: [u64; LANES],
    /// Lanes where a stuck victim held work: the run fails at the first.
    stuck: [bool; LANES],
    /// Each lane's stall tally (traced runs only).
    tally: [StallTally; LANES],
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
    slices: Slices,
    fault: Option<&'a UnitFaultSpec>,
    probe: Option<Probe<'a>>,
    hist_barrier: Option<Arc<Histogram>>,
    cluster_cycles: Vec<u64>,
    cluster_busy: Vec<u64>,
    /// Filter slots joined, and partial sums permuted, per position.
    position_joins: u64,
    position_permutes: u64,
    chunk_joins: u64,
    permute_values: u64,
    failed: Option<SimError>,
    // The cluster being timed.
    cluster: usize,
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
        assert!(num_clusters > 0, "need at least one cluster");
        let shape = model.shape();
        let schedule = Schedule::new(&balance, units, model);
        let (position_joins, position_permutes) = match sparsity {
            // Every busy unit of every group joins every input chunk.
            Sparsity::OneSided => (schedule.busy_units.iter().sum::<u64>() * chunks as u64, 0),
            Sparsity::TwoSided => (schedule.chunk_joins, schedule.permutes),
        };
        Run {
            sparsity,
            mode,
            schedule,
            buffer: None,
            chunks,
            units: units as u64,
            slices: Slices {
                positions: shape.out_height() * shape.out_width(),
                clusters: num_clusters,
            },
            fault,
            probe,
            hist_barrier,
            cluster_cycles: vec![0; num_clusters],
            cluster_busy: vec![0; num_clusters],
            position_joins,
            position_permutes,
            chunk_joins: 0,
            permute_values: 0,
            failed: None,
            cluster: 0,
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

    /// Closes the clusters before the one that owns position `p` (those
    /// that own no position too) and opens it.
    fn advance_to(&mut self, p: usize) {
        while p >= self.slices.start(self.cluster + 1) {
            self.end_cluster();
            self.begin_cluster(self.cluster + 1);
        }
    }

    /// Closes the cluster being timed and every cluster after it.
    fn close_clusters(&mut self) {
        while self.cluster + 1 < self.slices.clusters {
            self.end_cluster();
            self.begin_cluster(self.cluster + 1);
        }
        self.end_cluster();
    }

    /// Times the batch of positions in `table`, then folds each lane's
    /// position into the cluster that owns it, in position order. A
    /// deep-buffer run carries its unit clocks from one position to the
    /// next, so it times the lanes one after another.
    fn batch(&mut self, table: &WorkTable) {
        let positions = table.positions();
        if self.buffer.is_some() {
            for (lane, p) in positions.enumerate() {
                self.advance_to(p);
                let busy = self.time_buffered(table.joins(), lane);
                self.fold(p, 0, busy);
            }
            return;
        }
        let victim = self
            .fault
            .and_then(|f| Victim::new(f, positions.clone(), &self.slices));
        let mut times = LaneTimes::default();
        let lanes = positions.len();
        match self.sparsity {
            Sparsity::OneSided => {
                self.one_sided(table.inputs(), victim.as_ref(), lanes, &mut times)
            }
            Sparsity::TwoSided => self.two_sided(table.joins(), victim.as_ref(), lanes, &mut times),
        }
        for (lane, p) in positions.enumerate() {
            self.advance_to(p);
            if let (true, Some(v)) = (times.stuck[lane], &victim) {
                self.failed = Some(SimError::StuckUnit {
                    cluster: self.cluster,
                    unit: v.unit,
                });
                return;
            }
            self.tally += times.tally[lane];
            self.fold(p, times.cycles[lane], times.busy[lane]);
        }
    }

    /// Adds position `p`'s cycles and busy MACs to its cluster, and samples
    /// its span from the cluster's clock before it.
    fn fold(&mut self, p: usize, cycles: u64, busy: u64) {
        let pos_start = self.cycles;
        self.cycles += cycles;
        self.busy += busy;
        self.chunk_joins += self.position_joins;
        self.permute_values += self.position_permutes;
        if let Some(pr) = &self.probe {
            if self.sampled_spans < POSITION_SPAN_LIMIT {
                pr.span(
                    self.cluster as u32,
                    "position",
                    pos_start,
                    cycles,
                    &[("pos", p as u64)],
                );
                self.sampled_spans += 1;
            }
        }
    }

    /// Times one-sided barriers: one per (group, chunk), at which every
    /// busy unit multiplies the input chunk's non-zeros.
    fn one_sided(
        &self,
        inputs: &[[u16; LANES]],
        victim: Option<&Victim>,
        lanes: usize,
        times: &mut LaneTimes,
    ) {
        let units = self.units;
        for &busy_units in &self.schedule.busy_units {
            let victim = victim.filter(|v| (v.unit as u64) < busy_units);
            for w in inputs {
                // The broadcast barrier advances at the victim's stretched
                // latency; useful work is unchanged.
                let mut time = w.map(u64::from);
                if let Some(v) = victim {
                    v.stretch(w, &mut time, &mut times.stuck);
                }
                for l in 0..LANES {
                    times.cycles[l] += time[l] + CHUNK_OVERHEAD;
                    times.busy[l] += w[l] as u64 * busy_units;
                }
                if let Some(h) = &self.hist_barrier {
                    for (l, t) in times.tally.iter_mut().enumerate().take(lanes) {
                        // All busy units share the input's popcount; idle
                        // units, the broadcast overhead, and any straggler
                        // stretch are the intra losses.
                        t.prefix_encoder_wait += CHUNK_OVERHEAD * units;
                        t.unit_underfill += time[l] * (units - busy_units);
                        t.chunk_barrier_idle += (time[l] - w[l] as u64) * busy_units;
                        h.record(time[l]);
                    }
                }
            }
        }
    }

    /// Times the schedule's chunk barriers on the portable loop, or on the
    /// same loop compiled for AVX2 when the CPU has it.
    fn two_sided(
        &self,
        joins: &[[u16; LANES]],
        victim: Option<&Victim>,
        lanes: usize,
        times: &mut LaneTimes,
    ) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the CPU has AVX2.
            return unsafe { self.two_sided_avx2(joins, victim, lanes, times) };
        }
        self.two_sided_arms(joins, victim, lanes, times)
    }

    /// [`Run::two_sided_arms`] compiled for AVX2: a 16-lane `u16` row is
    /// one register.
    ///
    /// # Safety
    ///
    /// The CPU must have AVX2.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn two_sided_avx2(
        &self,
        joins: &[[u16; LANES]],
        victim: Option<&Victim>,
        lanes: usize,
        times: &mut LaneTimes,
    ) {
        self.two_sided_arms(joins, victim, lanes, times)
    }

    /// Constant depths let the unit loop unroll, and a run with neither a
    /// victim in the batch nor a probe skips the latency and stall
    /// bookkeeping; each arm instantiates the same loop.
    #[inline(always)]
    fn two_sided_arms(
        &self,
        joins: &[[u16; LANES]],
        victim: Option<&Victim>,
        lanes: usize,
        times: &mut LaneTimes,
    ) {
        let hist = self.hist_barrier.as_deref();
        match (self.schedule.depth, victim.is_none() && hist.is_none()) {
            (1, true) => self.time_barriers(joins, 1, None, None, lanes, times),
            (2, true) => self.time_barriers(joins, 2, None, None, lanes, times),
            (depth, true) => self.time_barriers(joins, depth, None, None, lanes, times),
            (depth, false) => self.time_barriers(joins, depth, victim, hist, lanes, times),
        }
    }

    /// Times the schedule's chunk barriers, each unit holding `depth`
    /// slots, for all sixteen lanes at once: a unit's work is the sum of
    /// its slots' join rows, and the barrier the lanewise maximum.
    #[inline(always)]
    fn time_barriers(
        &self,
        joins: &[[u16; LANES]],
        depth: usize,
        victim: Option<&Victim>,
        hist: Option<&Histogram>,
        lanes: usize,
        times: &mut LaneTimes,
    ) {
        let units = self.units as usize;
        // Per-position sums, bounded to fit by `Schedule::new`.
        let (mut cycles, mut busy) = ([0u32; LANES], [0u32; LANES]);
        for barrier in self.schedule.slots.chunks_exact(units * depth) {
            let mut chunk_max = [0u16; LANES];
            for held in barrier.chunks_exact(depth) {
                let w = unit_work(joins, held);
                for l in 0..LANES {
                    busy[l] += w[l] as u32;
                    chunk_max[l] = chunk_max[l].max(w[l]);
                }
            }
            for l in 0..LANES {
                cycles[l] += chunk_max[l] as u32 + CHUNK_OVERHEAD as u32;
            }
            if victim.is_none() && hist.is_none() {
                continue;
            }
            // The barrier sees each unit's *latency*: its true work,
            // stretched for a slow victim.
            let mut time = chunk_max.map(u64::from);
            if let Some(v) = victim {
                if let Some(held) = barrier.chunks_exact(depth).nth(v.unit) {
                    v.stretch(&unit_work(joins, held), &mut time, &mut times.stuck);
                }
                for l in 0..LANES {
                    times.cycles[l] += time[l] - chunk_max[l] as u64;
                }
            }
            if let Some(h) = hist {
                for (l, t) in times.tally.iter_mut().enumerate().take(lanes) {
                    t.prefix_encoder_wait += CHUNK_OVERHEAD * self.units;
                    for held in barrier.chunks_exact(depth) {
                        let w: u64 = held.iter().map(|&s| joins[s as usize][l] as u64).sum();
                        if held[0] == self.schedule.empty {
                            // No filter assigned: idle unit.
                            t.unit_underfill += time[l];
                        } else if w == 0 {
                            // Held filters, but the mask AND came up empty
                            // for this chunk.
                            t.empty_mask_and += time[l];
                        } else {
                            t.chunk_barrier_idle += time[l] - w;
                        }
                    }
                    h.record(time[l]);
                }
            }
        }
        for l in 0..LANES {
            times.cycles[l] += cycles[l] as u64;
            times.busy[l] += busy[l] as u64;
        }
    }

    /// Times lane `lane`'s position as items of the [`DeepBuffer`]: each
    /// unit advances its own clock by its work plus the chunk overhead,
    /// waiting only for its group's item `B` back. Returns its busy MACs.
    fn time_buffered(&mut self, joins: &[[u16; LANES]], lane: usize) -> u64 {
        let buf = self.buffer.as_mut().expect("a deep-buffer run");
        let (units, depth, ring) = (self.units as usize, self.schedule.depth, buf.ring);
        let mut busy = 0u64;
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
                let w: u64 = held.iter().map(|&s| joins[s as usize][lane] as u64).sum();
                busy += w;
                *t = (*t).max(issue) + w + CHUNK_OVERHEAD;
                item_done = item_done.max(*t);
            }
            if let Some(s) = slot {
                buf.done[s] = item_done;
            }
        }
        buf.items += self.chunks;
        busy
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

/// A unit's work at one barrier, lane by lane: the sum of the join rows
/// its slots name (at most `depth × chunk_size`, which `Schedule::new`
/// bounds to a `u16`).
#[inline(always)]
fn unit_work(joins: &[[u16; LANES]], held: &[u32]) -> [u16; LANES] {
    let mut w = [0u16; LANES];
    for &s in held {
        let row = &joins[s as usize];
        for l in 0..LANES {
            w[l] += row[l];
        }
    }
    w
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
    use sparten_telemetry::chrome_trace;
    use sparten_tensor::Rng64;

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

    /// The pass as it was before positions were batched, kept as the
    /// reference the batched pass must reproduce: clusters in order, one
    /// output position at a time, each run timing that position's lane of
    /// the table with per-position `u64` arithmetic. It shares only the
    /// cluster bookkeeping (`begin_cluster`, `end_cluster`, `finish`) and
    /// the deep buffer's per-lane step with the pass.
    fn reference_pass(
        workload: &Workload,
        model: &MaskModel,
        config: &SimConfig,
        mut runs: Vec<Run<'_>>,
    ) -> Vec<Result<SimResult, SimError>> {
        let shape = &workload.shape;
        let num_clusters = config.accel.num_clusters;
        let positions = shape.out_height() * shape.out_width();
        let mut table = model.work_table();
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
                if !table.positions().contains(&p) {
                    model.load_windows(p, &mut table);
                    model.fill_joins(&mut table);
                }
                let lane = p - table.positions().start;
                for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
                    reference_position(run, p, &table, lane);
                }
            }
            for run in runs.iter_mut().filter(|r| r.failed.is_none()) {
                run.end_cluster();
            }
        }
        runs.into_iter()
            .map(|run| run.finish(workload, model, config))
            .collect()
    }

    /// Times output position `p` (lane `lane` of `table`) the old way.
    fn reference_position(run: &mut Run<'_>, p: usize, table: &WorkTable, lane: usize) {
        let fault = run.fault.filter(|f| f.cluster == run.cluster);
        let pos_start = run.cycles;
        let timed = match run.sparsity {
            Sparsity::OneSided => reference_one_sided(run, fault, table, lane),
            Sparsity::TwoSided if run.buffer.is_some() => {
                let busy = run.time_buffered(table.joins(), lane);
                run.busy += busy;
                run.chunk_joins += run.schedule.chunk_joins;
                run.permute_values += run.schedule.permutes;
                Ok(())
            }
            Sparsity::TwoSided => reference_two_sided(run, fault, table, lane),
        };
        if let Err(e) = timed {
            run.failed = Some(e);
            return;
        }
        if let Some(pr) = &run.probe {
            if run.sampled_spans < POSITION_SPAN_LIMIT {
                let dur = run.cycles - pos_start;
                pr.span(
                    run.cluster as u32,
                    "position",
                    pos_start,
                    dur,
                    &[("pos", p as u64)],
                );
                run.sampled_spans += 1;
            }
        }
    }

    /// The barrier-visible latency of `w` MACs on victim unit `u`.
    fn reference_latency(
        cluster: usize,
        fault: Option<&UnitFaultSpec>,
        u: usize,
        w: u64,
    ) -> Result<u64, SimError> {
        match fault.map(|fa| fa.fault) {
            Some(UnitFault::Slow(k)) => Ok(w * k.max(1)),
            Some(UnitFault::Stuck) if w > 0 => Err(SimError::StuckUnit { cluster, unit: u }),
            _ => Ok(w),
        }
    }

    fn reference_one_sided(
        run: &mut Run<'_>,
        fault: Option<&UnitFaultSpec>,
        table: &WorkTable,
        lane: usize,
    ) -> Result<(), SimError> {
        let units = run.units;
        for g in 0..run.schedule.busy_units.len() {
            let busy_units = run.schedule.busy_units[g];
            for c in 0..run.chunks {
                let w = table.input(c, lane) as u64;
                let barrier = match fault {
                    Some(fa) if (fa.unit as u64) < busy_units => {
                        reference_latency(run.cluster, fault, fa.unit, w)?
                    }
                    _ => w,
                };
                run.cycles += barrier + CHUNK_OVERHEAD;
                run.busy += w * busy_units;
                if let Some(h) = &run.hist_barrier {
                    run.tally.prefix_encoder_wait += CHUNK_OVERHEAD * units;
                    run.tally.unit_underfill += barrier * (units - busy_units);
                    run.tally.chunk_barrier_idle += (barrier - w) * busy_units;
                    h.record(barrier);
                }
            }
            run.chunk_joins += busy_units * run.chunks as u64;
        }
        Ok(())
    }

    fn reference_two_sided(
        run: &mut Run<'_>,
        fault: Option<&UnitFaultSpec>,
        table: &WorkTable,
        lane: usize,
    ) -> Result<(), SimError> {
        let depth = run.schedule.depth;
        let work = |held: &[u32]| -> u64 {
            held.iter()
                .map(|&s| table.joins()[s as usize][lane] as u64)
                .sum()
        };
        let (mut cycles, mut busy) = (0u64, 0u64);
        for barrier in run.schedule.slots.chunks_exact(run.units as usize * depth) {
            let mut chunk_max = 0u64;
            for held in barrier.chunks_exact(depth) {
                let w = work(held);
                busy += w;
                chunk_max = chunk_max.max(w);
            }
            if let Some(fa) = fault {
                if let Some(held) = barrier.chunks_exact(depth).nth(fa.unit) {
                    let latency = reference_latency(run.cluster, fault, fa.unit, work(held))?;
                    chunk_max = chunk_max.max(latency);
                }
            }
            cycles += chunk_max + CHUNK_OVERHEAD;
            if let Some(h) = &run.hist_barrier {
                let t = &mut run.tally;
                t.prefix_encoder_wait += CHUNK_OVERHEAD * run.units;
                for held in barrier.chunks_exact(depth) {
                    let w = work(held);
                    if held[0] == run.schedule.empty {
                        t.unit_underfill += chunk_max;
                    } else if w == 0 {
                        t.empty_mask_and += chunk_max;
                    } else {
                        t.chunk_barrier_idle += chunk_max - w;
                    }
                }
                h.record(chunk_max);
            }
        }
        run.cycles += cycles;
        run.busy += busy;
        run.chunk_joins += run.schedule.chunk_joins;
        run.permute_values += run.schedule.permutes;
        Ok(())
    }

    /// One reference-sweep layer: a seeded shape, densities and
    /// configuration. Cases cycle through the shapes batching must
    /// survive: a plane of fewer than 16 positions, a count that is no
    /// multiple of 16, more clusters than positions, the FPGA's single
    /// cluster, and stride 2 and stride 4 with padding.
    fn reference_case(rng: &mut Rng64, case: usize) -> (Workload, SimConfig) {
        let mut config = SimConfig::small();
        config.accel.cluster.compute_units = 2 + rng.gen_range_usize(0, 7);
        config.accel.cluster.chunk_size = [64, 128, 256, 512][rng.gen_range_usize(0, 4)];
        config.accel.num_clusters = 2 + rng.gen_range_usize(0, 5);
        let (mut side, mut stride, mut pad) = (3 + rng.gen_range_usize(0, 6), 1, 1);
        match case % 6 {
            0 => side = 2 + rng.gen_range_usize(0, 3),
            1 => side = 5 + rng.gen_range_usize(0, 6),
            2 => {
                side = 2 + rng.gen_range_usize(0, 2);
                config.accel.num_clusters = 10 + rng.gen_range_usize(0, 23);
            }
            3 => {
                let chunk = config.accel.cluster.chunk_size;
                config = SimConfig::fpga();
                config.accel.cluster.compute_units = 2 + rng.gen_range_usize(0, 7);
                config.accel.cluster.chunk_size = chunk;
            }
            4 => (side, stride, pad) = (7 + rng.gen_range_usize(0, 8), 2, 1),
            _ => (side, stride, pad) = (9 + rng.gen_range_usize(0, 10), 4, 2),
        }
        let units = config.accel.cluster.compute_units;
        // Sometimes fewer filters than units, so the last units idle.
        let filters = 1 + rng.gen_range_usize(0, 3 * units);
        let channels = 3 + rng.gen_range_usize(0, 200);
        let shape = ConvShape::new(channels, side, side + 1, 3, filters, stride, pad);
        let (di, df) = (rng.gen_range_f64(0.1, 0.8), rng.gen_range_f64(0.1, 0.8));
        (workload(&shape, di, df, rng.next_u64()), config)
    }

    /// The sweep's runs, in one pass: one-sided, the three balance modes,
    /// `k`-deep collocation, and two deep-buffer runs. The first five
    /// record into `sessions` when it is not empty.
    fn reference_runs<'a>(
        w: &Workload,
        model: &MaskModel,
        config: &SimConfig,
        k: usize,
        per_chunk: bool,
        sessions: &'a [Telemetry],
        fault: Option<&'a UnitFaultSpec>,
    ) -> Vec<Run<'a>> {
        let (units, chunk) = (
            config.accel.cluster.compute_units,
            config.accel.cluster.chunk_size,
        );
        let positions = w.shape.out_height() * w.shape.out_width();
        let balance = |s, mode| layer_balance(w, config, s, mode);
        let runs = [
            (
                Sparsity::OneSided,
                balance(Sparsity::OneSided, BalanceMode::None),
            ),
            (
                Sparsity::TwoSided,
                balance(Sparsity::TwoSided, BalanceMode::None),
            ),
            (
                Sparsity::TwoSided,
                balance(Sparsity::TwoSided, BalanceMode::GbS),
            ),
            (
                Sparsity::TwoSided,
                balance(Sparsity::TwoSided, BalanceMode::GbH),
            ),
            (
                Sparsity::TwoSided,
                LayerBalance::with_collocation(&w.filters, units, chunk, k, per_chunk),
            ),
        ];
        let mut runs: Vec<Run<'a>> = runs
            .into_iter()
            .enumerate()
            .map(|(i, (s, b))| Run::new(model, config, s, b, sessions.get(i), fault))
            .collect();
        for (mode, depth) in [
            (BalanceMode::None, BufferDepth::Bounded(2)),
            (BalanceMode::GbH, BufferDepth::Unbounded),
        ] {
            let b = balance(Sparsity::TwoSided, mode);
            let run = Run::new(model, config, Sparsity::TwoSided, b, None, fault);
            runs.push(run.with_buffer(depth, positions));
        }
        runs
    }

    /// The batched pass against the per-position reference, field for
    /// field: every run's whole result; traced, every run's counters,
    /// histograms and timeline; and the outcome with a slow or stuck unit,
    /// with work and idle, in a cluster whose positions straddle a batch
    /// boundary.
    #[test]
    fn batched_pass_matches_per_position_reference() {
        let mut rng = Rng64::seed_from_u64(0x1A4E);
        let cases = if cfg!(feature = "exhaustive-tests") {
            240
        } else {
            24
        };
        for case in 0..cases {
            let (w, config) = reference_case(&mut rng, case);
            let (k, per_chunk) = (1 + rng.gen_range_usize(0, 8), rng.gen_bool(0.5));
            let chunk = config.accel.cluster.chunk_size;
            let at = format!("case {case}: {:?}, {:?}, k = {k}", w.shape, config.accel);
            let pass = |sessions: &[Telemetry], fault: Option<&UnitFaultSpec>, reference: bool| {
                let model = MaskModel::new(&w, chunk);
                let runs = reference_runs(&w, &model, &config, k, per_chunk, sessions, fault);
                if reference {
                    reference_pass(&w, &model, &config, runs)
                } else {
                    simulate_sparten_pass(&w, &model, &config, runs)
                }
            };
            let expect = pass(&[], None, true);
            assert_eq!(pass(&[], None, false), expect, "{at}");

            let sessions = || -> Vec<Telemetry> { (0..5).map(|_| Telemetry::new()).collect() };
            let (batched, reference) = (sessions(), sessions());
            assert_eq!(pass(&batched, None, false), expect, "traced {at}");
            pass(&reference, None, true);
            for (i, (a, b)) in batched.iter().zip(&reference).enumerate() {
                let (sa, sb) = (a.metrics.snapshot(), b.metrics.snapshot());
                assert_eq!(sa, sb, "run {i}, {at}");
                let (ta, tb) = (
                    chrome_trace(&sa, &a.recorder),
                    chrome_trace(&sb, &b.recorder),
                );
                assert_eq!(ta, tb, "run {i}, {at}");
            }

            // The victim's cluster: one that straddles a batch boundary if
            // any does, else the one that owns the middle position.
            let positions = w.shape.out_height() * w.shape.out_width();
            let clusters = config.accel.num_clusters;
            let slices = Slices {
                positions,
                clusters,
            };
            let owns = |c: usize, p: usize| slices.start(c) <= p && p < slices.start(c + 1);
            let cluster = (0..clusters)
                .find(|&c| {
                    (16..positions)
                        .step_by(16)
                        .any(|b| owns(c, b - 1) && owns(c, b))
                })
                .or_else(|| (0..clusters).find(|&c| owns(c, positions / 2)))
                .expect("some cluster owns the middle position");
            let units = config.accel.cluster.compute_units;
            let slow = UnitFault::Slow(2 + rng.gen_range_usize(0, 4) as u64);
            for unit in [0, units - 1] {
                for fault in [slow, UnitFault::Stuck] {
                    let spec = UnitFaultSpec {
                        cluster,
                        unit,
                        fault,
                    };
                    let expect = pass(&[], Some(&spec), true);
                    assert_eq!(pass(&[], Some(&spec), false), expect, "{spec:?}, {at}");
                }
            }
        }
    }

    /// Collocation 8 deep on 512-wide chunks, the widest job the registry
    /// runs: 4096 MACs a unit at one barrier fit the `u16` lanes.
    #[test]
    fn chunk_512_at_depth_8_fits_the_lanes() {
        let shape = ConvShape::new(600, 5, 6, 3, 40, 1, 1);
        let w = workload(&shape, 0.9, 0.9, 5);
        let mut cfg = test_config();
        cfg.accel.cluster.chunk_size = 512;
        let m = MaskModel::new(&w, 512);
        let balance = LayerBalance::with_collocation(&w.filters, 4, 512, 8, true);
        let runs = |m: &MaskModel| {
            let run = Run::new(m, &cfg, Sparsity::TwoSided, balance.clone(), None, None);
            vec![run]
        };
        let got = simulate_sparten_pass(&w, &m, &cfg, runs(&m));
        assert_eq!(got, reference_pass(&w, &m, &cfg, runs(&m)));
    }

    /// A schedule whose unit could exceed a `u16` lane at one barrier is
    /// refused where it is built.
    #[test]
    #[should_panic(expected = "more than a u16 work lane holds")]
    fn schedule_rejects_a_unit_sum_wider_than_a_lane() {
        let shape = ConvShape::new(64, 3, 3, 1, 16, 1, 0);
        let w = workload(&shape, 0.5, 0.5, 3);
        let m = MaskModel::new(&w, 8192);
        // Eight 8192-wide chunks a unit: up to 65536 MACs.
        let balance = LayerBalance::with_collocation(&w.filters, 2, 8192, 8, false);
        Schedule::new(&balance, 2, &m);
    }

    /// Every copy of the barrier loop the CPU runs times the same lanes as
    /// the portable loop: depths 1, 2 and the generic arm, plain, traced
    /// and with a victim, on a full batch and a partial last one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn barrier_kernels_match_portable_loop() {
        if !std::arch::is_x86_feature_detected!("avx2") {
            return; // the portable loop is the only path on this CPU
        }
        let shape = ConvShape::new(150, 5, 6, 3, 21, 1, 1);
        let w = workload(&shape, 0.5, 0.5, 9);
        let cfg = test_config();
        let m = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let tel = Telemetry::new();
        let fault = UnitFaultSpec {
            cluster: 0,
            unit: 1,
            fault: UnitFault::Slow(3),
        };
        let mut table = m.work_table();
        for k in [1, 2, 3] {
            let balance = LayerBalance::with_collocation(&w.filters, 4, 128, k, true);
            for (tel, fault) in [(None, None), (Some(&tel), None), (None, Some(&fault))] {
                let run = Run::new(&m, &cfg, Sparsity::TwoSided, balance.clone(), tel, fault);
                for first in [0, 16] {
                    m.load_windows(first, &mut table);
                    m.fill_joins(&mut table);
                    let victim = fault.and_then(|f| Victim::new(f, table.positions(), &run.slices));
                    let lanes = table.positions().len();
                    let time = |avx2: bool| {
                        let mut times = LaneTimes::default();
                        if avx2 {
                            // SAFETY: the CPU has AVX2 (checked above).
                            unsafe {
                                run.two_sided_avx2(
                                    table.joins(),
                                    victim.as_ref(),
                                    lanes,
                                    &mut times,
                                )
                            };
                        } else {
                            run.two_sided_arms(table.joins(), victim.as_ref(), lanes, &mut times);
                        }
                        times
                    };
                    assert_eq!(time(true), time(false), "k = {k}, batch {first}");
                }
            }
        }
    }
}
