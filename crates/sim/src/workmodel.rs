//! Fast bit-mask work model for the SparTen-family simulators.
//!
//! The cycle-level simulators need, for every (output position, filter,
//! chunk) triple, the popcount of the ANDed SparseMaps — the compute unit's
//! MAC count for that chunk. Doing this through the functional engine (which
//! also multiplies values) would be needlessly slow at AlexNet/VGG scale, so
//! this model precomputes the input's per-fiber masks and every filter's
//! per-tap masks as packed `u64` words.
//!
//! Work is produced one output position at a time, the way a cluster sees
//! it (§3.2): [`MaskModel::load_window`] gathers the position's k² input
//! fibers into one contiguous, chunk-major [`WorkTable`] window, and
//! [`MaskModel::fill_joins`] ANDs that window with every filter in one
//! streaming pass, leaving a `filters × chunks` table of join work that
//! every scheme timed at that position reads. Integration tests verify the
//! table against the exact engine traces on small layers.

use std::sync::OnceLock;

use sparten_arch::fast::{and_popcount_words, popcount_words};
use sparten_core::chunking::padded_fiber_len;
use sparten_nn::generate::Workload;
use sparten_nn::ConvShape;

/// Measured per-layer densities (see [`MaskModel::measure`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMeasurement {
    /// Fraction of non-zero input cells.
    pub input_density: f64,
    /// Fraction of non-zero weights, over all filters.
    pub filter_density: f64,
    /// Population standard deviation of the per-filter densities.
    pub filter_density_std: f64,
}

/// Packed sparsity masks of one layer's workload.
#[derive(Debug, Clone)]
pub struct MaskModel {
    shape: ConvShape,
    chunk_size: usize,
    words_per_fiber: usize,
    chunks_per_fiber: usize,
    words_per_chunk: usize,
    /// `input_words[(x + h·y) · words_per_fiber ..]` = padded fiber mask.
    input_words: Vec<u64>,
    /// `filter_words[((f·k² + tap) · words_per_fiber) ..]`, tap = fy·k + fx;
    /// equivalently `(f · chunks_per_window + c) · words_per_chunk`.
    filter_words: Vec<u64>,
    input_nnz: u64,
    weight_nnz: u64,
    total_macs_cache: OnceLock<u64>,
}

/// One output position's work: its input window and the join work of every
/// (filter, chunk) pair against it. Built by [`MaskModel::work_table`] and
/// refilled per position, so a simulator allocates it once per layer.
#[derive(Debug, Clone)]
pub struct WorkTable {
    chunks: usize,
    words_per_chunk: usize,
    /// The k² input fibers, tap-major, so chunk `c` is the words
    /// `c · words_per_chunk ..`; padded taps are all-zero.
    window: Vec<u64>,
    /// `input[c]` = popcount of window chunk `c` (one-sided work).
    input: Vec<u16>,
    /// `joins[f · chunks + c]` = two-sided work of filter `f`'s chunk `c`;
    /// one trailing entry, `joins[filters · chunks]`, is always zero.
    joins: Vec<u16>,
}

impl WorkTable {
    /// One-sided work of chunk `c`: the input chunk's popcount (every
    /// non-zero input is multiplied when filters stay dense).
    #[inline]
    pub fn input(&self, c: usize) -> u32 {
        self.input[c] as u32
    }

    /// Two-sided join work (MACs) of filter `f`'s chunk `c`. Chunk indices
    /// are tap-major: `c = tap · chunks_per_fiber + sub`.
    #[inline]
    pub fn join(&self, f: usize, c: usize) -> u32 {
        self.joins[f * self.chunks + c] as u32
    }

    /// The join table, indexed `f · chunks_per_window + c`, with the
    /// always-zero entry at `filters · chunks_per_window`.
    pub(crate) fn joins(&self) -> &[u16] {
        &self.joins
    }
}

impl MaskModel {
    /// Builds the mask model from a workload with the given chunk size.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size` is not a positive multiple of 64, or exceeds
    /// `u16::MAX` (a [`WorkTable`] entry holds one chunk's work).
    pub fn new(workload: &Workload, chunk_size: usize) -> Self {
        assert!(
            chunk_size > 0 && chunk_size.is_multiple_of(64),
            "chunk size must be a positive multiple of 64"
        );
        assert!(
            chunk_size <= u16::MAX as usize,
            "chunk size must fit a u16 work-table entry"
        );
        let shape = workload.shape;
        let d = shape.in_channels;
        let padded = padded_fiber_len(d, chunk_size);
        let words_per_fiber = padded / 64;
        let chunks_per_fiber = padded / chunk_size;
        let words_per_chunk = chunk_size / 64;

        let (h, w) = (shape.in_height, shape.in_width);
        let mut input_words = vec![0u64; h * w * words_per_fiber];
        let mut input_nnz = 0u64;
        for y in 0..w {
            for x in 0..h {
                let base = (x + h * y) * words_per_fiber;
                for (z, &v) in workload.input.fiber(x, y).iter().enumerate() {
                    if v != 0.0 {
                        input_words[base + z / 64] |= 1 << (z % 64);
                        input_nnz += 1;
                    }
                }
            }
        }

        let k = shape.kernel;
        let mut filter_words = vec![0u64; shape.num_filters * k * k * words_per_fiber];
        let mut weight_nnz = 0u64;
        for (f, filter) in workload.filters.iter().enumerate() {
            for fy in 0..k {
                for fx in 0..k {
                    let tap = fy * k + fx;
                    let base = (f * k * k + tap) * words_per_fiber;
                    for (z, &v) in filter.weights().fiber(fx, fy).iter().enumerate() {
                        if v != 0.0 {
                            filter_words[base + z / 64] |= 1 << (z % 64);
                            weight_nnz += 1;
                        }
                    }
                }
            }
        }

        MaskModel {
            shape,
            chunk_size,
            words_per_fiber,
            chunks_per_fiber,
            words_per_chunk,
            input_words,
            filter_words,
            input_nnz,
            weight_nnz,
            total_macs_cache: OnceLock::new(),
        }
    }

    /// The layer shape.
    pub fn shape(&self) -> &ConvShape {
        &self.shape
    }

    /// The configured chunk size.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Chunks per window: `k² · ⌈d/chunk⌉`.
    pub fn chunks_per_window(&self) -> usize {
        self.shape.kernel * self.shape.kernel * self.chunks_per_fiber
    }

    /// Total non-zero input cells.
    pub fn input_nnz(&self) -> u64 {
        self.input_nnz
    }

    /// Total non-zero weights.
    pub fn weight_nnz(&self) -> u64 {
        self.weight_nnz
    }

    /// An empty work table sized for this layer.
    pub fn work_table(&self) -> WorkTable {
        let chunks = self.chunks_per_window();
        WorkTable {
            chunks,
            words_per_chunk: self.words_per_chunk,
            window: vec![0u64; chunks * self.words_per_chunk],
            input: vec![0u16; chunks],
            joins: vec![0u16; self.shape.num_filters * chunks + 1],
        }
    }

    /// Gathers the input window of output `(ox, oy)` into `table` and sets
    /// its one-sided work. The join table is left stale until
    /// [`MaskModel::fill_joins`].
    pub fn load_window(&self, ox: usize, oy: usize, table: &mut WorkTable) {
        let s = &self.shape;
        let wpf = self.words_per_fiber;
        for (tap, dst) in table.window.chunks_exact_mut(wpf).enumerate() {
            let (tap_y, tap_x) = (tap / s.kernel, tap % s.kernel);
            let ix = (ox * s.stride + tap_x).checked_sub(s.pad);
            let iy = (oy * s.stride + tap_y).checked_sub(s.pad);
            match (ix, iy) {
                (Some(ix), Some(iy)) if ix < s.in_height && iy < s.in_width => {
                    let base = (ix + s.in_height * iy) * wpf;
                    dst.copy_from_slice(&self.input_words[base..base + wpf]);
                }
                _ => dst.fill(0),
            }
        }
        for (n, chunk) in table
            .input
            .iter_mut()
            .zip(table.window.chunks_exact(self.words_per_chunk))
        {
            *n = popcount_words(chunk) as u16;
        }
    }

    /// Fills `table`'s join work from its loaded window — every (filter,
    /// chunk) pair in one streaming pass over the filter masks — and
    /// returns the position's total two-sided MACs.
    ///
    /// # Panics
    ///
    /// Panics if `table` was not built by this model's
    /// [`MaskModel::work_table`].
    pub fn fill_joins(&self, table: &mut WorkTable) -> u64 {
        assert!(
            table.words_per_chunk == self.words_per_chunk
                && table.joins.len() == self.shape.num_filters * self.chunks_per_window() + 1,
            "work table built for another layer"
        );
        let (window, joins) = (&table.window, &mut table.joins);
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("popcnt") {
            // SAFETY: the CPU has the instruction `join_popcnt` is built for.
            return unsafe { join_popcnt(window, &self.filter_words, joins, self.words_per_chunk) };
        }
        join(window, &self.filter_words, joins, self.words_per_chunk)
    }

    /// Total two-sided MACs of the layer — the true sparse compute volume.
    /// Computed once: a SparTen simulation pass that fills every join table
    /// stores it, otherwise the first call sums the join tables itself.
    pub fn total_sparse_macs(&self) -> u64 {
        *self.total_macs_cache.get_or_init(|| {
            let mut table = self.work_table();
            let (oh, ow) = (self.shape.out_height(), self.shape.out_width());
            let mut total = 0u64;
            for p in 0..oh * ow {
                self.load_window(p % oh, p / oh, &mut table);
                total += self.fill_joins(&mut table);
            }
            total
        })
    }

    /// Records the layer's total two-sided MACs, summed by a simulation
    /// pass from the same join tables [`MaskModel::total_sparse_macs`] sums.
    pub(crate) fn store_total_sparse_macs(&self, total: u64) {
        let stored = *self.total_macs_cache.get_or_init(|| total);
        debug_assert_eq!(stored, total, "two passes disagree on the MAC total");
    }

    /// Non-zero weights of filter `f` alone.
    pub fn filter_nnz(&self, f: usize) -> u64 {
        let k = self.shape.kernel;
        let base = f * k * k * self.words_per_fiber;
        let len = k * k * self.words_per_fiber;
        popcount_words(&self.filter_words[base..base + len]) as u64
    }

    /// Measured per-layer densities — the inputs the `sparten-model`
    /// analytical throughput model consumes. Input and filter densities are
    /// exact counts over the masks; `filter_density_std` is the population
    /// standard deviation of the per-filter densities, which drives the
    /// model's greedy-balance imbalance terms.
    pub fn measure(&self) -> LayerMeasurement {
        let cells_per_filter = (self.shape.window_len()) as f64;
        let nf = self.shape.num_filters;
        let densities: Vec<f64> = (0..nf)
            .map(|f| self.filter_nnz(f) as f64 / cells_per_filter)
            .collect();
        let mean = densities.iter().sum::<f64>() / nf as f64;
        let var = densities.iter().map(|d| (d - mean) * (d - mean)).sum::<f64>() / nf as f64;
        LayerMeasurement {
            input_density: self.input_nnz as f64 / self.shape.input_cells() as f64,
            filter_density: self.weight_nnz as f64 / self.shape.weight_cells() as f64,
            filter_density_std: var.sqrt(),
        }
    }

    /// Per-chunk filter-mask popcounts for filter `f` — GB-H's sort key and
    /// the quantity Figure 14 plots.
    pub fn filter_chunk_nnz(&self, f: usize) -> Vec<u32> {
        let k = self.shape.kernel;
        (0..self.chunks_per_window())
            .map(|c| {
                let (tap, sub) = (c / self.chunks_per_fiber, c % self.chunks_per_fiber);
                let fbase = (f * k * k + tap) * self.words_per_fiber + sub * self.words_per_chunk;
                popcount_words(&self.filter_words[fbase..fbase + self.words_per_chunk])
            })
            .collect()
    }
}

/// The portable join: [`join_rows`] at the table's chunk width. Constant
/// widths let the chunk loop unroll; each arm instantiates the same loop.
#[inline(always)]
fn join(window: &[u64], filter_words: &[u64], joins: &mut [u16], wpc: usize) -> u64 {
    match wpc {
        1 => join_rows(window, filter_words, joins, 1),
        2 => join_rows(window, filter_words, joins, 2),
        4 => join_rows(window, filter_words, joins, 4),
        wpc => join_rows(window, filter_words, joins, wpc),
    }
}

/// [`join`] compiled for the `popcnt` instruction. The workspace targets
/// baseline x86-64, where `count_ones` is a SWAR bit-twiddling sequence;
/// [`MaskModel::fill_joins`] picks this copy when the CPU has `popcnt`.
///
/// # Safety
///
/// The CPU must have `popcnt`: callers check `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn join_popcnt(window: &[u64], filter_words: &[u64], joins: &mut [u16], wpc: usize) -> u64 {
    join(window, filter_words, joins, wpc)
}

/// The join loop: `joins[f · chunks + c]` = popcount of window chunk `c`
/// ANDed with filter `f`'s chunk `c`, for every filter. `filter_words` holds
/// one window-sized row per filter in the window's own chunk order, so the
/// loop streams both without index arithmetic. Returns the table's sum.
#[inline(always)]
fn join_rows(window: &[u64], filter_words: &[u64], joins: &mut [u16], wpc: usize) -> u64 {
    let chunks = window.len() / wpc;
    let mut total = 0u64;
    for (row, out) in filter_words
        .chunks_exact(window.len())
        .zip(joins.chunks_exact_mut(chunks))
    {
        for ((w, f), o) in window
            .chunks_exact(wpc)
            .zip(row.chunks_exact(wpc))
            .zip(out.iter_mut())
        {
            let n = and_popcount_words(w, f);
            *o = n as u16;
            total += n as u64;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;

    fn small_workload() -> Workload {
        let shape = ConvShape::new(70, 6, 6, 3, 5, 1, 1);
        workload(&shape, 0.5, 0.4, 7)
    }

    /// The work table at output `(ox, oy)`.
    fn table_at(m: &MaskModel, ox: usize, oy: usize) -> WorkTable {
        let mut t = m.work_table();
        m.load_window(ox, oy, &mut t);
        m.fill_joins(&mut t);
        t
    }

    #[test]
    fn nnz_counts_match_tensors() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        assert_eq!(m.input_nnz() as usize, w.input.nnz());
        let wn: usize = w.filters.iter().map(|f| f.nnz()).sum();
        assert_eq!(m.weight_nnz() as usize, wn);
    }

    /// The work table against the functional engine's chunk joins at every
    /// (position, filter, chunk), padded borders included, across chunk
    /// sizes, strides and pads on a depth no chunk size divides. One table
    /// is reused across positions, as the simulators reuse it.
    #[test]
    fn chunk_work_matches_functional_chunks() {
        use sparten_core::chunking::{filter_to_chunks, linearize_window_padded};
        use sparten_tensor::SparseVector;
        for (i, chunk_size) in [64, 128, 256, 512].into_iter().enumerate() {
            for stride in [1, 2, 4] {
                for pad in 0..=2 {
                    // Height ≠ width, so a swapped axis cannot pass.
                    let shape = ConvShape::new(200, 7, 9, 3, 3, stride, pad);
                    let seed = (i * 100 + stride * 10 + pad) as u64;
                    let w = workload(&shape, 0.6, 0.5, seed);
                    let m = MaskModel::new(&w, chunk_size);
                    let filters: Vec<SparseVector> = w
                        .filters
                        .iter()
                        .map(|f| filter_to_chunks(f, chunk_size))
                        .collect();
                    let mut t = m.work_table();
                    let mut total = 0u64;
                    for oy in 0..shape.out_width() {
                        for ox in 0..shape.out_height() {
                            m.load_window(ox, oy, &mut t);
                            total += m.fill_joins(&mut t);
                            let win = linearize_window_padded(
                                &w.input, ox, oy, 3, stride, pad, chunk_size,
                            );
                            let win = SparseVector::from_dense(&win, chunk_size);
                            assert_eq!(win.chunks().len(), m.chunks_per_window());
                            let at =
                                format!("chunk {chunk_size} stride {stride} pad {pad} ({ox},{oy})");
                            for (c, ic) in win.chunks().iter().enumerate() {
                                assert_eq!(t.input(c) as usize, ic.nnz(), "input {at} chunk {c}");
                                for (f, fc) in filters.iter().enumerate() {
                                    assert_eq!(
                                        t.join(f, c) as usize,
                                        ic.join_work(&fc.chunks()[c]),
                                        "join {at} filter {f} chunk {c}"
                                    );
                                }
                            }
                        }
                    }
                    assert_eq!(total, m.total_sparse_macs());
                }
            }
        }
    }

    #[test]
    fn onesided_work_at_least_twosided() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        let t = table_at(&m, 1, 1);
        for f in 0..w.filters.len() {
            for c in 0..m.chunks_per_window() {
                assert!(t.input(c) >= t.join(f, c));
            }
        }
    }

    #[test]
    fn total_sparse_macs_matches_brute_force() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        let mut expect = 0u64;
        for oy in 0..w.shape.out_width() {
            for ox in 0..w.shape.out_height() {
                let win = w.input.window_vector(ox, oy, 3, 3, 1, 1);
                for f in &w.filters {
                    let lin = f.linearize();
                    expect += win
                        .iter()
                        .zip(&lin)
                        .filter(|(a, b)| **a != 0.0 && **b != 0.0)
                        .count() as u64;
                }
            }
        }
        assert_eq!(m.total_sparse_macs(), expect);
    }

    #[test]
    fn out_of_bounds_taps_contribute_zero() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        // Output (0,0) with pad 1: tap (0,0) reads input (-1,-1) → OOB.
        let t = table_at(&m, 0, 0);
        assert_eq!(t.input(0), 0);
        assert!((0..w.filters.len()).all(|f| t.join(f, 0) == 0));
    }

    #[test]
    fn stride_changes_window_work() {
        let shape = ConvShape::new(64, 9, 9, 3, 4, 2, 0);
        let w = workload(&shape, 0.5, 0.5, 3);
        let m = MaskModel::new(&w, 64);
        // Just exercise the path; correctness is covered by the engine
        // cross-check integration test.
        assert!(m.total_sparse_macs() > 0);
    }

    #[test]
    fn filter_chunk_nnz_sums_to_filter_nnz() {
        let w = small_workload();
        let m = MaskModel::new(&w, 64);
        for (f, filter) in w.filters.iter().enumerate() {
            let per_chunk: u32 = m.filter_chunk_nnz(f).iter().sum();
            assert_eq!(per_chunk as usize, filter.nnz());
        }
    }

    /// The `popcnt` copy of the join fills the same tables and totals as
    /// the portable loop at 1–4 words per chunk: the three constant arms
    /// and the generic one.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn popcnt_join_matches_portable_join() {
        if !std::arch::is_x86_feature_detected!("popcnt") {
            return; // the portable loop is the only path on this CPU
        }
        for wpc in 1..=4 {
            for density in [0.5, 1.0] {
                let shape = ConvShape::new(300, 5, 6, 3, 7, 1, 1);
                let w = workload(&shape, density, density, 40 + wpc as u64);
                let m = MaskModel::new(&w, 64 * wpc);
                let (mut portable, mut fast) = (m.work_table(), m.work_table());
                let oh = shape.out_height();
                for p in 0..oh * shape.out_width() {
                    m.load_window(p % oh, p / oh, &mut portable);
                    m.load_window(p % oh, p / oh, &mut fast);
                    let total = join(&portable.window, &m.filter_words, &mut portable.joins, wpc);
                    // SAFETY: the CPU has `popcnt` (checked above).
                    let fast_total =
                        unsafe { join_popcnt(&fast.window, &m.filter_words, &mut fast.joins, wpc) };
                    assert_eq!(
                        fast_total, total,
                        "{wpc} words, density {density}, position {p}"
                    );
                    assert_eq!(fast.joins, portable.joins, "{wpc} words, density {density}");
                }
            }
        }
    }
}
