//! Fast bit-mask work model for the SparTen-family simulators.
//!
//! The cycle-level simulators need, for every (output position, filter,
//! chunk) triple, the popcount of the ANDed SparseMaps — the compute unit's
//! MAC count for that chunk. Doing this through the functional engine (which
//! also multiplies values) would be needlessly slow at AlexNet/VGG scale, so
//! this model precomputes the input's per-fiber masks and every filter's
//! per-tap masks as packed `u64` words.
//!
//! Work is produced for a batch of sixteen consecutive output positions at
//! a time, one *lane* each. [`MaskModel::load_windows`] gathers the batch's
//! k² input fibers into one lane-major [`WorkTable`] window (word `i` of
//! every lane's window side by side), and [`MaskModel::fill_joins`] ANDs
//! that window with every filter in one streaming pass. That leaves a
//! `filters × chunks` table of join work whose every entry is a row of
//! sixteen lanes. Every scheme timed at those positions reads it, so a
//! slot index names one 32-byte row and one add or max times all sixteen
//! positions. Integration tests verify the table against the exact engine
//! traces on small layers.

use std::ops::Range;
use std::sync::OnceLock;

use sparten_arch::fast::popcount_words;
use sparten_core::chunking::padded_fiber_len;
use sparten_nn::generate::Workload;
use sparten_nn::ConvShape;

/// Output positions per [`WorkTable`] batch: the lanes of every row.
pub(crate) const LANES: usize = 16;

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

/// One batch of up to sixteen consecutive output positions: their input
/// windows and the join work of every (filter, chunk) pair against them,
/// lane by lane. Built by [`MaskModel::work_table`] and refilled per
/// batch, so a simulator allocates it once per layer.
#[derive(Debug, Clone)]
pub struct WorkTable {
    chunks: usize,
    words_per_chunk: usize,
    /// The batch's positions: lane `l` is position `first + l`.
    first: usize,
    lanes: usize,
    /// `window[i][l]` = word `i` of lane `l`'s k² input fibers, tap-major,
    /// so chunk `c` is the rows `c · words_per_chunk ..`; padded taps and
    /// padding lanes are all-zero.
    window: Vec<[u64; LANES]>,
    /// `input[c][l]` = popcount of lane `l`'s window chunk `c` (one-sided
    /// work).
    input: Vec<[u16; LANES]>,
    /// `joins[f · chunks + c][l]` = two-sided work of filter `f`'s chunk
    /// `c` at lane `l`; one trailing row, `joins[filters · chunks]`, is
    /// always zero.
    joins: Vec<[u16; LANES]>,
}

impl WorkTable {
    /// The output positions the table holds, lane 0 first. Positions are
    /// column-major: position `p` is output `(p mod out_height, p div
    /// out_height)`.
    pub fn positions(&self) -> Range<usize> {
        self.first..self.first + self.lanes
    }

    /// One-sided work of chunk `c` at lane `lane`: the input chunk's
    /// popcount (every non-zero input is multiplied when filters stay
    /// dense).
    #[inline]
    pub fn input(&self, c: usize, lane: usize) -> u32 {
        self.input[c][lane] as u32
    }

    /// Two-sided join work (MACs) of filter `f`'s chunk `c` at lane `lane`.
    /// Chunk indices are tap-major: `c = tap · chunks_per_fiber + sub`.
    #[inline]
    pub fn join(&self, f: usize, c: usize, lane: usize) -> u32 {
        self.joins[f * self.chunks + c][lane] as u32
    }

    /// The one-sided rows, indexed by chunk.
    pub(crate) fn inputs(&self) -> &[[u16; LANES]] {
        &self.input
    }

    /// The join rows, indexed `f · chunks_per_window + c`, with the
    /// always-zero row at `filters · chunks_per_window`.
    pub(crate) fn joins(&self) -> &[[u16; LANES]] {
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
            first: 0,
            lanes: 0,
            window: vec![[0; LANES]; chunks * self.words_per_chunk],
            input: vec![[0; LANES]; chunks],
            joins: vec![[0; LANES]; self.shape.num_filters * chunks + 1],
        }
    }

    /// Gathers the input windows of the batch of output positions that
    /// starts at position `first` into `table`, one lane each, and sets
    /// their one-sided work. A batch holds sixteen positions, or the
    /// layer's last ones; padding lanes read all-zero windows, so they do
    /// no work. The join rows are left stale until
    /// [`MaskModel::fill_joins`].
    ///
    /// # Panics
    ///
    /// Panics if `first` is not one of the layer's output positions.
    pub fn load_windows(&self, first: usize, table: &mut WorkTable) {
        let s = &self.shape;
        let oh = s.out_height();
        let positions = oh * s.out_width();
        assert!(first < positions, "position {first} outside the layer");
        table.first = first;
        table.lanes = (positions - first).min(LANES);
        let wpf = self.words_per_fiber;
        for lane in 0..LANES {
            let (ox, oy) = ((first + lane) % oh, (first + lane) / oh);
            for (tap, dst) in table.window.chunks_exact_mut(wpf).enumerate() {
                let (tap_y, tap_x) = (tap / s.kernel, tap % s.kernel);
                let ix = (ox * s.stride + tap_x).checked_sub(s.pad);
                let iy = (oy * s.stride + tap_y).checked_sub(s.pad);
                match (ix, iy) {
                    (Some(ix), Some(iy))
                        if lane < table.lanes && ix < s.in_height && iy < s.in_width =>
                    {
                        let base = (ix + s.in_height * iy) * wpf;
                        for (d, &word) in dst.iter_mut().zip(&self.input_words[base..base + wpf]) {
                            d[lane] = word;
                        }
                    }
                    _ => dst.iter_mut().for_each(|d| d[lane] = 0),
                }
            }
        }
        for (n, chunk) in table
            .input
            .iter_mut()
            .zip(table.window.chunks_exact(self.words_per_chunk))
        {
            *n = std::array::from_fn(|l| {
                chunk.iter().map(|w| w[l].count_ones()).sum::<u32>() as u16
            });
        }
    }

    /// Fills `table`'s join rows from its loaded windows — every (filter,
    /// chunk) pair in one streaming pass over the filter masks — and
    /// returns the batch's total two-sided MACs.
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
        let filters = &self.filter_words;
        let wpc = self.words_per_chunk;
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::is_x86_feature_detected as has;
            if has!("avx512bw") && has!("avx512vpopcntdq") && has!("popcnt") {
                // SAFETY: the CPU has every feature `fill_avx512` enables
                // (AVX-512 BW implies AVX-512 F and AVX2).
                return unsafe { fill_avx512(window, filters, joins, wpc) };
            }
            if has!("avx2") && has!("popcnt") {
                // SAFETY: the CPU has AVX2 and `popcnt`.
                return unsafe { fill_avx2(window, filters, joins, wpc) };
            }
            if has!("popcnt") {
                // SAFETY: the CPU has `popcnt`.
                return unsafe { fill_popcnt(window, filters, joins, wpc) };
            }
        }
        fill(window, filters, joins, wpc)
    }

    /// Total two-sided MACs of the layer — the true sparse compute volume.
    /// Computed once: a SparTen simulation pass that fills every join table
    /// stores it, otherwise the first call sums the join tables itself.
    pub fn total_sparse_macs(&self) -> u64 {
        *self.total_macs_cache.get_or_init(|| {
            let mut table = self.work_table();
            let positions = self.shape.out_height() * self.shape.out_width();
            let mut total = 0u64;
            for first in (0..positions).step_by(LANES) {
                self.load_windows(first, &mut table);
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
}

/// The portable fill: [`fill_rows`] at the table's chunk width. Constant
/// widths let the word loop unroll; each arm instantiates the same loop.
#[inline(always)]
fn fill(
    window: &[[u64; LANES]],
    filter_words: &[u64],
    joins: &mut [[u16; LANES]],
    wpc: usize,
) -> u64 {
    match wpc {
        1 => fill_rows(window, filter_words, joins, 1),
        2 => fill_rows(window, filter_words, joins, 2),
        4 => fill_rows(window, filter_words, joins, 4),
        wpc => fill_rows(window, filter_words, joins, wpc),
    }
}

/// [`fill`] compiled for the `popcnt` instruction. The workspace targets
/// baseline x86-64, where `count_ones` is a SWAR bit-twiddling sequence;
/// [`MaskModel::fill_joins`] picks the best copy the CPU runs.
///
/// # Safety
///
/// The CPU must have `popcnt`: callers check `is_x86_feature_detected!`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "popcnt")]
fn fill_popcnt(
    window: &[[u64; LANES]],
    filter_words: &[u64],
    joins: &mut [[u16; LANES]],
    wpc: usize,
) -> u64 {
    fill(window, filter_words, joins, wpc)
}

/// [`fill`] compiled for AVX2: the lanes' ANDs and adds run four words to
/// a register, and their popcounts on a byte lookup table.
///
/// # Safety
///
/// The CPU must have AVX2 and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,popcnt")]
fn fill_avx2(
    window: &[[u64; LANES]],
    filter_words: &[u64],
    joins: &mut [[u16; LANES]],
    wpc: usize,
) -> u64 {
    fill(window, filter_words, joins, wpc)
}

/// [`fill`] compiled for AVX-512 with VPOPCNTDQ: eight lanes' AND and
/// popcount per instruction.
///
/// # Safety
///
/// The CPU must have AVX-512 BW and VPOPCNTDQ, and `popcnt`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512bw,avx512vpopcntdq,popcnt")]
fn fill_avx512(
    window: &[[u64; LANES]],
    filter_words: &[u64],
    joins: &mut [[u16; LANES]],
    wpc: usize,
) -> u64 {
    fill(window, filter_words, joins, wpc)
}

/// The fill loop: `joins[f · chunks + c][l]` = popcount of lane `l`'s
/// window chunk `c` ANDed with filter `f`'s chunk `c`, for every filter.
/// `filter_words` holds one window-sized row per filter in the window's
/// own word order. Chunk-major, so each filter word is read once and
/// ANDed with all sixteen lanes' words of the chunk, which stay in
/// registers across the filters; a filter-major loop had the compiler
/// vectorize across chunks with gathers instead. Returns the table's sum.
#[inline(always)]
fn fill_rows(
    window: &[[u64; LANES]],
    filter_words: &[u64],
    joins: &mut [[u16; LANES]],
    wpc: usize,
) -> u64 {
    let words = window.len();
    let chunks = words / wpc;
    let mut total = [0u64; LANES];
    for (c, lanes) in window.chunks_exact(wpc).enumerate() {
        for f in 0..filter_words.len() / words {
            let fw = &filter_words[f * words + c * wpc..][..wpc];
            let mut n = [0u64; LANES];
            for (lane_words, &fw) in lanes.iter().zip(fw) {
                for l in 0..LANES {
                    n[l] += (lane_words[l] & fw).count_ones() as u64;
                }
            }
            let out = &mut joins[f * chunks + c];
            for l in 0..LANES {
                out[l] = n[l] as u16;
                total[l] += n[l];
            }
        }
    }
    total.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::generate::workload;

    fn small_workload() -> Workload {
        let shape = ConvShape::new(70, 6, 6, 3, 5, 1, 1);
        workload(&shape, 0.5, 0.4, 7)
    }

    /// The work table of the batch that starts at position `first`.
    fn table_at(m: &MaskModel, first: usize) -> WorkTable {
        let mut t = m.work_table();
        m.load_windows(first, &mut t);
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
    /// is reused across batches, as the simulators reuse it, and the
    /// planes' 12, 20, 30 and 63 positions end in a partial batch.
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
                    let oh = shape.out_height();
                    let positions = oh * shape.out_width();
                    let mut total = 0u64;
                    for first in (0..positions).step_by(LANES) {
                        m.load_windows(first, &mut t);
                        total += m.fill_joins(&mut t);
                        assert_eq!(t.positions(), first..positions.min(first + LANES));
                        for (lane, p) in t.positions().enumerate() {
                            let (ox, oy) = (p % oh, p / oh);
                            let win = linearize_window_padded(
                                &w.input, ox, oy, 3, stride, pad, chunk_size,
                            );
                            let win = SparseVector::from_dense(&win, chunk_size);
                            assert_eq!(win.chunks().len(), m.chunks_per_window());
                            let at =
                                format!("chunk {chunk_size} stride {stride} pad {pad} ({ox},{oy})");
                            for (c, ic) in win.chunks().iter().enumerate() {
                                assert_eq!(
                                    t.input(c, lane) as usize,
                                    ic.nnz(),
                                    "input {at} chunk {c}"
                                );
                                for (f, fc) in filters.iter().enumerate() {
                                    assert_eq!(
                                        t.join(f, c, lane) as usize,
                                        ic.join_work(&fc.chunks()[c]),
                                        "join {at} filter {f} chunk {c}"
                                    );
                                }
                            }
                        }
                        // Padding lanes hold no work.
                        for lane in t.positions().len()..LANES {
                            for c in 0..m.chunks_per_window() {
                                assert_eq!(t.input(c, lane), 0);
                                assert!((0..3).all(|f| t.join(f, c, lane) == 0));
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
        let t = table_at(&m, 0);
        for lane in 0..LANES {
            for f in 0..w.filters.len() {
                for c in 0..m.chunks_per_window() {
                    assert!(t.input(c, lane) >= t.join(f, c, lane));
                }
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
        // Output (0,0), position 0, with pad 1: tap (0,0) reads input
        // (-1,-1) → OOB.
        let t = table_at(&m, 0);
        assert_eq!(t.input(0, 0), 0);
        assert!((0..w.filters.len()).all(|f| t.join(f, 0, 0) == 0));
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

    /// Every copy of the fill the CPU runs fills the same tables and
    /// totals as the portable loop, at 1, 2, 4 and 8 words per chunk (the
    /// three constant arms and the generic one), on a 5 × 6 plane: one
    /// full batch and a partial one of 14 positions.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fill_kernels_match_portable_fill() {
        use std::arch::is_x86_feature_detected as has;
        type Kernel = fn(&[[u64; LANES]], &[u64], &mut [[u16; LANES]], usize) -> u64;
        // SAFETY (each copy): only run when the CPU has its instructions.
        let kernels: [(&str, bool, Kernel); 3] = [
            ("popcnt", has!("popcnt"), |w, f, j, n| unsafe {
                fill_popcnt(w, f, j, n)
            }),
            (
                "avx2",
                has!("avx2") && has!("popcnt"),
                |w, f, j, n| unsafe { fill_avx2(w, f, j, n) },
            ),
            (
                "avx512",
                has!("avx512bw") && has!("avx512vpopcntdq") && has!("popcnt"),
                |w, f, j, n| unsafe { fill_avx512(w, f, j, n) },
            ),
        ];
        for wpc in [1, 2, 4, 8] {
            for density in [0.5, 1.0] {
                let shape = ConvShape::new(300, 5, 6, 3, 7, 1, 1);
                let w = workload(&shape, density, density, 40 + wpc as u64);
                let m = MaskModel::new(&w, 64 * wpc);
                let mut portable = m.work_table();
                let positions = shape.out_height() * shape.out_width();
                for first in (0..positions).step_by(LANES) {
                    m.load_windows(first, &mut portable);
                    let total = fill(&portable.window, &m.filter_words, &mut portable.joins, wpc);
                    for (name, _, kernel) in kernels.iter().filter(|k| k.1) {
                        let mut fast = portable.clone();
                        fast.joins.iter_mut().for_each(|r| *r = [u16::MAX; LANES]);
                        let last = fast.joins.len() - 1;
                        fast.joins[last] = [0; LANES];
                        let fast_total =
                            kernel(&fast.window, &m.filter_words, &mut fast.joins, wpc);
                        let at = format!("{name}: {wpc} words, density {density}, batch {first}");
                        assert_eq!(fast_total, total, "{at}");
                        assert_eq!(fast.joins, portable.joins, "{at}");
                    }
                }
            }
        }
    }
}
