//! Simulation results: cycles, execution-time breakdown, traffic, op counts.
//!
//! The Figure 10–12 breakdown splits each architecture's execution into
//! (a) non-zero computation, (b) zero computation, (c) intra-cluster loss
//! (load imbalance / underutilization within a cluster or PE), and
//! (d) inter-cluster loss (imbalance across clusters or PEs exposed by
//! barriers). All four are in *MAC-slot cycles*: their sum equals
//! `compute_cycles × total_mac_units`, so dividing by Dense's total gives
//! the paper's normalized stacked bars.
//!
//! [`Traffic`]'s formulas are functions of non-zero counts, so the
//! simulators (measured counts) and the analytical model in
//! `sparten-model` (expected counts) share one definition of every
//! scheme's DRAM traffic.

use sparten_nn::ConvShape;

use crate::config::SimConfig;
use crate::scnn::ScnnVariant;
use crate::sparten::Sparsity;

/// Execution-time breakdown in MAC-slot cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Breakdown {
    /// Slots spent multiplying two non-zero operands.
    pub nonzero: u64,
    /// Slots spent on multiplications involving a zero operand (or, for
    /// SCNN at non-unit stride, products computed then discarded).
    pub zero: u64,
    /// Slots lost to within-cluster (within-PE) imbalance/underutilization.
    pub intra: u64,
    /// Slots lost to across-cluster (across-PE) imbalance at barriers.
    pub inter: u64,
}

impl Breakdown {
    /// Total slots: must equal `compute_cycles × units`.
    pub fn total(&self) -> u64 {
        self.nonzero + self.zero + self.intra + self.inter
    }

    /// The makespan and breakdown of clusters that run side by side, each
    /// `units` wide: cluster `c` takes `cycles[c]` cycles with `busy[c]`
    /// busy MAC slots, `nonzero` of all busy slots multiply two non-zero
    /// operands, and the rest are zero computation.
    ///
    /// Intra is each cluster's idle slots, `Σ (cycles·units − busy)`; inter
    /// is the faster clusters' slack, `Σ (makespan − cycles)·units`. The four
    /// terms sum to `makespan × clusters × units` by construction.
    pub(crate) fn from_clusters(
        cycles: &[u64],
        busy: &[u64],
        units: u64,
        nonzero: u64,
    ) -> (u64, Self) {
        let makespan = cycles.iter().copied().max().unwrap_or(0);
        let mut b = Breakdown {
            nonzero,
            zero: busy.iter().sum::<u64>() - nonzero,
            intra: 0,
            inter: 0,
        };
        for (&c, &w) in cycles.iter().zip(busy) {
            b.intra += c * units - w;
            b.inter += (makespan - c) * units;
        }
        (makespan, b)
    }
}

/// Memory traffic in bytes (per image; filters amortized over the batch).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Traffic {
    /// Input feature-map bytes read from DRAM (values + any metadata).
    pub input_bytes: f64,
    /// Filter bytes read from DRAM, already divided by the batch size.
    pub filter_bytes: f64,
    /// Output feature-map bytes written to DRAM.
    pub output_bytes: f64,
    /// Of the above, bytes that are zero values (the "zero" memory energy
    /// component of Figure 13).
    pub zero_value_bytes: f64,
    /// Of the above, metadata bytes (SparseMaps, pointers, indices).
    pub metadata_bytes: f64,
}

impl Traffic {
    /// Total DRAM bytes moved.
    pub fn total_bytes(&self) -> f64 {
        self.input_bytes + self.filter_bytes + self.output_bytes
    }

    /// Dense traffic: every value travels, zeros included, with no
    /// metadata. `input_nnz` and `weight_nnz` count the layer's non-zero
    /// input cells and weights (all filters).
    pub fn dense(shape: &ConvShape, input_nnz: f64, weight_nnz: f64, config: &SimConfig) -> Self {
        let elem = config.memory.element_bytes as f64;
        let batch = config.memory.batch as f64;
        let input_cells = shape.input_cells() as f64;
        let weight_cells = shape.weight_cells() as f64;
        let out_cells = shape.num_outputs() as f64;

        let input_zero = input_cells - input_nnz;
        let filter_zero = (weight_cells - weight_nnz) / batch;
        let output_zero = out_cells * (1.0 - config.memory.output_density);

        Traffic {
            input_bytes: input_cells * elem,
            filter_bytes: weight_cells * elem / batch,
            output_bytes: out_cells * elem,
            zero_value_bytes: (input_zero + filter_zero + output_zero) * elem,
            metadata_bytes: 0.0,
        }
    }

    /// SparTen-family traffic: sparse tensors move as packed non-zero values
    /// plus per-chunk SparseMaps; one-sided keeps filters dense.
    pub fn sparten(
        shape: &ConvShape,
        input_nnz: f64,
        weight_nnz: f64,
        sparsity: Sparsity,
        config: &SimConfig,
    ) -> Self {
        let elem = config.memory.element_bytes as f64;
        let batch = config.memory.batch as f64;
        let chunk = config.accel.cluster.chunk_size;
        let mask_bytes_per_chunk = chunk as f64 / 8.0;
        let chunks_per_fiber = shape.in_channels.div_ceil(chunk) as f64;
        let k2 = (shape.kernel * shape.kernel) as f64;

        let input_fibers = (shape.in_height * shape.in_width) as f64;
        let input_mask_bytes = input_fibers * chunks_per_fiber * mask_bytes_per_chunk;
        let input_bytes = input_nnz * elem + input_mask_bytes;

        let weight_cells = shape.weight_cells() as f64;
        let filter_mask_bytes =
            shape.num_filters as f64 * k2 * chunks_per_fiber * mask_bytes_per_chunk;
        let (filter_bytes, filter_zero_bytes, filter_meta) = match sparsity {
            Sparsity::TwoSided => (
                (weight_nnz * elem + filter_mask_bytes) / batch,
                0.0,
                filter_mask_bytes / batch,
            ),
            // One-sided architectures store filters dense: zeros travel.
            Sparsity::OneSided => (
                weight_cells * elem / batch,
                (weight_cells - weight_nnz) * elem / batch,
                0.0,
            ),
        };

        let out_cells = shape.num_outputs() as f64;
        let out_nnz = out_cells * config.memory.output_density;
        let out_chunks = (shape.out_height() * shape.out_width()) as f64
            * shape.num_filters.div_ceil(chunk) as f64;
        let output_mask_bytes = out_chunks * mask_bytes_per_chunk;
        let output_bytes = out_nnz * elem + output_mask_bytes;

        Traffic {
            input_bytes,
            filter_bytes,
            output_bytes,
            zero_value_bytes: filter_zero_bytes,
            metadata_bytes: input_mask_bytes + filter_meta + output_mask_bytes,
        }
    }

    /// SCNN traffic: CSR-style storage — values plus ~4-bit coordinates per
    /// non-zero (half a byte of index metadata); a variant's dense sides
    /// move every value instead.
    pub fn scnn(
        shape: &ConvShape,
        input_nnz: f64,
        weight_nnz: f64,
        variant: ScnnVariant,
        config: &SimConfig,
    ) -> Self {
        let elem = config.memory.element_bytes as f64;
        let batch = config.memory.batch as f64;
        let idx = 0.5; // bytes of coordinate metadata per stored value
        let input_cells = shape.input_cells() as f64;
        let weight_cells = shape.weight_cells() as f64;
        let out_cells = shape.num_outputs() as f64;

        let (input_bytes, input_zero, input_meta) = if variant == ScnnVariant::Dense {
            (input_cells * elem, input_cells - input_nnz, 0.0)
        } else {
            (input_nnz * (elem + idx), 0.0, input_nnz * idx)
        };
        let (filter_bytes, filter_zero, filter_meta) = if variant == ScnnVariant::Full {
            (
                weight_nnz * (elem + idx) / batch,
                0.0,
                weight_nnz * idx / batch,
            )
        } else {
            (
                weight_cells * elem / batch,
                (weight_cells - weight_nnz) / batch,
                0.0,
            )
        };
        let out_nnz = out_cells * config.memory.output_density;
        let (output_bytes, output_meta) = if variant == ScnnVariant::Dense {
            (out_cells * elem, 0.0)
        } else {
            (out_nnz * (elem + idx), out_nnz * idx)
        };

        Traffic {
            input_bytes,
            filter_bytes,
            output_bytes,
            zero_value_bytes: (input_zero + filter_zero) * elem,
            metadata_bytes: input_meta + filter_meta + output_meta,
        }
    }
}

/// Operation counts consumed by the energy model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounts {
    /// Multiply-accumulates on two non-zero operands.
    pub macs_nonzero: u64,
    /// Multiply-accumulates with a zero operand (dense/one-sided only).
    pub macs_zero: u64,
    /// Input/filter buffer accesses (operand reads + partial-sum update).
    pub buffer_accesses: u64,
    /// Prefix-sum circuit evaluations (two per chunk join: one per operand).
    pub prefix_ops: u64,
    /// Priority-encoder steps (one per inner-join MAC).
    pub encoder_ops: u64,
    /// Values routed through the GB-H permutation network.
    pub permute_values: u64,
    /// Output-compaction operations (one per produced output cell).
    pub compact_ops: u64,
    /// SCNN crossbar traversals (one per Cartesian product).
    pub crossbar_ops: u64,
}

/// The result of simulating one layer on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Architecture label (e.g. `"SparTen"`, `"SCNN"`).
    pub scheme: &'static str,
    /// Compute makespan in cycles (slowest cluster/PE chain).
    pub compute_cycles: u64,
    /// Memory-bound lower bound in cycles (total DRAM bytes / bandwidth).
    pub memory_cycles: u64,
    /// Total MAC units in the configuration.
    pub total_units: u64,
    /// Execution-time breakdown (sums to `compute_cycles × total_units`).
    pub breakdown: Breakdown,
    /// DRAM traffic.
    pub traffic: Traffic,
    /// Operation counts for the energy model.
    pub ops: OpCounts,
}

impl SimResult {
    /// The layer's execution time: compute unless memory-bound.
    pub fn cycles(&self) -> u64 {
        self.compute_cycles.max(self.memory_cycles)
    }

    /// Whether the memory system is the bottleneck.
    pub fn is_memory_bound(&self) -> bool {
        self.memory_cycles > self.compute_cycles
    }

    /// Speedup of `self` over `other` (by total cycles).
    pub fn speedup_over(&self, baseline: &SimResult) -> f64 {
        baseline.cycles() as f64 / self.cycles() as f64
    }

    /// Checks the accounting identity
    /// `nonzero + zero + intra + inter == compute_cycles × units`.
    pub fn accounting_holds(&self) -> bool {
        self.breakdown.total() == self.compute_cycles * self.total_units
    }

    /// The breakdown as fractions of this result's own compute slots.
    pub fn breakdown_fractions(&self) -> [f64; 4] {
        let t = self.breakdown.total().max(1) as f64;
        [
            self.breakdown.nonzero as f64 / t,
            self.breakdown.zero as f64 / t,
            self.breakdown.intra as f64 / t,
            self.breakdown.inter as f64 / t,
        ]
    }
}

/// Looks up (or interns) a scheme label as a `&'static str`, so records
/// read back from the on-disk cache can rebuild `SimResult::scheme`.
/// Known labels resolve without allocation; unknown labels are leaked once
/// each and memoized, bounding the leak to the set of distinct labels.
pub fn intern_scheme_label(label: &str) -> &'static str {
    const KNOWN: [&str; 11] = [
        "Dense",
        "One-sided",
        "SparTen-no-GB",
        "SparTen-GB-S",
        "SparTen",
        "SCNN",
        "SCNN-one-sided",
        "SCNN-dense",
        "Dense-naive",
        "Bit-serial",
        "Cambricon-S-like",
    ];
    if let Some(k) = KNOWN.iter().find(|k| **k == label) {
        return k;
    }
    use std::sync::Mutex;
    static EXTRA: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    // Recover from a poisoned lock rather than cascading the panic: the
    // intern table is append-only, so a writer that panicked mid-push left
    // at worst a fully-written extra entry — always safe to keep reading.
    let mut extra = EXTRA.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(k) = extra.iter().find(|k| **k == label) {
        return k;
    }
    let leaked: &'static str = Box::leak(label.to_string().into_boxed_str());
    extra.push(leaked);
    leaked
}

impl SimResult {
    /// Serializes to the experiment cache's stable single-line record
    /// format: ordered `key=value` pairs. Floats use Rust's
    /// shortest-roundtrip formatting, so [`SimResult::from_record`]
    /// reconstructs the result *bit-identically* — the property the
    /// harness's determinism tests assert across cache round-trips.
    pub fn to_record(&self) -> String {
        format!(
            "scheme={} compute={} memory={} units={} nonzero={} zero={} intra={} inter={} \
             input_bytes={} filter_bytes={} output_bytes={} zero_value_bytes={} \
             metadata_bytes={} macs_nonzero={} macs_zero={} buffer_accesses={} \
             prefix_ops={} encoder_ops={} permute_values={} compact_ops={} crossbar_ops={}",
            self.scheme,
            self.compute_cycles,
            self.memory_cycles,
            self.total_units,
            self.breakdown.nonzero,
            self.breakdown.zero,
            self.breakdown.intra,
            self.breakdown.inter,
            self.traffic.input_bytes,
            self.traffic.filter_bytes,
            self.traffic.output_bytes,
            self.traffic.zero_value_bytes,
            self.traffic.metadata_bytes,
            self.ops.macs_nonzero,
            self.ops.macs_zero,
            self.ops.buffer_accesses,
            self.ops.prefix_ops,
            self.ops.encoder_ops,
            self.ops.permute_values,
            self.ops.compact_ops,
            self.ops.crossbar_ops,
        )
    }

    /// Parses a record produced by [`SimResult::to_record`]. Returns `None`
    /// on any malformed or missing field (a stale or corrupt cache entry —
    /// the harness treats that as a miss and recomputes).
    pub fn from_record(record: &str) -> Option<SimResult> {
        let mut fields = std::collections::HashMap::new();
        for pair in record.split_whitespace() {
            let (k, v) = pair.split_once('=')?;
            fields.insert(k, v);
        }
        let u = |k: &str| -> Option<u64> { fields.get(k)?.parse().ok() };
        let f = |k: &str| -> Option<f64> { fields.get(k)?.parse().ok() };
        Some(SimResult {
            scheme: intern_scheme_label(fields.get("scheme")?),
            compute_cycles: u("compute")?,
            memory_cycles: u("memory")?,
            total_units: u("units")?,
            breakdown: Breakdown {
                nonzero: u("nonzero")?,
                zero: u("zero")?,
                intra: u("intra")?,
                inter: u("inter")?,
            },
            traffic: Traffic {
                input_bytes: f("input_bytes")?,
                filter_bytes: f("filter_bytes")?,
                output_bytes: f("output_bytes")?,
                zero_value_bytes: f("zero_value_bytes")?,
                metadata_bytes: f("metadata_bytes")?,
            },
            ops: OpCounts {
                macs_nonzero: u("macs_nonzero")?,
                macs_zero: u("macs_zero")?,
                buffer_accesses: u("buffer_accesses")?,
                prefix_ops: u("prefix_ops")?,
                encoder_ops: u("encoder_ops")?,
                permute_values: u("permute_values")?,
                compact_ops: u("compact_ops")?,
                crossbar_ops: u("crossbar_ops")?,
            },
        })
    }
}

// The harness fans simulation work out across worker threads and clones
// results into the cache; these bounds are part of the crate's API
// contract, so breakages surface here rather than deep in the harness.
const _: fn() = || {
    fn assert_send_sync_clone<T: Send + Sync + Clone>() {}
    assert_send_sync_clone::<SimResult>();
    assert_send_sync_clone::<Breakdown>();
    assert_send_sync_clone::<Traffic>();
    assert_send_sync_clone::<OpCounts>();
};

/// Geometric mean of a slice of positive numbers, the paper's summary
/// statistic for per-layer speedups.
///
/// # Panics
///
/// Panics if `values` is empty or any value is non-positive.
pub fn geometric_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of nothing");
    assert!(
        values.iter().all(|&v| v > 0.0),
        "geometric mean needs positive values"
    );
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(compute: u64, memory: u64) -> SimResult {
        SimResult {
            scheme: "test",
            compute_cycles: compute,
            memory_cycles: memory,
            total_units: 4,
            breakdown: Breakdown {
                nonzero: compute * 4,
                ..Breakdown::default()
            },
            traffic: Traffic::default(),
            ops: OpCounts::default(),
        }
    }

    #[test]
    fn cycles_takes_memory_bound_into_account() {
        assert_eq!(result(100, 50).cycles(), 100);
        assert_eq!(result(100, 300).cycles(), 300);
        assert!(result(100, 300).is_memory_bound());
    }

    #[test]
    fn speedup_is_cycle_ratio() {
        let fast = result(100, 0);
        let slow = result(400, 0);
        assert_eq!(fast.speedup_over(&slow), 4.0);
    }

    #[test]
    fn accounting_identity() {
        assert!(result(10, 0).accounting_holds());
    }

    #[test]
    fn fractions_sum_to_one() {
        let r = SimResult {
            breakdown: Breakdown {
                nonzero: 10,
                zero: 20,
                intra: 30,
                inter: 40,
            },
            ..result(25, 0)
        };
        let f = r.breakdown_fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((f[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn geometric_mean_of_powers() {
        assert!((geometric_mean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert!((geometric_mean(&[3.0]) - 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geometric_mean_rejects_zero() {
        geometric_mean(&[1.0, 0.0]);
    }

    #[test]
    fn record_roundtrip_is_bit_identical() {
        let r = SimResult {
            scheme: "SparTen",
            compute_cycles: 123_456_789,
            memory_cycles: 42,
            total_units: 1024,
            breakdown: Breakdown {
                nonzero: 1,
                zero: 2,
                intra: 3,
                inter: 4,
            },
            traffic: Traffic {
                input_bytes: 0.1 + 0.2, // deliberately non-representable
                filter_bytes: 1e300,
                output_bytes: 7.0,
                zero_value_bytes: 0.0,
                metadata_bytes: 123.456,
            },
            ops: OpCounts {
                macs_nonzero: 9,
                macs_zero: 8,
                buffer_accesses: 7,
                prefix_ops: 6,
                encoder_ops: 5,
                permute_values: 4,
                compact_ops: 3,
                crossbar_ops: 2,
            },
        };
        let back = SimResult::from_record(&r.to_record()).expect("parses");
        assert_eq!(back, r);
        assert_eq!(back.traffic.input_bytes.to_bits(), (0.1 + 0.2f64).to_bits());
    }

    #[test]
    fn malformed_records_are_rejected() {
        assert!(SimResult::from_record("").is_none());
        assert!(SimResult::from_record("scheme=Dense compute=abc").is_none());
        let r = result(10, 0).to_record();
        assert!(SimResult::from_record(&r.replace("units=", "unitz=")).is_none());
    }

    #[test]
    fn known_labels_intern_without_leaking() {
        let a = intern_scheme_label("SparTen");
        assert_eq!(a, "SparTen");
        let b = intern_scheme_label("some-new-scheme");
        let c = intern_scheme_label("some-new-scheme");
        assert!(std::ptr::eq(b.as_ptr(), c.as_ptr()), "memoized leak");
    }
}
