//! A bit-serial baseline (Bit-Pragmatic / Bit-Laconic style, §6).
//!
//! Bit-serial schemes skip *zero bits* rather than zero values: each value
//! is Booth-recoded and the multiplier iterates only over its essential
//! (non-zero) digits, so a MAC of values with `e_a` and `e_w` essential
//! digits costs `e_a · e_w` digit-cycles. The paper's §6 critique, all
//! modelled here:
//!
//! 1. zero *values* still travel to and from memory (dense transfers);
//! 2. bit-level load imbalance remains and the per-group barrier exposes it
//!    (no greedy balancing exists at bit granularity);
//! 3. conservative buffering of full values before Booth encoding.
//!
//! Resources are matched at one serial lane per compute unit; one digit
//! pair per cycle per lane.

use sparten_nn::generate::Workload;
use sparten_nn::quant::QuantTensor;

use crate::breakdown::{Breakdown, OpCounts, SimResult, Traffic};
use crate::config::SimConfig;
use crate::sparten::CHUNK_OVERHEAD;

/// Number of essential (non-zero) digits in the radix-4 Booth recoding of
/// an 8-bit value — the bit-serial work unit.
///
/// # Example
///
/// ```
/// use sparten_sim::bitserial::booth_digits;
///
/// assert_eq!(booth_digits(0), 0);
/// assert_eq!(booth_digits(1), 1);
/// // 0b01010101 recodes to alternating ±1 digits.
/// assert!(booth_digits(0b0101_0101) >= 3);
/// ```
pub fn booth_digits(v: i8) -> u32 {
    // Radix-4 Booth: digits d_i ∈ {-2,-1,0,1,2} from overlapping triplets
    // of (sign-extended) bits; count the non-zero digits.
    let x = v as i16;
    let mut count = 0u32;
    let mut prev = 0i16; // implicit bit to the right of bit 0
    for i in (0..8).step_by(2) {
        let b0 = (x >> i) & 1;
        let b1 = (x >> (i + 1)) & 1;
        // Classic radix-4 recode of the triplet (b1, b0, prev): −2·b1+b0+prev.
        let digit = b0 + prev - 2 * b1;
        if digit != 0 {
            count += 1;
        }
        prev = b1;
    }
    count
}

/// Simulates the bit-serial baseline on `workload`.
///
/// Cycles are digit-cycles (one essential digit pair per lane per cycle);
/// comparing against MAC-cycle schemes assumes equal clock rates, which
/// favours the bit-serial scheme slightly (its lanes are simpler).
pub fn simulate_bitserial(workload: &Workload, config: &SimConfig) -> SimResult {
    let shape = &workload.shape;
    let units = config.accel.cluster.compute_units;
    let num_clusters = config.accel.num_clusters;
    let k = shape.kernel;
    let d = shape.in_channels;

    // Booth-digit tables from the quantized tensors.
    let qi = QuantTensor::quantize(&workload.input);
    let input_digits: Vec<u8> = qi.values().iter().map(|&v| booth_digits(v) as u8).collect();
    let filter_digits: Vec<Vec<u8>> = workload
        .filters
        .iter()
        .map(|f| {
            QuantTensor::quantize(f.weights())
                .values()
                .iter()
                .map(|&v| booth_digits(v) as u8)
                .collect()
        })
        .collect();

    let (oh, ow) = (shape.out_height(), shape.out_width());
    let positions = oh * ow;
    let num_groups = shape.num_filters.div_ceil(units);

    // Digit-work of one (output position, filter) pair: Σ over in-bounds
    // taps and channels of e_input · e_weight.
    let pair_work = |ox: usize, oy: usize, f: usize| -> u64 {
        let fd = &filter_digits[f];
        let mut acc = 0u64;
        for fy in 0..k {
            for fx in 0..k {
                let ix = (ox * shape.stride + fx) as isize - shape.pad as isize;
                let iy = (oy * shape.stride + fy) as isize - shape.pad as isize;
                if ix < 0
                    || iy < 0
                    || ix as usize >= shape.in_height
                    || iy as usize >= shape.in_width
                {
                    continue;
                }
                let ibase = (ix as usize + shape.in_height * iy as usize) * d;
                let fbase = (fx + k * fy) * d;
                for z in 0..d {
                    acc += input_digits[ibase + z] as u64 * fd[fbase + z] as u64;
                }
            }
        }
        acc
    };

    let mut cluster_cycles = vec![0u64; num_clusters];
    let mut cluster_busy = vec![0u64; num_clusters];
    for cluster in 0..num_clusters {
        let lo = positions * cluster / num_clusters;
        let hi = positions * (cluster + 1) / num_clusters;
        let mut cycles = 0u64;
        let mut busy = 0u64;
        for p in lo..hi {
            let (ox, oy) = (p % oh, p / oh);
            for g in 0..num_groups {
                // Barrier per (position, group): the slowest lane's digit
                // count — bit-level imbalance exposed (§6 issue 2).
                let mut group_max = 0u64;
                for u in 0..units {
                    let f = g * units + u;
                    if f >= shape.num_filters {
                        continue;
                    }
                    let w = pair_work(ox, oy, f);
                    busy += w;
                    group_max = group_max.max(w);
                }
                cycles += group_max + CHUNK_OVERHEAD;
            }
        }
        cluster_cycles[cluster] = cycles;
        cluster_busy[cluster] = busy;
    }

    let total_units = (units * num_clusters) as u64;
    let total_digit_work: u64 = cluster_busy.iter().sum();
    // Zero bits are skipped and zero values cost no digits: all work is
    // non-zero.
    let (makespan, breakdown) = Breakdown::from_clusters(
        &cluster_cycles,
        &cluster_busy,
        units as u64,
        total_digit_work,
    );

    // §6 issue 1: dense transfers — identical to the dense architecture's.
    let weight_nnz: usize = workload.filters.iter().map(|f| f.nnz()).sum();
    let traffic = Traffic::dense(
        shape,
        workload.input.nnz() as f64,
        weight_nnz as f64,
        config,
    );
    let memory_cycles = config.memory.cycles(&traffic);

    SimResult {
        scheme: "Bit-serial",
        compute_cycles: makespan,
        memory_cycles,
        total_units,
        breakdown,
        traffic,
        ops: OpCounts {
            macs_nonzero: total_digit_work,
            macs_zero: 0,
            buffer_accesses: 3 * total_digit_work,
            prefix_ops: 0,
            encoder_ops: total_digit_work, // digit selection per cycle
            permute_values: 0,
            compact_ops: 0,
            crossbar_ops: 0,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{simulate_layer, Scheme};
    use crate::workmodel::MaskModel;
    use sparten_nn::generate::workload;
    use sparten_nn::ConvShape;

    #[test]
    fn booth_zero_is_free() {
        assert_eq!(booth_digits(0), 0);
    }

    #[test]
    fn booth_powers_of_two_cost_at_most_two() {
        // Even powers of two align with a digit (one digit); odd powers
        // straddle a boundary and recode as (−2, +1) — two digits.
        for v in [1i8, 4, 16, 64] {
            assert_eq!(booth_digits(v), 1, "value {v}");
        }
        for v in [2i8, 8, 32] {
            assert_eq!(booth_digits(v), 2, "value {v}");
        }
        assert_eq!(booth_digits(-1), 1);
    }

    #[test]
    fn booth_counts_are_bounded_by_four() {
        for v in i8::MIN..=i8::MAX {
            assert!(booth_digits(v) <= 4, "value {v} → {}", booth_digits(v));
        }
    }

    #[test]
    fn booth_recoding_reconstructs_the_value() {
        // Verify the digit extraction against an explicit recode-and-sum.
        for v in i8::MIN..=i8::MAX {
            let x = v as i16;
            let mut sum = 0i32;
            let mut prev = 0i16;
            let mut nonzero = 0u32;
            for i in (0..8).step_by(2) {
                let b0 = (x >> i) & 1;
                let b1 = (x >> (i + 1)) & 1;
                let digit = (b0 + prev - 2 * b1) as i32;
                sum += digit << i;
                if digit != 0 {
                    nonzero += 1;
                }
                prev = b1;
            }
            // The top triplet's negative weight covers the i8 sign range,
            // so the digit sum reconstructs the value directly.
            assert_eq!(sum as i16, x, "value {v}");
            assert_eq!(nonzero, booth_digits(v), "value {v}");
        }
    }

    fn test_setup() -> (sparten_nn::Workload, SimConfig) {
        let shape = ConvShape::new(48, 6, 6, 3, 16, 1, 1);
        let w = workload(&shape, 0.35, 0.35, 91);
        let mut cfg = SimConfig::small();
        cfg.accel.num_clusters = 2;
        cfg.accel.cluster.compute_units = 4;
        (w, cfg)
    }

    #[test]
    fn accounting_identity_holds() {
        let (w, cfg) = test_setup();
        let r = simulate_bitserial(&w, &cfg);
        assert!(r.accounting_holds());
    }

    #[test]
    fn transfers_zero_values_like_dense() {
        let (w, cfg) = test_setup();
        let bits = simulate_bitserial(&w, &cfg);
        let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let dense = simulate_layer(&w, &model, &cfg, Scheme::Dense);
        assert_eq!(bits.traffic.total_bytes(), dense.traffic.total_bytes());
        assert!(bits.traffic.zero_value_bytes > 0.0);
    }

    #[test]
    fn digit_work_is_less_than_bit_count_times_macs() {
        // Booth caps digits at 4 per 8-bit value → ≤16 digit-cycles per
        // MAC pair, and typically far fewer.
        let (w, cfg) = test_setup();
        let r = simulate_bitserial(&w, &cfg);
        let model = MaskModel::new(&w, cfg.accel.cluster.chunk_size);
        let macs = model.total_sparse_macs();
        assert!(r.breakdown.nonzero <= 16 * macs);
        assert!(
            r.breakdown.nonzero > macs,
            "serial work exceeds one cycle/MAC"
        );
    }

    #[test]
    fn bit_level_imbalance_exists() {
        let (w, cfg) = test_setup();
        let r = simulate_bitserial(&w, &cfg);
        assert!(r.breakdown.intra > 0);
    }
}
