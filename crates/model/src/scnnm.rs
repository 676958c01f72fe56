//! Closed-form throughput model for SCNN's Cartesian-product dataflow.
//!
//! Mirrors `sparten_sim::scnn` step for step: the input plane splits over a
//! `√PEs × √PEs` grid into ≤tile×tile sub-tiles (the simulator's own
//! [`tiles`], so the geometry is exact), and every (filter-group, channel)
//! step costs `⌈F/e⌉ · max-over-PEs(Σ ⌈I_t/e⌉)` — the filter batch count
//! is *shared* by every PE, so only the input side enters the max.
//!
//! Because a sub-tile holds at most `tile²` cells, each PE's per-channel
//! input batch count `T_pe = Σ ⌈Bin(cells_t, ρ_i)/e⌉` has a tiny discrete
//! support. The model builds that distribution exactly (binomial pmf per
//! tile, convolved), then evaluates `E[max over PEs]` exactly from the
//! per-PE CDFs — no normal approximation anywhere in the barrier. The
//! sanity variants map to effective densities of 1.0 on the dense side(s),
//! which collapses every distribution to a point mass.

use sparten_sim::scnn::{tiles, ScnnVariant};
use sparten_sim::{Breakdown, OpCounts, Scheme, SimConfig, SimResult, Traffic};

use crate::params::{Geometry, LayerParams};

/// Closed-form prediction for the SCNN schemes.
pub fn predict_scnn(params: &LayerParams, config: &SimConfig, scheme: Scheme) -> SimResult {
    let shape = &params.shape;
    let geo = Geometry::new(shape);
    let scnn = &config.scnn;
    let slots_per_cycle = (scnn.mult_edge * scnn.mult_edge) as u64;
    let (d, k, nf) = (shape.in_channels, shape.kernel, shape.num_filters);

    // Effective densities per variant: the dense side(s) count every cell.
    let (variant, rho_i_eff, rho_f_eff) = match scheme {
        Scheme::Scnn => (
            ScnnVariant::Full,
            params.input_density,
            params.filter_density,
        ),
        Scheme::ScnnOneSided => (ScnnVariant::OneSided, params.input_density, 1.0),
        Scheme::ScnnDense => (ScnnVariant::Dense, 1.0, 1.0),
        _ => panic!("predict_scnn called with a non-SCNN scheme"),
    };

    // Exact tile geometry: per-PE sub-tile cell counts, in the simulator's
    // tile order.
    let mut pe_tiles: Vec<Vec<usize>> = vec![Vec::new(); scnn.num_pes];
    for (pe, (_, rows), (_, cols)) in tiles(shape, scnn) {
        pe_tiles[pe].push(rows * cols);
    }

    // Exact per-PE distribution of the per-channel input batch count
    // `T_pe = Σ_tiles ⌈Bin(cells, ρ_i)/e⌉` (convolution of per-tile pmfs),
    // its mean, and the exact expected max over PEs.
    let edge = scnn.mult_edge;
    let pe_dists: Vec<Vec<f64>> = pe_tiles
        .iter()
        .map(|tiles| {
            let mut dist = vec![1.0f64];
            for &cells in tiles {
                dist = convolve(&dist, &ceil_div_pmf(cells, rho_i_eff, edge));
            }
            dist
        })
        .collect();
    let mu_i: Vec<f64> = pe_dists.iter().map(|d| pmf_mean(d)).collect();
    let mu_i_sum: f64 = mu_i.iter().sum();
    let max_i = expected_max_pmf(&pe_dists);
    let plane_cells = (shape.in_height * shape.in_width) as f64;

    // Filter-group kinds: full groups of `output_group` filters plus a
    // remainder. A step's weight count is the group's nnz over all k² taps.
    let og = scnn.output_group;
    let mut kinds: Vec<(f64, usize)> = Vec::new(); // (count, filters)
    if nf / og > 0 {
        kinds.push(((nf / og) as f64, og));
    }
    if nf % og > 0 {
        kinds.push((1.0, nf % og));
    }

    let mut makespan_f = 0.0f64;
    let mut pe_sum_f = 0.0f64; // Σ over PEs and steps of pe cycles
    let mut products_f = 0.0f64;
    for &(count, gf) in &kinds {
        let n_g = gf * k * k;
        // Filter batches are shared by every PE in a step and independent
        // of the input side, so expectations multiply. `E[⌈f_nnz/e⌉]` is
        // computed exactly too — the linearized closed form under-counts
        // the ceiling when the group's expected nnz is below one batch
        // (1×1 kernels at low filter density).
        let hf = pmf_mean(&ceil_div_pmf(n_g, rho_f_eff, edge));
        let steps = count * d as f64;
        makespan_f += steps * hf * max_i;
        pe_sum_f += steps * hf * mu_i_sum;
        products_f += steps * n_g as f64 * rho_f_eff * plane_cells * rho_i_eff;
    }

    // True useful MACs are stride/coverage-aware and use the *real*
    // densities; the Cartesian surplus becomes the "zero" component.
    let e_two = shape.dense_macs() as f64 * geo.cov_mean * params.input_density
        * params.filter_density;

    let (input_nnz, weight_nnz) = params.expected_nnz();
    let traffic = Traffic::scnn(shape, input_nnz, weight_nnz, variant, config);
    let memory_cycles = config.memory.cycles(&traffic);

    // Integerize with the simulator's identity by construction.
    let products = products_f.round().max(0.0) as u64;
    let nonzero = (e_two.round().max(0.0) as u64).min(products);
    let zero = products - nonzero;
    let pe_sum = (pe_sum_f.round() as u64).max(products.div_ceil(slots_per_cycle));
    let busy = pe_sum * slots_per_cycle;
    let compute_cycles = (makespan_f.round() as u64).max(pe_sum.div_ceil(scnn.num_pes as u64));
    let breakdown = Breakdown {
        nonzero,
        zero,
        intra: busy - products,
        inter: compute_cycles * scnn.num_pes as u64 * slots_per_cycle - busy,
    };

    SimResult {
        scheme: scheme.label(),
        compute_cycles,
        memory_cycles,
        total_units: scnn.num_pes as u64 * slots_per_cycle,
        breakdown,
        traffic,
        ops: OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * products,
            compact_ops: shape.num_outputs() as u64,
            crossbar_ops: products,
            ..OpCounts::default()
        },
    }
}

/// Exact binomial pmf for small `n` (sub-tile cell counts, ≤ tile²).
fn binom_pmf(n: usize, p: f64) -> Vec<f64> {
    if p <= 0.0 {
        let mut v = vec![0.0; n + 1];
        v[0] = 1.0;
        return v;
    }
    if p >= 1.0 {
        let mut v = vec![0.0; n + 1];
        v[n] = 1.0;
        return v;
    }
    // Mode-centered recurrence: immune to `(1−p)^n` underflow, so the
    // same pmf serves tile cells (≤ tile²) and whole filter groups.
    let mut v = vec![0.0; n + 1];
    let ratio = p / (1.0 - p);
    let mode = ((((n + 1) as f64) * p) as usize).min(n);
    v[mode] = 1.0;
    for i in mode..n {
        v[i + 1] = v[i] * ratio * (n - i) as f64 / (i + 1) as f64;
    }
    for i in (0..mode).rev() {
        v[i] = v[i + 1] * (i + 1) as f64 / (ratio * (n - i) as f64);
    }
    let total: f64 = v.iter().sum();
    for x in &mut v {
        *x /= total;
    }
    v
}

/// pmf of `⌈Bin(n, p)/e⌉`.
fn ceil_div_pmf(n: usize, p: f64, e: usize) -> Vec<f64> {
    let bin = binom_pmf(n, p);
    let mut out = vec![0.0; n.div_ceil(e) + 1];
    for (i, &q) in bin.iter().enumerate() {
        out[i.div_ceil(e)] += q;
    }
    out
}

/// pmf of the sum of two independent non-negative integer variables.
fn convolve(a: &[f64], b: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; a.len() + b.len() - 1];
    for (i, &x) in a.iter().enumerate() {
        if x == 0.0 {
            continue;
        }
        for (j, &y) in b.iter().enumerate() {
            out[i + j] += x * y;
        }
    }
    out
}

fn pmf_mean(pmf: &[f64]) -> f64 {
    pmf.iter().enumerate().map(|(t, &q)| t as f64 * q).sum()
}

/// Exact `E[max_k X_k]` for independent non-negative integer variables:
/// `Σ_{t≥1} (1 − Π_k P(X_k < t))`.
fn expected_max_pmf(dists: &[Vec<f64>]) -> f64 {
    let support = dists.iter().map(Vec::len).max().unwrap_or(1);
    // cdf_k(t) = P(X_k ≤ t); running product over PEs per threshold.
    let mut prod_le = vec![1.0f64; support]; // Π_k P(X_k ≤ t)
    for d in dists {
        let mut acc = 0.0;
        for (t, p) in prod_le.iter_mut().enumerate() {
            acc += d.get(t).copied().unwrap_or(0.0);
            *p *= acc.min(1.0);
        }
    }
    (1..support).map(|t| 1.0 - prod_le[t - 1]).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use sparten_nn::ConvShape;

    #[test]
    fn identity_holds_for_every_scnn_variant() {
        let cfg = SimConfig::small();
        let p = LayerParams::new(ConvShape::new(64, 8, 8, 3, 16, 1, 1), 0.4, 0.3);
        for scheme in [Scheme::Scnn, Scheme::ScnnOneSided, Scheme::ScnnDense] {
            let r = predict_scnn(&p, &cfg, scheme);
            assert!(r.accounting_holds(), "identity broken for {scheme:?}");
            assert!(r.compute_cycles > 0);
        }
    }

    #[test]
    fn stride_two_wastes_products() {
        // Non-unit stride: the Cartesian product computes everything and
        // discards between-output products — zero component must be large.
        let cfg = SimConfig::small();
        let p = LayerParams::new(ConvShape::new(16, 16, 16, 3, 8, 2, 1), 0.5, 0.5);
        let r = predict_scnn(&p, &cfg, Scheme::Scnn);
        assert!(r.breakdown.zero > r.breakdown.nonzero / 2);
    }
}
