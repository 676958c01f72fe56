//! Closed-form throughput models for the SparTen-family accelerators
//! (Dense, One-sided, and two-sided SparTen under each balance policy).
//!
//! Each form mirrors the corresponding cycle-accurate simulator's loop
//! structure term by term:
//!
//! * a cluster owns a contiguous slice of output positions; its cycle count
//!   is `positions × (per-position expected cycles)` with the slice's exact
//!   padding coverage (borders are not spread evenly across clusters);
//! * per position, each filter group walks every chunk of the window and
//!   pays `max-over-units(work) + CHUNK_OVERHEAD` cycles per chunk (the broadcast
//!   barrier). The max is the only quantity that needs a statistical
//!   approximation — everything else (coverage, group structure, chunk
//!   taxonomy, op counts) is computed exactly, and the traffic is the
//!   simulators' own formula fed expected non-zero counts;
//! * the expected max combines the two *between-unit* variance sources:
//!   filter-mask overlap sampling (attacked by GB-H's per-chunk
//!   re-pairing) and between-filter density spread (shrunk by sorting,
//!   nearly eliminated by GB-S collocation). The shared input-popcount
//!   noise moves every unit together and drops out of the max.
//!
//! The Figure 10 breakdown identity — `nonzero + zero + intra + inter ==
//! compute_cycles × total_units` — holds *by construction*: the integer
//! breakdown is assembled from the clamped estimates exactly as the
//! simulators assemble theirs from measured tallies.

use sparten_nn::ConvShape;
use sparten_sim::sparten::{Sparsity, CHUNK_OVERHEAD};
use sparten_sim::{Breakdown, OpCounts, Scheme, SimConfig, SimResult, Traffic};

use crate::params::{Geometry, LayerParams};
use crate::stats::{expected_max, expected_max_coeff};

/// Residual per-chunk popcount imbalance GB-H's greedy pairing cannot
/// remove (odd splits, ranking ties), as an additive fraction of the
/// `(1 − ρ_i)` positional-overlap floor.
const GBH_PAIRING_RESIDUAL: f64 = 0.05;

/// Residual between-unit density spread after GB-S serpentine collocation,
/// as a fraction of the sorted-window spread.
const GBS_PAIR_RESIDUAL: f64 = 0.3;

/// One kind of filter group (full groups are identical; the remainder
/// group, if any, differs).
struct GroupKind {
    /// How many groups of this kind exist.
    count: f64,
    /// Filters in one group.
    filters: usize,
    /// Compute units with at least one filter.
    busy: usize,
    /// Mean filters per busy unit.
    slots: f64,
    /// Between-unit std of the mean per-unit filter density.
    sigma_between: f64,
    /// Whether GB-H's per-chunk re-pairing equalizes per-chunk popcounts.
    per_chunk_paired: bool,
}

fn group_kinds(scheme: Scheme, num_filters: usize, units: usize, sigma_f: f64) -> Vec<GroupKind> {
    let mut kinds = Vec::with_capacity(2);
    let mut push = |m: usize, count: usize, colloc: usize| {
        if m == 0 || count == 0 {
            return;
        }
        let busy = m.div_ceil(colloc).min(units);
        let slots = m as f64 / busy as f64;
        let window = (m as f64 / num_filters as f64).min(1.0);
        let (sigma_between, per_chunk_paired) = match scheme {
            // Unsorted single-filter units: the full population spread.
            Scheme::SpartenNoGb => (sigma_f, false),
            // Sorted + serpentine-collocated: the group only spans a
            // `m/F` quantile window, and pairing cancels most of that.
            Scheme::SpartenGbS => (GBS_PAIR_RESIDUAL * sigma_f * window, false),
            // Per-chunk re-pairing additionally equalizes the per-chunk
            // filter popcounts themselves.
            Scheme::SpartenGbH => (0.0, true),
            _ => (sigma_f, false),
        };
        kinds.push(GroupKind {
            count: count as f64,
            filters: m,
            busy,
            slots,
            sigma_between,
            per_chunk_paired,
        });
    };
    match scheme {
        Scheme::SpartenGbS | Scheme::SpartenGbH => {
            // Sorted groups of `2·units`, two filters collocated per unit.
            let size = 2 * units;
            push(size, num_filters / size, 2);
            push(num_filters % size, 1, 2);
        }
        _ => {
            // Plain groups of `units`, one filter per unit, original order.
            push(units, num_filters / units, 1);
            push(num_filters % units, 1, 1);
        }
    }
    kinds
}

/// Expected barrier (max-over-units work) for one in-bounds chunk with
/// `cc` real channels.
///
/// Only *between-unit* variance widens the max. The broadcast input chunk
/// is shared by every unit, so conditioning on it: `Var(W_u | I)` is the
/// hypergeometric overlap term `ρi·ρf(1−ρf)` per trial (what GB-H's
/// per-chunk re-pairing attacks), plus the squared between-filter density
/// spread. The shared input-popcount variance `ρf²·ρi(1−ρi)` shifts all
/// units together and cancels out of the max spread.
fn chunk_barrier(kind: &GroupKind, cc: f64, rho_i: f64, rho_f: f64) -> f64 {
    let p = rho_i * rho_f;
    let mu = kind.slots * cc * p;
    // Per-chunk re-pairing equalizes per-unit filter popcounts, removing
    // the `ρi²·Var(n_u)` share of the overlap variance but not the
    // positional part — scale `(1 − ρi)` of the full term (plus a small
    // residual for odd splits and ranking ties).
    let filter_var_scale = if kind.per_chunk_paired {
        (1.0 - rho_i) + GBH_PAIRING_RESIDUAL
    } else {
        1.0
    };
    let var = filter_var_scale * kind.slots * cc * rho_i * rho_f * (1.0 - rho_f)
        + (rho_i * kind.slots * cc * kind.sigma_between).powi(2);
    let cap = (kind.slots.ceil()) * cc;
    expected_max(mu, var.max(0.0).sqrt(), kind.busy, cap, p, kind.filters as f64 * cc)
}

/// What [`predict_accel`] needs that depends only on the layer shape and
/// the cluster count, never on the densities: the padding geometry and
/// each cluster's position slice and coverage. A DSE batch builds it once
/// per run of configurations that differ only in density.
pub(crate) struct ClusterGeometry {
    geo: Geometry,
    sizes: Vec<usize>,
    covs: Vec<f64>,
}

impl ClusterGeometry {
    pub(crate) fn new(shape: &ConvShape, clusters: usize) -> Self {
        let geo = Geometry::new(shape);
        let sizes = geo.cluster_sizes(clusters);
        let covs = geo.cluster_coverage(clusters);
        ClusterGeometry { geo, sizes, covs }
    }
}

/// Closed-form prediction for the Dense, One-sided, and SparTen schemes,
/// on `cg` built for `params.shape` and `config`'s cluster count.
pub(crate) fn predict_accel(
    params: &LayerParams,
    cg: &ClusterGeometry,
    config: &SimConfig,
    scheme: Scheme,
) -> SimResult {
    let shape = &params.shape;
    let geo = &cg.geo;
    let units = config.accel.cluster.compute_units;
    let clusters = config.accel.num_clusters;
    debug_assert_eq!(
        cg.sizes.len(),
        clusters,
        "geometry for another cluster count"
    );
    let chunk = config.accel.cluster.chunk_size;
    let (k, d, nf) = (shape.kernel, shape.in_channels, shape.num_filters);
    let (rho_i, rho_f) = (params.input_density, params.filter_density);

    // Chunk taxonomy: q − 1 full chunks plus one remainder per fiber.
    let q = d.div_ceil(chunk);
    let cc_rem = (d - (q - 1) * chunk) as f64;
    let taps = (k * k) as f64;
    let chunks_w = taps * q as f64;

    let dense_macs = shape.dense_macs() as f64;
    let e_two = dense_macs * geo.cov_mean * rho_i * rho_f;
    let e_one = dense_macs * geo.cov_mean * rho_i;

    // Per-position expected cycles as a function of the cluster's coverage:
    // `cycles(cov) = base + cov · slope`. `dcdw` is the sensitivity of one
    // position's cycle count to its window popcount — the shared input
    // noise that cancels inside each chunk's max-over-units but makes
    // cluster *sums* spread (see the makespan correction below).
    let (base, slope, busy_f, nonzero_f, dcdw) = match scheme {
        Scheme::Dense => {
            let groups = nf.div_ceil(units) as f64;
            (groups * taps * d as f64, 0.0, dense_macs, e_two, 0.0)
        }
        Scheme::OneSided => {
            // The barrier is the input chunk's popcount — identical across
            // units, so expectation is exact by linearity.
            let groups = nf.div_ceil(units) as f64;
            (
                groups * chunks_w * CHUNK_OVERHEAD as f64,
                groups * taps * d as f64 * rho_i,
                e_one,
                e_two,
                groups,
            )
        }
        Scheme::SpartenNoGb | Scheme::SpartenGbS | Scheme::SpartenGbH => {
            let kinds = group_kinds(scheme, nf, units, params.filter_density_std);
            let mut base = 0.0;
            let mut slope = 0.0;
            let mut g_slots = 0.0;
            for kind in &kinds {
                let mut s = (q - 1) as f64 * chunk_barrier(kind, chunk as f64, rho_i, rho_f);
                s += chunk_barrier(kind, cc_rem, rho_i, rho_f);
                slope += kind.count * taps * s;
                base += kind.count * chunks_w * CHUNK_OVERHEAD as f64;
                g_slots += kind.count * kind.slots;
            }
            // One extra input non-zero shifts every unit's overlap mean by
            // `slots · ρf`, and the chunk max with it.
            (base, slope, e_two, e_two, rho_f * g_slots)
        }
        _ => panic!("predict_accel called with an SCNN scheme"),
    };

    // Exact per-cluster position slices and padding coverage.
    let mut sum_cycles_f = 0.0;
    let mut makespan_f: f64 = 0.0;
    let mut cluster_cy = Vec::with_capacity(clusters);
    let var_w = taps * d as f64 * rho_i * (1.0 - rho_i);
    for (&n, &cov) in cg.sizes.iter().zip(&cg.covs) {
        let cy = n as f64 * (base + cov * slope);
        sum_cycles_f += cy;
        makespan_f = makespan_f.max(cy);
        cluster_cy.push((cy, dcdw * (n as f64 * cov * var_w).sqrt()));
    }
    // Between-cluster fluctuation: a cluster's cycle count rides the sum of
    // its positions' window popcounts, so small slices spread around their
    // mean and the makespan is an order statistic, not a max of means.
    // Clusters whose mean is within one σ of the leader compete for it.
    let mut n_eff = 0usize;
    let mut sigma_top = 0.0f64;
    for &(cy, sigma) in &cluster_cy {
        if cy + sigma >= makespan_f {
            n_eff += 1;
            sigma_top = sigma_top.max(sigma);
        }
    }
    makespan_f += expected_max_coeff(n_eff) * sigma_top;

    let (input_nnz, weight_nnz) = params.expected_nnz();
    let traffic = match scheme {
        Scheme::Dense => Traffic::dense(shape, input_nnz, weight_nnz, config),
        Scheme::OneSided => {
            Traffic::sparten(shape, input_nnz, weight_nnz, Sparsity::OneSided, config)
        }
        _ => Traffic::sparten(shape, input_nnz, weight_nnz, Sparsity::TwoSided, config),
    };
    let memory_cycles = config.memory.cycles(&traffic);

    // Integerize with the same clamps that make the simulators' identity
    // hold: intra = Σ(cycles·U − busy), inter = (makespan − cycles)·U.
    let u = units as u64;
    let p = clusters as u64;
    let busy = busy_f.round().max(0.0) as u64;
    let nonzero = (nonzero_f.round().max(0.0) as u64).min(busy);
    let zero = busy - nonzero;
    let sum_cycles = (sum_cycles_f.round() as u64).max(busy.div_ceil(u));
    let compute_cycles = (makespan_f.round() as u64).max(sum_cycles.div_ceil(p));
    let breakdown = Breakdown {
        nonzero,
        zero,
        intra: sum_cycles * u - busy,
        inter: (compute_cycles * p - sum_cycles) * u,
    };

    let positions = geo.positions as f64;
    let joins = positions * chunks_w * nf as f64;
    let ops = match scheme {
        Scheme::Dense => OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * busy,
            ..OpCounts::default()
        },
        Scheme::OneSided => OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * busy,
            prefix_ops: joins as u64,
            encoder_ops: busy,
            compact_ops: (positions * nf as f64) as u64,
            ..OpCounts::default()
        },
        _ => OpCounts {
            macs_nonzero: nonzero,
            macs_zero: zero,
            buffer_accesses: 3 * busy,
            prefix_ops: 2 * joins as u64,
            encoder_ops: busy,
            permute_values: if scheme == Scheme::SpartenGbH {
                joins as u64
            } else {
                0
            },
            compact_ops: (positions * nf as f64) as u64,
            ..OpCounts::default()
        },
    };

    SimResult {
        scheme: scheme.label(),
        compute_cycles,
        memory_cycles,
        total_units: (units * clusters) as u64,
        breakdown,
        traffic,
        ops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LayerParams {
        LayerParams::new(ConvShape::new(64, 8, 8, 3, 16, 1, 1), 0.4, 0.3)
    }

    fn predict_accel(p: &LayerParams, cfg: &SimConfig, scheme: Scheme) -> SimResult {
        let cg = ClusterGeometry::new(&p.shape, cfg.accel.num_clusters);
        super::predict_accel(p, &cg, cfg, scheme)
    }

    #[test]
    fn identity_holds_for_every_accel_scheme() {
        let cfg = SimConfig::small();
        for scheme in [
            Scheme::Dense,
            Scheme::OneSided,
            Scheme::SpartenNoGb,
            Scheme::SpartenGbS,
            Scheme::SpartenGbH,
        ] {
            let r = predict_accel(&params(), &cfg, scheme);
            assert!(r.accounting_holds(), "identity broken for {scheme:?}");
            assert!(r.compute_cycles > 0);
        }
    }

    #[test]
    fn balance_policies_order_as_the_paper_claims() {
        // More balancing → fewer predicted cycles, dense ≥ one-sided ≥
        // two-sided (compute only; memory can invert totals). The claim
        // needs F ≥ 2·units — below that, collocation's idle-unit pathology
        // (§5.1) makes GB-S genuinely slower, in the model as in the sim.
        let cfg = SimConfig::small();
        let p = LayerParams::new(ConvShape::new(64, 8, 8, 3, 64, 1, 1), 0.4, 0.3);
        let dense = predict_accel(&p, &cfg, Scheme::Dense).compute_cycles;
        let one = predict_accel(&p, &cfg, Scheme::OneSided).compute_cycles;
        let nogb = predict_accel(&p, &cfg, Scheme::SpartenNoGb).compute_cycles;
        let gbs = predict_accel(&p, &cfg, Scheme::SpartenGbS).compute_cycles;
        let gbh = predict_accel(&p, &cfg, Scheme::SpartenGbH).compute_cycles;
        assert!(dense >= one, "dense {dense} < one-sided {one}");
        assert!(one >= nogb, "one-sided {one} < no-GB {nogb}");
        assert!(nogb >= gbs, "no-GB {nogb} < GB-S {gbs}");
        assert!(gbs >= gbh, "GB-S {gbs} < GB-H {gbh}");
    }

    #[test]
    fn chunk_size_one_and_non_divisible_are_accepted() {
        let mut cfg = SimConfig::small();
        for chunk in [1, 64, 100, 1000] {
            cfg.accel.cluster.chunk_size = chunk;
            let r = predict_accel(&params(), &cfg, Scheme::SpartenGbH);
            assert!(r.accounting_holds(), "chunk {chunk}");
            assert!(r.compute_cycles > 0, "chunk {chunk}");
        }
    }
}
