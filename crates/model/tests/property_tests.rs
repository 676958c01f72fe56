//! Property tests for the analytical model: monotonicity in density,
//! chunk-size boundary behavior, and the Figure 10 accounting identity
//! over seeded parameter grids.
//!
//! Everything here calls [`sparten_model::predict`] only — no simulator —
//! so the default case count already sweeps thousands of points; the
//! `exhaustive-tests` feature widens the grids further.

use sparten_model::{evaluate, predict, scheme_buffer_bytes_per_mac, LayerParams};
use sparten_nn::ConvShape;
use sparten_sim::{Scheme, SimConfig};

fn densities() -> Vec<f64> {
    if cfg!(feature = "exhaustive-tests") {
        (1..=19).map(|i| i as f64 * 0.05).collect()
    } else {
        vec![0.1, 0.3, 0.5, 0.7, 0.9]
    }
}

fn shapes() -> Vec<ConvShape> {
    let mut v = vec![
        ConvShape::new(64, 8, 8, 3, 64, 1, 1),
        ConvShape::new(192, 14, 14, 1, 96, 1, 0),
        ConvShape::new(96, 28, 28, 5, 32, 1, 2),
    ];
    if cfg!(feature = "exhaustive-tests") {
        v.push(ConvShape::new(384, 13, 13, 3, 256, 1, 1));
        v.push(ConvShape::new(3, 64, 64, 7, 64, 2, 3));
        v.push(ConvShape::new(512, 7, 7, 3, 512, 1, 1));
    }
    v
}

/// Predicted compute cycles must be non-decreasing in input density for
/// every sparsity-exploiting scheme (a denser input can only add work).
/// Tolerance: 1% — near ρ = 1 the order-statistic spread `ρ(1−ρ)` shrinks
/// faster than the mean grows, so the model (like the expected max it
/// approximates) may dip fractionally between adjacent steps.
#[test]
fn compute_cycles_are_monotone_in_input_density() {
    let cfg = SimConfig::small();
    for shape in shapes() {
        for scheme in Scheme::all() {
            let mut prev = 0.0f64;
            for &rho in &densities() {
                let p = LayerParams::new(shape, rho, 0.4);
                let c = predict(&p, &cfg, scheme).compute_cycles as f64;
                assert!(
                    c >= prev * 0.99,
                    "{scheme:?} {shape:?}: cycles fell {prev} -> {c} at rho_i={rho}"
                );
                prev = c;
            }
        }
    }
}

/// Same in filter density for the two-sided schemes (one-sided and dense
/// pay for filter zeros by construction, so they stay flat instead).
/// Tolerance: 2%, and shallow-input shapes (`in_channels < 16`) are out of
/// scope: as ρ_f → 1 every unit's work converges to the shared input
/// popcount, and the normal-approximated max dips below its band there
/// even though the true (coupled) max only flattens. That corner's
/// accuracy is covered by the oracle instead (VGG Layer0 has depth 3).
#[test]
fn compute_cycles_are_monotone_in_filter_density() {
    let cfg = SimConfig::small();
    for shape in shapes().into_iter().filter(|s| s.in_channels >= 16) {
        for scheme in [
            Scheme::SpartenNoGb,
            Scheme::SpartenGbS,
            Scheme::SpartenGbH,
            Scheme::Scnn,
        ] {
            let mut prev = 0.0f64;
            for &rho in &densities() {
                let p = LayerParams::new(shape, 0.4, rho);
                let c = predict(&p, &cfg, scheme).compute_cycles as f64;
                assert!(
                    c >= prev * 0.98,
                    "{scheme:?} {shape:?}: cycles fell {prev} -> {c} at rho_f={rho}"
                );
                prev = c;
            }
        }
    }
}

/// Denser always costs at least as much as sparser end to end: the fully
/// dense layer upper-bounds every sparser density on the same shape.
#[test]
fn dense_extreme_upper_bounds_sparse_points() {
    let cfg = SimConfig::small();
    for shape in shapes() {
        for scheme in Scheme::all() {
            let top = predict(&LayerParams::new(shape, 1.0, 1.0), &cfg, scheme);
            for &rho in &densities() {
                let r = predict(&LayerParams::new(shape, rho, rho), &cfg, scheme);
                assert!(
                    r.compute_cycles as f64 <= top.compute_cycles as f64 * 1.01,
                    "{scheme:?} {shape:?}: rho={rho} exceeds dense bound"
                );
            }
        }
    }
}

/// Chunk-size boundaries: 1 (every channel its own chunk), the 64-bit
/// word width, non-divisible sizes, and chunks larger than the fiber must
/// all keep the accounting identity and a positive cycle count.
#[test]
fn chunk_size_boundaries_hold_the_identity() {
    let shape = ConvShape::new(192, 8, 8, 3, 64, 1, 1);
    for chunk in [1usize, 63, 64, 100, 192, 193, 4096] {
        let mut cfg = SimConfig::small();
        cfg.accel.cluster.chunk_size = chunk;
        for scheme in [
            Scheme::Dense,
            Scheme::OneSided,
            Scheme::SpartenNoGb,
            Scheme::SpartenGbS,
            Scheme::SpartenGbH,
        ] {
            let p = LayerParams::new(shape, 0.35, 0.45);
            let r = predict(&p, &cfg, scheme);
            assert!(r.accounting_holds(), "{scheme:?} chunk={chunk}");
            assert!(r.compute_cycles > 0, "{scheme:?} chunk={chunk}");
        }
    }
}

/// Chunk size must not change the useful work, only the schedule: the
/// non-zero MAC count is invariant across chunkings of the same layer.
#[test]
fn useful_work_is_chunk_size_invariant() {
    let shape = ConvShape::new(192, 8, 8, 3, 64, 1, 1);
    let p = LayerParams::new(shape, 0.35, 0.45);
    let mut reference = None;
    for chunk in [1usize, 64, 100, 192, 4096] {
        let mut cfg = SimConfig::small();
        cfg.accel.cluster.chunk_size = chunk;
        let nz = predict(&p, &cfg, Scheme::SpartenGbH).breakdown.nonzero;
        match reference {
            None => reference = Some(nz),
            Some(r) => assert_eq!(nz, r, "nonzero MACs changed at chunk={chunk}"),
        }
    }
}

/// Deterministic seeded grid: the breakdown identity `nonzero + zero +
/// intra + inter == compute_cycles × total_units` must hold bit-exactly on
/// every (shape, densities, config, scheme) combination, and the energy
/// evaluation must stay finite and positive.
#[test]
fn breakdown_identity_holds_over_seeded_grid() {
    let mut checked = 0usize;
    for (ci, cfg) in [SimConfig::small(), SimConfig::large(), SimConfig::fpga()]
        .iter()
        .enumerate()
    {
        for shape in shapes() {
            for &rho_i in &densities() {
                for &rho_f in &densities() {
                    // Deterministic thinning keeps the default run fast
                    // while still mixing all axes (no RNG: pure arithmetic).
                    if !cfg!(feature = "exhaustive-tests")
                        && !(ci + (rho_i * 20.0) as usize + (rho_f * 20.0) as usize)
                            .is_multiple_of(3)
                    {
                        continue;
                    }
                    let p = LayerParams::new(shape, rho_i, rho_f);
                    for scheme in Scheme::all() {
                        let r = predict(&p, cfg, scheme);
                        assert!(
                            r.accounting_holds(),
                            "{scheme:?} {shape:?} rho_i={rho_i} rho_f={rho_f}"
                        );
                        let buf = scheme_buffer_bytes_per_mac(scheme, &cfg.accel.cluster);
                        let ev = evaluate(&p, cfg, scheme, buf);
                        assert!(
                            ev.energy_pj().is_finite() && ev.energy_pj() > 0.0,
                            "{scheme:?} {shape:?} energy"
                        );
                        checked += 1;
                    }
                }
            }
        }
    }
    assert!(checked >= 500, "grid too thin: {checked} points");
}
