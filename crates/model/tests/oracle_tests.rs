//! Differential oracle: the analytical model against all four
//! cycle-accurate simulators.
//!
//! Every golden point of the evaluation is simulated and predicted side by
//! side and the relative cycle error is checked against the per-scheme
//! bounds documented in [`sparten_model::oracle`]. Debug builds run a
//! representative subset so `cargo test -q` stays fast; release builds
//! (`cargo test --release`, run by `scripts/verify.sh`) sweep the full
//! 60-point catalog. Seeded random layers extend the check beyond Table 3,
//! and the error report itself is asserted byte-identical per seed.

use sparten_model::oracle::{
    compare_layer, error_report, golden_points, GoldenPoint, GOLDEN_SEED,
};
use sparten_nn::networks::LayerSpec;
use sparten_nn::ConvShape;
use sparten_sim::{Scheme, SimConfig};

/// The golden points this build sweeps. Debug builds keep every GoogLeNet
/// point (small config, widest density spread) plus the late AlexNet and
/// VGGNet layers; release builds take the whole catalog.
fn catalog() -> Vec<GoldenPoint> {
    let all = golden_points();
    if cfg!(debug_assertions) {
        all.into_iter()
            .filter(|p| {
                p.network == "GoogLeNet"
                    || (p.network == "AlexNet"
                        && matches!(p.spec.name, "Layer3" | "Layer4"))
                    || (p.network == "VGGNet"
                        && matches!(p.spec.name, "Layer11" | "Layer12"))
            })
            .collect()
    } else {
        all
    }
}

fn rows_for(points: &[GoldenPoint], seed: u64) -> Vec<sparten_model::oracle::OracleRow> {
    points
        .iter()
        .flat_map(|p| {
            compare_layer(p.network, p.config_tag, &p.spec, &p.config, &p.schemes, seed)
        })
        .collect()
}

#[test]
fn model_is_within_documented_bounds_on_golden_points() {
    let points = catalog();
    let rows = rows_for(&points, GOLDEN_SEED);
    assert!(!rows.is_empty());
    let violations = rows.iter().filter(|r| !r.within_bound()).count();
    assert_eq!(
        violations,
        0,
        "oracle bound violations:\n{}",
        error_report(&rows, GOLDEN_SEED)
    );
    // The model feeds the simulators' own traffic formulas, so on measured
    // densities its traffic and memory bound are exact, not approximate.
    let inexact: Vec<String> = rows
        .iter()
        .filter(|r| !r.traffic_exact)
        .map(|r| format!("{}/{}/{}/{}", r.network, r.config_tag, r.layer, r.scheme))
        .collect();
    assert!(
        inexact.is_empty(),
        "traffic differs from the simulator's: {inexact:?}"
    );
}

#[test]
fn error_report_is_byte_identical_per_seed() {
    // A cheap slice of the catalog is enough to pin report stability; the
    // full-catalog determinism follows from the same code path.
    let points: Vec<GoldenPoint> = golden_points()
        .into_iter()
        .filter(|p| p.network == "GoogLeNet" && p.config_tag == "small")
        .take(4)
        .collect();
    for seed in [GOLDEN_SEED, GOLDEN_SEED + 1] {
        let a = error_report(&rows_for(&points, seed), seed);
        let b = error_report(&rows_for(&points, seed), seed);
        assert_eq!(a, b, "report for seed {seed} is not byte-stable");
        assert!(a.contains(&format!("seed={seed}")));
        assert!(a.ends_with('\n'));
    }
}

/// Splitmix-style deterministic generator for the random-layer sweep.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick<T: Copy>(&mut self, options: &[T]) -> T {
        options[(self.next() as usize) % options.len()]
    }
}

/// Seeded random small layers: shapes and densities off Table 3's grid but
/// inside the regime the model documents (moderate densities, F ≥ 2·units).
fn random_layers(seed: u64, n: usize) -> Vec<LayerSpec> {
    const NAMES: [&str; 8] = [
        "Rand0", "Rand1", "Rand2", "Rand3", "Rand4", "Rand5", "Rand6", "Rand7",
    ];
    let mut rng = Lcg(seed ^ 0x5eed_cafe);
    (0..n.min(NAMES.len()))
        .map(|i| {
            let depth = rng.pick(&[48, 64, 96, 160, 288]);
            let hw = rng.pick(&[7, 9, 14, 21]);
            let kernel = rng.pick(&[1, 3, 5]);
            let filters = rng.pick(&[64, 96, 144, 224]);
            let input_density = rng.pick(&[0.18, 0.3, 0.45, 0.6, 0.8]);
            let filter_density = rng.pick(&[0.22, 0.35, 0.5, 0.7]);
            LayerSpec {
                name: NAMES[i],
                shape: ConvShape::new(depth, hw, hw, kernel, filters, 1, kernel / 2),
                input_density,
                filter_density,
            }
        })
        .collect()
}

#[test]
fn model_is_within_documented_bounds_on_random_layers() {
    let n = if cfg!(debug_assertions) { 3 } else { 8 };
    let config = SimConfig::small();
    for seed in [GOLDEN_SEED, GOLDEN_SEED + 7] {
        let mut rows = Vec::new();
        for spec in random_layers(seed, n) {
            rows.extend(compare_layer(
                "Random",
                "small",
                &spec,
                &config,
                &Scheme::all(),
                seed,
            ));
        }
        let violations = rows.iter().filter(|r| !r.within_bound()).count();
        assert_eq!(
            violations,
            0,
            "random-layer violations (seed {seed}):\n{}",
            error_report(&rows, seed)
        );
        // The random-layer report is byte-stable per seed too.
        let again: Vec<_> = random_layers(seed, n)
            .iter()
            .flat_map(|spec| {
                compare_layer("Random", "small", spec, &config, &Scheme::all(), seed)
            })
            .collect();
        assert_eq!(error_report(&rows, seed), error_report(&again, seed));
    }
}
