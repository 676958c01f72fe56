//! Differential oracle suite: the word-parallel fast path must be exactly
//! the structural circuits, everywhere.
//!
//! The fast kernels in `sparten_arch::fast` replace the structural prefix
//! networks, priority encoder, and compaction shifter inside the hot
//! loops, so any divergence — even one ulp of the accumulator or one
//! miscounted MAC — would silently change golden artifacts. These
//! property tests drive both paths over seeded random masks and the
//! classic adversarial cases (all-zero, all-one, single-bit, word- and
//! chunk-boundary widths) and demand bit equality.
//!
//! Case counts are deliberately modest by default so `cargo test -q` stays
//! fast; the `exhaustive-tests` feature multiplies the sweep.

use sparten_arch::fast;
use sparten_arch::prefix::{
    exclusive_from_inclusive, reference_prefix_sums, KoggeStone, PrefixCircuit, Sklansky,
};
use sparten_arch::{InnerJoinSequencer, OutputCompactor};
use sparten_tensor::{Rng64, SparseChunk, SparseMap};

/// Random-case multiplier: 1 by default, larger under `exhaustive-tests`.
fn cases(default: usize, exhaustive: usize) -> usize {
    if cfg!(feature = "exhaustive-tests") {
        exhaustive
    } else {
        default
    }
}

fn random_mask(rng: &mut Rng64, len: usize, density: f64) -> SparseMap {
    let bools: Vec<bool> = (0..len).map(|_| rng.gen_bool(density)).collect();
    SparseMap::from_bools(&bools)
}

fn random_chunk(rng: &mut Rng64, len: usize, density: f64) -> SparseChunk {
    let dense: Vec<f32> = (0..len)
        .map(|_| {
            if rng.gen_bool(density) {
                // Avoid exact zero so mask and values stay in sync.
                let v = rng.gen_range_f64(0.25, 4.0) as f32;
                if rng.gen_bool(0.5) {
                    -v
                } else {
                    v
                }
            } else {
                0.0
            }
        })
        .collect();
    SparseChunk::from_dense(&dense)
}

/// Widths that stress word boundaries, including the paper's chunk n=128.
const WIDTHS: [usize; 8] = [1, 5, 63, 64, 65, 127, 128, 192];

/// Asserts the fast exclusive offsets equal the offsets derived from the
/// reference scan and from both minimum-depth structural circuits on one
/// mask.
fn assert_prefix_equivalence(mask: &SparseMap) {
    let fast_exc = fast::exclusive_offsets(mask);
    for (name, inclusive) in [
        ("reference", reference_prefix_sums(mask)),
        ("Sklansky", Sklansky.prefix_sums(mask)),
        ("Kogge-Stone", KoggeStone.prefix_sums(mask)),
    ] {
        assert_eq!(
            fast_exc,
            exclusive_from_inclusive(&inclusive, mask),
            "exclusive offsets vs {name} on {mask:?}"
        );
    }
}

/// Asserts the fused join kernel is bit-for-bit the sequencer: the same
/// accumulator and one MAC per sequencer step.
fn assert_join_equivalence(a: &SparseChunk, b: &SparseChunk) {
    let mut slow_it = InnerJoinSequencer::new(a, b);
    let steps = slow_it.by_ref().count();
    let (dot, macs) = fast::join_eval(a, b);
    assert_eq!(
        dot.to_bits(),
        slow_it.accumulator().to_bits(),
        "accumulators diverge"
    );
    assert_eq!(macs, steps, "MAC counts diverge");
}

#[test]
fn prefix_kernels_match_circuits_on_random_masks() {
    let mut rng = Rng64::seed_from_u64(2019);
    let rounds = cases(8, 200);
    for round in 0..rounds {
        for &n in &WIDTHS {
            let density = 0.05 + 0.9 * (round as f64 / rounds as f64);
            assert_prefix_equivalence(&random_mask(&mut rng, n, density));
        }
    }
}

#[test]
fn prefix_kernels_match_circuits_on_degenerate_masks() {
    for &n in &WIDTHS {
        assert_prefix_equivalence(&SparseMap::zeros(n));
        assert_prefix_equivalence(&SparseMap::ones(n));
        for pos in [0, n / 2, n - 1] {
            let mut single = SparseMap::zeros(n);
            single.set(pos, true);
            assert_prefix_equivalence(&single);
        }
    }
}

#[test]
fn fast_join_matches_sequencer_on_random_chunks() {
    let mut rng = Rng64::seed_from_u64(42);
    let rounds = cases(8, 150);
    for round in 0..rounds {
        for &n in &WIDTHS {
            let da = 0.1 + 0.8 * (round as f64 / rounds as f64);
            let db = 0.9 - 0.8 * (round as f64 / rounds as f64);
            let a = random_chunk(&mut rng, n, da);
            let b = random_chunk(&mut rng, n, db);
            assert_join_equivalence(&a, &b);
        }
    }
}

#[test]
fn fast_join_matches_sequencer_on_degenerate_chunks() {
    for &n in &WIDTHS {
        let zero = SparseChunk::from_dense(&vec![0.0f32; n]);
        let ones = SparseChunk::from_dense(&vec![1.5f32; n]);
        assert_join_equivalence(&zero, &zero);
        assert_join_equivalence(&ones, &ones);
        assert_join_equivalence(&zero, &ones);
        for pos in [0, n / 2, n - 1] {
            let mut dense = vec![0.0f32; n];
            dense[pos] = -2.5;
            let single = SparseChunk::from_dense(&dense);
            assert_join_equivalence(&single, &ones);
            assert_join_equivalence(&single, &single);
            assert_join_equivalence(&single, &zero);
        }
    }
}

#[test]
fn fast_join_matches_sequencer_at_chunk_boundary_128() {
    // The paper's chunk width: matches straddling the 63/64 word seam are
    // where a word-walking join is most likely to go wrong.
    let mut rng = Rng64::seed_from_u64(128);
    for _ in 0..cases(20, 400) {
        let mut da = vec![0.0f32; 128];
        let mut db = vec![0.0f32; 128];
        // Force activity around both word boundaries plus random fill.
        for pos in [62, 63, 64, 65, 126, 127] {
            if rng.gen_bool(0.7) {
                da[pos] = rng.gen_range_f64(0.5, 2.0) as f32;
            }
            if rng.gen_bool(0.7) {
                db[pos] = rng.gen_range_f64(0.5, 2.0) as f32;
            }
        }
        for i in 0..128 {
            if rng.gen_bool(0.3) {
                da[i] = rng.gen_range_f64(-2.0, -0.5) as f32;
            }
            if rng.gen_bool(0.3) {
                db[i] = rng.gen_range_f64(-2.0, -0.5) as f32;
            }
        }
        let a = SparseChunk::from_dense(&da);
        let b = SparseChunk::from_dense(&db);
        assert_join_equivalence(&a, &b);
        assert_prefix_equivalence(a.mask());
        assert_prefix_equivalence(b.mask());
    }
}

#[test]
fn fast_compaction_matches_structural_compactor() {
    let mut rng = Rng64::seed_from_u64(7);
    for _ in 0..cases(10, 200) {
        for &n in &WIDTHS {
            let dense: Vec<f32> = (0..n)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range_f64(-3.0, 3.0) as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            // gen_range may still draw an exact 0.0; from_values handles it
            // identically on both paths, so no filtering is needed.
            assert_eq!(
                fast::compact_values(&dense),
                OutputCompactor::new(n).compact(&dense),
                "compaction diverges at width {n}"
            );
        }
    }
}
