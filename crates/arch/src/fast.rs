//! Word-parallel fast-path kernels for the SparseMap hot loops.
//!
//! The structural circuit models in [`crate::prefix`], [`crate::encoder`],
//! and [`crate::compact`] evaluate one node per mask bit — exactly what the
//! hardware does, and exactly what the area/energy model needs — but they
//! are far too slow to sit inside the functional engine's inner loops at
//! AlexNet/VGG scale. This module provides software-speed equivalents that
//! operate on the mask's packed `u64` words:
//!
//! * [`exclusive_offsets`] — prefix popcounts from running per-word
//!   `count_ones`, replacing a structural prefix network;
//! * [`join_eval`] — the inner join walked with `trailing_zeros` over the
//!   ANDed words, replacing the structural priority-encoder reduction tree
//!   per step, fused into the dot product + MAC count the engine uses;
//! * [`popcount_words`] — the set bits of a mask's words;
//! * [`compact_values`] — single-pass output compaction.
//!
//! Every kernel is *defined* to be bit-identical to its structural
//! counterpart: [`join_eval`] returns the same f32 accumulator and MAC
//! count as [`crate::InnerJoinSequencer`] (same walk order, same
//! accumulation order), [`exclusive_offsets`] equals
//! [`crate::prefix::exclusive_from_inclusive`] applied to every structural
//! circuit's sums, and [`compact_values`] builds the same chunk as
//! [`crate::OutputCompactor`]. The structural models remain the
//! hardware-faithful oracle; the differential suite in
//! `tests/differential_tests.rs` enforces the equivalence on random,
//! degenerate, and word-boundary masks.

use sparten_tensor::{SparseChunk, SparseMap};

/// Total popcount of a word slice.
#[inline]
pub fn popcount_words(words: &[u64]) -> u32 {
    words.iter().map(|w| w.count_ones()).sum()
}

/// Exclusive prefix popcount (`out[i]` = ones strictly before `i`) — the
/// packed-value offset of position `i` during the inner join. Equal to
/// [`crate::prefix::exclusive_from_inclusive`] applied to any structural
/// circuit's inclusive sums.
pub fn exclusive_offsets(bits: &SparseMap) -> Vec<u32> {
    let mut out = Vec::with_capacity(bits.len());
    let mut acc = 0u32;
    for (wi, &word) in bits.as_words().iter().enumerate() {
        let n = (bits.len() - wi * 64).min(64);
        let mut w = word;
        for _ in 0..n {
            out.push(acc);
            acc += (w & 1) as u32;
            w >>= 1;
        }
    }
    out
}

/// Fused inner-join evaluation: the chunk dot product and the MAC count in
/// one pass over the ANDed words. The accumulation order is ascending
/// position — identical to [`SparseChunk::dot`] and
/// [`crate::InnerJoinSequencer`] — so the returned f32 is bit-identical to
/// both.
///
/// # Panics
///
/// Panics if the chunks differ in length.
pub fn join_eval(a: &SparseChunk, b: &SparseChunk) -> (f32, usize) {
    assert_eq!(a.len(), b.len(), "chunk length mismatch");
    let a_words = a.mask().as_words();
    let b_words = b.mask().as_words();
    let (av, bv) = (a.values(), b.values());
    let mut acc = 0.0f32;
    let mut macs = 0usize;
    let (mut base_a, mut base_b) = (0u32, 0u32);
    for (&aw, &bw) in a_words.iter().zip(b_words) {
        let mut joined = aw & bw;
        macs += joined.count_ones() as usize;
        while joined != 0 {
            let bit = joined.trailing_zeros();
            joined &= joined - 1;
            let below = (1u64 << bit) - 1;
            let ia = (base_a + (aw & below).count_ones()) as usize;
            let ib = (base_b + (bw & below).count_ones()) as usize;
            acc += av[ia] * bv[ib];
        }
        base_a += aw.count_ones();
        base_b += bw.count_ones();
    }
    (acc, macs)
}

/// Single-pass output compaction: zero-detects `values`, builds the mask
/// words directly, and packs the non-zeros in position order. Produces the
/// identical [`SparseChunk`] as [`crate::OutputCompactor::compact`] (whose
/// structural shifter is the oracle) without evaluating a prefix network.
///
/// # Panics
///
/// Panics if a non-zero value is NaN or infinite (the chunk invariant).
pub fn compact_values(values: &[f32]) -> SparseChunk {
    let mut words = vec![0u64; values.len().div_ceil(64)];
    let mut packed = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if v != 0.0 {
            words[i / 64] |= 1 << (i % 64);
            packed.push(v);
        }
    }
    let mask = SparseMap::try_from_words(words, values.len())
        .expect("mask built in-bounds by construction");
    SparseChunk::from_parts(mask, packed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compact::OutputCompactor;
    use sparten_tensor::Rng64;

    fn random_chunk(rng: &mut Rng64, len: usize, density: f64) -> SparseChunk {
        let dense: Vec<f32> = (0..len)
            .map(|_| {
                if rng.gen_bool(density) {
                    rng.gen_range_f64(-2.0, 2.0) as f32
                } else {
                    0.0
                }
            })
            .collect();
        SparseChunk::from_dense(&dense)
    }

    #[test]
    fn join_eval_matches_dot_and_join_work() {
        let mut rng = Rng64::seed_from_u64(11);
        for _ in 0..50 {
            let len = rng.gen_range_usize(1, 200);
            let a = random_chunk(&mut rng, len, 0.4);
            let b = random_chunk(&mut rng, len, 0.4);
            let (dot, macs) = join_eval(&a, &b);
            assert_eq!(dot.to_bits(), a.dot(&b).to_bits());
            assert_eq!(macs, a.join_work(&b));
        }
    }

    #[test]
    fn compact_matches_structural_compactor() {
        let mut rng = Rng64::seed_from_u64(5);
        for _ in 0..30 {
            let len = rng.gen_range_usize(1, 130);
            let vals: Vec<f32> = (0..len)
                .map(|_| {
                    if rng.gen_bool(0.5) {
                        rng.gen_range_f64(-1.0, 1.0) as f32
                    } else {
                        0.0
                    }
                })
                .collect();
            assert_eq!(compact_values(&vals), OutputCompactor::new(len).compact(&vals));
        }
        assert_eq!(compact_values(&[]).nnz(), 0);
    }

    #[test]
    fn word_popcounts_match_mask_counts() {
        let mut rng = Rng64::seed_from_u64(9);
        let a = random_chunk(&mut rng, 150, 0.5);
        assert_eq!(
            popcount_words(a.mask().as_words()) as usize,
            a.mask().count_ones()
        );
    }
}
