//! The compute unit's join pipeline: stage-level timing of one chunk.
//!
//! §5.3: "the sparse computation latency overheads do not hurt performance
//! due to simple pipelining". The datapath per match is AND-result update →
//! priority encode → prefix-sum offset lookup → operand fetch → multiply-
//! accumulate; with one pipeline register per stage the unit retires one
//! match per cycle after the pipe fills. This model computes a chunk's
//! cycle count from the circuit depths, quantifying (a) the fill/drain cost
//! a chunk pays if the pipe drains at every chunk barrier — a cost the
//! cycle-level simulators do not charge: their one-cycle chunk overhead
//! (`sparten_sim::sparten::CHUNK_OVERHEAD`) is a modelling assumption that
//! the fill stays hidden — and (b) why the 800 MHz clock (Table 4) is
//! achievable: every stage is log-depth.

use crate::encoder::PriorityEncoder;
use crate::prefix::{PrefixCircuit, Sklansky};

/// Stage-level model of one compute unit's join pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinPipeline {
    chunk_size: usize,
    stages: usize,
}

impl JoinPipeline {
    /// A pipeline for `chunk_size`-wide SparseMaps with the paper's five
    /// stages (mask update, encode, offset, fetch, MAC).
    ///
    /// # Panics
    ///
    /// Panics if `chunk_size == 0`.
    pub fn new(chunk_size: usize) -> Self {
        assert!(chunk_size > 0, "chunk size must be positive");
        JoinPipeline {
            chunk_size,
            stages: 5,
        }
    }

    /// Number of pipeline stages.
    pub fn stages(&self) -> usize {
        self.stages
    }

    /// Cycles to process a chunk with `matches` set bits in the AND-result:
    /// one cycle to load the masks and broadcast, the pipeline fill, then
    /// one match retired per cycle. An empty chunk costs only the load.
    pub fn chunk_cycles(&self, matches: usize) -> usize {
        if matches == 0 {
            1
        } else {
            1 + (self.stages - 1) + matches
        }
    }

    /// Effective per-chunk overhead beyond one cycle per match when the pipe
    /// drains at the chunk barrier.
    pub fn overhead_cycles(&self, matches: usize) -> usize {
        self.chunk_cycles(matches) - matches
    }

    /// Amortized overhead per match for a typical chunk population — small
    /// once chunks carry more than a handful of matches.
    pub fn overhead_per_match(&self, matches: usize) -> f64 {
        if matches == 0 {
            f64::INFINITY
        } else {
            self.overhead_cycles(matches) as f64 / matches as f64
        }
    }

    /// The critical stage depth in gate levels: the deepest of the
    /// per-stage circuits (priority encoder vs prefix sum over the chunk).
    /// This bounds the clock period; both are logarithmic in chunk width,
    /// which is why SparTen clocks at 800 MHz (§5.6).
    pub fn critical_stage_depth(&self) -> usize {
        let encoder = PriorityEncoder::new(self.chunk_size).depth();
        let prefix = Sklansky.stats(self.chunk_size).depth;
        encoder.max(prefix)
    }

    /// With double buffering, consecutive chunks overlap their load stage:
    /// cycles for a sequence of chunk populations.
    pub fn sequence_cycles(&self, matches_per_chunk: &[usize]) -> usize {
        // The load of chunk i+1 overlaps the drain of chunk i, so each
        // chunk after the first costs max(matches, 1) plus nothing extra
        // until the pipe must refill on an empty chunk boundary.
        let mut total = 0usize;
        let mut first = true;
        for &m in matches_per_chunk {
            if first {
                total += self.chunk_cycles(m);
                first = false;
            } else {
                total += m.max(1);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_chunk_costs_one_cycle() {
        let p = JoinPipeline::new(128);
        assert_eq!(p.chunk_cycles(0), 1);
    }

    #[test]
    fn full_pipe_retires_one_match_per_cycle() {
        let p = JoinPipeline::new(128);
        let c18 = p.chunk_cycles(18);
        let c19 = p.chunk_cycles(19);
        assert_eq!(c19 - c18, 1);
    }

    #[test]
    fn overhead_amortizes_at_paper_sparsity() {
        // 128-wide chunk at 7x compute sparsity ≈ 18 matches: the fill
        // overhead is well under the ~30% the simulators' constant implies.
        let p = JoinPipeline::new(128);
        assert!(p.overhead_per_match(18) < 0.35);
        assert!(
            p.overhead_per_match(2) > 1.0,
            "tiny chunks pay relatively more"
        );
    }

    #[test]
    fn critical_depth_is_logarithmic() {
        assert_eq!(JoinPipeline::new(128).critical_stage_depth(), 7);
        assert_eq!(JoinPipeline::new(256).critical_stage_depth(), 8);
    }

    #[test]
    fn double_buffering_hides_reload() {
        let p = JoinPipeline::new(128);
        let seq = [10usize, 12, 0, 9];
        let overlapped = p.sequence_cycles(&seq);
        let naive: usize = seq.iter().map(|&m| p.chunk_cycles(m)).sum();
        assert!(overlapped < naive, "{overlapped} !< {naive}");
        // Lower bound: the matches themselves.
        assert!(overlapped >= seq.iter().sum::<usize>());
    }
}
