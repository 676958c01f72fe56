//! Simulation configurations: compute resources plus the memory system.
//!
//! The paper matches compute units, on-chip buffering, and memory bandwidth
//! across architectures so differences are purely architectural (§4). The
//! FPGA configuration models the Cyclone IV prototype: one 32-unit cluster
//! at 50 MHz against a 2.8 Gbps SDRAM, which is what makes some layers
//! memory-bound in §5.5.

use sparten_core::AcceleratorConfig;

use crate::breakdown::Traffic;

/// Memory-system parameters shared by all simulated architectures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryConfig {
    /// Sustained DRAM bandwidth in bytes per accelerator cycle.
    pub bytes_per_cycle: f64,
    /// Bytes per tensor element (the paper uses 8-bit values).
    pub element_bytes: usize,
    /// Mini-batch size: filter traffic is amortized across the batch
    /// because filters are reused for every image (§4 uses 16).
    pub batch: usize,
    /// Assumed output-map density after ReLU, used for output traffic when
    /// the simulator runs from a spec rather than real values.
    pub output_density: f64,
}

impl MemoryConfig {
    /// ASIC-class memory: ample bandwidth (64 B/cycle), batch 16.
    pub fn asic() -> Self {
        MemoryConfig {
            bytes_per_cycle: 64.0,
            element_bytes: 1,
            batch: 16,
            output_density: 0.5,
        }
    }

    /// The FPGA prototype's memory: 2.8 Gbps SDRAM against a 50 MHz clock
    /// gives 2.8e9 / 8 / 50e6 = 7 bytes per cycle.
    pub fn fpga() -> Self {
        MemoryConfig {
            bytes_per_cycle: 7.0,
            element_bytes: 1,
            batch: 16,
            output_density: 0.5,
        }
    }

    /// The memory bound: cycles to move `traffic` at this bandwidth.
    pub fn cycles(&self, traffic: &Traffic) -> u64 {
        (traffic.total_bytes() / self.bytes_per_cycle).ceil() as u64
    }
}

/// SCNN configuration (Table 2 plus §4's tile search result).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ScnnConfig {
    /// Number of processing elements (64 large, 16 small).
    pub num_pes: usize,
    /// Multiplier-array edge F = I (4×4 = 16 multipliers per PE).
    pub mult_edge: usize,
    /// Input tile edge (6×6 performs best in the paper's search).
    pub tile: usize,
    /// Filters per output group (8).
    pub output_group: usize,
}

impl ScnnConfig {
    /// Table 2 "large": 64 PEs × 16 multipliers.
    pub fn large() -> Self {
        ScnnConfig {
            num_pes: 64,
            mult_edge: 4,
            tile: 6,
            output_group: 8,
        }
    }

    /// Table 2 "small": 16 PEs × 16 multipliers.
    pub fn small() -> Self {
        ScnnConfig {
            num_pes: 16,
            mult_edge: 4,
            tile: 6,
            output_group: 8,
        }
    }

    /// Total multipliers.
    pub fn total_mults(&self) -> usize {
        self.num_pes * self.mult_edge * self.mult_edge
    }
}

/// A complete simulation configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// SparTen/Dense/One-sided compute resources.
    pub accel: AcceleratorConfig,
    /// SCNN compute resources (kept resource-matched).
    pub scnn: ScnnConfig,
    /// Memory system.
    pub memory: MemoryConfig,
}

impl SimConfig {
    /// The aggressive configuration used for AlexNet and VGGNet.
    pub fn large() -> Self {
        SimConfig {
            accel: AcceleratorConfig::large(),
            scnn: ScnnConfig::large(),
            memory: MemoryConfig::asic(),
        }
    }

    /// The scaled-down configuration used for GoogLeNet.
    pub fn small() -> Self {
        SimConfig {
            accel: AcceleratorConfig::small(),
            scnn: ScnnConfig::small(),
            memory: MemoryConfig::asic(),
        }
    }

    /// The FPGA prototype: one cluster, SDRAM bandwidth.
    pub fn fpga() -> Self {
        SimConfig {
            accel: AcceleratorConfig::fpga(),
            scnn: ScnnConfig::small(),
            memory: MemoryConfig::fpga(),
        }
    }

    /// A stable, human-readable digest of every parameter that can change
    /// simulation results. The experiment cache hashes this string into its
    /// keys, so two runs share cache entries exactly when their configs are
    /// identical — and any config change invalidates the right entries.
    pub fn fingerprint(&self) -> String {
        format!(
            "accel(cu={},chunk={},bisect={},clusters={}) \
             scnn(pes={},edge={},tile={},group={}) \
             mem(bpc={},eb={},batch={},outd={})",
            self.accel.cluster.compute_units,
            self.accel.cluster.chunk_size,
            self.accel.cluster.bisection_limit,
            self.accel.num_clusters,
            self.scnn.num_pes,
            self.scnn.mult_edge,
            self.scnn.tile,
            self.scnn.output_group,
            self.memory.bytes_per_cycle,
            self.memory.element_bytes,
            self.memory.batch,
            self.memory.output_density,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_matching_large() {
        // Dense/SparTen 1024 MACs vs SCNN 64 PEs × 16 = 1024 multipliers.
        let c = SimConfig::large();
        assert_eq!(c.accel.total_macs(), c.scnn.total_mults());
    }

    #[test]
    fn resource_matching_small() {
        let c = SimConfig::small();
        assert_eq!(c.accel.total_macs(), c.scnn.total_mults());
    }

    #[test]
    fn fpga_bandwidth_is_seven_bytes_per_cycle() {
        assert!((MemoryConfig::fpga().bytes_per_cycle - 7.0).abs() < 1e-12);
    }

    #[test]
    fn fingerprints_distinguish_configs() {
        let a = SimConfig::large().fingerprint();
        let b = SimConfig::small().fingerprint();
        let c = SimConfig::fpga().fingerprint();
        assert_ne!(a, b);
        assert_ne!(b, c);
        assert_eq!(a, SimConfig::large().fingerprint());
        let mut tweaked = SimConfig::large();
        tweaked.memory.batch = 17;
        assert_ne!(a, tweaked.fingerprint());
    }
}
