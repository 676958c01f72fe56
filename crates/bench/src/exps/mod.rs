//! The experiment bodies behind every registry job.
//!
//! Each module regenerates one table, figure, sweep, or ablation of the
//! paper; `sparten-harness run` runs it under an output capture, and its
//! output is committed as `results/<name>.txt` (plus `results/<name>.json`
//! for the per-layer figures). All output must go through
//! [`crate::outln!`]/[`crate::out!`] and [`crate::sink::artifact`] so the
//! capture sees every byte.

pub mod ablation_bisection;
pub mod ablation_chunk_size;
pub mod ablation_collocation;
pub mod ablation_collocation_depth;
pub mod accuracy_proxy;
pub mod buffering_study;
pub mod energy_components;
pub mod fig10_alexnet_breakdown;
pub mod fig11_googlenet_breakdown;
pub mod fig12_vggnet_breakdown;
pub mod fig13_energy;
pub mod fig14_gb_impact;
pub mod fig15_alexnet_fpga;
pub mod fig16_googlenet_fpga;
pub mod fig17_vggnet_fpga;
pub mod fig7_alexnet_speedup;
pub mod fig8_googlenet_speedup;
pub mod fig9_vggnet_speedup;
pub mod hpc_crossover;
pub mod perf_per_joule;
pub mod related_work;
pub mod scnn_tile_search;
pub mod stride_study;
pub mod summary_headline;
pub mod sweep_density;
pub mod sweep_scaling;
pub mod table1_design_goals;
pub mod table2_hw_params;
pub mod table3_benchmarks;
pub mod table4_asic;
pub mod utilization_report;
pub mod validate;
