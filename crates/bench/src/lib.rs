//! The paper's evaluation as a library: every table, figure, sweep, and
//! ablation.
//!
//! Each module in [`exps`] regenerates one table or figure of the paper
//! (see DESIGN.md §4 for the index), and [`registry`] lists them as the
//! jobs the orchestration harness (`sparten-harness run`) schedules. This
//! library also holds the common pieces: table formatting, per-network
//! experiment drivers, the capturable output sink, a hand-rolled JSON
//! writer, the storage seam ([`vfs`]), and the `harness bench` registry
//! with its std-only timer. `src/bin/sparten_cli.rs` is a small CLI
//! over the simulators and the energy model.

pub mod exps;
pub mod experiments;
pub mod fsutil;
pub mod json;
pub mod perf;
pub mod registry;
pub mod sink;
pub mod tables;
pub mod timing;
pub mod vfs;

pub use experiments::{
    dump_json, geomean_excluding, network_config, print_breakdown_figure, print_speedup_figure,
    run_layer, run_network, LayerResult, SEED,
};
pub use fsutil::atomic_write;
pub use vfs::{
    atomic_write_with, materialize_prefix, Append, FaultConfig, FaultFs, FsOp, RealFs, Vfs,
    VfsDirEntry, VfsFile,
};
pub use perf::{
    check_schema, non_timing_fingerprint, run_benchmarks, BenchOptions, BenchReport, ExtraBench,
    BENCH_SCHEMA, DEFAULT_OUT_PATH, DEFAULT_THRESHOLD,
};
pub use registry::{all_experiments, ExperimentKind, ExperimentSpec};
pub use sink::{artifact, begin_capture, end_capture, Capture};
pub use tables::{print_series, print_table};

/// Writes a line of experiment output: to the active capture if the
/// harness installed one on this thread, to stdout otherwise.
#[macro_export]
macro_rules! outln {
    () => { $crate::sink::outln_args(format_args!("")) };
    ($($arg:tt)*) => { $crate::sink::outln_args(format_args!($($arg)*)) };
}

/// Writes experiment output without a trailing newline (see [`outln!`]).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => { $crate::sink::out_args(format_args!($($arg)*)) };
}
