#![warn(missing_docs)]

//! The SparTen accelerator core: the paper's primary contribution.
//!
//! This crate implements SparTen's architecture (§3 of the paper) as an
//! executable, numerically exact model:
//!
//! * [`config`] — hardware configurations (Table 2's large/small setups,
//!   chunk size, permutation-network bisection);
//! * [`balance`] — greedy balancing: GB-S (whole-filter density sort with
//!   static next-layer unshuffling) and GB-H (per-chunk sort with dynamic
//!   unshuffling through the permutation network), both with dense/sparse
//!   filter collocation (§3.3, Figure 6);
//! * [`chunking`] — SparTen's chunk-aligned linearization (channel fibers
//!   padded to the 128-wide chunk, §3.1);
//! * [`engine`] — the functional cluster engine: compute units running the
//!   inner-join sequencer, the output collector, and GB-H partial-sum
//!   routing, producing exact layer outputs plus per-unit work traces.
//!
//! The engine is the correctness oracle: integration tests check it against
//! `sparten-nn`'s dense reference convolution for every balance mode and
//! stride, and the cycle-level simulators in `sparten-sim` cross-check their
//! fast work model against the engine's traces.

pub mod balance;
pub mod chunking;
pub mod column_combine;
pub mod config;
pub mod engine;
pub mod error;

pub use balance::{BalanceMode, GroupAssignment, LayerBalance};
pub use chunking::{linearize_filter_padded, linearize_window_padded, padded_fiber_len};
pub use column_combine::{combine_columns, CombineReport, CombinedColumn};
pub use config::{AcceleratorConfig, ClusterConfig};
pub use engine::{LayerRun, SparTenEngine, WorkTrace};
pub use error::SimError;
