#![warn(missing_docs)]

//! Bit-level hardware primitive models for the SparTen reproduction.
//!
//! The SparTen datapath (§3.1–3.3 of the paper) is built from a small set of
//! well-studied circuits:
//!
//! * **prefix sums** over the SparseMap give packed-value offsets — the paper
//!   notes carry-lookahead-like logarithmic-depth implementations
//!   ([`prefix`]: ripple, Sklansky, and Kogge-Stone variants with delay and
//!   gate-count accounting);
//! * a **priority encoder** walks the set bits of the ANDed masks
//!   ([`encoder`]);
//! * the **inner-join sequencer** combines them into the compute unit's
//!   per-cycle match stream ([`join`]);
//! * the **output compactor** re-sparsifies outputs on the fly with
//!   zero-detection and an inverted prefix sum (Figure 5; [`compact`]);
//! * the **multi-stage permutation network** unshuffles GB-H partial sums
//!   with deliberately thinned bisection bandwidth (§3.3; [`permute`]).
//!
//! Every circuit has a functional model (used by the simulators) and a
//! structural model (gate-by-gate evaluation) tested against each other.

pub mod benes;
pub mod compact;
pub mod encoder;
pub mod fast;
pub mod join;
pub mod permute;
pub mod pipeline;
pub mod prefix;

pub use benes::BenesNetwork;
pub use compact::OutputCompactor;
pub use encoder::PriorityEncoder;
pub use fast::{compact_values, join_eval};
pub use join::{InnerJoinSequencer, JoinStep};
pub use permute::{PermutationNetwork, RouteStats};
pub use pipeline::JoinPipeline;
pub use prefix::{BrentKung, KoggeStone, PrefixCircuit, PrefixStats, Ripple, Sklansky};
