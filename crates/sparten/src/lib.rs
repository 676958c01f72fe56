//! SparTen: a from-scratch reproduction of the MICRO 2019 sparse CNN
//! accelerator, its baselines, and its evaluation.
//!
//! This facade re-exports the whole public API:
//!
//! * [`tensor`] — bit-mask sparse tensors (SparseMaps, chunks), CSR/RLE
//!   comparison formats, Z-first layout;
//! * [`arch`] — circuit-level models: prefix sums, priority encoder,
//!   inner-join sequencer, output compactor, permutation network;
//! * [`nn`] — CNN substrate: shapes, reference convolution, pruning, the
//!   paper's Table 3 benchmark networks, synthetic workload generation;
//! * [`core`] — the SparTen accelerator: compute clusters, greedy
//!   balancing (GB-S / GB-H), the functional engine;
//! * [`sim`] — cycle-level simulators for Dense, One-sided, SparTen, and
//!   SCNN with the paper's execution-time breakdown;
//! * [`energy`] — the 45 nm energy model (Figure 13) and the cluster ASIC
//!   area/power estimate (Table 4);
//! * [`model`] — first-order analytical throughput/energy model and the
//!   design-space-exploration grids behind `sparten-harness dse`, kept
//!   honest by a differential oracle against the cycle-accurate
//!   simulators;
//! * [`telemetry`] — cycle-level counters, stall-cause tracing, and the
//!   Chrome-trace/plain-text exporters behind `sparten-harness
//!   --telemetry`;
//! * [`faults`] — deterministic fault injection: seeded fault plans over
//!   masks, packed values, compute units, output writes, and cache
//!   entries, with the coverage report behind `sparten-harness faults`.
//!
//! # Quickstart
//!
//! ```
//! use sparten::nn::{alexnet, LayerSpec};
//! use sparten::sim::{simulate_spec, Scheme, SimConfig};
//!
//! let net = alexnet();
//! let layer = &net.layers[2]; // AlexNet Layer2
//! let cfg = SimConfig::large();
//! let dense = simulate_spec(layer, &cfg, Scheme::Dense, 1);
//! let sparten = simulate_spec(layer, &cfg, Scheme::SpartenGbH, 1);
//! assert!(sparten.speedup_over(&dense) > 1.0);
//! ```

pub use sparten_arch as arch;
pub use sparten_core as core;
pub use sparten_faults as faults;
pub use sparten_energy as energy;
pub use sparten_model as model;
pub use sparten_nn as nn;
pub use sparten_sim as sim;
pub use sparten_telemetry as telemetry;
pub use sparten_tensor as tensor;
