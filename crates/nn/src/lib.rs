#![warn(missing_docs)]

//! CNN substrate for the SparTen reproduction.
//!
//! SparTen is evaluated on pruned AlexNet, GoogLeNet, and VGGNet layers
//! (Table 3 of the paper). This crate provides everything those experiments
//! need from the neural-network side:
//!
//! * [`shape`] — layer shape algebra (output dimensions, dense MAC counts);
//! * [`filter`] — filters with the Z-first linearization that matches the
//!   accelerator's on-the-fly window vectors;
//! * [`conv`] — reference convolutions (direct and im2col) for any stride
//!   and padding, plus ReLU and max-pooling, used as the numerical oracle;
//! * [`pruning`] — magnitude pruning to per-layer density targets (the Han
//!   et al. scheme the paper applies; retraining is a no-op here because the
//!   simulators only see sparsity structure);
//! * [`generate`] — deterministic synthetic sparse tensors at target
//!   densities, with per-filter density spread to drive load imbalance;
//! * [`networks`] — the paper's Table 3 benchmark layers.

pub mod conv;
pub mod filter;
pub mod generate;
pub mod networks;
pub mod pruning;
pub mod quant;
pub mod shape;
pub mod structured;

pub use conv::{conv2d, conv2d_direct, im2col, max_pool};
pub use sparten_tensor::{prng, Rng64};
pub use filter::Filter;
pub use generate::{random_filters, random_tensor, workload, Workload};
pub use networks::{alexnet, all_networks, googlenet, vggnet, LayerSpec, Network};
pub use pruning::{prune_to_density, PruneReport};
pub use quant::QuantTensor;
pub use shape::ConvShape;
pub use structured::{prune_coarse, CoarsePruneReport};
