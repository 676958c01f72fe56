#![warn(missing_docs)]

//! Sparse tensor substrate for the SparTen accelerator reproduction.
//!
//! SparTen ("SparTen: A Sparse Tensor Accelerator for Convolutional Neural
//! Networks", MICRO 2019) stores sparse tensors as a *bit-mask* two-tuple:
//! an n-bit mask called a [`SparseMap`] with 1s at non-zero positions, plus
//! the packed non-zero values. Tensors are broken into fixed-size *chunks*
//! (n = 128 in the paper) so a chunk is a [`SparseChunk`] and a logical
//! vector is a [`SparseVector`] of chunks.
//!
//! This crate provides:
//!
//! * [`SparseMap`] — the bit mask with the operations the SparTen datapath
//!   needs (AND, population count, prefix count);
//! * [`SparseChunk`] / [`SparseVector`] — chunked bit-mask tensors with
//!   exact sparse dot products (the *inner join* of the paper's §3.1);
//! * [`Tensor3`] — dense 3-D tensors in the paper's Z-first (Z, X, Y) layout;
//! * [`csr`] / [`rle`] — the pointer-based formats (HPC's CSR/CSC and
//!   zero-run-length encoding) SparTen is compared against;
//! * [`size`] — the representation-size analysis of §3.1 (bit-mask vs
//!   pointer crossover at `f < 1/log2(n)`);
//! * [`layout`] — the memory layout of §3.1: per-chunk `(SparseMap, ptr)`
//!   directories.
//!
//! # Example
//!
//! ```
//! use sparten_tensor::{SparseVector, CHUNK_SIZE};
//!
//! let a = SparseVector::from_dense(&[0.0, 2.0, 0.0, 3.0], CHUNK_SIZE);
//! let b = SparseVector::from_dense(&[1.0, 4.0, 5.0, 0.0], CHUNK_SIZE);
//! // Inner join: only position 1 is non-zero in both.
//! assert_eq!(a.dot(&b), 8.0);
//! ```

pub mod chunk;
pub mod error;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod layout;
pub mod mask;
pub mod prng;
pub mod rle;
pub mod size;
pub mod sparse3;
pub mod vector;

pub use chunk::SparseChunk;
pub use csc::CscMatrix;
pub use csr::{CsrMatrix, IndexVector};
pub use dense::Tensor3;
pub use error::TensorError;
pub use layout::ChunkDirectory;
pub use mask::SparseMap;
pub use prng::Rng64;
pub use rle::RleVector;
pub use sparse3::SparseTensor3;
pub use vector::SparseVector;

/// The chunk size used throughout the paper: 128 positions per chunk.
pub const CHUNK_SIZE: usize = 128;
