//! Minimal dense `f32` tensor substrate for the tutel-rs MoE stack.
//!
//! The Tutel paper operates on PyTorch tensors; this crate provides the
//! small subset of dense tensor functionality the MoE stack actually
//! needs — contiguous row-major `f32` storage, shape bookkeeping, batched
//! matrix multiplication, softmax/top-k, and the layout transformations
//! that All-to-All variants are defined in terms of.
//!
//! # Example
//!
//! ```
//! use tutel_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.as_slice(), a.as_slice());
//! # Ok::<(), tutel_tensor::TensorError>(())
//! ```

pub mod dispatch;
mod error;
mod init;
mod linalg;
mod ops;
mod param;
pub mod precision;
pub mod scratch;
mod shape;
#[allow(clippy::module_inception)]
mod tensor;

pub use dispatch::{set_simd_override, simd_available, simd_mode, SimdMode};
pub use error::TensorError;
pub use init::Rng;
pub use linalg::{
    grouped_gemm, grouped_gemm_into, grouped_gemm_nt_into, grouped_gemm_tn, linear_backward_panels,
    uniform_offsets,
};
pub use ops::TopK;
pub use param::Param;
pub use precision::{quantize, quantize_in_place, Precision};
pub use shape::Shape;
pub use tensor::Tensor;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, TensorError>;
