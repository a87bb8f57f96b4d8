//! Fast encode/decode kernels for MoE dispatch and combine
//! (Section 4.2 of the Tutel paper).
//!
//! *Encode* builds the All-to-All dispatch input `(E, ΔC, M)` from the
//! MoE layer input `(T, M)` and the routing decision; *decode* is its
//! reverse, producing the layer output from All-to-All'd expert outputs
//! weighted by gate values.
//!
//! Two implementations are provided, mirroring Figure 18:
//!
//! * [`dense`] — the GShard/Fairseq einsum formulation, which
//!   materializes a `(T, E, ΔC)` combine tensor and performs
//!   `O(T·E·ΔC·M)` multiply-adds, almost all of them against zeros;
//! * [`ragged`] — Tutel's formulation (the K0/K1/K2 kernels of
//!   Figure 19), which touches only the `O(T·k·M)` useful elements,
//!   over CSR expert bins. [`sparse`] is its padded `(E, ΔC, M)`
//!   view: the same kernels over uniform-capacity bins.
//!
//! Both are differentiable (forward + backward) and produce bit-equal
//! results; the unit/property tests assert the equivalence, and
//! [`memory`] accounts for the Table 4 memory gap.

pub mod dense;
pub mod memory;
pub mod ragged;
pub mod sparse;

pub use dense::{DenseCombine, DenseEncoded};
pub use ragged::{ragged_decode, ragged_decode_backward, ragged_encode, ragged_encode_backward};
pub use sparse::{fast_decode, fast_decode_backward, fast_encode, fast_encode_backward};
