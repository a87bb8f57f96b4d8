//! Root façade for the tutel-rs workspace.
//!
//! Re-exports every member crate under one roof so that the repo-level
//! `tests/` and `examples/` directories can exercise the full stack.

pub use tutel;
pub use tutel_comm as comm;
pub use tutel_experts as experts;
pub use tutel_gate as gate;
pub use tutel_kernels as kernels;
pub use tutel_obs as obs;
pub use tutel_rt as rt;
pub use tutel_tensor as tensor;
