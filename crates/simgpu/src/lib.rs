//! Simulated multi-GPU cluster substrate for the tutel-rs MoE stack.
//!
//! The Tutel paper runs on Azure NDm A100 v4 clusters (8× A100 per node,
//! 8× HDR InfiniBand NICs, NVLink/NVSwitch intra-node). No such hardware
//! is reachable from a Rust test process, so this crate provides the
//! closest synthetic equivalent: *calibrated analytic cost models* for
//! the kernels ([`GpuCostModel`]) and links ([`LinkModel`]) the paper's
//! adaptive mechanisms reason about, and a small discrete-event
//! timeline for multi-stream (compute/communication) scheduling.
//!
//! This crate is a leaf: it depends on no tutel crate, and only the
//! pricing layer (`tutel::cost::ClusterModel`, which combines these
//! models with a `tutel_comm::Topology`) and the paper-figure bench
//! depend on it. Nothing on the data path does.
//!
//! All adaptive decisions in Tutel — parallelism switching, pipelining
//! degree, All-to-All algorithm selection — depend only on the *relative
//! ordering* of costs, so a cost model calibrated against the paper's
//! published anchor measurements (see [`calib`]) reproduces the decision
//! landscape: who wins, by roughly what factor, and where the crossovers
//! fall.
//!
//! # Example
//!
//! ```
//! use tutel_simgpu::GpuCostModel;
//!
//! let cost = GpuCostModel::a100();
//! // A tall GEMM is far more efficient than a tiny-row batched GEMM.
//! let tall = cost.gemm_time(1, 16384, 2048, 2048);
//! let tiny = cost.gemm_time(2048, 8, 2048, 2048);
//! assert!(tiny > tall);
//! ```

pub mod calib;
mod cost;
mod link;
mod timeline;

pub use cost::GpuCostModel;
pub use link::{fabric_contention, LinkModel, Protocol};
pub use timeline::{EventId, StreamId, Timeline};

/// Seconds, the unit of every cost model in this crate.
pub type Seconds = f64;
