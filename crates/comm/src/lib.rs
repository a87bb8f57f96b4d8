//! Collective communication for the tutel-rs MoE stack.
//!
//! Implements the All-to-All family the paper builds on over a
//! [`Topology`] of simulated ranks (nodes × GPUs per node, node-major).
//! [`runtime`] runs every rank on its own thread and moves real `f32`s
//! between them over point-to-point channels — bit-exact, and the only
//! code that moves data between ranks. Its threads are a [`RankGroup`],
//! the only code that spawns rank threads: one parked thread per rank,
//! each owning its communicator for the group's life;
//! [`RankGroup::run_once`] is a one-shot run (reliable and traced runs
//! pass their config and telemetry handle to [`RankGroup::new`]) and
//! [`run_threaded`] its plain form. Nothing here prices a collective:
//! the cost models live in `tutel::cost`, on top of the data path.
//!
//! The executed collectives are each rank's local program:
//!
//! * [`runtime::Communicator::ialltoall_v`] — the All-to-All, linear
//!   (Algorithm 1 of the paper) or Two-Dimensional Hierarchical
//!   (Algorithm 3), with its blocking and equal-chunk views;
//! * [`flex::flex_all_to_all`] — Flexible All-to-All, whose output
//!   layout `(ΔE, C, M)` is independent of world size;
//! * ring [`runtime::Communicator::all_gather`] and
//!   [`runtime::Communicator::all_reduce_sum`].
//!
//! [`linear_all_to_all`] is the one sequential collective: it takes
//! every rank's buffer at once and is the tests' oracle for the
//! exchange.

mod algo;
mod error;
pub mod fault;
pub mod flex;
pub mod group;
mod linear;
pub mod runtime;
#[cfg(feature = "check-sched")]
pub mod sched;
mod topology;
mod wait;

pub use algo::AllToAllAlgo;
pub use error::CommError;
pub use fault::{FaultAction, FaultPlan};
pub use group::RankGroup;
pub use linear::linear_all_to_all;
pub use runtime::{run_threaded, CommHandle, ReliableConfig, RetryPolicy};
pub use topology::Topology;

/// Per-rank buffers: `bufs[r]` is the flat row-major payload on rank `r`.
///
/// The sequential oracle [`linear_all_to_all`] takes and returns this
/// shape. All ranks must hold equally sized buffers divisible into one
/// chunk per rank.
pub type RankBuffers = Vec<Vec<f32>>;
