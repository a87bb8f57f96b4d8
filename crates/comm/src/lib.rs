//! Collective communication for the tutel-rs MoE stack.
//!
//! Implements the All-to-All family the paper builds on, in two layers:
//!
//! * an **executed layer**, [`runtime`], that runs every simulated rank
//!   on its own thread and moves real `f32`s between them over
//!   point-to-point channels — bit-exact, and the only code that moves
//!   data between ranks. Its threads are a [`RankGroup`]: one parked
//!   thread per rank, each owning its communicator for the group's
//!   life; [`run_threaded`] is a one-shot group; and
//! * a **timing layer** that prices every collective on a
//!   [`tutel_simgpu`] cluster (link α–β models, message-size-dependent
//!   bandwidth, strided-copy penalties) — used by the adaptive
//!   mechanisms and the scaling benchmarks up to 4,096 simulated GPUs.
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
mod timing;
mod world;

pub use algo::AllToAllAlgo;
pub use error::CommError;
pub use fault::{FaultAction, FaultPlan};
pub use group::RankGroup;
pub use linear::linear_all_to_all;
pub use runtime::{
    run_threaded, run_threaded_reliable, run_threaded_reliable_traced, run_threaded_traced,
    CommHandle, ReliableConfig, RetryPolicy,
};
pub use timing::{A2aImpl, A2aPhase, CollectiveTiming};
pub use world::World;

/// Per-rank buffers: `bufs[r]` is the flat row-major payload on rank `r`.
///
/// The sequential oracle [`linear_all_to_all`] takes and returns this
/// shape. All ranks must hold equally sized buffers divisible into one
/// chunk per rank.
pub type RankBuffers = Vec<Vec<f32>>;
