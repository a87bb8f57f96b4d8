//! `tutel-rt`: the persistent compute runtime under the tutel-rs
//! compute hot path.
//!
//! Two pieces, both process-global and lazily initialized:
//!
//! 1. A **persistent work-stealing thread pool** ([`pool`]): workers
//!    are spawned once (sized by `TUTEL_THREADS` or the machine's
//!    available parallelism) and parked between jobs, replacing the
//!    per-call `std::thread::scope` spawns the GEMM path used before.
//!    The primitives — [`parallel_for`], [`parallel_chunks`],
//!    [`parallel_ranges`], [`parallel_ranges_pair`] — share one **determinism contract**: chunk
//!    boundaries are fixed functions of the problem shape (never of
//!    the worker count), every chunk is executed exactly once by the
//!    same serial kernel, and no two chunks share output elements.
//!    Results are therefore bit-identical for every `TUTEL_THREADS`,
//!    which the repo's determinism suite asserts for
//!    `TUTEL_THREADS ∈ {1, 2, 4, 8}`.
//!
//! 2. A **thread-safe buffer arena** ([`arena`](mod@arena)): size-classed
//!    recycling of `Vec<f32>` scratch buffers across iterations. The
//!    MoE per-iteration path allocates the same shapes every step
//!    (dispatch buffers, activations, gradients); the arena turns
//!    that churn into O(1) re-use with a hit-rate counter telemetry
//!    can export.
//!
//! The crate depends on nothing (std only) and sits below
//! `tutel-tensor` in the workspace layering, next to `tutel-obs`.
//!
//! With the `check-race` feature, the [`chk`] module adds a typed
//! event recorder (pool job lifecycle, arena ownership transfers) and
//! a steal-order-controllable simulation of the pool's claim
//! algorithm. `tutel-check`'s happens-before analyzer consumes the
//! recorded events; without the feature every hook compiles out.

pub mod arena;
#[cfg(feature = "check-race")]
pub mod chk;
pub mod pool;

pub use arena::{arena, Arena, ArenaStats};
pub use pool::{
    parallel_chunks, parallel_chunks_zip, parallel_for, parallel_ranges, parallel_ranges_pair,
    pool_stats, with_parallelism_limit, PoolStats, SameRanges,
};
