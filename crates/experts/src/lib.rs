//! Expert FFNs and switchable parallelism for the tutel-rs MoE stack
//! (Section 3.2 of the Tutel paper).
//!
//! Provides:
//!
//! * [`ExpertsBlock`] — the batched two-layer feed-forward network
//!   (`fflayer`) computed per local expert, forward and backward;
//! * [`ExpertPlacement`] — the `count_per_node` distribution control of
//!   Figure 17 (positive: experts per GPU; negative: GPUs per expert);
//! * [`ShardedExpertParams`] — the ZeRO-style parameter placement that
//!   both parallelism strategies share, making them switchable at zero
//!   migration cost;
//! * Switchable Expert + Data Parallelism (P1: all-gather parameters,
//!   keep tokens put) and Switchable Expert + Model Parallelism (P2:
//!   replicate tokens, keep parameter slices put) as executed on one
//!   rank: [`Parallelism`] names the two, [`rank_blocks`] builds the
//!   block(s) a strategy runs there, [`shard_sum`] is P2's
//!   partial-output reduction.
//!
//! Which of the two to run is a priced decision, not part of moving
//! tokens: the inline parallelism router that makes it lives in
//! `tutel::adaptive`, on top of the cost model.

mod ffn;
mod placement;
mod sharded;

pub use ffn::ExpertsBlock;
pub use placement::ExpertPlacement;
pub use sharded::{rank_blocks, shard_sum, Parallelism, ShardedExpertParams};
