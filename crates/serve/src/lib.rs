//! MoE serving engine with continuous token-level batching.
//!
//! The training stack executes one fixed-size batch per step; serving
//! heavy traffic instead means a stream of small, deadline-bearing
//! requests whose only route to hardware efficiency is sharing
//! micro-batches. This crate adds that serving tier on top of the
//! existing execution machinery, without touching its numerics:
//!
//! * [`queue`] — bounded, thread-safe ingress with deterministic
//!   drain order; admission control happens before any capacity is
//!   spent;
//! * [`batcher`] — the continuous batcher: earliest-deadline-first,
//!   work-conserving admission into a fixed slot set, one token row
//!   per running sequence per step, fill-or-timeout launch;
//! * [`exec`] — one micro-batch step through the overlapped
//!   dispatch → expert FFN → combine path (`tutel::overlap` over the
//!   threaded comm runtime), run by a resident executor whose rank
//!   threads and rank blocks outlive the step, plus the sequential
//!   per-request reference executor;
//! * [`engine`] — the virtual-time discrete-event loop joining the
//!   three, with per-request latency/SLO accounting (`serve.*`
//!   metrics, p50/p99, deadline misses) exported through `obs`;
//! * [`loadgen`] — seeded open workload generators (Poisson,
//!   uniform, bursty, diurnal).
//!
//! # Why serving is differentially testable
//!
//! Serving routes **dropless** (capacity adapts to the minimum that
//! drops no token), which removes the only cross-request coupling in
//! the layer. Every remaining operation is per-token-row, so each
//! request's output in any batch composition is bitwise identical to
//! running that request alone (P1; P2 re-associates one sum and is
//! budgeted at ≤ 4 scaled ULP) — see [`exec`]'s module docs for the
//! full argument. The conformance harness holds the engine to that
//! contract across the {P1, P2} × degree × world grid, including
//! under seeded fault-plan replay on the All-to-All.

pub mod batcher;
pub mod engine;
pub mod exec;
pub mod loadgen;
pub mod model;
pub mod queue;
pub mod request;

pub use batcher::{BatcherConfig, ContinuousBatcher, StepPlan};
pub use engine::{Engine, EngineConfig, ServeReport, ServiceModel};
pub use exec::{execute_step, reference_rows, ExecConfig, Strategy};
pub use loadgen::{generate_trace, Arrival, TraceConfig};
pub use model::{ModelDims, ServeModel};
pub use queue::IngressQueue;
pub use request::{Request, RequestId, RequestOutcome, ServeError};
