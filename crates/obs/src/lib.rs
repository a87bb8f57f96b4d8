//! Iteration-level observability for the tutel-rs MoE stack.
//!
//! The paper's adaptive mechanisms — dynamic capacity factors
//! (Figure 1), the online pipelining search (Algorithm 2), and the
//! P1/P2 parallelism router — all act on *per-iteration* signals. This
//! crate makes those signals inspectable: every crate in the workspace
//! reports into one shared [`Telemetry`] handle, and the whole run
//! exports as JSONL for offline analysis.
//!
//! # Pieces
//!
//! * **Metrics** ([`metrics`]): lock-cheap [`Counter`]s, [`Gauge`]s,
//!   and [`Histogram`]s with *fixed log-bucketing* — the bucket layout
//!   is fixed at construction, bucket bounds grow geometrically, and
//!   two histograms with the same layout merge bucket-by-bucket (used
//!   to aggregate per-thread or per-run loads).
//! * **Spans** ([`Telemetry::span`]): wall-clock scopes recorded into
//!   an in-process [`RingBuffer`] — bounded, oldest-first eviction,
//!   with a drop counter so truncation is never silent. A span's
//!   duration also accumulates into the current training step's
//!   per-stage map (`gate`, `encode`, `ffn`, `decode`, ...).
//! * **Events** ([`events`]): besides spans, the ring records modeled
//!   collectives ([`CollectiveRecord`]: algorithm, payload bytes, cost
//!   model's seconds), per-training-step summaries ([`StepRecord`]:
//!   loss, per-expert load, dropped tokens, per-stage durations), and
//!   the adaptive-decision audit log ([`DecisionRecord`]: candidate
//!   strategies, their predicted costs, and the winner).
//! * **Export** ([`Telemetry::export_jsonl`]): one self-describing
//!   JSON object per line (`"type"`: `meta`, `span`, `collective`,
//!   `step`, `adaptive_decision`, `anomaly`, `counter`, `gauge`,
//!   `histogram`), hand-written by [`json`] because the offline build
//!   has no serde serialization (the same module also parses, for the
//!   trace merger).
//! * **Causal tracing** ([`trace`]): per-rank [`Tracer`]s on a shared
//!   [`TraceHub`] epoch record per-track timeline events and
//!   `(src, dst, tag, seq)`-stamped flow edges; [`MergedTrace`]
//!   combines ranks, checks invariants, and exports Chrome
//!   `trace_events` JSON for Perfetto (see the `tutel-trace` CLI).
//! * **Analysis** ([`analyze`]): per-step critical-path extraction,
//!   straggler detection (wall clock and sender-attributed delivery
//!   latency), and expert-imbalance alerts, emitted as typed
//!   [`AnomalyRecord`]s into the decision audit log.
//!
//! # Cost when disabled
//!
//! [`Telemetry`] is an `Option<Arc<...>>`. [`Telemetry::disabled`]
//! (also its `Default`) holds `None`: cloning copies a `None`, and
//! every recording call returns after one branch — no clock reads, no
//! allocation, no locking. Instrumented hot paths are therefore safe
//! to leave in release builds. `tests/route_allocs.rs` pins this as
//! exact counts: disabled [`Telemetry`] and [`Tracer`] calls make zero
//! heap allocations and record zero events. The adaptive decisions
//! (the P1/P2 `choose`, `best_strategy`, both pipeline searches and the
//! layer simulator's `step_time`) take the handle as a parameter, with
//! no untraced twin; the same test pins each under a disabled handle at
//! zero events and exactly the allocations of its own pricing. A count cannot see the
//! branch itself. What an *enabled* handle costs is `benchmark/`'s
//! `obs.telemetry_enabled_overhead_pct` row; no row times an enabled
//! [`Tracer`].
//!
//! # Example
//!
//! ```
//! use tutel_obs::{StepRecord, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! tel.begin_step(0);
//! {
//!     let _gate = tel.span("gate").tag("experts", 8u64);
//!     // ... route tokens ...
//! }
//! tel.add_counter("gate.dropped_tokens", 3);
//! tel.record_step(StepRecord { step: 0, loss: 2.3, ..StepRecord::default() });
//!
//! let mut jsonl = Vec::new();
//! tel.export_jsonl(&mut jsonl).unwrap();
//! assert!(String::from_utf8(jsonl).unwrap().contains("\"type\":\"step\""));
//! ```

pub mod analyze;
pub mod events;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod runtime;
mod telemetry;
pub mod trace;

pub use analyze::{analyze, analyze_with_load, Analysis, AnalyzerConfig, CriticalPath};
pub use events::{
    AnomalyRecord, CollectiveRecord, DecisionRecord, Event, SpanRecord, StepRecord, TagValue,
};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use ring::RingBuffer;
pub use runtime::{record_runtime, RuntimeSnapshot};
pub use telemetry::{Span, Telemetry};
pub use trace::{
    parse_rank_trace, FlowEdge, FlowKind, MergedTrace, RankTrace, TraceEvent, TraceHub,
    TraceInvariants, Tracer,
};
