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
//! * **Spans and causal tracing** ([`trace`]): one recorder. Each rank
//!   of a run has a [`Tracer`] ([`Telemetry::tracer`]), all on the
//!   handle's one epoch; a tracer records per-track timeline events
//!   ([`TraceEvent`]: spans with count `args`, instants and
//!   `(src, dst, tag, seq)`-stamped flow edges) into a bounded
//!   [`RingBuffer`] — oldest-first eviction, with a drop counter so
//!   truncation is never silent. [`Telemetry::span`] is rank 0's
//!   main-track span, stamped with the active training step as its
//!   `step` arg. [`MergedTrace`] combines ranks, checks invariants, and
//!   exports Chrome `trace_events` JSON for Perfetto (see the
//!   `tutel-trace` CLI).
//! * **Events** ([`events`]): the event ring records modeled
//!   collectives ([`CollectiveRecord`]: algorithm, payload bytes, cost
//!   model's seconds), per-training-step summaries ([`StepRecord`]:
//!   loss, per-expert load, dropped tokens, and per-stage durations
//!   summed from the step's spans by [`Telemetry::record_step`]), and
//!   the adaptive-decision audit log ([`DecisionRecord`]: candidate
//!   strategies, their predicted costs, and the winner).
//! * **Export** ([`Telemetry::export_jsonl`]): a run is one stream of
//!   self-describing JSON objects, one per line (`"type"`: `meta`,
//!   `collective`, `step`, `adaptive_decision`, `anomaly`, every rank's
//!   `span` / `instant` / `flow_send` / `flow_recv` with a `rank`
//!   field, `counter`, `gauge`, `histogram`), hand-written by [`json`]
//!   because the offline build has no serialization crate (the same
//!   module also parses, for [`MergedTrace::from_jsonl`]).
//! * **Analysis** ([`analyze`](mod@analyze)): per-step critical-path extraction,
//!   straggler detection (wall clock and sender-attributed delivery
//!   latency), and expert-imbalance alerts, emitted as typed
//!   [`AnomalyRecord`]s into the decision audit log.
//!
//! # Cost when disabled
//!
//! [`Telemetry`] and [`Tracer`] are each an `Option<Arc<...>>`.
//! [`Telemetry::disabled`] (also its `Default`) holds `None`: cloning
//! copies a `None`, every recording call returns after one branch — no
//! clock reads, no allocation, no locking — and its spans and
//! `tracer(rank)` are disabled [`TraceSpan`]s and [`Tracer`]s, so
//! tracing a run costs nothing unless its handle is enabled.
//! Instrumented hot paths are therefore safe to leave in release
//! builds. `tests/route_allocs.rs` pins this as exact counts: disabled
//! [`Telemetry`] and [`Tracer`] calls make zero heap allocations and
//! record zero events. The adaptive decisions
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
//!     let _gate = tel.span("gate").arg("experts", 8);
//!     // ... route tokens ...
//! }
//! tel.add_counter("gate.dropped_tokens", 3);
//! tel.record_step(StepRecord { step: 0, loss: 2.3, ..StepRecord::default() });
//! assert_eq!(tel.steps()[0].stages[0].0, "gate");
//!
//! let mut jsonl = Vec::new();
//! tel.export_jsonl(&mut jsonl).unwrap();
//! let text = String::from_utf8(jsonl).unwrap();
//! assert!(text.contains("\"type\":\"step\""));
//! assert_eq!(tutel_obs::MergedTrace::from_jsonl(&text).unwrap().ranks[0].events.len(), 1);
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
pub use events::{AnomalyRecord, CollectiveRecord, DecisionRecord, Event, StepRecord};
pub use metrics::{Counter, Gauge, Histogram, MetricsRegistry};
pub use ring::RingBuffer;
pub use runtime::{record_runtime, RuntimeSnapshot};
pub use telemetry::Telemetry;
pub use trace::{
    FlowEdge, FlowKind, MergedTrace, RankTrace, TraceEvent, TraceInvariants, TraceSpan, Tracer,
};
