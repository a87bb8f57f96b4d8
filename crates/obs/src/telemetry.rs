//! The [`Telemetry`] handle: a cheap-to-clone, no-op-when-disabled
//! front door to the metrics registry, the event ring, and the run's
//! per-rank tracers.

use std::io::{self, Write};
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

use crate::events::{AnomalyRecord, CollectiveRecord, DecisionRecord, Event, StepRecord};
use crate::json::Value;
use crate::metrics::{Histogram, MetricsRegistry};
use crate::ring::RingBuffer;
use crate::trace::{MergedTrace, TraceEvent, TraceSpan, Tracer, TRACK_MAIN};

/// Sentinel for "no training step active".
const NO_STEP: i64 = -1;

#[derive(Debug)]
struct Inner {
    metrics: MetricsRegistry,
    events: RingBuffer<Event>,
    /// Current training step, or [`NO_STEP`].
    step: AtomicI64,
    /// `main`'s push count when the current step began: how far back
    /// [`Telemetry::record_step`] looks for the step's spans.
    step_mark: AtomicU64,
    /// Rank 0's tracer: the handle's own spans land on its main track,
    /// and every rank's tracer shares its epoch.
    main: Tracer,
    /// The tracers [`Telemetry::tracer`] handed out, `main` first.
    tracers: Mutex<Vec<Tracer>>,
}

/// A shared telemetry handle.
///
/// Cloning is an `Arc` clone (or a `None` copy when disabled). Every
/// recording method first checks the inner `Option`; a disabled handle
/// does no timing, no allocation, and no locking, so instrumented hot
/// paths cost one branch when telemetry is off.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Telemetry({})",
            if self.inner.is_some() {
                "enabled"
            } else {
                "disabled"
            }
        )
    }
}

impl Telemetry {
    /// A handle that records nothing. This is also the `Default`.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// An enabled handle with the default event-ring capacity (65,536
    /// events; oldest dropped first).
    pub fn enabled() -> Self {
        Telemetry::with_capacity(65_536)
    }

    /// An enabled handle retaining at most `cap` events in its event
    /// ring and in each rank's trace.
    pub fn with_capacity(cap: usize) -> Self {
        let main = Tracer::with_epoch(0, Instant::now(), cap);
        Telemetry {
            inner: Some(Arc::new(Inner {
                metrics: MetricsRegistry::default(),
                events: RingBuffer::new(cap),
                step: AtomicI64::new(NO_STEP),
                step_mark: AtomicU64::new(0),
                tracers: Mutex::new(vec![main.clone()]),
                main,
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    // --- metrics ---

    /// Adds `n` to counter `name`.
    pub fn add_counter(&self, name: &str, n: u64) {
        if let Some(inner) = &self.inner {
            inner.metrics.counter(name).add(n);
        }
    }

    /// Sets gauge `name`.
    pub fn set_gauge(&self, name: &str, x: f64) {
        if let Some(inner) = &self.inner {
            inner.metrics.gauge(name).set(x);
        }
    }

    /// Records `v` into histogram `name` (created with `make` on first
    /// use).
    pub fn record_hist_with(&self, name: &str, v: f64, make: impl FnOnce() -> Histogram) {
        if let Some(inner) = &self.inner {
            inner.metrics.histogram_with(name, make).record(v);
        }
    }

    /// Records `v` into histogram `name` with the default timing
    /// layout.
    pub fn record_hist(&self, name: &str, v: f64) {
        self.record_hist_with(name, v, Histogram::timing);
    }

    /// Counter snapshot, `None` when disabled or unknown.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        let inner = self.inner.as_ref()?;
        inner
            .metrics
            .counters()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Gauge snapshot, `None` when disabled or unknown.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let inner = self.inner.as_ref()?;
        inner
            .metrics
            .gauges()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v)
    }

    /// Histogram handle, `None` when disabled or unknown.
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        let inner = self.inner.as_ref()?;
        inner
            .metrics
            .histograms()
            .into_iter()
            .find(|(k, _)| k == name)
            .map(|(_, h)| h)
    }

    // --- spans ---

    /// Opens a wall-clock span on rank 0's main track; it records
    /// itself when dropped. Inside a training step it carries the step
    /// as its `step` arg, and [`Telemetry::record_step`] adds its
    /// duration to that step's stage `name`.
    pub fn span(&self, name: &str) -> TraceSpan {
        let Some(inner) = &self.inner else {
            return Tracer::disabled().span(TRACK_MAIN, name);
        };
        let span = inner.main.span(TRACK_MAIN, name);
        match inner.current_step() {
            Some(step) => span.arg("step", step),
            None => span,
        }
    }

    /// Rank `rank`'s tracer on this handle's epoch, sharing one ring
    /// per rank across calls (rank 0's holds [`Telemetry::span`]'s
    /// spans); a disabled tracer when the handle is disabled.
    pub fn tracer(&self, rank: usize) -> Tracer {
        let Some(inner) = &self.inner else {
            return Tracer::disabled();
        };
        let mut tracers = inner.tracers.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(tracer) = tracers.iter().find(|t| t.rank() == Some(rank)) {
            return tracer.clone();
        }
        let tracer = inner.main.for_rank(rank);
        tracers.push(tracer.clone());
        tracer
    }

    /// Every rank's trace so far, merged (empty when disabled).
    pub fn trace(&self) -> MergedTrace {
        let Some(inner) = &self.inner else {
            return MergedTrace::default();
        };
        let tracers = inner.tracers.lock().unwrap_or_else(PoisonError::into_inner);
        MergedTrace::from_ranks(tracers.iter().map(Tracer::rank_trace).collect())
    }

    // --- events ---

    /// Records a modeled collective, stamped with the current step.
    pub fn collective(&self, op: &str, algo: &str, bytes: f64, modeled_s: f64) {
        if let Some(inner) = &self.inner {
            inner.events.push(Event::Collective(CollectiveRecord {
                op: op.to_string(),
                algo: algo.to_string(),
                bytes,
                modeled_s,
                step: inner.current_step(),
            }));
        }
    }

    /// Records an adaptive decision, stamped with the current step.
    pub fn decision(&self, mut rec: DecisionRecord) {
        if let Some(inner) = &self.inner {
            rec.step = inner.current_step();
            inner.events.push(Event::Decision(rec));
        }
    }

    /// Records a trace-analyzer anomaly into the audit ring, stamped
    /// with the current step.
    pub fn anomaly(&self, mut rec: AnomalyRecord) {
        if let Some(inner) = &self.inner {
            rec.step = inner.current_step();
            inner.events.push(Event::Anomaly(rec));
        }
    }

    /// Patches the newest decision matching `kind` and `chosen` with a
    /// measured cost — decisions are emitted when a strategy is
    /// *picked*, but the measurement only exists after the step ran,
    /// so the EWMA update backfills it here. Returns whether a record
    /// was found.
    pub fn backfill_decision(&self, kind: &str, chosen: &str, measured_s: f64) -> bool {
        let Some(inner) = &self.inner else {
            return false;
        };
        inner
            .events
            .update_last(|event| match event {
                Event::Decision(d) if d.kind == kind && d.chosen == chosen => {
                    d.measured_s = Some(measured_s);
                    Some(())
                }
                _ => None,
            })
            .is_some()
    }

    /// Marks the start of training step `step`: stamps subsequent
    /// spans/decisions/collectives with it.
    pub fn begin_step(&self, step: u64) {
        if let Some(inner) = &self.inner {
            inner
                .step_mark
                .store(inner.main.pushed(), Ordering::Relaxed);
            inner.step.store(step as i64, Ordering::Relaxed);
        }
    }

    /// Completes a training step: adds the duration of each span the
    /// step stamped, oldest first, to `rec.stages` under the span's
    /// name, in seconds (stages already in `rec` are kept), and
    /// records the event. Only spans recorded since
    /// [`Telemetry::begin_step`] are visited.
    pub fn record_step(&self, mut rec: StepRecord) {
        if let Some(inner) = &self.inner {
            if let Some(step) = inner.current_step() {
                inner
                    .main
                    .since(inner.step_mark.load(Ordering::Relaxed), |ev| {
                        if let TraceEvent::Span { name, dur_us, .. } = ev {
                            if ev.arg("step") == Some(step) {
                                merge_stage(&mut rec.stages, name, dur_us / 1e6);
                            }
                        }
                    });
            }
            inner.events.push(Event::Step(rec));
            inner.step.store(NO_STEP, Ordering::Relaxed);
        }
    }

    /// Snapshot of all recorded events, oldest first.
    pub fn events(&self) -> Vec<Event> {
        match &self.inner {
            Some(inner) => inner.events.snapshot(),
            None => Vec::new(),
        }
    }

    /// All adaptive-decision events, oldest first.
    pub fn decisions(&self) -> Vec<DecisionRecord> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Decision(d) => Some(d),
                _ => None,
            })
            .collect()
    }

    /// All analyzer anomalies, oldest first.
    pub fn anomalies(&self) -> Vec<AnomalyRecord> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Anomaly(a) => Some(a),
                _ => None,
            })
            .collect()
    }

    /// All step events, oldest first.
    pub fn steps(&self) -> Vec<StepRecord> {
        self.events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Step(s) => Some(s),
                _ => None,
            })
            .collect()
    }

    /// Number of events dropped because the ring was full.
    pub fn dropped_events(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.events.dropped())
    }

    // --- export ---

    /// Writes the run as one JSONL stream: a `meta` header line (the
    /// event ring's size and drops, each traced rank's drops), one
    /// line per event (oldest first), every rank's trace events in
    /// [`TraceEvent::to_value`]'s schema plus a `rank` field, then one
    /// line per metric. [`MergedTrace::from_jsonl`] reads the trace
    /// back.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from `w`; a disabled handle writes
    /// nothing and returns `Ok`.
    pub fn export_jsonl(&self, w: &mut impl Write) -> io::Result<()> {
        let Some(inner) = &self.inner else {
            return Ok(());
        };
        let events = inner.events.snapshot();
        let trace = self.trace();
        let ranks = trace.ranks.iter().map(|r| {
            Value::obj([
                ("rank", Value::from(r.rank)),
                ("dropped", Value::from(r.dropped)),
            ])
        });
        let meta = Value::obj([
            ("type", Value::from("meta")),
            ("events", Value::from(events.len())),
            ("dropped_events", Value::from(inner.events.dropped())),
            ("ranks", Value::Arr(ranks.collect())),
        ]);
        writeln!(w, "{}", meta.to_json())?;
        for event in &events {
            writeln!(w, "{}", event.to_value().to_json())?;
        }
        for rank in &trace.ranks {
            for event in &rank.events {
                let mut line = event.to_value();
                if let Value::Obj(pairs) = &mut line {
                    pairs.insert(1, ("rank".to_string(), Value::from(rank.rank)));
                }
                writeln!(w, "{}", line.to_json())?;
            }
        }
        for (name, value) in inner.metrics.counters() {
            let line = Value::obj([
                ("type", Value::from("counter")),
                ("name", Value::from(name)),
                ("value", Value::from(value)),
            ]);
            writeln!(w, "{}", line.to_json())?;
        }
        for (name, value) in inner.metrics.gauges() {
            let line = Value::obj([
                ("type", Value::from("gauge")),
                ("name", Value::from(name)),
                ("value", Value::from(value)),
            ]);
            writeln!(w, "{}", line.to_json())?;
        }
        for (name, hist) in inner.metrics.histograms() {
            let line = Value::obj([
                ("type", Value::from("histogram")),
                ("name", Value::from(name)),
                (
                    "bounds",
                    Value::Arr(hist.bounds().iter().map(|&b| Value::from(b)).collect()),
                ),
                (
                    "counts",
                    Value::Arr(hist.counts().iter().map(|&c| Value::from(c)).collect()),
                ),
                ("sum", Value::from(hist.sum())),
                ("count", Value::from(hist.total_count())),
            ]);
            writeln!(w, "{}", line.to_json())?;
        }
        Ok(())
    }

    /// [`Telemetry::export_jsonl`] to a fresh file at `path`.
    ///
    /// # Errors
    ///
    /// Returns any I/O error from creating or writing the file.
    pub fn export_jsonl_to(&self, path: &str) -> io::Result<()> {
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        self.export_jsonl(&mut file)?;
        file.flush()
    }
}

impl Inner {
    fn current_step(&self) -> Option<u64> {
        match self.step.load(Ordering::Relaxed) {
            NO_STEP => None,
            s => Some(s as u64),
        }
    }
}

fn merge_stage(stages: &mut Vec<(String, f64)>, name: &str, seconds: f64) {
    match stages.iter_mut().find(|(k, _)| k == name) {
        Some((_, total)) => *total += seconds,
        None => stages.push((name.to_string(), seconds)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let tel = Telemetry::disabled();
        tel.add_counter("c", 5);
        tel.set_gauge("g", 1.0);
        let _span = tel.span("s").arg("k", 1);
        tel.record_step(StepRecord::default());
        assert!(tel.events().is_empty());
        assert!(!tel.tracer(0).is_enabled());
        assert_eq!(tel.counter_value("c"), None);
        let mut out = Vec::new();
        tel.export_jsonl(&mut out).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn spans_are_step_stamped_and_sum_into_the_stage_map() {
        let tel = Telemetry::enabled();
        let unstamped = tel.span("gate");
        drop(unstamped);
        for step in [6, 7] {
            tel.begin_step(step);
            for _ in 0..2 {
                let _s = tel.span("gate").arg("experts", 8);
            }
            tel.record_step(StepRecord {
                step,
                stages: vec![("a2a_dispatch".into(), 0.001)],
                ..StepRecord::default()
            });
        }
        let spans = tel.tracer(0).events();
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[0].arg("step"), None, "outside any step");
        let steps = tel.steps();
        assert_eq!(steps.len(), 2);
        for (rec, pair) in steps.iter().zip(spans[1..].chunks(2)) {
            let mut gate = 0.0;
            for span in pair {
                assert_eq!(span.arg("step"), Some(rec.step));
                assert_eq!(span.arg("experts"), Some(8));
                if let TraceEvent::Span { dur_us, .. } = span {
                    gate += dur_us / 1e6;
                }
            }
            // The modeled stage the caller supplied is kept; the span
            // stage is exactly this step's two spans.
            assert_eq!(
                rec.stages,
                [
                    ("a2a_dispatch".to_string(), 0.001),
                    ("gate".to_string(), gate)
                ]
            );
        }
    }

    #[test]
    fn tracer_is_total_over_ranks() {
        let tel = Telemetry::enabled();
        let far = tel.tracer(usize::MAX);
        assert_eq!(far.rank(), Some(usize::MAX));
        far.instant(TRACK_MAIN, "far");
        let ranks: Vec<_> = tel.trace().ranks.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, [0, usize::MAX]);
    }

    #[test]
    fn export_emits_one_json_object_per_line() {
        let tel = Telemetry::enabled();
        tel.add_counter("kernels.encode.elements", 1024);
        tel.set_gauge("gate.capacity_factor", 1.25);
        tel.record_hist("dur", 0.5);
        tel.collective("all_to_all", "2DH", 4096.0, 0.002);
        let mut out = Vec::new();
        tel.export_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert!(
            lines.len() >= 5,
            "meta + event + 3 metrics, got {}",
            lines.len()
        );
        for line in &lines {
            assert!(
                line.starts_with('{') && line.ends_with('}'),
                "not an object: {line}"
            );
            assert!(line.contains("\"type\":"), "untyped line: {line}");
        }
    }

    #[test]
    fn anomalies_are_step_stamped() {
        let tel = Telemetry::enabled();
        tel.begin_step(11);
        tel.anomaly(AnomalyRecord {
            kind: "straggler".into(),
            rank: Some(1),
            request_id: None,
            ratio: 2.0,
            detail: "slow".into(),
            step: None,
        });
        let anomalies = tel.anomalies();
        assert_eq!(anomalies.len(), 1);
        assert_eq!(anomalies[0].step, Some(11));
        assert_eq!(anomalies[0].rank, Some(1));
    }

    #[test]
    fn request_ids_survive_the_jsonl_export() {
        let tel = Telemetry::enabled();
        {
            let _s = tel
                .span("serve.request")
                .arg("request", 42)
                .arg("tokens", 3);
        }
        tel.anomaly(AnomalyRecord {
            kind: "serve.deadline_miss".into(),
            rank: None,
            request_id: Some(42),
            ratio: 1.8,
            detail: "request 42 finished 1.8x past its deadline".into(),
            step: None,
        });
        let mut out = Vec::new();
        tel.export_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let span_line = text
            .lines()
            .find(|l| l.contains(r#""type":"span""#))
            .expect("span exported");
        assert!(
            span_line.contains(r#""args":{"request":42,"tokens":3}"#),
            "{span_line}"
        );
        let anomaly_line = text
            .lines()
            .find(|l| l.contains(r#""type":"anomaly""#))
            .expect("anomaly exported");
        assert!(
            anomaly_line.contains(r#""request_id":42"#),
            "{anomaly_line}"
        );
        assert!(
            anomaly_line.contains(r#""kind":"serve.deadline_miss""#),
            "{anomaly_line}"
        );
    }

    #[test]
    fn backfill_patches_newest_matching_decision() {
        let tel = Telemetry::enabled();
        let rec = |chosen: &str| DecisionRecord {
            kind: "pipeline.measured".into(),
            capacity_factor: 1.0,
            candidates: Vec::new(),
            chosen: chosen.into(),
            predicted_s: None,
            measured_s: None,
            cause: None,
            precision: None,
            dropless: false,
            step: None,
        };
        tel.decision(rec("linear×d2"));
        tel.decision(rec("2dh×d4"));
        assert!(tel.backfill_decision("pipeline.measured", "linear×d2", 0.005));
        assert!(!tel.backfill_decision("pipeline.measured", "missing", 1.0));
        let decisions = tel.decisions();
        assert_eq!(decisions[0].measured_s, Some(0.005));
        assert_eq!(decisions[1].measured_s, None);
    }

    #[test]
    fn clone_shares_state() {
        let tel = Telemetry::enabled();
        let clone = tel.clone();
        clone.add_counter("shared", 2);
        assert_eq!(tel.counter_value("shared"), Some(2));
    }
}
