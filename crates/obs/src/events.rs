//! The telemetry event model: modeled collectives, per-step training
//! records, adaptive-decision audit entries and analyzer anomalies.
//! Spans are [`crate::trace::TraceEvent`]s.
//!
//! Every event serializes to one self-describing JSON object (a
//! `"type"` field plus payload) so a JSONL export can be filtered with
//! `jq 'select(.type == "...")'`.

use crate::json::Value;

/// A priced (modeled) collective: the simulated cluster never moves
/// real bytes, so instead of a wall-clock span the comm layer records
/// the algorithm, payload, and the cost model's answer.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectiveRecord {
    /// Operation: `all_to_all`, `all_gather`, `all_reduce`.
    pub op: String,
    /// Algorithm tag (`linear`, `2DH`, or a group size).
    pub algo: String,
    /// Per-GPU payload bytes.
    pub bytes: f64,
    /// Modeled seconds from the cost model.
    pub modeled_s: f64,
    /// Training step active when recorded, if any.
    pub step: Option<u64>,
}

/// One training iteration, assembled by the trainer (or an example's
/// hand-rolled loop) after the optimizer step.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StepRecord {
    /// Step index.
    pub step: u64,
    /// Training loss.
    pub loss: f64,
    /// Learning rate used.
    pub lr: f64,
    /// Summed auxiliary loss over MoE layers.
    pub aux_loss: f64,
    /// Capacity factor in effect (first MoE layer).
    pub capacity_factor: f64,
    /// Per-MoE-layer minimum no-drop capacity factor.
    pub needed_factors: Vec<f64>,
    /// Per-expert token counts, summed element-wise over MoE layers.
    pub expert_load: Vec<u64>,
    /// Tokens dropped by the capacity clamp, summed over MoE layers.
    pub dropped: u64,
    /// Per-stage durations in seconds: the caller's own (the modeled
    /// `a2a_dispatch`, `a2a_combine`), plus, per span name, the sum of
    /// the step's spans (`gate`, `encode`, `ffn`, `decode`, ...).
    pub stages: Vec<(String, f64)>,
}

/// One adaptive-decision audit entry: what the search considered, what
/// it predicted, and what it picked.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Which adaptive mechanism decided: `pipeline` (exhaustive model
    /// search), `pipeline.online` (Algorithm 2), or `parallelism`
    /// (P1/P2 router).
    pub kind: String,
    /// Capacity factor the decision was made for.
    pub capacity_factor: f64,
    /// Candidate name → predicted/measured cost in seconds.
    pub candidates: Vec<(String, f64)>,
    /// The winning candidate.
    pub chosen: String,
    /// Predicted cost of the winner, when the search has one
    /// (`None` while Algorithm 2 is still exploring).
    pub predicted_s: Option<f64>,
    /// Measured cost of the winner (normalized per-chunk wall-clock),
    /// when the search ranks by execution rather than by model
    /// (`None` for purely modeled decisions or before the first
    /// measurement lands).
    pub measured_s: Option<f64>,
    /// Attributed cause carried over from the trace analyzer when the
    /// previously chosen strategy regressed (e.g. `straggler: rank 1`);
    /// `None` for ordinary decisions.
    pub cause: Option<String>,
    /// Storage-precision mode the costs were priced under (`f32`,
    /// `bf16`), when the deciding mechanism is precision-aware —
    /// reduced-precision weights halve parameter-collective bytes, so
    /// the audit trail must say which price book was in effect.
    pub precision: Option<String>,
    /// Whether the decided configuration routes dropless (`AutoMin`:
    /// no assignment is clamped away) — the cost books differ, so the
    /// audit trail records which one priced the candidates.
    pub dropless: bool,
    /// Training step active when recorded, if any.
    pub step: Option<u64>,
}

/// A typed anomaly flagged by the online trace analyzer
/// (`tutel_obs::analyze`): stragglers, expert-load imbalance, and
/// critical-path shifts, recorded into the same audit ring as
/// adaptive decisions so a regression and its cause sit side by side.
#[derive(Debug, Clone, PartialEq)]
pub struct AnomalyRecord {
    /// Anomaly class: `straggler`, `expert_imbalance`, `critical_path`.
    pub kind: String,
    /// The rank the anomaly is attributed to, when rank-specific.
    pub rank: Option<usize>,
    /// The serving request the anomaly victimized, when the alert
    /// comes from the serve path (`serve.straggler`,
    /// `serve.deadline_miss`) — names the victim request directly.
    pub request_id: Option<u64>,
    /// Severity as a ratio against the healthy baseline (slowest rank
    /// vs. median, hottest expert vs. mean load).
    pub ratio: f64,
    /// Human-readable attribution.
    pub detail: String,
    /// Training step active when recorded, if any.
    pub step: Option<u64>,
}

impl AnomalyRecord {
    /// One-line `kind: detail` form for text reports.
    pub fn summary(&self) -> String {
        format!("{}: {}", self.kind, self.detail)
    }
}

/// Any recorded event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A modeled collective.
    Collective(CollectiveRecord),
    /// A training step.
    Step(StepRecord),
    /// An adaptive decision.
    Decision(DecisionRecord),
    /// A trace-analyzer anomaly.
    Anomaly(AnomalyRecord),
}

fn opt_step(step: Option<u64>) -> Value {
    match step {
        Some(s) => Value::from(s),
        None => Value::Null,
    }
}

impl Event {
    /// The event as one self-describing JSON object.
    pub fn to_value(&self) -> Value {
        match self {
            Event::Collective(c) => Value::obj([
                ("type", Value::from("collective")),
                ("op", Value::from(c.op.clone())),
                ("algo", Value::from(c.algo.clone())),
                ("bytes", Value::from(c.bytes)),
                ("modeled_s", Value::from(c.modeled_s)),
                ("step", opt_step(c.step)),
            ]),
            Event::Step(s) => Value::obj([
                ("type", Value::from("step")),
                ("step", Value::from(s.step)),
                ("loss", Value::from(s.loss)),
                ("lr", Value::from(s.lr)),
                ("aux_loss", Value::from(s.aux_loss)),
                ("capacity_factor", Value::from(s.capacity_factor)),
                (
                    "needed_factors",
                    Value::Arr(s.needed_factors.iter().map(|&f| Value::from(f)).collect()),
                ),
                (
                    "expert_load",
                    Value::Arr(s.expert_load.iter().map(|&n| Value::from(n)).collect()),
                ),
                ("dropped", Value::from(s.dropped)),
                (
                    "stages",
                    Value::Obj(
                        s.stages
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::from(*v)))
                            .collect(),
                    ),
                ),
            ]),
            Event::Decision(d) => Value::obj([
                ("type", Value::from("adaptive_decision")),
                ("kind", Value::from(d.kind.clone())),
                ("capacity_factor", Value::from(d.capacity_factor)),
                (
                    "candidates",
                    Value::Arr(
                        d.candidates
                            .iter()
                            .map(|(name, cost)| {
                                Value::obj([
                                    ("name", Value::from(name.clone())),
                                    ("cost_s", Value::from(*cost)),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("chosen", Value::from(d.chosen.clone())),
                (
                    "predicted_s",
                    d.predicted_s.map(Value::from).unwrap_or(Value::Null),
                ),
                (
                    "measured_s",
                    d.measured_s.map(Value::from).unwrap_or(Value::Null),
                ),
                (
                    "cause",
                    d.cause
                        .as_ref()
                        .map(|c| Value::from(c.clone()))
                        .unwrap_or(Value::Null),
                ),
                (
                    "precision",
                    d.precision
                        .as_ref()
                        .map(|p| Value::from(p.clone()))
                        .unwrap_or(Value::Null),
                ),
                ("dropless", Value::Bool(d.dropless)),
                ("step", opt_step(d.step)),
            ]),
            Event::Anomaly(a) => Value::obj([
                ("type", Value::from("anomaly")),
                ("kind", Value::from(a.kind.clone())),
                ("rank", a.rank.map(Value::from).unwrap_or(Value::Null)),
                (
                    "request_id",
                    a.request_id.map(Value::from).unwrap_or(Value::Null),
                ),
                ("ratio", Value::from(a.ratio)),
                ("detail", Value::from(a.detail.clone())),
                ("step", opt_step(a.step)),
            ]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_with_type_tags() {
        let dec = Event::Decision(DecisionRecord {
            kind: "pipeline".into(),
            capacity_factor: 1.0,
            candidates: vec![("linear×d1".into(), 0.002)],
            chosen: "linear×d1".into(),
            predicted_s: None,
            measured_s: Some(0.0021),
            cause: Some("straggler: rank 1".into()),
            precision: Some("bf16".into()),
            dropless: true,
            step: None,
        });
        let json = dec.to_value().to_json();
        assert!(json.contains(r#""type":"adaptive_decision""#), "{json}");
        assert!(json.contains(r#""predicted_s":null"#), "{json}");
        assert!(json.contains(r#""measured_s":0.0021"#), "{json}");
        assert!(json.contains(r#""cause":"straggler: rank 1""#), "{json}");
        assert!(json.contains(r#""precision":"bf16""#), "{json}");
        assert!(json.contains(r#""dropless":true"#), "{json}");
    }

    #[test]
    fn anomalies_serialize_with_rank_attribution() {
        let a = Event::Anomaly(AnomalyRecord {
            kind: "straggler".into(),
            rank: Some(2),
            request_id: None,
            ratio: 3.5,
            detail: "rank 2 wall 3.5x median".into(),
            step: Some(4),
        });
        let json = a.to_value().to_json();
        assert!(json.contains(r#""type":"anomaly""#), "{json}");
        assert!(json.contains(r#""rank":2"#), "{json}");
        assert!(json.contains(r#""request_id":null"#), "{json}");
        assert!(json.contains(r#""step":4"#), "{json}");
    }

    #[test]
    fn serve_records_carry_the_victim_request_id() {
        let a = Event::Anomaly(AnomalyRecord {
            kind: "serve.straggler".into(),
            rank: None,
            request_id: Some(7),
            ratio: 2.5,
            detail: "request 7 latency 2.5x p50".into(),
            step: None,
        });
        let json = a.to_value().to_json();
        assert!(json.contains(r#""request_id":7"#), "{json}");
    }
}
