//! End-to-end observability tests: the adaptive-decision audit log
//! must agree with the simulator's own cost model, training must leave
//! a complete per-step record, and the JSONL export must be
//! well-formed, with each step's stage map the sum of its spans.

use tutel_suite::obs::json::Value;
use tutel_suite::obs::{MergedTrace, Telemetry, TraceEvent};
use tutel_suite::tensor::Rng;
use tutel_suite::tutel::adaptive::{FeatureSet, MoeLayerSimulator};
use tutel_suite::tutel::cost::ClusterModel;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::pipeline::{LayerDims, PipelineStrategy};
use tutel_suite::tutel::trainer::{train, TrainConfig};
use tutel_suite::tutel::MoeConfig;

/// The audit log's chosen strategy and predicted cost must match an
/// independent argmin over [`MoeLayerSimulator::step_time_with_strategy`]
/// for every capacity factor in a sweep.
#[test]
fn audit_log_matches_exhaustive_strategy_search() {
    let sim = MoeLayerSimulator::new(ClusterModel::azure(64));
    let features = FeatureSet::kernels_pipelining();
    let tel = Telemetry::enabled();
    let factors = [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0];
    for &f in &factors {
        let mut dims = LayerDims::figure23();
        dims.capacity_factor = f;
        sim.step_time(&dims, features, &tel);
    }
    let decisions = tel.decisions();
    assert_eq!(
        decisions.len(),
        factors.len(),
        "one decision per simulated step"
    );
    for (d, &f) in decisions.iter().zip(&factors) {
        assert_eq!(d.kind, "pipeline");
        assert_eq!(d.capacity_factor, f);
        assert_eq!(d.candidates.len(), 8, "all eight strategies priced");
        // Recompute the winner independently of the audit path.
        let mut dims = LayerDims::figure23();
        dims.capacity_factor = f;
        let (expect_s, expect_t) = PipelineStrategy::all()
            .into_iter()
            .map(|s| (s, sim.step_time_with_strategy(&dims, features, s)))
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .unwrap();
        assert_eq!(d.chosen, expect_s.to_string(), "winner mismatch at f={f}");
        let predicted = d.predicted_s.expect("exhaustive search always predicts");
        assert!(
            (predicted - expect_t).abs() <= expect_t * 1e-12,
            "predicted {predicted} vs recomputed {expect_t} at f={f}"
        );
        // And the recorded candidate costs agree with the model too.
        for (name, cost) in &d.candidates {
            let s = PipelineStrategy::all()
                .into_iter()
                .find(|s| &s.to_string() == name)
                .expect("candidate names strategies");
            let t = sim.step_time_with_strategy(&dims, features, s);
            assert!(
                (cost - t).abs() <= t * 1e-12,
                "candidate {name} cost drifted"
            );
        }
    }
}

fn tiny_moe_setup() -> (SwinLiteMoe, SyntheticVision) {
    let mut cfg = SwinLiteConfig::new(8, 4, 3);
    cfg.channels = 12;
    cfg.hidden = 16;
    cfg.blocks = 2;
    cfg = cfg.with_moe(MoeConfig::new(0, 0, 4).with_capacity_factor(0.0));
    let mut rng = Rng::seed(40);
    let model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
    let ds = SyntheticVision::new(8, 4, 3, 4, 41);
    (model, ds)
}

/// `train` must leave one complete step record per step:
/// loss, expert load, drop counts, and wall-clock stage durations from
/// the layer spans.
#[test]
fn training_emits_complete_step_records() {
    let (mut model, ds) = tiny_moe_setup();
    let tel = Telemetry::enabled();
    let cfg = TrainConfig {
        steps: 12,
        batch: 8,
        ..TrainConfig::default()
    };
    let stats = train(&mut model, &ds, &cfg, &tel).unwrap();
    let steps = tel.steps();
    assert_eq!(steps.len(), 12);
    for (i, s) in steps.iter().enumerate() {
        assert_eq!(s.step, i as u64);
        assert!((s.loss - stats.loss_curve[i] as f64).abs() < 1e-6);
        assert_eq!(s.expert_load.len(), 4, "4 experts");
        assert_eq!(
            s.expert_load.iter().sum::<u64>(),
            8 * 4,
            "every token routed (k=1)"
        );
        assert_eq!(s.dropped, 0, "capacity_factor=0 auto-sizes, drops nothing");
        assert_eq!(s.needed_factors.len(), 1, "one MoE layer");
        for stage in ["gate", "encode", "ffn", "decode"] {
            let (_, secs) = s
                .stages
                .iter()
                .find(|(k, _)| k == stage)
                .unwrap_or_else(|| panic!("step {i} missing stage {stage}: {:?}", s.stages));
            assert!(*secs > 0.0, "stage {stage} has zero duration");
        }
    }
    // The layer-level metrics accumulated too.
    assert!(tel.counter_value("gate.routed_tokens").unwrap() > 0);
    assert!(tel.counter_value("kernels.encode.elements").unwrap() > 0);
    assert!(tel.counter_value("experts.flops").unwrap() > 0);
    assert!(tel.histogram("gate.expert_load").is_some());
}

/// `train` under a disabled and an enabled handle must produce
/// identical training trajectories — instrumentation must not perturb the math.
#[test]
fn observation_does_not_change_training() {
    let (mut m1, ds) = tiny_moe_setup();
    let (mut m2, _) = tiny_moe_setup();
    let cfg = TrainConfig {
        steps: 8,
        batch: 8,
        ..TrainConfig::default()
    };
    let plain = train(&mut m1, &ds, &cfg, &Telemetry::disabled()).unwrap();
    let observed = train(&mut m2, &ds, &cfg, &Telemetry::enabled()).unwrap();
    assert_eq!(plain.loss_curve, observed.loss_curve);
    assert_eq!(plain.needed_factor_trace, observed.needed_factor_trace);
}

/// The JSONL export of a real training run is one well-formed,
/// type-tagged JSON object per line, and contains the step and span
/// events the run generated.
#[test]
fn jsonl_export_is_line_delimited_and_typed() {
    let (mut model, ds) = tiny_moe_setup();
    let tel = Telemetry::enabled();
    let cfg = TrainConfig {
        steps: 5,
        batch: 8,
        ..TrainConfig::default()
    };
    train(&mut model, &ds, &cfg, &tel).unwrap();
    let mut out = Vec::new();
    tel.export_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert!(lines.len() > 5 + 1, "meta + events + metrics");
    for line in &lines {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "not an object: {line}"
        );
        assert!(line.contains("\"type\":\""), "untyped: {line}");
    }
    assert!(lines[0].contains("\"type\":\"meta\""));
    assert_eq!(text.matches("\"type\":\"step\"").count(), 5);
    // The layer's spans are rank 0's main-track trace events, stamped
    // with their step.
    assert!(text.contains(r#"{"type":"span","rank":0,"track":0,"name":"moe.forward","#));
    assert!(text.contains(r#""args":{"step":4"#));
    assert!(text.contains("\"type\":\"counter\""));
    // Step lines carry the full payload the acceptance criteria name.
    let step_line = lines
        .iter()
        .find(|l| l.contains("\"type\":\"step\""))
        .unwrap();
    for key in ["expert_load", "dropped", "stages", "loss", "needed_factors"] {
        assert!(
            step_line.contains(&format!("\"{key}\"")),
            "step line missing {key}"
        );
    }
}

/// Spans recorded by the layer carry the active step stamp, so traces
/// can be grouped per iteration.
#[test]
fn spans_are_stamped_with_their_step() {
    let (mut model, ds) = tiny_moe_setup();
    let tel = Telemetry::enabled();
    let cfg = TrainConfig {
        steps: 3,
        batch: 8,
        ..TrainConfig::default()
    };
    train(&mut model, &ds, &cfg, &tel).unwrap();
    let spans: Vec<_> = tel
        .tracer(0)
        .events()
        .into_iter()
        .filter_map(|e| match &e {
            TraceEvent::Span { name, .. } => Some((name.clone(), e.arg("step"))),
            _ => None,
        })
        .collect();
    assert!(!spans.is_empty());
    assert!(
        spans.iter().all(|(_, step)| step.is_some_and(|s| s < 3)),
        "all spans inside steps"
    );
    assert!(spans.iter().any(|(name, _)| name == "moe.forward"));
    assert!(spans.iter().any(|(name, _)| name == "moe.backward"));
}

/// A training run's one exported stream parses back into a trace that
/// passes the structural invariants, and each step's `stages[name]` is
/// exactly the sum of that step's `name` spans, in seconds.
#[test]
fn exported_stages_are_the_sum_of_each_steps_spans() {
    let (mut model, ds) = tiny_moe_setup();
    let tel = Telemetry::enabled();
    let cfg = TrainConfig {
        steps: 4,
        batch: 8,
        ..TrainConfig::default()
    };
    train(&mut model, &ds, &cfg, &tel).unwrap();
    let mut out = Vec::new();
    tel.export_jsonl(&mut out).unwrap();
    let text = String::from_utf8(out).unwrap();

    let trace = MergedTrace::from_jsonl(&text).unwrap();
    let inv = trace.check_invariants().unwrap();
    assert!(!inv.truncated);
    assert_eq!(trace.ranks.len(), 1, "one process, rank 0");
    let steps: Vec<Value> = text
        .lines()
        .map(|l| Value::parse(l).unwrap())
        .filter(|v| v.get("type").and_then(Value::as_str) == Some("step"))
        .collect();
    assert_eq!(steps.len(), 4);
    for line in &steps {
        let step = line.get("step").and_then(Value::as_u64).unwrap();
        // Span name → Σ dur_us / 1e6, oldest first.
        let mut sums: Vec<(String, f64)> = Vec::new();
        for ev in &trace.ranks[0].events {
            if let TraceEvent::Span { name, dur_us, .. } = ev {
                if ev.arg("step") == Some(step) {
                    match sums.iter_mut().find(|(k, _)| k == name) {
                        Some((_, total)) => *total += dur_us / 1e6,
                        None => sums.push((name.clone(), dur_us / 1e6)),
                    }
                }
            }
        }
        let Some(Value::Obj(stages)) = line.get("stages") else {
            panic!("step {step} has no stage map");
        };
        let stages: Vec<(String, f64)> = stages
            .iter()
            .map(|(k, v)| (k.clone(), v.as_f64().unwrap()))
            .collect();
        assert!(sums.iter().any(|(k, _)| k == "ffn"), "{sums:?}");
        assert_eq!(stages, sums, "step {step}");
    }
}
