//! Reduced-precision robustness: quantizing a trained model's weights
//! to BF16/F16 (via the state-dict round trip) must preserve routing
//! decisions and keep outputs close — the property that lets Tutel run
//! MoE layers in half precision (Section 4.1).

use tutel_suite::obs::Telemetry;
use tutel_suite::tensor::{quantize, Precision, Rng};
use tutel_suite::tutel::checkpoint::StateDict;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{accuracy, SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::trainer::{evaluate, train, TrainConfig};
use tutel_suite::tutel::MoeConfig;

fn quantize_model(model: &SwinLiteMoe, fresh: &mut SwinLiteMoe, p: Precision) {
    let sd = model.state_dict();
    let mut q = StateDict::new();
    for (name, tensor) in sd.iter() {
        q.insert(name, quantize(tensor, p));
    }
    fresh.load_state_dict(&q).unwrap();
}

#[test]
fn bf16_weights_preserve_accuracy() {
    let ds = SyntheticVision::new(16, 8, 4, 8, 1);
    let mut cfg = SwinLiteConfig::new(16, 8, 4);
    cfg.channels = 16;
    cfg.hidden = 8;
    cfg.blocks = 4;
    let cfg = cfg.with_moe(MoeConfig::new(0, 0, 8).with_capacity_factor(0.0));
    let mut rng = Rng::seed(3);
    let mut model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
    train(
        &mut model,
        &ds,
        &TrainConfig {
            steps: 250,
            batch: 32,
            lr: 0.05,
            seed: 4,
            ..TrainConfig::default()
        },
        &Telemetry::disabled(),
    )
    .unwrap();
    let full = evaluate(&model, &ds, 6, 9).unwrap();
    assert!(full > 0.5, "fixture must train above chance, got {full}");

    for (p, tolerance) in [(Precision::Bf16, 0.10), (Precision::F16, 0.05)] {
        let mut quantized = SwinLiteMoe::new(&cfg, &mut Rng::seed(999)).unwrap();
        quantize_model(&model, &mut quantized, p);
        let acc = evaluate(&quantized, &ds, 6, 9).unwrap();
        assert!(
            acc >= full - tolerance,
            "{p:?}: accuracy collapsed {full} → {acc}"
        );
    }
}

#[test]
fn quantized_outputs_stay_close_per_token() {
    let ds = SyntheticVision::new(16, 8, 4, 8, 1);
    let mut cfg = SwinLiteConfig::new(16, 8, 4);
    cfg.channels = 16;
    cfg.hidden = 8;
    cfg.blocks = 2;
    let cfg = cfg.with_moe(MoeConfig::new(0, 0, 4));
    let mut rng = Rng::seed(5);
    let model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
    let mut bf16 = SwinLiteMoe::new(&cfg, &mut Rng::seed(6)).unwrap();
    quantize_model(&model, &mut bf16, Precision::Bf16);
    let (x, y) = ds.batch(16, &mut rng);
    let a = model.infer(&x, 16).unwrap();
    let b = bf16.infer(&x, 16).unwrap();
    // Logit-level closeness…
    let diff = a.sub(&b).unwrap().max_abs();
    assert!(diff < 0.15, "bf16 logit drift {diff}");
    // …and identical predictions on this batch.
    assert!((accuracy(&a, &y) - accuracy(&b, &y)).abs() < 1e-9);
}
