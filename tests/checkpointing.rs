//! Checkpoint round-trip integration: train → save → restore into a
//! fresh model → bit-identical behaviour.

use tutel_suite::obs::Telemetry;
use tutel_suite::tensor::Rng;
use tutel_suite::tutel::checkpoint::StateDict;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::trainer::{train, TrainConfig};
use tutel_suite::tutel::{MoeConfig, RouterKind};

fn cfg(router: RouterKind) -> SwinLiteConfig {
    let mut cfg = SwinLiteConfig::new(8, 4, 3);
    cfg.channels = 12;
    cfg.hidden = 16;
    cfg.blocks = 2;
    cfg.with_moe(MoeConfig::new(0, 0, 4).with_router(router))
}

#[test]
fn trained_model_roundtrips_through_bytes() {
    let ds = SyntheticVision::new(8, 4, 3, 4, 1);
    let mut rng = Rng::seed(2);
    let mut model = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut rng).unwrap();
    train(
        &mut model,
        &ds,
        &TrainConfig {
            steps: 25,
            batch: 8,
            lr: 0.05,
            seed: 3,
            ..TrainConfig::default()
        },
        &Telemetry::disabled(),
    )
    .unwrap();

    let bytes = model.state_dict().to_bytes();
    let restored_sd = StateDict::from_bytes(&bytes).unwrap();

    // Fresh model with *different* init must reproduce the trained
    // model exactly after restore.
    let mut other_rng = Rng::seed(999);
    let mut fresh = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut other_rng).unwrap();
    let (x, _) = ds.batch(6, &mut rng);
    assert_ne!(
        model.infer(&x, 6).unwrap().as_slice(),
        fresh.infer(&x, 6).unwrap().as_slice(),
        "fixture models must differ before restore"
    );
    fresh.load_state_dict(&restored_sd).unwrap();
    assert_eq!(model.infer(&x, 6).unwrap(), fresh.infer(&x, 6).unwrap());
}

#[test]
fn cosine_router_checkpoints_too() {
    let ds = SyntheticVision::new(8, 4, 3, 4, 1);
    let mut rng = Rng::seed(4);
    let mut model = SwinLiteMoe::new(&cfg(RouterKind::Cosine), &mut rng).unwrap();
    train(
        &mut model,
        &ds,
        &TrainConfig {
            steps: 10,
            batch: 8,
            lr: 0.02,
            seed: 5,
            ..TrainConfig::default()
        },
        &Telemetry::disabled(),
    )
    .unwrap();
    let sd = model.state_dict();
    let mut fresh = SwinLiteMoe::new(&cfg(RouterKind::Cosine), &mut Rng::seed(77)).unwrap();
    fresh.load_state_dict(&sd).unwrap();
    let (x, _) = ds.batch(4, &mut rng);
    assert_eq!(model.infer(&x, 4).unwrap(), fresh.infer(&x, 4).unwrap());
}

#[test]
fn resumed_training_step_is_bitwise_identical() {
    // Save → load → one more train step must produce a loss bitwise
    // identical to the uninterrupted run: checkpointing may not
    // perturb a single bit of parameter state, and the arena-backed
    // scratch reuse in the kernels may not leak state across models.
    let ds = SyntheticVision::new(8, 4, 3, 4, 1);
    let mut rng = Rng::seed(21);
    let mut model = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut rng).unwrap();
    let warmup = TrainConfig {
        steps: 12,
        batch: 8,
        lr: 0.05,
        seed: 31,
        ..TrainConfig::default()
    };
    train(&mut model, &ds, &warmup, &Telemetry::disabled()).unwrap();
    let bytes = model.state_dict().to_bytes();

    // Uninterrupted: one more step with a fresh data seed.
    let resume_cfg = TrainConfig {
        steps: 1,
        batch: 8,
        lr: 0.05,
        seed: 32,
        ..TrainConfig::default()
    };
    let uninterrupted = train(&mut model, &ds, &resume_cfg, &Telemetry::disabled()).unwrap();

    // Interrupted: restore the checkpoint into a differently-seeded
    // fresh model, then take the same step.
    let mut resumed = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut Rng::seed(909)).unwrap();
    resumed
        .load_state_dict(&StateDict::from_bytes(&bytes).unwrap())
        .unwrap();
    let restored = train(&mut resumed, &ds, &resume_cfg, &Telemetry::disabled()).unwrap();

    assert_eq!(uninterrupted.loss_curve.len(), 1);
    assert_eq!(
        uninterrupted.loss_curve[0].to_bits(),
        restored.loss_curve[0].to_bits(),
        "resumed step loss diverged: {} vs {}",
        uninterrupted.loss_curve[0],
        restored.loss_curve[0]
    );
    // And the post-step parameters are identical too, so divergence
    // cannot hide beyond the first step.
    assert_eq!(
        model.state_dict().to_bytes(),
        resumed.state_dict().to_bytes(),
        "post-resume parameters diverged"
    );
}

#[test]
fn restore_into_wrong_architecture_fails_cleanly() {
    let mut rng = Rng::seed(6);
    let model = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut rng).unwrap();
    let sd = model.state_dict();
    // Different expert count → shape mismatch, not a panic.
    let mut bigger_cfg = SwinLiteConfig::new(8, 4, 3);
    bigger_cfg.channels = 12;
    bigger_cfg.hidden = 16;
    bigger_cfg.blocks = 2;
    let bigger_cfg = bigger_cfg.with_moe(MoeConfig::new(0, 0, 8));
    let mut other = SwinLiteMoe::new(&bigger_cfg, &mut rng).unwrap();
    assert!(other.load_state_dict(&sd).is_err());
    // Empty dict → missing tensors.
    let mut fresh = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut rng).unwrap();
    assert!(fresh.load_state_dict(&StateDict::new()).is_err());
}

#[test]
fn state_dict_parameter_count_matches_model() {
    let mut rng = Rng::seed(7);
    let model = SwinLiteMoe::new(&cfg(RouterKind::Linear), &mut rng).unwrap();
    let sd = model.state_dict();
    assert_eq!(sd.num_params(), model.num_params());
}
