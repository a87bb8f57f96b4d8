//! Training loops and evaluation protocols for the accuracy
//! experiments (Tables 9–13, Figures 1 and 25).

use tutel_tensor::{Rng, Tensor, TensorError};

use crate::data::SyntheticVision;
use crate::model::{accuracy, cross_entropy, SwinLiteMoe};

/// Learning-rate schedule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LrSchedule {
    /// Constant learning rate.
    Constant,
    /// Linear warmup for `warmup` steps, then cosine decay to
    /// `floor_fraction · lr` at the final step (the schedule SwinV2-MoE
    /// trains with).
    CosineWithWarmup {
        /// Warmup steps.
        warmup: usize,
        /// Final LR as a fraction of the base LR.
        floor_fraction: f32,
    },
}

impl LrSchedule {
    /// The learning rate at `step` out of `total` steps, given base
    /// rate `base`.
    pub fn lr_at(&self, base: f32, step: usize, total: usize) -> f32 {
        match *self {
            LrSchedule::Constant => base,
            LrSchedule::CosineWithWarmup {
                warmup,
                floor_fraction,
            } => {
                if step < warmup && warmup > 0 {
                    base * (step + 1) as f32 / warmup as f32
                } else {
                    let span = total.saturating_sub(warmup).max(1) as f32;
                    let progress = (step.saturating_sub(warmup)) as f32 / span;
                    let cos = 0.5 * (1.0 + (std::f32::consts::PI * progress.min(1.0)).cos());
                    let floor = base * floor_fraction;
                    floor + (base - floor) * cos
                }
            }
        }
    }
}

/// Training hyper-parameters.
#[derive(Debug, Clone, Copy)]
pub struct TrainConfig {
    /// SGD steps.
    pub steps: usize,
    /// Samples per step.
    pub batch: usize,
    /// Base learning rate.
    pub lr: f32,
    /// Data-sampling seed.
    pub seed: u64,
    /// Learning-rate schedule.
    pub schedule: LrSchedule,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            steps: 300,
            batch: 16,
            lr: 0.05,
            seed: 1234,
            schedule: LrSchedule::Constant,
        }
    }
}

/// Everything a training run records.
#[derive(Debug, Clone)]
pub struct TrainStats {
    /// Cross-entropy loss per step.
    pub loss_curve: Vec<f32>,
    /// Final-window (last 10 %) mean training loss.
    pub final_loss: f32,
    /// Per-step, per-MoE-layer minimum no-drop capacity factor — the
    /// Figure 1 trace. Outer index: step; inner: MoE layer order.
    pub needed_factor_trace: Vec<Vec<f64>>,
}

/// Copies the cumulative `tutel-rt` pool and arena counters into a
/// telemetry-friendly snapshot (see [`tutel_obs::runtime`]).
pub fn runtime_snapshot() -> tutel_obs::RuntimeSnapshot {
    let pool = tutel_rt::pool_stats();
    let arena = tutel_rt::arena().stats();
    tutel_obs::RuntimeSnapshot {
        pool_workers: pool.workers,
        pool_jobs: pool.jobs,
        pool_chunks: pool.chunks,
        pool_utilization: pool.utilization(),
        pool_steals: pool.steals,
        arena_hit_rate: arena.hit_rate(),
        arena_retained_elems: arena.retained_elems,
        arena_evictions: arena.evictions,
    }
}

/// Trains `model` on `dataset` in place and returns the run's stats.
///
/// Attaches `tel` to the model's MoE layers; an enabled handle gets one
/// [`tutel_obs::StepRecord`] per step — loss, learning rate, summed aux
/// loss, per-layer needed factors, element-wise summed expert load,
/// dropped-token total, and the per-stage durations the layer spans
/// accumulated during the step.
///
/// # Errors
///
/// Returns a [`TensorError`] when a forward or backward pass fails,
/// e.g. when the model's input shape does not match the dataset's
/// samples (`in_channels` vs `channels`, tokens per sample).
pub fn train(
    model: &mut SwinLiteMoe,
    dataset: &SyntheticVision,
    cfg: &TrainConfig,
    tel: &tutel_obs::Telemetry,
) -> Result<TrainStats, TensorError> {
    model.set_telemetry(tel.clone());
    let mut rng = Rng::seed(cfg.seed);
    let mut loss_curve = Vec::with_capacity(cfg.steps);
    let mut trace: Vec<Vec<f64>> = Vec::with_capacity(cfg.steps);
    for step in 0..cfg.steps {
        tel.begin_step(step as u64);
        let (x, y) = dataset.batch(cfg.batch, &mut rng);
        let (logits, aux, layer_tel) = model.forward(&x, cfg.batch)?;
        let (loss, d_logits) = cross_entropy(&logits, &y);
        loss_curve.push(loss);
        trace.push(layer_tel.iter().map(|t| t.needed_factor).collect());
        model.backward(&d_logits)?;
        let lr = cfg.schedule.lr_at(cfg.lr, step, cfg.steps);
        model.step(lr);
        if tel.is_enabled() {
            let mut expert_load: Vec<u64> = Vec::new();
            let mut dropped = 0u64;
            for t in &layer_tel {
                if expert_load.len() < t.expert_load.len() {
                    expert_load.resize(t.expert_load.len(), 0);
                }
                for (sum, &n) in expert_load.iter_mut().zip(&t.expert_load) {
                    *sum += n as u64;
                }
                dropped += t.dropped as u64;
            }
            tel.record_step(tutel_obs::StepRecord {
                step: step as u64,
                loss: loss as f64,
                lr: lr as f64,
                aux_loss: aux as f64,
                capacity_factor: layer_tel.first().map_or(0.0, |t| t.capacity_factor),
                needed_factors: trace.last().cloned().unwrap_or_default(),
                expert_load,
                dropped,
                stages: Vec::new(),
            });
            tutel_obs::record_runtime(tel, &runtime_snapshot());
        }
    }
    let window = (cfg.steps / 10).max(1);
    let final_loss = loss_curve.iter().rev().take(window).sum::<f32>() / window as f32;
    Ok(TrainStats {
        loss_curve,
        final_loss,
        needed_factor_trace: trace,
    })
}

/// Evaluates top-1 accuracy over `batches` held-out batches of 32
/// samples each.
///
/// # Errors
///
/// As [`evaluate_with_batch`].
pub fn evaluate(
    model: &SwinLiteMoe,
    dataset: &SyntheticVision,
    batches: usize,
    seed: u64,
) -> Result<f64, TensorError> {
    evaluate_with_batch(model, dataset, batches, 32, seed)
}

/// [`evaluate`] with an explicit batch size. Any size down to a
/// single sample runs through the same inference path — batch size 1
/// is not a special case (the serving engine relies on this when it
/// re-batches straggling single requests).
///
/// # Errors
///
/// Returns a [`TensorError`] if `batch` is zero or inference fails,
/// e.g. on a model whose input shape does not match the dataset's.
pub fn evaluate_with_batch(
    model: &SwinLiteMoe,
    dataset: &SyntheticVision,
    batches: usize,
    batch: usize,
    seed: u64,
) -> Result<f64, TensorError> {
    if batch == 0 {
        return Err(TensorError::InvalidArgument(
            "evaluation batch must be nonzero".into(),
        ));
    }
    let mut rng = Rng::seed(seed);
    let mut total = 0.0;
    for _ in 0..batches {
        let (x, y) = dataset.batch(batch, &mut rng);
        let logits = model.infer(&x, batch)?;
        total += accuracy(&logits, &y);
    }
    Ok(total / batches.max(1) as f64)
}

/// The paper's 5-shot linear evaluation: freeze the backbone, extract
/// pooled features for `shots` samples per class, fit a linear
/// classifier by a few steps of softmax regression, report held-out
/// accuracy.
///
/// # Errors
///
/// Returns a [`TensorError`] if feature extraction fails, e.g. on a
/// model whose input shape does not match the dataset's.
pub fn few_shot_linear_eval(
    model: &SwinLiteMoe,
    dataset: &SyntheticVision,
    shots: usize,
    seed: u64,
) -> Result<f64, TensorError> {
    let mut rng = Rng::seed(seed);
    let (x_train, y_train) = dataset.few_shot(shots, &mut rng);
    let n_train = y_train.len();
    let feats = model.features(&x_train, n_train)?;
    let classes = dataset.classes();
    let dim = feats.dims()[1];

    // Softmax regression on frozen features.
    let mut w = Tensor::zeros(&[dim, classes]);
    let mut b = Tensor::zeros(&[classes]);
    for _ in 0..200 {
        let mut logits = feats.matmul(&w)?;
        for row in logits.as_mut_slice().chunks_mut(classes) {
            for (v, bias) in row.iter_mut().zip(b.as_slice()) {
                *v += bias;
            }
        }
        let (_, grad) = cross_entropy(&logits, &y_train);
        let dw = feats.matmul_tn(&grad)?;
        w.axpy(-0.5, &dw)?;
        for row in grad.as_slice().chunks(classes) {
            for (bg, g) in b.as_mut_slice().iter_mut().zip(row) {
                *bg -= 0.5 * g;
            }
        }
    }

    // Held-out evaluation.
    let batch = 32;
    let mut total = 0.0;
    let evals = 8;
    for _ in 0..evals {
        let (x, y) = dataset.batch(batch, &mut rng);
        let f = model.features(&x, batch)?;
        let mut logits = f.matmul(&w)?;
        for row in logits.as_mut_slice().chunks_mut(classes) {
            for (v, bias) in row.iter_mut().zip(b.as_slice()) {
                *v += bias;
            }
        }
        total += accuracy(&logits, &y);
    }
    Ok(total / evals as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SwinLiteConfig;
    use crate::MoeConfig;
    use tutel_obs::Telemetry;

    fn quick_setup(moe: bool) -> (SwinLiteMoe, SyntheticVision) {
        let mut cfg = SwinLiteConfig::new(8, 4, 3);
        cfg.channels = 12;
        cfg.hidden = 16;
        cfg.blocks = 2;
        if moe {
            cfg = cfg.with_moe(MoeConfig::new(0, 0, 4).with_capacity_factor(0.0));
        }
        let mut rng = Rng::seed(10);
        let model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
        let ds = SyntheticVision::new(8, 4, 3, 4, 11);
        (model, ds)
    }

    #[test]
    fn cosine_schedule_warms_up_then_decays() {
        let s = LrSchedule::CosineWithWarmup {
            warmup: 10,
            floor_fraction: 0.1,
        };
        let base = 1.0;
        // Warmup is increasing.
        assert!(s.lr_at(base, 0, 100) < s.lr_at(base, 5, 100));
        assert!(s.lr_at(base, 9, 100) <= base);
        // Peak right after warmup, then monotone decay to the floor.
        let peak = s.lr_at(base, 10, 100);
        assert!((peak - base).abs() < 1e-6);
        let mut last = peak;
        for step in 11..100 {
            let lr = s.lr_at(base, step, 100);
            assert!(lr <= last + 1e-6, "decay must be monotone at {step}");
            last = lr;
        }
        assert!((s.lr_at(base, 99, 100) - 0.1).abs() < 0.05);
        // Constant is constant.
        assert_eq!(LrSchedule::Constant.lr_at(0.3, 7, 100), 0.3);
    }

    #[test]
    fn cosine_schedule_trains() {
        let (mut model, ds) = quick_setup(true);
        let cfg = TrainConfig {
            steps: 60,
            batch: 8,
            lr: 0.08,
            seed: 9,
            schedule: LrSchedule::CosineWithWarmup {
                warmup: 5,
                floor_fraction: 0.05,
            },
        };
        let stats = train(&mut model, &ds, &cfg, &Telemetry::disabled()).unwrap();
        assert!(stats.final_loss.is_finite());
        assert!(stats.final_loss < stats.loss_curve[0] * 1.2);
    }

    #[test]
    fn train_records_loss_and_telemetry() {
        let (mut model, ds) = quick_setup(true);
        let cfg = TrainConfig {
            steps: 30,
            batch: 8,
            lr: 0.05,
            seed: 1,
            ..TrainConfig::default()
        };
        let stats = train(&mut model, &ds, &cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(stats.loss_curve.len(), 30);
        assert_eq!(stats.needed_factor_trace.len(), 30);
        assert_eq!(stats.needed_factor_trace[0].len(), 1);
        assert!(stats.final_loss < stats.loss_curve[0] * 1.2);
    }

    #[test]
    fn training_is_seed_reproducible() {
        let (mut m1, ds) = quick_setup(true);
        let (mut m2, _) = quick_setup(true);
        let cfg = TrainConfig {
            steps: 10,
            batch: 8,
            lr: 0.05,
            seed: 2,
            ..TrainConfig::default()
        };
        let s1 = train(&mut m1, &ds, &cfg, &Telemetry::disabled()).unwrap();
        let s2 = train(&mut m2, &ds, &cfg, &Telemetry::disabled()).unwrap();
        assert_eq!(s1.loss_curve, s2.loss_curve);
    }

    #[test]
    fn evaluation_runs_and_bounds() {
        let (model, ds) = quick_setup(false);
        let acc = evaluate(&model, &ds, 2, 3).unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn single_sample_batches_evaluate_through_the_same_path() {
        // Batch size 1 must not be a special case: a single-sample
        // evaluation runs the identical inference path and yields a
        // well-formed accuracy, and the MoE variant does too.
        for moe in [false, true] {
            let (model, ds) = quick_setup(moe);
            let acc = evaluate_with_batch(&model, &ds, 4, 1, 3).unwrap();
            assert!((0.0..=1.0).contains(&acc), "batch-1 accuracy {acc}");
        }
        // The default entry point is exactly the batch-32 case.
        let (model, ds) = quick_setup(false);
        assert_eq!(
            evaluate(&model, &ds, 2, 3).unwrap(),
            evaluate_with_batch(&model, &ds, 2, 32, 3).unwrap()
        );
    }

    #[test]
    fn few_shot_eval_beats_chance_after_training() {
        let (mut model, ds) = quick_setup(true);
        let cfg = TrainConfig {
            steps: 120,
            batch: 16,
            lr: 0.05,
            seed: 4,
            ..TrainConfig::default()
        };
        train(&mut model, &ds, &cfg, &Telemetry::disabled()).unwrap();
        let acc = few_shot_linear_eval(&model, &ds, 5, 5).unwrap();
        assert!(acc > 0.45, "few-shot accuracy {acc} (chance 0.33)");
    }

    #[test]
    fn a_model_that_does_not_fit_the_dataset_is_an_error() {
        // The model reads 8 input channels, the dataset writes 6: every
        // entry point reports the mismatch instead of panicking.
        for moe in [false, true] {
            let (mut model, _) = quick_setup(moe);
            let ds = SyntheticVision::new(6, 4, 3, 4, 11);
            let cfg = TrainConfig {
                steps: 2,
                batch: 4,
                ..TrainConfig::default()
            };
            assert!(matches!(
                train(&mut model, &ds, &cfg, &Telemetry::disabled()),
                Err(TensorError::ShapeMismatch { .. })
            ));
            assert!(evaluate(&model, &ds, 1, 3).is_err());
            assert!(few_shot_linear_eval(&model, &ds, 2, 5).is_err());
        }
        let (model, ds) = quick_setup(false);
        assert!(evaluate_with_batch(&model, &ds, 1, 0, 3).is_err());
    }
}
