//! SwinLite-MoE: a compact transformer-style classifier whose
//! every-other FFN is an MoE layer, standing in for SwinV2-MoE
//! (Section 5.3). Built entirely from the stack's own differentiable
//! pieces — no autograd framework.
//!
//! Architecture (per sample of `T` tokens of `C_in` features):
//!
//! ```text
//! embed: Linear(C_in → C)
//! repeat L blocks:
//!     mixer: x += Linear(C → C)                (linear attention stand-in;
//!                                               like attention, it mixes
//!                                               features but provides no
//!                                               per-token nonlinear
//!                                               capacity — that lives in
//!                                               the FFNs, as in SwinV2)
//!     ffn:   x += FFN(C → V → C)               (dense, or MoE on every
//!                                               other block, as in
//!                                               SwinV2-MoE)
//! head: mean-pool tokens → Linear(C → K) → softmax CE
//! ```
//!
//! Every trainable tensor is a [`Param`] — [`Linear`]'s weight and bias
//! here, the FFN's and routers' inside their crates — so `step` is one
//! `Param::step` per tensor all the way down and allocates nothing.
//! Inference is the pooled [`SwinLiteMoe::features`] plus the head.

use tutel_experts::ExpertsBlock;
use tutel_tensor::{Param, Rng, Tensor, TensorError};

use crate::checkpoint::{RestoreError, StateDict};
use crate::{MoeConfig, MoeLayer};

/// A trainable affine layer `y = x·W + b`; `W` and `b` are [`Param`]s.
#[derive(Debug, Clone)]
pub struct Linear {
    w: Param,
    b: Param,
    saved_x: Option<Tensor>,
}

impl Linear {
    /// Creates a Kaiming-initialized layer.
    pub fn new(inputs: usize, outputs: usize, rng: &mut Rng) -> Self {
        Linear {
            w: Param::new(rng.kaiming(inputs, outputs)),
            b: Param::new(Tensor::zeros(&[outputs])),
            saved_x: None,
        }
    }

    /// Forward with caching.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        self.saved_x = Some(x.clone());
        self.infer(x)
    }

    /// Forward without caching.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let mut y = x.matmul(self.w.w())?;
        let cols = self.b.len();
        for row in y.as_mut_slice().chunks_mut(cols) {
            for (v, b) in row.iter_mut().zip(self.b.w().as_slice()) {
                *v += b;
            }
        }
        Ok(y)
    }

    /// Backward: accumulates `dW`, `db`, returns `dX`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if no forward is cached.
    pub fn backward(&mut self, d_y: &Tensor) -> Result<Tensor, TensorError> {
        let x = self
            .saved_x
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("backward without forward".into()))?;
        self.w.accumulate(&x.matmul_tn(d_y)?)?;
        let cols = self.b.len();
        for row in d_y.as_slice().chunks(cols) {
            for (g, v) in self.b.g_mut().iter_mut().zip(row) {
                *g += v;
            }
        }
        d_y.matmul_nt(self.w.w())
    }

    /// SGD update with per-tensor gradient-norm clipping; clears
    /// gradients in place.
    pub fn step(&mut self, lr: f32) {
        self.w.step(lr);
        self.b.step(lr);
    }

    /// Parameter count.
    pub fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn export_state(&self, prefix: &str, sd: &mut StateDict) {
        sd.insert(&format!("{prefix}.weight"), self.w.w().clone());
        sd.insert(&format!("{prefix}.bias"), self.b.w().clone());
    }

    fn import_state(&mut self, prefix: &str, sd: &StateDict) -> Result<(), RestoreError> {
        let w = sd
            .get(&format!("{prefix}.weight"))
            .ok_or_else(|| RestoreError::Missing(format!("{prefix}.weight")))?;
        let b = sd
            .get(&format!("{prefix}.bias"))
            .ok_or_else(|| RestoreError::Missing(format!("{prefix}.bias")))?;
        let misshapen = |_| RestoreError::ShapeMismatch(prefix.to_string());
        self.w.set(w.clone()).map_err(misshapen)?;
        self.b.set(b.clone()).map_err(misshapen)
    }
}

/// Either a dense FFN or an MoE layer in a block's FFN slot.
#[allow(clippy::large_enum_variant)]
enum FfnSlot {
    Dense { block: ExpertsBlock },
    Moe(Box<MoeLayer>),
}

struct Block {
    mixer: Linear,
    ffn: FfnSlot,
}

/// Configuration of [`SwinLiteMoe`].
#[derive(Debug, Clone, Copy)]
pub struct SwinLiteConfig {
    /// Input feature channels.
    pub in_channels: usize,
    /// Model width `C`.
    pub channels: usize,
    /// FFN hidden width `V`.
    pub hidden: usize,
    /// Number of blocks.
    pub blocks: usize,
    /// Number of classes.
    pub classes: usize,
    /// Tokens per sample.
    pub tokens_per_sample: usize,
    /// MoE settings for the sparse blocks; `None` = fully dense model.
    pub moe: Option<MoeConfig>,
}

impl SwinLiteConfig {
    /// The compact default used by the experiments: every other block's
    /// FFN is an MoE layer (as in SwinV2-MoE), starting from block 1.
    pub fn new(in_channels: usize, tokens_per_sample: usize, classes: usize) -> Self {
        SwinLiteConfig {
            in_channels,
            channels: 24,
            hidden: 32,
            blocks: 4,
            classes,
            tokens_per_sample,
            moe: None,
        }
    }

    /// Makes every other FFN an MoE layer with the given config (its
    /// `model_dim`/`hidden_dim` are overwritten to match the model).
    pub fn with_moe(mut self, moe: MoeConfig) -> Self {
        self.moe = Some(MoeConfig {
            model_dim: self.channels,
            hidden_dim: self.hidden,
            ..moe
        });
        self
    }
}

/// Per-forward telemetry of one MoE block.
#[derive(Debug, Clone, PartialEq)]
pub struct MoeTelemetry {
    /// Which block the MoE layer sits in.
    pub block: usize,
    /// Minimum capacity factor that would drop no token (Figure 1).
    pub needed_factor: f64,
    /// The capacity factor the layer actually ran with.
    pub capacity_factor: f64,
    /// Survival rate under the layer's actual capacity.
    pub survival_rate: f64,
    /// Auxiliary loss.
    pub aux_loss: f32,
    /// Tokens routed to each expert this forward.
    pub expert_load: Vec<usize>,
    /// Tokens dropped by capacity limits this forward.
    pub dropped: usize,
}

/// The SwinLite-MoE model.
pub struct SwinLiteMoe {
    cfg: SwinLiteConfig,
    embed: Linear,
    blocks: Vec<Block>,
    head: Linear,
    /// Per-sample token count cached at forward for pooling backward.
    saved_pool: Option<(usize, usize)>,
}

impl SwinLiteMoe {
    /// Builds the model.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] for inconsistent MoE configs.
    pub fn new(cfg: &SwinLiteConfig, rng: &mut Rng) -> Result<Self, TensorError> {
        let embed = Linear::new(cfg.in_channels, cfg.channels, rng);
        let mut blocks = Vec::with_capacity(cfg.blocks);
        for b in 0..cfg.blocks {
            let mixer = Linear::new(cfg.channels, cfg.channels, rng);
            let ffn = match (&cfg.moe, b % 2) {
                (Some(moe_cfg), 1) => FfnSlot::Moe(Box::new(MoeLayer::new(moe_cfg, rng)?)),
                _ => FfnSlot::Dense {
                    block: ExpertsBlock::new(1, cfg.channels, cfg.hidden, rng),
                },
            };
            blocks.push(Block { mixer, ffn });
        }
        let head = Linear::new(cfg.channels, cfg.classes, rng);
        Ok(SwinLiteMoe {
            cfg: *cfg,
            embed,
            blocks,
            head,
            saved_pool: None,
        })
    }

    /// The model's configuration.
    pub fn config(&self) -> &SwinLiteConfig {
        &self.cfg
    }

    /// Total parameters.
    pub fn num_params(&self) -> usize {
        let mut n = self.embed.num_params() + self.head.num_params();
        for b in &self.blocks {
            n += b.mixer.num_params();
            n += match &b.ffn {
                FfnSlot::Dense { block } => block.num_params(),
                FfnSlot::Moe(m) => m.num_params(),
            };
        }
        n
    }

    /// Parameters touched per token (dense params + `k/E` of expert
    /// params): the paper's `#param_act`.
    pub fn active_params(&self) -> usize {
        let mut n = self.embed.num_params() + self.head.num_params();
        for b in &self.blocks {
            n += b.mixer.num_params();
            n += match &b.ffn {
                FfnSlot::Dense { block } => block.num_params(),
                FfnSlot::Moe(m) => {
                    let cfg = m.config();
                    let per_expert =
                        2 * cfg.model_dim * cfg.hidden_dim + cfg.model_dim + cfg.hidden_dim;
                    per_expert * cfg.top_k + cfg.model_dim * cfg.experts
                }
            };
        }
        n
    }

    /// Freezes/unfreezes all MoE layers (Table 10's fine-tuning knob).
    pub fn set_moe_frozen(&mut self, frozen: bool) {
        for b in &mut self.blocks {
            if let FfnSlot::Moe(m) = &mut b.ffn {
                m.set_frozen(frozen);
            }
        }
    }

    /// Overrides the capacity-factor argument of every MoE layer.
    pub fn set_capacity_factor(&mut self, x: f64) {
        for b in &mut self.blocks {
            if let FfnSlot::Moe(m) = &mut b.ffn {
                m.set_capacity_factor(x);
            }
        }
    }

    /// Attaches a telemetry handle to every MoE layer (spans, kernel
    /// counters, routing metrics). Dense FFN blocks stay silent so the
    /// recorded stages attribute MoE work only.
    pub fn set_telemetry(&mut self, tel: tutel_obs::Telemetry) {
        for b in &mut self.blocks {
            if let FfnSlot::Moe(m) = &mut b.ffn {
                m.set_telemetry(tel.clone());
            }
        }
    }

    /// Exports every parameter into a [`StateDict`].
    pub fn state_dict(&self) -> StateDict {
        let mut sd = StateDict::new();
        self.embed.export_state("embed", &mut sd);
        for (i, block) in self.blocks.iter().enumerate() {
            block
                .mixer
                .export_state(&format!("blocks.{i}.mixer"), &mut sd);
            match &block.ffn {
                FfnSlot::Dense { block: ffn } => {
                    let (w1, b1, w2, b2) = ffn.weights();
                    sd.insert(&format!("blocks.{i}.ffn.w1"), w1.clone());
                    sd.insert(&format!("blocks.{i}.ffn.b1"), b1.clone());
                    sd.insert(&format!("blocks.{i}.ffn.w2"), w2.clone());
                    sd.insert(&format!("blocks.{i}.ffn.b2"), b2.clone());
                }
                FfnSlot::Moe(m) => m.export_state(&format!("blocks.{i}.moe"), &mut sd),
            }
        }
        self.head.export_state("head", &mut sd);
        sd
    }

    /// Restores a [`StateDict`] produced by [`SwinLiteMoe::state_dict`]
    /// into a model of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] for missing or misshapen tensors.
    pub fn load_state_dict(&mut self, sd: &StateDict) -> Result<(), RestoreError> {
        self.embed.import_state("embed", sd)?;
        for (i, block) in self.blocks.iter_mut().enumerate() {
            block.mixer.import_state(&format!("blocks.{i}.mixer"), sd)?;
            match &mut block.ffn {
                FfnSlot::Dense { block: ffn } => {
                    let need =
                        |name: String| sd.get(&name).cloned().ok_or(RestoreError::Missing(name));
                    let w1 = need(format!("blocks.{i}.ffn.w1"))?;
                    let b1 = need(format!("blocks.{i}.ffn.b1"))?;
                    let w2 = need(format!("blocks.{i}.ffn.w2"))?;
                    let b2 = need(format!("blocks.{i}.ffn.b2"))?;
                    ffn.set_weights(w1, b1, w2, b2)
                        .map_err(|_| RestoreError::ShapeMismatch(format!("blocks.{i}.ffn")))?;
                }
                FfnSlot::Moe(m) => m.import_state(&format!("blocks.{i}.moe"), sd)?,
            }
        }
        self.head.import_state("head", sd)
    }

    /// Training forward: returns `(logits (B, K), aux_loss_total,
    /// per-MoE-layer telemetry)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` is not
    /// `(B·tokens_per_sample, in_channels)`.
    pub fn forward(
        &mut self,
        x: &Tensor,
        batch: usize,
    ) -> Result<(Tensor, f32, Vec<MoeTelemetry>), TensorError> {
        let t = self.cfg.tokens_per_sample;
        if x.dims() != [batch * t, self.cfg.in_channels] {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![batch * t, self.cfg.in_channels],
                op: "swinlite_forward",
            });
        }
        let mut h = self.embed.forward(x)?;
        let mut aux_total = 0.0f32;
        let mut telemetry = Vec::new();
        for (bi, block) in self.blocks.iter_mut().enumerate() {
            // Linear mixer with residual.
            let pre = block.mixer.forward(&h)?;
            h = h.add(&pre)?;
            // FFN with residual.
            match &mut block.ffn {
                FfnSlot::Dense { block: ffn } => {
                    let rows = h.dims()[0];
                    let x3 = h.reshape(&[1, rows, self.cfg.channels])?;
                    let y3 = ffn.forward(&x3)?;
                    let y = y3.reshape(&[rows, self.cfg.channels])?;
                    h = h.add(&y)?;
                }
                FfnSlot::Moe(m) => {
                    let out = m.forward(&h)?;
                    aux_total += out.aux_loss;
                    telemetry.push(MoeTelemetry {
                        block: bi,
                        needed_factor: out.needed_factor,
                        capacity_factor: out.capacity_factor,
                        survival_rate: out.survival_rate,
                        aux_loss: out.aux_loss,
                        expert_load: out.expert_load,
                        dropped: out.dropped,
                    });
                    h = h.add(&out.output)?;
                }
            }
        }
        // Mean-pool tokens per sample.
        let pooled = mean_pool(&h, batch, t, self.cfg.channels)?;
        self.saved_pool = Some((batch, t));
        let logits = self.head.forward(&pooled)?;
        Ok((logits, aux_total, telemetry))
    }

    /// Inference forward: logits only, optional capacity override.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    pub fn infer(&self, x: &Tensor, batch: usize) -> Result<Tensor, TensorError> {
        self.head.infer(&self.features(x, batch)?)
    }

    /// Pooled features before the head (for the few-shot linear eval).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    pub fn features(&self, x: &Tensor, batch: usize) -> Result<Tensor, TensorError> {
        let t = self.cfg.tokens_per_sample;
        let mut h = self.embed.infer(x)?;
        for block in &self.blocks {
            let pre = block.mixer.infer(&h)?;
            h = h.add(&pre)?;
            match &block.ffn {
                FfnSlot::Dense { block: ffn } => {
                    let rows = h.dims()[0];
                    let x3 = h.reshape(&[1, rows, self.cfg.channels])?;
                    let y3 = ffn.infer(&x3)?;
                    h = h.add(&y3.reshape(&[rows, self.cfg.channels])?)?;
                }
                FfnSlot::Moe(m) => {
                    h = h.add(&m.infer(&h)?.output)?;
                }
            }
        }
        mean_pool(&h, batch, t, self.cfg.channels)
    }

    /// Backward from `d_logits (B, K)`; returns nothing (input grads
    /// are not needed by any experiment).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if no forward is cached.
    pub fn backward(&mut self, d_logits: &Tensor) -> Result<(), TensorError> {
        let (batch, t) = self
            .saved_pool
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("backward without forward".into()))?;
        let d_pooled = self.head.backward(d_logits)?;
        // Un-pool: each token receives d_pooled / T.
        let c = self.cfg.channels;
        let mut d_h = Tensor::zeros(&[batch * t, c]);
        for b in 0..batch {
            let src = &d_pooled.as_slice()[b * c..(b + 1) * c];
            for ti in 0..t {
                let dst = &mut d_h.as_mut_slice()[(b * t + ti) * c..(b * t + ti + 1) * c];
                for (o, v) in dst.iter_mut().zip(src) {
                    *o += v / t as f32;
                }
            }
        }
        for block in self.blocks.iter_mut().rev() {
            // FFN residual.
            let d_ffn_out = d_h.clone();
            let d_from_ffn = match &mut block.ffn {
                FfnSlot::Dense { block: ffn } => {
                    let rows = d_ffn_out.dims()[0];
                    let d3 = d_ffn_out.reshape(&[1, rows, c])?;
                    let dx3 = ffn.backward(&d3)?;
                    dx3.reshape(&[rows, c])?
                }
                FfnSlot::Moe(m) => m.backward(&d_ffn_out)?,
            };
            d_h.axpy(1.0, &d_from_ffn)?;
            // Linear mixer residual.
            let d_from_mixer = block.mixer.backward(&d_h)?;
            d_h.axpy(1.0, &d_from_mixer)?;
        }
        self.embed.backward(&d_h)?;
        Ok(())
    }

    /// SGD step on every submodule.
    pub fn step(&mut self, lr: f32) {
        self.embed.step(lr);
        for block in &mut self.blocks {
            block.mixer.step(lr);
            match &mut block.ffn {
                FfnSlot::Dense { block: ffn } => ffn.step(lr),
                FfnSlot::Moe(m) => m.step(lr),
            }
        }
        self.head.step(lr);
    }
}

/// Mean-pools `(B·T, C)` tokens into `(B, C)` sample features.
fn mean_pool(h: &Tensor, batch: usize, t: usize, c: usize) -> Result<Tensor, TensorError> {
    if h.dims() != [batch * t, c] {
        return Err(TensorError::ShapeMismatch {
            left: h.dims().to_vec(),
            right: vec![batch * t, c],
            op: "mean_pool",
        });
    }
    let mut out = Tensor::zeros(&[batch, c]);
    for b in 0..batch {
        for ti in 0..t {
            let row = &h.as_slice()[(b * t + ti) * c..(b * t + ti + 1) * c];
            let dst = &mut out.as_mut_slice()[b * c..(b + 1) * c];
            for (o, v) in dst.iter_mut().zip(row) {
                *o += v / t as f32;
            }
        }
    }
    Ok(out)
}

/// Softmax cross-entropy: returns `(loss, d_logits)`.
///
/// # Panics
///
/// Panics if `labels.len()` does not match the logits' row count.
pub fn cross_entropy(logits: &Tensor, labels: &[usize]) -> (f32, Tensor) {
    let (b, k) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), b, "label count mismatch");
    let probs = logits.softmax_last();
    let mut loss = 0.0f32;
    let mut grad = probs.clone();
    for (i, &y) in labels.iter().enumerate() {
        assert!(y < k, "label {y} out of range");
        loss -= probs.at(&[i, y]).max(1e-12).ln();
        let g = grad.at(&[i, y]) - 1.0;
        grad.set(&[i, y], g);
    }
    (loss / b as f32, grad.scale(1.0 / b as f32))
}

/// Argmax accuracy.
///
/// # Panics
///
/// Panics if `labels.len()` does not match the logits' row count.
pub fn accuracy(logits: &Tensor, labels: &[usize]) -> f64 {
    let (b, k) = (logits.dims()[0], logits.dims()[1]);
    assert_eq!(labels.len(), b, "label count mismatch");
    let mut correct = 0usize;
    for (i, &y) in labels.iter().enumerate() {
        let row = &logits.as_slice()[i * k..(i + 1) * k];
        let pred = row
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .map(|(j, _)| j)
            .unwrap_or(0);
        if pred == y {
            correct += 1;
        }
    }
    correct as f64 / b.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticVision;

    fn tiny_cfg(moe: bool) -> SwinLiteConfig {
        let mut cfg = SwinLiteConfig::new(8, 4, 3);
        cfg.channels = 12;
        cfg.hidden = 16;
        cfg.blocks = 2;
        if moe {
            cfg = cfg.with_moe(MoeConfig::new(0, 0, 4).with_capacity_factor(0.0));
        }
        cfg
    }

    #[test]
    fn forward_shapes() {
        let mut rng = Rng::seed(1);
        let mut model = SwinLiteMoe::new(&tiny_cfg(true), &mut rng).unwrap();
        let ds = SyntheticVision::new(8, 4, 3, 4, 2);
        let (x, _) = ds.batch(6, &mut rng);
        let (logits, aux, tel) = model.forward(&x, 6).unwrap();
        assert_eq!(logits.dims(), &[6, 3]);
        assert!(aux > 0.0);
        assert_eq!(tel.len(), 1); // one MoE block out of two
    }

    #[test]
    fn moe_model_has_more_params_same_active() {
        let mut rng = Rng::seed(2);
        let dense = SwinLiteMoe::new(&tiny_cfg(false), &mut rng).unwrap();
        let moe = SwinLiteMoe::new(&tiny_cfg(true), &mut rng).unwrap();
        assert!(moe.num_params() > 2 * dense.num_params());
        // Active params: k=1 expert ≈ one dense FFN (+ router).
        let slack = (moe.active_params() as f64) / (dense.num_params() as f64);
        assert!(slack < 1.2, "active/dense = {slack}");
    }

    #[test]
    fn cross_entropy_matches_uniform_baseline() {
        let logits = Tensor::zeros(&[4, 3]);
        let (loss, grad) = cross_entropy(&logits, &[0, 1, 2, 0]);
        assert!((loss - (3.0f32).ln()).abs() < 1e-5);
        // Gradient rows sum to zero.
        for row in grad.as_slice().chunks(3) {
            assert!(row.iter().sum::<f32>().abs() < 1e-6);
        }
    }

    #[test]
    fn accuracy_counts_argmax() {
        let logits = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0, 0.5, 0.6], &[3, 2]).unwrap();
        assert!((accuracy(&logits, &[0, 1, 0]) - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn training_improves_accuracy_over_chance() {
        let mut rng = Rng::seed(3);
        let cfg = tiny_cfg(true);
        let mut model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
        let ds = SyntheticVision::new(8, 4, 3, 4, 4);
        let mut data_rng = Rng::seed(5);
        for _ in 0..150 {
            let (x, y) = ds.batch(16, &mut data_rng);
            let (logits, _aux, _) = model.forward(&x, 16).unwrap();
            let (_loss, dl) = cross_entropy(&logits, &y);
            model.backward(&dl).unwrap();
            model.step(0.05);
        }
        let (x, y) = ds.batch(64, &mut data_rng);
        let logits = model.infer(&x, 64).unwrap();
        let acc = accuracy(&logits, &y);
        assert!(
            acc > 0.55,
            "trained accuracy {acc} barely above chance (1/3)"
        );
    }

    #[test]
    fn dense_model_trains_too() {
        let mut rng = Rng::seed(6);
        let mut model = SwinLiteMoe::new(&tiny_cfg(false), &mut rng).unwrap();
        let ds = SyntheticVision::new(8, 4, 3, 4, 4);
        let mut data_rng = Rng::seed(7);
        let mut first = None;
        let mut last = 0.0;
        for _ in 0..80 {
            let (x, y) = ds.batch(16, &mut data_rng);
            let (logits, _, _) = model.forward(&x, 16).unwrap();
            let (loss, dl) = cross_entropy(&logits, &y);
            first.get_or_insert(loss);
            last = loss;
            model.backward(&dl).unwrap();
            model.step(0.05);
        }
        assert!(
            last < first.unwrap(),
            "loss must decrease: {first:?} → {last}"
        );
    }

    #[test]
    fn telemetry_tracks_capacity_needs() {
        let mut rng = Rng::seed(8);
        let mut model = SwinLiteMoe::new(&tiny_cfg(true), &mut rng).unwrap();
        let ds = SyntheticVision::new(8, 4, 3, 4, 9);
        let (x, _) = ds.batch(8, &mut rng);
        let (_, _, tel) = model.forward(&x, 8).unwrap();
        for t in &tel {
            assert!(t.needed_factor > 0.0);
            assert!((0.0..=1.0).contains(&t.survival_rate));
        }
    }
}
