//! The Tutel MoE layer: gating → fast encode → experts → fast decode,
//! fully differentiable.
//!
//! Every pass is the rank program of [`crate::step`] with the local
//! [`ExpertsBlock`] as its expert stage; the layer adds the parameters,
//! the per-iteration knobs and the report around it. The capacity
//! policy decides which assignments survive, never the layout: the
//! experts compute exact bins ([`RaggedRouting::from_routing`]) — the
//! surviving rows and no padding row — under every policy.
//!
//! This is the *functional* layer used for end-to-end training and for
//! parity tests against the Fairseq baseline. Distribution across
//! simulated GPUs changes only the layer's (simulated) execution time —
//! priced by [`crate::adaptive`] — never its math, which is the whole
//! point of Tutel's "optimizations are transparent to model
//! developers".

use tutel_experts::ExpertsBlock;
use tutel_gate::{aux_loss, CosineRouter, HashRouter, LinearRouter, RaggedRouting, Router};
use tutel_obs::Telemetry;
use tutel_tensor::{scratch, Rng, Tensor, TensorError};

use crate::checkpoint::{RestoreError, StateDict};
use crate::{step, MoeConfig, RouterKind};

/// Output of one MoE layer forward pass.
#[derive(Debug, Clone)]
pub struct MoeOutput {
    /// Layer output `(T, M)`.
    pub output: Tensor,
    /// Auxiliary load-balancing loss (scalar).
    pub aux_loss: f32,
    /// The capacity factor the layer actually used this iteration.
    pub capacity_factor: f64,
    /// The minimum factor that would have dropped no token — the
    /// Figure 1 telemetry.
    pub needed_factor: f64,
    /// Fraction of (token, expert) assignments that survived the
    /// capacity clamp.
    pub survival_rate: f64,
    /// Post-capacity token count per expert.
    pub expert_load: Vec<usize>,
    /// Token-expert assignments dropped by the capacity clamp.
    pub dropped: usize,
}

enum AnyRouter {
    Linear(LinearRouter),
    Cosine(CosineRouter),
    Hash(HashRouter),
}

impl AnyRouter {
    fn as_dyn(&self) -> &dyn Router {
        match self {
            AnyRouter::Linear(r) => r,
            AnyRouter::Cosine(r) => r,
            AnyRouter::Hash(r) => r,
        }
    }

    fn as_dyn_mut(&mut self) -> &mut dyn Router {
        match self {
            AnyRouter::Linear(r) => r,
            AnyRouter::Cosine(r) => r,
            AnyRouter::Hash(r) => r,
        }
    }
}

struct SavedForward {
    x: Tensor,
    step: step::Saved,
    /// The aux-loss weight in force when the forward ran.
    aux_weight: f32,
}

/// One forward pass under `cfg`: [`step::gate`] and [`step::forward`]
/// with `experts` as the expert stage, and the aux loss and routing
/// statistics around the output.
fn pass(
    router: &dyn Router,
    obs: &Telemetry,
    cfg: &MoeConfig,
    x: &Tensor,
    experts: impl FnOnce(Tensor, &[usize]) -> Result<Tensor, TensorError>,
) -> Result<(MoeOutput, step::Saved), TensorError> {
    let route_cfg = cfg.route_config();
    let (probs, routing) = step::gate(router, x, &route_cfg, obs)?;
    let bins = RaggedRouting::from_routing(&routing);
    let (output, saved) = step::forward(x, probs, routing, bins, obs, experts)?;
    let routing = &saved.routing;
    let aux = {
        let _aux = obs.span("gate.aux");
        aux_loss(&saved.probs, routing)?
    };
    obs.set_gauge("gate.aux_loss", aux as f64);
    let out = MoeOutput {
        output,
        aux_loss: aux,
        capacity_factor: routing.capacity_factor,
        needed_factor: routing.needed_factor,
        survival_rate: routing.survival_rate(),
        expert_load: routing.counts.clone(),
        dropped: routing.dropped(),
    };
    Ok((out, saved))
}

/// The Tutel MoE layer.
///
/// See the [crate-level docs](crate) for a quickstart. Supports
/// per-iteration `top_k` and capacity-factor overrides (top-ANY /
/// dynamic capacity), freezing (for the Table 10 fine-tuning strategy),
/// and both training (`forward`/`backward`/`step`) and inference
/// (`infer`) paths.
pub struct MoeLayer {
    cfg: MoeConfig,
    router: AnyRouter,
    experts: ExpertsBlock,
    saved: Option<SavedForward>,
    frozen: bool,
    obs: Telemetry,
}

impl MoeLayer {
    /// Creates a layer with randomly initialized router and experts.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the config is internally
    /// inconsistent (e.g. `top_k > experts`).
    pub fn new(cfg: &MoeConfig, rng: &mut Rng) -> Result<Self, TensorError> {
        if cfg.top_k == 0 || cfg.top_k > cfg.experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {} out of range for {} experts",
                cfg.top_k, cfg.experts
            )));
        }
        let router = match cfg.router {
            RouterKind::Linear => {
                AnyRouter::Linear(LinearRouter::new(cfg.model_dim, cfg.experts, rng))
            }
            RouterKind::Cosine => AnyRouter::Cosine(CosineRouter::new(
                cfg.model_dim,
                cfg.cosine_proj_dim.min(cfg.model_dim),
                cfg.experts,
                rng,
            )),
            RouterKind::Hash => AnyRouter::Hash(HashRouter::new(cfg.experts)),
        };
        let experts = ExpertsBlock::new(cfg.experts, cfg.model_dim, cfg.hidden_dim, rng);
        Ok(MoeLayer {
            cfg: *cfg,
            router,
            experts,
            saved: None,
            frozen: false,
            obs: Telemetry::disabled(),
        })
    }

    /// Routes the layer's stage spans and gate statistics into `tel`
    /// (and through to its experts). Pass [`Telemetry::disabled`] to
    /// turn instrumentation back off.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.experts.set_telemetry(tel.clone());
        self.obs = tel;
    }

    /// The layer's configuration.
    pub fn config(&self) -> &MoeConfig {
        &self.cfg
    }

    /// Changes `top_k` for subsequent iterations (dynamic top-ANY).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `k` is out of range.
    pub fn set_top_k(&mut self, k: usize) -> Result<(), TensorError> {
        if k == 0 || k > self.cfg.experts {
            return Err(TensorError::InvalidArgument(format!(
                "top_k {k} out of range for {} experts",
                self.cfg.experts
            )));
        }
        self.cfg.top_k = k;
        Ok(())
    }

    /// Changes the capacity-factor argument (Figure 16 convention) for
    /// subsequent iterations.
    pub fn set_capacity_factor(&mut self, x: f64) {
        self.cfg.capacity_factor = x;
    }

    /// Freezes or unfreezes the layer's parameters (Table 10's "fixed"
    /// MoE fine-tuning: gradients still flow *through* the layer, but
    /// its own parameters stop updating).
    pub fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    /// Number of parameters: the router's own count (zero for hash)
    /// plus the experts'.
    pub fn num_params(&self) -> usize {
        self.router.as_dyn().num_params() + self.experts.num_params()
    }

    /// Training forward pass over `x (T, M)`, caching for backward.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch or invalid routing
    /// input (a NaN selected gate, a non-finite capacity factor).
    pub fn forward(&mut self, x: &Tensor) -> Result<MoeOutput, TensorError> {
        let _span = self.obs.span("moe.forward");
        let (out, saved) = pass(
            self.router.as_dyn(),
            &self.obs,
            &self.cfg,
            x,
            |rows, bins| self.experts.forward_grouped_owned(rows, bins),
        )?;
        self.saved = Some(SavedForward {
            x: scratch::copy_of(x),
            step: saved,
            aux_weight: self.cfg.aux_weight,
        });
        Ok(out)
    }

    /// Inference forward pass (no caching), with optional capacity
    /// override (the Table 12 "infer-f" knob).
    ///
    /// # Errors
    ///
    /// As [`MoeLayer::forward`].
    pub fn infer(&self, x: &Tensor) -> Result<MoeOutput, TensorError> {
        self.infer_with(x, self.cfg.capacity_factor)
    }

    /// Batch-invariant inference: routes **dropless**
    /// (`CapacityPolicy::AutoMin`), so a token's output is a function
    /// of its own row and the parameters alone — no special-case
    /// row handling anywhere, and in particular a batch of one token
    /// takes exactly the same kernel path (blocked GEMM, softmax,
    /// top-k, encode/FFN/decode) as a large batch and produces
    /// bitwise-identical rows. The serving step makes the same
    /// promise; its per-request oracle is
    /// `tutel_serve::exec::reference_rows`, built on the kernel crates
    /// rather than on this layer.
    ///
    /// # Errors
    ///
    /// As [`MoeLayer::forward`].
    pub fn infer_dropless(&self, x: &Tensor) -> Result<MoeOutput, TensorError> {
        self.infer_with(x, 0.0)
    }

    /// Inference with an explicit capacity-factor argument.
    ///
    /// # Errors
    ///
    /// As [`MoeLayer::forward`].
    pub fn infer_with(&self, x: &Tensor, capacity_factor: f64) -> Result<MoeOutput, TensorError> {
        let _span = self.obs.span("moe.infer");
        let mut cfg = self.cfg;
        cfg.capacity_factor = capacity_factor;
        let (out, saved) = pass(self.router.as_dyn(), &self.obs, &cfg, x, |rows, bins| {
            let y = self.experts.infer_grouped(&rows, bins);
            scratch::recycle(rows);
            y
        })?;
        scratch::recycle(saved.expert_out);
        Ok(out)
    }

    /// Backward pass: consumes the cached forward, accumulates router
    /// and expert gradients (including the auxiliary-loss term), and
    /// returns `d_x (T, M)`. It differentiates the routing the forward
    /// ran: knobs changed since (`set_top_k`, `set_capacity_factor`)
    /// apply from the next forward on.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if no forward is cached or shapes
    /// mismatch.
    pub fn backward(&mut self, d_out: &Tensor) -> Result<Tensor, TensorError> {
        let _span = self.obs.span("moe.backward");
        let fwd = self
            .saved
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("backward without forward".into()))?;
        let d_x = step::backward(
            self.router.as_dyn_mut(),
            &fwd.x,
            fwd.step,
            d_out,
            fwd.aux_weight,
            &self.obs,
            |d_packed| self.experts.backward_owned(d_packed),
        )?;
        scratch::recycle(fwd.x);
        Ok(d_x)
    }

    /// Exports the layer's parameters under `prefix` into `sd`.
    pub fn export_state(&self, prefix: &str, sd: &mut StateDict) {
        match &self.router {
            AnyRouter::Linear(r) => {
                sd.insert(&format!("{prefix}.router.weight"), r.weights().clone())
            }
            AnyRouter::Cosine(r) => {
                let (w, m) = r.weights();
                sd.insert(&format!("{prefix}.router.proj"), w.clone());
                sd.insert(&format!("{prefix}.router.embed"), m.clone());
                sd.insert(&format!("{prefix}.router.tau"), Tensor::full(&[1], r.tau()));
            }
            AnyRouter::Hash(_) => {}
        }
        let (w1, b1, w2, b2) = self.experts.weights();
        sd.insert(&format!("{prefix}.experts.w1"), w1.clone());
        sd.insert(&format!("{prefix}.experts.b1"), b1.clone());
        sd.insert(&format!("{prefix}.experts.w2"), w2.clone());
        sd.insert(&format!("{prefix}.experts.b2"), b2.clone());
    }

    /// Restores parameters exported by [`MoeLayer::export_state`] into
    /// a layer of the same configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`RestoreError`] for missing or misshapen tensors.
    pub fn import_state(&mut self, prefix: &str, sd: &StateDict) -> Result<(), RestoreError> {
        let need = |name: String| sd.get(&name).cloned().ok_or(RestoreError::Missing(name));
        match &mut self.router {
            AnyRouter::Linear(r) => {
                let name = format!("{prefix}.router.weight");
                r.set_weights(need(name.clone())?)
                    .map_err(|_| RestoreError::ShapeMismatch(name))?;
            }
            AnyRouter::Cosine(r) => {
                let wn = format!("{prefix}.router.proj");
                let mn = format!("{prefix}.router.embed");
                let tn = format!("{prefix}.router.tau");
                let tau = need(tn.clone())?
                    .as_slice()
                    .first()
                    .copied()
                    .unwrap_or(0.07);
                r.set_weights(need(wn.clone())?, need(mn)?, tau)
                    .map_err(|_| RestoreError::ShapeMismatch(wn))?;
            }
            AnyRouter::Hash(_) => {}
        }
        let w1 = need(format!("{prefix}.experts.w1"))?;
        let b1 = need(format!("{prefix}.experts.b1"))?;
        let w2 = need(format!("{prefix}.experts.w2"))?;
        let b2 = need(format!("{prefix}.experts.b2"))?;
        self.experts
            .set_weights(w1, b1, w2, b2)
            .map_err(|_| RestoreError::ShapeMismatch(format!("{prefix}.experts")))?;
        Ok(())
    }

    /// Applies accumulated gradients (no-op while frozen) and clears
    /// them.
    pub fn step(&mut self, lr: f32) {
        if self.frozen {
            self.experts.zero_grad();
            self.router.as_dyn_mut().step(0.0);
        } else {
            self.experts.step(lr);
            self.router.as_dyn_mut().step(lr);
        }
    }
}

impl std::fmt::Debug for MoeLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MoeLayer")
            .field("experts", &self.cfg.experts)
            .field("top_k", &self.cfg.top_k)
            .field("model_dim", &self.cfg.model_dim)
            .field("hidden_dim", &self.cfg.hidden_dim)
            .field("frozen", &self.frozen)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer(cfg: &MoeConfig, seed: u64) -> (MoeLayer, Rng) {
        let mut rng = Rng::seed(seed);
        let l = MoeLayer::new(cfg, &mut rng).unwrap();
        (l, rng)
    }

    #[test]
    fn forward_shapes_and_telemetry() {
        let cfg = MoeConfig::new(8, 16, 4).with_top_k(2);
        let (mut l, mut rng) = layer(&cfg, 1);
        let x = rng.normal_tensor(&[32, 8], 0.0, 1.0);
        let out = l.forward(&x).unwrap();
        assert_eq!(out.output.dims(), &[32, 8]);
        assert!(out.aux_loss > 0.0);
        assert!(out.needed_factor >= 0.9);
        assert!(out.survival_rate > 0.0 && out.survival_rate <= 1.0);
    }

    #[test]
    fn train_and_infer_agree_at_same_capacity() {
        let cfg = MoeConfig::new(8, 16, 4);
        let (mut l, mut rng) = layer(&cfg, 2);
        let x = rng.normal_tensor(&[16, 8], 0.0, 1.0);
        let a = l.forward(&x).unwrap();
        let b = l.infer(&x).unwrap();
        assert_eq!(a.output, b.output);
    }

    #[test]
    fn infer_capacity_override_changes_drops() {
        let cfg = MoeConfig::new(8, 16, 4);
        let (mut l, mut rng) = layer(&cfg, 3);
        let x = rng.normal_tensor(&[64, 8], 0.0, 1.0);
        let tight = l.infer_with(&x, 0.5).unwrap();
        let loose = l.infer_with(&x, 4.0).unwrap();
        assert!(tight.survival_rate <= loose.survival_rate);
        let _ = l.forward(&x).unwrap();
    }

    #[test]
    fn backward_gradcheck_through_everything() {
        // End-to-end finite difference through router + softmax +
        // encode + experts + decode (top-2 to exercise normalization).
        let cfg = MoeConfig::new(4, 6, 3)
            .with_top_k(2)
            .with_aux_weight(0.0)
            .with_capacity_factor(8.0);
        let (mut l, mut rng) = layer(&cfg, 4);
        let x = rng.normal_tensor(&[5, 4], 0.0, 1.0);
        let up = rng.normal_tensor(&[5, 4], 0.0, 1.0);
        l.forward(&x).unwrap();
        let dx = l.backward(&up).unwrap();
        let eps = 1e-2;
        let mut max_err = 0.0f32;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = l.infer(&xp).unwrap().output.mul(&up).unwrap().sum();
            let lm = l.infer(&xm).unwrap().output.mul(&up).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            max_err = max_err.max((fd - dx.as_slice()[i]).abs());
        }
        // Routing is discontinuous at decision boundaries; with a large
        // capacity factor and smooth weights, most coordinates match.
        assert!(max_err < 0.15, "max grad error {max_err}");
    }

    #[test]
    fn batch_of_one_takes_the_batched_kernel_path_bitwise() {
        // The serving contract: under dropless routing, every row of
        // a batched inference is bitwise identical to inferring that
        // row alone — batch size 1 is not a special case anywhere in
        // the gate, encode, FFN, or decode path.
        let cfg = MoeConfig::new(8, 16, 4).with_top_k(2);
        let (l, mut rng) = layer(&cfg, 12);
        let x = rng.normal_tensor(&[16, 8], 0.0, 1.0);
        let batched = l.infer_dropless(&x).unwrap();
        for t in 0..16 {
            let row = Tensor::from_vec(x.as_slice()[t * 8..(t + 1) * 8].to_vec(), &[1, 8]).unwrap();
            let solo = l.infer_dropless(&row).unwrap();
            assert_eq!(
                solo.output.as_slice(),
                &batched.output.as_slice()[t * 8..(t + 1) * 8],
                "row {t} diverged between batch-1 and batch-16"
            );
            assert_eq!(solo.dropped, 0);
        }
        assert_eq!(batched.dropped, 0);
    }

    #[test]
    fn dropless_grouped_path_matches_padded_rows_bitwise() {
        // A clamping policy runs exact bins — the surviving rows, no
        // padding row — where the padded API views (`fast_encode` →
        // `ExpertsBlock::infer` → `fast_decode`) compute all `E·C`
        // slots. Per-row accumulation order is identical and a padding
        // row reaches no output, so the outputs must agree bit for
        // bit — training forward and inference alike.
        use tutel_kernels::{fast_decode, fast_encode};
        let cfg = MoeConfig::new(8, 16, 4)
            .with_top_k(2)
            .with_capacity_factor(0.5);
        let (mut l, mut rng) = layer(&cfg, 21);
        let x = rng.normal_tensor(&[32, 8], 0.0, 1.0);
        let grouped = l.forward(&x).unwrap();
        assert!(grouped.dropped > 0, "the clamp must drop");
        let probs = l.router.as_dyn().logits(&x).unwrap().softmax_last();
        let routing = tutel_gate::route(&probs, &cfg.route_config()).unwrap();
        let y = l
            .experts
            .infer(&fast_encode(&x, &routing).unwrap())
            .unwrap();
        let padded = fast_decode(&y, &routing, 32).unwrap();
        assert_eq!(grouped.output, padded);
        assert_eq!(l.infer(&x).unwrap().output, padded);
        // A clamp roomy enough to drop nothing runs the dropless bins.
        let roomy = l.infer_with(&x, cfg.experts as f64).unwrap();
        let dropless = l.infer_dropless(&x).unwrap();
        assert_eq!(roomy.dropped, 0, "the roomy clamp must not drop");
        assert_eq!(roomy.output, dropless.output);
        assert_eq!(roomy.expert_load, dropless.expert_load);
    }

    #[test]
    fn dynamic_top_any_switches_per_iteration() {
        let cfg = MoeConfig::new(8, 16, 8).with_capacity_factor(0.0);
        let (mut l, mut rng) = layer(&cfg, 5);
        let x = rng.normal_tensor(&[32, 8], 0.0, 1.0);
        for k in [1, 3, 8, 2] {
            l.set_top_k(k).unwrap();
            let out = l.forward(&x).unwrap();
            assert_eq!(out.output.dims(), &[32, 8], "k = {k}");
        }
        assert!(l.set_top_k(9).is_err());
        assert!(l.set_top_k(0).is_err());
    }

    #[test]
    fn frozen_layer_does_not_update() {
        let cfg = MoeConfig::new(8, 16, 4);
        let (mut l, mut rng) = layer(&cfg, 6);
        let x = rng.normal_tensor(&[16, 8], 0.0, 1.0);
        let before = l.infer(&x).unwrap().output;
        l.set_frozen(true);
        for _ in 0..3 {
            l.forward(&x).unwrap();
            let g = Tensor::ones(&[16, 8]);
            l.backward(&g).unwrap();
            l.step(0.1);
        }
        let after = l.infer(&x).unwrap().output;
        assert_eq!(before, after, "frozen layer changed");
        l.set_frozen(false);
        l.forward(&x).unwrap();
        l.backward(&Tensor::ones(&[16, 8])).unwrap();
        l.step(0.1);
        let trained = l.infer(&x).unwrap().output;
        assert_ne!(after, trained, "unfrozen layer must change");
    }

    #[test]
    fn training_reduces_regression_loss() {
        let cfg = MoeConfig::new(6, 12, 4)
            .with_top_k(2)
            .with_capacity_factor(0.0);
        let (mut l, mut rng) = layer(&cfg, 7);
        let x = rng.normal_tensor(&[24, 6], 0.0, 1.0);
        let target = rng.normal_tensor(&[24, 6], 0.0, 1.0);
        let loss_at = |l: &MoeLayer| {
            let y = l.infer(&x).unwrap().output;
            0.5 * y.sub(&target).unwrap().sq_norm()
        };
        let initial = loss_at(&l);
        for _ in 0..60 {
            let out = l.forward(&x).unwrap();
            let diff = out.output.sub(&target).unwrap();
            l.backward(&diff).unwrap();
            l.step(0.02);
        }
        let fin = loss_at(&l);
        assert!(fin < 0.7 * initial, "loss {initial} → {fin}");
    }

    #[test]
    fn cosine_and_hash_router_layers_run() {
        for kind in [RouterKind::Cosine, RouterKind::Hash] {
            let cfg = MoeConfig::new(8, 16, 4).with_router(kind);
            let (mut l, mut rng) = layer(&cfg, 8);
            let x = rng.normal_tensor(&[16, 8], 0.0, 1.0);
            let out = l.forward(&x).unwrap();
            assert_eq!(out.output.dims(), &[16, 8]);
            l.backward(&Tensor::ones(&[16, 8])).unwrap();
            l.step(0.01);
        }
    }

    #[test]
    fn rejects_bad_configs() {
        let mut rng = Rng::seed(9);
        assert!(MoeLayer::new(&MoeConfig::new(8, 16, 4).with_top_k(5), &mut rng).is_err());
        assert!(MoeLayer::new(&MoeConfig::new(8, 16, 4).with_top_k(0), &mut rng).is_err());
    }

    #[test]
    fn backward_differentiates_the_routing_the_forward_ran() {
        // top-2 forward normalizes its gates; lowering top_k before
        // backward must not switch the gate-gradient chain to the
        // unnormalized top-1 form.
        let cfg = MoeConfig::new(8, 16, 4).with_top_k(2);
        let (mut a, mut rng) = layer(&cfg, 14);
        let (mut b, _) = layer(&cfg, 14);
        let x = rng.normal_tensor(&[32, 8], 0.0, 1.0);
        let up = rng.normal_tensor(&[32, 8], 0.0, 1.0);
        a.forward(&x).unwrap();
        b.forward(&x).unwrap();
        b.set_top_k(1).unwrap();
        b.set_capacity_factor(4.0);
        assert_eq!(a.backward(&up).unwrap(), b.backward(&up).unwrap());
    }

    #[test]
    fn hostile_routing_inputs_are_typed_errors_never_panics() {
        use tutel_gate::{route, CapacityPolicy};
        let nan = f32::NAN;
        let cfg = MoeConfig::new(8, 16, 4).with_top_k(2);
        let (mut l, mut rng) = layer(&cfg, 15);

        // Layer inputs. A NaN activation makes every logit of its row
        // NaN, so for the layer "mixed" and "whole row" both end in a
        // selected NaN gate.
        let good = rng.normal_tensor(&[16, 8], 0.0, 1.0);
        let mut mixed = good.clone();
        mixed
            .as_mut_slice()
            .iter_mut()
            .step_by(3)
            .for_each(|v| *v = nan);
        let mut one_row = good.clone();
        one_row.as_mut_slice()[8..16].fill(nan);
        let empty = Tensor::zeros(&[0, 8]);

        // `route` inputs with the same defects, wide enough that a
        // comparator that is not a total order is caught by `sort_by`.
        let probs = rng.uniform_tensor(&[64, 64], 0.0, 1.0).softmax_last();
        let mut p_mixed = probs.clone();
        for row in p_mixed.as_mut_slice().chunks_mut(64) {
            row.iter_mut().step_by(3).for_each(|v| *v = nan);
        }
        let mut p_one_row = probs.clone();
        p_one_row.as_mut_slice()[64..128].fill(nan);
        let p_empty = Tensor::zeros(&[0, 64]);

        // (case, layer input, route input, capacity factor, whether
        // route / the layer answer with a finite output)
        let table = [
            // Numbers outrank NaN: 42 numbers a row, k = 2 routes on them.
            ("mixed NaN", &mixed, &p_mixed, 1.0, true, false),
            ("all-NaN row", &one_row, &p_one_row, 1.0, false, false),
            ("NaN factor", &good, &probs, f64::NAN, false, false),
            ("+Inf factor", &good, &probs, f64::INFINITY, false, false),
            ("zero tokens", &empty, &p_empty, 1.0, true, true),
        ];
        for (name, x, probs, factor, route_ok, layer_ok) in table {
            let mut route_cfg = cfg.route_config();
            route_cfg.capacity = CapacityPolicy::from_arg(factor);
            match route(probs, &route_cfg) {
                Ok(r) => {
                    assert!(route_ok, "{name}: route should refuse");
                    let mut gates = (0..r.num_tokens()).flat_map(|t| r.gates_of(t));
                    assert!(gates.all(|g| g.is_finite()), "{name}");
                }
                Err(e) => {
                    assert!(!route_ok, "{name}: route: {e}");
                    assert!(matches!(e, TensorError::InvalidArgument(_)), "{name}: {e}");
                }
            }

            l.set_capacity_factor(factor);
            for got in [l.forward(x), l.infer_with(x, factor)] {
                match got {
                    Ok(out) => {
                        assert!(layer_ok, "{name}: the layer should refuse");
                        assert_eq!(out.output.dims(), &[x.dims()[0], 8]);
                        assert!(out.output.as_slice().iter().all(|v| v.is_finite()));
                        assert!(out.aux_loss.is_finite());
                    }
                    Err(e) => {
                        assert!(!layer_ok, "{name}: layer: {e}");
                        assert!(matches!(e, TensorError::InvalidArgument(_)), "{name}: {e}");
                    }
                }
            }
            // The layer is not poisoned: the next well-formed call works.
            l.set_capacity_factor(1.0);
            let out = l.forward(&good).unwrap();
            assert!(
                out.output.as_slice().iter().all(|v| v.is_finite()),
                "{name}"
            );
            l.backward(&good).unwrap();
        }
    }

    /// A recorded span as `(name, t0_us, dur_us)`.
    type Span = (String, f64, f64);

    /// One traced forward + backward over a warmed layer: the
    /// `moe.backward` span and the four stage spans inside it.
    fn traced_backward_spans() -> (Span, Vec<Span>) {
        use tutel_obs::TraceEvent;
        let cfg = MoeConfig::new(32, 64, 8).with_top_k(2);
        let (mut l, mut rng) = layer(&cfg, 16);
        let x = rng.normal_tensor(&[512, 32], 0.0, 1.0);
        let up = rng.normal_tensor(&[512, 32], 0.0, 1.0);
        // Warm the arena so the traced pass is steady state.
        l.forward(&x).unwrap();
        l.backward(&up).unwrap();
        let tel = Telemetry::enabled();
        l.set_telemetry(tel.clone());
        l.forward(&x).unwrap();
        l.backward(&up).unwrap();
        let events = tel.tracer(0).events();
        let span = |name: &str| {
            let mut spans = events.iter().filter_map(|e| match e {
                TraceEvent::Span {
                    name: n,
                    t0_us,
                    dur_us,
                    ..
                } if n == name => Some((n.clone(), *t0_us, *dur_us)),
                _ => None,
            });
            let first = spans.next().unwrap_or_else(|| panic!("no `{name}` span"));
            assert!(spans.next().is_none(), "one `{name}` span per backward");
            first
        };
        let stages = [
            "decode.backward",
            "ffn.backward",
            "encode.backward",
            "gate.backward",
        ];
        (span("moe.backward"), stages.map(span).to_vec())
    }

    #[test]
    fn backward_stage_spans_nest_in_order_inside_the_backward_pass() {
        // The deterministic half of the attribution contract: each
        // stage span exists exactly once, they follow one another in
        // stage order, and all of them sit inside `moe.backward`.
        let (whole, stages) = traced_backward_spans();
        let mut at = whole.1;
        for (name, t0, dur) in &stages {
            assert!(*t0 >= at, "`{name}` starts before its predecessor ends");
            at = t0 + dur;
        }
        assert!(at <= whole.1 + whole.2, "stages outlast moe.backward");
    }

    #[test]
    #[ignore = "wall-clock bound: ci.sh runs it alone, not under the parallel suite"]
    fn backward_stage_spans_account_for_the_backward_pass() {
        // What the stage spans leave unattributed is the glue between
        // them; best of a few passes, since one preemption between two
        // spans is charged to nobody.
        let best = (0..9)
            .map(|_| {
                let (whole, stages) = traced_backward_spans();
                let parts: f64 = stages.iter().map(|s| s.2).sum();
                (whole.2 - parts) / whole.2
            })
            .fold(f64::MAX, f64::min);
        assert!(best <= 0.10, "unattributed backward share {best:.3}");
    }

    #[test]
    fn backward_without_forward_errors() {
        let cfg = MoeConfig::new(8, 16, 4);
        let (mut l, _) = layer(&cfg, 10);
        assert!(l.backward(&Tensor::zeros(&[4, 8])).is_err());
    }
}
