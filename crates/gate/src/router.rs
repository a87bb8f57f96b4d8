//! Routers: the trainable functions producing token→expert logits.
//!
//! Every trainable matrix is a [`Param`] (weights + same-shaped
//! gradient), so a router's `step` is one [`Param::step`] per matrix
//! and its parameter count is the sum of their lengths.

use tutel_tensor::{
    grouped_gemm_tn, linear_backward_panels, scratch, Param, Rng, Tensor, TensorError, TopK,
};

use crate::backward::{gate_logits_grad, logits_grad_rows, scaled_aux_row};
use crate::routing::check_k;
use crate::Routing;

/// A gating router: maps token features `(T, C)` to expert logits
/// `(T, E)`.
///
/// Implemented by [`LinearRouter`] (GShard standard), [`CosineRouter`]
/// (Section 5.3.4) and [`HashRouter`] (parameter-free baseline).
pub trait Router {
    /// Number of global experts this router scores.
    fn num_experts(&self) -> usize;

    /// Computes logits `(T, E)` for token features `x` of shape
    /// `(T, C)`, in an arena-backed tensor (the step recycles it).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` has the wrong shape.
    fn logits(&self, x: &Tensor) -> Result<Tensor, TensorError>;

    /// The gate forward in one launch: the probabilities `(T, E)` —
    /// [`logits`](Self::logits) → [`Tensor::softmax_last`] — and each
    /// row's top `k` of them as [`Tensor::topk_last`] returns it, every
    /// bit equal to that unfused chain's, for
    /// [`route_top_k`](crate::route_top_k). The default takes the
    /// logits and runs [`Tensor::softmax_top_k_last`] over them in
    /// place; [`LinearRouter`] runs the same per-row function inside
    /// its logits GEMM's launch
    /// ([`Tensor::matmul_softmax_top_k`]).
    ///
    /// # Errors
    ///
    /// [`route`](crate::route)'s error for a `k` outside `1..=E`, then
    /// as [`logits`](Self::logits).
    // check:hot
    fn softmax_top_k(&self, x: &Tensor, k: usize) -> Result<(Tensor, TopK), TensorError> {
        check_k(k, self.num_experts())?;
        let mut probs = self.logits(x)?;
        let top = probs.softmax_top_k_last(k)?;
        Ok((probs, top))
    }

    /// Backward pass: given `x` and `d_logits`, accumulates parameter
    /// gradients internally and returns `d_x`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] on shape mismatch.
    fn backward(&mut self, x: &Tensor, d_logits: &Tensor) -> Result<Tensor, TensorError>;

    /// The gate's whole backward from the decode's gate gradients
    /// `d_gates (T·k)`: through gate normalization, `aux_weight ·` the
    /// aux loss's row, the softmax over `probs (T, E)` and this router,
    /// accumulating the router's gradients and adding its input
    /// gradient into `d_x (T, C)`. The default is the unfused chain:
    /// [`gate_logits_grad`](crate::gate_logits_grad) into a `(T, E)`
    /// tensor, [`backward`](Self::backward), then `d_x += ` its result
    /// ([`Tensor::axpy`] at 1). [`LinearRouter`] runs the same arithmetic
    /// as one launch of 256-row panel jobs, every bit equal.
    ///
    /// # Errors
    ///
    /// If `probs`, `d_gates` or `x` does not match `routing`, or `d_x`
    /// does not match `x`.
    // check:hot
    fn gate_backward(
        &mut self,
        x: &Tensor,
        probs: &Tensor,
        routing: &Routing,
        d_gates: &[f32],
        aux_weight: f32,
        d_x: &mut Tensor,
    ) -> Result<(), TensorError> {
        let d_logits = gate_logits_grad(probs, routing, d_gates, aux_weight)?;
        let d_x_router = self.backward(x, &d_logits)?;
        scratch::recycle(d_logits);
        d_x.axpy(1.0, &d_x_router)?;
        scratch::recycle(d_x_router);
        Ok(())
    }

    /// Applies accumulated gradients with learning rate `lr` and clears
    /// them.
    fn step(&mut self, lr: f32);

    /// Number of trainable parameters.
    fn num_params(&self) -> usize;
}

/// The standard linear router: `logits = x · W`, `W ∈ R^{C×E}`.
#[derive(Debug, Clone)]
pub struct LinearRouter {
    w: Param,
}

impl LinearRouter {
    /// Creates a router for `channels`-dim tokens over `experts`
    /// experts, with small random initialization.
    pub fn new(channels: usize, experts: usize, rng: &mut Rng) -> Self {
        let w = Param::new(rng.normal_tensor(&[channels, experts], 0.0, 0.02));
        LinearRouter { w }
    }

    /// The weight matrix (for tests / checkpointing).
    pub fn weights(&self) -> &Tensor {
        self.w.w()
    }

    /// Replaces the weight matrix (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the shape differs.
    pub fn set_weights(&mut self, w: Tensor) -> Result<(), TensorError> {
        self.w.set(w)
    }
}

impl Router for LinearRouter {
    fn num_experts(&self) -> usize {
        self.w.w().dims()[1]
    }

    fn logits(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        x.matmul(self.w.w())
    }

    /// `x · W` and the gate's row function in one launch
    /// ([`Tensor::matmul_softmax_top_k`]).
    // check:hot
    fn softmax_top_k(&self, x: &Tensor, k: usize) -> Result<(Tensor, TopK), TensorError> {
        check_k(k, self.num_experts())?;
        x.matmul_softmax_top_k(self.w.w(), k)
    }

    // check:hot
    fn backward(&mut self, x: &Tensor, d_logits: &Tensor) -> Result<Tensor, TensorError> {
        let (c, e) = (self.w.w().dims()[0], self.w.w().dims()[1]);
        if x.rank() != 2
            || d_logits.rank() != 2
            || x.dims()[0] != d_logits.dims()[0]
            || x.dims()[1] != c
            || d_logits.dims()[1] != e
        {
            return Err(TensorError::shape_mismatch(
                "linear_router_backward",
                x.dims(),
                d_logits.dims(),
            ));
        }
        // dW += xᵀ · d_logits, straight into the gradient buffer: the
        // one-group launch whose bin is the T reduction rows.
        grouped_gemm_tn(
            x.as_slice(),
            d_logits.as_slice(),
            self.w.g_mut(),
            &[0, x.dims()[0]],
            c,
            e,
        );
        d_logits.matmul_nt(self.w.w())
    }

    /// The unfused chain as one launch ([`linear_backward_panels`]):
    /// each 256-row panel job makes its rows of `d_logits` (the block
    /// form of [`gate_logits_grad`](crate::gate_logits_grad)), adds their
    /// `d_logits · Wᵀ` into `d_x` and sums its panel of `xᵀ · d_logits`,
    /// and the panels fold into `dW` in order. Every shape is checked
    /// before any gradient moves.
    // check:hot
    fn gate_backward(
        &mut self,
        x: &Tensor,
        probs: &Tensor,
        routing: &Routing,
        d_gates: &[f32],
        aux_weight: f32,
        d_x: &mut Tensor,
    ) -> Result<(), TensorError> {
        let aux = scaled_aux_row(probs, routing, d_gates, aux_weight)?;
        let (c, e) = (self.w.w().dims()[0], self.w.w().dims()[1]);
        let t = routing.num_tokens();
        if x.rank() != 2 || x.dims()[0] != t || x.dims()[1] != c || probs.dims()[1] != e {
            return Err(TensorError::shape_mismatch(
                "linear_router_backward",
                x.dims(),
                probs.dims(),
            ));
        }
        if d_x.dims() != [t, c] {
            return Err(TensorError::shape_mismatch("axpy", d_x.dims(), &[t, c]));
        }
        let ys = probs.as_slice();
        let (w, d_w) = self.w.w_and_g_mut();
        let rows =
            |t0: usize, out: &mut [f32]| logits_grad_rows(ys, routing, d_gates, &aux, t0, out);
        linear_backward_panels(
            x.as_slice(),
            w.as_slice(),
            (t, c, e),
            d_x.as_mut_slice(),
            d_w,
            rows,
        );
        Ok(())
    }

    fn step(&mut self, lr: f32) {
        self.w.step(lr);
    }

    fn num_params(&self) -> usize {
        self.w.len()
    }
}

/// The cosine router of Equation 2:
/// `P = softmax( (Wx · M) / (‖Wx‖ ‖M‖ τ) )` — this type produces the
/// pre-softmax logits `cos(Wx, m_e) / τ`.
///
/// `W ∈ R^{C×D}` projects tokens to dimension `D` (256 by default in
/// the paper); `M ∈ R^{E×D}` holds one embedding per expert; the
/// learnable temperature `τ` is clamped to at least 0.01.
#[derive(Debug, Clone)]
pub struct CosineRouter {
    w: Param,
    m: Param,
    tau: f32,
    dtau: f32,
}

impl CosineRouter {
    /// Minimum temperature, per the paper ("set lowest 0.01").
    pub const MIN_TAU: f32 = 0.01;

    /// Creates a cosine router projecting `channels` → `proj_dim` over
    /// `experts` experts, with `τ = 0.07` initial temperature.
    pub fn new(channels: usize, proj_dim: usize, experts: usize, rng: &mut Rng) -> Self {
        CosineRouter {
            w: Param::new(rng.normal_tensor(&[channels, proj_dim], 0.0, 0.02)),
            m: Param::new(rng.normal_tensor(&[experts, proj_dim], 0.0, 0.02)),
            tau: 0.07,
            dtau: 0.0,
        }
    }

    /// Current temperature.
    pub fn tau(&self) -> f32 {
        self.tau
    }

    /// The projection and expert-embedding matrices (checkpointing).
    pub fn weights(&self) -> (&Tensor, &Tensor) {
        (self.w.w(), self.m.w())
    }

    /// Restores the router's parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any shape differs.
    pub fn set_weights(&mut self, w: Tensor, m: Tensor, tau: f32) -> Result<(), TensorError> {
        // Both are checked before either is replaced.
        if w.dims() != self.w.w().dims() || m.dims() != self.m.w().dims() {
            return Err(TensorError::shape_mismatch(
                "set_weights",
                w.dims(),
                self.w.w().dims(),
            ));
        }
        self.w.set(w)?;
        self.m.set(m)?;
        self.tau = tau.max(Self::MIN_TAU);
        Ok(())
    }
}

impl Router for CosineRouter {
    fn num_experts(&self) -> usize {
        self.m.w().dims()[0]
    }

    fn logits(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let y = x.matmul(self.w.w())?; // (T, D)
        let (t, d) = (y.dims()[0], y.dims()[1]);
        let e = self.num_experts();
        let mut out = scratch::zeroed(&[t, e]);
        for ti in 0..t {
            let yv = &y.as_slice()[ti * d..(ti + 1) * d];
            let ynorm = yv.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            for ei in 0..e {
                let mv = &self.m.w().as_slice()[ei * d..(ei + 1) * d];
                let mnorm = mv.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
                let dot: f32 = yv.iter().zip(mv).map(|(a, b)| a * b).sum();
                out.set(&[ti, ei], dot / (ynorm * mnorm * self.tau));
            }
        }
        Ok(out)
    }

    fn backward(&mut self, x: &Tensor, d_logits: &Tensor) -> Result<Tensor, TensorError> {
        let y = x.matmul(self.w.w())?;
        let (t, d) = (y.dims()[0], y.dims()[1]);
        let e = self.num_experts();
        if d_logits.dims() != [t, e] {
            return Err(TensorError::shape_mismatch(
                "cosine_router_backward",
                d_logits.dims(),
                &[t, e],
            ));
        }
        let mut dy = Tensor::zeros(&[t, d]);
        let (m, dm) = self.m.w_and_g_mut();
        for ti in 0..t {
            let yv = &y.as_slice()[ti * d..(ti + 1) * d];
            let ynorm = yv.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
            for ei in 0..e {
                let g = d_logits.at(&[ti, ei]);
                if g == 0.0 {
                    continue;
                }
                let mv = &m.as_slice()[ei * d..(ei + 1) * d];
                let mnorm = mv.iter().map(|v| v * v).sum::<f32>().sqrt().max(1e-8);
                let dot: f32 = yv.iter().zip(mv).map(|(a, b)| a * b).sum();
                let cos = dot / (ynorm * mnorm);
                let scale = g / self.tau;
                // d cos / d y = m/(‖y‖‖m‖) − cos · y/‖y‖².
                for j in 0..d {
                    let dcos_dy = mv[j] / (ynorm * mnorm) - cos * yv[j] / (ynorm * ynorm);
                    dy.as_mut_slice()[ti * d + j] += scale * dcos_dy;
                    let dcos_dm = yv[j] / (ynorm * mnorm) - cos * mv[j] / (mnorm * mnorm);
                    dm[ei * d + j] += scale * dcos_dm;
                }
                // d logit / d τ = −cos / τ².
                self.dtau += -g * cos / (self.tau * self.tau);
            }
        }
        self.w.accumulate(&x.matmul_tn(&dy)?)?;
        dy.matmul_nt(self.w.w())
    }

    fn step(&mut self, lr: f32) {
        self.w.step(lr);
        self.m.step(lr);
        self.tau = (self.tau - lr * self.dtau).max(Self::MIN_TAU);
        self.dtau = 0.0;
    }

    fn num_params(&self) -> usize {
        self.w.len() + self.m.len() + 1
    }
}

/// A parameter-free hash router: token `t` deterministically maps to
/// expert `hash(t) mod E` with full confidence. A non-learned baseline
/// in the spirit of Hash Layers.
#[derive(Debug, Clone)]
pub struct HashRouter {
    experts: usize,
}

impl HashRouter {
    /// Creates a hash router over `experts` experts.
    ///
    /// # Panics
    ///
    /// Panics if `experts == 0`.
    pub fn new(experts: usize) -> Self {
        assert!(experts > 0, "hash router needs at least one expert");
        HashRouter { experts }
    }
}

impl Router for HashRouter {
    fn num_experts(&self) -> usize {
        self.experts
    }

    fn logits(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let t = x.dims()[0];
        let mut out = scratch::zeroed(&[t, self.experts]);
        out.as_mut_slice().fill(-10.0);
        for ti in 0..t {
            // Hash the token's position (stable across feature noise).
            let h = (ti as u64).wrapping_mul(0x9e3779b97f4a7c15) >> 33;
            out.set(&[ti, (h as usize) % self.experts], 10.0);
        }
        Ok(out)
    }

    fn backward(&mut self, x: &Tensor, d_logits: &Tensor) -> Result<Tensor, TensorError> {
        let _ = d_logits;
        Ok(Tensor::zeros(x.dims()))
    }

    fn step(&mut self, _lr: f32) {}

    fn num_params(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_router_shapes() {
        let mut rng = Rng::seed(1);
        let r = LinearRouter::new(16, 4, &mut rng);
        let x = rng.normal_tensor(&[8, 16], 0.0, 1.0);
        let l = r.logits(&x).unwrap();
        assert_eq!(l.dims(), &[8, 4]);
        assert_eq!(r.num_experts(), 4);
    }

    #[test]
    fn linear_router_gradient_matches_finite_difference() {
        let mut rng = Rng::seed(2);
        let mut r = LinearRouter::new(3, 2, &mut rng);
        let x = rng.normal_tensor(&[4, 3], 0.0, 1.0);
        let up = rng.normal_tensor(&[4, 2], 0.0, 1.0);
        let dx = r.backward(&x, &up).unwrap();
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = r.logits(&xp).unwrap().mul(&up).unwrap().sum();
            let lm = r.logits(&xm).unwrap().mul(&up).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "i={i} fd={fd} got={}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn linear_router_step_descends() {
        let mut rng = Rng::seed(3);
        let mut r = LinearRouter::new(3, 2, &mut rng);
        let x = rng.normal_tensor(&[4, 3], 0.0, 1.0);
        let up = Tensor::ones(&[4, 2]);
        let before = r.logits(&x).unwrap().sum();
        r.backward(&x, &up).unwrap();
        r.step(0.1);
        let after = r.logits(&x).unwrap().sum();
        assert!(
            after < before,
            "loss ∑logits must decrease: {before} → {after}"
        );
    }

    #[test]
    fn cosine_logits_are_bounded_by_inverse_tau() {
        let mut rng = Rng::seed(4);
        let r = CosineRouter::new(8, 4, 6, &mut rng);
        let x = rng.normal_tensor(&[10, 8], 0.0, 1.0);
        let l = r.logits(&x).unwrap();
        let bound = 1.0 / r.tau() + 1e-3;
        assert!(l.max_abs() <= bound, "max {} bound {bound}", l.max_abs());
    }

    #[test]
    fn cosine_logits_are_scale_invariant_in_input_amplitude() {
        // The paper's motivation: normalization stabilizes routing when
        // the input amplitude scales.
        let mut rng = Rng::seed(5);
        let r = CosineRouter::new(8, 4, 6, &mut rng);
        let x = rng.normal_tensor(&[5, 8], 0.0, 1.0);
        let l1 = r.logits(&x).unwrap();
        let l2 = r.logits(&x.scale(100.0)).unwrap();
        let diff = l1.sub(&l2).unwrap().max_abs();
        assert!(diff < 1e-3, "diff {diff}");
    }

    #[test]
    fn cosine_gradient_matches_finite_difference() {
        let mut rng = Rng::seed(6);
        let mut r = CosineRouter::new(4, 3, 2, &mut rng);
        let x = rng.normal_tensor(&[3, 4], 0.0, 1.0);
        let up = rng.normal_tensor(&[3, 2], 0.0, 1.0);
        let dx = r.backward(&x, &up).unwrap();
        let eps = 1e-3;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = r.logits(&xp).unwrap().mul(&up).unwrap().sum();
            let lm = r.logits(&xm).unwrap().mul(&up).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 2e-2,
                "i={i} fd={fd} got={}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn cosine_tau_never_drops_below_minimum() {
        let mut rng = Rng::seed(7);
        let mut r = CosineRouter::new(4, 3, 2, &mut rng);
        let x = rng.normal_tensor(&[3, 4], 0.0, 1.0);
        let up = Tensor::ones(&[3, 2]);
        for _ in 0..50 {
            r.backward(&x, &up).unwrap();
            r.step(1.0);
        }
        assert!(r.tau() >= CosineRouter::MIN_TAU);
    }

    /// The unfused chain the panel launch replaces, kept as its oracle:
    /// `gate_logits_grad` → `backward` → `d_x += `.
    fn unfused_gate_backward(
        router: &mut dyn Router,
        x: &Tensor,
        probs: &Tensor,
        routing: &Routing,
        d_gates: &[f32],
        aux_weight: f32,
        d_x: &mut Tensor,
    ) -> Result<(), TensorError> {
        let d_logits = gate_logits_grad(probs, routing, d_gates, aux_weight)?;
        let d_x_router = router.backward(x, &d_logits)?;
        d_x.axpy(1.0, &d_x_router)
    }

    fn bits(t: &[f32]) -> Vec<u32> {
        t.iter().map(|v| v.to_bits()).collect()
    }

    /// `LinearRouter::gate_backward`'s panel launch equals the unfused
    /// chain bit for bit — `d_x` and the weight gradient, accumulated
    /// over a nonzero start — in every kernel table, for T ∈ {0, 1, 255,
    /// 256, 257, 513, 8192} (either side of one and two 256-row panels),
    /// E ∈ {1, 2, 8, 17, 64} with k up to E, normalized and unnormalized
    /// gates, `aux_weight` 0 and 0.01, and dropless and clamped
    /// routings (the clamped ones drop assignments). The default path
    /// (Cosine, Hash) is that chain itself.
    #[test]
    fn fused_gate_backward_equals_the_unfused_chain_bit_for_bit() {
        use crate::{route, CapacityPolicy, RouteConfig};
        use tutel_tensor::dispatch::{kernel_modes, with_kernel_mode};
        let c = 8;
        let mut rng = Rng::seed(55);
        let mut clamped_drops = 0;
        for e in [1usize, 2, 8, 17, 64] {
            for t in [0usize, 1, 255, 256, 257, 513, 8192] {
                let x = rng.normal_tensor(&[t, c], 0.0, 1.0);
                let d_x0 = rng.normal_tensor(&[t, c], 0.0, 1.0);
                let probs = rng.normal_tensor(&[t, e], 0.0, 2.0).softmax_last();
                let mut router = LinearRouter::new(c, e, &mut rng);
                router
                    .w
                    .accumulate(&rng.normal_tensor(&[c, e], 0.0, 1.0))
                    .unwrap();
                let ks: Vec<usize> = if t > 513 {
                    vec![1, 2.min(e), e]
                } else {
                    (1..=e.min(3)).chain([e]).collect()
                };
                for (i, k) in ks.into_iter().enumerate() {
                    let normalize_gates = i % 2 == 0;
                    let capacity = [CapacityPolicy::AutoMin, CapacityPolicy::Fixed(1.0)][i % 2];
                    let cfg = RouteConfig {
                        k,
                        capacity,
                        bpr: i % 3 == 0,
                        normalize_gates,
                    };
                    let routing = route(&probs, &cfg).unwrap();
                    clamped_drops += routing.dropped();
                    let d_gates = rng.normal_tensor(&[t * k], 0.0, 1.0);
                    for aux_weight in [0.0, 0.01] {
                        for mode in kernel_modes() {
                            let run = |fused: bool| {
                                with_kernel_mode(mode, || {
                                    let (mut r, mut d_x) = (router.clone(), d_x0.clone());
                                    let args =
                                        (&x, &probs, &routing, d_gates.as_slice(), aux_weight);
                                    if fused {
                                        r.gate_backward(
                                            args.0, args.1, args.2, args.3, args.4, &mut d_x,
                                        )
                                    } else {
                                        unfused_gate_backward(
                                            &mut r, args.0, args.1, args.2, args.3, args.4,
                                            &mut d_x,
                                        )
                                    }
                                    .unwrap();
                                    (bits(d_x.as_slice()), bits(r.w.g().as_slice()))
                                })
                            };
                            let at = format!("{mode:?} T {t} E {e} k {k} {cfg:?} aux {aux_weight}");
                            let (fused, unfused) = (run(true), run(false));
                            assert!(fused.0 == unfused.0, "{at}: d_x");
                            assert!(fused.1 == unfused.1, "{at}: dW");
                        }
                    }
                }
            }
        }
        assert!(
            clamped_drops > 0,
            "no clamped routing dropped an assignment"
        );
    }

    /// The panel launch's bits do not depend on the worker count, and a
    /// shape that does not match fails as the unfused chain fails,
    /// before any gradient moves.
    #[test]
    fn fused_gate_backward_is_worker_count_free_and_checks_shapes_first() {
        use crate::{route, RouteConfig};
        let mut rng = Rng::seed(56);
        let (t, c, e) = (1000, 6, 9);
        let x = rng.normal_tensor(&[t, c], 0.0, 1.0);
        let probs = rng.normal_tensor(&[t, e], 0.0, 1.0).softmax_last();
        let routing = route(&probs, &RouteConfig::top2().with_capacity_factor(0.0)).unwrap();
        let d_gates = rng.normal_tensor(&[t * 2], 0.0, 1.0);
        let router = LinearRouter::new(c, e, &mut rng);
        let run = |limit| {
            tutel_rt::with_parallelism_limit(limit, || {
                let (mut r, mut d_x) = (router.clone(), Tensor::ones(&[t, c]));
                r.gate_backward(&x, &probs, &routing, d_gates.as_slice(), 0.01, &mut d_x)
                    .unwrap();
                (bits(d_x.as_slice()), bits(r.w.g().as_slice()))
            })
        };
        let one = run(1);
        for limit in [2, 4] {
            assert!(run(limit) == one, "limit {limit}");
        }
        let bad_inputs = [
            (x.clone(), Tensor::ones(&[t, c + 1]), d_gates.as_slice()),
            (
                Tensor::ones(&[t, c + 1]),
                Tensor::ones(&[t, c]),
                d_gates.as_slice(),
            ),
            (x.clone(), Tensor::ones(&[t, c]), &d_gates.as_slice()[1..]),
        ];
        for (x, mut d_x, d_gates) in bad_inputs {
            let (mut fused, mut unfused) = (router.clone(), router.clone());
            let mut d_x2 = d_x.clone();
            let a = fused.gate_backward(&x, &probs, &routing, d_gates, 0.0, &mut d_x);
            let b =
                unfused_gate_backward(&mut unfused, &x, &probs, &routing, d_gates, 0.0, &mut d_x2);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(a.is_err());
            assert_eq!(
                fused.w.g().max_abs(),
                0.0,
                "a gradient moved before the error"
            );
        }
    }

    #[test]
    fn hash_router_is_deterministic_and_parameterless() {
        let mut r = HashRouter::new(4);
        let x = Tensor::zeros(&[6, 8]);
        let l1 = r.logits(&x).unwrap();
        let l2 = r.logits(&x).unwrap();
        assert_eq!(l1, l2);
        let dx = r.backward(&x, &Tensor::ones(&[6, 4])).unwrap();
        assert_eq!(dx.max_abs(), 0.0);
    }
}
