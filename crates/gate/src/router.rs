//! Routers: the trainable functions producing token→expert logits.
//!
//! Every trainable matrix is a [`Param`] (weights + same-shaped
//! gradient), so a router's `step` is one [`Param::step`] per matrix
//! and its parameter count is the sum of their lengths.

use tutel_tensor::{grouped_gemm_tn, scratch, Param, Rng, Tensor, TensorError, TopK};

use crate::routing::check_k;

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
