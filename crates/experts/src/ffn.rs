//! The expert feed-forward network (`fflayer`).

use tutel_obs::Telemetry;
use tutel_tensor::{
    gelu_backward_with_tanh, gelu_slice_with_tanh, grouped_gemm, grouped_gemm_nt, grouped_gemm_tn,
    quantize_in_place, scratch, uniform_offsets, Precision, Rng, Tensor, TensorError,
};

/// A batch of `ΔE` expert FFNs: for each local expert `e`,
/// `y = gelu(x · W1_e + b1_e) · W2_e + b2_e` with `W1 (M, V)`,
/// `W2 (V, M)`.
///
/// Compute runs over **packed rows partitioned by CSR `offsets`**:
/// expert `e` owns rows `offsets[e]..offsets[e+1]`, one grouped-GEMM
/// launch per layer. That is the only implementation; the two input
/// layouts are entry points into it:
///
/// | call | input | offsets |
/// |---|---|---|
/// | [`forward_grouped`](Self::forward_grouped) / [`infer_grouped`](Self::infer_grouped) | packed `(R, M)` | the caller's ragged bins |
/// | [`forward`](Self::forward) / [`infer`](Self::infer) | padded `(ΔE, C, M)` | synthesized `[0, C, 2C, …]` |
///
/// A row's bits depend only on the row and its expert's weights —
/// never on how many rows share its bin — so the same row computes
/// identically through either entry point. Outputs and input
/// gradients take the shape of the input they answer.
///
/// Forward caches the activations needed by [`ExpertsBlock::backward`];
/// gradients accumulate across calls until [`ExpertsBlock::step`].
///
/// # Example
///
/// ```
/// use tutel_experts::ExpertsBlock;
/// use tutel_tensor::{Rng, Tensor};
///
/// let mut rng = Rng::seed(0);
/// let mut experts = ExpertsBlock::new(2, 8, 16, &mut rng);
/// let x = rng.normal_tensor(&[2, 4, 8], 0.0, 1.0); // (ΔE, C, M)
/// let y = experts.forward(&x)?;
/// assert_eq!(y.dims(), &[2, 4, 8]);
/// # Ok::<(), tutel_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ExpertsBlock {
    local_experts: usize,
    model_dim: usize,
    hidden_dim: usize,
    /// `(ΔE, M, V)`.
    w1: Tensor,
    /// `(ΔE, V)`.
    b1: Tensor,
    /// `(ΔE, V, M)`.
    w2: Tensor,
    /// `(ΔE, M)`.
    b2: Tensor,
    dw1: Tensor,
    db1: Tensor,
    dw2: Tensor,
    db2: Tensor,
    /// Saved activations from the last forward: the input `x` (in the
    /// caller's shape), the pre-activation `h_pre`, the GELU output
    /// `h`, the `tanh` intermediate — so backward never re-evaluates
    /// `tanh` — and the bin offsets the rows were computed under.
    saved: Option<(Tensor, Tensor, Tensor, Tensor, Vec<usize>)>,
    /// Weight *storage* format. Under [`Precision::Bf16`] the weights
    /// are kept rounded to the bf16-representable set at every rest
    /// point (construction, checkpoint restore, after each optimizer
    /// step) so they can cross the wire as 2-byte values losslessly;
    /// all arithmetic — GEMMs, gradients, the SGD update — still
    /// accumulates in `f32`.
    storage: Precision,
    /// Telemetry sink; disabled by default.
    obs: Telemetry,
}

impl ExpertsBlock {
    /// Creates `local_experts` experts of dims `model_dim → hidden_dim →
    /// model_dim` with Kaiming initialization.
    pub fn new(local_experts: usize, model_dim: usize, hidden_dim: usize, rng: &mut Rng) -> Self {
        let std1 = (2.0 / model_dim as f32).sqrt();
        let std2 = (2.0 / hidden_dim as f32).sqrt();
        ExpertsBlock {
            local_experts,
            model_dim,
            hidden_dim,
            w1: rng.normal_tensor(&[local_experts, model_dim, hidden_dim], 0.0, std1),
            b1: Tensor::zeros(&[local_experts, hidden_dim]),
            w2: rng.normal_tensor(&[local_experts, hidden_dim, model_dim], 0.0, std2),
            b2: Tensor::zeros(&[local_experts, model_dim]),
            dw1: Tensor::zeros(&[local_experts, model_dim, hidden_dim]),
            db1: Tensor::zeros(&[local_experts, hidden_dim]),
            dw2: Tensor::zeros(&[local_experts, hidden_dim, model_dim]),
            db2: Tensor::zeros(&[local_experts, model_dim]),
            saved: None,
            storage: Precision::F32,
            obs: Telemetry::disabled(),
        }
    }

    /// Switches the weight storage format, immediately rounding the
    /// current weights to it. `f32` accumulation is unaffected; only
    /// where the parameters *live* (and how many bytes they cost to
    /// move) changes.
    pub fn with_storage_precision(mut self, precision: Precision) -> Self {
        self.storage = precision;
        self.round_weights_to_storage();
        self
    }

    /// The weight storage format.
    pub fn storage_precision(&self) -> Precision {
        self.storage
    }

    /// Bytes the parameters occupy in storage (and on the wire for
    /// parameter collectives) — half the `f32` figure under bf16.
    pub fn weight_bytes(&self) -> u64 {
        (self.num_params() * self.storage.storage_bytes()) as u64
    }

    /// Re-rounds all four parameter tensors to the storage format
    /// (no-op for `f32`). Called at every rest point so the invariant
    /// "stored weights are representable in `storage`" always holds.
    fn round_weights_to_storage(&mut self) {
        if self.storage == Precision::F32 {
            return;
        }
        quantize_in_place(self.w1.as_mut_slice(), self.storage);
        quantize_in_place(self.b1.as_mut_slice(), self.storage);
        quantize_in_place(self.w2.as_mut_slice(), self.storage);
        quantize_in_place(self.b2.as_mut_slice(), self.storage);
    }

    /// Routes this block's spans and FLOP counters into `tel`.
    pub fn set_telemetry(&mut self, tel: Telemetry) {
        self.obs = tel;
    }

    /// Builds a block from explicit weights (used by the sharded
    /// parameter store).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any weight has inconsistent shape.
    pub fn from_weights(
        w1: Tensor,
        b1: Tensor,
        w2: Tensor,
        b2: Tensor,
    ) -> Result<Self, TensorError> {
        if w1.rank() != 3 || w2.rank() != 3 {
            return Err(TensorError::RankMismatch {
                expected: 3,
                actual: w1.rank().min(w2.rank()),
                op: "experts_from_weights",
            });
        }
        let (de, m, v) = (w1.dims()[0], w1.dims()[1], w1.dims()[2]);
        if w2.dims() != [de, v, m] || b1.dims() != [de, v] || b2.dims() != [de, m] {
            return Err(TensorError::ShapeMismatch {
                left: w1.dims().to_vec(),
                right: w2.dims().to_vec(),
                op: "experts_from_weights",
            });
        }
        Ok(ExpertsBlock {
            local_experts: de,
            model_dim: m,
            hidden_dim: v,
            dw1: Tensor::zeros(w1.dims()),
            db1: Tensor::zeros(b1.dims()),
            dw2: Tensor::zeros(w2.dims()),
            db2: Tensor::zeros(b2.dims()),
            w1,
            b1,
            w2,
            b2,
            saved: None,
            storage: Precision::F32,
            obs: Telemetry::disabled(),
        })
    }

    /// Rank `rank`'s share of this expert bank split evenly over
    /// `world` ranks along the expert axis: a fresh block (zero
    /// gradients, nothing cached) over experts
    /// `rank·ΔE/world..(rank+1)·ΔE/world`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `world` does not divide the expert
    /// count or `rank >= world`.
    pub fn rank_slice(&self, world: usize, rank: usize) -> Result<Self, TensorError> {
        if world == 0 || !self.local_experts.is_multiple_of(world) || rank >= world {
            return Err(TensorError::InvalidArgument(format!(
                "no slice {rank} of {} experts over {world} ranks",
                self.local_experts
            )));
        }
        // Experts are the leading axis, so a rank's share of each
        // parameter is one contiguous slab.
        let slice = |t: &Tensor| -> Result<Tensor, TensorError> {
            let mut dims = t.dims().to_vec();
            dims[0] /= world;
            let len = t.len() / world;
            Tensor::from_vec(t.as_slice()[rank * len..(rank + 1) * len].to_vec(), &dims)
        };
        let mut local = ExpertsBlock::from_weights(
            slice(&self.w1)?,
            slice(&self.b1)?,
            slice(&self.w2)?,
            slice(&self.b2)?,
        )?;
        local.storage = self.storage;
        Ok(local)
    }

    /// Number of local experts (`ΔE`).
    pub fn local_experts(&self) -> usize {
        self.local_experts
    }

    /// Model (channel) dimension `M`.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Hidden dimension `V`.
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Read access to `(W1, b1, W2, b2)`.
    pub fn weights(&self) -> (&Tensor, &Tensor, &Tensor, &Tensor) {
        (&self.w1, &self.b1, &self.w2, &self.b2)
    }

    /// Total parameter count.
    pub fn num_params(&self) -> usize {
        self.w1.len() + self.b1.len() + self.w2.len() + self.b2.len()
    }

    /// Replaces all weights (checkpoint restore).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if any shape differs.
    pub fn set_weights(
        &mut self,
        w1: Tensor,
        b1: Tensor,
        w2: Tensor,
        b2: Tensor,
    ) -> Result<(), TensorError> {
        if w1.dims() != self.w1.dims()
            || b1.dims() != self.b1.dims()
            || w2.dims() != self.w2.dims()
            || b2.dims() != self.b2.dims()
        {
            return Err(TensorError::ShapeMismatch {
                left: w1.dims().to_vec(),
                right: self.w1.dims().to_vec(),
                op: "set_weights",
            });
        }
        self.w1 = w1;
        self.b1 = b1;
        self.w2 = w2;
        self.b2 = b2;
        self.round_weights_to_storage();
        self.saved = None;
        Ok(())
    }

    /// Forward pass over padded `x (ΔE, C, M)`, producing `(ΔE, C, M)`
    /// and caching activations for backward.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` has the wrong shape.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, TensorError> {
        let offsets = self.uniform_bins(x)?;
        self.forward_rows(x, &offsets)
    }

    /// Forward without caching (inference) over padded `x (ΔE, C, M)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` has the wrong shape.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let offsets = self.uniform_bins(x)?;
        self.infer_rows(x, &offsets)
    }

    /// Grouped (dropless) forward over packed ragged bins: `x (R, M)`
    /// where expert `e` owns rows `offsets[e]..offsets[e+1]`; no zero
    /// rows are computed. Produces `(R, M)` and caches activations for
    /// backward.
    ///
    /// Arithmetic accumulates in f32 regardless of the weight storage
    /// format — bf16 storage composes.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` or `offsets` is inconsistent.
    pub fn forward_grouped(
        &mut self,
        x: &Tensor,
        offsets: &[usize],
    ) -> Result<Tensor, TensorError> {
        self.check_grouped(x, offsets)?;
        self.forward_rows(x, offsets)
    }

    /// Grouped forward without caching (inference).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` or `offsets` is inconsistent.
    pub fn infer_grouped(&self, x: &Tensor, offsets: &[usize]) -> Result<Tensor, TensorError> {
        self.check_grouped(x, offsets)?;
        self.infer_rows(x, offsets)
    }

    /// Backward of a grouped forward; [`ExpertsBlock::backward`] under
    /// the name the grouped entry points pair with.
    ///
    /// # Errors
    ///
    /// As [`ExpertsBlock::backward`].
    pub fn backward_grouped(&mut self, d_y: &Tensor) -> Result<Tensor, TensorError> {
        self.backward(d_y)
    }

    /// The training forward body: `x` is validated rows of `M` (either
    /// layout) partitioned by `offsets`; the result takes `x`'s shape.
    fn forward_rows(&mut self, x: &Tensor, offsets: &[usize]) -> Result<Tensor, TensorError> {
        let _span = self.ffn_span("ffn", offsets);
        let h_pre = self.layer(x.as_slice(), &self.w1, &self.b1, offsets);
        // Keep the GELU output and its tanh intermediate for backward:
        // re-evaluating tanh there would dominate the backward pass.
        let mut h = scratch::zeroed(h_pre.dims());
        let mut tanh = scratch::zeroed(h_pre.dims());
        gelu_slice_with_tanh(h_pre.as_slice(), h.as_mut_slice(), tanh.as_mut_slice());
        let mut y = self.layer(h.as_slice(), &self.w2, &self.b2, offsets);
        y.reshape_in_place(x.dims())?;
        self.saved = Some((scratch::copy_of(x), h_pre, h, tanh, offsets.to_vec()));
        Ok(y)
    }

    /// The inference body: [`Self::forward_rows`] without the cache.
    // check:hot
    fn infer_rows(&self, x: &Tensor, offsets: &[usize]) -> Result<Tensor, TensorError> {
        let _span = self.ffn_span("ffn", offsets);
        let mut h = self.layer(x.as_slice(), &self.w1, &self.b1, offsets);
        h.gelu_in_place();
        let mut y = self.layer(h.as_slice(), &self.w2, &self.b2, offsets);
        y.reshape_in_place(x.dims())?;
        scratch::recycle(h);
        Ok(y)
    }

    /// One linear layer over packed rows: bin `e`'s rows times
    /// `w[e] (K, N)` plus `b[e]`, as a single grouped-GEMM launch.
    /// Returns `(R, N)`.
    fn layer(&self, rows: &[f32], w: &Tensor, b: &Tensor, offsets: &[usize]) -> Tensor {
        let (k, n) = (w.dims()[1], w.dims()[2]);
        let mut out = scratch::zeroed(&[offsets[self.local_experts], n]);
        grouped_gemm(rows, w.as_slice(), out.as_mut_slice(), offsets, k, n);
        add_bias(out.as_mut_slice(), b, offsets);
        out
    }

    /// Backward pass: consumes the cached activations, accumulates
    /// parameter gradients (grouped TN launches straight into the
    /// gradient slabs) and returns `d_x` in the shape of the forward's
    /// input — `(ΔE, C, M)` after [`ExpertsBlock::forward`], `(R, M)`
    /// after [`ExpertsBlock::forward_grouped`].
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if no forward is cached or `d_y` does
    /// not have the forward input's shape.
    // check:hot
    pub fn backward(&mut self, d_y: &Tensor) -> Result<Tensor, TensorError> {
        let (x, h_pre, h, tanh, offsets) = self
            .saved
            .take()
            .ok_or_else(|| TensorError::InvalidArgument("backward without forward".into()))?;
        let _span = self.ffn_span("ffn.backward", &offsets);
        if d_y.dims() != x.dims() {
            return Err(TensorError::shape_mismatch(
                "experts_backward",
                d_y.dims(),
                x.dims(),
            ));
        }
        let (m, v) = (self.model_dim, self.hidden_dim);
        let dys = d_y.as_slice();
        // dW2 += hᵀ · dY and db2 += Σ rows dY, bin by bin.
        grouped_gemm_tn(h.as_slice(), dys, self.dw2.as_mut_slice(), &offsets, v, m);
        accumulate_bias(&mut self.db2, dys, &offsets);
        // dW2 was the GELU output's last reader, so its buffer becomes
        // the hidden-gradient slab: dh = dY · W2ᵀ, then through GELU in
        // place (elementwise — bins don't interact).
        let mut dh = h.into_vec();
        dh.fill(0.0);
        grouped_gemm_nt(dys, self.w2.as_slice(), &mut dh, &offsets, m, v);
        gelu_backward_with_tanh(h_pre.as_slice(), tanh.as_slice(), &mut dh);
        // dW1 += xᵀ · dh_pre; db1 += Σ rows dh_pre; dx = dh_pre · W1ᵀ.
        grouped_gemm_tn(x.as_slice(), &dh, self.dw1.as_mut_slice(), &offsets, m, v);
        accumulate_bias(&mut self.db1, &dh, &offsets);
        let mut dx = scratch::zeroed(x.dims());
        grouped_gemm_nt(&dh, self.w1.as_slice(), dx.as_mut_slice(), &offsets, v, m);
        tutel_rt::arena().put(dh);
        scratch::recycle(x);
        scratch::recycle(h_pre);
        scratch::recycle(tanh);
        Ok(dx)
    }

    /// Opens a span over an FFN pass and counts its FLOPs: two GEMMs
    /// over every row of every bin, `4·R·M·V` multiply-adds — with
    /// exact bins that is the routed rows only, with uniform bins
    /// `4·ΔE·C·M·V`, so the counter shows the padding an exact-bin
    /// caller avoids.
    fn ffn_span(&self, name: &str, offsets: &[usize]) -> tutel_obs::Span {
        if !self.obs.is_enabled() {
            return self.obs.span(name);
        }
        let rows = offsets[self.local_experts];
        let flops = 4 * rows * self.model_dim * self.hidden_dim;
        self.obs.add_counter("experts.flops", flops as u64);
        self.obs
            .span(name)
            .tag("local_experts", self.local_experts)
            .tag("rows", rows)
            .tag("flops", flops)
    }

    /// Validates a packed `(R, M)` input against caller-supplied bins.
    fn check_grouped(&self, x: &Tensor, offsets: &[usize]) -> Result<(), TensorError> {
        if offsets.len() != self.local_experts + 1
            || offsets[0] != 0
            || offsets.windows(2).any(|w| w[0] > w[1])
        {
            return Err(TensorError::InvalidArgument(format!(
                "grouped offsets must be a monotone prefix sum with {} bins",
                self.local_experts
            )));
        }
        let total = offsets[self.local_experts];
        if x.rank() != 2 || x.dims()[0] != total || x.dims()[1] != self.model_dim {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![total, self.model_dim],
                op: "experts_forward_grouped",
            });
        }
        Ok(())
    }

    /// Validates a padded `(ΔE, C, M)` input and synthesizes its bins:
    /// `[0, C, 2C, …]`.
    fn uniform_bins(&self, x: &Tensor) -> Result<Vec<usize>, TensorError> {
        if x.rank() != 3 || x.dims()[0] != self.local_experts || x.dims()[2] != self.model_dim {
            return Err(TensorError::ShapeMismatch {
                left: x.dims().to_vec(),
                right: vec![self.local_experts, 0, self.model_dim],
                op: "experts_forward",
            });
        }
        Ok(uniform_offsets(self.local_experts, x.dims()[1]))
    }

    /// Maximum per-tensor gradient norm applied by [`ExpertsBlock::step`].
    pub const GRAD_CLIP: f32 = 1.0;

    /// Applies accumulated gradients (SGD with per-tensor norm
    /// clipping) and clears them.
    pub fn step(&mut self, lr: f32) {
        self.dw1.clip_norm(Self::GRAD_CLIP);
        self.db1.clip_norm(Self::GRAD_CLIP);
        self.dw2.clip_norm(Self::GRAD_CLIP);
        self.db2.clip_norm(Self::GRAD_CLIP);
        // check:allow(no_panic, gradients are allocated with the weights' dims at construction)
        self.w1.axpy(-lr, &self.dw1).expect("shape");
        // check:allow(no_panic, gradients are allocated with the weights' dims at construction)
        self.b1.axpy(-lr, &self.db1).expect("shape");
        // check:allow(no_panic, gradients are allocated with the weights' dims at construction)
        self.w2.axpy(-lr, &self.dw2).expect("shape");
        // check:allow(no_panic, gradients are allocated with the weights' dims at construction)
        self.b2.axpy(-lr, &self.db2).expect("shape");
        // The update itself ran in f32; park the result back on the
        // storage grid (no-op for f32 storage).
        self.round_weights_to_storage();
        self.zero_grad();
    }

    /// Clears accumulated gradients in place (no reallocation — this
    /// runs every optimizer step).
    pub fn zero_grad(&mut self) {
        self.dw1.as_mut_slice().fill(0.0);
        self.db1.as_mut_slice().fill(0.0);
        self.dw2.as_mut_slice().fill(0.0);
        self.db2.as_mut_slice().fill(0.0);
    }
}

/// Adds `bias (ΔE, cols)` to packed rows: expert `e`'s bias row lands
/// on rows `offsets[e]..offsets[e+1]` of `t (R, cols)`.
fn add_bias(t: &mut [f32], bias: &Tensor, offsets: &[usize]) {
    let cols = bias.dims()[1];
    for e in 0..bias.dims()[0] {
        let b = &bias.as_slice()[e * cols..(e + 1) * cols];
        for r in offsets[e]..offsets[e + 1] {
            for (o, bv) in t[r * cols..(r + 1) * cols].iter_mut().zip(b) {
                *o += bv;
            }
        }
    }
}

/// `db (ΔE, cols)[e] += Σ` of bin `e`'s rows of `d (R, cols)`, rows in
/// packed order.
fn accumulate_bias(db: &mut Tensor, d: &[f32], offsets: &[usize]) {
    let cols = db.dims()[1];
    for e in 0..db.dims()[0] {
        let acc = &mut db.as_mut_slice()[e * cols..(e + 1) * cols];
        for r in offsets[e]..offsets[e + 1] {
            for (o, v) in acc.iter_mut().zip(&d[r * cols..(r + 1) * cols]) {
                *o += v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_determinism() {
        let mut rng = Rng::seed(1);
        let mut ex = ExpertsBlock::new(3, 4, 8, &mut rng);
        let x = rng.normal_tensor(&[3, 5, 4], 0.0, 1.0);
        let y1 = ex.forward(&x).unwrap();
        let y2 = ex.infer(&x).unwrap();
        assert_eq!(y1, y2);
        assert_eq!(y1.dims(), &[3, 5, 4]);
    }

    #[test]
    fn experts_are_independent() {
        // Zeroing expert 1's input must not change expert 0's output.
        let mut rng = Rng::seed(2);
        let ex = ExpertsBlock::new(2, 4, 6, &mut rng);
        let x = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
        let y = ex.infer(&x).unwrap();
        let mut x2 = x.clone();
        for v in &mut x2.as_mut_slice()[12..] {
            *v = 0.0;
        }
        let y2 = ex.infer(&x2).unwrap();
        assert_eq!(&y.as_slice()[..12], &y2.as_slice()[..12]);
        assert_ne!(&y.as_slice()[12..], &y2.as_slice()[12..]);
    }

    #[test]
    fn backward_input_grad_matches_finite_difference() {
        let mut rng = Rng::seed(3);
        let mut ex = ExpertsBlock::new(2, 3, 4, &mut rng);
        let x = rng.normal_tensor(&[2, 2, 3], 0.0, 1.0);
        let up = rng.normal_tensor(&[2, 2, 3], 0.0, 1.0);
        ex.forward(&x).unwrap();
        let dx = ex.backward(&up).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = ex.infer(&xp).unwrap().mul(&up).unwrap().sum();
            let lm = ex.infer(&xm).unwrap().mul(&up).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 3e-2,
                "i={i} fd={fd} got={}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn weight_gradients_descend_a_loss() {
        let mut rng = Rng::seed(4);
        let mut ex = ExpertsBlock::new(2, 4, 8, &mut rng);
        let x = rng.normal_tensor(&[2, 6, 4], 0.0, 1.0);
        let target = rng.normal_tensor(&[2, 6, 4], 0.0, 1.0);
        let mut initial = None;
        for _ in 0..50 {
            let y = ex.forward(&x).unwrap();
            let diff = y.sub(&target).unwrap();
            let loss = 0.5 * diff.sq_norm();
            assert!(loss.is_finite());
            initial.get_or_insert(loss);
            ex.backward(&diff).unwrap();
            ex.step(0.01);
        }
        let y = ex.infer(&x).unwrap();
        let final_loss = 0.5 * y.sub(&target).unwrap().sq_norm();
        let initial = initial.unwrap();
        assert!(
            final_loss < 0.6 * initial,
            "loss {initial} → {final_loss} did not descend"
        );
    }

    /// Packs a padded `(ΔE, C, M)` input into `(R, M)` with the given
    /// per-expert row counts (rows beyond a bin's count are unused).
    fn pack(x: &Tensor, counts: &[usize]) -> (Tensor, Vec<usize>) {
        let (c, m) = (x.dims()[1], x.dims()[2]);
        let mut offsets = vec![0usize];
        for &cnt in counts {
            offsets.push(offsets.last().unwrap() + cnt);
        }
        let total = *offsets.last().unwrap();
        let mut packed = vec![0.0f32; total * m];
        for (e, &cnt) in counts.iter().enumerate() {
            packed[offsets[e] * m..offsets[e + 1] * m]
                .copy_from_slice(&x.as_slice()[e * c * m..e * c * m + cnt * m]);
        }
        (Tensor::from_vec(packed, &[total, m]).unwrap(), offsets)
    }

    #[test]
    fn grouped_forward_rows_bitwise_equal_padded_rows() {
        let mut rng = Rng::seed(11);
        let mut ex = ExpertsBlock::new(3, 4, 8, &mut rng);
        let x = rng.normal_tensor(&[3, 7, 4], 0.0, 1.0);
        // Ragged bins: 2, 7, 0 of the 7 capacity rows.
        let counts = [2usize, 7, 0];
        let (packed, offsets) = pack(&x, &counts);
        let grouped = ex.forward_grouped(&packed, &offsets).unwrap();
        let padded = ex.forward(&x).unwrap();
        let m = 4;
        for (e, &cnt) in counts.iter().enumerate() {
            assert_eq!(
                &grouped.as_slice()[offsets[e] * m..offsets[e + 1] * m],
                &padded.as_slice()[e * 7 * m..e * 7 * m + cnt * m],
                "expert {e}"
            );
        }
        let inferred = ex.infer_grouped(&packed, &offsets).unwrap();
        assert_eq!(inferred.as_slice(), grouped.as_slice());
    }

    /// Oracle sharing no code with the grouped path: one row at a time
    /// through triple-loop GEMMs in f64 and a scalar tanh-GELU.
    #[derive(Clone)]
    struct NaiveFfn {
        m: usize,
        v: usize,
        w1: Vec<f64>,
        b1: Vec<f64>,
        w2: Vec<f64>,
        b2: Vec<f64>,
    }

    fn widen(s: &[f32]) -> Vec<f64> {
        s.iter().map(|&x| f64::from(x)).collect()
    }

    impl NaiveFfn {
        fn of(ex: &ExpertsBlock) -> Self {
            NaiveFfn {
                m: ex.model_dim,
                v: ex.hidden_dim,
                w1: widen(ex.w1.as_slice()),
                b1: widen(ex.b1.as_slice()),
                w2: widen(ex.w2.as_slice()),
                b2: widen(ex.b2.as_slice()),
            }
        }

        /// `y (R, M)` for packed rows `x (R, M)` binned by `offsets`.
        fn forward(&self, x: &[f64], offsets: &[usize]) -> Vec<f64> {
            let (m, v) = (self.m, self.v);
            let mut y = vec![0.0; x.len()];
            for e in 0..offsets.len() - 1 {
                for r in offsets[e]..offsets[e + 1] {
                    let mut h = vec![0.0; v];
                    for (j, hj) in h.iter_mut().enumerate() {
                        let mut pre = self.b1[e * v + j];
                        for p in 0..m {
                            pre += x[r * m + p] * self.w1[(e * m + p) * v + j];
                        }
                        let inner = (2.0 / std::f64::consts::PI).sqrt()
                            * (pre + 0.044715 * pre * pre * pre);
                        *hj = 0.5 * pre * (1.0 + inner.tanh());
                    }
                    for j in 0..m {
                        let mut acc = self.b2[e * m + j];
                        for (p, hp) in h.iter().enumerate() {
                            acc += hp * self.w2[(e * v + p) * m + j];
                        }
                        y[r * m + j] = acc;
                    }
                }
            }
            y
        }

        /// The scalar the backward test differentiates: `⟨y, up⟩`.
        fn loss(&self, x: &[f64], offsets: &[usize], up: &[f64]) -> f64 {
            let y = self.forward(x, offsets);
            y.iter().zip(up).map(|(a, b)| a * b).sum()
        }
    }

    /// Central differences of `loss_at(i, shift)` over `n` coordinates.
    fn central_differences(n: usize, loss_at: impl Fn(usize, f64) -> f64) -> Vec<f64> {
        const EPS: f64 = 1e-5;
        (0..n)
            .map(|i| (loss_at(i, EPS) - loss_at(i, -EPS)) / (2.0 * EPS))
            .collect()
    }

    fn assert_close(what: &str, got: &[f32], want: &[f64], tol: f64) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
            assert!(
                (f64::from(g) - w).abs() <= tol * w.abs().max(1.0),
                "{what}[{i}]: got {g}, oracle {w}"
            );
        }
    }

    /// A block with nonzero biases and bins that include an empty bin
    /// and a 1-row bin.
    fn oracle_fixture() -> (ExpertsBlock, [usize; 5], Tensor, Tensor) {
        let mut rng = Rng::seed(12);
        let (de, m, v) = (4usize, 3usize, 5usize);
        let ex = ExpertsBlock::from_weights(
            rng.normal_tensor(&[de, m, v], 0.0, 0.8),
            rng.normal_tensor(&[de, v], 0.0, 0.5),
            rng.normal_tensor(&[de, v, m], 0.0, 0.8),
            rng.normal_tensor(&[de, m], 0.0, 0.5),
        )
        .unwrap();
        let offsets = [0usize, 3, 3, 4, 9];
        let x = rng.normal_tensor(&[9, m], 0.0, 1.0);
        let up = rng.normal_tensor(&[9, m], 0.0, 1.0);
        (ex, offsets, x, up)
    }

    #[test]
    fn grouped_forward_matches_naive_per_row_oracle() {
        let (mut ex, offsets, x, _) = oracle_fixture();
        let want = NaiveFfn::of(&ex).forward(&widen(x.as_slice()), &offsets);
        // Blocked f32 accumulation reorders sums: the budget scales
        // with the longer reduction, √k.
        let tol = 1e-5 * (ex.hidden_dim.max(ex.model_dim) as f64).sqrt();
        let trained = ex.forward_grouped(&x, &offsets).unwrap();
        assert_close("forward_grouped", trained.as_slice(), &want, tol);
        let inferred = ex.infer_grouped(&x, &offsets).unwrap();
        assert_close("infer_grouped", inferred.as_slice(), &want, tol);
    }

    #[test]
    fn grouped_backward_matches_finite_differences_of_the_naive_oracle() {
        let (mut ex, offsets, x, up) = oracle_fixture();
        let oracle = NaiveFfn::of(&ex);
        let (x64, up64) = (widen(x.as_slice()), widen(up.as_slice()));
        ex.forward_grouped(&x, &offsets).unwrap();
        let dx = ex.backward_grouped(&up).unwrap();

        let tol = 1e-4;
        let fd_x = central_differences(x64.len(), |i, d| {
            let mut xs = x64.clone();
            xs[i] += d;
            oracle.loss(&xs, &offsets, &up64)
        });
        assert_close("dx", dx.as_slice(), &fd_x, tol);
        // One perturbed copy of the oracle per parameter coordinate.
        let fd_param = |n: usize, field: fn(&mut NaiveFfn) -> &mut Vec<f64>| {
            central_differences(n, |i, d| {
                let mut o = oracle.clone();
                field(&mut o)[i] += d;
                o.loss(&x64, &offsets, &up64)
            })
        };
        let fd_w1 = fd_param(oracle.w1.len(), |o| &mut o.w1);
        let fd_b1 = fd_param(oracle.b1.len(), |o| &mut o.b1);
        let fd_w2 = fd_param(oracle.w2.len(), |o| &mut o.w2);
        let fd_b2 = fd_param(oracle.b2.len(), |o| &mut o.b2);
        assert_close("dw1", ex.dw1.as_slice(), &fd_w1, tol);
        assert_close("db1", ex.db1.as_slice(), &fd_b1, tol);
        assert_close("dw2", ex.dw2.as_slice(), &fd_w2, tol);
        assert_close("db2", ex.db2.as_slice(), &fd_b2, tol);
        // The empty bin's expert saw no row: its gradients stay zero.
        let (m, v) = (ex.model_dim, ex.hidden_dim);
        assert!(ex.dw1.as_slice()[m * v..2 * m * v]
            .iter()
            .all(|&g| g == 0.0));
        assert!(ex.db2.as_slice()[m..2 * m].iter().all(|&g| g == 0.0));
    }

    #[test]
    fn grouped_input_grad_matches_finite_difference() {
        let mut rng = Rng::seed(13);
        let mut ex = ExpertsBlock::new(2, 3, 4, &mut rng);
        let offsets = [0usize, 2, 5];
        let x = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        let up = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        ex.forward_grouped(&x, &offsets).unwrap();
        let dx = ex.backward_grouped(&up).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = ex
                .infer_grouped(&xp, &offsets)
                .unwrap()
                .mul(&up)
                .unwrap()
                .sum();
            let lm = ex
                .infer_grouped(&xm, &offsets)
                .unwrap()
                .mul(&up)
                .unwrap()
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 3e-2,
                "i={i} fd={fd} got={}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    fn grouped_weight_gradients_descend_a_loss() {
        let mut rng = Rng::seed(14);
        let mut ex = ExpertsBlock::new(2, 4, 8, &mut rng);
        let offsets = [0usize, 4, 10];
        let x = rng.normal_tensor(&[10, 4], 0.0, 1.0);
        let target = rng.normal_tensor(&[10, 4], 0.0, 1.0);
        let mut initial = None;
        for _ in 0..50 {
            let y = ex.forward_grouped(&x, &offsets).unwrap();
            let diff = y.sub(&target).unwrap();
            initial.get_or_insert(0.5 * diff.sq_norm());
            ex.backward_grouped(&diff).unwrap();
            ex.step(0.01);
        }
        let y = ex.infer_grouped(&x, &offsets).unwrap();
        let final_loss = 0.5 * y.sub(&target).unwrap().sq_norm();
        let initial = initial.unwrap();
        assert!(
            final_loss < 0.6 * initial,
            "grouped loss {initial} → {final_loss} did not descend"
        );
    }

    #[test]
    fn grouped_bf16_storage_composes() {
        let mut rng = Rng::seed(15);
        let f32_block = ExpertsBlock::new(2, 8, 16, &mut rng);
        let bf16_block = f32_block.clone().with_storage_precision(Precision::Bf16);
        let offsets = [0usize, 3, 9];
        let x = rng.normal_tensor(&[9, 8], 0.0, 1.0);
        let yf = f32_block.infer_grouped(&x, &offsets).unwrap();
        let yb = bf16_block.infer_grouped(&x, &offsets).unwrap();
        for (a, b) in yf.as_slice().iter().zip(yb.as_slice()) {
            let scale = a.abs().max(1.0);
            assert!((a - b).abs() / scale < 0.05, "f32 {a} vs bf16 {b}");
        }
    }

    #[test]
    fn grouped_rejects_bad_offsets() {
        let mut rng = Rng::seed(16);
        let mut ex = ExpertsBlock::new(2, 3, 4, &mut rng);
        let x = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        assert!(ex.forward_grouped(&x, &[0, 5]).is_err()); // wrong bin count
        assert!(ex.forward_grouped(&x, &[0, 3, 2]).is_err()); // not monotone
        assert!(ex.forward_grouped(&x, &[0, 2, 4]).is_err()); // total ≠ rows
        assert!(ex.backward_grouped(&x).is_err()); // no cached forward
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::seed(5);
        let mut ex = ExpertsBlock::new(1, 2, 2, &mut rng);
        assert!(ex.backward(&Tensor::zeros(&[1, 1, 2])).is_err());
    }

    #[test]
    fn rank_slice_is_the_ranks_contiguous_share_of_the_bank() {
        let mut rng = Rng::seed(17);
        let bank = ExpertsBlock::new(6, 3, 4, &mut rng).with_storage_precision(Precision::Bf16);
        for rank in 0..3 {
            let local = bank.rank_slice(3, rank).unwrap();
            assert_eq!(local.local_experts(), 2);
            assert_eq!(local.storage_precision(), Precision::Bf16);
            let (w1, b1, w2, b2) = local.weights();
            assert_eq!(w1, &bank.w1.split_axis(0, 3).unwrap()[rank]);
            assert_eq!(b1, &bank.b1.split_axis(0, 3).unwrap()[rank]);
            assert_eq!(w2, &bank.w2.split_axis(0, 3).unwrap()[rank]);
            assert_eq!(b2, &bank.b2.split_axis(0, 3).unwrap()[rank]);
        }
        assert!(bank.rank_slice(3, 3).is_err()); // rank outside the world
        assert!(bank.rank_slice(4, 0).is_err()); // 4 does not divide 6
        assert!(bank.rank_slice(0, 0).is_err());
    }

    #[test]
    fn from_weights_validates() {
        let mut rng = Rng::seed(6);
        let w1 = rng.normal_tensor(&[2, 3, 4], 0.0, 1.0);
        let b1 = Tensor::zeros(&[2, 4]);
        let w2 = rng.normal_tensor(&[2, 4, 3], 0.0, 1.0);
        let b2 = Tensor::zeros(&[2, 3]);
        assert!(ExpertsBlock::from_weights(w1.clone(), b1.clone(), w2.clone(), b2.clone()).is_ok());
        let bad_b1 = Tensor::zeros(&[2, 5]);
        assert!(ExpertsBlock::from_weights(w1, bad_b1, w2, b2).is_err());
    }

    #[test]
    fn param_count() {
        let mut rng = Rng::seed(7);
        let ex = ExpertsBlock::new(2, 3, 5, &mut rng);
        assert_eq!(ex.num_params(), 2 * (3 * 5 + 5 + 5 * 3 + 3));
    }

    #[test]
    fn bf16_storage_halves_weight_bytes_and_stays_on_grid() {
        let mut rng = Rng::seed(8);
        let f32_block = ExpertsBlock::new(2, 4, 8, &mut rng);
        let f32_bytes = f32_block.weight_bytes();
        let ex = f32_block.with_storage_precision(Precision::Bf16);
        assert_eq!(ex.weight_bytes() * 2, f32_bytes);
        let on_grid = |t: &Tensor| {
            t.as_slice()
                .iter()
                .all(|&v| Precision::Bf16.round(v).to_bits() == v.to_bits())
        };
        let (w1, b1, w2, b2) = ex.weights();
        assert!(on_grid(w1) && on_grid(b1) && on_grid(w2) && on_grid(b2));
    }

    #[test]
    fn bf16_storage_stays_on_grid_after_steps_and_still_learns() {
        let mut rng = Rng::seed(9);
        let mut ex = ExpertsBlock::new(2, 4, 8, &mut rng).with_storage_precision(Precision::Bf16);
        let x = rng.normal_tensor(&[2, 6, 4], 0.0, 1.0);
        let target = rng.normal_tensor(&[2, 6, 4], 0.0, 1.0);
        let mut initial = None;
        for _ in 0..50 {
            let y = ex.forward(&x).unwrap();
            let diff = y.sub(&target).unwrap();
            initial.get_or_insert(0.5 * diff.sq_norm());
            ex.backward(&diff).unwrap();
            ex.step(0.01);
            // The rest-point invariant: every stored weight is bf16-
            // representable after every optimizer step.
            let (w1, _, w2, _) = ex.weights();
            for &v in w1.as_slice().iter().chain(w2.as_slice()) {
                assert_eq!(Precision::Bf16.round(v).to_bits(), v.to_bits());
            }
        }
        let y = ex.infer(&x).unwrap();
        let final_loss = 0.5 * y.sub(&target).unwrap().sq_norm();
        let initial = initial.unwrap();
        assert!(
            final_loss < 0.7 * initial,
            "bf16 storage must still descend: {initial} → {final_loss}"
        );
    }

    #[test]
    fn bf16_output_stays_within_format_error_of_f32() {
        let mut rng = Rng::seed(10);
        let f32_block = ExpertsBlock::new(2, 8, 16, &mut rng);
        let bf16_block = f32_block.clone().with_storage_precision(Precision::Bf16);
        let x = rng.normal_tensor(&[2, 5, 8], 0.0, 1.0);
        let yf = f32_block.infer(&x).unwrap();
        let yb = bf16_block.infer(&x).unwrap();
        // bf16 keeps 8 mantissa bits → ~2^-8 relative weight error;
        // the two-GEMM chain roughly doubles it. Scale-aware budget.
        for (a, b) in yf.as_slice().iter().zip(yb.as_slice()) {
            let scale = a.abs().max(1.0);
            assert!((a - b).abs() / scale < 0.05, "f32 {a} vs bf16 {b}");
        }
    }
}
