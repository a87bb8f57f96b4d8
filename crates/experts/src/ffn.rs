//! The expert feed-forward network (`fflayer`).
//!
//! `layer → GELU → layer` has one body, [`ExpertsBlock::ffn`]: training
//! and inference differ only in whether it captures the activations the
//! backward pass reads. Each layer is one storing grouped-GEMM launch
//! whose per-row-block epilogue adds the bias and, after the first
//! layer, applies GELU (the kernel table's `gelu`, `x·σ(2u)` with one
//! `exp` and one divide per element) while the block is still in cache;
//! the backward applies GELU′ the same way, from the captured `σ(2u)`. Under
//! enabled telemetry the two launches are the child spans `ffn.gemm1`
//! / `ffn.gemm2` of `ffn`. The four parameters are [`Param`]s, so the
//! optimizer step is one call per parameter.

use tutel_obs::Telemetry;
use tutel_rt::SameRanges;
use tutel_tensor::{
    dispatch, grouped_gemm_into, grouped_gemm_nt_into, grouped_gemm_tn, quantize_in_place, scratch,
    uniform_offsets, Param, Precision, Rng, Tensor, TensorError,
};

/// What a training forward keeps for [`ExpertsBlock::backward`]: the
/// input `x` (in the caller's shape), the pre-activation `h_pre`, the
/// GELU output `h`, the `σ(2u)` intermediate — so backward never
/// re-evaluates the `exp` — and the bin offsets the rows were computed
/// under.
type Saved = (Tensor, Tensor, Tensor, Tensor, Vec<usize>);

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
    w1: Param,
    /// `(ΔE, V)`.
    b1: Param,
    /// `(ΔE, V, M)`.
    w2: Param,
    /// `(ΔE, M)`.
    b2: Param,
    /// Activations of the last training forward.
    saved: Option<Saved>,
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
            w1: Param::new(rng.normal_tensor(&[local_experts, model_dim, hidden_dim], 0.0, std1)),
            b1: Param::new(Tensor::zeros(&[local_experts, hidden_dim])),
            w2: Param::new(rng.normal_tensor(&[local_experts, hidden_dim, model_dim], 0.0, std2)),
            b2: Param::new(Tensor::zeros(&[local_experts, model_dim])),
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
        for p in [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2] {
            quantize_in_place(p.w_mut(), self.storage);
        }
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
            w1: Param::new(w1),
            b1: Param::new(b1),
            w2: Param::new(w2),
            b2: Param::new(b2),
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
            slice(self.w1.w())?,
            slice(self.b1.w())?,
            slice(self.w2.w())?,
            slice(self.b2.w())?,
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
        (self.w1.w(), self.b1.w(), self.w2.w(), self.b2.w())
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
        // All four are checked before any is replaced, so a failed
        // restore leaves the block as it was.
        if w1.dims() != self.w1.w().dims()
            || b1.dims() != self.b1.w().dims()
            || w2.dims() != self.w2.w().dims()
            || b2.dims() != self.b2.w().dims()
        {
            return Err(TensorError::ShapeMismatch {
                left: w1.dims().to_vec(),
                right: self.w1.w().dims().to_vec(),
                op: "set_weights",
            });
        }
        self.w1.set(w1)?;
        self.b1.set(b1)?;
        self.w2.set(w2)?;
        self.b2.set(b2)?;
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
        Ok(self.forward_rows(x, &offsets))
    }

    /// Forward without caching (inference) over padded `x (ΔE, C, M)`.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` has the wrong shape.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, TensorError> {
        let offsets = self.uniform_bins(x)?;
        Ok(self.infer_rows(x, &offsets))
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
        Ok(self.forward_rows(x, offsets))
    }

    /// Grouped forward without caching (inference).
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `x` or `offsets` is inconsistent.
    pub fn infer_grouped(&self, x: &Tensor, offsets: &[usize]) -> Result<Tensor, TensorError> {
        self.check_grouped(x, offsets)?;
        Ok(self.infer_rows(x, offsets))
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

    /// Training forward over validated rows: the FFN body with capture
    /// on, its activations parked for [`Self::backward`] beside a copy
    /// of the input and the bins.
    fn forward_rows(&mut self, x: &Tensor, offsets: &[usize]) -> Tensor {
        let (y, kept) = self.ffn(x, offsets, true);
        self.saved =
            kept.map(|[h_pre, h, sig]| (scratch::copy_of(x), h_pre, h, sig, offsets.to_vec()));
        y
    }

    /// Inference over validated rows: the FFN body with capture off.
    fn infer_rows(&self, x: &Tensor, offsets: &[usize]) -> Tensor {
        self.ffn(x, offsets, false).0
    }

    /// The FFN body, `layer → GELU → layer`: `x` is validated rows of
    /// `M` (either layout) partitioned by `offsets`; the result takes
    /// `x`'s shape. With `capture` it also returns `[h_pre, h, sig]` —
    /// the pre-activation, the GELU output and its `σ(2u)`, which
    /// backward would otherwise spend most of its time re-evaluating;
    /// without, the hidden buffer is recycled.
    // check:hot
    fn ffn(&self, x: &Tensor, offsets: &[usize], capture: bool) -> (Tensor, Option<[Tensor; 3]>) {
        let _span = self.ffn_span(true, offsets);
        let gelu = dispatch::table().gelu;
        let mut h = scratch::raw(&[offsets[self.local_experts], self.hidden_dim]);
        let captured = {
            let _stage = self.obs.span("ffn.gemm1");
            let (w1, b1) = (&self.w1, &self.b1);
            if capture {
                // GELU in place over the launch's own output; its input
                // and `σ(2u)` land beside it, in the block's rows.
                let (mut h_pre, mut sig) = (scratch::raw(h.dims()), scratch::raw(h.dims()));
                let beside =
                    SameRanges::new(h.as_slice(), [h_pre.as_mut_slice(), sig.as_mut_slice()]);
                self.layer(x.as_slice(), w1, b1, offsets, h.as_mut_slice(), |block| {
                    let (block, [pre, sig]) = beside.split(block);
                    gelu(block, Some((pre, sig)));
                });
                Some((h_pre, sig))
            } else {
                self.layer(x.as_slice(), w1, b1, offsets, h.as_mut_slice(), |block| {
                    gelu(block, None)
                });
                None
            }
        };
        let mut y = scratch::raw(x.dims());
        {
            let _stage = self.obs.span("ffn.gemm2");
            let (w2, b2) = (&self.w2, &self.b2);
            self.layer(h.as_slice(), w2, b2, offsets, y.as_mut_slice(), |_| {});
        }
        let kept = match captured {
            Some((h_pre, sig)) => Some([h_pre, h, sig]),
            None => {
                scratch::recycle(h);
                None
            }
        };
        (y, kept)
    }

    /// One linear layer over packed rows, stored into `out (R, N)`: bin
    /// `e`'s rows times `w[e] (K, N)` plus `b[e]`, then `act` on every
    /// finished row block — all inside a single grouped-GEMM launch.
    fn layer(
        &self,
        rows: &[f32],
        w: &Param,
        b: &Param,
        offsets: &[usize],
        out: &mut [f32],
        act: impl Fn(&mut [f32]) + Sync,
    ) {
        let (k, n) = (w.w().dims()[1], w.w().dims()[2]);
        let (bias, add_assign) = (b.w().as_slice(), dispatch::table().add_assign);
        grouped_gemm_into(rows, w.w().as_slice(), out, offsets, k, n, |g, _, block| {
            let b_g = &bias[g * n..(g + 1) * n];
            for row in block.chunks_mut(n) {
                add_assign(b_g, row);
            }
            act(block);
        });
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
    /// not have the forward input's shape; a rejected `d_y` leaves the
    /// cached activations in place for a corrected retry.
    // check:hot
    pub fn backward(&mut self, d_y: &Tensor) -> Result<Tensor, TensorError> {
        let (x, h_pre, h, sig, offsets) = match self.saved.take() {
            Some(saved) if saved.0.dims() == d_y.dims() => saved,
            Some(saved) => {
                let err =
                    TensorError::shape_mismatch("experts_backward", d_y.dims(), saved.0.dims());
                self.saved = Some(saved);
                return Err(err);
            }
            None => {
                return Err(TensorError::InvalidArgument(
                    "backward without forward".into(),
                ))
            }
        };
        let _span = self.ffn_span(false, &offsets);
        let (m, v) = (self.model_dim, self.hidden_dim);
        let dys = d_y.as_slice();
        // dW2 += hᵀ · dY and db2 += Σ rows dY, bin by bin.
        grouped_gemm_tn(h.as_slice(), dys, self.w2.g_mut(), &offsets, v, m);
        accumulate_bias(&mut self.b2, dys, &offsets);
        // dW2 was the GELU output's last reader, so its buffer becomes
        // the hidden-gradient slab: dh = dY · W2ᵀ, each block scaled by
        // GELU′ over its own rows inside the launch.
        let mut dh = h.into_vec();
        let gelu_backward = dispatch::table().gelu_backward;
        let (pre, s) = (h_pre.as_slice(), sig.as_slice());
        let w2 = self.w2.w().as_slice();
        grouped_gemm_nt_into(dys, w2, &mut dh, &offsets, m, v, |g, r0, block| {
            let start = (offsets[g] + r0) * v;
            let rows = start..start + block.len();
            gelu_backward(&pre[rows.clone()], &s[rows], block);
        });
        // dW1 += xᵀ · dh_pre; db1 += Σ rows dh_pre; dx = dh_pre · W1ᵀ.
        grouped_gemm_tn(x.as_slice(), &dh, self.w1.g_mut(), &offsets, m, v);
        accumulate_bias(&mut self.b1, &dh, &offsets);
        let mut dx = scratch::raw(x.dims());
        let w1 = self.w1.w().as_slice();
        grouped_gemm_nt_into(&dh, w1, dx.as_mut_slice(), &offsets, v, m, |_, _, _| {});
        tutel_rt::arena().put(dh);
        scratch::recycle(x);
        scratch::recycle(h_pre);
        scratch::recycle(sig);
        Ok(dx)
    }

    /// Opens the `ffn` (forward) or `ffn.backward` span and counts the
    /// pass's work: two GEMMs over every row of every bin, `4·R·M·V`
    /// multiply-adds — with exact bins that is the routed rows only —
    /// and, forward only, `R·V` GELU evaluations (one exp each).
    fn ffn_span(&self, forward: bool, offsets: &[usize]) -> tutel_obs::TraceSpan {
        let name = if forward { "ffn" } else { "ffn.backward" };
        if !self.obs.is_enabled() {
            return self.obs.span(name);
        }
        let rows = offsets[self.local_experts];
        let flops = 4 * rows * self.model_dim * self.hidden_dim;
        self.obs.add_counter("experts.flops", flops as u64);
        if forward {
            let gelu_elems = rows * self.hidden_dim;
            self.obs
                .add_counter("experts.gelu_elems", gelu_elems as u64);
        }
        self.obs
            .span(name)
            .arg("local_experts", self.local_experts as u64)
            .arg("rows", rows as u64)
            .arg("flops", flops as u64)
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

    /// Applies accumulated gradients (SGD with per-tensor norm
    /// clipping, [`Param::step`]) and clears them. The four parameters
    /// are independent, so each steps as its own pool job.
    pub fn step(&mut self, lr: f32) {
        let mut params = [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2];
        let each = [(0, 1), (1, 2), (2, 3), (3, 4)];
        tutel_rt::parallel_ranges(&mut params, &each, |_, p| p[0].step(lr));
        // The update itself ran in f32; park the result back on the
        // storage grid (no-op for f32 storage).
        self.round_weights_to_storage();
    }

    /// Clears accumulated gradients in place.
    pub fn zero_grad(&mut self) {
        for p in [&mut self.w1, &mut self.b1, &mut self.w2, &mut self.b2] {
            p.zero_grad();
        }
    }
}

/// Pool jobs of [`accumulate_bias`]: a fixed count, so the blocks
/// depend on the bias's shape alone.
const BIAS_JOBS: usize = 16;

/// Bias `b (ΔE, cols)`'s gradient `[e] += Σ` of bin `e`'s rows of
/// `d (R, cols)`, each element adding its rows in packed order. The
/// gradient's elements run as [`BIAS_JOBS`] contiguous blocks on the
/// pool (cut on 16-float lines, so no two jobs write one cache line);
/// an element's sum is the same whichever job runs it.
fn accumulate_bias(b: &mut Param, d: &[f32], offsets: &[usize]) {
    let cols = b.w().dims()[1];
    let g = b.g_mut();
    let len = g.len();
    let cut = |j: usize| {
        if j == BIAS_JOBS {
            len
        } else {
            j * len / BIAS_JOBS / 16 * 16
        }
    };
    let blocks: [(usize, usize); BIAS_JOBS] = std::array::from_fn(|j| (cut(j), cut(j + 1)));
    let add_assign = dispatch::table().add_assign;
    tutel_rt::parallel_ranges(g, &blocks, |j, block| {
        let (mut at, end) = blocks[j];
        // One run of columns of one expert at a time.
        while at < end {
            let (e, c0) = (at / cols, at % cols);
            let run = (cols - c0).min(end - at);
            let acc = &mut block[at - blocks[j].0..][..run];
            for r in offsets[e]..offsets[e + 1] {
                add_assign(&d[r * cols + c0..][..run], acc);
            }
            at += run;
        }
    });
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

    /// The subnormal trap: pre-activations across [−12, 12], set by the
    /// bias, one row per expert, so each expert's `db1` is its row's
    /// `dh`. A GELU whose `σ(2u)` or `gelu'` went subnormal (an uncut
    /// `σ(2u)` is subnormal for x in about (−10.6, −10)) put subnormals
    /// into `dh`, and every launch that read it ran slow; after one
    /// backward no gradient holds one.
    #[test]
    fn backward_across_the_far_tail_makes_no_subnormal() {
        let (e, m, v) = (2, 8, 97);
        let mut rng = Rng::seed(21);
        let mut ex = ExpertsBlock::new(e, m, v, &mut rng);
        ex.w1.w_mut().iter_mut().for_each(|w| *w *= 0.01);
        for (j, b) in ex.b1.w_mut().iter_mut().enumerate() {
            *b = -12.0 + 24.0 * (j % v) as f32 / (v - 1) as f32;
        }
        let offsets = [0, 1, 2];
        let x = rng.normal_tensor(&[e, m], 0.0, 1.0);
        ex.forward_grouped(&x, &offsets).unwrap();
        let pre = ex.saved.as_ref().unwrap().1.as_slice().to_vec();
        let lo = pre.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = pre.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert!(lo < -11.5 && hi > 11.5, "pre-activations span [{lo}, {hi}]");
        let in_band = pre.iter().filter(|&&p| (-10.6..-10.05).contains(&p));
        assert!(
            in_band.count() >= 2 * e,
            "no pre-activation where σ(2u) < 2⁻¹²⁶"
        );
        let dy = rng.normal_tensor(&[e, m], 0.0, 1.0);
        let dx = ex.backward_grouped(&dy).unwrap();
        let grads = [
            ("dh", ex.b1.g().as_slice()),
            ("d_x", dx.as_slice()),
            ("dW1", ex.w1.g().as_slice()),
            ("dW2", ex.w2.g().as_slice()),
        ];
        for (what, g) in grads {
            let at = g.iter().position(|v| v.is_subnormal());
            assert!(at.is_none(), "{what}[{at:?}] is subnormal");
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
                w1: widen(ex.w1.w().as_slice()),
                b1: widen(ex.b1.w().as_slice()),
                w2: widen(ex.w2.w().as_slice()),
                b2: widen(ex.b2.w().as_slice()),
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
        assert_close("dw1", ex.w1.g().as_slice(), &fd_w1, tol);
        assert_close("db1", ex.b1.g().as_slice(), &fd_b1, tol);
        assert_close("dw2", ex.w2.g().as_slice(), &fd_w2, tol);
        assert_close("db2", ex.b2.g().as_slice(), &fd_b2, tol);
        // The empty bin's expert saw no row: its gradients stay zero.
        let (m, v) = (ex.model_dim, ex.hidden_dim);
        assert!(ex.w1.g().as_slice()[m * v..2 * m * v]
            .iter()
            .all(|&g| g == 0.0));
        assert!(ex.b2.g().as_slice()[m..2 * m].iter().all(|&g| g == 0.0));
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
    #[ignore = "wall-clock bound: ci.sh runs it alone, not under the parallel suite"]
    fn ffn_child_spans_nest_in_order_and_account_for_the_ffn() {
        use tutel_obs::TraceEvent;
        let mut rng = Rng::seed(18);
        let mut ex = ExpertsBlock::new(8, 32, 64, &mut rng);
        let x = rng.normal_tensor(&[8, 64, 32], 0.0, 1.0);
        // Warm the arena so the traced passes are steady state.
        ex.forward(&x).unwrap();
        ex.infer(&x).unwrap();
        // One traced pass, capture on or off: the `ffn` span and its
        // two children (GELU runs inside `ffn.gemm1`), each exactly
        // once, as `(name, t0_us, dur_us)`.
        type Span = (String, f64, f64);
        let mut traced = |capture: bool| -> (Span, Vec<Span>) {
            let tel = Telemetry::enabled();
            ex.set_telemetry(tel.clone());
            if capture {
                ex.forward(&x).unwrap();
            } else {
                ex.infer(&x).unwrap();
            }
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
                assert!(spans.next().is_none(), "one `{name}` span per pass");
                first
            };
            let children = ["ffn.gemm1", "ffn.gemm2"];
            (span("ffn"), children.map(span).to_vec())
        };
        for capture in [true, false] {
            // Best of a few passes: one preemption between two spans
            // is charged to nobody.
            let mut best = f64::MAX;
            for _ in 0..9 {
                let (whole, children) = traced(capture);
                let mut at = whole.1;
                for (name, t0, dur) in &children {
                    assert!(*t0 >= at, "`{name}` starts before its predecessor ends");
                    at = t0 + dur;
                }
                assert!(at <= whole.1 + whole.2, "children outlast ffn");
                let parts: f64 = children.iter().map(|c| c.2).sum();
                best = best.min((whole.2 - parts) / whole.2);
            }
            assert!(
                best <= 0.10,
                "capture={capture}: unattributed ffn share {best:.3}"
            );
        }
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut rng = Rng::seed(5);
        let mut ex = ExpertsBlock::new(1, 2, 2, &mut rng);
        assert!(ex.backward(&Tensor::zeros(&[1, 1, 2])).is_err());
    }

    #[test]
    fn a_rejected_upstream_keeps_the_forward_for_a_corrected_retry() {
        let mut rng = Rng::seed(19);
        let ex = ExpertsBlock::new(2, 3, 4, &mut rng);
        let offsets = [0usize, 2, 5];
        let x = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        let up = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        let mut clean = ex.clone();
        clean.forward_grouped(&x, &offsets).unwrap();
        let want = clean.backward_grouped(&up).unwrap();
        let mut retried = ex;
        retried.forward_grouped(&x, &offsets).unwrap();
        assert!(retried.backward_grouped(&Tensor::zeros(&[4, 3])).is_err());
        let got = retried.backward_grouped(&up).unwrap();
        assert_eq!(got, want);
        assert_eq!(retried.w1.g(), clean.w1.g());
        assert_eq!(retried.b2.g(), clean.b2.g());
    }

    #[test]
    fn gelu_elems_counts_rows_times_hidden_per_forward_only() {
        let mut rng = Rng::seed(20);
        let (m, v) = (3usize, 5usize);
        let mut ex = ExpertsBlock::new(3, m, v, &mut rng);
        let tel = Telemetry::enabled();
        ex.set_telemetry(tel.clone());
        let offsets = [0usize, 4, 4, 11];
        let x = rng.normal_tensor(&[11, m], 0.0, 1.0);
        ex.forward_grouped(&x, &offsets).unwrap();
        assert_eq!(tel.counter_value("experts.gelu_elems"), Some(11 * v as u64));
        ex.infer_grouped(&x, &offsets).unwrap();
        ex.backward_grouped(&x).unwrap();
        assert_eq!(
            tel.counter_value("experts.gelu_elems"),
            Some(2 * 11 * v as u64)
        );
        // Padded input: every capacity row is a computed row.
        ex.infer(&rng.normal_tensor(&[3, 2, m], 0.0, 1.0)).unwrap();
        assert_eq!(tel.counter_value("experts.gelu_elems"), Some(28 * v as u64));
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
            assert_eq!(w1, &bank.w1.w().split_axis(0, 3).unwrap()[rank]);
            assert_eq!(b1, &bank.b1.w().split_axis(0, 3).unwrap()[rank]);
            assert_eq!(w2, &bank.w2.w().split_axis(0, 3).unwrap()[rank]);
            assert_eq!(b2, &bank.b2.w().split_axis(0, 3).unwrap()[rank]);
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
