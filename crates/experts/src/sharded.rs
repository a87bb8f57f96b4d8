//! ZeRO-style sharded expert parameters and the two switchable
//! parallelism executions (Section 3.2, Figures 11–12).
//!
//! The crucial design point making P1 and P2 *switchable at zero cost*
//! is that they share one parameter placement: every rank of a replica
//! group permanently owns a `1/R` hidden-dimension slice of its
//! experts' weights. P1 temporarily materializes the full weights via
//! all-gather (Expert + Data parallelism); P2 uses the slice directly
//! in tensor-parallel style against replicated tokens (Expert + Model
//! parallelism). Switching between them changes only the communication
//! plan — no parameter migration ever happens.

use tutel_tensor::{Precision, Rng, Tensor, TensorError};

use crate::ExpertsBlock;

/// Which switchable parallelism executes the expert.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Parallelism {
    /// Expert + Data parallelism with ZeRO-sharded weights (Figure 11).
    P1,
    /// Expert + Model parallelism with replicated tokens (Figure 12).
    P2,
}

impl Parallelism {
    /// Short label for grids, reports and audit records.
    pub fn label(&self) -> &'static str {
        match self {
            Parallelism::P1 => "P1",
            Parallelism::P2 => "P2",
        }
    }
}

impl std::fmt::Display for Parallelism {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Parallelism::P1 => write!(f, "P1 (EP+DP)"),
            Parallelism::P2 => write!(f, "P2 (EP+MP)"),
        }
    }
}

/// Expert parameters sharded across the `R` ranks of one replica group.
///
/// Sharding is along the hidden dimension `V`: rank `r` owns columns
/// `[r·V/R, (r+1)·V/R)` of `W1`/`b1` and the matching rows of `W2`
/// (the classic Megatron column/row-parallel split). `b2` belongs to
/// shard 0 so the cross-shard sum adds it exactly once.
///
/// # Example
///
/// ```
/// use tutel_experts::{ExpertsBlock, ShardedExpertParams};
/// use tutel_tensor::Rng;
///
/// let full = ExpertsBlock::new(1, 8, 16, &mut Rng::seed(0));
/// let params = ShardedExpertParams::from_block(&full, 4)?;
/// assert_eq!(params.shard_block(0).hidden_dim(), 4); // a quarter of V
/// assert_eq!(params.gather()?.weights(), full.weights()); // lossless
/// # Ok::<(), tutel_tensor::TensorError>(())
/// ```
#[derive(Debug, Clone)]
pub struct ShardedExpertParams {
    local_experts: usize,
    model_dim: usize,
    hidden_dim: usize,
    shards: usize,
    /// Weight storage format — determines bytes per element on the
    /// wire for the P1 parameter all-gather.
    precision: Precision,
    /// Per-shard parameter slices, index = rank within the group.
    slices: Vec<ShardSlice>,
}

#[derive(Debug, Clone, PartialEq)]
struct ShardSlice {
    /// `(ΔE, M, V/R)`.
    w1: Tensor,
    /// `(ΔE, V/R)`.
    b1: Tensor,
    /// `(ΔE, V/R, M)`.
    w2: Tensor,
    /// `(ΔE, M)` — real values on shard 0, zeros elsewhere.
    b2: Tensor,
}

impl ShardedExpertParams {
    /// Creates randomly initialized sharded parameters for
    /// `local_experts` experts of dims `model_dim → hidden_dim`,
    /// sharded `shards` ways.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `hidden_dim` is not divisible by
    /// `shards`.
    pub fn new(
        local_experts: usize,
        model_dim: usize,
        hidden_dim: usize,
        shards: usize,
        rng: &mut Rng,
    ) -> Result<Self, TensorError> {
        if shards == 0 || !hidden_dim.is_multiple_of(shards) {
            return Err(TensorError::InvalidArgument(format!(
                "hidden dim {hidden_dim} not divisible into {shards} shards"
            )));
        }
        let full = ExpertsBlock::new(local_experts, model_dim, hidden_dim, rng);
        Self::from_block(&full, shards)
    }

    /// Shards an existing full-parameter block.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if the hidden dim is not divisible by
    /// `shards`.
    pub fn from_block(full: &ExpertsBlock, shards: usize) -> Result<Self, TensorError> {
        let (w1, b1, w2, b2) = full.weights();
        let v = full.hidden_dim();
        if shards == 0 || !v.is_multiple_of(shards) {
            return Err(TensorError::InvalidArgument(format!(
                "hidden dim {v} not divisible into {shards} shards"
            )));
        }
        // Column-split W1/b1 along V (axis 2 / axis 1), row-split W2
        // along V (axis 1).
        let w1s = w1.split_axis(2, shards)?;
        let b1s = b1.split_axis(1, shards)?;
        let w2s = w2.split_axis(1, shards)?;
        let slices = (0..shards)
            .map(|r| ShardSlice {
                w1: w1s[r].clone(),
                b1: b1s[r].clone(),
                w2: w2s[r].clone(),
                b2: if r == 0 {
                    b2.clone()
                } else {
                    Tensor::zeros(b2.dims())
                },
            })
            .collect();
        Ok(ShardedExpertParams {
            local_experts: full.local_experts(),
            model_dim: full.model_dim(),
            hidden_dim: v,
            shards,
            precision: full.storage_precision(),
            slices,
        })
    }

    /// Switches the storage precision, rounding every shard's slice to
    /// the new format in place (no parameter migration — sharding is
    /// untouched).
    pub fn with_storage_precision(mut self, precision: Precision) -> Self {
        self.precision = precision;
        if precision != Precision::F32 {
            for s in &mut self.slices {
                tutel_tensor::quantize_in_place(s.w1.as_mut_slice(), precision);
                tutel_tensor::quantize_in_place(s.b1.as_mut_slice(), precision);
                tutel_tensor::quantize_in_place(s.w2.as_mut_slice(), precision);
                tutel_tensor::quantize_in_place(s.b2.as_mut_slice(), precision);
            }
        }
        self
    }

    /// The weight storage format.
    pub fn storage_precision(&self) -> Precision {
        self.precision
    }

    /// Number of shards (`R`, the "n-sharded" of the paper).
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Local experts per group (`ΔE`).
    pub fn local_experts(&self) -> usize {
        self.local_experts
    }

    /// Model dimension `M`.
    pub fn model_dim(&self) -> usize {
        self.model_dim
    }

    /// Hidden dimension `V` (full, before sharding).
    pub fn hidden_dim(&self) -> usize {
        self.hidden_dim
    }

    /// Parameter bytes held by one shard (and sent by it per ring
    /// all-gather hop) at the storage precision — half the `f32`
    /// figure under bf16.
    pub fn shard_bytes(&self) -> u64 {
        let s = &self.slices[0];
        ((s.w1.len() + s.b1.len() + s.w2.len() + s.b2.len()) * self.precision.storage_bytes())
            as u64
    }

    /// The tensor-parallel slice owned by rank `r` of the group, as a
    /// runnable block (what P2 executes directly).
    ///
    /// # Panics
    ///
    /// Panics if `r >= shards()`.
    pub fn shard_block(&self, r: usize) -> ExpertsBlock {
        let s = &self.slices[r];
        ExpertsBlock::from_weights(s.w1.clone(), s.b1.clone(), s.w2.clone(), s.b2.clone())
            // check:allow(no_panic, shard slices were validated when the slab was partitioned)
            .expect("shard slices are internally consistent")
            // Slices are already on the storage grid, so this re-round
            // is an exact no-op on values; it only tags the block.
            .with_storage_precision(self.precision)
    }

    /// Materializes the full parameters by concatenating the shards —
    /// the value P1's all-gather produces.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if concatenation fails (cannot happen
    /// for internally consistent shards).
    pub fn gather(&self) -> Result<ExpertsBlock, TensorError> {
        let w1: Vec<Tensor> = self.slices.iter().map(|s| s.w1.clone()).collect();
        let b1: Vec<Tensor> = self.slices.iter().map(|s| s.b1.clone()).collect();
        let w2: Vec<Tensor> = self.slices.iter().map(|s| s.w2.clone()).collect();
        let full_w1 = Tensor::concat_axis(&w1, 2)?;
        let full_b1 = Tensor::concat_axis(&b1, 1)?;
        let full_w2 = Tensor::concat_axis(&w2, 1)?;
        Ok(
            ExpertsBlock::from_weights(full_w1, full_b1, full_w2, self.slices[0].b2.clone())?
                .with_storage_precision(self.precision),
        )
    }
}

/// The expert block(s) `strategy` executes on `rank` of `world`: the
/// rank's slice of the global `bank` in one block under P1, or that
/// slice's `shards` hidden-dimension shards under P2 (their partial
/// outputs are summed by [`shard_sum`]).
///
/// # Errors
///
/// Returns a [`TensorError`] if `world` does not divide the expert
/// count or `shards` the hidden dimension.
///
/// # Example
///
/// ```
/// use tutel_experts::{rank_blocks, shard_sum, ExpertsBlock, Parallelism};
/// use tutel_tensor::Rng;
///
/// let mut rng = Rng::seed(0);
/// let bank = ExpertsBlock::new(2, 8, 16, &mut rng);
/// let rows = rng.normal_tensor(&[6, 8], 0.0, 1.0);
/// let offsets = [0, 4, 6]; // expert 0 owns rows 0..4, expert 1 rows 4..6
/// let run = |strategy| {
///     let blocks = rank_blocks(&bank, strategy, 1, 0, 4)?;
///     shard_sum(&blocks, |b| b.infer_grouped(&rows, &offsets))
/// };
/// let (y1, y2) = (run(Parallelism::P1)?, run(Parallelism::P2)?);
/// assert!(y1.sub(&y2)?.max_abs() < 1e-4); // identical math, either path
/// # Ok::<(), tutel_tensor::TensorError>(())
/// ```
pub fn rank_blocks(
    bank: &ExpertsBlock,
    strategy: Parallelism,
    world: usize,
    rank: usize,
    shards: usize,
) -> Result<Vec<ExpertsBlock>, TensorError> {
    let local = bank.rank_slice(world, rank)?;
    Ok(match strategy {
        Parallelism::P1 => vec![local],
        Parallelism::P2 => {
            let params = ShardedExpertParams::from_block(&local, shards)?;
            (0..params.shards())
                .map(|r| params.shard_block(r))
                .collect()
        }
    })
}

/// Applies `apply` to every block and sums the results in block
/// (= shard) order — P2's one re-associated addition chain; under P1
/// the single block's result passes through untouched.
///
/// # Errors
///
/// Propagates `apply`'s error; [`TensorError::InvalidArgument`] for
/// an empty block list.
pub fn shard_sum<B>(
    blocks: impl IntoIterator<Item = B>,
    mut apply: impl FnMut(B) -> Result<Tensor, TensorError>,
) -> Result<Tensor, TensorError> {
    let mut acc: Option<Tensor> = None;
    for block in blocks {
        let y = apply(block)?;
        acc = Some(match acc {
            None => y,
            Some(mut a) => {
                a.axpy(1.0, &y)?;
                a
            }
        });
    }
    acc.ok_or_else(|| TensorError::InvalidArgument("strategy produced no expert blocks".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One rank's output over the whole `bank` under `strategy`, the
    /// way serving computes it, on uniform bins of `rows / ΔE` rows.
    fn served(bank: &ExpertsBlock, strategy: Parallelism, shards: usize, rows: &Tensor) -> Tensor {
        let per = rows.dims()[0] / bank.local_experts();
        let offsets: Vec<usize> = (0..=bank.local_experts()).map(|e| e * per).collect();
        let blocks = rank_blocks(bank, strategy, 1, 0, shards).unwrap();
        shard_sum(&blocks, |b| b.infer_grouped(rows, &offsets)).unwrap()
    }

    #[test]
    fn p1_and_p2_compute_identical_outputs() {
        let mut rng = Rng::seed(1);
        for shards in [1, 2, 4] {
            let bank = ExpertsBlock::new(2, 6, 8, &mut rng);
            let rows = rng.normal_tensor(&[10, 6], 0.0, 1.0);
            let y1 = served(&bank, Parallelism::P1, shards, &rows);
            let y2 = served(&bank, Parallelism::P2, shards, &rows);
            assert!(y1.sub(&y2).unwrap().max_abs() < 1e-4, "shards {shards}");
        }
    }

    #[test]
    fn gather_reconstructs_the_original_block() {
        let mut rng = Rng::seed(2);
        let full = ExpertsBlock::new(3, 4, 8, &mut rng);
        let sharded = ShardedExpertParams::from_block(&full, 4).unwrap();
        let regathered = sharded.gather().unwrap();
        let (w1a, b1a, w2a, b2a) = full.weights();
        let (w1b, b1b, w2b, b2b) = regathered.weights();
        assert_eq!(w1a, w1b);
        assert_eq!(b1a, b1b);
        assert_eq!(w2a, w2b);
        assert_eq!(b2a, b2b);
    }

    #[test]
    fn shard_bytes_divide_evenly() {
        let mut rng = Rng::seed(4);
        let full = ExpertsBlock::new(1, 4, 8, &mut rng);
        let total = (full.num_params() * 4) as u64;
        let sharded = ShardedExpertParams::from_block(&full, 2).unwrap();
        // Shards split W1/b1/W2; b2 rides on shard 0 (zeros elsewhere),
        // so each shard stores slightly more than total/R.
        assert!(sharded.shard_bytes() >= total / 2 - 64);
        assert!(sharded.shard_bytes() <= total / 2 + 64);
    }

    #[test]
    fn bf16_halves_shard_bytes() {
        let mut rng = Rng::seed(7);
        let f32_params = ShardedExpertParams::new(2, 4, 8, 2, &mut rng).unwrap();
        let f32_bytes = f32_params.shard_bytes();
        let params = f32_params.with_storage_precision(Precision::Bf16);
        assert_eq!(params.shard_bytes() * 2, f32_bytes);
    }

    #[test]
    fn bf16_p1_and_p2_still_agree() {
        let mut rng = Rng::seed(8);
        let bank = ExpertsBlock::new(2, 6, 8, &mut rng).with_storage_precision(Precision::Bf16);
        let rows = rng.normal_tensor(&[10, 6], 0.0, 1.0);
        let y1 = served(&bank, Parallelism::P1, 2, &rows);
        let y2 = served(&bank, Parallelism::P2, 2, &rows);
        assert!(y1.sub(&y2).unwrap().max_abs() < 1e-4);
    }

    #[test]
    fn rejects_indivisible_hidden_dim() {
        let mut rng = Rng::seed(5);
        assert!(ShardedExpertParams::new(1, 4, 6, 4, &mut rng).is_err());
        assert!(ShardedExpertParams::new(1, 4, 6, 0, &mut rng).is_err());
    }

    #[test]
    fn single_shard_is_the_trivial_case() {
        let mut rng = Rng::seed(6);
        let bank = ExpertsBlock::new(2, 4, 8, &mut rng);
        let rows = rng.normal_tensor(&[6, 4], 0.0, 1.0);
        let y1 = served(&bank, Parallelism::P1, 1, &rows);
        let y2 = served(&bank, Parallelism::P2, 1, &rows);
        assert_eq!(y1, y2);
    }

    #[test]
    fn labels_are_the_grid_spelling() {
        assert_eq!(Parallelism::P1.label(), "P1");
        assert_eq!(Parallelism::P2.label(), "P2");
        assert_eq!(Parallelism::P1.to_string(), "P1 (EP+DP)");
    }
}
