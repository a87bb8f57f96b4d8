//! Elementwise and reduction operations used by gating and training.
//!
//! GELU (tanh approximation) is defined once, as the kernel table's
//! `gelu` / `gelu_backward` entries: one generic body each in
//! [`dispatch`](crate::dispatch), evaluated as `x·σ(2u)` with one
//! `exp_neg` and one divide (no libm call: rule 4 there). The expert
//! FFN runs them inside its grouped-GEMM epilogues.

use crate::{Result, Tensor, TensorError};

/// Per-row top-k result: `(indices, values)`, each a flat row-major
/// `rows · k` array (row `r`'s selections are `[r·k .. (r+1)·k]`).
pub type TopK = (Vec<u32>, Vec<f32>);

/// Rows per parallel chunk of [`Tensor::topk_last`] (fixed: part of the
/// determinism contract, never derived from pool size).
const TOPK_ROWS: usize = 64;

/// Column `col` holding `v` as one integer in top-k order, larger
/// being better: the value's order bits above the inverted column.
/// `+ 0.0` maps −0 to +0; flipping every bit of a negative and the sign
/// bit of a positive makes the bits monotone in value; every NaN takes
/// 0, below −∞. Ties (and every NaN) so fall through to the lower
/// column, and no two columns of a row share a key.
#[inline(always)]
fn topk_key(v: f32, col: u32) -> u64 {
    let bits = (v + 0.0).to_bits();
    let ordered = bits ^ (((bits as i32) >> 31) as u32 | 0x8000_0000);
    let ordered = if v.is_nan() { 0 } else { ordered };
    (u64::from(ordered) << 32) | u64::from(!col)
}

/// Whether a top-`k` over rows of `cols` is defined: `k` is positive,
/// at most `cols`, and every index fits a `u32`.
pub(crate) fn check_top_k(k: usize, cols: usize) -> Result<()> {
    if k == 0 || k > cols || u32::try_from(cols).is_err() {
        return Err(TensorError::InvalidArgument(format!(
            "top-k with k={k} over axis of length {cols}"
        )));
    }
    Ok(())
}

/// `t`'s last-axis length, if a top-`k` over it is defined
/// ([`check_top_k`]).
fn top_k_cols(t: &Tensor, k: usize) -> Result<usize> {
    let cols = *t.dims().last().unwrap_or(&0);
    check_top_k(k, cols).map(|()| cols)
}

/// Rows per parallel chunk of [`Tensor::softmax_last`] and
/// [`Tensor::softmax_top_k_last`] (fixed, as [`TOPK_ROWS`]).
const SOFTMAX_ROWS: usize = 64;

/// The gate's per-row function over a block of logits `rows` laid out
/// `(R, E)` with `E = cols`: each row's softmax in place
/// ([`Tensor::softmax_last`]'s passes), then the top `k` of the
/// probabilities into that row's slots of `idx` / `val`, each `(R, k)`
/// ([`Tensor::topk_last`]'s keys) — one call of the kernel table's
/// `softmax_rows` row-block entry. A router runs it in its logits
/// launch's row-block epilogue; its bits are the unfused chain's.
///
/// # Panics
///
/// If `rows` is not whole rows of `cols`, or `idx` and `val` do not
/// both hold `k` slots per row for one `k` in `1..=cols`.
pub(crate) fn softmax_top_k_rows(rows: &mut [f32], cols: usize, idx: &mut [u32], val: &mut [f32]) {
    let n = rows.len().checked_div(cols).unwrap_or(0);
    let k = idx.len().checked_div(n).unwrap_or(0);
    assert!(
        rows.len() == n * cols
            && idx.len() == n * k
            && val.len() == idx.len()
            && (n == 0 || (1..=cols).contains(&k)),
        "softmax_top_k_rows: {} values, {cols} per row, {} / {} top-k slots",
        rows.len(),
        idx.len(),
        val.len()
    );
    if n == 0 {
        return;
    }
    (crate::dispatch::table().softmax_rows)(rows, cols, idx, val);
}

/// One row's top `idx.len()`: a single scan that keeps the best columns
/// so far in `idx`, best first, re-deriving a kept column's key from
/// the row when an insertion passes it; then the values, read back
/// from the row so they keep its bits. The scalar table's `topk`, and
/// the reference for the SIMD tables' [`topk_by_max`].
pub(crate) fn topk_scan(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
    let k = idx.len();
    let key_of = |col: u32| topk_key(row[col as usize], col);
    // `filled` columns are kept; once `k` are, a column must beat the
    // last one's key, `worst`.
    let (mut filled, mut worst) = (0, 0);
    for (j, &v) in (0u32..).zip(row) {
        let key = topk_key(v, j);
        if filled == k && key < worst {
            continue;
        }
        let mut i = filled.min(k - 1);
        filled = (filled + 1).min(k);
        while i > 0 && key_of(idx[i - 1]) < key {
            idx[i] = idx[i - 1];
            i -= 1;
        }
        idx[i] = j;
        if filled == k {
            worst = key_of(idx[k - 1]);
        }
    }
    for (v, &col) in val.iter_mut().zip(idx.iter()) {
        *v = row[col as usize];
    }
}

/// Lanes of one [`topk_by_max`] pass.
const TOPK_LANES: usize = 16;

/// [`topk_scan`]'s selection as `idx.len()` passes of an integer max:
/// the top `k` are the `k` largest of the row's unique [`topk_key`]s,
/// so pass `i` takes the largest key below pass `i − 1`'s
/// ([`topk_pass`]). The column is the key's inverted low half and the
/// value is read back from the row. A max is associative, so every lane
/// width picks the same keys and the result is `topk_scan`'s bit for
/// bit. Written once: the SIMD tables' `topk` entries are this body
/// compiled for their features, and their `softmax_rows` entries run
/// [`topk_pass`] over a few rows at a time.
#[inline(always)]
pub(crate) fn topk_by_max(row: &[f32], idx: &mut [u32], val: &mut [f32]) {
    let mut below = u64::MAX;
    for (slot, v) in idx.iter_mut().zip(val.iter_mut()) {
        below = topk_pass(row, below);
        (*slot, *v) = topk_pick(row, below);
    }
}

/// One [`topk_by_max`] pass: the largest key of `row` below `below`,
/// over [`TOPK_LANES`] `u64` lanes with no branch on the data.
#[inline(always)]
pub(crate) fn topk_pass(row: &[f32], below: u64) -> u64 {
    let mut best = [0u64; TOPK_LANES];
    let mut chunks = row.chunks_exact(TOPK_LANES);
    let mut first = 0u32;
    for chunk in &mut chunks {
        max_keys_below(&mut best, chunk, first, below);
        first += TOPK_LANES as u32;
    }
    // The last `E mod 16` columns, in the first lanes.
    max_keys_below(&mut best, chunks.remainder(), first, below);
    best.into_iter().fold(0, u64::max)
}

/// The column a pass's key names, and its value read back from `row`.
#[inline(always)]
pub(crate) fn topk_pick(row: &[f32], key: u64) -> (u32, f32) {
    let col = !(key as u32);
    (col, row[col as usize])
}

/// `best[l] = max(best[l], key)` for each lane's [`topk_key`] that lies
/// below `below` (0 otherwise, the lane max's identity: every real key
/// is above 0, since `!col` is nonzero for a `u32` column below
/// `u32::MAX`).
#[inline(always)]
fn max_keys_below(best: &mut [u64; TOPK_LANES], chunk: &[f32], first: u32, below: u64) {
    for ((b, &x), col) in best.iter_mut().zip(chunk).zip(first..) {
        let key = topk_key(x, col);
        *b = (*b).max(if key < below { key } else { 0 });
    }
}

impl Tensor {
    /// Elementwise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn add(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Elementwise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn sub(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// Elementwise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn mul(&self, rhs: &Tensor) -> Result<Tensor> {
        self.zip_with(rhs, "mul", |a, b| a * b)
    }

    /// In-place `self += alpha * rhs` (axpy), the accumulation primitive
    /// used by gradient updates and P2's local sum-reduction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Tensor) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: rhs.dims().to_vec(),
                op: "axpy",
            });
        }
        for (a, b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by a scalar, returning a new tensor.
    pub fn scale(&self, alpha: f32) -> Tensor {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v *= alpha;
        }
        out
    }

    /// Applies a function elementwise, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        let mut out = self.clone();
        for v in out.as_mut_slice() {
            *v = f(*v);
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements (0 for empty tensors).
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum absolute element (0 for empty tensors).
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, v| m.max(v.abs()))
    }

    /// Squared L2 norm.
    pub fn sq_norm(&self) -> f32 {
        self.as_slice().iter().map(|v| v * v).sum()
    }

    /// Clips the tensor's L2 norm to `max_norm` in place (gradient
    /// clipping). No-op if the norm is already within bounds.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub fn clip_norm(&mut self, max_norm: f32) {
        if let Some(scale) = self.clip_scale(max_norm) {
            for v in self.as_mut_slice() {
                *v *= scale;
            }
        }
    }

    /// The factor [`Self::clip_norm`] scales by, `max_norm / ‖self‖`,
    /// or `None` when the norm is within `max_norm`.
    ///
    /// # Panics
    ///
    /// Panics if `max_norm` is not positive.
    pub(crate) fn clip_scale(&self, max_norm: f32) -> Option<f32> {
        assert!(max_norm > 0.0, "max_norm must be positive");
        let norm = self.sq_norm().sqrt();
        (norm > max_norm).then(|| max_norm / norm)
    }

    /// Row-wise softmax over the last axis.
    ///
    /// For a gating logits tensor of shape `(T, E)` this produces the
    /// routing probabilities of Figure 18 line 2. Rows are processed
    /// in fixed 64-row chunks on the `tutel-rt` pool, one call of the
    /// active kernel table's `softmax_rows` entry each, and each row in
    /// four passes: a lane-tree max, `exp(v − max)` as the kernels'
    /// `exp_neg(max − v)` (8 or 16 lanes at a time in the SIMD tables;
    /// `+0` where it would be subnormal), a lane-tree
    /// sum, and a lanewise divide. Each row's arithmetic is
    /// self-contained and every pass is bitwise-identical across kernel
    /// tables, so results are bit-identical for any worker count and any
    /// `TUTEL_SIMD` setting. [`Tensor::softmax_top_k_last`] and the
    /// gate's row function run the same entry.
    // check:hot
    pub fn softmax_last(&self) -> Tensor {
        let cols = *self.dims().last().unwrap_or(&1);
        let mut out = crate::scratch::copy_of(self);
        if cols == 0 {
            return out;
        }
        tutel_rt::parallel_chunks(out.as_mut_slice(), SOFTMAX_ROWS * cols, |_, chunk| {
            (crate::dispatch::table().softmax_rows)(chunk, cols, &mut [], &mut []);
        });
        out
    }

    /// The gate's fused forward over the last axis, in place: every row
    /// becomes its [`softmax_last`](Self::softmax_last) and its top
    /// `k` of those probabilities are returned as
    /// [`topk_last`](Self::topk_last) would return them — the same
    /// bits, from one pass over each row (the gate's row function) in
    /// one launch of fixed 64-row chunks on the pool.
    ///
    /// # Errors
    ///
    /// As [`topk_last`](Self::topk_last), checked before any row is
    /// touched.
    // check:hot
    pub fn softmax_top_k_last(&mut self, k: usize) -> Result<TopK> {
        let cols = top_k_cols(self, k)?;
        let rows = self.len() / cols;
        let (mut idxs, mut vals) = (vec![0u32; rows * k], vec![0.0f32; rows * k]);
        let probs = self.as_mut_slice();
        let beside_idx = tutel_rt::SameRanges::with_rows(probs, cols, [idxs.as_mut_slice()], k);
        let beside_val = tutel_rt::SameRanges::with_rows(probs, cols, [vals.as_mut_slice()], k);
        tutel_rt::parallel_chunks(probs, SOFTMAX_ROWS * cols, |_, chunk| {
            let (chunk, [idx]) = beside_idx.split(chunk);
            let (chunk, [val]) = beside_val.split(chunk);
            softmax_top_k_rows(chunk, cols, idx, val);
        });
        Ok((idxs, vals))
    }

    /// Backward of [`Tensor::softmax_last`]: given `y = softmax(x)` (this
    /// tensor) and upstream gradient `dy`, returns `dx`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if shapes differ.
    // check:hot
    pub fn softmax_last_backward(&self, upstream: &Tensor) -> Result<Tensor> {
        if self.shape() != upstream.shape() {
            return Err(TensorError::shape_mismatch(
                "softmax_last_backward",
                self.dims(),
                upstream.dims(),
            ));
        }
        let cols = *self.dims().last().unwrap_or(&1);
        let mut out = crate::scratch::copy_of(self);
        if cols == 0 {
            return Ok(out);
        }
        for ((yrow, grow), orow) in self
            .as_slice()
            .chunks(cols)
            .zip(upstream.as_slice().chunks(cols))
            .zip(out.as_mut_slice().chunks_mut(cols))
        {
            let dot: f32 = yrow.iter().zip(grow).map(|(y, g)| y * g).sum();
            for j in 0..cols {
                orow[j] = yrow[j] * (grow[j] - dot);
            }
        }
        Ok(out)
    }

    /// Per-row top-k over the last axis: returns `(indices, values)`,
    /// each a flat `rows · k` array, every row's `k` sorted by descending
    /// value (ties broken by lower index, matching deterministic GPU
    /// top-k). The order is strict and total: `-0.0` equals `+0.0`, and
    /// NaN (of either sign) sorts after every number, so it is selected
    /// only when a row holds fewer than `k` numbers. Values are read
    /// back from the row, bit for bit.
    ///
    /// Each row runs the kernel table's `topk` (one code path for every
    /// `k`): the scalar table scans the row once keeping its best `k` in
    /// order; the SIMD tables take `k` passes of a branch-free 16-lane
    /// integer max over the columns' unique keys, which selects the same
    /// columns. Rows run in fixed 64-row chunks on the `tutel-rt` pool,
    /// so the result is the same for any worker count and any table.
    /// This is the unfused spelling: the gate's forward runs the same
    /// entry on each row right after its softmax, inside the router's
    /// launch (the gate's row function, [`Tensor::softmax_top_k_last`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `k` is zero, larger
    /// than the last-axis length, or that length does not fit a `u32`
    /// index.
    // check:hot
    pub fn topk_last(&self, k: usize) -> Result<TopK> {
        let cols = top_k_cols(self, k)?;
        let rows = self.len() / cols;
        let (mut idxs, mut vals) = (vec![0u32; rows * k], vec![0.0f32; rows * k]);
        let beside = tutel_rt::SameRanges::new(&idxs, [vals.as_mut_slice()]);
        let x = self.as_slice();
        tutel_rt::parallel_chunks(&mut idxs, TOPK_ROWS * k, |blk, chunk| {
            let (idx, [val]) = beside.split(chunk);
            let (rows, topk) = (
                x[blk * TOPK_ROWS * cols..].chunks(cols),
                crate::dispatch::table().topk,
            );
            for ((row, idx), val) in rows.zip(idx.chunks_mut(k)).zip(val.chunks_mut(k)) {
                topk(row, idx, val);
            }
        });
        Ok((idxs, vals))
    }

    fn zip_with(
        &self,
        rhs: &Tensor,
        op: &'static str,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor> {
        if self.shape() != rhs.shape() {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: rhs.dims().to_vec(),
                op,
            });
        }
        let mut out = self.clone();
        for (a, b) in out.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a = f(*a, *b);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f32, b: f32) -> bool {
        (a - b).abs() < 1e-5
    }

    #[test]
    fn in_place_and_capturing_gelu_agree_bit_for_bit() {
        let n = 83;
        let h_pre: Vec<f32> = (0..n).map(|i| (i as f32 - 41.0) * 0.17).collect();
        for force in [false, true] {
            crate::dispatch::with_simd_mode(Some(force), || {
                let kt = crate::dispatch::table();
                let mut captured = h_pre.clone();
                let mut d = vec![0.0; n];
                (kt.gelu)(&mut captured, Some(&mut d));
                let mut in_place = h_pre.clone();
                (kt.gelu)(&mut in_place, None);
                assert_eq!(in_place, captured);
                for i in 0..n {
                    let one = crate::dispatch::tests::gelu_one(h_pre[i]);
                    assert_eq!(one, (captured[i], d[i]), "i={i}");
                }

                // The backward scales, elementwise and in place: run on
                // ones it yields the captured derivative, run on any
                // upstream it yields that upstream times the derivative.
                let mut derivative = vec![1.0; n];
                (kt.gelu_backward)(&d, &mut derivative);
                assert_eq!(derivative, d);
                let upstream: Vec<f32> = (0..n).map(|i| 0.3 + i as f32 * 0.01).collect();
                let mut scaled = upstream.clone();
                (kt.gelu_backward)(&d, &mut scaled);
                for i in 0..n {
                    assert_eq!(scaled[i], upstream[i] * d[i], "i={i}");
                }
            });
        }
    }

    #[test]
    fn topk_sorts_nan_last_without_moving_numbers() {
        let nan = f32::NAN;
        // NaN in every third column: the selection picks among the
        // numbers exactly as if the NaNs were absent.
        let row: Vec<f32> = (0..64)
            .map(|i| {
                if i % 3 == 0 {
                    nan
                } else {
                    (i * 37 % 64) as f32
                }
            })
            .collect();
        let t = Tensor::from_vec(row.repeat(64), &[64, 64]).unwrap();
        let clean = t.map(|v| if v.is_nan() { f32::NEG_INFINITY } else { v });
        let (idxs, vals) = t.topk_last(8).unwrap();
        assert_eq!(idxs, clean.topk_last(8).unwrap().0);
        assert_eq!((idxs.len(), vals.len()), (64 * 8, 64 * 8));
        assert!(vals.iter().all(|v| !v.is_nan()));
        // Fewer numbers than k: NaNs of either sign fill the tail, in
        // index order.
        let neg_nan = f32::from_bits(0xffc0_0000);
        let few = [nan, 2.0, neg_nan, 5.0, 1.0, neg_nan, 7.0, nan];
        let few = Tensor::from_vec(few.to_vec(), &[2, 4]).unwrap();
        let (idxs, _) = few.topk_last(4).unwrap();
        assert_eq!(idxs, vec![3, 1, 0, 2, 2, 0, 1, 3]);
    }

    #[test]
    fn topk_ties_signed_zeros_and_keeps_their_bits() {
        // -0.0 == +0.0: the lower index wins, and each value comes back
        // with its own sign bit.
        let t = Tensor::from_vec(vec![-1.0, 0.0, -0.0, f32::NEG_INFINITY, -0.0], &[1, 5]).unwrap();
        let (idxs, vals) = t.topk_last(5).unwrap();
        assert_eq!(idxs, vec![1, 2, 4, 0, 3]);
        let bits: Vec<u32> = vals.iter().map(|v| v.to_bits()).collect();
        let want = [0.0f32, -0.0, -0.0, -1.0, f32::NEG_INFINITY];
        assert_eq!(bits, want.map(f32::to_bits));
    }

    #[test]
    fn add_sub_mul_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, -2.0, 3.0], &[3]).unwrap();
        let b = Tensor::from_vec(vec![0.5, 4.0, -1.0], &[3]).unwrap();
        assert_eq!(a.add(&b).unwrap().sub(&b).unwrap(), a);
        assert_eq!(a.mul(&b).unwrap().as_slice(), &[0.5, -8.0, -3.0]);
        assert!(a.add(&Tensor::zeros(&[2])).is_err());
    }

    #[test]
    fn axpy_accumulates() {
        let mut a = Tensor::ones(&[3]);
        let b = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[3]).unwrap();
        a.axpy(2.0, &b).unwrap();
        assert_eq!(a.as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0], &[2, 3]).unwrap();
        let s = t.softmax_last();
        for row in s.as_slice().chunks(3) {
            assert!(close(row.iter().sum::<f32>(), 1.0));
            assert!(row.iter().all(|&v| v > 0.0));
        }
        // Monotonicity within a row.
        assert!(s.at(&[0, 2]) > s.at(&[0, 1]));
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0], &[1, 3]).unwrap();
        let b = a.map(|v| v + 100.0);
        let (sa, sb) = (a.softmax_last(), b.softmax_last());
        for (x, y) in sa.as_slice().iter().zip(sb.as_slice()) {
            assert!(close(*x, *y));
        }
    }

    #[test]
    fn softmax_backward_matches_finite_difference() {
        let x = Tensor::from_vec(vec![0.3, -0.7, 1.2, 0.1], &[1, 4]).unwrap();
        let y = x.softmax_last();
        let upstream = Tensor::from_vec(vec![1.0, -0.5, 0.25, 2.0], &[1, 4]).unwrap();
        let analytic = y.softmax_last_backward(&upstream).unwrap();
        let eps = 1e-3;
        for i in 0..4 {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp: f32 = xp.softmax_last().mul(&upstream).unwrap().sum();
            let lm: f32 = xm.softmax_last().mul(&upstream).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - analytic.as_slice()[i]).abs() < 1e-3,
                "fd {} vs analytic {}",
                fd,
                analytic.as_slice()[i]
            );
        }
    }

    #[test]
    fn softmax_is_bit_identical_across_simd_modes() {
        if !crate::dispatch::simd_available() {
            return;
        }
        let mut rng = crate::Rng::seed(31);
        // Wide rows (several 8-lane blocks + tail) and narrow rows
        // (pure tail) both must agree bit-for-bit.
        for cols in [3usize, 17, 64] {
            let x = rng.normal_tensor(&[37, cols], 0.0, 3.0);
            let scalar = crate::dispatch::with_simd_mode(Some(false), || x.softmax_last());
            let simd = crate::dispatch::with_simd_mode(Some(true), || x.softmax_last());
            for (a, b) in scalar.as_slice().iter().zip(simd.as_slice()) {
                assert_eq!(a.to_bits(), b.to_bits(), "cols {cols}");
            }
        }
    }

    #[test]
    fn topk_orders_descending_with_index_tiebreak() {
        let t = Tensor::from_vec(vec![0.1, 0.9, 0.9, 0.3], &[1, 4]).unwrap();
        let (idxs, vals) = t.topk_last(3).unwrap();
        assert_eq!(idxs, vec![1, 2, 3]);
        assert_eq!(vals, vec![0.9, 0.9, 0.3]);
    }

    #[test]
    fn topk_validates_k() {
        let t = Tensor::zeros(&[2, 3]);
        assert!(t.topk_last(0).is_err());
        assert!(t.topk_last(4).is_err());
        assert!(t.topk_last(3).is_ok());
    }

    /// The captured derivative against central differences, into the
    /// far negative tail and the saturated positive side; no derivative
    /// is subnormal there (a subnormal `gelu'` slows every backward lane
    /// that meets it).
    #[test]
    fn gelu_backward_matches_finite_difference() {
        let x = [-12.0f32, -7.5, -6.0, -5.0, -3.0, 0.0, 3.0, 6.0, 12.0];
        let gelu = |v: f32| crate::dispatch::tests::gelu_one(v).0;
        let (mut h, mut d) = (x, [0.0f32; 9]);
        (crate::dispatch::table().gelu)(&mut h, Some(&mut d));
        let mut analytic = [1.0f32; 9];
        (crate::dispatch::table().gelu_backward)(&d, &mut analytic);
        let eps = 1e-3;
        for (&x, &d) in x.iter().zip(&analytic) {
            let fd = (gelu(x + eps) - gelu(x - eps)) / (2.0 * eps);
            assert!((fd - d).abs() < 1e-2, "x {x}: fd {fd} vs analytic {d}");
            assert!(!d.is_subnormal(), "gelu'({x}) = {d:e}");
        }
    }

    #[test]
    fn clip_norm_scales_only_when_needed() {
        let mut t = Tensor::from_vec(vec![3.0, 4.0], &[2]).unwrap();
        t.clip_norm(10.0);
        assert_eq!(t.as_slice(), &[3.0, 4.0]);
        t.clip_norm(1.0);
        assert!((t.sq_norm().sqrt() - 1.0).abs() < 1e-6);
        assert!((t.as_slice()[0] - 0.6).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn clip_norm_rejects_nonpositive() {
        Tensor::ones(&[2]).clip_norm(0.0);
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![1.0, -3.0, 2.0], &[3]).unwrap();
        assert!(close(t.sum(), 0.0));
        assert!(close(t.mean(), 0.0));
        assert!(close(t.max_abs(), 3.0));
        assert!(close(t.sq_norm(), 14.0));
    }
}
