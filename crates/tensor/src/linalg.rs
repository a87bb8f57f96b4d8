//! Matrix multiplication: the `fflayer` compute primitive.
//!
//! Expert FFNs in the paper are computed as strided batched GEMMs
//! (`bgemm_strided_batched` in PyTorch); the simulator's cost model keys
//! off the same shapes these functions take.
//!
//! # One launch per transposition
//!
//! Every product in the workspace is one of three grouped launches over
//! CSR row bins — [`grouped_gemm`] (`A·B`), [`grouped_gemm_nt_into`]
//! (`A·Bᵀ`) and [`grouped_gemm_tn`] (`Aᵀ·B`) — and they (with
//! [`grouped_gemm_into`], `A·B`'s storing form) are the only functions
//! that touch the microkernels. A dense
//! product is the one-group launch: [`Tensor::matmul`],
//! [`Tensor::matmul_nt`] and [`Tensor::matmul_tn`] pass the single bin
//! `[0, rows]`, [`Tensor::bmm`] passes [`uniform_offsets`]. A backward
//! pass that accumulates straight into a gradient buffer calls the
//! grouped function itself with the same one-bin offsets.
//!
//! The `_into` launches *store* their product and take a per-row-block
//! epilogue: each block is zero-filled, computed and then handed to the
//! caller's closure inside one pool job, which is how the expert FFN
//! applies bias and GELU (GELU′ in its backward) while the block is
//! still in cache. The epilogue is elementwise per block, so it
//! inherits the launch's determinism. `A·B` also accumulates
//! ([`grouped_gemm`]), and `Aᵀ·B` only accumulates: its callers sum
//! weight gradients.
//!
//! # Kernel design
//!
//! * the output is split into fixed [`ROW_BLOCK`]-row chunks laid out
//!   *within* each group — block boundaries depend only on the offsets,
//!   never the worker count, so results are **bit-identical for every
//!   `TUTEL_THREADS`** (a launch parallelizes over `groups ×
//!   row-blocks`);
//! * inside a block, the `k` dimension is tiled by [`KC`] and the
//!   table's register micro-tiles accumulate with a fixed, branch-free
//!   inner loop kept in vector registers, up to [`MR`] (12) rows a
//!   call — `× 32` on AVX-512, then `× `[`TILE_COLS`] (16) for a
//!   remainder that is wide enough, then the table's edge tile. Each
//!   element is a chain of fused multiply-adds from zero within a
//!   panel, and the panel sums add into the output in panel order.
//!   Neither operand is copied: A is read in place (an `A·B` tile reads
//!   rows `k` apart at step 1, an `Aᵀ·B` tile adjacent rows at step
//!   `m`) and B at stride `n`;
//! * `A·Bᵀ` reads both operands along `k`, so it is `A·B` over a
//!   transposed B: each group's B is first written out as a row-major
//!   `Bᵀ` (an arena buffer, one pool job of per-group chunks), then
//!   `A·B`'s row blocks and epilogue run over it. Its elements take
//!   `A·B`'s order, so `A·Bᵀ(a, b)` is `A·B(a, bᵀ)` bit for bit;
//! * there is no value-sparsity branch: on dense operands an
//!   `av == 0.0` skip costs more than the multiply and blocks
//!   vectorization.

use crate::dispatch::{self, MR};
use crate::ops::{check_top_k, softmax_top_k_rows, TopK};
use crate::{scratch, Result, Tensor, TensorError};

/// `k`-dimension panel depth: a tile's A rows span `KC × MR` floats
/// (12 KiB), L1-resident. Part of every element's accumulation order
/// (a sum restarts from zero per panel), so it is fixed.
const KC: usize = 256;
/// Output rows per parallel chunk, a multiple of [`MR`]. Fixed (never
/// derived from worker count) so chunk boundaries are identical for
/// every pool size.
const ROW_BLOCK: usize = 48;

/// The operand check every product shares: both tensors have rank
/// `rank`, and each `(l, r)` in `agree` names axes that must be equal
/// (`lhs.dims()[l] == rhs.dims()[r]` — the contracted axis, and the
/// batch axis for `bmm`).
fn check_operands(
    op: &'static str,
    lhs: &Tensor,
    rhs: &Tensor,
    rank: usize,
    agree: &[(usize, usize)],
) -> Result<()> {
    for t in [lhs, rhs] {
        if t.rank() != rank {
            return Err(TensorError::RankMismatch {
                expected: rank,
                actual: t.rank(),
                op,
            });
        }
    }
    if agree.iter().any(|&(l, r)| lhs.dims()[l] != rhs.dims()[r]) {
        return Err(TensorError::shape_mismatch(op, lhs.dims(), rhs.dims()));
    }
    Ok(())
}

impl Tensor {
    /// Matrix product of two rank-2 tensors: `(m, k) × (k, n) → (m, n)`.
    /// The one-group [`grouped_gemm`] launch.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-matrices, or
    /// [`TensorError::ShapeMismatch`] if the inner dimensions disagree.
    // check:hot
    pub fn matmul(&self, rhs: &Tensor) -> Result<Tensor> {
        check_operands("matmul", self, rhs, 2, &[(1, 0)])?;
        let (m, k, n) = (self.dims()[0], self.dims()[1], rhs.dims()[1]);
        let mut out = scratch::zeroed(&[m, n]);
        let o = out.as_mut_slice();
        grouped_gemm(self.as_slice(), rhs.as_slice(), o, &[0, m], k, n);
        Ok(out)
    }

    /// Batched matrix product: `(b, m, k) × (b, k, n) → (b, m, n)`.
    ///
    /// This is the CPU analogue of `bgemm_strided_batched`, the operation
    /// the paper's Figure 7 profiles. Expert computation uses it with
    /// `b = ΔE` (local experts), `m = C` (capacity), `k = M`, `n = V`.
    /// Runs as a [`grouped_gemm`] over `b` equal bins of `m` rows.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] for non-rank-3 operands, or
    /// [`TensorError::ShapeMismatch`] if batch or inner dims disagree.
    // check:hot
    pub fn bmm(&self, rhs: &Tensor) -> Result<Tensor> {
        check_operands("bmm", self, rhs, 3, &[(0, 0), (2, 1)])?;
        let (b, m, k, n) = (
            self.dims()[0],
            self.dims()[1],
            self.dims()[2],
            rhs.dims()[2],
        );
        let mut out = scratch::zeroed(&[b, m, n]);
        let (o, bins) = (out.as_mut_slice(), uniform_offsets(b, m));
        grouped_gemm(self.as_slice(), rhs.as_slice(), o, &bins, k, n);
        Ok(out)
    }

    /// `self × rhsᵀ` for rank-2 tensors: `(m, k) × (n, k)ᵀ → (m, n)`.
    /// The one-group [`grouped_gemm_nt_into`] launch.
    ///
    /// Used by backward passes (`dX = dY Wᵀ`) without materializing the
    /// transpose.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::ShapeMismatch`] analogous to [`Tensor::matmul`].
    // check:hot
    pub fn matmul_nt(&self, rhs: &Tensor) -> Result<Tensor> {
        check_operands("matmul_nt", self, rhs, 2, &[(1, 1)])?;
        let (m, k, n) = (self.dims()[0], self.dims()[1], rhs.dims()[0]);
        let mut out = scratch::raw(&[m, n]);
        let (a, b, o) = (self.as_slice(), rhs.as_slice(), out.as_mut_slice());
        grouped_gemm_nt_into(a, b, o, &[0, m], k, n, |_, _, _| {});
        Ok(out)
    }

    /// The gate forward of a linear router in one launch: `self × rhs`
    /// (`(T, C) × (C, E)`) as the one-group [`grouped_gemm_into`], whose
    /// row-block epilogue turns each block of logits into its softmax
    /// and each row's top `k` of it (the gate's row function)
    /// while the block is in cache. Returns the probabilities `(T, E)`
    /// in an arena-backed tensor and the top-k as
    /// [`Tensor::topk_last`] returns it; every bit equals `matmul` →
    /// [`Tensor::softmax_last`] → [`Tensor::topk_last`].
    ///
    /// # Errors
    ///
    /// As [`Tensor::matmul`], then as [`Tensor::topk_last`] on the
    /// product's last axis.
    // check:hot
    pub fn matmul_softmax_top_k(&self, rhs: &Tensor, k: usize) -> Result<(Tensor, TopK)> {
        check_operands("matmul", self, rhs, 2, &[(1, 0)])?;
        let (m, c, n) = (self.dims()[0], self.dims()[1], rhs.dims()[1]);
        check_top_k(k, n)?;
        let mut probs = scratch::raw(&[m, n]);
        let (mut idx, mut val) = (vec![0u32; m * k], vec![0.0f32; m * k]);
        let out = probs.as_mut_slice();
        let beside_idx = tutel_rt::SameRanges::with_rows(out, n, [idx.as_mut_slice()], k);
        let beside_val = tutel_rt::SameRanges::with_rows(out, n, [val.as_mut_slice()], k);
        let (a, b) = (self.as_slice(), rhs.as_slice());
        grouped_gemm_into(a, b, out, &[0, m], c, n, |_, _, block| {
            let (block, [idx]) = beside_idx.split(block);
            let (block, [val]) = beside_val.split(block);
            softmax_top_k_rows(block, n, idx, val);
        });
        Ok((probs, (idx, val)))
    }

    /// `selfᵀ × rhs` for rank-2 tensors: `(k, m)ᵀ × (k, n) → (m, n)`.
    /// The one-group [`grouped_gemm_tn`] launch: the single bin is the
    /// `k` reduction rows.
    ///
    /// Used by backward passes (`dW = Xᵀ dY`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] or
    /// [`TensorError::ShapeMismatch`] analogous to [`Tensor::matmul`].
    // check:hot
    pub fn matmul_tn(&self, rhs: &Tensor) -> Result<Tensor> {
        check_operands("matmul_tn", self, rhs, 2, &[(0, 0)])?;
        let (k, m, n) = (self.dims()[0], self.dims()[1], rhs.dims()[1]);
        let mut out = scratch::zeroed(&[m, n]);
        let o = out.as_mut_slice();
        grouped_gemm_tn(self.as_slice(), rhs.as_slice(), o, &[0, k], m, n);
        Ok(out)
    }
}

/// CSR offsets of `groups` equal bins of `rows` rows each:
/// `[0, rows, 2·rows, …]`. The padded `(G, rows, ·)` layout is the
/// ragged layout with these offsets.
pub fn uniform_offsets(groups: usize, rows: usize) -> Vec<usize> {
    (0..=groups).map(|g| g * rows).collect()
}

/// Grouped `out += a · b` over ragged expert bins — the dropless
/// compute primitive. `a` is a packed `(R, k)` buffer whose rows are
/// partitioned into `G = offsets.len() - 1` variable-length groups by
/// the CSR-style `offsets` prefix sum (`R = offsets[G]`); `b` holds one
/// `(k, n)` weight matrix per group; `out` is packed `(R, n)`.
///
/// One launch covers every bin: row blocks are laid out *within* each
/// group (block `i` of group `g` starts at group-relative row
/// `i · ROW_BLOCK`), so the blocking grid — and therefore each row's
/// accumulation order — is a function of `offsets` alone, never the
/// worker count. Because the packed microkernel gives every output row
/// an independent accumulator lane, a row's bits also never depend on
/// which rows share its micro-tile: grouped results are bit-identical
/// to running the padded per-expert GEMM on the same rows.
pub fn grouped_gemm(a: &[f32], b: &[f32], out: &mut [f32], offsets: &[usize], k: usize, n: usize) {
    if k > 0 {
        nn(a, b, out, offsets, k, n, false, |_, _, _| {});
    }
}

/// Grouped `out = epilogue(a · b)` over the same layouts — `a` packed
/// `(R, k)`, `b` `(G, k, n)`, `out` packed `(R, n)`: the
/// [`grouped_gemm`] product *stored* rather than added (each row block
/// is zero-filled inside its own pool job, so `out`'s prior contents
/// are never read — an unzeroed arena buffer will do), then finished
/// by `epilogue(group, first_row, block)` in that same job, while the
/// block is still in cache. `first_row` is group-relative and `block`
/// is that group's rows `first_row..first_row + block.len() / n`.
/// Every block runs its epilogue even when `k == 0`, so a bias or an
/// activation still lands on an empty reduction.
#[allow(clippy::too_many_arguments)]
pub fn grouped_gemm_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    offsets: &[usize],
    k: usize,
    n: usize,
    epilogue: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    nn(a, b, out, offsets, k, n, true, epilogue);
}

/// The `A·B` launch behind [`grouped_gemm`] / [`grouped_gemm_into`].
#[allow(clippy::too_many_arguments)]
fn nn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    offsets: &[usize],
    k: usize,
    n: usize,
    store: bool,
    epilogue: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let total = offsets.last().copied().unwrap_or(0);
    debug_assert_eq!(a.len(), total * k);
    debug_assert_eq!(b.len(), offsets.len().saturating_sub(1) * k * n);
    row_blocks(out, offsets, n, store, |g, r0, chunk| {
        let a_blk = &a[(offsets[g] + r0) * k..offsets[g + 1] * k];
        block(a_blk, (k, 1), &b[g * k * n..(g + 1) * k * n], chunk, k, n);
        epilogue(g, r0, chunk);
    });
}

/// Grouped `out = epilogue(a · bᵀ)` over ragged bins: `a` packed
/// `(R, k)`, `b` one `(n, k)` matrix per group (row-major over `k`),
/// `out` packed `(R, n)`. The backward-input primitive
/// (`dH = dY · W2ᵀ`). Each group's `b` is transposed into a `(k, n)`
/// arena buffer first, in one pool job of one chunk per group (an
/// empty group's is skipped), and [`grouped_gemm_into`] then runs over
/// it: every output element is the `A·B` launch's on `bᵀ`, bit for
/// bit, stored and finished block by block (pass `|_, _, _| {}` for
/// the bare product).
#[allow(clippy::too_many_arguments)]
pub fn grouped_gemm_nt_into(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    offsets: &[usize],
    k: usize,
    n: usize,
    epilogue: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let total = offsets.last().copied().unwrap_or(0);
    let groups = offsets.len().saturating_sub(1);
    debug_assert_eq!(b.len(), groups * n * k);
    if total == 0 || n == 0 {
        return;
    }
    let mut bt = Vec::new();
    if k > 0 {
        bt = tutel_rt::arena().take_raw(groups * k * n);
        tutel_rt::parallel_chunks(&mut bt, k * n, |g, bt_g| {
            if offsets[g + 1] > offsets[g] {
                transpose(&b[g * n * k..(g + 1) * n * k], k, n, bt_g);
            }
        });
    }
    nn(a, &bt, out, offsets, k, n, true, epilogue);
    tutel_rt::arena().put(bt);
}

/// B rows per pass of [`transpose`]: each pass writes runs of this many
/// adjacent elements and reads as many rows side by side.
const TRANSPOSE_ROWS: usize = 16;

/// Writes `b (n × k)` transposed into `bt (k × n)`.
fn transpose(b: &[f32], k: usize, n: usize, bt: &mut [f32]) {
    for j0 in (0..n).step_by(TRANSPOSE_ROWS) {
        let rows = &b[j0 * k..(j0 + TRANSPOSE_ROWS).min(n) * k];
        for (p, bt_row) in bt.chunks_exact_mut(n).enumerate() {
            for (v, brow) in bt_row[j0..].iter_mut().zip(rows.chunks_exact(k)) {
                *v = brow[p];
            }
        }
    }
}

/// Runs `job(group, first_row, block)` over the row blocks of a packed
/// `(R, cols)` output on the pool (one job per launch), zero-filling
/// each block first when `store`. Blocks and their order come from
/// [`grouped_ranges`] alone.
fn row_blocks(
    out: &mut [f32],
    offsets: &[usize],
    cols: usize,
    store: bool,
    job: impl Fn(usize, usize, &mut [f32]) + Sync,
) {
    let total = offsets.last().copied().unwrap_or(0);
    debug_assert_eq!(out.len(), total * cols);
    if offsets.len() < 2 || total == 0 || cols == 0 {
        return;
    }
    let (ranges, meta) = grouped_ranges(offsets, cols);
    tutel_rt::parallel_ranges(out, &ranges, |idx, chunk| {
        let (g, r0) = meta[idx];
        if store {
            chunk.fill(0.0);
        }
        job(g, r0, chunk);
    });
}

/// Grouped `out_g += a_gᵀ · b_g` over ragged bins: `a` packed
/// `(R, ma)`, `b` packed `(R, n)`, `out` dense `(G, ma, n)`. The
/// weight-gradient primitive (`dW = Xᵀ dY`): each group's row count is
/// its reduction length, so bins reduce independently and empty bins
/// leave their `out` slab untouched.
///
/// **Split-k.** A group whose reduction is longer than one `KC` (256-row) panel
/// runs each panel of each of its row blocks as its own job, in the
/// same launch, into an arena partial that starts at `-0.0` (the exact
/// additive identity: a `-0.0` panel sum stays `-0.0`). The partials
/// are then folded into `out` in panel order, the order in which an
/// unsplit block adds its panel sums, so the result is the same bits
/// for every worker count — and a long router or heavy-expert
/// reduction no longer serializes the launch on one worker.
pub fn grouped_gemm_tn(
    a: &[f32],
    b: &[f32],
    out: &mut [f32],
    offsets: &[usize],
    ma: usize,
    n: usize,
) {
    let groups = offsets.len().saturating_sub(1);
    let total = offsets.last().copied().unwrap_or(0);
    debug_assert_eq!(a.len(), total * ma);
    debug_assert_eq!(b.len(), total * n);
    debug_assert_eq!(out.len(), groups * ma * n);
    if groups == 0 || total == 0 || ma == 0 || n == 0 {
        return;
    }
    // Output blocks tile the dense (G, ma, n) buffer; the ragged axis
    // is the per-group reduction length k_g = rows_g. Whole groups'
    // blocks come first (ranges of `out`), then every panel of every
    // block of the split groups (ranges of the partials), block-major.
    let blocks_per = ma.div_ceil(ROW_BLOCK);
    let k_of = |g: usize| offsets[g + 1] - offsets[g];
    let split = |g: usize| k_of(g) > KC;
    let whole_jobs = (0..groups).filter(|&g| k_of(g) > 0 && !split(g)).count() * blocks_per;
    let panel_jobs: usize = (0..groups)
        .filter(|&g| split(g))
        .map(|g| k_of(g).div_ceil(KC) * blocks_per)
        .sum();
    let mut ranges = Vec::with_capacity(whole_jobs + panel_jobs);
    // `(group, row0, first reduction row, reduction rows)` per job.
    let mut meta = Vec::with_capacity(whole_jobs + panel_jobs);
    let bounds = |blk: usize| (blk * ROW_BLOCK, ((blk + 1) * ROW_BLOCK).min(ma));
    for g in (0..groups).filter(|&g| k_of(g) > 0 && !split(g)) {
        for (r0, r1) in (0..blocks_per).map(bounds) {
            ranges.push((g * ma * n + r0 * n, g * ma * n + r1 * n));
            meta.push((g, r0, 0, k_of(g)));
        }
    }
    let mut at = 0;
    for g in (0..groups).filter(|&g| split(g)) {
        for (r0, r1) in (0..blocks_per).map(bounds) {
            for pc in (0..k_of(g)).step_by(KC) {
                ranges.push((at, at + (r1 - r0) * n));
                meta.push((g, r0, pc, KC.min(k_of(g) - pc)));
                at += (r1 - r0) * n;
            }
        }
    }
    let mut partials = if at > 0 {
        tutel_rt::arena().take_raw(at)
    } else {
        Vec::new()
    };
    tutel_rt::parallel_ranges_pair(out, &mut partials, &ranges, whole_jobs, |idx, chunk| {
        let (g, r0, p0, k_len) = meta[idx];
        if idx >= whole_jobs {
            chunk.fill(-0.0);
        }
        let rows = offsets[g] + p0..offsets[g] + p0 + k_len;
        let a_blk = &a[rows.start * ma + r0..rows.end * ma];
        let b_blk = &b[rows.start * n..rows.end * n];
        block(a_blk, (1, ma), b_blk, chunk, k_len, n);
    });
    let add = dispatch::table().add_assign;
    for (&(s, e), &(g, r0, _, _)) in ranges.iter().zip(&meta).skip(whole_jobs) {
        let o = g * ma * n + r0 * n;
        add(&partials[s..e], &mut out[o..o + (e - s)]);
    }
    if at > 0 {
        tutel_rt::arena().put(partials);
    }
}

/// The backward of a linear layer `Y = X·W` — `x (T, C)`, `w (C, E)` —
/// whose upstream rows are made where they are used, in one launch of
/// 256-row panel jobs (`KC`, the `k`-panel depth). Job `p` owns token
/// rows `p·KC ..` (at most `KC` of them, `rows`):
///
/// 1. `d_y_rows(p·KC, d_y)` writes those rows of `dY`, `d_y` being
///    `(rows, E)` scratch of the job's own;
/// 2. `d_x += d_y · wᵀ` on those rows: the product stored from zero
///    with `A·Bᵀ`'s tiles and chains (`A·B` over a `wᵀ` transposed on
///    the calling thread), then added — [`Tensor::matmul_nt`] and an
///    add, bit for bit;
/// 3. the panel's `Xᵀ·dY` sum into a `-0.0`-started partial with
///    `Aᵀ·B`'s chains, one panel of [`grouped_gemm_tn`]'s split-k.
///
/// The partials are then added into `d_w (C, E)` in panel order, the
/// order `grouped_gemm_tn` folds them in, so every bit equals making
/// `dY` first, then `grouped_gemm_tn(x, dY, d_w, [0, T])`, then
/// `d_x += dY·wᵀ` — for any worker count. `dY` never exists whole: a
/// job's rows live in the lowest scratch slot free when it starts, so
/// the slots written are as many as jobs run at once.
///
/// # Panics
///
/// If a buffer's length disagrees with `(t, c, e)`.
pub fn linear_backward_panels(
    x: &[f32],
    w: &[f32],
    (t, c, e): (usize, usize, usize),
    d_x: &mut [f32],
    d_w: &mut [f32],
    d_y_rows: impl Fn(usize, &mut [f32]) + Sync,
) {
    assert!(
        x.len() == t * c && d_x.len() == t * c && w.len() == c * e && d_w.len() == c * e,
        "linear_backward_panels: x {} / d_x {} for (T, C) = ({t}, {c}), w {} / d_w {} for (C, E) = ({c}, {e})",
        x.len(),
        d_x.len(),
        w.len(),
        d_w.len()
    );
    if t == 0 || c == 0 || e == 0 {
        return;
    }
    // One slot per panel, so no job ever waits for one; each job takes
    // the lowest free slot, so only as many slots as jobs run at once
    // are ever written (and backed), and they stay in cache.
    let (panels, slot_len) = (t.div_ceil(KC), KC * (e + c));
    let arena = tutel_rt::arena();
    let mut wt = arena.take_raw(c * e);
    transpose(w, e, c, &mut wt);
    let mut work = arena.take_raw(panels * (slot_len + c * e));
    let (slot_bufs, partials) = work.split_at_mut(panels * slot_len);
    let slot_bufs: Vec<std::sync::Mutex<&mut [f32]>> = slot_bufs
        .chunks_exact_mut(slot_len)
        .map(std::sync::Mutex::new)
        .collect();
    let add = dispatch::table().add_assign;
    tutel_rt::parallel_chunks_zip((d_x, KC * c), (partials, c * e), |p, d_x, partial| {
        let mut slot = claim(&slot_bufs);
        let rows = d_x.len() / c;
        let (d_y, dx) = slot.split_at_mut(KC * e);
        let (d_y, dx) = (&mut d_y[..rows * e], &mut dx[..rows * c]);
        d_y_rows(p * KC, d_y);
        dx.fill(0.0);
        block(d_y, (e, 1), &wt, dx, e, c);
        add(dx, d_x);
        partial.fill(-0.0);
        block(&x[p * KC * c..], (1, c), d_y, partial, rows, e);
    });
    drop(slot_bufs);
    for partial in work[panels * slot_len..].chunks_exact(c * e) {
        add(partial, d_w);
    }
    arena.put(work);
    arena.put(wt);
}

/// The first free slot (there is one per job, so the wait never
/// happens). A slot whose holder panicked is taken as it is: every job
/// overwrites its slot's rows before reading them.
fn claim<T>(slots: &[std::sync::Mutex<T>]) -> std::sync::MutexGuard<'_, T> {
    loop {
        for slot in slots {
            match slot.try_lock() {
                Ok(guard) => return guard,
                Err(std::sync::TryLockError::Poisoned(held)) => return held.into_inner(),
                Err(std::sync::TryLockError::WouldBlock) => {}
            }
        }
        std::thread::yield_now();
    }
}

/// Element ranges plus `(group, group-relative row0)` per row block —
/// the two halves of a grouped schedule.
type GroupedSchedule = (Vec<(usize, usize)>, Vec<(usize, usize)>);

/// Row-block schedule for a packed `(R, cols)` output partitioned by
/// `offsets`: element ranges plus `(group, group-relative row0)` per
/// block. Derived from the offsets alone so the grid is identical for
/// every pool size.
fn grouped_ranges(offsets: &[usize], cols: usize) -> GroupedSchedule {
    let groups = offsets.len() - 1;
    // Sized up front: one allocation per half, whatever the block count.
    let blocks: usize = offsets
        .windows(2)
        .map(|w| (w[1] - w[0]).div_ceil(ROW_BLOCK))
        .sum();
    let mut ranges = Vec::with_capacity(blocks);
    let mut meta = Vec::with_capacity(blocks);
    for g in 0..groups {
        let rows_g = offsets[g + 1] - offsets[g];
        let mut r = 0;
        while r < rows_g {
            let rows = ROW_BLOCK.min(rows_g - r);
            ranges.push(((offsets[g] + r) * cols, (offsets[g] + r + rows) * cols));
            meta.push((g, r));
            r += ROW_BLOCK;
        }
    }
    (ranges, meta)
}

/// Serial kernel for one `rows × n` output block, `out += A · b`: A's
/// row `r` step `p` is `a[r * row + p * step]`, read in place, and
/// `b` is `k × n`. Same code runs regardless of which pool worker
/// executes the block, so results never depend on thread count.
fn block(a: &[f32], (row, step): (usize, usize), b: &[f32], out: &mut [f32], k: usize, n: usize) {
    let kt = dispatch::table();
    let rows = out.len() / n;
    for pc in (0..k).step_by(KC) {
        let (kc_len, b) = (KC.min(k - pc), &b[pc * n..]);
        for ir in (0..rows).step_by(MR) {
            let (mr_eff, a) = (MR.min(rows - ir), &a[ir * row + pc * step..]);
            let out = &mut out[ir * n..];
            // The table's tiles, widest first while they fit; the last
            // is `TILE_COLS` wide, so the edge is narrower than that.
            let mut jc = 0;
            for &(cols, micro_tile) in kt.micro_tiles {
                while n - jc >= cols {
                    let (b, out) = (&b[jc..], &mut out[jc..]);
                    micro_tile(a, row, step, kc_len, b, out, n, mr_eff);
                    jc += cols;
                }
            }
            if jc < n {
                let (b, out) = (&b[jc..], &mut out[jc..]);
                (kt.micro_edge)(a, row, step, kc_len, b, out, n, mr_eff, n - jc);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::tests::sprinkle;
    use crate::dispatch::{SimdMode, WIDE_TILE_COLS};

    /// Naive reference: plain i-j-p triple loop, no blocking.
    fn gemm_ref(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn assert_close(got: &[f32], want: &[f32], k: usize) {
        assert_eq!(got.len(), want.len());
        // Blocked accumulation reorders sums; tolerance scales with
        // the reduction length (ULP-scale, not loose).
        let tol = 1e-5 * (k as f32).sqrt().max(1.0);
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            let scale = w.abs().max(1.0);
            assert!(
                (g - w).abs() <= tol * scale,
                "elem {i}: got {g}, want {w} (tol {tol})"
            );
        }
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).unwrap();
        let id = Tensor::eye(2);
        assert_eq!(a.matmul(&id).unwrap(), a);
        assert_eq!(id.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[2, 3]).unwrap();
        let b = Tensor::from_vec(vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0], &[3, 2]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.as_slice(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2, 3]);
        assert!(a.matmul(&b).is_err());
        let v = Tensor::zeros(&[3]);
        assert!(a.matmul(&v).is_err());
    }

    #[test]
    fn bmm_matches_per_batch_matmul() {
        let a = Tensor::from_vec((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| (x as f32) * 0.5).collect(), &[2, 3, 2]).unwrap();
        let c = a.bmm(&b).unwrap();
        for i in 0..2 {
            let ai = a.index_axis0(i).unwrap();
            let bi = b.index_axis0(i).unwrap();
            let ci = c.index_axis0(i).unwrap();
            assert_eq!(ai.matmul(&bi).unwrap(), ci);
        }
    }

    #[test]
    fn bmm_rejects_batch_mismatch() {
        let a = Tensor::zeros(&[2, 2, 3]);
        let b = Tensor::zeros(&[3, 3, 2]);
        assert!(a.bmm(&b).is_err());
    }

    #[test]
    fn blocked_gemm_matches_naive_on_awkward_shapes() {
        let mut rng = crate::Rng::seed(7);
        // Shapes straddling every blocking edge: sub-tile, exact-tile,
        // ragged rows/cols, multi-KC-panel k.
        for &(m, k, n) in &[
            (1usize, 1usize, 1usize),
            (3, 5, 7),
            (4, 8, 8),
            (33, 17, 9),
            (32, 300, 40),
            (65, 513, 31),
        ] {
            let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
            let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
            let got = a.matmul(&b).unwrap();
            let want = gemm_ref(a.as_slice(), b.as_slice(), m, k, n);
            assert_close(got.as_slice(), &want, k);
        }
    }

    #[test]
    fn gemm_is_bit_identical_across_parallelism_limits() {
        let (m, k, n) = (97usize, 130usize, 57usize);
        let mut rng = crate::Rng::seed(99);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let reference = tutel_rt::with_parallelism_limit(1, || a.matmul(&b).unwrap());
        for limit in [2, 4, 8] {
            let got = tutel_rt::with_parallelism_limit(limit, || a.matmul(&b).unwrap());
            assert_eq!(got.as_slice(), reference.as_slice(), "limit {limit}");
        }
    }

    #[test]
    fn matmul_nt_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[2, 3]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), &[4, 3]).unwrap();
        let fast = a.matmul_nt(&b).unwrap();
        let slow = a.matmul(&b.transpose2().unwrap()).unwrap();
        let want: Vec<f32> = slow.as_slice().to_vec();
        assert_close(fast.as_slice(), &want, 3);
    }

    #[test]
    fn matmul_tn_equals_explicit_transpose() {
        let a = Tensor::from_vec((0..6).map(|x| x as f32).collect(), &[3, 2]).unwrap();
        let b = Tensor::from_vec((0..12).map(|x| x as f32 * 0.25).collect(), &[3, 4]).unwrap();
        let fast = a.matmul_tn(&b).unwrap();
        let slow = a.transpose2().unwrap().matmul(&b).unwrap();
        let want: Vec<f32> = slow.as_slice().to_vec();
        assert_close(fast.as_slice(), &want, 3);
    }

    #[test]
    fn nt_and_tn_match_naive_on_larger_shapes() {
        let mut rng = crate::Rng::seed(21);
        let (m, k, n) = (37usize, 66usize, 41usize);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let bt = rng.normal_tensor(&[n, k], 0.0, 1.0);
        let nt = a.matmul_nt(&bt).unwrap();
        let b_dense = bt.transpose2().unwrap();
        let want_nt = gemm_ref(a.as_slice(), b_dense.as_slice(), m, k, n);
        assert_close(nt.as_slice(), &want_nt, k);

        let at = rng.normal_tensor(&[k, m], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let tn = at.matmul_tn(&b).unwrap();
        let a_dense = at.transpose2().unwrap();
        let want_tn = gemm_ref(a_dense.as_slice(), b.as_slice(), m, k, n);
        assert_close(tn.as_slice(), &want_tn, k);
    }

    #[test]
    fn slice_kernels_accumulate_into_out() {
        let a = [1.0f32, 0.0, 0.0, 1.0];
        let b = [2.0f32, 3.0, 4.0, 5.0];
        let mut out = [10.0f32; 4];
        grouped_gemm(&a, &b, &mut out, &[0, 2], 2, 2);
        assert_eq!(out, [12.0, 13.0, 14.0, 15.0]);
    }

    /// Per-expert reference for the grouped kernels: slice each bin
    /// out and run it alone, as a one-group launch.
    fn grouped_ref_nn(a: &[f32], b: &[f32], offsets: &[usize], k: usize, n: usize) -> Vec<f32> {
        let total = *offsets.last().unwrap();
        let mut out = vec![0.0f32; total * n];
        for g in 0..offsets.len() - 1 {
            let rows = offsets[g + 1] - offsets[g];
            grouped_gemm(
                &a[offsets[g] * k..offsets[g + 1] * k],
                &b[g * k * n..(g + 1) * k * n],
                &mut out[offsets[g] * n..offsets[g + 1] * n],
                &[0, rows],
                k,
                n,
            );
        }
        out
    }

    #[test]
    fn grouped_gemm_matches_per_group_loop() {
        let mut rng = crate::Rng::seed(11);
        let offsets = [0usize, 3, 3, 40, 41, 74];
        let (k, n) = (19usize, 13usize);
        let groups = offsets.len() - 1;
        let total = *offsets.last().unwrap();
        let a = rng.normal_tensor(&[total, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[groups, k, n], 0.0, 1.0);
        let mut out = vec![0.0f32; total * n];
        grouped_gemm(a.as_slice(), b.as_slice(), &mut out, &offsets, k, n);
        let want = grouped_ref_nn(a.as_slice(), b.as_slice(), &offsets, k, n);
        assert_eq!(out, want, "grouped must be bitwise vs the per-group loop");
    }

    #[test]
    fn grouped_gemm_nt_matches_per_group_loop() {
        let mut rng = crate::Rng::seed(12);
        let offsets = [0usize, 5, 37, 37, 50];
        let (k, n) = (9usize, 21usize);
        let groups = offsets.len() - 1;
        let total = *offsets.last().unwrap();
        let a = rng.normal_tensor(&[total, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[groups, n, k], 0.0, 1.0);
        let mut out = vec![0.0f32; total * n];
        grouped_gemm_nt_into(
            a.as_slice(),
            b.as_slice(),
            &mut out,
            &offsets,
            k,
            n,
            |_, _, _| {},
        );
        for g in 0..groups {
            let rows = offsets[g + 1] - offsets[g];
            let mut want = vec![0.0f32; rows * n];
            grouped_gemm_nt_into(
                &a.as_slice()[offsets[g] * k..offsets[g + 1] * k],
                &b.as_slice()[g * n * k..(g + 1) * n * k],
                &mut want,
                &[0, rows],
                k,
                n,
                |_, _, _| {},
            );
            assert_eq!(&out[offsets[g] * n..offsets[g + 1] * n], &want[..], "g{g}");
        }
    }

    #[test]
    fn grouped_gemm_tn_matches_per_group_loop() {
        let mut rng = crate::Rng::seed(13);
        let offsets = [0usize, 0, 17, 20, 53];
        let (ma, n) = (12usize, 7usize);
        let groups = offsets.len() - 1;
        let total = *offsets.last().unwrap();
        let a = rng.normal_tensor(&[total, ma], 0.0, 1.0);
        let b = rng.normal_tensor(&[total, n], 0.0, 1.0);
        let mut out = vec![0.0f32; groups * ma * n];
        grouped_gemm_tn(a.as_slice(), b.as_slice(), &mut out, &offsets, ma, n);
        for g in 0..groups {
            let rows = offsets[g + 1] - offsets[g];
            let mut want = vec![0.0f32; ma * n];
            grouped_gemm_tn(
                &a.as_slice()[offsets[g] * ma..offsets[g + 1] * ma],
                &b.as_slice()[offsets[g] * n..offsets[g + 1] * n],
                &mut want,
                &[0, rows],
                ma,
                n,
            );
            assert_eq!(&out[g * ma * n..(g + 1) * ma * n], &want[..], "g{g}");
        }
    }

    /// The launch `grouped_gemm_tn` replaced: one serial job per
    /// `(group, row block)` adding every `KC` panel's sum into `out` in
    /// order.
    fn tn_unsplit(a: &[f32], b: &[f32], out: &mut [f32], offsets: &[usize], ma: usize, n: usize) {
        for g in (0..offsets.len() - 1).filter(|&g| offsets[g + 1] > offsets[g]) {
            let rows = offsets[g]..offsets[g + 1];
            let (a_g, b_g) = (
                &a[rows.start * ma..rows.end * ma],
                &b[rows.start * n..rows.end * n],
            );
            for r0 in (0..ma).step_by(ROW_BLOCK) {
                let r1 = (r0 + ROW_BLOCK).min(ma);
                let blk = &mut out[g * ma * n + r0 * n..g * ma * n + r1 * n];
                block(&a_g[r0..], (1, ma), b_g, blk, rows.len(), n);
            }
        }
    }

    #[test]
    fn split_k_tn_matches_the_unsplit_launch_bit_for_bit() {
        // Reduction lengths either side of one and two `KC` panels, and
        // a long one, as one-group launches and as the bins of one
        // launch; accumulators that start non-zero, and a `-0.0` one
        // whose every product is `-0.0`. Every table, serial and on the
        // pool (ci.sh reruns it at TUTEL_THREADS=1 and =4).
        let lengths = [0usize, 1, 255, 256, 257, 511, 512, 513, 8192];
        let mut launches: Vec<Vec<usize>> = lengths.iter().map(|&k| vec![0, k]).collect();
        launches.push(
            std::iter::once(0)
                .chain(lengths.iter().scan(0, |at, &k| {
                    *at += k;
                    Some(*at)
                }))
                .collect(),
        );
        for (ma, n) in [(5usize, 3usize), (49, 40)] {
            for offsets in &launches {
                let total = *offsets.last().unwrap();
                let groups = offsets.len() - 1;
                let mut rng = crate::Rng::seed((total + ma) as u64);
                let mut a = rng.normal_tensor(&[total, ma], 0.0, 1.0).into_vec();
                let b = rng.uniform_tensor(&[total, n], 0.5, 1.0).into_vec();
                // Row 0 of every group reads -0.0 in every reduction row.
                for g in 0..groups {
                    for p in offsets[g]..offsets[g + 1] {
                        a[p * ma] = -0.0;
                    }
                }
                let mut init = rng.normal_tensor(&[groups, ma, n], 0.0, 1.0).into_vec();
                for g in 0..groups {
                    init[g * ma * n..g * ma * n + n].fill(-0.0);
                }
                for mode in crate::dispatch::kernel_modes() {
                    crate::dispatch::with_kernel_mode(mode, || {
                        let mut want = init.clone();
                        tn_unsplit(&a, &b, &mut want, offsets, ma, n);
                        for limit in [1, usize::MAX] {
                            let mut got = init.clone();
                            tutel_rt::with_parallelism_limit(limit, || {
                                grouped_gemm_tn(&a, &b, &mut got, offsets, ma, n);
                            });
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            assert_eq!(
                                bits(&got),
                                bits(&want),
                                "{mode:?} limit {limit} ma {ma} n {n} offsets {offsets:?}"
                            );
                        }
                    });
                }
            }
        }
    }

    #[test]
    fn grouped_gemm_rows_bitwise_equal_padded_bmm_rows() {
        // The dropless contract: a routed row's bits must not depend
        // on whether its bin was padded to a capacity or packed
        // ragged. Compare each grouped row against the same row of a
        // zero-padded bmm.
        let mut rng = crate::Rng::seed(14);
        let offsets = [0usize, 2, 35, 36, 36, 70];
        let (k, n) = (33usize, 17usize);
        let groups = offsets.len() - 1;
        let total = *offsets.last().unwrap();
        let cap = (0..groups)
            .map(|g| offsets[g + 1] - offsets[g])
            .max()
            .unwrap();
        let a = rng.normal_tensor(&[total, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[groups, k, n], 0.0, 1.0);
        let mut out = vec![0.0f32; total * n];
        grouped_gemm(a.as_slice(), b.as_slice(), &mut out, &offsets, k, n);

        let mut padded = vec![0.0f32; groups * cap * k];
        for g in 0..groups {
            let rows = offsets[g + 1] - offsets[g];
            padded[g * cap * k..g * cap * k + rows * k]
                .copy_from_slice(&a.as_slice()[offsets[g] * k..offsets[g + 1] * k]);
        }
        let pa = Tensor::from_vec(padded, &[groups, cap, k]).unwrap();
        let py = pa.bmm(&b).unwrap();
        for g in 0..groups {
            let rows = offsets[g + 1] - offsets[g];
            assert_eq!(
                &out[offsets[g] * n..offsets[g + 1] * n],
                &py.as_slice()[g * cap * n..g * cap * n + rows * n],
                "g{g}"
            );
        }
    }

    /// `b`'s `groups` row-major `(n, k)` matrices, each transposed to
    /// `(k, n)`, element by element.
    fn transposed(b: &[f32], groups: usize, k: usize, n: usize) -> Vec<f32> {
        let mut bt = vec![0.0f32; groups * k * n];
        for g in 0..groups {
            for j in 0..n {
                for p in 0..k {
                    bt[(g * k + p) * n + j] = b[(g * n + j) * k + p];
                }
            }
        }
        bt
    }

    /// Adds to `o` the panel sums of the products of the operand pairs
    /// `pair(0..len)`: each `KC` panel a chain of fused multiply-adds
    /// from zero in `p` order, the panel sums added in panel order — the
    /// order every grouped launch's element keeps, split-k included.
    fn add_panel_sums(o: &mut f32, len: usize, pair: impl Fn(usize) -> (f32, f32)) {
        for pc in (0..len).step_by(KC) {
            let mut acc = 0.0f32;
            for p in pc..(pc + KC).min(len) {
                let (x, y) = pair(p);
                acc = x.mul_add(y, acc);
            }
            *o += acc;
        }
    }

    /// The `A·B` launch as a per-element loop in the documented panel
    /// order, from zero: the oracle every table's tiles must equal bit
    /// for bit. It shares no code with them.
    fn nn_per_element(a: &[f32], b: &[f32], offsets: &[usize], k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; offsets.last().unwrap() * n];
        for g in 0..offsets.len() - 1 {
            for row in offsets[g]..offsets[g + 1] {
                for (j, o) in out[row * n..(row + 1) * n].iter_mut().enumerate() {
                    add_panel_sums(o, k, |p| (a[row * k + p], b[(g * k + p) * n + j]));
                }
            }
        }
        out
    }

    /// The `Aᵀ·B` launch likewise: each bin's rows are its reduction.
    fn tn_per_element(a: &[f32], b: &[f32], offsets: &[usize], ma: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; (offsets.len() - 1) * ma * n];
        for (g, out_g) in out.chunks_exact_mut(ma * n).enumerate() {
            let p0 = offsets[g];
            for (i, orow) in out_g.chunks_exact_mut(n).enumerate() {
                for (j, o) in orow.iter_mut().enumerate() {
                    let pair = |p: usize| (a[(p0 + p) * ma + i], b[(p0 + p) * n + j]);
                    add_panel_sums(o, offsets[g + 1] - p0, pair);
                }
            }
        }
        out
    }

    /// Every `m ≤ 2·MR + 1` and either side of one `ROW_BLOCK`, every
    /// `n ≤ 2·WIDE_TILE_COLS + 1` and `k` at the small sizes, either
    /// side of 32, 64 and 512, and either side of one and two `KC`
    /// panels: the three grouped launches over two bins with an empty
    /// one between them, scalar against every SIMD table the host has,
    /// bit for bit, `A·B` and `Aᵀ·B` against their per-element oracles
    /// and `A·Bᵀ` against `A·B` over the transposed B, in every table.
    /// `n` covers every edge of the 32- and 16-column micro-tiles and
    /// the edge tile; `m` (`Aᵀ·B`'s `ma` too) every `m % MR` and `m %
    /// HALF_MR`; `Aᵀ·B`'s longest bin (`2·KC + 3`) is split into three
    /// panel jobs. The operands hold ±0, ±inf, NaN and subnormals.
    #[test]
    #[ignore = "enumerates ~57 000 shapes × 3 launches × 3 tables (minutes in release): ci.sh runs it by name"]
    fn grouped_launches_match_across_simd_modes_on_every_tile_edge() {
        let ms: Vec<usize> = (1..=2 * MR + 1).chain([47, 48, 49]).collect();
        let (max_m, max_n) = (ROW_BLOCK + 1, 2 * WIDE_TILE_COLS + 1);
        let ks: Vec<usize> = (0..=17)
            .chain([
                31,
                32,
                33,
                63,
                64,
                65,
                KC - 1,
                KC,
                KC + 1,
                511,
                512,
                513,
                2 * KC + 3,
            ])
            .collect();
        let max_k = *ks.iter().max().unwrap();
        let mut rng = crate::Rng::seed(36);
        let mut draw =
            |len: usize, seed| sprinkle(rng.normal_tensor(&[len], 0.0, 1.0).into_vec(), seed);
        let (a_pool, b_pool) = (draw(2 * max_m * max_k, 1), draw(3 * max_k * max_n, 2));
        for &k in &ks {
            for &m in &ms {
                for n in 1..=max_n {
                    let (a, b) = (&a_pool[..2 * m * k], &b_pool[..3 * k * n]);
                    let (rows, reduce) = ([0, m, m, 2 * m], [0, k, k, 2 * k]);
                    let bits = |v: Vec<f32>| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    let nn_want = bits(nn_per_element(a, b, &rows, k, n));
                    let tn_want = bits(tn_per_element(a, &b[..2 * k * n], &reduce, m, n));
                    let bt = transposed(b, 3, k, n);
                    let run = |mode: SimdMode| {
                        dispatch::with_kernel_mode(mode, || {
                            let mut nn = vec![f32::NAN; 2 * m * n];
                            grouped_gemm_into(a, b, &mut nn, &rows, k, n, |_, _, _| {});
                            let mut nt = vec![f32::NAN; 2 * m * n];
                            grouped_gemm_nt_into(a, b, &mut nt, &rows, k, n, |_, _, _| {});
                            let mut nn_t = vec![f32::NAN; 2 * m * n];
                            grouped_gemm_into(a, &bt, &mut nn_t, &rows, k, n, |_, _, _| {});
                            let mut tn = vec![0.0f32; 3 * m * n];
                            grouped_gemm_tn(a, &b[..2 * k * n], &mut tn, &reduce, m, n);
                            [nn, nt, tn, nn_t].map(bits)
                        })
                    };
                    let scalar = run(SimdMode::Scalar);
                    for mode in dispatch::kernel_modes() {
                        let got = if mode == SimdMode::Scalar {
                            scalar.clone()
                        } else {
                            run(mode)
                        };
                        let label = mode.label();
                        assert_eq!(got[0], nn_want, "{label} nn vs oracle at m {m} n {n} k {k}");
                        assert_eq!(got[1], got[3], "{label} nt vs nn at m {m} n {n} k {k}");
                        assert_eq!(got[2], tn_want, "{label} tn vs oracle at m {m} n {n} k {k}");
                        for (what, (s, v)) in ["nn", "nt", "tn"].iter().zip(scalar.iter().zip(&got))
                        {
                            assert_eq!(s, v, "{label} {what} at m {m} n {n} k {k}");
                        }
                    }
                }
            }
        }
    }

    mod properties {
        use super::*;
        use crate::dispatch::{NR, TILE_COLS};
        use proptest::prelude::*;

        fn dims() -> impl Strategy<Value = (usize, usize, usize)> {
            (1usize..48, 1usize..300, 1usize..48)
        }

        /// Ragged bin sizes spanning empty, sub-tile, and
        /// multi-row-block groups.
        fn bins() -> impl Strategy<Value = Vec<usize>> {
            prop::collection::vec(0usize..70, 1..6)
        }

        /// Shapes guaranteed to leave a nonzero remainder on every
        /// blocking axis: `m % MR ≠ 0`, `k % KC ≠ 0`, and
        /// `n % WIDE_TILE_COLS` in either edge regime — all edge
        /// (`1..TILE_COLS`) or a 16-column tile first
        /// (`TILE_COLS..WIDE_TILE_COLS`). `m` reaches past one
        /// `ROW_BLOCK`.
        fn ragged_dims() -> impl Strategy<Value = (usize, usize, usize)> {
            (
                (0usize..10, 1usize..MR),
                (0usize..2, 1usize..KC),
                (
                    0usize..3,
                    any::<bool>(),
                    1usize..TILE_COLS,
                    TILE_COLS..WIDE_TILE_COLS,
                ),
            )
                .prop_map(|((mq, mrr), (kq, krr), (nq, wide, narrow_r, wide_r))| {
                    let nrr = if wide { wide_r } else { narrow_r };
                    (mq * MR + mrr, kq * KC + krr, nq * WIDE_TILE_COLS + nrr)
                })
        }

        /// Bin sizes off every `MR` and `HALF_MR` multiple, with empty
        /// bins and bins longer than one `ROW_BLOCK`.
        fn nt_bins() -> impl Strategy<Value = Vec<usize>> {
            // One bin in four is empty.
            let rows = (0usize..4, 0usize..6, 0usize..MR).prop_map(|(empty, q, r)| {
                if empty == 0 {
                    0
                } else {
                    q * MR + r
                }
            });
            prop::collection::vec(rows, 1..6)
        }

        /// Reduction lengths from 0 to past three 8-lane blocks, and
        /// either side of 32, one `KC` panel and two.
        fn nt_depth() -> impl Strategy<Value = usize> {
            const EDGES: [usize; 9] = [31, 32, 33, KC - 1, KC, KC + 1, 511, 512, 513];
            (0..=3 * NR + EDGES.len()).prop_map(|i| {
                if i <= 3 * NR {
                    i
                } else {
                    EDGES[i - 3 * NR - 1]
                }
            })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Blocked NN/TN/NT all agree with the naive triple loop
            /// within reduction-length-scaled tolerance on arbitrary
            /// shapes and values.
            #[test]
            fn blocked_gemms_match_naive((m, k, n) in dims(), seed in 0u64..1024) {
                let mut rng = crate::Rng::seed(seed);
                let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
                let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
                let want = gemm_ref(a.as_slice(), b.as_slice(), m, k, n);

                let nn = a.matmul(&b).unwrap();
                assert_close(nn.as_slice(), &want, k);

                // A stored transposed: a_t (k, m).
                let mut at = vec![0.0f32; k * m];
                for i in 0..m {
                    for p in 0..k {
                        at[p * m + i] = a.as_slice()[i * k + p];
                    }
                }
                let mut tn = vec![0.0f32; m * n];
                grouped_gemm_tn(&at, b.as_slice(), &mut tn, &[0, k], m, n);
                assert_close(&tn, &want, k);

                // B stored transposed: b_t (n, k).
                let mut btr = vec![0.0f32; n * k];
                for p in 0..k {
                    for j in 0..n {
                        btr[j * k + p] = b.as_slice()[p * n + j];
                    }
                }
                let mut nt = vec![0.0f32; m * n];
                grouped_gemm_nt_into(a.as_slice(), &btr, &mut nt, &[0, m], k, n, |_, _, _| {});
                assert_close(&nt, &want, k);
            }

            /// Every SIMD kernel table produces bit-identical results
            /// to the scalar table on every GEMM variant, on shapes that
            /// exercise all three remainder tails at once.
            #[test]
            fn simd_gemms_match_scalar_bitwise((m, k, n) in ragged_dims(), seed in 0u64..1024) {
                let mut rng = crate::Rng::seed(seed);
                let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
                let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
                let bt = rng.normal_tensor(&[n, k], 0.0, 1.0);
                let at = rng.normal_tensor(&[k, m], 0.0, 1.0);
                let ba = rng.normal_tensor(&[3, m, k], 0.0, 1.0);
                let bb = rng.normal_tensor(&[3, k, n], 0.0, 1.0);
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let run = |mode: SimdMode| {
                    crate::dispatch::with_kernel_mode(mode, || {
                        [
                            a.matmul(&b).unwrap(),
                            a.matmul_nt(&bt).unwrap(),
                            at.matmul_tn(&b).unwrap(),
                            ba.bmm(&bb).unwrap(),
                        ]
                        .map(|t| bits(t.as_slice()))
                    })
                };
                let scalar = run(SimdMode::Scalar);
                for &mode in crate::dispatch::simd_modes() {
                    let simd = run(mode);
                    for (what, (s, v)) in ["matmul", "nt", "tn", "bmm"].iter().zip(scalar.iter().zip(&simd)) {
                        prop_assert_eq!(s, v, "{} {}", mode.label(), what);
                    }
                }
            }

            /// Grouped GEMM equals the per-expert loop bit for bit on
            /// arbitrary ragged shapes, in every kernel table, at any
            /// worker count.
            #[test]
            fn grouped_gemm_bitwise_vs_per_group_loop(
                sizes in bins(),
                k in 1usize..40,
                n in 1usize..24,
                seed in 0u64..1024,
            ) {
                let mut offsets = vec![0usize];
                for s in &sizes {
                    offsets.push(offsets.last().unwrap() + s);
                }
                let groups = sizes.len();
                let total = *offsets.last().unwrap();
                let mut rng = crate::Rng::seed(seed);
                let a = rng.normal_tensor(&[total.max(1), k], 0.0, 1.0);
                let b = rng.normal_tensor(&[groups, k, n], 0.0, 1.0);
                let a = &a.as_slice()[..total * k];
                for mode in crate::dispatch::kernel_modes() {
                    crate::dispatch::with_kernel_mode(mode, || {
                        let want = grouped_ref_nn(a, b.as_slice(), &offsets, k, n);
                        let mut got = vec![0.0f32; total * n];
                        grouped_gemm(a, b.as_slice(), &mut got, &offsets, k, n);
                        assert_eq!(got, want, "mode {mode:?}");
                        for limit in [1usize, 4] {
                            let par = tutel_rt::with_parallelism_limit(limit, || {
                                let mut out = vec![0.0f32; total * n];
                                grouped_gemm(a, b.as_slice(), &mut out, &offsets, k, n);
                                out
                            });
                            assert_eq!(par, want, "mode {mode:?} limit {limit}");
                        }
                    });
                }
            }

            /// A storing launch with an epilogue equals the separate
            /// passes bit for bit: `A·B` + bias + GELU against
            /// zeroed `grouped_gemm` → a bias loop → the table's
            /// `gelu`, and `A·Bᵀ` + GELU′ against the bare product →
            /// `gelu_backward` — over ragged bins with empty ones,
            /// `k = 0` (bias and GELU still land), every kernel table
            /// and 1 or 4 workers. `out` starts as NaN, so a block the
            /// launch failed to zero-fill shows.
            #[test]
            fn epilogue_launches_equal_the_separate_passes(
                sizes in bins(),
                k in 0usize..40,
                n in 1usize..24,
                seed in 0u64..1024,
            ) {
                let mut offsets = vec![0usize];
                for s in &sizes {
                    offsets.push(offsets.last().unwrap() + s);
                }
                let (groups, total) = (sizes.len(), *offsets.last().unwrap());
                let mut rng = crate::Rng::seed(seed);
                let mut draw = |len: usize| rng.normal_tensor(&[len.max(1)], 0.0, 1.0).as_slice()[..len].to_vec();
                let (a, b, bt) = (draw(total * k), draw(groups * k * n), draw(groups * n * k));
                let (bias, pre) = (draw(groups * n), draw(total * n));
                let d: Vec<f32> = pre.iter().map(|&x| crate::dispatch::tests::gelu_one(x).1).collect();
                for mode in crate::dispatch::kernel_modes() {
                    crate::dispatch::with_kernel_mode(mode, || {
                        let kt = crate::dispatch::table();
                        let mut want = vec![0.0f32; total * n];
                        grouped_gemm(&a, &b, &mut want, &offsets, k, n);
                        for g in 0..groups {
                            for row in want[offsets[g] * n..offsets[g + 1] * n].chunks_mut(n) {
                                for (o, bv) in row.iter_mut().zip(&bias[g * n..(g + 1) * n]) {
                                    *o += bv;
                                }
                            }
                        }
                        (kt.gelu)(&mut want, None);
                        let mut want_nt = vec![0.0f32; total * n];
                        grouped_gemm_nt_into(&a, &bt, &mut want_nt, &offsets, k, n, |_, _, _| {});
                        (kt.gelu_backward)(&d, &mut want_nt);
                        for limit in [1usize, 4] {
                            let (got, got_nt) = tutel_rt::with_parallelism_limit(limit, || {
                                let mut got = vec![f32::NAN; total * n];
                                grouped_gemm_into(&a, &b, &mut got, &offsets, k, n, |g, _, block| {
                                    for row in block.chunks_mut(n) {
                                        (kt.add_assign)(&bias[g * n..(g + 1) * n], row);
                                    }
                                    (kt.gelu)(block, None);
                                });
                                let mut got_nt = vec![f32::NAN; total * n];
                                grouped_gemm_nt_into(&a, &bt, &mut got_nt, &offsets, k, n, |g, r0, block| {
                                    let s = (offsets[g] + r0) * n;
                                    let rows = s..s + block.len();
                                    (kt.gelu_backward)(&d[rows], block);
                                });
                                (got, got_nt)
                            });
                            let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                            assert_eq!(bits(&got), bits(&want), "nn {mode:?} limit {limit}");
                            assert_eq!(bits(&got_nt), bits(&want_nt), "nt {mode:?} limit {limit}");
                        }
                    });
                }
            }

            /// `A·Bᵀ(a, b)` equals `A·B(a, bᵀ)` bit for bit over every
            /// `rows % MR`, `n` on either side of the 32- and 16-column
            /// tiles, `k` from 0 and either side of one and two `KC`
            /// panels, with empty bins and ±0, ±inf, NaN and subnormals
            /// among the operands, in every kernel table at 1 or 4
            /// workers.
            #[test]
            fn nt_equals_nn_over_the_transpose(
                sizes in nt_bins(),
                (nq, nr) in (0usize..3, 0usize..WIDE_TILE_COLS),
                k in nt_depth(),
                seed in 0u64..1024,
            ) {
                let n = nq * WIDE_TILE_COLS + nr;
                let mut offsets = vec![0usize];
                for s in &sizes {
                    offsets.push(offsets.last().unwrap() + s);
                }
                let (groups, total) = (sizes.len(), *offsets.last().unwrap());
                let mut rng = crate::Rng::seed(seed);
                let mut draw = |len: usize| {
                    let v = rng.normal_tensor(&[len.max(1)], 0.0, 1.0).as_slice()[..len].to_vec();
                    sprinkle(v, seed)
                };
                let (a, b) = (draw(total * k), draw(groups * n * k));
                let bt = transposed(&b, groups, k, n);
                let bits = |s: &[f32]| s.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                for mode in crate::dispatch::kernel_modes() {
                    crate::dispatch::with_kernel_mode(mode, || {
                        let mut want = vec![f32::NAN; total * n];
                        grouped_gemm_into(&a, &bt, &mut want, &offsets, k, n, |_, _, _| {});
                        for limit in [1usize, 4] {
                            let got = tutel_rt::with_parallelism_limit(limit, || {
                                let mut got = vec![f32::NAN; total * n];
                                grouped_gemm_nt_into(&a, &b, &mut got, &offsets, k, n, |_, _, _| {});
                                got
                            });
                            assert_eq!(bits(&got), bits(&want), "{mode:?} limit {limit}");
                        }
                    });
                }
            }

            /// Worker count never changes a single bit of the output.
            #[test]
            fn gemm_bits_invariant_under_parallelism((m, k, n) in dims(), seed in 0u64..1024) {
                let mut rng = crate::Rng::seed(seed);
                let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
                let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
                let reference = tutel_rt::with_parallelism_limit(1, || a.matmul(&b).unwrap());
                for limit in [2usize, 5, 8] {
                    let got = tutel_rt::with_parallelism_limit(limit, || a.matmul(&b).unwrap());
                    prop_assert_eq!(got.as_slice(), reference.as_slice());
                }
            }
        }
    }
}
