//! The gate chain's backward: the decode's gate gradients `d_gates
//! (T·k)` → logit gradients `(T, E)`. Per token row: the probability
//! gradient — the gate term, chained through normalization when the
//! gates were normalized (`g_i = v_i / Σv`), else the gate gradient
//! itself — plus `aux_weight ·` the aux loss's constant row
//! (straight-through on the fractions), then the softmax backward
//! `y ⊙ (g − ⟨y, g⟩)`.
//!
//! [`gate_logits_grad`] writes every row out, one after another: the
//! unfused chain's first step, which [`Router::gate_backward`]'s default
//! runs. [`logits_grad_rows`] makes one block of rows for a launch that
//! uses them at once (`LinearRouter`'s panel jobs), through the kernel
//! table's `softmax_grad_rows` entry, whose bits are
//! `gate_logits_grad`'s.
//!
//! [`Router::gate_backward`]: crate::Router::gate_backward

use tutel_tensor::{scratch, Tensor, TensorError};

use crate::{aux_loss_grad_row, Routing};

/// Token rows per parallel chunk of [`gate_logits_grad`] (fixed: part
/// of the determinism contract, never derived from pool size).
const GATE_ROWS: usize = 64;

/// `aux_weight ·` the aux loss's gradient row, once `probs` and
/// `d_gates` are checked against `routing`.
///
/// # Errors
///
/// [`aux_loss_grad_row`]'s, then a shape mismatch for a `d_gates` that
/// is not `T·k` long.
pub(crate) fn scaled_aux_row(
    probs: &Tensor,
    routing: &Routing,
    d_gates: &[f32],
    aux_weight: f32,
) -> Result<Vec<f32>, TensorError> {
    let mut aux = aux_loss_grad_row(probs, routing)?;
    if d_gates.len() != routing.num_tokens() * routing.k() {
        return Err(TensorError::shape_mismatch(
            "gate_logits_grad",
            &[d_gates.len()],
            &[routing.num_tokens(), routing.k()],
        ));
    }
    aux.iter_mut().for_each(|c| *c *= aux_weight);
    Ok(aux)
}

/// The gate chain's backward, `d_gates (T·k)` → `d_logits (T, E)`, in
/// one row-parallel pass of fixed 64-row chunks, one row after another
/// and each row's `⟨y, g⟩` a sequential sum: the unfused chain's first
/// step, and the oracle a linear router's panel launch is held to. The
/// result is an arena-backed tensor.
///
/// # Errors
///
/// If `probs` or `d_gates` does not match `routing`.
// check:hot
pub fn gate_logits_grad(
    probs: &Tensor,
    routing: &Routing,
    d_gates: &[f32],
    aux_weight: f32,
) -> Result<Tensor, TensorError> {
    let aux = scaled_aux_row(probs, routing, d_gates, aux_weight)?;
    let (k, cols) = (routing.k(), routing.experts);
    let mut d_logits = scratch::raw(probs.dims());
    let ys = probs.as_slice();
    tutel_rt::parallel_chunks(d_logits.as_mut_slice(), GATE_ROWS * cols, |blk, chunk| {
        let t0 = blk * GATE_ROWS;
        for (r, orow) in chunk.chunks_mut(cols).enumerate() {
            let t = t0 + r;
            let yrow = &ys[t * cols..(t + 1) * cols];
            let dg = &d_gates[t * k..(t + 1) * k];
            let picked = || routing.experts_of(t).iter().map(|&e| e as usize);
            orow.fill(0.0);
            if routing.normalized {
                let s: f32 = picked().map(|e| yrow[e]).sum::<f32>().max(1e-9);
                let dot: f32 = dg
                    .iter()
                    .zip(picked())
                    .map(|(d, e)| d * (yrow[e] / s))
                    .sum();
                for (e, d) in picked().zip(dg) {
                    orow[e] = (d - dot) / s;
                }
            } else {
                for (e, &d) in picked().zip(dg) {
                    orow[e] = d;
                }
            }
            for (g, c) in orow.iter_mut().zip(&aux) {
                *g += c;
            }
            let dot: f32 = yrow.iter().zip(orow.iter()).map(|(y, g)| y * g).sum();
            for (g, y) in orow.iter_mut().zip(yrow) {
                *g = y * (*g - dot);
            }
        }
    });
    Ok(d_logits)
}

/// Rows `t0 ..` of [`gate_logits_grad`]'s result into `out` (`(rows,
/// E)`), from the whole `(T, E)` probabilities `ys`, the whole `d_gates`
/// and the scaled aux row: one call of the kernel table's
/// `softmax_grad_rows` row-block entry, which does [`gate_logits_grad`]'s
/// operations row for row (its `⟨y, g⟩` chains eight rows side by side),
/// so its bits are that function's.
pub(crate) fn logits_grad_rows(
    ys: &[f32],
    routing: &Routing,
    d_gates: &[f32],
    aux: &[f32],
    t0: usize,
    out: &mut [f32],
) {
    let (k, cols) = (routing.k(), routing.experts);
    let rows = out.len().checked_div(cols).unwrap_or(0);
    let (picks, _, _) = routing.flat();
    let (ys, picks) = (
        &ys[t0 * cols..][..rows * cols],
        &picks[t0 * k..][..rows * k],
    );
    let d_gates = &d_gates[t0 * k..][..rows * k];
    let grad_rows = tutel_tensor::dispatch::table().softmax_grad_rows;
    grad_rows(ys, picks, d_gates, aux, routing.normalized, out);
}
