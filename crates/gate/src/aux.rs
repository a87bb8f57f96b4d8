//! The GShard auxiliary load-balancing loss.
//!
//! `l_aux = E · Σ_e fraction_e · mean_prob_e`, where `fraction_e` is the
//! share of tokens whose top-1 choice is expert `e` and `mean_prob_e`
//! the mean gate probability of expert `e` over the batch. Perfectly
//! balanced routing yields `l_aux = 1`; concentration raises it.

use tutel_tensor::{Tensor, TensorError};

use crate::Routing;

/// `fraction_e`: the share of tokens whose top-1 choice is expert `e`.
fn top1_fraction(routing: &Routing) -> Vec<f32> {
    let t = routing.num_tokens();
    let mut fraction = vec![0.0f32; routing.experts];
    for ti in 0..t {
        fraction[routing.experts_of(ti)[0] as usize] += 1.0 / t as f32;
    }
    fraction
}

/// Computes the auxiliary load-balancing loss from gate probabilities
/// `probs` (shape `(T, E)`) and the routing decision.
///
/// # Errors
///
/// Returns a [`TensorError`] if `probs` does not match the routing's
/// token/expert counts.
// check:hot
pub fn aux_loss(probs: &Tensor, routing: &Routing) -> Result<f32, TensorError> {
    let (t, e) = check(probs, routing)?;
    let fraction = top1_fraction(routing);
    let mut mean_prob = vec![0.0f32; e];
    for row in probs.as_slice().chunks(e) {
        for (mean, p) in mean_prob.iter_mut().zip(row) {
            *mean += p / t as f32;
        }
    }
    Ok(e as f32
        * fraction
            .iter()
            .zip(&mean_prob)
            .map(|(f, p)| f * p)
            .sum::<f32>())
}

/// Gradient of [`aux_loss`] with respect to `probs`, treating the
/// routing decision (the `fraction` term) as constant — the GShard
/// straight-through convention. It is the same row for every token,
/// `∂l/∂probs[t][e] = E · fraction_e / T`, so this returns that one
/// row (length `E`); the gate backward adds it to each token's row.
///
/// # Errors
///
/// Returns a [`TensorError`] if `probs` does not match the routing.
// check:hot
pub fn aux_loss_grad_row(probs: &Tensor, routing: &Routing) -> Result<Vec<f32>, TensorError> {
    let (t, e) = check(probs, routing)?;
    let mut row = top1_fraction(routing);
    for f in &mut row {
        *f = e as f32 * *f / t as f32;
    }
    Ok(row)
}

fn check(probs: &Tensor, routing: &Routing) -> Result<(usize, usize), TensorError> {
    if probs.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: probs.rank(),
            op: "aux_loss",
        });
    }
    let (t, e) = (probs.dims()[0], probs.dims()[1]);
    if t != routing.num_tokens() || e != routing.experts {
        return Err(TensorError::ShapeMismatch {
            left: probs.dims().to_vec(),
            right: vec![routing.num_tokens(), routing.experts],
            op: "aux_loss",
        });
    }
    Ok((t, e))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{route, RouteConfig};

    #[test]
    fn balanced_routing_has_unit_loss() {
        // Uniform probabilities, diagonal routing: fraction_e = 1/E,
        // mean_prob_e = 1/E → l = E · E · (1/E²) = 1.
        let (t, e) = (8, 4);
        let mut probs = Tensor::full(&[t, e], 1.0 / e as f32);
        // Tip the diagonal very slightly to pin top-1 choices evenly.
        for ti in 0..t {
            let ei = ti % e;
            probs.set(&[ti, ei], 1.0 / e as f32 + 1e-4);
        }
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        let l = aux_loss(&probs, &r).unwrap();
        assert!((l - 1.0).abs() < 0.01, "l = {l}");
    }

    #[test]
    fn concentrated_routing_raises_loss() {
        let (t, e) = (8, 4);
        let mut probs = Tensor::zeros(&[t, e]);
        for ti in 0..t {
            probs.set(&[ti, 0], 0.97);
            for ei in 1..e {
                probs.set(&[ti, ei], 0.01);
            }
        }
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        let l = aux_loss(&probs, &r).unwrap();
        // fraction_0 = 1, mean_prob_0 = 0.97 → l ≈ E · 0.97 ≈ 3.88.
        assert!(l > 3.0, "l = {l}");
    }

    #[test]
    fn grad_matches_finite_difference_on_mean_prob_term() {
        let (t, e) = (4, 3);
        let mut probs = Tensor::zeros(&[t, e]);
        for ti in 0..t {
            for ei in 0..e {
                probs.set(&[ti, ei], 0.2 + 0.1 * ((ti + ei) % 3) as f32);
            }
        }
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        let g = aux_loss_grad_row(&probs, &r).unwrap();
        assert_eq!(g.len(), e);
        let eps = 1e-3;
        for i in 0..probs.len() {
            let mut pp = probs.clone();
            pp.as_mut_slice()[i] += eps;
            let mut pm = probs.clone();
            pm.as_mut_slice()[i] -= eps;
            // Hold routing fixed (straight-through).
            let lp = aux_loss(&pp, &r).unwrap();
            let lm = aux_loss(&pm, &r).unwrap();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - g[i % e]).abs() < 1e-3,
                "i={i} fd={fd} got={}",
                g[i % e]
            );
        }
    }

    #[test]
    fn shape_mismatch_is_an_error() {
        let probs = Tensor::zeros(&[4, 3]);
        let r = route(&probs.softmax_last(), &RouteConfig::top1()).unwrap();
        let wrong = Tensor::zeros(&[4, 5]);
        assert!(aux_loss(&wrong, &r).is_err());
        assert!(aux_loss_grad_row(&wrong, &r).is_err());
    }
}
