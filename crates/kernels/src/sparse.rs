//! Tutel's sparse fast encode/decode (Figure 18b / Figure 19) over
//! the padded `(E, ΔC, M)` dispatch buffer.
//!
//! Complexity is `O(T·k·M)` — a factor `T` below the dense einsum —
//! because each (token, selection) pair touches exactly one `M`-length
//! row.
//!
//! The padded buffer is the packed ragged buffer whose bins all hold
//! `ΔC` rows, so every function here is a view: it synthesizes the
//! uniform-capacity bins (`offsets = [0, C, 2C, …]`), calls the
//! [`crate::ragged`] kernel — the one implementation, where the
//! ownership-parallel structure and the determinism contract live —
//! and names the result's shape `(E, ΔC, M)`. Nothing here reads the
//! routing record itself; gate gradients pass through in the kernels'
//! flat `(T·k)` order.
//!
//! | padded call | ragged kernel |
//! |---|---|
//! | [`fast_encode`] | [`ragged_encode`] |
//! | [`fast_encode_backward`] | [`ragged_encode_backward`] |
//! | [`fast_decode`] | [`ragged_decode`] |
//! | [`fast_decode_backward`] | [`ragged_decode_backward`] |

use tutel_gate::{RaggedRouting, Routing};
use tutel_tensor::{Tensor, TensorError};

use crate::ragged::{ragged_decode, ragged_decode_backward, ragged_encode, ragged_encode_backward};

/// Sparse encode (`moe.fast_encode`): scatters the MoE layer input
/// `x (T, M)` into the All-to-All dispatch buffer `(E, ΔC, M)`.
///
/// Dispatch is *unweighted* (GShard semantics: `bool(scores)` — gate
/// values are applied at decode), so a token routed to an expert
/// contributes its raw feature row; dropped (capacity-overflow)
/// assignments contribute nothing and the corresponding capacity slot
/// stays zero.
///
/// # Errors
///
/// Returns a [`TensorError`] if `x` is not rank-2 or its token count
/// disagrees with the routing.
///
/// # Example
///
/// ```
/// use tutel_gate::{route, RouteConfig};
/// use tutel_kernels::fast_encode;
/// use tutel_tensor::Tensor;
///
/// let probs = Tensor::from_vec(vec![0.9, 0.1, 0.2, 0.8], &[2, 2])?;
/// let routing = route(&probs, &RouteConfig::top1())?;
/// let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2])?;
/// let dispatched = fast_encode(&x, &routing)?;
/// assert_eq!(dispatched.dims(), &[2, 1, 2]); // (E, ΔC, M)
/// assert_eq!(dispatched.as_slice(), &[1.0, 2.0, 3.0, 4.0]);
/// # Ok::<(), tutel_tensor::TensorError>(())
/// ```
pub fn fast_encode(x: &Tensor, routing: &Routing) -> Result<Tensor, TensorError> {
    let mut out = ragged_encode(x, routing, &RaggedRouting::uniform_capacity(routing))?;
    let m = out.dims()[1];
    out.reshape_in_place(&[routing.experts, routing.capacity, m])?;
    Ok(out)
}

/// Backward of [`fast_encode`]: gathers `d_dispatched (E, ΔC, M)` back
/// into `d_x (T, M)`.
///
/// # Errors
///
/// Returns a [`TensorError`] if `d_dispatched` has the wrong shape.
pub fn fast_encode_backward(
    d_dispatched: &Tensor,
    routing: &Routing,
    tokens: usize,
) -> Result<Tensor, TensorError> {
    check_dispatch(d_dispatched, routing)?;
    let bins = RaggedRouting::uniform_capacity(routing);
    ragged_encode_backward(d_dispatched, routing, &bins, tokens)
}

/// Sparse decode (`moe.fast_decode`): combines expert outputs
/// `y (E, ΔC, M)` into the MoE layer output `(T, M)`, weighting each
/// retrieved row by its gate value. Dropped tokens receive zeros for
/// the dropped assignment (GShard semantics).
///
/// # Errors
///
/// Returns a [`TensorError`] if `y` has the wrong shape.
pub fn fast_decode(y: &Tensor, routing: &Routing, tokens: usize) -> Result<Tensor, TensorError> {
    check_dispatch(y, routing)?;
    let bins = RaggedRouting::uniform_capacity(routing);
    ragged_decode(y, routing, &bins, tokens)
}

/// Backward of [`fast_decode`]: returns `(d_y, d_gates)` where `d_y`
/// has shape `(E, ΔC, M)` and the flat `d_gates[t·k + i]` is the
/// gradient of the `i`-th gate value of token `t`
/// (`⟨y_row, d_out_row⟩`, Figure 19).
///
/// # Errors
///
/// Returns a [`TensorError`] on any shape mismatch.
pub fn fast_decode_backward(
    d_out: &Tensor,
    y: &Tensor,
    routing: &Routing,
) -> Result<(Tensor, Vec<f32>), TensorError> {
    check_dispatch(y, routing)?;
    let bins = RaggedRouting::uniform_capacity(routing);
    let (mut dy, dgates) = ragged_decode_backward(d_out, y, routing, &bins)?;
    dy.reshape_in_place(y.dims())?;
    Ok((dy, dgates))
}

fn check_dispatch(y: &Tensor, routing: &Routing) -> Result<(), TensorError> {
    if y.rank() != 3 || y.dims()[0] != routing.experts || y.dims()[1] != routing.capacity {
        return Err(TensorError::shape_mismatch(
            "fast_decode",
            y.dims(),
            &[routing.experts, routing.capacity, 0],
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_gate::{route, RouteConfig};
    use tutel_tensor::{dispatch, Rng};

    fn routing_and_input(tokens: usize, experts: usize, k: usize, seed: u64) -> (Routing, Tensor) {
        let mut rng = Rng::seed(seed);
        let probs = rng
            .uniform_tensor(&[tokens, experts], 0.0, 1.0)
            .softmax_last();
        let cfg = RouteConfig {
            k,
            ..RouteConfig::top1()
        };
        let routing = route(&probs, &cfg).unwrap();
        let x = rng.normal_tensor(&[tokens, 6], 0.0, 1.0);
        (routing, x)
    }

    #[test]
    fn encode_places_rows_at_locations() {
        let (routing, x) = routing_and_input(8, 4, 1, 1);
        let d = fast_encode(&x, &routing).unwrap();
        for t in 0..8 {
            if let Some((e, _, Some(l))) = routing.selections(t).next() {
                for mi in 0..6 {
                    assert_eq!(d.at(&[e, l, mi]), x.at(&[t, mi]));
                }
            }
        }
    }

    #[test]
    fn dropped_tokens_leave_zero_slots_and_get_zero_output() {
        // All tokens to one expert, tiny capacity.
        let mut probs = Tensor::zeros(&[6, 3]);
        for t in 0..6 {
            probs.set(&[t, 0], 1.0);
        }
        let routing = route(&probs, &RouteConfig::top1()).unwrap();
        assert_eq!(routing.capacity, 2);
        let mut rng = Rng::seed(2);
        let x = rng.normal_tensor(&[6, 4], 0.0, 1.0);
        let d = fast_encode(&x, &routing).unwrap();
        // Experts 1, 2 received nothing.
        assert_eq!(d.index_axis0(1).unwrap().max_abs(), 0.0);
        // Decode of the identity expert returns zeros for dropped tokens.
        let out = fast_decode(&d, &routing, 6).unwrap();
        for t in 2..6 {
            for mi in 0..4 {
                assert_eq!(out.at(&[t, mi]), 0.0, "token {t} must be dropped");
            }
        }
    }

    #[test]
    fn decode_weights_by_gates() {
        let (routing, x) = routing_and_input(8, 4, 2, 3);
        let d = fast_encode(&x, &routing).unwrap();
        let out = fast_decode(&d, &routing, 8).unwrap();
        // With identity experts, surviving tokens get Σ_i g_i · x ≈ x
        // when all k assignments survive (gates normalized).
        for t in 0..8 {
            if routing.selections(t).all(|(_, _, loc)| loc.is_some()) {
                for mi in 0..6 {
                    assert!((out.at(&[t, mi]) - x.at(&[t, mi])).abs() < 1e-5);
                }
            }
        }
    }

    #[test]
    fn encode_backward_matches_finite_difference() {
        let (routing, x) = routing_and_input(5, 3, 2, 4);
        let mut rng = Rng::seed(5);
        let up = rng.normal_tensor(&[3, routing.capacity, 6], 0.0, 1.0);
        let dx = fast_encode_backward(&up, &routing, 5).unwrap();
        let eps = 1e-2;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[i] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[i] -= eps;
            let lp = fast_encode(&xp, &routing).unwrap().mul(&up).unwrap().sum();
            let lm = fast_encode(&xm, &routing).unwrap().mul(&up).unwrap().sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!(
                (fd - dx.as_slice()[i]).abs() < 1e-2,
                "i={i} fd={fd} got={}",
                dx.as_slice()[i]
            );
        }
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn decode_backward_matches_finite_difference() {
        let (routing, _) = routing_and_input(5, 3, 2, 6);
        let mut rng = Rng::seed(7);
        let y = rng.normal_tensor(&[3, routing.capacity, 6], 0.0, 1.0);
        let up = rng.normal_tensor(&[5, 6], 0.0, 1.0);
        let (dy, dgates) = fast_decode_backward(&up, &y, &routing).unwrap();
        let eps = 1e-2;
        for i in 0..y.len() {
            let mut yp = y.clone();
            yp.as_mut_slice()[i] += eps;
            let mut ym = y.clone();
            ym.as_mut_slice()[i] -= eps;
            let lp = fast_decode(&yp, &routing, 5)
                .unwrap()
                .mul(&up)
                .unwrap()
                .sum();
            let lm = fast_decode(&ym, &routing, 5)
                .unwrap()
                .mul(&up)
                .unwrap()
                .sum();
            let fd = (lp - lm) / (2.0 * eps);
            assert!((fd - dy.as_slice()[i]).abs() < 1e-2, "i={i}");
        }
        // Gate gradients: the decode is linear in each gate, so the
        // central difference over a gate is its coefficient
        // Σ_m y[e, l, m] · up[t, m], summed naively here.
        assert_eq!(dgates.len(), 5 * 2);
        for t in 0..5 {
            for (gi, (e, _, loc)) in routing.selections(t).enumerate() {
                let got = dgates[t * 2 + gi];
                let Some(l) = loc else {
                    assert_eq!(got, 0.0);
                    continue;
                };
                let fd: f64 = (0..6)
                    .map(|mi| y.at(&[e, l, mi]) as f64 * up.at(&[t, mi]) as f64)
                    .sum();
                assert!(
                    (fd - got as f64).abs() < 1e-4,
                    "t={t} gi={gi} fd={fd} got={got}"
                );
            }
        }
    }

    #[test]
    fn dispatch_kernels_bit_identical_across_limits() {
        let (routing, x) = routing_and_input(130, 8, 2, 17);
        let run = |limit: usize| {
            tutel_rt::with_parallelism_limit(limit, || {
                let d = fast_encode(&x, &routing).unwrap();
                let out = fast_decode(&d, &routing, 130).unwrap();
                let (dy, dgates) = fast_decode_backward(&out, &d, &routing).unwrap();
                let dx = fast_encode_backward(&dy, &routing, 130).unwrap();
                (d, out, dy, dgates, dx)
            })
        };
        let reference = run(1);
        for limit in [2, 4, 8] {
            assert_eq!(run(limit), reference, "limit {limit}");
        }
    }

    #[test]
    fn dispatch_kernels_bit_identical_across_simd_modes() {
        if !dispatch::simd_available() {
            return;
        }
        let (routing, x) = routing_and_input(130, 8, 2, 19);
        let run = |force: bool| {
            dispatch::with_simd_mode(Some(force), || {
                let d = fast_encode(&x, &routing).unwrap();
                let out = fast_decode(&d, &routing, 130).unwrap();
                let (dy, dgates) = fast_decode_backward(&out, &d, &routing).unwrap();
                let dx = fast_encode_backward(&dy, &routing, 130).unwrap();
                (d, out, dy, dgates, dx)
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn shape_validation() {
        let (routing, x) = routing_and_input(4, 2, 1, 8);
        assert!(fast_encode(&x.reshape(&[24]).unwrap(), &routing).is_err());
        let bad = Tensor::zeros(&[3, routing.capacity, 6]);
        assert!(fast_decode(&bad, &routing, 4).is_err());
        assert!(fast_encode_backward(&bad, &routing, 4).is_err());
    }
}
