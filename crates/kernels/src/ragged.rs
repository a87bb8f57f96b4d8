//! The dispatch kernels: scatter/gather between token rows `(T, M)`
//! and packed expert bins `(R, M)` laid out by a [`RaggedRouting`]'s
//! CSR `offsets` (MegaBlocks-style). This is the only dispatch
//! implementation — [`crate::sparse`]'s padded `(E, ΔC, M)` entry
//! points call these kernels with uniform-capacity bins.
//!
//! The routing decision is read only through [`Routing`]'s accessors
//! (its flat `(T·k)` arrays are private to `tutel_gate`): token-major
//! passes iterate [`Routing::selections`], slot-major passes resolve a
//! slot's owner — the flat assignment index in
//! `RaggedRouting::slot_owner` — with [`Routing::assignment`], and gate
//! gradients come back in the same flat order, `d_gates[t·k + i]`.
//!
//! Each routed assignment sits at packed row `offsets[e] + location`.
//! With exact bins (`RaggedRouting::from_routing`) no padding row
//! exists, so compute and All-to-All bytes scale with what was
//! actually routed; with uniform-capacity bins the rows no assignment
//! owns are zero. Each output is an unzeroed arena buffer that its
//! pass zero-fills chunk by chunk inside the chunk's own pool job.
//!
//! # Ownership parallelism
//!
//! Every pass has exactly **one writer** per output row — no atomics,
//! no locks: slot-major passes ([`ragged_encode`], the `d_y` half of
//! [`ragged_decode_backward`]) walk the packed rows, each owned by at
//! most one assignment recorded in the view's `slot_owner`; token-major
//! passes walk token rows in selection order through
//! [`Routing::selections`]. Row
//! blocks are fixed at `ROW_CHUNK` rows and all lane arithmetic
//! routes through the kernel dispatch table, so results are
//! bit-identical for every `TUTEL_THREADS` and `TUTEL_SIMD` setting —
//! and a packed row's bits never depend on how its bin was sized.

use tutel_gate::{RaggedRouting, Routing};
use tutel_tensor::dispatch::{self, Picks};
use tutel_tensor::{scratch, Tensor, TensorError};

/// Output rows per parallel chunk (fixed: part of the determinism
/// contract, never derived from pool size).
const ROW_CHUNK: usize = 64;

/// Ragged encode: scatters `x (T, M)` into the packed dispatch buffer
/// `(R, M)` — expert `e`'s bin is rows `offsets[e]..offsets[e+1]`.
/// Dispatch is *unweighted* (GShard semantics: gate values are applied
/// at decode), so a routed token contributes its raw feature row;
/// dropped assignments contribute nothing.
///
/// # Errors
///
/// Returns a [`TensorError`] if `x` is not rank-2 or the routing pair
/// is inconsistent.
// check:hot
pub fn ragged_encode(
    x: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
) -> Result<Tensor, TensorError> {
    let m = check_tokens(x, routing, "ragged_encode")?;
    check_pair(routing, ragged, "ragged_encode")?;
    let mut out = scratch::raw(&[ragged.total(), m]);
    let (xs, k) = (x.as_slice(), routing.k());
    // Slot-major: each packed row is a copy of its owner token's
    // feature row, or zero. One warp per row on GPU; one row-block
    // entry call per chunk here.
    tutel_rt::parallel_chunks(out.as_mut_slice(), ROW_CHUNK * m, |blk, chunk| {
        let owner = &ragged.slot_owner[blk * ROW_CHUNK..][..chunk.len() / m];
        (dispatch::table().gather_rows)(xs, m, owner, k, None, chunk);
    });
    Ok(out)
}

/// Backward of [`ragged_encode`]: gathers `d_packed (R, M)` back into
/// `d_x (T, M)`.
///
/// # Errors
///
/// Returns a [`TensorError`] on shape mismatch.
// check:hot
pub fn ragged_encode_backward(
    d_packed: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tokens: usize,
) -> Result<Tensor, TensorError> {
    let m = check_packed(d_packed, ragged, "ragged_encode_backward")?;
    check_pair(routing, ragged, "ragged_encode_backward")?;
    check_rows(tokens, routing, "ragged_encode_backward")?;
    let mut dx = scratch::raw(&[tokens, m]);
    let dd = d_packed.as_slice();
    // Token-major: each token row sums the gradients parked in its own
    // slots from zero, in selection order, lanewise (every table adds
    // element by element, so bits match).
    tutel_rt::parallel_chunks(dx.as_mut_slice(), ROW_CHUNK * m, |blk, chunk| {
        let (picks, k) = picks_of(routing, ragged, blk, chunk.len() / m);
        (dispatch::table().combine_rows)(dd, m, picks, k, None, chunk);
    });
    Ok(dx)
}

/// Ragged decode: combines packed expert outputs `y (R, M)` into the
/// layer output `(T, M)`, weighting each gathered row by its gate
/// value. Dropped assignments contribute zeros (GShard semantics).
///
/// # Errors
///
/// Returns a [`TensorError`] on shape mismatch.
// check:hot
pub fn ragged_decode(
    y: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tokens: usize,
) -> Result<Tensor, TensorError> {
    let m = check_packed(y, ragged, "ragged_decode")?;
    check_pair(routing, ragged, "ragged_decode")?;
    check_rows(tokens, routing, "ragged_decode")?;
    let mut out = scratch::raw(&[tokens, m]);
    let ys = y.as_slice();
    let (_, gates, _) = routing.flat();
    // Token-major: gate-weighted sum from zero over the token's ≤ k
    // packed rows in selection order (mul then add per lane in every
    // table, so scalar and SIMD stay bitwise identical).
    tutel_rt::parallel_chunks(out.as_mut_slice(), ROW_CHUNK * m, |blk, chunk| {
        let (picks, k) = picks_of(routing, ragged, blk, chunk.len() / m);
        let gates = &gates[blk * ROW_CHUNK * k..][..picks.slot.len()];
        (dispatch::table().combine_rows)(ys, m, picks, k, Some(gates), chunk);
    });
    Ok(out)
}

/// Backward of [`ragged_decode`]: returns `(d_y (R, M), d_gates)`
/// where the flat `d_gates[t·k + i]` is the gradient of the `i`-th gate
/// value of token `t` (`⟨y_row, d_out_row⟩`, Figure 19; zero for a
/// dropped assignment). Two ownership-parallel passes: slot-major for
/// `d_y`, token-major for the gate gradients. Both buffers come from
/// the arena; a caller done with `d_gates` may hand it back with
/// `tutel_rt::arena().put`.
///
/// # Errors
///
/// Returns a [`TensorError`] on shape mismatch.
// check:hot
pub fn ragged_decode_backward(
    d_out: &Tensor,
    y: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
) -> Result<(Tensor, Vec<f32>), TensorError> {
    let m = check_tokens(d_out, routing, "ragged_decode_backward")?;
    let m2 = check_packed(y, ragged, "ragged_decode_backward")?;
    if m != m2 {
        return Err(TensorError::shape_mismatch(
            "ragged_decode_backward",
            d_out.dims(),
            y.dims(),
        ));
    }
    check_pair(routing, ragged, "ragged_decode_backward")?;
    let ds = d_out.as_slice();
    let ys = y.as_slice();

    // Pass 1, slot-major: dy[row] = 0 + g · d_out[owner token].
    let k = routing.k();
    let (_, gates, _) = routing.flat();
    let mut dy = scratch::raw(&[ragged.total(), m]);
    tutel_rt::parallel_chunks(dy.as_mut_slice(), ROW_CHUNK * m, |blk, chunk| {
        let owner = &ragged.slot_owner[blk * ROW_CHUNK..][..chunk.len() / m];
        (dispatch::table().gather_rows)(ds, m, owner, k, Some(gates), chunk);
    });

    // Pass 2, token-major: dgates[t·k + i] = ⟨y_row, d_out_t⟩ through
    // the 8-lane reduction-tree dot (same summation order in every
    // table), 0 for a dropped assignment.
    let mut dgates = tutel_rt::arena().take_raw(routing.num_tokens() * k);
    tutel_rt::parallel_chunks(&mut dgates, ROW_CHUNK * k, |blk, chunk| {
        let rows = chunk.len() / k;
        let (picks, k) = picks_of(routing, ragged, blk, rows);
        let d = &ds[blk * ROW_CHUNK * m..][..rows * m];
        (dispatch::table().dot_rows)(ys, d, m, picks, k, chunk);
    });
    Ok((dy, dgates))
}

/// The picks of token rows `blk · ROW_CHUNK ..` (`rows` of them), and
/// `k`.
fn picks_of<'a>(
    routing: &'a Routing,
    ragged: &'a RaggedRouting,
    blk: usize,
    rows: usize,
) -> (Picks<'a>, usize) {
    let (expert, _, slot) = routing.flat();
    let k = routing.k();
    let span = blk * ROW_CHUNK * k..(blk * ROW_CHUNK + rows) * k;
    let picks = Picks {
        offsets: &ragged.offsets,
        expert: &expert[span.clone()],
        slot: &slot[span],
    };
    (picks, k)
}

/// A token-major pass writes `tokens` rows, each of a routed token.
fn check_rows(tokens: usize, routing: &Routing, op: &'static str) -> Result<(), TensorError> {
    if tokens > routing.num_tokens() {
        return Err(TensorError::InvalidArgument(format!(
            "{op}: {tokens} token rows for a routing of {}",
            routing.num_tokens()
        )));
    }
    Ok(())
}

fn check_tokens(x: &Tensor, routing: &Routing, op: &'static str) -> Result<usize, TensorError> {
    if x.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: x.rank(),
            op,
        });
    }
    if x.dims()[0] != routing.num_tokens() {
        return Err(TensorError::ShapeMismatch {
            left: x.dims().to_vec(),
            right: vec![routing.num_tokens(), x.dims()[1]],
            op,
        });
    }
    Ok(x.dims()[1])
}

/// A packed buffer is `R` rows of `M`: `(R, M)` itself, or the
/// `(E, C, M)` shape of a uniform-capacity view (same bytes).
fn check_packed(
    y: &Tensor,
    ragged: &RaggedRouting,
    op: &'static str,
) -> Result<usize, TensorError> {
    let m = y.dims().last().copied().unwrap_or(0);
    if y.rank() < 2 || y.len() != ragged.total() * m {
        return Err(TensorError::shape_mismatch(
            op,
            y.dims(),
            &[ragged.total(), m],
        ));
    }
    Ok(m)
}

/// Validates once, up front, every index the kernels will derive from
/// the pair: the view's fields are public, so one built by hand or for
/// another batch must surface as a typed error, not a slice panic.
fn check_pair(
    routing: &Routing,
    ragged: &RaggedRouting,
    op: &'static str,
) -> Result<(), TensorError> {
    let bad = |what: &str| {
        Err(TensorError::InvalidArgument(format!(
            "{op}: ragged view does not match routing ({what})"
        )))
    };
    let total = ragged.total();
    if ragged.experts != routing.experts || ragged.offsets.len() != routing.experts + 1 {
        return bad("expert count");
    }
    if ragged.offsets[0] != 0 || ragged.offsets.windows(2).any(|w| w[0] > w[1]) {
        return bad("offsets are not a monotone prefix sum");
    }
    if ragged.slot_owner.len() != total {
        return bad("the owner array does not cover the packed rows");
    }
    // Token-major passes read row `offsets[e] + location`.
    if (0..routing.experts).any(|e| ragged.bin_len(e) < routing.counts[e]) {
        return bad("a bin is shorter than its routed count");
    }
    // Slot-major passes resolve each owner through `Routing::assignment`.
    let assignments = routing.num_tokens() * routing.k();
    let owner_ok = |&a: &u32| a == RaggedRouting::UNOWNED || (a as usize) < assignments;
    if !ragged.slot_owner.iter().all(owner_ok) {
        return bad("a slot's owner is out of range");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{fast_decode, fast_decode_backward, fast_encode, fast_encode_backward};
    use tutel_gate::{route, RouteConfig};
    use tutel_tensor::Rng;

    fn dropless_routing(
        tokens: usize,
        experts: usize,
        k: usize,
        seed: u64,
    ) -> (Routing, RaggedRouting, Tensor) {
        let mut rng = Rng::seed(seed);
        let probs = rng
            .uniform_tensor(&[tokens, experts], 0.0, 1.0)
            .softmax_last();
        let cfg = RouteConfig {
            k,
            ..RouteConfig::top1().with_capacity_factor(0.0)
        };
        let routing = route(&probs, &cfg).unwrap();
        let ragged = RaggedRouting::from_routing(&routing);
        let x = rng.normal_tensor(&[tokens, 6], 0.0, 1.0);
        (routing, ragged, x)
    }

    #[test]
    fn packed_rows_hold_the_same_bytes_as_their_padded_twins() {
        let (routing, ragged, x) = dropless_routing(12, 4, 2, 3);
        let packed = ragged_encode(&x, &routing, &ragged).unwrap();
        let padded = fast_encode(&x, &routing).unwrap();
        let m = 6;
        for e in 0..routing.experts {
            for l in 0..routing.counts[e] {
                let s = ragged.offsets[e] + l;
                let pr = &packed.as_slice()[s * m..(s + 1) * m];
                let dr = &padded.as_slice()
                    [(e * routing.capacity + l) * m..(e * routing.capacity + l + 1) * m];
                assert_eq!(pr, dr, "expert {e} slot {l}");
            }
        }
        assert_eq!(packed.dims(), &[ragged.total(), m]);
    }

    #[test]
    fn ragged_decode_is_bitwise_equal_to_padded_decode() {
        let (routing, ragged, x) = dropless_routing(17, 5, 2, 5);
        let packed = ragged_encode(&x, &routing, &ragged).unwrap();
        let padded = fast_encode(&x, &routing).unwrap();
        let a = ragged_decode(&packed, &routing, &ragged, 17).unwrap();
        let b = fast_decode(&padded, &routing, 17).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn ragged_backwards_are_bitwise_equal_to_padded_backwards() {
        let (routing, ragged, x) = dropless_routing(13, 4, 2, 7);
        let mut rng = Rng::seed(8);
        let packed = ragged_encode(&x, &routing, &ragged).unwrap();
        let padded = fast_encode(&x, &routing).unwrap();
        let d_out = rng.normal_tensor(&[13, 6], 0.0, 1.0);

        let (dy_r, dg_r) = ragged_decode_backward(&d_out, &packed, &routing, &ragged).unwrap();
        let (dy_p, dg_p) = fast_decode_backward(&d_out, &padded, &routing).unwrap();
        assert_eq!(dg_r, dg_p);
        let m = 6;
        for e in 0..routing.experts {
            for l in 0..routing.counts[e] {
                let s = ragged.offsets[e] + l;
                assert_eq!(
                    &dy_r.as_slice()[s * m..(s + 1) * m],
                    &dy_p.as_slice()
                        [(e * routing.capacity + l) * m..(e * routing.capacity + l + 1) * m],
                );
            }
        }

        let dx_r = ragged_encode_backward(&dy_r, &routing, &ragged, 13).unwrap();
        let dx_p = fast_encode_backward(&dy_p, &routing, 13).unwrap();
        assert_eq!(dx_r.as_slice(), dx_p.as_slice());
    }

    #[test]
    fn ragged_kernels_bit_identical_across_limits_and_simd_modes() {
        let (routing, ragged, x) = dropless_routing(130, 8, 2, 17);
        let run = || {
            let d = ragged_encode(&x, &routing, &ragged).unwrap();
            let out = ragged_decode(&d, &routing, &ragged, 130).unwrap();
            let (dy, dgates) = ragged_decode_backward(&out, &d, &routing, &ragged).unwrap();
            let dx = ragged_encode_backward(&dy, &routing, &ragged, 130).unwrap();
            (d, out, dy, dgates, dx)
        };
        let reference = tutel_rt::with_parallelism_limit(1, run);
        for limit in [2, 4, 8] {
            assert_eq!(
                tutel_rt::with_parallelism_limit(limit, run),
                reference,
                "limit {limit}"
            );
        }
        if dispatch::simd_available() {
            let scalar = dispatch::with_simd_mode(Some(false), run);
            let simd = dispatch::with_simd_mode(Some(true), run);
            assert_eq!(scalar, simd);
        }
    }

    #[test]
    fn clamped_routings_still_produce_a_consistent_ragged_view() {
        // Ragged is the dropless layout, but the view itself works for
        // clamped routings too (dropped assignments own no row).
        let mut rng = Rng::seed(4);
        let probs = rng.uniform_tensor(&[20, 4], 0.0, 1.0).softmax_last();
        let routing = route(&probs, &RouteConfig::top2()).unwrap();
        let ragged = RaggedRouting::from_routing(&routing);
        let x = rng.normal_tensor(&[20, 6], 0.0, 1.0);
        let packed = ragged_encode(&x, &routing, &ragged).unwrap();
        let padded = fast_encode(&x, &routing).unwrap();
        let a = ragged_decode(&packed, &routing, &ragged, 20).unwrap();
        let b = fast_decode(&padded, &routing, 20).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn shape_validation() {
        let (routing, ragged, x) = dropless_routing(4, 2, 1, 8);
        assert!(ragged_encode(&x.reshape(&[24]).unwrap(), &routing, &ragged).is_err());
        let bad = Tensor::zeros(&[ragged.total() + 1, 6]);
        assert!(ragged_decode(&bad, &routing, &ragged, 4).is_err());
        assert!(ragged_encode_backward(&bad, &routing, &ragged, 4).is_err());
        let mut mismatched = ragged.clone();
        mismatched.offsets.pop();
        mismatched.experts -= 1;
        assert!(ragged_encode(&x, &routing, &mismatched).is_err());
    }

    #[test]
    fn corrupted_views_are_typed_errors_in_every_kernel() {
        // The view's fields are public: one edited by hand (or built
        // for another batch) must be rejected up front, never reach a
        // slice index.
        let (routing, ragged, x) = dropless_routing(6, 3, 2, 9);
        assert!(routing.counts.iter().all(|&c| c > 0), "fixture bins");
        let y = Tensor::zeros(&[ragged.total(), 6]);
        let d_out = Tensor::zeros(&[6, 6]);
        type Corruption = (&'static str, fn(&mut RaggedRouting));
        let corruptions: [Corruption; 4] = [
            ("assignment == T·k", |r| r.slot_owner[0] = 6 * 2),
            ("slot_owner one short", |r| {
                r.slot_owner.pop();
            }),
            ("offsets not monotone", |r| r.offsets[1] = r.offsets[2] + 1),
            ("bin 1 shorter than its routed count", |r| r.offsets[1] += 1),
        ];
        for (what, corrupt) in corruptions {
            let mut bad = ragged.clone();
            corrupt(&mut bad);
            let invalid = |r: Result<(), TensorError>| {
                assert!(
                    matches!(r, Err(TensorError::InvalidArgument(_))),
                    "{what}: {r:?}"
                );
            };
            invalid(ragged_encode(&x, &routing, &bad).map(drop));
            invalid(ragged_encode_backward(&y, &routing, &bad, 6).map(drop));
            invalid(ragged_decode(&y, &routing, &bad, 6).map(drop));
            invalid(ragged_decode_backward(&d_out, &y, &routing, &bad).map(drop));
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(32))]

            /// Dropless encode∘decode round-trips bitwise: with k = 1
            /// and a unit gate, every token's output row is exactly
            /// its input row (`1.0 · x` is an identity in IEEE 754).
            #[test]
            fn encode_decode_round_trips_bitwise(
                tokens in 1usize..60,
                experts in 1usize..10,
                m in 1usize..24,
                seed in 0u64..1024,
            ) {
                let mut rng = Rng::seed(seed);
                // One-hot rows: the top-1 gate is exactly 1.0.
                let mut probs = Tensor::zeros(&[tokens, experts]);
                for t in 0..tokens {
                    probs.set(&[t, rng.below(experts)], 1.0);
                }
                let cfg = RouteConfig::top1().with_capacity_factor(0.0);
                let routing = route(&probs, &cfg).unwrap();
                let ragged = RaggedRouting::from_routing(&routing);
                let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
                let packed = ragged_encode(&x, &routing, &ragged).unwrap();
                prop_assert_eq!(packed.dims(), &[tokens, m]);
                let back = ragged_decode(&packed, &routing, &ragged, tokens).unwrap();
                prop_assert_eq!(back.as_slice(), x.as_slice());
            }

            /// On arbitrary dropless top-k routings the ragged kernels
            /// agree bitwise with the padded twins, row for row.
            #[test]
            fn ragged_matches_padded_bitwise(
                tokens in 1usize..40,
                experts in 1usize..8,
                k in 1usize..3,
                seed in 0u64..1024,
            ) {
                let k = k.min(experts);
                let mut rng = Rng::seed(seed);
                let probs = rng
                    .uniform_tensor(&[tokens, experts], 0.0, 1.0)
                    .softmax_last();
                let cfg = RouteConfig {
                    k,
                    ..RouteConfig::top1().with_capacity_factor(0.0)
                };
                let routing = route(&probs, &cfg).unwrap();
                let ragged = RaggedRouting::from_routing(&routing);
                let x = rng.normal_tensor(&[tokens, 5], 0.0, 1.0);
                let packed = ragged_encode(&x, &routing, &ragged).unwrap();
                let padded = fast_encode(&x, &routing).unwrap();
                let a = ragged_decode(&packed, &routing, &ragged, tokens).unwrap();
                let b = fast_decode(&padded, &routing, tokens).unwrap();
                prop_assert_eq!(a.as_slice(), b.as_slice());
            }
        }
    }
}
