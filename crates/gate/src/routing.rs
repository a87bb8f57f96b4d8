//! Top-k / top-ANY routing with expert capacity and batch prioritized
//! routing (BPR).
//!
//! This module owns the routing record's data format: nothing outside
//! this file indexes a [`Routing`]'s flat arrays, and [`route`] builds
//! them in a fixed number of allocations, whatever `T`.

use tutel_tensor::{uniform_offsets, Tensor, TensorError, TopK};

use crate::{expert_capacity, needed_capacity_factor, CapacityPolicy};

/// Configuration of one routing invocation.
///
/// Every field may change between iterations — this is the paper's
/// "Dynamic Top-ANY MoE Gating" (`k` is arbitrary and per-iteration)
/// and "Dynamic Capacity Factor" (Figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RouteConfig {
    /// Experts per token (`1 ≤ k ≤ E`), changeable at every iteration.
    pub k: usize,
    /// Capacity factor policy (Equation 1 / Figure 16).
    pub capacity: CapacityPolicy,
    /// Batch prioritized routing: assign capacity slots in order of
    /// gate confidence rather than token order (Figure 25).
    pub bpr: bool,
    /// Normalize the selected top-k gate values to sum to 1 (GShard
    /// convention for k > 1).
    pub normalize_gates: bool,
}

impl RouteConfig {
    /// The paper's SwinV2-MoE default: top-1, `f = 1.0`, no BPR.
    pub fn top1() -> Self {
        RouteConfig {
            k: 1,
            capacity: CapacityPolicy::Fixed(1.0),
            bpr: false,
            normalize_gates: true,
        }
    }

    /// GShard-style top-2 with `f = 1.0`.
    pub fn top2() -> Self {
        RouteConfig {
            k: 2,
            ..RouteConfig::top1()
        }
    }

    /// Replaces the capacity factor.
    pub fn with_capacity_factor(mut self, x: f64) -> Self {
        self.capacity = CapacityPolicy::from_arg(x);
        self
    }

    /// Enables or disables BPR.
    pub fn with_bpr(mut self, bpr: bool) -> Self {
        self.bpr = bpr;
        self
    }
}

/// The outcome of routing `T` tokens to `E` experts: everything encode,
/// combine, and the framework's telemetry need.
///
/// The decision itself is three private token-major `(T·k)` arrays —
/// selected expert, gate weight, capacity slot — read through the
/// accessors below; selection `i` of token `t` is flat *assignment*
/// `t·k + i`, the index a [`RaggedRouting`] names its slot owners by
/// and the layout of a decode backward's gate gradients. [`route`] is
/// the only constructor, so every expert is `< experts` and the granted
/// slots of expert `e` are exactly `0..counts[e]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Routing {
    /// Number of global experts.
    pub experts: usize,
    /// Capacity per expert (`ΔC` before world-splitting).
    pub capacity: usize,
    /// The capacity factor actually used this iteration.
    pub capacity_factor: f64,
    /// The minimum factor that would have dropped no token — the
    /// Figure 1 telemetry signal.
    pub needed_factor: f64,
    /// Whether the gates were normalized to sum to 1 over each token's
    /// selected experts — what a backward pass must differentiate.
    pub normalized: bool,
    /// Tokens routed to each expert after capacity clamping.
    pub counts: Vec<usize>,
    /// Tokens routed to each expert before capacity clamping.
    pub raw_counts: Vec<usize>,
    /// Experts selected per token.
    k: usize,
    /// Assignments the capacity clamp dropped.
    dropped: usize,
    /// Selected expert per assignment.
    expert: Vec<u32>,
    /// Gate weight per assignment (post normalization); a dropped
    /// assignment keeps its weight.
    gate: Vec<f32>,
    /// Capacity slot per assignment, [`DROPPED`] if it overflowed.
    slot: Vec<u32>,
}

/// `slot` marker for an assignment the capacity clamp dropped: the
/// kernel table's "no row", as [`RaggedRouting::UNOWNED`] is.
const DROPPED: u32 = tutel_tensor::dispatch::NO_ROW;

/// A stored slot as a location: `None` for [`DROPPED`].
fn granted(slot: u32) -> Option<usize> {
    (slot != DROPPED).then_some(slot as usize)
}

impl Routing {
    /// Experts selected per token.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of tokens routed.
    pub fn num_tokens(&self) -> usize {
        self.expert.len() / self.k
    }

    /// Token `t`'s flat assignments.
    fn span(&self, t: usize) -> std::ops::Range<usize> {
        t * self.k..(t + 1) * self.k
    }

    /// Token `t`'s selected experts, best first.
    pub fn experts_of(&self, t: usize) -> &[u32] {
        &self.expert[self.span(t)]
    }

    /// Token `t`'s gate weight per selected expert.
    pub fn gates_of(&self, t: usize) -> &[f32] {
        &self.gate[self.span(t)]
    }

    /// The capacity slot of token `t`'s selection `i`, `None` if it
    /// overflowed the expert's capacity and was dropped.
    pub fn location(&self, t: usize, i: usize) -> Option<usize> {
        granted(self.slot[self.span(t)][i])
    }

    /// Token `t`'s selections in order: `(expert, gate, location)`.
    pub fn selections(&self, t: usize) -> impl Iterator<Item = (usize, f32, Option<usize>)> + '_ {
        let picks = self.experts_of(t).iter().zip(self.gates_of(t));
        picks
            .zip(&self.slot[self.span(t)])
            .map(|((&e, &g), &slot)| (e as usize, g, granted(slot)))
    }

    /// The token and gate weight of flat assignment `a` (`< T·k`).
    pub fn assignment(&self, a: usize) -> (usize, f32) {
        (a / self.k, self.gate[a])
    }

    /// The flat `(T·k)` arrays themselves, `(expert, gate, slot)`, for
    /// the kernel table's row-block entries, which read a block of
    /// assignments as it lies: a dropped assignment's slot is
    /// [`NO_ROW`](tutel_tensor::dispatch::NO_ROW).
    pub fn flat(&self) -> (&[u32], &[f32], &[u32]) {
        (&self.expert, &self.gate, &self.slot)
    }

    /// Total (token, expert) assignments that were dropped by the
    /// capacity clamp.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Fraction of assignments that survived the capacity clamp.
    pub fn survival_rate(&self) -> f64 {
        if self.slot.is_empty() {
            return 1.0;
        }
        1.0 - self.dropped as f64 / self.slot.len() as f64
    }
}

/// CSR-style ragged view of a [`Routing`]: per-expert bins packed
/// back-to-back — the one dispatch layout.
///
/// `offsets` is a monotone prefix sum (`len == experts + 1`); expert
/// `e`'s bin is packed rows `offsets[e]..offsets[e + 1]`. Two
/// constructors choose the bin sizes:
///
/// * [`RaggedRouting::from_routing`] — *exact* bins, one row per
///   surviving assignment and no capacity dimension: what every step
///   computes, under every capacity policy;
/// * [`RaggedRouting::uniform_capacity`] — every bin `capacity` rows,
///   `offsets = [0, C, 2C, …]`: the padded `(E, C, M)` layout as a
///   ragged view, behind the kernel crate's `fast_*` API views.
///
/// `slot_owner[s]` names the flat assignment that owns packed row `s`
/// ([`RaggedRouting::UNOWNED`] for a capacity slot no assignment landed
/// in — such rows stay zero); [`Routing::assignment`] resolves it.
/// Within a bin, rows sit in capacity-slot order
/// (`packed slot = offsets[e] + location`), so a row holds *identical
/// bytes* under either constructor and grouped compute is bitwise
/// comparable row by row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaggedRouting {
    /// Number of global experts (`offsets.len() - 1`).
    pub experts: usize,
    /// Per-expert bin boundaries: monotone prefix sum of the bin sizes.
    pub offsets: Vec<usize>,
    /// Owning assignment per packed slot, or [`RaggedRouting::UNOWNED`].
    pub slot_owner: Vec<u32>,
}

impl RaggedRouting {
    /// `slot_owner` marker for a slot no assignment owns: the kernel
    /// table's [`NO_ROW`](tutel_tensor::dispatch::NO_ROW).
    pub const UNOWNED: u32 = tutel_tensor::dispatch::NO_ROW;

    /// Exact bins: expert `e`'s bin holds its `counts[e]` routed rows.
    /// Dropped assignments (only possible under a clamping policy)
    /// simply own no packed slot.
    // check:hot
    pub fn from_routing(routing: &Routing) -> Self {
        let mut offsets = Vec::with_capacity(routing.experts + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for &c in &routing.counts {
            acc += c;
            offsets.push(acc);
        }
        Self::with_offsets(routing, offsets)
    }

    /// Uniform-capacity bins: every expert's bin holds
    /// `routing.capacity` rows whether or not they were all granted,
    /// so the packed buffer is the padded `(E, C, M)` buffer.
    // check:hot
    pub fn uniform_capacity(routing: &Routing) -> Self {
        Self::with_offsets(routing, uniform_offsets(routing.experts, routing.capacity))
    }

    /// Fills the owner array for bins laid out at `offsets` (each bin
    /// at least as long as its expert's routed count).
    fn with_offsets(routing: &Routing, offsets: Vec<usize>) -> Self {
        let mut slot_owner = vec![Self::UNOWNED; offsets.last().copied().unwrap_or(0)];
        for (a, (&e, &slot)) in routing.expert.iter().zip(&routing.slot).enumerate() {
            if let Some(l) = granted(slot) {
                slot_owner[offsets[e as usize] + l] = a as u32;
            }
        }
        RaggedRouting {
            experts: routing.experts,
            offsets,
            slot_owner,
        }
    }

    /// Total packed rows (owned or not).
    pub fn total(&self) -> usize {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Rows in expert `e`'s bin.
    pub fn bin_len(&self, e: usize) -> usize {
        self.offsets[e + 1] - self.offsets[e]
    }
}

/// Routes tokens given gating probabilities `probs` of shape `(T, E)`.
///
/// Implements GShard-compatible top-k routing: per-token top-k expert
/// selection, optional gate normalization, capacity-slot assignment in
/// token order (or confidence order under BPR), and the dynamic
/// capacity policy of Figure 16.
///
/// # Errors
///
/// Returns a [`TensorError`] if `probs` is not a rank-2 tensor, `k`
/// exceeds the number of experts, the capacity factor is not finite, a
/// selected gate is NaN (a NaN that loses the top-k is ignored), the
/// `E·C` slot count overflows `usize`, or `E` or `T·k` does not fit the
/// record's `u32` indices.
///
/// # Example
///
/// ```
/// use tutel_gate::{route, RouteConfig};
/// use tutel_tensor::Tensor;
///
/// // 4 tokens, 2 experts; all tokens prefer expert 0.
/// let probs = Tensor::from_vec(vec![0.9, 0.1, 0.8, 0.2, 0.7, 0.3, 0.6, 0.4], &[4, 2])?;
/// let routing = route(&probs, &RouteConfig::top1())?;
/// // f = 1, k = 1 → capacity 2: two tokens overflow expert 0.
/// assert_eq!(routing.capacity, 2);
/// assert_eq!(routing.dropped(), 2);
/// assert_eq!(routing.location(1, 0), Some(1));
/// assert_eq!(routing.location(2, 0), None);
/// # Ok::<(), tutel_tensor::TensorError>(())
/// ```
// check:hot
pub fn route(probs: &Tensor, cfg: &RouteConfig) -> Result<Routing, TensorError> {
    let (tokens, experts) = dims_of(probs)?;
    check(tokens, experts, cfg)?;
    let top = probs.topk_last(cfg.k)?;
    finish(probs, top, cfg)
}

/// [`route`] for probabilities whose per-token top-`cfg.k` was already
/// taken — by a [`Router::softmax_top_k`](crate::Router::softmax_top_k)
/// launch, in the order and bits [`Tensor::topk_last`] returns. The
/// gates are then normalized, checked for NaN and granted capacity
/// slots exactly as [`route`] does, so the two give equal records.
///
/// # Errors
///
/// As [`route`]; also a [`TensorError`] if `top` does not hold `k`
/// experts below `E` and `k` gates per token.
// check:hot
pub fn route_top_k(probs: &Tensor, top: TopK, cfg: &RouteConfig) -> Result<Routing, TensorError> {
    let (tokens, experts) = dims_of(probs)?;
    check(tokens, experts, cfg)?;
    let (expert, gate) = (&top.0, &top.1);
    if expert.len() != tokens * cfg.k
        || gate.len() != expert.len()
        || expert.iter().any(|&e| e as usize >= experts)
    {
        return Err(TensorError::InvalidArgument(format!(
            "top-{} selections ({} experts, {} gates) do not fit {tokens} tokens over \
             {experts} experts",
            cfg.k,
            expert.len(),
            gate.len()
        )));
    }
    finish(probs, top, cfg)
}

/// `(T, E)` of a probabilities tensor, which must be rank 2.
fn dims_of(probs: &Tensor) -> Result<(usize, usize), TensorError> {
    if probs.rank() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: probs.rank(),
            op: "route",
        });
    }
    Ok((probs.dims()[0], probs.dims()[1]))
}

/// The error [`route`] returns for a `k` outside `1..=experts`.
pub(crate) fn check_k(k: usize, experts: usize) -> Result<(), TensorError> {
    if k == 0 || k > experts {
        return Err(TensorError::InvalidArgument(format!(
            "top-k with k={k} over {experts} experts"
        )));
    }
    Ok(())
}

/// [`route`]'s checks on its configuration, in order: `k`, the record's
/// `u32` index range, a finite capacity factor.
fn check(tokens: usize, experts: usize, cfg: &RouteConfig) -> Result<(), TensorError> {
    let k = cfg.k;
    check_k(k, experts)?;
    // Experts, slots and assignments are stored as `u32`, the last
    // value being the `DROPPED` / `UNOWNED` marker.
    if experts.max(tokens * k) >= u32::MAX as usize {
        return Err(TensorError::InvalidArgument(format!(
            "{experts} experts or {tokens}·{k} assignments exceed u32"
        )));
    }
    if let CapacityPolicy::Fixed(f) | CapacityPolicy::AutoCapped(f) = cfg.capacity {
        if !f.is_finite() {
            return Err(TensorError::InvalidArgument(format!(
                "capacity factor {f} is not finite"
            )));
        }
    }
    Ok(())
}

/// Everything [`route`] does after the top-k, on checked inputs: the
/// record takes the top-k arrays as its own, normalizes the gates in
/// place, rejects a selected NaN gate, and walks the capacity slots.
// check:hot
fn finish(probs: &Tensor, top: TopK, cfg: &RouteConfig) -> Result<Routing, TensorError> {
    let (tokens, experts) = (probs.dims()[0], probs.dims()[1]);
    let k = cfg.k;
    let (expert, mut gate) = top;
    let normalized = cfg.normalize_gates && k > 1;
    if normalized {
        for g in gate.chunks_mut(k) {
            let s: f32 = g.iter().sum::<f32>().max(1e-9);
            g.iter_mut().for_each(|g| *g /= s);
        }
    }
    if let Some(a) = gate.iter().position(|g| g.is_nan()) {
        return Err(TensorError::InvalidArgument(format!(
            "token {} selected a NaN gate",
            a / k
        )));
    }

    // Raw (unclamped) per-expert demand, for the dynamic policy and the
    // Figure 1 telemetry.
    let mut raw_counts = vec![0usize; experts];
    for &e in &expert {
        raw_counts[e as usize] += 1;
    }
    let needed = needed_capacity_factor(&raw_counts, k, tokens);
    let factor = cfg.capacity.resolve(&raw_counts, k, tokens);
    let capacity = expert_capacity(k, factor, tokens, experts);
    if experts.checked_mul(capacity).is_none() {
        return Err(TensorError::InvalidArgument(format!(
            "{experts} experts × capacity {capacity} overflows"
        )));
    }

    // Capacity slots go in token order, or under BPR in confidence
    // order: descending top-1 probability, read back from `probs`.
    let mut counts = vec![0usize; experts];
    let mut slot = vec![DROPPED; tokens * k];
    let mut dropped = 0;
    let mut grant = |t: usize| {
        for a in t * k..(t + 1) * k {
            let e = expert[a] as usize;
            if counts[e] < capacity {
                slot[a] = counts[e] as u32;
                counts[e] += 1;
            } else {
                dropped += 1;
            }
        }
    };
    if cfg.bpr {
        let p = probs.as_slice();
        let top1 = |t: usize| p[t * experts + expert[t * k] as usize];
        let mut order: Vec<usize> = (0..tokens).collect();
        order.sort_by(|&a, &b| {
            top1(b)
                .partial_cmp(&top1(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        order.into_iter().for_each(&mut grant);
    } else {
        (0..tokens).for_each(&mut grant);
    }

    Ok(Routing {
        experts,
        capacity,
        capacity_factor: factor,
        needed_factor: needed,
        normalized,
        counts,
        raw_counts,
        k,
        dropped,
        expert,
        gate,
        slot,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_tensor::Rng;

    #[test]
    fn route_top_k_equals_route_and_rejects_selections_that_do_not_fit() {
        let mut rng = Rng::seed(41);
        let probs = rng.uniform_tensor(&[9, 5], 0.0, 1.0).softmax_last();
        let cfg = RouteConfig::top2().with_bpr(true);
        let top = probs.topk_last(2).unwrap();
        assert_eq!(
            route_top_k(&probs, top.clone(), &cfg).unwrap(),
            route(&probs, &cfg).unwrap()
        );
        let (mut experts, gates) = top.clone();
        experts[3] = 5;
        assert!(route_top_k(&probs, (experts, gates), &cfg).is_err());
        let (experts, mut gates) = top.clone();
        gates.pop();
        assert!(route_top_k(&probs, (experts, gates), &cfg).is_err());
        assert!(route_top_k(&probs, top, &RouteConfig::top1()).is_err());
    }

    fn probs_preferring_expert0(tokens: usize, experts: usize) -> Tensor {
        let mut t = Tensor::zeros(&[tokens, experts]);
        for ti in 0..tokens {
            for e in 0..experts {
                let v = if e == 0 {
                    0.5 + 0.4 / (ti + 1) as f32
                } else {
                    0.5 / experts as f32
                };
                t.set(&[ti, e], v);
            }
        }
        t
    }

    #[test]
    fn capacity_clamp_drops_overflow_in_token_order() {
        let probs = probs_preferring_expert0(8, 4);
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        // k=1, f=1, T=8, E=4 → capacity 2; expert 0 keeps tokens 0, 1.
        assert_eq!(r.capacity, 2);
        assert_eq!(r.location(0, 0), Some(0));
        assert_eq!(r.location(1, 0), Some(1));
        assert_eq!(r.location(2, 0), None);
        assert_eq!(r.counts[0], 2);
        assert_eq!(r.raw_counts[0], 8);
    }

    #[test]
    fn bpr_prioritizes_confident_tokens() {
        // Token 7 has the *lowest* confidence for expert 0 under the
        // fixture (0.5 + 0.4/8); token 0 the highest. Flip the fixture
        // so late tokens are more confident, then BPR must keep them.
        let mut probs = Tensor::zeros(&[8, 4]);
        for ti in 0..8 {
            probs.set(&[ti, 0], 0.5 + 0.05 * ti as f32);
            for e in 1..4 {
                probs.set(&[ti, e], 0.01);
            }
        }
        let no_bpr = route(&probs, &RouteConfig::top1()).unwrap();
        // Token order: tokens 0 and 1 survive.
        assert_eq!(no_bpr.location(0, 0), Some(0));
        assert!(no_bpr.location(7, 0).is_none());
        let bpr = route(&probs, &RouteConfig::top1().with_bpr(true)).unwrap();
        // Confidence order: tokens 7 and 6 survive.
        assert!(bpr.location(7, 0).is_some());
        assert!(bpr.location(6, 0).is_some());
        assert!(bpr.location(0, 0).is_none());
    }

    #[test]
    fn top2_gates_normalize() {
        let mut rng = Rng::seed(1);
        let probs = rng.uniform_tensor(&[16, 8], 0.0, 1.0).softmax_last();
        let r = route(&probs, &RouteConfig::top2()).unwrap();
        for t in 0..16 {
            let g = r.gates_of(t);
            assert_eq!(g.len(), 2);
            assert!((g.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn top_any_supports_large_k() {
        let mut rng = Rng::seed(2);
        let probs = rng.uniform_tensor(&[8, 8], 0.0, 1.0).softmax_last();
        for k in [1, 3, 5, 8] {
            let cfg = RouteConfig {
                k,
                ..RouteConfig::top1()
            };
            let r = route(&probs, &cfg).unwrap();
            assert_eq!(r.k(), k);
            assert!((0..8).all(|t| r.experts_of(t).len() == k && r.selections(t).count() == k));
        }
        let cfg = RouteConfig {
            k: 9,
            ..RouteConfig::top1()
        };
        assert!(route(&probs, &cfg).is_err());
    }

    #[test]
    fn auto_min_capacity_drops_nothing() {
        let probs = probs_preferring_expert0(8, 4);
        let cfg = RouteConfig::top1().with_capacity_factor(0.0);
        let r = route(&probs, &cfg).unwrap();
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.capacity, 8); // all 8 tokens fit in expert 0
        assert!((r.capacity_factor - 4.0).abs() < 1e-9); // 8·4/(1·8)
    }

    #[test]
    fn auto_capped_capacity_respects_bound() {
        let probs = probs_preferring_expert0(8, 4);
        let cfg = RouteConfig::top1().with_capacity_factor(-2.0);
        let r = route(&probs, &cfg).unwrap();
        assert!((r.capacity_factor - 2.0).abs() < 1e-9);
        assert_eq!(r.capacity, 4);
        assert_eq!(r.dropped(), 4);
    }

    #[test]
    fn needed_factor_reported_for_telemetry() {
        let probs = probs_preferring_expert0(8, 4);
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        assert!((r.needed_factor - 4.0).abs() < 1e-9);
        assert!((r.survival_rate() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn ragged_view_packs_bins_in_capacity_slot_order() {
        let probs = probs_preferring_expert0(8, 4);
        let cfg = RouteConfig::top1().with_capacity_factor(0.0);
        let r = route(&probs, &cfg).unwrap();
        let ragged = RaggedRouting::from_routing(&r);
        assert_eq!(ragged.offsets, vec![0, 8, 8, 8, 8]);
        assert_eq!(ragged.total(), 8);
        assert_eq!(ragged.bin_len(0), 8);
        // Token order == capacity-slot order under top-1 without BPR.
        assert_eq!(ragged.slot_owner, (0..8u32).collect::<Vec<_>>());
    }

    #[test]
    fn ragged_view_skips_dropped_assignments() {
        let probs = probs_preferring_expert0(8, 4);
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        let ragged = RaggedRouting::from_routing(&r);
        assert_eq!(ragged.total(), r.counts.iter().sum::<usize>());
        assert_eq!(ragged.total(), 8 - r.dropped());
        assert_eq!(ragged.offsets.len(), r.experts + 1);
    }

    #[test]
    fn uniform_capacity_view_marks_unowned_slots() {
        // All 8 tokens prefer expert 0 at capacity 2: two slots are
        // granted, the other six capacity slots belong to nobody.
        let probs = probs_preferring_expert0(8, 4);
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        let ragged = RaggedRouting::uniform_capacity(&r);
        assert_eq!(ragged.offsets, vec![0, 2, 4, 6, 8]);
        assert_eq!(ragged.total(), r.experts * r.capacity);
        let u = RaggedRouting::UNOWNED;
        assert_eq!(ragged.slot_owner, vec![0, 1, u, u, u, u, u, u]);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// The ragged offsets are a monotone prefix sum ending at
            /// the total routed-token count, and every packed slot is
            /// owned by exactly one surviving (token, selection) pair
            /// whose padded location maps back to the same slot.
            #[test]
            fn offsets_are_a_monotone_prefix_sum(
                tokens in 1usize..40,
                experts in 1usize..12,
                k in 1usize..4,
                factor in (0usize..3).prop_map(|i| [0.0, 1.0, 2.0][i]),
                seed in 0u64..1024,
            ) {
                let k = k.min(experts);
                let mut rng = Rng::seed(seed);
                let probs = rng.uniform_tensor(&[tokens, experts], 0.0, 1.0).softmax_last();
                let cfg = RouteConfig {
                    k,
                    ..RouteConfig::top1().with_capacity_factor(factor)
                };
                let r = route(&probs, &cfg).unwrap();
                let ragged = RaggedRouting::from_routing(&r);

                prop_assert_eq!(ragged.offsets.len(), experts + 1);
                prop_assert_eq!(ragged.offsets[0], 0);
                for e in 0..experts {
                    prop_assert!(ragged.offsets[e] <= ragged.offsets[e + 1]);
                    prop_assert_eq!(ragged.bin_len(e), r.counts[e]);
                }
                let routed: usize = r.counts.iter().sum();
                prop_assert_eq!(ragged.total(), routed);
                prop_assert_eq!(ragged.total(), tokens * k - r.dropped());

                // The permutation is a bijection onto surviving
                // assignments, consistent with the padded layout.
                let mut seen = vec![false; ragged.total()];
                for t in 0..tokens {
                    for (i, (e, gate, loc)) in r.selections(t).enumerate() {
                        if let Some(l) = loc {
                            let s = ragged.offsets[e] + l;
                            prop_assert!(!seen[s]);
                            seen[s] = true;
                            prop_assert_eq!(ragged.slot_owner[s] as usize, t * k + i);
                            prop_assert_eq!(r.assignment(t * k + i), (t, gate));
                        }
                    }
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn balanced_routing_has_no_drops_at_f1() {
        // Diagonal-preference probabilities: token t prefers expert t%E.
        let (tokens, experts) = (16, 4);
        let mut probs = Tensor::zeros(&[tokens, experts]);
        for t in 0..tokens {
            probs.set(&[t, t % experts], 1.0);
        }
        let r = route(&probs, &RouteConfig::top1()).unwrap();
        assert_eq!(r.dropped(), 0);
        assert!((r.needed_factor - 1.0).abs() < 1e-9);
    }
}
