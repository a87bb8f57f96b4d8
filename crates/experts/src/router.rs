//! The inline parallelism router (Section 3.2).
//!
//! P1 and P2 have theoretically equivalent local computation, so the
//! router only compares their *communication* volumes — an O(1)
//! decision made fresh every iteration from the current `top-k` and
//! capacity factor:
//!
//! * `T_data  = O(ΔE·C·M) + O(parameters_in_single_expert)` (P1)
//! * `T_model = O(n_sharded · ΔE·C·M)` (P2)

use tutel_comm::CollectiveTiming;
use tutel_simgpu::{Protocol, Seconds};
use tutel_tensor::Precision;

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

/// The per-iteration MoE dimensions the router's cost function needs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeDims {
    /// World size `W`.
    pub world: usize,
    /// Global experts `E`.
    pub global_experts: usize,
    /// Tokens per step `T` (across the world).
    pub tokens: usize,
    /// Top-k.
    pub k: usize,
    /// Capacity factor `f`.
    pub capacity_factor: f64,
    /// Model (channel) dimension `M`.
    pub model_dim: usize,
    /// Expert hidden dimension `V`.
    pub hidden_dim: usize,
    /// Storage format of the expert weights. Token activations stay
    /// `f32` on the wire, but P1's parameter all-gather moves weight
    /// bytes — bf16 storage halves them and so shifts the P1/P2
    /// crossover.
    pub weight_precision: Precision,
}

impl MoeDims {
    /// Replication / sharding factor `R = W / E` (1 when `E ≥ W`).
    pub fn shards(&self) -> usize {
        (self.world / self.global_experts.max(1)).max(1)
    }

    /// Global per-expert capacity `C = k·f·T/E`.
    pub fn capacity(&self) -> usize {
        tutel_gate::expert_capacity(
            self.k,
            self.capacity_factor,
            self.tokens,
            self.global_experts,
        )
    }

    /// Bytes of one expert's parameters (two `M×V` matrices + biases)
    /// at the weights' storage precision.
    pub fn expert_param_bytes(&self) -> f64 {
        ((2 * self.model_dim * self.hidden_dim + self.model_dim + self.hidden_dim)
            * self.weight_precision.storage_bytes()) as f64
    }

    /// Bytes per GPU of one *un-replicated* token All-to-All: each GPU
    /// ends up with `ΔE·C/R` rows of `M` floats under P1.
    pub fn token_a2a_bytes_p1(&self) -> f64 {
        let local_rows = self.capacity() as f64 * self.global_experts as f64 / self.world as f64;
        local_rows * self.model_dim as f64 * 4.0
    }

    /// Bytes per GPU of the P2 token All-to-All: tokens are repeated
    /// `n_sharded` times, so every shard sees the full capacity.
    pub fn token_a2a_bytes_p2(&self) -> f64 {
        self.token_a2a_bytes_p1() * self.shards() as f64
    }
}

/// O(1) communication-cost router between [`Parallelism::P1`] and
/// [`Parallelism::P2`].
///
/// # Example
///
/// ```
/// use tutel_comm::{CollectiveTiming, World};
/// use tutel_experts::{InlineParallelismRouter, MoeDims, Parallelism};
/// use tutel_obs::Telemetry;
///
/// let router = InlineParallelismRouter::new(CollectiveTiming::new(World::azure(8)));
/// let mut dims = MoeDims {
///     world: 8, global_experts: 2, tokens: 2048, k: 2,
///     capacity_factor: 1.0, model_dim: 2048, hidden_dim: 8192,
///     weight_precision: tutel_tensor::Precision::F32,
/// };
/// // Small workload: avoid moving the big expert weights → P2.
/// assert_eq!(router.choose(&dims, &Telemetry::disabled()), Parallelism::P2);
/// // 16× the workload: token traffic dominates → P1.
/// dims.capacity_factor = 16.0;
/// assert_eq!(router.choose(&dims, &Telemetry::disabled()), Parallelism::P1);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InlineParallelismRouter {
    timing: CollectiveTiming,
    /// All-to-All passes per iteration (dispatch + combine, forward and
    /// backward).
    a2a_passes: f64,
    /// Parameter-collective passes per iteration for P1 (all-gather in
    /// forward + reduce-scatter of gradients in backward).
    param_passes: f64,
}

impl InlineParallelismRouter {
    /// Creates a router pricing on `timing`.
    pub fn new(timing: CollectiveTiming) -> Self {
        InlineParallelismRouter {
            timing,
            a2a_passes: 4.0,
            param_passes: 2.0,
        }
    }

    /// Estimated per-iteration communication cost of P1.
    pub fn p1_cost(&self, dims: &MoeDims) -> Seconds {
        let token = self.a2a_passes
            * self
                .timing
                .linear_time(dims.token_a2a_bytes_p1(), Protocol::Simple);
        let shards = dims.shards();
        let param = if shards > 1 {
            self.param_passes
                * self
                    .timing
                    .all_gather_time(dims.expert_param_bytes() / shards as f64, shards)
        } else {
            0.0
        };
        token + param
    }

    /// Estimated per-iteration communication cost of P2.
    ///
    /// Includes the *local* data movement P2's dispatch requires: the
    /// `n_sharded`-way token repeat before the All-to-All and the sum
    /// reduction after combine (Figure 12) — both HBM-bound copies over
    /// the replicated volume.
    pub fn p2_cost(&self, dims: &MoeDims) -> Seconds {
        let bytes = dims.token_a2a_bytes_p2();
        let a2a = self.a2a_passes * self.timing.linear_time(bytes, Protocol::Simple);
        let local = if dims.shards() > 1 {
            // Repeat: read bytes/R, write bytes; reduce: read bytes,
            // write bytes/R → (2 + 2/R) passes over HBM.
            let passes = 2.0 + 2.0 / dims.shards() as f64;
            passes * self.timing.world().gpu().copy_time(bytes)
        } else {
            0.0
        };
        a2a + local
    }

    /// Picks the cheaper strategy for this iteration's dimensions, and
    /// appends an adaptive-decision audit record (both candidate costs
    /// and the winner) to `tel` when it is enabled.
    pub fn choose(&self, dims: &MoeDims, tel: &tutel_obs::Telemetry) -> Parallelism {
        let p1 = self.p1_cost(dims);
        let p2 = self.p2_cost(dims);
        let choice = if p1 <= p2 {
            Parallelism::P1
        } else {
            Parallelism::P2
        };
        if tel.is_enabled() {
            tel.decision(tutel_obs::DecisionRecord {
                kind: "parallelism".to_string(),
                capacity_factor: dims.capacity_factor,
                candidates: vec![
                    (Parallelism::P1.label().to_string(), p1),
                    (Parallelism::P2.label().to_string(), p2),
                ],
                chosen: choice.to_string(),
                predicted_s: Some(p1.min(p2)),
                measured_s: None,
                cause: None,
                precision: Some(dims.weight_precision.label().to_string()),
                dropless: dims.capacity_factor == 0.0,
                step: None,
            });
        }
        choice
    }

    /// The cost of a *static* choice, for computing the adaptive
    /// improvement of Table 5.
    pub fn cost_of(&self, p: Parallelism, dims: &MoeDims) -> Seconds {
        match p {
            Parallelism::P1 => self.p1_cost(dims),
            Parallelism::P2 => self.p2_cost(dims),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_comm::World;
    use tutel_obs::Telemetry;

    fn router() -> InlineParallelismRouter {
        InlineParallelismRouter::new(CollectiveTiming::new(World::azure(8)))
    }

    fn dims(experts: usize, tokens: usize, hidden: usize, f: f64) -> MoeDims {
        MoeDims {
            world: 8,
            global_experts: experts,
            tokens,
            k: 2,
            capacity_factor: f,
            model_dim: 2048,
            hidden_dim: hidden,
            weight_precision: Precision::F32,
        }
    }

    #[test]
    fn small_f_prefers_p2_large_f_prefers_p1() {
        // Table 5a setting: E2, S2K, V8K, sweep f.
        let r = router();
        assert_eq!(
            r.choose(&dims(2, 2048, 8192, 1.0), &Telemetry::disabled()),
            Parallelism::P2
        );
        assert_eq!(
            r.choose(&dims(2, 2048, 8192, 16.0), &Telemetry::disabled()),
            Parallelism::P1
        );
        // The choice flips exactly once as f grows.
        let mut flips = 0;
        let mut last = r.choose(&dims(2, 2048, 8192, 0.5), &Telemetry::disabled());
        for i in 1..64 {
            let cur = r.choose(&dims(2, 2048, 8192, 0.5 * i as f64), &Telemetry::disabled());
            if cur != last {
                flips += 1;
                last = cur;
            }
        }
        assert_eq!(flips, 1, "cost curves must cross exactly once");
    }

    #[test]
    fn large_tokens_prefer_p1() {
        // Table 5b: f1,E2,S16K,V2K and S32K → P1.
        let r = router();
        assert_eq!(
            r.choose(&dims(2, 16384, 2048, 1.0), &Telemetry::disabled()),
            Parallelism::P1
        );
        assert_eq!(
            r.choose(&dims(2, 32768, 2048, 1.0), &Telemetry::disabled()),
            Parallelism::P1
        );
    }

    #[test]
    fn large_hidden_dim_prefers_p2() {
        // Table 5b: f1,E4,S1K,V4K / V8K → P2 (parameter traffic hurts P1).
        let r = router();
        assert_eq!(
            r.choose(&dims(4, 1024, 4096, 1.0), &Telemetry::disabled()),
            Parallelism::P2
        );
        assert_eq!(
            r.choose(&dims(4, 1024, 8192, 1.0), &Telemetry::disabled()),
            Parallelism::P2
        );
    }

    #[test]
    fn fewer_experts_hurt_p2() {
        // Table 5b: f1,E4,S4K,V8K → P2 but f1,E1,S4K,V8K → P1, because
        // E = 1 forces 8-way sharding (8× token replication).
        let r = router();
        assert_eq!(
            r.choose(&dims(4, 4096, 8192, 1.0), &Telemetry::disabled()),
            Parallelism::P2
        );
        assert_eq!(
            r.choose(&dims(1, 4096, 8192, 1.0), &Telemetry::disabled()),
            Parallelism::P1
        );
    }

    #[test]
    fn unsharded_case_p1_has_no_param_cost_and_wins() {
        // E = W: no replication, P1 pays no parameter collective and
        // P2's "sharding" degenerates to 1 — identical costs, P1 picked
        // by tie-break.
        let r = router();
        let d = dims(8, 4096, 4096, 1.0);
        assert_eq!(d.shards(), 1);
        assert!((r.p1_cost(&d) - r.p2_cost(&d)).abs() < 1e-12);
        assert_eq!(r.choose(&d, &Telemetry::disabled()), Parallelism::P1);
    }

    #[test]
    fn bf16_weights_shift_the_p1_p2_crossover() {
        // bf16 storage halves P1's parameter all-gather bytes while
        // leaving token traffic (f32 activations) untouched, so the
        // crossover capacity factor must move *down*: some f that
        // picks P2 under f32 pricing flips to P1 under bf16.
        let r = router();
        let mut flipped_at = None;
        for i in 1..256 {
            let f = 0.125 * i as f64;
            let mut d = dims(2, 2048, 8192, f);
            let f32_choice = r.choose(&d, &Telemetry::disabled());
            d.weight_precision = Precision::Bf16;
            let bf16_choice = r.choose(&d, &Telemetry::disabled());
            if f32_choice == Parallelism::P2 && bf16_choice == Parallelism::P1 {
                flipped_at = Some(f);
                break;
            }
            assert_eq!(
                f32_choice, bf16_choice,
                "cheaper params can only ever favor P1, f = {f}"
            );
        }
        let f = flipped_at.expect("re-priced params must flip some decision");

        // The audit trail shows the flip: same dims, two precision
        // modes, two different winners — each record tagged with the
        // price book it used.
        let tel = Telemetry::enabled();
        let mut d = dims(2, 2048, 8192, f);
        assert_eq!(r.choose(&d, &tel), Parallelism::P2);
        d.weight_precision = Precision::Bf16;
        assert_eq!(r.choose(&d, &tel), Parallelism::P1);
        let decisions = tel.decisions();
        assert_eq!(decisions.len(), 2);
        assert_eq!(decisions[0].precision.as_deref(), Some("f32"));
        assert_eq!(decisions[1].precision.as_deref(), Some("bf16"));
        assert_ne!(decisions[0].chosen, decisions[1].chosen);
    }

    #[test]
    fn labels_are_the_grid_spelling() {
        assert_eq!(Parallelism::P1.label(), "P1");
        assert_eq!(Parallelism::P2.label(), "P2");
        assert_eq!(Parallelism::P1.to_string(), "P1 (EP+DP)");
    }

    #[test]
    fn cost_of_matches_choose() {
        let r = router();
        for f in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
            let d = dims(2, 2048, 8192, f);
            let best = r.choose(&d, &Telemetry::disabled());
            assert!(r.cost_of(best, &d) <= r.cost_of(Parallelism::P1, &d) + 1e-15);
            assert!(r.cost_of(best, &d) <= r.cost_of(Parallelism::P2, &d) + 1e-15);
        }
    }
}
