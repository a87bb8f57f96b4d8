//! The single-MoE-layer time simulator: Tutel's feature ladder
//! (Figure 23) over the calibrated cluster model.
//!
//! Each [`FeatureSet`] enables a subset of Tutel's optimizations on top
//! of the Fairseq baseline, mirroring the curves of Figure 23:
//!
//! 1. baseline (dense kernels, linear All-to-All, rigid layout, no
//!    overlap);
//! 2. `+` Tutel kernels;
//! 3. `+` adaptive pipelining (joint algorithm × degree search);
//! 4. `+` Flexible All-to-All;
//! 5. `+` adaptive parallelism switching, by the
//!    [`InlineParallelismRouter`] (Section 3.2) this module also holds.
//!
//! Everything here is priced on one [`ClusterModel`].

use tutel_experts::{ExpertPlacement, Parallelism};
use tutel_tensor::Precision;

use crate::cost::{A2aPhase, ClusterModel, Protocol, Seconds};
use crate::pipeline::{LayerDims, PipelineStrategy, PipelineTimeModel};

/// Which Tutel optimizations are active.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FeatureSet {
    /// Sparse fast encode/decode instead of the dense einsum.
    pub tutel_kernels: bool,
    /// Online (algorithm × degree) pipelining search instead of static
    /// (Linear, degree 1).
    pub adaptive_pipelining: bool,
    /// Flexible All-to-All layout instead of the rigid one.
    pub flexible_a2a: bool,
    /// Inline parallelism router (P1/P2 switching).
    pub adaptive_parallelism: bool,
}

impl FeatureSet {
    /// Curve (1): the Fairseq baseline.
    pub fn fairseq_baseline() -> Self {
        FeatureSet::default()
    }

    /// Curve (2): Tutel kernels + linear All-to-All.
    pub fn kernels() -> Self {
        FeatureSet {
            tutel_kernels: true,
            ..FeatureSet::default()
        }
    }

    /// Curve (3): kernels + adaptive pipelining.
    pub fn kernels_pipelining() -> Self {
        FeatureSet {
            adaptive_pipelining: true,
            ..FeatureSet::kernels()
        }
    }

    /// Curve (4): kernels + adaptive pipelining + Flexible All-to-All.
    pub fn kernels_pipelining_flex() -> Self {
        FeatureSet {
            flexible_a2a: true,
            ..FeatureSet::kernels_pipelining()
        }
    }

    /// Curve (5): everything.
    pub fn full() -> Self {
        FeatureSet {
            adaptive_parallelism: true,
            ..FeatureSet::kernels_pipelining_flex()
        }
    }

    /// The Figure 23 ladder, in order.
    pub fn ladder() -> [(&'static str, FeatureSet); 5] {
        [
            ("Fairseq baseline", FeatureSet::fairseq_baseline()),
            ("+ Tutel kernels", FeatureSet::kernels()),
            ("+ adaptive pipelining", FeatureSet::kernels_pipelining()),
            (
                "+ flexible All-to-All",
                FeatureSet::kernels_pipelining_flex(),
            ),
            ("+ adaptive parallelism", FeatureSet::full()),
        ]
    }
}

/// Simulates the per-iteration time of one MoE layer under a feature
/// set, on a given (simulated) cluster.
///
/// # Example
///
/// ```
/// use tutel::adaptive::{FeatureSet, MoeLayerSimulator};
/// use tutel::cost::ClusterModel;
/// use tutel::pipeline::LayerDims;
/// use tutel_obs::Telemetry;
///
/// let sim = MoeLayerSimulator::new(ClusterModel::azure(16));
/// let dims = LayerDims::figure23();
/// let base = sim.step_time(&dims, FeatureSet::fairseq_baseline(), &Telemetry::disabled());
/// let full = sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled());
/// assert!(base / full > 2.0, "Tutel must clearly beat Fairseq at 16 GPUs");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MoeLayerSimulator {
    cluster: ClusterModel,
}

impl MoeLayerSimulator {
    /// Creates a simulator pricing on `cluster`.
    pub fn new(cluster: ClusterModel) -> Self {
        MoeLayerSimulator { cluster }
    }

    /// The cluster being priced.
    pub fn cluster(&self) -> &ClusterModel {
        &self.cluster
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.cluster.size()
    }

    /// The time model `features` selects.
    fn model(&self, features: FeatureSet) -> PipelineTimeModel {
        let mut model = PipelineTimeModel::new(self.cluster);
        model.sparse_kernels = features.tutel_kernels;
        model.flexible_layout = features.flexible_a2a;
        model
    }

    /// The strategy `features` runs under `model`: the modeled best
    /// with adaptive pipelining (audited into `tel`), else the static
    /// baseline.
    fn pick_strategy(
        model: &PipelineTimeModel,
        dims: &LayerDims,
        features: FeatureSet,
        tel: &tutel_obs::Telemetry,
    ) -> PipelineStrategy {
        if features.adaptive_pipelining {
            model.best_strategy(dims, tel).0
        } else {
            PipelineStrategy::baseline()
        }
    }

    /// `dims` as the parallelism router's [`MoeDims`], with
    /// `global_experts` spread over this simulator's world.
    fn moe_dims(&self, dims: &LayerDims, global_experts: usize) -> MoeDims {
        MoeDims {
            world: self.world_size(),
            global_experts,
            tokens: dims.tokens,
            k: dims.k,
            capacity_factor: dims.capacity_factor,
            model_dim: dims.model_dim,
            hidden_dim: dims.hidden_dim,
            weight_precision: Precision::F32,
        }
    }

    /// Per-iteration time of the MoE layer under `features`.
    ///
    /// An enabled `tel` gets the strategy search's audit record (all
    /// eight candidate strategies, modeled costs, and the winner) when
    /// `features` has `adaptive_pipelining`, and one collective record
    /// per priced All-to-All chunk.
    pub fn step_time(
        &self,
        dims: &LayerDims,
        features: FeatureSet,
        tel: &tutel_obs::Telemetry,
    ) -> Seconds {
        let model = self.model(features);
        let strategy = Self::pick_strategy(&model, dims, features, tel);
        let time = model.step_time(dims, strategy);
        if tel.is_enabled() {
            // Record each priced All-to-All chunk under its phase —
            // dispatch and combine are separate collectives in the
            // executed schedule and must not share a telemetry bucket.
            // Their payloads differ whenever the capacity is asymmetric
            // (top-ANY routing, chunked pipelining); one `"all_to_all"`
            // bucket skewed the Algorithm-2 prior.
            let d = strategy.degree.max(1);
            let chunk_bytes = dims.a2a_bytes() / d as f64;
            for phase in [A2aPhase::Dispatch, A2aPhase::Combine] {
                for _ in 0..d {
                    let t =
                        self.cluster
                            .all_to_all_time(strategy.algo, chunk_bytes, Protocol::Simple);
                    tel.collective(phase.op(), &strategy.algo.to_string(), chunk_bytes, t);
                }
            }
        }
        time
    }

    /// Per-iteration time under an explicit pipelining strategy
    /// (for the Table 7 static-strategy comparisons).
    pub fn step_time_with_strategy(
        &self,
        dims: &LayerDims,
        features: FeatureSet,
        strategy: PipelineStrategy,
    ) -> Seconds {
        self.model(features).step_time(dims, strategy)
    }

    /// Computation-only overhead (curve (6) of Figure 23): gating,
    /// encode/decode, and expert GEMM — no communication.
    pub fn computation_only_time(&self, dims: &LayerDims) -> Seconds {
        let w = self.world_size();
        let gpu = self.cluster.gpu();
        let e_global = w * dims.local_experts;
        let rows = dims.expert_rows() / dims.local_experts.max(1);
        gpu.gate_time(dims.tokens, e_global)
            + 2.0 * gpu.sparse_encode_time(dims.tokens, dims.k, dims.model_dim)
            + gpu.gemm_time(dims.local_experts, rows, dims.model_dim, dims.hidden_dim)
            + gpu.gemm_time(dims.local_experts, rows, dims.hidden_dim, dims.model_dim)
    }

    /// Per-iteration time under an explicit expert placement
    /// (`count_per_node`, Figure 17). When the placement replicates or
    /// shards experts (`E < W`), the parallelism choice carries a real
    /// cost: without `adaptive_parallelism` the layer statically runs
    /// P1 (Expert+Data, the frameworks' default) and pays its parameter
    /// collectives; with it, the inline router picks the cheaper of
    /// P1/P2 each iteration.
    ///
    /// # Panics
    ///
    /// Panics if the placement's world size differs from the
    /// simulator's.
    pub fn step_time_with_placement(
        &self,
        dims: &LayerDims,
        features: FeatureSet,
        placement: &ExpertPlacement,
    ) -> Seconds {
        assert_eq!(
            placement.world(),
            self.world_size(),
            "placement world mismatch"
        );
        let model = self.model(features);
        let strategy =
            Self::pick_strategy(&model, dims, features, &tutel_obs::Telemetry::disabled());
        let base = model.step_time(dims, strategy);
        let moe_dims = self.moe_dims(dims, placement.global_experts());
        if moe_dims.shards() <= 1 {
            return base;
        }
        let router = InlineParallelismRouter::new(self.cluster);
        // The pipeline model already prices the unreplicated token
        // path; the placement adds each strategy's *surcharge* over it
        // (P1: parameter collectives; P2: token replication + local
        // repeat/reduce).
        let token_baseline = InlineParallelismRouter::A2A_PASSES
            * self
                .cluster
                .linear_time(moe_dims.token_a2a_bytes_p1(), Protocol::Simple);
        let surcharge = |p: Parallelism| (router.cost_of(p, &moe_dims) - token_baseline).max(0.0);
        let extra = if features.adaptive_parallelism {
            surcharge(Parallelism::P1).min(surcharge(Parallelism::P2))
        } else {
            surcharge(Parallelism::P1)
        };
        base + extra
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

/// The inline parallelism router (Section 3.2): an O(1)
/// communication-cost choice between [`Parallelism::P1`] and
/// [`Parallelism::P2`], made fresh every iteration from the current
/// `top-k` and capacity factor.
///
/// P1 and P2 have theoretically equivalent local computation, so the
/// router only compares their *communication* volumes:
///
/// * `T_data  = O(ΔE·C·M) + O(parameters_in_single_expert)` (P1)
/// * `T_model = O(n_sharded · ΔE·C·M)` (P2)
///
/// # Example
///
/// ```
/// use tutel::adaptive::{InlineParallelismRouter, MoeDims};
/// use tutel::cost::ClusterModel;
/// use tutel_experts::Parallelism;
/// use tutel_obs::Telemetry;
///
/// let router = InlineParallelismRouter::new(ClusterModel::azure(8));
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
    cluster: ClusterModel,
}

impl InlineParallelismRouter {
    /// All-to-All passes per iteration (dispatch + combine, forward and
    /// backward).
    const A2A_PASSES: f64 = 4.0;
    /// Parameter-collective passes per iteration for P1 (all-gather in
    /// forward + reduce-scatter of gradients in backward).
    const PARAM_PASSES: f64 = 2.0;

    /// Creates a router pricing on `cluster`.
    pub fn new(cluster: ClusterModel) -> Self {
        InlineParallelismRouter { cluster }
    }

    /// Estimated per-iteration communication cost of P1.
    pub fn p1_cost(&self, dims: &MoeDims) -> Seconds {
        let token = Self::A2A_PASSES
            * self
                .cluster
                .linear_time(dims.token_a2a_bytes_p1(), Protocol::Simple);
        let shards = dims.shards();
        let param = if shards > 1 {
            Self::PARAM_PASSES
                * self
                    .cluster
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
        let a2a = Self::A2A_PASSES * self.cluster.linear_time(bytes, Protocol::Simple);
        let local = if dims.shards() > 1 {
            // Repeat: read bytes/R, write bytes; reduce: read bytes,
            // write bytes/R → (2 + 2/R) passes over HBM.
            let passes = 2.0 + 2.0 / dims.shards() as f64;
            passes * self.cluster.gpu().copy_time(bytes)
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
    use tutel_obs::Telemetry;

    #[test]
    fn ladder_is_monotonically_non_worse() {
        for world in [16, 128, 2048] {
            let sim = MoeLayerSimulator::new(ClusterModel::azure(world));
            let dims = LayerDims::figure23();
            let mut last = f64::INFINITY;
            for (name, fs) in FeatureSet::ladder() {
                let t = sim.step_time(&dims, fs, &Telemetry::disabled());
                assert!(
                    t <= last * 1.0001,
                    "{name} at {world} GPUs regressed: {t} after {last}"
                );
                last = t;
            }
        }
    }

    #[test]
    fn figure23_anchor_speedups() {
        // Paper: 4.96× on 16 GPUs, 5.75× on 2,048 GPUs (full vs
        // Fairseq). Require the right ballpark and ordering.
        let dims = LayerDims::figure23();
        let speedup = |w: usize| {
            let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
            sim.step_time(
                &dims,
                FeatureSet::fairseq_baseline(),
                &Telemetry::disabled(),
            ) / sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled())
        };
        let s16 = speedup(16);
        let s2048 = speedup(2048);
        assert!(s16 > 2.0 && s16 < 12.0, "16-GPU speedup {s16}");
        assert!(s2048 > 2.0 && s2048 < 15.0, "2,048-GPU speedup {s2048}");
    }

    #[test]
    fn kernel_gain_fades_with_scale() {
        // Figure 23 curve (2): 3.52× at 16 GPUs, 1.04× at 2,048 (the
        // layer becomes All-to-All-bound).
        let dims = LayerDims::figure23();
        let gain = |w: usize| {
            let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
            sim.step_time(
                &dims,
                FeatureSet::fairseq_baseline(),
                &Telemetry::disabled(),
            ) / sim.step_time(&dims, FeatureSet::kernels(), &Telemetry::disabled())
        };
        let g16 = gain(16);
        let g2048 = gain(2048);
        assert!(g16 > 2.0, "kernel gain at 16 GPUs {g16}");
        assert!(g2048 < 1.5, "kernel gain at 2,048 GPUs {g2048}");
        assert!(g16 > g2048);
    }

    #[test]
    fn pipelining_gain_grows_with_scale() {
        // Figure 23 curve (3): adaptive pipelining (2DH at scale)
        // delivers its big win at 2,048 GPUs (4.25× over curve 2).
        let dims = LayerDims::figure23();
        let gain = |w: usize| {
            let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
            sim.step_time(&dims, FeatureSet::kernels(), &Telemetry::disabled())
                / sim.step_time(
                    &dims,
                    FeatureSet::kernels_pipelining(),
                    &Telemetry::disabled(),
                )
        };
        assert!(
            gain(2048) > gain(16),
            "pipelining gain must grow with scale"
        );
        assert!(gain(2048) > 1.5, "2,048-GPU pipelining gain {}", gain(2048));
    }

    #[test]
    fn computation_overhead_grows_slowly_with_scale() {
        // Figure 23 curve (6): compute overhead grows slightly with W
        // because gating scales with the number of global experts.
        let dims = LayerDims::figure23();
        let c16 = MoeLayerSimulator::new(ClusterModel::azure(16)).computation_only_time(&dims);
        let c2048 = MoeLayerSimulator::new(ClusterModel::azure(2048)).computation_only_time(&dims);
        assert!(c2048 > c16, "gate cost grows with E");
        assert!(c2048 < 3.0 * c16, "but only mildly: {c16} → {c2048}");
    }

    #[test]
    fn placement_aware_simulation_rewards_adaptivity_under_replication() {
        // count_per_node = -4: each expert sharded over 4 GPUs
        // (E = W/4) — the regime where curve (4) and curve (5) of
        // Figure 23 genuinely diverge.
        let w = 64;
        let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
        let placement = ExpertPlacement::from_count_per_node(-4, w).unwrap();
        let mut dims = LayerDims::figure23();
        dims.local_experts = 1;
        let static_p1 =
            sim.step_time_with_placement(&dims, FeatureSet::kernels_pipelining_flex(), &placement);
        let adaptive = sim.step_time_with_placement(&dims, FeatureSet::full(), &placement);
        assert!(
            adaptive <= static_p1,
            "adaptive {adaptive} vs static {static_p1}"
        );
        // And both exceed the unreplicated base (the surcharge is real).
        let unreplicated = sim.step_time(
            &dims,
            FeatureSet::kernels_pipelining_flex(),
            &Telemetry::disabled(),
        );
        assert!(static_p1 > unreplicated);
        // Small f with a fat expert (V = 16K: expensive parameters,
        // cheap tokens) favors P2 strongly → the adaptive gap must
        // open (the Figure 3 regime).
        dims.capacity_factor = 0.25;
        dims.hidden_dim = 16384;
        let s =
            sim.step_time_with_placement(&dims, FeatureSet::kernels_pipelining_flex(), &placement);
        let a = sim.step_time_with_placement(&dims, FeatureSet::full(), &placement);
        assert!(a < s, "adaptive must win at small f: {a} vs {s}");
    }

    #[test]
    fn observed_step_prices_dispatch_and_combine_separately() {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(64));
        let dims = LayerDims::figure23();
        let tel = Telemetry::enabled();
        let t = sim.step_time(&dims, FeatureSet::full(), &tel);
        assert_eq!(
            t,
            sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled())
        );
        let records: Vec<(String, f64)> = tel
            .events()
            .into_iter()
            .filter_map(|e| match e {
                tutel_obs::Event::Collective(c) => Some((c.op, c.bytes)),
                _ => None,
            })
            .collect();
        let ops: Vec<&str> = records.iter().map(|(op, _)| op.as_str()).collect();
        let dispatches = ops.iter().filter(|o| **o == "a2a_dispatch").count();
        let combines = ops.iter().filter(|o| **o == "a2a_combine").count();
        assert!(dispatches > 0, "dispatch leg must be recorded: {ops:?}");
        assert_eq!(dispatches, combines, "one combine chunk per dispatch chunk");
        // Each record carries its own chunk's payload.
        let chunk_bytes = dims.a2a_bytes() / dispatches as f64;
        assert!(
            records.iter().all(|&(_, b)| b == chunk_bytes),
            "{records:?}"
        );
        assert!(
            !ops.contains(&"all_to_all"),
            "no leg may fall into the old summed bucket: {ops:?}"
        );
    }

    #[test]
    fn parallelism_saving_only_when_replicated() {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(16));
        // ΔE = 2: E = 32 > W → no replication → curves 4 and 5 match.
        let dims = LayerDims::figure23();
        assert_eq!(
            sim.step_time(
                &dims,
                FeatureSet::kernels_pipelining_flex(),
                &Telemetry::disabled()
            ),
            sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled())
        );
    }
}

#[cfg(test)]
mod router_tests {
    use super::*;
    use tutel_obs::Telemetry;

    fn router() -> InlineParallelismRouter {
        InlineParallelismRouter::new(ClusterModel::azure(8))
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
