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
//! 5. `+` adaptive parallelism switching.

use tutel_comm::{A2aPhase, CollectiveTiming};
use tutel_experts::{ExpertPlacement, InlineParallelismRouter, MoeDims, Parallelism};
use tutel_simgpu::{Protocol, Seconds};

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
/// use tutel::pipeline::LayerDims;
/// use tutel_obs::Telemetry;
///
/// let sim = MoeLayerSimulator::azure(16);
/// let dims = LayerDims::figure23();
/// let base = sim.step_time(&dims, FeatureSet::fairseq_baseline(), &Telemetry::disabled());
/// let full = sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled());
/// assert!(base / full > 2.0, "Tutel must clearly beat Fairseq at 16 GPUs");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MoeLayerSimulator {
    timing: CollectiveTiming,
}

impl MoeLayerSimulator {
    /// Creates a simulator for an Azure NDv4-shaped cluster of
    /// `world_size` GPUs.
    ///
    /// # Panics
    ///
    /// Panics for invalid world sizes (see
    /// [`tutel_simgpu::Topology::azure_ndv4`]).
    pub fn azure(world_size: usize) -> Self {
        MoeLayerSimulator {
            timing: CollectiveTiming::new(tutel_comm::World::azure(world_size)),
        }
    }

    /// Creates a simulator over an explicit pricer.
    pub fn new(timing: CollectiveTiming) -> Self {
        MoeLayerSimulator { timing }
    }

    /// The collective pricer.
    pub fn timing(&self) -> &CollectiveTiming {
        &self.timing
    }

    /// World size.
    pub fn world_size(&self) -> usize {
        self.timing.world().size()
    }

    /// The time model `features` selects.
    fn model(&self, features: FeatureSet) -> PipelineTimeModel {
        let mut model = PipelineTimeModel::new(self.timing);
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
            weight_precision: tutel_tensor::Precision::F32,
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
                        (self.timing).all_to_all_time(strategy.algo, chunk_bytes, Protocol::Simple);
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
        let gpu = self.timing.world().gpu();
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
        let router = InlineParallelismRouter::new(self.timing);
        // The pipeline model already prices the unreplicated token
        // path; the placement adds each strategy's *surcharge* over it
        // (P1: parameter collectives; P2: token replication + local
        // repeat/reduce).
        let token_baseline = 4.0
            * self
                .timing
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

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_obs::Telemetry;

    #[test]
    fn ladder_is_monotonically_non_worse() {
        for world in [16, 128, 2048] {
            let sim = MoeLayerSimulator::azure(world);
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
            let sim = MoeLayerSimulator::azure(w);
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
            let sim = MoeLayerSimulator::azure(w);
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
            let sim = MoeLayerSimulator::azure(w);
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
        let c16 = MoeLayerSimulator::azure(16).computation_only_time(&dims);
        let c2048 = MoeLayerSimulator::azure(2048).computation_only_time(&dims);
        assert!(c2048 > c16, "gate cost grows with E");
        assert!(c2048 < 3.0 * c16, "but only mildly: {c16} → {c2048}");
    }

    #[test]
    fn placement_aware_simulation_rewards_adaptivity_under_replication() {
        // count_per_node = -4: each expert sharded over 4 GPUs
        // (E = W/4) — the regime where curve (4) and curve (5) of
        // Figure 23 genuinely diverge.
        let w = 64;
        let sim = MoeLayerSimulator::azure(w);
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
        let sim = MoeLayerSimulator::azure(64);
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
        let sim = MoeLayerSimulator::azure(16);
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
