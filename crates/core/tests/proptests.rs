//! Property-based tests for the core crate: Algorithm 2's search is
//! total and convergent, the MoE layer is numerically robust under
//! arbitrary (valid) dynamic knob settings, and the parallelism
//! router's choice is consistent with its own costs, and the link and
//! kernel models are monotone in message size and GEMM shape.

use proptest::prelude::*;
use tutel::adaptive::{InlineParallelismRouter, MoeDims};
use tutel::cost::{ClusterModel, GpuCostModel, LinkModel, Protocol};
use tutel::pipeline::{OnlineStrategySearch, PipelineStrategy};
use tutel::{MoeConfig, MoeLayer};
use tutel_obs::Telemetry;
use tutel_tensor::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn search_is_total_over_arbitrary_f_sequences(
        fs in proptest::collection::vec(0.01f64..64.0, 1..60),
        bucket_len in 0.1f64..8.0,
    ) {
        let mut search = OnlineStrategySearch::new(bucket_len);
        let space = PipelineStrategy::all();
        for (i, &f) in fs.iter().enumerate() {
            let s = search.next_strategy(f, &Telemetry::disabled());
            prop_assert!(space.contains(&s), "returned an out-of-space strategy");
            // Synthetic measurement: deterministic in (f, s).
            let t = 1.0 + (s.degree as f64) * (f % 1.7) + if i % 3 == 0 { 0.1 } else { 0.0 };
            search.record(f, s, t);
        }
        prop_assert!(search.num_buckets() <= search.known_factors());
        prop_assert!(search.known_factors() <= fs.len());
    }

    #[test]
    fn search_converges_for_any_stationary_oracle(
        best_idx in 0usize..8,
        f in 0.1f64..16.0,
    ) {
        let space = PipelineStrategy::all();
        let best = space[best_idx];
        let mut search = OnlineStrategySearch::new(1.0);
        for _ in 0..=space.len() {
            let s = search.next_strategy(f, &Telemetry::disabled());
            let t = if s == best { 1.0 } else { 2.0 };
            search.record(f, s, t);
        }
        prop_assert_eq!(search.next_strategy(f, &Telemetry::disabled()), best);
    }

    #[test]
    fn moe_layer_is_finite_under_arbitrary_valid_knobs(
        tokens in 1usize..24,
        experts in 1usize..6,
        k_off in 0usize..6,
        cap_arg in -3.0f64..3.0,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        // cap_arg near 0 means auto; route() requires nonzero handling
        // via from_arg (0.0 == AutoMin) — all values are valid.
        let cfg = MoeConfig::new(6, 8, experts)
            .with_top_k(k)
            .with_capacity_factor(if cap_arg.abs() < 0.05 { 0.0 } else { cap_arg });
        let mut rng = Rng::seed(seed);
        let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
        let x = rng.normal_tensor(&[tokens, 6], 0.0, 1.0);
        let out = layer.forward(&x).unwrap();
        prop_assert!(out.output.max_abs().is_finite());
        prop_assert!(out.aux_loss.is_finite() && out.aux_loss >= 0.0);
        prop_assert!((0.0..=1.0).contains(&out.survival_rate));
        let dx = layer.backward(&out.output).unwrap();
        prop_assert!(dx.max_abs().is_finite());
        layer.step(0.01);
        let out2 = layer.infer(&x).unwrap();
        prop_assert!(out2.output.max_abs().is_finite());
    }

    #[test]
    fn gate_weights_of_survivors_bound_output_norm(
        tokens in 1usize..16,
        experts in 2usize..5,
        seed in any::<u64>(),
    ) {
        // With identity-ish small weights the layer output norm stays
        // within a constant of the input norm (no amplification blowup
        // from routing).
        let cfg = MoeConfig::new(5, 6, experts).with_capacity_factor(0.0);
        let mut rng = Rng::seed(seed);
        let layer = MoeLayer::new(&cfg, &mut rng).unwrap();
        let x = rng.normal_tensor(&[tokens, 5], 0.0, 1.0);
        let out = layer.infer(&x).unwrap();
        prop_assert!(out.output.sq_norm().sqrt() <= 50.0 * (1.0 + x.sq_norm().sqrt()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn router_choice_minimizes_its_own_costs(
        experts in 1usize..9,
        tokens_pow in 8u32..16,
        f in 0.25f64..16.0,
        hidden_pow in 10u32..14,
    ) {
        let router = InlineParallelismRouter::new(ClusterModel::azure(8));
        let dims = MoeDims {
            world: 8,
            global_experts: experts,
            tokens: 1 << tokens_pow,
            k: 2,
            capacity_factor: f,
            model_dim: 2048,
            hidden_dim: 1 << hidden_pow,
            weight_precision: tutel_tensor::Precision::F32,
        };
        let choice = router.choose(&dims, &Telemetry::disabled());
        let chosen = router.cost_of(choice, &dims);
        prop_assert!(chosen <= router.p1_cost(&dims) + 1e-15);
        prop_assert!(chosen <= router.p2_cost(&dims) + 1e-15);
        prop_assert!(chosen > 0.0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn effective_bandwidth_is_monotone_in_size(
        sizes in proptest::collection::vec(1.0f64..1e9, 2..10),
    ) {
        let ib = LinkModel::hdr_infiniband();
        let mut sorted = sizes.clone();
        sorted.sort_by(f64::total_cmp);
        let mut last = 0.0;
        for s in sorted {
            let bw = ib.effective_bandwidth(s, Protocol::Simple);
            prop_assert!(bw >= last - 1e-6, "bandwidth decreased at {s}");
            prop_assert!(bw <= ib.bandwidth);
            last = bw;
        }
    }

    #[test]
    fn gemm_time_is_monotone_in_every_dimension(
        b in 1usize..64, r in 1usize..512, k in 1usize..512, n in 1usize..512,
    ) {
        let gpu = GpuCostModel::a100();
        let t = gpu.gemm_time(b, r, k, n);
        prop_assert!(t > 0.0);
        prop_assert!(gpu.gemm_time(b + 1, r, k, n) >= t);
        prop_assert!(gpu.gemm_time(b, r + 1, k, n) >= t);
        prop_assert!(gpu.gemm_time(b, r, k + 1, n) >= t);
        prop_assert!(gpu.gemm_time(b, r, k, n + 1) >= t);
    }
}
