//! Integration of the adaptive mechanisms against the timing simulator:
//! Algorithm 2's online search must converge to the simulator's oracle,
//! the parallelism router must track the simulated crossover, and the
//! feature ladder must hold end-to-end.

use tutel_suite::obs::Telemetry;
use tutel_suite::tutel::adaptive::{
    FeatureSet, InlineParallelismRouter, MoeDims, MoeLayerSimulator,
};
use tutel_suite::tutel::cost::ClusterModel;
use tutel_suite::tutel::pipeline::{
    LayerDims, OnlineStrategySearch, PipelineStrategy, PipelineTimeModel,
};

fn dims_with_f(f: f64) -> LayerDims {
    LayerDims {
        tokens: 4096,
        model_dim: 4096,
        hidden_dim: 4096,
        local_experts: 2,
        k: 2,
        capacity_factor: f,
    }
}

#[test]
fn online_search_converges_to_simulator_oracle() {
    // Drive Algorithm 2 with a wandering capacity factor; after the
    // exploration phase it must select the oracle strategy (the
    // simulator's argmin) for the factors it has seen.
    let model = PipelineTimeModel::new(ClusterModel::azure(128));
    let mut search = OnlineStrategySearch::new(0.5);
    // A periodic f schedule visiting two regimes.
    let schedule: Vec<f64> = (0..80)
        .map(|i| if i % 2 == 0 { 1.0 } else { 4.0 })
        .collect();
    for &f in &schedule {
        let s = search.next_strategy(f, &Telemetry::disabled());
        let t = model.step_time(&dims_with_f(f), s);
        search.record(f, s, t);
    }
    for f in [1.0, 4.0] {
        let chosen = search.next_strategy(f, &Telemetry::disabled());
        let (oracle, oracle_t) = model.best_strategy(&dims_with_f(f), &Telemetry::disabled());
        let chosen_t = model.step_time(&dims_with_f(f), chosen);
        // The chosen strategy must be the oracle or within measurement
        // noise of it (our "measurements" are deterministic, so exact).
        assert!(
            chosen == oracle || chosen_t <= oracle_t * 1.0001,
            "f={f}: chose {chosen} ({chosen_t}) vs oracle {oracle} ({oracle_t})"
        );
    }
}

#[test]
fn online_search_explores_at_most_once_per_bucket() {
    let model = PipelineTimeModel::new(ClusterModel::azure(64));
    let mut search = OnlineStrategySearch::new(1.0);
    let mut tried = std::collections::HashMap::<PipelineStrategy, usize>::new();
    // All these factors land in one bucket of length 1.
    for i in 0..24 {
        let f = 1.0 + (i % 4) as f64 * 0.2;
        let s = search.next_strategy(f, &Telemetry::disabled());
        let best = model
            .best_strategy(&dims_with_f(f), &Telemetry::disabled())
            .0;
        // Count explorations of non-optimal strategies.
        if s != best {
            *tried.entry(s).or_default() += 1;
        }
        search.record(f, s, model.step_time(&dims_with_f(f), s));
    }
    for (s, count) in tried {
        assert!(
            count <= 4,
            "strategy {s} explored {count} times (bucket sharing should bound repeats)"
        );
    }
}

#[test]
fn parallelism_router_crossover_is_consistent_with_costs() {
    let router = InlineParallelismRouter::new(ClusterModel::azure(8));
    let dims = |f: f64| MoeDims {
        world: 8,
        global_experts: 2,
        tokens: 2048,
        k: 2,
        capacity_factor: f,
        model_dim: 2048,
        hidden_dim: 8192,
        weight_precision: tutel_suite::tensor::Precision::F32,
    };
    for f in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0] {
        let d = dims(f);
        let chosen = router.choose(&d, &Telemetry::disabled());
        let other = match chosen {
            tutel_suite::experts::Parallelism::P1 => tutel_suite::experts::Parallelism::P2,
            tutel_suite::experts::Parallelism::P2 => tutel_suite::experts::Parallelism::P1,
        };
        assert!(
            router.cost_of(chosen, &d) <= router.cost_of(other, &d) + 1e-15,
            "f={f}"
        );
    }
}

#[test]
fn feature_ladder_holds_across_the_sweep() {
    for w in [16usize, 256, 2048] {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
        let dims = LayerDims::figure23();
        let ladder = FeatureSet::ladder();
        let mut last = f64::INFINITY;
        for (name, fs) in ladder {
            let t = sim.step_time(&dims, fs, &Telemetry::disabled());
            assert!(t <= last * 1.0001, "{name} regressed at {w} GPUs");
            assert!(t > 0.0);
            last = t;
        }
        // Computation-only overhead must be a lower bound on curve 5.
        assert!(sim.computation_only_time(&dims) <= last);
    }
}

#[test]
fn final_speedups_are_in_the_papers_ballpark() {
    // Paper: 4.96× at 16 GPUs, 5.75× at 2,048 (full Tutel vs Fairseq).
    // Our calibrated simulator should land within ~2× of those.
    let dims = LayerDims::figure23();
    for (w, paper) in [(16usize, 4.96f64), (2048, 5.75)] {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
        let ours = sim.step_time(
            &dims,
            FeatureSet::fairseq_baseline(),
            &Telemetry::disabled(),
        ) / sim.step_time(&dims, FeatureSet::full(), &Telemetry::disabled());
        assert!(
            ours > paper / 2.5 && ours < paper * 2.5,
            "{w} GPUs: ours {ours:.2} vs paper {paper}"
        );
    }
}
