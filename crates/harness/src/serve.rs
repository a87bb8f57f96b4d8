//! Differential surface for the serving engine.
//!
//! The serving tier (`tutel-serve`) claims that continuous batching
//! is *observationally free*: whatever micro-batches the scheduler
//! composes, each request's output equals the output of running that
//! request alone through the sequential reference executor
//! ([`tutel_serve::exec::reference_rows`]). This module proves it the
//! same way [`crate::matrix`] proves strategy equivalence:
//!
//! * a seeded bursty trace is pushed through the full ingress → EDF
//!   admission → fill-or-timeout batcher → distributed step path, for
//!   every {P1, P2} × {linear, 2DH} × degree {1, 2} × world {1, 2, 4}
//!   point at the reference thread count — each the [`ExecConfig`]
//!   the engine is configured with, not a harness-side copy of it;
//! * every completed request is replayed solo through the reference
//!   and compared under the crate's [ULP tolerance
//!   policy](crate#ulp-tolerance-policy) — **bitwise** for P1 (the
//!   serve path routes dropless, so batch-mates cannot couple), ≤ 4
//!   scaled ULP for P2 (hidden-shard re-association);
//! * each point also steps one skewed batch (one expert's basin holds
//!   most rows), because ragged bin shapes are exactly what the
//!   grouped kernels must not let leak into the math;
//! * a seeded fault replay ([`step_fault_replay`]) arms the
//!   reliability layer on two consecutive skewed steps' ragged
//!   All-to-Alls, some payloads empty, on one resident executor, and
//!   demands recovery keep every output bit.

use tutel_obs::Telemetry;
use tutel_serve::batcher::BatcherConfig;
use tutel_serve::engine::{run_trace, EngineConfig, ServiceModel};
use tutel_serve::exec::{execute_step, reference_rows};
use tutel_serve::loadgen::{generate_trace, Arrival, TraceConfig};
use tutel_serve::model::{ModelDims, ServeModel};
use tutel_serve::request::ServeError;
use tutel_tensor::{Rng, Tensor};

use crate::faults::{step_fault_replay, FaultReplay, FAULT_POINT};
use crate::reference::REF_THREADS;
use crate::{grid, ExecConfig, Worst};

/// The full serving grid: {P1, P2} × {lin, 2dh} × degree {1, 2} ×
/// world {1, 2, 4} at the reference thread count, on the product wire.
pub fn serve_grid() -> Vec<ExecConfig> {
    grid(&[1, 2], &[1, 2, 4], &[REF_THREADS])
}

/// What a serving point records beside the shared verdict core.
#[derive(Debug, Clone, Copy)]
pub struct ServeDetail {
    /// Requests completed by the engine (must cover the trace).
    pub completed: usize,
    /// Requests the trace offered.
    pub offered: usize,
    /// Micro-batch steps the batcher actually composed.
    pub steps: u64,
    /// Wire elements the engine's steps moved.
    pub wire: u64,
}

/// Verdict for one grid point, worst case over every request's solo
/// reference.
pub type ServeVerdict = crate::Verdict<ServeDetail>;

/// The seeded request mix every grid point serves: bursts of three
/// so admission composes mixed batches, token counts 1–4 so batch
/// shapes vary step to step.
fn serve_trace(seed: u64, model_dim: usize) -> TraceConfig {
    TraceConfig {
        arrivals: Arrival::Bursty {
            burst: 3,
            idle_us: 150,
        },
        requests: 12,
        tokens_min: 1,
        tokens_max: 4,
        deadline_us: 100_000,
        model_dim,
        seed,
    }
}

/// Engine knobs shared by the whole grid: five slots and real
/// admission patience, so steps genuinely mix requests.
fn engine_config(exec: ExecConfig) -> EngineConfig {
    EngineConfig {
        batcher: BatcherConfig {
            max_batch_tokens: 5,
            max_inflight: 5,
            admit_timeout_us: 80,
        },
        service: ServiceModel {
            step_floor_us: 100,
            per_token_us: 10,
        },
        queue_capacity: 64,
        exec,
    }
}

/// A batch whose routing skews hard: most rows sit in one tight
/// cluster (one expert's basin) with a few dissenters, so bin shapes
/// are maximally ragged while staying seed-deterministic.
fn skewed_batch(dims: &ModelDims, rows: usize, seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let anchor: Vec<f32> = (0..dims.model_dim).map(|_| rng.normal()).collect();
    let mut data = Vec::with_capacity(rows * dims.model_dim);
    for r in 0..rows {
        for (j, &a) in anchor.iter().enumerate() {
            let jitter = 0.05 * rng.normal();
            // Three of every four rows hug the anchor; the rest roam.
            if r % 4 != 3 {
                data.push(a + jitter);
            } else {
                data.push(jitter * 20.0 + (j as f32 * 0.37).sin());
            }
        }
    }
    Tensor::from_vec(data, &[rows, dims.model_dim]).expect("batch shape")
}

/// Serves the seeded trace at one grid point and compares every
/// request against its solo reference, then steps one skewed batch
/// and compares it the same way.
///
/// # Errors
///
/// Propagates engine/executor failures (a failure is itself a grid
/// fail — the caller reports it).
pub fn run_serve_case(cfg: &ExecConfig, seed: u64) -> Result<ServeVerdict, ServeError> {
    let dims = ModelDims::small(cfg.world);
    let model = ServeModel::materialize(dims, seed ^ 0x5E57E)?;
    let trace = serve_trace(seed, dims.model_dim);
    let requests = generate_trace(&trace, 0);
    let originals = requests.clone();

    let tel = Telemetry::disabled();
    let report = run_trace(&model, &engine_config(*cfg), requests, &tel)?;

    let mut worst = Worst::default();
    for outcome in &report.outcomes {
        let Some(req) = originals.iter().find(|r| r.id == outcome.id) else {
            worst = Worst {
                ulp: u32::MAX,
                scaled_ulp: f64::INFINITY,
            };
            continue;
        };
        let reference = reference_rows(&model, &req.tokens)?;
        worst.observe(outcome.output.as_slice(), reference.as_slice());
    }
    let skewed = skewed_batch(&dims, 13, seed ^ 2);
    let stepped = execute_step(&model, cfg, &skewed)?;
    worst.observe(
        stepped.outputs.as_slice(),
        reference_rows(&model, &skewed)?.as_slice(),
    );

    let detail = ServeDetail {
        completed: report.completed(),
        offered: trace.requests,
        steps: report.steps,
        wire: report.a2a_elems,
    };
    let served = detail.completed == detail.offered && report.rejected == 0;
    Ok(ServeVerdict::judge(*cfg, worst, detail, served))
}

/// [`step_fault_replay`] under two serving steps of nine and seven
/// skewed rows, so some ragged payloads are empty.
///
/// # Errors
///
/// As [`step_fault_replay`].
pub fn run_serve_fault(seed: u64) -> Result<FaultReplay, ServeError> {
    let dims = ModelDims::small(FAULT_POINT.world);
    let model = ServeModel::materialize(dims, seed ^ 0xD8FA)?;
    let first = skewed_batch(&dims, 9, seed);
    let second = skewed_batch(&dims, 7, seed ^ 0x2);
    step_fault_replay(&model, &FAULT_POINT, [&first, &second], seed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cell_label, AllToAllAlgo, Parallelism};

    fn point(strategy: Parallelism, algo: AllToAllAlgo, world: usize) -> ExecConfig {
        ExecConfig {
            strategy,
            algo,
            degree: 2,
            world,
            threads: REF_THREADS,
            dropless: true,
        }
    }

    #[test]
    fn grid_covers_the_issue_matrix() {
        let grid = serve_grid();
        assert_eq!(grid.len(), 24);
        assert!(grid.iter().any(|c| c.strategy == Parallelism::P2
            && c.algo == AllToAllAlgo::TwoDh
            && c.degree == 2
            && c.world == 4));
        assert!(grid.iter().all(|c| c.threads == REF_THREADS));
    }

    #[test]
    fn p1_batched_serving_is_bitwise_against_the_reference() {
        let case = point(Parallelism::P1, AllToAllAlgo::TwoDh, 4);
        let v = run_serve_case(&case, 0xBEEF).unwrap();
        assert!(v.pass, "{}: {v:?}", cell_label(&case, false));
        assert_eq!(v.worst.ulp, 0);
        assert_eq!(v.detail.completed, v.detail.offered);
        assert!(v.detail.steps > 0);
        assert!(v.detail.wire > 0);
    }

    #[test]
    fn p2_batched_serving_stays_within_the_scaled_budget() {
        let case = point(Parallelism::P2, AllToAllAlgo::Linear, 2);
        let v = run_serve_case(&case, 0xBEEF).unwrap();
        assert!(v.pass, "{}: {v:?}", cell_label(&case, false));
        assert!(v.worst.scaled_ulp <= 4.0);
    }

    #[test]
    fn fault_replay_recovers_every_output_bit() {
        let v = run_serve_fault(0x5EED).unwrap();
        assert!(v.pass, "{v:?}");
        assert!(v.injected.iter().all(|&n| n > 0), "{v:?}");
    }

    #[test]
    fn the_chosen_plan_executes() {
        // What the policies emit is what the executor consumes: the
        // router's P1/P2 and the measured search's {algo, degree} go
        // into `ExecConfig` as they are, and each executed probe's wall
        // time goes back into the search. The policies price a paper-
        // scale deployment; the plan runs on the threaded 2-rank world.
        use tutel::adaptive::{InlineParallelismRouter, MoeDims};
        use tutel::cost::ClusterModel;
        use tutel::pipeline::{LayerDims, MeasuredStrategySearch, PipelineTimeModel};

        let dims = ModelDims::small(2);
        let model = ServeModel::materialize(dims, 0xC0DE).unwrap();
        let batch = Rng::seed(3).normal_tensor(&[16, dims.model_dim], 0.0, 1.0);
        let reference = reference_rows(&model, &batch).unwrap();

        let cluster = ClusterModel::azure(8);
        let router = InlineParallelismRouter::new(cluster);
        let mut search = MeasuredStrategySearch::new(0.25, PipelineTimeModel::new(cluster));
        let mut executed = std::collections::HashSet::new();
        // The router's crossover (Table 5a): P2 at f = 1, P1 at f = 16.
        for capacity_factor in [1.0, 16.0] {
            let strategy = router.choose(
                &MoeDims {
                    world: 8,
                    global_experts: 2,
                    tokens: 2048,
                    k: dims.top_k,
                    capacity_factor,
                    model_dim: 2048,
                    hidden_dim: 8192,
                    weight_precision: tutel_tensor::Precision::F32,
                },
                &Telemetry::disabled(),
            );
            let layer = LayerDims {
                capacity_factor,
                ..LayerDims::figure23()
            };
            for _ in 0..8 {
                let plan = search.next_strategy(&layer, &Telemetry::disabled());
                let cfg = ExecConfig {
                    strategy,
                    algo: plan.algo,
                    degree: plan.degree,
                    world: dims.world,
                    threads: REF_THREADS,
                    dropless: true,
                };
                let t0 = std::time::Instant::now();
                let got = execute_step(&model, &cfg, &batch).unwrap();
                search.record(
                    capacity_factor,
                    plan,
                    t0.elapsed().as_secs_f64(),
                    &Telemetry::disabled(),
                );
                let mut worst = Worst::default();
                worst.observe(got.outputs.as_slice(), reference.as_slice());
                let v = crate::Verdict::judge(cfg, worst, (), true);
                assert!(v.pass, "{}: {v:?}", cell_label(&cfg, false));
                executed.insert((cfg.strategy, cfg.algo, cfg.degree));
            }
            assert!(search.converged(capacity_factor));
        }
        assert_eq!(executed.len(), 16, "both strategies × all eight plans ran");
    }

    #[test]
    fn verdicts_are_seed_deterministic() {
        let case = point(Parallelism::P1, AllToAllAlgo::Linear, 2);
        let a = run_serve_case(&case, 7).unwrap();
        let b = run_serve_case(&case, 7).unwrap();
        assert_eq!(a.detail.steps, b.detail.steps);
        assert_eq!(a.worst, b.worst);
        assert_eq!(a.pass, b.pass);
    }
}
