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
//!   every {P1, P2} × {linear, 2DH} × degree {1, 2} × world {1, 2}
//!   point at the reference thread count;
//! * every completed request is replayed solo through the reference
//!   and compared under the crate's [ULP tolerance
//!   policy](crate#ulp-tolerance-policy) — **bitwise** for P1 (the
//!   serve path routes dropless, so batch-mates cannot couple), ≤ 4
//!   scaled ULP for P2 (hidden-shard re-association);
//! * a seeded [`FaultPlan`] replay arms the reliability layer on the
//!   step's All-to-All and demands recovery keep every output bit.

use tutel_comm::{FaultPlan, ReliableConfig, RetryPolicy};
use tutel_obs::Telemetry;
use tutel_serve::batcher::BatcherConfig;
use tutel_serve::engine::{run_trace, EngineConfig, ServiceModel};
use tutel_serve::exec::{execute_step, execute_step_reliable, reference_rows, ExecConfig};
use tutel_serve::loadgen::{generate_trace, Arrival, TraceConfig};
use tutel_serve::model::{ModelDims, ServeModel};
use tutel_serve::request::ServeError;
use tutel_tensor::Rng;

use crate::reference::REF_THREADS;
use crate::{max_scaled_ulp, max_ulp, A2aAlgo, Strategy};

/// One point of the serving conformance grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeCase {
    /// P1 or P2 expert parallelism for every step.
    pub strategy: Strategy,
    /// Linear or 2DH exchange on the wire.
    pub algo: A2aAlgo,
    /// Pipeline degree of the step executor.
    pub degree: usize,
    /// Simulated world size.
    pub world: usize,
}

impl ServeCase {
    /// Grid label, e.g. `P2/2dh d2 w2`.
    pub fn label(&self) -> String {
        format!(
            "{}/{} d{} w{}",
            self.strategy.label(),
            self.algo.label(),
            self.degree,
            self.world
        )
    }

    /// The tolerance for this case, mirroring
    /// [`crate::Config::ulp_budget`]: the grid always runs at
    /// [`REF_THREADS`], so only the strategy decides.
    pub fn ulp_budget(&self) -> u32 {
        match self.strategy {
            Strategy::P1 => 0,
            Strategy::P2 => 4,
        }
    }

    fn exec_config(&self) -> ExecConfig {
        ExecConfig {
            strategy: self.strategy.serve(),
            algo: self.algo.comm_algo(),
            degree: self.degree,
            world: self.world,
            threads: REF_THREADS,
            // The product wire. Its uniform-capacity view is pinned by
            // `crate::grouped`'s twin column.
            dropless: true,
        }
    }
}

/// The full serving grid: {P1, P2} × {lin, 2dh} × degree {1, 2} ×
/// world {1, 2}.
pub fn serve_grid() -> Vec<ServeCase> {
    let mut grid = Vec::new();
    for strategy in [Strategy::P1, Strategy::P2] {
        for algo in [A2aAlgo::Linear, A2aAlgo::TwoDh] {
            for degree in [1usize, 2] {
                for world in [1usize, 2] {
                    grid.push(ServeCase {
                        strategy,
                        algo,
                        degree,
                        world,
                    });
                }
            }
        }
    }
    grid
}

/// Verdict for one grid point.
#[derive(Debug, Clone)]
pub struct ServeVerdict {
    /// The case exercised.
    pub case_: ServeCase,
    /// Requests completed by the engine (must cover the trace).
    pub completed: usize,
    /// Requests the trace offered.
    pub offered: usize,
    /// Micro-batch steps the batcher actually composed.
    pub steps: u64,
    /// Worst element-wise ULP distance to any request's solo
    /// reference (the P1 metric).
    pub worst_ulp: u32,
    /// Worst scale-aware ULP distance (the P2 metric).
    pub worst_scaled_ulp: f64,
    /// Budget applied (0 → bitwise, else scaled).
    pub budget: u32,
    /// Whether the case met its budget and completed every request.
    pub pass: bool,
}

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

/// Serves the seeded trace at one grid point and compares every
/// request against its solo reference.
///
/// # Errors
///
/// Propagates engine/executor failures (a failure is itself a grid
/// fail — the caller reports it).
pub fn run_serve_case(case: &ServeCase, seed: u64) -> Result<ServeVerdict, ServeError> {
    let dims = ModelDims::small(case.world);
    let model = ServeModel::materialize(dims, seed ^ 0x5E57E)?;
    let trace = serve_trace(seed, dims.model_dim);
    let requests = generate_trace(&trace, 0);
    let originals = requests.clone();

    let tel = Telemetry::disabled();
    let report = run_trace(&model, &engine_config(case.exec_config()), requests, &tel)?;

    let mut worst_ulp = 0u32;
    let mut worst_scaled = 0.0f64;
    for outcome in &report.outcomes {
        let Some(req) = originals.iter().find(|r| r.id == outcome.id) else {
            worst_ulp = u32::MAX;
            worst_scaled = f64::INFINITY;
            continue;
        };
        let reference = reference_rows(&model, &req.tokens)?;
        worst_ulp = worst_ulp.max(max_ulp(outcome.output.as_slice(), reference.as_slice()));
        worst_scaled = worst_scaled.max(max_scaled_ulp(
            outcome.output.as_slice(),
            reference.as_slice(),
        ));
    }

    let budget = case.ulp_budget();
    let within = if budget == 0 {
        worst_ulp == 0
    } else {
        worst_scaled <= f64::from(budget)
    };
    let completed = report.completed();
    Ok(ServeVerdict {
        case_: *case,
        completed,
        offered: trace.requests,
        steps: report.steps,
        worst_ulp,
        worst_scaled_ulp: worst_scaled,
        budget,
        pass: within && completed == trace.requests && report.rejected == 0,
    })
}

/// Runs the whole grid under one seed.
pub fn run_serve_suite(seed: u64) -> Vec<Result<ServeVerdict, ServeError>> {
    serve_grid()
        .iter()
        .map(|case| run_serve_case(case, seed))
        .collect()
}

/// Verdict of the fault-replay differential.
#[derive(Debug, Clone)]
pub struct ServeFaultVerdict {
    /// Faults the seeded plan actually injected (> 0 or the scenario
    /// is vacuous).
    pub injected: u64,
    /// Retransmissions the retry protocol served.
    pub retransmits: u64,
    /// Faulted outputs matched the solo reference bitwise.
    pub identical: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// Replays a seeded mixed drop/duplicate/delay [`FaultPlan`] against
/// one P1 serving step at world 2 and demands bitwise recovery: the
/// faulted step must still equal the per-row reference exactly.
///
/// # Errors
///
/// Propagates executor failures (the retry budget is sized to absorb
/// the plan, so an error is a finding, not noise).
pub fn run_serve_fault(seed: u64) -> Result<ServeFaultVerdict, ServeError> {
    let case = ServeCase {
        strategy: Strategy::P1,
        algo: A2aAlgo::Linear,
        degree: 2,
        world: 2,
    };
    let dims = ModelDims::small(case.world);
    let model = ServeModel::materialize(dims, seed ^ 0xFA17)?;
    let mut rng = Rng::seed(seed);
    let batch = rng.normal_tensor(&[6, dims.model_dim], 0.0, 1.0);

    let telemetry = Telemetry::enabled();
    let rel = ReliableConfig {
        policy: RetryPolicy {
            timeout: std::time::Duration::from_millis(20),
            max_retries: 6,
            backoff: 2,
        },
        plan: Some(
            FaultPlan::new(seed)
                .with_drops(12)
                .with_duplicates(12)
                .with_delays(12, 2),
        ),
        telemetry: telemetry.clone(),
    };
    let faulted = execute_step_reliable(&model, &case.exec_config(), &batch, rel)?;
    let baseline = execute_step(&model, &case.exec_config(), &batch)?;
    let reference = reference_rows(&model, &batch)?;

    let injected = telemetry
        .counter_value("comm.retry.injected_drops")
        .unwrap_or(0)
        + telemetry
            .counter_value("comm.retry.injected_dups")
            .unwrap_or(0)
        + telemetry
            .counter_value("comm.retry.injected_delays")
            .unwrap_or(0);
    let retransmits = telemetry
        .counter_value("comm.retry.retransmits")
        .unwrap_or(0);
    let identical = faulted.outputs.as_slice() == reference.as_slice()
        && faulted.outputs.as_slice() == baseline.outputs.as_slice();
    Ok(ServeFaultVerdict {
        injected,
        retransmits,
        identical,
        pass: identical && injected > 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_the_issue_matrix() {
        let grid = serve_grid();
        assert_eq!(grid.len(), 16);
        assert!(grid
            .iter()
            .any(|c| c.strategy == Strategy::P2 && c.degree == 2 && c.world == 2));
    }

    #[test]
    fn p1_batched_serving_is_bitwise_against_the_reference() {
        let case = ServeCase {
            strategy: Strategy::P1,
            algo: A2aAlgo::TwoDh,
            degree: 2,
            world: 2,
        };
        let v = run_serve_case(&case, 0xBEEF).unwrap();
        assert!(v.pass, "{}: {v:?}", case.label());
        assert_eq!(v.worst_ulp, 0);
        assert_eq!(v.completed, v.offered);
        assert!(v.steps > 0);
    }

    #[test]
    fn p2_batched_serving_stays_within_the_scaled_budget() {
        let case = ServeCase {
            strategy: Strategy::P2,
            algo: A2aAlgo::Linear,
            degree: 2,
            world: 2,
        };
        let v = run_serve_case(&case, 0xBEEF).unwrap();
        assert!(v.pass, "{}: {v:?}", case.label());
        assert!(v.worst_scaled_ulp <= 4.0);
    }

    #[test]
    fn fault_replay_recovers_every_output_bit() {
        let v = run_serve_fault(0x5EED).unwrap();
        assert!(v.pass, "{v:?}");
        assert!(v.injected > 0);
    }

    #[test]
    fn verdicts_are_seed_deterministic() {
        let case = ServeCase {
            strategy: Strategy::P1,
            algo: A2aAlgo::Linear,
            degree: 1,
            world: 2,
        };
        let a = run_serve_case(&case, 7).unwrap();
        let b = run_serve_case(&case, 7).unwrap();
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.worst_ulp, b.worst_ulp);
        assert_eq!(a.pass, b.pass);
    }
}
