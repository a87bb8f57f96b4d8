//! Differential surface for the dropless grouped compute path.
//!
//! PR-level claim: switching the serving step from padded `(E, C, M)`
//! slabs to ragged bins + grouped GEMM changes the wire layout and
//! the FLOP count, **never the numbers**. This module pins that the
//! same way [`crate::serve`] pins continuous batching:
//!
//! * every {P1, P2} × {linear, 2DH} × degree {1, 2} × world {1, 2, 4}
//!   point executes one seeded micro-batch through the grouped step
//!   and compares against (a) the sequential per-row reference and
//!   (b) the padded capacity twin, under the crate's [ULP tolerance
//!   policy](crate#ulp-tolerance-policy) — **bitwise** for P1 at the
//!   reference thread count, ≤ 4 scaled ULP for P2;
//! * a skewed batch (crafted so one expert dominates) rides every
//!   point, because ragged bin shapes are exactly what the grouped
//!   kernels must not let leak into the math;
//! * a seeded [`FaultPlan`] replay arms the reliability layer under
//!   the ragged v-All-to-Alls and demands bitwise recovery.

use tutel_comm::{FaultPlan, ReliableConfig, RetryPolicy};
use tutel_obs::Telemetry;
use tutel_serve::exec::{execute_step, execute_step_reliable, reference_rows, ExecConfig};
use tutel_serve::model::{ModelDims, ServeModel};
use tutel_serve::request::ServeError;
use tutel_tensor::{Rng, Tensor};

use crate::reference::REF_THREADS;
use crate::{max_scaled_ulp, max_ulp, A2aAlgo, Strategy};

/// One point of the grouped conformance grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupedCase {
    /// P1 or P2 expert parallelism.
    pub strategy: Strategy,
    /// Linear or 2DH v-exchange on the wire.
    pub algo: A2aAlgo,
    /// Pipeline degree (bin sub-range chunking).
    pub degree: usize,
    /// Simulated world size.
    pub world: usize,
}

impl GroupedCase {
    /// Grid label, e.g. `P1/2dh d2 w4`.
    pub fn label(&self) -> String {
        format!(
            "{}/{} d{} w{}",
            self.strategy.label(),
            self.algo.label(),
            self.degree,
            self.world
        )
    }

    /// Mirrors [`crate::Config::ulp_budget`]: P1 bitwise at the
    /// reference thread count, P2 within 4 scaled ULP.
    pub fn ulp_budget(&self) -> u32 {
        match self.strategy {
            Strategy::P1 => 0,
            Strategy::P2 => 4,
        }
    }

    fn exec_config(&self, dropless: bool) -> ExecConfig {
        ExecConfig {
            strategy: self.strategy.serve(),
            algo: self.algo.comm_algo(),
            degree: self.degree,
            world: self.world,
            threads: REF_THREADS,
            dropless,
        }
    }
}

/// The grouped grid: {P1, P2} × {lin, 2dh} × degree {1, 2} × world
/// {1, 2, 4}.
pub fn grouped_grid() -> Vec<GroupedCase> {
    let mut grid = Vec::new();
    for strategy in [Strategy::P1, Strategy::P2] {
        for algo in [A2aAlgo::Linear, A2aAlgo::TwoDh] {
            for degree in [1usize, 2] {
                for world in [1usize, 2, 4] {
                    grid.push(GroupedCase {
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

/// Verdict for one grouped grid point.
#[derive(Debug, Clone)]
pub struct GroupedVerdict {
    /// The case exercised.
    pub case_: GroupedCase,
    /// Worst element-wise ULP distance to the per-row reference.
    pub worst_ulp: u32,
    /// Worst scale-aware ULP distance to the reference.
    pub worst_scaled_ulp: f64,
    /// Grouped and padded-twin outputs agree bitwise (they always
    /// must — both re-associate nothing relative to each other).
    pub twin_bitwise: bool,
    /// Wire elements the grouped step moved vs. the padded twin.
    pub wire_grouped: u64,
    /// Wire elements the padded twin moved.
    pub wire_padded: u64,
    /// Budget applied (0 → bitwise, else scaled).
    pub budget: u32,
    /// Whether the case met its budget and the twin agreed.
    pub pass: bool,
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

/// Executes one grouped grid point over two seeded batches (one
/// uniform, one skewed) and differentials against reference and twin.
///
/// # Errors
///
/// Propagates executor failures (a failure is itself a grid fail).
pub fn run_grouped_case(case: &GroupedCase, seed: u64) -> Result<GroupedVerdict, ServeError> {
    let dims = ModelDims::small(case.world);
    let model = ServeModel::materialize(dims, seed ^ 0xD80B)?;
    let uniform = Rng::seed(seed ^ 1).normal_tensor(&[11, dims.model_dim], 0.0, 1.0);
    let skewed = skewed_batch(&dims, 13, seed ^ 2);

    let mut worst_ulp = 0u32;
    let mut worst_scaled = 0.0f64;
    let mut twin_bitwise = true;
    let mut wire_grouped = 0u64;
    let mut wire_padded = 0u64;
    for batch in [&uniform, &skewed] {
        let grouped = execute_step(&model, &case.exec_config(true), batch)?;
        let padded = execute_step(&model, &case.exec_config(false), batch)?;
        let reference = reference_rows(&model, batch)?;
        worst_ulp = worst_ulp.max(max_ulp(grouped.outputs.as_slice(), reference.as_slice()));
        worst_scaled = worst_scaled.max(max_scaled_ulp(
            grouped.outputs.as_slice(),
            reference.as_slice(),
        ));
        twin_bitwise &= grouped.outputs.as_slice() == padded.outputs.as_slice();
        wire_grouped += grouped.a2a_elems;
        wire_padded += padded.a2a_elems;
    }

    let budget = case.ulp_budget();
    let within = if budget == 0 {
        worst_ulp == 0
    } else {
        worst_scaled <= f64::from(budget)
    };
    Ok(GroupedVerdict {
        case_: *case,
        worst_ulp,
        worst_scaled_ulp: worst_scaled,
        twin_bitwise,
        wire_grouped,
        wire_padded,
        budget,
        pass: within && twin_bitwise,
    })
}

/// Runs the whole grouped grid under one seed.
pub fn run_grouped_suite(seed: u64) -> Vec<Result<GroupedVerdict, ServeError>> {
    grouped_grid()
        .iter()
        .map(|case| run_grouped_case(case, seed))
        .collect()
}

/// Verdict of the ragged fault-replay differential.
#[derive(Debug, Clone)]
pub struct GroupedFaultVerdict {
    /// Faults the seeded plan actually injected (> 0 or vacuous).
    pub injected: u64,
    /// Retransmissions the retry protocol served.
    pub retransmits: u64,
    /// Faulted grouped outputs matched the solo reference bitwise.
    pub identical: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// Replays a seeded drop/duplicate/delay [`FaultPlan`] under the
/// ragged v-All-to-Alls of one P1 grouped step (world 2, degree 2,
/// skewed batch so some payloads are empty) and demands bitwise
/// recovery.
///
/// # Errors
///
/// Propagates executor failures (the retry budget is sized to absorb
/// the plan, so an error is a finding, not noise).
pub fn run_grouped_fault(seed: u64) -> Result<GroupedFaultVerdict, ServeError> {
    let case = GroupedCase {
        strategy: Strategy::P1,
        algo: A2aAlgo::Linear,
        degree: 2,
        world: 2,
    };
    let dims = ModelDims::small(case.world);
    let model = ServeModel::materialize(dims, seed ^ 0xD8FA)?;
    let batch = skewed_batch(&dims, 9, seed);

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
    let faulted = execute_step_reliable(&model, &case.exec_config(true), &batch, rel)?;
    let baseline = execute_step(&model, &case.exec_config(true), &batch)?;
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
    Ok(GroupedFaultVerdict {
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
        let grid = grouped_grid();
        assert_eq!(grid.len(), 24);
        assert!(grid
            .iter()
            .any(|c| c.strategy == Strategy::P2 && c.algo == A2aAlgo::TwoDh && c.world == 4));
    }

    #[test]
    fn p1_grouped_step_is_bitwise_against_reference_and_twin() {
        let case = GroupedCase {
            strategy: Strategy::P1,
            algo: A2aAlgo::TwoDh,
            degree: 2,
            world: 4,
        };
        let v = run_grouped_case(&case, 0xD1CE).unwrap();
        assert!(v.pass, "{}: {v:?}", case.label());
        assert_eq!(v.worst_ulp, 0);
        assert!(v.twin_bitwise);
        assert!(
            v.wire_grouped < v.wire_padded,
            "grouped moved {} wire elems, padded {}",
            v.wire_grouped,
            v.wire_padded
        );
    }

    #[test]
    fn p2_grouped_step_stays_within_the_scaled_budget() {
        let case = GroupedCase {
            strategy: Strategy::P2,
            algo: A2aAlgo::Linear,
            degree: 2,
            world: 2,
        };
        let v = run_grouped_case(&case, 0xD1CE).unwrap();
        assert!(v.pass, "{}: {v:?}", case.label());
        assert!(v.worst_scaled_ulp <= 4.0);
        assert!(v.twin_bitwise, "P2 twin must still agree bitwise");
    }

    #[test]
    fn ragged_fault_replay_recovers_every_output_bit() {
        let v = run_grouped_fault(0x5EED).unwrap();
        assert!(v.pass, "{v:?}");
        assert!(v.injected > 0);
    }
}
