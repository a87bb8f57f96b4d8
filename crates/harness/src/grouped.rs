//! Differential surface for the ragged grouped compute path.
//!
//! Claim: ragged bins + grouped GEMM compute exactly the routed rows,
//! in a layout the padded `(E, C, M)` reference never uses, and change
//! **no number**. This module pins that the same way [`crate::serve`]
//! pins continuous batching:
//!
//! * every {P1, P2} × {linear, 2DH} × degree {1, 2} × world {1, 2, 4}
//!   point — the product's own [`ExecConfig`] — executes seeded
//!   micro-batches through the grouped step and compares against the
//!   sequential per-row reference (padded kernels) under the crate's
//!   [ULP tolerance policy](crate#ulp-tolerance-policy) — **bitwise**
//!   for P1 at the reference thread count, ≤ 4 scaled ULP for P2;
//! * a skewed batch (crafted so one expert dominates) rides every
//!   point, because ragged bin shapes are exactly what the grouped
//!   kernels must not let leak into the math;
//! * a seeded fault replay ([`step_fault_replay`]) arms the
//!   reliability layer under the ragged v-All-to-Alls of two
//!   consecutive steps on one resident executor and demands bitwise
//!   recovery.

use tutel_serve::exec::{execute_step, reference_rows};
use tutel_serve::model::{ModelDims, ServeModel};
use tutel_serve::request::ServeError;
use tutel_tensor::{Rng, Tensor};

use crate::faults::{step_fault_replay, FaultReplay, FAULT_POINT};
use crate::reference::REF_THREADS;
use crate::{grid, ExecConfig, Worst};

/// The grouped grid: {P1, P2} × {lin, 2dh} × degree {1, 2} × world
/// {1, 2, 4} at the reference thread count, on the product wire.
pub fn grouped_grid() -> Vec<ExecConfig> {
    grid(&[1, 2], &[1, 2, 4], &[REF_THREADS])
}

/// What a grouped point records beside the shared verdict core.
#[derive(Debug, Clone, Copy)]
pub struct GroupedDetail {
    /// Wire elements the grouped step moved.
    pub wire: u64,
}

/// Verdict for one grouped grid point.
pub type GroupedVerdict = crate::Verdict<GroupedDetail>;

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
/// uniform, one skewed) and differentials against the reference.
///
/// # Errors
///
/// Propagates executor failures (a failure is itself a grid fail).
pub fn run_grouped_case(cfg: &ExecConfig, seed: u64) -> Result<GroupedVerdict, ServeError> {
    let dims = ModelDims::small(cfg.world);
    let model = ServeModel::materialize(dims, seed ^ 0xD80B)?;
    let uniform = Rng::seed(seed ^ 1).normal_tensor(&[11, dims.model_dim], 0.0, 1.0);
    let skewed = skewed_batch(&dims, 13, seed ^ 2);

    let mut worst = Worst::default();
    let mut detail = GroupedDetail { wire: 0 };
    for batch in [&uniform, &skewed] {
        let grouped = execute_step(&model, cfg, batch)?;
        let reference = reference_rows(&model, batch)?;
        worst.observe(grouped.outputs.as_slice(), reference.as_slice());
        detail.wire += grouped.a2a_elems;
    }
    Ok(GroupedVerdict::judge(*cfg, worst, detail, true))
}

/// [`step_fault_replay`] under the ragged v-All-to-Alls of two skewed
/// batches, so some payloads are empty.
///
/// # Errors
///
/// As [`step_fault_replay`].
pub fn run_grouped_fault(seed: u64) -> Result<FaultReplay, ServeError> {
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
        let grid = grouped_grid();
        assert_eq!(grid.len(), 24);
        assert!(grid.iter().any(|c| c.strategy == Parallelism::P2
            && c.algo == AllToAllAlgo::TwoDh
            && c.world == 4));
        assert!(grid.iter().all(|c| c.threads == REF_THREADS));
    }

    #[test]
    fn p1_grouped_step_is_bitwise_against_the_reference() {
        let case = point(Parallelism::P1, AllToAllAlgo::TwoDh, 4);
        let v = run_grouped_case(&case, 0xD1CE).unwrap();
        assert!(v.pass, "{}: {v:?}", cell_label(&case, false));
        assert_eq!(v.worst.ulp, 0);
        assert!(v.detail.wire > 0);
    }

    #[test]
    fn p2_grouped_step_stays_within_the_scaled_budget() {
        let case = point(Parallelism::P2, AllToAllAlgo::Linear, 2);
        let v = run_grouped_case(&case, 0xD1CE).unwrap();
        assert!(v.pass, "{}: {v:?}", cell_label(&case, false));
        assert!(v.worst.scaled_ulp <= 4.0);
    }

    #[test]
    fn ragged_fault_replay_recovers_every_output_bit() {
        let v = run_grouped_fault(0x5EED).unwrap();
        assert!(v.pass, "{v:?}");
        assert!(v.injected.iter().all(|&n| n > 0), "{v:?}");
    }
}
