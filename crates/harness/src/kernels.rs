//! Kernel-mode conformance: the {scalar, simd} × {f32, bf16} grid.
//!
//! The strategy matrix in [`crate::matrix`] varies *where* arithmetic
//! happens (parallelism, exchange algorithm, pipeline chunking); this
//! grid varies *how* it happens — which kernel table executes the
//! arithmetic and at what storage precision the expert weights rest —
//! and holds each axis to its own contract:
//!
//! * **scalar vs SIMD is bitwise.** The SIMD kernels share the
//!   scalar kernels' reduction trees, and fuse a multiply into an add
//!   exactly where the scalar ones call `mul_add`, so flipping
//!   `TUTEL_SIMD` may not change a single bit of any output, gradient,
//!   or aux loss — under *any* strategy configuration. Each `simd/*`
//!   cell is compared against its `scalar/*` twin with [`max_ulp`]
//!   `== 0`.
//! * **bf16 vs f32 is budgeted, scale-aware.** bf16-storage rounds
//!   each expert weight to 8 mantissa bits (≤ 2⁻⁹ relative
//!   perturbation) while all arithmetic stays f32, so outputs move by
//!   roughly the weights' relative perturbation *at the tensor's
//!   scale* — which is exactly what [`max_scaled_ulp`] measures. The
//!   budget [`BF16_ULP_BUDGET`] is 2¹⁷ scaled ULPs ≈ 2⁻⁶ relative:
//!   one bf16 rounding is at most 2⁻⁹ relative = 2¹⁴ scaled ULPs, and
//!   the worst observed compounding through the two-GEMM forward plus
//!   the mirrored backward chain is ≈ 2.3× that (≈ 3.8·10⁴ scaled
//!   ULPs at this grid's seeds), leaving > 3× headroom — which the
//!   tests assert stays ≥ 2×. A kernel regression (e.g. accumulating
//!   in bf16 instead of f32) overshoots the budget by orders of
//!   magnitude, since every *intermediate* would then round.
//! * **aux loss is bitwise across every cell.** Routing runs on the
//!   f32 router regardless of expert-weight storage, and the gate
//!   kernels are bitwise across SIMD modes, so not even bf16 cells may
//!   move the aux loss.

use tutel_experts::ExpertsBlock;
use tutel_obs::Telemetry;
use tutel_tensor::{dispatch, Precision};

use crate::dist::run_distributed;
use crate::reference::{Fixture, Problem, RankResult};
use crate::{max_scaled_ulp, max_ulp, AllToAllAlgo, ExecConfig, Parallelism};

/// Scale-aware ULP budget for bf16-storage cells against their f32
/// twins: 2¹⁷ scaled ULPs ≈ 2⁻⁶ relative error at the tensor's scale
/// (see the module docs for the derivation).
pub const BF16_ULP_BUDGET: f64 = 131072.0;

/// One cell of the kernel-mode grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KernelCell {
    /// Whether the widest SIMD kernel table the host has is forced
    /// (scalar on hosts without AVX2+FMA, where the bitwise check is
    /// vacuous).
    pub simd: bool,
    /// Expert-weight storage precision.
    pub precision: Precision,
}

impl KernelCell {
    /// Grid label, e.g. `simd/bf16`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}",
            if self.simd { "simd" } else { "scalar" },
            self.precision.label()
        )
    }
}

/// The full grid, in report order: the scalar/f32 baseline first, then
/// each twin along one axis. The SIMD flag is the low bit so a cell's
/// scalar twin is at `index & !1` and its f32 twin at `index & 1`.
pub const KERNEL_CELLS: [KernelCell; 4] = [
    KernelCell {
        simd: false,
        precision: Precision::F32,
    },
    KernelCell {
        simd: true,
        precision: Precision::F32,
    },
    KernelCell {
        simd: false,
        precision: Precision::Bf16,
    },
    KernelCell {
        simd: true,
        precision: Precision::Bf16,
    },
];

/// The strategy configurations each cell executes: one bitwise-eligible
/// point (P1, single-threaded) and one fully adaptive point (P2 + 2DH +
/// deep pipeline + thread pool), so both arms of the strategy ULP
/// policy are crossed with both kernel axes.
pub fn kernel_configs() -> [ExecConfig; 2] {
    [
        ExecConfig {
            strategy: Parallelism::P1,
            algo: AllToAllAlgo::Linear,
            degree: 2,
            world: 2,
            threads: 1,
            dropless: false,
        },
        ExecConfig {
            strategy: Parallelism::P2,
            algo: AllToAllAlgo::TwoDh,
            degree: 4,
            world: 2,
            threads: 4,
            dropless: false,
        },
    ]
}

/// Verdict for one kernel-mode cell.
#[derive(Debug, Clone)]
pub struct KernelVerdict {
    /// The cell that ran.
    pub cell: KernelCell,
    /// SIMD cells: outputs, gradients, and aux matched the scalar twin
    /// bitwise on every config and rank. Scalar cells: trivially true.
    pub simd_bitwise: bool,
    /// bf16 cells: worst [`max_scaled_ulp`] against the f32 twin over
    /// configs, ranks, and both compared tensors. f32 cells: 0.
    pub precision_ulp: f64,
    /// Whether the aux loss matched the scalar/f32 baseline bitwise.
    pub aux_bitwise: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// The bf16 fixture: identical router and per-rank data, expert
/// weights rounded to the bf16 grid (the rest-point invariant the
/// storage mode maintains during training).
fn bf16_fixture(f32_fixture: &Fixture) -> Fixture {
    let (w1, b1, w2, b2) = f32_fixture.experts.weights();
    let experts = ExpertsBlock::from_weights(w1.clone(), b1.clone(), w2.clone(), b2.clone())
        .expect("weights round-trip")
        .with_storage_precision(Precision::Bf16);
    Fixture {
        router: f32_fixture.router.clone(),
        experts,
        per_rank: f32_fixture.per_rank.clone(),
    }
}

/// True iff every rank of every config matched bitwise (outputs,
/// gradients, and aux).
fn all_bitwise(got: &[Vec<RankResult>], twin: &[Vec<RankResult>]) -> bool {
    got.iter().zip(twin).all(|(g_ranks, t_ranks)| {
        g_ranks.len() == t_ranks.len()
            && g_ranks.iter().zip(t_ranks).all(|(g, t)| {
                max_ulp(&g.output, &t.output) == 0
                    && max_ulp(&g.d_x, &t.d_x) == 0
                    && g.aux.to_bits() == t.aux.to_bits()
            })
    })
}

/// Worst scale-aware ULP error across configs, ranks, and both
/// compared tensors.
fn worst_scaled_ulp(got: &[Vec<RankResult>], twin: &[Vec<RankResult>]) -> f64 {
    got.iter()
        .zip(twin)
        .flat_map(|(g_ranks, t_ranks)| g_ranks.iter().zip(t_ranks))
        .map(|(g, t)| max_scaled_ulp(&g.output, &t.output).max(max_scaled_ulp(&g.d_x, &t.d_x)))
        .fold(0.0f64, f64::max)
}

/// Runs the kernel-mode grid and returns one verdict per cell, in
/// [`KERNEL_CELLS`] order. Every cell executes the same seeded problem
/// under [`kernel_configs`] with its kernel table pinned via
/// [`dispatch::with_simd_mode`].
pub fn run_kernel_matrix(seed: u64) -> Vec<KernelVerdict> {
    let problem = Problem { world: 2, seed };
    let f32_fix = problem.materialize();
    let bf16_fix = bf16_fixture(&f32_fix);
    let configs = kernel_configs();

    let mut runs: Vec<Vec<Vec<RankResult>>> = Vec::with_capacity(KERNEL_CELLS.len());
    for cell in KERNEL_CELLS {
        let fixture = if cell.precision == Precision::Bf16 {
            &bf16_fix
        } else {
            &f32_fix
        };
        runs.push(dispatch::with_simd_mode(Some(cell.simd), || {
            configs
                .iter()
                .map(|c| run_distributed(&problem, fixture, c, &Telemetry::disabled()))
                .collect()
        }));
    }

    KERNEL_CELLS
        .iter()
        .enumerate()
        .map(|(i, &cell)| {
            let scalar_twin = i & !1;
            let f32_twin = i & 1;
            let simd_bitwise = !cell.simd || all_bitwise(&runs[i], &runs[scalar_twin]);
            let precision_ulp = if cell.precision == Precision::F32 {
                0.0
            } else {
                worst_scaled_ulp(&runs[i], &runs[f32_twin])
            };
            let aux_bitwise = runs[i].iter().zip(&runs[0]).all(|(g_ranks, b_ranks)| {
                g_ranks
                    .iter()
                    .zip(b_ranks)
                    .all(|(g, b)| g.aux.to_bits() == b.aux.to_bits())
            });
            let within_budget = match cell.precision {
                Precision::F32 => precision_ulp == 0.0,
                _ => precision_ulp <= BF16_ULP_BUDGET,
            };
            let pass = simd_bitwise && within_budget && aux_bitwise;
            KernelVerdict {
                cell,
                simd_bitwise,
                precision_ulp,
                aux_bitwise,
                pass,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_covers_both_axes_and_twin_indexing_holds() {
        for (i, cell) in KERNEL_CELLS.iter().enumerate() {
            assert_eq!(cell.simd, i & 1 == 1, "SIMD must be the low bit");
            assert_eq!(KERNEL_CELLS[i & !1].precision, cell.precision);
            assert_eq!(KERNEL_CELLS[i & 1].simd, cell.simd);
            assert_eq!(KERNEL_CELLS[i & 1].precision, Precision::F32);
        }
    }

    #[test]
    fn kernel_matrix_passes_and_bf16_error_is_nonzero() {
        let verdicts = run_kernel_matrix(42);
        assert_eq!(verdicts.len(), KERNEL_CELLS.len());
        for v in &verdicts {
            assert!(v.pass, "{} failed: {v:?}", v.cell.label());
            assert!(v.aux_bitwise, "{} aux moved", v.cell.label());
        }
        // The bf16 comparison must not be vacuous: rounding the
        // weights has to move the outputs (else the budget tests
        // nothing), and stay under budget with real headroom.
        for v in verdicts
            .iter()
            .filter(|v| v.cell.precision == Precision::Bf16)
        {
            assert!(
                v.precision_ulp > 0.0,
                "{}: bf16 rounding moved nothing",
                v.cell.label()
            );
            assert!(
                v.precision_ulp <= BF16_ULP_BUDGET / 2.0,
                "{}: {} scaled ULP leaves < 2x headroom",
                v.cell.label(),
                v.precision_ulp
            );
        }
    }

    #[test]
    fn both_bf16_cells_report_the_same_error() {
        // SIMD is bitwise, so the two bf16 cells' precision errors must
        // agree exactly — a cheap cross-check that the twin indexing
        // compares what it claims to.
        let verdicts = run_kernel_matrix(7);
        assert_eq!(
            verdicts[2].precision_ulp.to_bits(),
            verdicts[3].precision_ulp.to_bits()
        );
        assert!(verdicts[2].precision_ulp > 0.0);
    }
}
