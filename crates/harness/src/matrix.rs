//! The conformance-matrix driver: cross product of every strategy
//! knob, each point compared against the single-rank reference under
//! the crate-level ULP tolerance policy.

use crate::dist::run_distributed;
use crate::reference::{run_reference, Problem, RankResult};
use crate::{grid, ExecConfig, Worst};

/// Pipeline degrees.
pub const DEGREES: [usize; 4] = [1, 2, 4, 8];
/// Simulated world sizes.
pub const WORLDS: [usize; 3] = [1, 2, 4];
/// Per-rank compute thread limits (`TUTEL_THREADS`-equivalent).
pub const THREADS: [usize; 2] = [1, 4];

/// Matrix mode: the smoke subset keeps one representative
/// `(degree, threads)` pair per corner of the pipeline axis; the full
/// mode runs the entire cross product.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// ~1/3 of the matrix, for CI.
    Smoke,
    /// Every configuration.
    Full,
}

impl Mode {
    /// Name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Smoke => "smoke",
            Mode::Full => "full",
        }
    }
}

/// The configurations the mode selects, in stable order.
pub fn configs(mode: Mode) -> Vec<ExecConfig> {
    let mut out = grid(&DEGREES, &WORLDS, &THREADS);
    if mode == Mode::Smoke {
        // One bitwise-eligible point (d1 t1), the executed-overlap
        // ladder at single-thread bitwise eligibility (d4 t1, d8 t1),
        // and one mid multi-thread point (d2 t4).
        out.retain(|c| matches!((c.degree, c.threads), (1, 1) | (2, 4) | (4, 1) | (8, 1)));
    }
    out
}

/// What a matrix point records beside the shared verdict core.
#[derive(Debug, Clone, Copy)]
pub struct MatrixDetail {
    /// Largest output scale-aware ULP error across ranks.
    pub output_ulp: f64,
    /// Largest input-gradient scale-aware ULP error across ranks.
    pub d_x_ulp: f64,
    /// Whether the aux loss matched bitwise on every rank.
    pub aux_bitwise: bool,
}

/// Verdict for one matrix point; `worst.ulp == 0` iff outputs and
/// gradients matched bitwise on every rank.
pub type Verdict = crate::Verdict<MatrixDetail>;

fn judge(config: ExecConfig, reference: &[RankResult], got: &[RankResult]) -> Verdict {
    let (mut output, mut d_x) = (Worst::default(), Worst::default());
    let mut aux_bitwise = got.len() == reference.len();
    for (g, r) in got.iter().zip(reference) {
        output.observe(&g.output, &r.output);
        d_x.observe(&g.d_x, &r.d_x);
        aux_bitwise &= g.aux.to_bits() == r.aux.to_bits();
    }
    let worst = Worst {
        ulp: output.ulp.max(d_x.ulp),
        scaled_ulp: output.scaled_ulp.max(d_x.scaled_ulp),
    };
    let detail = MatrixDetail {
        output_ulp: output.scaled_ulp,
        d_x_ulp: d_x.scaled_ulp,
        aux_bitwise,
    };
    Verdict::judge(config, worst, detail, aux_bitwise)
}

/// Runs the matrix for `mode` and returns one verdict per
/// configuration, world-major (each world's points in [`configs`]
/// order). The reference and fixture are built once per world size
/// from `seed` so every configuration of a world compares against the
/// identical baseline.
pub fn run_matrix(mode: Mode, seed: u64) -> Vec<Verdict> {
    let mut verdicts = Vec::new();
    for &world in &WORLDS {
        let problem = Problem { world, seed };
        let fixture = problem.materialize();
        let reference = run_reference(&problem, &fixture);
        for config in configs(mode).into_iter().filter(|c| c.world == world) {
            let got = run_distributed(&problem, &fixture, &config, None);
            verdicts.push(judge(config, &reference, &got));
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_is_a_strict_subset_of_full() {
        let smoke = configs(Mode::Smoke);
        let full = configs(Mode::Full);
        assert!(smoke.len() < full.len());
        assert_eq!(full.len(), 2 * 2 * 4 * 3 * 2);
        assert_eq!(smoke.len(), 2 * 2 * 4 * 3);
        for c in &smoke {
            assert!(
                full.contains(c),
                "{} missing from full",
                crate::cell_label(c, true)
            );
        }
    }

    #[test]
    fn smoke_covers_every_strategy_algo_world() {
        let smoke = configs(Mode::Smoke);
        for world in WORLDS {
            for strategy in [crate::Parallelism::P1, crate::Parallelism::P2] {
                for algo in crate::AllToAllAlgo::ALL {
                    assert!(
                        smoke
                            .iter()
                            .any(|c| c.world == world && c.strategy == strategy && c.algo == algo),
                        "smoke misses {}/{} w{}",
                        strategy.label(),
                        algo.label(),
                        world
                    );
                }
            }
        }
    }
}
