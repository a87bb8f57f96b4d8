//! Differential conformance harness for the adaptive strategy space.
//!
//! Tutel's core claim is that every adaptive choice — P1 vs P2
//! parallelism, pipelining degree, linear vs 2DH All-to-All — is a
//! zero-cost *equivalent* execution of the same MoE layer. This crate
//! proves it differentially:
//!
//! * [`reference`] is a single-threaded, single-rank executor for the
//!   full layer (gate → capacity → dispatch → FFN → combine → aux
//!   loss, forward **and** backward) with no strategy knobs at all —
//!   an independent spelling that shares no code with what it judges;
//! * [`dist`] runs the product's rank program (`tutel::step`, the
//!   functions `MoeLayer` and `tutel_serve::exec` call) over the
//!   threaded `comm::runtime` under every combination of strategy
//!   knobs;
//! * [`matrix`] drives the cross-product and compares outputs,
//!   input gradients, and aux loss against the reference under the
//!   [ULP tolerance policy](#ulp-tolerance-policy);
//! * [`faults`] replays seeded [`tutel_comm::FaultPlan`]s against each
//!   collective, asserting graceful degradation (bounded retries
//!   recover bit-identical results) and clean failure (typed
//!   `CommError`, never a hang or corrupted tensor).
//!
//! # One plan vocabulary
//!
//! A grid point is the product's own [`ExecConfig`] — the value the
//! policies emit and `tutel_serve::execute_step` consumes — built by
//! one [`grid`], budgeted by one [`ulp_budget`], judged into one
//! [`Verdict`] core and labelled by one [`cell_label`]; the harness
//! defines no P1/P2 enum, algorithm enum or config struct of its own.
//!
//! # ULP tolerance policy
//!
//! * **Bitwise** (0 ULP) when the configuration is algebraically
//!   identical to the reference: P1 parallelism (experts apply their
//!   full, gathered weights) at the same effective thread count —
//!   dispatch order, pipeline chunking, and All-to-All algorithm
//!   permute *rows*, and every per-row kernel reduces in a fixed
//!   order, so not even the last bit may differ.
//! * **≤ 4 ULP at the tensor's scale** otherwise: P2 re-associates
//!   the final sum over hidden shards (`Σ_r x·W1_r·W2_r` instead of
//!   `x·W1·W2`), which is exact per partial product but reorders one
//!   addition chain. The error is measured by [`max_scaled_ulp`] —
//!   `|got − ref| / (ε·max|ref|)` — rather than element-wise
//!   [`ulp_diff`], because re-association perturbs a sum relative to
//!   the magnitude of its *inputs*: on an output element that nearly
//!   cancels, a harmless last-bit reordering error is millions of
//!   element-wise ULPs but still ≤ 4 ULPs at the tensor's scale.
//!
//! Aux loss is compared bitwise always: it is computed rank-locally
//! from the routing alone and no strategy knob may touch it.
//!
//! [`kernels`] crosses a second, orthogonal grid — {scalar, simd} ×
//! {f32, bf16} kernel modes — with two contracts of its own: flipping
//! the SIMD table is **bitwise** (0 ULP, any strategy, any thread
//! count), while bf16-storage weights are budgeted at
//! [`kernels::BF16_ULP_BUDGET`] scaled ULPs against the f32 twin
//! (weight rounding is a ≤ 2⁻⁹ relative perturbation, far outside the
//! 4-ULP strategy budget but tightly bounded at the tensor's scale).
//!
//! [`race`] additionally runs the combined overlap+pool+comm surface
//! on real OS threads under the happens-before race checker
//! (`tutel_check::race`), landing any finding in the telemetry audit
//! ring as a typed anomaly.
//!
//! [`serve`] extends the same oracle to the serving tier: seeded
//! request mixes flow through `tutel-serve`'s continuous batcher and
//! every completed request must reproduce its *solo* reference run —
//! bitwise for P1 at [`reference::REF_THREADS`], ≤ 4 scaled ULP for
//! P2 — for every batch composition the scheduler composes and for a
//! skewed batch's ragged bins, including under a seeded `FaultPlan`
//! replay on the step's ragged All-to-Alls.

pub mod dist;
pub mod faults;
pub mod kernels;
pub mod matrix;
pub mod race;
pub mod reference;
pub mod serve;
pub mod trace;

pub use tutel_comm::AllToAllAlgo;
pub use tutel_experts::Parallelism;
pub use tutel_serve::ExecConfig;

/// Every `{P1, P2} × {linear, 2DH} × degrees × worlds × threads` point
/// as the product's own [`ExecConfig`], nested in that order. A grid
/// that fixes an axis passes a one-element slice for it.
pub fn grid(degrees: &[usize], worlds: &[usize], threads: &[usize]) -> Vec<ExecConfig> {
    let mut out = Vec::new();
    for strategy in [Parallelism::P1, Parallelism::P2] {
        for algo in AllToAllAlgo::ALL {
            for &degree in degrees {
                for &world in worlds {
                    out.extend(threads.iter().map(|&threads| ExecConfig {
                        strategy,
                        algo,
                        degree,
                        world,
                        threads,
                        dropless: true,
                    }));
                }
            }
        }
    }
    out
}

/// Grid label: [`ExecConfig::label`], e.g. `P2/2dh d4 w4`, with
/// ` t{threads}` appended for the one grid that varies the thread axis
/// ([`matrix`]).
pub fn cell_label(cfg: &ExecConfig, with_threads: bool) -> String {
    if with_threads {
        format!("{} t{}", cfg.label(), cfg.threads)
    } else {
        cfg.label()
    }
}

/// The ULP budget for a grid point (see the
/// [crate-level policy](crate#ulp-tolerance-policy)).
pub fn ulp_budget(cfg: &ExecConfig) -> u32 {
    if cfg.strategy == Parallelism::P1 && cfg.threads == reference::REF_THREADS {
        0
    } else {
        4
    }
}

/// Worst distances between executed tensors and their references that
/// one grid point accumulated.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Worst {
    /// Element-wise [`max_ulp`] — the bitwise arm's metric.
    pub ulp: u32,
    /// Scale-aware [`max_scaled_ulp`] — the budgeted arm's metric.
    pub scaled_ulp: f64,
}

impl Worst {
    /// Folds one `got` / `reference` pair in.
    pub fn observe(&mut self, got: &[f32], reference: &[f32]) {
        self.ulp = self.ulp.max(max_ulp(got, reference));
        self.scaled_ulp = self.scaled_ulp.max(max_scaled_ulp(got, reference));
    }
}

/// Verdict for one grid point; `D` is the grid's own evidence columns.
#[derive(Debug, Clone)]
pub struct Verdict<D> {
    /// The point exercised.
    pub config: ExecConfig,
    /// Worst distances to the reference.
    pub worst: Worst,
    /// Grid-specific evidence.
    pub detail: D,
    /// Whether the point met its budget and its side conditions.
    pub pass: bool,
}

impl<D> Verdict<D> {
    /// Applies [`ulp_budget`] to `worst`; `side_ok` carries the grid's
    /// non-numeric conditions (aux loss bitwise, every request served).
    pub fn judge(config: ExecConfig, worst: Worst, detail: D, side_ok: bool) -> Self {
        let budget = ulp_budget(&config);
        let within = if budget == 0 {
            worst.ulp == 0
        } else {
            worst.scaled_ulp <= f64::from(budget)
        };
        Verdict {
            config,
            worst,
            detail,
            pass: within && side_ok,
        }
    }

    /// `pass (bitwise)` / `pass` / `FAIL`, as the grids print it.
    pub fn outcome(&self) -> &'static str {
        match (self.pass, self.worst.ulp) {
            (true, 0) => "pass (bitwise)",
            (true, _) => "pass",
            (false, _) => "FAIL",
        }
    }
}

/// Distance between two floats in units of last place, on the
/// monotone ordered-integer mapping; `u32::MAX` if either is NaN.
pub fn ulp_diff(a: f32, b: f32) -> u32 {
    if a.is_nan() || b.is_nan() {
        return u32::MAX;
    }
    fn ordered(x: f32) -> i64 {
        let i = x.to_bits() as i32;
        // Map negative floats below the positives, preserving order.
        i64::from(if i < 0 { i32::MIN - i } else { i })
    }
    ordered(a).abs_diff(ordered(b)).min(u64::from(u32::MAX)) as u32
}

/// Largest element-wise [`ulp_diff`] between two equal-length slices;
/// `u32::MAX` on length mismatch.
pub fn max_ulp(a: &[f32], b: &[f32]) -> u32 {
    if a.len() != b.len() {
        return u32::MAX;
    }
    a.iter()
        .zip(b)
        .map(|(&x, &y)| ulp_diff(x, y))
        .max()
        .unwrap_or(0)
}

/// Largest element-wise error between `got` and `reference`, in units
/// of last place **at the reference tensor's scale**: the absolute
/// difference divided by `ε·max|reference|` (ε = f32 machine epsilon).
///
/// This is the tolerance the non-bitwise arm of the policy uses:
/// plain element-wise ULP distance explodes on elements that nearly
/// cancel (a re-association error of one part in 2²³ of the *sum's
/// inputs* can be millions of ULPs of a near-zero *result*), while
/// scale-aware ULPs measure what re-association can actually perturb.
/// `infinity` on length mismatch or NaN; `0` when both are empty or
/// the reference is identically zero and `got` matches bitwise.
pub fn max_scaled_ulp(got: &[f32], reference: &[f32]) -> f64 {
    if got.len() != reference.len() {
        return f64::INFINITY;
    }
    let scale = reference.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let mut worst = 0.0f64;
    for (&g, &r) in got.iter().zip(reference) {
        if g.is_nan() || r.is_nan() {
            return f64::INFINITY;
        }
        let diff = f64::from(g) - f64::from(r);
        if diff == 0.0 {
            continue;
        }
        if scale == 0.0 {
            return f64::INFINITY;
        }
        worst = worst.max(diff.abs() / (f64::from(f32::EPSILON) * f64::from(scale)));
    }
    worst
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulp_diff_basics() {
        assert_eq!(ulp_diff(1.0, 1.0), 0);
        assert_eq!(ulp_diff(1.0, f32::from_bits(1.0f32.to_bits() + 1)), 1);
        assert_eq!(ulp_diff(0.0, -0.0), 0, "signed zeros compare equal");
        assert_eq!(ulp_diff(f32::NAN, 1.0), u32::MAX);
        // Order-preserving across the sign boundary.
        assert!(ulp_diff(-1e-38, 1e-38) > 1);
    }

    #[test]
    fn max_ulp_flags_length_mismatch() {
        assert_eq!(max_ulp(&[1.0], &[1.0, 2.0]), u32::MAX);
        assert_eq!(max_ulp(&[1.0, 2.0], &[1.0, 2.0]), 0);
    }

    #[test]
    fn scaled_ulp_measures_at_tensor_scale() {
        assert_eq!(max_scaled_ulp(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        // One element-ULP of error at the scale element = 1 scaled ULP.
        let bumped = f32::from_bits(2.0f32.to_bits() + 1);
        let got = max_scaled_ulp(&[1.0, bumped], &[1.0, 2.0]);
        assert!((got - 1.0).abs() < 1e-9, "got {got}");
        // A near-zero element with a tiny absolute error is huge in
        // element-wise ULPs but small at the tensor's scale.
        let near_zero = 2.0 * f32::EPSILON * 1e-3;
        assert!(ulp_diff(near_zero, 0.0) > 1000);
        assert!(max_scaled_ulp(&[near_zero, 2.0], &[0.0, 2.0]) < 0.01);
        // Length mismatch and NaN are infinite.
        assert!(max_scaled_ulp(&[1.0], &[1.0, 2.0]).is_infinite());
        assert!(max_scaled_ulp(&[f32::NAN], &[1.0]).is_infinite());
    }

    fn point(strategy: Parallelism, threads: usize) -> ExecConfig {
        ExecConfig {
            strategy,
            algo: AllToAllAlgo::Linear,
            degree: 1,
            world: 2,
            threads,
            dropless: true,
        }
    }

    #[test]
    fn ulp_budget_policy() {
        assert_eq!(
            ulp_budget(&point(Parallelism::P1, reference::REF_THREADS)),
            0
        );
        assert_eq!(
            ulp_budget(&point(Parallelism::P2, reference::REF_THREADS)),
            4
        );
        assert_eq!(ulp_budget(&point(Parallelism::P1, 4)), 4);
    }

    #[test]
    fn judge_applies_the_budget_arm_the_point_selects() {
        let off_by_one = Worst {
            ulp: 1,
            scaled_ulp: 0.5,
        };
        let p1 = Verdict::judge(point(Parallelism::P1, 1), off_by_one, (), true);
        assert!(!p1.pass, "one ULP breaks a bitwise point");
        assert_eq!(p1.outcome(), "FAIL");
        let p2 = Verdict::judge(point(Parallelism::P2, 1), off_by_one, (), true);
        assert!(p2.pass);
        assert_eq!(p2.outcome(), "pass");
        assert!(!Verdict::judge(point(Parallelism::P2, 1), off_by_one, (), false).pass);
        let exact = Verdict::judge(point(Parallelism::P1, 1), Worst::default(), (), true);
        assert_eq!(exact.outcome(), "pass (bitwise)");
    }

    #[test]
    fn labels_are_byte_identical_to_the_pre_refactor_grids() {
        // The strings the three deleted label() impls printed.
        let mut cfg = point(Parallelism::P2, 1);
        cfg.algo = AllToAllAlgo::TwoDh;
        cfg.degree = 4;
        cfg.world = 4;
        assert_eq!(cell_label(&cfg, true), "P2/2dh d4 w4 t1");
        assert_eq!(cell_label(&cfg, false), "P2/2dh d4 w4");
        assert_eq!(
            cell_label(&point(Parallelism::P1, 4), true),
            "P1/lin d1 w2 t4"
        );
        // The product's own label reads no ignored field.
        let ignored = ExecConfig {
            dropless: false,
            ..cfg
        };
        assert_eq!(ignored.label(), "P2/2dh d4 w4");
    }

    #[test]
    fn grid_sizes_are_pinned() {
        assert_eq!(matrix::configs(matrix::Mode::Smoke).len(), 48);
        assert_eq!(matrix::configs(matrix::Mode::Full).len(), 96);
        assert_eq!(serve::serve_grid().len(), 24);
        assert_eq!(faults::COLLECTIVES.len(), 6);
        assert_eq!(kernels::KERNEL_CELLS.len(), 4);
    }

    #[test]
    fn grid_is_the_full_cross_product_in_stable_order() {
        let g = grid(&[1, 2], &[1, 2, 4], &[1]);
        assert_eq!(g.len(), 2 * 2 * 2 * 3);
        assert_eq!(cell_label(&g[0], false), "P1/lin d1 w1");
        assert_eq!(cell_label(&g[1], false), "P1/lin d1 w2");
        assert_eq!(cell_label(&g[23], false), "P2/2dh d2 w4");
        assert!(g.iter().all(|c| c.threads == 1));
    }
}
