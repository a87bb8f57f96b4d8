//! Differential conformance harness for the adaptive strategy space.
//!
//! Tutel's core claim is that every adaptive choice — P1 vs P2
//! parallelism, pipelining degree, linear vs 2DH All-to-All — is a
//! zero-cost *equivalent* execution of the same MoE layer. This crate
//! proves it differentially:
//!
//! * [`reference`] is a single-threaded, single-rank executor for the
//!   full layer (gate → capacity → dispatch → FFN → combine → aux
//!   loss, forward **and** backward) with no strategy knobs at all;
//! * [`dist`] executes the same layer over the threaded
//!   `comm::runtime` under every combination of strategy knobs;
//! * [`matrix`] drives the cross-product and compares outputs,
//!   input gradients, and aux loss against the reference under the
//!   [ULP tolerance policy](#ulp-tolerance-policy);
//! * [`faults`] replays seeded [`tutel_comm::FaultPlan`]s against each
//!   collective, asserting graceful degradation (bounded retries
//!   recover bit-identical results) and clean failure (typed
//!   `CommError`, never a hang or corrupted tensor).
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
//! P2 — for every batch composition the scheduler composes, including
//! under a seeded `FaultPlan` replay on the step's All-to-All.
//!
//! [`grouped`] diff-tests the dropless ragged path specifically: the
//! grouped-GEMM serving step against both the per-row reference and
//! its padded capacity twin across {P1, P2} × {lin, 2DH} × degree ×
//! world (bitwise for P1 at `REF_THREADS`, ≤ 4 scaled ULP for P2, and
//! always bitwise against the twin), plus a seeded fault replay on
//! the ragged v-All-to-Alls.

pub mod dist;
pub mod faults;
pub mod grouped;
pub mod kernels;
pub mod matrix;
pub mod race;
pub mod reference;
pub mod serve;
pub mod trace;

/// Expert-parallelism strategy under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Expert + data parallelism: each rank gathers its experts' full
    /// parameters and applies them in one block.
    P1,
    /// Expert + model parallelism: parameters stay sharded along the
    /// hidden dimension; per-shard partial outputs are summed.
    P2,
}

impl Strategy {
    /// Short label for the pass/fail grid.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::P1 => "P1",
            Strategy::P2 => "P2",
        }
    }

    /// The executor-side strategy this selects.
    pub fn serve(&self) -> tutel_serve::exec::Strategy {
        match self {
            Strategy::P1 => tutel_serve::exec::Strategy::P1,
            Strategy::P2 => tutel_serve::exec::Strategy::P2,
        }
    }
}

/// All-to-All algorithm under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum A2aAlgo {
    /// NCCL-style linear point-to-point loop (Algorithm 1).
    Linear,
    /// Two-Dimensional Hierarchical All-to-All (Algorithm 3).
    TwoDh,
}

impl A2aAlgo {
    /// Short label for the pass/fail grid.
    pub fn label(&self) -> &'static str {
        match self {
            A2aAlgo::Linear => "lin",
            A2aAlgo::TwoDh => "2dh",
        }
    }

    /// The `tutel-comm` algorithm this knob selects, for the executed
    /// overlap path.
    pub fn comm_algo(&self) -> tutel_comm::AllToAllAlgo {
        match self {
            A2aAlgo::Linear => tutel_comm::AllToAllAlgo::Linear,
            A2aAlgo::TwoDh => tutel_comm::AllToAllAlgo::TwoDh,
        }
    }
}

/// One point of the conformance matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Config {
    /// P1 or P2 expert parallelism.
    pub strategy: Strategy,
    /// Linear or 2DH exchange.
    pub algo: A2aAlgo,
    /// Pipelining degree: the capacity dimension is split into this
    /// many chunks, each dispatched/computed/combined independently.
    pub degree: usize,
    /// Simulated world size (ranks = OS threads).
    pub world: usize,
    /// `TUTEL_THREADS`-equivalent per-rank compute parallelism limit.
    pub threads: usize,
}

impl Config {
    /// Grid label, e.g. `P2/2dh d4 w4 t1`.
    pub fn label(&self) -> String {
        format!(
            "{}/{} d{} w{} t{}",
            self.strategy.label(),
            self.algo.label(),
            self.degree,
            self.world,
            self.threads
        )
    }

    /// The ULP budget for this configuration (see the
    /// [crate-level policy](crate#ulp-tolerance-policy)).
    pub fn ulp_budget(&self) -> u32 {
        if self.strategy == Strategy::P1 && self.threads == reference::REF_THREADS {
            0
        } else {
            4
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

    #[test]
    fn ulp_budget_policy() {
        let mut c = Config {
            strategy: Strategy::P1,
            algo: A2aAlgo::Linear,
            degree: 1,
            world: 2,
            threads: reference::REF_THREADS,
        };
        assert_eq!(c.ulp_budget(), 0);
        c.strategy = Strategy::P2;
        assert_eq!(c.ulp_budget(), 4);
        c.strategy = Strategy::P1;
        c.threads = 4;
        assert_eq!(c.ulp_budget(), 4);
    }
}
