//! Expert capacity (Equation 1) and the dynamic capacity-factor policy
//! of Figure 16.

/// Expert capacity per Equation 1 of the paper:
/// `capacity = k · f · T / E`, rounded up, and at least 1.
///
/// # Example
///
/// ```
/// use tutel_gate::expert_capacity;
///
/// assert_eq!(expert_capacity(2, 1.0, 4096, 64), 128);
/// assert_eq!(expert_capacity(1, 1.25, 4096, 64), 80);
/// assert_eq!(expert_capacity(1, 0.001, 4096, 64), 1); // floor of 1
/// ```
pub fn expert_capacity(k: usize, f: f64, tokens: usize, experts: usize) -> usize {
    assert!(experts > 0, "capacity of zero experts");
    assert!(f > 0.0, "capacity factor must be positive");
    let cap = (k as f64 * f * tokens as f64 / experts as f64).ceil() as usize;
    cap.max(1)
}

/// The minimum capacity factor that would drop no token, given the
/// per-expert routed token counts *before* capacity clamping:
/// `f_min = max_e count[e] · E / (k · T)`.
///
/// This is the quantity plotted in Figure 1 — the "needed expert
/// capacity at runtime".
pub fn needed_capacity_factor(counts: &[usize], k: usize, tokens: usize) -> f64 {
    let experts = counts.len();
    if experts == 0 || tokens == 0 || k == 0 {
        return 0.0;
    }
    let max = counts.iter().copied().max().unwrap_or(0);
    max as f64 * experts as f64 / (k as f64 * tokens as f64)
}

/// Dynamic capacity-factor policy, mirroring the paper's
/// `capacity_factor = x` API argument (Figure 16).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CapacityPolicy {
    /// `x > 0`: the value is applied directly as the capacity factor.
    Fixed(f64),
    /// `x == 0`: adapt to the minimum factor that drops no token.
    AutoMin,
    /// `x < 0`: adapt like [`CapacityPolicy::AutoMin`] but never exceed
    /// `-x`.
    AutoCapped(f64),
}

impl CapacityPolicy {
    /// Parses the paper's single-argument convention. A NaN argument
    /// is carried as `Fixed(NaN)`, which [`crate::route`] rejects with
    /// a typed error (as it does any non-finite factor).
    pub fn from_arg(x: f64) -> Self {
        if x == 0.0 {
            CapacityPolicy::AutoMin
        } else if x < 0.0 {
            CapacityPolicy::AutoCapped(-x)
        } else {
            CapacityPolicy::Fixed(x)
        }
    }

    /// Resolves the capacity factor to use this iteration, given the
    /// routed (unclamped) per-expert counts.
    ///
    /// Always strictly positive: the variants are constructible
    /// directly (bypassing [`CapacityPolicy::from_arg`]), so a
    /// degenerate `Fixed(0.0)` or `AutoCapped(0.0)` is clamped to
    /// `f64::EPSILON` here rather than tripping [`expert_capacity`]'s
    /// positivity assert from deep inside `route`.
    pub fn resolve(&self, counts: &[usize], k: usize, tokens: usize) -> f64 {
        match *self {
            CapacityPolicy::Fixed(f) => f.max(f64::EPSILON),
            CapacityPolicy::AutoMin => needed_capacity_factor(counts, k, tokens).max(f64::EPSILON),
            CapacityPolicy::AutoCapped(bound) => needed_capacity_factor(counts, k, tokens)
                .min(bound)
                .max(f64::EPSILON),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_formula_matches_equation1() {
        // T = 16384, E = 64, k = 2, f = 1 → 512 (the Table 4 setting).
        assert_eq!(expert_capacity(2, 1.0, 16384, 64), 512);
        // Rounds up.
        assert_eq!(expert_capacity(1, 1.0, 10, 3), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn capacity_rejects_zero_factor() {
        expert_capacity(1, 0.0, 16, 4);
    }

    #[test]
    fn needed_factor_is_one_for_perfect_balance() {
        // 4 experts, 16 tokens, k=1, perfectly balanced: 4 each.
        let f = needed_capacity_factor(&[4, 4, 4, 4], 1, 16);
        assert!((f - 1.0).abs() < 1e-12);
    }

    #[test]
    fn needed_factor_tracks_imbalance() {
        // One expert got half of all 16 tokens: f = 8·4/16 = 2.
        let f = needed_capacity_factor(&[8, 4, 2, 2], 1, 16);
        assert!((f - 2.0).abs() < 1e-12);
    }

    #[test]
    fn needed_factor_degenerate_inputs() {
        assert_eq!(needed_capacity_factor(&[], 1, 16), 0.0);
        assert_eq!(needed_capacity_factor(&[1, 2], 1, 0), 0.0);
        assert_eq!(needed_capacity_factor(&[1, 2], 0, 16), 0.0);
    }

    #[test]
    fn policy_parsing_follows_figure16() {
        assert_eq!(CapacityPolicy::from_arg(4.0), CapacityPolicy::Fixed(4.0));
        assert_eq!(CapacityPolicy::from_arg(0.0), CapacityPolicy::AutoMin);
        assert_eq!(
            CapacityPolicy::from_arg(-4.0),
            CapacityPolicy::AutoCapped(4.0)
        );
        assert!(matches!(
            CapacityPolicy::from_arg(f64::NAN),
            CapacityPolicy::Fixed(f) if f.is_nan()
        ));
    }

    #[test]
    fn policy_resolution() {
        let counts = [8, 4, 2, 2]; // f_min = 2 for k=1, T=16
        assert_eq!(CapacityPolicy::Fixed(4.0).resolve(&counts, 1, 16), 4.0);
        assert!((CapacityPolicy::AutoMin.resolve(&counts, 1, 16) - 2.0).abs() < 1e-12);
        // Cap binds below the needed factor.
        assert!((CapacityPolicy::AutoCapped(1.5).resolve(&counts, 1, 16) - 1.5).abs() < 1e-12);
        // Cap does not bind above it.
        assert!((CapacityPolicy::AutoCapped(4.0).resolve(&counts, 1, 16) - 2.0).abs() < 1e-12);
    }
}
