//! Configuration of an MoE layer.

use tutel_gate::{CapacityPolicy, RouteConfig};

/// Which router scores tokens.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouterKind {
    /// Linear projection (GShard/Fairseq standard).
    #[default]
    Linear,
    /// Cosine router with learnable temperature (Equation 2).
    Cosine,
    /// Parameter-free hash router.
    Hash,
}

/// Configuration of a [`crate::MoeLayer`].
///
/// Mirrors the knobs of Tutel's Python `moe_layer` API: `top_k` can be
/// changed at every iteration (top-ANY), `capacity_factor` follows the
/// Figure 16 convention (positive / 0 / negative), and batch
/// prioritized routing is a flag.
///
/// # Example
///
/// ```
/// use tutel::{MoeConfig, RouterKind};
///
/// let cfg = MoeConfig::new(128, 512, 32)
///     .with_top_k(1)
///     .with_capacity_factor(1.25)
///     .with_router(RouterKind::Cosine)
///     .with_bpr(true);
/// assert_eq!(cfg.experts, 32);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MoeConfig {
    /// Model (channel) dimension `M`.
    pub model_dim: usize,
    /// Expert FFN hidden dimension `V`.
    pub hidden_dim: usize,
    /// Number of global experts `E`.
    pub experts: usize,
    /// Experts per token (top-k; any `1 ≤ k ≤ E`).
    pub top_k: usize,
    /// Capacity-factor argument in the Figure 16 convention.
    pub capacity_factor: f64,
    /// Batch prioritized routing.
    pub bpr: bool,
    /// Router choice.
    pub router: RouterKind,
    /// Projection dimension of the cosine router.
    pub cosine_proj_dim: usize,
    /// Weight of the auxiliary load-balancing loss in the gradient.
    pub aux_weight: f32,
}

impl MoeConfig {
    /// Creates a config with the paper's SwinV2-MoE defaults
    /// (top-1, `f = 1.0`, linear router, no BPR, aux weight 0.01).
    pub fn new(model_dim: usize, hidden_dim: usize, experts: usize) -> Self {
        MoeConfig {
            model_dim,
            hidden_dim,
            experts,
            top_k: 1,
            capacity_factor: 1.0,
            bpr: false,
            router: RouterKind::Linear,
            cosine_proj_dim: 256,
            aux_weight: 0.01,
        }
    }

    /// Sets `top_k`.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Sets the capacity-factor argument (Figure 16 convention).
    pub fn with_capacity_factor(mut self, x: f64) -> Self {
        self.capacity_factor = x;
        self
    }

    /// Sets the router kind.
    pub fn with_router(mut self, router: RouterKind) -> Self {
        self.router = router;
        self
    }

    /// Enables/disables batch prioritized routing.
    pub fn with_bpr(mut self, bpr: bool) -> Self {
        self.bpr = bpr;
        self
    }

    /// Sets the auxiliary-loss weight.
    pub fn with_aux_weight(mut self, w: f32) -> Self {
        self.aux_weight = w;
        self
    }

    /// The per-iteration routing configuration this config implies.
    pub fn route_config(&self) -> RouteConfig {
        RouteConfig {
            k: self.top_k,
            capacity: CapacityPolicy::from_arg(self.capacity_factor),
            bpr: self.bpr,
            normalize_gates: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chain() {
        let cfg = MoeConfig::new(8, 16, 4)
            .with_top_k(2)
            .with_capacity_factor(-4.0)
            .with_bpr(true);
        let rc = cfg.route_config();
        assert_eq!(rc.k, 2);
        assert!(rc.bpr);
        assert_eq!(rc.capacity, CapacityPolicy::AutoCapped(4.0));
    }

    #[test]
    fn defaults_match_swinv2_moe() {
        let cfg = MoeConfig::new(8, 16, 32);
        assert_eq!(cfg.top_k, 1);
        assert_eq!(cfg.capacity_factor, 1.0);
        assert_eq!(cfg.router, RouterKind::Linear);
        assert!(!cfg.bpr);
    }
}
