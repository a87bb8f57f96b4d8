//! MoE gating for the tutel-rs stack.
//!
//! Implements the paper's gating features:
//!
//! * routers producing token→expert scores: [`LinearRouter`] (the
//!   GShard/Fairseq standard), [`CosineRouter`] (Section 5.3.4,
//!   Equation 2), and [`HashRouter`] (a parameter-free baseline);
//! * **top-ANY routing** ([`route`]): any `k`, changeable per
//!   iteration;
//! * **expert capacity** (Equation 1) with the dynamic
//!   [`CapacityPolicy`] of Figure 16 (`positive` = fixed, `0` = auto
//!   minimum that drops no token, `negative` = auto with upper bound);
//! * **batch prioritized routing** (BPR) — location assignment ordered
//!   by gate confidence instead of token order, crucial at low
//!   inference capacity factors (Figure 25);
//! * the GShard **auxiliary load-balancing loss** ([`aux_loss`]).

mod aux;
mod backward;
mod capacity;
mod obs;
mod router;
mod routing;

pub use aux::{aux_loss, aux_loss_grad_row};
pub use backward::gate_logits_grad;
pub use capacity::{expert_capacity, needed_capacity_factor, CapacityPolicy};
pub use obs::observe_routing;
pub use router::{CosineRouter, HashRouter, LinearRouter, Router};
pub use routing::{route, route_top_k, RaggedRouting, RouteConfig, Routing};
