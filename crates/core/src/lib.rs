//! # tutel — Adaptive Mixture-of-Experts at Scale, in Rust
//!
//! A full reproduction of the Tutel MoE system (Hwang et al.,
//! MLSys 2023) on a simulated multi-GPU cluster:
//!
//! * [`MoeLayer`] — the complete, differentiable MoE layer: gating
//!   (linear / cosine / hash routers, top-ANY, dynamic capacity
//!   factor, BPR), sparse fast encode/decode, expert FFNs, auxiliary
//!   load-balancing loss;
//! * [`step`] — the rank program the layer and every distributed
//!   executor run, with the expert stage supplied by the caller;
//! * [`FairseqMoeLayer`] — the dense-einsum GShard/Fairseq baseline,
//!   numerically equivalent (tested) but asymptotically slower;
//! * [`pipeline`] — adaptive pipelining: token partitioning for
//!   comm/compute overlap and the online strategy search of
//!   Algorithm 2;
//! * [`cost`] — [`cost::ClusterModel`], the modelled A100/HDR cluster
//!   every decision below is priced on (topology, link and kernel
//!   models, and every collective's time);
//! * [`adaptive`] — the inline parallelism router (P1/P2) and the
//!   single-MoE-layer time simulator combining Tutel kernels, Flexible
//!   All-to-All, adaptive pipelining, and adaptive parallelism
//!   switching (the Figure 23 feature ladder);
//! * [`model`] / [`data`] / [`trainer`] — SwinLite-MoE, a compact
//!   MoE classifier trained end-to-end on synthetic clustered data,
//!   standing in for SwinV2-MoE on ImageNet (see DESIGN.md for the
//!   substitution argument).
//!
//! # Quickstart
//!
//! ```
//! use tutel::{MoeConfig, MoeLayer};
//! use tutel_tensor::Rng;
//!
//! let mut rng = Rng::seed(0);
//! let cfg = MoeConfig::new(16, 32, 4).with_top_k(2);
//! let mut layer = MoeLayer::new(&cfg, &mut rng)?;
//! let x = rng.normal_tensor(&[64, 16], 0.0, 1.0); // 64 tokens, 16 channels
//! let out = layer.forward(&x)?;
//! assert_eq!(out.output.dims(), &[64, 16]);
//! assert!(out.aux_loss >= 0.0);
//! # Ok::<(), tutel_tensor::TensorError>(())
//! ```

pub mod adaptive;
mod api;
mod baseline;
pub mod checkpoint;
mod config;
pub mod cost;
pub mod data;
mod layer;
pub mod model;
pub mod overlap;
pub mod pipeline;
pub mod step;
pub mod trainer;

pub use api::{moe, net};
pub use baseline::FairseqMoeLayer;
pub use config::{MoeConfig, RouterKind};
pub use layer::{MoeLayer, MoeOutput};
