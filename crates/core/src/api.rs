//! Paper-faithful API façade: the names of Figure 8.
//!
//! The paper's custom-layer example is
//!
//! ```python
//! from tutel import moe
//! from tutel import net
//!
//! def custom_moe(x, top_k=2):
//!     scores = softmax(CustomGate(x), dim=1)
//!     crit, l_aux = moe.top_k_routing(scores, top_k)
//!     y = moe.fast_encode(x, crit)
//!     y = net.flex_all2all(y, 1, 0)
//!     y = CustomExpert(y)
//!     y = net.flex_all2all(y, 0, 1)
//!     output = moe.fast_decode(y, crit)
//!     return output, l_aux
//! ```
//!
//! and this module provides the same vocabulary in Rust:
//! [`moe::top_k_routing`], [`moe::fast_encode`], [`moe::fast_decode`],
//! [`net::flex_all2all`]. As in the paper, the program is one rank's:
//! `flex_all2all` takes the rank's
//! [`Communicator`](tutel_comm::runtime::Communicator), so the layer
//! runs on every rank of a [`run_threaded`](tutel_comm::run_threaded)
//! world.

/// `from tutel import moe` — routing and encode/decode.
pub mod moe {
    use tutel_gate::{route, RouteConfig, Routing};
    use tutel_tensor::{Tensor, TensorError};

    pub use tutel_kernels::{fast_decode, fast_encode};

    /// Top-k routing from gating `scores (T, E)`: returns the routing
    /// criterion (`crit`) and the auxiliary load-balancing loss
    /// (`l_aux`) — the `moe.top_k_routing(scores, top_k)` of Figure 8.
    ///
    /// Uses the default capacity factor 1.0; build a
    /// [`RouteConfig`](tutel_gate::RouteConfig) and call
    /// [`route`](tutel_gate::route) directly for the full knob set.
    ///
    /// # Errors
    ///
    /// Returns a [`TensorError`] if `scores` is not rank-2 or `top_k`
    /// is out of range.
    pub fn top_k_routing(scores: &Tensor, top_k: usize) -> Result<(Routing, f32), TensorError> {
        let cfg = RouteConfig {
            k: top_k,
            ..RouteConfig::top1()
        };
        let crit = route(scores, &cfg)?;
        let l_aux = tutel_gate::aux_loss(scores, &crit)?;
        Ok((crit, l_aux))
    }
}

/// `from tutel import net` — the communication layer.
pub mod net {
    use tutel_comm::runtime::Communicator;
    use tutel_comm::{AllToAllAlgo, CommError};
    use tutel_tensor::{Tensor, TensorError};

    /// This rank's Flexible All-to-All over the 2DH route — the
    /// `net.flex_all2all(y, concat_dim, split_dim)` of Figure 8 and
    /// Table 3. Dispatch: `(E, ΔC, M) → (ΔE, C, M)` with `(1, 0)`;
    /// combine: the inverse with `(0, 1)`.
    ///
    /// # Errors
    ///
    /// As [`tutel_comm::flex::flex_all_to_all`]: the outer
    /// [`CommError`] is the exchange's, the inner [`TensorError`] this
    /// rank's own.
    pub fn flex_all2all(
        comm: &mut Communicator,
        y: &Tensor,
        concat_dim: usize,
        split_dim: usize,
    ) -> Result<Result<Tensor, TensorError>, CommError> {
        tutel_comm::flex::flex_all_to_all(comm, AllToAllAlgo::TwoDh, y, concat_dim, split_dim)
    }
}

#[cfg(test)]
mod tests {
    use super::{moe, net};
    use tutel_comm::{run_threaded, Topology};
    use tutel_tensor::{Rng, Tensor};

    #[test]
    fn figure8_custom_layer_end_to_end() {
        // The full Figure 8 program on every rank, with a doubling
        // "CustomExpert".
        let (tokens, experts, m) = (8usize, 2usize, 4usize);
        let gate_w = Rng::seed(1).normal_tensor(&[m, experts], 0.0, 0.1);
        let gate_w = &gate_w;
        let outs = run_threaded(Topology::single_node(2), |mut comm| {
            let x = Rng::seed(2 + comm.rank() as u64).normal_tensor(&[tokens, m], 0.0, 1.0);
            let scores = x.matmul(gate_w).unwrap().softmax_last();
            let (crit, l_aux) = moe::top_k_routing(&scores, 2).unwrap();
            assert!(l_aux > 0.0);
            let y = moe::fast_encode(&x, &crit).unwrap();
            let y = net::flex_all2all(&mut comm, &y, 1, 0).unwrap().unwrap();
            let y = y.scale(2.0);
            let y = net::flex_all2all(&mut comm, &y, 0, 1).unwrap().unwrap();
            moe::fast_decode(&y, &crit, tokens).unwrap()
        });
        for out in outs {
            assert_eq!(out.dims(), &[tokens, m]);
            assert!(out.max_abs().is_finite());
        }
    }

    #[test]
    fn top_k_routing_validates() {
        let scores = Tensor::zeros(&[4, 3]).softmax_last();
        assert!(moe::top_k_routing(&scores, 0).is_err());
        assert!(moe::top_k_routing(&scores, 4).is_err());
        assert!(moe::top_k_routing(&scores, 3).is_ok());
    }
}
