//! Quickstart: build a Tutel MoE layer, run a training step, and
//! compose a custom MoE layer from the public pieces — the Rust
//! equivalent of the paper's Figure 8 Python snippet.
//!
//! Run with: `cargo run --example quickstart`

use tutel_suite::comm::runtime::Communicator;
use tutel_suite::comm::{flex::flex_all_to_all, run_threaded, AllToAllAlgo, Topology};
use tutel_suite::gate::{route, RouteConfig};
use tutel_suite::kernels::{fast_decode, fast_encode};
use tutel_suite::tensor::Rng;
use tutel_suite::tutel::{MoeConfig, MoeLayer};

/// Any error a rank of the custom layer can return.
type BoxError = Box<dyn std::error::Error + Send + Sync>;

fn main() -> Result<(), BoxError> {
    // ------------------------------------------------------------------
    // 1. The batteries-included layer.
    // ------------------------------------------------------------------
    let mut rng = Rng::seed(42);
    let cfg = MoeConfig::new(32, 128, 8)
        .with_top_k(2)
        .with_capacity_factor(0.0) // auto-adapt: drop no token (Figure 16)
        .with_bpr(true);
    let mut layer = MoeLayer::new(&cfg, &mut rng)?;

    let tokens = 128;
    let x = rng.normal_tensor(&[tokens, 32], 0.0, 1.0);
    let out = layer.forward(&x)?;
    println!("MoE layer output shape : {}", out.output.shape());
    println!("auxiliary loss         : {:.4}", out.aux_loss);
    println!("capacity factor used   : {:.3}", out.capacity_factor);
    println!(
        "needed capacity factor : {:.3} (Figure 1 telemetry)",
        out.needed_factor
    );
    println!("token survival rate    : {:.1}%", out.survival_rate * 100.0);

    // One SGD step against a dummy regression target.
    let target = rng.normal_tensor(&[tokens, 32], 0.0, 1.0);
    let d_out = out.output.sub(&target)?;
    layer.backward(&d_out)?;
    layer.step(0.01);
    println!("took one training step (router + experts updated)\n");

    // ------------------------------------------------------------------
    // 2. A custom MoE layer from the pieces — Figure 8 of the paper:
    //
    //    scores = softmax(CustomGate(x))
    //    crit, l_aux = moe.top_k_routing(scores, top_k)
    //    y = moe.fast_encode(x, crit)
    //    y = net.flex_all2all(y, 1, 0)
    //    y = CustomExpert(y)
    //    y = net.flex_all2all(y, 0, 1)
    //    output = moe.fast_decode(y, crit)
    // ------------------------------------------------------------------
    let world = Topology::new(2, 2); // 2 nodes × 2 GPUs, one thread each
    let w = world.world_size();
    let experts = 4; // ΔE = 1 per rank
    let per_rank_tokens = 32;

    // A custom (here: random-projection) gate, shared by every rank.
    let gate_w = rng.normal_tensor(&[16, experts], 0.0, 0.1);
    let gate_w = &gate_w;
    let custom_layer = |mut comm: Communicator| -> Result<(), BoxError> {
        let rank = comm.rank();
        let x = Rng::seed(100 + rank as u64).normal_tensor(&[per_rank_tokens, 16], 0.0, 1.0);
        let scores = x.matmul(gate_w)?.softmax_last();
        let crit = route(&scores, &RouteConfig::top1())?;
        let y = fast_encode(&x, &crit)?; // (E, dC, M)

        // Dispatch: flexible All-to-All, concat dim 1, split dim 0 — the
        // output layout (ΔE, C, M) is world-size independent.
        let y = flex_all_to_all(&mut comm, AllToAllAlgo::TwoDh, &y, 1, 0)??;
        if rank == 0 {
            println!("per-rank expert input layout: {}", y.shape());
        }

        // CustomExpert: each rank doubles its tokens (stands in for any FFN).
        let y = y.scale(2.0);

        // Combine: the inverse flexible All-to-All, then fast decode.
        let y = flex_all_to_all(&mut comm, AllToAllAlgo::TwoDh, &y, 0, 1)??;
        let out = fast_decode(&y, &crit, per_rank_tokens)?;
        // With a doubling "expert" and top-1 gates g, output = 2·g·x for
        // surviving tokens.
        let expect = x.at(&[0, 0]) * 2.0 * crit.gates_of(0)[0];
        assert!((out.at(&[0, 0]) - expect).abs() < 1e-4);
        if rank == 0 {
            println!("custom layer rank {rank} output shape: {}", out.shape());
        }
        Ok(())
    };
    for rank_result in run_threaded(world, custom_layer) {
        rank_result?;
    }
    println!("custom MoE layer (Figure 8 style) verified on {w} simulated ranks");
    Ok(())
}
