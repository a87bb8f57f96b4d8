//! The capstone integration test: a complete distributed MoE forward
//! step executed by real threads over the message-passing runtime —
//! the product's rank program (`tutel::step`) with the expert
//! exchange (`exchange_bins` over the 2DH route: dispatch, rank-local
//! expert compute, combine) as its expert stage — compared against
//! the single-process chain written out on the padded kernels.

use tutel_suite::comm::runtime::run_threaded;
use tutel_suite::comm::{AllToAllAlgo, Topology};
use tutel_suite::experts::ExpertsBlock;
use tutel_suite::gate::{route, LinearRouter, RaggedRouting, RouteConfig, Router};
use tutel_suite::kernels::{fast_decode, fast_encode};
use tutel_suite::obs::Telemetry;
use tutel_suite::tensor::{scratch, Rng, Tensor};
use tutel_suite::tutel::overlap::exchange_bins;
use tutel_suite::tutel::step;

fn run_distributed_step(topology: Topology, k: usize, seed: u64) {
    let w = topology.world_size();
    let local_experts = 2usize;
    let experts = w * local_experts;
    let (tokens, m, v) = (18usize, 6usize, 10usize);

    // Shared (replicated) parameters, built once.
    let mut rng = Rng::seed(seed);
    let router = LinearRouter::new(m, experts, &mut rng);
    let global_experts = ExpertsBlock::new(experts, m, v, &mut rng);
    let inputs: Vec<Tensor> = (0..w)
        .map(|_| rng.normal_tensor(&[tokens, m], 0.0, 1.0))
        .collect();

    // Reference: rank-local routing + global expert application.
    let reference: Vec<Tensor> = inputs
        .iter()
        .map(|x| {
            let probs = router.logits(x).unwrap().softmax_last();
            let cfg = RouteConfig {
                k,
                ..RouteConfig::top1()
            };
            let routing = route(&probs, &cfg).unwrap();
            let enc = fast_encode(x, &routing).unwrap();
            let out = global_experts.infer(&enc).unwrap();
            fast_decode(&out, &routing, tokens).unwrap()
        })
        .collect();

    // Distributed: every rank is a thread running the real program.
    let router_ref = &router;
    let experts_ref = &global_experts;
    let inputs_ref = &inputs;
    let results = run_threaded(topology, move |mut comm| {
        let rank = comm.rank();
        let cfg = RouteConfig {
            k,
            ..RouteConfig::top1()
        };
        // This rank's experts on the exact bins of rows every rank
        // routed to them.
        let local = experts_ref.rank_slice(w, rank).unwrap();
        let x = &inputs_ref[rank];
        let tel = Telemetry::disabled();
        let (probs, routing) = step::gate(router_ref, x, &cfg, &tel).unwrap();
        let bins = RaggedRouting::from_routing(&routing);
        let (out, _) = step::forward(x, probs, routing, bins, &tel, |packed, offsets| {
            let out = exchange_bins(
                &mut comm,
                AllToAllAlgo::TwoDh,
                1,
                &packed,
                offsets,
                |_, rows, offsets| local.infer_grouped(rows, offsets),
            );
            scratch::recycle(packed);
            out.unwrap()
        })
        .unwrap();
        out
    });

    for (rank, (got, expect)) in results.iter().zip(&reference).enumerate() {
        let diff = got.sub(expect).unwrap().max_abs();
        assert!(diff < 1e-4, "rank {rank} diverged by {diff}");
    }
}

#[test]
fn threaded_moe_step_four_ranks_top1() {
    run_distributed_step(Topology::single_node(4), 1, 11);
}

#[test]
fn threaded_moe_step_multi_node_top2() {
    run_distributed_step(Topology::new(2, 2), 2, 12);
}

#[test]
fn threaded_moe_step_eight_ranks() {
    run_distributed_step(Topology::new(2, 4), 2, 13);
}
