//! Full-stack distributed parity: running the MoE dispatch → expert →
//! combine pipeline across W simulated ranks through Flexible
//! All-to-All (with either exchange algorithm) must be numerically
//! identical to applying the global experts rank-locally.
//!
//! This is the integration guarantee behind Tutel's claim that all of
//! its optimizations are transparent to the model: distribution changes
//! time, never math.

use tutel_suite::comm::{flex::flex_all_to_all, run_threaded, AllToAllAlgo, Topology};
use tutel_suite::experts::ExpertsBlock;
use tutel_suite::gate::{route, RouteConfig, Routing};
use tutel_suite::kernels::{fast_decode, fast_encode};
use tutel_suite::tensor::{Rng, Tensor};

struct RankState {
    x: Tensor,
    routing: Routing,
}

/// Builds per-rank token batches and their local routing decisions
/// (GShard semantics: each rank routes its own tokens with its own
/// capacity slots).
fn make_ranks(
    world: usize,
    tokens: usize,
    experts: usize,
    m: usize,
    k: usize,
    seed: u64,
) -> Vec<RankState> {
    let mut rng = Rng::seed(seed);
    (0..world)
        .map(|_| {
            let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
            let probs = rng
                .uniform_tensor(&[tokens, experts], 0.0, 1.0)
                .softmax_last();
            let cfg = RouteConfig {
                k,
                ..RouteConfig::top1()
            };
            let routing = route(&probs, &cfg).unwrap();
            RankState { x, routing }
        })
        .collect()
}

fn max_diff(a: &Tensor, b: &Tensor) -> f32 {
    a.sub(b).unwrap().max_abs()
}

fn run_parity(topology: Topology, local_experts: usize, k: usize, algo: AllToAllAlgo, seed: u64) {
    let w = topology.world_size();
    let experts = w * local_experts;
    let (tokens, m, v) = (24usize, 10usize, 14usize);
    let ranks = make_ranks(w, tokens, experts, m, k, seed);

    // One global expert block, shared by both execution paths.
    let mut rng = Rng::seed(seed ^ 0xABCD);
    let global_experts = ExpertsBlock::new(experts, m, v, &mut rng);

    // Reference path: every rank applies the global experts directly to
    // its locally encoded (E, dC, M) buffer.
    let reference: Vec<Tensor> = ranks
        .iter()
        .map(|r| {
            let enc = fast_encode(&r.x, &r.routing).unwrap();
            let out = global_experts.infer(&enc).unwrap();
            fast_decode(&out, &r.routing, tokens).unwrap()
        })
        .collect();

    // Distributed path, one thread per rank: encode → Flexible
    // All-to-All (dispatch) → rank-local expert slice → Flexible
    // All-to-All (combine) → decode.
    let (ranks, global_experts) = (&ranks, &global_experts);
    let distributed = run_threaded(topology, |mut comm| {
        let rank = comm.rank();
        let r = &ranks[rank];
        let encoded = fast_encode(&r.x, &r.routing).unwrap();
        let input = flex_all_to_all(&mut comm, algo, &encoded, 1, 0)
            .unwrap()
            .unwrap();
        // Rank `rank` owns experts [rank·ΔE, (rank+1)·ΔE).
        let (w1, b1, w2, b2) = global_experts.weights();
        let slice = |t: &Tensor| t.split_axis(0, w).unwrap()[rank].clone();
        let local = ExpertsBlock::from_weights(slice(w1), slice(b1), slice(w2), slice(b2)).unwrap();
        let expert_out = local.infer(&input).unwrap();
        let combined = flex_all_to_all(&mut comm, algo, &expert_out, 0, 1)
            .unwrap()
            .unwrap();
        fast_decode(&combined, &r.routing, tokens).unwrap()
    });

    for (rank, (a, b)) in reference.iter().zip(&distributed).enumerate() {
        let diff = max_diff(a, b);
        assert!(
            diff < 1e-4,
            "rank {rank} diverged by {diff} ({topology:?}, dE={local_experts}, k={k}, {algo:?})"
        );
    }
}

#[test]
fn parity_single_node_top1() {
    run_parity(Topology::single_node(4), 1, 1, AllToAllAlgo::Linear, 1);
}

#[test]
fn parity_single_node_top2_multi_expert() {
    run_parity(Topology::single_node(2), 3, 2, AllToAllAlgo::Linear, 2);
}

#[test]
fn parity_multi_node_two_dh() {
    run_parity(Topology::new(2, 2), 2, 2, AllToAllAlgo::TwoDh, 3);
}

#[test]
fn parity_multi_node_eight_ranks() {
    run_parity(Topology::new(2, 4), 1, 1, AllToAllAlgo::TwoDh, 4);
}

#[test]
fn parity_across_algorithms_is_bit_identical() {
    // Not just close to the reference: the two exchange algorithms must
    // agree with each other exactly.
    let topology = Topology::new(2, 2);
    let w = topology.world_size();
    let ranks = make_ranks(w, 16, w, 8, 1, 9);
    let ranks = &ranks;
    let dispatched = run_threaded(topology, |mut comm| {
        let r = &ranks[comm.rank()];
        let encoded = fast_encode(&r.x, &r.routing).unwrap();
        let mut flex = |algo| {
            flex_all_to_all(&mut comm, algo, &encoded, 1, 0)
                .unwrap()
                .unwrap()
        };
        (flex(AllToAllAlgo::Linear), flex(AllToAllAlgo::TwoDh))
    });
    for (a, b) in dispatched {
        assert_eq!(a, b);
    }
}
