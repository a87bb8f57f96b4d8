//! The distributed executor: the same MoE layer as [`crate::reference`],
//! run over the threaded `comm::runtime` under every combination of
//! strategy knobs — P1/P2 parallelism, linear/2DH All-to-All, pipeline
//! degree, world size, and per-rank compute thread limit.
//!
//! Every rank is an OS thread with a real mailbox-based communicator.
//! Forward and backward each make one call to
//! [`tutel::overlap::exchange_bins`] over the capacity layout's
//! uniform bins, at [`ExecConfig::degree`] chunks per bin: chunk `i+1`'s
//! dispatch All-to-All is in flight on the comm threads while chunk
//! `i`'s expert FFN runs, and combines drain non-blockingly behind
//! the compute (Section 3.3's multi-stream pipelining, executed
//! rather than chunk-serial). Backward ships the gradient rows the
//! same way, in reverse. Overlap only reorders *when* exchanges
//! progress — every chunk's arithmetic is identical to the serial
//! path, so the conformance budgets are unchanged.

use tutel::overlap::exchange_bins;
use tutel_comm::runtime::{run_threaded, run_threaded_traced, Communicator};
use tutel_experts::ExpertsBlock;
use tutel_kernels::{fast_decode, fast_decode_backward, fast_encode_backward};
use tutel_obs::trace::{TraceHub, TRACK_MAIN};
use tutel_rt::with_parallelism_limit;
use tutel_serve::exec::{rank_blocks, shard_sum};
use tutel_simgpu::Topology;
use tutel_tensor::uniform_offsets;

use crate::reference::{gate_and_encode, gate_backward, Fixture, Problem, RankResult};
use crate::ExecConfig;

/// Runs the full forward + backward under `cfg` on every rank and
/// returns the per-rank results (index = rank). `cfg.dropless` is not
/// consulted: backward replays the forward's chunks, so this executor
/// always ships the capacity layout's uniform bins.
///
/// # Panics
///
/// Panics if any rank hits a communication error — conformance runs
/// are fault-free, so an error here is itself a conformance failure.
pub fn run_distributed(problem: &Problem, fixture: &Fixture, cfg: &ExecConfig) -> Vec<RankResult> {
    run_distributed_impl(problem, fixture, cfg, None)
}

/// [`run_distributed`] with every rank wired to a tracer from `hub`:
/// the run leaves a causal trace (main-track phase spans, the overlap
/// schedule's two streams, and cross-rank flow edges) on the hub's
/// shared timebase.
///
/// # Panics
///
/// As [`run_distributed`].
pub fn run_distributed_traced(
    problem: &Problem,
    fixture: &Fixture,
    cfg: &ExecConfig,
    hub: &TraceHub,
) -> Vec<RankResult> {
    run_distributed_impl(problem, fixture, cfg, Some(hub))
}

fn run_distributed_impl(
    problem: &Problem,
    fixture: &Fixture,
    cfg: &ExecConfig,
    hub: Option<&TraceHub>,
) -> Vec<RankResult> {
    assert_eq!(cfg.world, problem.world, "config/problem world mismatch");
    assert_eq!(
        Problem::CAPACITY % cfg.degree,
        0,
        "pipeline degree must divide capacity"
    );
    let topo = Topology::for_world(cfg.world);
    let cfg = *cfg;
    let program =
        move |comm| with_parallelism_limit(cfg.threads, || run_rank(problem, fixture, &cfg, comm));
    match hub {
        Some(hub) => run_threaded_traced(topo, hub, program),
        None => run_threaded(topo, program),
    }
}

fn run_rank(
    problem: &Problem,
    fixture: &Fixture,
    cfg: &ExecConfig,
    mut comm: Communicator,
) -> RankResult {
    let rank = comm.rank();
    let world = cfg.world;
    let (_, d_out) = &fixture.per_rank[rank];

    // Phase spans on the main track bound the causal trace's critical
    // path; the forward/backward exchanges inside them land on the
    // overlap stream tracks instead.
    let tracer = comm.tracer().clone();
    let _step = tracer.span(TRACK_MAIN, "step");

    // Gate + encode, rank-local and identical to the reference by
    // construction.
    let gate_t0 = tracer.now_us();
    let (probs, routing, enc) = gate_and_encode(problem, fixture, rank);
    let experts = rank_blocks(&fixture.experts, cfg.strategy, world, rank, Problem::SHARDS)
        .expect("E divisible by world, hidden dim by SHARDS");
    tracer.span_at(TRACK_MAIN, "gate_encode", gate_t0, tracer.now_us());

    // Forward: the (E, C, M) buffer is its uniform bins' packed rows.
    // Fresh block(s) per chunk, so forward activations stay cached
    // per chunk for the backward pass.
    let bins = uniform_offsets(problem.experts(), Problem::CAPACITY);
    let mut chunk_state: Vec<Vec<ExpertsBlock>> = Vec::with_capacity(cfg.degree);
    let combined = exchange_bins(
        &mut comm,
        cfg.algo,
        cfg.degree,
        &enc,
        &bins,
        |_, rows, offsets| {
            let mut blocks = experts.clone();
            let y = shard_sum(&mut blocks, |block| block.forward_grouped(rows, offsets));
            chunk_state.push(blocks);
            y
        },
    )
    .expect("fault-free overlapped forward")
    .expect("expert dims fixed");
    let decode_t0 = tracer.now_us();
    let output = fast_decode(&combined, &routing, Problem::TOKENS).expect("decode dims fixed");
    let aux = tutel_gate::aux_loss(&probs, &routing).expect("aux dims fixed");
    tracer.span_at(TRACK_MAIN, "decode", decode_t0, tracer.now_us());

    // Backward: the gradient rows retrace the same exchange, each
    // chunk through the block(s) that ran its forward.
    let (d_combined, d_gates) =
        fast_decode_backward(d_out, &combined, &routing).expect("decode backward dims fixed");
    let d_dispatched = exchange_bins(
        &mut comm,
        cfg.algo,
        cfg.degree,
        &d_combined,
        &bins,
        |i, d_rows, _| shard_sum(&mut chunk_state[i], |block| block.backward(d_rows)),
    )
    .expect("fault-free overlapped backward")
    .expect("expert backward dims fixed");
    let grad_t0 = tracer.now_us();
    let d_x_encode = fast_encode_backward(&d_dispatched, &routing, Problem::TOKENS)
        .expect("encode backward dims fixed");
    let d_x = gate_backward(fixture, rank, &probs, &routing, &d_gates, d_x_encode);
    tracer.span_at(TRACK_MAIN, "gate_backward", grad_t0, tracer.now_us());

    RankResult {
        output: output.as_slice().to_vec(),
        d_x: d_x.as_slice().to_vec(),
        aux,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::run_reference;
    use crate::{max_scaled_ulp, max_ulp, ulp_budget, AllToAllAlgo, Parallelism};

    #[test]
    fn p1_single_thread_is_bitwise_identical() {
        let problem = Problem { world: 2, seed: 5 };
        let fixture = problem.materialize();
        let reference = run_reference(&problem, &fixture);
        let cfg = ExecConfig {
            strategy: Parallelism::P1,
            algo: AllToAllAlgo::Linear,
            degree: 2,
            world: 2,
            threads: crate::reference::REF_THREADS,
            dropless: false,
        };
        let got = run_distributed(&problem, &fixture, &cfg);
        for (rank, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert_eq!(max_ulp(&g.output, &r.output), 0, "rank {rank} output");
            assert_eq!(max_ulp(&g.d_x, &r.d_x), 0, "rank {rank} d_x");
            assert_eq!(g.aux.to_bits(), r.aux.to_bits(), "rank {rank} aux");
        }
    }

    #[test]
    fn p2_stays_within_ulp_budget() {
        let problem = Problem { world: 2, seed: 9 };
        let fixture = problem.materialize();
        let reference = run_reference(&problem, &fixture);
        let cfg = ExecConfig {
            strategy: Parallelism::P2,
            algo: AllToAllAlgo::TwoDh,
            degree: 4,
            world: 2,
            threads: 4,
            dropless: false,
        };
        let got = run_distributed(&problem, &fixture, &cfg);
        let budget = f64::from(ulp_budget(&cfg));
        for (rank, (g, r)) in got.iter().zip(&reference).enumerate() {
            assert!(
                max_scaled_ulp(&g.output, &r.output) <= budget,
                "rank {rank} output exceeds budget: {} scaled ULP",
                max_scaled_ulp(&g.output, &r.output)
            );
            assert!(
                max_scaled_ulp(&g.d_x, &r.d_x) <= budget,
                "rank {rank} d_x exceeds budget: {} scaled ULP",
                max_scaled_ulp(&g.d_x, &r.d_x)
            );
            assert_eq!(g.aux.to_bits(), r.aux.to_bits(), "rank {rank} aux");
        }
    }
}
