//! The distributed executor: the product's rank program
//! ([`tutel::step`]) run over the threaded `comm::runtime` under every
//! combination of strategy knobs — P1/P2 parallelism, linear/2DH
//! All-to-All, pipeline degree, world size and per-rank compute
//! thread limit — over the exact bins of the clamped routing, the
//! layout `MoeLayer` computes too. This is the *product* side of the
//! conformance matrix: it shares the [`Problem`]/[`Fixture`] data with
//! [`crate::reference`] and no code.
//!
//! Every rank is an OS thread with a real mailbox-based communicator.
//! The step's expert stage, forward and backward, is one call to
//! [`tutel::overlap::exchange_bins`] at [`ExecConfig::degree`] chunks
//! per bin: chunk `i+1`'s dispatch All-to-All is in flight on the comm
//! threads while chunk `i`'s expert FFN runs, and combines drain
//! non-blockingly behind the compute (Section 3.3's multi-stream
//! pipelining, executed rather than chunk-serial). Backward ships the
//! gradient rows the same way, in reverse. Overlap only reorders *when*
//! exchanges progress — every chunk's arithmetic is identical to the
//! serial path, so the conformance budgets are unchanged.

use tutel::overlap::exchange_bins;
use tutel::step;
use tutel_comm::runtime::Communicator;
use tutel_comm::{RankGroup, Topology};
use tutel_experts::{rank_blocks, shard_sum, ExpertsBlock};
use tutel_gate::{aux_loss, RaggedRouting};
use tutel_obs::trace::TRACK_MAIN;
use tutel_obs::Telemetry;
use tutel_rt::with_parallelism_limit;
use tutel_tensor::Tensor;

use crate::reference::{Fixture, Problem, RankResult};
use crate::ExecConfig;

/// Runs the full forward + backward under `cfg` on every rank and
/// returns the per-rank results (index = rank). Rank `r` records on
/// `tel.tracer(r)`: with an enabled handle the run leaves a causal
/// trace (main-track phase spans, the overlap schedule's two streams,
/// and cross-rank flow edges) on the handle's epoch.
///
/// # Panics
///
/// Panics if any rank hits a communication error — conformance runs
/// are fault-free, so an error here is itself a conformance failure.
pub fn run_distributed(
    problem: &Problem,
    fixture: &Fixture,
    cfg: &ExecConfig,
    tel: &Telemetry,
) -> Vec<RankResult> {
    assert_eq!(cfg.world, problem.world, "config/problem world mismatch");
    let topo = Topology::for_world(cfg.world);
    let cfg = *cfg;
    let program =
        move |comm| with_parallelism_limit(cfg.threads, || run_rank(problem, fixture, &cfg, comm));
    RankGroup::new(topo, None, tel).run_once(program)
}

fn run_rank(
    problem: &Problem,
    fixture: &Fixture,
    cfg: &ExecConfig,
    mut comm: Communicator,
) -> RankResult {
    let (rank, world) = (comm.rank(), cfg.world);
    let (x, d_out) = &fixture.per_rank[rank];
    let off = Telemetry::disabled();

    // Phase spans on the main track bound the causal trace's critical
    // path; the forward/backward exchanges between them land on the
    // overlap stream tracks instead.
    let tracer = comm.tracer().clone();
    let _step = tracer.span(TRACK_MAIN, "step");
    let mut phase_t0 = tracer.now_us();

    let experts = rank_blocks(&fixture.experts, cfg.strategy, world, rank, Problem::SHARDS)
        .expect("E divisible by world, hidden dim by SHARDS");
    // Fresh block(s) per chunk, so forward activations stay cached per
    // chunk for the backward pass (`None`: the chunk brought this rank
    // no rows, so neither pass computes it).
    let mut chunk_state: Vec<Option<Vec<ExpertsBlock>>> = vec![None; cfg.degree];
    let (probs, routing) =
        step::gate(&fixture.router, x, &problem.route_config(), &off).expect("gate dims fixed");
    let bins = RaggedRouting::from_routing(&routing);
    let (output, saved) = step::forward(x, probs, routing, bins, &off, |packed, offsets| {
        tracer.span_at(TRACK_MAIN, "gate_encode", phase_t0, tracer.now_us());
        let forward = |i: usize, rows: &Tensor, offsets: &[usize]| {
            let blocks = chunk_state[i].insert(experts.clone());
            shard_sum(blocks, |block| block.forward_grouped(rows, offsets))
        };
        let combined = exchange_bins(&mut comm, cfg.algo, cfg.degree, packed, offsets, forward)
            .expect("fault-free overlapped forward");
        phase_t0 = tracer.now_us();
        combined
    })
    .expect("forward dims fixed");
    let aux = aux_loss(&saved.probs, &saved.routing).expect("aux dims fixed");
    tracer.span_at(TRACK_MAIN, "decode", phase_t0, tracer.now_us());

    // Backward: the gradient rows retrace the same exchange, each
    // chunk through the block(s) that ran its forward. The shared
    // router is read-only; clone so gradient accumulation stays local
    // to this rank's execution.
    let offsets = saved.bins.offsets.clone();
    let mut router = fixture.router.clone();
    let aux_weight = Problem::AUX_WEIGHT;
    let d_x = step::backward(&mut router, x, saved, d_out, aux_weight, &off, |d_packed| {
        let backward = |i: usize, d_rows: &Tensor, _: &[usize]| {
            let blocks = chunk_state[i].as_mut().expect("forward ran this chunk");
            shard_sum(blocks, |block| block.backward(d_rows))
        };
        let d = exchange_bins(
            &mut comm, cfg.algo, cfg.degree, d_packed, &offsets, backward,
        )
        .expect("fault-free overlapped backward");
        phase_t0 = tracer.now_us();
        d
    })
    .expect("backward dims fixed");
    tracer.span_at(TRACK_MAIN, "gate_backward", phase_t0, tracer.now_us());

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

    // Both tests run the exact bins of a clamped routing that drops,
    // forward and backward, against the padded reference.

    /// Assignments the problem's clamp drops, over every rank.
    fn drops(problem: &Problem, fixture: &Fixture) -> usize {
        let (cfg, off) = (problem.route_config(), Telemetry::disabled());
        let gate = |x| step::gate(&fixture.router, x, &cfg, &off).unwrap();
        fixture
            .per_rank
            .iter()
            .map(|(x, _)| gate(x).1.dropped())
            .sum()
    }

    #[test]
    fn p1_single_thread_is_bitwise_identical() {
        let problem = Problem { world: 2, seed: 5 };
        let fixture = problem.materialize();
        let reference = run_reference(&problem, &fixture);
        assert!(drops(&problem, &fixture) > 0, "the clamp must drop");
        let cfg = ExecConfig {
            strategy: Parallelism::P1,
            algo: AllToAllAlgo::Linear,
            degree: 2,
            world: 2,
            threads: crate::reference::REF_THREADS,
            dropless: true,
        };
        let got = run_distributed(&problem, &fixture, &cfg, &Telemetry::disabled());
        for (rank, (g, r)) in got.iter().zip(&reference).enumerate() {
            let at = format!("rank {rank} ({})", cfg.label());
            assert_eq!(max_ulp(&g.output, &r.output), 0, "{at} output");
            assert_eq!(max_ulp(&g.d_x, &r.d_x), 0, "{at} d_x");
            assert_eq!(g.aux.to_bits(), r.aux.to_bits(), "{at} aux");
        }
    }

    #[test]
    fn p2_stays_within_ulp_budget() {
        let problem = Problem { world: 2, seed: 9 };
        let fixture = problem.materialize();
        let reference = run_reference(&problem, &fixture);
        assert!(drops(&problem, &fixture) > 0, "the clamp must drop");
        let cfg = ExecConfig {
            strategy: Parallelism::P2,
            algo: AllToAllAlgo::TwoDh,
            degree: 4,
            world: 2,
            threads: 4,
            dropless: true,
        };
        let got = run_distributed(&problem, &fixture, &cfg, &Telemetry::disabled());
        let budget = f64::from(ulp_budget(&cfg));
        for (rank, (g, r)) in got.iter().zip(&reference).enumerate() {
            let at = format!("rank {rank} ({})", cfg.label());
            assert!(
                max_scaled_ulp(&g.output, &r.output) <= budget,
                "{at} output exceeds budget: {} scaled ULP",
                max_scaled_ulp(&g.output, &r.output)
            );
            assert!(
                max_scaled_ulp(&g.d_x, &r.d_x) <= budget,
                "{at} d_x exceeds budget: {} scaled ULP",
                max_scaled_ulp(&g.d_x, &r.d_x)
            );
            assert_eq!(g.aux.to_bits(), r.aux.to_bits(), "{at} aux");
        }
    }
}
