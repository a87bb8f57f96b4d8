//! Micro-batch execution: one serving step — every rank runs the
//! product's rank program, [`tutel::step`], with the overlapped
//! dispatch → expert FFN → combine exchange as its expert stage — plus the sequential per-request reference executor the
//! differential oracle compares against ([`reference_rows`], written
//! out separately on the padded kernels so it shares nothing with the
//! step it judges).
//!
//! # The serving oracle contract
//!
//! Every operation on the serve path is **per-token-row**: router
//! logits, softmax, top-k selection, gate normalization, encode
//! (slot moves), the expert FFN (row-wise GEMMs), and decode (a
//! fixed-order k-sum per token). The only place a micro-batch could
//! couple one request's result to its batch-mates is capacity
//! clamping — so serving always routes **dropless**
//! ([`tutel_gate::CapacityPolicy::AutoMin`], see
//! [`crate::model::ModelDims::route_config`]). Under that policy, a
//! token's output is a function of its own row and the model alone,
//! and therefore:
//!
//! * P1 execution is **bitwise identical** to running the token's
//!   request by itself through [`reference_rows`], for any batch
//!   composition, pipeline degree, world size, or thread count;
//! * P2 re-associates one addition chain (the hidden-shard partial
//!   sum), so it is instead bounded by ≤ 4 scaled ULP.
//!
//! Capacity therefore never materializes on this path: a step ships
//! its exact routed bins through [`tutel::overlap::exchange_bins`]
//! (count header + rows on the wire, overlapped with the expert FFN at
//! `degree > 1`), so ranks need not agree on any buffer shape. The
//! padded `(E, C, M)` layout survives only in [`reference_rows`], the
//! oracle.
//!
//! # The plan is a value
//!
//! [`ExecConfig`] is the one spelling of an execution plan in the
//! workspace: its `strategy` is [`tutel_experts::Parallelism`]
//! (re-exported here as [`Strategy`]), its `algo` is
//! [`tutel_comm::AllToAllAlgo`], so what the parallelism router and the
//! pipeline search choose is written into it without conversion, and
//! the conformance harness enumerates this type rather than a copy.
//!
//! # Resident ranks
//!
//! A [`StepExecutor`] holds what outlives a step: a
//! [`tutel_comm::RankGroup`] (one parked OS thread per rank, each owning
//! its communicator) and every rank's expert blocks, which each rank
//! builds once with [`rank_blocks`] on its own thread. A step wakes the
//! ranks, runs the rank program on their prebuilt blocks and the
//! borrowed batch, and parks them again: no thread is spawned and no
//! weight is sliced. [`crate::Engine`] owns one executor for its life;
//! [`execute_step`] builds one, runs one step and drops it.
//!
//! After each step every rank audits its communicator. A collective
//! that failed, or a message nobody consumed, fails the step with
//! [`ServeError::Comm`] and leaves the group typed-dead, so every later
//! step returns the same error at once. A row that fails to gate does
//! not touch the communicator (its rank still walks the collectives),
//! so the next step runs as usual.

use tutel::overlap::exchange_bins;
use tutel::step;
use tutel_comm::runtime::{Communicator, ReliableConfig};
use tutel_comm::{AllToAllAlgo, RankGroup, Topology};
use tutel_experts::ExpertsBlock;
use tutel_gate::{route, RaggedRouting, Router};
use tutel_kernels::{fast_decode, fast_encode};
use tutel_obs::Telemetry;
use tutel_rt::with_parallelism_limit;
use tutel_tensor::Tensor;

use crate::model::ServeModel;
use crate::request::ServeError;

/// Expert-parallel strategy of the serving step — what
/// [`tutel::adaptive::InlineParallelismRouter::choose`] returns.
pub use tutel_experts::Parallelism as Strategy;
/// P1/P2 execution on one rank lives in `tutel_experts`.
pub use tutel_experts::{rank_blocks, shard_sum};

/// Knobs of the distributed serving step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// P1 or P2 expert parallelism.
    pub strategy: Strategy,
    /// All-to-All algorithm on the wire.
    pub algo: AllToAllAlgo,
    /// Pipeline degree: every expert bin is split into this many
    /// overlapped chunks.
    pub degree: usize,
    /// Simulated ranks; must equal the model's world.
    pub world: usize,
    /// Per-rank compute parallelism limit.
    pub threads: usize,
    /// **Ignored**: every step ships exact routed bins. The field
    /// stays only because the frozen benchmark's struct literal names
    /// it; nothing reads it.
    pub dropless: bool,
}

impl ExecConfig {
    /// Grid label, e.g. `P1/lin d2 w2`.
    pub fn label(&self) -> String {
        format!(
            "{}/{} d{} w{}",
            self.strategy.label(),
            self.algo.label(),
            self.degree,
            self.world
        )
    }
}

/// The topology for each simulated world size:
/// [`Topology::for_world`].
pub fn topology_for(world: usize) -> Topology {
    Topology::for_world(world)
}

/// What one rank's program returns: its flat output rows, its largest
/// expert bin, and its wire payload volume.
type RankResult = Result<(Vec<f32>, usize, u64), ServeError>;

/// What one executed step produced.
pub struct StepOutput {
    /// Per-token outputs `(B, model_dim)`, row `i` for batch row `i`.
    pub outputs: Tensor,
    /// The largest expert bin any rank routed this step.
    pub capacity: usize,
    /// Total `f32` elements all ranks pushed onto the wire as
    /// collective payload during the step.
    pub a2a_elems: u64,
}

/// Executes one micro-batch step over the threaded runtime.
///
/// Batch rows are dealt round-robin across ranks (row `i` to rank
/// `i mod world`; the batch is zero-padded up to a multiple of the
/// world size, and padded rows are dropped from the output). Each
/// rank gates and routes its own rows with the replicated router,
/// dropless, and ships its exact bins.
///
/// A one-shot [`StepExecutor`]: it is built, runs this one step and is
/// dropped, so its rank threads and rank blocks last one step. A caller
/// that steps repeatedly holds an executor instead, as
/// [`crate::Engine`] does.
///
/// # Errors
///
/// [`ServeError::Config`] for an empty batch or a config/model
/// mismatch; [`ServeError::Tensor`]/[`ServeError::Comm`] propagated
/// from execution. A row that gates to NaN fails the whole step with
/// [`ServeError::Tensor`]: the rank it was dealt to still completes the
/// step's collectives, so no peer is left waiting.
pub fn execute_step(
    model: &ServeModel,
    cfg: &ExecConfig,
    batch: &Tensor,
) -> Result<StepOutput, ServeError> {
    StepExecutor::new(model, *cfg, None)?.step(batch)
}

/// The resident step executor: one [`RankGroup`] and every rank's
/// expert blocks, both built once in [`StepExecutor::new`] and kept
/// for the executor's life, so a [`StepExecutor::step`] spawns no
/// thread and slices no weight.
///
/// The blocks cannot go stale: the executor borrows the model for its
/// whole life, so the borrow checker keeps the weights from changing
/// under it.
pub struct StepExecutor<'m> {
    model: &'m ServeModel,
    cfg: ExecConfig,
    /// `blocks[rank]`: [`rank_blocks`] of that rank.
    blocks: Vec<Vec<ExpertsBlock>>,
    group: RankGroup,
}

impl<'m> StepExecutor<'m> {
    /// Checks `cfg` against the model, spawns the rank group (with the
    /// reliability layer armed when `reliable` is given) and has every
    /// rank build its expert blocks on its own thread.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] for a config/model mismatch;
    /// [`ServeError::Tensor`] if the expert bank does not split.
    pub fn new(
        model: &'m ServeModel,
        cfg: ExecConfig,
        reliable: Option<ReliableConfig>,
    ) -> Result<Self, ServeError> {
        let dims = model.dims;
        if cfg.world != dims.world {
            return Err(ServeError::Config(format!(
                "exec world {} != model world {}",
                cfg.world, dims.world
            )));
        }
        if cfg.degree == 0 {
            return Err(ServeError::Config("pipeline degree must be nonzero".into()));
        }
        let mut group = RankGroup::new(topology_for(cfg.world), reliable, &Telemetry::disabled());
        let build = |comm: &mut Communicator| {
            with_parallelism_limit(cfg.threads, || {
                rank_blocks(
                    &model.experts,
                    cfg.strategy,
                    cfg.world,
                    comm.rank(),
                    dims.shards,
                )
            })
        };
        let blocks = group.run(&build)?.into_iter().collect::<Result<_, _>>()?;
        Ok(StepExecutor {
            model,
            cfg,
            blocks,
            group,
        })
    }

    /// Runs one micro-batch step on the resident ranks, as
    /// [`execute_step`] describes.
    ///
    /// # Errors
    ///
    /// As [`execute_step`]. A failure in the collectives leaves the
    /// rank group typed-dead: this step and every later one return
    /// [`ServeError::Comm`] with the first error. A failure of the rows
    /// themselves (a NaN row) does not: the next step runs.
    pub fn step(&mut self, batch: &Tensor) -> Result<StepOutput, ServeError> {
        let (model, cfg, blocks) = (self.model, self.cfg, &self.blocks);
        let m = model.dims.model_dim;
        let b = batch.dims().first().copied().unwrap_or(0);
        if b == 0 {
            return Err(ServeError::Config("empty micro-batch".into()));
        }
        if batch.dims() != [b, m] {
            return Err(ServeError::Config(format!(
                "batch dims {:?} != (B, {m})",
                batch.dims()
            )));
        }

        // Every rank serves the same row count; zero rows pad the tail.
        let world = cfg.world;
        let per_rank = b.div_ceil(world);
        let program = |comm: &mut Communicator| {
            let blocks = blocks.get(comm.rank()).map_or(&[][..], Vec::as_slice);
            with_parallelism_limit(cfg.threads, || {
                run_rank(model, &cfg, blocks, batch, per_rank, comm)
            })
        };
        let rank_results: Vec<RankResult> = self.group.run(&program)?;

        let mut outs = Vec::with_capacity(world);
        let mut capacity = 0usize;
        let mut a2a_elems = 0u64;
        for res in rank_results {
            let (out, cap, sent) = res?;
            capacity = capacity.max(cap);
            a2a_elems += sent;
            outs.push(out);
        }

        // Stitch rank outputs back round-robin and drop the padding rows.
        let mut stitched = vec![0.0f32; b * m];
        for (i, row) in stitched.chunks_mut(m).enumerate() {
            let rank = i % world;
            let local = i / world;
            let src = outs
                .get(rank)
                .and_then(|o| o.get(local * m..(local + 1) * m))
                .ok_or_else(|| ServeError::Config("rank output shorter than its rows".into()))?;
            row.copy_from_slice(src);
        }
        Ok(StepOutput {
            outputs: Tensor::from_vec(stitched, &[b, m])?,
            capacity,
            a2a_elems,
        })
    }
}

/// Deals `rank` its `(per_rank, M)` rows of the batch: global rows
/// `rank`, `rank + world`, `rank + 2·world`, … Past the batch's end a
/// zero row stands in: it routes deterministically (uniform gate), its
/// output is discarded, and under dropless routing it cannot perturb
/// any real row (see module docs).
fn rank_rows(
    batch: &Tensor,
    per_rank: usize,
    world: usize,
    rank: usize,
) -> Result<Tensor, ServeError> {
    let m = batch.dims().last().copied().unwrap_or(0);
    let mut rows = vec![0.0f32; per_rank * m];
    for (local, row) in rows.chunks_mut(m).enumerate() {
        let g = local * world + rank;
        if let Some(src) = batch.as_slice().get(g * m..(g + 1) * m) {
            row.copy_from_slice(src);
        }
    }
    Ok(Tensor::from_vec(rows, &[per_rank, m])?)
}

/// One rank's program: the product's step ([`tutel::step`]) over the
/// rank's rows with `exchange_bins(shard_sum ∘ infer_grouped)` over the
/// rank's prebuilt `blocks` as its expert stage — gate + dropless route
/// per row (identical to the reference by construction), encode, the
/// overlapped exchange, decode. Returns the rank's flat output rows,
/// its largest expert bin, and the wire payload volume it sent during
/// this step.
fn run_rank(
    model: &ServeModel,
    cfg: &ExecConfig,
    blocks: &[ExpertsBlock],
    batch: &Tensor,
    per_rank: usize,
    comm: &mut Communicator,
) -> RankResult {
    let (rank, dims) = (comm.rank(), model.dims);
    // The communicator's payload counter runs for the group's life.
    let sent_before = comm.sent_payload_elems();
    let mut x = rank_rows(batch, per_rank, cfg.world, rank)?;
    let (route_cfg, tel) = (dims.route_config(), Telemetry::disabled());
    // Gating is the one failure that depends on the rows this rank was
    // dealt (a NaN row). Its peers are already heading into the step's
    // collectives, so the rank joins them with no rows of its own and
    // fails the step afterwards.
    let mut failed = None;
    let gated = step::gate(&model.router, &x, &route_cfg, &tel).or_else(|e| {
        failed = Some(e);
        x = Tensor::zeros(&[0, dims.model_dim]);
        step::gate(&model.router, &x, &route_cfg, &tel)
    });
    let (probs, routing) = gated?;
    let bins = RaggedRouting::from_routing(&routing);
    let stepped = step::forward(&x, probs, routing, bins, &tel, |packed, offsets| {
        Ok::<_, ServeError>(exchange_bins(
            comm,
            cfg.algo,
            cfg.degree,
            packed,
            offsets,
            |_, rows, offsets| shard_sum(blocks, |block| block.infer_grouped(rows, offsets)),
        )??)
    });
    if let Some(e) = failed {
        return Err(e.into());
    }
    let (output, saved) = stepped?;
    let bins = &saved.bins;
    let largest_bin = (0..bins.experts).map(|e| bins.bin_len(e)).max();
    Ok((
        output.as_slice().to_vec(),
        largest_bin.unwrap_or(0),
        comm.sent_payload_elems() - sent_before,
    ))
}

/// The sequential per-request reference: the same gate → dropless
/// route → encode → global-expert FFN → decode chain with no
/// distribution at all. The differential oracle runs each request
/// through this alone and demands the batched engine reproduce it
/// per the module-level contract.
///
/// # Errors
///
/// [`ServeError::Tensor`] if `rows` does not match the model width.
pub fn reference_rows(model: &ServeModel, rows: &Tensor) -> Result<Tensor, ServeError> {
    let n = rows.dims().first().copied().unwrap_or(0);
    let probs = model.router.logits(rows)?.softmax_last();
    let routing = route(&probs, &model.dims.route_config())?;
    let enc = fast_encode(rows, &routing)?;
    let y = model.experts.infer(&enc)?;
    Ok(fast_decode(&y, &routing, n)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelDims;
    use tutel_tensor::Rng;

    fn batch(dims: &ModelDims, b: usize, seed: u64) -> Tensor {
        Rng::seed(seed).normal_tensor(&[b, dims.model_dim], 0.0, 1.0)
    }

    #[test]
    fn step_is_bitwise_against_the_reference() {
        // P1 at one thread: the exact-bin step and the solo reference
        // (padded kernels) must agree bit for bit — only the layout
        // differs. World 3 has no two-node shape; `Topology::for_world`
        // serves it on one node of three ranks (2DH's degenerate grid).
        for (world, model_seed, rows, batch_seed) in [(2, 7, 9, 11), (3, 13, 10, 17)] {
            let dims = ModelDims::small(world);
            assert_eq!(dims.local_experts, 2);
            let model = ServeModel::materialize(dims, model_seed).unwrap();
            let x = batch(&dims, rows, batch_seed);
            let expect = reference_rows(&model, &x).unwrap();
            for algo in AllToAllAlgo::ALL {
                for degree in [1, 2] {
                    let cfg = ExecConfig {
                        strategy: Strategy::P1,
                        algo,
                        degree,
                        world,
                        threads: 1,
                        dropless: true,
                    };
                    let got = execute_step(&model, &cfg, &x).unwrap();
                    assert_eq!(got.outputs.as_slice(), expect.as_slice(), "{}", cfg.label());
                }
            }
        }
    }

    #[test]
    fn a_nan_row_fails_the_step_on_every_rank_without_blocking() {
        // Only rank 1 is dealt the NaN row (row 3 of 9, world 2). It
        // must still walk through the exchange, or rank 0 waits for
        // it forever — and the resident group must come out of the
        // failed step ready for the next one. Run on a thread so a
        // hang fails the test instead of stalling the suite.
        use std::sync::mpsc;
        use std::time::{Duration, Instant};
        use tutel_comm::{CommError, FaultPlan, RetryPolicy};
        let dims = ModelDims::small(2);
        let good = batch(&dims, 9, 23);
        let mut nan = good.clone();
        nan.as_mut_slice()[3 * dims.model_dim] = f32::NAN;
        // ±inf logits: softmax subtracts the row maximum, inf − inf.
        let mut inf = good.clone();
        inf.as_mut_slice()[3 * dims.model_dim..4 * dims.model_dim].fill(f32::INFINITY);
        // Every rank dealt a bad row: nobody has rows left to ship.
        let mut all = nan.clone();
        all.as_mut_slice()[2 * dims.model_dim] = f32::NAN;
        let (tx, rx) = mpsc::channel();
        let (dead_tx, dead_rx) = mpsc::channel();
        std::thread::spawn(move || {
            let model = ServeModel::materialize(dims, 7).unwrap();
            let reference = reference_rows(&model, &good).unwrap();
            for strategy in [Strategy::P1, Strategy::P2] {
                for degree in [1, 2] {
                    let cfg = ExecConfig {
                        strategy,
                        algo: AllToAllAlgo::Linear,
                        degree,
                        world: 2,
                        threads: 1,
                        dropless: true,
                    };
                    // P2 re-associates the shard sum, so it is held to
                    // the one-shot step instead of the reference.
                    let expect = match strategy {
                        Strategy::P1 => reference.clone(),
                        Strategy::P2 => execute_step(&model, &cfg, &good).unwrap().outputs,
                    };
                    let mut exec = StepExecutor::new(&model, cfg, None).unwrap();
                    for x in [&nan, &good, &inf, &good, &all, &good] {
                        let got = exec.step(x).map(|out| out.outputs);
                        tx.send((
                            cfg.label(),
                            x.as_slice() == good.as_slice(),
                            got,
                            expect.clone(),
                        ))
                        .unwrap();
                    }
                }
            }
            // A failure in the collectives is different: a fault plan
            // that exhausts the retry budget fails the step with a
            // timeout and leaves the group typed-dead, so the next
            // step returns the same error without running a rank.
            let rel = ReliableConfig {
                policy: RetryPolicy {
                    timeout: Duration::from_millis(200),
                    max_retries: 0,
                    backoff: 2,
                },
                plan: Some(FaultPlan::new(3).with_drops(100)),
                telemetry: Telemetry::disabled(),
            };
            let cfg = ExecConfig {
                strategy: Strategy::P1,
                algo: AllToAllAlgo::Linear,
                degree: 2,
                world: 2,
                threads: 1,
                dropless: true,
            };
            let mut exec = StepExecutor::new(&model, cfg, Some(rel)).unwrap();
            let failed = exec.step(&good).map(|_| ());
            let started = Instant::now();
            let next = exec.step(&good).map(|_| ());
            dead_tx.send((failed, next, started.elapsed())).unwrap();
        });
        for _ in 0..24 {
            let (label, is_good, got, expect) = rx
                .recv_timeout(Duration::from_secs(60))
                .expect("a rank is blocked on a peer that failed to gate");
            match got {
                // The failed step leaves nothing behind on the group.
                Ok(out) if is_good => assert_eq!(out.as_slice(), expect.as_slice(), "{label}"),
                Err(ServeError::Tensor(e)) if !is_good => {
                    assert!(e.to_string().contains("NaN"), "{label}: {e}")
                }
                other => panic!("{label}: unexpected {:?}", other.map(|_| ())),
            }
        }
        let (failed, next, waited) = dead_rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a dead group blocked");
        let Err(ServeError::Comm(first @ CommError::Timeout { .. })) = failed else {
            panic!("expected a timeout, got {failed:?}");
        };
        match next {
            Err(ServeError::Comm(e)) => assert_eq!(e, first),
            other => panic!("expected the same timeout, got {other:?}"),
        }
        assert!(
            waited < Duration::from_millis(100),
            "the dead group waited {waited:?}"
        );
    }
}
