//! Micro-batch execution: one serving step through the overlapped
//! dispatch → expert FFN → combine path, plus the sequential
//! per-request reference executor the differential oracle compares
//! against.
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
//! Capacity is only a **buffer shape**: each rank resolves its
//! dropless minimum, ranks agree on the global maximum (one
//! all-gather) padded up to a multiple of the pipeline degree, and
//! the padded slots stay zero — no token ever decodes from them.

use tutel::overlap::run_overlapped;
use tutel_comm::runtime::{run_threaded, run_threaded_reliable, Communicator, ReliableConfig};
use tutel_comm::AllToAllAlgo;
use tutel_experts::{ExpertsBlock, ShardedExpertParams};
use tutel_gate::{route, RaggedRouting, Router, Routing};
use tutel_kernels::{fast_decode, fast_encode, ragged_decode, ragged_encode};
use tutel_rt::with_parallelism_limit;
use tutel_simgpu::Topology;
use tutel_tensor::{Tensor, TensorError};

use crate::model::ServeModel;
use crate::request::ServeError;

/// Expert-parallel strategy for the serving step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// Each rank applies its experts' full parameters in one block.
    P1,
    /// Parameters sharded along the hidden dimension; per-shard
    /// partial outputs are summed (re-associates one addition chain).
    P2,
}

impl Strategy {
    /// Short label for grids and reports.
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::P1 => "P1",
            Strategy::P2 => "P2",
        }
    }
}

/// Knobs of the distributed serving step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// P1 or P2 expert parallelism.
    pub strategy: Strategy,
    /// All-to-All algorithm on the wire.
    pub algo: AllToAllAlgo,
    /// Pipeline degree: capacity is split into this many overlapped
    /// chunks.
    pub degree: usize,
    /// Simulated ranks; must equal the model's world.
    pub world: usize,
    /// Per-rank compute parallelism limit.
    pub threads: usize,
    /// Route the expert exchange through packed ragged bins and
    /// grouped GEMM — exact routed counts on the wire, no capacity
    /// padding anywhere. `false` keeps the padded capacity twin, which
    /// the harness diff-tests the grouped path against.
    pub dropless: bool,
}

impl ExecConfig {
    /// Grid label, e.g. `P1/lin d2 w2`.
    pub fn label(&self) -> String {
        let algo = match self.algo {
            AllToAllAlgo::Linear => "lin",
            AllToAllAlgo::TwoDh => "2dh",
        };
        format!(
            "{}/{} d{} w{}{}",
            self.strategy.label(),
            algo,
            self.degree,
            self.world,
            if self.dropless { " dl" } else { "" }
        )
    }
}

/// The topology for each simulated world size:
/// [`Topology::for_world`].
pub fn topology_for(world: usize) -> Topology {
    Topology::for_world(world)
}

/// What one rank's program returns: its flat output rows, the
/// reconciled capacity, and its wire payload volume.
type RankResult = Result<(Vec<f32>, usize, u64), ServeError>;

/// What one executed step produced.
pub struct StepOutput {
    /// Per-token outputs `(B, model_dim)`, row `i` for batch row `i`.
    pub outputs: Tensor,
    /// Shared expert capacity the step ran with (after degree
    /// padding).
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
/// dropless; capacity is reconciled globally so every rank's
/// All-to-All wires agree.
///
/// # Errors
///
/// [`ServeError::Config`] for an empty batch or a config/model
/// mismatch; [`ServeError::Tensor`]/[`ServeError::Comm`] propagated
/// from execution.
pub fn execute_step(
    model: &ServeModel,
    cfg: &ExecConfig,
    batch: &Tensor,
) -> Result<StepOutput, ServeError> {
    execute_step_with(model, cfg, batch, None)
}

/// [`execute_step`] with the comm reliability layer armed: sends are
/// logged for retransmission and `cfg_rel.plan` (if any) injects
/// seeded drop/duplicate/delay faults, which the retry protocol must
/// absorb without changing a single output bit.
///
/// # Errors
///
/// As [`execute_step`]; additionally [`ServeError::Comm`] with
/// [`tutel_comm::CommError::Timeout`] when the fault plan exhausts
/// the retry budget.
pub fn execute_step_reliable(
    model: &ServeModel,
    cfg: &ExecConfig,
    batch: &Tensor,
    cfg_rel: ReliableConfig,
) -> Result<StepOutput, ServeError> {
    execute_step_with(model, cfg, batch, Some(cfg_rel))
}

fn execute_step_with(
    model: &ServeModel,
    cfg: &ExecConfig,
    batch: &Tensor,
    cfg_rel: Option<ReliableConfig>,
) -> Result<StepOutput, ServeError> {
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
    let b = batch.dims().first().copied().unwrap_or(0);
    if b == 0 {
        return Err(ServeError::Config("empty micro-batch".into()));
    }
    if batch.dims() != [b, dims.model_dim] {
        return Err(ServeError::Config(format!(
            "batch dims {:?} != (B, {})",
            batch.dims(),
            dims.model_dim
        )));
    }

    // Zero-pad to a multiple of world so every rank serves the same
    // row count. A zero row routes deterministically (uniform gate)
    // and its output is discarded below; under dropless routing it
    // cannot perturb any real row (see module docs).
    let world = cfg.world;
    let bp = b.div_ceil(world) * world;
    let per_rank = bp / world;
    let mut padded = batch.as_slice().to_vec();
    padded.resize(bp * dims.model_dim, 0.0);
    let padded = Tensor::from_vec(padded, &[bp, dims.model_dim])?;

    let topo = topology_for(world);
    if topo.world_size() != world {
        return Err(ServeError::Config(format!(
            "topology world {} != {}",
            topo.world_size(),
            world
        )));
    }

    let cfg = *cfg;
    let model_ref = model;
    let padded_ref = &padded;
    let program = move |comm: Communicator| {
        with_parallelism_limit(cfg.threads, || {
            if cfg.dropless {
                run_rank_grouped(model_ref, &cfg, padded_ref, per_rank, comm)
            } else {
                run_rank(model_ref, &cfg, padded_ref, per_rank, comm)
            }
        })
    };
    let rank_results: Vec<RankResult> = match cfg_rel {
        None => run_threaded(topo, program),
        Some(rel) => run_threaded_reliable(topo, rel, program),
    };

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
    let m = dims.model_dim;
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

/// The prologue shared by the padded and the dropless rank program:
/// deal this rank its rows `(per_rank, M)` — global rows `rank`,
/// `rank + world`, `rank + 2·world`, … — gate + route them dropless
/// (per-row, identical to the reference by construction), and build
/// the expert block(s) the strategy executes here.
fn rank_setup(
    model: &ServeModel,
    cfg: &ExecConfig,
    padded: &Tensor,
    per_rank: usize,
    rank: usize,
) -> Result<(Tensor, Routing, Vec<ExpertsBlock>), ServeError> {
    let dims = model.dims;
    let m = dims.model_dim;
    let mut rows = Vec::with_capacity(per_rank * m);
    let src = padded.as_slice();
    for local in 0..per_rank {
        let g = local * cfg.world + rank;
        rows.extend_from_slice(&src[g * m..(g + 1) * m]);
    }
    let x = Tensor::from_vec(rows, &[per_rank, m])?;
    let probs = model.router.logits(&x)?.softmax_last();
    let routing = route(&probs, &dims.route_config())?;
    let blocks = rank_blocks(&model.experts, cfg.strategy, cfg.world, rank, dims.shards)?;
    Ok((x, routing, blocks))
}

/// The expert block(s) `strategy` executes on `rank` of `world`: the
/// rank's slice of the global `bank` in one block under P1, or that
/// slice's `shards` hidden-dimension shards under P2 (their partial
/// outputs are summed by [`shard_sum`]).
///
/// # Errors
///
/// Returns a [`TensorError`] if `world` does not divide the expert
/// count or `shards` the hidden dimension.
pub fn rank_blocks(
    bank: &ExpertsBlock,
    strategy: Strategy,
    world: usize,
    rank: usize,
    shards: usize,
) -> Result<Vec<ExpertsBlock>, TensorError> {
    let local = bank.rank_slice(world, rank)?;
    Ok(match strategy {
        Strategy::P1 => vec![local],
        Strategy::P2 => {
            let params = ShardedExpertParams::from_block(&local, shards)?;
            (0..params.shards())
                .map(|r| params.shard_block(r))
                .collect()
        }
    })
}

/// Applies `apply` to every block and sums the results in block
/// (= shard) order — P2's one re-associated addition chain; under P1
/// the single block's result passes through untouched.
///
/// # Errors
///
/// Propagates `apply`'s error; [`TensorError::InvalidArgument`] for
/// an empty block list.
pub fn shard_sum<B>(
    blocks: impl IntoIterator<Item = B>,
    mut apply: impl FnMut(B) -> Result<Tensor, TensorError>,
) -> Result<Tensor, TensorError> {
    let mut acc: Option<Tensor> = None;
    for block in blocks {
        let y = apply(block)?;
        acc = Some(match acc {
            None => y,
            Some(mut a) => {
                a.axpy(1.0, &y)?;
                a
            }
        });
    }
    acc.ok_or_else(|| TensorError::InvalidArgument("strategy produced no expert blocks".into()))
}

/// One rank's program: gate + route its rows, reconcile capacity,
/// drive the overlapped exchange, decode. Returns the rank's flat
/// output rows, the reconciled capacity, and its wire payload volume.
fn run_rank(
    model: &ServeModel,
    cfg: &ExecConfig,
    padded: &Tensor,
    per_rank: usize,
    mut comm: Communicator,
) -> RankResult {
    let dims = model.dims;
    let world = cfg.world;
    let m = dims.model_dim;
    let (x, mut routing, blocks) = rank_setup(model, cfg, padded, per_rank, comm.rank())?;

    // Reconcile capacity: ranks must agree on the wire shape. The
    // shared value is the max of the per-rank dropless minima, padded
    // to a multiple of the pipeline degree. Raising capacity after
    // routing is safe: dropless slot assignment never clamped, so
    // every assigned slot stays valid and new slots stay empty.
    let local_cap = routing.capacity;
    let global_cap = if world > 1 {
        let gathered = comm.all_gather(&[local_cap as f32])?;
        gathered
            .iter()
            .fold(local_cap, |acc, &c| acc.max(c as usize))
    } else {
        local_cap
    };
    let capacity = global_cap.div_ceil(cfg.degree) * cfg.degree;
    routing.capacity = capacity;
    let cc = capacity / cfg.degree;

    let enc = fast_encode(&x, &routing)?;
    let enc_chunks = enc.split_axis(1, cfg.degree)?;
    let enc_wire: Vec<Vec<f32>> = enc_chunks.iter().map(|c| c.as_slice().to_vec()).collect();

    // The overlap engine wants an infallible chunk-compute closure;
    // shape errors (impossible once dims validated, but typed anyway)
    // are parked here and surfaced after the exchange drains, with a
    // zero chunk keeping the collective protocol in lock-step.
    let wire_len = world * dims.local_experts * cc * m;
    let mut parked: Option<TensorError> = None;
    let run = run_overlapped(
        &mut comm,
        cfg.algo,
        &enc_wire,
        |_, received| match compute_chunk(model, &blocks, received, world, cc) {
            Ok(wire) => wire,
            Err(e) => {
                parked.get_or_insert(e);
                vec![0.0; wire_len]
            }
        },
    )?;
    if let Some(e) = parked {
        return Err(ServeError::Tensor(e));
    }

    let mut out_chunks = Vec::with_capacity(cfg.degree);
    for wire in run.combined {
        out_chunks.push(Tensor::from_vec(
            wire,
            &[dims.local_experts * world, cc, m],
        )?);
    }
    let combined = Tensor::concat_axis(&out_chunks, 1)?;
    let output = fast_decode(&combined, &routing, per_rank)?;
    Ok((
        output.as_slice().to_vec(),
        capacity,
        comm.sent_payload_elems(),
    ))
}

/// One rank's **dropless** program: route, pack ragged bins, exchange
/// the exact routed rows over flexible (v-) All-to-Alls, grouped-GEMM
/// the received bins, exchange back, decode. Capacity never
/// materializes — the wire carries an `offsets`-shaped count header
/// plus the rows themselves, not `E·C` padded slabs, so payloads
/// shrink to the routed token counts and a hot expert costs only its
/// own rows.
///
/// The pipeline degree splits every expert bin into `degree`
/// deterministic sub-ranges and runs one blocking v-exchange per
/// sub-range: overlap changes *when* rows move, never what they hold,
/// and each output row's GEMM accumulation order is independent of
/// its bin-mates, so the padded twin's bitwise contract carries over
/// unchanged. The returned "capacity" is the rank's largest routed
/// bin — the shape the padded twin would have inflated every expert
/// to.
fn run_rank_grouped(
    model: &ServeModel,
    cfg: &ExecConfig,
    padded: &Tensor,
    per_rank: usize,
    mut comm: Communicator,
) -> RankResult {
    let dims = model.dims;
    let world = cfg.world;
    let m = dims.model_dim;
    let le = dims.local_experts;

    // No capacity reconciliation — ranks don't need to agree on any
    // buffer shape, only on the v-payloads they exchange, and those
    // carry their own counts.
    let (x, routing, blocks) = rank_setup(model, cfg, padded, per_rank, comm.rank())?;
    let ragged = RaggedRouting::from_routing(&routing);
    let enc = ragged_encode(&x, &routing, &ragged)?;
    let es = enc.as_slice();

    // Chunk c of bin e: the deterministic sub-range
    // [len·c/D, len·(c+1)/D) of the bin's packed rows.
    let bin_chunk = |e: usize, c: usize| -> (usize, usize) {
        let s = ragged.offsets[e];
        let len = ragged.offsets[e + 1] - s;
        (s + len * c / cfg.degree, s + len * (c + 1) / cfg.degree)
    };

    let mut y_packed = vec![0.0f32; ragged.total() * m];
    for c in 0..cfg.degree {
        // Outbound: rank d receives a header of its `le` bin-chunk
        // row counts (f32-exact below 2^24) followed by the rows,
        // expert-major.
        let sends: Vec<Vec<f32>> = (0..world)
            .map(|d| {
                let mut buf = Vec::new();
                for e in d * le..(d + 1) * le {
                    let (s, t) = bin_chunk(e, c);
                    buf.push((t - s) as f32);
                }
                for e in d * le..(d + 1) * le {
                    let (s, t) = bin_chunk(e, c);
                    buf.extend_from_slice(&es[s * m..t * m]);
                }
                buf
            })
            .collect();
        let recvd = match cfg.algo {
            AllToAllAlgo::Linear => comm.all_to_all_v(&sends)?,
            AllToAllAlgo::TwoDh => comm.all_to_all_v_2dh(&sends)?,
        };

        // Regroup the (src, expert) segments into per-expert bins in
        // source order and grouped-GEMM them with this rank's blocks.
        let mut seg_len = vec![vec![0usize; le]; world];
        for (s_rank, buf) in recvd.iter().enumerate() {
            for e in 0..le {
                seg_len[s_rank][e] = buf[e] as usize;
            }
        }
        let mut offsets = vec![0usize; le + 1];
        for e in 0..le {
            offsets[e + 1] = offsets[e] + (0..world).map(|s| seg_len[s][e]).sum::<usize>();
        }
        let total = offsets[le];

        let back: Vec<Vec<f32>> = if total == 0 {
            // Nothing routed here this chunk (possible under heavy
            // skew): keep the collective in lock-step with empties.
            vec![Vec::new(); world]
        } else {
            let mut gx = vec![0.0f32; total * m];
            // place[s][e]: packed row where src s's expert-e segment
            // landed — the return trip reads it back out.
            let mut place = vec![vec![0usize; le]; world];
            let mut at = 0usize;
            for e in 0..le {
                for (s_rank, buf) in recvd.iter().enumerate() {
                    let skip: usize = seg_len[s_rank][..e].iter().sum();
                    let n = seg_len[s_rank][e];
                    let from = le + skip * m;
                    gx[at * m..(at + n) * m].copy_from_slice(&buf[from..from + n * m]);
                    place[s_rank][e] = at;
                    at += n;
                }
            }
            let gx_t = Tensor::from_vec(gx, &[total, m])?;
            let y_t = shard_sum(&blocks, |block| block.infer_grouped(&gx_t, &offsets))?;
            let ys = y_t.as_slice();
            (0..world)
                .map(|s_rank| {
                    let mut buf = Vec::new();
                    for e in 0..le {
                        let at = place[s_rank][e];
                        let n = seg_len[s_rank][e];
                        buf.extend_from_slice(&ys[at * m..(at + n) * m]);
                    }
                    buf
                })
                .collect()
        };

        let returned = match cfg.algo {
            AllToAllAlgo::Linear => comm.all_to_all_v(&back)?,
            AllToAllAlgo::TwoDh => comm.all_to_all_v_2dh(&back)?,
        };
        for (d, buf) in returned.iter().enumerate() {
            let mut at = 0usize;
            for e in d * le..(d + 1) * le {
                let (s, t) = bin_chunk(e, c);
                let n = (t - s) * m;
                y_packed[s * m..t * m].copy_from_slice(&buf[at..at + n]);
                at += n;
            }
        }
    }

    let y_t = Tensor::from_vec(y_packed, &[ragged.total(), m])?;
    let output = ragged_decode(&y_t, &routing, &ragged, per_rank)?;
    let eff_cap = (0..routing.experts)
        .map(|e| ragged.bin_len(e))
        .max()
        .unwrap_or(0);
    Ok((
        output.as_slice().to_vec(),
        eff_cap,
        comm.sent_payload_elems(),
    ))
}

/// Expert-side compute for one pipeline chunk: rebuild the
/// `(ΔE, W·cc, M)` batch from the origin-major wire, apply the
/// executing rank's expert blocks (one full block under P1, one per
/// hidden shard under P2, partials summed in shard order), and lay
/// the result back out rank-major for the return exchange.
fn compute_chunk(
    model: &ServeModel,
    blocks: &[ExpertsBlock],
    received: Vec<f32>,
    world: usize,
    cc: usize,
) -> Result<Vec<f32>, TensorError> {
    let dims = model.dims;
    let m = dims.model_dim;
    let flex = Tensor::from_vec(received, &[world, dims.local_experts, cc, m])?
        .permute(&[1, 0, 2, 3])?
        .reshape(&[dims.local_experts, world * cc, m])?;
    shard_sum(blocks, |block| block.infer(&flex))?
        .reshape(&[dims.local_experts, world, cc, m])?
        .permute(&[1, 0, 2, 3])
        .map(|t| t.as_slice().to_vec())
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
    fn grouped_step_matches_padded_twin_and_reference_bitwise() {
        // P1 at one thread: the dropless grouped step, the padded
        // capacity twin, and the solo reference must agree bit for
        // bit — only the wire layout differs.
        let dims = ModelDims::small(2);
        let model = ServeModel::materialize(dims, 7).unwrap();
        let x = batch(&dims, 9, 11);
        let expect = reference_rows(&model, &x).unwrap();
        for algo in [AllToAllAlgo::Linear, AllToAllAlgo::TwoDh] {
            for degree in [1, 2] {
                let mut cfg = ExecConfig {
                    strategy: Strategy::P1,
                    algo,
                    degree,
                    world: 2,
                    threads: 1,
                    dropless: true,
                };
                let grouped = execute_step(&model, &cfg, &x).unwrap();
                cfg.dropless = false;
                let padded = execute_step(&model, &cfg, &x).unwrap();
                assert_eq!(
                    grouped.outputs.as_slice(),
                    expect.as_slice(),
                    "grouped vs reference ({})",
                    cfg.label()
                );
                assert_eq!(
                    grouped.outputs.as_slice(),
                    padded.outputs.as_slice(),
                    "grouped vs padded twin ({})",
                    cfg.label()
                );
            }
        }
    }

    #[test]
    fn grouped_step_moves_fewer_wire_elements_than_padded() {
        // The point of the exercise: exact routed counts on the wire.
        // Header overhead is a few f32 per (peer, chunk); the padded
        // twin ships E·C·M slabs regardless of routing.
        let dims = ModelDims::small(4);
        let model = ServeModel::materialize(dims, 3).unwrap();
        let x = batch(&dims, 32, 5);
        let mut cfg = ExecConfig {
            strategy: Strategy::P1,
            algo: AllToAllAlgo::Linear,
            degree: 1,
            world: 4,
            threads: 1,
            dropless: true,
        };
        let grouped = execute_step(&model, &cfg, &x).unwrap();
        cfg.dropless = false;
        let padded = execute_step(&model, &cfg, &x).unwrap();
        assert_eq!(grouped.outputs.as_slice(), padded.outputs.as_slice());
        assert!(
            grouped.a2a_elems < padded.a2a_elems,
            "grouped wire {} !< padded wire {}",
            grouped.a2a_elems,
            padded.a2a_elems
        );
    }
}
