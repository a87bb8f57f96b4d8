//! The only module that names the repo's crates.
//!
//! Every call the benchmark makes into `tensor`, `rt`, `gate`,
//! `kernels`, `experts`, `comm`, `core`, `serve` and `obs` goes through
//! a function or re-export here, so a later benchmark issue can
//! re-point a renamed entry in one place. The wrappers add nothing but
//! a common error type; `README.md` tables the public functions used.

use std::fmt::Display;

pub use tutel::{MoeConfig, MoeLayer, MoeOutput};
pub use tutel_comm::runtime::Communicator;
pub use tutel_comm::AllToAllAlgo;
pub use tutel_experts::ExpertsBlock;
pub use tutel_gate::{LinearRouter, RaggedRouting, RouteConfig, Routing};
pub use tutel_obs::json::Value as Json;
pub use tutel_obs::Telemetry;
pub use tutel_rt::{ArenaStats, PoolStats};
pub use tutel_serve::{
    BatcherConfig, ContinuousBatcher, Engine, EngineConfig, ExecConfig, IngressQueue, ModelDims,
    Request, ServeModel, ServeReport, ServiceModel, Strategy,
};
pub use tutel_tensor::Tensor;

use tutel_gate::Router;

/// Every adapter failure, rendered: the benchmark counts it and moves on.
pub type Res<T> = Result<T, String>;

fn err<E: Display>(e: E) -> String {
    e.to_string()
}

// --- tensor -----------------------------------------------------------

/// `Tensor::from_vec`.
pub fn tensor(data: Vec<f32>, dims: &[usize]) -> Res<Tensor> {
    Tensor::from_vec(data, dims).map_err(err)
}

/// `Tensor::matmul`.
pub fn matmul(a: &Tensor, b: &Tensor) -> Res<Tensor> {
    a.matmul(b).map_err(err)
}

/// `tutel_tensor::grouped_gemm`: `out += a · b` over CSR row bins.
pub fn grouped_gemm(a: &[f32], b: &[f32], out: &mut [f32], offsets: &[usize], k: usize, n: usize) {
    tutel_tensor::grouped_gemm(a, b, out, offsets, k, n);
}

/// `Tensor::softmax_last`.
pub fn softmax_last(t: &Tensor) -> Tensor {
    t.softmax_last()
}

/// `Tensor::axpy`.
pub fn axpy(acc: &mut Tensor, alpha: f32, rhs: &Tensor) -> Res<()> {
    acc.axpy(alpha, rhs).map_err(err)
}

/// The SIMD kernel table actually selected (`TUTEL_SIMD` + detection).
pub fn simd_label() -> &'static str {
    tutel_tensor::simd_mode().label()
}

// --- rt ---------------------------------------------------------------

/// `arena().stats()`.
pub fn arena_stats() -> ArenaStats {
    tutel_rt::arena().stats()
}

/// `arena().clear()`: drops every retained buffer, so a repeated
/// set-up starts as cold as the first.
pub fn arena_clear() {
    tutel_rt::arena().clear();
}

/// `pool_stats()`.
pub fn pool_stats() -> PoolStats {
    tutel_rt::pool_stats()
}

/// `with_parallelism_limit`.
pub fn with_parallelism_limit<R>(limit: usize, body: impl FnOnce() -> R) -> R {
    tutel_rt::with_parallelism_limit(limit, body)
}

// --- gate -------------------------------------------------------------

/// A `LinearRouter` holding `weights (M, E)`.
pub fn router_from_weights(weights: &Tensor) -> Res<LinearRouter> {
    let (m, e) = (weights.dims()[0], weights.dims()[1]);
    let mut router = LinearRouter::new(m, e, &mut tutel_tensor::Rng::seed(0));
    router.set_weights(weights.clone()).map_err(err)?;
    Ok(router)
}

/// `Router::logits`.
pub fn router_logits(router: &LinearRouter, x: &Tensor) -> Res<Tensor> {
    router.logits(x).map_err(err)
}

/// `tutel_gate::route`.
pub fn route(probs: &Tensor, cfg: &RouteConfig) -> Res<Routing> {
    tutel_gate::route(probs, cfg).map_err(err)
}

/// `RaggedRouting::from_routing`.
pub fn ragged_from_routing(routing: &Routing) -> RaggedRouting {
    RaggedRouting::from_routing(routing)
}

// --- kernels ----------------------------------------------------------

/// `fast_encode`.
pub fn fast_encode(x: &Tensor, routing: &Routing) -> Res<Tensor> {
    tutel_kernels::fast_encode(x, routing).map_err(err)
}

/// `fast_decode`.
pub fn fast_decode(y: &Tensor, routing: &Routing, tokens: usize) -> Res<Tensor> {
    tutel_kernels::fast_decode(y, routing, tokens).map_err(err)
}

/// `fast_encode_backward`.
pub fn fast_encode_backward(d: &Tensor, routing: &Routing, tokens: usize) -> Res<Tensor> {
    tutel_kernels::fast_encode_backward(d, routing, tokens).map_err(err)
}

/// `fast_decode_backward`; the gate gradients are dropped.
pub fn fast_decode_backward(d_out: &Tensor, y: &Tensor, routing: &Routing) -> Res<Tensor> {
    tutel_kernels::fast_decode_backward(d_out, y, routing)
        .map(|(d, _)| d)
        .map_err(err)
}

/// `ragged_encode`.
pub fn ragged_encode(x: &Tensor, routing: &Routing, ragged: &RaggedRouting) -> Res<Tensor> {
    tutel_kernels::ragged_encode(x, routing, ragged).map_err(err)
}

/// `ragged_decode`.
pub fn ragged_decode(
    y: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tokens: usize,
) -> Res<Tensor> {
    tutel_kernels::ragged_decode(y, routing, ragged, tokens).map_err(err)
}

/// `ragged_encode_backward`.
pub fn ragged_encode_backward(
    d: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
    tokens: usize,
) -> Res<Tensor> {
    tutel_kernels::ragged_encode_backward(d, routing, ragged, tokens).map_err(err)
}

/// `ragged_decode_backward`; the gate gradients are dropped.
pub fn ragged_decode_backward(
    d_out: &Tensor,
    y: &Tensor,
    routing: &Routing,
    ragged: &RaggedRouting,
) -> Res<Tensor> {
    tutel_kernels::ragged_decode_backward(d_out, y, routing, ragged)
        .map(|(d, _)| d)
        .map_err(err)
}

// --- experts ----------------------------------------------------------

/// `ExpertsBlock::from_weights`.
pub fn experts_from_weights(w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Res<ExpertsBlock> {
    ExpertsBlock::from_weights(w1, b1, w2, b2).map_err(err)
}

/// `ExpertsBlock::forward`.
pub fn experts_forward(block: &mut ExpertsBlock, x: &Tensor) -> Res<Tensor> {
    block.forward(x).map_err(err)
}

/// `ExpertsBlock::backward`.
pub fn experts_backward(block: &mut ExpertsBlock, d_y: &Tensor) -> Res<Tensor> {
    block.backward(d_y).map_err(err)
}

/// `ExpertsBlock::infer`.
pub fn experts_infer(block: &ExpertsBlock, x: &Tensor) -> Res<Tensor> {
    block.infer(x).map_err(err)
}

/// `ExpertsBlock::forward_grouped`.
pub fn experts_forward_grouped(
    block: &mut ExpertsBlock,
    x: &Tensor,
    offsets: &[usize],
) -> Res<Tensor> {
    block.forward_grouped(x, offsets).map_err(err)
}

/// `ExpertsBlock::backward_grouped`.
pub fn experts_backward_grouped(block: &mut ExpertsBlock, d_y: &Tensor) -> Res<Tensor> {
    block.backward_grouped(d_y).map_err(err)
}

/// `ExpertsBlock::infer_grouped`.
pub fn experts_infer_grouped(block: &ExpertsBlock, x: &Tensor, offsets: &[usize]) -> Res<Tensor> {
    block.infer_grouped(x, offsets).map_err(err)
}

/// `ExpertsBlock::weights().0`: the first-layer weights `(E, M, V)`.
pub fn experts_w1(block: &ExpertsBlock) -> &Tensor {
    block.weights().0
}

/// What `serve::exec` rebuilds per rank per step: the rank's slice of
/// the global expert bank (`Tensor::split_axis` +
/// `ExpertsBlock::from_weights`) and, under P2, its hidden-dimension
/// shards (`ShardedExpertParams::from_block` + `shard_block`).
pub fn rank_blocks(model: &ServeModel, rank: usize, p2: bool) -> Res<Vec<ExpertsBlock>> {
    let (w1, b1, w2, b2) = model.experts.weights();
    let slice = |t: &Tensor| -> Res<Tensor> {
        Ok(t.split_axis(0, model.dims.world).map_err(err)?[rank].clone())
    };
    let local = experts_from_weights(slice(w1)?, slice(b1)?, slice(w2)?, slice(b2)?)?;
    if !p2 {
        return Ok(vec![local]);
    }
    let params =
        tutel_experts::ShardedExpertParams::from_block(&local, model.dims.shards).map_err(err)?;
    Ok((0..params.shards())
        .map(|r| params.shard_block(r))
        .collect())
}

// --- comm -------------------------------------------------------------

/// `run_threaded` over the topology `serve::exec` uses for `world`.
pub fn run_threaded<R: Send>(
    world: usize,
    program: impl Fn(Communicator) -> R + Send + Sync,
) -> Vec<R> {
    tutel_comm::run_threaded(tutel_serve::exec::topology_for(world), program)
}

/// `Communicator::all_to_all_v` or `all_to_all_v_2dh`, by `algo`.
pub fn all_to_all_v(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    sends: &[Vec<f32>],
) -> Res<Vec<Vec<f32>>> {
    match algo {
        AllToAllAlgo::Linear => comm.all_to_all_v(sends),
        AllToAllAlgo::TwoDh => comm.all_to_all_v_2dh(sends),
    }
    .map_err(err)
}

// --- core -------------------------------------------------------------

/// `MoeLayer::new` from a seed.
pub fn layer_new(cfg: &MoeConfig, seed: u64) -> Res<MoeLayer> {
    MoeLayer::new(cfg, &mut tutel_tensor::Rng::seed(seed)).map_err(err)
}

/// `MoeLayer::forward`.
pub fn layer_forward(layer: &mut MoeLayer, x: &Tensor) -> Res<MoeOutput> {
    layer.forward(x).map_err(err)
}

/// `MoeLayer::backward`.
pub fn layer_backward(layer: &mut MoeLayer, d_out: &Tensor) -> Res<Tensor> {
    layer.backward(d_out).map_err(err)
}

/// `MoeLayer::step`.
pub fn layer_step(layer: &mut MoeLayer, lr: f32) {
    layer.step(lr);
}

/// `MoeLayer::infer_with`.
pub fn layer_infer_with(layer: &MoeLayer, x: &Tensor, capacity_factor: f64) -> Res<MoeOutput> {
    layer.infer_with(x, capacity_factor).map_err(err)
}

/// `MoeLayer::set_telemetry`.
pub fn layer_set_telemetry(layer: &mut MoeLayer, tel: Telemetry) {
    layer.set_telemetry(tel);
}

/// A copy of the layer's current router and experts
/// (`MoeLayer::export_state`), so a replay runs the stages on the
/// weights the real step used.
pub fn layer_parts(layer: &MoeLayer) -> Res<(LinearRouter, ExpertsBlock)> {
    let mut sd = tutel::checkpoint::StateDict::default();
    layer.export_state("l", &mut sd);
    let mut get = |name: &str| -> Res<Tensor> {
        sd.take(&format!("l.{name}"))
            .ok_or_else(|| format!("layer state has no {name}"))
    };
    let router = router_from_weights(&get("router.weight")?)?;
    let experts = experts_from_weights(
        get("experts.w1")?,
        get("experts.b1")?,
        get("experts.w2")?,
        get("experts.b2")?,
    )?;
    Ok((router, experts))
}

// --- serve ------------------------------------------------------------

/// `ServeModel::materialize`.
pub fn serve_model(dims: ModelDims, seed: u64) -> Res<ServeModel> {
    ServeModel::materialize(dims, seed).map_err(err)
}

/// `Engine::new`.
pub fn engine_new<'a>(
    model: &'a ServeModel,
    cfg: &EngineConfig,
    tel: &'a Telemetry,
) -> Res<Engine<'a>> {
    Engine::new(model, cfg, tel).map_err(err)
}

/// `Engine::pump`.
pub fn engine_pump(engine: &mut Engine<'_>) -> Res<bool> {
    engine.pump().map_err(err)
}

/// `Engine::submit`.
pub fn engine_submit(engine: &mut Engine<'_>, req: Request) {
    engine.submit(req);
}

/// `Engine::completed_last_pump`.
pub fn engine_completed<'e>(engine: &'e Engine<'_>) -> &'e [u64] {
    engine.completed_last_pump()
}

/// `Engine::now_us`: the engine's virtual clock.
pub fn engine_now_us(engine: &Engine<'_>) -> u64 {
    engine.now_us()
}

/// `Engine::finish`.
pub fn engine_finish(engine: Engine<'_>) -> ServeReport {
    engine.finish()
}

/// `execute_step`; returns the outputs and the wire payload volume.
pub fn execute_step(model: &ServeModel, cfg: &ExecConfig, batch: &Tensor) -> Res<(Tensor, u64)> {
    tutel_serve::execute_step(model, cfg, batch)
        .map(|o| (o.outputs, o.a2a_elems))
        .map_err(err)
}

/// `reference_rows`: the sequential per-request oracle.
pub fn reference_rows(model: &ServeModel, rows: &Tensor) -> Res<Tensor> {
    tutel_serve::reference_rows(model, rows).map_err(err)
}

/// A `Request` of `tokens (n, M)` arriving at virtual time `arrival_us`.
pub fn request(id: u64, tokens: Tensor, arrival_us: u64, deadline_us: u64) -> Request {
    Request {
        id,
        tokens,
        arrival_us,
        deadline_us,
    }
}

/// `ModelDims::route_config`: the dropless routing serving always uses.
pub fn serve_route_config(model: &ServeModel) -> RouteConfig {
    model.dims.route_config()
}

/// `ContinuousBatcher::new`.
pub fn batcher_new(cfg: BatcherConfig) -> ContinuousBatcher {
    ContinuousBatcher::new(cfg)
}

/// `ContinuousBatcher::offer`.
pub fn batcher_offer(
    b: &mut ContinuousBatcher,
    id: u64,
    rows: usize,
    arrival_us: u64,
    deadline_us: u64,
) {
    b.offer(id, rows, arrival_us, deadline_us);
}

/// `ContinuousBatcher::admit`; returns how many requests took a slot.
pub fn batcher_admit(b: &mut ContinuousBatcher, now_us: u64) -> usize {
    b.admit(now_us).len()
}

/// `ContinuousBatcher::plan_step`; returns the step's occupancy and the
/// requests it finishes.
pub fn batcher_plan(b: &mut ContinuousBatcher) -> (usize, Vec<u64>) {
    let (plan, finished) = b.plan_step();
    (plan.occupancy(), finished)
}

/// `IngressQueue::new`.
pub fn queue_new(capacity: usize) -> IngressQueue {
    IngressQueue::new(capacity)
}

/// `IngressQueue::push`.
pub fn queue_push(q: &IngressQueue, req: Request) -> Res<()> {
    q.push(req).map_err(err)
}

/// `IngressQueue::drain_arrived`.
pub fn queue_drain(q: &IngressQueue, now_us: u64) -> Vec<Request> {
    q.drain_arrived(now_us)
}
