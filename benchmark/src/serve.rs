//! The two serving workloads: a closed loop over `serve::Engine`.
//!
//! Each user has one request outstanding and submits the next the
//! moment the previous completes (zero think time), so the engine sees
//! as much load as it can serve and no more. The engine's clock is
//! virtual; the wall latency of a request is measured here, from
//! `submit` to the end of the `pump` that names it completed.

use std::time::Instant;

use crate::adapter::{
    self, AllToAllAlgo, BatcherConfig, EngineConfig, ExecConfig, ModelDims, Res, ServeModel,
    ServeReport, ServiceModel, Strategy, Telemetry, Tensor,
};
use crate::catalog::{end_to_end_metrics, per_layer_metrics};
use crate::gen::{request_sizes, Rng64};
use crate::rtstats::RtDelta;
use crate::spans::{Recorder, Track};
use crate::stats::{bitwise_eq, max_scaled_ulp, median, Summary};
use crate::{host, timed_setups, trace_window, Outcome, RunArgs, TRACE_ROUNDS};

/// Shape and sizing of one serving workload.
pub struct ServeSpec {
    pub name: &'static str,
    /// Closed-loop users, each with one request outstanding.
    pub users: usize,
    /// Token rows per request, uniform in `rows_lo..=rows_hi`.
    pub rows_lo: usize,
    pub rows_hi: usize,
    /// Batcher slots: rows per step and sequences in flight.
    pub slots: usize,
    pub model_dim: usize,
    pub hidden_dim: usize,
    pub strategy: Strategy,
    pub algo: AllToAllAlgo,
    pub degree: usize,
    /// Requests in the pool built at set-up.
    pub pool: usize,
    /// Pumps run during set-up, before anything is timed.
    pub warmup_pumps: usize,
    /// Timed pumps per second of `--seconds`: sized on a 2-core host so
    /// the timed count takes about two thirds of `--seconds` and is
    /// reached, not cut short by the clock, even when the host has a
    /// slow spell (the engine keeps every outcome, so a shorter window
    /// is also a smaller process).
    pub pumps_per_second: f64,
}

pub const SMALL_STEPS: ServeSpec = ServeSpec {
    name: "serve_small_steps",
    users: 8,
    // 1..=5, not the 1..=4 a first sizing used: with four equally likely
    // lengths the median request sits on the edge between two of them,
    // and `req_p50_ms` flips between 2 and 3 steps from seed to seed.
    rows_lo: 1,
    rows_hi: 5,
    slots: 8,
    model_dim: 64,
    hidden_dim: 256,
    strategy: Strategy::P1,
    algo: AllToAllAlgo::Linear,
    degree: 1,
    pool: 512,
    warmup_pumps: 1000,
    pumps_per_second: 1900.0,
};

pub const LARGE_STEPS: ServeSpec = ServeSpec {
    name: "serve_large_steps",
    users: 256,
    rows_lo: 4,
    rows_hi: 16,
    slots: 256,
    model_dim: 64,
    hidden_dim: 256,
    strategy: Strategy::P2,
    algo: AllToAllAlgo::TwoDh,
    degree: 2,
    pool: 1024,
    warmup_pumps: 100,
    pumps_per_second: 215.0,
};

/// Ranks, each one thread, so rank threads never outnumber two cores.
const WORLD: usize = 2;
const LOCAL_EXPERTS: usize = 2;
const TOP_K: usize = 2;
/// Hidden-dimension shards under P2.
const SHARDS: usize = 2;
/// Timed pumps every run makes however slow the host.
pub const MIN_PUMPS: usize = 2000;
/// Virtual latency budget of every request: far enough that admission
/// order is arrival order.
const DEADLINE_US: u64 = 1_000_000_000;
/// Scaled-ULP budget of a P2 output against the reference (P1 is
/// bitwise). P2 re-associates the sum over the hidden dimension, and a
/// sum's rounding error grows with the root of its length: the harness
/// fitted 4 scaled ULP at hidden 16, and these workloads run hidden 256.
const HARNESS_ULP_BUDGET: f64 = 4.0;
const HARNESS_HIDDEN: f64 = 16.0;
/// Stage replays a traced run aims for; the traced pumps between two
/// replays follow from it.
const REPLAYS: usize = 32;

impl ServeSpec {
    fn p2_ulp_budget(&self) -> f64 {
        HARNESS_ULP_BUDGET * (self.hidden_dim as f64 / HARNESS_HIDDEN).sqrt()
    }

    fn nominal_pumps(&self, seconds: f64) -> usize {
        ((self.pumps_per_second * seconds).round() as usize).max(1)
    }
}

/// A built workload: the model, the request pool, the engine's knobs.
pub struct ServeState {
    pub spec: &'static ServeSpec,
    pub model: ServeModel,
    /// Request token tensors `(rows, M)`; request `id` uses entry
    /// `id mod pool`.
    pub pool: Vec<Tensor>,
    pub cfg: EngineConfig,
}

/// Builds the model and the request pool from `seed`.
pub fn setup(spec: &'static ServeSpec, seed: u64) -> Res<ServeState> {
    let dims = ModelDims {
        model_dim: spec.model_dim,
        hidden_dim: spec.hidden_dim,
        local_experts: LOCAL_EXPERTS,
        world: WORLD,
        top_k: TOP_K,
        shards: SHARDS,
    };
    let model = adapter::serve_model(dims, Rng64::new(seed, 1).next_u64())?;
    let mut rng = Rng64::new(seed, 2);
    let pool = request_sizes(&mut rng, spec.pool, spec.rows_lo, spec.rows_hi)
        .into_iter()
        .map(|rows| adapter::tensor(rng.normals(rows * spec.model_dim), &[rows, spec.model_dim]))
        .collect::<Res<Vec<_>>>()?;
    let cfg = EngineConfig {
        batcher: BatcherConfig {
            max_batch_tokens: spec.slots,
            max_inflight: spec.slots,
            admit_timeout_us: 0,
        },
        // Virtual, and only fixes how the batcher batches: no timing
        // reported here reads the engine's clock.
        service: ServiceModel {
            step_floor_us: 100,
            per_token_us: 10,
        },
        queue_capacity: 2 * spec.users,
        exec: ExecConfig {
            strategy: spec.strategy,
            algo: spec.algo,
            degree: spec.degree,
            world: WORLD,
            threads: 1,
            dropless: true,
        },
    };
    Ok(ServeState {
        spec,
        model,
        pool,
        cfg,
    })
}

fn rows_of(t: &Tensor) -> usize {
    t.dims()[0]
}

/// What a window of pumps measured.
pub struct Window {
    pub pump_ms: Vec<f64>,
    pub req_ms: Vec<f64>,
    /// Token rows of the requests that completed.
    pub rows_done: u64,
    /// Seconds of the window outside replays, and of that inside `pump`.
    pub busy_s: f64,
    pub pump_s: f64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Largest distance of a checked output from its reference, in
    /// scaled ULPs.
    pub worst_ulp: f64,
    /// The engine's own report, with every completed request's output.
    pub report: ServeReport,
    /// What the replays saw, one entry per replay.
    pub replays: Vec<ReplayFacts>,
}

impl Window {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    fn tokens_per_s(&self) -> f64 {
        self.rows_done as f64 / self.busy_s
    }

    /// Rows the engine served to requests that completed, by its own
    /// count (one row per request per step it took part in).
    fn served_rows(&self) -> u64 {
        self.report.outcomes.iter().map(|o| o.steps).sum()
    }

    /// Rows served per executed step.
    fn mean_occupancy(&self) -> f64 {
        self.served_rows() as f64 / self.report.steps.max(1) as f64
    }
}

/// Drives a fresh engine closed-loop until `nominal` pumps are done or
/// `deadline` passes, but never fewer than `min`. With a recorder, every
/// pump is a `serve.pump` span, every request a `req` span, and the
/// step's stages are replayed after every `replay_every`-th pump.
pub fn run_window(
    st: &ServeState,
    tel: &Telemetry,
    nominal: usize,
    min: usize,
    deadline: Instant,
    mut rec: Option<&mut Recorder>,
    replay_every: usize,
) -> Res<Window> {
    let spec = st.spec;
    let mut engine = adapter::engine_new(&st.model, &st.cfg, tel)?;
    let mut submit_at: Vec<Instant> = Vec::new();
    let submit = |engine: &mut adapter::Engine<'_>, at: &mut Vec<Instant>, now_us: u64| {
        let id = at.len();
        at.push(Instant::now());
        let tokens = st.pool[id % st.pool.len()].clone();
        adapter::engine_submit(
            engine,
            adapter::request(id as u64, tokens, now_us, now_us + DEADLINE_US),
        );
    };
    let (mut pump_ms, mut req_ms) = (Vec::new(), Vec::new());
    let (mut rows_done, mut pump_s, mut replay_s) = (0u64, 0.0f64, 0.0f64);
    let mut replays = Vec::new();
    let mut errors = Vec::new();
    let started = Instant::now();
    for _ in 0..spec.users {
        submit(&mut engine, &mut submit_at, 0);
    }
    for n in 0..nominal.max(min) {
        if n >= min && Instant::now() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let span = rec.as_mut().map(|r| r.begin(Track::E2e, "serve.pump"));
        let progressed = adapter::engine_pump(&mut engine);
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.end(id);
        }
        let t1 = Instant::now();
        let dt = (t1 - t0).as_secs_f64();
        pump_s += dt;
        pump_ms.push(dt * 1e3);
        match progressed {
            Ok(true) => {}
            Ok(false) => {
                errors.push(format!("pump {n}: the engine ran out of work"));
                break;
            }
            Err(e) => {
                errors.push(format!("pump {n}: {e}"));
                break;
            }
        }
        let done = adapter::engine_completed(&engine).to_vec();
        let now_us = adapter::engine_now_us(&engine);
        for id in done {
            let at = submit_at[id as usize];
            req_ms.push((t1 - at).as_secs_f64() * 1e3);
            rows_done += rows_of(&st.pool[id as usize % st.pool.len()]) as u64;
            if let Some(r) = rec.as_mut() {
                r.complete("req", at, t1, id);
            }
            submit(&mut engine, &mut submit_at, now_us);
        }
        if let Some(r) = rec.as_mut().filter(|_| n % replay_every == 0) {
            let t = Instant::now();
            // Once unrecorded: in the real step every stage follows the
            // previous step's, warm; a replay arrives cold after a
            // hundred pumps of other work.
            let warmed = replay_stages(st, n, &mut Recorder::new());
            match warmed.and_then(|_| replay_stages(st, n, r)) {
                Ok(facts) => replays.push(facts),
                Err(e) => errors.push(format!("replay after pump {n}: {e}")),
            }
            replay_s += t.elapsed().as_secs_f64();
        }
    }
    let busy_s = started.elapsed().as_secs_f64() - replay_s;
    let mut w = Window {
        pump_ms,
        req_ms,
        rows_done,
        busy_s,
        pump_s,
        failed: 0,
        failures: Vec::new(),
        worst_ulp: 0.0,
        report: adapter::engine_finish(engine),
        replays,
    };
    for e in errors {
        w.fail(e);
    }
    for _ in 0..w.report.rejected {
        w.fail("a request was rejected at the ingress queue".into());
    }
    Ok(w)
}

/// Replays the first 100 and every 64th completed request alone through
/// `reference_rows`: P1 must match bit for bit, P2 within the budget.
pub fn check_outputs(st: &ServeState, w: &mut Window) {
    let mut bad = Vec::new();
    for (i, o) in w.report.outcomes.iter().enumerate() {
        if i >= 100 && i % 64 != 0 {
            continue;
        }
        let tokens = &st.pool[o.id as usize % st.pool.len()];
        let verdict = adapter::reference_rows(&st.model, tokens)
            .and_then(|reference| compare(st.spec, o.output.as_slice(), reference.as_slice()));
        match verdict {
            Ok(ulp) => w.worst_ulp = w.worst_ulp.max(ulp),
            Err(e) => bad.push(format!("request {}: {e}", o.id)),
        }
    }
    for msg in bad {
        w.fail(msg);
    }
}

/// The oracle's tolerance: bitwise for P1, scaled ULPs for P2. Returns
/// the distance in scaled ULPs when it is within the tolerance.
fn compare(spec: &ServeSpec, got: &[f32], reference: &[f32]) -> Res<f64> {
    let ulp = max_scaled_ulp(got, reference);
    match spec.strategy {
        Strategy::P1 if bitwise_eq(got, reference) => Ok(0.0),
        Strategy::P1 => Err(format!(
            "output is {ulp:.2} scaled ULP from reference_rows (P1 must be bitwise equal)"
        )),
        Strategy::P2 if ulp <= spec.p2_ulp_budget() => Ok(ulp),
        Strategy::P2 => Err(format!(
            "output is {ulp:.2} scaled ULP from reference_rows (budget {})",
            spec.p2_ulp_budget()
        )),
    }
}

/// Counts a replay saw; exact, because the replayed batch is a function
/// of the seed and the pump index alone.
pub struct ReplayFacts {
    /// Rows the replayed batch routes (`k` per token row).
    pub routed_rows: u64,
    /// Largest expert load over the mean, over the global experts.
    pub load_max_over_mean: f64,
    /// Rows rank 0's experts compute.
    pub rank_rows: usize,
}

/// Replays one step of `slots`-or-`users` rows, stage by stage: the real
/// `execute_step`, then what it is made of through each layer's public
/// functions, for rank 0 under the rank's parallelism limit.
fn replay_stages(st: &ServeState, pump: usize, rec: &mut Recorder) -> Res<ReplayFacts> {
    let spec = st.spec;
    let (m, v) = (spec.model_dim, spec.hidden_dim);
    let exec = st.cfg.exec;
    let occ = spec.users.min(spec.slots);
    let r = Track::Replay;

    // The batch: `occ` rows read through the pool from request `pump`.
    let mut rows = Vec::with_capacity(occ * m);
    let mut p = pump;
    while rows.len() < occ * m {
        let src = st.pool[p % st.pool.len()].as_slice();
        let take = (occ * m - rows.len()).min(src.len());
        rows.extend_from_slice(&src[..take]);
        p += 1;
    }
    let batch = adapter::tensor(rows, &[occ, m])?;
    rec.scope(r, "serve.exec_step", || {
        adapter::execute_step(&st.model, &exec, &batch)
    })?;
    rec.scope(r, "comm.spawn_join", || {
        adapter::run_threaded(WORLD, |_comm| ())
    });
    let p2 = spec.strategy == Strategy::P2;
    let blocks = rec.scope(r, "experts.rank_block_build", || {
        adapter::rank_blocks(&st.model, 0, p2)
    })?;

    // Rank 0 serves rows 0, W, 2W, … and computes whatever the whole
    // batch routes to its experts.
    let per_rank = occ.div_ceil(WORLD);
    let mut mine = vec![0.0f32; per_rank * m];
    for (local, row) in mine.chunks_mut(m).enumerate() {
        if let Some(src) = batch
            .as_slice()
            .get(local * WORLD * m..(local * WORLD + 1) * m)
        {
            row.copy_from_slice(src);
        }
    }
    let x = adapter::tensor(mine, &[per_rank, m])?;
    let cfg = adapter::serve_route_config(&st.model);
    let router = &st.model.router;
    let global = {
        let probs = adapter::softmax_last(&adapter::router_logits(router, &batch)?);
        let routing = adapter::route(&probs, &cfg)?;
        let ragged = adapter::ragged_from_routing(&routing);
        let packed = adapter::ragged_encode(&batch, &routing, &ragged)?;
        (routing, ragged, packed)
    };
    let (g_routing, g_ragged, g_packed) = &global;
    let rank_rows = g_ragged.offsets[LOCAL_EXPERTS];
    // Chunk c of bin e is rows [len·c/D, len·(c+1)/D) of the bin.
    let chunks: Vec<(Tensor, Vec<usize>)> = (0..spec.degree)
        .map(|c| {
            let mut gx = Vec::new();
            let mut offsets = vec![0usize];
            for e in 0..LOCAL_EXPERTS {
                let (s, len) = (g_ragged.offsets[e], g_ragged.bin_len(e));
                let (from, to) = (s + len * c / spec.degree, s + len * (c + 1) / spec.degree);
                gx.extend_from_slice(&g_packed.as_slice()[from * m..to * m]);
                offsets.push(offsets[e] + to - from);
            }
            let n = offsets[LOCAL_EXPERTS];
            adapter::tensor(gx, &[n, m]).map(|t| (t, offsets))
        })
        .collect::<Res<_>>()?;

    adapter::with_parallelism_limit(exec.threads, || -> Res<()> {
        let logits = rec.scope(r, "gate.logits", || adapter::router_logits(router, &x))?;
        let probs = rec.scope(r, "tensor.softmax", || adapter::softmax_last(&logits));
        let routing = rec.scope(r, "gate.route", || adapter::route(&probs, &cfg))?;
        let ragged = rec.scope(r, "gate.ragged", || adapter::ragged_from_routing(&routing));
        let enc = rec.scope(r, "kernels.encode", || {
            adapter::ragged_encode(&x, &routing, &ragged)
        })?;
        rec.scope(r, "experts.ffn_infer", || -> Res<()> {
            for (gx, offsets) in chunks.iter().filter(|(gx, _)| rows_of(gx) > 0) {
                let mut acc: Option<Tensor> = None;
                for block in &blocks {
                    let y = adapter::experts_infer_grouped(block, gx, offsets)?;
                    match acc.as_mut() {
                        None => acc = Some(y),
                        Some(a) => adapter::axpy(a, 1.0, &y)?,
                    }
                }
            }
            Ok(())
        })?;
        // Decode reads one expert-output row per routed slot; the
        // encoded rows have that shape.
        rec.scope(r, "kernels.decode", || {
            adapter::ragged_decode(&enc, &routing, &ragged, per_rank)
        })?;
        // The raw GEMMs at the step's shapes, on rank 0's rows.
        if rank_rows > 0 {
            let w1 = adapter::experts_w1(&st.model.experts);
            let bin = (rank_rows / LOCAL_EXPERTS).max(1);
            let a = adapter::tensor(g_packed.as_slice()[..bin * m].to_vec(), &[bin, m])?;
            let w = adapter::tensor(w1.as_slice()[..m * v].to_vec(), &[m, v])?;
            rec.scope(r, "tensor.gemm", || adapter::matmul(&a, &w))?;
            let mut h = vec![0.0f32; rank_rows * v];
            rec.scope(r, "tensor.grouped_gemm", || {
                adapter::grouped_gemm(
                    &g_packed.as_slice()[..rank_rows * m],
                    &w1.as_slice()[..LOCAL_EXPERTS * m * v],
                    &mut h,
                    &g_ragged.offsets[..=LOCAL_EXPERTS],
                    m,
                    v,
                );
            });
        }
        Ok(())
    })?;

    // The step's exchanges at its mean payload: out and back per chunk,
    // each message a count header plus this rank's share of the rows.
    let msg_rows = (per_rank * TOP_K).div_ceil(WORLD * spec.degree);
    let sends: Vec<Vec<f32>> = vec![vec![0.5; LOCAL_EXPERTS + msg_rows * m]; WORLD];
    let exchanged = rec.scope(r, "comm.a2a_v_step", || {
        adapter::run_threaded(WORLD, |mut comm| -> Res<()> {
            for _ in 0..2 * spec.degree {
                adapter::all_to_all_v(&mut comm, spec.algo, &sends)?;
            }
            Ok(())
        })
    });
    exchanged.into_iter().collect::<Res<Vec<()>>>()?;

    let max = g_routing.counts.iter().copied().max().unwrap_or(0) as f64;
    let total = g_ragged.total();
    Ok(ReplayFacts {
        routed_rows: total as u64,
        load_max_over_mean: max * g_routing.experts as f64 / total.max(1) as f64,
        rank_rows,
    })
}

/// Microseconds per batcher step (`plan_step`, re-`offer` of what
/// finished, `admit`) at the workload's occupancy.
fn batcher_step_us(st: &ServeState) -> f64 {
    const ITERS: usize = 2000;
    let mut b = adapter::batcher_new(st.cfg.batcher);
    let size = |id: u64| rows_of(&st.pool[id as usize % st.pool.len()]);
    let mut next = 0u64;
    for _ in 0..st.spec.users {
        adapter::batcher_offer(&mut b, next, size(next), 0, DEADLINE_US);
        next += 1;
    }
    adapter::batcher_admit(&mut b, 0);
    let t0 = Instant::now();
    for i in 0..ITERS {
        let now = 100 * (i as u64 + 1);
        let (occupancy, finished) = adapter::batcher_plan(&mut b);
        std::hint::black_box(occupancy);
        for _ in finished {
            adapter::batcher_offer(&mut b, next, size(next), now, now + DEADLINE_US);
            next += 1;
        }
        adapter::batcher_admit(&mut b, now);
    }
    t0.elapsed().as_secs_f64() * 1e6 / ITERS as f64
}

/// Microseconds per request through the ingress queue: one `push` and
/// its share of a `drain_arrived` of a step's arrivals.
fn queue_request_us(st: &ServeState) -> Res<f64> {
    const ITERS: usize = 2000;
    let burst = (st.spec.users / 4).max(1);
    let q = adapter::queue_new(st.cfg.queue_capacity);
    let mut reqs: Vec<_> = (0..ITERS * burst)
        .map(|i| adapter::request(i as u64, st.pool[i % st.pool.len()].clone(), 0, DEADLINE_US))
        .collect();
    let t0 = Instant::now();
    for _ in 0..ITERS {
        for req in reqs.drain(..burst) {
            adapter::queue_push(&q, req)?;
        }
        std::hint::black_box(adapter::queue_drain(&q, 0));
    }
    Ok(t0.elapsed().as_secs_f64() * 1e6 / (ITERS * burst) as f64)
}

/// Runs the workload for the contract: end-to-end metrics untraced, or
/// the per-layer ledger from a traced run.
pub fn run(spec: &'static ServeSpec, args: &RunArgs) -> Res<Outcome> {
    let off = Telemetry::disabled();
    let far = Instant::now() + std::time::Duration::from_secs(3600);
    let (st, setups) = timed_setups(args, || {
        let st = setup(spec, args.seed)?;
        let warm = run_window(
            &st,
            &off,
            spec.warmup_pumps,
            spec.warmup_pumps,
            far,
            None,
            1,
        )?;
        match warm.failures.first() {
            Some(f) => Err(format!("warm-up: {f}")),
            None => Ok(st),
        }
    })?;
    let setup_s = median(&setups);
    let mut outcome = Outcome::default();
    outcome.note("setup_s samples", format!("{setups:.4?}"));
    let nominal = spec.nominal_pumps(args.seconds);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let mut w = run_window(&st, &off, nominal, MIN_PUMPS, deadline, None, 1)?;
        check_outputs(&st, &mut w);
        outcome.absorb_serve(&w);
        let (pumps, reqs) = (Summary::of(&w.pump_ms), Summary::of(&w.req_ms));
        outcome.note("pump samples", pumps.n.to_string());
        outcome.note("request samples", reqs.n.to_string());
        outcome.note("serve.pump tail", pumps.tail_label("ms"));
        outcome.note("serve.req tail", reqs.tail_label("ms"));
        outcome.note("mean occupancy", format!("{:.3}", w.mean_occupancy()));
        outcome.note("oracle worst scaled ULP", format!("{:.3}", w.worst_ulp));
        outcome.metrics = end_to_end_metrics(&[
            ("tokens_per_s", w.tokens_per_s()),
            ("step_p50_ms", pumps.p50),
            ("req_p50_ms", reqs.p50),
            ("req_p90_ms", reqs.p90),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("setup_s", setup_s),
        ]);
        return Ok(outcome);
    }

    // Traced run. Three kinds of window take turns, so slow drift of the
    // host lands on all of them alike: untraced (the baseline of both
    // overheads, and the source of the runtime counters and the exact
    // counts), span-recorded with replays, and with the program's own
    // telemetry enabled. Each runs a fixed share of the nominal count
    // whatever the clock says, so every count below repeats exactly.
    let on = Telemetry::enabled();
    let mut rt = RtDelta::default();
    let mut rec = Recorder::new();
    let (mut plain, mut traced, mut with_tel) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..TRACE_ROUNDS {
        let n = trace_window(nominal, 25);
        plain.push(rt.around(|| run_window(&st, &off, n, n, far, None, 1))?);
        let n = trace_window(nominal, 20);
        let every = (n * TRACE_ROUNDS / REPLAYS).max(1);
        traced.push(run_window(&st, &off, n, n, far, Some(&mut rec), every)?);
        let n = trace_window(nominal, 25);
        with_tel.push(run_window(&st, &on, n, n, far, None, 1)?);
    }
    for w in plain.iter_mut().chain(&mut traced).chain(&mut with_tel) {
        check_outputs(&st, w);
        outcome.absorb_serve(w);
    }
    args.write_trace(spec.name, &rec)?;

    let sum = |ws: &[Window], f: &dyn Fn(&Window) -> f64| ws.iter().map(f).sum::<f64>();
    let tokens_per_s = |ws: &[Window]| sum(ws, &|w| w.rows_done as f64) / sum(ws, &|w| w.busy_s);
    let pump_ms =
        |ws: &[Window]| -> Vec<f64> { ws.iter().flat_map(|w| w.pump_ms.iter().copied()).collect() };
    let stage = |name| median(&rec.durations_ms(Track::Replay, name));
    let (m, v) = (spec.model_dim as f64, spec.hidden_dim as f64);
    let facts: Vec<&ReplayFacts> = traced.iter().flat_map(|w| &w.replays).collect();
    let mean = |f: &dyn Fn(&ReplayFacts) -> f64| {
        facts.iter().map(|x| f(x)).sum::<f64>() / facts.len().max(1) as f64
    };
    let rank_rows = mean(&|f| f.rank_rows as f64);
    let per_rank_routed = mean(&|f| f.routed_rows as f64) / WORLD as f64;
    let traced_pump_ms = median(&pump_ms(&traced));
    let exec_ms = stage("serve.exec_step");
    let spawn_ms = stage("comm.spawn_join");
    let a2a_ms = (stage("comm.a2a_v_step") - spawn_ms).max(0.0);
    let staged = spawn_ms
        + a2a_ms
        + [
            "experts.rank_block_build",
            "gate.logits",
            "tensor.softmax",
            "gate.route",
            "gate.ragged",
            "kernels.encode",
            "experts.ffn_infer",
            "kernels.decode",
        ]
        .iter()
        .map(|s| stage(s))
        .sum::<f64>();
    let gemm_gflops = 2.0 * (rank_rows / LOCAL_EXPERTS as f64).floor().max(1.0) * m * v
        / stage("tensor.gemm")
        * 1e-6;
    let ffn_gflops = 4.0 * rank_rows * m * v / stage("experts.ffn_infer") * 1e-6;
    let steps = sum(&plain, &|w| w.report.steps as f64);
    let occupancy = sum(&plain, &|w| w.served_rows() as f64) / steps.max(1.0);
    let plain_reqs: Vec<f64> = plain
        .iter()
        .flat_map(|w| w.req_ms.iter().copied())
        .collect();
    let all_pumps = [pump_ms(&plain), pump_ms(&traced), pump_ms(&with_tel)].concat();
    outcome.note(
        "traced pumps",
        format!("{} ({} replayed)", pump_ms(&traced).len(), facts.len()),
    );
    outcome.note(
        "pump self time",
        format!(
            "{:.4} ms of {traced_pump_ms:.4} ms",
            median(&rec.self_ms(Track::E2e, "serve.pump"))
        ),
    );
    outcome.note(
        "request spans",
        rec.durations_ms(Track::Req, "req").len().to_string(),
    );
    let worst = plain
        .iter()
        .chain(&traced)
        .chain(&with_tel)
        .fold(0.0f64, |u, w| u.max(w.worst_ulp));
    outcome.note("oracle worst scaled ULP", format!("{worst:.3}"));
    let mut values = rt.metrics(steps as usize).to_vec();
    values.extend([
        ("tensor.gemm_gflops", gemm_gflops),
        (
            "tensor.grouped_gemm_gflops",
            2.0 * rank_rows * m * v / stage("tensor.grouped_gemm") * 1e-6,
        ),
        ("tensor.softmax_ms", stage("tensor.softmax")),
        ("gate.logits_ms", stage("gate.logits")),
        ("gate.route_ms", stage("gate.route")),
        (
            "gate.step_share",
            (stage("gate.logits") + stage("gate.route") + stage("gate.ragged")) / traced_pump_ms,
        ),
        ("gate.load_max_over_mean", mean(&|f| f.load_max_over_mean)),
        ("gate.routed_rows_per_step", mean(&|f| f.routed_rows as f64)),
        ("kernels.encode_ms", stage("kernels.encode")),
        ("kernels.decode_ms", stage("kernels.decode")),
        // Bytes computed from shapes: a rank's routed rows read and
        // written, 4 bytes per feature.
        (
            "kernels.encode_gbps",
            2.0 * per_rank_routed * m * 4.0 / stage("kernels.encode") * 1e-6,
        ),
        ("experts.ffn_infer_ms", stage("experts.ffn_infer")),
        ("experts.ffn_gflops", ffn_gflops),
        ("experts.ffn_over_gemm", ffn_gflops / gemm_gflops),
        (
            "experts.step_share",
            stage("experts.ffn_infer") / traced_pump_ms,
        ),
        ("experts.useful_rows_share", 1.0),
        (
            "experts.rank_block_build_ms",
            stage("experts.rank_block_build"),
        ),
        ("comm.spawn_join_ms", spawn_ms),
        ("comm.a2a_v_ms", a2a_ms / (2 * spec.degree) as f64),
        (
            "comm.a2a_elems_per_step",
            sum(&plain, &|w| w.report.a2a_elems as f64) / steps.max(1.0),
        ),
        ("serve.exec_step_ms", exec_ms),
        ("serve.engine_glue_ms", traced_pump_ms - exec_ms),
        (
            "serve.exec_unattributed_share",
            (exec_ms - staged) / exec_ms,
        ),
        ("serve.batcher_plan_us", batcher_step_us(&st)),
        ("serve.queue_push_drain_us", queue_request_us(&st)?),
        ("serve.pump_p99_ms", Summary::of(&all_pumps).p99),
        ("serve.req_p99_ms", Summary::of(&plain_reqs).p99),
        ("serve.steps", steps),
        ("serve.mean_occupancy", occupancy),
        ("serve.slot_fill_share", occupancy / spec.slots as f64),
        ("serve.rejected", sum(&plain, &|w| w.report.rejected as f64)),
        (
            "serve.virtual_goodput_tps",
            sum(&plain, &|w| w.report.goodput_tps) / plain.len() as f64,
        ),
        (
            "obs.telemetry_enabled_overhead_pct",
            (tokens_per_s(&plain) / tokens_per_s(&with_tel) - 1.0) * 100.0,
        ),
        (
            "bench.trace_overhead_pct",
            (tokens_per_s(&plain) / tokens_per_s(&traced) - 1.0) * 100.0,
        ),
        (
            "bench.loadgen_share",
            1.0 - sum(&plain, &|w| w.pump_s) / sum(&plain, &|w| w.busy_s),
        ),
        ("bench.step_p99_ms", Summary::of(&all_pumps).p99),
    ]);
    outcome.metrics = per_layer_metrics(&values);
    Ok(outcome)
}

impl Outcome {
    /// Folds a window's request counts and failures into the run's.
    fn absorb_serve(&mut self, w: &Window) {
        self.attempted += w.report.outcomes.len() as u64 + w.report.rejected;
        self.failed += w.failed;
        self.failures.extend(w.failures.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Instant {
        Instant::now() + std::time::Duration::from_secs(3600)
    }

    #[test]
    fn same_seed_same_counts_other_seed_same_regime() {
        let off = Telemetry::disabled();
        let run = |seed| {
            let st = setup(&SMALL_STEPS, seed).unwrap();
            let mut w = run_window(&st, &off, 300, 300, far(), None, 1).unwrap();
            check_outputs(&st, &mut w);
            let sizes: Vec<usize> = st.pool.iter().map(rows_of).collect();
            (w, sizes)
        };
        let ((a, sa), (b, sb), (c, sc)) = (run(1), run(1), run(2));
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(sa, sb);
        assert_ne!(sa, sc, "another seed draws other request sizes");
        assert_eq!(a.report.steps, b.report.steps);
        assert_eq!(a.report.a2a_elems, b.report.a2a_elems);
        assert_eq!(a.rows_done, b.rows_done);
        assert_eq!(
            a.report.steps, 300,
            "every pump of the closed loop executes a step"
        );
        for w in [&a, &c] {
            assert_eq!(w.report.rejected, 0);
            assert!(
                (w.mean_occupancy() - 8.0).abs() < 0.5,
                "{}",
                w.mean_occupancy()
            );
            assert_eq!(w.req_ms.len(), w.report.outcomes.len());
        }
    }

    #[test]
    fn large_steps_fill_their_slots_and_pass_the_p2_oracle() {
        let st = setup(&LARGE_STEPS, 3).unwrap();
        let mut w = run_window(&st, &Telemetry::disabled(), 120, 120, far(), None, 1).unwrap();
        check_outputs(&st, &mut w);
        assert_eq!(w.failed, 0, "{:?}", w.failures);
        // Requests still in flight when the window ends are not counted.
        assert!(w.mean_occupancy() > 0.9 * 256.0, "{}", w.mean_occupancy());
        assert!(!w.report.outcomes.is_empty());
    }

    #[test]
    fn a_perturbed_reference_fails_the_oracle() {
        let (p1, p2) = (&SMALL_STEPS, &LARGE_STEPS);
        let r = [1.0f32, -2.0, 0.5];
        assert_eq!(compare(p1, &r, &r), Ok(0.0));
        assert_eq!(compare(p2, &r, &r), Ok(0.0));
        let mut one_ulp = r;
        one_ulp[2] = f32::from_bits(one_ulp[2].to_bits() + 1);
        assert!(compare(p1, &one_ulp, &r).is_err(), "P1 is bitwise");
        assert!(
            compare(p2, &one_ulp, &r).is_ok(),
            "P2 allows a re-associated sum"
        );
        let mut off = r;
        off[0] += 1e-4;
        assert!(compare(p2, &off, &r).is_err());
        assert!(compare(p1, &r[..2], &r).is_err());
        assert_eq!(p2.p2_ulp_budget(), 16.0);

        // End to end: serve from one model, check against another.
        let st = setup(&SMALL_STEPS, 4).unwrap();
        let mut w = run_window(&st, &Telemetry::disabled(), 50, 50, far(), None, 1).unwrap();
        let other = setup(&SMALL_STEPS, 5).unwrap();
        check_outputs(
            &ServeState {
                model: other.model,
                ..st
            },
            &mut w,
        );
        assert!(w.failed > 0);
        let mut outcome = Outcome::default();
        outcome.absorb_serve(&w);
        assert!(!outcome.correct());
    }

    #[test]
    fn traced_window_replays_the_step_and_records_every_request() {
        let st = setup(&LARGE_STEPS, 6).unwrap();
        let mut rec = Recorder::new();
        let w = run_window(
            &st,
            &Telemetry::disabled(),
            51,
            51,
            far(),
            Some(&mut rec),
            50,
        )
        .unwrap();
        assert_eq!(w.failed, 0, "{:?}", w.failures);
        assert_eq!(w.replays.len(), 2);
        assert_eq!(rec.durations_ms(Track::E2e, "serve.pump").len(), 51);
        assert_eq!(rec.durations_ms(Track::Req, "req").len(), w.req_ms.len());
        for name in [
            "serve.exec_step",
            "comm.spawn_join",
            "experts.rank_block_build",
            "gate.route",
            "experts.ffn_infer",
            "comm.a2a_v_step",
            "tensor.grouped_gemm",
        ] {
            assert_eq!(rec.durations_ms(Track::Replay, name).len(), 2, "{name}");
        }
        // Dropless top-2: a full batch routes two rows per token row.
        assert!(w.replays.iter().all(|f| f.routed_rows == 2 * 256));
    }

    #[test]
    fn micro_benchmarks_return_times() {
        let st = setup(&SMALL_STEPS, 7).unwrap();
        assert!(batcher_step_us(&st) > 0.0);
        assert!(queue_request_us(&st).unwrap() > 0.0);
    }
}
