//! The two training workloads: `MoeLayer::forward → backward → step`
//! on seeded batches, with a mean-squared-error loss against a fixed
//! linear teacher.

use std::time::Instant;

use crate::adapter::{self, MoeConfig, MoeLayer, Res, Telemetry, Tensor};
use crate::catalog::{end_to_end_metrics, per_layer_metrics};
use crate::gen::{Rng64, ZipfClusters};
use crate::rtstats::RtDelta;
use crate::spans::{Recorder, Track};
use crate::stats::{bitwise_eq, fnv_digest, median, Summary};
use crate::{host, timed_setups, trace_window, Outcome, RunArgs, TRACE_ROUNDS};

/// Shape and sizing of one training workload.
pub struct TrainSpec {
    pub name: &'static str,
    pub model_dim: usize,
    pub hidden_dim: usize,
    pub experts: usize,
    pub tokens: usize,
    pub top_k: usize,
    /// Figure-16 convention: positive clamps and pads (`fast_encode` +
    /// `bmm`), 0 is dropless (`ragged_encode` + grouped GEMM).
    pub capacity_factor: f64,
    /// Tokens from Zipf-weighted Gaussian clusters instead of one
    /// Gaussian.
    pub clustered: bool,
    /// Full steps run during set-up, before anything is timed.
    pub warmup_steps: usize,
    /// Timed steps per second of `--seconds`: sized on a 2-core host so
    /// the timed count takes about two thirds of `--seconds` and is
    /// reached, not cut short by the clock, even when the host has a
    /// slow spell.
    pub steps_per_second: f64,
}

pub const WIDE_FFN: TrainSpec = TrainSpec {
    name: "train_wide_ffn",
    model_dim: 128,
    hidden_dim: 512,
    experts: 8,
    tokens: 1024,
    top_k: 2,
    capacity_factor: 1.0,
    clustered: false,
    warmup_steps: 5,
    steps_per_second: 11.0,
};

pub const MANY_EXPERTS: TrainSpec = TrainSpec {
    name: "train_many_experts",
    model_dim: 32,
    hidden_dim: 32,
    experts: 64,
    tokens: 8192,
    top_k: 2,
    capacity_factor: 0.0,
    clustered: true,
    warmup_steps: 5,
    steps_per_second: 13.5,
};

/// Batches a run cycles through, so consecutive steps route differently.
const POOL: usize = 4;
/// Timed steps every run makes however slow the host: the digest and
/// the exact counts are taken over these.
pub const MIN_STEPS: usize = 100;
/// Zipf clusters of the clustered workload and their exponent.
const CLUSTERS: usize = 16;
const ZIPF_EXPONENT: f64 = 1.0;
const LEARNING_RATE: f32 = 0.05;
/// In a traced window, every this-many-th step is replayed stage by stage.
const REPLAY_EVERY: usize = 3;

impl TrainSpec {
    fn dropless(&self) -> bool {
        self.capacity_factor == 0.0
    }

    fn config(&self) -> MoeConfig {
        MoeConfig::new(self.model_dim, self.hidden_dim, self.experts)
            .with_top_k(self.top_k)
            .with_capacity_factor(self.capacity_factor)
    }

    /// Slots per expert of the padded path (the gate's Equation 1).
    fn capacity(&self) -> usize {
        let (k, t, e) = (self.top_k as f64, self.tokens as f64, self.experts as f64);
        ((k * self.capacity_factor * t / e).ceil() as usize).max(1)
    }

    fn nominal_steps(&self, seconds: f64) -> usize {
        ((self.steps_per_second * seconds).round() as usize).max(1)
    }
}

/// A built workload: the layer and its seeded inputs.
pub struct TrainState {
    pub spec: &'static TrainSpec,
    pub layer: MoeLayer,
    pub batches: Vec<Tensor>,
    pub targets: Vec<Vec<f32>>,
}

/// Builds the layer and the batch pool from `seed`.
pub fn setup(spec: &'static TrainSpec, seed: u64) -> Res<TrainState> {
    let (t, m) = (spec.tokens, spec.model_dim);
    let layer = adapter::layer_new(&spec.config(), Rng64::new(seed, 1).next_u64())?;
    let mut rng = Rng64::new(seed, 2);
    // The fixed target: a linear teacher y = x·A, A ~ N(0, 1/M).
    let scale = 1.0 / (m as f32).sqrt();
    let teacher: Vec<f32> = rng.normals(m * m).into_iter().map(|a| a * scale).collect();
    let clusters = spec
        .clustered
        .then(|| ZipfClusters::new(&mut rng, CLUSTERS, m, ZIPF_EXPONENT));
    let mut batches = Vec::with_capacity(POOL);
    let mut targets = Vec::with_capacity(POOL);
    for _ in 0..POOL {
        let rows = match &clusters {
            Some(c) => c.draw(&mut rng, t).0,
            None => rng.normals(t * m),
        };
        let mut target = vec![0.0f32; t * m];
        for (x, y) in rows.chunks(m).zip(target.chunks_mut(m)) {
            for (xi, a_row) in x.iter().zip(teacher.chunks(m)) {
                for (yj, a) in y.iter_mut().zip(a_row) {
                    *yj += xi * a;
                }
            }
        }
        targets.push(target);
        batches.push(adapter::tensor(rows, &[t, m])?);
    }
    Ok(TrainState {
        spec,
        layer,
        batches,
        targets,
    })
}

/// The set-up's warm-up: checks that a training `forward` equals
/// `infer_with` at the same capacity factor bit for bit, then runs the
/// fixed number of full steps. Returns the first check's failure, if any.
pub fn warm_up(st: &mut TrainState) -> Res<Option<String>> {
    let cf = st.spec.capacity_factor;
    let inferred = adapter::layer_infer_with(&st.layer, &st.batches[0], cf)?;
    let trained = adapter::layer_forward(&mut st.layer, &st.batches[0])?;
    let mismatch = (!bitwise_eq(inferred.output.as_slice(), trained.output.as_slice()))
        .then(|| "first forward differs from infer_with at the same capacity factor".to_string());
    for i in 0..st.spec.warmup_steps {
        step(st, i, &mut None)?;
    }
    Ok(mismatch)
}

/// What one step reports besides its time.
struct StepOut {
    loss: f64,
    dropped: usize,
    load: Vec<usize>,
    /// Seconds spent in the loop's own loss code.
    loss_s: f64,
    output: Tensor,
}

fn scoped<R>(rec: &mut Option<&mut Recorder>, name: &'static str, body: impl FnOnce() -> R) -> R {
    match rec {
        Some(r) => r.scope(Track::E2e, name, body),
        None => body(),
    }
}

/// `0.5·mean((y − t)²)` and its gradient with respect to `y`, scaled so
/// a step's size does not depend on the batch's token count.
fn mse(y: &[f32], target: &[f32], tokens: usize) -> (f64, Vec<f32>) {
    let inv = 1.0 / tokens as f32;
    let mut loss = 0.0f64;
    let grad = y
        .iter()
        .zip(target)
        .map(|(y, t)| {
            let d = y - t;
            loss += f64::from(d * d);
            d * inv
        })
        .collect();
    (0.5 * loss / y.len() as f64, grad)
}

/// One training step on batch `i mod POOL`.
fn step(st: &mut TrainState, i: usize, rec: &mut Option<&mut Recorder>) -> Res<StepOut> {
    let b = i % POOL;
    let (t, m) = (st.spec.tokens, st.spec.model_dim);
    let out = scoped(rec, "core.forward", || {
        adapter::layer_forward(&mut st.layer, &st.batches[b])
    })?;
    let t0 = Instant::now();
    let (loss, d_out) = scoped(rec, "bench.loss", || -> Res<_> {
        let (loss, grad) = mse(out.output.as_slice(), &st.targets[b], t);
        Ok((loss, adapter::tensor(grad, &[t, m])?))
    })?;
    let loss_s = t0.elapsed().as_secs_f64();
    scoped(rec, "core.backward", || {
        adapter::layer_backward(&mut st.layer, &d_out)
    })?;
    scoped(rec, "core.opt", || {
        adapter::layer_step(&mut st.layer, LEARNING_RATE)
    });
    Ok(StepOut {
        loss,
        dropped: out.dropped,
        load: out.expert_load,
        output: out.output,
        loss_s,
    })
}

/// What a window of steps measured.
#[derive(Default)]
pub struct Window {
    pub step_ms: Vec<f64>,
    pub losses: Vec<f64>,
    /// Seconds in steps (replays excluded).
    pub busy_s: f64,
    pub loss_s: f64,
    pub failures: Vec<String>,
    pub failed: u64,
    /// Per step: rows routed after the capacity clamp, rows dropped, and
    /// the largest expert load over the mean.
    pub routed_rows: Vec<u64>,
    pub dropped_rows: Vec<u64>,
    pub load_max_over_mean: Vec<f64>,
    /// Digest of the forward output of the window's `min`-th step, the
    /// last one every run makes.
    pub digest: u64,
}

impl Window {
    pub fn steps(&self) -> usize {
        self.step_ms.len()
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(msg);
        }
    }

    /// Appends a later window of the same kind.
    fn extend(&mut self, later: Window) {
        self.step_ms.extend(later.step_ms);
        self.losses.extend(later.losses);
        self.busy_s += later.busy_s;
        self.loss_s += later.loss_s;
        self.failed += later.failed;
        self.failures.extend(later.failures);
        self.routed_rows.extend(later.routed_rows);
        self.dropped_rows.extend(later.dropped_rows);
        self.load_max_over_mean.extend(later.load_max_over_mean);
        self.digest = later.digest;
    }

    fn tokens_per_s(&self, tokens: usize) -> f64 {
        (self.steps() * tokens) as f64 / self.busy_s
    }
}

/// Runs steps `first..` until `nominal` are done or `deadline` passes,
/// but never fewer than `min`. With a recorder, every step is a `step`
/// span, and every `replay_every`-th step's stages are replayed after it.
pub fn run_window(
    st: &mut TrainState,
    first: usize,
    nominal: usize,
    min: usize,
    deadline: Instant,
    mut rec: Option<&mut Recorder>,
    replay_every: usize,
) -> Window {
    let spec = st.spec;
    let mut w = Window::default();
    let want = (spec.top_k * spec.tokens) as u64;
    for n in 0..nominal.max(min) {
        if n >= min && Instant::now() >= deadline {
            break;
        }
        let i = first + n;
        let replay = rec.is_some() && n % replay_every == 0;
        let parts = replay.then(|| adapter::layer_parts(&st.layer));
        let t0 = Instant::now();
        let span = rec.as_mut().map(|r| r.begin(Track::E2e, "step"));
        let out = step(st, i, &mut rec);
        if let (Some(r), Some(id)) = (rec.as_mut(), span) {
            r.end(id);
        }
        let dt = t0.elapsed().as_secs_f64();
        w.busy_s += dt;
        w.step_ms.push(dt * 1e3);
        match out {
            Err(e) => w.fail(format!("step {i}: {e}")),
            Ok(o) => {
                let routed: u64 = o.load.iter().sum::<usize>() as u64;
                if !o.loss.is_finite() {
                    w.fail(format!("step {i}: loss {}", o.loss));
                } else if spec.dropless() && (o.dropped != 0 || routed != want) {
                    w.fail(format!(
                        "step {i}: dropless step dropped {} and routed {routed} of {want}",
                        o.dropped
                    ));
                }
                let max = o.load.iter().copied().max().unwrap_or(0) as f64;
                w.load_max_over_mean
                    .push(max * spec.experts as f64 / (routed.max(1)) as f64);
                w.routed_rows.push(routed);
                w.dropped_rows.push(o.dropped as u64);
                w.losses.push(o.loss);
                w.loss_s += o.loss_s;
                if n + 1 == min {
                    w.digest = fnv_digest(o.output.as_slice());
                }
            }
        }
        if let (Some(r), Some(parts)) = (rec.as_mut(), parts) {
            let replayed = parts.and_then(|p| replay_stages(st, i % POOL, p, r));
            if let Err(e) = replayed {
                w.fail(format!("replay of step {i}: {e}"));
            }
        }
    }
    w
}

/// Re-runs one step's stages on the batch and the weights the real step
/// used, each through its layer's public function, as `Replay` spans.
fn replay_stages(
    st: &TrainState,
    b: usize,
    (router, mut experts): (adapter::LinearRouter, adapter::ExpertsBlock),
    rec: &mut Recorder,
) -> Res<()> {
    let spec = st.spec;
    let (t, m, v) = (spec.tokens, spec.model_dim, spec.hidden_dim);
    let x = &st.batches[b];
    let cfg = spec.config().route_config();
    let r = Track::Replay;
    let logits = rec.scope(r, "gate.logits", || adapter::router_logits(&router, x))?;
    let probs = rec.scope(r, "tensor.softmax", || adapter::softmax_last(&logits));
    let routing = rec.scope(r, "gate.route", || adapter::route(&probs, &cfg))?;
    // Built on both paths, because the grouped-GEMM row below wants real
    // CSR offsets; only the dropless step has it as a stage.
    let ragged = if spec.dropless() {
        rec.scope(r, "gate.ragged", || adapter::ragged_from_routing(&routing))
    } else {
        adapter::ragged_from_routing(&routing)
    };
    let packed = adapter::ragged_encode(x, &routing, &ragged)?;
    let (enc, y, out);
    if spec.dropless() {
        enc = rec.scope(r, "kernels.encode", || {
            adapter::ragged_encode(x, &routing, &ragged)
        })?;
        y = rec.scope(r, "experts.ffn_fwd", || {
            adapter::experts_forward_grouped(&mut experts, &enc, &ragged.offsets)
        })?;
        out = rec.scope(r, "kernels.decode", || {
            adapter::ragged_decode(&y, &routing, &ragged, t)
        })?;
    } else {
        enc = rec.scope(r, "kernels.encode", || adapter::fast_encode(x, &routing))?;
        y = rec.scope(r, "experts.ffn_fwd", || {
            adapter::experts_forward(&mut experts, &enc)
        })?;
        out = rec.scope(r, "kernels.decode", || {
            adapter::fast_decode(&y, &routing, t)
        })?;
    }
    let (_, grad) = mse(out.as_slice(), &st.targets[b], t);
    let d_out = adapter::tensor(grad, &[t, m])?;
    if spec.dropless() {
        let d_y = rec.scope(r, "kernels.decode_bwd", || {
            adapter::ragged_decode_backward(&d_out, &y, &routing, &ragged)
        })?;
        let d_enc = rec.scope(r, "experts.ffn_bwd", || {
            adapter::experts_backward_grouped(&mut experts, &d_y)
        })?;
        rec.scope(r, "kernels.encode_bwd", || {
            adapter::ragged_encode_backward(&d_enc, &routing, &ragged, t)
        })?;
        rec.scope(r, "experts.ffn_infer", || {
            adapter::experts_infer_grouped(&experts, &enc, &ragged.offsets)
        })?;
    } else {
        let d_y = rec.scope(r, "kernels.decode_bwd", || {
            adapter::fast_decode_backward(&d_out, &y, &routing)
        })?;
        let d_enc = rec.scope(r, "experts.ffn_bwd", || {
            adapter::experts_backward(&mut experts, &d_y)
        })?;
        rec.scope(r, "kernels.encode_bwd", || {
            adapter::fast_encode_backward(&d_enc, &routing, t)
        })?;
        rec.scope(r, "experts.ffn_infer", || {
            adapter::experts_infer(&experts, &enc)
        })?;
    }
    // The raw GEMMs at this step's shapes: one expert's rows × M × V
    // dense, and every expert's rows in one grouped launch.
    let rows = gemm_rows(spec, ragged.total());
    let a = adapter::tensor(packed.as_slice()[..rows * m].to_vec(), &[rows, m])?;
    let w1 = adapter::experts_w1(&experts);
    let w = adapter::tensor(w1.as_slice()[..m * v].to_vec(), &[m, v])?;
    rec.scope(r, "tensor.gemm", || adapter::matmul(&a, &w))?;
    let mut h = vec![0.0f32; ragged.total() * v];
    rec.scope(r, "tensor.grouped_gemm", || {
        adapter::grouped_gemm(
            packed.as_slice(),
            w1.as_slice(),
            &mut h,
            &ragged.offsets,
            m,
            v,
        );
    });
    Ok(())
}

/// Rows one expert computes in a step: its capacity when padded, the
/// mean bin when dropless.
fn gemm_rows(spec: &TrainSpec, routed: usize) -> usize {
    if spec.dropless() {
        (routed / spec.experts).max(1)
    } else {
        spec.capacity().min(routed)
    }
}

/// Loss must fall: the mean over the last pool-full of steps is below
/// the mean over the first.
fn loss_fell(losses: &[f64]) -> bool {
    if losses.len() < 2 * POOL {
        return true;
    }
    let mean = |s: &[f64]| s.iter().sum::<f64>() / s.len() as f64;
    mean(&losses[losses.len() - POOL..]) < mean(&losses[..POOL])
}

/// Runs the workload for the contract: end-to-end metrics untraced, or
/// the per-layer ledger from a traced run.
pub fn run(spec: &'static TrainSpec, args: &RunArgs) -> Res<Outcome> {
    let ((mut st, mismatch), setups) = timed_setups(args, || {
        let mut st = setup(spec, args.seed)?;
        let mismatch = warm_up(&mut st)?;
        Ok((st, mismatch))
    })?;
    let setup_s = median(&setups);
    let mut outcome = Outcome::default();
    outcome.note("setup_s samples", format!("{setups:.4?}"));
    if let Some(msg) = mismatch {
        outcome.fail_check(msg);
    }
    let nominal = spec.nominal_steps(args.seconds);
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds);
    if !args.trace {
        let w = run_window(
            &mut st,
            spec.warmup_steps,
            nominal,
            MIN_STEPS,
            deadline,
            None,
            1,
        );
        let steps = Summary::of(&w.step_ms);
        outcome.absorb(&w, spec);
        outcome.note("step samples", steps.n.to_string());
        outcome.note("bench.step tail", steps.tail_label("ms"));
        outcome.note(
            "final loss",
            format!("{:.6}", w.losses.last().copied().unwrap_or(f64::NAN)),
        );
        outcome.note("output digest", format!("{:016x}", w.digest));
        outcome.metrics = end_to_end_metrics(&[
            ("tokens_per_s", w.tokens_per_s(spec.tokens)),
            ("step_p50_ms", steps.p50),
            // A training caller waits one step for its result: the
            // request is the step.
            ("req_p50_ms", steps.p50),
            ("req_p90_ms", steps.p90),
            ("peak_rss_mb", host::peak_rss_mb()),
            ("setup_s", setup_s),
        ]);
        return Ok(outcome);
    }

    // Traced run. Three kinds of window take turns, so slow drift of the
    // host lands on all of them alike: untraced (the baseline of both
    // overheads and of the runtime counters), span-recorded with replays,
    // and with the program's own telemetry enabled. Each runs a fixed
    // share of the nominal count whatever the clock says, so every count
    // below repeats exactly.
    let mut first = spec.warmup_steps;
    let mut rt = RtDelta::default();
    let mut rec = Recorder::new();
    let (mut plain, mut traced, mut with_tel) =
        (Window::default(), Window::default(), Window::default());
    for _ in 0..TRACE_ROUNDS {
        let n = trace_window(nominal, 25);
        plain.extend(rt.around(|| run_window(&mut st, first, n, n, deadline, None, 1)));
        first += n;
        let n = trace_window(nominal, 20);
        traced.extend(run_window(
            &mut st,
            first,
            n,
            n,
            deadline,
            Some(&mut rec),
            REPLAY_EVERY,
        ));
        first += n;
        let n = trace_window(nominal, 25);
        adapter::layer_set_telemetry(&mut st.layer, Telemetry::enabled());
        with_tel.extend(run_window(&mut st, first, n, n, deadline, None, 1));
        adapter::layer_set_telemetry(&mut st.layer, Telemetry::disabled());
        first += n;
    }
    for w in [&plain, &traced, &with_tel] {
        outcome.absorb(w, spec);
    }
    args.write_trace(spec.name, &rec)?;

    let med = |track, name| median(&rec.durations_ms(track, name));
    let stage = |name| med(Track::Replay, name);
    let (m, v) = (spec.model_dim as f64, spec.hidden_dim as f64);
    let per_step = |rows: &[u64]| rows.iter().sum::<u64>() as f64 / rows.len().max(1) as f64;
    let (routed, dropped) = (per_step(&plain.routed_rows), per_step(&plain.dropped_rows));
    let computed = if spec.dropless() {
        routed
    } else {
        (spec.experts * spec.capacity()) as f64
    };
    let gemm_gflops =
        2.0 * gemm_rows(spec, routed as usize) as f64 * m * v / stage("tensor.gemm") * 1e-6;
    let ffn_gflops = 4.0 * computed * m * v / stage("experts.ffn_infer") * 1e-6;
    let step_ms = median(&traced.step_ms);
    let (fwd, bwd) = (
        med(Track::E2e, "core.forward"),
        med(Track::E2e, "core.backward"),
    );
    let fwd_stages = [
        "gate.logits",
        "tensor.softmax",
        "gate.route",
        "gate.ragged",
        "kernels.encode",
        "experts.ffn_fwd",
        "kernels.decode",
    ]
    .iter()
    .map(|s| stage(s))
    .sum::<f64>();
    let bwd_stages = [
        "kernels.decode_bwd",
        "experts.ffn_bwd",
        "kernels.encode_bwd",
    ]
    .iter()
    .map(|s| stage(s))
    .sum::<f64>();
    let plain_tps = plain.tokens_per_s(spec.tokens);
    let all_steps: Vec<f64> = [&plain, &traced, &with_tel]
        .iter()
        .flat_map(|w| w.step_ms.iter().copied())
        .collect();
    outcome.note(
        "traced steps",
        format!(
            "{} ({} replayed)",
            traced.steps(),
            rec.durations_ms(Track::Replay, "gate.route").len()
        ),
    );
    outcome.note(
        "step self time",
        format!(
            "{:.4} ms of {:.4} ms",
            median(&rec.self_ms(Track::E2e, "step")),
            step_ms
        ),
    );
    let mut values = rt.metrics(plain.steps()).to_vec();
    values.extend([
        ("tensor.gemm_gflops", gemm_gflops),
        (
            "tensor.grouped_gemm_gflops",
            2.0 * routed * m * v / stage("tensor.grouped_gemm") * 1e-6,
        ),
        ("tensor.softmax_ms", stage("tensor.softmax")),
        ("gate.logits_ms", stage("gate.logits")),
        ("gate.route_ms", stage("gate.route")),
        (
            "gate.step_share",
            (stage("gate.logits") + stage("gate.route") + stage("gate.ragged")) / step_ms,
        ),
        ("gate.load_max_over_mean", median(&plain.load_max_over_mean)),
        (
            "gate.dropped_share",
            dropped / (spec.top_k * spec.tokens) as f64,
        ),
        ("gate.routed_rows_per_step", routed),
        ("kernels.encode_ms", stage("kernels.encode")),
        ("kernels.decode_ms", stage("kernels.decode")),
        ("kernels.encode_bwd_ms", stage("kernels.encode_bwd")),
        ("kernels.decode_bwd_ms", stage("kernels.decode_bwd")),
        // Bytes computed from shapes: routed rows read, computed rows
        // written (padding included), 4 bytes per feature.
        (
            "kernels.encode_gbps",
            (routed + computed) * m * 4.0 / stage("kernels.encode") * 1e-6,
        ),
        ("experts.ffn_fwd_ms", stage("experts.ffn_fwd")),
        ("experts.ffn_bwd_ms", stage("experts.ffn_bwd")),
        ("experts.ffn_infer_ms", stage("experts.ffn_infer")),
        ("experts.ffn_gflops", ffn_gflops),
        ("experts.ffn_over_gemm", ffn_gflops / gemm_gflops),
        (
            "experts.step_share",
            (stage("experts.ffn_fwd") + stage("experts.ffn_bwd")) / step_ms,
        ),
        ("experts.useful_rows_share", routed / computed),
        ("core.fwd_ms", fwd),
        ("core.bwd_ms", bwd),
        ("core.opt_ms", med(Track::E2e, "core.opt")),
        ("core.fwd_unattributed_share", (fwd - fwd_stages) / fwd),
        ("core.bwd_unattributed_share", (bwd - bwd_stages) / bwd),
        (
            "obs.telemetry_enabled_overhead_pct",
            (plain_tps / with_tel.tokens_per_s(spec.tokens) - 1.0) * 100.0,
        ),
        (
            "bench.trace_overhead_pct",
            (plain_tps / traced.tokens_per_s(spec.tokens) - 1.0) * 100.0,
        ),
        ("bench.loadgen_share", plain.loss_s / plain.busy_s),
        ("bench.step_p99_ms", Summary::of(&all_steps).p99),
    ]);
    outcome.metrics = per_layer_metrics(&values);
    Ok(outcome)
}

impl Outcome {
    /// Folds a window's step counts and failures into the run's.
    fn absorb(&mut self, w: &Window, spec: &TrainSpec) {
        self.attempted += w.steps() as u64;
        self.failed += w.failed;
        self.failures.extend(w.failures.iter().cloned());
        if !loss_fell(&w.losses) && w.steps() >= MIN_STEPS {
            self.fail_check(format!("{}: loss did not fall over the window", spec.name));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn far() -> Instant {
        Instant::now() + std::time::Duration::from_secs(3600)
    }

    #[test]
    fn same_seed_same_counts_and_digest_other_seed_same_regime() {
        let run = |seed| {
            let mut st = setup(&MANY_EXPERTS, seed).unwrap();
            run_window(&mut st, 0, 3, 3, far(), None, 1)
        };
        let (a, b, c) = (run(1), run(1), run(2));
        assert_eq!(a.failed, 0, "{:?}", a.failures);
        assert_eq!(a.routed_rows, b.routed_rows);
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.losses, b.losses);
        assert_ne!(a.digest, c.digest, "another seed gives other inputs");
        // Dropless: every step routes exactly k·T rows, on any seed.
        assert!(a
            .routed_rows
            .iter()
            .chain(&c.routed_rows)
            .all(|&r| r == 2 * 8192));
        for w in [&a, &c] {
            assert!(
                w.load_max_over_mean.iter().all(|&s| s >= 4.0),
                "{:?}",
                w.load_max_over_mean
            );
        }
    }

    #[test]
    fn wide_ffn_is_balanced_and_its_warm_up_check_passes() {
        for seed in [3, 4] {
            let mut st = setup(&WIDE_FFN, seed).unwrap();
            assert_eq!(warm_up(&mut st).unwrap(), None);
            let w = run_window(&mut st, 0, 2, 2, far(), None, 1);
            assert_eq!(w.failed, 0, "{:?}", w.failures);
            assert!(
                w.load_max_over_mean.iter().all(|&s| s <= 1.2),
                "{:?}",
                w.load_max_over_mean
            );
            assert!(w.losses.iter().all(|l| l.is_finite()));
        }
    }

    #[test]
    fn a_window_stops_at_its_deadline_but_not_before_its_minimum() {
        let mut st = setup(&MANY_EXPERTS, 5).unwrap();
        let w = run_window(&mut st, 0, 50, 2, Instant::now(), None, 1);
        assert_eq!(w.steps(), 2);
    }

    #[test]
    fn traced_window_replays_every_stage_and_accounts_for_the_step() {
        let mut st = setup(&MANY_EXPERTS, 6).unwrap();
        let mut rec = Recorder::new();
        let w = run_window(&mut st, 0, 2, 2, far(), Some(&mut rec), 2);
        assert_eq!(w.failed, 0, "{:?}", w.failures);
        assert_eq!(rec.durations_ms(Track::E2e, "step").len(), 2);
        for name in [
            "gate.logits",
            "gate.route",
            "gate.ragged",
            "kernels.encode",
            "experts.ffn_fwd",
            "experts.ffn_bwd",
            "tensor.gemm",
            "tensor.grouped_gemm",
        ] {
            assert_eq!(rec.durations_ms(Track::Replay, name).len(), 1, "{name}");
        }
        // A step's children and its self time add up to the step.
        let own = rec.self_ns_all();
        let step = &rec.spans()[0];
        let kids: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent == Some(0))
            .map(|s| s.dur_ns())
            .sum();
        assert_eq!(own[0] + kids, step.dur_ns());
    }

    #[test]
    fn loss_check_wants_a_fall() {
        assert!(loss_fell(&[4.0, 4.0, 4.0, 4.0, 3.0, 3.0, 3.0, 3.0]));
        assert!(!loss_fell(&[1.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 2.0]));
        assert!(loss_fell(&[1.0]));
    }
}
