//! The serving engine: a deterministic discrete-event loop joining
//! the ingress queue, the continuous batcher, and the micro-batch
//! executor, with per-request latency/SLO accounting exported through
//! `obs`.
//!
//! Time is **virtual**: the clock advances from the arrival trace and
//! a [`ServiceModel`] (a fixed per-step cost curve), never from the
//! wall. Every step's tensor math really executes — the outputs in
//! each [`crate::request::RequestOutcome`] are the layer's actual
//! numbers — but scheduling decisions replay bit-identically from a
//! seed, which is what lets CI assert latency distributions and the
//! proptests assert admission invariants.

use tutel_obs::{AnomalyRecord, DecisionRecord, Telemetry};
use tutel_tensor::Tensor;

use crate::batcher::{BatcherConfig, ContinuousBatcher};
use crate::exec::{ExecConfig, StepExecutor};
use crate::model::ServeModel;
use crate::queue::IngressQueue;
use crate::request::{Request, RequestId, RequestOutcome, ServeError};

/// Deterministic cost of one micro-batch step in virtual µs:
/// `step_floor_us + per_token_us · occupancy`. The floor models the
/// fixed dispatch/combine launch overhead that continuous batching
/// amortizes across co-scheduled requests — the entire goodput
/// argument lives in this term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServiceModel {
    /// Fixed cost per step (kernel launches, All-to-All setup).
    pub step_floor_us: u64,
    /// Marginal cost per token row in the step.
    pub per_token_us: u64,
}

impl ServiceModel {
    /// Virtual duration of a step serving `occupancy` rows.
    pub fn step_cost_us(&self, occupancy: usize) -> u64 {
        self.step_floor_us + self.per_token_us * occupancy as u64
    }
}

/// Everything the engine needs beyond the model.
#[derive(Debug, Clone, Copy)]
pub struct EngineConfig {
    /// Batcher knobs (slots, fill-or-timeout patience).
    pub batcher: BatcherConfig,
    /// Virtual step cost curve.
    pub service: ServiceModel,
    /// Ingress queue bound; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Distributed execution knobs.
    pub exec: ExecConfig,
}

/// Aggregate results of one engine run.
pub struct ServeReport {
    /// Per-request outcomes, in completion order.
    pub outcomes: Vec<RequestOutcome>,
    /// Requests rejected at the full ingress queue.
    pub rejected: u64,
    /// Micro-batch steps executed.
    pub steps: u64,
    /// Median end-to-end latency (µs) over completed requests.
    pub p50_us: u64,
    /// 99th-percentile end-to-end latency (µs).
    pub p99_us: u64,
    /// Completed requests that finished past their deadline.
    pub deadline_misses: u64,
    /// Token rows of deadline-meeting requests per virtual second.
    pub goodput_tps: f64,
    /// Virtual time of the last completion.
    pub makespan_us: u64,
    /// Total All-to-All payload elements across all steps.
    pub a2a_elems: u64,
}

impl ServeReport {
    /// Completed requests.
    pub fn completed(&self) -> usize {
        self.outcomes.len()
    }
}

/// Exact percentile over a latency population: index
/// `round(q · (n−1))` of the sorted values (deterministic, no
/// interpolation).
fn percentile_us(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = (q * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs an open-trace workload: `requests` arrive per their
/// `arrival_us` stamps, flow through the bounded queue and the
/// continuous batcher, and execute step by step until drained.
///
/// # Errors
///
/// Propagates executor errors; queue rejections are *not* errors (the
/// report counts them).
pub fn run_trace(
    model: &ServeModel,
    cfg: &EngineConfig,
    requests: Vec<Request>,
    tel: &Telemetry,
) -> Result<ServeReport, ServeError> {
    let mut engine = Engine::new(model, cfg, tel)?;
    for req in requests {
        engine.submit(req);
    }
    engine.drain()?;
    Ok(engine.finish())
}

/// State of one request being served.
struct Tracked {
    req: Request,
    admitted_us: u64,
    first_token_us: Option<u64>,
    served: usize,
    steps: u64,
    out_rows: Vec<f32>,
}

/// The discrete-event serving loop. [`run_trace`] covers the open
/// arrival model; the closed-loop generator drives [`Engine`]
/// directly so completions can trigger the next arrivals.
///
/// The engine owns one [`StepExecutor`] for its whole life: its rank
/// threads are spawned and its rank blocks built in [`Engine::new`],
/// so [`Engine::pump`] spawns no thread and slices no weight.
pub struct Engine<'a> {
    model: &'a ServeModel,
    cfg: EngineConfig,
    executor: StepExecutor<'a>,
    tel: &'a Telemetry,
    queue: IngressQueue,
    batcher: ContinuousBatcher,
    /// Requests offered to the batcher but not yet finished, by id.
    tracked: Vec<Tracked>,
    clock_us: u64,
    steps: u64,
    a2a_elems: u64,
    outcomes: Vec<RequestOutcome>,
    /// Ids the current caller of [`Engine::pump`] saw complete.
    just_finished: Vec<RequestId>,
}

impl<'a> Engine<'a> {
    /// Creates an idle engine at virtual time zero, with its executor's
    /// rank threads parked and rank blocks built.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] if the model and exec config disagree;
    /// [`ServeError::Tensor`] if the expert bank does not split.
    pub fn new(
        model: &'a ServeModel,
        cfg: &EngineConfig,
        tel: &'a Telemetry,
    ) -> Result<Self, ServeError> {
        Ok(Engine {
            model,
            cfg: *cfg,
            executor: StepExecutor::new(model, cfg.exec, None)?,
            tel,
            queue: IngressQueue::new(cfg.queue_capacity),
            batcher: ContinuousBatcher::new(cfg.batcher),
            tracked: Vec::new(),
            clock_us: 0,
            steps: 0,
            a2a_elems: 0,
            outcomes: Vec::new(),
            just_finished: Vec::new(),
        })
    }

    /// Current virtual time.
    pub fn now_us(&self) -> u64 {
        self.clock_us
    }

    /// Offers a request to the bounded ingress queue; a full queue
    /// rejects it (counted, not an error).
    pub fn submit(&mut self, req: Request) {
        self.tel.add_counter("serve.requests.offered", 1);
        if self.queue.push(req).is_err() {
            self.tel.add_counter("serve.requests.rejected", 1);
        }
    }

    /// Whether any work remains anywhere in the pipeline.
    pub fn has_work(&self) -> bool {
        !self.queue.is_empty() || !self.batcher.is_idle()
    }

    /// Advances the loop by one event — an admission wait or an
    /// executed step — and returns the ids of requests that completed
    /// during it. Returns `Ok(false)` when no work remains.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn pump(&mut self) -> Result<bool, ServeError> {
        self.just_finished.clear();
        // Ingest everything that has arrived by now, admit EDF; while
        // idle, jump the clock to the next arrival (the clock is
        // monotone, so this loop consumes the queue and terminates).
        loop {
            self.ingest();
            if self.batcher.inflight_len() > 0 {
                break;
            }
            match self.queue.next_arrival_us() {
                None => return Ok(!self.just_finished.is_empty()),
                Some(t) => self.clock_us = self.clock_us.max(t),
            }
        }
        // Fill-or-timeout: wait for company while it can still show
        // up within the admission patience window.
        while !self
            .batcher
            .should_launch(self.clock_us, self.queue.next_arrival_us())
        {
            let fire_at = self.batcher.launch_deadline_us();
            let next = self.queue.next_arrival_us().unwrap_or(u64::MAX);
            self.clock_us = self.clock_us.max(next.min(fire_at));
            self.ingest();
        }
        self.execute_one_step()?;
        Ok(true)
    }

    /// Runs the loop until no work remains.
    ///
    /// # Errors
    ///
    /// Propagates executor failures.
    pub fn drain(&mut self) -> Result<(), ServeError> {
        while self.pump()? {}
        Ok(())
    }

    /// Ids that completed during the last [`Engine::pump`].
    pub fn completed_last_pump(&self) -> &[RequestId] {
        &self.just_finished
    }

    fn ingest(&mut self) {
        for req in self.queue.drain_arrived(self.clock_us) {
            if req.num_tokens() == 0 {
                // Degenerate but legal: complete instantly.
                self.outcomes.push(RequestOutcome {
                    id: req.id,
                    output: Tensor::zeros(&[0, self.model.dims.model_dim]),
                    arrival_us: req.arrival_us,
                    deadline_us: req.deadline_us,
                    admitted_us: req.arrival_us,
                    first_token_us: req.arrival_us,
                    finish_us: req.arrival_us,
                    steps: 0,
                });
                continue;
            }
            self.batcher
                .offer(req.id, req.num_tokens(), req.arrival_us, req.deadline_us);
            self.tracked.push(Tracked {
                admitted_us: 0,
                first_token_us: None,
                served: 0,
                steps: 0,
                out_rows: Vec::with_capacity(req.num_tokens() * self.model.dims.model_dim),
                req,
            });
        }
        for (id, at) in self.batcher.admit(self.clock_us) {
            if let Some(t) = self.tracked.iter_mut().find(|t| t.req.id == id) {
                t.admitted_us = at;
            }
        }
    }

    fn execute_one_step(&mut self) -> Result<(), ServeError> {
        let (plan, finished) = self.batcher.plan_step();
        let occupancy = plan.occupancy();
        if occupancy == 0 {
            return Ok(());
        }
        let m = self.model.dims.model_dim;

        // Gather the step's token rows in plan order.
        let mut rows = Vec::with_capacity(occupancy * m);
        for &(id, tok) in &plan.entries {
            let t = self
                .tracked
                .iter()
                .find(|t| t.req.id == id)
                .ok_or_else(|| ServeError::Config(format!("planned unknown request {id}")))?;
            let src = t.req.tokens.as_slice();
            let row = src
                .get(tok * m..(tok + 1) * m)
                .ok_or_else(|| ServeError::Config(format!("request {id} has no token {tok}")))?;
            rows.extend_from_slice(row);
        }
        let batch = Tensor::from_vec(rows, &[occupancy, m])?;

        let span = self
            .tel
            .span("serve.step")
            .tag("tokens", occupancy as u64)
            .tag("inflight", plan.entries.len() as u64);
        let step_out = self.executor.step(&batch)?;
        drop(span);
        self.a2a_elems += step_out.a2a_elems;
        self.steps += 1;
        self.tel.add_counter("serve.steps", 1);
        self.tel
            .add_counter("serve.tokens.served", occupancy as u64);
        self.tel.add_counter("serve.a2a.elems", step_out.a2a_elems);
        self.tel
            .set_gauge("serve.capacity", step_out.capacity as f64);

        // Advance the virtual clock by the step's modeled cost and
        // scatter outputs back to their requests.
        self.clock_us += self.cfg.service.step_cost_us(occupancy);
        let now = self.clock_us;
        let out = step_out.outputs.as_slice();
        for (i, &(id, _)) in plan.entries.iter().enumerate() {
            if let Some(t) = self.tracked.iter_mut().find(|t| t.req.id == id) {
                t.out_rows.extend_from_slice(&out[i * m..(i + 1) * m]);
                t.served += 1;
                t.steps += 1;
                t.first_token_us.get_or_insert(now);
            }
        }
        for id in finished {
            self.finalize(id, now)?;
        }
        Ok(())
    }

    fn finalize(&mut self, id: RequestId, now: u64) -> Result<(), ServeError> {
        let idx = self
            .tracked
            .iter()
            .position(|t| t.req.id == id)
            .ok_or_else(|| ServeError::Config(format!("finished unknown request {id}")))?;
        let t = self.tracked.swap_remove(idx);
        let n = t.req.num_tokens();
        let outcome = RequestOutcome {
            id,
            output: Tensor::from_vec(t.out_rows, &[n, self.model.dims.model_dim])?,
            arrival_us: t.req.arrival_us,
            deadline_us: t.req.deadline_us,
            admitted_us: t.admitted_us,
            first_token_us: t.first_token_us.unwrap_or(now),
            finish_us: now,
            steps: t.steps,
        };
        let latency = outcome.latency_us();
        let span = self
            .tel
            .span("serve.request")
            .request(id)
            .tag("tokens", n as u64)
            .tag("latency_us", latency);
        drop(span);
        self.tel.record_hist("serve.latency_us", latency as f64);
        self.tel.add_counter("serve.requests.completed", 1);
        if outcome.missed_deadline() {
            self.tel.add_counter("serve.deadline_miss", 1);
            self.tel.anomaly(AnomalyRecord {
                kind: "serve.deadline_miss".into(),
                rank: None,
                request_id: Some(id),
                ratio: latency as f64
                    / outcome
                        .deadline_us
                        .saturating_sub(outcome.arrival_us)
                        .max(1) as f64,
                detail: format!(
                    "request {id} finished {}us past its deadline (latency {latency}us)",
                    outcome.finish_us - outcome.deadline_us
                ),
                step: None,
            });
        }
        self.just_finished.push(id);
        self.outcomes.push(outcome);
        Ok(())
    }

    /// Closes the run: computes the latency distribution, flags
    /// straggler victims in the anomaly ring, stamps the audit log,
    /// and returns the report.
    pub fn finish(self) -> ServeReport {
        let mut latencies: Vec<u64> = self
            .outcomes
            .iter()
            .map(RequestOutcome::latency_us)
            .collect();
        latencies.sort_unstable();
        let p50 = percentile_us(&latencies, 0.50);
        let p99 = percentile_us(&latencies, 0.99);
        let misses = self.outcomes.iter().filter(|o| o.missed_deadline()).count() as u64;
        let makespan = self.outcomes.iter().map(|o| o.finish_us).max().unwrap_or(0);
        let good_tokens: u64 = self
            .outcomes
            .iter()
            .filter(|o| !o.missed_deadline())
            .map(|o| o.output.dims().first().copied().unwrap_or(0) as u64)
            .sum();
        let goodput = if makespan == 0 {
            0.0
        } else {
            good_tokens as f64 * 1e6 / makespan as f64
        };

        // Straggler alerts name their victim: any request whose
        // latency exceeds 3× the median is flagged with its id.
        if p50 > 0 {
            for o in &self.outcomes {
                let l = o.latency_us();
                if l > 3 * p50 {
                    self.tel.anomaly(AnomalyRecord {
                        kind: "serve.straggler".into(),
                        rank: None,
                        request_id: Some(o.id),
                        ratio: l as f64 / p50 as f64,
                        detail: format!("request {} latency {l}us vs p50 {p50}us", o.id),
                        step: None,
                    });
                }
            }
        }
        self.tel.set_gauge("serve.p50_us", p50 as f64);
        self.tel.set_gauge("serve.p99_us", p99 as f64);
        self.tel.set_gauge("serve.goodput_tps", goodput);
        // The adaptive audit log records what the serving tier ran
        // with, next to the decisions the adaptive machinery makes,
        // so a latency regression and its configuration sit side by
        // side.
        self.tel.decision(DecisionRecord {
            kind: "serve.batcher".into(),
            capacity_factor: 0.0,
            candidates: vec![
                ("p50_us".into(), p50 as f64 * 1e-6),
                ("p99_us".into(), p99 as f64 * 1e-6),
            ],
            chosen: format!(
                "{} slots={} timeout={}us",
                self.cfg.exec.label(),
                self.cfg.batcher.slots(),
                self.cfg.batcher.admit_timeout_us
            ),
            predicted_s: None,
            measured_s: Some(makespan as f64 * 1e-6),
            cause: None,
            precision: None,
            // Serving always routes `AutoMin`.
            dropless: true,
            step: None,
        });

        ServeReport {
            outcomes: self.outcomes,
            rejected: self.queue.rejected(),
            steps: self.steps,
            p50_us: p50,
            p99_us: p99,
            deadline_misses: misses,
            goodput_tps: goodput,
            makespan_us: makespan,
            a2a_elems: self.a2a_elems,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::Strategy;
    use crate::model::ModelDims;
    use tutel_comm::AllToAllAlgo;
    use tutel_tensor::Rng;

    fn engine_cfg(world: usize, slots: usize) -> EngineConfig {
        EngineConfig {
            batcher: BatcherConfig {
                max_batch_tokens: slots,
                max_inflight: slots,
                admit_timeout_us: 50,
            },
            service: ServiceModel {
                step_floor_us: 100,
                per_token_us: 10,
            },
            queue_capacity: 64,
            exec: ExecConfig {
                strategy: Strategy::P1,
                algo: AllToAllAlgo::Linear,
                degree: 1,
                world,
                threads: 1,
                dropless: true,
            },
        }
    }

    fn requests(seed: u64, n: usize, model_dim: usize) -> Vec<Request> {
        let mut rng = Rng::seed(seed);
        (0..n)
            .map(|i| {
                let tokens = rng.below(3) + 1;
                let arrival = i as u64 * 60;
                Request {
                    id: i as u64,
                    tokens: rng.normal_tensor(&[tokens, model_dim], 0.0, 1.0),
                    arrival_us: arrival,
                    deadline_us: arrival + 5_000,
                }
            })
            .collect()
    }

    #[test]
    fn trace_run_is_deterministic_and_complete() {
        let dims = ModelDims::small(1);
        let model = ServeModel::materialize(dims, 11).unwrap();
        let cfg = engine_cfg(1, 4);
        let tel = Telemetry::disabled();
        let a = run_trace(&model, &cfg, requests(3, 8, dims.model_dim), &tel).unwrap();
        let b = run_trace(&model, &cfg, requests(3, 8, dims.model_dim), &tel).unwrap();
        assert_eq!(a.completed(), 8);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.p50_us, b.p50_us);
        assert_eq!(a.p99_us, b.p99_us);
        for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
            assert_eq!(x.id, y.id);
            assert_eq!(x.finish_us, y.finish_us);
            assert_eq!(x.output.as_slice(), y.output.as_slice());
        }
    }

    #[test]
    fn batched_outputs_match_the_per_request_reference_bitwise() {
        let dims = ModelDims::small(2);
        let model = ServeModel::materialize(dims, 21).unwrap();
        let cfg = engine_cfg(2, 4);
        let tel = Telemetry::disabled();
        let reqs = requests(9, 10, dims.model_dim);
        let originals: Vec<Request> = reqs.clone();
        let report = run_trace(&model, &cfg, reqs, &tel).unwrap();
        assert_eq!(report.completed(), 10);
        for o in &report.outcomes {
            let req = originals.iter().find(|r| r.id == o.id).unwrap();
            let reference = crate::exec::reference_rows(&model, &req.tokens).unwrap();
            assert_eq!(
                o.output.as_slice(),
                reference.as_slice(),
                "request {} diverged from its solo reference",
                o.id
            );
        }
    }

    #[test]
    fn continuous_batching_beats_serial_on_an_overlapping_trace() {
        let dims = ModelDims::small(1);
        let model = ServeModel::materialize(dims, 5).unwrap();
        let tel = Telemetry::disabled();
        let continuous = run_trace(
            &model,
            &engine_cfg(1, 4),
            requests(7, 12, dims.model_dim),
            &tel,
        )
        .unwrap();
        let mut serial_cfg = engine_cfg(1, 4);
        serial_cfg.batcher = BatcherConfig::serial();
        let serial = run_trace(&model, &serial_cfg, requests(7, 12, dims.model_dim), &tel).unwrap();
        assert!(
            continuous.goodput_tps > serial.goodput_tps,
            "continuous {} <= serial {}",
            continuous.goodput_tps,
            serial.goodput_tps
        );
        assert!(continuous.p99_us <= serial.p99_us);
    }

    #[test]
    fn slo_accounting_lands_in_telemetry_with_request_ids() {
        let dims = ModelDims::small(1);
        let model = ServeModel::materialize(dims, 2).unwrap();
        let tel = Telemetry::enabled();
        let mut cfg = engine_cfg(1, 2);
        // Impossible deadline: everything misses.
        let reqs: Vec<Request> = requests(1, 3, dims.model_dim)
            .into_iter()
            .map(|mut r| {
                r.deadline_us = r.arrival_us + 1;
                r
            })
            .collect();
        cfg.batcher.admit_timeout_us = 0;
        let report = run_trace(&model, &cfg, reqs, &tel).unwrap();
        assert_eq!(report.deadline_misses, 3);
        assert_eq!(tel.counter_value("serve.deadline_miss"), Some(3));
        let anomalies = tel.anomalies();
        assert!(anomalies
            .iter()
            .any(|a| a.kind == "serve.deadline_miss" && a.request_id.is_some()));
        assert!(!tel.decisions().is_empty());
    }
}
