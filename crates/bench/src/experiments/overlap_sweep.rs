//! Executed-overlap degree sweep: the adaptive-pipelining experiment
//! run through [`tutel::overlap::run_overlapped`] on the threaded
//! runtime, rather than through the cost model.
//!
//! # The link model
//!
//! The CI host is a single core, so the channel transport inside
//! [`run_threaded`] is a synchronous memcpy — "communication" costs
//! the same core the compute runs on and raw wall-clock cannot show
//! an overlap win. The sweep therefore replays each *executed*
//! schedule under a receiver-deadline link model: every chunk's
//! All-to-All occupies a single full-duplex link for
//! `bytes / LINK_BYTES_PER_S` seconds, transfers are served in the
//! exact order the executed schedule issued them, and a chunk's
//! compute starts no earlier than its dispatch finishes on the link.
//! The *measured* per-chunk compute times from the real execution are
//! consumed verbatim; only the transport is modeled, and the same
//! rules price every strategy — serial degree-1 pays
//! `transfer + compute + transfer` with the link idle during compute,
//! while a pipelined schedule keeps the link busy behind the FFN.
//!
//! The resulting `link_wall_s` is the wall-clock the acceptance
//! criteria compare, and the number fed to
//! [`MeasuredStrategySearch`] so the online search ranks strategies
//! by executed evidence.

use tutel::cost::ClusterModel;
use tutel::overlap::run_overlapped;
use tutel::pipeline::{LayerDims, MeasuredStrategySearch, PipelineStrategy, PipelineTimeModel};
use tutel_comm::runtime::run_threaded;
use tutel_comm::Topology;
use tutel_obs::json::Value;
use tutel_obs::Telemetry;
use tutel_tensor::Tensor;

use crate::report::fmt_time;
use crate::Table;

/// Model dimension of the sweep workload; small enough that the full
/// sweep runs inside CI.
pub const MODEL_DIM: usize = 64;

/// Modeled link bandwidth (bytes per second, each direction).
/// Deliberately slow relative to the FFN so transfer and compute are
/// the same order of magnitude — the regime where pipelining matters.
pub const LINK_BYTES_PER_S: f64 = 32.0 * 1024.0 * 1024.0;

/// World sizes the sweep executes (threaded ranks, not modeled GPUs).
const WORLDS: [usize; 2] = [2, 4];

/// Per-rank token counts the sweep executes.
const TOKENS: [usize; 2] = [64, 256];

/// The sweep workload as [`LayerDims`], for the search's model prior.
fn dims_for(tokens: usize) -> LayerDims {
    LayerDims {
        tokens,
        model_dim: MODEL_DIM,
        hidden_dim: MODEL_DIM,
        local_experts: 1,
        k: 1,
        capacity_factor: 1.0,
    }
}

/// One executed (world, tokens, strategy) measurement.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Threaded world size.
    pub world: usize,
    /// Tokens per rank.
    pub tokens: usize,
    /// The strategy executed.
    pub strategy: PipelineStrategy,
    /// Raw executed wall-clock of the slowest rank (memcpy transport;
    /// reported for honesty, not compared).
    pub exec_wall_s: f64,
    /// The executed schedule replayed under the link model — the
    /// number the acceptance criteria and the search rank by.
    pub link_wall_s: f64,
    /// Sum of measured per-chunk compute seconds on the slowest rank.
    pub compute_s: f64,
}

/// Replays one rank's executed schedule under the link model.
///
/// Events follow the executed two-stream schedule's issue order
/// exactly: `disp[0]`, then per iteration `i` — `disp[i+1]` issued at
/// the top (before chunk `i`'s compute), compute once `disp[i]`'s
/// transfer lands, `comb[i]` issued at compute end. The single
/// full-duplex link serves transfers FIFO in that order; the wall is
/// the last combine's arrival.
fn link_wall(chunk_compute_s: &[f64], chunk_bytes: f64) -> f64 {
    let d = chunk_compute_s.len();
    if d == 0 {
        return 0.0;
    }
    let tx = chunk_bytes / LINK_BYTES_PER_S;
    let mut link_free = 0.0f64;
    let serve = |issued: f64, link_free: &mut f64| {
        let done = issued.max(*link_free) + tx;
        *link_free = done;
        done
    };
    let mut disp_done = vec![0.0f64; d];
    disp_done[0] = serve(0.0, &mut link_free);
    let mut now = 0.0f64;
    let mut last_comb = 0.0f64;
    for (i, &compute_s) in chunk_compute_s.iter().enumerate() {
        if i + 1 < d {
            disp_done[i + 1] = serve(now, &mut link_free);
        }
        now = now.max(disp_done[i]) + compute_s;
        last_comb = serve(now, &mut link_free);
    }
    now.max(last_comb)
}

/// Deterministic per-rank expert weight (no RNG: the sweep must give
/// the same outputs on every run and thread count).
fn weight(rank: usize) -> Tensor {
    let data: Vec<f32> = (0..MODEL_DIM * MODEL_DIM)
        .map(|i| {
            let v = ((i * 37 + rank * 101 + 13) % 211) as f32 / 211.0 - 0.5;
            v * 0.125
        })
        .collect();
    Tensor::from_vec(data, &[MODEL_DIM, MODEL_DIM]).expect("square weight")
}

/// Deterministic per-rank input rows as `[chunk][destination]`
/// buffers: `degree` chunks, each dealt evenly across `world` ranks.
fn input_chunks(rank: usize, tokens: usize, degree: usize, world: usize) -> Vec<Vec<Vec<f32>>> {
    let per_dest = tokens / degree / world * MODEL_DIM;
    let value = |c: usize, i: usize| {
        let v = ((rank * 7919 + c * 977 + i * 31) % 997) as f32 / 997.0 - 0.5;
        v * 0.25
    };
    (0..degree)
        .map(|c| {
            (0..world)
                .map(|d| {
                    (d * per_dest..(d + 1) * per_dest)
                        .map(|i| value(c, i))
                        .collect()
                })
                .collect()
        })
        .collect()
}

/// Executes one strategy on the threaded runtime and prices it under
/// the link model.
///
/// # Panics
///
/// Panics if `tokens` is not divisible by `world * degree` (the sweep
/// grids are chosen so it always is) or if a collective fails on the
/// fault-free runtime.
fn run_point(world: usize, tokens: usize, strategy: PipelineStrategy) -> SweepPoint {
    let degree = strategy.degree.max(1);
    assert_eq!(
        tokens % (world * degree),
        0,
        "sweep grid must divide evenly"
    );
    let rows_per_chunk = tokens / degree;
    let chunk_bytes = (rows_per_chunk * MODEL_DIM * std::mem::size_of::<f32>()) as f64;
    let algo = strategy.algo;
    let topo = Topology::for_world(world);
    let per_rank: Vec<(f64, Vec<f64>)> = run_threaded(topo, move |mut comm| {
        let w = weight(comm.rank());
        let input = input_chunks(comm.rank(), tokens, degree, world);
        let run = run_overlapped(&mut comm, algo, input, |_, _, received| {
            let x = Tensor::from_vec(received.concat(), &[rows_per_chunk, MODEL_DIM])
                .expect("chunk shape");
            let y = x.matmul(&w).expect("ffn gemm");
            let back = y.as_slice().chunks(y.len() / world);
            Ok(back.map(<[f32]>::to_vec).collect())
        })
        .expect("fault-free sweep collective");
        (run.wall_s, run.chunk_compute_s)
    });
    let exec_wall_s = per_rank.iter().map(|(w, _)| *w).fold(0.0, f64::max);
    // The slowest rank defines the step under both transports.
    let (link_wall_s, compute_s) = per_rank
        .iter()
        .map(|(_, chunks)| (link_wall(chunks, chunk_bytes), chunks.iter().sum::<f64>()))
        .fold((0.0f64, 0.0f64), |(lw, cs), (l, c)| (lw.max(l), cs.max(c)));
    SweepPoint {
        world,
        tokens,
        strategy,
        exec_wall_s,
        link_wall_s,
        compute_s,
    }
}

/// One (world, tokens) cell: all eight strategies executed in the
/// order the measured search probed them, plus the converged choice.
#[derive(Debug, Clone)]
pub struct SweepCell {
    /// Threaded world size.
    pub world: usize,
    /// Tokens per rank.
    pub tokens: usize,
    /// Executed points, in probe order.
    pub points: Vec<SweepPoint>,
    /// The search's converged choice (all eight measured).
    pub chosen: PipelineStrategy,
    /// The measured argmin — must equal `chosen`.
    pub measured_best: PipelineStrategy,
    /// Link-model wall of the serial degree-1 baseline.
    pub baseline_link_s: f64,
    /// Link-model wall of the best overlapped (degree > 1) strategy.
    pub best_overlapped_link_s: f64,
}

impl SweepCell {
    /// Speedup of the best overlapped strategy over degree-1 serial.
    pub fn speedup(&self) -> f64 {
        self.baseline_link_s / self.best_overlapped_link_s
    }
}

/// Runs the full sweep: for each (world, tokens) cell the measured
/// search explores all eight strategies (model prior picks the probe
/// order), each probe is executed through the overlap executor and
/// recorded, then the converged decision is appended to `tel`'s audit
/// log with its measured-vs-predicted delta.
pub fn sweep(tel: &Telemetry) -> Vec<SweepCell> {
    let mut cells = Vec::new();
    // Each executed probe is one training step: stamping the step
    // before the decision is what gives every `pipeline.measured`
    // audit record a non-null `step`.
    let mut step: u64 = 0;
    for world in WORLDS {
        for tokens in TOKENS {
            let model = PipelineTimeModel::new(ClusterModel::azure(world));
            let mut search = MeasuredStrategySearch::new(0.25, model);
            let dims = dims_for(tokens);
            let mut points = Vec::new();
            for _ in 0..PipelineStrategy::all().len() {
                tel.begin_step(step);
                step += 1;
                let strategy = search.next_strategy(&dims, tel);
                let point = run_point(world, tokens, strategy);
                search.record(dims.capacity_factor, strategy, point.link_wall_s, tel);
                points.push(point);
            }
            tel.begin_step(step);
            step += 1;
            let chosen = search.next_strategy(&dims, tel);
            let measured_best = search
                .measured_best(dims.capacity_factor)
                .map(|(s, _)| s)
                .expect("all eight strategies measured");
            let baseline_link_s = points
                .iter()
                .filter(|p| p.strategy.degree == 1 && p.strategy == PipelineStrategy::baseline())
                .map(|p| p.link_wall_s)
                .fold(f64::INFINITY, f64::min);
            let best_overlapped_link_s = points
                .iter()
                .filter(|p| p.strategy.degree > 1)
                .map(|p| p.link_wall_s)
                .fold(f64::INFINITY, f64::min);
            cells.push(SweepCell {
                world,
                tokens,
                points,
                chosen,
                measured_best,
                baseline_link_s,
                best_overlapped_link_s,
            });
        }
    }
    cells
}

/// The sweep as a printable table.
pub fn sweep_table(cells: &[SweepCell]) -> Table {
    let mut t = Table::new(
        "Executed overlap degree sweep (link-model wall-clock)",
        &[
            "world",
            "tokens",
            "strategy",
            "compute",
            "exec",
            "link-wall",
            "note",
        ],
    );
    for cell in cells {
        for p in &cell.points {
            let mut note = String::new();
            if p.strategy == cell.chosen {
                note.push('*');
            }
            if p.strategy == PipelineStrategy::baseline() {
                note.push_str(" base");
            }
            t.row(&[
                p.world.to_string(),
                p.tokens.to_string(),
                p.strategy.to_string(),
                fmt_time(p.compute_s),
                fmt_time(p.exec_wall_s),
                fmt_time(p.link_wall_s),
                note.trim().to_string(),
            ]);
        }
    }
    t
}

/// The sweep (plus the search's audit records) as the JSON document
/// for `BENCH_pipeline.json`.
pub fn sweep_json(cells: &[SweepCell], tel: &Telemetry) -> Value {
    let cell_values: Vec<Value> = cells
        .iter()
        .map(|cell| {
            let rows: Vec<Value> = cell
                .points
                .iter()
                .map(|p| {
                    Value::obj([
                        ("strategy", Value::from(p.strategy.to_string())),
                        ("degree", Value::from(p.strategy.degree)),
                        ("compute_s", Value::from(p.compute_s)),
                        ("exec_wall_s", Value::from(p.exec_wall_s)),
                        ("link_wall_s", Value::from(p.link_wall_s)),
                    ])
                })
                .collect();
            Value::obj([
                ("world", Value::from(cell.world)),
                ("tokens", Value::from(cell.tokens)),
                ("points", Value::Arr(rows)),
                ("chosen", Value::from(cell.chosen.to_string())),
                ("measured_best", Value::from(cell.measured_best.to_string())),
                ("baseline_link_s", Value::from(cell.baseline_link_s)),
                (
                    "best_overlapped_link_s",
                    Value::from(cell.best_overlapped_link_s),
                ),
                ("speedup", Value::from(cell.speedup())),
                (
                    "overlap_beats_baseline",
                    Value::Bool(cell.best_overlapped_link_s < cell.baseline_link_s),
                ),
            ])
        })
        .collect();
    let decisions: Vec<Value> = tel
        .decisions()
        .iter()
        .map(|d| tutel_obs::Event::Decision(d.clone()).to_value())
        .collect();
    Value::obj([
        ("experiment", Value::from("pipeline_overlap")),
        ("model_dim", Value::from(MODEL_DIM)),
        ("link_bytes_per_s", Value::from(LINK_BYTES_PER_S)),
        ("cells", Value::Arr(cell_values)),
        ("decisions", Value::Arr(decisions)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn link_model_prices_serial_as_transfer_compute_transfer() {
        // Degree 1: one dispatch, the compute, one combine — nothing
        // overlaps, so the wall is the exact sum.
        let tx = 1024.0 / LINK_BYTES_PER_S;
        let wall = link_wall(&[0.005], 1024.0);
        assert!((wall - (2.0 * tx + 0.005)).abs() < 1e-12);
    }

    #[test]
    fn link_model_overlaps_higher_degrees() {
        // Same total bytes and compute re-chunked at degree 4: the
        // pipelined schedule must be strictly cheaper than serial.
        let total_bytes = 64.0 * 1024.0;
        let serial = link_wall(&[0.004], total_bytes);
        let pipelined = link_wall(&[0.001; 4], total_bytes / 4.0);
        assert!(
            pipelined < serial,
            "pipelined {pipelined} vs serial {serial}"
        );
    }

    #[test]
    fn link_model_handles_empty_schedule() {
        assert_eq!(link_wall(&[], 1024.0), 0.0);
    }

    #[test]
    fn executed_point_runs_on_the_threaded_runtime() {
        let p = run_point(2, 64, PipelineStrategy::baseline());
        assert!(p.exec_wall_s > 0.0);
        assert!(p.compute_s > 0.0);
        assert!(p.link_wall_s > p.compute_s, "link model adds transfer");
    }

    #[test]
    fn sweep_chosen_matches_measured_argmin_and_beats_baseline() {
        let tel = Telemetry::enabled();
        // One cell keeps the test fast; the repro binary runs the grid.
        let model = PipelineTimeModel::new(ClusterModel::azure(2));
        let mut search = MeasuredStrategySearch::new(0.25, model);
        let dims = dims_for(64);
        let mut points = Vec::new();
        for step in 0..PipelineStrategy::all().len() {
            tel.begin_step(step as u64);
            let s = search.next_strategy(&dims, &tel);
            let p = run_point(2, 64, s);
            search.record(dims.capacity_factor, s, p.link_wall_s, &tel);
            points.push(p);
        }
        tel.begin_step(PipelineStrategy::all().len() as u64);
        let chosen = search.next_strategy(&dims, &tel);
        let best = search.measured_best(dims.capacity_factor).unwrap().0;
        assert_eq!(chosen, best, "converged choice is the measured argmin");
        let decisions = tel.decisions();
        for (i, rec) in decisions.iter().enumerate() {
            assert_eq!(rec.kind, "pipeline.measured");
            assert_eq!(rec.step, Some(i as u64), "step threaded into record {i}");
            assert!(
                rec.measured_s.is_some(),
                "record {i} backfilled once its probe executed"
            );
        }
        let rec = decisions.last().unwrap();
        assert_eq!(rec.chosen, chosen.to_string());
        let baseline = points
            .iter()
            .find(|p| p.strategy == PipelineStrategy::baseline())
            .unwrap()
            .link_wall_s;
        let best_overlapped = points
            .iter()
            .filter(|p| p.strategy.degree > 1)
            .map(|p| p.link_wall_s)
            .fold(f64::INFINITY, f64::min);
        assert!(
            best_overlapped < baseline,
            "overlap must win under the link model: {best_overlapped} vs {baseline}"
        );
    }
}
