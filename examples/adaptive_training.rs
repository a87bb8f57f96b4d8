//! Adaptive mechanisms in action during a (simulated) training run:
//!
//! * the per-iteration capacity factor wanders (Figure 1),
//! * Algorithm 2 searches (All-to-All algorithm × pipelining degree)
//!   online and converges to the per-bucket optimum,
//! * the inline parallelism router flips between P1 and P2 as the
//!   workload changes.
//!
//! Run with: `cargo run --release --example adaptive_training`
//!
//! Pass `--telemetry out.jsonl` to record the whole run — per-step
//! expert load, dropped tokens, stage durations, and every adaptive
//! decision's candidates and winner — as one JSON object per line.

use tutel_suite::obs::{StepRecord, Telemetry};
use tutel_suite::tensor::Rng;
use tutel_suite::tutel::adaptive::{InlineParallelismRouter, MoeDims};
use tutel_suite::tutel::cost::ClusterModel;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{cross_entropy, SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::pipeline::{LayerDims, OnlineStrategySearch, PipelineTimeModel};
use tutel_suite::tutel::MoeConfig;

/// Parses `--telemetry <path>` from the command line.
fn telemetry_path() -> Option<String> {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        if a == "--telemetry" {
            return Some(args.next().unwrap_or_else(|| {
                eprintln!("--telemetry requires a file path");
                std::process::exit(2);
            }));
        }
    }
    None
}

fn main() {
    let out_path = telemetry_path();
    let tel = if out_path.is_some() {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };

    // A small MoE model training on the synthetic clustered task, with
    // auto-adapting capacity (capacity_factor = 0).
    let mut cfg = SwinLiteConfig::new(16, 16, 8);
    cfg.blocks = 4;
    cfg = cfg.with_moe(MoeConfig::new(0, 0, 8).with_capacity_factor(0.0));
    let mut rng = Rng::seed(1);
    let mut model = SwinLiteMoe::new(&cfg, &mut rng).expect("valid config");
    model.set_telemetry(tel.clone());
    let dataset = SyntheticVision::new(16, 16, 8, 16, 2);

    // The simulated execution environment: 64 GPUs, Figure 22-ish dims.
    let cluster = ClusterModel::azure(64);
    let time_model = PipelineTimeModel::new(cluster);
    let mut search = OnlineStrategySearch::new(0.5);
    let par_router = InlineParallelismRouter::new(cluster);

    let mut data_rng = Rng::seed(3);
    println!("step  loss    f_needed  pipeline-strategy   parallelism  sim-time");
    for step in 0..120 {
        tel.begin_step(step);
        let (x, y) = dataset.batch(16, &mut data_rng);
        let (logits, aux, layer_tel) = model.forward(&x, 16).expect("forward");
        let (loss, dl) = cross_entropy(&logits, &y);
        model.backward(&dl).expect("backward");
        model.step(0.05);

        // Telemetry from the first MoE layer drives the adaptive layer.
        let f = layer_tel
            .first()
            .map(|t| t.needed_factor)
            .unwrap_or(1.0)
            .max(0.05);
        let dims = LayerDims {
            tokens: 4096,
            model_dim: 4096,
            hidden_dim: 4096,
            local_experts: 2,
            k: 1,
            capacity_factor: f,
        };
        // Algorithm 2: pick a strategy, "measure" it on the simulator,
        // feed the measurement back.
        let strategy = search.next_strategy(f, &tel);
        let t = time_model.step_time(&dims, strategy);
        search.record(f, strategy, t);

        // Inline parallelism router decision for a replicated-expert
        // setting (E = 8 experts on 64 GPUs → 8-way groups).
        let pdims = MoeDims {
            world: 64,
            global_experts: 8,
            tokens: 4096,
            k: 1,
            capacity_factor: f,
            model_dim: 4096,
            hidden_dim: 4096,
            weight_precision: tutel_suite::tensor::Precision::F32,
        };
        let choice = par_router.choose(&pdims, &tel);

        if tel.is_enabled() {
            let mut expert_load: Vec<u64> = Vec::new();
            let mut dropped = 0u64;
            for lt in &layer_tel {
                if expert_load.len() < lt.expert_load.len() {
                    expert_load.resize(lt.expert_load.len(), 0);
                }
                for (sum, &n) in expert_load.iter_mut().zip(&lt.expert_load) {
                    *sum += n as u64;
                }
                dropped += lt.dropped as u64;
            }
            // The functional layer never moves real bytes, so the two
            // All-to-All legs enter the step's stage breakdown from the
            // time model rather than from wall-clock spans.
            let breakdown = time_model.stage_breakdown(&dims, strategy);
            tel.record_step(StepRecord {
                step,
                loss: loss as f64,
                lr: 0.05,
                aux_loss: aux as f64,
                capacity_factor: layer_tel.first().map_or(0.0, |lt| lt.capacity_factor),
                needed_factors: layer_tel.iter().map(|lt| lt.needed_factor).collect(),
                expert_load,
                dropped,
                stages: vec![
                    ("a2a_dispatch".into(), breakdown.a2a_dispatch),
                    ("a2a_combine".into(), breakdown.a2a_combine),
                ],
            });
        }

        if step % 10 == 0 {
            println!(
                "{step:>4}  {loss:.3}   {f:>7.2}   {:<17} {choice}      {:.2}ms",
                strategy.to_string(),
                t * 1e3,
            );
        }
    }
    println!(
        "\nAlgorithm 2 state: {} known capacity factors in {} buckets",
        search.known_factors(),
        search.num_buckets()
    );
    let final_strategy = search.next_strategy(1.0, &Telemetry::disabled());
    println!("converged strategy for f=1.0: {final_strategy}");

    // Final compute-runtime counters (pool utilization, steal counts,
    // arena hit rate) as rt.* gauges.
    tutel_suite::obs::record_runtime(&tel, &tutel_suite::tutel::trainer::runtime_snapshot());

    if let Some(path) = out_path {
        if let Err(e) = tel.export_jsonl_to(&path) {
            eprintln!("error: cannot write telemetry to {path}: {e}");
            std::process::exit(1);
        }
        println!(
            "telemetry: {} events ({} steps, {} decisions) → {path}",
            tel.events().len(),
            tel.steps().len(),
            tel.decisions().len(),
        );
    }
}
