//! `repro <name> [args]` — regenerates one table, figure or executed
//! sweep of the paper; [`EXPERIMENTS`] is the single list of them.
//!
//! * `repro all [steps]` prints every paper table and figure under its
//!   section heading; `steps` is the training budget of the accuracy
//!   experiments (default 300) and is also the one argument of `fig1`,
//!   `table9`–`table13` and `fig25` run alone.
//! * `repro breakdown [path]`, `repro pipeline [path]`, `repro serve
//!   [path]` and `repro dropless [--digest-only | path]` execute a
//!   sweep, write its `BENCH_*.json` and exit non-zero unless their
//!   acceptance criteria hold; they are not part of `all`.
//!
//! `serve` and `dropless` take their per-rank worker count from
//! `TUTEL_THREADS` (default 1) and end with a deterministic digest line
//! that CI compares across thread and SIMD settings.

use std::process::ExitCode;

use tutel_bench::experiments::{
    ablations, accuracy, breakdown, dropless, kernels, layer_scaling, micro, overlap_sweep,
    parallelism, pipelining, serving,
};
use tutel_bench::report::Table;
use tutel_obs::Telemetry;

/// One runnable experiment: its command-line name, the `repro all`
/// section it prints under (`None`: an executed sweep with its own
/// acceptance, run by name only) and its body over the arguments that
/// follow the name.
struct Experiment {
    name: &'static str,
    section: Option<&'static str>,
    run: fn(&[String]) -> ExitCode,
}

const MICRO: Option<&str> = Some("Micro-benchmarks");
const PARALLELISM: Option<&str> = Some("Adaptive parallelism");
const PIPELINING: Option<&str> = Some("Adaptive pipelining");
const SCALING: Option<&str> = Some("Single-layer scaling & end-to-end speed");
const KERNELS: Option<&str> = Some("Kernels");
const ABLATIONS: Option<&str> = Some("Ablations (DESIGN.md \u{a7}6)");
const ACCURACY: Option<&str> =
    Some("Accuracy experiments (synthetic substitute for ImageNet/COCO)");

/// Every experiment, in `repro all` order.
#[rustfmt::skip]
const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", section: MICRO, run: |_| show([micro::table1()]) },
    Experiment { name: "fig6", section: MICRO, run: |_| show([micro::fig6a(), micro::fig6b()]) },
    Experiment { name: "fig7", section: MICRO, run: |_| show([micro::fig7()]) },
    Experiment { name: "fig10", section: MICRO, run: |_| show([micro::fig10()]) },
    Experiment { name: "fig20", section: MICRO, run: |_| show([micro::fig20()]) },
    Experiment { name: "fig21", section: MICRO, run: |_| show([micro::fig21()]) },
    Experiment { name: "table4", section: MICRO, run: |_| show([micro::table4()]) },
    Experiment { name: "fig3", section: PARALLELISM, run: |_| show([parallelism::fig3()]) },
    Experiment { name: "table5", section: PARALLELISM, run: |_| show([parallelism::table5a(), parallelism::table5b()]) },
    Experiment { name: "fig5", section: PIPELINING, run: |_| show([pipelining::fig5()]) },
    Experiment { name: "table7", section: PIPELINING, run: |_| show([pipelining::table7(false), pipelining::table7(true)]) },
    Experiment { name: "fig22", section: PIPELINING, run: |_| show([pipelining::fig22()]) },
    Experiment { name: "fig23", section: SCALING, run: |_| show([layer_scaling::fig23(), layer_scaling::fig23_replicated()]) },
    Experiment { name: "table8", section: SCALING, run: |_| show([layer_scaling::table8()]) },
    Experiment { name: "fig24", section: KERNELS, run: |_| show([kernels::fig24_cpu(), kernels::fig24_gpu_model()]) },
    Experiment { name: "ablations", section: ABLATIONS, run: |_| show([
        ablations::ablation_interference(),
        ablations::ablation_msccl_fusion(),
        ablations::ablation_three_dh(),
        ablations::ablation_bucket_length(),
    ]) },
    Experiment { name: "fig1", section: ACCURACY, run: |a| show(accuracy::fig1(steps(a))) },
    Experiment { name: "table9", section: ACCURACY, run: |a| show([accuracy::table9(steps(a))]) },
    Experiment { name: "table10", section: ACCURACY, run: |a| show([accuracy::table10(steps(a))]) },
    Experiment { name: "table11", section: ACCURACY, run: |a| show([accuracy::table11(steps(a))]) },
    Experiment { name: "table12", section: ACCURACY, run: |a| show([accuracy::table12(steps(a))]) },
    Experiment { name: "table13", section: ACCURACY, run: |a| show([accuracy::table13(steps(a))]) },
    Experiment { name: "fig25", section: ACCURACY, run: |a| show([accuracy::fig25(steps(a))]) },
    Experiment { name: "breakdown", section: None, run: run_breakdown },
    Experiment { name: "pipeline", section: None, run: run_pipeline },
    Experiment { name: "serve", section: None, run: run_serve },
    Experiment { name: "dropless", section: None, run: run_dropless },
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, rest)) = args.split_first() else {
        return usage();
    };
    if name == "all" {
        return all(rest);
    }
    match EXPERIMENTS.iter().find(|e| e.name == name) {
        Some(e) => (e.run)(rest),
        None => usage(),
    }
}

fn usage() -> ExitCode {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!(
        "usage: repro <name> [args]\n  names: all {}",
        names.join(" ")
    );
    ExitCode::from(2)
}

/// Every sectioned experiment under its heading, in table order.
fn all(args: &[String]) -> ExitCode {
    println!(
        "# Tutel reproduction sweep (training budget: {} steps)\n",
        steps(args)
    );
    let mut heading = None;
    for e in EXPERIMENTS.iter().filter(|e| e.section.is_some()) {
        if e.section != heading {
            heading = e.section;
            println!("## {}\n", heading.unwrap_or_default());
        }
        (e.run)(args);
    }
    ExitCode::SUCCESS
}

/// Prints a paper experiment's tables.
fn show(tables: impl IntoIterator<Item = Table>) -> ExitCode {
    for t in tables {
        t.print();
    }
    ExitCode::SUCCESS
}

/// The accuracy experiments' training budget: the first argument.
fn steps(args: &[String]) -> usize {
    args.first().and_then(|s| s.parse().ok()).unwrap_or(300)
}

/// The first argument as the output path, else `default`.
fn out_path(args: &[String], default: &str) -> String {
    args.first().cloned().unwrap_or_else(|| default.to_string())
}

/// Writes a sweep's JSON document to `path`, reporting a failure on
/// stderr.
fn wrote(path: &str, json: String) -> bool {
    std::fs::write(path, json + "\n")
        .map_err(|e| eprintln!("failed to write {path}: {e}"))
        .is_ok()
}

/// Per-rank compute workers of the executed sweeps.
fn env_threads() -> usize {
    std::env::var("TUTEL_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t > 0)
        .unwrap_or(1)
}

/// Per-stage breakdown of one modeled MoE iteration across scales,
/// printed as a table and written to `BENCH_breakdown.json`.
fn run_breakdown(args: &[String]) -> ExitCode {
    let tel = Telemetry::enabled();
    let rows = breakdown::breakdown_rows(&tel);
    breakdown::breakdown_table(&rows).print();
    let path = out_path(args, "BENCH_breakdown.json");
    if !wrote(&path, breakdown::breakdown_json(&rows, &tel).to_json()) {
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {path} ({} rows, * = chosen by the search)",
        rows.len()
    );
    ExitCode::SUCCESS
}

/// Executed adaptive-pipelining sweep: every (All-to-All algorithm ×
/// degree) strategy run through the overlap executor on the threaded
/// runtime, priced under the link model, with the measured search's
/// audit trail; written to `BENCH_pipeline.json`.
///
/// Fails if any cell's best overlapped strategy does not beat the
/// degree-1 baseline, or if the search's converged choice is not the
/// measured argmin.
fn run_pipeline(args: &[String]) -> ExitCode {
    let tel = Telemetry::enabled();
    let cells = overlap_sweep::sweep(&tel);
    overlap_sweep::sweep_table(&cells).print();
    let path = out_path(args, "BENCH_pipeline.json");
    if !wrote(&path, overlap_sweep::sweep_json(&cells, &tel).to_json()) {
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {path} ({} cells, * = chosen by the measured search)",
        cells.len()
    );
    let mut ok = true;
    for cell in &cells {
        if cell.best_overlapped_link_s >= cell.baseline_link_s {
            eprintln!(
                "FAIL world={} tokens={}: best overlapped {:.6}s does not beat degree-1 {:.6}s",
                cell.world, cell.tokens, cell.best_overlapped_link_s, cell.baseline_link_s
            );
            ok = false;
        }
        if cell.chosen != cell.measured_best {
            eprintln!(
                "FAIL world={} tokens={}: chosen {} != measured argmin {}",
                cell.world, cell.tokens, cell.chosen, cell.measured_best
            );
            ok = false;
        }
    }
    if ok {
        println!("pipeline overlap acceptance: pass");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Serving goodput sweep: continuous batching vs one-request-at-a-time
/// over the seeded open-loop traces, written to `BENCH_serve.json`.
/// Every reported number lives on the engine's virtual clock, so the
/// digest must be identical at any thread setting.
///
/// Fails unless continuous batching beats the serial engine's goodput
/// at every offered load level.
fn run_serve(args: &[String]) -> ExitCode {
    let threads = env_threads();
    let tel = Telemetry::enabled();
    let results = match serving::sweep(threads, &tel) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("serving sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    serving::sweep_table(&results).print();

    let path = out_path(args, "BENCH_serve.json");
    if !wrote(&path, serving::sweep_json(&results, threads).to_json()) {
        return ExitCode::FAILURE;
    }
    println!(
        "wrote {path} ({} load levels, threads={threads})",
        results.len()
    );
    println!("serve digest: {:016x}", serving::digest(&results));

    let mut ok = true;
    for r in &results {
        if !r.continuous_beats_serial() {
            eprintln!(
                "FAIL {}: continuous goodput {:.0} t/s does not beat serial {:.0} t/s",
                r.level.label, r.continuous.goodput_tps, r.serial.goodput_tps
            );
            ok = false;
        }
    }
    if ok {
        println!("serving acceptance: continuous beats serial at every load level — pass");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Token-imbalance sweep: dropless grouped GEMM vs the padded capacity
/// twin over a uniform → Zipf → single-hot skew ladder, merged into
/// the `grouped_gemm` section of `BENCH_compute.json`. The grouped
/// outputs are bitwise-invariant to the worker count and `TUTEL_SIMD`,
/// so the digest must be identical across the CI sweep; with
/// `--digest-only` the timing loops and the JSON write are skipped.
///
/// Fails unless grouped stays flat across the ladder (≤ 1.10× its
/// uniform time at max skew), padded cliffs (≥ 1.5×) and grouped beats
/// padded from Zipf(1.0) up — with grouped and padded rows bitwise
/// equal at every rung.
fn run_dropless(args: &[String]) -> ExitCode {
    let threads = env_threads();
    let mut digest_only = false;
    let mut path = "BENCH_compute.json".to_string();
    for arg in args {
        if arg == "--digest-only" {
            digest_only = true;
        } else {
            path = arg.clone();
        }
    }

    let points = match dropless::sweep(threads, !digest_only) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("dropless sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("dropless digest: {:016x}", dropless::digest(&points));
    if digest_only {
        return if points.iter().all(|p| p.bitwise) {
            ExitCode::SUCCESS
        } else {
            eprintln!("FAIL: grouped vs padded rows diverged in digest-only run");
            ExitCode::FAILURE
        };
    }

    dropless::sweep_table(&points).print();
    if let Err(e) = dropless::merge_section(&path, dropless::grouped_gemm_section(&points, threads))
    {
        eprintln!("failed to update {path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("merged grouped_gemm section into {path} (threads={threads})");

    let failures = dropless::failures(&points);
    if failures.is_empty() {
        println!(
            "dropless acceptance: grouped flat, padded cliffs, grouped wins from Zipf(1.0) — pass"
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            eprintln!("FAIL {f}");
        }
        ExitCode::FAILURE
    }
}
