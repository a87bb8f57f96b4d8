//! `harness` — run the differential conformance matrix and the seeded
//! fault-injection suite, print a pass/fail grid, and emit a machine-
//! readable benchmark record.
//!
//! ```text
//! harness [--smoke | --full] [--seed N] [--fault-seed N] [--json PATH] [--trace PREFIX]
//! ```
//!
//! `--trace PREFIX` additionally runs the traced 4-rank smoke (the
//! run's `PREFIX.jsonl` stream + merged `PREFIX.trace.json`, gated by
//! the trace invariant checker) and the staged straggler scenario (the
//! analyzer must name the delayed rank).
//!
//! Exit code 0 iff every matrix point, every fault scenario, every
//! serving-grid point (with its fault replay), and (when requested)
//! both trace scenarios passed.

use std::process::ExitCode;
use std::time::Instant;

use tutel_harness::faults::{run_fault_suite, FaultReplay};
use tutel_harness::kernels::{run_kernel_matrix, BF16_ULP_BUDGET};
use tutel_harness::matrix::{configs, run_matrix, Mode};
use tutel_harness::race::run_race_surface;
use tutel_harness::serve::{run_serve_case, run_serve_fault, serve_grid};
use tutel_harness::trace::{run_straggler_scenario, run_trace_smoke};
use tutel_harness::{cell_label, ulp_budget, Verdict};
use tutel_obs::json::Value;
use tutel_obs::Telemetry;
use tutel_serve::ServeError;

/// Default problem seed (parameters + inputs).
const DEFAULT_SEED: u64 = 42;
/// Default fault-plan seed; replay any failure with `--fault-seed`.
const DEFAULT_FAULT_SEED: u64 = 0xFA17;

struct Args {
    mode: Mode,
    seed: u64,
    fault_seed: u64,
    json: Option<String>,
    trace: Option<String>,
}

/// Parses a seed in decimal or `0x`-prefixed hex (the grid prints
/// fault seeds in hex, so they must paste back).
fn parse_seed(s: &str) -> Result<u64, String> {
    let parsed = match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => s.parse(),
    };
    parsed.map_err(|e| format!("invalid seed {s:?}: {e}"))
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        mode: if std::env::var("HARNESS_FULL").is_ok_and(|v| v == "1") {
            Mode::Full
        } else {
            Mode::Smoke
        },
        seed: DEFAULT_SEED,
        fault_seed: DEFAULT_FAULT_SEED,
        json: None,
        trace: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut take = |what: &str| it.next().ok_or_else(|| format!("{what} requires a value"));
        match arg.as_str() {
            "--smoke" => args.mode = Mode::Smoke,
            "--full" => args.mode = Mode::Full,
            "--seed" => args.seed = parse_seed(&take("--seed")?)?,
            "--fault-seed" => args.fault_seed = parse_seed(&take("--fault-seed")?)?,
            "--json" => args.json = Some(take("--json")?),
            "--trace" => args.trace = Some(take("--trace")?),
            "--help" | "-h" => {
                return Err(
                    "usage: harness [--smoke | --full] [--seed N] [--fault-seed N] \
                     [--json PATH] [--trace PREFIX]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// One section's outcome: what the summary line, the exit code and
/// the JSON record read.
struct Tally {
    /// Name on the summary line.
    name: &'static str,
    /// `BENCH_harness.json` key prefix, and the noun its case count
    /// goes under (`matrix_configs`, `fault_collectives`, …).
    keys: (&'static str, &'static str),
    cases: usize,
    pass: usize,
    /// Further record fields under the prefix: worst distances, budgets.
    extras: Vec<(&'static str, f64)>,
    wall_s: f64,
    /// Every case passed — and the section's fault replay, if it has one.
    ok: bool,
}

impl Tally {
    fn new(
        name: &'static str,
        keys: (&'static str, &'static str),
        (cases, pass): (usize, usize),
        extras: Vec<(&'static str, f64)>,
    ) -> Tally {
        Tally {
            name,
            keys,
            cases,
            pass,
            extras,
            wall_s: 0.0,
            ok: pass == cases,
        }
    }
}

/// Runs one section and stamps its wall time.
fn timed(section: impl FnOnce() -> Tally) -> Tally {
    let t0 = Instant::now();
    let mut tally = section();
    tally.wall_s = t0.elapsed().as_secs_f64();
    tally
}

/// Prints one row per point of an `ExecConfig` grid (`cells` formats
/// everything left of the verdict column); returns (cases, passes) and
/// the worst scaled ULP over the grid.
fn print_rows<D>(
    results: &[Result<Verdict<D>, ServeError>],
    cells: impl Fn(&Verdict<D>) -> String,
) -> ((usize, usize), f64) {
    let mut pass = 0usize;
    let mut worst = 0.0f64;
    for res in results {
        match res {
            Ok(v) => {
                println!("  {}  {}", cells(v), v.outcome());
                worst = worst.max(v.worst.scaled_ulp);
                pass += usize::from(v.pass);
            }
            Err(e) => println!("  ERROR: {e}"),
        }
    }
    ((results.len(), pass), worst)
}

/// Prints a grid's whole-step fault replay; returns whether it passed.
fn print_replay(what: &str, replay: Result<FaultReplay, ServeError>) -> bool {
    match replay {
        Ok(v) => {
            println!(
                "{what}: {} + {} injected over two steps, {} retransmits, outputs {} — {}",
                v.injected[0],
                v.injected[1],
                v.retransmits,
                if v.identical { "bitwise" } else { "DIVERGED" },
                if v.pass { "pass" } else { "FAIL" }
            );
            v.pass
        }
        Err(e) => {
            eprintln!("{what} FAILED: {e}");
            false
        }
    }
}

fn matrix_section(mode: Mode, seed: u64) -> Tally {
    let results: Vec<_> = run_matrix(mode, seed).into_iter().map(Ok).collect();
    println!("conformance matrix ({} configurations):", results.len());
    println!(
        "  {:<18} {:>10} {:>8} {:>8} {:>6}  verdict",
        "config", "budget", "out", "d_x", "aux"
    );
    let (counts, worst) = print_rows(&results, |v| {
        format!(
            "{:<18} {:>7} ULP {:>8.2} {:>8.2} {:>6}",
            cell_label(&v.config, true),
            ulp_budget(&v.config),
            v.detail.output_ulp,
            v.detail.d_x_ulp,
            if v.detail.aux_bitwise { "bit" } else { "DIFF" }
        )
    });
    let extras = vec![("worst_ulp", worst)];
    Tally::new("matrix", ("matrix", "configs"), counts, extras)
}

fn serve_section(seed: u64, fault_seed: u64) -> Tally {
    let grid = serve_grid();
    let results: Vec<_> = grid.iter().map(|c| run_serve_case(c, seed)).collect();
    println!("serving grid ({} cases):", results.len());
    println!(
        "  {:<14} {:>9} {:>6} {:>8} {:>10} {:>12}  verdict",
        "case", "completed", "steps", "wire", "ulp", "scaled-ulp"
    );
    let (counts, worst) = print_rows(&results, |v| {
        format!(
            "{:<14} {:>5}/{:<3} {:>6} {:>8} {:>10} {:>12.2}",
            cell_label(&v.config, false),
            v.detail.completed,
            v.detail.offered,
            v.detail.steps,
            v.detail.wire,
            v.worst.ulp,
            v.worst.scaled_ulp
        )
    });
    let extras = vec![("worst_scaled_ulp", worst)];
    let mut tally = Tally::new("serve", ("serve", "cases"), counts, extras);
    tally.ok &= print_replay("serve fault replay", run_serve_fault(fault_seed));
    tally
}

fn faults_section(fault_seed: u64) -> Tally {
    let reports = run_fault_suite(fault_seed);
    println!("fault-injection suite:");
    println!(
        "  {:<16} {:>9} {:>11} {:>8} {:>7} {:>8} {:>6}  verdict",
        "collective", "injected", "retransmits", "recover", "typed", "no-leak", "sched"
    );
    for r in &reports {
        let yn = |b: bool| if b { "yes" } else { "NO" };
        println!(
            "  {:<16} {:>9} {:>11} {:>8} {:>7} {:>8} {:>6}  {}",
            r.collective.label(),
            r.injected,
            r.retransmits,
            yn(r.recovered_identical),
            yn(r.failed_typed && r.bounded),
            yn(r.no_leak),
            yn(r.sched_detected),
            if r.pass { "pass" } else { "FAIL" }
        );
    }
    let pass = reports.iter().filter(|r| r.pass).count();
    let counts = (reports.len(), pass);
    Tally::new("faults", ("fault", "collectives"), counts, Vec::new())
}

fn kernels_section(seed: u64) -> Tally {
    let verdicts = run_kernel_matrix(seed);
    println!("kernel-mode matrix ({} cells):", verdicts.len());
    println!(
        "  {:<12} {:>8} {:>14} {:>9} {:>6}  verdict",
        "cell", "simd", "vs-f32 ULP", "budget", "aux"
    );
    for v in &verdicts {
        let budget = if v.cell.precision == tutel_tensor::Precision::F32 {
            "0".to_string()
        } else {
            format!("{BF16_ULP_BUDGET:.0}")
        };
        println!(
            "  {:<12} {:>8} {:>14.2} {:>9} {:>6}  {}",
            v.cell.label(),
            if !v.cell.simd {
                "base"
            } else if v.simd_bitwise {
                "bit"
            } else {
                "DIFF"
            },
            v.precision_ulp,
            budget,
            if v.aux_bitwise { "bit" } else { "DIFF" },
            if v.pass { "pass" } else { "FAIL" }
        );
    }
    let pass = verdicts.iter().filter(|v| v.pass).count();
    let worst = verdicts
        .iter()
        .map(|v| v.precision_ulp)
        .fold(0.0f64, f64::max);
    let extras = vec![("worst_bf16_ulp", worst), ("bf16_budget", BF16_ULP_BUDGET)];
    Tally::new(
        "kernels",
        ("kernel", "cells"),
        (verdicts.len(), pass),
        extras,
    )
}

/// The `BENCH_harness.json` record: run identity, then each section's
/// case count, pass count, extras and wall time under its key prefix;
/// fractions rounded to three places.
fn record(args: &Args, sections: &[Tally]) -> Value {
    let milli = |x: f64| Value::Num((x * 1000.0).round() / 1000.0);
    let mut pairs = vec![
        ("bench".to_string(), Value::from("harness")),
        ("mode".to_string(), Value::from(args.mode.label())),
        ("seed".to_string(), Value::from(args.seed)),
        ("fault_seed".to_string(), Value::from(args.fault_seed)),
    ];
    for t in sections {
        let (prefix, noun) = t.keys;
        pairs.push((format!("{prefix}_{noun}"), Value::from(t.cases)));
        pairs.push((format!("{prefix}_pass"), Value::from(t.pass)));
        for &(key, x) in &t.extras {
            pairs.push((format!("{prefix}_{key}"), milli(x)));
        }
        pairs.push((format!("{prefix}_wall_s"), milli(t.wall_s)));
    }
    Value::Obj(pairs)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    println!(
        "harness: {} matrix ({} configs), seed {}, fault seed {:#x}",
        args.mode.label(),
        configs(args.mode).len(),
        args.seed,
        args.fault_seed
    );

    let sections = [
        timed(|| matrix_section(args.mode, args.seed)),
        timed(|| faults_section(args.fault_seed)),
        timed(|| kernels_section(args.seed)),
        timed(|| serve_section(args.seed, args.fault_seed)),
    ];

    let trace_ok = match &args.trace {
        None => true,
        Some(prefix) => run_trace_scenarios(prefix, args.fault_seed),
    };

    let race_ok = run_race_scenario(args.seed);

    let summary: Vec<String> = sections
        .iter()
        .map(|t| {
            format!(
                "{}: {}/{} pass in {:.2}s",
                t.name, t.pass, t.cases, t.wall_s
            )
        })
        .collect();
    println!("{}", summary.join("; "));

    if let Some(path) = &args.json {
        if let Err(e) = std::fs::write(path, record(&args, &sections).to_pretty() + "\n") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("wrote {path}");
    }

    if sections.iter().all(|t| t.ok) && trace_ok && race_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs the combined-surface race scenario (real threads under the
/// happens-before checker); prints the verdict and any finding.
fn run_race_scenario(seed: u64) -> bool {
    let tel = Telemetry::enabled();
    let surface = run_race_surface(seed, &tel);
    println!(
        "race surface: {} events recorded, {} finding(s), outputs {} — {}",
        surface.events,
        surface.findings.len(),
        if surface.outputs_match {
            "match reference"
        } else {
            "DIVERGED"
        },
        if surface.passed() { "pass" } else { "FAIL" }
    );
    for f in &surface.findings {
        println!("  {}", f.summary());
    }
    surface.passed()
}

/// Runs both trace scenarios under `prefix`, printing the analyzer
/// reports; returns whether both passed.
fn run_trace_scenarios(prefix: &str, fault_seed: u64) -> bool {
    let smoke_ok = match run_trace_smoke(prefix) {
        Ok(smoke) => {
            println!(
                "trace smoke: {} events, {} spans, {} flow edges ({} cross-rank, {} retry) \
                 -> {}",
                smoke.invariants.events,
                smoke.invariants.spans,
                smoke.invariants.edges,
                smoke.invariants.cross_rank_edges,
                smoke.invariants.retry_edges,
                smoke.trace_path
            );
            print!("{}", smoke.report);
            true
        }
        Err(e) => {
            eprintln!("trace smoke FAILED: {e}");
            false
        }
    };
    let tel = Telemetry::enabled();
    let straggler_ok = match run_straggler_scenario(fault_seed, 1, &tel) {
        Ok(analysis) => {
            println!(
                "trace straggler: analyzer names rank {} from the delivery-latency signal",
                analysis.straggler().unwrap_or(usize::MAX)
            );
            true
        }
        Err(e) => {
            eprintln!("trace straggler FAILED: {e}");
            false
        }
    };
    smoke_ok && straggler_ok
}
