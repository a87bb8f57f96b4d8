//! CLI for `tutel-check`.
//!
//! Lint mode (default):
//!
//! ```text
//! tutel-check [--root DIR] [--json]
//! ```
//!
//! Concurrency modes:
//!
//! ```text
//! tutel-check --sched [--seeds N]   # comm scheduler sweep
//! tutel-check --race  [--seeds N]   # happens-before race sweep +
//!                                   # planted-bug selftests
//! ```
//!
//! Exit codes: 0 = clean, 1 = any lint diagnostic or schedule
//! failure, 2 = usage / IO error.

use std::path::PathBuf;
use std::process::ExitCode;

use tutel_check::diagnostics_to_json;
use tutel_check::race::{combined_sweep, run_selftests, RaceConfig};
use tutel_check::sweep::{broken_tag_selftest, sweep_collectives, SweepConfig};

struct Opts {
    root: PathBuf,
    json: bool,
    sched: bool,
    race: bool,
    seeds: u64,
}

fn usage() -> &'static str {
    "usage: tutel-check [--root DIR] [--json] | --sched [--seeds N] | --race [--seeds N]"
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: false,
        sched: false,
        race: false,
        seeds: 128,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => {
                opts.root = args
                    .next()
                    .map(PathBuf::from)
                    .ok_or("--root needs a value")?;
            }
            "--json" => opts.json = true,
            "--sched" => opts.sched = true,
            "--race" => opts.race = true,
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--seeds needs an integer")?;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}\n{}", usage())),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_opts() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("tutel-check: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if opts.sched {
        run_sched(&opts)
    } else if opts.race {
        run_race(&opts)
    } else {
        run_lint(&opts)
    };
    match result {
        Ok(clean) => {
            if clean {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("tutel-check: {e}");
            ExitCode::from(2)
        }
    }
}

/// Lint mode; returns Ok(true) when the run should exit 0, i.e. when
/// no rule fired anywhere in the workspace.
fn run_lint(opts: &Opts) -> Result<bool, String> {
    let report = tutel_check::lint_workspace(&opts.root)?;
    if opts.json {
        println!("{}", diagnostics_to_json(&report.diagnostics));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }
    eprintln!(
        "tutel-check: {} file(s) in {} crate(s), {} violation(s)",
        report.files_scanned,
        report.crates_scanned,
        report.diagnostics.len()
    );
    Ok(report.diagnostics.is_empty())
}

/// Concurrency mode; returns Ok(true) when the run should exit 0.
fn run_sched(opts: &Opts) -> Result<bool, String> {
    let cfg = SweepConfig {
        seeds: opts.seeds,
        ..SweepConfig::default()
    };
    let mut clean = true;
    println!(
        "tutel-check --sched: {} nodes x {} GPUs, {} seeds per collective",
        cfg.nnodes, cfg.gpus_per_node, cfg.seeds
    );
    for sweep in sweep_collectives(&cfg) {
        println!(
            "  {:<16} {} schedules, {} distinct — {}",
            sweep.name,
            sweep.schedules,
            sweep.distinct,
            if sweep.passed() { "ok" } else { "FAIL" }
        );
        for f in &sweep.failures {
            clean = false;
            println!(
                "    [{}] {} — replay with --sched --seeds {} (seed {})",
                f.rule,
                f.detail,
                f.seed + 1,
                f.seed
            );
        }
    }
    // The checker checks itself: the intentionally-broken tag program
    // must be caught under at least one seed.
    let selftest = broken_tag_selftest(&cfg);
    let caught = selftest.failures.iter().any(|f| f.rule == "corruption");
    println!(
        "  {:<16} {} schedules, {} distinct — {}",
        "broken_tag",
        selftest.schedules,
        selftest.distinct,
        if caught {
            "caught (checker has teeth)"
        } else {
            "NOT caught: checker is blind"
        }
    );
    if let Some(first) = selftest.failures.iter().find(|f| f.rule == "corruption") {
        println!("    first failing seed: {}", first.seed);
    }
    if !caught {
        clean = false;
    }
    Ok(clean)
}

/// Race mode; returns Ok(true) when the run should exit 0.
///
/// Two halves, both required: the combined overlap+pool+comm surface
/// must sweep clean and structure-stable across every seed, and the
/// three planted-bug selftests must each be caught with a seed that
/// replays.
fn run_race(opts: &Opts) -> Result<bool, String> {
    let cfg = RaceConfig::default();
    let mut clean = true;
    println!(
        "tutel-check --race: {} nodes x {} GPUs, degree {}, {} sim workers, {} seeds",
        cfg.nnodes, cfg.gpus_per_node, cfg.degree, cfg.sim_workers, opts.seeds
    );
    let sweep = combined_sweep(&cfg, opts.seeds);
    println!(
        "  {:<28} {} schedules, {} distinct — {}",
        sweep.name,
        sweep.schedules,
        sweep.distinct,
        if sweep.passed() && sweep.structure_stable() {
            "ok"
        } else {
            "FAIL"
        }
    );
    for f in &sweep.findings {
        clean = false;
        println!("    {}", f.summary());
    }
    if !sweep.structure_stable() {
        clean = false;
    }

    // Selftests: each planted bug must be caught, and the named seed
    // must replay (run_selftests re-executes it and verifies).
    for t in run_selftests(8) {
        match &t.result {
            Ok(f) => println!(
                "  {:<28} caught (replay seed {}): [{}] {}",
                t.name, f.seed, f.rule, f.detail
            ),
            Err(e) => {
                clean = false;
                println!("  {:<28} NOT caught: checker is blind — {e}", t.name);
            }
        }
    }
    Ok(clean)
}
