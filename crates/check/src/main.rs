//! CLI for `tutel-check`.
//!
//! Lint mode (default):
//!
//! ```text
//! tutel-check [--root DIR] [--json] [--baseline FILE]
//!             [--write-baseline FILE] [--emit-timing FILE]
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
//! Exit codes: 0 = clean (or ratchet passed), 1 = violations or
//! schedule failures, 2 = usage / IO error.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use tutel_check::race::{combined_sweep, run_selftests, RaceConfig};
use tutel_check::sweep::{broken_tag_selftest, sweep_collectives, SweepConfig};
use tutel_check::{diagnostics_to_json, Baseline, Ratchet};
use tutel_obs::json::Value;

struct Opts {
    root: PathBuf,
    json: bool,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
    sched: bool,
    race: bool,
    seeds: u64,
    emit_timing: Option<PathBuf>,
}

fn usage() -> &'static str {
    "usage: tutel-check [--root DIR] [--json] [--baseline FILE] \
     [--write-baseline FILE] [--emit-timing FILE] | --sched [--seeds N] \
     | --race [--seeds N]"
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        root: PathBuf::from("."),
        json: false,
        baseline: None,
        write_baseline: None,
        sched: false,
        race: false,
        seeds: 128,
        emit_timing: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let path_arg = |args: &mut dyn Iterator<Item = String>| {
            args.next()
                .map(PathBuf::from)
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        match arg.as_str() {
            "--root" => opts.root = path_arg(&mut args)?,
            "--baseline" => opts.baseline = Some(path_arg(&mut args)?),
            "--write-baseline" => opts.write_baseline = Some(path_arg(&mut args)?),
            "--emit-timing" => opts.emit_timing = Some(path_arg(&mut args)?),
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

/// Lint mode; returns Ok(true) when the run should exit 0.
fn run_lint(opts: &Opts) -> Result<bool, String> {
    let started = Instant::now();
    let report = tutel_check::lint_workspace(&opts.root)?;
    let wall = started.elapsed();
    let current = Baseline::from_diagnostics(&report.diagnostics);

    if let Some(path) = &opts.emit_timing {
        let timing = Value::obj([
            (
                "lint_wall_ms",
                Value::from((wall.as_secs_f64() * 1e6).round() / 1e3),
            ),
            ("files_scanned", Value::from(report.files_scanned)),
            ("crates_scanned", Value::from(report.crates_scanned)),
            ("violations", Value::from(current.total())),
        ]);
        std::fs::write(path, timing.to_pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }

    if opts.json {
        println!("{}", diagnostics_to_json(&report.diagnostics));
    } else {
        for d in &report.diagnostics {
            println!("{d}");
        }
    }

    if let Some(path) = &opts.write_baseline {
        std::fs::write(path, current.render())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        eprintln!(
            "tutel-check: wrote baseline ({} violation(s) across {} file:rule key(s)) to {}",
            current.total(),
            current.counts.len(),
            path.display()
        );
        return Ok(true);
    }

    if let Some(path) = &opts.baseline {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read baseline {}: {e}", path.display()))?;
        let committed =
            Baseline::parse(&text).map_err(|e| format!("baseline {}: {e}", path.display()))?;
        let ratchet = Ratchet::compare(&current, &committed);
        for (key, cur, base) in &ratchet.regressions {
            eprintln!("tutel-check: REGRESSION {key}: {cur} violation(s), baseline allows {base}");
        }
        for (key, cur, base) in &ratchet.improvements {
            eprintln!(
                "tutel-check: improved {key}: {cur} (baseline {base}) — \
                 re-run with --write-baseline to tighten the ratchet"
            );
        }
        for (key, base) in &ratchet.stale {
            eprintln!(
                "tutel-check: STALE {key}: baseline allows {base} but the key no \
                 longer produces any diagnostic — prune with --write-baseline"
            );
        }
        eprintln!(
            "tutel-check: {} file(s), {} violation(s) (baseline {}), {} regression(s), \
             {} stale entr{} — {}",
            report.files_scanned,
            current.total(),
            committed.total(),
            ratchet.regressions.len(),
            ratchet.stale.len(),
            if ratchet.stale.len() == 1 { "y" } else { "ies" },
            if ratchet.passed() { "PASS" } else { "FAIL" }
        );
        return Ok(ratchet.passed());
    }

    eprintln!(
        "tutel-check: {} file(s) in {} crate(s), {} violation(s)",
        report.files_scanned,
        report.crates_scanned,
        current.total()
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
