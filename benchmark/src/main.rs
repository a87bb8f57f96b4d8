//! Wall-clock train + serve benchmark of the tutel-rs workspace, with a
//! per-layer ledger measured from outside. See `README.md`.
//!
//! Two ways in:
//!
//! * `--workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//!   workload in this process and prints its metrics, the last line as
//!   one JSON object (the `BENCHMARK.json` contract);
//! * `--seed <n>` alone runs the whole suite — every workload in a fresh
//!   process, three untraced repeats in rotated order plus one traced
//!   run — prints every metric by name and writes `out/result.json`;
//!   `--check-repeat` does that twice and compares the two sets.

mod adapter;
mod catalog;
mod gen;
mod host;
mod rtstats;
mod serve;
mod spans;
mod stats;
mod suite;
mod train;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use adapter::{Json, Res};
use catalog::Metric;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "train_wide_ffn",
    "train_many_experts",
    "serve_small_steps",
    "serve_large_steps",
];

/// Seconds one run measures unless `--seconds` says otherwise; equals
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// What one run was asked for.
pub struct RunArgs {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// As early in `main` as it can be read: `setup_s` counts from here.
    pub process_start: Instant,
}

/// Where traces and results go: `out/` beside the benchmark's manifest.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

impl RunArgs {
    /// Writes the run's spans as `out/trace-<workload>.json`.
    pub fn write_trace(&self, workload: &str, rec: &spans::Recorder) -> Res<()> {
        let dir = out_dir();
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, rec.to_chrome_trace().to_json())
            .map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 7;

/// Builds a workload [`SETUP_REPEATS`] times, each from a cleared arena
/// and with the previous build dropped; returns the last build and each
/// build's seconds, the first counted from process start.
pub fn timed_setups<S>(args: &RunArgs, mut build: impl FnMut() -> Res<S>) -> Res<(S, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut built = None;
    for r in 0..SETUP_REPEATS {
        drop(built.take());
        adapter::arena_clear();
        let t0 = if r == 0 {
            args.process_start
        } else {
            Instant::now()
        };
        built = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((built.expect("SETUP_REPEATS > 0"), times))
}

/// Turns each kind of window (untraced, span-recorded, telemetry
/// enabled) takes in a traced run, so the host's drift lands on all
/// alike.
pub const TRACE_ROUNDS: usize = 3;

/// Steps one window of a traced run makes: `percent` of the nominal
/// count, split over the rounds.
pub fn trace_window(nominal: usize, percent: usize) -> usize {
    (nominal * percent / 100 / TRACE_ROUNDS).max(1)
}

/// What one run found.
#[derive(Default)]
pub struct Outcome {
    /// Operations tried: train steps, or requests that left the engine.
    pub attempted: u64,
    /// Operations that failed: an `Err`, a non-finite loss, a rejected
    /// request, an oracle mismatch.
    pub failed: u64,
    /// The first few failed operations, for the reader.
    pub failures: Vec<String>,
    /// Failed whole-run checks (loss fell, first forward = infer).
    pub checks: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Named facts that are not catalog metrics: sample counts, tails,
    /// digests.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn note(&mut self, key: &str, value: String) {
        self.notes.push((key.to_string(), value));
    }

    pub fn fail_check(&mut self, msg: String) {
        self.checks.push(msg);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.is_empty()
    }

    /// The contract's result object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let value =
                    Json::obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]);
                (m.name.to_string(), value)
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.attempted.max(1))),
            ("failed", Json::from(self.failed)),
            ("metrics", Json::Obj(metrics)),
        ])
    }
}

/// Runs `workload` in this process.
fn run_workload(workload: &str, args: &RunArgs) -> Res<Outcome> {
    match workload {
        "train_wide_ffn" => train::run(&train::WIDE_FFN, args),
        "train_many_experts" => train::run(&train::MANY_EXPERTS, args),
        "serve_small_steps" => serve::run(&serve::SMALL_STEPS, args),
        "serve_large_steps" => serve::run(&serve::LARGE_STEPS, args),
        other => Err(format!("unknown workload {other:?}; one of {WORKLOADS:?}")),
    }
}

/// The parsed command line.
struct Cli {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    check_repeat: bool,
}

fn parse_cli(args: &[String]) -> Res<Cli> {
    let mut cli = Cli {
        workload: None,
        seed: 0,
        seconds: DEFAULT_SECONDS,
        trace: false,
        check_repeat: false,
    };
    let mut seeded = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value()?.clone()),
            "--seed" => {
                cli.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
                seeded = true;
            }
            "--seconds" => {
                cli.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.seconds > 0.0 && cli.seconds <= 600.0) {
                    return Err(format!("--seconds {} is outside (0, 600]", cli.seconds));
                }
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: 0 or 1")),
                }
            }
            "--check-repeat" => cli.check_repeat = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !seeded {
        return Err("--seed <n> is required".into());
    }
    Ok(cli)
}

const USAGE: &str = "usage: tutel-benchmark --seed <n> [--seconds <s>] [--check-repeat]
       tutel-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]";

fn main() -> ExitCode {
    let process_start = Instant::now();
    host::export_threads();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&argv) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let stamp = host::HostStamp::read(cli.seed);
    println!("{}", stamp.header());
    let Some(workload) = cli.workload else {
        return suite::run(&stamp, cli.seconds, cli.check_repeat);
    };
    let args = RunArgs {
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        process_start,
    };
    let outcome = match run_workload(&workload, &args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "# workload: {workload} seconds={} trace={}",
        cli.seconds,
        u8::from(cli.trace)
    );
    for m in &outcome.metrics {
        println!("{:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{:<40} {:>16}", "ops_attempted", outcome.attempted);
    println!("{:<40} {:>16}", "ops_failed", outcome.failed);
    for (k, v) in &outcome.notes {
        println!("# {k}: {v}");
    }
    for f in outcome.failures.iter().chain(&outcome.checks) {
        println!("# FAILED: {f}");
    }
    println!("{}", outcome.to_json().to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn cli_parses_the_contract_invocation() {
        let cli = parse_cli(&argv(
            "--workload serve_small_steps --seed 7 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(cli.workload.as_deref(), Some("serve_small_steps"));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 3.0, true));
        let suite = parse_cli(&argv("--seed 1 --check-repeat")).unwrap();
        assert!(suite.workload.is_none() && suite.check_repeat);
        assert_eq!(suite.seconds, DEFAULT_SECONDS);
    }

    #[test]
    fn cli_rejects_what_it_cannot_run() {
        for bad in [
            "",
            "--seed",
            "--seed x",
            "--seed 1 --trace 2",
            "--seed 1 --seconds 0",
            "--seed 1 --frobnicate",
        ] {
            assert!(parse_cli(&argv(bad)).is_err(), "{bad:?}");
        }
        let args = RunArgs {
            seed: 1,
            seconds: 1.0,
            trace: false,
            process_start: Instant::now(),
        };
        assert!(run_workload("train_narrow", &args).is_err());
    }

    #[test]
    fn a_failed_operation_or_check_makes_the_result_incorrect() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        assert!(o.correct());
        assert_eq!(o.to_json().get("correct"), Some(&Json::Bool(true)));
        o.failed = 1;
        assert!(!o.correct());
        o.failed = 0;
        o.fail_check("loss rose".into());
        assert!(!o.correct());
        let j = o.to_json();
        assert_eq!(j.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(j.get("attempted").and_then(Json::as_u64), Some(10));
    }
}
