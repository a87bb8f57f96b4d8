//! `tutel-trace`: read one run's telemetry JSONL stream, write its
//! every-rank trace as one Perfetto-loadable Chrome `trace_events` JSON
//! and print a critical-path report.
//!
//! ```text
//! tutel-trace <out.trace.json> <run.jsonl>
//! ```
//!
//! Exit codes: `0` merged and invariants hold, `1` usage or I/O
//! error, `2` the merged trace violates a structural invariant.
//! Truncated inputs (a rank's ring dropped events) merge with a
//! warning on stderr — the completeness invariants are skipped in
//! that case, so the analysis window is explicit, never silent.

use std::process::ExitCode;

use tutel_obs::analyze::{analyze, report, AnalyzerConfig};
use tutel_obs::MergedTrace;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [out_path, path] = args.as_slice() else {
        eprintln!("usage: tutel-trace <out.trace.json> <run.jsonl>");
        return ExitCode::FAILURE;
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("tutel-trace: cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let merged = match MergedTrace::from_jsonl(&text) {
        Ok(merged) => merged,
        Err(err) => {
            eprintln!("tutel-trace: {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    for rank in merged.ranks.iter().filter(|r| r.dropped > 0) {
        eprintln!(
            "tutel-trace: warning: rank {} dropped {} events before export — \
             the merged trace is truncated",
            rank.rank, rank.dropped
        );
    }
    let invariants = match merged.check_invariants() {
        Ok(inv) => inv,
        Err(err) => {
            eprintln!("tutel-trace: invariant violated: {err}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = merged.write_chrome_to(out_path) {
        eprintln!("tutel-trace: cannot write {out_path}: {err}");
        return ExitCode::FAILURE;
    }
    println!(
        "merged {} ranks: {} events, {} spans, {} flow edges ({} cross-rank, {} retries){}",
        merged.ranks.len(),
        invariants.events,
        invariants.spans,
        invariants.edges,
        invariants.cross_rank_edges,
        invariants.retry_edges,
        if invariants.truncated {
            " [TRUNCATED]"
        } else {
            ""
        }
    );
    println!("wrote {out_path}");
    print!("{}", report(&analyze(&merged, &AnalyzerConfig::default())));
    ExitCode::SUCCESS
}
