//! Causal-trace scenarios over the distributed executor.
//!
//! Two scenarios back the observability claims end to end:
//!
//! * [`run_trace_smoke`] — a clean 4-rank overlapped run of the full
//!   MoE forward + backward with every rank traced. It exports the
//!   run's one JSONL stream and the merged Perfetto-loadable
//!   `.trace.json`, then asserts the structural invariants: every
//!   flow edge binds exactly one send/recv pair, cross-rank edges
//!   exist, both overlap streams recorded spans, and the 2DH
//!   promotion instant is present.
//! * [`run_straggler_scenario`] — a seeded [`FaultPlan`] delays every
//!   data send from one known rank while that rank also stalls
//!   between issuing and waiting on a non-blocking All-to-All. The
//!   analyzer must attribute the step to that rank from the trace
//!   alone (delivery-latency signal, not wall clock — the victims'
//!   walls are just as long), and the resulting [`AnomalyRecord`]s
//!   land in the telemetry audit ring next to the adaptive decisions.
//!
//! [`AnomalyRecord`]: tutel_obs::AnomalyRecord

use std::thread;
use std::time::Duration;

use tutel_comm::{AllToAllAlgo, FaultPlan, RankGroup, ReliableConfig, RetryPolicy, Topology};
use tutel_obs::trace::{TraceInvariants, TRACK_STREAM_COMM, TRACK_STREAM_COMPUTE};
use tutel_obs::{analyze, Analysis, AnalyzerConfig, Telemetry, TraceEvent};

use crate::dist::run_distributed;
use crate::reference::Problem;
use crate::{ExecConfig, Parallelism};

/// Outcome of the clean traced smoke run.
#[derive(Debug, Clone)]
pub struct TraceSmoke {
    /// Structural facts from the invariant checker.
    pub invariants: TraceInvariants,
    /// The run's JSONL stream (every rank's trace events).
    pub jsonl_path: String,
    /// The merged Chrome `trace_events` file.
    pub trace_path: String,
    /// The analyzer's text report for the run.
    pub report: String,
}

/// How long the straggler scenario's culprit stalls between issuing
/// and waiting on its exchange — far above the analyzer's
/// delivery-latency floor, far below the retry timeout.
const STRAGGLER_STALL: Duration = Duration::from_millis(12);

/// Runs the 4-rank, 4-thread, degree-2 overlapped conformance
/// workload traced, writes the run's stream to `{prefix}.jsonl` and
/// the merged `{prefix}.trace.json`, and checks the trace's structural
/// invariants.
///
/// # Errors
///
/// Returns a description of the first failed export or violated
/// invariant.
pub fn run_trace_smoke(prefix: &str) -> Result<TraceSmoke, String> {
    let problem = Problem { world: 4, seed: 42 };
    let fixture = problem.materialize();
    let cfg = ExecConfig {
        strategy: Parallelism::P2,
        algo: AllToAllAlgo::TwoDh,
        degree: 2,
        world: 4,
        threads: 4,
        dropless: false,
    };
    let tel = Telemetry::enabled();
    run_distributed(&problem, &fixture, &cfg, &tel);

    let jsonl_path = format!("{prefix}.jsonl");
    tel.export_jsonl_to(&jsonl_path)
        .map_err(|e| format!("exporting {jsonl_path}: {e}"))?;
    let merged = tel.trace();
    let invariants = merged.check_invariants()?;
    if invariants.cross_rank_edges == 0 {
        return Err("traced run produced no cross-rank flow edges".to_string());
    }
    for (track, name) in [
        (TRACK_STREAM_COMPUTE, "compute stream"),
        (TRACK_STREAM_COMM, "comm stream"),
    ] {
        let seen = merged.ranks.iter().any(|r| {
            r.events
                .iter()
                .any(|ev| matches!(ev, TraceEvent::Span { track: t, .. } if *t == track))
        });
        if !seen {
            return Err(format!("no {name} spans — overlap streams missing"));
        }
    }
    let promoted = merged.ranks.iter().all(|r| {
        r.events
            .iter()
            .any(|ev| matches!(ev, TraceEvent::Instant { name, .. } if name == "2dh.promote"))
    });
    if !promoted {
        return Err("a rank never promoted its 2DH exchange to the inter phase".to_string());
    }

    let trace_path = format!("{prefix}.trace.json");
    merged
        .write_chrome_to(&trace_path)
        .map_err(|e| format!("writing {trace_path}: {e}"))?;
    let analysis = analyze(&merged, &AnalyzerConfig::default());
    Ok(TraceSmoke {
        invariants,
        jsonl_path,
        trace_path,
        report: tutel_obs::analyze::report(&analysis),
    })
}

/// Stages a known straggler and checks the analyzer names it.
///
/// Four ranks run a reliable, traced non-blocking All-to-All; the
/// seeded plan delays every data send from `culprit`, and `culprit`
/// stalls `STRAGGLER_STALL` between issue and wait, so its delayed
/// payloads only flush when it re-enters the runtime. Every rank's
/// *wall* is equally long (the victims block on the late data), so
/// only the sender-attributed delivery-latency signal can name the
/// culprit. The ranks are traced on `tel`, which must therefore be
/// enabled, and the anomalies land in its audit ring.
///
/// # Errors
///
/// Returns a description of the failure when any rank's exchange
/// errors, the trace is structurally broken, or the analyzer blames
/// the wrong rank (or no rank).
pub fn run_straggler_scenario(
    seed: u64,
    culprit: usize,
    tel: &Telemetry,
) -> Result<Analysis, String> {
    let topo = Topology::new(2, 2);
    let world = topo.world_size();
    assert!(culprit < world, "culprit must be a rank");
    let cfg = ReliableConfig {
        // A timeout far above the stall: the delayed copies themselves
        // are the accepted deliveries, not retransmissions of them.
        policy: RetryPolicy {
            timeout: Duration::from_millis(500),
            max_retries: 2,
            backoff: 2,
        },
        plan: Some(FaultPlan::new(seed).with_delays(100, 2).only_from(culprit)),
        telemetry: tel.clone(),
    };
    let results = RankGroup::new(topo, Some(cfg), tel).run_once(move |mut comm| {
        let sends = (0..world)
            .map(|d| vec![(comm.rank() * world + d) as f32; 2])
            .collect();
        let handle = comm.ialltoall_v(AllToAllAlgo::Linear, sends)?;
        if comm.rank() == culprit {
            thread::sleep(STRAGGLER_STALL);
        }
        handle.wait(&mut comm)
    });
    for (rank, result) in results.iter().enumerate() {
        if let Err(e) = result {
            return Err(format!("rank {rank} failed under the delay plan: {e:?}"));
        }
    }

    let merged = tel.trace();
    merged.check_invariants()?;
    let analysis = analyze(&merged, &AnalyzerConfig::default());
    match analysis.straggler() {
        Some(rank) if rank == culprit => {}
        Some(rank) => {
            return Err(format!(
                "analyzer blamed rank {rank}, but the delay plan targets rank {culprit}"
            ))
        }
        None => {
            return Err(format!(
                "analyzer saw no straggler despite rank {culprit}'s delayed sends"
            ))
        }
    }
    analysis.record_into(tel);
    Ok(analysis)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_smoke_round_trips_and_passes_invariants() {
        let dir = std::env::temp_dir().join(format!("tutel-trace-smoke-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let prefix = dir.join("smoke").to_string_lossy().into_owned();
        let smoke = run_trace_smoke(&prefix).expect("trace smoke");
        assert!(smoke.invariants.cross_rank_edges > 0);
        assert!(!smoke.invariants.truncated, "ring buffers overflowed");
        // Round trip: the exported stream parses back into every rank's
        // trace, which still satisfies every structural invariant.
        let text = std::fs::read_to_string(&smoke.jsonl_path).expect("run JSONL");
        let remerged = tutel_obs::MergedTrace::from_jsonl(&text).expect("parse");
        let ranks: Vec<_> = remerged.ranks.iter().map(|r| r.rank).collect();
        assert_eq!(ranks, [0, 1, 2, 3]);
        assert!(remerged.ranks.iter().all(|r| !r.events.is_empty()));
        let reinv = remerged.check_invariants().expect("re-merged invariants");
        assert_eq!(reinv, smoke.invariants);
        // Track ids are stable across ranks: one span name, one track.
        let mut name_track = std::collections::HashMap::new();
        for rank in &remerged.ranks {
            for ev in &rank.events {
                if let TraceEvent::Span { track, name, .. } = ev {
                    let prev = name_track.insert(name.clone(), *track);
                    assert!(
                        prev.is_none_or(|t| t == *track),
                        "span {name:?} moved tracks across ranks"
                    );
                }
            }
        }
        let chrome = std::fs::read_to_string(&smoke.trace_path).expect("chrome JSON");
        assert!(chrome.contains("traceEvents"));
        assert!(smoke.report.contains("critical path"), "{}", smoke.report);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delayed_rank_is_flagged_as_the_straggler() {
        let tel = Telemetry::enabled();
        let analysis = run_straggler_scenario(0xFA17, 1, &tel).expect("straggler scenario");
        assert_eq!(analysis.straggler(), Some(1));
        // The anomaly landed in the audit ring next to the decisions.
        let recorded = tel.anomalies();
        assert!(
            recorded
                .iter()
                .any(|a| a.kind == "straggler" && a.rank == Some(1)),
            "audit ring is missing the straggler record: {recorded:?}"
        );
    }
}
