//! Online analysis over a merged trace: critical-path extraction,
//! straggler detection, and expert-imbalance alerts.
//!
//! The analyzer runs per step (or per run) over a [`MergedTrace`] and
//! produces typed [`AnomalyRecord`]s that land in the same audit ring
//! as the adaptive decisions ([`crate::Telemetry::anomaly`]), so when
//! `MeasuredStrategySearch` sees a chosen strategy regress the cause
//! sits next to the decision.
//!
//! Straggler detection uses two independent signals:
//!
//! 1. **Wall clock**: each rank's busy window (span extent) against
//!    the median; the slowest rank is flagged when it exceeds
//!    `straggler_ratio × median`.
//! 2. **Delivery latency**: every data *message* (grouped by
//!    `(src, dst, tag)` across retransmissions) gets a delivery
//!    latency — earliest send to earliest accepted receive — and the
//!    latencies are attributed to the **sender**, summarized per rank
//!    by the median. A rank whose median outgoing delivery exceeds
//!    `straggler_ratio ×` the median rank's is flagged. This is the
//!    signal that names the right rank under fault injection — a rank
//!    that *delays its sends* stalls other ranks' walls, so wall
//!    clock alone blames the victims; and the median (not the worst)
//!    keeps a slow *receiver* from smearing every sender, since only
//!    the culprit is slow on all of its outgoing messages.

use std::collections::HashMap;

use crate::events::AnomalyRecord;
use crate::trace::{FlowKind, MergedTrace, TraceEvent};
use crate::Telemetry;

/// Thresholds for the analyzer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyzerConfig {
    /// A rank is a straggler when its signal exceeds this multiple of
    /// the median rank's.
    pub straggler_ratio: f64,
    /// Ignore wall-clock stragglers on steps shorter than this (µs) —
    /// scheduling noise dominates tiny windows.
    pub min_wall_us: f64,
    /// Ignore delivery-latency stragglers below this absolute
    /// median-latency floor (µs); healthy park/unpark jitter stays
    /// well under it, reliability-layer retry delays sit far above.
    pub min_latency_us: f64,
    /// An expert is hot when its load exceeds this multiple of the
    /// mean per-expert load.
    pub imbalance_ratio: f64,
}

impl Default for AnalyzerConfig {
    fn default() -> Self {
        AnalyzerConfig {
            straggler_ratio: 1.5,
            min_wall_us: 100.0,
            min_latency_us: 5_000.0,
            imbalance_ratio: 4.0,
        }
    }
}

/// Where a step's time went on the rank that bounded it.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// The slowest rank — the one whose timeline bounds the step.
    pub rank: usize,
    /// That rank's busy window (first span start to last span end), µs.
    pub wall_us: f64,
    /// Exclusive per-phase time on that rank (innermost-active span
    /// attribution; un-spanned gaps count as `idle`), largest first.
    pub phases: Vec<(String, f64)>,
}

/// The analyzer's output for one merged trace window.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Analysis {
    /// `(rank, busy window µs)` for every rank, rank order.
    pub rank_walls: Vec<(usize, f64)>,
    /// Critical path of the slowest rank, when any rank had spans.
    pub critical_path: Option<CriticalPath>,
    /// Typed anomalies, ready for the audit log.
    pub anomalies: Vec<AnomalyRecord>,
}

impl Analysis {
    /// Records every anomaly into `tel`'s audit ring (stamped with the
    /// current step).
    pub fn record_into(&self, tel: &Telemetry) {
        for anomaly in &self.anomalies {
            tel.anomaly(anomaly.clone());
        }
    }

    /// The flagged straggler rank, if any (first straggler anomaly).
    pub fn straggler(&self) -> Option<usize> {
        self.anomalies
            .iter()
            .find(|a| a.kind == "straggler")
            .and_then(|a| a.rank)
    }
}

/// Runs the trace-only analyses (critical path + both straggler
/// signals). Use [`analyze_with_load`] to add expert-imbalance alerts
/// from a routing histogram.
pub fn analyze(trace: &MergedTrace, cfg: &AnalyzerConfig) -> Analysis {
    let mut analysis = Analysis {
        rank_walls: rank_walls(trace),
        ..Analysis::default()
    };
    critical_path(trace, &mut analysis);
    wall_straggler(cfg, &mut analysis);
    latency_straggler(trace, cfg, &mut analysis);
    analysis
}

/// [`analyze`] plus an expert-imbalance check over per-expert token
/// counts (e.g. [`crate::StepRecord::expert_load`]).
pub fn analyze_with_load(
    trace: &MergedTrace,
    cfg: &AnalyzerConfig,
    expert_load: &[u64],
) -> Analysis {
    let mut analysis = analyze(trace, cfg);
    expert_imbalance(expert_load, cfg, &mut analysis);
    analysis
}

/// Renders an analysis as the text report the `tutel-trace` CLI
/// prints.
pub fn report(analysis: &Analysis) -> String {
    let mut out = String::new();
    match &analysis.critical_path {
        Some(cp) => {
            out.push_str(&format!(
                "critical path: rank {} bounds the step ({:.1} µs busy window)\n",
                cp.rank, cp.wall_us
            ));
            for (name, us) in &cp.phases {
                let pct = if cp.wall_us > 0.0 {
                    100.0 * us / cp.wall_us
                } else {
                    0.0
                };
                out.push_str(&format!("  {name:<20} {us:>12.1} µs  {pct:>5.1}%\n"));
            }
        }
        None => out.push_str("critical path: no spans recorded\n"),
    }
    out.push_str("rank walls (µs):");
    for (rank, wall) in &analysis.rank_walls {
        out.push_str(&format!("  r{rank}={wall:.1}"));
    }
    out.push('\n');
    if analysis.anomalies.is_empty() {
        out.push_str("anomalies: none\n");
    } else {
        out.push_str("anomalies:\n");
        for anomaly in &analysis.anomalies {
            out.push_str(&format!(
                "  {} (ratio {:.2})\n",
                anomaly.summary(),
                anomaly.ratio
            ));
        }
    }
    out
}

/// Median of a sorted slice (mean of the middle pair for even
/// lengths); `0.0` when empty.
fn median_sorted(xs: &[f64]) -> f64 {
    match xs.len() {
        0 => 0.0,
        n if n % 2 == 1 => xs[n / 2],
        n => 0.5 * (xs[n / 2 - 1] + xs[n / 2]),
    }
}

/// Each rank's busy window: last span end − first span start.
fn rank_walls(trace: &MergedTrace) -> Vec<(usize, f64)> {
    trace
        .ranks
        .iter()
        .map(|rank| {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for ev in &rank.events {
                if let TraceEvent::Span { t0_us, dur_us, .. } = ev {
                    lo = lo.min(*t0_us);
                    hi = hi.max(t0_us + dur_us);
                }
            }
            (rank.rank, if hi > lo { hi - lo } else { 0.0 })
        })
        .collect()
}

fn critical_path(trace: &MergedTrace, analysis: &mut Analysis) {
    let Some(&(slowest, wall_us)) = analysis
        .rank_walls
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return;
    };
    if wall_us <= 0.0 {
        return;
    }
    let Some(rank) = trace.ranks.iter().find(|r| r.rank == slowest) else {
        return;
    };
    // Innermost-active sweep: between consecutive span boundaries the
    // segment is attributed to the active span with the latest start
    // (the innermost for nested spans, the most recent for the
    // overlap streams); gaps with nothing active are `idle`.
    let mut spans: Vec<(&str, f64, f64)> = rank
        .events
        .iter()
        .filter_map(|ev| match ev {
            TraceEvent::Span {
                name,
                t0_us,
                dur_us,
                ..
            } => Some((name.as_str(), *t0_us, t0_us + dur_us)),
            _ => None,
        })
        .collect();
    spans.sort_by(|a, b| a.1.total_cmp(&b.1));
    let mut bounds: Vec<f64> = spans.iter().flat_map(|&(_, t0, t1)| [t0, t1]).collect();
    bounds.sort_by(f64::total_cmp);
    bounds.dedup();
    let mut phases: Vec<(String, f64)> = Vec::new();
    for pair in bounds.windows(2) {
        let (seg0, seg1) = (pair[0], pair[1]);
        if seg1 <= seg0 {
            continue;
        }
        let mid = 0.5 * (seg0 + seg1);
        let active = spans
            .iter()
            .filter(|&&(_, t0, t1)| t0 <= mid && mid < t1)
            .max_by(|a, b| a.1.total_cmp(&b.1));
        let name = active.map_or("idle", |&(name, _, _)| name);
        match phases.iter_mut().find(|(k, _)| k == name) {
            Some((_, total)) => *total += seg1 - seg0,
            None => phases.push((name.to_string(), seg1 - seg0)),
        }
    }
    phases.sort_by(|a, b| b.1.total_cmp(&a.1));
    let bounding = phases.first().cloned();
    analysis.critical_path = Some(CriticalPath {
        rank: slowest,
        wall_us,
        phases,
    });
    if let Some((name, us)) = bounding {
        let share = us / wall_us;
        analysis.anomalies.push(AnomalyRecord {
            kind: "critical_path".into(),
            rank: Some(slowest),
            request_id: None,
            ratio: share,
            detail: format!(
                "step bounded by `{name}` ({:.0}% of rank {slowest}'s {wall_us:.0} µs window)",
                100.0 * share
            ),
            step: None,
        });
    }
}

fn wall_straggler(cfg: &AnalyzerConfig, analysis: &mut Analysis) {
    let mut walls: Vec<f64> = analysis.rank_walls.iter().map(|&(_, w)| w).collect();
    if walls.len() < 2 {
        return;
    }
    walls.sort_by(f64::total_cmp);
    let median = median_sorted(&walls);
    let Some(&(slowest, worst)) = analysis
        .rank_walls
        .iter()
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return;
    };
    if worst >= cfg.min_wall_us && median > 0.0 && worst > cfg.straggler_ratio * median {
        analysis.anomalies.push(AnomalyRecord {
            kind: "straggler".into(),
            rank: Some(slowest),
            request_id: None,
            ratio: worst / median,
            detail: format!("rank {slowest} busy window {worst:.0} µs vs median {median:.0} µs"),
            step: None,
        });
    }
}

fn latency_straggler(trace: &MergedTrace, cfg: &AnalyzerConfig, analysis: &mut Analysis) {
    // Per-message delivery latency: retransmissions of one message
    // share `(src, dst, tag)`, and what matters is the gap from the
    // first transmission attempt to the first *useful* (accepted)
    // arrival — a retry that lands late still delivered late, however
    // quick the retransmission itself was.
    let mut messages: HashMap<(usize, usize, u64), (f64, Option<f64>)> = HashMap::new();
    for edge in trace.flow_edges() {
        if edge.kind != FlowKind::Data {
            continue;
        }
        let entry = messages
            .entry((edge.src, edge.dst, edge.tag))
            .or_insert((edge.send_us, None));
        entry.0 = entry.0.min(edge.send_us);
        if edge.accepted {
            entry.1 = Some(match entry.1 {
                Some(t) => t.min(edge.recv_us),
                None => edge.recv_us,
            });
        }
    }
    // Median outgoing delivery latency per *sending* rank; the median
    // (not the worst) keeps one slow receiver from smearing every
    // rank that sent to it.
    let mut per_sender: HashMap<usize, Vec<f64>> = HashMap::new();
    for (&(src, _, _), &(send_us, recv_us)) in &messages {
        if let Some(recv_us) = recv_us {
            per_sender.entry(src).or_default().push(recv_us - send_us);
        }
    }
    if per_sender.len() < 2 {
        return;
    }
    let mut medians: Vec<(usize, f64)> = per_sender
        .into_iter()
        .map(|(rank, mut lats)| {
            lats.sort_by(f64::total_cmp);
            (rank, median_sorted(&lats))
        })
        .collect();
    medians.sort_by_key(|&(rank, _)| rank);
    let mut stats: Vec<f64> = medians.iter().map(|&(_, m)| m).collect();
    stats.sort_by(f64::total_cmp);
    let median = median_sorted(&stats);
    let Some(&(rank, slowest)) = medians.iter().max_by(|a, b| a.1.total_cmp(&b.1)) else {
        return;
    };
    if slowest >= cfg.min_latency_us && slowest > cfg.straggler_ratio * median.max(1.0) {
        analysis.anomalies.push(AnomalyRecord {
            kind: "straggler".into(),
            rank: Some(rank),
            request_id: None,
            ratio: slowest / median.max(1.0),
            detail: format!(
                "rank {rank}'s data lands a median {slowest:.0} µs after sending \
                 (median rank {median:.0} µs) — delayed or retransmitted sends"
            ),
            step: None,
        });
    }
}

fn expert_imbalance(expert_load: &[u64], cfg: &AnalyzerConfig, analysis: &mut Analysis) {
    if expert_load.is_empty() {
        return;
    }
    let total: u64 = expert_load.iter().sum();
    if total == 0 {
        return;
    }
    let mean = total as f64 / expert_load.len() as f64;
    let (hot, &load) = expert_load
        .iter()
        .enumerate()
        .max_by_key(|&(_, &l)| l)
        .unwrap_or((0, &0));
    let ratio = load as f64 / mean;
    if ratio > cfg.imbalance_ratio {
        let detail =
            format!("expert {hot} holds {load} of {total} tokens ({ratio:.1}x the mean load)");
        analysis.anomalies.push(AnomalyRecord {
            kind: "expert_imbalance".into(),
            rank: None,
            request_id: None,
            ratio,
            detail,
            step: None,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{RankTrace, TRACK_COMM, TRACK_MAIN};

    fn span(name: &str, t0: f64, t1: f64) -> TraceEvent {
        TraceEvent::Span {
            track: TRACK_MAIN,
            name: name.into(),
            t0_us: t0,
            dur_us: t1 - t0,
            args: Vec::new(),
        }
    }

    fn rank_with_spans(rank: usize, spans: Vec<TraceEvent>) -> RankTrace {
        RankTrace {
            rank,
            dropped: 0,
            events: spans,
        }
    }

    #[test]
    fn wall_straggler_names_the_slowest_rank() {
        let trace = MergedTrace::from_ranks(vec![
            rank_with_spans(0, vec![span("step", 0.0, 1_000.0)]),
            rank_with_spans(1, vec![span("step", 0.0, 1_100.0)]),
            rank_with_spans(2, vec![span("step", 0.0, 5_000.0)]),
            rank_with_spans(3, vec![span("step", 0.0, 900.0)]),
        ]);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(analysis.straggler(), Some(2));
    }

    #[test]
    fn balanced_ranks_raise_no_straggler() {
        let trace = MergedTrace::from_ranks(vec![
            rank_with_spans(0, vec![span("step", 0.0, 1_000.0)]),
            rank_with_spans(1, vec![span("step", 0.0, 1_050.0)]),
        ]);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(analysis.straggler(), None);
    }

    #[test]
    fn latency_straggler_blames_the_sender() {
        // Rank 1's delivery arrives 20 ms after the send; everyone
        // else delivers in microseconds. Walls are balanced, so only
        // the flow-latency signal can name rank 1.
        let mk = |src: usize, dst: usize, send: f64, recv: f64| {
            vec![
                (
                    src,
                    TraceEvent::FlowSend {
                        dst,
                        tag: (src * 10 + dst) as u64,
                        seq: 0,
                        kind: FlowKind::Data,
                        bytes: 8,
                        t_us: send,
                    },
                ),
                (
                    dst,
                    TraceEvent::FlowRecv {
                        src,
                        tag: (src * 10 + dst) as u64,
                        seq: 0,
                        kind: FlowKind::Data,
                        accepted: true,
                        t_us: recv,
                    },
                ),
            ]
        };
        let mut per_rank: Vec<Vec<TraceEvent>> = vec![Vec::new(); 4];
        for (src, dst, send, recv) in [
            (0usize, 1usize, 0.0, 5.0),
            (1, 2, 0.0, 20_000.0),
            (2, 3, 0.0, 6.0),
            (3, 0, 0.0, 4.0),
        ] {
            for (owner, ev) in mk(src, dst, send, recv) {
                per_rank[owner].push(ev);
            }
        }
        for (r, events) in per_rank.iter_mut().enumerate() {
            events.push(span("step", 0.0, 1_000.0 + r as f64));
        }
        let trace = MergedTrace::from_ranks(
            per_rank
                .into_iter()
                .enumerate()
                .map(|(r, events)| rank_with_spans(r, events))
                .collect(),
        );
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        assert_eq!(analysis.straggler(), Some(1));
    }

    #[test]
    fn critical_path_attributes_innermost_and_idle() {
        let events = vec![
            span("step", 0.0, 100.0),
            span("ffn", 10.0, 70.0),
            TraceEvent::Span {
                track: TRACK_COMM,
                name: "all_to_all".into(),
                t0_us: 70.0,
                dur_us: 20.0,
                args: Vec::new(),
            },
        ];
        let trace = MergedTrace::from_ranks(vec![rank_with_spans(0, events)]);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        let cp = analysis.critical_path.expect("critical path");
        assert_eq!(cp.rank, 0);
        assert!((cp.wall_us - 100.0).abs() < 1e-9);
        assert_eq!(cp.phases.first().map(|(n, _)| n.as_str()), Some("ffn"));
        let get = |name: &str| {
            cp.phases
                .iter()
                .find(|(k, _)| k == name)
                .map(|&(_, v)| v)
                .unwrap_or(0.0)
        };
        assert!((get("ffn") - 60.0).abs() < 1e-9);
        assert!((get("all_to_all") - 20.0).abs() < 1e-9);
        // `step` keeps only its exclusive head/tail segments.
        assert!((get("step") - 20.0).abs() < 1e-9);
        assert!(analysis.anomalies.iter().any(|a| a.kind == "critical_path"));
    }

    #[test]
    fn expert_imbalance_flags_hot_expert() {
        let trace = MergedTrace::default();
        let analysis = analyze_with_load(
            &trace,
            &AnalyzerConfig::default(),
            &[10, 10, 10, 500, 10, 10, 10, 10],
        );
        let hot = analysis
            .anomalies
            .iter()
            .find(|a| a.kind == "expert_imbalance")
            .expect("imbalance anomaly");
        assert!(hot.detail.contains("expert 3"), "{}", hot.detail);

        let balanced = analyze_with_load(&trace, &AnalyzerConfig::default(), &[10; 8]);
        assert!(!balanced
            .anomalies
            .iter()
            .any(|a| a.kind == "expert_imbalance"));
    }

    #[test]
    fn report_is_human_readable() {
        let trace = MergedTrace::from_ranks(vec![
            rank_with_spans(0, vec![span("step", 0.0, 1_000.0)]),
            rank_with_spans(1, vec![span("step", 0.0, 4_000.0)]),
        ]);
        let analysis = analyze(&trace, &AnalyzerConfig::default());
        let text = report(&analysis);
        assert!(text.contains("critical path"), "{text}");
        assert!(text.contains("straggler"), "{text}");
    }
}
