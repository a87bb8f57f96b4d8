//! The whole benchmark in one command: every workload in a fresh
//! process, three untraced repeats in rotated order and one traced run,
//! every metric printed by name; and `--check-repeat`, which does that
//! twice on the same build and holds the two sets to the bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

use crate::adapter::{Json, Res};
use crate::catalog::{better, END_TO_END, EXACT_COUNTS, PER_LAYER};
use crate::host::HostStamp;
use crate::stats::median;
use crate::{out_dir, WORKLOADS};

/// Untraced runs per workload; end-to-end metrics are their median.
const REPEATS: usize = 3;

/// One child run's result object, parsed back.
struct Child {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// Runs one workload in a fresh process and parses its last line.
fn child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Res<Child> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let doc = Json::parse(last).map_err(|e| {
        format!(
            "{workload} (exit {:?}) printed no result: {e}\n{}",
            out.status.code(),
            String::from_utf8_lossy(&out.stderr)
        )
    })?;
    for line in stdout.lines().filter(|l| l.starts_with("# FAILED")) {
        println!("{line}");
    }
    let metrics = match doc.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect(),
        _ => return Err(format!("{workload}: result has no metrics")),
    };
    Ok(Child {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true) && out.status.success(),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
    })
}

/// One workload's share of a set.
#[derive(Default)]
struct WorkloadRuns {
    untraced: Vec<Child>,
    traced: Option<Child>,
}

impl WorkloadRuns {
    fn runs(&self) -> impl Iterator<Item = &Child> {
        self.untraced.iter().chain(&self.traced)
    }

    fn correct(&self) -> bool {
        self.untraced.len() == REPEATS && self.runs().all(|c| c.correct)
    }

    fn values(&self, metric: &str) -> Vec<f64> {
        self.untraced
            .iter()
            .filter_map(|c| c.metrics.get(metric).copied())
            .collect()
    }

    fn layer(&self, metric: &str) -> f64 {
        self.traced
            .as_ref()
            .and_then(|c| c.metrics.get(metric).copied())
            .unwrap_or(0.0)
    }
}

/// One entry per workload, in `WORKLOADS` order.
type Set = Vec<(&'static str, WorkloadRuns)>;

fn runs_of<'s>(set: &'s mut Set, workload: &str) -> &'s mut WorkloadRuns {
    let entry = set.iter_mut().find(|(w, _)| *w == workload);
    &mut entry.expect("a set holds every workload").1
}

/// One full set: the untraced repeats with the workload order rotated
/// each time, then the traced runs.
fn run_set(seed: u64, seconds: f64) -> Res<Set> {
    let mut set: Set = WORKLOADS
        .iter()
        .map(|&w| (w, WorkloadRuns::default()))
        .collect();
    for rep in 0..REPEATS {
        for i in 0..WORKLOADS.len() {
            let w = WORKLOADS[(i + rep) % WORKLOADS.len()];
            eprintln!("# running {w} (repeat {} of {REPEATS})", rep + 1);
            let c = child(w, seed, seconds, false)?;
            runs_of(&mut set, w).untraced.push(c);
        }
    }
    for w in WORKLOADS {
        eprintln!("# running {w} (traced)");
        let c = child(w, seed, seconds, true)?;
        runs_of(&mut set, w).traced = Some(c);
    }
    Ok(set)
}

fn min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        })
}

fn print_set(set: &Set) {
    for (name, runs) in set {
        println!("\n## {name}");
        println!(
            "{:<40} {:>16} {:<8} {:<6} {:>5}  min .. max",
            "end-to-end metric", "median", "unit", "better", "bound"
        );
        for m in END_TO_END {
            let v = runs.values(m.name);
            let (lo, hi) = min_max(&v);
            println!(
                "{:<40} {:>16.6} {:<8} {:<6} {:>4.0}%  {lo:.6} .. {hi:.6}",
                m.name,
                median(&v),
                m.unit,
                better(m.higher_is_better),
                m.bound * 100.0
            );
        }
        let attempted: u64 = runs.runs().map(|c| c.attempted).sum();
        let failed: u64 = runs.runs().map(|c| c.failed).sum();
        println!("{:<40} {attempted:>16}", "ops_attempted");
        println!("{:<40} {failed:>16}", "ops_failed");
        println!(
            "{:<40} {:>16} {:<8} {:<6}",
            "per-layer metric (traced run)", "value", "unit", "better"
        );
        for m in PER_LAYER {
            println!(
                "{:<40} {:>16.6} {:<8} {:<6}",
                m.name,
                runs.layer(m.name),
                m.unit,
                better(m.higher_is_better)
            );
        }
        if !runs.correct() {
            println!("# FAILED: {name} did not pass its output checks");
        }
    }
}

fn set_to_json(set: &Set) -> Json {
    Json::Obj(
        set.iter()
            .map(|(name, runs)| {
                let e2e = END_TO_END
                    .iter()
                    .map(|m| {
                        let v = runs.values(m.name);
                        let (lo, hi) = min_max(&v);
                        let entry = Json::obj([
                            ("median", Json::from(median(&v))),
                            ("min", Json::from(lo)),
                            ("max", Json::from(hi)),
                            ("unit", Json::from(m.unit)),
                            ("samples", Json::from(v.len())),
                        ]);
                        (m.name.to_string(), entry)
                    })
                    .collect();
                let layers = PER_LAYER
                    .iter()
                    .map(|m| {
                        let entry = Json::obj([
                            ("value", Json::from(runs.layer(m.name))),
                            ("unit", Json::from(m.unit)),
                        ]);
                        (m.name.to_string(), entry)
                    })
                    .collect();
                let doc = Json::obj([
                    ("correct", Json::Bool(runs.correct())),
                    (
                        "ops_attempted",
                        Json::from(runs.runs().map(|c| c.attempted).sum::<u64>()),
                    ),
                    (
                        "ops_failed",
                        Json::from(runs.runs().map(|c| c.failed).sum::<u64>()),
                    ),
                    ("end_to_end", Json::Obj(e2e)),
                    ("per_layer", Json::Obj(layers)),
                ]);
                (name.to_string(), doc)
            })
            .collect(),
    )
}

/// Where two sets of the same build disagree: an end-to-end median pair
/// further apart than the metric's bound, or an exact count that moved.
fn disagreements(a: &Set, b: &Set) -> Vec<String> {
    let mut out = Vec::new();
    for ((name, ra), (_, rb)) in a.iter().zip(b) {
        println!("\n## {name}: set 1 vs set 2");
        for m in END_TO_END {
            let (va, vb) = (ra.values(m.name), rb.values(m.name));
            let (ma, mb) = (median(&va), median(&vb));
            let apart = (ma - mb).abs() / ma.min(mb).max(f64::MIN_POSITIVE);
            let (lo, hi) = min_max(&[va, vb].concat());
            println!(
                "{:<16} {ma:>14.6} {mb:>14.6} {:<6} apart {:>5.2}% (bound {:.0}%)  spread {lo:.6} .. {hi:.6}",
                m.name,
                m.unit,
                apart * 100.0,
                m.bound * 100.0
            );
            if apart > m.bound {
                out.push(format!(
                    "{name}/{}: medians {ma} and {mb} are {:.2}% apart, bound {:.0}%",
                    m.name,
                    apart * 100.0,
                    m.bound * 100.0
                ));
            }
        }
        for count in EXACT_COUNTS {
            let (ca, cb) = (ra.layer(count), rb.layer(count));
            if ca != cb {
                out.push(format!("{name}/{count}: exact count moved, {ca} then {cb}"));
            }
        }
    }
    out
}

pub fn run(stamp: &HostStamp, seconds: f64, check_repeat: bool) -> ExitCode {
    let mut sets = Vec::new();
    for n in 0..if check_repeat { 2 } else { 1 } {
        match run_set(stamp.seed, seconds) {
            Ok(set) => {
                if check_repeat {
                    println!("\n# set {} of 2", n + 1);
                }
                print_set(&set);
                sets.push(set);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut problems: Vec<String> = sets
        .iter()
        .flat_map(|set| set.iter().filter(|(_, r)| !r.correct()))
        .map(|(name, _)| format!("{name}: an output check or an operation failed"))
        .collect();
    if let [a, b] = sets.as_slice() {
        problems.extend(disagreements(a, b));
    }
    let doc = Json::obj([
        ("host", stamp.to_json()),
        ("seconds", Json::from(seconds)),
        ("sets", Json::Arr(sets.iter().map(set_to_json).collect())),
        (
            "problems",
            Json::Arr(problems.iter().map(|p| Json::from(p.as_str())).collect()),
        ),
    ]);
    let path = out_dir().join("result.json");
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, doc.to_json()));
    match written {
        Ok(()) => println!("\n# wrote {}", path.display()),
        Err(e) => problems.push(format!("{}: {e}", path.display())),
    }
    for p in &problems {
        println!("# FAILED: {p}");
    }
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(tokens_per_s: [f64; 3], steps: f64) -> WorkloadRuns {
        let one = |v: f64| Child {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: END_TO_END
                .iter()
                .map(|m| {
                    (
                        m.name.to_string(),
                        if m.name == "tokens_per_s" { v } else { 1.0 },
                    )
                })
                .collect(),
        };
        WorkloadRuns {
            untraced: tokens_per_s.iter().map(|&v| one(v)).collect(),
            traced: Some(Child {
                correct: true,
                attempted: 10,
                failed: 0,
                metrics: [("serve.steps".to_string(), steps)].into(),
            }),
        }
    }

    fn set(tokens_per_s: [f64; 3], steps: f64) -> Set {
        WORKLOADS
            .iter()
            .map(|&w| (w, runs(tokens_per_s, steps)))
            .collect()
    }

    #[test]
    fn sets_within_the_bounds_agree() {
        assert!(disagreements(
            &set([100.0, 101.0, 99.0], 500.0),
            &set([103.0, 104.0, 99.0], 500.0)
        )
        .is_empty());
    }

    #[test]
    fn a_median_beyond_its_bound_or_a_moved_count_is_reported() {
        let slow = disagreements(
            &set([100.0, 100.0, 100.0], 500.0),
            &set([70.0, 70.0, 120.0], 500.0),
        );
        assert_eq!(slow.len(), WORKLOADS.len(), "{slow:?}");
        assert!(slow[0].contains("tokens_per_s"));
        let moved = disagreements(&set([100.0; 3], 500.0), &set([100.0; 3], 501.0));
        assert_eq!(moved.len(), WORKLOADS.len());
        assert!(moved[0].contains("serve.steps"));
    }

    #[test]
    fn a_failed_child_makes_its_workload_incorrect() {
        let mut r = runs([1.0; 3], 1.0);
        assert!(r.correct());
        r.untraced[1].correct = false;
        assert!(!r.correct());
        r.untraced.pop();
        assert!(!r.correct(), "a missing repeat is not a pass");
    }
}
