//! Adaptive pipelining experiments: Figure 5 (optimal-strategy
//! distribution), Table 7 (average / worst-case improvement), and
//! Figure 22 (gains under dynamic workloads).

use std::collections::HashMap;

use tutel::cost::ClusterModel;
use tutel::pipeline::{LayerDims, PipelineStrategy, PipelineTimeModel};
use tutel_obs::Telemetry;

use crate::report::fmt_pct;
use crate::Table;

/// The 243 typical MoE model settings of Table 6:
/// samples/step × tokens/sample × M × V × ΔE (3⁵ combinations).
///
/// ΔE = 0.5 (one expert split over two GPUs) is represented as one
/// local expert with half the hidden dimension — the same per-GPU GEMM
/// shape and All-to-All payload.
pub fn table6_settings() -> Vec<LayerDims> {
    let mut v = Vec::with_capacity(243);
    for samples in [8usize, 16, 32] {
        for tokens_per_sample in [512usize, 1024, 2048] {
            for m in [1024usize, 2048, 4096] {
                for hidden in [1024usize, 2048, 4096] {
                    for de2 in [1usize, 2, 4] {
                        // de2 = 2·ΔE ∈ {1, 2, 4} → ΔE ∈ {0.5, 1, 2}.
                        let (local_experts, hidden_dim) = if de2 == 1 {
                            (1, hidden / 2)
                        } else {
                            (de2 / 2, hidden)
                        };
                        v.push(LayerDims {
                            tokens: samples * tokens_per_sample,
                            model_dim: m,
                            hidden_dim,
                            local_experts,
                            k: 2,
                            capacity_factor: 1.0,
                        });
                    }
                }
            }
        }
    }
    v
}

/// Figure 5: distribution of optimal pipelining strategies over the 243
/// workloads × scales 16–256 GPUs.
pub fn fig5() -> Table {
    let mut histogram: HashMap<PipelineStrategy, usize> = HashMap::new();
    for w in [16usize, 32, 64, 128, 256] {
        let model = PipelineTimeModel::new(ClusterModel::azure(w));
        for dims in table6_settings() {
            let (best, _) = model.best_strategy(&dims, &Telemetry::disabled());
            *histogram.entry(best).or_default() += 1;
        }
    }
    let mut t = Table::new(
        "Figure 5: optimal pipelining strategy distribution (243 workloads x 5 scales)",
        &["Strategy", "Workloads best served", "Share"],
    );
    let total: usize = histogram.values().sum();
    let mut entries: Vec<_> = PipelineStrategy::all()
        .into_iter()
        .map(|s| (s, histogram.get(&s).copied().unwrap_or(0)))
        .collect();
    entries.sort_by_key(|&(_, count)| std::cmp::Reverse(count));
    for (s, count) in entries {
        t.row(&[
            s.to_string(),
            count.to_string(),
            fmt_pct(count as f64 / total as f64),
        ]);
    }
    t
}

/// Table 7: adaptive pipelining improvement over each static strategy,
/// averaged (`worst = false`) or worst-case (`worst = true`) across the
/// 243 settings, per scale.
pub fn table7(worst: bool) -> Table {
    let title = if worst {
        "Table 7b: adaptive pipelining improvement over static, worst case"
    } else {
        "Table 7a: adaptive pipelining improvement over static, average"
    };
    let mut t = Table::new(title, &["GPUs", "Algo", "d=1", "d=2", "d=4", "d=8"]);
    for w in [16usize, 32, 64, 128, 256] {
        let model = PipelineTimeModel::new(ClusterModel::azure(w));
        let settings = table6_settings();
        // Precompute best per setting.
        let bests: Vec<f64> = settings
            .iter()
            .map(|d| model.best_strategy(d, &Telemetry::disabled()).1)
            .collect();
        for algo in tutel_comm::AllToAllAlgo::ALL {
            let mut cells = vec![w.to_string(), algo.to_string()];
            for degree in [1usize, 2, 4, 8] {
                let s = PipelineStrategy { algo, degree };
                let mut acc: f64 = 0.0;
                let mut max: f64 = 0.0;
                for (dims, best) in settings.iter().zip(&bests) {
                    let static_t = model.step_time(dims, s);
                    let improvement = static_t / best - 1.0;
                    acc += improvement;
                    max = max.max(improvement);
                }
                let val = if worst {
                    max
                } else {
                    acc / settings.len() as f64
                };
                cells.push(fmt_pct(val));
            }
            t.row(&cells);
        }
    }
    t
}

/// Figure 22: adaptive pipelining improvement over the baseline
/// (Linear, degree 1) under dynamic workloads `f ∈ {1, 4, 16}`
/// (tokens/step = 4,096, M = V = 4,096, ΔE = 2).
pub fn fig22() -> Table {
    let mut t = Table::new(
        "Figure 22: adaptive pipelining improvement on dynamic workloads",
        &["GPUs", "f=1", "f=4", "f=16"],
    );
    for w in [16usize, 32, 64, 128, 256] {
        let model = PipelineTimeModel::new(ClusterModel::azure(w));
        let mut cells = vec![w.to_string()];
        for f in [1.0, 4.0, 16.0] {
            let dims = LayerDims {
                tokens: 4096,
                model_dim: 4096,
                hidden_dim: 4096,
                local_experts: 2,
                k: 2,
                capacity_factor: f,
            };
            let baseline = model.step_time(&dims, PipelineStrategy::baseline());
            let (_, best) = model.best_strategy(&dims, &Telemetry::disabled());
            cells.push(fmt_pct(baseline / best - 1.0));
        }
        t.row(&cells);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_has_243_settings() {
        assert_eq!(table6_settings().len(), 243);
    }

    #[test]
    fn fig5_distribution_is_not_degenerate() {
        let t = fig5();
        let text = t.render();
        // More than one strategy must win somewhere (the paper's whole
        // point: no single static strategy dominates).
        let winners = text
            .lines()
            .skip(3)
            .filter(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|c| c.parse::<usize>().ok())
                    .map(|c| c > 0)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            winners >= 2,
            "expected multiple winning strategies:\n{text}"
        );
    }

    #[test]
    fn table7_improvements_are_nonnegative() {
        let t = table7(false);
        assert_eq!(t.len(), 10);
        for line in t.render().lines().skip(3) {
            for cell in line.split_whitespace().filter(|w| w.ends_with('%')) {
                let v: f64 = cell.trim_end_matches('%').parse().unwrap();
                assert!(v >= -0.01, "adaptive must never lose: {line}");
            }
        }
    }

    #[test]
    fn fig22_improvement_nonnegative_and_substantial_somewhere() {
        let t = fig22();
        let text = t.render();
        let max: f64 = text
            .split_whitespace()
            .filter(|w| w.ends_with('%'))
            .map(|w| w.trim_end_matches('%').parse::<f64>().unwrap())
            .fold(0.0, f64::max);
        assert!(
            max > 10.0,
            "best-case dynamic gain {max}% too small:\n{text}"
        );
    }
}
