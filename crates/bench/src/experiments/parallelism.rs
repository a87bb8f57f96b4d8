//! Adaptive parallelism switching: Figure 3 (P1 vs P2 preference
//! landscape) and Table 5 (adaptive improvement).

use tutel::adaptive::{InlineParallelismRouter, MoeDims};
use tutel::cost::ClusterModel;
use tutel_experts::Parallelism;
use tutel_obs::Telemetry;

use crate::report::fmt_pct;
use crate::Table;

fn router(world: usize) -> InlineParallelismRouter {
    InlineParallelismRouter::new(ClusterModel::azure(world))
}

/// Figure 3: throughput ratio P2/P1 under varying capacity factor and
/// top-k (16K hidden size, 2,048 channel size — above 1.0 means P2
/// outperforms P1).
pub fn fig3() -> Table {
    let r = router(8);
    let mut t = Table::new(
        "Figure 3: P2/P1 throughput ratio vs capacity factor (V = 16K, M = 2K, W = 8, E = 2)",
        &[
            "f",
            "top-1 ratio",
            "top-2 ratio",
            "top-1 winner",
            "top-2 winner",
        ],
    );
    for f in [0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0] {
        let mut ratios = Vec::new();
        let mut winners = Vec::new();
        for k in [1usize, 2] {
            let dims = MoeDims {
                world: 8,
                global_experts: 2,
                tokens: 2048,
                k,
                capacity_factor: f,
                model_dim: 2048,
                hidden_dim: 16384,
                weight_precision: tutel_tensor::Precision::F32,
            };
            // Throughput ratio P2/P1 = time(P1)/time(P2).
            let ratio = r.cost_of(Parallelism::P1, &dims) / r.cost_of(Parallelism::P2, &dims);
            ratios.push(format!("{ratio:.2}"));
            winners.push(if ratio > 1.0 { "P2" } else { "P1" }.to_string());
        }
        t.row(&[
            format!("{f}"),
            ratios[0].clone(),
            ratios[1].clone(),
            winners[0].clone(),
            winners[1].clone(),
        ]);
    }
    t
}

/// Table 5a: adaptive parallelism improvement vs each static choice,
/// sweeping the capacity factor (E = 2, tokens/step = 2K, V = 8K).
pub fn table5a() -> Table {
    let r = router(8);
    let mut t = Table::new(
        "Table 5a: adaptive improvement over static parallelism (E2, S2K, V8K)",
        &["f", "vs static P1", "vs static P2", "adaptive picks"],
    );
    for f in [1.0, 2.0, 4.0, 8.0, 16.0] {
        let dims = MoeDims {
            world: 8,
            global_experts: 2,
            tokens: 2048,
            k: 2,
            capacity_factor: f,
            model_dim: 2048,
            hidden_dim: 8192,
            weight_precision: tutel_tensor::Precision::F32,
        };
        let p1 = r.cost_of(Parallelism::P1, &dims);
        let p2 = r.cost_of(Parallelism::P2, &dims);
        let best = p1.min(p2);
        t.row(&[
            format!("f{f}"),
            fmt_pct((p1 - best) / p1),
            fmt_pct((p2 - best) / p2),
            r.choose(&dims, &Telemetry::disabled()).to_string(),
        ]);
    }
    t
}

/// One Table 5b scenario: `(E, tokens/step, V, f-range)`.
struct Scenario {
    label: &'static str,
    experts: usize,
    tokens: usize,
    hidden: usize,
    fs: &'static [f64],
}

/// Table 5b: adaptive improvement across model settings (W = 8,
/// M = 2K), including the mixed-f row where adaptivity beats *both*
/// static choices simultaneously.
pub fn table5b() -> Table {
    let r = router(8);
    let scenarios = [
        Scenario {
            label: "f1,E4,S1K,V4K",
            experts: 4,
            tokens: 1024,
            hidden: 4096,
            fs: &[1.0],
        },
        Scenario {
            label: "f1,E4,S1K,V8K",
            experts: 4,
            tokens: 1024,
            hidden: 8192,
            fs: &[1.0],
        },
        Scenario {
            label: "f1,E2,S16K,V2K",
            experts: 2,
            tokens: 16384,
            hidden: 2048,
            fs: &[1.0],
        },
        Scenario {
            label: "f1,E2,S32K,V2K",
            experts: 2,
            tokens: 32768,
            hidden: 2048,
            fs: &[1.0],
        },
        Scenario {
            label: "f1,E4,S4K,V8K",
            experts: 4,
            tokens: 4096,
            hidden: 8192,
            fs: &[1.0],
        },
        Scenario {
            label: "f1,E1,S4K,V8K",
            experts: 1,
            tokens: 4096,
            hidden: 8192,
            fs: &[1.0],
        },
        Scenario {
            label: "f1~16,E4,S2K,V8K",
            experts: 4,
            tokens: 2048,
            hidden: 8192,
            fs: &[1.0, 2.0, 4.0, 8.0, 16.0],
        },
    ];
    let mut t = Table::new(
        "Table 5b: adaptive improvement on different settings (W = 8, M = 2K)",
        &["Setting", "vs static P1", "vs static P2"],
    );
    for s in scenarios {
        let (mut p1_total, mut p2_total, mut best_total) = (0.0, 0.0, 0.0);
        for &f in s.fs {
            let dims = MoeDims {
                world: 8,
                global_experts: s.experts,
                tokens: s.tokens,
                k: 2,
                capacity_factor: f,
                model_dim: 2048,
                hidden_dim: s.hidden,
                weight_precision: tutel_tensor::Precision::F32,
            };
            let p1 = r.cost_of(Parallelism::P1, &dims);
            let p2 = r.cost_of(Parallelism::P2, &dims);
            p1_total += p1;
            p2_total += p2;
            best_total += p1.min(p2);
        }
        t.row(&[
            s.label.to_string(),
            fmt_pct((p1_total - best_total) / p1_total),
            fmt_pct((p2_total - best_total) / p2_total),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_crossover_exists_for_both_k() {
        let text = fig3().render();
        assert!(
            text.contains("P1") && text.contains("P2"),
            "both parallelisms must win somewhere:\n{text}"
        );
    }

    #[test]
    fn table5a_adaptive_dominates() {
        // Every row's improvement is non-negative against both statics.
        let t = table5a();
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn table5b_mixed_f_row_beats_both() {
        let text = table5b().render();
        let mixed = text.lines().find(|l| l.contains("f1~16")).unwrap();
        let pcts: Vec<f64> = mixed
            .split_whitespace()
            .filter(|w| w.ends_with('%'))
            .map(|w| w.trim_end_matches('%').parse().unwrap())
            .collect();
        assert_eq!(pcts.len(), 2);
        assert!(
            pcts.iter().all(|&p| p > 0.0),
            "mixed-f adaptivity must beat both statics: {pcts:?}"
        );
    }
}
