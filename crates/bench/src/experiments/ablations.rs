//! Ablation benches for the design choices DESIGN.md calls out:
//! interference-aware search, MSCCL phase fusion, the 3DH extension,
//! and Algorithm 2's bucket length.

use tutel::cost::{A2aImpl, ClusterModel, Protocol};
use tutel::pipeline::{LayerDims, OnlineStrategySearch, PipelineTimeModel};
use tutel_obs::Telemetry;

use crate::report::{fmt_bytes, fmt_pct, fmt_time};
use crate::Table;

const MIB: f64 = 1024.0 * 1024.0;

fn fig22_dims(f: f64) -> LayerDims {
    LayerDims {
        tokens: 4096,
        model_dim: 4096,
        hidden_dim: 4096,
        local_experts: 2,
        k: 2,
        capacity_factor: f,
    }
}

/// Ablation: what happens if the pipelining search ignores
/// comm/compute interference (Section 2.3's warning). The
/// interference-blind search picks a strategy whose *actual* (with
/// interference) time can be worse than the interference-aware pick.
pub fn ablation_interference() -> Table {
    let off = Telemetry::disabled();
    let mut t = Table::new(
        "Ablation: interference-aware vs interference-blind pipelining search",
        &[
            "GPUs",
            "f",
            "Blind pick",
            "Aware pick",
            "Blind actual",
            "Aware actual",
            "Penalty",
        ],
    );
    for w in [16usize, 64, 256] {
        for f in [1.0, 4.0, 16.0] {
            let cluster = ClusterModel::azure(w);
            let aware = PipelineTimeModel::new(cluster);
            let mut blind = PipelineTimeModel::new(cluster);
            blind.interference = false;
            let dims = fig22_dims(f);
            // Each model picks its best strategy; both are *executed*
            // under the interference-aware model (reality).
            let (aware_pick, aware_actual) = aware.best_strategy(&dims, &off);
            let (blind_pick, _) = blind.best_strategy(&dims, &off);
            let blind_actual = aware.step_time(&dims, blind_pick);
            t.row(&[
                w.to_string(),
                format!("{f}"),
                blind_pick.to_string(),
                aware_pick.to_string(),
                fmt_time(blind_actual),
                fmt_time(aware_actual),
                fmt_pct(blind_actual / aware_actual - 1.0),
            ]);
        }
    }
    t
}

/// Ablation: MSCCL phase fusion for 2DH across scale (extends the
/// single-scale Figure 21 comparison).
pub fn ablation_msccl_fusion() -> Table {
    let mut t = Table::new(
        "Ablation: 2DH with NCCL-API barriers vs MSCCL fused phases",
        &["GPUs", "Size", "NCCL-API", "MSCCL", "Fusion gain"],
    );
    for w in [64usize, 256, 1024, 4096] {
        let cluster = ClusterModel::azure(w);
        for s in [MIB, 32.0 * MIB] {
            let nccl = cluster.two_dh_time_impl(s, Protocol::Simple, A2aImpl::NcclApi);
            let msccl = cluster
                .two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl)
                .min(cluster.two_dh_time_impl(s, Protocol::Ll128, A2aImpl::Msccl));
            t.row(&[
                w.to_string(),
                fmt_bytes(s),
                fmt_time(nccl),
                fmt_time(msccl),
                fmt_pct(nccl / msccl - 1.0),
            ]);
        }
    }
    t
}

/// Ablation: the Section 4.3 3DH extension vs 2DH on very large
/// dragonfly-style clusters.
pub fn ablation_three_dh() -> Table {
    let mut t = Table::new(
        "Ablation: 2DH vs 3DH All-to-All (16-node groups)",
        &["GPUs", "Size", "2DH (MSCCL)", "3DH", "3DH gain"],
    );
    for w in [1024usize, 2048, 4096] {
        let cluster = ClusterModel::azure(w);
        for s in [0.25 * MIB, 4.0 * MIB, 256.0 * MIB] {
            let two = cluster.two_dh_time_impl(s, Protocol::Simple, A2aImpl::Msccl);
            let three = cluster.three_dh_time(s, Protocol::Simple, 16);
            t.row(&[
                w.to_string(),
                fmt_bytes(s),
                fmt_time(two),
                fmt_time(three),
                fmt_pct(two / three - 1.0),
            ]);
        }
    }
    t
}

/// Ablation: Algorithm 2 bucket length `L`. Small `L` = many buckets,
/// each exploring the full strategy space (many suboptimal picks);
/// large `L` = aggressive sharing across dissimilar capacity factors,
/// which mis-generalizes (persistent suboptimal picks *and* regret).
/// The sweet spot is in between — exactly why the paper buckets.
pub fn ablation_bucket_length() -> Table {
    let off = Telemetry::disabled();
    let mut t = Table::new(
        "Ablation: Algorithm 2 bucket length L (dynamic f schedule, 128 GPUs)",
        &["L", "Suboptimal picks", "Buckets", "Final regret"],
    );
    let cluster = ClusterModel::azure(128);
    let model = PipelineTimeModel::new(cluster);
    // A wandering f schedule with three regimes.
    let schedule: Vec<f64> = (0..90)
        .map(|i| [1.0, 1.3, 4.0, 4.4, 12.0, 13.5][i % 6])
        .collect();
    for bucket_len in [0.1, 0.5, 2.0, 8.0] {
        let mut search = OnlineStrategySearch::new(bucket_len);
        let mut explorations = 0usize;
        for &f in &schedule {
            let dims = fig22_dims(f);
            let s = search.next_strategy(f, &off);
            if s != model.best_strategy(&dims, &off).0 {
                explorations += 1;
            }
            search.record(f, s, model.step_time(&dims, s));
        }
        // Regret: average excess time of the converged choices.
        let mut regret = 0.0;
        let fs = [1.0, 4.0, 12.0];
        for &f in &fs {
            let dims = fig22_dims(f);
            let chosen = search.next_strategy(f, &off);
            regret += model.step_time(&dims, chosen) / model.best_strategy(&dims, &off).1 - 1.0;
        }
        t.row(&[
            format!("{bucket_len}"),
            explorations.to_string(),
            search.num_buckets().to_string(),
            fmt_pct(regret / fs.len() as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interference_blind_search_is_never_better() {
        let text = ablation_interference().render();
        for line in text.lines().skip(3) {
            let p: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(p >= -0.1, "blind search cannot beat aware: {line}");
        }
    }

    #[test]
    fn msccl_fusion_always_gains() {
        let text = ablation_msccl_fusion().render();
        for line in text.lines().skip(3) {
            let p: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('%')
                .parse()
                .unwrap();
            assert!(p > 0.0, "fusion must help: {line}");
        }
    }

    #[test]
    fn three_dh_wins_small_loses_large() {
        let t = ablation_three_dh();
        assert_eq!(t.len(), 9);
    }

    #[test]
    fn moderate_buckets_beat_both_extremes() {
        let text = ablation_bucket_length().render();
        let subopt: Vec<usize> = text
            .lines()
            .skip(3)
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(subopt.len(), 4);
        let best_mid = subopt[1].min(subopt[2]);
        assert!(
            best_mid <= subopt[0] && best_mid <= subopt[3],
            "a moderate L must minimize suboptimal picks: {subopt:?}"
        );
    }
}
