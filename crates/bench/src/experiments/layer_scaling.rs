//! Single-MoE-layer scaling: Figure 23 (feature-ladder breakdown) and
//! Table 8 (end-to-end SwinV2-MoE training/inference speed).

use tutel::adaptive::{FeatureSet, MoeLayerSimulator};
use tutel::cost::ClusterModel;
use tutel::pipeline::LayerDims;
use tutel_experts::ExpertPlacement;
use tutel_obs::Telemetry;

use crate::report::fmt_speedup;
use crate::Table;

/// Figure 23: single MoE layer step time per feature set across scale,
/// plus computation-only overhead (curve 6).
pub fn fig23() -> Table {
    let dims = LayerDims::figure23();
    let off = Telemetry::disabled();
    let mut t = Table::new(
        "Figure 23: single MoE layer improvement breakdown (times in ms)",
        &[
            "GPUs",
            "(1) Fairseq",
            "(2) +kernels",
            "(3) +adpt pipe",
            "(4) +flex A2A",
            "(5) +adpt para",
            "(6) comp only",
            "Speedup (5)/(1)",
        ],
    );
    for w in [16usize, 32, 64, 128, 256, 512, 1024, 2048] {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
        let ms = |f: FeatureSet| format!("{:.1}", sim.step_time(&dims, f, &off) * 1e3);
        let ladder = FeatureSet::ladder();
        let base = sim.step_time(&dims, ladder[0].1, &off);
        let full = sim.step_time(&dims, ladder[4].1, &off);
        t.row(&[
            w.to_string(),
            ms(ladder[0].1),
            ms(ladder[1].1),
            ms(ladder[2].1),
            ms(ladder[3].1),
            ms(ladder[4].1),
            format!("{:.1}", sim.computation_only_time(&dims) * 1e3),
            fmt_speedup(base / full),
        ]);
    }
    t
}

/// Figure 23, replicated-expert variant: with `count_per_node = -4`
/// (each expert sharded over 4 GPUs, `E = W/4`) the parallelism choice
/// carries a real cost, so curves (4) and (5) — static P1 vs the
/// inline parallelism router — genuinely diverge. Uses a fat expert
/// (V = 16K) where the P1/P2 crossover moves with `f` (Figure 3).
pub fn fig23_replicated() -> Table {
    let mut t = Table::new(
        "Figure 23 variant: replicated experts (count_per_node = -4, V = 16K), times in ms",
        &[
            "GPUs",
            "f",
            "(4) static P1",
            "(5) adaptive parallelism",
            "Gain",
        ],
    );
    for w in [32usize, 64, 128] {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(w));
        let placement = ExpertPlacement::from_count_per_node(-4, w).expect("divisible");
        for f in [0.25, 1.0, 4.0] {
            let dims = LayerDims {
                tokens: 16384,
                model_dim: 2048,
                hidden_dim: 16384,
                local_experts: 1,
                k: 2,
                capacity_factor: f,
            };
            let static_p1 = sim.step_time_with_placement(
                &dims,
                FeatureSet::kernels_pipelining_flex(),
                &placement,
            );
            let adaptive = sim.step_time_with_placement(&dims, FeatureSet::full(), &placement);
            t.row(&[
                w.to_string(),
                format!("{f}"),
                format!("{:.1}", static_p1 * 1e3),
                format!("{:.1}", adaptive * 1e3),
                fmt_speedup(static_p1 / adaptive),
            ]);
        }
    }
    t
}

/// The SwinV2-MoE speed model behind Table 8.
///
/// SwinV2-B on 192² inputs: ~12 GFLOPs/image dense compute, 10 MoE
/// layers, 36 tokens/image reaching each MoE layer's All-to-All per
/// image per GPU at batch 128 images/GPU. One expert per GPU (E = W).
#[derive(Debug, Clone, Copy)]
pub struct SwinSpeedModel {
    /// Images per GPU per step.
    pub batch_per_gpu: usize,
    /// MoE layers in the model.
    pub moe_layers: usize,
    /// Tokens entering each MoE layer, per image.
    pub tokens_per_image: usize,
    /// Model width at the MoE stages.
    pub model_dim: usize,
    /// FFN hidden width.
    pub hidden_dim: usize,
    /// Dense (non-MoE) compute per image, FLOPs.
    pub dense_flops_per_image: f64,
}

impl SwinSpeedModel {
    /// SwinV2-MoE-B analogue.
    pub fn swinv2_b() -> Self {
        SwinSpeedModel {
            batch_per_gpu: 128,
            moe_layers: 10,
            tokens_per_image: 144,
            model_dim: 512,
            hidden_dim: 2048,
            dense_flops_per_image: 2.0 * 11.78e9, // fwd GFLOPs × 2 (MACs)
        }
    }

    /// Per-GPU images/second for a given mode.
    ///
    /// `features = None` means the dense (no-MoE) model; training costs
    /// ~3× the forward compute, inference 1×.
    pub fn images_per_second(
        &self,
        world: usize,
        features: Option<FeatureSet>,
        training: bool,
    ) -> f64 {
        let sim = MoeLayerSimulator::new(ClusterModel::azure(world));
        let gpu = sim.cluster().gpu();
        // Training triples the dense compute (forward + 2× backward)
        // but only ~2.2×'s the MoE layer (its All-to-Alls and
        // encode/decode cost roughly the same in both directions), so
        // the MoE overhead share — and Tutel's leverage — is larger at
        // inference, matching the paper's 1.5× train vs 2.1× infer gap.
        let (dense_factor, moe_factor) = if training { (3.0, 2.2) } else { (1.0, 1.0) };
        let dense_time = self.batch_per_gpu as f64 * self.dense_flops_per_image * dense_factor
            / (gpu.gemm_peak_flops * 0.5);
        let total = match features {
            None => dense_time,
            Some(f) => {
                let dims = LayerDims {
                    tokens: self.batch_per_gpu * self.tokens_per_image,
                    model_dim: self.model_dim,
                    hidden_dim: self.hidden_dim,
                    local_experts: 1,
                    k: 1,
                    capacity_factor: 1.0,
                };
                let per_layer = sim.step_time(&dims, f, &Telemetry::disabled());
                dense_time + self.moe_layers as f64 * per_layer * moe_factor
            }
        };
        self.batch_per_gpu as f64 / total
    }
}

/// Table 8: SwinV2-MoE training and inference speed (images/s per GPU),
/// dense vs Fairseq-MoE vs Tutel-MoE, 8 → 128 GPUs.
pub fn table8() -> Table {
    let model = SwinSpeedModel::swinv2_b();
    let mut t = Table::new(
        "Table 8: SwinV2-MoE speed (images/s per GPU), train / infer",
        &["GPUs", "Dense", "Fairseq MoE", "Tutel MoE", "Tutel speedup"],
    );
    for w in [8usize, 16, 32, 64, 128] {
        let pair = |features: Option<FeatureSet>| {
            (
                model.images_per_second(w, features, true),
                model.images_per_second(w, features, false),
            )
        };
        let dense = pair(None);
        let fairseq = pair(Some(FeatureSet::fairseq_baseline()));
        let tutel = pair(Some(FeatureSet::full()));
        t.row(&[
            w.to_string(),
            format!("{:.0} / {:.0}", dense.0, dense.1),
            format!("{:.0} / {:.0}", fairseq.0, fairseq.1),
            format!("{:.0} / {:.0}", tutel.0, tutel.1),
            format!(
                "{} / {}",
                fmt_speedup(tutel.0 / fairseq.0),
                fmt_speedup(tutel.1 / fairseq.1)
            ),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig23_ladder_never_regresses() {
        let t = fig23();
        assert_eq!(t.len(), 8);
        for line in t.render().lines().skip(3) {
            let times: Vec<f64> = line
                .split_whitespace()
                .skip(1)
                .take(5)
                .map(|c| c.parse().unwrap())
                .collect();
            for pair in times.windows(2) {
                assert!(pair[1] <= pair[0] * 1.001, "ladder regressed: {line}");
            }
        }
    }

    #[test]
    fn fig23_replicated_adaptive_never_loses() {
        let t = fig23_replicated();
        assert_eq!(t.len(), 9);
        for line in t.render().lines().skip(3) {
            let g: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(g >= 1.0, "adaptive lost: {line}");
        }
    }

    #[test]
    fn table8_tutel_beats_fairseq_everywhere() {
        let model = SwinSpeedModel::swinv2_b();
        for w in [8usize, 32, 128] {
            for training in [true, false] {
                let fair =
                    model.images_per_second(w, Some(FeatureSet::fairseq_baseline()), training);
                let tut = model.images_per_second(w, Some(FeatureSet::full()), training);
                let dense = model.images_per_second(w, None, training);
                assert!(tut > fair, "w={w} training={training}");
                assert!(dense > tut, "dense model must be fastest (no MoE overhead)");
            }
        }
    }

    #[test]
    fn table8_inference_speedup_exceeds_training_speedup() {
        // Paper: ~1.5× training vs ~2× inference (training amortizes
        // the MoE overhead over backward compute — here the pass factor
        // scales both, but inference is MoE-overhead-dominated).
        let model = SwinSpeedModel::swinv2_b();
        let speedup = |training: bool| {
            let fair = model.images_per_second(128, Some(FeatureSet::fairseq_baseline()), training);
            let tut = model.images_per_second(128, Some(FeatureSet::full()), training);
            tut / fair
        };
        let train = speedup(true);
        let infer = speedup(false);
        assert!(train > 1.05, "training speedup {train}");
        assert!(infer > 1.05, "inference speedup {infer}");
        assert!(
            infer > train,
            "inference leverage must exceed training: {infer} vs {train}"
        );
    }
}
