//! Figure 24: encode/decode kernel comparison, Tutel sparse vs the
//! Fairseq dense einsum — here with *real CPU wall-clock* on the
//! functional implementations (the shape claim is the complexity gap,
//! which is hardware-independent), plus the modeled GPU times.

use std::time::Instant;

use tutel::cost::GpuCostModel;
use tutel_gate::{route, RouteConfig, Routing};
use tutel_kernels::{fast_decode, fast_encode, DenseCombine};
use tutel_tensor::{Rng, Tensor};

use crate::report::{fmt_speedup, fmt_time};
use crate::Table;

fn fixture(tokens: usize, experts: usize, m: usize, seed: u64) -> (Routing, Tensor) {
    let mut rng = Rng::seed(seed);
    let probs = rng
        .uniform_tensor(&[tokens, experts], 0.0, 1.0)
        .softmax_last();
    let routing = route(&probs, &RouteConfig::top2()).unwrap();
    let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
    (routing, x)
}

/// Figure 24 (CPU measurement): wall-clock of dense vs sparse
/// encode+decode on the functional kernels, over tokens/step.
pub fn fig24_cpu() -> Table {
    let mut t = Table::new(
        "Figure 24 (CPU measured): encode+decode wall-clock, Fairseq dense vs Tutel sparse",
        &["tokens/step", "Dense", "Sparse", "Sparse speedup"],
    );
    for tokens in [128usize, 256, 512, 1024] {
        let experts = 16;
        let m = 64;
        let (routing, x) = fixture(tokens, experts, m, tokens as u64);
        let y = {
            let mut rng = Rng::seed(9);
            rng.normal_tensor(&[experts, routing.capacity, m], 0.0, 1.0)
        };
        let reps = 3;
        let start = Instant::now();
        for _ in 0..reps {
            let c = DenseCombine::new(&routing);
            let d = c.encode(&x).unwrap();
            std::hint::black_box(&d);
            let o = c.decode(&y).unwrap();
            std::hint::black_box(&o);
        }
        let dense = start.elapsed().as_secs_f64() / reps as f64;
        let start = Instant::now();
        for _ in 0..reps {
            let d = fast_encode(&x, &routing).unwrap();
            std::hint::black_box(&d);
            let o = fast_decode(&y, &routing, tokens).unwrap();
            std::hint::black_box(&o);
        }
        let sparse = start.elapsed().as_secs_f64() / reps as f64;
        t.row(&[
            tokens.to_string(),
            fmt_time(dense),
            fmt_time(sparse),
            fmt_speedup(dense / sparse),
        ]);
    }
    t
}

/// Figure 24 (modeled A100): the calibrated GPU-time model at the
/// paper's scales.
pub fn fig24_gpu_model() -> Table {
    let gpu = GpuCostModel::a100();
    let mut t = Table::new(
        "Figure 24 (modeled A100): encode+decode time, Fairseq dense vs Tutel sparse",
        &["tokens/step", "Dense", "Sparse", "Sparse speedup"],
    );
    let (experts, m, k) = (64usize, 2048usize, 2usize);
    for tokens in [4096usize, 8192, 16384, 32768] {
        let cap = tutel_gate::expert_capacity(k, 1.0, tokens, experts);
        let dense = 2.0 * gpu.dense_encode_time(tokens, experts, cap, m);
        let sparse = 2.0 * gpu.sparse_encode_time(tokens, k, m);
        t.row(&[
            tokens.to_string(),
            fmt_time(dense),
            fmt_time(sparse),
            fmt_speedup(dense / sparse),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_measurement_shows_sparse_winning() {
        let t = fig24_cpu();
        let text = t.render();
        // Every row's speedup must be > 1 (the dense path does T×
        // the work).
        for line in text.lines().skip(3) {
            let s: f64 = line
                .split_whitespace()
                .last()
                .unwrap()
                .trim_end_matches('x')
                .parse()
                .unwrap();
            assert!(s > 1.0, "sparse must win: {line}");
        }
    }

    #[test]
    fn gpu_model_speedup_grows_with_tokens() {
        let t = fig24_gpu_model();
        let speedups: Vec<f64> = t
            .render()
            .lines()
            .skip(3)
            .map(|l| {
                l.split_whitespace()
                    .last()
                    .unwrap()
                    .trim_end_matches('x')
                    .parse()
                    .unwrap()
            })
            .collect();
        assert!(
            speedups.windows(2).all(|w| w[1] >= w[0] * 0.99),
            "{speedups:?}"
        );
        assert!(*speedups.last().unwrap() > 10.0);
    }
}
