//! Bits of the compute core, pinned as FNV-1a digests.
//!
//! The constants were first recorded on the commit *before* the dense
//! GEMM trio, the GELU family, the two FFN bodies and the four
//! hand-written optimizer steps were folded into one implementation
//! each, and re-recorded three times since: when every GEMM element became a
//! chain of fused multiply-adds and `A·Bᵀ` took `A·B`'s order over a
//! transposed B, when GELU became `x·σ(2u)` over one `exp_neg`
//! (`GEMM_DIGEST` has no GELU and did not move), and when softmax took
//! its `exp` from that `exp_neg` (the train pins only): a refactor of `tensor::{linalg, ops}`, `experts::ffn`,
//! `gate::router` or `tutel::model` that moves one output, gradient or
//! post-step weight bit fails here. A deliberate numeric change
//! re-records the constants in the same commit.
//!
//! Outputs are a pure function of the problem, so each case has *one*
//! digest, asserted in every `TUTEL_SIMD ∈ {0, 1}` × parallelism-limit
//! `{1, 4}` cell.

use tutel_suite::experts::ExpertsBlock;
use tutel_suite::obs::Telemetry;
use tutel_suite::rt::with_parallelism_limit;
use tutel_suite::tensor::dispatch::with_simd_mode;
use tutel_suite::tensor::{Precision, Rng, Tensor};
use tutel_suite::tutel::checkpoint::StateDict;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::trainer::{train, TrainConfig};
use tutel_suite::tutel::{MoeConfig, MoeLayer, RouterKind};

/// Order-sensitive FNV-1a fold over 32-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u32) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a tensor's dims, then its elements' bit patterns.
    fn tensor(&mut self, t: &Tensor) {
        for &d in t.dims() {
            self.word(d as u32);
        }
        for v in t.as_slice() {
            self.word(v.to_bits());
        }
    }
}

/// Runs `case` in all four kernel-table × pool-width cells and returns
/// its digest, having asserted the cells agree.
fn digest_in_every_cell(what: &str, mut case: impl FnMut(&mut Fnv)) -> u64 {
    let mut seen = None;
    for simd in [false, true] {
        for limit in [1usize, 4] {
            let mut h = Fnv::new();
            with_simd_mode(Some(simd), || {
                with_parallelism_limit(limit, || case(&mut h))
            });
            let first = *seen.get_or_insert(h.0);
            assert_eq!(h.0, first, "{what}: simd={simd} limit={limit} diverged");
        }
    }
    seen.unwrap_or(0)
}

/// `(m, k, n)`: off every `MR`/`NR`/`ROW_BLOCK` multiple, `k` on both
/// sides of `KC = 256`, and one empty dimension at a time.
const GEMM_SHAPES: [(usize, usize, usize); 12] = [
    (1, 1, 1),
    (3, 5, 7),
    (33, 17, 9),
    (32, 300, 40),
    (65, 513, 31),
    (37, 255, 13),
    (37, 256, 13),
    (37, 257, 13),
    (97, 130, 57),
    (0, 5, 3),
    (4, 0, 3),
    (4, 5, 0),
];

const GEMM_DIGEST: u64 = 0x48dc_94f8_83bc_ff05;

#[test]
fn dense_gemm_views_keep_their_bits() {
    let got = digest_in_every_cell("gemm", |h| {
        let mut rng = Rng::seed(2201);
        for (m, k, n) in GEMM_SHAPES {
            let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
            let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
            let bt = rng.normal_tensor(&[n, k], 0.0, 1.0);
            let at = rng.normal_tensor(&[k, m], 0.0, 1.0);
            let ba = rng.normal_tensor(&[3, m, k], 0.0, 1.0);
            let bb = rng.normal_tensor(&[3, k, n], 0.0, 1.0);
            h.tensor(&a.matmul(&b).unwrap());
            h.tensor(&a.matmul_nt(&bt).unwrap());
            h.tensor(&at.matmul_tn(&b).unwrap());
            h.tensor(&ba.bmm(&bb).unwrap());
        }
    });
    assert_eq!(got, GEMM_DIGEST, "got {got:#018x}");
}

const FFN_F32_DIGEST: u64 = 0xf8c5_5bfd_03d0_c38b;
const FFN_BF16_DIGEST: u64 = 0x84d5_78f6_2d91_1e7d;

/// `forward_grouped → backward_grouped → step → infer_grouped` over
/// ragged bins with an empty bin and one that spans two row blocks:
/// output, `d_x`, post-step weights and the post-step inference.
fn ffn_digest(storage: Precision) -> u64 {
    digest_in_every_cell("ffn", |h| {
        let mut rng = Rng::seed(2202);
        let (de, m, v) = (4usize, 12usize, 20usize);
        let mut ex = ExpertsBlock::from_weights(
            rng.normal_tensor(&[de, m, v], 0.0, 0.4),
            rng.normal_tensor(&[de, v], 0.0, 0.2),
            rng.normal_tensor(&[de, v, m], 0.0, 0.4),
            rng.normal_tensor(&[de, m], 0.0, 0.2),
        )
        .unwrap()
        .with_storage_precision(storage);
        let offsets = [0usize, 5, 5, 45, 52];
        let x = rng.normal_tensor(&[52, m], 0.0, 1.0);
        let up = rng.normal_tensor(&[52, m], 0.0, 1.0);
        h.tensor(&ex.forward_grouped(&x, &offsets).unwrap());
        h.tensor(&ex.backward_grouped(&up).unwrap());
        ex.step(0.05);
        let (w1, b1, w2, b2) = ex.weights();
        for w in [w1, b1, w2, b2] {
            h.tensor(w);
        }
        h.tensor(&ex.infer_grouped(&x, &offsets).unwrap());
    })
}

#[test]
fn expert_ffn_keeps_its_bits_through_a_train_step() {
    let f32_got = ffn_digest(Precision::F32);
    let bf16_got = ffn_digest(Precision::Bf16);
    assert_eq!(
        (f32_got, bf16_got),
        (FFN_F32_DIGEST, FFN_BF16_DIGEST),
        "got f32 {f32_got:#018x}, bf16 {bf16_got:#018x}"
    );
}

/// `(final loss bits, state_dict digest)` after 20 steps, per model.
const TRAIN_DIGESTS: [(&str, u32, u64); 4] = [
    ("linear", 0x3fb3_6b88, 0x9ae4_0f4a_e979_4d3f),
    ("cosine", 0x3f96_e423, 0x35ef_1b9d_2005_686b),
    ("hash", 0x3fc5_6422, 0xa6c6_ad15_8f7b_c776),
    ("dense", 0x400d_35d0, 0x60ce_069c_d5c7_20a0),
];

/// Twenty optimizer steps of a tiny SwinLite model: the only gate on
/// `model::Linear` and `CosineRouter` bits outside the accuracy bins.
fn train_digest(router: Option<RouterKind>) -> (u32, u64) {
    let mut losses = None;
    let weights = digest_in_every_cell("train", |h| {
        let mut cfg = SwinLiteConfig::new(8, 4, 3);
        cfg.channels = 12;
        cfg.hidden = 16;
        cfg.blocks = 2;
        if let Some(kind) = router {
            cfg = cfg.with_moe(
                MoeConfig::new(0, 0, 4)
                    .with_top_k(2)
                    .with_capacity_factor(1.0)
                    .with_router(kind),
            );
        }
        let mut model = SwinLiteMoe::new(&cfg, &mut Rng::seed(2203)).unwrap();
        let data = SyntheticVision::new(8, 4, 3, 4, 4);
        let train_cfg = TrainConfig {
            steps: 20,
            batch: 8,
            ..TrainConfig::default()
        };
        let stats = train(&mut model, &data, &train_cfg, &Telemetry::disabled()).unwrap();
        for loss in &stats.loss_curve {
            h.word(loss.to_bits());
        }
        for (name, t) in model.state_dict().iter() {
            for b in name.bytes() {
                h.word(u32::from(b));
            }
            h.tensor(t);
        }
        let first = *losses.get_or_insert(stats.final_loss.to_bits());
        assert_eq!(stats.final_loss.to_bits(), first, "final loss diverged");
    });
    (losses.unwrap_or(0), weights)
}

#[test]
fn twenty_training_steps_keep_their_bits_for_every_router() {
    let kinds = [
        Some(RouterKind::Linear),
        Some(RouterKind::Cosine),
        Some(RouterKind::Hash),
        None,
    ];
    let got: Vec<String> = kinds
        .into_iter()
        .zip(TRAIN_DIGESTS)
        .map(|(kind, (name, _, _))| {
            let (loss, weights) = train_digest(kind);
            format!("(\"{name}\", {loss:#010x}, {weights:#018x})")
        })
        .collect();
    let want: Vec<String> = TRAIN_DIGESTS
        .iter()
        .map(|(name, loss, weights)| format!("(\"{name}\", {loss:#010x}, {weights:#018x})"))
        .collect();
    assert_eq!(got, want);
}

const MANY_EXPERTS_DIGEST: u64 = 0xdad8_a25a_d8cc_fa1e;

/// Three fwd+bwd+step rounds of a many-experts `MoeLayer` (E = 64,
/// top-2, dropless, tokens from Zipf-weighted clusters so the load is
/// skewed): per-expert load, output, aux loss and `d_x` of every round,
/// then every post-step parameter. T = 2048 spans many row chunks of
/// the gate's top-k and backward passes.
#[test]
fn many_experts_training_steps_keep_their_bits() {
    let got = digest_in_every_cell("many experts", |h| {
        let mut rng = Rng::seed(2204);
        let (t, m, clusters) = (2048usize, 32usize, 16usize);
        let cfg = MoeConfig::new(m, 32, 64)
            .with_top_k(2)
            .with_capacity_factor(0.0);
        let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
        let centres = rng.normal_tensor(&[clusters, m], 0.0, 2.0);
        let zipf: Vec<f32> = (1..=clusters).map(|r| 1.0 / r as f32).collect();
        let mut rows = Vec::with_capacity(t * m);
        for _ in 0..t {
            let c = rng.categorical(&zipf);
            let centre = &centres.as_slice()[c * m..(c + 1) * m];
            rows.extend(centre.iter().map(|&v| v + 0.3 * rng.normal()));
        }
        let x = Tensor::from_vec(rows, &[t, m]).unwrap();
        let d_out = rng.normal_tensor(&[t, m], 0.0, 1.0);
        for _ in 0..3 {
            let out = layer.forward(&x).unwrap();
            for &load in &out.expert_load {
                h.word(load as u32);
            }
            h.tensor(&out.output);
            h.word(out.aux_loss.to_bits());
            h.tensor(&layer.backward(&d_out).unwrap());
            layer.step(0.05);
        }
        let mut sd = StateDict::default();
        layer.export_state("l", &mut sd);
        for (_, w) in sd.iter() {
            h.tensor(w);
        }
    });
    assert_eq!(got, MANY_EXPERTS_DIGEST, "got {got:#018x}");
}
