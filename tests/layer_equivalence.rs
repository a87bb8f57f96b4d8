//! Cross-crate numerical-equivalence tests: the Tutel layer, the
//! Fairseq dense baseline, and the sharded P1/P2 executions must all
//! agree — the computation logic is GShard's, regardless of which
//! optimization path executes it.

use std::collections::BTreeMap;

use proptest::prelude::*;
use tutel_suite::experts::{rank_blocks, shard_sum, ExpertsBlock, Parallelism};
use tutel_suite::gate::{route, RaggedRouting, RouteConfig, Routing};
use tutel_suite::kernels::{ragged_decode_backward, ragged_encode};
use tutel_suite::rt::with_parallelism_limit;
use tutel_suite::tensor::{dispatch, Rng, Tensor};
use tutel_suite::tutel::checkpoint::StateDict;
use tutel_suite::tutel::{FairseqMoeLayer, MoeConfig, MoeLayer};

#[test]
fn tutel_equals_fairseq_over_many_seeds_and_configs() {
    for seed in 0..8u64 {
        for (k, f) in [(1usize, 1.0f64), (2, 1.0), (1, 0.5), (2, 2.0), (3, 0.0)] {
            let cfg = MoeConfig::new(10, 14, 4)
                .with_top_k(k)
                .with_capacity_factor(f);
            let baseline = FairseqMoeLayer::new_seeded(&cfg, seed).unwrap();
            let mut rng = Rng::seed(seed);
            let tutel = MoeLayer::new(&cfg, &mut rng).unwrap();
            let x = rng.normal_tensor(&[40, 10], 0.0, 1.0);
            let a = baseline.infer(&x).unwrap();
            let b = tutel.infer(&x).unwrap();
            let diff = a.output.sub(&b.output).unwrap().max_abs();
            assert!(diff < 1e-4, "seed {seed} k={k} f={f}: diff {diff}");
            assert!((a.aux_loss - b.aux_loss).abs() < 1e-4);
        }
    }
}

/// One rank's output over the whole `bank` under `strategy`, computed
/// as serving computes it: the product's `rank_blocks`, each block's
/// grouped inference over uniform bins of `rows / ΔE` rows, and
/// `shard_sum`.
fn served(bank: &ExpertsBlock, strategy: Parallelism, shards: usize, rows: &Tensor) -> Tensor {
    let per = rows.dims()[0] / bank.local_experts();
    let offsets: Vec<usize> = (0..=bank.local_experts()).map(|e| e * per).collect();
    let blocks = rank_blocks(bank, strategy, 1, 0, shards).unwrap();
    shard_sum(&blocks, |b| b.infer_grouped(rows, &offsets)).unwrap()
}

#[test]
fn p1_p2_and_unsharded_all_agree() {
    let mut rng = Rng::seed(77);
    let full = ExpertsBlock::new(2, 8, 12, &mut rng);
    let x = rng.normal_tensor(&[2, 6, 8], 0.0, 1.0);
    let reference = full.infer(&x).unwrap().reshape(&[12, 8]).unwrap();
    let rows = x.reshape(&[12, 8]).unwrap();
    for shards in [1usize, 2, 3, 4, 6] {
        let y1 = served(&full, Parallelism::P1, shards, &rows);
        let y2 = served(&full, Parallelism::P2, shards, &rows);
        assert!(
            reference.sub(&y1).unwrap().max_abs() < 1e-4,
            "P1 with {shards} shards diverged"
        );
        assert!(
            reference.sub(&y2).unwrap().max_abs() < 1e-4,
            "P2 with {shards} shards diverged"
        );
    }
}

#[test]
fn switching_parallelism_mid_run_changes_nothing() {
    // Alternate P1/P2 across "iterations" and verify outputs never
    // drift and P2's shards are the same bits every time they are cut
    // from the one bank — the zero-cost switch.
    let mut rng = Rng::seed(78);
    let bank = ExpertsBlock::new(1, 6, 8, &mut rng);
    let rows = rng.normal_tensor(&[5, 6], 0.0, 1.0);
    let reference = served(&bank, Parallelism::P1, 4, &rows);
    let shards = rank_blocks(&bank, Parallelism::P2, 1, 0, 4).unwrap();
    for i in 0..6 {
        let strategy = if i % 2 == 0 {
            Parallelism::P2
        } else {
            Parallelism::P1
        };
        let y = served(&bank, strategy, 4, &rows);
        assert!(reference.sub(&y).unwrap().max_abs() < 1e-4, "iteration {i}");
        let recut = rank_blocks(&bank, Parallelism::P2, 1, 0, 4).unwrap();
        assert!(
            recut
                .iter()
                .zip(&shards)
                .all(|(a, b)| a.weights() == b.weights()),
            "parameters migrated at {i}"
        );
    }
}

#[test]
fn dynamic_knobs_do_not_corrupt_the_layer() {
    // Hammer one layer with per-iteration top-k and capacity changes
    // (top-ANY + dynamic capacity) interleaved with training steps; it
    // must stay finite and trainable.
    let cfg = MoeConfig::new(8, 12, 6).with_capacity_factor(0.0);
    let mut rng = Rng::seed(79);
    let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
    let x = rng.normal_tensor(&[30, 8], 0.0, 1.0);
    for (i, k) in [1usize, 4, 2, 6, 1, 3].into_iter().enumerate() {
        layer.set_top_k(k).unwrap();
        layer.set_capacity_factor(if i % 2 == 0 { 0.0 } else { -1.5 });
        let out = layer.forward(&x).unwrap();
        assert!(out.output.max_abs().is_finite(), "k={k}");
        assert!(out.aux_loss.is_finite());
        let d = out.output.scale(0.1);
        layer.backward(&d).unwrap();
        layer.step(0.01);
    }
}

/// The dense soft mixture (SNIPPETS.md Snippet 1): every expert runs
/// on every token and the outputs are blended by the gate. Written
/// with plain loops over the exported weights, so it shares no code
/// with routing, dispatch or the grouped FFN.
fn dense_soft_mixture(sd: &StateDict, x: &Tensor, experts: usize) -> Vec<f64> {
    let get = |name: &str| sd.get(&format!("l.{name}")).unwrap().as_slice();
    let (wr, w1, b1, w2, b2) = (
        get("router.weight"),
        get("experts.w1"),
        get("experts.b1"),
        get("experts.w2"),
        get("experts.b2"),
    );
    let (t, m) = (x.dims()[0], x.dims()[1]);
    let v = b1.len() / experts;
    let xs = x.as_slice();
    let mut out = vec![0.0f64; t * m];
    for ti in 0..t {
        let row = &xs[ti * m..(ti + 1) * m];
        let logits: Vec<f64> = (0..experts)
            .map(|e| {
                (0..m)
                    .map(|p| f64::from(row[p]) * f64::from(wr[p * experts + e]))
                    .sum()
            })
            .collect();
        let max = logits.iter().copied().fold(f64::MIN, f64::max);
        let exps: Vec<f64> = logits.iter().map(|l| (l - max).exp()).collect();
        let z: f64 = exps.iter().sum();
        for e in 0..experts {
            let gate = exps[e] / z;
            let h: Vec<f64> = (0..v)
                .map(|j| {
                    let pre: f64 = f64::from(b1[e * v + j])
                        + (0..m)
                            .map(|p| f64::from(row[p]) * f64::from(w1[(e * m + p) * v + j]))
                            .sum::<f64>();
                    let inner =
                        (2.0 / std::f64::consts::PI).sqrt() * (pre + 0.044715 * pre * pre * pre);
                    0.5 * pre * (1.0 + inner.tanh())
                })
                .collect();
            for j in 0..m {
                let y: f64 = f64::from(b2[e * m + j])
                    + (0..v)
                        .map(|p| h[p] * f64::from(w2[(e * v + p) * m + j]))
                        .sum::<f64>();
                out[ti * m + j] += gate * y;
            }
        }
    }
    out
}

#[test]
fn top_e_dropless_layer_equals_the_dense_soft_mixture() {
    // With k = E and dropless routing nothing is selected away and
    // nothing is dropped, so the sparse layer must reduce to
    // Σ_e gate_e · expert_e(x): an independent check on gate
    // normalisation and decode order.
    let experts = 4;
    let cfg = MoeConfig::new(6, 10, experts)
        .with_top_k(experts)
        .with_capacity_factor(0.0);
    for seed in 0..4u64 {
        let mut rng = Rng::seed(seed);
        let layer = MoeLayer::new(&cfg, &mut rng).unwrap();
        let x = rng.normal_tensor(&[17, 6], 0.0, 1.0);
        let got = layer.infer(&x).unwrap();
        assert_eq!(got.dropped, 0);
        let mut sd = StateDict::default();
        layer.export_state("l", &mut sd);
        let want = dense_soft_mixture(&sd, &x, experts);
        for (i, (&g, w)) in got.output.as_slice().iter().zip(&want).enumerate() {
            assert!(
                (f64::from(g) - w).abs() <= 1e-4 * w.abs().max(1.0),
                "seed {seed} elem {i}: layer {g}, dense mixture {w}"
            );
        }
    }
}

/// Per routed assignment `(token, selection)`: the bits of its expert
/// output row and of its expert input-gradient row.
type RowBits = BTreeMap<(usize, usize), (Vec<u32>, Vec<u32>)>;

/// Runs encode → grouped FFN forward → decode backward → grouped FFN
/// backward over `bins` and reads each surviving assignment's rows.
fn assignment_rows(
    block: &ExpertsBlock,
    x: &Tensor,
    d_out: &Tensor,
    routing: &Routing,
    bins: &RaggedRouting,
) -> RowBits {
    let mut block = block.clone();
    let m = x.dims()[1];
    let packed = ragged_encode(x, routing, bins).unwrap();
    let y = block.forward_grouped(&packed, &bins.offsets).unwrap();
    let (d_y, _) = ragged_decode_backward(d_out, &y, routing, bins).unwrap();
    let d_packed = block.backward_grouped(&d_y).unwrap();
    let bits = |t: &Tensor, s: usize| -> Vec<u32> {
        t.as_slice()[s * m..(s + 1) * m]
            .iter()
            .map(|v| v.to_bits())
            .collect()
    };
    let mut rows = RowBits::new();
    for t in 0..routing.num_tokens() {
        for (i, (e, _, loc)) in routing.selections(t).enumerate() {
            if let Some(l) = loc {
                let s = bins.offsets[e] + l;
                rows.insert((t, i), (bits(&y, s), bits(&d_packed, s)));
            }
        }
    }
    rows
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One layout, four bin sizings: a routed row's bits — forward
    /// and backward — are the same under exact bins, under
    /// uniform-capacity bins with unowned slots, and under a clamped
    /// routing that dropped some of its bin-mates, in its padded bins
    /// or in the exact bins every product path runs, at either worker
    /// count and in either SIMD table.
    #[test]
    fn a_rows_bits_do_not_depend_on_how_its_bin_is_sized(
        tokens in 12usize..40,
        experts in 2usize..6,
        k in 1usize..3,
        seed in 0u64..1024,
    ) {
        let (m, v) = (5usize, 9usize);
        let mut rng = Rng::seed(seed);
        let probs = rng.uniform_tensor(&[tokens, experts], 0.0, 1.0).softmax_last();
        let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
        let d_out = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
        let block = ExpertsBlock::new(experts, m, v, &mut rng);
        let cfg = |f: f64| RouteConfig { k, ..RouteConfig::top1().with_capacity_factor(f) };

        let dropless = route(&probs, &cfg(0.0)).unwrap();
        // One spare capacity slot per expert: unowned by construction.
        let mut roomy = dropless.clone();
        roomy.capacity += 1;
        // Half the needed slots: E·⌈kT/2E⌉ < kT, so assignments drop.
        let clamped = route(&probs, &cfg(0.5)).unwrap();
        prop_assert!(clamped.dropped() > 0);
        let uniform = RaggedRouting::uniform_capacity(&roomy);
        prop_assert!(uniform.slot_owner.contains(&RaggedRouting::UNOWNED));
        let layouts = [
            ("exact", &dropless, RaggedRouting::from_routing(&dropless)),
            ("uniform", &roomy, uniform),
            ("clamped", &clamped, RaggedRouting::uniform_capacity(&clamped)),
            ("clamped exact", &clamped, RaggedRouting::from_routing(&clamped)),
        ];

        let reference = dispatch::with_simd_mode(Some(false), || {
            with_parallelism_limit(1, || {
                assignment_rows(&block, &x, &d_out, &dropless, &layouts[0].2)
            })
        });
        prop_assert_eq!(reference.len(), tokens * k);
        let simd_modes: &[bool] = if dispatch::simd_available() { &[false, true] } else { &[false] };
        for &simd in simd_modes {
            for limit in [1usize, 4] {
                for (name, routing, bins) in &layouts {
                    let got = dispatch::with_simd_mode(Some(simd), || {
                        with_parallelism_limit(limit, || {
                            assignment_rows(&block, &x, &d_out, routing, bins)
                        })
                    });
                    prop_assert_eq!(got.len(), tokens * k - routing.dropped());
                    for (key, rows) in &got {
                        prop_assert_eq!(
                            rows, &reference[key],
                            "{} bins, simd {}, limit {}: assignment {:?}", name, simd, limit, key
                        );
                    }
                }
            }
        }
    }
}
