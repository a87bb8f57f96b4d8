//! The `f64` judge of the three grouped GEMM launches: `A·B`
//! (`grouped_gemm_into`), `A·Bᵀ` (`grouped_gemm_nt_into`) and `Aᵀ·B`
//! (`grouped_gemm_tn`) against the same products summed in `f64` by
//! naive loops that read only slices and share no code with the
//! launches.
//!
//! A product of two `f32`s is exact in `f64`, and a sum of a few
//! thousand of them is within `2⁻⁴⁰` of the exact value relative to its
//! scale, so the `f64` result is the truth at `f32` resolution. Each
//! element's error is counted in scaled ULP, as the harness counts it:
//! `|got − exact| / (ε · max|exact|)`, the maximum over the launch's
//! output, with `ε` the `f32` machine epsilon.
//!
//! Every launch kind runs both ways round at each shape (`k = M, n = V`
//! and `k = V, n = M`, as the expert FFN's forward and backward run
//! them), at the four benchmark workloads' expert shapes and at tile
//! edges. The test prints the max and median per launch, then per
//! launch kind over each group of shapes beside the figures of the
//! order before the tiles fused their multiply into the add
//! ([`BEFORE_FMA`]). It asserts two things:
//! - no figure exceeds [`BOUND`], this order's own figures: a later
//!   change to a per-element order may not make a kind less accurate;
//! - the median of `A·B` and of `Aᵀ·B` is no worse than before FMA at
//!   either group of shapes. A fused step rounds once where a multiply
//!   and an add rounded twice, and the median shows it.
//!
//! What the fused order does not improve is printed, not asserted: a
//! maximum is one element out of a million and moves either way with
//! the operands, and `A·Bᵀ`, which now takes `A·B`'s sequential chain
//! over `bᵀ`, lost the eight-lane tree that `dot`'s order summed in, so
//! its error at the benchmark shapes rose (median ≈ 1.5×, max ≈ 2.5×).
//! The kernel tables are bitwise equal, so the figures hold at every
//! `TUTEL_SIMD` (ci.sh runs both).

use tutel_suite::tensor::{grouped_gemm_into, grouped_gemm_nt_into, grouped_gemm_tn, Rng};

/// One problem: the row count of each bin (an expert's routed rows)
/// and the FFN's model and hidden width.
struct Shape {
    name: &'static str,
    bins: &'static [usize],
    m: usize,
    v: usize,
}

/// The expert FFN of each `benchmark/` workload. Row counts of a
/// skewed or padded workload are its typical bins, and a wide one
/// keeps two of its experts (an element's error depends on its
/// reduction and its operands, not on how many rows share the launch).
const BENCHMARK_SHAPES: [Shape; 4] = [
    // M = 128, V = 512, E = 8, T = 1024 top-2 at capacity 1.0: C = 256.
    Shape {
        name: "train_wide_ffn",
        bins: &[256, 256],
        m: 128,
        v: 512,
    },
    // M = V = 32, E = 64, T = 8192 top-2, load max/mean ≈ 11: a hot
    // expert past ten `KC` panels (split-k for `Aᵀ·B`), a mean one, a
    // cold one and an empty one.
    Shape {
        name: "train_many_experts",
        bins: &[2816, 256, 32, 0],
        m: 32,
        v: 32,
    },
    // M = 64, V = 256, 4 experts, 8 slots top-2: a few rows each.
    Shape {
        name: "serve_small_steps",
        bins: &[5, 3, 0, 8],
        m: 64,
        v: 256,
    },
    // 256 slots top-2 over 4 experts, rank 0's two, hidden split in
    // two shards under P2.
    Shape {
        name: "serve_large_steps",
        bins: &[128, 128],
        m: 64,
        v: 128,
    },
];

/// Shapes off every tile and panel edge: row counts off the 12-row
/// tile and the 48-row block, widths off the 32- and 16-column tiles,
/// reductions either side of one and two 256-deep panels.
const EDGE_SHAPES: [Shape; 3] = [
    Shape {
        name: "edge 13|0|25 × 257 × 33",
        bins: &[13, 0, 25],
        m: 257,
        v: 33,
    },
    Shape {
        name: "edge 1|49 × 17 × 65",
        bins: &[1, 49],
        m: 17,
        v: 65,
    },
    Shape {
        name: "edge 7|513 × 513 × 15",
        bins: &[7, 513],
        m: 513,
        v: 15,
    },
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// `A·B`: `a (R, k)`, `b (G, k, n)`, `out (R, n)`.
    Nn,
    /// `A·Bᵀ`: `a (R, k)`, `b (G, n, k)`, `out (R, n)`.
    Nt,
    /// `Aᵀ·B`: `a (R, k)`, `b (R, n)`, `out (G, k, n)`.
    Tn,
}

/// The judge's `(max, median)` scaled ULP for one launch kind at the
/// benchmark shapes and at the edge shapes, rounded up at the fourth
/// decimal.
struct Figures {
    kind: Kind,
    benchmark: (f64, f64),
    edge: (f64, f64),
}

/// The figures of the order before FMA: the `A·B` and `Aᵀ·B` tiles
/// multiplied, then added, each rounded; `A·Bᵀ` kept `dot`'s eight
/// rotating accumulators, its lane tree and its tail per element.
const BEFORE_FMA: [Figures; 3] = [
    Figures {
        kind: Kind::Nn,
        benchmark: (4.0817, 0.1513),
        edge: (3.5170, 0.0532),
    },
    Figures {
        kind: Kind::Nt,
        benchmark: (1.7346, 0.0955),
        edge: (1.4887, 0.0585),
    },
    Figures {
        kind: Kind::Tn,
        benchmark: (5.1763, 0.1350),
        edge: (4.5507, 0.0288),
    },
];

/// This order's figures: the bound no later order may exceed.
const BOUND: [Figures; 3] = [
    Figures {
        kind: Kind::Nn,
        benchmark: (4.5309, 0.1429),
        edge: (4.0821, 0.0459),
    },
    Figures {
        kind: Kind::Nt,
        benchmark: (4.1534, 0.1424),
        edge: (5.0719, 0.0580),
    },
    Figures {
        kind: Kind::Tn,
        benchmark: (5.1763, 0.1286),
        edge: (4.5507, 0.0253),
    },
];

/// CSR offsets of `bins`.
fn offsets(bins: &[usize]) -> Vec<usize> {
    std::iter::once(0)
        .chain(bins.iter().scan(0, |at, &rows| {
            *at += rows;
            Some(*at)
        }))
        .collect()
}

/// The exact product of one launch, in `f64`.
fn exact(kind: Kind, a: &[f32], b: &[f32], offsets: &[usize], k: usize, n: usize) -> Vec<f64> {
    let groups = offsets.len() - 1;
    let prod = |x: f32, y: f32| f64::from(x) * f64::from(y);
    match kind {
        Kind::Nn | Kind::Nt => {
            let mut out = vec![0.0f64; offsets[groups] * n];
            for g in 0..groups {
                for row in offsets[g]..offsets[g + 1] {
                    for j in 0..n {
                        let mut acc = 0.0f64;
                        for p in 0..k {
                            let bv = if kind == Kind::Nn {
                                b[(g * k + p) * n + j]
                            } else {
                                b[(g * n + j) * k + p]
                            };
                            acc += prod(a[row * k + p], bv);
                        }
                        out[row * n + j] = acc;
                    }
                }
            }
            out
        }
        Kind::Tn => {
            let mut out = vec![0.0f64; groups * k * n];
            for g in 0..groups {
                for i in 0..k {
                    for j in 0..n {
                        let mut acc = 0.0f64;
                        for row in offsets[g]..offsets[g + 1] {
                            acc += prod(a[row * k + i], b[row * n + j]);
                        }
                        out[(g * k + i) * n + j] = acc;
                    }
                }
            }
            out
        }
    }
}

/// The launch itself.
fn launch(kind: Kind, a: &[f32], b: &[f32], offsets: &[usize], k: usize, n: usize) -> Vec<f32> {
    let rows = offsets[offsets.len() - 1];
    match kind {
        Kind::Nn => {
            let mut out = vec![f32::NAN; rows * n];
            grouped_gemm_into(a, b, &mut out, offsets, k, n, |_, _, _| {});
            out
        }
        Kind::Nt => {
            let mut out = vec![f32::NAN; rows * n];
            grouped_gemm_nt_into(a, b, &mut out, offsets, k, n, |_, _, _| {});
            out
        }
        Kind::Tn => {
            let mut out = vec![0.0f32; (offsets.len() - 1) * k * n];
            grouped_gemm_tn(a, b, &mut out, offsets, k, n);
            out
        }
    }
}

/// Each element's error in scaled ULP at the output's scale.
fn scaled_ulps(got: &[f32], exact: &[f64]) -> Vec<f64> {
    assert_eq!(got.len(), exact.len());
    let scale = exact.iter().fold(0.0f64, |m, v| m.max(v.abs()));
    let unit = f64::from(f32::EPSILON) * scale;
    got.iter()
        .zip(exact)
        .map(|(&g, &e)| {
            assert!(g.is_finite(), "a finite product came out {g}");
            if scale == 0.0 {
                0.0
            } else {
                (f64::from(g) - e).abs() / unit
            }
        })
        .collect()
}

/// `(max, median)` of `errors`, sorting them.
fn max_median(errors: &mut [f64]) -> (f64, f64) {
    if errors.is_empty() {
        return (0.0, 0.0);
    }
    errors.sort_by(f64::total_cmp);
    (errors[errors.len() - 1], errors[errors.len() / 2])
}

/// Every element error of `kind` over `shapes`, both ways round,
/// printing each launch's max and median.
fn judge(kind: Kind, shapes: &[Shape], rng: &mut Rng) -> Vec<f64> {
    let mut all = Vec::new();
    for shape in shapes {
        let offs = offsets(shape.bins);
        let (rows, groups) = (offs[offs.len() - 1], shape.bins.len());
        for (k, n) in [(shape.m, shape.v), (shape.v, shape.m)] {
            let mut draw = |len: usize| rng.normal_tensor(&[len], 0.0, 1.0).into_vec();
            let b_rows = if kind == Kind::Tn { rows } else { groups * k };
            let (a, b) = (draw(rows * k), draw(b_rows * n));
            let got = launch(kind, &a, &b, &offs, k, n);
            let mut errors = scaled_ulps(&got, &exact(kind, &a, &b, &offs, k, n));
            all.extend_from_slice(&errors);
            let (max, median) = max_median(&mut errors);
            println!(
                "{kind:?} {:<26} k {k:>3} n {n:>3}: max {max:>8.4}  median {median:.4}",
                shape.name
            );
        }
    }
    all
}

#[test]
fn grouped_launches_are_no_less_accurate_than_their_bound() {
    let mut rng = Rng::seed(50);
    let mut over = Vec::new();
    for (before, bound) in BEFORE_FMA.iter().zip(&BOUND) {
        let kind = before.kind;
        assert_eq!(bound.kind, kind);
        for (what, shapes, before, bound) in [
            (
                "benchmark",
                &BENCHMARK_SHAPES[..],
                before.benchmark,
                bound.benchmark,
            ),
            ("edge", &EDGE_SHAPES[..], before.edge, bound.edge),
        ] {
            let (max, median) = max_median(&mut judge(kind, shapes, &mut rng));
            println!(
                "{kind:?} at the {what} shapes: max {:.4} → {max:.6}, median {:.4} → {median:.6}",
                before.0, before.1
            );
            let at = format!("{kind:?} at the {what} shapes");
            if max > bound.0 || median > bound.1 {
                over.push(format!(
                    "{at}: max {max:.4} median {median:.4}, bound {:.4} / {:.4}",
                    bound.0, bound.1
                ));
            }
            if kind != Kind::Nt && median > before.1 {
                over.push(format!(
                    "{at}: median {median:.4}, {:.4} before FMA",
                    before.1
                ));
            }
        }
    }
    assert!(over.is_empty(), "less accurate than the bound: {over:#?}");
}
