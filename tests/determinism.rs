//! The compute runtime's determinism contract: every parallel kernel
//! partitions its output into chunks whose boundaries depend only on
//! the problem shape, and each chunk is computed by the same serial
//! code regardless of how many workers participate. Results must
//! therefore be *bit-identical* for any worker count — this suite
//! pins that across `tutel_rt::with_parallelism_limit` sweeps, and
//! `ci.sh` repeats the whole test binary under `TUTEL_THREADS=1` and
//! `TUTEL_THREADS=4` to cover the env-var path too.
//!
//! The same contract extends along the kernel-table axis: every table
//! runs the same generic kernel bodies on its own lane type (`f32`,
//! AVX2's `__m256`, AVX-512's `__m512`), with one reduction tree and
//! one fused multiply-add per GEMM step (`f32::mul_add` on one lane), so
//! `TUTEL_SIMD=0` and `TUTEL_SIMD=1` (the widest table the host
//! has) must also be bit-identical — at every worker count
//! simultaneously. The cross-mode sweep below pins the in-process
//! override path (`dispatch::with_simd_mode`); `ci.sh` repeats the
//! binary under `TUTEL_SIMD=0/1` × `TUTEL_THREADS=1/4` for the env-var
//! path and prints the table its `TUTEL_SIMD=1` cells resolved to.

use tutel_suite::gate::{route, RouteConfig};
use tutel_suite::kernels::{fast_decode, fast_decode_backward, fast_encode, fast_encode_backward};
use tutel_suite::rt::with_parallelism_limit;
use tutel_suite::tensor::dispatch;
use tutel_suite::tensor::{Rng, Tensor};
use tutel_suite::tutel::{MoeConfig, MoeLayer};

const LIMITS: [usize; 4] = [1, 2, 4, 8];

fn assert_bits_equal(a: &Tensor, b: &Tensor, what: &str, limit: usize) {
    assert_eq!(a.dims(), b.dims(), "{what}: dims at limit {limit}");
    for (i, (x, y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{what}: element {i} differs at limit {limit}: {x} vs {y}"
        );
    }
}

#[test]
fn gemm_family_is_bit_identical_across_worker_counts() {
    let mut rng = Rng::seed(41);
    // Awkward shapes: not multiples of the row block or tile sizes.
    let a = rng.normal_tensor(&[67, 93], 0.0, 1.0);
    let b = rng.normal_tensor(&[93, 41], 0.0, 1.0);
    let bt = rng.normal_tensor(&[41, 93], 0.0, 1.0);
    let at = rng.normal_tensor(&[93, 67], 0.0, 1.0);
    let ba = rng.normal_tensor(&[3, 37, 29], 0.0, 1.0);
    let bb = rng.normal_tensor(&[3, 29, 19], 0.0, 1.0);

    let reference = with_parallelism_limit(1, || {
        (
            a.matmul(&b).unwrap(),
            a.matmul_nt(&bt).unwrap(),
            at.matmul_tn(&b).unwrap(),
            ba.bmm(&bb).unwrap(),
        )
    });
    for limit in LIMITS {
        let got = with_parallelism_limit(limit, || {
            (
                a.matmul(&b).unwrap(),
                a.matmul_nt(&bt).unwrap(),
                at.matmul_tn(&b).unwrap(),
                ba.bmm(&bb).unwrap(),
            )
        });
        assert_bits_equal(&reference.0, &got.0, "matmul", limit);
        assert_bits_equal(&reference.1, &got.1, "matmul_nt", limit);
        assert_bits_equal(&reference.2, &got.2, "matmul_tn", limit);
        assert_bits_equal(&reference.3, &got.3, "bmm", limit);
    }
}

#[test]
fn dispatch_kernels_are_bit_identical_across_worker_counts() {
    let mut rng = Rng::seed(42);
    let (tokens, experts, m) = (201, 8, 24);
    let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
    let probs = rng
        .normal_tensor(&[tokens, experts], 0.0, 1.0)
        .softmax_last();
    let routing = route(&probs, &RouteConfig::top2()).unwrap();
    let d_out = rng.normal_tensor(&[tokens, m], 0.0, 1.0);

    let reference = with_parallelism_limit(1, || {
        let enc = fast_encode(&x, &routing).unwrap();
        let dec = fast_decode(&enc, &routing, tokens).unwrap();
        let (d_enc, d_gates) = fast_decode_backward(&d_out, &enc, &routing).unwrap();
        let d_x = fast_encode_backward(&d_enc, &routing, tokens).unwrap();
        (enc, dec, d_enc, d_gates, d_x)
    });
    for limit in LIMITS {
        let got = with_parallelism_limit(limit, || {
            let enc = fast_encode(&x, &routing).unwrap();
            let dec = fast_decode(&enc, &routing, tokens).unwrap();
            let (d_enc, d_gates) = fast_decode_backward(&d_out, &enc, &routing).unwrap();
            let d_x = fast_encode_backward(&d_enc, &routing, tokens).unwrap();
            (enc, dec, d_enc, d_gates, d_x)
        });
        assert_bits_equal(&reference.0, &got.0, "fast_encode", limit);
        assert_bits_equal(&reference.1, &got.1, "fast_decode", limit);
        assert_bits_equal(&reference.2, &got.2, "fast_decode_backward", limit);
        assert_eq!(reference.3, got.3, "dgates at limit {limit}");
        assert_bits_equal(&reference.4, &got.4, "fast_encode_backward", limit);
    }
}

#[test]
fn moe_layer_forward_and_backward_are_bit_identical_across_worker_counts() {
    let cfg = MoeConfig::new(16, 32, 4).with_top_k(2);
    let run = |limit: usize| {
        with_parallelism_limit(limit, || {
            let mut rng = Rng::seed(7);
            let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
            let x = rng.normal_tensor(&[96, 16], 0.0, 1.0);
            let d = rng.normal_tensor(&[96, 16], 0.0, 1.0);
            let out = layer.forward(&x).unwrap();
            let dx = layer.backward(&d).unwrap();
            (out.output, out.aux_loss, dx)
        })
    };
    let reference = run(1);
    for limit in LIMITS {
        let got = run(limit);
        assert_bits_equal(&reference.0, &got.0, "moe output", limit);
        assert_eq!(
            reference.1.to_bits(),
            got.1.to_bits(),
            "aux loss at limit {limit}"
        );
        assert_bits_equal(&reference.2, &got.2, "moe d_x", limit);
    }
}

#[test]
fn moe_layer_is_bit_identical_across_simd_modes_and_worker_counts() {
    // The full {scalar, simd} × worker-count cross product against one
    // fixed reference (scalar, one worker): the two axes must not
    // interact — SIMD chunks along columns inside a row kernel while
    // the pool chunks along rows, and neither may move a bit.
    let cfg = MoeConfig::new(16, 32, 4).with_top_k(2);
    let run = |limit: usize| {
        with_parallelism_limit(limit, || {
            let mut rng = Rng::seed(7);
            let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
            let x = rng.normal_tensor(&[96, 16], 0.0, 1.0);
            let d = rng.normal_tensor(&[96, 16], 0.0, 1.0);
            let out = layer.forward(&x).unwrap();
            let dx = layer.backward(&d).unwrap();
            (out.output, out.aux_loss, dx)
        })
    };
    let reference = dispatch::with_simd_mode(Some(false), || run(1));
    for simd in [false, true] {
        for limit in LIMITS {
            let got = dispatch::with_simd_mode(Some(simd), || run(limit));
            let what = |s: &str| format!("{s} (simd={simd})");
            assert_bits_equal(&reference.0, &got.0, &what("moe output"), limit);
            assert_eq!(
                reference.1.to_bits(),
                got.1.to_bits(),
                "aux loss at limit {limit} (simd={simd})"
            );
            assert_bits_equal(&reference.2, &got.2, &what("moe d_x"), limit);
        }
    }
}

#[test]
fn gemm_family_is_bit_identical_across_simd_modes() {
    let mut rng = Rng::seed(44);
    // Ragged shapes so every micro-tile tail path runs in both modes.
    let a = rng.normal_tensor(&[61, 87], 0.0, 1.0);
    let b = rng.normal_tensor(&[87, 43], 0.0, 1.0);
    let bt = rng.normal_tensor(&[43, 87], 0.0, 1.0);
    let at = rng.normal_tensor(&[87, 61], 0.0, 1.0);
    let run = || {
        (
            a.matmul(&b).unwrap(),
            a.matmul_nt(&bt).unwrap(),
            at.matmul_tn(&b).unwrap(),
        )
    };
    let scalar = dispatch::with_simd_mode(Some(false), run);
    let simd = dispatch::with_simd_mode(Some(true), run);
    assert_bits_equal(&scalar.0, &simd.0, "matmul (simd)", 1);
    assert_bits_equal(&scalar.1, &simd.1, "matmul_nt (simd)", 1);
    assert_bits_equal(&scalar.2, &simd.2, "matmul_tn (simd)", 1);
}

/// The env-var path's two meanings: `TUTEL_SIMD=0` is the scalar
/// table, anything else (or nothing) the widest table the host has —
/// the one `with_simd_mode(Some(true))` pins. Prints the resolved
/// table's label, so a CI log names the table its cells ran.
#[test]
fn tutel_simd_selects_the_kernel_table() {
    let env = dispatch::with_simd_mode(None, dispatch::simd_mode);
    let widest = dispatch::with_simd_mode(Some(true), dispatch::simd_mode);
    if std::env::var("TUTEL_SIMD").as_deref() == Ok("0") {
        assert_eq!(env, dispatch::SimdMode::Scalar);
    } else {
        assert_eq!(env, widest);
    }
    println!("kernel table: {}", env.label());
}

#[test]
fn softmax_is_bit_identical_across_worker_counts() {
    let mut rng = Rng::seed(43);
    // Enough rows to split into several 64-row chunks.
    let x = rng.normal_tensor(&[515, 17], 0.0, 3.0);
    let reference = with_parallelism_limit(1, || x.softmax_last());
    for limit in LIMITS {
        let got = with_parallelism_limit(limit, || x.softmax_last());
        assert_bits_equal(&reference, &got, "softmax_last", limit);
    }
}
