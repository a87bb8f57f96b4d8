//! Cost of the telemetry instrumentation on the MoE hot path.
//!
//! The acceptance bar: with telemetry *disabled* (the default), the
//! instrumented layer must be indistinguishable from uninstrumented
//! code — every call site is one `Option` branch. The `enabled` rows
//! quantify what turning telemetry on costs (clock reads, ring
//! pushes, atomics).

use criterion::{criterion_group, criterion_main, Criterion};
use tutel::{step, MoeConfig, MoeLayer};
use tutel_gate::{route, LinearRouter, RaggedRouting, RouteConfig, Router};
use tutel_kernels::{ragged_decode, ragged_encode};
use tutel_obs::Telemetry;
use tutel_tensor::{scratch, Rng, TensorError};

fn bench_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    let tokens = 256usize;
    let cfg = MoeConfig::new(32, 64, 8).with_top_k(2);
    let mut rng = Rng::seed(1);
    let mut layer = MoeLayer::new(&cfg, &mut rng).unwrap();
    let x = rng.normal_tensor(&[tokens, 32], 0.0, 1.0);

    // Layer inference: disabled handle (the default) vs enabled.
    group.bench_function("layer_infer/disabled", |b| {
        layer.set_telemetry(Telemetry::disabled());
        b.iter(|| layer.infer(&x).unwrap())
    });
    group.bench_function("layer_infer/enabled", |b| {
        layer.set_telemetry(Telemetry::enabled());
        b.iter(|| layer.infer(&x).unwrap())
    });

    // Stage-level: the chain written out on the plain kernels vs the
    // instrumented step with a disabled handle, over an identity
    // expert stage — the pure price of the per-stage branches.
    let router = LinearRouter::new(32, 8, &mut rng);
    let route_cfg = RouteConfig::top2();
    let disabled = Telemetry::disabled();
    group.bench_function("stages/plain", |b| {
        b.iter(|| {
            let probs = router.logits(&x).unwrap().softmax_last();
            let routing = route(&probs, &route_cfg).unwrap();
            let bins = RaggedRouting::uniform_capacity(&routing);
            let packed = ragged_encode(&x, &routing, &bins).unwrap();
            let expert_out = scratch::copy_of(&packed);
            scratch::recycle(packed);
            let out = ragged_decode(&expert_out, &routing, &bins, tokens).unwrap();
            scratch::recycle(expert_out);
            out
        })
    });
    group.bench_function("stages/step_disabled", |b| {
        b.iter(|| {
            let (probs, routing) = step::gate(&router, &x, &route_cfg, &disabled).unwrap();
            let bins = RaggedRouting::uniform_capacity(&routing);
            let (out, saved) = step::forward(&x, probs, routing, bins, &disabled, |packed, _| {
                Ok::<_, TensorError>(scratch::copy_of(packed))
            })
            .unwrap();
            scratch::recycle(saved.expert_out);
            out
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_overhead
}
criterion_main!(benches);
