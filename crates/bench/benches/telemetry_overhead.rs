//! Cost of the telemetry instrumentation on the MoE hot path.
//!
//! The acceptance bar: with telemetry *disabled* (the default), the
//! instrumented layer must be indistinguishable from uninstrumented
//! code — every call site is one `Option` branch. The `enabled` rows
//! quantify what turning telemetry on costs (clock reads, ring
//! pushes, atomics).

use criterion::{criterion_group, criterion_main, Criterion};
use tutel::{MoeConfig, MoeLayer};
use tutel_gate::{route, RaggedRouting, RouteConfig};
use tutel_kernels::{ragged_encode, ragged_encode_observed};
use tutel_obs::Telemetry;
use tutel_tensor::Rng;

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

    // Kernel-level: the plain encode vs the instrumented wrapper with
    // a disabled handle — the pure price of the branch.
    let logits = rng.normal_tensor(&[tokens, 8], 0.0, 1.0);
    let probs = logits.softmax_last();
    let routing = route(&probs, &RouteConfig::top2()).unwrap();
    let bins = RaggedRouting::uniform_capacity(&routing);
    let disabled = Telemetry::disabled();
    group.bench_function("encode/plain", |b| {
        b.iter(|| ragged_encode(&x, &routing, &bins).unwrap())
    });
    group.bench_function("encode/observed_disabled", |b| {
        b.iter(|| ragged_encode_observed(&x, &routing, &bins, &disabled).unwrap())
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_overhead
}
criterion_main!(benches);
