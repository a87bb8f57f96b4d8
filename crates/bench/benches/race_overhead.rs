//! Pins the cost of the `check-race` instrumentation hooks when the
//! feature is **off** — which is how every production build and this
//! bench crate compile `tutel-rt` (tutel-bench does not depend on
//! tutel-check, so feature unification cannot drag `check-race` in
//! here). With the feature compiled out, every hook site in
//! `rt::pool` and `rt::arena` is an empty `#[cfg]` branch; these rows
//! exist so a future change that leaks instrumentation into the
//! feature-off path (a branch, an atomic load, an allocation) shows
//! up as a criterion delta on the hot arena and pool paths.
//!
//! Rows are named `disabled_*`; CI smokes them with
//! `--warm-up-time 1 --measurement-time 1 disabled_`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

/// Arena take/put pair on a private arena: the hottest instrumented
/// path (two hook sites per round trip).
fn bench_arena(c: &mut Criterion) {
    let arena = tutel_rt::Arena::new();
    arena.put(vec![0.0; 4096]);
    c.bench_function("disabled_arena_take_put", |b| {
        b.iter(|| {
            let buf = arena.take_raw(4096);
            black_box(&buf);
            arena.put(buf);
        })
    });
}

/// Pool fan-out over small chunks: one submit/join plus one
/// claim/done pair per chunk of instrumented sites.
fn bench_pool(c: &mut Criterion) {
    let mut data = vec![0.0f32; 4096];
    c.bench_function("disabled_parallel_chunks", |b| {
        b.iter(|| {
            tutel_rt::parallel_chunks(&mut data, 256, |ci, chunk| {
                for v in chunk.iter_mut() {
                    *v += ci as f32;
                }
            });
            black_box(&data);
        })
    });
}

fn benches(c: &mut Criterion) {
    bench_arena(c);
    bench_pool(c);
}

criterion_group! {
    name = race_overhead;
    config = Criterion::default().sample_size(10);
    targets = benches
}
criterion_main!(race_overhead);
