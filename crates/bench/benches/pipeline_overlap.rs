//! Benches for the executed overlap schedule: the degree sweep over
//! the threaded runtime at both sweep world sizes, measuring the raw
//! executed wall-clock of `run_overlapped` per strategy. The link
//! model (and the acceptance comparison against degree 1) lives in
//! `repro pipeline`; this bench tracks the executor's own
//! overhead so schedule regressions show up as criterion deltas.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use tutel::pipeline::PipelineStrategy;
use tutel_bench::experiments::overlap_sweep::{run_point, TOKENS, WORLDS};

fn bench_overlap(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_overlap");
    for &world in &WORLDS {
        for &tokens in &TOKENS {
            for strategy in PipelineStrategy::all() {
                let id = format!("w{world}/t{tokens}/{strategy}");
                group.bench_with_input(
                    BenchmarkId::new("executed", id),
                    &strategy,
                    |b, &strategy| b.iter(|| run_point(world, tokens, strategy)),
                );
            }
        }
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_overlap
}
criterion_main!(benches);
