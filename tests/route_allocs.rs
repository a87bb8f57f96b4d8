//! Heap allocations, arena balance and pool jobs as exact counts — a
//! signal no wall clock can blur.
//!
//! Three `#[test]`s in their own binary: the counting `#[global_allocator]`
//! and the process-global arena must not see other tests. Counts are
//! per thread. The first test (the gate chain, the many-experts step and
//! a clamped step's exact bins) runs under `with_parallelism_limit(1)`,
//! so everything it counts happened on the calling thread and it
//! dispatches no pool job. The second touches only thread-local counts,
//! a private `Arena` and the pool jobs it dispatches itself, so the two
//! can run side by side. The third counts what a warm serving engine's
//! `pump` allocates on the calling thread (its rank threads' own
//! allocations are theirs). It shares the process-global arena with the
//! first, so the two hold one lock, and the third empties the arena
//! before it lets go.
//!
//! The second test is the "disabled = free" budget of the hot-path
//! hooks: a disabled `Telemetry` or `Tracer` call, a warmed arena take +
//! put and a pool fan-out each make an exact number of heap allocations
//! and pool jobs, and record no event. It also pins what one warm launch
//! of each grouped GEMM allocates and dispatches: its allocations, pool
//! jobs and pool chunks. The adaptive decisions, which
//! take the telemetry handle as a parameter, are held to the same
//! contract under a disabled one: no event, and exactly the
//! allocations of their own pricing and memos. This binary links `tutel-rt` with
//! `check-race` (through the `tutel-check` dev-dependency), so these are
//! the counts of the disarmed race hooks, which include everything a
//! feature-off build compiles. A count cannot see a branch or an atomic
//! load, and nothing here times one. What enabled telemetry costs is
//! `benchmark/`'s `obs.telemetry_enabled_overhead_pct` row; no row times
//! an enabled `Tracer`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::{Mutex, PoisonError};

use tutel_serve::{
    BatcherConfig, Engine, EngineConfig, ExecConfig, ModelDims, Request, ServeModel, ServiceModel,
    Strategy,
};
use tutel_suite::comm::AllToAllAlgo;
use tutel_suite::gate::{route, RaggedRouting, RouteConfig};
use tutel_suite::obs::trace::{FlowKind, Tracer, TRACK_COMM, TRACK_MAIN};
use tutel_suite::obs::{Telemetry, TraceEvent};
use tutel_suite::rt::{arena, parallel_chunks, pool_stats, with_parallelism_limit, Arena};
use tutel_suite::tensor::{
    grouped_gemm_into, grouped_gemm_nt_into, grouped_gemm_tn, scratch, uniform_offsets, Precision,
    Rng,
};
use tutel_suite::tutel::adaptive::{
    FeatureSet, InlineParallelismRouter, MoeDims, MoeLayerSimulator,
};
use tutel_suite::tutel::cost::ClusterModel;
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{cross_entropy, SwinLiteConfig, SwinLiteMoe};
use tutel_suite::tutel::pipeline::{
    LayerDims, MeasuredStrategySearch, OnlineStrategySearch, PipelineStrategy, PipelineTimeModel,
};
use tutel_suite::tutel::{MoeConfig, MoeLayer};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

impl Counting {
    fn count() {
        // `try_with`: the allocator also runs during thread teardown.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// `const`-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `alloc` obligations, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `alloc_zeroed` obligations, passed through.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's `realloc` obligations, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through the methods above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Held by each test that uses the process-global arena.
static GLOBAL_ARENA: Mutex<()> = Mutex::new(());

/// Allocator calls `f` made on this thread.
fn allocs_in<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

const EXPERTS: usize = 64;

/// The `packed_rows` arg of the newest `encode` span in `tel`.
fn packed_rows(tel: &Telemetry) -> Option<u64> {
    tel.tracer(0).events().iter().rev().find_map(|e| match e {
        TraceEvent::Span { name, .. } if name == "encode" => e.arg("packed_rows"),
        _ => None,
    })
}

#[test]
fn gate_chain_allocations_do_not_scale_with_tokens_and_the_arena_balances() {
    let _arena = GLOBAL_ARENA.lock().unwrap_or_else(PoisonError::into_inner);
    with_parallelism_limit(1, || {
        let mut rng = Rng::seed(20);

        // (a) The routing record: a fixed number of arrays, whatever T.
        let cfg = RouteConfig::top2().with_capacity_factor(0.0);
        let [small, large] = [256, 4096].map(|tokens| {
            let probs = rng
                .uniform_tensor(&[tokens, EXPERTS], 0.0, 1.0)
                .softmax_last();
            let (n, bins) = allocs_in(|| {
                let routing = route(&probs, &cfg).unwrap();
                RaggedRouting::from_routing(&routing)
            });
            assert_eq!(bins.total(), tokens * 2);
            n
        });
        assert_eq!(small, large, "route + bins allocations scale with T");
        // The top-k's index and value arrays (which become the record's
        // expert and gate arrays) and its row-chunk list; `raw_counts`,
        // `counts` and `slot`; the bins' offsets and owners. No token
        // order without BPR, no gate copy, no index re-collect.
        assert_eq!(small, 7, "route + bins allocated {small} times");

        // (b) + (c) The many-experts train step, 40 times on one input.
        let (m, tokens) = (32, 8192);
        let moe = MoeConfig::new(m, 32, EXPERTS)
            .with_top_k(2)
            .with_capacity_factor(0.0);
        let mut layer = MoeLayer::new(&moe, &mut rng).unwrap();
        let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
        let d_out = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
        let mut at_step_8 = None;
        for step in 1..=40 {
            let (n, ()) = allocs_in(|| {
                layer.forward(&x).unwrap();
                layer.backward(&d_out).unwrap();
            });
            // Step 1 also allocates what every later step reuses.
            let expected = if step == 1 { 57 } else { 38 };
            assert_eq!(n, expected, "step {step} allocated {n} times");
            let stats = arena().stats();
            if step == 8 {
                at_step_8 = Some((stats.evictions, stats.retained_elems));
            }
            if let Some((evictions, retained)) = at_step_8 {
                assert_eq!(stats.evictions, evictions, "evictions moved at step {step}");
                assert!(
                    stats.retained_elems <= retained,
                    "step {step} retains {} elements, step 8 retained {retained}",
                    stats.retained_elems
                );
            }
        }

        // (d) The optimizer step of the default four-block model (six
        // `Linear`s, two dense FFNs, two MoE layers): every parameter
        // clips, updates and clears in place.
        let cfg = SwinLiteConfig::new(8, 4, 3).with_moe(MoeConfig::new(0, 0, 4));
        let mut model = SwinLiteMoe::new(&cfg, &mut rng).unwrap();
        let (x, labels) = SyntheticVision::new(8, 4, 3, 4, 4).batch(8, &mut rng);
        for _ in 0..2 {
            let (logits, _, _) = model.forward(&x, 8).unwrap();
            model.backward(&cross_entropy(&logits, &labels).1).unwrap();
            let (n, ()) = allocs_in(|| model.step(0.05));
            assert_eq!(n, 0, "SwinLiteMoe::step allocated {n} times");
        }

        // (e) A clamping policy computes exactly its routed rows: the
        // exact bins change length every step, and the arena's
        // power-of-two capacity classes recycle them all the same.
        let (m, tokens, experts) = (32, 1024usize, 8);
        let moe = MoeConfig::new(m, 64, experts)
            .with_top_k(2)
            .with_capacity_factor(1.0);
        let mut layer = MoeLayer::new(&moe, &mut rng).unwrap();
        let tel = Telemetry::enabled();
        layer.set_telemetry(tel.clone());
        // E·C slots at f = 1: C = ⌈k·T/E⌉.
        let slots = (2 * tokens).div_ceil(experts) * experts;
        arena().clear();
        let evictions = arena().stats().evictions;
        let mut drops = std::collections::BTreeSet::new();
        let mut at_step_2 = None;
        for step in 1..=40 {
            let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
            let d_out = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
            let misses = arena().stats().misses;
            let (n, (out, d_x)) = allocs_in(|| {
                let out = layer.forward(&x).unwrap();
                let d_x = layer.backward(&d_out).unwrap();
                layer.step(0.01);
                (out, d_x)
            });
            // Telemetry is on, and the ring its spans land in (rank 0's
            // trace) is a `VecDeque` that doubles as the steps' spans
            // accumulate: one more allocation at each step whose spans
            // cross a power of two.
            let expected = match step {
                1 => 137,
                2 | 3 | 5 | 10 | 20 | 40 => 96,
                _ => 95,
            };
            assert_eq!(n, expected, "clamped step {step} allocated {n} times");
            // The output and `d_x` leave the step (the saved input is
            // the arena's, and back in it): hand both back so takes
            // and puts balance.
            scratch::recycle(out.output);
            scratch::recycle(d_x);
            let routed: usize = out.expert_load.iter().sum();
            assert_eq!(packed_rows(&tel), Some(routed as u64), "step {step}");
            assert_eq!(routed + out.dropped, 2 * tokens, "step {step}");
            assert!(
                out.dropped > 0 && routed < slots,
                "step {step} dropped nothing"
            );
            drops.insert(out.dropped);
            let stats = arena().stats();
            assert_eq!(stats.evictions, evictions, "step {step} evicted");
            if step > 1 {
                assert_eq!(stats.misses, misses, "step {step} missed");
                let retained = *at_step_2.get_or_insert(stats.retained_elems);
                assert_eq!(
                    stats.retained_elems, retained,
                    "step {step} retention moved"
                );
            }
        }
        assert!(drops.len() > 1, "every step dropped the same {drops:?}");
    });
}

/// Repetitions per counted call below.
const CALLS: u64 = 100;

#[test]
fn disabled_instrumentation_and_warm_runtime_paths_are_exact_counts() {
    // A disabled `Telemetry` handle: every recording call returns after
    // one branch, so nothing allocates and nothing is recorded.
    let tel = Telemetry::disabled();
    let (n, ()) = allocs_in(|| {
        for step in 0..CALLS {
            let _span = tel.span("gate").arg("experts", 8).arg("request", step);
            tel.add_counter("gate.dropped_tokens", 3);
            tel.set_gauge("rt.arena.hit_rate", 0.5);
            tel.record_hist("step_s", 0.01);
            tel.collective("all_to_all", "linear", 4096.0, 1e-4);
            tel.begin_step(step);
            drop(tel.tracer(step as usize));
            drop(tel.clone());
        }
    });
    assert_eq!(n, 0, "disabled telemetry allocated {n} times");
    assert_eq!((tel.events().len(), tel.trace().ranks.len()), (0, 0));

    // A disabled `Tracer`, the same contract on the comm hot path.
    let tracer = Tracer::disabled();
    let (n, ()) = allocs_in(|| {
        for tag in 0..CALLS {
            let t0 = tracer.now_us();
            let _span = tracer.span(TRACK_COMM, "all_to_all");
            tracer.span_at(TRACK_MAIN, "gate_encode", t0, tracer.now_us());
            tracer.instant(TRACK_COMM, "2dh.promote");
            tracer.flow_send(1, tag, 0, FlowKind::Data, 512);
            tracer.flow_recv(1, tag, 0, FlowKind::Data, true);
        }
    });
    assert_eq!(n, 0, "disabled tracing allocated {n} times");
    assert_eq!(tracer.events().len(), 0);

    // The adaptive decisions under the same disabled handle record
    // nothing and allocate exactly what their own bookkeeping does:
    // `choose`, `best_strategy` and `step_time` nothing (the two-stream
    // schedule is priced in registers), the searches their memos.
    let cluster = ClusterModel::azure(16);
    let moe_dims = MoeDims {
        world: 16,
        global_experts: 8,
        tokens: 4096,
        k: 2,
        capacity_factor: 1.0,
        model_dim: 2048,
        hidden_dim: 2048,
        weight_precision: Precision::F32,
    };
    let router = InlineParallelismRouter::new(cluster);
    let (n, ()) = allocs_in(|| {
        for _ in 0..CALLS {
            black_box(router.choose(&moe_dims, &tel));
        }
    });
    assert_eq!((n, tel.events().len()), (0, 0), "choose");
    let dims = LayerDims::figure23();
    let model = PipelineTimeModel::new(cluster);
    let (n, ()) = allocs_in(|| {
        for _ in 0..CALLS {
            black_box(model.best_strategy(&dims, &tel));
        }
    });
    assert_eq!((n, tel.events().len()), (0, 0), "best_strategy");
    let sim = MoeLayerSimulator::new(cluster);
    let (n, ()) = allocs_in(|| {
        for _ in 0..CALLS {
            black_box(sim.step_time(&dims, FeatureSet::full(), &tel));
        }
    });
    assert_eq!((n, tel.events().len()), (0, 0), "step_time");
    // Both searches cycle four capacity factors over two buckets.
    let factors = [1.0, 1.3, 2.5, 4.0];
    let wall = |s: PipelineStrategy| 1e-3 * (1 + s.degree) as f64;
    let mut online = OnlineStrategySearch::new(1.0);
    let (n, ()) = allocs_in(|| {
        for f in factors.into_iter().cycle().take(CALLS as usize) {
            let s = online.next_strategy(f, &tel);
            online.record(f, s, wall(s));
        }
    });
    assert_eq!((n, tel.events().len()), (27, 0), "online search");
    let mut measured = MeasuredStrategySearch::new(1.0, model);
    let (n, ()) = allocs_in(|| {
        for f in factors.into_iter().cycle().take(CALLS as usize) {
            let layer = LayerDims {
                capacity_factor: f,
                ..dims
            };
            let s = measured.next_strategy(&layer, &tel);
            measured.record(f, s, wall(s), &tel);
        }
    });
    assert_eq!((n, tel.events().len()), (10, 0), "measured search");

    // A warmed private arena: every take is a hit, every put a return.
    let private = Arena::new();
    private.put(private.take_raw(4096));
    let before = private.stats();
    let (n, ()) = allocs_in(|| {
        for _ in 0..CALLS {
            let buf = private.take_raw(4096);
            private.put(buf);
        }
    });
    let after = private.stats();
    assert_eq!(n, 0, "arena take + put allocated {n} times");
    assert_eq!(
        (
            after.hits - before.hits,
            after.misses - before.misses,
            after.evictions - before.evictions
        ),
        (CALLS, 0, 0)
    );

    // A pool fan-out of 16 chunks: nothing when it runs serially (each
    // chunk's bounds are computed where it runs); the claim cursors and
    // bounds and the shared job when it runs as one job on the pool.
    let mut data = vec![0.0f32; 4096];
    let mut fan_out = |limit| {
        with_parallelism_limit(limit, || {
            let before = pool_stats();
            let (n, ()) = allocs_in(|| {
                for _ in 0..CALLS {
                    parallel_chunks(&mut data, 256, |ci, chunk| {
                        chunk.iter_mut().for_each(|v| *v += ci as f32);
                    });
                }
            });
            let after = pool_stats();
            (n, after.jobs - before.jobs, after.chunks - before.chunks)
        })
    };
    // The pool's first use spawns its workers.
    fan_out(4);
    assert_eq!(fan_out(1), (0, 0, 0), "serial fan-out");
    let parallel = if pool_stats().workers >= 2 {
        (3 * CALLS, CALLS, 16 * CALLS)
    } else {
        (0, 0, 0)
    };
    assert_eq!(fan_out(4), parallel, "fan-out at limit 4");

    // The three grouped GEMM launches at `train_wide_ffn`'s expert
    // shape (8 bins of 256 rows, M = 128, V = 512), warm: the forward's
    // `X·W1`, the backward's `dY·W2ᵀ` and `Xᵀ·dH`. Each builds its
    // row-block schedule (two lists) and, on the pool, runs it as one
    // job with one chunk per row block: 6 per 256-row bin for the two
    // row-blocked launches, 3 per 128-row weight slab for `Aᵀ·B`.
    // `A·Bᵀ` first transposes each bin's B into a buffer from the
    // process-global arena (warm here) in a job of its own, one chunk
    // per bin, so it runs two jobs; this part holds the lock the other
    // two tests hold.
    let _arena = GLOBAL_ARENA.lock().unwrap_or_else(PoisonError::into_inner);
    let (bins, m, v) = (8usize, 128usize, 512usize);
    let offsets = uniform_offsets(bins, 256);
    let rows = offsets[bins];
    let x = rng_normals(rows * m, 40);
    let w = rng_normals(bins * m * v, 41);
    let mut wide = vec![0.0f32; rows * v];
    let mut grad = vec![0.0f32; bins * m * v];
    let mut launches = |limit| {
        with_parallelism_limit(limit, || {
            let counted = |launch: &mut dyn FnMut()| {
                let before = pool_stats();
                let (n, ()) = allocs_in(launch);
                let after = pool_stats();
                (n, after.jobs - before.jobs, after.chunks - before.chunks)
            };
            [
                counted(&mut || grouped_gemm_into(&x, &w, &mut wide, &offsets, m, v, |_, _, _| {})),
                counted(&mut || {
                    grouped_gemm_nt_into(&x, &w, &mut wide, &offsets, m, v, |_, _, _| {})
                }),
                counted(&mut || grouped_gemm_tn(&x, &wide, &mut grad, &offsets, m, v)),
            ]
        })
    };
    launches(4);
    assert_eq!(launches(1), [(2, 0, 0); 3], "serial grouped launches");
    let parallel = if pool_stats().workers >= 2 {
        [(5, 1, 48), (8, 2, 56), (5, 1, 24)]
    } else {
        [(2, 0, 0); 3]
    };
    assert_eq!(launches(4), parallel, "grouped launches at limit 4");
    // Hand the global arena back as the other two tests expect it.
    arena().clear();
}

/// `len` normal draws from `seed`.
fn rng_normals(len: usize, seed: u64) -> Vec<f32> {
    Rng::seed(seed).normal_tensor(&[len], 0.0, 1.0).into_vec()
}

/// Pumps of the closed loop below, after as many again to warm up.
const PUMPS: usize = 200;

#[test]
fn a_warm_serving_engine_pumps_with_a_pinned_allocation_count() {
    // A closed loop at P1 / linear over two ranks: eight users, eight
    // slots, each completion submits the next request (built outside
    // the count). The engine spawned its rank threads and built its
    // rank blocks when it was made, so a pump's allocations on this
    // thread are the batch, the step's result slots and stitched
    // output, and the engine's own bookkeeping; no thread handle and
    // no weight slice.
    let _arena = GLOBAL_ARENA.lock().unwrap_or_else(PoisonError::into_inner);
    let dims = ModelDims::small(2);
    let model = ServeModel::materialize(dims, 7).unwrap();
    let cfg = EngineConfig {
        batcher: BatcherConfig {
            max_batch_tokens: 8,
            max_inflight: 8,
            admit_timeout_us: 0,
        },
        service: ServiceModel {
            step_floor_us: 100,
            per_token_us: 10,
        },
        queue_capacity: 16,
        exec: ExecConfig {
            strategy: Strategy::P1,
            algo: AllToAllAlgo::Linear,
            degree: 1,
            world: 2,
            threads: 1,
            dropless: true,
        },
    };
    let mut rng = Rng::seed(31);
    let pool: Vec<_> = (0..16)
        .map(|i| rng.normal_tensor(&[1 + i % 3, dims.model_dim], 0.0, 1.0))
        .collect();
    let tel = Telemetry::disabled();
    let mut engine = Engine::new(&model, &cfg, &tel).unwrap();
    let mut next_id = 0u64;
    let mut submit = |engine: &mut Engine<'_>| {
        let now = engine.now_us();
        engine.submit(Request {
            id: next_id,
            tokens: pool[next_id as usize % pool.len()].clone(),
            arrival_us: now,
            deadline_us: now + 10_000,
        });
        next_id += 1;
    };
    for _ in 0..8 {
        submit(&mut engine);
    }
    let mut counted = 0;
    for pump in 0..2 * PUMPS {
        let (n, progressed) = allocs_in(|| engine.pump().unwrap());
        assert!(progressed, "pump {pump}: the loop ran dry");
        if pump >= PUMPS {
            counted += n;
        }
        for _ in 0..engine.completed_last_pump().len() {
            submit(&mut engine);
        }
    }
    // The parent of the resident executor spawned two rank threads and
    // sliced two rank blocks per pump: 7 211 allocations on this thread
    // over the same loop, 16 more per pump.
    assert_eq!(
        counted, 4011,
        "{PUMPS} warm pumps allocated {counted} times"
    );
    // Dropping the engine joins its rank threads, so every buffer they
    // return is in the arena before it is emptied.
    drop(engine);
    arena().clear();
}
