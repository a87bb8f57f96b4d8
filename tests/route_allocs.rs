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
//! and pool jobs, and record no event. This binary links `tutel-rt` with
//! `check-race` (through the `tutel-check` dev-dependency), so these are
//! the counts of the disarmed race hooks, which include everything a
//! feature-off build compiles. A count cannot see a branch or an atomic
//! load, and nothing here times one. What enabled telemetry costs is
//! `benchmark/`'s `obs.telemetry_enabled_overhead_pct` row; no row times
//! an enabled `Tracer`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Mutex, PoisonError};

use tutel_serve::{
    BatcherConfig, Engine, EngineConfig, ExecConfig, ModelDims, Request, ServeModel, ServiceModel,
    Strategy,
};
use tutel_suite::comm::AllToAllAlgo;
use tutel_suite::gate::{route, RaggedRouting, RouteConfig};
use tutel_suite::obs::trace::{FlowKind, Tracer, TRACK_COMM, TRACK_MAIN};
use tutel_suite::obs::{Event, TagValue, Telemetry};
use tutel_suite::rt::{arena, parallel_chunks, pool_stats, with_parallelism_limit, Arena};
use tutel_suite::tensor::{scratch, Rng};
use tutel_suite::tutel::data::SyntheticVision;
use tutel_suite::tutel::model::{cross_entropy, SwinLiteConfig, SwinLiteMoe};
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

/// The `packed_rows` tag of the newest `encode` span in `tel`.
fn packed_rows(tel: &Telemetry) -> Option<u64> {
    tel.events().into_iter().rev().find_map(|e| match e {
        Event::Span(s) if s.name == "encode" => s.tags.into_iter().find_map(|(k, v)| match v {
            TagValue::U64(n) if k == "packed_rows" => Some(n),
            _ => None,
        }),
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
        assert_eq!(small, 8, "route + bins allocated {small} times");

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
            let expected = if step == 1 { 69 } else { 56 };
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
            let (n, out) = allocs_in(|| {
                let out = layer.forward(&x).unwrap();
                layer.backward(&d_out).unwrap();
                layer.step(0.01);
                out
            });
            // Telemetry is on, and its event ring is a `VecDeque` that
            // doubles as the steps' events accumulate: one more
            // allocation at each step whose events cross a power of two.
            let expected = match step {
                1 => 166,
                2 | 3 | 6 | 11 | 22 => 114,
                _ => 113,
            };
            assert_eq!(n, expected, "clamped step {step} allocated {n} times");
            // The output leaves the step, the saved `x` clone enters
            // it: hand the output back so takes and puts balance.
            scratch::recycle(out.output);
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
            let _span = tel.span("gate").tag("experts", 8u64).request(step);
            tel.add_counter("gate.dropped_tokens", 3);
            tel.set_gauge("rt.arena.hit_rate", 0.5);
            tel.record_hist("step_s", 0.01);
            tel.add_stage("a2a", 1e-3);
            tel.collective("all_to_all", "linear", 4096.0, 1e-4);
            tel.begin_step(step);
            drop(tel.clone());
        }
    });
    assert_eq!(n, 0, "disabled telemetry allocated {n} times");
    assert_eq!(tel.events().len(), 0);

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

    // A pool fan-out of 16 chunks: the range list alone when it runs
    // serially; the ranges, the claim cursors and bounds, and the
    // shared job when it runs as one job on the pool.
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
    assert_eq!(fan_out(1), (CALLS, 0, 0), "serial fan-out");
    let parallel = if pool_stats().workers >= 2 {
        (4 * CALLS, CALLS, 16 * CALLS)
    } else {
        (CALLS, 0, 0)
    };
    assert_eq!(fan_out(4), parallel, "fan-out at limit 4");
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
