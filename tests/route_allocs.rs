//! Heap allocations and arena balance of the gate chain and of a
//! clamped step's exact bins, as exact counts — a signal no wall clock
//! can blur.
//!
//! One `#[test]` in its own binary: the counting `#[global_allocator]`
//! and the process-global arena must not see other tests. Counts are
//! per thread and the step runs under `with_parallelism_limit(1)`, so
//! everything counted happened on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tutel_suite::gate::{route, RaggedRouting, RouteConfig};
use tutel_suite::obs::{Event, TagValue, Telemetry};
use tutel_suite::rt::{arena, with_parallelism_limit};
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
        let mut last = 0;
        for step in 1..=40 {
            let (n, ()) = allocs_in(|| {
                layer.forward(&x).unwrap();
                layer.backward(&d_out).unwrap();
            });
            assert!(n <= 1000, "step {step} allocated {n} times");
            last = n;
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
        // Reported for the log; the bound stays the ≤ 1 000 above.
        let stats = arena().stats();
        println!(
            "many-experts fwd+bwd: {last} allocations per step, {} elements retained, {} evictions",
            stats.retained_elems, stats.evictions
        );

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
        let (mut at_step_2, mut first, mut steady) = (None, 0, 0);
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
            if step == 1 {
                first = n;
            }
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
                steady = steady.max(n);
            }
        }
        assert!(drops.len() > 1, "every step dropped the same {drops:?}");
        assert!(steady <= 200, "a clamped step allocated {steady} times");
        println!("clamped fwd+bwd+step: {first} allocations at step 1, at most {steady} after");
    });
}
