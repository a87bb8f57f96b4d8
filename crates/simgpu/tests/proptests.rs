//! Property-based tests for the simulator's structural invariants.

use proptest::prelude::*;
use tutel_simgpu::{GpuCostModel, LinkModel, Protocol, StreamId, Timeline};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn effective_bandwidth_is_monotone_in_size(
        sizes in proptest::collection::vec(1.0f64..1e9, 2..10),
    ) {
        let ib = LinkModel::hdr_infiniband();
        let mut sorted = sizes.clone();
        sorted.sort_by(f64::total_cmp);
        let mut last = 0.0;
        for s in sorted {
            let bw = ib.effective_bandwidth(s, Protocol::Simple);
            prop_assert!(bw >= last - 1e-6, "bandwidth decreased at {s}");
            prop_assert!(bw <= ib.bandwidth);
            last = bw;
        }
    }

    #[test]
    fn gemm_time_is_monotone_in_every_dimension(
        b in 1usize..64, r in 1usize..512, k in 1usize..512, n in 1usize..512,
    ) {
        let gpu = GpuCostModel::a100();
        let t = gpu.gemm_time(b, r, k, n);
        prop_assert!(t > 0.0);
        prop_assert!(gpu.gemm_time(b + 1, r, k, n) >= t);
        prop_assert!(gpu.gemm_time(b, r + 1, k, n) >= t);
        prop_assert!(gpu.gemm_time(b, r, k + 1, n) >= t);
        prop_assert!(gpu.gemm_time(b, r, k, n + 1) >= t);
    }

    #[test]
    fn strided_copies_never_beat_contiguous(
        bytes in 1.0f64..1e9, chunk in 4.0f64..1e7,
    ) {
        let gpu = GpuCostModel::a100();
        prop_assert!(gpu.strided_copy_time(bytes, chunk) >= gpu.copy_time(bytes) - 1e-12);
    }

    #[test]
    fn timeline_makespan_bounds(
        durations in proptest::collection::vec(0.0f64..10.0, 1..24),
        streams in proptest::collection::vec(0usize..3, 1..24),
    ) {
        let n = durations.len().min(streams.len());
        let mut tl = Timeline::new();
        let mut prev = None;
        for i in 0..n {
            // Chain: each op depends on the previous (worst case), so
            // makespan must equal the sum; also check the no-deps case
            // lower bound via stream_busy.
            let deps: Vec<_> = prev.into_iter().collect();
            prev = Some(tl.push(StreamId(streams[i]), durations[i], &deps));
        }
        let total: f64 = durations[..n].iter().sum();
        prop_assert!((tl.makespan() - total).abs() < 1e-9, "chained ops serialize fully");

        // Independent ops: makespan = max over streams of busy time.
        let mut tl2 = Timeline::new();
        for i in 0..n {
            tl2.push(StreamId(streams[i]), durations[i], &[]);
        }
        let max_busy = (0..3)
            .map(|s| tl2.stream_busy(StreamId(s)))
            .fold(0.0f64, f64::max);
        prop_assert!((tl2.makespan() - max_busy).abs() < 1e-9);
        prop_assert!(tl2.makespan() <= total + 1e-9);
    }
}
