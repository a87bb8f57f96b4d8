//! Property-based tests: the topology's rank layout is node-major, both
//! routes of the threaded All-to-All must implement the sequential
//! oracle's exchange, and Flexible All-to-All must be self-inverse.

use proptest::prelude::*;
use tutel_comm::{
    flex::flex_all_to_all, linear_all_to_all, run_threaded, AllToAllAlgo, RankBuffers, Topology,
};
use tutel_tensor::Tensor;

/// Random per-rank buffers for an (nnodes × gpn) topology with `chunk`
/// elements per destination.
fn rank_buffers(nnodes: usize, gpn: usize, chunk: usize, seed: u64) -> RankBuffers {
    let n = nnodes * gpn;
    let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % 1000) as f32 / 10.0
    };
    (0..n)
        .map(|_| (0..n * chunk).map(|_| next()).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn topology_rank_mapping_is_consistent(nnodes in 1usize..16, gpn in 1usize..16) {
        let t = Topology::new(nnodes, gpn);
        for rank in 0..t.world_size() {
            let node = t.node_of(rank);
            let local = t.local_rank(rank);
            prop_assert!(node < nnodes);
            prop_assert!(local < gpn);
            prop_assert_eq!(node * gpn + local, rank);
            prop_assert!(t.ranks_on_node(node).contains(&rank));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn two_dh_equals_linear(
        nnodes in 1usize..5,
        gpn in 1usize..5,
        chunk in 1usize..6,
        seed in any::<u64>(),
    ) {
        let topo = Topology::new(nnodes, gpn);
        let n = topo.world_size();
        let bufs = rank_buffers(nnodes, gpn, chunk, seed);
        let bufs_ref = &bufs;
        let got = run_threaded(topo, |mut comm| {
            let mine = &bufs_ref[comm.rank()];
            let equal = comm.all_to_all_2dh(mine).unwrap();
            let sends: Vec<Vec<f32>> = mine.chunks(chunk).map(<[f32]>::to_vec).collect();
            let ragged = comm.all_to_all_v_2dh(&sends).unwrap().concat();
            (equal, ragged, comm.parked_messages())
        });
        let expect = linear_all_to_all(&bufs);
        for (rank, (equal, ragged, parked)) in got.into_iter().enumerate() {
            prop_assert_eq!(&equal, &expect[rank]);
            prop_assert_eq!(&ragged, &expect[rank]);
            prop_assert_eq!(parked, 0, "rank {} of {}", rank, n);
        }
    }

    #[test]
    fn linear_all_to_all_is_involutive(
        n in 1usize..9,
        chunk in 1usize..5,
        seed in any::<u64>(),
    ) {
        let bufs = rank_buffers(1, n, chunk, seed);
        let back = linear_all_to_all(&linear_all_to_all(&bufs));
        prop_assert_eq!(back, bufs);
    }

    #[test]
    fn flex_dispatch_then_combine_roundtrips(
        nnodes in 1usize..4,
        gpn in 1usize..4,
        experts_per_rank in 1usize..3,
        dc in 1usize..4,
        m in 1usize..4,
        seed in any::<u64>(),
    ) {
        let topo = Topology::new(nnodes, gpn);
        let w = topo.world_size();
        let e = experts_per_rank * w;
        let got = run_threaded(topo, |mut comm| {
            let sd = seed.wrapping_add(comm.rank() as u64).wrapping_mul(6364136223846793005);
            let data: Vec<f32> = (0..e * dc * m)
                .map(|i| ((sd.wrapping_add(i as u64) % 997) as f32) / 31.0)
                .collect();
            let y = Tensor::from_vec(data, &[e, dc, m]).unwrap();
            let mut flex = |algo, y: &Tensor, concat, split| {
                flex_all_to_all(&mut comm, algo, y, concat, split).unwrap().unwrap()
            };
            let dispatched = flex(AllToAllAlgo::TwoDh, &y, 1, 0);
            let linear = flex(AllToAllAlgo::Linear, &y, 1, 0);
            let combined = flex(AllToAllAlgo::Linear, &dispatched, 0, 1);
            (y, dispatched, linear, combined)
        });
        for (y, dispatched, linear, combined) in got {
            // Dispatch output is (ΔE, C, M): only C = W·ΔC grows with W.
            prop_assert_eq!(dispatched.dims(), &[experts_per_rank, w * dc, m]);
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(&dispatched), bits(&linear));
            prop_assert_eq!(&combined, &y);
        }
    }
}
