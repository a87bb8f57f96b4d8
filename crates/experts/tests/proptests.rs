//! Property-based tests: P1/P2 equivalence over random shapes and the
//! placement's expert ownership.

use proptest::prelude::*;
use tutel_experts::{
    rank_blocks, shard_sum, ExpertPlacement, ExpertsBlock, Parallelism, ShardedExpertParams,
};
use tutel_tensor::Rng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn p1_p2_agree_over_random_shapes(
        de in 1usize..4,
        m in 1usize..6,
        v_base in 1usize..5,
        shards in 1usize..5,
        c in 1usize..6,
        seed in any::<u64>(),
    ) {
        let v = v_base * shards; // divisible hidden dim
        let mut rng = Rng::seed(seed);
        let full = ExpertsBlock::new(de, m, v, &mut rng);
        let x = rng.normal_tensor(&[de, c, m], 0.0, 1.0);
        let reference = full.infer(&x).unwrap().reshape(&[de * c, m]).unwrap();
        // The product path: the block(s) one rank runs, each over the
        // uniform bins as grouped rows, summed in shard order.
        let rows = x.reshape(&[de * c, m]).unwrap();
        let offsets: Vec<usize> = (0..=de).map(|e| e * c).collect();
        for strategy in [Parallelism::P1, Parallelism::P2] {
            let blocks = rank_blocks(&full, strategy, 1, 0, shards).unwrap();
            let y = shard_sum(&blocks, |b| b.infer_grouped(&rows, &offsets)).unwrap();
            prop_assert!(reference.sub(&y).unwrap().max_abs() < 1e-3, "{:?}", strategy);
        }
    }

    #[test]
    fn sharding_conserves_parameter_bytes(
        de in 1usize..4, m in 1usize..6, v_base in 1usize..5, shards in 1usize..5,
    ) {
        let v = v_base * shards;
        let mut rng = Rng::seed(42);
        let full = ExpertsBlock::new(de, m, v, &mut rng);
        let params = ShardedExpertParams::from_block(&full, shards).unwrap();
        // Regathering is lossless.
        let back = params.gather().unwrap();
        let (w1a, _, w2a, _) = full.weights();
        let (w1b, _, w2b, _) = back.weights();
        prop_assert_eq!(w1a, w1b);
        prop_assert_eq!(w2a, w2b);
    }

    #[test]
    fn placement_partitions_experts(
        x in -4i64..5, world_pow in 0u32..4,
    ) {
        let world = 1usize << world_pow;
        if x == 0 {
            prop_assert!(ExpertPlacement::from_count_per_node(0, world).is_err());
            return Ok(());
        }
        let p = match ExpertPlacement::from_count_per_node(x, world) {
            Ok(p) => p,
            Err(_) => return Ok(()), // indivisible negative x — rejected
        };
        let mut coverage = vec![0usize; p.global_experts()];
        for r in 0..world {
            for e in p.experts_on(r) {
                coverage[e] += 1;
            }
        }
        prop_assert!(coverage.iter().all(|&c| c == p.shards_per_expert()));
        // owners_of and experts_on are consistent.
        for e in 0..p.global_experts() {
            for r in p.owners_of(e) {
                prop_assert!(p.experts_on(r).contains(&e));
            }
        }
    }
}
