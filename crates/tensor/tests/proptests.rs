//! Property-based tests for the tensor substrate's core invariants.

use proptest::prelude::*;
use tutel_tensor::Tensor;

fn arb_tensor(max_dim: usize) -> impl Strategy<Value = Tensor> {
    (1..=max_dim, 1..=max_dim, 1..=max_dim).prop_flat_map(|(a, b, c)| {
        proptest::collection::vec(-100.0f32..100.0, a * b * c)
            .prop_map(move |data| Tensor::from_vec(data, &[a, b, c]).unwrap())
    })
}

/// Values that make ties, signed zeros, infinities and NaNs of both
/// signs common in a row.
const PALETTE: [f32; 9] = [
    0.0,
    -0.0,
    1.0,
    -1.0,
    0.5,
    f32::INFINITY,
    f32::NEG_INFINITY,
    f32::NAN,
    -f32::NAN,
];

/// Every column of `row`, best first, by a full sort in `topk_last`'s
/// documented order: value descending (`-0.0 == +0.0`), NaN after every
/// number, then the lower index.
fn sorted_columns(row: &[f32]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..row.len()).collect();
    order.sort_by(|&a, &b| {
        row[b]
            .partial_cmp(&row[a])
            .unwrap_or_else(|| row[a].is_nan().cmp(&row[b].is_nan()))
            .then(a.cmp(&b))
    });
    order
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn split_concat_roundtrips_any_axis(t in arb_tensor(6), axis in 0usize..3) {
        let len = t.dims()[axis];
        for parts in 1..=len {
            if len % parts == 0 {
                let split = t.split_axis(axis, parts).unwrap();
                let back = Tensor::concat_axis(&split, axis).unwrap();
                prop_assert_eq!(&back, &t);
            }
        }
    }

    #[test]
    fn permute_then_inverse_is_identity(t in arb_tensor(5)) {
        let perms: [[usize; 3]; 6] =
            [[0,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]];
        for p in perms {
            let mut inv = [0usize; 3];
            for (i, &pi) in p.iter().enumerate() {
                inv[pi] = i;
            }
            let back = t.permute(&p).unwrap().permute(&inv).unwrap();
            prop_assert_eq!(&back, &t);
        }
    }

    #[test]
    fn matmul_identity_is_noop(rows in 1usize..6, cols in 1usize..6, seed in any::<u64>()) {
        let mut rng = tutel_tensor::Rng::seed(seed);
        let a = rng.normal_tensor(&[rows, cols], 0.0, 1.0);
        let id = Tensor::eye(cols);
        prop_assert_eq!(a.matmul(&id).unwrap(), a);
    }

    #[test]
    fn matmul_distributes_over_addition(
        m in 1usize..5, k in 1usize..5, n in 1usize..5, seed in any::<u64>()
    ) {
        let mut rng = tutel_tensor::Rng::seed(seed);
        let a = rng.normal_tensor(&[m, k], 0.0, 1.0);
        let b = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let c = rng.normal_tensor(&[k, n], 0.0, 1.0);
        let lhs = a.matmul(&b.add(&c).unwrap()).unwrap();
        let rhs = a.matmul(&b).unwrap().add(&a.matmul(&c).unwrap()).unwrap();
        let diff = lhs.sub(&rhs).unwrap().max_abs();
        prop_assert!(diff < 1e-3, "diff {diff}");
    }

    #[test]
    fn softmax_rows_are_distributions(t in arb_tensor(5)) {
        let flat = t.reshape(&[t.len() / t.dims()[2], t.dims()[2]]).unwrap();
        let s = flat.softmax_last();
        for row in s.as_slice().chunks(flat.dims()[1]) {
            let sum: f32 = row.iter().sum();
            prop_assert!((sum - 1.0).abs() < 1e-4, "row sum {sum}");
            prop_assert!(row.iter().all(|&v| (0.0..=1.0001).contains(&v)));
        }
    }

    #[test]
    fn topk_returns_the_k_largest(cols in 1usize..8, k_off in 0usize..8, seed in any::<u64>()) {
        let k = 1 + k_off % cols;
        let mut rng = tutel_tensor::Rng::seed(seed);
        let t = rng.normal_tensor(&[3, cols], 0.0, 1.0);
        let (idxs, vals) = t.topk_last(k).unwrap();
        prop_assert_eq!((idxs.len(), vals.len()), (3 * k, 3 * k));
        for r in 0..3 {
            let row = &t.as_slice()[r * cols..(r + 1) * cols];
            let (idxs, vals) = (&idxs[r * k..(r + 1) * k], &vals[r * k..(r + 1) * k]);
            let mut sorted: Vec<f32> = row.to_vec();
            sorted.sort_by(|a, b| b.total_cmp(a));
            prop_assert_eq!(vals, &sorted[..k]);
            // Indices actually point at the values.
            for (&i, &v) in idxs.iter().zip(vals) {
                prop_assert_eq!(row[i as usize], v);
            }
        }
    }

    #[test]
    fn topk_equals_a_full_sort_in_the_same_order(
        rows in 0usize..200,
        cols in 1usize..=80,
        k_sel in 0usize..=80,
        seed in any::<u64>(),
    ) {
        // `k_sel == 0` selects the whole row.
        let k = if k_sel == 0 { cols } else { 1 + k_sel % cols };
        let mut rng = tutel_tensor::Rng::seed(seed);
        let data: Vec<f32> = (0..rows * cols)
            .map(|_| match rng.below(12) {
                i @ 0..=8 => PALETTE[i],
                _ => rng.normal(),
            })
            .collect();
        let t = Tensor::from_vec(data, &[rows, cols]).unwrap();
        // Rows cross the 64-row chunk grain; the pool width must not
        // matter.
        for limit in [1, 4] {
            let (idxs, vals) = tutel_rt::with_parallelism_limit(limit, || t.topk_last(k).unwrap());
            prop_assert_eq!((idxs.len(), vals.len()), (rows * k, rows * k));
            for (r, row) in t.as_slice().chunks(cols).enumerate() {
                let want = sorted_columns(row);
                for i in 0..k {
                    let (got, v) = (idxs[r * k + i] as usize, vals[r * k + i]);
                    prop_assert_eq!(got, want[i], "row {} pick {} (k {}, limit {})", r, i, k, limit);
                    prop_assert_eq!(v.to_bits(), row[got].to_bits());
                }
            }
        }
    }

    #[test]
    fn clip_norm_bounds_the_norm(t in arb_tensor(4), max_norm in 0.01f32..10.0) {
        let mut c = t.clone();
        c.clip_norm(max_norm);
        prop_assert!(c.sq_norm().sqrt() <= max_norm * 1.001);
        // Direction is preserved: c is a non-negative multiple of t.
        if t.sq_norm() > 0.0 {
            let scale = c.sq_norm().sqrt() / t.sq_norm().sqrt();
            for (a, b) in t.as_slice().iter().zip(c.as_slice()) {
                prop_assert!((a * scale - b).abs() < 1e-3 * (1.0 + a.abs()));
            }
        }
    }
}
