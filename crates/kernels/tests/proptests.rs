//! Property-based tests: the sparse Tutel kernels and the dense
//! GShard/Fairseq einsum are the *same linear operators*, and
//! encode/decode backward passes are the exact adjoints of their
//! forwards.

use proptest::prelude::*;
use tutel_gate::{route, CapacityPolicy, RouteConfig, Routing};
use tutel_kernels::{
    fast_decode, fast_decode_backward, fast_encode, fast_encode_backward, DenseCombine,
};
use tutel_tensor::{Rng, Tensor};

fn fixture(
    tokens: usize,
    experts: usize,
    k: usize,
    f: f64,
    seed: u64,
) -> (Routing, Tensor, Tensor) {
    let mut rng = Rng::seed(seed);
    let probs = rng
        .uniform_tensor(&[tokens, experts], 0.0, 1.0)
        .softmax_last();
    let cfg = RouteConfig {
        k,
        capacity: CapacityPolicy::Fixed(f),
        bpr: false,
        normalize_gates: true,
    };
    let routing = route(&probs, &cfg).unwrap();
    let m = 5;
    let x = rng.normal_tensor(&[tokens, m], 0.0, 1.0);
    let y = rng.normal_tensor(&[experts, routing.capacity, m], 0.0, 1.0);
    (routing, x, y)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn dense_and_sparse_are_the_same_operator(
        tokens in 1usize..24,
        experts in 1usize..6,
        k_off in 0usize..3,
        f in 0.5f64..2.0,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        let (routing, x, y) = fixture(tokens, experts, k, f, seed);
        let dense = DenseCombine::new(&routing);
        let de = dense.encode(&x).unwrap();
        let se = fast_encode(&x, &routing).unwrap();
        prop_assert!(de.sub(&se).unwrap().max_abs() < 1e-5);
        let dd = dense.decode(&y).unwrap();
        let sd = fast_decode(&y, &routing, tokens).unwrap();
        prop_assert!(dd.sub(&sd).unwrap().max_abs() < 1e-5);
    }

    #[test]
    fn encode_backward_is_the_adjoint(
        tokens in 1usize..20,
        experts in 1usize..5,
        f in 0.5f64..2.0,
        seed in any::<u64>(),
    ) {
        // ⟨encode(x), y⟩ must equal ⟨x, encodeᵀ(y)⟩ exactly: encode is
        // linear and its backward is its transpose.
        let (routing, x, y) = fixture(tokens, experts, 1, f, seed);
        let ex = fast_encode(&x, &routing).unwrap();
        let lhs: f32 = ex.mul(&y).unwrap().sum();
        let xt = fast_encode_backward(&y, &routing, tokens).unwrap();
        let rhs: f32 = x.mul(&xt).unwrap().sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn decode_backward_is_the_adjoint_in_y(
        tokens in 1usize..20,
        experts in 1usize..5,
        f in 0.5f64..2.0,
        seed in any::<u64>(),
    ) {
        // ⟨decode(y), u⟩ = ⟨y, decodeᵀ(u)⟩ for fixed gates.
        let (routing, _, y) = fixture(tokens, experts, 2.min(experts), f, seed);
        let mut rng = Rng::seed(seed ^ 1);
        let u = rng.normal_tensor(&[tokens, 5], 0.0, 1.0);
        let dy_fwd = fast_decode(&y, &routing, tokens).unwrap();
        let lhs: f32 = dy_fwd.mul(&u).unwrap().sum();
        let (yt, _) = fast_decode_backward(&u, &y, &routing).unwrap();
        let rhs: f32 = y.mul(&yt).unwrap().sum();
        prop_assert!((lhs - rhs).abs() < 1e-2 * (1.0 + lhs.abs()), "{lhs} vs {rhs}");
    }

    #[test]
    fn decode_of_encode_is_gated_identity_without_drops(
        tokens in 1usize..16,
        experts in 1usize..5,
        seed in any::<u64>(),
    ) {
        // With auto-min capacity (no drops) and top-1 routing with raw
        // probability gates, decode(encode(x)) = g ⊙ x row-wise.
        let mut rng = Rng::seed(seed);
        let probs = rng.uniform_tensor(&[tokens, experts], 0.0, 1.0).softmax_last();
        let cfg = RouteConfig {
            k: 1,
            capacity: CapacityPolicy::AutoMin,
            bpr: false,
            normalize_gates: true,
        };
        let routing = route(&probs, &cfg).unwrap();
        let x = rng.normal_tensor(&[tokens, 4], 0.0, 1.0);
        let out = fast_decode(&fast_encode(&x, &routing).unwrap(), &routing, tokens).unwrap();
        for t in 0..tokens {
            let g = routing.gates_of(t)[0];
            for j in 0..4 {
                let expect = g * x.at(&[t, j]);
                prop_assert!((out.at(&[t, j]) - expect).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn dropped_gate_gradients_are_zero(
        tokens in 2usize..16,
        seed in any::<u64>(),
    ) {
        // Capacity pressure: every dropped assignment must contribute a
        // zero gate gradient (it never touched the output).
        let (routing, _, y) = fixture(tokens, 2, 1, 0.5, seed);
        let mut rng = Rng::seed(seed ^ 2);
        let u = rng.normal_tensor(&[tokens, 5], 0.0, 1.0);
        let (_, dgates) = fast_decode_backward(&u, &y, &routing).unwrap();
        prop_assert_eq!(dgates.len(), tokens);
        for (t, &dg) in dgates.iter().enumerate() {
            if routing.location(t, 0).is_none() {
                prop_assert_eq!(dg, 0.0);
            }
        }
    }
}
