//! The single-threaded, single-rank reference executor.
//!
//! One fixed, strategy-free execution of the full MoE layer — gate →
//! capacity → dispatch (fast encode) → FFN → combine (fast decode) →
//! aux loss, forward and backward — against which every point of the
//! conformance matrix is compared. It follows the exact operation
//! order of the product's rank program (`tutel::step`) but is written
//! out independently on the kernel crates' padded `(E, C, M)` entry
//! points: the oracle lends no code to what it judges, and borrows
//! none from it. [`crate::dist`] shares only the [`Problem`] /
//! [`Fixture`] data and the [`RankResult`] it is compared in.
//!
//! All compute runs under a parallelism limit of [`REF_THREADS`]
//! thread (the `tutel-rt` chunk grids are bit-identical at any worker
//! count, but pinning the reference to one worker makes the "same
//! thread count" arm of the ULP policy unambiguous).

use tutel_experts::ExpertsBlock;
use tutel_gate::{aux_loss, aux_loss_grad_row, route, LinearRouter, RouteConfig, Router, Routing};
use tutel_kernels::{fast_decode, fast_decode_backward, fast_encode, fast_encode_backward};
use tutel_rt::with_parallelism_limit;
use tutel_tensor::{Rng, Tensor};

/// The reference executor's parallelism limit.
pub const REF_THREADS: usize = 1;

/// Problem dimensions shared by the reference and every distributed
/// configuration. Sized so that capacity is exactly
/// [`Problem::CAPACITY`] for every world size while still exercising
/// dropped tokens.
#[derive(Debug, Clone, Copy)]
pub struct Problem {
    /// Simulated world size; experts = `LOCAL_EXPERTS * world`.
    pub world: usize,
    /// Base seed for parameters, inputs, and upstream gradients.
    pub seed: u64,
}

impl Problem {
    /// Tokens per rank.
    pub const TOKENS: usize = 16;
    /// Model dimension.
    pub const MODEL_DIM: usize = 8;
    /// Expert hidden dimension (split across `SHARDS` under P2).
    pub const HIDDEN_DIM: usize = 16;
    /// Experts owned by each rank.
    pub const LOCAL_EXPERTS: usize = 2;
    /// Top-k routing.
    pub const TOP_K: usize = 2;
    /// Hidden-dimension shards under P2.
    pub const SHARDS: usize = 2;
    /// Aux-loss weight folded into the input gradient.
    pub const AUX_WEIGHT: f32 = 0.01;
    /// Per-expert capacity, for every world size.
    pub const CAPACITY: usize = 8;

    /// Total experts.
    pub fn experts(&self) -> usize {
        Self::LOCAL_EXPERTS * self.world
    }

    /// The fixed capacity factor that makes Equation 1 yield exactly
    /// [`Self::CAPACITY`]: `ceil(k·f·T/E) = 8` ⇒ `f = E/4` for
    /// `k = 2, T = 16`.
    pub fn capacity_factor(&self) -> f64 {
        self.experts() as f64 / 4.0
    }

    /// The route configuration every executor must use.
    pub fn route_config(&self) -> RouteConfig {
        RouteConfig {
            k: Self::TOP_K,
            capacity: tutel_gate::CapacityPolicy::Fixed(self.capacity_factor()),
            bpr: false,
            normalize_gates: true,
        }
    }

    /// Deterministic shared parameters and per-rank data: the router,
    /// the global expert block, and per-rank `(input, upstream)`
    /// pairs. Every executor derives its view from these tensors.
    pub fn materialize(&self) -> Fixture {
        let mut rng = Rng::seed(self.seed);
        let router = LinearRouter::new(Self::MODEL_DIM, self.experts(), &mut rng);
        let experts =
            ExpertsBlock::new(self.experts(), Self::MODEL_DIM, Self::HIDDEN_DIM, &mut rng);
        let per_rank = (0..self.world)
            .map(|_| {
                let x = rng.normal_tensor(&[Self::TOKENS, Self::MODEL_DIM], 0.0, 1.0);
                let d_out = rng.normal_tensor(&[Self::TOKENS, Self::MODEL_DIM], 0.0, 1.0);
                (x, d_out)
            })
            .collect();
        Fixture {
            router,
            experts,
            per_rank,
        }
    }
}

/// Materialized shared state for one problem instance.
pub struct Fixture {
    /// Shared (replicated) router.
    pub router: LinearRouter,
    /// The global expert parameters `(E, ·)`.
    pub experts: ExpertsBlock,
    /// Per-rank `(input, upstream gradient)`, both `(T, M)`.
    pub per_rank: Vec<(Tensor, Tensor)>,
}

/// What one rank's execution produced: the quantities the matrix
/// compares.
#[derive(Debug, Clone)]
pub struct RankResult {
    /// Layer output `(T, M)`, flattened.
    pub output: Vec<f32>,
    /// Input gradient `(T, M)`, flattened.
    pub d_x: Vec<f32>,
    /// Auxiliary load-balancing loss.
    pub aux: f32,
}

/// Runs gate → encode on one rank's input.
fn gate_and_encode(problem: &Problem, fixture: &Fixture, rank: usize) -> (Tensor, Routing, Tensor) {
    let (x, _) = &fixture.per_rank[rank];
    let probs = fixture
        .router
        .logits(x)
        .expect("router dims fixed by Problem")
        .softmax_last();
    let routing = route(&probs, &problem.route_config()).expect("capacity factor is positive");
    assert_eq!(
        routing.capacity,
        Problem::CAPACITY,
        "Problem dims must pin capacity"
    );
    let enc = fast_encode(x, &routing).expect("encode dims fixed by routing");
    (probs, routing, enc)
}

/// The gate-side backward chain — decode gate gradients through gate
/// normalization, aux loss, softmax, and the router — the oracle's own
/// spelling of what `tutel::step::backward` does. Returns `d_x`
/// (router term included).
fn gate_backward(
    fixture: &Fixture,
    rank: usize,
    probs: &Tensor,
    routing: &Routing,
    d_gates: &[f32],
    d_x_encode: Tensor,
) -> Tensor {
    let (x, _) = &fixture.per_rank[rank];
    let mut d_probs = Tensor::zeros(probs.dims());
    for (t, dg) in d_gates.chunks(Problem::TOP_K).enumerate() {
        let experts: Vec<usize> = routing.selections(t).map(|(e, _, _)| e).collect();
        if Problem::TOP_K > 1 {
            let vals: Vec<f32> = experts.iter().map(|&e| probs.at(&[t, e])).collect();
            let s: f32 = vals.iter().sum::<f32>().max(1e-9);
            let gates: Vec<f32> = vals.iter().map(|v| v / s).collect();
            let dot: f32 = dg.iter().zip(&gates).map(|(d, g)| d * g).sum();
            for (i, &e) in experts.iter().enumerate() {
                d_probs.set(&[t, e], (dg[i] - dot) / s);
            }
        } else if let (Some(&e), Some(&d)) = (experts.first(), dg.first()) {
            d_probs.set(&[t, e], d);
        }
    }
    // The aux loss's gradient is one row for every token: written out
    // as the `(T, E)` tensor the unfused chain adds.
    let aux_row = aux_loss_grad_row(probs, routing).expect("aux grad dims fixed");
    let d_aux = Tensor::from_vec(aux_row.repeat(Problem::TOKENS), probs.dims())
        .expect("aux grad shape matches probs");
    d_probs
        .axpy(Problem::AUX_WEIGHT, &d_aux)
        .expect("aux grad shape matches probs");
    let d_logits = probs
        .softmax_last_backward(&d_probs)
        .expect("softmax backward dims fixed");
    // The shared router is read-only; clone so gradient accumulation
    // stays local to this rank's execution.
    let mut router = fixture.router.clone();
    let d_x_router = router
        .backward(x, &d_logits)
        .expect("router backward dims fixed");
    let mut d_x = d_x_encode;
    d_x.axpy(1.0, &d_x_router).expect("d_x shapes match");
    d_x
}

/// Executes the reference forward + backward for every rank of the
/// problem, single-threaded.
pub fn run_reference(problem: &Problem, fixture: &Fixture) -> Vec<RankResult> {
    with_parallelism_limit(REF_THREADS, || {
        (0..problem.world)
            .map(|rank| run_reference_rank(problem, fixture, rank))
            .collect()
    })
}

fn run_reference_rank(problem: &Problem, fixture: &Fixture, rank: usize) -> RankResult {
    let (_, d_out) = &fixture.per_rank[rank];
    let (probs, routing, enc) = gate_and_encode(problem, fixture, rank);

    // A private copy of the global block so forward caches (needed by
    // backward) stay local to this rank's execution.
    let (w1, b1, w2, b2) = fixture.experts.weights();
    let mut experts = ExpertsBlock::from_weights(w1.clone(), b1.clone(), w2.clone(), b2.clone())
        .expect("weights round-trip");
    let expert_out = experts.forward(&enc).expect("expert dims fixed");
    let output = fast_decode(&expert_out, &routing, Problem::TOKENS).expect("decode dims fixed");
    let aux = aux_loss(&probs, &routing).expect("aux dims fixed");

    // Backward, in the rank program's operation order.
    let (d_expert_out, d_gates) =
        fast_decode_backward(d_out, &expert_out, &routing).expect("decode backward dims fixed");
    let d_dispatched = experts
        .backward(&d_expert_out)
        .expect("expert backward dims fixed");
    let d_x_encode = fast_encode_backward(&d_dispatched, &routing, Problem::TOKENS)
        .expect("encode backward dims fixed");
    let d_x = gate_backward(fixture, rank, &probs, &routing, &d_gates, d_x_encode);

    RankResult {
        output: output.as_slice().to_vec(),
        d_x: d_x.as_slice().to_vec(),
        aux,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_is_deterministic() {
        let problem = Problem { world: 2, seed: 7 };
        let fixture = problem.materialize();
        let a = run_reference(&problem, &fixture);
        let b = run_reference(&problem, &fixture);
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.output, rb.output);
            assert_eq!(ra.d_x, rb.d_x);
            assert_eq!(ra.aux.to_bits(), rb.aux.to_bits());
        }
    }

    #[test]
    fn capacity_is_pinned_for_all_world_sizes() {
        for world in [1, 2, 4] {
            let problem = Problem { world, seed: 3 };
            let fixture = problem.materialize();
            let (_, routing, _) = gate_and_encode(&problem, &fixture, 0);
            assert_eq!(routing.capacity, Problem::CAPACITY, "world {world}");
        }
    }

    #[test]
    fn gradients_are_nonzero() {
        let problem = Problem { world: 1, seed: 11 };
        let fixture = problem.materialize();
        let results = run_reference(&problem, &fixture);
        assert!(results[0].d_x.iter().any(|&v| v != 0.0));
        assert!(results[0].aux > 0.0);
    }
}
