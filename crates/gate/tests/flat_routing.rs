//! The flat routing record against the record it replaced.
//!
//! `naive_route` is the previous `route` kept as a test oracle: a full
//! per-row sort for the top-k and one `Vec` per token for each of the
//! experts, gates and locations. It shares no code with `route` or
//! `Tensor::topk_last` beyond the capacity arithmetic.

use proptest::prelude::*;
use tutel_gate::{
    expert_capacity, needed_capacity_factor, route, CapacityPolicy, RaggedRouting, RouteConfig,
};
use tutel_tensor::{uniform_offsets, Rng, Tensor};

struct NaiveRouting {
    capacity: usize,
    capacity_factor: f64,
    needed_factor: f64,
    expert_of: Vec<Vec<usize>>,
    gate_of: Vec<Vec<f32>>,
    location_of: Vec<Vec<Option<usize>>>,
    counts: Vec<usize>,
    raw_counts: Vec<usize>,
}

impl NaiveRouting {
    fn dropped(&self) -> usize {
        let locs = self.location_of.iter().flatten();
        locs.filter(|l| l.is_none()).count()
    }

    fn survival_rate(&self) -> f64 {
        let total: usize = self.location_of.iter().map(|l| l.len()).sum();
        if total == 0 {
            return 1.0;
        }
        1.0 - self.dropped() as f64 / total as f64
    }

    /// The `(token, selection)` owning each packed slot of bins laid
    /// out at `offsets`.
    fn owners(&self, offsets: &[usize]) -> Vec<Option<(usize, usize)>> {
        let mut owners = vec![None; offsets[offsets.len() - 1]];
        for (t, (experts_of, locs)) in self.expert_of.iter().zip(&self.location_of).enumerate() {
            for (i, (&e, loc)) in experts_of.iter().zip(locs).enumerate() {
                if let Some(l) = loc {
                    owners[offsets[e] + l] = Some((t, i));
                }
            }
        }
        owners
    }
}

fn naive_route(probs: &Tensor, cfg: &RouteConfig) -> NaiveRouting {
    let (tokens, experts) = (probs.dims()[0], probs.dims()[1]);
    let mut expert_of = Vec::new();
    let mut vals: Vec<Vec<f32>> = Vec::new();
    for row in probs.as_slice().chunks(experts) {
        let mut order: Vec<usize> = (0..experts).collect();
        order.sort_by(|&a, &b| {
            row[b]
                .partial_cmp(&row[a])
                .unwrap_or_else(|| row[a].is_nan().cmp(&row[b].is_nan()))
                .then(a.cmp(&b))
        });
        order.truncate(cfg.k);
        vals.push(order.iter().map(|&i| row[i]).collect());
        expert_of.push(order);
    }

    let gate_of: Vec<Vec<f32>> = vals
        .iter()
        .map(|v| {
            if cfg.normalize_gates && cfg.k > 1 {
                let s: f32 = v.iter().sum::<f32>().max(1e-9);
                v.iter().map(|g| g / s).collect()
            } else {
                v.clone()
            }
        })
        .collect();

    let mut raw_counts = vec![0usize; experts];
    for &e in expert_of.iter().flatten() {
        raw_counts[e] += 1;
    }
    let needed_factor = needed_capacity_factor(&raw_counts, cfg.k, tokens);
    let capacity_factor = cfg.capacity.resolve(&raw_counts, cfg.k, tokens);
    let capacity = expert_capacity(cfg.k, capacity_factor, tokens, experts);

    let mut order: Vec<usize> = (0..tokens).collect();
    if cfg.bpr {
        order.sort_by(|&a, &b| {
            vals[b][0]
                .partial_cmp(&vals[a][0])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
    }

    let mut counts = vec![0usize; experts];
    let mut location_of = vec![Vec::new(); tokens];
    for &t in &order {
        for &e in &expert_of[t] {
            if counts[e] < capacity {
                location_of[t].push(Some(counts[e]));
                counts[e] += 1;
            } else {
                location_of[t].push(None);
            }
        }
    }

    NaiveRouting {
        capacity,
        capacity_factor,
        needed_factor,
        expert_of,
        gate_of,
        location_of,
        counts,
        raw_counts,
    }
}

/// `(T, E)` probabilities on four levels plus `-0.0` (equal to `+0.0`),
/// so ties are the common case, and with `infs` also `±∞`; up to
/// `E − k` NaNs per row — NaNs that lose the top-k.
fn quantised_probs(tokens: usize, experts: usize, k: usize, infs: bool, seed: u64) -> Tensor {
    let mut rng = Rng::seed(seed);
    let levels = if infs { 7 } else { 5 };
    let mut data = Vec::with_capacity(tokens * experts);
    for _ in 0..tokens {
        let mut nans = rng.below(experts - k + 1);
        for e in 0..experts {
            if nans > 0 && rng.below(experts - e) < nans {
                data.push(f32::NAN);
                nans -= 1;
            } else {
                data.push(match rng.below(levels) {
                    4 => -0.0,
                    5 => f32::INFINITY,
                    6 => f32::NEG_INFINITY,
                    q => q as f32 / 4.0,
                });
            }
        }
    }
    Tensor::from_vec(data, &[tokens, experts]).unwrap()
}

/// Routes one drawn problem through `route` and `naive_route` and
/// compares every field of the record and both bin views. A selected
/// `+∞` normalizes to a NaN gate: then `route` must refuse the batch.
#[allow(clippy::too_many_arguments)]
fn flat_equals_naive(
    tokens: usize,
    experts: usize,
    k: usize,
    bpr: bool,
    normalize_gates: bool,
    policy: usize,
    infs: bool,
    seed: u64,
) -> Result<(), TestCaseError> {
    let capacity = [
        CapacityPolicy::Fixed(0.5),
        CapacityPolicy::Fixed(4.0),
        CapacityPolicy::AutoMin,
        CapacityPolicy::AutoCapped(1.25),
    ][policy];
    let cfg = RouteConfig {
        k,
        capacity,
        bpr,
        normalize_gates,
    };
    let probs = quantised_probs(tokens, experts, k, infs, seed);
    let naive = naive_route(&probs, &cfg);
    if naive.gate_of.iter().flatten().any(|g| g.is_nan()) {
        prop_assert!(route(&probs, &cfg).is_err(), "a NaN gate was routed");
        return Ok(());
    }
    let flat = route(&probs, &cfg).unwrap();

    prop_assert_eq!(
        (flat.num_tokens(), flat.k(), flat.experts),
        (tokens, k, experts)
    );
    for t in 0..tokens {
        let picks: Vec<_> = flat.selections(t).collect();
        prop_assert_eq!(picks.len(), k);
        for (i, &(e, g, loc)) in picks.iter().enumerate() {
            prop_assert_eq!(e, naive.expert_of[t][i], "token {} selection {}", t, i);
            prop_assert_eq!(g.to_bits(), naive.gate_of[t][i].to_bits());
            prop_assert_eq!(loc, naive.location_of[t][i]);
            prop_assert_eq!(flat.experts_of(t)[i] as usize, e);
            prop_assert_eq!(flat.gates_of(t)[i].to_bits(), g.to_bits());
            prop_assert_eq!(flat.location(t, i), loc);
            prop_assert_eq!(flat.assignment(t * k + i), (t, g));
        }
    }
    prop_assert_eq!(&flat.counts, &naive.counts);
    prop_assert_eq!(&flat.raw_counts, &naive.raw_counts);
    prop_assert_eq!(flat.capacity, naive.capacity);
    prop_assert_eq!(
        flat.capacity_factor.to_bits(),
        naive.capacity_factor.to_bits()
    );
    prop_assert_eq!(flat.needed_factor.to_bits(), naive.needed_factor.to_bits());
    prop_assert_eq!(flat.normalized, normalize_gates && k > 1);
    prop_assert_eq!(flat.dropped(), naive.dropped());
    prop_assert_eq!(
        flat.survival_rate().to_bits(),
        naive.survival_rate().to_bits()
    );

    let exact = RaggedRouting::from_routing(&flat);
    let uniform = RaggedRouting::uniform_capacity(&flat);
    prop_assert_eq!(exact.total(), naive.counts.iter().sum::<usize>());
    prop_assert_eq!(&uniform.offsets, &uniform_offsets(experts, naive.capacity));
    for view in [&exact, &uniform] {
        let owners = naive.owners(&view.offsets);
        prop_assert_eq!(view.slot_owner.len(), owners.len());
        for (&a, owner) in view.slot_owner.iter().zip(owners) {
            match owner {
                Some((t, i)) => prop_assert_eq!(a as usize, t * k + i),
                None => prop_assert_eq!(a, RaggedRouting::UNOWNED),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn flat_record_equals_the_nested_record_it_replaces(
        tokens in 0usize..=64,
        experts in 1usize..=16,
        k_off in 0usize..16,
        bpr in any::<bool>(),
        normalize_gates in any::<bool>(),
        policy in 0usize..4,
        infs in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        flat_equals_naive(tokens, experts, k, bpr, normalize_gates, policy, infs, seed)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Many experts and tokens: `route`'s top-k runs over many row
    /// chunks here, which the small shapes above never leave.
    #[test]
    fn flat_record_equals_the_nested_record_at_many_experts(
        tokens in 0usize..=2048,
        experts in 1usize..=64,
        k_off in 0usize..8,
        bpr in any::<bool>(),
        normalize_gates in any::<bool>(),
        policy in 0usize..4,
        infs in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        flat_equals_naive(tokens, experts, k, bpr, normalize_gates, policy, infs, seed)?;
    }
}
