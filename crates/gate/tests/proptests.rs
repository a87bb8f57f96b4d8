//! Property-based tests for routing invariants (Equation 1, Figure 16,
//! BPR).

use proptest::prelude::*;
use tutel_gate::{route, CapacityPolicy, RouteConfig};
use tutel_tensor::{Rng, Tensor};

fn random_probs(tokens: usize, experts: usize, seed: u64) -> Tensor {
    Rng::seed(seed)
        .uniform_tensor(&[tokens, experts], 0.0, 1.0)
        .softmax_last()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn counts_never_exceed_capacity(
        tokens in 1usize..40,
        experts in 1usize..8,
        k_off in 0usize..8,
        f in 0.25f64..4.0,
        bpr in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        let cfg = RouteConfig { k, capacity: CapacityPolicy::Fixed(f), bpr, normalize_gates: true };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        for (e, &c) in r.counts.iter().enumerate() {
            prop_assert!(c <= r.capacity, "expert {e}: {c} > {}", r.capacity);
        }
        // Equation 1: capacity = ceil(k·f·T/E), at least 1.
        let expect = ((k as f64 * f * tokens as f64 / experts as f64).ceil() as usize).max(1);
        prop_assert_eq!(r.capacity, expect);
    }

    #[test]
    fn locations_are_unique_slots_per_expert(
        tokens in 1usize..40,
        experts in 1usize..8,
        bpr in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let cfg = RouteConfig { bpr, ..RouteConfig::top1() };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        let mut seen = std::collections::HashSet::new();
        for t in 0..tokens {
            for (e, _, l) in r.selections(t) {
                if let Some(slot) = l {
                    prop_assert!(slot < r.capacity);
                    prop_assert!(seen.insert((e, slot)), "token {t}: slot ({e},{slot}) reused");
                }
            }
        }
    }

    #[test]
    fn auto_min_never_drops(
        tokens in 1usize..40,
        experts in 1usize..8,
        k_off in 0usize..4,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        let cfg = RouteConfig { k, capacity: CapacityPolicy::AutoMin, bpr: false, normalize_gates: true };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        prop_assert_eq!(r.dropped(), 0);
        prop_assert!((r.survival_rate() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_capped_respects_bound(
        tokens in 4usize..40,
        experts in 2usize..8,
        bound in 0.5f64..2.0,
        seed in any::<u64>(),
    ) {
        let cfg = RouteConfig {
            k: 1,
            capacity: CapacityPolicy::AutoCapped(bound),
            bpr: false,
            normalize_gates: true,
        };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        prop_assert!(r.capacity_factor <= bound + 1e-12);
    }

    #[test]
    fn bpr_only_reorders_who_survives_not_how_many(
        tokens in 2usize..40,
        experts in 2usize..6,
        seed in any::<u64>(),
    ) {
        // With fixed capacity, BPR changes *which* assignments survive,
        // never the per-expert totals (slots are the binding resource).
        let probs = random_probs(tokens, experts, seed);
        let base = route(&probs, &RouteConfig::top1()).unwrap();
        let bpr = route(&probs, &RouteConfig::top1().with_bpr(true)).unwrap();
        prop_assert_eq!(&base.counts, &bpr.counts);
        prop_assert_eq!(base.dropped(), bpr.dropped());
    }

    #[test]
    fn bpr_survivor_confidence_dominates(
        tokens in 4usize..32,
        seed in any::<u64>(),
    ) {
        // Under BPR, every surviving top-1 assignment to expert e has
        // confidence ≥ every dropped assignment to e.
        let experts = 3;
        let probs = random_probs(tokens, experts, seed);
        let r = route(&probs, &RouteConfig::top1().with_bpr(true)).unwrap();
        for e in 0..experts {
            let mut survived = Vec::new();
            let mut dropped = Vec::new();
            for t in 0..tokens {
                if r.experts_of(t)[0] as usize == e {
                    let conf = probs.at(&[t, e]);
                    if r.location(t, 0).is_some() {
                        survived.push(conf);
                    } else {
                        dropped.push(conf);
                    }
                }
            }
            if let (Some(min_s), Some(max_d)) = (
                survived.iter().copied().reduce(f32::min),
                dropped.iter().copied().reduce(f32::max),
            ) {
                prop_assert!(min_s >= max_d, "expert {e}: {min_s} < {max_d}");
            }
        }
    }

    #[test]
    fn zero_tokens_route_cleanly(
        experts in 1usize..8,
        k_off in 0usize..4,
        policy_sel in 0usize..4,
        seed in any::<u64>(),
    ) {
        // T = 0 must not divide-by-zero inside the auto policies or
        // produce a zero capacity: Equation 1 floors at 1.
        let k = 1 + k_off % experts;
        let capacity = match policy_sel {
            0 => CapacityPolicy::Fixed(1.0),
            1 => CapacityPolicy::AutoMin,
            2 => CapacityPolicy::AutoCapped(2.0),
            _ => CapacityPolicy::AutoCapped(0.0), // degenerate direct construction
        };
        let cfg = RouteConfig { k, capacity, bpr: false, normalize_gates: true };
        let r = route(&random_probs(0, experts, seed), &cfg).unwrap();
        prop_assert_eq!(r.num_tokens(), 0);
        prop_assert!(r.capacity >= 1, "capacity {} < 1", r.capacity);
        prop_assert_eq!(r.dropped(), 0);
        prop_assert!(r.counts.iter().all(|&c| c == 0));
    }

    #[test]
    fn all_tokens_to_one_expert_is_clamped_or_kept(
        tokens in 1usize..40,
        experts in 2usize..8,
        auto in any::<bool>(),
    ) {
        // One-hot rows: every token demands expert 0. AutoMin must
        // grow capacity to hold all of them; Fixed(1.0) must clamp to
        // exactly ceil(T/E) survivors and drop the rest.
        let mut data = vec![0.0f32; tokens * experts];
        for t in 0..tokens {
            data[t * experts] = 1.0;
        }
        let probs = Tensor::from_vec(data, &[tokens, experts]).unwrap();
        let capacity = if auto { CapacityPolicy::AutoMin } else { CapacityPolicy::Fixed(1.0) };
        let cfg = RouteConfig { k: 1, capacity, bpr: false, normalize_gates: true };
        let r = route(&probs, &cfg).unwrap();
        prop_assert_eq!(r.raw_counts[0], tokens);
        if auto {
            prop_assert_eq!(r.counts[0], tokens);
            prop_assert_eq!(r.dropped(), 0);
        } else {
            let cap = (tokens as f64 / experts as f64).ceil() as usize;
            prop_assert_eq!(r.counts[0], cap.min(tokens));
            prop_assert_eq!(r.dropped(), tokens - cap.min(tokens));
        }
    }

    #[test]
    fn tiny_capacity_factor_rounds_to_one_slot(
        tokens in 1usize..40,
        experts in 1usize..8,
        f in 1e-9f64..1e-3,
        seed in any::<u64>(),
    ) {
        // Equation 1 rounding at the bottom edge: a vanishing factor
        // yields capacity exactly 1 (never 0), so routing still
        // admits one token per expert.
        let cfg = RouteConfig { k: 1, capacity: CapacityPolicy::Fixed(f), bpr: false, normalize_gates: true };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        prop_assert_eq!(r.capacity, 1);
        prop_assert!(r.counts.iter().all(|&c| c <= 1));
    }

    #[test]
    fn degenerate_policies_resolve_without_panicking(
        tokens in 0usize..20,
        experts in 1usize..6,
        seed in any::<u64>(),
    ) {
        // The enum fields are public, so Fixed(0.0) / AutoCapped(0.0)
        // are constructible without from_arg's sign convention; they
        // must resolve to a positive factor instead of tripping
        // expert_capacity's positivity assert mid-route.
        for capacity in [CapacityPolicy::Fixed(0.0), CapacityPolicy::AutoCapped(0.0)] {
            let cfg = RouteConfig { k: 1, capacity, bpr: false, normalize_gates: true };
            let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
            prop_assert!(r.capacity_factor > 0.0);
            prop_assert!(r.capacity >= 1);
        }
    }

    #[test]
    fn raw_counts_conserve_assignments(
        tokens in 1usize..40,
        experts in 1usize..8,
        k_off in 0usize..4,
        seed in any::<u64>(),
    ) {
        let k = 1 + k_off % experts;
        let cfg = RouteConfig { k, ..RouteConfig::top1() };
        let r = route(&random_probs(tokens, experts, seed), &cfg).unwrap();
        let total: usize = r.raw_counts.iter().sum();
        prop_assert_eq!(total, tokens * k, "every (token, choice) appears exactly once");
        prop_assert!(r.counts.iter().zip(&r.raw_counts).all(|(c, rc)| c <= rc));
    }
}
