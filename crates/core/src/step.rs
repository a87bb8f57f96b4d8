//! The rank program: one MoE step on one rank — `logits → softmax →
//! route → bins → encode → [experts] → decode`, and the gate-gradient
//! chain that retraces it. The first three run as one router launch
//! (logits, softmax and top-k) and the routing walk after it.
//!
//! Distribution is a *plan*, never a second implementation: the step
//! owns everything rank-local and takes the **expert stage** — whatever
//! turns packed bin rows into packed expert outputs — as a closure.
//! [`crate::MoeLayer`] passes its local experts, `tutel_serve::exec` and
//! `tutel_harness::dist` pass [`crate::overlap::exchange_bins`]; kernel
//! failures convert into the caller's error type and the closure's
//! errors pass through. The caller builds the expert bins between
//! [`gate`] and [`forward`] — exact bins of the routing,
//! [`RaggedRouting::from_routing`], on every caller — and [`gate`] is
//! the last point where a rank can fail on its own rows alone. Stage
//! boundaries are span boundaries (`gate`, `encode`, `decode` and
//! their `.backward` twins; the expert stage opens its own `ffn`
//! spans): one branch per stage when `tel` is disabled.
//!
//! The routing record is read through [`Routing`]'s accessors only;
//! gate gradients travel as one flat `(T·k)` array in the record's
//! order, and [`Router::gate_backward`] turns them into the router's
//! gradients and its `d_x` term (for a linear router, one launch of
//! 256-row panels in which each block of logit gradients is made and
//! used in cache). The probabilities, the gate chain's `(T, E)` tensor
//! (the router's launch turns its logits into them in place), are
//! taken from `scratch` and recycled here, so the arena's `(T·E)`
//! class neither grows nor evicts from step to step.

use tutel_gate::{observe_routing, route_top_k, RaggedRouting, RouteConfig, Router, Routing};
use tutel_kernels::{ragged_decode, ragged_decode_backward, ragged_encode, ragged_encode_backward};
use tutel_obs::{Telemetry, TraceSpan};
use tutel_tensor::{scratch, Tensor, TensorError};

/// What [`forward`] ran, for [`backward`] and the caller's report.
#[derive(Debug)]
pub struct Saved {
    /// Gating probabilities `(T, E)`.
    pub probs: Tensor,
    /// The routing decision; it records whether the gates were
    /// normalized, so backward never re-derives that from a config
    /// changed since.
    pub routing: Routing,
    /// The bins the rows were packed into.
    pub bins: RaggedRouting,
    /// Packed expert outputs, in the bins' layout.
    pub expert_out: Tensor,
}

/// Opens stage span `name` tagged with the step's sizes.
fn stage_span(tel: &Telemetry, name: &str, routing: &Routing, bins: &RaggedRouting) -> TraceSpan {
    if !tel.is_enabled() {
        return tel.span(name);
    }
    tel.span(name)
        .arg("tokens", routing.num_tokens() as u64)
        .arg("experts", routing.experts as u64)
        .arg("packed_rows", bins.total() as u64)
}

/// The gate stage over `x (T, M)`: router logits, softmax and each
/// row's top-k from the router's one launch
/// ([`Router::softmax_top_k`]), then the routing decision under
/// `route_cfg` ([`route_top_k`]: gate normalization, the NaN check,
/// the BPR order and the capacity walk). Returns the probabilities
/// `(T, E)` and the routing, every bit equal to the unfused chain
/// `logits → softmax_last → route`.
///
/// # Errors
///
/// A [`TensorError`] on shape mismatch or invalid routing input (a
/// non-finite capacity factor, a selected NaN gate). This is the only
/// failure of a step that depends on the rank's own rows, so a
/// distributed caller sees it before it enters any collective.
// check:hot
pub fn gate(
    router: &dyn Router,
    x: &Tensor,
    route_cfg: &RouteConfig,
    tel: &Telemetry,
) -> Result<(Tensor, Routing), TensorError> {
    let gate = tel.span("gate");
    let (probs, top) = router.softmax_top_k(x, route_cfg.k)?;
    let routing = route_top_k(&probs, top, route_cfg)?;
    drop(gate);
    observe_routing(&routing, tel);
    Ok((probs, routing))
}

/// The forward step after [`gate`]: encode `x (T, M)` into `bins`
/// (built by the caller from `routing`), run `experts` on the packed
/// rows and their CSR offsets, decode. Returns the output `(T, M)`.
///
/// # Errors
///
/// A converted [`TensorError`] on shape mismatch; otherwise whatever
/// `experts` returned.
// check:hot
pub fn forward<E: From<TensorError>>(
    x: &Tensor,
    probs: Tensor,
    routing: Routing,
    bins: RaggedRouting,
    tel: &Telemetry,
    experts: impl FnOnce(&Tensor, &[usize]) -> Result<Tensor, E>,
) -> Result<(Tensor, Saved), E> {
    let encode = stage_span(tel, "encode", &routing, &bins);
    let packed = ragged_encode(x, &routing, &bins)?;
    tel.add_counter("kernels.encode.elements", packed.len() as u64);
    tel.add_counter("kernels.encode.calls", 1);
    drop(encode);
    let expert_out = experts(&packed, &bins.offsets)?;
    scratch::recycle(packed);
    let decode = stage_span(tel, "decode", &routing, &bins);
    let output = ragged_decode(&expert_out, &routing, &bins, routing.num_tokens())?;
    tel.add_counter("kernels.decode.elements", output.len() as u64);
    tel.add_counter("kernels.decode.calls", 1);
    drop(decode);

    let saved = Saved {
        probs,
        routing,
        bins,
        expert_out,
    };
    Ok((output, saved))
}

/// The backward step: retraces decode → `experts_backward` → encode
/// over the forward's bins, then chains the gate gradients through
/// gate normalization, the auxiliary loss (`aux_weight`, straight-
/// through on the fractions), softmax and the router
/// ([`Router::gate_backward`], inside the `gate.backward` span). `x`
/// is the forward's input; router gradients accumulate in `router`.
/// Returns `d_x (T, M)`, router term included.
///
/// # Errors
///
/// As [`forward`].
// check:hot
pub fn backward<E: From<TensorError>>(
    router: &mut dyn Router,
    x: &Tensor,
    saved: Saved,
    d_out: &Tensor,
    aux_weight: f32,
    tel: &Telemetry,
    experts_backward: impl FnOnce(&Tensor) -> Result<Tensor, E>,
) -> Result<Tensor, E> {
    let (probs, routing, bins) = (&saved.probs, &saved.routing, &saved.bins);
    let decode = stage_span(tel, "decode.backward", routing, bins);
    let (d_packed_out, d_gates) = ragged_decode_backward(d_out, &saved.expert_out, routing, bins)?;
    drop(decode);
    scratch::recycle(saved.expert_out);
    let d_packed_in = experts_backward(&d_packed_out)?;
    scratch::recycle(d_packed_out);
    let encode = stage_span(tel, "encode.backward", routing, bins);
    let mut d_x = ragged_encode_backward(&d_packed_in, routing, bins, routing.num_tokens())?;
    drop(encode);
    scratch::recycle(d_packed_in);

    let _gate = tel.span("gate.backward");
    router.gate_backward(x, probs, routing, &d_gates, aux_weight, &mut d_x)?;
    tutel_rt::arena().put(d_gates);
    scratch::recycle(saved.probs);
    Ok(d_x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tutel_gate::{route, CapacityPolicy, CosineRouter, HashRouter, LinearRouter};
    use tutel_obs::TraceEvent;
    use tutel_tensor::dispatch::{kernel_modes, with_kernel_mode};
    use tutel_tensor::Rng;

    /// A router whose logits are given, whatever the input: the
    /// default `softmax_top_k` over exact ties, signed zeros and
    /// non-finite logits.
    struct GivenLogits(Tensor);

    impl Router for GivenLogits {
        fn num_experts(&self) -> usize {
            self.0.dims()[1]
        }
        fn logits(&self, _: &Tensor) -> Result<Tensor, TensorError> {
            Ok(scratch::copy_of(&self.0))
        }
        fn backward(&mut self, x: &Tensor, _: &Tensor) -> Result<Tensor, TensorError> {
            Ok(Tensor::zeros(x.dims()))
        }
        fn step(&mut self, _: f32) {}
        fn num_params(&self) -> usize {
            0
        }
    }

    /// Every output of a gate as bits: the probabilities, then per
    /// token its experts, gate bits and slots, then the counts.
    type GateBits = (
        Vec<u32>,
        Vec<Vec<(usize, u32, Option<usize>)>>,
        Vec<usize>,
        usize,
    );

    fn gate_bits(out: Result<(Tensor, Routing), TensorError>) -> Result<GateBits, String> {
        let (probs, r) = out.map_err(|e| format!("{e:?}"))?;
        let picks = (0..r.num_tokens())
            .map(|t| {
                r.selections(t)
                    .map(|(e, g, l)| (e, g.to_bits(), l))
                    .collect()
            })
            .collect();
        let mut counts = r.counts.clone();
        counts.extend(&r.raw_counts);
        counts.push(r.capacity);
        let probs = probs.as_slice().iter().map(|p| p.to_bits()).collect();
        Ok((probs, picks, counts, r.dropped()))
    }

    /// `step::gate` against `logits → softmax_last → route` on one
    /// router, input and configuration, at every kernel table. Returns
    /// whether they failed (alike).
    fn assert_fused_equals_unfused(
        router: &dyn Router,
        x: &Tensor,
        cfg: &RouteConfig,
        what: &str,
    ) -> bool {
        let mut failed = false;
        for mode in kernel_modes() {
            with_kernel_mode(mode, || {
                let fused = gate_bits(gate(router, x, cfg, &Telemetry::disabled()));
                let unfused = gate_bits(router.logits(x).and_then(|logits| {
                    let probs = logits.softmax_last();
                    let routing = route(&probs, cfg)?;
                    Ok((probs, routing))
                }));
                assert!(
                    fused == unfused,
                    "{what} {cfg:?} at {mode:?}: fused {:?}, unfused {:?}",
                    fused.as_ref().map(|g| &g.1).map_err(|e| e.as_str()),
                    unfused.as_ref().map(|g| &g.1).map_err(|e| e.as_str())
                );
                failed = fused.is_err();
            });
        }
        failed
    }

    /// The top-k widths tried over `e` experts: all of them up to 9,
    /// then the small ones and the widest two.
    fn top_ks(e: usize) -> Vec<usize> {
        let mut ks: Vec<usize> = (1..=e.min(9)).collect();
        ks.extend([e - 1, e].iter().filter(|&&k| k > 9));
        ks
    }

    #[test]
    fn fused_gate_equals_the_unfused_chain_bit_for_bit() {
        let mut rng = Rng::seed(41);
        let c = 8;
        for e in (1..=9).chain([16, 17, 64]) {
            for t in [0usize, 1, 47, 48, 49, 8192] {
                let x = rng.normal_tensor(&[t, c], 0.0, 1.0);
                let routers: [Box<dyn Router>; 3] = [
                    Box::new(LinearRouter::new(c, e, &mut rng)),
                    Box::new(CosineRouter::new(c, 4, e, &mut rng)),
                    Box::new(HashRouter::new(e)),
                ];
                // The long batch at the widths the benchmark and the
                // serving workloads run, and a 17-lane tail.
                let ks = if t == 8192 {
                    if ![4, 17, 64].contains(&e) {
                        continue;
                    }
                    vec![1, 2, e]
                } else {
                    top_ks(e)
                };
                for (i, router) in routers.iter().enumerate() {
                    for &k in &ks {
                        let cfg = RouteConfig {
                            k,
                            capacity: [CapacityPolicy::Fixed(1.0), CapacityPolicy::AutoMin][k % 2],
                            bpr: (k + i) % 2 == 0,
                            normalize_gates: true,
                        };
                        let what = format!("router {i}, T {t}, E {e}");
                        assert!(!assert_fused_equals_unfused(
                            router.as_ref(),
                            &x,
                            &cfg,
                            &what
                        ));
                    }
                }
            }
        }
    }

    #[test]
    fn fused_gate_keeps_ties_signed_zeros_and_the_typed_errors() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let mut outcomes = [0usize; 2];
        for e in (1..=9).chain([16, 17, 64]) {
            // One special row beside two ordinary ones, per pattern.
            let patterns: [&dyn Fn(usize) -> f32; 8] = [
                &|_| 0.5,
                &|j| if j % 3 == 0 { 2.0 } else { 1.0 },
                &|j| if j % 2 == 0 { 0.0 } else { -0.0 },
                &|j| if j == e / 2 { inf } else { 0.0 },
                &|j| if j == e - 1 { -inf } else { j as f32 },
                &|_| -inf,
                &|j| if j == 0 { nan } else { 1.0 },
                &|j| if j % 2 == 1 { nan } else { -(j as f32) },
            ];
            for (p, pattern) in patterns.iter().enumerate() {
                let mut rows: Vec<f32> = (0..e).map(|j| (j as f32 * 0.37).sin()).collect();
                rows.extend((0..e).map(pattern));
                rows.extend((0..e).map(|j| -(j as f32) / 3.0));
                let router = GivenLogits(Tensor::from_vec(rows, &[3, e]).unwrap());
                let x = Tensor::zeros(&[3, 1]);
                for k in top_ks(e) {
                    let cfg = RouteConfig::top1().with_capacity_factor(2.0);
                    let cfg = RouteConfig { k, ..cfg };
                    let what = format!("pattern {p}, E {e}");
                    outcomes[usize::from(assert_fused_equals_unfused(&router, &x, &cfg, &what))] +=
                        1;
                }
            }
            // A linear router with equal columns ties every row; zero
            // weights give signed-zero logits; non-finite inputs give
            // non-finite logits.
            let mut rng = Rng::seed(e as u64);
            let mut router = LinearRouter::new(3, e, &mut rng);
            let col: Vec<f32> = (0..3).map(|_| rng.normal()).collect();
            let tied = (0..3 * e).map(|i| col[i / e]).collect();
            let x = Tensor::from_vec(
                vec![
                    1.0, -2.0, 0.5, -0.0, 0.0, -1.0, inf, 1.0, 0.0, nan, 0.0, 0.0,
                ],
                &[4, 3],
            )
            .unwrap();
            for w in [tied, vec![0.0; 3 * e]] {
                router
                    .set_weights(Tensor::from_vec(w, &[3, e]).unwrap())
                    .unwrap();
                for k in top_ks(e) {
                    let cfg = RouteConfig {
                        k,
                        ..RouteConfig::top2()
                    };
                    let what = format!("linear, E {e}");
                    outcomes[usize::from(assert_fused_equals_unfused(&router, &x, &cfg, &what))] +=
                        1;
                }
            }
        }
        // Invalid configurations fail with the same typed error.
        let mut rng = Rng::seed(2);
        let router = LinearRouter::new(3, 4, &mut rng);
        let x = rng.normal_tensor(&[5, 3], 0.0, 1.0);
        for cfg in [
            RouteConfig {
                k: 0,
                ..RouteConfig::top1()
            },
            RouteConfig {
                k: 5,
                ..RouteConfig::top1()
            },
            RouteConfig::top2().with_capacity_factor(f64::NAN),
        ] {
            assert!(assert_fused_equals_unfused(&router, &x, &cfg, "invalid"));
        }
        // Both sides of every pattern set ran: routed rows and the
        // selected-NaN error.
        assert!(outcomes[0] > 0 && outcomes[1] > 0, "{outcomes:?}");
    }

    #[test]
    fn observed_step_matches_plain_and_counts_elements() {
        let mut rng = Rng::seed(3);
        let router = LinearRouter::new(4, 2, &mut rng);
        let x = rng.normal_tensor(&[6, 4], 0.0, 1.0);
        let run = |tel: &Telemetry| {
            let cfg = RouteConfig::top1().with_capacity_factor(4.0);
            let (probs, routing) = gate(&router, &x, &cfg, tel).unwrap();
            let bins = RaggedRouting::from_routing(&routing);
            forward(&x, probs, routing, bins, tel, |packed, _| {
                Ok::<_, TensorError>(packed.clone())
            })
            .unwrap()
        };
        let tel = Telemetry::enabled();
        let (plain, _) = run(&Telemetry::disabled());
        let (observed, saved) = run(&tel);
        assert_eq!(plain, observed);

        let packed = saved.expert_out.len() as u64;
        assert_eq!(tel.counter_value("kernels.encode.elements"), Some(packed));
        assert_eq!(tel.counter_value("kernels.encode.calls"), Some(1));
        assert_eq!(tel.counter_value("kernels.decode.elements"), Some(24));
        assert_eq!(tel.counter_value("kernels.decode.calls"), Some(1));
        // The stage spans made it into the ring, in stage order.
        let spans: Vec<String> = tel
            .tracer(0)
            .events()
            .into_iter()
            .filter_map(|e| match e {
                TraceEvent::Span { name, .. } => Some(name),
                _ => None,
            })
            .collect();
        assert_eq!(spans, ["gate", "encode", "decode"]);
    }
}
