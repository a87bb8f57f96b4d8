//! Telemetry reporting for the gate: per-expert load, drops, and
//! capacity, pushed into a shared [`Telemetry`] handle.

use tutel_obs::{Histogram, Telemetry};

use crate::routing::Routing;

/// Reports one routing decision's statistics:
///
/// * histogram `gate.expert_load` — post-capacity token count of every
///   expert (one observation per expert per iteration);
/// * counter `gate.routed_tokens` / `gate.dropped_tokens` — counted in
///   *assignments* (a token's `k` selections are `k` assignments, as
///   [`Routing::dropped`] counts them): the `T·k` seen and those lost
///   to the capacity clamp, so their ratio is `1 −` the survival rate;
/// * gauges `gate.capacity_factor`, `gate.needed_factor`,
///   `gate.survival_rate` — the Figure 1 signals driving the adaptive
///   layer;
/// * gauge `dispatch.routed_tokens` — the assignments that survived
///   the clamp, which is exactly the rows the experts compute.
///
/// No-op (one branch) when `tel` is disabled.
pub fn observe_routing(routing: &Routing, tel: &Telemetry) {
    if !tel.is_enabled() {
        return;
    }
    for &count in &routing.counts {
        tel.record_hist_with("gate.expert_load", count as f64, Histogram::magnitude);
    }
    let assignments = routing.num_tokens() * routing.k();
    tel.add_counter("gate.routed_tokens", assignments as u64);
    tel.add_counter("gate.dropped_tokens", routing.dropped() as u64);
    tel.set_gauge("gate.capacity_factor", routing.capacity_factor);
    tel.set_gauge("gate.needed_factor", routing.needed_factor);
    tel.set_gauge("gate.survival_rate", routing.survival_rate());
    let routed: usize = routing.counts.iter().sum();
    tel.set_gauge("dispatch.routed_tokens", routed as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{route, RouteConfig};
    use tutel_tensor::Tensor;

    #[test]
    fn routing_statistics_land_in_telemetry() {
        let probs = Tensor::from_vec(
            vec![
                0.7, 0.1, 0.2, //
                0.2, 0.7, 0.1, //
                0.6, 0.3, 0.1, //
                0.1, 0.2, 0.7,
            ],
            &[4, 3],
        )
        .unwrap()
        .softmax_last();
        let routing = route(&probs, &RouteConfig::top1().with_capacity_factor(4.0)).unwrap();
        let tel = Telemetry::enabled();
        observe_routing(&routing, &tel);
        assert_eq!(tel.counter_value("gate.routed_tokens"), Some(4));
        assert_eq!(
            tel.counter_value("gate.dropped_tokens"),
            Some(routing.dropped() as u64)
        );
        assert_eq!(
            tel.gauge_value("gate.capacity_factor"),
            Some(routing.capacity_factor)
        );
        let hist = tel
            .histogram("gate.expert_load")
            .expect("histogram registered");
        assert_eq!(hist.total_count(), routing.counts.len() as u64);
        assert_eq!(
            tel.gauge_value("dispatch.routed_tokens"),
            Some(routing.counts.iter().sum::<usize>() as f64)
        );
    }

    #[test]
    fn drop_counters_share_one_unit_at_top2() {
        // Every token picks both experts; capacity ⌈2 · 0.75 · 4 / 2⌉ = 3
        // per expert, so token 3 loses both of its selections.
        let probs =
            Tensor::from_vec(vec![0.6, 0.4, 0.7, 0.3, 0.2, 0.8, 0.5, 0.5], &[4, 2]).unwrap();
        let routing = route(&probs, &RouteConfig::top2().with_capacity_factor(0.75)).unwrap();
        assert_eq!(
            (routing.location(3, 0), routing.location(3, 1)),
            (None, None)
        );
        let tel = Telemetry::enabled();
        observe_routing(&routing, &tel);
        let routed = tel.counter_value("gate.routed_tokens").unwrap();
        let dropped = tel.counter_value("gate.dropped_tokens").unwrap();
        assert_eq!((routed, dropped), (8, 2));
        assert_eq!(
            dropped as f64 / routed as f64,
            1.0 - routing.survival_rate()
        );
    }

    #[test]
    fn disabled_telemetry_records_nothing() {
        let probs = Tensor::from_vec(vec![0.9, 0.1, 0.1, 0.9], &[2, 2])
            .unwrap()
            .softmax_last();
        let routing = route(&probs, &RouteConfig::top1()).unwrap();
        let tel = Telemetry::disabled();
        observe_routing(&routing, &tel);
        assert_eq!(tel.counter_value("gate.routed_tokens"), None);
    }
}
