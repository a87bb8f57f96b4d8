//! The metric catalog: every name the benchmark prints, with its unit,
//! direction, and (end to end) the share by which it may worsen before
//! a change counts as a regression. `BENCHMARK.json` and `README.md`
//! repeat this table; a test holds `BENCHMARK.json` to it.

/// A metric a user of the system would see; gated.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    pub bound: f64,
}

/// A metric of one layer; reported, never gated.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

pub const END_TO_END: &[EndToEnd] = &[
    e2e("tokens_per_s", "tok/s", true, 0.25),
    e2e("step_p50_ms", "ms", false, 0.25),
    e2e("req_p50_ms", "ms", false, 0.25),
    e2e("req_p90_ms", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.15),
    e2e("setup_s", "s", false, 0.25),
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

const fn up(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: true,
    }
}

const fn down(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        higher_is_better: false,
    }
}

/// Layer metrics in layer order. A metric a workload does not exercise
/// (`core.*` on a serve workload, `serve.*` and `comm.*` on a train
/// workload) is reported as 0 there.
pub const PER_LAYER: &[PerLayer] = &[
    up("tensor.gemm_gflops", "GFLOP/s"),
    up("tensor.grouped_gemm_gflops", "GFLOP/s"),
    down("tensor.softmax_ms", "ms"),
    up("rt.arena_hit_rate", "ratio"),
    down("rt.arena_misses_per_step", "count"),
    down("rt.pool_jobs_per_step", "count"),
    up("rt.pool_worker_share", "ratio"),
    down("gate.logits_ms", "ms"),
    down("gate.route_ms", "ms"),
    down("gate.step_share", "ratio"),
    down("gate.load_max_over_mean", "ratio"),
    down("gate.dropped_share", "ratio"),
    up("gate.routed_rows_per_step", "count"),
    down("kernels.encode_ms", "ms"),
    down("kernels.decode_ms", "ms"),
    down("kernels.encode_bwd_ms", "ms"),
    down("kernels.decode_bwd_ms", "ms"),
    up("kernels.encode_gbps", "GB/s"),
    down("experts.ffn_fwd_ms", "ms"),
    down("experts.ffn_bwd_ms", "ms"),
    down("experts.ffn_infer_ms", "ms"),
    up("experts.ffn_gflops", "GFLOP/s"),
    up("experts.ffn_over_gemm", "ratio"),
    down("experts.step_share", "ratio"),
    up("experts.useful_rows_share", "ratio"),
    down("experts.rank_block_build_ms", "ms"),
    down("comm.spawn_join_ms", "ms"),
    down("comm.a2a_v_ms", "ms"),
    down("comm.a2a_elems_per_step", "count"),
    down("core.fwd_ms", "ms"),
    down("core.bwd_ms", "ms"),
    down("core.opt_ms", "ms"),
    down("core.fwd_unattributed_share", "ratio"),
    down("core.bwd_unattributed_share", "ratio"),
    down("serve.exec_step_ms", "ms"),
    down("serve.engine_glue_ms", "ms"),
    down("serve.exec_unattributed_share", "ratio"),
    down("serve.batcher_plan_us", "us"),
    down("serve.queue_push_drain_us", "us"),
    down("serve.pump_p99_ms", "ms"),
    down("serve.req_p99_ms", "ms"),
    down("serve.steps", "count"),
    up("serve.mean_occupancy", "count"),
    up("serve.slot_fill_share", "ratio"),
    down("serve.rejected", "count"),
    up("serve.virtual_goodput_tps", "tok/s"),
    down("obs.telemetry_enabled_overhead_pct", "%"),
    down("bench.trace_overhead_pct", "%"),
    down("bench.loadgen_share", "ratio"),
    down("bench.step_p99_ms", "ms"),
];

/// Layer metrics that are counts of the seeded inputs, not timings: two
/// runs of one build on one seed must print them identically.
pub const EXACT_COUNTS: &[&str] = &[
    "gate.load_max_over_mean",
    "gate.dropped_share",
    "gate.routed_rows_per_step",
    "experts.useful_rows_share",
    "comm.a2a_elems_per_step",
    "serve.steps",
    "serve.mean_occupancy",
    "serve.slot_fill_share",
    "serve.rejected",
    "serve.virtual_goodput_tps",
];

/// One measured value under a catalog name.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// `higher` or `lower`, as `BENCHMARK.json` spells a direction.
pub fn better(higher_is_better: bool) -> &'static str {
    if higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The value measured under `name` with the catalog's `unit`; a name the
/// run did not measure, or a ratio whose base was 0, reads 0.
fn measured(name: &'static str, unit: &'static str, values: &[(&'static str, f64)]) -> Metric {
    let value = values
        .iter()
        .find(|(n, v)| *n == name && v.is_finite())
        .map_or(0.0, |&(_, v)| v);
    Metric { name, value, unit }
}

/// Pairs `values` with the catalog's units, in catalog order.
pub fn per_layer_metrics(values: &[(&'static str, f64)]) -> Vec<Metric> {
    PER_LAYER
        .iter()
        .map(|m| measured(m.name, m.unit, values))
        .collect()
}

/// As [`per_layer_metrics`], for the end-to-end table.
pub fn end_to_end_metrics(values: &[(&'static str, f64)]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|m| measured(m.name, m.unit, values))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::Json;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
        names.extend(PER_LAYER.iter().map(|m| m.name));
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a metric name is used twice");
        assert!(names.iter().all(|n| n.len() <= 64));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(PER_LAYER.len() <= 128);
        for count in EXACT_COUNTS {
            assert!(PER_LAYER.iter().any(|m| m.name == *count), "{count}");
        }
    }

    #[test]
    fn benchmark_json_repeats_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (j, m) in e2e.iter().zip(END_TO_END) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better(m.higher_is_better))
            );
            assert_eq!(j.get("bound").and_then(Json::as_f64), Some(m.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (j, m) in layers.iter().zip(PER_LAYER) {
            assert_eq!(j.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(j.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                j.get("better").and_then(Json::as_str),
                Some(better(m.higher_is_better))
            );
        }
        let workloads = doc.get("workloads").and_then(Json::as_arr).unwrap();
        let names: Vec<&str> = workloads
            .iter()
            .filter_map(|w| w.get("name").and_then(Json::as_str))
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }
}
