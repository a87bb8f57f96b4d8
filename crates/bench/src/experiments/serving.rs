//! Serving throughput experiment: continuous batching vs
//! one-request-at-a-time execution over seeded open-loop traces.
//!
//! Every load level replays the *same* seeded trace through two
//! engines that differ only in the batcher — continuous (eight slots,
//! fill-or-timeout admission) against [`BatcherConfig::serial`] — and
//! records the latency distribution, deadline misses, and goodput
//! (deadline-meeting token rows per virtual second). Time is the
//! engine's virtual clock, so every number in `BENCH_serve.json` is a
//! pure function of the seed: the deterministic digest printed at the
//! end must not move across `TUTEL_THREADS` settings (the CI gate
//! compares it at 1 and 4 worker threads).
//!
//! The acceptance criterion is the paper's continuous-batching
//! argument made executable: the per-step floor
//! (dispatch/combine launch overhead) is paid once per micro-batch,
//! so co-scheduling requests amortizes it and goodput must win at
//! **every** offered load level, from near-saturation to overload.

use tutel_obs::json::Value;
use tutel_obs::Telemetry;
use tutel_serve::batcher::BatcherConfig;
use tutel_serve::engine::{run_trace, EngineConfig, ServeReport, ServiceModel};
use tutel_serve::loadgen::{generate_trace, Arrival, TraceConfig};
use tutel_serve::model::{ModelDims, ServeModel};
use tutel_serve::request::ServeError;
use tutel_serve::ExecConfig;

use crate::report::fmt_time;
use crate::Table;

/// Trace seed; the entire experiment is a function of this value.
pub const SEED: u64 = 0x5E41;

/// Requests per load level.
pub const REQUESTS: usize = 48;

/// Per-request deadline budget (virtual µs).
pub const DEADLINE_US: u64 = 15_000;

/// One offered-load level of the sweep.
#[derive(Debug, Clone, Copy)]
pub struct LoadLevel {
    /// Row label, e.g. `poisson@8k`.
    pub label: &'static str,
    /// Arrival process replayed at this level.
    pub arrivals: Arrival,
}

/// The sweep: Poisson from near serial saturation to deep overload,
/// plus the bursty and diurnal adversaries from the load generator.
pub const LEVELS: [LoadLevel; 5] = [
    LoadLevel {
        label: "poisson@4k",
        arrivals: Arrival::OpenPoisson {
            rate_per_s: 4_000.0,
        },
    },
    LoadLevel {
        label: "poisson@8k",
        arrivals: Arrival::OpenPoisson {
            rate_per_s: 8_000.0,
        },
    },
    LoadLevel {
        label: "poisson@16k",
        arrivals: Arrival::OpenPoisson {
            rate_per_s: 16_000.0,
        },
    },
    LoadLevel {
        label: "bursty8",
        arrivals: Arrival::Bursty {
            burst: 8,
            idle_us: 1_500,
        },
    },
    LoadLevel {
        label: "diurnal",
        arrivals: Arrival::Diurnal {
            trough_per_s: 2_000.0,
            peak_per_s: 16_000.0,
            period_us: 8_000,
        },
    },
];

/// The scheduling-relevant slice of a [`ServeReport`].
#[derive(Debug, Clone, Copy)]
pub struct ServeSummary {
    /// Median end-to-end latency, virtual µs.
    pub p50_us: u64,
    /// 99th-percentile latency, virtual µs.
    pub p99_us: u64,
    /// Deadline-meeting token rows per virtual second.
    pub goodput_tps: f64,
    /// Completed requests that missed their deadline.
    pub misses: u64,
    /// Micro-batch steps executed.
    pub steps: u64,
    /// Total All-to-All payload elements.
    pub a2a_elems: u64,
}

impl ServeSummary {
    fn from_report(r: &ServeReport) -> ServeSummary {
        ServeSummary {
            p50_us: r.p50_us,
            p99_us: r.p99_us,
            goodput_tps: r.goodput_tps,
            misses: r.deadline_misses,
            steps: r.steps,
            a2a_elems: r.a2a_elems,
        }
    }
}

/// Both engines' summaries for one load level.
#[derive(Debug, Clone)]
pub struct LoadResult {
    /// The level replayed.
    pub level: LoadLevel,
    /// Continuous batcher (eight slots, 100 µs patience).
    pub continuous: ServeSummary,
    /// One request-token per step.
    pub serial: ServeSummary,
}

impl LoadResult {
    /// The acceptance criterion at this level.
    pub fn continuous_beats_serial(&self) -> bool {
        self.continuous.goodput_tps > self.serial.goodput_tps
    }
}

/// Both engines run the same distributed step: P1 over two threaded
/// ranks with a degree-2 pipeline, `threads` compute workers per rank.
fn engine_config(batcher: BatcherConfig, threads: usize) -> EngineConfig {
    EngineConfig {
        batcher,
        service: ServiceModel {
            step_floor_us: 100,
            per_token_us: 10,
        },
        queue_capacity: REQUESTS * 2,
        exec: ExecConfig {
            strategy: tutel_experts::Parallelism::P1,
            algo: tutel_comm::AllToAllAlgo::Linear,
            degree: 2,
            world: 2,
            threads,
            dropless: true,
        },
    }
}

fn continuous_batcher() -> BatcherConfig {
    BatcherConfig {
        max_batch_tokens: 8,
        max_inflight: 8,
        admit_timeout_us: 100,
    }
}

/// Runs one level through both engines on the same seeded trace.
///
/// # Errors
///
/// Propagates engine failures.
pub fn run_level(
    model: &ServeModel,
    level: &LoadLevel,
    threads: usize,
    tel: &Telemetry,
) -> Result<LoadResult, ServeError> {
    let trace = TraceConfig {
        arrivals: level.arrivals,
        requests: REQUESTS,
        tokens_min: 1,
        tokens_max: 4,
        deadline_us: DEADLINE_US,
        model_dim: model.dims.model_dim,
        seed: SEED,
    };
    let continuous = run_trace(
        model,
        &engine_config(continuous_batcher(), threads),
        generate_trace(&trace, 0),
        tel,
    )?;
    let serial = run_trace(
        model,
        &engine_config(BatcherConfig::serial(), threads),
        generate_trace(&trace, 0),
        tel,
    )?;
    Ok(LoadResult {
        level: *level,
        continuous: ServeSummary::from_report(&continuous),
        serial: ServeSummary::from_report(&serial),
    })
}

/// Runs the full sweep at one thread setting.
///
/// # Errors
///
/// Propagates engine failures.
pub fn sweep(threads: usize, tel: &Telemetry) -> Result<Vec<LoadResult>, ServeError> {
    let model = ServeModel::materialize(ModelDims::small(2), SEED)?;
    LEVELS
        .iter()
        .map(|level| run_level(&model, level, threads, tel))
        .collect()
}

/// Renders the sweep as a printable table.
pub fn sweep_table(results: &[LoadResult]) -> Table {
    let mut t = Table::new(
        "Serving: continuous batching vs one-request-at-a-time",
        &[
            "load",
            "engine",
            "p50",
            "p99",
            "misses",
            "steps",
            "goodput t/s",
            "verdict",
        ],
    );
    for r in results {
        for (name, s) in [("continuous", &r.continuous), ("serial", &r.serial)] {
            t.row(&[
                r.level.label.to_string(),
                name.to_string(),
                fmt_time(s.p50_us as f64 * 1e-6),
                fmt_time(s.p99_us as f64 * 1e-6),
                s.misses.to_string(),
                s.steps.to_string(),
                format!("{:.0}", s.goodput_tps),
                if name == "continuous" {
                    if r.continuous_beats_serial() {
                        "beats serial".to_string()
                    } else {
                        "DOES NOT BEAT".to_string()
                    }
                } else {
                    String::new()
                },
            ]);
        }
    }
    t
}

fn summary_value(s: &ServeSummary) -> Value {
    Value::obj([
        ("p50_us", Value::from(s.p50_us)),
        ("p99_us", Value::from(s.p99_us)),
        ("goodput_tps", Value::from(s.goodput_tps)),
        ("deadline_misses", Value::from(s.misses)),
        ("steps", Value::from(s.steps)),
        ("a2a_elems", Value::from(s.a2a_elems)),
    ])
}

/// The `BENCH_serve.json` body. Everything inside is virtual-time
/// data, so the serialization is bit-stable across hosts and thread
/// counts.
pub fn sweep_json(results: &[LoadResult], threads: usize) -> Value {
    let rows: Vec<Value> = results
        .iter()
        .map(|r| {
            Value::obj([
                ("load", Value::from(r.level.label)),
                ("requests", Value::from(REQUESTS)),
                ("continuous", summary_value(&r.continuous)),
                ("serial", summary_value(&r.serial)),
                (
                    "goodput_ratio",
                    Value::from(r.continuous.goodput_tps / r.serial.goodput_tps.max(1e-9)),
                ),
                (
                    "continuous_beats_serial",
                    Value::Bool(r.continuous_beats_serial()),
                ),
            ])
        })
        .collect();
    Value::obj([
        ("bench", Value::from("serve")),
        ("seed", Value::from(SEED)),
        ("threads", Value::from(threads)),
        ("deadline_us", Value::from(DEADLINE_US)),
        ("levels", Value::Arr(rows)),
        (
            "continuous_beats_serial_everywhere",
            Value::Bool(results.iter().all(LoadResult::continuous_beats_serial)),
        ),
    ])
}

/// FNV-1a digest of the thread-independent slice of the JSON: the
/// record minus the `threads` stamp. CI runs the sweep at
/// `TUTEL_THREADS=1` and `4` and requires the digests to match —
/// worker count may change wall time, never a serving number.
pub fn digest(results: &[LoadResult]) -> u64 {
    let canon = sweep_json(results, 0).to_json();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in canon.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_across_thread_settings() {
        let tel = Telemetry::disabled();
        let a = sweep(1, &tel).unwrap();
        let b = sweep(2, &tel).unwrap();
        assert_eq!(digest(&a), digest(&b), "serving digest moved with threads");
    }

    #[test]
    fn continuous_beats_serial_at_every_level() {
        let tel = Telemetry::disabled();
        let results = sweep(1, &tel).unwrap();
        assert_eq!(results.len(), LEVELS.len());
        for r in &results {
            assert!(
                r.continuous_beats_serial(),
                "{}: continuous {:.0} <= serial {:.0}",
                r.level.label,
                r.continuous.goodput_tps,
                r.serial.goodput_tps
            );
        }
    }
}
