//! Seeded load generation: open arrival models, plus bursty and
//! diurnal traces.
//!
//! Nothing here reads a wall clock or an OS entropy source — every
//! arrival time and token count derives from a [`tutel_tensor::Rng`]
//! seed, so a trace replays bit-identically (the `test_determinism`
//! lint enforces the absence of ambient randomness). Each model
//! pre-computes the full arrival trace.

use tutel_tensor::Rng;

use crate::request::{Request, RequestId};

/// Arrival process of an open (trace-driven) workload.
#[derive(Debug, Clone, Copy)]
pub enum Arrival {
    /// Poisson process: exponential inter-arrival gaps at `rate`
    /// requests per virtual second.
    OpenPoisson {
        /// Offered load, requests per virtual second.
        rate_per_s: f64,
    },
    /// Fixed gap between consecutive arrivals.
    Uniform {
        /// Gap in virtual µs.
        gap_us: u64,
    },
    /// Bursts of `burst` back-to-back arrivals separated by idle
    /// gaps — the adversarial case for fill-or-timeout admission.
    Bursty {
        /// Requests per burst (arriving at the same instant).
        burst: usize,
        /// Idle gap between bursts, virtual µs.
        idle_us: u64,
    },
    /// A day-night cycle: a Poisson process whose rate swings
    /// sinusoidally between `trough_per_s` and `peak_per_s` over
    /// `period_us`.
    Diurnal {
        /// Off-peak rate, requests per virtual second.
        trough_per_s: f64,
        /// Peak rate, requests per virtual second.
        peak_per_s: f64,
        /// Cycle length in virtual µs.
        period_us: u64,
    },
}

/// Shape of one generated workload.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Arrival process.
    pub arrivals: Arrival,
    /// Requests to generate.
    pub requests: usize,
    /// Minimum token rows per request (≥ 1).
    pub tokens_min: usize,
    /// Maximum token rows per request (inclusive).
    pub tokens_max: usize,
    /// Per-request latency budget: deadline = arrival + this.
    pub deadline_us: u64,
    /// Token feature width (must match the served model).
    pub model_dim: usize,
    /// Seed for arrivals, token counts, and token features.
    pub seed: u64,
}

/// Exponential gap sample via inverse transform; `u` is clamped away
/// from 1 so the log stays finite.
fn exp_gap_us(rng: &mut Rng, rate_per_s: f64) -> u64 {
    let u = f64::from(rng.uniform()).min(0.999_999);
    let gap_s = -(1.0 - u).ln() / rate_per_s.max(1e-9);
    (gap_s * 1e6).round() as u64
}

/// Diurnal rate at virtual time `t`: sinusoid between trough and peak.
fn diurnal_rate(trough: f64, peak: f64, period_us: u64, t_us: u64) -> f64 {
    let phase = (t_us % period_us.max(1)) as f64 / period_us.max(1) as f64;
    let swing = 0.5 * (1.0 - (2.0 * std::f64::consts::PI * phase).cos());
    trough + (peak - trough) * swing
}

/// Generates the full arrival trace for an open workload. Requests
/// are numbered from `first_id` in arrival order.
pub fn generate_trace(cfg: &TraceConfig, first_id: RequestId) -> Vec<Request> {
    let mut rng = Rng::seed(cfg.seed);
    let span = cfg.tokens_max.max(cfg.tokens_min) - cfg.tokens_min.min(cfg.tokens_max) + 1;
    let lo = cfg.tokens_min.min(cfg.tokens_max).max(1);
    let mut clock_us: u64 = 0;
    let mut out = Vec::with_capacity(cfg.requests);
    for i in 0..cfg.requests {
        let gap = match cfg.arrivals {
            Arrival::OpenPoisson { rate_per_s } => exp_gap_us(&mut rng, rate_per_s),
            Arrival::Uniform { gap_us } => gap_us,
            Arrival::Bursty { burst, idle_us } => {
                if i == 0 || !i.is_multiple_of(burst.max(1)) {
                    0
                } else {
                    idle_us
                }
            }
            Arrival::Diurnal {
                trough_per_s,
                peak_per_s,
                period_us,
            } => {
                let rate = diurnal_rate(trough_per_s, peak_per_s, period_us, clock_us);
                exp_gap_us(&mut rng, rate)
            }
        };
        clock_us += gap;
        let tokens = lo + rng.below(span);
        out.push(Request {
            id: first_id + i as u64,
            tokens: rng.normal_tensor(&[tokens, cfg.model_dim], 0.0, 1.0),
            arrival_us: clock_us,
            deadline_us: clock_us + cfg.deadline_us,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base(arrivals: Arrival) -> TraceConfig {
        TraceConfig {
            arrivals,
            requests: 20,
            tokens_min: 1,
            tokens_max: 4,
            deadline_us: 10_000,
            model_dim: 8,
            seed: 17,
        }
    }

    #[test]
    fn traces_are_seed_deterministic() {
        for arrivals in [
            Arrival::OpenPoisson {
                rate_per_s: 5_000.0,
            },
            Arrival::Uniform { gap_us: 100 },
            Arrival::Bursty {
                burst: 4,
                idle_us: 500,
            },
            Arrival::Diurnal {
                trough_per_s: 500.0,
                peak_per_s: 8_000.0,
                period_us: 2_000,
            },
        ] {
            let a = generate_trace(&base(arrivals), 0);
            let b = generate_trace(&base(arrivals), 0);
            assert_eq!(a.len(), 20);
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.arrival_us, y.arrival_us);
                assert_eq!(x.tokens.as_slice(), y.tokens.as_slice());
            }
        }
    }

    #[test]
    fn arrivals_are_monotone_and_deadlines_offset() {
        let trace = generate_trace(
            &base(Arrival::OpenPoisson {
                rate_per_s: 1_000.0,
            }),
            5,
        );
        let mut prev = 0;
        for (i, r) in trace.iter().enumerate() {
            assert_eq!(r.id, 5 + i as u64);
            assert!(r.arrival_us >= prev);
            assert_eq!(r.deadline_us, r.arrival_us + 10_000);
            let n = r.tokens.dims()[0];
            assert!((1..=4).contains(&n));
            prev = r.arrival_us;
        }
    }

    #[test]
    fn bursts_share_an_instant() {
        let trace = generate_trace(
            &base(Arrival::Bursty {
                burst: 4,
                idle_us: 500,
            }),
            0,
        );
        assert_eq!(trace[0].arrival_us, trace[3].arrival_us);
        assert!(trace[4].arrival_us >= trace[3].arrival_us + 500);
    }
}
