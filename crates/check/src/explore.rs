//! The shared schedule-exploration framework, re-exported from
//! `tutel-explore`, plus its bridge into the telemetry audit ring.
//!
//! Both dynamic checkers run on it: [`crate::sweep`] (the comm
//! scheduler sweep; `comm::sched` itself draws its choices and folds
//! its signatures through the same [`Chooser`] / [`SigHash`]) and
//! [`crate::race`] (the happens-before race checker). The contract:
//! one `u64` seed names one schedule, candidates are canonically
//! ordered before each draw, every defect is a [`Finding`] carrying
//! its replay seed, and per-seed structure signatures assert the
//! determinism contract structurally.
//!
//! Bridge: [`finding_to_anomaly`] types a finding as a `tutel-obs`
//! [`AnomalyRecord`], so harness scenarios land checker findings in
//! the same audit ring as stragglers and imbalance.

use tutel_obs::AnomalyRecord;

pub use tutel_explore::{
    derive_seed, splitmix64, sweep_seeds, Chooser, Finding, SeedRun, SigHash, SweepOutcome, VClock,
    FNV_OFFSET, FNV_PRIME,
};

/// Types a finding as an [`AnomalyRecord`] for the telemetry audit
/// ring: kind `check.<rule>`, the replay seed stamped as the step.
pub fn finding_to_anomaly(f: &Finding) -> AnomalyRecord {
    let detail = if f.sites.is_empty() {
        f.detail.clone()
    } else {
        format!("{} [sites: {}]", f.detail, f.sites.join(", "))
    };
    AnomalyRecord {
        kind: format!("check.{}", f.rule),
        rank: None,
        request_id: None,
        ratio: 1.0,
        detail,
        step: Some(f.seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anomaly_carries_rule_kind_and_replay_seed() {
        let f = Finding::new("race", 11, "double claim".to_string());
        let a = finding_to_anomaly(&f);
        assert_eq!(a.kind, "check.race");
        assert_eq!(a.step, Some(11));
    }
}
