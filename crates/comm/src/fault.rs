//! Seeded, replayable fault injection for the comm runtime.
//!
//! A [`FaultPlan`] is a *pure function* from a message identity
//! `(src, dst, tag)` to a [`FaultAction`]: the decision is a hash of
//! the plan's seed and the identity, never of wall-clock time or
//! delivery order. Replaying the same seed against the same program
//! therefore injects exactly the same faults — which is what lets the
//! conformance harness assert that a *specific* dropped or duplicated
//! delivery is recovered (or surfaced as a typed error)
//! deterministically.
//!
//! Two layers consume plans:
//!
//! * the channel-backed runtime (a [`crate::ReliableConfig`] with a
//!   plan, armed through [`crate::RankGroup::new`]) applies the action
//!   at *send* time: `Drop` withholds the first transmission
//!   (recoverable via the retry protocol), `Duplicate` transmits twice
//!   (exercising receiver dedupe), `Delay` holds the message back until
//!   the collective's acknowledgement phase (exercising late,
//!   out-of-order arrival);
//! * the deterministic scheduler (`sched::run_sched` with a plan, under
//!   `feature = "check-sched"`) applies the action at *delivery* time,
//!   where `Delay(k)` postpones a delivery by `k` scheduler steps.

/// What the fault layer does to one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Transmit normally.
    Deliver,
    /// Lose the first transmission (the retransmit path is exempt).
    Drop,
    /// Transmit two copies.
    Duplicate,
    /// Hold the message back: in the threaded runtime until the
    /// collective's ack phase, under the scheduler for this many
    /// delivery steps.
    Delay(u32),
}

/// SplitMix64 finalizer over the fault identity: the plan's whole
/// entropy source, so one seed names one complete fault pattern.
fn mix(seed: u64, src: usize, dst: usize, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add((src as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add((dst as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add(tag.wrapping_mul(0x94d0_49bb_1331_11eb));
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic fault schedule over point-to-point messages.
///
/// Percentages are applied per message identity; they need not sum to
/// 100 — the remainder delivers normally.
///
/// # Example
///
/// ```
/// use tutel_comm::fault::{FaultAction, FaultPlan};
///
/// let plan = FaultPlan::new(42).with_drops(100);
/// assert_eq!(plan.action(0, 1, 7), FaultAction::Drop);
/// // Replayable: the same seed always gives the same action.
/// let replay = FaultPlan::new(42).with_drops(100);
/// assert_eq!(plan.action(0, 1, 7), replay.action(0, 1, 7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    drop_pct: u8,
    dup_pct: u8,
    delay_pct: u8,
    delay_steps: u32,
    /// When set, only messages *sent by* this rank are faulted;
    /// everything else delivers normally.
    only_src: Option<usize>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults enabled.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            drop_pct: 0,
            dup_pct: 0,
            delay_pct: 0,
            delay_steps: 2,
            only_src: None,
        }
    }

    /// The seed that replays this plan.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Drops `pct`% of messages (clamped to 100).
    pub fn with_drops(mut self, pct: u8) -> Self {
        self.drop_pct = pct.min(100);
        self
    }

    /// Duplicates `pct`% of messages (clamped to 100).
    pub fn with_duplicates(mut self, pct: u8) -> Self {
        self.dup_pct = pct.min(100);
        self
    }

    /// Delays `pct`% of messages (clamped to 100) by `steps` scheduler
    /// steps (the threaded runtime ignores the magnitude and holds the
    /// message until the ack phase).
    pub fn with_delays(mut self, pct: u8, steps: u32) -> Self {
        self.delay_pct = pct.min(100);
        self.delay_steps = steps;
        self
    }

    /// Restricts the plan to messages *sent by* `rank`: every other
    /// source delivers normally. This is how a single-rank fault
    /// scenario is staged (e.g. "rank 1 is slow") so the trace
    /// analyzer's attribution can be checked against a known culprit.
    pub fn only_from(mut self, rank: usize) -> Self {
        self.only_src = Some(rank);
        self
    }

    /// True when no fault class is enabled.
    pub fn is_noop(&self) -> bool {
        self.drop_pct == 0 && self.dup_pct == 0 && self.delay_pct == 0
    }

    /// The action for one message identity — a pure function of
    /// `(seed, src, dst, tag)` (and the source filter, if any).
    pub fn action(&self, src: usize, dst: usize, tag: u64) -> FaultAction {
        if self.is_noop() {
            return FaultAction::Deliver;
        }
        if let Some(only) = self.only_src {
            if src != only {
                return FaultAction::Deliver;
            }
        }
        let roll = (mix(self.seed, src, dst, tag) % 100) as u8;
        let drop_end = self.drop_pct;
        let dup_end = drop_end.saturating_add(self.dup_pct);
        let delay_end = dup_end.saturating_add(self.delay_pct);
        if roll < drop_end {
            FaultAction::Drop
        } else if roll < dup_end {
            FaultAction::Duplicate
        } else if roll < delay_end {
            FaultAction::Delay(self.delay_steps)
        } else {
            FaultAction::Deliver
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_plan_always_delivers() {
        let plan = FaultPlan::new(7);
        for tag in 0..100 {
            assert_eq!(plan.action(0, 1, tag), FaultAction::Deliver);
        }
    }

    #[test]
    fn actions_are_deterministic_per_identity() {
        let plan = FaultPlan::new(11).with_drops(30).with_duplicates(30);
        for src in 0..4 {
            for dst in 0..4 {
                for tag in 0..16 {
                    assert_eq!(
                        plan.action(src, dst, tag),
                        plan.action(src, dst, tag),
                        "({src},{dst},{tag})"
                    );
                }
            }
        }
    }

    #[test]
    fn rates_roughly_match_percentages() {
        let plan = FaultPlan::new(3).with_drops(25).with_delays(25, 1);
        let mut drops = 0;
        let mut delays = 0;
        let total = 4000;
        for tag in 0..total {
            match plan.action(0, 1, tag) {
                FaultAction::Drop => drops += 1,
                FaultAction::Delay(_) => delays += 1,
                _ => {}
            }
        }
        let quarter = total as i64 / 4;
        assert!((drops - quarter).abs() < quarter / 2, "drops {drops}");
        assert!((delays - quarter).abs() < quarter / 2, "delays {delays}");
    }

    #[test]
    fn only_from_faults_one_source_rank() {
        let plan = FaultPlan::new(9).with_delays(100, 1).only_from(1);
        for dst in 0..4 {
            for tag in 0..16 {
                assert_eq!(plan.action(1, dst, tag), FaultAction::Delay(1));
                assert_eq!(plan.action(0, dst, tag), FaultAction::Deliver);
                assert_eq!(plan.action(2, dst, tag), FaultAction::Deliver);
            }
        }
    }

    #[test]
    fn different_seeds_give_different_patterns() {
        let a = FaultPlan::new(1).with_drops(50);
        let b = FaultPlan::new(2).with_drops(50);
        let differs = (0..64).any(|tag| a.action(0, 1, tag) != b.action(0, 1, tag));
        assert!(differs, "seeds 1 and 2 injected identical fault patterns");
    }
}
