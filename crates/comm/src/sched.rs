//! Deterministic adversarial scheduler for the threaded runtime
//! (compiled under `feature = "check-sched"` only).
//!
//! `tutel-check` uses this module to model-check the collectives in
//! [`crate::runtime`]: instead of crossbeam channels, every rank talks
//! through a shared [`SchedNet`] that *buffers* all sends and only
//! releases a message when the whole world has quiesced (every live
//! rank blocked in `recv`). At each quiescent point the scheduler
//! picks *which* pending message to deliver next from a
//! seeded PRNG, so one `u64` seed names one complete interleaving —
//! including arbitrarily delayed and reordered arrivals across tags —
//! and replaying the seed replays the schedule bit-for-bit.
//!
//! Detected failure classes:
//!
//! * **deadlock** — the world quiesced with no deliverable message;
//!   every blocked rank gets [`CommError::Deadlock`] carrying the seed.
//!   A watchdog backstops the quiescence accounting itself.
//! * **tag-collision mixing** — the harness compares results against
//!   the sequential references; reordered same-tag messages surface
//!   as value corruption under some seed.
//! * **mailbox leaks** — messages still parked in a rank's mailbox
//!   (or undelivered in the net) when its program returns.
//!
//! Determinism argument: deliveries happen only at quiescent points,
//! candidates are sorted by a canonical `(src, dst, tag, seq)` key
//! (never by racy insertion order), and the PRNG is consumed exactly
//! once per delivery — so the choice sequence, and therefore the whole
//! execution, is a function of `(topology, program, seed)` alone.
//!
//! The seeded choice point ([`Chooser`]) and the FNV schedule
//! signature ([`SigHash`]) come from the shared `check::explore`
//! framework (`tutel-explore`), which `check::race` uses identically
//! for steal-order exploration — one seed convention, one replay
//! story, one signature format across both checkers. The chooser is
//! bit-compatible with this module's pre-framework PRNG, so all
//! historical schedule signatures are preserved.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use tutel_explore::{Chooser, SigHash};

use crate::error::CommError;
use crate::fault::{FaultAction, FaultPlan};
use crate::group::RankGroup;
use crate::runtime::Communicator;
use crate::Topology;

/// How long a blocked rank waits before re-auditing the quiescence
/// accounting. Only reached if the bookkeeping itself is buggy; the
/// normal deadlock path is detected synchronously.
const WATCHDOG: Duration = Duration::from_secs(5);

/// A buffered (not yet delivered) point-to-point message.
struct Pending {
    src: usize,
    dst: usize,
    tag: u64,
    /// Per-(src, dst) send sequence number: the canonical tiebreaker.
    seq: u64,
    payload: Vec<f32>,
    /// Earliest delivery count at which this message is eligible
    /// (set by an injected [`FaultAction::Delay`]).
    not_before: u64,
    /// Already processed by the fault layer (a duplicated or delayed
    /// copy): exempt from further injection.
    faulted: bool,
}

/// What a rank is doing right now, as far as the scheduler knows.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Wait {
    /// Executing its program between runtime calls.
    Running,
    /// Blocked inside `recv` with an empty inbox.
    Recv,
    /// Program returned.
    Done,
}

struct SchedState {
    rng: Chooser,
    pending: Vec<Pending>,
    /// Delivered messages awaiting consumption: `(src, tag, payload)`.
    inboxes: Vec<VecDeque<(usize, u64, Vec<f32>)>>,
    waiting: Vec<Wait>,
    /// `send_seq[src][dst]`: next per-pair sequence number.
    send_seq: Vec<Vec<u64>>,
    signature: SigHash,
    deliveries: u64,
    deadlock: Option<String>,
    injected_drops: u64,
    injected_dups: u64,
    injected_delays: u64,
}

impl SchedState {
    /// True when every live rank is blocked and no delivered message
    /// is waiting to wake a receiver: the scheduler's turn to act.
    fn quiescent(&self) -> bool {
        self.waiting.iter().enumerate().all(|(r, w)| match w {
            Wait::Running => false,
            Wait::Recv => self.inboxes[r].is_empty(),
            Wait::Done => true,
        })
    }

    fn wait_summary(&self) -> String {
        let mut parts = Vec::new();
        for (r, w) in self.waiting.iter().enumerate() {
            let s = match w {
                Wait::Running => continue,
                Wait::Recv => format!("rank {r} blocked in recv"),
                Wait::Done => format!("rank {r} done"),
            };
            parts.push(s);
        }
        parts.push(format!("{} message(s) pending", self.pending.len()));
        parts.join("; ")
    }
}

/// The shared scheduler: one per checked run, shared by every rank's
/// [`Communicator`].
pub struct SchedNet {
    seed: u64,
    /// Delivery-time fault injection, if armed (see [`run_sched`]).
    plan: Option<FaultPlan>,
    state: Mutex<SchedState>,
    cv: Condvar,
}

impl SchedNet {
    fn new(world: usize, seed: u64, plan: Option<FaultPlan>) -> Self {
        SchedNet {
            seed,
            plan,
            state: Mutex::new(SchedState {
                rng: Chooser::new(seed),
                pending: Vec::new(),
                inboxes: vec![VecDeque::new(); world],
                waiting: vec![Wait::Running; world],
                send_seq: vec![vec![0; world]; world],
                signature: SigHash::new(),
                deliveries: 0,
                deadlock: None,
                injected_drops: 0,
                injected_dups: 0,
                injected_delays: 0,
            }),
            cv: Condvar::new(),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SchedState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Runs the scheduler while the world is quiescent: delivers
    /// seeded-chosen pending messages until some receiver becomes
    /// runnable (or declares deadlock).
    fn try_schedule(&self, st: &mut SchedState) {
        while st.deadlock.is_none() && st.quiescent() {
            if st.waiting.iter().all(|&w| w == Wait::Done) {
                return;
            }
            // At least one rank is blocked in recv. Deliverable = any
            // pending message whose destination has not finished,
            // ordered by the canonical key so the choice is a pure
            // function of (state, rng) — never of insertion order.
            let mut candidates: Vec<usize> = (0..st.pending.len())
                .filter(|&i| st.waiting[st.pending[i].dst] != Wait::Done)
                .collect();
            if candidates.is_empty() {
                st.deadlock = Some(st.wait_summary());
                self.cv.notify_all();
                return;
            }
            // Injected delays make a message ineligible until the
            // delivery count passes `not_before` — unless *every*
            // candidate is held back, in which case all become
            // eligible again (delays must postpone, never wedge).
            let eligible: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&i| st.pending[i].not_before <= st.deliveries)
                .collect();
            if !eligible.is_empty() {
                candidates = eligible;
            }
            candidates.sort_by_key(|&i| {
                let p = &st.pending[i];
                (p.src, p.dst, p.tag, p.seq)
            });
            let pick = candidates[st.rng.choose(candidates.len())];
            let msg = st.pending.remove(pick);
            if !msg.faulted {
                if let Some(plan) = &self.plan {
                    match plan.action(msg.src, msg.dst, msg.tag) {
                        FaultAction::Deliver => {}
                        FaultAction::Drop => {
                            // Lost forever: the receiver's recv now
                            // either drains another message or ends in
                            // a detected (replayable) deadlock.
                            st.injected_drops += 1;
                            continue;
                        }
                        FaultAction::Duplicate => {
                            st.injected_dups += 1;
                            st.pending.push(Pending {
                                src: msg.src,
                                dst: msg.dst,
                                tag: msg.tag,
                                seq: msg.seq,
                                payload: msg.payload.clone(),
                                not_before: 0,
                                faulted: true,
                            });
                        }
                        FaultAction::Delay(k) => {
                            st.injected_delays += 1;
                            st.pending.push(Pending {
                                not_before: st.deliveries + u64::from(k.max(1)),
                                faulted: true,
                                ..msg
                            });
                            continue;
                        }
                    }
                }
            }
            st.signature
                .mix_many(&[msg.src as u64, msg.dst as u64, msg.tag, msg.seq]);
            st.deliveries += 1;
            // Every live rank is blocked in recv, so this wakes one:
            // quiescent() is false until it drains its inbox.
            st.inboxes[msg.dst].push_back((msg.src, msg.tag, msg.payload));
            self.cv.notify_all();
            return;
        }
    }

    fn deadlock_err(&self, st: &SchedState) -> CommError {
        CommError::Deadlock {
            seed: self.seed,
            detail: st
                .deadlock
                .clone()
                .unwrap_or_else(|| "scheduler poisoned".to_string()),
        }
    }

    /// Buffers a send; delivery happens at a later quiescent point.
    pub(crate) fn send(
        &self,
        src: usize,
        dst: usize,
        tag: u64,
        payload: Vec<f32>,
    ) -> Result<(), CommError> {
        let mut st = self.lock();
        if st.deadlock.is_some() {
            return Err(self.deadlock_err(&st));
        }
        let seq = st.send_seq[src][dst];
        st.send_seq[src][dst] += 1;
        st.pending.push(Pending {
            src,
            dst,
            tag,
            seq,
            payload,
            not_before: 0,
            faulted: false,
        });
        Ok(())
    }

    /// Blocks until the scheduler delivers a message to `rank`.
    pub(crate) fn recv(&self, rank: usize) -> Result<(usize, u64, Vec<f32>), CommError> {
        let mut st = self.lock();
        loop {
            if let Some(msg) = st.inboxes[rank].pop_front() {
                st.waiting[rank] = Wait::Running;
                return Ok(msg);
            }
            if st.deadlock.is_some() {
                return Err(self.deadlock_err(&st));
            }
            st.waiting[rank] = Wait::Recv;
            self.try_schedule(&mut st);
            if st.deadlock.is_some() {
                return Err(self.deadlock_err(&st));
            }
            if !st.inboxes[rank].is_empty() {
                continue;
            }
            let (guard, timeout) = match self.cv.wait_timeout(st, WATCHDOG) {
                Ok(pair) => pair,
                Err(poisoned) => {
                    let (g, t) = poisoned.into_inner();
                    (g, t)
                }
            };
            st = guard;
            if timeout.timed_out() && st.inboxes[rank].is_empty() && st.deadlock.is_none() {
                st.deadlock = Some(format!(
                    "watchdog fired after {WATCHDOG:?} with no progress ({})",
                    st.wait_summary()
                ));
                self.cv.notify_all();
                return Err(self.deadlock_err(&st));
            }
        }
    }

    /// Marks `rank`'s program as returned and re-runs the scheduler:
    /// the remaining ranks may now be quiescent (or deadlocked).
    pub(crate) fn mark_done(&self, rank: usize) {
        let mut st = self.lock();
        st.waiting[rank] = Wait::Done;
        self.try_schedule(&mut st);
        self.cv.notify_all();
    }
}

/// Everything the checker needs to judge (and replay) one schedule.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// The seed that reproduces this exact interleaving.
    pub seed: u64,
    /// Order-sensitive fingerprint of the delivery choices: two runs
    /// with equal signatures executed the same schedule.
    pub signature: u64,
    /// Total messages delivered.
    pub deliveries: u64,
    /// Deadlock diagnostic, if the schedule wedged.
    pub deadlock: Option<String>,
    /// Messages still buffered in the net at the end of the run.
    pub undelivered: usize,
    /// `(rank, parked_messages)` for every rank whose mailbox was
    /// non-empty when its program returned.
    pub mailbox_leaks: Vec<(usize, usize)>,
    /// Deliveries discarded by the armed [`FaultPlan`].
    pub injected_drops: u64,
    /// Deliveries doubled by the armed [`FaultPlan`].
    pub injected_dups: u64,
    /// Deliveries postponed by the armed [`FaultPlan`].
    pub injected_delays: u64,
}

impl SchedReport {
    /// True when the schedule completed with no detected defect.
    pub fn clean(&self) -> bool {
        self.deadlock.is_none() && self.undelivered == 0 && self.mailbox_leaks.is_empty()
    }
}

/// Runs `program` on every rank under the deterministic scheduler
/// with the given `seed`; returns per-rank results plus the
/// [`SchedReport`] describing the schedule that was executed. The
/// ranks run on a one-shot [`RankGroup`] over scheduler-backed
/// communicators.
///
/// `plan` arms delivery-time fault injection: at each scheduling point
/// the picked message is dropped, duplicated, or postponed per
/// `plan.action(src, dst, tag)`. The combination `(topology, program,
/// seed, plan)` replays bit-for-bit, so a seed that wedges a collective
/// (drop → detected deadlock) or corrupts a mailbox (duplicate →
/// reported leak) names a reproducible failure.
///
/// Unlike [`crate::runtime::run_threaded`], the program receives
/// `&mut Communicator` so the harness can audit the mailbox after the
/// program returns. Rank programs should surface [`CommError`]s in
/// their return value (e.g. return `Result`) rather than panicking.
pub fn run_sched<F, R>(
    topology: Topology,
    seed: u64,
    plan: Option<FaultPlan>,
    program: F,
) -> (Vec<R>, SchedReport)
where
    F: Fn(&mut Communicator) -> R + Send + Sync,
    R: Send,
{
    let n = topology.world_size();
    let net = Arc::new(SchedNet::new(n, seed, plan));
    let comms = (0..n)
        .map(|rank| Communicator::with_sched(rank, topology, Arc::clone(&net)))
        .collect();
    let (results, leaks): (Vec<R>, Vec<(usize, usize)>) = RankGroup::from_comms(comms)
        .run_once(|mut comm| {
            let rank = comm.rank();
            let out = program(&mut comm);
            let parked = comm.parked_messages();
            // The leak is reported through SchedReport; clear so the
            // mailbox Drop audit doesn't re-panic about it.
            comm.clear_mailbox();
            net.mark_done(rank);
            (out, (rank, parked))
        })
        .into_iter()
        .unzip();
    let st = net.lock();
    let report = SchedReport {
        seed,
        signature: st.signature.value(),
        deliveries: st.deliveries,
        deadlock: st.deadlock.clone(),
        undelivered: st.pending.len(),
        mailbox_leaks: leaks.into_iter().filter(|&(_, n)| n > 0).collect(),
        injected_drops: st.injected_drops,
        injected_dups: st.injected_dups,
        injected_delays: st.injected_delays,
    };
    (results, report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_signature() {
        let topo = Topology::new(2, 2);
        let run = |seed| {
            let (_, report) = run_sched(topo, seed, None, |comm| {
                let mine = vec![comm.rank() as f32; 4];
                comm.all_to_all(&mine)
            });
            report
        };
        let (a, b) = (run(7), run(7));
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.deliveries, b.deliveries);
        assert!(a.clean(), "clean collective reported {a:?}");
    }

    #[test]
    fn seeds_explore_distinct_schedules() {
        let topo = Topology::new(2, 2);
        let mut sigs = std::collections::HashSet::new();
        for seed in 0..32 {
            let (_, report) = run_sched(topo, seed, None, |comm| {
                let mine: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
                comm.all_to_all(&mine)
            });
            assert!(report.clean());
            sigs.insert(report.signature);
        }
        assert!(
            sigs.len() >= 16,
            "only {} distinct schedules in 32 seeds",
            sigs.len()
        );
    }

    #[test]
    fn detects_deadlock_with_replayable_seed() {
        // Rank 0 waits for a message nobody ever sends.
        let topo = Topology::new(1, 2);
        let (results, report) = run_sched(topo, 13, None, |comm| {
            if comm.rank() == 0 {
                comm.recv(1, 999).map(|_| ())
            } else {
                Ok(())
            }
        });
        assert!(report.deadlock.is_some(), "no deadlock reported");
        assert_eq!(report.seed, 13);
        assert!(matches!(
            &results[0],
            Err(CommError::Deadlock { seed: 13, .. })
        ));
    }

    #[test]
    fn detects_mailbox_leak() {
        // Rank 1 sends under a tag rank 0 never asks for. Depending
        // on the schedule the stray message is either parked in rank
        // 0's mailbox (delivered first) or left undelivered in the
        // net (delivered never) — both must be reported, and some
        // seed must exhibit each.
        let topo = Topology::new(1, 2);
        let mut saw_mailbox_leak = false;
        let mut saw_undelivered = false;
        for seed in 0..16 {
            let (_, report) = run_sched(topo, seed, None, |comm| {
                if comm.rank() == 1 {
                    comm.send(0, 77, vec![1.0])?;
                    comm.send(0, 88, vec![2.0])?;
                    Ok(vec![])
                } else {
                    comm.recv(1, 88)
                }
            });
            assert!(!report.clean(), "stray message not reported: {report:?}");
            saw_mailbox_leak |= report.mailbox_leaks == vec![(0, 1)];
            saw_undelivered |= report.undelivered == 1;
        }
        assert!(saw_mailbox_leak, "no seed parked the stray message");
        assert!(saw_undelivered, "no seed left the stray undelivered");
    }

    #[test]
    fn injected_drop_becomes_detected_deadlock() {
        // An unprotected collective under a dropping plan must end in
        // a *detected* deadlock (typed error carrying the seed), never
        // a hang or silent corruption.
        let topo = Topology::new(1, 2);
        let plan = FaultPlan::new(0xD0).with_drops(100);
        let (results, report) = run_sched(topo, 21, Some(plan), |comm| {
            let mine = vec![comm.rank() as f32; 4];
            comm.all_to_all(&mine)
        });
        assert!(report.injected_drops > 0, "plan injected nothing");
        assert!(report.deadlock.is_some(), "dropped delivery not detected");
        assert!(results
            .iter()
            .any(|r| matches!(r, Err(CommError::Deadlock { seed: 21, .. }))));
    }

    #[test]
    fn injected_duplicate_is_reported_as_leak() {
        let topo = Topology::new(1, 2);
        let plan = FaultPlan::new(0xD1).with_duplicates(100);
        let (results, report) = run_sched(topo, 3, Some(plan), |comm| {
            let mine = vec![comm.rank() as f32; 2];
            comm.all_to_all(&mine)
        });
        // The duplicate parks in a mailbox or stays undelivered; the
        // values the programs saw are still the correct ones.
        assert!(report.injected_dups > 0);
        assert!(
            !report.clean(),
            "duplicated delivery escaped the audit: {report:?}"
        );
        for (rank, r) in results.iter().enumerate() {
            let got = r.as_ref().expect("dup must not fail the collective");
            assert_eq!(got, &vec![0.0, 1.0], "rank {rank} corrupted");
        }
    }

    #[test]
    fn injected_delays_reorder_but_preserve_results() {
        let topo = Topology::new(2, 2);
        let plan = FaultPlan::new(0xD2).with_delays(60, 3);
        let (results, report) = run_sched(topo, 11, Some(plan), |comm| {
            let mine: Vec<f32> = (0..8).map(|i| (comm.rank() * 8 + i) as f32).collect();
            comm.all_to_all(&mine)
        });
        assert!(report.injected_delays > 0, "plan injected nothing");
        assert!(report.clean(), "delays must only postpone: {report:?}");
        let expect = crate::linear_all_to_all(
            &(0..4)
                .map(|r| (0..8).map(|i| (r * 8 + i) as f32).collect())
                .collect::<Vec<_>>(),
        );
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r.expect("delays must not fail"), expect[rank]);
        }
    }

    #[test]
    fn faulty_runs_replay_bit_for_bit() {
        let topo = Topology::new(1, 2);
        let plan = FaultPlan::new(7).with_delays(50, 2).with_duplicates(20);
        let run = || {
            let (results, report) = run_sched(topo, 9, Some(plan), |comm| {
                let mine = vec![comm.rank() as f32; 4];
                comm.all_to_all(&mine)
            });
            (results, report.signature, report.deliveries)
        };
        assert_eq!(run(), run());
    }
}
