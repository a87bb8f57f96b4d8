//! Seeded fault-injection scenarios for each collective.
//!
//! Two properties are asserted per collective, both replayable from a
//! single `--fault-seed`:
//!
//! * **graceful degradation** — under a mixed drop/duplicate/delay
//!   [`FaultPlan`] and a non-zero retry budget, the reliable runtime
//!   recovers *bitwise identical* results to a fault-free run, and the
//!   telemetry proves faults were actually injected;
//! * **clean failure** — when the budget cannot cover the plan (100%
//!   drops, zero retries), every rank surfaces a typed
//!   [`CommError::Timeout`] within the policy's bounded wait — never a
//!   hang, never a partially-written tensor, never a leaked mailbox
//!   message.
//!
//! A third scenario runs the deterministic scheduler with delivery-time
//! drops and asserts the wedge is *detected* (typed deadlock carrying
//! the replay seed) rather than silent.
//!
//! [`step_fault_replay`] arms the same recoverable plan under two
//! consecutive product steps on one resident reliable
//! [`StepExecutor`] — the driver behind the serving grid's fault row.

use std::time::{Duration, Instant};

use tutel_comm::runtime::{run_threaded, Communicator};
use tutel_comm::sched::run_sched;
use tutel_comm::{CommError, FaultPlan, RankGroup, ReliableConfig, RetryPolicy, Topology};
use tutel_obs::Telemetry;
use tutel_serve::exec::{execute_step, reference_rows, StepExecutor};
use tutel_serve::{ExecConfig, ServeError, ServeModel};
use tutel_tensor::Tensor;

use crate::reference::REF_THREADS;
use crate::{AllToAllAlgo, Parallelism};

/// The collectives under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Collective {
    /// Linear All-to-All.
    AllToAll,
    /// Two-Dimensional Hierarchical All-to-All.
    AllToAll2dh,
    /// Ragged linear All-to-All — the product step's exchange; the
    /// sends include an empty buffer.
    AllToAllV,
    /// Ragged 2DH All-to-All, same sends.
    AllToAllV2dh,
    /// Ring all-gather.
    AllGather,
    /// Ring all-reduce (sum).
    AllReduceSum,
}

/// Every collective, in report order.
pub const COLLECTIVES: [Collective; 6] = [
    Collective::AllToAll,
    Collective::AllToAll2dh,
    Collective::AllToAllV,
    Collective::AllToAllV2dh,
    Collective::AllGather,
    Collective::AllReduceSum,
];

impl Collective {
    /// Name used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            Collective::AllToAll => "all_to_all",
            Collective::AllToAll2dh => "all_to_all_2dh",
            Collective::AllToAllV => "all_to_all_v",
            Collective::AllToAllV2dh => "all_to_all_v_2dh",
            Collective::AllGather => "all_gather",
            Collective::AllReduceSum => "all_reduce_sum",
        }
    }

    fn invoke(&self, comm: &mut Communicator, input: &[f32]) -> Result<Vec<f32>, CommError> {
        match self {
            Collective::AllToAll => comm.all_to_all(input),
            Collective::AllToAll2dh => comm.all_to_all_2dh(input),
            Collective::AllToAllV => Ok(comm.all_to_all_v(&ragged(comm.rank(), input))?.concat()),
            Collective::AllToAllV2dh => {
                Ok(comm.all_to_all_v_2dh(&ragged(comm.rank(), input))?.concat())
            }
            Collective::AllGather => comm.all_gather(input),
            Collective::AllReduceSum => comm.all_reduce_sum(input),
        }
    }
}

/// Outcome of the three scenarios for one collective.
#[derive(Debug, Clone)]
pub struct FaultReport {
    /// The collective exercised.
    pub collective: Collective,
    /// Recovery: faulted results matched the fault-free run bitwise.
    pub recovered_identical: bool,
    /// Recovery: number of faults the plan actually injected (> 0 or
    /// the scenario is vacuous).
    pub injected: u64,
    /// Recovery: retransmissions served (the retry path actually ran).
    pub retransmits: u64,
    /// Clean failure: every rank got a typed timeout.
    pub failed_typed: bool,
    /// Clean failure: no rank ended with parked mailbox messages.
    pub no_leak: bool,
    /// Clean failure: wall time stayed within the bounded budget.
    pub bounded: bool,
    /// Sched: delivery-time drops were detected as a typed deadlock.
    pub sched_detected: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// World-size-4 topology with a real inter-node axis so 2DH runs both
/// phases.
fn fault_topology() -> Topology {
    Topology::new(2, 2)
}

/// Per-rank input: `world` chunks of two distinct values so any
/// corruption or misdelivery changes the output.
fn fault_input(rank: usize, world: usize) -> Vec<f32> {
    (0..world * 2)
        .map(|i| (rank * world * 2 + i) as f32 * 0.5 + 1.0)
        .collect()
}

/// Ragged sends cut from a [`fault_input`]: destination `d` gets the
/// first `(rank + d) % 3` elements of its chunk, so every rank sends
/// lengths 0, 1 and 2 — at least one buffer is empty.
fn ragged(rank: usize, input: &[f32]) -> Vec<Vec<f32>> {
    input
        .chunks(2)
        .enumerate()
        .map(|(d, chunk)| chunk[..(rank + d) % 3].to_vec())
        .collect()
}

fn retry_counter(t: &Telemetry, name: &str) -> u64 {
    t.counter_value(name).unwrap_or(0)
}

/// Faults of every kind the plan behind `t` actually injected.
fn injected_faults(t: &Telemetry) -> u64 {
    retry_counter(t, "comm.retry.injected_drops")
        + retry_counter(t, "comm.retry.injected_dups")
        + retry_counter(t, "comm.retry.injected_delays")
}

/// The recoverable arm: a seeded plan injecting drops, duplicates and
/// two-deep delays at `percent` each, under a retry budget sized to
/// absorb it.
fn recoverable(seed: u64, percent: u8, telemetry: &Telemetry) -> ReliableConfig {
    ReliableConfig {
        policy: RetryPolicy {
            timeout: Duration::from_millis(20),
            max_retries: 6,
            backoff: 2,
        },
        plan: Some(
            FaultPlan::new(seed)
                .with_drops(percent)
                .with_duplicates(percent)
                .with_delays(percent, 2),
        ),
        telemetry: telemetry.clone(),
    }
}

/// Runs all three scenarios for one collective under `fault_seed`.
pub fn run_fault_scenarios(collective: Collective, fault_seed: u64) -> FaultReport {
    let topo = fault_topology();
    let world = topo.world_size();

    // Fault-free baseline.
    let program = move |mut comm: Communicator| {
        let input = fault_input(comm.rank(), world);
        let out = collective.invoke(&mut comm, &input);
        let parked = comm.parked_messages();
        (out, parked)
    };
    let plain = run_threaded(topo, program);

    // Scenario 1: graceful degradation. A mixed recoverable plan plus
    // a retry budget must reproduce the baseline bitwise.
    let telemetry = Telemetry::enabled();
    let recovered = RankGroup::new(
        topo,
        Some(recoverable(fault_seed, 20, &telemetry)),
        &Telemetry::disabled(),
    )
    .run_once(program);
    let recovered_identical = recovered == plain;
    let injected = injected_faults(&telemetry);
    let retransmits = retry_counter(&telemetry, "comm.retry.retransmits");

    // Scenario 2: clean failure. An unrecoverable plan with a zero
    // retry budget must produce a typed timeout on every rank, leave
    // no mailbox residue, and return within a bounded wait.
    let fail_telemetry = Telemetry::enabled();
    let fail_cfg = ReliableConfig {
        policy: RetryPolicy {
            timeout: Duration::from_millis(10),
            max_retries: 0,
            backoff: 2,
        },
        plan: Some(FaultPlan::new(fault_seed ^ 0xDEAD).with_drops(100)),
        telemetry: fail_telemetry.clone(),
    };
    let started = Instant::now();
    let failed = RankGroup::new(topo, Some(fail_cfg), &Telemetry::disabled()).run_once(program);
    let bounded = started.elapsed() < Duration::from_secs(10);
    let failed_typed = failed
        .iter()
        .all(|(r, _)| matches!(r, Err(CommError::Timeout { .. })));
    let no_leak = failed.iter().all(|&(_, parked)| parked == 0);

    // Scenario 3: delivery-time drops under the deterministic
    // scheduler must surface as a *detected* deadlock, replayable from
    // the same seed.
    let sched_program = move |comm: &mut Communicator| {
        let input = fault_input(comm.rank(), world);
        collective.invoke(comm, &input)
    };
    let (results, report) = run_sched(
        topo,
        fault_seed,
        Some(FaultPlan::new(fault_seed).with_drops(100)),
        sched_program,
    );
    let sched_detected = report.deadlock.is_some()
        && report.injected_drops > 0
        && results
            .iter()
            .all(|r| matches!(r, Err(CommError::Deadlock { .. })));

    let pass =
        recovered_identical && injected > 0 && failed_typed && no_leak && bounded && sched_detected;
    FaultReport {
        collective,
        recovered_identical,
        injected,
        retransmits,
        failed_typed,
        no_leak,
        bounded,
        sched_detected,
        pass,
    }
}

/// The grid point the step-level fault row replays: bitwise-eligible
/// (P1 at [`REF_THREADS`]), two ranks, two chunks per bin so the retry
/// protocol runs under overlapped exchanges.
pub const FAULT_POINT: ExecConfig = ExecConfig {
    strategy: Parallelism::P1,
    algo: AllToAllAlgo::Linear,
    degree: 2,
    world: 2,
    threads: REF_THREADS,
    dropless: true,
};

/// Verdict of a whole-step fault replay.
#[derive(Debug, Clone)]
pub struct FaultReplay {
    /// Faults the seeded plan actually injected in each of the two
    /// steps (each > 0 or the replay is vacuous).
    pub injected: [u64; 2],
    /// Retransmissions the retry protocol served over both steps.
    pub retransmits: u64,
    /// Each faulted step's outputs matched the fault-free step and the
    /// solo reference bitwise.
    pub identical: bool,
    /// Overall verdict.
    pub pass: bool,
}

/// Replays a seeded mixed drop/duplicate/delay [`FaultPlan`] under the
/// All-to-Alls of two consecutive product steps on one resident
/// reliable [`StepExecutor`], one step per batch, and demands bitwise
/// recovery: each faulted step must equal both the fault-free step and
/// the per-row reference exactly, so `cfg` must be a bitwise point
/// ([`crate::ulp_budget`] 0). The second step runs on the retry state
/// the first left behind: its tags continue the first's, and a late
/// duplicate or retransmit of the first may arrive during it.
///
/// # Errors
///
/// Propagates executor failures (the retry budget is sized to absorb
/// the plan, so an error is a finding, not noise).
pub fn step_fault_replay(
    model: &ServeModel,
    cfg: &ExecConfig,
    batches: [&Tensor; 2],
    seed: u64,
) -> Result<FaultReplay, ServeError> {
    let telemetry = Telemetry::enabled();
    let mut exec = StepExecutor::new(model, *cfg, Some(recoverable(seed, 12, &telemetry)))?;
    let mut injected = [0; 2];
    let mut identical = true;
    for (count, batch) in injected.iter_mut().zip(batches) {
        let before = injected_faults(&telemetry);
        let faulted = exec.step(batch)?;
        *count = injected_faults(&telemetry) - before;
        let baseline = execute_step(model, cfg, batch)?;
        let reference = reference_rows(model, batch)?;
        identical &= faulted.outputs.as_slice() == reference.as_slice()
            && faulted.outputs.as_slice() == baseline.outputs.as_slice();
    }
    Ok(FaultReplay {
        injected,
        retransmits: retry_counter(&telemetry, "comm.retry.retransmits"),
        identical,
        pass: identical && injected.iter().all(|&n| n > 0),
    })
}

/// Runs the scenarios for every collective.
pub fn run_fault_suite(fault_seed: u64) -> Vec<FaultReport> {
    COLLECTIVES
        .iter()
        .map(|&c| run_fault_scenarios(c, fault_seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_passes_for_all_to_all() {
        let report = run_fault_scenarios(Collective::AllToAll, 0xFA17);
        assert!(report.pass, "all_to_all fault scenarios failed: {report:?}");
    }

    #[test]
    fn default_seed_passes_for_the_ragged_exchanges() {
        // The product step's exchange goes through the same three
        // replayed scenarios on both routes: recover bitwise under a
        // mixed plan, fail typed under an unrecoverable one, wedge
        // detectably under the deterministic scheduler.
        for collective in [Collective::AllToAllV, Collective::AllToAllV2dh] {
            let report = run_fault_scenarios(collective, 0xFA17);
            assert!(report.pass, "{}: {report:?}", collective.label());
        }
    }

    #[test]
    fn replaying_a_seed_is_deterministic() {
        let a = run_fault_scenarios(Collective::AllGather, 77);
        let b = run_fault_scenarios(Collective::AllGather, 77);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.pass, b.pass);
    }
}
