//! Resident rank threads: the only code that spawns rank threads, for
//! channel-backed communicators and (under `check-sched`) the
//! scheduler-backed ones of `sched::run_sched` alike.
//!
//! A [`RankGroup`] spawns one OS thread per rank of a topology and
//! gives each its [`Communicator`] for as long as the group lives.
//! Between runs the threads wait on a per-rank channel;
//! [`RankGroup::run`] lends every rank the same program, hands it to
//! them and waits until each has reported. What a communicator carries
//! — its mailbox, tag counter, reliability state and tracer — persists
//! from run to run, so a run costs a hand-off per rank instead of a
//! spawn and a join.
//!
//! Every wait here, and every receive of a channel-backed
//! communicator, polls its channel, yielding between tries, for up to
//! 50 µs before it parks (`wait::poll_then_park`). Back-to-back runs
//! therefore hand off without waking a parked thread; a rank idle for
//! longer parks and costs one wake.
//!
//! # Step boundaries
//!
//! After every resident run each rank audits its communicator: the
//! check a communicator dropped at join makes, returned as a value. A
//! poisoned communicator or a non-empty mailbox becomes the run's typed
//! error, and the group is then typed-dead: every later run returns
//! that error at once, without waking a rank. A rank that panics is
//! caught on its own thread and, once every other rank has reported,
//! re-raised on the caller; the group is dead after that too.
//!
//! The reliability state outlives a run on purpose. A collective's
//! epilogue sends its ack *before* it serves a peer's retry requests,
//! so a second retransmit from run n can still be in flight when run
//! n + 1 starts, and only the dedupe set, kept for the communicator's
//! life, discards it. Tags never repeat within a group, so nothing run
//! n left on the wire is taken for run n + 1's data.
//!
//! # One-shot runs
//!
//! [`RankGroup::run_once`] runs a program once with each rank's
//! communicator moved in by value and drops the group, joining its
//! threads; [`run_threaded`] is that run over a plain group. A rank's
//! communicator is dropped where its program ends, so a leaked message
//! still panics at join. A reliable or traced one-shot run is
//! `RankGroup::new(topology, reliable, tel).run_once(program)`.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};
use std::thread::JoinHandle;

use crossbeam::channel::{unbounded, Receiver, Sender};
use tutel_obs::Telemetry;

use crate::error::CommError;
use crate::runtime::{Communicator, ReliableConfig};
use crate::wait::poll_then_park;
use crate::Topology;

/// One run as every rank sees it: called with the rank's id and its
/// communicator slot, which a one-shot run empties.
type Task<'a> = dyn Fn(usize, &mut Option<Communicator>) + Sync + 'a;

/// A [`Task`] lent to a rank thread with its borrow erased (see
/// [`RankGroup::dispatch`]).
struct Lent(*const Task<'static>);

// SAFETY: the pointee is `Sync`, so calling it from a rank thread is
// sound, and `RankGroup::dispatch` keeps it alive until every rank it
// was sent to has reported.
unsafe impl Send for Lent {}

/// What a rank sends back when its share of a run is done: `Err`
/// carries a panic caught on the rank's thread.
type Report = (usize, std::thread::Result<()>);

/// One parked OS thread per rank, each owning its [`Communicator`] for
/// the group's life (see the module docs).
///
/// # Example
///
/// ```
/// use tutel_comm::RankGroup;
/// use tutel_obs::Telemetry;
/// use tutel_comm::Topology;
///
/// let mut group = RankGroup::new(Topology::new(1, 2), None, &Telemetry::disabled());
/// for step in 0..3 {
///     let got = group
///         .run(&|comm| comm.all_to_all(&[comm.rank() as f32 + step as f32; 2]))
///         .unwrap();
///     assert_eq!(got[1], Ok(vec![step as f32, step as f32 + 1.0]));
/// }
/// ```
pub struct RankGroup {
    /// One wake-up channel per rank, in rank order.
    wake: Vec<Sender<Lent>>,
    /// Where every rank reports.
    done: Receiver<Report>,
    threads: Vec<JoinHandle<()>>,
    /// Why the group is dead, once a run failed its audit or a rank
    /// panicked.
    dead: Option<CommError>,
}

impl RankGroup {
    /// Spawns one thread per rank of `topology`, each parked with its
    /// communicator. `reliable` arms the reliability layer on every
    /// rank: fault-free, or under a recoverable plan with a nonzero
    /// retry budget, its collectives return bitwise what plain ones
    /// return, and an unrecoverable plan surfaces
    /// [`CommError::Timeout`] within the policy's bounded wait. Rank
    /// `r` records on `tel.tracer(r)`: with an enabled handle every
    /// collective records comm-track spans and flow edges on its
    /// epoch; a disabled one leaves the ranks untraced.
    pub fn new(topology: Topology, reliable: Option<ReliableConfig>, tel: &Telemetry) -> Self {
        Self::from_comms(Communicator::mesh(topology, reliable.as_ref(), tel))
    }

    /// Spawns one thread per communicator, rank `r` owning `comms[r]`.
    pub(crate) fn from_comms(comms: Vec<Communicator>) -> Self {
        let (report, done) = unbounded();
        let mut wake = Vec::with_capacity(comms.len());
        let threads = (comms.into_iter())
            .enumerate()
            .map(|(rank, comm)| {
                let (waker, parked) = unbounded();
                wake.push(waker);
                let report = report.clone();
                std::thread::spawn(move || rank_loop(rank, Some(comm), &parked, &report))
            })
            .collect();
        RankGroup {
            wake,
            done,
            threads,
            dead: None,
        }
    }

    /// Lends every rank its communicator, runs `program` on each and
    /// blocks until all have returned; the results come back in rank
    /// order. Each rank then audits its communicator (see the module
    /// docs).
    ///
    /// # Errors
    ///
    /// The lowest failing rank's audit error: the first error its
    /// communicator returned during the run, or [`CommError::Leaked`].
    /// The group is typed-dead after that, and every later call returns
    /// the same error without running anything.
    ///
    /// # Panics
    ///
    /// Re-raises a rank's panic once every other rank has reported.
    pub fn run<R: Send>(
        &mut self,
        program: &(dyn Fn(&mut Communicator) -> R + Sync),
    ) -> Result<Vec<R>, CommError> {
        if let Some(err) = &self.dead {
            return Err(err.clone());
        }
        let slots: Vec<Mutex<Option<Result<R, CommError>>>> =
            self.wake.iter().map(|_| Mutex::new(None)).collect();
        self.dispatch(&|rank, comm: &mut Option<Communicator>| {
            let out = match comm {
                Some(comm) => {
                    let out = program(comm);
                    comm.audit().map(|()| out)
                }
                None => Err(CommError::Disconnected { rank }),
            };
            *slots[rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
        });
        let mut results = Vec::with_capacity(slots.len());
        for (rank, slot) in slots.into_iter().enumerate() {
            let out = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            match out.unwrap_or(Err(CommError::Disconnected { rank })) {
                Ok(out) => results.push(out),
                Err(err) => {
                    self.dead = Some(err.clone());
                    return Err(err);
                }
            }
        }
        Ok(results)
    }

    /// Moves each rank's communicator into `program`, runs it once and
    /// drops the group, joining its threads; the results come back in
    /// rank order.
    ///
    /// # Panics
    ///
    /// Re-raises a rank's panic once every other rank has reported,
    /// including the join-time mailbox audit of a communicator dropped
    /// with messages still parked.
    pub fn run_once<F, R>(mut self, program: F) -> Vec<R>
    where
        F: Fn(Communicator) -> R + Sync,
        R: Send,
    {
        let slots: Vec<Mutex<Option<R>>> = self.wake.iter().map(|_| Mutex::new(None)).collect();
        self.dispatch(&|rank, comm: &mut Option<Communicator>| {
            if let Some(comm) = comm.take() {
                let out = program(comm);
                *slots[rank].lock().unwrap_or_else(PoisonError::into_inner) = Some(out);
            }
        });
        (slots.into_iter())
            .filter_map(|slot| slot.into_inner().unwrap_or_else(PoisonError::into_inner))
            .collect()
    }

    /// Lends `task` to every rank and blocks until each has reported,
    /// then re-raises the lowest panicking rank's panic, if any.
    fn dispatch(&mut self, task: &Task<'_>) {
        // A rank thread never touches its copy of the pointer after it
        // reports; `recv` fails only once every rank thread has exited,
        // and then none can still hold it. This is `rt::Pool::run`'s
        // argument.
        // SAFETY: only the lifetime is erased, and this function
        // neither returns nor unwinds before it has one report per
        // wake-up it sent: the channel's send and receive do not panic
        // (their lock is never held across a panic), and a rank's
        // caught panic is re-raised only after the loop.
        let task = unsafe { std::mem::transmute::<*const Task<'_>, *const Task<'static>>(task) };
        let sent = (self.wake.iter())
            .filter(|waker| waker.send(Lent(task)).is_ok())
            .count();
        let mut panicked: Option<(usize, Box<dyn Any + Send>)> = None;
        for _ in 0..sent {
            match poll_then_park(&self.done, None) {
                Ok((rank, Err(payload))) if panicked.as_ref().is_none_or(|(r, _)| rank < *r) => {
                    panicked = Some((rank, payload));
                }
                Ok(_) => {}
                Err(_) => break,
            }
        }
        if let Some((rank, payload)) = panicked {
            self.dead = Some(CommError::Disconnected { rank });
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for RankGroup {
    fn drop(&mut self) {
        // Closing the wake-up channels unparks every rank for the last
        // time; each then drops its communicator and exits.
        self.wake.clear();
        for thread in self.threads.drain(..) {
            // A rank's panic was re-raised by the run it happened in.
            let _ = thread.join();
        }
    }
}

/// A rank thread's life: park, run what it is lent, report, repeat
/// until the group closes its wake-up channel.
fn rank_loop(
    rank: usize,
    mut comm: Option<Communicator>,
    parked: &Receiver<Lent>,
    report: &Sender<Report>,
) {
    while let Ok(Lent(task)) = poll_then_park(parked, None) {
        // SAFETY: `RankGroup::dispatch` keeps the task alive until it
        // has received this rank's report below.
        let task = unsafe { &*task };
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| task(rank, &mut comm)));
        if report.send((rank, outcome)).is_err() {
            break;
        }
    }
}

/// Spawns one OS thread per rank and runs `program` on each with its
/// own [`Communicator`]; returns the per-rank results in rank order. A
/// one-shot [`RankGroup`]: its threads are joined before this returns.
///
/// # Example
///
/// ```
/// use tutel_comm::runtime::run_threaded;
/// use tutel_comm::Topology;
///
/// let results = run_threaded(Topology::new(2, 2), |mut comm| {
///     let rank = comm.rank() as f32;
///     comm.all_to_all(&[rank; 4]).unwrap()
/// });
/// // Rank 0 received one element from each rank.
/// assert_eq!(results[0], vec![0.0, 1.0, 2.0, 3.0]);
/// ```
///
/// # Panics
///
/// Panics if any rank's program panics (the panic payload is
/// re-raised on the caller's thread), including the join-time mailbox
/// audit of a communicator dropped with messages still parked.
pub fn run_threaded<F, R>(topology: Topology, program: F) -> Vec<R>
where
    F: Fn(Communicator) -> R + Send + Sync,
    R: Send,
{
    RankGroup::new(topology, None, &Telemetry::disabled()).run_once(program)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use crate::runtime::RetryPolicy;
    use crate::{linear_all_to_all, RankBuffers};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::{Duration, Instant};

    /// Run `step`'s per-rank buffers: rank `s` holds `n·chunk` labelled
    /// values, shifted per step so every run moves different data.
    fn labeled(n: usize, chunk: usize, step: usize) -> RankBuffers {
        (0..n)
            .map(|s| {
                (0..n * chunk)
                    .map(|i| (step * 1000 + s * n * chunk + i) as f32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn every_rank_keeps_its_thread_across_runs() {
        // `ThreadId`s are never reused, so an id that holds across 100
        // runs means no rank thread was spawned after the group was.
        let mut group = RankGroup::new(Topology::new(2, 2), None, &Telemetry::disabled());
        let program = |_: &mut Communicator| std::thread::current().id();
        let first = group.run(&program).unwrap();
        for run in 1..100 {
            assert_eq!(group.run(&program).unwrap(), first, "run {run}");
        }
        let caller = std::thread::current().id();
        for (rank, id) in first.iter().enumerate() {
            assert_ne!(*id, caller, "rank {rank} ran on the caller");
            assert!(!first[..rank].contains(id), "rank {rank} shares a thread");
        }
    }

    #[test]
    fn collectives_on_a_resident_group_match_the_oracle_run_after_run() {
        // Tags, mailboxes and payload counters carry over: each run's
        // collectives see fresh tags and a clean mailbox, and the
        // payload counter keeps counting.
        let mut group = RankGroup::new(Topology::new(2, 2), None, &Telemetry::disabled());
        for step in 0..5 {
            let bufs = labeled(4, 3, step);
            let got = group
                .run(&|comm| {
                    let a = comm.all_to_all(&bufs[comm.rank()]).unwrap();
                    let b = comm.all_to_all_2dh(&bufs[comm.rank()]).unwrap();
                    (a, b, comm.sent_payload_elems())
                })
                .unwrap();
            let expect = linear_all_to_all(&bufs);
            for (rank, (a, b, sent)) in got.into_iter().enumerate() {
                assert_eq!((&a, &b), (&expect[rank], &expect[rank]), "step {step}");
                // Linear: 3 peers × 3; 2DH: two hops of 2 + 2·3.
                assert_eq!(sent, (step as u64 + 1) * (9 + 16), "step {step}");
            }
        }
    }

    #[test]
    fn a_rank_late_past_the_poll_budget_is_met_through_the_park() {
        // One rank sleeps twice the poll budget before its exchange, so
        // its peers' receives, and the caller's wait for its report,
        // give up polling and park; every run must still equal the
        // oracle and leave every communicator clean.
        for topology in [Topology::new(1, 2), Topology::new(2, 2)] {
            let n = topology.world_size();
            let mut group = RankGroup::new(topology, None, &Telemetry::disabled());
            for step in 0..50 {
                let bufs = labeled(n, 2, step);
                let got = group
                    .run(&|comm| {
                        if comm.rank() == step % n {
                            std::thread::sleep(2 * crate::wait::POLL_BEFORE_PARK);
                        }
                        let sends = bufs[comm.rank()].chunks(2).map(<[f32]>::to_vec);
                        comm.all_to_all_v(&sends.collect::<Vec<_>>())
                    })
                    .unwrap_or_else(|err| panic!("W = {n} step {step}: {err}"));
                let expect = linear_all_to_all(&bufs);
                for (rank, recvd) in got.into_iter().enumerate() {
                    assert_eq!(recvd.unwrap().concat(), expect[rank], "W = {n} step {step}");
                }
            }
        }
    }

    #[test]
    fn a_panicking_rank_is_reraised_after_every_rank_reports() {
        let mut group = RankGroup::new(Topology::new(1, 4), None, &Telemetry::disabled());
        let reported = AtomicUsize::new(0);
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            group.run(&|comm| {
                if comm.rank() == 2 {
                    panic!("rank 2 gives up");
                }
                std::thread::sleep(Duration::from_millis(20));
                reported.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the rank's panic reaches the caller");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"rank 2 gives up"));
        assert_eq!(
            reported.load(Ordering::SeqCst),
            3,
            "re-raised before the others reported"
        );
        // The group is dead: the next run names the rank, runs nothing.
        let next = group.run(&|_| reported.fetch_add(1, Ordering::SeqCst));
        assert_eq!(next, Err(CommError::Disconnected { rank: 2 }));
        assert_eq!(reported.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn a_leaked_message_is_a_typed_error_and_the_group_stays_dead() {
        let mut group = RankGroup::new(Topology::new(1, 2), None, &Telemetry::disabled());
        let ran = AtomicUsize::new(0);
        let leaky = |comm: &mut Communicator| {
            ran.fetch_add(1, Ordering::SeqCst);
            if comm.rank() == 1 {
                // Tag 42 is never consumed; tag 1 unblocks rank 0.
                comm.send(0, 42, vec![1.0]).unwrap();
                comm.send(0, 1, vec![2.0]).unwrap();
            } else {
                comm.recv(1, 1).unwrap();
            }
        };
        let err = group.run(&leaky).expect_err("the leak fails the run");
        match &err {
            CommError::Leaked { rank: 0, detail } => {
                assert!(detail.contains("under tag 42"), "{detail}")
            }
            other => panic!("expected a leak on rank 0, got {other:?}"),
        }
        assert!(err.to_string().contains("mailbox not empty"));
        assert_eq!(group.run(&leaky), Err(err));
        assert_eq!(ran.load(Ordering::SeqCst), 2, "a dead group ran a program");
        // Dropping the dead group joins cleanly: the leak was reported
        // once, as the run's error, not again as a panic at join.
        drop(group);
    }

    #[test]
    fn a_poisoned_rank_ends_the_group_with_its_first_error() {
        let mut group = RankGroup::new(Topology::new(1, 2), None, &Telemetry::disabled());
        let got = group.run(&|comm| comm.all_to_all(&[1.0, 2.0, 3.0]));
        let err = CommError::Indivisible { len: 3, chunks: 2 };
        assert_eq!(got, Err(err.clone()));
        assert_eq!(group.run(&|comm| comm.rank()), Err(err));
    }

    fn fast_policy(max_retries: u32) -> RetryPolicy {
        RetryPolicy {
            timeout: Duration::from_millis(20),
            max_retries,
            backoff: 2,
        }
    }

    fn injected(t: &Telemetry) -> u64 {
        ["drops", "dups", "delays"]
            .iter()
            .map(|k| {
                t.counter_value(&format!("comm.retry.injected_{k}"))
                    .unwrap_or(0)
            })
            .sum()
    }

    #[test]
    fn faulted_runs_recover_bitwise_across_step_boundaries() {
        // Late duplicates and retransmits from one run land in the next
        // one's receives, where the dedupe set (kept across runs) must
        // discard them: every run still equals the fault-free oracle.
        let telemetry = Telemetry::enabled();
        let cfg = ReliableConfig {
            policy: fast_policy(6),
            plan: Some(
                FaultPlan::new(0x5EED)
                    .with_drops(20)
                    .with_duplicates(30)
                    .with_delays(20, 2),
            ),
            telemetry: telemetry.clone(),
        };
        let mut group = RankGroup::new(Topology::new(2, 2), Some(cfg), &Telemetry::disabled());
        let mut per_run = Vec::new();
        for step in 0..6 {
            let bufs = labeled(4, 2, step);
            let before = injected(&telemetry);
            let got = group
                .run(&|comm| {
                    comm.all_to_all_v(
                        &bufs[comm.rank()]
                            .chunks(2)
                            .map(<[f32]>::to_vec)
                            .collect::<Vec<_>>(),
                    )
                })
                .unwrap();
            per_run.push(injected(&telemetry) - before);
            let expect = linear_all_to_all(&bufs);
            for (rank, recvd) in got.into_iter().enumerate() {
                assert_eq!(
                    recvd.unwrap().concat(),
                    expect[rank],
                    "step {step} rank {rank}"
                );
            }
        }
        assert!(
            per_run.iter().filter(|&&n| n > 0).count() >= 3,
            "{per_run:?}"
        );
        assert_eq!(
            telemetry.counter_value("comm.retry.timeouts").unwrap_or(0),
            0
        );
    }

    #[test]
    fn an_exhausted_retry_budget_ends_the_group_at_once() {
        let cfg = ReliableConfig {
            policy: RetryPolicy {
                timeout: Duration::from_millis(200),
                max_retries: 0,
                backoff: 2,
            },
            plan: Some(FaultPlan::new(9).with_drops(100)),
            telemetry: Telemetry::disabled(),
        };
        let mut group = RankGroup::new(Topology::new(1, 2), Some(cfg), &Telemetry::disabled());
        let program = |comm: &mut Communicator| comm.all_to_all(&[comm.rank() as f32; 2]).is_ok();
        let err = group.run(&program).expect_err("every send is dropped");
        assert!(matches!(err, CommError::Timeout { rank: 0, .. }), "{err:?}");
        // No rank runs again, so no wait: well under one timeout.
        let started = Instant::now();
        assert_eq!(group.run(&program), Err(err));
        assert!(started.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn leaked_mailbox_message_panics_at_join() {
        let topo = Topology::new(1, 2);
        let result = panic::catch_unwind(|| {
            run_threaded(topo, |mut comm| {
                if comm.rank() == 1 {
                    // Tag 42 is never consumed; tag 1 unblocks rank 0.
                    comm.send(0, 42, vec![1.0]).unwrap();
                    comm.send(0, 1, vec![2.0]).unwrap();
                } else {
                    comm.recv(1, 1).unwrap();
                }
            })
        });
        let payload = result.expect_err("leak must panic at join");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("mailbox not empty"), "got: {msg}");
    }
}
