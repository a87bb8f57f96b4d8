//! Feature-gated (`check-race`) instrumentation for the runtime: an
//! event recorder capturing the pool's job lifecycle and the arena's
//! ownership transfers, plus a deterministic **simulation** of the
//! pool's claim algorithm whose steal order is driven by an injected
//! choice function ([`sim_pool_run`]).
//!
//! The hooks know nothing about vector clocks: they append typed
//! [`RtEvent`]s to a global log while a [`Session`] is armed, and
//! `tutel-check`'s happens-before analyzer consumes the log offline.
//! Splitting recording from analysis keeps this module dependency-free
//! (rt stays a base crate) and keeps the hot-path cost at one relaxed
//! atomic load when no session is recording.
//!
//! ## Thread identity
//!
//! Events carry a thread id. Drivers that *are* the checked workload
//! wrap their work in [`with_logical_thread`] and get small stable
//! ids; every other thread (pool workers, unrelated tests running
//! concurrently) gets an auto id at or above [`AUTO_THREAD_BASE`].
//! The analyzer restricts leak checks and structural signatures to
//! logical threads, so foreign traffic recorded mid-session can never
//! produce a false finding.
//!
//! ## Event-order guarantee used by the analyzer
//!
//! The log mutex gives one total order. The pool records `ChunkDone`
//! *before* its release-increment of the job's completion counter,
//! and `JobJoin` only after the acquire-side wait — so in the log,
//! every `ChunkDone` of a job precedes its `JobJoin`. A `ChunkDone`
//! *after* `JobJoin` in the log is therefore a real synchronization
//! bug, not recording skew.

use std::cell::Cell;
use std::panic::Location;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Call-site of an arena operation, captured via `#[track_caller]`.
pub type Site = &'static Location<'static>;

/// Thread ids at or above this bound were auto-assigned to OS
/// threads; ids below it were set explicitly via
/// [`with_logical_thread`] and mark the checked workload.
pub const AUTO_THREAD_BASE: usize = 1 << 32;

/// One recorded runtime event.
#[derive(Debug, Clone)]
pub enum RtEvent {
    /// A broadcast job entered the pool (or the sim): chunk index
    /// space `0..total`, pre-partitioned into `regions` claim
    /// regions.
    JobSubmit {
        thread: usize,
        job: u64,
        total: usize,
        regions: usize,
    },
    /// One chunk was claimed out of `region`; `steal` marks a claim
    /// outside the participant's own region.
    ChunkClaim {
        thread: usize,
        job: u64,
        chunk: usize,
        region: usize,
        steal: bool,
    },
    /// The chunk's task finished executing.
    ChunkDone {
        thread: usize,
        job: u64,
        chunk: usize,
    },
    /// The submitting caller's join returned.
    JobJoin { thread: usize, job: u64 },
    /// A buffer left an arena. `buf` is the allocation address (the
    /// shadow-state key); `recycled` distinguishes a cache hit from a
    /// fresh allocation.
    ArenaTake {
        thread: usize,
        buf: usize,
        len: usize,
        recycled: bool,
        site: Site,
    },
    /// A buffer was returned to an arena. `retained == false` means
    /// the arena evicted (freed) it instead of keeping it — the
    /// address may be reused by the allocator, so the analyzer must
    /// forget the buffer rather than track a stale shadow.
    ArenaPut {
        thread: usize,
        buf: usize,
        len: usize,
        retained: bool,
        site: Site,
    },
    /// An arena dropped every retained buffer (`Arena::clear`).
    ArenaClear { thread: usize },
    /// An explicit access probe ([`note_access`]) on a buffer.
    ArenaAccess {
        thread: usize,
        buf: usize,
        write: bool,
        site: Site,
    },
    /// A structural order marker: folded per logical thread into the
    /// schedule-independence signature.
    OrderMark {
        thread: usize,
        label: &'static str,
        value: u64,
    },
    /// The pool (real or simulated) shut down.
    Shutdown { thread: usize },
}

impl RtEvent {
    /// The thread that recorded this event.
    pub fn thread(&self) -> usize {
        match *self {
            RtEvent::JobSubmit { thread, .. }
            | RtEvent::ChunkClaim { thread, .. }
            | RtEvent::ChunkDone { thread, .. }
            | RtEvent::JobJoin { thread, .. }
            | RtEvent::ArenaTake { thread, .. }
            | RtEvent::ArenaPut { thread, .. }
            | RtEvent::ArenaClear { thread }
            | RtEvent::ArenaAccess { thread, .. }
            | RtEvent::OrderMark { thread, .. }
            | RtEvent::Shutdown { thread } => thread,
        }
    }
}

static RECORDING: AtomicBool = AtomicBool::new(false);
static LOG: Mutex<Vec<RtEvent>> = Mutex::new(Vec::new());
static SESSION_GATE: Mutex<()> = Mutex::new(());
static NEXT_JOB: AtomicU64 = AtomicU64::new(1);
static NEXT_AUTO_THREAD: AtomicUsize = AtomicUsize::new(AUTO_THREAD_BASE);

thread_local! {
    static LOGICAL_THREAD: Cell<usize> = const { Cell::new(usize::MAX) };
    static AUTO_THREAD: Cell<usize> = const { Cell::new(0) };
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// True while a [`Session`] is armed. Hooks bail on this one relaxed
/// load — the entire cost of the instrumentation outside a session.
pub fn is_recording() -> bool {
    RECORDING.load(Ordering::Relaxed)
}

/// Appends `ev` to the session log (no-op when no session is armed).
pub fn record(ev: RtEvent) {
    if !is_recording() {
        return;
    }
    lock(&LOG).push(ev);
}

/// The calling thread's event id: its logical id if one is set, else
/// a lazily-assigned auto id (>= [`AUTO_THREAD_BASE`]).
pub fn current_thread() -> usize {
    let logical = LOGICAL_THREAD.with(Cell::get);
    if logical != usize::MAX {
        return logical;
    }
    AUTO_THREAD.with(|c| {
        let id = c.get();
        if id != 0 {
            id
        } else {
            let id = NEXT_AUTO_THREAD.fetch_add(1, Ordering::Relaxed);
            c.set(id);
            id
        }
    })
}

/// Runs `f` with the calling thread identified as logical thread
/// `id` (must be below [`AUTO_THREAD_BASE`]); restores the previous
/// identity afterwards. Nesting is allowed — the innermost id wins.
pub fn with_logical_thread<R>(id: usize, f: impl FnOnce() -> R) -> R {
    debug_assert!(id < AUTO_THREAD_BASE, "logical thread id out of range");
    let prev = LOGICAL_THREAD.with(|c| c.replace(id));
    let out = f();
    LOGICAL_THREAD.with(|c| c.set(prev));
    out
}

/// An armed recording session. Only one exists at a time (interleaved
/// logs from unrelated workloads would be meaningless), so concurrent
/// tests serialize on [`Session::begin`].
pub struct Session {
    _gate: MutexGuard<'static, ()>,
}

impl Session {
    /// Clears the log and arms the recorder, blocking until any other
    /// session finishes.
    pub fn begin() -> Session {
        let gate = lock(&SESSION_GATE);
        lock(&LOG).clear();
        RECORDING.store(true, Ordering::SeqCst);
        Session { _gate: gate }
    }

    /// Disarms the recorder and returns the captured log.
    pub fn finish(self) -> Vec<RtEvent> {
        RECORDING.store(false, Ordering::SeqCst);
        std::mem::take(&mut *lock(&LOG))
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        RECORDING.store(false, Ordering::SeqCst);
    }
}

/// Allocates a job id and records its submission.
pub(crate) fn job_submit(total: usize, regions: usize) -> u64 {
    let job = NEXT_JOB.fetch_add(1, Ordering::Relaxed);
    record(RtEvent::JobSubmit {
        thread: current_thread(),
        job,
        total,
        regions,
    });
    job
}

pub(crate) fn chunk_claim(job: u64, chunk: usize, region: usize, steal: bool) {
    record(RtEvent::ChunkClaim {
        thread: current_thread(),
        job,
        chunk,
        region,
        steal,
    });
}

pub(crate) fn chunk_done(job: u64, chunk: usize) {
    record(RtEvent::ChunkDone {
        thread: current_thread(),
        job,
        chunk,
    });
}

pub(crate) fn job_join(job: u64) {
    record(RtEvent::JobJoin {
        thread: current_thread(),
        job,
    });
}

pub(crate) fn pool_shutdown() {
    record(RtEvent::Shutdown {
        thread: current_thread(),
    });
}

pub(crate) fn on_arena_take(buf: usize, len: usize, recycled: bool, site: Site) {
    record(RtEvent::ArenaTake {
        thread: current_thread(),
        buf,
        len,
        recycled,
        site,
    });
}

pub(crate) fn on_arena_put(buf: usize, len: usize, retained: bool, site: Site) {
    record(RtEvent::ArenaPut {
        thread: current_thread(),
        buf,
        len,
        retained,
        site,
    });
}

pub(crate) fn on_arena_clear() {
    record(RtEvent::ArenaClear {
        thread: current_thread(),
    });
}

/// Records a read (`write == false`) or write access to `buf` for the
/// shadow-state checker. Drivers sprinkle these at the points where
/// arena buffers are actually dereferenced.
#[track_caller]
pub fn note_access(buf: &[f32], write: bool) {
    note_access_id(buf.as_ptr() as usize, write);
}

/// [`note_access`] by raw allocation address, for drivers holding only
/// the address (e.g. modeling a stale pointer that survived a `put`).
#[track_caller]
pub fn note_access_id(buf: usize, write: bool) {
    if !is_recording() {
        return;
    }
    record(RtEvent::ArenaAccess {
        thread: current_thread(),
        buf,
        write,
        site: Location::caller(),
    });
}

/// Emits a structural order marker. The analyzer folds each logical
/// thread's marker sequence (in program order) into the structure
/// signature, so reduction order that varies with the steal schedule
/// shows up as a `schedule_dependent` finding.
pub fn order_mark(label: &'static str, value: u64) {
    if !is_recording() {
        return;
    }
    record(RtEvent::OrderMark {
        thread: current_thread(),
        label,
        value,
    });
}

/// One claimed chunk in a simulated pool run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimClaim {
    pub participant: usize,
    pub chunk: usize,
    pub region: usize,
    pub steal: bool,
}

/// What one simulated pool run did.
#[derive(Debug, Clone)]
pub struct SimRun {
    /// Job id shared with the recorded events.
    pub job: u64,
    pub total: usize,
    pub participants: usize,
    /// Every executed chunk, in execution order.
    pub claims: Vec<SimClaim>,
    /// Claims taken outside the claimer's own region.
    pub steals: u64,
    /// Chunks left unexecuted by an aborted run.
    pub leaked: usize,
    /// False when the run was aborted before completion.
    pub joined: bool,
}

/// Runs the pool's claim algorithm in simulation: `total` chunks,
/// pre-partitioned into one contiguous region per participant exactly
/// as [`crate::pool`] partitions them, with the *interleaving* chosen
/// by `choose` — at every step, `choose(n)` picks which of the `n`
/// still-active participants advances by one claim. `exec(chunk,
/// participant)` runs the chunk body under logical thread id
/// `base_thread + participant`.
///
/// Mirrors the real pool's claim loop faithfully: each participant
/// scans regions `(p + offset) % regions` for `offset` in
/// `0..regions`, claims the region's next index, and a claim with
/// `offset > 0` is a steal. Every chunk is executed exactly once —
/// the same guarantee the real pool's atomic cursors provide.
pub fn sim_pool_run(
    participants: usize,
    total: usize,
    base_thread: usize,
    choose: &mut dyn FnMut(usize) -> usize,
    exec: &mut dyn FnMut(usize, usize),
) -> SimRun {
    sim_pool_run_bounded(participants, total, base_thread, choose, exec, None)
}

/// [`sim_pool_run`] that can abort after `abort_after` claims to
/// model a pool shutdown mid-job: a `Shutdown` event is recorded
/// instead of `JobJoin`, leaving the job unjoined (the leak the
/// analyzer must flag).
pub fn sim_pool_run_bounded(
    participants: usize,
    total: usize,
    base_thread: usize,
    choose: &mut dyn FnMut(usize) -> usize,
    exec: &mut dyn FnMut(usize, usize),
    abort_after: Option<u64>,
) -> SimRun {
    let participants = participants.clamp(1, total.max(1));
    let regions = participants;
    let per = total.div_ceil(participants).max(1);
    let mut cursors: Vec<usize> = Vec::with_capacity(regions);
    let mut ends: Vec<usize> = Vec::with_capacity(regions);
    for p in 0..regions {
        cursors.push((p * per).min(total));
        ends.push(((p + 1) * per).min(total));
    }
    // Scan offset per participant, exactly as the real claim loop
    // advances through regions.
    let mut offsets = vec![0usize; participants];

    let job = job_submit(total, regions);
    let mut claims: Vec<SimClaim> = Vec::with_capacity(total);
    let mut steals = 0u64;
    let mut executed = 0usize;
    let mut aborted = false;
    let mut active: Vec<usize> = (0..participants).collect();

    'steps: while !active.is_empty() {
        let pick = choose(active.len()) % active.len().max(1);
        let p = active[pick];
        let mut claimed = None;
        while offsets[p] < regions {
            let region = (p + offsets[p]) % regions;
            let i = cursors[region];
            if i >= ends[region] {
                offsets[p] += 1;
                continue;
            }
            cursors[region] = i + 1;
            claimed = Some((i, region, offsets[p] > 0));
            break;
        }
        match claimed {
            None => {
                active.swap_remove(pick);
            }
            Some((chunk, region, steal)) => {
                with_logical_thread(base_thread + p, || {
                    chunk_claim(job, chunk, region, steal);
                    exec(chunk, p);
                    chunk_done(job, chunk);
                });
                claims.push(SimClaim {
                    participant: p,
                    chunk,
                    region,
                    steal,
                });
                steals += steal as u64;
                executed += 1;
                if abort_after.is_some_and(|k| executed as u64 >= k) {
                    aborted = true;
                    break 'steps;
                }
            }
        }
    }

    if aborted {
        pool_shutdown();
    } else {
        job_join(job);
    }
    SimRun {
        job,
        total,
        participants,
        claims,
        steals,
        leaked: total - executed,
        joined: !aborted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_executes_every_chunk_exactly_once() {
        let mut step = 0usize;
        let mut seen = [0u32; 17];
        let run = sim_pool_run(
            3,
            17,
            100,
            &mut |n| {
                step += 1;
                step % n
            },
            &mut |c, _p| seen[c] += 1,
        );
        assert!(run.joined);
        assert_eq!(run.leaked, 0);
        assert_eq!(run.claims.len(), 17);
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn sim_is_deterministic_in_the_choice_sequence() {
        let drive = |salt: usize| {
            let mut step = salt;
            sim_pool_run(
                4,
                23,
                200,
                &mut |n| {
                    step = step.wrapping_mul(6364136223846793005).wrapping_add(1);
                    step % n
                },
                &mut |_c, _p| {},
            )
            .claims
        };
        assert_eq!(drive(7), drive(7));
        assert_ne!(drive(7), drive(8));
    }

    #[test]
    fn round_robin_choice_never_steals_on_even_split() {
        // With participants advancing in lockstep over an evenly
        // divisible space, nobody exhausts their region early.
        let mut step = 0usize;
        let run = sim_pool_run(
            4,
            16,
            300,
            &mut |n| {
                let pick = step % n;
                step += 1;
                pick
            },
            &mut |_c, _p| {},
        );
        assert_eq!(run.steals, 0);
    }

    #[test]
    fn greedy_single_participant_choice_steals_the_rest() {
        // Participant 0 is always picked: it drains its own region,
        // then steals every other region.
        let run = sim_pool_run(3, 9, 400, &mut |_n| 0, &mut |_c, _p| {});
        assert_eq!(run.claims.len(), 9);
        assert_eq!(run.steals, 6);
        assert!(run.claims.iter().all(|c| c.participant == 0));
    }

    /// The events of `job` alone. The session log is process-global:
    /// while a test's session is armed, the pool, arena and sim tests
    /// running beside it in this binary record into the same log —
    /// the sim ones under logical ids of their own — so a test reads
    /// only the job it drove.
    fn of_job(events: Vec<RtEvent>, job: u64) -> Vec<RtEvent> {
        events
            .into_iter()
            .filter(|e| match *e {
                RtEvent::JobSubmit { job: j, .. }
                | RtEvent::ChunkClaim { job: j, .. }
                | RtEvent::ChunkDone { job: j, .. }
                | RtEvent::JobJoin { job: j, .. } => j == job,
                _ => false,
            })
            .collect()
    }

    #[test]
    fn session_records_sim_events_in_order() {
        let session = Session::begin();
        let mut step = 0usize;
        let run = with_logical_thread(9, || {
            sim_pool_run(
                2,
                4,
                50,
                &mut |n| {
                    step += 1;
                    step % n
                },
                &mut |_c, _p| {},
            )
        });
        let events = of_job(session.finish(), run.job);
        assert!(matches!(
            events.first(),
            Some(RtEvent::JobSubmit { thread: 9, .. })
        ));
        assert!(matches!(
            events.last(),
            Some(RtEvent::JobJoin { thread: 9, .. })
        ));
        let dones = events
            .iter()
            .filter(|e| matches!(e, RtEvent::ChunkDone { .. }))
            .count();
        assert_eq!(dones, 4);
    }

    #[test]
    fn aborted_run_records_shutdown_and_leaks() {
        let session = Session::begin();
        let run = with_logical_thread(8, || {
            sim_pool_run_bounded(2, 6, 60, &mut |_n| 0, &mut |_c, _p| {}, Some(2))
        });
        let events = session.finish();
        assert!(!run.joined);
        assert_eq!(run.leaked, 4);
        assert!(events
            .iter()
            .any(|e| matches!(e, RtEvent::Shutdown { thread: 8 })));
        assert!(!of_job(events, run.job)
            .iter()
            .any(|e| matches!(e, RtEvent::JobJoin { .. })));
    }

    #[test]
    fn recording_is_off_outside_sessions() {
        // Holding the gate keeps every session out meanwhile.
        let gate = lock(&SESSION_GATE);
        assert!(!is_recording());
        let logged = lock(&LOG).len();
        record(RtEvent::Shutdown { thread: 0 });
        assert_eq!(lock(&LOG).len(), logged);
        drop(gate);
        let events = Session::begin().finish();
        assert!(!events.iter().any(|e| e.thread() == 0));
    }

    #[test]
    fn logical_ids_nest_and_restore() {
        let auto = current_thread();
        assert!(auto >= AUTO_THREAD_BASE);
        with_logical_thread(3, || {
            assert_eq!(current_thread(), 3);
            with_logical_thread(4, || assert_eq!(current_thread(), 4));
            assert_eq!(current_thread(), 3);
        });
        assert_eq!(current_thread(), auto);
    }
}
