//! The persistent work-stealing thread pool.
//!
//! # Determinism contract
//!
//! Every primitive here guarantees **bit-identical results regardless
//! of worker count**, by construction:
//!
//! * chunk boundaries are a fixed function of `(n, grain)` — never of
//!   the number of workers, the `TUTEL_THREADS` setting, or any
//!   runtime scheduling decision;
//! * each chunk is executed exactly once, by the same serial kernel a
//!   single-threaded run would use;
//! * chunks must write disjoint output (the safe wrappers
//!   [`parallel_chunks`] / [`parallel_ranges`] enforce this by
//!   handing each chunk its own `&mut` sub-slice).
//!
//! Scheduling *is* dynamic (that is the whole point): chunks are
//! pre-partitioned into one contiguous claim region per participant,
//! each participant drains its own region first, and participants
//! that run dry steal from the other regions. Which thread runs a
//! chunk changes between runs; what the chunk computes does not.
//!
//! # Sizing
//!
//! The global pool is created on first use with
//! `TUTEL_THREADS` workers if that environment variable parses as a
//! positive integer, else `std::thread::available_parallelism()`.
//! The calling thread always participates, so a pool of size `w`
//! spawns `w - 1` background workers and `TUTEL_THREADS=1` runs
//! everything inline with zero spawned threads.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Upper bound on pool size; a guard against absurd `TUTEL_THREADS`.
const MAX_THREADS: usize = 256;

/// Cumulative pool counters, exported for telemetry.
///
/// `utilization()` is the fraction of chunks executed by background
/// workers (as opposed to the calling thread) — 0.0 on a 1-thread
/// pool, approaching `(w-1)/w` when jobs split evenly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads in the pool, including the caller's slot.
    pub workers: usize,
    /// Parallel jobs dispatched through the pool (serial fallbacks
    /// are not counted).
    pub jobs: u64,
    /// Chunks executed across all jobs.
    pub chunks: u64,
    /// Chunks executed by background workers (not the calling
    /// thread).
    pub worker_chunks: u64,
    /// Chunks claimed out of another participant's region.
    pub steals: u64,
}

impl PoolStats {
    /// Fraction of chunk executions that ran on background workers.
    pub fn utilization(&self) -> f64 {
        if self.chunks == 0 {
            0.0
        } else {
            self.worker_chunks as f64 / self.chunks as f64
        }
    }
}

#[derive(Default)]
struct Counters {
    jobs: AtomicU64,
    chunks: AtomicU64,
    worker_chunks: AtomicU64,
    steals: AtomicU64,
}

/// One broadcast job: a chunk index space `0..total`, pre-partitioned
/// into `cursors.len()` contiguous claim regions.
struct JobCore {
    /// Erased pointer to the caller's `&(dyn Fn(usize) + Sync)`.
    /// Valid until the caller's `run` returns; `run` blocks until
    /// every chunk has finished executing, and exhausted cursors make
    /// late arrivals skip the task entirely, so the pointer is never
    /// dereferenced after `run` unblocks.
    task: *const (dyn Fn(usize) + Sync),
    /// Claim cursor per region; `fetch_add` hands out chunk indices.
    cursors: Vec<AtomicUsize>,
    /// Fixed `[start, end)` bounds per region.
    bounds: Vec<(usize, usize)>,
    /// Total chunks in the job.
    total: usize,
    /// Chunks fully executed so far; the last one signals `done`.
    completed: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    /// Job id in the race checker's event log.
    #[cfg(feature = "check-race")]
    chk_job: u64,
}

// SAFETY: `task` points at a `Sync` closure and is only dereferenced
// while the owning `run` call keeps it alive (see field docs); all
// other fields are themselves thread-safe.
unsafe impl Send for JobCore {}
unsafe impl Sync for JobCore {}

impl JobCore {
    /// Claims and executes chunks until the job is drained. Returns
    /// `(chunks_run, steals)` for this participant.
    fn participate(&self, who: usize) -> (u64, u64) {
        let regions = self.cursors.len();
        let mut ran = 0u64;
        let mut steals = 0u64;
        for offset in 0..regions {
            let v = (who + offset) % regions;
            let end = self.bounds[v].1;
            loop {
                let i = self.cursors[v].fetch_add(1, Ordering::Relaxed);
                if i >= end {
                    break;
                }
                #[cfg(feature = "check-race")]
                crate::chk::chunk_claim(self.chk_job, i, v, offset > 0);
                // SAFETY: the caller of `run` keeps the closure alive
                // until every chunk completes; we are executing a
                // not-yet-completed chunk.
                unsafe { (*self.task)(i) };
                ran += 1;
                if offset > 0 {
                    steals += 1;
                }
                // Recorded *before* the release-increment below, so in
                // the log's total order every `ChunkDone` precedes the
                // job's `JobJoin` (which follows the acquire-side
                // wait). The analyzer relies on this.
                #[cfg(feature = "check-race")]
                crate::chk::chunk_done(self.chk_job, i);
                if self.completed.fetch_add(1, Ordering::AcqRel) + 1 == self.total {
                    let mut done = lock(&self.done);
                    *done = true;
                    self.done_cv.notify_all();
                }
            }
        }
        (ran, steals)
    }

    fn wait(&self) {
        let mut done = lock(&self.done);
        while !*done {
            done = match self.done_cv.wait(done) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

struct Slot {
    /// Monotonic job epoch; bumps on every broadcast.
    epoch: u64,
    job: Option<Arc<JobCore>>,
}

struct Shared {
    slot: Mutex<Slot>,
    job_cv: Condvar,
    shutdown: AtomicBool,
    counters: Counters,
}

/// Locks a mutex, recovering from poisoning (a panicking worker must
/// not wedge every subsequent GEMM).
fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The pool: `workers - 1` parked background threads plus the calling
/// thread.
pub struct Pool {
    shared: Arc<Shared>,
    workers: usize,
}

impl Pool {
    /// Creates a pool with `workers` total participants (the caller
    /// counts as one; `workers - 1` threads are spawned).
    fn with_workers(workers: usize) -> Pool {
        let workers = workers.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            slot: Mutex::new(Slot {
                epoch: 0,
                job: None,
            }),
            job_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            counters: Counters::default(),
        });
        for w in 1..workers {
            let shared = shared.clone();
            std::thread::Builder::new()
                .name(format!("tutel-rt-{w}"))
                .spawn(move || worker_loop(&shared, w))
                .ok();
        }
        Pool { shared, workers }
    }

    /// Total participants (background workers + the caller's slot).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> PoolStats {
        let c = &self.shared.counters;
        PoolStats {
            workers: self.workers,
            jobs: c.jobs.load(Ordering::Relaxed),
            chunks: c.chunks.load(Ordering::Relaxed),
            worker_chunks: c.worker_chunks.load(Ordering::Relaxed),
            steals: c.steals.load(Ordering::Relaxed),
        }
    }

    /// Broadcasts `task` over chunk indices `0..total` with at most
    /// `max_participants` claim regions, and blocks until every chunk
    /// has executed. Falls back to a serial loop when parallelism is
    /// pointless or unavailable.
    fn run(&self, total: usize, max_participants: usize, task: &(dyn Fn(usize) + Sync)) {
        if total == 0 {
            return;
        }
        let participants = self
            .workers
            .min(max_participants)
            .min(total)
            .min(thread_limit());
        if participants <= 1 || IN_JOB.with(|f| f.get()) {
            for i in 0..total {
                task(i);
            }
            return;
        }

        // Fixed, even partition of the chunk index space into one
        // claim region per participant (scheduling only — chunk
        // boundaries are already fixed by the caller).
        let per = total.div_ceil(participants);
        let mut cursors = Vec::with_capacity(participants);
        let mut bounds = Vec::with_capacity(participants);
        for p in 0..participants {
            let start = (p * per).min(total);
            let end = ((p + 1) * per).min(total);
            cursors.push(AtomicUsize::new(start));
            bounds.push((start, end));
        }
        // SAFETY: the lifetime erasure is sound because `run` waits on
        // `job.wait()` below before returning, so `task` outlives
        // every dereference (see `JobCore::task` docs).
        let task_ptr: *const (dyn Fn(usize) + Sync) = task;
        let job = Arc::new(JobCore {
            task: unsafe {
                std::mem::transmute::<
                    *const (dyn Fn(usize) + Sync),
                    *const (dyn Fn(usize) + Sync + 'static),
                >(task_ptr)
            },
            cursors,
            bounds,
            total,
            completed: AtomicUsize::new(0),
            done: Mutex::new(false),
            done_cv: Condvar::new(),
            #[cfg(feature = "check-race")]
            chk_job: crate::chk::job_submit(total, participants),
        });

        {
            let mut slot = lock(&self.shared.slot);
            slot.epoch += 1;
            slot.job = Some(job.clone());
        }
        self.shared.job_cv.notify_all();

        // The caller participates as region 0.
        IN_JOB.with(|f| f.set(true));
        let (ran, steals) = job.participate(0);
        IN_JOB.with(|f| f.set(false));
        job.wait();
        #[cfg(feature = "check-race")]
        crate::chk::job_join(job.chk_job);

        // Detach the job so parked workers don't re-inspect it.
        {
            let mut slot = lock(&self.shared.slot);
            if slot.job.as_ref().is_some_and(|j| Arc::ptr_eq(j, &job)) {
                slot.job = None;
            }
        }

        let c = &self.shared.counters;
        c.jobs.fetch_add(1, Ordering::Relaxed);
        c.chunks.fetch_add(total as u64, Ordering::Relaxed);
        c.worker_chunks
            .fetch_add(total as u64 - ran, Ordering::Relaxed);
        c.steals.fetch_add(steals, Ordering::Relaxed);
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.job_cv.notify_all();
        #[cfg(feature = "check-race")]
        crate::chk::pool_shutdown();
    }
}

fn worker_loop(shared: &Shared, who: usize) {
    let mut seen_epoch = 0u64;
    loop {
        let job = {
            let mut slot = lock(&shared.slot);
            loop {
                if shared.shutdown.load(Ordering::Relaxed) {
                    return;
                }
                if slot.epoch > seen_epoch {
                    seen_epoch = slot.epoch;
                    break slot.job.clone();
                }
                slot = match shared.job_cv.wait(slot) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
            }
        };
        if let Some(job) = job {
            IN_JOB.with(|f| f.set(true));
            // Worker-run chunk share is derived by the caller as
            // `total - caller_ran`; workers only report steals.
            let (_ran, steals) = job.participate(who);
            IN_JOB.with(|f| f.set(false));
            shared.counters.steals.fetch_add(steals, Ordering::Relaxed);
        }
    }
}

thread_local! {
    /// True while this thread is executing a pool chunk; nested
    /// parallel calls run serially instead of deadlocking.
    static IN_JOB: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Per-thread participant cap installed by
    /// [`with_parallelism_limit`]; `usize::MAX` = no cap.
    static THREAD_LIMIT: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

fn thread_limit() -> usize {
    THREAD_LIMIT.with(|l| l.get()).max(1)
}

static POOL: OnceLock<Pool> = OnceLock::new();

/// Pool size from the environment: `TUTEL_THREADS` if it parses as a
/// positive integer, else the machine's available parallelism.
fn configured_threads() -> usize {
    match std::env::var("TUTEL_THREADS") {
        Ok(v) => match v.trim().parse::<usize>() {
            Ok(n) if n >= 1 => n.min(MAX_THREADS),
            _ => default_threads(),
        },
        Err(_) => default_threads(),
    }
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .min(MAX_THREADS)
}

/// The lazily created global pool.
pub fn global() -> &'static Pool {
    POOL.get_or_init(|| Pool::with_workers(configured_threads()))
}

/// Snapshot of the global pool's cumulative counters (pool size,
/// jobs, chunks, worker share, steals). Creates the pool on first
/// call.
pub fn pool_stats() -> PoolStats {
    global().stats()
}

/// Runs `body` with this thread's pool participation capped at
/// `limit` (1 = fully serial). The determinism suite uses this to
/// sweep effective thread counts inside one process; production code
/// never needs it.
pub fn with_parallelism_limit<R>(limit: usize, body: impl FnOnce() -> R) -> R {
    let prev = THREAD_LIMIT.with(|l| l.replace(limit.max(1)));
    let out = body();
    THREAD_LIMIT.with(|l| l.set(prev));
    out
}

/// Executes `f(start, end)` over the fixed chunk decomposition of
/// `0..n` with chunk length `grain`, in parallel.
///
/// Chunk `i` covers `[i·grain, min(n, (i+1)·grain))` — boundaries
/// depend only on `(n, grain)`, so results are bit-identical for any
/// worker count provided chunks touch disjoint state (the caller's
/// obligation; prefer [`parallel_chunks`] / [`parallel_ranges`],
/// which encode disjointness in the types).
pub fn parallel_for(n: usize, grain: usize, f: impl Fn(usize, usize) + Sync) {
    let grain = grain.max(1);
    let chunks = n.div_ceil(grain);
    global().run(chunks, usize::MAX, &|i| {
        let start = i * grain;
        let end = (start + grain).min(n);
        f(start, end);
    });
}

/// Splits `data` into fixed chunks of `chunk_len` elements (last one
/// shorter) and runs `f(chunk_index, chunk)` over them in parallel.
/// Each chunk is a disjoint `&mut` sub-slice, so the disjointness
/// half of the determinism contract holds by construction. Chunk `i`'s
/// bounds are computed where it runs, so the call allocates no range
/// list.
pub fn parallel_chunks<T: Send>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    let chunk_len = chunk_len.max(1);
    let base = SendPtr(data.as_mut_ptr());
    global().run(len.div_ceil(chunk_len), usize::MAX, &|i| {
        let (s, e) = (i * chunk_len, ((i + 1) * chunk_len).min(len));
        // SAFETY: chunk `i` is `s..e`, inside `data` since `s < len`
        // for every `i` below `len.div_ceil(chunk_len)`, the chunks are
        // disjoint, and each index runs exactly once, so this `&mut`
        // sub-slice aliases nothing.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
    });
}

/// [`parallel_chunks`] over two buffers in step: chunk `i` of `a`
/// (`a_len` elements, the last one shorter) and chunk `i` of `b`
/// (`b_len`, likewise) go to the same `f(i, a_chunk, b_chunk)` call —
/// a job that writes one buffer's rows and its own slab of another, a
/// per-job partial sum, say. Disjoint by construction, as
/// [`parallel_chunks`] is.
///
/// # Panics
///
/// If the two buffers split into different numbers of chunks.
pub fn parallel_chunks_zip<A: Send, B: Send>(
    (a, a_len): (&mut [A], usize),
    (b, b_len): (&mut [B], usize),
    f: impl Fn(usize, &mut [A], &mut [B]) + Sync,
) {
    let (a_len, b_len) = (a_len.max(1), b_len.max(1));
    let (na, nb) = (a.len(), b.len());
    let chunks = na.div_ceil(a_len);
    assert_eq!(
        chunks,
        nb.div_ceil(b_len),
        "parallel_chunks_zip: {na} / {a_len} and {nb} / {b_len} make different chunk counts"
    );
    let (pa, pb) = (SendPtr(a.as_mut_ptr()), SendPtr(b.as_mut_ptr()));
    global().run(chunks, usize::MAX, &|i| {
        let (sa, ea) = (i * a_len, ((i + 1) * a_len).min(na));
        let (sb, eb) = (i * b_len, ((i + 1) * b_len).min(nb));
        // SAFETY: as in `parallel_chunks`, per buffer: chunk `i` of each
        // lies inside it (`i` is below both chunk counts, which are
        // equal), the chunks of one buffer are disjoint, the buffers are
        // distinct `&mut` borrows, and each index runs exactly once.
        let (ca, cb) = unsafe {
            (
                std::slice::from_raw_parts_mut(pa.get().add(sa), ea - sa),
                std::slice::from_raw_parts_mut(pb.get().add(sb), eb - sb),
            )
        };
        f(i, ca, cb);
    });
}

/// Runs `f(range_index, &mut data[start..end])` over caller-defined
/// ranges in parallel. Ranges must be sorted, in-bounds, and
/// non-overlapping; if they are not, the call degrades to a serial
/// loop over the valid prefix (never aliasing, never panicking).
pub fn parallel_ranges<T: Send>(
    data: &mut [T],
    ranges: &[(usize, usize)],
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let len = data.len();
    let disjoint = ranges.windows(2).all(|w| w[0].1 <= w[1].0)
        && ranges.iter().all(|&(s, e)| s <= e && e <= len);
    if !disjoint {
        // Serial fallback: reborrow per range, skipping invalid ones.
        for (i, &(s, e)) in ranges.iter().enumerate() {
            if s <= e && e <= len {
                f(i, &mut data[s..e]);
            }
        }
        return;
    }
    let base = SendPtr(data.as_mut_ptr());
    global().run(ranges.len(), usize::MAX, &|i| {
        let (s, e) = ranges[i];
        // SAFETY: ranges are validated sorted/non-overlapping/
        // in-bounds above, and each index `i` is executed exactly
        // once, so this `&mut` sub-slice aliases nothing.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
    });
}

/// [`parallel_ranges`] over two buffers in one job: range `i` of
/// `ranges` lies in `first` for `i < split` and in `second` from
/// `split` on, and `f(i, chunk)` runs once per range. Each half must be
/// sorted, in bounds and non-overlapping in its buffer; if one is not,
/// the call degrades to a serial loop over the valid ranges, as
/// [`parallel_ranges`] does. A launch whose jobs write either the
/// output or a scratch partial (a split reduction, say) so stays one
/// pool job.
pub fn parallel_ranges_pair<T: Send>(
    first: &mut [T],
    second: &mut [T],
    ranges: &[(usize, usize)],
    split: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let split = split.min(ranges.len());
    let valid = |rs: &[(usize, usize)], len: usize| {
        rs.windows(2).all(|w| w[0].1 <= w[1].0) && rs.iter().all(|&(s, e)| s <= e && e <= len)
    };
    let (lo, hi) = ranges.split_at(split);
    if !valid(lo, first.len()) || !valid(hi, second.len()) {
        for (i, &(s, e)) in ranges.iter().enumerate() {
            let data = if i < split { &mut *first } else { &mut *second };
            if s <= e && e <= data.len() {
                f(i, &mut data[s..e]);
            }
        }
        return;
    }
    let bases = [SendPtr(first.as_mut_ptr()), SendPtr(second.as_mut_ptr())];
    global().run(ranges.len(), usize::MAX, &|i| {
        let (s, e) = ranges[i];
        let base = &bases[usize::from(i >= split)];
        // SAFETY: each half's ranges are validated sorted/non-overlapping/
        // in-bounds in its own buffer above, the buffers are distinct
        // `&mut` borrows, and each index `i` is executed exactly once, so
        // this `&mut` sub-slice aliases nothing.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(s), e - s) };
        f(i, chunk);
    });
}

/// Buffers written *beside* a primary one from inside pool chunks:
/// [`split`](Self::split) trades a chunk `&mut primary[s..e]` for the
/// chunk plus `&mut other[s..e]` of every other buffer. A chunk job of
/// [`parallel_ranges`] over the primary can so fill several outputs
/// over its own range — an epilogue storing an activation beside its
/// input, say — with disjointness still proven by the types: the
/// ranges are read off the chunk's address, and live `&mut` chunks
/// never overlap. Ranges are counted in elements, so the other
/// buffers may hold another element type `T` than the primary's `P`
/// (indices beside values).
///
/// ```
/// let mut primary = vec![1.0f32; 64];
/// let (mut twice, mut thrice) = (vec![0.0f32; 64], vec![0.0f32; 64]);
/// let beside = tutel_rt::SameRanges::new(&primary, [&mut twice, &mut thrice]);
/// tutel_rt::parallel_chunks(&mut primary, 16, |_, chunk| {
///     let (chunk, [two, three]) = beside.split(chunk);
///     for ((v, t2), t3) in chunk.iter_mut().zip(two).zip(three) {
///         (*t2, *t3) = (2.0 * *v, 3.0 * *v);
///         *v = 0.0;
///     }
/// });
/// assert_eq!((twice[5], thrice[63], primary[0]), (2.0, 3.0, 0.0));
/// ```
pub struct SameRanges<'a, T, const N: usize, P = T> {
    /// Address and element length of the primary buffer.
    base: usize,
    len: usize,
    /// Elements per row of the primary and of every other buffer.
    primary_row: usize,
    other_row: usize,
    /// The other buffers, each `other_row` elements per primary row,
    /// borrowed for `'a`.
    others: [*mut T; N],
    _borrow: std::marker::PhantomData<&'a mut [T]>,
    /// Only the primary's address is kept, never its elements.
    _primary: std::marker::PhantomData<fn(&[P])>,
}

// `P` needs no bound: no primary element is ever touched through it.
//
// SAFETY: the pointers come from `&'a mut [T]` borrows held for `'a`,
// and `split` hands out only ranges matching a live, exclusive chunk
// of the primary, so concurrent callers touch disjoint elements — the
// `parallel_ranges` argument. Elements are mutated (and so sent)
// across threads, hence `T: Send` for both.
unsafe impl<T: Send, const N: usize, P> Send for SameRanges<'_, T, N, P> {}
// SAFETY: as above.
unsafe impl<T: Send, const N: usize, P> Sync for SameRanges<'_, T, N, P> {}

impl<'a, T, const N: usize, P> SameRanges<'a, T, N, P> {
    /// Pairs `others` with `primary`'s element ranges.
    ///
    /// # Panics
    ///
    /// If an `others` buffer's length differs from `primary`'s, or `T`
    /// or `P` is zero-sized.
    pub fn new(primary: &[P], others: [&'a mut [T]; N]) -> Self {
        Self::with_rows(primary, 1, others, 1)
    }

    /// Pairs `others` with `primary` row by row: the primary holds rows
    /// of `primary_row` elements and each other buffer rows of
    /// `other_row`, so [`split`](Self::split) trades a chunk of whole
    /// primary rows for the same rows of every other buffer — a block
    /// of `(T, E)` probabilities for its `(T, k)` top-k slots, say.
    ///
    /// # Panics
    ///
    /// If `primary_row` is zero or does not divide `primary`'s length,
    /// if an `others` buffer does not hold `other_row` elements per
    /// primary row, or if `T` or `P` is zero-sized.
    pub fn with_rows(
        primary: &[P],
        primary_row: usize,
        others: [&'a mut [T]; N],
        other_row: usize,
    ) -> Self {
        assert!(
            std::mem::size_of::<T>() > 0 && std::mem::size_of::<P>() > 0,
            "SameRanges needs sized elements"
        );
        assert!(
            primary_row > 0 && primary.len().is_multiple_of(primary_row),
            "SameRanges: the primary is not whole rows of {primary_row}"
        );
        let rows = primary.len() / primary_row;
        assert!(
            others.iter().all(|o| o.len() == rows * other_row),
            "SameRanges buffers must all hold the primary's rows"
        );
        SameRanges {
            base: primary.as_ptr() as usize,
            len: primary.len(),
            primary_row,
            other_row,
            others: others.map(|o| o.as_mut_ptr()),
            _borrow: std::marker::PhantomData,
            _primary: std::marker::PhantomData,
        }
    }

    /// `chunk`, a sub-slice of the primary buffer, back along with
    /// every other buffer's elements over the same rows.
    ///
    /// # Panics
    ///
    /// If a non-empty `chunk` does not lie on the primary's elements or
    /// is not whole rows of it.
    pub fn split<'c>(&'c self, chunk: &'c mut [P]) -> (&'c mut [P], [&'c mut [T]; N]) {
        if chunk.is_empty() {
            return (chunk, std::array::from_fn(|_| <&mut [T]>::default()));
        }
        let size = std::mem::size_of::<P>();
        let offset = (chunk.as_ptr() as usize).wrapping_sub(self.base);
        let start = offset / size;
        assert!(
            offset.is_multiple_of(size) && start <= self.len && chunk.len() <= self.len - start,
            "SameRanges::split: the chunk is not part of the primary buffer"
        );
        let row = self.primary_row;
        assert!(
            start.is_multiple_of(row) && chunk.len().is_multiple_of(row),
            "SameRanges::split: the chunk is not whole rows of {row}"
        );
        let (first, len) = (
            start / row * self.other_row,
            chunk.len() / row * self.other_row,
        );
        let others = self.others.map(|p| {
            // SAFETY: in bounds by the checks above and in `with_rows`,
            // in a buffer `'a` keeps borrowed; exclusive because `chunk`
            // is a live `&mut` over the same rows of the primary for `'c`
            // and no other live chunk overlaps them, so no other `split`
            // hands them out.
            unsafe { std::slice::from_raw_parts_mut(p.add(first), len) }
        });
        (chunk, others)
    }
}

/// Raw-pointer wrapper that may cross threads; disjointness is
/// guaranteed by the caller ([`parallel_chunks`], [`parallel_ranges`]).
struct SendPtr<T>(*mut T);
// SAFETY: only the `parallel_*` fns make a `SendPtr`, each handing
// every chunk a pointer into ranges that are disjoint (by construction
// or checked before the job is submitted), so no two threads touch the
// same elements; the payload itself is `T: Send`.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Method (not field) access, so closures capture the whole
    /// wrapper and inherit its `Sync` instead of the raw `*mut T`.
    fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn parallel_for_covers_every_index_once() {
        let n = 1000;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        parallel_for(n, 7, |start, end| {
            for h in &hits[start..end] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_chunks_partitions_exactly() {
        let mut data = vec![0u32; 103];
        parallel_chunks(&mut data, 10, |i, chunk| {
            for v in chunk.iter_mut() {
                *v = i as u32 + 1;
            }
        });
        assert!(data.iter().all(|&v| v != 0));
        assert_eq!(data[0], 1);
        assert_eq!(data[102], 11);
    }

    #[test]
    fn results_identical_across_limits() {
        let n = 4096usize;
        let run = |limit: usize| {
            with_parallelism_limit(limit, || {
                let mut out = vec![0f32; n];
                parallel_chunks(&mut out, 64, |_, chunk| {
                    for v in chunk.iter_mut() {
                        *v = 1.5;
                    }
                });
                out
            })
        };
        let reference = run(1);
        for limit in [2, 4, 8] {
            assert_eq!(run(limit), reference, "limit {limit}");
        }
    }

    #[test]
    fn invalid_ranges_fall_back_to_serial() {
        let mut data = vec![0u8; 10];
        // Overlapping on purpose.
        parallel_ranges(&mut data, &[(0, 6), (4, 10)], |_, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
        });
        // Serial fallback executed both ranges; overlap region got 2.
        assert_eq!(data[5], 2);
        assert_eq!(data[0], 1);
        assert_eq!(data[9], 1);
    }

    #[test]
    fn same_ranges_pairs_every_chunk_with_its_range_and_nothing_else() {
        // A wider element type beside the primary: ranges are counted
        // in elements, not bytes.
        let mut primary: Vec<u32> = (0..1000).collect();
        let mut copy = vec![0u64; 1000];
        {
            let beside = SameRanges::new(&primary, [&mut copy]);
            let ranges = [(0, 3), (3, 3), (10, 500), (500, 1000)];
            parallel_ranges(&mut primary, &ranges, |_, chunk| {
                let (chunk, [copy]) = beside.split(chunk);
                copy.iter_mut()
                    .zip(chunk)
                    .for_each(|(c, &mut p)| *c = u64::from(p));
            });
        }
        // Elements 3..10 lie in no range: untouched beside as well.
        assert!(copy[..3].iter().zip(0..).all(|(&c, i)| c == i));
        assert!(copy[3..10].iter().all(|&c| c == 0));
        assert!(copy[10..].iter().zip(10..).all(|(&c, i)| c == i));
    }

    #[test]
    #[should_panic(expected = "not part of the primary")]
    fn same_ranges_rejects_a_chunk_of_another_buffer() {
        let primary = vec![0u8; 8];
        let (mut other, mut stranger) = (vec![0u8; 8], vec![0u8; 8]);
        let beside = SameRanges::new(&primary, [&mut other]);
        beside.split(&mut stranger[2..4]);
    }

    #[test]
    fn same_ranges_by_rows_hands_each_chunk_its_rows() {
        // Rows of 5 in the primary, of 2 beside it: a chunk of primary
        // rows 3..7 gets rows 3..7 of the other buffer.
        let mut primary: Vec<f32> = (0..50).map(|v| v as f32).collect();
        let mut slots = vec![0u32; 20];
        {
            let beside = SameRanges::with_rows(&primary, 5, [&mut slots], 2);
            parallel_ranges(&mut primary, &[(0, 15), (15, 35)], |_, chunk| {
                let (chunk, [slots]) = beside.split(chunk);
                assert_eq!(slots.len(), chunk.len() / 5 * 2);
                for (row, two) in chunk.chunks(5).zip(slots.chunks_mut(2)) {
                    two.fill(row[0] as u32 / 5);
                }
            });
        }
        let want: Vec<u32> = (0..20).map(|i| if i < 14 { i / 2 } else { 0 }).collect();
        assert_eq!(slots, want);
    }

    #[test]
    #[should_panic(expected = "not whole rows")]
    fn same_ranges_by_rows_rejects_a_partial_row() {
        let mut primary = vec![0u8; 12];
        let mut other = vec![0u8; 4];
        let beside = SameRanges::with_rows(&primary, 3, [&mut other], 1);
        beside.split(&mut primary[3..5]);
    }

    #[test]
    fn ranges_pair_runs_each_range_once_in_its_own_buffer() {
        let (mut first, mut second) = (vec![0u32; 10], vec![0u32; 6]);
        let ranges = [(0, 4), (4, 10), (0, 2), (2, 6)];
        parallel_ranges_pair(&mut first, &mut second, &ranges, 2, |i, chunk| {
            chunk.iter_mut().for_each(|v| *v += i as u32 + 1);
        });
        assert_eq!(first, [1, 1, 1, 1, 2, 2, 2, 2, 2, 2]);
        assert_eq!(second, [3, 3, 4, 4, 4, 4]);
        // An overlap in one half degrades to the serial loop.
        parallel_ranges_pair(
            &mut first,
            &mut second,
            &[(0, 3), (2, 4), (0, 6)],
            2,
            |_, c| {
                c.iter_mut().for_each(|v| *v += 10);
            },
        );
        assert_eq!(first[..5], [11, 11, 21, 11, 2]);
        assert_eq!(second, [13, 13, 14, 14, 14, 14]);
    }

    #[test]
    fn nested_parallelism_runs_serially_without_deadlock() {
        let n = 64;
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        parallel_for(n, 4, |s, e| {
            // Nested call must not deadlock on the single job slot.
            parallel_for(e - s, 2, |s2, e2| {
                for i in s2..e2 {
                    hits[s + i].fetch_add(1, Ordering::Relaxed);
                }
            });
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn stats_accumulate() {
        let before = pool_stats();
        let mut data = vec![0u8; 100_000];
        parallel_chunks(&mut data, 100, |_, c| c.fill(1));
        let after = pool_stats();
        assert!(after.chunks >= before.chunks);
        assert!(after.workers >= 1);
        let _ = after.utilization();
    }
}
