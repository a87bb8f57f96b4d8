//! Happens-before race & arena-aliasing checker for the `rt` runtime,
//! on the `check::explore` framework.
//!
//! ## Clock model
//!
//! [`analyze`] replays a recorded [`RtEvent`] log with one vector
//! clock per thread, ticking the local component on every event and
//! joining clocks along the runtime's synchronization edges:
//!
//! * `JobSubmit → ChunkClaim` — a claimer observes everything the
//!   submitter had done at submission;
//! * `ChunkDone → JobJoin` — the joiner observes every chunk's work
//!   (each `ChunkDone` joins into the job's completion clock, which
//!   `JobJoin` joins from);
//! * `ArenaPut → recycled ArenaTake` — a recycled buffer carries the
//!   putter's clock to the taker.
//!
//! Two accesses to the same buffer with *concurrent* clocks and no
//! ownership justification are a race.
//!
//! ## Arena shadow state
//!
//! Every buffer address seen in the log runs a two-state ownership
//! machine — `Owned(thread, take-clock, take-site)` after a take,
//! `Free(put-clock, put-site)` after a retained put — and each event
//! is checked against it: a recycled take of an `Owned` buffer is a
//! double checkout, a put of a `Free` buffer is a double put, an
//! access probe on a `Free` buffer is a use-after-put, and an access
//! by a non-owner that does **not** happen-after the owner's take is
//! a use-after-recycle. Evicted puts and `Arena::clear` *forget*
//! shadows instead (the allocator may reuse those addresses), and a
//! fresh (non-recycled) take unconditionally resets the shadow for
//! the same reason. One driver obligation follows from address-based
//! tracking: checked drivers must `put` back every taken buffer
//! rather than dropping it, or its stale `Owned` shadow could
//! misattribute a later allocation at the same address.
//!
//! Thread hygiene: leak checks and structure signatures consider only
//! *logical* threads (ids below [`AUTO_THREAD_BASE`], i.e. the
//! checked workload), so unrelated traffic recorded mid-session can
//! never produce a false finding.
//!
//! ## Combined surface
//!
//! [`combined_run`] drives `core::overlap`'s two-stream executor over
//! the seeded comm scheduler while each chunk's compute runs on the
//! *simulated* pool with a steal order drawn from the same seed — one
//! sweep explores compute and comm interleavings together. Per-seed
//! structure signatures (chunk grids, overlap order marks, output
//! bits) assert the determinism contract structurally via
//! [`sweep_seeds`].
//!
//! ## Selftests
//!
//! Three intentionally planted bugs prove the checker has teeth, each
//! named with a replayable seed: [`bug_use_after_put`] (a stale
//! reference outlives a put), [`bug_stolen_reduction`] (a reduction
//! folded in claim order), and [`bug_shutdown_leak`] (a pool shutdown
//! strands an unjoined job).

use std::collections::BTreeMap;

use tutel_comm::sched::run_sched;
use tutel_comm::{AllToAllAlgo, Topology};
use tutel_explore::{derive_seed, sweep_seeds, Chooser, Finding, SeedRun, SigHash, VClock};
use tutel_rt::chk::{self, RtEvent, AUTO_THREAD_BASE};

/// What [`analyze`] extracted from one event log.
#[derive(Debug)]
pub struct RaceAnalysis {
    /// Happens-before, aliasing, and leak findings.
    pub findings: Vec<Finding>,
    /// Schedule-independent structural signature: per logical thread
    /// (in id order), its job grids and order marks in program order.
    pub structure: u64,
    /// Events analyzed.
    pub events: usize,
}

fn site_str(site: chk::Site) -> String {
    format!("{}:{}", site.file(), site.line())
}

fn is_logical(thread: usize) -> bool {
    thread < AUTO_THREAD_BASE
}

fn label(thread: usize) -> String {
    if is_logical(thread) {
        format!("logical thread {thread}")
    } else {
        format!("worker thread #{}", thread - AUTO_THREAD_BASE)
    }
}

/// Per-buffer ownership shadow state.
enum Shadow {
    /// Checked out: `(owner thread id, clock at take, take site)`.
    Owned(usize, VClock, String),
    /// Retained in an arena: `(clock at put, put site)`.
    Free(VClock, String),
}

struct JobState {
    total: usize,
    submitter: usize,
    submit: VClock,
    claimed: BTreeMap<usize, usize>,
    done: BTreeMap<usize, usize>,
    completion: VClock,
    joined: bool,
}

/// Dense per-thread clock registry.
#[derive(Default)]
struct Threads {
    ids: Vec<usize>,
    clocks: Vec<VClock>,
}

impl Threads {
    fn index(&mut self, id: usize) -> usize {
        if let Some(i) = self.ids.iter().position(|&t| t == id) {
            return i;
        }
        self.ids.push(id);
        self.clocks.push(VClock::new());
        self.ids.len() - 1
    }
}

/// Replays `events` through the clock model and shadow machine;
/// `seed` stamps every finding for replay.
pub fn analyze(events: &[RtEvent], seed: u64) -> RaceAnalysis {
    let mut threads = Threads::default();
    let mut jobs: BTreeMap<u64, JobState> = BTreeMap::new();
    let mut buffers: BTreeMap<usize, Shadow> = BTreeMap::new();
    let mut sigs: BTreeMap<usize, SigHash> = BTreeMap::new();
    let mut findings: Vec<Finding> = Vec::new();

    for ev in events {
        let id = ev.thread();
        let ti = threads.index(id);
        threads.clocks[ti].tick(ti);
        match *ev {
            RtEvent::JobSubmit {
                thread,
                job,
                total,
                regions,
            } => {
                jobs.insert(
                    job,
                    JobState {
                        total,
                        submitter: thread,
                        submit: threads.clocks[ti].clone(),
                        claimed: BTreeMap::new(),
                        done: BTreeMap::new(),
                        completion: VClock::new(),
                        joined: false,
                    },
                );
                if is_logical(thread) {
                    let sig = sigs.entry(thread).or_default();
                    sig.mix_str("grid");
                    sig.mix_many(&[total as u64, regions as u64]);
                }
            }
            RtEvent::ChunkClaim {
                thread, job, chunk, ..
            } => {
                let Some(st) = jobs.get_mut(&job) else {
                    continue; // submitted before the session began
                };
                // JobSubmit → ChunkClaim edge.
                threads.clocks[ti].join(&st.submit);
                if let Some(prev) = st.claimed.insert(chunk, thread) {
                    findings.push(Finding::new(
                        "race",
                        seed,
                        format!(
                            "job {job}: chunk {chunk} claimed twice ({} then {})",
                            label(prev),
                            label(thread)
                        ),
                    ));
                }
            }
            RtEvent::ChunkDone { thread, job, chunk } => {
                let Some(st) = jobs.get_mut(&job) else {
                    continue;
                };
                st.completion.join(&threads.clocks[ti]);
                if let Some(prev) = st.done.insert(chunk, thread) {
                    findings.push(Finding::new(
                        "race",
                        seed,
                        format!(
                            "job {job}: chunk {chunk} executed twice ({} then {})",
                            label(prev),
                            label(thread)
                        ),
                    ));
                }
                if st.joined {
                    findings.push(Finding::new(
                        "race",
                        seed,
                        format!(
                            "job {job}: chunk {chunk} finished on {} after the \
                             submitter's join returned — the task closure was \
                             dereferenced outside its guaranteed lifetime",
                            label(thread)
                        ),
                    ));
                }
            }
            RtEvent::JobJoin { job, .. } => {
                let Some(st) = jobs.get_mut(&job) else {
                    continue;
                };
                st.joined = true;
                // ChunkDone → JobJoin edge (via the completion clock).
                let completion = st.completion.clone();
                threads.clocks[ti].join(&completion);
                if st.done.len() < st.total {
                    findings.push(Finding::new(
                        "race",
                        seed,
                        format!(
                            "job {job}: join returned with only {}/{} chunks executed",
                            st.done.len(),
                            st.total
                        ),
                    ));
                }
            }
            RtEvent::ArenaTake {
                thread,
                buf,
                recycled,
                site,
                ..
            } => {
                let site = site_str(site);
                if recycled {
                    match buffers.get(&buf) {
                        Some(Shadow::Free(put_clock, _)) => {
                            // ArenaPut → recycled ArenaTake edge.
                            let put_clock = put_clock.clone();
                            threads.clocks[ti].join(&put_clock);
                        }
                        Some(Shadow::Owned(owner, _, take_site)) => {
                            findings.push(
                                Finding::new(
                                    "arena_alias",
                                    seed,
                                    format!(
                                        "buffer {buf:#x} recycled to {} while still \
                                         checked out by {} — two owners alias one \
                                         allocation",
                                        label(thread),
                                        label(*owner)
                                    ),
                                )
                                .with_sites(vec![site.clone(), take_site.clone()]),
                            );
                        }
                        // Recycled from pre-session stock: no edge to
                        // establish.
                        None => {}
                    }
                }
                // Fresh takes reset unconditionally: the allocator may
                // hand back an address whose previous life the log saw.
                buffers.insert(buf, Shadow::Owned(thread, threads.clocks[ti].clone(), site));
            }
            RtEvent::ArenaPut {
                thread,
                buf,
                retained,
                site,
                ..
            } => {
                let site = site_str(site);
                if let Some(Shadow::Free(_, prev_site)) = buffers.get(&buf) {
                    findings.push(
                        Finding::new(
                            "arena_alias",
                            seed,
                            format!(
                                "buffer {buf:#x} returned twice with no intervening \
                                 take (second return by {})",
                                label(thread)
                            ),
                        )
                        .with_sites(vec![site.clone(), prev_site.clone()]),
                    );
                }
                if retained {
                    buffers.insert(buf, Shadow::Free(threads.clocks[ti].clone(), site));
                } else {
                    // Evicted: freed back to the allocator; the address
                    // no longer names this buffer.
                    buffers.remove(&buf);
                }
            }
            RtEvent::ArenaClear { .. } => {
                // Every retained buffer was freed; forget all Free
                // shadows (checked-out buffers are unaffected).
                buffers.retain(|_, s| matches!(s, Shadow::Owned(..)));
            }
            RtEvent::ArenaAccess {
                thread,
                buf,
                write,
                site,
            } => {
                let verb = if write { "wrote" } else { "read" };
                match buffers.get(&buf) {
                    Some(Shadow::Free(_, put_site)) => {
                        findings.push(
                            Finding::new(
                                "arena_alias",
                                seed,
                                format!(
                                    "{} {verb} buffer {buf:#x} after it was returned \
                                     to the arena (use-after-put)",
                                    label(thread)
                                ),
                            )
                            .with_sites(vec![site_str(site), put_site.clone()]),
                        );
                    }
                    // A non-owner access is fine only if it
                    // happens-after the owner's take (e.g. a pool
                    // worker filling the owner's buffer inside a job
                    // the owner submitted after taking it).
                    Some(Shadow::Owned(owner, take_clock, take_site))
                        if *owner != id && !take_clock.leq(&threads.clocks[ti]) =>
                    {
                        findings.push(
                            Finding::new(
                                "arena_alias",
                                seed,
                                format!(
                                    "{} {verb} buffer {buf:#x} concurrently with \
                                     its checkout by {} (use-after-recycle: no \
                                     happens-before edge from the take)",
                                    label(thread),
                                    label(*owner)
                                ),
                            )
                            .with_sites(vec![site_str(site), take_site.clone()]),
                        );
                    }
                    Some(Shadow::Owned(..)) | None => {}
                }
            }
            RtEvent::OrderMark {
                thread,
                label: mark,
                value,
            } => {
                if is_logical(thread) {
                    let sig = sigs.entry(thread).or_default();
                    sig.mix_str(mark);
                    sig.mix(value);
                }
            }
            RtEvent::Shutdown { .. } => {}
        }
    }

    // A job submitted by the checked workload and never joined is a
    // worker leak: the pool went down (or the log ended) with the
    // submitter still owed chunks.
    for (job, st) in &jobs {
        if is_logical(st.submitter) && !st.joined {
            findings.push(Finding::new(
                "leak",
                seed,
                format!(
                    "job {job} (submitted by {}) was never joined: {}/{} chunks \
                     executed when the run ended — worker leak at shutdown",
                    label(st.submitter),
                    st.done.len(),
                    st.total
                ),
            ));
        }
    }

    let mut structure = SigHash::new();
    for (thread, sig) in &sigs {
        structure.mix(*thread as u64);
        structure.mix(sig.value());
    }
    RaceAnalysis {
        findings,
        structure: structure.value(),
        events: events.len(),
    }
}

/// Shape of the combined overlap+pool+comm surface.
#[derive(Debug, Clone, Copy)]
pub struct RaceConfig {
    pub nnodes: usize,
    pub gpus_per_node: usize,
    /// Overlap pipeline degree (chunks per rank).
    pub degree: usize,
    /// Elements each rank sends to each peer per chunk.
    pub per: usize,
    /// Simulated pool participants per compute call.
    pub sim_workers: usize,
    /// Elements per simulated pool chunk.
    pub grain: usize,
}

impl Default for RaceConfig {
    fn default() -> RaceConfig {
        RaceConfig {
            nnodes: 2,
            gpus_per_node: 2,
            degree: 2,
            per: 3,
            sim_workers: 3,
            grain: 2,
        }
    }
}

/// Runs the combined surface once under `seed`: `core::overlap`'s
/// two-stream executor on every rank of the seeded comm scheduler,
/// with each chunk's FFN stand-in parallelized on the simulated pool
/// whose steal order is drawn from the same seed (per-rank/per-chunk
/// sub-streams via [`derive_seed`]). Returns the [`SeedRun`] for
/// [`sweep_seeds`]: comm deliveries + sim claim sequences as the
/// schedule signature, grids + order marks + output bits as the
/// structure signature, and any analyzer or scheduler defect as
/// findings.
pub fn combined_run(cfg: &RaceConfig, seed: u64) -> SeedRun {
    let topo = Topology::new(cfg.nnodes, cfg.gpus_per_node);
    let world = topo.world_size();
    let session = chk::Session::begin();
    let (results, report) = run_sched(topo, seed, None, |comm| {
        let rank = comm.rank();
        chk::with_logical_thread(rank + 1, || {
            // [chunk][destination]: `per` labeled elements each.
            let input: Vec<Vec<Vec<f32>>> = (0..cfg.degree)
                .map(|c| {
                    (0..world)
                        .map(|d| {
                            (d * cfg.per..(d + 1) * cfg.per)
                                .map(|j| (rank * 1000 + c * 100 + j) as f32 * 1e-3)
                                .collect()
                        })
                        .collect()
                })
                .collect();
            tutel::overlap::run_overlapped(comm, AllToAllAlgo::Linear, input, |_, i, received| {
                Ok(compute_on_sim_pool(cfg, seed, rank, i, received))
            })
        })
    });
    let events = session.finish();
    let mut analysis = analyze(&events, seed);
    let mut findings = std::mem::take(&mut analysis.findings);

    // Schedule signature: the comm delivery fold plus each logical
    // thread's claim sequence in its own program order (per-thread
    // subsequences are schedule-chosen but deterministic per seed).
    let mut sig = SigHash::new();
    sig.mix(report.signature);
    let mut claim_threads: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            RtEvent::ChunkClaim { thread, .. } if is_logical(*thread) => Some(*thread),
            _ => None,
        })
        .collect();
    claim_threads.sort_unstable();
    claim_threads.dedup();
    for t in claim_threads {
        sig.mix(t as u64);
        for ev in &events {
            if let RtEvent::ChunkClaim {
                thread,
                chunk,
                region,
                steal,
                ..
            } = ev
            {
                if *thread == t {
                    sig.mix_many(&[*chunk as u64, *region as u64, u64::from(*steal)]);
                }
            }
        }
    }

    // Structure signature: analyzer folds (grids + order marks) plus
    // every rank's combined output bits in rank/chunk order.
    let mut structure = SigHash::new();
    structure.mix(analysis.structure);
    if let Some(d) = &report.deadlock {
        findings.push(Finding::new(
            "deadlock",
            seed,
            format!("combined surface wedged: {d}"),
        ));
    }
    if report.undelivered > 0 {
        findings.push(Finding::new(
            "message-leak",
            seed,
            format!("{} message(s) undelivered at run end", report.undelivered),
        ));
    }
    for (rank, parked) in &report.mailbox_leaks {
        findings.push(Finding::new(
            "mailbox-leak",
            seed,
            format!("rank {rank} returned with {parked} parked message(s)"),
        ));
    }
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(e) => findings.push(Finding::new(
                "rank-error",
                seed,
                format!("rank {rank}: {e}"),
            )),
            Ok(run) => {
                for v in run.combined.iter().flatten().flatten() {
                    structure.mix(u64::from(v.to_bits()));
                }
            }
        }
    }

    SeedRun {
        signature: sig.value(),
        structure: structure.value(),
        findings,
    }
}

/// The per-chunk compute stand-in: takes an output buffer from the
/// global arena, fills it from the received buffers (flattened in
/// source order) on the simulated pool under a seed-derived steal
/// schedule, and hands it back cut into `per`-element buffers, one per
/// destination.
fn compute_on_sim_pool(
    cfg: &RaceConfig,
    seed: u64,
    rank: usize,
    chunk_idx: usize,
    received: Vec<Vec<f32>>,
) -> Vec<Vec<f32>> {
    let flex = received.concat();
    chk::note_access(&flex, false);
    let n = flex.len();
    let mut out = tutel_rt::arena().take_raw(n);
    let out_id = out.as_ptr() as usize;
    let salt = ((rank as u64) << 8) | chunk_idx as u64;
    let mut chooser = Chooser::new(derive_seed(seed, salt));
    let grain = cfg.grain.max(1);
    let chunks = n.div_ceil(grain);
    let base_thread = 1000 + rank * 100 + chunk_idx * 10;
    {
        let flex_ref: &[f32] = &flex;
        let out_slice: &mut [f32] = &mut out;
        chk::sim_pool_run(
            cfg.sim_workers,
            chunks,
            base_thread,
            &mut |k| chooser.choose(k),
            &mut |c, _p| {
                chk::note_access_id(out_id, true);
                let s = c * grain;
                let e = (s + grain).min(n);
                for j in s..e {
                    out_slice[j] = flex_ref[j] * 1.5 + chunk_idx as f32;
                }
            },
        );
    }
    chk::order_mark("compute.done", chunk_idx as u64);
    let back = out.chunks(cfg.per.max(1)).map(<[f32]>::to_vec).collect();
    tutel_rt::arena().put(flex);
    tutel_rt::arena().put(out);
    back
}

/// Sweeps [`combined_run`] over `0..seeds`.
pub fn combined_sweep(cfg: &RaceConfig, seeds: u64) -> tutel_explore::SweepOutcome {
    sweep_seeds("combined overlap+pool+comm", seeds, |seed| {
        combined_run(cfg, seed)
    })
}

// ---------------------------------------------------------------------------
// Seeded intentional bugs: the checker must catch all three.
// ---------------------------------------------------------------------------

/// Bug 1 — arena use-after-put: a stale reference survives `put`, and
/// the seed decides whether the stale access lands before or after
/// another thread re-takes the buffer. Both interleavings must be
/// flagged (`arena_alias`: use-after-put or use-after-recycle).
pub fn bug_use_after_put(seed: u64) -> Vec<Finding> {
    let session = chk::Session::begin();
    let ar = tutel_rt::Arena::new();
    let mut chooser = Chooser::new(seed);
    chk::with_logical_thread(11, || {
        let buf = ar.take_zeroed(4093);
        let id = buf.as_ptr() as usize;
        ar.put(buf);
        // BUG: `id` still names the returned buffer.
        if chooser.choose(2) == 0 {
            chk::note_access_id(id, true);
            chk::with_logical_thread(12, || {
                let b = ar.take_raw(4093);
                ar.put(b);
            });
        } else {
            let b = chk::with_logical_thread(12, || ar.take_raw(4093));
            chk::note_access_id(id, true);
            chk::with_logical_thread(12, || ar.put(b));
        }
    });
    let events = session.finish();
    analyze(&events, seed)
        .findings
        .into_iter()
        .filter(|f| f.rule == "arena_alias")
        .collect()
}

/// Bug 2 — steal-order-dependent reduction: chunks fold into one
/// accumulator in *claim* order and stamp that order as marks, so the
/// structure signature varies across seeds. Detected by
/// [`sweep_seeds`] as `schedule_dependent`, naming two seeds.
pub fn bug_stolen_reduction(seed: u64) -> SeedRun {
    let session = chk::Session::begin();
    let mut chooser = Chooser::new(seed);
    let mut acc = 0.0f64;
    let run = chk::with_logical_thread(5, || {
        chk::sim_pool_run(3, 8, 500, &mut |k| chooser.choose(k), &mut |c, _p| {
            // BUG: non-commutative fold in schedule order.
            acc = acc * 0.5 + (c as f64 + 1.0);
            chk::order_mark("bad_reduce", c as u64);
        })
    });
    let events = session.finish();
    let analysis = analyze(&events, seed);
    let mut sig = SigHash::new();
    for cl in &run.claims {
        sig.mix_many(&[cl.participant as u64, cl.chunk as u64]);
    }
    let mut structure = SigHash::new();
    structure.mix(analysis.structure);
    structure.mix(acc.to_bits());
    SeedRun {
        signature: sig.value(),
        structure: structure.value(),
        findings: analysis.findings,
    }
}

/// Bug 3 — worker leak at pool shutdown: the pool aborts after a
/// seed-chosen number of claims, stranding an unjoined job. The
/// analyzer must emit a `leak` finding.
pub fn bug_shutdown_leak(seed: u64) -> Vec<Finding> {
    let session = chk::Session::begin();
    let mut chooser = Chooser::new(seed);
    let cut = 2 + chooser.choose(3) as u64;
    chk::with_logical_thread(10, || {
        chk::sim_pool_run_bounded(
            2,
            7,
            600,
            &mut |k| chooser.choose(k),
            &mut |_c, _p| {},
            Some(cut),
        )
    });
    let events = session.finish();
    analyze(&events, seed)
        .findings
        .into_iter()
        .filter(|f| f.rule == "leak")
        .collect()
}

/// One selftest verdict: the planted bug, the finding that caught it,
/// and proof the seed replays.
#[derive(Debug)]
pub struct Selftest {
    pub name: &'static str,
    /// The finding that caught the bug (replay seed inside), or an
    /// explanation of the miss.
    pub result: Result<Finding, String>,
}

/// Replay comparison key: rule + captured sites. Details embed
/// run-varying identifiers (global job counter, buffer addresses), so
/// replay equivalence is the same defects at the same source sites.
fn shape(findings: &[Finding]) -> Vec<(&'static str, Vec<String>)> {
    findings.iter().map(|f| (f.rule, f.sites.clone())).collect()
}

/// Runs all three planted-bug selftests, each over a small seed sweep,
/// and replays every caught seed to prove the diagnostic reproduces.
pub fn run_selftests(seeds: u64) -> Vec<Selftest> {
    let seeds = seeds.max(4);
    let mut out = Vec::new();

    // Bug 1: every seed must be caught (both interleavings are bugs).
    let mut verdict = Err("no seed produced an arena_alias finding".to_string());
    for seed in 0..seeds {
        let found = bug_use_after_put(seed);
        match found.first() {
            None => {
                verdict = Err(format!("seed {seed}: stale access escaped the checker"));
                break;
            }
            Some(f) => {
                let replay = bug_use_after_put(seed);
                if shape(&replay) != shape(&found) {
                    verdict = Err(format!("seed {seed}: findings did not replay"));
                    break;
                }
                verdict = Ok(f.clone());
            }
        }
    }
    out.push(Selftest {
        name: "use_after_put",
        result: verdict,
    });

    // Bug 2: the sweep must see structure divergence and name seeds
    // that replay to different structures.
    let sweep = sweep_seeds("bad_reduce", seeds, bug_stolen_reduction);
    let verdict = match sweep
        .findings
        .iter()
        .find(|f| f.rule == "schedule_dependent")
    {
        None => Err(format!(
            "no schedule_dependent finding in {seeds} seeds \
             ({} distinct structures)",
            sweep.structures.len()
        )),
        Some(f) => {
            let (s0, seed0) = sweep.structures[0];
            let (s1, seed1) = sweep.structures[1];
            let r0 = bug_stolen_reduction(seed0);
            let r1 = bug_stolen_reduction(seed1);
            if r0.structure == s0 && r1.structure == s1 && s0 != s1 {
                Ok(f.clone())
            } else {
                Err(format!(
                    "named seeds {seed0}/{seed1} did not replay to \
                     divergent structures"
                ))
            }
        }
    };
    out.push(Selftest {
        name: "stolen_reduction",
        result: verdict,
    });

    // Bug 3: every seed aborts mid-job, so every seed must leak.
    let mut verdict = Err("no seed produced a leak finding".to_string());
    for seed in 0..seeds {
        let found = bug_shutdown_leak(seed);
        match found.first() {
            None => {
                verdict = Err(format!("seed {seed}: stranded job escaped the checker"));
                break;
            }
            Some(f) => {
                let replay = bug_shutdown_leak(seed);
                if shape(&replay) != shape(&found) {
                    verdict = Err(format!("seed {seed}: findings did not replay"));
                    break;
                }
                verdict = Ok(f.clone());
            }
        }
    }
    out.push(Selftest {
        name: "shutdown_leak",
        result: verdict,
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_sim_workload_analyzes_clean() {
        let session = chk::Session::begin();
        let mut chooser = Chooser::new(3);
        let ar = tutel_rt::Arena::new();
        chk::with_logical_thread(21, || {
            let mut buf = ar.take_zeroed(509);
            let id = buf.as_ptr() as usize;
            {
                let slice: &mut [f32] = &mut buf;
                chk::sim_pool_run(2, 4, 700, &mut |k| chooser.choose(k), &mut |c, _p| {
                    chk::note_access_id(id, true);
                    slice[c] = c as f32;
                });
            }
            chk::note_access(&buf, false);
            ar.put(buf);
        });
        let events = session.finish();
        let analysis = analyze(&events, 3);
        assert!(
            analysis.findings.is_empty(),
            "clean workload flagged: {:?}",
            analysis.findings
        );
    }

    #[test]
    fn recycled_take_carries_the_put_clock() {
        // Thread A takes/puts; thread B re-takes (recycled) and
        // accesses — the put→take edge must order B after A, so no
        // finding.
        let session = chk::Session::begin();
        let ar = tutel_rt::Arena::new();
        let id = chk::with_logical_thread(31, || {
            let buf = ar.take_zeroed(1021);
            let id = buf.as_ptr() as usize;
            ar.put(buf);
            id
        });
        chk::with_logical_thread(32, || {
            let buf = ar.take_raw(1021);
            assert_eq!(buf.as_ptr() as usize, id);
            chk::note_access(&buf, true);
            ar.put(buf);
        });
        let events = session.finish();
        let analysis = analyze(&events, 0);
        assert!(
            analysis.findings.is_empty(),
            "HB edge missing: {:?}",
            analysis.findings
        );
    }

    #[test]
    fn combined_surface_is_clean_and_structure_stable() {
        let cfg = RaceConfig::default();
        let sweep = combined_sweep(&cfg, 8);
        assert!(
            sweep.passed(),
            "combined surface flagged: {:?}",
            sweep.findings
        );
        assert!(sweep.structure_stable());
        assert!(sweep.distinct > 1, "8 seeds explored only 1 schedule");
    }

    #[test]
    fn combined_run_replays_bit_for_bit() {
        let cfg = RaceConfig::default();
        let a = combined_run(&cfg, 5);
        let b = combined_run(&cfg, 5);
        assert_eq!(a.signature, b.signature);
        assert_eq!(a.structure, b.structure);
    }

    #[test]
    fn all_three_planted_bugs_are_caught_with_replayable_seeds() {
        for t in run_selftests(8) {
            let f = t
                .result
                .as_ref()
                .unwrap_or_else(|e| panic!("{} escaped: {e}", t.name));
            assert!(!f.detail.is_empty());
        }
    }
}
