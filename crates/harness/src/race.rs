//! The combined-surface race scenario: `core::overlap`'s two-stream
//! executor on the **real** threaded comm runtime, each chunk's
//! compute parallelized on the **real** `rt` work-stealing pool
//! through the global arena, all recorded under a
//! `tutel_rt::chk` session and replayed through the happens-before
//! analyzer.
//!
//! Where `tutel-check --race` explores *simulated* schedules by seed,
//! this scenario checks one *actual* OS-thread interleaving end to
//! end — real steals, real non-blocking collectives, real arena
//! recycling — and lands every finding in the telemetry audit ring as
//! a typed [`AnomalyRecord`](tutel_obs::AnomalyRecord)
//! (`kind = "check.<rule>"`, replay seed in `step`) next to the
//! stragglers and imbalance records, via
//! [`tutel_check::finding_to_anomaly`].

use tutel_check::explore::Finding;
use tutel_check::race::analyze;
use tutel_comm::runtime::run_threaded;
use tutel_comm::{linear_all_to_all, AllToAllAlgo, RankBuffers, Topology};
use tutel_obs::Telemetry;
use tutel_rt::chk;

/// Outcome of one combined-surface run.
#[derive(Debug)]
pub struct RaceSurface {
    /// Analyzer findings (empty on a clean run).
    pub findings: Vec<Finding>,
    /// Events the session recorded.
    pub events: usize,
    /// True iff every rank's combined output matched the sequential
    /// reference bit-for-bit.
    pub outputs_match: bool,
}

impl RaceSurface {
    pub fn passed(&self) -> bool {
        self.findings.is_empty() && self.outputs_match
    }
}

/// Per-element compute stand-in (must match the oracle below).
fn f(x: f32, chunk: usize) -> f32 {
    x * 1.5 + chunk as f32
}

/// Runs the combined surface once on real threads: 2×2 topology,
/// degree-2 overlap, pool-parallel compute through the global arena.
/// `seed` only labels the run's findings (a real interleaving has no
/// replay seed); structural determinism across seeds is the simulated
/// sweep's job (`tutel-check --race`).
#[allow(clippy::needless_range_loop)] // the oracle walks [rank][chunk] grids
pub fn run_race_surface(seed: u64, tel: &Telemetry) -> RaceSurface {
    let topo = Topology::new(2, 2);
    let world = topo.world_size();
    let degree = 2;
    let per = 3;
    let len = world * per;

    // Deterministic inputs, [rank][chunk][elem].
    let inputs: Vec<RankBuffers> = (0..world)
        .map(|rank| {
            (0..degree)
                .map(|c| {
                    (0..len)
                        .map(|j| (rank * 1000 + c * 100 + j) as f32 * 1e-3)
                        .collect()
                })
                .collect()
        })
        .collect();
    // A flat (W, per) buffer as its W per-destination buffers.
    let split = |buf: &[f32]| -> Vec<Vec<f32>> { buf.chunks(per).map(<[f32]>::to_vec).collect() };

    // Sequential oracle: all-to-all, compute, all-to-all — per chunk.
    let expect: Vec<RankBuffers> = {
        let mut per_rank: Vec<RankBuffers> = vec![Vec::new(); world];
        for c in 0..degree {
            let dispatch: RankBuffers = (0..world).map(|r| inputs[r][c].clone()).collect();
            let computed: RankBuffers = linear_all_to_all(&dispatch)
                .into_iter()
                .map(|b| b.into_iter().map(|x| f(x, c)).collect())
                .collect();
            for (r, out) in linear_all_to_all(&computed).into_iter().enumerate() {
                per_rank[r].push(out);
            }
        }
        per_rank
    };

    let session = chk::Session::begin();
    let results = run_threaded(topo, |mut comm| {
        let rank = comm.rank();
        chk::with_logical_thread(rank + 1, || {
            tutel::overlap::run_overlapped(
                &mut comm,
                AllToAllAlgo::Linear,
                inputs[rank].iter().map(|chunk| split(chunk)).collect(),
                |_, c, received| {
                    let flex = received.concat();
                    chk::note_access(&flex, false);
                    let n = flex.len();
                    let mut out = tutel_rt::arena().take_raw(n);
                    let out_id = out.as_ptr() as usize;
                    {
                        let flex_ref: &[f32] = &flex;
                        tutel_rt::parallel_chunks(&mut out, 2, |ci, chunk| {
                            chk::note_access_id(out_id, true);
                            let i0 = ci * 2;
                            for (k, o) in chunk.iter_mut().enumerate() {
                                *o = f(flex_ref[i0 + k], c);
                            }
                        });
                    }
                    chk::order_mark("harness.compute", c as u64);
                    let back = split(&out);
                    tutel_rt::arena().put(flex);
                    tutel_rt::arena().put(out);
                    Ok(back)
                },
            )
        })
    });
    let events = session.finish();

    let mut findings = analyze(&events, seed).findings;
    let mut outputs_match = true;
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(e) => {
                outputs_match = false;
                findings.push(Finding::new(
                    "rank-error",
                    seed,
                    format!("combined surface: rank {rank}: {e}"),
                ));
            }
            Ok(run) => {
                let combined: RankBuffers = run.combined.iter().map(|c| c.concat()).collect();
                if combined != expect[rank] {
                    outputs_match = false;
                    findings.push(Finding::new(
                        "corruption",
                        seed,
                        format!(
                            "combined surface: rank {rank} diverged from the \
                             sequential reference"
                        ),
                    ));
                }
            }
        }
    }

    for finding in &findings {
        tel.anomaly(tutel_check::finding_to_anomaly(finding));
    }
    RaceSurface {
        findings,
        events: events.len(),
        outputs_match,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_thread_surface_is_race_free_and_correct() {
        let tel = Telemetry::enabled();
        let surface = run_race_surface(7, &tel);
        assert!(surface.events > 0, "session recorded nothing");
        assert!(
            surface.passed(),
            "combined surface failed: {:?}",
            surface.findings
        );
        assert!(tel.anomalies().is_empty());
    }
}
