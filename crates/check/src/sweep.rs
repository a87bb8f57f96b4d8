//! The deterministic concurrency sweep: drives `tutel-comm`'s
//! scheduler-backed runtime (`feature = "check-sched"`) across a
//! seeded family of adversarial schedules per collective, comparing
//! every run bit-for-bit against the sequential reference and
//! reporting any deadlock, value corruption, or message leak as an
//! [`explore`](crate::explore) [`Finding`] carrying the seed that
//! replays it.

use std::collections::HashSet;
use std::ops::Range;

use crate::explore::Finding;

use tutel_comm::runtime::Communicator;
use tutel_comm::sched::run_sched;
use tutel_comm::{linear_all_to_all, AllToAllAlgo, CommError, RankBuffers, Topology};

/// Sweep parameters: the topology and how many seeds to explore.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    pub nnodes: usize,
    pub gpus_per_node: usize,
    pub seeds: u64,
    /// Elements each rank contributes per peer.
    pub chunk: usize,
}

impl Default for SweepConfig {
    fn default() -> Self {
        // The paper's minimal hierarchical case: 2 nodes × 2 GPUs.
        SweepConfig {
            nnodes: 2,
            gpus_per_node: 2,
            seeds: 128,
            chunk: 3,
        }
    }
}

/// Sweep outcome for one collective.
#[derive(Debug)]
pub struct CollectiveSweep {
    pub name: &'static str,
    /// Schedules executed (= seeds).
    pub schedules: u64,
    /// Distinct schedule signatures observed.
    pub distinct: usize,
    /// Schedule failures as framework findings (`rule` in
    /// {deadlock, mailbox-leak, message-leak, rank-error, corruption}).
    pub failures: Vec<Finding>,
}

impl CollectiveSweep {
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn labeled(n: usize, chunk: usize, salt: usize) -> RankBuffers {
    (0..n)
        .map(|r| {
            (0..n * chunk)
                .map(|i| (salt * 100_000 + r * n * chunk + i) as f32)
                .collect()
        })
        .collect()
}

/// Judges one scheduled run against its oracle.
fn judge(
    name: &'static str,
    seed: u64,
    results: &[Result<Vec<f32>, CommError>],
    report: &tutel_comm::sched::SchedReport,
    expect: &RankBuffers,
    failures: &mut Vec<Finding>,
) {
    if let Some(detail) = &report.deadlock {
        failures.push(Finding::new("deadlock", seed, format!("{name}: {detail}")));
        return;
    }
    for (rank, leaked) in &report.mailbox_leaks {
        failures.push(Finding::new(
            "mailbox-leak",
            seed,
            format!("{name}: rank {rank} ended with {leaked} parked message(s)"),
        ));
    }
    if report.undelivered > 0 {
        failures.push(Finding::new(
            "message-leak",
            seed,
            format!("{name}: {} message(s) never delivered", report.undelivered),
        ));
    }
    for (rank, res) in results.iter().enumerate() {
        match res {
            Err(e) => failures.push(Finding::new(
                "rank-error",
                seed,
                format!("{name}: rank {rank}: {e}"),
            )),
            Ok(got) if *got != expect[rank] => failures.push(Finding::new(
                "corruption",
                seed,
                format!(
                    "{name}: rank {rank} result diverged from the sequential reference \
                     (tag-collision style mixing)"
                ),
            )),
            Ok(_) => {}
        }
    }
}

/// Sweeps one collective across the schedules of `seeds`.
fn sweep_one<F>(
    name: &'static str,
    cfg: &SweepConfig,
    seeds: Range<u64>,
    inputs: &RankBuffers,
    expect: &RankBuffers,
    collective: F,
) -> CollectiveSweep
where
    F: Fn(&mut Communicator, &[f32]) -> Result<Vec<f32>, CommError> + Send + Sync,
{
    let topo = Topology::new(cfg.nnodes, cfg.gpus_per_node);
    let schedules = seeds.end - seeds.start;
    let mut signatures = HashSet::new();
    let mut failures = Vec::new();
    for seed in seeds {
        let (results, report) = run_sched(topo, seed, None, |comm| {
            collective(comm, &inputs[comm.rank()])
        });
        signatures.insert(report.signature);
        judge(name, seed, &results, &report, expect, &mut failures);
    }
    CollectiveSweep {
        name,
        schedules,
        distinct: signatures.len(),
        failures,
    }
}

/// Runs the full sweep over the threaded collectives.
pub fn sweep_collectives(cfg: &SweepConfig) -> Vec<CollectiveSweep> {
    let topo = Topology::new(cfg.nnodes, cfg.gpus_per_node);
    let n = topo.world_size();

    let a2a_in = labeled(n, cfg.chunk, 1);
    let a2a_expect = linear_all_to_all(&a2a_in);

    let twodh_in = labeled(n, cfg.chunk, 2);
    let twodh_expect = linear_all_to_all(&twodh_in);

    let gather_in: RankBuffers = (0..n)
        .map(|r| (0..cfg.chunk).map(|i| (r * 10 + i) as f32).collect())
        .collect();
    let gather_flat: Vec<f32> = gather_in.iter().flatten().copied().collect();
    let gather_expect: RankBuffers = vec![gather_flat; n];

    // Two ragged 2DH exchanges in flight at once, the second moving
    // nothing: destination `d` gets the first `(rank + d) % (chunk+1)`
    // elements of its chunk of the labeled buffer.
    let ragged_in = labeled(n, cfg.chunk, 6);
    let cut = |src: usize, dst: usize, buf: &[f32]| {
        buf[dst * cfg.chunk..][..(src + dst) % (cfg.chunk + 1)].to_vec()
    };
    let ragged_expect: RankBuffers = (0..n)
        .map(|dst| {
            (0..n)
                .flat_map(|src| cut(src, dst, &ragged_in[src]))
                .collect()
        })
        .collect();

    let reduce_in = labeled(n, cfg.chunk, 3);
    let mut reduce_sum = vec![0.0f32; n * cfg.chunk];
    for r in &reduce_in {
        for (o, v) in reduce_sum.iter_mut().zip(r) {
            *o += v;
        }
    }
    let reduce_expect: RankBuffers = vec![reduce_sum; n];

    vec![
        sweep_one(
            "all_to_all",
            cfg,
            0..cfg.seeds,
            &a2a_in,
            &a2a_expect,
            |c, x| c.all_to_all(x),
        ),
        sweep_one(
            "all_to_all_2dh",
            cfg,
            0..cfg.seeds,
            &twodh_in,
            &twodh_expect,
            |c, x| c.all_to_all_2dh(x),
        ),
        sweep_one(
            "ialltoall_v_x2",
            cfg,
            0..cfg.seeds,
            &ragged_in,
            &ragged_expect,
            |c, x| {
                let sends = (0..n).map(|dst| cut(c.rank(), dst, x)).collect();
                let full = c.ialltoall_v(AllToAllAlgo::TwoDh, sends)?;
                let empty = c.ialltoall_v(AllToAllAlgo::TwoDh, vec![Vec::new(); n])?;
                let mut got = full.wait(c)?.concat();
                got.extend(empty.wait(c)?.concat());
                Ok(got)
            },
        ),
        sweep_one(
            "all_gather",
            cfg,
            0..cfg.seeds,
            &gather_in,
            &gather_expect,
            |c, x| c.all_gather(x),
        ),
        sweep_one(
            "all_reduce_sum",
            cfg,
            0..cfg.seeds,
            &reduce_in,
            &reduce_expect,
            |c, x| c.all_reduce_sum(x),
        ),
    ]
}

/// A hand-rolled linear All-to-All that (incorrectly) reuses one
/// fixed tag for every round — the canonical tag-collision bug the
/// monotone `fresh_tag` discipline exists to prevent.
fn manual_all_to_all(
    comm: &mut Communicator,
    input: &[f32],
    tag: u64,
) -> Result<Vec<f32>, CommError> {
    let n = comm.world_size();
    let rank = comm.rank();
    let chunk = input.len() / n;
    for peer in 0..n {
        if peer != rank {
            comm.send(peer, tag, input[peer * chunk..(peer + 1) * chunk].to_vec())?;
        }
    }
    let mut out = vec![0.0f32; input.len()];
    out[rank * chunk..(rank + 1) * chunk].copy_from_slice(&input[rank * chunk..(rank + 1) * chunk]);
    for src in 0..n {
        if src != rank {
            let payload = comm.recv(src, tag)?;
            out[src * chunk..(src + 1) * chunk].copy_from_slice(&payload);
        }
    }
    Ok(out)
}

/// The broken-tag case over `seeds`: two back-to-back labelled rounds
/// of [`manual_all_to_all`] sharing one tag (each rank's input is the
/// two rounds concatenated), judged against the concatenation of both
/// rounds' oracles.
fn broken_tag_case(cfg: &SweepConfig, seeds: Range<u64>) -> CollectiveSweep {
    let n = cfg.nnodes * cfg.gpus_per_node;
    let round1 = labeled(n, cfg.chunk, 4);
    let round2 = labeled(n, cfg.chunk, 5);
    let expect1 = linear_all_to_all(&round1);
    let expect2 = linear_all_to_all(&round2);
    let concat = |a: &RankBuffers, b: &RankBuffers| -> RankBuffers {
        (0..n).map(|r| [a[r].as_slice(), &b[r]].concat()).collect()
    };
    let inputs = concat(&round1, &round2);
    let expect = concat(&expect1, &expect2);
    sweep_one("broken_tag", cfg, seeds, &inputs, &expect, |c, x| {
        let (first, second) = x.split_at(x.len() / 2);
        let mut out = manual_all_to_all(c, first, 7)?;
        out.extend(manual_all_to_all(c, second, 7)?);
        Ok(out)
    })
}

/// Self-test for the checker: two back-to-back all-to-alls sharing a
/// tag MUST be caught mixing messages under some schedule. Returns
/// the sweep (whose failures carry the replayable seed) — an *empty*
/// failure list here means the checker has lost its teeth.
pub fn broken_tag_selftest(cfg: &SweepConfig) -> CollectiveSweep {
    CollectiveSweep {
        name: "broken_tag (intentional bug)",
        ..broken_tag_case(cfg, 0..cfg.seeds)
    }
}

/// Replays a single seed of the broken-tag program and reports
/// whether it failed — used to confirm a reported seed reproduces.
pub fn broken_tag_replay(cfg: &SweepConfig, seed: u64) -> Vec<Finding> {
    broken_tag_case(cfg, seed..seed + 1).failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SweepConfig {
        SweepConfig {
            seeds: 128,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn clean_collectives_survive_the_sweep() {
        for sweep in sweep_collectives(&small()) {
            assert!(
                sweep.passed(),
                "{}: {:?}",
                sweep.name,
                sweep.failures.first()
            );
            assert!(
                sweep.distinct >= 100,
                "{}: only {} distinct schedules in {}",
                sweep.name,
                sweep.distinct,
                sweep.schedules
            );
        }
    }

    #[test]
    fn broken_tag_is_caught_and_seed_replays() {
        let sweep = broken_tag_selftest(&small());
        assert!(
            !sweep.passed(),
            "checker failed to catch the intentional tag collision"
        );
        let corruption = sweep
            .failures
            .iter()
            .find(|f| f.rule == "corruption")
            .expect("tag collision should surface as corruption");
        // The reported seed must reproduce deterministically.
        let replay = broken_tag_replay(&small(), corruption.seed);
        assert!(
            replay.iter().any(|f| f.rule == "corruption"),
            "seed {} did not replay the corruption",
            corruption.seed
        );
    }
}
