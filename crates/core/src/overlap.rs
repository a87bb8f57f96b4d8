//! The distributed expert step: the executed adaptive-pipelining
//! schedule — a software two-stream overlap of the non-blocking ragged
//! All-to-All with chunked expert compute (Section 3.3 of the paper,
//! executed rather than modeled) — and the one wire format every
//! rank program ships its expert bins in.
//!
//! [`run_overlapped`] is the schedule and knows nothing about experts;
//! [`exchange_bins`] is the MoE step on top of it and the single owner
//! of the bin ↔ wire codec, called by `serve::exec`, the conformance
//! harness (forward and backward) and the repo-level step test alike.
//!
//! # Stream model
//!
//! Real Tutel runs the All-to-All on one CUDA stream and the expert
//! FFN on another; here the "communication stream" is the set of peer
//! rank threads draining their channels, and the "compute stream" is
//! this rank's thread (plus the `rt` pool it fans kernels onto). The
//! schedule for degree `d` is:
//!
//! ```text
//! issue disp[0]
//! for i in 0..d:
//!     if i+1 < d: issue disp[i+1]        // next chunk's dispatch in flight
//!     flex = drain(disp[i])              // the only blocking comm point
//!     y    = compute(i, flex)            // expert FFN on the rt pool
//!     issue comb[i]                      // combine departs immediately
//!     poll unfinished comb handles       // non-blocking progress
//! drain comb[0..d] in order              // final drain
//! ```
//!
//! Every issue and every drain happens in identical program order on
//! every rank, so the communicator's tag counters — and, under the
//! reliability layer, the ack epochs — stay in lockstep without any
//! extra synchronization.
//!
//! # Determinism contract
//!
//! The chunk grid is a fixed function of the problem shape (the
//! caller's chunks; under [`exchange_bins`], sub-range `c` of `D` of
//! every bin), each chunk's arithmetic is the caller's `compute`
//! applied to exactly the bytes the chunk-serial blocking schedule
//! would see, and chunk results are never reduced across chunks by
//! this module — so the combined output is **bitwise identical** to
//! the chunk-serial schedule at every degree and every
//! `TUTEL_THREADS`, at identical wire volume. Overlap changes *when*
//! work happens, never *what* is computed.
//!
//! # Measured feedback
//!
//! Each chunk's compute time and the whole schedule's wall-clock are
//! reported in [`OverlapRun`]; the caller feeds the wall-clock into
//! [`crate::pipeline::MeasuredStrategySearch`] so Algorithm 2 ranks
//! strategies by what execution actually cost, not only by the
//! modelled prior. The `Instant`s taken here never influence any computed
//! value — timing is observed, not consumed.

use std::collections::VecDeque;
use std::time::Instant;

use tutel_comm::runtime::{CommHandle, Communicator};
use tutel_comm::{AllToAllAlgo, CommError};
use tutel_obs::trace::{TRACK_RT, TRACK_STREAM_COMM, TRACK_STREAM_COMPUTE};
use tutel_tensor::{Tensor, TensorError};

/// What one overlapped dispatch → compute → combine schedule produced.
pub struct OverlapRun {
    /// Per-chunk combine results in chunk order, each the buffers
    /// received from every source rank in rank order.
    pub combined: Vec<Vec<Vec<f32>>>,
    /// Wall-clock seconds each chunk's `compute` took.
    pub chunk_compute_s: Vec<f64>,
    /// When each chunk's dispatch All-to-All was issued.
    pub dispatch_issued: Vec<Instant>,
    /// When each chunk's combine All-to-All was issued.
    pub combine_issued: Vec<Instant>,
    /// Wall-clock seconds for the whole schedule (first issue to last
    /// drain).
    pub wall_s: f64,
}

/// Blocks for a handle's completion. The *only* place in this module
/// allowed to wait: the steady-state loop must stay non-blocking on
/// the combine side (`check`'s `no_block_in_overlap` rule enforces
/// this).
// check:overlap-drain
fn drain(handle: CommHandle, comm: &mut Communicator) -> Result<Vec<Vec<f32>>, CommError> {
    handle.wait(comm)
}

/// Runs the two-stream overlapped schedule over `dispatch_chunks`:
/// one ragged All-to-All (`dispatch_chunks[i][d]` goes to rank `d`)
/// out and one back per chunk.
///
/// For each chunk `i`, `compute(comm, i, received)` gets the buffers
/// every source rank dispatched here (in rank order, owned) and
/// returns the per-destination buffers to combine. Chunks are
/// computed strictly in index order; `compute` may carry per-chunk
/// state. The communicator is lent read-only so `compute` can check
/// what it received with the wire codec
/// ([`Communicator::decode_counts`]); an `Err` from it aborts the
/// schedule like a transport error. Degree 1 degenerates to the
/// serial dispatch → compute → combine schedule.
///
/// Under the reliability layer, the retry/ack budget must cover one
/// chunk's compute time: a peer still computing chunk `i` cannot
/// acknowledge chunk `i+1`'s dispatch epilogue until it reaches that
/// wait itself.
///
/// # Errors
///
/// Propagates the first [`CommError`] from any issue, poll, drain or
/// `compute`. On error, every still-open handle is drained
/// best-effort first so no mailbox messages are stranded behind the
/// failure.
// check:hot
pub fn run_overlapped<C>(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    dispatch_chunks: Vec<Vec<Vec<f32>>>,
    mut compute: C,
) -> Result<OverlapRun, CommError>
where
    C: FnMut(&Communicator, usize, Vec<Vec<f32>>) -> Result<Vec<Vec<f32>>, CommError>,
{
    let d = dispatch_chunks.len();
    let mut combined: Vec<Vec<Vec<f32>>> = Vec::with_capacity(d);
    let mut chunk_compute_s: Vec<f64> = Vec::with_capacity(d);
    let mut dispatch_issued: Vec<Instant> = Vec::with_capacity(d);
    let mut combine_issued: Vec<Instant> = Vec::with_capacity(d);
    let started = Instant::now();

    // The two overlap streams record onto the rank's causal tracer
    // (disabled → every call is one branch): blocking drain windows
    // become spans, issues become instants, and the rt pool's chunk /
    // steal deltas around each compute become an rt-track span — so a
    // merged timeline shows what each stream was doing while the
    // other progressed.
    let tracer = comm.tracer().clone();
    let traced = tracer.is_enabled();
    let mut to_dispatch = dispatch_chunks.into_iter();
    let mut disp: VecDeque<CommHandle> = VecDeque::with_capacity(2);
    let mut comb: VecDeque<CommHandle> = VecDeque::with_capacity(d);
    let run = (|| -> Result<(), CommError> {
        for i in 0..d {
            // Keep chunk i+1's dispatch in flight behind chunk i's
            // compute (the first iteration issues both).
            let due = (i + 2).min(d) - dispatch_issued.len();
            for sends in to_dispatch.by_ref().take(due) {
                let first = dispatch_issued.is_empty();
                dispatch_issued.push(if first { started } else { Instant::now() });
                tracer.instant(TRACK_STREAM_COMM, "dispatch.issue");
                disp.push_back(comm.ialltoall_v(algo, sends)?);
                // Structural order markers for the race sweep: the
                // issue / drain order of both streams is part of the
                // determinism contract, so the checker folds it into
                // the per-seed structure signature.
                #[cfg(feature = "check-race")]
                tutel_rt::chk::order_mark("overlap.dispatch", dispatch_issued.len() as u64 - 1);
            }
            // Chunk i's dispatch was issued above or one iteration ago.
            let Some(handle) = disp.pop_front() else {
                break;
            };
            let drain_t0 = tracer.now_us();
            let flex = drain(handle, comm)?;
            tracer.span_at_args(
                TRACK_STREAM_COMM,
                "dispatch.drain",
                drain_t0,
                tracer.now_us(),
                &[("chunk", i as u64)],
            );
            let rt0 = if traced {
                tutel_rt::pool_stats()
            } else {
                tutel_rt::PoolStats::default()
            };
            let compute_t0 = tracer.now_us();
            let t0 = Instant::now();
            let y = compute(comm, i, flex)?;
            chunk_compute_s.push(t0.elapsed().as_secs_f64());
            let compute_t1 = tracer.now_us();
            tracer.span_at_args(
                TRACK_STREAM_COMPUTE,
                "compute",
                compute_t0,
                compute_t1,
                &[("chunk", i as u64)],
            );
            if traced {
                // Process-global pool counters: the deltas bound this
                // chunk's share (concurrent ranks also contribute).
                let rt1 = tutel_rt::pool_stats();
                tracer.span_at_args(
                    TRACK_RT,
                    "rt",
                    compute_t0,
                    compute_t1,
                    &[
                        ("chunks", rt1.chunks.saturating_sub(rt0.chunks)),
                        (
                            "worker_chunks",
                            rt1.worker_chunks.saturating_sub(rt0.worker_chunks),
                        ),
                        ("steals", rt1.steals.saturating_sub(rt0.steals)),
                    ],
                );
            }
            combine_issued.push(Instant::now());
            tracer.instant(TRACK_STREAM_COMM, "combine.issue");
            comb.push_back(comm.ialltoall_v(algo, y)?);
            #[cfg(feature = "check-race")]
            tutel_rt::chk::order_mark("overlap.combine", i as u64);
            // Opportunistic progress on earlier combines while the
            // next chunk's dispatch is still in flight.
            for handle in comb.iter_mut() {
                if !handle.is_complete() {
                    handle.poll(comm)?;
                }
            }
        }
        while let Some(handle) = comb.pop_front() {
            let idx = combined.len() as u64;
            let drain_t0 = tracer.now_us();
            combined.push(drain(handle, comm)?);
            #[cfg(feature = "check-race")]
            tutel_rt::chk::order_mark("overlap.combine_drain", idx);
            tracer.span_at_args(
                TRACK_STREAM_COMM,
                "combine.drain",
                drain_t0,
                tracer.now_us(),
                &[("chunk", idx)],
            );
        }
        Ok(())
    })();
    if let Err(err) = run {
        // A failed schedule must not strand peers' messages: drain
        // every open handle (their errors are secondary to `err`).
        for handle in disp.into_iter().chain(comb) {
            let _ = drain(handle, comm);
        }
        return Err(err);
    }
    Ok(OverlapRun {
        combined,
        chunk_compute_s,
        dispatch_issued,
        combine_issued,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

/// The distributed expert step, and the single owner of its wire
/// format: ships every row of `packed` to the rank that owns its
/// expert, applies `compute` there, and brings the results home —
/// overlapped at `degree > 1` through [`run_overlapped`].
///
/// `packed` is `R` rows of `M` partitioned into `E` expert bins by the
/// CSR `offsets`; experts are rank-major, so rank `d` owns global
/// experts `d·E/W .. (d+1)·E/W`. Chunk `c` of bin `e` is the bin's
/// rows `[len·c/D, len·(c+1)/D)`: the chunk grid is a function of the
/// bins alone, and chunks may be empty.
///
/// Per chunk, the message to rank `d` is a header of its `E/W`
/// bin-chunk row counts followed by those rows, expert-major. The
/// receiver checks every header against its payload, regroups the
/// `(source, expert)` segments into per-expert bins **in source
/// order**, and calls `compute(chunk, rows (R', M), local_offsets)`,
/// which must return `(R', M)`; `compute` is skipped for a chunk that
/// brought this rank no rows. Results travel back as bare rows (the
/// origin knows what it sent) and are scattered to their packed
/// positions. Returns the result rows in `packed`'s shape.
///
/// # Errors
///
/// Two failure domains, hence two `Result`s. The outer [`CommError`]
/// means the exchange itself broke: transport, or a payload that
/// contradicts its header. The inner [`TensorError`] — inconsistent
/// arguments, or the first error `compute` returned — is this rank's
/// alone: the exchange still ran to completion with zero rows standing
/// in, so healthy peers never wait on a rank whose compute failed.
pub fn exchange_bins<C>(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    degree: usize,
    packed: &Tensor,
    offsets: &[usize],
    mut compute: C,
) -> Result<Result<Tensor, TensorError>, CommError>
where
    C: FnMut(usize, &Tensor, &[usize]) -> Result<Tensor, TensorError>,
{
    let world = comm.world_size();
    let experts = offsets.len().saturating_sub(1);
    let m = packed.dims().last().copied().unwrap_or(0);
    let bins_ok = offsets.first() == Some(&0)
        && offsets.windows(2).all(|w| w[0] <= w[1])
        && offsets.last().map(|rows| rows * m) == Some(packed.len());
    if degree == 0 || m == 0 || !bins_ok || !experts.is_multiple_of(world) {
        return Ok(Err(TensorError::InvalidArgument(format!(
            "exchange_bins: {experts} bins {offsets:?} over {:?} rows, world {world}, degree {degree}",
            packed.dims()
        ))));
    }
    let le = experts / world;
    let rows = packed.as_slice();
    // Rows [from, to) of the packed buffer: chunk c of bin e.
    let bin_chunk = |e: usize, c: usize| {
        let len = offsets[e + 1] - offsets[e];
        (
            offsets[e] + len * c / degree,
            offsets[e] + len * (c + 1) / degree,
        )
    };

    let mut sends = Vec::with_capacity(degree);
    for c in 0..degree {
        let mut to_ranks = Vec::with_capacity(world);
        for d in 0..world {
            let spans = (d * le..(d + 1) * le).map(|e| bin_chunk(e, c));
            let mut buf = Vec::new();
            comm.encode_counts(d, spans.clone().map(|(from, to)| to - from), &mut buf)?;
            for (from, to) in spans {
                buf.extend_from_slice(&rows[from * m..to * m]);
            }
            to_ranks.push(buf);
        }
        sends.push(to_ranks);
    }

    let mut parked: Option<TensorError> = None;
    let run = run_overlapped(comm, algo, sends, |comm, c, received| {
        // counts[s][e]: rows source s sent for local expert e.
        let counts = received
            .iter()
            .enumerate()
            .map(|(s, buf)| comm.decode_counts(s, buf, le, m))
            .collect::<Result<Vec<_>, _>>()?;
        let mut local = vec![0usize; le + 1];
        for e in 0..le {
            local[e + 1] = local[e] + counts.iter().map(|of| of[e]).sum::<usize>();
        }
        let total = local[le];
        // Per-expert bins in source order: the (expert, source) walk,
        // as (source, segment elements), taking each source's next
        // segment.
        let counts = &counts;
        let walk: Vec<(usize, usize)> = (0..le)
            .flat_map(|e| (0..world).map(move |s| (s, counts[s][e] * m)))
            .collect();
        let mut gx = Vec::with_capacity(total * m);
        let mut read = vec![le; world];
        for &(s, n) in &walk {
            gx.extend_from_slice(&received[s][read[s]..read[s] + n]);
            read[s] += n;
        }
        let y = if total == 0 {
            // Nothing routed here this chunk (possible under heavy
            // skew): the empties below keep the exchange in lock-step.
            Vec::new()
        } else {
            let y = Tensor::from_vec(gx, &[total, m])
                .and_then(|gx| compute(c, &gx, &local))
                .and_then(|y| {
                    if y.dims() == [total, m] {
                        return Ok(y);
                    }
                    Err(TensorError::shape_mismatch(
                        "exchange_bins compute",
                        y.dims(),
                        &[total, m],
                    ))
                });
            match y {
                Ok(y) => y.into_vec(),
                Err(e) => {
                    parked.get_or_insert(e);
                    vec![0.0; total * m]
                }
            }
        };
        // The same walk hands every segment back.
        let mut back: Vec<Vec<f32>> = vec![Vec::new(); world];
        let mut at = 0;
        for (s, n) in walk {
            back[s].extend_from_slice(&y[at..at + n]);
            at += n;
        }
        Ok(back)
    })?;
    if let Some(e) = parked {
        return Ok(Err(e));
    }

    let mut out = vec![0.0f32; rows.len()];
    for (c, from_ranks) in run.combined.iter().enumerate() {
        for (d, buf) in from_ranks.iter().enumerate() {
            let spans = (d * le..(d + 1) * le).map(|e| bin_chunk(e, c));
            let expect: usize = spans.clone().map(|(from, to)| (to - from) * m).sum();
            if buf.len() != expect {
                let got = buf.len();
                return comm.malformed(d, format!("{got} result elements for {expect} sent"));
            }
            let mut at = 0;
            for (from, to) in spans {
                let n = (to - from) * m;
                out[from * m..to * m].copy_from_slice(&buf[at..at + n]);
                at += n;
            }
        }
    }
    Ok(Tensor::from_vec(out, packed.dims()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use tutel_comm::runtime::run_threaded;
    use tutel_comm::Topology;

    /// Ragged per-chunk sends for one rank: the buffer for destination
    /// `d` in chunk `c` has `(rank + 2·d + 3·c) % 4` labeled elements,
    /// so lengths differ by source, destination and chunk, and some
    /// are empty.
    fn chunks(rank: usize, world: usize, degree: usize) -> Vec<Vec<Vec<f32>>> {
        (0..degree)
            .map(|c| {
                (0..world)
                    .map(|d| {
                        (0..(rank + 2 * d + 3 * c) % 4)
                            .map(|i| (rank * 1000 + c * 100 + d * 10 + i) as f32 * 0.25)
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn blocking(comm: &mut Communicator, algo: AllToAllAlgo, sends: &[Vec<f32>]) -> Vec<Vec<f32>> {
        match algo {
            AllToAllAlgo::Linear => comm.all_to_all_v(sends).unwrap(),
            AllToAllAlgo::TwoDh => comm.all_to_all_v_2dh(sends).unwrap(),
        }
    }

    fn toy_compute(i: usize, flex: Vec<Vec<f32>>) -> Vec<Vec<f32>> {
        flex.into_iter()
            .map(|buf| buf.iter().map(|v| v * 1.5 + i as f32).collect())
            .collect()
    }

    #[test]
    fn overlapped_matches_chunk_serial_blocking_schedule_bitwise() {
        // Same bits and same wire volume as dispatch → compute →
        // combine run chunk by chunk over the blocking v-exchanges.
        let topo = Topology::new(2, 2);
        let world = topo.world_size();
        for algo in AllToAllAlgo::ALL {
            for degree in [1usize, 2, 4] {
                let expect = run_threaded(topo, |mut comm| {
                    let combined: Vec<_> = chunks(comm.rank(), world, degree)
                        .iter()
                        .enumerate()
                        .map(|(i, sends)| {
                            let y = toy_compute(i, blocking(&mut comm, algo, sends));
                            blocking(&mut comm, algo, &y)
                        })
                        .collect();
                    (combined, comm.sent_payload_elems())
                });
                let got = run_threaded(topo, |mut comm| {
                    let input = chunks(comm.rank(), world, degree);
                    let run = run_overlapped(&mut comm, algo, input, |_, i, flex| {
                        Ok(toy_compute(i, flex))
                    })
                    .unwrap();
                    assert_eq!(comm.parked_messages(), 0);
                    assert_eq!(run.chunk_compute_s.len(), degree);
                    (run.combined, comm.sent_payload_elems())
                });
                assert_eq!(expect, got, "{algo:?} at degree {degree}");
            }
        }
    }

    #[test]
    fn empty_schedule_is_a_noop() {
        let topo = Topology::single_node(2);
        let runs = run_threaded(topo, |mut comm| {
            run_overlapped(&mut comm, AllToAllAlgo::Linear, Vec::new(), |_, _, flex| {
                Ok(flex)
            })
            .unwrap()
            .combined
        });
        assert!(runs.iter().all(Vec::is_empty));
    }

    #[test]
    fn issue_timestamps_cover_every_chunk() {
        let topo = Topology::single_node(2);
        let world = topo.world_size();
        let degree = 4;
        run_threaded(topo, |mut comm| {
            let input = chunks(comm.rank(), world, degree);
            let run = run_overlapped(&mut comm, AllToAllAlgo::Linear, input, |_, i, flex| {
                Ok(toy_compute(i, flex))
            })
            .unwrap();
            assert_eq!(run.dispatch_issued.len(), degree);
            assert_eq!(run.combine_issued.len(), degree);
            assert!(run.wall_s >= 0.0);
            // Chunk i+1's dispatch departs before chunk i's combine:
            // that is the overlap.
            assert!(run.dispatch_issued[1] <= run.combine_issued[0]);
        });
    }

    #[test]
    fn a_failing_compute_aborts_the_schedule_with_its_error() {
        let topo = Topology::single_node(2);
        let world = topo.world_size();
        let got = run_threaded(topo, |mut comm| {
            let input = chunks(comm.rank(), world, 2);
            run_overlapped(&mut comm, AllToAllAlgo::Linear, input, |comm, _, _| {
                comm.malformed(0, "staged".into())
            })
            .map(|run| run.combined)
        });
        for res in got {
            assert!(matches!(res, Err(CommError::Malformed { .. })), "{res:?}");
        }
    }

    /// Rows `(R, 3)` whose values name their packed position.
    fn labeled_rows(rank: usize, rows: usize) -> Tensor {
        let data = (0..rows * 3)
            .map(|i| (rank * 10_000 + i) as f32 + 0.5)
            .collect();
        Tensor::from_vec(data, &[rows, 3]).unwrap()
    }

    fn offsets_of(lens: &[usize]) -> Vec<usize> {
        let mut offsets = vec![0];
        for len in lens {
            offsets.push(offsets[offsets.len() - 1] + len);
        }
        offsets
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Identity compute returns every row to its packed position
        /// bitwise, and `compute` sees every row of every rank exactly
        /// once — for empty bins, bins shorter than the degree (so
        /// some chunks are empty), and one dominant bin.
        #[test]
        fn exchange_bins_with_identity_compute_is_the_identity(
            world in (0usize..3).prop_map(|i| [1, 2, 4][i]),
            degree in 1usize..4,
            two_dh in 0usize..2,
            seed in 0u64..4096,
        ) {
            let algo = AllToAllAlgo::ALL[two_dh];
            let experts = 2 * world;
            // Per-rank bin lengths from the seed: mostly 0..3 (shorter
            // than the degree), bin `seed % E` dominant.
            let lens_of = move |rank: usize| -> Vec<usize> {
                (0..experts)
                    .map(|e| {
                        let h = (seed as usize + 1) * (rank * 31 + e * 17 + 7);
                        if e == seed as usize % experts { 9 + h % 5 } else { h % 3 }
                    })
                    .collect()
            };
            let results = run_threaded(Topology::for_world(world), move |mut comm| {
                let rank = comm.rank();
                let offsets = offsets_of(&lens_of(rank));
                let packed = labeled_rows(rank, offsets[experts]);
                let mut seen: Vec<f32> = Vec::new();
                let out = exchange_bins(&mut comm, algo, degree, &packed, &offsets, |_, gx, bins| {
                    assert_eq!(bins.len(), 3, "two local experts");
                    assert_eq!(gx.dims(), &[bins[2], 3]);
                    seen.extend_from_slice(gx.as_slice());
                    Ok(gx.clone())
                })
                .unwrap()
                .unwrap();
                assert_eq!(comm.parked_messages(), 0);
                (packed, out, seen, offsets)
            });
            let mut seen_all: Vec<u32> = Vec::new();
            let mut sent_all: Vec<u32> = Vec::new();
            for (rank, (packed, out, seen, offsets)) in results.iter().enumerate() {
                let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                prop_assert_eq!(bits(packed), bits(out), "rank {} offsets {:?}", rank, offsets);
                prop_assert_eq!(packed.dims(), out.dims());
                seen_all.extend(seen.iter().map(|v| v.to_bits()));
                sent_all.extend(packed.as_slice().iter().map(|v| v.to_bits()));
            }
            // Labels are unique across ranks, so equal sorted multisets
            // mean every row was computed exactly once, somewhere.
            seen_all.sort_unstable();
            sent_all.sort_unstable();
            prop_assert_eq!(seen_all, sent_all);
        }
    }

    #[test]
    fn exchange_bins_groups_rows_by_expert_in_source_order() {
        // Two ranks, one expert each, degree 1: rank d's compute must
        // see rank 0's rows for expert d, then rank 1's.
        let results = run_threaded(Topology::single_node(2), |mut comm| {
            let rank = comm.rank();
            let packed = labeled_rows(rank, 3);
            let offsets = if rank == 0 { [0, 1, 3] } else { [0, 2, 3] };
            let mut seen = Vec::new();
            exchange_bins(
                &mut comm,
                AllToAllAlgo::Linear,
                1,
                &packed,
                &offsets,
                |_, gx, bins| {
                    seen = gx.as_slice().to_vec();
                    assert_eq!(bins, [0, gx.dims()[0]]);
                    Ok(gx.clone())
                },
            )
            .unwrap()
            .unwrap();
            seen
        });
        let row = |rank: usize, r: usize| -> Vec<f32> {
            labeled_rows(rank, 3).as_slice()[r * 3..(r + 1) * 3].to_vec()
        };
        assert_eq!(results[0], [row(0, 0), row(1, 0), row(1, 1)].concat());
        assert_eq!(results[1], [row(0, 1), row(0, 2), row(1, 2)].concat());
    }

    #[test]
    fn exchange_bins_parks_a_compute_error_and_still_completes_the_exchange() {
        // Rank 1's compute fails; rank 0 must neither hang nor see an
        // error of its own — it gets zero rows for what rank 1 owed it.
        let results = run_threaded(Topology::single_node(2), |mut comm| {
            let rank = comm.rank();
            let packed = labeled_rows(rank, 4);
            exchange_bins(
                &mut comm,
                AllToAllAlgo::Linear,
                2,
                &packed,
                &[0, 2, 4],
                |_, gx, _| {
                    if rank == 1 {
                        return Err(TensorError::InvalidArgument("staged".into()));
                    }
                    Ok(gx.clone())
                },
            )
        });
        let Ok(Ok(ok)) = &results[0] else {
            panic!("healthy rank must complete: {:?}", results[0]);
        };
        assert_eq!(ok.as_slice()[..6], labeled_rows(0, 4).as_slice()[..6]);
        assert!(ok.as_slice()[6..].iter().all(|&v| v == 0.0));
        assert!(matches!(results[1], Ok(Err(_))), "{:?}", results[1]);
    }

    #[test]
    fn exchange_bins_rejects_inconsistent_arguments_before_any_send() {
        let got = run_threaded(Topology::single_node(2), |mut comm| {
            let packed = labeled_rows(0, 4);
            let id = |_: usize, gx: &Tensor, _: &[usize]| Ok(gx.clone());
            let algo = AllToAllAlgo::Linear;
            [
                matches!(
                    exchange_bins(&mut comm, algo, 0, &packed, &[0, 2, 4], id),
                    Ok(Err(_))
                ),
                matches!(
                    exchange_bins(&mut comm, algo, 1, &packed, &[0, 2, 3], id),
                    Ok(Err(_))
                ),
                matches!(
                    exchange_bins(&mut comm, algo, 1, &packed, &[0, 3, 2, 4], id),
                    Ok(Err(_))
                ),
                matches!(
                    exchange_bins(&mut comm, algo, 1, &packed, &[0, 1, 2, 4], id),
                    Ok(Err(_))
                ),
                comm.sent_payload_elems() == 0,
            ]
        });
        assert_eq!(got, vec![[true; 5]; 2]);
    }

    /// Rank 1 skips the step and raw-sends `dispatch` under the tag
    /// rank 0's dispatch listens on; returns rank 0's verdict.
    fn with_rogue_peer(dispatch: Vec<f32>) -> Result<Result<Tensor, TensorError>, CommError> {
        let dispatch = &dispatch;
        run_threaded(Topology::single_node(2), |mut comm| {
            if comm.rank() == 1 {
                comm.send(0, 1, dispatch.clone()).unwrap();
                return Ok(Ok(Tensor::zeros(&[0])));
            }
            let packed = labeled_rows(0, 2);
            exchange_bins(
                &mut comm,
                AllToAllAlgo::Linear,
                1,
                &packed,
                &[0, 2, 2],
                |_, gx, _| Ok(gx.clone()),
            )
        })
        .swap_remove(0)
    }

    #[test]
    fn malformed_count_headers_are_typed_errors_not_slice_panics() {
        // One local expert, M = 3: a well-formed payload is a row
        // count followed by that many rows.
        let bad: [(&str, Vec<f32>); 5] = [
            ("no header", vec![]),
            ("truncated", vec![2.0, 1.0, 1.0, 1.0]),
            ("over-long", vec![0.0, 1.0, 1.0, 1.0]),
            ("NaN count", vec![f32::NAN]),
            ("fractional count", vec![0.5, 1.0, 1.0]),
        ];
        for (what, payload) in bad {
            match with_rogue_peer(payload) {
                Err(CommError::Malformed {
                    rank: 0, peer: 1, ..
                }) => {}
                other => panic!("{what}: expected Malformed, got {other:?}"),
            }
        }
    }
}
