//! Flexible All-to-All (Section 3.1 of the paper).
//!
//! A plain All-to-All used for MoE dispatch transforms the layout
//! `(E, ΔC, M) → (W, ΔE, ΔC, M)`: the leading dimensions depend on the
//! world size `W`, and at large `W` the per-batch row count of the
//! following expert GEMM collapses (Figure 7). Flexible All-to-All
//! takes two extra arguments — the dimension to *concatenate* received
//! chunks along and the dimension to *split* the input along — so that
//! dispatch can produce `(ΔE, C, M)` whose shape is independent of `W`.

use tutel_tensor::{Tensor, TensorError};

use crate::runtime::Communicator;
use crate::{AllToAllAlgo, CommError};

/// This rank's Flexible All-to-All, the paper's
/// `net.flex_all2all(y, concat_dim, split_dim)`: splits `y` into `W`
/// equal parts along `split_dim`, sends part `d` to rank `d` over
/// `algo`, and concatenates the parts received along `concat_dim` in
/// source-rank order.
///
/// For MoE dispatch call with `(concat_dim, split_dim) = (1, 0)`:
/// `(E, ΔC, M) → (ΔE, C, M)`. For combine use `(0, 1)`:
/// `(ΔE, C, M) → (E, ΔC, M)` (Table 3 of the paper).
///
/// # Errors
///
/// The outer [`CommError`] is the exchange's: transport, or a received
/// part whose length is not this rank's part length
/// ([`CommError::Malformed`] — the peer passed another shape). The
/// inner [`TensorError`] is this rank's alone: `y` does not split into
/// `W` parts along `split_dim`, or `concat_dim` is out of range. A rank
/// whose `y` does not split still joins the exchange with empty parts,
/// so no peer blocks on it.
///
/// # Example
///
/// ```
/// use tutel_comm::{flex::flex_all_to_all, run_threaded, AllToAllAlgo};
/// use tutel_comm::Topology;
/// use tutel_tensor::Tensor;
///
/// // W = 2, E = 2 experts, ΔC = 2, M = 1.
/// let out = run_threaded(Topology::single_node(2), |mut comm| {
///     let first = 1.0 + 4.0 * comm.rank() as f32;
///     let y = Tensor::from_vec((0..4).map(|i| first + i as f32).collect(), &[2, 2, 1])?;
///     flex_all_to_all(&mut comm, AllToAllAlgo::Linear, &y, 1, 0).unwrap()
/// });
/// // Rank 0 now owns expert 0 with capacity gathered from both ranks.
/// let on_rank0 = out[0].as_ref().unwrap();
/// assert_eq!(on_rank0.dims(), &[1, 4, 1]);
/// assert_eq!(on_rank0.as_slice(), &[1.0, 2.0, 5.0, 6.0]);
/// ```
pub fn flex_all_to_all(
    comm: &mut Communicator,
    algo: AllToAllAlgo,
    y: &Tensor,
    concat_dim: usize,
    split_dim: usize,
) -> Result<Result<Tensor, TensorError>, CommError> {
    let world = comm.world_size();
    let (sends, part_dims) = match y.split_axis(split_dim, world) {
        Ok(parts) => {
            let dims = parts[0].dims().to_vec();
            (parts.into_iter().map(Tensor::into_vec).collect(), Ok(dims))
        }
        Err(e) => (vec![Vec::new(); world], Err(e)),
    };
    let received = comm.ialltoall_v(algo, sends)?.wait(comm)?;
    let part_dims = match part_dims {
        Ok(dims) => dims,
        Err(e) => return Ok(Err(e)),
    };
    let mut parts = Vec::with_capacity(world);
    for (src, buf) in received.into_iter().enumerate() {
        let len = buf.len();
        match Tensor::from_vec(buf, &part_dims) {
            Ok(part) => parts.push(part),
            Err(_) => {
                return comm.malformed(src, format!("{len} elements for a {part_dims:?} part"))
            }
        }
    }
    Ok(Tensor::concat_axis(&parts, concat_dim))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_threaded;
    use crate::Topology;

    /// Rank `r`'s `(e, dc, m)` tensor; every element value encodes
    /// (rank, expert, cap, m) uniquely.
    fn input(rank: usize, e: usize, dc: usize, m: usize) -> Tensor {
        let data = (0..e * dc * m).map(|i| (rank * e * dc * m + i) as f32);
        Tensor::from_vec(data.collect(), &[e, dc, m]).unwrap()
    }

    #[test]
    fn dispatch_routes_expert_slabs_to_owners() {
        let out = run_threaded(Topology::single_node(2), |mut comm| {
            let y = input(comm.rank(), 2, 2, 1);
            flex_all_to_all(&mut comm, AllToAllAlgo::Linear, &y, 1, 0)
        });
        // Rank 1 owns expert 1; capacity slots from rank 0 then rank 1.
        let (r0, r1) = (input(0, 2, 2, 1), input(1, 2, 2, 1));
        let expect = [
            r0.at(&[1, 0, 0]),
            r0.at(&[1, 1, 0]),
            r1.at(&[1, 0, 0]),
            r1.at(&[1, 1, 0]),
        ];
        assert_eq!(
            out[1],
            Ok(Ok(Tensor::from_vec(expect.to_vec(), &[1, 4, 1]).unwrap()))
        );
    }

    #[test]
    fn one_rank_with_a_bad_shape_fails_every_rank_without_hanging() {
        // Rank 2's experts do not split over the world: it joins with
        // empty parts and reports its own error; every peer then
        // receives a part of the wrong length. Rank 1's capacity
        // differs: its parts have another length, so every peer of
        // rank 1 — and rank 1 itself — sees a foreign length.
        for (bad, dims) in [(2, [3, 2, 2]), (1, [4, 3, 2])] {
            let got = run_threaded(Topology::new(2, 2), |mut comm| {
                let rank = comm.rank();
                let y = if rank == bad {
                    Tensor::zeros(&dims)
                } else {
                    input(rank, 4, 2, 2)
                };
                let r = flex_all_to_all(&mut comm, AllToAllAlgo::TwoDh, &y, 1, 0);
                (r, comm.parked_messages())
            });
            for (rank, (r, parked)) in got.into_iter().enumerate() {
                match r {
                    Ok(Err(_)) if rank == bad && dims[0] == 3 => {}
                    Err(CommError::Malformed { rank: at, .. }) if at == rank => {}
                    other => panic!("bad rank {bad}, rank {rank}: got {other:?}"),
                }
                assert_eq!(parked, 0, "rank {rank} leaked its mailbox");
            }
        }
    }

    #[test]
    fn split_dim_not_divisible_by_the_world_is_a_local_error() {
        // E = 3 over W = 4 on every rank: all join with empty parts.
        let got = run_threaded(Topology::single_node(4), |mut comm| {
            let y = input(comm.rank(), 3, 1, 1);
            flex_all_to_all(&mut comm, AllToAllAlgo::Linear, &y, 1, 0)
        });
        assert!(got.iter().all(|r| matches!(r, Ok(Err(_)))), "{got:?}");
    }
}
