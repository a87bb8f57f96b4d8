//! The sequential All-to-All oracle: the exchange of Algorithm 1 of
//! the paper, computed over every rank's buffer at once.

use crate::RankBuffers;

/// Sequential linear All-to-All over all ranks' buffers.
///
/// Each rank `r` splits its buffer into `n` equal chunks; chunk `d` of
/// rank `r` is delivered to rank `d` at chunk position `r`. This is the
/// exchange both routes of the threaded runtime are tested against.
///
/// # Panics
///
/// Panics if buffers have unequal sizes or are not divisible into `n`
/// chunks.
///
/// # Example
///
/// ```
/// let bufs = vec![vec![0.0, 1.0], vec![10.0, 11.0]];
/// let out = tutel_comm::linear_all_to_all(&bufs);
/// assert_eq!(out[0], vec![0.0, 10.0]);
/// assert_eq!(out[1], vec![1.0, 11.0]);
/// ```
#[allow(clippy::needless_range_loop)]
pub fn linear_all_to_all(bufs: &RankBuffers) -> RankBuffers {
    let n = bufs.len();
    assert!(n > 0, "all-to-all over zero ranks");
    let len = bufs[0].len();
    assert!(
        bufs.iter().all(|b| b.len() == len),
        "all ranks must hold equally sized buffers"
    );
    assert!(
        len.is_multiple_of(n),
        "buffer of {len} elements not divisible into {n} chunks"
    );
    let chunk = len / n;
    let mut out = vec![vec![0.0f32; len]; n];
    for (src, buf) in bufs.iter().enumerate() {
        for dst in 0..n {
            out[dst][src * chunk..(src + 1) * chunk]
                .copy_from_slice(&buf[dst * chunk..(dst + 1) * chunk]);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labeled(n: usize, chunk: usize) -> RankBuffers {
        // Value encodes (src, dst, offset) uniquely.
        (0..n)
            .map(|s| (0..n * chunk).map(|i| (s * n * chunk + i) as f32).collect())
            .collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn exchange_is_a_transpose_of_chunks() {
        let n = 4;
        let chunk = 3;
        let out = linear_all_to_all(&labeled(n, chunk));
        for dst in 0..n {
            for src in 0..n {
                for o in 0..chunk {
                    let expect = (src * n * chunk + dst * chunk + o) as f32;
                    assert_eq!(out[dst][src * chunk + o], expect);
                }
            }
        }
    }

    #[test]
    fn involution_for_symmetric_world() {
        let bufs = labeled(3, 2);
        let once = linear_all_to_all(&bufs);
        let twice = linear_all_to_all(&once);
        assert_eq!(twice, bufs);
    }

    #[test]
    fn single_rank_is_identity() {
        let bufs = vec![vec![1.0, 2.0, 3.0]];
        assert_eq!(linear_all_to_all(&bufs), bufs);
    }

    #[test]
    #[should_panic(expected = "not divisible")]
    fn rejects_indivisible_buffers() {
        linear_all_to_all(&vec![vec![0.0; 3]; 2]);
    }

    #[test]
    #[should_panic(expected = "equally sized")]
    fn rejects_ragged_buffers() {
        linear_all_to_all(&vec![vec![0.0; 4], vec![0.0; 2]]);
    }
}
