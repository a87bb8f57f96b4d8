//! Typed errors for the threaded runtime.
//!
//! The collectives in [`crate::runtime`] used to panic on every
//! failure mode (dead peer, indivisible buffer, torn-down run); they
//! now surface these as [`CommError`] values so callers — and the
//! deterministic concurrency checker — can observe and report them
//! instead of unwinding a rank thread mid-collective.

use std::fmt;

/// Everything that can go wrong inside a [`crate::runtime`] collective.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A peer rank is out of range for the current world.
    PeerOutOfRange {
        /// The offending peer id.
        peer: usize,
        /// The world size it was checked against.
        world: usize,
    },
    /// A point-to-point channel is closed: the peer's thread exited
    /// (normally or by panic) while this rank still needed it.
    Disconnected {
        /// The rank whose operation failed.
        rank: usize,
    },
    /// A collective's input buffer is not divisible into the per-peer
    /// chunks the algorithm requires.
    Indivisible {
        /// Buffer length in elements.
        len: usize,
        /// Required divisor (world size or shard count).
        chunks: usize,
    },
    /// The deterministic scheduler proved the current schedule can
    /// make no further progress (see `runtime::sched`).
    Deadlock {
        /// The schedule seed that reproduces the deadlock.
        seed: u64,
        /// Human-readable wait-state summary at the point of quiesce.
        detail: String,
    },
    /// A reliable collective exhausted its retry budget waiting for a
    /// peer: the message (or its acknowledgement) never arrived within
    /// the configured timeouts. Surfaced instead of hanging.
    Timeout {
        /// The rank whose wait expired.
        rank: usize,
        /// The peer it was waiting on.
        peer: usize,
        /// The message tag it was waiting for (0 for an ack wait).
        tag: u64,
        /// Receive attempts made (1 initial + retries) before giving up.
        attempts: u32,
    },
    /// A wire payload's in-band count header is unusable: missing,
    /// not a finite non-negative integer, inexact in `f32`, or
    /// inconsistent with the payload length. Raised on receive for a
    /// peer's message and on send for a count this rank cannot encode.
    Malformed {
        /// The rank that detected it.
        rank: usize,
        /// The peer the payload came from (or was bound for).
        peer: usize,
        /// What was wrong with the header.
        detail: String,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerOutOfRange { peer, world } => {
                write!(f, "peer rank {peer} out of range for world of {world}")
            }
            CommError::Disconnected { rank } => {
                write!(f, "rank {rank}: channel disconnected (peer thread exited)")
            }
            CommError::Indivisible { len, chunks } => {
                write!(
                    f,
                    "buffer of {len} elements not divisible into {chunks} chunks"
                )
            }
            CommError::Deadlock { seed, detail } => {
                write!(f, "deadlock under schedule seed {seed}: {detail}")
            }
            CommError::Timeout {
                rank,
                peer,
                tag,
                attempts,
            } => {
                write!(
                    f,
                    "rank {rank}: timed out waiting on rank {peer} (tag {tag}) \
                     after {attempts} attempt(s)"
                )
            }
            CommError::Malformed { rank, peer, detail } => {
                write!(
                    f,
                    "rank {rank}: malformed payload with rank {peer}: {detail}"
                )
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_failure() {
        let e = CommError::Indivisible { len: 7, chunks: 4 };
        assert!(e.to_string().contains("7"));
        assert!(e.to_string().contains("4"));
        let e = CommError::Deadlock {
            seed: 42,
            detail: "rank 1 waiting on (0, 3)".into(),
        };
        assert!(e.to_string().contains("seed 42"));
        let e = CommError::Timeout {
            rank: 1,
            peer: 3,
            tag: 5,
            attempts: 4,
        };
        assert!(e.to_string().contains("rank 3"));
        assert!(e.to_string().contains("4 attempt"));
    }
}
