use std::collections::HashMap;

use crate::Seconds;

/// Identifier of a stream on the simulated device.
///
/// Tutel's adaptive pipelining submits All-to-All chunks on a
/// *communication stream* and expert GEMMs on a *computation stream*;
/// any number of streams is supported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StreamId(pub usize);

/// Identifier of a scheduled operation, used to express dependencies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId(usize);

#[derive(Debug, Clone)]
struct Op {
    stream: StreamId,
    start: Seconds,
    finish: Seconds,
}

/// A small discrete-event timeline for multi-stream scheduling.
///
/// Operations on the same stream execute in submission order; an
/// operation additionally waits for all its dependencies. This is the
/// CUDA stream/event semantics that adaptive pipelining (Section 3.3)
/// relies on: partition-`i`'s expert GEMM waits for partition-`i`'s
/// first All-to-All, while partition-`i+1`'s All-to-All proceeds
/// concurrently on the communication stream.
///
/// # Example
///
/// ```
/// use tutel_simgpu::{StreamId, Timeline};
///
/// let mut tl = Timeline::new();
/// let comm = StreamId(0);
/// let comp = StreamId(1);
/// let a = tl.push(comm, 2.0, &[]);
/// let b = tl.push(comm, 2.0, &[]);
/// let c = tl.push(comp, 3.0, &[a]); // waits for a, overlaps with b
/// let _ = c;
/// let d = tl.push(comp, 3.0, &[b]);
/// let _ = d;
/// // a[0,2] b[2,4] c[2,5] d[5,8]: c overlaps b; d waits for stream + b.
/// assert_eq!(tl.makespan(), 8.0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Timeline {
    ops: Vec<Op>,
    stream_front: HashMap<StreamId, Seconds>,
}

impl Timeline {
    /// Creates an empty timeline at t = 0.
    pub fn new() -> Self {
        Timeline::default()
    }

    /// Schedules an operation of `duration` seconds on `stream`, after
    /// all of `deps` have finished. Returns its event id.
    ///
    /// # Panics
    ///
    /// Panics if `duration` is negative or a dependency id is invalid.
    pub fn push(&mut self, stream: StreamId, duration: Seconds, deps: &[EventId]) -> EventId {
        assert!(duration >= 0.0, "negative duration");
        let dep_ready = deps
            .iter()
            .map(|d| {
                self.ops
                    .get(d.0)
                    .expect("dependency event id out of range")
                    .finish
            })
            .fold(0.0f64, f64::max);
        let stream_ready = self.stream_front.get(&stream).copied().unwrap_or(0.0);
        let start = dep_ready.max(stream_ready);
        let finish = start + duration;
        self.stream_front.insert(stream, finish);
        self.ops.push(Op {
            stream,
            start,
            finish,
        });
        EventId(self.ops.len() - 1)
    }

    /// Completion time of the whole schedule (0 when empty).
    pub fn makespan(&self) -> Seconds {
        self.ops.iter().map(|o| o.finish).fold(0.0, f64::max)
    }

    /// Total busy time of one stream.
    pub fn stream_busy(&self, stream: StreamId) -> Seconds {
        self.ops
            .iter()
            .filter(|o| o.stream == stream)
            .map(|o| o.finish - o.start)
            .sum()
    }

    /// Number of scheduled operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the timeline is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total time during which two given streams are simultaneously busy
    /// — the amount of genuine comm/compute overlap achieved.
    pub fn overlap(&self, a: StreamId, b: StreamId) -> Seconds {
        let mut intervals_a: Vec<(Seconds, Seconds)> = self
            .ops
            .iter()
            .filter(|o| o.stream == a)
            .map(|o| (o.start, o.finish))
            .collect();
        let mut intervals_b: Vec<(Seconds, Seconds)> = self
            .ops
            .iter()
            .filter(|o| o.stream == b)
            .map(|o| (o.start, o.finish))
            .collect();
        intervals_a.sort_by(|x, y| x.0.total_cmp(&y.0));
        intervals_b.sort_by(|x, y| x.0.total_cmp(&y.0));
        let mut total = 0.0;
        let (mut i, mut j) = (0, 0);
        while i < intervals_a.len() && j < intervals_b.len() {
            let (s, f) = (
                intervals_a[i].0.max(intervals_b[j].0),
                intervals_a[i].1.min(intervals_b[j].1),
            );
            if f > s {
                total += f - s;
            }
            if intervals_a[i].1 < intervals_b[j].1 {
                i += 1;
            } else {
                j += 1;
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const COMM: StreamId = StreamId(0);
    const COMP: StreamId = StreamId(1);

    #[test]
    fn single_stream_serializes() {
        let mut tl = Timeline::new();
        tl.push(COMM, 1.0, &[]);
        tl.push(COMM, 2.0, &[]);
        assert_eq!(tl.makespan(), 3.0);
        assert_eq!(tl.stream_busy(COMM), 3.0);
    }

    #[test]
    fn dependencies_cross_streams() {
        let mut tl = Timeline::new();
        let a = tl.push(COMM, 2.0, &[]);
        tl.push(COMP, 3.0, &[a]);
        assert_eq!(tl.makespan(), 5.0);
    }

    #[test]
    fn pipelined_schedule_overlaps() {
        // Two-chunk pipeline: a2a(i) → expert(i) → a2a'(i).
        let mut tl = Timeline::new();
        let a0 = tl.push(COMM, 1.0, &[]);
        let a1 = tl.push(COMM, 1.0, &[]);
        let e0 = tl.push(COMP, 2.0, &[a0]);
        let e1 = tl.push(COMP, 2.0, &[a1]);
        let c0 = tl.push(COMM, 1.0, &[e0]);
        let c1 = tl.push(COMM, 1.0, &[e1]);
        let _ = (c0, c1);
        // a0[0,1] a1[1,2] e0[1,3] e1[3,5] c0[3,4] c1[5,6].
        assert_eq!(tl.makespan(), 6.0);
        // Unpipelined would be 2 (a2a) + 4 (expert) + 2 (a2a) = 8.
        assert!(tl.makespan() < 8.0);
        assert!(tl.overlap(COMM, COMP) > 0.0);
    }

    #[test]
    fn overlap_of_disjoint_streams_is_zero() {
        let mut tl = Timeline::new();
        let a = tl.push(COMM, 1.0, &[]);
        tl.push(COMP, 1.0, &[a]);
        assert_eq!(tl.overlap(COMM, COMP), 0.0);
    }

    #[test]
    fn empty_timeline() {
        let tl = Timeline::new();
        assert_eq!(tl.makespan(), 0.0);
        assert!(tl.is_empty());
    }

    #[test]
    #[should_panic(expected = "negative duration")]
    fn rejects_negative_duration() {
        Timeline::new().push(COMM, -1.0, &[]);
    }
}
