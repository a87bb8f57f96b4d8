//! The `rt` layer's ledger rows: deltas of the arena's and the pool's
//! cumulative counters around the untraced windows of a traced run.

use crate::adapter;

/// Counter growth summed over the windows measured so far.
#[derive(Default)]
pub struct RtDelta {
    hits: u64,
    misses: u64,
    jobs: u64,
    chunks: u64,
    worker_chunks: u64,
}

impl RtDelta {
    /// Runs `body` and adds what the counters grew by meanwhile.
    pub fn around<R>(&mut self, body: impl FnOnce() -> R) -> R {
        let (a0, p0) = (adapter::arena_stats(), adapter::pool_stats());
        let out = body();
        let (a1, p1) = (adapter::arena_stats(), adapter::pool_stats());
        self.hits += a1.hits - a0.hits;
        self.misses += a1.misses - a0.misses;
        self.jobs += p1.jobs - p0.jobs;
        self.chunks += p1.chunks - p0.chunks;
        self.worker_chunks += p1.worker_chunks - p0.worker_chunks;
        out
    }

    /// The four `rt.*` rows, per step of `steps` measured steps.
    pub fn metrics(&self, steps: usize) -> [(&'static str, f64); 4] {
        let steps = steps.max(1) as f64;
        [
            (
                "rt.arena_hit_rate",
                self.hits as f64 / (self.hits + self.misses).max(1) as f64,
            ),
            ("rt.arena_misses_per_step", self.misses as f64 / steps),
            ("rt.pool_jobs_per_step", self.jobs as f64 / steps),
            (
                "rt.pool_worker_share",
                self.worker_chunks as f64 / self.chunks.max(1) as f64,
            ),
        ]
    }
}
