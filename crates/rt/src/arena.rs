//! Thread-safe recycling arena for `Vec<f32>` scratch buffers.
//!
//! The per-iteration MoE path allocates the same buffer shapes every
//! step: dispatch tensors, expert activations, gradients. Instead of
//! hitting the allocator (and the kernel's zero-page machinery) each
//! time, hot paths check buffers out of the global [`Arena`] and
//! return them when the iteration is done.
//!
//! # Lifetime rules
//!
//! * A checked-out buffer is plain owned `Vec<f32>` — there is no
//!   guard type and no obligation; dropping it instead of `put`ting
//!   it back is always safe, it just forfeits the recycle.
//! * [`Arena::take_zeroed`] returns an all-zero buffer of exactly the
//!   requested length (recycled buffers are re-zeroed, so it is a
//!   drop-in for `vec![0.0; n]`).
//! * [`Arena::take_raw`] skips the zeroing; the caller must fully
//!   overwrite the contents before reading them. Use it only when the
//!   very next operation writes every element.
//! * Buffers are classed by **power-of-two capacity**. A take of `len`
//!   pops from class `len.next_power_of_two()` and re-lengthens the
//!   buffer inside its capacity, never reallocating; a miss allocates
//!   the whole class. `put` files a buffer under the largest power of
//!   two its capacity holds, so a foreign `Vec` lands where every take
//!   it can serve fits. Lengths that vary from step to step — exact
//!   expert bins under a clamping capacity policy — therefore keep
//!   hitting the same classes. Zero-length buffers are dropped.
//! * Per-class and whole-arena caps bound retained memory, counted in
//!   capacity; `put` beyond a cap silently drops the buffer.
//!
//! Recycling never affects numerics: a taken buffer's observable
//! contents are fully defined (`take_zeroed`) or fully overwritten by
//! contract (`take_raw`), so arena on/off cannot change results. Nor
//! does the class headroom cost resident memory: a miss allocates
//! zeroed memory, and capacity no take's length reaches is never
//! written, so the OS never backs those pages.

use std::collections::BTreeMap;
#[cfg(feature = "check-race")]
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Most buffers retained per capacity class.
const PER_CLASS_CAP: usize = 16;
/// Most `f32` capacity retained across the whole arena (256 MiB).
const TOTAL_CAP_ELEMS: usize = 64 << 20;

/// Cumulative arena counters, exported for telemetry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// `take_*` calls satisfied from a recycled buffer.
    pub hits: u64,
    /// `take_*` calls that had to allocate fresh.
    pub misses: u64,
    /// Buffers accepted back by `put`.
    pub returns: u64,
    /// Buffers `put` dropped because a cap was reached.
    pub evictions: u64,
    /// `f32` capacity currently retained in free lists.
    pub retained_elems: usize,
}

impl ArenaStats {
    /// Fraction of takes served from the free lists.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Capacity-classed free lists behind a single mutex. Lock hold times
/// are a map lookup plus a `Vec` push/pop — nanoseconds against the
/// microseconds-to-milliseconds kernels the buffers feed.
pub struct Arena {
    classes: Mutex<Classes>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    evictions: AtomicU64,
}

/// Free buffers by class: class `c` holds buffers of capacity `≥ c`.
#[derive(Default)]
struct Classes {
    by_class: BTreeMap<usize, Vec<Vec<f32>>>,
    retained_elems: usize,
}

impl Default for Arena {
    fn default() -> Self {
        Arena::new()
    }
}

impl Arena {
    pub fn new() -> Arena {
        Arena {
            classes: Mutex::new(Classes::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// A recycled buffer of capacity `≥ len`, at its previous length
    /// (a hit).
    fn pop(&self, len: usize) -> Option<Vec<f32>> {
        let mut classes = match self.classes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let buf = classes
            .by_class
            .get_mut(&len.next_power_of_two())
            .and_then(Vec::pop);
        if let Some(buf) = &buf {
            classes.retained_elems = classes.retained_elems.saturating_sub(buf.capacity());
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        buf
    }

    /// A miss: zeroed memory for `len`'s whole class, `len` of it in use.
    fn fresh(&self, len: usize) -> Vec<f32> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        if len == 0 {
            return Vec::new();
        }
        let mut buf = vec![0.0; len.next_power_of_two()];
        buf.truncate(len);
        buf
    }

    /// Checks out an all-zero buffer of exactly `len` elements.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(mut buf) => {
                buf.clear();
                buf.resize(len, 0.0);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, true, Location::caller());
                buf
            }
            None => {
                let buf = self.fresh(len);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, false, Location::caller());
                buf
            }
        }
    }

    /// Checks out a buffer of exactly `len` elements with
    /// **unspecified contents** (stale data from a previous user, or
    /// zeros where the buffer is fresh or grew). The caller must
    /// overwrite every element before reading any.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn take_raw(&self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(mut buf) => {
                buf.resize(len, 0.0);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, true, Location::caller());
                buf
            }
            None => {
                let buf = self.fresh(len);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, false, Location::caller());
                buf
            }
        }
    }

    /// Returns a buffer to the class of its capacity for later reuse.
    /// Dropped silently if empty or if retaining it would exceed the
    /// per-class or whole-arena cap.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn put(&self, buf: Vec<f32>) {
        let (len, cap) = (buf.len(), buf.capacity());
        if len == 0 {
            return;
        }
        // Ownership is relinquished whether the buffer is retained or
        // evicted below; the checker is told which, because an evicted
        // buffer's address returns to the allocator and must be
        // forgotten rather than shadow-tracked.
        #[cfg(feature = "check-race")]
        let (chk_buf, chk_site) = (buf.as_ptr() as usize, Location::caller());
        let mut classes = match self.classes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        if classes.retained_elems + cap > TOTAL_CAP_ELEMS {
            drop(classes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "check-race")]
            crate::chk::on_arena_put(chk_buf, len, false, chk_site);
            return;
        }
        let class = classes.by_class.entry(1 << cap.ilog2()).or_default();
        if class.len() >= PER_CLASS_CAP {
            drop(classes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "check-race")]
            crate::chk::on_arena_put(chk_buf, len, false, chk_site);
            return;
        }
        class.push(buf);
        classes.retained_elems += cap;
        drop(classes);
        self.returns.fetch_add(1, Ordering::Relaxed);
        #[cfg(feature = "check-race")]
        crate::chk::on_arena_put(chk_buf, len, true, chk_site);
    }

    /// Drops every retained buffer (counters are kept).
    pub fn clear(&self) {
        let mut classes = match self.classes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        classes.by_class.clear();
        classes.retained_elems = 0;
        #[cfg(feature = "check-race")]
        crate::chk::on_arena_clear();
    }

    /// Snapshot of the cumulative counters.
    pub fn stats(&self) -> ArenaStats {
        let retained_elems = match self.classes.lock() {
            Ok(g) => g.retained_elems,
            Err(poisoned) => poisoned.into_inner().retained_elems,
        };
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            returns: self.returns.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            retained_elems,
        }
    }
}

static ARENA: OnceLock<Arena> = OnceLock::new();

/// The process-global arena used by the compute hot path.
pub fn arena() -> &'static Arena {
    ARENA.get_or_init(Arena::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_zeroed_recycles_and_rezeros() {
        let a = Arena::new();
        let mut buf = a.take_zeroed(128);
        assert!(buf.iter().all(|&v| v == 0.0));
        buf.fill(3.0);
        a.put(buf);
        let buf2 = a.take_zeroed(128);
        assert!(buf2.iter().all(|&v| v == 0.0), "recycled buffer re-zeroed");
        let s = a.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 1);
        assert_eq!(s.returns, 1);
    }

    #[test]
    fn a_take_reuses_a_buffer_put_at_another_length_of_its_class() {
        let a = Arena::new();
        let buf = a.take_raw(100);
        assert_eq!(
            (buf.len(), buf.capacity()),
            (100, 128),
            "a miss allocates the class"
        );
        let at = buf.as_ptr();
        a.put(buf);
        assert_eq!(a.stats().retained_elems, 128, "retention counts capacity");
        let grown = a.take_raw(120);
        assert_eq!(grown.len(), 120);
        assert_eq!(
            grown.as_ptr(),
            at,
            "re-lengthened in place, not reallocated"
        );
        a.put(grown);
        let shrunk = a.take_zeroed(65);
        assert_eq!((shrunk.len(), shrunk.as_ptr()), (65, at));
        let next_class = a.take_raw(129);
        assert_eq!(next_class.capacity(), 256);
        let s = a.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn take_zeroed_rezeros_a_buffer_last_used_longer() {
        let a = Arena::new();
        let mut buf = a.take_raw(128);
        buf.fill(7.0);
        a.put(buf);
        let short = a.take_zeroed(70);
        assert_eq!(short.len(), 70);
        assert!(short.iter().all(|&v| v == 0.0));
        a.put(short);
        // Grown back over the stale tail it left behind.
        let full = a.take_zeroed(128);
        assert!(full.iter().all(|&v| v == 0.0));
        assert_eq!(a.stats().hits, 2);
    }

    #[test]
    fn a_foreign_vec_files_under_its_floor_class() {
        let a = Arena::new();
        let foreign = vec![1.0; 100];
        let at = foreign.as_ptr();
        a.put(foreign);
        assert_eq!(a.stats().retained_elems, 100);
        // Class 128 holds nothing: a take of 100 must not pop a buffer
        // filed under 64, whose capacity need not reach 128.
        assert_eq!(a.take_raw(100).capacity(), 128);
        let fits = a.take_raw(40);
        assert_eq!((fits.len(), fits.as_ptr()), (40, at));
        let s = a.stats();
        assert_eq!((s.hits, s.misses, s.retained_elems), (1, 1, 0));
    }

    #[test]
    fn per_class_cap_evicts() {
        let a = Arena::new();
        for _ in 0..PER_CLASS_CAP + 3 {
            a.put(vec![0.0; 8]);
        }
        // Another length, the same class.
        let mut short = Vec::with_capacity(8);
        short.push(0.0);
        a.put(short);
        let s = a.stats();
        assert_eq!(s.returns, PER_CLASS_CAP as u64);
        assert_eq!(s.evictions, 4);
        assert_eq!(s.retained_elems, PER_CLASS_CAP * 8);
    }

    #[test]
    fn the_whole_arena_cap_counts_capacity() {
        let a = Arena::new();
        let half = || {
            let mut buf = Vec::with_capacity(TOTAL_CAP_ELEMS / 2 + 1);
            buf.push(1.0);
            buf
        };
        a.put(half());
        a.put(half());
        let s = a.stats();
        assert_eq!((s.returns, s.evictions), (1, 1));
        assert_eq!(s.retained_elems, TOTAL_CAP_ELEMS / 2 + 1);
    }

    #[test]
    fn clear_drops_retained() {
        let a = Arena::new();
        a.put(vec![0.0; 32]);
        assert_eq!(a.stats().retained_elems, 32);
        a.clear();
        assert_eq!(a.stats().retained_elems, 0);
    }

    #[test]
    fn hit_rate_math() {
        let a = Arena::new();
        assert_eq!(a.stats().hit_rate(), 0.0);
        a.put(a.take_zeroed(4));
        let _ = a.take_zeroed(4);
        let s = a.stats();
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn zero_length_put_is_dropped() {
        let a = Arena::new();
        a.put(Vec::new());
        a.put(Vec::with_capacity(64));
        assert_eq!(a.stats().returns, 0);
        assert_eq!(a.stats().retained_elems, 0);
    }
}
