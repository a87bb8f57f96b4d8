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
//! * Buffers are classed by **exact length**; `put` files a buffer
//!   under `buf.len()` (capacity beyond the length is kept but never
//!   observed). Zero-length buffers are dropped.
//! * Per-class and whole-arena caps bound retained memory; `put`
//!   beyond a cap silently drops the buffer.
//!
//! Recycling never affects numerics: a taken buffer's observable
//! contents are fully defined (`take_zeroed`) or fully overwritten by
//! contract (`take_raw`), so arena on/off cannot change results.

use std::collections::BTreeMap;
#[cfg(feature = "check-race")]
use std::panic::Location;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

/// Most buffers retained per size class.
const PER_CLASS_CAP: usize = 16;
/// Most `f32`s retained across the whole arena (256 MiB).
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
    /// `f32` elements currently retained in free lists.
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

/// Size-classed free lists behind a single mutex. Lock hold times are
/// a map lookup plus a `Vec` push/pop — nanoseconds against the
/// microseconds-to-milliseconds kernels the buffers feed.
pub struct Arena {
    classes: Mutex<Classes>,
    hits: AtomicU64,
    misses: AtomicU64,
    returns: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Default)]
struct Classes {
    by_len: BTreeMap<usize, Vec<Vec<f32>>>,
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

    fn pop(&self, len: usize) -> Option<Vec<f32>> {
        let mut classes = match self.classes.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        let buf = classes.by_len.get_mut(&len).and_then(Vec::pop);
        if buf.is_some() {
            classes.retained_elems = classes.retained_elems.saturating_sub(len);
        }
        buf
    }

    /// Checks out an all-zero buffer of exactly `len` elements.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn take_zeroed(&self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(mut buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                buf.fill(0.0);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, true, Location::caller());
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let buf = vec![0.0; len];
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, false, Location::caller());
                buf
            }
        }
    }

    /// Checks out a buffer of exactly `len` elements with
    /// **unspecified contents** (stale data from a previous user, or
    /// zeros if freshly allocated). The caller must overwrite every
    /// element before reading any.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn take_raw(&self, len: usize) -> Vec<f32> {
        match self.pop(len) {
            Some(buf) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, true, Location::caller());
                buf
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                let buf = vec![0.0; len];
                #[cfg(feature = "check-race")]
                crate::chk::on_arena_take(buf.as_ptr() as usize, len, false, Location::caller());
                buf
            }
        }
    }

    /// Returns a buffer to its size class for later reuse. Dropped
    /// silently if empty or if retaining it would exceed the
    /// per-class or whole-arena cap.
    #[cfg_attr(feature = "check-race", track_caller)]
    pub fn put(&self, buf: Vec<f32>) {
        let len = buf.len();
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
        if classes.retained_elems + len > TOTAL_CAP_ELEMS {
            drop(classes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "check-race")]
            crate::chk::on_arena_put(chk_buf, len, false, chk_site);
            return;
        }
        let class = classes.by_len.entry(len).or_default();
        if class.len() >= PER_CLASS_CAP {
            drop(classes);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            #[cfg(feature = "check-race")]
            crate::chk::on_arena_put(chk_buf, len, false, chk_site);
            return;
        }
        class.push(buf);
        classes.retained_elems += len;
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
        classes.by_len.clear();
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
    fn classes_are_exact_length() {
        let a = Arena::new();
        a.put(vec![1.0; 64]);
        let buf = a.take_raw(65);
        assert_eq!(buf.len(), 65);
        assert_eq!(a.stats().misses, 1, "different length never matches");
        let hit = a.take_raw(64);
        assert_eq!(hit.len(), 64);
        assert_eq!(a.stats().hits, 1);
    }

    #[test]
    fn per_class_cap_evicts() {
        let a = Arena::new();
        for _ in 0..PER_CLASS_CAP + 3 {
            a.put(vec![0.0; 8]);
        }
        let s = a.stats();
        assert_eq!(s.returns, PER_CLASS_CAP as u64);
        assert_eq!(s.evictions, 3);
        assert_eq!(s.retained_elems, PER_CLASS_CAP * 8);
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
        assert_eq!(a.stats().returns, 0);
        assert_eq!(a.stats().retained_elems, 0);
    }
}
