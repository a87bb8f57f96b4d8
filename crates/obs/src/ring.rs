//! A bounded in-process recorder: keeps the newest `cap` items and
//! counts what it had to drop.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// A mutex-guarded ring buffer. Push is O(1); when full, the oldest
/// item is evicted and the drop counter incremented, so a long run can
/// never exhaust memory while the exporter still knows data went
/// missing.
#[derive(Debug)]
pub struct RingBuffer<T> {
    items: Mutex<VecDeque<T>>,
    cap: usize,
    dropped: AtomicU64,
}

impl<T> RingBuffer<T> {
    /// Creates a ring retaining at most `cap` items.
    ///
    /// # Panics
    ///
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "ring capacity must be positive");
        RingBuffer {
            items: Mutex::new(VecDeque::new()),
            cap,
            dropped: AtomicU64::new(0),
        }
    }

    /// Appends `item`, evicting the oldest entry when full.
    pub fn push(&self, item: T) {
        let mut items = self.items.lock().expect("ring poisoned");
        if items.len() == self.cap {
            items.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        items.push_back(item);
    }

    /// Number of retained items.
    pub fn len(&self) -> usize {
        self.items.lock().expect("ring poisoned").len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Items evicted so far.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// The most items the ring retains.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Items pushed so far, evicted ones included: a mark for
    /// [`RingBuffer::since`].
    pub fn pushed(&self) -> u64 {
        let items = self.items.lock().expect("ring poisoned");
        items.len() as u64 + self.dropped()
    }

    /// Visits, oldest first, the retained items pushed after
    /// [`RingBuffer::pushed`] returned `mark`, without touching older
    /// ones.
    pub fn since(&self, mark: u64, f: impl FnMut(&T)) {
        let items = self.items.lock().expect("ring poisoned");
        let newer = (items.len() as u64 + self.dropped()).saturating_sub(mark);
        let start = items
            .len()
            .saturating_sub(usize::try_from(newer).unwrap_or(usize::MAX));
        items.range(start..).for_each(f);
    }

    /// Scans retained items newest-first, applying `f` until it
    /// returns `Some`; that value is returned. Used to patch the most
    /// recent matching record in place (e.g. backfilling a decision's
    /// measured cost once the measurement lands).
    pub fn update_last<R>(&self, mut f: impl FnMut(&mut T) -> Option<R>) -> Option<R> {
        let mut items = self.items.lock().expect("ring poisoned");
        for item in items.iter_mut().rev() {
            if let Some(r) = f(item) {
                return Some(r);
            }
        }
        None
    }
}

impl<T: Clone> RingBuffer<T> {
    /// A copy of the retained items, oldest first.
    pub fn snapshot(&self) -> Vec<T> {
        self.items
            .lock()
            .expect("ring poisoned")
            .iter()
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_newest_and_counts_drops() {
        let ring = RingBuffer::new(3);
        for i in 0..5 {
            ring.push(i);
        }
        assert_eq!(ring.snapshot(), vec![2, 3, 4]);
        assert_eq!(ring.dropped(), 2);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = RingBuffer::<u8>::new(0);
    }

    #[test]
    fn since_visits_only_what_followed_the_mark() {
        let ring = RingBuffer::new(3);
        ring.push(0);
        let mark = ring.pushed();
        for i in 1..5 {
            ring.push(i);
        }
        let mut seen = Vec::new();
        ring.since(mark, |&x| seen.push(x));
        // 1 was evicted; what is left of the four pushes, oldest first.
        assert_eq!(seen, vec![2, 3, 4]);
        let mark = ring.pushed();
        ring.since(mark, |&x| seen.push(x));
        assert_eq!(seen.len(), 3);
    }

    #[test]
    fn update_last_patches_newest_match() {
        let ring = RingBuffer::new(4);
        for i in 0..4 {
            ring.push(i);
        }
        let hit = ring.update_last(|x| {
            if *x % 2 == 0 {
                *x = 100;
                Some(*x)
            } else {
                None
            }
        });
        assert_eq!(hit, Some(100));
        assert_eq!(ring.snapshot(), vec![0, 1, 100, 3]);
        assert_eq!(
            ring.update_last(|x| if *x > 500 { Some(()) } else { None }),
            None
        );
    }
}
