//! How this crate's threads wait on a channel: poll first, park after.
//!
//! Waking a parked thread costs microseconds, and most messages of a
//! resident run arrive within a few microseconds of the wait starting.
//! The poll yields rather than spins: a W = 2 step runs three threads
//! on as few as two cores, where a spinning waiter holds the core its
//! sender needs.

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel::{Receiver, RecvTimeoutError, TryRecvError};

/// How long a wait polls its channel before it parks.
pub(crate) const POLL_BEFORE_PARK: Duration = Duration::from_micros(50);

/// Receives from `rx`, waiting up to `timeout` (`None`: without limit).
///
/// Polls `try_recv`, yielding between tries, for [`POLL_BEFORE_PARK`]
/// or until the timeout if that comes first, then blocks in the
/// channel's own receive for whatever time is left. Without a timeout
/// the only error is [`RecvTimeoutError::Disconnected`].
pub(crate) fn poll_then_park<T>(
    rx: &Receiver<T>,
    timeout: Option<Duration>,
) -> Result<T, RecvTimeoutError> {
    let start = Instant::now();
    let poll = timeout.map_or(POLL_BEFORE_PARK, |t| t.min(POLL_BEFORE_PARK));
    loop {
        match rx.try_recv() {
            Ok(msg) => return Ok(msg),
            Err(TryRecvError::Disconnected) => return Err(RecvTimeoutError::Disconnected),
            Err(TryRecvError::Empty) if start.elapsed() < poll => thread::yield_now(),
            Err(TryRecvError::Empty) => break,
        }
    }
    match timeout {
        None => rx.recv().map_err(|_| RecvTimeoutError::Disconnected),
        Some(t) => rx.recv_timeout(t.saturating_sub(start.elapsed())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;

    /// Runs `f` on another thread after sleeping twice the poll
    /// budget, so the wait it answers has already parked.
    fn after_the_budget(f: impl FnOnce() + Send + 'static) -> thread::JoinHandle<()> {
        thread::spawn(move || {
            thread::sleep(2 * POLL_BEFORE_PARK);
            f();
        })
    }

    #[test]
    fn a_queued_message_returns_at_once() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(poll_then_park(&rx, None), Ok(1));
        assert_eq!(poll_then_park(&rx, Some(Duration::ZERO)), Ok(2));
    }

    #[test]
    fn a_late_message_arrives_through_the_park() {
        for timeout in [None, Some(Duration::from_secs(60))] {
            let (tx, rx) = unbounded();
            let sender = after_the_budget(move || tx.send(7u32).unwrap());
            assert_eq!(poll_then_park(&rx, timeout), Ok(7), "{timeout:?}");
            sender.join().unwrap();
        }
    }

    #[test]
    fn dropped_senders_disconnect_during_the_poll_and_during_the_park() {
        for timeout in [None, Some(Duration::from_secs(60))] {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            let polled = poll_then_park(&rx, timeout);
            assert_eq!(polled, Err(RecvTimeoutError::Disconnected), "{timeout:?}");

            let (tx, rx) = unbounded::<u32>();
            let dropper = after_the_budget(move || drop(tx));
            let parked = poll_then_park(&rx, timeout);
            assert_eq!(parked, Err(RecvTimeoutError::Disconnected), "{timeout:?}");
            dropper.join().unwrap();
        }
    }

    #[test]
    fn a_timeout_shorter_than_the_budget_ends_the_poll_at_its_deadline() {
        let (_tx, rx) = unbounded::<u32>();
        assert_eq!(
            poll_then_park(&rx, Some(Duration::ZERO)),
            Err(RecvTimeoutError::Timeout)
        );
        // A wait that polled the whole budget would take at least
        // `POLL_BEFORE_PARK` every time; one that stops at its 5 µs
        // deadline finishes well inside it at least once in 200 tries,
        // however loaded the host.
        let timeout = Duration::from_micros(5);
        let mut fastest = Duration::MAX;
        for _ in 0..200 {
            let started = Instant::now();
            assert_eq!(
                poll_then_park(&rx, Some(timeout)),
                Err(RecvTimeoutError::Timeout)
            );
            let took = started.elapsed();
            assert!(took >= timeout, "returned before its deadline: {took:?}");
            fastest = fastest.min(took);
            if fastest < POLL_BEFORE_PARK {
                break;
            }
        }
        assert!(
            fastest < POLL_BEFORE_PARK,
            "polled past its deadline: {fastest:?}"
        );
    }
}
