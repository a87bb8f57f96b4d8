//! Offline stand-in for `crossbeam`.
//!
//! Provides `crossbeam::channel::{unbounded, Sender, Receiver,
//! RecvError, RecvTimeoutError, TryRecvError, SendError}` — the only
//! surface `tutel-comm`'s threaded runtime uses — as an MPMC unbounded
//! channel over `Mutex<VecDeque>` + `Condvar`. Semantics match
//! crossbeam where this workspace relies on them: cloneable senders
//! *and* receivers, FIFO per queue, `recv` returning `Err(RecvError)`
//! once the queue is empty and every sender has dropped, and
//! `try_recv` / `recv_timeout` distinguishing `Empty` / `Timeout` from
//! `Disconnected`. Every wait parks at once; how long a caller polls
//! before it waits is the caller's policy, not the channel's.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Shared<T> {
        queue: Mutex<State<T>>,
        ready: Condvar,
    }

    struct State<T> {
        items: VecDeque<T>,
        senders: usize,
    }

    /// Sending half; cloneable (MPMC).
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// Receiving half; cloneable (MPMC).
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    ///
    /// This shim keeps no receiver count, so sends never fail; the
    /// type exists so call sites can keep crossbeam's `Result` shape.
    pub struct SendError<T>(pub T);

    // Like crossbeam, Debug does not require `T: Debug`.
    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] after disconnect.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    impl std::error::Error for RecvError {}

    /// Error returned by [`Receiver::recv_timeout`]: either the wait
    /// expired or the channel is empty and disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// The channel is empty and every sender has dropped.
        Disconnected,
    }

    impl fmt::Display for RecvTimeoutError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                RecvTimeoutError::Timeout => write!(f, "timed out waiting on channel"),
                RecvTimeoutError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for RecvTimeoutError {}

    /// Error returned by [`Receiver::try_recv`]: either nothing is
    /// queued yet or the channel is empty and disconnected.
    #[derive(Debug, PartialEq, Eq, Clone, Copy)]
    pub enum TryRecvError {
        /// Nothing is queued, and a sender is still alive.
        Empty,
        /// The channel is empty and every sender has dropped.
        Disconnected,
    }

    impl fmt::Display for TryRecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            match self {
                TryRecvError::Empty => write!(f, "receiving on an empty channel"),
                TryRecvError::Disconnected => {
                    write!(f, "receiving on an empty and disconnected channel")
                }
            }
        }
    }

    impl std::error::Error for TryRecvError {}

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            queue: Mutex::new(State {
                items: VecDeque::new(),
                senders: 1,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                shared: shared.clone(),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.shared.queue.lock().unwrap();
            state.items.push_back(value);
            drop(state);
            self.shared.ready.notify_one();
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.queue.lock().unwrap().senders += 1;
            Sender {
                shared: self.shared.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.queue.lock().unwrap();
            state.senders -= 1;
            let disconnected = state.senders == 0;
            drop(state);
            if disconnected {
                self.shared.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until an item arrives or every sender has dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(item) = state.items.pop_front() {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.ready.wait(state).unwrap();
            }
        }

        /// Non-blocking receive: `Empty` while nothing is queued,
        /// `Disconnected` once the queue is empty and every sender has
        /// dropped — matching crossbeam's `try_recv`.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.queue.lock().unwrap();
            match state.items.pop_front() {
                Some(item) => Ok(item),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Blocks until an item arrives, every sender has dropped, or
        /// `timeout` elapses — matching crossbeam's `recv_timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.queue.lock().unwrap();
            loop {
                if let Some(item) = state.items.pop_front() {
                    return Ok(item);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _result) = self
                    .shared
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap();
                state = guard;
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            Receiver {
                shared: self.shared.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::unbounded;
    use std::thread;

    #[test]
    fn fifo_within_single_producer() {
        let (tx, rx) = unbounded();
        for i in 0..100 {
            tx.send(i).unwrap();
        }
        for i in 0..100 {
            assert_eq!(rx.recv().unwrap(), i);
        }
    }

    #[test]
    fn recv_errors_after_all_senders_drop() {
        let (tx, rx) = unbounded::<u32>();
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use super::channel::RecvTimeoutError;
        use std::time::Duration;
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn try_recv_tells_empty_from_disconnected() {
        use super::channel::TryRecvError;
        let (tx, rx) = unbounded::<u32>();
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        tx.send(3).unwrap();
        drop(tx);
        // A queued item outlives its sender.
        assert_eq!(rx.try_recv(), Ok(3));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn cross_thread_delivery() {
        let (tx, rx) = unbounded();
        let handle = thread::spawn(move || {
            for i in 0..1000u64 {
                tx.send(i).unwrap();
            }
        });
        let mut sum = 0;
        for _ in 0..1000 {
            sum += rx.recv().unwrap();
        }
        handle.join().unwrap();
        assert_eq!(sum, 999 * 1000 / 2);
    }
}
